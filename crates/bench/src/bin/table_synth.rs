//! Multi-level synthesis quality table: recursive bi-decomposition
//! (STEP-synth, the `step-synth` driver over a shared service) against
//! the BDD mux-network baseline from `step-bdd`, per registry circuit.
//!
//! Usage: `table_synth [--scale ...] [--filter <name>] [--budget <spec>]
//! [--circuit-budget <spec>] [--qbf-budget <spec>] [--jobs n] [--seed n]
//! [--no-cache] [--cache-cap n] [--clause-reuse] [--cache-dir <path>]`
//!
//! The budget scopes map onto synthesis stopping rules
//! ([`HarnessOpts::synth_options`]): `--budget` bounds each frontier
//! node, `--circuit-budget` is the whole-synthesis pool. Pure-work
//! specs make every emitted network — and hence the area/depth/literal
//! columns and the `BENCH_table_synth.json` records — byte-identical
//! across machines and `--jobs` values; the wall column aside.
//!
//! Columns, per circuit (summed/maxed over POs): the synthesized
//! network's two-input gates, AND nodes of its strashed AIG form, gate
//! depth and AIG literals (2 × ANDs), against the same three metrics
//! for the per-PO BDD mux networks, plus the frontier cones the
//! recursion expanded. Every synthesized network is SAT-verified
//! equivalent to its cone before it is counted.

use std::time::Instant;

use step_aig::{Aig, AigLit};
use step_bdd::Manager;
use step_bench::{secs, write_bench_json, BenchRecord, HarnessOpts};
use step_circuits::registry_table1;
use step_core::{Model, StepService};
use step_serve::flag::finish_store;
use step_synth::SynthDriver;

/// Machine-readable mirror of the printed table (perf trajectory).
const JSON_OUT: &str = "BENCH_table_synth.json";

/// `(and_nodes, depth)` of a compacted single-output network.
fn net_metrics(net: &Aig) -> (u64, u64) {
    let root = net.outputs()[0].lit();
    (net.and_count() as u64, net.level(root) as u64)
}

/// The BDD baseline: every PO cone as a mux network exported from its
/// BDD — `(and_nodes, depth)` summed/maxed over POs.
fn bdd_baseline(aig: &Aig) -> (u64, u64) {
    let mut ands = 0u64;
    let mut depth = 0u64;
    for out in aig.outputs() {
        let cone = aig.cone(out.lit());
        let mut m = Manager::new(cone.aig.num_inputs());
        let f = m.from_aig(&cone.aig, cone.root);
        let mut net = Aig::new();
        let ins: Vec<AigLit> = (0..cone.aig.num_inputs())
            .map(|i| net.add_input(format!("x{i}")))
            .collect();
        let root = m.export_aig(f, &mut net, &ins);
        net.add_output("f", root);
        let (a, d) = net_metrics(&net.compact());
        ands += a;
        depth = depth.max(d);
    }
    (ands, depth)
}

fn main() {
    let opts = HarnessOpts::from_args();
    let entries = opts.selected(registry_table1());
    let mut records: Vec<BenchRecord> = Vec::new();

    println!(
        "TABLE SYNTH: MULTI-LEVEL SYNTHESIS VS BDD MUX NETWORKS (scale {:?})",
        opts.scale
    );
    println!(
        "{:<10} | {:>5} {:>6} {:>5} {:>6} | {:>6} {:>5} {:>6} | {:>6} {:>9}",
        "Circuit", "gates", "ANDs", "depth", "lits", "bANDs", "bdep", "blits", "expand", "wall(s)"
    );
    println!("{}", "-".repeat(82));

    let service = opts.service();
    let mut totals = [0u64; 3]; // synth ANDs, bdd ANDs, expansions
    for entry in &entries {
        let aig = StepService::comb_arc(&opts.build(entry))
            .expect("stand-in circuits convert combinationally");
        let driver = SynthDriver::new(
            &service,
            opts.config(Model::QbfDisjoint),
            opts.synth_options(),
        );
        let start = Instant::now();
        let outputs = driver
            .synthesize_circuit(&aig)
            .expect("stand-in circuits synthesize");
        let wall = start.elapsed();

        let gates: u64 = outputs.iter().map(|o| o.tree.num_gates() as u64).sum();
        let mut ands = 0u64;
        let mut depth = 0u64;
        for o in &outputs {
            let (a, d) = net_metrics(&o.tree.to_aig().compact());
            ands += a;
            depth = depth.max(d);
        }
        let expanded: u64 = outputs.iter().map(|o| o.stats.nodes_expanded).sum();
        let (bdd_ands, bdd_depth) = bdd_baseline(&aig);
        println!(
            "{:<10} | {:>5} {:>6} {:>5} {:>6} | {:>6} {:>5} {:>6} | {:>6} {:>9}",
            entry.name,
            gates,
            ands,
            depth,
            2 * ands,
            bdd_ands,
            bdd_depth,
            2 * bdd_ands,
            expanded,
            secs(wall)
        );
        totals[0] += ands;
        totals[1] += bdd_ands;
        totals[2] += expanded;
        records.push(BenchRecord::of_synth(
            Model::QbfDisjoint,
            &opts.circuit_label(entry.name),
            &outputs,
            wall,
            &opts,
        ));
    }
    println!("{}", "-".repeat(82));
    println!(
        "total: {} synth ANDs vs {} BDD ANDs over {} expanded cones",
        totals[0], totals[1], totals[2]
    );
    write_bench_json(JSON_OUT, &records);
    eprint!("{}", finish_store(&opts.store));
}
