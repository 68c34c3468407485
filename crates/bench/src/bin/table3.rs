//! Regenerates **Table III**: performance data for OR bi-decomposition —
//! per circuit, `#Dec` (decomposed POs) and CPU seconds for LJH,
//! STEP-MG and STEP-{QD,QB,QDB}.
//!
//! Usage: `table3 [--scale ...] [--op ...] [--filter <name>] [--fast]
//! [--budget <spec>] [--circuit-budget <spec>] [--qbf-budget <spec>]
//! [--jobs n] [--seed n] [--no-cache] [--cache-cap n]`
//!
//! `--budget work:<n>` swaps the wall-clock per-output limit for a
//! deterministic conflict budget: the printed `#Dec` cells — and the
//! `BENCH_table3.json` records — become byte-identical across
//! machines and `--jobs` values (wall columns aside).
//!
//! The model × circuit product is sharded over one shared
//! [`StepService`](step_core::StepService) with `--jobs` workers
//! (circuits submitted through a bounded look-ahead window), so the
//! pool crosses circuit and model boundaries instead of parallelizing
//! only within a circuit; rows print in table order as their
//! submissions complete. Every submission shares one result
//! cache (keyed by canonical cone fingerprint × model × config), so
//! repeated cones across the circuit population are solved once per
//! model; per-run hit/miss counts land in the JSON records, along
//! with the seed/jobs/op/cache provenance that makes sharded sweep
//! outputs mergeable. Answers are deterministic for any `--jobs`;
//! the per-record *work* counters (sat_calls, cache hits/misses) are
//! scheduling-dependent under `--jobs > 1` — use `--jobs 1` when
//! diffing those across commits.

use step_bench::{secs, submit_sweep_entry, write_bench_json, BenchRecord, HarnessOpts};
use step_circuits::registry_table1;
use step_core::Model;
use step_serve::flag::finish_store;

/// Machine-readable mirror of the printed table (perf trajectory).
const JSON_OUT: &str = "BENCH_table3.json";

fn main() {
    let opts = HarnessOpts::from_args();
    let entries = opts.selected(registry_table1());
    let mut records: Vec<BenchRecord> = Vec::new();

    println!(
        "TABLE III: PERFORMANCE DATA FOR {} BI-DECOMPOSITION (scale {:?})",
        opts.op, opts.scale
    );
    println!(
        "{:<10} | {:>5} {:>9} | {:>5} {:>9} | {:>5} {:>9} | {:>5} {:>9} | {:>5} {:>9}",
        "Circuit",
        "#Dec",
        "LJH(s)",
        "#Dec",
        "MG(s)",
        "#Dec",
        "QD(s)",
        "#Dec",
        "QB(s)",
        "#Dec",
        "QDB(s)"
    );
    println!("{}", "-".repeat(104));

    // Shard the model × circuit product over one service, keeping a
    // bounded window of circuits submitted ahead of the join cursor —
    // enough to keep every worker busy across row boundaries without
    // holding the whole corpus in memory at once. Rows join (and
    // print) in table order.
    let service = opts.service();
    let window = opts.jobs.saturating_mul(2).max(4).min(entries.len());
    let mut pending: std::collections::VecDeque<_> = Vec::new().into();
    let mut next_submit = 0usize;

    let mut totals = [0.0f64; 5];
    for entry in &entries {
        while next_submit < entries.len() && pending.len() < window {
            pending.push_back(submit_sweep_entry(&service, &entries[next_submit], &opts));
            next_submit += 1;
        }
        let handles = pending.pop_front().expect("window stays primed");
        let runs = handles.map(|h| h.join().expect("stand-in circuits are well-formed"));
        for (t, r) in totals.iter_mut().zip(&runs) {
            *t += r.cpu.as_secs_f64();
        }
        for (m, r) in Model::ALL.iter().zip(&runs) {
            records.push(BenchRecord::of(
                *m,
                &opts.circuit_label(entry.name),
                r,
                &opts,
            ));
        }
        let cell = |r: &step_core::CircuitResult| {
            let cpu = if r.timed_out {
                format!("TO@{}", secs(r.cpu))
            } else {
                secs(r.cpu)
            };
            format!("{:>5} {:>9}", r.num_decomposed(), cpu)
        };
        println!(
            "{:<10} | {} | {} | {} | {} | {}",
            entry.name,
            cell(&runs[0]),
            cell(&runs[1]),
            cell(&runs[2]),
            cell(&runs[3]),
            cell(&runs[4]),
        );
    }
    println!("{}", "-".repeat(104));
    println!(
        "{:<10} | {:>15.2} | {:>15.2} | {:>15.2} | {:>15.2} | {:>15.2}",
        "TOTAL(s)", totals[0], totals[1], totals[2], totals[3], totals[4]
    );
    println!(
        "\nexpected shape (paper): MG fastest, LJH slowest, QD/QB/QDB in between \
         with #Dec equal to MG"
    );
    eprint!("{}", finish_store(&opts.store));
    write_bench_json(JSON_OUT, &records);
}
