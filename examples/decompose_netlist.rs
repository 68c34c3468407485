//! The STEP tool flow on a whole netlist: read a circuit file
//! (`.bench`, `.blif` or `.aag`), convert latches combinationally (ABC
//! `comb`), bi-decompose every primary output, print a per-output
//! report and write the best decomposition back out as BLIF.
//!
//! Run with:
//! `cargo run --release --example decompose_netlist [-- <circuit-file> [or|and|xor]]`
//!
//! Without arguments a c17-like ISCAS netlist is used.

use std::path::Path;

use qbf_bidec::aig::blif;
use qbf_bidec::circuits::load_file;
use qbf_bidec::step::{BiDecomposer, DecompConfig, GateOp, Model};

const C17_LIKE: &str = "\
INPUT(G1)\nINPUT(G2)\nINPUT(G3)\nINPUT(G6)\nINPUT(G7)\n\
OUTPUT(G22)\nOUTPUT(G23)\n\
G10 = NAND(G1, G3)\nG11 = NAND(G3, G6)\nG16 = NAND(G2, G11)\n\
G19 = NAND(G11, G7)\nG22 = NAND(G10, G16)\nG23 = NAND(G16, G19)\n";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let circuit = match args.first() {
        Some(path) => load_file(Path::new(path)).expect("parse circuit file"),
        None => qbf_bidec::aig::bench_io::parse(C17_LIKE).expect("builtin netlist"),
    };
    let op = args
        .get(1)
        .and_then(|name| GateOp::from_name(name))
        .unwrap_or(GateOp::Or);

    let comb = if circuit.is_comb() {
        circuit
    } else {
        println!("sequential circuit: applying comb conversion");
        circuit.comb().expect("latches have next-state functions")
    };
    println!(
        "circuit: {} inputs, {} outputs, {} AND nodes; operator {op}",
        comb.num_inputs(),
        comb.num_outputs(),
        comb.and_count()
    );

    let engine = BiDecomposer::new(DecompConfig::new(Model::QbfDisjoint));
    let result = engine.decompose_circuit(&comb, op).expect("engine run");

    println!(
        "{:<12} {:>8} {:>6} {:>6} {:>6} {:>8} {:>8} {:>9}",
        "output", "support", "|XA|", "|XB|", "|XC|", "εD", "εB", "optimal?"
    );
    for out in &result.outputs {
        match &out.partition {
            Some(p) => println!(
                "{:<12} {:>8} {:>6} {:>6} {:>6} {:>8.3} {:>8.3} {:>9}",
                out.name,
                out.support,
                p.num_a(),
                p.num_b(),
                p.num_shared(),
                p.disjointness(),
                p.balancedness(),
                out.proved_optimal
            ),
            None => println!(
                "{:<12} {:>8} {:>6} {:>6} {:>6} {:>8} {:>8} {:>9}",
                out.name, out.support, "-", "-", "-", "-", "-", "n/a"
            ),
        }
    }
    println!(
        "\n{} of {} outputs decomposed in {:.3}s",
        result.num_decomposed(),
        result.outputs.len(),
        result.cpu.as_secs_f64()
    );

    // Write the first decomposition as a BLIF netlist f = fA <op> fB.
    if let Some(out) = result.outputs.iter().find(|o| o.decomposition.is_some()) {
        let mut d = out.decomposition.clone().expect("checked");
        let combined = d.combine();
        let mut net = d.aig.clone();
        net.add_output(format!("{}_rebuilt", out.name), combined);
        net.add_output(format!("{}_fA", out.name), d.fa);
        net.add_output(format!("{}_fB", out.name), d.fb);
        let text = blif::write(&net, &format!("{}_decomposed", out.name));
        println!("\nBLIF of the `{}` decomposition:\n{}", out.name, text);
    }
}
