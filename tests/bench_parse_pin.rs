//! Pins what the `.bench` reader builds, node for node.
//!
//! Every registry circuit is written as `.bench` text, parsed back and
//! written as ASCII AIGER, whose node numbering follows the order in
//! which the reader created the AND nodes. Each text is parsed twice:
//! as written (every gate defined before its first use) and with the
//! gate lines reversed, so the reader's depth-first resolution of
//! forward references decides the node order. The golden
//! `tests/golden/bench_parse.txt` holds one FNV-1a hash of that AIGER
//! text per (circuit, scale), so a reader change that creates the same
//! function with nodes in another order fails here.
//!
//! ```sh
//! cargo test --release --test bench_parse_pin -- --ignored regenerate
//! ```

use qbf_bidec::aig::{aiger, bench_io};
use qbf_bidec::circuits::{registry_all, Scale};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/bench_parse.txt");

/// 64-bit FNV-1a: a hash fixed by its definition, not by the toolchain.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `text` with its gate lines in reverse order, declarations first.
fn gates_reversed(text: &str) -> String {
    let (gates, decls): (Vec<&str>, Vec<&str>) = text.lines().partition(|l| l.contains('='));
    let mut out: Vec<&str> = decls;
    out.extend(gates.iter().rev());
    out.join("\n")
}

/// One line per (circuit, scale, line order):
/// `circuit scale order ands= aiger=<hash>`.
fn pin_table() -> String {
    let mut out = String::new();
    for entry in registry_all() {
        for (scale, label) in [(Scale::Default, "default"), (Scale::Full, "full")] {
            let text = bench_io::write(&entry.build(scale));
            for (order, text) in [
                ("written", text.clone()),
                ("reversed", gates_reversed(&text)),
            ] {
                let aig = bench_io::parse(&text).expect("registry netlists parse");
                out.push_str(&format!(
                    "{} {label} {order} ands={} aiger={:016x}\n",
                    entry.name,
                    aig.and_count(),
                    fnv1a(aiger::write(&aig).as_bytes())
                ));
            }
        }
    }
    out
}

#[test]
fn bench_parse_matches_pin() {
    let want = std::fs::read_to_string(GOLDEN_PATH).expect("tests/golden/bench_parse.txt");
    let got = pin_table();
    let diff: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("- {w}\n+ {g}"))
        .collect();
    assert!(
        diff.is_empty() && want.lines().count() == got.lines().count(),
        "parsed AIGs differ from the pin:\n{}",
        diff.join("\n")
    );
}

/// Rewrites the golden file from the current reader.
#[test]
#[ignore]
fn regenerate() {
    std::fs::write(GOLDEN_PATH, pin_table()).expect("write golden");
}
