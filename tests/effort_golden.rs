//! End-to-end effort gate.
//!
//! Runs the default-scale Table I registry through all five models
//! under a pure `Work` budget at `--jobs 1` and diffs the solver effort
//! each (model, circuit) pair spends — conflicts and propagations summed
//! over the circuit's outputs, from `OutputResult::effort` — against the
//! committed `tests/golden/effort.txt`.
//!
//! Effort under a work budget is exact and machine-independent, so any
//! change to the search (kernel heuristics, encodings, probe order)
//! shows up here as a diff, while pure speedups leave the file
//! byte-identical. A change that moves the search on purpose
//! regenerates the golden in the same change:
//!
//! ```sh
//! cargo test --release --test effort_golden -- --ignored regenerate
//! ```

use qbf_bidec::circuits::{registry_table1, Scale};
use qbf_bidec::step::{BiDecomposer, BudgetPolicy, DecompConfig, GateOp, Model};

/// Per-output conflict budget (`--budget work:2000`).
const WORK_PER_OUTPUT: u64 = 2000;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/effort.txt");

/// One line per (model, circuit): `model circuit conflicts= propagations=`.
fn effort_table() -> String {
    let mut out = String::new();
    for entry in registry_table1() {
        let aig = entry.build(Scale::Default);
        for model in Model::ALL {
            let mut cfg = DecompConfig::new(model);
            cfg.budget = BudgetPolicy::work(WORK_PER_OUTPUT);
            cfg.jobs = 1;
            let result = BiDecomposer::new(cfg)
                .decompose_circuit(&aig, GateOp::Or)
                .expect("registry circuit decomposes");
            let (conflicts, propagations) = result.outputs.iter().fold((0, 0), |(c, p), o| {
                (c + o.effort.conflicts, p + o.effort.propagations)
            });
            out.push_str(&format!(
                "{model} {} conflicts={conflicts} propagations={propagations}\n",
                entry.name
            ));
        }
    }
    out
}

#[test]
fn effort_matches_golden() {
    let want = std::fs::read_to_string(GOLDEN_PATH).expect("tests/golden/effort.txt");
    let got = effort_table();
    let diff: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("- {w}\n+ {g}"))
        .collect();
    assert!(
        diff.is_empty() && want.lines().count() == got.lines().count(),
        "effort moved against tests/golden/effort.txt \
         (regenerate only for an intended search change):\n{}",
        diff.join("\n")
    );
}

/// Rewrites the golden from the current tree.
#[test]
#[ignore = "regenerates tests/golden/effort.txt"]
fn regenerate() {
    std::fs::write(GOLDEN_PATH, effort_table()).expect("write tests/golden/effort.txt");
}
