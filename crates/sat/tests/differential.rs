//! Differential testing of the CDCL kernel against a reference DPLL
//! oracle.
//!
//! Solver heuristics — restart policies, clause tiering, preprocessing
//! — are exactly where silent wrong-answer bugs breed: they reshape
//! the search without (supposedly) changing what it concludes. This
//! harness makes every heuristic falsifiable. A deliberately boring
//! DPLL decision procedure (no learning, no heuristics, ~100 lines,
//! small enough to audit by eye) is run against the full kernel over
//! thousands of random k-CNF instances spanning the under-constrained,
//! phase-transition and over-constrained regimes, and the kernel must
//! agree under *every* knob combination: `RestartPolicy::{Luby, Ema}`
//! × preprocessing on/off, over the tiered clause database. SAT
//! models are checked against every clause, and UNSAT runs with proof
//! logging must replay end-to-end.

use step_cnf::{Lit, Var};
use step_sat::{RestartPolicy, SolveResult, Solver};

// ---------------------------------------------------------------------
// The reference oracle: plain DPLL with unit propagation, first
// unassigned variable as decision, no learning, no heuristics.
// ---------------------------------------------------------------------

/// `Some(true)`/`Some(false)` after propagation, `None` if unassigned.
fn lit_value(assign: &[Option<bool>], l: Lit) -> Option<bool> {
    assign[l.var().index()].map(|v| v != l.is_neg())
}

/// Propagates units to a fixpoint. Returns `false` on an empty clause.
fn dpll_propagate(clauses: &[Vec<Lit>], assign: &mut [Option<bool>]) -> bool {
    loop {
        let mut changed = false;
        for c in clauses {
            let mut unassigned = None;
            let mut n_unassigned = 0;
            let mut satisfied = false;
            for &l in c {
                match lit_value(assign, l) {
                    Some(true) => {
                        satisfied = true;
                        break;
                    }
                    Some(false) => {}
                    None => {
                        unassigned = Some(l);
                        n_unassigned += 1;
                    }
                }
            }
            if satisfied {
                continue;
            }
            match (n_unassigned, unassigned) {
                (0, _) => return false, // falsified clause
                (1, Some(l)) => {
                    assign[l.var().index()] = Some(!l.is_neg());
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return true;
        }
    }
}

/// Plain recursive DPLL. `true` iff the clause set is satisfiable.
fn dpll(clauses: &[Vec<Lit>], assign: &mut Vec<Option<bool>>) -> bool {
    if !dpll_propagate(clauses, assign) {
        return false;
    }
    let Some(v) = assign.iter().position(Option::is_none) else {
        return true; // all assigned, no clause falsified
    };
    for value in [true, false] {
        let saved = assign.clone();
        assign[v] = Some(value);
        if dpll(clauses, assign) {
            return true;
        }
        *assign = saved;
    }
    false
}

/// Oracle verdict for a formula over `nvars` variables.
fn oracle_sat(nvars: usize, clauses: &[Vec<Lit>]) -> bool {
    if clauses.iter().any(Vec::is_empty) {
        return false;
    }
    let mut assign = vec![None; nvars];
    dpll(clauses, &mut assign)
}

// ---------------------------------------------------------------------
// Deterministic random k-CNF generation (xorshift, no external deps).
// ---------------------------------------------------------------------

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random k-CNF instance: `nclauses` clauses of `k` distinct
/// variables each, random polarities.
fn random_kcnf(rng: &mut XorShift, nvars: usize, nclauses: usize, k: usize) -> Vec<Vec<Lit>> {
    (0..nclauses)
        .map(|_| {
            let mut vars: Vec<usize> = Vec::with_capacity(k);
            while vars.len() < k {
                let v = rng.below(nvars as u64) as usize;
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            vars.into_iter()
                .map(|v| Lit::new(Var::new(v), rng.below(2) == 0))
                .collect()
        })
        .collect()
}

/// Every knob combination the kernel must agree across.
const CONFIGS: [(RestartPolicy, bool); 4] = [
    (RestartPolicy::Luby, false),
    (RestartPolicy::Luby, true),
    (RestartPolicy::Ema, false),
    (RestartPolicy::Ema, true),
];

fn kernel(
    nvars: usize,
    clauses: &[Vec<Lit>],
    restarts: RestartPolicy,
    preprocess: bool,
    proof: bool,
) -> (SolveResult, Solver) {
    let mut s = Solver::new();
    if proof {
        s.enable_proof();
    }
    s.set_restart_policy(restarts);
    s.set_preprocess(preprocess);
    s.ensure_vars(nvars);
    for c in clauses {
        s.add_clause(c.iter().copied());
    }
    let r = s.solve();
    (r, s)
}

/// Checks one instance across all configs against the oracle; on SAT,
/// validates the model clause by clause.
fn check_instance(nvars: usize, clauses: &[Vec<Lit>], ctx: &str) {
    let want = oracle_sat(nvars, clauses);
    for (restarts, preprocess) in CONFIGS {
        let (got, s) = kernel(nvars, clauses, restarts, preprocess, false);
        let verdict = match got {
            SolveResult::Sat => true,
            SolveResult::Unsat => false,
            SolveResult::Unknown => panic!("{ctx}: unbudgeted solve returned Unknown"),
        };
        assert_eq!(
            verdict, want,
            "{ctx}: kernel({restarts}, preprocess={preprocess}) disagrees with oracle"
        );
        if got == SolveResult::Sat {
            for (i, c) in clauses.iter().enumerate() {
                assert!(
                    c.iter().any(|&l| s.model_value(l) == Some(true)),
                    "{ctx}: model under ({restarts}, preprocess={preprocess}) \
                     falsifies clause {i}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// The sweeps: thousands of instances at several clause/var ratios.
// ---------------------------------------------------------------------

/// 3-CNF at ratios spanning under-constrained (2.0), the ~4.27 phase
/// transition, and over-constrained (6.0) — the mix that exercises
/// deep search, frequent conflicts and quick refutations respectively.
#[test]
fn kernel_matches_dpll_oracle_on_random_3cnf() {
    let mut rng = XorShift(0x9E3779B97F4A7C15);
    for &(ratio_num, ratio_den) in &[(2u64, 1u64), (43, 10), (6, 1)] {
        for nvars in [8usize, 12, 16] {
            let nclauses = (nvars as u64 * ratio_num / ratio_den) as usize;
            for case in 0..150 {
                let clauses = random_kcnf(&mut rng, nvars, nclauses, 3);
                check_instance(
                    nvars,
                    &clauses,
                    &format!("3cnf r={ratio_num}/{ratio_den} n={nvars} case={case}"),
                );
            }
        }
    }
}

/// 2-CNF (implication-graph instances — heavy unit propagation) and
/// mixed-width clauses.
#[test]
fn kernel_matches_dpll_oracle_on_2cnf_and_mixed() {
    let mut rng = XorShift(0xD1B54A32D192ED03);
    for case in 0..400 {
        let nvars = 6 + (case % 8);
        let clauses = random_kcnf(&mut rng, nvars, 2 * nvars, 2);
        check_instance(nvars, &clauses, &format!("2cnf case={case}"));
    }
    for case in 0..400 {
        let nvars = 8 + (case % 6);
        // Mixed widths 1..=4: units and binaries feed the preprocessing
        // pass real strengthening/subsumption opportunities.
        let mut clauses = Vec::new();
        for k in 1..=4usize {
            clauses.extend(random_kcnf(&mut rng, nvars, nvars / k + 1, k));
        }
        check_instance(nvars, &clauses, &format!("mixed case={case}"));
    }
}

/// UNSAT answers must be stable across every knob combination *with
/// proof logging on*, and the proofs must replay end-to-end — the
/// lockdown for the tiering/subsumption/strengthening deletion paths.
#[test]
fn unsat_proofs_replay_under_all_heuristics() {
    let mut rng = XorShift(0xA076_1D64_78BD_642F);
    let mut unsat_seen = 0;
    for case in 0..300 {
        let nvars = 8 + (case % 5);
        let clauses = random_kcnf(&mut rng, nvars, 6 * nvars, 3);
        if oracle_sat(nvars, &clauses) {
            continue;
        }
        unsat_seen += 1;
        for (restarts, preprocess) in CONFIGS {
            let (got, s) = kernel(nvars, &clauses, restarts, preprocess, true);
            assert_eq!(
                got,
                SolveResult::Unsat,
                "case={case}: UNSAT must be stable under ({restarts}, {preprocess})"
            );
            let proof = s.proof().expect("proof logging was enabled");
            assert!(
                proof.empty_clause().is_some(),
                "case={case}: refutation must derive the empty clause"
            );
            assert!(
                proof.check(),
                "case={case}: proof must replay under ({restarts}, {preprocess})"
            );
        }
    }
    assert!(unsat_seen >= 50, "sweep too easy: only {unsat_seen} UNSAT");
}

/// Preprocessing deletes (subsumption) and replaces (self-subsuming
/// resolution) clauses at root level; neither may drop a step the
/// final refutation still resolves on. Constructed so the pass
/// provably fires: C = (a ∨ b) subsumes (a ∨ b ∨ c) and strengthens
/// (¬a ∨ b ∨ d) to (b ∨ d), and the remainder forces UNSAT.
#[test]
fn preprocessing_never_drops_a_clause_the_proof_needs() {
    let a = Lit::pos(Var::new(0));
    let b = Lit::pos(Var::new(1));
    let c = Lit::pos(Var::new(2));
    let d = Lit::pos(Var::new(3));
    let clauses: Vec<Vec<Lit>> = vec![
        vec![a, b],
        vec![a, b, c],  // subsumed by (a ∨ b)
        vec![!a, b, d], // strengthened to (b ∨ d) via resolution on a
        vec![!b, a],
        vec![!a, !b],
        vec![a, !b, c],
        // c ↔ d, ¬(c ∧ d), (c ∨ d): an unsatisfiable core untouched by
        // the simplifications above.
        vec![!c, d],
        vec![!d, c],
        vec![!c, !d],
        vec![c, d],
    ];
    assert!(!oracle_sat(4, &clauses), "construction must be UNSAT");
    for restarts in [RestartPolicy::Luby, RestartPolicy::Ema] {
        let (got, s) = kernel(4, &clauses, restarts, true, true);
        assert_eq!(got, SolveResult::Unsat);
        let proof = s.proof().expect("proof logging was enabled");
        assert!(proof.empty_clause().is_some());
        // `check` replays every chain against the *retained* steps: if
        // preprocessing had removed a step that a later chain (or the
        // final empty-clause derivation) references, the replay would
        // fail or index out of bounds.
        assert!(proof.check(), "proof with preprocessing must replay");
    }
}

/// Randomized incremental sequences: interleaved `add_clause`,
/// `solve_with_assumptions` and `import_learnts` — the exact call shape
/// of the clause-reuse layer — cross-checked against the oracle at
/// every solve. Imports come from a donor kernel solving the same
/// clause set (the soundness contract of [`Solver::import_learnts`]),
/// and the recipient's proof must keep replaying after each splice:
/// imports are axioms, so a chain resolving on one must still check.
#[test]
fn incremental_import_sequences_match_oracle() {
    let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
    for case in 0..100u64 {
        let nvars = 7 + (case as usize % 5);
        let (restarts, preprocess) = CONFIGS[case as usize % CONFIGS.len()];
        let mut s = Solver::new();
        s.enable_proof();
        s.set_restart_policy(restarts);
        s.set_preprocess(preprocess);
        s.ensure_vars(nvars);
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        'rounds: for round in 0..6 {
            let ctx = format!("case={case} round={round}");
            let k = 2 + rng.below(3) as usize;
            let batch = random_kcnf(&mut rng, nvars, nvars / 2 + 2, k);
            for c in &batch {
                s.add_clause(c.iter().copied());
            }
            clauses.extend(batch);
            if rng.below(2) == 0 {
                // Donor over the identical clause set; its learnts are
                // implied, so splicing them in must change nothing the
                // oracle can observe.
                let (_, donor) = kernel(nvars, &clauses, restarts, false, false);
                let export = donor.export_learnts(64, 16);
                s.import_learnts(&export);
                assert!(
                    s.proof().expect("proof enabled").check(),
                    "{ctx}: proof must replay across an interior import"
                );
            }
            let mut assumptions: Vec<Lit> = Vec::new();
            for _ in 0..rng.below(4) {
                let v = rng.below(nvars as u64) as usize;
                if !assumptions.iter().any(|l| l.var().index() == v) {
                    assumptions.push(Lit::new(Var::new(v), rng.below(2) == 0));
                }
            }
            let mut with_units = clauses.clone();
            with_units.extend(assumptions.iter().map(|&l| vec![l]));
            let want = oracle_sat(nvars, &with_units);
            match s.solve_with_assumptions(&assumptions) {
                SolveResult::Sat => {
                    assert!(want, "{ctx}: kernel SAT, oracle UNSAT");
                    for (i, c) in clauses.iter().enumerate() {
                        assert!(
                            c.iter().any(|&l| s.model_value(l) == Some(true)),
                            "{ctx}: model falsifies clause {i}"
                        );
                    }
                    for &a in &assumptions {
                        assert_eq!(
                            s.model_value(a),
                            Some(true),
                            "{ctx}: model breaks assumption"
                        );
                    }
                }
                SolveResult::Unsat => {
                    assert!(!want, "{ctx}: kernel UNSAT, oracle SAT");
                    let core = s.failed_assumptions().to_vec();
                    assert!(
                        core.iter().all(|l| assumptions.contains(l)),
                        "{ctx}: core {core:?} cites a non-assumption"
                    );
                    let mut with_core = clauses.clone();
                    with_core.extend(core.iter().map(|&l| vec![l]));
                    assert!(
                        !oracle_sat(nvars, &with_core),
                        "{ctx}: failed-assumption core is not contradictory"
                    );
                    if core.is_empty() {
                        // Root-level UNSAT: the sequence is over, and
                        // the whole refutation — imports included —
                        // must replay.
                        assert!(
                            s.proof().expect("proof enabled").check(),
                            "{ctx}: final refutation must replay"
                        );
                        break 'rounds;
                    }
                }
                SolveResult::Unknown => panic!("{ctx}: unbudgeted solve returned Unknown"),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Property-based layer: free-form clause shapes (duplicate literals,
// tautologies, repeated clauses) on top of the uniform k-CNF sweeps.
// ---------------------------------------------------------------------

mod props {
    use super::*;
    use proptest::prelude::*;

    fn arb_clauses(nvars: usize) -> impl Strategy<Value = Vec<Vec<Lit>>> {
        let clause = proptest::collection::vec(
            (0..nvars, proptest::bool::ANY).prop_map(|(v, neg)| Lit::new(Var::new(v), neg)),
            1..6,
        );
        proptest::collection::vec(clause, 1..50)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary (non-uniform) clause lists: kernel == oracle under
        /// every knob combination, models check out.
        #[test]
        fn kernel_matches_oracle_on_arbitrary_clauses(clauses in arb_clauses(9)) {
            check_instance(9, &clauses, "proptest");
        }
    }
}
