use step_cnf::{Cnf, Lit, Var};

use crate::{EffortStats, RestartPolicy, SolveResult, Solver};

fn lit(v: i64) -> Lit {
    Lit::from_dimacs(v)
}

fn solver_with(nvars: usize, clauses: &[&[i64]]) -> Solver {
    let mut s = Solver::new();
    s.ensure_vars(nvars);
    for c in clauses {
        s.add_clause(c.iter().map(|&v| lit(v)));
    }
    s
}

/// Brute-force satisfiability of a clause list.
fn brute_force_sat(nvars: usize, clauses: &[Vec<Lit>]) -> bool {
    assert!(nvars <= 20);
    (0..1usize << nvars).any(|m| {
        let a: Vec<bool> = (0..nvars).map(|i| m >> i & 1 == 1).collect();
        clauses.iter().all(|c| c.iter().any(|l| l.eval(&a)))
    })
}

#[test]
fn empty_formula_is_sat() {
    let mut s = Solver::new();
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn empty_clause_is_unsat() {
    let mut s = Solver::new();
    s.add_clause([]);
    assert!(!s.is_ok());
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn unit_propagation_only() {
    let mut s = solver_with(3, &[&[1], &[-1, 2], &[-2, 3]]);
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.model_value(lit(1)), Some(true));
    assert_eq!(s.model_value(lit(2)), Some(true));
    assert_eq!(s.model_value(lit(3)), Some(true));
}

#[test]
fn simple_unsat_chain() {
    let mut s = solver_with(2, &[&[1], &[-1, 2], &[-2], &[1, 2]]);
    assert_eq!(s.solve(), SolveResult::Unsat);
    // Subsequent calls remain UNSAT.
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn contradictory_units() {
    let mut s = solver_with(1, &[&[1], &[-1]]);
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn tautology_is_ignored() {
    let mut s = solver_with(2, &[&[1, -1], &[2]]);
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.model_value(lit(2)), Some(true));
}

#[test]
fn duplicate_literals_are_merged() {
    let mut s = solver_with(1, &[&[1, 1, 1]]);
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.model_value(lit(1)), Some(true));
}

#[test]
fn requires_search() {
    // XOR-ish constraints force actual branching + learning.
    let mut s = solver_with(
        4,
        &[
            &[1, 2],
            &[-1, -2],
            &[2, 3],
            &[-2, -3],
            &[3, 4],
            &[-3, -4],
            &[1, 4],
        ],
    );
    assert_eq!(s.solve(), SolveResult::Sat);
    let m: Vec<bool> = (1..=4).map(|v| s.model_value(lit(v)).unwrap()).collect();
    assert!(m[0] ^ m[1]);
    assert!(m[1] ^ m[2]);
    assert!(m[2] ^ m[3]);
    assert!(m[0] || m[3]);
}

/// Pigeonhole principle: n+1 pigeons into n holes — UNSAT and hard
/// enough to exercise learning, restarts and DB reduction.
fn pigeonhole(n: usize) -> (usize, Vec<Vec<Lit>>) {
    let pigeons = n + 1;
    let var = |p: usize, h: usize| Lit::pos(Var::new(p * n + h));
    let mut clauses = Vec::new();
    for p in 0..pigeons {
        clauses.push((0..n).map(|h| var(p, h)).collect());
    }
    for h in 0..n {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                clauses.push(vec![!var(p1, h), !var(p2, h)]);
            }
        }
    }
    (pigeons * n, clauses)
}

#[test]
fn pigeonhole_unsat() {
    for n in 2..=5 {
        let (nv, clauses) = pigeonhole(n);
        let mut s = Solver::new();
        s.ensure_vars(nv);
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        assert_eq!(s.solve(), SolveResult::Unsat, "PHP({}) must be UNSAT", n);
    }
}

#[test]
fn pigeonhole_n_pigeons_sat() {
    // n pigeons into n holes is satisfiable.
    let n = 4;
    let var = |p: usize, h: usize| Lit::pos(Var::new(p * n + h));
    let mut s = Solver::new();
    s.ensure_vars(n * n);
    for p in 0..n {
        s.add_clause((0..n).map(|h| var(p, h)));
    }
    for h in 0..n {
        for p1 in 0..n {
            for p2 in p1 + 1..n {
                s.add_clause([!var(p1, h), !var(p2, h)]);
            }
        }
    }
    assert_eq!(s.solve(), SolveResult::Sat);
    // Verify the model is a valid assignment.
    for p in 0..n {
        assert!((0..n).any(|h| s.model_value(var(p, h)) == Some(true)));
    }
}

#[test]
fn add_cnf_interface() {
    let mut cnf = Cnf::new();
    let x = Lit::pos(cnf.new_var());
    let y = Lit::pos(cnf.new_var());
    cnf.add_clause([x, y]);
    cnf.add_clause([!x, y]);
    let mut s = Solver::new();
    s.add_cnf(&cnf);
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.model_value(y), Some(true));
}

// ---------------------------------------------------------------------
// assumptions & cores
// ---------------------------------------------------------------------

#[test]
fn assumptions_flip_result() {
    let mut s = solver_with(2, &[&[1, 2]]);
    assert_eq!(
        s.solve_with_assumptions(&[lit(-1), lit(-2)]),
        SolveResult::Unsat
    );
    assert_eq!(s.solve_with_assumptions(&[lit(-1)]), SolveResult::Sat);
    assert_eq!(s.model_value(lit(2)), Some(true));
    assert_eq!(
        s.solve_with_assumptions(&[lit(1), lit(2)]),
        SolveResult::Sat
    );
    // Solver stays reusable.
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn failed_assumptions_form_core() {
    // x1 -> x2, x2 -> x3, assume x1 and ¬x3: core must contain both.
    let mut s = solver_with(4, &[&[-1, 2], &[-2, 3]]);
    let r = s.solve_with_assumptions(&[lit(1), lit(4), lit(-3)]);
    assert_eq!(r, SolveResult::Unsat);
    let core = s.failed_assumptions().to_vec();
    assert!(core.contains(&lit(1)), "core {core:?} must contain x1");
    assert!(core.contains(&lit(-3)), "core {core:?} must contain ¬x3");
    assert!(!core.contains(&lit(4)), "x4 is irrelevant: {core:?}");
    // The core itself must be contradictory with the clauses.
    let r2 = s.solve_with_assumptions(&core);
    assert_eq!(r2, SolveResult::Unsat);
}

#[test]
fn core_empty_when_clauses_unsat() {
    let mut s = solver_with(2, &[&[1], &[-1]]);
    assert_eq!(s.solve_with_assumptions(&[lit(2)]), SolveResult::Unsat);
    assert!(s.failed_assumptions().is_empty());
}

#[test]
fn assumption_of_level0_implied_literal() {
    let mut s = solver_with(2, &[&[1], &[-1, 2]]);
    assert_eq!(
        s.solve_with_assumptions(&[lit(1), lit(2)]),
        SolveResult::Sat
    );
    assert_eq!(s.solve_with_assumptions(&[lit(-2)]), SolveResult::Unsat);
    let core = s.failed_assumptions();
    assert_eq!(core, &[lit(-2)], "already-false assumption is its own core");
}

#[test]
fn incremental_clause_addition() {
    let mut s = solver_with(3, &[&[1, 2]]);
    assert_eq!(s.solve(), SolveResult::Sat);
    s.add_clause([lit(-1)]);
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.model_value(lit(2)), Some(true));
    s.add_clause([lit(-2)]);
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn directly_contradictory_assumptions() {
    let mut s = solver_with(2, &[&[1, 2]]);
    let r = s.solve_with_assumptions(&[lit(1), lit(-1)]);
    assert_eq!(r, SolveResult::Unsat);
    let core = s.failed_assumptions();
    assert!(
        core.contains(&lit(1)) && core.contains(&lit(-1)),
        "core {core:?}"
    );
    // Still reusable afterwards.
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn duplicate_assumptions_are_harmless() {
    let mut s = solver_with(2, &[&[-1, 2]]);
    assert_eq!(
        s.solve_with_assumptions(&[lit(1), lit(1), lit(2), lit(1)]),
        SolveResult::Sat
    );
    assert_eq!(s.model_value(lit(2)), Some(true));
}

#[test]
fn many_assumptions_deep_chain() {
    // x1 -> x2 -> ... -> x20; assume x1 and ¬x20.
    let n = 20;
    let mut s = Solver::new();
    s.ensure_vars(n);
    for i in 1..n {
        s.add_clause([lit(-(i as i64)), lit(i as i64 + 1)]);
    }
    let r = s.solve_with_assumptions(&[lit(1), lit(-(n as i64))]);
    assert_eq!(r, SolveResult::Unsat);
    let core = s.failed_assumptions();
    assert_eq!(core.len(), 2, "exactly the two ends: {core:?}");
}

#[test]
fn model_is_total_over_allocated_vars() {
    let mut s = solver_with(3, &[&[1]]);
    assert_eq!(s.solve(), SolveResult::Sat);
    for v in 1..=3 {
        assert!(s.model_value(lit(v)).is_some(), "x{v} must be assigned");
    }
}

#[test]
fn stats_accumulate() {
    let (nv, clauses) = pigeonhole(5);
    let mut s = Solver::new();
    s.ensure_vars(nv);
    for c in &clauses {
        s.add_clause(c.iter().copied());
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
    let st = s.stats();
    assert!(st.conflicts > 0);
    assert!(st.decisions > 0);
    assert!(st.propagations > 0);
}

// ---------------------------------------------------------------------
// budgets
// ---------------------------------------------------------------------

#[test]
fn conflict_budget_reports_unknown() {
    let (nv, clauses) = pigeonhole(7);
    let mut s = Solver::new();
    s.ensure_vars(nv);
    for c in &clauses {
        s.add_clause(c.iter().copied());
    }
    s.set_conflict_budget(Some(5));
    assert_eq!(s.solve(), SolveResult::Unknown);
    // Remove the budget: solvable again.
    s.set_conflict_budget(None);
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn effort_snapshots_are_monotone_across_solves() {
    // EffortStats is the budgeting currency of the deterministic Work
    // budgets: snapshots must only ever grow, call after call, so
    // `since` diffs charge each call's work exactly once.
    let (nv, clauses) = pigeonhole(6);
    let mut s = Solver::new();
    s.ensure_vars(nv);
    for c in &clauses {
        s.add_clause(c.iter().copied());
    }
    let mut prev = s.effort();
    assert_eq!(
        prev,
        EffortStats::default(),
        "fresh solver has spent nothing"
    );
    let mut total = EffortStats::default();
    for round in 0..4 {
        s.set_effort_budget(Some(3));
        let _ = s.solve();
        let now = s.effort();
        assert!(now.conflicts >= prev.conflicts, "round {round}: conflicts");
        assert!(now.decisions >= prev.decisions, "round {round}: decisions");
        assert!(
            now.propagations >= prev.propagations,
            "round {round}: propagations"
        );
        let delta = now.since(prev);
        assert!(delta.conflicts <= 3, "budget caps each call exactly");
        total += delta;
        prev = now;
    }
    assert_eq!(total, prev, "per-call deltas sum back to the snapshot");
    assert!(prev.conflicts > 0, "pigeonhole forces real conflicts");
}

#[test]
fn effort_budget_truncates_at_a_deterministic_point() {
    // Two identical solvers given the same budget must stop with
    // identical counters — the machine-independence Work budgets rely
    // on (a wall-clock deadline could never promise this).
    let (nv, clauses) = pigeonhole(7);
    let mk = || {
        let mut s = Solver::new();
        s.ensure_vars(nv);
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        s.set_effort_budget(Some(11));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.effort()
    };
    assert_eq!(mk(), mk());
}

#[test]
fn deadline_in_past_reports_unknown() {
    let (nv, clauses) = pigeonhole(6);
    let mut s = Solver::new();
    s.ensure_vars(nv);
    for c in &clauses {
        s.add_clause(c.iter().copied());
    }
    s.set_deadline(Some(std::time::Instant::now()));
    assert_eq!(s.solve(), SolveResult::Unknown);
    s.set_deadline(None);
    assert_eq!(s.solve(), SolveResult::Unsat);
}

// ---------------------------------------------------------------------
// proof logging
// ---------------------------------------------------------------------

#[test]
fn proof_of_simple_unsat_checks() {
    let mut s = Solver::new();
    s.enable_proof();
    s.ensure_vars(2);
    s.add_clause([lit(1), lit(2)]);
    s.add_clause([lit(-1), lit(2)]);
    s.add_clause([lit(1), lit(-2)]);
    s.add_clause([lit(-1), lit(-2)]);
    assert_eq!(s.solve(), SolveResult::Unsat);
    let proof = s.proof().expect("proof enabled");
    let empty = proof.empty_clause().expect("refutation recorded");
    assert!(proof.steps()[empty as usize].lits().is_empty());
    assert!(proof.check(), "all chains must replay");
}

#[test]
fn proof_of_unit_conflict() {
    let mut s = Solver::new();
    s.enable_proof();
    s.ensure_vars(1);
    s.add_clause([lit(1)]);
    s.add_clause([lit(-1)]);
    assert!(!s.is_ok());
    let proof = s.proof().unwrap();
    assert!(proof.empty_clause().is_some());
    assert!(proof.check());
}

#[test]
fn proof_of_pigeonhole() {
    for n in 2..=4 {
        let (nv, clauses) = pigeonhole(n);
        let mut s = Solver::new();
        s.enable_proof();
        s.ensure_vars(nv);
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        let proof = s.proof().unwrap();
        assert!(proof.empty_clause().is_some(), "PHP({n}) refutation");
        assert!(proof.check(), "PHP({n}) proof must replay");
    }
}

#[test]
#[should_panic]
fn enable_proof_after_clauses_panics() {
    let mut s = solver_with(1, &[&[1]]);
    s.enable_proof();
}

#[test]
fn drat_output_ends_with_empty_clause() {
    let mut s = Solver::new();
    s.enable_proof();
    s.ensure_vars(2);
    s.add_clause([lit(1), lit(2)]);
    s.add_clause([lit(-1), lit(2)]);
    s.add_clause([lit(1), lit(-2)]);
    s.add_clause([lit(-1), lit(-2)]);
    assert_eq!(s.solve(), SolveResult::Unsat);
    let drat = s.proof().unwrap().to_drat();
    let lines: Vec<&str> = drat.lines().collect();
    assert!(!lines.is_empty());
    assert_eq!(
        *lines.last().unwrap(),
        "0",
        "refutation ends in the empty clause"
    );
    for line in &lines {
        assert!(
            line.ends_with('0'),
            "every DRAT line is 0-terminated: {line}"
        );
    }
}

// ---------------------------------------------------------------------
// modern-kernel determinism lockdown (EMA restarts, tiering,
// preprocessing)
// ---------------------------------------------------------------------

/// The heuristic knobs must not leak nondeterminism into the effort
/// currency: an exact-conflict-cap truncation under EMA restarts +
/// tiered clause management lands on identical verdicts and counters
/// run-to-run — with preprocessing opted out and opted in alike.
#[test]
fn ema_tiering_truncation_is_deterministic() {
    let (nv, clauses) = pigeonhole(7);
    for preprocess in [false, true] {
        let mk = || {
            let mut s = Solver::new();
            s.set_restart_policy(RestartPolicy::Ema);
            s.set_preprocess(preprocess);
            s.ensure_vars(nv);
            for c in &clauses {
                s.add_clause(c.iter().copied());
            }
            s.set_effort_budget(Some(40));
            let r = s.solve();
            (r, s.effort())
        };
        let (r1, e1) = mk();
        let (r2, e2) = mk();
        assert_eq!(r1, r2, "preprocess={preprocess}: verdicts");
        assert_eq!(e1, e2, "preprocess={preprocess}: EffortStats");
        assert!(
            e1.conflicts <= 40,
            "preprocess={preprocess}: the cap stays exact ({} conflicts)",
            e1.conflicts
        );
    }
}

/// Same lockdown on the SAT side: a satisfiable instance solved under
/// EMA + tiering + preprocessing yields the same model run-to-run.
#[test]
fn ema_with_preprocess_model_is_deterministic() {
    // A satisfiable formula with enough structure to learn from:
    // pigeonhole with as many holes as pigeons.
    let n = 5usize;
    let var = |p: usize, h: usize| lit((p * n + h + 1) as i64);
    let mk = || {
        let mut s = Solver::new();
        s.set_restart_policy(RestartPolicy::Ema);
        s.set_preprocess(true);
        s.ensure_vars(n * n);
        for p in 0..n {
            s.add_clause((0..n).map(|h| var(p, h)));
        }
        for h in 0..n {
            for p1 in 0..n {
                for p2 in p1 + 1..n {
                    s.add_clause([!var(p1, h), !var(p2, h)]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        let model: Vec<Option<bool>> = (1..=(n * n) as i64)
            .map(|v| s.model_value(lit(v)))
            .collect();
        (model, s.effort())
    };
    assert_eq!(mk(), mk());
}

/// Preprocessing charges its work in conflict-equivalents, so even a
/// budget spent *entirely inside the pass* truncates exactly and
/// deterministically.
#[test]
fn preprocessing_effort_is_charged_and_capped() {
    let (nv, clauses) = pigeonhole(9);
    let mk = |budget| {
        let mut s = Solver::new();
        s.set_preprocess(true);
        s.ensure_vars(nv);
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        s.set_effort_budget(Some(budget));
        let r = s.solve();
        (r, s.effort())
    };
    // A 1-conflict budget dies inside (or right after) the pass.
    let (r1, e1) = mk(1);
    assert_eq!(r1, SolveResult::Unknown);
    assert!(e1.conflicts >= 1, "the pass must charge effort");
    assert_eq!((r1, e1), mk(1), "truncation point is deterministic");
}

/// The Glucose LBD-recompute-on-use update: a learnt clause's LBD is
/// monotone non-increasing over its lifetime (it is only rewritten
/// when the recomputed value is smaller).
#[test]
fn learnt_lbd_is_monotone_non_increasing() {
    let (nv, clauses) = pigeonhole(7);
    let mut s = Solver::new();
    s.set_restart_policy(RestartPolicy::Ema);
    s.ensure_vars(nv);
    for c in &clauses {
        s.add_clause(c.iter().copied());
    }
    let mut snapshots: Vec<std::collections::HashMap<u32, u32>> = Vec::new();
    for _ in 0..6 {
        s.set_effort_budget(Some(25));
        if s.solve() != SolveResult::Unknown {
            break;
        }
        snapshots.push(s.learnt_lbds().into_iter().collect());
    }
    assert!(snapshots.len() >= 2, "need surviving learnts to compare");
    let mut compared = 0;
    for w in snapshots.windows(2) {
        for (cref, lbd_before) in &w[0] {
            if let Some(lbd_after) = w[1].get(cref) {
                compared += 1;
                assert!(
                    lbd_after <= lbd_before,
                    "clause {cref}: LBD rose {lbd_before} -> {lbd_after}"
                );
            }
        }
    }
    assert!(compared > 0, "no clause survived between snapshots");
}

/// The tiered reducer never deletes core-tier (LBD ≤ 2) or locked
/// clauses, so the verdict survives reductions: php7 learns well past
/// the first reduction threshold before it is refuted.
#[test]
fn tiered_reduction_keeps_verdicts() {
    let (nv, clauses) = pigeonhole(7);
    let mut s = Solver::new();
    s.ensure_vars(nv);
    for c in &clauses {
        s.add_clause(c.iter().copied());
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
    let stats = s.stats();
    // Every conflict learns one clause; only a reduction sheds them.
    assert!(
        stats.learnts + 500 < stats.conflicts,
        "no reduction ran: {stats:?}"
    );
}

/// The restart-policy and preprocessing knobs round-trip through their
/// string forms (the CLI surface).
#[test]
fn restart_policy_parses_and_displays() {
    assert_eq!("luby".parse::<RestartPolicy>(), Ok(RestartPolicy::Luby));
    assert_eq!("ema".parse::<RestartPolicy>(), Ok(RestartPolicy::Ema));
    assert!("glucose".parse::<RestartPolicy>().is_err());
    assert_eq!(RestartPolicy::Luby.to_string(), "luby");
    assert_eq!(RestartPolicy::Ema.to_string(), "ema");
    let mut s = Solver::new();
    assert_eq!(s.restart_policy(), RestartPolicy::Luby);
    s.set_restart_policy(RestartPolicy::Ema);
    assert_eq!(s.restart_policy(), RestartPolicy::Ema);
}

/// Incremental gating: with no new original clauses since the last
/// pass, an enabled preprocessor is skipped outright (the CEGAR
/// re-solve fast path) — observable as zero extra conflicts on an
/// immediate re-solve of a satisfiable formula.
#[test]
fn preprocess_skips_resolve_without_new_clauses() {
    let mut s = solver_with(4, &[&[1, 2], &[-1, 3], &[-2, 4], &[3, 4]]);
    s.set_preprocess(true);
    assert_eq!(s.solve(), SolveResult::Sat);
    let spent = s.effort();
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(
        s.effort().since(spent).conflicts,
        0,
        "re-solve with no new clauses must not re-preprocess"
    );
}

/// `export_learnts` is a pure function of solver state: clauses come
/// out lit-sorted and (lbd, lits)-ordered, activities normalized to
/// the hottest variable, and a second export is byte-identical.
#[test]
fn export_learnts_is_deterministic_and_canonical() {
    let (nv, clauses) = pigeonhole(7);
    let mut s = Solver::new();
    s.ensure_vars(nv);
    for c in &clauses {
        s.add_clause(c.iter().copied());
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
    let e1 = s.export_learnts(64, 16);
    let e2 = s.export_learnts(64, 16);
    assert_eq!(e1, e2, "same state, same snapshot");
    assert!(!e1.is_empty(), "php7 pins core-tier clauses");
    assert!(e1.num_clauses() <= 64 && e1.activities.len() <= 16);
    for c in &e1.clauses {
        assert!(c.windows(2).all(|w| w[0] <= w[1]), "lits sorted: {c:?}");
    }
    let acts = &e1.activities;
    assert_eq!(acts.first().map(|&(_, a)| a), Some(1.0), "normalized");
    assert!(acts.windows(2).all(|w| w[0].1 >= w[1].1), "hottest first");
}

/// A verbatim import into a twin solver (identical clause set) adds
/// only implied clauses: the verdict is unchanged and the recipient
/// reaches it — here, with the full UNSAT proof replaying.
#[test]
fn import_learnts_preserves_verdicts_and_proofs() {
    let (nv, clauses) = pigeonhole(6);
    let mut donor = Solver::new();
    donor.ensure_vars(nv);
    for c in &clauses {
        donor.add_clause(c.iter().copied());
    }
    assert_eq!(donor.solve(), SolveResult::Unsat);
    let export = donor.export_learnts(256, 64);
    assert!(!export.is_empty());

    let mut twin = Solver::new();
    twin.enable_proof();
    twin.ensure_vars(nv);
    for c in &clauses {
        twin.add_clause(c.iter().copied());
    }
    // The donor's lemma set for an UNSAT formula may propagate to a
    // root conflict mid-import, stopping the replay early — that is
    // the fast path, not a failure.
    let added = twin.import_learnts(&export);
    assert!(added > 0 && added <= export.num_clauses() as u64);
    assert_eq!(twin.solve(), SolveResult::Unsat);
    let proof = twin.proof().unwrap();
    assert!(proof.empty_clause().is_some());
    assert!(proof.check(), "proof must replay across imported lemmas");
}

/// Clauses over variables the recipient does not have are skipped, not
/// trusted; activity hints for unknown variables are ignored too.
#[test]
fn import_skips_out_of_range_variables() {
    let mut donor = solver_with(6, &[&[5, 6], &[-5, 6], &[5, -6], &[-5, -6], &[1, 2]]);
    assert_eq!(donor.solve(), SolveResult::Unsat);
    let export = donor.export_learnts(64, 16);
    let mut small = solver_with(2, &[&[1, 2]]);
    let added = small.import_learnts(&export);
    let in_range = export
        .clauses
        .iter()
        .filter(|c| c.iter().all(|l| l.var().index() < 2))
        .count() as u64;
    assert_eq!(added, in_range);
    assert_eq!(small.solve(), SolveResult::Sat);
}

/// Regression: an interior `import_learnts` between incremental calls
/// must clear the previous call's failed-assumption core (its literals
/// describe a pre-import trail) and must not trip the level-0
/// `add_clause` assertion — the failed-assumption return path now
/// unwinds the assumption levels before returning.
#[test]
fn interior_import_resets_failed_assumption_state() {
    let mut s = solver_with(3, &[&[-1, -2, -3]]);
    let assumptions = [lit(1), lit(2), lit(3)];
    assert_eq!(s.solve_with_assumptions(&assumptions), SolveResult::Unsat);
    assert!(!s.failed_assumptions().is_empty(), "a core was extracted");

    // Adding clauses right after an assumption-UNSAT must work (the
    // solver is back at level 0, stale propagations unwound).
    let mut unit = crate::LearntExport::default();
    unit.clauses.push(vec![lit(-1)]);
    assert_eq!(s.import_learnts(&unit), 1);
    assert!(
        s.failed_assumptions().is_empty(),
        "pre-import core must not survive the import"
    );

    // Re-solving now fails on the first assumption alone: ¬x1 is
    // level-0 implied, so the minimal core is exactly [x1] — not the
    // stale three-literal core of the pre-import trail.
    assert_eq!(s.solve_with_assumptions(&assumptions), SolveResult::Unsat);
    assert_eq!(s.failed_assumptions(), &[lit(1)]);
}

/// Seeding a budget-truncated twin with donor clauses only ever helps:
/// the seeded solver needs no more conflicts than the cold one to
/// reach the same verdict on an identical formula.
#[test]
fn seeded_resolve_spends_no_more_conflicts() {
    let (nv, clauses) = pigeonhole(7);
    let mut donor = Solver::new();
    donor.ensure_vars(nv);
    for c in &clauses {
        donor.add_clause(c.iter().copied());
    }
    assert_eq!(donor.solve(), SolveResult::Unsat);
    let cold = donor.effort().conflicts;
    let export = donor.export_learnts(512, 128);

    let mut seeded = Solver::new();
    seeded.ensure_vars(nv);
    for c in &clauses {
        seeded.add_clause(c.iter().copied());
    }
    seeded.import_learnts(&export);
    let before = seeded.effort();
    assert_eq!(seeded.solve(), SolveResult::Unsat);
    let warm = seeded.effort().since(before).conflicts;
    assert!(
        warm <= cold,
        "seeded solve took {warm} conflicts vs {cold} cold"
    );
}

/// Deleted clauses are reclaimed: a long-lived incremental solver —
/// the shape of a session's partition oracle or a `step serve` process —
/// that keeps adding clauses and reducing its learnt database holds its
/// arena within a constant factor of its live clauses, and compaction
/// leaves no watcher pointing at a dead clause.
#[test]
fn arena_stays_bounded_across_incremental_reductions() {
    const NVARS: usize = 150;
    let mut rng = 0x0DDB_1A5E_5BAD_5EEDu64;
    let mut next = move |n: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % n as u64) as usize
    };
    let mut random_clause = |len: usize| -> Vec<Lit> {
        let mut c: Vec<Lit> = Vec::new();
        while c.len() < len {
            let v = next(NVARS);
            if !c.iter().any(|l| l.var().index() == v) {
                c.push(Lit::new(Var::new(v), next(2) == 0));
            }
        }
        c
    };
    let mut s = Solver::new();
    s.ensure_vars(NVARS);
    for _ in 0..540 {
        s.add_clause(random_clause(3));
    }
    let mut reductions_seen = false;
    for round in 0..300 {
        for _ in 0..2 {
            s.add_clause(random_clause(5));
        }
        let assumptions: Vec<Lit> = random_clause(4);
        s.set_effort_budget(Some(100));
        s.solve_with_assumptions(&assumptions);
        let (total, live) = s.arena_words();
        assert!(
            total <= 2 * live,
            "round {round}: arena holds {total} words for {live} live"
        );
        reductions_seen |= s.gc_runs() > 0;
        if round % 50 == 49 {
            s.force_gc();
            assert!(!s.has_dead_watchers(), "round {round}: dead watcher");
            assert_eq!(s.arena_words().0, s.arena_words().1);
        }
    }
    assert!(reductions_seen, "the sequence must reduce and compact");
    assert!(s.effort().conflicts > 10_000, "enough search to reduce");
}

/// Compaction under proof logging keeps every clause's proof id: a
/// refutation that reduced and compacted its database still replays.
#[test]
fn proofs_replay_across_arena_compaction() {
    let (nv, clauses) = pigeonhole(7);
    let mut s = Solver::new();
    s.enable_proof();
    s.ensure_vars(nv);
    for c in &clauses {
        s.add_clause(c.iter().copied());
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert!(s.gc_runs() > 0, "php7 must reduce and compact");
    let proof = s.proof().expect("proof logging is on");
    assert!(proof.empty_clause().is_some());
    assert!(proof.check(), "proof must replay across compaction");
}

// ---------------------------------------------------------------------
// randomized cross-checking
// ---------------------------------------------------------------------

mod props {
    use super::*;
    use proptest::prelude::*;

    fn arb_clauses(nvars: usize) -> impl Strategy<Value = Vec<Vec<Lit>>> {
        let clause = proptest::collection::vec(
            (0..nvars, proptest::bool::ANY).prop_map(|(v, neg)| Lit::new(Var::new(v), neg)),
            1..4,
        );
        proptest::collection::vec(clause, 1..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn matches_brute_force(clauses in arb_clauses(8)) {
            let want = brute_force_sat(8, &clauses);
            let mut s = Solver::new();
            s.ensure_vars(8);
            for c in &clauses {
                s.add_clause(c.iter().copied());
            }
            let got = s.solve();
            prop_assert_eq!(
                got,
                if want { SolveResult::Sat } else { SolveResult::Unsat }
            );
            if got == SolveResult::Sat {
                let m = s.model();
                for c in &clauses {
                    prop_assert!(c.iter().any(|l| l.eval(&m)), "model violates {c:?}");
                }
            }
        }

        #[test]
        fn unsat_proofs_replay(clauses in arb_clauses(6)) {
            if !brute_force_sat(6, &clauses) {
                let mut s = Solver::new();
                s.enable_proof();
                s.ensure_vars(6);
                for c in &clauses {
                    s.add_clause(c.iter().copied());
                }
                prop_assert_eq!(s.solve(), SolveResult::Unsat);
                let proof = s.proof().unwrap();
                prop_assert!(proof.empty_clause().is_some());
                prop_assert!(proof.check());
            }
        }

        #[test]
        fn cores_are_sound(clauses in arb_clauses(6), n_assume in 1usize..5) {
            let mut s = Solver::new();
            s.ensure_vars(6);
            for c in &clauses {
                s.add_clause(c.iter().copied());
            }
            let assumptions: Vec<Lit> =
                (0..n_assume).map(|i| Lit::new(Var::new(i), i % 2 == 0)).collect();
            if s.solve_with_assumptions(&assumptions) == SolveResult::Unsat {
                let core = s.failed_assumptions().to_vec();
                for l in &core {
                    prop_assert!(assumptions.contains(l), "core lit {l} not assumed");
                }
                // Core assumptions alone must still be UNSAT.
                prop_assert_eq!(s.solve_with_assumptions(&core), SolveResult::Unsat);
            }
        }

        #[test]
        fn incremental_equals_oneshot(clauses in arb_clauses(7)) {
            // Adding clauses one by one with solves in between must agree
            // with a fresh solver at every step.
            let mut inc = Solver::new();
            inc.ensure_vars(7);
            for (i, c) in clauses.iter().enumerate() {
                inc.add_clause(c.iter().copied());
                if i % 3 == 0 {
                    let want = brute_force_sat(7, &clauses[..=i]);
                    let got = inc.solve();
                    prop_assert_eq!(
                        got,
                        if want { SolveResult::Sat } else { SolveResult::Unsat },
                        "step {}", i
                    );
                }
            }
        }
    }
}
