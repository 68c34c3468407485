use step_aig::{Aig, AigLit};

use crate::{solve_qdimacs, ExistsForall, Qbf2Config, Qbf2Result, QbfOutcome};

/// Brute-force decision of ∃E ∀U. φ by full expansion.
fn brute_exists_forall(aig: &Aig, matrix: AigLit, e: &[usize], u: &[usize]) -> Option<Vec<bool>> {
    let n = aig.num_inputs();
    'outer: for em in 0..1usize << e.len() {
        let mut base = vec![false; n];
        for (i, &pi) in e.iter().enumerate() {
            base[pi] = em >> i & 1 == 1;
        }
        for um in 0..1usize << u.len() {
            let mut v = base.clone();
            for (i, &pi) in u.iter().enumerate() {
                v[pi] = um >> i & 1 == 1;
            }
            if !aig.eval_lit(matrix, &v) {
                continue 'outer;
            }
        }
        return Some((0..e.len()).map(|i| em >> i & 1 == 1).collect());
    }
    None
}

#[test]
fn trivial_valid() {
    // ∃x ∀y. x ∨ y
    let mut aig = Aig::new();
    let x = aig.add_input("x");
    let y = aig.add_input("y");
    let m = aig.or(x, y);
    let mut s = ExistsForall::new(aig, m, vec![0], vec![1]);
    match s.solve() {
        Qbf2Result::Valid(w) => assert_eq!(w, vec![true]),
        other => panic!("expected Valid, got {other:?}"),
    }
    assert!(s.stats().iterations >= 1);
}

#[test]
fn trivial_invalid() {
    // ∃x ∀y. x ∧ y — no x makes it true for y = 0.
    let mut aig = Aig::new();
    let x = aig.add_input("x");
    let y = aig.add_input("y");
    let m = aig.and(x, y);
    let mut s = ExistsForall::new(aig, m, vec![0], vec![1]);
    assert_eq!(s.solve(), Qbf2Result::Invalid);
}

#[test]
fn xor_is_invalid_equiv_needs_matching() {
    // ∃x ∀y. x ⊕ y is invalid; ∃x ∀y. (x ⊕ y) ∨ (x ↔ y) is valid.
    let mut aig = Aig::new();
    let x = aig.add_input("x");
    let y = aig.add_input("y");
    let m = aig.xor(x, y);
    let mut s = ExistsForall::new(aig.clone(), m, vec![0], vec![1]);
    assert_eq!(s.solve(), Qbf2Result::Invalid);

    let xn = aig.xnor(x, y);
    let both = aig.or(m, xn);
    let mut s2 = ExistsForall::new(aig, both, vec![0], vec![1]);
    assert!(matches!(s2.solve(), Qbf2Result::Valid(_)));
}

#[test]
fn no_universals_reduces_to_sat() {
    let mut aig = Aig::new();
    let x = aig.add_input("x");
    let y = aig.add_input("y");
    let m = aig.and(x, !y);
    let mut s = ExistsForall::new(aig, m, vec![0, 1], vec![]);
    match s.solve() {
        Qbf2Result::Valid(w) => assert_eq!(w, vec![true, false]),
        other => panic!("{other:?}"),
    }
}

#[test]
fn no_existentials_reduces_to_validity() {
    let mut aig = Aig::new();
    let x = aig.add_input("x");
    let taut = aig.or(x, !x);
    let mut s = ExistsForall::new(aig.clone(), taut, vec![], vec![0]);
    assert!(matches!(s.solve(), Qbf2Result::Valid(_)));
    let mut s2 = ExistsForall::new(aig, x, vec![], vec![0]);
    assert_eq!(s2.solve(), Qbf2Result::Invalid);
}

#[test]
fn constant_matrices() {
    let mut aig = Aig::new();
    let _ = aig.add_input("x");
    let mut s = ExistsForall::new(aig.clone(), AigLit::TRUE, vec![0], vec![]);
    assert!(matches!(s.solve(), Qbf2Result::Valid(_)));
    let mut s2 = ExistsForall::new(aig, AigLit::FALSE, vec![0], vec![]);
    assert_eq!(s2.solve(), Qbf2Result::Invalid);
}

#[test]
fn iteration_budget_reports_unknown() {
    // A formula needing several refinements: ∃x1..x4 ∀y1..y4. ∧(xi↔yi)
    // is invalid, and CEGAR needs iterations to learn it.
    let mut aig = Aig::new();
    let xs: Vec<_> = (0..4).map(|i| aig.add_input(format!("x{i}"))).collect();
    let ys: Vec<_> = (0..4).map(|i| aig.add_input(format!("y{i}"))).collect();
    let eqs: Vec<_> = (0..4).map(|i| aig.xnor(xs[i], ys[i])).collect();
    let m = aig.and_many(&eqs);
    let mut s = ExistsForall::new(aig, m, (0..4).collect(), (4..8).collect());
    s.set_config(Qbf2Config {
        max_iterations: Some(1),
        ..Qbf2Config::default()
    });
    assert_eq!(s.solve(), Qbf2Result::Unknown);
}

#[test]
fn effort_budget_truncates_deterministically_and_charges_inner_work() {
    // A pigeonhole matrix (5 pigeons, 4 holes) over the existential
    // block: once a refinement copies it into the abstraction, the
    // refutation needs real conflicts. Under a total-conflict budget
    // the solve must stop at the same effort snapshot every time (the
    // machine-independence the Work budgets of step-core rely on).
    let build = || {
        let (pigeons, holes) = (5, 4);
        let mut aig = Aig::new();
        let x: Vec<Vec<_>> = (0..pigeons)
            .map(|p| {
                (0..holes)
                    .map(|h| aig.add_input(format!("x{p}_{h}")))
                    .collect()
            })
            .collect();
        let mut parts = Vec::new();
        for p in 0..pigeons {
            let row = x[p].clone();
            parts.push(aig.or_many(&row));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    let both = aig.and(x[p1][h], x[p2][h]);
                    parts.push(!both);
                }
            }
        }
        let m = aig.and_many(&parts);
        let n = aig.num_inputs();
        ExistsForall::new(aig, m, (0..n).collect(), Vec::new())
    };
    // Unbudgeted: Invalid, with nonzero effort across the solvers.
    let mut free = build();
    assert_eq!(free.solve(), Qbf2Result::Invalid);
    let full = free.effort();
    assert!(full.conflicts > 0, "refutation needs conflicts: {full:?}");
    assert!(full.propagations > 0);
    // Budget one conflict below the full cost: Unknown, at an exact,
    // reproducible truncation point.
    let run_budgeted = || {
        let mut s = build();
        s.set_effort_budget(Some(full.conflicts - 1));
        let r = s.solve();
        (r, s.effort())
    };
    let (r1, e1) = run_budgeted();
    let (r2, e2) = run_budgeted();
    assert_eq!(r1, Qbf2Result::Unknown);
    assert_eq!((r1, e1), (r2, e2), "truncation point must be exact");
    assert!(e1.conflicts < full.conflicts, "budget is a hard cap");
}

#[test]
fn deadline_reports_unknown() {
    let mut aig = Aig::new();
    let x = aig.add_input("x");
    let y = aig.add_input("y");
    let m = aig.or(x, y);
    let mut s = ExistsForall::new(aig, m, vec![0], vec![1]);
    s.set_config(Qbf2Config {
        deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
        ..Qbf2Config::default()
    });
    assert_eq!(s.solve(), Qbf2Result::Unknown);
}

// ---------------------------------------------------------------------
// QDIMACS front-end
// ---------------------------------------------------------------------

#[test]
fn qdimacs_forall_exists_true() {
    // ∀x ∃y. (x ∨ y) ∧ (¬x ∨ ¬y): y = ¬x always works.
    let text = "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n";
    assert_eq!(
        solve_qdimacs(text, Qbf2Config::default()).unwrap(),
        QbfOutcome::True
    );
}

#[test]
fn qdimacs_exists_forall_false() {
    // ∃y ∀x. (x ∨ y) ∧ (¬x ∨ ¬y): no fixed y works for both x values.
    let text = "p cnf 2 2\ne 2 0\na 1 0\n1 2 0\n-1 -2 0\n";
    assert_eq!(
        solve_qdimacs(text, Qbf2Config::default()).unwrap(),
        QbfOutcome::False
    );
}

#[test]
fn qdimacs_free_variables_are_existential() {
    // Free var 1 with clause (1): satisfiable.
    let text = "p cnf 1 1\n1 0\n";
    assert_eq!(
        solve_qdimacs(text, Qbf2Config::default()).unwrap(),
        QbfOutcome::True
    );
    let text2 = "p cnf 1 2\n1 0\n-1 0\n";
    assert_eq!(
        solve_qdimacs(text2, Qbf2Config::default()).unwrap(),
        QbfOutcome::False
    );
}

#[test]
fn qdimacs_pure_forall() {
    let taut = "p cnf 1 1\na 1 0\n1 -1 0\n";
    assert_eq!(
        solve_qdimacs(taut, Qbf2Config::default()).unwrap(),
        QbfOutcome::True
    );
    let not_taut = "p cnf 1 1\na 1 0\n1 0\n";
    assert_eq!(
        solve_qdimacs(not_taut, Qbf2Config::default()).unwrap(),
        QbfOutcome::False
    );
}

#[test]
fn qdimacs_rejects_3qbf() {
    let text = "p cnf 3 1\ne 1 0\na 2 0\ne 3 0\n1 2 3 0\n";
    assert!(solve_qdimacs(text, Qbf2Config::default()).is_err());
}

// ---------------------------------------------------------------------
// randomized cross-checks against expansion
// ---------------------------------------------------------------------

mod props {
    use super::*;
    use proptest::prelude::*;

    fn arb_ops() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
        proptest::collection::vec((0u8..4, 0usize..64, 0usize..64), 1..30)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn cegar_matches_expansion(ops in arb_ops(), ne in 1usize..4) {
            let n = 6usize;
            let ne = ne.min(n - 1);
            let mut aig = Aig::new();
            let mut pool: Vec<AigLit> =
                (0..n).map(|i| aig.add_input(format!("x{i}"))).collect();
            for (op, i, j) in ops {
                let a = pool[i % pool.len()];
                let b = pool[j % pool.len()];
                let v = match op {
                    0 => aig.and(a, b),
                    1 => aig.or(a, b),
                    2 => aig.xor(a, b),
                    _ => !a,
                };
                pool.push(v);
            }
            let matrix = *pool.last().unwrap();
            let e: Vec<usize> = (0..ne).collect();
            let u: Vec<usize> = (ne..n).collect();
            let want = brute_exists_forall(&aig, matrix, &e, &u);
            let mut s = ExistsForall::new(aig.clone(), matrix, e.clone(), u.clone());
            match s.solve() {
                Qbf2Result::Valid(w) => {
                    prop_assert!(want.is_some(), "CEGAR said Valid, expansion says Invalid");
                    // Verify the witness truly beats every u assignment.
                    let mut base = vec![false; n];
                    for (i, &pi) in e.iter().enumerate() {
                        base[pi] = w[i];
                    }
                    for um in 0..1usize << u.len() {
                        let mut v = base.clone();
                        for (i, &pi) in u.iter().enumerate() {
                            v[pi] = um >> i & 1 == 1;
                        }
                        prop_assert!(aig.eval_lit(matrix, &v), "witness fails at u={um}");
                    }
                }
                Qbf2Result::Invalid => prop_assert!(want.is_none()),
                Qbf2Result::Unknown => prop_assert!(false, "no budget was set"),
            }
        }
    }
}
