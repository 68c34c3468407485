use crate::card::{
    assert_count_dominates, assert_linear_le, at_least_k, at_least_one, at_most_k, at_most_one,
    exactly_k, CardEncoding, Totalizer,
};
use crate::tseitin::{encode_standalone, AigCnf};
use crate::{parse_dimacs, parse_qdimacs, write_dimacs, write_qdimacs, Cnf, Lit, Quant, Var};

/// All assignments over the first `n_orig` variables that can be
/// extended (over the remaining variables) to a model of `cnf`,
/// reported as bitmasks (bit i = value of variable i).
fn projected_models(cnf: &Cnf, n_orig: usize) -> Vec<usize> {
    let n = cnf.num_vars();
    assert!(n <= 24, "brute force capped at 24 variables, got {n}");
    let mut found = vec![false; 1 << n_orig];
    for m in 0..1usize << n {
        let assignment: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
        if cnf.eval(&assignment) {
            found[m & ((1 << n_orig) - 1)] = true;
        }
    }
    (0..1 << n_orig).filter(|&m| found[m]).collect()
}

fn fresh_lits(cnf: &mut Cnf, n: usize) -> Vec<Lit> {
    (0..n).map(|_| Lit::pos(cnf.new_var())).collect()
}

#[test]
fn lit_and_var_basics() {
    let v = Var::new(4);
    let p = Lit::pos(v);
    assert_eq!(p.var(), v);
    assert!(!p.is_neg());
    assert!((!p).is_neg());
    assert_eq!(!!p, p);
    assert_eq!(p.to_dimacs(), 5);
    assert_eq!((!p).to_dimacs(), -5);
    assert_eq!(Lit::from_dimacs(5), p);
    assert_eq!(Lit::from_dimacs(-5), !p);
    assert_eq!(p.xor_sign(true), !p);
    assert_eq!(Lit::new(v, true), !p);
    let mut a = vec![false; 5];
    a[4] = true;
    assert!(p.eval(&a));
    assert!(!(!p).eval(&a));
}

#[test]
#[should_panic]
fn dimacs_zero_literal_panics() {
    let _ = Lit::from_dimacs(0);
}

#[test]
fn cnf_eval_and_helpers() {
    let mut cnf = Cnf::new();
    let x = Lit::pos(cnf.new_var());
    let y = Lit::pos(cnf.new_var());
    cnf.add_clause([x, y]);
    cnf.add_implies(x, y);
    assert!(cnf.eval(&[true, true]));
    assert!(cnf.eval(&[false, true]));
    assert!(!cnf.eval(&[true, false]));
    assert!(!cnf.eval(&[false, false]));
    let mut c2 = Cnf::new();
    let a = Lit::pos(c2.new_var());
    let b = Lit::pos(c2.new_var());
    c2.add_iff(a, b);
    assert!(c2.eval(&[true, true]));
    assert!(c2.eval(&[false, false]));
    assert!(!c2.eval(&[true, false]));
}

#[test]
fn cnf_simplified_removes_tautologies() {
    let mut cnf = Cnf::new();
    let x = Lit::pos(cnf.new_var());
    let y = Lit::pos(cnf.new_var());
    cnf.add_clause([x, !x]);
    cnf.add_clause([y, y, x]);
    let s = cnf.simplified();
    assert_eq!(s.num_clauses(), 1);
    assert_eq!(s.clauses()[0].len(), 2);
}

#[test]
fn dimacs_round_trip() {
    let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n";
    let cnf = parse_dimacs(text).unwrap();
    assert_eq!(cnf.num_vars(), 3);
    assert_eq!(cnf.num_clauses(), 2);
    let back = parse_dimacs(&write_dimacs(&cnf)).unwrap();
    assert_eq!(back.clauses(), cnf.clauses());
}

#[test]
fn dimacs_rejects_malformed() {
    assert!(parse_dimacs("1 2 0").is_err(), "missing header");
    assert!(parse_dimacs("p cnf x 2\n").is_err(), "bad header");
    assert!(
        parse_dimacs("p cnf 2 1\n1 2\n").is_err(),
        "unterminated clause"
    );
    assert!(
        parse_dimacs("p cnf 2 1\na 1 0\n1 0").is_err(),
        "prefix in plain cnf"
    );
}

#[test]
fn qdimacs_round_trip() {
    let text = "p cnf 4 2\na 1 2 0\ne 3 4 0\n1 3 0\n-2 4 0\n";
    let q = parse_qdimacs(text).unwrap();
    assert_eq!(q.prefix.len(), 2);
    assert_eq!(q.prefix[0], (Quant::Forall, vec![0, 1]));
    assert_eq!(q.prefix[1], (Quant::Exists, vec![2, 3]));
    let back = parse_qdimacs(&write_qdimacs(&q.prefix, &q.matrix)).unwrap();
    assert_eq!(back.prefix, q.prefix);
    assert_eq!(back.matrix.clauses(), q.matrix.clauses());
}

// ---------------------------------------------------------------------
// Tseitin
// ---------------------------------------------------------------------

#[test]
fn tseitin_encodes_function_exactly() {
    let mut aig = step_aig::Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let c = aig.add_input("c");
    let t = aig.xor(a, b);
    let f = aig.mux(c, t, a);
    aig.add_output("f", f);

    let (mut cnf, inputs, root) = encode_standalone(&aig, f);
    // Reserve a fresh var aliased to root so it is among the first vars.
    let o = Lit::pos(cnf.new_var());
    cnf.add_iff(o, root);
    // Project models onto (inputs..., o): o must equal f(inputs).
    // inputs are vars 0..3, o is some later var — remap by checking all
    // models directly.
    let n = cnf.num_vars();
    assert!(n <= 24);
    let mut seen = std::collections::HashSet::new();
    for m in 0..1usize << n {
        let assignment: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
        if cnf.eval(&assignment) {
            let ins: Vec<bool> = inputs.iter().map(|l| l.eval(&assignment)).collect();
            let want = aig.eval(&ins)[0];
            assert_eq!(o.eval(&assignment), want, "tseitin root must equal f");
            seen.insert(ins);
        }
    }
    assert_eq!(seen.len(), 8, "every input assignment must be extendable");
}

#[test]
fn tseitin_shares_nodes_across_roots() {
    let mut aig = step_aig::Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let t = aig.and(a, b);
    let f = aig.or(t, a);

    let mut cnf = Cnf::new();
    let mut enc = AigCnf::new();
    let lt = enc.encode(&mut cnf, &aig, t);
    let n_after_t = cnf.num_vars();
    let lf = enc.encode(&mut cnf, &aig, f);
    assert_ne!(lt, lf);
    // Encoding f reuses the t node: only the OR gate is new.
    assert_eq!(cnf.num_vars(), n_after_t + 1);
    assert_eq!(enc.lit(t), lt);
    assert_eq!(enc.lit(!t), !lt);
}

#[test]
fn tseitin_constant_root() {
    let aig = step_aig::Aig::new();
    let mut cnf = Cnf::new();
    let mut enc = AigCnf::new();
    let l = enc.encode(&mut cnf, &aig, step_aig::AigLit::TRUE);
    cnf.add_unit(l);
    assert!(
        !projected_models(&cnf, 0).is_empty(),
        "TRUE must be satisfiable"
    );
    let mut cnf2 = Cnf::new();
    let mut enc2 = AigCnf::new();
    let l2 = enc2.encode(&mut cnf2, &aig, step_aig::AigLit::FALSE);
    cnf2.add_unit(l2);
    assert!(
        projected_models(&cnf2, 0).is_empty(),
        "FALSE must be unsatisfiable"
    );
}

#[test]
fn plaisted_greenbaum_equisatisfiable() {
    use crate::tseitin::encode_plaisted_greenbaum;
    // f = (a ⊕ b) ∧ ¬c asserted true: PG encoding must admit exactly
    // the satisfying input assignments of full Tseitin, with fewer
    // clauses.
    let mut aig = step_aig::Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let c = aig.add_input("c");
    let x = aig.xor(a, b);
    let f = aig.and(x, !c);

    let mut full = Cnf::new();
    let mut enc = AigCnf::new();
    let in_full: Vec<Lit> = (0..3)
        .map(|i| {
            let l = Lit::pos(full.new_var());
            enc.bind(aig.input_node(i), l);
            l
        })
        .collect();
    let rf = enc.encode(&mut full, &aig, f);
    full.add_unit(rf);

    let mut pg = Cnf::new();
    let mut bind = std::collections::HashMap::new();
    let in_pg: Vec<Lit> = (0..3)
        .map(|i| {
            let l = Lit::pos(pg.new_var());
            bind.insert(aig.input_node(i), l);
            l
        })
        .collect();
    let (rp, _) = encode_plaisted_greenbaum(&mut pg, &aig, f, &bind);
    pg.add_unit(rp);

    assert!(pg.num_clauses() < full.num_clauses(), "PG must be smaller");
    let full_models: std::collections::HashSet<Vec<bool>> = projected_models(&full, 3)
        .into_iter()
        .map(|m| {
            in_full
                .iter()
                .map(|l| l.eval(&[m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1]))
                .collect()
        })
        .collect();
    let pg_models: std::collections::HashSet<Vec<bool>> = projected_models(&pg, 3)
        .into_iter()
        .map(|m| {
            in_pg
                .iter()
                .map(|l| l.eval(&[m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1]))
                .collect()
        })
        .collect();
    assert_eq!(full_models, pg_models);
    // Ground truth: assignments with f = 1.
    for m in 0..8usize {
        let v = vec![m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1];
        let want = (v[0] ^ v[1]) && !v[2];
        assert_eq!(pg_models.contains(&v), want, "at {v:?}");
    }
}

// ---------------------------------------------------------------------
// Cardinality
// ---------------------------------------------------------------------

fn check_amk(n: usize, k: usize, enc: CardEncoding) {
    let mut cnf = Cnf::new();
    let lits = fresh_lits(&mut cnf, n);
    at_most_k(&mut cnf, &lits, k, enc);
    if cnf.num_vars() > 24 {
        return; // brute-force budget exceeded; covered by smaller cases
    }
    let models = projected_models(&cnf, n);
    let want: Vec<usize> = (0..1usize << n)
        .filter(|m| (m.count_ones() as usize) <= k)
        .collect();
    assert_eq!(models, want, "AMK n={n} k={k} enc={enc:?}");
}

#[test]
fn at_most_k_all_encodings() {
    for n in 1..=5 {
        for k in 0..=n {
            check_amk(n, k, CardEncoding::Pairwise);
            check_amk(n, k, CardEncoding::SequentialCounter);
            check_amk(n, k, CardEncoding::Totalizer);
        }
    }
}

#[test]
fn at_least_and_exactly() {
    for n in 1..=4 {
        for k in 0..=n + 1 {
            let mut cnf = Cnf::new();
            let lits = fresh_lits(&mut cnf, n);
            at_least_k(&mut cnf, &lits, k, CardEncoding::Totalizer);
            let models = projected_models(&cnf, n);
            let want: Vec<usize> = (0..1usize << n)
                .filter(|m| (m.count_ones() as usize) >= k)
                .collect();
            assert_eq!(models, want, "ALK n={n} k={k}");

            if k <= n {
                let mut cnf = Cnf::new();
                let lits = fresh_lits(&mut cnf, n);
                exactly_k(&mut cnf, &lits, k, CardEncoding::SequentialCounter);
                let models = projected_models(&cnf, n);
                let want: Vec<usize> = (0..1usize << n)
                    .filter(|m| (m.count_ones() as usize) == k)
                    .collect();
                assert_eq!(models, want, "EK n={n} k={k}");
            }
        }
    }
}

#[test]
fn at_most_one_and_at_least_one() {
    let mut cnf = Cnf::new();
    let lits = fresh_lits(&mut cnf, 4);
    at_most_one(&mut cnf, &lits);
    at_least_one(&mut cnf, &lits);
    let models = projected_models(&cnf, 4);
    assert_eq!(models, vec![1, 2, 4, 8]);

    let mut unsat = Cnf::new();
    at_least_one(&mut unsat, &[]);
    assert!(projected_models(&unsat, 0).is_empty());
}

#[test]
fn totalizer_outputs_are_exact() {
    for n in 1..=5 {
        let mut cnf = Cnf::new();
        let lits = fresh_lits(&mut cnf, n);
        let tot = Totalizer::new(&mut cnf, &lits);
        assert_eq!(tot.len(), n);
        let nv = cnf.num_vars();
        for m in 0..1usize << nv {
            let assignment: Vec<bool> = (0..nv).map(|i| m >> i & 1 == 1).collect();
            if cnf.eval(&assignment) {
                let count = lits.iter().filter(|l| l.eval(&assignment)).count();
                for (i, &o) in tot.outputs().iter().enumerate() {
                    assert_eq!(
                        o.eval(&assignment),
                        count > i,
                        "totalizer output {i} inexact for n={n}"
                    );
                }
            }
        }
    }
}

#[test]
fn totalizer_bounds() {
    let mut cnf = Cnf::new();
    let lits = fresh_lits(&mut cnf, 4);
    let tot = Totalizer::new(&mut cnf, &lits);
    tot.assert_ge(&mut cnf, 1);
    tot.assert_le(&mut cnf, 2);
    let models = projected_models(&cnf, 4);
    let want: Vec<usize> = (0..16)
        .filter(|m: &usize| (1..=2).contains(&(m.count_ones() as usize)))
        .collect();
    assert_eq!(models, want);
    // count_ge edges
    assert!(tot.count_ge(0).is_none());
    assert!(tot.count_ge(5).is_none());
    assert!(tot.count_ge(4).is_some());
}

#[test]
fn totalizer_empty_and_unsat_ge() {
    let mut cnf = Cnf::new();
    let tot = Totalizer::new(&mut cnf, &[]);
    assert!(tot.is_empty());
    tot.assert_le(&mut cnf, 0); // trivially true
    assert!(!projected_models(&cnf, 0).is_empty());
    tot.assert_ge(&mut cnf, 1); // impossible
    assert!(projected_models(&cnf, 0).is_empty());
}

#[test]
fn count_dominates() {
    // 2 a-lits, 2 b-lits: require count(a) >= count(b).
    let mut cnf = Cnf::new();
    let a = fresh_lits(&mut cnf, 2);
    let b = fresh_lits(&mut cnf, 2);
    let ta = Totalizer::new(&mut cnf, &a);
    let tb = Totalizer::new(&mut cnf, &b);
    assert_count_dominates(&mut cnf, &ta, &tb);
    let models = projected_models(&cnf, 4);
    let want: Vec<usize> = (0..16)
        .filter(|m| {
            let ca = (m & 1) + (m >> 1 & 1);
            let cb = (m >> 2 & 1) + (m >> 3 & 1);
            ca >= cb
        })
        .collect();
    assert_eq!(models, want);
}

#[test]
fn diff_le_window() {
    // count(a) - count(b) <= 1 with 3 a-lits and 2 b-lits.
    let mut cnf = Cnf::new();
    let a = fresh_lits(&mut cnf, 3);
    let b = fresh_lits(&mut cnf, 2);
    let ta = Totalizer::new(&mut cnf, &a);
    let tb = Totalizer::new(&mut cnf, &b);
    assert_linear_le(&mut cnf, &ta, &tb, 1, 1, 1);
    let models = projected_models(&cnf, 5);
    let want: Vec<usize> = (0..32)
        .filter(|m| {
            let ca = (m & 1) + (m >> 1 & 1) + (m >> 2 & 1);
            let cb = (m >> 3 & 1) + (m >> 4 & 1);
            ca as i64 - cb as i64 <= 1
        })
        .collect();
    assert_eq!(models, want);
}

#[test]
fn diff_le_zero_means_dominated() {
    let mut cnf = Cnf::new();
    let a = fresh_lits(&mut cnf, 2);
    let b = fresh_lits(&mut cnf, 2);
    let ta = Totalizer::new(&mut cnf, &a);
    let tb = Totalizer::new(&mut cnf, &b);
    assert_linear_le(&mut cnf, &ta, &tb, 1, 1, 0);
    let models = projected_models(&cnf, 4);
    let want: Vec<usize> = (0..16)
        .filter(|m| {
            let ca = (m & 1) + (m >> 1 & 1);
            let cb = (m >> 2 & 1) + (m >> 3 & 1);
            ca <= cb
        })
        .collect();
    assert_eq!(models, want);
}

/// `assert_linear_le` against the arithmetic, exhaustively: every
/// count pair of up to four inputs, negative, zero and positive `ca`,
/// `cb ≥ 0` and bounds on both sides of zero.
#[test]
fn linear_le_matches_arithmetic() {
    for na in 0..=3usize {
        for nb in 0..=(4 - na).min(3) {
            for ca in -3..=3i64 {
                for cb in 0..=3i64 {
                    for r in -7..=7i64 {
                        let mut cnf = Cnf::new();
                        let a = fresh_lits(&mut cnf, na);
                        let b = fresh_lits(&mut cnf, nb);
                        let ta = Totalizer::new(&mut cnf, &a);
                        let tb = Totalizer::new(&mut cnf, &b);
                        assert_linear_le(&mut cnf, &ta, &tb, ca, cb, r);
                        let models = projected_models(&cnf, na + nb);
                        let want: Vec<usize> = (0..1usize << (na + nb))
                            .filter(|m| {
                                let va = (m & ((1 << na) - 1)).count_ones() as i64;
                                let vb = (m >> na).count_ones() as i64;
                                ca * va - cb * vb <= r
                            })
                            .collect();
                        assert_eq!(models, want, "na={na} nb={nb} {ca}·a − {cb}·b ≤ {r}");
                    }
                }
            }
        }
    }
}

/// With unit coefficients the bound is the balancedness window: one
/// clause `count(a) ≥ j+1 → count(b) ≥ j+1−k` per `j ≥ k`, and a
/// zero coefficient on `a` leaves a single unit on `b`.
#[test]
fn linear_le_clause_shapes() {
    let mut cnf = Cnf::new();
    let a = fresh_lits(&mut cnf, 4);
    let b = fresh_lits(&mut cnf, 4);
    let ta = Totalizer::new(&mut cnf, &a);
    let tb = Totalizer::new(&mut cnf, &b);
    let before = cnf.num_clauses();
    assert_linear_le(&mut cnf, &ta, &tb, 1, 1, 1);
    let window: Vec<Vec<Lit>> = (1..4)
        .map(|j| vec![!ta.outputs()[j], tb.outputs()[j - 1]])
        .collect();
    assert_eq!(&cnf.clauses()[before..], &window[..]);
    let before = cnf.num_clauses();
    // 0·|a| − 2·|b| ≤ 3 − 8: |b| ≥ ⌈5/2⌉.
    assert_linear_le(&mut cnf, &ta, &tb, 0, 2, -5);
    assert_eq!(&cnf.clauses()[before..], &[vec![tb.outputs()[2]]][..]);
}

mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn amk_equivalent_encodings(n in 1usize..5, k in 0usize..5) {
            let k = k.min(n);
            let mut models = Vec::new();
            for enc in [
                CardEncoding::Pairwise,
                CardEncoding::SequentialCounter,
                CardEncoding::Totalizer,
            ] {
                let mut cnf = Cnf::new();
                let lits = fresh_lits(&mut cnf, n);
                at_most_k(&mut cnf, &lits, k, enc);
                models.push(projected_models(&cnf, n));
            }
            prop_assert_eq!(&models[0], &models[1]);
            prop_assert_eq!(&models[0], &models[2]);
        }
    }
}
