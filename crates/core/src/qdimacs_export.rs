//! QDIMACS export of the paper's QBF models.
//!
//! Section IV-A-5 of the paper observes that putting formulation (4)
//! into CNF requires auxiliary Tseitin variables, which — existentially
//! quantified innermost — turn the 2QBF into a **3QCNF**
//! `∃α,β ∀X,X',X''(,X''') ∃aux . M`. This module emits exactly that
//! prenex form in QDIMACS, so the models can be handed to any
//! standalone QBF solver (the paper instead solves the negation (9)
//! by CEGAR, as [`solve_partition`](crate::qbf_model::solve_partition)
//! does natively).
//!
//! The matrix `M` is the Tseitin definition of the core AIG with the
//! unit `¬core` (the `¬[…]` of formulation (4)), plus the ∃-side that
//! [`encode_exists`] builds for the CEGAR solve from the same
//! [`ModelOptions`]: `fN`, the `fT` bound of the [`Target`] and the
//! symmetry breaking. The export therefore carries the constraints
//! that are actually solved; their auxiliaries sit in the inner `∃`
//! block.

use step_cnf::{tseitin::AigCnf, write_qdimacs, Cnf, Lit, Quant};

use crate::oracle::CoreFormula;
use crate::qbf_model::{encode_exists, ModelOptions, Target};

/// The structured export: the QDIMACS text plus the variable layout
/// needed to interpret certificates from an external solver.
#[derive(Clone, Debug)]
pub struct QdimacsModel {
    /// The QDIMACS text (3 quantifier blocks `e`/`a`/`e`).
    pub text: String,
    /// CNF variable index of `αᵢ` (0-based), per support variable.
    pub alpha_vars: Vec<usize>,
    /// CNF variable index of `βᵢ` (0-based), per support variable.
    pub beta_vars: Vec<usize>,
    /// CNF variable indices of the universal block (circuit copies).
    pub universal_vars: Vec<usize>,
}

/// Emits formulation (4) + `fN` + `fT` for `core` as a 3QCNF QDIMACS
/// file. Only the encoding fields of `opts` (`symmetry_breaking`,
/// `allow_both`) shape the text; its budget and solver settings do not.
pub fn export_qdimacs(core: &CoreFormula, target: Target, opts: &ModelOptions) -> QdimacsModel {
    let n = core.n;
    let mut cnf = Cnf::new();
    let mut enc = AigCnf::new();

    // Outermost ∃ block: α then β.
    let alpha_lits: Vec<Lit> = core
        .alpha
        .iter()
        .map(|&pi| {
            let l = Lit::pos(cnf.new_var());
            enc.bind(core.aig.input_node(pi), l);
            l
        })
        .collect();
    let beta_lits: Vec<Lit> = core
        .beta
        .iter()
        .map(|&pi| {
            let l = Lit::pos(cnf.new_var());
            enc.bind(core.aig.input_node(pi), l);
            l
        })
        .collect();

    // ∀ block: the circuit copies.
    let mut universal_vars = Vec::with_capacity(4 * n);
    for &pi in core
        .x
        .iter()
        .chain(&core.xp)
        .chain(&core.xpp)
        .chain(&core.xppp)
    {
        let v = cnf.new_var();
        enc.bind(core.aig.input_node(pi), Lit::pos(v));
        universal_vars.push(v.index());
    }

    // Innermost ∃ block: Tseitin auxiliaries (everything allocated from
    // here on).
    let aux_start = cnf.num_vars();
    let root = enc.encode(&mut cnf, &core.aig, core.root);
    cnf.add_unit(!root); // ¬core must hold for all universal values

    encode_exists(
        &mut cnf,
        &alpha_lits,
        &beta_lits,
        target,
        opts.symmetry_breaking,
        opts.allow_both,
    );

    let exist_outer: Vec<usize> = alpha_lits
        .iter()
        .chain(&beta_lits)
        .map(|l| l.var().index())
        .collect();
    let exist_inner: Vec<usize> = (aux_start..cnf.num_vars()).collect();
    let prefix = vec![
        (Quant::Exists, exist_outer),
        (Quant::Forall, universal_vars.clone()),
        (Quant::Exists, exist_inner),
    ];
    QdimacsModel {
        text: write_qdimacs(&prefix, &cnf),
        alpha_vars: alpha_lits.iter().map(|l| l.var().index()).collect(),
        beta_vars: beta_lits.iter().map(|l| l.var().index()).collect(),
        universal_vars,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimum::Metric;
    use crate::partition::{VarClass, VarPartition};
    use crate::qbf_model::{self, solve_partition, QbfModelOutcome};
    use step_aig::Aig;
    use step_cnf::parse_qdimacs;
    use step_sat::{SolveResult, Solver};

    fn or_of_ands() -> (Aig, step_aig::AigLit) {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let d = aig.add_input("d");
        let ab = aig.and(a, b);
        let cd = aig.and(c, d);
        let f = aig.or(ab, cd);
        (aig, f)
    }

    #[test]
    fn export_has_three_blocks() {
        let (aig, f) = or_of_ands();
        let core = CoreFormula::build(&aig, f, crate::GateOp::Or);
        let model = export_qdimacs(&core, Target::DisjointAtMost(0), &ModelOptions::default());
        let parsed = parse_qdimacs(&model.text).expect("well-formed qdimacs");
        assert_eq!(parsed.prefix.len(), 3);
        assert_eq!(parsed.prefix[0].0, Quant::Exists);
        assert_eq!(parsed.prefix[1].0, Quant::Forall);
        assert_eq!(parsed.prefix[2].0, Quant::Exists);
        assert_eq!(parsed.prefix[0].1.len(), 8, "α and β for 4 inputs");
        assert_eq!(parsed.prefix[1].1.len(), 12, "three 4-input copies");
        assert!(!parsed.matrix.clauses().is_empty());
    }

    /// For fixed (α, β) and fixed universal values, the matrix is
    /// satisfiable (over the auxiliaries) iff `¬core ∧ fN ∧ fT` holds
    /// semantically — checked against direct AIG evaluation and the
    /// block-size arithmetic, for every kind of target, symmetry on
    /// and off.
    #[test]
    fn matrix_semantics_match_core_evaluation() {
        let (aig, f) = or_of_ands();
        let core = CoreFormula::build(&aig, f, crate::GateOp::Or);
        let targets = [
            Target::Any,
            Target::DisjointAtMost(0),
            Target::DisjointAtMost(1),
            Target::BalancedWindow(0),
            Target::BalancedWindow(1),
            Target::CombinedAtMost(1),
            Target::CombinedAtMost(2),
            Target::Weighted { wd: 2, wb: 1, k: 2 },
            Target::Weighted { wd: 1, wb: 3, k: 3 },
        ];
        // Valid: {a,b} | {c,d} and {a,b} | {c} sharing d, also with the
        // blocks swapped (|XA| < |XB|); invalid: {a,c} | {b,d}.
        let partitions = [
            VarPartition::from_sets(4, &[0, 1], &[2, 3]),
            VarPartition::from_sets(4, &[0, 1], &[2]),
            VarPartition::from_sets(4, &[2], &[0, 1]),
            VarPartition::from_sets(4, &[0, 2], &[1, 3]),
        ];
        for target in targets {
            for symmetry_breaking in [false, true] {
                let opts = ModelOptions {
                    symmetry_breaking,
                    ..ModelOptions::default()
                };
                let model = export_qdimacs(&core, target, &opts);
                let parsed = parse_qdimacs(&model.text).expect("parse");
                let mut solver = Solver::new();
                solver.add_cnf(&parsed.matrix);
                for p in &partitions {
                    let alpha: Vec<bool> = p.classes().iter().map(|&c| c == VarClass::A).collect();
                    let beta: Vec<bool> = p.classes().iter().map(|&c| c == VarClass::B).collect();
                    let ft_holds = qbf_model::tests::target_admits(
                        target,
                        symmetry_breaking,
                        p.num_a(),
                        p.num_b(),
                        p.num_shared(),
                    );
                    // Probe a handful of universal assignments.
                    for pattern in 0..64u32 {
                        let mut assumptions = Vec::new();
                        for i in 0..4 {
                            assumptions
                                .push(Lit::new(step_cnf::Var::new(model.alpha_vars[i]), !alpha[i]));
                            assumptions
                                .push(Lit::new(step_cnf::Var::new(model.beta_vars[i]), !beta[i]));
                        }
                        let mut uvals = Vec::new();
                        for (k, &uv) in model.universal_vars.iter().enumerate() {
                            let val =
                                pattern >> (k % 12) & 1 == 1 || (pattern / 13) & (k as u32) == 3;
                            uvals.push(val);
                            assumptions.push(Lit::new(step_cnf::Var::new(uv), !val));
                        }
                        let got = solver.solve_with_assumptions(&assumptions);
                        // Semantic ground truth: core must be FALSE under
                        // this assignment, and fN/fT hold for the partition.
                        let mut full = vec![false; core.aig.num_inputs()];
                        for (k, &pi) in core.x.iter().chain(&core.xp).chain(&core.xpp).enumerate() {
                            full[pi] = uvals[k];
                        }
                        for i in 0..4 {
                            full[core.alpha[i]] = alpha[i];
                            full[core.beta[i]] = beta[i];
                        }
                        let core_val = core.aig.eval_lit(core.root, &full);
                        let expect = !core_val && ft_holds;
                        assert_eq!(
                            got == SolveResult::Sat,
                            expect,
                            "{target:?} symmetry={symmetry_breaking} {p}: matrix/semantics mismatch"
                        );
                    }
                }
            }
        }
    }

    /// The exported model and the CEGAR solver must agree on
    /// feasibility per target (checked through the solver since we
    /// cannot run an external 3QBF tool here).
    #[test]
    fn export_agrees_with_cegar_feasibility() {
        let check = |core: &CoreFormula, target: Target, feasible: bool| {
            let model = export_qdimacs(core, target, &ModelOptions::default());
            assert!(parse_qdimacs(&model.text).is_ok());
            let mut meter = crate::effort::EffortMeter::unlimited();
            let (outcome, _) = solve_partition(core, target, &ModelOptions::default(), &mut meter);
            assert_eq!(
                matches!(outcome, QbfModelOutcome::Partition(_)),
                feasible,
                "{target:?}"
            );
        };
        let (aig, f) = or_of_ands();
        let core = CoreFormula::build(&aig, f, crate::GateOp::Or);
        check(&core, Target::DisjointAtMost(0), true);
        check(&core, Target::BalancedWindow(0), true);
        check(&core, Target::Weighted { wd: 2, wb: 1, k: 0 }, true);
        // A mux OR-decomposes only with its select shared, at weighted
        // cost 2·1 + 1·0 = 2: infeasible at k = n − 2 = 1, feasible at
        // the weighted `k_max` that `step --emit-qdimacs --weights` uses.
        let mut aig = Aig::new();
        let (s, a, b) = (aig.add_input("s"), aig.add_input("a"), aig.add_input("b"));
        let f = aig.mux(s, a, b);
        let core = CoreFormula::build(&aig, f, crate::GateOp::Or);
        let k_max = Metric::Weighted { wd: 2, wb: 1 }.k_max(core.n);
        check(
            &core,
            Target::Weighted {
                wd: 2,
                wb: 1,
                k: core.n - 2,
            },
            false,
        );
        check(
            &core,
            Target::Weighted {
                wd: 2,
                wb: 1,
                k: k_max,
            },
            true,
        );
    }

    #[test]
    fn weighted_target_prefers_disjointness_when_heavy() {
        // f = s∧(a∨b): |XC| ≥ 1 forced; weighted optimum with heavy wd
        // must still find the |XC| = 1 partition.
        let mut aig = Aig::new();
        let s = aig.add_input("s");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let t = aig.or(a, b);
        let f = aig.and(s, t);
        let core = CoreFormula::build(&aig, f, crate::GateOp::Or);
        let mut meter = crate::effort::EffortMeter::unlimited();
        let (outcome, _) = solve_partition(
            &core,
            Target::Weighted { wd: 3, wb: 1, k: 3 },
            &ModelOptions::default(),
            &mut meter,
        );
        match outcome {
            QbfModelOutcome::Partition(p) => {
                assert_eq!(p.num_shared(), 1, "{p}");
                assert_eq!(p.k_balance(), 0, "{p}");
            }
            other => panic!("{other:?}"),
        }
        // k = 2 is infeasible: 3·1 + 1·0 = 3 > 2.
        let (outcome, _) = solve_partition(
            &core,
            Target::Weighted { wd: 3, wb: 1, k: 2 },
            &ModelOptions::default(),
            &mut meter,
        );
        assert_eq!(outcome, QbfModelOutcome::NoPartition);
    }
}
