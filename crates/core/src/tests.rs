use step_aig::{Aig, AigLit};
use step_bdd::Manager;

use crate::effort::EffortMeter;
use crate::engine::BiDecomposer;
use crate::extract::{extract, extract_by_quantification};
use crate::ljh::{self, LjhOutcome};
use crate::mg::{self, MgOutcome};
use crate::network::LeafFn;
use crate::optimum::{self, Metric};
use crate::oracle::{sim_filter_pairs, CoreFormula, PartitionOracle};
use crate::partition::{VarClass, VarPartition};
use crate::qbf_model::{solve_partition, ModelOptions, QbfModelOutcome, Target};
use crate::spec::{Budget, BudgetPolicy, DecompConfig, GateOp, Model, SearchStrategy};
use crate::verify::verify;

/// f = (a∧b) ∨ (c∧d): disjointly OR-decomposable.
fn or_of_ands() -> (Aig, AigLit) {
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

/// f = s∧(a∨b) = (s∧a)∨(s∧b): OR-decomposable with |XC| ≥ 1.
fn shared_var_fn() -> (Aig, AigLit) {
    let mut aig = Aig::new();
    let s = aig.add_input("s");
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let t = aig.or(a, b);
    let f = aig.and(s, t);
    (aig, f)
}

/// Majority of three: not bi-decomposable for any operator.
fn maj3() -> (Aig, AigLit) {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let c = aig.add_input("c");
    let ab = aig.and(a, b);
    let ac = aig.and(a, c);
    let bc = aig.and(b, c);
    let t = aig.or(ab, ac);
    let f = aig.or(t, bc);
    (aig, f)
}

/// 4-input parity: XOR-decomposable along any split.
fn parity4() -> (Aig, AigLit) {
    let mut aig = Aig::new();
    let ins: Vec<AigLit> = (0..4).map(|i| aig.add_input(format!("x{i}"))).collect();
    let f = aig.xor_many(&ins);
    (aig, f)
}

/// Brute-force bi-decomposability of `root` under `p` using the BDD
/// oracle.
fn bdd_decomposable(aig: &Aig, root: AigLit, op: GateOp, p: &VarPartition) -> bool {
    let mut m = Manager::new(aig.num_inputs());
    let f = m.from_aig(aig, root);
    let xa = p.xa();
    let xb = p.xb();
    match op {
        GateOp::Or => m.or_decomposable(f, &xa, &xb).is_some(),
        GateOp::And => m.and_decomposable(f, &xa, &xb).is_some(),
        GateOp::Xor => m.xor_decomposable(f, &xa, &xb).is_some(),
    }
}

/// Enumerates all 3^n class assignments and returns the non-trivial
/// partitions under which `root` is decomposable (BDD ground truth).
fn bdd_all_partitions(aig: &Aig, root: AigLit, op: GateOp) -> Vec<VarPartition> {
    let n = aig.num_inputs();
    let mut found = Vec::new();
    let mut classes = vec![VarClass::C; n];
    fn rec(
        i: usize,
        n: usize,
        classes: &mut Vec<VarClass>,
        aig: &Aig,
        root: AigLit,
        op: GateOp,
        found: &mut Vec<VarPartition>,
    ) {
        if i == n {
            let p = VarPartition::new(classes.clone());
            if p.is_nontrivial() && bdd_decomposable(aig, root, op, &p) {
                found.push(p);
            }
            return;
        }
        for c in [VarClass::A, VarClass::B, VarClass::C] {
            classes[i] = c;
            rec(i + 1, n, classes, aig, root, op, found);
        }
        classes[i] = VarClass::C;
    }
    rec(0, n, &mut classes, aig, root, op, &mut found);
    found
}

// ---------------------------------------------------------------------
// partitions & metrics
// ---------------------------------------------------------------------

#[test]
fn partition_metrics() {
    let p = VarPartition::from_sets(6, &[0, 1, 2], &[3]);
    assert_eq!(p.num_a(), 3);
    assert_eq!(p.num_b(), 1);
    assert_eq!(p.num_shared(), 2);
    assert!((p.disjointness() - 2.0 / 6.0).abs() < 1e-12);
    assert!((p.balancedness() - 2.0 / 6.0).abs() < 1e-12);
    assert!((p.cost(1.0, 1.0) - 4.0 / 6.0).abs() < 1e-12);
    assert_eq!(p.k_disjoint(), 2);
    assert_eq!(p.k_balance(), 2);
    assert_eq!(p.k_combined(), 4);
    assert!(p.is_nontrivial());
    assert!(!VarPartition::from_sets(3, &[0], &[]).is_nontrivial());
}

#[test]
fn partition_normalization_swaps_blocks() {
    let p = VarPartition::from_sets(4, &[0], &[1, 2, 3]);
    let q = p.normalized();
    assert_eq!(q.num_a(), 3);
    assert_eq!(q.num_b(), 1);
    assert_eq!(p.k_balance(), q.k_balance());
}

#[test]
fn spec_types_behave() {
    use std::time::Duration;
    assert_eq!(GateOp::Or.to_string(), "OR");
    assert_eq!(GateOp::And.to_string(), "AND");
    assert_eq!(GateOp::Xor.to_string(), "XOR");
    assert_eq!(Model::Ljh.to_string(), "LJH");
    assert_eq!(Model::QbfCombined.to_string(), "STEP-QDB");
    let paper = BudgetPolicy::paper();
    assert_eq!(paper.per_qbf_call, Budget::Wall(Duration::from_secs(4)));
    assert_eq!(paper.per_circuit, Budget::Wall(Duration::from_secs(6000)));
    // Default strategy follows the paper: MD→Bin→MI for QD, MI else.
    let qd = DecompConfig::new(Model::QbfDisjoint);
    assert_eq!(qd.effective_strategy(), SearchStrategy::MdBinMi);
    let qb = DecompConfig::new(Model::QbfBalanced);
    assert_eq!(qb.effective_strategy(), SearchStrategy::MonotoneIncreasing);
    let mut custom = DecompConfig::new(Model::QbfDisjoint);
    custom.strategy = Some(SearchStrategy::Binary);
    assert_eq!(custom.effective_strategy(), SearchStrategy::Binary);
}

#[test]
fn partition_display_and_from_sets() {
    let p = VarPartition::from_sets(4, &[0], &[3]);
    assert_eq!(p.to_string(), "ACCB");
    assert_eq!(p.xa(), vec![0]);
    assert_eq!(p.xb(), vec![3]);
    assert_eq!(p.xc(), vec![1, 2]);
    assert_eq!(p.class(2), VarClass::C);
}

#[test]
#[should_panic]
fn from_sets_rejects_overlap() {
    let _ = VarPartition::from_sets(3, &[0, 1], &[1]);
}

#[test]
fn weighted_metric_arithmetic() {
    let p = VarPartition::from_sets(6, &[0, 1, 2], &[3]); // |XC|=2, diff=2
    let m = Metric::Weighted { wd: 3, wb: 2 };
    assert_eq!(m.k_of(&p), 3 * 2 + 2 * 2);
    assert_eq!(m.k_max(6), (3 + 2) * 4);
    assert_eq!(Metric::Disjointness.k_of(&p), 2);
    assert_eq!(Metric::Balancedness.k_of(&p), 2);
    assert_eq!(Metric::Combined.k_of(&p), 4);
}

// ---------------------------------------------------------------------
// core formula & oracle
// ---------------------------------------------------------------------

#[test]
fn oracle_matches_bdd_on_known_functions() {
    for (aig, f, op) in [
        (or_of_ands().0, or_of_ands().1, GateOp::Or),
        (shared_var_fn().0, shared_var_fn().1, GateOp::Or),
        (maj3().0, maj3().1, GateOp::Or),
        (parity4().0, parity4().1, GateOp::Xor),
    ] {
        let core = CoreFormula::build(&aig, f, op);
        let mut oracle = PartitionOracle::new(core);
        // Try a handful of partitions exhaustively for n ≤ 4.
        let mut meter = EffortMeter::unlimited();
        for p in enumerate_partitions(aig.num_inputs()) {
            if !p.is_nontrivial() {
                continue;
            }
            let want = bdd_decomposable(&aig, f, op, &p);
            let got = oracle.check(&p, &mut meter).expect("no budget set");
            assert_eq!(got, want, "op={op} partition={p}");
        }
    }
}

fn enumerate_partitions(n: usize) -> Vec<VarPartition> {
    let mut out = Vec::new();
    let mut total = 1usize;
    for _ in 0..n {
        total *= 3;
    }
    for mut code in 0..total {
        let mut classes = Vec::with_capacity(n);
        for _ in 0..n {
            classes.push(match code % 3 {
                0 => VarClass::A,
                1 => VarClass::B,
                _ => VarClass::C,
            });
            code /= 3;
        }
        out.push(VarPartition::new(classes));
    }
    out
}

#[test]
fn and_core_is_dual_of_or() {
    // f = (a∨b)∧(c∨d) is AND-decomposable disjointly.
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let c = aig.add_input("c");
    let d = aig.add_input("d");
    let ab = aig.or(a, b);
    let cd = aig.or(c, d);
    let f = aig.and(ab, cd);
    let core = CoreFormula::build(&aig, f, GateOp::And);
    let mut oracle = PartitionOracle::new(core);
    let mut meter = EffortMeter::unlimited();
    let p = VarPartition::from_sets(4, &[0, 1], &[2, 3]);
    assert_eq!(oracle.check(&p, &mut meter), Some(true));
    let bad = VarPartition::from_sets(4, &[0, 2], &[1, 3]);
    assert_eq!(oracle.check(&bad, &mut meter), Some(false));
    assert!(
        meter.spent().propagations > 0,
        "oracle calls charge their effort to the meter"
    );
}

#[test]
fn sim_filter_is_sound() {
    // Any pair the simulation kills must be refuted by the oracle too.
    for (aig, f, op) in [
        (maj3().0, maj3().1, GateOp::Or),
        (or_of_ands().0, or_of_ands().1, GateOp::Or),
        (parity4().0, parity4().1, GateOp::Xor),
    ] {
        let n = aig.num_inputs();
        let alive = sim_filter_pairs(&aig, f, op, 8, 12345);
        let core = CoreFormula::build(&aig, f, op);
        let mut oracle = PartitionOracle::new(core);
        let mut meter = EffortMeter::unlimited();
        for i in 0..n {
            for j in 0..n {
                if i != j && !alive[i][j] {
                    assert_eq!(
                        oracle.check_seed(i, j, &mut meter),
                        Some(false),
                        "sim killed a valid seed ({i},{j}) op={op}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// LJH & MG
// ---------------------------------------------------------------------

#[test]
fn ljh_finds_disjoint_partition() {
    let (aig, f) = or_of_ands();
    let core = CoreFormula::build(&aig, f, GateOp::Or);
    let mut oracle = PartitionOracle::new(core);
    match ljh::decompose(&mut oracle, None, &mut EffortMeter::unlimited()) {
        LjhOutcome::Partition(p) => {
            assert!(p.is_nontrivial());
            assert!(bdd_decomposable(&aig, f, GateOp::Or, &p));
            // Greedy growth must empty XC here.
            assert_eq!(p.num_shared(), 0, "LJH should fully grow {p}");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn ljh_rejects_undecomposable() {
    let (aig, f) = maj3();
    let core = CoreFormula::build(&aig, f, GateOp::Or);
    let mut oracle = PartitionOracle::new(core);
    assert_eq!(
        ljh::decompose(&mut oracle, None, &mut EffortMeter::unlimited()),
        LjhOutcome::NotDecomposable
    );
}

#[test]
fn mg_finds_valid_partition() {
    for (aig, f, op) in [
        (or_of_ands().0, or_of_ands().1, GateOp::Or),
        (shared_var_fn().0, shared_var_fn().1, GateOp::Or),
        (parity4().0, parity4().1, GateOp::Xor),
    ] {
        let core = CoreFormula::build(&aig, f, op);
        let mut oracle = PartitionOracle::new(core);
        match mg::decompose(&mut oracle, None, &mut EffortMeter::unlimited()) {
            MgOutcome::Partition(p) => {
                assert!(p.is_nontrivial());
                assert!(bdd_decomposable(&aig, f, op, &p), "op={op} partition={p}");
            }
            other => panic!("op={op}: {other:?}"),
        }
    }
}

#[test]
fn mg_rejects_undecomposable() {
    let (aig, f) = maj3();
    let core = CoreFormula::build(&aig, f, GateOp::Or);
    let mut oracle = PartitionOracle::new(core);
    assert_eq!(
        mg::decompose(&mut oracle, None, &mut EffortMeter::unlimited()),
        MgOutcome::NotDecomposable
    );
}

// ---------------------------------------------------------------------
// QBF models
// ---------------------------------------------------------------------

#[test]
fn qbf_any_finds_partition_or_proves_none() {
    let (aig, f) = or_of_ands();
    let core = CoreFormula::build(&aig, f, GateOp::Or);
    let (outcome, stats) = solve_partition(
        &core,
        Target::Any,
        &ModelOptions::default(),
        &mut EffortMeter::unlimited(),
    );
    match outcome {
        QbfModelOutcome::Partition(p) => {
            assert!(p.is_nontrivial());
            assert!(bdd_decomposable(&aig, f, GateOp::Or, &p));
        }
        other => panic!("{other:?}"),
    }
    assert!(stats.cegar_iterations >= 1);

    let (aig, f) = maj3();
    let core = CoreFormula::build(&aig, f, GateOp::Or);
    let (outcome, _) = solve_partition(
        &core,
        Target::Any,
        &ModelOptions::default(),
        &mut EffortMeter::unlimited(),
    );
    assert_eq!(outcome, QbfModelOutcome::NoPartition);
}

#[test]
fn qbf_disjointness_bound_is_respected() {
    let (aig, f) = shared_var_fn();
    let core = CoreFormula::build(&aig, f, GateOp::Or);
    // k = 1: partition with at most one shared variable exists ({s}).
    let (outcome, _) = solve_partition(
        &core,
        Target::DisjointAtMost(1),
        &ModelOptions::default(),
        &mut EffortMeter::unlimited(),
    );
    match outcome {
        QbfModelOutcome::Partition(p) => {
            assert!(p.num_shared() <= 1);
            assert!(bdd_decomposable(&aig, f, GateOp::Or, &p));
            assert_eq!(p.class(0), VarClass::C, "the shared var must be s: {p}");
        }
        other => panic!("{other:?}"),
    }
    // k = 0: no disjoint partition exists for s∧(a∨b).
    let (outcome, _) = solve_partition(
        &core,
        Target::DisjointAtMost(0),
        &ModelOptions::default(),
        &mut EffortMeter::unlimited(),
    );
    assert_eq!(outcome, QbfModelOutcome::NoPartition);
}

#[test]
fn qbf_balancedness_window() {
    // f = (a∧b∧c)∨(d∧e): diff-0 partition exists with c shared.
    let mut aig = Aig::new();
    let ins: Vec<AigLit> = (0..5).map(|i| aig.add_input(format!("x{i}"))).collect();
    let t1 = aig.and_many(&ins[0..3]);
    let t2 = aig.and(ins[3], ins[4]);
    let f = aig.or(t1, t2);
    let core = CoreFormula::build(&aig, f, GateOp::Or);
    let (outcome, _) = solve_partition(
        &core,
        Target::BalancedWindow(0),
        &ModelOptions::default(),
        &mut EffortMeter::unlimited(),
    );
    match outcome {
        QbfModelOutcome::Partition(p) => {
            assert_eq!(p.k_balance(), 0, "{p}");
            assert!(bdd_decomposable(&aig, f, GateOp::Or, &p));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn qbf_combined_target() {
    let (aig, f) = or_of_ands();
    let core = CoreFormula::build(&aig, f, GateOp::Or);
    // (ab)|(cd): k = 0 achievable (|XC|=0, |XA|=|XB|=2).
    let (outcome, _) = solve_partition(
        &core,
        Target::CombinedAtMost(0),
        &ModelOptions::default(),
        &mut EffortMeter::unlimited(),
    );
    match outcome {
        QbfModelOutcome::Partition(p) => {
            assert_eq!(p.k_combined(), 0, "{p}");
        }
        other => panic!("{other:?}"),
    }
}

// ---------------------------------------------------------------------
// optimum search
// ---------------------------------------------------------------------

#[test]
fn all_strategies_agree_on_optimum() {
    let (aig, f) = shared_var_fn();
    let core = CoreFormula::build(&aig, f, GateOp::Or);
    let bootstrap = {
        let mut oracle = PartitionOracle::new(core.clone());
        match mg::decompose(&mut oracle, None, &mut EffortMeter::unlimited()) {
            MgOutcome::Partition(p) => p,
            other => panic!("{other:?}"),
        }
    };
    let mut optima = Vec::new();
    for strategy in [
        SearchStrategy::MonotoneIncreasing,
        SearchStrategy::MonotoneDecreasing,
        SearchStrategy::Binary,
        SearchStrategy::MdBinMi,
    ] {
        let r = optimum::search(
            &core,
            Metric::Disjointness,
            Some(&bootstrap),
            strategy,
            &ModelOptions::default(),
            &mut EffortMeter::unlimited(),
        );
        assert!(r.proved_optimal, "{strategy:?}");
        optima.push(Metric::Disjointness.k_of(r.partition.as_ref().unwrap()));
    }
    assert!(
        optima.windows(2).all(|w| w[0] == w[1]),
        "optima differ: {optima:?}"
    );
    assert_eq!(optima[0], 1, "s∧(a∨b) needs exactly one shared variable");
}

#[test]
fn optimum_without_bootstrap_detects_undecomposable() {
    let (aig, f) = maj3();
    let core = CoreFormula::build(&aig, f, GateOp::Or);
    let r = optimum::search(
        &core,
        Metric::Disjointness,
        None,
        SearchStrategy::MonotoneIncreasing,
        &ModelOptions::default(),
        &mut EffortMeter::unlimited(),
    );
    assert!(r.partition.is_none());
    assert!(r.proved_optimal);
}

// ---------------------------------------------------------------------
// extraction & verification
// ---------------------------------------------------------------------

#[test]
fn interpolation_extraction_or() {
    let (aig, f) = or_of_ands();
    let p = VarPartition::from_sets(4, &[0, 1], &[2, 3]);
    let d = extract(&aig, f, GateOp::Or, &p, None).unwrap();
    verify(&d, None).unwrap();
}

#[test]
fn interpolation_extraction_or_with_shared() {
    let (aig, f) = shared_var_fn();
    let p = VarPartition::from_sets(3, &[1], &[2]);
    let d = extract(&aig, f, GateOp::Or, &p, None).unwrap();
    verify(&d, None).unwrap();
}

#[test]
fn interpolation_extraction_and() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let c = aig.add_input("c");
    let d_in = aig.add_input("d");
    let ab = aig.or(a, b);
    let cd = aig.or(c, d_in);
    let f = aig.and(ab, cd);
    let p = VarPartition::from_sets(4, &[0, 1], &[2, 3]);
    let d = extract(&aig, f, GateOp::And, &p, None).unwrap();
    verify(&d, None).unwrap();
}

#[test]
fn cofactor_extraction_xor() {
    let (aig, f) = parity4();
    for (xa, xb) in [(vec![0], vec![1, 2, 3]), (vec![0, 1], vec![2, 3])] {
        let p = VarPartition::from_sets(4, &xa, &xb);
        let d = extract(&aig, f, GateOp::Xor, &p, None).unwrap();
        verify(&d, None).unwrap();
    }
}

#[test]
fn quantification_extraction_agrees() {
    let (aig, f) = or_of_ands();
    let p = VarPartition::from_sets(4, &[0, 1], &[2, 3]);
    let d = extract_by_quantification(&aig, f, GateOp::Or, &p);
    verify(&d, None).unwrap();
}

#[test]
fn extraction_rejects_invalid_partition() {
    let (aig, f) = maj3();
    let p = VarPartition::from_sets(3, &[0], &[1]);
    assert!(matches!(
        extract(&aig, f, GateOp::Or, &p, None),
        Err(crate::extract::ExtractError::InvalidPartition)
    ));
}

/// A flattened leaf evaluates like its cone, and importing it builds
/// the gates importing the cone itself builds, in the same order.
#[test]
fn leaf_fn_matches_its_cone() {
    for (aig, f) in [or_of_ands(), shared_var_fn(), maj3(), parity4()] {
        let leaf = LeafFn::from_cone(&aig, !f);
        let n = aig.num_inputs();
        for m in 0..1usize << n {
            let v: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(leaf.eval(&v), !aig.eval_lit(f, &v), "at {v:?}");
        }
        let mut via_leaf = Aig::new();
        let mut via_import = Aig::new();
        let ins: Vec<AigLit> = (0..n)
            .map(|i| via_leaf.add_input(format!("x{i}")))
            .collect();
        let mut map = std::collections::HashMap::new();
        for i in 0..n {
            map.insert(aig.input_node(i), via_import.add_input(format!("x{i}")));
        }
        let a = leaf.import(&mut via_leaf, &ins);
        let b = via_import.import(&aig, !f, &mut map);
        assert_eq!(a, b);
        assert_eq!(leaf.and_count(), via_leaf.and_count());
        assert_eq!(via_leaf.and_count(), via_import.and_count());
    }
    let not_x = LeafFn::literal(true);
    assert!(not_x.eval(&[false]) && !not_x.eval(&[true]));
}

// ---------------------------------------------------------------------
// engine end-to-end
// ---------------------------------------------------------------------

#[test]
fn engine_qd_proves_optimum() {
    let (aig_raw, f) = shared_var_fn();
    let mut aig = aig_raw;
    aig.add_output("f", f);
    let engine = BiDecomposer::new(DecompConfig::new(Model::QbfDisjoint));
    let r = engine.decompose_output(&aig, 0, GateOp::Or).unwrap();
    let p = r.partition.expect("decomposable");
    assert_eq!(p.num_shared(), 1);
    assert!(r.proved_optimal);
    assert!(r.solved);
    let d = r.decomposition.expect("extraction on");
    verify(&d, None).unwrap();
}

#[test]
fn engine_all_models_on_multi_output_circuit() {
    // Circuit with one decomposable, one undecomposable and one
    // single-input output.
    let mut aig = Aig::new();
    let ins: Vec<AigLit> = (0..4).map(|i| aig.add_input(format!("x{i}"))).collect();
    let ab = aig.and(ins[0], ins[1]);
    let cd = aig.and(ins[2], ins[3]);
    let f = aig.or(ab, cd);
    aig.add_output("dec", f);
    let m01 = aig.and(ins[0], ins[1]);
    let m02 = aig.and(ins[0], ins[2]);
    let m12 = aig.and(ins[1], ins[2]);
    let t = aig.or(m01, m02);
    let maj = aig.or(t, m12);
    aig.add_output("maj", maj);
    aig.add_output("buf", ins[3]);

    for model in Model::ALL {
        let engine = BiDecomposer::new(DecompConfig::new(model));
        let r = engine.decompose_circuit(&aig, GateOp::Or).unwrap();
        assert_eq!(r.outputs.len(), 3, "{model}");
        assert!(r.outputs[0].is_decomposed(), "{model} must decompose `dec`");
        assert!(!r.outputs[1].is_decomposed(), "{model} must reject maj3");
        assert!(!r.outputs[2].is_decomposed(), "{model}: single-input PO");
        assert_eq!(r.num_decomposed(), 1);
        if let Some(d) = &r.outputs[0].decomposition {
            verify(d, None).unwrap();
        }
    }
}

#[test]
fn engine_handles_sequential_circuits() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let q = aig.add_latch("q", false);
    let t = aig.and(a, b);
    let n = aig.or(t, q);
    aig.set_latch_next(0, n).unwrap();
    aig.add_output("f", q);
    let engine = BiDecomposer::new(DecompConfig::new(Model::MusGroup));
    // comb conversion: PO `f` (= q, single input) plus q$next = (a∧b)∨q.
    let r = engine.decompose_circuit(&aig, GateOp::Or).unwrap();
    assert_eq!(r.outputs.len(), 2);
    assert!(r.outputs[1].is_decomposed(), "q$next = (a∧b)∨q decomposes");
}

#[test]
fn engine_respects_output_budget() {
    let (mut aig, f) = or_of_ands();
    aig.add_output("f", f);
    let mut config = DecompConfig::new(Model::QbfDisjoint);
    config.budget = BudgetPolicy {
        per_qbf_call: Budget::Wall(std::time::Duration::ZERO),
        per_output: Budget::Wall(std::time::Duration::ZERO),
        per_circuit: Budget::Wall(std::time::Duration::from_secs(60)),
    };
    let engine = BiDecomposer::new(config);
    let r = engine.decompose_output(&aig, 0, GateOp::Or).unwrap();
    assert!(r.timed_out);
    assert!(!r.solved);
}

#[test]
fn engine_rejects_bad_inputs() {
    let mut seq = Aig::new();
    let _ = seq.add_input("a");
    let q = seq.add_latch("q", false);
    seq.add_output("f", q);
    let engine = BiDecomposer::new(DecompConfig::new(Model::Ljh));
    assert!(matches!(
        engine.decompose_output(&seq, 0, GateOp::Or),
        Err(crate::StepError::NotCombinational)
    ));
    let (mut aig, f) = or_of_ands();
    aig.add_output("f", f);
    assert!(matches!(
        engine.decompose_output(&aig, 5, GateOp::Or),
        Err(crate::StepError::OutputOutOfRange(5))
    ));
}

// ---------------------------------------------------------------------
// result cache and accounting
// ---------------------------------------------------------------------

#[test]
fn permuted_twin_cones_share_a_cache_entry() {
    use crate::cache::{CacheLookup, ResultCache};
    use std::sync::Arc;

    // f = (a∧b)∨(c∧d) and g = the same structure with the input roles
    // rotated (a→b→c→d→a): structurally identical cones, permuted
    // support.
    let mut aig = Aig::new();
    let ins: Vec<AigLit> = ["a", "b", "c", "d"].map(|n| aig.add_input(n)).into();
    let ab = aig.and(ins[0], ins[1]);
    let cd = aig.and(ins[2], ins[3]);
    let f = aig.or(ab, cd);
    let bc = aig.and(ins[1], ins[2]);
    let da = aig.and(ins[3], ins[0]);
    let g = aig.or(bc, da);
    aig.add_output("f", f);
    aig.add_output("g", g);

    let cache = Arc::new(ResultCache::new());
    let mut engine = BiDecomposer::new(DecompConfig::new(Model::QbfDisjoint));
    engine.set_cache(cache.clone());
    let r = engine.decompose_circuit(&aig, GateOp::Or).unwrap();

    assert_eq!(r.outputs[0].cache, CacheLookup::Miss);
    assert_eq!(r.outputs[1].cache, CacheLookup::Hit, "g reuses f's entry");
    assert_eq!((r.cache_hits(), r.cache_misses()), (1, 1));
    assert_eq!((cache.hits(), cache.misses(), cache.inserts()), (1, 1, 1));
    assert_eq!(cache.len(), 1);

    // The hit costs no solver work, and the translated partition is a
    // real optimum for g's own variable order: it extracts, verifies
    // (config.verify is on — run() would have failed otherwise) and
    // passes the BDD ground truth.
    assert_eq!(r.outputs[1].sat_calls, 0);
    for out in &r.outputs {
        assert!(out.solved && out.proved_optimal, "{}", out.name);
        let p = out.partition.as_ref().expect("decomposable");
        assert_eq!(p.num_shared(), 0);
        let root = if out.output_index == 0 { f } else { g };
        assert!(bdd_decomposable(&aig, root, GateOp::Or, p), "{p}");
        assert!(out.decomposition.is_some());
    }
}

#[test]
fn cached_runs_match_cold_runs_exactly() {
    use crate::cache::ResultCache;
    use std::sync::Arc;

    let mut aig = Aig::new();
    let ins: Vec<AigLit> = (0..5).map(|i| aig.add_input(format!("x{i}"))).collect();
    for k in 0..4 {
        // Sliding-window copies of the same cone shape.
        let t = aig.and(ins[k], !ins[k + 1]);
        let u = aig.or(t, ins[(k + 2) % 5]);
        aig.add_output(format!("o{k}"), u);
    }
    for model in [Model::MusGroup, Model::QbfDisjoint, Model::Ljh] {
        let cold = BiDecomposer::new(DecompConfig::new(model))
            .decompose_circuit(&aig, GateOp::Or)
            .unwrap();
        let mut engine = BiDecomposer::new(DecompConfig::new(model));
        engine.set_cache(Arc::new(ResultCache::new()));
        let warm = engine.decompose_circuit(&aig, GateOp::Or).unwrap();
        assert!(warm.cache_hits() > 0, "{model}: twins must hit");
        for (c, w) in cold.outputs.iter().zip(&warm.outputs) {
            assert_eq!(c.partition, w.partition, "{model} {}", c.name);
            assert_eq!(c.solved, w.solved, "{model} {}", c.name);
            assert_eq!(c.proved_optimal, w.proved_optimal, "{model} {}", c.name);
            assert_eq!(
                c.decomposition.is_some(),
                w.decomposition.is_some(),
                "{model} {}",
                c.name
            );
        }
    }
}

#[test]
fn skipped_outputs_report_their_real_support() {
    let mut aig = Aig::new();
    let ins: Vec<AigLit> = (0..4).map(|i| aig.add_input(format!("x{i}"))).collect();
    let ab = aig.and(ins[0], ins[1]);
    let cd = aig.and(ins[2], ins[3]);
    let f = aig.or(ab, cd);
    aig.add_output("f", f);
    let g = aig.and(ins[1], ins[2]);
    aig.add_output("g", g);

    let mut config = DecompConfig::new(Model::MusGroup);
    config.budget.per_circuit = Budget::Wall(std::time::Duration::ZERO);
    let r = BiDecomposer::new(config)
        .decompose_circuit(&aig, GateOp::Or)
        .unwrap();
    assert!(r.timed_out);
    // Outputs the deadline skipped must not masquerade as constants.
    assert_eq!(r.outputs[0].support, 4, "f has 4 support variables");
    assert_eq!(r.outputs[1].support, 2, "g has 2 support variables");
    for out in &r.outputs {
        assert!(out.timed_out && !out.solved, "{}", out.name);
        assert_eq!(out.sat_calls, 0, "no solver ran for {}", out.name);
    }
}

#[test]
fn expired_deadline_short_circuits_before_any_solver_work() {
    use crate::job::OutputJob;
    use crate::session::SolveSession;

    let (mut aig, f) = or_of_ands();
    aig.add_output("f", f);
    let config = DecompConfig::new(Model::QbfDisjoint);
    // The clock anchors at session construction, before cone
    // extraction; a circuit deadline that already passed must surface
    // as a timeout with the real support and zero oracle calls.
    let job = OutputJob::new(&config, 0, GateOp::Or).with_circuit(crate::effort::CircuitBudget {
        deadline: Some(std::time::Instant::now()),
        work: None,
    });
    let r = SolveSession::new(&aig, job, &config, &Default::default(), None)
        .unwrap()
        .run()
        .unwrap();
    assert!(r.timed_out && !r.solved);
    assert_eq!(r.support, 4);
    assert_eq!(r.sat_calls, 0);
    assert_eq!(r.qbf_calls, 0);
    assert!(r.partition.is_none());
}

#[test]
fn sessions_reuse_pooled_oracles_and_bank_exports() {
    use std::sync::Arc;

    use crate::clause_bank::{BankLookup, ClauseBank, OraclePool};
    use crate::job::OutputJob;
    use crate::session::SolveSession;
    use crate::store::TieredStore;

    // maj3 is not OR-decomposable: proving that takes real conflicts,
    // so the oracle has tier-core clauses to donate.
    // MG drives the partition oracle directly (seed-pair checks plus
    // the UNSAT sweep), so refuting decomposability pins clauses.
    let (mut aig, f) = maj3();
    aig.add_output("f", f);
    aig.add_output("g", f); // same root: identical canonical cone
    let mut config = DecompConfig::new(Model::MusGroup);
    config.clause_reuse = true;
    // The sim pre-filter refutes maj3 outright (no surviving seed
    // pairs means no oracle work at all) — turn it off so the oracle
    // actually searches, conflicts, and has something to donate.
    config.sim_filter = false;
    let bank = Arc::new(ClauseBank::new());
    let store = TieredStore::memory(None, Some(Arc::clone(&bank)));
    let pool = OraclePool::new();
    let run = |idx: usize, pool: &OraclePool| {
        let job = OutputJob::new(&config, idx, GateOp::Or);
        SolveSession::new(&aig, job, &config, &store, Some(pool))
            .unwrap()
            .run()
            .unwrap()
    };

    let r0 = run(0, &pool);
    assert_eq!(r0.bank, BankLookup::Miss, "empty bank, empty pool");
    assert!(r0.solved && r0.partition.is_none());
    assert!(r0.donated_clauses > 0, "the UNSAT proof pins clauses");
    assert_eq!(bank.donations(), 1);

    // The twin takes over the parked oracle — no CNF rebuild, and its
    // sat_calls report only its own share.
    let r1 = run(1, &pool);
    assert_eq!(r1.bank, BankLookup::Pooled);
    assert_eq!(r1.partition, r0.partition, "reuse never changes answers");
    assert_eq!(r1.solved, r0.solved);
    assert_eq!(pool.reuses(), 1);

    // Same bank, fresh pool (a new submission): the donor's export now
    // serves the exact channel, imported verbatim.
    let r2 = run(0, &OraclePool::new());
    assert_eq!(r2.bank, BankLookup::Exact);
    assert!(r2.imported_clauses > 0, "verbatim import from the donor");
    assert_eq!(r2.partition, r0.partition);
    assert_eq!(r2.solved, r0.solved);
}

#[test]
fn solved_ratio_of_an_empty_circuit_is_nan() {
    let aig = Aig::new();
    let r = BiDecomposer::new(DecompConfig::new(Model::MusGroup))
        .decompose_circuit(&aig, GateOp::Or)
        .unwrap();
    assert!(r.outputs.is_empty());
    assert!(
        r.solved_ratio().is_nan(),
        "no outputs means no ratio, not a perfect score"
    );
    // Non-empty circuits keep their well-defined ratio.
    let (mut aig, f) = or_of_ands();
    aig.add_output("f", f);
    let r = BiDecomposer::new(DecompConfig::new(Model::MusGroup))
        .decompose_circuit(&aig, GateOp::Or)
        .unwrap();
    assert_eq!(r.solved_ratio(), 1.0);
}

// ---------------------------------------------------------------------
// randomized cross-checks
// ---------------------------------------------------------------------

mod props {
    use super::*;
    use proptest::prelude::*;

    fn build_random(ops: &[(u8, usize, usize)], n: usize) -> (Aig, AigLit) {
        let mut aig = Aig::new();
        let mut pool: Vec<AigLit> = (0..n).map(|i| aig.add_input(format!("x{i}"))).collect();
        for &(op, i, j) in ops {
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
        (aig, *pool.last().copied().as_ref().unwrap())
    }

    /// A random function that reads every one of its `n` inputs: each
    /// op folds an input (complemented for op 3) into one of three
    /// accumulators with AND/OR/XOR, inputs left unread are folded in
    /// afterwards, and the accumulators are joined. Inputs read by more
    /// than one accumulator give shared variables, so the optima range
    /// over many `k`, and some functions are not decomposable at all.
    fn build_covering(ops: &[(u8, usize, usize)], n: usize) -> (Aig, AigLit) {
        fn gate(aig: &mut Aig, op: u8, a: AigLit, b: AigLit) -> AigLit {
            match op % 3 {
                0 => aig.and(a, b),
                1 => aig.or(a, b),
                _ => aig.xor(a, b),
            }
        }
        let mut aig = Aig::new();
        let inputs: Vec<AigLit> = (0..n).map(|i| aig.add_input(format!("x{i}"))).collect();
        let mut acc: [Option<AigLit>; 3] = [None; 3];
        let mut fold = |aig: &mut Aig, op: u8, x: AigLit, slot: usize| {
            acc[slot] = Some(match acc[slot] {
                Some(a) => gate(aig, op, a, x),
                None => x,
            });
        };
        let mut read = vec![false; n];
        for &(op, i, j) in ops {
            let x = if op == 3 {
                !inputs[i % n]
            } else {
                inputs[i % n]
            };
            read[i % n] = true;
            fold(&mut aig, op, x, j % 3);
        }
        for i in (0..n).filter(|&i| !read[i]) {
            fold(&mut aig, 1, inputs[i], i % 3);
        }
        let join = ops.first().map_or(0, |o| o.0);
        let f = acc
            .into_iter()
            .flatten()
            .reduce(|a, b| gate(&mut aig, join, a, b))
            .unwrap();
        (aig, f)
    }

    fn arb_ops() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
        proptest::collection::vec((0u8..4, 0usize..64, 0usize..64), 3..25)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The oracle must agree with the BDD ground truth on every
        /// partition of random 4-input functions, for all operators.
        #[test]
        fn oracle_vs_bdd(ops in arb_ops()) {
            let (aig, f) = build_random(&ops, 4);
            // Skip functions whose support shrank (cone inputs differ).
            if aig.support(f).len() != 4 {
                return Ok(());
            }
            for op in GateOp::ALL {
                let core = CoreFormula::build(&aig, f, op);
                let mut oracle = PartitionOracle::new(core);
                let mut meter = EffortMeter::unlimited();
                for p in enumerate_partitions(4) {
                    if !p.is_nontrivial() {
                        continue;
                    }
                    let want = bdd_decomposable(&aig, f, op, &p);
                    let got = oracle.check(&p, &mut meter).unwrap();
                    prop_assert_eq!(got, want, "op={} p={}", op, p);
                }
            }
        }

        /// Ground truth for every probe. On random functions of support
        /// 4..=6, for OR, AND and XOR and every target kind at every
        /// `k ≤ k_max`, each [`solve_partition`] verdict agrees with the
        /// 3ⁿ enumeration, with `allow_both` off and on: a witness is a
        /// decomposable partition the target admits, and "no partition"
        /// means the enumeration has none. Every counterexample the CEGAR loop refines with, after
        /// generalization, re-simulates to a true core body (`α = β = 1`)
        /// and still refutes the candidate it was found for; its clause
        /// cuts that candidate off and keeps every decomposable
        /// partition.
        #[test]
        fn probes_match_enumeration(ops in arb_ops(), n in 4usize..=6) {
            use crate::qbf_model::solve_partition_observed;
            use crate::qbf_model::tests::target_admits;
            use step_cnf::Lit;

            let (aig, f) = build_covering(&ops, n);
            if aig.support(f).len() != n {
                return Ok(());
            }
            let metrics = [
                Metric::Disjointness,
                Metric::Balancedness,
                Metric::Combined,
                Metric::Weighted { wd: 2, wb: 1 },
                Metric::Weighted { wd: 1, wb: 3 },
            ];
            let mut targets = vec![Target::Any];
            for metric in metrics {
                targets.extend((0..=metric.k_max(n)).map(|k| metric.target(k)));
            }
            for op in GateOp::ALL {
                let ground = bdd_all_partitions(&aig, f, op);
                let core = CoreFormula::build(&aig, f, op);
                let y = core.y_pis();
                for (&target, allow_both) in targets.iter().flat_map(|t| [(t, false), (t, true)]) {
                    let opts = ModelOptions { allow_both, ..ModelOptions::default() };
                    let admits = |p: &VarPartition| {
                        target_admits(target, opts.symmetry_breaking, p.num_a(), p.num_b(), p.num_shared())
                    };
                    let mut bad_refinements = Vec::new();
                    let mut on_refine = |candidate: &[bool], copies: &[bool], clause: &[Lit]| {
                        let mut inputs = vec![false; core.aig.num_inputs()];
                        for (&pi, &v) in y.iter().zip(copies) {
                            inputs[pi] = v;
                        }
                        for &pi in core.alpha.iter().chain(&core.beta) {
                            inputs[pi] = true;
                        }
                        let body = core.aig.eval_lit(core.root, &inputs);
                        for (&pi, &v) in core.alpha.iter().chain(&core.beta).zip(candidate) {
                            inputs[pi] = v;
                        }
                        let refutes = core.aig.eval_lit(core.root, &inputs);
                        let satisfied = |ab: &[bool]| clause.iter().any(|l| l.eval(ab));
                        let keeps_ground = ground.iter().all(|p| {
                            let ab: Vec<bool> = [VarClass::A, VarClass::B]
                                .iter()
                                .flat_map(|&c| p.classes().iter().map(move |&x| x == c))
                                .collect();
                            satisfied(&ab)
                        });
                        if !body || !refutes || satisfied(candidate) || !keeps_ground {
                            bad_refinements.push((candidate.to_vec(), copies.to_vec()));
                        }
                    };
                    let mut meter = EffortMeter::unlimited();
                    let (outcome, _) =
                        solve_partition_observed(&core, target, &opts, &mut meter, &mut on_refine);
                    let tag = format!("op={op} {target:?} allow_both={allow_both}");
                    prop_assert!(
                        bad_refinements.is_empty(),
                        "{}: refinement off the core {:?}", tag, bad_refinements[0]
                    );
                    match outcome {
                        QbfModelOutcome::Partition(p) => {
                            prop_assert!(bdd_decomposable(&aig, f, op, &p), "{}: invalid {}", tag, p);
                            // Under allow_both a (1,1) pair counts as shared for
                            // the target but joins a block in the partition.
                            prop_assert!(allow_both || admits(&p), "{}: {} misses the target", tag, p);
                        }
                        QbfModelOutcome::NoPartition => prop_assert!(
                            !ground.iter().any(admits),
                            "{}: missed {}", tag, ground.iter().find(|p| admits(p)).unwrap()
                        ),
                        QbfModelOutcome::Timeout => prop_assert!(false, "{}: unbudgeted timeout", tag),
                    }
                }
            }
        }

        /// Ground truth for every definitive verdict. On random
        /// functions of support 4..=6, whenever a QBF model (QD, QB,
        /// QDB) or a weighted optimum search claims an optimum, its `k`
        /// equals the minimum over the brute-force 3ⁿ enumeration; every
        /// returned partition is valid (and extracts and verifies for
        /// the engine); every "not decomposable" has an empty ground set.
        ///
        /// The engine models run four passes: clause reuse off; reuse
        /// on over a shared bank with a disk tier; reuse on again
        /// against that now-warm bank; and reuse on over the disk tier
        /// alone, flushed to a directory and reopened in a new store.
        /// Every pass must return the reuse-off partition. The warm
        /// pass must replay every probe from the bank, and the disk
        /// pass every probe from disk, solving none.
        #[test]
        fn engine_sound_and_complete(ops in arb_ops(), n in 4usize..=6) {
            use std::sync::atomic::{AtomicUsize, Ordering};
            use std::sync::Arc;
            use crate::clause_bank::ClauseBank;
            use crate::store::{ArtifactKind, TieredStore};

            static CASE: AtomicUsize = AtomicUsize::new(0);
            let (mut aig, f) = build_covering(&ops, n);
            if aig.support(f).len() != n {
                return Ok(());
            }
            aig.add_output("f", f);
            let grounds: Vec<Vec<VarPartition>> =
                GateOp::ALL.iter().map(|&op| bdd_all_partitions(&aig, f, op)).collect();
            let models = [
                (Model::QbfDisjoint, Metric::Disjointness),
                (Model::QbfBalanced, Metric::Balancedness),
                (Model::QbfCombined, Metric::Combined),
            ];
            let dir = std::env::temp_dir().join(format!(
                "step-ground-truth-{}-{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let bank = Arc::new(ClauseBank::new());
            let cold = Arc::new(TieredStore::with_disk(None, Some(Arc::clone(&bank)), &dir).unwrap());
            let warm = Arc::new(TieredStore::memory(None, Some(Arc::clone(&bank))));
            let mut disk = Arc::default();
            let mut reuse_off = Vec::new();
            let mut cold_records = 0;
            let (mut disk_probes, mut disk_iterations) = (0, 0);
            for pass in ["reuse off", "reuse on", "warm store", "warm disk"] {
                match pass {
                    "warm store" => cold_records = bank.probe_records(),
                    "warm disk" => {
                        // Only the clause and probe logs stay: a stored
                        // result would skip the search this pass checks.
                        for entry in std::fs::read_dir(&dir).unwrap() {
                            let path = entry.unwrap().path();
                            let name = path.file_name().unwrap().to_string_lossy().into_owned();
                            if name.starts_with(ArtifactKind::Result.label()) {
                                std::fs::remove_file(&path).unwrap();
                            }
                        }
                        disk = Arc::new(TieredStore::with_disk(None, None, &dir).unwrap());
                    }
                    _ => {}
                }
                let mut run = 0;
                for (&op, ground) in GateOp::ALL.iter().zip(&grounds) {
                    let optimum = |metric: Metric| ground.iter().map(|g| metric.k_of(g)).min();
                    for (model, metric) in models {
                        let mut config = DecompConfig::new(model);
                        config.clause_reuse = pass != "reuse off";
                        let mut engine = BiDecomposer::new(config);
                        match pass {
                            "reuse on" => engine.set_store(Arc::clone(&cold)),
                            "warm store" => engine.set_store(Arc::clone(&warm)),
                            "warm disk" => engine.set_store(Arc::clone(&disk)),
                            _ => {}
                        }
                        let r = engine.decompose_output(&aig, 0, op).unwrap();
                        if pass == "warm disk" {
                            disk_probes += u64::from(r.qbf_calls);
                            disk_iterations += r.cegar_iterations;
                        }
                        match &r.partition {
                            Some(p) => {
                                prop_assert!(
                                    bdd_decomposable(&aig, f, op, p),
                                    "{} {} op={} invalid partition {}", pass, model, op, p
                                );
                                let d = r.decomposition.as_ref().expect("extraction on");
                                prop_assert!(verify(d, None).is_ok());
                                prop_assert!(
                                    r.proved_optimal,
                                    "{} {} op={} optimum not proved", pass, model, op
                                );
                                prop_assert_eq!(
                                    Some(metric.k_of(p)), optimum(metric),
                                    "{} {} op={} claimed optimum {}", pass, model, op, p
                                );
                            }
                            None => {
                                prop_assert!(
                                    ground.is_empty(),
                                    "{} {} op={} engine missed {:?}",
                                    pass, model, op, ground.first().map(|p| p.to_string())
                                );
                            }
                        }
                        if pass == "reuse off" {
                            reuse_off.push(r.partition);
                        } else {
                            prop_assert_eq!(
                                &r.partition, &reuse_off[run],
                                "{} {} op={} differs from reuse off", pass, model, op
                            );
                        }
                        run += 1;
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
            prop_assert_eq!(
                bank.probe_records(), cold_records,
                "the warm pass solved a probe instead of replaying it"
            );
            prop_assert_eq!(
                disk_probes, cold_records,
                "the disk pass probed other targets than the cold pass"
            );
            prop_assert_eq!(
                disk.disk_probe_hits(), disk_probes,
                "the disk pass looked a probe up elsewhere than on disk"
            );
            prop_assert_eq!(disk_iterations, 0, "the disk pass solved a probe");
            for (&op, ground) in GateOp::ALL.iter().zip(&grounds) {
                let optimum = |metric: Metric| ground.iter().map(|g| metric.k_of(g)).min();
                let core = CoreFormula::build(&aig, f, op);
                for metric in [Metric::Weighted { wd: 2, wb: 1 }, Metric::Weighted { wd: 1, wb: 3 }] {
                    let mut meter = EffortMeter::unlimited();
                    let r = optimum::search(
                        &core,
                        metric,
                        None,
                        SearchStrategy::MdBinMi,
                        &ModelOptions::default(),
                        &mut meter,
                    );
                    prop_assert!(r.proved_optimal, "{:?} op={} unbudgeted search truncated", metric, op);
                    match &r.partition {
                        Some(p) => {
                            prop_assert!(bdd_decomposable(&aig, f, op, p), "{:?} op={} invalid {}", metric, op, p);
                            prop_assert_eq!(
                                Some(metric.k_of(p)), optimum(metric),
                                "{:?} op={} claimed optimum {}", metric, op, p
                            );
                        }
                        None => prop_assert!(ground.is_empty(), "{:?} op={} search missed a partition", metric, op),
                    }
                }
            }
        }
    }
}
