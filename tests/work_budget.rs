//! The determinism guarantee of pure `Work` budgets: truncation is
//! measured in solver conflicts, not wall clock, so a budgeted run —
//! including *which* outputs time out and the partial partitions they
//! report — is byte-identical across worker counts, cache modes and
//! (by construction) machines and background load. The old wall-clock
//! `BudgetPolicy` could not express this: a `Wall` timeout lands
//! wherever the scheduler and the host load put it.

use std::sync::Arc;

use qbf_bidec::circuits::{registry_table1, Scale};
use qbf_bidec::step::{
    BiDecomposer, Budget, BudgetPolicy, CircuitResult, DecompConfig, GateOp, Model, ResultCache,
    TieredStore,
};

fn work_config(model: Model, per_output: u64, jobs: usize) -> DecompConfig {
    let mut c = DecompConfig::new(model);
    c.budget = BudgetPolicy::work(per_output);
    c.jobs = jobs;
    c
}

fn run(
    aig: &qbf_bidec::aig::Aig,
    model: Model,
    per_output: u64,
    jobs: usize,
    cache: bool,
) -> CircuitResult {
    let mut engine = BiDecomposer::new(work_config(model, per_output, jobs));
    if cache {
        engine.set_cache(Arc::new(ResultCache::new()));
    }
    engine.decompose_circuit(aig, GateOp::Or).expect("run")
}

/// The run projection that must be identical: every per-output field
/// except wall clock and cache/effort bookkeeping (which shift between
/// cache modes but never change answers).
fn verdicts(r: &CircuitResult) -> Vec<String> {
    r.outputs
        .iter()
        .map(|o| {
            format!(
                "{}|{}|{:?}|solved={}|optimal={}|timeout={}",
                o.name, o.support, o.partition, o.solved, o.proved_optimal, o.timed_out
            )
        })
        .collect()
}

#[test]
fn tight_work_budget_truncates_identically_across_jobs_and_cache() {
    // s38584.1 at default scale under work:10 — tight enough that at
    // least one output times out and another reports a non-optimal
    // partial partition (pinned below), so this run demonstrably
    // exercises the truncation path, not just the happy path.
    let entry = &registry_table1()[2];
    assert_eq!(entry.name, "s38584.1");
    let aig = entry.build(Scale::Default);
    let baseline = run(&aig, Model::QbfDisjoint, 10, 1, false);
    assert!(
        baseline
            .outputs
            .iter()
            .any(|o| o.timed_out && o.partition.is_none()),
        "work:10 must hard-truncate some output"
    );
    assert!(
        baseline
            .outputs
            .iter()
            .any(|o| o.timed_out && o.partition.is_some() && !o.proved_optimal),
        "work:10 must leave some output with a partial partition"
    );
    assert!(
        baseline.outputs.iter().any(|o| o.solved),
        "work:10 must still solve the easy outputs"
    );
    let want = verdicts(&baseline);
    for jobs in [2, 3] {
        for cache in [false, true] {
            let r = run(&aig, Model::QbfDisjoint, 10, jobs, cache);
            assert_eq!(
                verdicts(&r),
                want,
                "jobs={jobs} cache={cache}: work-budget truncation must be deterministic"
            );
        }
    }
}

#[test]
fn ema_restarts_truncate_identically_across_jobs_and_cache() {
    // The modern-kernel knobs must uphold the same guarantee: with
    // `--sat-restarts ema` (LBD-EMA dynamic restarts feeding on
    // floating-point averages) the truncation point is still measured
    // in conflicts only, so jobs ∈ {1,2,3} × cache on/off stay
    // byte-identical. Floats are fine here — every solver computes the
    // same EMA sequence in the same order; what is banned is the
    // clock, not arithmetic.
    let entry = &registry_table1()[2];
    assert_eq!(entry.name, "s38584.1");
    let aig = entry.build(Scale::Default);
    let mk = |jobs: usize, cache: bool| {
        let mut c = work_config(Model::QbfDisjoint, 10, jobs);
        c.sat_restarts = qbf_bidec::step::RestartPolicy::Ema;
        let mut engine = BiDecomposer::new(c);
        if cache {
            engine.set_cache(Arc::new(ResultCache::new()));
        }
        engine.decompose_circuit(&aig, GateOp::Or).expect("run")
    };
    let baseline = mk(1, false);
    assert!(
        baseline.outputs.iter().any(|o| o.timed_out),
        "work:10 must truncate under EMA restarts too"
    );
    let want = verdicts(&baseline);
    for jobs in [2, 3] {
        for cache in [false, true] {
            let r = mk(jobs, cache);
            assert_eq!(
                verdicts(&r),
                want,
                "jobs={jobs} cache={cache}: EMA-restart truncation must be deterministic"
            );
        }
    }
}

#[test]
fn work_budget_bounds_the_effort_actually_spent() {
    // The meter caps every solver call by the remaining budget, so the
    // charged effort can never overshoot the limit — that exactness is
    // what makes the truncation point machine-independent.
    let entry = &registry_table1()[2];
    let aig = entry.build(Scale::Default);
    for limit in [10u64, 100, 1000] {
        let r = run(&aig, Model::QbfDisjoint, limit, 1, false);
        for o in &r.outputs {
            assert!(
                o.effort.conflicts <= limit,
                "output {} spent {} conflicts under work:{limit}",
                o.name,
                o.effort.conflicts
            );
        }
    }
    // And a generous budget records real, nonzero effort.
    let r = run(&aig, Model::QbfDisjoint, 1_000_000, 1, false);
    assert!(r.total_effort().conflicts > 0, "a real run books conflicts");
    assert!(r.total_effort().propagations > 0);
}

#[test]
fn circuit_work_pool_skips_trailing_outputs() {
    // A pure-work per-circuit budget: outputs drain one shared pool in
    // claim order; once it is empty, the remaining outputs are skipped
    // as budget-exhausted placeholders with their real support and no
    // solver work. At jobs = 1 the claim order is the output order, so
    // this is deterministic — pinned by running it twice.
    let entry = &registry_table1()[2];
    let aig = entry.build(Scale::Default);
    let mk = || {
        let mut c = DecompConfig::new(Model::QbfDisjoint);
        c.budget = BudgetPolicy {
            per_qbf_call: Budget::Unlimited,
            per_output: Budget::Unlimited,
            per_circuit: Budget::Work(50),
        };
        BiDecomposer::new(c)
            .decompose_circuit(&aig, GateOp::Or)
            .expect("run")
    };
    let r = mk();
    assert!(r.timed_out, "the pool must run out");
    let skipped: Vec<_> = r
        .outputs
        .iter()
        .filter(|o| o.timed_out && o.sat_calls == 0 && o.effort.conflicts == 0)
        .collect();
    assert!(!skipped.is_empty(), "some output must be skipped outright");
    for o in &skipped {
        assert!(o.support > 0, "skipped outputs keep their real support");
        assert!(!o.solved);
    }
    assert!(
        r.outputs.iter().any(|o| o.solved),
        "outputs before exhaustion still solve"
    );
    assert_eq!(
        verdicts(&r),
        verdicts(&mk()),
        "jobs=1 pool is deterministic"
    );
}

#[test]
fn circuit_work_pool_is_byte_identical_across_jobs() {
    // The parallel half of the guarantee above: the per-circuit pool
    // is drained through two-phase ledger reservations (reserve a
    // deterministic slice before solving, commit actual conflicts
    // after), so *which* outputs starve is fixed by the reservation
    // schedule, not by racing workers — jobs ∈ {1,2,3} report
    // identical verdicts even though the pool is shared.
    let entry = &registry_table1()[2];
    assert_eq!(entry.name, "s38584.1");
    let aig = entry.build(Scale::Default);
    let mk = |jobs: usize| {
        let mut c = DecompConfig::new(Model::QbfDisjoint);
        c.budget = BudgetPolicy {
            per_qbf_call: Budget::Unlimited,
            per_output: Budget::Unlimited,
            per_circuit: Budget::Work(50),
        };
        c.jobs = jobs;
        BiDecomposer::new(c)
            .decompose_circuit(&aig, GateOp::Or)
            .expect("run")
    };
    let baseline = mk(1);
    assert!(baseline.timed_out, "the pool must run out");
    assert!(
        baseline.outputs.iter().any(|o| o.solved),
        "the pool must also admit some work"
    );
    let want = verdicts(&baseline);
    for jobs in [2usize, 3] {
        assert_eq!(
            verdicts(&mk(jobs)),
            want,
            "jobs={jobs}: the shared circuit pool must truncate deterministically"
        );
    }
}

#[test]
fn budget_degraded_mg_partitions_are_reported_and_never_cached() {
    // STEP-MG under a tight work budget falls back to a cruder
    // partition when the MUS refinement is truncated (the bare seed
    // pair in the worst case). That outcome is budget-dependent, so it
    // must carry a timeout verdict and must never enter the result
    // cache — otherwise a shared service cache would serve a starved
    // run's crude partition to an unbudgeted run of the same cone.
    let entry = &registry_table1()[2];
    let aig = entry.build(Scale::Default);
    let cache = Arc::new(ResultCache::new());
    let degraded = (1..64).find_map(|limit| {
        let mut engine = BiDecomposer::new(work_config(Model::MusGroup, limit, 1));
        engine.set_cache(Arc::clone(&cache));
        let r = engine.decompose_circuit(&aig, GateOp::Or).expect("run");
        r.outputs
            .iter()
            .any(|o| o.timed_out && o.partition.is_some())
            .then_some(r)
    });
    let degraded = degraded.expect("some work budget must truncate the MUS mid-refinement");
    for o in degraded.outputs.iter().filter(|o| o.timed_out) {
        assert!(
            !o.solved,
            "a budget-degraded partition is not a definite answer"
        );
    }
    // The cache the starved runs shared must now serve an unlimited
    // run exactly what a cold unlimited run computes.
    let mut warm_engine = BiDecomposer::new(DecompConfig::new(Model::MusGroup));
    warm_engine.set_cache(cache);
    let warm = warm_engine
        .decompose_circuit(&aig, GateOp::Or)
        .expect("warm");
    let cold = BiDecomposer::new(DecompConfig::new(Model::MusGroup))
        .decompose_circuit(&aig, GateOp::Or)
        .expect("cold");
    assert_eq!(
        verdicts(&warm),
        verdicts(&cold),
        "starved runs must not have poisoned the shared cache"
    );
}

#[test]
fn synthesis_work_pool_truncates_identically_across_jobs() {
    // The recursive-synthesis successor of the per-circuit pool test
    // above: the whole-synthesis `Work` pool is sliced across frontier
    // expansions by the same two-phase WorkLedger (reserve a
    // deterministic slice before probing, commit actual conflicts
    // after), and the frontier is scheduled in canonical-fingerprint
    // rounds — so *which* subtrees get truncated, the networks
    // emitted, and the expansion counts are byte-identical at any
    // worker count. Clause reuse stays off (the default): with reuse
    // on, the conflicts charged to a *binding* pool are scheduling-
    // dependent (the engine's documented reuse contract).
    use qbf_bidec::step::StepService;
    use qbf_bidec::synth::{SynthDriver, SynthOptions, SynthOutput};

    let entry = &registry_table1()[2];
    assert_eq!(entry.name, "s38584.1");
    let aig = entry.build(Scale::Default);
    let render = |outs: &[SynthOutput]| -> Vec<String> {
        outs.iter()
            .map(|o| {
                format!(
                    "{}|trunc={}|expanded={}\n{}",
                    o.name,
                    o.stats.truncated,
                    o.stats.nodes_expanded,
                    o.tree.render()
                )
            })
            .collect()
    };
    let mk = |jobs: usize| {
        let service = StepService::spawn_with_store(
            jobs,
            Arc::new(TieredStore::memory(
                Some(Arc::new(ResultCache::new())),
                None,
            )),
        );
        let opts = SynthOptions {
            per_node: Budget::Work(50),
            synthesis: Budget::Work(120),
            ..SynthOptions::default()
        };
        let driver = SynthDriver::new(&service, DecompConfig::new(Model::QbfDisjoint), opts);
        driver.synthesize_circuit(&aig).expect("run")
    };
    let baseline = mk(1);
    assert!(
        baseline.iter().any(|o| o.stats.truncated),
        "work:120 must truncate some subtree"
    );
    assert!(
        baseline.iter().any(|o| o.tree.num_gates() > 0),
        "work:120 must still admit some expansions"
    );
    for o in &baseline {
        assert!(o.stats.verified, "truncated networks stay SAT-verified");
    }
    let want = render(&baseline);
    for jobs in [2usize, 3] {
        assert_eq!(
            render(&mk(jobs)),
            want,
            "jobs={jobs}: the synthesis work pool must truncate deterministically"
        );
    }
}

mod props {
    use super::*;
    use proptest::prelude::*;

    /// Small random two-output AIGs (same shape as the parallel
    /// determinism suite).
    fn build_random(ops: &[(u8, usize, usize)], n: usize) -> qbf_bidec::aig::Aig {
        let mut aig = qbf_bidec::aig::Aig::new();
        let mut pool: Vec<qbf_bidec::aig::AigLit> =
            (0..n).map(|i| aig.add_input(format!("x{i}"))).collect();
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
        let f = pool[pool.len() - 1];
        let g = pool[pool.len() / 2];
        aig.add_output("f", f);
        aig.add_output("g", g);
        aig
    }

    fn arb_ops() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
        proptest::collection::vec((0u8..4, 0usize..64, 0usize..64), 8..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Random AIGs under a tight work budget: jobs ∈ {1,2,3} and
        /// cache on/off all report identical verdicts — the budget
        /// trips on the same call everywhere.
        #[test]
        fn random_aigs_truncate_identically(ops in arb_ops()) {
            let aig = build_random(&ops, 5);
            for model in [Model::MusGroup, Model::QbfDisjoint] {
                let want = verdicts(&run(&aig, model, 3, 1, false));
                for jobs in [2usize, 3] {
                    for cache in [false, true] {
                        let got = verdicts(&run(&aig, model, 3, jobs, cache));
                        prop_assert_eq!(
                            &got, &want,
                            "{} jobs={} cache={}", model, jobs, cache
                        );
                    }
                }
            }
        }
    }
}
