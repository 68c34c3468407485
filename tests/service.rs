//! The decomposition service: parity with the legacy one-shot API,
//! streaming semantics, cancellation and cross-submission cache
//! sharing.
//!
//! `StepService::submit(...).join()` must be byte-identical to
//! `BiDecomposer::decompose_circuit` for the same `(circuit, op,
//! config)` — per-output work is a pure function of `(cone, op,
//! config)`, so neither the persistent pool, the worker count, nor
//! queue position may change any answer.

use std::sync::Arc;
use std::time::Duration;

use qbf_bidec::circuits::{registry_table1, Scale};
use qbf_bidec::step::{
    BiDecomposer, CircuitResult, DecompConfig, GateOp, Model, ResultCache, StepError, StepService,
    SubmitOptions, TieredStore,
};

fn config(model: Model, jobs: usize) -> DecompConfig {
    let mut c = DecompConfig::new(model);
    c.jobs = jobs;
    c
}

/// Everything that must match between the service and legacy paths
/// (wall-clock aside).
fn assert_same_outputs(a: &CircuitResult, b: &CircuitResult, tag: &str) {
    assert_eq!(a.outputs.len(), b.outputs.len(), "{tag}: output count");
    for (x, y) in a.outputs.iter().zip(&b.outputs) {
        let t = format!("{tag}: output {} ({})", x.output_index, x.name);
        assert_eq!(x.name, y.name, "{t}: name");
        assert_eq!(x.support, y.support, "{t}: support");
        assert_eq!(x.partition, y.partition, "{t}: partition");
        assert_eq!(x.solved, y.solved, "{t}: solved");
        assert_eq!(x.proved_optimal, y.proved_optimal, "{t}: proved_optimal");
        assert_eq!(x.sat_calls, y.sat_calls, "{t}: sat_calls");
        assert_eq!(x.qbf_calls, y.qbf_calls, "{t}: qbf_calls");
        assert_eq!(
            x.decomposition.is_some(),
            y.decomposition.is_some(),
            "{t}: extraction"
        );
    }
}

#[test]
fn service_join_matches_legacy_driver_on_a_registry_circuit() {
    // s38584.1 at default scale: 8 primary outputs, a mix of
    // decomposable / non-decomposable cones. The full five-model
    // roster is pinned (the acceptance bar for the service redesign);
    // one shared service serves every model × jobs combination.
    let entry = &registry_table1()[2];
    let aig = entry.build(Scale::Default);
    for model in Model::ALL {
        let legacy = BiDecomposer::new(config(model, 1))
            .decompose_circuit(&aig, GateOp::Or)
            .expect("legacy run");
        let service = StepService::spawn_with_store(3, Arc::default());
        for jobs in [1usize, 2, 3] {
            let via_service = service
                .submit(&aig, GateOp::Or, config(model, jobs))
                .expect("submit")
                .join()
                .expect("join");
            assert_same_outputs(&via_service, &legacy, &format!("{model} jobs={jobs}"));
        }
        assert!(legacy.num_decomposed() > 0, "{model}: something decomposes");
    }
}

#[test]
fn cancellation_mid_circuit_returns_cancelled_without_wedging_workers() {
    // One worker, many outputs: recv one completed output, cancel,
    // and the join must come back promptly with Cancelled — then the
    // same pool must still serve a fresh submission to completion.
    let entry = &registry_table1()[2]; // s38584.1 (8 outputs)
    let aig = entry.build(Scale::Default);
    assert!(aig.num_outputs() >= 4, "need a multi-output circuit");
    let service = StepService::spawn_with_store(1, Arc::default());
    let mut handle = service
        .submit(&aig, GateOp::Or, config(Model::QbfDisjoint, 1))
        .expect("submit");
    let first = handle.recv().expect("at least one output completes");
    assert!(first.result.is_ok(), "first output solves normally");
    handle.cancel();
    match handle.join() {
        Err(StepError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // The pool survives and the next submission runs fully.
    let after = service
        .submit(&aig, GateOp::Or, config(Model::QbfDisjoint, 1))
        .expect("submit after cancel")
        .join()
        .expect("join after cancel");
    assert_eq!(after.outputs.len(), aig.num_outputs());
    assert!(after.num_decomposed() > 0);
}

#[test]
fn concurrent_submissions_share_cache_hits() {
    // Two submissions of the same circuit queued back-to-back on a
    // cache-sharing service: the first populates the cache, the second
    // is served entirely from it (single worker makes the FIFO order,
    // and therefore the hit counts, deterministic).
    let entry = &registry_table1()[16]; // mm9a: small
    let aig = entry.build(Scale::Smoke);
    let cache = Arc::new(ResultCache::new());
    let service = StepService::spawn_with_store(
        1,
        Arc::new(TieredStore::memory(Some(Arc::clone(&cache)), None)),
    );
    let first = service
        .submit(&aig, GateOp::Or, config(Model::MusGroup, 1))
        .expect("submit 1");
    let second = service
        .submit(&aig, GateOp::Or, config(Model::MusGroup, 1))
        .expect("submit 2");
    let cold = first.join().expect("join 1");
    let warm = second.join().expect("join 2");
    // Same answers (a cache hit reports zero solver calls, so the
    // work counters legitimately differ from the cold run).
    for (w, c) in warm.outputs.iter().zip(&cold.outputs) {
        assert_eq!(w.partition, c.partition, "warm vs cold: {}", w.name);
        assert_eq!(w.solved, c.solved, "warm vs cold: {}", w.name);
        assert_eq!(
            w.proved_optimal, c.proved_optimal,
            "warm vs cold: {}",
            w.name
        );
    }
    assert_eq!(
        warm.cache_hits() as usize,
        warm.outputs.len(),
        "submission 2 fully served from submission 1's entries"
    );
    assert!(warm.total_sat_calls() < cold.total_sat_calls());
    assert!(cache.hits() >= warm.cache_hits());
}

#[test]
fn expired_submission_deadline_times_out_instead_of_erroring() {
    let entry = &registry_table1()[16];
    let aig = entry.build(Scale::Smoke);
    let service = StepService::spawn_with_store(2, Arc::default());
    let options = SubmitOptions {
        deadline: Some(std::time::Instant::now() - Duration::from_millis(1)),
        ..SubmitOptions::default()
    };
    let result = service
        .submit_with(
            StepService::comb_arc(&aig).expect("comb"),
            GateOp::Or,
            config(Model::QbfDisjoint, 2),
            options,
        )
        .expect("submit")
        .join()
        .expect("join");
    assert!(result.timed_out);
    assert!(result.outputs.iter().all(|o| o.timed_out && !o.solved));
}

mod props {
    use super::*;
    use proptest::prelude::*;

    /// Builds a small combinational AIG with two primary outputs from a
    /// list of gate descriptors over `n` inputs.
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
        proptest::collection::vec((0u8..4, 0usize..64, 0usize..64), 4..20)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Random small AIGs: `submit(...).join()` reproduces the
        /// legacy `decompose_circuit` result for every worker count,
        /// heuristic and QBF model alike.
        #[test]
        fn service_matches_legacy_on_random_aigs(ops in arb_ops()) {
            let aig = build_random(&ops, 4);
            for model in [Model::MusGroup, Model::QbfDisjoint] {
                let legacy = BiDecomposer::new(config(model, 1))
                    .decompose_circuit(&aig, GateOp::Or)
                    .expect("legacy run");
                for jobs in [1usize, 2, 3] {
                    let via_service = StepService::spawn_with_store(jobs, Arc::default())
                        .submit(&aig, GateOp::Or, config(model, jobs))
                        .expect("submit")
                        .join()
                        .expect("join");
                    prop_assert_eq!(via_service.outputs.len(), legacy.outputs.len());
                    for (s, l) in via_service.outputs.iter().zip(&legacy.outputs) {
                        prop_assert_eq!(&s.partition, &l.partition, "{} jobs={} {}", model, jobs, s.name);
                        prop_assert_eq!(s.solved, l.solved);
                        prop_assert_eq!(s.proved_optimal, l.proved_optimal);
                        prop_assert_eq!(s.sat_calls, l.sat_calls);
                    }
                }
            }
        }
    }
}
