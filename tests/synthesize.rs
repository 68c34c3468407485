//! Integration tests for the multi-level synthesis subsystem
//! (`step-synth`): the determinism contract of the deterministic
//! expansion scheduler, the reuse surfaces the recursion is meant to
//! compound (result cache, clause bank, persistent store), and the
//! SAT-verified equivalence of every emitted network.

use std::sync::Arc;

use qbf_bidec::circuits::{registry_table1, with_permuted_copies, Scale};
use qbf_bidec::step::{
    Budget, ClauseBank, DecompConfig, Model, ResultCache, StepService, TieredStore,
};
use qbf_bidec::synth::{network_equivalent, SynthDriver, SynthOptions, SynthOutput};

/// The projection that must be byte-identical across worker counts:
/// the full rendered network per output plus the deterministic
/// counters (expansions, truncation). Wall clocks and reuse counters
/// stay out — they are scheduling-dependent by contract.
fn render(outs: &[SynthOutput]) -> Vec<String> {
    outs.iter()
        .map(|o| {
            format!(
                "{}|support={}|trunc={}|expanded={}\n{}",
                o.name,
                o.support,
                o.stats.truncated,
                o.stats.nodes_expanded,
                o.tree.render()
            )
        })
        .collect()
}

#[test]
fn emitted_network_is_byte_identical_across_jobs() {
    // The tentpole contract: under a pure-work per-node budget the
    // frontier is expanded in canonical-fingerprint rounds, so the
    // emitted network is a pure function of (circuit, config, options)
    // — jobs ∈ {1, 2, 3} render identical trees.
    let entry = &registry_table1()[1];
    assert_eq!(entry.name, "s15850.1");
    let aig = entry.build(Scale::Default);
    let mk = |jobs: usize| {
        let service = StepService::spawn_with_store(
            jobs,
            Arc::new(TieredStore::memory(
                Some(Arc::new(ResultCache::new())),
                None,
            )),
        );
        let opts = SynthOptions {
            per_node: Budget::Work(20_000),
            ..SynthOptions::default()
        };
        let driver = SynthDriver::new(&service, DecompConfig::new(Model::QbfDisjoint), opts);
        driver.synthesize_circuit(&aig).expect("run")
    };
    let baseline = mk(1);
    assert!(
        baseline.iter().all(|o| o.stats.verified),
        "every network is SAT-verified"
    );
    assert!(
        baseline.iter().any(|o| o.stats.nodes_expanded > 1),
        "the recursion actually recurses"
    );
    let want = render(&baseline);
    for jobs in [2usize, 3] {
        assert_eq!(
            render(&mk(jobs)),
            want,
            "jobs={jobs}: the emitted network must be byte-identical"
        );
    }
}

#[test]
fn recursion_hits_the_result_cache_and_clause_bank() {
    // Recursion floods the engine with related sub-cones — the
    // workload the reuse surfaces exist for. On a twin-heavy circuit
    // the probes must book nonzero result-cache AND clause-bank hits,
    // and (the reuse contract) the networks must match a reuse-off run
    // exactly while no work pool binds.
    let entry = &registry_table1()[2];
    assert_eq!(entry.name, "s38584.1");
    let aig = with_permuted_copies(&entry.build(Scale::Default), 2);
    let run = |clause_reuse: bool| {
        let cache = Arc::new(ResultCache::new());
        let bank = clause_reuse.then(|| Arc::new(ClauseBank::new()));
        let service =
            StepService::spawn_with_store(2, Arc::new(TieredStore::memory(Some(cache), bank)));
        let mut config = DecompConfig::new(Model::QbfDisjoint);
        config.clause_reuse = clause_reuse;
        let driver = SynthDriver::new(&service, config, SynthOptions::default());
        driver.synthesize_circuit(&aig).expect("run")
    };
    let on = run(true);
    let cache_hits: u64 = on.iter().map(|o| o.stats.cache_hits).sum();
    let bank_hits: u64 = on.iter().map(|o| o.stats.bank_hits).sum();
    assert!(
        cache_hits > 0,
        "the twin population must be served from the result cache"
    );
    assert!(
        bank_hits > 0,
        "recursive sub-cones must pre-seed from the clause bank"
    );
    let off = run(false);
    assert_eq!(
        render(&on),
        render(&off),
        "reuse changes work counters, never the emitted network"
    );
}

#[test]
fn warm_store_serves_recursion_from_disk_with_identical_networks() {
    // Two synthesis runs sharing a --cache-dir store through fresh
    // memory tiers each time: the warm run's probes book nonzero disk
    // hits and the networks are byte-identical to the cold run.
    let dir = std::env::temp_dir().join(format!(
        "step-synth-warm-{}-{}",
        std::process::id(),
        line!()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let entry = &registry_table1()[1]; // s15850.1
    let aig = entry.build(Scale::Default);
    let run = || {
        let store = Arc::new(
            TieredStore::with_disk(Some(Arc::new(ResultCache::new())), None, &dir)
                .expect("temp store"),
        );
        let service = StepService::spawn_with_store(2, Arc::clone(&store));
        let driver = SynthDriver::new(
            &service,
            DecompConfig::new(Model::QbfDisjoint),
            SynthOptions::default(),
        );
        let outs = driver.synthesize_circuit(&aig).expect("run");
        store.flush().expect("flush");
        outs
    };
    let cold = run();
    let warm = run();
    assert_eq!(
        cold.iter().map(|o| o.stats.disk_hits).sum::<u64>(),
        0,
        "nothing on disk yet"
    );
    assert!(
        warm.iter().map(|o| o.stats.disk_hits).sum::<u64>() > 0,
        "the warm recursion must be served from disk"
    );
    assert_eq!(
        render(&cold),
        render(&warm),
        "a warm run emits byte-identical networks"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

mod props {
    use super::*;
    use proptest::prelude::*;

    /// Small random single-output AIGs (same shape as the budget
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
        aig.add_output("f", f);
        aig
    }

    fn arb_ops() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
        proptest::collection::vec((0u8..4, 0usize..64, 0usize..64), 8..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Every network synthesized from a random cone is SAT-verified
        /// equivalent to the original output — including constant and
        /// single-literal degenerate cones — and drives its leaves to
        /// the target support whenever the BDD fallback is in reach.
        #[test]
        fn random_cones_synthesize_to_equivalent_networks(ops in arb_ops()) {
            let aig = build_random(&ops, 6);
            let service = StepService::spawn_with_store(2, Arc::new(TieredStore::memory(Some(Arc::new(ResultCache::new())), None)));
            let driver = SynthDriver::new(
                &service,
                DecompConfig::new(Model::QbfDisjoint),
                SynthOptions::default(),
            );
            let out = driver.synthesize(&aig, 0).expect("run");
            prop_assert!(out.stats.verified);
            prop_assert!(network_equivalent(&aig, 0, &out.tree, None).is_ok());
            prop_assert!(
                out.tree.max_leaf_support() <= 2,
                "6-var cones are always within BDD-fallback reach:\n{}",
                out.tree.render()
            );
        }
    }
}
