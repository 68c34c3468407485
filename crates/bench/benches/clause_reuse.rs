//! Cross-output clause reuse benchmarks.
//!
//! The workload is the twin-heavy population `gen_circuit --copies
//! --shared-substructure` plants: permuted copies (identical canonical
//! cones — the exact channel reuses these verbatim) and
//! near-twins (same support, shared subcones, different fingerprint —
//! served by the vetted cluster channel). Runs are uncached so the
//! measurement isolates the clause bank from the result cache, which
//! would otherwise serve the exact twins first.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use step_aig::Aig;
use step_circuits::{registry_all, with_permuted_copies, with_shared_substructure, Scale};
use step_core::{BiDecomposer, ClauseBank, DecompConfig, GateOp, Model, TieredStore};

/// The CI smoke circuit at smoke scale, grown with both twin
/// populations.
fn twin_heavy() -> Aig {
    let entry = registry_all()
        .into_iter()
        .find(|e| e.name == "s15850.1")
        .expect("registry carries the smoke circuit");
    let base = entry.build(Scale::Smoke);
    with_shared_substructure(&with_permuted_copies(&base, 2), 2)
}

/// One uncached whole-circuit run; `bank` attaches a shared clause
/// bank (reuse is on whenever one is given or `reuse` is set).
fn run(aig: &Aig, reuse: bool, bank: Option<Arc<ClauseBank>>) {
    let mut config = DecompConfig::new(Model::QbfDisjoint);
    config.extract = false;
    config.verify = false;
    config.clause_reuse = reuse;
    let mut engine = BiDecomposer::new(config);
    engine.set_store(Arc::new(TieredStore::memory(None, bank)));
    let r = engine
        .decompose_circuit(aig, GateOp::Or)
        .expect("stand-in circuits are well-formed");
    assert!(r.num_decomposed() > 0);
}

/// Reuse on vs off, fresh bank every iteration: what one cold
/// whole-circuit run gains from its own internal donations (exact and
/// cluster channels both start empty).
fn bench_reuse_on_vs_off(c: &mut Criterion) {
    let mut g = c.benchmark_group("clause_reuse");
    g.sample_size(10);
    let aig = twin_heavy();
    g.bench_function("reuse_off", |b| b.iter(|| run(&aig, false, None)));
    g.bench_function("reuse_on", |b| b.iter(|| run(&aig, true, None)));
    g.finish();
}

/// A bank pre-warmed by a priming run: every cone of the measured run
/// has an exact donor, the verbatim-import fast path a sweep's later
/// models (or repeated circuits) enjoy.
fn bench_warm_bank(c: &mut Criterion) {
    let mut g = c.benchmark_group("clause_reuse_warm_bank");
    g.sample_size(10);
    let aig = twin_heavy();
    let bank = Arc::new(ClauseBank::new());
    run(&aig, true, Some(bank.clone()));
    assert!(!bank.is_empty(), "the priming run must donate");
    g.bench_function("warm_bank", |b| {
        b.iter(|| run(&aig, true, Some(bank.clone())))
    });
    g.bench_function("cold", |b| b.iter(|| run(&aig, false, None)));
    g.finish();
}

criterion_group!(benches, bench_reuse_on_vs_off, bench_warm_bank);
criterion_main!(benches);
