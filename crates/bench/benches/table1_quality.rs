//! Criterion kernel for Table I: the per-circuit quality comparison
//! (STEP-QD vs STEP-MG on disjointness) on a smoke-scale stand-in.
//! The `table1` binary prints the full table.

use criterion::{criterion_group, criterion_main, Criterion};
use step_bench::{compare_quality, run_model, HarnessOpts, QualityMetric};
use step_circuits::{registry_table1, Scale};
use step_core::{BudgetPolicy, Model};

fn opts() -> HarnessOpts {
    HarnessOpts {
        scale: Scale::Smoke,
        budget: BudgetPolicy::quick(),
        op: step_core::GateOp::Or,
        filter: None,
        partitions_only: true,
        jobs: 1,
        ..HarnessOpts::default()
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_quality");
    g.sample_size(10);
    let entry = registry_table1()
        .into_iter()
        .find(|e| e.name == "mm9b")
        .expect("registry row");
    let o = opts();
    g.bench_function("mm9b_qd_vs_mg_disjointness", |b| {
        b.iter(|| {
            let mg = run_model(&entry, Model::MusGroup, &o);
            let qd = run_model(&entry, Model::QbfDisjoint, &o);
            let (better, equal) = compare_quality(&qd, &mg, QualityMetric::Disjointness);
            assert!(better + equal > 99.9);
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
