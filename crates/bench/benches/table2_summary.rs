//! Criterion kernel for Table II: the cross-operator aggregate
//! (STEP-MG vs STEP-QD over OR/AND/XOR) on a smoke-scale stand-in.
//! The `table2` binary prints the full table.

use criterion::{criterion_group, criterion_main, Criterion};
use step_bench::{run_model_op, HarnessOpts, QualityAggregate, QualityMetric};
use step_circuits::{registry_table1, Scale};
use step_core::{BudgetPolicy, GateOp, Model};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2_summary");
    g.sample_size(10);
    let entry = registry_table1()
        .into_iter()
        .find(|e| e.name == "mm9a")
        .expect("registry row");
    let opts = HarnessOpts {
        scale: Scale::Smoke,
        budget: BudgetPolicy::quick(),
        op: GateOp::Or,
        filter: None,
        partitions_only: true,
        jobs: 1,
        ..HarnessOpts::default()
    };
    g.bench_function("mm9a_all_ops_mg_vs_qd", |b| {
        b.iter(|| {
            let mut agg = QualityAggregate::default();
            for op in GateOp::ALL {
                let mg = run_model_op(&entry, Model::MusGroup, op, &opts);
                let qd = run_model_op(&entry, Model::QbfDisjoint, op, &opts);
                agg.add(&qd, &mg, QualityMetric::Disjointness);
            }
            let (better, equal) = agg.percentages();
            assert!(better + equal > 99.9);
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
