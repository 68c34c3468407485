//! Criterion kernel for Table III: per-model decomposition runtime on
//! a smoke-scale stand-in (LJH vs STEP-MG vs STEP-QD). The `table3`
//! binary prints the full table.

use criterion::{criterion_group, criterion_main, Criterion};
use step_bench::{run_model, HarnessOpts};
use step_circuits::{registry_table1, Scale};
use step_core::{BudgetPolicy, GateOp, Model};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table3_performance");
    g.sample_size(10);
    let entry = registry_table1()
        .into_iter()
        .find(|e| e.name == "C880")
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
    for model in [Model::Ljh, Model::MusGroup, Model::QbfDisjoint] {
        g.bench_function(format!("C880_{model}"), |b| {
            b.iter(|| {
                let r = run_model(&entry, model, &opts);
                criterion::black_box(r.num_decomposed());
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
