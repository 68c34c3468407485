//! Criterion kernel for Figure 1: all five models timed on one
//! smoke-scale circuit (the figure's per-circuit runtime points). The
//! `fig1` binary sweeps all 145 circuits and draws the scatter plots.

use criterion::{criterion_group, criterion_main, Criterion};
use step_bench::{run_model, HarnessOpts};
use step_circuits::{registry_all, Scale};
use step_core::{BudgetPolicy, GateOp, Model};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1_runtimes");
    g.sample_size(10);
    let entry = registry_all()
        .into_iter()
        .find(|e| e.name == "small001")
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
    for model in Model::ALL {
        g.bench_function(format!("small001_{model}"), |b| {
            b.iter(|| {
                let r = run_model(&entry, model, &opts);
                criterion::black_box(r.cpu);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
