//! Criterion kernel for Table IV: the solved-PO ratio of the QBF
//! models under per-call budgets, on a smoke-scale stand-in. The
//! `table4` binary prints the full table.

use criterion::{criterion_group, criterion_main, Criterion};
use step_bench::{run_model, HarnessOpts};
use step_circuits::{registry_table1, Scale};
use step_core::{BudgetPolicy, GateOp, Model};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table4_solved");
    g.sample_size(10);
    let entry = registry_table1()
        .into_iter()
        .find(|e| e.name == "sbc")
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
    for model in [Model::QbfDisjoint, Model::QbfBalanced, Model::QbfCombined] {
        g.bench_function(format!("sbc_solved_ratio_{model}"), |b| {
            b.iter(|| {
                let r = run_model(&entry, model, &opts);
                criterion::black_box(r.solved_ratio());
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
