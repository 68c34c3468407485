//! Regenerates **Figure 1**: CPU-time scatter plots between models over
//! the full 145-circuit population — LJH vs STEP-{QD,QB,QDB} (top row)
//! and STEP-MG vs STEP-{QD,QB,QDB} (bottom row).
//!
//! Prints a CSV of per-circuit runtimes followed by six ASCII log-log
//! scatter panels.
//!
//! Usage: `fig1 [--scale smoke|default|full] [--op ...]
//! [--budget <spec>] [--circuit-budget <spec>] [--qbf-budget <spec>]
//! [--jobs n] [--seed n] [--no-cache] [--cache-cap n]`
//!
//! `--budget work:<n>` makes the sweep's verdicts (not the plotted
//! wall clocks) machine-independent — see the README's "Budgets and
//! determinism" section.
//!
//! The 145-circuit × 5-model product is sharded over one shared
//! [`StepService`](step_core::StepService) with `--jobs` workers and
//! one result cache (circuits submitted through a bounded look-ahead
//! window); CSV rows print in registry order as their submissions
//! complete, and per-run hit/miss counts land in the JSON records
//! together with the seed/jobs/op/cache provenance.
//! Answers are deterministic for any `--jobs`; the per-record work
//! counters are scheduling-dependent under `--jobs > 1` — use
//! `--jobs 1` when diffing those across commits.

use step_bench::{ascii_scatter, submit_sweep_entry, write_bench_json, BenchRecord, HarnessOpts};
use step_circuits::registry_all;
use step_core::Model;
use step_serve::flag::finish_store;

/// Machine-readable mirror of the CSV (perf trajectory).
const JSON_OUT: &str = "BENCH_fig1.json";

fn main() {
    let mut opts = HarnessOpts::from_args();
    // Figure 1 sweeps 145 circuits; default to the cheap partition-only
    // mode so the full sweep stays tractable.
    opts.partitions_only = true;
    let entries = opts.selected(registry_all());

    println!(
        "# FIGURE 1 data: per-circuit CPU seconds per model ({} circuits)",
        entries.len()
    );
    println!("circuit,ljh,mg,qd,qb,qdb");

    // Shard the model × circuit product over one service with a
    // bounded submit-ahead window (the 145-circuit corpus would
    // otherwise be resident all at once).
    let service = opts.service();
    let window = opts.jobs.saturating_mul(2).max(4).min(entries.len());
    let mut pending: std::collections::VecDeque<_> = Vec::new().into();
    let mut next_submit = 0usize;

    let mut rows: Vec<(String, [f64; 5])> = Vec::with_capacity(entries.len());
    let mut records: Vec<BenchRecord> = Vec::new();
    for entry in &entries {
        while next_submit < entries.len() && pending.len() < window {
            pending.push_back(submit_sweep_entry(&service, &entries[next_submit], &opts));
            next_submit += 1;
        }
        let handles = pending.pop_front().expect("window stays primed");
        let runs = handles.map(|h| h.join().expect("stand-in circuits are well-formed"));
        let times = [
            runs[0].cpu.as_secs_f64(),
            runs[1].cpu.as_secs_f64(),
            runs[2].cpu.as_secs_f64(),
            runs[3].cpu.as_secs_f64(),
            runs[4].cpu.as_secs_f64(),
        ];
        for (m, r) in Model::ALL.iter().zip(&runs) {
            records.push(BenchRecord::of(
                *m,
                &opts.circuit_label(entry.name),
                r,
                &opts,
            ));
        }
        println!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4}",
            entry.name, times[0], times[1], times[2], times[3], times[4]
        );
        rows.push((entry.name.to_owned(), times));
    }

    let panel = |y_idx: usize, x_idx: usize, title: &str| {
        let pts: Vec<(f64, f64)> = rows.iter().map(|(_, t)| (t[x_idx], t[y_idx])).collect();
        println!("\n{}", ascii_scatter(&pts, title));
    };
    // x-axis = STEP-Q*, y-axis = baseline, matching the paper's panels.
    panel(0, 2, "LJH (y) vs STEP-QD (x)");
    panel(0, 3, "LJH (y) vs STEP-QB (x)");
    panel(0, 4, "LJH (y) vs STEP-QDB (x)");
    panel(1, 2, "STEP-MG (y) vs STEP-QD (x)");
    panel(1, 3, "STEP-MG (y) vs STEP-QB (x)");
    panel(1, 4, "STEP-MG (y) vs STEP-QDB (x)");

    // Headline shape statistics.
    let geo = |idx: usize| -> f64 {
        let s: f64 = rows.iter().map(|(_, t)| (t[idx].max(1e-6)).ln()).sum();
        (s / rows.len().max(1) as f64).exp()
    };
    println!(
        "geometric-mean CPU(s): LJH {:.4}  MG {:.4}  QD {:.4}  QB {:.4}  QDB {:.4}",
        geo(0),
        geo(1),
        geo(2),
        geo(3),
        geo(4)
    );
    println!("expected shape (paper): MG fastest, LJH slowest, QD/QB/QDB between them");
    eprint!("{}", finish_store(&opts.store));
    write_bench_json(JSON_OUT, &records);
}
