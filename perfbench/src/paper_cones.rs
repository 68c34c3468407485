//! paper_cones: closed-loop, in-process decomposition of seeded wide
//! cones — the workload where solving dominates and nothing is shared
//! (every cone is unique, so reuse layers are bypassed).
//!
//! The engine runs each circuit the way `step` does with `--model qdb
//! --op or --jobs 1 --budget work:20k` (the QBF-call and circuit scopes
//! lifted to unlimited, result cache on): one `decompose_output` call
//! per output, the calls `decompose_circuit` makes on its one-worker
//! inline path, so each cone's own CPU time can be read.

use std::sync::Arc;
use std::time::Instant;

use step_aig::Aig;
use step_core::{
    verify, BiDecomposer, BudgetPolicy, DecompConfig, GateOp, Model, OutputResult, ResultCache,
    TieredStore,
};

use crate::replay::{replay_output, Replayed};
use crate::trace::Tracer;
use crate::util::{
    cpu_seconds, mean, median, peak_rss_mb, quantile, reset_peak_rss, thread_cpu_seconds,
};
use crate::{gen, EndToEnd, Layers, Opts, Outcome};

pub const OP: GateOp = GateOp::Or;
const PER_CIRCUIT: usize = 3;
/// Cones one second of the measured phase holds on the reference
/// machine (2-vCPU x86-64 virtual machine): sizes the input set from
/// `--seconds`, so the set depends on the arguments alone.
const CONES_PER_SECOND: f64 = 1.2;
/// Set-up is repeated this often and its median reported.
const SETUP_REPS: usize = 15;

/// The engine configuration: QDB under a pure 20k-conflict budget
/// per output, one worker.
pub fn config() -> DecompConfig {
    let mut config = DecompConfig::new(Model::QbfCombined);
    config.budget = BudgetPolicy::work(20_000);
    config.jobs = 1;
    config
}

fn engine() -> BiDecomposer {
    let mut engine = BiDecomposer::new(config());
    engine.set_cache(Arc::new(ResultCache::new()));
    engine
}

/// Number of circuits for a measured phase of `seconds`.
fn circuits_for(seconds: f64) -> usize {
    ((seconds * CONES_PER_SECOND) / PER_CIRCUIT as f64)
        .round()
        .max(1.0) as usize
}

/// One decomposed cone, as the untraced pass saw it.
struct Cone {
    circuit: usize,
    result: OutputResult,
    /// CPU seconds of its `decompose_output` call.
    cpu: f64,
}

/// Decomposes every circuit once; returns the cones and the pass's
/// wall and CPU seconds.
fn pass(engine: &BiDecomposer, circuits: &[Aig], out: &mut Outcome) -> (Vec<Cone>, f64, f64) {
    let cpu0 = cpu_seconds("self");
    let start = Instant::now();
    let mut cones = Vec::new();
    for (c, aig) in circuits.iter().enumerate() {
        for o in 0..aig.num_outputs() {
            let began = thread_cpu_seconds();
            match engine.decompose_output(aig, o, OP) {
                Ok(result) => cones.push(Cone {
                    circuit: c,
                    result,
                    cpu: thread_cpu_seconds() - began,
                }),
                Err(e) => out.mismatch(format!("circuit {c} output {o}: engine error {e}")),
            }
        }
    }
    (
        cones,
        start.elapsed().as_secs_f64(),
        cpu_seconds("self") - cpu0,
    )
}

/// AND nodes of a decomposition's two halves.
fn and_gates(r: &OutputResult) -> u64 {
    r.decomposition.as_ref().map_or(0, |d| {
        (d.aig.cone(d.fa).aig.and_count() + d.aig.cone(d.fb).aig.and_count()) as u64
    })
}

/// Re-verifies one result; `None` when it holds.
fn check(cone: &Cone) -> Option<String> {
    let r = &cone.result;
    let what = format!("circuit {} output {}", cone.circuit, r.name);
    match (&r.partition, &r.decomposition) {
        (None, None) => None,
        (Some(p), Some(d)) if d.partition == *p => match verify(d, None) {
            Ok(()) => None,
            Err(e) => Some(format!("{what}: decomposition fails re-verification: {e}")),
        },
        (Some(_), None) if r.timed_out => None,
        _ => Some(format!("{what}: partition and decomposition disagree")),
    }
}

/// The count metrics of one pass, which must repeat exactly.
fn counts(cones: &[Cone]) -> (u64, u64, u64, Vec<usize>, u64) {
    let solved = cones.iter().filter(|c| c.result.solved).count() as u64;
    let optimal = cones.iter().filter(|c| c.result.proved_optimal).count() as u64;
    let conflicts = cones.iter().map(|c| c.result.effort.conflicts).sum();
    let ks = cones
        .iter()
        .filter_map(|c| c.result.partition.as_ref().map(|p| p.k_combined()))
        .collect();
    let gates = cones.iter().map(|c| and_gates(&c.result)).sum();
    (solved, optimal, conflicts, ks, gates)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let texts = gen::paper_cones(
        opts.family,
        opts.seed,
        circuits_for(opts.seconds),
        PER_CIRCUIT,
    );
    let warmup = gen::parse(&gen::warmup());

    // Set-up: parse the netlists, build the engine, one warm-up solve.
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let circuits: Vec<Aig> = texts.iter().map(|t| gen::parse(t)).collect();
        let engine = engine();
        let _ = engine.decompose_output(&warmup, 0, OP);
        setups.push(start.elapsed().as_secs_f64());
        prepared = Some((circuits, engine));
    }
    let (circuits, mut engine) = prepared.expect("at least one set-up");
    // Peak memory of the measured phase only: the repeated set-ups
    // leave a heap whose layout, not size, differs from run to run.
    reset_peak_rss();

    // Measured phase: whole passes until the time is used (at least
    // one); a fresh engine per pass keeps every pass cold.
    let budget = opts.seconds;
    let started = Instant::now();
    let mut passes = Vec::new();
    loop {
        let (cones, wall, cpu) = pass(&engine, &circuits, &mut out);
        passes.push((cones, wall, cpu));
        let used = started.elapsed().as_secs_f64();
        if opts.trace || used + wall > budget * 1.1 {
            break;
        }
        engine = self::engine();
    }

    let first = &passes[0].0;
    let expected = counts(first);
    for (i, (cones, _, _)) in passes.iter().enumerate().skip(1) {
        if counts(cones) != expected {
            out.mismatch(format!("pass {i}: counts differ from pass 0"));
        }
    }
    for (cones, _, _) in &passes {
        for cone in cones {
            out.attempted += 1;
            if let Some(m) = check(cone) {
                out.failed += 1;
                out.mismatch(m);
            }
        }
    }

    let n = first.len() as f64;
    let (solved, optimal, conflicts, ks, gates) = expected;
    let latencies = |narrow: bool| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|(cones, _, _)| cones)
            .filter(|c| (c.result.support <= gen::PAPER_NARROW.1) == narrow)
            .map(|c| c.cpu)
            .collect()
    };
    let (low, high) = (latencies(true), latencies(false));
    let per_pass = |f: &dyn Fn(f64, f64) -> f64| -> f64 {
        median(&passes.iter().map(|(_, w, c)| f(*w, *c)).collect::<Vec<_>>())
    };
    let e2e = EndToEnd {
        setup_s: median(&setups),
        peak_rss_mb: peak_rss_mb("self"),
        ok_share: (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        cones_per_s: per_pass(&|w, _| n / w),
        cones_per_cpu_s: per_pass(&|_, c| n / c),
        solved_share: solved as f64 / n,
        optimal_share: optimal as f64 / n,
        k_mean: mean(&ks.iter().map(|&k| k as f64).collect::<Vec<_>>()),
        conflicts: conflicts as f64,
        and_gates: gates as f64,
        latency_p50_low: median(&low),
        latency_p90_low: quantile(&low, 0.9),
        latency_p50_high: median(&high),
        latency_p90_high: quantile(&high, 0.9),
        max_rps: per_pass(&|w, _| circuits.len() as f64 / w),
    };
    eprintln!(
        "paper_cones: {} circuits, {} cones ({} narrow, {} wide), {} pass(es)",
        circuits.len(),
        first.len(),
        low.len() / passes.len(),
        high.len() / passes.len(),
        passes.len()
    );

    if opts.trace {
        let layers = traced_replay(opts, &circuits, first, passes[0].1, &mut out);
        layers.report(&mut out.report);
    } else {
        e2e.report(&mut out.report);
    }
    out
}

/// Replays every cone through the per-layer calls and checks each
/// answer against the untraced pass.
fn traced_replay(
    opts: &Opts,
    circuits: &[Aig],
    untraced: &[Cone],
    untraced_wall: f64,
    out: &mut Outcome,
) -> Layers {
    let config = config();
    let store = TieredStore::memory(Some(Arc::new(ResultCache::new())), None);
    let mut t = Tracer::new(true);
    let start = Instant::now();
    let mut replays: Vec<Replayed> = Vec::new();
    for aig in circuits {
        for o in 0..aig.num_outputs() {
            let req = replays.len() as u64;
            replays.push(replay_output(
                aig,
                o,
                OP,
                &config,
                Some(&store),
                &mut t,
                req,
            ));
        }
    }
    let traced_wall = start.elapsed().as_secs_f64();
    for (cone, r) in untraced.iter().zip(&replays) {
        let u = &cone.result;
        let same = u.partition.as_ref().map(|p| p.classes())
            == r.partition.as_ref().map(|p| p.classes())
            && u.solved == r.solved
            && u.proved_optimal == r.proved_optimal
            && u.timed_out == r.timed_out
            && u.effort.conflicts == r.effort.conflicts;
        if !same {
            out.mismatch(format!(
                "circuit {} output {}: traced replay differs (conflicts {} vs {})",
                cone.circuit, u.name, u.effort.conflicts, r.effort.conflicts
            ));
        }
        if let Some(e) = &r.error {
            out.mismatch(format!("circuit {} output {}: {e}", cone.circuit, u.name));
        }
    }
    if untraced.len() != replays.len() {
        out.mismatch("traced replay saw a different number of cones".into());
    }
    let refs: Vec<&Replayed> = replays.iter().collect();
    let mut layers = Layers::from_replays(&t, &refs);
    layers.trace_overhead_s = traced_wall - untraced_wall;
    if layers.solver_self_share <= 0.5 {
        out.mismatch(format!(
            "purpose check: core::mg + core::optimum hold {:.3} of paper_cones self time (need most)",
            layers.solver_self_share
        ));
    }
    let path = opts
        .work_dir
        .join(format!("trace-paper_cones-{}.jsonl", opts.seed));
    if let Err(e) = t.write_jsonl(&path) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    eprintln!(
        "paper_cones traced: untraced pass {untraced_wall:.3} s, traced replay {traced_wall:.3} s"
    );
    layers
}
