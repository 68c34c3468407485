//! synth_recursion: closed-loop, in-process multi-level synthesis of
//! the full-scale registry stand-ins — `SynthDriver` on a one-worker
//! `StepService` with the result cache, the clause bank and a disk
//! store tier, as `step synthesize --clause-reuse --jobs 1 --cache-dir`
//! runs it (model QD, per-node budget `work:20k`, verification and
//! the BDD fallback on).
//!
//! One recursion produces thousands of small frontier probes; most hit
//! the result cache, most misses get clause-bank hits, and every miss
//! writes a cache entry and a bank donation — so the reuse layers are
//! written here and only read on twin_served.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use step_aig::Aig;
use step_core::{
    Artifact, ArtifactStore, Budget, ClauseBank, DecompConfig, Model, Namespace, ResultCache,
    StepService, TieredStore, TreeNode,
};
use step_synth::{network_equivalent, SynthDriver, SynthOptions, SynthOutput};

use crate::trace::Tracer;
use crate::util::{cpu_seconds, mean, median, peak_rss_mb, quantile};
use crate::{gen, EndToEnd, Layers, Opts, Outcome};

/// Stand-ins one second of the measured phase holds on the reference
/// machine (2-vCPU x86-64 virtual machine; all 17 make one pass of about
/// 5 s): sizes the input set from `--seconds`.
const CIRCUITS_PER_SECOND: f64 = 1.7;
const ALL_CIRCUITS: usize = 17;
/// Extra set-ups before the passes; with each pass's own set-up they
/// give the median `setup_s`.
const SETUP_REPS: usize = 5;
/// Outputs of support up to this are the "low" latency class.
const LOW_SUPPORT: usize = 12;

fn config() -> DecompConfig {
    let mut config = DecompConfig::new(Model::QbfDisjoint);
    config.clause_reuse = true;
    config.budget.per_qbf_call = Budget::Unlimited;
    config
}

fn options(verify: bool) -> SynthOptions {
    SynthOptions {
        per_node: Budget::Work(20_000),
        verify,
        ..SynthOptions::default()
    }
}

/// A freshly set-up system: parsed circuits and a service over a new
/// store (cache, bank, empty disk tier in `dir`) that has finished one
/// warm-up synthesis.
struct System {
    circuits: Vec<Aig>,
    store: Arc<TieredStore>,
    service: StepService,
    load_s: f64,
}

fn setup(texts: &[String], dir: &Path, t: &mut Tracer) -> Result<System, String> {
    let circuits: Vec<Aig> = t.span("aig.parse", 0, |_| {
        texts.iter().map(|x| gen::parse(x)).collect()
    });
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let store = TieredStore::with_disk(
        Some(Arc::new(ResultCache::new())),
        Some(Arc::new(ClauseBank::new())),
        dir,
    )
    .map_err(|e| format!("store {}: {e}", dir.display()))?;
    let load_s = start.elapsed().as_secs_f64();
    let store = Arc::new(store);
    let service = StepService::spawn_with_store(1, Arc::clone(&store));
    let warmup = gen::parse(&gen::warmup());
    SynthDriver::new(&service, config(), options(true))
        .synthesize(&warmup, 0)
        .map_err(|e| format!("warm-up synthesis: {e}"))?;
    Ok(System {
        circuits,
        store,
        service,
        load_s,
    })
}

/// One synthesized output with its wall time.
struct Synth {
    circuit: usize,
    out: SynthOutput,
    seconds: f64,
}

/// The original-input support of a network node.
fn support(n: &TreeNode) -> BTreeSet<usize> {
    match n {
        TreeNode::Leaf { inputs, .. } => inputs.iter().copied().collect(),
        TreeNode::Gate { left, right, .. } => &support(left) | &support(right),
    }
}

/// `k_combined` of every two-input gate: `|XC| + ||XA| − |XB||` with
/// `XC` the inputs both sides read.
fn gate_ks(n: &TreeNode, ks: &mut Vec<f64>) {
    if let TreeNode::Gate { left, right, .. } = n {
        let (l, r) = (support(left), support(right));
        let shared = l.intersection(&r).count();
        let (a, b) = (l.len() - shared, r.len() - shared);
        ks.push((shared + a.abs_diff(b)) as f64);
        gate_ks(left, ks);
        gate_ks(right, ks);
    }
}

/// Results the pass's store holds: `(definitive, proved optimal)`.
fn stored_results(store: &TieredStore) -> (u64, u64) {
    let (mut stored, mut optimal) = (0, 0);
    store.scan(&Namespace::results(&config()), &mut |_, a| {
        if let Artifact::Result(r) = a {
            stored += 1;
            optimal += u64::from(r.proved_optimal);
        }
    });
    (stored, optimal)
}

/// The per-pass figures that must repeat exactly.
#[derive(Clone, Debug, PartialEq)]
struct Counts {
    conflicts: u64,
    and_gates: u64,
    expanded: u64,
    ks: Vec<u64>,
    stored: u64,
    optimal: u64,
    networks: Vec<String>,
}

struct Pass {
    synths: Vec<Synth>,
    wall: f64,
    cpu: f64,
    flush_s: f64,
    counts: Counts,
}

/// Synthesizes every output of every circuit once, then flushes the
/// store as the CLI does at exit.
fn pass(sys: &System, verify_inside: bool, t: &mut Tracer) -> Result<Pass, String> {
    let driver = SynthDriver::new(&sys.service, config(), options(verify_inside));
    // The warm-up's results are already stored; count only this pass's.
    let (warm_stored, warm_optimal) = stored_results(&sys.store);
    let cpu0 = cpu_seconds("self");
    let start = Instant::now();
    let mut synths = Vec::new();
    for (c, aig) in sys.circuits.iter().enumerate() {
        for o in 0..aig.num_outputs() {
            let began = Instant::now();
            let out = t
                .span("synth", synths.len() as u64, |_| driver.synthesize(aig, o))
                .map_err(|e| format!("circuit {c} output {o}: {e}"))?;
            if !verify_inside {
                let req = synths.len() as u64;
                t.span("synth.verify", req, |_| {
                    network_equivalent(aig, o, &out.tree, None)
                })
                .map_err(|e| format!("circuit {c} output {o}: {e}"))?;
            }
            synths.push(Synth {
                circuit: c,
                out,
                seconds: began.elapsed().as_secs_f64(),
            });
        }
    }
    let flush_start = Instant::now();
    sys.store.flush().map_err(|e| format!("store flush: {e}"))?;
    let flush_s = flush_start.elapsed().as_secs_f64();
    let wall = start.elapsed().as_secs_f64();
    let cpu = cpu_seconds("self") - cpu0;
    let (stored, optimal) = stored_results(&sys.store);
    let (stored, optimal) = (stored - warm_stored, optimal - warm_optimal);
    let mut ks = Vec::new();
    for s in &synths {
        let mut k = Vec::new();
        gate_ks(&s.out.tree.root, &mut k);
        ks.extend(k.into_iter().map(|x| x as u64));
    }
    let counts = Counts {
        conflicts: synths.iter().map(|s| s.out.stats.effort.conflicts).sum(),
        and_gates: synths
            .iter()
            .map(|s| s.out.tree.to_aig().compact().and_count() as u64)
            .sum(),
        expanded: synths.iter().map(|s| s.out.stats.nodes_expanded).sum(),
        ks,
        stored,
        optimal,
        networks: synths.iter().map(|s| s.out.tree.render()).collect(),
    };
    Ok(Pass {
        synths,
        wall,
        cpu,
        flush_s,
        counts,
    })
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let dir: PathBuf = opts
        .work_dir
        .join(format!("synth-{}-{}", opts.seed, std::process::id()));
    let result = run_in(opts, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(opts: &Opts, dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let count = ((opts.seconds * CIRCUITS_PER_SECOND).round() as usize).clamp(2, ALL_CIRCUITS);
    let texts = gen::synth_circuits(opts.seed, count);
    let mut off = Tracer::new(false);

    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let sys = setup(&texts, &dir.join(format!("setup{rep}")), &mut off)?;
        setups.push(start.elapsed().as_secs_f64());
        sys.service.shutdown();
    }

    // Measured phase: whole passes, each on a freshly set-up system so
    // every pass starts from the same empty reuse layers.
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let start = Instant::now();
        let sys = setup(&texts, &dir.join(format!("pass{}", passes.len())), &mut off)?;
        setups.push(start.elapsed().as_secs_f64());
        let p = pass(&sys, true, &mut off)?;
        sys.service.shutdown();
        let wall = p.wall;
        passes.push(p);
        let used = started.elapsed().as_secs_f64();
        if opts.trace || used + wall > opts.seconds * 1.1 {
            break;
        }
    }

    let first = &passes[0];
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.counts != first.counts {
            out.mismatch(format!("pass {i}: counts differ from pass 0"));
        }
    }
    // Every network is checked against its cone by the benchmark too.
    for (i, s) in first.synths.iter().enumerate() {
        out.attempted += 1;
        let aig = &gen::parse(&texts[s.circuit]);
        if let Err(e) = network_equivalent(aig, s.out.output_index, &s.out.tree, None) {
            out.failed += 1;
            out.mismatch(format!(
                "circuit {} output {} (#{i}): network check failed: {e}",
                s.circuit, s.out.name
            ));
        }
    }

    let c = &first.counts;
    let misses: u64 = first.synths.iter().map(|s| s.out.stats.cache_misses).sum();
    let lat = |low: bool| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| &p.synths)
            .filter(|s| (s.out.support <= LOW_SUPPORT) == low)
            .map(|s| s.seconds)
            .collect()
    };
    let (low, high) = (lat(true), lat(false));
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| -> f64 { median(&passes.iter().map(f).collect::<Vec<_>>()) };
    let outputs = first.synths.len() as f64;
    let e2e = EndToEnd {
        setup_s: median(&setups),
        peak_rss_mb: peak_rss_mb("self"),
        ok_share: (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        cones_per_s: per_pass(&|p| c.expanded as f64 / p.wall),
        cones_per_cpu_s: per_pass(&|p| c.expanded as f64 / p.cpu),
        solved_share: c.stored as f64 / misses.max(1) as f64,
        optimal_share: c.optimal as f64 / misses.max(1) as f64,
        k_mean: mean(&c.ks.iter().map(|&k| k as f64).collect::<Vec<_>>()),
        conflicts: c.conflicts as f64,
        and_gates: c.and_gates as f64,
        latency_p50_low: median(&low),
        latency_p90_low: quantile(&low, 0.9),
        latency_p50_high: median(&high),
        latency_p90_high: quantile(&high, 0.9),
        max_rps: per_pass(&|p| outputs / p.wall),
    };
    eprintln!(
        "synth_recursion: {count} circuits, {} outputs ({} of support <= {LOW_SUPPORT}), \
         {} frontier cones, {} pass(es) of {:.3} s",
        first.synths.len(),
        low.len() / passes.len(),
        c.expanded,
        passes.len(),
        first.wall
    );
    if !opts.trace {
        e2e.report(&mut out.report);
        return Ok(out);
    }

    // Traced pass: synthesize with verification off, then run the same
    // equivalence check from here, each in its own span.
    let mut t = Tracer::new(true);
    let sys = setup(&texts, &dir.join("traced"), &mut t)?;
    let traced = pass(&sys, false, &mut t)?;
    sys.service.shutdown();
    if traced.counts != first.counts {
        out.mismatch("traced pass: networks or counts differ from the untraced pass".into());
    }
    let stats: Vec<_> = traced.synths.iter().map(|s| s.out.stats).collect();
    let sum = |f: &dyn Fn(&step_synth::SynthStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (hits, misses) = (sum(&|s| s.cache_hits), sum(&|s| s.cache_misses));
    let bank_hits = sum(&|s| s.bank_hits);
    let layers = Layers {
        parse_busy_s: t.busy("aig.parse"),
        store_lookups: hits + misses,
        store_hit_share: ratio(hits, hits + misses),
        store_disk_hit_share: ratio(sum(&|s| s.disk_hits), hits + misses),
        store_inserts: traced.counts.stored as f64,
        store_load_s: sys.load_s,
        store_flush_s: traced.flush_s,
        bank_hit_share: ratio(bank_hits, misses),
        bank_hits,
        bank_donated_clauses: sum(&|s| s.donated_clauses),
        synth_busy_s: t.busy("synth"),
        synth_verify_s: t.busy("synth.verify"),
        synth_nodes_expanded: sum(&|s| s.nodes_expanded),
        synth_bdd_splits: sum(&|s| s.bdd_splits),
        synth_cache_hit_share: ratio(hits, hits + misses),
        trace_overhead_s: traced.wall - first.wall,
        ..Layers::default()
    };
    if hits == 0.0 || bank_hits == 0.0 {
        out.mismatch(format!(
            "purpose check: synth_recursion saw {hits} cache hits and {bank_hits} bank hits \
             (need both nonzero)"
        ));
    }
    let path = opts
        .work_dir
        .join(format!("trace-synth_recursion-{}.jsonl", opts.seed));
    if let Err(e) = t.write_jsonl(&path) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    eprintln!(
        "synth_recursion traced: untraced pass {:.3} s, traced pass {:.3} s",
        first.wall, traced.wall
    );
    layers.report(&mut out.report);
    Ok(out)
}
