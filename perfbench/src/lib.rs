//! The STEP benchmark: three workloads that each stress a different
//! set of layers (see README.md), an untraced run that reports the
//! end-to-end metrics and checks every answer, and a traced run that
//! calls each layer's public function itself, wraps every call in a
//! span and reports per-layer numbers.

pub mod gen;
pub mod paper_cones;
pub mod replay;
pub mod synth_recursion;
pub mod trace;
pub mod twin_served;
pub mod util;

use std::path::PathBuf;

use util::Report;

/// Settings of one benchmark run.
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    /// The function population the seed permutes (see [`gen`]); the
    /// held-out input set is family 1.
    pub family: u64,
    /// How long the measured phase should take; sizes each workload's
    /// inputs, so counts depend on it and on the seed only.
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout (stores, span logs).
    pub work_dir: PathBuf,
    /// The `step` executable twin_served serves from.
    pub step_bin: Option<PathBuf>,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    /// Operations that errored or failed their correctness check.
    pub failed: u64,
    /// One line per mismatch, printed by name.
    pub mismatches: Vec<String>,
}

impl Outcome {
    pub fn mismatch(&mut self, what: String) {
        eprintln!("MISMATCH: {what}");
        self.mismatches.push(what);
    }
}

/// The end-to-end metrics. Every workload reports all of them; the
/// README says what each means on each workload.
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub ok_share: f64,
    pub cones_per_s: f64,
    pub cones_per_cpu_s: f64,
    pub solved_share: f64,
    pub optimal_share: f64,
    pub k_mean: f64,
    pub conflicts: f64,
    pub and_gates: f64,
    pub latency_p50_low: f64,
    pub latency_p90_low: f64,
    pub latency_p50_high: f64,
    pub latency_p90_high: f64,
    pub max_rps: f64,
}

impl EndToEnd {
    pub fn report(&self, r: &mut Report) {
        r.put("setup_s", self.setup_s, "s");
        r.put("peak_rss_mb", self.peak_rss_mb, "MiB");
        r.put("ok_share", self.ok_share, "ratio");
        r.put("cones_per_s", self.cones_per_s, "cones/s");
        r.put("cones_per_cpu_s", self.cones_per_cpu_s, "cones/CPU-s");
        r.put("solved_share", self.solved_share, "ratio");
        r.put("optimal_share", self.optimal_share, "ratio");
        r.put("k_mean", self.k_mean, "count");
        r.put("conflicts", self.conflicts, "count");
        r.put("and_gates", self.and_gates, "count");
        r.put("latency_p50_s.low", self.latency_p50_low, "s");
        r.put("latency_p90_s.low", self.latency_p90_low, "s");
        r.put("latency_p50_s.high", self.latency_p50_high, "s");
        r.put("latency_p90_s.high", self.latency_p90_high, "s");
        r.put("max_rps", self.max_rps, "req/s");
    }
}

/// The per-layer metrics of the traced run. Every workload reports
/// all of them; a layer a workload does not reach reads 0.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub parse_busy_s: f64,
    pub cone_busy_s: f64,
    pub canonicalize_busy_s: f64,
    pub canonicalize_calls: f64,
    pub store_lookups: f64,
    pub store_hit_share: f64,
    pub store_disk_hit_share: f64,
    pub store_inserts: f64,
    pub store_lookup_busy_s: f64,
    pub store_load_s: f64,
    pub store_flush_s: f64,
    pub bank_hit_share: f64,
    pub bank_hits: f64,
    pub bank_donated_clauses: f64,
    pub sim_filter_s: f64,
    pub pairs_refuted_share: f64,
    pub oracle_build_s: f64,
    pub mg_busy_s: f64,
    pub mg_conflicts: f64,
    pub mg_sat_calls: f64,
    pub optimum_busy_s: f64,
    pub optimum_conflicts: f64,
    pub optimum_propagations: f64,
    pub optimum_qbf_calls: f64,
    pub optimum_timeouts: f64,
    pub optimum_cegar_iterations: f64,
    pub sat_conflicts_per_s: f64,
    pub sat_propagations_per_s: f64,
    pub extract_busy_s: f64,
    pub verify_busy_s: f64,
    pub queue_wait_p50_s: f64,
    pub queue_wait_p90_s: f64,
    pub serve_overhead_p50_s: f64,
    pub serve_frames: f64,
    pub serve_refused: f64,
    pub synth_busy_s: f64,
    pub synth_verify_s: f64,
    pub synth_nodes_expanded: f64,
    pub synth_bdd_splits: f64,
    pub synth_cache_hit_share: f64,
    pub loadgen_late_p99_s: f64,
    /// Traced wall time minus untraced wall time of the same work.
    pub trace_overhead_s: f64,
    /// Share of the traced self time spent in `core::mg` and
    /// `core::optimum` (the workload-purpose check reads it).
    pub solver_self_share: f64,
}

impl Layers {
    pub fn report(&self, r: &mut Report) {
        r.put("aig.parse.busy_s", self.parse_busy_s, "s");
        r.put("aig.cone.busy_s", self.cone_busy_s, "s");
        r.put("aig.canonicalize.busy_s", self.canonicalize_busy_s, "s");
        r.put("aig.canonicalize.calls", self.canonicalize_calls, "count");
        r.put("core.store.lookups", self.store_lookups, "count");
        r.put("core.store.hit_share", self.store_hit_share, "ratio");
        r.put(
            "core.store.disk_hit_share",
            self.store_disk_hit_share,
            "ratio",
        );
        r.put("core.store.inserts", self.store_inserts, "count");
        r.put("core.store.lookup_busy_s", self.store_lookup_busy_s, "s");
        r.put("core.store.load_s", self.store_load_s, "s");
        r.put("core.store.flush_s", self.store_flush_s, "s");
        r.put("core.clause_bank.hit_share", self.bank_hit_share, "ratio");
        r.put("core.clause_bank.hits", self.bank_hits, "count");
        r.put(
            "core.clause_bank.donated_clauses",
            self.bank_donated_clauses,
            "count",
        );
        r.put("core.oracle.sim_filter_s", self.sim_filter_s, "s");
        r.put(
            "core.oracle.pairs_refuted_share",
            self.pairs_refuted_share,
            "ratio",
        );
        r.put("core.oracle.build_s", self.oracle_build_s, "s");
        r.put("core.mg.busy_s", self.mg_busy_s, "s");
        r.put("core.mg.conflicts", self.mg_conflicts, "count");
        r.put("core.mg.sat_calls", self.mg_sat_calls, "count");
        r.put("core.optimum.busy_s", self.optimum_busy_s, "s");
        r.put("core.optimum.conflicts", self.optimum_conflicts, "count");
        r.put(
            "core.optimum.propagations",
            self.optimum_propagations,
            "count",
        );
        r.put("core.optimum.qbf_calls", self.optimum_qbf_calls, "count");
        r.put("core.optimum.timeouts", self.optimum_timeouts, "count");
        r.put(
            "core.optimum.cegar_iterations",
            self.optimum_cegar_iterations,
            "count",
        );
        r.put("sat.conflicts_per_s", self.sat_conflicts_per_s, "1/s");
        r.put("sat.propagations_per_s", self.sat_propagations_per_s, "1/s");
        r.put("core.extract.busy_s", self.extract_busy_s, "s");
        r.put("core.verify.busy_s", self.verify_busy_s, "s");
        r.put("core.service.queue_wait_s_p50", self.queue_wait_p50_s, "s");
        r.put("core.service.queue_wait_s_p90", self.queue_wait_p90_s, "s");
        r.put("serve.overhead_s_p50", self.serve_overhead_p50_s, "s");
        r.put("serve.frames", self.serve_frames, "count");
        r.put("serve.refused", self.serve_refused, "count");
        r.put("synth.busy_s", self.synth_busy_s, "s");
        r.put("synth.verify_s", self.synth_verify_s, "s");
        r.put("synth.nodes_expanded", self.synth_nodes_expanded, "count");
        r.put("synth.bdd_splits", self.synth_bdd_splits, "count");
        r.put("synth.cache_hit_share", self.synth_cache_hit_share, "ratio");
        r.put("loadgen.late_s_p99", self.loadgen_late_p99_s, "s");
        r.put("trace.overhead_s", self.trace_overhead_s, "s");
        r.put("trace.solver_self_share", self.solver_self_share, "ratio");
    }

    /// Fills the replay-derived layers from a traced replay: self
    /// times from the spans, effort and counts from the replays.
    pub fn from_replays(t: &trace::Tracer, replays: &[&replay::Replayed]) -> Layers {
        let selfs = t.self_seconds();
        let busy = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
        let total: f64 = selfs.values().sum();
        let sum =
            |f: &dyn Fn(&replay::Replayed) -> u64| replays.iter().map(|r| f(r)).sum::<u64>() as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let lookups = sum(&|r| u64::from(r.store_lookup));
        let solve_s = busy("core.mg") + busy("core.optimum");
        let conflicts = sum(&|r| r.mg_effort.conflicts + r.optimum_effort.conflicts);
        let propagations = sum(&|r| r.mg_effort.propagations + r.optimum_effort.propagations);
        Layers {
            parse_busy_s: busy("aig.parse"),
            cone_busy_s: busy("aig.cone"),
            canonicalize_busy_s: busy("aig.canonicalize"),
            canonicalize_calls: sum(&|r| u64::from(r.support >= 2)),
            store_lookups: lookups,
            store_hit_share: ratio(sum(&|r| u64::from(r.store_hit)), lookups),
            store_disk_hit_share: ratio(sum(&|r| u64::from(r.disk_hit)), lookups),
            store_inserts: sum(&|r| u64::from(r.store_insert)),
            store_lookup_busy_s: busy("core.store.lookup"),
            sim_filter_s: busy("core.oracle.sim_filter"),
            pairs_refuted_share: ratio(sum(&|r| r.pairs_refuted), sum(&|r| r.pairs)),
            oracle_build_s: busy("core.oracle.build"),
            mg_busy_s: busy("core.mg"),
            mg_conflicts: sum(&|r| r.mg_effort.conflicts),
            mg_sat_calls: sum(&|r| r.mg_sat_calls),
            optimum_busy_s: busy("core.optimum"),
            optimum_conflicts: sum(&|r| r.optimum_effort.conflicts),
            optimum_propagations: sum(&|r| r.optimum_effort.propagations),
            optimum_qbf_calls: sum(&|r| r.qbf_calls),
            optimum_timeouts: sum(&|r| r.timeouts),
            optimum_cegar_iterations: sum(&|r| r.cegar_iterations),
            sat_conflicts_per_s: ratio(conflicts, solve_s),
            sat_propagations_per_s: ratio(propagations, solve_s),
            extract_busy_s: busy("core.extract"),
            verify_busy_s: busy("core.verify"),
            solver_self_share: ratio(solve_s, total),
            ..Layers::default()
        }
    }
}

/// Runs `workload` under `opts`.
///
/// # Errors
///
/// An unknown workload name, or a failure to set the workload up
/// (missing `step` executable, unwritable work directory, …).
pub fn run(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    match workload {
        "paper_cones" => Ok(paper_cones::run(opts)),
        "twin_served" => twin_served::run(opts),
        "synth_recursion" => synth_recursion::run(opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}
