//! Harness regenerating the paper's evaluation: Tables I–IV and
//! Figure 1.
//!
//! Every table/figure has a dedicated binary (`table1` … `table4`,
//! `fig1`) that prints the same rows/series the paper reports, computed
//! on the registry stand-ins (see `step-circuits`). Shared plumbing
//! lives here: CLI options, model runners and the quality-comparison
//! arithmetic used by Tables I and II.
//!
//! Absolute numbers differ from the paper (different hardware, solvers
//! and — necessarily — circuits); the *shape* is what the harness
//! reproduces: STEP-QD/QB/QDB never lose to LJH or STEP-MG on their
//! target metric and frequently win (Tables I/II), LJH is the slowest
//! model and STEP-MG the fastest with the QBF models in between
//! (Table III, Figure 1), and under per-call budgets QB solves the most
//! POs, then QD, then QDB (Table IV).

use std::sync::Arc;
use std::time::Duration;

use step_circuits::{CircuitEntry, Scale};
use step_core::{
    BiDecomposer, Budget, BudgetPolicy, CircuitResult, DecompConfig, GateOp, Model, OutputResult,
    RestartPolicy, StepService, SubmissionHandle, SubmitOptions, TieredStore,
};
use step_serve::flag::{parsed_or_exit, Args, ReuseOpts};
use step_serve::json::{self, Value};
use step_synth::{SynthOptions, SynthOutput};

/// The harness binaries' usage text (`--help` prints it on stdout).
pub const HARNESS_USAGE: &str = "options: --scale smoke|default|full  --paper  \
     --budget <spec>  --circuit-budget <spec>  --qbf-budget <spec>  \
     --op or|and|xor  --filter <substr>  --copies <k>  \
     --shared-substructure <k>  --fast  --jobs <n>  \
     --seed <n>  --sat-restarts luby|ema  --sat-preprocess  \
     --cache  --no-cache  --cache-cap <n>  --cache-dir <path>  \
     --clause-reuse  --no-clause-reuse  --clause-bank-cap <n>  \
     (budget spec: wall:<dur> | work:<n> | both:<dur>,<n> | unlimited)";

/// Command-line options shared by the harness binaries.
#[derive(Clone, Debug)]
pub struct HarnessOpts {
    /// Circuit generation scale.
    pub scale: Scale,
    /// Engine budgets.
    pub budget: BudgetPolicy,
    /// Root operator (Tables I/III/IV are OR in the paper).
    pub op: GateOp,
    /// Substring filter on circuit names.
    pub filter: Option<String>,
    /// Grow every sweep circuit with `k − 1` permuted-input twins of
    /// each output (`--copies k`, default 1 = off) — the exact-twin
    /// population the result cache and the clause bank's exact channel
    /// serve. Grown runs annotate the circuit name in the BENCH JSON
    /// (`name+p<k>s<k>`), so their records never mix with ungrown ones.
    pub copies: usize,
    /// Grow every sweep circuit with `k − 1` same-support near-twin
    /// variants of each output (`--shared-substructure k`, default 1 =
    /// off) — near-twins miss the exact-result cache but share cone
    /// structure, the population the clause bank's vetted cluster
    /// channel exists for. Applied after [`copies`](HarnessOpts::copies)
    /// so every permuted twin gets near-twins too; annotated in the
    /// BENCH JSON circuit name like `copies`.
    pub shared_substructure: usize,
    /// Disable extraction+verification for speed (partitions only).
    pub partitions_only: bool,
    /// Worker threads (`--jobs`) of the shared [`StepService`] the
    /// sweep harnesses submit to: the outer model × circuit product is
    /// sharded over one persistent pool, so workers cross circuit
    /// boundaries instead of parallelizing only within a circuit.
    /// Per-output results are identical for any value.
    pub jobs: usize,
    /// Engine base seed (`--seed`), recorded in the BENCH JSON so
    /// sharded sweep records can only be merged when they agree on it.
    pub seed: u64,
    /// SAT restart policy (`--sat-restarts luby|ema`), forwarded to
    /// every solver the sweep builds and recorded in the BENCH JSON.
    pub sat_restarts: RestartPolicy,
    /// Bounded root-level SAT preprocessing (`--sat-preprocess`),
    /// recorded in the BENCH JSON.
    pub sat_preprocess: bool,
    /// Cross-output clause reuse (`--clause-reuse`): completed outputs
    /// donate their pinned learnt clauses to a bank keyed by canonical
    /// fingerprint, and later structural (near-)twins start pre-seeded.
    /// Verdicts and partitions are byte-identical either way; the work
    /// counters are what it improves. Off by default, recorded in the
    /// BENCH JSON.
    pub clause_reuse: bool,
    /// The tiered store every engine and service of the sweep shares,
    /// so the whole model × circuit sweep reuses solved cones (the
    /// cache key keeps models and configs apart) and clause donations.
    /// [`HarnessOpts::parse`] builds it: a result cache unless
    /// `--no-cache` (bounded by `--cache-cap`), a clause bank under
    /// `--clause-reuse` (bounded by `--clause-bank-cap`), and a disk
    /// tier loaded from `--cache-dir`, so repeated sweeps (and sharded
    /// replicas, via `step cache merge`) start warm. The default is an
    /// empty memory store.
    pub store: Arc<TieredStore>,
    /// Tenant name stamped into the BENCH JSON (`local` for in-process
    /// harness runs; the `step serve` front-end substitutes the
    /// client's tenant when it books records).
    pub tenant: String,
    /// Admission path stamped into the BENCH JSON: `direct` for
    /// in-process harness runs, `served` when a network front-end
    /// admitted the work.
    pub admission: String,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            scale: Scale::Default,
            budget: BudgetPolicy {
                per_qbf_call: Budget::Wall(Duration::from_millis(500)),
                per_output: Budget::Wall(Duration::from_secs(10)),
                per_circuit: Budget::Wall(Duration::from_secs(120)),
            },
            op: GateOp::Or,
            filter: None,
            copies: 1,
            shared_substructure: 1,
            partitions_only: false,
            jobs: 1,
            seed: DecompConfig::new(Model::QbfDisjoint).seed,
            sat_restarts: RestartPolicy::default(),
            sat_preprocess: false,
            clause_reuse: false,
            store: Arc::default(),
            tenant: "local".to_owned(),
            admission: "direct".to_owned(),
        }
    }
}

impl HarnessOpts {
    /// Parses harness options from `std::env::args`: `--help` prints
    /// [`HARNESS_USAGE`] on stdout and exits 0, a bad invocation prints
    /// `<flag>: <why>` and the usage on stderr and exits 2 (see
    /// [`HarnessOpts::parse`]).
    pub fn from_args() -> HarnessOpts {
        let args: Vec<String> = std::env::args().skip(1).collect();
        parsed_or_exit(HarnessOpts::parse(&args), HARNESS_USAGE)
    }

    /// Parses harness options; `Ok(None)` on `--help`.
    ///
    /// Flags: `--scale smoke|default|full`, `--paper` (paper budgets),
    /// `--budget <spec>` (per-output [`Budget`], e.g. `work:200k` for
    /// a deterministic sweep), `--circuit-budget <spec>`,
    /// `--qbf-budget <spec>` (per QBF call),
    /// `--op or|and|xor`, `--filter <substr>`, `--copies <k>` /
    /// `--shared-substructure <k>` (twin-heavy circuit growth, see the
    /// fields), `--fast`
    /// (partitions only), `--jobs <n>` (parallel output workers),
    /// `--seed <n>`, `--sat-restarts luby|ema`, `--sat-preprocess`,
    /// and the reuse flags of [`ReuseOpts`]: `--cache`/`--no-cache`
    /// (sweep-wide result cache, default on), `--cache-cap <n>` (bound
    /// it), `--cache-dir <path>` (persistent warm-start store, loaded
    /// here, before any solving), `--clause-reuse` /
    /// `--no-clause-reuse`, `--clause-bank-cap <n>`.
    ///
    /// # Errors
    ///
    /// A `<flag>: <why>` message for an unknown flag, a missing or bad
    /// value, or a `--cache-dir` that is not (and cannot become) a
    /// writable directory.
    pub fn parse(args: &[String]) -> Result<Option<HarnessOpts>, String> {
        let mut opts = HarnessOpts::default();
        let mut reuse = ReuseOpts::default();
        let mut qbf_budget_set = false;
        let mut circuit_budget_set = false;
        let mut args = Args::new(args);
        while let Some(flag) = args.next_arg() {
            match flag {
                "--scale" => {
                    opts.scale = match args.value()? {
                        "smoke" => Scale::Smoke,
                        "default" => Scale::Default,
                        "full" => Scale::Full,
                        other => return Err(args.error(format!("unknown scale `{other}`"))),
                    }
                }
                "--paper" => opts.budget = BudgetPolicy::paper(),
                "--budget" => opts.budget.per_output = args.budget()?,
                "--circuit-budget" => {
                    opts.budget.per_circuit = args.budget()?;
                    circuit_budget_set = true;
                }
                "--qbf-budget" => {
                    opts.budget.per_qbf_call = args.budget()?;
                    qbf_budget_set = true;
                }
                "--op" => opts.op = args.op()?,
                "--filter" => opts.filter = Some(args.value()?.to_owned()),
                "--copies" => opts.copies = args.count()?,
                "--shared-substructure" => opts.shared_substructure = args.count()?,
                "--fast" => opts.partitions_only = true,
                "--jobs" => opts.jobs = args.count()?,
                "--seed" => opts.seed = args.parse()?,
                "--sat-restarts" => opts.sat_restarts = args.parse()?,
                "--sat-preprocess" => opts.sat_preprocess = true,
                "--help" | "-h" => return Ok(None),
                _ if reuse.parse_flag(&mut args)? => {}
                _ => return Err(args.error("unknown option")),
            }
        }
        opts.clause_reuse = reuse.clause_reuse;
        // The sweep-wide store; the disk tier loads here, once, before
        // any circuit is built.
        opts.store = reuse
            .build_store()
            .map_err(|e| format!("--cache-dir: {e}"))?;
        opts.budget
            .lift_unset_walls_for_pure_work(qbf_budget_set, circuit_budget_set);
        Ok(Some(opts))
    }

    /// Builds one sweep circuit at this option set's scale, grown with
    /// the `--copies` / `--shared-substructure` twin populations
    /// (copies first, so every permuted twin gets near-twins too —
    /// matching `gen_circuit`).
    pub fn build(&self, entry: &CircuitEntry) -> step_aig::Aig {
        let mut aig = entry.build(self.scale);
        if self.copies > 1 {
            aig = step_circuits::with_permuted_copies(&aig, self.copies);
        }
        if self.shared_substructure > 1 {
            aig = step_circuits::with_shared_substructure(&aig, self.shared_substructure);
        }
        aig
    }

    /// The circuit name to record in the BENCH JSON: the entry name,
    /// annotated with the growth knobs when they are active
    /// (`s15850.1+p2s2`) so grown records never merge with ungrown
    /// ones.
    pub fn circuit_label(&self, name: &str) -> String {
        if self.copies > 1 || self.shared_substructure > 1 {
            format!("{}+p{}s{}", name, self.copies, self.shared_substructure)
        } else {
            name.to_owned()
        }
    }

    /// Applies the name filter.
    pub fn selected(&self, entries: Vec<CircuitEntry>) -> Vec<CircuitEntry> {
        match &self.filter {
            None => entries,
            Some(f) => entries.into_iter().filter(|e| e.name.contains(f)).collect(),
        }
    }

    /// The engine configuration for `model` under these options.
    ///
    /// The LJH baseline runs without the 64-bit simulation pre-filter:
    /// the original `Bi-dec` tool has no such filter, and its quadratic
    /// seed-pair search is precisely what makes LJH the slowest model
    /// in the paper's Table III.
    pub fn config(&self, model: Model) -> DecompConfig {
        let mut c = DecompConfig::new(model);
        c.budget = self.budget;
        if model == Model::Ljh {
            c.sim_filter = false;
        }
        if self.partitions_only {
            c.extract = false;
            c.verify = false;
        }
        c.jobs = self.jobs;
        c.seed = self.seed;
        c.sat_restarts = self.sat_restarts;
        c.sat_preprocess = self.sat_preprocess;
        c.clause_reuse = self.clause_reuse;
        c
    }

    /// Spawns the shared [`StepService`] a sweep harness submits to:
    /// `jobs` persistent workers, sharing this option set's store
    /// across every model × circuit submission.
    pub fn service(&self) -> StepService {
        StepService::spawn_with_store(self.jobs, Arc::clone(&self.store))
    }

    /// The synthesis stopping rules this option set implies
    /// (`table_synth` support): the per-output budget scope becomes
    /// the per-node scope and the per-circuit scope the
    /// whole-synthesis pool, so the same `--budget work:<n>` that
    /// makes a decomposition sweep deterministic does the same for a
    /// synthesis sweep.
    pub fn synth_options(&self) -> SynthOptions {
        SynthOptions {
            per_node: self.budget.per_output,
            synthesis: self.budget.per_circuit,
            ..SynthOptions::default()
        }
    }
}

/// Submits one model × circuit run to a shared sweep service; pair
/// with [`SubmissionHandle::join`] (or stream events) to consume.
pub fn submit_model(
    service: &StepService,
    entry: &CircuitEntry,
    model: Model,
    opts: &HarnessOpts,
) -> SubmissionHandle {
    let aig = opts.build(entry);
    service
        .submit(&aig, opts.op, opts.config(model))
        .expect("stand-in circuits are well-formed")
}

/// Submits one circuit entry for the whole five-model roster (in
/// [`Model::ALL`] order), building the circuit **once** and sharing
/// one combinational copy across all five submissions — the sweep
/// harnesses' unit of work.
pub fn submit_sweep_entry(
    service: &StepService,
    entry: &CircuitEntry,
    opts: &HarnessOpts,
) -> [SubmissionHandle; 5] {
    let aig = StepService::comb_arc(&opts.build(entry))
        .expect("stand-in circuits convert combinationally");
    Model::ALL.map(|m| {
        service
            .submit_with(
                Arc::clone(&aig),
                opts.op,
                opts.config(m),
                SubmitOptions::default(),
            )
            .expect("stand-in circuits are well-formed")
    })
}

/// Runs one model over one circuit entry.
pub fn run_model(entry: &CircuitEntry, model: Model, opts: &HarnessOpts) -> CircuitResult {
    run_model_op(entry, model, opts.op, opts)
}

/// Runs one model over one circuit entry with an explicit operator.
pub fn run_model_op(
    entry: &CircuitEntry,
    model: Model,
    op: GateOp,
    opts: &HarnessOpts,
) -> CircuitResult {
    let aig = opts.build(entry);
    let mut engine = BiDecomposer::new(opts.config(model));
    engine.set_store(Arc::clone(&opts.store));
    engine
        .decompose_circuit(&aig, op)
        .expect("stand-in circuits are well-formed")
}

/// Which quality metric a Table I/II column compares.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QualityMetric {
    /// Disjointness `εD`.
    Disjointness,
    /// Balancedness `εB`.
    Balancedness,
    /// `εD + εB` (the paper's "Disjointness+Balancedness").
    Sum,
}

impl QualityMetric {
    fn of(self, r: &OutputResult) -> Option<f64> {
        let p = r.partition.as_ref()?;
        Some(match self {
            QualityMetric::Disjointness => p.disjointness(),
            QualityMetric::Balancedness => p.balancedness(),
            QualityMetric::Sum => p.disjointness() + p.balancedness(),
        })
    }
}

/// The better/equal percentages of a Table I cell: how often
/// `challenger` strictly improves on `baseline`, and how often they
/// tie, over the POs both models decomposed.
pub fn compare_quality(
    challenger: &CircuitResult,
    baseline: &CircuitResult,
    metric: QualityMetric,
) -> (f64, f64) {
    let mut agg = QualityAggregate::default();
    agg.add(challenger, baseline, metric);
    agg.percentages()
}

/// Accumulates better/equal counts across circuits (Table II).
#[derive(Default, Clone, Copy, Debug)]
pub struct QualityAggregate {
    /// POs where the challenger strictly improved.
    pub better: usize,
    /// POs with equal metric.
    pub equal: usize,
    /// POs decomposed by both models.
    pub total: usize,
}

impl QualityAggregate {
    /// Folds one circuit's comparison into the aggregate.
    pub fn add(
        &mut self,
        challenger: &CircuitResult,
        baseline: &CircuitResult,
        metric: QualityMetric,
    ) {
        for (c, b) in challenger.outputs.iter().zip(&baseline.outputs) {
            let (Some(mc), Some(mb)) = (metric.of(c), metric.of(b)) else {
                continue;
            };
            self.total += 1;
            if mc + 1e-12 < mb {
                self.better += 1;
            } else if (mc - mb).abs() <= 1e-12 {
                self.equal += 1;
            }
        }
    }

    /// `(better %, equal %)`.
    pub fn percentages(&self) -> (f64, f64) {
        if self.total == 0 {
            return (0.0, 100.0);
        }
        (
            100.0 * self.better as f64 / self.total as f64,
            100.0 * self.equal as f64 / self.total as f64,
        )
    }
}

/// Renders a simple ASCII log-log scatter plot (for Figure 1): one
/// character cell per point bucket, `x` = baseline seconds, `y` =
/// challenger seconds.
pub fn ascii_scatter(points: &[(f64, f64)], title: &str) -> String {
    const W: usize = 44;
    const H: usize = 18;
    let mut grid = vec![vec![' '; W]; H];
    let lo = 1e-4f64;
    let hi = 1e3f64;
    let to_cell = |v: f64, cells: usize| -> usize {
        let v = v.clamp(lo, hi);
        let t = (v.ln() - lo.ln()) / (hi.ln() - lo.ln());
        ((t * (cells - 1) as f64).round() as usize).min(cells - 1)
    };
    for &(x, y) in points {
        let cx = to_cell(x, W);
        let cy = H - 1 - to_cell(y, H);
        grid[cy][cx] = '*';
    }
    // Diagonal y = x.
    for cx in 0..W {
        let v = (lo.ln() + (hi.ln() - lo.ln()) * cx as f64 / (W - 1) as f64).exp();
        let cy = H - 1 - to_cell(v, H);
        if grid[cy][cx] == ' ' {
            grid[cy][cx] = '.';
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{title}  (log-log, {lo:.0e}..{hi:.0e} s, '.' = diagonal)\n"
    ));
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(W));
    out.push('\n');
    out
}

/// Formats a duration in seconds with two decimals (table cells).
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Version of the `BENCH_*.json` record layout. Bump whenever fields
/// change meaning or shape, so tooling that merges sharded sweep
/// outputs can reject records it does not understand.
///
/// * v1 — model/circuit/wall/calls/cache counters.
/// * v2 — run provenance for sharded sweeps: `seed`, `jobs`, `op`,
///   `cache`, plus this `schema_version` field itself.
/// * v3 — effort provenance for deterministic work budgets:
///   `effort_conflicts` (total solver conflicts of the run) and
///   `budget` (the [`BudgetPolicy`] the run was truncated under;
///   shards are only mergeable when they agree on it).
/// * v4 — SAT kernel provenance: `sat_restarts` (restart policy) and
///   `sat_preprocess` — result-relevant knobs (they are part of the
///   result-cache key), so shards must agree on them too.
/// * v5 — clause-reuse provenance: `clause_reuse` (the knob; verdicts
///   are identical either way, but the work counters of reuse-on and
///   reuse-off records are different experiments) plus the
///   `bank_hits`/`donated_clauses` counters. Twin-heavy circuit growth
///   (`--copies` / `--shared-substructure`) annotates the `circuit`
///   name (`s15850.1+p2s2`) instead of adding fields, so grown and
///   ungrown records never silently merge.
/// * v6 — persistent-store provenance: `disk_hits` (artifacts served
///   from the `--cache-dir` disk tier in this run — results, clauses
///   and search transcripts combined; 0 on cold or memory-only runs)
///   and `store_loaded` (records the store had loaded when the sweep
///   started). Warm and cold records answer identically — the fields
///   exist so trajectory tooling can tell the two cost profiles apart.
/// * v7 — service provenance for runs driven through the `step serve`
///   front-end: `tenant` (whose quota the run was charged to; `local`
///   for in-process runs), `queue_wait_s` (submission-to-first-claim
///   wall seconds — the scheduling-latency component of `wall_s`,
///   relevant when comparing records from loaded multi-tenant servers
///   against idle local runs) and `admission` (`direct` for in-process
///   runs, `served` for runs admitted over the wire). Per-output
///   answers are identical on every path — these fields keep the cost
///   profiles apart, like `jobs` and `disk_hits`.
/// * v8 — multi-level synthesis provenance (`table_synth` records):
///   `synth_gates` (two-input gates of the emitted networks, summed
///   over POs), `synth_depth` (deepest gate tree across POs),
///   `synth_leaf_max_support` (largest leaf support any network kept)
///   and `synth_nodes_expanded` (frontier cones the recursion
///   submitted to the engine). All four are 0 on plain decomposition
///   records; synthesis and decomposition records are different
///   experiments even on the same circuit, which the nonzero
///   `synth_nodes_expanded` marks.
pub const BENCH_SCHEMA_VERSION: u32 = 8;

/// Oldest record layout [`parse_bench_records_json`] reads: v3, the
/// first with effort provenance (`effort_conflicts`, `budget`).
pub const BENCH_MIN_READ_VERSION: u32 = 3;

/// One machine-readable row of a harness run: model × circuit with
/// wall-clock and solver-call statistics plus the run provenance
/// (seed, worker count, operator, cache on/off) needed to merge
/// records from sharded sweeps safely. Serialized to the
/// `BENCH_table3.json` / `BENCH_fig1.json` files that track the perf
/// trajectory across commits.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Record layout version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Model name (`LJH`, `STEP-MG`, …).
    pub model: String,
    /// Circuit name.
    pub circuit: String,
    /// Root operator (`OR`, `AND`, `XOR`).
    pub op: String,
    /// Engine base seed the run used (merging shards with different
    /// seeds would mix incomparable partitions).
    pub seed: u64,
    /// Worker threads of the service the run was sharded over
    /// (documentation of the run, not of the results — per-output
    /// results are identical for any value).
    pub jobs: usize,
    /// Whether a result cache was attached to the run.
    pub cache: bool,
    /// The budget policy the run was truncated under
    /// (`call=…;output=…;circuit=…`, each component in
    /// [`Budget::parse`] syntax). Records truncated under different
    /// budgets are not comparable — merge tooling must match on this.
    pub budget: String,
    /// SAT restart policy of the run (`luby`/`ema`). Result-relevant:
    /// records with different policies are different experiments.
    pub sat_restarts: String,
    /// Whether SAT preprocessing was on (result-relevant, like
    /// `sat_restarts`).
    pub sat_preprocess: bool,
    /// Whether cross-output clause reuse was on. Verdicts and
    /// partitions are identical either way, but the work counters
    /// (`sat_calls`, `effort_conflicts`) of reuse-on and reuse-off
    /// records are different experiments — merge tooling must match on
    /// this like on `budget`.
    pub clause_reuse: bool,
    /// Wall-clock seconds for the whole circuit. Measured first claim
    /// to last event on service runs (`jobs` recorded here); only
    /// compare wall clocks between records with the same `jobs`.
    pub wall_s: f64,
    /// Outputs decomposed.
    pub decomposed: usize,
    /// Total outputs.
    pub outputs: usize,
    /// SAT oracle calls across all outputs.
    pub sat_calls: u64,
    /// QBF solves across all outputs.
    pub qbf_calls: u64,
    /// Total solver conflicts across all outputs
    /// ([`CircuitResult::total_effort`]) — the machine-independent
    /// cost of the run, comparable across hosts unlike `wall_s`.
    /// Scheduling-dependent under `jobs > 1` with a shared cache
    /// (like the cache counters); exact under `--jobs 1`.
    pub effort_conflicts: u64,
    /// Outputs served by the result cache in this run (0 when caching
    /// is disabled).
    ///
    /// With `jobs > 1`, concurrent submissions containing the same
    /// canonical cone race for the first solve, so which record books
    /// the hit (and the matching `sat_calls`) can vary run-to-run;
    /// the *answers* never do. Trajectory comparisons of the work
    /// counters should use `--jobs 1` records.
    pub cache_hits: u64,
    /// Outputs that consulted the cache and missed (0 when disabled).
    /// Scheduling-dependent under `jobs > 1` — see
    /// [`cache_hits`](BenchRecord::cache_hits).
    pub cache_misses: u64,
    /// Outputs seeded by the clause bank in this run (0 with reuse
    /// off). Scheduling-dependent under
    /// `jobs > 1` — which sibling completes first decides who donates
    /// and who imports — see [`cache_hits`](BenchRecord::cache_hits).
    pub bank_hits: u64,
    /// Clauses this run donated to the clause bank (0 with reuse off).
    /// Scheduling-dependent under `jobs > 1` like `bank_hits`.
    pub donated_clauses: u64,
    /// Artifacts this run was served from the `--cache-dir` disk tier
    /// (results, clause exports and search transcripts combined; 0 on
    /// cold or memory-only runs). Answers are identical warm or cold —
    /// this separates the two cost profiles, like `clause_reuse`.
    /// Scheduling-dependent under `jobs > 1` like `cache_hits`.
    pub disk_hits: u64,
    /// Records the persistent store had loaded when the sweep started
    /// (0 without `--cache-dir`) — warm-start provenance for the run.
    pub store_loaded: u64,
    /// Tenant the run's work was charged to: `local` for in-process
    /// harness runs, the client's tenant name for runs admitted by the
    /// `step serve` front-end. Answers are tenant-independent; quotas
    /// only decide *whether* a run was admitted, never its results.
    pub tenant: String,
    /// Submission-to-first-claim wall seconds
    /// ([`CircuitResult::queue_wait`]) — the scheduling-latency
    /// component of `wall_s`. Near zero on idle `--jobs 1` runs;
    /// meaningful on loaded multi-tenant servers, where comparing raw
    /// `wall_s` across records would conflate solving with waiting.
    pub queue_wait_s: f64,
    /// How the run entered the system: `direct` for in-process harness
    /// runs, `served` for runs admitted over the wire by `step serve`.
    /// Like `jobs`, documentation of the run, not of the results.
    pub admission: String,
    /// Two-input gates of the synthesized networks, summed over POs
    /// (0 on plain decomposition records). Deterministic under
    /// deterministic budgets, like the network itself.
    pub synth_gates: u64,
    /// Deepest gate tree across the circuit's synthesized POs (0 on
    /// decomposition records).
    pub synth_depth: u64,
    /// Largest leaf support any synthesized network kept — the
    /// "simplicity" measure synthesis drives down (0 on decomposition
    /// records).
    pub synth_leaf_max_support: u64,
    /// Frontier cones the recursion submitted to the engine (0 on
    /// decomposition records — the field that marks a record as a
    /// synthesis experiment).
    pub synth_nodes_expanded: u64,
    /// Whether any budget expired.
    pub timed_out: bool,
}

impl BenchRecord {
    /// Builds the record for one model run over one circuit, stamping
    /// the provenance fields from the harness options that drove it.
    pub fn of(model: Model, circuit: &str, r: &CircuitResult, opts: &HarnessOpts) -> Self {
        BenchRecord {
            schema_version: BENCH_SCHEMA_VERSION,
            model: model.to_string(),
            circuit: circuit.to_owned(),
            op: opts.op.to_string(),
            seed: opts.seed,
            jobs: opts.jobs,
            cache: opts.store.cache().is_some(),
            budget: opts.budget.to_string(),
            sat_restarts: opts.sat_restarts.to_string(),
            sat_preprocess: opts.sat_preprocess,
            clause_reuse: opts.clause_reuse,
            wall_s: r.cpu.as_secs_f64(),
            decomposed: r.num_decomposed(),
            outputs: r.outputs.len(),
            sat_calls: r.total_sat_calls(),
            qbf_calls: r.total_qbf_calls(),
            effort_conflicts: r.total_effort().conflicts,
            cache_hits: r.cache_hits(),
            cache_misses: r.cache_misses(),
            bank_hits: r.clause_bank_hits(),
            donated_clauses: r.donated_clauses(),
            disk_hits: r.disk_hits(),
            store_loaded: opts.store.disk().map_or(0, |d| d.loaded_records()),
            tenant: opts.tenant.clone(),
            queue_wait_s: r.queue_wait.as_secs_f64(),
            admission: opts.admission.clone(),
            synth_gates: 0,
            synth_depth: 0,
            synth_leaf_max_support: 0,
            synth_nodes_expanded: 0,
            timed_out: r.timed_out,
        }
    }

    /// Builds the record for one multi-level synthesis run over one
    /// circuit (`table_synth`): the per-output [`SynthOutput`]s fold
    /// into the v8 synthesis fields, and the engine-side counters
    /// (SAT calls, effort, reuse hits) aggregate across every probe
    /// the recursion submitted.
    pub fn of_synth(
        model: Model,
        circuit: &str,
        outputs: &[SynthOutput],
        wall: Duration,
        opts: &HarnessOpts,
    ) -> Self {
        let fold = |f: fn(&SynthOutput) -> u64| outputs.iter().map(f).sum::<u64>();
        let max = |f: fn(&SynthOutput) -> u64| outputs.iter().map(f).max().unwrap_or(0);
        BenchRecord {
            schema_version: BENCH_SCHEMA_VERSION,
            model: model.to_string(),
            circuit: circuit.to_owned(),
            op: opts.op.to_string(),
            seed: opts.seed,
            jobs: opts.jobs,
            cache: opts.store.cache().is_some(),
            budget: opts.budget.to_string(),
            sat_restarts: opts.sat_restarts.to_string(),
            sat_preprocess: opts.sat_preprocess,
            clause_reuse: opts.clause_reuse,
            wall_s: wall.as_secs_f64(),
            decomposed: outputs.iter().filter(|o| !o.stats.truncated).count(),
            outputs: outputs.len(),
            sat_calls: fold(|o| o.stats.sat_calls),
            qbf_calls: 0,
            effort_conflicts: fold(|o| o.stats.effort.conflicts),
            cache_hits: fold(|o| o.stats.cache_hits),
            cache_misses: fold(|o| o.stats.cache_misses),
            bank_hits: fold(|o| o.stats.bank_hits),
            donated_clauses: fold(|o| o.stats.donated_clauses),
            disk_hits: fold(|o| o.stats.disk_hits),
            store_loaded: opts.store.disk().map_or(0, |d| d.loaded_records()),
            tenant: opts.tenant.clone(),
            queue_wait_s: 0.0,
            admission: opts.admission.clone(),
            synth_gates: fold(|o| o.tree.num_gates() as u64),
            synth_depth: max(|o| o.tree.depth() as u64),
            synth_leaf_max_support: max(|o| o.tree.max_leaf_support() as u64),
            synth_nodes_expanded: fold(|o| o.stats.nodes_expanded),
            timed_out: outputs.iter().any(|o| o.stats.truncated),
        }
    }
}

impl BenchRecord {
    /// The record as one JSON object, fields in the file's order.
    /// `wall_s` and `queue_wait_s` are written with six decimals.
    fn to_json(&self) -> Value {
        let count = |n: usize| json::num(n as u64);
        let secs = |x: f64| Value::Num(format!("{x:.6}"));
        json::obj(vec![
            ("schema_version", json::num(u64::from(self.schema_version))),
            ("model", json::s(&self.model)),
            ("circuit", json::s(&self.circuit)),
            ("op", json::s(&self.op)),
            ("seed", json::num(self.seed)),
            ("jobs", count(self.jobs)),
            ("cache", json::boolean(self.cache)),
            ("budget", json::s(&self.budget)),
            ("sat_restarts", json::s(&self.sat_restarts)),
            ("sat_preprocess", json::boolean(self.sat_preprocess)),
            ("clause_reuse", json::boolean(self.clause_reuse)),
            ("wall_s", secs(self.wall_s)),
            ("decomposed", count(self.decomposed)),
            ("outputs", count(self.outputs)),
            ("sat_calls", json::num(self.sat_calls)),
            ("qbf_calls", json::num(self.qbf_calls)),
            ("effort_conflicts", json::num(self.effort_conflicts)),
            ("cache_hits", json::num(self.cache_hits)),
            ("cache_misses", json::num(self.cache_misses)),
            ("bank_hits", json::num(self.bank_hits)),
            ("donated_clauses", json::num(self.donated_clauses)),
            ("disk_hits", json::num(self.disk_hits)),
            ("store_loaded", json::num(self.store_loaded)),
            ("tenant", json::s(&self.tenant)),
            ("queue_wait_s", secs(self.queue_wait_s)),
            ("admission", json::s(&self.admission)),
            ("synth_gates", json::num(self.synth_gates)),
            ("synth_depth", json::num(self.synth_depth)),
            (
                "synth_leaf_max_support",
                json::num(self.synth_leaf_max_support),
            ),
            ("synth_nodes_expanded", json::num(self.synth_nodes_expanded)),
            ("timed_out", json::boolean(self.timed_out)),
        ])
    }

    /// Reads one record object written by [`BenchRecord::to_json`] at
    /// any version from [`BENCH_MIN_READ_VERSION`] on.
    fn from_json(v: &Value) -> Result<BenchRecord, String> {
        let get = |key: &str| {
            v.get(key)
                .ok_or_else(|| format!("record is missing `{key}`"))
        };
        let string = |key: &str| -> Result<String, String> {
            get(key)?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("`{key}` must be a string"))
        };
        let number = |key: &str| get(key)?.as_u64().ok_or_else(|| format!("bad `{key}`"));
        let float = |key: &str| get(key)?.as_f64().ok_or_else(|| format!("bad `{key}`"));
        let boolean = |key: &str| get(key)?.as_bool().ok_or_else(|| format!("bad `{key}`"));
        let schema_version = u32::try_from(number("schema_version")?)
            .map_err(|_| "bad `schema_version`".to_owned())?;
        if !(BENCH_MIN_READ_VERSION..=BENCH_SCHEMA_VERSION).contains(&schema_version) {
            return Err(format!(
                "record has schema_version {schema_version}, reader understands \
                 {BENCH_MIN_READ_VERSION}..={BENCH_SCHEMA_VERSION}"
            ));
        }
        // Whether the record's layout has the fields version `v` added.
        let has = |v: u32| schema_version >= v;
        let number_since = |key: &str, v: u32| if has(v) { number(key) } else { Ok(0) };
        let string_since = |key: &str, v: u32, default: &str| {
            if has(v) {
                string(key)
            } else {
                Ok(default.to_owned())
            }
        };
        Ok(BenchRecord {
            schema_version,
            model: string("model")?,
            circuit: string("circuit")?,
            op: string("op")?,
            seed: number("seed")?,
            jobs: number("jobs")? as usize,
            cache: boolean("cache")?,
            budget: string("budget")?,
            sat_restarts: string_since("sat_restarts", 4, "luby")?,
            sat_preprocess: has(4) && boolean("sat_preprocess")?,
            clause_reuse: has(5) && boolean("clause_reuse")?,
            wall_s: float("wall_s")?,
            decomposed: number("decomposed")? as usize,
            outputs: number("outputs")? as usize,
            sat_calls: number("sat_calls")?,
            qbf_calls: number("qbf_calls")?,
            effort_conflicts: number("effort_conflicts")?,
            cache_hits: number("cache_hits")?,
            cache_misses: number("cache_misses")?,
            bank_hits: number_since("bank_hits", 5)?,
            donated_clauses: number_since("donated_clauses", 5)?,
            disk_hits: number_since("disk_hits", 6)?,
            store_loaded: number_since("store_loaded", 6)?,
            tenant: string_since("tenant", 7, "local")?,
            queue_wait_s: if has(7) { float("queue_wait_s")? } else { 0.0 },
            admission: string_since("admission", 7, "direct")?,
            synth_gates: number_since("synth_gates", 8)?,
            synth_depth: number_since("synth_depth", 8)?,
            synth_leaf_max_support: number_since("synth_leaf_max_support", 8)?,
            synth_nodes_expanded: number_since("synth_nodes_expanded", 8)?,
            timed_out: boolean("timed_out")?,
        })
    }
}

/// Renders records as a JSON array, one record object per line.
pub fn bench_records_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        out += &format!("  {}{comma}\n", r.to_json().render());
    }
    out + "]\n"
}

/// Parses a `BENCH_*.json` array written by [`bench_records_json`]
/// back into records — the reader half for tooling that merges or
/// diffs sharded sweep outputs.
///
/// Reads every layout from [`BENCH_MIN_READ_VERSION`] (v3, the first
/// with effort provenance) up to [`BENCH_SCHEMA_VERSION`], so committed
/// files of older PRs stay readable. A field introduced after v3 is
/// required on records of its version or later and takes its neutral
/// default on older ones: `luby` restarts, preprocessing and clause
/// reuse off, zero counters, the `local` tenant with `direct`
/// admission. The record keeps the `schema_version` it was read with.
///
/// # Errors
///
/// A description of the first malformed record, missing field, or
/// record whose `schema_version` lies outside
/// `BENCH_MIN_READ_VERSION..=BENCH_SCHEMA_VERSION` (merging across
/// layouts the reader cannot map is exactly what the version field
/// exists to prevent).
pub fn parse_bench_records_json(text: &str) -> Result<Vec<BenchRecord>, String> {
    match Value::parse(text).map_err(|e| e.to_string())? {
        Value::Arr(records) => records.iter().map(BenchRecord::from_json).collect(),
        _ => Err("expected a JSON array".to_owned()),
    }
}

/// Writes records to `path` as JSON, reporting the destination on
/// stderr (stdout stays reserved for the human-readable table).
pub fn write_bench_json(path: &str, records: &[BenchRecord]) {
    match std::fs::write(path, bench_records_json(records)) {
        Ok(()) => eprintln!("wrote {} records to {path}", records.len()),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use step_circuits::registry_table1;
    use step_core::{ClauseBank, ResultCache};

    fn smoke_opts() -> HarnessOpts {
        HarnessOpts {
            scale: Scale::Smoke,
            budget: BudgetPolicy::quick(),
            partitions_only: true,
            ..HarnessOpts::default()
        }
    }

    fn parse(args: &[&str]) -> Result<Option<HarnessOpts>, String> {
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        HarnessOpts::parse(&args)
    }

    #[test]
    fn harness_flags_parse() {
        let opts = parse(&[
            "--scale",
            "smoke",
            "--budget",
            "work:200",
            "--op",
            "xor",
            "--filter",
            "C7",
            "--jobs",
            "2",
            "--clause-bank-cap",
            "4",
            "--no-cache",
        ])
        .expect("valid flags")
        .expect("not a help request");
        assert_eq!(opts.scale, Scale::Smoke);
        assert_eq!(
            opts.budget,
            BudgetPolicy::work(200),
            "pure work lifts the walls"
        );
        assert_eq!(
            (opts.op, opts.filter.as_deref(), opts.jobs),
            (GateOp::Xor, Some("C7"), 2)
        );
        assert!(opts.clause_reuse && opts.store.bank().is_some());
        assert!(opts.store.cache().is_none());
    }

    /// A trailing `--filter` once ran the whole unfiltered sweep.
    #[test]
    fn bare_filter_is_a_usage_error() {
        assert_eq!(
            parse(&["--scale", "smoke", "--filter"]).err().as_deref(),
            Some("--filter: missing value")
        );
    }

    /// `--help` is a request, not an error: the binaries print the
    /// usage on stdout and exit 0 for it.
    #[test]
    fn help_is_not_an_error() {
        for flag in ["--help", "-h"] {
            assert!(matches!(parse(&["--fast", flag]), Ok(None)), "{flag}");
        }
        let unknown = parse(&["--frobnicate"]).err();
        assert_eq!(unknown.as_deref(), Some("--frobnicate: unknown option"));
    }

    #[test]
    fn quality_comparison_never_negative_for_bootstrapped_models() {
        // STEP-QD is bootstrapped with STEP-MG, so on the POs both
        // decompose it can only be better or equal on disjointness.
        let entry = &registry_table1()[16]; // mm9a: small
        let opts = smoke_opts();
        let mg = run_model(entry, Model::MusGroup, &opts);
        let qd = run_model(entry, Model::QbfDisjoint, &opts);
        let (better, equal) = compare_quality(&qd, &mg, QualityMetric::Disjointness);
        assert!(
            better + equal > 99.9,
            "QD must never lose to MG: {better} {equal}"
        );
    }

    #[test]
    fn aggregate_percentages_sum_sanely() {
        let mut agg = QualityAggregate::default();
        let entry = &registry_table1()[17];
        let opts = smoke_opts();
        let mg = run_model(entry, Model::MusGroup, &opts);
        let qb = run_model(entry, Model::QbfBalanced, &opts);
        agg.add(&qb, &mg, QualityMetric::Balancedness);
        let (better, equal) = agg.percentages();
        assert!(better >= 0.0 && equal >= 0.0 && better + equal <= 100.0 + 1e-9);
    }

    #[test]
    fn scatter_renders() {
        let s = ascii_scatter(&[(0.1, 0.2), (1.0, 0.5)], "test");
        assert!(s.contains('*'));
        assert!(s.lines().count() > 10);
    }

    #[test]
    fn bench_records_serialize_to_json() {
        let entry = &registry_table1()[16]; // mm9a: small
        let opts = smoke_opts();
        let r = run_model(entry, Model::MusGroup, &opts);
        let rec = BenchRecord::of(Model::MusGroup, entry.name, &r, &opts);
        assert_eq!(rec.model, "STEP-MG");
        assert_eq!(rec.outputs, r.outputs.len());
        assert!(rec.sat_calls > 0, "MG makes SAT calls");
        assert_eq!(rec.schema_version, BENCH_SCHEMA_VERSION);
        assert_eq!(rec.op, "OR");
        assert_eq!(rec.seed, opts.seed);
        assert_eq!(rec.jobs, 1);
        assert!(!rec.cache, "smoke opts run uncached");
        let json = bench_records_json(&[rec.clone(), rec]);
        assert!(json.starts_with("[\n") && json.ends_with("]\n"), "{json}");
        assert_eq!(json.matches("\"circuit\":\"mm9a\"").count(), 2);
        assert_eq!(
            json.matches(&format!("\"schema_version\":{BENCH_SCHEMA_VERSION}"))
                .count(),
            2
        );
        assert_eq!(json.matches("\"op\":\"OR\"").count(), 2);
        assert_eq!(json.matches("\"jobs\":1").count(), 2);
        assert_eq!(json.matches("\"cache\":false").count(), 2);
        assert_eq!(json.matches(&format!("\"seed\":{}", opts.seed)).count(), 2);
        assert_eq!(json.matches("\"cache_hits\":0").count(), 2);
        assert_eq!(json.matches("\"cache_misses\":0").count(), 2);
        assert!(json.matches(',').count() >= 1);
        // Schema-3 effort provenance.
        assert_eq!(
            json.matches(&format!("\"budget\":\"{}\"", opts.budget))
                .count(),
            2
        );
        assert!(json.contains("\"effort_conflicts\":"), "{json}");
        // Schema-4 SAT kernel provenance.
        assert_eq!(json.matches("\"sat_restarts\":\"luby\"").count(), 2);
        assert_eq!(json.matches("\"sat_preprocess\":false").count(), 2);
        // Schema-5 clause-reuse provenance.
        assert_eq!(json.matches("\"clause_reuse\":false").count(), 2);
        assert_eq!(json.matches("\"bank_hits\":0").count(), 2);
        assert_eq!(json.matches("\"donated_clauses\":0").count(), 2);
        // Schema-6 persistent-store provenance.
        assert_eq!(json.matches("\"disk_hits\":0").count(), 2);
        assert_eq!(json.matches("\"store_loaded\":0").count(), 2);
        // Schema-7 service provenance.
        assert_eq!(json.matches("\"tenant\":\"local\"").count(), 2);
        assert_eq!(json.matches("\"admission\":\"direct\"").count(), 2);
        assert_eq!(json.matches("\"queue_wait_s\":").count(), 2);
        // Schema-8 synthesis provenance — all zero on decomposition
        // records.
        assert_eq!(json.matches("\"synth_gates\":0").count(), 2);
        assert_eq!(json.matches("\"synth_depth\":0").count(), 2);
        assert_eq!(json.matches("\"synth_leaf_max_support\":0").count(), 2);
        assert_eq!(json.matches("\"synth_nodes_expanded\":0").count(), 2);
    }

    #[test]
    fn bench_json_round_trips_through_the_reader() {
        // The schema fields must survive write → parse exactly, so
        // merge tooling reading sharded sweep outputs sees what the
        // harness wrote (budget, effort and SAT-kernel provenance
        // included).
        let entry = &registry_table1()[16]; // mm9a: small
        let mut opts = smoke_opts();
        opts.budget.per_output = step_core::Budget::Work(50_000);
        opts.sat_restarts = RestartPolicy::Ema;
        opts.sat_preprocess = true;
        opts.clause_reuse = true;
        let r = run_model(entry, Model::MusGroup, &opts);
        let mut rec = BenchRecord::of(Model::MusGroup, entry.name, &r, &opts);
        rec.circuit = "odd \"name\"\\with escapes".to_owned();
        rec.tenant = "acme \"quoted\"".to_owned();
        rec.admission = "served".to_owned();
        rec.queue_wait_s = 0.125;
        // Schema-8 synthesis fields must survive the round trip too.
        rec.synth_gates = 95;
        rec.synth_depth = 9;
        rec.synth_leaf_max_support = 2;
        rec.synth_nodes_expanded = 83;
        let records = vec![
            rec,
            BenchRecord::of(Model::QbfDisjoint, entry.name, &r, &opts),
        ];
        let parsed = parse_bench_records_json(&bench_records_json(&records)).expect("parse");
        assert_eq!(parsed.len(), records.len());
        for (p, w) in parsed.iter().zip(&records) {
            assert_eq!(p.schema_version, w.schema_version);
            assert_eq!(p.model, w.model);
            assert_eq!(p.circuit, w.circuit, "escapes survive the round trip");
            assert_eq!(p.op, w.op);
            assert_eq!(p.seed, w.seed);
            assert_eq!(p.jobs, w.jobs);
            assert_eq!(p.cache, w.cache);
            assert_eq!(p.budget, w.budget, "budget provenance round-trips");
            assert_eq!(p.sat_restarts, "ema", "restart provenance round-trips");
            assert!(p.sat_preprocess, "preprocess provenance round-trips");
            assert!(
                p.budget.contains("output=work:50000"),
                "work budget recorded: {}",
                p.budget
            );
            assert_eq!(p.decomposed, w.decomposed);
            assert_eq!(p.outputs, w.outputs);
            assert_eq!(p.sat_calls, w.sat_calls);
            assert_eq!(p.qbf_calls, w.qbf_calls);
            assert_eq!(p.effort_conflicts, w.effort_conflicts);
            assert_eq!(p.cache_hits, w.cache_hits);
            assert_eq!(p.cache_misses, w.cache_misses);
            assert_eq!(p.clause_reuse, w.clause_reuse);
            assert_eq!(p.bank_hits, w.bank_hits);
            assert_eq!(p.donated_clauses, w.donated_clauses);
            assert_eq!(p.disk_hits, w.disk_hits);
            assert_eq!(p.store_loaded, w.store_loaded);
            assert_eq!(p.tenant, w.tenant, "tenant escapes survive the round trip");
            assert_eq!(p.admission, w.admission);
            assert_eq!(p.synth_gates, w.synth_gates, "synthesis fields round-trip");
            assert_eq!(p.synth_depth, w.synth_depth);
            assert_eq!(p.synth_leaf_max_support, w.synth_leaf_max_support);
            assert_eq!(p.synth_nodes_expanded, w.synth_nodes_expanded);
            assert_eq!(p.timed_out, w.timed_out);
            // The writer rounds wall_s (and queue_wait_s) to six decimals.
            assert!((p.wall_s - w.wall_s).abs() <= 5e-7, "wall_s to 1e-6");
            assert!(
                (p.queue_wait_s - w.queue_wait_s).abs() <= 5e-7,
                "queue_wait_s to 1e-6"
            );
        }
        // Empty arrays round-trip too.
        assert!(parse_bench_records_json("[\n]\n")
            .expect("empty")
            .is_empty());
        // Versions the reader cannot map are rejected, not misread: the
        // pre-effort v2 layout and any version newer than the writer's.
        for foreign in [2u32, BENCH_SCHEMA_VERSION + 1] {
            let old = bench_records_json(&records).replace(
                &format!("\"schema_version\":{BENCH_SCHEMA_VERSION}"),
                &format!("\"schema_version\":{foreign}"),
            );
            assert!(
                parse_bench_records_json(&old).is_err(),
                "v{foreign} records must be rejected"
            );
        }
    }

    /// Older layouts read back with the later fields defaulted, and a
    /// record missing a field its own version introduced is rejected.
    #[test]
    fn older_schemas_read_with_defaults() {
        let v3 = r#"[{"schema_version": 3, "model": "STEP-QD", "circuit": "C880", "op": "OR",
            "seed": 1, "jobs": 2, "cache": true, "budget": "call=unlimited;output=work:10;circuit=unlimited",
            "wall_s": 0.5, "decomposed": 3, "outputs": 4, "sat_calls": 9, "qbf_calls": 2,
            "effort_conflicts": 77, "cache_hits": 1, "cache_misses": 3, "timed_out": true}]"#;
        let recs = parse_bench_records_json(v3).expect("v3 reads");
        let r = &recs[0];
        assert_eq!(r.schema_version, 3);
        assert_eq!((r.effort_conflicts, r.jobs, r.timed_out), (77, 2, true));
        assert_eq!(r.sat_restarts, "luby");
        assert!(!r.sat_preprocess && !r.clause_reuse);
        assert_eq!((r.bank_hits, r.disk_hits, r.synth_gates), (0, 0, 0));
        assert_eq!(
            (r.tenant.as_str(), r.admission.as_str()),
            ("local", "direct")
        );
        // The same record claiming v4 lacks v4's `sat_restarts`.
        let v4 = v3.replace("\"schema_version\": 3", "\"schema_version\": 4");
        assert!(parse_bench_records_json(&v4).is_err());
    }

    /// Both committed `BENCH_*.json` files read back, and rewriting
    /// their records reads back equal.
    #[test]
    fn committed_bench_files_read_back() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for (file, version) in [("BENCH_table3.json", 5), ("BENCH_table_synth.json", 8)] {
            let text = std::fs::read_to_string(format!("{root}/{file}")).expect(file);
            let recs = parse_bench_records_json(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(!recs.is_empty(), "{file} has records");
            assert!(
                recs.iter().all(|r| r.schema_version == version),
                "{file} is schema {version}"
            );
            let rewritten = parse_bench_records_json(&bench_records_json(&recs));
            assert_eq!(rewritten.as_ref(), Ok(&recs), "{file} rewritten");
        }
    }

    #[test]
    fn synth_records_carry_the_v8_fields() {
        // A real synthesis run books nonzero v8 fields, and they
        // survive the JSON round trip.
        let entry = &registry_table1()[16]; // mm9a: small
        let opts = smoke_opts();
        let aig = opts.build(entry);
        let service = opts.service();
        let driver = step_synth::SynthDriver::new(
            &service,
            opts.config(Model::QbfDisjoint),
            opts.synth_options(),
        );
        let outputs = driver.synthesize_circuit(&aig).expect("synthesizes");
        let rec = BenchRecord::of_synth(
            Model::QbfDisjoint,
            entry.name,
            &outputs,
            Duration::from_millis(1),
            &opts,
        );
        assert!(rec.synth_nodes_expanded > 0, "recursion expanded cones");
        assert!(rec.synth_gates > 0, "networks carry gates");
        assert!(rec.synth_leaf_max_support > 0);
        assert_eq!(rec.outputs, aig.num_outputs());
        let parsed = parse_bench_records_json(&bench_records_json(std::slice::from_ref(&rec)))
            .expect("parse");
        assert_eq!(parsed[0].synth_gates, rec.synth_gates);
        assert_eq!(parsed[0].synth_depth, rec.synth_depth);
        assert_eq!(parsed[0].synth_nodes_expanded, rec.synth_nodes_expanded);
    }

    #[test]
    fn sharded_sweep_matches_per_circuit_runs() {
        // The service-sharded submission path (what table3/fig1 use)
        // must reproduce the one-engine-per-run legacy path exactly.
        let opts = HarnessOpts {
            jobs: 2,
            ..smoke_opts()
        };
        let entries = [&registry_table1()[16], &registry_table1()[17]];
        let service = opts.service();
        let handles: Vec<_> = entries
            .iter()
            .flat_map(|e| {
                [Model::MusGroup, Model::QbfDisjoint]
                    .map(|m| (m, *e, submit_model(&service, e, m, &opts)))
            })
            .collect();
        for (model, entry, handle) in handles {
            let sharded = handle.join().expect("sharded run");
            let legacy = run_model(entry, model, &opts);
            assert_eq!(sharded.outputs.len(), legacy.outputs.len());
            for (s, l) in sharded.outputs.iter().zip(&legacy.outputs) {
                assert_eq!(
                    s.partition, l.partition,
                    "{model} {} {}",
                    entry.name, s.name
                );
                assert_eq!(s.solved, l.solved);
                assert_eq!(s.sat_calls, l.sat_calls);
            }
        }
    }

    #[test]
    fn sweep_shares_one_cache_across_runs() {
        // Two runs of the same circuit through one HarnessOpts cache:
        // the second run's records report hits, and the outputs match
        // the cold run exactly.
        let entry = &registry_table1()[16]; // mm9a: small
        let opts = HarnessOpts {
            store: Arc::new(TieredStore::memory(
                Some(Arc::new(ResultCache::new())),
                None,
            )),
            ..smoke_opts()
        };
        let cold = run_model(entry, Model::MusGroup, &opts);
        let warm = run_model(entry, Model::MusGroup, &opts);
        let rec = BenchRecord::of(Model::MusGroup, entry.name, &warm, &opts);
        assert_eq!(rec.cache_hits as usize, warm.outputs.len());
        assert_eq!(rec.cache_misses, 0, "everything was cached by run 1");
        assert!(warm.total_sat_calls() < cold.total_sat_calls());
        for (c, w) in cold.outputs.iter().zip(&warm.outputs) {
            assert_eq!(c.partition, w.partition, "output {}", c.name);
            assert_eq!(c.solved, w.solved);
        }
        // A different model must not see the MG entries.
        let other = run_model(entry, Model::QbfDisjoint, &opts);
        assert_eq!(other.cache_hits(), 0, "cache keys separate models");
    }

    #[test]
    fn clause_reuse_changes_no_answers_and_hits_the_bank() {
        // The determinism contract: with non-binding budgets, reuse on
        // vs off gives byte-identical verdicts and partitions at any
        // worker count — only the work counters move. The circuit
        // carries both reuse populations: permuted copies (exact
        // channel) and near-twins (cluster channel).
        let e = &registry_table1()[16]; // mm9a: small
        let base = e.build(Scale::Smoke);
        let aig = step_circuits::with_shared_substructure(
            &step_circuits::with_permuted_copies(&base, 2),
            2,
        );
        let unlimited = BudgetPolicy {
            per_qbf_call: Budget::Unlimited,
            per_output: Budget::Unlimited,
            per_circuit: Budget::Unlimited,
        };
        for jobs in [1usize, 2] {
            let run = |clause_reuse: bool| {
                let opts = HarnessOpts {
                    jobs,
                    clause_reuse,
                    store: Arc::new(TieredStore::memory(
                        None,
                        clause_reuse.then(|| Arc::new(ClauseBank::new())),
                    )),
                    budget: unlimited,
                    ..smoke_opts()
                };
                let service = opts.service();
                let r = service
                    .submit(&aig, opts.op, opts.config(Model::QbfDisjoint))
                    .expect("stand-in circuits are well-formed")
                    .join()
                    .expect("run completes");
                (r, opts)
            };
            let (off, _) = run(false);
            let (on, on_opts) = run(true);
            assert_eq!(off.outputs.len(), on.outputs.len());
            for (x, y) in off.outputs.iter().zip(&on.outputs) {
                assert_eq!(x.partition, y.partition, "jobs={jobs} output {}", x.name);
                assert_eq!(x.solved, y.solved, "jobs={jobs} output {}", x.name);
                assert_eq!(x.proved_optimal, y.proved_optimal);
            }
            assert_eq!(off.clause_bank_hits(), 0, "reuse off books no hits");
            assert!(
                on.clause_bank_hits() > 0,
                "jobs={jobs}: the twin population must hit the bank"
            );
            assert!(on.donated_clauses() > 0, "completed outputs donate");
            let bank = on_opts.store.bank().expect("reuse on builds a bank");
            assert!(bank.donations() > 0 && !bank.is_empty());
        }
    }

    #[test]
    fn persistent_store_warms_a_second_sweep() {
        // Two sweeps sharing a --cache-dir store through fresh
        // HarnessOpts each time (no shared memory tier): the second
        // sweep's records report disk hits and a warm store_loaded
        // count, and its answers match the cold sweep exactly.
        let dir = std::env::temp_dir().join(format!(
            "step-bench-warm-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let entry = &registry_table1()[16]; // mm9a: small
        let run = || {
            let cache = Some(Arc::new(ResultCache::new()));
            let opts = HarnessOpts {
                store: Arc::new(TieredStore::with_disk(cache, None, &dir).expect("temp store")),
                ..smoke_opts()
            };
            let r = run_model(entry, Model::MusGroup, &opts);
            opts.store.flush().expect("flush");
            let rec = BenchRecord::of(Model::MusGroup, entry.name, &r, &opts);
            (r, rec)
        };
        let (cold, cold_rec) = run();
        let (warm, warm_rec) = run();
        assert_eq!(cold_rec.disk_hits, 0, "nothing on disk yet");
        assert_eq!(cold_rec.store_loaded, 0);
        assert!(
            warm_rec.disk_hits > 0,
            "the second sweep must be served from disk"
        );
        assert!(warm_rec.store_loaded > 0, "the store loaded the flush");
        for (c, w) in cold.outputs.iter().zip(&warm.outputs) {
            assert_eq!(c.partition, w.partition, "output {}", c.name);
            assert_eq!(c.solved, w.solved);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_jobs_match_sequential() {
        let entry = &registry_table1()[17]; // mm9b: small
        let seq = smoke_opts();
        let par = HarnessOpts {
            jobs: 4,
            ..smoke_opts()
        };
        let a = run_model(entry, Model::QbfDisjoint, &seq);
        let b = run_model(entry, Model::QbfDisjoint, &par);
        assert_eq!(a.outputs.len(), b.outputs.len());
        for (x, y) in a.outputs.iter().zip(&b.outputs) {
            assert_eq!(x.partition, y.partition, "output {}", x.name);
            assert_eq!(x.solved, y.solved);
            assert_eq!(x.proved_optimal, y.proved_optimal);
        }
    }
}
