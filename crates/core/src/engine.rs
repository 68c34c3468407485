//! The STEP circuit driver: a work-queue over per-output
//! [`SolveSession`]s with the model roster of the paper's evaluation
//! (LJH, STEP-MG, STEP-QD, STEP-QB, STEP-QDB).
//!
//! The engine layer is split in two:
//!
//! * [`OutputJob`] — the pure description of one
//!   unit of work (output index, operator, budgets, seed);
//! * [`SolveSession`] — the per-output state (cone, core formula,
//!   oracle, stats) that executes a job, running the configured
//!   model's search through one `match` on [`Model`](crate::spec::Model).
//!
//! Circuit-wide runs are driven by the persistent
//! [`StepService`] worker pool, the only circuit driver:
//! [`BiDecomposer::decompose_circuit`] is a wrapper that submits to an
//! ephemeral service over the engine's [`TieredStore`] with
//! [`DecompConfig::jobs`] workers and joins (long-running callers
//! submit to a shared service instead — see [`crate::service`]).
//! Workers claim output indices
//! from a per-submission atomic counter, all honor one circuit
//! deadline, results land in output order, and statistics aggregate at
//! join. Per-output results are a pure function of
//! `(cone, op, config)` — every cone is solved in canonical input
//! order and the simulation seed derives from
//! [`cone_seed`](crate::job::cone_seed) over the cone's canonical
//! fingerprint, never from visitation order — so `jobs = 1` and
//! `jobs = N` produce identical results (wall-clock timeouts aside —
//! and under pure [`Budget::Work`](crate::spec::Budget::Work) budgets
//! even the timeouts are identical, see [`crate::effort`]),
//! and structurally identical cones produce identical results wherever
//! they appear. The store's optional [`ResultCache`] exploits exactly
//! that purity (see [`crate::cache`]).

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use step_aig::Aig;
use step_sat::EffortStats;

use crate::cache::{CacheLookup, ResultCache};
use crate::clause_bank::BankLookup;
use crate::extract::Decomposition;
use crate::job::OutputJob;
use crate::partition::VarPartition;
use crate::service::StepService;
use crate::session::SolveSession;
use crate::spec::{DecompConfig, GateOp};
use crate::store::TieredStore;

/// Errors from the decomposition driver and service.
///
/// Marked `#[non_exhaustive]`: the service front-end grows error kinds
/// over time (Cancelled arrived with [`StepService`]), so downstream
/// matches need a wildcard arm.
///
/// [`StepService`]: crate::service::StepService
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum StepError {
    /// The circuit has latches; convert with [`Aig::comb`] first (the
    /// circuit-level API does this automatically).
    NotCombinational,
    /// The output index is out of range.
    OutputOutOfRange(usize),
    /// The submission was cancelled (via
    /// [`SubmissionHandle::cancel`](crate::service::SubmissionHandle::cancel)
    /// or by dropping its service) before this work completed.
    Cancelled,
    /// An internal invariant failed (a bug — e.g. a verified partition
    /// failed extraction), or a worker panic caught at the service's
    /// pool boundary.
    Internal(String),
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::NotCombinational => write!(f, "circuit has latches; run comb() first"),
            StepError::OutputOutOfRange(i) => write!(f, "output index {i} out of range"),
            StepError::Cancelled => write!(f, "submission cancelled"),
            StepError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl Error for StepError {}

/// Result of decomposing one primary output.
#[derive(Clone, Debug)]
pub struct OutputResult {
    /// Output name.
    pub name: String,
    /// Output index in the circuit.
    pub output_index: usize,
    /// Support size of the output cone.
    pub support: usize,
    /// The best partition found (`None` = not decomposable or budget
    /// expired before any partition was found).
    pub partition: Option<VarPartition>,
    /// The extracted functions, when requested and within budget.
    pub decomposition: Option<Decomposition>,
    /// The QBF models proved this partition metric-optimal (always
    /// `false` for LJH/STEP-MG, which are heuristic).
    pub proved_optimal: bool,
    /// The model reached a definite answer within budget: an optimum
    /// (QBF models), a heuristic partition (LJH/MG), or a proof of
    /// non-decomposability.
    pub solved: bool,
    /// A budget expired somewhere.
    pub timed_out: bool,
    /// Wall-clock time spent on this output.
    pub cpu: Duration,
    /// SAT oracle calls (seed search, LJH growth, checks). Zero when
    /// the result was served from the cache.
    pub sat_calls: u64,
    /// QBF solves in the optimum search.
    pub qbf_calls: u32,
    /// Total CEGAR iterations across QBF solves.
    pub cegar_iterations: u64,
    /// Solver effort this output's search spent (oracle SAT calls, MUS
    /// extraction and QBF inner-SAT work alike) — the quantity `Work`
    /// budgets meter, machine-independent unlike `cpu`. Zero when the
    /// result was served from the cache.
    pub effort: EffortStats,
    /// How this output's solve interacted with the result cache.
    pub cache: CacheLookup,
    /// How this output's solve interacted with the clause bank /
    /// oracle pool (always `Bypass` when clause reuse is off).
    pub bank: BankLookup,
    /// Donated clauses imported (verbatim or vetted-through) before
    /// this output's first oracle check.
    pub imported_clauses: u64,
    /// Clauses this output donated to the bank after solving.
    pub donated_clauses: u64,
    /// Artifacts this output was served from the persistent store tier
    /// (results, clause snapshots and probe certificates alike; always
    /// zero without a disk tier, see [`TieredStore::with_disk`]).
    pub disk_hits: u64,
    /// The cone's canonical fingerprint hash (the cache/store key),
    /// when the solve got far enough to canonicalize — the exact-match
    /// key of the service's cost model. `None` for trivial cones and
    /// budget-skipped outputs.
    pub fingerprint: Option<u128>,
}

impl OutputResult {
    /// An empty result shell for output `output_index` (all statistics
    /// zero, nothing solved yet).
    pub(crate) fn pending(name: String, output_index: usize, support: usize) -> Self {
        OutputResult {
            name,
            output_index,
            support,
            partition: None,
            decomposition: None,
            proved_optimal: false,
            solved: false,
            timed_out: false,
            cpu: Duration::ZERO,
            sat_calls: 0,
            qbf_calls: 0,
            cegar_iterations: 0,
            effort: EffortStats::default(),
            cache: CacheLookup::Bypass,
            bank: BankLookup::Bypass,
            imported_clauses: 0,
            donated_clauses: 0,
            disk_hits: 0,
            fingerprint: None,
        }
    }

    /// The placeholder for an output the circuit budget never reached.
    /// `support` is the real cone support size, so skipped outputs are
    /// not mistaken for constant functions in per-support statistics.
    pub(crate) fn budget_exhausted(name: String, output_index: usize, support: usize) -> Self {
        let mut r = OutputResult::pending(name, output_index, support);
        r.timed_out = true;
        r
    }

    /// Whether a (non-trivial) decomposition exists for this output.
    pub fn is_decomposed(&self) -> bool {
        self.partition.is_some()
    }
}

/// Result of decomposing every primary output of a circuit.
#[derive(Clone, Debug)]
pub struct CircuitResult {
    /// Per-output results, in output order (regardless of which worker
    /// solved which output).
    pub outputs: Vec<OutputResult>,
    /// Wall-clock time from the submission's first claimed output to
    /// its last reported one.
    pub cpu: Duration,
    /// Time the submission sat queued before its first output was
    /// claimed — the provenance signal behind the bench harness's
    /// `queue_wait_s`.
    pub queue_wait: Duration,
    /// A budget expired somewhere (the circuit deadline, or any
    /// per-output budget).
    pub timed_out: bool,
}

impl CircuitResult {
    /// Number of decomposed outputs (the `#Dec` column of Table III).
    pub fn num_decomposed(&self) -> usize {
        self.outputs.iter().filter(|o| o.is_decomposed()).count()
    }

    /// Fraction of solved outputs (Table IV).
    ///
    /// A circuit with no primary outputs has no well-defined ratio and
    /// returns [`f64::NAN`] — aggregations merging sweep shards must
    /// skip it (averaging in a fake `1.0` would inflate the totals).
    pub fn solved_ratio(&self) -> f64 {
        if self.outputs.is_empty() {
            return f64::NAN;
        }
        self.outputs.iter().filter(|o| o.solved).count() as f64 / self.outputs.len() as f64
    }

    /// Total SAT oracle calls across all outputs.
    pub fn total_sat_calls(&self) -> u64 {
        self.outputs.iter().map(|o| o.sat_calls).sum()
    }

    /// Total QBF solves across all outputs.
    pub fn total_qbf_calls(&self) -> u64 {
        self.outputs.iter().map(|o| u64::from(o.qbf_calls)).sum()
    }

    /// Total CEGAR iterations across all outputs.
    pub fn total_cegar_iterations(&self) -> u64 {
        self.outputs.iter().map(|o| o.cegar_iterations).sum()
    }

    /// Total solver effort across all outputs — the work-budget
    /// analogue of `cpu`. (Like the cache counters, scheduling can
    /// shift *where* effort is booked under `jobs > 1` with a shared
    /// cache; the per-output answers never change.)
    pub fn total_effort(&self) -> EffortStats {
        self.outputs
            .iter()
            .fold(EffortStats::default(), |acc, o| acc + o.effort)
    }

    /// Outputs served from the result cache in this run.
    pub fn cache_hits(&self) -> u64 {
        self.count_cache(CacheLookup::Hit)
    }

    /// Outputs that consulted the result cache and missed in this run.
    pub fn cache_misses(&self) -> u64 {
        self.count_cache(CacheLookup::Miss)
    }

    fn count_cache(&self, want: CacheLookup) -> u64 {
        self.outputs.iter().filter(|o| o.cache == want).count() as u64
    }

    /// Outputs seeded from the clause bank or a pooled oracle in this
    /// run (exact, cluster and pooled reuse alike).
    pub fn clause_bank_hits(&self) -> u64 {
        self.outputs.iter().filter(|o| o.bank.is_hit()).count() as u64
    }

    /// Total clauses imported from donors across all outputs.
    pub fn imported_clauses(&self) -> u64 {
        self.outputs.iter().map(|o| o.imported_clauses).sum()
    }

    /// Total clauses donated to the bank across all outputs.
    pub fn donated_clauses(&self) -> u64 {
        self.outputs.iter().map(|o| o.donated_clauses).sum()
    }

    /// Total artifacts served from the persistent store tier across
    /// all outputs (results + clause snapshots + probe certificates).
    pub fn disk_hits(&self) -> u64 {
        self.outputs.iter().map(|o| o.disk_hits).sum()
    }
}

/// The STEP bi-decomposition engine.
///
/// ```
/// use step_aig::Aig;
/// use step_core::{BiDecomposer, DecompConfig, GateOp, Model};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input("a");
/// let b = aig.add_input("b");
/// let c = aig.add_input("c");
/// let d = aig.add_input("d");
/// let ab = aig.and(a, b);
/// let cd = aig.and(c, d);
/// let f = aig.or(ab, cd);
/// aig.add_output("f", f);
///
/// let engine = BiDecomposer::new(DecompConfig::new(Model::QbfDisjoint));
/// let r = engine.decompose_output(&aig, 0, GateOp::Or).unwrap();
/// let p = r.partition.expect("decomposable");
/// assert_eq!(p.num_shared(), 0, "(ab)|(cd) splits disjointly");
/// assert!(r.proved_optimal);
/// ```
#[derive(Debug)]
pub struct BiDecomposer {
    config: DecompConfig,
    store: Arc<TieredStore>,
}

impl BiDecomposer {
    /// Creates an engine with the given configuration over an empty
    /// memory store (no result cache, no clause bank); attach reuse
    /// tiers with [`BiDecomposer::set_store`].
    pub fn new(config: DecompConfig) -> Self {
        BiDecomposer {
            config,
            store: Arc::default(),
        }
    }

    /// Replaces the store with a memory-only one over `cache` — the
    /// shorthand for `set_store(TieredStore::memory(Some(cache), None))`.
    /// The same `Arc` can be shared by many engines (e.g. a whole
    /// benchmark sweep): entries key on the result namespace, which
    /// names every result-relevant config field.
    pub fn set_cache(&mut self, cache: Arc<ResultCache>) {
        self.store = Arc::new(TieredStore::memory(Some(cache), None));
    }

    /// Attaches a fully built [`TieredStore`]: its result cache, clause
    /// bank ([`DecompConfig::clause_reuse`] must also be on for sessions
    /// to consult it; without a bank each run gets its own) and disk
    /// tier serve every run of this engine. Share one `Arc` across
    /// engines so the store loads once per process.
    pub fn set_store(&mut self, store: Arc<TieredStore>) {
        self.store = store;
    }

    /// The store every run of this engine routes through.
    pub fn store(&self) -> &Arc<TieredStore> {
        &self.store
    }

    /// The active configuration.
    pub fn config(&self) -> &DecompConfig {
        &self.config
    }

    /// Mutable access to the configuration.
    pub fn config_mut(&mut self) -> &mut DecompConfig {
        &mut self.config
    }

    /// Decomposes primary output `out_idx` of `aig` under `op`.
    ///
    /// # Errors
    ///
    /// [`StepError::NotCombinational`] if the AIG has latches,
    /// [`StepError::OutputOutOfRange`] for a bad index,
    /// [`StepError::Internal`] on internal inconsistencies.
    pub fn decompose_output(
        &self,
        aig: &Aig,
        out_idx: usize,
        op: GateOp,
    ) -> Result<OutputResult, StepError> {
        let job = OutputJob::new(&self.config, out_idx, op);
        let (store, pool) = self.store.for_run(self.config.clause_reuse);
        let result = SolveSession::new(aig, job, &self.config, &store, pool.as_ref())?.run();
        // Persist what this call learned (best-effort: a full disk must
        // not turn a solved output into an error).
        let _ = store.flush();
        result
    }

    /// Decomposes every primary output of `circuit` under `op`,
    /// converting sequential circuits combinationally (the paper's ABC
    /// `comb` step) and enforcing the per-circuit budget.
    ///
    /// This is a thin wrapper over the service API: it spins up an
    /// ephemeral [`StepService`] over this engine's store with
    /// [`DecompConfig::jobs`] workers (clamped to the output count),
    /// submits the circuit and joins. Per-output computation is
    /// deterministic regardless of scheduling (see the module docs), so
    /// the result is identical for any `jobs` value; long-running
    /// callers should keep one [`StepService`] and use
    /// [`decompose_circuit_on`](BiDecomposer::decompose_circuit_on) (or
    /// [`StepService::submit`] directly) to amortize the pool.
    ///
    /// # Errors
    ///
    /// [`StepError::Internal`] on internal inconsistencies (dangling
    /// latches surface here too). Errors fail fast: workers stop
    /// claiming new outputs once any output has failed, and the error
    /// reported is the one from the lowest-indexed failing output.
    pub fn decompose_circuit(&self, circuit: &Aig, op: GateOp) -> Result<CircuitResult, StepError> {
        let aig = StepService::comb_arc(circuit)?;
        let workers = self.config.jobs.min(aig.num_outputs()).max(1);
        StepService::spawn_with_store(workers, Arc::clone(&self.store))
            .submit_shared(aig, op, self.config.clone())?
            .join()
    }

    /// [`decompose_circuit`](BiDecomposer::decompose_circuit) on a
    /// caller-supplied (typically long-running) service: submit with
    /// this engine's configuration and block for the output-ordered
    /// result. Sessions use the *service's* store — the shared pool
    /// owns the shared reuse tiers; this engine's store only serves
    /// [`decompose_output`](BiDecomposer::decompose_output) and the
    /// ephemeral pools of
    /// [`decompose_circuit`](BiDecomposer::decompose_circuit).
    pub fn decompose_circuit_on(
        &self,
        service: &StepService,
        circuit: &Aig,
        op: GateOp,
    ) -> Result<CircuitResult, StepError> {
        // One clone into the submission's shared allocation (and no
        // second comb conversion when the caller already converted).
        let aig = StepService::comb_arc(circuit)?;
        service.submit_shared(aig, op, self.config.clone())?.join()
    }
}
