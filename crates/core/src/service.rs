//! [`StepService`] — the persistent decomposition service: job
//! submission, streaming results and cancellation.
//!
//! The service is the only code that runs a whole circuit: the one-shot
//! [`BiDecomposer::decompose_circuit`] submits to an ephemeral service
//! and joins. The paper's workload (sweeps of many circuits × five
//! models) is embarrassingly parallel *across* calls too, so a
//! long-lived `StepService`
//! owns a pool of worker threads **spawned once** and a queue of
//! submissions, each submission being one `(circuit, op, config)`
//! decomposition request. Workers claim [`OutputJob`]-shaped units
//! (one primary output at a time) from the highest-priority queued
//! submission: already-started submissions drain first (the pop is
//! non-preemptive — a started submission's per-circuit budget is
//! anchored and ticking, so nothing may jump ahead of it), then
//! earliest explicit deadline ([`StepService::submit_with_deadline`]),
//! then FIFO among submissions without deadlines. A single large
//! circuit thus fans out over the whole pool, and independent
//! submissions drain through the same pool
//! back-to-back, which is what lets the `table3`/`fig1` harnesses
//! shard their whole model × circuit product instead of parallelizing
//! only within a circuit.
//!
//! [`StepService::submit`] returns a [`SubmissionHandle`]:
//!
//! * **streaming** — [`SubmissionHandle::recv`] (or the handle's
//!   [`Iterator`] impl) yields one [`OutputEvent`] per primary output
//!   in *completion* order, as results land;
//! * **blocking** — [`SubmissionHandle::join`] waits for the whole
//!   circuit and reproduces the output-ordered [`CircuitResult`] of
//!   the legacy `decompose_circuit` exactly (events already consumed
//!   via `recv` are folded back in — mixing the two styles is fine);
//! * **cancellation** — [`SubmissionHandle::cancel`] stops further
//!   outputs of that submission from being claimed; `join` then
//!   returns [`StepError::Cancelled`]. In-flight outputs run to
//!   completion (they are bounded by their per-output budgets), and
//!   the pool immediately moves on to other submissions — cancelling
//!   one job never wedges the service.
//!
//! **Multi-tenant scheduling.** [`StepService::submit_with`] tags a
//! submission with a tenant name and a predicted cost
//! ([`SubmitOptions`]). Among queued *deadline-less, unstarted*
//! submissions from two or more distinct tenants, the pop switches
//! from FIFO to **deficit round-robin**: tenants take turns, each
//! turn's deficit grows by a quantum derived from the queued head
//! costs, and a tenant's cheapest head runs when its deficit covers
//! it — so a tenant flooding the queue with expensive circuits cannot
//! starve another's small ones. Costs come from the
//! [`CostModel`] (fingerprint history and
//! support-bucket EWMAs learned from every completed solve). Untagged
//! submissions keep plain FIFO among themselves and participate in
//! the rotation as one anonymous group. Started submissions still
//! drain first and explicit deadlines still beat everything unstarted
//! — fairness reorders the idle tail, never a ticking budget.
//!
//! **Determinism.** Per-output results are a pure function of
//! `(cone, op, config)` (canonical solving order + fingerprint-derived
//! sim seeds, see [`crate::session`]), so a service with any worker
//! count returns byte-identical per-output results — `jobs = 1` ≡
//! `jobs = N`, with or without the store's shared
//! [`ResultCache`](crate::ResultCache), queued behind any other
//! submissions. The per-circuit budget anchors when
//! a submission's *first* output is claimed, not at submit time, so
//! queue wait never eats a submission's budget; its work component is
//! sliced per output through a two-phase
//! [`WorkLedger`] reservation that replays
//! the sequential debit order, so under pure
//! [`Budget::Work`](crate::spec::Budget::Work) budgets — per-output
//! *and* per-circuit — even truncation verdicts are identical for any
//! worker count (see [`crate::effort`]).
//!
//! **Fault containment.** A panicking solve is caught at the pool
//! boundary ([`std::panic::catch_unwind`]) and surfaced as
//! [`StepError::Internal`] on the owning submission only; the worker
//! thread and the service survive and keep serving other submissions.
//!
//! [`BiDecomposer::decompose_circuit`]: crate::BiDecomposer::decompose_circuit
//! [`OutputJob`]: crate::job::OutputJob

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use step_aig::Aig;

use crate::cache::CacheLookup;
use crate::clause_bank::OraclePool;
use crate::effort::{CircuitBudget, WorkLedger, WorkPool};
use crate::engine::{CircuitResult, OutputResult, StepError};
use crate::job::OutputJob;
use crate::predict::CostModel;
use crate::session::SolveSession;
use crate::spec::{DecompConfig, GateOp};
use crate::store::TieredStore;

/// Identifies one submission within its service (monotonically
/// increasing per service instance; shown in logs and events).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SubmissionId(u64);

impl fmt::Display for SubmissionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub#{}", self.0)
    }
}

/// One streamed result: a primary output of a submission finished (or
/// failed, or was skipped by cancellation).
#[derive(Clone, Debug)]
pub struct OutputEvent {
    /// The submission this output belongs to.
    pub submission: SubmissionId,
    /// Index of the primary output within the submitted circuit.
    pub output_index: usize,
    /// The output's result. `Err(StepError::Cancelled)` marks an
    /// output skipped because the submission was cancelled (or its
    /// service dropped) before this output was solved; other errors
    /// are real failures of this output's solve.
    pub result: Result<OutputResult, StepError>,
}

/// Per-submission scheduling options for
/// [`StepService::submit_with`]: everything [`StepService::submit`]
/// defaults, in one bag.
#[derive(Clone, Debug, Default)]
pub struct SubmitOptions {
    /// Absolute completion deadline (EDF queue priority; outputs not
    /// solved by it report as timed out). Only ever tightens the
    /// per-circuit budget.
    pub deadline: Option<Instant>,
    /// The submitting tenant, for deficit-round-robin fair-share
    /// ordering against other tenants' queued work. `None` keeps the
    /// legacy FIFO behaviour.
    pub tenant: Option<Arc<str>>,
    /// Predicted total conflicts for this submission. `None` asks the
    /// service to estimate from its [`CostModel`] (support-size walk
    /// over every output); ignored for untagged submissions, which do
    /// not participate in cost-aware ordering.
    pub cost_hint: Option<u64>,
}

/// How a submission's circuit-wide deadline is derived.
enum DeadlinePolicy {
    /// `first claim + config.budget.per_circuit` (the legacy rule).
    Budget,
    /// An absolute caller-supplied instant, additionally capped by the
    /// per-circuit budget. Also the submission's queue priority:
    /// deadlined submissions are claimed earliest-deadline-first.
    Explicit(Instant),
}

/// Shared state of one submission: the work description plus the claim
/// counter, flags and the event channel workers report through.
struct Submission {
    id: SubmissionId,
    aig: Arc<Aig>,
    op: GateOp,
    config: DecompConfig,
    deadline_policy: DeadlinePolicy,
    /// The work component of the per-circuit budget: a two-phase
    /// reservation ledger slicing the budget across outputs in
    /// sequential order, so truncation verdicts are deterministic at
    /// any worker count. Created at submit (work needs no anchoring —
    /// queue wait costs none).
    ledger: Option<Arc<WorkLedger>>,
    /// The submitting tenant, if the caller tagged one
    /// ([`SubmitOptions::tenant`]) — the deficit-round-robin grouping
    /// key.
    tenant: Option<Arc<str>>,
    /// Predicted total conflicts (0 for untagged submissions, which
    /// keep pure FIFO order) — the cost-aware ordering key and the
    /// DRR deficit currency.
    cost: u64,
    /// Anchored when the first output is claimed (so queue wait does
    /// not consume the per-circuit budget).
    started: OnceLock<Instant>,
    /// Stamped when the last event is delivered, so a handle joined
    /// long after completion still reports the true wall clock.
    finished: OnceLock<Instant>,
    submitted: Instant,
    n_out: usize,
    /// Claim counter: `fetch_add` hands out output indices.
    next: AtomicUsize,
    /// The service's store, plus under clause reuse a
    /// submission-scoped bank when the service's store has none.
    store: TieredStore,
    /// This submission's own oracle pool (`Some` iff
    /// `config.clause_reuse`). The pool is per-submission by design:
    /// pooled oracles embed solver knobs from one `DecompConfig` and
    /// may not cross submissions.
    pool: Option<OraclePool>,
    /// Set by [`SubmissionHandle::cancel`] (or service drop).
    cancelled: AtomicBool,
    /// Set when any output of this submission failed; remaining
    /// outputs are skipped (the legacy fail-fast rule).
    poisoned: AtomicBool,
    /// Events delivered so far; the sender drops (closing the channel)
    /// when this reaches `n_out`.
    sent: AtomicUsize,
    events: Mutex<Option<Sender<OutputEvent>>>,
}

impl Submission {
    /// The circuit-scope limits for output `idx`, anchoring the wall
    /// component of the per-circuit budget at the first claim. The
    /// work component is this output's slice of the per-circuit pool,
    /// reserved from the [`WorkLedger`] (may block until predecessors
    /// commit — see [`crate::effort`]) and wrapped in a private
    /// [`WorkPool`] so the session's meter needs no new plumbing.
    fn circuit_budget_for(&self, idx: usize) -> CircuitBudget {
        let start = *self.started.get_or_init(Instant::now);
        let budget = self.config.budget.per_circuit.wall().map(|d| start + d);
        let deadline = match self.deadline_policy {
            DeadlinePolicy::Budget => budget,
            DeadlinePolicy::Explicit(d) => Some(match budget {
                Some(b) => d.min(b),
                None => d,
            }),
        };
        let work = self
            .ledger
            .as_ref()
            .map(|l| Arc::new(WorkPool::new(l.reserve(idx))));
        CircuitBudget { deadline, work }
    }

    /// Commits output `idx`'s spend to the work ledger (0 on every
    /// skip path, so blocked reservations always wake).
    fn commit_work(&self, idx: usize, spent: u64) {
        if let Some(ledger) = &self.ledger {
            ledger.commit(idx, spent);
        }
    }

    /// The queue priority: an explicit deadline, if the caller set
    /// one. Queued submissions are claimed earliest-deadline-first;
    /// submissions without deadlines keep FIFO order (by id) among
    /// themselves, behind any deadlined ones.
    fn queue_deadline(&self) -> Option<Instant> {
        match self.deadline_policy {
            DeadlinePolicy::Budget => None,
            DeadlinePolicy::Explicit(d) => Some(d),
        }
    }

    /// The queue ordering key (smaller claims first): *started*
    /// submissions drain before anything else starts, then earliest
    /// explicit deadline (deadlined before deadline-less), then
    /// predicted cost (cheapest first; always 0 for untagged
    /// submissions, so they keep pure FIFO), then submission id.
    ///
    /// The trailing id is the documented deterministic tie-break: ids
    /// are monotone per service, so two submissions with equal
    /// deadlines (or equal costs, or none of either) are always
    /// claimed in submission order — the pop is a total order with no
    /// scheduling-dependent coin flips.
    ///
    /// The started-first rule makes the EDF pop **non-preemptive**: a
    /// submission's per-circuit budget anchors at its first claim, so
    /// once any output has been claimed, letting later (even tighter-
    /// deadline) arrivals jump ahead would bill the started submission
    /// for time it never got — the starvation the budget anchoring
    /// exists to prevent. Until that first claim, jumping the queue is
    /// free, which is exactly the window EDF (and the deficit
    /// round-robin layered above it, see the module docs) reorders.
    #[allow(clippy::type_complexity)]
    fn queue_rank(&self) -> (bool, u8, Option<Instant>, u64, u64) {
        // `false < true`, so started submissions (some claim handed
        // out) rank first.
        let unstarted = self.next.load(Ordering::Acquire) == 0;
        // Cost participates only for tenant-tagged submissions:
        // untagged ones promised FIFO, and their cost field is 0.
        let cost = if self.tenant.is_some() { self.cost } else { 0 };
        match self.queue_deadline() {
            Some(d) => (unstarted, 0, Some(d), cost, self.id.0),
            None => (unstarted, 1, None, cost, self.id.0),
        }
    }

    /// Whether `self` should be claimed before `other` (the
    /// non-preemptive EDF rule — see [`Submission::queue_rank`]).
    fn claims_before(&self, other: &Submission) -> bool {
        self.queue_rank() < other.queue_rank()
    }

    /// Whether claimed outputs should be skipped instead of solved.
    fn skip_work(&self) -> bool {
        self.cancelled.load(Ordering::Acquire) || self.poisoned.load(Ordering::Acquire)
    }

    /// Delivers one event and closes the channel after the last one.
    /// Exactly one event is sent per claimed output index, so the
    /// channel closes if and only if every output is accounted for.
    fn send_event(&self, output_index: usize, result: Result<OutputResult, StepError>) {
        let mut guard = self.events.lock().expect("event sender lock");
        if let Some(tx) = guard.as_ref() {
            // The receiver may be gone (handle dropped without join);
            // delivery is best-effort, accounting still proceeds.
            let _ = tx.send(OutputEvent {
                submission: self.id,
                output_index,
                result,
            });
        }
        if self.sent.fetch_add(1, Ordering::AcqRel) + 1 == self.n_out {
            let _ = self.finished.set(Instant::now());
            *guard = None;
        }
    }

    /// Claims and skips every remaining output (cancellation path).
    /// Each skipped index commits zero spend to the work ledger so
    /// reservations blocked on it wake up.
    fn drain_cancelled(&self) {
        loop {
            let idx = self.next.fetch_add(1, Ordering::AcqRel);
            if idx >= self.n_out {
                break;
            }
            self.commit_work(idx, 0);
            self.send_event(idx, Err(StepError::Cancelled));
        }
    }
}

/// Deficit-round-robin bookkeeping for tenant fair-share (guarded by
/// the queue mutex; `None` keys are the anonymous untagged group).
#[derive(Default)]
struct DrrState {
    /// Tenant visiting order; the front is served next, a served
    /// tenant rotates to the back.
    rotation: VecDeque<Option<Arc<str>>>,
    /// Unspent credit per tenant, in predicted conflicts. Removed
    /// (reset to zero) whenever a tenant's queue empties — the classic
    /// DRR rule that stops idle tenants from banking unbounded credit.
    deficit: HashMap<Option<Arc<str>>, u64>,
}

/// The submission queue plus the scheduling state that must move in
/// lockstep with it.
struct QueueState {
    items: VecDeque<Arc<Submission>>,
    drr: DrrState,
}

/// Picks the queue index to claim from next, or `None` when idle:
/// started submissions first, then EDF among deadlined unstarted
/// ones, then — when two or more distinct tenants have deadline-less
/// unstarted work queued — deficit round-robin across tenants;
/// otherwise the plain rank order (FIFO for untagged, cheapest-first
/// within a single tenant).
fn select_next(state: &mut QueueState) -> Option<usize> {
    let items = &state.items;
    let mut best: Option<usize> = None;
    for (i, s) in items.iter().enumerate() {
        if best.is_none_or(|b| s.claims_before(&items[b])) {
            best = Some(i);
        }
    }
    let b = best?;
    let (unstarted, group, ..) = items[b].queue_rank();
    if !unstarted || group == 0 {
        // A started submission is draining, or a deadline is in play:
        // fairness never overrides either.
        return Some(b);
    }
    // Head (best-ranked submission) and its cost per tenant group
    // among the deadline-less unstarted candidates.
    let mut heads: Vec<(Option<Arc<str>>, usize)> = Vec::new();
    for (i, s) in items.iter().enumerate() {
        let (unstarted, group, ..) = s.queue_rank();
        if !unstarted || group != 1 {
            continue;
        }
        match heads.iter_mut().find(|(t, _)| *t == s.tenant) {
            Some((_, head)) => {
                if s.claims_before(&items[*head]) {
                    *head = i;
                }
            }
            None => heads.push((s.tenant.clone(), i)),
        }
    }
    let tenants = heads.iter().filter(|(t, _)| t.is_some()).count();
    if tenants < 2 {
        return Some(b);
    }
    let drr = &mut state.drr;
    // Tenants with nothing queued leave the rotation and forfeit any
    // banked deficit; new ones join at the back in first-seen order.
    drr.rotation.retain(|t| heads.iter().any(|(ht, _)| ht == t));
    drr.deficit
        .retain(|t, _| heads.iter().any(|(ht, _)| ht == t));
    for (t, _) in &heads {
        if !drr.rotation.contains(t) {
            drr.rotation.push_back(t.clone());
        }
    }
    let cost_of = |i: usize| {
        if items[i].tenant.is_some() {
            items[i].cost
        } else {
            0
        }
    };
    let min_cost = heads.iter().map(|&(_, i)| cost_of(i)).min().unwrap_or(0);
    let max_cost = heads.iter().map(|&(_, i)| cost_of(i)).max().unwrap_or(0);
    // Large enough that the cheapest queued head always fits within
    // one visit, and that even the dearest fits within ~64 rotations.
    let quantum = 1u64.max(min_cost).max(max_cost / 64);
    loop {
        let tenant = drr.rotation.front().cloned().expect("nonempty rotation");
        let head = heads
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|&(_, i)| i)
            .expect("rotation pruned to queued tenants");
        let credit = drr.deficit.entry(tenant).or_insert(0);
        *credit = credit.saturating_add(quantum);
        if cost_of(head) <= *credit {
            *credit -= cost_of(head);
            drr.rotation.rotate_left(1);
            return Some(head);
        }
        drr.rotation.rotate_left(1);
    }
}

/// State shared between the service front-end and its workers.
struct ServiceShared {
    queue: Mutex<QueueState>,
    work: Condvar,
    shutdown: AtomicBool,
    /// Conflict-cost estimator fed by every completed solve; prices
    /// untagged cost estimates at submit and the serve front-end's
    /// admission charges.
    cost_model: Arc<CostModel>,
    /// The tiered artifact store every session of every submission
    /// routes through: the service-wide result cache and clause bank
    /// as tier 0 (either may be absent — a store without a bank gives
    /// each reuse submission its own submission-scoped one), plus the
    /// persistent tier when the service was spawned over one. Loaded
    /// at spawn, flushed at shutdown.
    store: Arc<TieredStore>,
    next_id: AtomicU64,
}

/// A long-running decomposition service: a persistent worker pool fed
/// by a queue of circuit submissions (non-preemptive
/// earliest-deadline-first: started submissions drain first, then
/// deadlined ones by deadline, then FIFO). See the module docs.
///
/// ```
/// use std::sync::Arc;
/// use step_aig::Aig;
/// use step_core::{DecompConfig, GateOp, Model, StepService};
///
/// let mut aig = Aig::new();
/// let inputs: Vec<_> = (0..4).map(|i| aig.add_input(format!("x{i}"))).collect();
/// let ab = aig.and(inputs[0], inputs[1]);
/// let cd = aig.and(inputs[2], inputs[3]);
/// let f = aig.or(ab, cd);
/// aig.add_output("f", f);
///
/// let service = StepService::spawn_with_store(2, Arc::default());
/// let config = DecompConfig::new(Model::QbfDisjoint);
/// let mut handle = service.submit(&aig, GateOp::Or, config).unwrap();
/// // Stream results in completion order...
/// while let Some(event) = handle.recv() {
///     let r = event.result.unwrap();
///     println!("output {} solved: {}", r.name, r.solved);
/// }
/// // ...and/or join for the output-ordered CircuitResult.
/// let result = handle.join().unwrap();
/// assert_eq!(result.outputs.len(), 1);
/// assert!(result.outputs[0].is_decomposed());
/// ```
pub struct StepService {
    shared: Arc<ServiceShared>,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for StepService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StepService")
            .field("workers", &self.workers.len())
            .field("cache", &self.shared.store.cache().is_some())
            .field("disk", &self.shared.store.disk().is_some())
            .finish()
    }
}

impl StepService {
    /// The one constructor: `workers` persistent threads (at least one)
    /// over an already-assembled [`TieredStore`] that every session of
    /// every submission routes through. Pass `Arc::default()` for no
    /// reuse at all, [`TieredStore::memory`] for a shared result cache
    /// and/or clause bank, or [`TieredStore::with_disk`] (which loads
    /// the directory once) for a persistent tier; the service flushes
    /// dirty entries at shutdown and on [`flush`](StepService::flush).
    pub fn spawn_with_store(workers: usize, store: Arc<TieredStore>) -> Self {
        let shared = Arc::new(ServiceShared {
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                drr: DrrState::default(),
            }),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cost_model: Arc::new(CostModel::new()),
            store,
            next_id: AtomicU64::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("step-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        StepService { shared, workers }
    }

    /// Number of worker threads in the pool.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The tiered store every session of this service routes through.
    pub fn store(&self) -> &Arc<TieredStore> {
        &self.shared.store
    }

    /// The conflict-cost estimator this service learns from every
    /// completed solve — serve front-ends price admission charges with
    /// it.
    pub fn cost_model(&self) -> &Arc<CostModel> {
        &self.shared.cost_model
    }

    /// Number of submissions queued but not yet started (no output
    /// claimed) — the admission-control depth signal.
    pub fn queue_depth(&self) -> usize {
        self.shared
            .queue
            .lock()
            .expect("service queue lock")
            .items
            .iter()
            .filter(|s| s.next.load(Ordering::Acquire) == 0)
            .count()
    }

    /// Flushes the store's dirty persistent-tier entries now (also
    /// done automatically at shutdown); returns the number of records
    /// appended (always 0 without a disk tier).
    ///
    /// # Errors
    ///
    /// I/O errors writing the store files.
    pub fn flush(&self) -> std::io::Result<u64> {
        self.shared.store.flush()
    }

    /// Enqueues one decomposition request: every primary output of
    /// `circuit` under `op` with `config`. Sequential circuits are
    /// converted combinationally first (the paper's ABC `comb` step).
    /// Returns immediately; consume results through the handle.
    ///
    /// Clones the circuit into the submission; callers submitting the
    /// same circuit many times (e.g. one per model) should use
    /// [`submit_shared`](StepService::submit_shared) to share one copy.
    ///
    /// # Errors
    ///
    /// [`StepError::Internal`] if the combinational conversion fails.
    pub fn submit(
        &self,
        circuit: &Aig,
        op: GateOp,
        config: DecompConfig,
    ) -> Result<SubmissionHandle, StepError> {
        self.submit_with(circuit, op, config, SubmitOptions::default())
    }

    /// [`submit`](StepService::submit) with explicit scheduling
    /// options: an absolute deadline, a tenant tag for fair-share
    /// ordering, and/or a predicted cost (see [`SubmitOptions`]).
    ///
    /// # Errors
    ///
    /// [`StepError::Internal`] if the combinational conversion fails.
    pub fn submit_with(
        &self,
        circuit: &Aig,
        op: GateOp,
        config: DecompConfig,
        options: SubmitOptions,
    ) -> Result<SubmissionHandle, StepError> {
        let aig = Self::comb_arc(circuit)?;
        self.submit_inner(aig, op, config, options)
    }

    /// Like [`submit`](StepService::submit), but shares an
    /// already-combinational circuit across submissions without
    /// cloning — sweep harnesses submit one `Arc` per circuit for all
    /// five models.
    ///
    /// # Errors
    ///
    /// [`StepError::NotCombinational`] if the circuit has latches
    /// (convert with [`Aig::comb`] before wrapping in the `Arc`).
    pub fn submit_shared(
        &self,
        circuit: Arc<Aig>,
        op: GateOp,
        config: DecompConfig,
    ) -> Result<SubmissionHandle, StepError> {
        if !circuit.is_comb() {
            return Err(StepError::NotCombinational);
        }
        self.submit_inner(circuit, op, config, SubmitOptions::default())
    }

    /// [`submit_shared`](StepService::submit_shared) with explicit
    /// scheduling options ([`SubmitOptions`]) — the serve front-end's
    /// entry point.
    ///
    /// # Errors
    ///
    /// [`StepError::NotCombinational`] if the circuit has latches.
    pub fn submit_shared_with(
        &self,
        circuit: Arc<Aig>,
        op: GateOp,
        config: DecompConfig,
        options: SubmitOptions,
    ) -> Result<SubmissionHandle, StepError> {
        if !circuit.is_comb() {
            return Err(StepError::NotCombinational);
        }
        self.submit_inner(circuit, op, config, options)
    }

    /// Like [`submit`](StepService::submit), with an absolute
    /// per-submission deadline: outputs not solved by `deadline` are
    /// reported as timed out, exactly as if the per-circuit budget had
    /// expired then. The deadline only tightens the configured
    /// per-circuit budget, never extends it.
    pub fn submit_with_deadline(
        &self,
        circuit: &Aig,
        op: GateOp,
        config: DecompConfig,
        deadline: Instant,
    ) -> Result<SubmissionHandle, StepError> {
        self.submit_with(
            circuit,
            op,
            config,
            SubmitOptions {
                deadline: Some(deadline),
                ..SubmitOptions::default()
            },
        )
    }

    /// Clones `circuit` (converting combinationally if needed) into
    /// the shared allocation a submission carries — the one-time
    /// preparation step for
    /// [`submit_shared`](StepService::submit_shared).
    ///
    /// # Errors
    ///
    /// [`StepError::Internal`] if the combinational conversion fails.
    pub fn comb_arc(circuit: &Aig) -> Result<Arc<Aig>, StepError> {
        Ok(Arc::new(if circuit.is_comb() {
            circuit.clone()
        } else {
            circuit
                .comb()
                .map_err(|e| StepError::Internal(format!("comb conversion failed: {e}")))?
        }))
    }

    fn submit_inner(
        &self,
        aig: Arc<Aig>,
        op: GateOp,
        config: DecompConfig,
        options: SubmitOptions,
    ) -> Result<SubmissionHandle, StepError> {
        let submitted = Instant::now();
        let n_out = aig.num_outputs();
        let (tx, rx) = channel();
        let ledger = config
            .budget
            .per_circuit
            .work()
            .map(|w| Arc::new(WorkLedger::new(w, config.budget.per_output.work(), n_out)));
        let deadline_policy = options
            .deadline
            .map_or(DeadlinePolicy::Budget, DeadlinePolicy::Explicit);
        // Cost-aware ordering only applies to tenant-tagged
        // submissions; the estimate is the caller's hint, else a
        // support-size walk priced by the service's cost model.
        let cost = match &options.tenant {
            Some(_) => options.cost_hint.unwrap_or_else(|| {
                aig.outputs()
                    .iter()
                    .map(|o| {
                        let support = aig.support(o.lit()).len();
                        self.shared.cost_model.predict(None, support)
                    })
                    .sum()
            }),
            None => 0,
        };
        let (store, pool) = self.shared.store.for_run(config.clause_reuse);
        let sub = Arc::new(Submission {
            id: SubmissionId(self.shared.next_id.fetch_add(1, Ordering::Relaxed)),
            aig,
            op,
            config,
            deadline_policy,
            ledger,
            tenant: options.tenant,
            cost,
            started: OnceLock::new(),
            finished: OnceLock::new(),
            submitted,
            n_out,
            store,
            pool,
            next: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            sent: AtomicUsize::new(0),
            // A zero-output circuit has nothing to report: close the
            // channel immediately so recv/join see completion.
            events: Mutex::new(if n_out == 0 { None } else { Some(tx) }),
        });
        if n_out == 0 {
            // Complete on the spot, so cpu measures ~zero rather than
            // however long the caller sits on the handle before join.
            let _ = sub.started.set(submitted);
            let _ = sub.finished.set(Instant::now());
        }
        if n_out > 0 {
            self.shared
                .queue
                .lock()
                .expect("service queue lock")
                .items
                .push_back(Arc::clone(&sub));
            self.shared.work.notify_all();
        }
        Ok(SubmissionHandle {
            sub,
            rx,
            slots: (0..n_out).map(|_| None).collect(),
        })
    }

    /// Shuts the service down: cancels queued submissions (their
    /// handles observe [`StepError::Cancelled`]), lets in-flight
    /// outputs finish and joins the worker threads. Dropping the
    /// service does the same.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for StepService {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Drain the queue so no pending handle blocks forever: every
        // unclaimed output of every queued submission gets a Cancelled
        // event (claims are atomic, so this never races a worker into
        // double-reporting an index).
        let drained: Vec<_> = {
            let mut queue = self.shared.queue.lock().expect("service queue lock");
            queue.items.drain(..).collect()
        };
        for sub in drained {
            sub.cancelled.store(true, Ordering::Release);
            sub.drain_cancelled();
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Workers are gone; persist what the service learned. Best
        // effort — shutdown must not panic over a full disk.
        let _ = self.shared.store.flush();
    }
}

/// The worker loop: claim the next output index from the
/// highest-priority queued submission (started first, then earliest
/// explicit deadline, then the tenant fair-share order — see
/// [`Submission::queue_rank`] and [`select_next`]), solve it, report
/// the event; park on the condvar when the queue is empty.
fn worker_loop(shared: &ServiceShared) {
    loop {
        let claimed = {
            let mut queue = shared.queue.lock().expect("service queue lock");
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Retire submissions whose every index has been handed
                // out (claims also happen outside this lock, on the
                // cancellation drain path).
                queue
                    .items
                    .retain(|s| s.next.load(Ordering::Acquire) < s.n_out);
                let best = select_next(&mut queue);
                let mut found = None;
                if let Some(b) = best {
                    let sub = Arc::clone(&queue.items[b]);
                    let idx = sub.next.fetch_add(1, Ordering::AcqRel);
                    if idx < sub.n_out {
                        found = Some((sub, idx));
                    }
                    // Else a concurrent cancel drain beat us to the
                    // last index; the retain above collects it next
                    // iteration.
                }
                if let Some(claimed) = found {
                    break claimed;
                }
                if best.is_none() {
                    queue = shared.work.wait(queue).expect("service queue lock");
                }
            }
        };
        let (sub, idx) = claimed;
        run_claimed(shared, &sub, idx);
    }
}

/// Solves one claimed output and reports it, catching panics at this
/// pool boundary so a poisoned job can never take a worker (or the
/// service) down with it.
fn run_claimed(shared: &ServiceShared, sub: &Submission, idx: usize) {
    if sub.skip_work() {
        sub.commit_work(idx, 0);
        sub.send_event(idx, Err(StepError::Cancelled));
        return;
    }
    let circuit = sub.circuit_budget_for(idx);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if sub.config.panic_on_output == Some(idx) {
            panic!("injected fault on output {idx}");
        }
        run_queued(sub, idx, &circuit)
    }));
    let result = match outcome {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            Err(StepError::Internal(format!(
                "worker panicked on output {idx}: {msg}"
            )))
        }
    };
    // Resolve the two-phase work reservation: the actual conflicts on
    // success, zero on failure (a panic loses its meter; the
    // submission is poisoned either way, so remaining outputs skip).
    sub.commit_work(idx, result.as_ref().map_or(0, |r| r.effort.conflicts));
    if let Ok(r) = &result {
        // Feed the cost model: exact history for this cone, bucket
        // EWMA for its support class (cache hits only update the
        // former — they say nothing about intrinsic difficulty).
        shared.cost_model.record(
            r.fingerprint,
            r.support,
            r.effort.conflicts,
            r.cache == CacheLookup::Hit,
        );
    }
    if result.is_err() {
        // Fail fast within the submission (the legacy poisoning rule):
        // outputs claimed after this point are skipped as Cancelled.
        sub.poisoned.store(true, Ordering::Release);
    }
    sub.send_event(idx, result);
}

/// Runs one claimed output of a submission. Internal errors are tagged
/// with the output they came from, so a failure deep in a many-output
/// circuit stays locatable.
fn run_queued(
    sub: &Submission,
    out_idx: usize,
    circuit: &CircuitBudget,
) -> Result<OutputResult, StepError> {
    let output = &sub.aig.outputs()[out_idx];
    let name = output.name().to_owned();
    if circuit.expired() {
        // Skipped, not solved: report the real cone support so the
        // output doesn't masquerade as a constant function in
        // per-support statistics (the support walk is linear in the
        // cone, cheap next to what was just saved).
        let support = sub.aig.support(output.lit()).len();
        return Ok(OutputResult::budget_exhausted(name, out_idx, support));
    }
    let job = OutputJob::new(&sub.config, out_idx, sub.op).with_circuit(circuit.clone());
    SolveSession::new(&sub.aig, job, &sub.config, &sub.store, sub.pool.as_ref())?
        .run()
        .map_err(|e| match e {
            StepError::Internal(m) => {
                StepError::Internal(format!("output {out_idx} ({name}): {m}"))
            }
            other => other,
        })
}

/// The caller's side of one submission: stream events with
/// [`recv`](SubmissionHandle::recv) (completion order), block with
/// [`join`](SubmissionHandle::join) (output order), or abort with
/// [`cancel`](SubmissionHandle::cancel). The two consumption styles
/// compose: `join` folds in everything `recv` already returned.
pub struct SubmissionHandle {
    sub: Arc<Submission>,
    rx: Receiver<OutputEvent>,
    /// Results gathered so far, indexed by output; `join` completes
    /// and consumes them.
    slots: Vec<Option<Result<OutputResult, StepError>>>,
}

impl fmt::Debug for SubmissionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubmissionHandle")
            .field("id", &self.sub.id)
            .field("outputs", &self.sub.n_out)
            .field(
                "received",
                &self.slots.iter().filter(|s| s.is_some()).count(),
            )
            .finish()
    }
}

impl SubmissionHandle {
    /// This submission's id within its service.
    pub fn id(&self) -> SubmissionId {
        self.sub.id
    }

    /// Number of primary outputs the submission will report (after
    /// combinational conversion).
    pub fn num_outputs(&self) -> usize {
        self.sub.n_out
    }

    /// Requests cancellation: no further outputs of this submission
    /// will be solved (in-flight ones finish under their budgets), and
    /// [`join`](SubmissionHandle::join) will return
    /// [`StepError::Cancelled`]. The remaining outputs are drained
    /// (claimed and skipped) right here, so a cancelled submission
    /// resolves immediately even while the pool is busy with work
    /// queued ahead of it. Idempotent; never blocks on solving.
    pub fn cancel(&self) {
        self.sub.cancelled.store(true, Ordering::Release);
        // Claims are atomic, so racing the workers (or a second
        // cancel) is fine: every index is reported exactly once,
        // whether by a worker (in-flight solve or skip-marker) or by
        // this drain.
        self.sub.drain_cancelled();
    }

    /// A detachable cancellation token for this submission: lets
    /// another thread (e.g. a serve connection reader) cancel while
    /// this handle blocks in [`recv`](SubmissionHandle::recv) or
    /// [`join`](SubmissionHandle::join).
    pub fn canceller(&self) -> Canceller {
        Canceller {
            sub: Arc::clone(&self.sub),
        }
    }

    /// Whether [`cancel`](SubmissionHandle::cancel) was called (or the
    /// service was dropped with this submission still queued). A
    /// cancel that landed after every output had already completed
    /// still reads `true` here, but [`join`](SubmissionHandle::join)
    /// will return the full result — it reports
    /// [`StepError::Cancelled`] only when an output was really
    /// skipped.
    pub fn is_cancelled(&self) -> bool {
        self.sub.cancelled.load(Ordering::Acquire)
    }

    fn record(&mut self, event: &OutputEvent) {
        self.slots[event.output_index] = Some(event.result.clone());
    }

    /// Blocks for the next completed output, in completion order.
    /// Returns `None` once every output has been reported.
    pub fn recv(&mut self) -> Option<OutputEvent> {
        match self.rx.recv() {
            Ok(event) => {
                self.record(&event);
                Some(event)
            }
            Err(_) => None,
        }
    }

    /// Non-blocking [`recv`](SubmissionHandle::recv): `None` when no
    /// event is ready right now (which does not mean the submission is
    /// finished — use `recv` or [`join`](SubmissionHandle::join) to
    /// drain to completion).
    pub fn try_recv(&mut self) -> Option<OutputEvent> {
        match self.rx.try_recv() {
            Ok(event) => {
                self.record(&event);
                Some(event)
            }
            Err(TryRecvError::Empty | TryRecvError::Disconnected) => None,
        }
    }

    /// Blocks until the whole submission is done and returns the
    /// output-ordered [`CircuitResult`] — exactly what the legacy
    /// [`decompose_circuit`] returns for the same `(circuit, op,
    /// config)`, wall-clock cells aside.
    ///
    /// # Errors
    ///
    /// [`StepError::Cancelled`] if cancellation actually skipped any
    /// output (a cancel that lost the race — every output had already
    /// completed — returns the full result instead of discarding it);
    /// otherwise the lowest-indexed failing output's error (the legacy
    /// fail-fast rule), [`StepError::Internal`] for caught worker
    /// panics included.
    ///
    /// [`decompose_circuit`]: crate::BiDecomposer::decompose_circuit
    pub fn join(mut self) -> Result<CircuitResult, StepError> {
        while self.recv().is_some() {}
        // Deterministic error reporting, a pure function of the
        // delivered events: a real failure on the lowest-indexed
        // output wins over skip-markers regardless of completion
        // order, and Cancelled is reported only when some output was
        // really skipped — not when a cancel (or service drop) raced
        // in after the last output had already finished.
        let mut skipped = false;
        for slot in &mut self.slots {
            match slot {
                Some(Err(StepError::Cancelled)) => skipped = true,
                Some(Err(_)) => return Err(slot.take().expect("checked Some").unwrap_err()),
                _ => {}
            }
        }
        if skipped {
            return Err(StepError::Cancelled);
        }
        let mut outputs = Vec::with_capacity(self.slots.len());
        let mut timed_out = false;
        for slot in &mut self.slots {
            let r = slot.take().expect("every output produced an event")?;
            timed_out |= r.timed_out;
            outputs.push(r);
        }
        // True wall clock of the submission: first claim to last
        // event, not to this (possibly much later) join call — sweep
        // harnesses join handles in table order long after the pool
        // finished them.
        let started = self
            .sub
            .started
            .get()
            .copied()
            .unwrap_or(self.sub.submitted);
        let cpu = self
            .sub
            .finished
            .get()
            .map_or_else(|| started.elapsed(), |f| f.duration_since(started));
        Ok(CircuitResult {
            outputs,
            cpu,
            queue_wait: started.saturating_duration_since(self.sub.submitted),
            timed_out,
        })
    }
}

/// A cloneable cancellation token detached from its
/// [`SubmissionHandle`] (which is consumed by `join` and not `Sync`):
/// serve front-ends hand one to the connection reader so a client's
/// cancel frame can stop a submission mid-stream.
#[derive(Clone)]
pub struct Canceller {
    sub: Arc<Submission>,
}

impl fmt::Debug for Canceller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Canceller")
            .field("id", &self.sub.id)
            .finish()
    }
}

impl Canceller {
    /// The submission this token cancels.
    pub fn id(&self) -> SubmissionId {
        self.sub.id
    }

    /// Same semantics as [`SubmissionHandle::cancel`]: idempotent,
    /// never blocks on solving.
    pub fn cancel(&self) {
        self.sub.cancelled.store(true, Ordering::Release);
        self.sub.drain_cancelled();
    }
}

/// Streaming consumption as an iterator (completion order); iterate
/// `&mut handle` to keep the handle for a final
/// [`join`](SubmissionHandle::join).
impl Iterator for SubmissionHandle {
    type Item = OutputEvent;

    fn next(&mut self) -> Option<OutputEvent> {
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Model;
    use std::time::Duration;

    /// `f = (a&b)|(c&d)`, `g = (a&c)|(b&d)` — two decomposable,
    /// structurally identical (permuted-input) outputs.
    fn twin_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let d = aig.add_input("d");
        let ab = aig.and(a, b);
        let cd = aig.and(c, d);
        let f = aig.or(ab, cd);
        aig.add_output("f", f);
        let ac = aig.and(a, c);
        let bd = aig.and(b, d);
        let g = aig.or(ac, bd);
        aig.add_output("g", g);
        aig
    }

    fn config(model: Model) -> DecompConfig {
        DecompConfig::new(model)
    }

    #[test]
    fn submit_join_matches_the_engine() {
        let aig = twin_aig();
        let service = StepService::spawn_with_store(2, Arc::default());
        let handle = service
            .submit(&aig, GateOp::Or, config(Model::QbfDisjoint))
            .unwrap();
        let via_service = handle.join().unwrap();
        let via_engine = crate::BiDecomposer::new(config(Model::QbfDisjoint))
            .decompose_circuit(&aig, GateOp::Or)
            .unwrap();
        assert_eq!(via_service.outputs.len(), via_engine.outputs.len());
        for (s, e) in via_service.outputs.iter().zip(&via_engine.outputs) {
            assert_eq!(s.name, e.name);
            assert_eq!(s.partition, e.partition);
            assert_eq!(s.solved, e.solved);
            assert_eq!(s.proved_optimal, e.proved_optimal);
            assert_eq!(s.sat_calls, e.sat_calls);
        }
    }

    #[test]
    fn streaming_reports_every_output_exactly_once() {
        let aig = twin_aig();
        let service = StepService::spawn_with_store(2, Arc::default());
        let mut handle = service
            .submit(&aig, GateOp::Or, config(Model::MusGroup))
            .unwrap();
        assert_eq!(handle.num_outputs(), 2);
        let mut seen = vec![0usize; 2];
        while let Some(event) = handle.recv() {
            assert_eq!(event.submission, handle.id());
            seen[event.output_index] += 1;
            assert!(event.result.unwrap().solved);
        }
        assert_eq!(seen, vec![1, 1], "one event per output");
        // recv() drained everything; join still reproduces the full
        // output-ordered result from its slots.
        let result = handle.join().unwrap();
        assert_eq!(result.outputs.len(), 2);
        assert_eq!(result.num_decomposed(), 2);
    }

    #[test]
    fn join_reports_completion_time_not_join_time() {
        // Sweep harnesses join handles long after the pool finished
        // them; cpu must be first-claim → last-event, not → join().
        let aig = twin_aig();
        let service = StepService::spawn_with_store(2, Arc::default());
        let mut handle = service
            .submit(&aig, GateOp::Or, config(Model::MusGroup))
            .unwrap();
        // Drain the stream so the submission is provably finished...
        while handle.recv().is_some() {}
        // ...then sit on the handle before joining.
        std::thread::sleep(std::time::Duration::from_millis(120));
        let result = handle.join().unwrap();
        assert!(
            result.cpu < std::time::Duration::from_millis(100),
            "cpu {:?} must not include the idle wait before join",
            result.cpu
        );
    }

    #[test]
    fn cancel_drains_the_stream_synchronously() {
        // cancel() claims and skips every not-yet-claimed output right
        // away, so a cancelled submission resolves without waiting for
        // the pool to reach it in FIFO order: after cancel() returns,
        // draining the stream terminates and join is immediate.
        let aig = twin_aig();
        let service = StepService::spawn_with_store(1, Arc::default());
        // Queue several submissions ahead so the single worker is busy
        // (or at least behind) when the last one is cancelled.
        let ahead: Vec<_> = (0..4)
            .map(|_| {
                service
                    .submit(&aig, GateOp::Or, config(Model::QbfDisjoint))
                    .unwrap()
            })
            .collect();
        let mut last = service
            .submit(&aig, GateOp::Or, config(Model::QbfDisjoint))
            .unwrap();
        last.cancel();
        // Every event is deliverable now (worker-solved or drained as
        // Cancelled by cancel itself) — recv() must terminate.
        let mut events = 0;
        while last.recv().is_some() {
            events += 1;
        }
        assert_eq!(events, 2, "one event per output, cancelled included");
        match last.join() {
            Err(StepError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        for h in ahead {
            assert_eq!(h.join().unwrap().num_decomposed(), 2);
        }
    }

    #[test]
    fn zero_output_circuits_complete_immediately() {
        let mut aig = Aig::new();
        aig.add_input("a");
        let service = StepService::spawn_with_store(1, Arc::default());
        let mut handle = service
            .submit(&aig, GateOp::Or, config(Model::MusGroup))
            .unwrap();
        assert!(handle.recv().is_none());
        let result = handle.join().unwrap();
        assert!(result.outputs.is_empty());
        assert!(!result.timed_out);
    }

    #[test]
    fn cancelled_submission_returns_cancelled_and_pool_survives() {
        let aig = twin_aig();
        let service = StepService::spawn_with_store(1, Arc::default());
        // A guard submission occupies the single worker, so the cancel
        // below provably lands before any of the target's outputs is
        // claimed (join reports Cancelled only for real skips).
        let guard = service
            .submit(&aig, GateOp::Or, config(Model::QbfDisjoint))
            .unwrap();
        let handle = service
            .submit(&aig, GateOp::Or, config(Model::QbfDisjoint))
            .unwrap();
        handle.cancel();
        assert!(handle.is_cancelled());
        match handle.join() {
            Err(StepError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!(guard.join().unwrap().num_decomposed(), 2);
        // The pool keeps serving later submissions.
        let after = service
            .submit(&aig, GateOp::Or, config(Model::QbfDisjoint))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(after.num_decomposed(), 2);
    }

    #[test]
    fn worker_panic_is_contained_to_its_submission() {
        // Quiet the default panic-to-stderr hook for the injected
        // fault, restoring it afterwards.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let aig = twin_aig();
        let service = StepService::spawn_with_store(2, Arc::default());
        let mut poisoned = config(Model::MusGroup);
        poisoned.panic_on_output = Some(0);
        let bad = service.submit(&aig, GateOp::Or, poisoned).unwrap();
        let err = bad.join().unwrap_err();
        std::panic::set_hook(hook);
        match &err {
            StepError::Internal(msg) => {
                assert!(msg.contains("panicked on output 0"), "{msg}");
                assert!(msg.contains("injected fault"), "{msg}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        // The same service (same worker threads) still serves clean
        // submissions afterwards.
        let good = service
            .submit(&aig, GateOp::Or, config(Model::MusGroup))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(good.num_decomposed(), 2);
    }

    #[test]
    fn expired_deadline_reports_timeouts_not_errors() {
        let aig = twin_aig();
        let service = StepService::spawn_with_store(1, Arc::default());
        let handle = service
            .submit_with_deadline(
                &aig,
                GateOp::Or,
                config(Model::QbfDisjoint),
                Instant::now() - Duration::from_secs(1),
            )
            .unwrap();
        let result = handle.join().unwrap();
        assert!(result.timed_out);
        for out in &result.outputs {
            assert!(out.timed_out, "output {} skipped by deadline", out.name);
            assert!(!out.solved);
            assert_eq!(out.support, 4, "real cone support still reported");
        }
    }

    /// A detached submission shell for exercising the queue-ordering
    /// rule in isolation (never enqueued on a live service).
    fn rank_sub(id: u64, deadline: Option<Instant>) -> Submission {
        tenant_sub(id, deadline, None, 0)
    }

    /// [`rank_sub`] with a tenant tag and predicted cost, for the
    /// fair-share ordering tests.
    fn tenant_sub(
        id: u64,
        deadline: Option<Instant>,
        tenant: Option<&str>,
        cost: u64,
    ) -> Submission {
        let (tx, _rx) = channel();
        Submission {
            id: SubmissionId(id),
            aig: Arc::new(twin_aig()),
            op: GateOp::Or,
            config: config(Model::MusGroup),
            deadline_policy: deadline.map_or(DeadlinePolicy::Budget, DeadlinePolicy::Explicit),
            ledger: None,
            tenant: tenant.map(Arc::from),
            cost,
            started: OnceLock::new(),
            finished: OnceLock::new(),
            submitted: Instant::now(),
            n_out: 2,
            store: TieredStore::default(),
            pool: None,
            next: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            sent: AtomicUsize::new(0),
            events: Mutex::new(Some(tx)),
        }
    }

    #[test]
    fn queue_rank_is_nonpreemptive_edf() {
        let now = Instant::now();
        let fifo_old = rank_sub(0, None);
        let fifo_new = rank_sub(3, None);
        let loose = rank_sub(1, Some(now + Duration::from_secs(3600)));
        let tight = rank_sub(2, Some(now + Duration::from_secs(60)));
        // EDF among unstarted: tighter deadline first, deadlined before
        // deadline-less, FIFO by id among the deadline-less.
        assert!(tight.claims_before(&loose), "earlier deadline wins");
        assert!(loose.claims_before(&fifo_old), "deadlined before FIFO");
        assert!(fifo_old.claims_before(&fifo_new), "FIFO by submit order");
        assert!(!fifo_new.claims_before(&fifo_old));
        // Non-preemption: once a submission has a claim out, its
        // per-circuit budget is anchored and ticking — nothing jumps
        // ahead of it, not even a tighter deadline.
        fifo_old.next.fetch_add(1, Ordering::AcqRel);
        assert!(
            fifo_old.claims_before(&tight),
            "a started submission is never preempted"
        );
        tight.next.fetch_add(1, Ordering::AcqRel);
        assert!(
            tight.claims_before(&fifo_old),
            "among started submissions the deadline rules again"
        );
    }

    #[test]
    fn equal_deadlines_tie_break_by_submission_id() {
        // The documented stable order: among equal (or absent)
        // deadlines, the monotone submission id decides — never
        // insertion accidents or pointer order.
        let d = Instant::now() + Duration::from_secs(60);
        let first = rank_sub(1, Some(d));
        let second = rank_sub(2, Some(d));
        assert!(
            first.claims_before(&second),
            "equal deadlines: lower id first"
        );
        assert!(!second.claims_before(&first));
        // The same rule holds among started submissions...
        first.next.fetch_add(1, Ordering::AcqRel);
        second.next.fetch_add(1, Ordering::AcqRel);
        assert!(first.claims_before(&second));
        // ...and the rank is a strict total order: a submission never
        // claims before itself.
        assert!(!first.claims_before(&first));
        assert_eq!(first.queue_rank(), first.queue_rank());
    }

    #[test]
    fn drr_alternates_tenants_instead_of_fifo() {
        // Tenant A floods the queue first; tenant B arrives later.
        // Plain FIFO would drain all of A before B; DRR alternates.
        let mut state = QueueState {
            items: VecDeque::new(),
            drr: DrrState::default(),
        };
        for id in 0..3 {
            state
                .items
                .push_back(Arc::new(tenant_sub(id, None, Some("a"), 100)));
        }
        for id in 3..6 {
            state
                .items
                .push_back(Arc::new(tenant_sub(id, None, Some("b"), 100)));
        }
        let mut order = Vec::new();
        for _ in 0..6 {
            let i = select_next(&mut state).expect("work queued");
            let sub = state.items.remove(i).expect("selected index valid");
            order.push(sub.tenant.as_deref().expect("tagged").to_owned());
        }
        assert_eq!(
            order,
            ["a", "b", "a", "b", "a", "b"],
            "equal-cost tenants must alternate"
        );
    }

    #[test]
    fn drr_gives_cheap_tenant_more_turns_than_expensive_one() {
        // Tenant "big" queues 1000-conflict circuits, tenant "small"
        // 10-conflict ones: over one big service, the small tenant
        // should get through many submissions per big one.
        let mut state = QueueState {
            items: VecDeque::new(),
            drr: DrrState::default(),
        };
        for id in 0..4 {
            state
                .items
                .push_back(Arc::new(tenant_sub(id, None, Some("big"), 1000)));
        }
        for id in 4..12 {
            state
                .items
                .push_back(Arc::new(tenant_sub(id, None, Some("small"), 10)));
        }
        let mut small_before_second_big = 0;
        let mut bigs = 0;
        while bigs < 2 {
            let i = select_next(&mut state).expect("work queued");
            let sub = state.items.remove(i).expect("selected index valid");
            match sub.tenant.as_deref() {
                Some("big") => bigs += 1,
                Some("small") if bigs < 2 => small_before_second_big += 1,
                _ => {}
            }
        }
        assert!(
            small_before_second_big >= 4,
            "cheap tenant got only {small_before_second_big} turns before the second expensive one"
        );
    }

    #[test]
    fn single_tenant_and_untagged_keep_plain_order() {
        // DRR must not engage below two distinct tenants: untagged
        // submissions keep FIFO, a lone tenant gets cheapest-first.
        let mut state = QueueState {
            items: VecDeque::new(),
            drr: DrrState::default(),
        };
        state
            .items
            .push_back(Arc::new(tenant_sub(0, None, None, 0)));
        state
            .items
            .push_back(Arc::new(tenant_sub(1, None, Some("solo"), 5)));
        let i = select_next(&mut state).expect("work queued");
        assert_eq!(
            state.items[i].id.0, 0,
            "one tagged tenant is not enough for DRR"
        );
    }

    #[test]
    fn tighter_deadline_is_claimed_first() {
        // Earliest-deadline-first queue pop: with the single worker
        // pinned on guard submissions, a later-submitted but
        // tighter-deadline submission must start before an earlier,
        // looser one.
        let aig = twin_aig();
        let service = StepService::spawn_with_store(1, Arc::default());
        // Several guards keep the worker busy long enough for the
        // enqueues below to land while it is still solving.
        let guards: Vec<_> = (0..3)
            .map(|_| {
                service
                    .submit(&aig, GateOp::Or, config(Model::QbfDisjoint))
                    .unwrap()
            })
            .collect();
        let far = Instant::now() + Duration::from_secs(3600);
        let near = Instant::now() + Duration::from_secs(600);
        let mut loose = service
            .submit_with_deadline(&aig, GateOp::Or, config(Model::QbfDisjoint), far)
            .unwrap();
        let mut tight = service
            .submit_with_deadline(&aig, GateOp::Or, config(Model::QbfDisjoint), near)
            .unwrap();
        let mut fifo = service
            .submit(&aig, GateOp::Or, config(Model::QbfDisjoint))
            .unwrap();
        // Drain the streams (join would consume the handles).
        while tight.recv().is_some() {}
        while loose.recv().is_some() {}
        while fifo.recv().is_some() {}
        for g in guards {
            g.join().unwrap();
        }
        // `started` stamps the first claim of each submission; with
        // one worker those claims are strictly ordered: the tight
        // deadline before the loose one, both before the deadline-less
        // FIFO straggler.
        let started = |h: &SubmissionHandle| *h.sub.started.get().expect("submission ran");
        assert!(
            started(&tight) < started(&loose),
            "tighter deadline must be claimed first"
        );
        assert!(
            started(&loose) < started(&fifo),
            "deadlined submissions go before deadline-less ones"
        );
    }

    #[test]
    fn dropping_the_service_cancels_queued_submissions() {
        let aig = twin_aig();
        let service = StepService::spawn_with_store(1, Arc::default());
        // Enqueue more work than one worker can finish instantly, then
        // drop the service; every handle must resolve (no wedged
        // receivers), either with a result or with Cancelled.
        let handles: Vec<_> = (0..8)
            .map(|_| {
                service
                    .submit(&aig, GateOp::Or, config(Model::QbfDisjoint))
                    .unwrap()
            })
            .collect();
        service.shutdown();
        let mut cancelled = 0;
        for handle in handles {
            match handle.join() {
                Ok(r) => assert_eq!(r.outputs.len(), 2),
                Err(StepError::Cancelled) => cancelled += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(cancelled > 0, "the drop must have caught some submissions");
    }
}
