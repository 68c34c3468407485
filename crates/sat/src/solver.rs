use std::time::Instant;

use step_cnf::{Cnf, Lit, Var};

use crate::arena::{ClauseArena, ClauseRef};
use crate::heap::VarHeap;
use crate::proof::{ClauseId, Proof, ProofStep};

/// Result of a (possibly budgeted) solver call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A model was found; read it with [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable;
    /// read the assumption core with [`Solver::failed_assumptions`].
    Unsat,
    /// A conflict budget or deadline expired before an answer.
    Unknown,
}

/// Counters exposed for benchmarking and tuning.
#[derive(Clone, Copy, Default, Debug)]
pub struct SolverStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently in the database.
    pub learnts: u64,
}

/// A monotone snapshot of the *effort* a solver has expended: the
/// machine-independent counters that make solver work comparable
/// across hosts, `--jobs` values and background load (unlike wall
/// clock). Conflicts are the deterministic budgeting unit —
/// [`Solver::set_effort_budget`] truncates a call at an exact conflict
/// count, so a budgeted `Unknown` falls on the same call on every
/// machine.
///
/// Snapshots are cumulative over a solver's lifetime; diff two with
/// [`EffortStats::since`] to charge one call's work to a budget.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct EffortStats {
    /// Conflicts encountered (the budgeting currency).
    pub conflicts: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
}

impl EffortStats {
    /// The effort expended since an `earlier` snapshot of the same
    /// solver (saturating, so a stale snapshot can never underflow).
    pub fn since(self, earlier: EffortStats) -> EffortStats {
        EffortStats {
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
        }
    }
}

impl std::ops::Add for EffortStats {
    type Output = EffortStats;

    fn add(self, rhs: EffortStats) -> EffortStats {
        EffortStats {
            conflicts: self.conflicts + rhs.conflicts,
            decisions: self.decisions + rhs.decisions,
            propagations: self.propagations + rhs.propagations,
        }
    }
}

impl std::ops::AddAssign for EffortStats {
    fn add_assign(&mut self, rhs: EffortStats) {
        *self = *self + rhs;
    }
}

/// A portable snapshot of the clauses a solver considers permanently
/// valuable: its *core-tier* learnt clauses (learn-time or refreshed
/// LBD ≤ 2 — the tier that reduction never deletes) plus
/// its hottest VSIDS variable activities, expressed over this solver's
/// variable indices.
///
/// Produced by [`Solver::export_learnts`] and replayed into another
/// solver with [`Solver::import_learnts`]. The snapshot is plain data
/// (`Send + Clone`), so it can cross threads — the transport for
/// cross-solver clause reuse in `step-core`'s clause bank.
///
/// The content is deterministic for a deterministic search: clause
/// literals and the clause list itself are sorted (watch maintenance
/// permutes literals in trajectory-dependent ways, so the raw order
/// would not be reproducible), and activities are normalized to the
/// donor's maximum with the variable index as tie-break.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LearntExport {
    /// Core-tier learnt clauses, each sorted; the list is sorted and
    /// deduplicated. Every clause is a logical consequence of the
    /// donor's *clause set alone* — clauses learnt under assumptions
    /// keep the relevant assumption literals (assumptions have no
    /// reason clause, so analysis cannot resolve them away), which is
    /// what makes verbatim re-import into any solver holding the same
    /// clauses sound.
    pub clauses: Vec<Vec<Lit>>,
    /// The donor's top variable activities, normalized to `(0, 1]` by
    /// the maximum, highest first.
    pub activities: Vec<(Var, f64)>,
}

impl LearntExport {
    /// Whether the snapshot carries nothing worth importing.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty() && self.activities.is_empty()
    }

    /// Number of exported clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }
}

/// Restart scheduling policy of the CDCL search loop.
///
/// Both policies measure progress purely in **conflicts**, never wall
/// clock, so either one preserves the determinism contract of
/// [`Solver::set_effort_budget`]: a budgeted run truncates at the same
/// conflict on every machine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum RestartPolicy {
    /// MiniSat-style static restarts on the Luby sequence with a
    /// 100-conflict unit. The historical default.
    #[default]
    Luby,
    /// Glucose-style dynamic restarts: restart when the fast
    /// exponential moving average of learnt-clause LBD rises above the
    /// slow one (search is producing unusually poor clauses), blocked
    /// while the trail is much longer than its long-run average (the
    /// solver may be closing in on a model).
    Ema,
}

impl std::fmt::Display for RestartPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RestartPolicy::Luby => "luby",
            RestartPolicy::Ema => "ema",
        })
    }
}

impl std::str::FromStr for RestartPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "luby" => Ok(RestartPolicy::Luby),
            "ema" => Ok(RestartPolicy::Ema),
            other => Err(format!("unknown restart policy `{other}` (luby|ema)")),
        }
    }
}

// EMA restart tuning (Glucose-lineage constants). All thresholds are
// conflict counts or pure ratios — nothing here consults a clock.
/// Minimum conflicts between dynamic restarts.
const EMA_MIN_CONFLICTS: u64 = 50;
/// Restart when `fast > EMA_MARGIN * slow`.
const EMA_MARGIN: f64 = 1.35;
/// Block a pending restart while `trail > BLOCK_MARGIN * trail_ema`.
const BLOCK_MARGIN: f64 = 1.4;
/// Smoothing window of the fast LBD average.
const EMA_FAST_WINDOW: f64 = 32.0;
/// Smoothing window of the slow LBD / trail averages.
const EMA_SLOW_WINDOW: f64 = 4096.0;

// Clause-DB reduction scheduling: reduce early and often (Glucose
// lineage: core clauses are exempt, so frequent reductions only shed
// the local tier), on a linear schedule.
/// First reduction fires when the learnt DB reaches this size.
const TIERED_FIRST_REDUCE: f64 = 2000.0;
/// Linear growth of the reduction threshold.
const TIERED_REDUCE_INC: f64 = 500.0;

// Clause tiers.
const TIER_CORE: u8 = 0;
const TIER_MID: u8 = 1;
const TIER_LOCAL: u8 = 2;
/// Learn-time LBD bound for the core tier.
const CORE_LBD: u32 = 2;
/// Learn-time LBD bound for tier 2.
const MID_LBD: u32 = 6;

// Preprocessing effort accounting: bookkeeping ticks are converted to
// conflict-equivalents so the pass charges [`EffortStats`] in the same
// deterministic currency as search.
/// Ticks (≈ literal visits) charged as one conflict-equivalent.
const PP_TICKS_PER_CONFLICT: u64 = 512;
/// Cap on the conflict-equivalents one preprocessing pass may spend.
const PP_MAX_CONFLICTS: u64 = 2000;
/// Occurrence-list bound for self-subsumption candidate scans.
const PP_STRENGTHEN_OCC_CAP: usize = 32;
/// Clauses longer than this are not used as subsumption sources.
const PP_SUBSUME_MAX_LEN: usize = 32;

const LBOOL_TRUE: u8 = 1;
const LBOOL_FALSE: u8 = 0;
const LBOOL_UNDEF: u8 = 2;

const NO_REASON: ClauseRef = u32::MAX;

/// Dead arena words, as a fraction of all arena words, above which the
/// arena is compacted after a clause-database reduction (or a
/// preprocessing pass): `wasted * GC_DEAD_DIVISOR > words`.
const GC_DEAD_DIVISOR: usize = 5;

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

#[derive(Clone, Copy, Debug)]
struct VarData {
    reason: ClauseRef,
    level: u32,
}

/// A CDCL SAT solver with assumptions, cores, budgets and optional
/// resolution proof logging. See the [crate docs](crate) for an
/// overview and an example.
pub struct Solver {
    /// Every clause, original and learnt, headers and literals inline.
    ca: ClauseArena,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<u8>,
    vardata: Vec<VarData>,
    polarity: Vec<bool>,
    activity: Vec<f64>,
    heap: VarHeap,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    ok: bool,
    var_inc: f64,
    cla_inc: f64,
    seen: Vec<bool>,
    model: Vec<u8>,
    conflict_core: Vec<Lit>,
    learnt_refs: Vec<ClauseRef>,
    max_learnts: f64,
    stats: SolverStats,
    conflict_budget: Option<u64>,
    deadline: Option<Instant>,
    proof: Option<Proof>,
    restart_policy: RestartPolicy,
    preprocess: bool,
    /// Original (non-learnt) clauses allocated so far; the
    /// preprocessing pass reruns only when this has grown by ≥ 25%
    /// since the last pass, so incremental callers that trickle in
    /// refinement clauses (the CEGAR loop) pay for one pass up front
    /// rather than one per `solve()`.
    num_originals: usize,
    /// `num_originals` already seen by preprocessing.
    pp_seen_originals: usize,
    /// Fast EMA of learnt-clause LBD (EMA restarts).
    lbd_ema_fast: f64,
    /// Slow EMA of learnt-clause LBD (EMA restarts).
    lbd_ema_slow: f64,
    /// Slow EMA of the trail size at conflicts (restart blocking).
    trail_ema: f64,
    /// Conflicts that have fed the EMAs (0 = cold averages).
    ema_samples: u64,
    // Scratch buffers owned by the solver so the search loop never
    // allocates once they have grown to their working size.
    /// The clause being learnt (conflict analysis) or added.
    clause_buf: Vec<Lit>,
    /// Per-decision-level stamps for counting distinct levels (LBD).
    level_stamp: Vec<u32>,
    /// The stamp value marking "counted in the current LBD".
    lbd_epoch: u32,
    /// Proof mode: level-0 variables marked for resolution away.
    zero_seen: Vec<bool>,
    /// Proof mode: the variables marked in `zero_seen`.
    zero_marked: Vec<Var>,
    /// Arena compactions performed (test instrumentation).
    #[cfg(test)]
    gc_runs: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            ca: ClauseArena::default(),
            watches: Vec::new(),
            assigns: Vec::new(),
            vardata: Vec::new(),
            polarity: Vec::new(),
            activity: Vec::new(),
            heap: VarHeap::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            ok: true,
            var_inc: 1.0,
            cla_inc: 1.0,
            seen: Vec::new(),
            model: Vec::new(),
            conflict_core: Vec::new(),
            learnt_refs: Vec::new(),
            max_learnts: TIERED_FIRST_REDUCE,
            stats: SolverStats::default(),
            conflict_budget: None,
            deadline: None,
            proof: None,
            restart_policy: RestartPolicy::default(),
            preprocess: false,
            num_originals: 0,
            pp_seen_originals: 0,
            lbd_ema_fast: 0.0,
            lbd_ema_slow: 0.0,
            trail_ema: 0.0,
            ema_samples: 0,
            clause_buf: Vec::new(),
            level_stamp: Vec::new(),
            lbd_epoch: 0,
            zero_seen: Vec::new(),
            zero_marked: Vec::new(),
            #[cfg(test)]
            gc_runs: 0,
        }
    }

    /// Selects the restart policy for subsequent solve calls (default
    /// [`RestartPolicy::Luby`]). Both policies are deterministic in
    /// conflicts; they merely walk different search trajectories.
    pub fn set_restart_policy(&mut self, policy: RestartPolicy) {
        self.restart_policy = policy;
    }

    /// The active restart policy.
    pub fn restart_policy(&self) -> RestartPolicy {
        self.restart_policy
    }

    /// Enables the bounded root-level preprocessing pass (subsumption,
    /// self-subsuming resolution, failed-literal probing) at the entry
    /// of each solve call that sees new original clauses. Off by
    /// default: incremental callers that re-solve a slowly growing
    /// formula many times — the CEGAR loop above all — usually lose
    /// more to re-preprocessing than they gain.
    ///
    /// The pass charges its work to [`EffortStats`] as
    /// conflict-equivalents, so effort budgets stay exact and
    /// machine-independent.
    pub fn set_preprocess(&mut self, on: bool) {
        self.preprocess = on;
    }

    /// Turns on resolution proof logging (must be called before any
    /// clause is added). Disables learnt-clause minimization and
    /// level-0 clause strengthening so recorded chains stay exact.
    ///
    /// # Panics
    ///
    /// Panics if clauses have already been added.
    pub fn enable_proof(&mut self) {
        assert!(
            self.ca.is_empty(),
            "enable_proof must be called before adding clauses"
        );
        self.proof = Some(Proof::new());
    }

    /// The logged proof, if proof logging is enabled.
    pub fn proof(&self) -> Option<&Proof> {
        self.proof.as_ref()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.assigns.len());
        self.assigns.push(LBOOL_UNDEF);
        self.vardata.push(VarData {
            reason: NO_REASON,
            level: 0,
        });
        self.polarity.push(false);
        self.activity.push(0.0);
        self.seen.push(false);
        self.zero_seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.grow(self.assigns.len());
        self.heap.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Ensures variables `0..n` exist.
    pub fn ensure_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    /// Whether the clause set is still possibly satisfiable (false once
    /// a top-level conflict has been derived).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Solver statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Test-only snapshot of the live learnt clauses as
    /// `(clause ref, lbd)` pairs, used to pin the Glucose invariant
    /// that a clause's LBD only ever decreases.
    #[cfg(test)]
    pub(crate) fn learnt_lbds(&self) -> Vec<(u32, u32)> {
        self.learnt_refs
            .iter()
            .filter(|&&r| !self.ca.is_deleted(r))
            .map(|&r| (r, self.ca.lbd(r)))
            .collect()
    }

    /// Test-only arena occupancy: `(all words, words of live clauses)`.
    #[cfg(test)]
    pub(crate) fn arena_words(&self) -> (usize, usize) {
        (self.ca.words(), self.ca.words() - self.ca.wasted())
    }

    /// Test-only: arena compactions so far.
    #[cfg(test)]
    pub(crate) fn gc_runs(&self) -> u64 {
        self.gc_runs
    }

    /// Test-only: compacts the arena now.
    #[cfg(test)]
    pub(crate) fn force_gc(&mut self) {
        self.gc();
    }

    /// Test-only: whether any watcher refers to a deleted clause.
    #[cfg(test)]
    pub(crate) fn has_dead_watchers(&self) -> bool {
        self.watches
            .iter()
            .flatten()
            .any(|w| self.ca.is_deleted(w.cref))
    }

    /// A monotone snapshot of the effort expended so far (conflicts,
    /// decisions, propagations). Snapshots only grow across solve
    /// calls; diff two with [`EffortStats::since`] to account one
    /// call's work.
    pub fn effort(&self) -> EffortStats {
        EffortStats {
            conflicts: self.stats.conflicts,
            decisions: self.stats.decisions,
            propagations: self.stats.propagations,
        }
    }

    /// Limits the *next* solve call to `conflicts` conflicts
    /// (`None` = unlimited); an exhausted call returns
    /// [`SolveResult::Unknown`] at that exact count. Unlike a
    /// wall-clock deadline, the cut-off point is machine-independent:
    /// it is the deterministic budgeting surface underneath
    /// `step-core`'s `Work` budgets. The budget applies per call (it
    /// persists until replaced, resetting its baseline each call).
    pub fn set_effort_budget(&mut self, conflicts: Option<u64>) {
        self.conflict_budget = conflicts;
    }

    /// Alias of [`Solver::set_effort_budget`], kept for callers of the
    /// original conflict-budget name.
    pub fn set_conflict_budget(&mut self, conflicts: Option<u64>) {
        self.set_effort_budget(conflicts);
    }

    /// Sets a wall-clock deadline for subsequent solve calls
    /// (`None` = no deadline).
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    fn value_lit(&self, l: Lit) -> u8 {
        lit_value(&self.assigns, l)
    }

    fn level(&self, v: Var) -> u32 {
        self.vardata[v.index()].level
    }

    fn reason(&self, v: Var) -> ClauseRef {
        self.vardata[v.index()].reason
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    // ------------------------------------------------------------------
    // clause management
    // ------------------------------------------------------------------

    /// Adds a clause. Returns the proof [`ClauseId`] when proof logging
    /// is on (also for clauses that are simplified away), else `None`.
    ///
    /// Once the solver is in an unsatisfiable top-level state
    /// ([`Solver::is_ok`] is `false`), further clauses are recorded in
    /// the proof but otherwise ignored.
    ///
    /// # Panics
    ///
    /// Panics if called between `solve` calls at a non-zero decision
    /// level (cannot happen through the public API) or if a literal
    /// references an unallocated variable.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> Option<ClauseId> {
        assert_eq!(self.decision_level(), 0, "clauses must be added at level 0");
        let mut c = std::mem::take(&mut self.clause_buf);
        c.clear();
        c.extend(lits);
        let pid = self.add_clause_from(&mut c);
        self.clause_buf = c;
        pid
    }

    /// [`Solver::add_clause`] over a caller-owned literal buffer, which
    /// it normalizes in place.
    fn add_clause_from(&mut self, c: &mut Vec<Lit>) -> Option<ClauseId> {
        for l in c.iter() {
            assert!(
                l.var().index() < self.num_vars(),
                "unallocated variable in clause"
            );
        }
        c.sort_unstable();
        c.dedup();
        let tautology = c.windows(2).any(|w| w[0].var() == w[1].var());
        let pid = self
            .proof
            .as_mut()
            .map(|p| p.push(ProofStep::Original { lits: c.clone() }));
        if !self.ok || tautology {
            return pid;
        }
        if self.proof.is_none() {
            // Strengthen with the top-level assignment.
            if c.iter().any(|&l| self.value_lit(l) == LBOOL_TRUE) {
                return pid;
            }
            c.retain(|&l| self.value_lit(l) != LBOOL_FALSE);
        }
        if c.is_empty() {
            // Either the clause was empty as given, or (proof off) all
            // literals were false at level 0. In proof mode clauses are
            // never strengthened, so an empty `c` is an empty input
            // clause — the proof already marks it as the refutation.
            self.ok = false;
            return pid;
        }
        // Order literals: non-false first so watches are sound.
        c.sort_by_key(|&l| self.value_lit(l) == LBOOL_FALSE);
        let n_watchable = c
            .iter()
            .filter(|&&l| self.value_lit(l) != LBOOL_FALSE)
            .count();
        let cref = self.alloc_clause(c, false, pid.unwrap_or(0));
        match n_watchable {
            0 => {
                // Conflict at level 0.
                self.record_level0_refutation_from(cref);
                self.ok = false;
            }
            1 => {
                let unit = c[0];
                if c.len() >= 2 {
                    self.attach(cref);
                }
                if self.value_lit(unit) == LBOOL_UNDEF {
                    self.enqueue(unit, cref);
                    if let Some(confl) = self.propagate() {
                        self.record_level0_refutation_from(confl);
                        self.ok = false;
                    }
                }
            }
            _ => {
                self.attach(cref);
            }
        }
        pid
    }

    /// Adds every clause of a [`Cnf`] (allocating variables as needed).
    pub fn add_cnf(&mut self, cnf: &Cnf) {
        self.ensure_vars(cnf.num_vars());
        for clause in cnf.clauses() {
            self.add_clause(clause.iter().copied());
        }
    }

    fn alloc_clause(&mut self, lits: &[Lit], learnt: bool, proof_id: ClauseId) -> ClauseRef {
        let cref = self.ca.alloc(lits, learnt, proof_id);
        self.ca.set_tier(cref, TIER_LOCAL);
        if learnt {
            self.learnt_refs.push(cref);
            self.stats.learnts += 1;
        } else {
            self.num_originals += 1;
        }
        cref
    }

    /// Deletes a clause, keeping the live-learnt count in step.
    fn delete_clause(&mut self, cref: ClauseRef) {
        if self.ca.is_learnt(cref) {
            self.stats.learnts -= 1;
        }
        self.ca.delete(cref);
    }

    /// The tier a learnt clause of the given LBD starts in.
    fn tier_for_lbd(lbd: u32) -> u8 {
        if lbd <= CORE_LBD {
            TIER_CORE
        } else if lbd <= MID_LBD {
            TIER_MID
        } else {
            TIER_LOCAL
        }
    }

    fn attach(&mut self, cref: ClauseRef) {
        debug_assert!(self.ca.len(cref) >= 2);
        let (w0, w1) = (self.ca.lit(cref, 0), self.ca.lit(cref, 1));
        self.watches[(!w0).code() as usize].push(Watcher { cref, blocker: w1 });
        self.watches[(!w1).code() as usize].push(Watcher { cref, blocker: w0 });
    }

    // ------------------------------------------------------------------
    // trail
    // ------------------------------------------------------------------

    fn enqueue(&mut self, l: Lit, reason: ClauseRef) {
        debug_assert_eq!(self.value_lit(l), LBOOL_UNDEF);
        self.assigns[l.var().index()] = (!l.is_neg()) as u8;
        self.vardata[l.var().index()] = VarData {
            reason,
            level: self.decision_level(),
        };
        self.trail.push(l);
    }

    fn backtrack(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.assigns[v.index()] = LBOOL_UNDEF;
            self.polarity[v.index()] = !l.is_neg();
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = lim;
    }

    // ------------------------------------------------------------------
    // propagation
    // ------------------------------------------------------------------

    /// Unit propagation over the two-watched-literal scheme. Each
    /// watch list is compacted in place: surviving watchers are written
    /// back over the list with a trailing write index, in visit order.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let level = self.decision_level();
        // Disjoint borrows: clause literals, watch lists and the
        // assignment are read and written side by side below.
        let Solver {
            ca,
            watches,
            assigns,
            vardata,
            trail,
            qhead,
            stats,
            ..
        } = self;
        let mut conflict = None;
        while *qhead < trail.len() {
            let p = trail[*qhead];
            *qhead += 1;
            stats.propagations += 1;
            let false_code = (!p).code();
            let mut ws = std::mem::take(&mut watches[p.code() as usize]);
            let n = ws.len();
            let (mut i, mut j) = (0, 0);
            'watchers: while i < n {
                let w = ws[i];
                i += 1;
                // A true blocker keeps the watcher without touching the
                // clause. Watchers of deleted clauses are dropped once
                // visited; they never propagate, so neither keeping nor
                // dropping them changes the order live watchers run in.
                if lit_value(assigns, w.blocker) == LBOOL_TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                if ca.is_deleted(w.cref) {
                    continue;
                }
                let c = ca.lit_codes_mut(w.cref);
                // Normalize: watched false literal at position 1.
                if c[0] == false_code {
                    c.swap(0, 1);
                }
                debug_assert_eq!(c[1], false_code);
                let first = Lit::from_code(c[0]);
                let w = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                if lit_value(assigns, first) == LBOOL_TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                // Find a replacement watch.
                for k in 2..c.len() {
                    let lk = Lit::from_code(c[k]);
                    if lit_value(assigns, lk) != LBOOL_FALSE {
                        c.swap(1, k);
                        watches[(!lk).code() as usize].push(w);
                        continue 'watchers;
                    }
                }
                // Unit or conflict.
                ws[j] = w;
                j += 1;
                if lit_value(assigns, first) == LBOOL_FALSE {
                    conflict = Some(w.cref);
                    *qhead = trail.len();
                    ws.copy_within(i..n, j);
                    j += n - i;
                    break;
                }
                // Enqueue `first` with this clause as its reason.
                assigns[first.var().index()] = (!first.is_neg()) as u8;
                vardata[first.var().index()] = VarData {
                    reason: w.cref,
                    level,
                };
                trail.push(first);
            }
            ws.truncate(j);
            watches[p.code() as usize] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    // ------------------------------------------------------------------
    // conflict analysis
    // ------------------------------------------------------------------

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.decrease_key(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let a = self.ca.activity(cref) + self.cla_inc;
        self.ca.set_activity(cref, a);
        if a > 1e20 {
            for &lr in &self.learnt_refs {
                let scaled = self.ca.activity(lr) * 1e-20;
                self.ca.set_activity(lr, scaled);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP analysis. Leaves the learnt clause in `clause_buf`
    /// (asserting literal first) and returns the backtrack level plus,
    /// in proof mode, the resolution chain.
    #[allow(clippy::type_complexity)]
    fn analyze(&mut self, confl: ClauseRef) -> (u32, Option<(ClauseId, Vec<(Var, ClauseId)>)>) {
        let mut learnt = std::mem::take(&mut self.clause_buf);
        learnt.clear();
        learnt.push(Lit::pos(Var::new(0))); // placeholder slot 0
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = confl;
        let proof_on = self.proof.is_some();
        let chain_start = self.ca.proof_id(confl);
        let mut resolutions: Vec<(Var, ClauseId)> = Vec::new();
        let cur_level = self.decision_level();

        loop {
            if self.ca.is_learnt(cref) {
                self.bump_clause(cref);
                // Glucose-style LBD update on use: every literal of a
                // conflict-side clause is assigned here, so its block
                // count is well-defined — refresh it, keeping the
                // stored value monotone non-increasing (the original
                // learn-time LBD goes stale once later conflicts and
                // minimization reshape the level structure).
                let fresh = distinct_levels(
                    &mut self.level_stamp,
                    &mut self.lbd_epoch,
                    &self.vardata,
                    self.ca.lits(cref),
                );
                if fresh < self.ca.lbd(cref) {
                    self.ca.set_lbd(cref, fresh);
                    let promoted = Self::tier_for_lbd(fresh);
                    if promoted < self.ca.tier(cref) {
                        self.ca.set_tier(cref, promoted);
                    }
                }
                if self.ca.tier(cref) == TIER_MID {
                    self.ca.set_used(cref, 2);
                }
            }
            for k in 0..self.ca.len(cref) {
                let q = self.ca.lit(cref, k);
                // Skip the pivot literal of this resolution step.
                if let Some(pl) = p {
                    if q.var() == pl.var() {
                        continue;
                    }
                }
                let v = q.var();
                if self.seen[v.index()] {
                    continue;
                }
                if self.level(v) > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level(v) >= cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                } else if proof_on && !self.zero_seen[v.index()] {
                    self.zero_seen[v.index()] = true;
                    self.zero_marked.push(v);
                }
            }
            // Find next literal to resolve on.
            loop {
                index -= 1;
                let l = self.trail[index];
                if self.seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found pivot").var();
            self.seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p.expect("asserting literal");
                break;
            }
            cref = self.reason(pv);
            debug_assert_ne!(cref, NO_REASON, "non-decision must have a reason");
            if proof_on {
                resolutions.push((pv, self.ca.proof_id(cref)));
            }
        }

        // Learnt-clause minimization (proof off only: removing a literal
        // is an implicit resolution we would otherwise have to log).
        // Redundancy is judged with every analysed literal still marked,
        // so redundant literals are swapped behind the kept ones rather
        // than dropped, and all marks are cleared before truncating —
        // minimized-away ones must not pollute the next analysis.
        let mut kept = learnt.len();
        if !proof_on {
            kept = 1;
            for i in 1..learnt.len() {
                if !self.literal_redundant(learnt[i]) {
                    learnt.swap(kept, i);
                    kept += 1;
                }
            }
        }
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        learnt.truncate(kept);

        // Backtrack level = highest level among learnt[1..].
        let mut bt = 0;
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level(learnt[i].var()) > self.level(learnt[max_i].var()) {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            bt = self.level(learnt[1].var());
        }
        self.clause_buf = learnt;

        let chain = if proof_on {
            // Resolve away the level-0 literals dropped above.
            self.level0_resolutions(&mut resolutions);
            Some((chain_start, resolutions))
        } else {
            None
        };
        (bt, chain)
    }

    /// Cheap self-subsumption: `l` is redundant if its reason's other
    /// literals are all already in the learnt clause (marked seen) or at
    /// level 0.
    fn literal_redundant(&self, l: Lit) -> bool {
        let r = self.reason(l.var());
        if r == NO_REASON {
            return false;
        }
        self.ca
            .lits(r)
            .all(|q| q.var() == l.var() || self.seen[q.var().index()] || self.level(q.var()) == 0)
    }

    /// Appends to `res` the resolutions eliminating every level-0
    /// variable marked in `zero_seen`, in reverse trail order (reasons
    /// may introduce further level-0 variables, which are marked too),
    /// then clears the marks.
    fn level0_resolutions(&mut self, res: &mut Vec<(Var, ClauseId)>) {
        if self.zero_marked.is_empty() {
            return;
        }
        let zero_end = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        for i in (0..zero_end).rev() {
            let v = self.trail[i].var();
            if !self.zero_seen[v.index()] {
                continue;
            }
            let r = self.reason(v);
            debug_assert_ne!(r, NO_REASON, "level-0 assignments always have reasons");
            res.push((v, self.ca.proof_id(r)));
            for k in 0..self.ca.len(r) {
                let q = self.ca.lit(r, k);
                if q.var() != v && !self.zero_seen[q.var().index()] {
                    debug_assert_eq!(self.level(q.var()), 0);
                    self.zero_seen[q.var().index()] = true;
                    self.zero_marked.push(q.var());
                }
            }
        }
        for &v in &self.zero_marked {
            self.zero_seen[v.index()] = false;
        }
        self.zero_marked.clear();
    }

    /// Records the derivation of the empty clause from a conflict at
    /// decision level 0.
    fn record_level0_refutation_from(&mut self, confl: ClauseRef) {
        if self.proof.is_none() {
            return;
        }
        let start = self.ca.proof_id(confl);
        for k in 0..self.ca.len(confl) {
            let v = self.ca.lit(confl, k).var();
            if !self.zero_seen[v.index()] {
                self.zero_seen[v.index()] = true;
                self.zero_marked.push(v);
            }
        }
        let mut res = Vec::new();
        self.level0_resolutions(&mut res);
        if let Some(p) = self.proof.as_mut() {
            p.push(ProofStep::Chain {
                lits: Vec::new(),
                start,
                resolutions: res,
            });
        }
    }

    /// The subset of the assumptions responsible for `p` being false
    /// (MiniSat's `analyzeFinal`): stored into `conflict_core` as the
    /// assumption literals themselves.
    fn analyze_final(&mut self, p: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let v = self.trail[i].var();
            if !self.seen[v.index()] {
                continue;
            }
            let r = self.reason(v);
            if r == NO_REASON {
                // An assumption decision: trail literal is the
                // assumption itself.
                self.conflict_core.push(self.trail[i]);
            } else {
                for k in 0..self.ca.len(r) {
                    let q = self.ca.lit(r, k);
                    if q.var() != v && self.level(q.var()) > 0 {
                        self.seen[q.var().index()] = true;
                    }
                }
            }
            self.seen[v.index()] = false;
        }
        self.seen[p.var().index()] = false;
    }

    // ------------------------------------------------------------------
    // search
    // ------------------------------------------------------------------

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.assigns[v.index()] == LBOOL_UNDEF {
                return Some(v);
            }
        }
        None
    }

    /// Whether `r` is the reason of a currently true first literal
    /// (and must therefore survive any reduction).
    fn locked(&self, r: ClauseRef) -> bool {
        let l0 = self.ca.lit(r, 0);
        self.value_lit(l0) == LBOOL_TRUE && self.reason(l0.var()) == r
    }

    /// Three-tier reduction: core clauses are untouchable, tier-2
    /// clauses lose one use credit (demoting to local once it runs
    /// out), and the worse half of the local tier is deleted, ordered
    /// by `(LBD, activity)` with the clause reference as a
    /// deterministic tie-break.
    fn reduce_db(&mut self) {
        self.learnt_refs.retain(|&r| !self.ca.is_deleted(r));
        let mut local: Vec<ClauseRef> = Vec::new();
        for &r in &self.learnt_refs {
            match self.ca.tier(r) {
                TIER_MID => {
                    let used = self.ca.used(r);
                    if used > 0 {
                        self.ca.set_used(r, used - 1);
                    } else {
                        self.ca.set_tier(r, TIER_LOCAL);
                        local.push(r);
                    }
                }
                TIER_LOCAL => local.push(r),
                _ => {}
            }
        }
        local.sort_by(|&a, &b| {
            self.ca
                .lbd(a)
                .cmp(&self.ca.lbd(b))
                .then(
                    self.ca
                        .activity(b)
                        .partial_cmp(&self.ca.activity(a))
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
                .then(a.cmp(&b))
        });
        let keep_from = local.len() / 2;
        for &r in &local[keep_from..] {
            if !self.locked(r) && self.ca.len(r) > 2 {
                self.delete_clause(r);
            }
        }
        self.learnt_refs.retain(|&r| !self.ca.is_deleted(r));
        self.maybe_gc();
    }

    /// Compacts the arena once dead words exceed `1 / GC_DEAD_DIVISOR`
    /// of it.
    fn maybe_gc(&mut self) {
        if self.ca.wasted() * GC_DEAD_DIVISOR > self.ca.words() {
            self.gc();
        }
    }

    /// Moves every live clause into a fresh arena, in its current
    /// order, and rewrites every reference: watchers (dropping those of
    /// dead clauses, which propagation would skip anyway), the reasons
    /// of assigned variables (the only reasons ever read) and
    /// `learnt_refs`. Keeping the order keeps the reduction tie-break,
    /// so compaction never changes the search.
    fn gc(&mut self) {
        let to = self.ca.relocate();
        let from = &self.ca;
        let live = |r: &mut ClauseRef| {
            if from.is_deleted(*r) {
                return false;
            }
            *r = from.forward(*r);
            true
        };
        for ws in &mut self.watches {
            ws.retain_mut(|w| live(&mut w.cref));
        }
        self.learnt_refs.retain_mut(live);
        for l in &self.trail {
            let vd = &mut self.vardata[l.var().index()];
            if vd.reason != NO_REASON {
                vd.reason = from.forward(vd.reason);
            }
        }
        self.ca = to;
        #[cfg(test)]
        {
            self.gc_runs += 1;
        }
    }

    fn luby(mut x: u64) -> u64 {
        // Luby sequence: 1 1 2 1 1 2 4 ...
        let mut size = 1u64;
        let mut seq = 0u64;
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != x {
            size = (size - 1) / 2;
            seq -= 1;
            x %= size;
        }
        1u64 << seq
    }

    fn out_of_budget(&self, conflicts_at_start: u64) -> bool {
        if let Some(b) = self.conflict_budget {
            if self.stats.conflicts - conflicts_at_start >= b {
                return true;
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        false
    }

    /// Solves the current formula without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// On [`SolveResult::Unsat`], [`Solver::failed_assumptions`] holds a
    /// subset of `assumptions` that is already contradictory with the
    /// clauses (the *core*; empty when the clauses alone are UNSAT).
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.conflict_core.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.backtrack(0);
        if let Some(confl) = self.propagate() {
            self.record_level0_refutation_from(confl);
            self.ok = false;
            return SolveResult::Unsat;
        }
        let conflicts_at_start = self.stats.conflicts;
        if self.preprocess
            && self.num_originals > self.pp_seen_originals + self.pp_seen_originals / 4
        {
            let early = self.run_preprocess(conflicts_at_start);
            self.maybe_gc();
            if let Some(early) = early {
                return early;
            }
            self.pp_seen_originals = self.num_originals;
        }
        let mut restart_num = 0u64;
        let mut restart_budget = 100 * Self::luby(restart_num);
        let mut conflicts_this_restart = 0u64;

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_restart += 1;
                if self.decision_level() == 0 {
                    self.record_level0_refutation_from(confl);
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                let (bt, chain) = self.analyze(confl);
                self.backtrack(bt);
                let learnt = std::mem::take(&mut self.clause_buf);
                let pid = match (self.proof.as_mut(), chain) {
                    (Some(p), Some((start, resolutions))) => p.push(ProofStep::Chain {
                        lits: learnt.clone(),
                        start,
                        resolutions,
                    }),
                    _ => 0,
                };
                let lbd = distinct_levels(
                    &mut self.level_stamp,
                    &mut self.lbd_epoch,
                    &self.vardata,
                    learnt.iter().copied(),
                );
                let asserting = learnt[0];
                let len = learnt.len();
                let cref = self.alloc_clause(&learnt, true, pid);
                self.clause_buf = learnt;
                self.ca.set_lbd(cref, lbd);
                self.ca.set_tier(cref, Self::tier_for_lbd(lbd));
                self.ca.set_used(cref, 2);
                if len >= 2 {
                    self.attach(cref);
                }
                self.enqueue(asserting, cref);
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                if self.restart_policy == RestartPolicy::Ema {
                    // Feed the restart heuristics. The trail length is
                    // sampled *after* backtracking to the assertion
                    // level, the moment comparable across conflicts.
                    let (l, t) = (lbd as f64, self.trail.len() as f64);
                    if self.ema_samples == 0 {
                        self.lbd_ema_fast = l;
                        self.lbd_ema_slow = l;
                        self.trail_ema = t;
                    } else {
                        self.lbd_ema_fast += (l - self.lbd_ema_fast) / EMA_FAST_WINDOW;
                        self.lbd_ema_slow += (l - self.lbd_ema_slow) / EMA_SLOW_WINDOW;
                        self.trail_ema += (t - self.trail_ema) / EMA_SLOW_WINDOW;
                    }
                    self.ema_samples += 1;
                    // Blocking: an unusually long trail suggests the
                    // search is closing in on a model — postpone any
                    // pending restart rather than throw it away.
                    if conflicts_this_restart >= EMA_MIN_CONFLICTS
                        && t > BLOCK_MARGIN * self.trail_ema
                    {
                        conflicts_this_restart = 0;
                    }
                }
                if self.out_of_budget(conflicts_at_start) {
                    self.backtrack(0);
                    return SolveResult::Unknown;
                }
                if self.stats.learnts as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts += TIERED_REDUCE_INC;
                }
            } else {
                let restart_now = match self.restart_policy {
                    RestartPolicy::Luby => conflicts_this_restart >= restart_budget,
                    RestartPolicy::Ema => {
                        conflicts_this_restart >= EMA_MIN_CONFLICTS
                            && self.lbd_ema_fast > EMA_MARGIN * self.lbd_ema_slow
                    }
                };
                if restart_now && self.decision_level() > 0 {
                    restart_num += 1;
                    restart_budget = 100 * Self::luby(restart_num);
                    conflicts_this_restart = 0;
                    self.stats.restarts += 1;
                    if self.restart_policy == RestartPolicy::Ema {
                        // Discharge the trigger so the next restart
                        // needs fresh evidence of stalling.
                        self.lbd_ema_fast = self.lbd_ema_slow;
                    }
                    self.backtrack(0);
                    continue;
                }
                // Establish assumptions as pseudo-decisions.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.value_lit(a) {
                        LBOOL_TRUE => {
                            // Already implied: open an empty level.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBOOL_FALSE => {
                            self.analyze_final(a);
                            // Unwind before returning: leaving the
                            // assumption levels on the trail would make
                            // a later `add_clause`/`import_learnts`
                            // trip the level-0 assertion, and their
                            // stale propagations must not leak into the
                            // next call's state.
                            self.backtrack(0);
                            return SolveResult::Unsat;
                        }
                        _ => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, NO_REASON);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        // Full model.
                        self.model.clone_from(&self.assigns);
                        self.backtrack(0);
                        return SolveResult::Sat;
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        if self.out_of_budget(conflicts_at_start) {
                            self.backtrack(0);
                            return SolveResult::Unknown;
                        }
                        let l = Lit::new(v, !self.polarity[v.index()]);
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, NO_REASON);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // bounded root-level preprocessing
    // ------------------------------------------------------------------

    /// Charges `amount` bookkeeping ticks to the preprocessing pass,
    /// converting whole [`PP_TICKS_PER_CONFLICT`] blocks into
    /// conflict-equivalents on [`SolverStats::conflicts`]. Returns
    /// `true` once the pass must stop: either its own cap
    /// ([`PP_MAX_CONFLICTS`]) is reached or — the caller then ends the
    /// whole solve — the call's effort budget ran out.
    fn pp_charge(&mut self, ticks: &mut u64, amount: u64, conflicts_at_start: u64) -> bool {
        *ticks += amount;
        while *ticks >= PP_TICKS_PER_CONFLICT {
            *ticks -= PP_TICKS_PER_CONFLICT;
            self.stats.conflicts += 1;
        }
        self.out_of_budget(conflicts_at_start)
            || self.stats.conflicts - conflicts_at_start >= PP_MAX_CONFLICTS
    }

    /// The bounded root-level preprocessing pass: forward subsumption,
    /// self-subsuming resolution and failed-literal probing, run at
    /// decision level 0 before search when [`Solver::set_preprocess`]
    /// is on and new original clauses have arrived.
    ///
    /// Every simplification is proof-safe: subsumed clauses are only
    /// *deleted* (proof steps persist, so chains referring to them
    /// stay checkable), strengthened clauses are re-derived as fresh
    /// clauses with a logged resolution chain, and failed literals are
    /// learnt through the regular conflict-analysis path. Returns
    /// `Some(result)` when preprocessing itself decided the call
    /// (refutation found, or the effort budget expired mid-pass).
    fn run_preprocess(&mut self, conflicts_at_start: u64) -> Option<SolveResult> {
        debug_assert_eq!(self.decision_level(), 0);
        let mut ticks = 0u64;
        if let Some(r) = self.pp_subsume(&mut ticks, conflicts_at_start) {
            return Some(r);
        }
        if self.out_of_budget(conflicts_at_start) {
            return Some(SolveResult::Unknown);
        }
        if let Some(r) = self.pp_probe(&mut ticks, conflicts_at_start) {
            return Some(r);
        }
        if self.out_of_budget(conflicts_at_start) {
            return Some(SolveResult::Unknown);
        }
        None
    }

    /// Forward subsumption and self-subsuming resolution over the
    /// current clause database (root-satisfied and deleted clauses are
    /// skipped; locked clauses are never touched because a level-0
    /// reason clause is always root-satisfied).
    fn pp_subsume(&mut self, ticks: &mut u64, conflicts_at_start: u64) -> Option<SolveResult> {
        // Occurrence lists over the snapshot `..end`; clauses created by
        // strengthening below are appended after `end` and are
        // deliberately not re-queued (one bounded pass, not a fixpoint).
        let end = self.ca.words() as ClauseRef;
        let mut occ: Vec<Vec<ClauseRef>> = vec![Vec::new(); 2 * self.num_vars()];
        let mut total_lits = 0u64;
        let mut c = 0;
        while c < end {
            if !self.ca.is_deleted(c) && self.ca.len(c) >= 2 {
                total_lits += self.ca.len(c) as u64;
                for l in self.ca.lits(c) {
                    occ[l.code() as usize].push(c);
                }
            }
            c = self.ca.next(c);
        }
        if self.pp_charge(ticks, total_lits, conflicts_at_start) {
            return self.pp_stop(conflicts_at_start);
        }
        let mut c_lits: Vec<Lit> = Vec::new();
        let mut targets: Vec<ClauseRef> = Vec::new();
        let mut next = 0;
        while next < end {
            let ci = next;
            next = self.ca.next(ci);
            let len = self.ca.len(ci);
            if self.ca.is_deleted(ci) || !(2..=PP_SUBSUME_MAX_LEN).contains(&len) {
                continue;
            }
            if self.ca.lits(ci).any(|l| self.value_lit(l) == LBOOL_TRUE) {
                continue; // root-satisfied
            }
            c_lits.clear();
            c_lits.extend(self.ca.lits(ci));
            // Subsumption targets: clauses sharing C's rarest literal.
            let lmin = *c_lits
                .iter()
                .min_by_key(|l| occ[l.code() as usize].len())
                .expect("non-empty clause");
            targets.clear();
            targets.extend_from_slice(&occ[lmin.code() as usize]);
            // Strengthening targets: clauses containing a negation of
            // one of C's literals (bounded scan).
            for &l in &c_lits {
                let neg = &occ[(!l).code() as usize];
                if neg.len() <= PP_STRENGTHEN_OCC_CAP {
                    targets.extend_from_slice(neg);
                }
            }
            for &dj in &targets {
                if dj == ci {
                    continue;
                }
                let d_len = self.ca.len(dj);
                if self.ca.is_deleted(dj)
                    || d_len < c_lits.len()
                    || self.ca.lits(dj).any(|l| self.value_lit(l) == LBOOL_TRUE)
                {
                    continue;
                }
                let cost = (c_lits.len() + d_len) as u64;
                if self.pp_charge(ticks, cost, conflicts_at_start) {
                    return self.pp_stop(conflicts_at_start);
                }
                // C ⊆ D (subsumes) or C ⊆ D with exactly one literal
                // negated (self-subsuming resolution on that literal).
                let mut flip: Option<Lit> = None;
                let mut matched = true;
                for &l in &c_lits {
                    if self.ca.contains(dj, l) {
                        continue;
                    }
                    if self.ca.contains(dj, !l) && flip.is_none() {
                        flip = Some(l);
                    } else {
                        matched = false;
                        break;
                    }
                }
                if !matched {
                    continue;
                }
                match flip {
                    // D is subsumed by C: delete it.
                    None => self.delete_clause(dj),
                    Some(l) => {
                        if let Some(r) = self.pp_strengthen(ci, dj, l) {
                            return Some(r);
                        }
                    }
                }
            }
        }
        None
    }

    /// The `Unknown`/`Unsat` result to surface when preprocessing hits
    /// a budget wall (`None` when only the pass cap was reached — the
    /// solve continues with search).
    fn pp_stop(&mut self, conflicts_at_start: u64) -> Option<SolveResult> {
        if self.out_of_budget(conflicts_at_start) {
            self.backtrack(0);
            Some(SolveResult::Unknown)
        } else {
            None
        }
    }

    /// Self-subsuming resolution: resolving `C` (containing `l`) with
    /// `D` (containing `¬l`) yields `D \ {¬l}`, which replaces `D` as
    /// a fresh clause with a logged chain. May propagate and thus
    /// refute the formula outright.
    fn pp_strengthen(&mut self, ci: ClauseRef, dj: ClauseRef, l: Lit) -> Option<SolveResult> {
        let mut lits = std::mem::take(&mut self.clause_buf);
        lits.clear();
        lits.extend(self.ca.lits(dj).filter(|&q| q != !l));
        debug_assert!(!lits.is_empty());
        let pid = {
            let start = self.ca.proof_id(dj);
            let other = self.ca.proof_id(ci);
            self.proof
                .as_mut()
                .map(|p| {
                    p.push(ProofStep::Chain {
                        lits: lits.clone(),
                        start,
                        resolutions: vec![(l.var(), other)],
                    })
                })
                .unwrap_or(0)
        };
        // Retire D; the strengthened clause takes over its duties.
        let learnt = self.ca.is_learnt(dj);
        let old_lbd = self.ca.lbd(dj);
        self.delete_clause(dj);
        // Order non-false literals first so the watches are sound (no
        // literal is true here: a root-satisfied D was skipped).
        lits.sort_by_key(|&q| self.value_lit(q) == LBOOL_FALSE);
        let n_watchable = lits
            .iter()
            .filter(|&&q| self.value_lit(q) != LBOOL_FALSE)
            .count();
        let len = lits.len();
        let unit = lits[0];
        let cref = self.alloc_clause(&lits, learnt, pid);
        self.clause_buf = lits;
        if learnt {
            let lbd = old_lbd.min(len as u32).max(1);
            self.ca.set_lbd(cref, lbd);
            self.ca.set_tier(cref, Self::tier_for_lbd(lbd));
            self.ca.set_used(cref, 2);
        }
        match n_watchable {
            0 => {
                // Every literal false at level 0: refutation.
                self.record_level0_refutation_from(cref);
                self.ok = false;
                Some(SolveResult::Unsat)
            }
            1 => {
                if len >= 2 {
                    self.attach(cref);
                }
                if self.value_lit(unit) == LBOOL_UNDEF {
                    self.enqueue(unit, cref);
                    if let Some(confl) = self.propagate() {
                        self.record_level0_refutation_from(confl);
                        self.ok = false;
                        return Some(SolveResult::Unsat);
                    }
                }
                None
            }
            _ => {
                self.attach(cref);
                None
            }
        }
    }

    /// Failed-literal probing: assume each unassigned literal at a
    /// throwaway decision level; a conflict makes its negation a
    /// proof-logged learnt unit (via the regular analysis path, which
    /// at level 1 always yields a unit clause).
    fn pp_probe(&mut self, ticks: &mut u64, conflicts_at_start: u64) -> Option<SolveResult> {
        debug_assert_eq!(self.decision_level(), 0);
        for v in 0..self.num_vars() {
            for neg in [false, true] {
                if self.assigns[v] != LBOOL_UNDEF {
                    break;
                }
                let probe = Lit::new(Var::new(v), neg);
                let lim = self.trail.len();
                self.trail_lim.push(lim);
                self.enqueue(probe, NO_REASON);
                let confl = self.propagate();
                let work = (self.trail.len() - lim) as u64 + 1;
                match confl {
                    None => {
                        self.backtrack(0);
                        if self.pp_charge(ticks, work, conflicts_at_start) {
                            return self.pp_stop(conflicts_at_start);
                        }
                    }
                    Some(confl) => {
                        self.stats.conflicts += 1;
                        let (bt, chain) = self.analyze(confl);
                        let learnt = std::mem::take(&mut self.clause_buf);
                        debug_assert_eq!(learnt.len(), 1, "level-1 analysis yields a unit");
                        debug_assert_eq!(bt, 0);
                        self.backtrack(0);
                        let pid = match (self.proof.as_mut(), chain) {
                            (Some(p), Some((start, resolutions))) => p.push(ProofStep::Chain {
                                lits: learnt.clone(),
                                start,
                                resolutions,
                            }),
                            _ => 0,
                        };
                        let asserting = learnt[0];
                        let cref = self.alloc_clause(&learnt, true, pid);
                        self.clause_buf = learnt;
                        self.ca.set_lbd(cref, 1);
                        self.ca.set_tier(cref, TIER_CORE);
                        self.enqueue(asserting, cref);
                        if let Some(confl2) = self.propagate() {
                            self.record_level0_refutation_from(confl2);
                            self.ok = false;
                            return Some(SolveResult::Unsat);
                        }
                        if self.out_of_budget(conflicts_at_start) {
                            return Some(SolveResult::Unknown);
                        }
                        if self.pp_charge(ticks, work, conflicts_at_start) {
                            return self.pp_stop(conflicts_at_start);
                        }
                    }
                }
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // clause export / import
    // ------------------------------------------------------------------

    /// Snapshots the solver's pinned knowledge for reuse elsewhere: up
    /// to `max_clauses` core-tier learnt clauses (LBD ≤ 2 — the
    /// clauses tiered reduction keeps forever) and up to
    /// `max_activities` of the hottest VSIDS activities, normalized to
    /// the maximum. See [`LearntExport`] for the determinism and
    /// soundness contract.
    ///
    /// Clauses are selected lowest-LBD first (ties broken by sorted
    /// literal content), so a cap keeps the strongest ones.
    pub fn export_learnts(&self, max_clauses: usize, max_activities: usize) -> LearntExport {
        let mut clauses: Vec<(u32, Vec<Lit>)> = self
            .learnt_refs
            .iter()
            .filter(|&&r| !self.ca.is_deleted(r) && self.ca.tier(r) == TIER_CORE)
            .map(|&r| {
                let mut lits: Vec<Lit> = self.ca.lits(r).collect();
                lits.sort_unstable();
                (self.ca.lbd(r), lits)
            })
            .collect();
        clauses.sort_unstable();
        clauses.dedup_by(|a, b| a.1 == b.1);
        clauses.truncate(max_clauses);
        let mut activities: Vec<(Var, f64)> = self
            .activity
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a > 0.0)
            .map(|(v, &a)| (Var::new(v), a))
            .collect();
        activities.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        activities.truncate(max_activities);
        if let Some(&(_, max)) = activities.first() {
            for (_, a) in &mut activities {
                *a /= max;
            }
        }
        LearntExport {
            clauses: clauses.into_iter().map(|(_, lits)| lits).collect(),
            activities,
        }
    }

    /// Replays a [`LearntExport`] into this solver as regular clauses,
    /// returning how many were added. Clauses mentioning variables this
    /// solver has not allocated are skipped.
    ///
    /// **Soundness is the caller's contract**: every imported clause
    /// must be implied by this solver's clause set (guaranteed when the
    /// donor solved the same clauses — see [`LearntExport::clauses`]).
    /// With proof logging on, imports are recorded as
    /// [`ProofStep::Original`] steps, i.e. as axioms: chains resolving
    /// on them replay unchanged, and the proof certifies the formula
    /// *extended with the imported lemmas* — equisatisfiable with the
    /// original exactly when the caller's contract holds.
    ///
    /// Donor activities are merged by maximum (scaled to this solver's
    /// current bump increment), steering early branching toward the
    /// donor's hot variables without erasing local knowledge. Resets
    /// [`Solver::failed_assumptions`]: a core computed before the
    /// import could cite literals whose status the new clauses changed.
    pub fn import_learnts(&mut self, export: &LearntExport) -> u64 {
        self.backtrack(0);
        self.conflict_core.clear();
        let mut added = 0u64;
        for clause in &export.clauses {
            if !self.ok {
                break;
            }
            if clause.iter().any(|l| l.var().index() >= self.num_vars()) {
                continue;
            }
            self.add_clause(clause.iter().copied());
            added += 1;
        }
        for &(v, a) in &export.activities {
            if v.index() >= self.num_vars() {
                continue;
            }
            let scaled = a * self.var_inc;
            if scaled > self.activity[v.index()] {
                self.activity[v.index()] = scaled;
                self.heap.decrease_key(v, &self.activity);
            }
        }
        added
    }

    // ------------------------------------------------------------------
    // results
    // ------------------------------------------------------------------

    /// The value of `l` in the last model (after [`SolveResult::Sat`]).
    /// `None` if no model is stored or the variable is out of range.
    pub fn model_value(&self, l: Lit) -> Option<bool> {
        let a = *self.model.get(l.var().index())?;
        if a == LBOOL_UNDEF {
            None
        } else {
            Some((a == LBOOL_TRUE) ^ l.is_neg())
        }
    }

    /// The last model as a `Vec<bool>` indexed by variable (unassigned
    /// variables default to `false`).
    pub fn model(&self) -> Vec<bool> {
        self.model.iter().map(|&a| a == LBOOL_TRUE).collect()
    }

    /// After an UNSAT answer from [`Solver::solve_with_assumptions`],
    /// the subset of assumption literals forming a contradictory core
    /// (empty when the clause set alone is UNSAT).
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.conflict_core
    }
}

/// The value of `l` under `assigns` (`LBOOL_*`).
#[inline]
fn lit_value(assigns: &[u8], l: Lit) -> u8 {
    let a = assigns[l.var().index()];
    if a == LBOOL_UNDEF {
        LBOOL_UNDEF
    } else {
        a ^ l.is_neg() as u8
    }
}

/// The LBD of `lits`: the number of distinct decision levels among
/// them. Each level is counted once by stamping it with a fresh
/// `epoch`, so the count needs neither a sorted copy nor a clearing
/// pass; the stamps are reset only when the epoch wraps around.
fn distinct_levels(
    stamps: &mut Vec<u32>,
    epoch: &mut u32,
    vardata: &[VarData],
    lits: impl Iterator<Item = Lit>,
) -> u32 {
    *epoch = epoch.wrapping_add(1);
    if *epoch == 0 {
        stamps.fill(0);
        *epoch = 1;
    }
    let mut n = 0;
    for l in lits {
        let level = vardata[l.var().index()].level as usize;
        if level >= stamps.len() {
            stamps.resize(level + 1, 0);
        }
        if stamps[level] != *epoch {
            stamps[level] = *epoch;
            n += 1;
        }
    }
    n
}
