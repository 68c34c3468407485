//! The effort-metering layer: one charge/check surface for every
//! budget a solve runs under.
//!
//! The paper truncates runs with wall-clock limits (4 s per QBF call,
//! 6000 s per circuit), which makes results machine- and
//! load-dependent. [`Budget::Work`] replaces the clock with solver
//! **conflicts** — the portable currency of SAT/QBF effort — and this
//! module is where those budgets are enforced:
//!
//! * [`EffortMeter`] — owned by a
//!   [`SolveSession`](crate::session::SolveSession); model searches and
//!   the [`PartitionOracle`](crate::oracle::PartitionOracle) consult
//!   it instead of doing raw `Instant` math. Every solver call charges
//!   the effort it spent ([`EffortMeter::charge`]) and derives its own
//!   limits from what remains ([`EffortMeter::call_limits`]), so a
//!   budgeted truncation falls on the same call at the same conflict
//!   count on every machine.
//! * [`WorkPool`] — a saturating conflict pool. Each output job holds
//!   a *private* pool carrying its reserved slice of the per-circuit
//!   work budget (see [`WorkLedger`]); standalone callers may still
//!   share one pool directly.
//! * [`WorkLedger`] — the two-phase reservation ledger over the
//!   per-circuit work budget: each output *reserves* its slice before
//!   solving and *commits* its actual spend after, and the slice
//!   handed out is, by construction, the one a sequential `jobs = 1`
//!   run would have seen — which is what makes per-circuit `Work`
//!   budgets deterministic at any worker count.
//! * [`CircuitBudget`] — the circuit-scope limits a job carries: the
//!   shared deadline (wall component, anchored at the submission's
//!   first claim) plus the output's work-pool slice (work component).
//!
//! **Determinism.** Per-output `Work` budgets are fully deterministic:
//! each output's meter is private, so which outputs run out of budget
//! — and the partial results they report — are byte-identical across
//! machines, `--jobs` values and background load. Per-*circuit* work
//! budgets go through the [`WorkLedger`]: output `i`'s slice is
//! `min(per-output cap, limit − Σ spend of outputs 0..i)`, a pure
//! function of earlier outputs' (themselves deterministic) spends, so
//! truncation verdicts match the sequential run byte for byte under
//! `jobs > 1` too. The price is ordering: an output whose slice
//! depends on its predecessors waits for their commits. With a finite
//! per-output work cap `c` the wait only starts past the *independent
//! prefix* (outputs `i` with `(i+1)·c ≤ limit`, whose slice is
//! provably `c` no matter what predecessors spend); without one, the
//! ledger serializes outputs — the documented price of a deterministic
//! uncapped circuit pool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use step_sat::EffortStats;

use crate::spec::Budget;

/// The tighter of two optional limits (`None` = unlimited): the one
/// combining rule every budget scope in this module composes with.
fn tighter<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// A shared, saturating work budget (conflicts): the per-circuit
/// analogue of a shared deadline. Outputs debit the work they spent;
/// once the pool is empty, remaining outputs are truncated.
#[derive(Debug)]
pub struct WorkPool {
    remaining: AtomicU64,
}

impl WorkPool {
    /// A pool holding `limit` conflicts.
    pub fn new(limit: u64) -> Self {
        WorkPool {
            remaining: AtomicU64::new(limit),
        }
    }

    /// Conflicts left in the pool.
    pub fn remaining(&self) -> u64 {
        self.remaining.load(Ordering::Acquire)
    }

    /// Whether the pool is spent.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Debits `work` conflicts, saturating at zero.
    pub fn debit(&self, work: u64) {
        if work == 0 {
            return;
        }
        let mut cur = self.remaining.load(Ordering::Acquire);
        loop {
            let next = cur.saturating_sub(work);
            match self.remaining.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }
}

/// The two-phase (reserve → commit) work-reservation ledger that makes
/// per-circuit [`Budget::Work`] budgets deterministic under `jobs > 1`.
///
/// The ledger replays the sequential debit order: output `i`'s slice
/// of the circuit pool is `limit − Σ_{j<i} spent_j`, exactly what a
/// `jobs = 1` run's shared pool would hold when output `i` starts.
/// Workers therefore:
///
/// 1. [`reserve`](WorkLedger::reserve) their output's slice (blocking
///    until it is deterministic — see below), wrap it in a private
///    [`WorkPool`] and solve under it;
/// 2. [`commit`](WorkLedger::commit) the actual conflicts spent
///    (commit `0` on every skip path — cancellation, drains, panics —
///    so blocked reservations always wake).
///
/// **Independent prefix.** With a finite per-output work cap `c`, no
/// output can spend more than `c`, so every output `i` with
/// `(i+1)·c ≤ limit` provably still finds at least `c` in the pool —
/// its slice is `c` regardless of scheduling, and `reserve` returns
/// immediately. Past that prefix (and always, without a per-output
/// cap) `reserve(i)` waits until outputs `0..i` have committed, which
/// serializes the tail: determinism is bought with ordering, never
/// with changed answers.
#[derive(Debug)]
pub struct WorkLedger {
    /// The per-circuit work budget being sliced.
    limit: u64,
    /// The per-output work cap bounding any single output's spend —
    /// the invariant the independent-prefix fast path rests on.
    per_output_cap: Option<u64>,
    state: Mutex<LedgerState>,
    ready: Condvar,
}

#[derive(Debug)]
struct LedgerState {
    /// Committed spend per output index (`None` = outstanding).
    committed: Vec<Option<u64>>,
    /// First index without a committed spend; `reserve(i)` outside the
    /// independent prefix waits for this to reach `i`.
    prefix: usize,
}

impl WorkLedger {
    /// A ledger slicing `limit` conflicts across `n_out` outputs whose
    /// individual spends are bounded by `per_output_cap` (the work
    /// component of the per-output budget, if any).
    pub fn new(limit: u64, per_output_cap: Option<u64>, n_out: usize) -> Self {
        WorkLedger {
            limit,
            per_output_cap,
            state: Mutex::new(LedgerState {
                committed: vec![None; n_out],
                prefix: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// Reserves output `idx`'s slice of the circuit pool: the
    /// conflicts a sequential run would find remaining when this
    /// output starts. Blocks until the slice is deterministic (never
    /// for outputs in the independent prefix, nor once every earlier
    /// output has committed).
    pub fn reserve(&self, idx: usize) -> u64 {
        if self.limit == 0 {
            return 0;
        }
        if let Some(cap) = self.per_output_cap {
            let fits = (idx as u64)
                .checked_add(1)
                .and_then(|k| k.checked_mul(cap))
                .is_some_and(|need| need <= self.limit);
            if fits {
                // Predecessors each spend at most `cap`, so at least
                // `cap` of the pool provably survives to this output
                // whatever they do. The `max(1)` keeps a zero cap from
                // reading as an exhausted *circuit* pool: the
                // per-output meter enforces the zero, exactly as it
                // would against the true (positive) pool remainder.
                return cap.max(1);
            }
        }
        let mut st = self.state.lock().expect("work ledger lock");
        while st.prefix < idx {
            st = self.ready.wait(st).expect("work ledger lock");
        }
        let spent: u64 = st.committed[..idx].iter().map(|c| c.unwrap_or(0)).sum();
        self.limit.saturating_sub(spent)
    }

    /// Commits output `idx`'s actual spend (its meter's conflict
    /// count; `0` for skipped, cancelled or failed outputs), waking
    /// reservations waiting on it. Idempotent — the first commit for
    /// an index wins, so racing a cancellation drain is harmless.
    pub fn commit(&self, idx: usize, spent: u64) {
        // Cap at the per-output cap: the meter already bounds real
        // spend this way, and the independent-prefix grant depends on
        // the invariant.
        let spent = match self.per_output_cap {
            Some(cap) => spent.min(cap),
            None => spent,
        };
        let mut st = self.state.lock().expect("work ledger lock");
        if idx >= st.committed.len() || st.committed[idx].is_some() {
            return;
        }
        st.committed[idx] = Some(spent);
        while st.prefix < st.committed.len() && st.committed[st.prefix].is_some() {
            st.prefix += 1;
        }
        self.ready.notify_all();
    }
}

/// The circuit-scope limits one output job runs under: the shared
/// deadline (wall component of the per-circuit budget, possibly capped
/// by an explicit per-submission deadline) and the shared work pool.
/// Cheap to clone — the pool is shared, not copied.
#[derive(Clone, Debug, Default)]
pub struct CircuitBudget {
    /// The shared circuit deadline, if the per-circuit budget has a
    /// wall component (anchored at the submission's first claim).
    pub deadline: Option<Instant>,
    /// The shared work pool, if the per-circuit budget has a work
    /// component.
    pub work: Option<Arc<WorkPool>>,
}

impl CircuitBudget {
    /// The circuit budget for `budget` anchored at `start` (the
    /// inline, single-caller path; the service anchors the wall
    /// component lazily at first claim instead).
    pub fn anchored(budget: Budget, start: Instant) -> Self {
        CircuitBudget {
            deadline: budget.wall().map(|d| start + d),
            work: budget.work().map(|w| Arc::new(WorkPool::new(w))),
        }
    }

    /// Whether the circuit budget is spent (deadline passed or pool
    /// empty) — outputs claimed after this point are skipped.
    pub fn expired(&self) -> bool {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        self.work.as_deref().is_some_and(WorkPool::is_exhausted)
    }
}

/// Limits for one solver call, derived from a meter and a per-call
/// budget: hand `deadline` to `set_deadline` and `conflicts` to
/// `set_effort_budget`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallLimits {
    /// Wall-clock deadline for the call.
    pub deadline: Option<Instant>,
    /// Conflict budget for the call.
    pub conflicts: Option<u64>,
}

/// The per-output budget meter: tracks the effort spent on one
/// output's solve and answers the two questions every solving layer
/// asks — *may I keep going?* ([`EffortMeter::exhausted`]) and *how
/// much may the next call cost?* ([`EffortMeter::call_limits`]).
///
/// The meter owns the output's wall deadline (per-output ∩ circuit)
/// and work limit, and holds the circuit's shared [`WorkPool`];
/// [`EffortMeter::charge`] feeds both. See the module docs for the
/// determinism contract.
#[derive(Debug, Default)]
pub struct EffortMeter {
    deadline: Option<Instant>,
    work_limit: Option<u64>,
    spent: EffortStats,
    pool: Option<Arc<WorkPool>>,
}

impl EffortMeter {
    /// A meter for one output starting at `start`: wall deadline from
    /// the budgets' wall components (tighter of per-output and
    /// circuit), work limit from the per-output work component, shared
    /// pool from the circuit budget.
    pub fn new(start: Instant, per_output: Budget, circuit: &CircuitBudget) -> Self {
        let deadline = tighter(per_output.wall().map(|d| start + d), circuit.deadline);
        EffortMeter {
            deadline,
            work_limit: per_output.work(),
            spent: EffortStats::default(),
            pool: circuit.work.clone(),
        }
    }

    /// A meter with no limits at all (standalone solves, tests).
    pub fn unlimited() -> Self {
        EffortMeter::default()
    }

    /// The effective wall deadline (`None` under pure work budgets —
    /// nothing on the solve path consults a clock then).
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The effort charged to this meter so far.
    pub fn spent(&self) -> EffortStats {
        self.spent
    }

    /// Conflicts left before a work budget trips: the tighter of the
    /// per-output limit and the circuit pool (`None` = no work budget).
    pub fn remaining_work(&self) -> Option<u64> {
        let own = self
            .work_limit
            .map(|l| l.saturating_sub(self.spent.conflicts));
        tighter(own, self.pool.as_ref().map(|p| p.remaining()))
    }

    /// Whether any budget is spent: the wall deadline passed, or a
    /// work budget (own or circuit pool) ran out. Solving layers check
    /// this between calls and report a timeout when it trips.
    pub fn exhausted(&self) -> bool {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        self.remaining_work() == Some(0)
    }

    /// Charges solver effort to this meter (and debits the circuit
    /// pool). Every solver call on the session's solve path reports
    /// its work here — that single stream is what the work budgets
    /// meter.
    pub fn charge(&mut self, work: EffortStats) {
        self.spent += work;
        if let Some(pool) = &self.pool {
            pool.debit(work.conflicts);
        }
    }

    /// The limits for one solver call under `per_call`: the call's
    /// deadline is the tighter of the meter deadline and `now +
    /// per_call.wall()`; its conflict budget is the per-call work
    /// component capped by [`EffortMeter::remaining_work`]. With no
    /// per-call budget, pass [`Budget::Unlimited`] — the call still
    /// inherits the meter's own limits.
    pub fn call_limits(&self, per_call: Budget) -> CallLimits {
        CallLimits {
            deadline: tighter(self.deadline, per_call.wall().map(|d| Instant::now() + d)),
            conflicts: tighter(per_call.work(), self.remaining_work()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn effort(conflicts: u64) -> EffortStats {
        EffortStats {
            conflicts,
            decisions: 2 * conflicts,
            propagations: 10 * conflicts,
        }
    }

    #[test]
    fn work_pool_debits_and_saturates() {
        let pool = WorkPool::new(10);
        assert_eq!(pool.remaining(), 10);
        pool.debit(4);
        assert_eq!(pool.remaining(), 6);
        pool.debit(100);
        assert_eq!(pool.remaining(), 0);
        assert!(pool.is_exhausted());
    }

    #[test]
    fn meter_trips_on_own_work_limit() {
        let mut m = EffortMeter::new(Instant::now(), Budget::Work(10), &CircuitBudget::default());
        assert!(!m.exhausted());
        assert_eq!(m.remaining_work(), Some(10));
        assert_eq!(m.deadline(), None, "pure work budget never sets a clock");
        m.charge(effort(7));
        assert_eq!(m.remaining_work(), Some(3));
        m.charge(effort(3));
        assert!(m.exhausted());
        assert_eq!(m.spent().conflicts, 10);
    }

    #[test]
    fn meter_trips_on_the_shared_pool() {
        let circuit = CircuitBudget {
            deadline: None,
            work: Some(Arc::new(WorkPool::new(5))),
        };
        let mut a = EffortMeter::new(Instant::now(), Budget::Unlimited, &circuit);
        let b = EffortMeter::new(Instant::now(), Budget::Unlimited, &circuit);
        a.charge(effort(5));
        assert!(a.exhausted());
        assert!(b.exhausted(), "siblings share the pool");
        assert!(circuit.expired());
    }

    #[test]
    fn meter_combines_wall_components() {
        let start = Instant::now();
        let circuit = CircuitBudget {
            deadline: Some(start + Duration::from_secs(1)),
            work: None,
        };
        let m = EffortMeter::new(start, Budget::Wall(Duration::from_secs(60)), &circuit);
        assert_eq!(
            m.deadline(),
            Some(start + Duration::from_secs(1)),
            "circuit deadline caps the per-output one"
        );
        assert_eq!(m.remaining_work(), None);
    }

    #[test]
    fn call_limits_cap_per_call_work_by_remaining() {
        let mut m = EffortMeter::new(Instant::now(), Budget::Work(10), &CircuitBudget::default());
        m.charge(effort(7));
        let limits = m.call_limits(Budget::Work(100));
        assert_eq!(limits.conflicts, Some(3));
        assert_eq!(limits.deadline, None);
        let limits = m.call_limits(Budget::Work(2));
        assert_eq!(limits.conflicts, Some(2), "per-call limit can be tighter");
        let limits = m.call_limits(Budget::Unlimited);
        assert_eq!(limits.conflicts, Some(3), "meter limits apply regardless");
    }

    #[test]
    fn ledger_replays_the_sequential_debit_order() {
        // limit 10, per-output cap 4: outputs 0 and 1 are in the
        // independent prefix ((i+1)*4 <= 10); output 2 gets what the
        // sequential run would leave it; output 3 gets the rest.
        let ledger = WorkLedger::new(10, Some(4), 4);
        assert_eq!(ledger.reserve(0), 4);
        assert_eq!(ledger.reserve(1), 4, "independent prefix needs no waits");
        ledger.commit(0, 3);
        ledger.commit(1, 4);
        assert_eq!(ledger.reserve(2), 3, "10 - (3 + 4)");
        ledger.commit(2, 3);
        assert_eq!(ledger.reserve(3), 0, "pool exhausted, output skipped");
        ledger.commit(3, 0);
    }

    #[test]
    fn ledger_reservation_waits_for_predecessor_commits() {
        // No per-output cap: reserve(1) must block until output 0
        // commits (the serialized tail).
        let ledger = Arc::new(WorkLedger::new(100, None, 2));
        let l2 = Arc::clone(&ledger);
        let waiter = std::thread::spawn(move || l2.reserve(1));
        std::thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished(), "reserve(1) must wait for commit(0)");
        ledger.commit(0, 60);
        assert_eq!(waiter.join().unwrap(), 40);
    }

    #[test]
    fn ledger_commit_is_idempotent_and_first_wins() {
        let ledger = WorkLedger::new(10, None, 2);
        assert_eq!(ledger.reserve(0), 10);
        ledger.commit(0, 4);
        ledger.commit(0, 9); // a racing second commit is ignored
        assert_eq!(ledger.reserve(1), 6);
    }

    #[test]
    fn ledger_zero_cap_grant_does_not_fake_circuit_exhaustion() {
        // A per-output cap of 0 means every output's own meter trips
        // immediately, but the *circuit* pool is untouched: the grant
        // must stay positive so expired() reflects the real pool.
        let ledger = WorkLedger::new(10, Some(0), 3);
        let slice = ledger.reserve(2);
        assert!(slice >= 1);
        let circuit = CircuitBudget {
            deadline: None,
            work: Some(Arc::new(WorkPool::new(slice))),
        };
        assert!(!circuit.expired());
        let m = EffortMeter::new(Instant::now(), Budget::Work(0), &circuit);
        assert!(
            m.exhausted(),
            "the per-output meter still enforces the zero"
        );
    }

    #[test]
    fn ledger_zero_limit_is_exhausted_for_every_output() {
        let ledger = WorkLedger::new(0, Some(5), 2);
        assert_eq!(ledger.reserve(0), 0);
        assert_eq!(ledger.reserve(1), 0);
    }

    #[test]
    fn anchored_circuit_budget_splits_components() {
        let start = Instant::now();
        let b = CircuitBudget::anchored(
            Budget::Both {
                wall: Duration::from_secs(5),
                work: 42,
            },
            start,
        );
        assert_eq!(b.deadline, Some(start + Duration::from_secs(5)));
        assert_eq!(b.work.as_ref().map(|p| p.remaining()), Some(42));
        assert!(!b.expired());
        let unlimited = CircuitBudget::anchored(Budget::Unlimited, start);
        assert!(unlimited.deadline.is_none() && unlimited.work.is_none());
    }
}
