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
//! * [`WorkLedger`] — the two-phase reservation ledger over the
//!   per-circuit work budget: each output *reserves* its slice before
//!   solving and *commits* its actual spend after, and the slice
//!   handed out is, by construction, the one a sequential `jobs = 1`
//!   run would have seen — which is what makes per-circuit `Work`
//!   budgets deterministic at any worker count.
//! * [`CircuitBudget`] — the circuit-scope limits one output's
//!   session runs under: the shared deadline (wall component, anchored
//!   at the submission's first claim) plus the output's reserved slice
//!   of the circuit's work budget (work component), which the meter
//!   folds into its own work limit.
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

use std::sync::{Condvar, Mutex};
use std::time::Instant;

use step_sat::EffortStats;

use crate::spec::Budget;

/// The tighter of two optional limits (`None` = unlimited): the one
/// combining rule every budget scope in this module composes with.
pub(crate) fn tighter<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
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
///    until it is deterministic — see below) and solve under it as the
///    [`CircuitBudget::work`] limit;
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
        if let Some(cap) = self.prefix_cap(idx) {
            // Predecessors each spend at most `cap`, so at least `cap`
            // of the pool provably survives to this output whatever
            // they do. The `max(1)` keeps a zero cap from reading as
            // an exhausted *circuit* pool: the per-output meter
            // enforces the zero, exactly as it would against the true
            // (positive) pool remainder.
            return cap.max(1);
        }
        let mut st = self.state.lock().expect("work ledger lock");
        while st.prefix < idx {
            st = self.ready.wait(st).expect("work ledger lock");
        }
        let spent: u64 = st.committed[..idx].iter().map(|c| c.unwrap_or(0)).sum();
        self.limit.saturating_sub(spent)
    }

    /// The per-output cap, if output `idx` lies in the independent
    /// prefix (`(idx+1)·cap ≤ limit`).
    fn prefix_cap(&self, idx: usize) -> Option<u64> {
        let cap = self.per_output_cap?;
        let need = (idx as u64).checked_add(1)?.checked_mul(cap)?;
        (need <= self.limit).then_some(cap)
    }

    /// Whether [`reserve`](WorkLedger::reserve)`(idx)` would block
    /// now: `idx` lies past the independent prefix and some earlier
    /// output has not committed yet.
    pub fn would_block(&self, idx: usize) -> bool {
        self.limit != 0
            && self.prefix_cap(idx).is_none()
            && self.state.lock().expect("work ledger lock").prefix < idx
    }

    /// The spend committed so far, each output's capped at the
    /// per-output cap: what a sequential run would have debited from
    /// the pool.
    pub fn committed(&self) -> u64 {
        let st = self.state.lock().expect("work ledger lock");
        st.committed.iter().flatten().sum()
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

/// The circuit-scope limits one output's session runs under: the
/// shared deadline (wall component of the per-circuit budget, possibly
/// capped by an explicit per-submission deadline) and the output's
/// slice of the per-circuit work budget.
#[derive(Clone, Copy, Debug, Default)]
pub struct CircuitBudget {
    /// The shared circuit deadline, if the per-circuit budget has a
    /// wall component (anchored at the submission's first claim).
    pub deadline: Option<Instant>,
    /// This output's reserved slice of the per-circuit work budget
    /// ([`WorkLedger::reserve`]), if that budget has a work component.
    pub work: Option<u64>,
}

impl CircuitBudget {
    /// Whether the circuit budget is spent (deadline passed or empty
    /// work slice) — the output is skipped instead of solved.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d) || self.work == Some(0)
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
/// The meter owns the output's wall deadline and work limit, each the
/// tighter of its per-output and circuit components;
/// [`EffortMeter::charge`] counts against both. See the module docs
/// for the determinism contract.
#[derive(Debug, Default)]
pub struct EffortMeter {
    deadline: Option<Instant>,
    work_limit: Option<u64>,
    spent: EffortStats,
}

impl EffortMeter {
    /// A meter for one output starting at `start`: wall deadline and
    /// work limit each the tighter of the per-output budget's component
    /// and the circuit budget's.
    pub fn new(start: Instant, per_output: Budget, circuit: &CircuitBudget) -> Self {
        EffortMeter {
            deadline: tighter(per_output.wall().map(|d| start + d), circuit.deadline),
            work_limit: tighter(per_output.work(), circuit.work),
            spent: EffortStats::default(),
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

    /// Conflicts left before the work limit trips (`None` = no work
    /// budget).
    pub fn remaining_work(&self) -> Option<u64> {
        self.work_limit
            .map(|l| l.saturating_sub(self.spent.conflicts))
    }

    /// Whether any budget is spent: the wall deadline passed, or the
    /// work limit (own or circuit slice) ran out. Solving layers check
    /// this between calls and report a timeout when it trips.
    pub fn exhausted(&self) -> bool {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        self.remaining_work() == Some(0)
    }

    /// Charges solver effort to this meter. Every solver call on the session's solve path reports
    /// its work here — that single stream is what the work budgets
    /// meter.
    pub fn charge(&mut self, work: EffortStats) {
        self.spent += work;
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
    use std::sync::Arc;
    use std::time::Duration;

    fn effort(conflicts: u64) -> EffortStats {
        EffortStats {
            conflicts,
            decisions: 2 * conflicts,
            propagations: 10 * conflicts,
        }
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
    fn meter_trips_on_a_circuit_slice_below_its_own_cap() {
        let circuit = CircuitBudget {
            deadline: None,
            work: Some(5),
        };
        assert!(!circuit.expired());
        let mut m = EffortMeter::new(Instant::now(), Budget::Work(10), &circuit);
        assert_eq!(m.remaining_work(), Some(5), "the slice caps the own limit");
        m.charge(effort(3));
        assert_eq!(m.remaining_work(), Some(2));
        assert!(!m.exhausted());
        m.charge(effort(2));
        assert!(m.exhausted(), "trips at the slice, not at the own cap");
        assert_eq!(m.spent().conflicts, 5);
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
    fn ledger_reports_its_prefix_and_committed_total() {
        // limit 10, per-output cap 4: outputs 0 and 1 are in the
        // independent prefix, output 2 waits for both commits.
        let ledger = WorkLedger::new(10, Some(4), 3);
        assert!(!ledger.would_block(0) && !ledger.would_block(1));
        assert!(ledger.would_block(2), "past the prefix, nothing committed");
        ledger.commit(1, 9);
        assert!(ledger.would_block(2), "output 0 still outstanding");
        ledger.commit(0, 2);
        assert!(!ledger.would_block(2), "every predecessor committed");
        assert_eq!(ledger.committed(), 2 + 4, "spend is capped per output");
        ledger.commit(2, 1);
        assert_eq!(ledger.committed(), 7);
        assert_eq!(ledger.reserve(2), 10 - 6);
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
            work: Some(slice),
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
}
