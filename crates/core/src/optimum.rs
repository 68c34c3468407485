//! Optimum search over the target bound `k` (Section IV-A-6).
//!
//! Feasibility is monotone in `k` (a larger bound only weakens `fT`),
//! so the optimum is the smallest feasible `k`. The search maintains an
//! interval `[lo, hi]` where `hi` is the best *achieved* bound (from
//! the STEP-MG bootstrap or a previous probe) and `lo-1` is the largest
//! refuted bound, and picks probes according to the strategy:
//! **MI** probes `lo`, **MD** probes `hi−1`, **Bin** probes the middle,
//! and **MD→Bin→MI** follows the paper's best-for-disjointness
//! pipeline.

use crate::clause_bank::{ProbeLedger, ProbeVerdict};
use crate::effort::EffortMeter;
use crate::oracle::CoreFormula;
use crate::partition::VarPartition;
use crate::qbf_model::{solve_partition, ModelOptions, QbfModelOutcome, Target};
use crate::spec::SearchStrategy;

/// Which metric the bound `k` constrains.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Metric {
    /// `k = |XC|` (equation (5)).
    Disjointness,
    /// `k = |XA| − |XB|` with `|XA| ≥ |XB|` (equation (6)).
    Balancedness,
    /// `k = |XC| + |XA| − |XB|` (equation (8)).
    Combined,
    /// `k = wd·|XC| + wb·(|XA| − |XB|)` — Definition 4 with arbitrary
    /// integer weights.
    Weighted {
        /// Weight `ϖD` of the disjointness count.
        wd: u32,
        /// Weight `ϖB` of the balance difference.
        wb: u32,
    },
}

impl Metric {
    /// The metric value of a (normalized) partition.
    pub fn k_of(self, p: &VarPartition) -> usize {
        let p = p.normalized();
        match self {
            Metric::Disjointness => p.k_disjoint(),
            Metric::Balancedness => p.k_balance(),
            Metric::Combined => p.k_combined(),
            Metric::Weighted { wd, wb } => {
                wd as usize * p.k_disjoint() + wb as usize * p.k_balance()
            }
        }
    }

    /// The loosest meaningful bound for support size `n` (any
    /// non-trivial partition satisfies it).
    pub fn k_max(self, n: usize) -> usize {
        match self {
            Metric::Weighted { wd, wb } => (wd as usize + wb as usize) * n.saturating_sub(2),
            _ => n.saturating_sub(2),
        }
    }

    /// The `fT` target bounding this metric by `k`.
    pub(crate) fn target(self, k: usize) -> Target {
        match self {
            Metric::Disjointness => Target::DisjointAtMost(k),
            Metric::Balancedness => Target::BalancedWindow(k),
            Metric::Combined => Target::CombinedAtMost(k),
            Metric::Weighted { wd, wb } => Target::Weighted { wd, wb, k },
        }
    }
}

/// Result of the optimum search.
#[derive(Clone, Debug)]
pub struct OptimumResult {
    /// The best partition found (the bootstrap if nothing better was
    /// proven in budget; `None` only if no bootstrap was given and
    /// existence itself timed out or failed).
    pub partition: Option<VarPartition>,
    /// Whether optimality of `partition` was proved.
    pub proved_optimal: bool,
    /// QBF solves performed.
    pub qbf_calls: u32,
    /// QBF solves that timed out.
    pub timeouts: u32,
    /// A budget truncated the search before optimality was settled —
    /// either a probe timed out, or the meter ran dry between probes.
    /// (`timeouts == 0 && truncated` is possible: the budget can trip
    /// on the bootstrap's last SAT call, leaving nothing for QBF.)
    pub truncated: bool,
    /// Total CEGAR iterations across calls.
    pub cegar_iterations: u64,
}

/// Searches the optimum `k` for `metric`, starting from an optional
/// bootstrap partition (the paper bootstraps with STEP-MG, so the
/// result is never worse than the bootstrap). Every QBF probe runs
/// under `meter` (which also supplies the per-call limits via
/// `opts.per_call`) and charges its inner-SAT effort to it.
pub fn search(
    core: &CoreFormula,
    metric: Metric,
    bootstrap: Option<&VarPartition>,
    strategy: SearchStrategy,
    opts: &ModelOptions,
    meter: &mut EffortMeter,
) -> OptimumResult {
    search_with_reuse(core, metric, bootstrap, strategy, opts, meter, None)
}

/// [`search`] with a [`ProbeLedger`] consulted before every probe: it
/// replays definitive probe verdicts recorded by sibling sessions over
/// the same canonical cone — the searched `k` sequence, the verdicts
/// and the returned partition are identical either way, only the
/// solving is skipped.
pub fn search_with_reuse(
    core: &CoreFormula,
    metric: Metric,
    bootstrap: Option<&VarPartition>,
    strategy: SearchStrategy,
    opts: &ModelOptions,
    meter: &mut EffortMeter,
    ledger: Option<&ProbeLedger>,
) -> OptimumResult {
    let n = core.n;
    let mut result = OptimumResult {
        partition: bootstrap.map(|p| p.normalized()),
        proved_optimal: false,
        qbf_calls: 0,
        timeouts: 0,
        truncated: false,
        cegar_iterations: 0,
    };
    if n < 2 {
        return result;
    }

    // hi = best achieved bound + 1 conceptually; we track best_k as the
    // metric of the best partition, and probe within [lo, best_k - 1].
    let mut best_k = match &result.partition {
        Some(p) => metric.k_of(p),
        None => {
            // No bootstrap: establish existence at the loosest bound.
            let k = metric.k_max(n);
            match probe(core, metric, k, opts, meter, ledger, &mut result) {
                ProbeResult::Feasible(p) => {
                    let kk = metric.k_of(&p);
                    result.partition = Some(p);
                    kk
                }
                ProbeResult::Infeasible => {
                    result.proved_optimal = true; // not decomposable at all
                    return result;
                }
                ProbeResult::Timeout => return result,
            }
        }
    };
    let mut lo = 0usize;
    let mut md_steps = 0u32;
    let mut mi_mode = false;

    while lo < best_k {
        if meter.exhausted() {
            result.truncated = true;
            return result;
        }
        let k = match strategy {
            SearchStrategy::MonotoneIncreasing => lo,
            SearchStrategy::MonotoneDecreasing => best_k - 1,
            SearchStrategy::Binary => lo + (best_k - 1 - lo) / 2,
            SearchStrategy::MdBinMi => {
                if md_steps < 2 {
                    md_steps += 1;
                    best_k - 1
                } else if !mi_mode && best_k - lo > 2 {
                    lo + (best_k - 1 - lo) / 2
                } else {
                    mi_mode = true;
                    lo
                }
            }
        };
        match probe(core, metric, k, opts, meter, ledger, &mut result) {
            ProbeResult::Feasible(p) => {
                best_k = metric.k_of(&p).min(k);
                result.partition = Some(p);
            }
            ProbeResult::Infeasible => {
                lo = k + 1;
            }
            ProbeResult::Timeout => return result,
        }
    }
    result.proved_optimal = true;
    result
}

enum ProbeResult {
    Feasible(VarPartition),
    Infeasible,
    Timeout,
}

fn probe(
    core: &CoreFormula,
    metric: Metric,
    k: usize,
    opts: &ModelOptions,
    meter: &mut EffortMeter,
    ledger: Option<&ProbeLedger>,
    result: &mut OptimumResult,
) -> ProbeResult {
    result.qbf_calls += 1;
    let target = metric.target(k);
    // A sibling's certificate replays the exact outcome the
    // deterministic solve below would produce — see the ledger docs.
    if let Some(verdict) = ledger.and_then(|l| l.lookup(target)) {
        return match verdict {
            ProbeVerdict::Infeasible => ProbeResult::Infeasible,
            ProbeVerdict::Feasible(classes) => {
                ProbeResult::Feasible(VarPartition::new(classes).normalized())
            }
        };
    }
    let (outcome, stats) = solve_partition(core, target, opts, meter);
    result.cegar_iterations += stats.cegar_iterations;
    match outcome {
        QbfModelOutcome::Partition(p) => {
            if let Some(l) = ledger {
                l.record(target, ProbeVerdict::Feasible(p.classes().to_vec()));
            }
            ProbeResult::Feasible(p.normalized())
        }
        QbfModelOutcome::NoPartition => {
            if let Some(l) = ledger {
                l.record(target, ProbeVerdict::Infeasible);
            }
            ProbeResult::Infeasible
        }
        QbfModelOutcome::Timeout => {
            result.timeouts += 1;
            result.truncated = true;
            ProbeResult::Timeout
        }
    }
}
