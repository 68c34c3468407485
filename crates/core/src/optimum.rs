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
//!
//! The bound only ever tightens, so one search keeps one abstraction
//! solver (`qbf_model::Abstraction`) warm across all its probes: `fN`
//! and the counters are built once, each probe's bound is an
//! assumption, and the refinements and learnt clauses of earlier probes
//! carry over. Each probe still checks its candidates against a fresh
//! encoding of the core.
//!
//! A warm probe's witness depends on the probes before it, so reuse
//! works on whole searches: the [`ProbeLedger`] records the transcript
//! of every finished search (each probed `k`, its verdict and each
//! witness) under the search's [`SearchKey`], and a later search with
//! the same key over the same cone replays it whole, solving nothing.

use crate::clause_bank::{ProbeLedger, ProbeVerdict, SearchTranscript};
use crate::effort::EffortMeter;
use crate::oracle::CoreFormula;
use crate::partition::VarPartition;
use crate::qbf_model::{Abstraction, ModelOptions, QbfModelOutcome, Target};
use crate::spec::SearchStrategy;

/// Which metric the bound `k` constrains.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
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
    /// The bound `k` of every probe, in order (a probe that timed out
    /// is the last).
    pub probed_k: Vec<usize>,
}

/// The identity of one `k`-search over a cone within a probe
/// namespace: the metric it bounds, how it picks probes, and the bound
/// it starts below. Probes, verdicts and witnesses of a search are a
/// pure function of this key, the cone, the operator and the
/// namespace's solver knobs, whenever no budget truncates it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SearchKey {
    /// The metric bounded.
    pub metric: Metric,
    /// The probe-picking strategy.
    pub strategy: SearchStrategy,
    /// The bootstrap partition's metric value, or `k_max(n) + 1`
    /// without a bootstrap (the search then first probes `k_max(n)`).
    pub start_k: usize,
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

/// [`search`] with a [`ProbeLedger`] consulted first: a finished search
/// recorded under the same [`SearchKey`] by a sibling session (or an
/// earlier run, through the disk tier) replays whole — the probed `k`
/// sequence, the verdicts and the returned partition are identical
/// either way, only the solving is skipped. A search that finishes
/// here is recorded; a truncated one is not.
pub fn search_with_reuse(
    core: &CoreFormula,
    metric: Metric,
    bootstrap: Option<&VarPartition>,
    strategy: SearchStrategy,
    opts: &ModelOptions,
    meter: &mut EffortMeter,
    ledger: Option<&ProbeLedger<'_>>,
) -> OptimumResult {
    let n = core.n;
    let key = SearchKey {
        metric,
        strategy,
        start_k: bootstrap.map_or(metric.k_max(n) + 1, |p| metric.k_of(p)),
    };
    if let Some(transcript) = ledger.and_then(|l| l.lookup(&key)) {
        let mut replay = transcript.probes.into_iter();
        let mut diverged = false;
        let result = drive(
            n,
            &key,
            bootstrap,
            meter,
            &mut |k, _, _| match replay.next() {
                Some((at, verdict)) if at == k => match verdict {
                    ProbeVerdict::Infeasible => ProbeResult::Infeasible,
                    ProbeVerdict::Feasible(classes) => {
                        ProbeResult::Feasible(VarPartition::new(classes).normalized())
                    }
                },
                _ => {
                    diverged = true;
                    ProbeResult::Timeout
                }
            },
        );
        // All or nothing: a transcript that does not replay to its end
        // (one from a damaged store) is dropped and the search solved.
        if !diverged && replay.next().is_none() {
            return result;
        }
    }

    let mut abstraction: Option<Abstraction> = None;
    let mut probes = Vec::new();
    let result = drive(n, &key, bootstrap, meter, &mut |k, meter, result| {
        let target = metric.target(k);
        let (outcome, stats) = abstraction
            .get_or_insert_with(|| Abstraction::new(n, target, opts))
            .probe(core, target, opts, meter, &mut |_, _, _| {});
        result.cegar_iterations += stats.cegar_iterations;
        match outcome {
            QbfModelOutcome::Partition(p) => {
                probes.push((k, ProbeVerdict::Feasible(p.classes().to_vec())));
                ProbeResult::Feasible(p.normalized())
            }
            QbfModelOutcome::NoPartition => {
                probes.push((k, ProbeVerdict::Infeasible));
                ProbeResult::Infeasible
            }
            QbfModelOutcome::Timeout => {
                result.timeouts += 1;
                result.truncated = true;
                ProbeResult::Timeout
            }
        }
    });
    if let Some(l) = ledger {
        if result.proved_optimal && !probes.is_empty() {
            l.record(&key, SearchTranscript { probes });
        }
    }
    result
}

/// The search loop over `key`, asking `probe` for the verdict at each
/// `k` it picks: `probe(k, meter, result)` solves (or replays) one
/// probe and accounts its own statistics in `result`.
fn drive(
    n: usize,
    key: &SearchKey,
    bootstrap: Option<&VarPartition>,
    meter: &mut EffortMeter,
    probe: &mut dyn FnMut(usize, &mut EffortMeter, &mut OptimumResult) -> ProbeResult,
) -> OptimumResult {
    let SearchKey {
        metric, strategy, ..
    } = *key;
    let mut result = OptimumResult {
        partition: bootstrap.map(|p| p.normalized()),
        proved_optimal: false,
        qbf_calls: 0,
        timeouts: 0,
        truncated: false,
        cegar_iterations: 0,
        probed_k: Vec::new(),
    };
    if n < 2 {
        return result;
    }
    let mut probe = |k: usize, meter: &mut EffortMeter, result: &mut OptimumResult| {
        result.qbf_calls += 1;
        result.probed_k.push(k);
        probe(k, meter, result)
    };

    // hi = best achieved bound + 1 conceptually; we track best_k as the
    // metric of the best partition, and probe within [lo, best_k - 1].
    let mut best_k = match &result.partition {
        Some(p) => metric.k_of(p),
        None => {
            // No bootstrap: establish existence at the loosest bound.
            match probe(metric.k_max(n), meter, &mut result) {
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
        match probe(k, meter, &mut result) {
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
