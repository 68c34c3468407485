//! Shared machinery of the three QBF strategies: the STEP-MG bootstrap
//! followed by the optimum `k`-search of Section IV-A-6.

use super::StrategyOutcome;
use crate::mg::{self, MgOutcome};
use crate::optimum::{self, Metric};
use crate::qbf_model::ModelOptions;
use crate::session::SolveSession;

/// Bootstraps with STEP-MG (as in the paper), then searches the
/// optimum bound for `metric`. Both phases charge the session's
/// [`EffortMeter`](crate::effort::EffortMeter), so wall and work
/// budgets apply uniformly across the bootstrap's SAT/MUS calls and
/// the search's QBF probes.
pub(super) fn solve_with_metric(session: &mut SolveSession<'_>, metric: Metric) -> StrategyOutcome {
    let mut out = StrategyOutcome::default();
    let bootstrap = {
        let (oracle, candidates, meter) = session.solve_parts();
        match mg::decompose(oracle, candidates, meter) {
            // A truncated bootstrap is still a sound starting bound;
            // the meter is (near-)exhausted, so the search below will
            // immediately report the truncation.
            MgOutcome::Partition(p) | MgOutcome::TruncatedPartition(p) => Some(p),
            MgOutcome::NotDecomposable => {
                // Proved undecomposable — the QBF search is unnecessary.
                out.solved = true;
                out.proved_optimal = true;
                return out;
            }
            MgOutcome::Timeout => {
                out.timed_out = true;
                return out;
            }
        }
    };

    let config = session.config();
    let opts = ModelOptions {
        symmetry_breaking: config.symmetry_breaking,
        allow_both: config.allow_both,
        per_call: config.budget.per_qbf_call,
        restarts: config.sat_restarts,
        preprocess: config.sat_preprocess,
    };
    let strategy = config.effective_strategy();
    // Under clause reuse, the probe ledger replays definitive verdicts
    // recorded by sibling sessions over the same canonical cone.
    let ledger = session.make_probe_ledger();
    let (oracle, _, meter) = session.solve_parts();
    let search = optimum::search_with_reuse(
        oracle.core(),
        metric,
        bootstrap.as_ref(),
        strategy,
        &opts,
        meter,
        ledger.as_ref(),
    );
    out.qbf_calls = search.qbf_calls;
    out.cegar_iterations = search.cegar_iterations;
    out.proved_optimal = search.proved_optimal;
    out.solved = search.proved_optimal;
    out.timed_out = search.truncated;
    out.partition = search.partition.or(bootstrap);
    out
}
