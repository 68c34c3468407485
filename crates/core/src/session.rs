//! [`SolveSession`] — the per-output solving state machine.
//!
//! A session owns everything one primary output's solve needs: the
//! extracted cone, the budget meter, the core formula, the incremental
//! [`PartitionOracle`], the simulation pre-filter and the per-output
//! statistics, and drives the output to an [`OutputResult`]. The
//! model's search is one `match` on [`Model`]: LJH or STEP-MG over the
//! session's oracle and candidate filter, or for the QBF models the
//! STEP-MG bootstrap and the optimum `k`-search of [`crate::optimum`].
//! The session then finishes with extraction and verification.
//!
//! **Canonical solving.** The session never searches on the cone as
//! extracted: it first rewrites it into canonical input order
//! ([`step_aig::canonicalize`]) and runs the sim filter, core formula
//! and the model's search there, translating the winning partition
//! back through the canonical permutation. Because the canonical cone
//! — and the simulation seed, which derives from the canonical
//! fingerprint ([`cone_seed`]) — is byte-identical for every
//! structurally identical cone, solved outcomes are a pure function of
//! `(fingerprint, op, config)`. That purity is what the store's result
//! tiers key on: a session consults them before building the core
//! formula and oracle, and a hit skips the entire search (the dominant
//! cost) while producing the same `OutputResult` the search would have.
//!
//! Sessions are created and consumed by one worker thread; nothing in
//! them is shared except the (internally synchronized) store, which is
//! what lets the
//! [`StepService`](crate::service::StepService) pool run many of them
//! concurrently — across outputs of one submission and across
//! submissions alike.

use std::sync::Arc;
use std::time::Instant;

use step_aig::{canonicalize, Aig, CanonicalCone, Cone, ConeFingerprint};

use crate::cache::{CacheLookup, CachedResult};
use crate::clause_bank::{BankLookup, ProbeLedger};
use crate::effort::{CircuitBudget, EffortMeter};
use crate::engine::{OutputResult, StepError};
use crate::extract::{extract, ExtractError};
use crate::ljh::{self, LjhOutcome};
use crate::mg::{self, MgOutcome};
use crate::optimum::{self, Metric};
use crate::oracle::{sim_filter_pairs, CoreFormula, PartitionOracle};
use crate::partition::VarPartition;
use crate::qbf_model::ModelOptions;
use crate::spec::{DecompConfig, GateOp, Model};
use crate::store::{Namespace, TieredStore};
use crate::verify::verify;

/// Derives the simulation seed for a cone from the engine's base seed
/// and the cone's canonical fingerprint hash.
///
/// The seed is a pure function `hash(base, fingerprint)` (a SplitMix64
/// finalizer folding both 64-bit halves of the fingerprint), so a given
/// cone always simulates the same random patterns regardless of which
/// output, circuit, thread or visitation order it was reached through —
/// and two structurally identical cones simulate *identical* patterns.
/// This is what makes [`crate::BiDecomposer::decompose_circuit`]
/// deterministic under `jobs > 1` *and* makes solved outcomes a pure
/// function of the result namespace's key
/// ([`crate::store::ConfigKey::results`]) and the canonical cone.
pub fn cone_seed(base: u64, fingerprint: u128) -> u64 {
    let mut z = base
        ^ (fingerprint as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((fingerprint >> 64) as u64).rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a model's search concluded about one output.
#[derive(Default)]
struct SearchOutcome {
    /// The best partition found (`None` = not decomposable, or the
    /// budget expired before any partition was found).
    partition: Option<VarPartition>,
    /// The model reached a definite answer within budget.
    solved: bool,
    /// The partition was proved metric-optimal (QBF models only).
    proved_optimal: bool,
    /// A budget expired somewhere along the way.
    timed_out: bool,
    /// QBF solves performed.
    qbf_calls: u32,
    /// QBF solves a budget cut short.
    qbf_timeouts: u32,
    /// The bound of every QBF solve, in order.
    probed_k: Vec<usize>,
    /// Total CEGAR iterations across QBF solves.
    cegar_iterations: u64,
    /// Search transcripts served from the disk tier.
    search_disk_hits: u64,
}

/// Per-output solving state: cone, core formula, oracle, seed-pair
/// candidates and budgets. See the module docs.
pub struct SolveSession<'a> {
    config: &'a DecompConfig,
    store: &'a TieredStore,
    out_idx: usize,
    op: GateOp,
    name: String,
    cone: Cone,
    start: Instant,
    meter: EffortMeter,
    candidates: Option<Vec<Vec<bool>>>,
    oracle: Option<PartitionOracle>,
}

impl<'a> SolveSession<'a> {
    /// Opens a session for primary output `out_idx` of `aig` under
    /// `op`, metered by `config`'s per-output budget and the
    /// circuit-scope limits `circuit`, consulting `store` for a solved
    /// result before solving when it serves results. Clause and
    /// probe reuse run iff [`DecompConfig::clause_reuse`] is on, over
    /// the store's bank and disk tier ([`TieredStore::for_run`] adds a
    /// bank to a store that has none).
    ///
    /// The wall clock anchors **first**, so cone extraction — which can
    /// dominate on huge outputs — is charged against the per-output
    /// budget rather than running outside it. The core formula and
    /// oracle are built lazily by [`run`] (trivial and cache-hit cones
    /// never need them).
    ///
    /// # Errors
    ///
    /// [`StepError::NotCombinational`] if the AIG has latches,
    /// [`StepError::OutputOutOfRange`] for a bad index.
    ///
    /// [`run`]: SolveSession::run
    pub fn new(
        aig: &Aig,
        out_idx: usize,
        op: GateOp,
        config: &'a DecompConfig,
        circuit: CircuitBudget,
        store: &'a TieredStore,
    ) -> Result<Self, StepError> {
        let start = Instant::now();
        if !aig.is_comb() {
            return Err(StepError::NotCombinational);
        }
        let output = aig
            .outputs()
            .get(out_idx)
            .ok_or(StepError::OutputOutOfRange(out_idx))?;
        let name = output.name().to_owned();
        let meter = EffortMeter::new(start, config.budget.per_output, &circuit);
        let cone = aig.cone(output.lit());
        Ok(SolveSession {
            config,
            store,
            out_idx,
            op,
            name,
            cone,
            start,
            meter,
            candidates: None,
            oracle: None,
        })
    }

    /// Splits the session into the pieces a model's search needs: the
    /// incremental oracle (mutable), the surviving seed-pair
    /// candidates (shared) and the budget meter (mutable) — one
    /// borrow per disjoint field, so the search can drive the oracle
    /// while charging the meter.
    fn solve_parts(&mut self) -> (&mut PartitionOracle, Option<&[Vec<bool>]>, &mut EffortMeter) {
        let oracle = self
            .oracle
            .as_mut()
            .expect("oracle is built before the search runs");
        (oracle, self.candidates.as_deref(), &mut self.meter)
    }

    /// Runs the configured model's search on the built oracle. LJH and
    /// STEP-MG run alone; the QBF models bootstrap with STEP-MG (as in
    /// the paper), then search the optimum bound for their metric. Both
    /// phases charge the session's meter, so wall and work budgets
    /// apply uniformly across the bootstrap's SAT/MUS calls and the
    /// search's QBF probes. Under clause reuse the search's probe
    /// ledger replays a finished search recorded for the canonical cone
    /// `fingerprint` by a sibling session or an earlier run.
    fn search(&mut self, fingerprint: ConeFingerprint) -> SearchOutcome {
        let config = self.config;
        let mut out = SearchOutcome::default();
        let (oracle, candidates, meter) = self.solve_parts();
        let metric = match config.model {
            Model::Ljh => {
                match ljh::decompose(oracle, candidates, meter) {
                    LjhOutcome::Partition(p) => {
                        out.solved = true;
                        out.partition = Some(p);
                    }
                    LjhOutcome::NotDecomposable => out.solved = true,
                    LjhOutcome::Timeout => out.timed_out = true,
                }
                return out;
            }
            Model::MusGroup => {
                match mg::decompose(oracle, candidates, meter) {
                    MgOutcome::Partition(p) => {
                        out.solved = true;
                        out.partition = Some(p);
                    }
                    MgOutcome::TruncatedPartition(p) => {
                        // Budget-degraded: keep the (valid) partition
                        // but report the truncation — only `solved &&
                        // !timed_out` outcomes are stored, and a
                        // partition whose quality depends on the budget
                        // must never be served as this cone's
                        // definitive answer.
                        out.timed_out = true;
                        out.partition = Some(p);
                    }
                    MgOutcome::NotDecomposable => out.solved = true,
                    MgOutcome::Timeout => out.timed_out = true,
                }
                return out;
            }
            Model::QbfDisjoint => Metric::Disjointness,
            Model::QbfBalanced => Metric::Balancedness,
            Model::QbfCombined => match config.weights {
                Some((wd, wb)) => Metric::Weighted { wd, wb },
                None => Metric::Combined,
            },
        };
        let bootstrap = match mg::decompose(oracle, candidates, meter) {
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
        };
        let opts = ModelOptions::from(config);
        let ledger = config
            .clause_reuse
            .then(|| ProbeLedger::new(self.store, fingerprint, self.op, config));
        let (oracle, _, meter) = self.solve_parts();
        let search = optimum::search_with_reuse(
            oracle.core(),
            metric,
            bootstrap.as_ref(),
            config.effective_strategy(),
            &opts,
            meter,
            ledger.as_ref(),
        );
        out.qbf_calls = search.qbf_calls;
        out.qbf_timeouts = search.timeouts;
        out.probed_k = search.probed_k;
        out.cegar_iterations = search.cegar_iterations;
        out.proved_optimal = search.proved_optimal;
        out.solved = search.proved_optimal;
        out.timed_out = search.truncated;
        out.partition = search.partition.or(bootstrap);
        out.search_disk_hits = ledger.map_or(0, |l| l.disk_hits());
        out
    }

    /// Translates a canonical-order partition into this session's cone
    /// input order (`original[i] = canonical[perm[i]]`).
    fn translate(
        &self,
        canon: &CanonicalCone,
        classes: &[crate::partition::VarClass],
    ) -> VarPartition {
        VarPartition::new(
            (0..self.cone.support_size())
                .map(|i| classes[canon.perm[i]])
                .collect(),
        )
    }

    /// Extraction + verification of a found partition, shared by the
    /// cold and cache-hit paths.
    fn finish_partition(
        &mut self,
        p: VarPartition,
        result: &mut OutputResult,
    ) -> Result<(), StepError> {
        debug_assert!(p.is_nontrivial(), "partition must be non-trivial");
        if self.config.extract {
            match extract(
                &self.cone.aig,
                self.cone.root,
                self.op,
                &p,
                self.meter.deadline(),
            ) {
                Ok(d) => {
                    if self.config.verify {
                        verify(&d, self.meter.deadline()).map_err(|e| {
                            StepError::Internal(format!(
                                "extracted decomposition failed verification: {e}"
                            ))
                        })?;
                    }
                    result.decomposition = Some(d);
                }
                Err(ExtractError::Budget) => {
                    result.timed_out = true;
                }
                Err(e) => {
                    return Err(StepError::Internal(format!(
                        "extraction failed on a valid partition: {e}"
                    )))
                }
            }
        }
        result.partition = Some(p);
        Ok(())
    }

    /// Runs the session to completion: canonicalization, cache lookup,
    /// then (on a miss) sim-filter, core construction and the model's
    /// search, then extraction and verification.
    ///
    /// # Errors
    ///
    /// [`StepError::Internal`] on internal inconsistencies (e.g. a
    /// verified partition failing extraction).
    pub fn run(mut self) -> Result<OutputResult, StepError> {
        let n = self.cone.support_size();
        let mut result = OutputResult::pending(self.name.clone(), self.out_idx, n);
        if n < 2 {
            // Constant or single-input function: no non-trivial
            // bi-decomposition exists by definition.
            result.solved = true;
            result.cpu = self.start.elapsed();
            return Ok(result);
        }
        // The budget (anchored before cone extraction) may already be
        // gone — typically a shared circuit deadline or work pool that
        // expired while this output waited in the queue. Report it
        // honestly instead of opening solvers that would only confirm
        // the timeout.
        if self.meter.exhausted() {
            result.timed_out = true;
            result.cpu = self.start.elapsed();
            return Ok(result);
        }

        let canon = canonicalize(&self.cone.aig, self.cone.root);
        result.fingerprint = Some(canon.fingerprint.hash);
        let result_ns = self
            .store
            .serves_results()
            .then(|| Namespace::results(self.config));

        if let Some(ns) = &result_ns {
            if let Some((hit, from_disk)) = self.store.lookup_result(ns, canon.fingerprint, self.op)
            {
                result.cache = CacheLookup::Hit;
                result.disk_hits += u64::from(from_disk);
                result.solved = true;
                result.proved_optimal = hit.proved_optimal;
                if let Some(classes) = &hit.partition {
                    let p = self.translate(&canon, classes);
                    self.finish_partition(p, &mut result)?;
                }
                result.cpu = self.start.elapsed();
                return Ok(result);
            }
            result.cache = CacheLookup::Miss;
        }

        if self.config.sim_filter {
            self.candidates = Some(sim_filter_pairs(
                &canon.aig,
                canon.root,
                self.op,
                self.config.sim_rounds,
                cone_seed(self.config.seed, canon.fingerprint.hash),
            ));
        }
        // Clause reuse: the fresh oracle is seeded from the bank —
        // verbatim from an exact donor (identical CNF by
        // canonicalization), clause-by-clause vetted from a near-twin.
        // Either way it gains only clauses implied by its own CNF, so
        // the search sees identical verdicts.
        let core = CoreFormula::build(&canon.aig, canon.root, self.op);
        let mut oracle = PartitionOracle::with_options(
            core,
            self.config.sat_restarts,
            self.config.sat_preprocess,
        );
        if self.config.clause_reuse {
            match self.store.lookup_clauses(canon.fingerprint, self.op) {
                Some((hit, from_disk)) => {
                    result.disk_hits += u64::from(from_disk);
                    if hit.exact {
                        result.imported_clauses = oracle.import_learnts(&hit.export);
                        result.bank = BankLookup::Exact;
                    } else {
                        result.imported_clauses =
                            oracle.import_vetted(&hit.export, &mut self.meter);
                        result.bank = BankLookup::Cluster;
                    }
                }
                None => result.bank = BankLookup::Miss,
            }
        }
        self.oracle = Some(oracle);

        let outcome = self.search(canon.fingerprint);
        result.sat_calls = self.oracle.as_ref().map_or(0, |o| o.sat_calls);
        result.effort = self.meter.spent();
        result.qbf_calls = outcome.qbf_calls;
        result.qbf_timeouts = outcome.qbf_timeouts;
        result.probed_k = outcome.probed_k;
        result.cegar_iterations = outcome.cegar_iterations;
        result.proved_optimal = outcome.proved_optimal;
        result.solved = outcome.solved;
        result.timed_out = outcome.timed_out;
        result.disk_hits += outcome.search_disk_hits;

        // Only definitive, budget-free outcomes enter the store: they
        // are pure functions of the key, a timeout is not.
        if let Some(ns) = &result_ns {
            if outcome.solved && !outcome.timed_out {
                self.store.insert_result(
                    ns,
                    canon.fingerprint,
                    self.op,
                    CachedResult {
                        partition: outcome.partition.as_ref().map(|p| p.classes().to_vec()),
                        proved_optimal: outcome.proved_optimal,
                    },
                );
            }
        }

        // Donate the oracle's pinned clauses — timeouts included, a
        // learnt clause is implied by the CNF no matter how the search
        // ended, which is exactly how truncated siblings still pay
        // forward.
        if self.config.clause_reuse {
            if let Some(oracle) = &self.oracle {
                let export = oracle.export_learnts();
                result.donated_clauses = export.num_clauses() as u64;
                self.store
                    .donate(canon.fingerprint, self.op, Arc::new(export));
            }
        }

        if let Some(p) = outcome.partition {
            // The search ran on the canonical cone; translate its
            // partition back to this cone's own input order.
            let p = self.translate(&canon, p.classes());
            self.finish_partition(p, &mut result)?;
        }
        result.cpu = self.start.elapsed();
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cone_seed_is_a_pure_spread_function() {
        let fp = 0xDEAD_BEEF_0123_4567_89AB_CDEF_0011_2233u128;
        let a = cone_seed(42, fp);
        assert_eq!(a, cone_seed(42, fp), "pure function of (base, fingerprint)");
        assert_ne!(
            a,
            cone_seed(42, fp ^ 1),
            "distinct cones get distinct seeds"
        );
        assert_ne!(a, cone_seed(43, fp), "distinct bases get distinct seeds");
        assert_ne!(
            cone_seed(0, 1u128 << 64),
            cone_seed(0, 1),
            "both fingerprint halves feed the seed"
        );
    }
}
