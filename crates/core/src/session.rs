//! [`SolveSession`] — the per-output solving state machine.
//!
//! A session is the stateful counterpart of a pure
//! [`OutputJob`]: it owns the extracted cone,
//! the core formula, the incremental [`PartitionOracle`], the
//! simulation pre-filter and the per-output statistics, and drives one
//! output from job to [`OutputResult`]. The model's search is one
//! `match` on [`Model`]: LJH or STEP-MG over the session's oracle and
//! candidate filter, or for the QBF models the STEP-MG bootstrap and
//! the optimum `k`-search of [`crate::optimum`]. The session then
//! finishes with extraction and verification.
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
//! them is shared except the (internally synchronized) store and
//! oracle pool, which is what lets the
//! [`StepService`](crate::service::StepService) pool run many of them
//! concurrently — across outputs of one submission and across
//! submissions alike.

use std::sync::Arc;
use std::time::Instant;

use step_aig::{canonicalize, Aig, CanonicalCone, Cone, ConeFingerprint};

use crate::cache::{CacheLookup, CachedResult};
use crate::clause_bank::{BankLookup, OraclePool, ProbeLedger};
use crate::effort::EffortMeter;
use crate::engine::{OutputResult, StepError};
use crate::extract::{extract, ExtractError};
use crate::job::{cone_seed, OutputJob};
use crate::ljh::{self, LjhOutcome};
use crate::mg::{self, MgOutcome};
use crate::optimum::{self, Metric};
use crate::oracle::{sim_filter_pairs, CoreFormula, PartitionOracle};
use crate::partition::VarPartition;
use crate::qbf_model::ModelOptions;
use crate::spec::{DecompConfig, Model};
use crate::store::{Namespace, TieredStore};
use crate::verify::verify;

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
    /// Total CEGAR iterations across QBF solves.
    cegar_iterations: u64,
    /// Probe certificates served from the disk tier.
    probe_disk_hits: u64,
}

/// Per-output solving state: cone, core formula, oracle, seed-pair
/// candidates and budgets. See the module docs.
pub struct SolveSession<'a> {
    config: &'a DecompConfig,
    store: &'a TieredStore,
    /// `Some` iff clause reuse is on: then the store carries a bank.
    pool: Option<&'a OraclePool>,
    job: OutputJob,
    name: String,
    cone: Cone,
    start: Instant,
    meter: EffortMeter,
    candidates: Option<Vec<Vec<bool>>>,
    oracle: Option<PartitionOracle>,
}

impl<'a> SolveSession<'a> {
    /// Opens a session for `job` on `aig`, consulting `store` for a
    /// solved result before solving when it serves results. Clause and
    /// probe reuse run iff `pool` is given, over the store's bank and
    /// disk tier ([`TieredStore::for_run`] builds both halves).
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
        job: OutputJob,
        config: &'a DecompConfig,
        store: &'a TieredStore,
        pool: Option<&'a OraclePool>,
    ) -> Result<Self, StepError> {
        let start = Instant::now();
        if !aig.is_comb() {
            return Err(StepError::NotCombinational);
        }
        let output = aig
            .outputs()
            .get(job.output_index)
            .ok_or(StepError::OutputOutOfRange(job.output_index))?;
        let name = output.name().to_owned();
        let meter = EffortMeter::new(start, job.per_output, &job.circuit);
        let cone = aig.cone(output.lit());
        Ok(SolveSession {
            config,
            store,
            pool,
            job,
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
    /// ledger replays definitive verdicts recorded for the canonical
    /// cone `fingerprint` by sibling sessions and earlier runs.
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
            Model::QbfCombined => Metric::Combined,
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
        let opts = ModelOptions {
            symmetry_breaking: config.symmetry_breaking,
            allow_both: config.allow_both,
            per_call: config.budget.per_qbf_call,
            restarts: config.sat_restarts,
            preprocess: config.sat_preprocess,
        };
        let ledger = self
            .pool
            .map(|_| ProbeLedger::new(self.store, fingerprint, self.job.op, config));
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
        out.cegar_iterations = search.cegar_iterations;
        out.proved_optimal = search.proved_optimal;
        out.solved = search.proved_optimal;
        out.timed_out = search.truncated;
        out.partition = search.partition.or(bootstrap);
        out.probe_disk_hits = ledger.map_or(0, |l| l.disk_hits());
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
                self.job.op,
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
        let mut result = OutputResult::pending(self.name.clone(), self.job.output_index, n);
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
            if let Some((hit, from_disk)) =
                self.store.lookup_result(ns, canon.fingerprint, self.job.op)
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
                self.job.op,
                self.config.sim_rounds,
                cone_seed(self.config.seed, canon.fingerprint.hash),
            ));
        }
        // Clause reuse, layer by layer: a parked sibling oracle for
        // this exact fingerprint skips CNF construction entirely;
        // otherwise a fresh oracle is seeded from the bank — verbatim
        // from an exact donor (identical CNF by canonicalization),
        // clause-by-clause vetted from a near-twin. Every path adds
        // only clauses implied by this oracle's own CNF, so the
        // search sees identical verdicts either way.
        let mut pooled_calls = 0;
        if let Some(pool) = self.pool {
            if let Some(oracle) = pool.take(canon.fingerprint.hash, self.job.op) {
                pooled_calls = oracle.sat_calls;
                result.bank = BankLookup::Pooled;
                self.oracle = Some(oracle);
            }
        }
        if self.oracle.is_none() {
            let core = CoreFormula::build(&canon.aig, canon.root, self.job.op);
            let mut oracle = PartitionOracle::with_options(
                core,
                self.config.sat_restarts,
                self.config.sat_preprocess,
            );
            if self.pool.is_some() {
                match self.store.lookup_clauses(canon.fingerprint, self.job.op) {
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
        }

        let outcome = self.search(canon.fingerprint);
        // A pooled oracle arrives with its donor's call count; report
        // only this output's own share.
        result.sat_calls = self
            .oracle
            .as_ref()
            .map_or(0, |o| o.sat_calls - pooled_calls);
        result.effort = self.meter.spent();
        result.qbf_calls = outcome.qbf_calls;
        result.cegar_iterations = outcome.cegar_iterations;
        result.proved_optimal = outcome.proved_optimal;
        result.solved = outcome.solved;
        result.timed_out = outcome.timed_out;
        result.disk_hits += outcome.probe_disk_hits;

        // Only definitive, budget-free outcomes enter the store: they
        // are pure functions of the key, a timeout is not.
        if let Some(ns) = &result_ns {
            if outcome.solved && !outcome.timed_out {
                self.store.insert_result(
                    ns,
                    canon.fingerprint,
                    self.job.op,
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
        // forward — and park the live oracle for the next sibling with
        // this fingerprint.
        if let Some(pool) = self.pool {
            if let Some(oracle) = self.oracle.take() {
                let export = oracle.export_learnts();
                result.donated_clauses = export.num_clauses() as u64;
                self.store
                    .donate(canon.fingerprint, self.job.op, Arc::new(export));
                pool.put(canon.fingerprint.hash, self.job.op, oracle);
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
