//! # STEP — Satisfiability-based funcTion dEcomPosition
//!
//! A from-scratch reproduction of *"QBF-Based Boolean Function
//! Bi-Decomposition"* (Chen, Janota, Marques-Silva — DATE 2012).
//!
//! Given a Boolean function `f(X)` (a primary-output cone of an AIG),
//! the engine finds a non-trivial variable partition
//! `X = {XA | XB | XC}` and functions with
//! `f = fA(XA,XC) <OP> fB(XB,XC)` for `<OP> ∈ {OR, AND, XOR}`:
//!
//! * [`Model::Ljh`] — the SAT-based enumeration baseline (`Bi-dec`);
//! * [`Model::MusGroup`] — group-MUS partitioning (`STEP-MG`);
//! * [`Model::QbfDisjoint`] / [`Model::QbfBalanced`] /
//!   [`Model::QbfCombined`] — the paper's QBF models (`STEP-QD`,
//!   `STEP-QB`, `STEP-QDB`), which compute partitions with **optimum**
//!   disjointness / balancedness / combined cost via CEGAR 2QBF
//!   solving with iterated cardinality bounds.
//!
//! The crate is organized as the paper is:
//!
//! * [`oracle`] — the core formula (2) and the incremental
//!   Proposition-1 oracle;
//! * [`qbf_model`] — formulations (3)/(4)/(9) with `fN`/`fT`
//!   constraints (5), (6), (8) and symmetry breaking;
//! * [`optimum`] — the MI/MD/Bin/(MD→Bin→MI) `k`-search
//!   (Section IV-A-6);
//! * [`ljh`] / [`mg`] — the two baselines the evaluation compares
//!   against;
//! * [`extract`](mod@extract) — interpolation/cofactor extraction of
//!   `fA`, `fB`;
//! * [`verify`](mod@verify) — support + SAT equivalence checking;
//! * [`engine`] — [`BiDecomposer`], the one-call front end with the
//!   paper's budget structure, over one stateful [`session`] per
//!   output that dispatches on the roster model with one `match`;
//! * [`service`] — the circuit driver: a persistent [`StepService`]
//!   worker pool with job submission, streaming per-output results and
//!   cancellation ([`BiDecomposer::decompose_circuit`] is a
//!   submit-and-join wrapper over an ephemeral one);
//! * [`cache`] — the per-op result cache: sessions solve every cone in
//!   canonical input order (`step_aig::canonicalize`), so definitive
//!   outcomes are memoizable by `(fingerprint, op, config)` and
//!   translate to any permuted-input twin of the cone; its sharded
//!   second-chance map also holds the clause bank's exact channel;
//! * [`clause_bank`] — cross-output clause reuse: completed sessions
//!   donate tier-core learnt clauses (keyed by `(fingerprint, op)`
//!   exactly, and by `(op, support)` for vetted near-twin seeding) and
//!   record QBF search transcripts — answers are identical with reuse
//!   on or off, only the conflicts to reach them drop;
//! * [`store`] — the [`TieredStore`], the one reuse handle engines and
//!   services hold: one typed lookup/record pair per reuse surface
//!   (results, clause donations, search transcripts), with the
//!   in-memory structures as tier 0 and an optional persistent,
//!   mergeable disk tier ([`TieredStore::with_disk`]) that
//!   warm-starts later runs;
//! * [`predict`] / [`tenant`] — the multi-tenant layer under the
//!   `step-serve` network front-end: a conflict-cost estimator
//!   (fingerprint history + support-bucket EWMAs) feeding the
//!   service's deficit-round-robin fair-share pop, and the per-tenant
//!   quota ledger behind admission control.
//!
//! See the crate-level example on [`BiDecomposer`].

pub mod cache;
pub mod clause_bank;
pub mod effort;
pub mod engine;
pub mod extract;
pub mod ljh;
pub mod mg;
pub mod network;
pub mod optimum;
pub mod oracle;
pub mod partition;
pub mod predict;
pub mod qbf_model;
pub mod qdimacs_export;
pub mod service;
pub mod session;
pub mod spec;
pub mod store;
pub mod tenant;
pub mod verify;

pub use cache::{CacheLookup, CachedResult, ResultCache};
pub use clause_bank::{BankHit, BankKey, BankLookup, ClauseBank};
pub use effort::{CallLimits, CircuitBudget, EffortMeter, WorkLedger};
pub use engine::{BiDecomposer, CircuitResult, OutputResult, StepError};
pub use extract::{extract, extract_by_quantification, Decomposition, ExtractError};
pub use network::{DecompTree, LeafFn, TreeNode};
pub use partition::{VarClass, VarPartition};
pub use predict::CostModel;
pub use service::{
    Canceller, OutputEvent, StepService, SubmissionHandle, SubmissionId, SubmitOptions,
};
pub use session::{cone_seed, SolveSession};
pub use spec::{Budget, BudgetPolicy, DecompConfig, GateOp, Model, SearchStrategy};
pub use store::{
    check_cache_dir, Artifact, ArtifactKey, ArtifactKind, ArtifactStore, ConfigKey, DiskTier,
    Namespace, TieredStore,
};
pub use tenant::{OverQuota, TenantLedger, WorkReservation};
// The effort-counter vocabulary is shared with the solver layers, as
// is the restart-policy knob `DecompConfig::sat_restarts` takes.
pub use step_sat::{EffortStats, RestartPolicy};
pub use verify::{verify, VerifyError};

// Compile-time audit of the parallel solve path: the service is
// submitted to from any thread (`Sync`), its handles move to consumer
// threads (`Send`; the mpsc receiver keeps them `!Sync`), workers own
// a `PartitionOracle` each, and `OutputResult`s / `StepError`s travel
// across the event channel.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    fn assert_send<T: Send>() {}
    assert_sync::<BiDecomposer>();
    assert_sync::<StepService>();
    assert_sync::<spec::DecompConfig>();
    assert_sync::<ResultCache>();
    // Clause reuse crosses the same thread boundaries the cache does:
    // the bank is shared by every worker.
    assert_sync::<ClauseBank>();
    // The tiered store (and its disk tier) is the one object every
    // worker of a persistent service shares.
    assert_sync::<TieredStore>();
    assert_sync::<DiskTier>();
    assert_send::<SubmissionHandle>();
    assert_send::<OutputEvent>();
    // The multi-tenant layer: the ledger and cost model are shared by
    // every serve connection thread; cancellers migrate to readers.
    assert_sync::<TenantLedger>();
    assert_sync::<CostModel>();
    assert_sync::<WorkLedger>();
    assert_send::<Canceller>();
    assert_sync::<Canceller>();
    assert_send::<oracle::PartitionOracle>();
    assert_send::<OutputResult>();
    assert_send::<StepError>();
};

#[cfg(test)]
mod tests;
