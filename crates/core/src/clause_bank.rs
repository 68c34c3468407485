//! Cross-output clause reuse: the sharded [`ClauseBank`] of donated
//! learnt clauses and the per-submission [`OraclePool`] of live
//! incremental oracles.
//!
//! Sessions solve every cone in *canonical* input order (PR 3), so a
//! [`PartitionOracle`]'s CNF is a pure function of
//! `(canonical fingerprint, op)`: `α` variables first, then `β`, then
//! Tseitin auxiliaries in deterministic AIG order. A completed
//! session's tier-core learnt clauses are therefore already expressed
//! in canonical-cone variable space and can be handed to any later
//! oracle with no mapping at all. The bank stores them on two
//! channels:
//!
//! * **exact** — keyed by `(fingerprint, op)`. The recipient's CNF is
//!   var-for-var identical to the donor's, so clauses import verbatim
//!   ([`PartitionOracle::import_learnts`]). Deliberately *looser* than
//!   the result namespace (no model/strategy/seed): a sweep running
//!   five models over the same circuit gets verbatim imports the
//!   exact-result cache can never serve. The channel is the same
//!   sharded second-chance map the result cache uses, sharded
//!   by `(op, support)`.
//! * **cluster** — keyed by `(op, support size)`, a small ring of
//!   recent donors per cluster. A *near*-twin cone (shared
//!   substructure, different fingerprint) carries no implication
//!   guarantee, so every clause is **vetted** before use
//!   ([`PartitionOracle::import_vetted`]): a bounded refutation probe
//!   proves the recipient's own clauses imply it, or it is discarded.
//! * **probe certificates** — keyed by `(probe namespace, fingerprint,
//!   op, target)`, the namespace
//!   ([`ConfigKey::probes`](crate::store::ConfigKey::probes)) naming
//!   the solver knobs a verdict depends on. A QBF probe's outcome is a
//!   pure function of that key when no budget truncates it (the CEGAR
//!   loop builds its abstraction and check solvers fresh for every
//!   probe and shares no state with the session's oracle), so a
//!   definitive verdict — infeasible, or *exactly this partition* —
//!   replays into any later session's optimum search with no solving
//!   at all ([`ProbeLedger`]). This is where twin-heavy circuits win
//!   big: a twin cone's `k`-search re-runs its sibling's probes as
//!   lookups, skipping the abstraction-side UNSAT proofs that dominate
//!   QBF-model cost.
//!
//! Sessions reach the bank only through their
//! [`TieredStore`]'s typed clause and probe methods, which add the
//! disk tier behind it.
//!
//! Both channels add only clauses *implied by the recipient's CNF*,
//! so verdicts and partitions are byte-identical with reuse on or off
//! — reuse changes how much work an answer costs, never the answer.
//! At `jobs = 1` even the conflict counts are deterministic (bank
//! content evolves in output order); at `jobs > 1` the bank's content
//! when a given output looks up depends on sibling completion order,
//! so conflict *counts* may vary run-to-run exactly like cache-hit
//! accounting under the shared wall deadline. Under a *binding*
//! `Work` budget, fewer conflicts per verdict can also shift which
//! call a truncation lands on — the reuse analogue of comparing runs
//! across budgets.
//!
//! The CEGAR abstraction solvers of the QBF models are deliberately
//! **not** seeded: a QBF partition *is* the abstraction solver's
//! model, and importing clauses there would steer which equally-valid
//! witness is found first — violating the identical-partitions
//! contract. The [`PartitionOracle`] is safe to seed because every
//! model's search consumes only its SAT/UNSAT verdicts. The QBF models
//! reuse work through probe certificates instead.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use step_aig::ConeFingerprint;
use step_sat::LearntExport;

use crate::cache::{ClockMap, NUM_SHARDS};
use crate::oracle::PartitionOracle;
use crate::partition::VarClass;
use crate::qbf_model::Target;
use crate::spec::{DecompConfig, GateOp};
use crate::store::{op_tag, ConfigKey, Namespace, TieredStore};

/// Donors retained per `(op, support)` cluster ring.
const CLUSTER_DONORS: usize = 4;

/// Live oracles retained per [`OraclePool`].
const POOL_CAPACITY: usize = 32;

/// Probe certificates retained per shard (FIFO beyond this).
const PROBES_PER_SHARD: usize = 4096;

/// Identity of one donation: the canonical cone and the operator its
/// oracle CNF encodes. Everything else (model, strategy, seed,
/// budgets) is irrelevant — the oracle CNF does not depend on it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BankKey {
    /// Canonical structural identity of the cone.
    pub fingerprint: ConeFingerprint,
    /// Root operator (selects the core formula).
    pub op: GateOp,
}

/// A successful clause lookup: the donated snapshot plus which channel
/// served it (exact donors import verbatim, cluster donors must be
/// vetted clause-by-clause).
#[derive(Clone, Debug)]
pub struct BankHit {
    /// The donated clauses and activity hints.
    pub export: Arc<LearntExport>,
    /// `true` = exact channel (identical CNF, verbatim import).
    pub exact: bool,
}

/// How one output's solve interacted with the clause bank and oracle
/// pool.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BankLookup {
    /// Clause reuse disabled, or the output never reached the bank
    /// (trivial cone, result-cache hit, expired budget).
    #[default]
    Bypass,
    /// Looked up, no donor available; solved cold (and donated after).
    Miss,
    /// Seeded verbatim from an exact (same-fingerprint) donor.
    Exact,
    /// Seeded from a near-twin donor after per-clause vetting.
    Cluster,
    /// Re-used a live pooled oracle from a sibling with the same
    /// fingerprint — no rebuild, no bank lookup needed.
    Pooled,
}

impl BankLookup {
    /// Whether this output was seeded or re-used at all.
    pub fn is_hit(self) -> bool {
        matches!(
            self,
            BankLookup::Exact | BankLookup::Cluster | BankLookup::Pooled
        )
    }
}

/// A recorded probe outcome — a *semantic certificate* about the cone,
/// never a heuristic: `Infeasible` is an UNSAT proof of formulation
/// (4) at the target, `Feasible` is the exact partition the
/// deterministic solve returns.
#[derive(Clone, Debug)]
pub enum ProbeVerdict {
    /// The cone admits no partition meeting the target.
    Infeasible,
    /// The deterministic CEGAR solve returns exactly this partition
    /// (canonical input order, pre-normalization).
    Feasible(Vec<VarClass>),
}

/// A session's handle for probe-certificate reuse: the session's store
/// plus the probe namespace and the cone identity every probe of the
/// session shares. Built by
/// [`SolveSession`](crate::session::SolveSession) and threaded through
/// the optimum search.
pub struct ProbeLedger<'a> {
    store: &'a TieredStore,
    ns: Namespace,
    fingerprint: ConeFingerprint,
    op: GateOp,
    /// Probe certificates served from the disk tier so far.
    disk_hits: Cell<u64>,
}

impl<'a> ProbeLedger<'a> {
    /// A ledger for the probes of one session solving `(fingerprint,
    /// op)` under `config`.
    pub fn new(
        store: &'a TieredStore,
        fingerprint: ConeFingerprint,
        op: GateOp,
        config: &DecompConfig,
    ) -> Self {
        ProbeLedger {
            store,
            ns: Namespace::probes(config),
            fingerprint,
            op,
            disk_hits: Cell::new(0),
        }
    }

    /// The recorded verdict for `target`, if any sibling (or a prior
    /// run, through the disk tier) solved it.
    pub fn lookup(&self, target: Target) -> Option<ProbeVerdict> {
        let (verdict, from_disk) =
            self.store
                .lookup_probe(&self.ns, self.fingerprint, self.op, target)?;
        self.disk_hits
            .set(self.disk_hits.get() + u64::from(from_disk));
        Some(verdict)
    }

    /// Records a definitive probe outcome (never record timeouts: a
    /// truncation is budget state, not a fact about the cone).
    pub fn record(&self, target: Target, verdict: ProbeVerdict) {
        self.store
            .record_probe(&self.ns, self.fingerprint, self.op, target, verdict);
    }

    /// Probe certificates this ledger served from the disk tier.
    pub(crate) fn disk_hits(&self) -> u64 {
        self.disk_hits.get()
    }
}

/// Key of one probe certificate: the probe namespace's config key,
/// the cone and the target probed.
type ProbeKey = (ConfigKey, BankKey, Target);

/// One cluster's donor ring: `(fingerprint hash, export)`, newest at
/// the back.
type ClusterRing = VecDeque<(u128, Arc<LearntExport>)>;

#[derive(Default)]
struct BankShard {
    /// Cluster rings: most recent donors per `(op, support)`, newest
    /// at the back, deduplicated by fingerprint hash.
    clusters: HashMap<(GateOp, u32), ClusterRing>,
    /// Probe certificates, FIFO-bounded at [`PROBES_PER_SHARD`].
    probes: HashMap<ProbeKey, ProbeVerdict>,
    probe_ring: VecDeque<ProbeKey>,
}

/// The sharded clause bank. See the module docs.
///
/// Create one, wrap it in an [`Arc`] and make it the tier-0 bank of a
/// [`TieredStore`] (via [`TieredStore::memory`] or
/// [`with_disk`](TieredStore::with_disk)); engines
/// ([`crate::BiDecomposer::set_store`]) and services
/// ([`crate::StepService::spawn_with_store`]) sharing that store share
/// donations across outputs, circuits, models and whole sweeps.
pub struct ClauseBank {
    /// The exact channel, bounded like the result cache.
    exact: ClockMap<BankKey, Arc<LearntExport>>,
    /// Cluster rings and probe certificates, bounded by construction
    /// ([`CLUSTER_DONORS`] donors per distinct `(op, support)` pair,
    /// [`PROBES_PER_SHARD`] certificates per shard).
    shards: Vec<Mutex<BankShard>>,
    exact_hits: AtomicU64,
    cluster_hits: AtomicU64,
    misses: AtomicU64,
    donations: AtomicU64,
    probe_hits: AtomicU64,
    probe_records: AtomicU64,
}

impl Default for ClauseBank {
    fn default() -> Self {
        Self::new()
    }
}

impl ClauseBank {
    /// An unbounded bank.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// A bank holding at most `capacity` exact entries (rounded up to
    /// a multiple of [`NUM_SHARDS`]), evicting with second chance.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(Some(capacity))
    }

    fn build(capacity: Option<usize>) -> Self {
        ClauseBank {
            exact: ClockMap::new(capacity),
            shards: (0..NUM_SHARDS)
                .map(|_| Mutex::new(BankShard::default()))
                .collect(),
            exact_hits: AtomicU64::new(0),
            cluster_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            donations: AtomicU64::new(0),
            probe_hits: AtomicU64::new(0),
            probe_records: AtomicU64::new(0),
        }
    }

    /// Shard by `(op, support)`, so a cluster ring and every exact key
    /// that could feed it share a shard index.
    fn shard_ix(op: GateOp, support: u32) -> usize {
        ((support as usize).wrapping_mul(3) + usize::from(op_tag(op))) % NUM_SHARDS
    }

    fn shard(&self, op: GateOp, support: u32) -> MutexGuard<'_, BankShard> {
        self.shards[Self::shard_ix(op, support)]
            .lock()
            .expect("bank shard poisoned")
    }

    /// Publishes a completed session's snapshot on both channels.
    /// Empty snapshots are dropped — they could only evict something
    /// useful.
    pub fn donate(&self, fingerprint: ConeFingerprint, op: GateOp, export: Arc<LearntExport>) {
        if export.is_empty() {
            return;
        }
        {
            // Cluster channel: newest donor at the back, one entry per
            // fingerprint (a re-donation refreshes in place).
            let mut shard = self.shard(op, fingerprint.inputs);
            let ring = shard.clusters.entry((op, fingerprint.inputs)).or_default();
            ring.retain(|(h, _)| *h != fingerprint.hash);
            ring.push_back((fingerprint.hash, Arc::clone(&export)));
            while ring.len() > CLUSTER_DONORS {
                ring.pop_front();
            }
        }
        self.exact.insert(
            Self::shard_ix(op, fingerprint.inputs),
            BankKey { fingerprint, op },
            export,
        );
        self.donations.fetch_add(1, Ordering::Relaxed);
    }

    /// Finds the best donor for `(fingerprint, op)`: the exact channel
    /// first (identical CNF), then the most recent cluster donor with
    /// a *different* fingerprint (the same one would have hit exact).
    pub fn lookup(&self, fingerprint: ConeFingerprint, op: GateOp) -> Option<BankHit> {
        let key = BankKey { fingerprint, op };
        let shard_ix = Self::shard_ix(op, fingerprint.inputs);
        if let Some(export) = self.exact.get(shard_ix, &key) {
            self.exact_hits.fetch_add(1, Ordering::Relaxed);
            return Some(BankHit {
                export,
                exact: true,
            });
        }
        let shard = self.shard(op, fingerprint.inputs);
        if let Some(ring) = shard.clusters.get(&(op, fingerprint.inputs)) {
            if let Some((_, export)) = ring.iter().rev().find(|(h, _)| *h != fingerprint.hash) {
                self.cluster_hits.fetch_add(1, Ordering::Relaxed);
                return Some(BankHit {
                    export: Arc::clone(export),
                    exact: false,
                });
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores a probe certificate for `(config, fingerprint, op,
    /// target)`, `config` being a probe namespace's key (last writer
    /// wins — all writers hold the same certificate, the outcome being
    /// a pure function of the key).
    pub fn record_probe(
        &self,
        config: &ConfigKey,
        fingerprint: ConeFingerprint,
        op: GateOp,
        target: Target,
        verdict: ProbeVerdict,
    ) {
        let key = (config.clone(), BankKey { fingerprint, op }, target);
        let mut shard = self.shard(op, fingerprint.inputs);
        if shard.probes.insert(key.clone(), verdict).is_none() {
            shard.probe_ring.push_back(key);
        }
        while shard.probes.len() > PROBES_PER_SHARD {
            let Some(victim) = shard.probe_ring.pop_front() else {
                break;
            };
            shard.probes.remove(&victim);
        }
        self.probe_records.fetch_add(1, Ordering::Relaxed);
    }

    /// The recorded certificate for `(config, fingerprint, op,
    /// target)`.
    pub fn lookup_probe(
        &self,
        config: &ConfigKey,
        fingerprint: ConeFingerprint,
        op: GateOp,
        target: Target,
    ) -> Option<ProbeVerdict> {
        let key = (config.clone(), BankKey { fingerprint, op }, target);
        let hit = self.shard(op, fingerprint.inputs).probes.get(&key).cloned();
        if hit.is_some() {
            self.probe_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Probe-certificate hits since creation.
    pub fn probe_hits(&self) -> u64 {
        self.probe_hits.load(Ordering::Relaxed)
    }

    /// Probe certificates recorded since creation.
    pub fn probe_records(&self) -> u64 {
        self.probe_records.load(Ordering::Relaxed)
    }

    /// Exact-channel hits since creation.
    pub fn exact_hits(&self) -> u64 {
        self.exact_hits.load(Ordering::Relaxed)
    }

    /// Cluster-channel (vetted near-twin) hits since creation.
    pub fn cluster_hits(&self) -> u64 {
        self.cluster_hits.load(Ordering::Relaxed)
    }

    /// Total hits on either channel.
    pub fn hits(&self) -> u64 {
        self.exact_hits() + self.cluster_hits()
    }

    /// Lookups that found no donor.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Snapshots donated since creation.
    pub fn donations(&self) -> u64 {
        self.donations.load(Ordering::Relaxed)
    }

    /// Exact entries evicted by the capacity bound since creation.
    pub fn evictions(&self) -> u64 {
        self.exact.evictions()
    }

    /// Exact entries currently resident.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// Whether the exact channel is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured exact-channel capacity, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.exact.capacity()
    }
}

impl fmt::Debug for ClauseBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClauseBank")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .field("exact_hits", &self.exact_hits())
            .field("cluster_hits", &self.cluster_hits())
            .field("misses", &self.misses())
            .field("donations", &self.donations())
            .field("evictions", &self.evictions())
            .field("probe_hits", &self.probe_hits())
            .field("probe_records", &self.probe_records())
            .finish()
    }
}

struct PoolInner {
    map: HashMap<(u128, GateOp), PartitionOracle>,
    /// Insertion order for FIFO eviction.
    ring: VecDeque<(u128, GateOp)>,
}

/// A bounded pool of *live* incremental oracles, keyed by
/// `(canonical fingerprint hash, op)`.
///
/// Within one submission (or one inline circuit run) a completed
/// session parks its oracle here instead of dropping it; a sibling
/// with the same fingerprint takes it and re-solves under assumptions
/// — no CNF rebuild, no clause replay, all learnt state intact. An
/// oracle is removed while in use, so concurrent same-fingerprint
/// workers fall back to fresh construction (plus a bank seed) rather
/// than blocking. The pool is scoped to one `DecompConfig`, so every
/// pooled oracle was built with the same restart/preprocess knobs.
pub struct OraclePool {
    inner: Mutex<PoolInner>,
    capacity: usize,
    reuses: AtomicU64,
}

impl Default for OraclePool {
    fn default() -> Self {
        Self::new()
    }
}

impl OraclePool {
    /// A pool retaining up to `POOL_CAPACITY` (32) oracles.
    pub fn new() -> Self {
        Self::with_capacity(POOL_CAPACITY)
    }

    /// A pool retaining up to `capacity` oracles (at least one),
    /// evicting the oldest.
    pub fn with_capacity(capacity: usize) -> Self {
        OraclePool {
            inner: Mutex::new(PoolInner {
                map: HashMap::new(),
                ring: VecDeque::new(),
            }),
            capacity: capacity.max(1),
            reuses: AtomicU64::new(0),
        }
    }

    /// Takes the live oracle for `(hash, op)`, if one is parked.
    pub fn take(&self, hash: u128, op: GateOp) -> Option<PartitionOracle> {
        let mut inner = self.inner.lock().expect("oracle pool poisoned");
        let oracle = inner.map.remove(&(hash, op));
        if oracle.is_some() {
            inner.ring.retain(|k| *k != (hash, op));
            self.reuses.fetch_add(1, Ordering::Relaxed);
        }
        oracle
    }

    /// Parks an oracle for later siblings (latest donation wins),
    /// evicting the oldest parked oracle beyond capacity.
    pub fn put(&self, hash: u128, op: GateOp, oracle: PartitionOracle) {
        let mut inner = self.inner.lock().expect("oracle pool poisoned");
        if inner.map.insert((hash, op), oracle).is_none() {
            inner.ring.push_back((hash, op));
        }
        while inner.map.len() > self.capacity {
            let Some(victim) = inner.ring.pop_front() else {
                break;
            };
            inner.map.remove(&victim);
        }
    }

    /// Oracles taken (re-used) since creation.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Oracles currently parked.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("oracle pool poisoned").map.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for OraclePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OraclePool")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("reuses", &self.reuses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use step_cnf::{Lit, Var};

    fn fp(hash: u128, inputs: u32) -> ConeFingerprint {
        ConeFingerprint {
            hash,
            inputs,
            ands: 3,
        }
    }

    fn export(tag: u32) -> Arc<LearntExport> {
        Arc::new(LearntExport {
            clauses: vec![vec![
                Lit::pos(Var::new(tag as usize)),
                Lit::neg(Var::new(0)),
            ]],
            activities: vec![(Var::new(0), 1.0)],
        })
    }

    #[test]
    fn exact_hit_beats_cluster_and_counters_track() {
        let bank = ClauseBank::new();
        assert!(bank.lookup(fp(1, 4), GateOp::Or).is_none());
        bank.donate(fp(1, 4), GateOp::Or, export(1));
        bank.donate(fp(2, 4), GateOp::Or, export(2));
        let hit = bank.lookup(fp(1, 4), GateOp::Or).expect("exact donor");
        assert!(hit.exact);
        assert_eq!(hit.export.clauses, export(1).clauses);
        // A fingerprint never donated, same (op, support): the newest
        // *other* donor serves it on the cluster channel.
        let near = bank.lookup(fp(9, 4), GateOp::Or).expect("cluster donor");
        assert!(!near.exact);
        assert_eq!(near.export.clauses, export(2).clauses);
        assert_eq!(
            (bank.exact_hits(), bank.cluster_hits(), bank.misses()),
            (1, 1, 1)
        );
        assert_eq!(bank.donations(), 2);
    }

    #[test]
    fn channels_are_keyed_by_op_and_support() {
        let bank = ClauseBank::new();
        bank.donate(fp(1, 4), GateOp::Or, export(1));
        assert!(bank.lookup(fp(1, 4), GateOp::And).is_none(), "other op");
        assert!(bank.lookup(fp(9, 5), GateOp::Or).is_none(), "other support");
    }

    #[test]
    fn empty_donations_are_dropped() {
        let bank = ClauseBank::new();
        bank.donate(fp(1, 4), GateOp::Or, Arc::default());
        assert_eq!(bank.donations(), 0);
        assert!(bank.lookup(fp(2, 4), GateOp::Or).is_none());
    }

    #[test]
    fn cluster_ring_is_bounded_and_dedups_by_fingerprint() {
        let bank = ClauseBank::new();
        for i in 0..10u32 {
            bank.donate(fp(u128::from(i % 5), 4), GateOp::Or, export(i));
        }
        // Ten donations over five fingerprints: the ring holds the
        // most recent CLUSTER_DONORS distinct donors. A lookup from a
        // fresh fingerprint gets the newest donor back.
        let hit = bank.lookup(fp(99, 4), GateOp::Or).expect("donors exist");
        assert!(!hit.exact);
        assert_eq!(hit.export.clauses, export(9).clauses);
    }

    #[test]
    fn exact_capacity_evicts_with_second_chance() {
        // Keys with the same (op, support) land in one shard, so a
        // 2-per-shard bound is exercised directly.
        let bank = ClauseBank::with_capacity(2 * NUM_SHARDS);
        bank.donate(fp(1, 4), GateOp::Or, export(1));
        bank.donate(fp(2, 4), GateOp::Or, export(2));
        // Touch 1 so it owns a second chance.
        assert!(bank.lookup(fp(1, 4), GateOp::Or).unwrap().exact);
        bank.donate(fp(3, 4), GateOp::Or, export(3));
        assert!(bank.lookup(fp(1, 4), GateOp::Or).unwrap().exact);
        assert!(
            !bank.lookup(fp(2, 4), GateOp::Or).unwrap().exact,
            "cold entry evicted from exact; cluster ring still serves it"
        );
        assert!(bank.lookup(fp(3, 4), GateOp::Or).unwrap().exact);
        assert_eq!(bank.evictions(), 1);
    }

    #[test]
    fn re_donation_refreshes_both_channels_in_place() {
        let bank = ClauseBank::new();
        bank.donate(fp(1, 4), GateOp::Or, export(1));
        bank.donate(fp(1, 4), GateOp::Or, export(2));
        let hit = bank.lookup(fp(1, 4), GateOp::Or).expect("exact donor");
        assert_eq!(hit.export.clauses, export(2).clauses);
        assert_eq!(bank.len(), 1, "one exact slot per key");
        let near = bank.lookup(fp(9, 4), GateOp::Or).expect("cluster donor");
        assert_eq!(near.export.clauses, export(2).clauses);
        assert_eq!(bank.donations(), 2);
    }

    #[test]
    fn probe_certificates_round_trip_and_key_on_cfg() {
        let bank = ClauseBank::new();
        let config = DecompConfig::new(crate::spec::Model::QbfDisjoint);
        let cfg = ConfigKey::probes(&config);
        let t = Target::DisjointAtMost(2);
        assert!(bank.lookup_probe(&cfg, fp(1, 4), GateOp::Or, t).is_none());
        bank.record_probe(&cfg, fp(1, 4), GateOp::Or, t, ProbeVerdict::Infeasible);
        bank.record_probe(
            &cfg,
            fp(1, 4),
            GateOp::Or,
            Target::DisjointAtMost(3),
            ProbeVerdict::Feasible(vec![VarClass::A, VarClass::B, VarClass::C, VarClass::C]),
        );
        assert!(matches!(
            bank.lookup_probe(&cfg, fp(1, 4), GateOp::Or, t),
            Some(ProbeVerdict::Infeasible)
        ));
        match bank.lookup_probe(&cfg, fp(1, 4), GateOp::Or, Target::DisjointAtMost(3)) {
            Some(ProbeVerdict::Feasible(classes)) => {
                assert_eq!(
                    classes,
                    vec![VarClass::A, VarClass::B, VarClass::C, VarClass::C]
                );
            }
            other => panic!("expected feasible certificate, got {other:?}"),
        }
        // A verdict is a fact about (cone, op, cfg, target) — any other
        // coordinate must miss.
        let other_cfg = ConfigKey::probes(&DecompConfig {
            symmetry_breaking: false,
            ..config
        });
        assert!(bank
            .lookup_probe(&other_cfg, fp(1, 4), GateOp::Or, t)
            .is_none());
        assert!(bank.lookup_probe(&cfg, fp(2, 4), GateOp::Or, t).is_none());
        assert!(bank.lookup_probe(&cfg, fp(1, 4), GateOp::And, t).is_none());
        assert_eq!((bank.probe_hits(), bank.probe_records()), (2, 2));
    }

    #[test]
    fn bank_lookup_hit_classification() {
        assert!(!BankLookup::Bypass.is_hit());
        assert!(!BankLookup::Miss.is_hit());
        assert!(BankLookup::Exact.is_hit());
        assert!(BankLookup::Cluster.is_hit());
        assert!(BankLookup::Pooled.is_hit());
    }
}
