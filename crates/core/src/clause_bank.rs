//! Cross-output clause reuse: the sharded [`ClauseBank`] of donated
//! learnt clauses and search transcripts.
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
//! * **search transcripts** — keyed by `(probe namespace, fingerprint,
//!   op, search key)`, the namespace
//!   ([`ConfigKey::searches`](crate::store::ConfigKey::searches))
//!   naming the solver knobs a search depends on and the
//!   [`SearchKey`] its metric, strategy and starting bound. A QBF
//!   `k`-search keeps one abstraction solver warm across its probes,
//!   so a probe's witness depends on the probes before it; the whole
//!   search, though, is a pure function of that key when no budget
//!   truncates it (the check side is fresh per probe and shares no
//!   state with the session's oracle). A finished search's transcript
//!   — each probed `k`, its verdict and each witness — therefore
//!   replays whole into any later session's optimum search with no
//!   solving at all ([`ProbeLedger`]). This is where twin-heavy
//!   circuits win big: a twin cone's `k`-search becomes one lookup.
//!
//! Sessions reach the bank only through their
//! [`TieredStore`]'s typed clause and search methods, which add the
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
//! reuse work through search transcripts instead.
//!
//! [`PartitionOracle`]: crate::oracle::PartitionOracle
//! [`PartitionOracle::import_learnts`]: crate::oracle::PartitionOracle::import_learnts
//! [`PartitionOracle::import_vetted`]: crate::oracle::PartitionOracle::import_vetted

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use step_aig::ConeFingerprint;
use step_sat::LearntExport;

use crate::cache::{ClockMap, NUM_SHARDS};
use crate::optimum::SearchKey;
use crate::partition::VarClass;
use crate::spec::{DecompConfig, GateOp};
use crate::store::{op_tag, ConfigKey, Namespace, TieredStore};

/// Donors retained per `(op, support)` cluster ring.
const CLUSTER_DONORS: usize = 4;

/// Search transcripts retained per shard (FIFO beyond this).
const SEARCHES_PER_SHARD: usize = 4096;

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

/// How one output's solve interacted with the clause bank.
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
}

impl BankLookup {
    /// Whether this output was seeded or re-used at all.
    pub fn is_hit(self) -> bool {
        matches!(self, BankLookup::Exact | BankLookup::Cluster)
    }
}

/// One probe's recorded outcome — a *semantic certificate* about the
/// cone, never a heuristic: `Infeasible` is an UNSAT proof of
/// formulation (4) at the probed bound, `Feasible` is the exact
/// partition the search's solve returned there.
#[derive(Clone, PartialEq, Debug)]
pub enum ProbeVerdict {
    /// The cone admits no partition meeting the bound.
    Infeasible,
    /// The solve returned exactly this partition (canonical input
    /// order, pre-normalization).
    Feasible(Vec<VarClass>),
}

/// The transcript of one finished `k`-search: every probed bound with
/// its verdict, in probe order.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SearchTranscript {
    /// `(k, verdict)` per probe.
    pub probes: Vec<(usize, ProbeVerdict)>,
}

/// A session's handle for search reuse: the session's store plus the
/// probe namespace and the cone identity every search of the session
/// shares. Built by [`SolveSession`](crate::session::SolveSession) and
/// threaded through the optimum search.
pub struct ProbeLedger<'a> {
    store: &'a TieredStore,
    ns: Namespace,
    fingerprint: ConeFingerprint,
    op: GateOp,
    /// Search transcripts served from the disk tier so far.
    disk_hits: Cell<u64>,
}

impl<'a> ProbeLedger<'a> {
    /// A ledger for the searches of one session solving `(fingerprint,
    /// op)` under `config`.
    pub fn new(
        store: &'a TieredStore,
        fingerprint: ConeFingerprint,
        op: GateOp,
        config: &DecompConfig,
    ) -> Self {
        ProbeLedger {
            store,
            ns: Namespace::searches(config),
            fingerprint,
            op,
            disk_hits: Cell::new(0),
        }
    }

    /// The transcript of the search `key`, if a sibling (or a prior
    /// run, through the disk tier) finished it.
    pub fn lookup(&self, key: &SearchKey) -> Option<SearchTranscript> {
        let (transcript, from_disk) =
            self.store
                .lookup_search(&self.ns, self.fingerprint, self.op, key)?;
        self.disk_hits
            .set(self.disk_hits.get() + u64::from(from_disk));
        Some(transcript)
    }

    /// Records a finished search (never record a truncated one: a
    /// truncation is budget state, not a fact about the cone).
    pub fn record(&self, key: &SearchKey, transcript: SearchTranscript) {
        self.store
            .record_search(&self.ns, self.fingerprint, self.op, key, transcript);
    }

    /// Search transcripts this ledger served from the disk tier.
    pub(crate) fn disk_hits(&self) -> u64 {
        self.disk_hits.get()
    }
}

/// Key of one search transcript: the probe namespace's config key,
/// the cone and the search.
type SearchSlot = (ConfigKey, BankKey, SearchKey);

/// One cluster's donor ring: `(fingerprint hash, export)`, newest at
/// the back.
type ClusterRing = VecDeque<(u128, Arc<LearntExport>)>;

#[derive(Default)]
struct BankShard {
    /// Cluster rings: most recent donors per `(op, support)`, newest
    /// at the back, deduplicated by fingerprint hash.
    clusters: HashMap<(GateOp, u32), ClusterRing>,
    /// Search transcripts, FIFO-bounded at [`SEARCHES_PER_SHARD`].
    searches: HashMap<SearchSlot, SearchTranscript>,
    search_ring: VecDeque<SearchSlot>,
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
    /// Cluster rings and search transcripts, bounded by construction
    /// ([`CLUSTER_DONORS`] donors per distinct `(op, support)` pair,
    /// [`SEARCHES_PER_SHARD`] transcripts per shard).
    shards: Vec<Mutex<BankShard>>,
    exact_hits: AtomicU64,
    cluster_hits: AtomicU64,
    misses: AtomicU64,
    donations: AtomicU64,
    search_hits: AtomicU64,
    search_records: AtomicU64,
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
            search_hits: AtomicU64::new(0),
            search_records: AtomicU64::new(0),
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
        self.promote(fingerprint, op, export);
        self.donations.fetch_add(1, Ordering::Relaxed);
    }

    /// [`donate`](ClauseBank::donate) without counting: the store
    /// copies disk-tier donors in here, which no session of this run
    /// donated.
    pub(crate) fn promote(
        &self,
        fingerprint: ConeFingerprint,
        op: GateOp,
        export: Arc<LearntExport>,
    ) {
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
    }

    /// Finds the best donor for `(fingerprint, op)`: the exact channel
    /// first (identical CNF), then the most recent cluster donor with
    /// a *different* fingerprint (the same one would have hit exact).
    pub fn lookup(&self, fingerprint: ConeFingerprint, op: GateOp) -> Option<BankHit> {
        self.lookup_or(fingerprint, op, || None).map(|(hit, _)| hit)
    }

    /// [`lookup`](ClauseBank::lookup) with a lower tier between the two
    /// channels: when the exact channel misses, `lower` is asked for an
    /// exact donor, which beats any near-twin, is promoted into this
    /// bank and comes back flagged `true`. The counters record only the
    /// donor actually served, so a lower-tier donor is a miss here.
    pub(crate) fn lookup_or(
        &self,
        fingerprint: ConeFingerprint,
        op: GateOp,
        lower: impl FnOnce() -> Option<Arc<LearntExport>>,
    ) -> Option<(BankHit, bool)> {
        let key = BankKey { fingerprint, op };
        let shard_ix = Self::shard_ix(op, fingerprint.inputs);
        let (export, exact, from_lower) = if let Some(export) = self.exact.get(shard_ix, &key) {
            self.exact_hits.fetch_add(1, Ordering::Relaxed);
            (export, true, false)
        } else if let Some(export) = lower() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.promote(fingerprint, op, Arc::clone(&export));
            (export, true, true)
        } else {
            let shard = self.shard(op, fingerprint.inputs);
            let near = shard
                .clusters
                .get(&(op, fingerprint.inputs))
                .and_then(|ring| ring.iter().rev().find(|(h, _)| *h != fingerprint.hash));
            let Some((_, export)) = near else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            };
            self.cluster_hits.fetch_add(1, Ordering::Relaxed);
            (Arc::clone(export), false, false)
        };
        Some((BankHit { export, exact }, from_lower))
    }

    /// Stores the transcript of the finished search `key` over
    /// `(fingerprint, op)` in `config`, a probe namespace's key (last
    /// writer wins — all writers hold the same transcript, a finished
    /// search being a pure function of the key).
    pub fn record_search(
        &self,
        config: &ConfigKey,
        fingerprint: ConeFingerprint,
        op: GateOp,
        key: &SearchKey,
        transcript: SearchTranscript,
    ) {
        self.promote_search(config, fingerprint, op, key, transcript);
        self.search_records.fetch_add(1, Ordering::Relaxed);
    }

    /// [`record_search`](ClauseBank::record_search) without counting:
    /// the store copies disk-tier transcripts in here, which no session
    /// of this run recorded.
    pub(crate) fn promote_search(
        &self,
        config: &ConfigKey,
        fingerprint: ConeFingerprint,
        op: GateOp,
        key: &SearchKey,
        transcript: SearchTranscript,
    ) {
        let slot = (config.clone(), BankKey { fingerprint, op }, *key);
        let mut shard = self.shard(op, fingerprint.inputs);
        if shard.searches.insert(slot.clone(), transcript).is_none() {
            shard.search_ring.push_back(slot);
        }
        while shard.searches.len() > SEARCHES_PER_SHARD {
            let Some(victim) = shard.search_ring.pop_front() else {
                break;
            };
            shard.searches.remove(&victim);
        }
    }

    /// The recorded transcript of the search `key` over
    /// `(fingerprint, op)` in `config`.
    pub fn lookup_search(
        &self,
        config: &ConfigKey,
        fingerprint: ConeFingerprint,
        op: GateOp,
        key: &SearchKey,
    ) -> Option<SearchTranscript> {
        let slot = (config.clone(), BankKey { fingerprint, op }, *key);
        let hit = self
            .shard(op, fingerprint.inputs)
            .searches
            .get(&slot)
            .cloned();
        if hit.is_some() {
            self.search_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Search-transcript hits since creation.
    pub fn search_hits(&self) -> u64 {
        self.search_hits.load(Ordering::Relaxed)
    }

    /// Search transcripts recorded since creation.
    pub fn search_records(&self) -> u64 {
        self.search_records.load(Ordering::Relaxed)
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
            .field("search_hits", &self.search_hits())
            .field("search_records", &self.search_records())
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
    fn search_transcripts_round_trip_and_key_on_cfg() {
        use crate::optimum::Metric;
        use crate::spec::SearchStrategy;
        let bank = ClauseBank::new();
        let config = DecompConfig::new(crate::spec::Model::QbfDisjoint);
        let cfg = ConfigKey::searches(&config);
        let key = SearchKey {
            metric: Metric::Disjointness,
            strategy: SearchStrategy::MdBinMi,
            start_k: 2,
        };
        let transcript = SearchTranscript {
            probes: vec![
                (
                    1,
                    ProbeVerdict::Feasible(vec![
                        VarClass::A,
                        VarClass::B,
                        VarClass::C,
                        VarClass::A,
                    ]),
                ),
                (0, ProbeVerdict::Infeasible),
            ],
        };
        assert!(bank
            .lookup_search(&cfg, fp(1, 4), GateOp::Or, &key)
            .is_none());
        bank.record_search(&cfg, fp(1, 4), GateOp::Or, &key, transcript.clone());
        assert_eq!(
            bank.lookup_search(&cfg, fp(1, 4), GateOp::Or, &key),
            Some(transcript)
        );
        // A transcript is a fact about (cone, op, cfg, search) — any
        // other coordinate must miss.
        let other_cfg = ConfigKey::searches(&DecompConfig {
            symmetry_breaking: false,
            ..config
        });
        assert!(bank
            .lookup_search(&other_cfg, fp(1, 4), GateOp::Or, &key)
            .is_none());
        assert!(bank
            .lookup_search(&cfg, fp(2, 4), GateOp::Or, &key)
            .is_none());
        assert!(bank
            .lookup_search(&cfg, fp(1, 4), GateOp::And, &key)
            .is_none());
        for other in [
            SearchKey { start_k: 3, ..key },
            SearchKey {
                strategy: SearchStrategy::Binary,
                ..key
            },
            SearchKey {
                metric: Metric::Combined,
                ..key
            },
        ] {
            assert!(bank
                .lookup_search(&cfg, fp(1, 4), GateOp::Or, &other)
                .is_none());
        }
        assert_eq!((bank.search_hits(), bank.search_records()), (1, 1));
    }

    #[test]
    fn bank_lookup_hit_classification() {
        assert!(!BankLookup::Bypass.is_hit());
        assert!(!BankLookup::Miss.is_hit());
        assert!(BankLookup::Exact.is_hit());
        assert!(BankLookup::Cluster.is_hit());
    }
}
