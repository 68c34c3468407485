//! The per-op result cache: a sharded, `Send + Sync` map from
//! `(cone fingerprint, operator, cache-relevant config)` to solved
//! outcomes.
//!
//! The engine solves every non-trivial cone in *canonical* input order
//! (see [`step_aig::canonicalize`]), so a solved outcome is a pure
//! function of the [`CacheKey`]: the canonical partition stored here
//! can be handed to any structurally identical cone — including
//! permuted-input twins at other outputs, in other circuits, or in
//! later runs — and translated through that cone's input permutation.
//! Sessions consult the cache before building the core formula and
//! oracle, which is where the real cost lives.
//!
//! Only **definitive** outcomes are cached (`solved` and not
//! `timed_out`): a budget-truncated result is a property of the run,
//! not of the cone, and must never masquerade as an answer for a
//! different run. That is also the invalidation story — entries never
//! go stale, because everything budget-dependent is excluded from the
//! cache and everything result-relevant is part of the key.
//!
//! The map is sharded ([`NUM_SHARDS`] mutexes) so the parallel circuit
//! driver's workers can hit it concurrently, and optionally bounded
//! with a second-chance (clock) eviction policy — no external deps.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use step_aig::ConeFingerprint;

use crate::partition::VarClass;
use crate::spec::{DecompConfig, GateOp, Model, SearchStrategy};

/// Number of independently-locked shards.
pub const NUM_SHARDS: usize = 16;

/// Everything a solved outcome depends on: the canonical cone identity
/// plus the configuration fields that steer the search. Budgets are
/// deliberately absent — wall *and* work alike, they only decide
/// *whether* a definitive outcome is reached, never which one (a
/// budget-truncated outcome is never cached), so entries are shared
/// across runs with different [`crate::spec::BudgetPolicy`] values.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// Canonical structural identity of the cone.
    pub fingerprint: ConeFingerprint,
    /// Root operator.
    pub op: GateOp,
    /// Engine model.
    pub model: Model,
    /// Effective `k`-search strategy.
    pub strategy: SearchStrategy,
    /// Symmetry-breaking constraint on/off.
    pub symmetry_breaking: bool,
    /// `(α,β) = (1,1)` assignments permitted.
    pub allow_both: bool,
    /// Simulation pre-filter on/off.
    pub sim_filter: bool,
    /// Pre-filter rounds.
    pub sim_rounds: usize,
    /// Engine base seed (feeds the canonical simulation seed).
    pub seed: u64,
    /// SAT restart policy: steers which partition the search finds
    /// first, so runs with different policies must not share entries.
    pub sat_restarts: step_sat::RestartPolicy,
    /// SAT root-level preprocessing on/off (result-relevant for the
    /// same reason).
    pub sat_preprocess: bool,
}

impl CacheKey {
    /// The key for solving `fingerprint` under `op` with `config`.
    pub fn new(fingerprint: ConeFingerprint, op: GateOp, config: &DecompConfig) -> Self {
        CacheKey {
            fingerprint,
            op,
            model: config.model,
            strategy: config.effective_strategy(),
            symmetry_breaking: config.symmetry_breaking,
            allow_both: config.allow_both,
            sim_filter: config.sim_filter,
            sim_rounds: config.sim_rounds,
            seed: config.seed,
            sat_restarts: config.sat_restarts,
            sat_preprocess: config.sat_preprocess,
        }
    }
}

/// A cached definitive outcome, in canonical variable order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedResult {
    /// Per-variable classes of the best partition over the *canonical*
    /// inputs (`None` = proved not decomposable). Translate to a cone's
    /// own order with its permutation before use.
    pub partition: Option<Vec<VarClass>>,
    /// The partition was proved metric-optimal.
    pub proved_optimal: bool,
}

/// How one output's solve interacted with the cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CacheLookup {
    /// No cache attached, or the cone was trivial (support < 2) or
    /// skipped by an expired budget before lookup.
    #[default]
    Bypass,
    /// Looked up, not found; solved from scratch.
    Miss,
    /// Served from the cache.
    Hit,
}

struct Slot {
    value: CachedResult,
    /// Second-chance bit: set on every hit, cleared once by the clock
    /// hand before the entry becomes evictable.
    referenced: bool,
}

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Slot>,
    /// Insertion ring for the clock hand.
    ring: VecDeque<CacheKey>,
}

/// The sharded result cache. See the module docs.
///
/// Create one, wrap it in an [`std::sync::Arc`] and make it the tier-0
/// cache of a [`TieredStore`](crate::TieredStore) shared by any number
/// of engines and services (or attach it directly with
/// [`crate::BiDecomposer::set_cache`]) to share solved cones across
/// outputs, circuits and whole benchmark sweeps.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry bound (`None` = unbounded).
    shard_capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ResultCache {
    /// An unbounded cache.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// A cache holding at most `capacity` entries (rounded up to a
    /// multiple of [`NUM_SHARDS`]), evicting with second chance.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(Some(capacity.div_ceil(NUM_SHARDS).max(1)))
    }

    fn build(shard_capacity: Option<usize>) -> Self {
        ResultCache {
            shards: (0..NUM_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[(key.fingerprint.hash as usize) % NUM_SHARDS]
    }

    /// Looks up a definitive outcome, bumping the hit/miss counters.
    pub fn lookup(&self, key: &CacheKey) -> Option<CachedResult> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        match shard.map.get_mut(key) {
            Some(slot) => {
                slot.referenced = true;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(slot.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) a definitive outcome, evicting with
    /// second chance when the shard is at capacity.
    pub fn insert(&self, key: CacheKey, value: CachedResult) {
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        if let Some(slot) = shard.map.get_mut(&key) {
            // Concurrent workers may race on the same cone; outcomes
            // are deterministic per key, so last write is a no-op.
            slot.value = value;
            return;
        }
        if let Some(cap) = self.shard_capacity {
            while shard.map.len() >= cap {
                let Some(victim) = shard.ring.pop_front() else {
                    break;
                };
                let evict = match shard.map.get_mut(&victim) {
                    // Recently used: spend its second chance.
                    Some(slot) if slot.referenced => {
                        slot.referenced = false;
                        false
                    }
                    Some(_) => true,
                    None => continue,
                };
                if evict {
                    shard.map.remove(&victim);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                } else {
                    shard.ring.push_back(victim);
                }
            }
        }
        shard.ring.push_back(key);
        shard.map.insert(
            key,
            Slot {
                value,
                referenced: false,
            },
        );
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Cache hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses since creation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries inserted since creation.
    pub fn inserts(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Entries evicted by the capacity bound since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured total capacity, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.shard_capacity.map(|c| c * NUM_SHARDS)
    }
}

impl fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("inserts", &self.inserts())
            .field("evictions", &self.evictions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Model;

    fn key(h: u128) -> CacheKey {
        CacheKey::new(
            ConeFingerprint {
                hash: h,
                inputs: 4,
                ands: 3,
            },
            GateOp::Or,
            &DecompConfig::new(Model::QbfDisjoint),
        )
    }

    fn value(tag: bool) -> CachedResult {
        CachedResult {
            partition: Some(vec![VarClass::A, VarClass::B, VarClass::C, VarClass::C]),
            proved_optimal: tag,
        }
    }

    #[test]
    fn lookup_roundtrip_and_counters() {
        let cache = ResultCache::new();
        let k = key(7);
        assert_eq!(cache.lookup(&k), None);
        cache.insert(k, value(true));
        assert_eq!(cache.lookup(&k), Some(value(true)));
        assert_eq!(
            (cache.hits(), cache.misses(), cache.inserts(), cache.len()),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn distinct_configs_do_not_collide() {
        let cache = ResultCache::new();
        let fp = ConeFingerprint {
            hash: 9,
            inputs: 4,
            ands: 3,
        };
        let mut c1 = DecompConfig::new(Model::QbfDisjoint);
        let mut c2 = DecompConfig::new(Model::QbfDisjoint);
        c2.seed = c1.seed ^ 1;
        c1.sim_rounds = 4;
        cache.insert(CacheKey::new(fp, GateOp::Or, &c1), value(true));
        assert_eq!(cache.lookup(&CacheKey::new(fp, GateOp::Or, &c2)), None);
        assert_eq!(cache.lookup(&CacheKey::new(fp, GateOp::And, &c1)), None);
        assert_eq!(
            cache.lookup(&CacheKey::new(fp, GateOp::Or, &c1)),
            Some(value(true))
        );
    }

    #[test]
    fn capacity_bound_evicts_with_second_chance() {
        // Single-shard-sized capacity: keys all map to one shard when
        // their hashes share `h % NUM_SHARDS`.
        let cache = ResultCache::with_capacity(2 * NUM_SHARDS);
        let shard_keys: Vec<CacheKey> = (0..3)
            .map(|i| key((i * NUM_SHARDS) as u128)) // same shard
            .collect();
        cache.insert(shard_keys[0], value(false));
        cache.insert(shard_keys[1], value(false));
        // Touch key 0 so it owns a second chance.
        assert!(cache.lookup(&shard_keys[0]).is_some());
        cache.insert(shard_keys[2], value(false));
        assert!(
            cache.lookup(&shard_keys[0]).is_some(),
            "recently-hit entry survives"
        );
        assert!(
            cache.lookup(&shard_keys[1]).is_none(),
            "cold entry is the victim"
        );
        assert!(cache.lookup(&shard_keys[2]).is_some());
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let cache = ResultCache::with_capacity(NUM_SHARDS);
        let k = key(3);
        cache.insert(k, value(false));
        cache.insert(k, value(true));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&k), Some(value(true)));
    }
}
