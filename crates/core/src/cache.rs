//! The per-op result cache — a sharded, `Send + Sync` map from
//! `(result namespace, cone fingerprint, operator)` to solved
//! outcomes — and the second-chance map it shares with the clause bank's
//! exact channel.
//!
//! The engine solves every non-trivial cone in *canonical* input order
//! (see [`step_aig::canonicalize`]), so a solved outcome is a pure
//! function of the cone's fingerprint, its operator and the
//! result-relevant configuration, which
//! [`ConfigKey::results`](crate::store::ConfigKey::results) names once
//! for both tiers of the store. The canonical partition stored here
//! can be handed to any structurally identical cone — including
//! permuted-input twins at other outputs, in other circuits, or in
//! later runs — and translated through that cone's input permutation.
//! Sessions consult the cache (through
//! [`TieredStore::lookup_result`](crate::TieredStore::lookup_result))
//! before building the core formula and oracle, which is where the
//! real cost lives.
//!
//! Only **definitive** outcomes are cached (`solved` and not
//! `timed_out`): a budget-truncated result is a property of the run,
//! not of the cone, and must never masquerade as an answer for a
//! different run. That is also the invalidation story — entries never
//! go stale, because everything budget-dependent is excluded from the
//! cache and everything result-relevant is part of the key.
//!
//! The map is sharded ([`NUM_SHARDS`] mutexes) so the service's
//! workers can hit it concurrently, and optionally bounded with a
//! second-chance (clock) eviction policy — no external deps.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use step_aig::ConeFingerprint;

use crate::partition::VarClass;
use crate::spec::GateOp;
use crate::store::ConfigKey;

/// Number of independently-locked shards.
pub const NUM_SHARDS: usize = 16;

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

struct Slot<V> {
    value: V,
    /// Second-chance bit: set on every hit, cleared once by the clock
    /// hand before the entry becomes evictable.
    referenced: bool,
}

struct ClockShard<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Insertion ring for the clock hand.
    ring: VecDeque<K>,
}

/// A sharded map, optionally bounded per shard with second-chance
/// (clock) eviction. The caller picks each key's shard, so the result
/// cache (by fingerprint hash) and the clause bank's exact channel (by
/// operator and support) each keep their own shard layout — and with
/// it, which entries a capped run evicts.
pub(crate) struct ClockMap<K, V> {
    shards: Vec<Mutex<ClockShard<K, V>>>,
    /// Per-shard entry bound (`None` = unbounded).
    shard_capacity: Option<usize>,
    evictions: AtomicU64,
}

impl<K: Clone + Eq + Hash, V: Clone> ClockMap<K, V> {
    /// A map holding at most `capacity` entries (rounded up to a
    /// multiple of [`NUM_SHARDS`]); `None` is unbounded.
    pub(crate) fn new(capacity: Option<usize>) -> Self {
        ClockMap {
            shards: (0..NUM_SHARDS)
                .map(|_| {
                    Mutex::new(ClockShard {
                        map: HashMap::new(),
                        ring: VecDeque::new(),
                    })
                })
                .collect(),
            shard_capacity: capacity.map(|c| c.div_ceil(NUM_SHARDS).max(1)),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self, shard: usize) -> MutexGuard<'_, ClockShard<K, V>> {
        self.shards[shard % NUM_SHARDS]
            .lock()
            .expect("clock map shard poisoned")
    }

    /// The value under `key`, which earns a second chance.
    pub(crate) fn get(&self, shard: usize, key: &K) -> Option<V> {
        let mut shard = self.lock(shard);
        let slot = shard.map.get_mut(key)?;
        slot.referenced = true;
        Some(slot.value.clone())
    }

    /// Inserts `value`, or refreshes it in place when `key` is already
    /// present; returns whether the key was new. A full shard first
    /// evicts its oldest entry that has no second chance left.
    pub(crate) fn insert(&self, shard: usize, key: K, value: V) -> bool {
        let mut shard = self.lock(shard);
        if let Some(slot) = shard.map.get_mut(&key) {
            slot.value = value;
            return false;
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
        shard.ring.push_back(key.clone());
        shard.map.insert(
            key,
            Slot {
                value,
                referenced: false,
            },
        );
        true
    }

    /// Entries evicted by the capacity bound since creation.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries currently resident.
    pub(crate) fn len(&self) -> usize {
        (0..NUM_SHARDS).map(|s| self.lock(s).map.len()).sum()
    }

    /// The configured total capacity, if bounded.
    pub(crate) fn capacity(&self) -> Option<usize> {
        self.shard_capacity.map(|c| c * NUM_SHARDS)
    }
}

/// Address of one cached outcome: the result namespace's config key,
/// the canonical cone and the root operator.
type ResultKey = (ConfigKey, ConeFingerprint, GateOp);

/// The sharded result cache. See the module docs.
///
/// Create one, wrap it in an [`std::sync::Arc`] and make it the tier-0
/// cache of a [`TieredStore`](crate::TieredStore) shared by any number
/// of engines and services (or attach it directly with
/// [`crate::BiDecomposer::set_cache`]) to share solved cones across
/// outputs, circuits and whole benchmark sweeps.
pub struct ResultCache {
    map: ClockMap<ResultKey, CachedResult>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
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
        Self::build(Some(capacity))
    }

    fn build(capacity: Option<usize>) -> Self {
        ResultCache {
            map: ClockMap::new(capacity),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// Looks up a definitive outcome, bumping the hit/miss counters.
    pub(crate) fn lookup(
        &self,
        config: &ConfigKey,
        fingerprint: ConeFingerprint,
        op: GateOp,
    ) -> Option<CachedResult> {
        let key = (config.clone(), fingerprint, op);
        let hit = self.map.get(fingerprint.hash as usize, &key);
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Inserts (or refreshes) a definitive outcome. Concurrent workers
    /// may race on the same cone; outcomes are deterministic per key,
    /// so a refresh writes the value already there.
    pub(crate) fn insert(
        &self,
        config: &ConfigKey,
        fingerprint: ConeFingerprint,
        op: GateOp,
        value: CachedResult,
    ) {
        let key = (config.clone(), fingerprint, op);
        if self.map.insert(fingerprint.hash as usize, key, value) {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
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
        self.map.evictions()
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured total capacity, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.map.capacity()
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
    use std::sync::Arc;

    use super::*;
    use crate::spec::{DecompConfig, Model};
    use crate::store::{Namespace, TieredStore};

    fn fp(h: u128) -> ConeFingerprint {
        ConeFingerprint {
            hash: h,
            inputs: 4,
            ands: 3,
        }
    }

    fn config() -> ConfigKey {
        ConfigKey::results(&DecompConfig::new(Model::QbfDisjoint))
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
        let c = config();
        assert_eq!(cache.lookup(&c, fp(7), GateOp::Or), None);
        cache.insert(&c, fp(7), GateOp::Or, value(true));
        assert_eq!(cache.lookup(&c, fp(7), GateOp::Or), Some(value(true)));
        assert_eq!(
            (cache.hits(), cache.misses(), cache.inserts(), cache.len()),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn distinct_configs_do_not_collide() {
        let cache = Arc::new(ResultCache::new());
        let store = TieredStore::memory(Some(Arc::clone(&cache)), None);
        let mut c1 = DecompConfig::new(Model::QbfDisjoint);
        let mut c2 = DecompConfig::new(Model::QbfDisjoint);
        c2.seed = c1.seed ^ 1;
        c1.sim_rounds = 4;
        let (n1, n2) = (Namespace::results(&c1), Namespace::results(&c2));
        store.insert_result(&n1, fp(9), GateOp::Or, value(true));
        assert_eq!(store.lookup_result(&n2, fp(9), GateOp::Or), None);
        assert_eq!(store.lookup_result(&n1, fp(9), GateOp::And), None);
        assert_eq!(
            store.lookup_result(&n1, fp(9), GateOp::Or),
            Some((value(true), false))
        );
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 1));
    }

    #[test]
    fn capacity_bound_evicts_with_second_chance() {
        // Single-shard-sized capacity: keys all map to one shard when
        // their hashes share `h % NUM_SHARDS`.
        let cache = ResultCache::with_capacity(2 * NUM_SHARDS);
        let c = config();
        let shard_keys: Vec<ConeFingerprint> = (0..3)
            .map(|i| fp((i * NUM_SHARDS) as u128)) // same shard
            .collect();
        cache.insert(&c, shard_keys[0], GateOp::Or, value(false));
        cache.insert(&c, shard_keys[1], GateOp::Or, value(false));
        // Touch key 0 so it owns a second chance.
        assert!(cache.lookup(&c, shard_keys[0], GateOp::Or).is_some());
        cache.insert(&c, shard_keys[2], GateOp::Or, value(false));
        assert!(
            cache.lookup(&c, shard_keys[0], GateOp::Or).is_some(),
            "recently-hit entry survives"
        );
        assert!(
            cache.lookup(&c, shard_keys[1], GateOp::Or).is_none(),
            "cold entry is the victim"
        );
        assert!(cache.lookup(&c, shard_keys[2], GateOp::Or).is_some());
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let cache = ResultCache::with_capacity(NUM_SHARDS);
        let c = config();
        cache.insert(&c, fp(3), GateOp::Or, value(false));
        cache.insert(&c, fp(3), GateOp::Or, value(true));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&c, fp(3), GateOp::Or), Some(value(true)));
    }
}
