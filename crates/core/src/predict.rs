//! Per-output effort prediction: the cost model behind effort-aware
//! queue ordering and admission-time charge estimates.
//!
//! The service already holds two cheap signals about how expensive an
//! output will be: the cone's **support size** (computed for every
//! result) and its **canonical fingerprint** (the
//! [`ResultCache`](crate::cache::ResultCache)/
//! [`TieredStore`](crate::store::TieredStore) key — an output seen
//! before, in this process or a previous one, costs what it cost last
//! time, or nothing at all if the cache still holds it). The
//! [`CostModel`] folds both into a conflict estimate:
//!
//! 1. exact fingerprint history, when this cone has been solved (or
//!    served) before;
//! 2. a per-`log2(support)` bucket EWMA of observed conflicts, learned
//!    from every solve the service completes;
//! 3. a support-proportional prior when neither has data yet.
//!
//! Predictions feed two consumers: [`Submission`
//! cost](crate::StepService::submit_with) for the deficit-round-robin
//! queue ordering, and the serve front-end's admission charge when a
//! request carries no explicit work budget. They are *scheduling*
//! hints only — a misprediction reorders work, it never changes an
//! answer (the determinism contract of [`crate::service`]).

use std::collections::HashMap;
use std::sync::Mutex;

/// Bound on the exact-fingerprint history; at the cap the map is
/// cleared (the bucket EWMAs retain the aggregate signal).
const FP_CAP: usize = 65_536;

/// EWMA smoothing: `avg += (x - avg) / 2^EWMA_SHIFT`.
const EWMA_SHIFT: u32 = 3;

/// Fallback conflicts-per-support-variable prior for cones with no
/// history at all.
const PRIOR_CONFLICTS_PER_VAR: u64 = 32;

/// A concurrent conflict-cost estimator for output cones. See the
/// module docs for the estimation ladder.
#[derive(Debug, Default)]
pub struct CostModel {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// EWMA of observed conflicts per `log2(support)` bucket.
    buckets: HashMap<u32, u64>,
    /// Last observed conflicts per canonical cone fingerprint.
    by_fingerprint: HashMap<u128, u64>,
}

fn bucket(support: usize) -> u32 {
    usize::BITS - support.leading_zeros()
}

impl CostModel {
    /// An empty model (predictions fall back to the support prior).
    pub fn new() -> Self {
        CostModel::default()
    }

    /// Predicted conflicts to solve a cone with this `fingerprint`
    /// (when known) and `support` size. Always at least 1 except for
    /// cones with exact zero-cost history (a cached result is free).
    pub fn predict(&self, fingerprint: Option<u128>, support: usize) -> u64 {
        let inner = self.inner.lock().expect("cost model lock");
        if let Some(fp) = fingerprint {
            if let Some(&c) = inner.by_fingerprint.get(&fp) {
                return c;
            }
        }
        match inner.buckets.get(&bucket(support)) {
            Some(&avg) => avg.max(1),
            None => (support as u64)
                .saturating_mul(PRIOR_CONFLICTS_PER_VAR)
                .max(1),
        }
    }

    /// Records one completed solve. A `cache_hit` updates only the
    /// exact-fingerprint history (to zero — the cone is now free),
    /// never the bucket EWMA: a hit says nothing about the cone's
    /// intrinsic difficulty.
    pub fn record(
        &self,
        fingerprint: Option<u128>,
        support: usize,
        conflicts: u64,
        cache_hit: bool,
    ) {
        let mut inner = self.inner.lock().expect("cost model lock");
        if !cache_hit {
            let avg = inner.buckets.entry(bucket(support)).or_insert(conflicts);
            if conflicts >= *avg {
                *avg += (conflicts - *avg) >> EWMA_SHIFT;
            } else {
                *avg -= (*avg - conflicts) >> EWMA_SHIFT;
            }
        }
        if let Some(fp) = fingerprint {
            if inner.by_fingerprint.len() >= FP_CAP {
                inner.by_fingerprint.clear();
            }
            inner
                .by_fingerprint
                .insert(fp, if cache_hit { 0 } else { conflicts });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prior_scales_with_support_and_stays_positive() {
        let m = CostModel::new();
        assert_eq!(m.predict(None, 10), 320);
        assert_eq!(
            m.predict(None, 0),
            1,
            "never a zero estimate from the prior"
        );
    }

    #[test]
    fn fingerprint_history_is_exact_and_hits_are_free() {
        let m = CostModel::new();
        m.record(Some(7), 10, 500, false);
        assert_eq!(m.predict(Some(7), 10), 500);
        m.record(Some(7), 10, 0, true);
        assert_eq!(m.predict(Some(7), 10), 0, "a cached cone costs nothing");
        // The zero-cost hit must not have dragged the bucket EWMA down.
        assert_eq!(m.predict(Some(99), 10), 500);
    }

    #[test]
    fn bucket_ewma_converges_toward_observations() {
        let m = CostModel::new();
        m.record(None, 16, 1000, false);
        for _ in 0..64 {
            m.record(None, 17, 100, false); // same log2 bucket as 16
        }
        let est = m.predict(None, 16);
        assert!(est < 200, "EWMA must track the recent level, got {est}");
    }
}
