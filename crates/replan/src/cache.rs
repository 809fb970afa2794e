//! [`PlanCache`]: a bounded, content-addressed cache of plan outcomes.

use std::collections::HashMap;
use std::sync::Mutex;

use noctest_core::hashing::{canonical_content, ContentHash};
use noctest_core::plan::{PlanOutcome, PlanRequest};

/// Hit/miss/eviction counters for a [`PlanCache`]: the same type the
/// profile cache reports. A 64-bit collision counts as a miss (see
/// [`PlanCache::lookup`]).
pub use noctest_core::plan::CacheStats;

/// One cached plan: the request that produced it, its canonical content
/// text (the collision guard), and the outcome in canonical compact JSON.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The request that was planned (name and all).
    pub request: PlanRequest,
    /// [`canonical_content`] of that request — stored so lookups can
    /// double-check exact equality behind the 64-bit hash, exactly as the
    /// serve journal does for its request keys.
    pub content: String,
    /// The outcome as canonical compact JSON. Storing text (rather than
    /// the decoded value) makes "byte-identical on a hit" structural: the
    /// same round-trip discipline the serve journal uses.
    pub outcome_text: String,
}

impl CachedPlan {
    /// Decodes the stored outcome.
    #[must_use]
    pub fn outcome(&self) -> PlanOutcome {
        PlanOutcome::from_json_str(&self.outcome_text)
            .expect("cached outcome text was produced by to_json and must decode")
    }
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<u64, CachedPlan>,
    /// Recency order: front = least recently used, back = most recent.
    order: Vec<u64>,
    stats: CacheStats,
}

impl Inner {
    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
        }
        self.order.push(key);
    }
}

/// A bounded, LRU-evicting cache of [`PlanOutcome`]s keyed by the
/// semantic [`ContentHash`] of their requests.
///
/// Two requests with equal content (same SoC, mesh, processors, budget,
/// scheduler, tuning — everything but the `name` label) plan identically,
/// so the cache serves one request's outcome for the other with only the
/// `request_name` member rewritten. All methods take `&self`; the cache
/// is shared across threads behind an internal mutex.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl PlanCache {
    /// A cache holding at most `capacity` outcomes (clamped to at least
    /// one — a zero-capacity cache would silently disable itself).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// `true` when nothing is cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the hit/miss/eviction counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Looks up an exact content hit for `request`.
    ///
    /// On a hit the stored outcome is returned byte-identically except for
    /// its `request_name`, which is rewritten to the incoming request's
    /// name (the one member planning itself never depends on). A 64-bit
    /// hash collision — same hash, different canonical content — counts as
    /// a miss, never a wrong answer: the stored content text is compared
    /// before serving.
    #[must_use]
    pub fn lookup(&self, request: &PlanRequest) -> Option<PlanOutcome> {
        let key = ContentHash::of(request).0;
        let content = canonical_content(request);
        let mut inner = self.lock();
        match inner.entries.get(&key) {
            Some(entry) if entry.content == content => {
                let mut outcome = entry.outcome();
                outcome.request_name = request.name.clone();
                inner.stats.hits += 1;
                inner.touch(key);
                Some(outcome)
            }
            _ => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Stores the outcome of a finished plan. Re-inserting the same
    /// content refreshes the entry (and its recency) in place; inserting
    /// fresh content beyond capacity evicts the least recently used entry.
    pub fn insert(&self, request: &PlanRequest, outcome: &PlanOutcome) {
        let key = ContentHash::of(request).0;
        let entry = CachedPlan {
            request: request.clone(),
            content: canonical_content(request),
            outcome_text: outcome.to_json().compact(),
        };
        let mut inner = self.lock();
        let fresh = inner.entries.insert(key, entry).is_none();
        inner.touch(key);
        if fresh && inner.entries.len() > self.capacity {
            let victim = inner.order.remove(0);
            inner.entries.remove(&victim);
            inner.stats.evictions += 1;
        }
    }

    /// A snapshot of every cached entry with its key, in recency order
    /// (least recently used first). The [`crate::DeltaAnalyzer`] scans
    /// this for near-duplicate donors; snapshotting does not count as a
    /// lookup and does not touch recency.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(ContentHash, CachedPlan)> {
        let inner = self.lock();
        inner
            .order
            .iter()
            .filter_map(|key| {
                inner
                    .entries
                    .get(key)
                    .map(|entry| (ContentHash(*key), entry.clone()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noctest_core::plan::Campaign;
    use noctest_core::BudgetSpec;

    fn request(name: &str, budget: f64) -> PlanRequest {
        PlanRequest::benchmark("d695", 4, 4)
            .with_processors("plasma", 2, 2)
            .with_budget(BudgetSpec::Fraction(budget))
            .with_name(name)
    }

    fn planned(req: &PlanRequest) -> PlanOutcome {
        Campaign::new().run(req).unwrap()
    }

    #[test]
    fn exact_hit_is_byte_identical_up_to_the_name_label() {
        let cache = PlanCache::new(4);
        let monday = request("monday", 0.5);
        let outcome = planned(&monday);
        cache.insert(&monday, &outcome);

        // Same content, same name: byte-identical.
        let same = cache.lookup(&monday).unwrap();
        assert_eq!(same.to_json().compact(), outcome.to_json().compact());

        // Same content, different name: identical except the label.
        let tuesday = request("tuesday", 0.5);
        let relabelled = cache.lookup(&tuesday).unwrap();
        assert_eq!(relabelled.request_name, "tuesday");
        let mut expect = outcome.clone();
        expect.request_name = "tuesday".into();
        assert_eq!(relabelled, expect);

        // Different content: a miss, not a near answer.
        assert!(cache.lookup(&request("monday", 0.6)).is_none());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(cache.stats().lookups(), 3);
    }

    #[test]
    fn eviction_is_lru_and_counted() {
        let cache = PlanCache::new(2);
        let a = request("a", 0.4);
        let b = request("b", 0.5);
        let c = request("c", 0.6);
        let oa = planned(&a);
        let ob = planned(&b);
        let oc = planned(&c);
        cache.insert(&a, &oa);
        cache.insert(&b, &ob);
        // Touch `a` so `b` is the least recently used...
        assert!(cache.lookup(&a).is_some());
        cache.insert(&c, &oc);
        // ...and the third insert evicts `b`, not `a`.
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&a).is_some());
        assert!(cache.lookup(&b).is_none());
        assert!(cache.lookup(&c).is_some());
        assert_eq!(cache.stats().evictions, 1);

        // Re-inserting existing content refreshes in place: no growth, no
        // eviction.
        cache.insert(&a, &oa);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn snapshot_reflects_recency_and_since_deltas_saturate() {
        let cache = PlanCache::new(4);
        let a = request("a", 0.4);
        let b = request("b", 0.5);
        cache.insert(&a, &planned(&a));
        cache.insert(&b, &planned(&b));
        let before = cache.stats();
        assert!(cache.lookup(&a).is_some());
        let delta = cache.stats().since(before);
        assert_eq!(delta.hits, 1);
        assert_eq!(delta.misses, 0);
        // The lookup of `a` made it most recent; snapshots list LRU first.
        let snap = cache.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].1.request.name, "b");
        assert_eq!(snap[1].1.request.name, "a");
        assert_eq!(snap[1].0, ContentHash::of(&a));
        // A stale "later" snapshot never underflows.
        assert_eq!(before.since(cache.stats()), CacheStats::default());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cache = PlanCache::new(0);
        assert_eq!(cache.capacity(), 1);
        let a = request("a", 0.4);
        cache.insert(&a, &planned(&a));
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&a).is_some());
    }
}
