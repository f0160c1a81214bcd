//! Plan caching: the lock-guarded LRU map behind
//! [`crate::executor::Executor`] (and so behind every
//! [`crate::session::Session`] and [`crate::serve::CollectiveService`]).
//!
//! Plan generation (model evaluation, Auto-Gen DP, routing-script
//! construction) is the expensive half of serving a collective request, so
//! the execution core amortises it through a cache keyed by the full
//! [`CollectiveRequest`]. [`PlanCache`] is a plain LRU map; [`SharedPlanCache`]
//! guards one behind a single mutex. Cached plans are handed out as
//! [`Arc<ResolvedPlan>`], so a cache hit never copies plan bytes and the lock
//! is held only for the map lookup — plan *generation* happens outside it.
//! A lookup costs well under the engine run it precedes, so one lock does
//! not serialize concurrent workers in any measurable way.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use wse_model::Machine;

use crate::error::CollectiveError;
use crate::request::{CollectiveRequest, ResolvedPlan};

/// An LRU map from request to resolved plan.
///
/// Hand-rolled on `HashMap` plus a monotone use counter: capacities are
/// small (tens of plans), so eviction scans are cheap and we avoid an
/// external LRU dependency.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    entries: HashMap<CollectiveRequest, (Arc<ResolvedPlan>, u64)>,
    tick: u64,
}

impl PlanCache {
    pub(crate) fn get(&mut self, request: &CollectiveRequest) -> Option<Arc<ResolvedPlan>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(request).map(|(plan, last_used)| {
            *last_used = tick;
            Arc::clone(plan)
        })
    }

    /// Insert a plan, evicting the least-recently-used entry if `capacity`
    /// would be exceeded. Returns the number of evictions.
    pub(crate) fn insert(
        &mut self,
        request: CollectiveRequest,
        plan: Arc<ResolvedPlan>,
        capacity: usize,
    ) -> u64 {
        self.tick += 1;
        let mut evictions = 0;
        while self.entries.len() >= capacity.max(1) && !self.entries.contains_key(&request) {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(key, _)| *key)
            else {
                break;
            };
            self.entries.remove(&oldest);
            evictions += 1;
        }
        self.entries.insert(request, (plan, self.tick));
        evictions
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// What a [`SharedPlanCache::resolve`] call had to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ResolveOutcome {
    /// Whether the plan was answered from the cache.
    pub hit: bool,
    /// Entries evicted while inserting a freshly generated plan.
    pub evictions: u64,
}

/// A thread-safe plan cache: one [`PlanCache`] behind one mutex.
///
/// The mutex guards only the LRU map; the expensive
/// [`CollectiveRequest::resolve`] call runs outside it. Two workers racing on
/// the same *previously unseen* request may therefore both generate the
/// plan — plan generation is deterministic, so either copy is correct and
/// the second insert simply refreshes the entry.
#[derive(Debug, Default)]
pub(crate) struct SharedPlanCache {
    inner: Mutex<PlanCache>,
}

impl SharedPlanCache {
    /// Resolve `request` through the cache, generating (outside the lock)
    /// on a miss.
    pub(crate) fn resolve(
        &self,
        request: &CollectiveRequest,
        machine: &Machine,
        capacity: usize,
    ) -> Result<(Arc<ResolvedPlan>, ResolveOutcome), CollectiveError> {
        if let Some(cached) = self.lock().get(request) {
            return Ok((cached, ResolveOutcome { hit: true, evictions: 0 }));
        }
        let resolved = Arc::new(request.resolve(machine)?);
        let evictions = self.lock().insert(*request, Arc::clone(&resolved), capacity);
        Ok((resolved, ResolveOutcome { hit: false, evictions }))
    }

    /// Look up a cached plan **without generating on a miss** (and without
    /// touching LRU recency — a peek is an observation, not a use).
    ///
    /// This is the admission controller's view of the cache: the submit path
    /// wants a warm plan's recorded model choice when one exists, but must
    /// never pay for plan generation itself.
    pub(crate) fn peek(&self, request: &CollectiveRequest) -> Option<Arc<ResolvedPlan>> {
        self.lock().entries.get(request).map(|(plan, _)| Arc::clone(plan))
    }

    /// Number of plans currently cached.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// Drop every cached plan.
    pub(crate) fn clear(&self) {
        self.lock().entries.clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlanCache> {
        // The cache never panics while mutating (insert/get are infallible
        // map operations), so a poisoned lock can only mean a *caller*
        // panicked elsewhere while holding it; the data is still consistent.
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Topology;

    fn request(p: u32) -> CollectiveRequest {
        CollectiveRequest::reduce(Topology::line(p), 8)
    }

    #[test]
    fn shared_cache_hits_return_the_same_arc() {
        let cache = SharedPlanCache::default();
        let machine = Machine::wse2();
        let (first, outcome) = cache.resolve(&request(8), &machine, 4).unwrap();
        assert!(!outcome.hit);
        let (second, outcome) = cache.resolve(&request(8), &machine, 4).unwrap();
        assert!(outcome.hit);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shared_cache_respects_capacity() {
        // One LRU map: the capacity is exact, and every insert beyond it
        // evicts exactly one entry.
        let cache = SharedPlanCache::default();
        let machine = Machine::wse2();
        let capacity = 3usize;
        let distinct = 24u32;
        let mut evictions = 0;
        for p in 2..2 + distinct {
            let (_, outcome) = cache.resolve(&request(p), &machine, capacity).unwrap();
            evictions += outcome.evictions;
            assert!(cache.len() <= capacity);
        }
        assert_eq!(cache.len(), capacity);
        assert_eq!(evictions, (distinct as usize - capacity) as u64, "every insert is accounted");
        cache.clear();
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn shared_cache_serves_concurrent_resolutions() {
        let cache = SharedPlanCache::default();
        let machine = Machine::wse2();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for p in 2..10 {
                        let (plan, _) = cache.resolve(&request(p), &machine, 32).unwrap();
                        assert_eq!(plan.plan.dim().num_pes(), p as usize);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 8);
    }

    #[test]
    fn peek_never_generates_and_never_touches_recency() {
        let cache = SharedPlanCache::default();
        let machine = Machine::wse2();
        assert!(cache.peek(&request(8)).is_none());
        assert_eq!(cache.len(), 0, "a cold peek must not generate a plan");
        let (resolved, _) = cache.resolve(&request(8), &machine, 4).unwrap();
        let peeked = cache.peek(&request(8)).expect("warm peek hits");
        assert!(Arc::ptr_eq(&resolved, &peeked));
        let tick_before = cache.lock().tick;
        cache.peek(&request(8));
        let tick_after = cache.lock().tick;
        assert_eq!(tick_before, tick_after, "peeks are not LRU uses");
    }

    #[test]
    fn reinserting_a_present_key_does_not_evict() {
        // Regression: the LRU eviction loop must not evict a victim when the
        // inserted key is already present (a racing double-generation in the
        // shared cache refreshes the entry instead of shrinking the cache).
        let mut cache = PlanCache::default();
        let machine = Machine::wse2();
        for p in [2u32, 3, 4] {
            let plan = Arc::new(request(p).resolve(&machine).unwrap());
            cache.insert(request(p), plan, 3);
        }
        let again = Arc::new(request(3).resolve(&machine).unwrap());
        let evictions = cache.insert(request(3), again, 3);
        assert_eq!(evictions, 0);
        assert_eq!(cache.len(), 3);
    }
}
