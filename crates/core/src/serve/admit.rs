//! Model-driven admission control: the "gas meter" in front of the batcher.
//!
//! The paper's cost model (Eq. 1) prices a collective *before anything
//! touches the fabric*. This module spends that prediction the way a
//! blockchain VM spends gas estimates — work is priced at the door, metered
//! per tenant, and scheduled by cost — so the serving front-end stops
//! cutting batches blind:
//!
//! * **Per-request ceiling** (`max_predicted_cycles`) — the analogue of a
//!   transaction gas limit. A request the model prices above the ceiling is
//!   rejected at submission with [`crate::error::CollectiveError::OverBudget`]; no plan is
//!   built, no queue slot is consumed, the caller learns *why* immediately.
//! * **Per-tenant token buckets** ([`TenantBudget`]) — the analogue of an
//!   account balance with a drip refill. Each tenant's bucket holds up to
//!   `burst_cycles` and refills at `refill_cycles_per_sec`; an admitted
//!   request debits its predicted cycles. A briefly over-budget tenant is
//!   not hard-failed: its requests are **deferred** to a bounded side queue
//!   and released, in per-tenant FIFO order, as the bucket refills.
//! * **Cost-aware batch formation** ([`BatchOrder`], `max_batch_cycles`) —
//!   the analogue of packing a block by gas: inside a batch window the
//!   scheduler can order by predicted runtime (shortest-predicted-job-first)
//!   and cut the batch when its summed predicted cycles would exceed
//!   `max_batch_cycles`, so one giant all-to-all does not ride in a batch of
//!   latency-sensitive reduces.
//!
//! Predictions come from [`crate::executor::Executor::cached_plan`] (a warm
//! plan's recorded model choice) with a fallback to the pure cost model
//! ([`crate::request::CollectiveRequest::predicted_cycles`]); the submit
//! path never generates a plan.
//!
//! ## Determinism
//!
//! Cost-aware reordering must not change results. Noise-run indices are
//! stamped when an item enters the batch accumulator (its *admission* to
//! execution order), and travel with the item through any reordering — see
//! [`crate::executor::Executor::run_stamped`]. The service's integration
//! proptests pin that an SJF-ordered service produces, per request, exactly
//! the bytes a sequential [`crate::session::Session`] produces in admission
//! order — and that a service with [`AdmissionConfig::disabled`] (the
//! default) produces them in submission order.
//!
//! ## Honest limitations
//!
//! * Shortest-predicted-first can **starve** large requests under sustained
//!   overload (the classic SJF property): as long as smaller work keeps
//!   arriving inside the window, a large item keeps losing the sort. The
//!   deadline trigger bounds this *per window* — once the oldest accumulated
//!   item's `max_wait` expires, a flush happens regardless — but a large
//!   item can still be cut out of that flush by `max_batch_cycles`; it then
//!   flushes in a follow-up batch (every cut takes at least one item, so
//!   progress is guaranteed).
//! * A request priced above a tenant's `burst_cycles` can never be afforded
//!   outright; it is admitted when the bucket is *full* and drives the level
//!   negative ("borrowing"), so the tenant pays for it by waiting longer
//!   afterwards. A zero refill rate with an empty bucket defers until
//!   shutdown (which force-drains — no accepted request is ever dropped);
//!   so does a rate so small that the refill wait is past what an
//!   [`Instant`] can represent.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::request::TenantId;

/// How the batcher orders items when it cuts a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchOrder {
    /// Arrival order (the PR 6 behavior).
    #[default]
    Fifo,
    /// Shortest predicted runtime first (ties broken by arrival), so small
    /// latency-sensitive requests are not stuck behind a giant one inside
    /// the same window.
    ShortestPredictedFirst,
}

/// A tenant's cycle budget: a token bucket holding up to `burst_cycles`
/// and refilling continuously at `refill_cycles_per_sec`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantBudget {
    /// Predicted cycles this tenant may spend in a burst (bucket capacity).
    pub burst_cycles: u64,
    /// Continuous refill rate in predicted cycles per wall-clock second.
    pub refill_cycles_per_sec: f64,
}

impl TenantBudget {
    /// A budget allowing `burst_cycles` at once, refilling at
    /// `refill_cycles_per_sec`.
    pub fn new(burst_cycles: u64, refill_cycles_per_sec: f64) -> Self {
        TenantBudget { burst_cycles, refill_cycles_per_sec }
    }
}

/// Admission-control policy of a [`crate::serve::CollectiveService`]. The
/// default ([`AdmissionConfig::disabled`]) enforces nothing: FIFO batches,
/// no ceiling, no cycle cut, no budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Reject any request the model prices above this many cycles with
    /// [`crate::error::CollectiveError::OverBudget`]. `None` = no ceiling.
    pub max_predicted_cycles: Option<u64>,
    /// Batch-formation order within a window.
    pub order: BatchOrder,
    /// Cut a batch when its summed predicted cycles would exceed this
    /// (every cut still takes at least one item). `None` = no cycle cut.
    pub max_batch_cycles: Option<u64>,
    /// Per-tenant budgets. Tenants not listed fall back to
    /// `default_budget`, or run unmetered if that is `None` too.
    pub tenant_budgets: Vec<(TenantId, TenantBudget)>,
    /// Budget applied to tenants without an explicit entry.
    pub default_budget: Option<TenantBudget>,
    /// Bound of the deferred side queue (across all tenants). A deferral
    /// that would exceed it is rejected with
    /// [`crate::error::CollectiveError::QueueFull`].
    pub deferred_capacity: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::disabled()
    }
}

impl AdmissionConfig {
    /// No admission control at all: no ceiling, FIFO batches, no cycle cut,
    /// no budgets. Requests are still priced at submit, which feeds
    /// [`crate::executor::ExecutorStats::prediction`].
    pub fn disabled() -> Self {
        AdmissionConfig {
            max_predicted_cycles: None,
            order: BatchOrder::Fifo,
            max_batch_cycles: None,
            tenant_budgets: Vec::new(),
            default_budget: None,
            deferred_capacity: 64,
        }
    }

    /// Whether any policy is enabled (responses carry an
    /// [`AdmissionInfo`] only when one is).
    pub fn is_active(&self) -> bool {
        self.max_predicted_cycles.is_some()
            || self.order != BatchOrder::Fifo
            || self.max_batch_cycles.is_some()
            || !self.tenant_budgets.is_empty()
            || self.default_budget.is_some()
    }

    /// This policy with a per-request cycle ceiling.
    pub fn with_max_predicted_cycles(mut self, limit: u64) -> Self {
        self.max_predicted_cycles = Some(limit);
        self
    }

    /// This policy with a batch-formation order.
    pub fn with_order(mut self, order: BatchOrder) -> Self {
        self.order = order;
        self
    }

    /// This policy with a per-batch predicted-cycle cut.
    pub fn with_max_batch_cycles(mut self, limit: u64) -> Self {
        self.max_batch_cycles = Some(limit);
        self
    }

    /// This policy with a budget for one tenant (replacing any earlier
    /// entry for the same tenant).
    pub fn with_tenant_budget(mut self, tenant: TenantId, budget: TenantBudget) -> Self {
        self.tenant_budgets.retain(|(t, _)| *t != tenant);
        self.tenant_budgets.push((tenant, budget));
        self
    }

    /// This policy with a budget for every tenant not listed explicitly.
    pub fn with_default_budget(mut self, budget: TenantBudget) -> Self {
        self.default_budget = Some(budget);
        self
    }

    /// This policy with a different deferred-queue bound.
    pub fn with_deferred_capacity(mut self, capacity: usize) -> Self {
        self.deferred_capacity = capacity.max(1);
        self
    }
}

/// Why a completed request was (or was not) delayed by admission control —
/// carried on [`crate::serve::Response`] so callers can see why a request
/// was slow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// Admitted straight onto the queue.
    Admitted,
    /// Held in the deferred queue until the tenant's budget refilled.
    DeferredThenAdmitted {
        /// Time spent deferred before release.
        wait: Duration,
    },
}

/// The admission layer's view of one completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionInfo {
    /// Whether the request was deferred before admission, and for how long.
    pub outcome: AdmissionOutcome,
    /// The tenant the request was accounted to.
    pub tenant: TenantId,
    /// The cycles the cost model predicted at submission (`None` when no
    /// prediction was computable, e.g. a malformed request).
    pub predicted_cycles: Option<u64>,
    /// The noise-run index stamped at admission (`None` for requests that
    /// were rejected at execution and so consumed no index).
    pub run_index: Option<u64>,
}

/// What [`AdmissionController::try_charge`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Charge {
    /// The tenant's bucket covered the cost (or the tenant is unmetered).
    Admitted,
    /// The tenant cannot afford the cost right now (or has earlier deferred
    /// items — per-tenant FIFO): the item must join the deferred queue.
    Defer,
}

/// Why a deferral was refused; the item is handed back either way.
#[derive(Debug)]
pub(crate) enum DeferError<T> {
    /// The deferred queue is at capacity.
    Overflow(T),
    /// The controller was closed by shutdown.
    Closed(T),
}

/// A tenant's token bucket. `level` may go negative: a request priced above
/// `burst_cycles` is admitted when the bucket is full and borrows, making
/// the tenant wait proportionally longer afterwards.
#[derive(Debug)]
struct Bucket {
    level: f64,
    last_refill: Instant,
}

#[derive(Debug)]
struct DeferredItem<T> {
    tenant: TenantId,
    cost: u64,
    since: Instant,
    item: T,
}

#[derive(Debug)]
struct ControllerState<T> {
    buckets: HashMap<TenantId, Bucket>,
    deferred: VecDeque<DeferredItem<T>>,
    closed: bool,
}

/// The token-bucket + deferral engine, generic over the queued item so the
/// policy is unit-testable with plain values and deterministic clocks
/// (every method takes an explicit `now`).
#[derive(Debug)]
pub(crate) struct AdmissionController<T> {
    budgets: HashMap<TenantId, TenantBudget>,
    default_budget: Option<TenantBudget>,
    deferred_capacity: usize,
    state: Mutex<ControllerState<T>>,
}

impl<T> AdmissionController<T> {
    pub(crate) fn new(config: &AdmissionConfig) -> Self {
        AdmissionController {
            budgets: config.tenant_budgets.iter().copied().collect(),
            default_budget: config.default_budget,
            deferred_capacity: config.deferred_capacity.max(1),
            state: Mutex::new(ControllerState {
                buckets: HashMap::new(),
                deferred: VecDeque::new(),
                closed: false,
            }),
        }
    }

    /// The budget metering `tenant`, if any.
    fn budget_for(&self, tenant: TenantId) -> Option<TenantBudget> {
        self.budgets.get(&tenant).copied().or(self.default_budget)
    }

    /// Charge `cost` predicted cycles to `tenant`'s bucket, refilled to
    /// `now`. [`Charge::Defer`] means the caller must queue the item via
    /// [`AdmissionController::defer`]; a tenant with items already deferred
    /// always defers (per-tenant FIFO — later requests must not overtake a
    /// deferred earlier one).
    pub(crate) fn try_charge(&self, tenant: TenantId, cost: u64, now: Instant) -> Charge {
        let Some(budget) = self.budget_for(tenant) else {
            return Charge::Admitted;
        };
        let mut state = self.lock();
        if state.deferred.iter().any(|d| d.tenant == tenant) {
            return Charge::Defer;
        }
        if Self::afford(&mut state, tenant, budget, cost, now) {
            Charge::Admitted
        } else {
            Charge::Defer
        }
    }

    /// Refill `tenant`'s bucket to `now` and, if it can afford `cost`,
    /// debit it. The affordability threshold is `min(cost, burst)`: a cost
    /// above the burst is admitted from a full bucket and borrows.
    fn afford(
        state: &mut ControllerState<T>,
        tenant: TenantId,
        budget: TenantBudget,
        cost: u64,
        now: Instant,
    ) -> bool {
        let bucket = state
            .buckets
            .entry(tenant)
            .or_insert(Bucket { level: budget.burst_cycles as f64, last_refill: now });
        refill(bucket, budget, now);
        if bucket.level >= (cost as f64).min(budget.burst_cycles as f64) {
            bucket.level -= cost as f64;
            true
        } else {
            false
        }
    }

    /// Return `cost` cycles to `tenant`'s bucket (a charged submission that
    /// could not be enqueued — e.g. a non-blocking push into a full queue).
    /// Capped at the burst, so a refund racing a refill never overfills.
    pub(crate) fn refund(&self, tenant: TenantId, cost: u64, now: Instant) {
        let Some(budget) = self.budget_for(tenant) else {
            return;
        };
        let mut state = self.lock();
        if let Some(bucket) = state.buckets.get_mut(&tenant) {
            refill(bucket, budget, now);
            bucket.level = (bucket.level + cost as f64).min(budget.burst_cycles as f64);
        }
    }

    /// Queue an item the tenant could not afford. Fails when the deferred
    /// queue is at capacity or the controller was closed by shutdown.
    pub(crate) fn defer(
        &self,
        tenant: TenantId,
        cost: u64,
        item: T,
        now: Instant,
    ) -> Result<(), DeferError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(DeferError::Closed(item));
        }
        if state.deferred.len() >= self.deferred_capacity {
            return Err(DeferError::Overflow(item));
        }
        state.deferred.push_back(DeferredItem { tenant, cost, since: now, item });
        Ok(())
    }

    /// Release every deferred item whose tenant can now afford it, charging
    /// the buckets. Items are scanned in deferral order; a tenant whose
    /// head item is still unaffordable blocks *its own* later items (FIFO
    /// per tenant) but never another tenant's. Returns each released item
    /// with the time it spent deferred.
    pub(crate) fn release_due(&self, now: Instant) -> Vec<(T, Duration)> {
        let mut state = self.lock();
        let mut blocked: Vec<TenantId> = Vec::new();
        let mut released = Vec::new();
        let mut remaining = VecDeque::new();
        for entry in std::mem::take(&mut state.deferred) {
            let budget =
                self.budget_for(entry.tenant).expect("only metered tenants are ever deferred");
            if !blocked.contains(&entry.tenant)
                && Self::afford(&mut state, entry.tenant, budget, entry.cost, now)
            {
                released.push((entry.item, now.duration_since(entry.since)));
            } else {
                blocked.push(entry.tenant);
                remaining.push_back(entry);
            }
        }
        state.deferred = remaining;
        released
    }

    /// When the earliest blocked deferral becomes affordable — the wakeup
    /// deadline the batcher combines with its batch deadline. `None` when
    /// nothing is deferred, or no blocked tenant's refill lands at a
    /// representable instant: a zero (or negative) rate, or one so small
    /// the wait overflows (only shutdown will move those).
    pub(crate) fn next_release_at(&self, now: Instant) -> Option<Instant> {
        let mut state = self.lock();
        let mut seen: Vec<TenantId> = Vec::new();
        let mut earliest: Option<Instant> = None;
        let entries: Vec<(TenantId, u64)> =
            state.deferred.iter().map(|d| (d.tenant, d.cost)).collect();
        for (tenant, cost) in entries {
            if seen.contains(&tenant) {
                continue;
            }
            seen.push(tenant);
            let budget = self.budget_for(tenant).expect("only metered tenants are ever deferred");
            let bucket = state
                .buckets
                .entry(tenant)
                .or_insert(Bucket { level: budget.burst_cycles as f64, last_refill: now });
            refill(bucket, budget, now);
            let needed = (cost as f64).min(budget.burst_cycles as f64) - bucket.level;
            let at = if needed <= 0.0 {
                Some(now)
            } else {
                // A zero rate gives an infinite wait, which fails the
                // conversion like any other out-of-range one.
                Duration::try_from_secs_f64(needed / budget.refill_cycles_per_sec)
                    .ok()
                    .and_then(|wait| now.checked_add(wait))
            };
            let Some(at) = at else {
                continue;
            };
            earliest = Some(earliest.map_or(at, |e| e.min(at)));
        }
        earliest
    }

    /// Mark the controller closed (shutdown): later
    /// [`AdmissionController::defer`] calls fail with
    /// [`DeferError::Closed`]. Closing and draining under one lock is what
    /// guarantees no item can slip into the deferred queue after the drain.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
    }

    /// Take every deferred item regardless of budget (the shutdown drain:
    /// no accepted request is ever dropped). Buckets are not charged —
    /// the service is going away.
    pub(crate) fn drain(&self, now: Instant) -> Vec<(T, Duration)> {
        let mut state = self.lock();
        std::mem::take(&mut state.deferred)
            .into_iter()
            .map(|entry| (entry.item, now.duration_since(entry.since)))
            .collect()
    }

    /// Number of currently deferred items (across all tenants).
    #[cfg(test)]
    pub(crate) fn deferred_len(&self) -> usize {
        self.lock().deferred.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ControllerState<T>> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Refill a bucket to `now`: `rate × elapsed`, capped at the burst.
fn refill(bucket: &mut Bucket, budget: TenantBudget, now: Instant) {
    let elapsed = now.saturating_duration_since(bucket.last_refill);
    bucket.last_refill = now;
    bucket.level = (bucket.level + budget.refill_cycles_per_sec * elapsed.as_secs_f64())
        .min(budget.burst_cycles as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: TenantId = TenantId(0);
    const T1: TenantId = TenantId(1);

    fn at(base: Instant, millis: u64) -> Instant {
        base + Duration::from_millis(millis)
    }

    fn config_with_budget(tenant: TenantId, burst: u64, rate: f64) -> AdmissionConfig {
        AdmissionConfig::disabled().with_tenant_budget(tenant, TenantBudget::new(burst, rate))
    }

    #[test]
    fn disabled_config_is_inactive_and_every_policy_activates() {
        assert!(!AdmissionConfig::disabled().is_active());
        assert!(AdmissionConfig::disabled().with_max_predicted_cycles(1).is_active());
        assert!(AdmissionConfig::disabled()
            .with_order(BatchOrder::ShortestPredictedFirst)
            .is_active());
        assert!(AdmissionConfig::disabled().with_max_batch_cycles(1).is_active());
        assert!(config_with_budget(T0, 1, 0.0).is_active());
        assert!(AdmissionConfig::disabled()
            .with_default_budget(TenantBudget::new(1, 0.0))
            .is_active());
    }

    #[test]
    fn unmetered_tenants_always_admit() {
        let controller: AdmissionController<u32> =
            AdmissionController::new(&AdmissionConfig::disabled());
        let base = Instant::now();
        assert_eq!(controller.try_charge(T0, u64::MAX, base), Charge::Admitted);
        assert_eq!(controller.next_release_at(base), None);
    }

    #[test]
    fn bucket_charges_defers_and_refills_over_time() {
        // 1000-cycle burst, 1000 cycles/sec refill = 1 cycle per millisecond.
        let controller: AdmissionController<u32> =
            AdmissionController::new(&config_with_budget(T0, 1000, 1000.0));
        let base = Instant::now();
        assert_eq!(controller.try_charge(T0, 800, at(base, 0)), Charge::Admitted);
        // 200 left: a 500-cycle request must defer.
        assert_eq!(controller.try_charge(T0, 500, at(base, 0)), Charge::Defer);
        controller.defer(T0, 500, 1, at(base, 0)).unwrap();
        // Not yet affordable after 100 ms (level 300)...
        assert!(controller.release_due(at(base, 100)).is_empty());
        // ...and the controller knows exactly when it will be: 300 ms in.
        assert_eq!(controller.next_release_at(at(base, 100)), Some(at(base, 300)));
        // At 300 ms the bucket holds 500 and the deferral releases.
        let released = controller.release_due(at(base, 300));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].0, 1);
        assert_eq!(released[0].1, Duration::from_millis(300));
        assert_eq!(controller.deferred_len(), 0);
    }

    #[test]
    fn deferred_tenants_keep_fifo_order_and_do_not_block_others() {
        // Tenant 0 refills slowly (100 cycles/s), tenant 1 fast (1000/s).
        let config = config_with_budget(T0, 100, 100.0)
            .with_tenant_budget(T1, TenantBudget::new(100, 1000.0));
        let controller: AdmissionController<u32> = AdmissionController::new(&config);
        let base = Instant::now();
        // Drain both buckets.
        assert_eq!(controller.try_charge(T0, 100, at(base, 0)), Charge::Admitted);
        assert_eq!(controller.try_charge(T1, 100, at(base, 0)), Charge::Admitted);
        // Tenant 0's head (60 cycles) cannot be afforded: deferred.
        assert_eq!(controller.try_charge(T0, 60, at(base, 0)), Charge::Defer);
        controller.defer(T0, 60, 1, at(base, 0)).unwrap();
        // A later, *cheaper* request from the same tenant still defers:
        // per-tenant FIFO forbids overtaking the blocked head.
        assert_eq!(controller.try_charge(T0, 1, at(base, 10)), Charge::Defer);
        controller.defer(T0, 1, 2, at(base, 10)).unwrap();
        // Tenant 1 queues *behind* them.
        assert_eq!(controller.try_charge(T1, 100, at(base, 20)), Charge::Defer);
        controller.defer(T1, 100, 3, at(base, 20)).unwrap();

        // At 120 ms tenant 0 holds 12 cycles: its head (60) stays blocked,
        // and so does its affordable second item (FIFO). Tenant 1 holds 120
        // and is not head-of-line blocked by tenant 0 ahead of it.
        let released = controller.release_due(at(base, 120));
        assert_eq!(released.iter().map(|(item, _)| *item).collect::<Vec<_>>(), vec![3]);
        // Tenant 0 needs 48 more cycles: affordable 480 ms later.
        assert_eq!(controller.next_release_at(at(base, 120)), Some(at(base, 600)));
        // At 700 ms tenant 0's bucket holds 70: the head releases (leaving
        // 10), then the 1-cycle item — FIFO order preserved.
        let released = controller.release_due(at(base, 700));
        assert_eq!(released.iter().map(|(item, _)| *item).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(controller.deferred_len(), 0);
    }

    #[test]
    fn oversized_requests_borrow_from_a_full_bucket() {
        let controller: AdmissionController<u32> =
            AdmissionController::new(&config_with_budget(T0, 100, 100.0));
        let base = Instant::now();
        // 250 > burst 100, but the bucket is full: admitted, level goes to
        // -150, and the next 1-cycle request waits for the debt to clear.
        assert_eq!(controller.try_charge(T0, 250, at(base, 0)), Charge::Admitted);
        assert_eq!(controller.try_charge(T0, 1, at(base, 0)), Charge::Defer);
        controller.defer(T0, 1, 7, at(base, 0)).unwrap();
        // level(-150) + 1.51 s × 100/s = 1: affordable.
        assert!(controller.release_due(at(base, 1400)).is_empty());
        assert_eq!(controller.release_due(at(base, 1510)).len(), 1);
    }

    #[test]
    fn deferred_queue_overflows_at_capacity() {
        let config = config_with_budget(T0, 10, 0.0).with_deferred_capacity(2);
        let controller: AdmissionController<u32> = AdmissionController::new(&config);
        let base = Instant::now();
        controller.try_charge(T0, 10, base); // drain the bucket
        controller.defer(T0, 5, 1, base).unwrap();
        controller.defer(T0, 5, 2, base).unwrap();
        match controller.defer(T0, 5, 3, base) {
            Err(DeferError::Overflow(item)) => assert_eq!(item, 3),
            other => panic!("expected Overflow, got {other:?}"),
        }
        assert_eq!(controller.deferred_len(), 2);
    }

    #[test]
    fn zero_rate_tenants_never_schedule_a_release_but_drain_on_shutdown() {
        let controller: AdmissionController<u32> =
            AdmissionController::new(&config_with_budget(T0, 10, 0.0));
        let base = Instant::now();
        controller.try_charge(T0, 10, base);
        controller.defer(T0, 5, 42, at(base, 1)).unwrap();
        assert_eq!(controller.next_release_at(at(base, 2)), None, "no refill, no wakeup");
        controller.close();
        match controller.defer(T0, 5, 43, at(base, 3)) {
            Err(DeferError::Closed(item)) => assert_eq!(item, 43),
            other => panic!("expected Closed, got {other:?}"),
        }
        let drained = controller.drain(at(base, 11));
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, 42);
        assert_eq!(drained[0].1, Duration::from_millis(10));
        assert_eq!(controller.deferred_len(), 0);
    }

    #[test]
    fn vanishing_refill_rates_never_schedule_a_release() {
        // Regression: 1e-300 cycles/s made the refill wait overflow
        // `Duration`, and the panic killed the batcher thread. An
        // unrepresentable wait now behaves like a zero rate.
        let config = config_with_budget(T0, 1, 1e-300)
            .with_tenant_budget(T1, TenantBudget::new(1, f64::MIN_POSITIVE));
        let controller: AdmissionController<u32> = AdmissionController::new(&config);
        let base = Instant::now();
        for (tenant, item) in [(T0, 1), (T1, 2)] {
            assert_eq!(controller.try_charge(tenant, 1, base), Charge::Admitted);
            assert_eq!(controller.try_charge(tenant, 1, base), Charge::Defer);
            controller.defer(tenant, 1, item, base).unwrap();
        }
        assert_eq!(controller.next_release_at(at(base, 1)), None);
        assert!(controller.release_due(at(base, 1)).is_empty());
        assert_eq!(controller.drain(at(base, 2)).len(), 2, "shutdown still drains them");
    }

    #[test]
    fn refunds_restore_tokens_capped_at_burst() {
        let controller: AdmissionController<u32> =
            AdmissionController::new(&config_with_budget(T0, 100, 0.0));
        let base = Instant::now();
        assert_eq!(controller.try_charge(T0, 80, base), Charge::Admitted);
        assert_eq!(controller.try_charge(T0, 80, base), Charge::Defer);
        controller.refund(T0, 80, base);
        assert_eq!(controller.try_charge(T0, 80, base), Charge::Admitted);
        // Refunding beyond the burst does not overfill.
        controller.refund(T0, 10_000, base);
        assert_eq!(controller.try_charge(T0, 100, base), Charge::Admitted);
        assert_eq!(controller.try_charge(T0, 1, base), Charge::Defer);
    }

    #[test]
    fn default_budget_meters_unlisted_tenants() {
        let config = AdmissionConfig::disabled().with_default_budget(TenantBudget::new(50, 0.0));
        let controller: AdmissionController<u32> = AdmissionController::new(&config);
        let base = Instant::now();
        assert_eq!(controller.try_charge(TenantId(9), 50, base), Charge::Admitted);
        assert_eq!(controller.try_charge(TenantId(9), 1, base), Charge::Defer);
        // A different unlisted tenant has its own bucket.
        assert_eq!(controller.try_charge(TenantId(10), 50, base), Charge::Admitted);
    }
}
