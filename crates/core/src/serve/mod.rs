//! The async serving front-end: a continuously accepting collective
//! service.
//!
//! [`crate::executor::Executor::run_batch`] is synchronous and
//! caller-assembled: someone has to gather a batch before anything runs. A
//! [`CollectiveService`] closes that gap — it is the serving loop that turns
//! the parallel library into a service:
//!
//! * submitters hand in [`CollectiveRequest`]s continuously through a
//!   **bounded submission queue** ([`queue`]) and immediately get a
//!   [`ResponseHandle`] back ([`handle`]);
//! * a dedicated **batcher thread** forms batches by *deadline or size*
//!   ([`batcher`]): a batch is dispatched to the executor as soon as it
//!   holds `max_batch` requests, or `max_wait` after its oldest request
//!   arrived, whichever comes first;
//! * the queue bound is the **backpressure** mechanism:
//!   [`CollectiveService::try_submit`] fails fast with
//!   [`CollectiveError::QueueFull`], [`CollectiveService::submit`] blocks
//!   until a slot frees up;
//! * [`CollectiveService::shutdown`] closes the queue, **drains** every
//!   already-accepted request, fulfils its handle and joins the batcher —
//!   no accepted request is ever dropped;
//! * [`ServiceStats`] ([`stats`]) exposes queue depth, batch formation
//!   (count, flush reasons, size histogram) and enqueue-to-complete
//!   latency (p50/p99/mean/max);
//! * the **admission layer** ([`admit`]) prices every submission with the
//!   paper's cost model *before* it is queued and enforces the configured
//!   policy: a per-request cycle ceiling, per-tenant token-bucket budgets
//!   (deferring, not dropping, over-budget tenants) and cost-aware batch
//!   formation (shortest-predicted-job-first, per-batch cycle caps). The
//!   default [`AdmissionConfig::disabled`] is simply the FIFO policy with no
//!   ceiling, cap or budget; the predictions still feed
//!   [`crate::executor::ExecutorStats::prediction`].
//!
//! ## Determinism
//!
//! Batching must not change results. Each item that will execute is
//! stamped with its noise-run index when it enters the batch accumulator
//! (its *admission* to execution order — deferral releases and queue pops
//! interleave there), rejected items consume none, and
//! [`crate::executor::Executor::run_stamped`] honours the stamp through any
//! cost-aware reordering. Responses are therefore byte-identical to a fresh
//! sequential [`crate::session::Session`] running the requests in admission
//! order, which the handles expose via [`AdmissionInfo::run_index`] — and,
//! under the default FIFO policy without budgets, admission order *is*
//! submission order, whatever the batch windows cut. The integration
//! proptests submit under randomised batch windows and verify exactly
//! this.
//!
//! ```
//! use std::time::Duration;
//! use wse_collectives::prelude::*;
//!
//! let service = CollectiveService::with_config(ServiceConfig {
//!     max_batch: 8,
//!     max_wait: Duration::from_micros(200),
//!     ..ServiceConfig::default()
//! });
//! let handles: Vec<ResponseHandle> = (0..16)
//!     .map(|i| {
//!         let request = CollectiveRequest::reduce(Topology::line(8), 32);
//!         let inputs = (0..8).map(|p| vec![(p + i) as f32; 32]).collect();
//!         service.submit(request, inputs).expect("service accepts while running")
//!     })
//!     .collect();
//! for handle in handles {
//!     let response = handle.wait();
//!     assert!(response.result.is_ok());
//!     assert!(response.latency > Duration::ZERO);
//! }
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 16);
//! assert!(stats.batches >= 2, "16 requests cannot fit one batch of 8");
//! ```

pub mod admit;
pub mod batcher;
pub mod handle;
pub mod queue;
pub mod stats;

pub use admit::{AdmissionConfig, AdmissionInfo, AdmissionOutcome, BatchOrder, TenantBudget};
pub use batcher::FlushReason;
pub use handle::{Response, ResponseHandle};
pub use stats::{LatencySummary, ServiceStats};

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::error::CollectiveError;
use crate::executor::{BatchItem, Executor, ExecutorConfig, ExecutorStats, StampedItem};
use crate::request::{CollectiveRequest, TenantId};

use admit::{AdmissionController, Charge, DeferError};
use batcher::Batcher;
use handle::ResponseSlot;
use queue::{Popped, SubmissionQueue, TryPushError};
use stats::StatsRecorder;

/// Configuration of a [`CollectiveService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The executor backing the service: machine model, fabric parameters /
    /// noise, plan-cache capacity, worker count, fabric-pool bound.
    pub executor: ExecutorConfig,
    /// Bound of the submission queue. A full queue backpressures:
    /// [`CollectiveService::try_submit`] fails with
    /// [`CollectiveError::QueueFull`], [`CollectiveService::submit`] blocks.
    pub queue_capacity: usize,
    /// Dispatch a batch as soon as it holds this many requests.
    pub max_batch: usize,
    /// Dispatch a partial batch this long after its oldest request arrived,
    /// even if it is not full — the tail-latency bound a lone request pays
    /// under light load.
    pub max_wait: Duration,
    /// Admission control and cost-aware scheduling policy (see [`admit`]).
    /// The default, [`AdmissionConfig::disabled`], cuts batches FIFO with
    /// no ceiling, cap or budget, and its responses carry no admission
    /// info.
    pub admission: AdmissionConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            executor: ExecutorConfig::default(),
            queue_capacity: 256,
            max_batch: 16,
            max_wait: Duration::from_micros(500),
            admission: AdmissionConfig::disabled(),
        }
    }
}

impl ServiceConfig {
    /// The same configuration with a different fabric engine (see
    /// [`crate::runner::RunConfig::with_engine`]). The default
    /// [`wse_fabric::EngineKind::Fast`] engine is byte-identical to the
    /// reference cycle-stepper, so this knob changes throughput only.
    pub fn with_engine(mut self, engine: wse_fabric::EngineKind) -> Self {
        self.executor = self.executor.with_engine(engine);
        self
    }
}

/// One accepted request travelling from submission to the executor, with
/// what admission resolved about it.
#[derive(Debug)]
struct Pending {
    request: CollectiveRequest,
    inputs: Vec<Vec<f32>>,
    slot: Arc<ResponseSlot>,
    submitted_at: Instant,
    tenant: TenantId,
    /// Predicted cycles (warm plan choice, else the pure cost model).
    /// `None` when no prediction was computable (malformed request).
    predicted: Option<u64>,
    /// Whether [`CollectiveRequest::check_submission`] accepted the
    /// request+inputs — i.e. whether execution will consume a noise-run
    /// index. Resolved plan-free at submit.
    valid: bool,
    /// The noise-run index, stamped when the item enters the batch
    /// accumulator (its admission to execution order), `None` until then
    /// and for invalid items forever.
    run_index: Option<u64>,
    /// Time spent in the deferred queue, set when a deferral is released.
    deferred_wait: Option<Duration>,
}

impl Pending {
    /// Cycles charged against the tenant's bucket: the prediction for items
    /// that will execute, zero for items that will be rejected at execution
    /// (they consume no fabric time).
    fn charge_cost(&self) -> u64 {
        if self.valid {
            self.predicted.unwrap_or(0)
        } else {
            0
        }
    }
}

/// State shared between submitters and the batcher thread.
#[derive(Debug)]
struct Shared {
    queue: SubmissionQueue<Pending>,
    executor: Executor,
    stats: StatsRecorder,
    max_batch: usize,
    max_wait: Duration,
    admission: AdmissionConfig,
    controller: AdmissionController<Pending>,
}

/// A continuously serving collective front-end. See the [module
/// docs](self) for the architecture.
///
/// The service is `Sync`: submitters on any number of threads share one
/// `&CollectiveService` (or an `Arc`). Dropping the service shuts it down
/// gracefully (drain, then join).
#[derive(Debug)]
pub struct CollectiveService {
    shared: Arc<Shared>,
    batcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Default for CollectiveService {
    fn default() -> Self {
        CollectiveService::new()
    }
}

impl CollectiveService {
    /// A service over the paper's WSE-2 machine with default batching.
    pub fn new() -> Self {
        CollectiveService::with_config(ServiceConfig::default())
    }

    /// A service with full configuration control. Spawns the batcher
    /// thread immediately; the service accepts requests as soon as this
    /// returns.
    pub fn with_config(config: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            queue: SubmissionQueue::new(config.queue_capacity),
            executor: Executor::with_config(config.executor),
            stats: StatsRecorder::default(),
            max_batch: config.max_batch.max(1),
            max_wait: config.max_wait,
            controller: AdmissionController::new(&config.admission),
            admission: config.admission,
        });
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("collective-batcher".into())
                .spawn(move || serve_loop(&shared))
                .expect("spawning the batcher thread")
        };
        CollectiveService { shared, batcher: Mutex::new(Some(batcher)) }
    }

    /// Submit a request, blocking while the queue is at capacity.
    ///
    /// Returns the completion handle immediately once the request is
    /// queued; fails with [`CollectiveError::ServiceStopped`] if the
    /// service has been shut down (including while blocked waiting for a
    /// slot). The request is accounted to [`TenantId::DEFAULT`] — see
    /// [`submit_as`](CollectiveService::submit_as).
    pub fn submit(
        &self,
        request: CollectiveRequest,
        inputs: Vec<Vec<f32>>,
    ) -> Result<ResponseHandle, CollectiveError> {
        self.submit_as(request, inputs, TenantId::DEFAULT)
    }

    /// Submit a request on behalf of `tenant`, blocking while the queue is
    /// at capacity.
    ///
    /// The request is priced by the cost model before it is queued (a warm
    /// plan's recorded choice when one is cached, the pure model otherwise —
    /// never a plan generation), and the admission policy applies:
    ///
    /// * priced above `max_predicted_cycles` →
    ///   [`CollectiveError::OverBudget`] immediately;
    /// * tenant bucket cannot afford it (or the tenant has earlier deferred
    ///   requests) → the request is **deferred**, the handle is still
    ///   returned, and the request runs once the budget refills;
    /// * deferred queue at capacity → [`CollectiveError::QueueFull`] with
    ///   the deferred capacity.
    pub fn submit_as(
        &self,
        request: CollectiveRequest,
        inputs: Vec<Vec<f32>>,
        tenant: TenantId,
    ) -> Result<ResponseHandle, CollectiveError> {
        self.enqueue(request, inputs, tenant, true)
    }

    /// Submit a request without blocking.
    ///
    /// Fails fast with [`CollectiveError::QueueFull`] when the queue is at
    /// capacity (the backpressure signal — retry later or fall back to the
    /// blocking [`submit`](CollectiveService::submit)), or
    /// [`CollectiveError::ServiceStopped`] after shutdown. The request is
    /// accounted to [`TenantId::DEFAULT`].
    pub fn try_submit(
        &self,
        request: CollectiveRequest,
        inputs: Vec<Vec<f32>>,
    ) -> Result<ResponseHandle, CollectiveError> {
        self.try_submit_as(request, inputs, TenantId::DEFAULT)
    }

    /// Submit a request on behalf of `tenant` without blocking. Admission
    /// behaves as in [`submit_as`](CollectiveService::submit_as); a charge
    /// rolled back by a full queue is refunded to the tenant's bucket.
    pub fn try_submit_as(
        &self,
        request: CollectiveRequest,
        inputs: Vec<Vec<f32>>,
        tenant: TenantId,
    ) -> Result<ResponseHandle, CollectiveError> {
        self.enqueue(request, inputs, tenant, false)
    }

    /// Admit a submission and charge its tenant, then queue it — blocking
    /// for a slot or failing fast on a full queue — or defer it.
    fn enqueue(
        &self,
        request: CollectiveRequest,
        inputs: Vec<Vec<f32>>,
        tenant: TenantId,
        block: bool,
    ) -> Result<ResponseHandle, CollectiveError> {
        let shared = &*self.shared;
        let (pending, handle) = self.admit(request, inputs, tenant)?;
        let cost = pending.charge_cost();
        if shared.controller.try_charge(tenant, cost, Instant::now()) == Charge::Defer {
            return self.defer(pending, handle, tenant, cost);
        }
        let pushed = if block {
            shared.queue.push(pending).map_err(TryPushError::Closed)
        } else {
            shared.queue.try_push(pending)
        };
        match pushed {
            Ok(()) => {
                shared.stats.record_submitted();
                Ok(handle)
            }
            Err(TryPushError::Full(_)) => {
                shared.controller.refund(tenant, cost, Instant::now());
                shared.stats.record_rejected();
                Err(CollectiveError::QueueFull { capacity: shared.queue.capacity() })
            }
            Err(TryPushError::Closed(_)) => Err(CollectiveError::ServiceStopped),
        }
    }

    /// Park a request the tenant cannot currently afford in the deferred
    /// queue, kicking the batcher so it recomputes its release deadline.
    fn defer(
        &self,
        pending: Pending,
        handle: ResponseHandle,
        tenant: TenantId,
        cost: u64,
    ) -> Result<ResponseHandle, CollectiveError> {
        match self.shared.controller.defer(tenant, cost, pending, Instant::now()) {
            Ok(()) => {
                self.shared.stats.record_submitted();
                self.shared.stats.record_deferred();
                self.shared.queue.kick();
                Ok(handle)
            }
            Err(DeferError::Overflow(_)) => {
                self.shared.stats.record_deferral_overflow();
                Err(CollectiveError::QueueFull {
                    capacity: self.shared.admission.deferred_capacity,
                })
            }
            Err(DeferError::Closed(_)) => Err(CollectiveError::ServiceStopped),
        }
    }

    /// Admit one submission: plan-free validity, the predicted cycles, and
    /// the per-request ceiling. The ceiling applies only to requests that
    /// would actually execute — invalid ones flow through to their handles
    /// so callers get the specific typed error rather than a budget
    /// rejection.
    fn admit(
        &self,
        request: CollectiveRequest,
        inputs: Vec<Vec<f32>>,
        tenant: TenantId,
    ) -> Result<(Pending, ResponseHandle), CollectiveError> {
        let executor = &self.shared.executor;
        let valid = request.check_submission(&inputs).is_ok();
        let predicted = executor
            .cached_plan(&request)
            .and_then(|plan| plan.predicted_cycles())
            .or_else(|| request.predicted_cycles(executor.machine()).ok())
            .map(|cycles| cycles.max(0.0).ceil() as u64);
        if let (true, Some(predicted), Some(limit)) =
            (valid, predicted, self.shared.admission.max_predicted_cycles)
        {
            if predicted > limit {
                self.shared.stats.record_over_budget();
                return Err(CollectiveError::OverBudget { predicted, limit });
            }
        }
        let (handle, slot) = ResponseHandle::new();
        let pending = Pending {
            request,
            inputs,
            slot,
            submitted_at: Instant::now(),
            tenant,
            predicted,
            valid,
            run_index: None,
            deferred_wait: None,
        };
        Ok((pending, handle))
    }

    /// A point-in-time snapshot of the service's counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats.snapshot(self.shared.queue.len())
    }

    /// Amortisation counters of the backing executor (plan cache, fabric
    /// pool).
    pub fn executor_stats(&self) -> ExecutorStats {
        self.shared.executor.stats()
    }

    /// Shut down gracefully: stop accepting, drain every already-accepted
    /// request (their handles are fulfilled), join the batcher thread and
    /// return the final statistics. Idempotent — later calls (and the
    /// implicit shutdown on drop) are no-ops.
    pub fn shutdown(&self) -> ServiceStats {
        self.shared.queue.close();
        let batcher = self.batcher.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).take();
        if let Some(batcher) = batcher {
            let _ = batcher.join();
        }
        self.stats()
    }
}

impl Drop for CollectiveService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The batcher thread: release affordable deferrals, stamp run indices as
/// items enter the accumulator, cut batches under the admission policy, and
/// sleep until the earlier of the batch deadline and the next budget
/// release — until the queue is closed and everything accepted is drained.
fn serve_loop(shared: &Shared) {
    let mut batcher: Batcher<Pending> = Batcher::with_policy(
        shared.max_batch,
        shared.max_wait,
        shared.admission.order,
        shared.admission.max_batch_cycles,
    );
    loop {
        // Budget releases first: a deferral released now was submitted
        // before anything still sitting in the queue behind it.
        ingest_releases(shared, &mut batcher);
        flush_and_ingest(shared, &mut batcher);
        let release = shared.controller.next_release_at(Instant::now());
        let deadline = batcher.deadline().into_iter().chain(release).min();
        match shared.queue.pop(deadline) {
            Popped::Item(pending) => {
                accumulate(shared, &mut batcher, pending);
                flush_and_ingest(shared, &mut batcher);
            }
            Popped::TimedOut => {
                // Deadline or kick: the loop head re-evaluates releases and
                // due flushes.
            }
            Popped::Closed => {
                // Shutdown: close the controller (no new deferrals can slip
                // in), force-drain every deferred item regardless of budget
                // — no accepted request is ever dropped — and flush.
                shared.controller.close();
                for (mut pending, wait) in shared.controller.drain(Instant::now()) {
                    pending.deferred_wait = Some(wait);
                    accumulate(shared, &mut batcher, pending);
                }
                while let Some((batch, reason)) = batcher.flush_remaining() {
                    dispatch(shared, batch, reason);
                }
                return;
            }
        }
    }
}

/// Move every budget deferral whose release is due into the accumulator.
fn ingest_releases(shared: &Shared, batcher: &mut Batcher<Pending>) {
    for (mut pending, wait) in shared.controller.release_due(Instant::now()) {
        pending.deferred_wait = Some(wait);
        accumulate(shared, batcher, pending);
    }
}

/// Flush every ready batch, ingesting work that arrived while each batch
/// executed before the next cut: newly due budget releases always, and —
/// under shortest-predicted-first — everything sitting in the submission
/// queue. Without that drain the accumulator's leftovers (the expensive
/// requests a cost-aware cut passed over) would execute back-to-back while
/// cheap requests pile up unseen in the queue, re-creating exactly the
/// head-of-line blocking the policy is meant to remove. A FIFO cut takes
/// the oldest items whatever else is accumulated, so under FIFO the backlog
/// stays in the bounded queue, where it backpressures submitters.
fn flush_and_ingest(shared: &Shared, batcher: &mut Batcher<Pending>) {
    let drain = shared.admission.order == BatchOrder::ShortestPredictedFirst;
    while let Some((batch, reason)) = batcher.flush_ready(Instant::now()) {
        dispatch(shared, batch, reason);
        ingest_releases(shared, batcher);
        while let Some(pending) = drain.then(|| shared.queue.try_pop()).flatten() {
            accumulate(shared, batcher, pending);
        }
    }
}

/// Admit one item to the batch accumulator: stamp its noise-run index (only
/// items that will execute consume one — this is the moment "admission
/// order" is defined) and record its predicted cost for the cut policy.
fn accumulate(shared: &Shared, batcher: &mut Batcher<Pending>, mut pending: Pending) {
    let mut cost = 0;
    if pending.valid {
        pending.run_index = Some(shared.executor.reserve_run_index());
        cost = pending.predicted.unwrap_or(0);
    }
    batcher.push_costed(pending, cost, Instant::now());
}

/// Dispatch one batch through the stamped executor entry point (the
/// pre-assigned run indices survive any reordering) and fulfil each handle
/// — with its admission info when a policy is set.
fn dispatch(shared: &Shared, batch: Vec<Pending>, reason: FlushReason) {
    shared.stats.record_batch(batch.len(), reason);
    let annotate = shared.admission.is_active();
    let mut slots = Vec::with_capacity(batch.len());
    let items: Vec<StampedItem> = batch
        .into_iter()
        .map(|pending| {
            let info = AdmissionInfo {
                outcome: match pending.deferred_wait {
                    Some(wait) => AdmissionOutcome::DeferredThenAdmitted { wait },
                    None => AdmissionOutcome::Admitted,
                },
                tenant: pending.tenant,
                predicted_cycles: pending.predicted,
                run_index: pending.run_index,
            };
            slots.push((pending.slot, pending.submitted_at, annotate.then_some(info)));
            StampedItem {
                item: BatchItem::new(pending.request, pending.inputs),
                run_index: pending.run_index.unwrap_or(0),
                predicted_cycles: if pending.valid { pending.predicted } else { None },
            }
        })
        .collect();
    let results = shared.executor.run_stamped(&items);
    let completed_at = Instant::now();
    for ((slot, submitted_at, admission), result) in slots.into_iter().zip(results) {
        let latency = completed_at.duration_since(submitted_at);
        shared.stats.record_completion(latency);
        slot.fulfil(Response { result, latency, admission });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Topology;
    use crate::session::SessionConfig;

    fn inputs(p: usize, b: usize) -> Vec<Vec<f32>> {
        (0..p).map(|i| (0..b).map(|j| ((i * 3 + j) % 17) as f32 * 0.5 - 4.0).collect()).collect()
    }

    fn reduce_request(p: u32, b: u32) -> CollectiveRequest {
        CollectiveRequest::reduce(Topology::line(p), b)
    }

    #[test]
    fn size_trigger_completes_without_waiting_for_the_deadline() {
        // max_wait is far longer than the test: completion can only come
        // from the size flush.
        let service = CollectiveService::with_config(ServiceConfig {
            max_batch: 2,
            max_wait: Duration::from_secs(60),
            ..ServiceConfig::default()
        });
        let a = service.submit(reduce_request(6, 8), inputs(6, 8)).unwrap();
        let b = service.submit(reduce_request(6, 8), inputs(6, 8)).unwrap();
        assert!(a.wait().result.is_ok());
        assert!(b.wait().result.is_ok());
        let stats = service.stats();
        assert_eq!(stats.size_flushes, 1);
        assert_eq!(stats.deadline_flushes, 0);
        assert_eq!(stats.batch_size_histogram, vec![0, 1]);
    }

    #[test]
    fn deadline_trigger_flushes_a_partial_batch() {
        // One request, a roomy batch: only the deadline can flush it.
        let service = CollectiveService::with_config(ServiceConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(1),
            ..ServiceConfig::default()
        });
        let handle = service.submit(reduce_request(5, 6), inputs(5, 6)).unwrap();
        let response = handle.wait();
        assert!(response.result.is_ok());
        assert!(response.latency >= Duration::from_millis(1), "paid at least the batch window");
        let stats = service.stats();
        assert_eq!(stats.deadline_flushes, 1);
        assert_eq!(stats.size_flushes, 0);
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let service = CollectiveService::with_config(ServiceConfig {
            max_batch: 64,
            max_wait: Duration::from_secs(60),
            ..ServiceConfig::default()
        });
        let handles: Vec<ResponseHandle> =
            (0..5).map(|_| service.submit(reduce_request(4, 4), inputs(4, 4)).unwrap()).collect();
        let stats = service.shutdown();
        assert_eq!(stats.completed, 5, "shutdown fulfils every accepted request");
        assert!(stats.shutdown_flushes >= 1);
        for handle in handles {
            assert!(handle.wait().result.is_ok());
        }
    }

    #[test]
    fn submit_after_shutdown_is_service_stopped() {
        let service = CollectiveService::new();
        service.shutdown();
        let err = service.submit(reduce_request(4, 4), inputs(4, 4)).unwrap_err();
        assert_eq!(err, CollectiveError::ServiceStopped);
        let err = service.try_submit(reduce_request(4, 4), inputs(4, 4)).unwrap_err();
        assert_eq!(err, CollectiveError::ServiceStopped);
        // Shutdown is idempotent.
        service.shutdown();
    }

    #[test]
    fn invalid_requests_are_rejected_through_their_handles() {
        let service = CollectiveService::with_config(ServiceConfig {
            max_wait: Duration::from_micros(100),
            ..ServiceConfig::default()
        });
        let bad_request = service.submit(reduce_request(4, 0), inputs(4, 4)).unwrap();
        let wrong_inputs = service.submit(reduce_request(4, 4), inputs(3, 4)).unwrap();
        assert!(matches!(bad_request.wait().result, Err(CollectiveError::InvalidRequest { .. })));
        assert!(matches!(
            wrong_inputs.wait().result,
            Err(CollectiveError::InputCountMismatch { .. })
        ));
        service.shutdown();
    }

    #[test]
    fn disabled_admission_keeps_responses_bare() {
        let service = CollectiveService::with_config(ServiceConfig {
            max_wait: Duration::from_micros(100),
            ..ServiceConfig::default()
        });
        let handle = service.submit(reduce_request(4, 8), inputs(4, 8)).unwrap();
        let response = handle.wait();
        assert!(response.result.is_ok());
        assert!(response.admission.is_none(), "no admission info without a policy");
        let stats = service.shutdown();
        assert_eq!((stats.over_budget, stats.deferred, stats.deferral_overflow), (0, 0, 0));
    }

    #[test]
    fn default_services_price_requests_for_the_drift_summary() {
        let service = CollectiveService::with_config(ServiceConfig {
            max_wait: Duration::from_micros(100),
            ..ServiceConfig::default()
        });
        let good = service.submit(reduce_request(4, 8), inputs(4, 8)).unwrap();
        let bad = service.submit(reduce_request(4, 8), inputs(3, 8)).unwrap();
        assert!(good.wait().result.is_ok());
        assert!(bad.wait().result.is_err());
        service.shutdown();
        let prediction = service.executor_stats().prediction;
        assert_eq!(prediction.samples, 1, "every executed request carries its price");
    }

    #[test]
    fn an_unbounded_batch_window_is_answered_by_the_shutdown_drain() {
        // Regression: `max_wait: Duration::MAX` overflowed the batch deadline
        // and panicked the batcher, after which every handle hung while
        // `submit` kept returning `Ok`.
        let service = CollectiveService::with_config(ServiceConfig {
            max_wait: Duration::MAX,
            ..ServiceConfig::default()
        });
        let first = service.submit(reduce_request(4, 8), inputs(4, 8)).unwrap();
        // Let the batcher pick the lone request up before the next arrives.
        std::thread::sleep(Duration::from_millis(20));
        let second = service.submit(reduce_request(5, 8), inputs(5, 8)).unwrap();
        assert!(first.wait_timeout(Duration::from_millis(50)).is_none(), "no deadline flush");
        let stats = service.shutdown();
        assert_eq!(stats.completed, 2);
        for handle in [first, second] {
            let response = handle.wait_timeout(Duration::from_secs(30)).expect("drained");
            assert!(response.result.is_ok());
        }
    }

    #[test]
    fn a_vanishing_refill_rate_blocks_only_its_own_tenant() {
        // Regression: a 1e-300 cycles/s refill overflowed the release-time
        // computation and killed the batcher, hanging the tenant's first
        // (admitted) request and every other tenant's too.
        let request = reduce_request(6, 16);
        let predicted =
            request.predicted_cycles(&wse_model::Machine::wse2()).unwrap().ceil() as u64;
        let tenant = TenantId(7);
        let service = CollectiveService::with_config(ServiceConfig {
            admission: AdmissionConfig::disabled()
                .with_tenant_budget(tenant, TenantBudget::new(predicted, 1e-300)),
            max_wait: Duration::from_micros(100),
            ..ServiceConfig::default()
        });
        let first = service.submit_as(request, inputs(6, 16), tenant).unwrap();
        let deferred = service.submit_as(request, inputs(6, 16), tenant).unwrap();
        let other = service.submit_as(request, inputs(6, 16), TenantId(8)).unwrap();
        for handle in [first, other] {
            let response = handle.wait_timeout(Duration::from_secs(30)).expect("not blocked");
            assert!(response.result.is_ok());
        }
        assert!(!deferred.is_ready(), "the refill never lands before shutdown");
        let stats = service.shutdown();
        assert_eq!((stats.deferred, stats.completed), (1, 3));
        assert!(deferred.wait().result.is_ok(), "shutdown drains the deferral");
    }

    #[test]
    fn over_budget_requests_are_rejected_at_submit() {
        let request = reduce_request(8, 64);
        let predicted =
            request.predicted_cycles(&wse_model::Machine::wse2()).unwrap().ceil() as u64;
        let service = CollectiveService::with_config(ServiceConfig {
            admission: AdmissionConfig::disabled().with_max_predicted_cycles(predicted - 1),
            max_wait: Duration::from_micros(100),
            ..ServiceConfig::default()
        });
        match service.submit(request, inputs(8, 64)) {
            Err(CollectiveError::OverBudget { predicted: got, limit }) => {
                assert_eq!(got, predicted, "the error reports the model's price");
                assert_eq!(limit, predicted - 1);
            }
            other => panic!("expected OverBudget, got {other:?}"),
        }
        // A request at the ceiling is admitted, and its response carries the
        // prediction that admitted it.
        let cheap = reduce_request(4, 8);
        let handle = service.submit(cheap, inputs(4, 8)).unwrap();
        let response = handle.wait();
        assert!(response.result.is_ok());
        let info = response.admission.expect("active admission annotates responses");
        assert_eq!(info.outcome, AdmissionOutcome::Admitted);
        assert_eq!(
            info.predicted_cycles,
            Some(cheap.predicted_cycles(&wse_model::Machine::wse2()).unwrap().ceil() as u64)
        );
        assert_eq!(info.run_index, Some(0), "first executed item claims index 0");
        let stats = service.shutdown();
        assert_eq!(stats.over_budget, 1);
        assert_eq!(stats.submitted, 1, "the rejected request never entered the queue");
    }

    #[test]
    fn invalid_requests_bypass_the_ceiling_for_their_typed_error() {
        // Ceiling of 1 cycle: every valid request is over budget, but an
        // invalid one still reaches its handle with the specific error.
        let service = CollectiveService::with_config(ServiceConfig {
            admission: AdmissionConfig::disabled().with_max_predicted_cycles(1),
            max_wait: Duration::from_micros(100),
            ..ServiceConfig::default()
        });
        let wrong_inputs = service.submit(reduce_request(4, 4), inputs(3, 4)).unwrap();
        let response = wrong_inputs.wait();
        assert!(matches!(response.result, Err(CollectiveError::InputCountMismatch { .. })));
        let info = response.admission.unwrap();
        assert_eq!(info.run_index, None, "rejected items consume no noise-run index");
        service.shutdown();
    }

    #[test]
    fn tenant_budgets_defer_until_the_shutdown_drain() {
        // Zero refill rate: the deferral can only be released by the
        // shutdown force-drain, which makes the test fully deterministic.
        let request = reduce_request(6, 16);
        let predicted =
            request.predicted_cycles(&wse_model::Machine::wse2()).unwrap().ceil() as u64;
        let tenant = TenantId(7);
        let service = CollectiveService::with_config(ServiceConfig {
            admission: AdmissionConfig::disabled()
                .with_tenant_budget(tenant, TenantBudget::new(predicted, 0.0))
                .with_deferred_capacity(1),
            max_wait: Duration::from_micros(100),
            ..ServiceConfig::default()
        });
        let first = service.submit_as(request, inputs(6, 16), tenant).unwrap();
        let second = service.submit_as(request, inputs(6, 16), tenant).unwrap();
        // The bucket is drained and the side queue full: overflow.
        match service.submit_as(request, inputs(6, 16), tenant) {
            Err(CollectiveError::QueueFull { capacity }) => assert_eq!(capacity, 1),
            other => panic!("expected QueueFull from deferral overflow, got {other:?}"),
        }
        // An unmetered tenant is unaffected by tenant 7's empty bucket.
        let other = service.submit_as(request, inputs(6, 16), TenantId(8)).unwrap();
        assert!(other.wait().result.is_ok());

        let stats = service.shutdown();
        assert_eq!(stats.deferred, 1);
        assert_eq!(stats.deferral_overflow, 1);
        assert_eq!(stats.completed, 3, "the deferred request drained, the overflowed never ran");
        assert!(first.wait().result.is_ok());
        let response = second.wait();
        assert!(response.result.is_ok(), "no accepted request is dropped at shutdown");
        assert!(matches!(
            response.admission.unwrap().outcome,
            AdmissionOutcome::DeferredThenAdmitted { .. }
        ));
    }

    #[test]
    fn sjf_service_still_matches_the_sequential_session() {
        // Cost-aware reordering with noise on: responses must match a
        // sequential session replayed in admission (run-index) order.
        let mut session_config = SessionConfig::default();
        session_config.run.noise = Some(wse_fabric::NoiseModel::new(0.15, 23));
        let traffic: Vec<(CollectiveRequest, Vec<Vec<f32>>)> = (0..8)
            .map(|i| {
                // Alternate small and large so SJF actually reorders.
                let (p, b) = if i % 2 == 0 { (4, 8) } else { (8, 32) };
                (reduce_request(p, b), inputs(p as usize, b as usize))
            })
            .collect();
        let service = CollectiveService::with_config(ServiceConfig {
            executor: ExecutorConfig {
                session: session_config.clone(),
                ..ExecutorConfig::default()
            },
            max_batch: 4,
            max_wait: Duration::from_micros(300),
            admission: AdmissionConfig::disabled().with_order(BatchOrder::ShortestPredictedFirst),
            ..ServiceConfig::default()
        });
        let handles: Vec<ResponseHandle> = traffic
            .iter()
            .map(|(request, data)| service.submit(*request, data.clone()).unwrap())
            .collect();
        let served: Vec<Response> = handles.into_iter().map(ResponseHandle::wait).collect();
        service.shutdown();

        let mut order: Vec<usize> = (0..served.len()).collect();
        order.sort_by_key(|&i| served[i].admission.unwrap().run_index.unwrap());
        let mut session = crate::session::Session::with_config(session_config);
        for &i in &order {
            let expected = session.run(&traffic[i].0, &traffic[i].1).unwrap();
            let got = served[i].result.as_ref().unwrap();
            assert_eq!(got.report, expected.report, "item {i} diverges from admission order");
            assert_eq!(got.outputs, expected.outputs);
        }
    }

    #[test]
    fn service_results_match_a_sequential_session() {
        // Deterministic smoke of the byte-identity contract (the proptests
        // cover randomised traffic): mixed requests, noise attached.
        let mut session_config = SessionConfig::default();
        session_config.run.noise = Some(wse_fabric::NoiseModel::new(0.1, 11));
        let requests: Vec<(CollectiveRequest, Vec<Vec<f32>>)> = (0..7)
            .map(|i| {
                let p = 4 + (i % 3) as u32;
                let b = 6 + (i % 2) as u32 * 4;
                (reduce_request(p, b), inputs(p as usize, b as usize))
            })
            .collect();

        let service = CollectiveService::with_config(ServiceConfig {
            executor: ExecutorConfig {
                session: session_config.clone(),
                ..ExecutorConfig::default()
            },
            max_batch: 3,
            max_wait: Duration::from_micros(200),
            ..ServiceConfig::default()
        });
        let handles: Vec<ResponseHandle> = requests
            .iter()
            .map(|(request, data)| service.submit(*request, data.clone()).unwrap())
            .collect();
        let served: Vec<Response> = handles.into_iter().map(ResponseHandle::wait).collect();
        service.shutdown();

        let mut session = crate::session::Session::with_config(session_config);
        for ((request, data), response) in requests.iter().zip(&served) {
            let expected = session.run(request, data).unwrap();
            let got = response.result.as_ref().unwrap();
            assert_eq!(got.report, expected.report);
            assert_eq!(got.outputs, expected.outputs);
        }
    }
}
