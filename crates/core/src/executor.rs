//! The execution core: every collective run in this crate goes through an
//! [`Executor`].
//!
//! The paper's workflow is *model → select → generate → run* (§1.3, §10).
//! The executor implements it once, for all three front-ends — the
//! sequential [`crate::session::Session`] (a one-worker executor), parallel
//! batches ([`Executor::run_batch`]) and the serving loop of
//! [`crate::serve::CollectiveService`] ([`Executor::run_stamped`]):
//!
//! * requests resolve through **one lock-guarded LRU plan cache**; plans
//!   are `Arc`ed, so a cache hit is clone-free and the lock is held only for
//!   the map lookup,
//! * execution happens on a **fabric pool**: [`Fabric`]s per grid shape,
//!   checked out (and reset) by worker threads and returned after each
//!   run — the mesh for a hot shape is allocated once, not per run,
//! * workers are plain scoped threads ([`std::thread::scope`]); no external
//!   runtime or channel crate is involved.
//!
//! ## Determinism
//!
//! Parallelism must not change results. Every run executes under a
//! noise-run index, and there is one rule for handing them out: an item
//! gets an index only if [`CollectiveRequest::check_submission`] accepts
//! it, and indices follow the order items enter execution. A batch
//! ([`Executor::run_batch`]) claims one contiguous block for its accepted
//! items — the `k`-th accepted item gets `base + k` — before any of them
//! runs; the serving loop claims indices one at a time as it admits items
//! ([`Executor::reserve_run_index`]) and executes them stamped. The
//! thermal-noise realization each item sees is therefore a pure function of
//! its *position among executed runs*, never of thread scheduling, and a
//! rejected item consumes no run index. A fresh executor thus produces
//! byte-identical outcomes — outputs *and* [`wse_fabric::RunReport`]s — to
//! a fresh session running the same batch in order, *including* batches
//! containing rejected items.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use wse_fabric::geometry::GridDim;
use wse_fabric::{Fabric, FabricParams};
use wse_model::Machine;

use crate::cache::SharedPlanCache;
use crate::error::CollectiveError;
use crate::request::{CollectiveRequest, ResolvedPlan};
use crate::runner::{check_inputs, execute_on, RunOutcome};
use crate::session::SessionConfig;

/// One request of a batch: what to run and its per-data-PE input vectors.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The collective to execute.
    pub request: CollectiveRequest,
    /// One vector per data PE of the resolved plan, in plan order.
    pub inputs: Vec<Vec<f32>>,
}

impl BatchItem {
    /// Bundle a request with its inputs.
    pub fn new(request: CollectiveRequest, inputs: Vec<Vec<f32>>) -> Self {
        BatchItem { request, inputs }
    }
}

/// A batch item whose noise-run index was assigned by the caller — the
/// execution form used by the admission-controlled serving path, where
/// indices are stamped at *admission* time so cost-aware reordering cannot
/// change which thermal-noise realization an item sees.
#[derive(Debug, Clone)]
pub struct StampedItem {
    /// The request and its inputs.
    pub item: BatchItem,
    /// The noise-run index this item executes under (see
    /// [`Executor::reserve_run_index`]). Ignored for items that fail
    /// preparation — an invalid item never touches a fabric.
    pub run_index: u64,
    /// The cost model's predicted cycles stamped at admission, if the
    /// admission layer priced this item; measured against the run's actual
    /// cycles to feed [`PredictionSummary`].
    pub predicted_cycles: Option<u64>,
}

/// Configuration of an [`Executor`].
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Machine model, fabric parameters / noise, and plan-cache capacity —
    /// the same knobs a [`crate::session::Session`] takes, with the same
    /// meaning.
    pub session: SessionConfig,
    /// Worker threads per batch. `None` uses the host's available
    /// parallelism. A batch never spawns more workers than it has items.
    pub workers: Option<NonZeroUsize>,
    /// Upper bound on *idle* pooled fabrics kept per grid shape; fabrics
    /// checked in beyond it are dropped. Bounds pool memory when traffic
    /// shifts between shapes.
    pub max_pooled_per_shape: usize,
    /// Upper bound on the number of grid shapes holding idle fabrics. When a
    /// check-in would exceed it, the least-recently-used shapes are evicted
    /// wholesale (their idle fabrics dropped, counted in
    /// [`ExecutorStats::pool_shape_evictions`]). Bounds pool memory when
    /// traffic moves on from old shapes entirely.
    pub max_pooled_shapes: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            session: SessionConfig::default(),
            workers: None,
            max_pooled_per_shape: 64,
            max_pooled_shapes: 16,
        }
    }
}

impl ExecutorConfig {
    /// The same configuration with a different fabric engine (see
    /// [`crate::runner::RunConfig::with_engine`]).
    pub fn with_engine(mut self, engine: wse_fabric::EngineKind) -> Self {
        self.session = self.session.with_engine(engine);
        self
    }
}

/// Counters describing how much work an executor amortised — also what
/// [`crate::session::Session::stats`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecutorStats {
    /// Requests answered from the shared plan cache.
    pub plan_hits: u64,
    /// Requests that had to generate a plan.
    pub plan_misses: u64,
    /// Plans evicted to respect the cache capacity.
    pub plan_evictions: u64,
    /// Collective executions performed.
    pub runs: u64,
    /// Runs that reused a pooled fabric.
    pub fabric_reuses: u64,
    /// Fabrics allocated for new checkouts.
    pub fabrics_created: u64,
    /// Cold grid shapes reclaimed from the fabric pool (LRU eviction).
    pub pool_shape_evictions: u64,
    /// Batches executed (every [`crate::session::Session::run`] call is a
    /// batch of one).
    pub batches: u64,
    /// How well the cost model's predictions track measured runtimes, over
    /// the runs that carried a prediction stamp ([`Executor::run_stamped`]).
    pub prediction: PredictionSummary,
}

/// Predicted-vs-measured cycle accounting: how far the admission layer's
/// cost-model predictions drift from the cycles the fabric actually took.
///
/// Fed by [`Executor::run_stamped`] from each run's measured
/// [`wse_fabric::RunReport`] cycles against the prediction stamped at
/// admission. Every [`crate::serve::CollectiveService`] prices its valid
/// requests at submit, so a service's executor feeds it whatever its
/// admission policy; sessions and plain batches carry no predictions and
/// report zero samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PredictionSummary {
    /// Stamped runs accounted so far.
    pub samples: u64,
    /// Mean of `predicted − measured` in cycles over all samples: positive
    /// when the model over-prices work, negative when it under-prices.
    pub mean_signed_error_cycles: f64,
    /// 99th-percentile (nearest-rank) of `|predicted − measured| /
    /// measured`, over a sliding window of the most recent
    /// [`PREDICTION_WINDOW`] samples.
    pub p99_abs_relative_error: f64,
}

/// Lock-free accumulators behind [`ExecutorStats`]: workers bump these
/// concurrently, `snapshot` reads them relaxed (counters are monotone and
/// independent; a snapshot taken between two bumps is still a valid state).
#[derive(Debug, Default)]
struct AtomicStats {
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    plan_evictions: AtomicU64,
    runs: AtomicU64,
    fabric_reuses: AtomicU64,
    fabrics_created: AtomicU64,
    pool_shape_evictions: AtomicU64,
    batches: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> ExecutorStats {
        ExecutorStats {
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            plan_evictions: self.plan_evictions.load(Ordering::Relaxed),
            runs: self.runs.load(Ordering::Relaxed),
            fabric_reuses: self.fabric_reuses.load(Ordering::Relaxed),
            fabrics_created: self.fabrics_created.load(Ordering::Relaxed),
            pool_shape_evictions: self.pool_shape_evictions.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            prediction: PredictionSummary::default(),
        }
    }
}

/// Sliding-window size for the p99 relative-error percentile — the same
/// bound the serving latency histogram uses.
pub const PREDICTION_WINDOW: usize = 8192;

/// Accumulator behind [`PredictionSummary`]: a running signed-error sum for
/// the mean plus a bounded ring of recent relative errors for the
/// percentile. Mutex-guarded — stamped runs record one sample each, so the
/// critical section is two float writes, never a sort.
#[derive(Debug, Default)]
struct PredictionState {
    samples: u64,
    signed_error_sum: f64,
    rel_window: Vec<f64>,
    next: usize,
}

impl PredictionState {
    fn record(&mut self, predicted: u64, measured: u64) {
        self.samples += 1;
        self.signed_error_sum += predicted as f64 - measured as f64;
        // Relative error against the measured cycles, clamping the
        // denominator so a (theoretical) zero-cycle run cannot poison the
        // window with a NaN/inf.
        let rel = (predicted as f64 - measured as f64).abs() / (measured.max(1) as f64);
        if self.rel_window.len() < PREDICTION_WINDOW {
            self.rel_window.push(rel);
        } else {
            self.rel_window[self.next] = rel;
            self.next = (self.next + 1) % PREDICTION_WINDOW;
        }
    }

    fn summary(&self) -> PredictionSummary {
        if self.samples == 0 {
            return PredictionSummary::default();
        }
        let mut sorted = self.rel_window.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        // Nearest-rank p99, mirroring the serving latency percentiles.
        let rank = ((sorted.len() as f64 * 0.99).ceil() as usize).clamp(1, sorted.len());
        PredictionSummary {
            samples: self.samples,
            mean_signed_error_cycles: self.signed_error_sum / self.samples as f64,
            p99_abs_relative_error: sorted[rank - 1],
        }
    }
}

/// The idle fabrics of one grid shape, with a recency stamp for LRU
/// reclamation.
#[derive(Debug, Default)]
struct ShapeEntry {
    fabrics: Vec<Fabric>,
    /// Value of the pool's tick counter at this shape's last checkout or
    /// check-in. Higher = more recently used.
    last_used: u64,
}

/// A pool of idle fabrics keyed by grid shape.
///
/// A pooled fabric still holds its last run; checkout [`Fabric::reset`]s it,
/// so every checkout is immediately installable. Resetting right before the
/// run, rather than at check-in, also leaves the mesh warm in the CPU
/// caches when the run starts — which matters when traffic cycles through
/// several large shapes.
///
/// Memory is bounded along two axes: at most `max_per_shape` idle fabrics
/// per shape (excess check-ins are dropped), and at most `max_shapes` shapes
/// holding idle fabrics — beyond that, whole least-recently-used shapes are
/// reclaimed, so traffic that moved on from a shape does not pin its meshes
/// forever. A shape entry exists only while it holds idle fabrics.
#[derive(Debug, Default)]
struct PoolState {
    shapes: HashMap<GridDim, ShapeEntry>,
    tick: u64,
}

#[derive(Debug, Default)]
struct FabricPool {
    idle: Mutex<PoolState>,
}

impl FabricPool {
    /// Take an idle fabric of the given shape, or build one. Returns the
    /// fabric and whether it came from the pool.
    fn checkout(&self, dim: GridDim, params: FabricParams) -> (Fabric, bool) {
        let pooled = {
            let mut state = self.lock();
            state.tick += 1;
            let tick = state.tick;
            match state.shapes.get_mut(&dim) {
                Some(entry) => {
                    entry.last_used = tick;
                    let fabric = entry.fabrics.pop();
                    if entry.fabrics.is_empty() {
                        state.shapes.remove(&dim);
                    }
                    fabric
                }
                None => None,
            }
        };
        match pooled {
            Some(mut fabric) => {
                fabric.reset();
                (fabric, true)
            }
            None => (Fabric::new(dim, params), false),
        }
    }

    /// Return a fabric to the pool (or drop it if the shape's idle list is
    /// already at `max_per_shape`). If pooling it pushes the number of shapes
    /// past `max_shapes`, least-recently-used shapes are reclaimed wholesale;
    /// the number of shapes evicted is returned.
    fn check_in(&self, fabric: Fabric, max_per_shape: usize, max_shapes: usize) -> u64 {
        if max_per_shape == 0 || max_shapes == 0 {
            return 0;
        }
        let dim = fabric.dim();
        let mut state = self.lock();
        state.tick += 1;
        let tick = state.tick;
        let entry = state.shapes.entry(dim).or_default();
        entry.last_used = tick;
        if entry.fabrics.len() < max_per_shape {
            entry.fabrics.push(fabric);
        }
        let mut evicted = 0;
        while state.shapes.len() > max_shapes {
            // The just-used shape carries the newest stamp, so the minimum is
            // always some other (colder) shape.
            let coldest = state
                .shapes
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(dim, _)| *dim)
                .expect("len > max_shapes >= 1 implies a nonempty map");
            state.shapes.remove(&coldest);
            evicted += 1;
        }
        evicted
    }

    fn pooled(&self) -> usize {
        self.lock().shapes.values().map(|entry| entry.fabrics.len()).sum()
    }

    fn pooled_shapes(&self) -> usize {
        self.lock().shapes.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.idle.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The thread-safe execution core behind every front-end of this crate.
///
/// All methods take `&self`; an `Executor` can be shared across threads
/// (e.g. behind an `Arc`) and keeps amortising across batches — the plan
/// cache and fabric pool persist for its lifetime.
///
/// ```
/// use wse_collectives::prelude::*;
///
/// let executor = Executor::new();
/// let batch: Vec<BatchItem> = (0..8)
///     .map(|i| {
///         let request = CollectiveRequest::reduce(Topology::line(8), 32);
///         let inputs = (0..8).map(|p| vec![(p + i) as f32; 32]).collect();
///         BatchItem::new(request, inputs)
///     })
///     .collect();
/// let results = executor.run_batch(&batch);
/// assert!(results.iter().all(Result::is_ok));
/// // Eight runs served by one cached plan. (`plan_misses` is not asserted
/// // here: workers racing on a previously unseen request may generate the
/// // plan more than once — see the shared-cache docs — so only the cache
/// // contents are deterministic under the default worker count.)
/// assert_eq!(executor.stats().runs, 8);
/// assert_eq!(executor.cached_plans(), 1);
/// ```
#[derive(Debug)]
pub struct Executor {
    config: ExecutorConfig,
    cache: SharedPlanCache,
    pool: FabricPool,
    stats: AtomicStats,
    prediction: Mutex<PredictionState>,
    run_counter: AtomicU64,
}

/// One item on its way through [`Executor::run_jobs`], borrowed from the
/// caller's batch (inputs are never cloned).
struct Job<'a> {
    request: &'a CollectiveRequest,
    inputs: &'a [Vec<f32>],
    run_index: u64,
    predicted_cycles: Option<u64>,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

impl Executor {
    /// An executor targeting the paper's WSE-2 machine with default
    /// settings.
    pub fn new() -> Self {
        Executor::with_config(ExecutorConfig::default())
    }

    /// An executor reusing a session's configuration (machine, fabric
    /// parameters, noise, plan-cache capacity).
    pub fn with_session_config(session: SessionConfig) -> Self {
        Executor::with_config(ExecutorConfig { session, ..ExecutorConfig::default() })
    }

    /// An executor with full configuration control.
    pub fn with_config(config: ExecutorConfig) -> Self {
        Executor {
            config,
            cache: SharedPlanCache::default(),
            pool: FabricPool::default(),
            stats: AtomicStats::default(),
            prediction: Mutex::new(PredictionState::default()),
            run_counter: AtomicU64::new(0),
        }
    }

    /// The machine model requests are resolved against.
    pub fn machine(&self) -> &Machine {
        &self.config.session.machine
    }

    /// Amortisation counters accumulated so far.
    pub fn stats(&self) -> ExecutorStats {
        let mut stats = self.stats.snapshot();
        stats.prediction = self.lock_prediction().summary();
        stats
    }

    /// Number of plans currently in the shared cache.
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// Number of idle fabrics currently pooled across all shapes.
    pub fn pooled_fabrics(&self) -> usize {
        self.pool.pooled()
    }

    /// Number of grid shapes currently holding idle pooled fabrics.
    pub fn pooled_shapes(&self) -> usize {
        self.pool.pooled_shapes()
    }

    /// Drop every cached plan (the fabric pool and statistics are kept).
    pub fn clear_plan_cache(&self) {
        self.cache.clear();
    }

    /// Resolve a request into an executable plan through the shared cache.
    ///
    /// The first resolution of a distinct request generates the plan
    /// (`plan_misses`); later resolutions return the cached plan unchanged
    /// (`plan_hits`). The returned [`Arc`] stays valid even if the entry is
    /// later evicted.
    pub fn plan(&self, request: &CollectiveRequest) -> Result<Arc<ResolvedPlan>, CollectiveError> {
        let (plan, outcome) = self.cache.resolve(
            request,
            &self.config.session.machine,
            self.config.session.plan_cache_capacity,
        )?;
        if outcome.hit {
            self.stats.plan_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.plan_misses.fetch_add(1, Ordering::Relaxed);
            self.stats.plan_evictions.fetch_add(outcome.evictions, Ordering::Relaxed);
        }
        Ok(plan)
    }

    /// Look up a request's plan in the shared cache **without generating on
    /// a miss** (and without touching LRU recency or the hit/miss counters).
    ///
    /// This is the admission controller's prediction source on the submit
    /// path: a warm plan's recorded model [`wse_model::Choice`] prices the
    /// request for free, and a cold request falls back to the pure cost
    /// model ([`CollectiveRequest::predicted_cycles`]) — plan generation is
    /// never pulled onto the submit path.
    pub fn cached_plan(&self, request: &CollectiveRequest) -> Option<Arc<ResolvedPlan>> {
        self.cache.peek(request)
    }

    /// Claim the next noise-run index. The serving loop stamps each item
    /// [`CollectiveRequest::check_submission`] accepts as it is admitted
    /// (then executes it via [`Executor::run_stamped`]);
    /// [`Executor::run_batch`] claims indices from the same counter, so the
    /// two entry points can share an executor without replaying noise
    /// streams.
    pub fn reserve_run_index(&self) -> u64 {
        self.run_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Execute a batch whose noise-run indices (and optional cost
    /// predictions) were stamped by the caller, returning one result per
    /// item, in item order.
    ///
    /// The cost-aware scheduler reorders items between admission and
    /// execution; because each item carries its own index, reordering (or
    /// splitting a window into several batches) never changes the noise
    /// realization an item sees. Successful runs with a stamped prediction
    /// feed [`ExecutorStats::prediction`].
    pub fn run_stamped(&self, batch: &[StampedItem]) -> Vec<Result<RunOutcome, CollectiveError>> {
        let jobs: Vec<Job> = batch
            .iter()
            .map(|stamped| Job {
                request: &stamped.item.request,
                inputs: &stamped.item.inputs,
                run_index: stamped.run_index,
                predicted_cycles: stamped.predicted_cycles,
            })
            .collect();
        self.run_jobs(&jobs)
    }

    /// Execute a batch of independent requests in parallel, returning one
    /// result per item, in item order.
    ///
    /// Items are claimed by worker threads off a shared counter, so a slow
    /// item never leaves workers idle while others wait. Failures are
    /// per-item: an invalid request occupies its slot with a typed
    /// [`CollectiveError`] and does not affect its neighbours — and it does
    /// not consume a noise-run index, so mixed-validity batches stay
    /// byte-identical to a sequential [`crate::session::Session`] (see the
    /// module docs).
    pub fn run_batch(&self, batch: &[BatchItem]) -> Vec<Result<RunOutcome, CollectiveError>> {
        let items: Vec<(&CollectiveRequest, &[Vec<f32>])> =
            batch.iter().map(|item| (&item.request, item.inputs.as_slice())).collect();
        self.run_in_order(&items)
    }

    /// Run borrowed items in order under one contiguous block of noise-run
    /// indices: the `k`-th item [`CollectiveRequest::check_submission`]
    /// accepts runs under `base + k`, and rejected items claim none.
    pub(crate) fn run_in_order(
        &self,
        items: &[(&CollectiveRequest, &[Vec<f32>])],
    ) -> Vec<Result<RunOutcome, CollectiveError>> {
        let accepted: Vec<bool> = items
            .iter()
            .map(|(request, inputs)| request.check_submission(inputs).is_ok())
            .collect();
        let claimed = accepted.iter().filter(|&&ok| ok).count() as u64;
        let mut next = self.run_counter.fetch_add(claimed, Ordering::Relaxed);
        let jobs: Vec<Job> = items
            .iter()
            .zip(accepted)
            .map(|(&(request, inputs), ok)| {
                let run_index = next;
                next += u64::from(ok);
                Job { request, inputs, run_index, predicted_cycles: None }
            })
            .collect();
        self.run_jobs(&jobs)
    }

    /// The one execution routine: resolve, validate and run every job on
    /// the worker pool, then account the stamped predictions.
    fn run_jobs(&self, jobs: &[Job]) -> Vec<Result<RunOutcome, CollectiveError>> {
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        let results = parallel_map(jobs.len(), self.worker_count(jobs.len()), |i| {
            let job = &jobs[i];
            let resolved = self.plan(job.request)?;
            check_inputs(&resolved.plan, job.inputs)?;
            self.execute_one(&resolved, job.inputs, job.run_index)
        });
        for (job, result) in jobs.iter().zip(&results) {
            if let (Some(predicted), Ok(outcome)) = (job.predicted_cycles, result) {
                self.lock_prediction().record(predicted, outcome.runtime_cycles());
            }
        }
        results
    }

    fn lock_prediction(&self) -> std::sync::MutexGuard<'_, PredictionState> {
        self.prediction.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Execute an already-validated item with an explicit noise-run index.
    fn execute_one(
        &self,
        resolved: &ResolvedPlan,
        inputs: &[Vec<f32>],
        run_index: u64,
    ) -> Result<RunOutcome, CollectiveError> {
        let run = &self.config.session.run;
        let (mut fabric, reused) = self.pool.checkout(resolved.plan.dim(), run.params);
        if reused {
            self.stats.fabric_reuses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.fabrics_created.fetch_add(1, Ordering::Relaxed);
        }
        fabric.set_noise(run.noise.as_ref().map(|noise| noise.for_run(run_index)));
        self.stats.runs.fetch_add(1, Ordering::Relaxed);
        let result = execute_on(&mut fabric, &resolved.plan, inputs);
        let evicted = self.pool.check_in(
            fabric,
            self.config.max_pooled_per_shape,
            self.config.max_pooled_shapes,
        );
        if evicted > 0 {
            self.stats.pool_shape_evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        result
    }

    fn worker_count(&self, items: usize) -> usize {
        let configured = match self.config.workers {
            Some(workers) => workers.get(),
            None => std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1),
        };
        configured.min(items).max(1)
    }
}

/// Evaluate `f(0..n)` on a pool of scoped worker threads (or inline when a
/// single worker suffices), returning results in index order. Indices are
/// claimed off a shared counter, so a slow item never leaves workers idle.
fn parallel_map<R, F>(n: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send + Sync,
    F: Fn(usize) -> R + Sync,
{
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let results: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let _ = results[i].set(f(i));
            });
        }
    });
    results
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index was claimed by a worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::ReducePattern;
    use crate::request::{Schedule, Topology};
    use crate::session::Session;
    use wse_fabric::program::ReduceOp;
    use wse_fabric::NoiseModel;

    fn inputs(p: usize, b: usize) -> Vec<Vec<f32>> {
        (0..p).map(|i| (0..b).map(|j| ((i * 5 + j) % 11) as f32 * 0.25 - 1.0).collect()).collect()
    }

    fn mixed_batch() -> Vec<BatchItem> {
        let mut batch = Vec::new();
        for round in 0..2 {
            batch.push(BatchItem::new(
                CollectiveRequest::reduce(Topology::line(12), 32 + round),
                inputs(12, 32 + round as usize),
            ));
            batch.push(BatchItem::new(
                CollectiveRequest::allreduce(Topology::line(8), 24),
                inputs(8, 24),
            ));
            batch.push(BatchItem::new(
                CollectiveRequest::reduce(Topology::grid(4, 3), 16)
                    .with_schedule(Schedule::Reduce2d(crate::reduce::Reduce2dPattern::Snake)),
                inputs(12, 16),
            ));
            batch.push(BatchItem::new(
                CollectiveRequest::broadcast(Topology::line(9), 12),
                inputs(1, 12),
            ));
            batch.push(BatchItem::new(
                CollectiveRequest::reduce(Topology::line(12), 32 + round)
                    .with_op(ReduceOp::Max)
                    .with_schedule(Schedule::Reduce1d(ReducePattern::Tree)),
                inputs(12, 32 + round as usize),
            ));
        }
        batch
    }

    fn assert_equivalent(
        parallel: &[Result<RunOutcome, CollectiveError>],
        sequential: &[Result<RunOutcome, CollectiveError>],
    ) {
        assert_eq!(parallel.len(), sequential.len());
        for (i, (p, s)) in parallel.iter().zip(sequential).enumerate() {
            match (p, s) {
                (Ok(p), Ok(s)) => {
                    assert_eq!(p.report, s.report, "item {i}: reports diverge");
                    assert_eq!(p.outputs, s.outputs, "item {i}: outputs diverge");
                }
                (Err(p), Err(s)) => assert_eq!(p, s, "item {i}: errors diverge"),
                _ => panic!("item {i}: one path failed, the other did not"),
            }
        }
    }

    #[test]
    fn batch_results_are_byte_identical_to_a_sequential_session() {
        let batch = mixed_batch();
        let executor = Executor::new();
        let parallel = executor.run_batch(&batch);
        let sequential = Session::new().run_batch(&batch);
        assert_equivalent(&parallel, &sequential);
    }

    #[test]
    fn noisy_batches_stay_equivalent_and_decorrelated() {
        let mut config = SessionConfig::default();
        config.run.noise = Some(NoiseModel::new(0.1, 21));
        let batch: Vec<BatchItem> = (0..6)
            .map(|_| {
                BatchItem::new(CollectiveRequest::reduce(Topology::line(8), 48), inputs(8, 48))
            })
            .collect();

        let executor = Executor::with_session_config(config.clone());
        let parallel = executor.run_batch(&batch);
        let sequential = Session::with_config(config).run_batch(&batch);
        assert_equivalent(&parallel, &sequential);

        // Same request, different batch positions: different realizations.
        let a = parallel[0].as_ref().unwrap();
        let b = parallel[1].as_ref().unwrap();
        assert_ne!(
            (a.report.noop_cycles, &a.report.pe_finish),
            (b.report.noop_cycles, &b.report.pe_finish),
            "items of one batch must not replay one noise stream"
        );
    }

    #[test]
    fn run_indices_continue_across_batches() {
        // Two batches on one executor must see the same noise sequence as
        // one session running all items back to back.
        let mut config = SessionConfig::default();
        config.run.noise = Some(NoiseModel::new(0.08, 5));
        let batch: Vec<BatchItem> = (0..4)
            .map(|_| {
                BatchItem::new(CollectiveRequest::reduce(Topology::line(6), 20), inputs(6, 20))
            })
            .collect();
        let executor = Executor::with_session_config(config.clone());
        let mut parallel = executor.run_batch(&batch);
        parallel.extend(executor.run_batch(&batch));
        let mut session = Session::with_config(config);
        let mut sequential = session.run_batch(&batch);
        sequential.extend(session.run_batch(&batch));
        assert_equivalent(&parallel, &sequential);
    }

    #[test]
    fn plans_are_shared_and_fabrics_are_pooled() {
        let executor = Executor::with_config(ExecutorConfig {
            workers: Some(NonZeroUsize::new(1).unwrap()),
            ..ExecutorConfig::default()
        });
        let batch: Vec<BatchItem> = (0..6)
            .map(|_| {
                BatchItem::new(CollectiveRequest::reduce(Topology::line(10), 16), inputs(10, 16))
            })
            .collect();
        let results = executor.run_batch(&batch);
        assert!(results.iter().all(Result::is_ok));
        let stats = executor.stats();
        assert_eq!(stats.plan_misses, 1, "one plan generation for six identical requests");
        assert_eq!(stats.plan_hits, 5);
        assert_eq!(stats.runs, 6);
        assert_eq!(stats.fabrics_created, 1, "a single worker reuses one pooled fabric");
        assert_eq!(stats.fabric_reuses, 5);
        assert_eq!(stats.batches, 1);
        assert_eq!(executor.cached_plans(), 1);
        assert_eq!(executor.pooled_fabrics(), 1);
    }

    #[test]
    fn pool_bound_caps_idle_fabrics() {
        let executor = Executor::with_config(ExecutorConfig {
            max_pooled_per_shape: 1,
            ..ExecutorConfig::default()
        });
        let batch: Vec<BatchItem> = (0..8)
            .map(|_| BatchItem::new(CollectiveRequest::reduce(Topology::line(6), 8), inputs(6, 8)))
            .collect();
        executor.run_batch(&batch);
        assert!(executor.pooled_fabrics() <= 1);
    }

    #[test]
    fn cold_shapes_are_reclaimed_lru() {
        // One worker, shape cap of 2: run shapes A, B, refresh A, then C.
        // B is the least recently used shape and must be the one evicted.
        let executor = Executor::with_config(ExecutorConfig {
            workers: Some(NonZeroUsize::new(1).unwrap()),
            max_pooled_shapes: 2,
            ..ExecutorConfig::default()
        });
        let item = |pes: u32| {
            BatchItem::new(
                CollectiveRequest::reduce(Topology::line(pes), 8),
                inputs(pes as usize, 8),
            )
        };
        executor.run_batch(&[item(4)]); // A
        executor.run_batch(&[item(5)]); // B
        executor.run_batch(&[item(4)]); // refresh A
        executor.run_batch(&[item(6)]); // C -> evicts B
        assert_eq!(executor.pooled_shapes(), 2);
        assert_eq!(executor.stats().pool_shape_evictions, 1);

        // A survived (reuse), B did not (fresh allocation).
        let created = executor.stats().fabrics_created;
        executor.run_batch(&[item(4)]);
        assert_eq!(executor.stats().fabrics_created, created, "hot shape A was kept");
        executor.run_batch(&[item(5)]);
        assert_eq!(executor.stats().fabrics_created, created + 1, "cold shape B was reclaimed");
    }

    #[test]
    fn reference_engine_batches_match_the_fast_default() {
        // EngineKind threads through ExecutorConfig; both engines must give
        // byte-identical batch results.
        let batch = mixed_batch();
        let fast = Executor::new().run_batch(&batch);
        let reference = Executor::with_config(
            ExecutorConfig::default().with_engine(wse_fabric::EngineKind::Reference),
        )
        .run_batch(&batch);
        assert_equivalent(&fast, &reference);
    }

    #[test]
    fn failures_are_per_item() {
        let executor = Executor::new();
        let good = BatchItem::new(CollectiveRequest::reduce(Topology::line(4), 8), inputs(4, 8));
        let wrong_count =
            BatchItem::new(CollectiveRequest::reduce(Topology::line(4), 8), inputs(3, 8));
        let bad_request =
            BatchItem::new(CollectiveRequest::reduce(Topology::line(4), 0), inputs(4, 8));
        let results = executor.run_batch(&[good.clone(), wrong_count, bad_request, good]);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(CollectiveError::InputCountMismatch { .. })));
        assert!(matches!(results[2], Err(CollectiveError::InvalidRequest { .. })));
        assert!(results[3].is_ok());
        assert_eq!(executor.stats().runs, 2, "rejected items never touch a fabric");
    }

    #[test]
    fn rejected_items_do_not_consume_noise_run_indices() {
        // Regression for the PR 4 divergence: a rejected item used to
        // advance the executor's run counter but not a session's, so noisy
        // mixed-validity batches diverged from the first rejection onwards.
        let mut config = SessionConfig::default();
        config.run.noise = Some(NoiseModel::new(0.12, 33));
        let good = BatchItem::new(CollectiveRequest::reduce(Topology::line(7), 24), inputs(7, 24));
        let wrong_count =
            BatchItem::new(CollectiveRequest::reduce(Topology::line(7), 24), inputs(5, 24));
        let bad_request =
            BatchItem::new(CollectiveRequest::reduce(Topology::line(7), 0), inputs(7, 24));
        let batch =
            vec![good.clone(), wrong_count.clone(), good.clone(), bad_request, good.clone()];

        let executor = Executor::with_session_config(config.clone());
        let parallel = executor.run_batch(&batch);
        let sequential = Session::with_config(config).run_batch(&batch);
        assert_equivalent(&parallel, &sequential);
        assert_eq!(executor.stats().runs, 3, "only the valid items execute");

        // The next batch continues the executed-run numbering (3, 4, ...).
        let follow_up = executor.run_batch(&[good.clone(), good]);
        assert!(follow_up.iter().all(Result::is_ok));
        assert_eq!(executor.stats().runs, 5);
    }

    #[test]
    fn stamped_batches_match_run_batch_under_any_execution_order() {
        // The same items executed via run_stamped — in a *different* order,
        // but with the indices run_batch would have assigned — must produce
        // the exact same per-item results: the noise stream follows the
        // stamp, not the execution position.
        let mut config = SessionConfig::default();
        config.run.noise = Some(NoiseModel::new(0.1, 9));
        let batch: Vec<BatchItem> = (0..5)
            .map(|i| {
                BatchItem::new(
                    CollectiveRequest::reduce(Topology::line(6), 16 + i),
                    inputs(6, 16 + i as usize),
                )
            })
            .collect();
        let reference = Executor::with_session_config(config.clone()).run_batch(&batch);

        let executor = Executor::with_session_config(config);
        let mut stamped: Vec<StampedItem> = batch
            .iter()
            .map(|item| StampedItem {
                item: item.clone(),
                run_index: executor.reserve_run_index(),
                predicted_cycles: None,
            })
            .collect();
        stamped.reverse();
        let mut results = executor.run_stamped(&stamped);
        results.reverse();
        assert_equivalent(&results, &reference);
    }

    #[test]
    fn stamped_predictions_feed_the_drift_summary() {
        let executor = Executor::new();
        let item = BatchItem::new(CollectiveRequest::reduce(Topology::line(8), 32), inputs(8, 32));
        let measured =
            executor.run_batch(std::slice::from_ref(&item))[0].as_ref().unwrap().runtime_cycles();

        // One exact prediction, one double: mean signed error is half the
        // measured cycles and the window p99 is the worse (100%) sample.
        let stamped = vec![
            StampedItem {
                item: item.clone(),
                run_index: executor.reserve_run_index(),
                predicted_cycles: Some(measured),
            },
            StampedItem {
                item: item.clone(),
                run_index: executor.reserve_run_index(),
                predicted_cycles: Some(2 * measured),
            },
        ];
        let results = executor.run_stamped(&stamped);
        assert!(results.iter().all(Result::is_ok));
        let summary = executor.stats().prediction;
        assert_eq!(summary.samples, 2);
        assert!((summary.mean_signed_error_cycles - measured as f64 / 2.0).abs() < 1e-9);
        assert!((summary.p99_abs_relative_error - 1.0).abs() < 1e-9);

        // Invalid stamped items contribute neither a run nor a sample.
        let invalid = StampedItem {
            item: BatchItem::new(CollectiveRequest::reduce(Topology::line(8), 0), inputs(8, 32)),
            run_index: 0,
            predicted_cycles: Some(1),
        };
        let results = executor.run_stamped(&[invalid]);
        assert!(matches!(results[0], Err(CollectiveError::InvalidRequest { .. })));
        assert_eq!(executor.stats().prediction.samples, 2);
    }

    #[test]
    fn cached_plan_peeks_without_generating() {
        let executor = Executor::new();
        let request = CollectiveRequest::reduce(Topology::line(8), 16);
        assert!(executor.cached_plan(&request).is_none());
        assert_eq!(executor.cached_plans(), 0, "a peek must not generate");
        assert_eq!(executor.stats().plan_misses, 0, "a peek is not a cache miss");
        executor.run_batch(&[BatchItem::new(request, inputs(8, 16))]);
        let peeked = executor.cached_plan(&request).expect("warm peek hits");
        assert!(peeked.choice.is_some());
    }

    #[test]
    fn empty_batches_are_a_no_op() {
        let executor = Executor::new();
        assert!(executor.run_batch(&[]).is_empty());
        assert_eq!(executor.stats().runs, 0);
        assert_eq!(executor.stats().batches, 1);
    }

    #[test]
    fn executor_is_shareable_across_threads() {
        let executor = Arc::new(Executor::new());
        let batch: Vec<BatchItem> = (0..3)
            .map(|_| {
                BatchItem::new(CollectiveRequest::reduce(Topology::line(8), 16), inputs(8, 16))
            })
            .collect();
        let reference = Session::new().run_batch(&batch);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let executor = Arc::clone(&executor);
                let batch = &batch;
                let reference = &reference;
                scope.spawn(move || {
                    // No noise configured: every batch is equivalent to the
                    // same fresh sequential session regardless of the
                    // interleaving of the three submitters.
                    assert_equivalent(&executor.run_batch(batch), reference);
                });
            }
        });
        assert_eq!(executor.stats().runs, 9);
    }
}
