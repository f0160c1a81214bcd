//! Sequential execution sessions: the single-caller face of the execution
//! core.
//!
//! Serving heavy repeated collective traffic has two per-request costs the
//! one-shot [`crate::runner::run_plan`] pays every time: *plan generation*
//! (model evaluation, Auto-Gen DP, routing-script construction) and *fabric
//! construction* (allocating the whole simulated mesh). A [`Session`]
//! amortises both — the production pattern of build once, select by model,
//! execute many times. It is a `&mut self` facade over a one-worker
//! [`Executor`], so it shares the executor's plan cache, fabric pool,
//! statistics and noise-run index rule:
//!
//! * plans are resolved through an LRU cache keyed by the full
//!   [`CollectiveRequest`] (kind, topology, vector length, op, schedule,
//!   root); the session's machine parameters are fixed at construction, so
//!   they are implicitly part of every key and a repeated request reuses
//!   the exact plan bytes it generated the first time, and
//! * execution reuses resettable [`wse_fabric::Fabric`]s per grid shape
//!   from the executor's pool instead of reallocating the mesh per run.
//!
//! [`Session::stats`] exposes the executor's hit/miss and reuse counters so
//! callers (and the integration tests) can verify the amortisation actually
//! happens.

use std::num::NonZeroUsize;
use std::sync::Arc;

use wse_model::Machine;

use crate::error::CollectiveError;
use crate::executor::{BatchItem, Executor, ExecutorConfig, ExecutorStats};
use crate::request::{CollectiveRequest, ResolvedPlan};
use crate::runner::{RunConfig, RunOutcome};

/// Configuration of a [`Session`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The machine model used for `Schedule::Auto` selection and Auto-Gen
    /// tree generation. Fixed for the session's lifetime — the plan cache is
    /// keyed by request only, which is sound precisely because the machine
    /// cannot change under it; if a mutable machine is ever introduced, the
    /// machine must join the cache key.
    pub machine: Machine,
    /// Fabric parameters and optional noise applied to every run.
    pub run: RunConfig,
    /// Maximum number of resolved plans kept in the cache.
    pub plan_cache_capacity: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            machine: Machine::wse2(),
            run: RunConfig::default(),
            plan_cache_capacity: 64,
        }
    }
}

impl SessionConfig {
    /// The same configuration with a different fabric engine (see
    /// [`RunConfig::with_engine`]).
    pub fn with_engine(mut self, engine: wse_fabric::EngineKind) -> Self {
        self.run = self.run.with_engine(engine);
        self
    }
}

/// A reusable, sequential executor for collective requests.
///
/// ```
/// use wse_collectives::prelude::*;
///
/// let mut session = Session::new();
/// let request = CollectiveRequest::reduce(Topology::line(8), 32)
///     .with_schedule(Schedule::Reduce1d(ReducePattern::Chain));
/// let inputs: Vec<Vec<f32>> = (0..8).map(|i| vec![i as f32; 32]).collect();
///
/// // First run generates the plan; subsequent runs hit the cache and reuse
/// // the session's fabric.
/// for _ in 0..3 {
///     let outcome = session.run(&request, &inputs).unwrap();
///     assert_outputs_close(&outcome, &expected_reduce(&inputs, ReduceOp::Sum), 1e-4);
/// }
/// assert_eq!(session.stats().plan_misses, 1);
/// assert_eq!(session.stats().plan_hits, 2);
/// ```
#[derive(Debug)]
pub struct Session {
    executor: Executor,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A session targeting the paper's WSE-2 machine with default settings.
    pub fn new() -> Self {
        Session::with_config(SessionConfig::default())
    }

    /// A session targeting a specific machine model.
    pub fn with_machine(machine: Machine) -> Self {
        Session::with_config(SessionConfig { machine, ..SessionConfig::default() })
    }

    /// A session with full configuration control.
    pub fn with_config(config: SessionConfig) -> Self {
        let executor = Executor::with_config(ExecutorConfig {
            session: config,
            workers: NonZeroUsize::new(1),
            ..ExecutorConfig::default()
        });
        Session { executor }
    }

    /// The machine model requests are resolved against.
    pub fn machine(&self) -> &Machine {
        self.executor.machine()
    }

    /// Amortisation counters accumulated so far.
    pub fn stats(&self) -> ExecutorStats {
        self.executor.stats()
    }

    /// Number of plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.executor.cached_plans()
    }

    /// Drop every cached plan (the fabrics and statistics are kept).
    pub fn clear_plan_cache(&mut self) {
        self.executor.clear_plan_cache();
    }

    /// Resolve a request into an executable plan through the plan cache
    /// (see [`Executor::plan`]).
    pub fn plan(
        &mut self,
        request: &CollectiveRequest,
    ) -> Result<Arc<ResolvedPlan>, CollectiveError> {
        self.executor.plan(request)
    }

    /// Resolve (through the cache) and execute a request.
    ///
    /// `inputs` provides one vector per data PE of the resolved plan, in
    /// plan order — for Reduce/AllReduce that is every PE of the topology in
    /// row-major order, for Broadcast just the root. Execution reuses a
    /// pooled fabric for the request's grid shape, reset in place instead of
    /// allocating a fresh mesh.
    ///
    /// When the session's [`RunConfig`] carries a noise model, every run
    /// draws a *fresh* thermal-noise realization: the model attached to the
    /// fabric is derived from the configured base seed and the index of the
    /// run among the session's executed runs
    /// ([`wse_fabric::NoiseModel::for_run`]). Two noisy runs of the same
    /// request therefore differ (as on the real machine), while two sessions
    /// with the same configuration still reproduce each other exactly, run
    /// for run. A rejected call consumes no run index.
    pub fn run(
        &mut self,
        request: &CollectiveRequest,
        inputs: &[Vec<f32>],
    ) -> Result<RunOutcome, CollectiveError> {
        let mut results = self.executor.run_in_order(&[(request, inputs)]);
        results.pop().expect("one result per item")
    }

    /// Resolve and execute a batch of requests sequentially, in order.
    ///
    /// This is the serial counterpart of [`Executor::run_batch`]: a batch
    /// run on a fresh session and the same batch run on a fresh executor
    /// produce byte-identical outcomes — both assign noise-run indices to the
    /// items that actually execute, in order — which is what the equivalence
    /// tests and the throughput benchmark compare.
    pub fn run_batch(&mut self, batch: &[BatchItem]) -> Vec<Result<RunOutcome, CollectiveError>> {
        self.executor.run_batch(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::ReducePattern;
    use crate::request::{Schedule, Topology};
    use crate::runner::{assert_outputs_close, expected_reduce, run_plan};
    use wse_fabric::program::ReduceOp;

    fn inputs(p: usize, b: usize) -> Vec<Vec<f32>> {
        (0..p).map(|i| (0..b).map(|j| ((i * 7 + j) % 13) as f32 * 0.5 - 2.0).collect()).collect()
    }

    #[test]
    fn session_results_match_one_shot_run_plan_for_every_pattern() {
        // Satellite requirement: a session run must agree with the one-shot
        // `run_plan` path for every 1D Reduce pattern on a 16-PE row.
        let mut session = Session::new();
        let p = 16u32;
        let b = 48u32;
        let data = inputs(p as usize, b as usize);
        for pattern in ReducePattern::all() {
            let request = CollectiveRequest::reduce(Topology::line(p), b)
                .with_schedule(Schedule::Reduce1d(pattern));
            let session_outcome = session.run(&request, &data).unwrap();

            let resolved = request.resolve(session.machine()).unwrap();
            let one_shot = run_plan(&resolved.plan, &data, &RunConfig::default()).unwrap();

            assert_eq!(session_outcome.report, one_shot.report, "{}", pattern.name());
            assert_eq!(session_outcome.outputs, one_shot.outputs, "{}", pattern.name());
        }
    }

    #[test]
    fn repeated_requests_hit_the_cache_and_reuse_the_fabric() {
        let mut session = Session::new();
        let request = CollectiveRequest::allreduce(Topology::line(8), 32);
        let data = inputs(8, 32);
        for _ in 0..4 {
            let outcome = session.run(&request, &data).unwrap();
            assert_outputs_close(&outcome, &expected_reduce(&data, ReduceOp::Sum), 1e-4);
        }
        let stats = session.stats();
        assert_eq!(stats.plan_misses, 1);
        assert_eq!(stats.plan_hits, 3);
        assert_eq!(stats.runs, 4);
        assert_eq!(stats.fabrics_created, 1);
        assert_eq!(stats.fabric_reuses, 3);
    }

    #[test]
    fn cache_returns_the_identical_plan_object() {
        let mut session = Session::new();
        let request = CollectiveRequest::reduce(Topology::line(12), 16);
        let first = session.plan(&request).unwrap();
        let second = session.plan(&request).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "a cache hit returns the same Arc");
    }

    #[test]
    fn distinct_requests_occupy_distinct_cache_entries() {
        let mut session = Session::new();
        let base = CollectiveRequest::reduce(Topology::line(8), 16);
        session.plan(&base).unwrap();
        session.plan(&base.with_op(ReduceOp::Max)).unwrap();
        session.plan(&base.with_schedule(Schedule::Reduce1d(ReducePattern::Star))).unwrap();
        session.plan(&CollectiveRequest::allreduce(Topology::line(8), 16)).unwrap();
        assert_eq!(session.cached_plans(), 4);
        assert_eq!(session.stats().plan_misses, 4);
        assert_eq!(session.stats().plan_hits, 0);
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let mut session = Session::with_config(SessionConfig {
            plan_cache_capacity: 2,
            ..SessionConfig::default()
        });
        let a = CollectiveRequest::reduce(Topology::line(4), 8);
        let b = CollectiveRequest::reduce(Topology::line(5), 8);
        let c = CollectiveRequest::reduce(Topology::line(6), 8);
        session.plan(&a).unwrap();
        session.plan(&b).unwrap();
        session.plan(&a).unwrap(); // refresh a; b is now least recent
        session.plan(&c).unwrap(); // evicts b
        assert_eq!(session.cached_plans(), 2);
        assert_eq!(session.stats().plan_evictions, 1);
        session.plan(&a).unwrap();
        assert_eq!(session.stats().plan_hits, 2, "a must have survived the eviction");
        session.plan(&b).unwrap();
        assert_eq!(session.stats().plan_misses, 4, "b was evicted and rebuilt");
    }

    #[test]
    fn sessions_reuse_one_fabric_per_grid_shape() {
        let mut session = Session::new();
        let line = CollectiveRequest::reduce(Topology::line(6), 8);
        let grid = CollectiveRequest::reduce(Topology::grid(3, 2), 8);
        session.run(&line, &inputs(6, 8)).unwrap();
        session.run(&grid, &inputs(6, 8)).unwrap();
        session.run(&line, &inputs(6, 8)).unwrap();
        session.run(&grid, &inputs(6, 8)).unwrap();
        let stats = session.stats();
        assert_eq!(stats.fabrics_created, 2, "one fabric per distinct grid shape");
        assert_eq!(stats.fabric_reuses, 2);
    }

    #[test]
    fn interleaved_requests_on_a_shared_fabric_stay_correct() {
        // Back-to-back different plans on the same grid exercise the reset
        // path: leftovers from the previous plan (router cursors, local
        // memory) must never leak into the next run.
        let mut session = Session::new();
        let p = 10u32;
        let b = 20u32;
        let data = inputs(p as usize, b as usize);
        let expected = expected_reduce(&data, ReduceOp::Sum);
        let patterns = [
            ReducePattern::Star,
            ReducePattern::Chain,
            ReducePattern::TwoPhase,
            ReducePattern::Star,
            ReducePattern::Tree,
            ReducePattern::Chain,
        ];
        for pattern in patterns {
            let request = CollectiveRequest::reduce(Topology::line(p), b)
                .with_schedule(Schedule::Reduce1d(pattern));
            let outcome = session.run(&request, &data).unwrap();
            assert_outputs_close(&outcome, &expected, 1e-4);
        }
        assert_eq!(session.stats().fabrics_created, 1);
    }

    #[test]
    fn rejected_runs_leave_execution_stats_untouched() {
        let mut session = Session::new();
        let request = CollectiveRequest::reduce(Topology::line(4), 8);
        let err = session.run(&request, &[vec![0.0; 3]]).unwrap_err();
        assert!(matches!(err, CollectiveError::InputCountMismatch { .. }));
        let stats = session.stats();
        assert_eq!(stats.runs, 0, "a rejected run is not an execution");
        assert_eq!(stats.fabrics_created, 0);
        assert_eq!(stats.fabric_reuses, 0);
        // Planning still happened (the request itself is valid).
        assert_eq!(stats.plan_misses, 1);
    }

    fn noisy_config(probability: f64, seed: u64) -> SessionConfig {
        let mut config = SessionConfig::default();
        config.run.noise = Some(wse_fabric::NoiseModel::new(probability, seed));
        config
    }

    #[test]
    fn noisy_runs_see_fresh_noise_realizations() {
        // Regression for the session noise-replay bug: cloning the configured
        // noise model into the fabric on every run replayed the identical
        // no-op sequence, so repeated noisy runs were byte-identical instead
        // of independent draws.
        let mut session = Session::with_config(noisy_config(0.2, 42));
        let request = CollectiveRequest::reduce(Topology::line(8), 64)
            .with_schedule(Schedule::Reduce1d(ReducePattern::Chain));
        let data = inputs(8, 64);
        let first = session.run(&request, &data).unwrap();
        let second = session.run(&request, &data).unwrap();
        assert!(first.report.noop_cycles > 0, "noise must actually fire");
        assert_ne!(
            (first.report.noop_cycles, &first.report.pe_finish),
            (second.report.noop_cycles, &second.report.pe_finish),
            "two noisy runs must draw different noise realizations"
        );
        // The data outcome is unaffected by noise either way.
        let expected = expected_reduce(&data, ReduceOp::Sum);
        assert_outputs_close(&first, &expected, 1e-4);
        assert_outputs_close(&second, &expected, 1e-4);
    }

    #[test]
    fn equally_seeded_sessions_reproduce_each_other_exactly() {
        let request = CollectiveRequest::allreduce(Topology::line(6), 32);
        let data = inputs(6, 32);
        let run_session = || {
            let mut session = Session::with_config(noisy_config(0.15, 7));
            (0..3).map(|_| session.run(&request, &data).unwrap()).collect::<Vec<_>>()
        };
        let a = run_session();
        let b = run_session();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.report, y.report, "same seed + same run counter = same realization");
            assert_eq!(x.outputs, y.outputs);
        }
    }

    #[test]
    fn first_noisy_session_run_matches_the_one_shot_path() {
        // `NoiseModel::for_run(0)` is the identity derivation, so run 0 of a
        // session must stay byte-identical to `run_plan` with the same
        // config — reseeding only kicks in from run 1 onwards.
        let config = noisy_config(0.1, 99);
        let request = CollectiveRequest::reduce(Topology::line(10), 24);
        let data = inputs(10, 24);
        let mut session = Session::with_config(config.clone());
        let session_outcome = session.run(&request, &data).unwrap();
        let resolved = request.resolve(&config.machine).unwrap();
        let one_shot = run_plan(&resolved.plan, &data, &config.run).unwrap();
        assert_eq!(session_outcome.report, one_shot.report);
        assert_eq!(session_outcome.outputs, one_shot.outputs);
    }

    #[test]
    fn auto_selection_follows_the_model_regions() {
        // Huge vectors on few PEs: ring territory (Figure 8). Intermediate
        // vectors on many PEs: two-phase territory.
        let mut session = Session::new();
        let ring = session.plan(&CollectiveRequest::allreduce(Topology::line(4), 4096)).unwrap();
        assert_eq!(ring.algorithm, "Ring");
        let two_phase = session.plan(&CollectiveRequest::reduce(Topology::line(256), 256)).unwrap();
        assert_eq!(two_phase.algorithm, "Two-Phase");
    }

    #[test]
    fn auto_allreduce_runs_when_the_vector_does_not_divide() {
        // b = 4098 is not divisible by p = 4, but the model may still pick
        // the ring; the resolved plan must nevertheless run correctly.
        let mut session = Session::new();
        let data = inputs(4, 4098);
        let request = CollectiveRequest::allreduce(Topology::line(4), 4098);
        let outcome = session.run(&request, &data).unwrap();
        assert_outputs_close(&outcome, &expected_reduce(&data, ReduceOp::Sum), 1e-3);
    }

    #[test]
    fn clear_plan_cache_forces_regeneration() {
        let mut session = Session::new();
        let request = CollectiveRequest::reduce(Topology::line(8), 8);
        session.plan(&request).unwrap();
        session.clear_plan_cache();
        assert_eq!(session.cached_plans(), 0);
        session.plan(&request).unwrap();
        assert_eq!(session.stats().plan_misses, 2);
    }
}
