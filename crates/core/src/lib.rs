//! # wse-collectives — near-optimal wafer-scale Reduce, AllReduce and Broadcast
//!
//! This crate is the primary contribution of the *Near-Optimal Wafer-Scale
//! Reduce* (HPDC 2024) reproduction: executable implementations of every
//! collective the paper designs and evaluates, targeting the cycle-level
//! mesh simulator of `wse-fabric` and driven by the performance model of
//! `wse-model`.
//!
//! ## The request API
//!
//! The paper's workflow is *model → select → generate → run* (§1.3, §10).
//! The library exposes it as one coherent pipeline:
//!
//! * a [`CollectiveRequest`] describes any collective — `Reduce` /
//!   `AllReduce` / `Broadcast`, on a 1D [`Topology::Line`] or a 2D
//!   [`Topology::Grid`], with a vector length, a [`ReduceOp`] and a
//!   [`Schedule`] that is either an explicit pattern or [`Schedule::Auto`]
//!   model-driven selection;
//! * an [`Executor`] is the one **execution core**: requests resolve into
//!   executable [`CollectivePlan`]s through an LRU **plan cache** (`Arc`ed
//!   plans behind one lock) and run on reset fabrics checked out of a
//!   per-shape **pool**, by parallel workers for a **batch** of
//!   independent requests, with one noise-run index rule (see
//!   [`executor`]);
//! * a [`Session`] is the sequential face of that core: a one-worker
//!   executor behind `&mut self` — generate once, run many times;
//! * a [`CollectiveService`] is the **serving loop** on top: a bounded
//!   submission queue accepting requests continuously, model-priced
//!   admission, a batcher thread forming batches by deadline, size or
//!   predicted cost, completion handles ([`ResponseHandle`]) with
//!   per-request latency, backpressure and graceful draining shutdown (see
//!   [`serve`]).
//!
//! Sessions, batches and services run the same code, so their results are
//! byte-identical for the same requests in the same execution order.
//!
//! ## Quickstart
//!
//! ```
//! use wse_collectives::prelude::*;
//!
//! // Reduce 1 KiB vectors (256 f32 values) across a row of 16 PEs with the
//! // Two-Phase schedule.
//! let mut session = Session::new();
//! let request = CollectiveRequest::reduce(Topology::line(16), 256)
//!     .with_schedule(Schedule::Reduce1d(ReducePattern::TwoPhase));
//!
//! let inputs: Vec<Vec<f32>> = (0..16).map(|i| vec![i as f32; 256]).collect();
//! let outcome = session.run(&request, &inputs).unwrap();
//!
//! let expected = expected_reduce(&inputs, ReduceOp::Sum);
//! assert_outputs_close(&outcome, &expected, 1e-4);
//! println!("runtime: {} cycles", outcome.runtime_cycles());
//!
//! // Let the model pick the algorithm instead (§1.3/§10): the same request
//! // with the default `Schedule::Auto`, over the same session. Repeated
//! // requests hit the plan cache — plan generation happened once per
//! // distinct request.
//! let auto = CollectiveRequest::allreduce(Topology::line(16), 256);
//! for _ in 0..3 {
//!     let outcome = session.run(&auto, &inputs).unwrap();
//!     assert_outputs_close(&outcome, &expected, 1e-4);
//! }
//! assert_eq!(session.stats().plan_misses, 2); // two distinct requests
//! assert_eq!(session.stats().plan_hits, 2);   // two repeat runs
//! ```
//!
//! ## What is implemented
//!
//! * **1D Broadcast** — the flooding broadcast of §4.2, which multicast makes
//!   as cheap as a single message ([`broadcast`]).
//! * **1D Reduce** — Star (§5.1), Chain (§5.2, the vendor pattern), binary
//!   Tree (§5.3), Two-Phase (§5.4) and the model-generated Auto-Gen schedule
//!   (§5.5), all compiled through a single reduction-tree-to-plan code
//!   generator ([`reduce`], [`tree_plan`]).
//! * **1D AllReduce** — Reduce-then-Broadcast (§6.1) and the Ring (§6.2),
//!   built from the composable phase builders of [`phases`]
//!   ([`allreduce`]).
//! * **The inference collective suite** — ReduceScatter, AllGather, Gather,
//!   Scatter and All-to-All as first-class request kinds with per-kind I/O
//!   shape contracts, assembled from the same phase builders
//!   ([`collectives`]; see the table in [`request`]).
//! * **2D collectives** — the 2D flooding broadcast (§7.1), X-Y Reduce
//!   (§7.2), Snake Reduce (§7.3) and 2D AllReduce (§7.4).
//! * **Model-driven selection** — [`Schedule::Auto`] resolves through the
//!   performance model's structured [`wse_model::Choice`].
//! * **Measurement methodology** — the clock-synchronised, calibrated timing
//!   procedure of §8.3, run against simulated clock skew and thermal noise
//!   ([`measured`]).
//!
//! All failures are reported as the typed [`CollectiveError`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod allreduce;
pub mod broadcast;
mod cache;
pub mod collectives;
pub mod error;
pub mod executor;
pub mod measured;
pub mod path;
pub mod phases;
pub mod plan;
pub mod reduce;
pub mod request;
pub mod runner;
pub mod serve;
pub mod session;
pub mod tree_plan;

pub use allreduce::{
    allreduce_1d_plan, allreduce_2d_plan, ring_allreduce_plan, xy_allreduce_2d_plan,
    AllReducePattern,
};
pub use broadcast::{flood_broadcast_2d_plan, flood_broadcast_plan};
pub use collectives::{
    all_to_all_rotate_plan, allgather_ring_plan, gather_line_plan, reduce_scatter_ring_plan,
    scatter_line_plan,
};
pub use error::CollectiveError;
pub use executor::{
    BatchItem, Executor, ExecutorConfig, ExecutorStats, PredictionSummary, StampedItem,
};
pub use measured::{measured_run, MeasureConfig, MeasuredRun};
pub use path::LinePath;
pub use plan::CollectivePlan;
pub use reduce::{reduce_1d_plan, reduce_2d_plan, Reduce2dPattern, ReducePattern};
pub use request::{CollectiveKind, CollectiveRequest, ResolvedPlan, Schedule, TenantId, Topology};
pub use runner::{
    assert_outputs_close, expected_reduce, max_relative_error, run_plan, RunConfig, RunOutcome,
};
pub use serve::{
    AdmissionConfig, AdmissionInfo, AdmissionOutcome, BatchOrder, CollectiveService, FlushReason,
    LatencySummary, Response, ResponseHandle, ServiceConfig, ServiceStats, TenantBudget,
};
pub use session::{Session, SessionConfig};
pub use wse_fabric::EngineKind;

/// Convenience re-exports for applications.
pub mod prelude {
    pub use crate::allreduce::{allreduce_1d_plan, allreduce_2d_plan, AllReducePattern};
    pub use crate::broadcast::{flood_broadcast_2d_plan, flood_broadcast_plan};
    pub use crate::collectives::{
        all_to_all_rotate_plan, allgather_ring_plan, gather_line_plan, reduce_scatter_ring_plan,
        scatter_line_plan,
    };
    pub use crate::error::CollectiveError;
    pub use crate::executor::{
        BatchItem, Executor, ExecutorConfig, ExecutorStats, PredictionSummary, StampedItem,
    };
    pub use crate::path::LinePath;
    pub use crate::plan::CollectivePlan;
    pub use crate::reduce::{reduce_1d_plan, reduce_2d_plan, Reduce2dPattern, ReducePattern};
    pub use crate::request::{
        CollectiveKind, CollectiveRequest, ResolvedPlan, Schedule, TenantId, Topology,
    };
    pub use crate::runner::{
        assert_outputs_close, expected_reduce, run_plan, RunConfig, RunOutcome,
    };
    pub use crate::serve::{
        AdmissionConfig, AdmissionInfo, AdmissionOutcome, BatchOrder, CollectiveService,
        LatencySummary, Response, ResponseHandle, ServiceConfig, ServiceStats, TenantBudget,
    };
    pub use crate::session::{Session, SessionConfig};
    pub use wse_fabric::geometry::{Coord, GridDim};
    pub use wse_fabric::program::ReduceOp;
    pub use wse_fabric::EngineKind;
    pub use wse_model::Machine;
}
