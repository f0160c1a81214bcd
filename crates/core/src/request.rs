//! The unified collective request API.
//!
//! The paper's workflow (§1.3, §10) is *model → select → generate → run*. A
//! [`CollectiveRequest`] is the value form of the first half of that
//! pipeline: one plain-data description of any collective this crate can
//! build — Reduce / AllReduce / Broadcast, on a 1D line or a 2D grid, with a
//! [`Schedule`] that is either an explicit pattern or [`Schedule::Auto`]
//! model-driven selection. Requests are cheap to copy, hashable and
//! comparable, which is what lets [`crate::session::Session`] key its plan
//! cache on them directly.
//!
//! # One decision per request
//!
//! A private decision step validates a request and maps it to one concrete
//! algorithm: the explicit [`Schedule`]; for `Auto`, the kind's only
//! algorithm; or, for `Auto` Reduce and AllReduce, the fixed algorithm
//! [`wse_model::selection`] predicts fastest. That algorithm alone gives the
//! plan's name, price and plan: [`CollectiveRequest::check_submission`] needs
//! only the decision, [`CollectiveRequest::predicted_cycles`] adds the price
//! and [`CollectiveRequest::resolve`] the plan. An `Auto` pick and the
//! explicit schedule of the same algorithm therefore report the same pattern
//! name (e.g. "Two-Phase+Bcast") and price.
//!
//! # The collective suite
//!
//! Every [`CollectiveKind`] maps to a paper-grounded phase decomposition
//! (the building blocks live in [`crate::phases`] and
//! [`crate::collectives`]) and a per-PE I/O shape contract, with
//! `c = vector_len / p` the shard ("chunk") size:
//!
//! | kind            | paper      | phase decomposition                    | input per PE `x` | output per PE `x` |
//! |-----------------|------------|----------------------------------------|------------------|-------------------|
//! | `Reduce`        | §5         | selected reduction tree                | full vector      | root: full vector |
//! | `AllReduce`     | §6         | reduce+bcast, or RS rounds + AG rounds | full vector      | full vector       |
//! | `Broadcast`     | §4.2, §7.1 | flood                                  | root: full       | full vector       |
//! | `ReduceScatter` | §6.2 half  | RS rounds + homing rotation            | full vector      | `c` at `x·c`      |
//! | `AllGather`     | §6.2 half  | AG rounds                              | `c` at `x·c`     | full vector       |
//! | `Gather`        | §4.1, §5   | pipelined westward line stream         | `c` at `x·c`     | root: full vector |
//! | `Scatter`       | §4.1, §5   | pipelined eastward line stream         | root: full       | `c` at `x·c`      |
//! | `AllToAll`      | §6.2 ring  | `p-1` store-and-forward rotations      | full vector      | full vector       |
//!
//! The sharded kinds share one layout — shard `i` at offset `i·c` — so
//! their outputs feed the next collective's inputs without host-side
//! reshuffling (`Scatter → ReduceScatter → AllGather` is the
//! `examples/mlp_layer.rs` pipeline). Rooted kinds (`Reduce`, `Broadcast`,
//! `Gather`, `Scatter`) accept [`CollectiveRequest::with_root`]; the
//! symmetric kinds reject it with
//! [`CollectiveError::RootlessCollective`].

use wse_fabric::geometry::{Coord, GridDim};
use wse_fabric::program::ReduceOp;
use wse_fabric::wavelet::Color;
use wse_model::{costs_1d, costs_2d, selection, AutogenSolver, Machine};

use crate::allreduce::{
    allreduce_1d_plan_with, broadcast_2d_result, xy_allreduce_2d_plan_with, AllReducePattern,
};
use crate::broadcast::{flood_broadcast_2d_plan, flood_broadcast_plan};
use crate::collectives::{
    all_to_all_rotate_plan, allgather_ring_plan, gather_line_plan, reduce_scatter_ring_plan,
    scatter_line_plan,
};
use crate::error::CollectiveError;
use crate::path::LinePath;
use crate::plan::CollectivePlan;
use crate::reduce::{
    reduce_1d_plan_with, reduce_2d_plan_with, Reduce2dPattern, ReducePattern, BROADCAST_COLOR,
};

/// An opaque tenant identity for per-tenant admission budgets.
///
/// Tenants are a *submission-side* attribute: a request's results do not
/// depend on who submitted it, so the tenant is deliberately **not** part of
/// [`CollectiveRequest`] (which is the plan-cache key — tenants sharing a
/// request shape must share its cached plan, not fragment the cache). The
/// serving front-end accepts the tenant next to the request
/// (`CollectiveService::submit_as`) and meters each tenant's token bucket in
/// [`crate::serve::AdmissionConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant unattributed submissions (`submit`/`try_submit`) are
    /// accounted to.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Which collective a request describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Reduce to the root PE.
    Reduce,
    /// Reduce whose result ends up on every participating PE.
    AllReduce,
    /// Flooding broadcast of the root's vector (§4.2, §7.1).
    Broadcast,
    /// Reduce whose result is sharded over the PEs: PE `x` ends with the
    /// fully reduced shard `x` (the first half of the Ring AllReduce).
    ReduceScatter,
    /// Concatenate the PEs' shards onto every PE (the second half of the
    /// Ring AllReduce).
    AllGather,
    /// Concatenate the PEs' shards onto the root PE.
    Gather,
    /// Distribute the root's vector as shards over the PEs.
    Scatter,
    /// Personalised exchange: PE `x` sends chunk `d` of its vector to PE
    /// `d` and receives chunk `s` from every PE `s`.
    AllToAll,
}

impl CollectiveKind {
    /// Whether the collective has a distinguished root PE. The symmetric
    /// kinds reject [`CollectiveRequest::with_root`] with
    /// [`CollectiveError::RootlessCollective`].
    pub fn is_rooted(&self) -> bool {
        matches!(
            self,
            CollectiveKind::Reduce
                | CollectiveKind::Broadcast
                | CollectiveKind::Gather
                | CollectiveKind::Scatter
        )
    }
}

/// The set of PEs a collective runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// A row of `p` PEs (the 1D setting of §4–§6).
    Line(u32),
    /// A full 2D grid (§7).
    Grid(GridDim),
}

impl Topology {
    /// A row of `p` PEs.
    pub fn line(p: u32) -> Self {
        Topology::Line(p)
    }

    /// A `width × height` grid.
    pub fn grid(width: u32, height: u32) -> Self {
        Topology::Grid(GridDim::new(width, height))
    }

    /// The grid the topology occupies.
    pub fn dim(&self) -> GridDim {
        match self {
            Topology::Line(p) => GridDim::row(*p),
            Topology::Grid(dim) => *dim,
        }
    }

    /// Number of participating PEs.
    pub fn num_pes(&self) -> usize {
        self.dim().num_pes()
    }
}

/// How the plan for a request is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Let the performance model pick the best fixed algorithm for the
    /// request's shape (the paper's §1.3/§10 workflow; the regions of
    /// Figures 8, 10 and 13).
    Auto,
    /// An explicit 1D Reduce pattern (valid for `Reduce` on a line).
    Reduce1d(ReducePattern),
    /// An explicit 2D Reduce pattern (valid for `Reduce` on a grid).
    Reduce2d(Reduce2dPattern),
    /// An explicit 1D AllReduce pattern (valid for `AllReduce` on a line).
    AllReduce1d(AllReducePattern),
    /// An explicit 2D AllReduce: the given 2D Reduce followed by the 2D
    /// flooding Broadcast (§7.4; valid for `AllReduce` on a grid).
    AllReduce2d(Reduce2dPattern),
    /// The bandwidth-inefficient per-axis X-Y AllReduce of §7.4, provided so
    /// the paper's comparison can be reproduced (valid for `AllReduce` on a
    /// grid).
    AllReduceXy(ReducePattern),
    /// The ring ReduceScatter (valid for `ReduceScatter` on a line).
    ReduceScatterRing,
    /// The ring AllGather (valid for `AllGather` on a line).
    AllGatherRing,
    /// The pipelined line Gather (valid for `Gather` on a line).
    GatherLine,
    /// The pipelined line Scatter (valid for `Scatter` on a line).
    ScatterLine,
    /// The store-and-forward rotation All-to-All (valid for `AllToAll` on a
    /// line).
    AllToAllRotate,
}

/// A fully specified collective request: the cache key and the input to plan
/// generation.
///
/// Build one with [`CollectiveRequest::reduce`],
/// [`CollectiveRequest::allreduce`] or [`CollectiveRequest::broadcast`] and
/// refine it with the `with_*` builders:
///
/// ```
/// use wse_collectives::prelude::*;
///
/// let request = CollectiveRequest::reduce(Topology::line(16), 256)
///     .with_op(ReduceOp::Max)
///     .with_schedule(Schedule::Reduce1d(ReducePattern::TwoPhase));
/// assert_eq!(request.vector_len, 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CollectiveRequest {
    /// The collective to perform.
    pub kind: CollectiveKind,
    /// Where it runs.
    pub topology: Topology,
    /// Vector length in 32-bit wavelets per participating PE.
    pub vector_len: u32,
    /// The element-wise reduction operation (ignored by `Broadcast`).
    pub op: ReduceOp,
    /// Explicit pattern or model-driven selection.
    pub schedule: Schedule,
    /// The root PE. All plans of this reproduction root at the north-west
    /// corner `(0, 0)`, matching the paper's layouts.
    pub root: Coord,
}

impl CollectiveRequest {
    fn new(kind: CollectiveKind, topology: Topology, vector_len: u32) -> Self {
        CollectiveRequest {
            kind,
            topology,
            vector_len,
            op: ReduceOp::Sum,
            schedule: Schedule::Auto,
            root: Coord::new(0, 0),
        }
    }

    /// A Reduce request (sum, model-selected schedule by default).
    pub fn reduce(topology: Topology, vector_len: u32) -> Self {
        Self::new(CollectiveKind::Reduce, topology, vector_len)
    }

    /// An AllReduce request (sum, model-selected schedule by default).
    pub fn allreduce(topology: Topology, vector_len: u32) -> Self {
        Self::new(CollectiveKind::AllReduce, topology, vector_len)
    }

    /// A Broadcast request.
    pub fn broadcast(topology: Topology, vector_len: u32) -> Self {
        Self::new(CollectiveKind::Broadcast, topology, vector_len)
    }

    /// A ReduceScatter request (sum, model-selected schedule by default).
    /// `vector_len` is the *full* per-PE input length; outputs are one
    /// `vector_len / p` shard per PE.
    pub fn reduce_scatter(topology: Topology, vector_len: u32) -> Self {
        Self::new(CollectiveKind::ReduceScatter, topology, vector_len)
    }

    /// An AllGather request. `vector_len` is the *gathered* length; inputs
    /// are one `vector_len / p` shard per PE.
    pub fn allgather(topology: Topology, vector_len: u32) -> Self {
        Self::new(CollectiveKind::AllGather, topology, vector_len)
    }

    /// A Gather request (to the canonical root). `vector_len` is the
    /// gathered length; inputs are one `vector_len / p` shard per PE.
    pub fn gather(topology: Topology, vector_len: u32) -> Self {
        Self::new(CollectiveKind::Gather, topology, vector_len)
    }

    /// A Scatter request (from the canonical root). `vector_len` is the
    /// root's full input length; outputs are one `vector_len / p` shard per
    /// PE.
    pub fn scatter(topology: Topology, vector_len: u32) -> Self {
        Self::new(CollectiveKind::Scatter, topology, vector_len)
    }

    /// An All-to-All request: chunk `d` of PE `x`'s `vector_len`-element
    /// input goes to PE `d`, chunk slot `s` of its output comes from PE `s`.
    pub fn all_to_all(topology: Topology, vector_len: u32) -> Self {
        Self::new(CollectiveKind::AllToAll, topology, vector_len)
    }

    /// Use the given reduction operation.
    pub fn with_op(mut self, op: ReduceOp) -> Self {
        self.op = op;
        self
    }

    /// Use the given schedule instead of model-driven selection.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Use the given root PE on a rooted collective (`Reduce`, `Broadcast`,
    /// `Gather`, `Scatter`). Rootless kinds — every participant of an
    /// AllReduce, ReduceScatter, AllGather or All-to-All plays the same
    /// role — are rejected with [`CollectiveError::RootlessCollective`]
    /// instead of silently ignoring the hint. Only the canonical `(0, 0)`
    /// root is currently supported; other values are rejected at resolution
    /// time.
    pub fn with_root(mut self, root: Coord) -> Result<Self, CollectiveError> {
        if !self.kind.is_rooted() {
            return Err(CollectiveError::RootlessCollective { kind: self.kind });
        }
        self.root = root;
        Ok(self)
    }

    /// Check the request's parameters without building a plan.
    pub fn validate(&self) -> Result<(), CollectiveError> {
        use CollectiveKind as K;
        let invalid = |reason: String| Err(CollectiveError::InvalidRequest { reason });
        let (kind, b) = (self.kind, self.vector_len);
        if b == 0 {
            return invalid("collectives operate on at least one wavelet".into());
        }
        match self.topology {
            Topology::Line(0) => return invalid("a line topology needs at least one PE".into()),
            Topology::Grid(dim) if dim.num_pes() == 0 => {
                return invalid("a grid topology needs at least one PE".into())
            }
            _ => {}
        }
        if self.root != Coord::new(0, 0) {
            return invalid(format!(
                "only the canonical root (0, 0) is supported, got {}",
                self.root
            ));
        }
        if matches!(kind, K::ReduceScatter | K::AllGather | K::Gather | K::Scatter | K::AllToAll) {
            let Topology::Line(p) = self.topology else {
                return invalid(format!("{kind:?} is only implemented on 1D lines"));
            };
            if p < 2 {
                return invalid(format!("{kind:?} needs at least two PEs"));
            }
            if !b.is_multiple_of(p) {
                return invalid(format!(
                    "{kind:?} requires the vector length ({b}) to be divisible by the PE count \
                     ({p})"
                ));
            }
        }
        if let (K::AllReduce, Topology::Line(p), Schedule::AllReduce1d(AllReducePattern::Ring)) =
            (kind, self.topology, self.schedule)
        {
            if p < 2 {
                return invalid("the ring needs at least two PEs".into());
            }
            if !b.is_multiple_of(p) {
                return invalid(format!(
                    "the ring all-reduce requires the vector length ({b}) to be divisible by \
                     the PE count ({p})"
                ));
            }
        }
        Ok(())
    }

    /// The request's input contract without building a plan: how many input
    /// vectors a caller must supply and the length of each (the `input per
    /// PE x` column of the table in the [module docs](self)).
    ///
    /// Validates the request first, so the shard division below is exact.
    pub fn input_shape(&self) -> Result<(usize, u32), CollectiveError> {
        self.validate()?;
        Ok(self.shape())
    }

    fn shape(&self) -> (usize, u32) {
        let p = self.topology.num_pes();
        match self.kind {
            // Rooted single-source kinds: one full vector at the root.
            CollectiveKind::Broadcast | CollectiveKind::Scatter => (1, self.vector_len),
            // Sharded-input kinds: one chunk per PE (validate() guarantees
            // divisibility).
            CollectiveKind::AllGather | CollectiveKind::Gather => (p, self.vector_len / p as u32),
            // Full-vector-per-PE kinds.
            CollectiveKind::Reduce
            | CollectiveKind::AllReduce
            | CollectiveKind::ReduceScatter
            | CollectiveKind::AllToAll => (p, self.vector_len),
        }
    }

    /// Check, **without building a plan**, whether this request and these
    /// inputs would execute: parameter validation, schedule compatibility
    /// and the per-kind input contract, reporting the same typed error (and
    /// checking in the same order) as the plan-building path
    /// ([`CollectiveRequest::resolve`] followed by input validation against
    /// the plan).
    ///
    /// This is the admission layer's validity oracle: the serving front-end
    /// must know *at submission time* whether an item will consume a
    /// noise-run index — exactly the items a [`crate::session::Session`]
    /// would execute — and it must know without paying for plan generation,
    /// or even for the model, on the submit path.
    pub fn check_submission(&self, inputs: &[Vec<f32>]) -> Result<(), CollectiveError> {
        self.decide()?;
        let (count, len) = self.shape();
        if inputs.len() != count {
            return Err(CollectiveError::InputCountMismatch { expected: count, got: inputs.len() });
        }
        for (index, input) in inputs.iter().enumerate() {
            if input.len() != len as usize {
                return Err(CollectiveError::InputLengthMismatch {
                    index,
                    expected: len,
                    got: input.len(),
                });
            }
        }
        Ok(())
    }

    /// The model's predicted runtime for this request in cycles, **without
    /// building a plan** — the pure §1.3 "model" step, cheap enough for a
    /// serving submit path.
    ///
    /// This is exactly the price the resolved plan records
    /// ([`ResolvedPlan::predicted_cycles`]), for every schedule. Invalid
    /// requests and mismatched schedules return the same typed errors as
    /// [`CollectiveRequest::resolve`].
    pub fn predicted_cycles(&self, machine: &Machine) -> Result<f64, CollectiveError> {
        let algorithm = self.decide()?.settle(self, machine);
        Ok(algorithm.cycles(self, machine, &algorithm.solvers(self)))
    }

    /// Resolve the request into an executable plan (uncached), named and
    /// priced. Sessions call this through their plan cache — prefer
    /// [`crate::session::Session::plan`] when resolving repeatedly.
    pub fn resolve(&self, machine: &Machine) -> Result<ResolvedPlan, CollectiveError> {
        let algorithm = self.decide()?.settle(self, machine);
        let solvers = algorithm.solvers(self);
        Ok(ResolvedPlan {
            plan: algorithm.plan(self, machine, &solvers),
            algorithm: algorithm.name(),
            predicted_cycles: algorithm.cycles(self, machine, &solvers),
        })
    }

    /// The decision step (see the [module docs](self)): validate, then map
    /// the request to the algorithm it runs. The one match over kind,
    /// topology and schedule; it needs no model.
    fn decide(&self) -> Result<Decision, CollectiveError> {
        use Algorithm as A;
        use CollectiveKind as K;
        use Decision::Fixed;
        use Schedule as S;
        use Topology as T;
        self.validate()?;
        Ok(match (self.kind, self.topology, self.schedule) {
            (K::Reduce, T::Line(_), S::Auto) => Decision::Reduce1d,
            (K::Reduce, T::Grid(_), S::Auto) => Decision::Reduce2d,
            (K::AllReduce, T::Line(_), S::Auto) => Decision::AllReduce1d,
            (K::AllReduce, T::Grid(_), S::Auto) => Decision::AllReduce2d,
            (K::Reduce, T::Line(_), S::Reduce1d(pattern)) => Fixed(A::Reduce1d(pattern)),
            (K::Reduce, T::Grid(_), S::Reduce2d(pattern)) => Fixed(A::Reduce2d(pattern)),
            (K::AllReduce, T::Line(_), S::AllReduce1d(pattern)) => Fixed(A::AllReduce1d(pattern)),
            (K::AllReduce, T::Grid(_), S::AllReduce2d(pattern)) => Fixed(A::AllReduce2d(pattern)),
            (K::AllReduce, T::Grid(_), S::AllReduceXy(pattern)) => Fixed(A::AllReduceXy(pattern)),
            (K::Broadcast, T::Line(_), S::Auto) => Fixed(A::Flood1d),
            (K::Broadcast, T::Grid(_), S::Auto) => Fixed(A::Flood2d),
            (K::ReduceScatter, T::Line(_), S::Auto | S::ReduceScatterRing) => Fixed(A::RingRs),
            (K::AllGather, T::Line(_), S::Auto | S::AllGatherRing) => Fixed(A::RingAg),
            (K::Gather, T::Line(_), S::Auto | S::GatherLine) => Fixed(A::LineGather),
            (K::Scatter, T::Line(_), S::Auto | S::ScatterLine) => Fixed(A::LineScatter),
            (K::AllToAll, T::Line(_), S::Auto | S::AllToAllRotate) => Fixed(A::RotateAllToAll),
            (kind, topology, schedule) => {
                return Err(CollectiveError::ScheduleMismatch { kind, topology, schedule })
            }
        })
    }
}

/// What the decision step knows without the model: the algorithm itself, or
/// which of the four contested `Auto` cases the model settles.
#[derive(Debug, Clone, Copy)]
enum Decision {
    Fixed(Algorithm),
    Reduce1d,
    Reduce2d,
    AllReduce1d,
    AllReduce2d,
}

impl Decision {
    /// The algorithm to run: a contested case takes the fixed algorithm the
    /// model predicts fastest (the regions of Figures 8, 10 and 13).
    fn settle(self, req: &CollectiveRequest, machine: &Machine) -> Algorithm {
        let dim = req.topology.dim();
        let (m, n, b) = (dim.height as u64, dim.width as u64, req.vector_len as u64);
        match self {
            Self::Fixed(algorithm) => algorithm,
            Self::Reduce1d => Algorithm::Reduce1d(ReducePattern::from_model(
                selection::best_fixed_reduce_1d(n, b, machine).algorithm,
            )),
            Self::Reduce2d => Algorithm::Reduce2d(Reduce2dPattern::from_model(
                selection::best_fixed_reduce_2d(m, n, b, machine).algorithm,
            )),
            Self::AllReduce1d => Algorithm::AllReduce1d(
                match AllReducePattern::from_model(
                    selection::best_fixed_allreduce_1d(n, b, machine).algorithm,
                ) {
                    // The ring needs the vector to split evenly over the PEs;
                    // otherwise the Auto-Gen reduce-then-broadcast runs, and
                    // is what the plan is named and priced as.
                    AllReducePattern::Ring if n < 2 || !b.is_multiple_of(n) => {
                        AllReducePattern::ReduceBroadcast(ReducePattern::AutoGen)
                    }
                    pattern => pattern,
                },
            ),
            Self::AllReduce2d => Algorithm::AllReduce2d(Reduce2dPattern::from_model(
                selection::best_fixed_allreduce_2d(m, n, b, machine).algorithm,
            )),
        }
    }
}

/// A concrete algorithm for a request's topology. Its methods are the one
/// source of a resolved plan's name, price and plan.
#[derive(Debug, Clone, Copy)]
enum Algorithm {
    Reduce1d(ReducePattern),
    Reduce2d(Reduce2dPattern),
    AllReduce1d(AllReducePattern),
    AllReduce2d(Reduce2dPattern),
    AllReduceXy(ReducePattern),
    Flood1d,
    Flood2d,
    RingRs,
    RingAg,
    LineGather,
    LineScatter,
    RotateAllToAll,
}

impl Algorithm {
    fn name(&self) -> String {
        match *self {
            Self::Reduce1d(pattern) => pattern.name().into(),
            Self::Reduce2d(pattern) | Self::AllReduce2d(pattern) => pattern.name(),
            Self::AllReduce1d(pattern) => pattern.name().into(),
            Self::AllReduceXy(pattern) => format!("X-Y AllReduce {}", pattern.name()),
            Self::Flood1d => "Flood".into(),
            Self::Flood2d => "2D Flood".into(),
            Self::RingRs => "Ring-ReduceScatter".into(),
            Self::RingAg => "Ring-AllGather".into(),
            Self::LineGather => "Line-Gather".into(),
            Self::LineScatter => "Line-Scatter".into(),
            Self::RotateAllToAll => "Rotate-AllToAll".into(),
        }
    }

    /// The Auto-Gen solvers the trees and the price share: one per distinct
    /// axis length when a phase is Auto-Gen, none otherwise.
    fn solvers(&self, req: &CollectiveRequest) -> Vec<AutogenSolver> {
        use ReducePattern::AutoGen;
        match *self {
            Self::Reduce1d(AutoGen)
            | Self::AllReduce1d(AllReducePattern::ReduceBroadcast(AutoGen))
            | Self::Reduce2d(Reduce2dPattern::Xy(AutoGen))
            | Self::AllReduce2d(Reduce2dPattern::Xy(AutoGen))
            | Self::AllReduceXy(AutoGen) => {
                let dim = req.topology.dim();
                let mut lines = vec![dim.width, dim.height];
                lines.dedup();
                lines.into_iter().map(|p| AutogenSolver::new(p as u64)).collect()
            }
            _ => Vec::new(),
        }
    }

    /// The model's predicted runtime in cycles.
    fn cycles(&self, req: &CollectiveRequest, machine: &Machine, solvers: &[AutogenSolver]) -> f64 {
        // An `m × n` grid; a line of `n` PEs is a one-row grid.
        let dim = req.topology.dim();
        let (m, n, b) = (dim.height as u64, dim.width as u64, req.vector_len as u64);
        let solver = |p: u64| solvers.iter().find(|s| s.pes() == p);
        let (row, column) = (solver(n), solver(m));
        match *self {
            Self::Reduce1d(pattern) => pattern.model_algorithm().cycles(n, b, machine, row),
            Self::Reduce2d(pattern) => {
                pattern.model_algorithm().cycles(m, n, b, machine, row, column)
            }
            Self::AllReduce1d(pattern) => pattern.model_algorithm().cycles(n, b, machine, row),
            Self::AllReduce2d(pattern) => {
                pattern.model_algorithm().allreduce_cycles(m, n, b, machine, row, column)
            }
            Self::AllReduceXy(pattern) => {
                // Per-axis Reduce-then-Broadcast with the given 1D pattern
                // (§7.4), including Auto-Gen phases (which the fixed-phase
                // `costs_2d::xy_allreduce` excludes).
                let alg = pattern.model_algorithm();
                let x = alg.cycles(n, b, machine, row);
                let y = alg.cycles(m, b, machine, column);
                costs_1d::reduce_then_broadcast(x, n, b, machine)
                    + costs_1d::reduce_then_broadcast(y, m, b, machine)
            }
            Self::Flood1d => costs_1d::broadcast(n, b).predict(machine),
            Self::Flood2d => costs_2d::broadcast_2d(m, n, b).predict(machine),
            Self::RingRs => costs_1d::ring_reduce_scatter(n, b).predict(machine),
            Self::RingAg => costs_1d::ring_allgather(n, b).predict(machine),
            Self::LineGather => costs_1d::line_gather(n, b).predict(machine),
            Self::LineScatter => costs_1d::line_scatter(n, b).predict(machine),
            Self::RotateAllToAll => costs_1d::rotate_all_to_all(n, b).predict(machine),
        }
    }

    fn plan(
        &self,
        req: &CollectiveRequest,
        machine: &Machine,
        solvers: &[AutogenSolver],
    ) -> CollectivePlan {
        let (dim, b, op) = (req.topology.dim(), req.vector_len, req.op);
        let p = dim.width;
        let bcast = Color::new(BROADCAST_COLOR);
        match *self {
            Self::Reduce1d(pattern) => reduce_1d_plan_with(pattern, p, b, op, machine, solvers),
            Self::Reduce2d(pattern) => reduce_2d_plan_with(pattern, dim, b, op, machine, solvers),
            Self::AllReduce1d(pattern) => {
                allreduce_1d_plan_with(pattern, p, b, op, machine, solvers)
            }
            Self::AllReduce2d(pattern) => {
                broadcast_2d_result(reduce_2d_plan_with(pattern, dim, b, op, machine, solvers))
            }
            Self::AllReduceXy(pattern) => {
                xy_allreduce_2d_plan_with(pattern, dim, b, op, machine, solvers)
            }
            Self::Flood1d => flood_broadcast_plan(&LinePath::row(dim, 0), b, bcast),
            Self::Flood2d => flood_broadcast_2d_plan(dim, b, bcast),
            Self::RingRs => reduce_scatter_ring_plan(p, b, op),
            Self::RingAg => allgather_ring_plan(p, b),
            Self::LineGather => gather_line_plan(p, b),
            Self::LineScatter => scatter_line_plan(p, b),
            Self::RotateAllToAll => all_to_all_rotate_plan(p, b),
        }
    }
}

/// The output of resolving a request: the executable plan, the algorithm it
/// realises and the model's price for it.
#[derive(Debug, Clone)]
pub struct ResolvedPlan {
    /// The executable plan.
    pub plan: CollectivePlan,
    /// Name of the algorithm the plan realises — the same whether the
    /// schedule named it or `Auto` picked it.
    pub algorithm: String,
    predicted_cycles: f64,
}

impl ResolvedPlan {
    /// The model's predicted runtime of the plan in cycles: what
    /// [`CollectiveRequest::predicted_cycles`] returns for the request.
    pub fn predicted_cycles(&self) -> f64 {
        self.predicted_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{assert_outputs_close, expected_reduce, run_plan, RunConfig};

    fn machine() -> Machine {
        Machine::wse2()
    }

    fn inputs(p: usize, b: usize) -> Vec<Vec<f32>> {
        (0..p).map(|i| (0..b).map(|j| (i + 2 * j) as f32 * 0.125 - 1.0).collect()).collect()
    }

    #[test]
    fn requests_are_cache_key_material() {
        use std::collections::HashSet;
        let a = CollectiveRequest::reduce(Topology::line(16), 64);
        let b = a.with_op(ReduceOp::Max);
        let c = CollectiveRequest::reduce(Topology::grid(4, 4), 64);
        let mut set = HashSet::new();
        set.insert(a);
        set.insert(b);
        set.insert(c);
        set.insert(a); // duplicate
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn every_kind_and_topology_resolves_and_runs() {
        let m = machine();
        let cases = [
            CollectiveRequest::reduce(Topology::line(12), 16),
            CollectiveRequest::reduce(Topology::grid(4, 3), 8),
            CollectiveRequest::allreduce(Topology::line(8), 24),
            CollectiveRequest::allreduce(Topology::grid(3, 3), 8),
        ];
        for request in cases {
            let resolved = request.resolve(&m).expect("auto requests resolve");
            assert!(resolved.predicted_cycles() > 0.0, "{request:?} should carry a model price");
            let data = inputs(request.topology.num_pes(), request.vector_len as usize);
            let outcome = run_plan(&resolved.plan, &data, &RunConfig::default()).unwrap();
            assert_outputs_close(&outcome, &expected_reduce(&data, request.op), 1e-4);
        }
    }

    #[test]
    fn suite_kinds_resolve_and_run_with_kind_aware_shapes() {
        let m = machine();
        let (p, b) = (4u32, 16u32);
        let chunk = (b / p) as usize;
        let full = inputs(p as usize, b as usize);
        let shards: Vec<Vec<f32>> =
            (0..p as usize).map(|x| full[0][x * chunk..(x + 1) * chunk].to_vec()).collect();

        let rs = CollectiveRequest::reduce_scatter(Topology::line(p), b).resolve(&m).unwrap();
        assert_eq!(rs.algorithm, "Ring-ReduceScatter");
        assert!(rs.predicted_cycles() > 0.0);
        let outcome = run_plan(&rs.plan, &full, &RunConfig::default()).unwrap();
        let reduced = expected_reduce(&full, ReduceOp::Sum);
        for (x, (_, shard)) in outcome.outputs.iter().enumerate() {
            assert_eq!(shard, &reduced[x * chunk..(x + 1) * chunk]);
        }

        let ag = CollectiveRequest::allgather(Topology::line(p), b).resolve(&m).unwrap();
        assert_eq!(ag.algorithm, "Ring-AllGather");
        let outcome = run_plan(&ag.plan, &shards, &RunConfig::default()).unwrap();
        for (_, out) in &outcome.outputs {
            assert_eq!(out, &full[0]);
        }

        let gather = CollectiveRequest::gather(Topology::line(p), b).resolve(&m).unwrap();
        assert_eq!(gather.algorithm, "Line-Gather");
        let outcome = run_plan(&gather.plan, &shards, &RunConfig::default()).unwrap();
        assert_eq!(outcome.outputs.len(), 1);
        assert_eq!(outcome.outputs[0].1, full[0]);

        let scatter = CollectiveRequest::scatter(Topology::line(p), b).resolve(&m).unwrap();
        assert_eq!(scatter.algorithm, "Line-Scatter");
        let outcome = run_plan(&scatter.plan, &full[..1], &RunConfig::default()).unwrap();
        for (x, (_, shard)) in outcome.outputs.iter().enumerate() {
            assert_eq!(shard, &shards[x]);
        }

        let a2a = CollectiveRequest::all_to_all(Topology::line(p), b).resolve(&m).unwrap();
        assert_eq!(a2a.algorithm, "Rotate-AllToAll");
        let outcome = run_plan(&a2a.plan, &full, &RunConfig::default()).unwrap();
        for (x, (_, out)) in outcome.outputs.iter().enumerate() {
            let expected: Vec<f32> = (0..p as usize)
                .flat_map(|s| full[s][x * chunk..(x + 1) * chunk].iter().copied())
                .collect();
            assert_eq!(out, &expected);
        }

        // Wrong-shaped inputs are rejected by the kind-aware contract: the
        // AllGather expects chunk-sized shards, not full vectors.
        let err = run_plan(&ag.plan, &full, &RunConfig::default()).unwrap_err();
        assert_eq!(
            err,
            CollectiveError::InputLengthMismatch {
                index: 0,
                expected: chunk as u32,
                got: b as usize
            }
        );
    }

    #[test]
    fn rootless_collectives_reject_with_root() {
        for request in [
            CollectiveRequest::allreduce(Topology::line(4), 8),
            CollectiveRequest::reduce_scatter(Topology::line(4), 8),
            CollectiveRequest::allgather(Topology::line(4), 8),
            CollectiveRequest::all_to_all(Topology::line(4), 8),
        ] {
            let err = request.with_root(Coord::new(0, 0)).unwrap_err();
            assert_eq!(err, CollectiveError::RootlessCollective { kind: request.kind });
        }
        for request in [
            CollectiveRequest::reduce(Topology::line(4), 8),
            CollectiveRequest::broadcast(Topology::line(4), 8),
            CollectiveRequest::gather(Topology::line(4), 8),
            CollectiveRequest::scatter(Topology::line(4), 8),
        ] {
            assert!(request.with_root(Coord::new(0, 0)).is_ok(), "{:?} is rooted", request.kind);
        }
    }

    #[test]
    fn broadcast_requests_resolve_for_both_topologies() {
        let m = machine();
        for request in [
            CollectiveRequest::broadcast(Topology::line(9), 12),
            CollectiveRequest::broadcast(Topology::grid(4, 5), 7),
        ] {
            let resolved = request.resolve(&m).unwrap();
            let data = inputs(1, request.vector_len as usize);
            let outcome = run_plan(&resolved.plan, &data, &RunConfig::default()).unwrap();
            assert_eq!(outcome.outputs.len(), request.topology.num_pes());
            for (_, out) in &outcome.outputs {
                assert_eq!(out, &data[0]);
            }
        }
    }

    #[test]
    fn explicit_schedules_build_the_named_pattern() {
        let m = machine();
        let request = CollectiveRequest::reduce(Topology::line(16), 64)
            .with_schedule(Schedule::Reduce1d(ReducePattern::TwoPhase));
        let resolved = request.resolve(&m).unwrap();
        assert_eq!(resolved.algorithm, "Two-Phase");
        assert_eq!(resolved.predicted_cycles(), request.predicted_cycles(&m).unwrap());
        assert!(resolved.plan.name().contains("Two-Phase"));
    }

    #[test]
    fn mismatched_schedules_are_rejected() {
        let m = machine();
        let request = CollectiveRequest::reduce(Topology::line(8), 16)
            .with_schedule(Schedule::Reduce2d(Reduce2dPattern::Snake));
        assert!(matches!(request.resolve(&m), Err(CollectiveError::ScheduleMismatch { .. })));
        let request = CollectiveRequest::broadcast(Topology::line(8), 16)
            .with_schedule(Schedule::Reduce1d(ReducePattern::Star));
        assert!(matches!(request.resolve(&m), Err(CollectiveError::ScheduleMismatch { .. })));
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let m = machine();
        let zero_b = CollectiveRequest::reduce(Topology::line(8), 0);
        assert!(matches!(zero_b.resolve(&m), Err(CollectiveError::InvalidRequest { .. })));
        let bad_root = CollectiveRequest::reduce(Topology::line(8), 4)
            .with_root(Coord::new(1, 0))
            .expect("Reduce is rooted");
        assert!(matches!(bad_root.resolve(&m), Err(CollectiveError::InvalidRequest { .. })));
        let grid_suite = CollectiveRequest::allgather(Topology::grid(4, 4), 16);
        assert!(matches!(grid_suite.resolve(&m), Err(CollectiveError::InvalidRequest { .. })));
        let indivisible_suite = CollectiveRequest::all_to_all(Topology::line(4), 13);
        assert!(matches!(
            indivisible_suite.resolve(&m),
            Err(CollectiveError::InvalidRequest { .. })
        ));
        let indivisible_ring = CollectiveRequest::allreduce(Topology::line(4), 13)
            .with_schedule(Schedule::AllReduce1d(AllReducePattern::Ring));
        assert!(matches!(
            indivisible_ring.resolve(&m),
            Err(CollectiveError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn auto_ring_choice_falls_back_when_indivisible() {
        let m = machine();
        // b = 4098 is not divisible by p = 4; the model picks the ring but
        // the resolved plan must still be runnable, and is named and priced
        // as the Auto-Gen+Bcast plan it runs.
        let request = CollectiveRequest::allreduce(Topology::line(4), 4098);
        let resolved = request.resolve(&m).unwrap();
        assert_eq!(resolved.algorithm, "Auto-Gen+Bcast");
        let explicit = request.with_schedule(Schedule::AllReduce1d(
            AllReducePattern::ReduceBroadcast(ReducePattern::AutoGen),
        ));
        assert_eq!(resolved.predicted_cycles(), explicit.predicted_cycles(&m).unwrap());
        assert_eq!(request.predicted_cycles(&m).unwrap(), resolved.predicted_cycles());
        let data = inputs(4, 4098);
        let outcome = run_plan(&resolved.plan, &data, &RunConfig::default()).unwrap();
        assert_outputs_close(&outcome, &expected_reduce(&data, ReduceOp::Sum), 1e-3);
    }

    #[test]
    fn auto_picks_follow_the_model_regions() {
        let m = machine();
        // (request, the pick's name, the model's best price for the shape)
        let cases = [
            (
                CollectiveRequest::reduce(Topology::line(256), 256),
                "Two-Phase",
                selection::best_fixed_reduce_1d(256, 256, &m).cycles,
            ),
            (
                CollectiveRequest::allreduce(Topology::line(4), 8192),
                "Ring",
                selection::best_fixed_allreduce_1d(4, 8192, &m).cycles,
            ),
            (
                CollectiveRequest::reduce(Topology::grid(4, 4), 4096),
                "Snake",
                selection::best_fixed_reduce_2d(4, 4, 4096, &m).cycles,
            ),
            (
                CollectiveRequest::allreduce(Topology::grid(16, 16), 32),
                "X-Y Two-Phase",
                selection::best_fixed_allreduce_2d(16, 16, 32, &m).cycles,
            ),
        ];
        for (request, name, best) in cases {
            let resolved = request.resolve(&m).unwrap();
            assert_eq!(resolved.algorithm, name, "{request:?}");
            assert_eq!(resolved.predicted_cycles(), best, "{request:?}");
            assert_eq!(request.predicted_cycles(&m).unwrap(), best, "{request:?}");
        }
    }

    #[test]
    fn suite_predictions_sit_above_their_lower_bounds() {
        use wse_model::lower_bound;
        let m = machine();
        for p in [2u32, 3, 8, 64] {
            let b = 16 * p;
            let (p64, b64) = (p as u64, b as u64);
            let line = Topology::line(p);
            let cases = [
                (
                    CollectiveRequest::reduce_scatter(line, b),
                    lower_bound::t_star_reduce_scatter_1d(p64, b64, &m),
                ),
                (
                    CollectiveRequest::allgather(line, b),
                    lower_bound::t_star_allgather_1d(p64, b64, &m),
                ),
                (CollectiveRequest::gather(line, b), lower_bound::t_star_gather_1d(p64, b64, &m)),
                (CollectiveRequest::scatter(line, b), lower_bound::t_star_scatter_1d(p64, b64, &m)),
                (
                    CollectiveRequest::all_to_all(line, b),
                    lower_bound::t_star_all_to_all_1d(p64, b64, &m),
                ),
            ];
            for (request, bound) in cases {
                let predicted = request.predicted_cycles(&m).unwrap();
                assert!(
                    predicted > 0.0 && predicted >= bound - 1e-6,
                    "p={p}: {:?} predicts {predicted} below its bound {bound}",
                    request.kind
                );
            }
        }
    }

    #[test]
    fn broadcast_predictions_cover_both_topologies() {
        let m = machine();
        // The flood costs about one message, so its runtime grows with the
        // flood distance: a 16x16 grid (distance 30) beats a 1x256 line
        // (distance 255).
        let line = CollectiveRequest::broadcast(Topology::line(256), 64).predicted_cycles(&m);
        let grid = CollectiveRequest::broadcast(Topology::grid(16, 16), 64).predicted_cycles(&m);
        let (line, grid) = (line.unwrap(), grid.unwrap());
        assert!(grid < line, "grid flood {grid} should undercut line flood {line}");
        // Degenerate single-PE broadcasts are free, not negative or NaN.
        for topology in [Topology::line(1), Topology::grid(1, 1)] {
            let request = CollectiveRequest::broadcast(topology, 64);
            assert_eq!(request.predicted_cycles(&m).unwrap(), 0.0);
        }
    }

    fn request_for(kind: CollectiveKind, topology: Topology, vector_len: u32) -> CollectiveRequest {
        CollectiveRequest {
            kind,
            topology,
            vector_len,
            op: ReduceOp::Sum,
            schedule: Schedule::Auto,
            root: Coord::new(0, 0),
        }
    }

    /// One representative schedule per `Schedule` variant family, including
    /// the Auto-Gen patterns (whose predictions require a solver).
    fn schedule_matrix() -> Vec<Schedule> {
        vec![
            Schedule::Auto,
            Schedule::Reduce1d(ReducePattern::Star),
            Schedule::Reduce1d(ReducePattern::AutoGen),
            Schedule::Reduce2d(Reduce2dPattern::Xy(ReducePattern::Chain)),
            Schedule::Reduce2d(Reduce2dPattern::Snake),
            Schedule::AllReduce1d(AllReducePattern::ReduceBroadcast(ReducePattern::Tree)),
            Schedule::AllReduce1d(AllReducePattern::Ring),
            Schedule::AllReduce2d(Reduce2dPattern::Xy(ReducePattern::TwoPhase)),
            Schedule::AllReduceXy(ReducePattern::AutoGen),
            Schedule::ReduceScatterRing,
            Schedule::AllGatherRing,
            Schedule::GatherLine,
            Schedule::ScatterLine,
            Schedule::AllToAllRotate,
        ]
    }

    fn kind_matrix() -> [CollectiveKind; 8] {
        [
            CollectiveKind::Reduce,
            CollectiveKind::AllReduce,
            CollectiveKind::Broadcast,
            CollectiveKind::ReduceScatter,
            CollectiveKind::AllGather,
            CollectiveKind::Gather,
            CollectiveKind::Scatter,
            CollectiveKind::AllToAll,
        ]
    }

    #[test]
    fn check_submission_mirrors_the_plan_building_path() {
        let m = machine();
        // b = 16 divides the line's p = 4 (valid suite requests); b = 13
        // exercises the divisibility rejections; b = 0 the basic validation.
        for kind in kind_matrix() {
            for topology in [Topology::line(4), Topology::grid(2, 3)] {
                for schedule in schedule_matrix() {
                    for b in [16u32, 13, 0] {
                        let request = request_for(kind, topology, b).with_schedule(schedule);
                        // Candidate input sets: the contract shape (when one
                        // exists), an off-by-one count, an off-by-one length
                        // and a generic junk shape.
                        let mut candidates = vec![vec![vec![0.0f32; 3]; 2]];
                        if let Ok((count, len)) = request.input_shape() {
                            candidates.push(vec![vec![0.0; len as usize]; count]);
                            candidates.push(vec![vec![0.0; len as usize]; count + 1]);
                            let mut long = vec![vec![0.0; len as usize]; count];
                            long[0].push(0.0);
                            candidates.push(long);
                        }
                        for inputs in candidates {
                            let via_plan = request
                                .resolve(&m)
                                .and_then(|r| crate::runner::check_inputs(&r.plan, &inputs));
                            let plan_free = request.check_submission(&inputs);
                            assert_eq!(
                                plan_free,
                                via_plan,
                                "check_submission diverges from resolve+check_inputs for \
                                 {request:?} with {} inputs",
                                inputs.len()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn predicted_cycles_matches_resolution_for_auto_and_errors_in_step() {
        let m = machine();
        for kind in kind_matrix() {
            for topology in [Topology::line(4), Topology::grid(2, 3)] {
                for schedule in schedule_matrix() {
                    for b in [16u32, 13, 0] {
                        let request = request_for(kind, topology, b).with_schedule(schedule);
                        match (request.predicted_cycles(&m), request.resolve(&m)) {
                            (Ok(predicted), Ok(resolved)) => {
                                assert!(
                                    predicted.is_finite() && predicted >= 0.0,
                                    "{request:?} predicted {predicted}"
                                );
                                // Every schedule's prediction must equal the
                                // price the resolved plan records.
                                assert_eq!(
                                    predicted,
                                    resolved.predicted_cycles(),
                                    "plan-free prediction diverges for {request:?}"
                                );
                            }
                            (Err(a), Err(b)) => {
                                assert_eq!(a, b, "error mismatch for {request:?}")
                            }
                            (a, b) => panic!(
                                "predicted_cycles and resolve disagree on viability for \
                                 {request:?}: {a:?} vs {:?}",
                                b.map(|r| r.algorithm)
                            ),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn explicit_predictions_never_beat_the_auto_choice() {
        let m = machine();
        // Auto minimises over the same candidate families the explicit
        // schedules come from, so an explicit pick can tie but never win.
        let cases = [
            (
                CollectiveRequest::reduce(Topology::line(12), 64),
                Schedule::Reduce1d(ReducePattern::Star),
            ),
            (
                CollectiveRequest::reduce(Topology::line(12), 64),
                Schedule::Reduce1d(ReducePattern::AutoGen),
            ),
            (
                CollectiveRequest::reduce(Topology::grid(4, 5), 32),
                Schedule::Reduce2d(Reduce2dPattern::Snake),
            ),
            (
                CollectiveRequest::allreduce(Topology::line(8), 64),
                Schedule::AllReduce1d(AllReducePattern::Ring),
            ),
            (
                CollectiveRequest::allreduce(Topology::grid(3, 4), 16),
                Schedule::AllReduce2d(Reduce2dPattern::Xy(ReducePattern::Chain)),
            ),
        ];
        for (auto_request, explicit) in cases {
            let auto = auto_request.predicted_cycles(&m).unwrap();
            let pinned = auto_request.with_schedule(explicit).predicted_cycles(&m).unwrap();
            assert!(
                pinned >= auto - 1e-9,
                "explicit {explicit:?} predicts {pinned}, beating Auto's {auto}"
            );
        }
        // The XY AllReduce is not in Auto's candidate set; its prediction
        // just has to be a sane positive number.
        let xy = CollectiveRequest::allreduce(Topology::grid(3, 4), 16)
            .with_schedule(Schedule::AllReduceXy(ReducePattern::Tree))
            .predicted_cycles(&m)
            .unwrap();
        assert!(xy.is_finite() && xy > 0.0);
    }

    #[test]
    fn input_shape_matches_the_resolved_plan_contract() {
        let m = machine();
        let (p, b) = (4u32, 16u32);
        let cases = [
            CollectiveRequest::reduce(Topology::line(p), b),
            CollectiveRequest::allreduce(Topology::line(p), b),
            CollectiveRequest::broadcast(Topology::line(p), b),
            CollectiveRequest::broadcast(Topology::grid(2, 3), b),
            CollectiveRequest::reduce_scatter(Topology::line(p), b),
            CollectiveRequest::allgather(Topology::line(p), b),
            CollectiveRequest::gather(Topology::line(p), b),
            CollectiveRequest::scatter(Topology::line(p), b),
            CollectiveRequest::all_to_all(Topology::line(p), b),
        ];
        for request in cases {
            let (count, len) = request.input_shape().unwrap();
            let plan = request.resolve(&m).unwrap().plan;
            assert_eq!(count, plan.data_pes().len(), "{:?} input count", request.kind);
            for (_, expected) in plan.input_specs() {
                assert_eq!(len, *expected, "{:?} input length", request.kind);
            }
        }
    }

    #[test]
    fn tenant_ids_order_and_display() {
        assert_eq!(TenantId::DEFAULT, TenantId(0));
        assert!(TenantId(1) < TenantId(2));
        assert_eq!(TenantId(7).to_string(), "tenant-7");
    }
}
