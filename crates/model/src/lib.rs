//! # wse-model — performance model for wafer-scale collectives
//!
//! This crate implements the analytic performance model of
//! *Near-Optimal Wafer-Scale Reduce* (HPDC 2024) for a Cerebras-WSE-like
//! 2D mesh of processing elements (PEs).
//!
//! The model estimates the number of cycles a communication collective
//! takes from four *spatial* cost terms (Table 1 of the paper):
//!
//! * **Energy** `E` — total number of link hops over all wavelets,
//! * **Distance** `L` — largest number of hops any wavelet travels,
//! * **Depth** `D` — longest chain of PEs whose operations depend on each
//!   other's output,
//! * **Contention** `C` — largest number of wavelets a single PE sends or
//!   receives,
//!
//! combined with the number of used links `N` and the ramp latency `T_R`
//! into the runtime estimate (Eq. 1 of the paper):
//!
//! ```text
//! T = max(C, E/N + L) + (2·T_R + 1)·D
//! ```
//!
//! On top of the model, the crate provides
//!
//! * closed-form cost predictions for every collective algorithm analysed
//!   in the paper ([`costs_1d`], [`costs_2d`]),
//! * the 1D Reduce **lower bound** (Lemma 5.5) and the 2D bound
//!   (Lemma 7.2) in [`lower_bound`],
//! * the **Auto-Gen** schedule search — a dynamic program over pre-order
//!   reduction trees (§5.5) in [`autogen`],
//! * model-driven **algorithm selection** and optimality-ratio computation
//!   (Figures 1, 8 and 10) in [`selection`],
//! * the paper's parameter sweeps in [`sweep`].
//!
//! The model is purely analytic: it performs no simulation. The companion
//! crate `wse-fabric` provides a cycle-level simulator which plays the role
//! of the physical CS-2 in this reproduction, and `wse-collectives` builds
//! executable plans whose measured cycle counts can be compared against the
//! predictions made here.
//!
//! ## Quick example
//!
//! ```
//! use wse_model::{Machine, costs_1d, lower_bound, autogen};
//!
//! let m = Machine::wse2();
//! let p = 64;        // PEs in a row
//! let b = 256;       // vector length in 32-bit wavelets (1 KiB of f32)
//!
//! let chain = costs_1d::chain(p, b).predict(&m);
//! let two_phase = costs_1d::two_phase_default(p, b).predict(&m);
//! let auto_gen = autogen::AutogenSolver::new(p).best_cost(b, &m).cycles;
//! let lb = lower_bound::t_star_1d(p, b, &m);
//!
//! assert!(lb <= auto_gen + 1e-9);
//! assert!(auto_gen <= chain + 1e-9);
//! assert!(auto_gen <= two_phase + 1e-9);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod autogen;
pub mod cost;
pub mod costs_1d;
pub mod costs_2d;
pub mod lower_bound;
pub mod machine;
pub mod selection;
pub mod sweep;

pub use autogen::{AutogenSolver, ReductionTree};
pub use cost::CostTerms;
pub use machine::Machine;
pub use selection::{AllReduce1dAlgorithm, Reduce1dAlgorithm, Reduce2dAlgorithm};
