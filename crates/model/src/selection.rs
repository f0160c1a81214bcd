//! Model-driven algorithm selection and optimality ratios.
//!
//! This module answers the questions behind Figures 1, 8 and 10 of the
//! paper: *which algorithm does the model predict to be fastest for a given
//! PE count and vector length*, and *how far is each algorithm from the
//! lower bound*.

use crate::costs_2d::Phase1d;
use crate::{autogen::AutogenSolver, costs_1d, costs_2d, lower_bound, Machine};

/// The 1D Reduce algorithms compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reduce1dAlgorithm {
    /// Star Reduce (§5.1).
    Star,
    /// Chain Reduce (§5.2) — the vendor's pattern.
    Chain,
    /// Binary Tree Reduce (§5.3).
    Tree,
    /// Two-Phase Reduce (§5.4), group size `S ≈ sqrt(P)`.
    TwoPhase,
    /// Auto-Gen Reduce (§5.5).
    AutoGen,
}

impl Reduce1dAlgorithm {
    /// The fixed (non-generated) algorithms, in the paper's order.
    pub fn fixed() -> [Reduce1dAlgorithm; 4] {
        [Self::Star, Self::Chain, Self::Tree, Self::TwoPhase]
    }

    /// All algorithms including Auto-Gen.
    pub fn all() -> [Reduce1dAlgorithm; 5] {
        [Self::Star, Self::Chain, Self::Tree, Self::TwoPhase, Self::AutoGen]
    }

    /// Name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Star => "Star",
            Self::Chain => "Chain",
            Self::Tree => "Tree",
            Self::TwoPhase => "Two-Phase",
            Self::AutoGen => "Auto-Gen",
        }
    }

    /// Predicted Reduce cycles for `p` PEs and `b` wavelets.
    ///
    /// For [`Reduce1dAlgorithm::AutoGen`] an [`AutogenSolver`] for `p` must
    /// be supplied (it is reusable across vector lengths); passing `None`
    /// builds one on the fly.
    pub fn cycles(&self, p: u64, b: u64, machine: &Machine, solver: Option<&AutogenSolver>) -> f64 {
        match self {
            Self::Star => costs_1d::star(p, b).predict(machine),
            Self::Chain => costs_1d::chain(p, b).predict(machine),
            Self::Tree => costs_1d::tree(p, b).predict(machine),
            Self::TwoPhase => costs_1d::two_phase_default(p, b).predict(machine),
            Self::AutoGen => match solver {
                Some(s) => {
                    assert_eq!(s.pes(), p, "solver built for a different PE count");
                    s.best_cost(b, machine).cycles
                }
                None => AutogenSolver::new(p).best_cost(b, machine).cycles,
            },
        }
    }
}

/// The 1D AllReduce algorithms compared in Figure 8 and §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllReduce1dAlgorithm {
    /// Star Reduce followed by the flooding Broadcast.
    StarBcast,
    /// Chain Reduce followed by Broadcast — the vendor's approach.
    ChainBcast,
    /// Tree Reduce followed by Broadcast.
    TreeBcast,
    /// Two-Phase Reduce followed by Broadcast.
    TwoPhaseBcast,
    /// Auto-Gen Reduce followed by Broadcast.
    AutoGenBcast,
    /// Ring AllReduce (§6.2).
    Ring,
    /// Butterfly (recursive doubling) AllReduce, predicted only.
    Butterfly,
}

impl AllReduce1dAlgorithm {
    /// The fixed algorithms considered for the best-algorithm regions of
    /// Figure 8 (Auto-Gen and Butterfly excluded, as in the paper).
    pub fn fixed() -> [AllReduce1dAlgorithm; 5] {
        [Self::StarBcast, Self::ChainBcast, Self::TreeBcast, Self::TwoPhaseBcast, Self::Ring]
    }

    /// Every AllReduce variant the paper discusses.
    pub fn all() -> [AllReduce1dAlgorithm; 7] {
        [
            Self::StarBcast,
            Self::ChainBcast,
            Self::TreeBcast,
            Self::TwoPhaseBcast,
            Self::AutoGenBcast,
            Self::Ring,
            Self::Butterfly,
        ]
    }

    /// Name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Self::StarBcast => "Star+Bcast",
            Self::ChainBcast => "Chain+Bcast",
            Self::TreeBcast => "Tree+Bcast",
            Self::TwoPhaseBcast => "Two Phase+Bcast",
            Self::AutoGenBcast => "Auto-Gen+Bcast",
            Self::Ring => "Ring",
            Self::Butterfly => "Butterfly",
        }
    }

    /// Predicted AllReduce cycles for `p` PEs and `b` wavelets.
    pub fn cycles(&self, p: u64, b: u64, machine: &Machine, solver: Option<&AutogenSolver>) -> f64 {
        let rtb = |reduce: f64| costs_1d::reduce_then_broadcast(reduce, p, b, machine);
        match self {
            Self::StarBcast => rtb(Reduce1dAlgorithm::Star.cycles(p, b, machine, solver)),
            Self::ChainBcast => rtb(Reduce1dAlgorithm::Chain.cycles(p, b, machine, solver)),
            Self::TreeBcast => rtb(Reduce1dAlgorithm::Tree.cycles(p, b, machine, solver)),
            Self::TwoPhaseBcast => rtb(Reduce1dAlgorithm::TwoPhase.cycles(p, b, machine, solver)),
            Self::AutoGenBcast => rtb(Reduce1dAlgorithm::AutoGen.cycles(p, b, machine, solver)),
            Self::Ring => costs_1d::ring_allreduce(p, b).predict(machine),
            Self::Butterfly => costs_1d::butterfly_allreduce(p, b).predict(machine),
        }
    }
}

/// The 2D Reduce algorithms compared in §7 and Figure 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reduce2dAlgorithm {
    /// X-Y Reduce with a Star phase on each axis.
    XyStar,
    /// X-Y Reduce with a Chain phase on each axis — the vendor's pattern.
    XyChain,
    /// X-Y Reduce with a Tree phase on each axis.
    XyTree,
    /// X-Y Reduce with a Two-Phase phase on each axis.
    XyTwoPhase,
    /// X-Y Reduce with an Auto-Gen phase on each axis.
    XyAutoGen,
    /// The Snake Reduce (§7.3).
    Snake,
}

impl Reduce2dAlgorithm {
    /// The fixed algorithms considered for the best-algorithm regions of
    /// Figure 10 / Figure 13.
    pub fn fixed() -> [Reduce2dAlgorithm; 5] {
        [Self::XyStar, Self::XyChain, Self::XyTree, Self::XyTwoPhase, Self::Snake]
    }

    /// Every 2D Reduce variant including X-Y Auto-Gen.
    pub fn all() -> [Reduce2dAlgorithm; 6] {
        [Self::XyStar, Self::XyChain, Self::XyTree, Self::XyTwoPhase, Self::XyAutoGen, Self::Snake]
    }

    /// Name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Self::XyStar => "X-Y Star",
            Self::XyChain => "X-Y Chain",
            Self::XyTree => "X-Y Tree",
            Self::XyTwoPhase => "X-Y Two Phase",
            Self::XyAutoGen => "X-Y Auto-Gen",
            Self::Snake => "Snake",
        }
    }

    /// Predicted 2D Reduce cycles for an `m × n` grid and `b` wavelets.
    ///
    /// For X-Y Auto-Gen, `row_solver` and `col_solver` are Auto-Gen solvers
    /// for the row length `n` and column length `m` respectively (built on
    /// the fly when `None`).
    pub fn cycles(
        &self,
        m_rows: u64,
        n_cols: u64,
        b: u64,
        machine: &Machine,
        row_solver: Option<&AutogenSolver>,
        col_solver: Option<&AutogenSolver>,
    ) -> f64 {
        match self {
            Self::XyStar => costs_2d::xy_reduce(m_rows, n_cols, b, Phase1d::Star, machine),
            Self::XyChain => costs_2d::xy_reduce(m_rows, n_cols, b, Phase1d::Chain, machine),
            Self::XyTree => costs_2d::xy_reduce(m_rows, n_cols, b, Phase1d::Tree, machine),
            Self::XyTwoPhase => costs_2d::xy_reduce(m_rows, n_cols, b, Phase1d::TwoPhase, machine),
            Self::XyAutoGen => {
                let x = Reduce1dAlgorithm::AutoGen.cycles(n_cols, b, machine, row_solver);
                let y = Reduce1dAlgorithm::AutoGen.cycles(m_rows, b, machine, col_solver);
                x + y
            }
            Self::Snake => costs_2d::snake_reduce(m_rows, n_cols, b, machine),
        }
    }

    /// Predicted 2D AllReduce cycles: this Reduce followed by the 2D
    /// flooding Broadcast (§7.4).
    pub fn allreduce_cycles(
        &self,
        m_rows: u64,
        n_cols: u64,
        b: u64,
        machine: &Machine,
        row_solver: Option<&AutogenSolver>,
        col_solver: Option<&AutogenSolver>,
    ) -> f64 {
        let red = self.cycles(m_rows, n_cols, b, machine, row_solver, col_solver);
        costs_2d::reduce_then_broadcast_2d(red, m_rows, n_cols, b, machine)
    }
}

/// Result of a best-algorithm query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Best<A> {
    /// The winning algorithm.
    pub algorithm: A,
    /// Its predicted runtime in cycles.
    pub cycles: f64,
}

/// The fixed 1D Reduce algorithm the model predicts to be fastest.
pub fn best_fixed_reduce_1d(p: u64, b: u64, machine: &Machine) -> Best<Reduce1dAlgorithm> {
    let mut best = Best { algorithm: Reduce1dAlgorithm::Star, cycles: f64::INFINITY };
    for alg in Reduce1dAlgorithm::fixed() {
        let t = alg.cycles(p, b, machine, None);
        if t < best.cycles {
            best = Best { algorithm: alg, cycles: t };
        }
    }
    best
}

/// The fixed 1D AllReduce algorithm the model predicts to be fastest
/// (Figure 8's best-algorithm regions).
pub fn best_fixed_allreduce_1d(p: u64, b: u64, machine: &Machine) -> Best<AllReduce1dAlgorithm> {
    let mut best = Best { algorithm: AllReduce1dAlgorithm::Ring, cycles: f64::INFINITY };
    for alg in AllReduce1dAlgorithm::fixed() {
        let t = alg.cycles(p, b, machine, None);
        if t < best.cycles {
            best = Best { algorithm: alg, cycles: t };
        }
    }
    best
}

/// The fixed 2D Reduce algorithm the model predicts to be fastest.
pub fn best_fixed_reduce_2d(
    m_rows: u64,
    n_cols: u64,
    b: u64,
    machine: &Machine,
) -> Best<Reduce2dAlgorithm> {
    let mut best = Best { algorithm: Reduce2dAlgorithm::Snake, cycles: f64::INFINITY };
    for alg in Reduce2dAlgorithm::fixed() {
        let t = alg.cycles(m_rows, n_cols, b, machine, None, None);
        if t < best.cycles {
            best = Best { algorithm: alg, cycles: t };
        }
    }
    best
}

/// The fixed 2D AllReduce algorithm the model predicts to be fastest
/// (Figure 10's best-algorithm regions).
pub fn best_fixed_allreduce_2d(
    m_rows: u64,
    n_cols: u64,
    b: u64,
    machine: &Machine,
) -> Best<Reduce2dAlgorithm> {
    let mut best = Best { algorithm: Reduce2dAlgorithm::Snake, cycles: f64::INFINITY };
    for alg in Reduce2dAlgorithm::fixed() {
        let t = alg.allreduce_cycles(m_rows, n_cols, b, machine, None, None);
        if t < best.cycles {
            best = Best { algorithm: alg, cycles: t };
        }
    }
    best
}

/// Optimality ratio of a 1D Reduce algorithm: predicted cycles divided by
/// the lower bound `T*` (Figure 1). A ratio of `1.0` is optimal.
pub fn optimality_ratio_1d(
    alg: Reduce1dAlgorithm,
    p: u64,
    b: u64,
    machine: &Machine,
    solver: Option<&AutogenSolver>,
    bound: Option<&lower_bound::LowerBound1d>,
) -> f64 {
    let t = alg.cycles(p, b, machine, solver);
    let lb = match bound {
        Some(lb) => {
            assert_eq!(lb.pes(), p);
            lb.t_star(b, machine)
        }
        None => lower_bound::t_star_1d(p, b, machine),
    };
    if lb <= 0.0 {
        1.0
    } else {
        t / lb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mach() -> Machine {
        Machine::wse2()
    }

    #[test]
    fn best_reduce_regions_match_section_5_7() {
        let m = mach();
        // Star is effective for scalars (on moderate PE counts; for very long
        // rows the model prefers the tree even for scalars).
        assert_eq!(best_fixed_reduce_1d(16, 1, &m).algorithm, Reduce1dAlgorithm::Star);
        // Chain excels for very large vectors.
        assert_eq!(best_fixed_reduce_1d(16, 8192, &m).algorithm, Reduce1dAlgorithm::Chain);
        // Two-Phase is effective when P ≈ B.
        assert_eq!(best_fixed_reduce_1d(256, 256, &m).algorithm, Reduce1dAlgorithm::TwoPhase);
        // Tree is effective for small (but not scalar) vectors on many PEs.
        assert_eq!(best_fixed_reduce_1d(512, 8, &m).algorithm, Reduce1dAlgorithm::Tree);
    }

    #[test]
    fn best_allreduce_includes_a_ring_region() {
        // Figure 8: the ring overtakes Chain+Bcast when the runtime is
        // dominated by contention (few PEs, huge vectors).
        let m = mach();
        let best = best_fixed_allreduce_1d(4, 8192, &m);
        assert_eq!(best.algorithm, AllReduce1dAlgorithm::Ring);
        // ... but for many PEs the reduce-then-broadcast patterns win.
        let best = best_fixed_allreduce_1d(512, 256, &m);
        assert_ne!(best.algorithm, AllReduce1dAlgorithm::Ring);
    }

    #[test]
    fn vendor_chain_is_never_better_than_the_best() {
        let m = mach();
        for p in [4u64, 16, 64, 256] {
            for b in [1u64, 16, 256, 4096] {
                let best = best_fixed_allreduce_1d(p, b, &m);
                let chain = AllReduce1dAlgorithm::ChainBcast.cycles(p, b, &m, None);
                assert!(best.cycles <= chain + 1e-9);
            }
        }
    }

    #[test]
    fn two_phase_speedup_over_vendor_exceeds_two_at_512_pes() {
        // The paper reports up to 3.3x (Reduce) / 2.5x (AllReduce) speedups
        // over the vendor chain on 512x512 PEs; already in 1D at 512 PEs and
        // intermediate vector lengths the model predicts a sizeable win.
        let m = mach();
        let p = 512;
        let b = 256;
        let chain = Reduce1dAlgorithm::Chain.cycles(p, b, &m, None);
        let two_phase = Reduce1dAlgorithm::TwoPhase.cycles(p, b, &m, None);
        assert!(chain / two_phase > 2.0, "speedup {}", chain / two_phase);
    }

    #[test]
    fn snake_wins_small_grids_xy_two_phase_wins_large_grids() {
        let m = mach();
        assert_eq!(best_fixed_reduce_2d(4, 4, 4096, &m).algorithm, Reduce2dAlgorithm::Snake);
        assert_eq!(
            best_fixed_reduce_2d(512, 512, 256, &m).algorithm,
            Reduce2dAlgorithm::XyTwoPhase
        );
        assert_eq!(best_fixed_reduce_2d(512, 512, 1, &m).algorithm, Reduce2dAlgorithm::XyTree);
    }

    #[test]
    fn optimality_ratio_is_at_least_one_for_fixed_algorithms() {
        let m = mach();
        for p in [8u64, 32, 64] {
            let lb = lower_bound::LowerBound1d::new(p);
            for b in [1u64, 32, 1024] {
                for alg in Reduce1dAlgorithm::fixed() {
                    let r = optimality_ratio_1d(alg, p, b, &m, None, Some(&lb));
                    assert!(r >= 1.0 - 1e-9, "{:?} p={p} b={b}: ratio {r}", alg);
                }
            }
        }
    }

    #[test]
    fn autogen_ratio_never_exceeds_fixed_ratios() {
        let m = mach();
        let p = 32u64;
        let solver = AutogenSolver::new(p);
        let lb = lower_bound::LowerBound1d::new(p);
        for b in [1u64, 8, 64, 512, 4096] {
            let auto =
                optimality_ratio_1d(Reduce1dAlgorithm::AutoGen, p, b, &m, Some(&solver), Some(&lb));
            for alg in Reduce1dAlgorithm::fixed() {
                let fixed = optimality_ratio_1d(alg, p, b, &m, None, Some(&lb));
                assert!(auto <= fixed + 1e-9, "b={b}: auto {auto} vs {:?} {fixed}", alg);
            }
        }
    }

    #[test]
    fn algorithm_names_are_stable() {
        assert_eq!(Reduce1dAlgorithm::TwoPhase.name(), "Two-Phase");
        assert_eq!(AllReduce1dAlgorithm::ChainBcast.name(), "Chain+Bcast");
        assert_eq!(Reduce2dAlgorithm::XyChain.name(), "X-Y Chain");
    }
}
