//! End-to-end integration tests for the 2D collectives of §7.

use wse_collectives::prelude::*;
use wse_integration_tests::{deterministic_inputs, run_and_verify, session_run_and_verify};
use wse_model::Machine;

fn machine() -> Machine {
    Machine::wse2()
}

fn all_2d_patterns() -> Vec<Reduce2dPattern> {
    vec![
        Reduce2dPattern::Xy(ReducePattern::Star),
        Reduce2dPattern::Xy(ReducePattern::Chain),
        Reduce2dPattern::Xy(ReducePattern::Tree),
        Reduce2dPattern::Xy(ReducePattern::TwoPhase),
        Reduce2dPattern::Xy(ReducePattern::AutoGen),
        Reduce2dPattern::Snake,
    ]
}

#[test]
fn reduce_2d_is_correct_on_rectangular_grids() {
    let mut session = Session::new();
    for (w, h) in [(4u32, 4u32), (6, 3), (2, 8), (5, 5)] {
        for pattern in all_2d_patterns() {
            let request = CollectiveRequest::reduce(Topology::grid(w, h), 12)
                .with_schedule(Schedule::Reduce2d(pattern));
            session_run_and_verify(&mut session, &request);
        }
    }
    // One fabric per distinct grid shape, reused across all six patterns.
    assert_eq!(session.stats().fabrics_created, 4);
}

#[test]
fn allreduce_2d_is_correct_and_uses_at_most_five_colors() {
    let mut session = Session::new();
    for pattern in all_2d_patterns() {
        let request = CollectiveRequest::allreduce(Topology::grid(4, 6), 16)
            .with_schedule(Schedule::AllReduce2d(pattern));
        let resolved = session.plan(&request).unwrap();
        assert!(resolved.plan.colors_used().len() <= 5, "{}", resolved.plan.name());
        session_run_and_verify(&mut session, &request);
    }
}

#[test]
fn broadcast_2d_reaches_the_whole_grid_with_message_energy() {
    let dim = GridDim::new(7, 5);
    let b = 24u32;
    let plan = flood_broadcast_2d_plan(dim, b, wse_fabric::wavelet::Color::new(2));
    let inputs = deterministic_inputs(1, b as usize);
    let outcome = run_plan(&plan, &inputs, &RunConfig::default()).unwrap();
    assert_eq!(outcome.outputs.len(), dim.num_pes());
    for (_, out) in &outcome.outputs {
        assert_eq!(out, &inputs[0]);
    }
    assert_eq!(outcome.report.energy_hops, b as u64 * (dim.num_pes() as u64 - 1));
    // 2D broadcast latency is close to B + width + height (§7.1), far below
    // the 1D broadcast over the same PE count.
    let cycles = outcome.runtime_cycles() as f64;
    let model = (b + dim.width + dim.height) as f64 + 5.0;
    assert!((cycles - model).abs() / model < 0.5, "cycles {cycles}, model {model}");
}

#[test]
fn snake_reduce_behaves_like_a_chain_over_the_whole_grid() {
    let m = machine();
    let dim = GridDim::new(6, 4);
    let b = 64u32;
    let snake = run_and_verify(
        &reduce_2d_plan(Reduce2dPattern::Snake, dim, b, ReduceOp::Sum, &m),
        ReduceOp::Sum,
    );
    let chain_1d = run_and_verify(
        &reduce_1d_plan(ReducePattern::Chain, dim.num_pes() as u32, b, ReduceOp::Sum, &m),
        ReduceOp::Sum,
    );
    let rel = (snake as f64 - chain_1d as f64).abs() / chain_1d as f64;
    assert!(rel < 0.1, "snake {snake} vs 1D chain {chain_1d}");
}

#[test]
fn xy_two_phase_beats_snake_on_wide_grids_with_short_vectors() {
    // §7.6: the snake's linear depth makes it hopeless once the grid grows,
    // while the X-Y Two-Phase stays close to the 2D lower bound.
    let m = machine();
    let dim = GridDim::new(16, 16);
    let b = 16u32;
    let snake = run_and_verify(
        &reduce_2d_plan(Reduce2dPattern::Snake, dim, b, ReduceOp::Sum, &m),
        ReduceOp::Sum,
    );
    let xy = run_and_verify(
        &reduce_2d_plan(Reduce2dPattern::Xy(ReducePattern::TwoPhase), dim, b, ReduceOp::Sum, &m),
        ReduceOp::Sum,
    );
    assert!(xy * 3 < snake, "xy {xy} should be far below snake {snake}");
}

#[test]
fn selected_2d_allreduce_is_correct_for_several_shapes() {
    let mut session = Session::new();
    for (side, b) in [(4u32, 64u32), (8, 16), (6, 128)] {
        let request = CollectiveRequest::allreduce(Topology::grid(side, side), b);
        let resolved = session.plan(&request).unwrap();
        let price = request.predicted_cycles(session.machine()).unwrap();
        assert_eq!(resolved.predicted_cycles(), price, "auto requests record the model's price");
        session_run_and_verify(&mut session, &request);
    }
}
