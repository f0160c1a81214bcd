//! Executing plans on the fabric simulator and checking their results.

use wse_fabric::engine::RunReport;
use wse_fabric::geometry::Coord;
use wse_fabric::program::ReduceOp;
use wse_fabric::{EngineKind, Fabric, FabricParams, NoiseModel};

use crate::error::CollectiveError;
use crate::plan::CollectivePlan;

/// Configuration of a simulated run.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Hardware parameters of the fabric (ramp latency, cycle limit).
    pub params: FabricParams,
    /// Optional thermal-noise model (random no-op insertion).
    pub noise: Option<NoiseModel>,
}

impl RunConfig {
    /// A configuration with a non-default ramp latency.
    pub fn with_ramp_latency(ramp_latency: u64) -> Self {
        RunConfig { params: FabricParams::with_ramp_latency(ramp_latency), noise: None }
    }

    /// The same configuration with a different fabric engine. The default is
    /// [`EngineKind::Fast`]; pass [`EngineKind::Reference`] to run on the
    /// exhaustive cycle-stepper (the two are observably byte-identical — see
    /// [`wse_fabric::engine`]).
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.params.engine = engine;
        self
    }
}

/// The result of running a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The fabric's run report (cycles, energy, contention, ...).
    pub report: RunReport,
    /// For every result PE of the plan, its output vector.
    pub outputs: Vec<(Coord, Vec<f32>)>,
}

impl RunOutcome {
    /// The measured runtime of the collective: the cycle at which the last
    /// PE finished its program.
    pub fn runtime_cycles(&self) -> u64 {
        self.report.max_finish()
    }
}

/// Execute a plan on a fresh fabric.
///
/// `inputs` provides one vector per entry of [`CollectivePlan::data_pes`],
/// in the same order; each vector's length must match the plan's per-PE
/// input shape contract ([`CollectivePlan::input_specs`] — the full
/// [`CollectivePlan::vector_len`] for most collectives, one chunk for
/// sharded inputs). Sessions
/// ([`crate::session::Session::run`]) execute the same way but reuse pooled,
/// resettable fabrics instead of allocating a new mesh per call.
pub fn run_plan(
    plan: &CollectivePlan,
    inputs: &[Vec<f32>],
    config: &RunConfig,
) -> Result<RunOutcome, CollectiveError> {
    // Validate before allocating the mesh: a wrong-shaped input must not
    // pay for (and immediately drop) a full fabric.
    check_inputs(plan, inputs)?;
    let mut fabric = Fabric::new(plan.dim(), config.params);
    fabric.set_noise(config.noise.clone());
    execute_on(&mut fabric, plan, inputs)
}

/// Check that `inputs` matches a plan's data PEs and per-PE input shape
/// contract ([`CollectivePlan::input_specs`]): full-length vectors for most
/// collectives, chunk-sized shards for the sharded kinds (e.g. AllGather).
pub(crate) fn check_inputs(
    plan: &CollectivePlan,
    inputs: &[Vec<f32>],
) -> Result<(), CollectiveError> {
    if inputs.len() != plan.data_pes().len() {
        return Err(CollectiveError::InputCountMismatch {
            expected: plan.data_pes().len(),
            got: inputs.len(),
        });
    }
    for (index, (input, (_, expected))) in inputs.iter().zip(plan.input_specs()).enumerate() {
        if input.len() != *expected as usize {
            return Err(CollectiveError::InputLengthMismatch {
                index,
                expected: *expected,
                got: input.len(),
            });
        }
    }
    Ok(())
}

/// Install `plan` and `inputs` on an idle (fresh or reset) fabric of the
/// plan's dimensions and run it to completion.
///
/// Callers must have validated `inputs` with [`check_inputs`] first; both
/// entry points ([`run_plan`] and the executor core behind every session and
/// service) do so before touching a fabric, which also keeps the hot path to
/// one validation pass per run.
pub(crate) fn execute_on(
    fabric: &mut Fabric,
    plan: &CollectivePlan,
    inputs: &[Vec<f32>],
) -> Result<RunOutcome, CollectiveError> {
    debug_assert!(check_inputs(plan, inputs).is_ok(), "execute_on called with unchecked inputs");
    plan.apply(fabric);
    for ((at, (offset, _)), data) in plan.data_pes().iter().zip(plan.input_specs()).zip(inputs) {
        if *offset == 0 {
            fabric.set_local(*at, data);
        } else {
            fabric.set_local_at(*at, *offset, data);
        }
    }
    let report = fabric.run()?;
    let outputs = plan
        .result_pes()
        .iter()
        .zip(plan.output_specs())
        .map(|(at, (offset, len))| {
            let start = *offset as usize;
            (*at, fabric.local(*at)[start..start + *len as usize].to_vec())
        })
        .collect();
    Ok(RunOutcome { report, outputs })
}

/// The reference result of reducing `inputs` element-wise with `op`
/// (left-to-right order, which is also the order the plans accumulate in).
pub fn expected_reduce(inputs: &[Vec<f32>], op: ReduceOp) -> Vec<f32> {
    assert!(!inputs.is_empty());
    let len = inputs[0].len();
    let mut out = inputs[0].clone();
    for input in &inputs[1..] {
        assert_eq!(input.len(), len);
        for (o, v) in out.iter_mut().zip(input) {
            *o = op.apply(*o, *v);
        }
    }
    out
}

/// The largest element-wise relative error between `actual` and `expected`
/// (with a small absolute floor so exact zeros compare cleanly).
pub fn max_relative_error(actual: &[f32], expected: &[f32]) -> f32 {
    assert_eq!(actual.len(), expected.len());
    actual.iter().zip(expected).map(|(a, e)| (a - e).abs() / e.abs().max(1e-6)).fold(0.0, f32::max)
}

/// Assert that every output of an outcome matches the expected vector up to
/// floating-point reassociation error.
pub fn assert_outputs_close(outcome: &RunOutcome, expected: &[f32], tolerance: f32) {
    for (at, output) in &outcome.outputs {
        let err = max_relative_error(output, expected);
        assert!(
            err <= tolerance,
            "output at {at} deviates from the reference by {err} (tolerance {tolerance})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_reduce_applies_op_elementwise() {
        let inputs = vec![vec![1.0f32, 2.0, 3.0], vec![4.0, 5.0, 6.0], vec![7.0, 8.0, 9.0]];
        assert_eq!(expected_reduce(&inputs, ReduceOp::Sum), vec![12.0, 15.0, 18.0]);
        assert_eq!(expected_reduce(&inputs, ReduceOp::Max), vec![7.0, 8.0, 9.0]);
        assert_eq!(expected_reduce(&inputs, ReduceOp::Min), vec![1.0, 2.0, 3.0]);
        assert_eq!(expected_reduce(&inputs, ReduceOp::Prod), vec![28.0, 80.0, 162.0]);
    }

    #[test]
    fn relative_error_handles_zero_references() {
        assert_eq!(max_relative_error(&[0.0], &[0.0]), 0.0);
        assert!(max_relative_error(&[1.0, 2.2], &[1.0, 2.0]) > 0.09);
    }

    #[test]
    fn input_mismatches_are_typed_errors() {
        use crate::broadcast::flood_broadcast_plan;
        use crate::path::LinePath;
        use wse_fabric::geometry::GridDim;
        use wse_fabric::wavelet::Color;

        let path = LinePath::row(GridDim::row(4), 0);
        let plan = flood_broadcast_plan(&path, 8, Color::new(0));
        let err = run_plan(&plan, &[], &RunConfig::default()).unwrap_err();
        assert_eq!(err, CollectiveError::InputCountMismatch { expected: 1, got: 0 });
        let err = run_plan(&plan, &[vec![0.0; 3]], &RunConfig::default()).unwrap_err();
        assert_eq!(err, CollectiveError::InputLengthMismatch { index: 0, expected: 8, got: 3 });
    }
}
