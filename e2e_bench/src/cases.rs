//! Workload cases: a request, seeded inputs, the reference outputs, the
//! model's prediction and the lower bound — and the correctness gate that
//! checks a run against all of them.

use wse_collectives::prelude::*;
use wse_collectives::RunOutcome;
use wse_model::lower_bound;

use wse_fabric::engine::RunReport;

use crate::util::{geomean, mean, Digest, Rng};

/// One distinct request of a workload with everything needed to check it.
#[derive(Debug, Clone)]
pub struct Case {
    pub request: CollectiveRequest,
    /// Input variants; a run uses one of them.
    pub variants: Vec<Variant>,
    /// `CollectiveRequest::predicted_cycles` for the request.
    pub predicted: f64,
    /// Lower bound on the collective's cycles (see [`lower_bound_cycles`]).
    pub bound: f64,
    /// Cycles the simulator's clock origin leaves out of a measurement
    /// that the paper's bounds count: the simulator starts its clock at the
    /// first injection, so the first ramp traversal (`T_R`) is not in its
    /// cycle counts (`tests/model_vs_simulator.rs` allows the same start-up
    /// offset). A run is below the bound if `measured + origin < bound`.
    pub origin: f64,
    /// PEs of the request's topology.
    pub pes: u64,
}

#[derive(Debug, Clone)]
pub struct Variant {
    pub inputs: Vec<Vec<f32>>,
    /// One vector per result PE, in plan result order.
    pub expected: Vec<Vec<f32>>,
}

impl Case {
    /// Build a case with `variants` seeded input sets.
    pub fn new(request: CollectiveRequest, variants: usize, rng: &mut Rng) -> Case {
        let machine = Machine::wse2();
        let variants = (0..variants).map(|_| Variant::new(&request, rng)).collect();
        Case {
            request,
            variants,
            predicted: request.predicted_cycles(&machine).expect("workload requests are valid"),
            bound: lower_bound_cycles(&request, &machine),
            origin: machine.t_r as f64,
            pes: request.topology.num_pes() as u64,
        }
    }

    /// The correctness gate for one run of variant `v`: exact outputs and
    /// measured cycles at or above the lower bound.
    pub fn check(&self, v: usize, outcome: &RunOutcome) -> Result<(), String> {
        let expected = &self.variants[v].expected;
        if outcome.outputs.len() != expected.len() {
            return Err(format!(
                "{}: {} outputs, expected {}",
                self.label(),
                outcome.outputs.len(),
                expected.len()
            ));
        }
        for (k, ((at, got), want)) in outcome.outputs.iter().zip(expected).enumerate() {
            if got != want {
                return Err(format!(
                    "{}: output {k} at {at} differs from the reference",
                    self.label()
                ));
            }
        }
        let measured = outcome.runtime_cycles() as f64;
        if measured + self.origin < self.bound {
            return Err(format!(
                "{}: measured {measured} cycles (+{} for the clock origin) is below the lower bound {}",
                self.label(),
                self.origin,
                self.bound
            ));
        }
        Ok(())
    }

    pub fn label(&self) -> String {
        let r = &self.request;
        let topology = match r.topology {
            Topology::Line(p) => format!("line({p})"),
            Topology::Grid(dim) => format!("grid({},{})", dim.width, dim.height),
        };
        format!("{:?} {topology} b={}", r.kind, r.vector_len)
    }
}

impl Variant {
    fn new(request: &CollectiveRequest, rng: &mut Rng) -> Variant {
        let (count, len) = request.input_shape().expect("workload requests are valid");
        // Multiples of 1/8 in [-8, 8]: every partial sum of up to 2^13 of
        // them is exact in f32, so reductions must match the reference
        // bit for bit whatever order the plan accumulates in.
        let inputs: Vec<Vec<f32>> = (0..count)
            .map(|_| (0..len).map(|_| (rng.below(129) as f32 - 64.0) * 0.125).collect())
            .collect();
        let expected = reference_outputs(request, &inputs);
        Variant { inputs, expected }
    }
}

/// Each kind's reference semantics, one vector per result PE (the layout
/// table of `wse_collectives::request`).
fn reference_outputs(request: &CollectiveRequest, inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let p = request.topology.num_pes();
    let chunk = request.vector_len as usize / p;
    let shards =
        |full: &[f32]| -> Vec<Vec<f32>> { full.chunks(chunk).map(<[f32]>::to_vec).collect() };
    match request.kind {
        CollectiveKind::Reduce => vec![expected_reduce(inputs, request.op)],
        CollectiveKind::AllReduce => vec![expected_reduce(inputs, request.op); p],
        CollectiveKind::Broadcast => vec![inputs[0].clone(); p],
        CollectiveKind::ReduceScatter => shards(&expected_reduce(inputs, request.op)),
        CollectiveKind::AllGather => vec![inputs.concat(); p],
        CollectiveKind::Gather => vec![inputs.concat()],
        CollectiveKind::Scatter => shards(&inputs[0]),
        CollectiveKind::AllToAll => (0..p)
            .map(|x| {
                inputs.iter().flat_map(|sent| &sent[x * chunk..(x + 1) * chunk]).copied().collect()
            })
            .collect(),
    }
}

/// The lower bound on a request's cycles.
///
/// `wse_model::lower_bound` for Reduce (Lemma 5.5 in 1D, Lemma 7.2 in 2D)
/// and the suite kinds. An AllReduce delivers the reduction to every PE, so
/// it is also a Reduce and the Reduce bound holds for it. The model has no
/// Broadcast bound; the counting bound used here is the one the suite kinds
/// use: the root's ramp injects `b` wavelets and the farthest PE lies
/// `hops` links away, so no broadcast ends before `max(b, hops)` cycles.
pub fn lower_bound_cycles(request: &CollectiveRequest, machine: &Machine) -> f64 {
    let b = u64::from(request.vector_len);
    match request.topology {
        Topology::Line(p) => {
            let p = u64::from(p);
            match request.kind {
                CollectiveKind::Reduce | CollectiveKind::AllReduce => {
                    lower_bound::t_star_1d(p, b, machine)
                }
                CollectiveKind::Broadcast => b.max(p - 1) as f64,
                CollectiveKind::ReduceScatter => {
                    lower_bound::t_star_reduce_scatter_1d(p, b, machine)
                }
                CollectiveKind::AllGather => lower_bound::t_star_allgather_1d(p, b, machine),
                CollectiveKind::Gather => lower_bound::t_star_gather_1d(p, b, machine),
                CollectiveKind::Scatter => lower_bound::t_star_scatter_1d(p, b, machine),
                CollectiveKind::AllToAll => lower_bound::t_star_all_to_all_1d(p, b, machine),
            }
        }
        Topology::Grid(dim) => {
            let (m, n) = (u64::from(dim.height), u64::from(dim.width));
            match request.kind {
                CollectiveKind::Broadcast => b.max(m + n - 2) as f64,
                _ => lower_bound::t_star_2d(m, n, b, machine),
            }
        }
    }
}

/// Each case's first run report; every later run of the case must repeat
/// it exactly.
pub struct Reports(Vec<Option<RunReport>>);

impl Reports {
    pub fn new(cases: &[Case]) -> Reports {
        Reports(vec![None; cases.len()])
    }

    /// The full gate for a run of variant `v` of case `i`: reference
    /// outputs, the lower bound, and the report of every earlier run.
    pub fn gate(
        &mut self,
        cases: &[Case],
        i: usize,
        v: usize,
        outcome: &RunOutcome,
    ) -> Result<(), String> {
        cases[i].check(v, outcome)?;
        match &self.0[i] {
            Some(first) if *first != outcome.report => {
                Err(format!("{}: the run report changed between runs", cases[i].label()))
            }
            Some(_) => Ok(()),
            None => {
                self.0[i] = Some(outcome.report.clone());
                Ok(())
            }
        }
    }
}

/// What one pass over a workload simulates, and how the model did on it:
/// deterministic for a fixed seed, whatever the host.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassModel {
    /// Measured cycles summed over one pass.
    pub sim_cycles: u64,
    pub energy_hops: u64,
    pub stall_cycles: u64,
    pub links_used: u64,
    /// The largest single-link load of any run in the pass.
    pub max_link_load: u64,
    /// Over the distinct cases: |measured - predicted| / measured.
    pub model_err_mean_pct: f64,
    pub model_err_max_pct: f64,
    /// Over the distinct cases: measured / lower bound.
    pub bound_ratio_geomean: f64,
    /// Every report of the distinct cases, in case order.
    pub digest: Digest,
}

impl PassModel {
    /// From each distinct case's report (none if it never succeeded) and
    /// how often it runs per pass.
    pub fn new(cases: &[Case], reports: &Reports, per_pass: &[u64]) -> PassModel {
        let mut pass = PassModel::default();
        let mut errors = Vec::new();
        let mut ratios = Vec::new();
        for ((case, report), &count) in cases.iter().zip(&reports.0).zip(per_pass) {
            let Some(report) = report else { continue };
            let measured = report.max_finish();
            pass.sim_cycles += count * measured;
            pass.energy_hops += count * report.energy_hops;
            pass.stall_cycles += count * report.stall_cycles;
            pass.links_used += count * report.links_used;
            pass.max_link_load = pass.max_link_load.max(report.max_link_load);
            errors.push((measured as f64 - case.predicted).abs() / measured as f64 * 100.0);
            ratios.push(measured as f64 / case.bound);
            pass.digest.report(report);
        }
        pass.model_err_mean_pct = mean(&errors);
        pass.model_err_max_pct = errors.iter().copied().fold(0.0, f64::max);
        pass.bound_ratio_geomean = geomean(&ratios);
        pass
    }
}
