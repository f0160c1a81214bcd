//! One traced request, layer by layer: the body the traced closed loops run
//! for every request and the serving workloads replay for theirs.

use wse_collectives::prelude::*;
use wse_collectives::RunOutcome;
use wse_fabric::FabricParams;

use crate::cases::Case;
use crate::trace::{same_outcome, Fabrics, Trace};

/// The sessions and fabrics a traced request runs on.
pub struct Layers {
    machine: Machine,
    /// Resolves and caches plans for the layered runs.
    session: Session,
    /// Runs the same requests untraced, through `Session::run`.
    reference: Session,
    fabrics: Fabrics,
    nodense: Fabrics,
    /// Engine runs with the dense gear disabled, kept apart so they do not
    /// mix with the default runs' spans.
    pub nodense_trace: Trace,
    pub trace: Trace,
    /// Simulated cycles x PEs of the layered runs.
    pub pe_cycles: f64,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            machine: Machine::wse2(),
            session: Session::new(),
            reference: Session::new(),
            fabrics: Fabrics::new(FabricParams::default()),
            nodense: Fabrics::new(FabricParams::default().with_dense_threshold(101)),
            nodense_trace: Trace::new(),
            trace: Trace::new(),
            pe_cycles: 0.0,
        }
    }

    /// Start cold: fresh sessions and fabrics, as a new caller would.
    pub fn reset_cold(&mut self) {
        let trace = std::mem::replace(&mut self.trace, Trace::new());
        let nodense_trace = std::mem::replace(&mut self.nodense_trace, Trace::new());
        let pe_cycles = self.pe_cycles;
        *self = Layers { trace, nodense_trace, pe_cycles, ..Layers::new() };
    }

    /// Resolve every case once through both sessions (a warm start), timing
    /// the cold resolves.
    pub fn warm(&mut self, cases: &[Case]) -> Result<(), String> {
        for case in cases {
            self.plan(case, None, 0)?;
            self.reference
                .run(&case.request, &case.variants[0].inputs)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// `Session::plan`, in a span named for what it did: `plan.resolve` on
    /// a miss, `cache.lookup` on a hit.
    fn plan(
        &mut self,
        case: &Case,
        parent: Option<usize>,
        rid: u64,
    ) -> Result<std::sync::Arc<ResolvedPlan>, String> {
        let misses = self.session.stats().plan_misses;
        let span = self.trace.open("cache.lookup", parent, rid);
        let plan = self.session.plan(&case.request);
        self.trace.close(span);
        if self.session.stats().plan_misses > misses {
            self.trace.spans[span].name = "plan.resolve";
        }
        plan.map_err(|e| format!("{}: {e}", case.label()))
    }

    /// Run variant `v` of a case layer by layer in a `request` span, then
    /// untraced through `Session::run` (same bytes required) and with the
    /// dense gear off (same report required). Returns the outcome and the
    /// `request` span's length in microseconds.
    pub fn run(&mut self, case: &Case, v: usize, rid: u64) -> Result<(RunOutcome, f64), String> {
        let inputs = &case.variants[v].inputs;
        let machine = &self.machine;
        self.trace.time("model.predict", None, rid, || case.request.predicted_cycles(machine)).ok();
        let root = self.trace.open("request", None, rid);
        let layered = self.plan(case, Some(root), rid).and_then(|plan| {
            let outcome =
                self.fabrics.run_layered(&plan, inputs, &mut self.trace, Some(root), rid)?;
            Ok((plan, outcome))
        });
        self.trace.close(root);
        let reference = &mut self.reference;
        let whole =
            self.trace.time("session.run", None, rid, || reference.run(&case.request, inputs));
        let (plan, layered) = layered?;
        match whole {
            Ok(whole) if same_outcome(&layered, &whole) => {}
            Ok(_) => {
                return Err(format!("{}: layered run differs from Session::run", case.label()))
            }
            Err(e) => return Err(format!("{}: {e}", case.label())),
        }
        let slow = self.nodense.run_layered(&plan, inputs, &mut self.nodense_trace, None, rid)?;
        if slow.report != layered.report {
            return Err(format!("{}: the dense-off run report differs", case.label()));
        }
        self.pe_cycles += layered.runtime_cycles() as f64 * case.pes as f64;
        let span = self.trace.spans[root];
        Ok((layered, (span.end_ns - span.start_ns) as f64 / 1e3))
    }
}

/// Before timing: the layered run must reproduce `Session::run` byte for
/// byte on these cases.
pub fn check_layered(cases: &[&Case]) -> Result<(), String> {
    let mut layers = Layers::new();
    for case in cases {
        layers.run(case, 0, 0)?;
    }
    Ok(())
}
