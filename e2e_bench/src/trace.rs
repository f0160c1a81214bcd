//! Spans recorded by the benchmark around calls into each layer, and the
//! layered execution of one request on fabrics the benchmark owns.
//!
//! `Session::run` is plan-cache lookup, fabric checkout (new or reset),
//! plan install, input load, engine run and output extract. `run_layered`
//! makes the same public calls one by one, each inside its own span, so a
//! traced run attributes a request's time to those layers. Before anything
//! is timed, workloads check that it produces byte-identical reports and
//! outputs to an untraced `Session::run`.

use std::collections::HashMap;
use std::io::Write as _;
use std::time::Instant;

use wse_collectives::prelude::*;
use wse_collectives::RunOutcome;
use wse_fabric::{Fabric, FabricParams};

use crate::util::median;

/// One timed call: what, when, under which span, for which request.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Spans kept in memory for the whole run and written when it ends.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let value = f();
        self.close(id);
        value
    }

    /// Record a span measured elsewhere (e.g. on another thread).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span { name, start_ns: at(start), end_ns: at(end), parent: None, request };
        self.spans.push(span);
    }

    /// Durations in microseconds of every span with this name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn median_us(&self, name: &str) -> f64 {
        median(&self.durations_us(name))
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Fabrics owned by the benchmark, one per grid shape, as a session keeps
/// them.
#[derive(Debug)]
pub struct Fabrics {
    params: FabricParams,
    by_dim: HashMap<GridDim, Fabric>,
}

impl Fabrics {
    pub fn new(params: FabricParams) -> Fabrics {
        Fabrics { params, by_dim: HashMap::new() }
    }

    /// Run a resolved plan layer by layer, one span per public call:
    /// `fabric.new` or `fabric.reset`, `plan.apply`, `fabric.load`,
    /// `engine.run` and `fabric.extract`.
    pub fn run_layered(
        &mut self,
        resolved: &ResolvedPlan,
        inputs: &[Vec<f32>],
        trace: &mut Trace,
        parent: Option<usize>,
        request: u64,
    ) -> Result<RunOutcome, String> {
        let plan = &resolved.plan;
        let dim = plan.dim();
        let params = self.params;
        let fabric = match self.by_dim.entry(dim) {
            std::collections::hash_map::Entry::Occupied(entry) => {
                let fabric = entry.into_mut();
                trace.time("fabric.reset", parent, request, || fabric.reset());
                fabric
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                let fabric = trace.time("fabric.new", parent, request, || Fabric::new(dim, params));
                entry.insert(fabric)
            }
        };
        trace.time("plan.apply", parent, request, || plan.apply(fabric));
        trace.time("fabric.load", parent, request, || {
            for ((at, (offset, _)), data) in
                plan.data_pes().iter().zip(plan.input_specs()).zip(inputs)
            {
                if *offset == 0 {
                    fabric.set_local(*at, data);
                } else {
                    fabric.set_local_at(*at, *offset, data);
                }
            }
        });
        let report = trace
            .time("engine.run", parent, request, || fabric.run())
            .map_err(|e| format!("{}: {e}", plan.name()))?;
        let outputs = trace.time("fabric.extract", parent, request, || {
            plan.result_pes()
                .iter()
                .zip(plan.output_specs())
                .map(|(at, (offset, len))| {
                    let start = *offset as usize;
                    (*at, fabric.local(*at)[start..start + *len as usize].to_vec())
                })
                .collect()
        });
        Ok(RunOutcome { report, outputs })
    }
}

/// Byte-for-byte comparison of two outcomes of the same request.
pub fn same_outcome(a: &RunOutcome, b: &RunOutcome) -> bool {
    let bits = |o: &RunOutcome| -> Vec<Vec<u32>> {
        o.outputs.iter().map(|(_, v)| v.iter().map(|x| x.to_bits()).collect()).collect()
    };
    a.report == b.report
        && a.outputs.iter().map(|(at, _)| *at).eq(b.outputs.iter().map(|(at, _)| *at))
        && bits(a) == bits(b)
}
