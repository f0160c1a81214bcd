//! The closed-loop workloads: one caller that sends its next request when
//! the previous one returns.
//!
//! * `grid2d_warm` cycles one warm `Session` through three 2D requests:
//!   engine-bound, no plan generation.
//! * `line1d_sweep` runs every kind over a sweep of 1D shapes, each pass on
//!   a fresh `Session`, so every request is resolved cold and every shape
//!   gets a new fabric: the model → select → generate → run flow.

use std::time::Instant;

use wse_collectives::prelude::*;

use crate::cases::{Case, PassModel, Reports};
use crate::layers::{check_layered, Layers};
use crate::util::{micros, Rng};
use crate::{Args, Clock, Measured, Tally, SEED_INPUTS, SEED_ORDER, SETUP_REPS};

/// Input variants per case: runs draw one at random.
const VARIANTS: usize = 2;

/// Which closed loop to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Closed {
    Grid2dWarm,
    Line1dSweep,
}

impl Closed {
    fn requests(self) -> Vec<CollectiveRequest> {
        match self {
            Closed::Grid2dWarm => vec![
                CollectiveRequest::allreduce(Topology::grid(32, 32), 64),
                CollectiveRequest::reduce(Topology::grid(16, 16), 256),
                CollectiveRequest::broadcast(Topology::grid(64, 64), 8),
            ],
            Closed::Line1dSweep => {
                let mut requests = Vec::new();
                for p in [4u32, 8, 16, 32, 64] {
                    for b in [p, 4 * p, 32 * p] {
                        let line = Topology::line(p);
                        requests.extend([
                            CollectiveRequest::reduce(line, b),
                            CollectiveRequest::allreduce(line, b),
                            CollectiveRequest::broadcast(line, b),
                            CollectiveRequest::reduce_scatter(line, b),
                            CollectiveRequest::allgather(line, b),
                            CollectiveRequest::gather(line, b),
                            CollectiveRequest::scatter(line, b),
                            CollectiveRequest::all_to_all(line, b),
                        ]);
                    }
                }
                requests
            }
        }
    }

    /// A warm loop keeps its session; a sweep starts each pass cold.
    fn warm(self) -> bool {
        self == Closed::Grid2dWarm
    }
}

/// Everything the loop needs before its first timed call.
struct Setup {
    cases: Vec<Case>,
    session: Session,
}

fn set_up(workload: Closed, seed: u64, tally: &mut Tally) -> Setup {
    let mut rng = Rng::stream(seed, SEED_INPUTS);
    let cases: Vec<Case> =
        workload.requests().into_iter().map(|r| Case::new(r, VARIANTS, &mut rng)).collect();
    let mut session = Session::new();
    if workload.warm() {
        for case in &cases {
            match session.run(&case.request, &case.variants[0].inputs) {
                Ok(outcome) => tally.gate(case.check(0, &outcome)),
                Err(e) => tally.gate(Err(format!("{}: {e}", case.label()))),
            }
        }
    }
    Setup { cases, session }
}

/// [`set_up`] and the seconds it took.
fn timed_set_up(workload: Closed, seed: u64, tally: &mut Tally) -> (Setup, f64) {
    let start = Instant::now();
    let built = set_up(workload, seed, tally);
    (built, start.elapsed().as_secs_f64())
}

pub fn run(workload: Closed, args: &Args) -> Measured {
    let mut gates = Tally::default();
    let mut setup_times = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let (built, took) = timed_set_up(workload, args.seed, &mut gates);
        setup_times.push(took);
        setup = Some(built);
    }
    let Setup { cases, session } = setup.expect("at least one set-up");
    // Before timing: the layered run reproduces `Session::run`, on every
    // case of the warm loop and on the sweep's smallest shape of each kind
    // (the traced run checks every request).
    gates.gate(check_layered(&cases.iter().take(8).collect::<Vec<_>>()));

    let mut timed =
        Loop { order: Rng::stream(args.seed, SEED_ORDER), reports: Reports::new(&cases) };
    let (mut tally, trace) = if args.trace {
        let (tally, layers) = timed.traced(workload, &cases, args);
        (tally, Some(layers))
    } else {
        // The sampled set-ups are whole ones, dropped once timed.
        let sample = || timed_set_up(workload, args.seed, &mut gates).1;
        (timed.untraced(workload, &cases, session, args, &mut setup_times, sample), None)
    };
    tally.absorb_gates(gates);
    let pass = PassModel::new(&cases, &timed.reports, &vec![1; cases.len()]);
    Measured { setup_times, tally, pass, layers: trace, extra: Vec::new() }
}

/// State of the timed loop: the seeded order stream and the report gate.
struct Loop {
    order: Rng,
    reports: Reports,
}

impl Loop {
    /// The next pass: every case once, in seeded order, each with a seeded
    /// input variant.
    fn pass(&mut self, cases: &[Case]) -> Vec<(usize, usize)> {
        let mut order: Vec<usize> = (0..cases.len()).collect();
        self.order.shuffle(&mut order);
        order.into_iter().map(|i| (i, self.order.below(cases[i].variants.len()))).collect()
    }

    fn untraced(
        &mut self,
        workload: Closed,
        cases: &[Case],
        mut session: Session,
        args: &Args,
        setups: &mut Vec<f64>,
        mut set_up: impl FnMut() -> f64,
    ) -> Tally {
        let mut tally = Tally::default();
        let mut clock = Clock::start(args.seconds, &mut tally, setups);
        while clock.running() {
            if !workload.warm() {
                session = Session::new();
            }
            for (i, v) in self.pass(cases) {
                let case = &cases[i];
                let t0 = Instant::now();
                let result = session.run(&case.request, &case.variants[v].inputs);
                let took = t0.elapsed();
                let checked = result
                    .map_err(|e| format!("{}: {e}", case.label()))
                    .and_then(|outcome| self.reports.gate(cases, i, v, &outcome).map(|()| outcome));
                match checked {
                    Ok(outcome) => tally.ok(micros(took), outcome.runtime_cycles(), case.pes),
                    Err(e) => tally.fail(e),
                }
            }
            clock.sample(&mut tally, setups, &mut set_up);
        }
        tally.elapsed_s = clock.elapsed_s();
        tally
    }

    /// The traced loop: every request runs layer by layer (see
    /// [`Layers::run`]); its latency is the `request` span.
    fn traced(&mut self, workload: Closed, cases: &[Case], args: &Args) -> (Tally, Layers) {
        let mut tally = Tally::default();
        let mut layers = Layers::new();
        if workload.warm() {
            tally.gate(layers.warm(cases));
        }
        let mut rid = 0u64;
        let clock = Clock::start(args.seconds, &mut tally, &mut []);
        while clock.running() {
            if !workload.warm() {
                layers.reset_cold();
            }
            for (i, v) in self.pass(cases) {
                rid += 1;
                let case = &cases[i];
                let checked = layers.run(case, v, rid).and_then(|(outcome, us)| {
                    self.reports.gate(cases, i, v, &outcome).map(|()| (outcome, us))
                });
                match checked {
                    Ok((outcome, us)) => tally.ok(us, outcome.runtime_cycles(), case.pes),
                    Err(e) => tally.fail(e),
                }
            }
        }
        tally.elapsed_s = clock.elapsed_s();
        (tally, layers)
    }
}
