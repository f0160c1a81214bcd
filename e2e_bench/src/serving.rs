//! The serving workload, `serve_backlog`, through a `CollectiveService`.
//!
//! Bursts are submitted with blocking `submit_as` from one thread, then
//! drained, through an active admission policy (shortest predicted first, a
//! per-batch cycle cut, two tenants with token buckets). Latency is each
//! response's enqueue-to-complete time (`Response::latency`).
//!
//! A traced run spends part of its time on the bursts, with spans around
//! submit and wait, then replays the same stream through
//! `Executor::run_batch` one item at a time (the execution floor) and
//! through the layered run of [`Layers`].

use std::time::{Duration, Instant};

use wse_collectives::prelude::*;
use wse_collectives::serve::ServiceStats;

use crate::cases::{Case, PassModel, Reports};
use crate::layers::{check_layered, Layers};
use crate::util::{median, micros, Rng};
use crate::{Args, Clock, Measured, Tally, SEED_INPUTS, SEED_ORDER, SETUP_REPS};

/// Input variants per case.
const VARIANTS: usize = 8;
/// Requests per backlog burst, of which every `LARGE_EVERY`-th is large.
const BACKLOG: usize = 1024;
const LARGE_EVERY: usize = 32;
const SMALL_TENANT: TenantId = TenantId(1);
const LARGE_TENANT: TenantId = TenantId(2);
/// Share of a traced run spent on the bursts; the rest is split between
/// the executor and layered replays.
const TRACED_BURST_SHARE: f64 = 0.6;

/// The backlog's small and large request.
fn backlog_requests() -> Vec<CollectiveRequest> {
    vec![
        CollectiveRequest::reduce(Topology::line(8), 64),
        CollectiveRequest::all_to_all(Topology::line(32), 32),
    ]
}

fn backlog_tenant(case: usize) -> TenantId {
    if case == 0 {
        SMALL_TENANT
    } else {
        LARGE_TENANT
    }
}

/// Shortest predicted first, at most two large requests' worth of
/// predicted cycles per batch, and token buckets: the small tenant's holds
/// a whole burst, the large tenant's four requests, so most large requests
/// of a burst are deferred and released as it refills.
///
/// The queue holds a whole burst and the executor runs each batch on the
/// batcher thread (one worker). On a 2-core host, two workers plus the
/// batcher and the submitter made throughput swing twofold from run to run
/// with the host's steal time; this way it stays within a few percent.
fn backlog_config(cases: &[Case]) -> ServiceConfig {
    let small = cases[0].predicted.ceil();
    let large = cases[1].predicted.ceil();
    let admission = AdmissionConfig::disabled()
        .with_order(BatchOrder::ShortestPredictedFirst)
        .with_max_batch_cycles(2 * large as u64)
        .with_tenant_budget(
            SMALL_TENANT,
            TenantBudget::new(BACKLOG as u64 * small as u64, 50_000.0 * small),
        )
        .with_tenant_budget(LARGE_TENANT, TenantBudget::new(4 * large as u64, 400.0 * large))
        .with_deferred_capacity(BACKLOG);
    let executor =
        ExecutorConfig { workers: std::num::NonZeroUsize::new(1), ..ExecutorConfig::default() };
    ServiceConfig { admission, executor, queue_capacity: BACKLOG, ..ServiceConfig::default() }
}

/// Cases, service and warm-up, and the seconds they took. The warm-up is a
/// small burst with every input variant of every case, which also puts
/// each variant through the gate before timing. Its few dozen milliseconds
/// of work keep the set-up time steadier than one cold run would.
fn set_up(seed: u64, gates: &mut Tally) -> (Vec<Case>, CollectiveService, f64) {
    let start = Instant::now();
    let mut rng = Rng::stream(seed, SEED_INPUTS);
    let cases: Vec<Case> =
        backlog_requests().into_iter().map(|r| Case::new(r, VARIANTS, &mut rng)).collect();
    let service = CollectiveService::with_config(backlog_config(&cases));
    let mut handles = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        for v in 0..VARIANTS {
            let inputs = case.variants[v].inputs.clone();
            handles.push((i, v, service.submit_as(case.request, inputs, backlog_tenant(i))));
        }
    }
    for (i, v, handle) in handles {
        let checked = handle
            .and_then(|handle| handle.wait().result)
            .map_err(|e| format!("{}: {e}", cases[i].label()))
            .and_then(|outcome| cases[i].check(v, &outcome));
        gates.gate(checked);
    }
    (cases, service, start.elapsed().as_secs_f64())
}

/// A whole set-up, shut down once timed: its seconds.
fn sample_set_up(seed: u64, gates: &mut Tally) -> f64 {
    let (_, service, took) = set_up(seed, gates);
    service.shutdown();
    took
}

/// One finished request of a burst.
struct Done {
    case: usize,
    variant: usize,
    submit_start: Instant,
    submit_end: Instant,
    /// When `ResponseHandle::wait` was called and when it returned.
    wait_start: Instant,
    waited: Instant,
    /// `Response::latency`: enqueue to completion inside the service.
    service: Duration,
    /// Measured cycles, once the response passed every check.
    result: Result<u64, String>,
}

/// Serving counters of the bursts.
fn service_extra(
    stats: &ServiceStats,
    max_depth: usize,
    done: &[Done],
) -> Vec<(&'static str, f64)> {
    let submit: Vec<f64> = done.iter().map(|d| micros(d.submit_end - d.submit_start)).collect();
    let service: Vec<f64> = done.iter().map(|d| micros(d.service)).collect();
    // A handle wakes only if its wait began before the response was ready.
    // The service stamps a request inside the submit call, so the response
    // was ready `Response::latency` after a point between the submit's
    // start and return. Only waits that began before the earliest ready
    // time surely blocked; each is timed from the latest, so `wake_us` is a
    // lower bound.
    let wake: Vec<f64> = done
        .iter()
        .filter(|d| d.submit_start + d.service > d.wait_start)
        .map(|d| micros(d.waited.saturating_duration_since(d.submit_end + d.service)))
        .collect();
    vec![
        ("serve.submit_us", median(&submit)),
        ("serve.service_us", median(&service)),
        ("serve.wake_us", median(&wake)),
        ("serve.mean_batch_size", stats.mean_batch_size()),
        ("serve.deadline_flush_frac", stats.deadline_flushes as f64 / stats.batches.max(1) as f64),
        ("serve.max_queue_depth", max_depth as f64),
        ("admit.deferred", stats.deferred as f64),
        // Guards that must stay 0: the queue holds a whole burst, and the
        // config sets no per-request ceiling.
        ("serve.rejected", stats.rejected as f64),
        ("admit.over_budget", stats.over_budget as f64),
    ]
}

/// Record the bursts' spans: each request from its submit to the return
/// of its wait, and the submit and wait calls.
fn record_spans(layers: &mut Layers, done: &[Done]) {
    for (rid, d) in done.iter().enumerate() {
        layers.trace.record("serve.request", d.submit_start, d.waited, rid as u64);
        layers.trace.record("serve.submit", d.submit_start, d.submit_end, rid as u64);
        layers.trace.record("serve.wait", d.wait_start, d.waited, rid as u64);
    }
}

/// The traced run's replays of `stream` (case, variant pairs in arrival
/// order): through `Executor::run_batch` one item at a time, then layer by
/// layer. Returns the executor's median per-item time in microseconds.
fn replay(
    cases: &[Case],
    stream: &[(usize, usize)],
    budget: Duration,
    layers: &mut Layers,
    gates: &mut Tally,
) -> f64 {
    let executor = Executor::new();
    let item =
        |i: usize, v: usize| BatchItem::new(cases[i].request, cases[i].variants[v].inputs.clone());
    for i in 0..cases.len() {
        executor.run_batch(&[item(i, 0)]);
    }
    let mut took = Vec::new();
    let end = Instant::now() + budget / 2;
    for (rid, &(i, v)) in stream.iter().cycle().enumerate() {
        if Instant::now() >= end {
            break;
        }
        let batch = [item(i, v)];
        let start = Instant::now();
        let mut results = executor.run_batch(&batch);
        let finish = Instant::now();
        took.push(micros(finish - start));
        layers.trace.record("executor.run_batch", start, finish, rid as u64);
        let result = results.pop().expect("one result per item");
        gates.gate(
            result
                .map_err(|e| format!("{}: {e}", cases[i].label()))
                .and_then(|o| cases[i].check(v, &o)),
        );
    }

    gates.gate(layers.warm(cases));
    let end = Instant::now() + budget / 2;
    for (rid, &(i, v)) in stream.iter().cycle().enumerate() {
        if Instant::now() >= end {
            break;
        }
        gates.gate(
            layers
                .run(&cases[i], v, rid as u64)
                .and_then(|(outcome, _)| cases[i].check(v, &outcome)),
        );
    }
    median(&took)
}

pub fn run(args: &Args) -> Measured {
    let mut gates = Tally::default();
    let mut setup_times: Vec<f64> =
        (1..SETUP_REPS).map(|_| sample_set_up(args.seed, &mut gates)).collect();
    let (cases, service, took) = set_up(args.seed, &mut gates);
    setup_times.push(took);
    gates.gate(check_layered(&cases.iter().collect::<Vec<_>>()));

    // Spans are timed against the trace's origin, so it starts first.
    let mut layers = args.trace.then(Layers::new);
    let seconds = if args.trace { args.seconds * TRACED_BURST_SHARE } else { args.seconds };
    let mut order = Rng::stream(args.seed, SEED_ORDER);
    let mut reports = Reports::new(&cases);
    let mut tally = Tally::default();
    // Finished requests are kept only when traced, for the spans.
    let mut kept = Vec::new();
    let mut max_depth = 0;
    let mut clock = Clock::start(seconds, &mut tally, &mut setup_times);
    while clock.running() {
        let mut burst: Vec<usize> =
            (0..BACKLOG).map(|k| usize::from(k % LARGE_EVERY == 0)).collect();
        order.shuffle(&mut burst);
        let mut handles = Vec::with_capacity(BACKLOG);
        for (k, &case) in burst.iter().enumerate() {
            let variant = order.below(VARIANTS);
            let inputs = cases[case].variants[variant].inputs.clone();
            let submit_start = Instant::now();
            let handle = service.submit_as(cases[case].request, inputs, backlog_tenant(case));
            let submit_end = Instant::now();
            if args.trace && k % 64 == 0 {
                max_depth = max_depth.max(service.stats().queue_depth);
            }
            handles.push((case, variant, submit_start, submit_end, handle));
        }
        let mut pass = Vec::with_capacity(BACKLOG);
        for (case, variant, submit_start, submit_end, handle) in handles {
            let wait_start = Instant::now();
            let (result, service) = match handle {
                Ok(handle) => {
                    let response = handle.wait();
                    let checked = response
                        .result
                        .map_err(|e| format!("{}: {e}", cases[case].label()))
                        .and_then(|outcome| {
                            let cycles = outcome.runtime_cycles();
                            reports.gate(&cases, case, variant, &outcome).map(|()| cycles)
                        });
                    (checked, response.latency)
                }
                Err(e) => (Err(format!("{}: {e}", cases[case].label())), Duration::ZERO),
            };
            let waited = Instant::now();
            pass.push(Done {
                case,
                variant,
                submit_start,
                submit_end,
                wait_start,
                waited,
                service,
                result,
            });
        }
        for d in &pass {
            match &d.result {
                Ok(cycles) => tally.ok(micros(d.service), *cycles, cases[d.case].pes),
                Err(e) => tally.fail(e.clone()),
            }
        }
        if args.trace {
            kept.append(&mut pass);
        } else {
            clock.sample(&mut tally, &mut setup_times, || sample_set_up(args.seed, &mut gates));
        }
    }
    tally.elapsed_s = clock.elapsed_s();
    let stats = service.stats();
    let prediction = service.executor_stats().prediction;
    service.shutdown();

    let mut extra = service_extra(&stats, max_depth, &kept);
    extra.push(("admit.pred_err_pct", 100.0 * prediction.p99_abs_relative_error));
    if let Some(layers) = &mut layers {
        record_spans(layers, &kept);
        let stream: Vec<(usize, usize)> =
            kept.iter().take(BACKLOG).map(|d| (d.case, d.variant)).collect();
        let budget = Duration::from_secs_f64(args.seconds - seconds);
        let executor_us = replay(&cases, &stream, budget, layers, &mut gates);
        extra.push(("executor.run_us", executor_us));
    }
    tally.absorb_gates(gates);
    let large = (BACKLOG / LARGE_EVERY) as u64;
    let pass = PassModel::new(&cases, &reports, &[BACKLOG as u64 - large, large]);
    Measured { setup_times, tally, pass, layers, extra }
}
