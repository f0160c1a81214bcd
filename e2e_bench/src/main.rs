//! The repository's benchmark: one command per workload over the whole
//! request path, from the model and plan cache through the fabric engine
//! to the serving front-end.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload grid2d_warm --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every output is checked (reference semantics, lower bound, repeatable
//! run reports). The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The exit code
//! is non-zero when any check failed. Details (the seed, the run-report
//! digest, sample counts) go to `.bench_out/` and standard error; a traced
//! run also writes its spans there. `README.md` maps each per-layer metric
//! to the end-to-end metric it should move.

mod cases;
mod closed;
mod layers;
mod serving;
mod trace;
mod util;
mod yardstick;

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cases::PassModel;
use layers::Layers;
use util::{median, metrics_json, num, peak_rss_mb, percentile, Metric};

/// Seed streams, one per purpose, so e.g. a change to the request order
/// leaves the inputs alone.
pub const SEED_INPUTS: u64 = 1;
pub const SEED_ORDER: u64 = 2;

/// Set-ups before the timed loop. More are sampled during it (see
/// [`Clock::sample`]); `setup_s` is the median of all of them.
pub const SETUP_REPS: usize = 3;

/// Seconds of timed loop between two samples of the host speed and the
/// set-up time (see [`Clock::sample`]).
const SAMPLE_EVERY_S: f64 = 1.0;

const WORKLOADS: [&str; 3] = ["grid2d_warm", "line1d_sweep", "serve_backlog"];

/// Failure messages kept for the report.
const KEPT_FAILURES: usize = 8;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 20.0f64;
        let mut trace = false;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload} (one of {WORKLOADS:?})"));
        }
        Ok(Args { workload, seed, seconds, trace })
    }
}

/// Attempts, failures and latencies of a timed loop.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// One per attempt; a failure counts as an infinite latency.
    pub latencies_us: Vec<f64>,
    /// Simulated cycles x PEs of the successful runs.
    pub pe_cycles: f64,
    /// Host seconds the timed loop took.
    pub elapsed_s: f64,
    /// Where the timed loop's host speed was sampled (see [`Clock`]).
    pub speeds: Vec<SpeedMark>,
}

/// A sample of the host speed, `at_s` seconds into the timed loop, after
/// `samples` latencies.
#[derive(Debug, Clone, Copy)]
pub struct SpeedMark {
    at_s: f64,
    samples: usize,
    speed: f64,
}

impl Tally {
    pub fn ok(&mut self, latency_us: f64, cycles: u64, pes: u64) {
        self.attempted += 1;
        self.latencies_us.push(latency_us);
        self.pe_cycles += cycles as f64 * pes as f64;
    }

    pub fn fail(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        self.latencies_us.push(f64::INFINITY);
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(message);
        }
    }

    /// A check outside the timed loop: counted only if it fails.
    pub fn gate(&mut self, checked: Result<(), String>) {
        if let Err(message) = checked {
            self.fail(message);
        }
    }

    /// Add the set-up and pre-timing checks to the timed loop's tally.
    pub fn absorb_gates(&mut self, gates: Tally) {
        self.attempted += gates.failed;
        self.failed += gates.failed;
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(gates.failures.into_iter().take(room));
    }

    fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Record the host speed `at_s` seconds into the timed loop.
    fn speed_mark(&mut self, at_s: f64, speed: f64) {
        self.speeds.push(SpeedMark { at_s, samples: self.latencies_us.len(), speed });
    }

    /// The timed loop in nominal time (see [`yardstick`]): its length in
    /// nominal seconds and each latency in nominal microseconds. Each
    /// stretch between two speed samples is scaled by their mean. Without
    /// samples at both ends, host time.
    fn nominal(&self) -> (f64, Vec<f64>) {
        let ends = (self.speeds.first(), self.speeds.last());
        let (Some(first), Some(last)) = ends else {
            return (self.elapsed_s, self.latencies_us.clone());
        };
        if first.samples > 0 || last.samples < self.latencies_us.len() {
            return (self.elapsed_s, self.latencies_us.clone());
        }
        let mut elapsed = 0.0;
        let mut latencies = Vec::with_capacity(self.latencies_us.len());
        for pair in self.speeds.windows(2) {
            let (from, to) = (pair[0], pair[1]);
            let speed = (from.speed + to.speed) / 2.0;
            elapsed += (to.at_s - from.at_s) * speed;
            latencies.extend(self.latencies_us[from.samples..to.samples].iter().map(|l| l * speed));
        }
        (elapsed, latencies)
    }
}

/// The timed loop's clock. It stops while the host speed and a set-up
/// are sampled between passes, so the samples count neither in the rates
/// nor in the loop's length.
pub struct Clock {
    start: Instant,
    stopped: Duration,
    seconds: f64,
    last_sample_s: f64,
}

impl Clock {
    /// Start a timed loop that runs for `seconds`. Samples the host speed
    /// first, and turns the set-ups made so far into nominal seconds.
    pub fn start(seconds: f64, tally: &mut Tally, setups: &mut [f64]) -> Clock {
        let speed = yardstick::host_speed();
        setups.iter_mut().for_each(|took| *took *= speed);
        tally.speed_mark(0.0, speed);
        Clock { start: Instant::now(), stopped: Duration::ZERO, seconds, last_sample_s: 0.0 }
    }

    /// Seconds of timed loop so far.
    pub fn elapsed_s(&self) -> f64 {
        (self.start.elapsed() - self.stopped).as_secs_f64()
    }

    pub fn running(&self) -> bool {
        self.elapsed_s() < self.seconds
    }

    /// Once per [`SAMPLE_EVERY_S`] of timed loop, and once the loop is
    /// over, stop the clock, call `set_up`, which does one whole set-up and
    /// returns its time in seconds, and sample the host speed. The set-up
    /// is kept in nominal seconds. Call it between passes.
    pub fn sample(
        &mut self,
        tally: &mut Tally,
        setups: &mut Vec<f64>,
        set_up: impl FnOnce() -> f64,
    ) {
        let now = self.elapsed_s();
        if now - self.last_sample_s < SAMPLE_EVERY_S && now < self.seconds {
            return;
        }
        let stop = Instant::now();
        let took = set_up();
        let speed = yardstick::host_speed();
        setups.push(took * speed);
        tally.speed_mark(now, speed);
        self.stopped += stop.elapsed();
        self.last_sample_s = now;
    }
}

/// What a workload hands back for reporting.
pub struct Measured {
    /// Nominal seconds of each set-up sampled in the run.
    pub setup_times: Vec<f64>,
    pub tally: Tally,
    pub pass: PassModel,
    /// The traced run's spans and sessions.
    pub layers: Option<Layers>,
    /// Per-layer values only the workload can compute (serving counters).
    pub extra: Vec<(&'static str, f64)>,
}

const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("success_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("sim_pe_cycles_per_s", "pe_cycles/s"),
    ("sim_cycles_total", "cycles"),
    ("model_err_mean_pct", "%"),
    ("model_err_max_pct", "%"),
    ("bound_ratio_geomean", "ratio"),
];

const PER_LAYER: [(&str, &str); 31] = [
    ("model.predict_us", "us"),
    ("plan.resolve_us", "us"),
    ("plan.resolves", "count"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("fabric.new_us", "us"),
    ("fabric.reset_us", "us"),
    ("plan.apply_us", "us"),
    ("fabric.load_us", "us"),
    ("fabric.extract_us", "us"),
    ("engine.run_us", "us"),
    ("engine.ns_per_pe_cycle", "ns"),
    ("engine.share_pct", "%"),
    ("engine.nodense_ratio", "ratio"),
    ("sim.energy_hops", "count"),
    ("sim.stall_cycles", "cycles"),
    ("sim.max_link_load", "count"),
    ("sim.links_used", "count"),
    ("session.run_us", "us"),
    ("trace.overhead_pct", "%"),
    ("executor.run_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.service_us", "us"),
    ("serve.wake_us", "us"),
    ("serve.mean_batch_size", "count"),
    ("serve.deadline_flush_frac", "ratio"),
    ("serve.max_queue_depth", "count"),
    ("serve.rejected", "count"),
    ("admit.deferred", "count"),
    ("admit.over_budget", "count"),
    ("admit.pred_err_pct", "%"),
];

/// The end-to-end metrics; `yardstick_mb` is left out of the peak memory.
fn end_to_end(m: &Measured, yardstick_mb: f64) -> HashMap<&'static str, f64> {
    // Read before the statistics below copy the samples.
    let peak_rss_mb = peak_rss_mb() - yardstick_mb;
    let t = &m.tally;
    let (elapsed_s, latencies_us) = t.nominal();
    let (rps, pe_cycles_per_s) =
        (t.completed() as f64 / elapsed_s.max(1e-9), t.pe_cycles / elapsed_s.max(1e-9));
    HashMap::from([
        ("setup_s", median(&m.setup_times)),
        ("throughput_rps", rps),
        ("latency_p50_us", percentile(&latencies_us, 0.50)),
        ("latency_p99_us", percentile(&latencies_us, 0.99)),
        ("success_frac", t.completed() as f64 / t.attempted.max(1) as f64),
        ("peak_rss_mb", peak_rss_mb),
        ("sim_pe_cycles_per_s", pe_cycles_per_s),
        ("sim_cycles_total", m.pass.sim_cycles as f64),
        ("model_err_mean_pct", m.pass.model_err_mean_pct),
        ("model_err_max_pct", m.pass.model_err_max_pct),
        ("bound_ratio_geomean", m.pass.bound_ratio_geomean),
    ])
}

fn per_layer(m: &Measured) -> HashMap<&'static str, f64> {
    let mut values: HashMap<&'static str, f64> = HashMap::from([
        ("sim.energy_hops", m.pass.energy_hops as f64),
        ("sim.stall_cycles", m.pass.stall_cycles as f64),
        ("sim.max_link_load", m.pass.max_link_load as f64),
        ("sim.links_used", m.pass.links_used as f64),
    ]);
    if let Some(layers) = &m.layers {
        let trace = &layers.trace;
        let sum = |name: &str| trace.durations_us(name).iter().sum::<f64>();
        let resolves = trace.count("plan.resolve") as f64;
        let lookups = trace.count("cache.lookup") as f64;
        let engine_us = sum("engine.run");
        values.extend([
            ("model.predict_us", trace.median_us("model.predict")),
            ("plan.resolve_us", trace.median_us("plan.resolve")),
            ("plan.resolves", resolves),
            ("cache.lookup_us", trace.median_us("cache.lookup")),
            ("cache.hit_ratio", lookups / (lookups + resolves).max(1.0)),
            ("fabric.new_us", trace.median_us("fabric.new")),
            ("fabric.reset_us", trace.median_us("fabric.reset")),
            ("plan.apply_us", trace.median_us("plan.apply")),
            ("fabric.load_us", trace.median_us("fabric.load")),
            ("fabric.extract_us", trace.median_us("fabric.extract")),
            ("engine.run_us", trace.median_us("engine.run")),
            ("engine.ns_per_pe_cycle", engine_us * 1e3 / layers.pe_cycles.max(1.0)),
            ("engine.share_pct", 100.0 * engine_us / sum("request").max(1e-9)),
            (
                "engine.nodense_ratio",
                layers.nodense_trace.durations_us("engine.run").iter().sum::<f64>()
                    / engine_us.max(1e-9),
            ),
            ("session.run_us", trace.median_us("session.run")),
            (
                "trace.overhead_pct",
                100.0 * (sum("request") - sum("session.run")) / sum("session.run").max(1e-9),
            ),
        ]);
    }
    values.extend(m.extra.iter().copied());
    values
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Before any workload memory, so the yardstick's pages are its own.
    let yardstick_mb = yardstick::init();
    let measured = match args.workload.as_str() {
        "grid2d_warm" => closed::run(closed::Closed::Grid2dWarm, &args),
        "line1d_sweep" => closed::run(closed::Closed::Line1dSweep, &args),
        "serve_backlog" => serving::run(&args),
        _ => unreachable!("Args::parse accepts only known workloads"),
    };

    let (names, values) = if args.trace {
        (&PER_LAYER[..], per_layer(&measured))
    } else {
        (&END_TO_END[..], end_to_end(&measured, yardstick_mb))
    };
    let metrics: Vec<Metric> = names
        .iter()
        .map(|&(name, unit)| Metric { name, value: values.get(name).copied().unwrap_or(0.0), unit })
        .collect();
    let t = &measured.tally;
    let correct = t.failed == 0;
    let samples = t.latencies_us.len();
    let beyond_p99 = samples.saturating_sub((0.99 * samples as f64).ceil() as usize);
    let details = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cores\": {}, \
         \"samples\": {samples}, \"samples_beyond_p99\": {beyond_p99}, \"setups\": {}, \
         \"report_digest\": \"{}\", \
         \"host_rps\": {}, \"yardstick_mb\": {}, \"host_speed\": [{}], \"failures\": [{}], \"metrics\": {}}}",
        args.workload,
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        measured.setup_times.len(),
        measured.pass.digest.hex(),
        num(t.completed() as f64 / t.elapsed_s.max(1e-9)),
        num(yardstick_mb),
        t.speeds.iter().map(|s| num(s.speed)).collect::<Vec<_>>().join(", "),
        t.failures.iter().map(|f| format!("{f:?}")).collect::<Vec<_>>().join(", "),
        metrics_json(&metrics),
    );
    eprintln!("{details}");
    if let Err(e) = write_outputs(&args, &details, measured.layers.as_ref()) {
        eprintln!("warning: could not write .bench_out: {e}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.attempted,
        t.failed,
        metrics_json(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Record the run's details, and a traced run's spans, under `.bench_out/`.
fn write_outputs(args: &Args, details: &str, layers: Option<&Layers>) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    std::fs::write(dir.join(format!("{stem}.json")), format!("{details}\n"))?;
    if let Some(layers) = layers {
        layers.trace.write(&dir.join(format!("{stem}.spans.jsonl")))?;
    }
    Ok(())
}
