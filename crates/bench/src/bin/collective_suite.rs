//! Collective-suite sweep: measure the five inference collectives
//! (ReduceScatter, AllGather, Gather, Scatter, All-to-All) end to end and
//! record simulated cycles next to the cost model's prediction and the
//! per-kind lower bound.
//!
//! Two sections:
//!
//! 1. a per-kind `(p, b)` sweep through a `Session` with `Schedule::Auto`,
//!    every output verified against the kind's reference semantics in-bin,
//! 2. a mixed-kind batch through the parallel `Executor`, asserted
//!    byte-identical to the same batch run sequentially on a fresh
//!    `Session` — the serving path treats the new kinds exactly like the
//!    established ones.
//!
//! Results are printed as a table and written as JSON.
//!
//! Flags:
//!
//! * `--quick`   fewer points (CI smoke run)
//! * `--out F`   JSON output path (default `BENCH_collectives.json`)

use std::time::Instant;

use wse_bench::make_inputs;
use wse_collectives::prelude::*;
use wse_model::lower_bound::{
    t_star_all_to_all_1d, t_star_allgather_1d, t_star_gather_1d, t_star_reduce_scatter_1d,
    t_star_scatter_1d,
};

struct Options {
    quick: bool,
    out: String,
}

impl Options {
    fn from_args() -> Self {
        let mut opts = Options { quick: false, out: "BENCH_collectives.json".to_string() };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--out" => opts.out = args.next().expect("--out needs a path"),
                other => {
                    eprintln!("ignoring unknown argument {other:?} (supported: --quick, --out F)")
                }
            }
        }
        opts
    }
}

/// One measured sweep point.
struct Point {
    kind: &'static str,
    algorithm: String,
    p: u32,
    b: u32,
    measured_cycles: u64,
    predicted_cycles: f64,
    bound_cycles: f64,
}

const KINDS: [CollectiveKind; 5] = [
    CollectiveKind::ReduceScatter,
    CollectiveKind::AllGather,
    CollectiveKind::Gather,
    CollectiveKind::Scatter,
    CollectiveKind::AllToAll,
];

fn kind_name(kind: CollectiveKind) -> &'static str {
    match kind {
        CollectiveKind::ReduceScatter => "reduce_scatter",
        CollectiveKind::AllGather => "allgather",
        CollectiveKind::Gather => "gather",
        CollectiveKind::Scatter => "scatter",
        CollectiveKind::AllToAll => "all_to_all",
        _ => "other",
    }
}

fn request_for(kind: CollectiveKind, p: u32, b: u32) -> CollectiveRequest {
    match kind {
        CollectiveKind::ReduceScatter => CollectiveRequest::reduce_scatter(Topology::line(p), b),
        CollectiveKind::AllGather => CollectiveRequest::allgather(Topology::line(p), b),
        CollectiveKind::Gather => CollectiveRequest::gather(Topology::line(p), b),
        CollectiveKind::Scatter => CollectiveRequest::scatter(Topology::line(p), b),
        CollectiveKind::AllToAll => CollectiveRequest::all_to_all(Topology::line(p), b),
        other => panic!("not a suite kind: {other:?}"),
    }
}

/// Kind-appropriate inputs: full vectors where every PE contributes `b`
/// elements, shards where each contributes `b / p`, one root vector for
/// Scatter.
fn inputs_for(kind: CollectiveKind, p: u32, b: u32) -> Vec<Vec<f32>> {
    let chunk = (b / p) as usize;
    match kind {
        CollectiveKind::AllGather | CollectiveKind::Gather => {
            let full = make_inputs(1, b as usize).remove(0);
            full.chunks(chunk).map(<[f32]>::to_vec).collect()
        }
        CollectiveKind::Scatter => make_inputs(1, b as usize),
        _ => make_inputs(p as usize, b as usize),
    }
}

/// Verify `outputs` against the kind's reference semantics over `inputs`.
fn verify(
    kind: CollectiveKind,
    p: u32,
    b: u32,
    inputs: &[Vec<f32>],
    outputs: &[(Coord, Vec<f32>)],
) {
    let chunk = (b / p) as usize;
    match kind {
        CollectiveKind::ReduceScatter => {
            let reduced = expected_reduce(inputs, ReduceOp::Sum);
            assert_eq!(outputs.len(), p as usize);
            for (k, (_, got)) in outputs.iter().enumerate() {
                assert_eq!(got, &reduced[k * chunk..(k + 1) * chunk], "shard {k}");
            }
        }
        CollectiveKind::AllGather => {
            let full: Vec<f32> = inputs.concat();
            assert_eq!(outputs.len(), p as usize);
            for (_, got) in outputs {
                assert_eq!(got, &full);
            }
        }
        CollectiveKind::Gather => {
            let full: Vec<f32> = inputs.concat();
            assert_eq!(outputs.len(), 1);
            assert_eq!(outputs[0].1, full);
        }
        CollectiveKind::Scatter => {
            assert_eq!(outputs.len(), p as usize);
            for (k, (_, got)) in outputs.iter().enumerate() {
                assert_eq!(got, &inputs[0][k * chunk..(k + 1) * chunk], "shard {k}");
            }
        }
        CollectiveKind::AllToAll => {
            assert_eq!(outputs.len(), p as usize);
            for (x, (_, got)) in outputs.iter().enumerate() {
                for (s, sent) in inputs.iter().enumerate() {
                    assert_eq!(
                        &got[s * chunk..(s + 1) * chunk],
                        &sent[x * chunk..(x + 1) * chunk],
                        "chunk from PE {s} at PE {x}"
                    );
                }
            }
        }
        other => panic!("not a suite kind: {other:?}"),
    }
}

fn bound_for(kind: CollectiveKind, p: u32, b: u32, machine: &Machine) -> f64 {
    let (p, b) = (u64::from(p), u64::from(b));
    match kind {
        CollectiveKind::ReduceScatter => t_star_reduce_scatter_1d(p, b, machine),
        CollectiveKind::AllGather => t_star_allgather_1d(p, b, machine),
        CollectiveKind::Gather => t_star_gather_1d(p, b, machine),
        CollectiveKind::Scatter => t_star_scatter_1d(p, b, machine),
        CollectiveKind::AllToAll => t_star_all_to_all_1d(p, b, machine),
        other => panic!("not a suite kind: {other:?}"),
    }
}

/// Run one `(kind, p, b)` point through the session and verify the outputs.
fn run_point(session: &mut Session, kind: CollectiveKind, p: u32, b: u32) -> Point {
    let machine = Machine::wse2();
    let request = request_for(kind, p, b);
    let resolved = session.plan(&request).expect("suite request resolves");
    let inputs = inputs_for(kind, p, b);
    let outcome = session.run(&request, &inputs).expect("suite request runs");
    verify(kind, p, b, &inputs, &outcome.outputs);
    Point {
        kind: kind_name(kind),
        algorithm: resolved.algorithm.clone(),
        p,
        b,
        measured_cycles: outcome.runtime_cycles(),
        predicted_cycles: resolved.predicted_cycles(),
        bound_cycles: bound_for(kind, p, b, &machine),
    }
}

/// The mixed-kind batch: all five kinds (plus an AllReduce) at assorted
/// sizes, run in parallel and asserted byte-identical to the sequential
/// reference.
fn run_mixed_batch(quick: bool) -> (usize, f64, f64, u64, u64) {
    let sizes: &[(u32, u32)] =
        if quick { &[(4, 16), (8, 32)] } else { &[(4, 16), (8, 32), (16, 128), (24, 96)] };
    let mut batch = Vec::new();
    for &(p, b) in sizes {
        for kind in KINDS {
            batch.push(BatchItem::new(request_for(kind, p, b), inputs_for(kind, p, b)));
        }
        batch.push(BatchItem::new(
            CollectiveRequest::allreduce(Topology::line(p), b),
            make_inputs(p as usize, b as usize),
        ));
    }

    let executor = Executor::new();
    let start = Instant::now();
    let parallel = executor.run_batch(&batch);
    let parallel_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut session = Session::new();
    let start = Instant::now();
    let sequential = session.run_batch(&batch);
    let sequential_ms = start.elapsed().as_secs_f64() * 1e3;

    for (i, (par, seq)) in parallel.iter().zip(&sequential).enumerate() {
        let (par, seq) = (par.as_ref().expect("parallel run"), seq.as_ref().expect("sequential"));
        assert_eq!(par.report, seq.report, "item {i} diverged");
        assert_eq!(par.outputs, seq.outputs, "item {i} diverged");
    }
    let stats = executor.stats();
    (batch.len(), parallel_ms, sequential_ms, stats.plan_misses, stats.fabrics_created)
}

fn json(points: &[Point], quick: bool, batch: (usize, f64, f64, u64, u64)) -> String {
    let (batch_len, parallel_ms, sequential_ms, plan_misses, fabrics_created) = batch;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"collective_suite\",\n");
    out.push_str(
        "  \"workload\": \"suite kinds on line(p) via Schedule::Auto, outputs verified\",\n",
    );
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"points\": [\n");
    for (i, pt) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kind\": \"{}\", \"algorithm\": \"{}\", \"p\": {}, \"b\": {}, \
             \"measured_cycles\": {}, \"predicted_cycles\": {:.1}, \"bound_cycles\": {:.1}}}{}\n",
            pt.kind,
            pt.algorithm,
            pt.p,
            pt.b,
            pt.measured_cycles,
            pt.predicted_cycles,
            pt.bound_cycles,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"mixed_batch\": {{\"items\": {batch_len}, \"parallel_ms\": {parallel_ms:.2}, \
         \"sequential_ms\": {sequential_ms:.2}, \"plan_misses\": {plan_misses}, \
         \"fabrics_created\": {fabrics_created}, \"byte_identical\": true}}\n"
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let opts = Options::from_args();
    let pes: &[u32] = if opts.quick { &[4, 8] } else { &[4, 8, 16, 32, 64] };
    let chunks: &[u32] = if opts.quick { &[4] } else { &[1, 8, 64] };

    println!("# Collective suite sweep: measured vs. predicted vs. lower bound");
    println!(
        "{:>15} {:>24} {:>4} {:>6} {:>10} {:>11} {:>9}",
        "kind", "algorithm", "p", "b", "cycles", "predicted", "bound"
    );
    let mut session = Session::new();
    let mut points = Vec::new();
    for kind in KINDS {
        for &p in pes {
            for &chunk in chunks {
                let pt = run_point(&mut session, kind, p, p * chunk);
                println!(
                    "{:>15} {:>24} {:>4} {:>6} {:>10} {:>11.1} {:>9.1}",
                    pt.kind,
                    pt.algorithm,
                    pt.p,
                    pt.b,
                    pt.measured_cycles,
                    pt.predicted_cycles,
                    pt.bound_cycles,
                );
                points.push(pt);
            }
        }
    }

    // Sanity: no run undercuts its kind's lower bound, and the model tracks
    // the simulator to within the phase accounting's constant overheads.
    for pt in &points {
        assert!(
            pt.measured_cycles as f64 >= pt.bound_cycles,
            "{} p={} b={}: measured {} undercuts the bound {:.1}",
            pt.kind,
            pt.p,
            pt.b,
            pt.measured_cycles,
            pt.bound_cycles
        );
    }

    let batch = run_mixed_batch(opts.quick);
    println!(
        "\nmixed batch: {} items, executor {:.2} ms vs session {:.2} ms, byte-identical",
        batch.0, batch.1, batch.2
    );

    let payload = json(&points, opts.quick, batch);
    std::fs::write(&opts.out, &payload)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", opts.out));
    println!("wrote {} sweep points to {}", points.len(), opts.out);
}
