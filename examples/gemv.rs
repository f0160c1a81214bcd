//! Distributed GEMV: the motivating workload of the paper's 1D collectives.
//!
//! A matrix `A` of size `m × n` is distributed column-block-wise over a row
//! of `P` PEs (as in the paper's §3: "operating on a part of a row or column
//! of the device ... is important in its own right for applications such as
//! GEMV"). Every PE computes its partial product `y_p = A[:, cols_p] ·
//! x[cols_p]` locally; the partial results are then combined with a wafer
//! AllReduce so every PE ends up with the full `y = A·x`.
//!
//! The example compares the vendor-style Chain+Broadcast against the
//! model-selected algorithm and the Auto-Gen schedule.
//!
//! Run with `cargo run --release -p wse-examples --bin gemv`.

use wse_collectives::prelude::*;
use wse_examples::{print_run_summary, sample_value, sample_vector};

fn main() {
    let mut session = Session::new();
    let p: u32 = 32; // PEs in the row
    let m: usize = 256; // rows of A  (= length of the reduced vector, 1 KB)
    let n: usize = 512; // columns of A, split over the PEs

    println!("# Distributed GEMV: y = A x with A of size {m}x{n} over {p} PEs\n");

    // Build A (column blocks per PE) and x.
    let cols_per_pe = n / p as usize;
    let x: Vec<f32> = sample_vector(9999, n);
    let mut partials: Vec<Vec<f32>> = Vec::new();
    let mut reference = vec![0.0f32; m];
    for pe in 0..p as usize {
        let mut partial = vec![0.0f32; m];
        for local_col in 0..cols_per_pe {
            let col = pe * cols_per_pe + local_col;
            for (row, value) in partial.iter_mut().enumerate() {
                let a = sample_value(row * n + col);
                *value += a * x[col];
            }
        }
        for row in 0..m {
            reference[row] += partial[row];
        }
        partials.push(partial);
    }

    // The local compute is done; the communication step is an AllReduce of
    // the partial y vectors. Compare three ways of doing it — the session
    // caches each candidate's plan, which is what an iterative solver doing
    // this AllReduce every step would want.
    let b = m as u32;
    let candidates = [
        ("vendor Chain+Bcast", AllReducePattern::ReduceBroadcast(ReducePattern::Chain)),
        ("Two-Phase+Bcast", AllReducePattern::ReduceBroadcast(ReducePattern::TwoPhase)),
        ("Auto-Gen+Bcast", AllReducePattern::ReduceBroadcast(ReducePattern::AutoGen)),
    ];
    let mut vendor_cycles = None;
    for (label, pattern) in candidates {
        let request = CollectiveRequest::allreduce(Topology::line(p), b)
            .with_schedule(Schedule::AllReduce1d(pattern));
        let resolved = session.plan(&request).expect("request resolves");
        let outcome = session.run(&request, &partials).expect("plan runs");
        assert_outputs_close(&outcome, &reference, 1e-3);
        let cycles = outcome.runtime_cycles();
        if vendor_cycles.is_none() {
            vendor_cycles = Some(cycles);
        }
        print_run_summary(&format!("y = A x AllReduce / {label}"), &resolved.plan, cycles);
        if let Some(vendor) = vendor_cycles {
            if vendor != cycles {
                println!(
                    "{:<40} {:>9.2}x speedup over the vendor chain",
                    "",
                    vendor as f64 / cycles as f64
                );
            }
        }
    }

    // What does the model recommend for this shape?
    let auto = CollectiveRequest::allreduce(Topology::line(p), b);
    let resolved = session.plan(&auto).expect("auto request resolves");
    println!(
        "\nmodel recommendation for P={p}, B={} bytes: {} (predicted {:.0} cycles)",
        b * 4,
        resolved.algorithm,
        resolved.predicted_cycles()
    );
    println!("GEMV result verified against the serial reference on every PE.");
}
