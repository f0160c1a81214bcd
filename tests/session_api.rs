//! Integration tests of the unified request API and execution sessions: the
//! "build once, select by model, execute many times" workflow, its plan
//! cache, and its equivalence with the one-shot free functions.

use proptest::prelude::*;

use wse_collectives::prelude::*;
use wse_fabric::NoiseModel;
use wse_integration_tests::deterministic_inputs;

/// Acceptance scenario: one session, three distinct requests, each run
/// several times — plan generation must happen exactly once per distinct
/// request, every output must match the serial reference, and the fabric
/// must be reused across runs of the same shape.
#[test]
fn one_session_many_requests_amortises_plan_generation() {
    let mut session = Session::new();
    let runs_per_request = 3;

    let requests = [
        CollectiveRequest::reduce(Topology::line(16), 64)
            .with_schedule(Schedule::Reduce1d(ReducePattern::TwoPhase)),
        CollectiveRequest::allreduce(Topology::line(16), 64),
        CollectiveRequest::reduce(Topology::grid(4, 4), 32),
    ];

    for round in 0..runs_per_request {
        for request in &requests {
            let inputs =
                deterministic_inputs(request.topology.num_pes(), request.vector_len as usize);
            let outcome = session
                .run(request, &inputs)
                .unwrap_or_else(|e| panic!("round {round}: {request:?} failed: {e}"));
            let expected = expected_reduce(&inputs, request.op);
            assert_outputs_close(&outcome, &expected, 1e-4);
        }
    }

    let stats = session.stats();
    assert_eq!(
        stats.plan_misses, 3,
        "plan generation must happen exactly once per distinct request"
    );
    assert_eq!(stats.plan_hits, (runs_per_request - 1) * requests.len() as u64);
    assert_eq!(stats.runs, runs_per_request * requests.len() as u64);
    // Two grid shapes (16x1 line and 4x4 grid) -> two fabrics, every other
    // run reuses one of them.
    assert_eq!(stats.fabrics_created, 2);
    assert_eq!(stats.fabric_reuses, stats.runs - stats.fabrics_created);
}

#[test]
fn with_root_is_rejected_on_rootless_collectives() {
    // The symmetric kinds have no root; offering one is a typed error the
    // caller sees immediately, before any session or service involvement.
    let rootless = [
        CollectiveRequest::allreduce(Topology::line(4), 8),
        CollectiveRequest::reduce_scatter(Topology::line(4), 8),
        CollectiveRequest::allgather(Topology::line(4), 8),
        CollectiveRequest::all_to_all(Topology::line(4), 8),
    ];
    for request in rootless {
        let err = request.with_root(Coord::new(0, 0)).unwrap_err();
        assert_eq!(err, CollectiveError::RootlessCollective { kind: request.kind });
        assert!(err.to_string().contains("no root"), "{err}");
    }

    // Rooted kinds accept the canonical root and still run end to end.
    let mut session = Session::new();
    let request = CollectiveRequest::gather(Topology::line(4), 8)
        .with_root(Coord::new(0, 0))
        .expect("Gather is rooted");
    let full = deterministic_inputs(1, 8).remove(0);
    let shards: Vec<Vec<f32>> = full.chunks(2).map(<[f32]>::to_vec).collect();
    let outcome = session.run(&request, &shards).unwrap();
    assert_eq!(outcome.outputs.len(), 1);
    assert_eq!(outcome.outputs[0].1, full);
}

#[test]
fn auto_schedules_cache_the_model_choice() {
    let mut session = Session::new();
    let request = CollectiveRequest::allreduce(Topology::line(32), 256);
    let first = session.plan(&request).expect("auto request resolves");
    let again = session.plan(&request).expect("cached request resolves");
    assert!(first.choice.is_some(), "auto resolution records the model choice");
    assert!(std::sync::Arc::ptr_eq(&first, &again));
    assert_eq!(session.stats().plan_misses, 1);
    assert_eq!(session.stats().plan_hits, 1);
}

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        Just(Schedule::Auto),
        Just(Schedule::Reduce1d(ReducePattern::Star)),
        Just(Schedule::Reduce1d(ReducePattern::Chain)),
        Just(Schedule::Reduce1d(ReducePattern::Tree)),
        Just(Schedule::Reduce1d(ReducePattern::TwoPhase)),
        Just(Schedule::Reduce1d(ReducePattern::AutoGen)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A cache hit returns a plan byte-identical (same programs, same
    /// routing scripts, same data/result PEs) to a cold build of the same
    /// request.
    #[test]
    fn cache_hits_are_byte_identical_to_cold_builds(
        p in 2u32..24,
        b in 1u32..96,
        schedule in schedule_strategy(),
    ) {
        let mut session = Session::new();
        let request = CollectiveRequest::reduce(Topology::line(p), b).with_schedule(schedule);

        session.plan(&request).unwrap();          // cold build, populates the cache
        let hit = session.plan(&request).unwrap(); // cache hit
        prop_assert_eq!(session.stats().plan_hits, 1);

        let cold = request.resolve(&Machine::wse2()).unwrap(); // independent cold build
        prop_assert_eq!(&hit.plan, &cold.plan);
        prop_assert_eq!(&hit.algorithm, &cold.algorithm);
    }

    /// Session execution on a reused fabric matches the one-shot runner for
    /// arbitrary shapes and schedules.
    #[test]
    fn session_runs_match_one_shot_runs(
        p in 2u32..20,
        b in 1u32..48,
        schedule in schedule_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let request = CollectiveRequest::reduce(Topology::line(p), b).with_schedule(schedule);
        let inputs: Vec<Vec<f32>> = (0..p as usize)
            .map(|i| {
                (0..b as usize)
                    .map(|j| {
                        let x = seed
                            .wrapping_mul(0x9E3779B97F4A7C15)
                            .wrapping_add((i * 1000 + j) as u64);
                        ((x >> 40) as f32) / 1000.0 - 8.0
                    })
                    .collect()
            })
            .collect();

        let mut session = Session::new();
        // Run twice so the second run exercises the reset-fabric path.
        let _ = session.run(&request, &inputs).unwrap();
        let session_outcome = session.run(&request, &inputs).unwrap();

        let resolved = request.resolve(&Machine::wse2()).unwrap();
        let one_shot = run_plan(&resolved.plan, &inputs, &RunConfig::default()).unwrap();
        prop_assert_eq!(&session_outcome.report, &one_shot.report);
        prop_assert_eq!(&session_outcome.outputs, &one_shot.outputs);
    }
}

/// One item of mixed traffic for the oracle test: a request of any kind on
/// a line (or a small grid) with its contract-shaped inputs, then — for
/// `fault >= 2` — corrupted into one of the typed rejections. `b` must be a
/// multiple of `p` so the sharded kinds are valid before corruption.
fn oracle_item(kind: u32, fault: u32, p: u32, b: u32) -> (CollectiveRequest, Vec<Vec<f32>>) {
    let line = Topology::line(p);
    let mut request = match kind {
        0 => CollectiveRequest::reduce(line, b),
        1 => CollectiveRequest::allreduce(line, b),
        2 => CollectiveRequest::broadcast(line, b),
        3 => CollectiveRequest::reduce(Topology::grid(p.min(4), 2), b),
        4 => CollectiveRequest::reduce_scatter(line, b),
        5 => CollectiveRequest::allgather(line, b),
        6 => CollectiveRequest::gather(line, b),
        _ => CollectiveRequest::all_to_all(line, b),
    };
    let (count, len) = request.input_shape().expect("valid before corruption");
    let mut inputs = deterministic_inputs(count, len as usize);
    match fault {
        // Valid (twice as likely as each corruption).
        0 | 1 => {}
        2 => {
            inputs.pop();
        }
        3 => inputs[0].push(0.0),
        4 => request.vector_len = 0,
        // Fits only the grid reduce: a schedule mismatch everywhere else.
        _ => request = request.with_schedule(Schedule::Reduce2d(Reduce2dPattern::Snake)),
    }
    (request, inputs)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// An oracle independent of the execution core: the `k`-th item a noisy
    /// session executes must equal the one-shot path — a cold
    /// `CollectiveRequest::resolve`, then `run_plan` on a fresh fabric under
    /// `NoiseModel::for_run(k)` — and a rejected item must return the
    /// one-shot path's typed error without consuming a `k`.
    #[test]
    fn noisy_session_runs_match_the_one_shot_oracle(
        codes in proptest::collection::vec(0u32..48, 1..10),
        p in 2u32..9,
        chunks in 1u32..5,
        probability in 0.01f64..0.2,
        seed in 0u64..1_000_000,
    ) {
        let noise = NoiseModel::new(probability, seed);
        let mut config = SessionConfig::default();
        config.run.noise = Some(noise.clone());
        let mut session = Session::with_config(config.clone());
        let mut k = 0u64;
        for (i, &code) in codes.iter().enumerate() {
            let (request, inputs) = oracle_item(code % 8, code / 8, p, p * chunks);
            let got = session.run(&request, &inputs);
            let want = request.resolve(&config.machine).and_then(|resolved| {
                let run = RunConfig { noise: Some(noise.for_run(k)), ..config.run.clone() };
                run_plan(&resolved.plan, &inputs, &run)
            });
            match (&got, &want) {
                (Ok(got), Ok(want)) => {
                    prop_assert!(got.report == want.report, "item {i} (k = {k}): reports diverge");
                    prop_assert!(got.outputs == want.outputs, "item {i} (k = {k}): outputs diverge");
                    k += 1;
                }
                (Err(got), Err(want)) => {
                    prop_assert!(got == want, "item {i}: {got:?} vs the oracle's {want:?}")
                }
                _ => prop_assert!(false, "item {i}: {got:?} vs the oracle's {want:?}"),
            }
        }
        prop_assert_eq!(session.stats().runs, k);
    }
}
