//! Race-oracle integration tests: real executions, recorded through the
//! executor's `verify-trace` hooks, replayed through the vector-clock
//! checker.
//!
//! Healthy plans — every policy, several processor counts, random DAGs,
//! both the `PlannedLoop` and the `CompiledPlan` generation (one protocol,
//! two kernels) — must replay with **zero** unordered conflicting accesses; a
//! deliberately over-elided barrier plan must be flagged both statically
//! (by [`rtpl_verify::verify_plan`]) and dynamically (by the oracle
//! observing the unsynchronized read the missing barrier permits).
//!
//! Run with `cargo test -p rtpl-verify --features verify-trace`.
#![cfg(feature = "verify-trace")]

use rtpl_executor::trace;
use rtpl_executor::{
    CompiledPlan, CompiledSpec, ExecutorKind, LoopBody, PlannedLoop, ValueSource, WorkerPool,
};
use rtpl_inspector::{BarrierPlan, DepGraph, Partition, Schedule, Wavefronts};
use rtpl_sparse::rng::SmallRng;
use rtpl_sparse::wire::{WireReader, WireWriter};
use rtpl_verify::race::{check_trace, RaceError};

/// `x(i) = 1 + 0.5 * Σ x(dep)` — every dependence is a real read through
/// the synchronized source, so the trace sees exactly the graph's edges.
struct SumBody<'a> {
    graph: &'a DepGraph,
}

impl LoopBody for SumBody<'_> {
    fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
        let mut acc = 1.0;
        for &d in self.graph.deps(i) {
            acc += 0.5 * src.get(d as usize);
        }
        acc
    }
}

/// A random *forward* DAG (`dep < i`, so Doacross is eligible too): up to
/// three distinct dependences per row, biased toward recent rows so
/// wavefronts stay shallow enough to exercise cross-processor edges.
fn random_dag(n: usize, seed: u64) -> DepGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    DepGraph::from_fn(n, |i| {
        let mut deps = Vec::new();
        for _ in 0..3.min(i) {
            let d = rng.gen_range_usize(0, i) as u32;
            if !deps.contains(&d) {
                deps.push(d);
            }
        }
        deps
    })
    .expect("forward deps form a DAG")
}

const POLICIES: [ExecutorKind; 4] = [
    ExecutorKind::SelfExecuting,
    ExecutorKind::PreScheduled,
    ExecutorKind::PreScheduledElided,
    ExecutorKind::Doacross,
];

/// The equivalence sweep, under the oracle: every policy × 1/2/4
/// processors × random DAGs replays race-free.
#[test]
fn healthy_plans_replay_race_free_across_policies_and_procs() {
    for seed in [0x5EED_u64, 0xBEEF] {
        let n = 48;
        let g = random_dag(n, seed);
        let wf = Wavefronts::compute(&g).expect("acyclic");
        for nprocs in [1usize, 2, 4] {
            let schedule = Schedule::local(&wf, &Partition::striped(n, nprocs).unwrap()).unwrap();
            let plan = PlannedLoop::new(g.clone(), schedule).unwrap();
            let pool = WorkerPool::new(nprocs);
            let body = SumBody {
                graph: plan.graph(),
            };
            for policy in POLICIES {
                let mut out = vec![0.0; n];
                let (_, events) = trace::capture(|| plan.run(Some(&pool), policy, &body, &mut out));
                let report = check_trace(nprocs, &events)
                    .unwrap_or_else(|e| panic!("seed {seed:#x} {policy:?} x{nprocs}: {e}"));
                assert!(
                    report.writes >= n,
                    "seed {seed:#x} {policy:?} x{nprocs}: trace hooks recorded \
                     {} writes for {n} rows — the recording plumbing is broken",
                    report.writes
                );
                assert_eq!(
                    report.incomplete_barriers, 0,
                    "seed {seed:#x} {policy:?} x{nprocs}: a healthy run left a \
                     barrier generation incomplete"
                );
            }
        }
    }
}

/// Coalesced schedules drop almost every barrier and rely on same-thread
/// program order inside merged phases — the oracle must confirm that
/// really is synchronization: every policy × 1/2/4 processors × random
/// DAGs, coalesced at a grain that merges aggressively, replays race-free.
#[test]
fn coalesced_plans_replay_race_free_across_policies_and_procs() {
    for seed in [0x5EED_u64, 0xC0A1] {
        let n = 48;
        let g = random_dag(n, seed);
        let wf = Wavefronts::compute(&g).expect("acyclic");
        for nprocs in [1usize, 2, 4] {
            let schedule = Schedule::local(&wf, &Partition::striped(n, nprocs).unwrap()).unwrap();
            let (coalesced, stats) = schedule.coalesce(&g, 64.0).unwrap();
            assert!(
                stats.phases_after < stats.phases_before,
                "seed {seed:#x} x{nprocs}: the grain must merge something"
            );
            let plan = PlannedLoop::new(g.clone(), coalesced).unwrap();
            let pool = WorkerPool::new(nprocs);
            let body = SumBody {
                graph: plan.graph(),
            };
            for policy in POLICIES {
                let mut out = vec![0.0; n];
                let (_, events) = trace::capture(|| plan.run(Some(&pool), policy, &body, &mut out));
                let report = check_trace(nprocs, &events).unwrap_or_else(|e| {
                    panic!("coalesced seed {seed:#x} {policy:?} x{nprocs}: {e}")
                });
                assert!(report.writes >= n);
            }
        }
    }
}

/// The compiled generation — what every served solve and linear job
/// rides — under the same oracle: linear-recurrence layouts over a mesh
/// and random DAGs, uncoalesced and coalesced, every policy × 1/2/4
/// processors, replay race-free and bit-equal to the sequential sweep.
#[test]
fn compiled_plans_replay_race_free_across_policies_and_procs() {
    let mesh = rtpl_sparse::gen::laplacian_5pt(7, 6).strict_lower();
    let fixtures = [
        ("mesh", DepGraph::from_lower_triangular(&mesh).unwrap()),
        ("random 0x5EED", random_dag(48, 0x5EED)),
        ("random 0xC0A1", random_dag(48, 0xC0A1)),
    ];
    for (name, g) in fixtures {
        let n = g.n();
        let spec = CompiledSpec::linear_from_graph(&g);
        let coeffs: Vec<f64> = (0..g.num_edges())
            .map(|k| 0.125 * (1 + k % 5) as f64)
            .collect();
        let rhs: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let wf = Wavefronts::compute(&g).expect("acyclic");
        for nprocs in [1usize, 2, 4] {
            let plain = Schedule::local(&wf, &Partition::striped(n, nprocs).unwrap()).unwrap();
            let (coalesced, _) = plain.coalesce(&g, 64.0).unwrap();
            let pool = WorkerPool::new(nprocs);
            for (shape, schedule) in [("plain", plain), ("coalesced", coalesced)] {
                let plan = PlannedLoop::new(g.clone(), schedule).unwrap();
                let compiled = CompiledPlan::compile(&plan, &spec).unwrap();
                let mut scratch = compiled.scratch();
                compiled.load_values(&mut scratch, &coeffs).unwrap();
                let mut expect = vec![0.0; n];
                compiled.run_sequential(&mut scratch, &rhs, &mut expect);
                for policy in POLICIES {
                    let what = format!("{name} {shape} {policy:?} x{nprocs}");
                    let mut out = vec![0.0; n];
                    let (result, events) = trace::capture(|| {
                        compiled.try_run(Some(&pool), policy, &mut scratch, &rhs, &mut out, None)
                    });
                    result.unwrap_or_else(|e| panic!("{what}: {e}"));
                    let report =
                        check_trace(nprocs, &events).unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert!(
                        report.writes >= n,
                        "{what}: {} writes traced for {n} rows",
                        report.writes
                    );
                    assert_eq!(report.incomplete_barriers, 0, "{what}");
                    let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&out), bits(&expect), "{what}");
                }
            }
        }
    }
}

/// The phase-merge invariant, attacked: a dependence placed *inside* one
/// phase but across processors has no happens-before edge at all — the
/// static verifier must refuse it, and if run anyway the oracle must see
/// the unsynchronized read.
#[test]
fn intra_phase_misorder_is_flagged_statically_and_dynamically() {
    // Row 1 depends on row 0; a forged single-phase schedule puts them on
    // different processors, as if a buggy coalescer forgot component
    // grouping.
    let g = DepGraph::from_fn(2, |i| if i == 1 { vec![0] } else { vec![] }).unwrap();
    let mut w = WireWriter::new();
    w.put_u64(2); // nprocs
    w.put_u64(1); // num_phases
    w.put_u32s(&[0, 0]); // phase labels
    w.put_u32s(&[0]); // proc 0 runs row 0
    w.put_usizes32(&[0, 1]);
    w.put_u32s(&[1]); // proc 1 runs row 1
    w.put_usizes32(&[0, 1]);
    let bytes = w.into_bytes();
    let schedule = Schedule::decode(&mut WireReader::new(&bytes))
        .expect("structurally well-formed — only the dependence proof can object");

    // Statically rejected, by both the schedule's own validator and the
    // independent plan verifier.
    assert!(schedule.validate(&g).is_err());
    let mut w = WireWriter::new();
    w.put_u8s(&[]);
    let empty = BarrierPlan::decode(&mut WireReader::new(&w.into_bytes())).unwrap();
    let err = rtpl_verify::verify_plan(&g, &schedule, &empty)
        .expect_err("a cross-processor intra-phase dependence must not verify");
    assert!(
        matches!(
            err,
            rtpl_verify::VerifyError::EdgeNotWavefrontOrdered { .. }
        ),
        "wrong static rejection: {err}"
    );

    // Dynamically: run it anyway; the reader sleeps so the write lands
    // first, and the oracle must still flag the missing ordering edge.
    struct RacyBody;
    impl LoopBody for RacyBody {
        fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
            if i == 1 {
                std::thread::sleep(std::time::Duration::from_millis(4));
                src.get(0) + 1.0
            } else {
                0.5
            }
        }
    }
    let plan = PlannedLoop::from_parts(g, schedule, empty).unwrap();
    let pool = WorkerPool::new(2);
    let mut out = vec![0.0; 2];
    let (_, events) =
        trace::capture(|| plan.run(Some(&pool), ExecutorKind::PreScheduled, &RacyBody, &mut out));
    match check_trace(2, &events) {
        Err(RaceError::UnsynchronizedRead { row, .. }) => assert_eq!(row, 0),
        Err(other) => panic!("flagged, but not as an unsynchronized read: {other}"),
        Ok(report) => panic!(
            "the oracle missed the race ({} events, {} reads)",
            report.events, report.reads
        ),
    }
}

/// A cancelled (chaos-style) run may leave the trace truncated mid-phase —
/// the oracle must replay what *did* happen without false positives:
/// poisoned waits panic before they record, so no phantom reads appear.
#[test]
fn cancelled_run_replays_without_false_positives() {
    use rtpl_executor::CancelToken;
    let n = 64;
    let g = random_dag(n, 0x7E57);
    let wf = Wavefronts::compute(&g).expect("acyclic");
    let schedule = Schedule::local(&wf, &Partition::striped(n, 2).unwrap()).unwrap();
    let plan = PlannedLoop::new(g.clone(), schedule).unwrap();
    let pool = WorkerPool::new(2);
    let body = SumBody {
        graph: plan.graph(),
    };
    let token = CancelToken::new();
    token.cancel();
    let mut out = vec![0.0; n];
    let mut scratch = plan.scratch();
    let (result, events) = trace::capture(|| {
        plan.try_run_in(
            &mut scratch,
            Some(&pool),
            ExecutorKind::PreScheduled,
            &body,
            &mut out,
            Some(&token),
        )
    });
    assert!(result.is_err(), "a pre-cancelled run must not succeed");
    let report = check_trace(2, &events)
        .unwrap_or_else(|e| panic!("false positive on a cancelled run: {e}"));
    assert_eq!(
        report.reads, 0,
        "no phase ran, so nothing should have been read"
    );
}

/// The compiled twin of the test above: same protocol, layout kernel.
#[test]
fn cancelled_compiled_run_replays_without_false_positives() {
    use rtpl_executor::CancelToken;
    let n = 64;
    let g = random_dag(n, 0x7E57);
    let wf = Wavefronts::compute(&g).expect("acyclic");
    let schedule = Schedule::local(&wf, &Partition::striped(n, 2).unwrap()).unwrap();
    let plan = PlannedLoop::new(g.clone(), schedule).unwrap();
    let compiled = CompiledPlan::compile(&plan, &CompiledSpec::linear_from_graph(&g)).unwrap();
    let mut scratch = compiled.scratch();
    compiled
        .load_values(&mut scratch, &vec![0.5; g.num_edges()])
        .unwrap();
    let pool = WorkerPool::new(2);
    let token = CancelToken::new();
    token.cancel();
    let rhs = vec![1.0; n];
    let mut out = vec![0.0; n];
    let (result, events) = trace::capture(|| {
        compiled.try_run(
            Some(&pool),
            ExecutorKind::PreScheduled,
            &mut scratch,
            &rhs,
            &mut out,
            Some(&token),
        )
    });
    assert!(result.is_err(), "a pre-cancelled run must not succeed");
    let report = check_trace(2, &events)
        .unwrap_or_else(|e| panic!("false positive on a cancelled run: {e}"));
    assert_eq!(
        report.reads, 0,
        "no position ran, so nothing should have been read"
    );
}

/// The oracle's reason to exist: a barrier plan with a necessary barrier
/// *elided* — exactly the mutant `verify_plan` rejects statically — lets a
/// processor read a neighbor's value with no happens-before edge, and the
/// vector clocks must say so.
#[test]
fn over_elided_barrier_plan_is_flagged_statically_and_dynamically() {
    // Two wavefronts, both split across both processors, with both
    // cross-phase dependences crossing processors: striped over 2 procs,
    // rows 0,2 run on proc 0 and rows 1,3 on proc 1; row 2 reads row 1
    // and row 3 reads row 0.
    let g = DepGraph::from_fn(4, |i| match i {
        2 => vec![1],
        3 => vec![0],
        _ => vec![],
    })
    .unwrap();
    let wf = Wavefronts::compute(&g).unwrap();
    let schedule = Schedule::local(&wf, &Partition::striped(4, 2).unwrap()).unwrap();

    // The honest minimal plan keeps the one boundary; forge its elision
    // through the public codec (the keep array is not constructible
    // directly — by design).
    let mut w = WireWriter::new();
    w.put_u8s(&[0u8]);
    let bytes = w.into_bytes();
    let empty = BarrierPlan::decode(&mut WireReader::new(&bytes)).unwrap();

    // Statically: the plan verifier refuses the forged plan.
    let err = rtpl_verify::verify_plan(&g, &schedule, &empty)
        .expect_err("an over-elided plan must not verify");
    assert!(
        matches!(err, rtpl_verify::VerifyError::ElidedBarrierMissing { .. }),
        "wrong static rejection: {err}"
    );

    // Dynamically: run it anyway. The readers sleep so the writers' stores
    // land first (this test asserts the *ordering* violation, not the
    // even-less-deterministic torn read), then read a value no barrier
    // ordered — the oracle must flag an unsynchronized read.
    struct RacyBody;
    impl LoopBody for RacyBody {
        fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
            match i {
                2 => {
                    std::thread::sleep(std::time::Duration::from_millis(4));
                    src.get(1) + 1.0
                }
                3 => {
                    std::thread::sleep(std::time::Duration::from_millis(4));
                    src.get(0) + 1.0
                }
                _ => i as f64,
            }
        }
    }
    let plan = PlannedLoop::from_parts(g, schedule, empty).unwrap();
    let pool = WorkerPool::new(2);
    let mut out = vec![0.0; 4];
    let (_, events) = trace::capture(|| {
        plan.run(
            Some(&pool),
            ExecutorKind::PreScheduledElided,
            &RacyBody,
            &mut out,
        )
    });
    match check_trace(2, &events) {
        Err(RaceError::UnsynchronizedRead { row, .. }) => {
            assert!(row == 0 || row == 1, "flagged the wrong row: {row}");
        }
        Err(other) => panic!("flagged, but not as an unsynchronized read: {other}"),
        Ok(report) => panic!(
            "the oracle missed the race ({} events, {} reads)",
            report.events, report.reads
        ),
    }
}
