//! Acceptance tests for the batched `Job` front door: mixed solve/loop
//! batches through one `Runtime`, fingerprint grouping, per-job failure
//! isolation, and DoConsider-spec caching.

use rtpl::executor::{ExecutorKind, WorkerPool};
use rtpl::inspector::DepGraph;
use rtpl::prelude::{LoopBody, ValueSource};
use rtpl::runtime::{
    CacheStats, Job, JobOutcome, LoopSpec, NoBody, Runtime, RuntimeConfig, RuntimeError,
};
use rtpl::sparse::ilu::IluFactors;
use rtpl::sparse::Csr;
use rtpl::workload::{pattern_set, RequestKind, ZipfMix};
use rtpl::DoConsider;

fn factors_from_pattern(m: &Csr) -> IluFactors {
    IluFactors {
        l: m.strict_lower(),
        u: m.transpose().upper(),
    }
}

fn rhs(n: usize, salt: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0 + ((i * 29 + salt * 13) % 97) as f64 * 0.017)
        .collect()
}

fn test_cfg() -> RuntimeConfig {
    RuntimeConfig {
        nprocs: 2,
        calibrate: false,
        ..RuntimeConfig::default()
    }
}

/// The linear-recurrence body, for checking `Job::LinearLoop` against the
/// generic `PlannedLoop` path: `x(i) = rhs(i) − Σ v_k·x(dep_k)` with
/// coefficients in adjacency order.
struct LinearBody<'a> {
    graph: &'a DepGraph,
    vals: &'a [f64],
    rhs: &'a [f64],
    offsets: Vec<usize>,
}

impl<'a> LinearBody<'a> {
    fn new(graph: &'a DepGraph, vals: &'a [f64], rhs: &'a [f64]) -> Self {
        let mut offsets = Vec::with_capacity(graph.n() + 1);
        let mut pos = 0;
        offsets.push(0);
        for i in 0..graph.n() {
            pos += graph.deps(i).len();
            offsets.push(pos);
        }
        LinearBody {
            graph,
            vals,
            rhs,
            offsets,
        }
    }
}

impl LoopBody for LinearBody<'_> {
    fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
        let mut acc = self.rhs[i];
        for (k, &d) in self.graph.deps(i).iter().enumerate() {
            acc -= self.vals[self.offsets[i] + k] * src.get(d as usize);
        }
        acc
    }
}

/// The headline batch test: a Zipf-mixed batch of solves and linear loop
/// jobs through `submit_batch` is bit-exact per job with the same jobs
/// `submit`ted one at a time, groups same-fingerprint jobs, and serves a
/// repeat batch entirely from cache.
#[test]
fn mixed_batch_is_bit_exact_grouped_and_cached() {
    const SOLVE_PATTERNS: usize = 6;
    const LOOP_PATTERNS: usize = 4;
    const REQUESTS: usize = 96;

    let solve_mats = pattern_set(SOLVE_PATTERNS, 10, 2026);
    let factors: Vec<IluFactors> = solve_mats.iter().map(factors_from_pattern).collect();
    let loop_mats = pattern_set(LOOP_PATTERNS, 9, 4052);
    let lowers: Vec<Csr> = loop_mats.iter().map(|m| m.strict_lower()).collect();
    let specs: Vec<LoopSpec> = lowers
        .iter()
        .map(|l| DoConsider::from_lower_triangular(l).unwrap().into_spec())
        .collect();
    let ns = factors[0].n();
    let nl = lowers[0].nrows();

    let mix = ZipfMix::new(SOLVE_PATTERNS.max(LOOP_PATTERNS), 1.1);
    let stream: Vec<_> = mix
        .mixed_stream(REQUESTS, 0.3, 7)
        .into_iter()
        .map(|r| match r.kind {
            RequestKind::Solve => (r.kind, r.rank % SOLVE_PATTERNS),
            RequestKind::Loop => (r.kind, r.rank % LOOP_PATTERNS),
        })
        .collect();

    // Per-request inputs (shared) and expected outputs via one-at-a-time
    // `submit`s on a fresh runtime.
    let solve_bs: Vec<Vec<f64>> = (0..SOLVE_PATTERNS).map(|i| rhs(ns, i)).collect();
    let loop_rhs: Vec<Vec<f64>> = (0..LOOP_PATTERNS).map(|i| rhs(nl, 100 + i)).collect();
    let rt_seq = Runtime::new(test_cfg());
    let expected: Vec<Vec<f64>> = stream
        .iter()
        .map(|&(kind, rank)| match kind {
            RequestKind::Solve => {
                let mut x = vec![0.0; ns];
                rt_seq
                    .submit(Job::<NoBody>::solve(
                        &factors[rank],
                        &solve_bs[rank],
                        &mut x,
                    ))
                    .unwrap();
                x
            }
            RequestKind::Loop => {
                let mut out = vec![0.0; nl];
                rt_seq
                    .submit(Job::<NoBody>::linear(
                        &specs[rank],
                        lowers[rank].data(),
                        &loop_rhs[rank],
                        &mut out,
                    ))
                    .unwrap();
                out
            }
        })
        .collect();

    let rt = Runtime::new(test_cfg());
    let mut outs: Vec<Vec<f64>> = stream
        .iter()
        .map(|&(kind, _)| vec![0.0; if kind == RequestKind::Solve { ns } else { nl }])
        .collect();
    let jobs: Vec<Job> = stream
        .iter()
        .zip(outs.iter_mut())
        .map(|(&(kind, rank), out)| match kind {
            RequestKind::Solve => Job::solve(&factors[rank], &solve_bs[rank], out),
            RequestKind::Loop => {
                Job::linear(&specs[rank], lowers[rank].data(), &loop_rhs[rank], out)
            }
        })
        .collect();
    let distinct: std::collections::HashSet<_> = stream.iter().copied().collect();

    let outcome = rt.submit_batch(jobs);
    assert_eq!(outcome.jobs.len(), REQUESTS);
    assert_eq!(outcome.ok_count(), REQUESTS);
    assert_eq!(
        outcome.groups,
        distinct.len(),
        "one group per (kind, fingerprint)"
    );
    assert_eq!(
        outcome.cold_groups,
        distinct.len(),
        "all cold on a fresh runtime"
    );
    for (i, (out, expect)) in outs.iter().zip(&expected).enumerate() {
        assert_eq!(out, expect, "job {i} deviates from its lone submit");
    }
    let stats = rt.stats();
    let distinct_solves = stream
        .iter()
        .filter(|(k, _)| *k == RequestKind::Solve)
        .map(|&(_, r)| r)
        .collect::<std::collections::HashSet<_>>()
        .len();
    assert_eq!(stats.solves.builds, distinct_solves as u64);
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.batch_jobs, REQUESTS as u64);

    // Replay the identical batch: zero cold groups, zero new builds, every
    // job outcome flagged cached, outputs unchanged.
    let mut outs2: Vec<Vec<f64>> = stream
        .iter()
        .map(|&(kind, _)| vec![0.0; if kind == RequestKind::Solve { ns } else { nl }])
        .collect();
    let jobs2: Vec<Job> = stream
        .iter()
        .zip(outs2.iter_mut())
        .map(|(&(kind, rank), out)| match kind {
            RequestKind::Solve => Job::solve(&factors[rank], &solve_bs[rank], out),
            RequestKind::Loop => {
                Job::linear(&specs[rank], lowers[rank].data(), &loop_rhs[rank], out)
            }
        })
        .collect();
    let warm = rt.submit_batch(jobs2);
    assert_eq!(warm.cold_groups, 0);
    assert!(warm.jobs.iter().all(|j| j.as_ref().is_ok_and(|o| o.cached)));
    assert_eq!(
        rt.stats().solves.builds,
        distinct_solves as u64,
        "no rebuilds"
    );
    for (out, expect) in outs2.iter().zip(&expected) {
        assert_eq!(out, expect);
    }
}

/// The DoConsider acceptance criterion: a loop job submitted twice shows a
/// cache hit (builds == 1) with bit-exact output vs. direct `PlannedLoop`
/// execution.
#[test]
fn doconsider_loop_job_caches_and_matches_direct_planned_loop() {
    let l = pattern_set(1, 14, 9)[0].strict_lower();
    let n = l.nrows();
    let vals = l.data();
    let b = rhs(n, 3);

    // Direct execution: inspect → schedule → PlannedLoop::run.
    let graph = DepGraph::from_lower_triangular(&l).unwrap();
    let plan = DoConsider::from_lower_triangular(&l)
        .unwrap()
        .schedule(rtpl::Sorting::Global, 2)
        .unwrap();
    let body = LinearBody::new(&graph, vals, &b);
    let pool = WorkerPool::new(2);
    let mut direct = vec![0.0; n];
    plan.run(Some(&pool), ExecutorKind::SelfExecuting, &body, &mut direct);

    let rt = Runtime::new(test_cfg());
    let spec = DoConsider::from_lower_triangular(&l).unwrap().into_spec();

    // Generic-body loop job, twice.
    let mut out1 = vec![0.0; n];
    let mut out2 = vec![0.0; n];
    let first = rt.submit(Job::looped(&spec, &body, &mut out1)).unwrap();
    let second = rt.submit(Job::looped(&spec, &body, &mut out2)).unwrap();
    assert!(!first.cached && second.cached);
    assert_eq!(rt.stats().loops.builds, 1, "one build for two submissions");
    assert_eq!(out1, direct, "cold loop job deviates from direct execution");
    assert_eq!(out2, direct, "warm loop job deviates from direct execution");

    // Compiled linear variant of the same structure, twice: builds == 1 in
    // its own cache, same bits.
    let mut out3 = vec![0.0; n];
    let mut out4 = vec![0.0; n];
    rt.submit(Job::<NoBody>::linear(&spec, vals, &b, &mut out3))
        .unwrap();
    let warm = rt
        .submit(Job::<NoBody>::linear(&spec, vals, &b, &mut out4))
        .unwrap();
    assert!(warm.cached);
    assert_eq!(rt.stats().linears.builds, 1);
    assert_eq!(out3, direct);
    assert_eq!(out4, direct);
}

/// A failing job (zero pivot in its factors) reports per-job and never
/// sinks the rest of its batch.
#[test]
fn batch_failures_are_isolated_per_job() {
    let good = factors_from_pattern(&pattern_set(1, 8, 5)[0]);
    let n = good.n();
    let bad = zero_pivot(&good);

    let b = rhs(n, 0);
    let mut x1 = vec![0.0; n];
    let mut x2 = vec![0.0; n];
    let mut x3 = vec![0.0; n];
    let rt = Runtime::new(test_cfg());
    let outcome = rt.submit_batch::<NoBody>(vec![
        Job::solve(&good, &b, &mut x1),
        Job::solve(&bad, &b, &mut x2),
        Job::solve(&good, &b, &mut x3),
    ]);
    assert_eq!(outcome.ok_count(), 2);
    assert!(outcome.jobs[0].is_ok());
    assert!(outcome.jobs[1].is_err(), "zero pivot must surface as Err");
    assert!(outcome.jobs[2].is_ok());
    // All three jobs share one fingerprint group (values don't key the
    // cache); the bad one fails at its own value gather, the good ones
    // still agree with the sequential front door.
    assert_eq!(outcome.groups, 1);
    // Order-independence: the singular job leading a COLD group must not
    // sink its same-pattern peers — the group's one plan build reads
    // structure only, and the zero pivot fails that job's gather alone.
    let rt2 = Runtime::new(test_cfg());
    let mut y1 = vec![0.0; n];
    let mut y2 = vec![0.0; n];
    let outcome2 = rt2.submit_batch::<NoBody>(vec![
        Job::solve(&bad, &b, &mut y1),
        Job::solve(&good, &b, &mut y2),
    ]);
    assert!(outcome2.jobs[0].is_err(), "bad-first job must fail alone");
    assert_eq!((outcome2.groups, rt2.stats().solves.builds), (1, 1));
    assert!(
        outcome2.jobs[1].is_ok(),
        "good job behind a singular group leader must still run"
    );
    let rt_ref = Runtime::new(RuntimeConfig {
        policy: Some(ExecutorKind::Sequential),
        ..test_cfg()
    });
    let mut expect = vec![0.0; n];
    rt_ref
        .submit(Job::<NoBody>::solve(&good, &b, &mut expect))
        .unwrap();
    // Policies may differ between the two runtimes; results are bit-exact
    // across policies by construction.
    assert_eq!(x1, expect);
    assert_eq!(x3, expect);
}

/// An empty batch is a no-op, and the two doors agree on a solve.
#[test]
fn empty_batch_and_submit_parity() {
    let rt = Runtime::new(test_cfg());
    let outcome = rt.submit_batch::<NoBody>(Vec::new());
    assert_eq!(outcome.jobs.len(), 0);
    assert_eq!(outcome.groups, 0);
    assert_eq!(rt.stats().batch_jobs, 0);

    let f = factors_from_pattern(&pattern_set(1, 8, 21)[0]);
    let n = f.n();
    let b = rhs(n, 2);
    let mut via_submit = vec![0.0; n];
    let mut via_batch = vec![0.0; n];
    let o = rt
        .submit(Job::<NoBody>::solve(&f, &b, &mut via_submit))
        .unwrap();
    let batch = rt.submit_batch::<NoBody>(vec![Job::solve(&f, &b, &mut via_batch)]);
    assert_eq!(batch.ok_count(), 1);
    assert_eq!(via_submit, via_batch);
    assert!(o.reports.1.is_some(), "a solve reports both sweeps");
    assert!(!o.cached, "first request for the pattern must build");
}

/// A batch fans its groups over the host's threads while it has cold
/// inspections or enough warm work to share; a small all-warm batch runs
/// on the submitting thread alone, answers unchanged.
#[test]
fn small_warm_batches_stay_on_the_submitting_thread() {
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());
    let rt = Runtime::new(test_cfg());
    for (mesh, warm_workers) in [(8, 1), (48, host.min(2))] {
        let fs: Vec<IluFactors> = pattern_set(2, mesh, 5)
            .iter()
            .map(factors_from_pattern)
            .collect();
        let n = fs[0].n();
        let b = rhs(n, 3);
        let run = || {
            let mut xs = vec![vec![0.0; n]; 2];
            let jobs = fs
                .iter()
                .zip(xs.iter_mut())
                .map(|(f, x)| Job::<NoBody>::solve(f, &b, x))
                .collect();
            let o = rt.submit_batch(jobs);
            assert_eq!(o.ok_count(), 2);
            ((o.groups, o.cold_groups, o.workers), xs)
        };
        let (cold, first) = run();
        assert_eq!(cold, (2, 2, host.min(2)), "mesh {mesh}: cold batch");
        let (warm, again) = run();
        assert_eq!(warm, (2, 0, warm_workers), "mesh {mesh}: warm batch");
        assert_eq!(first, again, "mesh {mesh}: answers depend on the workers");
    }
}

// ---------------------------------------------------------------------------
// A lone job is a batch of one: `submit(job)` and `submit_batch(vec![job])`
// run the same group runner, so nothing observable may depend on the door.
// ---------------------------------------------------------------------------

/// What a served job reports: `(policy, cached, output)`.
type Answer = (ExecutorKind, bool, Vec<f64>);

/// Everything a job's door must not influence, over a stream of requests
/// on one fresh runtime.
#[derive(Debug, PartialEq)]
struct Seen {
    requests: Vec<Result<Answer, RuntimeError>>,
    caches: [CacheStats; 3],
    policy_runs: [u64; 5],
    scratches_created: u64,
    pools_created: u64,
    body_panics: u64,
    deadline_expired: u64,
    circuit_open: u64,
}

/// One job through the chosen door.
fn send<B: LoopBody>(
    rt: &Runtime,
    batched: bool,
    job: Job<'_, B>,
) -> Result<JobOutcome, RuntimeError> {
    if batched {
        let mut outcome = rt.submit_batch(vec![job]);
        assert_eq!((outcome.jobs.len(), outcome.groups), (1, 1));
        outcome.jobs.pop().unwrap()
    } else {
        rt.submit(job)
    }
}

/// Runs `request` (which `send`s one job writing to the buffer it is
/// handed) `rounds` times against one door of a fresh runtime. A failed
/// job's output is unspecified and a contained panic's unwound-worker
/// count is timing, so neither is compared.
fn through_door(
    batched: bool,
    cfg: &RuntimeConfig,
    n: usize,
    rounds: usize,
    request: &impl Fn(&Runtime, bool, &mut [f64]) -> Result<JobOutcome, RuntimeError>,
) -> Seen {
    let rt = Runtime::new(cfg.clone());
    let requests = (0..rounds)
        .map(|_| {
            let mut out = vec![0.0; n];
            match request(&rt, batched, &mut out) {
                Ok(o) => Ok((o.policy, o.cached, out)),
                Err(RuntimeError::BodyPanicked { .. }) => {
                    Err(RuntimeError::BodyPanicked { workers: 0 })
                }
                Err(e) => Err(e),
            }
        })
        .collect();
    let s = rt.stats();
    // The one thing that does tell the doors apart: only batches count as
    // batches.
    let batches = if batched { rounds as u64 } else { 0 };
    assert_eq!((s.batches, s.batch_jobs), (batches, batches));
    Seen {
        requests,
        caches: [s.solves, s.loops, s.linears],
        policy_runs: s.policy_runs,
        scratches_created: s.scratches_created,
        pools_created: s.pools_created,
        body_panics: s.body_panics,
        deadline_expired: s.deadline_expired,
        circuit_open: s.circuit_open,
    }
}

/// Both doors on twin fresh runtimes; returns what (both) saw.
fn assert_door_parity(
    what: &str,
    cfg: &RuntimeConfig,
    n: usize,
    rounds: usize,
    request: impl Fn(&Runtime, bool, &mut [f64]) -> Result<JobOutcome, RuntimeError>,
) -> Seen {
    let lone = through_door(false, cfg, n, rounds, &request);
    let batch = through_door(true, cfg, n, rounds, &request);
    assert_eq!(lone, batch, "{what}: submit vs submit_batch of one");
    lone
}

/// A body that panics on every iteration.
struct Bomb;
impl LoopBody for Bomb {
    fn eval<S: ValueSource>(&self, _i: usize, _src: &S) -> f64 {
        panic!("injected body failure")
    }
}

/// `good` with a diagonal entry of `U` zeroed: same pattern, same plan,
/// but every solve over these values reports `ZeroPivot { row: 2 }`.
fn zero_pivot(good: &IluFactors) -> IluFactors {
    let mut bad = good.clone();
    let pos = bad.u.indptr()[2];
    assert_eq!(bad.u.row_indices(2)[0], 2, "row 2 leads with its diagonal");
    bad.u.data_mut()[pos] = 0.0;
    bad
}

#[test]
fn lone_submit_and_batch_of_one_are_indistinguishable() {
    let cfg = test_cfg();
    let f = factors_from_pattern(&pattern_set(1, 9, 77)[0]);
    let l = pattern_set(1, 9, 78)[0].strict_lower();
    let graph = DepGraph::from_lower_triangular(&l).unwrap();
    let spec = LoopSpec::new(graph.clone());
    let n = f.n();
    assert_eq!(l.nrows(), n);
    let b = rhs(n, 5);
    let body = LinearBody::new(&graph, l.data(), &b);
    let past = std::time::Instant::now() - std::time::Duration::from_millis(1);

    // Healthy jobs, cold then warm, one per class.
    let seen = assert_door_parity("solve", &cfg, n, 2, |rt, batched, x| {
        send(rt, batched, Job::<NoBody>::solve(&f, &b, x))
    });
    let cached: Vec<bool> = seen
        .requests
        .iter()
        .map(|r| r.as_ref().unwrap().1)
        .collect();
    assert_eq!(cached, [false, true]);
    assert_eq!((seen.caches[0].builds, seen.caches[0].hits), (1, 1));
    assert_eq!(seen.policy_runs.iter().sum::<u64>(), 2);
    let seen = assert_door_parity("looped", &cfg, n, 2, |rt, batched, out| {
        send(rt, batched, Job::looped(&spec, &body, out))
    });
    assert_eq!((seen.caches[1].builds, seen.caches[1].hits), (1, 1));
    let linear = assert_door_parity("linear", &cfg, n, 2, |rt, batched, out| {
        send(rt, batched, Job::<NoBody>::linear(&spec, l.data(), &b, out))
    });
    assert_eq!((linear.caches[2].builds, linear.caches[2].hits), (1, 1));
    // Same recurrence, generic body vs compiled layout: same bits.
    assert_eq!(
        seen.requests[0].as_ref().unwrap().2,
        linear.requests[0].as_ref().unwrap().2
    );

    // The three failure shapes.
    let bad = zero_pivot(&f);
    let seen = assert_door_parity("zero pivot", &cfg, n, 2, |rt, batched, x| {
        send(rt, batched, Job::<NoBody>::solve(&bad, &b, x))
    });
    assert!(seen.requests.iter().all(|r| r.is_err()));
    assert_eq!(
        (seen.caches[0].builds, seen.caches[0].hits),
        (1, 1),
        "the plan is built from structure; bad values fail only the solve"
    );
    assert_eq!(seen.policy_runs, [0; 5]);

    let expired = [
        assert_door_parity("expired solve", &cfg, n, 2, |rt, batched, x| {
            let job = Job::<NoBody>::solve(&f, &b, x);
            send(rt, batched, job.with_deadline(past))
        }),
        assert_door_parity("expired loop", &cfg, n, 2, |rt, batched, out| {
            let job = Job::looped(&spec, &body, out);
            send(rt, batched, job.with_deadline(past))
        }),
        assert_door_parity("expired linear", &cfg, n, 2, |rt, batched, out| {
            let job = Job::<NoBody>::linear(&spec, l.data(), &b, out);
            send(rt, batched, job.with_deadline(past))
        }),
    ];
    for seen in expired {
        assert_eq!(
            seen.requests,
            [
                Err(RuntimeError::DeadlineExceeded),
                Err(RuntimeError::DeadlineExceeded)
            ]
        );
        assert_eq!((seen.deadline_expired, seen.circuit_open), (2, 0));
    }

    let seen = assert_door_parity("panicking body", &cfg, n, 2, |rt, batched, out| {
        send(rt, batched, Job::looped(&spec, &Bomb, out))
    });
    assert!(seen
        .requests
        .iter()
        .all(|r| matches!(r, Err(RuntimeError::BodyPanicked { .. }))));
    assert_eq!(seen.body_panics, 2);
}

/// A stream of failing jobs trips the pattern's breaker at exactly
/// `breaker_threshold`, whichever door the stream came through — lone
/// submits, batches of one, or one batch holding them all in one group.
#[test]
fn failing_jobs_trip_the_breaker_through_either_door() {
    const THRESHOLD: usize = 3;
    let cfg = RuntimeConfig {
        breaker_threshold: THRESHOLD as u32,
        breaker_cooldown: std::time::Duration::from_secs(60),
        ..test_cfg()
    };
    let bad = zero_pivot(&factors_from_pattern(&pattern_set(1, 8, 5)[0]));
    let n = bad.n();
    let b = rhs(n, 1);

    let seen = assert_door_parity("failing jobs", &cfg, n, THRESHOLD + 2, |rt, batched, x| {
        send(rt, batched, Job::<NoBody>::solve(&bad, &b, x))
    });
    for (i, r) in seen.requests.iter().enumerate() {
        let open = *r == Err(RuntimeError::CircuitOpen);
        assert_eq!(open, i >= THRESHOLD, "request {i}: {r:?}");
    }
    assert_eq!(seen.circuit_open, 2);
    assert_eq!(
        seen.caches[0].builds, 1,
        "bad values never cost a second inspection"
    );

    // One batch, one group of THRESHOLD singular jobs: every job's own
    // failure counts, so the very next lone submit is rejected.
    let rt = Runtime::new(cfg);
    let mut outs = vec![vec![0.0; n]; THRESHOLD];
    let outcome =
        rt.submit_batch::<NoBody>(outs.iter_mut().map(|x| Job::solve(&bad, &b, x)).collect());
    assert_eq!((outcome.groups, outcome.ok_count()), (1, 0));
    assert!(outcome
        .jobs
        .iter()
        .all(|j| matches!(j, Err(e) if *e != RuntimeError::CircuitOpen)));
    let mut x = vec![0.0; n];
    assert_eq!(
        rt.submit(Job::<NoBody>::solve(&bad, &b, &mut x))
            .unwrap_err(),
        RuntimeError::CircuitOpen
    );
}

/// Singular values cost one inspection, not one per request: the plan is
/// keyed *and built* on structure, so K zero-pivot jobs on a fresh pattern
/// build it once, each fail at their own value gather with `x` untouched,
/// and the first good-valued job on the pattern is a cache hit.
#[test]
fn singular_values_cost_one_inspection_not_one_per_request() {
    const K: usize = 4;
    let cfg = RuntimeConfig {
        breaker_threshold: K as u32 + 2,
        ..test_cfg()
    };
    let good = factors_from_pattern(&pattern_set(1, 8, 31)[0]);
    let bad = zero_pivot(&good);
    let n = good.n();
    let b = rhs(n, 4);
    let zero_pivot_err = RuntimeError::Krylov(rtpl::krylov::KrylovError::Sparse(
        rtpl::sparse::SparseError::ZeroPivot { row: 2 },
    ));
    // Reference: a runtime that never saw the singular values.
    let mut expect = vec![0.0; n];
    Runtime::new(cfg.clone())
        .submit(Job::<NoBody>::solve(&good, &b, &mut expect))
        .unwrap();

    for batched in [false, true] {
        let rt = Runtime::new(cfg.clone());
        for _ in 0..K {
            let mut x = vec![-7.0; n];
            let r = send(&rt, batched, Job::<NoBody>::solve(&bad, &b, &mut x));
            assert_eq!(r.unwrap_err(), zero_pivot_err);
            assert_eq!(x, vec![-7.0; n], "a failed solve leaves x untouched");
        }
        assert_eq!(rt.stats().solves.builds, 1, "batched = {batched}");
        let mut x = vec![0.0; n];
        let o = send(&rt, batched, Job::<NoBody>::solve(&good, &b, &mut x)).unwrap();
        assert!(o.cached, "the plan survived the bad values");
        assert_eq!(x, expect);
        assert_eq!(rt.stats().solves.builds, 1);
    }

    // One batch mixing good and singular factor objects of one pattern:
    // one group, one build, per-job results.
    let rt = Runtime::new(cfg);
    let mut outs = vec![vec![-7.0; n]; 4];
    let jobs = outs
        .iter_mut()
        .zip([&bad, &good, &bad, &good])
        .map(|(x, f)| Job::solve(f, &b, x))
        .collect();
    let outcome = rt.submit_batch::<NoBody>(jobs);
    assert_eq!((outcome.groups, rt.stats().solves.builds), (1, 1));
    for (i, (r, x)) in outcome.jobs.iter().zip(&outs).enumerate() {
        if i % 2 == 0 {
            assert_eq!(r.as_ref().unwrap_err(), &zero_pivot_err, "job {i}");
            assert_eq!(x, &vec![-7.0; n], "job {i}");
        } else {
            assert!(r.is_ok(), "job {i}: {r:?}");
            assert_eq!(x, &expect, "job {i}");
        }
    }
}
