//! Executor-equivalence property tests: every executor kind computes
//! exactly what the sequential loop computes, on arbitrary forward
//! dependence DAGs, under every sorting strategy and processor count.
//!
//! The sweep is the central invariant: **random DAGs × all
//! [`ExecutorKind`]s (`Sequential` an arm like the others) × all
//! [`Sorting`] strategies × 1/2/4 processors**, every combination checked
//! bit-for-bit against the library's reference loop through the single
//! `PlannedLoop::run` entry point.
//! DAG generation is deterministic in the seed (in-tree [`SmallRng`]), so
//! any failure reproduces exactly.

use rtpl::executor::{self_scheduling, Chunking, WorkerPool};
use rtpl::inspector::{DepGraph, Wavefronts};
use rtpl::prelude::*;
use rtpl::sparse::rng::SmallRng;

/// A random forward DAG of `2..nmax` indices with up to `maxdeg`
/// dependences each (every dependence targets a strictly smaller index —
/// the paper's start-time-schedulable setting).
fn random_dag(rng: &mut SmallRng, nmax: usize, maxdeg: usize) -> DepGraph {
    let n = rng.gen_range_usize(2, nmax);
    let lists: Vec<Vec<u32>> = (0..n)
        .map(|i| {
            if i == 0 {
                Vec::new()
            } else {
                let deg = rng.gen_range_inclusive_usize(0, maxdeg.min(i));
                let mut v: Vec<u32> = (0..deg).map(|_| rng.gen_range_usize(0, i) as u32).collect();
                v.sort_unstable();
                v.dedup();
                v
            }
        })
        .collect();
    DepGraph::from_lists(n, lists).unwrap()
}

/// The loop body: a deterministic function of the index and its operands.
struct DagBody<'a>(&'a DepGraph);

impl LoopBody for DagBody<'_> {
    fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
        let mut acc = (i as f64 + 1.0).sqrt();
        for &d in self.0.deps(i) {
            acc += 0.25 * src.get(d as usize) + 0.01 * (d as f64);
        }
        acc
    }
}

/// Sequential reference through the library's own reference executor —
/// the one copy of the body ([`DagBody`]) serves every discipline.
fn sequential_reference(g: &DepGraph) -> Vec<f64> {
    let mut out = vec![0.0; g.n()];
    rtpl::executor::sequential_body(g.n(), &DagBody(g), &mut out);
    out
}

/// `plan.run`, and — with `--features verify-trace` — the same run recorded
/// through the executor's access-trace hooks and replayed through the
/// rtpl-verify vector-clock race oracle. The sweep then proves not just
/// "same answers" but "no unordered conflicting accesses" for every
/// policy × strategy × processor-count combination.
fn run_checked(
    plan: &PlannedLoop,
    pool: &WorkerPool,
    policy: ExecutorKind,
    body: &DagBody,
    out: &mut [f64],
) -> ExecReport {
    #[cfg(feature = "verify-trace")]
    {
        let (report, events) =
            rtpl::executor::trace::capture(|| plan.run(Some(pool), policy, body, out));
        rtpl::verify::race::check_trace(pool.nworkers(), &events)
            .unwrap_or_else(|e| panic!("{policy:?} x{}: race oracle: {e}", pool.nworkers()));
        report
    }
    #[cfg(not(feature = "verify-trace"))]
    plan.run(Some(pool), policy, body, out)
}

/// Runs `f` — under `verify-trace` inside a capture session: the trace log
/// is process-global, so an uncaptured pool run would leak its events into
/// a neighbour test's session and fail that test's race oracle.
fn isolated<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(feature = "verify-trace")]
    return rtpl::executor::trace::capture(f).0;
    #[cfg(not(feature = "verify-trace"))]
    f()
}

/// The satellite sweep: policies × strategies × processor counts on random
/// DAGs, all through `PlannedLoop::run`.
#[test]
fn every_policy_strategy_and_proc_count_matches_sequential() {
    let mut rng = SmallRng::seed_from_u64(0xE9);
    for case in 0..24 {
        let g = random_dag(&mut rng, 60, 4);
        let expect = sequential_reference(&g);
        for p in [1usize, 2, 4] {
            let pool = WorkerPool::new(p);
            for strategy in Sorting::ALL {
                let plan = DoConsider::inspect(g.clone())
                    .unwrap()
                    .schedule(strategy, p)
                    .unwrap();
                for policy in ExecutorKind::ALL {
                    let mut out = vec![0.0; g.n()];
                    let report =
                        run_checked(&plan, &pool, policy, &DagBody(plan.graph()), &mut out);
                    assert_eq!(
                        out, expect,
                        "case {case}: {policy:?}/{strategy:?} p={p} diverged"
                    );
                    assert_eq!(
                        report.total_iters() as usize,
                        g.n(),
                        "case {case}: {policy:?}/{strategy:?} p={p} iteration count"
                    );
                }
            }
        }
    }
}

/// Repeated runs of one plan (the paper's plan-once/run-many economics)
/// stay correct: the epoch-based buffer reuse must never leak values
/// between runs or policies.
#[test]
fn interleaved_policies_on_one_plan_stay_equivalent() {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    for _ in 0..6 {
        let g = random_dag(&mut rng, 50, 3);
        let expect = sequential_reference(&g);
        let pool = WorkerPool::new(2);
        let plan = DoConsider::inspect(g.clone())
            .unwrap()
            .schedule(Sorting::Global, 2)
            .unwrap();
        for round in 0..3 {
            for policy in ExecutorKind::ALL {
                let mut out = vec![0.0; g.n()];
                run_checked(&plan, &pool, policy, &DagBody(plan.graph()), &mut out);
                assert_eq!(out, expect, "round {round} {policy:?}");
            }
        }
    }
}

/// The dynamic self-scheduling executor (related-work baseline) agrees too.
#[test]
fn self_scheduling_matches_sequential() {
    let mut rng = SmallRng::seed_from_u64(0x7E57);
    for _ in 0..12 {
        let g = random_dag(&mut rng, 50, 3);
        let expect = sequential_reference(&g);
        let order = Wavefronts::compute(&g).unwrap().sorted_list();
        for p in [1usize, 2, 4] {
            let pool = WorkerPool::new(p);
            for chunking in [Chunking::Unit, Chunking::Guided, Chunking::Fixed(3)] {
                let mut out = vec![0.0; g.n()];
                let body = DagBody(&g);
                isolated(|| {
                    self_scheduling(
                        &pool,
                        &order,
                        chunking,
                        &|i, src| body.eval(i, src),
                        &mut out,
                    )
                });
                assert_eq!(out, expect, "{chunking:?} p={p}");
            }
        }
    }
}

/// Wavefront invariants on random DAGs (kept from the original suite).
#[test]
fn wavefronts_valid_on_random_dags() {
    let mut rng = SmallRng::seed_from_u64(0x3F);
    for _ in 0..24 {
        let g = random_dag(&mut rng, 80, 5);
        let wf = Wavefronts::compute(&g).unwrap();
        wf.validate(&g).unwrap();
        // Counting-sorted list is a permutation in nondecreasing wavefront
        // order.
        let list = wf.sorted_list();
        let mut seen = vec![false; g.n()];
        let mut prev = 0u32;
        for &i in &list {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
            let w = wf.of(i as usize);
            assert!(w >= prev);
            prev = w;
        }
        assert!(seen.iter().all(|&s| s));
    }
}

/// The parallel wavefront sweep agrees with the sequential one.
#[test]
fn parallel_wavefront_sweep_matches() {
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    for _ in 0..16 {
        let g = random_dag(&mut rng, 60, 4);
        let t = rng.gen_range_usize(2, 4);
        let seq = Wavefronts::compute(&g).unwrap();
        let par = Wavefronts::compute_parallel(&g, t).unwrap();
        assert_eq!(seq, par);
    }
}
