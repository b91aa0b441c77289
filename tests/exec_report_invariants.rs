//! `ExecReport` accounting invariants, across policies and schedules:
//!
//! * the per-processor iteration counts of every report sum to the trip
//!   count `n`, with one slot per scheduled processor;
//! * `PreScheduledElided` performs **no more barriers than the minimal
//!   `BarrierPlan` it ran under** (and therefore no more than the full
//!   plan's `phases − 1`), while plain `PreScheduled` performs exactly
//!   `phases − 1`.

use rtpl::executor::WorkerPool;
use rtpl::inspector::{DepGraph, Partition, Schedule, Wavefronts};
use rtpl::prelude::*;
use rtpl::sparse::gen::laplacian_5pt;
use rtpl::sparse::rng::SmallRng;

/// A random forward DAG (every dependence targets a smaller index).
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

struct DagBody<'a>(&'a DepGraph);

impl LoopBody for DagBody<'_> {
    fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
        let mut acc = (i as f64 + 1.0).ln_1p();
        for &d in self.0.deps(i) {
            acc += 0.5 * src.get(d as usize);
        }
        acc
    }
}

fn check_report_shape(report: &rtpl::ExecReport, n: usize, nprocs: usize, ctx: &str) {
    assert_eq!(
        report.iters_per_proc.len(),
        nprocs,
        "{ctx}: one iteration slot per processor"
    );
    assert_eq!(
        report.total_iters() as usize,
        n,
        "{ctx}: per-processor iteration counts must sum to n"
    );
}

#[test]
fn iteration_counts_sum_to_n_for_every_policy() {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    for case in 0..12 {
        let g = random_dag(&mut rng, 120, 5);
        let n = g.n();
        let wf = Wavefronts::compute(&g).unwrap();
        for p in [1usize, 2, 4] {
            let schedule = Schedule::global(&wf, p).unwrap();
            let plan = PlannedLoop::new(g.clone(), schedule).unwrap();
            let pool = WorkerPool::new(p);
            let body = DagBody(plan.graph());
            for policy in [
                ExecutorKind::SelfExecuting,
                ExecutorKind::PreScheduled,
                ExecutorKind::PreScheduledElided,
                ExecutorKind::Doacross,
            ] {
                let mut out = vec![0.0; n];
                let report = plan.run(Some(&pool), policy, &body, &mut out);
                check_report_shape(&report, n, p, &format!("case {case}, p {p}, {policy:?}"));
            }
            // The sequential reference reports one virtual processor.
            let mut out = vec![0.0; n];
            let seq = plan.run(None, ExecutorKind::Sequential, &body, &mut out);
            assert_eq!(seq.iters_per_proc, vec![n as u64]);
            assert_eq!(seq.barriers, 0);
            assert_eq!(seq.stalls, 0);
        }
    }
}

#[test]
fn elided_barrier_count_is_bounded_by_the_minimal_plan() {
    // Local contiguous schedules on meshes leave many droppable barriers —
    // the interesting regime for the elision invariant.
    for (nx, ny, p) in [(8usize, 8usize, 4usize), (10, 6, 3), (12, 12, 2)] {
        let l = laplacian_5pt(nx, ny).strict_lower();
        let n = l.nrows();
        let g = DepGraph::from_lower_triangular(&l).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let schedule = Schedule::local(&wf, &Partition::contiguous(n, p).unwrap()).unwrap();
        let plan = PlannedLoop::new(g, schedule).unwrap();
        let pool = WorkerPool::new(p);
        let body = DagBody(plan.graph());

        let mut out_full = vec![0.0; n];
        let full = plan.run(
            Some(&pool),
            ExecutorKind::PreScheduled,
            &body,
            &mut out_full,
        );
        let mut out_elided = vec![0.0; n];
        let elided = plan.run(
            Some(&pool),
            ExecutorKind::PreScheduledElided,
            &body,
            &mut out_elided,
        );

        assert_eq!(out_full, out_elided, "{nx}x{ny}/{p}: same answer");
        let minimal = plan.barrier_plan().count() as u64;
        assert!(
            elided.barriers <= minimal,
            "{nx}x{ny}/{p}: elided executor performed {} barriers, minimal plan allows {minimal}",
            elided.barriers
        );
        assert_eq!(
            full.barriers as usize,
            plan.num_phases() - 1,
            "{nx}x{ny}/{p}: full discipline pays every boundary"
        );
        assert!(elided.barriers <= full.barriers);
        // On these shapes elision actually removes barriers — the
        // invariant is not vacuous.
        assert!(
            (minimal as usize) < plan.num_phases() - 1,
            "{nx}x{ny}/{p}: expected a non-trivial elision opportunity"
        );
    }
}

#[test]
fn random_dags_respect_the_elision_bound() {
    let mut rng = SmallRng::seed_from_u64(0xE1DE);
    for _ in 0..10 {
        let g = random_dag(&mut rng, 90, 4);
        let n = g.n();
        let wf = Wavefronts::compute(&g).unwrap();
        for p in [2usize, 3] {
            let schedule = Schedule::local(&wf, &Partition::striped(n, p).unwrap()).unwrap();
            let plan = PlannedLoop::new(g.clone(), schedule).unwrap();
            let pool = WorkerPool::new(p);
            let body = DagBody(plan.graph());
            let mut out = vec![0.0; n];
            let elided = plan.run(
                Some(&pool),
                ExecutorKind::PreScheduledElided,
                &body,
                &mut out,
            );
            assert!(elided.barriers <= plan.barrier_plan().count() as u64);
            check_report_shape(&elided, n, p, "random elided");
        }
    }
}
