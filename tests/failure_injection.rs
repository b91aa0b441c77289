//! Failure injection: buggy loop bodies, malformed inputs, and poisoned
//! synchronization must fail cleanly (panic/Err), never hang or corrupt.

use rtpl::executor::{self_scheduling, Chunking, WorkerPool};
use rtpl::inspector::{BarrierPlan, DepGraph, InspectorError, Schedule, Wavefronts};
use rtpl::prelude::*;
use rtpl::sparse::gen::laplacian_5pt;

fn mesh_plan(nx: usize, ny: usize, p: usize) -> PlannedLoop {
    let g = DepGraph::from_lower_triangular(&laplacian_5pt(nx, ny).strict_lower()).unwrap();
    let wf = Wavefronts::compute(&g).unwrap();
    let s = Schedule::global(&wf, p).unwrap();
    PlannedLoop::new(g, s).unwrap()
}

/// A body that panics on one index; every other index sums its operands.
struct Bomb<'a> {
    graph: &'a DepGraph,
    bomb: usize,
}

impl LoopBody for Bomb<'_> {
    fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
        assert!(i != self.bomb, "injected failure at index {i}");
        1.0 + self
            .graph
            .deps(i)
            .iter()
            .map(|&d| src.get(d as usize))
            .sum::<f64>()
    }
}

/// A body that panics on one index. Peers busy-waiting on the poisoned
/// value must not livelock; `pool.run` must report the failure, for every
/// policy.
#[test]
fn panicking_body_fails_every_policy_without_hanging() {
    for policy in ExecutorKind::ALL {
        let plan = mesh_plan(8, 8, 2);
        let pool = WorkerPool::new(2);
        let mut out = vec![0.0; plan.n()];
        let body = Bomb {
            graph: plan.graph(),
            bomb: 20,
        };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.run(Some(&pool), policy, &body, &mut out)
        }));
        assert!(r.is_err(), "{policy:?}: the panic must propagate");
    }
}

/// A plan whose run panicked stays usable (poisoning is cleared by the next
/// run's epoch bump).
#[test]
fn plan_recovers_after_panicking_run() {
    let plan = mesh_plan(6, 6, 2);
    let pool = WorkerPool::new(2);
    let mut out = vec![0.0; plan.n()];
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        plan.run(
            Some(&pool),
            ExecutorKind::SelfExecuting,
            &Bomb {
                graph: plan.graph(),
                bomb: 17,
            },
            &mut out,
        )
    }));
    assert!(r.is_err());
    // The same plan must now run a healthy body to completion.
    let healthy = Bomb {
        graph: plan.graph(),
        bomb: usize::MAX,
    };
    let mut seq = vec![0.0; plan.n()];
    plan.run(None, ExecutorKind::Sequential, &healthy, &mut seq);
    let report = plan.run(Some(&pool), ExecutorKind::SelfExecuting, &healthy, &mut out);
    assert_eq!(out, seq);
    assert_eq!(report.total_iters() as usize, plan.n());
}

#[test]
fn panicking_body_fails_self_scheduling() {
    let g = DepGraph::from_lower_triangular(&laplacian_5pt(6, 6).strict_lower()).unwrap();
    let wf = Wavefronts::compute(&g).unwrap();
    let order = wf.sorted_list();
    let pool = WorkerPool::new(2);
    let mut out = vec![0.0; g.n()];
    let gref = &g;
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        self_scheduling(
            &pool,
            &order,
            Chunking::Guided,
            &|i, src| {
                assert!(i != 17, "boom");
                1.0 + gref
                    .deps(i)
                    .iter()
                    .map(|&d| src.get(d as usize))
                    .sum::<f64>()
            },
            &mut out,
        )
    }));
    assert!(r.is_err());
}

/// The pool survives a panicking job — reported as a typed error, not an
/// unwind through the coordinator — and stays usable.
#[test]
fn pool_reusable_after_panic() {
    let pool = WorkerPool::new(3);
    let err = pool
        .run(&|id| {
            assert!(id != 1, "one worker dies");
        })
        .unwrap_err();
    assert_eq!(err.panicked, 1);
    assert!(pool.is_healthy());
    // Next job runs normally.
    use std::sync::atomic::{AtomicUsize, Ordering};
    let count = AtomicUsize::new(0);
    pool.run(&|_| {
        count.fetch_add(1, Ordering::Relaxed);
    })
    .unwrap();
    assert_eq!(count.load(Ordering::Relaxed), 3);
}

#[test]
fn cyclic_graphs_rejected_end_to_end() {
    let g = DepGraph::from_lists(3, vec![vec![1], vec![2], vec![0]]).unwrap();
    assert!(matches!(
        rtpl::DoConsider::inspect(g),
        Err(InspectorError::Cycle { .. })
    ));
}

#[test]
fn undercovering_barrier_plan_rejected() {
    let g = DepGraph::from_lower_triangular(&laplacian_5pt(5, 5).strict_lower()).unwrap();
    let wf = Wavefronts::compute(&g).unwrap();
    let s = Schedule::global(&wf, 3).unwrap();
    let full = BarrierPlan::full(s.num_phases());
    full.validate(&s, &g).unwrap();
    // An all-elided plan cannot cover cross-processor deps on a mesh.
    let empty = BarrierPlan::minimal(&Schedule::global(&wf, 1).unwrap(), &g).unwrap();
    // The single-processor minimal plan keeps nothing; validating it against
    // the 3-processor schedule must fail.
    assert_eq!(empty.count(), 0);
    assert!(empty.validate(&s, &g).is_err());
}

#[test]
fn zero_length_loops_are_fine_everywhere() {
    struct Unreachable;
    impl LoopBody for Unreachable {
        fn eval<S: ValueSource>(&self, _: usize, _: &S) -> f64 {
            unreachable!("no iterations exist")
        }
    }
    let g = DepGraph::from_lists(0, Vec::<Vec<u32>>::new()).unwrap();
    let wf = Wavefronts::compute(&g).unwrap();
    let s = Schedule::global(&wf, 2).unwrap();
    let plan = PlannedLoop::new(g, s).unwrap();
    let pool = WorkerPool::new(2);
    let mut out: Vec<f64> = vec![];
    for policy in ExecutorKind::ALL {
        let report = plan.run(Some(&pool), policy, &Unreachable, &mut out);
        assert_eq!(report.total_iters(), 0, "{policy:?}");
    }
}

#[test]
fn non_finite_values_transport_correctly() {
    // The executors must not corrupt NaN/inf payloads (bit transport).
    struct NonFinite;
    impl LoopBody for NonFinite {
        fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
            match i {
                0 => f64::NAN,
                1 => {
                    assert!(src.get(0).is_nan());
                    f64::INFINITY
                }
                _ => src.get(1) - 1.0,
            }
        }
    }
    let g = DepGraph::from_lists(3, vec![vec![], vec![0], vec![1]]).unwrap();
    let wf = Wavefronts::compute(&g).unwrap();
    let s = Schedule::global(&wf, 2).unwrap();
    let plan = PlannedLoop::new(g, s).unwrap();
    let pool = WorkerPool::new(2);
    let mut out = vec![0.0; 3];
    plan.run(
        Some(&pool),
        ExecutorKind::SelfExecuting,
        &NonFinite,
        &mut out,
    );
    assert!(out[0].is_nan());
    assert_eq!(out[1], f64::INFINITY);
    assert_eq!(out[2], f64::INFINITY);
}
