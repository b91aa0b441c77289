//! Real-thread executor benchmarks: the four loop executors on a
//! 32×32-mesh triangular solve (Figure 8 body), plus a **dyn-dispatch
//! baseline** — the pre-redesign executor shape with
//! `&dyn Fn(usize, &dyn ValueSource)` bodies — so the static-dispatch
//! redesign is measured against exactly what it replaced, in the same
//! build.
//!
//! Absolute times depend on how many hardware cores this host exposes —
//! the executors stay correct when oversubscribed (busy-waits yield), but
//! speedups need real cores. The comparisons of interest are (1) the
//! relative overhead of the synchronization disciplines and (2) generic vs
//! dyn dispatch on the same discipline.
//!
//! Run with: `cargo bench --bench executors`

use rtpl::executor::{
    Chunking, ExecutorKind, LoopBody, PlannedLoop, SharedVec, ValueSource, WaitingSource,
    WorkerPool,
};
use rtpl::inspector::{DepGraph, Schedule, Wavefronts};
use rtpl::sparse::gen::laplacian_5pt;
use rtpl::sparse::triangular::row_substitution_lower;
use rtpl::sparse::Csr;
use rtpl_bench::bench_case;

/// The Figure 8 row-substitution body as a [`LoopBody`] (static dispatch).
struct Solve<'a> {
    l: &'a Csr,
    rhs: &'a [f64],
}

impl LoopBody for Solve<'_> {
    #[inline]
    fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
        row_substitution_lower(self.l, self.rhs, i, |j| src.get(j))
    }
}

/// The pre-redesign executor shape: busy-wait discipline with two virtual
/// dispatches per iteration (`dyn Fn` body over a `dyn ValueSource`). Kept
/// here, not in the library, purely as the regression baseline.
fn dyn_self_executing(
    pool: &WorkerPool,
    schedule: &Schedule,
    body: &(dyn Fn(usize, &dyn ValueSource) -> f64 + Sync),
    out: &mut [f64],
) {
    let shared = SharedVec::new(schedule.n());
    let epoch = shared.begin_run();
    pool.run(&|p| {
        let src = WaitingSource::new(&shared, epoch);
        for &i in schedule.proc(p) {
            let i = i as usize;
            let v = body(i, &src as &dyn ValueSource);
            shared.publish_at(i, v, epoch);
        }
    })
    .unwrap();
    shared.copy_into_at(out, epoch);
}

fn main() {
    let a = laplacian_5pt(32, 32);
    let l = a.strict_lower();
    let n = l.nrows();
    let rhs: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.02).cos()).collect();
    let g = DepGraph::from_lower_triangular(&l).unwrap();
    let wf = Wavefronts::compute(&g).unwrap();

    let nprocs = std::thread::available_parallelism().map_or(2, |v| v.get().min(4));
    let pool = WorkerPool::new(nprocs);
    let schedule = Schedule::global(&wf, nprocs).unwrap();
    let plan = PlannedLoop::new(g, schedule.clone()).unwrap();
    // One scratch for the whole bench: `run_in` times a discipline, not an
    // allocation.
    let mut scratch = plan.scratch();
    let body = Solve { l: &l, rhs: &rhs };

    println!("executors_32x32 (p = {nprocs})");
    let mut x = vec![0.0; n];
    bench_case("sequential", 5, 30, || {
        plan.run(None, ExecutorKind::Sequential, &body, &mut x);
    });
    bench_case(&format!("self_executing_p{nprocs}"), 5, 30, || {
        plan.run_in(
            &mut scratch,
            Some(&pool),
            ExecutorKind::SelfExecuting,
            &body,
            &mut x,
        );
    });
    bench_case(&format!("pre_scheduled_p{nprocs}"), 5, 30, || {
        plan.run_in(
            &mut scratch,
            Some(&pool),
            ExecutorKind::PreScheduled,
            &body,
            &mut x,
        );
    });
    bench_case(&format!("pre_scheduled_elided_p{nprocs}"), 5, 30, || {
        plan.run_in(
            &mut scratch,
            Some(&pool),
            ExecutorKind::PreScheduledElided,
            &body,
            &mut x,
        );
    });
    bench_case(&format!("doacross_p{nprocs}"), 5, 30, || {
        plan.run_in(
            &mut scratch,
            Some(&pool),
            ExecutorKind::Doacross,
            &body,
            &mut x,
        );
    });
    let order = wf.sorted_list();
    bench_case(&format!("self_scheduling_guided_p{nprocs}"), 5, 30, || {
        rtpl::executor::self_scheduling(
            &pool,
            &order,
            Chunking::Guided,
            &|i, src| row_substitution_lower(&l, &rhs, i, |j| src.get(j)),
            &mut x,
        );
    });

    // --- static vs dyn dispatch on the identical discipline ---------------
    println!("\ndispatch comparison (self-executing, identical schedule):");
    let t_static = bench_case("generic (static dispatch)", 5, 50, || {
        plan.run_in(
            &mut scratch,
            Some(&pool),
            ExecutorKind::SelfExecuting,
            &body,
            &mut x,
        );
    });
    let dyn_body =
        |i: usize, src: &dyn ValueSource| row_substitution_lower(&l, &rhs, i, |j| src.get(j));
    let t_dyn = bench_case("dyn-dispatch baseline", 5, 50, || {
        dyn_self_executing(&pool, &schedule, &dyn_body, &mut x);
    });
    println!(
        "\nstatic/dyn time ratio: {:.3} (< 1.0 means the generic redesign is faster)",
        t_static / t_dyn
    );
}
