//! The self-executing executor (Figure 4).
//!
//! ```text
//! do i = 1, nlocal
//!     isched = schedule(i)
//!     ...
//!     while (ready(needed_index) .ne. COMPLETED) end while   ! busy wait
//!     x(isched) = <body>
//!     ready(isched) = COMPLETED
//! end do
//! ```
//!
//! Every processor walks its schedule slice in order; reads of other
//! indices' results busy-wait on the shared ready array, so work in
//! consecutive wavefronts **pipelines**: an index may start as soon as its
//! own operands exist, not when the whole previous wavefront is done. This
//! is the paper's recommended executor. The loop itself is
//! `protocol::list_walk` — the list-order walk of the crate's one
//! synchronization protocol — run here over a scratch built for the call.

use crate::pool::WorkerPool;
use crate::protocol;
use crate::report::ExecReport;
use crate::shared::WaitingSource;
use rtpl_inspector::Schedule;

/// Runs `body` over all indices of `schedule` with busy-wait
/// synchronization; results are written to `out`.
///
/// `body(i, src)` must compute the value of index `i`, reading the values of
/// its dependences through `src` *only* (reads through `src` are what the
/// ready array protects). The schedule must target exactly
/// `pool.nworkers()` processors and must satisfy the wavefront progress
/// invariant ([`Schedule::validate`]); both are checked. The body is a
/// plain generic closure over the concrete [`WaitingSource`] — fully
/// statically dispatched.
///
/// ```
/// use rtpl_executor::{self_executing, ValueSource, WorkerPool};
/// use rtpl_inspector::{DepGraph, Schedule, Wavefronts};
/// // x(i) = 1 + x(i-1): a chain, still executes correctly in parallel.
/// let g = DepGraph::from_fn(5, |i| if i == 0 { vec![] } else { vec![i as u32 - 1] })?;
/// let wf = Wavefronts::compute(&g)?;
/// let schedule = Schedule::global(&wf, 2)?;
/// let pool = WorkerPool::new(2);
/// let mut out = vec![0.0; 5];
/// self_executing(&pool, &schedule, &|i, src| {
///     if i == 0 { 1.0 } else { 1.0 + src.get(i - 1) }
/// }, &mut out);
/// assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
/// # Ok::<(), rtpl_inspector::InspectorError>(())
/// ```
pub fn self_executing<F>(
    pool: &WorkerPool,
    schedule: &Schedule,
    body: &F,
    out: &mut [f64],
) -> ExecReport
where
    F: for<'s> Fn(usize, &WaitingSource<'s>) -> f64 + Sync,
{
    protocol::one_shot(pool, Some(schedule), body, out, |run, kernel| {
        run.list_walk(kernel)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValueSource;
    use rtpl_inspector::{DepGraph, Partition, Schedule, Wavefronts};
    use rtpl_sparse::gen::{laplacian_5pt, random_lower};
    use rtpl_sparse::triangular::{row_substitution_lower, solve_lower, Diag};

    fn run_lower_solve(nprocs: usize, nx: usize, ny: usize) {
        let a = laplacian_5pt(nx, ny);
        let l = a.strict_lower();
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
        let mut expect = vec![0.0; n];
        solve_lower(&l, &b, Diag::Unit, &mut expect).unwrap();

        let g = DepGraph::from_lower_triangular(&l).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let pool = WorkerPool::new(nprocs);

        for schedule in [
            Schedule::global(&wf, nprocs).unwrap(),
            Schedule::local(&wf, &Partition::striped(n, nprocs).unwrap()).unwrap(),
        ] {
            let mut out = vec![0.0; n];
            let report = self_executing(
                &pool,
                &schedule,
                &|i, src| row_substitution_lower(&l, &b, i, |j| src.get(j)),
                &mut out,
            );
            assert_eq!(report.total_iters() as usize, n);
            assert_eq!(report.iters_per_proc.len(), nprocs);
            for i in 0..n {
                assert!(
                    (out[i] - expect[i]).abs() < 1e-12,
                    "index {i}: {} vs {}",
                    out[i],
                    expect[i]
                );
            }
        }
    }

    #[test]
    fn matches_sequential_on_mesh_2_procs() {
        run_lower_solve(2, 7, 5);
    }

    #[test]
    fn matches_sequential_on_mesh_4_procs() {
        run_lower_solve(4, 9, 8);
    }

    #[test]
    fn matches_sequential_on_random_dag() {
        let l = random_lower(120, 5, 77).strict_lower();
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let g = DepGraph::from_lower_triangular(&l).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let pool = WorkerPool::new(3);
        let schedule = Schedule::global(&wf, 3).unwrap();
        let mut expect = vec![0.0; n];
        solve_lower(&l, &b, Diag::Unit, &mut expect).unwrap();
        let mut out = vec![0.0; n];
        self_executing(
            &pool,
            &schedule,
            &|i, src| row_substitution_lower(&l, &b, i, |j| src.get(j)),
            &mut out,
        );
        assert_eq!(out, expect);
    }

    #[test]
    fn figure2_simple_loop() {
        // x(i) = x(i) + b(i)*x(ia(i)) with xold semantics for ia(i) >= i.
        let ia = vec![3usize, 0, 1, 3, 2];
        let xold = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let bcoef = [0.5; 5];
        let g = DepGraph::from_index_array(&ia).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let pool = WorkerPool::new(2);
        let schedule = Schedule::global(&wf, 2).unwrap();

        // Sequential reference per Figure 4 semantics.
        let mut expect = xold.clone();
        for i in 0..5 {
            let operand = if ia[i] >= i {
                xold[ia[i]]
            } else {
                expect[ia[i]]
            };
            expect[i] = xold[i] + bcoef[i] * operand;
        }

        let mut out = vec![0.0; 5];
        self_executing(
            &pool,
            &schedule,
            &|i, src: &WaitingSource<'_>| {
                let t = ia[i];
                let operand = if t >= i { xold[t] } else { src.get(t) };
                xold[i] + bcoef[i] * operand
            },
            &mut out,
        );
        assert_eq!(out, expect);
    }

    #[test]
    #[should_panic(expected = "must match the pool")]
    fn mismatched_pool_rejected() {
        let g = DepGraph::from_lists(2, vec![vec![], vec![0]]).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let schedule = Schedule::global(&wf, 3).unwrap();
        let pool = WorkerPool::new(2);
        let mut out = vec![0.0; 2];
        self_executing(&pool, &schedule, &|_, _: &WaitingSource<'_>| 0.0, &mut out);
    }
}
