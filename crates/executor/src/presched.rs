//! The pre-scheduled executor (Figure 5).
//!
//! ```text
//! do i = 1, nlocal
//!     isched = schedule(i)
//!     if (isched .eq. NEWPHASE) then
//!         call global synchronization
//!     else
//!         x(isched) = <body>
//!     endif
//! end do
//! ```
//!
//! Work is divided into phases (one per wavefront); a **global barrier**
//! separates consecutive phases, so a value produced in phase `w` may be
//! read without any per-value check in phases `> w`. Cheap per element, but
//! the whole machine waits for the slowest processor of every phase — the
//! end-effect load imbalance analyzed in §4. The elided variant keeps only
//! the barriers a [`BarrierPlan`] proves necessary. Both are
//! `protocol::phase_walk` — the phase walk of the crate's one
//! synchronization protocol — under a full or a minimal plan.

use crate::pool::WorkerPool;
use crate::protocol;
use crate::report::ExecReport;
use crate::shared::PublishedSource;
use rtpl_inspector::{BarrierPlan, Schedule};

/// Runs `body` over all indices of `schedule` with one global barrier
/// between consecutive phases; results are written to `out`.
///
/// `body(i, src)` reads dependence values through the concrete
/// [`PublishedSource`] (statically dispatched); because of the barriers
/// those reads never wait (and in debug builds, reading a value that was
/// not produced in an earlier phase panics — catching schedule bugs).
pub fn pre_scheduled<F>(
    pool: &WorkerPool,
    schedule: &Schedule,
    body: &F,
    out: &mut [f64],
) -> ExecReport
where
    F: for<'s> Fn(usize, &PublishedSource<'s>) -> f64 + Sync,
{
    pre_scheduled_elided(
        pool,
        schedule,
        &BarrierPlan::full(schedule.num_phases()),
        body,
        out,
    )
}

/// Pre-scheduled execution with **barrier elision**: only the barriers the
/// [`BarrierPlan`] marks as kept are performed. The plan must have been
/// computed (or validated) against this schedule and the loop's dependence
/// graph — an under-covering plan is unsound; in debug builds a read of a
/// genuinely unpublished value panics.
pub fn pre_scheduled_elided<F>(
    pool: &WorkerPool,
    schedule: &Schedule,
    plan: &BarrierPlan,
    body: &F,
    out: &mut [f64],
) -> ExecReport
where
    F: for<'s> Fn(usize, &PublishedSource<'s>) -> f64 + Sync,
{
    protocol::one_shot(pool, Some(schedule), body, out, |run, kernel| {
        run.phase_walk(kernel, plan)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::WaitingSource;
    use crate::ValueSource;
    use rtpl_inspector::{DepGraph, Partition, Schedule, Wavefronts};
    use rtpl_sparse::gen::{laplacian_5pt, random_lower};
    use rtpl_sparse::triangular::{row_substitution_lower, solve_lower, Diag};

    #[test]
    fn matches_sequential_on_mesh() {
        let a = laplacian_5pt(6, 9);
        let l = a.strict_lower();
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut expect = vec![0.0; n];
        solve_lower(&l, &b, Diag::Unit, &mut expect).unwrap();

        let g = DepGraph::from_lower_triangular(&l).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        for nprocs in [1, 2, 4] {
            let pool = WorkerPool::new(nprocs);
            for schedule in [
                Schedule::global(&wf, nprocs).unwrap(),
                Schedule::local(&wf, &Partition::striped(n, nprocs).unwrap()).unwrap(),
            ] {
                let mut out = vec![0.0; n];
                let report = pre_scheduled(
                    &pool,
                    &schedule,
                    &|i, src| row_substitution_lower(&l, &b, i, |j| src.get(j)),
                    &mut out,
                );
                assert_eq!(out, expect);
                assert_eq!(report.barriers as usize, schedule.num_phases() - 1);
                assert_eq!(report.stalls, 0);
                assert_eq!(report.total_iters() as usize, n);
            }
        }
    }

    #[test]
    fn matches_self_executing_on_random_dag() {
        let l = random_lower(90, 4, 5).strict_lower();
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let g = DepGraph::from_lower_triangular(&l).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let pool = WorkerPool::new(3);
        let schedule = Schedule::global(&wf, 3).unwrap();
        let mut out_pre = vec![0.0; n];
        pre_scheduled(
            &pool,
            &schedule,
            &|i, src: &PublishedSource<'_>| row_substitution_lower(&l, &b, i, |j| src.get(j)),
            &mut out_pre,
        );
        let mut out_self = vec![0.0; n];
        crate::self_executing(
            &pool,
            &schedule,
            &|i, src: &WaitingSource<'_>| row_substitution_lower(&l, &b, i, |j| src.get(j)),
            &mut out_self,
        );
        assert_eq!(out_pre, out_self);
    }

    #[test]
    fn elided_execution_matches_full_execution() {
        let a = laplacian_5pt(8, 7);
        let l = a.strict_lower();
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin() + 2.0).collect();
        let g = DepGraph::from_lower_triangular(&l).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        for nprocs in [1usize, 2, 3] {
            let pool = WorkerPool::new(nprocs);
            // Contiguous local schedules give real elision opportunities.
            let s = Schedule::local(&wf, &Partition::contiguous(n, nprocs).unwrap()).unwrap();
            let plan = BarrierPlan::minimal(&s, &g).unwrap();
            plan.validate(&s, &g).unwrap();
            let mut full = vec![0.0; n];
            pre_scheduled(
                &pool,
                &s,
                &|i, src| row_substitution_lower(&l, &b, i, |j| src.get(j)),
                &mut full,
            );
            let mut elided = vec![0.0; n];
            let report = pre_scheduled_elided(
                &pool,
                &s,
                &plan,
                &|i, src| row_substitution_lower(&l, &b, i, |j| src.get(j)),
                &mut elided,
            );
            assert_eq!(full, elided, "nprocs={nprocs}");
            assert_eq!(report.barriers, plan.count() as u64);
            assert!(report.barriers <= (s.num_phases() - 1) as u64);
        }
    }

    #[test]
    fn single_phase_runs_without_barriers() {
        // Fully independent loop: one wavefront, zero interior barriers.
        let g = DepGraph::from_lists(8, vec![vec![]; 8]).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let pool = WorkerPool::new(2);
        let schedule = Schedule::global(&wf, 2).unwrap();
        let mut out = vec![0.0; 8];
        let report = pre_scheduled(
            &pool,
            &schedule,
            &|i, _: &PublishedSource<'_>| i as f64,
            &mut out,
        );
        assert_eq!(report.barriers, 0);
        assert_eq!(out, (0..8).map(|i| i as f64).collect::<Vec<_>>());
    }
}
