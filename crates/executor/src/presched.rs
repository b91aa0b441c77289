//! Tests of pre-scheduled execution (the paper's Figure 5) as
//! [`PlannedLoop`] runs it: [`ExecutorKind::PreScheduled`] keeps a barrier
//! at every interior phase boundary, [`ExecutorKind::PreScheduledElided`]
//! only the boundaries of the plan's minimal [`BarrierPlan`]. The walk
//! itself lives in the crate's one protocol.
//!
//! [`PlannedLoop`]: crate::PlannedLoop
//! [`ExecutorKind::PreScheduled`]: crate::ExecutorKind::PreScheduled
//! [`ExecutorKind::PreScheduledElided`]: crate::ExecutorKind::PreScheduledElided
//! [`BarrierPlan`]: rtpl_inspector::BarrierPlan

#[cfg(test)]
mod tests {
    use crate::{ExecutorKind, LoopBody, PlannedLoop, ValueSource, WorkerPool};
    use rtpl_inspector::{DepGraph, Partition, Schedule, Wavefronts};
    use rtpl_sparse::gen::laplacian_5pt;
    use rtpl_sparse::triangular::{row_substitution_lower, solve_lower, Diag};
    use rtpl_sparse::Csr;

    struct Solve<'a> {
        l: &'a Csr,
        b: &'a [f64],
    }

    impl LoopBody for Solve<'_> {
        fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
            row_substitution_lower(self.l, self.b, i, |j| src.get(j))
        }
    }

    #[test]
    fn matches_sequential_on_mesh() {
        let l = laplacian_5pt(6, 9).strict_lower();
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut expect = vec![0.0; n];
        solve_lower(&l, &b, Diag::Unit, &mut expect).unwrap();

        let g = DepGraph::from_lower_triangular(&l).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let body = Solve { l: &l, b: &b };
        for nprocs in [1, 2, 4] {
            let pool = WorkerPool::new(nprocs);
            for schedule in [
                Schedule::global(&wf, nprocs).unwrap(),
                Schedule::local(&wf, &Partition::striped(n, nprocs).unwrap()).unwrap(),
                Schedule::local(&wf, &Partition::contiguous(n, nprocs).unwrap()).unwrap(),
            ] {
                let plan = PlannedLoop::new(g.clone(), schedule).unwrap();
                // Each kind pays exactly the barriers its plan keeps.
                for (kind, kept) in [
                    (ExecutorKind::PreScheduled, plan.num_phases() - 1),
                    (
                        ExecutorKind::PreScheduledElided,
                        plan.barrier_plan().count(),
                    ),
                ] {
                    let mut out = vec![0.0; n];
                    let report = plan.run(Some(&pool), kind, &body, &mut out);
                    assert_eq!(out, expect, "{kind:?}, p={nprocs}");
                    assert_eq!(report.barriers as usize, kept, "{kind:?}, p={nprocs}");
                    assert_eq!(report.stalls, 0, "{kind:?}, p={nprocs}");
                    assert_eq!(report.total_iters() as usize, n, "{kind:?}, p={nprocs}");
                }
            }
        }
    }

    #[test]
    fn elided_execution_matches_full_execution() {
        let l = laplacian_5pt(8, 7).strict_lower();
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin() + 2.0).collect();
        let g = DepGraph::from_lower_triangular(&l).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let body = Solve { l: &l, b: &b };
        for nprocs in [1usize, 2, 3] {
            let pool = WorkerPool::new(nprocs);
            // Contiguous local schedules give real elision opportunities.
            let s = Schedule::local(&wf, &Partition::contiguous(n, nprocs).unwrap()).unwrap();
            let plan = PlannedLoop::new(g.clone(), s).unwrap();
            plan.barrier_plan()
                .validate(plan.schedule(), plan.graph())
                .unwrap();
            let mut full = vec![0.0; n];
            plan.run(Some(&pool), ExecutorKind::PreScheduled, &body, &mut full);
            let mut elided = vec![0.0; n];
            let report = plan.run(
                Some(&pool),
                ExecutorKind::PreScheduledElided,
                &body,
                &mut elided,
            );
            assert_eq!(full, elided, "nprocs={nprocs}");
            assert_eq!(report.barriers, plan.barrier_plan().count() as u64);
            assert!(report.barriers <= (plan.num_phases() - 1) as u64);
            assert_eq!(report.stalls, 0);
        }
    }

    #[test]
    fn single_phase_runs_without_barriers() {
        // Fully independent loop: one wavefront, zero interior barriers.
        struct Index;
        impl LoopBody for Index {
            fn eval<S: ValueSource>(&self, i: usize, _src: &S) -> f64 {
                i as f64
            }
        }
        let g = DepGraph::from_lists(8, vec![vec![]; 8]).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let plan = PlannedLoop::new(g, Schedule::global(&wf, 2).unwrap()).unwrap();
        let pool = WorkerPool::new(2);
        for kind in [ExecutorKind::PreScheduled, ExecutorKind::PreScheduledElided] {
            let mut out = vec![0.0; 8];
            let report = plan.run(Some(&pool), kind, &Index, &mut out);
            assert_eq!(report.barriers, 0, "{kind:?}");
            assert_eq!(out, (0..8).map(|i| i as f64).collect::<Vec<_>>());
        }
    }
}
