//! The unified plan-once / run-many execution API.
//!
//! A [`PlannedLoop`] is the product of the inspector pipeline
//! ([`PlannedLoop::build`]): it owns the dependence graph, the
//! per-processor [`Schedule`] and the minimal [`BarrierPlan`] — structure
//! only, immutable and shareable. A run's mutable half is a
//! [`LoopScratch`], borrowed exclusively. Build the plan once per
//! dependence structure; run-many callers (Krylov solvers run the same two
//! plans hundreds of times) hold one scratch and call
//! [`PlannedLoop::run_in`], whose repeated runs perform **no O(n)
//! allocation or flag clearing** — invalidation is an O(1) epoch bump.
//! [`PlannedLoop::run`] builds a scratch for the call.
//!
//! Which executor runs the loop is a parameter of the run, an
//! [`ExecutorKind`]; the four synchronization disciplines hand a body
//! kernel to the matching walk of the crate's one protocol (`protocol.rs`):
//!
//! ```
//! use rtpl_executor::{ExecutorKind, LoopBody, PlannedLoop, ValueSource, WorkerPool};
//! use rtpl_inspector::{DepGraph, Sorting, Wavefronts};
//!
//! // x(i) = 1 + sum of deps — a counting DAG.
//! struct Count<'a>(&'a DepGraph);
//! impl LoopBody for Count<'_> {
//!     fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
//!         1.0 + self.0.deps(i).iter().map(|&d| src.get(d as usize)).sum::<f64>()
//!     }
//! }
//!
//! let g = DepGraph::from_lists(5, vec![vec![], vec![0], vec![0], vec![1, 2], vec![3]])?;
//! let wf = Wavefronts::compute(&g)?;
//! let (plan, _) = PlannedLoop::build(g, &wf, Sorting::Global, 2, None)?;
//! let pool = WorkerPool::new(2);
//! let mut out = vec![0.0; 5];
//! for kind in ExecutorKind::ALL {
//!     let report = plan.run(Some(&pool), kind, &Count(plan.graph()), &mut out);
//!     assert_eq!(out, vec![1.0, 2.0, 2.0, 5.0, 6.0]);
//!     assert_eq!(report.total_iters(), 5);
//! }
//! # Ok::<(), rtpl_inspector::InspectorError>(())
//! ```

use crate::cancel::{CancelToken, ExecError};
use crate::pool::WorkerPool;
use crate::protocol::{self, BodyKernel, Run};
use crate::report::ExecReport;
use crate::shared::{PublishedSource, WaitingSource};
use crate::LoopBody;
use rtpl_inspector::{BarrierPlan, CoalesceStats, DepGraph, Result, Schedule, Sorting, Wavefronts};

pub use crate::protocol::LoopScratch;

/// Which executor runs a planned loop: the natural-order loop or one of
/// the paper's four synchronization disciplines. The discriminant is the
/// kind's **tag**: the byte plan artifacts and the wire protocol carry,
/// and the index of every per-kind array (`ALL[kind as usize] == kind`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ExecutorKind {
    /// Natural index order on the caller's thread — the reference every
    /// other kind is checked against. Forks no team and needs no pool.
    Sequential = 0,
    /// Busy-wait on the shared ready array (Figure 4) — the paper's
    /// recommended executor; consecutive wavefronts pipeline.
    SelfExecuting = 1,
    /// Wavefront phases separated by global barriers (Figure 5).
    PreScheduled = 2,
    /// Pre-scheduled, keeping only the barriers the minimal
    /// [`rtpl_inspector::BarrierPlan`] proves necessary (Nicol & Saltz).
    PreScheduledElided = 3,
    /// Natural index order striped over processors with busy-wait
    /// synchronization — the no-inspector baseline. Requires a forward
    /// dependence graph (`dep < i`); checked when a run starts (a plan
    /// over a non-forward DAG remains valid for the other kinds).
    Doacross = 4,
}

impl ExecutorKind {
    /// Every kind, in tag order.
    pub const ALL: [ExecutorKind; 5] = [
        ExecutorKind::Sequential,
        ExecutorKind::SelfExecuting,
        ExecutorKind::PreScheduled,
        ExecutorKind::PreScheduledElided,
        ExecutorKind::Doacross,
    ];

    /// The kind whose tag is `tag`; `None` for a byte no kind carries.
    pub fn from_tag(tag: u8) -> Option<ExecutorKind> {
        ExecutorKind::ALL.get(tag as usize).copied()
    }
}

/// A scheduled loop, ready to execute many times (step 3's transformed
/// loop, owning every *structural* product of the inspector).
///
/// The plan is read-only during a run: any number of threads may execute
/// it at once, each through [`PlannedLoop::run_in`] with its own
/// [`LoopScratch`] (borrowed `&mut`, so overlap is a borrow-check error).
#[derive(Debug)]
pub struct PlannedLoop {
    graph: DepGraph,
    schedule: Schedule,
    barriers: BarrierPlan,
    full_barriers: BarrierPlan,
}

impl PlannedLoop {
    /// Builds the plan: validates `schedule` against `graph` and computes
    /// the minimal barrier set for the elided kind.
    pub fn new(graph: DepGraph, schedule: Schedule) -> Result<Self> {
        schedule.validate(&graph)?;
        let barriers = BarrierPlan::minimal(&schedule, &graph)?;
        Self::from_parts(graph, schedule, barriers)
    }

    /// The inspector pipeline from a graph and its wavefronts `wf` to a
    /// plan, the one place it is composed: the schedule `sorting`
    /// prescribes for `nprocs` processors, coalesced at `grain` when given
    /// ([`Schedule::coalesce`], whose statistics come back too), validated
    /// by [`PlannedLoop::new`].
    pub fn build(
        graph: DepGraph,
        wf: &Wavefronts,
        sorting: Sorting,
        nprocs: usize,
        grain: Option<f64>,
    ) -> Result<(Self, Option<CoalesceStats>)> {
        let schedule = sorting.schedule(wf, nprocs)?;
        let (schedule, stats) = match grain {
            Some(grain) => {
                let (merged, stats) = schedule.coalesce(&graph, grain)?;
                (merged, Some(stats))
            }
            None => (schedule, None),
        };
        Ok((Self::new(graph, schedule)?, stats))
    }

    /// Rebuilds a plan from parts that were **validated when first built**
    /// — the reconstruction path for persisted plan artifacts. Skips the
    /// full schedule validation and the minimal-barrier recomputation
    /// (`BarrierPlan::minimal` is O(edges)); only cheap shape agreement is
    /// re-checked here, because the artifact codec already re-validated
    /// each part's internal invariants and a per-record checksum guards
    /// the bytes in between.
    pub fn from_parts(graph: DepGraph, schedule: Schedule, barriers: BarrierPlan) -> Result<Self> {
        if graph.n() != schedule.n() {
            return Err(rtpl_inspector::InspectorError::InvalidSchedule(format!(
                "graph size {} != schedule size {}",
                graph.n(),
                schedule.n()
            )));
        }
        if barriers.len() != schedule.num_phases().saturating_sub(1) {
            return Err(rtpl_inspector::InspectorError::InvalidSchedule(format!(
                "barrier plan has {} boundaries for {} phases",
                barriers.len(),
                schedule.num_phases()
            )));
        }
        let full_barriers = BarrierPlan::full(schedule.num_phases());
        Ok(PlannedLoop {
            graph,
            schedule,
            barriers,
            full_barriers,
        })
    }

    /// A fresh scratch sized for this plan — hold one per in-flight run
    /// and execute through [`PlannedLoop::run_in`].
    pub fn scratch(&self) -> LoopScratch {
        LoopScratch::new(self.n(), self.nprocs())
    }

    /// The schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The dependence graph.
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// The minimal barrier plan used by [`ExecutorKind::PreScheduledElided`].
    pub fn barrier_plan(&self) -> &BarrierPlan {
        &self.barriers
    }

    /// Trip count.
    pub fn n(&self) -> usize {
        self.schedule.n()
    }

    /// Processor count the schedule targets.
    pub fn nprocs(&self) -> usize {
        self.schedule.nprocs()
    }

    /// Number of wavefront phases.
    pub fn num_phases(&self) -> usize {
        self.schedule.num_phases()
    }

    /// Executes the loop under `kind`, writing results to `out`.
    ///
    /// The body is statically dispatched: `B::eval` monomorphizes against
    /// the kind's concrete value source. `pool` may be `None` only for
    /// [`ExecutorKind::Sequential`], and must match the schedule's
    /// processor count (checked). Panics if the body panics;
    /// failure-containing callers use [`PlannedLoop::try_run_in`]. Builds a
    /// scratch for the call; [`PlannedLoop::run_in`] reuses one.
    pub fn run<B: LoopBody>(
        &self,
        pool: Option<&WorkerPool>,
        kind: ExecutorKind,
        body: &B,
        out: &mut [f64],
    ) -> ExecReport {
        self.run_in(&mut self.scratch(), pool, kind, body, out)
    }

    /// As [`PlannedLoop::run`], executing over a caller-held scratch (which
    /// must match the plan's size and processor count — checked): repeated
    /// runs allocate nothing beyond the report.
    pub fn run_in<B: LoopBody>(
        &self,
        scratch: &mut LoopScratch,
        pool: Option<&WorkerPool>,
        kind: ExecutorKind,
        body: &B,
        out: &mut [f64],
    ) -> ExecReport {
        self.try_run_in(scratch, pool, kind, body, out, None)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The failure-containing form of [`PlannedLoop::run_in`]: a panicking
    /// body or a fired [`CancelToken`] yields a typed [`ExecError`]
    /// instead of unwinding through the caller. On error a parallel kind
    /// leaves `out` untouched (the next run's epoch bump discards the
    /// poisoned scratch); `Sequential`, which writes `out` in place, leaves
    /// the prefix it finished. The plan, scratch and pool stay usable.
    pub fn try_run_in<B: LoopBody>(
        &self,
        scratch: &mut LoopScratch,
        pool: Option<&WorkerPool>,
        kind: ExecutorKind,
        body: &B,
        out: &mut [f64],
        cancel: Option<&CancelToken>,
    ) -> std::result::Result<ExecReport, ExecError> {
        assert_eq!(
            (scratch.n(), scratch.nprocs()),
            (self.n(), self.nprocs()),
            "scratch sized for another plan"
        );
        assert_eq!(out.len(), self.n());
        let lists = Some(&self.schedule);
        let waiting = BodyKernel {
            lists,
            body: &|i, src: &WaitingSource<'_>| body.eval(i, src),
        };
        let published = BodyKernel {
            lists,
            body: &|i, src: &PublishedSource<'_>| body.eval(i, src),
        };
        let run = Run {
            pool,
            scratch,
            cancel,
        };
        let report = match kind {
            ExecutorKind::Sequential => {
                return protocol::natural(out, cancel, |i, src| body.eval(i, src))
            }
            ExecutorKind::SelfExecuting => run.list_walk(&waiting),
            ExecutorKind::PreScheduled => run.phase_walk(&published, &self.full_barriers),
            ExecutorKind::PreScheduledElided => run.phase_walk(&published, &self.barriers),
            ExecutorKind::Doacross => {
                assert!(
                    self.graph.is_forward(),
                    "the doacross policy requires a forward dependence graph"
                );
                run.stripe_walk(&waiting)
            }
        }?;
        scratch.shared.copy_into(out);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoopBody, ValueSource};
    use rtpl_inspector::Wavefronts;
    use rtpl_sparse::gen::laplacian_5pt;
    use rtpl_sparse::triangular::{row_substitution_lower, solve_lower, Diag};

    struct Solve<'a> {
        l: &'a rtpl_sparse::Csr,
        b: &'a [f64],
    }

    impl LoopBody for Solve<'_> {
        fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
            row_substitution_lower(self.l, self.b, i, |j| src.get(j))
        }
    }

    fn mesh_plan(nx: usize, ny: usize, p: usize) -> PlannedLoop {
        let l = laplacian_5pt(nx, ny).strict_lower();
        let g = DepGraph::from_lower_triangular(&l).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let s = Schedule::global(&wf, p).unwrap();
        PlannedLoop::new(g, s).unwrap()
    }

    /// The tags are the plan artifact's executor byte and the wire
    /// protocol's `Solved.policy` byte: pinned, kind by kind.
    #[test]
    fn executor_kind_tags_are_pinned() {
        let table = [
            (ExecutorKind::Sequential, 0u8),
            (ExecutorKind::SelfExecuting, 1),
            (ExecutorKind::PreScheduled, 2),
            (ExecutorKind::PreScheduledElided, 3),
            (ExecutorKind::Doacross, 4),
        ];
        for (kind, tag) in table {
            assert_eq!(kind as u8, tag, "{kind:?}");
            assert_eq!(ExecutorKind::from_tag(tag), Some(kind));
            assert_eq!(ExecutorKind::ALL[tag as usize], kind, "ALL is in tag order");
        }
        assert_eq!(ExecutorKind::ALL.len(), table.len());
        assert_eq!(ExecutorKind::from_tag(5), None);
        assert_eq!(ExecutorKind::from_tag(u8::MAX), None);
    }

    #[test]
    fn all_policies_match_sequential() {
        let l = laplacian_5pt(7, 6).strict_lower();
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.2).sin()).collect();
        let mut expect = vec![0.0; n];
        solve_lower(&l, &b, Diag::Unit, &mut expect).unwrap();
        let plan = mesh_plan(7, 6, 3);
        let pool = WorkerPool::new(3);
        let body = Solve { l: &l, b: &b };
        for policy in ExecutorKind::ALL {
            let mut out = vec![0.0; n];
            let report = plan.run(Some(&pool), policy, &body, &mut out);
            assert_eq!(out, expect, "{policy:?}");
            assert_eq!(report.total_iters() as usize, n, "{policy:?}");
        }
    }

    #[test]
    fn repeated_runs_reuse_buffers() {
        let l = laplacian_5pt(5, 5).strict_lower();
        let n = l.nrows();
        let plan = mesh_plan(5, 5, 2);
        let pool = WorkerPool::new(2);
        for round in 0..20 {
            let b: Vec<f64> = (0..n).map(|i| (i + round) as f64 * 0.1).collect();
            let mut expect = vec![0.0; n];
            solve_lower(&l, &b, Diag::Unit, &mut expect).unwrap();
            let mut out = vec![0.0; n];
            plan.run(
                Some(&pool),
                ExecutorKind::SelfExecuting,
                &Solve { l: &l, b: &b },
                &mut out,
            );
            assert_eq!(out, expect, "round {round}");
        }
    }

    #[test]
    fn elided_policy_uses_fewer_or_equal_barriers() {
        use rtpl_inspector::Partition;
        let l = laplacian_5pt(8, 8).strict_lower();
        let n = l.nrows();
        let b = vec![1.0; n];
        let g = DepGraph::from_lower_triangular(&l).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let s = Schedule::local(&wf, &Partition::contiguous(n, 4).unwrap()).unwrap();
        let plan = PlannedLoop::new(g, s).unwrap();
        let pool = WorkerPool::new(4);
        let body = Solve { l: &l, b: &b };
        let mut out = vec![0.0; n];
        let full = plan.run(Some(&pool), ExecutorKind::PreScheduled, &body, &mut out);
        let mut out2 = vec![0.0; n];
        let elided = plan.run(
            Some(&pool),
            ExecutorKind::PreScheduledElided,
            &body,
            &mut out2,
        );
        assert_eq!(out, out2);
        assert!(elided.barriers <= full.barriers);
        assert_eq!(full.barriers as usize, plan.num_phases() - 1);
    }

    #[test]
    fn sequential_reference_matches() {
        let l = laplacian_5pt(4, 6).strict_lower();
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let plan = mesh_plan(4, 6, 2);
        let mut seq = vec![0.0; n];
        plan.run(
            None,
            ExecutorKind::Sequential,
            &Solve { l: &l, b: &b },
            &mut seq,
        );
        let mut expect = vec![0.0; n];
        solve_lower(&l, &b, Diag::Unit, &mut expect).unwrap();
        assert_eq!(seq, expect);
    }

    #[test]
    #[should_panic(expected = "must match the pool")]
    fn doacross_policy_rejects_mismatched_pool() {
        let l = laplacian_5pt(4, 4).strict_lower();
        let b = vec![1.0; 16];
        let plan = mesh_plan(4, 4, 2);
        let pool = WorkerPool::new(4);
        let mut out = vec![0.0; 16];
        plan.run(
            Some(&pool),
            ExecutorKind::Doacross,
            &Solve { l: &l, b: &b },
            &mut out,
        );
    }

    #[test]
    fn panicking_body_is_contained_and_plan_stays_usable() {
        use crate::cancel::ExecError;
        struct PanicAt(usize);
        impl LoopBody for PanicAt {
            fn eval<S: ValueSource>(&self, i: usize, _src: &S) -> f64 {
                if i == self.0 {
                    panic!("poisoned row");
                }
                i as f64
            }
        }
        let l = laplacian_5pt(6, 6).strict_lower();
        let n = l.nrows();
        let plan = mesh_plan(6, 6, 2);
        let pool = WorkerPool::new(2);
        let mut scratch = plan.scratch();
        for policy in ExecutorKind::ALL {
            let mut out = vec![0.0; n];
            let err = plan
                .try_run_in(
                    &mut scratch,
                    Some(&pool),
                    policy,
                    &PanicAt(n / 2),
                    &mut out,
                    None,
                )
                .unwrap_err();
            assert!(
                matches!(err, ExecError::BodyPanicked { workers } if workers >= 1),
                "{policy:?}: {err:?}"
            );
            assert!(pool.is_healthy(), "{policy:?}");
        }
        // The same plan, scratch, and pool produce a correct result next.
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut expect = vec![0.0; n];
        solve_lower(&l, &b, Diag::Unit, &mut expect).unwrap();
        let mut out = vec![0.0; n];
        plan.try_run_in(
            &mut scratch,
            Some(&pool),
            ExecutorKind::SelfExecuting,
            &Solve { l: &l, b: &b },
            &mut out,
            None,
        )
        .unwrap();
        assert_eq!(out, expect);
    }

    #[test]
    fn expired_deadline_cancels_every_policy() {
        use crate::cancel::{CancelToken, ExecError};
        let l = laplacian_5pt(8, 8).strict_lower();
        let n = l.nrows();
        let b = vec![1.0; n];
        let plan = mesh_plan(8, 8, 2);
        let pool = WorkerPool::new(2);
        let token = CancelToken::with_deadline(std::time::Instant::now());
        let mut scratch = plan.scratch();
        for policy in ExecutorKind::ALL {
            let mut out = vec![0.0; n];
            let err = plan
                .try_run_in(
                    &mut scratch,
                    Some(&pool),
                    policy,
                    &Solve { l: &l, b: &b },
                    &mut out,
                    Some(&token),
                )
                .unwrap_err();
            assert_eq!(err, ExecError::DeadlineExceeded, "{policy:?}");
        }
        // A live token runs normally.
        let live = CancelToken::new();
        let mut out = vec![0.0; n];
        plan.try_run_in(
            &mut scratch,
            Some(&pool),
            ExecutorKind::SelfExecuting,
            &Solve { l: &l, b: &b },
            &mut out,
            Some(&live),
        )
        .unwrap();
        let mut expect = vec![0.0; n];
        solve_lower(&l, &b, Diag::Unit, &mut expect).unwrap();
        assert_eq!(out, expect);
    }

    /// Cancellation cadence is a property of the protocol, not of phase
    /// boundaries: one wavefront means one phase and no interior boundary,
    /// yet a token fired mid-phase must still stop the run within
    /// `CHECK_STRIDE` positions of the observing worker.
    #[test]
    fn pre_scheduled_run_observes_cancellation_inside_a_phase() {
        use crate::cancel::{CancelToken, ExecError, CHECK_STRIDE};
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct CancelAt<'a> {
            trigger: usize,
            token: &'a CancelToken,
            evals: &'a AtomicUsize,
        }
        impl LoopBody for CancelAt<'_> {
            fn eval<S: ValueSource>(&self, i: usize, _src: &S) -> f64 {
                self.evals.fetch_add(1, Ordering::Relaxed);
                if i == self.trigger {
                    self.token.cancel();
                }
                i as f64
            }
        }
        struct Index;
        impl LoopBody for Index {
            fn eval<S: ValueSource>(&self, i: usize, _src: &S) -> f64 {
                i as f64
            }
        }
        let n = 8192;
        let g = DepGraph::from_lists(n, vec![vec![]; n]).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let plan = PlannedLoop::new(g, Schedule::global(&wf, 2).unwrap()).unwrap();
        assert_eq!(plan.num_phases(), 1);
        let share0 = plan.schedule().proc(0).len();
        let pool = WorkerPool::new(2);
        let mut scratch = plan.scratch();
        for policy in [ExecutorKind::PreScheduled, ExecutorKind::PreScheduledElided] {
            let token = CancelToken::new();
            let evals = AtomicUsize::new(0);
            let body = CancelAt {
                trigger: plan.schedule().proc(0)[0] as usize,
                token: &token,
                evals: &evals,
            };
            let mut out = vec![-1.0; n];
            let err = plan
                .try_run_in(
                    &mut scratch,
                    Some(&pool),
                    policy,
                    &body,
                    &mut out,
                    Some(&token),
                )
                .unwrap_err();
            assert_eq!(err, ExecError::Cancelled, "{policy:?}");
            assert_eq!(out, vec![-1.0; n], "{policy:?}: out must be untouched");
            let evals = evals.load(Ordering::Relaxed);
            assert!(
                evals <= n - (share0 - 1 - CHECK_STRIDE),
                "{policy:?}: {evals} evaluations — processor 0 ran past its stride"
            );
            // The same scratch serves the next run exactly.
            plan.try_run_in(&mut scratch, Some(&pool), policy, &Index, &mut out, None)
                .unwrap();
            assert_eq!(out, (0..n).map(|i| i as f64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn plan_rejects_invalid_inputs_at_plan_time() {
        let l = laplacian_5pt(3, 3).strict_lower();
        let g = DepGraph::from_lower_triangular(&l).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let s = Schedule::global(&wf, 2).unwrap();
        // A schedule for a different loop (wrong size) is rejected.
        let g_other = DepGraph::from_lists(4, vec![vec![]; 4]).unwrap();
        assert!(PlannedLoop::new(g_other, s.clone()).is_err());
        // A graph whose dependences the schedule's wavefronts do not cover
        // (an extra edge between two indices of one wavefront) is rejected
        // too.
        let mut lists: Vec<Vec<u32>> = (0..g.n()).map(|i| g.deps(i).to_vec()).collect();
        let (i, j) = (1..g.n())
            .flat_map(|i| (0..i).map(move |j| (i, j)))
            .find(|&(i, j)| wf.of(i) == wf.of(j))
            .expect("mesh has a wavefront with two indices");
        lists[i].push(j as u32);
        lists[i].sort_unstable();
        lists[i].dedup();
        let g_tampered = DepGraph::from_lists(g.n(), lists).unwrap();
        assert!(PlannedLoop::new(g_tampered, s).is_err());
    }
}
