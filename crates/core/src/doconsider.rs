//! The `doconsider` pipeline: inspect → schedule → execute.
//!
//! Mirrors the five automated steps of §2.3 of the paper:
//!
//! 1. indices are logically distributed among processors (partition),
//! 2. the compiler-generated topological sort runs at program start
//!    ([`DoConsider::inspect`]),
//! 3. the loop is transformed into its executable form ([`PlannedLoop`]),
//! 4. wavefronts are computed and indices sorted / repartitioned
//!    ([`DoConsider::schedule`] under a [`Sorting`]),
//! 5. each processor executes its assigned subset with the generated
//!    executor ([`PlannedLoop::run`] under the chosen [`ExecutorKind`]).
//!
//! The planned loop owns everything reusable across executions (schedule,
//! barrier plan), and a caller-held scratch carries the run state, so the
//! paper's amortization — one inspection, many runs — holds with zero
//! per-run allocation ([`PlannedLoop::run_in`]).

use rtpl_executor::{ExecReport, WorkerPool};
use rtpl_inspector::{DepGraph, Result, Wavefronts};
use rtpl_sparse::Csr;

pub use rtpl_executor::{ExecutorKind, LoopBody, PlannedLoop};
pub use rtpl_inspector::Sorting;

/// The inspector: a dependence graph plus its wavefront decomposition.
#[derive(Clone, Debug)]
pub struct DoConsider {
    graph: DepGraph,
    wavefronts: Wavefronts,
}

impl DoConsider {
    /// Runs the inspector on an explicit dependence graph.
    pub fn inspect(graph: DepGraph) -> Result<Self> {
        let wavefronts = Wavefronts::compute(&graph)?;
        Ok(DoConsider { graph, wavefronts })
    }

    /// Inspector for the simple loop `x(i) = x(i) + b(i)·x(ia(i))`
    /// (Figure 2): a flow dependence on `ia(i)` when `ia(i) < i`.
    pub fn from_index_array(ia: &[usize]) -> Result<Self> {
        Self::inspect(DepGraph::from_index_array(ia)?)
    }

    /// Inspector for the nested loop of Figure 6
    /// (`y(i) += temp·y(g(i,j))`).
    pub fn from_nested_index_array(g: &[Vec<usize>]) -> Result<Self> {
        Self::inspect(DepGraph::from_nested_index_array(g)?)
    }

    /// Inspector for a sparse lower triangular solve (Figure 8): row `i`
    /// depends on every stored column `j < i`.
    pub fn from_lower_triangular(l: &Csr) -> Result<Self> {
        Self::inspect(DepGraph::from_lower_triangular(l)?)
    }

    /// The dependence graph.
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// The wavefront decomposition.
    pub fn wavefronts(&self) -> &Wavefronts {
        &self.wavefronts
    }

    /// Number of wavefronts (phases).
    pub fn num_wavefronts(&self) -> usize {
        self.wavefronts.num_wavefronts()
    }

    /// Builds an execution plan for `nprocs` processors, sorted the way
    /// `sorting` prescribes ([`PlannedLoop::build`], no coalescing). The
    /// returned [`PlannedLoop`] runs under any [`ExecutorKind`] and is
    /// reusable across arbitrarily many executions.
    pub fn schedule(&self, sorting: Sorting, nprocs: usize) -> Result<PlannedLoop> {
        let graph = self.graph.clone();
        Ok(PlannedLoop::build(graph, &self.wavefronts, sorting, nprocs, None)?.0)
    }

    /// Emits the **cacheable** analysis product for the runtime service
    /// instead of scheduling inline: a [`rtpl_runtime::LoopSpec`] carrying
    /// the dependence structure and its stable fingerprint. Wrap it in a
    /// [`rtpl_runtime::Job`] ([`rtpl_runtime::Job::looped`] with a body,
    /// [`rtpl_runtime::Job::linear`] for the compiled linear recurrence)
    /// and hand that to [`rtpl_runtime::Runtime::submit`] or
    /// [`rtpl_runtime::Runtime::submit_batch`]: the runtime
    /// schedules the structure **once**, picks the executor discipline
    /// adaptively, and serves every later request for the same structure —
    /// from any thread — out of its plan cache. This is how the automated
    /// `doconsider` transformation path amortizes inspection *across
    /// requests*, not just across runs of one plan object.
    pub fn into_spec(self) -> rtpl_runtime::LoopSpec {
        rtpl_runtime::LoopSpec::new(self.graph)
    }
}

/// The companion **`dodynamic`** construct (the paper's reference \[11\]) for
/// loops that are *not* start-time schedulable: the dependence targets are
/// themselves computed during the loop, so no inspector can run ahead of
/// execution. Iterations execute in natural order, index `i` on processor
/// `i mod p`, and the body discovers its operands on the fly — each
/// `src.get(j)` busy-waits until iteration `j` has produced its value.
/// Dependences must still be *forward* (`j < i`), which guarantees
/// progress.
///
/// Without the inspector there is no reordering, so exploitable concurrency
/// is whatever the natural order exposes — the doconsider pipeline exists
/// precisely to do better when the dependence data is available up front.
pub fn dodynamic<F>(pool: &WorkerPool, n: usize, body: &F, out: &mut [f64]) -> ExecReport
where
    F: for<'s> Fn(usize, &rtpl_executor::WaitingSource<'s>) -> f64 + Sync,
{
    rtpl_executor::doacross(pool, n, body, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpl_executor::ValueSource;

    /// y(i) = 1 + sum over deps — a counting DAG.
    struct CountBody<'a>(&'a DepGraph);

    impl LoopBody for CountBody<'_> {
        fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
            1.0 + self
                .0
                .deps(i)
                .iter()
                .map(|&d| src.get(d as usize))
                .sum::<f64>()
        }
    }

    #[test]
    fn pipeline_end_to_end() {
        let g =
            DepGraph::from_lists(5, vec![vec![], vec![0], vec![0], vec![1, 2], vec![3]]).unwrap();
        let dc = DoConsider::inspect(g).unwrap();
        assert_eq!(dc.num_wavefronts(), 4);
        let plan = dc.schedule(Sorting::Global, 2).unwrap();
        let pool = WorkerPool::new(2);
        let mut out = vec![0.0; 5];
        plan.run(
            Some(&pool),
            ExecutorKind::SelfExecuting,
            &CountBody(plan.graph()),
            &mut out,
        );
        assert_eq!(out, vec![1.0, 2.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn dodynamic_handles_runtime_computed_dependences() {
        // The operand of iteration i is x[i-1] *rounded to an index* — the
        // dependence target literally depends on computed values, so only
        // on-the-fly detection works.
        let n = 40usize;
        let pool = WorkerPool::new(3);
        let mut out = vec![0.0; n];
        dodynamic(
            &pool,
            n,
            &|i, src| {
                if i == 0 {
                    2.0
                } else {
                    let prev = src.get(i - 1);
                    let target = (prev as usize) % i; // computed at run time
                    src.get(target) + 1.0 + (i % 3) as f64 * 0.5
                }
            },
            &mut out,
        );
        // Sequential reference.
        let mut expect = vec![0.0; n];
        for i in 0..n {
            expect[i] = if i == 0 {
                2.0
            } else {
                let target = (expect[i - 1] as usize) % i;
                expect[target] + 1.0 + (i % 3) as f64 * 0.5
            };
        }
        assert_eq!(out, expect);
    }

    /// Figure 2 body: x(i) = xold(i) + b(i)·x(ia(i)), old values for
    /// ia(i) >= i.
    struct Figure2<'a> {
        ia: &'a [usize],
        b: &'a [f64],
        xold: &'a [f64],
    }

    impl LoopBody for Figure2<'_> {
        fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
            let t = self.ia[i];
            let operand = if t >= i { self.xold[t] } else { src.get(t) };
            self.xold[i] + self.b[i] * operand
        }
    }

    #[test]
    fn into_spec_routes_the_doconsider_path_through_the_runtime_cache() {
        use rtpl_runtime::{Job, Runtime, RuntimeConfig};
        let ia = vec![9usize, 0, 1, 0, 3, 2, 5, 4, 7, 6];
        let b = vec![0.25; 10];
        let xold: Vec<f64> = (0..10).map(|i| i as f64 + 1.0).collect();
        let body = Figure2 {
            ia: &ia,
            b: &b,
            xold: &xold,
        };
        // Direct execution of the scheduled plan: the bit-exact reference.
        let plan = DoConsider::from_index_array(&ia)
            .unwrap()
            .schedule(Sorting::Global, 2)
            .unwrap();
        let pool = WorkerPool::new(2);
        let mut direct = vec![0.0; 10];
        plan.run(Some(&pool), ExecutorKind::SelfExecuting, &body, &mut direct);
        // Same analysis, emitted as a cacheable spec and served twice.
        let rt = Runtime::new(RuntimeConfig {
            nprocs: 2,
            calibrate: false,
            ..RuntimeConfig::default()
        });
        let spec = DoConsider::from_index_array(&ia).unwrap().into_spec();
        let mut out = vec![0.0; 10];
        let cold = rt.submit(Job::looped(&spec, &body, &mut out)).unwrap();
        assert!(!cold.cached);
        assert_eq!(out, direct);
        let mut out2 = vec![0.0; 10];
        let warm = rt.submit(Job::looped(&spec, &body, &mut out2)).unwrap();
        assert!(warm.cached, "second submission must hit the cache");
        assert_eq!(out2, direct);
        assert_eq!(rt.stats().loops.builds, 1, "one schedule per structure");
    }

    #[test]
    fn all_strategies_and_policies_agree() {
        let ia = vec![9usize, 0, 1, 0, 3, 2, 5, 4, 7, 6];
        let b = vec![0.25; 10];
        let xold: Vec<f64> = (0..10).map(|i| i as f64 + 1.0).collect();
        let pool = WorkerPool::new(3);
        let body = Figure2 {
            ia: &ia,
            b: &b,
            xold: &xold,
        };
        let mut results = Vec::new();
        for strat in Sorting::ALL {
            let plan = DoConsider::from_index_array(&ia)
                .unwrap()
                .schedule(strat, 3)
                .unwrap();
            for policy in ExecutorKind::ALL {
                let mut out = vec![0.0; 10];
                plan.run(Some(&pool), policy, &body, &mut out);
                results.push(out);
            }
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }
}
