//! # rtpl-executor — parallel loop executors
//!
//! The *executor* half of the paper's inspector/executor pair: transformed
//! loop structures that run an inspector-produced [`Schedule`] on an SPMD
//! worker pool, unified behind one generic entry point:
//!
//! ```text
//! PlannedLoop::run(Option<&pool>, ExecutorKind, &body, &mut out) -> ExecReport
//! ```
//!
//! A [`PlannedLoop`] is built **once** per dependence structure (it owns the
//! schedule and the minimal barrier plan — structure only;
//! [`PlannedLoop::build`] composes the inspector pipeline) and then run
//! **many** times — the paper's core economics: the inspector cost is
//! amortized over repeated executions. A run's mutable state is a
//! [`LoopScratch`] (the shared ready-flag buffer), borrowed exclusively for
//! the run; the allocation-free promise lives on [`PlannedLoop::run_in`],
//! which reuses a caller-held scratch at the cost of an O(1) epoch bump
//! (`run` builds a scratch per call). Which executor runs is a parameter of
//! the run, an [`ExecutorKind`]: the natural-order `Sequential` loop (no
//! pool needed) or one of the paper's four synchronization disciplines.
//!
//! Loop bodies are **statically dispatched**: a body implements [`LoopBody`]
//! with a generic `eval<S: ValueSource>` method, so each executor
//! monomorphizes the body against its own concrete value source (the
//! busy-waiting [`shared::WaitingSource`], the barrier-synchronized
//! [`shared::PublishedSource`], or the sequential [`DirectSource`]) — there
//! is no `dyn Fn` or `dyn ValueSource` call anywhere on an executor hot
//! path. Two disciplines that run without an inspector's schedule are free
//! functions over closure bodies, equally generic: [`doacross()`] (the
//! natural-order baseline `dodynamic` runs) and [`self_scheduling`]
//! (dynamic chunk claiming, the related-work alternative).
//!
//! ## One protocol: envelope, walks, kernels
//!
//! The paper's executors are loop *structures* independent of the loop
//! body, and the crate writes that structure once (private `protocol`
//! module): the **envelope** — epoch bump, fork, per-worker panic
//! containment, poisoning of the shared vector and the barrier,
//! first-cause-wins interrupt, `PoolError` → [`ExecError`], wall clock,
//! [`ExecReport`]; **four walks** over it — list order with busy-wait
//! reads (Figure 4), phase slices with a barrier at each kept boundary
//! (Figure 5), natural order striped `i ≡ p (mod nprocs)` (doacross),
//! dynamic chunk claiming (self-scheduling) — each polling the run's
//! [`CancelToken`] every [`cancel::CHECK_STRIDE`] positions, as the
//! `Sequential` loop beside them does on the caller's thread; and **two
//! kernels** the walks are generic over — schedule lists plus a
//! [`LoopBody`]/closure, and [`compiled::CompiledPlan`]'s execution-order
//! arrays. Every public entry point is kernel construction, one walk call,
//! and its own copy-out.
//!
//! Every executor — including the embarrassingly parallel [`mod@doall`] family —
//! reports its run through one [`ExecReport`]: barriers performed, busy-wait
//! stalls, per-processor iteration counts, and wall time.
//!
//! ## Compiled layouts
//!
//! For the hottest plan-once/run-many loops, [`compiled::CompiledPlan`]
//! goes one step further than [`PlannedLoop`]: it **bakes the schedule into
//! the data layout** — operand indices and per-row nonzero slices permuted
//! into execution order with contiguous per-processor segments, all index
//! remaps and filters resolved at compile time, numeric values gathered by
//! a one-pass [`compiled::CompiledPlan::load_values`]. The immutable plan
//! is shared (`Arc`); each concurrent run leases its own cheap
//! [`compiled::RunScratch`], so the same hot pattern executes on any
//! number of client threads simultaneously. [`PlannedLoop::run_in`] offers
//! the same shared-plan/leased-scratch split for uncompiled bodies.
//!
//! ## Memory-safety design
//!
//! The dynamically scheduled writes that make this pattern "fight the borrow
//! checker" are expressed through [`shared::SharedVec`]: solution values
//! live in `AtomicU64` cells (f64 bit patterns) paired with an atomic
//! epoch-stamped ready flag per index. Publishing is a `Release` store,
//! consuming is an `Acquire` load, so every executor that exchanges
//! computed values between workers does so through `SharedVec` under the
//! one protocol, in safe code. The crate's `unsafe` sits in two private
//! places, each site with a `SAFETY` comment that `rtpl-lint` requires:
//! the worker-pool job pointer, which erases the borrow lifetime of the
//! job closure for one fork/join that `WorkerPool::run` blocks on; and the
//! [`mod@doall`] family's disjoint-range slice, which hands each worker
//! `&mut` access to exactly the contiguous block the partition assigns it.
//!
//! [`Schedule`]: rtpl_inspector::Schedule

#![deny(unsafe_op_in_unsafe_fn)]

pub mod barrier;
pub mod cancel;
pub mod compiled;
pub mod doacross;
pub mod doall;
pub mod planned;
pub mod pool;
#[cfg(test)]
mod presched;
mod protocol;
pub mod report;
pub mod selfsched;
pub mod shared;
pub mod trace;

pub use barrier::SpinBarrier;
pub use cancel::{CancelToken, ExecError};
pub use compiled::{CompiledError, CompiledPlan, CompiledSpec, LayoutView, RunScratch};
pub use doacross::doacross;
pub use doall::{doall, doall_blocked, doall_reduce};
pub use planned::{ExecutorKind, LoopScratch, PlannedLoop};
pub use pool::{PoolError, WorkerPool};
pub use report::ExecReport;
pub use selfsched::{self_scheduling, Chunking};
pub use shared::{PublishedSource, SharedVec, WaitingSource};

/// A value source handed to loop bodies: `get(j)` returns the (possibly
/// awaited) value of index `j`.
///
/// * In the self-executing executors, `get` busy-waits on the ready flag
///   ([`shared::WaitingSource`]).
/// * In the pre-scheduled executor, `get` is a plain read — the phase
///   barrier already guaranteed availability ([`shared::PublishedSource`]).
/// * In the sequential executor, `get` reads the output vector directly
///   ([`DirectSource`]).
///
/// Executors name these types concretely in their signatures, so `get` is
/// always statically dispatched and inlinable.
pub trait ValueSource {
    /// Value of index `j`; may block (busy-wait) until it is produced.
    fn get(&self, j: usize) -> f64;
}

/// A loop body usable with **every** execution discipline.
///
/// `eval` is generic over the concrete [`ValueSource`], so one body
/// definition monomorphizes separately against the busy-wait, the
/// barrier-synchronized, and the direct source — static dispatch on every
/// hot path, one source of truth for the numerics.
///
/// Plain closures cannot be generic over the source type, so a body that
/// runs through [`PlannedLoop::run`] — under any [`ExecutorKind`] —
/// implements `LoopBody`; the schedule-free free functions
/// ([`doacross()`], [`self_scheduling`]) take a closure over their one
/// concrete source instead:
///
/// ```
/// use rtpl_executor::{LoopBody, ValueSource};
///
/// /// x(i) = 1 + x(i-1) — a chain.
/// struct Chain;
/// impl LoopBody for Chain {
///     fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
///         if i == 0 { 1.0 } else { 1.0 + src.get(i - 1) }
///     }
/// }
/// ```
pub trait LoopBody: Sync {
    /// Computes the value of index `i`, reading dependence values through
    /// `src` *only* (reads through `src` are what the synchronization
    /// discipline protects).
    fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64;
}

impl<B: LoopBody + ?Sized> LoopBody for &B {
    #[inline]
    fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
        (**self).eval(i, src)
    }
}

/// Direct reads from the (partially written) output vector — the value
/// source of the sequential reference executor.
pub struct DirectSource<'a>(&'a [f64]);

impl ValueSource for DirectSource<'_> {
    #[inline]
    fn get(&self, j: usize) -> f64 {
        self.0[j]
    }
}

/// Runs the loop body sequentially in natural index order — the reference
/// executor every parallel variant is checked against, and the loop
/// [`ExecutorKind::Sequential`] runs. The body may read any
/// already-computed index (`j < i` for forward loops) through the
/// [`DirectSource`]. Panics if the body panics.
pub fn sequential<F>(n: usize, body: F, out: &mut [f64])
where
    F: for<'a> Fn(usize, &DirectSource<'a>) -> f64,
{
    assert_eq!(out.len(), n);
    protocol::natural(out, None, body).unwrap_or_else(|e| panic!("{e}"));
}

/// Runs a [`LoopBody`] sequentially (the reference for [`PlannedLoop`]).
pub fn sequential_body<B: LoopBody>(n: usize, body: &B, out: &mut [f64]) {
    sequential(n, |i, src| body.eval(i, src), out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_runs_simple_loop() {
        // x(i) = i + x(i-1), x(0) = 0  =>  x(i) = i(i+1)/2
        let mut out = vec![0.0; 6];
        sequential(
            6,
            |i, src| {
                if i == 0 {
                    0.0
                } else {
                    i as f64 + src.get(i - 1)
                }
            },
            &mut out,
        );
        assert_eq!(out, vec![0.0, 1.0, 3.0, 6.0, 10.0, 15.0]);
    }

    #[test]
    fn sequential_body_matches_closure_form() {
        struct Sum;
        impl LoopBody for Sum {
            fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
                if i == 0 {
                    0.0
                } else {
                    i as f64 + src.get(i - 1)
                }
            }
        }
        let mut out = vec![0.0; 6];
        sequential_body(6, &Sum, &mut out);
        assert_eq!(out, vec![0.0, 1.0, 3.0, 6.0, 10.0, 15.0]);
    }
}
