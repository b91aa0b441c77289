//! # rtpl — Run-Time Parallelization and scheduling of Loops
//!
//! A Rust implementation of the inspector/executor system of
//! **Saltz, Mirchandaney & Baxter, "Run-Time Parallelization and Scheduling
//! of Loops"** (ICASE 88-70, 1989) — the `doconsider` construct.
//!
//! Many scientific loops carry substantial parallelism that a compiler
//! cannot see because the cross-iteration dependences run through index
//! arrays whose contents exist only at run time:
//!
//! ```text
//! do i = 1, n
//!     x(i) = x(i) + b(i) * x(ia(i))
//! end do
//! ```
//!
//! The `doconsider` transformation splits such a loop into an **inspector**
//! (analyze the dependences, topologically sort indices into wavefronts,
//! build a per-processor schedule) and an **executor** (run the schedule
//! under any synchronization discipline). [`DoConsider`] is that pipeline;
//! it produces a [`PlannedLoop`] that is planned **once** and then run as
//! many times as the application iterates, under any [`ExecutorKind`],
//! through one generic, statically dispatched entry point:
//!
//! ```
//! use rtpl::prelude::*;
//!
//! // The run-time index array: x(i) = xold(i) + b(i) * x(ia(i)).
//! // A loop body implements `LoopBody` once and runs under every policy.
//! struct Body<'a> {
//!     ia: &'a [usize],
//!     b: &'a [f64],
//!     xold: &'a [f64],
//! }
//! impl LoopBody for Body<'_> {
//!     fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
//!         let t = self.ia[i];
//!         // Old value for t >= i (no ordering needed), flow dependence
//!         // through the source otherwise.
//!         let operand = if t >= i { self.xold[t] } else { src.get(t) };
//!         self.xold[i] + self.b[i] * operand
//!     }
//! }
//!
//! let ia = vec![0usize, 0, 1, 5, 2, 3];
//! let b = vec![0.5; 6];
//! let xold = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
//! let body = Body { ia: &ia, b: &b, xold: &xold };
//!
//! // Inspector: dependence analysis + wavefront sort, planned once.
//! let plan = DoConsider::from_index_array(&ia)?
//!     .schedule(Sorting::Global, 2)?;
//!
//! // Executor: plan.run(pool, kind, body, out) -> ExecReport.
//! let pool = WorkerPool::new(2);
//! let mut x = vec![0.0; 6];
//! let report = plan.run(Some(&pool), ExecutorKind::SelfExecuting, &body, &mut x);
//! assert_eq!(x[0], 1.0 + 0.5 * 1.0);
//! assert_eq!(report.total_iters(), 6);
//!
//! // Same loop, same plan, barrier discipline — identical results; and
//! // the natural-order loop, which needs no pool at all.
//! let mut x2 = vec![0.0; 6];
//! plan.run(Some(&pool), ExecutorKind::PreScheduled, &body, &mut x2);
//! assert_eq!(x, x2);
//! plan.run(None, ExecutorKind::Sequential, &body, &mut x2);
//! assert_eq!(x, x2);
//! # Ok::<(), rtpl::inspector::InspectorError>(())
//! ```
//!
//! ## Compiled plans: bake the schedule into the data
//!
//! For the hottest plan-once/run-many loops the planning step can go one
//! level deeper: a **compiled execution layout**
//! ([`executor::compiled::CompiledPlan`], and
//! [`krylov::CompiledTriSolve`] for the fused forward+backward triangular
//! solve) permutes operand indices and per-row nonzero slices into
//! schedule execution order at build time — contiguous per-processor
//! segments, all index remaps (the backward sweep's `n−1−j`) and filters
//! resolved once, the inverse diagonal pre-applied — and attaches numeric
//! values with a one-pass gather, so repeated solves stream memory
//! linearly:
//!
//! ```
//! use rtpl::executor::WorkerPool;
//! use rtpl::krylov::{ExecutorKind, Sorting, TriangularSolvePlan};
//! use rtpl::sparse::{gen::laplacian_5pt, ilu0};
//!
//! let f = ilu0(&laplacian_5pt(8, 8))?;
//! let n = f.n();
//! // Inspect once, compile once ...
//! let compiled = TriangularSolvePlan::new(&f, 2, ExecutorKind::SelfExecuting,
//!     Sorting::Global)?.compile()?;
//! // ... then run many times; the immutable plan is shareable (Arc) and
//! // each concurrent client leases its own cheap scratch.
//! let pool = WorkerPool::new(2);
//! let mut scratch = compiled.scratch();
//! let b = vec![1.0; n];
//! let mut x = vec![0.0; n];
//! compiled.solve(Some(&pool), ExecutorKind::SelfExecuting, &f, &b, &mut x,
//!     &mut scratch)?;
//! let mut x_seq = vec![0.0; n];
//! compiled.solve(None, ExecutorKind::Sequential, &f, &b, &mut x_seq,
//!     &mut scratch)?;
//! assert_eq!(x, x_seq); // bit-exact across every discipline
//! # Ok::<(), rtpl::krylov::KrylovError>(())
//! ```
//!
//! The [`runtime`] service builds exactly this flow behind a concurrent,
//! structure-keyed plan cache with a unified **`Job` front door**:
//! `Runtime::submit`/`submit_batch` accept triangular solves and
//! `DoConsider`-derived loop jobs ([`DoConsider::into_spec`] emits the
//! cacheable analysis product), compile a pattern on first sight, and
//! thereafter serve **any number of threads in parallel** — same pattern
//! or different — by sharing the compiled plan and leasing per-run
//! scratches. Batches are scheduled *across* requests: same-fingerprint
//! jobs share one plan, one pool lease, and one policy decision.
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`inspector`] | dependence graphs, wavefronts, schedules, `Sorting` |
//! | [`executor`] | worker pool, barrier, `ExecutorKind` and its executors, `PlannedLoop::build`, compiled layouts |
//! | [`sparse`] | CSR matrices, ILU factorization, generators |
//! | [`krylov`] | PCGPAK substitute: CG/GMRES + parallel kernels, compiled triangular solves |
//! | [`runtime`] | solver service: `Job` front door (single + batched), plan cache, adaptive policy |
//! | [`server`] | TCP front door: binary wire protocol, admission control, batched dispatch, metrics |
//! | [`store`] | persistent plan store: versioned artifact codec, write-behind spill, warm restart |
//! | [`verify`] | static plan/schedule verifier, compiled-layout audit, vector-clock race oracle |
//! | [`sim`] | multiprocessor performance model (event + closed form) |
//! | [`workload`] | the paper's test problems and synthetic generator |
//! | [`transform`] | the §2.2 front end: [`compile`] turns a [`LoopProgram`] into a [`CompiledLoop`] — a `LoopBody` plus its inspection, run through the doors above |

//!
//! ## Failure model
//!
//! Failures stay contained to the request that caused them: a panicking
//! loop body is caught on the worker that unwound and surfaces as a typed
//! error (`executor::ExecError::BodyPanicked`, mapped by the runtime and
//! the server onto the failing job alone), deadlines and cancellation are
//! checked cooperatively at phase/stride boundaries
//! (`executor::CancelToken`), and the [`failpoint`] registry lets tests
//! and the chaos harness inject faults at named sites (store I/O, server
//! sockets, executor bodies) via `RTPL_FAILPOINTS` — zero-cost while
//! disarmed.

pub use rtpl_executor as executor;
pub use rtpl_inspector as inspector;
pub use rtpl_krylov as krylov;
pub use rtpl_runtime as runtime;
pub use rtpl_server as server;
pub use rtpl_sim as sim;
pub use rtpl_sparse as sparse;
pub use rtpl_store as store;
pub use rtpl_verify as verify;
pub use rtpl_workload as workload;

pub use rtpl_sparse::failpoint;

pub mod doconsider;
pub mod transform;

pub use doconsider::{dodynamic, DoConsider, ExecutorKind, LoopBody, PlannedLoop, Sorting};
pub use rtpl_executor::ExecReport;
pub use transform::{compile, CompiledLoop, Env, LoopProgram, Op};

/// Everything needed for typical use.
pub mod prelude {
    pub use crate::doconsider::{DoConsider, ExecutorKind, LoopBody, PlannedLoop, Sorting};
    pub use rtpl_executor::{ExecReport, ValueSource, WorkerPool};
    pub use rtpl_inspector::{DepGraph, Partition, Schedule, Wavefronts};
    pub use rtpl_sparse::Csr;
}
