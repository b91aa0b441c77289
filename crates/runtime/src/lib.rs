//! # rtpl-runtime — concurrent plan cache + adaptive policy service
//!
//! The paper's whole economic argument is amortization: the inspector's
//! dependence analysis and topological sort are paid **once** per loop
//! structure and recovered over many executions. The library crates below
//! this one implement the mechanism (plan once, run many), but every caller
//! still had to *hold on to* its `PlannedLoop` and hand-pick an executor
//! discipline. This crate closes that loop and turns the workspace into a
//! multi-client **solver service**:
//!
//! * plans are remembered **across requests** in a sharded, LRU-bounded
//!   concurrent cache keyed by [`PatternFingerprint`] — the structural
//!   128-bit hash of the sparsity pattern, values excluded — so any client
//!   presenting a structure that has been seen before skips inspection
//!   entirely;
//! * the executor discipline is chosen **per pattern by a cost model**, not
//!   by a constructor argument: the §4/§5 cost accounting of `rtpl-sim`,
//!   seeded by `calibrate_host` measurements at startup, predicts each
//!   policy's time, and the measured [`ExecReport`]s of real runs refine
//!   the choice online — the first run of a pattern may explore, the steady
//!   state exploits;
//! * cached plans are **compiled** (`rtpl_krylov::CompiledTriSolve` over
//!   `rtpl_executor::compiled::CompiledPlan`): the schedule is baked into
//!   the data layout at build time — operand indices pre-remapped into
//!   plan space, per-processor segments contiguous, values attached by a
//!   one-pass gather — and split into an immutable shared part and a
//!   leasable scratch, so **concurrent requests for the same hot pattern
//!   run in parallel** instead of serializing on an entry lock.
//!
//! ## Architecture
//!
//! Every request — single or batched, solve or loop — enters as a
//! [`Job`] through one of two doors and runs on **one** execution path:
//! the per-class group runner. A lone job is a batch of one.
//!
//! ```text
//!  clients (any number of threads)
//!     │ submit(Job) -> JobOutcome        submit_batch(Vec<Job>) -> BatchOutcome
//!     │   a group of one, run directly     group jobs by PatternFingerprint,
//!     │   (no queue, no allocation)        cold groups first, fan groups
//!     │                                    over one worker per hardware thread
//!     ▼                                          ▼
//!  ┌─────────────────────────── Runtime ───────────────────────────┐
//!  │  group runner (one per job class: solve / loop / linear):     │
//!  │  breaker admit, then one lookup / pool lease / scratch lease  │
//!  │  / selector decision *per group*, per-job failure accounting  │
//!  │        ▼                                                      │
//!  │  ┌── PlanCache (N shards) ───┐      ┌──────────────────────┐  │
//!  │  │ shard₀: fp → Slot         │      │ PolicySelector       │  │
//!  │  │ shard₁: fp → Slot   LRU   │      │  CostModel from      │  │
//!  │  │   …     (build-once,      │      │  calibrate_host();   │  │
//!  │  │ shardₙ:  hit/miss/evict)  │      │  rtpl-sim predicts   │  │
//!  │  └───────────┬───────────────┘      │  each policy's time  │  │
//!  │              │ Arc<Slot>            └─────────┬────────────┘  │
//!  │              ▼                                │ prior          │
//!  │  CompiledTriSolve / PlannedLoop /             ▼                │
//!  │  CompiledPlan — immutable, shared   ┌──────────────────────┐  │
//!  │  by every in-flight request;        │ AdaptiveState (per   │  │
//!  │  each request/group leases a        │ pattern): explore →  │  │
//!  │  scratch (entry LeasePool) + a      │ exploit + UCB        │  │
//!  │  WorkerPool (PoolSet) — same- and   │ re-exploration, fed  │  │
//!  │  cross-pattern requests all run     │ by observed          │  │
//!  │  in parallel                        │ ExecReports          │  │
//!  └─────────────────────────────────────┴──────────────────────┴──┘
//! ```
//!
//! ## The `Job` front door
//!
//! A [`Job`] is a triangular solve ([`Job::solve`]: cached parallel
//! `L U x = b` for any [`IluFactors`] — the first request with a new
//! pattern inspects both sweeps, builds a [`TriangularSolvePlan`] and
//! compiles it; every later request, any values, any thread, reuses it),
//! a generic [`LoopBody`] over a cacheable [`LoopSpec`] such as
//! `rtpl::DoConsider::into_spec` emits ([`Job::looped`]), or a compiled
//! linear recurrence `x(i) = rhs(i) − Σ aₖ·x(depₖ)` with per-call
//! coefficient gathers ([`Job::linear`]). There are exactly two ways in:
//!
//! * [`Runtime::submit`] — one job, run on the calling thread, answered
//!   with its [`JobOutcome`].
//! * [`Runtime::submit_batch`] — many jobs, scheduled *across* requests:
//!   jobs sharing a fingerprint share one plan, one pool lease, one
//!   selector decision, and (when they also share a factor object) one
//!   value gather; cold inspections are queued ahead so they pipeline
//!   with warm executions on other batch workers. A small all-warm batch
//!   (a few tiny solves, as a server sees them) runs on the calling
//!   thread alone, since a helper thread costs more to start than it
//!   would save. [`BatchOutcome`] reports per-job outcomes plus batch
//!   wall time.
//!
//! Both run the same group runners, so deadlines, panic containment, the
//! per-pattern circuit breaker and every counter behave identically
//! whichever door a job came through. [`Runtime::preconditioner`] adapts
//! the front door to [`rtpl_krylov::Precondition`]: ILU applications are
//! `submit`ted like every other request, so Krylov iterations hit the
//! cache from the second application on.
//!
//! ```
//! use rtpl_runtime::{Job, NoBody, Runtime, RuntimeConfig};
//! use rtpl_sparse::{gen::laplacian_5pt, ilu0};
//!
//! let rt = Runtime::new(RuntimeConfig {
//!     nprocs: 2,
//!     calibrate: false, // tests: abstract cost model, no startup timing
//!     ..RuntimeConfig::default()
//! });
//! let f = ilu0(&laplacian_5pt(8, 8)).unwrap();
//! let (b1, b2) = (vec![1.0; f.n()], vec![2.0; f.n()]);
//! let (mut x1, mut x2) = (vec![0.0; f.n()], vec![0.0; f.n()]);
//! // Two same-structure solves in one batch: one plan build, one group.
//! let out = rt.submit_batch::<NoBody>(vec![
//!     Job::solve(&f, &b1, &mut x1),
//!     Job::solve(&f, &b2, &mut x2),
//! ]);
//! assert_eq!(out.ok_count(), 2);
//! assert_eq!(out.groups, 1);
//! assert_eq!(rt.stats().solves.builds, 1);
//! // A lone job is a batch of one: a later solve hits the same cache.
//! let warm = rt.submit(Job::<NoBody>::solve(&f, &b1, &mut x1)).unwrap();
//! assert!(warm.cached);
//! ```
//!
//! ## Persistence: the memory → disk → cold ladder
//!
//! With [`RuntimeConfig::store_path`] set, the plan cache grows a second
//! tier: an `rtpl_store::PlanStore` whose append-only segment file
//! survives restarts. Lookups walk a ladder — a **memory** hit never
//! touches the store (the warm hot path is unchanged); a miss consults
//! the **disk** tier and, on a hit, decodes the persisted
//! `CompiledTriSolve` artifact (skipping dependence analysis, wavefront
//! sort, and schedule validation — the artifact was proven valid before
//! it was spilled); only a store miss goes **cold** and pays the full
//! inspection, after which the artifact is spilled by the store's
//! write-behind flusher. Plans evicted from the bounded memory tier
//! resurrect from disk the same way. The selector's measured per-policy
//! costs travel with each artifact ([`Runtime::persist_learned`]
//! re-spills the current measurements), and a resumed runtime keeps only
//! the measurements its own host's cost model still considers viable.
//! [`Runtime::warm_from_store`] pre-compiles the most-recently-used head
//! of the store on a background thread before traffic arrives.
//!
//! Artifacts are **structure only** — values are gathered fresh from the
//! caller's factors on every solve — so a store-served plan is bit-exact
//! with a freshly inspected one under the same policy. Every store
//! failure (unreadable file, version skew, truncation, checksum
//! mismatch, `nprocs` mismatch) is a typed error counted in
//! [`RuntimeStats::store_load_errors`] and served by cold inspection;
//! none of them can panic the service or corrupt an answer.
//!
//! Concurrency contract: a cached entry holds one **immutable** plan
//! (compiled layouts for solves and linear loops, a [`PlannedLoop`] for
//! generic bodies) plus a [`pools::LeasePool`] of per-run scratches
//! (epoch-stamped buffers, gathered values). Any number of requests —
//! same pattern or different, batched or not — proceed fully in parallel;
//! each leases a scratch and a worker pool for the duration of its run
//! and returns both. Overlap is observable, not just possible:
//! [`JobOutcome::concurrent`] and [`RuntimeStats::peak_same_pattern`]
//! count in-flight requests per pattern (≥ 2 proves the head of the Zipf
//! curve no longer serializes).
//!
//! ## Failure containment
//!
//! A multi-client service must contain each request's failure to that
//! request. A panicking loop body is caught on the worker that unwound
//! and surfaces as [`RuntimeError::BodyPanicked`] on the failing job's
//! own outcome slot — its batch peers complete bit-exact, the worker
//! pool is health-checked at the next lease and rebuilt if a thread died
//! ([`RuntimeStats::pool_rebuilds`]). [`Job::with_deadline`] attaches a
//! deadline carried into the executors as a cooperative
//! `rtpl_executor::CancelToken`, checked at phase/stride boundaries: an
//! expired job fails typed ([`RuntimeError::DeadlineExceeded`]) without
//! poisoning its plan or pool. Patterns that fail repeatedly trip a
//! per-pattern circuit breaker ([`RuntimeConfig::breaker_threshold`],
//! [`RuntimeConfig::breaker_cooldown`]): further submissions fail fast
//! with [`RuntimeError::CircuitOpen`] until a half-open probe succeeds,
//! so a poisoned pattern cannot monopolize batch workers. All of it is
//! counted — [`RuntimeStats::body_panics`],
//! [`RuntimeStats::deadline_expired`], [`RuntimeStats::circuit_open`] —
//! and rendered by [`RuntimeStats::render_plaintext`].
//!
//! [`PatternFingerprint`]: rtpl_sparse::PatternFingerprint
//! [`ExecReport`]: rtpl_executor::ExecReport
//! [`IluFactors`]: rtpl_sparse::ilu::IluFactors
//! [`TriangularSolvePlan`]: rtpl_krylov::TriangularSolvePlan
//! [`LoopBody`]: rtpl_executor::LoopBody
//! [`PlannedLoop`]: rtpl_executor::PlannedLoop

pub mod batch;
pub mod cache;
pub mod pools;
pub mod selector;
pub mod service;

pub use batch::{BatchOutcome, Job, JobKind, JobOutcome, LoopSpec, NoBody};
pub use cache::{CacheStats, PlanCache};
pub use selector::{AdaptiveState, PolicySelector};
pub use service::{CachedIlu, Runtime, RuntimeConfig, RuntimeStats};

/// Errors surfaced by the runtime service.
///
/// `Clone` is required so a failed plan construction can be reported to
/// every thread that was waiting on the same cache slot.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// Plan construction or execution failed in the solver layer.
    Krylov(rtpl_krylov::KrylovError),
    /// Dependence analysis / scheduling failed.
    Inspector(rtpl_inspector::InspectorError),
    /// The input matrix is structurally unusable.
    Sparse(rtpl_sparse::SparseError),
    /// The job's loop body panicked mid-run. The panic was contained:
    /// `workers` worker threads unwound, the plan, the scratch, and the
    /// pool all stay usable, and only this job fails.
    BodyPanicked {
        /// Worker threads that unwound (includes peers released by buffer
        /// poisoning, so this may exceed the number of faulty iterations).
        workers: usize,
    },
    /// The job's deadline passed before (or while) it ran; partial output
    /// is unspecified, everything else is untouched.
    DeadlineExceeded,
    /// The job was cancelled through its [`rtpl_executor::CancelToken`].
    Cancelled,
    /// This pattern's circuit breaker is open: its recent builds or runs
    /// kept failing, so requests are rejected cheaply until the cooldown
    /// elapses and a probe request is let through (see
    /// [`RuntimeConfig::breaker_threshold`]).
    ///
    /// [`RuntimeConfig::breaker_threshold`]: crate::RuntimeConfig::breaker_threshold
    CircuitOpen,
}

impl From<rtpl_executor::ExecError> for RuntimeError {
    fn from(e: rtpl_executor::ExecError) -> Self {
        match e {
            rtpl_executor::ExecError::BodyPanicked { workers } => {
                RuntimeError::BodyPanicked { workers }
            }
            rtpl_executor::ExecError::DeadlineExceeded => RuntimeError::DeadlineExceeded,
            rtpl_executor::ExecError::Cancelled => RuntimeError::Cancelled,
        }
    }
}

impl From<rtpl_krylov::KrylovError> for RuntimeError {
    fn from(e: rtpl_krylov::KrylovError) -> Self {
        match e {
            // Contained executor failures keep their own shape — the
            // caller distinguishes "your body panicked" / "your deadline
            // passed" from genuine solver errors.
            rtpl_krylov::KrylovError::Exec(x) => RuntimeError::from(x),
            other => RuntimeError::Krylov(other),
        }
    }
}

impl From<rtpl_inspector::InspectorError> for RuntimeError {
    fn from(e: rtpl_inspector::InspectorError) -> Self {
        RuntimeError::Inspector(e)
    }
}

impl From<rtpl_sparse::SparseError> for RuntimeError {
    fn from(e: rtpl_sparse::SparseError) -> Self {
        RuntimeError::Sparse(e)
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Krylov(e) => write!(f, "solver error: {e}"),
            RuntimeError::Inspector(e) => write!(f, "inspector error: {e}"),
            RuntimeError::Sparse(e) => write!(f, "sparse error: {e}"),
            RuntimeError::BodyPanicked { workers } => {
                write!(f, "loop body panicked ({workers} worker(s) unwound)")
            }
            RuntimeError::DeadlineExceeded => write!(f, "job deadline exceeded"),
            RuntimeError::Cancelled => write!(f, "job cancelled"),
            RuntimeError::CircuitOpen => {
                write!(f, "circuit breaker open for this pattern (cooling down)")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, RuntimeError>;
