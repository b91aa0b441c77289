//! # rtpl-inspector — run-time dependence inspection and scheduling
//!
//! The *inspector* half of the paper's inspector/executor pair. Given a loop
//! whose cross-iteration dependences are only known at run time (they depend
//! on index arrays like `ia` in `x(i) = x(i) + b(i)*x(ia(i))`), the inspector
//!
//! 1. extracts the dependence DAG over outer-loop indices ([`DepGraph`]),
//! 2. performs the **wavefront topological sort** of the paper's Figure 7
//!    ([`Wavefronts`]): `wf(i) = 1 + max(wf(dep))`, so all indices of one
//!    wavefront are mutually independent,
//! 3. produces an execution [`Schedule`] for `p` processors using either
//!    * **global scheduling** — sort the whole index set by wavefront and
//!      deal it out to processors in a wrapped fashion, balancing every
//!      wavefront ([`Schedule::global`]), or
//!    * **local scheduling** — keep a fixed index-to-processor
//!      [`Partition`] and only reorder each processor's own indices by
//!      wavefront ([`Schedule::local`]);
//!
//!    [`Sorting::schedule`] makes the choice.
//!
//! An optional post-pass, [`Schedule::coalesce`], applies the paper's cost
//! model one level up: consecutive wavefronts whose combined per-processor
//! work is cheaper than a barrier are merged into one phase, with ownership
//! re-assigned so every intra-phase dependence is same-processor
//! write-before-read — **the intra-phase execution order is the
//! synchronization**; only dependences that still cross phases pay a
//! barrier or busy-wait.
//!
//! The executor crate then runs these schedules with barrier (pre-scheduled)
//! or busy-wait (self-executing) synchronization.

pub mod dep;
pub mod elision;
pub mod partition;
pub mod schedule;
pub mod stats;
pub mod wavefront;

pub use dep::DepGraph;
pub use elision::BarrierPlan;
pub use partition::Partition;
pub use schedule::{CoalesceStats, Schedule, Sorting};
pub use stats::ScheduleStats;
pub use wavefront::Wavefronts;

/// Errors produced by inspection and scheduling.
#[derive(Debug, Clone, PartialEq)]
pub enum InspectorError {
    /// A dependence points outside `0..n`.
    DependenceOutOfBounds { index: usize, dep: usize },
    /// The dependence graph contains a cycle (not start-time schedulable).
    Cycle { at: usize },
    /// A schedule failed validation.
    InvalidSchedule(String),
    /// Processor count must be at least one.
    NoProcessors,
}

impl std::fmt::Display for InspectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InspectorError::DependenceOutOfBounds { index, dep } => {
                write!(f, "index {index} depends on out-of-bounds index {dep}")
            }
            InspectorError::Cycle { at } => {
                write!(f, "dependence cycle detected through index {at}")
            }
            InspectorError::InvalidSchedule(msg) => write!(f, "invalid schedule: {msg}"),
            InspectorError::NoProcessors => write!(f, "processor count must be >= 1"),
        }
    }
}

impl std::error::Error for InspectorError {}

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, InspectorError>;
