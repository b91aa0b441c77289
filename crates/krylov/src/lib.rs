//! # rtpl-krylov — preconditioned Krylov solvers (the PCGPAK substitute)
//!
//! The paper's end-to-end experiments run PCGPAK, a commercial
//! preconditioned Krylov solver, fully parallelized with the pre-scheduled
//! and self-executing constructs. This crate rebuilds every kernel that
//! parallelization touched (Appendix II):
//!
//! * [`parvec`] — SAXPYs, inner products and sparse matrix–vector products
//!   over contiguous index blocks (`doall` parallelism);
//! * [`trisolve`] — forward/backward sparse triangular solves: a
//!   values-free inspection of the factors' structure
//!   ([`TriangularSolvePlan`]), compiled once into execution-order layouts
//!   ([`CompiledTriSolve`]), then handed the factor values on every solve
//!   under any [`ExecutorKind`];
//! * [`precond`] — Jacobi and ILU preconditioner application;
//! * [`solvers`] — preconditioned CG (symmetric problems) and restarted
//!   GMRES(m) (the convection-dominated Appendix-I problems).

#![forbid(unsafe_code)]

pub mod parvec;
pub mod precond;
pub mod solvers;
pub mod trisolve;

pub use precond::{LoadedIlu, Precondition, Preconditioner};
pub use solvers::{bicgstab, cg, gmres, KrylovConfig, SolveStats};
pub use trisolve::{
    CompiledSolveScratch, CompiledTriSolve, ExecutorKind, Sorting, TriangularSolvePlan,
};

/// Errors from solver construction and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum KrylovError {
    /// Propagated sparse-matrix error.
    Sparse(rtpl_sparse::SparseError),
    /// Propagated inspector error.
    Inspector(rtpl_inspector::InspectorError),
    /// Operand dimensions disagree.
    DimensionMismatch { expected: usize, found: usize },
    /// The iteration failed to reduce the residual to tolerance.
    NotConverged { iterations: usize, residual: f64 },
    /// Numerical breakdown (zero denominator in a recurrence).
    Breakdown { at_iteration: usize },
    /// An executor run failed in a contained way (body panic, explicit
    /// cancellation, or an expired deadline); the plan and the pool stay
    /// usable.
    Exec(rtpl_executor::ExecError),
}

impl From<rtpl_sparse::SparseError> for KrylovError {
    fn from(e: rtpl_sparse::SparseError) -> Self {
        KrylovError::Sparse(e)
    }
}

impl From<rtpl_inspector::InspectorError> for KrylovError {
    fn from(e: rtpl_inspector::InspectorError) -> Self {
        KrylovError::Inspector(e)
    }
}

impl From<rtpl_executor::ExecError> for KrylovError {
    fn from(e: rtpl_executor::ExecError) -> Self {
        KrylovError::Exec(e)
    }
}

impl std::fmt::Display for KrylovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KrylovError::Sparse(e) => write!(f, "sparse error: {e}"),
            KrylovError::Inspector(e) => write!(f, "inspector error: {e}"),
            KrylovError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            KrylovError::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "not converged after {iterations} iterations (residual {residual:.3e})"
            ),
            KrylovError::Breakdown { at_iteration } => {
                write!(f, "numerical breakdown at iteration {at_iteration}")
            }
            KrylovError::Exec(e) => write!(f, "executor failure: {e}"),
        }
    }
}

impl std::error::Error for KrylovError {}

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, KrylovError>;
