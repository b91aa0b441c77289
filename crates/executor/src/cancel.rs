//! Cooperative cancellation and deadlines for executor runs.
//!
//! A [`CancelToken`] is a cheap, cloneable handle (an `Arc`'d flag plus an
//! optional deadline instant) that every body-driven executor — the
//! `Sequential` loop on the caller's thread included — polls every
//! [`CHECK_STRIDE`] positions of a worker's own count, inside a
//! pre-scheduled phase too, so a run whose requester has given up (or
//! whose deadline passed) stops within a bounded number of iterations
//! instead of running to completion into a buffer nobody will read. (The
//! compiled sequential sweeps check the token on entry only.)
//!
//! Cancellation is *cooperative* and *containing*: the worker that
//! observes the token poisons the run's shared buffers (releasing any
//! peer busy-waiting on a value that will now never be published) and the
//! coordinating call returns [`ExecError::Cancelled`] /
//! [`ExecError::DeadlineExceeded`]; the worker threads themselves survive
//! for the next job, exactly as they do for body panics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How many positions a worker evaluates between token checks, under
/// every body-driven discipline — coarse enough that the disarmed check is
/// negligible against a body evaluation, fine enough that a worker runs at
/// most `CHECK_STRIDE` evaluations after the token fires.
pub const CHECK_STRIDE: usize = 64;

/// Why a cancellable executor run did not produce a result.
///
/// `Clone`/`PartialEq` so the error can flow through plan caches that
/// report one failure to many waiters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The loop body panicked on `workers` worker(s). The panic was
    /// contained; the pool and the plan remain usable, the output buffer
    /// does not.
    BodyPanicked {
        /// Workers whose body evaluation panicked.
        workers: usize,
    },
    /// The run's [`CancelToken`] was cancelled explicitly.
    Cancelled,
    /// The run's [`CancelToken`] deadline passed mid-run.
    DeadlineExceeded,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::BodyPanicked { workers } => {
                write!(f, "loop body panicked on {workers} worker(s)")
            }
            ExecError::Cancelled => write!(f, "run cancelled"),
            ExecError::DeadlineExceeded => write!(f, "run deadline exceeded"),
        }
    }
}

impl std::error::Error for ExecError {}

struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation handle: an explicit flag plus an optional
/// deadline. All checks are lock-free; the deadline is only consulted
/// after the (cheaper) flag.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.inner.cancelled.load(Ordering::Relaxed))
            .field("deadline", &self.inner.deadline)
            .finish()
    }
}

impl CancelToken {
    /// A token that only fires on an explicit [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that additionally fires once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// The deadline, if this token carries one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Whether the run should stop — and why. `None` means keep going.
    #[inline]
    pub fn check(&self) -> Option<ExecError> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return Some(ExecError::Cancelled);
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => Some(ExecError::DeadlineExceeded),
            _ => None,
        }
    }

    /// Whether the run should stop (flag or deadline), without the reason.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.check().is_some()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// Shared per-run interrupt slot the run envelope uses to carry the
/// first observed [`ExecError`] from a worker back to the coordinator
/// (workers that merely got released by poisoning must not overwrite the
/// original cause).
pub(crate) struct InterruptCell(std::sync::Mutex<Option<ExecError>>);

impl InterruptCell {
    pub(crate) fn new() -> Self {
        InterruptCell(std::sync::Mutex::new(None))
    }

    /// Records `cause` if no cause has been recorded yet.
    pub(crate) fn set(&self, cause: ExecError) {
        let mut slot = self.0.lock().unwrap_or_else(|e| e.into_inner());
        slot.get_or_insert(cause);
    }

    /// The first recorded cause, if any. Read once per run, by the
    /// coordinator after the join.
    pub(crate) fn get(&self) -> Option<ExecError> {
        *self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fresh_token_allows_progress() {
        let t = CancelToken::new();
        assert_eq!(t.check(), None);
        assert!(!t.is_cancelled());
    }

    #[test]
    fn explicit_cancel_is_visible_to_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.cancel();
        assert_eq!(clone.check(), Some(ExecError::Cancelled));
    }

    #[test]
    fn deadline_fires_once_passed() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(t.check(), Some(ExecError::DeadlineExceeded));
        let later = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert_eq!(later.check(), None);
    }

    #[test]
    fn explicit_cancel_wins_over_deadline() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        t.cancel();
        assert_eq!(t.check(), Some(ExecError::Cancelled));
    }

    #[test]
    fn interrupt_cell_keeps_the_first_cause() {
        let cell = InterruptCell::new();
        assert_eq!(cell.get(), None);
        cell.set(ExecError::DeadlineExceeded);
        cell.set(ExecError::Cancelled);
        assert_eq!(cell.get(), Some(ExecError::DeadlineExceeded));
    }
}
