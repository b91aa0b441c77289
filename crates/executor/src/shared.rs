//! Shared solution vectors with epoch-stamped publication flags.
//!
//! The self-executing loop of Figure 4 coordinates through two shared
//! arrays: the solution vector `x` and a `ready` array recording which
//! entries "have been COMPLETED". [`SharedVec`] packages both: values are
//! `AtomicU64` cells holding `f64` bit patterns, flags are `AtomicU32`
//! **epoch stamps**. Publishing stores the value (relaxed) and then the
//! current epoch into the flag with `Release`; consuming loads the flag
//! with `Acquire` and compares it to the epoch — the flag carries the
//! happens-before edge, so no `unsafe` is needed anywhere.
//!
//! The epoch stamping is what makes *plan-once / run-many* allocation-free:
//! [`SharedVec::begin_run`] invalidates every previously published entry in
//! O(1) by bumping the epoch, so a [`crate::LoopScratch`] serves thousands
//! of solver iterations without clearing `n` flags or allocating.

use crate::ValueSource;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// A shared `f64` vector whose entries become readable once published.
///
/// Entries are published *for an epoch*; bumping the epoch
/// ([`SharedVec::begin_run`]) unpublishes everything at once. One
/// `SharedVec` therefore serves arbitrarily many executions, but **at most
/// one at a time** — concurrent runs over the same buffer would read each
/// other's values (memory-safe, numerically wrong).
pub struct SharedVec {
    vals: Vec<AtomicU64>,
    flags: Vec<AtomicU32>,
    epoch: AtomicU32,
    poisoned: AtomicBool,
}

impl std::fmt::Debug for SharedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedVec")
            .field("len", &self.len())
            .field("epoch", &self.current_epoch())
            .field("poisoned", &self.is_poisoned())
            .finish()
    }
}

impl SharedVec {
    /// An unpublished vector of length `n` (values default to 0.0 but are
    /// unreadable until published).
    pub fn new(n: usize) -> Self {
        SharedVec {
            vals: (0..n).map(|_| AtomicU64::new(0)).collect(),
            flags: (0..n).map(|_| AtomicU32::new(0)).collect(),
            epoch: AtomicU32::new(1),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Starts a fresh run: clears poisoning and invalidates every published
    /// entry in O(1) by bumping the epoch. Returns the new epoch, which the
    /// executor threads pass to the `_at` methods (avoiding repeated epoch
    /// loads on the hot path).
    ///
    /// Must be called from the coordinating thread, before workers start.
    pub fn begin_run(&self) -> u32 {
        self.poisoned.store(false, Ordering::Release);
        let next = self.epoch.load(Ordering::Relaxed).wrapping_add(1);
        if next == 0 {
            // Epoch wrap (once every 2^32 runs): stale flags from 2^32 runs
            // ago could alias, so pay one full clear and restart at 1.
            for f in &self.flags {
                f.store(0, Ordering::Relaxed);
            }
            self.epoch.store(1, Ordering::Release);
            1
        } else {
            self.epoch.store(next, Ordering::Release);
            next
        }
    }

    /// The current run's epoch.
    #[inline]
    pub fn current_epoch(&self) -> u32 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Marks the vector poisoned: a producer died, so pending and future
    /// waits must panic instead of spinning forever. Called by the executors
    /// when a loop body panics.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// Whether [`SharedVec::poison`] was called since the last
    /// [`SharedVec::begin_run`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Length.
    #[inline]
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Publishes `v` as the value of index `i` for `epoch`: value store
    /// first, then the Release flag store (Figure 4 lines 3b/3c).
    #[inline]
    pub fn publish_at(&self, i: usize, v: f64, epoch: u32) {
        // Recorded before the stores: a reader that observed the flag logs
        // its read strictly after this event (see `crate::trace`).
        #[cfg(feature = "verify-trace")]
        crate::trace::record_write(i, epoch);
        self.vals[i].store(v.to_bits(), Ordering::Relaxed);
        self.flags[i].store(epoch, Ordering::Release);
    }

    /// Publishes `v` for the current epoch.
    #[inline]
    pub fn publish(&self, i: usize, v: f64) {
        self.publish_at(i, v, self.current_epoch());
    }

    /// Non-blocking completion probe for `epoch` (Acquire).
    #[inline]
    pub fn is_ready_at(&self, i: usize, epoch: u32) -> bool {
        self.flags[i].load(Ordering::Acquire) == epoch
    }

    /// Busy-waits for index `i` in `epoch` and returns its value plus the
    /// spin count.
    ///
    /// Panics if the vector is poisoned while waiting (the producer of a
    /// needed value died) — turning a would-be livelock into a clean panic
    /// that the worker pool reports.
    #[inline]
    pub fn wait_get_at(&self, i: usize, epoch: u32) -> (f64, u64) {
        let mut spins = 0u64;
        while !self.is_ready_at(i, epoch) {
            if self.is_poisoned() {
                panic!("shared vector poisoned while waiting for index {i}");
            }
            spins += 1;
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        #[cfg(feature = "verify-trace")]
        crate::trace::record_read_acquire(i, epoch);
        (f64::from_bits(self.vals[i].load(Ordering::Relaxed)), spins)
    }

    /// Reads a value that is already known to be published in `epoch`
    /// (e.g. in an earlier pre-scheduled phase, after a barrier). Debug
    /// builds verify the flag.
    #[inline]
    pub fn get_published_at(&self, i: usize, epoch: u32) -> f64 {
        debug_assert!(self.is_ready_at(i, epoch), "read of unpublished index {i}");
        #[cfg(feature = "verify-trace")]
        crate::trace::record_read_plain(i, epoch);
        f64::from_bits(self.vals[i].load(Ordering::Relaxed))
    }

    /// Copies values published in `epoch` into `out`; panics in debug
    /// builds if any index was never published.
    pub fn copy_into_at(&self, out: &mut [f64], epoch: u32) {
        assert_eq!(out.len(), self.len());
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.get_published_at(i, epoch);
        }
    }

    /// Copies current-epoch values into `out`.
    pub fn copy_into(&self, out: &mut [f64]) {
        self.copy_into_at(out, self.current_epoch());
    }
}

/// [`ValueSource`] adapter that busy-waits on a [`SharedVec`] and counts
/// stalls — the reader the self-executing executors hand to loop bodies.
/// Captures the run's epoch at construction, so hot-path reads touch only
/// the flag word.
pub struct WaitingSource<'a> {
    shared: &'a SharedVec,
    epoch: u32,
    stalls: std::cell::Cell<u64>,
}

impl<'a> WaitingSource<'a> {
    /// Wraps a shared vector for the given run epoch.
    pub fn new(shared: &'a SharedVec, epoch: u32) -> Self {
        WaitingSource {
            shared,
            epoch,
            stalls: std::cell::Cell::new(0),
        }
    }

    /// Wraps a shared vector for its current epoch.
    pub fn current(shared: &'a SharedVec) -> Self {
        Self::new(shared, shared.current_epoch())
    }

    /// Number of reads that had to spin.
    pub fn stalls(&self) -> u64 {
        self.stalls.get()
    }
}

impl ValueSource for WaitingSource<'_> {
    #[inline]
    fn get(&self, j: usize) -> f64 {
        let (v, spins) = self.shared.wait_get_at(j, self.epoch);
        if spins > 0 {
            self.stalls.set(self.stalls.get() + 1);
        }
        v
    }
}

/// [`ValueSource`] adapter for barrier-synchronized reads (no waiting).
pub struct PublishedSource<'a> {
    shared: &'a SharedVec,
    epoch: u32,
}

impl<'a> PublishedSource<'a> {
    /// Wraps a shared vector for the given run epoch.
    pub fn new(shared: &'a SharedVec, epoch: u32) -> Self {
        PublishedSource { shared, epoch }
    }
}

impl ValueSource for PublishedSource<'_> {
    #[inline]
    fn get(&self, j: usize) -> f64 {
        self.shared.get_published_at(j, self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_then_read() {
        let v = SharedVec::new(4);
        let e = v.current_epoch();
        v.publish(2, 3.25);
        assert!(v.is_ready_at(2, e));
        assert_eq!(v.get_published_at(2, e), 3.25);
        assert!(!v.is_ready_at(0, e));
        assert_eq!(v.wait_get_at(2, e), (3.25, 0));
    }

    #[test]
    fn begin_run_invalidates_previous_epoch() {
        let v = SharedVec::new(3);
        let old = v.current_epoch();
        v.publish(0, 1.5);
        assert!(v.is_ready_at(0, old));
        assert_eq!(v.get_published_at(0, old), 1.5);
        let e = v.begin_run();
        assert_eq!(v.current_epoch(), e);
        assert!(!v.is_ready_at(0, e), "old-epoch value must be unpublished");
        v.publish_at(0, 2.5, e);
        assert!(v.is_ready_at(0, e));
        assert_eq!(v.get_published_at(0, e), 2.5);
    }

    #[test]
    fn begin_run_clears_poison() {
        let v = SharedVec::new(1);
        v.poison();
        assert!(v.is_poisoned());
        v.begin_run();
        assert!(!v.is_poisoned());
    }

    #[test]
    fn cross_thread_publication_is_visible() {
        let v = SharedVec::new(1);
        let e = v.begin_run();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                v.publish_at(0, 42.0, e);
            });
            let (val, _) = v.wait_get_at(0, e);
            assert_eq!(val, 42.0);
        });
    }

    #[test]
    fn waiting_source_counts_stalls() {
        let v = SharedVec::new(2);
        v.publish(0, 1.0);
        let src = WaitingSource::current(&v);
        assert_eq!(src.get(0), 1.0);
        assert_eq!(src.stalls(), 0);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                v.publish(1, 2.0);
            });
            assert_eq!(src.get(1), 2.0);
        });
        assert!(src.stalls() >= 1);
    }

    #[test]
    fn negative_and_special_values_survive_bit_transport() {
        let v = SharedVec::new(3);
        let e = v.current_epoch();
        v.publish(0, -0.0);
        v.publish(1, f64::INFINITY);
        v.publish(2, 1e-308);
        assert_eq!(v.get_published_at(0, e), -0.0);
        assert_eq!(v.get_published_at(1, e), f64::INFINITY);
        assert_eq!(v.get_published_at(2, e), 1e-308);
        let mut out = [0.0; 3];
        v.copy_into_at(&mut out, e);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&[-0.0, f64::INFINITY, 1e-308]));
    }

    #[test]
    fn many_runs_reuse_one_buffer() {
        let v = SharedVec::new(4);
        for run in 0..100u32 {
            let e = v.begin_run();
            for i in 0..4 {
                assert!(!v.is_ready_at(i, e));
                v.publish_at(i, run as f64 + i as f64, e);
            }
            let mut out = [0.0; 4];
            v.copy_into_at(&mut out, e);
            assert_eq!(out[3], run as f64 + 3.0);
        }
    }
}
