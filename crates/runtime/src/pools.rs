//! Leased resources for concurrent clients: worker pools and run
//! scratches.
//!
//! A [`WorkerPool`] runs one SPMD job at a time, so a multi-client runtime
//! cannot share a single pool across overlapping solves. [`PoolSet`] keeps
//! a free list of pools (all sized to the runtime's processor count): a
//! request leases one for the duration of its run and returns it on drop.
//! The set grows on demand up to the number of concurrently active
//! requests and never shrinks — thread teams are reused exactly like the
//! plans they execute.
//!
//! [`LeasePool`] is the same pattern for arbitrary per-run state (and the
//! engine under [`PoolSet`]): each cached plan entry keeps one for its
//! executor scratches, so concurrent requests for the *same* hot pattern
//! replicate only the cheap mutable part (epoch-stamped buffers, gathered
//! values) while sharing the expensive immutable plan. Its counters —
//! created / currently active / peak active — make overlap *observable*,
//! which is what the concurrency tests assert instead of timing. Leases
//! are RAII ([`Lease`]): a panic mid-run still returns the resource and
//! keeps every counter honest.

use rtpl_executor::WorkerPool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What a [`LeasePool::lease`] observed: whether a new resource had to be
/// built and how many uses were active the moment this one began
/// (including itself).
#[derive(Clone, Copy, Debug)]
pub struct LeaseInfo {
    /// `true` when the free list was empty and `make` ran.
    pub created: bool,
    /// Active uses after beginning this one (≥ 1); a value ≥ 2 proves two
    /// requests overlapped on the same pool.
    pub active: u64,
}

/// A grow-on-demand free list of per-run resources with overlap counters.
///
/// Counter discipline: a use is counted **before** the free list is
/// consulted, and a returned resource is pushed back **before** the use is
/// uncounted — so `created() ≤ peak()` always holds: a resource is only
/// ever built while strictly more uses are active than resources exist.
#[derive(Debug, Default)]
pub struct LeasePool<T> {
    free: Mutex<Vec<T>>,
    created: AtomicU64,
    active: AtomicU64,
    peak: AtomicU64,
}

impl<T> LeasePool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        LeasePool {
            free: Mutex::new(Vec::new()),
            created: AtomicU64::new(0),
            active: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Takes a resource (building one with `make` only when the free list
    /// is empty) and reports the overlap observed. The resource returns to
    /// the free list when the [`Lease`] drops — also on panic.
    pub fn lease(&self, make: impl FnOnce() -> T) -> (Lease<'_, T>, LeaseInfo) {
        let active = self.active.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(active, Ordering::Relaxed);
        let reused = {
            let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
            free.pop()
        };
        let created = reused.is_none();
        let value = reused.unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            make()
        });
        (
            Lease {
                pool: self,
                value: Some(value),
            },
            LeaseInfo { created, active },
        )
    }

    /// Resources ever built. Never exceeds [`LeasePool::peak`].
    pub fn created(&self) -> u64 {
        self.created.load(Ordering::Relaxed)
    }

    /// Highest number of simultaneously active uses observed.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// An exclusively held resource, returned to its [`LeasePool`] on drop.
#[derive(Debug)]
pub struct Lease<'a, T> {
    pool: &'a LeasePool<T>,
    value: Option<T>,
}

impl<T> Lease<'_, T> {
    /// Consumes the lease *without* returning the resource to the free
    /// list — for resources observed broken (a worker pool with a dead
    /// thread). The active-use count still ends; the next lease that
    /// misses the free list builds a replacement.
    pub fn discard(mut self) {
        drop(self.value.take());
    }
}

impl<T> std::ops::Deref for Lease<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.value
            .as_ref()
            .expect("invariant: lease holds a value until drop")
    }
}

impl<T> std::ops::DerefMut for Lease<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.value
            .as_mut()
            .expect("invariant: lease holds a value until drop")
    }
}

impl<T> Drop for Lease<'_, T> {
    fn drop(&mut self) {
        // `discard` leaves `None`: the resource dies instead of returning.
        if let Some(value) = self.value.take() {
            let mut free = self.pool.free.lock().unwrap_or_else(|e| e.into_inner());
            free.push(value);
        }
        // After the push, so a racing lease that misses the free list is
        // genuinely concurrent with this one (`created() ≤ peak()`).
        self.pool.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A grow-on-demand free list of equally sized worker pools — a
/// [`LeasePool`] of [`WorkerPool`]s.
pub struct PoolSet {
    nprocs: usize,
    pools: LeasePool<WorkerPool>,
    rebuilds: AtomicU64,
}

impl std::fmt::Debug for PoolSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolSet")
            .field("nprocs", &self.nprocs)
            .field("created", &self.created())
            .finish_non_exhaustive()
    }
}

impl PoolSet {
    /// A set of pools of `nprocs` workers each. No threads are spawned
    /// until the first lease.
    pub fn new(nprocs: usize) -> Self {
        assert!(nprocs >= 1);
        PoolSet {
            nprocs,
            pools: LeasePool::new(),
            rebuilds: AtomicU64::new(0),
        }
    }

    /// Workers per pool.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Pools ever created (== the high-water mark of concurrent leases).
    pub fn created(&self) -> u64 {
        self.pools.created()
    }

    /// Dead pools discarded at lease time and replaced by fresh ones (a
    /// worker thread died — an escaped panic or abort in a body).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// Leases a pool, spawning a fresh one only when the free list is
    /// empty. The lease returns the pool on drop.
    ///
    /// A pool returned to the free list may have lost a worker thread to
    /// a previous request's catastrophic body (typed panic recovery keeps
    /// workers alive, but a double panic or an abort inside a drop
    /// handler can still kill one). Leasing health-checks reused pools
    /// and replaces dead ones instead of handing them out — the failure
    /// stays contained to the request that caused it.
    pub fn lease(&self) -> PoolLease<'_> {
        loop {
            let (lease, info) = self.pools.lease(|| WorkerPool::new(self.nprocs));
            if info.created || lease.is_healthy() {
                return PoolLease(lease);
            }
            self.rebuilds.fetch_add(1, Ordering::Relaxed);
            lease.discard();
        }
    }
}

/// An exclusively held [`WorkerPool`], returned to its [`PoolSet`] on drop.
pub struct PoolLease<'a>(Lease<'a, WorkerPool>);

impl std::ops::Deref for PoolLease<'_> {
    type Target = WorkerPool;

    fn deref(&self) -> &WorkerPool {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leases_are_reused_sequentially() {
        let set = PoolSet::new(2);
        for _ in 0..5 {
            let lease = set.lease();
            assert_eq!(lease.nworkers(), 2);
        }
        assert_eq!(set.created(), 1, "sequential leases share one pool");
    }

    #[test]
    fn lease_pool_counts_overlap_not_time() {
        let pool: LeasePool<u32> = LeasePool::new();
        let (a, ia) = pool.lease(|| 1);
        assert!(ia.created);
        assert_eq!(ia.active, 1);
        let (b, ib) = pool.lease(|| 2);
        assert!(ib.created);
        assert_eq!(ib.active, 2, "second concurrent lease observes overlap");
        drop(a);
        drop(b);
        assert_eq!(pool.created(), 2);
        assert_eq!(pool.peak(), 2);
        // Sequential leases reuse without growing.
        let (c, ic) = pool.lease(|| 3);
        assert!(!ic.created);
        assert_eq!(ic.active, 1);
        drop(c);
        assert_eq!(pool.created(), 2);
        assert!(pool.created() <= pool.peak());
    }

    #[test]
    fn lease_survives_panic_and_returns_resource() {
        let pool: LeasePool<u32> = LeasePool::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (_lease, _) = pool.lease(|| 9);
            panic!("mid-run failure");
        }));
        assert!(caught.is_err());
        // The resource came back and no use is stuck active.
        let (x, info) = pool.lease(|| 10);
        assert!(!info.created, "panicked lease's resource is reused");
        assert_eq!(*x, 9);
        assert_eq!(info.active, 1, "no leaked active count after a panic");
    }

    #[test]
    fn discarded_lease_is_replaced_not_reused() {
        let pool: LeasePool<u32> = LeasePool::new();
        let (a, _) = pool.lease(|| 1);
        a.discard();
        // The discarded resource never reaches the free list: the next
        // lease builds a replacement, and no active use leaks.
        let (b, info) = pool.lease(|| 2);
        assert!(info.created);
        assert_eq!(*b, 2);
        assert_eq!(info.active, 1);
        drop(b);
        assert_eq!(pool.created(), 2);
    }

    #[test]
    fn concurrent_leases_get_distinct_pools() {
        use std::sync::atomic::AtomicU64;
        let set = PoolSet::new(1);
        let a = set.lease();
        let b = set.lease();
        assert_eq!(set.created(), 2);
        // Both are usable simultaneously.
        let hits = AtomicU64::new(0);
        a.run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        b.run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        drop(a);
        drop(b);
        let _c = set.lease();
        assert_eq!(set.created(), 2, "returned pools are reused");
    }
}
