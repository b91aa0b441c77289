//! `doall` — fully independent iterations.
//!
//! The "easily parallelizable procedures" of Appendix II (SAXPY, vector
//! inner products, sparse matrix–vector products) divide `0..n` into `p`
//! contiguous blocks, one per processor. No synchronization beyond the
//! final join is needed. Like every other executor, the doall family
//! reports its run through an [`ExecReport`] (barriers and stalls are
//! structurally zero; the iteration distribution and wall time remain
//! informative).

use crate::pool::WorkerPool;
use crate::report::ExecReport;
use rtpl_inspector::partition::contiguous_range;
use std::cell::UnsafeCell;
use std::time::Instant;

/// A slice that workers may write at **disjoint** ranges concurrently:
/// worker `p` takes its own block of the output, or its own slot of the
/// partial sums. Disjointness is the caller's obligation, spelled out on
/// [`DisjointSlice::range_mut`].
struct DisjointSlice<'a> {
    data: &'a [UnsafeCell<f64>],
}

// SAFETY: writes go through `range_mut`, whose contract demands
// disjointness; reads happen only after the parallel section joins.
unsafe impl Sync for DisjointSlice<'_> {}

impl<'a> DisjointSlice<'a> {
    /// Wraps a uniquely borrowed slice.
    fn new(data: &'a mut [f64]) -> Self {
        // SAFETY: UnsafeCell<f64> has the same layout as f64, and the
        // unique borrow of `data` is held for 'a.
        let cells = unsafe { &*(data as *mut [f64] as *const [UnsafeCell<f64>]) };
        DisjointSlice { data: cells }
    }

    /// Mutable access to `lo..hi`.
    ///
    /// # Safety
    /// The range must be disjoint from every range any other thread accesses
    /// during the current parallel section.
    // Interior mutability through UnsafeCell: &mut from &self is the whole
    // point, with uniqueness guaranteed by the caller's disjointness
    // contract above.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    unsafe fn range_mut(&self, lo: usize, hi: usize) -> &mut [f64] {
        let cells = &self.data[lo..hi];
        // SAFETY: the caller's disjointness contract (above) makes this
        // range exclusively ours; the bounds were checked by the slicing.
        unsafe { std::slice::from_raw_parts_mut(UnsafeCell::raw_get(cells.as_ptr()), cells.len()) }
    }
}

fn block_report(n: usize, nprocs: usize, wall: std::time::Duration) -> ExecReport {
    ExecReport {
        barriers: 0,
        stalls: 0,
        iters_per_proc: (0..nprocs)
            .map(|p| {
                let (lo, hi) = contiguous_range(n, nprocs, p);
                (hi - lo) as u64
            })
            .collect(),
        wall,
    }
}

/// Evaluates `out[i] = body(i)` for all `i` in parallel over contiguous
/// blocks.
pub fn doall<F>(pool: &WorkerPool, n: usize, body: &F, out: &mut [f64]) -> ExecReport
where
    F: Fn(usize) -> f64 + Sync,
{
    assert_eq!(out.len(), n);
    doall_blocked(pool, out, &|_, lo, chunk| {
        for (k, slot) in chunk.iter_mut().enumerate() {
            *slot = body(lo + k);
        }
    })
}

/// Runs `body(p, lo, &mut out[lo..hi])` on every worker `p` with its
/// contiguous range of `out` — the SPMD form used when the body wants to
/// process a whole block at once (e.g. a blocked matvec).
pub fn doall_blocked<F>(pool: &WorkerPool, out: &mut [f64], body: &F) -> ExecReport
where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    let n = out.len();
    let nprocs = pool.nworkers();
    let ds = DisjointSlice::new(out);
    let t0 = Instant::now();
    pool.run(&|p| {
        let (lo, hi) = contiguous_range(n, nprocs, p);
        // SAFETY: `pool.run` calls this once per worker id `p`, and the
        // contiguous ranges of distinct workers are disjoint.
        body(p, lo, unsafe { ds.range_mut(lo, hi) });
    })
    .unwrap_or_else(|e| panic!("{e}"));
    block_report(n, nprocs, t0.elapsed())
}

/// Parallel sum-reduction: `Σ_i body(i)` over contiguous blocks, partials
/// combined deterministically in worker order. Returns the sum and the run
/// report.
pub fn doall_reduce<F>(pool: &WorkerPool, n: usize, body: &F) -> (f64, ExecReport)
where
    F: Fn(usize) -> f64 + Sync,
{
    let nprocs = pool.nworkers();
    let mut partials = vec![0.0f64; nprocs];
    let t0 = Instant::now();
    {
        let ds = DisjointSlice::new(&mut partials);
        pool.run(&|p| {
            let (lo, hi) = contiguous_range(n, nprocs, p);
            let mut acc = 0.0;
            for i in lo..hi {
                acc += body(i);
            }
            // SAFETY: each worker writes only its own slot.
            unsafe { ds.range_mut(p, p + 1)[0] = acc };
        })
        .unwrap_or_else(|e| panic!("{e}"));
    }
    let report = block_report(n, nprocs, t0.elapsed());
    (partials.iter().sum(), report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doall_computes_all_indices() {
        let pool = WorkerPool::new(4);
        let mut out = vec![0.0; 103];
        let report = doall(&pool, 103, &|i| (i * i) as f64, &mut out);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i * i) as f64);
        }
        assert_eq!(report.total_iters(), 103);
        assert_eq!(report.barriers, 0);
        assert_eq!(report.stalls, 0);
    }

    #[test]
    fn doall_reduce_matches_sequential_sum() {
        let pool = WorkerPool::new(3);
        let x: Vec<f64> = (0..50).map(|i| (i as f64) * 0.5).collect();
        let y: Vec<f64> = (0..50).map(|i| 2.0 - i as f64 * 0.01).collect();
        let (dot, report) = doall_reduce(&pool, 50, &|i| x[i] * y[i]);
        let expect: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot - expect).abs() < 1e-9);
        assert_eq!(report.total_iters(), 50);
    }

    #[test]
    fn doall_blocked_covers_all() {
        let pool = WorkerPool::new(4);
        let mut out = vec![f64::NAN; 37];
        doall_blocked(&pool, &mut out, &|p, lo, chunk| {
            assert_eq!((lo, lo + chunk.len()), contiguous_range(37, 4, p));
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = (lo + k) as f64;
            }
        });
        assert_eq!(out, (0..37).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn disjoint_slice_parallel_writes() {
        let mut data = vec![0.0; 10];
        {
            let ds = DisjointSlice::new(&mut data);
            std::thread::scope(|s| {
                for p in 0..2 {
                    let ds = &ds;
                    s.spawn(move || {
                        let (lo, hi) = (p * 5, (p + 1) * 5);
                        // SAFETY: ranges [0,5) and [5,10) are disjoint.
                        let chunk = unsafe { ds.range_mut(lo, hi) };
                        for (k, x) in chunk.iter_mut().enumerate() {
                            *x = (lo + k) as f64;
                        }
                    });
                }
            });
        }
        assert_eq!(data, (0..10).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_range_ok() {
        let pool = WorkerPool::new(4);
        let mut out: Vec<f64> = vec![];
        doall(&pool, 0, &|_| 1.0, &mut out);
        assert_eq!(doall_reduce(&pool, 0, &|_| 1.0).0, 0.0);
    }

    #[test]
    fn more_workers_than_items() {
        let pool = WorkerPool::new(8);
        let mut out = vec![0.0; 3];
        let report = doall(&pool, 3, &|i| i as f64 + 1.0, &mut out);
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
        assert_eq!(report.iters_per_proc.iter().sum::<u64>(), 3);
    }
}
