//! Self-*scheduling* executors: dynamic assignment of iterations.
//!
//! The paper's related work (§3) contrasts its statically scheduled
//! executors with **self-scheduled** execution à la Lusk & Overbeek and the
//! **guided self-scheduling** of Polychronopoulos & Kuck, where processors
//! repeatedly claim the next chunk of iterations from a shared counter.
//! This module implements that alternative over a wavefront-sorted index
//! list, with busy-wait dependence synchronization — so load balance is
//! dynamic (no inspector partitioning step) at the price of contended
//! counter traffic and lost locality.
//!
//! Progress: chunks are claimed in topological-list order and each worker
//! processes its chunk in order, so the globally earliest unfinished index
//! always has its dependences complete and an owner that can run it. The
//! loop is `protocol::claim_walk` of the crate's one synchronization
//! protocol, so a panicking body is contained like in every other
//! discipline: busy-waiting peers are released and the pool survives.

use crate::pool::WorkerPool;
use crate::protocol;
use crate::report::ExecReport;
use crate::shared::WaitingSource;

/// Chunk-size policy for dynamic claiming.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Chunking {
    /// One iteration per claim (maximum balance, maximum contention —
    /// Lusk & Overbeek style).
    Unit,
    /// Guided self-scheduling: claim `ceil(remaining / p)` iterations
    /// (Polychronopoulos & Kuck).
    Guided,
    /// Fixed chunks of `k` iterations.
    Fixed(usize),
}

/// Runs `body` over the topologically sorted `order` (e.g.
/// [`rtpl_inspector::Wavefronts::sorted_list`]) with dynamically claimed
/// chunks and busy-wait synchronization.
///
/// `order` must be a permutation of `0..out.len()` in an order consistent
/// with the dependences read through the source (checked in debug builds by
/// the publication flags). The report's `iters_per_proc` shows the chunk
/// distribution the dynamic claiming actually produced.
pub fn self_scheduling<F>(
    pool: &WorkerPool,
    order: &[u32],
    chunking: Chunking,
    body: &F,
    out: &mut [f64],
) -> ExecReport
where
    F: for<'s> Fn(usize, &WaitingSource<'s>) -> f64 + Sync,
{
    if let Chunking::Fixed(k) = chunking {
        assert!(k >= 1, "fixed chunk size must be >= 1");
    }
    assert_eq!(out.len(), order.len());
    protocol::one_shot(pool, body, out, |run, kernel| {
        run.claim_walk(kernel, order, chunking)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValueSource;
    use rtpl_inspector::{DepGraph, Wavefronts};
    use rtpl_sparse::gen::{laplacian_5pt, random_lower};
    use rtpl_sparse::triangular::{row_substitution_lower, solve_lower, Diag};

    fn check(l: &rtpl_sparse::Csr, nprocs: usize, chunking: Chunking) {
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 7 % 13) as f64)).collect();
        let mut expect = vec![0.0; n];
        solve_lower(l, &b, Diag::Unit, &mut expect).unwrap();
        let g = DepGraph::from_lower_triangular(l).unwrap();
        let order = Wavefronts::compute(&g).unwrap().sorted_list();
        let pool = WorkerPool::new(nprocs);
        let mut out = vec![0.0; n];
        let report = self_scheduling(
            &pool,
            &order,
            chunking,
            &|i, src| row_substitution_lower(l, &b, i, |j| src.get(j)),
            &mut out,
        );
        assert_eq!(out, expect, "{chunking:?} p={nprocs}");
        assert_eq!(report.total_iters() as usize, n, "{chunking:?} p={nprocs}");
    }

    #[test]
    fn unit_chunks_match_sequential() {
        check(&laplacian_5pt(7, 7).strict_lower(), 3, Chunking::Unit);
    }

    #[test]
    fn guided_chunks_match_sequential() {
        check(&laplacian_5pt(8, 6).strict_lower(), 4, Chunking::Guided);
        check(&random_lower(90, 4, 21).strict_lower(), 2, Chunking::Guided);
    }

    #[test]
    fn fixed_chunks_match_sequential() {
        check(&laplacian_5pt(6, 6).strict_lower(), 2, Chunking::Fixed(5));
        check(&laplacian_5pt(6, 6).strict_lower(), 2, Chunking::Fixed(100));
    }

    #[test]
    fn natural_order_also_valid() {
        // The natural order 0..n is itself topological for forward graphs.
        let l = random_lower(60, 3, 5).strict_lower();
        let n = l.nrows();
        let b = vec![1.0; n];
        let mut expect = vec![0.0; n];
        solve_lower(&l, &b, Diag::Unit, &mut expect).unwrap();
        let order: Vec<u32> = (0..n as u32).collect();
        let pool = WorkerPool::new(3);
        let mut out = vec![0.0; n];
        self_scheduling(
            &pool,
            &order,
            Chunking::Guided,
            &|i, src| row_substitution_lower(&l, &b, i, |j| src.get(j)),
            &mut out,
        );
        assert_eq!(out, expect);
    }

    #[test]
    fn panicking_body_is_contained_under_every_chunking() {
        // A chain: whoever owns the index after the panicking one is
        // busy-waiting on a value that will never be published.
        let n = 64;
        let order: Vec<u32> = (0..n as u32).collect();
        let pool = WorkerPool::new(2);
        let chain = |panic_at: usize| {
            move |i: usize, src: &WaitingSource<'_>| {
                assert!(i != panic_at, "poisoned row");
                if i == 0 {
                    1.0
                } else {
                    1.0 + src.get(i - 1)
                }
            }
        };
        for chunking in [Chunking::Unit, Chunking::Guided, Chunking::Fixed(4)] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut out = vec![0.0; n];
                self_scheduling(&pool, &order, chunking, &chain(n / 2), &mut out)
            }));
            let msg = *caught.unwrap_err().downcast::<String>().unwrap();
            assert!(msg.contains("loop body panicked"), "{chunking:?}: {msg}");
            assert!(pool.is_healthy(), "{chunking:?}");
            let mut out = vec![0.0; n];
            self_scheduling(&pool, &order, chunking, &chain(n), &mut out);
            let expect: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            assert_eq!(out, expect, "{chunking:?}");
        }
    }

    #[test]
    fn single_worker_any_chunking() {
        for c in [Chunking::Unit, Chunking::Guided, Chunking::Fixed(3)] {
            check(&laplacian_5pt(5, 5).strict_lower(), 1, c);
        }
    }
}
