//! The plain doacross baseline.
//!
//! §5.1.2 compares the reordered executors against "a doacross loop": the
//! **original** index order striped across processors, with busy-wait
//! synchronization on the values. No inspector runs — that saves the
//! reordered-index-set accesses (the paper measured those as relatively
//! expensive on the Multimax) but forfeits the concurrency the wavefront
//! reordering exposes.
//!
//! Deadlock freedom: for a forward dependence graph (`dep < i`), the lowest
//! unexecuted index's operands are all complete, and each processor's local
//! order is increasing, so some processor can always advance. The loop is
//! `protocol::stripe_walk` of the crate's one synchronization protocol.

use crate::pool::WorkerPool;
use crate::protocol;
use crate::report::ExecReport;
use crate::shared::WaitingSource;

/// Runs `body` over `0..n` in natural order, index `i` on processor
/// `i mod p`, busy-waiting on dependence values. The dependence graph must
/// be forward (`dep < i`), which is the paper's start-time schedulable
/// setting.
pub fn doacross<F>(pool: &WorkerPool, n: usize, body: &F, out: &mut [f64]) -> ExecReport
where
    F: for<'s> Fn(usize, &WaitingSource<'s>) -> f64 + Sync,
{
    assert_eq!(out.len(), n);
    protocol::one_shot(pool, body, out, |run, kernel| run.stripe_walk(kernel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValueSource;
    use rtpl_sparse::gen::{laplacian_5pt, random_lower, tridiagonal};
    use rtpl_sparse::triangular::{row_substitution_lower, solve_lower, Diag};

    fn check(l: &rtpl_sparse::Csr, nprocs: usize) {
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        let mut expect = vec![0.0; n];
        solve_lower(l, &b, Diag::Unit, &mut expect).unwrap();
        let pool = WorkerPool::new(nprocs);
        let mut out = vec![0.0; n];
        let report = doacross(
            &pool,
            n,
            &|i, src| row_substitution_lower(l, &b, i, |j| src.get(j)),
            &mut out,
        );
        assert_eq!(out, expect);
        assert_eq!(report.total_iters() as usize, n);
    }

    #[test]
    fn mesh_solve_matches_sequential() {
        check(&laplacian_5pt(6, 6).strict_lower(), 3);
    }

    #[test]
    fn chain_is_fully_sequential_but_correct() {
        check(&tridiagonal(40, 2.0, -1.0).strict_lower(), 4);
    }

    #[test]
    fn random_dag_matches() {
        check(&random_lower(100, 6, 3).strict_lower(), 2);
    }

    #[test]
    fn counts_stalls_on_chain() {
        // A pure chain forces nearly every cross-processor read to stall.
        let l = tridiagonal(30, 2.0, -1.0).strict_lower();
        let n = l.nrows();
        let b = vec![1.0; n];
        let pool = WorkerPool::new(2);
        let mut out = vec![0.0; n];
        let report = doacross(
            &pool,
            n,
            &|i, src| row_substitution_lower(&l, &b, i, |j| src.get(j)),
            &mut out,
        );
        assert!(report.stalls > 0, "chain must produce busy-wait stalls");
    }
}
