//! Parallel vector kernels over contiguous index blocks.
//!
//! Appendix II-2.1: "For p processors and a linear system of order n, the
//! indices from 1 to n are divided into p contiguous groups of roughly equal
//! size. The i-th group is assigned to the i-th processor." These are the
//! easily parallelizable pieces of the Krylov iteration: SAXPY, inner
//! product, sparse matvec, copies and scalings.

use rtpl_executor::doall::doall_blocked;
use rtpl_executor::WorkerPool;
use rtpl_sparse::Csr;

/// `y ← y + α·x`.
pub fn axpy(pool: &WorkerPool, alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    doall_blocked(pool, y, &|_, lo, chunk| {
        for (k, slot) in chunk.iter_mut().enumerate() {
            *slot += alpha * x[lo + k];
        }
    });
}

/// `y ← x + β·y` (the "xpby" update CG uses for the direction vector).
pub fn xpby(pool: &WorkerPool, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    doall_blocked(pool, y, &|_, lo, chunk| {
        for (k, slot) in chunk.iter_mut().enumerate() {
            *slot = x[lo + k] + beta * *slot;
        }
    });
}

/// Inner product `xᵀy` with deterministic partial-sum combination.
pub fn dot(pool: &WorkerPool, x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    rtpl_executor::doall_reduce(pool, x.len(), &|i| x[i] * y[i]).0
}

/// Euclidean norm.
pub fn norm2(pool: &WorkerPool, x: &[f64]) -> f64 {
    dot(pool, x, x).sqrt()
}

/// `y ← A·x` with rows divided into contiguous blocks.
pub fn matvec(pool: &WorkerPool, a: &Csr, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.ncols());
    assert_eq!(y.len(), a.nrows());
    doall_blocked(pool, y, &|_, lo, chunk| {
        for (k, slot) in chunk.iter_mut().enumerate() {
            let i = lo + k;
            let mut acc = 0.0;
            for (j, v) in a.row(i) {
                acc += v * x[j];
            }
            *slot = acc;
        }
    });
}

/// `y ← x`.
pub fn copy(pool: &WorkerPool, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    doall_blocked(pool, y, &|_, lo, chunk| {
        chunk.copy_from_slice(&x[lo..lo + chunk.len()]);
    });
}

/// `x ← α·x`.
pub fn scale(pool: &WorkerPool, alpha: f64, x: &mut [f64]) {
    doall_blocked(pool, x, &|_, _, chunk| {
        for slot in chunk {
            *slot *= alpha;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpl_sparse::gen::laplacian_5pt;

    #[test]
    fn axpy_and_xpby_match_reference() {
        let pool = WorkerPool::new(3);
        let x: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let mut y: Vec<f64> = (0..40).map(|i| 2.0 * i as f64 + 1.0).collect();
        let mut yref = y.clone();
        axpy(&pool, 0.5, &x, &mut y);
        for (i, r) in yref.iter_mut().enumerate() {
            *r += 0.5 * x[i];
        }
        assert_eq!(y, yref);
        xpby(&pool, &x, -2.0, &mut y);
        for (i, r) in yref.iter_mut().enumerate() {
            *r = x[i] - 2.0 * *r;
        }
        assert_eq!(y, yref);
    }

    #[test]
    fn dot_and_norm() {
        let pool = WorkerPool::new(4);
        let x = vec![3.0; 16];
        let y = vec![2.0; 16];
        assert!((dot(&pool, &x, &y) - 96.0).abs() < 1e-12);
        assert!((norm2(&pool, &x) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_matvec_matches_sequential() {
        let pool = WorkerPool::new(3);
        let a = laplacian_5pt(7, 6);
        let x: Vec<f64> = (0..42).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut y_seq = vec![0.0; 42];
        a.matvec(&x, &mut y_seq).unwrap();
        let mut y_par = vec![0.0; 42];
        matvec(&pool, &a, &x, &mut y_par);
        assert_eq!(y_seq, y_par);
    }

    #[test]
    fn copy_and_scale() {
        let pool = WorkerPool::new(2);
        let x: Vec<f64> = (0..11).map(|i| i as f64).collect();
        let mut y = vec![0.0; 11];
        copy(&pool, &x, &mut y);
        assert_eq!(x, y);
        scale(&pool, 3.0, &mut y);
        assert_eq!(y[10], 30.0);
    }
}
