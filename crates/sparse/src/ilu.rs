//! Incomplete LU factorization.
//!
//! PCGPAK — the commercial solver parallelized in the paper — preconditions
//! its Krylov iterations with an approximate factorization `Q = L U` obtained
//! by *incomplete* Gaussian elimination: fill entries are admitted only if
//! they are "sufficiently direct" (Appendix II). The standard formalization
//! is the **level of fill**: an original entry has level 0, and fill created
//! by eliminating with pivot `k` gets
//! `level(i,j) = min(level(i,j), level(i,k) + level(k,j) + 1)`;
//! ILU(k) keeps entries with level ≤ k. ILU(0) keeps exactly the pattern of
//! `A`.
//!
//! The symbolic factorization below maintains each row's fill pattern as a
//! sorted singly linked list through the column indices and merges pivot-row
//! lists into it — precisely the data structure the paper's Appendix II
//! describes.

use crate::csr::Csr;
use crate::{Result, SparseError};

/// The result of an incomplete factorization `A ≈ L U`.
///
/// `l` stores the **strictly lower** factor (the unit diagonal is implicit);
/// `u` stores the upper factor **including** its diagonal.
#[derive(Clone, Debug)]
pub struct IluFactors {
    /// Strictly lower triangular multipliers (unit diagonal implicit).
    pub l: Csr,
    /// Upper triangular factor including the diagonal.
    pub u: Csr,
}

impl IluFactors {
    /// Applies the preconditioner: solves `L U x = b` by a forward then a
    /// backward substitution. `work` is scratch of length `n`.
    pub fn solve(&self, b: &[f64], x: &mut [f64], work: &mut [f64]) -> Result<()> {
        crate::triangular::solve_lower(&self.l, b, crate::triangular::Diag::Unit, work)?;
        crate::triangular::solve_upper(&self.u, work, crate::triangular::Diag::Stored, x)
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.l.nrows()
    }

    /// Stored entries in both factors (diagnostics; the implicit unit
    /// diagonal is not counted).
    pub fn nnz(&self) -> usize {
        self.l.nnz() + self.u.nnz()
    }

    /// Reconstructs the dense product `L U` (tests only).
    pub fn to_dense_product(&self) -> crate::dense::Dense {
        let n = self.n();
        let mut l = crate::dense::Dense::from_csr(&self.l);
        for i in 0..n {
            l.set(i, i, 1.0);
        }
        let u = crate::dense::Dense::from_csr(&self.u);
        l.matmul(&u)
    }
}

/// ILU(0): incomplete factorization on exactly the sparsity pattern of `a`.
///
/// `a` must be square with structurally nonzero diagonal.
pub fn ilu0(a: &Csr) -> Result<IluFactors> {
    numeric_on_pattern(a, a)
}

/// ILU(k): level-of-fill incomplete factorization.
///
/// Computes the level-`k` fill pattern symbolically, then runs the numeric
/// factorization on that pattern. `iluk(a, 0)` is equivalent to [`ilu0`].
pub fn iluk(a: &Csr, level: usize) -> Result<IluFactors> {
    let pattern = symbolic_iluk(a, level)?;
    numeric_on_pattern(a, &pattern)
}

/// Symbolic level-of-fill factorization: returns the combined pattern of
/// `L + U` (values are the fill levels, stored as `f64` for convenience).
///
/// Row patterns are maintained as sorted linked lists threaded through the
/// column indices, and each stabilized pivot row's list is merged into the
/// current row's list (Appendix II of the paper).
pub fn symbolic_iluk(a: &Csr, maxlevel: usize) -> Result<Csr> {
    let n = square(a)?;
    const NONE: u32 = u32::MAX;

    // Final factored pattern, built row by row.
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices: Vec<u32> = Vec::new();
    let mut levels: Vec<u32> = Vec::new();
    indptr.push(0usize);

    // Per-row working linked list over columns. `next[j]` = next column in
    // the current row after `j`; `lev[j]` = level of (i, j) while present.
    let mut next = vec![NONE; n + 1];
    let mut lev = vec![u32::MAX; n];
    let head = n; // sentinel slot: next[head] = first column of the row

    for i in 0..n {
        // Scatter row i of A at level 0 (columns already sorted).
        next[head] = NONE;
        let mut tail = head;
        let mut has_diag = false;
        for &cj in a.row_indices(i) {
            let j = cj as usize;
            next[tail] = cj;
            next[j] = NONE;
            lev[j] = 0;
            tail = j;
            has_diag |= j == i;
        }
        if !has_diag {
            return Err(SparseError::MissingDiagonal { row: i });
        }

        // Eliminate with every pivot k < i currently in the row, in
        // increasing column order. The list is sorted, so walking it from the
        // head visits pivots in order even as the merge inserts new columns.
        let mut kcur = next[head] as usize;
        while kcur < i {
            let k = kcur;
            let lik = lev[k];
            if lik <= maxlevel as u32 {
                // Merge the (already factored) strict-upper part of pivot row
                // k into this row's list: fill (i, j) via (i, k), (k, j).
                let prow = indptr[k]..indptr[k + 1];
                let mut insert_after = k; // both lists are sorted past k
                for p in prow {
                    let j = indices[p] as usize;
                    if j <= k {
                        continue;
                    }
                    let fill_lev = lik + levels[p] + 1;
                    // Advance insert_after to the last column <= j.
                    while next[insert_after] != NONE && (next[insert_after] as usize) <= j {
                        insert_after = next[insert_after] as usize;
                    }
                    if insert_after == j {
                        // Already present: tighten the level.
                        lev[j] = lev[j].min(fill_lev);
                    } else if fill_lev <= maxlevel as u32 {
                        // Insert j after insert_after.
                        next[j] = next[insert_after];
                        next[insert_after] = j as u32;
                        lev[j] = fill_lev;
                        insert_after = j;
                    }
                }
            }
            kcur = if next[k] == NONE { n } else { next[k] as usize };
        }

        // Gather the row (sorted by construction).
        let mut c = next[head];
        while c != NONE {
            indices.push(c);
            levels.push(lev[c as usize]);
            c = next[c as usize];
        }
        indptr.push(indices.len());
    }

    let data = levels.iter().map(|&l| l as f64).collect();
    Ok(Csr::new_unchecked(n, n, indptr, indices, data))
}

/// Numeric incomplete factorization of `a` restricted to the sparsity
/// pattern of `pattern` (which must contain the diagonal; entries of `a`
/// outside the pattern are dropped, pattern entries absent from `a` start at
/// zero).
///
/// This is the IKJ ("row-wise") variant of Gaussian elimination: row `i` is
/// updated by every stabilized pivot row `k < i` present in its pattern —
/// the dependence structure the run-time inspector extracts for the parallel
/// numeric factorization.
pub fn numeric_on_pattern(a: &Csr, pattern: &Csr) -> Result<IluFactors> {
    let n = square(a)?;
    if pattern.nrows() != n || pattern.ncols() != n {
        return Err(SparseError::DimensionMismatch {
            expected: n,
            found: pattern.nrows(),
        });
    }

    // Output in pattern order, row by row.
    let mut w = vec![0.0f64; n]; // scatter workspace
    let mut in_row = vec![false; n];
    let mut udiag = vec![0.0f64; n];

    let mut l_indptr = Vec::with_capacity(n + 1);
    let mut l_indices: Vec<u32> = Vec::new();
    let mut l_data: Vec<f64> = Vec::new();
    let mut u_indptr = Vec::with_capacity(n + 1);
    let mut u_indices: Vec<u32> = Vec::new();
    let mut u_data: Vec<f64> = Vec::new();
    l_indptr.push(0usize);
    u_indptr.push(0usize);

    for i in 0..n {
        let prow = pattern.row_indices(i);
        if prow.binary_search(&(i as u32)).is_err() {
            return Err(SparseError::MissingDiagonal { row: i });
        }
        // Scatter pattern positions (zero-filled), then values of A that fall
        // inside the pattern.
        for &cj in prow {
            w[cj as usize] = 0.0;
            in_row[cj as usize] = true;
        }
        for (j, v) in a.row(i) {
            if in_row[j] {
                w[j] = v;
            }
        }

        // Eliminate with pivots k < i in increasing order.
        for &ck in prow {
            let k = ck as usize;
            if k >= i {
                break;
            }
            let d = udiag[k];
            if d == 0.0 {
                cleanup(&mut in_row, prow);
                return Err(SparseError::ZeroPivot { row: k });
            }
            let lik = w[k] / d;
            w[k] = lik;
            // Subtract lik * (strict upper of pivot row k) where the pattern
            // admits it.
            for p in u_indptr[k]..u_indptr[k + 1] {
                let j = u_indices[p] as usize;
                if j > k && in_row[j] {
                    w[j] -= lik * u_data[p];
                }
            }
        }

        // Gather into L (j < i) and U (j >= i).
        for &cj in prow {
            let j = cj as usize;
            if j < i {
                l_indices.push(cj);
                l_data.push(w[j]);
            } else {
                if j == i {
                    if w[j] == 0.0 {
                        cleanup(&mut in_row, prow);
                        return Err(SparseError::ZeroPivot { row: i });
                    }
                    udiag[i] = w[j];
                }
                u_indices.push(cj);
                u_data.push(w[j]);
            }
            in_row[j] = false;
        }
        l_indptr.push(l_indices.len());
        u_indptr.push(u_indices.len());
    }

    Ok(IluFactors {
        l: Csr::new_unchecked(n, n, l_indptr, l_indices, l_data),
        u: Csr::new_unchecked(n, n, u_indptr, u_indices, u_data),
    })
}

fn cleanup(in_row: &mut [bool], prow: &[u32]) {
    for &c in prow {
        in_row[c as usize] = false;
    }
}

fn square(a: &Csr) -> Result<usize> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::DimensionMismatch {
            expected: a.nrows(),
            found: a.ncols(),
        });
    }
    Ok(a.nrows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::CooBuilder;

    /// Tridiagonal matrices have no fill, so ILU(0) must equal exact LU.
    #[test]
    fn ilu0_exact_on_tridiagonal() {
        let n = 8;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 4.0);
            if i > 0 {
                b.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
            }
        }
        let a = b.build();
        let f = ilu0(&a).unwrap();
        let lu = f.to_dense_product();
        let ad = Dense::from_csr(&a);
        assert!(lu.max_abs_diff(&ad) < 1e-12, "no-fill ILU(0) must be exact");
    }

    /// On a dense pattern ILU(k>=n) equals exact LU without pivoting.
    #[test]
    fn iluk_full_level_is_exact_lu() {
        let n = 5;
        let dense: Vec<f64> = (0..n * n)
            .map(|k| {
                let (i, j) = (k / n, k % n);
                if i == j {
                    10.0
                } else {
                    1.0 / (1.0 + (i as f64 - j as f64).abs())
                }
            })
            .collect();
        let a = Csr::from_dense(n, n, &dense, 0.0);
        let f = iluk(&a, n).unwrap();
        let lu = f.to_dense_product();
        let ad = Dense::from_csr(&a);
        assert!(lu.max_abs_diff(&ad) < 1e-10);
    }

    /// ILU(0) on a 5-point grid: the product LU must match A exactly on the
    /// pattern of A (the defining property of ILU(0)).
    #[test]
    fn ilu0_matches_a_on_pattern() {
        let a = crate::gen::laplacian_5pt(5, 4);
        let f = ilu0(&a).unwrap();
        let lu = f.to_dense_product();
        for i in 0..a.nrows() {
            for (j, v) in a.row(i) {
                assert!(
                    (lu.get(i, j) - v).abs() < 1e-12,
                    "pattern entry ({i},{j}) must be reproduced"
                );
            }
        }
    }

    /// Levels grow the pattern monotonically, and level-0 pattern == A.
    #[test]
    fn symbolic_levels_monotone() {
        let a = crate::gen::laplacian_5pt(6, 6);
        let p0 = symbolic_iluk(&a, 0).unwrap();
        let p1 = symbolic_iluk(&a, 1).unwrap();
        let p2 = symbolic_iluk(&a, 2).unwrap();
        assert_eq!(p0.nnz(), a.nnz(), "ILU(0) pattern is the pattern of A");
        assert!(p1.nnz() >= p0.nnz());
        assert!(p2.nnz() >= p1.nnz());
        assert!(p2.nnz() > p0.nnz(), "5-pt grids generate level-1 fill");
        // Every A entry must appear in every pattern.
        for i in 0..a.nrows() {
            for (j, _) in a.row(i) {
                assert!(p1.get(i, j).is_some());
            }
        }
    }

    #[test]
    fn missing_diagonal_rejected() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        b.push(1, 1, 1.0);
        let a = b.build();
        assert!(matches!(
            ilu0(&a),
            Err(SparseError::MissingDiagonal { row: 0 })
        ));
        assert!(matches!(
            symbolic_iluk(&a, 1),
            Err(SparseError::MissingDiagonal { row: 0 })
        ));
    }

    #[test]
    fn zero_pivot_rejected() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 0.0);
        b.push(1, 1, 1.0);
        let a = b.build();
        assert!(matches!(ilu0(&a), Err(SparseError::ZeroPivot { row: 0 })));
        // A pivot annihilated by elimination: [1 1; 1 1] gives u22 = 1 - 1*1.
        let mut b = CooBuilder::new(2, 2);
        for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            b.push(i, j, 1.0);
        }
        let a = b.build();
        assert!(matches!(
            iluk(&a, 0),
            Err(SparseError::ZeroPivot { row: 1 })
        ));
    }

    #[test]
    fn preconditioner_solve_applies_both_factors() {
        let a = crate::gen::laplacian_5pt(4, 4);
        let f = ilu0(&a).unwrap();
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 1.5).collect();
        let mut x = vec![0.0; n];
        let mut work = vec![0.0; n];
        f.solve(&b, &mut x, &mut work).unwrap();
        // Check L U x == b by reconstructing the product.
        let lu = f.to_dense_product();
        let r = lu.matvec(&x);
        assert!(crate::dense::max_abs_diff(&r, &b) < 1e-10);
    }

    /// Higher fill level must not *worsen* the preconditioner on a Laplacian:
    /// ||LU - A|| decreases as k grows.
    #[test]
    fn fill_level_improves_accuracy() {
        let a = crate::gen::laplacian_5pt(6, 5);
        let ad = Dense::from_csr(&a);
        let e0 = iluk(&a, 0).unwrap().to_dense_product().max_abs_diff(&ad);
        let e2 = iluk(&a, 2).unwrap().to_dense_product().max_abs_diff(&ad);
        let e6 = iluk(&a, 12).unwrap().to_dense_product().max_abs_diff(&ad);
        assert!(e2 <= e0 + 1e-12);
        assert!(e6 < 1e-10, "full fill is exact; got {e6}");
    }
}
