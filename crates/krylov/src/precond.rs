//! Preconditioner application.

use crate::trisolve::{
    CompiledSolveScratch, CompiledTriSolve, ExecutorKind, Sorting, TriangularSolvePlan,
};
use crate::{KrylovError, Result};
use rtpl_executor::WorkerPool;
use rtpl_sparse::ilu::IluFactors;
use rtpl_sparse::Csr;
use std::sync::Mutex;

/// Anything the Krylov iterations can use as `z = M⁻¹ r`.
///
/// The solvers ([`crate::cg`], [`crate::gmres`], [`crate::bicgstab`]) are
/// generic over this trait, so a preconditioner does not have to be one of
/// the in-crate [`Preconditioner`] variants — `rtpl-runtime` implements it
/// with triangular solves routed through its concurrent plan cache, which
/// is how a solver session amortizes inspection across iterations *and*
/// across independent solves sharing a factor structure.
pub trait Precondition: Sync {
    /// Applies `z = M⁻¹ r`; `work` is scratch of length `n`.
    fn apply(&self, pool: &WorkerPool, r: &[f64], z: &mut [f64], work: &mut [f64]);
}

impl Precondition for Preconditioner {
    fn apply(&self, pool: &WorkerPool, r: &[f64], z: &mut [f64], work: &mut [f64]) {
        // Resolves to the inherent method below, not back into the trait.
        Preconditioner::apply(self, pool, r, z, work);
    }
}

impl<M: Precondition + ?Sized> Precondition for &M {
    fn apply(&self, pool: &WorkerPool, r: &[f64], z: &mut [f64], work: &mut [f64]) {
        (**self).apply(pool, r, z, work);
    }
}

/// A preconditioner `M ≈ A` applied as `z = M⁻¹ r`.
// One preconditioner exists per solve; the variant size spread is
// irrelevant at that cardinality, and boxing the plan would cost a pointer
// chase per application.
#[allow(clippy::large_enum_variant)]
pub enum Preconditioner {
    /// `M = I` (unpreconditioned iteration).
    Identity,
    /// `M = diag(A)`; stores the inverse diagonal.
    Jacobi(Vec<f64>),
    /// `M = L U` from an incomplete factorization, applied by the parallel
    /// triangular solves — the paper's configuration. Built by
    /// [`Preconditioner::ilu`] (or [`Preconditioner::ssor`]).
    Ilu(LoadedIlu),
}

/// One factor pair ready to apply: the compiled solve of its pattern with
/// its values already gathered into the scratch every application reuses.
pub struct LoadedIlu {
    compiled: CompiledTriSolve,
    scratch: Mutex<CompiledSolveScratch>,
}

impl Preconditioner {
    /// Builds the `M = L U` preconditioner: inspects the factors'
    /// structure for `nprocs` processors, compiles the plan, and gathers
    /// the factor values **once** — every application is then one warm
    /// sweep pair under `kind`. A zero on `U`'s diagonal is reported here,
    /// by that gather.
    pub fn ilu(
        factors: &IluFactors,
        nprocs: usize,
        kind: ExecutorKind,
        sorting: Sorting,
    ) -> Result<Self> {
        let compiled = TriangularSolvePlan::new(factors, nprocs, kind, sorting)?.compile()?;
        let mut scratch = compiled.scratch();
        compiled.load_values(factors, &mut scratch)?;
        Ok(Preconditioner::Ilu(LoadedIlu {
            compiled,
            scratch: Mutex::new(scratch),
        }))
    }

    /// Builds a Jacobi preconditioner from the matrix diagonal.
    pub fn jacobi(a: &Csr) -> Result<Self> {
        let d = a.diagonal()?;
        if let Some(row) = d.iter().position(|&v| v == 0.0) {
            return Err(KrylovError::Sparse(rtpl_sparse::SparseError::ZeroPivot {
                row,
            }));
        }
        Ok(Preconditioner::Jacobi(d.iter().map(|v| 1.0 / v).collect()))
    }

    /// Builds an SSOR(ω) preconditioner applied through the parallel
    /// triangular-solve machinery (ω = 1 gives symmetric Gauss–Seidel).
    ///
    /// `M⁻¹ = ω(2−ω) · (D + ωU)⁻¹ D (D + ωL)⁻¹`, which factors as the
    /// unit-lower/upper pair `L̂ = ω L D⁻¹` (unit diagonal implicit) and
    /// `Û = (D + ωU) / (ω(2−ω))` — so SSOR needs **no factorization at
    /// all**, only the matrix's own triangles, yet exercises exactly the
    /// same run-time-scheduled sweeps as ILU. Requires `0 < ω < 2`.
    pub fn ssor(
        a: &Csr,
        omega: f64,
        nprocs: usize,
        kind: ExecutorKind,
        sorting: Sorting,
    ) -> Result<Self> {
        if !(0.0 < omega && omega < 2.0) {
            return Err(KrylovError::Breakdown { at_iteration: 0 });
        }
        let d = a.diagonal()?;
        if let Some(row) = d.iter().position(|&v| v == 0.0) {
            return Err(KrylovError::Sparse(rtpl_sparse::SparseError::ZeroPivot {
                row,
            }));
        }
        // L̂ = ω · L_strict · D⁻¹  (scale column j by 1/d[j]).
        let mut lhat = a.strict_lower();
        let cols: Vec<usize> = lhat.indices().iter().map(|&c| c as usize).collect();
        for (k, v) in lhat.data_mut().iter_mut().enumerate() {
            *v *= omega / d[cols[k]];
        }
        // Û = (D + ω U_strict) / (ω(2−ω)): row-scale including diagonal.
        let scale = 1.0 / (omega * (2.0 - omega));
        let mut uhat = a.upper();
        let n = a.nrows();
        for i in 0..n {
            let (lo, hi) = (uhat.indptr()[i], uhat.indptr()[i + 1]);
            let cols: Vec<usize> = uhat.indices()[lo..hi].iter().map(|&c| c as usize).collect();
            let vals = &mut uhat.data_mut()[lo..hi];
            for (k, v) in vals.iter_mut().enumerate() {
                *v = if cols[k] == i {
                    d[i] * scale
                } else {
                    *v * omega * scale
                };
            }
        }
        Self::ilu(&IluFactors { l: lhat, u: uhat }, nprocs, kind, sorting)
    }

    /// Applies `z = M⁻¹ r`; `work` is scratch of length `n` (unused by
    /// the ILU variant, which carries its own).
    pub fn apply(&self, pool: &WorkerPool, r: &[f64], z: &mut [f64], _work: &mut [f64]) {
        match self {
            Preconditioner::Identity => z.copy_from_slice(r),
            Preconditioner::Jacobi(dinv) => {
                for i in 0..r.len() {
                    z[i] = r[i] * dinv[i];
                }
            }
            Preconditioner::Ilu(m) => {
                let mut scratch = m.scratch.lock().unwrap_or_else(|e| e.into_inner());
                let kind = m.compiled.plan().kind();
                // PANIC: `apply` has no error channel. The values were
                // loaded at construction and no cancel token is passed, so
                // only a sweep that itself panicked can land here.
                m.compiled
                    .solve_loaded(Some(pool), kind, r, z, &mut scratch)
                    .expect(
                        "invariant: a loaded sweep over library arithmetic has no failure path",
                    );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpl_sparse::gen::laplacian_5pt;
    use rtpl_sparse::ilu0;

    #[test]
    fn identity_copies() {
        let pool = WorkerPool::new(1);
        let r = vec![1.0, 2.0, 3.0];
        let mut z = vec![0.0; 3];
        let mut w = vec![0.0; 3];
        Preconditioner::Identity.apply(&pool, &r, &mut z, &mut w);
        assert_eq!(z, r);
    }

    #[test]
    fn jacobi_scales_by_inverse_diagonal() {
        let a = laplacian_5pt(3, 3);
        let m = Preconditioner::jacobi(&a).unwrap();
        let pool = WorkerPool::new(1);
        let r = vec![1.0; 9];
        let mut z = vec![0.0; 9];
        let mut w = vec![0.0; 9];
        m.apply(&pool, &r, &mut z, &mut w);
        let d = a.diagonal().unwrap();
        for i in 0..9 {
            assert!((z[i] - 1.0 / d[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn ssor_matches_dense_reference() {
        // Apply SSOR(ω) densely and compare.
        let a = laplacian_5pt(4, 3);
        let n = a.nrows();
        let omega = 1.3;
        let m = Preconditioner::ssor(&a, omega, 2, ExecutorKind::SelfExecuting, Sorting::Global)
            .unwrap();
        let pool = WorkerPool::new(2);
        let r: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.4).sin()).collect();
        let mut z = vec![0.0; n];
        let mut w = vec![0.0; n];
        m.apply(&pool, &r, &mut z, &mut w);

        // Dense reference: z = ω(2−ω)(D+ωU)^{-1} D (D+ωL)^{-1} r.
        let d = a.diagonal().unwrap();
        let dense = rtpl_sparse::dense::Dense::from_csr(&a);
        // y1 = (D+ωL)^{-1} r by forward substitution.
        let mut y1 = vec![0.0; n];
        for i in 0..n {
            let mut acc = r[i];
            for j in 0..i {
                acc -= omega * dense.get(i, j) * y1[j];
            }
            y1[i] = acc / d[i];
        }
        // y2 = D y1 ; z = ω(2−ω)(D+ωU)^{-1} y2.
        let mut zref = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = d[i] * y1[i];
            for j in (i + 1)..n {
                acc -= omega * dense.get(i, j) * zref[j];
            }
            zref[i] = acc / d[i];
        }
        for v in zref.iter_mut() {
            *v *= omega * (2.0 - omega);
        }
        assert!(
            rtpl_sparse::dense::max_abs_diff(&z, &zref) < 1e-12,
            "{z:?} vs {zref:?}"
        );
    }

    #[test]
    fn ssor_accelerates_cg_vs_jacobi() {
        use crate::solvers::{cg, KrylovConfig};
        let a = laplacian_5pt(20, 20);
        let n = a.nrows();
        let b = vec![1.0; n];
        let pool = WorkerPool::new(2);
        let cfg = KrylovConfig::default();
        let mut iters = Vec::new();
        for m in [
            Preconditioner::jacobi(&a).unwrap(),
            Preconditioner::ssor(&a, 1.0, 2, ExecutorKind::SelfExecuting, Sorting::Global).unwrap(),
        ] {
            let mut x = vec![0.0; n];
            let s = cg(&pool, &a, &b, &mut x, &m, &cfg).unwrap();
            assert!(s.converged);
            iters.push(s.iterations);
        }
        assert!(
            iters[1] < iters[0],
            "SSOR ({}) should beat Jacobi ({})",
            iters[1],
            iters[0]
        );
    }

    #[test]
    fn ssor_rejects_bad_omega() {
        let a = laplacian_5pt(3, 3);
        assert!(
            Preconditioner::ssor(&a, 0.0, 1, ExecutorKind::Sequential, Sorting::Global).is_err()
        );
        assert!(
            Preconditioner::ssor(&a, 2.0, 1, ExecutorKind::Sequential, Sorting::Global).is_err()
        );
    }

    #[test]
    fn ilu_preconditioner_applies_factor_solve() {
        let a = laplacian_5pt(4, 4);
        let f = ilu0(&a).unwrap();
        let m = Preconditioner::ilu(&f, 2, ExecutorKind::SelfExecuting, Sorting::Global).unwrap();
        let pool = WorkerPool::new(2);
        let r = vec![1.0; 16];
        let mut z = vec![0.0; 16];
        let mut w = vec![0.0; 16];
        m.apply(&pool, &r, &mut z, &mut w);
        // L U z == r
        let lu = f.to_dense_product();
        let rz = lu.matvec(&z);
        assert!(rtpl_sparse::dense::max_abs_diff(&rz, &r) < 1e-10);
    }
}
