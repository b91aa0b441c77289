//! Krylov iterations: preconditioned CG and restarted GMRES(m).
//!
//! "The basic tasks involved in Krylov methods are sparse matrix-vector
//! multiplies ..., additions of scalar multiples of vectors to other vectors
//! (SAXPYs), and vector inner-products" (Appendix I). Both methods below
//! drive exactly those parallel kernels plus the preconditioner solve.

use crate::parvec;
use crate::precond::Precondition;
use crate::{KrylovError, Result};
use rtpl_executor::WorkerPool;
use rtpl_sparse::Csr;

/// Iteration controls.
#[derive(Clone, Copy, Debug)]
pub struct KrylovConfig {
    /// Relative residual reduction target.
    pub tol: f64,
    /// Iteration cap (matvec count for CG; inner steps for GMRES).
    pub max_iter: usize,
    /// GMRES restart length `m`.
    pub restart: usize,
}

impl Default for KrylovConfig {
    fn default() -> Self {
        KrylovConfig {
            tol: 1e-8,
            max_iter: 500,
            restart: 30,
        }
    }
}

/// Outcome of a solve.
#[derive(Clone, Copy, Debug)]
pub struct SolveStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Final (preconditioned, for GMRES) residual norm, relative to the
    /// initial one.
    pub relative_residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// Preconditioned conjugate gradients (for symmetric positive definite
/// systems). Solves `A x = b` in place starting from the `x` passed in.
pub fn cg<M: Precondition + ?Sized>(
    pool: &WorkerPool,
    a: &Csr,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    cfg: &KrylovConfig,
) -> Result<SolveStats> {
    let n = check_system(a, b, x)?;
    let mut r = vec![0.0; n];
    let mut z = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut q = vec![0.0; n];
    let mut work = vec![0.0; n];

    // r = b − A x
    parvec::matvec(pool, a, x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let b_norm = parvec::norm2(pool, b).max(f64::MIN_POSITIVE);
    let mut r_norm = parvec::norm2(pool, &r);
    if r_norm / b_norm <= cfg.tol {
        return Ok(SolveStats {
            iterations: 0,
            relative_residual: r_norm / b_norm,
            converged: true,
        });
    }
    m.apply(pool, &r, &mut z, &mut work);
    p.copy_from_slice(&z);
    let mut rz = parvec::dot(pool, &r, &z);

    for it in 1..=cfg.max_iter {
        parvec::matvec(pool, a, &p, &mut q);
        let pq = parvec::dot(pool, &p, &q);
        if pq == 0.0 || !pq.is_finite() {
            return Err(KrylovError::Breakdown { at_iteration: it });
        }
        let alpha = rz / pq;
        parvec::axpy(pool, alpha, &p, x);
        parvec::axpy(pool, -alpha, &q, &mut r);
        r_norm = parvec::norm2(pool, &r);
        if r_norm / b_norm <= cfg.tol {
            return Ok(SolveStats {
                iterations: it,
                relative_residual: r_norm / b_norm,
                converged: true,
            });
        }
        m.apply(pool, &r, &mut z, &mut work);
        let rz_new = parvec::dot(pool, &r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        parvec::xpby(pool, &z, beta, &mut p);
    }
    Ok(SolveStats {
        iterations: cfg.max_iter,
        relative_residual: r_norm / b_norm,
        converged: false,
    })
}

/// Left-preconditioned restarted GMRES(m) — the workhorse for the paper's
/// nonsymmetric convection–diffusion problems. Solves `A x = b` in place.
pub fn gmres<M: Precondition + ?Sized>(
    pool: &WorkerPool,
    a: &Csr,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    cfg: &KrylovConfig,
) -> Result<SolveStats> {
    let n = check_system(a, b, x)?;
    let restart = cfg.restart.max(1).min(n.max(1));
    let mut work = vec![0.0; n];
    let mut tmp = vec![0.0; n];
    let mut r = vec![0.0; n];
    // Krylov basis.
    let mut v: Vec<Vec<f64>> = (0..restart + 1).map(|_| vec![0.0; n]).collect();
    // Hessenberg (column-major: h[j] has j+2 entries).
    let mut h: Vec<Vec<f64>> = (0..restart).map(|j| vec![0.0; j + 2]).collect();
    let mut cs = vec![0.0f64; restart];
    let mut sn = vec![0.0f64; restart];
    let mut g = vec![0.0f64; restart + 1];

    let mut total_iters = 0usize;
    let mut beta0: Option<f64> = None;
    let mut rel = f64::INFINITY;

    'outer: while total_iters < cfg.max_iter {
        // r = M⁻¹ (b − A x)
        parvec::matvec(pool, a, x, &mut tmp);
        for i in 0..n {
            tmp[i] = b[i] - tmp[i];
        }
        m.apply(pool, &tmp, &mut r, &mut work);
        let beta = parvec::norm2(pool, &r);
        let beta0v = *beta0.get_or_insert(beta.max(f64::MIN_POSITIVE));
        rel = beta / beta0v;
        if rel <= cfg.tol {
            return Ok(SolveStats {
                iterations: total_iters,
                relative_residual: rel,
                converged: true,
            });
        }
        if beta == 0.0 {
            return Ok(SolveStats {
                iterations: total_iters,
                relative_residual: 0.0,
                converged: true,
            });
        }
        for i in 0..n {
            v[0][i] = r[i] / beta;
        }
        g.iter_mut().for_each(|gi| *gi = 0.0);
        g[0] = beta;

        let mut j_used = 0usize;
        for j in 0..restart {
            if total_iters >= cfg.max_iter {
                break;
            }
            total_iters += 1;
            j_used = j + 1;
            // w = M⁻¹ A v_j
            parvec::matvec(pool, a, &v[j], &mut tmp);
            m.apply(pool, &tmp, &mut r, &mut work);
            // Modified Gram–Schmidt.
            for i in 0..=j {
                let hij = parvec::dot(pool, &r, &v[i]);
                h[j][i] = hij;
                parvec::axpy(pool, -hij, &v[i], &mut r);
            }
            let hnext = parvec::norm2(pool, &r);
            h[j][j + 1] = hnext;
            if hnext > 0.0 {
                for i in 0..n {
                    v[j + 1][i] = r[i] / hnext;
                }
            }
            // Apply previous Givens rotations to the new column.
            for i in 0..j {
                let t = cs[i] * h[j][i] + sn[i] * h[j][i + 1];
                h[j][i + 1] = -sn[i] * h[j][i] + cs[i] * h[j][i + 1];
                h[j][i] = t;
            }
            // New rotation annihilating h[j][j+1].
            let (c, s) = givens(h[j][j], h[j][j + 1]);
            cs[j] = c;
            sn[j] = s;
            h[j][j] = c * h[j][j] + s * h[j][j + 1];
            h[j][j + 1] = 0.0;
            let t = c * g[j];
            g[j + 1] = -s * g[j];
            g[j] = t;
            rel = g[j + 1].abs() / beta0v;
            if rel <= cfg.tol || hnext == 0.0 {
                update_solution(pool, x, &v, &h, &g, j + 1);
                if rel <= cfg.tol {
                    return Ok(SolveStats {
                        iterations: total_iters,
                        relative_residual: rel,
                        converged: true,
                    });
                }
                continue 'outer; // lucky breakdown: restart with true residual
            }
        }
        update_solution(pool, x, &v, &h, &g, j_used);
    }
    Ok(SolveStats {
        iterations: total_iters,
        relative_residual: rel,
        converged: false,
    })
}

/// Preconditioned BiCGSTAB — the short-recurrence nonsymmetric alternative
/// to GMRES (van der Vorst); bounded memory where GMRES(m) needs `m + 1`
/// basis vectors. Solves `A x = b` in place with right preconditioning.
pub fn bicgstab<M: Precondition + ?Sized>(
    pool: &WorkerPool,
    a: &Csr,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    cfg: &KrylovConfig,
) -> Result<SolveStats> {
    let n = check_system(a, b, x)?;
    let mut work = vec![0.0; n];
    let mut r = vec![0.0; n];
    parvec::matvec(pool, a, x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let b_norm = parvec::norm2(pool, b).max(f64::MIN_POSITIVE);
    let mut r_norm = parvec::norm2(pool, &r);
    if r_norm / b_norm <= cfg.tol {
        return Ok(SolveStats {
            iterations: 0,
            relative_residual: r_norm / b_norm,
            converged: true,
        });
    }
    let r0 = r.clone(); // shadow residual
    let mut p = r.clone();
    let mut phat = vec![0.0; n];
    let mut v = vec![0.0; n];
    let mut s = vec![0.0; n];
    let mut shat = vec![0.0; n];
    let mut t = vec![0.0; n];
    let mut rho = parvec::dot(pool, &r0, &r);

    for it in 1..=cfg.max_iter {
        if rho == 0.0 || !rho.is_finite() {
            return Err(KrylovError::Breakdown { at_iteration: it });
        }
        // p̂ = M⁻¹ p ; v = A p̂
        m.apply(pool, &p, &mut phat, &mut work);
        parvec::matvec(pool, a, &phat, &mut v);
        let r0v = parvec::dot(pool, &r0, &v);
        if r0v == 0.0 || !r0v.is_finite() {
            return Err(KrylovError::Breakdown { at_iteration: it });
        }
        let alpha = rho / r0v;
        // s = r − α v
        parvec::copy(pool, &r, &mut s);
        parvec::axpy(pool, -alpha, &v, &mut s);
        let s_norm = parvec::norm2(pool, &s);
        if s_norm / b_norm <= cfg.tol {
            parvec::axpy(pool, alpha, &phat, x);
            return Ok(SolveStats {
                iterations: it,
                relative_residual: s_norm / b_norm,
                converged: true,
            });
        }
        // ŝ = M⁻¹ s ; t = A ŝ
        m.apply(pool, &s, &mut shat, &mut work);
        parvec::matvec(pool, a, &shat, &mut t);
        let tt = parvec::dot(pool, &t, &t);
        if tt == 0.0 {
            return Err(KrylovError::Breakdown { at_iteration: it });
        }
        let omega = parvec::dot(pool, &t, &s) / tt;
        if omega == 0.0 || !omega.is_finite() {
            return Err(KrylovError::Breakdown { at_iteration: it });
        }
        // x += α p̂ + ω ŝ ;  r = s − ω t
        parvec::axpy(pool, alpha, &phat, x);
        parvec::axpy(pool, omega, &shat, x);
        parvec::copy(pool, &s, &mut r);
        parvec::axpy(pool, -omega, &t, &mut r);
        r_norm = parvec::norm2(pool, &r);
        if r_norm / b_norm <= cfg.tol {
            return Ok(SolveStats {
                iterations: it,
                relative_residual: r_norm / b_norm,
                converged: true,
            });
        }
        let rho_new = parvec::dot(pool, &r0, &r);
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        // p = r + β (p − ω v)
        parvec::axpy(pool, -omega, &v, &mut p);
        parvec::xpby(pool, &r, beta, &mut p);
    }
    Ok(SolveStats {
        iterations: cfg.max_iter,
        relative_residual: r_norm / b_norm,
        converged: false,
    })
}

/// Back-substitutes the small least-squares system and applies the Krylov
/// correction `x += V y`.
fn update_solution(
    pool: &WorkerPool,
    x: &mut [f64],
    v: &[Vec<f64>],
    h: &[Vec<f64>],
    g: &[f64],
    k: usize,
) {
    if k == 0 {
        return;
    }
    let mut y = vec![0.0f64; k];
    for i in (0..k).rev() {
        let mut acc = g[i];
        for j in (i + 1)..k {
            acc -= h[j][i] * y[j];
        }
        y[i] = acc / h[i][i];
    }
    for j in 0..k {
        parvec::axpy(pool, y[j], &v[j], x);
    }
}

fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else {
        let r = a.hypot(b);
        (a / r, b / r)
    }
}

fn check_system(a: &Csr, b: &[f64], x: &[f64]) -> Result<usize> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(KrylovError::DimensionMismatch {
            expected: n,
            found: a.ncols(),
        });
    }
    if b.len() != n {
        return Err(KrylovError::DimensionMismatch {
            expected: n,
            found: b.len(),
        });
    }
    if x.len() != n {
        return Err(KrylovError::DimensionMismatch {
            expected: n,
            found: x.len(),
        });
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::Preconditioner;
    use crate::trisolve::{ExecutorKind, Sorting};
    use rtpl_sparse::gen::{grid2d_5pt, laplacian_5pt, Coeffs2};
    use rtpl_sparse::ilu0;

    fn residual_norm(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
        let n = a.nrows();
        let mut r = vec![0.0; n];
        a.matvec(x, &mut r).unwrap();
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        rtpl_sparse::dense::norm2(&r)
    }

    #[test]
    fn cg_solves_laplacian_unpreconditioned() {
        let a = laplacian_5pt(10, 10);
        let n = a.nrows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let pool = WorkerPool::new(2);
        let cfg = KrylovConfig::default();
        let stats = cg(&pool, &a, &b, &mut x, &Preconditioner::Identity, &cfg).unwrap();
        assert!(stats.converged, "{stats:?}");
        assert!(residual_norm(&a, &b, &x) < 1e-6 * rtpl_sparse::dense::norm2(&b));
    }

    #[test]
    fn ilu_preconditioning_cuts_cg_iterations() {
        let a = laplacian_5pt(16, 16);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
        let pool = WorkerPool::new(2);
        let cfg = KrylovConfig::default();

        let mut x0 = vec![0.0; n];
        let plain = cg(&pool, &a, &b, &mut x0, &Preconditioner::Identity, &cfg).unwrap();

        let f = ilu0(&a).unwrap();
        let m = Preconditioner::ilu(&f, 2, ExecutorKind::SelfExecuting, Sorting::Global).unwrap();
        let mut x1 = vec![0.0; n];
        let pre = cg(&pool, &a, &b, &mut x1, &m, &cfg).unwrap();

        assert!(pre.converged && plain.converged);
        assert!(
            pre.iterations < plain.iterations,
            "ILU({}) vs plain({})",
            pre.iterations,
            plain.iterations
        );
        assert!(residual_norm(&a, &b, &x1) < 1e-6 * rtpl_sparse::dense::norm2(&b));
    }

    #[test]
    fn gmres_solves_convection_diffusion() {
        // Nonsymmetric problem: CG's theory does not apply, GMRES+ILU must
        // converge.
        let a = grid2d_5pt(12, 12, |x, y| Coeffs2 {
            ax: 1.0,
            ay: 1.0,
            cx: 8.0 * (x + y),
            cy: -4.0,
            r: 1.0,
        });
        let n = a.nrows();
        let b = vec![1.0; n];
        let pool = WorkerPool::new(2);
        let cfg = KrylovConfig {
            tol: 1e-9,
            max_iter: 300,
            restart: 25,
        };
        let f = ilu0(&a).unwrap();
        let m = Preconditioner::ilu(&f, 2, ExecutorKind::SelfExecuting, Sorting::Global).unwrap();
        let mut x = vec![0.0; n];
        let stats = gmres(&pool, &a, &b, &mut x, &m, &cfg).unwrap();
        assert!(stats.converged, "{stats:?}");
        assert!(residual_norm(&a, &b, &x) < 1e-6 * rtpl_sparse::dense::norm2(&b));
    }

    #[test]
    fn bicgstab_solves_convection_diffusion() {
        let a = grid2d_5pt(12, 12, |x, y| Coeffs2 {
            ax: 1.0,
            ay: 1.0,
            cx: 6.0 * x,
            cy: -3.0 * y,
            r: 1.0,
        });
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.09).sin()).collect();
        let pool = WorkerPool::new(2);
        let cfg = KrylovConfig {
            tol: 1e-9,
            max_iter: 400,
            restart: 0,
        };
        let f = ilu0(&a).unwrap();
        let m = Preconditioner::ilu(&f, 2, ExecutorKind::SelfExecuting, Sorting::Global).unwrap();
        let mut x = vec![0.0; n];
        let stats = bicgstab(&pool, &a, &b, &mut x, &m, &cfg).unwrap();
        assert!(stats.converged, "{stats:?}");
        assert!(residual_norm(&a, &b, &x) < 1e-6 * rtpl_sparse::dense::norm2(&b));
    }

    #[test]
    fn bicgstab_matches_gmres_answer() {
        let a = laplacian_5pt(9, 9);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let pool = WorkerPool::new(1);
        let cfg = KrylovConfig {
            tol: 1e-11,
            max_iter: 500,
            restart: 40,
        };
        let mut xg = vec![0.0; n];
        gmres(&pool, &a, &b, &mut xg, &Preconditioner::Identity, &cfg).unwrap();
        let mut xb = vec![0.0; n];
        bicgstab(&pool, &a, &b, &mut xb, &Preconditioner::Identity, &cfg).unwrap();
        assert!(rtpl_sparse::dense::max_abs_diff(&xg, &xb) < 1e-7);
    }

    #[test]
    fn gmres_exact_in_n_iterations_small_system() {
        let a = laplacian_5pt(3, 3);
        let b: Vec<f64> = (0..9).map(|i| i as f64 + 1.0).collect();
        let pool = WorkerPool::new(1);
        let cfg = KrylovConfig {
            tol: 1e-12,
            max_iter: 20,
            restart: 9,
        };
        let mut x = vec![0.0; 9];
        let stats = gmres(&pool, &a, &b, &mut x, &Preconditioner::Identity, &cfg).unwrap();
        assert!(stats.converged);
        assert!(stats.iterations <= 9);
        assert!(residual_norm(&a, &b, &x) < 1e-8);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = laplacian_5pt(4, 4);
        let b = vec![0.0; 16];
        let mut x = vec![0.0; 16];
        let pool = WorkerPool::new(1);
        let s = cg(
            &pool,
            &a,
            &b,
            &mut x,
            &Preconditioner::Identity,
            &KrylovConfig::default(),
        )
        .unwrap();
        assert!(s.converged);
        assert_eq!(s.iterations, 0);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = laplacian_5pt(3, 3);
        let b = vec![0.0; 5];
        let mut x = vec![0.0; 9];
        let pool = WorkerPool::new(1);
        assert!(matches!(
            cg(
                &pool,
                &a,
                &b,
                &mut x,
                &Preconditioner::Identity,
                &KrylovConfig::default()
            ),
            Err(KrylovError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn warm_start_uses_initial_guess() {
        let a = laplacian_5pt(6, 6);
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).cos()).collect();
        let mut b = vec![0.0; n];
        a.matvec(&x_true, &mut b).unwrap();
        let pool = WorkerPool::new(1);
        // Start at the exact solution: 0 iterations.
        let mut x = x_true.clone();
        let s = cg(
            &pool,
            &a,
            &b,
            &mut x,
            &Preconditioner::Identity,
            &KrylovConfig::default(),
        )
        .unwrap();
        assert_eq!(s.iterations, 0);
    }
}
