//! Integration tests for the full PCGPAK-substitute pipeline: ILU
//! factorization + parallel triangular solves inside CG/GMRES on the
//! paper's problems.

use rtpl::executor::WorkerPool;
use rtpl::krylov::{
    cg, gmres, ExecutorKind, KrylovConfig, Preconditioner, Sorting, TriangularSolvePlan,
};
use rtpl::sparse::gen::{grid2d_5pt, laplacian_5pt, Coeffs2};
use rtpl::sparse::{iluk, Csr};
use rtpl::workload::{ProblemId, TestProblem};

fn residual(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
    let mut r = vec![0.0; a.nrows()];
    a.matvec(x, &mut r).unwrap();
    for i in 0..r.len() {
        r[i] = b[i] - r[i];
    }
    rtpl::sparse::dense::norm2(&r) / rtpl::sparse::dense::norm2(b).max(1e-300)
}

#[test]
fn gmres_ilu_converges_on_spe4_with_parallel_solves() {
    let p = TestProblem::build(ProblemId::Spe4);
    let a = &p.matrix;
    let n = a.nrows();
    let nprocs = 2;
    let pool = WorkerPool::new(nprocs);
    let f = iluk(a, 0).unwrap();
    let m = Preconditioner::ilu(&f, nprocs, ExecutorKind::SelfExecuting, Sorting::Global).unwrap();
    let b: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) - 5.0).collect();
    let mut x = vec![0.0; n];
    let cfg = KrylovConfig {
        tol: 1e-8,
        max_iter: 400,
        restart: 25,
    };
    let stats = gmres(&pool, a, &b, &mut x, &m, &cfg).unwrap();
    assert!(stats.converged, "{stats:?}");
    assert!(residual(a, &b, &x) < 1e-7);
}

#[test]
fn executor_choice_does_not_change_convergence() {
    // The numerical trajectory must be identical for every executor: same
    // preconditioner, same arithmetic, different synchronization only.
    let a = grid2d_5pt(14, 14, |x, y| Coeffs2 {
        ax: 1.0 + x,
        ay: 1.0 + y,
        cx: 3.0,
        cy: -2.0,
        r: 0.5,
    });
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).cos()).collect();
    let cfg = KrylovConfig {
        tol: 1e-9,
        max_iter: 200,
        restart: 20,
    };
    let f = iluk(&a, 0).unwrap();
    let mut iters = Vec::new();
    for kind in [
        ExecutorKind::Sequential,
        ExecutorKind::PreScheduled,
        ExecutorKind::SelfExecuting,
        ExecutorKind::Doacross,
    ] {
        let nprocs = 2;
        let pool = WorkerPool::new(nprocs);
        let m = Preconditioner::ilu(&f, nprocs, kind, Sorting::LocalStriped).unwrap();
        let mut x = vec![0.0; n];
        let stats = gmres(&pool, &a, &b, &mut x, &m, &cfg).unwrap();
        assert!(stats.converged, "{kind:?}: {stats:?}");
        iters.push(stats.iterations);
    }
    assert!(
        iters.windows(2).all(|w| w[0] == w[1]),
        "iteration counts must agree: {iters:?}"
    );
}

#[test]
fn higher_fill_level_reduces_iterations() {
    // The DESIGN.md ablation: ILU(k) with larger k is a better
    // preconditioner (fewer iterations) at higher factor cost.
    let a = laplacian_5pt(24, 24);
    let n = a.nrows();
    let b = vec![1.0; n];
    let pool = WorkerPool::new(2);
    let cfg = KrylovConfig::default();
    let mut iter_counts = Vec::new();
    for level in [0usize, 1, 2] {
        let f = iluk(&a, level).unwrap();
        let m = Preconditioner::ilu(&f, 2, ExecutorKind::SelfExecuting, Sorting::Global).unwrap();
        let mut x = vec![0.0; n];
        let stats = cg(&pool, &a, &b, &mut x, &m, &cfg).unwrap();
        assert!(stats.converged);
        iter_counts.push(stats.iterations);
    }
    assert!(
        iter_counts[2] <= iter_counts[1] && iter_counts[1] <= iter_counts[0],
        "iterations should not increase with fill level: {iter_counts:?}"
    );
}

#[test]
fn jacobi_preconditioner_also_works() {
    let a = laplacian_5pt(12, 12);
    let n = a.nrows();
    let b = vec![1.0; n];
    let pool = WorkerPool::new(2);
    let m = Preconditioner::jacobi(&a).unwrap();
    let mut x = vec![0.0; n];
    let stats = cg(&pool, &a, &b, &mut x, &m, &KrylovConfig::default()).unwrap();
    assert!(stats.converged);
    assert!(residual(&a, &b, &x) < 1e-7);
}

#[test]
fn amortization_many_solves_one_inspection() {
    // The paper's key economics: the sort is paid once, then reused. Run 10
    // right-hand sides through one plan and verify all.
    let a = laplacian_5pt(16, 16);
    let f = iluk(&a, 0).unwrap();
    let nprocs = 2;
    let pool = WorkerPool::new(nprocs);
    let kind = ExecutorKind::SelfExecuting;
    let solve = TriangularSolvePlan::new(&f, nprocs, kind, Sorting::Global)
        .unwrap()
        .compile()
        .unwrap();
    let n = a.nrows();
    let mut scratch = solve.scratch();
    for s in 0..10 {
        let b: Vec<f64> = (0..n).map(|i| ((i + s) as f64 * 0.07).sin()).collect();
        let mut x = vec![0.0; n];
        solve
            .solve(Some(&pool), kind, &f, &b, &mut x, &mut scratch)
            .unwrap();
        // L U x == b exactly (triangular solves are direct).
        let lu = f.to_dense_product();
        let r = lu.matvec(&x);
        assert!(rtpl::sparse::dense::max_abs_diff(&r, &b) < 1e-9, "rhs {s}");
    }
}
