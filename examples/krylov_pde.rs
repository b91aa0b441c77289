//! Full preconditioned Krylov solve — the PCGPAK workflow of Appendix II.
//!
//! Solves the 5-PT convection–diffusion problem with restarted GMRES
//! preconditioned by ILU(0): matvec/SAXPY/dots run over contiguous blocks
//! and both triangular sweeps through the inspector/executor.
//!
//! Run with: `cargo run --release --example krylov_pde`

use rtpl::krylov::{gmres, ExecutorKind, KrylovConfig, Preconditioner, Sorting};
use rtpl::prelude::*;
use rtpl::sparse::iluk;
use rtpl::workload::{ProblemId, TestProblem};
use std::time::Instant;

fn main() {
    let problem = TestProblem::build(ProblemId::FivePt);
    let a = &problem.matrix;
    let n = a.nrows();
    println!("problem {}: n = {n}, nnz = {}", problem.name, a.nnz());

    let nprocs = std::thread::available_parallelism().map_or(2, |c| c.get().min(4));
    let pool = WorkerPool::new(nprocs);

    // Sequential numeric factorization.
    let t0 = Instant::now();
    let f = iluk(a, 0).expect("ILU(0)");
    println!(
        "ILU(0) numeric factorization: {:.1} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // Inspect + compile + gather once, reused every iteration.
    let t0 = Instant::now();
    let m = Preconditioner::ilu(&f, nprocs, ExecutorKind::SelfExecuting, Sorting::Global).unwrap();
    println!(
        "inspector (wavefronts + schedules + compile): {:.1} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // Manufactured solution: x* known, b = A x*.
    let x_true: Vec<f64> = (0..n).map(|i| ((i % 17) as f64 - 8.0) * 0.1).collect();
    let mut b = vec![0.0; n];
    a.matvec(&x_true, &mut b).unwrap();

    let cfg = KrylovConfig {
        tol: 1e-10,
        max_iter: 400,
        restart: 30,
    };
    let mut x = vec![0.0; n];
    let t0 = Instant::now();
    let stats = gmres(&pool, a, &b, &mut x, &m, &cfg).expect("gmres");
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "GMRES(30)+ILU(0): {} iterations, relative residual {:.2e}, {:.1} ms",
        stats.iterations,
        stats.relative_residual,
        dt * 1e3
    );
    assert!(stats.converged, "solver must converge: {stats:?}");

    let err = x
        .iter()
        .zip(&x_true)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max)
        / x_true.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
    println!("relative max error vs manufactured solution: {err:.2e}");
    assert!(err < 1e-6);
    println!("OK.");
}
