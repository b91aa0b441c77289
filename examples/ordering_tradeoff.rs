//! Ordering vs run-time parallelism — the tradeoff behind the paper's
//! related work on reordering triangular solves.
//!
//! The unknown ordering decides the dependence DAG of the incomplete
//! factor, hence the wavefront structure the inspector finds:
//!
//! * **natural** ordering: anti-diagonal wavefronts (`nx + ny − 1` phases);
//! * **reverse Cuthill–McKee**: minimizes bandwidth (good for cache /
//!   fill), keeps chains long;
//! * **red–black**: two colors, two-ish wavefronts — maximal parallelism,
//!   but a weaker ILU(0) preconditioner (more Krylov iterations).
//!
//! Run with: `cargo run --release --example ordering_tradeoff`

use rtpl::executor::WorkerPool;
use rtpl::inspector::{DepGraph, Schedule, Wavefronts};
use rtpl::krylov::{gmres, ExecutorKind, KrylovConfig, Preconditioner, Sorting};
use rtpl::sim::{self, CostModel};
use rtpl::sparse::gen::laplacian_5pt;
use rtpl::sparse::ordering::{bandwidth, red_black, reverse_cuthill_mckee, Permutation};
use rtpl::sparse::{ilu0, Csr};

fn analyze(label: &str, a: &Csr) {
    let n = a.nrows();
    let f = ilu0(a).expect("ilu0");
    let g = DepGraph::from_lower_triangular(&f.l).unwrap();
    let wf = Wavefronts::compute(&g).unwrap();
    let p = 16;
    let s = Schedule::global(&wf, p).unwrap();
    let weights: Vec<f64> = (0..n).map(|i| 1.0 + f.l.row_nnz(i) as f64).collect();
    let zero = CostModel::zero_overhead();
    let seq = sim::sim_sequential(n, Some(&weights), &zero);
    let e_se = sim::sim_self_executing(&s, &g, Some(&weights), &zero).efficiency(seq);
    let e_ps = sim::sim_pre_scheduled(&s, Some(&weights), &zero).efficiency(seq);

    // Preconditioner quality: GMRES iterations on a fixed right-hand side.
    let pool = WorkerPool::new(2);
    let m = Preconditioner::ilu(&f, 2, ExecutorKind::SelfExecuting, Sorting::Global).unwrap();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.03).sin()).collect();
    let mut x = vec![0.0; n];
    let stats = gmres(
        &pool,
        a,
        &b,
        &mut x,
        &m,
        &KrylovConfig {
            tol: 1e-9,
            max_iter: 500,
            restart: 30,
        },
    )
    .unwrap();

    println!(
        "{label:<12} bandwidth {:>4}  phases {:>3}  E(self-exec) {:.3}  E(pre-sched) {:.3}  GMRES iters {:>3}{}",
        bandwidth(a),
        wf.num_wavefronts(),
        e_se,
        e_ps,
        stats.iterations,
        if stats.converged { "" } else { "  (!)" }
    );
}

fn main() {
    let (nx, ny) = (32usize, 32usize);
    let a = laplacian_5pt(nx, ny);
    println!("ordering tradeoff on a {nx}x{ny} 5-pt Laplacian (16 simulated processors)\n");

    analyze("natural", &a);

    let rcm: Permutation = reverse_cuthill_mckee(&a).unwrap();
    analyze("RCM", &rcm.apply_symmetric(&a).unwrap());

    let rb = red_black(nx, ny);
    analyze("red-black", &rb.apply_symmetric(&a).unwrap());

    println!(
        "\nReading: red-black collapses the factor's dependence chains (few phases,\n\
         near-perfect pre-scheduled balance) but weakens ILU(0), costing Krylov\n\
         iterations; natural/RCM orderings precondition better but leave long\n\
         wavefront chains — exactly the gap the paper's self-executing schedules\n\
         exploit at run time."
    );
}
