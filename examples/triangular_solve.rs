//! Parallel sparse triangular solve — the paper's central workload.
//!
//! Builds the 5-PT test problem (Appendix I, problem 6), factors it with
//! ILU(0), and runs the forward/backward solves with all four executors,
//! printing host wall-clock timings and 16-processor simulated times from
//! the calibrated cost model.
//!
//! Run with: `cargo run --release --example triangular_solve`

use rtpl::krylov::{ExecutorKind, Sorting, TriangularSolvePlan};
use rtpl::prelude::*;
use rtpl::sim::{self, CostModel};
use rtpl::sparse::ilu0;
use rtpl::workload::{ProblemId, TestProblem};
use std::time::Instant;

fn main() {
    let problem = TestProblem::build(ProblemId::FivePt);
    let a = &problem.matrix;
    let n = a.nrows();
    println!("problem {} : n = {n}, nnz = {}", problem.name, a.nnz());

    let f = ilu0(a).expect("ILU(0)");
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.01).sin()).collect();

    // Reference sequential solve: inspect and compile the structure once,
    // gather the factor values once, then sweep per right-hand side.
    let solve_seq = TriangularSolvePlan::new(&f, 1, ExecutorKind::Sequential, Sorting::Global)
        .unwrap()
        .compile()
        .unwrap();
    let mut scratch = solve_seq.scratch();
    solve_seq.load_values(&f, &mut scratch).unwrap();
    let mut x_ref = vec![0.0; n];
    let t0 = Instant::now();
    let reps = 20;
    for _ in 0..reps {
        solve_seq
            .solve_loaded(None, ExecutorKind::Sequential, &b, &mut x_ref, &mut scratch)
            .unwrap();
    }
    let t_seq = t0.elapsed().as_secs_f64() / reps as f64;
    println!("sequential LU solve: {:.3} ms", t_seq * 1e3);
    let (ph_l, ph_u) = solve_seq.plan().num_phases();
    println!("phases: forward {ph_l}, backward {ph_u}");

    // Host executors (thread count limited by this machine).
    let nprocs = std::thread::available_parallelism().map_or(2, |c| c.get().min(4));
    let pool = WorkerPool::new(nprocs);
    println!("\n-- host execution with {nprocs} worker threads --");
    for kind in [
        ExecutorKind::Doacross,
        ExecutorKind::PreScheduled,
        ExecutorKind::SelfExecuting,
    ] {
        let solve = TriangularSolvePlan::new(&f, nprocs, kind, Sorting::Global)
            .unwrap()
            .compile()
            .unwrap();
        let mut scratch = solve.scratch();
        solve.load_values(&f, &mut scratch).unwrap();
        let mut x = vec![0.0; n];
        let t0 = Instant::now();
        for _ in 0..reps {
            solve
                .solve_loaded(Some(&pool), kind, &b, &mut x, &mut scratch)
                .unwrap();
        }
        let dt = t0.elapsed().as_secs_f64() / reps as f64;
        let err = x
            .iter()
            .zip(&x_ref)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        println!("{kind:?}: {:.3} ms (max deviation {err:.2e})", dt * 1e3);
        assert!(err < 1e-12);
    }

    // 16-processor Multimax-style simulation (the paper's machine).
    println!("\n-- simulated 16-processor execution (calibrated cost model) --");
    let p16 = 16;
    let plan16 =
        TriangularSolvePlan::new(&f, p16, ExecutorKind::SelfExecuting, Sorting::Global).unwrap();
    let weights = plan16.weights_l();
    let g = DepGraph::from_lower_triangular(&f.l).unwrap();
    let cost = CostModel::multimax();
    let seq = sim::sim_sequential(n, Some(&weights), &cost);
    let se = sim::sim_self_executing(plan16.plan_l().schedule(), &g, Some(&weights), &cost);
    let ps = sim::sim_pre_scheduled(plan16.plan_l().schedule(), Some(&weights), &cost);
    let da = sim::sim_doacross(&g, p16, Some(&weights), &cost);
    println!("forward solve, sequential time   : {seq:>10.0} units");
    println!(
        "self-executing : {:>10.0} units (efficiency {:.2})",
        se.time,
        se.efficiency(seq)
    );
    println!(
        "pre-scheduled  : {:>10.0} units (efficiency {:.2})",
        ps.time,
        ps.efficiency(seq)
    );
    println!(
        "doacross       : {:>10.0} units (efficiency {:.2})",
        da.time,
        da.efficiency(seq)
    );
}
