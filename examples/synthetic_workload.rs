//! The synthetic workload generator of §4.1 under both executors.
//!
//! Generates the paper's `65-4-3` matrix (65×65 mesh, Poisson mean degree
//! 4, geometric mean link distance 3), inspects it, and sweeps the
//! simulated processor count for pre-scheduled vs self-executing runs —
//! a miniature of the Figure 12/13 experiment on synthetic data.
//!
//! Run with: `cargo run --release --example synthetic_workload`

use rtpl::prelude::*;
use rtpl::sim::{self, CostModel};
use rtpl::workload::SyntheticSpec;

fn main() -> Result<(), rtpl::inspector::InspectorError> {
    let spec = SyntheticSpec {
        mesh: 65,
        mean_degree: 4.0,
        mean_distance: 3.0,
    };
    println!("synthetic workload {}", spec.name());
    let m = spec.generate(0xC0FFEE);
    let l = m.strict_lower();
    let n = l.nrows();
    println!("n = {n}, dependence edges = {}", l.nnz());

    let g = DepGraph::from_lower_triangular(&l)?;
    let wf = Wavefronts::compute(&g)?;
    println!("wavefronts: {}", wf.num_wavefronts());
    let counts = wf.counts();
    let widest = counts.iter().copied().max().unwrap_or(0);
    println!("widest wavefront: {widest} indices");

    // Verify a parallel run agrees with the sequential loop on 3 threads.
    struct DepSum<'a>(&'a DepGraph);
    impl LoopBody for DepSum<'_> {
        fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
            1.0 + self
                .0
                .deps(i)
                .iter()
                .map(|&d| 0.3 * src.get(d as usize))
                .sum::<f64>()
        }
    }
    let nprocs = 3;
    let pool = WorkerPool::new(nprocs);
    let schedule = Schedule::global(&wf, nprocs)?;
    let weights: Vec<f64> = (0..n).map(|i| 1.0 + g.deps(i).len() as f64).collect();
    let plan = PlannedLoop::new(g.clone(), schedule)?;
    let mut out_par = vec![0.0; n];
    plan.run(
        Some(&pool),
        ExecutorKind::SelfExecuting,
        &DepSum(&g),
        &mut out_par,
    );
    let mut out_seq = vec![0.0; n];
    plan.run(None, ExecutorKind::Sequential, &DepSum(&g), &mut out_seq);
    assert_eq!(out_par, out_seq);
    println!("3-thread self-executing run matches sequential.\n");

    // Simulated efficiency sweep (the paper's machine sizes).
    let cost = CostModel::multimax();
    let seq = sim::sim_sequential(n, Some(&weights), &cost);
    println!("p   E(self-exec)  E(pre-sched)  E(doacross)");
    for p in [2, 4, 8, 16, 32] {
        let s = Schedule::global(&wf, p)?;
        let se = sim::sim_self_executing(&s, &g, Some(&weights), &cost);
        let ps = sim::sim_pre_scheduled(&s, Some(&weights), &cost);
        let da = sim::sim_doacross(&g, p, Some(&weights), &cost);
        println!(
            "{p:<4}{:>10.3}{:>14.3}{:>13.3}",
            se.efficiency(seq),
            ps.efficiency(seq),
            da.efficiency(seq)
        );
    }
    Ok(())
}
