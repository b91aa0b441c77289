//! The solver service in action: one `Runtime`, many requests, plans
//! remembered across them and the executor discipline chosen by the cost
//! model instead of by hand.
//!
//! ```sh
//! cargo run --release --example plan_cache
//! ```

use rtpl::krylov::cg;
use rtpl::krylov::KrylovConfig;
use rtpl::prelude::*;
use rtpl::runtime::{Job, NoBody, Runtime, RuntimeConfig};
use rtpl::sparse::gen::laplacian_5pt;
use rtpl::sparse::ilu0;
use std::time::Instant;

fn main() {
    // One runtime for the whole process: it calibrates the §5.1.2 cost
    // model on this host once, then serves every client thread.
    let rt = Runtime::new(RuntimeConfig::default());
    let c = rt.cost_model();
    println!(
        "runtime up: {} procs/plan, calibrated Tp {:.2} ns, Tsynch {:.1} ns\n",
        rt.config().nprocs,
        c.tp,
        c.tsynch
    );

    // --- Request 1: a pattern the service has never seen -----------------
    let a = laplacian_5pt(40, 40);
    let f = ilu0(&a).unwrap();
    let n = f.n();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.05).sin()).collect();
    let mut x = vec![0.0; n];

    let t = Instant::now();
    let cold = rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
    println!(
        "cold solve: {:>8} us  (inspected both sweeps, built the plan, predicted \n\
         every policy's cost, ran {:?})",
        t.elapsed().as_micros(),
        cold.policy
    );

    // --- Requests 2..N: same structure, any values, any thread ----------
    let t = Instant::now();
    const WARM: usize = 50;
    let mut last = cold;
    for _ in 0..WARM {
        last = rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
        assert!(last.cached);
    }
    println!(
        "warm solves: {:>7} us for {WARM} requests ({} us each, policy {:?})",
        t.elapsed().as_micros(),
        t.elapsed().as_micros() / WARM as u128,
        last.policy
    );

    // Refactorized values on the same pattern still hit the cache.
    let mut a2 = a.clone();
    for v in a2.data_mut().iter_mut() {
        *v *= 1.5;
    }
    let f2 = ilu0(&a2).unwrap();
    let again = rt.submit(Job::<NoBody>::solve(&f2, &b, &mut x)).unwrap();
    println!(
        "new values, same pattern: cached = {} (no re-inspection)\n",
        again.cached
    );

    // --- A whole Krylov solve through the cache --------------------------
    // The preconditioner adapter routes every ILU application through the
    // runtime: the first application builds, the rest of the solve hits.
    let pool = WorkerPool::new(rt.config().nprocs);
    let m = rt.preconditioner(&f);
    let mut sol = vec![0.0; n];
    let stats = cg(&pool, &a, &b, &mut sol, &m, &KrylovConfig::default()).unwrap();
    println!(
        "cg with cached ILU: converged = {} in {} iterations",
        stats.converged, stats.iterations
    );

    let s = rt.stats();
    println!(
        "\nservice stats: {} requests, hit rate {:.3}, {} plan builds, \n\
         {} evictions, dominant policy {:?}, {} worker pools",
        s.solves.hits + s.solves.misses,
        s.solves.hit_rate(),
        s.solves.builds,
        s.solves.evictions,
        s.dominant_policy(),
        s.pools_created
    );
    assert_eq!(s.solves.builds, 1, "one structure, one inspection — ever");
}
