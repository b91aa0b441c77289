//! Warm restart, end to end: two runtime "lifetimes" (the second one
//! standing in for a restarted process) share one plan-store file in the
//! temp directory.
//!
//! ```sh
//! cargo run --release --example warm_restart
//! ```
//!
//! The first lifetime pays the inspector — dependence analysis, wavefront
//! sort, schedule compilation — and the store's write-behind flusher
//! spills the finished artifact. The second lifetime never inspects:
//! its first solve decodes the persisted plan (and the selector's learned
//! policy measurements ride along), and `warm_from_store` shows the
//! eager variant that preloads the memory cache before any request
//! arrives. The answers are compared against the first lifetime's.

use rtpl::runtime::{Job, NoBody, Runtime, RuntimeConfig};
use rtpl::sparse::gen::laplacian_5pt;
use rtpl::sparse::ilu0;
use std::time::Instant;

fn main() {
    let path = std::env::temp_dir().join(format!("rtpl-warm-restart-{}.rtpl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = RuntimeConfig {
        nprocs: 2,
        calibrate: false,
        store_path: Some(path.clone()),
        ..RuntimeConfig::default()
    };

    let f = ilu0(&laplacian_5pt(65, 65)).expect("ilu0");
    let n = f.n();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 17) as f64 * 0.061).collect();

    // Lifetime 1: cold. The first solve inspects, compiles, and spills.
    let rt = Runtime::new(cfg.clone());
    let mut x1 = vec![0.0; n];
    let t = Instant::now();
    rt.submit(Job::<NoBody>::solve(&f, &b, &mut x1))
        .expect("cold solve");
    let cold_ns = t.elapsed().as_nanos();
    for _ in 0..8 {
        let mut x = vec![0.0; n];
        rt.submit(Job::<NoBody>::solve(&f, &b, &mut x))
            .expect("warm solve"); // lets the selector learn
    }
    rt.persist_learned(); // re-spill with the measured policy costs
    let s1 = rt.stats();
    println!(
        "lifetime 1 (cold):   first solve {cold_ns:>9} ns  | store writes {}",
        s1.store_writes
    );
    drop(rt); // the store flushes and closes with the runtime

    // Lifetime 2: "restarted process". Same store file, empty memory cache.
    let rt = Runtime::new(cfg.clone());
    let mut x2 = vec![0.0; n];
    let t = Instant::now();
    rt.submit(Job::<NoBody>::solve(&f, &b, &mut x2))
        .expect("store-hit solve");
    let store_ns = t.elapsed().as_nanos();
    let s2 = rt.stats();
    assert_eq!(s2.store_hits, 1, "restart did not hit the store");
    let diff = x1
        .iter()
        .zip(&x2)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(diff < 1e-12, "answers deviate across the restart: {diff:e}");
    println!(
        "lifetime 2 (store):  first solve {store_ns:>9} ns  | store hits {} | max |dx| {diff:e}",
        s2.store_hits
    );
    println!(
        "cold / store-hit first-solve ratio: {:.1}x",
        cold_ns as f64 / store_ns as f64
    );
    drop(rt);

    // Or eagerly: warm the memory cache before any request arrives.
    let rt = Runtime::new(cfg);
    let t = Instant::now();
    let warmed = rt.warm_from_store(16);
    println!(
        "lifetime 3 (warmed): {warmed} plan(s) preloaded in {} ns; first solve is a memory hit",
        t.elapsed().as_nanos()
    );
    let mut x3 = vec![0.0; n];
    rt.submit(Job::<NoBody>::solve(&f, &b, &mut x3))
        .expect("memory-warm solve");
    assert_eq!(
        rt.stats().solves.hits,
        1,
        "warmed plan was not a memory hit"
    );

    let _ = std::fs::remove_file(&path);
}
