//! The §2.2 automated transformation, end to end.
//!
//! A parallelizing compiler sees the annotated source
//!
//! ```text
//! doconsider i = 1, n
//!     x(i) = x(i) + b(i) * x(ia(i))
//! enddo
//! ```
//!
//! and emits (1) a run-time dependence analysis + scheduler and (2) a
//! transformed executor loop. `rtpl::transform` plays the compiler's front
//! end: the body is described as a tiny stack program over named arrays,
//! and `compile` validates it, extracts the dependences symbolically and
//! inspects them. The result is an ordinary loop body, so it runs through
//! the same doors as a hand-written one: a directly scheduled plan, or the
//! runtime service, which caches the plan and picks the executor.
//!
//! Run with: `cargo run --release --example automated_transform`

use rtpl::executor::WorkerPool;
use rtpl::runtime::{Job, Runtime, RuntimeConfig};
use rtpl::transform::{compile, Env, LoopProgram, Op};
use rtpl::{ExecutorKind, Sorting};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 64usize;
    // Run-time data: a dependence pattern unknown to any static analysis.
    let ia: Vec<usize> = (0..n)
        .map(|i| {
            if i % 5 == 0 {
                (i + 11) % n
            } else {
                (i * 7) % i.max(1)
            }
        })
        .collect();
    let b: Vec<f64> = (0..n).map(|i| 0.3 + 0.01 * i as f64).collect();
    let xold: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) - 4.0).collect();

    // --- what the compiler emits from the annotated loop ------------------
    let program = LoopProgram {
        n,
        // x(i) = xold(i) + b(i) * x(ia(i))
        ops: vec![
            Op::PushData("x0"),
            Op::PushData("b"),
            Op::PushX("ia"),
            Op::Mul,
            Op::Add,
        ],
    };
    let mut env = Env {
        xold: xold.clone(),
        ..Default::default()
    };
    env.data.insert("b", b);
    env.data.insert("x0", xold);
    env.index_arrays.insert("ia", ia);

    // --- compile-time steps 1-3: validate, extract dependences, inspect ---
    let compiled = compile(program, env)?;
    let inspector = compiled.inspector();
    println!(
        "compiled: {} indices, {} dependence edges, {} wavefronts",
        n,
        inspector.graph().num_edges(),
        inspector.num_wavefronts()
    );

    // --- run-time steps 4-5, door 1: schedule once, run under any kind -----
    let pool = WorkerPool::new(4);
    let mut x_seq = vec![0.0; n];
    inspector.schedule(Sorting::Global, 1)?.run(
        None,
        ExecutorKind::Sequential,
        &compiled,
        &mut x_seq,
    );
    for (sorting, kind) in [
        (Sorting::Global, ExecutorKind::SelfExecuting),
        (Sorting::LocalStriped, ExecutorKind::SelfExecuting),
        (Sorting::Global, ExecutorKind::PreScheduled),
    ] {
        let mut x = vec![0.0; n];
        inspector
            .schedule(sorting, pool.nworkers())?
            .run(Some(&pool), kind, &compiled, &mut x);
        assert_eq!(x, x_seq, "{sorting:?}/{kind:?}");
        println!("{sorting:?} + {kind:?}: matches sequential");
    }

    // --- door 2: the runtime plans the structure once and serves it --------
    let rt = Runtime::new(RuntimeConfig::default());
    let spec = inspector.clone().into_spec();
    for _ in 0..2 {
        let mut x = vec![0.0; n];
        let outcome = rt.submit(Job::looped(&spec, &compiled, &mut x))?;
        assert_eq!(x, x_seq);
        println!(
            "runtime: cached = {}, executor = {:?}: matches sequential",
            outcome.cached, outcome.policy
        );
    }
    println!("loop plans built: {}", rt.stats().loops.builds);
    println!("x[0..6] = {:?}", &x_seq[..6]);
    Ok(())
}
