//! Quickstart: parallelize the paper's Figure 2 loop.
//!
//! ```text
//! do i = 1, n
//!     x(i) = x(i) + b(i) * x(ia(i))
//! end do
//! ```
//!
//! The dependences run through the run-time index array `ia`, so no
//! compiler can schedule this statically. The `doconsider` pipeline
//! inspects `ia`, sorts indices into wavefronts, and builds a
//! [`PlannedLoop`] — planned once, then executable under **any**
//! [`ExecutorKind`] (the natural-order loop or one of the four
//! synchronization disciplines) through the single generic entry point
//! `plan.run(Some(&pool), kind, &body, &mut x)`.
//!
//! Run with: `cargo run --release --example quickstart`

use rtpl::prelude::*;

/// The Figure 2 loop body. Implementing [`LoopBody`] (rather than passing a
/// closure) lets the *same* body run under every [`ExecutorKind`] with full
/// static dispatch — the executor monomorphizes `eval` against its own
/// value source.
struct Figure2<'a> {
    ia: &'a [usize],
    b: &'a [f64],
    xold: &'a [f64],
}

impl LoopBody for Figure2<'_> {
    fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
        let t = self.ia[i];
        // A later/equal index reads the *old* value (no ordering needed —
        // Figure 4's `needed_index >= isched` branch); an earlier index is
        // a flow dependence read through the synchronized source.
        let operand = if t >= i { self.xold[t] } else { src.get(t) };
        self.xold[i] + self.b[i] * operand
    }
}

fn main() -> Result<(), rtpl::inspector::InspectorError> {
    let n = 24usize;
    // A run-time dependence pattern.
    let ia: Vec<usize> = (0..n)
        .map(|i| if i % 3 == 0 { (i + 5) % n } else { i / 2 })
        .collect();
    let b = vec![0.5f64; n];
    let xold: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
    let body = Figure2 {
        ia: &ia,
        b: &b,
        xold: &xold,
    };

    // --- Inspector (runs once) -------------------------------------------
    let inspector = DoConsider::from_index_array(&ia)?;
    println!(
        "loop of {n} indices, {} wavefronts",
        inspector.num_wavefronts()
    );
    println!("wavefront histogram: {:?}", inspector.wavefronts().counts());

    // --- Plan (global sort, 4 processors; owns schedule + buffers) --------
    let nprocs = 4;
    let plan = inspector.schedule(Sorting::Global, nprocs)?;

    // --- Execute: one plan, every executor kind ---------------------------
    let pool = WorkerPool::new(nprocs);
    let mut expect = xold.clone();
    for i in 0..n {
        let operand = if ia[i] >= i {
            xold[ia[i]]
        } else {
            expect[ia[i]]
        };
        expect[i] = xold[i] + b[i] * operand;
    }
    for kind in ExecutorKind::ALL {
        let mut x = vec![0.0f64; n];
        let report = plan.run(Some(&pool), kind, &body, &mut x);
        assert_eq!(x, expect, "{kind:?} must match the untransformed loop");
        println!(
            "{kind:?}: {} barriers, {} stalls, load {:?}",
            report.barriers, report.stalls, report.iters_per_proc
        );
    }
    println!("x[0..8] = {:?}", &expect[..8]);
    println!("OK: every executor kind matches the untransformed loop.");
    Ok(())
}
