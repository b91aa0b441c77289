//! A transformed loop body allocates nothing per iteration.
//!
//! Its own test binary, because it installs a global allocator: every
//! allocation is counted on the thread that makes it, so the count a test
//! reads covers exactly the work done on its own thread — here a
//! `Sequential` run, which evaluates every iteration on the caller's
//! thread.

use rtpl::executor::ValueSource;
use rtpl::sparse::gen::laplacian_5pt;
use rtpl::transform::{compile, Env, LoopProgram, Op};
use rtpl::{ExecutorKind, LoopBody, Sorting};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded with the caller's layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A body that allocates nothing: what a run costs without one.
struct Index;

impl LoopBody for Index {
    fn eval<S: ValueSource>(&self, i: usize, _src: &S) -> f64 {
        i as f64
    }
}

/// Figure 8, `y(i) = rhs(i) − Σ a(i,j)·y(ija(i,j))`, through the
/// transformer: the run allocates exactly what the same run of an
/// allocation-free body does (the report), however many iterations it has.
#[test]
fn figure8_runs_without_allocating_per_iteration() {
    let l = laplacian_5pt(12, 10).strict_lower();
    let n = l.nrows();
    let mut env = Env {
        xold: vec![0.0; n],
        ..Default::default()
    };
    env.data.insert(
        "rhs",
        (0..n).map(|i| 1.0 + (i as f64 * 0.2).sin()).collect(),
    );
    env.index_lists.insert(
        "ija",
        (0..n)
            .map(|i| l.row_indices(i).iter().map(|&c| c as usize).collect())
            .collect(),
    );
    env.coeff_lists
        .insert("a", (0..n).map(|i| l.row_values(i).to_vec()).collect());
    let program = LoopProgram {
        n,
        ops: vec![
            Op::PushData("rhs"),
            Op::PushListSum {
                targets: "ija",
                coeffs: Some("a"),
            },
            Op::Sub,
        ],
    };
    let compiled = compile(program, env).unwrap();
    let plan = compiled.inspector().schedule(Sorting::Global, 1).unwrap();
    let mut scratch = plan.scratch();
    let mut out = vec![0.0; n];
    let baseline = allocations_during(|| {
        plan.run_in(
            &mut scratch,
            None,
            ExecutorKind::Sequential,
            &Index,
            &mut out,
        );
    });
    let transformed = allocations_during(|| {
        plan.run_in(
            &mut scratch,
            None,
            ExecutorKind::Sequential,
            &compiled,
            &mut out,
        );
    });
    assert!(baseline <= 1, "the report is the run's one allocation");
    assert_eq!(
        transformed, baseline,
        "{n} iterations of the transformed body allocated"
    );
}
