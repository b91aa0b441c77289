//! Acceptance tests for the compiled execution layout (PR 3 tentpole):
//! bit-exactness of `CompiledTriSolve` — the only triangular solver —
//! against a naive substitution loop kept here as test support, over
//! random DAGs × every `ExecutorKind` × 1/2/4 processors. (The
//! cross-generation check, `CompiledPlan` against `PlannedLoop` +
//! `LoopBody`, lives beside both in `rtpl-executor`:
//! `compiled::tests::compiled_matches_planned_loop_all_policies`.)

use rtpl::executor::WorkerPool;
use rtpl::krylov::{CompiledTriSolve, ExecutorKind, Sorting, TriangularSolvePlan};
use rtpl::sparse::gen::random_lower;
use rtpl::sparse::ilu::IluFactors;
use rtpl::sparse::Csr;

/// Solvable factors from a synthetic unit-lower-triangular dependency
/// matrix: `L` is its strict lower triangle, `U` its transpose's upper
/// triangle — structurally distinct sweeps, no factorization needed.
fn factors_from_pattern(m: &Csr) -> IluFactors {
    IluFactors {
        l: m.strict_lower(),
        u: m.transpose().upper(),
    }
}

/// The bit-exact oracle: `L U x = b` by the naive substitution loop —
/// natural row order, CSR operand order, the diagonal's reciprocal as a
/// multiply (what the compiled layout bakes in). Shares no code with the
/// inspector or the executor.
fn naive_solve(f: &IluFactors, b: &[f64]) -> Vec<f64> {
    let n = f.n();
    let mut y = vec![0.0; n];
    for i in 0..n {
        y[i] = f.l.row(i).fold(b[i], |acc, (j, v)| acc - v * y[j]);
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let (mut acc, mut d) = (y[i], 0.0);
        for (j, v) in f.u.row(i) {
            if j == i {
                d = v;
            } else {
                acc -= v * x[j];
            }
        }
        x[i] = acc * (1.0 / d);
    }
    x
}

fn compiled_for(factors: &IluFactors, nprocs: usize, sorting: Sorting) -> CompiledTriSolve {
    TriangularSolvePlan::new(factors, nprocs, ExecutorKind::SelfExecuting, sorting)
        .unwrap()
        .compile()
        .unwrap()
}

const ALL_KINDS: [ExecutorKind; 5] = [
    ExecutorKind::Sequential,
    ExecutorKind::Doacross,
    ExecutorKind::PreScheduled,
    ExecutorKind::PreScheduledElided,
    ExecutorKind::SelfExecuting,
];

/// The headline sweep: random DAGs × all four parallel policy arms (plus
/// the sequential kind) × 1/2/4 procs × all three sorting disciplines,
/// every compiled solve against the naive loop — **bit-exactly**.
#[test]
fn compiled_matches_fallback_and_reference_over_random_dags() {
    for (seed, n, deg) in [(101u64, 160usize, 4usize), (202, 240, 6), (303, 96, 3)] {
        let factors = factors_from_pattern(&random_lower(n, deg, seed));
        let n = factors.n();
        let b: Vec<f64> = (0..n)
            .map(|i| 1.0 + ((i * 29 + seed as usize) % 97) as f64 * 0.021)
            .collect();
        let reference = naive_solve(&factors, &b);
        for sorting in [
            Sorting::Global,
            Sorting::LocalStriped,
            Sorting::LocalContiguous,
        ] {
            for nprocs in [1usize, 2, 4] {
                let compiled = compiled_for(&factors, nprocs, sorting);
                let pool = WorkerPool::new(nprocs);
                let mut c_scratch = compiled.scratch();
                for kind in ALL_KINDS {
                    let mut x_c = vec![0.0; n];
                    compiled
                        .solve(Some(&pool), kind, &factors, &b, &mut x_c, &mut c_scratch)
                        .unwrap();
                    assert_eq!(
                        x_c, reference,
                        "seed {seed} {sorting:?}/{nprocs}/{kind:?}: compiled deviates"
                    );
                }
            }
        }
    }
}

/// Wavefront coalescing sweep: the same random DAGs × every policy arm ×
/// 1/2/4 procs × all three sortings, with coalescing forced **on**
/// (a merge-everything-affordable grain) solved against the **uncoalesced**
/// plan's answer. Merged phases bake dependence order into the schedule
/// instead of synchronization — the numbers must not move by a bit, under
/// any discipline, while the phase counts must actually drop.
#[test]
fn coalesced_plans_match_uncoalesced_bit_exactly_over_the_sweep() {
    for (seed, n, deg) in [(404u64, 160usize, 4usize), (505, 96, 3)] {
        let factors = factors_from_pattern(&random_lower(n, deg, seed));
        let n = factors.n();
        let b: Vec<f64> = (0..n)
            .map(|i| 0.8 + ((i * 23 + seed as usize) % 83) as f64 * 0.017)
            .collect();
        for sorting in [
            Sorting::Global,
            Sorting::LocalStriped,
            Sorting::LocalContiguous,
        ] {
            for nprocs in [1usize, 2, 4] {
                let plain = compiled_for(&factors, nprocs, sorting);
                let coalesced = TriangularSolvePlan::new_with_grain(
                    &factors,
                    nprocs,
                    ExecutorKind::SelfExecuting,
                    sorting,
                    Some(64.0),
                )
                .unwrap()
                .compile()
                .unwrap();
                let (sl, su) = coalesced.plan().coalesce_stats();
                let (sl, su) = (sl.unwrap(), su.unwrap());
                assert!(
                    sl.phases_after < sl.phases_before && su.phases_after < su.phases_before,
                    "seed {seed} {sorting:?}/{nprocs}: grain 64 merged nothing ({sl:?}, {su:?})"
                );
                let pool = WorkerPool::new(nprocs);
                let mut p_scratch = plain.scratch();
                let mut c_scratch = coalesced.scratch();
                for kind in ALL_KINDS {
                    let mut x_plain = vec![0.0; n];
                    plain
                        .solve(
                            Some(&pool),
                            kind,
                            &factors,
                            &b,
                            &mut x_plain,
                            &mut p_scratch,
                        )
                        .unwrap();
                    let mut x_coal = vec![0.0; n];
                    coalesced
                        .solve(Some(&pool), kind, &factors, &b, &mut x_coal, &mut c_scratch)
                        .unwrap();
                    assert_eq!(
                        x_coal, x_plain,
                        "seed {seed} {sorting:?}/{nprocs}/{kind:?}: coalescing moved a bit"
                    );
                }
            }
        }
    }
}

/// The compiled plan is a function of structure only: refreshed numeric
/// values on an unchanged pattern flow through the per-call gather.
#[test]
fn compiled_value_refresh_is_bit_exact_with_fallback() {
    let base = random_lower(180, 5, 7);
    let factors = factors_from_pattern(&base);
    let n = factors.n();
    let compiled = compiled_for(&factors, 2, Sorting::Global);
    let pool = WorkerPool::new(2);
    let mut c_scratch = compiled.scratch();
    // Same structure, new values.
    let mut l2 = factors.l.clone();
    for (k, v) in l2.data_mut().iter_mut().enumerate() {
        *v += 0.01 * (k % 11) as f64;
    }
    let mut u2 = factors.u.clone();
    for (k, v) in u2.data_mut().iter_mut().enumerate() {
        *v *= 1.0 + 0.005 * (k % 7) as f64;
    }
    let f2 = IluFactors { l: l2, u: u2 };
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
    let expect = naive_solve(&f2, &b);
    for kind in ALL_KINDS {
        let mut x = vec![0.0; n];
        compiled
            .solve(Some(&pool), kind, &f2, &b, &mut x, &mut c_scratch)
            .unwrap();
        assert_eq!(x, expect, "{kind:?}: refreshed values deviate");
    }
}

/// The single-rhs fused sequential path (load folded into the sweep) is
/// bit-exact with the split load-then-run path and the sequential
/// reference, over random DAGs × plan processor counts. This gates the
/// runtime's lone-request fast path.
#[test]
fn fused_sequential_matches_split_and_reference_over_random_dags() {
    for (seed, n, deg) in [(11u64, 150usize, 4usize), (22, 220, 6), (33, 80, 3)] {
        let factors = factors_from_pattern(&random_lower(n, deg, seed));
        let n = factors.n();
        let b: Vec<f64> = (0..n)
            .map(|i| 0.5 + ((i * 31 + seed as usize) % 89) as f64 * 0.013)
            .collect();
        let reference = naive_solve(&factors, &b);
        for nprocs in [1usize, 2, 4] {
            let compiled = compiled_for(&factors, nprocs, Sorting::Global);
            // Split path: explicit load, then run.
            let mut x_split = vec![0.0; n];
            let mut s_split = compiled.scratch();
            compiled
                .solve(
                    None,
                    ExecutorKind::Sequential,
                    &factors,
                    &b,
                    &mut x_split,
                    &mut s_split,
                )
                .unwrap();
            // Fused path, on a fresh never-loaded scratch.
            let mut x_fused = vec![0.0; n];
            let mut s_fused = compiled.scratch();
            compiled
                .solve_fused_sequential(&factors, &b, &mut x_fused, &mut s_fused)
                .unwrap();
            assert_eq!(x_fused, x_split, "seed {seed}/{nprocs}: fused != split");
            assert_eq!(
                x_fused, reference,
                "seed {seed}/{nprocs}: fused != reference"
            );
            // And again on the now-dirty scratch (no stale-state leakage).
            let mut x_again = vec![0.0; n];
            compiled
                .solve_fused_sequential(&factors, &b, &mut x_again, &mut s_fused)
                .unwrap();
            assert_eq!(
                x_again, reference,
                "seed {seed}/{nprocs}: fused rerun deviates"
            );
        }
    }
}

/// Many threads share one compiled plan (`Arc`), each with its own
/// scratch — results stay bit-exact under genuine concurrency.
#[test]
fn shared_compiled_plan_with_independent_scratches_is_bit_exact() {
    use std::sync::Arc;
    let factors = factors_from_pattern(&random_lower(200, 5, 99));
    let n = factors.n();
    let compiled = Arc::new(compiled_for(&factors, 2, Sorting::Global));
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 17) as f64 * 0.05).collect();
    let mut reference = vec![0.0; n];
    compiled
        .solve(
            None,
            ExecutorKind::Sequential,
            &factors,
            &b,
            &mut reference,
            &mut compiled.scratch(),
        )
        .unwrap();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let compiled = Arc::clone(&compiled);
            let factors = &factors;
            let b = &b;
            let reference = &reference;
            scope.spawn(move || {
                let pool = WorkerPool::new(2);
                let mut scratch = compiled.scratch();
                let kind = ALL_KINDS[t % ALL_KINDS.len()];
                let pool_opt = Some(&pool);
                for _ in 0..8 {
                    let mut x = vec![0.0; compiled.n()];
                    compiled
                        .solve(pool_opt, kind, factors, b, &mut x, &mut scratch)
                        .unwrap();
                    assert_eq!(&x, reference, "thread {t} ({kind:?}) deviates");
                }
            });
        }
    });
}
