//! Service-level acceptance tests for `rtpl-runtime`: many clients, a
//! Zipf-distributed mix of patterns, one shared `Runtime`.

use rtpl::krylov::{ExecutorKind, TriangularSolvePlan};
use rtpl::runtime::{Job, NoBody, PolicySelector, Runtime, RuntimeConfig};
use rtpl::sparse::ilu::IluFactors;
use rtpl::sparse::Csr;
use rtpl::workload::{pattern_set, ZipfMix};
use std::sync::atomic::{AtomicU64, Ordering};

/// Builds solvable factors from a synthetic unit-lower-triangular
/// dependency matrix: `L` is its strict lower triangle, `U` its transpose's
/// upper triangle (unit diagonal) — two structurally distinct sweeps per
/// pattern, no factorization required.
fn factors_from_pattern(m: &Csr) -> IluFactors {
    IluFactors {
        l: m.strict_lower(),
        u: m.transpose().upper(),
    }
}

fn rhs(n: usize, salt: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0 + ((i * 31 + salt * 7) % 101) as f64 * 0.013)
        .collect()
}

/// The headline acceptance test: ≥ 8 threads solving a Zipf mix of ≥ 32
/// distinct patterns through one `Runtime` produce bit-exact results vs.
/// the sequential reference, with hit-rate > 0.9 and exactly one plan
/// construction per distinct fingerprint.
#[test]
fn concurrent_zipf_mix_is_bit_exact_cached_and_built_once() {
    const PATTERNS: usize = 32;
    const THREADS: usize = 8;
    const REQUESTS_PER_THREAD: usize = 64;

    let patterns = pattern_set(PATTERNS, 12, 2026);
    let factors: Vec<IluFactors> = patterns.iter().map(factors_from_pattern).collect();
    let n = factors[0].n();

    // Sequential reference, bit-exact target: the same per-row arithmetic
    // the parallel executors perform, run on the sequential executor.
    let reference: Vec<Vec<f64>> = {
        let rt_seq = Runtime::new(RuntimeConfig {
            nprocs: 1,
            calibrate: false,
            policy: Some(ExecutorKind::Sequential),
            ..RuntimeConfig::default()
        });
        factors
            .iter()
            .enumerate()
            .map(|(id, f)| {
                let b = rhs(n, id);
                let mut x = vec![0.0; n];
                rt_seq.submit(Job::<NoBody>::solve(f, &b, &mut x)).unwrap();
                x
            })
            .collect()
    };

    let rt = Runtime::new(RuntimeConfig {
        nprocs: 2,
        shards: 8,
        capacity: 2 * PATTERNS, // no evictions in this test
        calibrate: false,
        ..RuntimeConfig::default()
    });

    let mix = ZipfMix::new(PATTERNS, 1.1);
    let solved = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let rt = &rt;
            let factors = &factors;
            let reference = &reference;
            let mix = &mix;
            let solved = &solved;
            scope.spawn(move || {
                // Every thread touches all ranks once (shuffled), then
                // draws from the Zipf tail — the steady-state mix.
                let stream = mix.stream_covering(REQUESTS_PER_THREAD, t as u64);
                let mut x = vec![0.0; n];
                for id in stream {
                    let b = rhs(n, id);
                    rt.submit(Job::<NoBody>::solve(&factors[id], &b, &mut x))
                        .unwrap();
                    assert_eq!(
                        x, reference[id],
                        "thread {t}: pattern {id} deviates from the sequential reference"
                    );
                    solved.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let total = (THREADS * REQUESTS_PER_THREAD) as u64;
    assert_eq!(solved.load(Ordering::Relaxed), total);
    let stats = rt.stats();
    assert_eq!(
        stats.solves.builds, PATTERNS as u64,
        "exactly one plan construction per distinct fingerprint"
    );
    assert_eq!(stats.solves.evictions, 0);
    assert_eq!(stats.solves.hits + stats.solves.misses, total);
    assert!(
        stats.solves.hit_rate() > 0.9,
        "hit rate {:.3} must exceed 0.9",
        stats.solves.hit_rate()
    );
    assert_eq!(stats.policy_runs.iter().sum::<u64>(), total);
    // The service never needs more pools than concurrently active clients.
    assert!(stats.pools_created <= THREADS as u64);
}

/// Same-pattern requests no longer serialize (PR 3): a cached entry holds
/// one immutable compiled plan and leases per-run scratches, so two
/// threads solving the same fingerprint overlap. The assertion is
/// **lease-counter based, not timing based**: `JobOutcome::concurrent`
/// (and `RuntimeStats::peak_same_pattern`) report how many requests were
/// in flight on the entry when a solve started — under the old per-entry
/// mutex that could never exceed 1. Results stay bit-exact throughout.
#[test]
fn same_pattern_requests_overlap_and_stay_bit_exact() {
    const THREADS: usize = 4;
    const PER_ROUND: usize = 24;
    const MAX_ROUNDS: usize = 50;

    // One big pattern so each solve is long enough for the scheduler to
    // interleave threads even on a single hardware core.
    let patterns = pattern_set(1, 90, 4);
    let f = factors_from_pattern(&patterns[0]);
    let n = f.n();
    let rt = Runtime::new(RuntimeConfig {
        nprocs: 1,
        calibrate: false,
        policy: Some(ExecutorKind::Sequential),
        ..RuntimeConfig::default()
    });
    let b = rhs(n, 5);
    let mut reference = vec![0.0; n];
    rt.submit(Job::<NoBody>::solve(&f, &b, &mut reference))
        .unwrap();

    let mut peak = 0u64;
    for _ in 0..MAX_ROUNDS {
        let round_peak = AtomicU64::new(0);
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let rt = &rt;
                let f = &f;
                let b = &b;
                let reference = &reference;
                let start = &start;
                let round_peak = &round_peak;
                scope.spawn(move || {
                    let mut x = vec![0.0; n];
                    start.wait();
                    for _ in 0..PER_ROUND {
                        let out = rt.submit(Job::<NoBody>::solve(f, b, &mut x)).unwrap();
                        assert_eq!(&x, reference, "concurrent solve deviates");
                        round_peak.fetch_max(out.concurrent, Ordering::Relaxed);
                    }
                });
            }
        });
        peak = peak.max(round_peak.load(Ordering::Relaxed));
        if peak >= 2 {
            break;
        }
    }
    assert!(
        peak >= 2,
        "no overlap observed on the hot pattern: with leasable scratches \
         two of {THREADS} threads x {PER_ROUND} solves x {MAX_ROUNDS} rounds \
         must overlap at least once (peak = {peak})"
    );
    let stats = rt.stats();
    assert!(stats.peak_same_pattern >= 2);
    assert!(
        stats.scratches_created >= 2,
        "overlap must have forced a second scratch (created = {})",
        stats.scratches_created
    );
    assert_eq!(stats.solves.builds, 1, "still exactly one plan build");
}

/// An LRU-evicted entry whose `RunScratch` is still leased must stay
/// valid until the lease drops — deterministic, cache-level version:
/// hold a slot and a lease, force the eviction, keep using both.
#[test]
fn evicted_entry_with_inflight_lease_stays_valid_until_drop() {
    use rtpl::runtime::pools::LeasePool;
    use rtpl::runtime::PlanCache;
    use rtpl::sparse::PatternFingerprint;
    let fp = |i: usize| PatternFingerprint::of_structure(1, i + 1, &[0, 0], &[]);
    let cache: PlanCache<LeasePool<Vec<f64>>> = PlanCache::new(1, 1);
    let slot = cache.get_or_build(fp(0), || Ok(LeasePool::new())).unwrap();
    let (mut scratch, info) = slot.get().lease(|| vec![1.0; 4]);
    assert!(info.created);
    // Capacity 1: admitting a second pattern evicts the first *while its
    // scratch is leased*.
    cache.get_or_build(fp(1), || Ok(LeasePool::new())).unwrap();
    assert_eq!(cache.stats().evictions, 1);
    assert!(!cache.contains(fp(0)), "entry 0 is evicted");
    // Eviction un-caches, never invalidates: the entry lives through the
    // held Arc, the scratch through its lease. Both stay fully usable.
    scratch[0] = 42.0;
    assert_eq!(scratch.len(), 4);
    drop(scratch);
    assert_eq!(slot.get().created(), 1, "scratch returned to its pool");
    // The evicted pattern rebuilds on the next request — correct, just a
    // cold start.
    let rebuilt = cache.get_or_build(fp(0), || Ok(LeasePool::new())).unwrap();
    assert_eq!(cache.stats().builds, 3);
    assert!(!std::sync::Arc::ptr_eq(&slot, &rebuilt));
}

/// The same property end-to-end under concurrency: one thread hammers a
/// hot pattern while another floods a capacity-1 cache with distinct
/// patterns, evicting the hot entry out from under in-flight solves.
/// Every result must stay bit-exact; nothing may panic or corrupt.
#[test]
fn eviction_under_concurrent_solves_keeps_serving_bit_exact() {
    let hot = factors_from_pattern(&pattern_set(1, 40, 77)[0]);
    let churn: Vec<IluFactors> = pattern_set(4, 12, 33)
        .iter()
        .map(factors_from_pattern)
        .collect();
    // Bit-exact references from a sequential-policy runtime.
    let rt_seq = Runtime::new(RuntimeConfig {
        nprocs: 1,
        calibrate: false,
        policy: Some(ExecutorKind::Sequential),
        ..RuntimeConfig::default()
    });
    let hot_b = rhs(hot.n(), 1);
    let mut hot_ref = vec![0.0; hot.n()];
    rt_seq
        .submit(Job::<NoBody>::solve(&hot, &hot_b, &mut hot_ref))
        .unwrap();
    let churn_refs: Vec<Vec<f64>> = churn
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let b = rhs(f.n(), i);
            let mut x = vec![0.0; f.n()];
            rt_seq.submit(Job::<NoBody>::solve(f, &b, &mut x)).unwrap();
            x
        })
        .collect();

    let rt = Runtime::new(RuntimeConfig {
        shards: 1,
        capacity: 1,
        nprocs: 2,
        calibrate: false,
        policy: Some(ExecutorKind::Sequential),
        ..RuntimeConfig::default()
    });
    std::thread::scope(|scope| {
        let rt = &rt;
        let (hot, hot_b, hot_ref) = (&hot, &hot_b, &hot_ref);
        scope.spawn(move || {
            let mut x = vec![0.0; hot.n()];
            for _ in 0..30 {
                rt.submit(Job::<NoBody>::solve(hot, hot_b, &mut x)).unwrap();
                assert_eq!(&x, hot_ref, "hot solve deviates after eviction");
            }
        });
        let (churn, churn_refs) = (&churn, &churn_refs);
        scope.spawn(move || {
            let mut x = vec![0.0; churn[0].n()];
            for round in 0..20 {
                for (i, f) in churn.iter().enumerate() {
                    let b = rhs(f.n(), i);
                    rt.submit(Job::<NoBody>::solve(f, &b, &mut x)).unwrap();
                    assert_eq!(&x, &churn_refs[i], "churn solve deviates (round {round})");
                }
            }
        });
    });
    let stats = rt.stats();
    assert!(
        stats.solves.evictions >= 4,
        "capacity 1 under 5 patterns must evict constantly (evictions = {})",
        stats.solves.evictions
    );
}

/// The adaptive selector's mechanism, end to end: every run lands on an
/// arm the cost model priced as feasible (finite prior), every run is
/// counted exactly once, and every reply is bit-exact with the sequential
/// reference whichever arm served it. *Convergence* onto one arm depends
/// on measured wall times, which a shared host reorders at will — that is
/// pinned by the injected-cost `drive` tests in `selector.rs`, not here.
#[test]
fn adaptive_selector_runs_only_feasible_arms_and_counts_every_run() {
    let patterns = pattern_set(1, 16, 7);
    let f = factors_from_pattern(&patterns[0]);
    let n = f.n();
    let cfg = RuntimeConfig {
        nprocs: 2,
        calibrate: false,
        ..RuntimeConfig::default()
    };
    let b = rhs(n, 0);
    let mut reference = vec![0.0; n];
    Runtime::new(RuntimeConfig {
        policy: Some(ExecutorKind::Sequential),
        ..cfg.clone()
    })
    .submit(Job::<NoBody>::solve(&f, &b, &mut reference))
    .unwrap();

    let rt = Runtime::new(cfg.clone());
    // The prior exactly as the runtime computes it for this pattern. Must
    // mirror `Runtime::inspect_solve_entry` (plan recipe and pricing); if
    // that changes, change this with it.
    let plan = TriangularSolvePlan::new_with_grain(
        &f,
        cfg.nprocs,
        ExecutorKind::SelfExecuting,
        cfg.sorting,
        rt.coalesce_grain(),
    )
    .unwrap();
    let selector = PolicySelector::new(*rt.cost_model());
    let (pl, pu) = (
        selector.predict(plan.plan_l()),
        selector.predict(plan.plan_u()),
    );

    const RUNS: u64 = 40;
    for run in 0..RUNS {
        let mut x = vec![0.0; n];
        let out = rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
        let arm = out.policy as usize;
        assert!(
            (pl[arm] + pu[arm]).is_finite(),
            "run {run} used {:?}, an arm the model priced infeasible",
            out.policy
        );
        assert_eq!(x, reference, "run {run} under {:?}", out.policy);
    }
    let stats = rt.stats();
    assert_eq!(stats.policy_runs.iter().sum::<u64>(), RUNS);
}

/// Cold → warm amortization on a single pattern: a cached request performs
/// no inspection, so the steady-state requests must be far cheaper than
/// the first. (The bench binary measures this precisely; here we only
/// guard the mechanism with a loose factor.)
#[test]
fn warm_requests_skip_inspection() {
    let patterns = pattern_set(1, 24, 11);
    let f = factors_from_pattern(&patterns[0]);
    let n = f.n();
    let rt = Runtime::new(RuntimeConfig {
        nprocs: 2,
        calibrate: false,
        policy: Some(ExecutorKind::SelfExecuting),
        ..RuntimeConfig::default()
    });
    let b = rhs(n, 3);
    let mut x = vec![0.0; n];

    let t0 = std::time::Instant::now();
    let cold = rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
    let cold_ns = t0.elapsed().as_nanos();
    assert!(!cold.cached);

    let mut warm_best = u128::MAX;
    for _ in 0..20 {
        let t1 = std::time::Instant::now();
        let warm = rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
        warm_best = warm_best.min(t1.elapsed().as_nanos());
        assert!(warm.cached);
    }
    assert!(
        warm_best * 2 < cold_ns,
        "warm {warm_best} ns not clearly cheaper than cold {cold_ns} ns"
    );
}
