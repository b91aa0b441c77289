//! The batched `Job` front door: one `Runtime`, one mixed batch of
//! triangular solves and `DoConsider`-derived loop jobs.
//!
//! ```sh
//! cargo run --release --example batched_service
//! ```
//!
//! Builds a Zipf-mixed batch (hot patterns repeated, a long tail of rare
//! ones), submits it twice through `Runtime::submit_batch`, and prints the
//! `BatchOutcome` accounting: groups formed, cold inspections, wall time,
//! requests/sec — and how the second (fully warm) batch compares.

use rtpl::runtime::{BatchOutcome, Job, Runtime, RuntimeConfig};
use rtpl::sparse::ilu::IluFactors;
use rtpl::sparse::Csr;
use rtpl::workload::{pattern_set, RequestKind, ZipfMix};
use rtpl::DoConsider;

fn factors_from_pattern(m: &Csr) -> IluFactors {
    IluFactors {
        l: m.strict_lower(),
        u: m.transpose().upper(),
    }
}

fn report(label: &str, outcome: &BatchOutcome) {
    println!(
        "{label}: {} jobs ({} ok) in {:.2} ms  ->  {:>8.0} req/s   \
         groups {} (cold {})  workers {}",
        outcome.jobs.len(),
        outcome.ok_count(),
        outcome.wall.as_secs_f64() * 1e3,
        outcome.requests_per_sec(),
        outcome.groups,
        outcome.cold_groups,
        outcome.workers,
    );
    let cached = outcome
        .jobs
        .iter()
        .filter(|j| j.as_ref().is_ok_and(|o| o.cached))
        .count();
    println!("         cached outcomes: {cached}/{}", outcome.jobs.len());
}

fn main() {
    const SOLVE_PATTERNS: usize = 8;
    const LOOP_PATTERNS: usize = 4;
    const REQUESTS: usize = 192;

    // Distinct solve structures (as ILU-shaped factor pairs) and distinct
    // loop structures (as cacheable DoConsider specs).
    let solve_mats = pattern_set(SOLVE_PATTERNS, 20, 42);
    let factors: Vec<IluFactors> = solve_mats.iter().map(factors_from_pattern).collect();
    let lowers: Vec<Csr> = pattern_set(LOOP_PATTERNS, 18, 77)
        .iter()
        .map(|m| m.strict_lower())
        .collect();
    let specs: Vec<_> = lowers
        .iter()
        .map(|l| DoConsider::from_lower_triangular(l).unwrap().into_spec())
        .collect();
    let ns = factors[0].n();
    let nl = lowers[0].nrows();

    // A Zipf-mixed request stream: 70% solves, 30% loops, hot ranks first.
    let mix = ZipfMix::new(SOLVE_PATTERNS.max(LOOP_PATTERNS), 1.1);
    let stream: Vec<(RequestKind, usize)> = mix
        .mixed_stream(REQUESTS, 0.3, 9)
        .into_iter()
        .map(|r| match r.kind {
            RequestKind::Solve => (r.kind, r.rank % SOLVE_PATTERNS),
            RequestKind::Loop => (r.kind, r.rank % LOOP_PATTERNS),
        })
        .collect();
    let solve_bs: Vec<Vec<f64>> = (0..SOLVE_PATTERNS)
        .map(|i| {
            (0..ns)
                .map(|k| 1.0 + ((k + i) as f64 * 0.11).sin())
                .collect()
        })
        .collect();
    let loop_bs: Vec<Vec<f64>> = (0..LOOP_PATTERNS)
        .map(|i| {
            (0..nl)
                .map(|k| 1.0 + ((k + i) as f64 * 0.07).cos())
                .collect()
        })
        .collect();

    let rt = Runtime::new(RuntimeConfig::default());
    println!(
        "runtime: nprocs {}, batch workers auto\n",
        rt.config().nprocs
    );

    for round in ["cold batch", "warm batch"] {
        let mut outs: Vec<Vec<f64>> = stream
            .iter()
            .map(|&(kind, _)| vec![0.0; if kind == RequestKind::Solve { ns } else { nl }])
            .collect();
        let jobs: Vec<Job> = stream
            .iter()
            .zip(outs.iter_mut())
            .map(|(&(kind, rank), out)| match kind {
                RequestKind::Solve => Job::solve(&factors[rank], &solve_bs[rank], out),
                RequestKind::Loop => {
                    Job::linear(&specs[rank], lowers[rank].data(), &loop_bs[rank], out)
                }
            })
            .collect();
        let outcome = rt.submit_batch(jobs);
        report(round, &outcome);
    }

    let stats = rt.stats();
    println!(
        "\nservice counters: solve builds {}, linear-loop builds {}, \
         batches {}, batch jobs {}, dominant policy {:?}",
        stats.solves.builds,
        stats.linears.builds,
        stats.batches,
        stats.batch_jobs,
        stats.dominant_policy(),
    );
}
