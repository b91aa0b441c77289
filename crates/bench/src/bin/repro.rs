//! Regenerates the paper's Tables 1–5, Figures 1 and 12–13, the §4 model
//! analysis and the ablations ([`rtpl_bench::repro`]).
//!
//! The deterministic text goes to stdout, the host-timed columns to
//! stderr, so
//!
//! ```text
//! cargo run -q -p rtpl-bench --bin repro > tests/corpus/repro.txt
//! ```
//!
//! regenerates the golden file the tier-1 suite pins. Exits 1 if any shape
//! check fails.

fn main() {
    let report = rtpl_bench::repro::run();
    print!("{}", report.pinned);
    eprintln!("{}", report.timed);
    let failed = report.failed();
    eprintln!(
        "{} shape checks, {} failed",
        report.checks.len(),
        failed.len()
    );
    for claim in &failed {
        eprintln!("  [??] {claim}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
