//! The paper as a tier-1 gate: the reproduction's deterministic output is
//! pinned byte for byte, and every shape check it prints must hold.
//!
//! After an intended change to a table, regenerate the golden file with
//! `cargo run -q -p rtpl-bench --bin repro > tests/corpus/repro.txt` and
//! review its diff.

use rtpl_bench::repro::{self, Report};
use std::sync::OnceLock;

/// One reproduction run shared by every test of this binary.
fn report() -> &'static Report {
    static REPORT: OnceLock<Report> = OnceLock::new();
    REPORT.get_or_init(repro::run)
}

#[test]
fn pinned_output_matches_the_golden_file() {
    let golden = include_str!("corpus/repro.txt");
    let pinned = report().pinned.as_str();
    if let Some((k, (got, want))) = pinned
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "line {} differs from tests/corpus/repro.txt\n   got: {got}\nwanted: {want}",
            k + 1
        );
    }
    assert_eq!(pinned, golden, "output and golden differ in length");
}

#[test]
fn every_shape_check_holds() {
    let r = report();
    assert!(
        r.failed().is_empty(),
        "claims contradicted: {:#?}",
        r.failed()
    );
    let printed_ok = r.pinned.lines().filter(|l| l.starts_with("  [ok] "));
    assert_eq!(
        printed_ok.count(),
        r.checks.len(),
        "one [ok] line per check"
    );
    assert!(!r.pinned.contains("[??]"));
}

#[test]
fn host_timed_columns_stay_out_of_the_pinned_stream() {
    let r = report();
    for column in ["sort ms", "Sort ms", "Sched ms", "stalls"] {
        assert!(!r.pinned.contains(column), "{column:?} is host-timed");
        assert!(r.timed.contains(column), "{column:?} is printed");
    }
}
