//! The paper's evidence regenerated ([`repro`], printed by the `repro`
//! binary) plus the plumbing it shares with the micro-benches: the
//! lower-solve case of a test problem, a median timer, and a plain-text
//! table.

pub mod repro;

use rtpl::inspector::{DepGraph, Schedule, Wavefronts};
use rtpl::sim::{self, CostModel};
use rtpl::sparse::{ilu0, Csr, IluFactors};
use rtpl::workload::{ProblemId, TestProblem};
use std::fmt;
use std::time::Instant;

/// A prepared triangular-solve experiment: a matrix, its ILU(0) factors,
/// and the dependence structure and flop weights of the forward sweep.
pub struct SolveCase {
    /// Problem name as in the paper.
    pub name: String,
    /// Matrix order.
    pub n: usize,
    /// The matrix itself.
    pub matrix: Csr,
    /// Strictly lower `l` (unit diagonal implicit) and upper `u` factors.
    pub factors: IluFactors,
    /// Dependences of the forward sweep.
    pub graph: DepGraph,
    /// Wavefront decomposition.
    pub wf: Wavefronts,
    /// Flop weight per row of the forward sweep (nnz + 1).
    pub weights: Vec<f64>,
}

impl SolveCase {
    /// Builds the case for one Appendix-I problem.
    pub fn build(id: ProblemId) -> SolveCase {
        let matrix = TestProblem::build(id).matrix;
        let factors = ilu0(&matrix).expect("ILU(0) factorization");
        SolveCase::new(id.name().to_string(), matrix, factors)
    }

    /// Builds the case for a matrix that *is already* unit lower triangular
    /// (synthetic dependency matrices): no factorization needed.
    pub fn from_lower(name: String, lower: &Csr) -> SolveCase {
        let n = lower.nrows();
        let factors = IluFactors {
            l: lower.strict_lower(),
            u: Csr::identity(n),
        };
        SolveCase::new(name, lower.clone(), factors)
    }

    fn new(name: String, matrix: Csr, factors: IluFactors) -> SolveCase {
        let l = &factors.l;
        let graph = DepGraph::from_lower_triangular(l).expect("dep graph");
        let wf = Wavefronts::compute(&graph).expect("wavefronts");
        let n = l.nrows();
        let weights = (0..n).map(|i| 1.0 + l.row_nnz(i) as f64).collect();
        SolveCase {
            name,
            n,
            matrix,
            factors,
            graph,
            wf,
            weights,
        }
    }

    /// Global schedule for `p` simulated processors.
    pub fn global_schedule(&self, p: usize) -> Schedule {
        Schedule::global(&self.wf, p).expect("global schedule")
    }

    /// Sequential forward-solve time under `cost`.
    pub fn seq_time(&self, cost: &CostModel) -> f64 {
        sim::sim_sequential(self.n, Some(&self.weights), cost)
    }
}

/// Median-of-`reps` milliseconds elapsed by `f`.
pub fn time_ms_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Minimal benchmark harness for the `harness = false` bench targets: runs
/// `f` for `warmup + reps` iterations, prints and returns the median
/// iteration time in milliseconds.
pub fn bench_case(name: &str, warmup: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let med = time_ms_median(reps, f);
    println!("{name:<44} {med:>10.4} ms/iter (median of {reps})");
    med
}

/// Simple fixed-width table, rendered by its `Display` impl (cells
/// right-aligned, no trailing blanks).
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..ncols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for c in 0..ncols {
                s.push_str(&format!(" {:>width$} ", cells[c], width = widths[c]));
                if c + 1 < ncols {
                    s.push('|');
                }
            }
            s.trim_end().to_string()
        };
        writeln!(f, "{}", line(&self.headers))?;
        let total: usize = widths.iter().map(|w| w + 2).sum::<usize>() + ncols - 1;
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            writeln!(f, "{}", line(row))?;
        }
        Ok(())
    }
}

/// Formats a float with 3 significant decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_case_builds_for_small_problem() {
        let c = SolveCase::build(ProblemId::Spe4);
        assert_eq!(c.n, 1104);
        assert!(c.wf.num_wavefronts() > 1);
        assert_eq!(c.weights.len(), c.n);
    }

    #[test]
    fn table_prints_without_panicking() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_string(), " a | bb\n--------\n 1 |  2\n");
    }
}
