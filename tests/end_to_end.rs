//! End-to-end pipeline tests: DoConsider over real matrices, all executor
//! and scheduling combinations, cross-checked against sequential execution.

use rtpl::prelude::*;
use rtpl::sparse::gen::laplacian_5pt;
use rtpl::sparse::triangular::{row_substitution_lower, solve_lower, Diag};
use rtpl::workload::{ProblemId, SyntheticSpec, TestProblem};

/// The Figure 8 row-substitution body.
struct Solve<'a> {
    l: &'a Csr,
    b: &'a [f64],
}

impl LoopBody for Solve<'_> {
    fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
        row_substitution_lower(self.l, self.b, i, |j| src.get(j))
    }
}

#[test]
fn doconsider_triangular_solve_all_strategies() {
    let a = laplacian_5pt(10, 8);
    let l = a.strict_lower();
    let n = l.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect();
    let mut expect = vec![0.0; n];
    solve_lower(&l, &b, Diag::Unit, &mut expect).unwrap();
    let body = Solve { l: &l, b: &b };

    for p in [1usize, 2, 3] {
        let pool = WorkerPool::new(p);
        for strat in Sorting::ALL {
            let plan = DoConsider::from_lower_triangular(&l)
                .unwrap()
                .schedule(strat, p)
                .unwrap();
            for policy in ExecutorKind::ALL {
                let mut out = vec![0.0; n];
                plan.run(Some(&pool), policy, &body, &mut out);
                assert_eq!(out, expect, "{policy:?} {strat:?} p={p}");
            }
        }
    }
}

#[test]
fn synthetic_workload_end_to_end() {
    let spec = SyntheticSpec {
        mesh: 25,
        mean_degree: 4.0,
        mean_distance: 2.0,
    };
    let m = spec.generate(42);
    let l = m.strict_lower();
    let n = l.nrows();
    let dc = DoConsider::from_lower_triangular(&l).unwrap();
    assert!(dc.num_wavefronts() >= 2);
    dc.wavefronts().validate(dc.graph()).unwrap();

    let plan = dc.schedule(Sorting::Global, 3).unwrap();
    plan.schedule().validate(plan.graph()).unwrap();

    let pool = WorkerPool::new(3);
    let b = vec![1.0; n];
    let mut out = vec![0.0; n];
    let report = plan.run(
        Some(&pool),
        ExecutorKind::SelfExecuting,
        &Solve { l: &l, b: &b },
        &mut out,
    );
    assert_eq!(report.total_iters() as usize, n);
    let mut expect = vec![0.0; n];
    solve_lower(&l, &b, Diag::Unit, &mut expect).unwrap();
    assert_eq!(out, expect);
}

#[test]
fn nested_loop_figure6_semantics() {
    // y(i) = y(i) + temp * y(g(i,j)): multi-operand dependences.
    struct Figure6<'a> {
        g: &'a [Vec<usize>],
        yold: &'a [f64],
        temp: f64,
    }
    impl LoopBody for Figure6<'_> {
        fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
            let mut acc = self.yold[i];
            for &t in &self.g[i] {
                let operand = if t < i { src.get(t) } else { self.yold[t] };
                acc += self.temp * operand;
            }
            acc
        }
    }

    let g: Vec<Vec<usize>> = vec![
        vec![],
        vec![0],
        vec![0, 1],
        vec![1, 1, 5], // g may reference later indices (old values)
        vec![2, 3],
        vec![0],
    ];
    let yold: Vec<f64> = (1..=6).map(|v| v as f64).collect();
    let temp = 0.1;

    // Sequential reference per Figure 6 semantics (reads current y for
    // earlier indices, old y for later ones).
    let mut expect = yold.clone();
    for i in 0..6 {
        let mut acc = expect[i];
        for &t in &g[i] {
            let operand = if t < i { expect[t] } else { yold[t] };
            acc += temp * operand;
        }
        expect[i] = acc;
    }

    let dc = DoConsider::from_nested_index_array(&g).unwrap();
    let plan = dc.schedule(Sorting::Global, 2).unwrap();
    let pool = WorkerPool::new(2);
    let mut out = vec![0.0; 6];
    plan.run(
        Some(&pool),
        ExecutorKind::SelfExecuting,
        &Figure6 {
            g: &g,
            yold: &yold,
            temp,
        },
        &mut out,
    );
    assert_eq!(out, expect);
}

#[test]
fn paper_problem_phase_structure() {
    // Spot-check the wavefront structure of real test problems: the 3-D
    // 7-pt problems have nx+ny+nz-2 wavefronts for their ILU(0) factors.
    let spe1 = TestProblem::build(ProblemId::Spe1);
    let f = rtpl::sparse::ilu0(&spe1.matrix).unwrap();
    let dc = DoConsider::from_lower_triangular(&f.l).unwrap();
    assert_eq!(dc.num_wavefronts(), 10 + 10 + 10 - 2, "SPE1 10x10x10 grid");

    let spe4 = TestProblem::build(ProblemId::Spe4);
    let f = rtpl::sparse::ilu0(&spe4.matrix).unwrap();
    let dc = DoConsider::from_lower_triangular(&f.l).unwrap();
    assert_eq!(dc.num_wavefronts(), 16 + 23 + 3 - 2, "SPE4 16x23x3 grid");
}

#[test]
fn block_problems_have_denser_wavefronts() {
    // SPE5 blocks (3×3) couple unknowns within a point, lengthening chains
    // relative to the point operator: phases must be >= the point problem's.
    let spe4 = TestProblem::build(ProblemId::Spe4); // 16x23x3 point operator
    let spe5 = TestProblem::build(ProblemId::Spe5); // same grid, 3x3 blocks
    let f4 = rtpl::sparse::ilu0(&spe4.matrix).unwrap();
    let f5 = rtpl::sparse::ilu0(&spe5.matrix).unwrap();
    let w4 = DoConsider::from_lower_triangular(&f4.l)
        .unwrap()
        .num_wavefronts();
    let w5 = DoConsider::from_lower_triangular(&f5.l)
        .unwrap()
        .num_wavefronts();
    assert!(w5 >= w4, "block problem phases {w5} vs point {w4}");
}
