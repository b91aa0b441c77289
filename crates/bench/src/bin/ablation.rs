//! **Ablations** — the design-choice studies DESIGN.md calls out.
//!
//! 1. *Barrier elision* (the Nicol & Saltz \[13\] synchronization/load-balance
//!    tradeoff the paper cites): kept-barrier counts and simulated
//!    pre-scheduled times with full vs minimal barrier sets, under wrapped
//!    (global) and contiguous (local) schedules.
//! 2. *Partition strategy*: striped vs contiguous local schedules under
//!    self-execution.
//! 3. *ILU fill level*: phases and GMRES iteration counts for k = 0, 1, 2 —
//!    deeper fill improves convergence but lengthens dependence chains.

use rtpl::executor::{ValueSource, WorkerPool};
use rtpl::inspector::{BarrierPlan, DepGraph, Partition, Schedule, Wavefronts};
use rtpl::krylov::{gmres, ExecutorKind, KrylovConfig, Preconditioner, Sorting};
use rtpl::sim::{self, CostModel};
use rtpl::workload::{ProblemId, TestProblem};
use rtpl_bench::{f3, SolveCase, Table};

fn main() {
    let p = 16usize;
    let cost = CostModel::multimax();

    println!("Ablation 1: barrier elision (pre-scheduled, {p} simulated processors)\n");
    let mut t = Table::new(&[
        "Problem",
        "Schedule",
        "Phases",
        "Barriers kept",
        "Full Time",
        "Elided Time",
        "Speedup",
    ]);
    for id in [ProblemId::Spe2, ProblemId::FivePt, ProblemId::SevenPt] {
        let c = SolveCase::build(id);
        for (label, s) in [
            ("global", c.global_schedule(p)),
            (
                "contiguous",
                Schedule::local(&c.wf, &Partition::contiguous(c.n, p).unwrap()).unwrap(),
            ),
        ] {
            let plan = BarrierPlan::minimal(&s, &c.graph).unwrap();
            plan.validate(&s, &c.graph).unwrap();
            let full = sim::sim_pre_scheduled(&s, Some(&c.weights), &cost);
            let elided = sim::sim_pre_scheduled_elided(&s, &plan, Some(&c.weights), &cost);
            t.row(vec![
                c.name.clone(),
                label.to_string(),
                s.num_phases().to_string(),
                format!("{}/{}", plan.count(), s.num_phases() - 1),
                format!("{:.0}", full.time),
                format!("{:.0}", elided.time),
                f3(full.time / elided.time),
            ]);
        }
    }
    // A chain-structured workload (block-tridiagonal solve) is where
    // elision shines: contiguous blocks make almost every dependence
    // processor-local.
    {
        let chain = rtpl::sparse::gen::tridiagonal(2048, 2.0, -1.0);
        let c = SolveCase::from_lower("chain-2048".to_string(), &chain.lower());
        let s = Schedule::local(&c.wf, &Partition::contiguous(c.n, p).unwrap()).unwrap();
        let plan = BarrierPlan::minimal(&s, &c.graph).unwrap();
        plan.validate(&s, &c.graph).unwrap();
        let full = sim::sim_pre_scheduled(&s, Some(&c.weights), &cost);
        let elided = sim::sim_pre_scheduled_elided(&s, &plan, Some(&c.weights), &cost);
        t.row(vec![
            c.name.clone(),
            "contiguous".to_string(),
            s.num_phases().to_string(),
            format!("{}/{}", plan.count(), s.num_phases() - 1),
            format!("{:.0}", full.time),
            format!("{:.0}", elided.time),
            f3(full.time / elided.time),
        ]);
    }
    t.print();
    println!(
        "\nReading: on mesh problems almost every barrier is load-bearing — each\n\
         anti-diagonal wavefront spans many contiguous blocks, so elision recovers\n\
         only a few percent. On chain-structured dependences with contiguous blocks\n\
         (block-tridiagonal solves) all but p−1 barriers vanish and the pre-scheduled\n\
         executor's synchronization bill collapses — the regime where the Nicol &\n\
         Saltz rearrangement pays."
    );

    println!("\nAblation 2: partition strategy under self-execution ({p} processors)\n");
    let mut t = Table::new(&["Problem", "E striped", "E contiguous", "E global-wrapped"]);
    for id in [ProblemId::Spe2, ProblemId::FivePt, ProblemId::SevenPt] {
        let c = SolveCase::build(id);
        let zero = CostModel::zero_overhead();
        let seq = c.seq_time(&zero);
        let mut effs = Vec::new();
        for s in [
            Schedule::local(&c.wf, &Partition::striped(c.n, p).unwrap()).unwrap(),
            Schedule::local(&c.wf, &Partition::contiguous(c.n, p).unwrap()).unwrap(),
            c.global_schedule(p),
        ] {
            effs.push(
                sim::sim_self_executing(&s, &c.graph, Some(&c.weights), &zero).efficiency(seq),
            );
        }
        t.row(vec![c.name.clone(), f3(effs[0]), f3(effs[1]), f3(effs[2])]);
    }
    t.print();
    println!(
        "\nReading: contiguous blocks serialize the wavefront interiors (a block owns a\n\
         run of consecutive indices, i.e. a run within a wavefront), while striped and\n\
         wrapped spread each wavefront — the paper's reason for wrapped assignment."
    );

    println!("\nAblation 3: ILU fill level (5-PT subgrid, GMRES(30), 2 workers)\n");
    let mut t = Table::new(&["k", "factor nnz", "phases fwd", "iterations"]);
    let a = {
        // A 24×24 sub-size 5-PT problem keeps host run times small.
        let full = TestProblem::build(ProblemId::FivePt);
        let _ = full;
        rtpl::sparse::gen::grid2d_5pt(24, 24, |x, y| rtpl::sparse::gen::Coeffs2 {
            ax: (x * y).exp(),
            ay: (-x * y).exp(),
            cx: 2.0 * (x + y),
            cy: 2.0 * (x + y),
            r: 1.0 / (1.0 + x + y),
        })
    };
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.02).cos()).collect();
    let pool = WorkerPool::new(2);
    for k in [0usize, 1, 2] {
        let f = rtpl::sparse::iluk(&a, k).unwrap();
        let g = DepGraph::from_lower_triangular(&f.l).unwrap();
        let phases = Wavefronts::compute(&g).unwrap().num_wavefronts();
        let m = Preconditioner::ilu(&f, 2, ExecutorKind::SelfExecuting, Sorting::Global).unwrap();
        let mut x = vec![0.0; n];
        let stats = gmres(
            &pool,
            &a,
            &b,
            &mut x,
            &m,
            &KrylovConfig {
                tol: 1e-9,
                max_iter: 300,
                restart: 30,
            },
        )
        .unwrap();
        t.row(vec![
            k.to_string(),
            f.nnz().to_string(),
            phases.to_string(),
            stats.iterations.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nReading: each fill level cuts iterations (30 -> 20 -> 16) but adds factor\n\
         entries and *deepens the dependence chains* (more phases per solve), i.e.\n\
         stronger preconditioning trades away run-time parallelism — the tension the\n\
         inspector/executor machinery has to navigate."
    );

    println!(
        "\nAblation 4: static self-executing schedule vs dynamic self-scheduling\n\
         (related work: Lusk & Overbeek unit chunks; Polychronopoulos & Kuck guided)\n"
    );
    let mut t = Table::new(&[
        "Problem",
        "static stalls",
        "unit stalls",
        "guided stalls",
        "all correct",
    ]);
    for id in [ProblemId::Spe4, ProblemId::FivePt] {
        let c = SolveCase::build(id);
        let order = c.wf.sorted_list();
        let b: Vec<f64> = (0..c.n).map(|i| 1.0 + (i as f64 * 0.01).cos()).collect();
        let l = &c.l;
        let body = |i: usize, src: &rtpl::executor::WaitingSource<'_>| {
            rtpl::sparse::triangular::row_substitution_lower(l, &b, i, |j| src.get(j))
        };
        let mut expect = vec![0.0; c.n];
        rtpl::sparse::triangular::solve_lower(
            l,
            &b,
            rtpl::sparse::triangular::Diag::Unit,
            &mut expect,
        )
        .unwrap();
        let nprocs = 2;
        let pool = WorkerPool::new(nprocs);
        let schedule = c.global_schedule(nprocs);
        let mut out = vec![0.0; c.n];
        let st_static = rtpl::executor::self_executing(&pool, &schedule, &body, &mut out);
        let ok1 = out == expect;
        let mut out = vec![0.0; c.n];
        let st_unit = rtpl::executor::self_scheduling(
            &pool,
            &order,
            rtpl::executor::Chunking::Unit,
            &body,
            &mut out,
        );
        let ok2 = out == expect;
        let mut out = vec![0.0; c.n];
        let st_guided = rtpl::executor::self_scheduling(
            &pool,
            &order,
            rtpl::executor::Chunking::Guided,
            &body,
            &mut out,
        );
        let ok3 = out == expect;
        t.row(vec![
            c.name.clone(),
            st_static.stalls.to_string(),
            st_unit.stalls.to_string(),
            st_guided.stalls.to_string(),
            (ok1 && ok2 && ok3).to_string(),
        ]);
    }
    t.print();
    println!(
        "\nReading: dynamic claiming needs no inspector partitioning step and balances\n\
         load adaptively, at the price of shared-counter traffic; the static schedule\n\
         preserves locality and, with wrapped assignment, stalls rarely. Both run on\n\
         real threads here (stall counts are host-dependent)."
    );
}
