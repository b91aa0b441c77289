//! The paper's evidence regenerated in one pass: Tables 1–5, Figures 1
//! and 12–13, the §4 model analysis and four ablations.
//!
//! [`run`] builds every test problem once, prices every table with one
//! cost model (the Multimax ratios of [`CostModel::multimax`], or the
//! overhead-free model where the paper reports symbolic efficiencies) and
//! renders through one [`Table`] printer into two streams:
//!
//! * [`Report::pinned`] is deterministic — simulated times and
//!   efficiencies, phase and barrier counts, GMRES iteration counts,
//!   correctness verdicts — and is pinned byte for byte by the golden file
//!   `tests/corpus/repro.txt`;
//! * [`Report::timed`] holds what the host's clock measures (inspector sort
//!   and schedule milliseconds, busy-wait stall counts), different on every
//!   run.
//!
//! Every claim the text makes about the paper's shape is a check computed
//! from the numbers it stands under, printed `[ok]` or `[??]` and collected
//! in [`Report::checks`].

use crate::{f3, time_ms_median, SolveCase, Table};
use rtpl::executor::{
    self_scheduling, Chunking, ExecutorKind, LoopBody, PlannedLoop, ValueSource, WaitingSource,
    WorkerPool,
};
use rtpl::inspector::{BarrierPlan, DepGraph, Partition, Schedule, Wavefronts};
use rtpl::krylov::{gmres, KrylovConfig, Preconditioner, Sorting};
use rtpl::sim::{self, model, CostModel};
use rtpl::sparse::gen::{dense_lower, grid2d_5pt, laplacian_5pt, tridiagonal, Coeffs2};
use rtpl::sparse::triangular::{row_substitution_lower, solve_lower, Diag};
use rtpl::sparse::{iluk, Csr};
use rtpl::workload::{ProblemId, SyntheticSpec};

/// Processor count of the paper's Multimax experiments.
const P: usize = 16;

/// What one reproduction run printed and concluded.
#[derive(Default)]
pub struct Report {
    /// The deterministic text: the golden file's content.
    pub pinned: String,
    /// Host-timed columns, which differ run to run.
    pub timed: String,
    /// Every shape check: the claim, and whether the numbers bear it out.
    pub checks: Vec<(String, bool)>,
}

impl Report {
    /// Appends `text` and a newline to the pinned stream.
    fn say(&mut self, text: &str) {
        self.pinned.push_str(text);
        self.pinned.push('\n');
    }

    /// Appends `text` and a newline to the timed stream.
    fn say_timed(&mut self, text: &str) {
        self.timed.push_str(text);
        self.timed.push('\n');
    }

    /// Prints and records one shape check.
    fn check(&mut self, claim: &str, holds: bool) {
        self.say(&format!("  [{}] {claim}", if holds { "ok" } else { "??" }));
        self.checks.push((claim.to_string(), holds));
    }

    /// The claims the numbers contradict.
    pub fn failed(&self) -> Vec<&str> {
        let failed = self.checks.iter().filter(|(_, holds)| !holds);
        failed.map(|(claim, _)| claim.as_str()).collect()
    }
}

/// Regenerates every table and figure.
pub fn run() -> Report {
    let cost = CostModel::multimax();
    let mut r = Report::default();
    let ids = ProblemId::table1_set().into_iter().chain([ProblemId::L7Pt]);
    let cases: Vec<(ProblemId, SolveCase)> = ids.map(|id| (id, SolveCase::build(id))).collect();
    let case = |id: ProblemId| &cases.iter().find(|(i, _)| *i == id).expect("built").1;
    let analysis: Vec<&SolveCase> = ProblemId::analysis_set().map(case).to_vec();
    let mesh = SolveCase::from_lower("65mesh".to_string(), &laplacian_5pt(65, 65).lower());

    table1(&mut r, &cost, &cases);
    tables_2_and_3(&mut r, &cost, &analysis);
    table4(&mut r, &cost, &analysis);
    table5(&mut r, &cost, &analysis, &mesh);
    figure1(&mut r, &cost, &mesh);
    figures_12_and_13(&mut r, &mesh);
    model_analysis(&mut r, &cost);
    ablations(&mut r, &cost, &case);
    r
}

/// Table 1 — self-execution vs pre-scheduling for the PCGPAK-style solve.
///
/// Per problem: the real (sequential-host) GMRES iteration count, then the
/// per-iteration time on `P` simulated processors — both triangular solves
/// event-simulated under each discipline, matvec/SAXPY/dot as perfectly
/// parallel block work (Appendix II).
fn table1(r: &mut Report, cost: &CostModel, cases: &[(ProblemId, SolveCase)]) {
    r.say(&format!(
        "Table 1: PCGPAK-style solve, {P} simulated processors \
         (cost model: Tp=1, Tsynch={}, Tinc={}, Tcheck={})\n",
        cost.tsynch, cost.tinc, cost.tcheck
    ));
    let mut table = Table::new(&[
        "Problem",
        "n",
        "iters",
        "S.E. time",
        "S.E. eff",
        "P.S. time",
        "P.S. eff",
        "S.E./P.S.",
    ]);
    let mut sorts = Table::new(&["Problem", "sort ms"]);
    let mut ratios = Vec::new();
    let pool = WorkerPool::new(1);
    for (id, c) in cases {
        let (a, f, n) = (&c.matrix, &c.factors, c.n);
        let m = Preconditioner::ilu(f, 1, ExecutorKind::Sequential, Sorting::Global).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.017).sin()).collect();
        let mut x = vec![0.0; n];
        let cfg = KrylovConfig {
            tol: 1e-8,
            max_iter: 600,
            restart: 30,
        };
        let iters = gmres(&pool, a, &b, &mut x, &m, &cfg)
            .expect("gmres")
            .iterations;

        // Per iteration, in Tp units: one matvec and ~4 saxpy/dot passes
        // of block work, one forward and one backward triangular solve.
        let easy_work = (a.nnz() + 4 * n) as f64;
        let g_u = DepGraph::from_upper_triangular(&f.u).unwrap();
        let s_l = c.global_schedule(P);
        let s_u = Schedule::global(&Wavefronts::compute(&g_u).unwrap(), P).unwrap();
        // Backward weights live in reversed index space.
        let w_u: Vec<f64> = (0..n).map(|k| f.u.row_nnz(n - 1 - k) as f64).collect();
        let w_l = Some(c.weights.as_slice());
        let tri_seq = c.seq_time(cost) + sim::sim_sequential(n, Some(&w_u), cost);
        let se_tri = sim::sim_self_executing(&s_l, &c.graph, w_l, cost).time
            + sim::sim_self_executing(&s_u, &g_u, Some(&w_u), cost).time;
        let ps_tri = sim::sim_pre_scheduled(&s_l, w_l, cost).time
            + sim::sim_pre_scheduled(&s_u, Some(&w_u), cost).time;

        let k = iters.max(1) as f64;
        let seq_total = k * (easy_work + tri_seq);
        let se_total = k * (easy_work / P as f64 + se_tri);
        let ps_total = k * (easy_work / P as f64 + ps_tri);
        ratios.push((*id, se_total / ps_total));
        table.row(vec![
            c.name.clone(),
            n.to_string(),
            iters.to_string(),
            format!("{se_total:.0}"),
            f3(seq_total / (P as f64 * se_total)),
            format!("{ps_total:.0}"),
            f3(seq_total / (P as f64 * ps_total)),
            f3(se_total / ps_total),
        ]);
        // The paper's "Sort" column: the inspector's wavefront sweep plus
        // global sort, measured on this host.
        let sort_ms = time_ms_median(3, || {
            let wf = Wavefronts::compute(&c.graph).unwrap();
            let _ = Schedule::global(&wf, P).unwrap();
        });
        sorts.row(vec![c.name.clone(), format!("{sort_ms:.1}")]);
    }
    r.say(&table.to_string());
    r.say_timed(&format!("Table 1, host-timed inspector cost:\n\n{sorts}"));

    r.say("Shape check vs paper:");
    r.check(
        "self-execution beats pre-scheduling on every problem (S.E./P.S. < 1)",
        ratios.iter().all(|&(_, q)| q < 1.0),
    );
    let mut by_ratio = ratios.clone();
    by_ratio.sort_by(|a, b| b.1.total_cmp(&a.1));
    let deep = [ProblemId::SevenPt, ProblemId::L7Pt];
    r.check(
        "the ratio climbs toward parity on the deep 3-D 7-PT/L7-PT problems \
         (few phases, good balance): theirs are the two largest",
        by_ratio[..2].iter().all(|(id, _)| deep.contains(id)),
    );
    let mut spe = ratios.iter().filter(|(id, _)| id.name().starts_with("SPE"));
    r.check(
        "the SPE problems finish in at most 70 % of the pre-scheduled time",
        spe.all(|&(_, q)| q <= 0.7),
    );
    r.say(
        "  Divergence: the paper measured a slight pre-scheduling win on 7-PT; \
         the model keeps\n  self-execution ahead there.\n",
    );
}

/// Tables 2 and 3 — self-executing and pre-scheduled lower triangular
/// solves on `P` simulated processors (§5.1.2), plus the doacross column.
///
/// "Symbolic Eff" is the overhead-free load balance; "1 PE Seq" is the
/// sequential time over `P` × that efficiency. Table 3 splits the
/// pre-scheduled time into the overhead-free time and the `Tsynch ×
/// (phases − 1)` barrier bill.
fn tables_2_and_3(r: &mut Report, cost: &CostModel, cases: &[&SolveCase]) {
    let zero = CostModel::zero_overhead();
    let mut t2 = Table::new(&[
        "Problem",
        "Phases",
        "Symbolic Eff",
        "Parallel Time",
        "1 PE Seq",
        "Doacross",
    ]);
    let mut t3 = Table::new(&[
        "Problem",
        "Phases",
        "Symbolic Eff",
        "Parallel Time",
        "No-Barrier Time",
        "Barrier Bill",
        "1 PE Seq",
    ]);
    let (mut doacross_slower, mut above_estimate) = (true, true);
    let (mut below_table2, mut bill_dominates, mut loses) = (true, true, true);
    let mut least_loss = (f64::INFINITY, String::new());
    for c in cases {
        let s = c.global_schedule(P);
        let w = Some(c.weights.as_slice());
        let seq = c.seq_time(&zero);
        let phases = s.num_phases().to_string();

        let se_eff = sim::sim_self_executing(&s, &c.graph, w, &zero).efficiency(seq);
        let se = sim::sim_self_executing(&s, &c.graph, w, cost).time;
        let da = sim::sim_doacross(&c.graph, P, w, cost).time;
        let se_one = seq / (P as f64 * se_eff);
        t2.row(vec![
            c.name.clone(),
            phases.clone(),
            f3(se_eff),
            format!("{se:.0}"),
            format!("{se_one:.0}"),
            format!("{da:.0}"),
        ]);
        doacross_slower &= da > se;
        above_estimate &= se > se_one;

        let ps_eff = sim::sim_pre_scheduled(&s, w, &zero).efficiency(seq);
        let ps = sim::sim_pre_scheduled(&s, w, cost).time;
        let bill = cost.tsynch * (s.num_phases() - 1) as f64;
        t3.row(vec![
            c.name.clone(),
            phases,
            f3(ps_eff),
            format!("{ps:.0}"),
            format!("{:.0}", ps - bill),
            format!("{bill:.0}"),
            format!("{:.0}", seq / (P as f64 * ps_eff)),
        ]);
        below_table2 &= ps_eff < se_eff;
        bill_dominates &= bill > ps - bill;
        loses &= ps > se;
        if ps / se < least_loss.0 {
            least_loss = (ps / se, c.name.clone());
        }
    }

    r.say(&format!(
        "Table 2: self-executing lower triangular solves, {P} simulated processors\n\n{t2}"
    ));
    r.say("Shape check vs paper:");
    r.check(
        "doacross is slower than the self-executing solve on every problem \
         (reordering exposes concurrency)",
        doacross_slower,
    );
    r.check(
        "parallel time exceeds the 1 PE Seq estimate on every problem \
         (the shared-array check/increment overheads)",
        above_estimate,
    );

    r.say(&format!(
        "\nTable 3: pre-scheduled lower triangular solves, {P} simulated processors\n\n{t3}"
    ));
    r.say("Shape check vs paper:");
    r.check(
        "symbolic efficiencies are below Table 2's on every problem \
         (barriers forbid cross-wavefront overlap)",
        below_table2,
    );
    r.check(
        "the barrier bill exceeds the no-barrier time on every problem",
        bill_dominates,
    );
    r.check(
        "every problem loses to self-execution (parallel time above Table 2's)",
        loses,
    );
    r.check(
        "the well-balanced 7-PT problem loses least (smallest P.S./S.E. time ratio)",
        least_loss.1 == "7-PT",
    );
}

/// Table 4 — projected efficiencies for 16, 32 and 64 processors, and
/// §5.1.3's caveat: a bus that does not scale with the machine.
///
/// "Best" is the efficiency with overheads but perfect load balance; the
/// pre-scheduled one pays a barrier per phase on `P` processors.
fn table4(r: &mut Report, cost: &CostModel, cases: &[&SolveCase]) {
    let zero = CostModel::zero_overhead();
    let mut table = Table::new(&[
        "Problem",
        "Best S.E.",
        "Best P.S.",
        "16 S.E.",
        "16 P.S.",
        "32 S.E.",
        "32 P.S.",
        "64 S.E.",
        "64 P.S.",
    ]);
    let mut bus = Table::new(&["Problem", "16 scaled", "16 bus", "64 scaled", "64 bus"]);
    let (mut faster_decay, mut bus_lowers) = (true, true);
    for c in cases {
        let w = Some(c.weights.as_slice());
        let seq = c.seq_time(&zero);
        let se_overhead = cost.tinc * c.n as f64 + cost.tcheck * c.graph.num_edges() as f64;
        let ps_overhead = cost.tsynch * (c.wf.num_wavefronts() - 1) as f64;
        let mut cells = vec![
            c.name.clone(),
            f3(seq / (seq + se_overhead)),
            f3(seq / (seq + P as f64 * ps_overhead)),
        ];
        let mut bus_cells = vec![c.name.clone()];
        let mut effs = Vec::new();
        for p in [16usize, 32, 64] {
            let s = c.global_schedule(p);
            let se = sim::sim_self_executing(&s, &c.graph, w, cost).efficiency(seq);
            let ps = sim::sim_pre_scheduled(&s, w, cost).efficiency(seq);
            cells.extend([f3(se), f3(ps)]);
            effs.push((se, ps));
            if p != 32 {
                let slow = cost.with_bus_contention(0.02, p);
                let se_bus = sim::sim_self_executing(&s, &c.graph, w, &slow).efficiency(seq);
                bus_cells.extend([f3(se), f3(se_bus)]);
                bus_lowers &= se_bus < se;
            }
        }
        faster_decay &= effs[2].1 / effs[0].1 < effs[2].0 / effs[0].0;
        table.row(cells);
        bus.row(bus_cells);
    }
    r.say(&format!(
        "\nTable 4: projected efficiencies (self-executing S.E. / pre-scheduled P.S.)\n\n{table}"
    ));
    r.say("Shape check vs paper:");
    r.check(
        "from 16 to 64 processors pre-scheduled efficiency falls by a larger \
         factor than self-executing efficiency on every problem",
        faster_decay,
    );
    r.say(&format!(
        "\nNon-scaling bus variant (alpha = 0.02), self-executing:\n{bus}"
    ));
    r.say("Shape check vs paper:");
    r.check(
        "a bus that does not scale lowers every projected efficiency",
        bus_lowers,
    );
}

/// Table 5 — local vs global index-set scheduling under self-execution:
/// simulated run times on `P` processors (pinned) and the inspector's
/// host-measured setup costs (timed).
fn table5(r: &mut Report, cost: &CostModel, analysis: &[&SolveCase], mesh: &SolveCase) {
    let synthetic: Vec<SolveCase> = [1.5, 3.0]
        .map(|mean_distance| {
            let spec = SyntheticSpec {
                mesh: 65,
                mean_degree: 4.0,
                mean_distance,
            };
            SolveCase::from_lower(spec.name(), &spec.generate(0xC0FFEE))
        })
        .into();
    let mut table = Table::new(&["Problem", "Seq Solve", "Global Run", "Local Run"]);
    let mut setup = Table::new(&[
        "Problem",
        "Seq Sort ms",
        "Par Sort ms",
        "Global Sched ms",
        "Local Sched ms",
    ]);
    let (mut global_wins, mut close, mut apart) = (true, true, true);
    // Each case, flagged when its dependences are long-range.
    let all = analysis.iter().map(|&c| (c, false));
    let all = all
        .chain(synthetic.iter().map(|c| (c, true)))
        .chain([(mesh, false)]);
    for (c, long_range) in all {
        let g = &c.graph;
        let part = Partition::striped(c.n, P).unwrap();
        let global = Schedule::global(&c.wf, P).unwrap();
        let local = Schedule::local(&c.wf, &part).unwrap();
        let w = Some(c.weights.as_slice());
        let run_global = sim::sim_self_executing(&global, g, w, cost).time;
        let run_local = sim::sim_self_executing(&local, g, w, cost).time;
        table.row(vec![
            c.name.clone(),
            format!("{:.0}", c.seq_time(cost)),
            format!("{run_global:.0}"),
            format!("{run_local:.0}"),
        ]);
        global_wins &= run_global <= run_local;
        if long_range {
            apart &= run_local > 1.25 * run_global;
        } else {
            close &= run_local <= 1.1 * run_global;
        }

        let ms = |reps, f: &dyn Fn()| format!("{:.2}", time_ms_median(reps, f));
        setup.row(vec![
            c.name.clone(),
            ms(5, &|| drop(Wavefronts::compute(g).unwrap())),
            ms(3, &|| drop(Wavefronts::compute_parallel(g, 4).unwrap())),
            ms(5, &|| drop(Schedule::global(&c.wf, P).unwrap())),
            ms(5, &|| drop(Schedule::local(&c.wf, &part).unwrap())),
        ]);
    }
    r.say(&format!(
        "\nTable 5: local vs global index set scheduling, self-executing, \
         {P} simulated processors\n\n{table}"
    ));
    r.say("Shape check vs paper:");
    r.check(
        "the global schedule runs at least as fast as the local one on every problem",
        global_wins,
    );
    r.check(
        "local stays within 10 % of global on the Appendix-I problems and the 65-point mesh",
        close,
    );
    r.check(
        "global pulls more than 25 % ahead on the long-range synthetic workloads",
        apart,
    );
    r.say_timed(&format!(
        "Table 5, host-timed inspector setup cost:\n\n{setup}\n\
         Divergence note: in 1989 global scheduling cost far more than local because the\n\
         global rearrangement moved index data across processor memories and resisted\n\
         parallelization; this single-address-space counting sort hides that gap, so the\n\
         setup columns are close. The parallel sort runs real threads; on a single-core\n\
         host it shows overhead, not speedup.\n"
    ));
}

/// Figure 1 — the 2×2 solution space (local/global sorting ×
/// pre-scheduled/self-executing), worst and best efficiency over p = 2..16
/// on the 65×65 mesh, with the paper's verdicts checked.
fn figure1(r: &mut Report, cost: &CostModel, mesh: &SolveCase) {
    let (n, w) = (mesh.n, Some(mesh.weights.as_slice()));
    let seq = mesh.seq_time(cost);
    // [sort][exec]: sort local 0 / global 1, exec pre-scheduled 0 / self 1.
    let mut worst = [[f64::INFINITY; 2]; 2];
    let mut best = [[0.0f64; 2]; 2];
    for p in 2..=16usize {
        let scheds = [
            Schedule::local(&mesh.wf, &Partition::striped(n, p).unwrap()).unwrap(),
            Schedule::global(&mesh.wf, p).unwrap(),
        ];
        for (si, s) in scheds.iter().enumerate() {
            let e_ps = sim::sim_pre_scheduled(s, w, cost).efficiency(seq);
            let e_se = sim::sim_self_executing(s, &mesh.graph, w, cost).efficiency(seq);
            for (ei, e) in [e_ps, e_se].into_iter().enumerate() {
                worst[si][ei] = worst[si][ei].min(e);
                best[si][ei] = best[si][ei].max(e);
            }
        }
    }
    let cell = |s: usize, e: usize| format!("{:.2}..{:.2}", worst[s][e], best[s][e]);
    r.say(&format!(
        "\nFigure 1: performance of scheduling and sorting strategies\n\
         (worst..best efficiency over p = 2..16, 65x65 mesh, Multimax cost model)\n\n\
         \x20             |  Pre-Scheduled     |  Self-Executing\n\
         \x20 ------------+--------------------+-------------------\n\
         \x20 Sort: Local |  {:<18}|  {}\n\
         \x20             |  can degrade       |  recommended: robust,\n\
         \x20             |  catastrophically  |  low setup overhead\n\
         \x20 ------------+--------------------+-------------------\n\
         \x20 Sort: Global|  {:<18}|  {}\n\
         \x20             |  robust but limits |  most robust, higher\n\
         \x20             |  concurrency       |  setup time\n",
        cell(0, 0),
        cell(0, 1),
        cell(1, 0),
        cell(1, 1)
    ));
    r.say("Paper verdicts checked:");
    r.check(
        &format!(
            "local+barrier degrades catastrophically vs local+self-exec ({:.2} vs {:.2})",
            worst[0][0], worst[0][1]
        ),
        worst[0][0] < 0.5 * worst[0][1],
    );
    r.check(
        &format!(
            "with self-execution, cheap local sorting ~ matches global sorting ({:.2} vs {:.2})",
            worst[0][1], worst[1][1]
        ),
        worst[0][1] > 0.8 * worst[1][1],
    );
    r.check(
        &format!(
            "self-execution >= pre-scheduling under global sorting ({:.2} vs {:.2})",
            worst[1][1], worst[1][0]
        ),
        worst[1][1] >= worst[1][0],
    );
}

/// Figures 12 and 13 — the synchronization mechanism under *local*
/// ordering (§5.1.4): the 65×65 mesh striped over p processors, each
/// processor's indices topologically sorted. Barriers make efficiency
/// swing with p; the self-executing busy-wait pipelines it smooth.
fn figures_12_and_13(r: &mut Report, mesh: &SolveCase) {
    let zero = CostModel::zero_overhead();
    let (n, w) = (mesh.n, Some(mesh.weights.as_slice()));
    let seq = mesh.seq_time(&zero);
    let mut table = Table::new(&["p", "E barrier (Fig 12)", "E self-execute (Fig 13)"]);
    let (mut barrier, mut selfexec) = (Vec::new(), Vec::new());
    for p in 1..=16usize {
        let s = Schedule::local(&mesh.wf, &Partition::striped(n, p).unwrap()).unwrap();
        let e_barrier = sim::sim_pre_scheduled(&s, w, &zero).efficiency(seq);
        let e_self = sim::sim_self_executing(&s, &mesh.graph, w, &zero).efficiency(seq);
        table.row(vec![p.to_string(), f3(e_barrier), f3(e_self)]);
        barrier.push(e_barrier);
        selfexec.push(e_self);
    }
    r.say(&format!(
        "\nFigures 12/13: 65x65 5-pt mesh, striped local ordering, estimated efficiency\n\n{table}"
    ));
    r.say("efficiency vs processors (#=self-execute, o=barrier, *=both):");
    for level in (1..=10).rev() {
        let thr = level as f64 / 10.0 - 0.05;
        let marks = selfexec
            .iter()
            .zip(&barrier)
            .map(|(&s, &b)| match (s >= thr, b >= thr) {
                (true, true) => "  *",
                (true, false) => "  #",
                (false, true) => "  o",
                (false, false) => "   ",
            });
        let line = format!(
            "{:>4.1} |{}",
            level as f64 / 10.0,
            marks.collect::<String>()
        );
        r.say(line.trim_end());
    }
    r.say(&format!("     +{}", "-".repeat(3 * 16)));
    let labels: String = (1..=16).map(|p| format!("{p:>3}")).collect();
    r.say(&format!("      {labels}"));

    let step = |s: &[f64]| {
        s.windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .fold(0.0, f64::max)
    };
    let (step_barrier, step_self) = (step(&barrier), step(&selfexec));
    r.say(&format!(
        "\nmax step-to-step fluctuation: barrier {step_barrier:.3}, self-execute {step_self:.3}"
    ));
    r.say("Shape check vs paper:");
    r.check(
        "the barrier curve swings wildly with p (a step above 0.5: whole anti-diagonals \
         land on one processor when p divides the mesh stride)",
        step_barrier > 0.5,
    );
    r.check(
        "the self-executing curve stays smooth (every step below 0.1) and high (at least 0.85)",
        step_self < 0.1 && selfexec.iter().all(|&e| e >= 0.85),
    );
}

/// §4 — the closed-form m×n five-point model problem against the event
/// simulator: eqs. (3)–(5), the eq. (6) time ratio with its thin- and
/// square-mesh limits, and the dense-triangular extreme.
fn model_analysis(r: &mut Report, cost: &CostModel) {
    let zero = CostModel::zero_overhead();
    let mut table = Table::new(&[
        "m", "n", "p", "PS eq(3)", "PS eq(4)", "PS sim", "SE eq(5)", "SE sim",
    ]);
    let mut eq3_exact = true;
    for (m, n, p) in [
        (16usize, 16usize, 4usize),
        (16, 16, 8),
        (32, 32, 8),
        (9, 64, 8),
        (17, 48, 16),
        (64, 64, 16),
    ] {
        // nx = n columns, ny = m rows.
        let g = DepGraph::from_lower_triangular(&laplacian_5pt(n, m).strict_lower()).unwrap();
        let s = Schedule::global(&Wavefronts::compute(&g).unwrap(), p).unwrap();
        let seq = sim::sim_sequential(m * n, None, &zero);
        let ps_sim = sim::sim_pre_scheduled(&s, None, &zero).efficiency(seq);
        let se_sim = sim::sim_self_executing(&s, &g, None, &zero).efficiency(seq);
        eq3_exact &= (model::presched_eopt(m, n, p) - ps_sim).abs() < 1e-12;
        table.row(vec![
            m.to_string(),
            n.to_string(),
            p.to_string(),
            f3(model::presched_eopt(m, n, p)),
            f3(model::presched_eopt_approx(m, n, p)),
            f3(ps_sim),
            f3(model::selfexec_eopt(m, n, p)),
            f3(se_sim),
        ]);
    }
    r.say(&format!(
        "\nSection 4 model problem: m x n mesh, p processors, load balance only\n\n{table}"
    ));

    let mut ratios = Table::new(&["mesh", "p", "ratio eq(6)", "limit"]);
    for (m, n, p, thin) in [
        (17usize, 4000usize, 16usize, true),
        (9, 4000, 8, true),
        // The square limit converges as O(p·Rsynch/n): a 2000² mesh still
        // favours self-execution under Multimax barrier costs, 40000² shows
        // the asymptote where pre-scheduling wins.
        (2000, 2000, 16, false),
        (40000, 40000, 16, false),
    ] {
        let (limit, which) = if thin {
            (model::ratio_limit_thin(p, cost), "thin")
        } else {
            (model::ratio_limit_square(cost), "square")
        };
        ratios.row(vec![
            format!("{m}x{n} ({which})"),
            p.to_string(),
            f3(model::ratio_presched_over_selfexec(m, n, p, cost)),
            f3(limit),
        ]);
    }
    r.say(&format!(
        "Equation (6) ratio T_presched / T_selfexec (>1 means self-execution wins):\n{ratios}"
    ));

    let nn = 32usize;
    let g = DepGraph::from_lower_triangular(&dense_lower(nn).strict_lower()).unwrap();
    let s = Schedule::global(&Wavefronts::compute(&g).unwrap(), nn - 1).unwrap();
    let weights: Vec<f64> = (0..nn).map(|i| i.max(1) as f64).collect();
    let seq = sim::sim_sequential(nn, Some(&weights), &zero);
    let se = sim::sim_self_executing_fine(&s, &g, Some(&weights), &zero).efficiency(seq);
    let ps = sim::sim_pre_scheduled(&s, Some(&weights), &zero).efficiency(seq);
    r.say(&format!(
        "Dense n x n triangular extreme (n = {nn}, p = n-1):\n\
         \x20 E self-exec: formula {:.3}, simulated {se:.3}\n\
         \x20 E pre-sched: formula {:.3}, simulated {ps:.3}\n",
        model::dense_selfexec_eopt(nn),
        model::dense_presched_eopt(nn),
    ));
    r.say("Shape check vs paper:");
    r.check(
        "eq(3) equals the simulated pre-scheduled efficiency exactly",
        eq3_exact,
    );
    r.check(
        "self-execution pipelines to ~1/2 on the dense extreme",
        (0.45..=0.55).contains(&se),
    );
    r.check(
        "pre-scheduling collapses to 1/(n-1) on the dense extreme",
        (ps - 1.0 / (nn - 1) as f64).abs() < 0.005,
    );
}

/// The row-substitution body of a unit lower triangular solve.
struct LowerSolve<'a> {
    l: &'a Csr,
    b: &'a [f64],
}

impl LoopBody for LowerSolve<'_> {
    fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
        row_substitution_lower(self.l, self.b, i, |j| src.get(j))
    }
}

/// The design-choice studies: barrier elision (Nicol & Saltz \[13\]),
/// partition strategy, ILU fill level, and static self-execution against
/// dynamic self-scheduling.
fn ablations<'a>(r: &mut Report, cost: &CostModel, case: &dyn Fn(ProblemId) -> &'a SolveCase) {
    let meshes = [ProblemId::Spe2, ProblemId::FivePt, ProblemId::SevenPt].map(case);
    let contiguous =
        |c: &SolveCase, p| Schedule::local(&c.wf, &Partition::contiguous(c.n, p).unwrap()).unwrap();

    r.say(&format!(
        "\nAblation 1: barrier elision (pre-scheduled, {P} simulated processors)\n"
    ));
    let mut t = Table::new(&[
        "Problem",
        "Schedule",
        "Phases",
        "Barriers kept",
        "Full Time",
        "Elided Time",
        "Speedup",
    ]);
    // A chain-structured workload (block-tridiagonal solve): contiguous
    // blocks make almost every dependence processor-local.
    let chain = SolveCase::from_lower(
        "chain-2048".to_string(),
        &tridiagonal(2048, 2.0, -1.0).lower(),
    );
    let mut runs = Vec::new();
    for c in meshes {
        runs.push((c, "global", c.global_schedule(P)));
        runs.push((c, "contiguous", contiguous(c, P)));
    }
    runs.push((&chain, "contiguous", contiguous(&chain, P)));
    let (mut mesh_gain, mut chain_kept, mut chain_gain) = (0.0f64, 0, 0.0);
    for (c, label, s) in &runs {
        let plan = BarrierPlan::minimal(s, &c.graph).unwrap();
        plan.validate(s, &c.graph).unwrap();
        let w = Some(c.weights.as_slice());
        let full = sim::sim_pre_scheduled(s, w, cost).time;
        let elided = sim::sim_pre_scheduled_elided(s, &plan, w, cost).time;
        if c.name == chain.name {
            (chain_kept, chain_gain) = (plan.count(), full / elided);
        } else {
            mesh_gain = mesh_gain.max(full / elided);
        }
        t.row(vec![
            c.name.clone(),
            label.to_string(),
            s.num_phases().to_string(),
            format!("{}/{}", plan.count(), s.num_phases() - 1),
            format!("{full:.0}"),
            format!("{elided:.0}"),
            f3(full / elided),
        ]);
    }
    r.say(&t.to_string());
    r.say("Shape check:");
    r.check(
        "on mesh problems almost every barrier is load-bearing: elision recovers \
         under 10 % (each anti-diagonal spans many blocks)",
        mesh_gain < 1.1,
    );
    r.check(
        &format!(
            "on the chain with contiguous blocks all but p-1 = {} barriers vanish and the \
             synchronization bill collapses (more than 10x)",
            P - 1
        ),
        chain_kept == P - 1 && chain_gain > 10.0,
    );

    r.say(&format!(
        "\nAblation 2: partition strategy under self-execution ({P} processors)\n"
    ));
    let zero = CostModel::zero_overhead();
    let mut t = Table::new(&["Problem", "E striped", "E contiguous", "E global-wrapped"]);
    let mut contiguous_worst = true;
    for c in meshes {
        let seq = c.seq_time(&zero);
        let striped = Schedule::local(&c.wf, &Partition::striped(c.n, P).unwrap()).unwrap();
        let e = [striped, contiguous(c, P), c.global_schedule(P)].map(|s| {
            let sim = sim::sim_self_executing(&s, &c.graph, Some(&c.weights), &zero);
            sim.efficiency(seq)
        });
        contiguous_worst &= e[1] < e[0] && e[1] < e[2];
        t.row(vec![c.name.clone(), f3(e[0]), f3(e[1]), f3(e[2])]);
    }
    r.say(&t.to_string());
    r.say("Shape check:");
    r.check(
        "contiguous blocks are the least efficient partition on every problem: a block \
         owns a run within a wavefront, while striped and wrapped assignment spread it",
        contiguous_worst,
    );

    r.say("\nAblation 3: ILU fill level (5-PT subgrid, GMRES(30), 2 workers)\n");
    let mut t = Table::new(&["k", "factor nnz", "phases fwd", "iterations"]);
    // A 24×24 5-PT subgrid keeps host run times small.
    let a = grid2d_5pt(24, 24, |x, y| Coeffs2 {
        ax: (x * y).exp(),
        ay: (-x * y).exp(),
        cx: 2.0 * (x + y),
        cy: 2.0 * (x + y),
        r: 1.0 / (1.0 + x + y),
    });
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.02).cos()).collect();
    let pool = WorkerPool::new(2);
    let mut levels = Vec::new();
    for k in [0usize, 1, 2] {
        let f = iluk(&a, k).unwrap();
        let g = DepGraph::from_lower_triangular(&f.l).unwrap();
        let phases = Wavefronts::compute(&g).unwrap().num_wavefronts();
        let m = Preconditioner::ilu(&f, 2, ExecutorKind::SelfExecuting, Sorting::Global).unwrap();
        let cfg = KrylovConfig {
            tol: 1e-9,
            max_iter: 300,
            restart: 30,
        };
        let mut x = vec![0.0; n];
        let iters = gmres(&pool, &a, &b, &mut x, &m, &cfg).unwrap().iterations;
        levels.push((f.nnz(), phases, iters));
        t.row(vec![
            k.to_string(),
            f.nnz().to_string(),
            phases.to_string(),
            iters.to_string(),
        ]);
    }
    r.say(&t.to_string());
    r.say("Shape check:");
    r.check(
        "each fill level adds factor entries, deepens the dependence chains (more \
         phases per solve) and cuts GMRES iterations: stronger preconditioning trades \
         away run-time parallelism",
        levels
            .windows(2)
            .all(|w| w[1].0 > w[0].0 && w[1].1 > w[0].1 && w[1].2 < w[0].2),
    );

    r.say(
        "\nAblation 4: static self-executing schedule vs dynamic self-scheduling\n\
         (related work: Lusk & Overbeek unit chunks; Polychronopoulos & Kuck guided),\n\
         2 real threads\n",
    );
    let mut t = Table::new(&["Problem", "all correct"]);
    let mut stalls = Table::new(&["Problem", "static stalls", "unit stalls", "guided stalls"]);
    let mut all_correct = true;
    let pool = WorkerPool::new(2);
    for c in [ProblemId::Spe4, ProblemId::FivePt].map(case) {
        let b: Vec<f64> = (0..c.n).map(|i| 1.0 + (i as f64 * 0.01).cos()).collect();
        let body = LowerSolve {
            l: &c.factors.l,
            b: &b,
        };
        let mut expect = vec![0.0; c.n];
        solve_lower(body.l, &b, Diag::Unit, &mut expect).unwrap();
        let plan = PlannedLoop::new(c.graph.clone(), c.global_schedule(2)).unwrap();
        let order = c.wf.sorted_list();
        let mut out = vec![0.0; c.n];
        let st = plan.run(Some(&pool), ExecutorKind::SelfExecuting, &body, &mut out);
        let (mut cells, mut ok) = (vec![c.name.clone(), st.stalls.to_string()], out == expect);
        for chunking in [Chunking::Unit, Chunking::Guided] {
            let mut out = vec![0.0; c.n];
            let eval = |i, src: &WaitingSource<'_>| body.eval(i, src);
            let st = self_scheduling(&pool, &order, chunking, &eval, &mut out);
            cells.push(st.stalls.to_string());
            ok &= out == expect;
        }
        all_correct &= ok;
        t.row(vec![c.name.clone(), ok.to_string()]);
        stalls.row(cells);
    }
    r.say(&t.to_string());
    r.say("Shape check:");
    r.check(
        "every executor reproduces the sequential solve bit for bit",
        all_correct,
    );
    r.say_timed(&format!(
        "\nAblation 4, host-timed busy-wait stalls (2 real threads):\n\n{stalls}\n\
         Reading: dynamic claiming needs no inspector partitioning step and balances load\n\
         adaptively, at the price of shared-counter traffic; the static schedule preserves\n\
         locality. Stall counts depend on the host's thread timing."
    ));
}
