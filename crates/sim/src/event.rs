//! Discrete-event simulation of schedule execution on `p` processors.
//!
//! Completion times are computed exactly:
//!
//! * **pre-scheduled** — a phase ends when its slowest processor finishes;
//!   `Tsynch` is charged per interior barrier;
//! * **self-executing** — index `i` starts when its processor is free *and*
//!   all its dependences have completed (the busy-wait), paying `Tcheck`
//!   per operand and `Tinc` to publish;
//! * **doacross** — like self-executing but in natural index order striped
//!   over processors.
//!
//! Indices are processed in wavefront order, which is consistent with every
//! processor's schedule order, so a single forward pass computes the exact
//! fixed point.

use crate::cost::CostModel;
use rtpl_inspector::{BarrierPlan, DepGraph, Schedule};

/// Result of one simulated execution.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutcome {
    /// Simulated wall-clock time.
    pub time: f64,
    /// Number of processors simulated.
    pub nprocs: usize,
    /// Total busy time summed over processors (work + overhead, no idle).
    pub busy: f64,
}

impl SimOutcome {
    /// Parallel efficiency against a sequential time.
    pub fn efficiency(&self, seq_time: f64) -> f64 {
        seq_time / (self.nprocs as f64 * self.time)
    }

    /// Fraction of processor-seconds spent idle.
    pub fn idle_fraction(&self) -> f64 {
        1.0 - self.busy / (self.nprocs as f64 * self.time)
    }
}

fn weight(weights: Option<&[f64]>, i: usize) -> f64 {
    weights.map_or(1.0, |w| w[i])
}

/// Sequential execution time: `Tp · Σ w_i` (no overheads — the sequential
/// code has neither barriers nor shared-array traffic).
pub fn sim_sequential(n: usize, weights: Option<&[f64]>, cost: &CostModel) -> f64 {
    (0..n).map(|i| cost.tp * weight(weights, i)).sum()
}

/// Pre-scheduled execution: `Σ_w max_p(phase work) + Tsynch · (phases − 1)`.
pub fn sim_pre_scheduled(
    schedule: &Schedule,
    weights: Option<&[f64]>,
    cost: &CostModel,
) -> SimOutcome {
    let nprocs = schedule.nprocs();
    let mut time = 0.0;
    let mut busy = 0.0;
    for w in 0..schedule.num_phases() {
        let mut phase_max = 0.0f64;
        for p in 0..nprocs {
            let t: f64 = schedule
                .phase_slice(p, w)
                .iter()
                .map(|&i| cost.tp * weight(weights, i as usize))
                .sum();
            busy += t;
            phase_max = phase_max.max(t);
        }
        time += phase_max;
    }
    let interior = schedule.num_phases().saturating_sub(1) as f64;
    time += cost.tsynch * interior;
    busy += cost.tsynch * interior * nprocs as f64;
    SimOutcome { time, nprocs, busy }
}

/// Self-executing execution: exact event-driven completion times with
/// busy-wait semantics.
pub fn sim_self_executing(
    schedule: &Schedule,
    deps: &DepGraph,
    weights: Option<&[f64]>,
    cost: &CostModel,
) -> SimOutcome {
    let n = schedule.n();
    assert_eq!(deps.n(), n);
    let nprocs = schedule.nprocs();
    let mut completion = vec![0.0f64; n];
    let mut avail = vec![0.0f64; nprocs];
    let mut busy = 0.0;
    // Wavefront-major, processor-minor order: every dependence lives in an
    // earlier wavefront, and each processor's own order is respected.
    for w in 0..schedule.num_phases() {
        for p in 0..nprocs {
            for &i in schedule.phase_slice(p, w) {
                let i = i as usize;
                let mut ready_at = avail[p];
                for &d in deps.deps(i) {
                    ready_at = ready_at.max(completion[d as usize]);
                }
                let ndeps = deps.deps(i).len() as f64;
                let work = cost.tcheck * ndeps + cost.tp * weight(weights, i) + cost.tinc;
                completion[i] = ready_at + work;
                avail[p] = completion[i];
                busy += work;
            }
        }
    }
    let time = avail.iter().cloned().fold(0.0, f64::max);
    SimOutcome { time, nprocs, busy }
}

/// Pre-scheduled execution with **barrier elision** (Nicol & Saltz \[13\]
/// tradeoff): between two kept barriers each processor runs its phases
/// back-to-back, so a segment costs the *maximum over processors of their
/// summed segment work* plus one `Tsynch` per kept barrier. The plan must
/// cover all cross-processor dependences ([`BarrierPlan::validate`]).
pub fn sim_pre_scheduled_elided(
    schedule: &Schedule,
    plan: &BarrierPlan,
    weights: Option<&[f64]>,
    cost: &CostModel,
) -> SimOutcome {
    let nprocs = schedule.nprocs();
    let num_phases = schedule.num_phases();
    assert_eq!(plan.len(), num_phases.saturating_sub(1));
    let mut time = 0.0;
    let mut busy = 0.0;
    let mut seg_work = vec![0.0f64; nprocs];
    for w in 0..num_phases {
        for (p, acc) in seg_work.iter_mut().enumerate() {
            let t: f64 = schedule
                .phase_slice(p, w)
                .iter()
                .map(|&i| cost.tp * weight(weights, i as usize))
                .sum();
            *acc += t;
            busy += t;
        }
        let boundary_kept = w + 1 < num_phases && plan.is_kept(w);
        if boundary_kept || w + 1 == num_phases {
            time += seg_work.iter().cloned().fold(0.0, f64::max);
            seg_work.fill(0.0);
        }
        if boundary_kept {
            time += cost.tsynch;
            busy += cost.tsynch * nprocs as f64;
        }
    }
    SimOutcome { time, nprocs, busy }
}

/// Self-executing execution at **operand granularity**: the inner loop of a
/// row substitution (Figure 8, S2) busy-waits per operand, so a long row
/// overlaps its early multiply–adds with the production of its later
/// operands. This is what makes the dense-triangular extreme of §4 finish in
/// `Tsaxpy·(n−1)` instead of serializing. Rows are charged `Tp` per
/// dependence (one multiply–add each) plus `Tp·(w_i − ndeps)` of residual
/// work up front.
pub fn sim_self_executing_fine(
    schedule: &Schedule,
    deps: &DepGraph,
    weights: Option<&[f64]>,
    cost: &CostModel,
) -> SimOutcome {
    let n = schedule.n();
    assert_eq!(deps.n(), n);
    let nprocs = schedule.nprocs();
    let mut completion = vec![0.0f64; n];
    let mut avail = vec![0.0f64; nprocs];
    let mut busy = 0.0;
    for w in 0..schedule.num_phases() {
        for p in 0..nprocs {
            for &i in schedule.phase_slice(p, w) {
                let i = i as usize;
                let d_list = deps.deps(i);
                let residual = (weight(weights, i) - d_list.len() as f64).max(0.0);
                let start = avail[p];
                let mut t = start + cost.tp * residual;
                for &d in d_list {
                    t = t.max(completion[d as usize]) + cost.tcheck + cost.tp;
                }
                t += cost.tinc;
                completion[i] = t;
                avail[p] = t;
                // Busy time excludes operand-wait stalls.
                busy +=
                    cost.tp * residual + d_list.len() as f64 * (cost.tcheck + cost.tp) + cost.tinc;
            }
        }
    }
    let time = avail.iter().cloned().fold(0.0, f64::max);
    SimOutcome { time, nprocs, busy }
}

/// Doacross execution: natural index order, index `i` on processor
/// `i mod p`, busy-wait on dependences. Requires a forward graph.
pub fn sim_doacross(
    deps: &DepGraph,
    nprocs: usize,
    weights: Option<&[f64]>,
    cost: &CostModel,
) -> SimOutcome {
    assert!(deps.is_forward(), "doacross simulation needs forward deps");
    assert!(nprocs >= 1);
    let n = deps.n();
    let mut completion = vec![0.0f64; n];
    let mut avail = vec![0.0f64; nprocs];
    let mut busy = 0.0;
    for i in 0..n {
        let p = i % nprocs;
        let mut ready_at = avail[p];
        for &d in deps.deps(i) {
            ready_at = ready_at.max(completion[d as usize]);
        }
        let ndeps = deps.deps(i).len() as f64;
        let work = cost.tcheck * ndeps + cost.tp * weight(weights, i) + cost.tinc;
        completion[i] = ready_at + work;
        avail[p] = completion[i];
        busy += work;
    }
    let time = avail.iter().cloned().fold(0.0, f64::max);
    SimOutcome { time, nprocs, busy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpl_inspector::Wavefronts;
    use rtpl_sparse::gen::{dense_lower, laplacian_5pt, tridiagonal};

    fn mesh_setup(nx: usize, ny: usize, p: usize) -> (DepGraph, Schedule) {
        let a = laplacian_5pt(nx, ny);
        let g = DepGraph::from_lower_triangular(&a.strict_lower()).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let s = Schedule::global(&wf, p).unwrap();
        (g, s)
    }

    /// Lower bounds no schedule or synchronization discipline can beat:
    /// `(critical_path, work_over_p)` — the weighted longest dependence chain,
    /// and total work divided by the processor count. Every simulated (and
    /// real) parallel time is at least `max` of the two; the gap to that bound
    /// is what scheduling quality is about.
    fn lower_bounds(
        deps: &DepGraph,
        nprocs: usize,
        weights: Option<&[f64]>,
        cost: &CostModel,
    ) -> (f64, f64) {
        assert!(deps.is_forward(), "bounds need a forward graph");
        let n = deps.n();
        let mut cp = vec![0.0f64; n];
        let mut longest = 0.0f64;
        for i in 0..n {
            let mut start = 0.0f64;
            for &d in deps.deps(i) {
                start = start.max(cp[d as usize]);
            }
            cp[i] = start + cost.tp * weight(weights, i);
            longest = longest.max(cp[i]);
        }
        let work = sim_sequential(n, weights, cost);
        (longest, work / nprocs as f64)
    }

    #[test]
    fn single_processor_equals_sequential() {
        let (g, s) = mesh_setup(6, 6, 1);
        let cost = CostModel::zero_overhead();
        let seq = sim_sequential(36, None, &cost);
        let pre = sim_pre_scheduled(&s, None, &cost);
        let se = sim_self_executing(&s, &g, None, &cost);
        assert!((pre.time - seq).abs() < 1e-12);
        assert!((se.time - seq).abs() < 1e-12);
    }

    #[test]
    fn parallel_time_bounded_by_critical_path_and_sequential() {
        let (g, s) = mesh_setup(8, 8, 4);
        let cost = CostModel::zero_overhead();
        let seq = sim_sequential(64, None, &cost);
        let critical = s.num_phases() as f64; // unit weights: one per phase
        for outcome in [
            sim_self_executing(&s, &g, None, &cost),
            sim_pre_scheduled(&s, None, &cost),
        ] {
            assert!(outcome.time >= critical - 1e-12);
            assert!(outcome.time <= seq + 1e-12);
        }
    }

    #[test]
    fn self_executing_never_slower_than_pre_scheduled_zero_overhead() {
        // With zero overheads, pipelining can only help (the paper: "the
        // parallelism available from the self-executing version is always
        // better").
        for (nx, ny, p) in [(8, 8, 4), (12, 5, 3), (16, 16, 8)] {
            let (g, s) = mesh_setup(nx, ny, p);
            let cost = CostModel::zero_overhead();
            let se = sim_self_executing(&s, &g, None, &cost);
            let pre = sim_pre_scheduled(&s, None, &cost);
            assert!(
                se.time <= pre.time + 1e-9,
                "{nx}x{ny} p={p}: SE {} > PS {}",
                se.time,
                pre.time
            );
        }
    }

    #[test]
    fn chain_is_sequential_for_everyone() {
        let a = tridiagonal(20, 2.0, -1.0);
        let g = DepGraph::from_lower_triangular(&a.strict_lower()).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let s = Schedule::global(&wf, 4).unwrap();
        let cost = CostModel::zero_overhead();
        let se = sim_self_executing(&s, &g, None, &cost);
        assert!((se.time - 20.0).abs() < 1e-12, "chain cannot be sped up");
    }

    #[test]
    fn dense_lower_pipeline_efficiency_half() {
        // §4 extreme case: n×n dense unit-diagonal lower solve on n−1
        // processors. Self-execution pipelines to E ≈ 1/2; pre-scheduling
        // gets no parallelism at all.
        let n = 24;
        let l = dense_lower(n).strict_lower();
        let g = DepGraph::from_lower_triangular(&l).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let p = n - 1;
        // Weights: row i performs i multiply-adds.
        let weights: Vec<f64> = (0..n).map(|i| i.max(1) as f64).collect();
        let cost = CostModel::zero_overhead();
        let seq = sim_sequential(n, Some(&weights), &cost);

        let s_global = Schedule::global(&wf, p).unwrap();
        let se = sim_self_executing_fine(&s_global, &g, Some(&weights), &cost);
        let e_se = se.efficiency(seq);
        assert!(
            (0.30..=0.65).contains(&e_se),
            "self-exec efficiency should be ≈ 1/2, got {e_se}"
        );
        let pre = sim_pre_scheduled(&s_global, Some(&weights), &cost);
        let e_pre = pre.efficiency(seq);
        assert!(
            e_pre < 2.5 / p as f64,
            "pre-scheduled efficiency should collapse to ~1/p, got {e_pre}"
        );
    }

    #[test]
    fn doacross_never_faster_than_self_executing_on_mesh() {
        let (g, s) = mesh_setup(10, 10, 4);
        let cost = CostModel::zero_overhead();
        let se = sim_self_executing(&s, &g, None, &cost);
        let da = sim_doacross(&g, 4, None, &cost);
        assert!(da.time >= se.time - 1e-9);
    }

    #[test]
    fn barrier_cost_charged_per_interior_phase() {
        let (_, s) = mesh_setup(5, 5, 2);
        let zero = CostModel::zero_overhead();
        let mut with_sync = zero;
        with_sync.tsynch = 10.0;
        let t0 = sim_pre_scheduled(&s, None, &zero).time;
        let t1 = sim_pre_scheduled(&s, None, &with_sync).time;
        let phases = s.num_phases() as f64;
        assert!((t1 - t0 - 10.0 * (phases - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn check_and_inc_costs_charged_per_index() {
        let (g, s) = mesh_setup(4, 4, 1);
        let zero = CostModel::zero_overhead();
        let mut c = zero;
        c.tinc = 1.0;
        c.tcheck = 1.0;
        let t0 = sim_self_executing(&s, &g, None, &zero).time;
        let t1 = sim_self_executing(&s, &g, None, &c).time;
        // On one processor: extra = n·tinc + edges·tcheck.
        let expect = 16.0 * 1.0 + g.num_edges() as f64 * 1.0;
        assert!((t1 - t0 - expect).abs() < 1e-9);
    }

    #[test]
    fn lower_bounds_bound_every_discipline() {
        let (g, s) = mesh_setup(9, 7, 3);
        let cost = CostModel::zero_overhead();
        let (cp, wp) = lower_bounds(&g, 3, None, &cost);
        let bound = cp.max(wp);
        for t in [
            sim_self_executing(&s, &g, None, &cost).time,
            sim_pre_scheduled(&s, None, &cost).time,
            sim_doacross(&g, 3, None, &cost).time,
        ] {
            assert!(t >= bound - 1e-12, "time {t} below bound {bound}");
        }
        // On a mesh the critical path is one full anti-diagonal traversal.
        assert!((cp - s.num_phases() as f64).abs() < 1e-12);
    }

    #[test]
    fn chain_bound_equals_sequential() {
        let a = tridiagonal(15, 2.0, -1.0);
        let g = DepGraph::from_lower_triangular(&a.strict_lower()).unwrap();
        let cost = CostModel::zero_overhead();
        let (cp, _) = lower_bounds(&g, 4, None, &cost);
        assert!((cp - 15.0).abs() < 1e-12, "a chain's CP is all of it");
    }

    #[test]
    fn elided_sim_with_full_plan_matches_plain() {
        let (_, s) = mesh_setup(7, 9, 3);
        let cost = CostModel::multimax();
        let plan = BarrierPlan::full(s.num_phases());
        let a = sim_pre_scheduled(&s, None, &cost);
        let b = sim_pre_scheduled_elided(&s, &plan, None, &cost);
        assert!((a.time - b.time).abs() < 1e-9);
    }

    #[test]
    fn elision_never_slows_the_simulation() {
        use rtpl_inspector::Partition;
        let a = laplacian_5pt(10, 10);
        let g = DepGraph::from_lower_triangular(&a.strict_lower()).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let cost = CostModel::multimax();
        for p in [2usize, 4] {
            let s = Schedule::local(&wf, &Partition::contiguous(100, p).unwrap()).unwrap();
            let plan = BarrierPlan::minimal(&s, &g).unwrap();
            plan.validate(&s, &g).unwrap();
            let full = sim_pre_scheduled(&s, None, &cost).time;
            let elided = sim_pre_scheduled_elided(&s, &plan, None, &cost).time;
            assert!(
                elided <= full + 1e-9,
                "p={p}: elided {elided} > full {full}"
            );
            assert!(plan.count() < s.num_phases() - 1, "some elision expected");
        }
    }

    #[test]
    fn efficiency_and_idle_fraction_consistent() {
        let (g, s) = mesh_setup(8, 6, 3);
        let cost = CostModel::zero_overhead();
        let seq = sim_sequential(48, None, &cost);
        let se = sim_self_executing(&s, &g, None, &cost);
        let e = se.efficiency(seq);
        // With zero overhead, efficiency = busy fraction.
        assert!((e - (1.0 - se.idle_fraction())).abs() < 1e-12);
    }
}
