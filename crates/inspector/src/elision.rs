//! Barrier elision for pre-scheduled execution.
//!
//! The paper cites Nicol & Saltz \[13\] for "rearranging the global
//! synchronizations in a way that obtains a tradeoff between improved load
//! balance and the costs of the global synchronizations". This module
//! implements the synchronization-reduction half of that tradeoff: a
//! barrier between phases `w` and `w+1` is only *needed* if some dependence
//! crosses it **between different processors** — same-processor dependences
//! are ordered by program order, and a dependence spanning several phases
//! is satisfied by *any one* kept barrier inside its span.
//!
//! Formally, every cross-processor dependence `d → i` defines the interval
//! of boundaries `[wf(d), wf(i) − 1]` of which at least one must be kept.
//! Choosing the minimum set of boundaries is the classic interval
//! point-cover problem, solved exactly by the greedy "keep a barrier at an
//! interval's right endpoint only when the interval is not yet covered"
//! sweep below.

use crate::dep::DepGraph;
use crate::schedule::Schedule;
use crate::{InspectorError, Result};
use rtpl_sparse::wire::{WireReader, WireResult, WireWriter};

/// Which inter-phase barriers a pre-scheduled execution must keep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BarrierPlan {
    /// `keep[w]` — whether the barrier between phase `w` and `w+1` is
    /// needed (`len = num_phases − 1`).
    keep: Vec<bool>,
}

impl BarrierPlan {
    /// Keeps every barrier (the plain Figure 5 executor).
    pub fn full(num_phases: usize) -> Self {
        BarrierPlan {
            keep: vec![true; num_phases.saturating_sub(1)],
        }
    }

    /// Computes the **minimum** barrier set for `schedule` under `deps`.
    ///
    /// Greedy point cover over the cross-processor dependence intervals;
    /// optimal because intervals are processed in order of right endpoint.
    pub fn minimal(schedule: &Schedule, deps: &DepGraph) -> Result<Self> {
        let n = schedule.n();
        if deps.n() != n {
            return Err(InspectorError::InvalidSchedule(format!(
                "graph size {} != schedule size {n}",
                deps.n()
            )));
        }
        let num_phases = schedule.num_phases();
        let owners = schedule.owners();
        // Bucket cross-processor dependence intervals by right endpoint
        // r = wf(i) − 1; store the left endpoint wf(d).
        let mut by_right: Vec<Vec<u32>> = vec![Vec::new(); num_phases.saturating_sub(1)];
        for i in 0..n {
            for &d in deps.deps(i) {
                let d = d as usize;
                if owners[d] == owners[i] {
                    continue; // program order covers it
                }
                let l = schedule.wavefront_of(d);
                let r = schedule.wavefront_of(i) - 1; // wf(i) > wf(d) always
                by_right[r as usize].push(l);
            }
        }
        let mut keep = vec![false; num_phases.saturating_sub(1)];
        // last_kept+1 = first boundary index not yet covered (use i64 for
        // the "none kept yet" state).
        let mut last_kept: i64 = -1;
        for (r, lefts) in by_right.iter().enumerate() {
            // An interval [l, r] is uncovered iff l > last_kept.
            if lefts.iter().any(|&l| (l as i64) > last_kept) {
                keep[r] = true;
                last_kept = r as i64;
            }
        }
        Ok(BarrierPlan { keep })
    }

    /// Whether the barrier after phase `w` is kept.
    #[inline]
    pub fn is_kept(&self, w: usize) -> bool {
        self.keep[w]
    }

    /// Slice view.
    pub fn as_slice(&self) -> &[bool] {
        &self.keep
    }

    /// Number of barriers kept.
    pub fn count(&self) -> usize {
        self.keep.iter().filter(|&&k| k).count()
    }

    /// Total boundary count (`num_phases − 1`).
    pub fn len(&self) -> usize {
        self.keep.len()
    }

    /// True when there are no boundaries at all.
    pub fn is_empty(&self) -> bool {
        self.keep.is_empty()
    }

    /// Serializes the kept-barrier set in the [`rtpl_sparse::wire`] format.
    pub fn encode(&self, w: &mut WireWriter) {
        let bytes: Vec<u8> = self.keep.iter().map(|&k| k as u8).collect();
        w.put_u8s(&bytes);
    }

    /// Decodes a plan written by [`BarrierPlan::encode`]. Length agreement
    /// with the owning schedule (`num_phases − 1`) is the caller's cheap
    /// check; coverage was proven at build time and persists unchanged.
    pub fn decode(r: &mut WireReader) -> WireResult<BarrierPlan> {
        let keep = r.u8s()?.into_iter().map(|b| b != 0).collect();
        Ok(BarrierPlan { keep })
    }

    /// Verifies that every cross-processor dependence of `schedule` is
    /// covered by some kept barrier (sound-ness check; used in tests and
    /// debug assertions).
    pub fn validate(&self, schedule: &Schedule, deps: &DepGraph) -> Result<()> {
        let owners = schedule.owners();
        // prefix_kept[w] = index of the last kept boundary < w, or -1.
        let mut last_kept_upto = vec![-1i64; self.keep.len() + 1];
        for w in 0..self.keep.len() {
            last_kept_upto[w + 1] = if self.keep[w] {
                w as i64
            } else {
                last_kept_upto[w]
            };
        }
        for i in 0..deps.n() {
            for &d in deps.deps(i) {
                let d = d as usize;
                if owners[d] == owners[i] {
                    continue;
                }
                let l = schedule.wavefront_of(d) as i64;
                let r = schedule.wavefront_of(i) as usize; // boundary r-1 is last candidate
                if last_kept_upto[r] < l {
                    return Err(InspectorError::InvalidSchedule(format!(
                        "dependence {d} -> {i} crosses phases [{l}, {r}) with no kept barrier"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Partition, Wavefronts};
    use rtpl_sparse::gen::{laplacian_5pt, random_lower, tridiagonal};

    fn mesh(nx: usize, ny: usize) -> DepGraph {
        DepGraph::from_lower_triangular(&laplacian_5pt(nx, ny).strict_lower()).unwrap()
    }

    #[test]
    fn full_plan_keeps_everything() {
        let p = BarrierPlan::full(5);
        assert_eq!(p.count(), 4);
        assert!((0..4).all(|w| p.is_kept(w)));
    }

    #[test]
    fn single_processor_needs_no_barriers() {
        let g = mesh(6, 6);
        let wf = Wavefronts::compute(&g).unwrap();
        let s = Schedule::global(&wf, 1).unwrap();
        let plan = BarrierPlan::minimal(&s, &g).unwrap();
        assert_eq!(plan.count(), 0, "one processor: pure program order");
        plan.validate(&s, &g).unwrap();
    }

    #[test]
    fn contiguous_partition_elides_most_barriers() {
        // With contiguous row blocks on a mesh, the west neighbour (i-1) is
        // almost always on the same processor; only block-crossing deps
        // force barriers.
        let g = mesh(8, 8);
        let wf = Wavefronts::compute(&g).unwrap();
        let part = Partition::contiguous(64, 4).unwrap();
        let s = Schedule::local(&wf, &part).unwrap();
        let full = BarrierPlan::full(s.num_phases());
        let min = BarrierPlan::minimal(&s, &g).unwrap();
        min.validate(&s, &g).unwrap();
        assert!(
            min.count() < full.count(),
            "elision must remove barriers: {} vs {}",
            min.count(),
            full.count()
        );
    }

    #[test]
    fn global_wrapped_schedule_keeps_nearly_all() {
        // Wrapped assignment scatters neighbours across processors, so
        // nearly every boundary carries a cross-processor dependence.
        let g = mesh(8, 8);
        let wf = Wavefronts::compute(&g).unwrap();
        let s = Schedule::global(&wf, 4).unwrap();
        let min = BarrierPlan::minimal(&s, &g).unwrap();
        min.validate(&s, &g).unwrap();
        assert!(min.count() >= s.num_phases() - 2);
    }

    #[test]
    fn chain_on_contiguous_blocks_needs_p_minus_1_barriers() {
        // A pure chain split into contiguous blocks: only the block-to-block
        // handoffs need synchronization.
        let g =
            DepGraph::from_lower_triangular(&tridiagonal(20, 2.0, -1.0).strict_lower()).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let part = Partition::contiguous(20, 4).unwrap();
        let s = Schedule::local(&wf, &part).unwrap();
        let min = BarrierPlan::minimal(&s, &g).unwrap();
        min.validate(&s, &g).unwrap();
        assert_eq!(min.count(), 3, "three block boundaries");
    }

    #[test]
    fn validate_rejects_undercover() {
        let g = mesh(5, 5);
        let wf = Wavefronts::compute(&g).unwrap();
        let s = Schedule::global(&wf, 3).unwrap();
        let mut plan = BarrierPlan::minimal(&s, &g).unwrap();
        // Drop a kept barrier: must fail validation.
        if let Some(w) = (0..plan.len()).find(|&w| plan.is_kept(w)) {
            plan.keep[w] = false;
            assert!(plan.validate(&s, &g).is_err());
        }
    }

    #[test]
    fn minimal_is_no_larger_than_full_on_random_dags() {
        for seed in 0..5 {
            let l = random_lower(60, 3, seed).strict_lower();
            let g = DepGraph::from_lower_triangular(&l).unwrap();
            let wf = Wavefronts::compute(&g).unwrap();
            for p in [2usize, 3] {
                let s = Schedule::local(&wf, &Partition::contiguous(60, p).unwrap()).unwrap();
                let min = BarrierPlan::minimal(&s, &g).unwrap();
                min.validate(&s, &g).unwrap();
                assert!(min.count() <= s.num_phases().saturating_sub(1));
            }
        }
    }
}
