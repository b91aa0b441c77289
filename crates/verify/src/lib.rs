//! # rtpl-verify — static plan verification and a race oracle
//!
//! The inspector/executor bet is that inspection is paid once and its
//! product — the schedule — is trusted forever after. This crate closes the
//! trust gaps that the rest of the workspace opened: compiled operand
//! layouts ([`rtpl_executor::CompiledPlan`]) and artifacts decoded from an
//! on-disk plan store execute at full speed with `Relaxed` atomics and
//! plain reads, yet nothing in the decode path *proves* they still preserve
//! the dependence graph. Three independent passes do:
//!
//! 1. **Plan verifier** ([`verify_plan`], [`verify_layout`],
//!    [`verify_tri_solve`], [`verify_linear`]) — given a
//!    [`DepGraph`] + [`Schedule`] + [`BarrierPlan`] (and optionally a
//!    compiled layout), prove every dependence edge is ordered under each
//!    execution policy's happens-before model:
//!    * `SelfExecuting` — every edge must cross to a strictly later
//!      wavefront; publish (`Release`) / busy-wait (`Acquire`) then covers
//!      it, and wavefront order guarantees deadlock freedom;
//!    * `PreScheduled` — every edge crosses a full phase barrier (strictly
//!      later wavefront); reads are *plain*, so there is no dynamic
//!      fallback to catch a misordered edge;
//!    * `PreScheduledElided` — as above, **and** every cross-processor
//!      edge must have a *kept* barrier between its endpoint phases
//!      (an over-elided plan is unsound, not just slow);
//!    * `Doacross` — every dependence must point backward in natural
//!      index order ([`verify_doacross`]).
//!
//!    Layout verification additionally re-proves what
//!    [`rtpl_executor::CompiledPlan::decode`] deliberately does not: the
//!    position permutation and its inverse agree, per-processor segments
//!    are disjoint, contiguous, and phase-aligned with the schedule,
//!    operands sit in strictly earlier wavefronts, and all gather/scale
//!    indices are in bounds. Every rejection is a typed [`VerifyError`]
//!    naming the violated edge or offset.
//! 2. **Race oracle** ([`race`]) — with `--features verify-trace` the
//!    executors log every publication, dependence read, and barrier
//!    arrival; [`race::check_trace`] replays the log through vector clocks
//!    and proves "no unordered conflicting accesses" for a real execution.
//! 3. **Invariant lint** — `src/bin/rtpl-lint.rs` at the workspace root, a
//!    tokenizer-level pass enforcing the repo's `unsafe`/`unwrap`/atomic
//!    `Ordering` rules; see the README's "Correctness tooling" section.
//!
//! Verification is **off the execution hot path**: the runtime verifies a
//! plan once when it is built (debug builds only) or decoded from
//! untrusted store bytes (always), never per solve.
//!
//! [`DepGraph`]: rtpl_inspector::DepGraph
//! [`Schedule`]: rtpl_inspector::Schedule
//! [`BarrierPlan`]: rtpl_inspector::BarrierPlan

pub mod race;

use rtpl_executor::{CompiledPlan, LayoutView, PlannedLoop};
use rtpl_inspector::{BarrierPlan, DepGraph, Schedule};
use rtpl_krylov::CompiledTriSolve;

/// A proof obligation the plan failed, naming the offending edge/offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Two components disagree about a basic dimension.
    SizeMismatch {
        what: &'static str,
        expected: usize,
        found: usize,
    },
    /// `row` is duplicated or missing from the schedule's processor lists.
    NotAPermutation { row: u32 },
    /// `row` sits in phase `phase` but carries wavefront label `wavefront`.
    WavefrontMismatch {
        row: u32,
        phase: u32,
        wavefront: u32,
    },
    /// Dependence `from → to` neither crosses to a strictly later phase nor
    /// sits earlier on the consumer's own processor within a coalesced
    /// phase, so no happens-before model (barrier, publish/wait, or
    /// same-thread program order) orders it.
    EdgeNotWavefrontOrdered {
        from: u32,
        to: u32,
        from_phase: u32,
        to_phase: u32,
    },
    /// Cross-processor dependence `from → to` has no *kept* barrier between
    /// its endpoint phases — the elided plan under-synchronizes.
    ElidedBarrierMissing {
        from: u32,
        to: u32,
        from_phase: u32,
        to_phase: u32,
    },
    /// Dependence `dep → row` points forward in natural order, so the
    /// doacross policy (or a layout claiming natural order) deadlocks.
    NotForward { row: u32, dep: u32 },
    /// The barrier plan's length does not match the phase structure.
    BarrierLengthMismatch { expected: usize, found: usize },
    /// A per-processor segment table is not monotone/contiguous.
    SegmentMalformed { proc: u32, detail: &'static str },
    /// The layout's position permutation is broken at `pos` (duplicate
    /// target row, or `pos_of_row` disagrees with `target`).
    RowMisplaced { pos: u32, row: u32 },
    /// Layout position `pos` executes `row`, but the schedule places a
    /// different row there.
    PhaseDisagrees { pos: u32, row: u32 },
    /// The output map duplicates or drops caller index slots at `row`.
    OutMapNotBijective { row: u32 },
    /// An operand of `row` references a plan-space index out of range.
    OperandOutOfBounds { row: u32, operand: u32 },
    /// An operand of `row` is neither scheduled in a strictly earlier
    /// phase nor at an earlier position on `row`'s own processor, so the
    /// pre-scheduled plain read is unordered.
    OperandNotEarlier { row: u32, operand: u32 },
    /// A value-gather source at layout offset `pos` exceeds the declared
    /// caller value-array length.
    ValueSourceOutOfBounds { pos: u32, src: u32 },
    /// A reciprocal-scale source of `row` exceeds the declared caller
    /// value-array length.
    ScaleSourceOutOfBounds { row: u32, src: u32 },
    /// The layout's operand list for `row` is not the dependence list the
    /// graph prescribes.
    AdjacencyMismatch { row: u32 },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::SizeMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "size mismatch: {what} expected {expected}, found {found}"
            ),
            VerifyError::NotAPermutation { row } => {
                write!(f, "schedule is not a permutation at row {row}")
            }
            VerifyError::WavefrontMismatch {
                row,
                phase,
                wavefront,
            } => write!(
                f,
                "row {row} scheduled in phase {phase} but labeled wavefront {wavefront}"
            ),
            VerifyError::EdgeNotWavefrontOrdered {
                from,
                to,
                from_phase,
                to_phase,
            } => write!(
                f,
                "dependence {from} -> {to} not wavefront-ordered \
                 (phases {from_phase} -> {to_phase})"
            ),
            VerifyError::ElidedBarrierMissing {
                from,
                to,
                from_phase,
                to_phase,
            } => write!(
                f,
                "cross-processor dependence {from} -> {to} has no kept barrier \
                 in phases [{from_phase}, {to_phase})"
            ),
            VerifyError::NotForward { row, dep } => {
                write!(
                    f,
                    "dependence {dep} -> {row} is not forward in natural order"
                )
            }
            VerifyError::BarrierLengthMismatch { expected, found } => {
                write!(
                    f,
                    "barrier plan covers {found} boundaries, phases need {expected}"
                )
            }
            VerifyError::SegmentMalformed { proc, detail } => {
                write!(f, "processor {proc} segment table malformed: {detail}")
            }
            VerifyError::RowMisplaced { pos, row } => {
                write!(f, "layout position {pos} / row {row}: permutation broken")
            }
            VerifyError::PhaseDisagrees { pos, row } => write!(
                f,
                "layout position {pos} executes row {row}, schedule disagrees"
            ),
            VerifyError::OutMapNotBijective { row } => {
                write!(f, "output map is not a bijection at row {row}")
            }
            VerifyError::OperandOutOfBounds { row, operand } => {
                write!(f, "operand {operand} of row {row} out of plan-space bounds")
            }
            VerifyError::OperandNotEarlier { row, operand } => write!(
                f,
                "operand {operand} of row {row} is not in a strictly earlier wavefront"
            ),
            VerifyError::ValueSourceOutOfBounds { pos, src } => {
                write!(f, "value source {src} at layout offset {pos} out of bounds")
            }
            VerifyError::ScaleSourceOutOfBounds { row, src } => {
                write!(f, "scale source {src} of row {row} out of bounds")
            }
            VerifyError::AdjacencyMismatch { row } => write!(
                f,
                "layout operands of row {row} differ from the dependence graph"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// `last_kept_before[w]` = the phase boundary index of the last *kept*
/// barrier strictly before phase `w`, or `usize::MAX` if none is kept
/// (boundary `b` separates phases `b` and `b + 1`).
fn last_kept_before(barriers: &BarrierPlan, num_phases: usize) -> Vec<usize> {
    let mut lku = vec![usize::MAX; num_phases.max(1)];
    for w in 1..num_phases {
        lku[w] = if barriers.is_kept(w - 1) {
            w - 1
        } else {
            lku[w - 1]
        };
    }
    lku
}

/// Proves a schedule + barrier plan sound against a dependence graph under
/// the happens-before models of all three schedule-driven policies
/// (`SelfExecuting`, `PreScheduled`, `PreScheduledElided`):
///
/// * the processor lists form a permutation of `0..n` and every row sits in
///   the phase matching its phase label;
/// * every dependence edge crosses to a strictly later phase (covers the
///   publish/wait model *and* the full-barrier model), **or** — for a
///   coalesced schedule — stays inside one phase on the same processor at
///   an earlier list position, where same-thread program order covers it;
/// * every cross-processor edge has a kept barrier between its endpoint
///   phases (the elided model).
///
/// Doacross eligibility is a property of the graph alone — see
/// [`verify_doacross`].
pub fn verify_plan(
    graph: &DepGraph,
    schedule: &Schedule,
    barriers: &BarrierPlan,
) -> Result<(), VerifyError> {
    let n = graph.n();
    if schedule.n() != n {
        return Err(VerifyError::SizeMismatch {
            what: "schedule rows vs graph nodes",
            expected: n,
            found: schedule.n(),
        });
    }
    let num_phases = schedule.num_phases();
    if barriers.len() != num_phases.saturating_sub(1) {
        return Err(VerifyError::BarrierLengthMismatch {
            expected: num_phases.saturating_sub(1),
            found: barriers.len(),
        });
    }
    // Permutation + phase-label agreement, recording each row's processor
    // and list position for the intra-phase order proof.
    let mut seen = vec![false; n];
    let mut pos = vec![0u32; n];
    for p in 0..schedule.nprocs() {
        let mut k = 0u32;
        for w in 0..num_phases {
            for &i in schedule.phase_slice(p, w) {
                let row = i as usize;
                if row >= n || seen[row] {
                    return Err(VerifyError::NotAPermutation { row: i });
                }
                seen[row] = true;
                pos[row] = k;
                k += 1;
                if schedule.wavefront_of(row) as usize != w {
                    return Err(VerifyError::WavefrontMismatch {
                        row: i,
                        phase: w as u32,
                        wavefront: schedule.wavefront_of(row),
                    });
                }
            }
        }
    }
    if let Some(row) = seen.iter().position(|&s| !s) {
        return Err(VerifyError::NotAPermutation { row: row as u32 });
    }
    // Edge ordering under each model.
    let owners = schedule.owners();
    let lku = last_kept_before(barriers, num_phases);
    for i in 0..n {
        let wi = schedule.wavefront_of(i) as usize;
        for &d in graph.deps(i) {
            let dep = d as usize;
            let wd = schedule.wavefront_of(dep) as usize;
            let ordered = wd < wi || (wd == wi && owners[dep] == owners[i] && pos[dep] < pos[i]);
            if !ordered {
                return Err(VerifyError::EdgeNotWavefrontOrdered {
                    from: d,
                    to: i as u32,
                    from_phase: wd as u32,
                    to_phase: wi as u32,
                });
            }
            if owners[dep] != owners[i] {
                let l = lku[wi];
                if l == usize::MAX || l < wd {
                    return Err(VerifyError::ElidedBarrierMissing {
                        from: d,
                        to: i as u32,
                        from_phase: wd as u32,
                        to_phase: wi as u32,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Proves the graph legal for the `Doacross` policy: every dependence must
/// point strictly backward in natural index order (otherwise the striped
/// busy-wait executor deadlocks).
pub fn verify_doacross(graph: &DepGraph) -> Result<(), VerifyError> {
    if graph.is_forward() {
        return Ok(());
    }
    for i in 0..graph.n() {
        for &d in graph.deps(i) {
            if d as usize >= i {
                return Err(VerifyError::NotForward {
                    row: i as u32,
                    dep: d,
                });
            }
        }
    }
    // `is_forward()` said no but every edge checked out — treat the
    // inconsistent flag itself as the violation at the last row.
    Err(VerifyError::NotForward {
        row: graph.n() as u32,
        dep: 0,
    })
}

/// Proves a compiled layout sound against the schedule it claims to
/// implement — everything [`CompiledPlan::decode`] deliberately leaves
/// unchecked on untrusted bytes:
///
/// * per-processor segments contiguous, monotone, phase-aligned;
/// * the position permutation (`target`) is a bijection and `pos_of_row`
///   its exact inverse;
/// * every layout phase slice equals the schedule's phase slice, in order;
/// * the output map is a bijection;
/// * every operand is in bounds and ordered before its consumer — a
///   strictly earlier phase, or an earlier position on the consumer's own
///   processor within a coalesced phase; every value/scale gather source
///   is in bounds, and every supernode-shared operand run stays inside the
///   deduplicated `ops` array;
/// * the embedded barrier plan covers every cross-processor operand edge;
/// * if the layout claims natural order (`forward`, doacross-eligible),
///   every operand points strictly backward in plan space.
pub fn verify_layout(schedule: &Schedule, layout: &LayoutView<'_>) -> Result<(), VerifyError> {
    let n = schedule.n();
    let nprocs = schedule.nprocs();
    let num_phases = schedule.num_phases();
    for (what, expected, found) in [
        ("layout n vs schedule n", n, layout.n),
        ("layout nprocs vs schedule nprocs", nprocs, layout.nprocs),
        (
            "layout phases vs schedule phases",
            num_phases,
            layout.num_phases,
        ),
        ("target length", n, layout.target.len()),
        ("pos_of_row length", n, layout.pos_of_row.len()),
        ("out_map length", n, layout.out_map.len()),
        ("rhs length", n, layout.rhs.len()),
        ("val_ptr length", n + 1, layout.val_ptr.len()),
        ("op_start length", n, layout.op_start.len()),
        ("proc_ptr length", nprocs + 1, layout.proc_ptr.len()),
        (
            "phase_ptr length",
            nprocs * (num_phases + 1),
            layout.phase_ptr.len(),
        ),
    ] {
        if found != expected {
            return Err(VerifyError::SizeMismatch {
                what,
                expected,
                found,
            });
        }
    }
    // Processor segments: contiguous cover of 0..n, phase-aligned.
    if layout.proc_ptr[0] != 0 || layout.proc_ptr[nprocs] != n {
        return Err(VerifyError::SegmentMalformed {
            proc: 0,
            detail: "proc_ptr does not cover 0..n",
        });
    }
    for p in 0..nprocs {
        if layout.proc_ptr[p] > layout.proc_ptr[p + 1] {
            return Err(VerifyError::SegmentMalformed {
                proc: p as u32,
                detail: "proc_ptr not monotone",
            });
        }
        let seg = &layout.phase_ptr[p * (num_phases + 1)..(p + 1) * (num_phases + 1)];
        if seg[0] != layout.proc_ptr[p] || seg[num_phases] != layout.proc_ptr[p + 1] {
            return Err(VerifyError::SegmentMalformed {
                proc: p as u32,
                detail: "phase_ptr does not span the processor segment",
            });
        }
        if seg.windows(2).any(|w| w[0] > w[1]) {
            return Err(VerifyError::SegmentMalformed {
                proc: p as u32,
                detail: "phase_ptr not monotone",
            });
        }
    }
    // Position permutation, its inverse, and phase agreement with the
    // schedule.
    let mut seen = vec![false; n];
    for t in 0..n {
        let row = layout.target[t] as usize;
        if row >= n || seen[row] {
            return Err(VerifyError::RowMisplaced {
                pos: t as u32,
                row: layout.target[t],
            });
        }
        seen[row] = true;
        if layout.pos_of_row[row] as usize != t {
            return Err(VerifyError::RowMisplaced {
                pos: t as u32,
                row: layout.target[t],
            });
        }
    }
    for p in 0..nprocs {
        let seg = &layout.phase_ptr[p * (num_phases + 1)..(p + 1) * (num_phases + 1)];
        for w in 0..num_phases {
            let layout_rows = &layout.target[seg[w]..seg[w + 1]];
            let sched_rows = schedule.phase_slice(p, w);
            if layout_rows.len() != sched_rows.len() {
                return Err(VerifyError::SegmentMalformed {
                    proc: p as u32,
                    detail: "phase slice length differs from the schedule",
                });
            }
            for (k, (&lr, &sr)) in layout_rows.iter().zip(sched_rows).enumerate() {
                if lr != sr {
                    return Err(VerifyError::PhaseDisagrees {
                        pos: (seg[w] + k) as u32,
                        row: lr,
                    });
                }
            }
        }
    }
    // Output map bijection.
    let mut out_seen = vec![false; n];
    for i in 0..n {
        let o = layout.out_map[i] as usize;
        if o >= n || out_seen[o] {
            return Err(VerifyError::OutMapNotBijective { row: i as u32 });
        }
        out_seen[o] = true;
    }
    // Operand structure, gather bounds, barrier coverage, forward claim.
    if layout.val_ptr[0] != 0 || layout.val_ptr[n] != layout.val_src.len() {
        return Err(VerifyError::SegmentMalformed {
            proc: 0,
            detail: "val_ptr does not cover the value-source array",
        });
    }
    if layout.barriers.len() != num_phases.saturating_sub(1) {
        return Err(VerifyError::BarrierLengthMismatch {
            expected: num_phases.saturating_sub(1),
            found: layout.barriers.len(),
        });
    }
    let owners = schedule.owners();
    let lku = last_kept_before(layout.barriers, num_phases);
    let mut proc_of_pos = 0usize;
    for t in 0..n {
        while layout.proc_ptr[proc_of_pos + 1] <= t {
            proc_of_pos += 1;
        }
        let row = layout.target[t] as usize;
        let wi = schedule.wavefront_of(row) as usize;
        let (lo, hi) = (layout.val_ptr[t], layout.val_ptr[t + 1]);
        if lo > hi || hi > layout.val_src.len() {
            return Err(VerifyError::SegmentMalformed {
                proc: proc_of_pos as u32,
                detail: "val_ptr not monotone",
            });
        }
        let olo = layout.op_start[t] as usize;
        if olo + (hi - lo) > layout.ops.len() {
            return Err(VerifyError::SegmentMalformed {
                proc: proc_of_pos as u32,
                detail: "operand run exceeds the ops array",
            });
        }
        for k in 0..hi - lo {
            let op = layout.ops[olo + k];
            let dep = op as usize;
            if dep >= n {
                return Err(VerifyError::OperandOutOfBounds {
                    row: row as u32,
                    operand: op,
                });
            }
            let wd = schedule.wavefront_of(dep) as usize;
            // Ordered: strictly earlier phase, or same coalesced phase on
            // this processor at an earlier layout position (same-thread
            // program order).
            let ordered = wd < wi
                || (wd == wi
                    && owners[dep] as usize == proc_of_pos
                    && (layout.pos_of_row[dep] as usize) < t);
            if !ordered {
                return Err(VerifyError::OperandNotEarlier {
                    row: row as u32,
                    operand: op,
                });
            }
            if owners[dep] as usize != proc_of_pos {
                let l = lku[wi];
                if l == usize::MAX || l < wd {
                    return Err(VerifyError::ElidedBarrierMissing {
                        from: op,
                        to: row as u32,
                        from_phase: wd as u32,
                        to_phase: wi as u32,
                    });
                }
            }
            if layout.forward && dep >= row {
                return Err(VerifyError::NotForward {
                    row: row as u32,
                    dep: op,
                });
            }
            if layout.val_src[lo + k] as usize >= layout.nvals {
                return Err(VerifyError::ValueSourceOutOfBounds {
                    pos: (lo + k) as u32,
                    src: layout.val_src[lo + k],
                });
            }
        }
    }
    if let Some(recip) = layout.recip_src {
        if recip.len() != n {
            return Err(VerifyError::SizeMismatch {
                what: "recip_src length",
                expected: n,
                found: recip.len(),
            });
        }
        for (i, &s) in recip.iter().enumerate() {
            if s as usize >= layout.nvals {
                return Err(VerifyError::ScaleSourceOutOfBounds {
                    row: i as u32,
                    src: s,
                });
            }
        }
    }
    Ok(())
}

/// Proves the layout's operand lists are *exactly* the dependence lists of
/// `graph` (as multisets per row) — the property that makes a compiled
/// triangular-solve or linear layout semantically the same loop the
/// inspector analyzed, not merely a well-formed one.
pub fn verify_layout_adjacency(
    graph: &DepGraph,
    layout: &LayoutView<'_>,
) -> Result<(), VerifyError> {
    let n = graph.n();
    if layout.n != n
        || layout.pos_of_row.len() != n
        || layout.val_ptr.len() != n + 1
        || layout.op_start.len() != n
    {
        return Err(VerifyError::SizeMismatch {
            what: "layout vs graph nodes",
            expected: n,
            found: layout.n,
        });
    }
    let mut got: Vec<u32> = Vec::new();
    let mut want: Vec<u32> = Vec::new();
    for row in 0..n {
        let t = layout.pos_of_row[row] as usize;
        if t >= n {
            return Err(VerifyError::RowMisplaced {
                pos: t as u32,
                row: row as u32,
            });
        }
        let olo = layout.op_start[t] as usize;
        let len = layout.val_ptr[t + 1] - layout.val_ptr[t];
        got.clear();
        got.extend_from_slice(&layout.ops[olo..olo + len]);
        got.sort_unstable();
        want.clear();
        want.extend_from_slice(graph.deps(row));
        want.sort_unstable();
        if got != want {
            return Err(VerifyError::AdjacencyMismatch { row: row as u32 });
        }
    }
    Ok(())
}

/// Full verification of one planned loop plus its compiled layout: the
/// schedule/barrier proof, the layout proof, and operand/graph adjacency
/// equality. This is what the runtime runs on linear compiled entries.
pub fn verify_linear(planned: &PlannedLoop, compiled: &CompiledPlan) -> Result<(), VerifyError> {
    verify_plan(planned.graph(), planned.schedule(), planned.barrier_plan())?;
    let layout = compiled.layout();
    verify_layout(planned.schedule(), &layout)?;
    verify_layout_adjacency(planned.graph(), &layout)
}

/// Full verification of a compiled triangular solve: both sweeps' planned
/// loops (graph + schedule + barrier plan) and both compiled layouts,
/// including adjacency equality with the factor structure the inspector
/// analyzed. This is what the runtime runs on every solve plan decoded
/// from untrusted store bytes.
pub fn verify_tri_solve(solve: &CompiledTriSolve) -> Result<(), VerifyError> {
    let plan = solve.plan();
    verify_linear(plan.plan_l(), solve.forward_plan())?;
    verify_linear(plan.plan_u(), solve.backward_plan())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpl_inspector::{Partition, Wavefronts};

    fn chain_graph(n: usize) -> DepGraph {
        DepGraph::from_fn(n, |i| if i == 0 { vec![] } else { vec![i as u32 - 1] }).unwrap()
    }

    #[test]
    fn accepts_minimal_plan_on_chain() {
        let g = chain_graph(8);
        let wf = Wavefronts::compute(&g).unwrap();
        let s = Schedule::local(&wf, &Partition::contiguous(8, 2).unwrap()).unwrap();
        let plan = BarrierPlan::minimal(&s, &g).unwrap();
        verify_plan(&g, &s, &plan).unwrap();
        verify_doacross(&g).unwrap();
    }

    /// An all-elided (zero kept barriers) plan, built through the wire
    /// round trip since `BarrierPlan` has no direct constructor for it.
    fn all_elided(num_phases: usize) -> BarrierPlan {
        let mut w = rtpl_sparse::wire::WireWriter::new();
        w.put_u8s(&vec![0u8; num_phases.saturating_sub(1)]);
        let bytes = w.into_bytes();
        let mut r = rtpl_sparse::wire::WireReader::new(&bytes);
        BarrierPlan::decode(&mut r).unwrap()
    }

    #[test]
    fn rejects_fully_elided_plan_with_cross_edges() {
        let g = chain_graph(6);
        let wf = Wavefronts::compute(&g).unwrap();
        // Striped ownership makes every chain edge cross-processor.
        let s = Schedule::local(&wf, &Partition::striped(6, 2).unwrap()).unwrap();
        let none = all_elided(s.num_phases());
        let err = verify_plan(&g, &s, &none).unwrap_err();
        assert!(
            matches!(err, VerifyError::ElidedBarrierMissing { .. }),
            "{err}"
        );
    }
}
