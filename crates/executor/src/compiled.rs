//! Compiled execution layouts: the schedule baked into the data.
//!
//! A [`crate::PlannedLoop`] removes the *planning* cost from the hot path,
//! but every run still pays per-iteration costs the inspector could have
//! compiled away: each processor chases its schedule list into the caller's
//! original-index operand arrays (scattered loads in schedule order), and
//! bodies that work in a remapped index space (the backward triangular
//! sweep's `n−1−j`) redo the remap — and any operand filtering — on every
//! nonzero of every run.
//!
//! A [`CompiledPlan`] performs that work **once, at compile time**:
//!
//! * the operand structure of the loop body (a [`CompiledSpec`]: per row, a
//!   right-hand-side gather index, a list of `(operand index, value source)`
//!   pairs, and an optional reciprocal scale source) is **permuted into
//!   schedule execution order** — each processor's positions are a
//!   contiguous segment, so a run streams `target`/`rhs`/`val_ptr`/`ops`/
//!   `vals` linearly instead of hopping through index indirections;
//! * all operand indices are **pre-remapped into plan space** — reversed
//!   index spaces, strict-triangle filters, whatever the spec encoded — so
//!   the executor inner loop is branch-free arithmetic;
//! * **supernodes are detected and shared**: consecutive positions with
//!   identical operand index lists (rows of identical column structure)
//!   point at one stored copy of that list (`op_start` into a deduplicated
//!   `ops` array), while their numeric values stay position-private
//!   (`val_ptr` into `vals`/`val_src`) — repeated structure is read from
//!   cache-resident memory instead of re-streamed;
//! * the dot-product inner loop is **4-wide unrolled** with a scalar tail.
//!   The unrolled lanes compute their products independently but subtract
//!   them in the original operand order, so every result stays bit-exact
//!   with the rolled loop;
//! * numeric values are attached by a one-pass [`CompiledPlan::load_values`]
//!   gather into a leased [`RunScratch`], which also embeds the
//!   synchronization scratch ([`crate::LoopScratch`]) every parallel run
//!   uses. The plan itself is immutable and freely shared (`Arc`): **N
//!   threads holding N scratches run N executions of the same plan
//!   concurrently** — exactly what a plan cache serving a Zipf-skewed
//!   request mix needs.
//!
//! Every [`ExecutorKind`] runs a compiled plan, and every one performs
//! bit-identical per-row arithmetic (subtract operand products in spec
//! order, then multiply the scale), so results are bit-exact across
//! executor kinds, processor counts, and against the uncompiled
//! [`crate::PlannedLoop`] path. The parallel disciplines are not written here: [`CompiledPlan::try_run`] hands the layout kernel (a
//! position is an offset into the execution-order arrays) to the same walk
//! of the crate's one protocol (`protocol.rs`) that `PlannedLoop` uses.
//! Only the sequential sweeps keep their own loops; they are the hot path
//! and check a run's token on entry only.

use crate::cancel::{CancelToken, ExecError};
use crate::planned::{ExecutorKind, PlannedLoop};
use crate::pool::WorkerPool;
use crate::protocol::{Kernel, LoopScratch, Run};
use crate::report::ExecReport;
use crate::ValueSource;
use rtpl_inspector::BarrierPlan;
use rtpl_sparse::wire::{WireError, WireReader, WireResult, WireWriter};
use std::time::Instant;

/// Errors from compiling or loading a [`CompiledPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledError {
    /// The operand spec is malformed or inconsistent with the plan.
    Spec(String),
    /// `load_values` was given a value array of the wrong length.
    ValueCount { expected: usize, found: usize },
    /// A reciprocal scale source held zero (e.g. a zero pivot) for the
    /// caller-space row reported.
    ZeroScale { row: usize },
}

impl std::fmt::Display for CompiledError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompiledError::Spec(msg) => write!(f, "invalid compiled spec: {msg}"),
            CompiledError::ValueCount { expected, found } => {
                write!(f, "value array length {found} != expected {expected}")
            }
            CompiledError::ZeroScale { row } => {
                write!(f, "zero reciprocal-scale source (pivot) at row {row}")
            }
        }
    }
}

impl std::error::Error for CompiledError {}

/// The operand structure of a loop body, in **loop space** (the index space
/// of the [`PlannedLoop`] the spec will be compiled against).
///
/// Row `i` of the spec describes the iteration the plan schedules as index
/// `i`: its value is
///
/// ```text
/// x(i) = ( rhs[rhs_idx(i)] − Σ_k  data[val_src(i,k)] · x(op(i,k)) ) · scale(i)
/// ```
///
/// where `op(i,k)` are loop-space operand indices (each must be scheduled
/// in a strictly earlier phase than `i`, or — in a coalesced schedule —
/// earlier on `i`'s own processor within the same phase), `val_src(i,k)`
/// gathers the
/// operand coefficient from the caller's value array, `rhs_idx(i)` gathers
/// from the caller's right-hand side, and `scale(i)` is the reciprocal of
/// an optional per-row value source (`1.0` when absent). The `out` index
/// maps loop space back to the caller's output space, so compiled runs
/// never need a post-pass like `x.reverse()`.
///
/// Any remapping (e.g. the backward sweep's reversed index space) and any
/// filtering (e.g. dropping a stored diagonal) is done by the *builder* of
/// the spec, once — the executors never see it.
#[derive(Clone, Debug)]
pub struct CompiledSpec {
    n: usize,
    nvals: usize,
    rhs: Vec<u32>,
    out: Vec<u32>,
    op_ptr: Vec<usize>,
    ops: Vec<u32>,
    val_src: Vec<u32>,
    recip_src: Option<Vec<u32>>,
}

impl CompiledSpec {
    /// An empty spec for a loop of `n` iterations whose values will be
    /// gathered from a caller array of length `nvals`. Rows must be pushed
    /// in loop-space order, `n` of them.
    pub fn new(n: usize, nvals: usize) -> Self {
        CompiledSpec {
            n,
            nvals,
            rhs: Vec::with_capacity(n),
            out: Vec::with_capacity(n),
            op_ptr: {
                let mut p = Vec::with_capacity(n + 1);
                p.push(0);
                p
            },
            ops: Vec::new(),
            val_src: Vec::new(),
            recip_src: None,
        }
    }

    /// Appends the next loop-space row: its rhs gather index, its caller
    /// output index, and its `(operand, value source)` pairs in evaluation
    /// order.
    pub fn push_row(&mut self, rhs: u32, out: u32, ops: impl IntoIterator<Item = (u32, u32)>) {
        self.rhs.push(rhs);
        self.out.push(out);
        for (op, src) in ops {
            self.ops.push(op);
            self.val_src.push(src);
        }
        self.op_ptr.push(self.ops.len());
    }

    /// Attaches per-row reciprocal scale sources: row `i`'s result is
    /// multiplied by `1.0 / data[srcs[i]]` (the pre-applied inverse
    /// diagonal of a stored-diagonal backward sweep).
    pub fn set_recip_scale(&mut self, srcs: Vec<u32>) {
        self.recip_src = Some(srcs);
    }

    /// The canonical linear-recurrence spec over a dependence graph:
    ///
    /// ```text
    /// x(i) = rhs(i) − Σ_k data[src(i,k)] · x(dep(i,k))
    /// ```
    ///
    /// with value sources numbered in graph adjacency order, so the
    /// caller's value array is one coefficient per dependence edge
    /// (`nvals == graph.num_edges()`). This is exactly the operand
    /// structure a `DoConsider` inspection yields for index-array loops
    /// with per-edge coefficients — an analysis product feeds the
    /// compiled executor directly, no hand-built spec required.
    pub fn linear_from_graph(graph: &rtpl_inspector::DepGraph) -> Self {
        let n = graph.n();
        let mut spec = CompiledSpec::new(n, graph.num_edges());
        let mut src = 0u32;
        for i in 0..n {
            spec.push_row(
                i as u32,
                i as u32,
                graph.deps(i).iter().map(|&d| {
                    let s = src;
                    src += 1;
                    (d, s)
                }),
            );
        }
        spec
    }

    /// Rows pushed so far.
    pub fn rows(&self) -> usize {
        self.rhs.len()
    }
}

/// A plan compiled to a schedule-order data layout — immutable, shareable,
/// and runnable concurrently with independent [`RunScratch`]es. See the
/// module docs for the design.
#[derive(Debug)]
pub struct CompiledPlan {
    n: usize,
    nprocs: usize,
    num_phases: usize,
    nvals: usize,
    forward: bool,
    /// Positions `proc_ptr[p]..proc_ptr[p+1]` belong to processor `p`.
    proc_ptr: Vec<usize>,
    /// `phase_ptr[p * (num_phases + 1) + w]` — absolute position where
    /// processor `p`'s phase `w` begins.
    phase_ptr: Vec<usize>,
    /// Plan-space index published by each position.
    target: Vec<u32>,
    /// Caller rhs gather index of each position.
    rhs: Vec<u32>,
    /// Value run `val_ptr[t]..val_ptr[t+1]` of each position — indexes
    /// `val_src` and a scratch's gathered `vals`, one slot per operand.
    val_ptr: Vec<usize>,
    /// Start of position `t`'s operand-index run in the deduplicated `ops`
    /// array; the run length is `val_ptr[t+1] - val_ptr[t]`. Consecutive
    /// positions with identical operand lists (supernodes) share one run.
    op_start: Vec<u32>,
    /// Plan-space operand indices, deduplicated across supernode positions.
    ops: Vec<u32>,
    /// Caller value-array gather map, layout order (drives `load_values`).
    val_src: Vec<u32>,
    /// Reciprocal scale sources by position (`None` → scale is 1.0).
    recip_src: Option<Vec<u32>>,
    /// Position executing plan-space row `i` (doacross / diagnostics).
    pos_of_row: Vec<u32>,
    /// Caller output index of plan-space row `i`.
    out_map: Vec<u32>,
    barriers: BarrierPlan,
    full_barriers: BarrierPlan,
}

/// Borrowed read-only view of a [`CompiledPlan`]'s layout arrays, produced
/// by [`CompiledPlan::layout`] for external verification. Field meanings
/// match the `CompiledPlan` fields of the same name.
#[derive(Debug, Clone, Copy)]
pub struct LayoutView<'a> {
    /// Trip count.
    pub n: usize,
    /// Processor count the layout targets.
    pub nprocs: usize,
    /// Phase count (`schedule.num_phases()` at compile time).
    pub num_phases: usize,
    /// Expected caller value-array length.
    pub nvals: usize,
    /// Whether the plan space preserves natural order (doacross-eligible).
    pub forward: bool,
    /// Positions `proc_ptr[p]..proc_ptr[p+1]` belong to processor `p`.
    pub proc_ptr: &'a [usize],
    /// `phase_ptr[p * (num_phases + 1) + w]` — absolute position where
    /// processor `p`'s phase `w` begins.
    pub phase_ptr: &'a [usize],
    /// Plan-space index published by each position.
    pub target: &'a [u32],
    /// Caller rhs gather index of each position.
    pub rhs: &'a [u32],
    /// Value run `val_ptr[t]..val_ptr[t+1]` of each position (indexes
    /// `val_src`); the run length is also the operand count of `t`.
    pub val_ptr: &'a [usize],
    /// Start of position `t`'s operand run in the deduplicated `ops` array.
    pub op_start: &'a [u32],
    /// Plan-space operand indices, deduplicated across supernode positions.
    pub ops: &'a [u32],
    /// Caller value-array gather map, layout order.
    pub val_src: &'a [u32],
    /// Reciprocal scale sources by position (`None` → scale is 1.0).
    pub recip_src: Option<&'a [u32]>,
    /// Position executing plan-space row `i`.
    pub pos_of_row: &'a [u32],
    /// Caller output index of plan-space row `i`.
    pub out_map: &'a [u32],
    /// The (possibly elided) barrier plan the layout runs under.
    pub barriers: &'a BarrierPlan,
}

/// The mutable half of a compiled execution: the synchronization scratch
/// of the parallel runs, the gathered operand values and scales, and the
/// sequential work buffer. Lease one per concurrent run; the
/// [`CompiledPlan`] itself is never written after compilation.
#[derive(Debug)]
pub struct RunScratch {
    sync: LoopScratch,
    vals: Vec<f64>,
    scale: Vec<f64>,
    seq: Vec<f64>,
    loaded: bool,
}

impl RunScratch {
    fn new(plan: &CompiledPlan) -> Self {
        RunScratch {
            sync: LoopScratch::new(plan.n, plan.nprocs),
            vals: vec![0.0; plan.val_src.len()],
            scale: vec![1.0; plan.n],
            seq: vec![0.0; plan.n],
            loaded: false,
        }
    }
}

/// The compiled kernel of the synchronization protocol: a position is an
/// offset `t` into the execution-order arrays, so the list and phase walks
/// stream them contiguously; only doacross goes through `pos_of_row`.
struct LayoutKernel<'a> {
    plan: &'a CompiledPlan,
    vals: &'a [f64],
    scale: &'a [f64],
    rhs: &'a [f64],
}

impl<S: ValueSource> Kernel<S> for LayoutKernel<'_> {
    fn prologue(&self) {
        if rtpl_sparse::failpoint::should_fail("exec.body_panic") {
            panic!("injected body panic (fail point exec.body_panic)");
        }
    }
    fn num_phases(&self) -> usize {
        self.plan.num_phases
    }
    fn proc(&self, p: usize) -> impl Iterator<Item = usize> {
        self.plan.proc_ptr[p]..self.plan.proc_ptr[p + 1]
    }
    fn phase(&self, p: usize, w: usize) -> impl Iterator<Item = usize> {
        let at = p * (self.plan.num_phases + 1) + w;
        self.plan.phase_ptr[at]..self.plan.phase_ptr[at + 1]
    }
    fn row(&self, i: usize) -> usize {
        self.plan.pos_of_row[i] as usize
    }
    fn index(&self, t: usize) -> usize {
        self.plan.target[t] as usize
    }
    #[inline]
    fn eval(&self, t: usize, src: &S) -> f64 {
        let acc = self
            .plan
            .dot_sub(t, self.rhs[self.plan.rhs[t] as usize], self.vals, src);
        acc * self.scale[t]
    }
}

impl CompiledPlan {
    /// Compiles `spec` against `plan`'s schedule: validates the operand
    /// structure (every operand must be ordered before its consumer — a
    /// strictly earlier phase, or the same coalesced phase on the same
    /// processor at an earlier position; `out` must be a permutation; all
    /// gather indices in bounds) and materializes the execution-order
    /// layout, sharing the operand-index runs of supernode positions.
    pub fn compile(plan: &PlannedLoop, spec: &CompiledSpec) -> Result<Self, CompiledError> {
        let n = plan.n();
        let schedule = plan.schedule();
        let mut owner = vec![0u32; n];
        let mut pos = vec![0u32; n];
        for p in 0..schedule.nprocs() {
            for (k, &i) in schedule.proc(p).iter().enumerate() {
                owner[i as usize] = p as u32;
                pos[i as usize] = k as u32;
            }
        }
        if spec.n != n || spec.rows() != n {
            return Err(CompiledError::Spec(format!(
                "spec declares {} iterations and {} rows, plan has {n}",
                spec.n,
                spec.rows()
            )));
        }
        if let Some(r) = &spec.recip_src {
            if r.len() != n {
                return Err(CompiledError::Spec(format!(
                    "recip scale has {} rows, plan has {n}",
                    r.len()
                )));
            }
            if let Some(&s) = r.iter().find(|&&s| s as usize >= spec.nvals) {
                return Err(CompiledError::Spec(format!(
                    "recip scale source {s} out of bounds (nvals = {})",
                    spec.nvals
                )));
            }
        }
        let mut seen = vec![false; n];
        for i in 0..n {
            let o = spec.out[i] as usize;
            if o >= n || seen[o] {
                return Err(CompiledError::Spec(format!(
                    "out index {o} of row {i} duplicated or out of range"
                )));
            }
            seen[o] = true;
            if spec.rhs[i] as usize >= n {
                return Err(CompiledError::Spec(format!(
                    "rhs index {} of row {i} out of range",
                    spec.rhs[i]
                )));
            }
            let w = schedule.wavefront_of(i);
            for k in spec.op_ptr[i]..spec.op_ptr[i + 1] {
                let op = spec.ops[k] as usize;
                if op >= n {
                    return Err(CompiledError::Spec(format!(
                        "operand {op} of row {i} out of range"
                    )));
                }
                let wop = schedule.wavefront_of(op);
                let ordered = wop < w || (wop == w && owner[op] == owner[i] && pos[op] < pos[i]);
                if !ordered {
                    return Err(CompiledError::Spec(format!(
                        "operand {op} of row {i} is not scheduled earlier"
                    )));
                }
                if spec.val_src[k] as usize >= spec.nvals {
                    return Err(CompiledError::Spec(format!(
                        "value source {} of row {i} out of bounds (nvals = {})",
                        spec.val_src[k], spec.nvals
                    )));
                }
            }
        }

        let nprocs = schedule.nprocs();
        let num_phases = schedule.num_phases();
        let mut proc_ptr = Vec::with_capacity(nprocs + 1);
        let mut phase_ptr = Vec::with_capacity(nprocs * (num_phases + 1));
        let mut target = Vec::with_capacity(n);
        let mut rhs = Vec::with_capacity(n);
        let mut val_ptr = Vec::with_capacity(n + 1);
        let mut op_start = Vec::with_capacity(n);
        let mut ops = Vec::with_capacity(spec.ops.len());
        let mut val_src = Vec::with_capacity(spec.val_src.len());
        let mut recip_src = spec.recip_src.as_ref().map(|_| Vec::with_capacity(n));
        let mut pos_of_row = vec![0u32; n];
        val_ptr.push(0);
        proc_ptr.push(0);
        let mut prev_run = 0usize..0usize;
        for p in 0..nprocs {
            let mut pos = proc_ptr[p];
            for w in 0..num_phases {
                phase_ptr.push(pos);
                for &i in schedule.phase_slice(p, w) {
                    let i = i as usize;
                    pos_of_row[i] = pos as u32;
                    target.push(i as u32);
                    rhs.push(spec.rhs[i]);
                    if let (Some(dst), Some(src)) = (&mut recip_src, &spec.recip_src) {
                        dst.push(src[i]);
                    }
                    let row_ops = &spec.ops[spec.op_ptr[i]..spec.op_ptr[i + 1]];
                    // Supernode sharing: a position whose operand list
                    // equals the previous position's reuses that stored run.
                    if !row_ops.is_empty() && ops[prev_run.clone()] == *row_ops {
                        op_start.push(prev_run.start as u32);
                    } else {
                        prev_run = ops.len()..ops.len() + row_ops.len();
                        op_start.push(ops.len() as u32);
                        ops.extend_from_slice(row_ops);
                    }
                    val_src.extend_from_slice(&spec.val_src[spec.op_ptr[i]..spec.op_ptr[i + 1]]);
                    val_ptr.push(val_src.len());
                    pos += 1;
                }
            }
            phase_ptr.push(pos);
            proc_ptr.push(pos);
        }
        debug_assert_eq!(target.len(), n);
        Ok(CompiledPlan {
            n,
            nprocs,
            num_phases,
            nvals: spec.nvals,
            forward: plan.graph().is_forward(),
            proc_ptr,
            phase_ptr,
            target,
            rhs,
            val_ptr,
            op_start,
            ops,
            val_src,
            recip_src,
            pos_of_row,
            out_map: spec.out.clone(),
            barriers: plan.barrier_plan().clone(),
            full_barriers: BarrierPlan::full(num_phases),
        })
    }

    /// Number of layout positions whose operand-index run is shared with
    /// the immediately preceding position (supernode members beyond each
    /// leader). `ops.len()` shrinks by exactly the operands these share.
    pub fn supernode_positions(&self) -> usize {
        (1..self.n)
            .filter(|&t| {
                self.val_ptr[t + 1] > self.val_ptr[t]
                    && self.op_start[t] == self.op_start[t - 1]
                    && self.val_ptr[t + 1] - self.val_ptr[t]
                        == self.val_ptr[t] - self.val_ptr[t - 1]
            })
            .count()
    }

    /// Trip count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Processor count the layout targets.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Expected caller value-array length for [`CompiledPlan::load_values`].
    pub fn expected_values(&self) -> usize {
        self.nvals
    }

    /// A fresh scratch sized for this plan.
    pub fn scratch(&self) -> RunScratch {
        RunScratch::new(self)
    }

    /// Read-only view of every internal layout array, for external auditing
    /// (the `rtpl-verify` plan verifier re-proves layout soundness on plans
    /// decoded from untrusted bytes). Nothing here is needed to *run* a
    /// plan; it exposes representation, not behavior, so treat the field
    /// set as unstable.
    pub fn layout(&self) -> LayoutView<'_> {
        LayoutView {
            n: self.n,
            nprocs: self.nprocs,
            num_phases: self.num_phases,
            nvals: self.nvals,
            forward: self.forward,
            proc_ptr: &self.proc_ptr,
            phase_ptr: &self.phase_ptr,
            target: &self.target,
            rhs: &self.rhs,
            val_ptr: &self.val_ptr,
            op_start: &self.op_start,
            ops: &self.ops,
            val_src: &self.val_src,
            recip_src: self.recip_src.as_deref(),
            pos_of_row: &self.pos_of_row,
            out_map: &self.out_map,
            barriers: &self.barriers,
        }
    }

    /// Gathers the caller's numeric values into `scratch` in layout order
    /// (one linear pass; later runs stream them) and computes the per-row
    /// reciprocal scales. Must be called before the scratch's first run and
    /// again whenever the caller's values change.
    pub fn load_values(&self, scratch: &mut RunScratch, data: &[f64]) -> Result<(), CompiledError> {
        if data.len() != self.nvals {
            return Err(CompiledError::ValueCount {
                expected: self.nvals,
                found: data.len(),
            });
        }
        assert_eq!(
            scratch.vals.len(),
            self.val_src.len(),
            "scratch/plan mismatch"
        );
        for (v, &s) in scratch.vals.iter_mut().zip(&self.val_src) {
            *v = data[s as usize];
        }
        if let Some(srcs) = &self.recip_src {
            for (t, &s) in srcs.iter().enumerate() {
                let d = data[s as usize];
                if d == 0.0 {
                    scratch.loaded = false;
                    return Err(CompiledError::ZeroScale {
                        row: self.out_map[self.target[t] as usize] as usize,
                    });
                }
                scratch.scale[t] = 1.0 / d;
            }
        }
        scratch.loaded = true;
        Ok(())
    }

    /// The shared inner kernel: subtract operand products in spec order,
    /// 4-wide unrolled with a scalar tail. The lanes compute their products
    /// independently but the subtraction chain is the rolled loop's exact
    /// order, so the result is bit-identical to `acc -= v*x` one at a time.
    #[inline]
    fn dot_sub<S: ValueSource>(&self, t: usize, mut acc: f64, vals: &[f64], src: &S) -> f64 {
        let vlo = self.val_ptr[t];
        let len = self.val_ptr[t + 1] - vlo;
        let olo = self.op_start[t] as usize;
        let ops = &self.ops[olo..olo + len];
        let vals = &vals[vlo..vlo + len];
        let mut k = 0usize;
        while k + 4 <= len {
            let p0 = vals[k] * src.get(ops[k] as usize);
            let p1 = vals[k + 1] * src.get(ops[k + 1] as usize);
            let p2 = vals[k + 2] * src.get(ops[k + 2] as usize);
            let p3 = vals[k + 3] * src.get(ops[k + 3] as usize);
            acc = (((acc - p0) - p1) - p2) - p3;
            k += 4;
        }
        while k < len {
            acc -= vals[k] * src.get(ops[k] as usize);
            k += 1;
        }
        acc
    }

    fn check_run(&self, scratch: &RunScratch, rhs: &[f64], out: &[f64]) {
        assert!(
            scratch.loaded,
            "CompiledPlan::load_values must succeed before running"
        );
        assert_eq!(
            scratch.vals.len(),
            self.val_src.len(),
            "scratch holds values for another plan's operand layout"
        );
        assert_eq!(
            (scratch.sync.n(), scratch.sync.nprocs()),
            (self.n, self.nprocs),
            "scratch sized for another plan"
        );
        assert_eq!(rhs.len(), self.n);
        assert_eq!(out.len(), self.n);
    }

    /// Executes the compiled loop under `kind` (`pool` may be `None` only
    /// for [`ExecutorKind::Sequential`]). The scratch is borrowed
    /// exclusively, so concurrency misuse is impossible by construction —
    /// run the same plan from many threads by giving each its own scratch.
    /// Panics if a body evaluation panics; failure-containing callers use
    /// [`CompiledPlan::try_run`].
    pub fn run(
        &self,
        pool: Option<&WorkerPool>,
        kind: ExecutorKind,
        scratch: &mut RunScratch,
        rhs: &[f64],
        out: &mut [f64],
    ) -> ExecReport {
        self.try_run(pool, kind, scratch, rhs, out, None)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The failure-containing form of [`CompiledPlan::run`]: a panicking
    /// evaluation (including one injected through the `exec.body_panic`
    /// fail point) or a fired [`CancelToken`] yields a typed
    /// [`ExecError`] instead of unwinding. On error `out` is untouched;
    /// the plan, the scratch (after its next epoch bump), and the pool all
    /// remain usable. The sequential sweep checks the token on entry only.
    pub fn try_run(
        &self,
        pool: Option<&WorkerPool>,
        kind: ExecutorKind,
        scratch: &mut RunScratch,
        rhs: &[f64],
        out: &mut [f64],
        cancel: Option<&CancelToken>,
    ) -> Result<ExecReport, ExecError> {
        self.check_run(scratch, rhs, out);
        let kernel = LayoutKernel {
            plan: self,
            vals: &scratch.vals,
            scale: &scratch.scale,
            rhs,
        };
        let run = Run {
            pool,
            scratch: &mut scratch.sync,
            cancel,
        };
        let report = match kind {
            ExecutorKind::Sequential => {
                if let Some(cause) = cancel.and_then(CancelToken::check) {
                    return Err(cause);
                }
                return Ok(self.run_sequential(scratch, rhs, out));
            }
            ExecutorKind::SelfExecuting => run.list_walk(&kernel),
            ExecutorKind::PreScheduled => run.phase_walk(&kernel, &self.full_barriers),
            ExecutorKind::PreScheduledElided => run.phase_walk(&kernel, &self.barriers),
            ExecutorKind::Doacross => {
                assert!(
                    self.forward,
                    "the doacross policy requires a forward dependence graph"
                );
                run.stripe_walk(&kernel)
            }
        }?;
        let shared = &scratch.sync.shared;
        let epoch = shared.current_epoch();
        for (i, &o) in self.out_map.iter().enumerate() {
            out[o as usize] = shared.get_published_at(i, epoch);
        }
        Ok(report)
    }

    /// Executes the compiled loop sequentially in phase-major order (a
    /// valid topological order for any plan) over the scratch's plain work
    /// buffer — no atomics, no ready flags, the fastest single-processor
    /// path. Bit-exact with every parallel policy: each row performs the
    /// identical arithmetic on identical operand values.
    pub fn run_sequential(
        &self,
        scratch: &mut RunScratch,
        rhs: &[f64],
        out: &mut [f64],
    ) -> ExecReport {
        self.check_run(scratch, rhs, out);
        let stride = self.num_phases + 1;
        let t0 = Instant::now();
        let RunScratch {
            seq, vals, scale, ..
        } = scratch;
        for w in 0..self.num_phases {
            for p in 0..self.nprocs {
                for t in self.phase_ptr[p * stride + w]..self.phase_ptr[p * stride + w + 1] {
                    let src = crate::DirectSource(seq);
                    let acc = self.dot_sub(t, rhs[self.rhs[t] as usize], vals, &src);
                    seq[self.target[t] as usize] = acc * scale[t];
                }
            }
        }
        for (i, &o) in self.out_map.iter().enumerate() {
            out[o as usize] = seq[i];
        }
        ExecReport {
            barriers: 0,
            stalls: 0,
            iters_per_proc: vec![self.n as u64],
            wall: t0.elapsed(),
        }
    }

    /// Sequential execution with the value gather **fused into the sweep**:
    /// operand coefficients and reciprocal-scale pivots are read straight
    /// from the caller's `data` through the layout's pre-compiled gather
    /// maps, so a one-shot run makes a single pass over the values instead
    /// of `load_values` + [`CompiledPlan::run_sequential`]. Bit-exact with
    /// the split path: each row subtracts products in the identical order
    /// and multiplies by the identical reciprocal (`load_values` stores
    /// `1.0 / d`; this computes the same quotient in place).
    ///
    /// The scratch's loaded values are neither required nor touched — only
    /// its plain sequential work buffer is used — so a scratch can
    /// alternate freely between this path and the loaded parallel paths.
    /// On a zero pivot, returns [`CompiledError::ZeroScale`] with `out`
    /// unwritten, matching the split path's load-time failure.
    pub fn run_sequential_fused(
        &self,
        scratch: &mut RunScratch,
        data: &[f64],
        rhs: &[f64],
        out: &mut [f64],
    ) -> Result<ExecReport, CompiledError> {
        if data.len() != self.nvals {
            return Err(CompiledError::ValueCount {
                expected: self.nvals,
                found: data.len(),
            });
        }
        assert_eq!(scratch.seq.len(), self.n, "scratch sized for another plan");
        assert_eq!(rhs.len(), self.n);
        assert_eq!(out.len(), self.n);
        let stride = self.num_phases + 1;
        let t0 = Instant::now();
        let seq = &mut scratch.seq;
        let recip = self.recip_src.as_deref();
        for w in 0..self.num_phases {
            for p in 0..self.nprocs {
                for t in self.phase_ptr[p * stride + w]..self.phase_ptr[p * stride + w + 1] {
                    let vlo = self.val_ptr[t];
                    let len = self.val_ptr[t + 1] - vlo;
                    let olo = self.op_start[t] as usize;
                    let ops = &self.ops[olo..olo + len];
                    let vs = &self.val_src[vlo..vlo + len];
                    let mut acc = rhs[self.rhs[t] as usize];
                    let mut k = 0usize;
                    while k + 4 <= len {
                        let p0 = data[vs[k] as usize] * seq[ops[k] as usize];
                        let p1 = data[vs[k + 1] as usize] * seq[ops[k + 1] as usize];
                        let p2 = data[vs[k + 2] as usize] * seq[ops[k + 2] as usize];
                        let p3 = data[vs[k + 3] as usize] * seq[ops[k + 3] as usize];
                        acc = (((acc - p0) - p1) - p2) - p3;
                        k += 4;
                    }
                    while k < len {
                        acc -= data[vs[k] as usize] * seq[ops[k] as usize];
                        k += 1;
                    }
                    seq[self.target[t] as usize] = match recip {
                        Some(srcs) => {
                            let d = data[srcs[t] as usize];
                            if d == 0.0 {
                                return Err(CompiledError::ZeroScale {
                                    row: self.out_map[self.target[t] as usize] as usize,
                                });
                            }
                            acc * (1.0 / d)
                        }
                        None => acc,
                    };
                }
            }
        }
        for (i, &o) in self.out_map.iter().enumerate() {
            out[o as usize] = seq[i];
        }
        Ok(ExecReport {
            barriers: 0,
            stalls: 0,
            iters_per_proc: vec![self.n as u64],
            wall: t0.elapsed(),
        })
    }

    /// Serializes the full execution-order layout in the
    /// [`rtpl_sparse::wire`] format. The layout is structure-only — no
    /// numeric values — so the encoding stays valid across
    /// refactorizations of the same sparsity pattern.
    pub fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.n as u64);
        w.put_u64(self.nprocs as u64);
        w.put_u64(self.num_phases as u64);
        w.put_u64(self.nvals as u64);
        w.put_u8(self.forward as u8);
        w.put_usizes32(&self.proc_ptr);
        w.put_usizes32(&self.phase_ptr);
        w.put_u32s(&self.target);
        w.put_u32s(&self.rhs);
        w.put_usizes32(&self.val_ptr);
        w.put_u32s(&self.op_start);
        w.put_u32s(&self.ops);
        w.put_u32s(&self.val_src);
        match &self.recip_src {
            Some(r) => {
                w.put_u8(1);
                w.put_u32s(r);
            }
            None => w.put_u8(0),
        }
        w.put_u32s(&self.pos_of_row);
        w.put_u32s(&self.out_map);
        self.barriers.encode(w);
    }

    /// Decodes a layout written by [`CompiledPlan::encode`].
    ///
    /// Validation here is deliberately the *cheap* kind — shape and bounds
    /// checks, one pass each — because skipping the full
    /// [`CompiledPlan::compile`] wavefront/permutation re-proof is the
    /// point of persisting the layout. The expensive invariants
    /// (operands scheduled strictly earlier, `out_map` a permutation)
    /// were proven at compile time and a record-level checksum guards the
    /// bytes in between; anything that slips past these checks can
    /// produce a wrong answer but not an out-of-bounds access.
    pub fn decode(r: &mut WireReader) -> WireResult<CompiledPlan> {
        let n = r.u64()? as usize;
        let nprocs = r.u64()? as usize;
        let num_phases = r.u64()? as usize;
        let nvals = r.u64()? as usize;
        let forward = r.u8()? != 0;
        let proc_ptr = r.usizes32()?;
        let phase_ptr = r.usizes32()?;
        let target = r.u32s()?;
        let rhs = r.u32s()?;
        let val_ptr = r.usizes32()?;
        let op_start = r.u32s()?;
        let ops = r.u32s()?;
        let val_src = r.u32s()?;
        let recip_src = match r.u8()? {
            0 => None,
            1 => Some(r.u32s()?),
            k => {
                return Err(WireError::Invalid(format!(
                    "bad recip_src presence tag {k}"
                )))
            }
        };
        let pos_of_row = r.u32s()?;
        let out_map = r.u32s()?;
        let barriers = BarrierPlan::decode(r)?;

        let invalid = |msg: String| Err(WireError::Invalid(msg));
        if nprocs == 0 {
            return invalid("compiled plan has zero processors".into());
        }
        if proc_ptr.len() != nprocs + 1
            || proc_ptr.first() != Some(&0)
            || proc_ptr.last() != Some(&n)
            || proc_ptr.windows(2).any(|w| w[0] > w[1])
        {
            return invalid("compiled plan proc_ptr malformed".into());
        }
        let stride = num_phases + 1;
        if phase_ptr.len() != nprocs * stride {
            return invalid(format!(
                "phase_ptr length {} != nprocs * (num_phases + 1) = {}",
                phase_ptr.len(),
                nprocs * stride
            ));
        }
        for p in 0..nprocs {
            let seg = &phase_ptr[p * stride..(p + 1) * stride];
            if seg.first() != Some(&proc_ptr[p])
                || seg.last() != Some(&proc_ptr[p + 1])
                || seg.windows(2).any(|w| w[0] > w[1])
            {
                return invalid(format!("phase_ptr of processor {p} malformed"));
            }
        }
        if target.len() != n || rhs.len() != n || pos_of_row.len() != n || out_map.len() != n {
            return invalid("compiled plan row arrays sized differently from n".into());
        }
        if val_ptr.len() != n + 1
            || val_ptr.first() != Some(&0)
            || val_ptr.last() != Some(&val_src.len())
            || val_ptr.windows(2).any(|w| w[0] > w[1])
        {
            return invalid("compiled plan val_ptr malformed".into());
        }
        if op_start.len() != n {
            return invalid("compiled plan op_start sized differently from n".into());
        }
        for t in 0..n {
            let len = val_ptr[t + 1] - val_ptr[t];
            if op_start[t] as usize + len > ops.len() {
                return invalid(format!("operand run of position {t} exceeds the ops array"));
            }
        }
        if target.iter().any(|&t| t as usize >= n)
            || pos_of_row.iter().any(|&t| t as usize >= n)
            || out_map.iter().any(|&o| o as usize >= n)
            || rhs.iter().any(|&i| i as usize >= n)
            || ops.iter().any(|&o| o as usize >= n)
        {
            return invalid("compiled plan index out of bounds".into());
        }
        if val_src.iter().any(|&s| s as usize >= nvals) {
            return invalid("compiled plan value source out of bounds".into());
        }
        if let Some(rs) = &recip_src {
            if rs.len() != n || rs.iter().any(|&s| s as usize >= nvals) {
                return invalid("compiled plan recip_src malformed".into());
            }
        }
        if barriers.len() != num_phases.saturating_sub(1) {
            return invalid(format!(
                "barrier plan has {} boundaries, layout implies {}",
                barriers.len(),
                num_phases.saturating_sub(1)
            ));
        }
        Ok(CompiledPlan {
            n,
            nprocs,
            num_phases,
            nvals,
            forward,
            proc_ptr,
            phase_ptr,
            target,
            rhs,
            val_ptr,
            op_start,
            ops,
            val_src,
            recip_src,
            pos_of_row,
            out_map,
            barriers,
            full_barriers: BarrierPlan::full(num_phases),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutorKind, LoopBody, PlannedLoop, WorkerPool};
    use rtpl_inspector::{DepGraph, Schedule, Wavefronts};
    use rtpl_sparse::gen::{laplacian_5pt, random_lower};
    use rtpl_sparse::Csr;
    use std::sync::RwLock;

    /// `exec.body_panic` is a process-global fail point and the test
    /// runner is multi-threaded: the one test that arms it holds this lock
    /// as writer, every test that runs a parallel policy holds it as
    /// reader, so an armed point can only ever fire in the test that armed
    /// it.
    static BODY_PANIC_POINT: RwLock<()> = RwLock::new(());

    /// The forward lower-triangular solve body, for the uncompiled
    /// reference path.
    struct Solve<'a> {
        l: &'a Csr,
        b: &'a [f64],
    }

    impl LoopBody for Solve<'_> {
        fn eval<S: crate::ValueSource>(&self, i: usize, src: &S) -> f64 {
            let mut acc = self.b[i];
            for (j, v) in self.l.row(i) {
                acc -= v * src.get(j);
            }
            acc
        }
    }

    fn lower_spec(l: &Csr) -> CompiledSpec {
        let n = l.nrows();
        let mut spec = CompiledSpec::new(n, l.nnz());
        for i in 0..n {
            let lo = l.indptr()[i];
            spec.push_row(
                i as u32,
                i as u32,
                l.row_indices(i)
                    .iter()
                    .enumerate()
                    .map(|(k, &j)| (j, (lo + k) as u32)),
            );
        }
        spec
    }

    fn plan_for(l: &Csr, nprocs: usize) -> PlannedLoop {
        let g = DepGraph::from_lower_triangular(l).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        PlannedLoop::new(g, Schedule::global(&wf, nprocs).unwrap()).unwrap()
    }

    #[test]
    fn compiled_matches_planned_loop_all_policies() {
        let _unarmed = BODY_PANIC_POINT.read().unwrap_or_else(|e| e.into_inner());
        for (l, name) in [
            (laplacian_5pt(9, 7).strict_lower(), "mesh"),
            (random_lower(150, 5, 42).strict_lower(), "random"),
        ] {
            let n = l.nrows();
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.19).sin()).collect();
            for nprocs in [1usize, 2, 4] {
                let plan = plan_for(&l, nprocs);
                let compiled = CompiledPlan::compile(&plan, &lower_spec(&l)).unwrap();
                let mut scratch = compiled.scratch();
                compiled.load_values(&mut scratch, l.data()).unwrap();
                let pool = WorkerPool::new(nprocs);
                let body = Solve { l: &l, b: &b };
                let mut seq = vec![0.0; n];
                compiled.run_sequential(&mut scratch, &b, &mut seq);
                let mut reference = vec![0.0; n];
                plan.run(None, ExecutorKind::Sequential, &body, &mut reference);
                assert_eq!(seq, reference, "{name}/{nprocs}: sequential");
                for policy in ExecutorKind::ALL {
                    let mut out = vec![0.0; n];
                    let report = compiled.run(Some(&pool), policy, &mut scratch, &b, &mut out);
                    assert_eq!(out, reference, "{name}/{nprocs}/{policy:?}");
                    assert_eq!(report.total_iters() as usize, n);
                    let mut uncompiled = vec![0.0; n];
                    plan.run(Some(&pool), policy, &body, &mut uncompiled);
                    assert_eq!(out, uncompiled, "{name}/{nprocs}/{policy:?} vs planned");
                }
            }
        }
    }

    #[test]
    fn out_map_permutes_results_without_post_pass() {
        // A spec whose out map reverses the vector: x(i) computed in plan
        // space lands at caller index n-1-i.
        let l = laplacian_5pt(5, 4).strict_lower();
        let n = l.nrows();
        let mut spec = CompiledSpec::new(n, l.nnz());
        for i in 0..n {
            let lo = l.indptr()[i];
            spec.push_row(
                i as u32,
                (n - 1 - i) as u32,
                l.row_indices(i)
                    .iter()
                    .enumerate()
                    .map(|(k, &j)| (j, (lo + k) as u32)),
            );
        }
        let plan = plan_for(&l, 2);
        let compiled = CompiledPlan::compile(&plan, &spec).unwrap();
        let mut scratch = compiled.scratch();
        compiled.load_values(&mut scratch, l.data()).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut straight = vec![0.0; n];
        let base = CompiledPlan::compile(&plan, &lower_spec(&l)).unwrap();
        let mut base_scratch = base.scratch();
        base.load_values(&mut base_scratch, l.data()).unwrap();
        base.run_sequential(&mut base_scratch, &b, &mut straight);
        let mut reversed = vec![0.0; n];
        compiled.run_sequential(&mut scratch, &b, &mut reversed);
        straight.reverse();
        assert_eq!(reversed, straight);
    }

    #[test]
    fn recip_scale_is_pre_applied() {
        // x(i) = b(i) / d(i) with d from the value array: one row, no ops.
        let g = DepGraph::from_lists(3, vec![vec![], vec![], vec![]]).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let plan = PlannedLoop::new(g, Schedule::global(&wf, 1).unwrap()).unwrap();
        let data = [2.0, 4.0, 8.0];
        let mut spec = CompiledSpec::new(3, 3);
        for i in 0..3 {
            spec.push_row(i as u32, i as u32, std::iter::empty());
        }
        spec.set_recip_scale(vec![0, 1, 2]);
        let compiled = CompiledPlan::compile(&plan, &spec).unwrap();
        let mut scratch = compiled.scratch();
        compiled.load_values(&mut scratch, &data).unwrap();
        let mut out = vec![0.0; 3];
        compiled.run_sequential(&mut scratch, &[1.0, 1.0, 1.0], &mut out);
        assert_eq!(out, vec![0.5, 0.25, 0.125]);
        // A zero source is rejected with the caller-space row.
        let err = compiled
            .load_values(&mut scratch, &[2.0, 0.0, 8.0])
            .unwrap_err();
        assert_eq!(err, CompiledError::ZeroScale { row: 1 });
    }

    #[test]
    fn fused_sequential_matches_split_path_bit_exactly() {
        for (l, name) in [
            (laplacian_5pt(9, 7).strict_lower(), "mesh"),
            (random_lower(150, 5, 42).strict_lower(), "random"),
        ] {
            let n = l.nrows();
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.19).sin()).collect();
            for nprocs in [1usize, 2, 4] {
                let plan = plan_for(&l, nprocs);
                let compiled = CompiledPlan::compile(&plan, &lower_spec(&l)).unwrap();
                let mut scratch = compiled.scratch();
                compiled.load_values(&mut scratch, l.data()).unwrap();
                let mut split = vec![0.0; n];
                compiled.run_sequential(&mut scratch, &b, &mut split);
                // A fresh, never-loaded scratch works for the fused path.
                let mut fused_scratch = compiled.scratch();
                let mut fused = vec![0.0; n];
                compiled
                    .run_sequential_fused(&mut fused_scratch, l.data(), &b, &mut fused)
                    .unwrap();
                let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fused), bits(&split), "{name}/{nprocs}");
            }
        }
    }

    #[test]
    fn fused_sequential_applies_recip_scale_and_rejects_zero_pivots() {
        let g = DepGraph::from_lists(3, vec![vec![], vec![], vec![]]).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        let plan = PlannedLoop::new(g, Schedule::global(&wf, 1).unwrap()).unwrap();
        let mut spec = CompiledSpec::new(3, 3);
        for i in 0..3 {
            spec.push_row(i as u32, i as u32, std::iter::empty());
        }
        spec.set_recip_scale(vec![0, 1, 2]);
        let compiled = CompiledPlan::compile(&plan, &spec).unwrap();
        let mut scratch = compiled.scratch();
        let mut out = vec![0.0; 3];
        compiled
            .run_sequential_fused(&mut scratch, &[2.0, 4.0, 8.0], &[1.0, 1.0, 1.0], &mut out)
            .unwrap();
        assert_eq!(out, vec![0.5, 0.25, 0.125]);
        // Zero pivot: typed error, caller-space row, output untouched.
        let mut out2 = vec![-7.0; 3];
        let err = compiled
            .run_sequential_fused(&mut scratch, &[2.0, 0.0, 8.0], &[1.0, 1.0, 1.0], &mut out2)
            .unwrap_err();
        assert_eq!(err, CompiledError::ZeroScale { row: 1 });
        assert_eq!(out2, vec![-7.0; 3]);
        // Wrong value-array length: typed error too.
        assert!(matches!(
            compiled.run_sequential_fused(&mut scratch, &[1.0], &[1.0, 1.0, 1.0], &mut out),
            Err(CompiledError::ValueCount { .. })
        ));
    }

    #[test]
    fn concurrent_runs_on_shared_plan_are_bit_exact() {
        let _unarmed = BODY_PANIC_POINT.read().unwrap_or_else(|e| e.into_inner());
        use std::sync::Arc;
        let l = laplacian_5pt(10, 10).strict_lower();
        let n = l.nrows();
        let plan = plan_for(&l, 2);
        let compiled = Arc::new(CompiledPlan::compile(&plan, &lower_spec(&l)).unwrap());
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64).collect();
        let mut expect = vec![0.0; n];
        {
            let mut scratch = compiled.scratch();
            compiled.load_values(&mut scratch, l.data()).unwrap();
            compiled.run_sequential(&mut scratch, &b, &mut expect);
        }
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let compiled = Arc::clone(&compiled);
                let l = &l;
                let b = &b;
                let expect = &expect;
                scope.spawn(move || {
                    let pool = WorkerPool::new(2);
                    let mut scratch = compiled.scratch();
                    compiled.load_values(&mut scratch, l.data()).unwrap();
                    for _ in 0..10 {
                        let mut out = vec![0.0; compiled.n()];
                        compiled.run(
                            Some(&pool),
                            ExecutorKind::SelfExecuting,
                            &mut scratch,
                            b,
                            &mut out,
                        );
                        assert_eq!(&out, expect);
                    }
                });
            }
        });
    }

    #[test]
    fn linear_from_graph_matches_planned_loop() {
        let _unarmed = BODY_PANIC_POINT.read().unwrap_or_else(|e| e.into_inner());
        // The spec a DoConsider analysis would hand over: coefficients in
        // adjacency order, one per dependence edge.
        let l = random_lower(120, 4, 7).strict_lower();
        let n = l.nrows();
        let g = DepGraph::from_lower_triangular(&l).unwrap();
        let spec = CompiledSpec::linear_from_graph(&g);
        assert_eq!(spec.rows(), n);
        // Adjacency coefficients: the matrix's own values (its column
        // lists are exactly the dependence lists).
        let plan = plan_for(&l, 2);
        let compiled = CompiledPlan::compile(&plan, &spec).unwrap();
        assert_eq!(compiled.expected_values(), g.num_edges());
        let mut scratch = compiled.scratch();
        compiled.load_values(&mut scratch, l.data()).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.23).sin()).collect();
        let mut reference = vec![0.0; n];
        plan.run(
            None,
            ExecutorKind::Sequential,
            &Solve { l: &l, b: &b },
            &mut reference,
        );
        let mut seq = vec![0.0; n];
        compiled.run_sequential(&mut scratch, &b, &mut seq);
        assert_eq!(seq, reference);
        let pool = WorkerPool::new(2);
        for policy in ExecutorKind::ALL {
            let mut out = vec![0.0; n];
            compiled.run(Some(&pool), policy, &mut scratch, &b, &mut out);
            assert_eq!(out, reference, "{policy:?}");
        }
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let l = laplacian_5pt(3, 3).strict_lower();
        let plan = plan_for(&l, 2);
        let n = l.nrows();
        // Wrong row count.
        let spec = CompiledSpec::new(n, l.nnz());
        assert!(matches!(
            CompiledPlan::compile(&plan, &spec),
            Err(CompiledError::Spec(_))
        ));
        // Operand not scheduled strictly earlier (self-reference).
        let mut spec = lower_spec(&l);
        spec.ops[0] = spec.n as u32 - 1; // row 0 reading the last row
        let got = CompiledPlan::compile(&plan, &spec);
        assert!(matches!(got, Err(CompiledError::Spec(_))), "{got:?}");
        // Duplicated out index.
        let mut spec = lower_spec(&l);
        spec.out[1] = spec.out[0];
        assert!(matches!(
            CompiledPlan::compile(&plan, &spec),
            Err(CompiledError::Spec(_))
        ));
        // Value array of the wrong length at load time.
        let compiled = CompiledPlan::compile(&plan, &lower_spec(&l)).unwrap();
        let mut scratch = compiled.scratch();
        assert!(matches!(
            compiled.load_values(&mut scratch, &[0.0]),
            Err(CompiledError::ValueCount { .. })
        ));
    }

    #[test]
    fn body_panic_failpoint_is_contained_per_policy() {
        let _armed = BODY_PANIC_POINT.write().unwrap_or_else(|e| e.into_inner());
        use crate::cancel::ExecError;
        use rtpl_sparse::failpoint;
        let l = laplacian_5pt(7, 7).strict_lower();
        let n = l.nrows();
        let b = vec![1.0; n];
        let plan = plan_for(&l, 2);
        let compiled = CompiledPlan::compile(&plan, &lower_spec(&l)).unwrap();
        let mut scratch = compiled.scratch();
        compiled.load_values(&mut scratch, l.data()).unwrap();
        let pool = WorkerPool::new(2);
        let mut expect = vec![0.0; n];
        compiled.run_sequential(&mut scratch, &b, &mut expect);
        // The fail point sits in the parallel kernel's per-worker prologue;
        // the sequential sweep has none.
        for policy in [
            ExecutorKind::SelfExecuting,
            ExecutorKind::PreScheduled,
            ExecutorKind::PreScheduledElided,
            ExecutorKind::Doacross,
        ] {
            failpoint::configure("exec.body_panic", failpoint::Mode::Times(1));
            let mut out = vec![0.0; n];
            let err = compiled
                .try_run(Some(&pool), policy, &mut scratch, &b, &mut out, None)
                .unwrap_err();
            assert!(
                matches!(err, ExecError::BodyPanicked { workers } if workers >= 1),
                "{policy:?}: {err:?}"
            );
            assert!(pool.is_healthy(), "{policy:?}");
            failpoint::clear("exec.body_panic");
            // Disarmed, the same scratch produces the exact result again.
            let mut again = vec![0.0; n];
            compiled
                .try_run(Some(&pool), policy, &mut scratch, &b, &mut again, None)
                .unwrap();
            assert_eq!(again, expect, "{policy:?}");
        }
    }

    #[test]
    #[should_panic(expected = "load_values must succeed")]
    fn running_unloaded_scratch_panics() {
        let l = laplacian_5pt(3, 3).strict_lower();
        let plan = plan_for(&l, 1);
        let compiled = CompiledPlan::compile(&plan, &lower_spec(&l)).unwrap();
        let mut scratch = compiled.scratch();
        let b = vec![0.0; compiled.n()];
        let mut out = vec![0.0; compiled.n()];
        compiled.run_sequential(&mut scratch, &b, &mut out);
    }
}
