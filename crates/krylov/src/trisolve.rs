//! Parallel sparse triangular solves: inspect → compile → solve.
//!
//! The forward (`L y = b`) and backward (`U x = y`) substitutions are the
//! run-time-schedulable loops at the heart of the paper: their dependences
//! are the factor's off-diagonal structure, known only after the
//! factorization. The inspector reads that *structure* once; the executor
//! is handed the *numbers* every run:
//!
//! 1. **Inspect.** A [`TriangularSolvePlan`] is built once per sparsity
//!    pattern — wavefronts, schedules, and barrier plans for both sweeps,
//!    as two [`PlannedLoop`]s. It reads index arrays only, so one plan
//!    serves every refactorization of its pattern, and a plan decoded from
//!    a stored artifact is the same object a fresh inspection builds.
//! 2. **Compile.** [`TriangularSolvePlan::compile`] bakes the schedules
//!    into execution-order data layouts: a [`CompiledTriSolve`], still
//!    values-free, shareable behind an `Arc`.
//! 3. **Solve.** Each solve hands the compiled plan the caller's factor
//!    values ([`CompiledTriSolve::solve`], or one
//!    [`CompiledTriSolve::load_values`] gather serving many right-hand
//!    sides) and allocates nothing: per-run state lives in a leasable
//!    [`CompiledSolveScratch`]. A zero pivot is a property of the values,
//!    so it is reported per solve, never at plan time.
//!
//! The backward sweep is scheduled in *reversed* index space (position
//! `k` stands for row `n−1−k`), which turns its dependences forward so the
//! same machinery applies unchanged.

use crate::{KrylovError, Result};
use rtpl_executor::compiled::{CompiledError, CompiledPlan, CompiledSpec, RunScratch};
use rtpl_executor::{CancelToken, ExecReport, PlannedLoop, WorkerPool};
use rtpl_inspector::{BarrierPlan, CoalesceStats, DepGraph, Schedule, Wavefronts};
use rtpl_sparse::ilu::IluFactors;
use rtpl_sparse::wire::{WireError, WireReader, WireResult, WireWriter};
use rtpl_sparse::{Csr, SparseError};

pub use rtpl_executor::ExecutorKind;
pub use rtpl_inspector::Sorting;

/// One factor's sparsity structure: the index half of a CSR matrix.
#[derive(Debug)]
struct Pattern {
    indptr: Vec<usize>,
    indices: Vec<u32>,
}

impl Pattern {
    fn of(m: &Csr) -> Self {
        Pattern {
            indptr: m.indptr().to_vec(),
            indices: m.indices().to_vec(),
        }
    }

    fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row `i`'s column indices, each paired with its position in the
    /// factor's value array.
    fn row(&self, i: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
        self.indices[lo..hi].iter().copied().zip(lo as u32..)
    }

    fn same_as(&self, m: &Csr) -> bool {
        self.indptr == m.indptr() && self.indices == m.indices()
    }
}

/// The inspection product for applying `(L·U)⁻¹`: both sweeps' schedules
/// over one sparsity pattern. A function of the factors' **structure
/// alone** — it holds index arrays and schedules, no factor value — and not
/// itself executable: [`TriangularSolvePlan::compile`] turns it into the
/// solver.
#[derive(Debug)]
pub struct TriangularSolvePlan {
    n: usize,
    l: Pattern,
    u: Pattern,
    plan_l: PlannedLoop,
    plan_u: PlannedLoop,
    kind: ExecutorKind,
    coalesce_l: Option<CoalesceStats>,
    coalesce_u: Option<CoalesceStats>,
}

/// The structural pass every plan goes through, freshly inspected or
/// decoded: `L` lower and `U` upper triangular (the dependence graphs'
/// constructors prove it), and every row of `U` stores its diagonal — the
/// backward sweep scales by its reciprocal. With `U` upper triangular and
/// rows sorted, a stored diagonal leads its row, so its position in the
/// value array is `indptr[i]` and needs no array of its own.
fn dependence_graphs(l: &Csr, u: &Csr) -> Result<(DepGraph, DepGraph)> {
    let g_l = DepGraph::from_lower_triangular(l)?;
    let g_u = DepGraph::from_upper_triangular(u)?;
    match (0..u.nrows()).find(|&i| u.row_indices(i).first() != Some(&(i as u32))) {
        Some(row) => Err(SparseError::MissingDiagonal { row }.into()),
        None => Ok((g_l, g_u)),
    }
}

impl TriangularSolvePlan {
    /// Inspects the factors' structure and builds schedules for `nprocs`
    /// processors.
    ///
    /// Phases are left exactly as the wavefront computation produced them —
    /// use [`TriangularSolvePlan::new_with_grain`] to merge shallow phases.
    pub fn new(
        factors: &IluFactors,
        nprocs: usize,
        kind: ExecutorKind,
        sorting: Sorting,
    ) -> Result<Self> {
        Self::new_with_grain(factors, nprocs, kind, sorting, None)
    }

    /// As [`TriangularSolvePlan::new`], optionally coalescing shallow
    /// wavefronts after scheduling ([`Schedule::coalesce`]): consecutive
    /// phases whose combined per-processor work stays at or below `grain`
    /// weighted operations merge into one phase, with the dependences
    /// inside a merged phase honored by each processor's baked execution
    /// order instead of a synchronization point. `None` (and `new`) keep
    /// the one-phase-per-wavefront schedule.
    ///
    /// Only `factors`' index arrays are read; a zero on `U`'s diagonal is
    /// the solve's to report ([`CompiledTriSolve::load_values`]).
    pub fn new_with_grain(
        factors: &IluFactors,
        nprocs: usize,
        kind: ExecutorKind,
        sorting: Sorting,
        grain: Option<f64>,
    ) -> Result<Self> {
        let plan = |g: DepGraph| {
            let wf = Wavefronts::compute(&g)?;
            PlannedLoop::build(g, &wf, sorting, nprocs, grain)
        };
        let (g_l, g_u) = dependence_graphs(&factors.l, &factors.u)?;
        let (plan_l, coalesce_l) = plan(g_l)?;
        let (plan_u, coalesce_u) = plan(g_u)?;
        Ok(TriangularSolvePlan {
            n: factors.n(),
            l: Pattern::of(&factors.l),
            u: Pattern::of(&factors.u),
            plan_l,
            plan_u,
            kind,
            coalesce_l,
            coalesce_u,
        })
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The executor the plan was built for — a default for callers that
    /// pick no kind per solve (it rides in the artifact).
    pub fn kind(&self) -> ExecutorKind {
        self.kind
    }

    /// Phase counts `(forward, backward)` — the paper reports these per
    /// problem in Tables 2–3. Coalesced plans report the *merged* counts.
    pub fn num_phases(&self) -> (usize, usize) {
        (self.plan_l.num_phases(), self.plan_u.num_phases())
    }

    /// Wavefront-coalescing statistics `(forward, backward)` — `None` per
    /// sweep when the plan was built without a grain (or decoded from an
    /// artifact that recorded none).
    pub fn coalesce_stats(&self) -> (Option<CoalesceStats>, Option<CoalesceStats>) {
        (self.coalesce_l, self.coalesce_u)
    }

    /// The planned forward-sweep loop (schedule, graph, barrier plan — for
    /// cost prediction, simulation, verification).
    pub fn plan_l(&self) -> &PlannedLoop {
        &self.plan_l
    }

    /// The planned backward-sweep loop, in reversed index space.
    pub fn plan_u(&self) -> &PlannedLoop {
        &self.plan_u
    }

    /// Flop weights of the forward sweep rows.
    pub fn weights_l(&self) -> Vec<f64> {
        self.l
            .indptr
            .windows(2)
            .map(|w| 1.0 + (w[1] - w[0]) as f64)
            .collect()
    }

    /// Cheap release-mode pattern compatibility check (full structural
    /// equality asserted in debug builds).
    fn check_same_pattern(&self, factors: &IluFactors) -> Result<()> {
        if factors.n() != self.n {
            return Err(KrylovError::DimensionMismatch {
                expected: self.n,
                found: factors.n(),
            });
        }
        if factors.l.nnz() != self.l.nnz() || factors.u.nnz() != self.u.nnz() {
            return Err(SparseError::InvalidStructure(format!(
                "factor pattern does not match the plan: L nnz {} vs {}, U nnz {} vs {}",
                factors.l.nnz(),
                self.l.nnz(),
                factors.u.nnz(),
                self.u.nnz()
            ))
            .into());
        }
        debug_assert!(self.l.same_as(&factors.l) && self.u.same_as(&factors.u));
        Ok(())
    }

    /// Compiles the fused forward+backward solve into schedule-order data
    /// layouts ([`CompiledPlan`]s), consuming the plan (which stays
    /// available through [`CompiledTriSolve::plan`] for prediction and
    /// statistics).
    ///
    /// Everything a sweep would otherwise redo per run is resolved here
    /// once: the backward sweep's `n−1−j` reversed-space remap and
    /// strict-upper filter are baked into the operand indices, the
    /// diagonal's reciprocal becomes a per-row scale applied at gather
    /// time, and each processor's work is a contiguous segment streamed
    /// linearly.
    pub fn compile(self) -> Result<CompiledTriSolve> {
        let n = self.n;
        let mut fwd_spec = CompiledSpec::new(n, self.l.nnz());
        for i in 0..n {
            fwd_spec.push_row(i as u32, i as u32, self.l.row(i));
        }
        let fwd = CompiledPlan::compile(&self.plan_l, &fwd_spec).map_err(map_compiled)?;

        // Backward, in reversed index space: plan position k stands for
        // row i = n−1−k; operand j>i becomes plan index n−1−j; values
        // gather straight from the caller's U array. The diagonal leads
        // its row (`dependence_graphs`): skipped as an operand, its
        // position is the reciprocal scale's source.
        let mut bwd_spec = CompiledSpec::new(n, self.u.nnz());
        for k in 0..n {
            let i = n - 1 - k;
            bwd_spec.push_row(
                i as u32,
                i as u32,
                self.u
                    .row(i)
                    .skip(1)
                    .map(|(j, pos)| ((n - 1 - j as usize) as u32, pos)),
            );
        }
        bwd_spec.set_recip_scale((0..n).map(|k| self.u.indptr[n - 1 - k] as u32).collect());
        let bwd = CompiledPlan::compile(&self.plan_u, &bwd_spec).map_err(map_compiled)?;
        Ok(CompiledTriSolve {
            plan: self,
            fwd,
            bwd,
        })
    }
}

/// Maps an executor-layer compiled error into solver terms.
fn map_compiled(e: CompiledError) -> KrylovError {
    match e {
        CompiledError::ZeroScale { row } => SparseError::ZeroPivot { row }.into(),
        other => {
            SparseError::InvalidStructure(format!("compiled triangular solve: {other}")).into()
        }
    }
}

/// The fused, compiled `L U x = b` application: two [`CompiledPlan`]s
/// (forward and backward sweeps) plus the originating
/// [`TriangularSolvePlan`].
///
/// The compiled plans are immutable — share one `CompiledTriSolve` behind
/// an `Arc` and give each concurrent request its own
/// [`CompiledSolveScratch`]; any number of threads then solve the same
/// cached pattern simultaneously. Results are bit-exact across all
/// [`ExecutorKind`]s and processor counts, and with the naive
/// natural-order substitution loop.
#[derive(Debug)]
pub struct CompiledTriSolve {
    plan: TriangularSolvePlan,
    fwd: CompiledPlan,
    bwd: CompiledPlan,
}

/// Leasable per-run state of a [`CompiledTriSolve`]: one executor scratch
/// per sweep and the intermediate forward result.
#[derive(Debug)]
pub struct CompiledSolveScratch {
    fwd: RunScratch,
    bwd: RunScratch,
    y: Vec<f64>,
}

impl CompiledTriSolve {
    /// The originating plan (schedules, graphs, phase counts).
    pub fn plan(&self) -> &TriangularSolvePlan {
        &self.plan
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.plan.n
    }

    /// The compiled forward sweep.
    pub fn forward_plan(&self) -> &CompiledPlan {
        &self.fwd
    }

    /// The compiled backward sweep (reversed index space resolved at
    /// compile time).
    pub fn backward_plan(&self) -> &CompiledPlan {
        &self.bwd
    }

    /// A fresh scratch for one concurrent solving client.
    pub fn scratch(&self) -> CompiledSolveScratch {
        CompiledSolveScratch {
            fwd: self.fwd.scratch(),
            bwd: self.bwd.scratch(),
            y: vec![0.0; self.plan.n],
        }
    }

    /// Solves `L U x = b` with caller-supplied factor values and a
    /// per-call executor discipline, returning the two sweep reports.
    ///
    /// Values are attached by one linear gather per sweep
    /// ([`CompiledPlan::load_values`], which also pre-applies `U`'s
    /// inverse diagonal); the runs themselves stream the compiled layout.
    /// `factors` must share the pattern the plan was inspected from (order
    /// and nonzero counts are checked always, the full index arrays in
    /// debug builds); values are unconstrained except for `U`'s diagonal,
    /// where a zero reports [`rtpl_sparse::SparseError::ZeroPivot`] with
    /// `x` unwritten. `pool` may be `None` only for
    /// [`ExecutorKind::Sequential`] (the sequential sweep forks no team);
    /// parallel kinds panic without one.
    pub fn solve(
        &self,
        pool: Option<&WorkerPool>,
        kind: ExecutorKind,
        factors: &IluFactors,
        b: &[f64],
        x: &mut [f64],
        scratch: &mut CompiledSolveScratch,
    ) -> Result<(ExecReport, ExecReport)> {
        self.load_values(factors, scratch)?;
        self.solve_loaded(pool, kind, b, x, scratch)
    }

    /// The single-request fast path: solves `L U x = b` sequentially with
    /// the value gather **fused into each sweep**, so a lone solve makes
    /// one pass over each factor's values instead of the gather + run
    /// split that [`CompiledTriSolve::solve`] pays
    /// ([`CompiledPlan::run_sequential_fused`] under the hood). Bit-exact
    /// with `solve(None, ExecutorKind::Sequential, ..)` — identical
    /// per-row arithmetic, including the pre-applied reciprocal diagonal.
    ///
    /// The scratch's loaded values are untouched, so alternating between
    /// this path and the batch `load_values`/`solve_loaded` flow is safe.
    /// A zero `U` diagonal reports [`rtpl_sparse::SparseError::ZeroPivot`]
    /// with `x` unwritten, like the split path's load-time failure.
    pub fn solve_fused_sequential(
        &self,
        factors: &IluFactors,
        b: &[f64],
        x: &mut [f64],
        scratch: &mut CompiledSolveScratch,
    ) -> Result<(ExecReport, ExecReport)> {
        self.plan.check_same_pattern(factors)?;
        assert_eq!(b.len(), self.plan.n);
        assert_eq!(x.len(), self.plan.n);
        let fwd = self
            .fwd
            .run_sequential_fused(&mut scratch.fwd, factors.l.data(), b, &mut scratch.y)
            .map_err(map_compiled)?;
        let bwd = self
            .bwd
            .run_sequential_fused(&mut scratch.bwd, factors.u.data(), &scratch.y, x)
            .map_err(map_compiled)?;
        Ok((fwd, bwd))
    }

    /// Gathers `factors`' numeric values into `scratch` (one linear pass
    /// per sweep, `U`'s inverse diagonal pre-applied) without running —
    /// the front half of [`CompiledTriSolve::solve`]. A batch of solves
    /// sharing one factor object loads once and then calls
    /// [`CompiledTriSolve::solve_loaded`] per right-hand side.
    ///
    /// `factors` must share the pattern the plan was inspected from
    /// (checked as in [`CompiledTriSolve::solve`]). A zero on `U`'s
    /// diagonal reports [`rtpl_sparse::SparseError::ZeroPivot`]; the
    /// scratch then holds a partial gather and needs a successful load
    /// before the next [`CompiledTriSolve::solve_loaded`].
    pub fn load_values(
        &self,
        factors: &IluFactors,
        scratch: &mut CompiledSolveScratch,
    ) -> Result<()> {
        self.plan.check_same_pattern(factors)?;
        self.fwd
            .load_values(&mut scratch.fwd, factors.l.data())
            .map_err(map_compiled)?;
        self.bwd
            .load_values(&mut scratch.bwd, factors.u.data())
            .map_err(map_compiled)?;
        Ok(())
    }

    /// Runs the fused solve over values already gathered into `scratch` by
    /// a successful [`CompiledTriSolve::load_values`] — the back half of
    /// [`CompiledTriSolve::solve`]. Repeated calls with fresh right-hand
    /// sides amortize the per-factor gather across a whole request group.
    pub fn solve_loaded(
        &self,
        pool: Option<&WorkerPool>,
        kind: ExecutorKind,
        b: &[f64],
        x: &mut [f64],
        scratch: &mut CompiledSolveScratch,
    ) -> Result<(ExecReport, ExecReport)> {
        self.solve_loaded_cancellable(pool, kind, b, x, scratch, None)
    }

    /// As [`CompiledTriSolve::solve_loaded`] with failure containment: a
    /// panicking sweep or a fired [`CancelToken`] (explicit or deadline)
    /// comes back as [`KrylovError::Exec`] instead of unwinding, with the
    /// plan, the scratch, and the pool all still usable. The token is
    /// consulted on entry to each sweep, and under a parallel kind inside
    /// each sweep too ([`CompiledPlan::try_run`]).
    pub fn solve_loaded_cancellable(
        &self,
        pool: Option<&WorkerPool>,
        kind: ExecutorKind,
        b: &[f64],
        x: &mut [f64],
        scratch: &mut CompiledSolveScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<(ExecReport, ExecReport)> {
        let fwd = self
            .fwd
            .try_run(pool, kind, &mut scratch.fwd, b, &mut scratch.y, cancel)?;
        let bwd = self
            .bwd
            .try_run(pool, kind, &mut scratch.bwd, &scratch.y, x, cancel)?;
        Ok((fwd, bwd))
    }
}

/// Version tag of the structure-only plan artifact encoding. Bumped on any
/// layout change; readers reject other versions with a typed error.
///
/// Version 2: compiled layouts switched from per-position operand pointers
/// (`op_ptr`) to the deduplicated supernode layout (`val_ptr` + `op_start`),
/// and artifacts carry the wavefront-coalescing statistics per sweep.
/// Version-1 artifacts are refused, forcing a cold re-inspect.
pub const ARTIFACT_VERSION: u32 = 2;

fn put_coalesce(w: &mut WireWriter, s: Option<CoalesceStats>) {
    match s {
        None => w.put_u8(0),
        Some(s) => {
            w.put_u8(1);
            w.put_u64(s.phases_before as u64);
            w.put_u64(s.phases_after as u64);
            w.put_u64(s.moved as u64);
        }
    }
}

fn get_coalesce(r: &mut WireReader) -> WireResult<Option<CoalesceStats>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(CoalesceStats {
            phases_before: r.u64()? as usize,
            phases_after: r.u64()? as usize,
            moved: r.u64()? as usize,
        })),
        other => Err(WireError::Invalid(format!(
            "unknown coalesce-stats tag {other}"
        ))),
    }
}

impl CompiledTriSolve {
    /// Serializes everything the inspector and the compiler produced —
    /// factor *structure*, schedules, minimal barrier sets, and both
    /// compiled layouts — into a self-contained byte artifact. The
    /// dependence graphs are omitted: they are deterministic functions of
    /// the factor structure and are rebuilt on decode.
    /// **No numeric values are stored**: every solving path of a
    /// `CompiledTriSolve` attaches the caller's factor values per call, so
    /// the artifact stays valid across refactorizations of the pattern.
    pub fn encode_artifact(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u32(ARTIFACT_VERSION);
        let p = &self.plan;
        w.put_u64(p.n as u64);
        w.put_u8(p.kind as u8);
        put_coalesce(&mut w, p.coalesce_l);
        put_coalesce(&mut w, p.coalesce_u);
        w.put_usizes32(&p.l.indptr);
        w.put_u32s(&p.l.indices);
        w.put_usizes32(&p.u.indptr);
        w.put_u32s(&p.u.indices);
        p.plan_l.schedule().encode(&mut w);
        p.plan_l.barrier_plan().encode(&mut w);
        p.plan_u.schedule().encode(&mut w);
        p.plan_u.barrier_plan().encode(&mut w);
        self.fwd.encode(&mut w);
        self.bwd.encode(&mut w);
        w.into_bytes()
    }

    /// Reconstructs a solve plan from [`CompiledTriSolve::encode_artifact`]
    /// bytes **without re-running the expensive inspector stages**: no
    /// wavefront computation, no schedule sort or validation, no barrier
    /// cover re-derivation, no compile-time permutation proof — only
    /// linear shape-and-bounds checks plus the structural pass every
    /// fresh plan goes through (triangularity, stored diagonals, the
    /// single-pass dependence graph rebuild). That asymmetry is the
    /// point: a store hit must be much cheaper than a cold inspect +
    /// compile.
    ///
    /// Plans hold no numeric values, so the result is the same object a
    /// fresh inspection of the pattern builds: every solving path works on
    /// it, bit-exact with the original.
    pub fn decode_artifact(bytes: &[u8]) -> WireResult<CompiledTriSolve> {
        let mut r = WireReader::new(bytes);
        let version = r.u32()?;
        if version != ARTIFACT_VERSION {
            return Err(WireError::Invalid(format!(
                "plan artifact version {version}, this build reads {ARTIFACT_VERSION}"
            )));
        }
        let n = r.u64()? as usize;
        // Compiled layouts index rows with u32s; a larger order cannot have
        // been encoded.
        if n > u32::MAX as usize {
            return Err(WireError::Invalid(format!(
                "artifact order {n} exceeds u32 row indexing"
            )));
        }
        let kind = ExecutorKind::from_tag(r.u8()?)
            .ok_or_else(|| WireError::Invalid("unknown executor kind tag".into()))?;
        let coalesce_l = get_coalesce(&mut r)?;
        let coalesce_u = get_coalesce(&mut r)?;
        // `Csr` is the workspace's validated structure carrier, and what
        // the dependence-graph constructors read: each factor's index
        // arrays ride in a zero-valued matrix for the length of this
        // function.
        fn bad_structure(e: impl std::fmt::Display) -> WireError {
            WireError::Invalid(format!("artifact structure: {e}"))
        }
        let mut structure = || {
            let (indptr, indices) = (r.usizes32()?, r.u32s()?);
            let zeros = vec![0.0; indices.len()];
            Csr::try_new(n, n, indptr, indices, zeros).map_err(bad_structure)
        };
        let (l, u) = (structure()?, structure()?);
        // The graphs were not encoded; construction is deterministic, so
        // the rebuilt graphs are identical to the ones the schedules were
        // computed from.
        let (g_l, g_u) = dependence_graphs(&l, &u).map_err(bad_structure)?;
        let bad_plan = |what: &'static str| {
            move |e: rtpl_inspector::InspectorError| {
                WireError::Invalid(format!("artifact {what} plan: {e}"))
            }
        };
        let s_l = Schedule::decode(&mut r)?;
        let b_l = BarrierPlan::decode(&mut r)?;
        let plan_l = PlannedLoop::from_parts(g_l, s_l, b_l).map_err(bad_plan("forward"))?;
        let s_u = Schedule::decode(&mut r)?;
        let b_u = BarrierPlan::decode(&mut r)?;
        let plan_u = PlannedLoop::from_parts(g_u, s_u, b_u).map_err(bad_plan("backward"))?;
        let fwd = CompiledPlan::decode(&mut r)?;
        let bwd = CompiledPlan::decode(&mut r)?;
        r.finish()?;

        if plan_l.n() != n || plan_u.n() != n || fwd.n() != n || bwd.n() != n {
            return Err(WireError::Invalid(format!(
                "artifact component sizes disagree with order {n}"
            )));
        }
        if fwd.expected_values() != l.nnz() || bwd.expected_values() != u.nnz() {
            return Err(WireError::Invalid(
                "compiled layout value counts disagree with factor structure".into(),
            ));
        }
        let plan = TriangularSolvePlan {
            n,
            l: Pattern::of(&l),
            u: Pattern::of(&u),
            plan_l,
            plan_u,
            kind,
            coalesce_l,
            coalesce_u,
        };
        Ok(CompiledTriSolve { plan, fwd, bwd })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpl_sparse::dense::max_abs_diff;
    use rtpl_sparse::gen::laplacian_5pt;
    use rtpl_sparse::ilu0;
    use rtpl_sparse::triangular::{solve_lower, solve_upper, Diag};

    fn reference_solve(f: &IluFactors, b: &[f64]) -> Vec<f64> {
        let n = f.n();
        let mut y = vec![0.0; n];
        solve_lower(&f.l, b, Diag::Unit, &mut y).unwrap();
        let mut x = vec![0.0; n];
        solve_upper(&f.u, &y, Diag::Stored, &mut x).unwrap();
        x
    }

    /// The bit-exact oracle: the naive substitution loop in natural row
    /// order and CSR operand order, scaling by the diagonal's reciprocal as
    /// the compiled layout does. Shares no code with inspector or executor.
    fn naive_solve(f: &IluFactors, b: &[f64]) -> Vec<f64> {
        let n = f.n();
        let mut y = vec![0.0; n];
        for i in 0..n {
            y[i] = f.l.row(i).fold(b[i], |acc, (j, v)| acc - v * y[j]);
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let (mut acc, mut d) = (y[i], 0.0);
            for (j, v) in f.u.row(i) {
                if j == i {
                    d = v;
                } else {
                    acc -= v * x[j];
                }
            }
            x[i] = acc * (1.0 / d);
        }
        x
    }

    #[test]
    fn all_executors_match_reference() {
        let a = laplacian_5pt(9, 7);
        let f = ilu0(&a).unwrap();
        let n = f.n();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.11).sin()).collect();
        let expect = reference_solve(&f, &b);
        let nprocs = 3;
        let pool = WorkerPool::new(nprocs);
        for kind in [
            ExecutorKind::Sequential,
            ExecutorKind::Doacross,
            ExecutorKind::PreScheduled,
            ExecutorKind::PreScheduledElided,
            ExecutorKind::SelfExecuting,
        ] {
            for sorting in [
                Sorting::Global,
                Sorting::LocalStriped,
                Sorting::LocalContiguous,
            ] {
                let compiled = TriangularSolvePlan::new(&f, nprocs, kind, sorting)
                    .unwrap()
                    .compile()
                    .unwrap();
                let mut x = vec![0.0; n];
                compiled
                    .solve(Some(&pool), kind, &f, &b, &mut x, &mut compiled.scratch())
                    .unwrap();
                assert!(
                    max_abs_diff(&x, &expect) < 1e-12,
                    "{kind:?}/{sorting:?} deviates"
                );
            }
        }
    }

    #[test]
    fn phase_counts_match_mesh_geometry() {
        // ILU(0) of an m×n 5-pt mesh: L deps = west/south, so wavefronts are
        // anti-diagonals and phases = m + n − 1 for both sweeps.
        let a = laplacian_5pt(6, 11);
        let f = ilu0(&a).unwrap();
        let plan =
            TriangularSolvePlan::new(&f, 4, ExecutorKind::SelfExecuting, Sorting::Global).unwrap();
        assert_eq!(plan.num_phases(), (16, 16));
    }

    #[test]
    fn zero_pivot_is_reported_per_solve_not_at_plan_time() {
        use rtpl_sparse::CooBuilder;
        let u_with = |d1: f64| {
            let mut bld = CooBuilder::new(2, 2);
            bld.push(0, 0, 1.0);
            bld.push(1, 1, d1);
            bld.build()
        };
        let l = Csr::try_new(2, 2, vec![0, 0, 0], vec![], vec![]).unwrap();
        let bad = IluFactors {
            l: l.clone(),
            u: u_with(0.0),
        };
        // The plan is a function of structure: singular values build it.
        let compiled = TriangularSolvePlan::new(&bad, 2, ExecutorKind::Sequential, Sorting::Global)
            .unwrap()
            .compile()
            .unwrap();
        let zero_pivot = |r: Result<()>| {
            assert_eq!(r, Err(SparseError::ZeroPivot { row: 1 }.into()));
        };
        let mut scratch = compiled.scratch();
        let b = [3.0, 4.0];
        let mut x = [-7.0; 2];
        zero_pivot(compiled.load_values(&bad, &mut scratch));
        let solved = compiled.solve(
            None,
            ExecutorKind::Sequential,
            &bad,
            &b,
            &mut x,
            &mut scratch,
        );
        zero_pivot(solved.map(|_| ()));
        let fused = compiled.solve_fused_sequential(&bad, &b, &mut x, &mut scratch);
        zero_pivot(fused.map(|_| ()));
        assert_eq!(x, [-7.0; 2], "a zero pivot leaves x unwritten");
        // Good values on the same compiled plan then solve.
        let good = IluFactors { l, u: u_with(2.0) };
        compiled
            .solve(
                None,
                ExecutorKind::Sequential,
                &good,
                &b,
                &mut x,
                &mut scratch,
            )
            .unwrap();
        assert_eq!(x, [3.0, 2.0]);
        compiled
            .solve_fused_sequential(&good, &b, &mut x, &mut scratch)
            .unwrap();
        assert_eq!(x, [3.0, 2.0]);
    }

    #[test]
    fn plan_is_reusable_across_right_hand_sides() {
        let a = laplacian_5pt(5, 5);
        let f = ilu0(&a).unwrap();
        let compiled =
            TriangularSolvePlan::new(&f, 2, ExecutorKind::SelfExecuting, Sorting::Global)
                .unwrap()
                .compile()
                .unwrap();
        let pool = WorkerPool::new(2);
        let mut scratch = compiled.scratch();
        for seed in 0..4 {
            let b: Vec<f64> = (0..25).map(|i| ((i + seed) as f64).cos()).collect();
            let expect = reference_solve(&f, &b);
            let mut x = vec![0.0; 25];
            compiled
                .solve(
                    Some(&pool),
                    ExecutorKind::SelfExecuting,
                    &f,
                    &b,
                    &mut x,
                    &mut scratch,
                )
                .unwrap();
            assert!(max_abs_diff(&x, &expect) < 1e-12);
        }
    }

    #[test]
    fn solve_with_refreshes_values_on_a_cached_structure() {
        // Build the plan from one set of factor values, then solve with a
        // *different* set sharing the pattern: results must match the
        // reference for the new values, under every discipline.
        let a = laplacian_5pt(7, 6);
        let f_old = ilu0(&a).unwrap();
        let plan = TriangularSolvePlan::new(&f_old, 3, ExecutorKind::Sequential, Sorting::Global)
            .unwrap()
            .compile()
            .unwrap();
        // New values: scale the matrix, refactor — same pattern, new numbers.
        let mut a2 = a.clone();
        for (k, v) in a2.data_mut().iter_mut().enumerate() {
            *v *= 1.0 + 0.01 * (k % 7) as f64;
        }
        let f_new = ilu0(&a2).unwrap();
        assert_eq!(f_old.l.indices(), f_new.l.indices());
        assert_ne!(f_old.u.data(), f_new.u.data());
        let n = f_new.n();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let expect = reference_solve(&f_new, &b);
        let pool = WorkerPool::new(3);
        let mut scratch = plan.scratch();
        let mut seq = vec![0.0; n];
        plan.solve(
            None,
            ExecutorKind::Sequential,
            &f_new,
            &b,
            &mut seq,
            &mut scratch,
        )
        .unwrap();
        assert!(max_abs_diff(&seq, &expect) < 1e-12);
        for kind in [
            ExecutorKind::Doacross,
            ExecutorKind::PreScheduled,
            ExecutorKind::PreScheduledElided,
            ExecutorKind::SelfExecuting,
        ] {
            let mut x = vec![0.0; n];
            let (fwd, bwd) = plan
                .solve(Some(&pool), kind, &f_new, &b, &mut x, &mut scratch)
                .unwrap();
            // Bit-exact across disciplines: every executor performs the
            // identical per-row arithmetic.
            assert_eq!(x, seq, "{kind:?}");
            assert_eq!(fwd.total_iters() as usize, n);
            assert_eq!(bwd.total_iters() as usize, n);
        }
    }

    #[test]
    fn solve_with_rejects_mismatched_pattern() {
        let f_a = ilu0(&laplacian_5pt(5, 5)).unwrap();
        let f_b = ilu0(&laplacian_5pt(6, 5)).unwrap();
        let plan = TriangularSolvePlan::new(&f_a, 2, ExecutorKind::Sequential, Sorting::Global)
            .unwrap()
            .compile()
            .unwrap();
        let pool = WorkerPool::new(2);
        let n_b = f_b.n();
        let b = vec![1.0; n_b];
        let mut x = vec![0.0; n_b];
        let mut scratch = plan.scratch();
        assert!(matches!(
            plan.solve(
                Some(&pool),
                ExecutorKind::Sequential,
                &f_b,
                &b,
                &mut x,
                &mut scratch
            ),
            Err(KrylovError::DimensionMismatch { .. })
        ));
    }

    /// Every kind × processor count against the naive loop, bit for bit.
    #[test]
    fn compiled_solve_is_bit_exact_with_fallback_for_every_kind() {
        let a = laplacian_5pt(8, 7);
        let f = ilu0(&a).unwrap();
        let n = f.n();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.21).sin()).collect();
        let reference = naive_solve(&f, &b);
        for nprocs in [1usize, 2, 4] {
            let compiled =
                TriangularSolvePlan::new(&f, nprocs, ExecutorKind::Sequential, Sorting::Global)
                    .unwrap()
                    .compile()
                    .unwrap();
            let pool = WorkerPool::new(nprocs);
            let mut c_scratch = compiled.scratch();
            for kind in ExecutorKind::ALL {
                let mut x = vec![0.0; n];
                let (fwd, bwd) = compiled
                    .solve(Some(&pool), kind, &f, &b, &mut x, &mut c_scratch)
                    .unwrap();
                assert_eq!(x, reference, "{kind:?}/{nprocs} compiled deviates");
                assert_eq!(fwd.total_iters() as usize, n);
                assert_eq!(bwd.total_iters() as usize, n);
            }
        }
    }

    #[test]
    fn load_once_solve_many_is_bit_exact_with_per_call_loads() {
        // The batch hot path: one value gather, many right-hand sides.
        let a = laplacian_5pt(7, 7);
        let f = ilu0(&a).unwrap();
        let compiled = TriangularSolvePlan::new(&f, 2, ExecutorKind::Sequential, Sorting::Global)
            .unwrap()
            .compile()
            .unwrap();
        let n = compiled.n();
        let pool = WorkerPool::new(2);
        let mut loaded = compiled.scratch();
        let mut fresh = compiled.scratch();
        compiled.load_values(&f, &mut loaded).unwrap();
        for (salt, kind) in ExecutorKind::ALL.into_iter().enumerate() {
            let b: Vec<f64> = (0..n)
                .map(|i| 1.0 + ((i + salt) as f64 * 0.3).cos())
                .collect();
            let mut x = vec![0.0; n];
            compiled
                .solve_loaded(Some(&pool), kind, &b, &mut x, &mut loaded)
                .unwrap();
            let mut expect = vec![0.0; n];
            compiled
                .solve(Some(&pool), kind, &f, &b, &mut expect, &mut fresh)
                .unwrap();
            assert_eq!(x, expect, "{kind:?}");
        }
    }

    #[test]
    fn compiled_solve_refreshes_values_and_rejects_zero_pivot() {
        let a = laplacian_5pt(6, 6);
        let f_old = ilu0(&a).unwrap();
        let compiled =
            TriangularSolvePlan::new(&f_old, 2, ExecutorKind::Sequential, Sorting::Global)
                .unwrap()
                .compile()
                .unwrap();
        let n = compiled.n();
        let mut scratch = compiled.scratch();
        // New values on the same pattern.
        let mut a2 = a.clone();
        for (k, v) in a2.data_mut().iter_mut().enumerate() {
            *v *= 1.0 + 0.03 * (k % 4) as f64;
        }
        let f_new = ilu0(&a2).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).cos()).collect();
        let expect = reference_solve(&f_new, &b);
        let mut x = vec![0.0; n];
        compiled
            .solve(
                None,
                ExecutorKind::Sequential,
                &f_new,
                &b,
                &mut x,
                &mut scratch,
            )
            .unwrap();
        assert!(max_abs_diff(&x, &expect) < 1e-12);
        // A zero pivot in the caller's values is caught by the gather.
        let mut f_bad = f_new.clone();
        let diag_pos = f_bad.u.indptr()[3]; // row 3's first entry is its diagonal
        f_bad.u.data_mut()[diag_pos] = 0.0;
        assert!(matches!(
            compiled.solve(
                None,
                ExecutorKind::Sequential,
                &f_bad,
                &b,
                &mut x,
                &mut scratch
            ),
            Err(KrylovError::Sparse(rtpl_sparse::SparseError::ZeroPivot {
                row: 3
            }))
        ));
    }

    #[test]
    fn coalesced_plan_is_bit_exact_and_round_trips() {
        let a = laplacian_5pt(9, 9);
        let f = ilu0(&a).unwrap();
        let n = f.n();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.17).sin()).collect();
        for nprocs in [1usize, 2, 4] {
            let pool = WorkerPool::new(nprocs);
            let base =
                TriangularSolvePlan::new(&f, nprocs, ExecutorKind::Sequential, Sorting::Global)
                    .unwrap()
                    .compile()
                    .unwrap();
            let coal = TriangularSolvePlan::new_with_grain(
                &f,
                nprocs,
                ExecutorKind::Sequential,
                Sorting::Global,
                Some(64.0),
            )
            .unwrap()
            .compile()
            .unwrap();
            let (sl, su) = coal.plan().coalesce_stats();
            let (sl, su) = (sl.unwrap(), su.unwrap());
            assert!(
                sl.phases_after < sl.phases_before && su.phases_after < su.phases_before,
                "grain 64 must merge phases on a 9x9 mesh ({sl:?}, {su:?})"
            );
            assert_eq!(coal.plan().num_phases(), (sl.phases_after, su.phases_after));
            assert_eq!(base.plan().coalesce_stats(), (None, None));
            let mut base_scratch = base.scratch();
            let mut coal_scratch = coal.scratch();
            let mut expect = vec![0.0; n];
            base.solve_fused_sequential(&f, &b, &mut expect, &mut base_scratch)
                .unwrap();
            for kind in ExecutorKind::ALL {
                let mut x = vec![0.0; n];
                coal.solve(Some(&pool), kind, &f, &b, &mut x, &mut coal_scratch)
                    .unwrap();
                assert_eq!(x, expect, "{kind:?}/{nprocs} coalesced deviates");
            }
            // The artifact round-trips the merged schedule and its stats.
            let decoded = CompiledTriSolve::decode_artifact(&coal.encode_artifact()).unwrap();
            assert_eq!(
                decoded.plan().coalesce_stats(),
                (Some(sl), Some(su)),
                "stats survive the artifact"
            );
            let mut d_scratch = decoded.scratch();
            let mut x = vec![0.0; n];
            decoded
                .solve_fused_sequential(&f, &b, &mut x, &mut d_scratch)
                .unwrap();
            assert_eq!(x, expect, "decoded coalesced artifact deviates");
        }
    }

    #[test]
    fn pre_bump_artifact_version_is_refused() {
        let f = ilu0(&laplacian_5pt(5, 5)).unwrap();
        let compiled = TriangularSolvePlan::new(&f, 2, ExecutorKind::Sequential, Sorting::Global)
            .unwrap()
            .compile()
            .unwrap();
        let mut bytes = compiled.encode_artifact();
        // The version is the leading little-endian u32; rewrite it to the
        // pre-supernode tag and the reader must refuse outright.
        bytes[..4].copy_from_slice(&1u32.to_le_bytes());
        let err = CompiledTriSolve::decode_artifact(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("version 1"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn reports_expose_discipline_character() {
        let a = laplacian_5pt(8, 8);
        let f = ilu0(&a).unwrap();
        let n = f.n();
        let b = vec![1.0; n];
        let pool = WorkerPool::new(2);
        let kind = ExecutorKind::PreScheduled;
        let compiled = TriangularSolvePlan::new(&f, 2, kind, Sorting::Global)
            .unwrap()
            .compile()
            .unwrap();
        let mut x = vec![0.0; n];
        let (fwd, bwd) = compiled
            .solve(Some(&pool), kind, &f, &b, &mut x, &mut compiled.scratch())
            .unwrap();
        let plan = compiled.plan();
        assert_eq!(fwd.barriers as usize, plan.num_phases().0 - 1);
        assert_eq!(bwd.barriers as usize, plan.num_phases().1 - 1);
        assert_eq!(fwd.stalls, 0);
        assert_eq!(fwd.total_iters() as usize, n);
    }
}
