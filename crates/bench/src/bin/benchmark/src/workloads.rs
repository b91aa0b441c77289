//! The seven workloads.
//!
//! Each one is a closed loop: a caller (or `nproc` callers, for the served
//! workload) issues its next op only after the previous one was answered
//! and checked — the callers are solver processes that block on the reply.
//! Every numeric value and request order derives from the seed (structures
//! are pinned, see `STRUCTURE_SEED`); the product only ever sees the
//! generated matrices and vectors. End-to-end numbers come from the
//! surface ROADMAP item 2 names as surviving (`Runtime::{new, submit,
//! submit_batch, stats, preconditioner, solve_key}`, `Job::{solve,
//! linear}`, `Server::spawn`/`Client`, `krylov::gmres`, `ilu0`, the
//! workload generators, the naive triangular loops); everything deeper
//! lives in `probes.rs`.

use crate::oracle::{self, Oracle};
use crate::sampler::{Lane, OpCtx, Verdict};
use crate::trace::now_ns;
use rtpl::executor::WorkerPool;
use rtpl::inspector::DepGraph;
use rtpl::krylov::{gmres, KrylovConfig, Precondition};
use rtpl::runtime::{Job, LoopSpec, NoBody, Runtime, RuntimeConfig, RuntimeStats};
use rtpl::server::{Client, Response, Server, ServerConfig};
use rtpl::sparse::ilu::IluFactors;
use rtpl::sparse::rng::SmallRng;
use rtpl::sparse::{ilu0, CooBuilder, Csr, PatternFingerprint};
use rtpl::workload::{pattern_set, ProblemId, RequestKind, SyntheticSpec, TestProblem, ZipfMix};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// Static description of one workload.
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the README.
    pub why: &'static str,
    /// The reported tail: p99, or the highest of p95 / p90 that leaves ≥ 10
    /// samples beyond it in every timed slice at this workload's op rate
    /// (`krylov_pde`: in the run's five slices together), or lower where
    /// the entry says why.
    pub tail_p: f64,
}

impl Spec {
    /// Ops the timed slices must make between them so the tail rule holds
    /// at least on their pooled latencies (`10 / (1 − tail_p)` plus a
    /// tenth: 1 100 for p99, 220 for p95, 110 for p90); a slice runs on
    /// past its length until it has its fifth of them.
    pub fn min_ops(&self) -> u64 {
        (1.1 * crate::sampler::MIN_BEYOND as f64 / (1.0 - self.tail_p)).round() as u64
    }
}

pub const SPECS: [Spec; 7] = [
    Spec {
        name: "warm_large",
        why: "out-of-cache warm solve (n = 40 000): a memory-bound sweep plus the fingerprint of 200 k nonzeros are the op, so kernel and layout changes show and lease, selector and stats changes must not",
        tail_p: 0.95,
    },
    Spec {
        name: "warm_small",
        why: "tiny warm solves (n = 144) over 64 Zipf patterns: fingerprint, cache lookup, lease, selector and stats dominate the ~2 us sweep",
        // Not p99: ~1 % of 8 us ops have a timer tick land on them, so p99
        // sits on the knee between them and the rest (p98 12 us, p99 14 to
        // 25 us) and reports the share of that class, not the product.
        tail_p: 0.95,
    },
    Spec {
        name: "batch_mixed",
        why: "submit_batch of 32 mixed solve + linear jobs: same cache and kernel used through grouping and one gather per group",
        tail_p: 0.99,
    },
    Spec {
        name: "cold_churn",
        why: "every op misses the plan cache (384 patterns round-robin over a 128-entry LRU): inspector, coalesce, compile and evictions do all the work",
        tail_p: 0.99,
    },
    Spec {
        name: "disk_rewarm",
        why: "first solve of a pattern in a fresh runtime whose store holds its artifact: store get, decode and unconditional verify dominate",
        // p99 of a slice's ~2 500 ops rests on 25 samples; its ten-run
        // spread reached the widest bound the contract allows.
        tail_p: 0.95,
    },
    Spec {
        name: "krylov_pde",
        why: "one GMRES(30)+ILU(0) solve per op in a fresh runtime, nproc-worker pool: one cold inspection over ~76 warm sweeps and ~1 300 fork/joins, so inspector, kernel and executor dispatch all show",
        tail_p: 0.90,
    },
    Spec {
        name: "served_small",
        why: "loopback TCP, nproc closed-loop clients, solve_by_fingerprint on 8 tiny patterns: gather window, thread hops and codec are ~98 % of the op",
        tail_p: 0.99,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// What set-up gets from the command line.
pub struct Env {
    pub seed: u64,
    /// Load-generating threads / connections (the host's core count).
    pub nproc: usize,
    /// A directory inside the checkout for store files; removed at exit.
    pub tmp: PathBuf,
}

/// Input sizes, so a number is never separated from what it measured.
#[derive(Clone, Copy, Debug)]
pub struct Facts {
    pub n: usize,
    pub nnz: usize,
    pub patterns: usize,
    pub clients: usize,
}

/// Cumulative product counters by name; differences of two snapshots give
/// the per-layer count metrics of a measured window.
#[derive(Clone, Debug, Default)]
pub struct Counts(pub BTreeMap<&'static str, f64>);

impl Counts {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `self − earlier`, key by key.
    pub fn since(&self, earlier: &Counts) -> Counts {
        let mut out = self.clone();
        for (k, v) in &earlier.0 {
            out.add(k, -*v);
        }
        out
    }

    pub fn add_runtime(&mut self, s: &RuntimeStats) {
        for c in [&s.solves, &s.loops, &s.linears] {
            self.add("cache.hits", c.hits as f64);
            self.add("cache.misses", c.misses as f64);
            self.add("cache.builds", c.builds as f64);
            self.add("cache.evictions", c.evictions as f64);
        }
        self.add("runs.total", s.policy_runs.iter().sum::<u64>() as f64);
        self.add(
            "runs.sequential",
            s.runs_for(rtpl::krylov::ExecutorKind::Sequential) as f64,
        );
        self.add("store_hits", s.store_hits as f64);
        self.add("store_misses", s.store_misses as f64);
        self.add("store_load_errors", s.store_load_errors as f64);
        self.add("pools_created", s.pools_created as f64);
        self.add("scratches_created", s.scratches_created as f64);
        self.add("supernode_positions", s.supernode_positions as f64);
        self.add("verified_plans", s.verified_plans as f64);
    }
}

/// How the representative matrix of a workload is generated (timed by the
/// `workload.pattern_gen_ns` probe).
#[derive(Clone, Copy, Debug)]
pub enum PatternGen {
    Problem(ProblemId),
    Synthetic { mesh: usize },
}

impl PatternGen {
    pub fn generate(self) -> Csr {
        match self {
            PatternGen::Problem(id) => TestProblem::build(id).matrix,
            PatternGen::Synthetic { mesh } => synthetic(mesh).generate(STRUCTURE_SEED),
        }
    }
}

/// The same inputs the workload runs on, handed to `probes.rs` so each
/// layer can be timed standalone on them.
pub struct ProbeInput {
    /// A system `A x = b` whose ILU factors are `patterns[0]` (the PDE
    /// matrix on the mesh workloads; `L·U` itself on synthetic patterns).
    pub a: Csr,
    /// Distinct factor sets; index 0 is the representative (hottest) one
    /// every structure-level probe uses.
    pub patterns: Vec<IluFactors>,
    /// Right-hand sides (all of one length); index 0 goes with pattern 0.
    pub rhs: Vec<Vec<f64>>,
    /// The `(pattern, rhs)` pairs warm ops visit, in order: the workload's
    /// own stream where its ops are warm solves, `[(0, 0)]` elsewhere.
    pub stream: Vec<(u32, u32)>,
    pub gen: PatternGen,
}

pub trait Workload {
    fn facts(&self) -> Facts;
    fn lanes(&mut self) -> Vec<&mut dyn Lane>;
    /// Cumulative counters of every runtime/server this workload has used.
    fn counts(&self) -> Counts;
    /// Counter assertions over a window of `ops` attempted ops: a silently
    /// mis-shaped workload (a "cold" op that hit, a "disk" op that
    /// inspected) is a failed run, not a fast one.
    fn check_counts(&self, window: &Counts, ops: u64) -> Result<(), String>;
    fn oracle(&self) -> &Oracle;
    fn probe_input(&self) -> ProbeInput;
}

pub fn setup(name: &str, env: &Env) -> Option<Box<dyn Workload>> {
    Some(match name {
        "warm_large" => Box::new(WarmLarge::setup(env)),
        "warm_small" => Box::new(WarmSmall::setup(env)),
        "batch_mixed" => Box::new(BatchMixed::setup(env)),
        "cold_churn" => Box::new(ColdChurn::setup(env)),
        "disk_rewarm" => Box::new(DiskRewarm::setup(env)),
        "krylov_pde" => Box::new(KrylovPde::setup(env)),
        "served_small" => Box::new(ServedSmall::setup(env)),
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------

const ZIPF_EXPONENT: f64 = 1.1;
/// The seed of every generated sparsity *structure*. Op cost depends on
/// structure (nonzeros, wavefronts, which pattern is hottest), so runs on
/// different `--seed`s would not time the same work if structures moved
/// with the seed; they are pinned, and `--seed` drives every numeric value
/// and every request order instead.
const STRUCTURE_SEED: u64 = 1989;
/// Length of the precomputed Zipf streams the lanes cycle through.
const STREAM_LEN: usize = 1 << 14;

fn synthetic(mesh: usize) -> SyntheticSpec {
    // The spec `pattern_set` draws from.
    SyntheticSpec {
        mesh,
        mean_degree: 3.0,
        mean_distance: 2.0,
    }
}

/// Factors whose sweeps are a synthetic unit-lower dependency pattern.
fn factors_from_lower(m: &Csr) -> IluFactors {
    IluFactors {
        l: m.strict_lower(),
        u: m.transpose().upper(),
    }
}

fn random_rhs(rng: &mut SmallRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range_f64(0.5, 1.5)).collect()
}

/// The product `(I + L)·U`: a matrix the factors factor exactly.
fn lu_product(f: &IluFactors) -> Csr {
    let n = f.n();
    let mut b = CooBuilder::with_capacity(n, n, 4 * f.nnz());
    for i in 0..n {
        for (j, v) in f.u.row(i) {
            b.push(i, j, v);
        }
        for (k, lik) in f.l.row(i) {
            for (j, v) in f.u.row(k) {
                b.push(i, j, lik * v);
            }
        }
    }
    b.build()
}

/// Makes a stale answer visible: a solve that silently wrote nothing would
/// otherwise leave the previous (correct) reply in the buffer.
fn poison(x: &mut [f64]) {
    if let Some(first) = x.first_mut() {
        *first = f64::NAN;
    }
    if let Some(last) = x.last_mut() {
        *last = f64::NAN;
    }
}

fn solve_verdict<T, E>(r: &Result<T, E>, oracle: &Oracle, key: usize, x: &[f64]) -> Verdict {
    match r {
        Err(_) => Verdict::Failed,
        Ok(_) if oracle.check(key, x) => Verdict::Ok,
        Ok(_) => Verdict::Wrong,
    }
}

/// Solves every (pattern, rhs) once through `rt` — the first touch that
/// builds the plan — and admits the replies to a fresh oracle, key = index.
fn prewarm<'a>(
    rt: &Runtime,
    pairs: impl IntoIterator<Item = (&'a IluFactors, &'a Vec<f64>)>,
) -> Oracle {
    let mut oracle = Oracle::default();
    for (f, b) in pairs {
        let mut x = vec![0.0; f.n()];
        rt.submit(Job::<NoBody>::solve(f, b, &mut x))
            .expect("set-up solve failed");
        oracle.admit(&x, &oracle::reference_solve(f, b));
    }
    oracle
}

fn runtime_counts(rt: &Runtime) -> Counts {
    let mut c = Counts::default();
    c.add_runtime(&rt.stats());
    c
}

// ---------------------------------------------------------------------
// 1. warm_large
// ---------------------------------------------------------------------

const LARGE_RHS: usize = 4;

struct WarmLarge {
    rt: Runtime,
    a: Csr,
    f: IluFactors,
    rhs: Vec<Vec<f64>>,
    x: Vec<f64>,
    oracle: Oracle,
}

impl WarmLarge {
    fn setup(env: &Env) -> WarmLarge {
        let a = TestProblem::build(ProblemId::L5Pt).matrix;
        let f = ilu0(&a).expect("ilu0 of L5-PT");
        let mut rng = SmallRng::seed_from_u64(env.seed);
        let rhs: Vec<Vec<f64>> = (0..LARGE_RHS)
            .map(|_| random_rhs(&mut rng, f.n()))
            .collect();
        let rt = Runtime::new(RuntimeConfig::default());
        let oracle = prewarm(&rt, rhs.iter().map(|b| (&f, b)));
        WarmLarge {
            x: vec![0.0; f.n()],
            rt,
            a,
            f,
            rhs,
            oracle,
        }
    }
}

impl Lane for WarmLarge {
    fn op(&mut self, ctx: &mut OpCtx<'_>) -> Verdict {
        let k = ctx.op() as usize % LARGE_RHS;
        poison(&mut self.x);
        let (rt, f, b, x) = (&self.rt, &self.f, &self.rhs[k], &mut self.x);
        let r = ctx.timed("runtime.submit", || {
            rt.submit(Job::<NoBody>::solve(f, b, x))
        });
        solve_verdict(&r, &self.oracle, k, &self.x)
    }
}

impl Workload for WarmLarge {
    fn facts(&self) -> Facts {
        Facts {
            n: self.f.n(),
            nnz: self.f.nnz(),
            patterns: 1,
            clients: 1,
        }
    }
    fn lanes(&mut self) -> Vec<&mut dyn Lane> {
        vec![self]
    }
    fn counts(&self) -> Counts {
        runtime_counts(&self.rt)
    }
    fn check_counts(&self, window: &Counts, _ops: u64) -> Result<(), String> {
        expect_eq("cache builds while warm", window.get("cache.builds"), 0.0)
    }
    fn oracle(&self) -> &Oracle {
        &self.oracle
    }
    fn probe_input(&self) -> ProbeInput {
        ProbeInput {
            a: self.a.clone(),
            patterns: vec![self.f.clone()],
            rhs: self.rhs.clone(),
            stream: (0..LARGE_RHS as u32).map(|r| (0, r)).collect(),
            gen: PatternGen::Problem(ProblemId::L5Pt),
        }
    }
}

fn expect_eq(what: &str, found: f64, expected: f64) -> Result<(), String> {
    if found == expected {
        Ok(())
    } else {
        Err(format!("{what}: expected {expected}, found {found}"))
    }
}

// ---------------------------------------------------------------------
// 2. warm_small
// ---------------------------------------------------------------------

const SMALL_PATTERNS: usize = 64;
const SMALL_MESH: usize = 12;

struct WarmSmall {
    rt: Runtime,
    factors: Vec<IluFactors>,
    rhs: Vec<Vec<f64>>,
    stream: Vec<u32>,
    x: Vec<f64>,
    oracle: Oracle,
}

impl WarmSmall {
    fn setup(env: &Env) -> WarmSmall {
        let factors: Vec<IluFactors> = pattern_set(SMALL_PATTERNS, SMALL_MESH, STRUCTURE_SEED)
            .iter()
            .map(factors_from_lower)
            .collect();
        let mut rng = SmallRng::seed_from_u64(env.seed ^ 0x5a11);
        let n = factors[0].n();
        let rhs: Vec<Vec<f64>> = factors.iter().map(|_| random_rhs(&mut rng, n)).collect();
        let stream = zipf_stream(SMALL_PATTERNS, env.seed);
        let rt = Runtime::new(RuntimeConfig::default());
        let oracle = prewarm(&rt, factors.iter().zip(&rhs));
        WarmSmall {
            rt,
            factors,
            rhs,
            stream,
            x: vec![0.0; n],
            oracle,
        }
    }
}

fn zipf_stream(patterns: usize, seed: u64) -> Vec<u32> {
    ZipfMix::new(patterns, ZIPF_EXPONENT)
        .stream(STREAM_LEN, seed)
        .into_iter()
        .map(|r| r as u32)
        .collect()
}

impl Lane for WarmSmall {
    fn op(&mut self, ctx: &mut OpCtx<'_>) -> Verdict {
        let k = self.stream[ctx.op() as usize % self.stream.len()] as usize;
        poison(&mut self.x);
        let (rt, f, b, x) = (&self.rt, &self.factors[k], &self.rhs[k], &mut self.x);
        let r = ctx.timed("runtime.submit", || {
            rt.submit(Job::<NoBody>::solve(f, b, x))
        });
        solve_verdict(&r, &self.oracle, k, &self.x)
    }
}

impl Workload for WarmSmall {
    fn facts(&self) -> Facts {
        Facts {
            n: self.factors[0].n(),
            nnz: self.factors[0].nnz(),
            patterns: self.factors.len(),
            clients: 1,
        }
    }
    fn lanes(&mut self) -> Vec<&mut dyn Lane> {
        vec![self]
    }
    fn counts(&self) -> Counts {
        runtime_counts(&self.rt)
    }
    fn check_counts(&self, window: &Counts, _ops: u64) -> Result<(), String> {
        expect_eq("cache builds while warm", window.get("cache.builds"), 0.0)
    }
    fn oracle(&self) -> &Oracle {
        &self.oracle
    }
    fn probe_input(&self) -> ProbeInput {
        ProbeInput {
            a: lu_product(&self.factors[0]),
            patterns: self.factors.clone(),
            rhs: self.rhs.clone(),
            stream: self.stream.iter().map(|&k| (k, k)).collect(),
            gen: PatternGen::Synthetic { mesh: SMALL_MESH },
        }
    }
}

// ---------------------------------------------------------------------
// 3. batch_mixed
// ---------------------------------------------------------------------

const BATCH_PATTERNS: usize = 16;
const BATCH_MESH: usize = 33;
const BATCH_JOBS: usize = 32;
const BATCH_LOOP_SHARE: f64 = 0.3;
/// Distinct right-hand sides per pattern; a hot group of ~10 same-pattern
/// jobs therefore carries repeated and distinct rhs alike.
const BATCH_RHS: usize = 4;
/// Distinct batches cut from the mixed stream, cycled.
const BATCH_COUNT: usize = 64;

#[derive(Clone, Copy)]
struct BatchJob {
    kind: RequestKind,
    pattern: usize,
    rhs: usize,
}

struct BatchMixed {
    rt: Runtime,
    solves: Vec<IluFactors>,
    lowers: Vec<Csr>,
    specs: Vec<LoopSpec>,
    solve_rhs: Vec<Vec<f64>>,
    loop_rhs: Vec<Vec<f64>>,
    batches: Vec<Vec<BatchJob>>,
    outs: Vec<Vec<f64>>,
    oracle: Oracle,
    groups: f64,
}

impl BatchMixed {
    fn setup(env: &Env) -> BatchMixed {
        let solves: Vec<IluFactors> = pattern_set(BATCH_PATTERNS, BATCH_MESH, STRUCTURE_SEED)
            .iter()
            .map(factors_from_lower)
            .collect();
        // A different generator seed, so no loop pattern repeats a solve's.
        let lowers: Vec<Csr> = pattern_set(BATCH_PATTERNS, BATCH_MESH, STRUCTURE_SEED ^ 0x100b)
            .iter()
            .map(Csr::strict_lower)
            .collect();
        let specs: Vec<LoopSpec> = lowers
            .iter()
            .map(|l| LoopSpec::new(DepGraph::from_lower_triangular(l).expect("loop pattern")))
            .collect();
        let n = solves[0].n();
        let mut rng = SmallRng::seed_from_u64(env.seed ^ 0xba7c);
        let mut rhs_pool = || -> Vec<Vec<f64>> {
            (0..BATCH_PATTERNS * BATCH_RHS)
                .map(|_| random_rhs(&mut rng, n))
                .collect()
        };
        let solve_rhs = rhs_pool();
        let loop_rhs = rhs_pool();
        let stream = ZipfMix::new(BATCH_PATTERNS, ZIPF_EXPONENT).mixed_stream(
            BATCH_COUNT * BATCH_JOBS,
            BATCH_LOOP_SHARE,
            env.seed,
        );
        let batches: Vec<Vec<BatchJob>> = stream
            .chunks(BATCH_JOBS)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(j, r)| BatchJob {
                        kind: r.kind,
                        pattern: r.rank,
                        rhs: j % BATCH_RHS,
                    })
                    .collect()
            })
            .collect();

        let rt = Runtime::new(RuntimeConfig::default());
        // Oracle keys: solves first (pattern-major), then loops.
        let mut oracle = Oracle::default();
        for (p, f) in solves.iter().enumerate() {
            for b in &solve_rhs[p * BATCH_RHS..(p + 1) * BATCH_RHS] {
                let mut x = vec![0.0; n];
                rt.submit(Job::<NoBody>::solve(f, b, &mut x))
                    .expect("set-up solve failed");
                oracle.admit(&x, &oracle::reference_solve(f, b));
            }
        }
        for (p, (spec, l)) in specs.iter().zip(&lowers).enumerate() {
            for b in &loop_rhs[p * BATCH_RHS..(p + 1) * BATCH_RHS] {
                let mut x = vec![0.0; n];
                rt.submit(Job::<NoBody>::linear(spec, l.data(), b, &mut x))
                    .expect("set-up linear loop failed");
                oracle.admit(&x, &oracle::reference_linear(l, b));
            }
        }
        BatchMixed {
            rt,
            solves,
            lowers,
            specs,
            solve_rhs,
            loop_rhs,
            batches,
            outs: vec![vec![0.0; n]; BATCH_JOBS],
            oracle,
            groups: 0.0,
        }
    }

    fn key(job: BatchJob) -> usize {
        let base = match job.kind {
            RequestKind::Solve => 0,
            RequestKind::Loop => BATCH_PATTERNS * BATCH_RHS,
        };
        base + job.pattern * BATCH_RHS + job.rhs
    }
}

impl Lane for BatchMixed {
    fn op(&mut self, ctx: &mut OpCtx<'_>) -> Verdict {
        let batch = &self.batches[ctx.op() as usize % self.batches.len()];
        let jobs: Vec<Job> = batch
            .iter()
            .zip(self.outs.iter_mut())
            .map(|(job, out)| {
                poison(out);
                let r = job.pattern * BATCH_RHS + job.rhs;
                match job.kind {
                    RequestKind::Solve => {
                        Job::solve(&self.solves[job.pattern], &self.solve_rhs[r], out)
                    }
                    RequestKind::Loop => Job::linear(
                        &self.specs[job.pattern],
                        self.lowers[job.pattern].data(),
                        &self.loop_rhs[r],
                        out,
                    ),
                }
            })
            .collect();
        let rt = &self.rt;
        let outcome = ctx.timed("runtime.submit_batch", || rt.submit_batch(jobs));
        self.groups += outcome.groups as f64;
        if outcome.ok_count() != batch.len() {
            return Verdict::Failed;
        }
        let all_match = batch
            .iter()
            .zip(&self.outs)
            .all(|(job, out)| self.oracle.check(Self::key(*job), out));
        if all_match {
            Verdict::Ok
        } else {
            Verdict::Wrong
        }
    }
}

impl Workload for BatchMixed {
    fn facts(&self) -> Facts {
        Facts {
            n: self.solves[0].n(),
            nnz: self.solves[0].nnz(),
            patterns: self.solves.len() + self.specs.len(),
            clients: 1,
        }
    }
    fn lanes(&mut self) -> Vec<&mut dyn Lane> {
        vec![self]
    }
    fn counts(&self) -> Counts {
        let mut c = runtime_counts(&self.rt);
        let s = self.rt.stats();
        c.add("batches", s.batches as f64);
        c.add("batch_groups", self.groups);
        c
    }
    fn check_counts(&self, window: &Counts, ops: u64) -> Result<(), String> {
        expect_eq("cache builds while warm", window.get("cache.builds"), 0.0)?;
        expect_eq("batches submitted", window.get("batches"), ops as f64)
    }
    fn oracle(&self) -> &Oracle {
        &self.oracle
    }
    fn probe_input(&self) -> ProbeInput {
        let stream = self
            .batches
            .iter()
            .flatten()
            .filter(|j| j.kind == RequestKind::Solve)
            .map(|j| (j.pattern as u32, (j.pattern * BATCH_RHS + j.rhs) as u32))
            .collect();
        ProbeInput {
            a: lu_product(&self.solves[0]),
            patterns: self.solves.clone(),
            rhs: self.solve_rhs.clone(),
            stream,
            gen: PatternGen::Synthetic { mesh: BATCH_MESH },
        }
    }
}

// ---------------------------------------------------------------------
// 4. cold_churn
// ---------------------------------------------------------------------

/// Three times the default 128-entry LRU: round-robin reuse distance is far
/// beyond what any shard retains, so every op must rebuild its plan.
const CHURN_PATTERNS: usize = 384;
const CHURN_MESH: usize = 33;

struct ColdChurn {
    rt: Runtime,
    factors: Vec<IluFactors>,
    rhs: Vec<Vec<f64>>,
    x: Vec<f64>,
    oracle: Oracle,
}

impl ColdChurn {
    fn setup(env: &Env) -> ColdChurn {
        let factors: Vec<IluFactors> = pattern_set(CHURN_PATTERNS, CHURN_MESH, STRUCTURE_SEED)
            .iter()
            .map(factors_from_lower)
            .collect();
        let n = factors[0].n();
        let mut rng = SmallRng::seed_from_u64(env.seed ^ 0xc01d);
        let rhs: Vec<Vec<f64>> = factors.iter().map(|_| random_rhs(&mut rng, n)).collect();
        let rt = Runtime::new(RuntimeConfig::default());
        let oracle = prewarm(&rt, factors.iter().zip(&rhs));
        ColdChurn {
            rt,
            factors,
            rhs,
            x: vec![0.0; n],
            oracle,
        }
    }
}

impl Lane for ColdChurn {
    fn op(&mut self, ctx: &mut OpCtx<'_>) -> Verdict {
        let k = ctx.op() as usize % CHURN_PATTERNS;
        poison(&mut self.x);
        let (rt, f, b, x) = (&self.rt, &self.factors[k], &self.rhs[k], &mut self.x);
        let r = ctx.timed("runtime.submit", || {
            rt.submit(Job::<NoBody>::solve(f, b, x))
        });
        solve_verdict(&r, &self.oracle, k, &self.x)
    }
}

impl Workload for ColdChurn {
    fn facts(&self) -> Facts {
        Facts {
            n: self.factors[0].n(),
            nnz: self.factors[0].nnz(),
            patterns: self.factors.len(),
            clients: 1,
        }
    }
    fn lanes(&mut self) -> Vec<&mut dyn Lane> {
        vec![self]
    }
    fn counts(&self) -> Counts {
        runtime_counts(&self.rt)
    }
    fn check_counts(&self, window: &Counts, ops: u64) -> Result<(), String> {
        expect_eq(
            "plan builds (every op cold)",
            window.get("cache.builds"),
            ops as f64,
        )
    }
    fn oracle(&self) -> &Oracle {
        &self.oracle
    }
    fn probe_input(&self) -> ProbeInput {
        ProbeInput {
            a: lu_product(&self.factors[0]),
            patterns: vec![self.factors[0].clone()],
            rhs: vec![self.rhs[0].clone()],
            stream: vec![(0, 0)],
            gen: PatternGen::Synthetic { mesh: CHURN_MESH },
        }
    }
}

// ---------------------------------------------------------------------
// 5. disk_rewarm
// ---------------------------------------------------------------------

const DISK_PATTERNS: usize = 64;
const DISK_MESH: usize = 33;

struct DiskRewarm {
    cfg: RuntimeConfig,
    seed_store: PathBuf,
    work_store: PathBuf,
    factors: Vec<IluFactors>,
    rhs: Vec<Vec<f64>>,
    x: Vec<f64>,
    oracle: Oracle,
    /// The runtime of the current cycle and how many patterns it served.
    live: Option<(Runtime, usize)>,
    retired: Counts,
}

impl DiskRewarm {
    fn setup(env: &Env) -> DiskRewarm {
        let factors: Vec<IluFactors> = pattern_set(DISK_PATTERNS, DISK_MESH, STRUCTURE_SEED)
            .iter()
            .map(factors_from_lower)
            .collect();
        let n = factors[0].n();
        let mut rng = SmallRng::seed_from_u64(env.seed ^ 0xd15c);
        let rhs: Vec<Vec<f64>> = factors.iter().map(|_| random_rhs(&mut rng, n)).collect();
        let seed_store = env.tmp.join("disk_rewarm-seed.rtpl");
        let work_store = env.tmp.join("disk_rewarm-work.rtpl");
        let _ = std::fs::remove_file(&seed_store);

        // The pristine seed store: cold solves spill their artifacts
        // write-behind, then `persist_learned` re-spills every resident
        // plan and blocks until the store has flushed. An artifact that
        // did not make it fails its op (no store hit), so the run.
        let seeding = RuntimeConfig {
            store_path: Some(seed_store.clone()),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::new(seeding);
        let oracle = prewarm(&rt, factors.iter().zip(&rhs));
        rt.persist_learned();
        drop(rt);

        DiskRewarm {
            cfg: RuntimeConfig {
                store_path: Some(work_store.clone()),
                ..RuntimeConfig::default()
            },
            seed_store,
            work_store,
            factors,
            rhs,
            x: vec![0.0; n],
            oracle,
            live: None,
            retired: Counts::default(),
        }
    }
}

impl Lane for DiskRewarm {
    fn op(&mut self, ctx: &mut OpCtx<'_>) -> Verdict {
        if self.live.is_none() {
            let (from, to) = (&self.seed_store, &self.work_store);
            ctx.untimed("store.copy_seed", || {
                std::fs::copy(from, to).expect("copy the seed store")
            });
            let cfg = self.cfg.clone();
            let rt = ctx.untimed("runtime.new", || Runtime::new(cfg));
            self.live = Some((rt, 0));
        }
        let (rt, served) = self.live.as_mut().expect("a live runtime");
        let k = *served;
        poison(&mut self.x);
        let (f, b, x) = (&self.factors[k], &self.rhs[k], &mut self.x);
        let r = ctx.timed("runtime.submit", || {
            rt.submit(Job::<NoBody>::solve(f, b, x))
        });
        *served += 1;
        // Each op must have been served by the disk rung, not re-inspected.
        let from_disk = rt.stats().store_hits == *served as u64;
        if *served == DISK_PATTERNS {
            let (rt, _) = self.live.take().expect("a live runtime");
            self.retired.add_runtime(&rt.stats());
            ctx.untimed("runtime.drop", || drop(rt));
        }
        match solve_verdict(&r, &self.oracle, k, &self.x) {
            Verdict::Ok if !from_disk => Verdict::Failed,
            v => v,
        }
    }
}

impl Workload for DiskRewarm {
    fn facts(&self) -> Facts {
        Facts {
            n: self.factors[0].n(),
            nnz: self.factors[0].nnz(),
            patterns: self.factors.len(),
            clients: 1,
        }
    }
    fn lanes(&mut self) -> Vec<&mut dyn Lane> {
        vec![self]
    }
    fn counts(&self) -> Counts {
        let mut c = self.retired.clone();
        if let Some((rt, _)) = &self.live {
            c.add_runtime(&rt.stats());
        }
        c
    }
    fn check_counts(&self, window: &Counts, ops: u64) -> Result<(), String> {
        expect_eq(
            "store hits (every op from disk)",
            window.get("store_hits"),
            ops as f64,
        )?;
        expect_eq("store load errors", window.get("store_load_errors"), 0.0)
    }
    fn oracle(&self) -> &Oracle {
        &self.oracle
    }
    fn probe_input(&self) -> ProbeInput {
        ProbeInput {
            a: lu_product(&self.factors[0]),
            patterns: vec![self.factors[0].clone()],
            rhs: vec![self.rhs[0].clone()],
            stream: vec![(0, 0)],
            gen: PatternGen::Synthetic { mesh: DISK_MESH },
        }
    }
}

impl Drop for DiskRewarm {
    fn drop(&mut self) {
        // The runtime's flusher must stop before its file goes away.
        self.live = None;
        let _ = std::fs::remove_file(&self.seed_store);
        let _ = std::fs::remove_file(&self.work_store);
    }
}

// ---------------------------------------------------------------------
// 6. krylov_pde
// ---------------------------------------------------------------------

/// The solver settings of this workload: restart 30, tol 1e-8.
pub const KRYLOV: KrylovConfig = KrylovConfig {
    tol: 1e-8,
    max_iter: 500,
    restart: 30,
};
/// Relative error bound against the manufactured solution.
pub const KRYLOV_ERR: f64 = 1e-6;

/// A `Precondition` owned by the harness that times every application of
/// the one it wraps (start, end), so the preconditioner's share of a
/// Krylov solve is measured from outside.
pub struct TimingPrecond<'a, M: Precondition> {
    pub inner: &'a M,
    pub applies: Mutex<Vec<(u64, u64)>>,
}

impl<'a, M: Precondition> TimingPrecond<'a, M> {
    pub fn new(inner: &'a M) -> Self {
        TimingPrecond {
            inner,
            applies: Mutex::new(Vec::with_capacity(KRYLOV.max_iter + KRYLOV.restart)),
        }
    }

    pub fn take(self) -> Vec<(u64, u64)> {
        self.applies.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<M: Precondition> Precondition for TimingPrecond<'_, M> {
    fn apply(&self, pool: &WorkerPool, r: &[f64], z: &mut [f64], work: &mut [f64]) {
        let t0 = now_ns();
        self.inner.apply(pool, r, z, work);
        let t1 = now_ns();
        self.applies
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((t0, t1));
    }
}

struct KrylovPde {
    a: Csr,
    f: IluFactors,
    b: Vec<f64>,
    x: Vec<f64>,
    pool: WorkerPool,
    oracle: Oracle,
    iterations: usize,
    retired: Counts,
}

impl KrylovPde {
    fn setup(env: &Env) -> KrylovPde {
        let a = TestProblem::build(ProblemId::FivePt).matrix;
        let f = ilu0(&a).expect("ilu0 of 5-PT");
        let n = a.nrows();
        let mut rng = SmallRng::seed_from_u64(env.seed);
        // The manufactured solution of the repo's own `krylov_pde` example,
        // scaled by a seeded factor: every input value depends on the seed,
        // the iteration count (invariant under scaling) does not, so runs
        // on different seeds time the same amount of work.
        let scale = rng.gen_range_f64(0.5, 1.5);
        let x_true: Vec<f64> = (0..n)
            .map(|i| scale * ((i % 17) as f64 - 8.0) * 0.1)
            .collect();
        let mut b = vec![0.0; n];
        a.matvec(&x_true, &mut b)
            .expect("manufactured right-hand side");
        let pool = WorkerPool::new(env.nproc);

        // The first solve fixes the expected iteration count and reply.
        let rt = Runtime::new(RuntimeConfig::default());
        let mut x = vec![0.0; n];
        let stats = gmres(&pool, &a, &b, &mut x, &rt.preconditioner(&f), &KRYLOV)
            .expect("set-up gmres failed");
        assert!(stats.converged, "set-up gmres did not converge: {stats:?}");
        let mut oracle = Oracle::default();
        oracle.admit_with_tol(&x, &x_true, KRYLOV_ERR);
        KrylovPde {
            a,
            f,
            b,
            x,
            pool,
            oracle,
            iterations: stats.iterations,
            retired: Counts::default(),
        }
    }
}

impl Lane for KrylovPde {
    fn op(&mut self, ctx: &mut OpCtx<'_>) -> Verdict {
        // A fresh runtime per op, built outside the timed region: the op
        // pays exactly one cold inspection and then only warm sweeps.
        let rt = ctx.untimed("runtime.new", || Runtime::new(RuntimeConfig::default()));
        self.x.fill(0.0);
        let inner = rt.preconditioner(&self.f);
        let m = TimingPrecond::new(&inner);
        let (pool, a, b, x) = (&self.pool, &self.a, &self.b, &mut self.x);
        let r = ctx.timed("krylov.gmres", || gmres(pool, a, b, x, &m, &KRYLOV));
        for (t0, t1) in m.take() {
            ctx.nested("precond.apply", t0, t1);
        }
        self.retired.add_runtime(&rt.stats());
        ctx.untimed("runtime.drop", || drop(rt));
        match r {
            Err(_) => Verdict::Failed,
            Ok(s) if !s.converged => Verdict::Failed,
            Ok(s) if s.iterations == self.iterations && self.oracle.check(0, &self.x) => {
                Verdict::Ok
            }
            Ok(_) => Verdict::Wrong,
        }
    }
}

impl Workload for KrylovPde {
    fn facts(&self) -> Facts {
        Facts {
            n: self.a.nrows(),
            nnz: self.a.nnz(),
            patterns: 1,
            clients: 1,
        }
    }
    fn lanes(&mut self) -> Vec<&mut dyn Lane> {
        vec![self]
    }
    fn counts(&self) -> Counts {
        self.retired.clone()
    }
    fn check_counts(&self, window: &Counts, ops: u64) -> Result<(), String> {
        expect_eq(
            "plan builds (one inspection per solve)",
            window.get("cache.builds"),
            ops as f64,
        )
    }
    fn oracle(&self) -> &Oracle {
        &self.oracle
    }
    fn probe_input(&self) -> ProbeInput {
        ProbeInput {
            a: self.a.clone(),
            patterns: vec![self.f.clone()],
            rhs: vec![self.b.clone()],
            stream: vec![(0, 0)],
            gen: PatternGen::Problem(ProblemId::FivePt),
        }
    }
}

// ---------------------------------------------------------------------
// 7. served_small
// ---------------------------------------------------------------------

const SERVED_PATTERNS: usize = 8;
const SERVED_MESH: usize = 12;

struct ServedClient {
    client: Client,
    stream: Vec<u32>,
    retries: u64,
    shared: std::sync::Arc<ServedShared>,
}

struct ServedShared {
    keys: Vec<PatternFingerprint>,
    rhs: Vec<Vec<f64>>,
    oracle: Oracle,
}

struct ServedSmall {
    server: Server,
    clients: Vec<ServedClient>,
    factors: Vec<IluFactors>,
    shared: std::sync::Arc<ServedShared>,
}

fn solved(resp: Response) -> Option<Vec<f64>> {
    match resp {
        Response::Solved { x, .. } => Some(x),
        _ => None,
    }
}

impl ServedSmall {
    fn setup(env: &Env) -> ServedSmall {
        let factors: Vec<IluFactors> = pattern_set(SERVED_PATTERNS, SERVED_MESH, STRUCTURE_SEED)
            .iter()
            .map(factors_from_lower)
            .collect();
        let n = factors[0].n();
        let mut rng = SmallRng::seed_from_u64(env.seed ^ 0x5e4f);
        let rhs: Vec<Vec<f64>> = factors.iter().map(|_| random_rhs(&mut rng, n)).collect();
        let keys: Vec<PatternFingerprint> = factors.iter().map(Runtime::solve_key).collect();

        let server = Server::spawn(ServerConfig::default()).expect("spawn the server");
        // Registration: ship every pattern's factors once.
        let mut oracle = Oracle::default();
        let mut registrar = Client::connect(server.addr()).expect("connect");
        for (f, b) in factors.iter().zip(&rhs) {
            let x = registrar
                .solve(&f.l, &f.u, b)
                .ok()
                .and_then(solved)
                .expect("registration solve failed");
            oracle.admit(&x, &oracle::reference_solve(f, b));
        }
        drop(registrar);

        let shared = std::sync::Arc::new(ServedShared { keys, rhs, oracle });
        let streams = ZipfMix::new(SERVED_PATTERNS, ZIPF_EXPONENT)
            .client_streams(env.nproc, STREAM_LEN, env.seed);
        let clients = streams
            .into_iter()
            .map(|s| ServedClient {
                client: Client::connect(server.addr()).expect("connect"),
                stream: s.into_iter().map(|r| r as u32).collect(),
                retries: 0,
                shared: shared.clone(),
            })
            .collect();
        ServedSmall {
            server,
            clients,
            factors,
            shared,
        }
    }
}

impl Lane for ServedClient {
    fn op(&mut self, ctx: &mut OpCtx<'_>) -> Verdict {
        let k = self.stream[ctx.op() as usize % self.stream.len()] as usize;
        let (client, key, b) = (&mut self.client, self.shared.keys[k], &self.shared.rhs[k]);
        let resp = ctx.timed("client.solve_by_fingerprint", || {
            client.solve_by_fingerprint(key, b)
        });
        match resp {
            Ok(Response::Solved { x, .. }) if self.shared.oracle.check(k, &x) => Verdict::Ok,
            Ok(Response::Solved { .. }) => Verdict::Wrong,
            Ok(Response::RetryAfter { .. }) => {
                self.retries += 1;
                Verdict::Failed
            }
            _ => Verdict::Failed,
        }
    }
}

impl Workload for ServedSmall {
    fn facts(&self) -> Facts {
        Facts {
            n: self.factors[0].n(),
            nnz: self.factors[0].nnz(),
            patterns: self.factors.len(),
            clients: self.clients.len(),
        }
    }
    fn lanes(&mut self) -> Vec<&mut dyn Lane> {
        self.clients
            .iter_mut()
            .map(|c| c as &mut dyn Lane)
            .collect()
    }
    fn counts(&self) -> Counts {
        let mut c = runtime_counts(self.server.runtime());
        let s = self.server.stats();
        c.add("server.accepted_jobs", s.accepted_jobs as f64);
        c.add("server.answered_jobs", s.answered_jobs as f64);
        c.add(
            "server.rejected",
            (s.rejected_queue + s.rejected_quota + s.rejected_draining) as f64,
        );
        c.add(
            "server.retries",
            self.clients.iter().map(|c| c.retries).sum::<u64>() as f64,
        );
        c
    }
    fn check_counts(&self, window: &Counts, ops: u64) -> Result<(), String> {
        expect_eq(
            "server answered == accepted",
            window.get("server.answered_jobs"),
            window.get("server.accepted_jobs"),
        )?;
        expect_eq(
            "server accepted every op",
            window.get("server.accepted_jobs"),
            ops as f64,
        )
    }
    fn oracle(&self) -> &Oracle {
        &self.shared.oracle
    }
    fn probe_input(&self) -> ProbeInput {
        ProbeInput {
            a: lu_product(&self.factors[0]),
            patterns: self.factors.clone(),
            rhs: self.shared.rhs.clone(),
            stream: self.clients[0].stream.iter().map(|&k| (k, k)).collect(),
            gen: PatternGen::Synthetic { mesh: SERVED_MESH },
        }
    }
}

impl Drop for ServedSmall {
    fn drop(&mut self) {
        // Close the connections first so the drain has nothing to wait on.
        self.clients.clear();
        let _ = self.server.shutdown();
    }
}
