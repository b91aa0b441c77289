//! Standalone per-layer probes.
//!
//! After a workload's traced slice, its own inputs ([`ProbeInput`]) are
//! pushed through each layer's public functions one layer at a time, each
//! timing the median of repeated calls. That turns the staircase between
//! "the kernel sweep" and "the same solve over TCP" into self-times:
//! `runtime.overhead_ns`, `runtime.cold_self_ns`, `server.unattributed_ns`
//! and friends are the parts of an enclosing call that no inner probe
//! explains.
//!
//! This is the only module that reaches below the surface ROADMAP item 2
//! keeps. A probe whose layer refuses the input reports its metrics as
//! **absent** (with the reason); it never fails the run. That holds at run
//! time only: every probe is compiled against the function it calls, so a
//! change that removes one (`solve_loaded`, `new_with_grain`, `proto::*`,
//! `PlanStore`, ...) stops this package building and has to come after a
//! change to this directory that drops the probe. Being a package of its
//! own, the benchmark never breaks the workspace build.

use crate::sampler::{median, median_ns, median_ns_with, Reps};
use crate::trace::now_ns;
use crate::workloads::{ProbeInput, TimingPrecond, KRYLOV};
use rtpl::executor::{SpinBarrier, WorkerPool};
use rtpl::inspector::{DepGraph, Schedule, Wavefronts};
use rtpl::krylov::{gmres, CompiledTriSolve, ExecutorKind, Sorting, TriangularSolvePlan};
use rtpl::runtime::{Job, NoBody, Runtime, RuntimeConfig};
use rtpl::server::proto::{self, Request, Response};
use rtpl::server::{Client, Server, ServerConfig};
use rtpl::sim::{self, calibrate};
use rtpl::sparse::ilu::IluFactors;
use rtpl::sparse::ilu0;
use rtpl::sparse::triangular::{solve_lower, solve_upper, Diag};
use rtpl::store::PlanStore;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Duration;

/// Jobs in the batch probe (the batch size `batch_mixed` submits).
const BATCH_JOBS: usize = 32;

/// One probe result: the value and how many timings its median rests on
/// (0 for counts and derived numbers).
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    pub value: f64,
    pub reps: usize,
}

#[derive(Debug, Default)]
pub struct Probes {
    pub values: BTreeMap<&'static str, Measured>,
    /// Metrics a probe could not produce, with the reason.
    pub absent: Vec<(&'static str, String)>,
}

impl Probes {
    fn timed(&mut self, name: &'static str, (value, reps): (f64, usize)) -> f64 {
        self.values.insert(name, Measured { value, reps });
        value
    }

    fn derived(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, Measured { value, reps: 0 });
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(f64::NAN, |m| m.value)
    }

    /// Runs one probe group; on refusal every metric of the group that was
    /// not produced is listed as absent.
    fn group(&mut self, names: &[&'static str], f: impl FnOnce(&mut Probes) -> Result<(), String>) {
        if let Err(why) = f(self) {
            for name in names {
                if !self.values.contains_key(name) {
                    self.absent.push((name, why.clone()));
                }
            }
        }
    }
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Everything the probes share: the representative factors, one calibrated
/// runtime (its cost model and grain are what cold builds use), and the
/// compiled plan of the representative pattern.
struct Ctx<'a> {
    input: &'a ProbeInput,
    f: &'a IluFactors,
    b: &'a [f64],
    reps: Reps,
    /// Load-generating threads.
    nproc: usize,
    /// Processors per plan, as `RuntimeConfig::default()` ships.
    nprocs: usize,
    rt: Runtime,
    tmp: &'a Path,
}

pub fn run(input: &ProbeInput, nproc: usize, tmp: &Path, reps: Reps) -> Probes {
    let mut p = Probes::default();
    let new_ns = median_ns(reps, || Runtime::new(RuntimeConfig::default()));
    p.timed("runtime.new_ns", new_ns);
    let ctx = Ctx {
        input,
        f: &input.patterns[0],
        b: &input.rhs[0],
        reps,
        nproc,
        nprocs: RuntimeConfig::default().nprocs,
        rt: Runtime::new(RuntimeConfig::default()),
        tmp,
    };
    bench_probes(&ctx, &mut p);
    sparse_probes(&ctx, &mut p);
    p.group(
        &[
            "inspector.depgraph_ns",
            "inspector.wavefront_ns",
            "inspector.schedule_ns",
            "inspector.coalesce_ns",
            "inspector.phases_before",
            "inspector.phases_after",
        ],
        |p| inspector_probes(&ctx, p),
    );
    let mut compiled = None;
    p.group(
        &[
            "krylov.plan_ns",
            "krylov.compile_ns",
            "krylov.gather_ns",
            "krylov.sweep_ns",
            "krylov.fused_ns",
            "krylov.sweep_ns_per_nnz",
            "krylov.sweep_bytes_computed",
            "krylov.sweep_gbps_computed",
            "krylov.ref_over_sweep",
            "krylov.policy_sweep_ns.SelfExecuting",
            "krylov.policy_sweep_ns.PreScheduled",
            "krylov.policy_sweep_ns.PreScheduledElided",
            "krylov.policy_sweep_ns.Doacross",
            "krylov.encode_artifact_ns",
            "krylov.decode_artifact_ns",
            "krylov.artifact_bytes",
            "verify.tri_solve_ns",
            "sim.seq_residual_rel",
        ],
        |p| {
            compiled = Some(kernel_probes(&ctx, p)?);
            Ok(())
        },
    );
    p.group(
        &[
            "krylov.gmres_iterations",
            "krylov.precond_apply_ns",
            "krylov.precond_share",
            "krylov.iter_other_ns",
        ],
        |p| gmres_probes(&ctx, p),
    );
    executor_probes(&ctx, &mut p);
    sim_probes(&ctx, &mut p);
    p.group(
        &[
            "store.open_ns",
            "store.get_ns",
            "store.put_flush_ns",
            "store.file_bytes",
        ],
        |p| store_probes(&ctx, compiled.as_ref(), p),
    );
    p.group(
        &[
            "runtime.warm_ns",
            "runtime.overhead_ns",
            "runtime.cold_ns",
            "runtime.cold_self_ns",
            "runtime.disk_ns",
            "runtime.disk_self_ns",
            "runtime.amortize_k",
            "runtime.batch_ns_per_job",
            "runtime.batch_gain",
        ],
        |p| runtime_probes(&ctx, p),
    );
    p.group(
        &[
            "server.rtt_ns",
            "server.codec_ns",
            "server.frame_io_ns",
            "server.gather_window_ns",
            "server.overhead_ns",
            "server.unattributed_ns",
            "server.full_solve_rtt_ns",
        ],
        |p| server_probes(&ctx, p),
    );
    p
}

fn bench_probes(ctx: &Ctx, p: &mut Probes) {
    // One pair of clock reads, as every timed op pays.
    const PAIRS: usize = 4096;
    let pair = median_ns(ctx.reps, || {
        for _ in 0..PAIRS {
            black_box(now_ns());
            black_box(now_ns());
        }
    });
    p.timed("bench.timer_ns", (pair.0 / PAIRS as f64, pair.1));
    let gen = ctx.input.gen;
    p.timed(
        "workload.pattern_gen_ns",
        median_ns(ctx.reps, || gen.generate()),
    );
}

fn sparse_probes(ctx: &Ctx, p: &mut Probes) {
    let (f, b) = (ctx.f, ctx.b);
    p.timed(
        "sparse.fingerprint_ns",
        median_ns(ctx.reps, || Runtime::solve_key(black_box(f))),
    );
    // The paper's naive loop: the baseline every compiled sweep is held to.
    let (mut y, mut x) = (vec![0.0; f.n()], vec![0.0; f.n()]);
    p.timed(
        "sparse.ref_solve_ns",
        median_ns(ctx.reps, || {
            solve_lower(&f.l, b, Diag::Unit, &mut y).expect("reference forward substitution");
            solve_upper(&f.u, &y, Diag::Stored, &mut x).expect("reference backward substitution");
        }),
    );
    let a = &ctx.input.a;
    p.timed("sparse.ilu0_ns", median_ns(ctx.reps, || ilu0(black_box(a))));
}

fn inspector_probes(ctx: &Ctx, p: &mut Probes) -> Result<(), String> {
    let f = ctx.f;
    let graphs = || -> Result<(DepGraph, DepGraph), String> {
        Ok((
            DepGraph::from_lower_triangular(&f.l).map_err(err("depgraph L"))?,
            DepGraph::from_upper_triangular(&f.u).map_err(err("depgraph U"))?,
        ))
    };
    let (gl, gu) = graphs()?;
    p.timed("inspector.depgraph_ns", median_ns(ctx.reps, graphs));
    let waves = || (Wavefronts::compute(&gl), Wavefronts::compute(&gu));
    let (wl, wu) = waves();
    let (wl, wu) = (
        wl.map_err(err("wavefronts L"))?,
        wu.map_err(err("wavefronts U"))?,
    );
    p.timed("inspector.wavefront_ns", median_ns(ctx.reps, waves));
    let schedules = || {
        (
            Schedule::global(&wl, ctx.nprocs),
            Schedule::global(&wu, ctx.nprocs),
        )
    };
    let (sl, su) = schedules();
    let (sl, su) = (
        sl.map_err(err("schedule L"))?,
        su.map_err(err("schedule U"))?,
    );
    p.timed("inspector.schedule_ns", median_ns(ctx.reps, schedules));
    match ctx.rt.coalesce_grain() {
        Some(grain) => {
            let coalesce = || (sl.coalesce(&gl, grain), su.coalesce(&gu, grain));
            let (cl, cu) = coalesce();
            let (cl, cu) = (
                cl.map_err(err("coalesce L"))?.1,
                cu.map_err(err("coalesce U"))?.1,
            );
            p.timed("inspector.coalesce_ns", median_ns(ctx.reps, coalesce));
            p.derived(
                "inspector.phases_before",
                (cl.phases_before + cu.phases_before) as f64,
            );
            p.derived(
                "inspector.phases_after",
                (cl.phases_after + cu.phases_after) as f64,
            );
        }
        None => {
            let phases = (sl.num_phases() + su.num_phases()) as f64;
            p.derived("inspector.coalesce_ns", 0.0);
            p.derived("inspector.phases_before", phases);
            p.derived("inspector.phases_after", phases);
        }
    }
    Ok(())
}

fn build_plan(ctx: &Ctx) -> Result<TriangularSolvePlan, String> {
    TriangularSolvePlan::new_with_grain(
        ctx.f,
        ctx.nprocs,
        ExecutorKind::SelfExecuting,
        Sorting::Global,
        ctx.rt.coalesce_grain(),
    )
    .map_err(err("plan"))
}

fn kernel_probes(ctx: &Ctx, p: &mut Probes) -> Result<CompiledTriSolve, String> {
    let (f, b) = (ctx.f, ctx.b);
    let (n, nnz) = (f.n(), f.nnz());
    let compiled = build_plan(ctx)?.compile().map_err(err("compile"))?;
    p.timed("krylov.plan_ns", median_ns(ctx.reps, || build_plan(ctx)));
    p.timed(
        "krylov.compile_ns",
        median_ns_with(
            ctx.reps,
            || build_plan(ctx).expect("plan built above"),
            |plan| plan.compile(),
        ),
    );

    let mut scratch = compiled.scratch();
    let mut x = vec![0.0; n];
    p.timed(
        "krylov.gather_ns",
        median_ns(ctx.reps, || compiled.load_values(f, &mut scratch)),
    );
    compiled
        .load_values(f, &mut scratch)
        .map_err(err("gather"))?;
    let sweep = p.timed(
        "krylov.sweep_ns",
        median_ns(ctx.reps, || {
            compiled.solve_loaded(None, ExecutorKind::Sequential, b, &mut x, &mut scratch)
        }),
    );
    let reference = x.clone();
    // What a lone sequential `submit` actually runs: gather fused into the
    // sweep, one pass over the factor values.
    p.timed(
        "krylov.fused_ns",
        median_ns(ctx.reps, || {
            compiled.solve_fused_sequential(f, b, &mut x, &mut scratch)
        }),
    );
    if !crate::oracle::same_bits(&x, &reference) {
        return Err("fused sweep deviates from the split sweep".into());
    }
    // Bytes computed from array sizes (values + indices per nonzero, three
    // vectors per row) — cache misses not counted, hence "computed".
    let bytes = (12 * nnz + 24 * n) as f64;
    p.derived("krylov.sweep_ns_per_nnz", sweep / nnz as f64);
    p.derived("krylov.sweep_bytes_computed", bytes);
    p.derived("krylov.sweep_gbps_computed", bytes / sweep);
    p.derived(
        "krylov.ref_over_sweep",
        p.get("sparse.ref_solve_ns") / sweep,
    );

    // The parallel disciplines on a pool of the plan's processor count
    // (never above the host's, so no number here is time-slicing).
    let pool = WorkerPool::new(ctx.nprocs);
    for (name, kind) in [
        (
            "krylov.policy_sweep_ns.SelfExecuting",
            ExecutorKind::SelfExecuting,
        ),
        (
            "krylov.policy_sweep_ns.PreScheduled",
            ExecutorKind::PreScheduled,
        ),
        (
            "krylov.policy_sweep_ns.PreScheduledElided",
            ExecutorKind::PreScheduledElided,
        ),
        ("krylov.policy_sweep_ns.Doacross", ExecutorKind::Doacross),
    ] {
        let t = median_ns(ctx.reps, || {
            compiled.solve_loaded(Some(&pool), kind, b, &mut x, &mut scratch)
        });
        if crate::oracle::same_bits(&x, &reference) {
            p.timed(name, t);
        } else {
            p.absent
                .push((name, "answer deviates from the sequential sweep".into()));
        }
    }

    let artifact = compiled.encode_artifact();
    p.timed(
        "krylov.encode_artifact_ns",
        median_ns(ctx.reps, || compiled.encode_artifact()),
    );
    p.timed(
        "krylov.decode_artifact_ns",
        median_ns(ctx.reps, || CompiledTriSolve::decode_artifact(&artifact)),
    );
    p.derived("krylov.artifact_bytes", artifact.len() as f64);
    p.timed(
        "verify.tri_solve_ns",
        median_ns(ctx.reps, || rtpl::verify::verify_tri_solve(&compiled)),
    );

    // The paper's section-5 model on trial: its sequential prediction (Tp
    // per weighted op, weight = 1 + dependences) against the measured
    // sweep.
    let cost = ctx.rt.cost_model();
    let weights =
        |g: &DepGraph| -> Vec<f64> { (0..g.n()).map(|i| 1.0 + g.deps(i).len() as f64).collect() };
    let (gl, gu) = (
        DepGraph::from_lower_triangular(&f.l).map_err(err("depgraph L"))?,
        DepGraph::from_upper_triangular(&f.u).map_err(err("depgraph U"))?,
    );
    let predicted = sim::sim_sequential(n, Some(&weights(&gl)), cost)
        + sim::sim_sequential(n, Some(&weights(&gu)), cost);
    p.derived("sim.seq_residual_rel", (predicted - sweep) / sweep);
    Ok(compiled)
}

fn gmres_probes(ctx: &Ctx, p: &mut Probes) -> Result<(), String> {
    let (a, f, b) = (&ctx.input.a, ctx.f, ctx.b);
    let pool = WorkerPool::new(ctx.nproc);
    let mut x = vec![0.0; f.n()];
    let mut iterations = Vec::new();
    let mut apply_ns = Vec::new();
    let mut shares = Vec::new();
    let mut other_ns = Vec::new();
    let mut failure = None;
    // Krylov solves are the longest probe by far: a fifth of the timings.
    let reps = Reps {
        n: ctx.reps.n.div_ceil(5),
        min: ctx.reps.min.min(3),
        ..ctx.reps
    };
    median_ns_with(
        reps,
        || Runtime::new(RuntimeConfig::default()),
        |rt| {
            x.fill(0.0);
            let inner = rt.preconditioner(f);
            let m = TimingPrecond::new(&inner);
            let t0 = now_ns();
            let r = gmres(&pool, a, b, &mut x, &m, &KRYLOV);
            let op_ns = (now_ns() - t0) as f64;
            match r {
                Ok(s) if s.converged && s.iterations > 0 => {
                    let applies: Vec<f64> = m.take().iter().map(|(s, e)| (e - s) as f64).collect();
                    let in_precond: f64 = applies.iter().sum();
                    iterations.push(s.iterations as f64);
                    apply_ns.extend(applies);
                    shares.push(in_precond / op_ns);
                    other_ns.push((op_ns - in_precond) / s.iterations as f64);
                }
                Ok(s) => failure = Some(format!("gmres did not converge: {s:?}")),
                Err(e) => failure = Some(format!("gmres: {e}")),
            }
            rt
        },
    );
    if let Some(why) = failure {
        return Err(why);
    }
    let reps = iterations.len();
    p.timed("krylov.gmres_iterations", (median(&mut iterations), reps));
    let applies = apply_ns.len();
    p.timed("krylov.precond_apply_ns", (median(&mut apply_ns), applies));
    p.timed("krylov.precond_share", (median(&mut shares), reps));
    p.timed("krylov.iter_other_ns", (median(&mut other_ns), reps));
    Ok(())
}

fn executor_probes(ctx: &Ctx, p: &mut Probes) {
    // One barrier round among `nproc` spinning threads: the measured
    // Tsynch, to hold against the model's `sim.tsynch_ns`.
    const ROUNDS: usize = 2000;
    let barrier = SpinBarrier::new(ctx.nproc);
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        for _ in 1..ctx.nproc {
            scope.spawn(|| {
                for _ in 0..ROUNDS * (ctx.reps.min + 1) {
                    barrier.wait();
                }
            });
        }
        for _ in 0..ctx.reps.min + 1 {
            let t0 = now_ns();
            for _ in 0..ROUNDS {
                barrier.wait();
            }
            samples.push((now_ns() - t0) as f64 / ROUNDS as f64);
        }
    });
    samples.remove(0);
    let n = samples.len();
    p.timed("executor.barrier_ns", (median(&mut samples), n));

    let pool = WorkerPool::new(ctx.nproc);
    p.timed(
        "executor.pool_dispatch_ns",
        median_ns(ctx.reps, || pool.run(&|_| {})),
    );
}

fn sim_probes(ctx: &Ctx, p: &mut Probes) {
    let nprocs = ctx.nprocs;
    p.timed(
        "sim.calibrate_ns",
        median_ns(ctx.reps, || {
            calibrate::calibrate_host(calibrate::default_tsynch_ns(nprocs))
        }),
    );
    let cost = ctx.rt.cost_model();
    p.derived("sim.tp_ns", cost.tp);
    p.derived("sim.tsynch_ns", cost.tsynch);
}

fn store_probes(
    ctx: &Ctx,
    compiled: Option<&CompiledTriSolve>,
    p: &mut Probes,
) -> Result<(), String> {
    let payload = compiled
        .ok_or("no compiled plan to store")?
        .encode_artifact();
    let key = Runtime::solve_key(ctx.f).as_u128();
    let single = ctx.tmp.join("probe-store-single.rtpl");
    let growing = ctx.tmp.join("probe-store-growing.rtpl");
    for path in [&single, &growing] {
        let _ = std::fs::remove_file(path);
    }
    let result = (|| {
        // A file holding exactly one record: what `open` scans, what `get`
        // reads, and the bytes one artifact costs on disk.
        {
            let store = PlanStore::open(&single).map_err(err("store open"))?;
            store.put(key, payload.clone());
            store.flush();
        }
        let bytes = std::fs::metadata(&single).map_err(err("store file"))?.len();
        p.derived("store.file_bytes", bytes as f64);
        p.timed(
            "store.open_ns",
            median_ns(ctx.reps, || PlanStore::open(&single)),
        );
        let store = PlanStore::open(&single).map_err(err("store reopen"))?;
        match store.get(key) {
            Ok(Some(read)) if read == payload => {}
            other => {
                return Err(format!(
                    "store get returned {:?}",
                    other.map(|o| o.map(|v| v.len()))
                ))
            }
        }
        p.timed("store.get_ns", median_ns(ctx.reps, || store.get(key)));
        drop(store);
        // Append + write-behind flush, on a file of its own (it grows).
        let store = PlanStore::open(&growing).map_err(err("store open"))?;
        p.timed(
            "store.put_flush_ns",
            median_ns_with(
                ctx.reps,
                || payload.clone(),
                |bytes| {
                    store.put(key, bytes);
                    store.flush();
                },
            ),
        );
        Ok(())
    })();
    for path in [&single, &growing] {
        let _ = std::fs::remove_file(path);
    }
    result
}

/// Warm ops the stream-replaying probes time at most.
const WARM_OPS: usize = 4096;

/// Median latency of `op(pattern, rhs)` over the workload's own stream,
/// cycled: up to [`WARM_OPS`] ops (scaled down with the repetition count),
/// fewer once twice the probe budget is spent. An error ends the probe.
fn replay_stream(
    ctx: &Ctx,
    mut op: impl FnMut(usize, usize) -> Result<(), String>,
) -> Result<(f64, usize), String> {
    let stream = &ctx.input.stream;
    let ops = (WARM_OPS * ctx.reps.n / 31).max(ctx.reps.min);
    let mut lat = Vec::with_capacity(ops);
    let stop_at = now_ns() + 2 * ctx.reps.budget.as_nanos() as u64;
    while lat.len() < ops && (lat.len() < ctx.reps.min || now_ns() < stop_at) {
        let (k, r) = stream[lat.len() % stream.len()];
        let t0 = now_ns();
        let outcome = op(k as usize, r as usize);
        lat.push((now_ns() - t0) as f64);
        outcome?;
    }
    let n = lat.len();
    Ok((median(&mut lat), n))
}

fn runtime_probes(ctx: &Ctx, p: &mut Probes) -> Result<(), String> {
    let input = ctx.input;
    let n = ctx.f.n();
    // The `i`-th (factors, rhs) pair of the workload's stream, cycled.
    let pair = |i: usize| {
        let (k, r) = input.stream[i % input.stream.len()];
        (&input.patterns[k as usize], &input.rhs[r as usize])
    };
    let representative = (ctx.f, &input.rhs[0]);
    let submit = |rt: &Runtime, (f, b): (&IluFactors, &Vec<f64>), x: &mut [f64]| {
        rt.submit(Job::<NoBody>::solve(f, b, x))
    };

    // Warm: the workload's own stream through a pre-warmed runtime — the
    // same thing `op_p50_us` measures on the warm workloads, so the two
    // must agree.
    let warm_rt = Runtime::new(RuntimeConfig::default());
    let mut x = vec![0.0; n];
    for f in &input.patterns {
        submit(&warm_rt, (f, &input.rhs[0]), &mut x).map_err(err("warm-up solve"))?;
    }
    let warm = replay_stream(ctx, |k, r| {
        submit(&warm_rt, (&input.patterns[k], &input.rhs[r]), &mut x)
            .map(drop)
            .map_err(err("warm solve"))
    })?;
    let warm = p.timed("runtime.warm_ns", warm);
    p.derived(
        "runtime.overhead_ns",
        warm - p.get("krylov.gather_ns") - p.get("krylov.sweep_ns"),
    );

    // Batched: 32 consecutive stream entries in one submit_batch.
    // (A hand-written timing loop: each round's jobs borrow `outs` anew.)
    let mut outs = vec![vec![0.0; n]; BATCH_JOBS];
    let mut samples = Vec::with_capacity(ctx.reps.n);
    let started = now_ns();
    for round in 0..=ctx.reps.n {
        if round > ctx.reps.min && now_ns() - started > ctx.reps.budget.as_nanos() as u64 {
            break;
        }
        let jobs: Vec<Job> = outs
            .iter_mut()
            .enumerate()
            .map(|(j, out)| {
                let (f, b) = pair(j);
                Job::solve(f, b, out)
            })
            .collect();
        let t0 = now_ns();
        let outcome = warm_rt.submit_batch(jobs);
        let dt = (now_ns() - t0) as f64;
        if outcome.ok_count() != BATCH_JOBS {
            return Err("a batch job failed".into());
        }
        // The first round is the untimed one.
        if round > 0 {
            samples.push(dt);
        }
    }
    let batch = (median(&mut samples), samples.len());
    let per_job = batch.0 / BATCH_JOBS as f64;
    p.timed("runtime.batch_ns_per_job", (per_job, batch.1));
    p.derived("runtime.batch_gain", warm / per_job);
    drop(warm_rt);

    // Cold: the first solve of the representative pattern in a fresh
    // runtime (built outside the timed region, as in `krylov_pde`).
    let mut failure = None;
    let cold = p.timed(
        "runtime.cold_ns",
        median_ns_with(
            ctx.reps,
            || Runtime::new(RuntimeConfig::default()),
            |rt| {
                if let Err(e) = submit(&rt, representative, &mut x) {
                    failure = Some(format!("cold solve: {e}"));
                }
                rt
            },
        ),
    );
    p.derived(
        "runtime.cold_self_ns",
        cold - p.get("krylov.plan_ns")
            - p.get("krylov.compile_ns")
            - p.get("krylov.gather_ns")
            - p.get("krylov.sweep_ns"),
    );
    p.derived("runtime.amortize_k", cold / warm);

    // Disk: the same first solve when the runtime's store already holds the
    // artifact, as in `disk_rewarm`.
    let seed = ctx.tmp.join("probe-rewarm-seed.rtpl");
    let work = ctx.tmp.join("probe-rewarm-work.rtpl");
    let _ = std::fs::remove_file(&seed);
    let with_store = |path: &Path| RuntimeConfig {
        store_path: Some(path.to_path_buf()),
        ..RuntimeConfig::default()
    };
    {
        let rt = Runtime::new(with_store(&seed));
        submit(&rt, representative, &mut x).map_err(err("seeding solve"))?;
        if let Some(store) = rt.store() {
            store.flush();
        }
        rt.persist_learned();
        if !rt.store_contains(Runtime::solve_key(ctx.f)) {
            failure = Some("seed store did not take the artifact".into());
        }
    }
    let disk = median_ns_with(
        ctx.reps,
        || {
            std::fs::copy(&seed, &work).expect("copy the probe seed store");
            Runtime::new(with_store(&work))
        },
        |rt| {
            let r = submit(&rt, representative, &mut x);
            if r.is_err() || rt.stats().store_hits != 1 {
                failure = Some("first solve was not served from the store".into());
            }
            rt
        },
    );
    for path in [&seed, &work] {
        let _ = std::fs::remove_file(path);
    }
    if let Some(why) = failure {
        return Err(why);
    }
    let disk = p.timed("runtime.disk_ns", disk);
    p.derived(
        "runtime.disk_self_ns",
        disk - p.get("store.get_ns")
            - p.get("krylov.decode_artifact_ns")
            - p.get("verify.tri_solve_ns")
            - p.get("krylov.gather_ns")
            - p.get("krylov.sweep_ns"),
    );
    Ok(())
}

fn server_probes(ctx: &Ctx, p: &mut Probes) -> Result<(), String> {
    let input = ctx.input;
    let (f, b) = (ctx.f, ctx.b);
    let server = Server::spawn(ServerConfig::default()).map_err(err("spawn server"))?;
    let result = (|| {
        let mut client = Client::connect(server.addr()).map_err(err("connect"))?;
        let mut keys = Vec::new();
        let mut reply = Vec::new();
        for (k, pf) in input.patterns.iter().enumerate() {
            match client.solve(&pf.l, &pf.u, b) {
                Ok(Response::Solved { x, .. }) => {
                    if k == 0 {
                        reply = x;
                    }
                }
                other => return Err(format!("registration answered {other:?}")),
            }
            keys.push(Runtime::solve_key(pf));
        }
        let mut failure = None;
        p.timed(
            "server.full_solve_rtt_ns",
            median_ns(ctx.reps, || {
                if !matches!(client.solve(&f.l, &f.u, b), Ok(Response::Solved { .. })) {
                    failure = Some("full solve was not answered".to_string());
                }
            }),
        );

        // One idle client replaying the workload's stream by fingerprint.
        let rtt = replay_stream(ctx, |k, r| {
            match client.solve_by_fingerprint(keys[k], &input.rhs[r]) {
                Ok(Response::Solved { .. }) => Ok(()),
                other => Err(format!("solve_by_fingerprint answered {other:?}")),
            }
        })?;
        if let Some(why) = failure {
            return Err(why);
        }
        let rtt = p.timed("server.rtt_ns", rtt);

        // Encode + decode of the request and of the response, in memory.
        let req = Request::SolveByFingerprint {
            key: keys[0],
            b: b.to_vec(),
        };
        let resp = Response::Solved {
            cached: true,
            policy: 0,
            x: reply,
        };
        let codec = p.timed(
            "server.codec_ns",
            median_ns(ctx.reps, || {
                let wire = proto::encode_request(1, &req);
                black_box(proto::decode_request(&wire).is_ok());
                let wire = proto::encode_response(1, &resp);
                black_box(proto::decode_response(&wire).is_ok());
            }),
        );
        let frame_io = p.timed(
            "server.frame_io_ns",
            frame_io(
                ctx.reps,
                proto::encode_request(1, &req),
                proto::encode_response(1, &resp),
            )?,
        );
        let window = ServerConfig::default().gather_window.as_nanos() as f64;
        p.derived("server.gather_window_ns", window);
        let overhead = rtt - p.get("runtime.warm_ns");
        p.derived("server.overhead_ns", overhead);
        p.derived(
            "server.unattributed_ns",
            overhead - codec - frame_io - window,
        );
        Ok(())
    })();
    let _ = server.shutdown();
    result
}

/// The loopback floor: one request-sized frame out, one response-sized
/// frame back, against a thread that does nothing but echo.
fn frame_io(reps: Reps, request: Vec<u8>, response: Vec<u8>) -> Result<(f64, usize), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err("bind"))?;
    let addr = listener.local_addr().map_err(err("local addr"))?;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> std::io::Result<()> {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut writer = stream.try_clone()?;
            let mut reader = BufReader::new(stream);
            while proto::read_frame(&mut reader)?.is_some() {
                proto::write_frame(&mut writer, &response)?;
            }
            Ok(())
        });
        let timed = (|| -> std::io::Result<(f64, usize)> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(10)))?;
            let mut writer = stream.try_clone()?;
            let mut reader = BufReader::new(stream);
            let mut failure = None;
            let t = median_ns(reps, || {
                let r = proto::write_frame(&mut writer, &request)
                    .and_then(|()| proto::read_frame(&mut reader));
                if let Err(e) = r {
                    failure = Some(e);
                }
            });
            failure.map_or(Ok(t), Err)
        })();
        // Both halves of the client stream are dropped by now, so the echo
        // thread sees end-of-stream and ends.
        let echoed = echo.join().expect("the echo thread panicked");
        timed
            .and_then(|t| echoed.map(|()| t))
            .map_err(err("frame echo"))
    })
}
