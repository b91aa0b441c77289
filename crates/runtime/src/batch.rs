//! The request pipeline: one [`Job`] front door for solves and
//! `DoConsider`-derived loops, with cross-request scheduling.
//!
//! A long-running solver service rarely receives one request at a time —
//! clients arrive with *batches* of (factors, rhs) pairs and index-array
//! loops. Submitting each one alone pays the full per-request toll every
//! time: a structural fingerprint hash, a cache lookup, a pool lease, a
//! selector decision, and a value gather. A batch knows more: requests
//! sharing a sparsity structure can share almost all of that.
//! [`Runtime::submit_batch`] exploits it —
//!
//! * jobs are **grouped by [`PatternFingerprint`]** (memoized per factor
//!   object, so the hash itself is paid once per distinct input, not per
//!   request);
//! * each group leases **one** worker pool and **one** run scratch, makes
//!   **one** adaptive-selector decision, and folds **one** averaged
//!   observation back — instead of once per request;
//! * consecutive jobs of a group that share a factor (or coefficient)
//!   object skip the per-request value gather — the schedule-order layout
//!   is already loaded;
//! * **cold groups run first**: on a multi-core host with several batch
//!   workers, the expensive inspections of never-seen patterns pipeline
//!   concurrently with warm executions of cached ones.
//!
//! Each fingerprint group is executed by one of three per-class group
//! runners, and a lone [`Runtime::submit`] is the same runner on a group
//! of one — there is no second, single-job execution path. Inside a
//! runner every job is one executor call under the group's
//! [`ExecutorKind`], `Sequential` included.
//!
//! A [`Job`] is one of three requests, each keyed into its own build-once
//! cache:
//!
//! * [`JobKind::Solve`] — `L U x = b` for [`IluFactors`];
//! * [`JobKind::Loop`] — a generic [`LoopBody`] over a cacheable [`LoopSpec`]
//!   (the analysis product `rtpl::DoConsider::into_spec` emits; a loop
//!   compiled by `rtpl::transform` is such a body);
//! * [`JobKind::LinearLoop`] — the body-free linear recurrence
//!   `x(i) = rhs(i) − Σ a_k·x(dep_k)`, compiled to a schedule-order
//!   [`CompiledPlan`] layout with per-call coefficient gathers.
//!
//! [`CompiledPlan`]: rtpl_executor::compiled::CompiledPlan

use crate::cache::PlanCache;
use crate::service::{Entry, Runtime};
use crate::Result;
use rtpl_executor::{CancelToken, ExecReport, ExecutorKind, LoopBody, ValueSource, WorkerPool};
use rtpl_inspector::DepGraph;
use rtpl_sparse::ilu::IluFactors;
use rtpl_sparse::PatternFingerprint;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Below this much [`Job::sized_work`] a warm batch runs on the
/// submitting thread alone. Starting and joining a helper thread takes
/// 20–25 µs on a 2-vCPU KVM guest; a warm sweep runs at ~3.7 ns per
/// entry, so a helper taking over half of 16 Ki entries (~30 µs of
/// sweeping) about pays for itself.
const HELPER_MIN_WORK: usize = 16 * 1024;

/// The host's hardware threads, read once per process. The query reads
/// the affinity mask and cgroup quota files — 14–19 µs per call on a
/// 2-vCPU KVM guest, more than a warm solve of a small pattern — so a
/// served batch of one must not pay it every time.
fn host_threads() -> usize {
    static HOST_THREADS: OnceLock<usize> = OnceLock::new();
    *HOST_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// A cacheable inspection product: a dependence structure plus its stable
/// structural key. This is what `DoConsider` emits for the runtime front
/// door (`rtpl::DoConsider::into_spec`) instead of scheduling inline —
/// scheduling, policy selection, and plan reuse across requests are the
/// runtime's job.
///
/// The spec is cheap to clone and share (`Arc` inside); two specs over the
/// same dependence structure carry the same key and meet on one cache
/// entry.
#[derive(Clone, Debug)]
pub struct LoopSpec {
    graph: Arc<DepGraph>,
    key: PatternFingerprint,
}

impl LoopSpec {
    /// Wraps an inspected dependence graph with its cache key.
    pub fn new(graph: DepGraph) -> Self {
        let key = graph.fingerprint();
        LoopSpec {
            graph: Arc::new(graph),
            key,
        }
    }

    /// The dependence structure.
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// The structural cache key.
    pub fn key(&self) -> PatternFingerprint {
        self.key
    }
}

/// The stand-in body type of batches that carry no [`JobKind::Loop`] jobs
/// (`Vec<Job>` defaults to it). Never executed.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoBody;

impl LoopBody for NoBody {
    fn eval<S: ValueSource>(&self, _i: usize, _src: &S) -> f64 {
        unreachable!("NoBody only fills the type parameter; no job carries it")
    }
}

/// One request of a batch: a triangular solve or an index-array loop
/// ([`JobKind`]), each borrowing its inputs and owning (mutably
/// borrowing) its output buffer, plus an optional deadline. Submit
/// through [`Runtime::submit`] / [`Runtime::submit_batch`].
#[derive(Debug)]
pub struct Job<'a, B: LoopBody = NoBody> {
    pub(crate) kind: JobKind<'a, B>,
    pub(crate) deadline: Option<Instant>,
}

/// What a [`Job`] asks for.
#[derive(Debug)]
pub enum JobKind<'a, B: LoopBody = NoBody> {
    /// Solve `L U x = b` through the structure-keyed solve cache.
    Solve {
        /// The factors; only their *structure* keys the cache.
        factors: &'a IluFactors,
        /// Right-hand side.
        b: &'a [f64],
        /// Solution output.
        x: &'a mut [f64],
    },
    /// Run a generic loop body over a cached [`LoopSpec`] structure.
    Loop {
        /// The inspected structure (from `DoConsider::into_spec`).
        spec: &'a LoopSpec,
        /// The loop body (any values, any arithmetic — structure is what
        /// is cached).
        body: &'a B,
        /// Loop output.
        out: &'a mut [f64],
    },
    /// Run the linear recurrence `x(i) = rhs(i) − Σ a_k·x(dep_k)` over a
    /// cached compiled layout; `vals` holds one coefficient per dependence
    /// edge in graph adjacency order.
    LinearLoop {
        /// The inspected structure (from `DoConsider::into_spec`).
        spec: &'a LoopSpec,
        /// Per-edge coefficients, adjacency order
        /// (`spec.graph().num_edges()` of them).
        vals: &'a [f64],
        /// Right-hand side.
        rhs: &'a [f64],
        /// Loop output.
        out: &'a mut [f64],
    },
}

impl<'a, B: LoopBody> Job<'a, B> {
    /// A triangular-solve job.
    pub fn solve(factors: &'a IluFactors, b: &'a [f64], x: &'a mut [f64]) -> Self {
        Job {
            kind: JobKind::Solve { factors, b, x },
            deadline: None,
        }
    }

    /// A generic-body loop job.
    pub fn looped(spec: &'a LoopSpec, body: &'a B, out: &'a mut [f64]) -> Self {
        Job {
            kind: JobKind::Loop { spec, body, out },
            deadline: None,
        }
    }

    /// A compiled linear-recurrence loop job.
    pub fn linear(spec: &'a LoopSpec, vals: &'a [f64], rhs: &'a [f64], out: &'a mut [f64]) -> Self {
        Job {
            kind: JobKind::LinearLoop {
                spec,
                vals,
                rhs,
                out,
            },
            deadline: None,
        }
    }

    /// Attaches a deadline: a job not *finished* by `deadline` is
    /// interrupted at the executors' cancellation points (phase and
    /// stride boundaries) and answered with
    /// [`crate::RuntimeError::DeadlineExceeded`]; a job whose deadline
    /// has already passed when its turn comes is rejected without
    /// running. Expiry never disturbs the other jobs of a batch.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The job's deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// What the job asks for.
    pub fn kind(&self) -> &JobKind<'a, B> {
        &self.kind
    }
}

/// The outcome of one [`Job`].
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Discipline the adaptive selector (or the forced config) ran.
    pub policy: ExecutorKind,
    /// `true` when the plan came from the cache (no inspection for this
    /// job).
    pub cached: bool,
    /// The structure key the job was served under.
    pub pattern: PatternFingerprint,
    /// Requests in flight on this pattern when this job's group started,
    /// including itself (≥ 2 ⇔ same-pattern requests overlapped).
    pub concurrent: u64,
    /// Execution reports: a solve's forward then backward sweep; a loop's
    /// one run, with no second report.
    pub reports: (ExecReport, Option<ExecReport>),
}

/// What one [`Runtime::submit_batch`] call did: per-job outcomes in
/// submission order plus the whole-batch accounting the bench reports
/// requests/sec from.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-job results, indexed exactly as the submitted `Vec<Job>`. A
    /// failing job (e.g. a zero pivot) never sinks its batch — the other
    /// jobs of its group and batch still run.
    pub jobs: Vec<Result<JobOutcome>>,
    /// Wall time of the whole batch, fingerprinting to final output.
    pub wall: Duration,
    /// Distinct fingerprint groups the batch scheduler formed.
    pub groups: usize,
    /// Groups whose pattern was not cached when the batch started (their
    /// inspections are scheduled first, to pipeline with warm execution).
    pub cold_groups: usize,
    /// Batch worker threads used (1 = inline on the submitting thread).
    pub workers: usize,
}

impl BatchOutcome {
    /// Successful jobs.
    pub fn ok_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.is_ok()).count()
    }

    /// Aggregate throughput of the batch.
    pub fn requests_per_sec(&self) -> f64 {
        self.jobs.len() as f64 / self.wall.as_secs_f64().max(1e-12)
    }
}

/// Discriminates the three cache namespaces a job can key into.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum JobClass {
    Solve,
    Loop,
    Linear,
}

impl<B: LoopBody> Job<'_, B> {
    /// Entries one warm run of this job sweeps: factor nonzeros, or a
    /// linear loop's iterations plus dependence edges. `None` for a loop
    /// body, whose cost the runtime cannot size.
    fn sized_work(&self) -> Option<usize> {
        match &self.kind {
            JobKind::Solve { factors, .. } => Some(factors.nnz()),
            JobKind::LinearLoop { spec, .. } => Some(spec.graph.n() + spec.graph.num_edges()),
            JobKind::Loop { .. } => None,
        }
    }

    /// The cache namespace and structural key this job is served under.
    /// Loop specs carry their key; a solve's is an O(nnz) hash of its
    /// factors, so the caller says how to obtain it (a batch memoizes it
    /// per factor object).
    fn class_key(
        &self,
        solve_key: impl FnOnce(&IluFactors) -> PatternFingerprint,
    ) -> (JobClass, PatternFingerprint) {
        match &self.kind {
            JobKind::Solve { factors, .. } => (JobClass::Solve, solve_key(factors)),
            JobKind::Loop { spec, .. } => (JobClass::Loop, spec.key()),
            JobKind::LinearLoop { spec, .. } => (JobClass::Linear, spec.key()),
        }
    }
}

/// One fingerprint group: same class, same key, jobs in submission order.
struct Group<'j, B: LoopBody> {
    class: JobClass,
    key: PatternFingerprint,
    warm: bool,
    jobs: Vec<(usize, Job<'j, B>)>,
}

impl Runtime {
    /// Submits one [`Job`] with the service's failure containment:
    /// deadlines are enforced, panicking bodies come back as
    /// [`crate::RuntimeError::BodyPanicked`], and a pattern whose
    /// requests keep failing trips its circuit breaker.
    ///
    /// A lone job is a batch of one: it runs the same per-class group
    /// runner a [`Runtime::submit_batch`] group does, called directly on
    /// the submitting thread — no queue, no grouping pass, no batch
    /// counters, nothing allocated on the way.
    pub fn submit<B: LoopBody>(&self, job: Job<'_, B>) -> Result<JobOutcome> {
        let (class, key) = job.class_key(Self::solve_key);
        let mut outcome = None;
        self.run_group(class, key, std::iter::once((0, job)), &mut |_, r| {
            outcome = Some(r)
        });
        outcome.expect("invariant: a group of one reports exactly one outcome")
    }

    /// Submits a batch of jobs and schedules them **across requests**:
    /// jobs are grouped by structural fingerprint; each group pays one
    /// cache lookup, one pool lease, one scratch lease, and one selector
    /// decision; groups over never-seen patterns are dispatched first so
    /// their inspections pipeline with warm executions when the host has
    /// several hardware threads (one batch worker per thread, each leasing
    /// its own pool and scratches; a small all-warm batch runs on the
    /// submitting thread alone). Outcomes come back in submission
    /// order; per-job failures are per-job `Err`s, never a batch abort.
    pub fn submit_batch<B: LoopBody>(&self, jobs: Vec<Job<'_, B>>) -> BatchOutcome {
        let t0 = Instant::now();
        let njobs = jobs.len();
        if njobs == 0 {
            return BatchOutcome {
                jobs: Vec::new(),
                wall: t0.elapsed(),
                groups: 0,
                cold_groups: 0,
                workers: 0,
            };
        }

        // Group by (class, fingerprint). The fingerprint hash is O(nnz),
        // so it is memoized per distinct factor *object* — a Zipf batch
        // replaying K patterns hashes K times, not once per request.
        let mut fp_memo: HashMap<*const IluFactors, PatternFingerprint> = HashMap::new();
        let mut group_of: HashMap<(JobClass, u128), usize> = HashMap::new();
        let mut groups: Vec<Group<'_, B>> = Vec::new();
        for (i, job) in jobs.into_iter().enumerate() {
            let (class, key) = job.class_key(|factors| {
                *fp_memo
                    .entry(factors)
                    .or_insert_with(|| Self::solve_key(factors))
            });
            let gi = *group_of.entry((class, key.as_u128())).or_insert_with(|| {
                let warm = match class {
                    JobClass::Solve => self.solves.contains(key),
                    JobClass::Loop => self.loops.contains(key),
                    JobClass::Linear => self.linears.contains(key),
                };
                groups.push(Group {
                    class,
                    key,
                    warm,
                    jobs: Vec::new(),
                });
                groups.len() - 1
            });
            groups[gi].jobs.push((i, job));
        }
        let ngroups = groups.len();
        let cold_groups = groups.iter().filter(|g| !g.warm).count();
        // Cold groups (the long-pole inspections) to the front of the
        // queue: workers that pull them build plans while other workers
        // drain the warm groups concurrently.
        groups.sort_by_key(|g| g.warm);

        // One worker per hardware thread. On a single-core host the batch
        // still wins by amortizing leases, selector traffic and gathers.
        // A small all-warm batch stays on the submitting thread: starting a
        // helper costs more than the sweeps it would take over.
        let small = cold_groups == 0
            && groups
                .iter()
                .flat_map(|g| &g.jobs)
                .try_fold(0usize, |sum, (_, job)| Some(sum + job.sized_work()?))
                .is_some_and(|work| work < HELPER_MIN_WORK);
        let workers = if small {
            1
        } else {
            host_threads().min(ngroups)
        };

        let queue = Mutex::new(VecDeque::from(groups));
        // Outcomes land straight in their submission-order slot.
        let slots: Mutex<Vec<Option<Result<JobOutcome>>>> =
            Mutex::new((0..njobs).map(|_| None).collect());
        let drain = || loop {
            let group = queue.lock().unwrap_or_else(|e| e.into_inner()).pop_front();
            let Some(group) = group else { break };
            self.run_group(
                group.class,
                group.key,
                group.jobs.into_iter(),
                &mut |i, r| slots.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(r),
            );
        };
        if workers == 1 {
            drain();
        } else {
            // The submitting thread is one of the workers: spawn only the
            // extras, drain inline, and the scope joins the rest.
            std::thread::scope(|scope| {
                for _ in 0..workers - 1 {
                    scope.spawn(drain);
                }
                drain();
            });
        }

        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_jobs.fetch_add(njobs as u64, Ordering::Relaxed);

        let slots = slots.into_inner().unwrap_or_else(|e| e.into_inner());
        BatchOutcome {
            jobs: slots
                .into_iter()
                .map(|s| s.expect("invariant: every submitted job produces exactly one outcome"))
                .collect(),
            wall: t0.elapsed(),
            groups: ngroups,
            cold_groups,
            workers,
        }
    }

    /// Runs one fingerprint group — a batch's, or the group of one a lone
    /// [`Runtime::submit`] is — through its class's runner, amortizing
    /// lookup, leases, selector traffic, and (where inputs repeat) value
    /// gathers over its jobs. Each job's result goes to `sink` with its
    /// submission index. The pattern's circuit is consulted once per
    /// group: an open one rejects every job without running anything.
    fn run_group<'j, B: LoopBody + 'j>(
        &self,
        class: JobClass,
        key: PatternFingerprint,
        jobs: impl Iterator<Item = (usize, Job<'j, B>)>,
        sink: &mut impl FnMut(usize, Result<JobOutcome>),
    ) {
        if let Err(e) = self.breaker_admit(key) {
            return jobs.for_each(|(i, _)| sink(i, Err(e.clone())));
        }
        match class {
            JobClass::Solve => self.run_solve_group(key, jobs, sink),
            JobClass::Loop => self.run_loop_group(key, jobs, sink),
            JobClass::Linear => self.run_linear_group(key, jobs, sink),
        }
    }

    /// Per-job epilogue of the group runners — the one place a finished
    /// job meets the failure counters and its pattern's circuit — then
    /// the sink.
    fn finish_job(
        &self,
        key: PatternFingerprint,
        i: usize,
        r: Result<JobOutcome>,
        sink: &mut impl FnMut(usize, Result<JobOutcome>),
    ) {
        self.breaker_note(key, &r);
        if let Err(e) = &r {
            self.count_error(e);
        }
        sink(i, r);
    }

    fn run_solve_group<'j, B: LoopBody + 'j>(
        &self,
        key: PatternFingerprint,
        mut jobs: impl Iterator<Item = (usize, Job<'j, B>)>,
        sink: &mut impl FnMut(usize, Result<JobOutcome>),
    ) {
        let first = jobs.next().expect("invariant: groups are never empty");
        // A lone job has no peers to collect: the one-job path (every
        // `submit`) allocates nothing here.
        let rest: Vec<_> = jobs.collect();
        let lone = rest.is_empty();
        // Sequential runs: a factor object appearing exactly once in the
        // group gains nothing from the gather + run split (its gather
        // would serve only itself), so such jobs — a lone job always —
        // take the one-pass fused sweep instead (bit-exact with the split
        // path). Factors shared by two or more jobs keep the split — one
        // gather amortizes over all of them. The fused sweep never touches
        // the scratch's loaded values, so the `loaded` memo stays valid
        // across the mix.
        let mut ptr_uses: HashMap<*const IluFactors, u32> = HashMap::new();
        if !lone {
            for (_, job) in std::iter::once(&first).chain(&rest) {
                if let JobKind::Solve { factors, .. } = &job.kind {
                    *ptr_uses.entry(*factors).or_insert(0) += 1;
                }
            }
        }
        let mut loaded: Option<*const IluFactors> = None;
        let jobs = std::iter::once(first).chain(rest);
        let build = |lead: &JobKind<'j, B>| match lead {
            JobKind::Solve { factors, .. } => self.build_solve_entry(factors),
            _ => unreachable!("solve group holds solve jobs"),
        };
        self.run_cached(
            key,
            &self.solves,
            build,
            jobs,
            sink,
            |plan, scratch, kind, pool, token, job| {
                let JobKind::Solve { factors, b, x } = job else {
                    unreachable!("solve group holds solve jobs")
                };
                let ptr: *const IluFactors = factors;
                let fused =
                    kind == ExecutorKind::Sequential && (lone || ptr_uses.get(&ptr) == Some(&1));
                let (fwd, bwd) = if fused {
                    if let Some(cause) = token.and_then(CancelToken::check) {
                        return Err(cause.into());
                    }
                    plan.solve_fused_sequential(factors, b, x, scratch)?
                } else {
                    if loaded != Some(ptr) {
                        loaded = None;
                        plan.load_values(factors, scratch)?;
                        loaded = Some(ptr);
                    }
                    plan.solve_loaded_cancellable(pool, kind, b, x, scratch, token)?
                };
                Ok((fwd, Some(bwd)))
            },
        );
    }

    fn run_loop_group<'j, B: LoopBody + 'j>(
        &self,
        key: PatternFingerprint,
        jobs: impl Iterator<Item = (usize, Job<'j, B>)>,
        sink: &mut impl FnMut(usize, Result<JobOutcome>),
    ) {
        let build = |lead: &JobKind<'j, B>| match lead {
            JobKind::Loop { spec, .. } => self.build_loop_entry(spec.graph().clone()),
            _ => unreachable!("loop group holds loop jobs"),
        };
        self.run_cached(
            key,
            &self.loops,
            build,
            jobs,
            sink,
            |plan, scratch, kind, pool, token, job| {
                let JobKind::Loop { body, out, .. } = job else {
                    unreachable!("loop group holds loop jobs")
                };
                let report = plan.try_run_in(scratch, pool, kind, body, out, token)?;
                Ok((report, None))
            },
        );
    }

    fn run_linear_group<'j, B: LoopBody + 'j>(
        &self,
        key: PatternFingerprint,
        jobs: impl Iterator<Item = (usize, Job<'j, B>)>,
        sink: &mut impl FnMut(usize, Result<JobOutcome>),
    ) {
        let build = |lead: &JobKind<'j, B>| match lead {
            JobKind::LinearLoop { spec, .. } => self.build_linear_entry(spec),
            _ => unreachable!("linear group holds linear jobs"),
        };
        let mut loaded: Option<*const [f64]> = None;
        self.run_cached(
            key,
            &self.linears,
            build,
            jobs,
            sink,
            |plan, scratch, kind, pool, token, job| {
                let JobKind::LinearLoop { vals, rhs, out, .. } = job else {
                    unreachable!("linear group holds linear jobs")
                };
                let ptr: *const [f64] = vals;
                if loaded != Some(ptr) {
                    loaded = None;
                    plan.load_values(scratch, vals)
                        .map_err(crate::service::map_compiled)?;
                    loaded = Some(ptr);
                }
                let report = plan.try_run(pool, kind, scratch, rhs, out, token)?;
                Ok((report, None))
            },
        );
    }

    /// The one group runner under the three job classes: one cache lookup
    /// (`build` makes the entry from the group's first job on a miss), one
    /// policy decision, one scratch lease and — for a parallel kind — one
    /// pool lease for the whole group, then `run`, one executor call, per
    /// job, and one averaged observation back into the selector. Entries
    /// are built from the group's *structure* alone — what it was keyed on
    /// — so a build failure answers every job of the group.
    fn run_cached<'j, B: LoopBody + 'j, P, S>(
        &self,
        key: PatternFingerprint,
        cache: &PlanCache<Entry<P, S>>,
        build: impl FnOnce(&JobKind<'j, B>) -> Result<Entry<P, S>>,
        jobs: impl Iterator<Item = (usize, Job<'j, B>)>,
        sink: &mut impl FnMut(usize, Result<JobOutcome>),
        mut run: impl FnMut(
            &P,
            &mut S,
            ExecutorKind,
            Option<&WorkerPool>,
            Option<&CancelToken>,
            JobKind<'j, B>,
        ) -> Result<(ExecReport, Option<ExecReport>)>,
    ) {
        let mut jobs = jobs.peekable();
        let (_, lead) = jobs.peek().expect("invariant: groups are never empty");
        let mut built = false;
        let slot = cache.get_or_build(key, || {
            built = true;
            build(&lead.kind)
        });
        let slot = match slot {
            Ok(s) => s,
            Err(e) => return jobs.for_each(|(i, _)| self.finish_job(key, i, Err(e.clone()), sink)),
        };
        let entry = slot.get();
        let kind = self.choose_policy(&entry.adaptive);
        let (mut scratch, info) = entry.lease();
        self.note_lease(info);
        // Sequential forks no team: a runtime whose every run is sequential
        // never spawns a worker thread.
        let pool = (kind != ExecutorKind::Sequential).then(|| self.pools.lease());
        let (mut wall_sum, mut runs) = (0.0f64, 0u64);
        for (i, job) in jobs {
            let token = job.deadline.map(CancelToken::with_deadline);
            let (plan, token) = (&entry.plan, token.as_ref());
            let r =
                run(plan, &mut scratch, kind, pool.as_deref(), token, job.kind).map(|reports| {
                    let wall =
                        reports.0.wall + reports.1.as_ref().map_or(Duration::ZERO, |r| r.wall);
                    wall_sum += wall.as_nanos() as f64;
                    runs += 1;
                    JobOutcome {
                        policy: kind,
                        cached: !std::mem::take(&mut built),
                        pattern: key,
                        concurrent: info.active,
                        reports,
                    }
                });
            self.finish_job(key, i, r, sink);
        }
        drop(scratch);
        self.observe_group(&entry.adaptive, kind, wall_sum, runs);
    }
}
