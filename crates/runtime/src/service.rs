//! The runtime service: configuration, counters, cached entries, the
//! plan-acquisition ladder (memory → store → cold inspection) and the
//! circuit breaker. Requests enter through `batch.rs`.

use crate::cache::{CacheStats, PlanCache};
use crate::pools::{Lease, LeaseInfo, LeasePool, PoolSet};
use crate::selector::{AdaptiveState, PolicySelector};
use crate::Result;
use rtpl_executor::compiled::{CompiledPlan, RunScratch};
use rtpl_executor::{ExecutorKind, LoopScratch, PlannedLoop, WorkerPool};
use rtpl_inspector::{DepGraph, Sorting, Wavefronts};
use rtpl_krylov::{CompiledSolveScratch, CompiledTriSolve, Precondition, TriangularSolvePlan};
use rtpl_sim::{calibrate, CostModel};
use rtpl_sparse::ilu::IluFactors;
use rtpl_sparse::wire::{WireError, WireReader, WireWriter};
use rtpl_sparse::PatternFingerprint;
use rtpl_store::PlanStore;
use rtpl_verify::VerifyError;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Configuration of a [`Runtime`].
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Processors per plan (and per leased worker pool).
    pub nprocs: usize,
    /// Shards of each plan cache.
    pub shards: usize,
    /// Total plans each cache retains before LRU eviction.
    pub capacity: usize,
    /// Inspector sorting discipline for new plans.
    pub sorting: Sorting,
    /// Measure per-operation costs on this host at startup (the §5.1.2
    /// calibration). When `false` the abstract Multimax model is used —
    /// deterministic, instant, and good enough for tests.
    pub calibrate: bool,
    /// Force one executor discipline instead of adapting (useful for
    /// experiments and reproducibility runs).
    pub policy: Option<ExecutorKind>,
    /// Segment file of the persistent plan store (`None` = no disk tier).
    /// Solve-cache misses consult the store before paying for a cold
    /// inspection, cold builds spill their artifact write-behind, and
    /// [`Runtime::warm_from_store`] can pre-populate the memory cache from
    /// a previous process's plans. A file that fails to open (or parse)
    /// never fails the runtime: the error is counted in
    /// [`RuntimeStats::store_load_errors`] and the runtime runs storeless.
    pub store_path: Option<PathBuf>,
    /// Consecutive failures (failed builds, panicking bodies) a single
    /// pattern may accumulate through the [`Runtime::submit`] /
    /// [`Runtime::submit_batch`] front door before its circuit breaker
    /// opens and requests for it are rejected cheaply with
    /// [`crate::RuntimeError::CircuitOpen`]. After
    /// [`RuntimeConfig::breaker_cooldown`] one probe request is admitted:
    /// success closes the breaker, failure re-opens it. `0` disables
    /// circuit breaking. Deadline expiry and cancellation are the
    /// *client's* doing and never count against a pattern.
    pub breaker_threshold: u32,
    /// How long an open circuit rejects before admitting a probe.
    pub breaker_cooldown: Duration,
    /// Wavefront-coalescing aggressiveness. The inspector merges
    /// consecutive phases whose combined per-processor work stays at or
    /// below `coalesce_factor × Tsynch / Tp` weighted operations — the
    /// break-even point where a phase's work no longer covers its barrier
    /// (or ready-flag round), scaled by this factor. `1.0` merges exactly
    /// the phases the cost model says are synchronization-bound; `0.0`
    /// disables coalescing (one phase per wavefront, the paper's layout).
    /// Dependences inside a merged phase are honored by each processor's
    /// baked execution order, so results stay bit-exact.
    pub coalesce_factor: f64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            nprocs: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(2)
                .clamp(1, 8),
            shards: 8,
            capacity: 128,
            sorting: Sorting::Global,
            calibrate: true,
            policy: None,
            store_path: None,
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_millis(100),
            coalesce_factor: 1.0,
        }
    }
}

/// Counter snapshot of a [`Runtime`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RuntimeStats {
    /// Triangular-solve plan cache counters.
    pub solves: CacheStats,
    /// Generic planned-loop cache counters.
    pub loops: CacheStats,
    /// Compiled linear-loop cache counters ([`crate::JobKind::LinearLoop`]).
    pub linears: CacheStats,
    /// Batches submitted through [`Runtime::submit_batch`].
    pub batches: u64,
    /// Jobs carried by those batches. (A batch performs one cache lookup
    /// per fingerprint *group*, so `solves.hits` counts groups, not jobs,
    /// on the batched path.)
    pub batch_jobs: u64,
    /// Worker pools ever spawned (the concurrency high-water mark).
    pub pools_created: u64,
    /// Runs executed per policy, indexed by the [`ExecutorKind`] tag.
    pub policy_runs: [u64; 5],
    /// Executor scratches ever built across all cached entries — grows
    /// only when requests for one pattern overlap (each entry reuses a
    /// free-listed scratch otherwise).
    pub scratches_created: u64,
    /// Highest number of simultaneously in-flight requests observed on
    /// any **single** cached pattern. Under the old per-entry mutex this
    /// could never exceed 1; ≥ 2 proves same-pattern requests run
    /// concurrently.
    pub peak_same_pattern: u64,
    /// Solve-cache misses served by decoding a persisted plan artifact
    /// instead of a cold inspection (includes plans pre-loaded by
    /// [`Runtime::warm_from_store`]).
    pub store_hits: u64,
    /// Solve-cache misses that consulted the store and found nothing —
    /// these paid the full cold inspection.
    pub store_misses: u64,
    /// Plan artifacts accepted by the store's write-behind queue (cold
    /// builds plus [`Runtime::persist_learned`] snapshots; a queue-full
    /// drop is *not* counted here — see the store's own `dropped_writes`).
    pub store_writes: u64,
    /// Store records that could not be used: open/scan repairs, corrupt or
    /// truncated payloads, wire-format mismatches, artifacts built for a
    /// different processor count. Every one fell back to cold inspection —
    /// this counter is the only trace the failure leaves.
    pub store_load_errors: u64,
    /// Jobs whose loop body panicked and were answered with a typed
    /// [`crate::RuntimeError::BodyPanicked`] instead of unwinding the
    /// service.
    pub body_panics: u64,
    /// Jobs rejected or interrupted because their deadline passed (or
    /// their cancel token fired).
    pub deadline_expired: u64,
    /// Requests rejected by an open per-pattern circuit breaker.
    pub circuit_open: u64,
    /// Leased worker pools found dead (a worker thread gone) and replaced
    /// with fresh ones.
    pub pool_rebuilds: u64,
    /// Plans proven safe by the [`rtpl_verify`] plan verifier: every
    /// store-decoded artifact (always checked) plus, in debug builds,
    /// every cold build.
    pub verified_plans: u64,
    /// Plans the verifier rejected. A rejected store artifact is also a
    /// [`RuntimeStats::store_load_errors`] entry and falls back to cold
    /// inspection; a rejected cold build fails the request with a typed
    /// `InvalidStructure` error naming the violated invariant.
    pub verify_failures: u64,
    /// Barriered phases (forward + backward) the wavefront computation
    /// produced, summed over every solve plan this runtime built cold or
    /// decoded from the store. With coalescing off this equals
    /// [`RuntimeStats::coalesce_phases_after`].
    pub coalesce_phases_before: u64,
    /// Barriered phases remaining after wavefront coalescing, summed the
    /// same way. `before − after` synchronization points were converted
    /// into baked intra-phase execution order.
    pub coalesce_phases_after: u64,
    /// Compiled positions whose operand run is shared with the preceding
    /// position (the supernode layout's deduplicated rows), summed over
    /// both sweeps of every solve plan built or decoded.
    pub supernode_positions: u64,
}

impl RuntimeStats {
    /// Runs executed under `kind`.
    pub fn runs_for(&self, kind: ExecutorKind) -> u64 {
        self.policy_runs[kind as usize]
    }

    /// The most-run policy (the service's steady-state choice).
    pub fn dominant_policy(&self) -> ExecutorKind {
        ExecutorKind::ALL
            .into_iter()
            .max_by_key(|&k| self.policy_runs[k as usize])
            .expect("invariant: there are five kinds")
    }

    /// Renders the counters as plaintext `name value` lines — the format
    /// `rtpl-server`'s metrics endpoint serves (one metric per line,
    /// `snake_case` names prefixed `rtpl_`, stable ordering).
    pub fn render_plaintext(&self) -> String {
        let mut out = String::new();
        let mut line = |name: &str, v: u64| {
            out.push_str("rtpl_");
            out.push_str(name);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        };
        for (cache, stats) in [
            ("solve", &self.solves),
            ("loop", &self.loops),
            ("linear", &self.linears),
        ] {
            line(&format!("{cache}_cache_hits"), stats.hits);
            line(&format!("{cache}_cache_misses"), stats.misses);
            line(&format!("{cache}_cache_builds"), stats.builds);
            line(&format!("{cache}_cache_evictions"), stats.evictions);
        }
        line("batches", self.batches);
        line("batch_jobs", self.batch_jobs);
        line("pools_created", self.pools_created);
        line("scratches_created", self.scratches_created);
        line("peak_same_pattern", self.peak_same_pattern);
        line("store_hits", self.store_hits);
        line("store_misses", self.store_misses);
        line("store_writes", self.store_writes);
        line("store_load_errors", self.store_load_errors);
        line("body_panics", self.body_panics);
        line("deadline_expired", self.deadline_expired);
        line("circuit_open", self.circuit_open);
        line("pool_rebuilds", self.pool_rebuilds);
        line("verified_plans", self.verified_plans);
        line("verify_failures", self.verify_failures);
        line("coalesce_phases_before", self.coalesce_phases_before);
        line("coalesce_phases_after", self.coalesce_phases_after);
        line("supernode_positions", self.supernode_positions);
        for kind in ExecutorKind::ALL {
            line(
                &format!("policy_runs_{}", format!("{kind:?}").to_lowercase()),
                self.policy_runs[kind as usize],
            );
        }
        out
    }
}

/// Cached state for one structure — a [`CompiledTriSolve`], a
/// [`PlannedLoop`] or a [`CompiledPlan`]: the immutable plan (shared by
/// every in-flight request) plus a lease pool of per-run scratches, so N
/// threads on one fingerprint run N executions in parallel. Only the
/// adaptive explore/exploit bookkeeping sits behind a (briefly held) mutex.
pub(crate) struct Entry<P, S> {
    pub(crate) plan: P,
    /// Sizes a fresh scratch for `plan` (its `scratch` method).
    new_scratch: fn(&P) -> S,
    pub(crate) adaptive: Mutex<AdaptiveState>,
    scratches: LeasePool<S>,
}

impl<P, S> Entry<P, S> {
    fn new(plan: P, new_scratch: fn(&P) -> S, adaptive: AdaptiveState) -> Self {
        Entry {
            plan,
            new_scratch,
            adaptive: Mutex::new(adaptive),
            scratches: LeasePool::new(),
        }
    }

    /// Leases a scratch, building one only when every other is in use.
    pub(crate) fn lease(&self) -> (Lease<'_, S>, LeaseInfo) {
        self.scratches.lease(|| (self.new_scratch)(&self.plan))
    }
}

/// A solve entry: one factor structure's compiled solve.
pub(crate) type SolveEntry = Entry<CompiledTriSolve, CompiledSolveScratch>;

/// The multi-client solver service: concurrent plan caches in front of the
/// inspector, an adaptive policy selector in front of the executors. See
/// the crate docs for the architecture.
pub struct Runtime {
    pub(crate) cfg: RuntimeConfig,
    pub(crate) selector: PolicySelector,
    pub(crate) pools: PoolSet,
    pub(crate) solves: PlanCache<SolveEntry>,
    pub(crate) loops: PlanCache<Entry<PlannedLoop, LoopScratch>>,
    pub(crate) linears: PlanCache<Entry<CompiledPlan, RunScratch>>,
    pub(crate) policy_runs: [AtomicU64; 5],
    pub(crate) scratches_created: AtomicU64,
    pub(crate) peak_same_pattern: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) batch_jobs: AtomicU64,
    /// Disk tier of the solve-plan cache (see [`RuntimeConfig::store_path`]).
    pub(crate) store: Option<PlanStore>,
    pub(crate) store_hits: AtomicU64,
    pub(crate) store_misses: AtomicU64,
    pub(crate) store_writes: AtomicU64,
    pub(crate) store_load_errors: AtomicU64,
    pub(crate) body_panics: AtomicU64,
    pub(crate) deadline_expired: AtomicU64,
    pub(crate) circuit_open: AtomicU64,
    pub(crate) verified_plans: AtomicU64,
    pub(crate) verify_failures: AtomicU64,
    pub(crate) coalesce_phases_before: AtomicU64,
    pub(crate) coalesce_phases_after: AtomicU64,
    pub(crate) supernode_positions: AtomicU64,
    /// Per-pattern consecutive-failure accounting for the circuit breaker
    /// (bounded; see [`BREAKER_CAPACITY`]).
    pub(crate) breaker: Mutex<HashMap<u128, BreakerState>>,
}

/// Whether freshly built plans (schedules, barrier plans, compiled
/// layouts) are run through the [`rtpl_verify`] plan verifier before being
/// cached: **on in debug builds, off in release**. Verification is a
/// build-time cost only (never on the warm run path), but cold inspection
/// is already the expensive path. A failed proof aborts the build with a
/// typed `InvalidStructure` error naming the violated edge and counts in
/// [`RuntimeStats::verify_failures`]. Plans decoded from the persistent
/// store are untrusted disk input and are **always** verified.
const VERIFY_FRESH_PLANS: bool = cfg!(debug_assertions);

/// Most patterns a [`Runtime`] tracks breaker state for. Only *failing*
/// patterns occupy a slot (success evicts), so hitting the bound means
/// this many patterns are failing simultaneously; further ones simply go
/// untracked rather than growing the map without limit.
const BREAKER_CAPACITY: usize = 1024;

/// Consecutive-failure state of one pattern's circuit.
#[derive(Debug, Default)]
pub(crate) struct BreakerState {
    consecutive: u32,
    open_until: Option<Instant>,
    probing: bool,
}

impl Runtime {
    /// Starts a runtime. With `cfg.calibrate` set (the default) this
    /// measures `Tp`/`Tinc`/`Tcheck` on the host **once** — every pattern
    /// admitted later reuses the same calibrated [`CostModel`].
    pub fn new(cfg: RuntimeConfig) -> Self {
        let cost = if cfg.calibrate {
            calibrate::calibrate_host(calibrate::default_tsynch_ns(cfg.nprocs))
        } else {
            CostModel::multimax()
        };
        Self::with_cost_model(cfg, cost)
    }

    /// Starts a runtime with an explicit cost model (skips calibration).
    pub fn with_cost_model(cfg: RuntimeConfig, cost: CostModel) -> Self {
        assert!(cfg.nprocs >= 1);
        // Host honesty rides with calibration: when the runtime measures
        // the host it also detects its core count, and the selector retires
        // parallel arms whose processor count the hardware cannot actually
        // run simultaneously (spin-wait executors fall off a cliff there).
        // Abstract-model runtimes (`calibrate: false`) stay pure model.
        let host_procs = if cfg.calibrate {
            std::thread::available_parallelism().ok().map(|p| p.get())
        } else {
            None
        };
        // The persistent tier is strictly optional: an unopenable store
        // file (bad magic, future version, filesystem trouble) leaves its
        // one trace in `store_load_errors` and the runtime runs storeless.
        let mut open_errors = 0;
        let store = cfg
            .store_path
            .as_ref()
            .and_then(|path| PlanStore::open(path).inspect_err(|_| open_errors = 1).ok());
        Runtime {
            selector: PolicySelector::with_host_procs(cost, host_procs),
            pools: PoolSet::new(cfg.nprocs),
            solves: PlanCache::new(cfg.shards, cfg.capacity),
            loops: PlanCache::new(cfg.shards, cfg.capacity),
            linears: PlanCache::new(cfg.shards, cfg.capacity),
            policy_runs: [const { AtomicU64::new(0) }; 5],
            scratches_created: AtomicU64::new(0),
            peak_same_pattern: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_jobs: AtomicU64::new(0),
            store,
            store_hits: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
            store_writes: AtomicU64::new(0),
            store_load_errors: AtomicU64::new(open_errors),
            body_panics: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            circuit_open: AtomicU64::new(0),
            verified_plans: AtomicU64::new(0),
            verify_failures: AtomicU64::new(0),
            coalesce_phases_before: AtomicU64::new(0),
            coalesce_phases_after: AtomicU64::new(0),
            supernode_positions: AtomicU64::new(0),
            breaker: Mutex::new(HashMap::new()),
            cfg,
        }
    }

    /// Folds one finished request's error (if any) into the failure
    /// counters. Called only from the group runners' per-job epilogue, so
    /// each failure is counted exactly once.
    pub(crate) fn count_error(&self, e: &crate::RuntimeError) {
        match e {
            crate::RuntimeError::BodyPanicked { .. } => {
                self.body_panics.fetch_add(1, Ordering::Relaxed);
            }
            crate::RuntimeError::DeadlineExceeded | crate::RuntimeError::Cancelled => {
                self.deadline_expired.fetch_add(1, Ordering::Relaxed);
            }
            // Counted at the rejection site (`breaker_admit`).
            crate::RuntimeError::CircuitOpen => {}
            _ => {}
        }
    }

    /// Admits or rejects a request for `key` against its circuit. An open
    /// circuit whose cooldown has elapsed admits exactly one probe; its
    /// outcome (reported through [`Runtime::breaker_note`]) decides
    /// whether the circuit closes or re-opens.
    pub(crate) fn breaker_admit(&self, key: PatternFingerprint) -> Result<()> {
        if self.cfg.breaker_threshold == 0 {
            return Ok(());
        }
        let mut map = self.breaker.lock().unwrap_or_else(|e| e.into_inner());
        let Some(st) = map.get_mut(&key.as_u128()) else {
            return Ok(());
        };
        if let Some(until) = st.open_until {
            if st.probing || Instant::now() < until {
                self.circuit_open.fetch_add(1, Ordering::Relaxed);
                return Err(crate::RuntimeError::CircuitOpen);
            }
            st.probing = true;
        }
        Ok(())
    }

    /// Folds one admitted request's outcome back into `key`'s circuit:
    /// success closes it (and frees its slot), a service-side failure
    /// counts toward opening it, a client-side outcome (deadline,
    /// cancellation) is neutral — it only ends an in-flight probe.
    pub(crate) fn breaker_note<T>(&self, key: PatternFingerprint, r: &Result<T>) {
        if self.cfg.breaker_threshold == 0 {
            return;
        }
        let failed = match r {
            Ok(_) => false,
            Err(
                crate::RuntimeError::DeadlineExceeded
                | crate::RuntimeError::Cancelled
                | crate::RuntimeError::CircuitOpen,
            ) => {
                let mut map = self.breaker.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(st) = map.get_mut(&key.as_u128()) {
                    st.probing = false;
                }
                return;
            }
            Err(_) => true,
        };
        let mut map = self.breaker.lock().unwrap_or_else(|e| e.into_inner());
        if !failed {
            map.remove(&key.as_u128());
            return;
        }
        let len = map.len();
        let st = match map.entry(key.as_u128()) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                if len >= BREAKER_CAPACITY {
                    return;
                }
                v.insert(BreakerState::default())
            }
        };
        st.consecutive += 1;
        st.probing = false;
        if st.consecutive >= self.cfg.breaker_threshold {
            st.open_until = Some(Instant::now() + self.cfg.breaker_cooldown);
        }
    }

    /// Folds one scratch-lease observation into the runtime counters.
    pub(crate) fn note_lease(&self, info: crate::pools::LeaseInfo) {
        if info.created {
            self.scratches_created.fetch_add(1, Ordering::Relaxed);
        }
        self.peak_same_pattern
            .fetch_max(info.active, Ordering::Relaxed);
    }

    /// The cache key of a solve request: the combined (L, U) structure.
    /// Public so out-of-process callers (the `rtpl-server` wire protocol's
    /// `WarmCheck`/`SolveByFingerprint` requests) can compute the exact key
    /// the runtime will use without shipping the factors.
    pub fn solve_key(factors: &IluFactors) -> PatternFingerprint {
        PatternFingerprint::combine(&[
            factors.l.pattern_fingerprint(),
            factors.u.pattern_fingerprint(),
        ])
    }

    /// The forced policy, or one adaptive decision under the entry lock.
    pub(crate) fn choose_policy(&self, adaptive: &Mutex<AdaptiveState>) -> ExecutorKind {
        self.cfg
            .policy
            .unwrap_or_else(|| adaptive.lock().unwrap_or_else(|e| e.into_inner()).choose())
    }

    /// Folds a whole group's runs back into the selector and the policy
    /// counters: one averaged observation, one counter bump of `runs`.
    pub(crate) fn observe_group(
        &self,
        adaptive: &Mutex<AdaptiveState>,
        kind: ExecutorKind,
        wall_ns_sum: f64,
        runs: u64,
    ) {
        if runs == 0 {
            return;
        }
        adaptive
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .observe(kind, wall_ns_sum / runs as f64);
        self.policy_runs[kind as usize].fetch_add(runs, Ordering::Relaxed);
    }

    /// Acquires one solve pattern's entry: the memory-cache miss path of
    /// solve groups. With a store
    /// attached, a persisted artifact is decoded instead of re-running the
    /// inspector; otherwise (or when the record is absent, corrupt, or
    /// built for a different processor count) the pattern pays the full
    /// cold inspection and the fresh plan is spilled write-behind.
    pub(crate) fn build_solve_entry(&self, factors: &IluFactors) -> Result<SolveEntry> {
        let key = Self::solve_key(factors).as_u128();
        if let Some(entry) = self.load_solve_entry(key) {
            return Ok(entry);
        }
        let entry = self.inspect_solve_entry(factors)?;
        self.spill_solve_entry(key, &entry);
        Ok(entry)
    }

    /// The wavefront-coalescing grain in weighted operations: the
    /// break-even work a phase must carry to pay for its synchronization
    /// point under the runtime's cost model (`Tsynch / Tp`), scaled by
    /// [`RuntimeConfig::coalesce_factor`]. `None` when the factor is zero
    /// (coalescing disabled).
    pub fn coalesce_grain(&self) -> Option<f64> {
        let factor = self.cfg.coalesce_factor;
        // NaN and non-positive factors both disable coalescing.
        if !factor.is_finite() || factor <= 0.0 {
            return None;
        }
        let cost = self.selector.cost_model();
        Some(factor * cost.tsynch / cost.tp)
    }

    /// Folds one freshly built or store-decoded solve plan's coalescing
    /// and supernode-layout numbers into the runtime counters. Plans that
    /// were never coalesced count their phases on both sides (before ==
    /// after), so the two counters always describe the same plan set.
    fn note_solve_plan(&self, compiled: &CompiledTriSolve) {
        let (phases_l, phases_u) = compiled.plan().num_phases();
        let (sl, su) = compiled.plan().coalesce_stats();
        let before_l = sl.map_or(phases_l, |s| s.phases_before);
        let before_u = su.map_or(phases_u, |s| s.phases_before);
        self.coalesce_phases_before
            .fetch_add((before_l + before_u) as u64, Ordering::Relaxed);
        self.coalesce_phases_after
            .fetch_add((phases_l + phases_u) as u64, Ordering::Relaxed);
        let supernodes = compiled.forward_plan().supernode_positions()
            + compiled.backward_plan().supernode_positions();
        self.supernode_positions
            .fetch_add(supernodes as u64, Ordering::Relaxed);
    }

    /// The selector's prior for one solve plan: the predicted cost of each
    /// arm over both sweeps.
    fn solve_prior(&self, plan: &TriangularSolvePlan) -> [f64; 5] {
        let pl = self.selector.predict(plan.plan_l());
        let pu = self.selector.predict(plan.plan_u());
        std::array::from_fn(|k| pl[k] + pu[k])
    }

    /// The genuinely cold path: inspects, predicts, and compiles.
    fn inspect_solve_entry(&self, factors: &IluFactors) -> Result<SolveEntry> {
        let plan = TriangularSolvePlan::new_with_grain(
            factors,
            self.cfg.nprocs,
            self.cfg.policy.unwrap_or(ExecutorKind::SelfExecuting),
            self.cfg.sorting,
            self.coalesce_grain(),
        )?;
        let prior = self.solve_prior(&plan);
        let compiled = plan.compile()?;
        if VERIFY_FRESH_PLANS {
            self.verify_or_reject(rtpl_verify::verify_tri_solve(&compiled))?;
        }
        self.note_solve_plan(&compiled);
        Ok(Entry::new(
            compiled,
            CompiledTriSolve::scratch,
            AdaptiveState::new(prior),
        ))
    }

    /// Folds one plan-verification verdict into the counters, mapping a
    /// rejection onto a typed structural error. Every call site sits on a
    /// build or decode path — never on the warm run path.
    fn verify_or_reject(&self, r: std::result::Result<(), VerifyError>) -> Result<()> {
        match r {
            Ok(()) => {
                self.verified_plans.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.verify_failures.fetch_add(1, Ordering::Relaxed);
                Err(crate::RuntimeError::Sparse(
                    rtpl_sparse::SparseError::InvalidStructure(format!("plan verification: {e}")),
                ))
            }
        }
    }

    /// Consults the persistent store for `key`. `None` means "pay the cold
    /// path" — whether because no store is attached, the key is absent
    /// (`store_misses`), or the record exists but cannot be used
    /// (`store_load_errors`: corruption, truncation, format drift, or an
    /// artifact compiled for a different `nprocs`). Never fails the
    /// request.
    fn load_solve_entry(&self, key: u128) -> Option<SolveEntry> {
        let store = self.store.as_ref()?;
        let payload = match store.get(key) {
            Ok(Some(p)) => p,
            Ok(None) => {
                self.store_misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                self.store_load_errors.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match self.decode_solve_payload(&payload) {
            Ok(entry) => {
                store.touch(key);
                self.store_hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            Err(_) => {
                self.store_load_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Serializes one solve entry for the store: the structure-only plan
    /// artifact plus the adaptive selector's state — the measured snapshot,
    /// and the policy prior together with the exact context it was computed
    /// under (cost model and host core clamp). A restarted runtime whose
    /// context matches bitwise reuses the prior instead of re-running the
    /// prediction simulations; any drift (recalibration, different core
    /// count) makes it recompute.
    fn encode_solve_payload(&self, entry: &SolveEntry) -> Vec<u8> {
        let adaptive = entry.adaptive.lock().unwrap_or_else(|e| e.into_inner());
        let (measured, count) = adaptive.snapshot();
        let prior = adaptive.prior();
        drop(adaptive);
        let cost = self.selector.cost_model();
        let mut w = WireWriter::new();
        w.put_u8s(&entry.plan.encode_artifact());
        // The coalescing grain is part of the prior's context: a restarted
        // runtime with a different grain would schedule (and price) the
        // pattern differently, so its stored prior must not resume.
        w.put_f64s(&[
            cost.tp,
            cost.tsynch,
            cost.tinc,
            cost.tcheck,
            self.coalesce_grain().unwrap_or(0.0),
        ]);
        w.put_u64(self.selector.host_procs().map_or(0, |p| p as u64));
        w.put_f64s(&prior);
        w.put_f64s(&measured);
        w.put_u64s(&count);
        w.into_bytes()
    }

    /// Decodes a stored payload into a servable entry. The artifact must
    /// have been compiled for this runtime's processor count — worker
    /// pools are leased at `cfg.nprocs`, and a compiled layout's phase
    /// walk is per-processor — otherwise the record is rejected (the
    /// caller counts it as a load error and goes cold). The policy prior
    /// encodes the writer's cost model and core count: when they match
    /// this runtime's bitwise, the persisted prior is resumed directly
    /// (the prediction simulations are deterministic in that context, so
    /// re-running them would reproduce it); on any mismatch — or a prior
    /// with no feasible arm left — it is recomputed fresh from the
    /// decoded plans, and the persisted measurements resume on top.
    fn decode_solve_payload(&self, payload: &[u8]) -> std::result::Result<SolveEntry, WireError> {
        let mut r = WireReader::new(payload);
        let artifact = r.u8s_ref()?;
        let stored_cost: [f64; 5] = r.f64s()?.try_into().map_err(|_| {
            WireError::Invalid("prior context needs 4 cost parameters and a grain".into())
        })?;
        let stored_host = r.u64()?;
        let stored_prior: [f64; 5] = r
            .f64s()?
            .try_into()
            .map_err(|_| WireError::Invalid("prior needs 5 arms".into()))?;
        let measured: [f64; 5] = r
            .f64s()?
            .try_into()
            .map_err(|_| WireError::Invalid("adaptive snapshot needs 5 means".into()))?;
        let count: [u64; 5] = r
            .u64s()?
            .try_into()
            .map_err(|_| WireError::Invalid("adaptive snapshot needs 5 counts".into()))?;
        r.finish()?;
        let compiled = CompiledTriSolve::decode_artifact(artifact)?;
        if compiled.forward_plan().nprocs() != self.cfg.nprocs {
            return Err(WireError::Invalid(format!(
                "artifact compiled for {} procs, runtime configured for {}",
                compiled.forward_plan().nprocs(),
                self.cfg.nprocs
            )));
        }
        // Disk input is untrusted: prove the decoded plan safe before it
        // can reach the cache, regardless of `VERIFY_FRESH_PLANS`. A mutant
        // artifact costs one counted load error and a cold fallback.
        if let Err(e) = rtpl_verify::verify_tri_solve(&compiled) {
            self.verify_failures.fetch_add(1, Ordering::Relaxed);
            return Err(WireError::Invalid(format!("plan verification: {e}")));
        }
        self.verified_plans.fetch_add(1, Ordering::Relaxed);
        let cost = self.selector.cost_model();
        let same_context = stored_cost[0].to_bits() == cost.tp.to_bits()
            && stored_cost[1].to_bits() == cost.tsynch.to_bits()
            && stored_cost[2].to_bits() == cost.tinc.to_bits()
            && stored_cost[3].to_bits() == cost.tcheck.to_bits()
            && stored_cost[4].to_bits() == self.coalesce_grain().unwrap_or(0.0).to_bits()
            && stored_host == self.selector.host_procs().map_or(0, |p| p as u64);
        let prior = if same_context && stored_prior.iter().any(|p| p.is_finite()) {
            stored_prior
        } else {
            self.solve_prior(compiled.plan())
        };
        self.note_solve_plan(&compiled);
        Ok(Entry::new(
            compiled,
            CompiledTriSolve::scratch,
            AdaptiveState::resume(prior, measured, count),
        ))
    }

    /// Queues one entry's payload on the store's write-behind channel.
    fn spill_solve_entry(&self, key: u128, entry: &SolveEntry) {
        if let Some(store) = self.store.as_ref() {
            if store.put(key, self.encode_solve_payload(entry)) {
                self.store_writes.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The cold path shared by loop and linear groups: `g`'s plan under
    /// this runtime's processor count, sorting and coalescing grain.
    fn plan_loop(&self, g: DepGraph) -> Result<PlannedLoop> {
        let (wf, cfg) = (Wavefronts::compute(&g)?, &self.cfg);
        Ok(PlannedLoop::build(g, &wf, cfg.sorting, cfg.nprocs, self.coalesce_grain())?.0)
    }

    /// Schedules one generic loop structure (the cold path of loop
    /// groups).
    pub(crate) fn build_loop_entry(&self, g: DepGraph) -> Result<Entry<PlannedLoop, LoopScratch>> {
        let plan = self.plan_loop(g)?;
        if VERIFY_FRESH_PLANS {
            self.verify_or_reject(rtpl_verify::verify_plan(
                plan.graph(),
                plan.schedule(),
                plan.barrier_plan(),
            ))?;
        }
        let prior = self.selector.predict(&plan);
        Ok(Entry::new(
            plan,
            PlannedLoop::scratch,
            AdaptiveState::new(prior),
        ))
    }

    /// Schedules **and compiles** one linear-recurrence loop structure
    /// into its schedule-order layout (the cold path of linear groups).
    pub(crate) fn build_linear_entry(
        &self,
        spec: &crate::LoopSpec,
    ) -> Result<Entry<CompiledPlan, RunScratch>> {
        let plan = self.plan_loop(spec.graph().clone())?;
        let prior = self.selector.predict(&plan);
        let cspec = rtpl_executor::compiled::CompiledSpec::linear_from_graph(plan.graph());
        let compiled = CompiledPlan::compile(&plan, &cspec).map_err(map_compiled)?;
        if VERIFY_FRESH_PLANS {
            self.verify_or_reject(rtpl_verify::verify_linear(&plan, &compiled))?;
        }
        Ok(Entry::new(
            compiled,
            CompiledPlan::scratch,
            AdaptiveState::new(prior),
        ))
    }

    /// The configuration in use.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// The cost model driving policy priors (calibrated or abstract).
    pub fn cost_model(&self) -> &CostModel {
        self.selector.cost_model()
    }

    /// The attached persistent plan store, if any.
    pub fn store(&self) -> Option<&PlanStore> {
        self.store.as_ref()
    }

    /// True when the store holds a (possibly stale) record for `key` —
    /// the disk rung of the memory → disk → cold lookup ladder. A pure
    /// index peek: no payload is read or validated, so a `true` may still
    /// decode-fail into a cold inspection later.
    pub fn store_contains(&self, key: PatternFingerprint) -> bool {
        self.store
            .as_ref()
            .is_some_and(|s| s.contains(key.as_u128()))
    }

    /// Re-persists every resident solve plan with its *current* adaptive
    /// snapshot and blocks until the store has flushed. Cold builds spill
    /// their artifact before any run has been measured; calling this at a
    /// natural boundary (server shutdown, end of a batch campaign) makes
    /// the learned explore/exploit state durable too. Returns the number
    /// of entries written (0 without a store).
    pub fn persist_learned(&self) -> usize {
        let Some(store) = self.store.as_ref() else {
            return 0;
        };
        let mut written = 0;
        self.solves.for_each_built(|key, entry| {
            if store.put(key, self.encode_solve_payload(entry)) {
                self.store_writes.fetch_add(1, Ordering::Relaxed);
                written += 1;
            }
        });
        store.flush();
        written
    }

    /// Pre-populates the memory cache from the store's most-recently-used
    /// head: up to `limit` persisted patterns, hottest first (by the
    /// store's per-key recency then hit count), are decoded and installed
    /// on a background thread so the first real request for each is a
    /// plain memory hit. Blocks until warming finishes — callers wanting
    /// warm-up concurrent with request traffic call this from their own
    /// thread (as `rtpl-server` does at spawn). Undecodable records are
    /// skipped (counted in [`RuntimeStats::store_load_errors`]); returns
    /// the number of plans installed.
    pub fn warm_from_store(&self, limit: usize) -> usize {
        let Some(store) = self.store.as_ref() else {
            return 0;
        };
        let keys: Vec<u128> = store.keys_by_recency().into_iter().take(limit).collect();
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut warmed = 0;
                    for key in keys {
                        let fp = PatternFingerprint::from_halves((key >> 64) as u64, key as u64);
                        if self.solves.contains(fp) {
                            continue;
                        }
                        if let Some(entry) = self.load_solve_entry(key) {
                            if self.solves.get_or_build(fp, move || Ok(entry)).is_ok() {
                                warmed += 1;
                            }
                        }
                    }
                    warmed
                })
                .join()
                .unwrap_or(0)
        })
    }

    /// A preconditioner whose ILU applications go through this runtime's
    /// plan cache — hand it to [`rtpl_krylov::cg`]/`gmres`/`bicgstab`.
    pub fn preconditioner<'a>(&'a self, factors: &'a IluFactors) -> CachedIlu<'a> {
        CachedIlu {
            runtime: self,
            factors,
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RuntimeStats {
        let mut policy_runs = [0u64; 5];
        for (k, c) in self.policy_runs.iter().enumerate() {
            policy_runs[k] = c.load(Ordering::Relaxed);
        }
        RuntimeStats {
            solves: self.solves.stats(),
            loops: self.loops.stats(),
            linears: self.linears.stats(),
            batches: self.batches.load(Ordering::Relaxed),
            batch_jobs: self.batch_jobs.load(Ordering::Relaxed),
            pools_created: self.pools.created(),
            policy_runs,
            scratches_created: self.scratches_created.load(Ordering::Relaxed),
            peak_same_pattern: self.peak_same_pattern.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_misses: self.store_misses.load(Ordering::Relaxed),
            store_writes: self.store_writes.load(Ordering::Relaxed),
            // Open-time scan repairs (a truncated tail dropped on open)
            // surface through the same counter as per-record load
            // failures: both mean "persisted bytes could not be used".
            store_load_errors: self.store_load_errors.load(Ordering::Relaxed)
                + self.store.as_ref().map_or(0, |s| s.stats().scan_repairs),
            body_panics: self.body_panics.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            circuit_open: self.circuit_open.load(Ordering::Relaxed),
            pool_rebuilds: self.pools.rebuilds(),
            verified_plans: self.verified_plans.load(Ordering::Relaxed),
            verify_failures: self.verify_failures.load(Ordering::Relaxed),
            coalesce_phases_before: self.coalesce_phases_before.load(Ordering::Relaxed),
            coalesce_phases_after: self.coalesce_phases_after.load(Ordering::Relaxed),
            supernode_positions: self.supernode_positions.load(Ordering::Relaxed),
        }
    }
}

/// Maps a compiled-layout error into runtime terms.
pub(crate) fn map_compiled(e: rtpl_executor::compiled::CompiledError) -> crate::RuntimeError {
    use rtpl_executor::compiled::CompiledError;
    match e {
        CompiledError::ZeroScale { row } => {
            crate::RuntimeError::Sparse(rtpl_sparse::SparseError::ZeroPivot { row })
        }
        other => crate::RuntimeError::Sparse(rtpl_sparse::SparseError::InvalidStructure(format!(
            "compiled loop: {other}"
        ))),
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("cfg", &self.cfg)
            .field("cost", self.selector.cost_model())
            .field("stats", &self.stats())
            .finish()
    }
}

/// An ILU preconditioner application routed through a [`Runtime`]'s plan
/// cache: every Krylov iteration's two triangular sweeps are cache hits
/// after the first.
pub struct CachedIlu<'a> {
    runtime: &'a Runtime,
    factors: &'a IluFactors,
}

impl Precondition for CachedIlu<'_> {
    fn apply(&self, _pool: &WorkerPool, r: &[f64], z: &mut [f64], _work: &mut [f64]) {
        // The runtime leases its own pools (sized to its plans); the
        // solver's pool keeps doing the doall kernels. Applications enter
        // through the unified Job front door, like every other request.
        // PANIC: `Precondition::apply` has no error channel, and nothing
        // guarantees this `expect` — `Runtime::preconditioner` validates
        // nothing. Non-triangular structure, a zero on `U`'s diagonal, or
        // an open circuit all panic mid-iteration; to get the typed error
        // instead, submit one `Job::solve` over the factors first.
        self.runtime
            .submit(crate::Job::<crate::NoBody>::solve(self.factors, r, z))
            .expect("cached ILU application failed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Job, NoBody};
    use rtpl_executor::{LoopBody, ValueSource};
    use rtpl_sparse::gen::laplacian_5pt;
    use rtpl_sparse::ilu0;
    use rtpl_sparse::triangular::{solve_lower, solve_upper, Diag};

    fn test_cfg() -> RuntimeConfig {
        RuntimeConfig {
            nprocs: 2,
            calibrate: false,
            ..RuntimeConfig::default()
        }
    }

    fn reference(f: &IluFactors, b: &[f64]) -> Vec<f64> {
        let n = f.n();
        let mut y = vec![0.0; n];
        solve_lower(&f.l, b, Diag::Unit, &mut y).unwrap();
        let mut x = vec![0.0; n];
        solve_upper(&f.u, &y, Diag::Stored, &mut x).unwrap();
        x
    }

    #[test]
    fn solve_is_correct_and_cached() {
        let rt = Runtime::new(test_cfg());
        let f = ilu0(&laplacian_5pt(9, 8)).unwrap();
        let n = f.n();
        for round in 0..5 {
            let b: Vec<f64> = (0..n).map(|i| ((i + round) as f64 * 0.17).sin()).collect();
            let expect = reference(&f, &b);
            let mut x = vec![0.0; n];
            let out = rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
            assert_eq!(out.cached, round > 0);
            assert!(
                rtpl_sparse::dense::max_abs_diff(&x, &expect) < 1e-12,
                "round {round}"
            );
        }
        let s = rt.stats();
        assert_eq!(s.solves.builds, 1);
        assert_eq!(s.solves.hits, 4);
        assert_eq!(s.policy_runs.iter().sum::<u64>(), 5);
    }

    #[test]
    fn oversubscribed_calibrated_host_settles_on_sequential() {
        // nprocs strictly above the detected core count: the calibrated
        // selector's host clamp must retire every parallel arm, so each and
        // every run — including the very first exploration — is sequential.
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let rt = Runtime::new(RuntimeConfig {
            nprocs: cores * 2,
            calibrate: true,
            ..RuntimeConfig::default()
        });
        assert_eq!(rt.selector.host_procs(), Some(cores));
        let f = ilu0(&laplacian_5pt(9, 8)).unwrap();
        let n = f.n();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        for _ in 0..8 {
            let out = rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
            assert_eq!(out.policy, ExecutorKind::Sequential);
        }
        let s = rt.stats();
        assert_eq!(s.runs_for(ExecutorKind::Sequential), 8);
        // And it never paid for a worker pool.
        assert_eq!(s.pools_created, 0);
    }

    #[test]
    fn render_plaintext_lists_every_counter_once() {
        let rt = Runtime::new(test_cfg());
        let f = ilu0(&laplacian_5pt(6, 6)).unwrap();
        let b = vec![1.0; f.n()];
        let mut x = vec![0.0; f.n()];
        rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
        rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
        let text = rt.stats().render_plaintext();
        for needle in [
            "rtpl_solve_cache_hits 1",
            "rtpl_solve_cache_builds 1",
            "rtpl_loop_cache_hits 0",
            "rtpl_batches 0",
            "rtpl_body_panics 0",
            "rtpl_deadline_expired 0",
            "rtpl_circuit_open 0",
            "rtpl_pool_rebuilds 0",
            "rtpl_verify_failures 0",
            "rtpl_policy_runs_sequential",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // `name value` per line, every name unique.
        let names: Vec<&str> = text
            .lines()
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn coalescing_defaults_on_counts_and_stays_bit_exact() {
        let f = ilu0(&laplacian_5pt(9, 8)).unwrap();
        let n = f.n();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.19).sin()).collect();
        // Identical requests under a forced sequential policy, with and
        // without coalescing: same bits out, fewer phases in the stats.
        let seq = |factor: f64| {
            let rt = Runtime::new(RuntimeConfig {
                policy: Some(ExecutorKind::Sequential),
                coalesce_factor: factor,
                ..test_cfg()
            });
            let mut x = vec![0.0; n];
            rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
            (x, rt.stats())
        };
        let (x_on, s_on) = seq(1.0);
        let (x_off, s_off) = seq(0.0);
        assert_eq!(x_on, x_off, "coalescing must not change a single bit");
        assert!(
            s_on.coalesce_phases_after < s_on.coalesce_phases_before,
            "grain Tsynch/Tp must merge shallow mesh wavefronts ({s_on:?})"
        );
        assert_eq!(s_off.coalesce_phases_after, s_off.coalesce_phases_before);
        assert_eq!(
            s_on.coalesce_phases_before, s_off.coalesce_phases_before,
            "both runtimes saw the same wavefront structure"
        );
        // The rendered metrics carry the new counters.
        let text = s_on.render_plaintext();
        for needle in [
            "rtpl_coalesce_phases_before",
            "rtpl_coalesce_phases_after",
            "rtpl_supernode_positions",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn changed_grain_invalidates_the_stored_prior_context() {
        // A restart with a different coalescing factor must neither reuse
        // the stored artifact's schedule silently nor resume its prior as
        // if nothing changed: the artifact decodes (structure is valid),
        // but the prior context mismatch forces a fresh prediction. We
        // can't observe the recompute directly, so pin the observable
        // half: the solve stays correct and the store round-trip works
        // under both grains.
        let path = tmp_store("grain_context");
        let f = ilu0(&laplacian_5pt(8, 8)).unwrap();
        let n = f.n();
        let b = vec![1.0; n];
        {
            let rt = Runtime::new(store_cfg(&path));
            let mut x = vec![0.0; n];
            rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
            rt.store().unwrap().flush();
        }
        let rt = Runtime::new(RuntimeConfig {
            coalesce_factor: 0.0,
            ..store_cfg(&path)
        });
        let mut x = vec![0.0; n];
        rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
        assert!(rtpl_sparse::dense::max_abs_diff(&x, &reference(&f, &b)) < 1e-12);
        assert_eq!(rt.stats().store_hits, 1, "artifact itself still serves");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn refactorized_values_hit_the_cached_structure() {
        let rt = Runtime::new(test_cfg());
        let a = laplacian_5pt(7, 7);
        let f1 = ilu0(&a).unwrap();
        let n = f1.n();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        rt.submit(Job::<NoBody>::solve(&f1, &b, &mut x)).unwrap();
        // New numbers, same pattern: no new plan, correct new answer.
        let mut a2 = a.clone();
        for (k, v) in a2.data_mut().iter_mut().enumerate() {
            *v *= 1.0 + 0.02 * (k % 5) as f64;
        }
        let f2 = ilu0(&a2).unwrap();
        let out = rt.submit(Job::<NoBody>::solve(&f2, &b, &mut x)).unwrap();
        assert!(out.cached);
        assert_eq!(rt.stats().solves.builds, 1);
        assert!(rtpl_sparse::dense::max_abs_diff(&x, &reference(&f2, &b)) < 1e-12);
    }

    #[test]
    fn forced_policy_is_respected() {
        let rt = Runtime::new(RuntimeConfig {
            policy: Some(ExecutorKind::PreScheduledElided),
            ..test_cfg()
        });
        let f = ilu0(&laplacian_5pt(6, 6)).unwrap();
        let b = vec![1.0; f.n()];
        let mut x = vec![0.0; f.n()];
        for _ in 0..3 {
            let out = rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
            assert_eq!(out.policy, ExecutorKind::PreScheduledElided);
        }
        let s = rt.stats();
        assert_eq!(s.runs_for(ExecutorKind::PreScheduledElided), 3);
        assert_eq!(s.dominant_policy(), ExecutorKind::PreScheduledElided);
    }

    struct Count<'a>(&'a DepGraph);
    impl LoopBody for Count<'_> {
        fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
            1.0 + self
                .0
                .deps(i)
                .iter()
                .map(|&d| src.get(d as usize))
                .sum::<f64>()
        }
    }

    #[test]
    fn generic_run_matches_sequential_and_caches() {
        let rt = Runtime::new(test_cfg());
        let l = laplacian_5pt(8, 8).strict_lower();
        let g = DepGraph::from_lower_triangular(&l).unwrap();
        let spec = crate::LoopSpec::new(g.clone());
        let n = l.nrows();
        let mut expect = vec![0.0; n];
        rtpl_executor::sequential_body(n, &Count(&g), &mut expect);
        for round in 0..4 {
            let mut out = vec![0.0; n];
            let res = rt.submit(Job::looped(&spec, &Count(&g), &mut out)).unwrap();
            assert_eq!(out, expect);
            assert_eq!(res.cached, round > 0);
            assert_eq!(res.reports.0.total_iters() as usize, n);
            assert!(res.reports.1.is_none(), "a loop runs one sweep");
        }
        assert_eq!(rt.stats().loops.builds, 1);
    }

    #[test]
    fn cached_preconditioner_drives_cg_through_the_cache() {
        use rtpl_krylov::{cg, KrylovConfig, Preconditioner};
        let a = laplacian_5pt(14, 14);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).cos()).collect();
        let pool = WorkerPool::new(2);
        let cfg = KrylovConfig::default();
        let f = ilu0(&a).unwrap();

        // Reference: the classic in-crate ILU preconditioner.
        let m_ref =
            Preconditioner::ilu(&f, 2, ExecutorKind::SelfExecuting, Sorting::Global).unwrap();
        let mut x_ref = vec![0.0; n];
        let s_ref = cg(&pool, &a, &b, &mut x_ref, &m_ref, &cfg).unwrap();

        // Same solve, applications routed through the runtime cache.
        let rt = Runtime::new(RuntimeConfig {
            policy: Some(ExecutorKind::SelfExecuting),
            ..test_cfg()
        });
        let m = rt.preconditioner(&f);
        let mut x = vec![0.0; n];
        let s = cg(&pool, &a, &b, &mut x, &m, &cfg).unwrap();

        assert!(s.converged);
        assert_eq!(s.iterations, s_ref.iterations);
        assert!(rtpl_sparse::dense::max_abs_diff(&x, &x_ref) < 1e-12);
        let stats = rt.stats();
        assert_eq!(stats.solves.builds, 1, "one plan for the whole solve");
        // CG applies M⁻¹ once up front and once per iteration short of the
        // last; only the very first application misses.
        assert!(
            stats.solves.hits + 1 >= s.iterations as u64,
            "every application after the first must hit ({} hits, {} iterations)",
            stats.solves.hits,
            s.iterations
        );
    }

    #[test]
    fn sequential_requests_reuse_one_scratch() {
        let rt = Runtime::new(test_cfg());
        let f = ilu0(&laplacian_5pt(7, 7)).unwrap();
        let b = vec![1.0; f.n()];
        let mut x = vec![0.0; f.n()];
        for _ in 0..6 {
            let out = rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
            assert_eq!(out.concurrent, 1, "no overlap in a single-threaded loop");
        }
        let s = rt.stats();
        assert_eq!(s.scratches_created, 1, "free list reuses the one scratch");
        assert_eq!(s.peak_same_pattern, 1);
    }

    #[test]
    fn startup_calibration_yields_finite_positive_costs() {
        // The satellite requirement: the runtime wires the (previously
        // dead) host-calibration path and the resulting model is sane.
        let rt = Runtime::new(RuntimeConfig {
            nprocs: 2,
            shards: 2,
            capacity: 8,
            sorting: Sorting::Global,
            calibrate: true,
            policy: None,
            store_path: None,
            ..RuntimeConfig::default()
        });
        let c = rt.cost_model();
        for (name, v) in [
            ("Tp", c.tp),
            ("Tsynch", c.tsynch),
            ("Tinc", c.tinc),
            ("Tcheck", c.tcheck),
        ] {
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
        // Calibrated nanoseconds must still satisfy the paper's ordering:
        // a barrier costs more than a flop.
        assert!(c.r_synch() > 1.0);
    }

    fn tmp_store(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rtpl_runtime_unit_{}_{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn store_cfg(path: &std::path::Path) -> RuntimeConfig {
        RuntimeConfig {
            store_path: Some(path.to_path_buf()),
            ..test_cfg()
        }
    }

    #[test]
    fn restart_resumes_plans_and_learning_from_the_store() {
        let path = tmp_store("restart");
        let f = ilu0(&laplacian_5pt(9, 8)).unwrap();
        let n = f.n();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
        let expect = reference(&f, &b);

        // First process lifetime: cold inspection, learning, spill.
        let learned_counts = {
            let rt = Runtime::new(store_cfg(&path));
            let mut x = vec![0.0; n];
            for _ in 0..6 {
                rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
            }
            let s = rt.stats();
            assert_eq!(s.store_hits, 0);
            assert_eq!(s.store_misses, 1, "one consult on the one cold build");
            assert!(s.store_writes >= 1);
            assert_eq!(s.store_load_errors, 0);
            assert_eq!(rt.persist_learned(), 1);
            let key = Runtime::solve_key(&f);
            assert!(rt.store_contains(key));
            s.policy_runs
        };

        // Second process lifetime: the cache miss is served from disk —
        // no inspector run — and the answer is bit-exact.
        let rt = Runtime::new(store_cfg(&path));
        let mut x = vec![0.0; n];
        let out = rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
        assert!(!out.cached, "memory cache starts empty");
        // Tolerance, not equality: the resumed incumbent may be a parallel
        // discipline whose summation order differs from the sequential
        // reference by an ulp. Per-policy bit-exactness of store-loaded vs
        // freshly inspected plans is pinned in `tests/plan_store.rs`.
        assert!(rtpl_sparse::dense::max_abs_diff(&x, &expect) < 1e-12);
        let s = rt.stats();
        assert_eq!(s.store_hits, 1);
        assert_eq!(s.store_misses, 0);
        assert_eq!(s.store_load_errors, 0);
        // Learning resumed: the first post-restart run uses an arm the
        // first lifetime actually measured (the resumed incumbent), never
        // an arm it retired. (Resume *semantics* — exploit-not-explore,
        // host-honesty drops — are pinned down in the selector tests.)
        assert!(
            learned_counts[out.policy as usize] > 0,
            "post-restart policy {:?} was never measured before the restart",
            out.policy
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn warm_from_store_preloads_the_memory_cache() {
        let path = tmp_store("warm");
        let f1 = ilu0(&laplacian_5pt(7, 7)).unwrap();
        let f2 = ilu0(&laplacian_5pt(6, 9)).unwrap();
        {
            let rt = Runtime::new(store_cfg(&path));
            for f in [&f1, &f2] {
                let b = vec![1.0; f.n()];
                let mut x = vec![0.0; f.n()];
                rt.submit(Job::<NoBody>::solve(f, &b, &mut x)).unwrap();
            }
            rt.store().unwrap().flush();
        }
        let rt = Runtime::new(store_cfg(&path));
        assert_eq!(rt.warm_from_store(16), 2);
        // Both patterns are now memory hits: no build, no store consult.
        for f in [&f1, &f2] {
            let b = vec![1.0; f.n()];
            let mut x = vec![0.0; f.n()];
            let out = rt.submit(Job::<NoBody>::solve(f, &b, &mut x)).unwrap();
            assert!(out.cached, "warmed pattern must hit the memory cache");
            assert!(rtpl_sparse::dense::max_abs_diff(&x, &reference(f, &b)) < 1e-12);
        }
        let s = rt.stats();
        assert_eq!(s.solves.builds, 2, "warming installs, solving reuses");
        assert_eq!(s.store_hits, 2);
        // Warming twice is idempotent: resident patterns are skipped.
        assert_eq!(rt.warm_from_store(16), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn nprocs_mismatch_rejects_the_stored_artifact() {
        let path = tmp_store("nprocs");
        let f = ilu0(&laplacian_5pt(8, 7)).unwrap();
        let b = vec![1.0; f.n()];
        {
            let rt = Runtime::new(store_cfg(&path));
            let mut x = vec![0.0; f.n()];
            rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
            rt.store().unwrap().flush();
        }
        // Same store, different processor count: the persisted layout is
        // per-processor and cannot serve — typed rejection, cold rebuild,
        // correct answer.
        let rt = Runtime::new(RuntimeConfig {
            nprocs: 3,
            ..store_cfg(&path)
        });
        let mut x = vec![0.0; f.n()];
        rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
        assert!(rtpl_sparse::dense::max_abs_diff(&x, &reference(&f, &b)) < 1e-12);
        let s = rt.stats();
        assert_eq!(s.store_hits, 0);
        assert_eq!(s.store_load_errors, 1);
        assert_eq!(s.solves.builds, 1, "fallback paid the cold inspection");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn evicted_entries_resurrect_from_disk_without_reinspection() {
        let path = tmp_store("evict");
        let rt = Runtime::new(RuntimeConfig {
            shards: 1,
            capacity: 2,
            ..store_cfg(&path)
        });
        let meshes = [(4usize, 4usize), (4, 5), (4, 6)];
        for &(mx, my) in &meshes {
            let f = ilu0(&laplacian_5pt(mx, my)).unwrap();
            let b = vec![1.0; f.n()];
            let mut x = vec![0.0; f.n()];
            rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
        }
        rt.store().unwrap().flush();
        assert_eq!(rt.stats().solves.evictions, 1, "capacity 2, three plans");
        // The evicted first pattern comes back from the store's spill of
        // its own cold build — within one process lifetime.
        let f = ilu0(&laplacian_5pt(4, 4)).unwrap();
        let b = vec![1.0; f.n()];
        let mut x = vec![0.0; f.n()];
        rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
        assert!(rtpl_sparse::dense::max_abs_diff(&x, &reference(&f, &b)) < 1e-12);
        let s = rt.stats();
        assert_eq!(s.store_hits, 1, "resurrected from disk, not re-inspected");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unopenable_store_degrades_to_storeless_service() {
        let path = tmp_store("bad_magic");
        std::fs::write(&path, b"definitely not a store file").unwrap();
        let rt = Runtime::new(store_cfg(&path));
        assert!(rt.store().is_none());
        let f = ilu0(&laplacian_5pt(6, 6)).unwrap();
        let b = vec![1.0; f.n()];
        let mut x = vec![0.0; f.n()];
        rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
        assert!(rtpl_sparse::dense::max_abs_diff(&x, &reference(&f, &b)) < 1e-12);
        let s = rt.stats();
        assert_eq!(s.store_load_errors, 1, "the failed open leaves its trace");
        assert_eq!(s.store_hits + s.store_misses + s.store_writes, 0);
        let _ = std::fs::remove_file(&path);
    }

    /// A body that panics on every iteration — the breaker/containment
    /// tests' fault generator.
    struct AlwaysPanics;
    impl LoopBody for AlwaysPanics {
        fn eval<S: ValueSource>(&self, _i: usize, _src: &S) -> f64 {
            panic!("injected body failure")
        }
    }

    #[test]
    fn expired_deadline_is_typed_and_counted() {
        let rt = Runtime::new(test_cfg());
        let f = ilu0(&laplacian_5pt(6, 6)).unwrap();
        let b = vec![1.0; f.n()];
        let mut x = vec![0.0; f.n()];
        let job = crate::Job::<crate::NoBody>::solve(&f, &b, &mut x)
            .with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(
            rt.submit(job).unwrap_err(),
            crate::RuntimeError::DeadlineExceeded
        );
        assert_eq!(rt.stats().deadline_expired, 1);
        // The expiry was the client's fault: the same pattern still serves.
        let out = rt
            .submit(crate::Job::<crate::NoBody>::solve(&f, &b, &mut x))
            .unwrap();
        assert!(out.reports.1.is_some(), "a solve reports both sweeps");
        assert!(rtpl_sparse::dense::max_abs_diff(&x, &reference(&f, &b)) < 1e-12);
    }

    #[test]
    fn repeated_body_panics_trip_the_pattern_breaker() {
        let rt = Runtime::new(RuntimeConfig {
            policy: Some(ExecutorKind::SelfExecuting),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(20),
            ..test_cfg()
        });
        let l = laplacian_5pt(6, 6).strict_lower();
        let spec = crate::LoopSpec::new(DepGraph::from_lower_triangular(&l).unwrap());
        let n = l.nrows();
        let mut out = vec![0.0; n];
        for _ in 0..3 {
            let e = rt
                .submit(crate::Job::looped(&spec, &AlwaysPanics, &mut out))
                .unwrap_err();
            assert!(matches!(e, crate::RuntimeError::BodyPanicked { .. }), "{e}");
        }
        // Open: the next request is rejected without running anything.
        let e = rt
            .submit(crate::Job::looped(&spec, &AlwaysPanics, &mut out))
            .unwrap_err();
        assert_eq!(e, crate::RuntimeError::CircuitOpen);
        let s = rt.stats();
        assert_eq!(s.body_panics, 3);
        assert_eq!(s.circuit_open, 1);
        // After the cooldown a probe is admitted; a healthy body closes
        // the circuit and the pattern serves normally again.
        std::thread::sleep(Duration::from_millis(25));
        let g = DepGraph::from_lower_triangular(&l).unwrap();
        rt.submit(crate::Job::looped(&spec, &Count(&g), &mut out))
            .unwrap();
        rt.submit(crate::Job::looped(&spec, &Count(&g), &mut out))
            .unwrap();
        let mut expect = vec![0.0; n];
        rtpl_executor::sequential_body(n, &Count(&g), &mut expect);
        assert_eq!(out, expect);
    }

    #[test]
    fn open_breaker_rejects_whole_batch_groups() {
        let rt = Runtime::new(RuntimeConfig {
            policy: Some(ExecutorKind::SelfExecuting),
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(60),
            ..test_cfg()
        });
        let l = laplacian_5pt(5, 5).strict_lower();
        let spec = crate::LoopSpec::new(DepGraph::from_lower_triangular(&l).unwrap());
        let n = l.nrows();
        let (mut o1, mut o2) = (vec![0.0; n], vec![0.0; n]);
        let first = rt.submit_batch(vec![
            crate::Job::looped(&spec, &AlwaysPanics, &mut o1),
            crate::Job::looped(&spec, &AlwaysPanics, &mut o2),
        ]);
        assert_eq!(first.ok_count(), 0);
        let second = rt.submit_batch(vec![
            crate::Job::looped(&spec, &AlwaysPanics, &mut o1),
            crate::Job::looped(&spec, &AlwaysPanics, &mut o2),
        ]);
        for j in &second.jobs {
            assert_eq!(*j.as_ref().unwrap_err(), crate::RuntimeError::CircuitOpen);
        }
        assert_eq!(rt.stats().circuit_open, 1, "rejection is per group");
    }

    #[test]
    fn lru_bound_evicts_but_keeps_serving() {
        let rt = Runtime::new(RuntimeConfig {
            shards: 1,
            capacity: 2,
            ..test_cfg()
        });
        let meshes = [(4usize, 4usize), (4, 5), (4, 6), (4, 7)];
        for &(mx, my) in &meshes {
            let f = ilu0(&laplacian_5pt(mx, my)).unwrap();
            let b = vec![1.0; f.n()];
            let mut x = vec![0.0; f.n()];
            let out = rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap();
            assert!(!out.cached);
            assert!(rtpl_sparse::dense::max_abs_diff(&x, &reference(&f, &b)) < 1e-12);
        }
        let s = rt.stats();
        assert_eq!(s.solves.builds, 4);
        assert_eq!(s.solves.evictions, 2);
    }
}
