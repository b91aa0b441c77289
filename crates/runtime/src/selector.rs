//! Adaptive executor-policy selection.
//!
//! Which synchronization discipline wins is exactly what the paper's §4/§5
//! cost model predicts from the schedule, the dependence structure, and
//! the per-operation costs (`Tp`, `Tsynch`, `Tinc`, `Tcheck`). The
//! [`PolicySelector`] runs that model — the `rtpl-sim` discrete-event
//! simulation over the *actual* planned schedule, with a [`CostModel`]
//! calibrated on the host at startup — to produce a **prior** time per
//! policy. Each cached pattern then carries an [`AdaptiveState`] that
//! starts from the prior and folds in the measured wall times of real runs
//! ([`ExecReport`]s): the first run of a pattern may explore a
//! near-best-predicted policy, the steady state exploits the fastest
//! *measured* one. Everything is deterministic — exploration is by
//! bookkeeping, not randomness.
//!
//! The candidate arms are [`ExecutorKind::ALL`], and every per-arm array
//! is indexed by the kind's tag (`kind as usize`). `Sequential` is a
//! genuine candidate: for small or serial patterns the model (correctly)
//! predicts that forking a team cannot pay for itself.
//!
//! [`ExecReport`]: rtpl_executor::ExecReport

use rtpl_executor::{ExecutorKind, PlannedLoop};
use rtpl_sim::{self as sim, CostModel};

/// Explore any unmeasured arm whose predicted time is within this factor
/// of the best prediction; arms predicted far off the pace are never paid
/// for. `1.0` would trust the model blindly; larger values buy robustness
/// against model error with a bounded number of extra first runs.
const EXPLORE_FACTOR: f64 = 1.5;

/// Weight of a new observation against the running estimate (exponential
/// moving average, so drifting system load is tracked).
const EWMA_ALPHA: f64 = 0.3;

/// Every this many runs on a pattern, the selector spends at most one run
/// re-examining a non-incumbent arm whose confidence bound warrants it —
/// bounding re-exploration to ≤ 1 run in 64, and (with
/// [`CHALLENGE_CAP`]) its worst-case time cost to [`CHALLENGE_CAP`]/64 of
/// steady-state throughput.
const REEXPLORE_EVERY: u64 = 64;

/// An arm whose measured mean exceeds this multiple of the incumbent's is
/// never re-explored: a policy dethroned by *transient load* looks a few
/// times slower than the new incumbent and earns periodic challenges; a
/// policy that is catastrophically wrong for the pattern (e.g. doacross
/// at 100× on an oversubscribed host) stays retired no matter how stale
/// its estimate gets.
const CHALLENGE_CAP: f64 = 16.0;

/// Width of the confidence interval at full staleness: an arm unmeasured
/// for [`STALE_WINDOW`] runs has an optimistic lower bound of
/// `measured · (1 − UCB_WIDTH)`. At `1.0` a fully stale arm's bound
/// reaches zero, so it always qualifies for re-exploration; a freshly
/// measured arm's bound is its EWMA and it never does.
const UCB_WIDTH: f64 = 1.0;

/// Runs without an observation after which an arm's estimate counts as
/// fully stale (its confidence interval is at maximum width). A fixed
/// window — not a fraction of total history — so a dethroned arm's
/// chances do not decay as the pattern ages.
const STALE_WINDOW: u64 = 4 * REEXPLORE_EVERY;

/// Predicts per-policy execution times for planned loops under a cost
/// model.
#[derive(Clone, Debug)]
pub struct PolicySelector {
    cost: CostModel,
    /// Detected host parallelism, when known. The simulator's parallel-arm
    /// predictions assume every virtual processor runs simultaneously; on a
    /// host with fewer cores than a plan's processor count that assumption
    /// is not merely optimistic but inverted — spin-synchronizing executors
    /// burn the timeslice of the thread holding the value they wait for.
    /// Knowing the real core count lets `predict` retire those arms
    /// outright instead of letting measurement discover the cliff one slow
    /// run at a time.
    host_procs: Option<usize>,
}

impl PolicySelector {
    /// A selector predicting with `cost` (nanoseconds per operation when
    /// host-calibrated; any consistent unit otherwise). No host-core clamp
    /// is applied — predictions are the pure model.
    pub fn new(cost: CostModel) -> Self {
        PolicySelector {
            cost,
            host_procs: None,
        }
    }

    /// A selector that additionally knows the host's available core count
    /// (`None` disables the clamp, like [`PolicySelector::new`]). When a
    /// plan schedules `nprocs ≥ host_procs` virtual processors, every
    /// parallel arm is predicted `+∞` — oversubscribed spin-wait executors
    /// are dishonest bets, so the sequential arm is hard-preferred and the
    /// adaptive state never explores the cliff.
    pub fn with_host_procs(cost: CostModel, host_procs: Option<usize>) -> Self {
        PolicySelector { cost, host_procs }
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The detected host core count the clamp uses, if any.
    pub fn host_procs(&self) -> Option<usize> {
        self.host_procs
    }

    /// Predicted time of every arm for one planned loop, indexed by tag.
    /// Weights are the row-substitution flop counts (1 + deps),
    /// matching how every table harness in the workspace weighs indices.
    /// `Doacross` is `+∞` for non-forward graphs (it cannot run there).
    pub fn predict(&self, plan: &PlannedLoop) -> [f64; 5] {
        let g = plan.graph();
        let s = plan.schedule();
        let weights: Vec<f64> = (0..g.n()).map(|i| 1.0 + g.deps(i).len() as f64).collect();
        let w = Some(&weights[..]);
        let mut out = [f64::INFINITY; 5];
        out[ExecutorKind::Sequential as usize] = sim::sim_sequential(g.n(), w, &self.cost);
        // Host honesty: with the schedule's processor count at or above the
        // cores actually present, the parallel simulations model a machine
        // that does not exist — their results would be clamped to +∞
        // anyway, so don't run them at all (this sits on every
        // plan-acquisition path, cold inspection and store decode alike).
        // Hard-prefer the sequential arm.
        if let Some(cores) = self.host_procs {
            if s.nprocs() >= cores {
                return out;
            }
        }
        out[ExecutorKind::SelfExecuting as usize] =
            sim::sim_self_executing(s, g, w, &self.cost).time;
        out[ExecutorKind::PreScheduled as usize] = sim::sim_pre_scheduled(s, w, &self.cost).time;
        out[ExecutorKind::PreScheduledElided as usize] =
            sim::sim_pre_scheduled_elided(s, plan.barrier_plan(), w, &self.cost).time;
        if g.is_forward() {
            out[ExecutorKind::Doacross as usize] =
                sim::sim_doacross(g, s.nprocs(), w, &self.cost).time;
        }
        out
    }
}

/// Per-pattern explore/exploit state: model prior + measured wall times,
/// with UCB-style confidence bounds driving periodic re-exploration.
#[derive(Clone, Debug)]
pub struct AdaptiveState {
    prior: [f64; 5],
    measured: [f64; 5],
    count: [u64; 5],
    /// Total observations across all arms.
    total: u64,
    /// Value of `total` when each arm was last observed (its estimate's
    /// age drives the confidence width).
    last_obs: [u64; 5],
    /// Value of `total` at which the last re-exploration challenge was
    /// issued: each checkpoint hands out **one** challenger run even when
    /// many concurrent requests call [`AdaptiveState::choose`] between
    /// two observations.
    challenged_at: u64,
}

impl AdaptiveState {
    /// Starts from a model prediction per arm (`+∞` disables an arm).
    pub fn new(prior: [f64; 5]) -> Self {
        assert!(
            prior.iter().any(|p| p.is_finite()),
            "at least one arm must be feasible"
        );
        AdaptiveState {
            prior,
            measured: [0.0; 5],
            count: [0; 5],
            total: 0,
            last_obs: [0; 5],
            challenged_at: 0,
        }
    }

    /// Optimistic lower confidence bound of arm `k`: the EWMA estimate
    /// shrunk by a width that grows with how *stale* the estimate is
    /// (runs elapsed since the arm was last observed, saturating at
    /// [`STALE_WINDOW`]). UCB in spirit — uncertainty earns optimism — but driven by
    /// staleness rather than visit counts, because the enemy here is a
    /// measurement taken under load that has since passed, not an
    /// under-sampled mean.
    fn lower_bound(&self, k: usize) -> f64 {
        let staleness =
            ((self.total - self.last_obs[k]) as f64 / STALE_WINDOW as f64).clamp(0.0, 1.0);
        self.measured[k] * (1.0 - UCB_WIDTH * staleness.sqrt()).max(0.0)
    }

    /// The measured-best arm (the steady-state incumbent).
    fn incumbent(&self) -> Option<usize> {
        (0..ExecutorKind::ALL.len())
            .filter(|&k| self.count[k] > 0)
            .min_by(|&a, &b| self.measured[a].total_cmp(&self.measured[b]))
    }

    /// The policy to use for the next run.
    ///
    /// Exploration phase: any arm never yet measured whose prior is within
    /// `EXPLORE_FACTOR` of the best prior gets one run (in prior order,
    /// best first). Steady state: the arm with the smallest **measured**
    /// mean — except that every `REEXPLORE_EVERY`-th run re-examines the
    /// non-incumbent arm with the lowest confidence bound (`lower_bound`),
    /// if that bound undercuts the incumbent's estimate **and** the arm's
    /// measured mean is within `CHALLENGE_CAP`× of the incumbent's (a
    /// catastrophically wrong policy is never re-paid, however stale its
    /// estimate). A policy dethroned by transient load goes stale, its
    /// bound decays toward zero, and it gets periodic chances to win back
    /// once the load passes — exactly one challenger run per checkpoint,
    /// even when concurrent requests race between two observations
    /// (`challenged_at` latches the checkpoint). Priors and measurements
    /// are never compared against each other — priors may be in abstract
    /// flop units while measurements are wall nanoseconds — so an arm
    /// pruned by the explore window is genuinely never paid for.
    /// Everything is deterministic: bookkeeping, not randomness.
    pub fn choose(&mut self) -> ExecutorKind {
        let best_prior = self.prior.iter().cloned().fold(f64::INFINITY, f64::min);
        let explore = (0..ExecutorKind::ALL.len())
            .filter(|&k| self.count[k] == 0 && self.prior[k] <= best_prior * EXPLORE_FACTOR)
            .min_by(|&a, &b| self.prior[a].total_cmp(&self.prior[b]));
        if let Some(k) = explore {
            return ExecutorKind::ALL[k];
        }
        // The exploration phase always measures at least one arm first.
        let best = self
            .incumbent()
            .expect("invariant: explore phase measured an arm");
        if self.total >= REEXPLORE_EVERY
            && self.total.is_multiple_of(REEXPLORE_EVERY)
            && self.challenged_at != self.total
        {
            let challenger = (0..ExecutorKind::ALL.len())
                .filter(|&k| {
                    k != best
                        && self.count[k] > 0
                        && self.measured[k] <= CHALLENGE_CAP * self.measured[best]
                })
                .min_by(|&a, &b| self.lower_bound(a).total_cmp(&self.lower_bound(b)));
            if let Some(k) = challenger {
                if self.lower_bound(k) < self.measured[best] {
                    self.challenged_at = self.total;
                    return ExecutorKind::ALL[k];
                }
            }
        }
        ExecutorKind::ALL[best]
    }

    /// Folds one measured wall time (nanoseconds) into the arm's estimate.
    pub fn observe(&mut self, kind: ExecutorKind, wall_ns: f64) {
        let k = kind as usize;
        if self.count[k] == 0 {
            self.measured[k] = wall_ns;
        } else {
            self.measured[k] = (1.0 - EWMA_ALPHA) * self.measured[k] + EWMA_ALPHA * wall_ns;
        }
        self.count[k] += 1;
        self.total += 1;
        self.last_obs[k] = self.total;
    }

    /// Runs observed per arm, indexed by tag.
    pub fn counts(&self) -> [u64; 5] {
        self.count
    }

    /// The model prior this state was built from, indexed by tag.
    pub fn prior(&self) -> [f64; 5] {
        self.prior
    }

    /// The measured learning — per-arm EWMA estimates and observation
    /// counts — as plain arrays, for persistence. The prior is *not* part
    /// of the snapshot: it is a function of the plan and the host, and a
    /// restarted runtime recomputes it fresh (see [`AdaptiveState::resume`]).
    pub fn snapshot(&self) -> ([f64; 5], [u64; 5]) {
        (self.measured, self.count)
    }

    /// Rebuilds adaptive state from a freshly computed prior plus a
    /// persisted [`snapshot`](AdaptiveState::snapshot). Measurements for
    /// arms the *current* prior retires (`+∞` — e.g. the host-honesty
    /// clamp on a machine with fewer cores than the one that learned them)
    /// are discarded: a wall time measured on different hardware is not
    /// evidence here, and keeping it would let a retired arm win
    /// `choose()` through the measured path the prior can no longer guard.
    /// Surviving estimates enter at full staleness-freshness (`last_obs =
    /// total`), so the resumed state exploits immediately and re-explores
    /// on the usual schedule.
    pub fn resume(prior: [f64; 5], mut measured: [f64; 5], mut count: [u64; 5]) -> Self {
        assert!(
            prior.iter().any(|p| p.is_finite()),
            "at least one arm must be feasible"
        );
        for k in 0..ExecutorKind::ALL.len() {
            if prior[k].is_infinite() {
                measured[k] = 0.0;
                count[k] = 0;
            }
        }
        let total: u64 = count.iter().sum();
        let mut last_obs = [0u64; 5];
        for k in 0..ExecutorKind::ALL.len() {
            if count[k] > 0 {
                last_obs[k] = total;
            }
        }
        AdaptiveState {
            prior,
            measured,
            count,
            total,
            last_obs,
            challenged_at: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpl_inspector::{DepGraph, Schedule, Wavefronts};
    use rtpl_sparse::gen::laplacian_5pt;

    fn mesh_plan(nx: usize, ny: usize, p: usize) -> PlannedLoop {
        let l = laplacian_5pt(nx, ny).strict_lower();
        let g = DepGraph::from_lower_triangular(&l).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        PlannedLoop::new(g, Schedule::global(&wf, p).unwrap()).unwrap()
    }

    #[test]
    fn predictions_are_finite_positive_and_ordered_sanely() {
        let sel = PolicySelector::new(CostModel::multimax());
        let plan = mesh_plan(20, 20, 4);
        let pred = sel.predict(&plan);
        for (k, &t) in pred.iter().enumerate() {
            assert!(t.is_finite() && t > 0.0, "{:?}: {t}", ExecutorKind::ALL[k]);
        }
        // Barrier elision can only help the barrier discipline.
        assert!(
            pred[ExecutorKind::PreScheduledElided as usize]
                <= pred[ExecutorKind::PreScheduled as usize]
        );
        // On a big wavefront-rich mesh under Multimax costs, the paper's
        // recommended self-executing discipline beats plain barriers.
        assert!(
            pred[ExecutorKind::SelfExecuting as usize] < pred[ExecutorKind::PreScheduled as usize]
        );
    }

    #[test]
    fn host_clamp_retires_parallel_arms_when_oversubscribed() {
        let cost = CostModel::multimax();
        // Plan wants 4 virtual processors; host has only 2 cores.
        let plan = mesh_plan(20, 20, 4);
        let clamped = PolicySelector::with_host_procs(cost, Some(2)).predict(&plan);
        let seq = ExecutorKind::Sequential as usize;
        for (i, &t) in clamped.iter().enumerate() {
            if i == seq {
                assert!(t.is_finite() && t > 0.0);
            } else {
                assert!(
                    t.is_infinite(),
                    "{:?} must be retired",
                    ExecutorKind::ALL[i]
                );
            }
        }
        // The clamped prior still satisfies AdaptiveState's invariant and
        // deterministically selects the sequential arm.
        let mut st = AdaptiveState::new(clamped);
        assert_eq!(st.choose(), ExecutorKind::Sequential);
        // Plenty of cores: predictions match the unclamped model exactly.
        let free = PolicySelector::with_host_procs(cost, Some(16)).predict(&plan);
        assert_eq!(free, PolicySelector::new(cost).predict(&plan));
        // `None` disables the clamp too.
        assert_eq!(
            PolicySelector::with_host_procs(cost, None).predict(&plan),
            PolicySelector::new(cost).predict(&plan)
        );
    }

    #[test]
    fn first_choice_is_best_prior_then_measurements_take_over() {
        let mut st = AdaptiveState::new([100.0, 40.0, 90.0, 80.0, 50.0]);
        // Exploration: best prior first (SelfExecuting, index 1)...
        assert_eq!(st.choose(), ExecutorKind::SelfExecuting);
        st.observe(ExecutorKind::SelfExecuting, 55.0);
        // ...then the remaining unmeasured near-best arm (Doacross, 50 ≤ 1.5·40).
        assert_eq!(st.choose(), ExecutorKind::Doacross);
        st.observe(ExecutorKind::Doacross, 70.0);
        // Steady state: measured SelfExecuting (55) beats measured
        // Doacross (70); unmeasured arms no longer compete.
        assert_eq!(st.choose(), ExecutorKind::SelfExecuting);
        // A drifting system can flip the choice.
        for _ in 0..20 {
            st.observe(ExecutorKind::SelfExecuting, 200.0);
        }
        assert_eq!(st.choose(), ExecutorKind::Doacross);
    }

    #[test]
    fn infinite_prior_disables_an_arm() {
        let mut st = AdaptiveState::new([10.0, f64::INFINITY, f64::INFINITY, f64::INFINITY, 11.0]);
        assert_eq!(st.choose(), ExecutorKind::Sequential);
        let counts = st.counts();
        assert_eq!(counts.iter().sum::<u64>(), 0);
    }

    #[test]
    fn far_off_priors_are_never_explored() {
        let mut st = AdaptiveState::new([1000.0, 10.0, 1000.0, 1000.0, 1000.0]);
        assert_eq!(st.choose(), ExecutorKind::SelfExecuting);
        st.observe(ExecutorKind::SelfExecuting, 12.0);
        // No other arm is within the explore window: exploit immediately.
        assert_eq!(st.choose(), ExecutorKind::SelfExecuting);
    }

    /// Drives the selector closed-loop (choose → observe) with a fixed
    /// per-arm cost model. Returns how often each arm ran.
    fn drive(st: &mut AdaptiveState, steps: usize, cost: impl Fn(ExecutorKind) -> f64) -> [u64; 5] {
        let mut runs = [0u64; 5];
        for _ in 0..steps {
            let k = st.choose();
            runs[k as usize] += 1;
            st.observe(k, cost(k));
        }
        runs
    }

    #[test]
    fn periodic_reexploration_revives_a_dethroned_arm() {
        // Two feasible arms; Sequential is genuinely the faster one.
        let mut st = AdaptiveState::new([10.0, 12.0, f64::INFINITY, f64::INFINITY, f64::INFINITY]);
        assert_eq!(st.choose(), ExecutorKind::Sequential);
        st.observe(ExecutorKind::Sequential, 50.0);
        assert_eq!(st.choose(), ExecutorKind::SelfExecuting);
        st.observe(ExecutorKind::SelfExecuting, 60.0);
        assert_eq!(st.choose(), ExecutorKind::Sequential, "steady state");
        // Transient load: Sequential measures terribly and is dethroned.
        for _ in 0..10 {
            st.observe(ExecutorKind::Sequential, 500.0);
        }
        assert_eq!(st.choose(), ExecutorKind::SelfExecuting, "dethroned");
        // The load passes. Without re-exploration the selector would run
        // SelfExecuting forever — Sequential's stale 500 ns estimate never
        // gets another sample. The periodic UCB challenge fixes that: the
        // stale arm's confidence bound decays, it earns one run per
        // checkpoint, its EWMA folds in healthy samples, and it wins back.
        let runs = drive(&mut st, 2000, |k| {
            if k == ExecutorKind::Sequential {
                50.0
            } else {
                60.0
            }
        });
        assert!(
            runs[ExecutorKind::Sequential as usize] >= 5,
            "stale arm was never re-explored: {runs:?}"
        );
        assert_eq!(
            st.choose(),
            ExecutorKind::Sequential,
            "dethroned arm must win back once its fresh samples dominate"
        );
        // Re-exploration is bounded: once Sequential is incumbent again,
        // SelfExecuting only ever runs at checkpoints.
        let tail = drive(&mut st, 640, |k| {
            if k == ExecutorKind::Sequential {
                50.0
            } else {
                60.0
            }
        });
        assert!(
            tail[ExecutorKind::SelfExecuting as usize] <= 640 / REEXPLORE_EVERY,
            "re-exploration must stay periodic: {tail:?}"
        );
    }

    #[test]
    fn fresh_arms_are_not_reexplored_at_checkpoints() {
        let mut st = AdaptiveState::new([10.0, 11.0, f64::INFINITY, f64::INFINITY, f64::INFINITY]);
        st.observe(ExecutorKind::Sequential, 50.0);
        st.observe(ExecutorKind::SelfExecuting, 60.0);
        // Keep *both* estimates fresh by hand while walking exactly onto a
        // checkpoint: the challenger's bound is its (worse) EWMA, so the
        // incumbent keeps the slot.
        while !(st.total + 2).is_multiple_of(REEXPLORE_EVERY) {
            st.observe(ExecutorKind::Sequential, 50.0);
        }
        st.observe(ExecutorKind::SelfExecuting, 60.0);
        st.observe(ExecutorKind::Sequential, 50.0);
        assert_eq!(st.total % REEXPLORE_EVERY, 0);
        assert_eq!(
            st.choose(),
            ExecutorKind::Sequential,
            "a fresh, slower arm earns no optimism"
        );
    }

    #[test]
    fn checkpoint_issues_exactly_one_challenge() {
        // Walk onto a checkpoint with a stale, dethroned arm…
        let mut st = AdaptiveState::new([10.0, 12.0, f64::INFINITY, f64::INFINITY, f64::INFINITY]);
        st.observe(ExecutorKind::Sequential, 50.0);
        st.observe(ExecutorKind::SelfExecuting, 60.0);
        for _ in 0..10 {
            st.observe(ExecutorKind::Sequential, 500.0);
        }
        // Pad with incumbent observations until a checkpoint at which the
        // dethroned arm is stale enough for its bound to undercut.
        while st.total < STALE_WINDOW {
            st.observe(ExecutorKind::SelfExecuting, 60.0);
        }
        assert!(st.total.is_multiple_of(REEXPLORE_EVERY));
        // …then model concurrent requests: several choose() calls land
        // between two observations. Only the first gets the challenger;
        // the burst runs the incumbent.
        assert_eq!(st.choose(), ExecutorKind::Sequential, "one challenge");
        assert_eq!(st.choose(), ExecutorKind::SelfExecuting);
        assert_eq!(st.choose(), ExecutorKind::SelfExecuting);
    }

    #[test]
    fn catastrophically_slow_arms_are_never_rechallenged() {
        // SelfExecuting measures 100× worse than the incumbent — far past
        // CHALLENGE_CAP — so no amount of staleness re-buys it.
        let mut st = AdaptiveState::new([10.0, 12.0, f64::INFINITY, f64::INFINITY, f64::INFINITY]);
        st.observe(ExecutorKind::Sequential, 50.0);
        st.observe(ExecutorKind::SelfExecuting, 5000.0);
        let runs = drive(&mut st, 1000, |k| {
            if k == ExecutorKind::Sequential {
                50.0
            } else {
                5000.0
            }
        });
        assert_eq!(
            runs[ExecutorKind::SelfExecuting as usize],
            0,
            "an arm {CHALLENGE_CAP}x+ off the pace must stay retired: {runs:?}"
        );
    }

    #[test]
    fn resume_restores_learning_and_honors_the_current_host() {
        let prior = [100.0, 40.0, 90.0, 80.0, 50.0];
        let mut st = AdaptiveState::new(prior);
        st.observe(ExecutorKind::SelfExecuting, 55.0);
        st.observe(ExecutorKind::Doacross, 70.0);
        let (measured, count) = st.snapshot();
        // Same host: the learned incumbent carries over — no exploration
        // replays, the first post-restart choice exploits immediately.
        let mut resumed = AdaptiveState::resume(prior, measured, count);
        assert_eq!(resumed.choose(), ExecutorKind::SelfExecuting);
        assert_eq!(resumed.counts(), count);
        // Shrunken host: the current prior retires every parallel arm, so
        // their persisted measurements are discarded wholesale — the state
        // behaves as fresh and deterministically picks the sequential arm.
        let clamped = [
            10.0,
            f64::INFINITY,
            f64::INFINITY,
            f64::INFINITY,
            f64::INFINITY,
        ];
        let mut small = AdaptiveState::resume(clamped, measured, count);
        assert_eq!(small.choose(), ExecutorKind::Sequential);
        assert_eq!(small.counts().iter().sum::<u64>(), 0);
    }

    #[test]
    fn reexploration_is_deterministic() {
        let run = || {
            let mut st = AdaptiveState::new([10.0, 12.0, 14.0, f64::INFINITY, f64::INFINITY]);
            let mut trace = Vec::new();
            for step in 0..500u64 {
                let k = st.choose();
                trace.push(k);
                // A load spike between runs 100 and 200 penalizes whatever
                // runs during it.
                let spike = (100..200).contains(&step);
                st.observe(
                    k,
                    40.0 + k as usize as f64 + if spike { 400.0 } else { 0.0 },
                );
            }
            trace
        };
        assert_eq!(run(), run(), "no wall-clock or randomness in the loop");
    }
}
