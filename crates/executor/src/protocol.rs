//! The one synchronization protocol every scheduled executor runs.
//!
//! The paper's executors (§2.3, Figures 4 and 5) are *transformed loop
//! structures* that do not depend on the loop body: the same busy-wait or
//! phase/barrier skeleton runs whatever `x(isched) = <body>` is. This
//! module is that skeleton, written once:
//!
//! * the **envelope** ([`Run::envelope`]) — what every parallel run does
//!   around its loop: epoch bump, fork, per-worker panic containment,
//!   poisoning of the shared vector and the barrier (so no peer spins
//!   forever on a value or an arrival that will never come), first
//!   interrupt cause wins over the collateral poison panics,
//!   [`crate::PoolError`] → [`ExecError`], wall clock, [`ExecReport`];
//! * **four walks** over it — the order in which a processor visits
//!   positions and how it synchronizes: [`Run::list_walk`] (Figure 4),
//!   [`Run::phase_walk`] (Figure 5, full or elided), [`Run::stripe_walk`]
//!   (doacross) and [`Run::claim_walk`] (self-scheduling), each polling the
//!   [`CancelToken`] every [`CHECK_STRIDE`] positions of a worker's count;
//! * beside them, [`natural`]: the `Sequential` loop, which forks nothing
//!   but keeps the envelope's panic containment and polling cadence;
//! * **two kernels** ([`Kernel`]) — what a position *is*: [`BodyKernel`]
//!   (schedule lists plus a body closure) and the compiled layout kernel
//!   in [`crate::compiled`]. Walks are generic over the kernel, so each
//!   (walk, kernel) pair monomorphizes to a loop with no dynamic dispatch.
//!
//! ## Ordering protocol
//!
//! Dependence values cross threads only through [`SharedVec`] (value store,
//! then a `Release` flag store; `Acquire` flag load, then value load) or
//! across a [`SpinBarrier`] generation; poisoning is a `Release` store read
//! with `Acquire` inside the spin loops. Everything this module touches
//! directly is `Relaxed` because it publishes no other data: the
//! per-processor iteration counters and the stall total are statistics the
//! coordinator reads after `pool.run` has joined (the pool's mutex orders
//! them), and the chunk cursor of [`Run::claim_walk`] only hands out
//! disjoint ranges — values computed in a chunk still travel through the
//! flags.

use crate::barrier::SpinBarrier;
use crate::cancel::{CancelToken, ExecError, InterruptCell, CHECK_STRIDE};
use crate::pool::WorkerPool;
use crate::report::ExecReport;
use crate::selfsched::Chunking;
use crate::shared::{PublishedSource, SharedVec, WaitingSource};
use crate::DirectSource;
use rtpl_inspector::{BarrierPlan, Schedule};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// The synchronization state of one run: the epoch-stamped shared
/// value/ready buffer and the per-processor iteration counters. A run
/// borrows its scratch exclusively; lease one per in-flight run to execute
/// the same plan from many threads at once. Reuse across runs costs an O(1)
/// epoch bump — no allocation, no flag clearing.
#[derive(Debug)]
pub struct LoopScratch {
    pub(crate) shared: SharedVec,
    iters: Vec<AtomicU64>,
}

impl LoopScratch {
    /// Scratch for an `n`-iteration loop scheduled on `nprocs` processors.
    pub fn new(n: usize, nprocs: usize) -> Self {
        LoopScratch {
            shared: SharedVec::new(n),
            iters: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Loop length this scratch serves.
    pub fn n(&self) -> usize {
        self.shared.len()
    }

    /// Processor count this scratch serves.
    pub fn nprocs(&self) -> usize {
        self.iters.len()
    }
}

/// What a position of a scheduled loop is: which index it publishes and
/// how its value is computed from a value source `S`. A position is a
/// kernel-private `usize` — the index itself for [`BodyKernel`], an offset
/// into the execution-order arrays for the compiled layout.
pub(crate) trait Kernel<S>: Sync {
    /// Runs once per worker at the start of a run, inside the envelope's
    /// panic containment.
    fn prologue(&self) {}
    /// Number of phases [`Kernel::phase`] is defined for.
    fn num_phases(&self) -> usize;
    /// Processor `p`'s positions in list order.
    fn proc(&self, p: usize) -> impl Iterator<Item = usize>;
    /// Processor `p`'s positions of phase `w`.
    fn phase(&self, p: usize, w: usize) -> impl Iterator<Item = usize>;
    /// The position that computes index `i`.
    fn row(&self, i: usize) -> usize;
    /// The index position `pos` publishes.
    fn index(&self, pos: usize) -> usize;
    /// The value of position `pos`, reading dependences through `src`.
    fn eval(&self, pos: usize, src: &S) -> f64;
}

/// The uncompiled kernel: positions are the loop indices themselves, read
/// off a [`Schedule`]'s lists, and the value is whatever `body` says.
/// `lists` is `None` for the walks that take their order from elsewhere
/// (natural order, a caller-supplied sorted list).
pub(crate) struct BodyKernel<'a, F> {
    pub(crate) lists: Option<&'a Schedule>,
    pub(crate) body: &'a F,
}

impl<F> BodyKernel<'_, F> {
    fn lists(&self) -> &Schedule {
        self.lists
            .expect("invariant: list and phase walks run over a schedule")
    }
}

impl<S, F: Fn(usize, &S) -> f64 + Sync> Kernel<S> for BodyKernel<'_, F> {
    fn num_phases(&self) -> usize {
        self.lists().num_phases()
    }
    fn proc(&self, p: usize) -> impl Iterator<Item = usize> {
        self.lists().proc(p).iter().map(|&i| i as usize)
    }
    fn phase(&self, p: usize, w: usize) -> impl Iterator<Item = usize> {
        self.lists().phase_slice(p, w).iter().map(|&i| i as usize)
    }
    fn row(&self, i: usize) -> usize {
        i
    }
    fn index(&self, pos: usize) -> usize {
        pos
    }
    #[inline]
    fn eval(&self, pos: usize, src: &S) -> f64 {
        (self.body)(pos, src)
    }
}

/// What every walk returns.
pub(crate) type Outcome = Result<ExecReport, ExecError>;

/// One parallel run about to happen: the team (which every walk requires),
/// the scratch it borrows exclusively, and the requester's token. The walks
/// consume it.
pub(crate) struct Run<'a> {
    pub(crate) pool: Option<&'a WorkerPool>,
    pub(crate) scratch: &'a mut LoopScratch,
    pub(crate) cancel: Option<&'a CancelToken>,
}

/// One worker's view of a run in flight.
struct Lane<'a, 'e> {
    p: usize,
    shared: &'a SharedVec,
    epoch: u32,
    cancel: Option<&'a CancelToken>,
    barrier: &'e SpinBarrier,
    interrupted: &'e InterruptCell,
}

impl Lane<'_, '_> {
    /// Releases every peer parked on a value or a barrier arrival this
    /// worker will now never produce.
    fn poison(&self) {
        self.barrier.poison();
        self.shared.poison();
    }

    /// Evaluates and publishes `positions` in order, advancing the
    /// worker's position count `k`. Every [`CHECK_STRIDE`]-th position
    /// polls the token first; an observed cause is recorded (first cause
    /// wins), the run is poisoned, and `false` tells the walk to return.
    #[inline]
    fn drain<S, K: Kernel<S>>(
        &self,
        kernel: &K,
        src: &S,
        k: &mut usize,
        positions: impl Iterator<Item = usize>,
    ) -> bool {
        for pos in positions {
            if k.is_multiple_of(CHECK_STRIDE) {
                if let Some(cause) = self.cancel.and_then(CancelToken::check) {
                    self.interrupted.set(cause);
                    self.poison();
                    return false;
                }
            }
            let v = kernel.eval(pos, src);
            self.shared.publish_at(kernel.index(pos), v, self.epoch);
            *k += 1;
        }
        true
    }
}

impl<'a> Run<'a> {
    /// The run envelope. `worker` is one processor's walk: it returns its
    /// position count and busy-wait stall count, or `None` if it stopped on
    /// an observed cancellation. `barriers` is the report's barrier count
    /// (known before the run: the phase walk's kept boundaries, else zero).
    ///
    /// On error the scratch stays poisoned until its next run's epoch bump
    /// discards the partial results; the pool's workers always survive.
    fn envelope(
        self,
        barriers: u64,
        worker: impl for<'e> Fn(&Lane<'a, 'e>) -> Option<(usize, u64)> + Sync,
    ) -> Outcome {
        let pool = self
            .pool
            .expect("parallel executor kinds require a worker pool");
        let (cancel, scratch): (_, &'a LoopScratch) = (self.cancel, self.scratch);
        assert_eq!(
            scratch.nprocs(),
            pool.nworkers(),
            "planned processor count must match the pool"
        );
        let epoch = scratch.shared.begin_run();
        // Only the phase walk waits on it; a per-run barrier keeps poisoning
        // one-shot (nothing to un-poison before the next run).
        let barrier = SpinBarrier::new(pool.nworkers());
        let interrupted = InterruptCell::new();
        let stalls = AtomicU64::new(0);
        let t0 = Instant::now();
        let ran = pool.run(&|p| {
            let lane = Lane {
                p,
                shared: &scratch.shared,
                epoch,
                cancel,
                barrier: &barrier,
                interrupted: &interrupted,
            };
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker(&lane))) {
                Ok(Some((iters, spun))) => {
                    scratch.iters[p].store(iters as u64, Ordering::Relaxed);
                    stalls.fetch_add(spun, Ordering::Relaxed);
                }
                // Stopped on cancellation: `Lane::drain` already poisoned.
                Ok(None) => {}
                Err(e) => {
                    lane.poison();
                    std::panic::resume_unwind(e);
                }
            }
        });
        let wall = t0.elapsed();
        // Peers released by poisoning die on the poison panic and inflate
        // the pool's panic count — the recorded cause, not the collateral
        // panics, names the failure.
        if let Some(cause) = interrupted.get() {
            return Err(cause);
        }
        ran.map_err(|e| ExecError::BodyPanicked {
            workers: e.panicked,
        })?;
        let iters = scratch.iters.iter();
        Ok(ExecReport {
            barriers,
            stalls: stalls.load(Ordering::Relaxed),
            iters_per_proc: iters.map(|c| c.load(Ordering::Relaxed)).collect(),
            wall,
        })
    }

    /// The shape the three busy-wait walks share: each worker drains the
    /// positions `order` hands it, reads waiting on the ready flags.
    fn busy_wait<K, I>(self, kernel: &K, order: impl Fn(usize) -> I + Sync) -> Outcome
    where
        K: Kernel<WaitingSource<'a>>,
        I: Iterator<Item = usize>,
    {
        self.envelope(0, |lane| {
            kernel.prologue();
            let (src, mut k) = (WaitingSource::new(lane.shared, lane.epoch), 0);
            lane.drain(kernel, &src, &mut k, order(lane.p))
                .then(|| (k, src.stalls()))
        })
    }

    /// Figure 4 (self-executing): every processor walks its list in order;
    /// reads busy-wait, so consecutive wavefronts pipeline.
    pub(crate) fn list_walk<K: Kernel<WaitingSource<'a>>>(self, kernel: &K) -> Outcome {
        self.busy_wait(kernel, |p| kernel.proc(p))
    }

    /// Doacross: the natural index order striped over processors
    /// (`i ≡ p (mod nprocs)`); deadlock-free for forward dependence graphs
    /// (argued in [`mod@crate::doacross`]).
    pub(crate) fn stripe_walk<K: Kernel<WaitingSource<'a>>>(self, kernel: &K) -> Outcome {
        let (n, nprocs) = (self.scratch.n(), self.scratch.nprocs());
        self.busy_wait(kernel, |p| (p..n).step_by(nprocs).map(|i| kernel.row(i)))
    }

    /// Self-scheduling: processors repeatedly claim the next chunk of the
    /// topologically sorted `order` from a shared cursor and run it in
    /// order (progress argued in [`crate::selfsched`]).
    pub(crate) fn claim_walk<K: Kernel<WaitingSource<'a>>>(
        self,
        kernel: &K,
        order: &[u32],
        chunking: Chunking,
    ) -> Outcome {
        let (cursor, nprocs) = (&AtomicUsize::new(0), self.scratch.nprocs());
        self.busy_wait(kernel, |_| {
            std::iter::from_fn(move || claim(cursor, chunking, order.len(), nprocs))
                .flat_map(|chunk| &order[chunk])
                .map(|&i| kernel.row(i as usize))
        })
    }

    /// Figure 5 (pre-scheduled): every processor runs its slice of each
    /// phase and the team meets at the interior boundaries `plan` keeps
    /// ([`BarrierPlan::full`]: all of them), so reads never wait. The final
    /// join of `pool.run` covers the last phase.
    pub(crate) fn phase_walk<K: Kernel<PublishedSource<'a>>>(
        self,
        kernel: &K,
        plan: &BarrierPlan,
    ) -> Outcome {
        let num_phases = kernel.num_phases();
        assert_eq!(plan.len(), num_phases.saturating_sub(1));
        self.envelope(plan.count() as u64, |lane| {
            kernel.prologue();
            let (src, mut k) = (PublishedSource::new(lane.shared, lane.epoch), 0);
            for w in 0..num_phases {
                if !lane.drain(kernel, &src, &mut k, kernel.phase(lane.p, w)) {
                    return None;
                }
                if w + 1 < num_phases && plan.is_kept(w) {
                    lane.barrier.wait();
                }
            }
            Some((k, 0))
        })
    }
}

/// The `Sequential` kind of a loop body: natural index order on the
/// caller's thread, in place in `out` (read back through a
/// [`DirectSource`]). A panicking body is contained, the token is polled
/// every [`CHECK_STRIDE`] iterations, and a failed run leaves the prefix it
/// finished in `out`.
pub(crate) fn natural<F>(out: &mut [f64], cancel: Option<&CancelToken>, body: F) -> Outcome
where
    F: for<'s> Fn(usize, &DirectSource<'s>) -> f64,
{
    let t0 = Instant::now();
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for i in 0..out.len() {
            if let Some(cause) = cancel
                .filter(|_| i.is_multiple_of(CHECK_STRIDE))
                .and_then(CancelToken::check)
            {
                return Err(cause);
            }
            out[i] = body(i, &DirectSource(out));
        }
        Ok(())
    }));
    ran.unwrap_or(Err(ExecError::BodyPanicked { workers: 1 }))?;
    Ok(ExecReport {
        barriers: 0,
        stalls: 0,
        iters_per_proc: vec![out.len() as u64],
        wall: t0.elapsed(),
    })
}

/// Claims the next chunk of `0..n` from `cursor`; `None` once the list is
/// exhausted.
fn claim(cursor: &AtomicUsize, by: Chunking, n: usize, nprocs: usize) -> Option<Range<usize>> {
    let guided = |lo: usize| n.saturating_sub(lo).div_ceil(nprocs);
    let (lo, len) = match by {
        Chunking::Unit => (cursor.fetch_add(1, Ordering::Relaxed), 1),
        Chunking::Fixed(len) => (cursor.fetch_add(len, Ordering::Relaxed), len),
        // The chunk length depends on what remains, so claim by CAS.
        Chunking::Guided => {
            let next = |lo| (lo < n).then(|| lo + guided(lo));
            let lo = cursor.fetch_update(Ordering::Relaxed, Ordering::Relaxed, next);
            (lo.unwrap_or(n), guided(lo.unwrap_or(n)))
        }
    };
    (lo < n).then(|| lo..(lo + len).min(n))
}

/// The schedule-free free functions' one-shot run: a scratch and a body
/// kernel without lists for this call, `walk` over them, a panic carrying
/// the typed message on failure, and the copy-out.
pub(crate) fn one_shot<F>(
    pool: &WorkerPool,
    body: &F,
    out: &mut [f64],
    walk: impl FnOnce(Run<'_>, &BodyKernel<'_, F>) -> Outcome,
) -> ExecReport {
    let mut scratch = LoopScratch::new(out.len(), pool.nworkers());
    let run = Run {
        pool: Some(pool),
        scratch: &mut scratch,
        cancel: None,
    };
    let kernel = BodyKernel { lists: None, body };
    let report = walk(run, &kernel).unwrap_or_else(|e| panic!("{e}"));
    scratch.shared.copy_into(out);
    report
}
