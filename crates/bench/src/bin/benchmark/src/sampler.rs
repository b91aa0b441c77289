//! The one shared sampler: warm-up, equal timed slices, medians with their
//! MAD, exact percentiles that refuse to exist on too few samples.
//!
//! Rules every number printed by this harness follows:
//!
//! * a timing is a **median** (of the op latencies of a slice, then of the
//!   per-slice values), printed with its sample count;
//! * a tail is the nearest-rank percentile and is only reported when at
//!   least [`MIN_BEYOND`] samples lie beyond it — otherwise
//!   [`percentile`] returns the refusal with the counts;
//! * a ratio is printed with its base ([`ratio`]);
//! * the noise floor of a run is MAD ÷ median of its per-slice throughput.

use crate::trace::{now_ns, Span, Tracer, NO_PARENT};
use std::time::Duration;

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Latency samples the lanes together keep of one slice (4 bytes each);
/// later ops of the slice still count for throughput, and the number left
/// out is reported. The lanes' buffers and the one their samples are
/// merged and sorted in are made once by [`resident_buffer`] and reused by
/// every slice, so the harness's own share of `peak_rss_mb` is 4 MB however
/// many ops a run makes.
pub const LATENCY_CAP: usize = 1 << 19;

/// An empty buffer for `cap` latencies whose pages are all resident
/// already: written, not just reserved.
pub fn resident_buffer(cap: usize) -> Vec<u32> {
    let mut v = vec![u32::MAX; cap];
    v.clear();
    v
}

/// Median of `v` (mean of the two middle values for even counts). Sorts in
/// place; `NaN` for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Median absolute deviation of `v` around `center`.
pub fn mad(v: &[f64], center: f64) -> f64 {
    let mut dev: Vec<f64> = v.iter().map(|x| (x - center).abs()).collect();
    median(&mut dev)
}

/// MAD ÷ median — the relative spread this harness quotes as a noise floor.
/// Zero when fewer than two values exist (nothing to disagree).
pub fn rel_spread(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let mut sorted = v.to_vec();
    let m = median(&mut sorted);
    if m == 0.0 {
        0.0
    } else {
        mad(v, m) / m.abs()
    }
}

/// A percentile that met the sample rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    pub samples: usize,
}

/// Why a percentile was not reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TailRefused {
    pub beyond: usize,
    pub samples: usize,
}

/// Exact nearest-rank percentile `p ∈ (0, 1)` of an ascending slice:
/// the value at rank `⌈p·N⌉`. Refused unless ≥ [`MIN_BEYOND`] samples lie
/// beyond that rank.
pub fn percentile(sorted: &[u32], p: f64) -> Result<Tail, TailRefused> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TailRefused { beyond, samples: n });
    }
    Ok(Tail {
        value: f64::from(sorted[rank - 1]),
        beyond,
        samples: n,
    })
}

/// Median of an ascending latency slice.
pub fn median_sorted(sorted: &[u32]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        f64::from(sorted[n / 2])
    } else {
        0.5 * (f64::from(sorted[n / 2 - 1]) + f64::from(sorted[n / 2]))
    }
}

/// `a ÷ b` spelled with its base, e.g. `3.21x (of 7.2 us)`.
pub fn ratio(a: f64, base: f64, base_unit: &str) -> String {
    format!("{:.2}x (of {base:.4} {base_unit})", a / base)
}

/// How often a standalone probe repeats.
#[derive(Clone, Copy, Debug)]
pub struct Reps {
    /// Timings wanted.
    pub n: usize,
    /// Timings taken even when the budget is already spent.
    pub min: usize,
    /// Time after which a probe stops early.
    pub budget: Duration,
}

/// Median of up to `reps.n` timings of `run` in nanoseconds, beside the
/// number of timings taken. `setup` runs before each timing and whatever
/// `run` returns is dropped after it, both outside the timed region; one
/// untimed round comes first.
pub fn median_ns_with<S, R>(
    reps: Reps,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> R,
) -> (f64, usize) {
    drop(run(setup()));
    let started = now_ns();
    let mut v = Vec::with_capacity(reps.n);
    for k in 0..reps.n {
        if k >= reps.min && now_ns() - started > reps.budget.as_nanos() as u64 {
            break;
        }
        let input = setup();
        let t0 = now_ns();
        let out = run(input);
        v.push((now_ns() - t0) as f64);
        drop(out);
    }
    let n = v.len();
    (median(&mut v), n)
}

/// [`median_ns_with`] for a probe that needs no per-timing set-up.
pub fn median_ns<R>(reps: Reps, mut f: impl FnMut() -> R) -> (f64, usize) {
    median_ns_with(reps, || (), |()| f())
}

/// What one op came to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Answered, and the answer passed the oracle.
    Ok,
    /// Answered with a wrong answer.
    Wrong,
    /// Failed, refused, or told to retry.
    Failed,
}

/// The handle a lane uses to tell the sampler which part of an op is the
/// timed call into the product, and (in the traced pass) to record spans.
pub struct OpCtx<'t> {
    op: u64,
    timed_ns: u64,
    tracer: Option<&'t mut Tracer>,
    root: u32,
    last: u32,
}

impl OpCtx<'_> {
    /// Index of this op within its lane.
    pub fn op(&self) -> u64 {
        self.op
    }

    /// Runs `f` as (part of) the op's latency, under a span when tracing.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = now_ns();
        let r = f();
        let t1 = now_ns();
        self.timed_ns += t1 - t0;
        self.span(name, t0, t1);
        r
    }

    /// Runs `f` outside the op's latency (harness or per-op set-up work the
    /// workload defines as untimed), still under a span when tracing.
    pub fn untimed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if self.tracer.is_none() {
            return f();
        }
        let t0 = now_ns();
        let r = f();
        self.span(name, t0, now_ns());
        r
    }

    fn span(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if let Some(t) = self.tracer.as_deref_mut() {
            self.last = t.record(Span {
                name,
                start_ns,
                end_ns,
                parent: self.root,
                op: self.op,
            });
        }
    }

    /// Records a span caused by the most recent `timed`/`untimed` span —
    /// for calls the product makes back into harness-owned code (the
    /// timing preconditioner).
    pub fn nested(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record(Span {
                name,
                start_ns,
                end_ns,
                parent: self.last,
                op: self.op,
            });
        }
    }
}

/// One closed-loop caller: a thread that issues its next op only after the
/// previous one has been answered and checked.
pub trait Lane: Send {
    fn op(&mut self, ctx: &mut OpCtx<'_>) -> Verdict;
}

/// Everything one lane has measured so far.
#[derive(Debug)]
pub struct LaneLog {
    /// Latency of every correct timed op of the latest recorded slice, ns
    /// (saturating at ~4.29 s).
    pub lat: Vec<u32>,
    /// Latencies recorded over all slices.
    pub lat_recorded: u64,
    /// Correct ops whose latency did not fit in `lat`.
    pub lat_dropped: u64,
    pub attempted: u64,
    pub wrong: u64,
    pub failed: u64,
    next_op: u64,
    pub tracer: Tracer,
}

impl LaneLog {
    /// A fresh log whose op indices go on where `earlier` stopped, so a
    /// lane's sequence (round-robin position, stream offset) is never
    /// rewound between passes.
    pub fn continuing(earlier: &LaneLog) -> LaneLog {
        LaneLog {
            next_op: earlier.next_op,
            ..LaneLog::new(earlier.lat.capacity())
        }
    }

    /// A log that keeps up to `cap` latencies of a slice.
    pub fn new(cap: usize) -> LaneLog {
        LaneLog {
            lat: resident_buffer(cap),
            lat_recorded: 0,
            lat_dropped: 0,
            attempted: 0,
            wrong: 0,
            failed: 0,
            next_op: 0,
            tracer: Tracer::new(),
        }
    }
}

/// One lane's share of one slice.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaneSlice {
    pub correct: u64,
    /// From the lane's first op of the slice to the end of its last,
    /// failed ops and the harness's own time between ops included.
    pub wall_ns: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct SliceSpec {
    pub len: Duration,
    /// A slice also runs until the lanes together made this many ops, so
    /// the tail rule can be met on slow ops.
    pub min_ops: u64,
    /// Record latencies (false for warm-up).
    pub record: bool,
    pub traced: bool,
}

fn run_lane(lane: &mut dyn Lane, log: &mut LaneLog, spec: SliceSpec, min_ops: u64) -> LaneSlice {
    let mut out = LaneSlice::default();
    if spec.record {
        log.lat.clear();
    }
    let started = now_ns();
    let deadline = started + spec.len.as_nanos() as u64;
    let mut ops = 0u64;
    while now_ns() < deadline || ops < min_ops {
        let op = log.next_op;
        log.next_op += 1;
        let root = if spec.traced {
            log.tracer.record(Span {
                name: "op",
                start_ns: now_ns(),
                end_ns: 0,
                parent: NO_PARENT,
                op,
            })
        } else {
            NO_PARENT
        };
        let mut ctx = OpCtx {
            op,
            timed_ns: 0,
            tracer: spec.traced.then_some(&mut log.tracer),
            root,
            last: root,
        };
        let verdict = lane.op(&mut ctx);
        let timed_ns = ctx.timed_ns;
        if spec.traced {
            log.tracer.set_end(root, now_ns());
        }
        ops += 1;
        log.attempted += 1;
        match verdict {
            Verdict::Ok => {
                out.correct += 1;
                if spec.record {
                    if log.lat.len() < log.lat.capacity() {
                        log.lat.push(u32::try_from(timed_ns).unwrap_or(u32::MAX));
                        log.lat_recorded += 1;
                    } else {
                        log.lat_dropped += 1;
                    }
                }
            }
            Verdict::Wrong => log.wrong += 1,
            Verdict::Failed => log.failed += 1,
        }
    }
    out.wall_ns = now_ns() - started;
    out
}

/// Runs every lane for one slice (each on its own thread when there are
/// several) and returns the per-lane results.
pub fn run_slice(
    lanes: &mut [&mut dyn Lane],
    logs: &mut [LaneLog],
    spec: SliceSpec,
) -> Vec<LaneSlice> {
    assert_eq!(lanes.len(), logs.len());
    let share = spec.min_ops.div_ceil(lanes.len() as u64);
    if let ([lane], [log]) = (&mut *lanes, &mut *logs) {
        return vec![run_lane(*lane, log, spec, share)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .zip(logs.iter_mut())
            .map(|(lane, log)| scope.spawn(move || run_lane(*lane, log, spec, share)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a lane thread panicked"))
            .collect()
    })
}

/// Correct ops per second of one slice: each closed-loop lane's correct
/// ops over its own wall time, summed over lanes. A failed op adds time
/// and no op, and so does whatever the caller waits for between ops.
pub fn slice_ops_per_s(parts: &[LaneSlice]) -> f64 {
    parts
        .iter()
        .filter(|p| p.wall_ns > 0)
        .map(|p| p.correct as f64 * 1e9 / p.wall_ns as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
        assert_eq!(median_sorted(&[1, 2, 3, 10]), 2.5);
        assert_eq!(median_sorted(&[1, 2, 30]), 2.0);
    }

    #[test]
    fn mad_and_relative_spread() {
        let v = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(mad(&v, 3.0), 1.0);
        assert!((rel_spread(&v) - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(rel_spread(&[5.0]), 0.0);
        assert_eq!(rel_spread(&[7.0, 7.0, 7.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=1000).collect();
        let t = percentile(&v, 0.99).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (990.0, 10, 1000));
        let t = percentile(&v, 0.90).unwrap();
        assert_eq!((t.value, t.beyond), (900.0, 100));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<u32> = (1..=999).collect();
        // rank ⌈0.99·999⌉ = 990 leaves 9 beyond: one short.
        assert_eq!(
            percentile(&v, 0.99),
            Err(TailRefused {
                beyond: 9,
                samples: 999
            })
        );
        assert!(percentile(&v, 0.90).is_ok());
        assert!(percentile(&[], 0.5).is_err());
        let few: Vec<u32> = (1..=109).collect();
        assert_eq!(percentile(&few, 0.90).unwrap().beyond, 10);
    }

    struct Fixed(u64);
    impl Lane for Fixed {
        fn op(&mut self, ctx: &mut OpCtx<'_>) -> Verdict {
            ctx.timed("spin", || {
                let until = now_ns() + self.0;
                while now_ns() < until {
                    std::hint::spin_loop();
                }
            });
            if ctx.op() % 4 == 3 {
                Verdict::Failed
            } else {
                Verdict::Ok
            }
        }
    }

    #[test]
    fn slices_count_ops_and_failures_cost_throughput() {
        let mut lane = Fixed(20_000);
        let mut logs = vec![LaneLog::new(1 << 10)];
        let spec = SliceSpec {
            len: Duration::from_millis(5),
            min_ops: 40,
            record: true,
            traced: true,
        };
        let parts = run_slice(&mut [&mut lane], &mut logs, spec);
        let log = &logs[0];
        assert!(log.attempted >= 40);
        assert_eq!(log.failed, log.attempted / 4);
        assert_eq!(parts[0].correct, log.attempted - log.failed);
        assert_eq!(log.lat.len() as u64, parts[0].correct);
        assert_eq!(log.lat_recorded, parts[0].correct);
        // 20 us ops, one in four failed: at most 3/4 of 50 k/s are correct.
        let rate = slice_ops_per_s(&parts);
        assert!(rate > 15_000.0 && rate <= 37_500.0, "{rate}");
        // One root span and one child per op.
        assert_eq!(log.tracer.spans().len() as u64, 2 * log.attempted);
        // The next recorded slice starts its latencies afresh.
        let parts = run_slice(&mut [&mut lane], &mut logs, spec);
        assert_eq!(logs[0].lat.len() as u64, parts[0].correct);
        assert!(logs[0].lat_recorded > parts[0].correct);
    }

    #[test]
    fn slice_median_uses_per_slice_values() {
        // Five slices, one disturbed: the median ignores it, the spread
        // (MAD ÷ median) stays small.
        let per_slice = [100.0, 101.0, 99.0, 100.5, 60.0];
        let mut v = per_slice.to_vec();
        assert_eq!(median(&mut v), 100.0);
        assert!(rel_spread(&per_slice) < 0.011);
    }

    #[test]
    fn median_ns_respects_rep_bounds() {
        let mut calls = 0;
        let spent = Reps {
            n: 31,
            min: 5,
            budget: Duration::ZERO,
        };
        let (_, n) = median_ns(spent, || calls += 1);
        assert_eq!(n, 5);
        assert_eq!(calls, 6);
        let roomy = Reps {
            n: 7,
            min: 3,
            budget: Duration::from_secs(60),
        };
        let (mut setups, mut runs) = (0, 0);
        let (_, n) = median_ns_with(roomy, || setups += 1, |()| runs += 1);
        assert_eq!((n, setups, runs), (7, 8, 8));
    }
}
