//! The benchmark of the rtpl stack: seven named workloads, end-to-end
//! metrics a user of the system would see, and a per-layer bill from the
//! inspector to the socket. See `README.md` beside this file.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--quick] [--out DIR]
//!     every workload, each in its own child process; writes
//!     <out>/result.json and one <out>/trace-<workload>.jsonl
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one workload in this process; the last stdout line is
//!     {"correct", "attempted", "failed", "metrics"} — end-to-end metrics
//!     with --trace 0, per-layer metrics with --trace 1
//! benchmark compare A.json B.json [--bounds BENCHMARK.json]
//!     one row per (workload, metric): same | better | worse | unresolved
//! ```

mod compare;
mod json;
mod metrics;
mod oracle;
mod probes;
mod sampler;
mod trace;
mod workloads;

use json::Json;
use sampler::{LaneLog, Reps, SliceSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use trace::now_ns;
use workloads::{Counts, Env, Spec, SPECS};

const DEFAULT_SEED: u64 = 1989;
/// Timed seconds per workload: five slices of 1.6 s. The single constant to
/// shrink if a time cap demands it — never drop a workload instead.
const DEFAULT_SECONDS: f64 = 8.0;
const SLICES: usize = 5;
const WARM_UP: Duration = Duration::from_secs(1);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Latencies kept over a whole run for the pooled tail (64 KB): a run with
/// more has slices thick enough for a tail each.
const POOLED_CAP: usize = 1 << 14;
/// `--quick`: one slice of 0.3 s, probes at 5 repetitions.
const QUICK_SLICE: Duration = Duration::from_millis(300);
const QUICK_WARM_UP: Duration = Duration::from_millis(100);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Pass {
    /// Untraced timed slices: the end-to-end metrics (`--trace 0`).
    Timed,
    /// A traced slice and the standalone probes: the per-layer metrics
    /// (`--trace 1`).
    Traced,
    /// Both in one process, as the all-workloads command runs its children.
    Both,
}

struct Opts {
    seed: u64,
    seconds: f64,
    quick: bool,
    pass: Pass,
    out: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark [--seed N] [--seconds S] [--quick] [--out DIR]\n\
         \x20      benchmark --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      benchmark compare A.json B.json [--bounds BENCHMARK.json]\n\
         workloads: {}",
        SPECS.map(|s| s.name).join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_command(&args[1..]);
    }
    // Build and run outputs stay inside the checkout: beside cargo's own.
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        quick: false,
        pass: Pass::Both,
        out: target.join("benchmark"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str);
        let ok = match flag.as_str() {
            "--quick" => {
                opts.quick = true;
                true
            }
            "--workload" => value().map(|v| workload = Some(v.to_string())).is_some(),
            "--seed" => value()
                .and_then(|v| v.parse().ok())
                .map(|v| opts.seed = v)
                .is_some(),
            "--seconds" => value()
                .and_then(|v| v.parse().ok())
                .filter(|s: &f64| *s > 0.0 && s.is_finite())
                .map(|v| opts.seconds = v)
                .is_some(),
            "--out" => value().map(|v| opts.out = PathBuf::from(v)).is_some(),
            "--trace" => match value() {
                Some("0") => {
                    opts.pass = Pass::Timed;
                    true
                }
                Some("1") => {
                    opts.pass = Pass::Traced;
                    true
                }
                Some("both") => true,
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("cannot create {}: {e}", opts.out.display());
        return ExitCode::from(2);
    }
    match workload {
        None => run_all(&opts),
        Some(name) => match workloads::spec(&name) {
            None => usage(),
            Some(spec) => match run_workload(spec, &opts) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("benchmark: {}: {e}", spec.name);
                    ExitCode::from(2)
                }
            },
        },
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The latencies of the latest recorded slice, over all lanes, ascending,
/// in `merged` (which has room for them all: nothing is allocated).
fn slice_latencies<'a>(logs: &[LaneLog], merged: &'a mut Vec<u32>) -> &'a [u32] {
    merged.clear();
    for log in logs {
        merged.extend_from_slice(&log.lat);
    }
    merged.sort_unstable();
    merged
}

fn metric_json(value: f64, name: &str) -> Json {
    Json::obj([
        ("value", Json::num(value)),
        ("unit", Json::str(metrics::unit_of(name))),
    ])
}

/// The per-layer count metrics of a traced window, from counter deltas.
fn count_metrics(w: &Counts) -> Vec<(&'static str, f64)> {
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    vec![
        (
            "runtime.batch_groups",
            share(w.get("batch_groups"), w.get("batches")),
        ),
        (
            "runtime.cache_hit_ratio",
            share(
                w.get("cache.hits"),
                w.get("cache.hits") + w.get("cache.misses"),
            ),
        ),
        ("runtime.cache_evictions", w.get("cache.evictions")),
        ("runtime.store_hits", w.get("store_hits")),
        ("runtime.store_misses", w.get("store_misses")),
        ("runtime.store_load_errors", w.get("store_load_errors")),
        (
            "runtime.policy_share.Sequential",
            share(w.get("runs.sequential"), w.get("runs.total")),
        ),
        ("runtime.pools_created", w.get("pools_created")),
        ("runtime.scratches_created", w.get("scratches_created")),
        ("runtime.supernode_positions", w.get("supernode_positions")),
        ("runtime.verified_plans", w.get("verified_plans")),
        ("store.dropped_writes", w.get("store.dropped_writes")),
        ("server.accepted_jobs", w.get("server.accepted_jobs")),
        ("server.answered_jobs", w.get("server.answered_jobs")),
        ("server.rejected", w.get("server.rejected")),
        ("server.retries", w.get("server.retries")),
    ]
}

/// Runs one workload in this process and returns the driver's result line.
/// Human-readable lines go to stdout before it; the full detail goes to
/// `<out>/detail-<workload>.json`.
fn run_workload(spec: &Spec, o: &Opts) -> Result<String, String> {
    let nproc = host_cores();
    let tmp = o
        .out
        .join(format!("tmp-{}-{}", spec.name, std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let result = measure(spec, o, nproc, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    result
}

fn measure(spec: &Spec, o: &Opts, nproc: usize, tmp: &Path) -> Result<String, String> {
    let timed = o.pass != Pass::Traced;
    let traced = o.pass != Pass::Timed;
    let env = Env {
        seed: o.seed,
        nproc,
        tmp: tmp.to_path_buf(),
    };
    let slice_len = if o.quick {
        QUICK_SLICE
    } else {
        Duration::from_secs_f64(o.seconds / SLICES as f64)
    };

    // Set-up, several times over; the last one is measured on.
    let setups = if timed && !o.quick { SETUP_REPS } else { 1 };
    let mut setup_s = Vec::with_capacity(setups);
    let mut w = None;
    for _ in 0..setups {
        drop(w.take());
        let t0 = now_ns();
        w = Some(workloads::setup(spec.name, &env).expect("a listed workload"));
        setup_s.push((now_ns() - t0) as f64 * 1e-9);
    }
    let mut w = w.expect("at least one set-up");
    let facts = w.facts();
    let after_setup = w.counts();
    println!(
        "workload {}  seed {}  n {}  nnz {}  patterns {}  clients {}  slice {:.2} s",
        spec.name,
        o.seed,
        facts.n,
        facts.nnz,
        facts.patterns,
        facts.clients,
        slice_len.as_secs_f64()
    );
    println!("  why: {}", spec.why);

    let mut logs: Vec<LaneLog> = (0..facts.clients)
        .map(|_| LaneLog::new(sampler::LATENCY_CAP / facts.clients))
        .collect();
    let mut merged = sampler::resident_buffer(sampler::LATENCY_CAP);
    let untraced = |len: Duration, min_ops: u64, record: bool| SliceSpec {
        len,
        min_ops,
        record,
        traced: false,
    };
    sampler::run_slice(
        &mut w.lanes(),
        &mut logs,
        untraced(if o.quick { QUICK_WARM_UP } else { WARM_UP }, 0, false),
    );

    // Untraced slices: the timed ones of `--trace 0`, or shorter ones that
    // only give the traced pass its baseline and noise floor.
    let (slices, len, min_ops) = match (timed, o.quick) {
        (_, true) => (1, slice_len, 0),
        (true, false) => (SLICES, slice_len, spec.min_ops().div_ceil(SLICES as u64)),
        (false, false) => (SLICES, slice_len / 3, 0),
    };
    let mut slice_rate = Vec::with_capacity(slices);
    let mut slice_p50 = Vec::with_capacity(slices);
    let mut slice_tail = Vec::with_capacity(slices);
    // Every latency of the run, kept while there are few enough that a
    // slice on its own may be too thin for the tail rule.
    let mut pooled: Vec<u32> = Vec::new();
    for _ in 0..slices {
        let parts = sampler::run_slice(&mut w.lanes(), &mut logs, untraced(len, min_ops, true));
        slice_rate.push(sampler::slice_ops_per_s(&parts));
        let lat = slice_latencies(&logs, &mut merged);
        slice_p50.push(sampler::median_sorted(lat));
        slice_tail.push(sampler::percentile(lat, spec.tail_p));
        if pooled.len() + lat.len() <= POOLED_CAP {
            pooled.extend_from_slice(lat);
        }
    }
    pooled.sort_unstable();
    // Each slice's median, then the median over slices, as the tail below:
    // a lane keeps the latencies of one slice at a time.
    let p50_ns = sampler::median(&mut slice_p50.clone());
    let samples: u64 = logs.iter().map(|l| l.lat_recorded).sum();
    let rss = peak_rss_mb();

    let mut e2e: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    if timed {
        e2e.insert(
            "setup_s",
            (
                sampler::median(&mut setup_s.clone()),
                sampler::rel_spread(&setup_s),
            ),
        );
        e2e.insert(
            "op_p50_us",
            (p50_ns * 1e-3, sampler::rel_spread(&slice_p50)),
        );
        // The tail of a typical slice: the percentile in every slice on
        // its own, then the median over slices — one disturbed slice moves
        // a pooled p99 but not this. Where ops are too slow for every
        // slice to carry the percentile, the run's pooled latencies do.
        let per_slice: Result<Vec<_>, _> = slice_tail.iter().copied().collect();
        let all_pooled = pooled.len() as u64 == samples;
        match (per_slice, sampler::percentile(&pooled, spec.tail_p)) {
            (Ok(tails), _) => {
                let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
                e2e.insert(
                    "op_tail_us",
                    (
                        sampler::median(&mut values.clone()) * 1e-3,
                        sampler::rel_spread(&values),
                    ),
                );
                println!(
                    "  op_tail_us is the median over {slices} slices of each slice's p{:.0}: \
                     at least {} samples a slice, at least {} beyond it",
                    spec.tail_p * 100.0,
                    tails.iter().map(|t| t.samples).min().unwrap_or(0),
                    tails.iter().map(|t| t.beyond).min().unwrap_or(0),
                );
            }
            (Err(_), Ok(t)) if all_pooled => {
                e2e.insert("op_tail_us", (t.value * 1e-3, 0.0));
                println!(
                    "  op_tail_us is the p{:.0} of the {} samples of all {slices} slices, \
                     {} beyond it",
                    spec.tail_p * 100.0,
                    t.samples,
                    t.beyond,
                );
            }
            (Err(r), _) => {
                let refusal = format!(
                    "p{:.0} of a slice's {} samples leaves {} beyond it (need {}), \
                     and the {samples} of the run are no better: not printing a tail",
                    spec.tail_p * 100.0,
                    r.samples,
                    r.beyond,
                    sampler::MIN_BEYOND
                );
                if !o.quick {
                    return Err(refusal);
                }
                println!("  op_tail_us refused: {refusal}");
            }
        }
        e2e.insert(
            "ops_per_s",
            (
                sampler::median(&mut slice_rate.clone()),
                sampler::rel_spread(&slice_rate),
            ),
        );
        e2e.insert(
            "peak_rss_mb",
            (rss.ok_or("cannot read VmHWM from /proc/self/status")?, 0.0),
        );
        for (name, (value, spread)) in &e2e {
            println!(
                "  {name:<12} {value:>14.4} {:<4} (own spread {:.2} %)",
                metrics::unit_of(name),
                spread * 100.0
            );
        }
        println!(
            "  {} latency samples over {} slices; {} set-up(s)",
            samples, slices, setups
        );
    }

    // The traced pass: one more slice under spans, then the probes.
    let mut layer: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    let mut absent = Vec::new();
    let mut spans = BTreeMap::new();
    let mut tlogs: Vec<LaneLog> = Vec::new();
    if traced {
        tlogs = logs.iter().map(LaneLog::continuing).collect();
        let before = w.counts();
        sampler::run_slice(
            &mut w.lanes(),
            &mut tlogs,
            SliceSpec {
                len: slice_len,
                min_ops: 0,
                record: true,
                traced: true,
            },
        );
        let window = w.counts().since(&before);
        let traced_lat = slice_latencies(&tlogs, &mut merged);
        let traced_p50 = sampler::median_sorted(traced_lat);
        let tracers: Vec<&trace::Tracer> = tlogs.iter().map(|l| &l.tracer).collect();
        spans = trace::summarize(&tracers);
        let path = o.out.join(format!("trace-{}.jsonl", spec.name));
        trace::write_jsonl(&path, spec.name, &tracers)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

        let reps = if o.quick {
            Reps {
                n: 5,
                min: 2,
                budget: Duration::from_millis(40),
            }
        } else {
            Reps {
                n: 31,
                min: 5,
                budget: Duration::from_millis(250),
            }
        };
        let probes = probes::run(&w.probe_input(), nproc, tmp, reps);
        for (name, m) in probes.values {
            layer.insert(name, (m.value, m.reps));
        }
        absent = probes.absent;
        for (name, v) in count_metrics(&window) {
            layer.insert(name, (v, 0));
        }
        layer.insert(
            "bench.noise_floor_pct",
            (100.0 * sampler::rel_spread(&slice_rate), slice_rate.len()),
        );
        layer.insert(
            "bench.trace_overhead_pct",
            (100.0 * (traced_p50 - p50_ns) / p50_ns, traced_lat.len()),
        );
    }

    // Totals, oracle and counter assertions over everything since set-up.
    let all_logs = || logs.iter().chain(&tlogs);
    let attempted: u64 = all_logs().map(|l| l.attempted).sum();
    let wrong: u64 = all_logs().map(|l| l.wrong).sum();
    let refused: u64 = all_logs().map(|l| l.failed).sum();
    let misses = w.oracle().reference_misses;
    let failed = wrong + refused + misses;
    let counter_check = w.check_counts(&w.counts().since(&after_setup), attempted);
    let digest = format!("{:016x}", w.oracle().digest());
    let keys = w.oracle().keys();
    drop(w);
    let correct = failed == 0 && counter_check.is_ok();
    if traced {
        layer.insert(
            "bench.failed_share",
            (failed as f64 / attempted.max(1) as f64, 0),
        );
        println!("  per-layer (value, timings behind the median):");
        for m in &metrics::PER_LAYER {
            match layer.get(m.name) {
                Some((v, reps)) => println!(
                    "    {:<42} {v:>16.4} {:<7} {reps:>6}  ({} is better)",
                    m.name, m.unit, m.better
                ),
                None => {
                    let why = absent
                        .iter()
                        .find(|(n, _)| *n == m.name)
                        .map_or("not produced", |(_, w)| w.as_str());
                    println!("    {:<42} {:>16} ({why})", m.name, "absent");
                }
            }
        }
        if let (Some(warm), Some(sweep)) =
            (layer.get("runtime.warm_ns"), layer.get("krylov.sweep_ns"))
        {
            println!(
                "    warm solve over kernel sweep: {}",
                sampler::ratio(warm.0, sweep.0, "ns")
            );
        }
        println!(
            "  spans of the traced slice (count, total ms, self ms); {} dropped:",
            tlogs.iter().map(|l| l.tracer.dropped()).sum::<u64>()
        );
        for (name, t) in &spans {
            println!(
                "    {name:<30} {:>9} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 * 1e-6,
                t.self_ns as f64 * 1e-6
            );
        }
    }
    println!(
        "  ops attempted {attempted}, wrong {wrong}, failed or refused {refused}, \
         first replies off the reference {misses} of {keys}; digest {digest}; counters {}",
        match &counter_check {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("VIOLATED: {e}"),
        }
    );

    let detail = Json::obj([
        ("name", Json::str(spec.name)),
        ("seed", Json::num(o.seed as f64)),
        ("correct", Json::Bool(correct)),
        ("result_digest", Json::str(digest)),
        (
            "counter_check",
            Json::str(counter_check.err().unwrap_or_else(|| "ok".into())),
        ),
        (
            "input",
            Json::obj([
                ("n", Json::num(facts.n as f64)),
                ("nnz", Json::num(facts.nnz as f64)),
                ("patterns", Json::num(facts.patterns as f64)),
                ("clients", Json::num(facts.clients as f64)),
                ("oracle_keys", Json::num(keys as f64)),
            ]),
        ),
        (
            "ops",
            Json::obj([
                ("attempted", Json::num(attempted as f64)),
                ("succeeded", Json::num((attempted - wrong - refused) as f64)),
                ("failed", Json::num(failed as f64)),
                ("wrong", Json::num(wrong as f64)),
                ("reference_misses", Json::num(misses as f64)),
            ]),
        ),
        (
            "sampling",
            Json::obj([
                ("slices", Json::num(slices as f64)),
                ("slice_seconds", Json::num(len.as_secs_f64())),
                ("latency_samples", Json::num(samples as f64)),
                (
                    "latency_samples_dropped",
                    Json::num(logs.iter().map(|l| l.lat_dropped).sum::<u64>() as f64),
                ),
                ("tail_percentile", Json::num(spec.tail_p)),
                (
                    "slice_p50_us",
                    Json::Arr(slice_p50.iter().map(|v| Json::num(v * 1e-3)).collect()),
                ),
                (
                    "slice_ops_per_s",
                    Json::Arr(slice_rate.iter().map(|v| Json::num(*v)).collect()),
                ),
                ("setups", Json::num(setups as f64)),
            ]),
        ),
        (
            "end_to_end",
            Json::obj(e2e.iter().map(|(name, (value, spread))| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::num(*value)),
                        ("unit", Json::str(metrics::unit_of(name))),
                        ("spread", Json::num(*spread)),
                    ]),
                )
            })),
        ),
        (
            "per_layer",
            Json::obj(layer.iter().map(|(name, (value, reps))| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::num(*value)),
                        ("unit", Json::str(metrics::unit_of(name))),
                        ("timings", Json::num(*reps as f64)),
                    ]),
                )
            })),
        ),
        (
            "absent",
            Json::Arr(
                absent
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::obj(spans.iter().map(|(name, t)| {
                (
                    *name,
                    Json::obj([
                        ("count", Json::num(t.count as f64)),
                        ("total_ns", Json::num(t.total_ns as f64)),
                        ("self_ns", Json::num(t.self_ns as f64)),
                    ]),
                )
            })),
        ),
    ]);
    let path = o.out.join(format!("detail-{}.json", spec.name));
    std::fs::write(&path, detail.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let reported = e2e
        .iter()
        .map(|(name, (value, _))| (*name, *value))
        .chain(layer.iter().map(|(name, (value, _))| (*name, *value)));
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        (
            "metrics",
            Json::obj(reported.map(|(name, value)| (name, metric_json(value, name)))),
        ),
    ]);
    Ok(line.compact())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Every workload, each in a child process of its own (a re-exec of this
/// binary), one after the other; then `result.json`.
fn run_all(o: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = host_cores();
    let mut workloads = BTreeMap::new();
    let mut all_correct = true;
    for spec in &SPECS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", spec.name, "--trace", "both"])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .arg("--out")
            .arg(&o.out);
        if o.quick {
            cmd.arg("--quick");
        }
        // `output` waits for the child to end.
        let out = match cmd.stderr(std::process::Stdio::inherit()).output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("benchmark: cannot start the {} child: {e}", spec.name);
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        let detail = std::fs::read_to_string(o.out.join(format!("detail-{}.json", spec.name)))
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t));
        match (out.status.success(), detail) {
            (true, Ok(d)) => {
                all_correct &= d.get("correct") == Some(&Json::Bool(true));
                workloads.insert(spec.name, d);
            }
            (_, d) => {
                eprintln!(
                    "benchmark: the {} child failed ({}): {last} {}",
                    spec.name,
                    out.status,
                    d.err().unwrap_or_default()
                );
                return ExitCode::from(2);
            }
        }
    }
    let nprocs = rtpl::runtime::RuntimeConfig::default().nprocs;
    let result = Json::obj([
        (
            "header",
            Json::obj([
                ("seed", Json::num(o.seed as f64)),
                ("quick", Json::Bool(o.quick)),
                ("timed_seconds", Json::num(o.seconds)),
                ("slices", Json::num(SLICES as f64)),
                ("nproc", Json::num(nproc as f64)),
                ("plan_nprocs", Json::num(nprocs as f64)),
                // No configuration here asks for more processors than the
                // host has; recorded so a reader never has to assume it.
                ("exceeds_host", Json::Bool(nprocs > nproc)),
                ("rustc", Json::str(command_line("rustc", &["--version"]))),
                (
                    "commit",
                    Json::str(command_line("git", &["rev-parse", "HEAD"])),
                ),
            ]),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = o.out.join("result.json");
    if let Err(e) = std::fs::write(&path, result.pretty()) {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("\nwrote {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: at least one workload was not correct");
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json` of the checkout the command runs in: the working
/// directory or the nearest directory above it.
fn find_contract() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let candidate = dir.join("BENCHMARK.json");
        if candidate.exists() {
            return Some(candidate);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn compare_command(args: &[String]) -> ExitCode {
    let (files, bounds) = match args {
        [a, b] => ([a, b], find_contract()),
        [a, b, flag, path] if flag == "--bounds" => ([a, b], Some(PathBuf::from(path))),
        _ => return usage(),
    };
    let Some(bounds) = bounds else {
        eprintln!("benchmark compare: no BENCHMARK.json here or above; pass --bounds");
        return ExitCode::from(2);
    };
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let loaded = read(Path::new(files[0]))
        .and_then(|a| Ok((a, read(Path::new(files[1]))?, read(&bounds)?)))
        .and_then(|(a, b, c)| compare::compare(&a, &b, &c));
    match loaded {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}
