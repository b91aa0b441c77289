//! Failure containment end to end: a poisoned job fails alone — typed,
//! counted, and without taking down its batch, its runtime, or its
//! server.
//!
//! Covers the containment layer across crates: typed panic recovery
//! (`RuntimeError::BodyPanicked` on the failing job only), deadlines
//! (queued jobs answered `DEADLINE_EXCEEDED` without running), connection
//! deadlines (idle and mid-frame stalls reclaim the reader), and the
//! metrics surface that makes all of it observable.

use rtpl::inspector::DepGraph;
use rtpl::prelude::{ExecutorKind, LoopBody, ValueSource};
use rtpl::runtime::{Job, LoopSpec, NoBody, Runtime, RuntimeConfig, RuntimeError};
use rtpl::server::proto::{err_code, Request, Response};
use rtpl::server::{Client, Server, ServerConfig};
use rtpl::sparse::gen::laplacian_5pt;
use rtpl::sparse::{ilu0, Csr};
use rtpl::DoConsider;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn test_cfg() -> RuntimeConfig {
    RuntimeConfig {
        nprocs: 2,
        calibrate: false,
        ..RuntimeConfig::default()
    }
}

fn rhs(n: usize, salt: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0 + ((i * 31 + salt * 17) % 89) as f64 * 0.013)
        .collect()
}

/// Sums dependences, except at `bomb`, where it panics.
struct BombBody<'a> {
    lower: &'a Csr,
    bomb: Option<usize>,
}

impl LoopBody for BombBody<'_> {
    fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
        if Some(i) == self.bomb {
            panic!("injected body failure at index {i}");
        }
        1.0 + self
            .lower
            .row_indices(i)
            .iter()
            .map(|&d| src.get(d as usize))
            .sum::<f64>()
    }
}

fn loop_spec(lower: &Csr) -> LoopSpec {
    DoConsider::from_lower_triangular(lower)
        .unwrap()
        .into_spec()
}

/// The tentpole acceptance test: one panicking loop body inside a mixed
/// batch fails its own job with `BodyPanicked`, every other job's output
/// is bit-exact, and the *same* runtime serves the same patterns
/// afterwards.
#[test]
fn panicking_job_fails_alone_and_runtime_survives() {
    let f = ilu0(&laplacian_5pt(7, 5)).unwrap();
    let lower = laplacian_5pt(6, 6).strict_lower();
    let n_solve = f.n();
    let n_loop = lower.nrows();
    let spec = loop_spec(&lower);
    let b = rhs(n_solve, 1);

    // Sequential references on a fresh runtime.
    let rt_ref = Runtime::new(test_cfg());
    let mut expect_x = vec![0.0; n_solve];
    rt_ref
        .submit(Job::<NoBody>::solve(&f, &b, &mut expect_x))
        .unwrap();
    let good = BombBody {
        lower: &lower,
        bomb: None,
    };
    let mut expect_loop = vec![0.0; n_loop];
    rt_ref
        .submit(Job::looped(&spec, &good, &mut expect_loop))
        .unwrap();

    let rt = Runtime::new(test_cfg());
    let bad = BombBody {
        lower: &lower,
        bomb: Some(n_loop / 2),
    };
    let mut x = vec![0.0; n_solve];
    let mut poisoned = vec![0.0; n_loop];
    let mut fine = vec![0.0; n_loop];
    let outcome = rt.submit_batch(vec![
        Job::solve(&f, &b, &mut x),
        Job::looped(&spec, &bad, &mut poisoned),
        Job::looped(&spec, &good, &mut fine),
    ]);
    assert_eq!(outcome.ok_count(), 2);
    assert!(
        matches!(outcome.jobs[1], Err(RuntimeError::BodyPanicked { .. })),
        "the poisoned job must fail typed, not panic the process; got {:?}",
        outcome.jobs[1]
    );
    assert!(outcome.jobs[0].is_ok());
    assert!(
        outcome.jobs[2].is_ok(),
        "a same-pattern peer of the poisoned job must still run: {:?}",
        outcome.jobs[2]
    );
    assert_eq!(x, expect_x, "solve sharing the batch deviates");
    assert_eq!(fine, expect_loop, "loop job sharing the pattern deviates");

    // Containment, not contagion: the same runtime instance keeps serving
    // both patterns, bit-exact.
    let mut x2 = vec![0.0; n_solve];
    let mut loop2 = vec![0.0; n_loop];
    rt.submit(Job::<NoBody>::solve(&f, &b, &mut x2)).unwrap();
    rt.submit(Job::looped(&spec, &good, &mut loop2)).unwrap();
    assert_eq!(x2, expect_x);
    assert_eq!(loop2, expect_loop);

    let stats = rt.stats();
    assert_eq!(stats.body_panics, 1, "exactly one contained panic counted");
    assert_eq!(stats.circuit_open, 0, "one failure must not trip a breaker");
}

/// `x(i) = 1 + x(i-1) / 2`, spinning `spin` of wall time per iteration and
/// counting its evaluations.
struct SlowChain {
    spin: Duration,
    evals: AtomicUsize,
}

impl LoopBody for SlowChain {
    fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
        self.evals.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        while t0.elapsed() < self.spin {
            std::hint::spin_loop();
        }
        if i == 0 {
            1.0
        } else {
            1.0 + src.get(i - 1) / 2.0
        }
    }
}

/// A sequential loop job is interrupted at the executor's cancellation
/// points like every parallel one: its deadline passes mid-run, the job
/// answers `DeadlineExceeded` long before its last iteration, and the same
/// runtime then serves the pattern bit-exactly.
#[test]
fn sequential_loop_job_stops_at_its_deadline_mid_run() {
    let n = 4096;
    let chain: Vec<Vec<u32>> = (0..n as u32)
        .map(|i| i.checked_sub(1).into_iter().collect())
        .collect();
    let spec = LoopSpec::new(DepGraph::from_lists(n, chain).unwrap());
    let rt = Runtime::new(RuntimeConfig {
        policy: Some(ExecutorKind::Sequential),
        ..test_cfg()
    });
    let fast = || SlowChain {
        spin: Duration::ZERO,
        evals: AtomicUsize::new(0),
    };
    let mut expect = vec![0.0; n];
    for i in 0..n {
        expect[i] = if i == 0 {
            1.0
        } else {
            1.0 + expect[i - 1] / 2.0
        };
    }
    // Build the plan first, so the deadline is spent running, not inspecting.
    let mut out = vec![0.0; n];
    rt.submit(Job::looped(&spec, &fast(), &mut out)).unwrap();
    assert_eq!(out, expect);

    // ~50 µs an iteration: ~200 ms to finish, against a 5 ms deadline.
    let slow = SlowChain {
        spin: Duration::from_micros(50),
        evals: AtomicUsize::new(0),
    };
    let job = Job::looped(&spec, &slow, &mut out)
        .with_deadline(Instant::now() + Duration::from_millis(5));
    assert_eq!(rt.submit(job).unwrap_err(), RuntimeError::DeadlineExceeded);
    let evals = slow.evals.load(Ordering::Relaxed);
    assert!(evals < n, "the run went on to iteration {evals} of {n}");
    assert_eq!(rt.stats().deadline_expired, 1);

    let mut again = vec![0.0; n];
    let outcome = rt.submit(Job::looped(&spec, &fast(), &mut again)).unwrap();
    assert_eq!(outcome.policy, ExecutorKind::Sequential);
    assert_eq!(
        again, expect,
        "the pattern serves bit-exactly after the expiry"
    );
}

/// A deadline that can only expire in the queue is answered typed —
/// `DEADLINE_EXCEEDED`, never a hang, never a solve — and counted.
#[test]
fn server_expires_queued_jobs_typed() {
    let mut cfg = ServerConfig {
        runtime: test_cfg(),
        ..ServerConfig::default()
    };
    cfg.job_deadline = Some(Duration::ZERO); // expired the moment it queues
    let server = Server::spawn(cfg).unwrap();
    let f = ilu0(&laplacian_5pt(6, 5)).unwrap();
    let b = rhs(f.n(), 2);

    let mut client = Client::connect(server.addr()).unwrap();
    match client.solve(&f.l, &f.u, &b).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, err_code::DEADLINE_EXCEEDED),
        other => panic!("expected a deadline error, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.accepted_jobs, 1);
    assert_eq!(stats.answered_jobs, 1, "expired jobs still count answered");
    assert_eq!(stats.expired_jobs, 1);
    server.shutdown().unwrap();
}

/// Connection deadlines reclaim reader threads from both failure shapes:
/// a peer that opens a frame and stalls (slowloris) and a peer that goes
/// silent at a frame boundary under an idle bound.
#[test]
fn stalled_and_idle_connections_are_closed_and_counted() {
    let mut cfg = ServerConfig {
        runtime: test_cfg(),
        ..ServerConfig::default()
    };
    cfg.idle_timeout = Some(Duration::from_millis(60));
    cfg.frame_timeout = Some(Duration::from_millis(60));
    let server = Server::spawn(cfg).unwrap();

    // Slowloris: 2 bytes of a length prefix, then nothing.
    let mut stall = TcpStream::connect(server.addr()).unwrap();
    stall.write_all(&[0x10, 0x00]).unwrap();
    // Idle: a connection that never sends a byte.
    let idle = TcpStream::connect(server.addr()).unwrap();

    let t0 = Instant::now();
    while (server.stats().closed_stalled < 1 || server.stats().closed_idle < 1)
        && t0.elapsed() < Duration::from_secs(5)
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = server.stats();
    assert_eq!(stats.closed_stalled, 1, "mid-frame stall must be reclaimed");
    assert_eq!(stats.closed_idle, 1, "idle bound must close the quiet peer");
    drop(stall);
    drop(idle);

    // The server still serves new clients afterwards.
    let f = ilu0(&laplacian_5pt(5, 5)).unwrap();
    let b = rhs(f.n(), 3);
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(matches!(
        client.solve(&f.l, &f.u, &b).unwrap(),
        Response::Solved { .. }
    ));
    server.shutdown().unwrap();
}

/// Every failure counter is present in the metrics text — the whole
/// containment layer is observable from the wire without reading code.
#[test]
fn metrics_text_lists_every_failure_counter() {
    let server = Server::spawn(ServerConfig {
        runtime: test_cfg(),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let text = match client.call(&Request::Stats).unwrap() {
        Response::StatsText { text } => text,
        other => panic!("{other:?}"),
    };
    for key in [
        // Server edge.
        "rtpl_server_connections",
        "rtpl_server_accepted_jobs",
        "rtpl_server_answered_jobs",
        "rtpl_server_rejected_queue",
        "rtpl_server_rejected_quota",
        "rtpl_server_rejected_draining",
        "rtpl_server_registered_patterns",
        "rtpl_server_registry_evictions",
        "rtpl_server_expired_jobs",
        "rtpl_server_closed_idle",
        "rtpl_server_closed_stalled",
        "rtpl_failpoint_trips",
        // Runtime failure containment.
        "rtpl_body_panics",
        "rtpl_deadline_expired",
        "rtpl_circuit_open",
        "rtpl_pool_rebuilds",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(key)),
            "metrics text missing {key:?}:\n{text}"
        );
    }
    server.shutdown().unwrap();
}
