//! Acceptance tests for the TCP front door (PR 6 tentpole): end-to-end
//! solves over loopback, backpressure under saturation, per-client
//! quotas, and graceful drain under concurrent load.
//!
//! The invariants, per the admission design:
//! * a saturated queue answers with typed `RetryAfter` — it never hangs
//!   the client and never buffers unboundedly;
//! * every request the server *accepts* is answered, even when a drain
//!   begins mid-load;
//! * solved values are bit-exact with a local sequential solve.

use rtpl::runtime::{Job, NoBody, Runtime, RuntimeConfig};
use rtpl::server::proto::{Request, Response, RetryReason, WarmLevel};
use rtpl::server::{Client, ClientError, Server, ServerConfig};
use rtpl::sparse::gen::laplacian_5pt;
use rtpl::sparse::{ilu0, IluFactors};
use rtpl::workload::requests::pattern_set;
use std::time::{Duration, Instant};

fn test_server_config() -> ServerConfig {
    ServerConfig {
        runtime: RuntimeConfig {
            nprocs: 2,
            calibrate: false,
            ..RuntimeConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn test_factors() -> (IluFactors, Vec<f64>) {
    let f = ilu0(&laplacian_5pt(7, 6)).unwrap();
    let n = f.n();
    let b = (0..n).map(|i| 1.0 + (i % 13) as f64 * 0.07).collect();
    (f, b)
}

/// Local sequential reference through the same runtime code path the
/// server uses, so bit-exactness is a statement about the *wire*, not
/// about executor-policy agreement (that's `compiled_plans.rs`).
fn reference_solve(f: &IluFactors, b: &[f64]) -> Vec<f64> {
    let rt = Runtime::new(RuntimeConfig {
        nprocs: 1,
        calibrate: false,
        ..RuntimeConfig::default()
    });
    let mut x = vec![0.0; f.n()];
    rt.submit(Job::<NoBody>::solve(f, b, &mut x)).unwrap();
    x
}

/// Cold solve → warm check → fingerprint solve: the intended client flow,
/// with every answer bit-exact against a local solve.
#[test]
fn solve_warmcheck_fingerprint_flow_is_bit_exact() {
    let server = Server::spawn(test_server_config()).unwrap();
    let (f, b) = test_factors();
    let key = Runtime::solve_key(&f);
    let expect = reference_solve(&f, &b);

    let mut client = Client::connect(server.addr()).unwrap();
    // Cold: the pattern is unknown.
    match client.warm_check(key).unwrap() {
        Response::WarmStatus { level } => {
            assert_eq!(level, WarmLevel::Cold, "pattern warm before any solve")
        }
        other => panic!("{other:?}"),
    }
    // A fingerprint solve before registration is a typed error.
    match client.solve_by_fingerprint(key, &b).unwrap() {
        Response::Error { code, .. } => {
            assert_eq!(code, rtpl::server::proto::err_code::UNKNOWN_PATTERN)
        }
        other => panic!("{other:?}"),
    }
    // Ship the factors once.
    match client.solve(&f.l, &f.u, &b).unwrap() {
        Response::Solved { x, .. } => assert_eq!(x, expect, "cold solve deviates"),
        other => panic!("{other:?}"),
    }
    // Now the pattern is warm and fingerprint solves work — from a
    // *different* connection too (server-side state, not per-conn).
    let mut second = Client::connect(server.addr()).unwrap();
    match second.warm_check(key).unwrap() {
        Response::WarmStatus { level } => {
            assert_eq!(level, WarmLevel::Memory, "pattern cold after a solve")
        }
        other => panic!("{other:?}"),
    }
    match second.solve_by_fingerprint(key, &b).unwrap() {
        Response::Solved { x, cached, .. } => {
            assert_eq!(x, expect, "warm solve deviates");
            assert!(
                cached,
                "second solve of the same pattern missed the plan cache"
            );
        }
        other => panic!("{other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.accepted_jobs, 2);
    assert_eq!(stats.answered_jobs, 2);
    let text = server.metrics_text();
    for needle in [
        "rtpl_server_answered_jobs 2",
        "rtpl_server_latency_solve_count 1",
        // 2: the pre-registration UNKNOWN_PATTERN rejection counts too.
        "rtpl_server_latency_solve_by_fingerprint_count 2",
        "rtpl_server_latency_warm_check_count 2",
        "rtpl_solve_cache_hits",
    ] {
        assert!(
            text.contains(needle),
            "metrics text missing {needle:?}:\n{text}"
        );
    }
    server.shutdown().unwrap();
}

/// Saturating a tiny queue yields typed `RetryAfter(QueueFull)` responses
/// — one answer per request, nothing hangs, and every accepted solve is
/// still answered bit-exactly.
#[test]
fn queue_saturation_rejects_with_retry_after() {
    let mut cfg = test_server_config();
    cfg.queue_depth = 2;
    cfg.client_inflight = 64; // quota out of the way: this test is about the queue
    cfg.gather_window = Duration::from_millis(40); // hold the queue full
    let server = Server::spawn(cfg).unwrap();
    let (f, b) = test_factors();
    let expect = reference_solve(&f, &b);
    let key = Runtime::solve_key(&f);

    let mut client = Client::connect(server.addr()).unwrap();
    // Register the pattern (and let the batch clear).
    match client.solve(&f.l, &f.u, &b).unwrap() {
        Response::Solved { .. } => {}
        other => panic!("{other:?}"),
    }
    // Pipeline far more than the queue holds, without reading.
    let total = 16;
    for _ in 0..total {
        client
            .send(&Request::SolveByFingerprint { key, b: b.clone() })
            .unwrap();
    }
    let mut solved = 0;
    let mut rejected = 0;
    for _ in 0..total {
        match client.recv().unwrap().1 {
            Response::Solved { x, .. } => {
                assert_eq!(x, expect, "saturated solve deviates");
                solved += 1;
            }
            Response::RetryAfter { retry_ms, reason } => {
                assert_eq!(reason, RetryReason::QueueFull);
                assert!(retry_ms > 0);
                rejected += 1;
            }
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(solved + rejected, total, "an answer went missing");
    assert!(
        rejected > 0,
        "queue depth 2 never rejected {total} pipelined solves"
    );
    assert!(solved > 0, "backpressure starved everything");
    assert_eq!(server.stats().rejected_queue, rejected);
    server.shutdown().unwrap();
}

/// A client over its in-flight quota gets `RetryAfter(QuotaExceeded)`,
/// and honoring the suggested delay eventually lands every solve.
#[test]
fn quota_exceeded_is_typed_and_retryable() {
    let mut cfg = test_server_config();
    cfg.client_inflight = 1;
    cfg.gather_window = Duration::from_millis(20);
    let server = Server::spawn(cfg).unwrap();
    let (f, b) = test_factors();
    let key = Runtime::solve_key(&f);

    let mut client = Client::connect(server.addr()).unwrap();
    match client.solve(&f.l, &f.u, &b).unwrap() {
        Response::Solved { .. } => {}
        other => panic!("{other:?}"),
    }
    // Two pipelined solves against a quota of one: the second must be
    // rejected with the quota reason (the queue has room).
    client
        .send(&Request::SolveByFingerprint { key, b: b.clone() })
        .unwrap();
    client
        .send(&Request::SolveByFingerprint { key, b: b.clone() })
        .unwrap();
    let mut kinds = Vec::new();
    for _ in 0..2 {
        match client.recv().unwrap().1 {
            Response::Solved { .. } => kinds.push("solved"),
            Response::RetryAfter { reason, .. } => {
                assert_eq!(reason, RetryReason::QuotaExceeded);
                kinds.push("rejected");
            }
            other => panic!("{other:?}"),
        }
    }
    kinds.sort_unstable();
    assert_eq!(kinds, ["rejected", "solved"]);
    // The polite path: retry on rejection until it lands.
    let (resp, _retries) = client
        .call_retrying(&Request::SolveByFingerprint { key, b: b.clone() })
        .unwrap();
    assert!(matches!(resp, Response::Solved { .. }));
    assert!(server.stats().rejected_quota >= 1);
    server.shutdown().unwrap();
}

/// Shutdown mid-load: every accepted request is answered (drain), late
/// requests are rejected as `Draining`, and the connection then closes
/// cleanly — clients are never left hanging.
#[test]
fn graceful_drain_answers_everything_accepted() {
    let mut cfg = test_server_config();
    cfg.gather_window = Duration::from_millis(10);
    let server = Server::spawn(cfg).unwrap();
    let (f, b) = test_factors();
    let expect = reference_solve(&f, &b);
    let key = Runtime::solve_key(&f);

    let mut client = Client::connect(server.addr()).unwrap();
    match client.solve(&f.l, &f.u, &b).unwrap() {
        Response::Solved { .. } => {}
        other => panic!("{other:?}"),
    }
    // Pipeline a burst, give the reader a moment to admit some of it,
    // then shut the server down while work is still in flight.
    let burst = 12;
    for _ in 0..burst {
        client
            .send(&Request::SolveByFingerprint { key, b: b.clone() })
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(30));
    let shutdown = std::thread::spawn(move || {
        server.shutdown().unwrap();
        server
    });
    // Every request the server *read* gets exactly one answer — Solved
    // (accepted before the drain) or RetryAfter(Draining) — and then the
    // connection closes cleanly. Frames still in the socket buffer when
    // the server closes were never accepted, so fewer than `burst`
    // answers is legal; a hang or a garbage answer is not.
    let mut solved = 0;
    let mut draining = 0;
    loop {
        match client.recv() {
            Ok((_, Response::Solved { x, .. })) => {
                assert_eq!(x, expect, "drained solve deviates");
                solved += 1;
            }
            Ok((_, Response::RetryAfter { reason, .. })) => {
                assert_eq!(reason, RetryReason::Draining);
                draining += 1;
            }
            Ok((_, other)) => panic!("{other:?}"),
            Err(ClientError::Closed) | Err(ClientError::Io(_)) => break,
            Err(other) => panic!("{other:?}"),
        }
    }
    assert!(solved + draining <= burst);
    assert!(solved >= 1, "nothing was accepted before the drain");
    let server = shutdown.join().unwrap();
    let stats = server.stats();
    assert_eq!(
        stats.accepted_jobs, stats.answered_jobs,
        "drain left accepted jobs unanswered"
    );
    // Idempotent shutdown.
    server.shutdown().unwrap();
}

/// The wire-level `Shutdown` request drains and acknowledges — when the
/// server has opted in.
#[test]
fn wire_shutdown_drains_and_acks() {
    let mut cfg = test_server_config();
    cfg.allow_remote_shutdown = true;
    let server = Server::spawn(cfg).unwrap();
    let (f, b) = test_factors();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.solve(&f.l, &f.u, &b).unwrap() {
        Response::Solved { .. } => {}
        other => panic!("{other:?}"),
    }
    match client.shutdown().unwrap() {
        Response::ShutdownAck => {}
        other => panic!("{other:?}"),
    }
    // Post-drain solves are rejected as Draining, not executed.
    match client.solve(&f.l, &f.u, &b).unwrap() {
        Response::RetryAfter { reason, .. } => assert_eq!(reason, RetryReason::Draining),
        other => panic!("{other:?}"),
    }
    assert!(server.stats().rejected_draining >= 1);
    server.shutdown().unwrap();
}

/// By default any client can connect, so the unauthenticated wire
/// `Shutdown` must not put the server into its (irreversible) drain: it
/// is refused with a typed error and service continues.
#[test]
fn wire_shutdown_is_refused_unless_opted_in() {
    let server = Server::spawn(test_server_config()).unwrap();
    let (f, b) = test_factors();
    let expect = reference_solve(&f, &b);
    let mut client = Client::connect(server.addr()).unwrap();
    match client.shutdown().unwrap() {
        Response::Error { code, .. } => {
            assert_eq!(code, rtpl::server::proto::err_code::SHUTDOWN_DISABLED)
        }
        other => panic!("{other:?}"),
    }
    // The server is still fully serving — no drain happened.
    match client.solve(&f.l, &f.u, &b).unwrap() {
        Response::Solved { x, .. } => assert_eq!(x, expect),
        other => panic!("{other:?}"),
    }
    assert_eq!(server.stats().rejected_draining, 0);
    server.shutdown().unwrap();
}

/// Re-shipping a pattern with new numeric values (refactorized factors on
/// an unchanged structure — a flow the runtime explicitly supports) must
/// solve against the *new* values, both for that request and for every
/// later `SolveByFingerprint`.
#[test]
fn reshipped_factors_replace_registered_values() {
    let server = Server::spawn(test_server_config()).unwrap();
    let (f, b) = test_factors();
    let key = Runtime::solve_key(&f);
    let mut refactored = IluFactors {
        l: f.l.clone(),
        u: f.u.clone(),
    };
    for v in refactored.l.data_mut() {
        *v *= 1.5;
    }
    for v in refactored.u.data_mut() {
        *v *= 0.75;
    }
    assert_eq!(
        Runtime::solve_key(&refactored),
        key,
        "scaling values must not change the pattern"
    );
    let expect_old = reference_solve(&f, &b);
    let expect_new = reference_solve(&refactored, &b);
    assert_ne!(expect_old, expect_new);

    let mut client = Client::connect(server.addr()).unwrap();
    match client.solve(&f.l, &f.u, &b).unwrap() {
        Response::Solved { x, .. } => assert_eq!(x, expect_old),
        other => panic!("{other:?}"),
    }
    match client.solve(&refactored.l, &refactored.u, &b).unwrap() {
        Response::Solved { x, .. } => {
            assert_eq!(x, expect_new, "re-shipped Solve answered with stale values")
        }
        other => panic!("{other:?}"),
    }
    match client.solve_by_fingerprint(key, &b).unwrap() {
        Response::Solved { x, .. } => assert_eq!(
            x, expect_new,
            "fingerprint solve served first-shipped values after a re-ship"
        ),
        other => panic!("{other:?}"),
    }
    server.shutdown().unwrap();
}

/// Singular values cost the server one inspection, not one per request:
/// a shipped zero pivot is a typed runtime error on a connection that
/// stays usable, the pattern's plan (built from structure alone) is
/// already warm, and good values for the same pattern then solve from
/// cache, bit-exact.
#[test]
fn singular_factors_fail_the_solve_and_keep_the_plan() {
    let server = Server::spawn(test_server_config()).unwrap();
    let (f, b) = test_factors();
    let key = Runtime::solve_key(&f);
    let mut singular = f.clone();
    let diag = singular.u.indptr()[3];
    assert_eq!(
        singular.u.row_indices(3)[0],
        3,
        "row 3 leads with its diagonal"
    );
    singular.u.data_mut()[diag] = 0.0;
    assert_eq!(Runtime::solve_key(&singular), key);

    let mut client = Client::connect(server.addr()).unwrap();
    match client.solve(&singular.l, &singular.u, &b).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, rtpl::server::proto::err_code::RUNTIME, "{message}");
            assert!(message.contains("pivot"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    match client.warm_check(key).unwrap() {
        Response::WarmStatus { level } => {
            assert_eq!(level, WarmLevel::Memory, "the plan survives bad values")
        }
        other => panic!("{other:?}"),
    }
    match client.solve(&f.l, &f.u, &b).unwrap() {
        Response::Solved { x, cached, .. } => {
            assert_eq!(x, reference_solve(&f, &b));
            assert!(cached, "good values re-inspected a pattern already planned");
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(server.runtime().stats().solves.builds, 1);
    server.shutdown().unwrap();
}

/// The factor registry is bounded: shipping more patterns than
/// `registry_capacity` evicts the least-recently-used one, which then
/// answers `UNKNOWN_PATTERN` (the client's cue to re-ship) — server
/// memory never grows with the number of distinct patterns ever seen.
#[test]
fn registry_is_bounded_and_evicts_lru() {
    let mut cfg = test_server_config();
    cfg.registry_capacity = 2;
    let server = Server::spawn(cfg).unwrap();
    let factors: Vec<IluFactors> = pattern_set(3, 6, 55)
        .iter()
        .map(|m| IluFactors {
            l: m.strict_lower(),
            u: m.transpose().upper(),
        })
        .collect();
    let n = factors[0].n();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.11).collect();

    let mut client = Client::connect(server.addr()).unwrap();
    for f in &factors {
        match client.solve(&f.l, &f.u, &b).unwrap() {
            Response::Solved { .. } => {}
            other => panic!("{other:?}"),
        }
    }
    // The third pattern evicted the least-recently-used (the first).
    let k0 = Runtime::solve_key(&factors[0]);
    match client.warm_check(k0).unwrap() {
        // No store attached: eviction falls all the way back to cold.
        Response::WarmStatus { level } => {
            assert_eq!(level, WarmLevel::Cold, "evicted pattern reported warm")
        }
        other => panic!("{other:?}"),
    }
    match client.solve_by_fingerprint(k0, &b).unwrap() {
        Response::Error { code, .. } => {
            assert_eq!(code, rtpl::server::proto::err_code::UNKNOWN_PATTERN)
        }
        other => panic!("{other:?}"),
    }
    // The two most recent patterns still serve by fingerprint.
    for f in &factors[1..] {
        match client
            .solve_by_fingerprint(Runtime::solve_key(f), &b)
            .unwrap()
        {
            Response::Solved { x, .. } => assert_eq!(x, reference_solve(f, &b)),
            other => panic!("{other:?}"),
        }
    }
    let stats = server.stats();
    assert_eq!(stats.registered_patterns, 2);
    assert_eq!(stats.registry_evictions, 1);
    server.shutdown().unwrap();
}

/// Several clients hammering concurrently: all answers arrive, all solved
/// values are bit-exact, and cross-client batching shows up in the
/// runtime's batch counters — both with no hold (readers admit while the
/// previous batch's replies go out) and with a 5 ms hold.
#[test]
fn concurrent_clients_are_answered_and_bit_exact() {
    let patterns = pattern_set(3, 6, 55);
    let factors: Vec<IluFactors> = patterns
        .iter()
        .map(|m| IluFactors {
            l: m.strict_lower(),
            u: m.transpose().upper(),
        })
        .collect();
    let n = factors[0].n();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.11).collect();
    let expects: Vec<Vec<f64>> = factors.iter().map(|f| reference_solve(f, &b)).collect();

    for window in [
        ServerConfig::default().gather_window,
        Duration::from_millis(5),
    ] {
        let mut cfg = test_server_config();
        cfg.gather_window = window;
        let server = Server::spawn(cfg).unwrap();
        let addr = server.addr();
        std::thread::scope(|scope| {
            for c in 0..4usize {
                let factors = &factors;
                let expects = &expects;
                let b = &b;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for i in 0..12 {
                        let p = (c + i) % factors.len();
                        let (resp, _) = client
                            .call_retrying(&Request::Solve {
                                l: factors[p].l.clone(),
                                u: factors[p].u.clone(),
                                b: b.clone(),
                            })
                            .unwrap();
                        match resp {
                            Response::Solved { x, .. } => {
                                assert_eq!(x, expects[p], "{window:?}: client {c} req {i} deviates")
                            }
                            other => panic!("{window:?}: client {c} req {i}: {other:?}"),
                        }
                    }
                });
            }
        });
        let stats = server.stats();
        assert_eq!(stats.accepted_jobs, 48, "{window:?}");
        assert_eq!(stats.answered_jobs, 48, "{window:?}");
        let rt = server.runtime().stats();
        assert!(rt.batches > 0, "{window:?}");
        assert_eq!(rt.batch_jobs, 48, "{window:?}");
        server.shutdown().unwrap();
    }
}

/// A hold is a bounded wait on the queue, not a sleep: a drain ends it at
/// once, so a server configured with a 30 s window still answers its
/// queued solve and shuts down promptly.
#[test]
fn a_drain_ends_the_gather_hold() {
    let mut cfg = test_server_config();
    cfg.gather_window = Duration::from_secs(30);
    let server = Server::spawn(cfg).unwrap();
    let (f, b) = test_factors();
    let expect = reference_solve(&f, &b);

    let mut client = Client::connect(server.addr()).unwrap();
    client
        .send(&Request::Solve {
            l: f.l.clone(),
            u: f.u.clone(),
            b: b.clone(),
        })
        .unwrap();
    // The solve must be queued (not rejected as draining) before the drain.
    let admitted = Instant::now();
    while server.stats().accepted_jobs == 0 {
        assert!(
            admitted.elapsed() < Duration::from_secs(10),
            "the solve was never admitted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let start = Instant::now();
    server.shutdown().unwrap();
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "shutdown waited {took:?} on the hold"
    );
    match client.recv().unwrap().1 {
        Response::Solved { x, .. } => assert_eq!(x, expect, "held solve deviates"),
        other => panic!("{other:?}"),
    }
}

/// The `WarmCheck` ladder across a server restart: memory-warm while the
/// first server holds the factors, disk-warm once only the plan store
/// survives, memory-warm again after the factors are re-shipped (their
/// plan decoded from the store, not re-inspected) — same bits both times.
#[test]
fn warm_ladder_survives_a_server_restart() {
    let path = std::env::temp_dir().join(format!("rtpl_loopback_ladder_{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = || {
        let mut cfg = test_server_config();
        cfg.runtime.store_path = Some(path.clone());
        // No background warm thread: it would race the request to the
        // store, and the ladder below must see the request pay the decode.
        cfg.warm_limit = 0;
        cfg
    };
    let (f, b) = test_factors();
    let key = Runtime::solve_key(&f);
    let expect = reference_solve(&f, &b);
    let level = |client: &mut Client| match client.warm_check(key).unwrap() {
        Response::WarmStatus { level } => level,
        other => panic!("warm check answered {other:?}"),
    };
    let solve = |client: &mut Client| match client.solve(&f.l, &f.u, &b).unwrap() {
        Response::Solved { x, .. } => x,
        other => panic!("solve answered {other:?}"),
    };

    let server = Server::spawn(cfg()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(level(&mut client), WarmLevel::Cold);
    assert_eq!(solve(&mut client), expect);
    assert_eq!(level(&mut client), WarmLevel::Memory);
    drop(client);
    server.shutdown().unwrap(); // flushes the store

    let server = Server::spawn(cfg()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(level(&mut client), WarmLevel::Disk);
    assert_eq!(solve(&mut client), expect);
    assert_eq!(level(&mut client), WarmLevel::Memory);
    assert_eq!(server.runtime().stats().store_hits, 1);
    drop(client);
    server.shutdown().unwrap();
    let _ = std::fs::remove_file(&path);
}
