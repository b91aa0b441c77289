//! Chaos harness: a loopback server under concurrent clients while a
//! fault thread arms and clears fail points at random — dropped accepts,
//! dying reads and writes, dropped store appends, panicking executor
//! bodies.
//!
//! The contract under chaos, per the failure-containment design:
//!
//! * every reply that *is* a solution is bit-exact with a local solve —
//!   faults may fail a request, they may never corrupt one;
//! * every failure a client observes is typed: a known error code, a
//!   `RetryAfter`, or a visibly dead connection (reconnect and retry) —
//!   never a silent wrong answer;
//! * the server itself survives: once the faults clear, it drains with
//!   `accepted == answered` and still serves;
//! * nothing hangs: a watchdog aborts the process if the run wedges.
//!
//! The fault schedule is driven by `CHAOS_SEED` (decimal, default
//! `900913`), so CI can pin one seed for reproducibility and probe others
//! cheaply.

use rtpl::failpoint;
use rtpl::runtime::{Job, NoBody, Runtime, RuntimeConfig};
use rtpl::server::proto::{err_code, Response};
use rtpl::server::{Client, Server, ServerConfig};
use rtpl::sparse::gen::laplacian_5pt;
use rtpl::sparse::rng::SmallRng;
use rtpl::sparse::{ilu0, IluFactors};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 40;
/// Bound on reconnect-and-retry attempts per request; a healthy run needs
/// a handful, an unbounded loop would mask a hang.
const MAX_ATTEMPTS_PER_REQUEST: usize = 50;

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(900_913)
}

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

/// The fault palette: every site the containment layer defends. Modes are
/// kept sub-certain (`OneIn`) for the connection-level points so progress
/// stays possible while a point is armed.
const FAULTS: [(&str, u64); 5] = [
    ("server.accept", 3),
    ("server.read", 4),
    ("server.write", 4),
    ("store.write", 2),
    ("exec.body_panic", 5),
];

#[test]
fn chaos_faults_never_corrupt_and_always_answer() {
    let seed = chaos_seed();
    let store_path = std::env::temp_dir().join(format!("rtpl_chaos_{}.store", std::process::id()));
    let _ = std::fs::remove_file(&store_path);
    let cfg = ServerConfig {
        runtime: RuntimeConfig {
            nprocs: 2,
            calibrate: false,
            store_path: Some(store_path.clone()),
            ..RuntimeConfig::default()
        },
        frame_timeout: Some(Duration::from_secs(5)),
        ..ServerConfig::default()
    };
    let server = Arc::new(Server::spawn(cfg).unwrap());

    // Two patterns, fixed rhs each, references computed locally once.
    let problems: Vec<(IluFactors, Vec<f64>, Vec<f64>)> = [(7, 6), (6, 5)]
        .into_iter()
        .map(|(nx, ny)| {
            let f = ilu0(&laplacian_5pt(nx, ny)).unwrap();
            let b: Vec<f64> = (0..f.n()).map(|i| 1.0 + (i % 11) as f64 * 0.09).collect();
            let x = reference_solve(&f, &b);
            (f, b, x)
        })
        .collect();
    let problems = Arc::new(problems);

    // Watchdog: the whole run, including drain, must finish well within
    // this bound or the process dies loudly instead of wedging CI.
    let done = Arc::new(AtomicBool::new(false));
    {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for _ in 0..120 {
                std::thread::sleep(Duration::from_secs(1));
                if done.load(Ordering::SeqCst) {
                    return;
                }
            }
            eprintln!("chaos watchdog: run wedged (seed {seed}); aborting");
            std::process::abort();
        });
    }

    // The fault thread: random rounds of arm-some / clear-all.
    let stop_chaos = Arc::new(AtomicBool::new(false));
    let chaos = {
        let stop = Arc::clone(&stop_chaos);
        std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(seed);
            while !stop.load(Ordering::SeqCst) {
                for &(name, one_in) in &FAULTS {
                    if rng.gen_f64() < 0.5 {
                        failpoint::configure(name, failpoint::Mode::OneIn(one_in));
                    }
                }
                std::thread::sleep(Duration::from_millis(25));
                failpoint::clear_all();
                std::thread::sleep(Duration::from_millis(5));
            }
            failpoint::clear_all();
        })
    };

    let solved = Arc::new(AtomicU64::new(0));
    let typed_failures = Arc::new(AtomicU64::new(0));
    let transport_failures = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let server = Arc::clone(&server);
            let problems = Arc::clone(&problems);
            let solved = Arc::clone(&solved);
            let typed_failures = Arc::clone(&typed_failures);
            let transport_failures = Arc::clone(&transport_failures);
            let mut rng = SmallRng::seed_from_u64(seed ^ (0xC11E47 + c as u64));
            std::thread::spawn(move || {
                let mut client: Option<Client> = None;
                for r in 0..REQUESTS_PER_CLIENT {
                    let (f, b, expect) = &problems[rng.gen_range_usize(0, problems.len())];
                    let key = Runtime::solve_key(f);
                    let mut attempts = 0;
                    loop {
                        attempts += 1;
                        assert!(
                            attempts <= MAX_ATTEMPTS_PER_REQUEST,
                            "client {c} request {r}: no answer after {attempts} attempts \
                             (seed {seed})"
                        );
                        let conn = match client.as_mut() {
                            Some(conn) => conn,
                            None => match Client::connect(server.addr()) {
                                Ok(conn) => client.insert(conn),
                                Err(_) => {
                                    // Accept faulted: back off and retry.
                                    transport_failures.fetch_add(1, Ordering::Relaxed);
                                    std::thread::sleep(Duration::from_millis(2));
                                    continue;
                                }
                            },
                        };
                        // Mix warm (fingerprint) and cold (full) solves.
                        let warm = rng.gen_f64() < 0.5;
                        let resp = if warm {
                            conn.solve_by_fingerprint(key, b)
                        } else {
                            conn.solve(&f.l, &f.u, b)
                        };
                        match resp {
                            Ok(Response::Solved { x, .. }) => {
                                assert_eq!(
                                    &x, expect,
                                    "client {c} request {r}: corrupt solution under chaos \
                                     (seed {seed})"
                                );
                                solved.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Ok(Response::Error { code, message }) => {
                                // Every in-band failure must be typed.
                                assert!(
                                    [
                                        err_code::RUNTIME,
                                        err_code::UNKNOWN_PATTERN,
                                        err_code::DEADLINE_EXCEEDED,
                                        err_code::BODY_PANICKED,
                                        err_code::CIRCUIT_OPEN,
                                    ]
                                    .contains(&code),
                                    "client {c}: unexpected error code {code} ({message})"
                                );
                                typed_failures.fetch_add(1, Ordering::Relaxed);
                                if code == err_code::CIRCUIT_OPEN {
                                    std::thread::sleep(Duration::from_millis(10));
                                }
                            }
                            Ok(Response::RetryAfter { retry_ms, .. }) => {
                                typed_failures.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_millis(u64::from(retry_ms)));
                            }
                            Ok(other) => panic!("client {c}: unexpected response {other:?}"),
                            Err(_) => {
                                // The connection died (read/write fault):
                                // visible, not silent — reconnect.
                                transport_failures.fetch_add(1, Ordering::Relaxed);
                                client = None;
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("a chaos client panicked");
    }
    stop_chaos.store(true, Ordering::SeqCst);
    chaos.join().unwrap();
    failpoint::clear_all();

    // Faults are gone: a fresh connection is served, bit-exact.
    {
        let (f, b, expect) = &problems[0];
        let mut client = Client::connect(server.addr()).unwrap();
        match client.solve(&f.l, &f.u, b).unwrap() {
            Response::Solved { x, .. } => assert_eq!(&x, expect),
            other => panic!("post-chaos solve failed: {other:?}"),
        }
    }

    // And the drain settles clean: nothing accepted was left unanswered.
    server.drain();
    let stats = server.stats();
    assert_eq!(
        stats.accepted_jobs, stats.answered_jobs,
        "every accepted request must be answered (seed {seed})"
    );
    let total_solved = solved.load(Ordering::Relaxed);
    assert_eq!(
        total_solved,
        (CLIENTS * REQUESTS_PER_CLIENT) as u64,
        "every request eventually solved (seed {seed})"
    );
    println!(
        "chaos run (seed {seed}): {total_solved} solved, {} typed failures, {} transport \
         failures, {} fail-point trips",
        typed_failures.load(Ordering::Relaxed),
        transport_failures.load(Ordering::Relaxed),
        failpoint::trips(),
    );
    server.shutdown().unwrap();
    done.store(true, Ordering::SeqCst);
    let _ = std::fs::remove_file(&store_path);
}
