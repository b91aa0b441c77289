//! # rtpl-server — the TCP front door of the solver service
//!
//! The paper's economics are amortization: one inspection, many
//! executions. `rtpl-runtime` realizes that inside a process — a plan
//! cache in front of the inspector, batched submission in front of the
//! executors. This crate adds the missing boundary: a network edge, so the
//! *same* cached plans and the *same* batching amortize across clients
//! and connections, not just across call sites.
//!
//! Everything is `std`-only and hand-rolled: a length-prefixed, versioned
//! binary protocol over `std::net::TcpListener`, log-bucketed latency
//! histograms, and a plaintext metrics listener.
//!
//! ## Architecture
//!
//! ```text
//!             TCP clients (N connections)
//!                  │ frames ([`proto`])
//!        per-connection reader threads
//!                  │ admission: in-flight quota → queue depth
//!                  ▼       (reject = typed RetryAfter, never buffering)
//!          bounded job queue ──▶ dispatcher thread
//!                                   │ everything queued, up to
//!                                   │ `max_batch` jobs at once
//!                                   ▼
//!                       `Runtime::submit_batch`
//!                                   │ fingerprint-grouped execution
//!                                   ▼
//!        per-connection writer threads ──▶ responses
//! ```
//!
//! * **Wire protocol** ([`proto`]): five request kinds. `Solve` ships CSR
//!   factors + right-hand side; `WarmCheck` ships only a
//!   [`rtpl_sparse::PatternFingerprint`] and answers with a
//!   [`WarmLevel`] — memory-warm (rhs-only solves run now), disk-warm
//!   (the plan survives in the runtime's persistent store; shipping
//!   factors skips the inspection), or cold;
//!   `SolveByFingerprint` solves against server-held factors
//!   without re-shipping the pattern; `Stats` returns the metrics text;
//!   `Shutdown` drains gracefully — but only when the server opts in
//!   ([`ServerConfig::allow_remote_shutdown`], off by default, because the
//!   request is unauthenticated and a drain is irreversible). Values
//!   travel as raw IEEE-754 bits, so answers are bit-exact with a local
//!   solve.
//! * **Factor registry**: `Solve` registers its factors under their solve
//!   fingerprint; re-shipping a pattern *replaces* them, so refactorized
//!   values on an unchanged structure are first-class. The registry is
//!   LRU-bounded ([`ServerConfig::registry_capacity`], mirroring the
//!   runtime's plan cache) — an evicted pattern answers
//!   `UNKNOWN_PATTERN` and the client falls back to a full `Solve`.
//! * **Admission control** ([`Server`]): a per-connection in-flight quota
//!   and a bounded queue. Both reject with [`proto::Response::RetryAfter`]
//!   — typed, immediate, and carrying a suggested delay — instead of
//!   buffering unboundedly. Draining rejects new work but answers every
//!   request already accepted.
//! * **Batching**: the dispatcher takes everything queued (up to
//!   [`ServerConfig::max_batch`]) the moment the queue is non-empty, so
//!   requests admitted while one batch runs — from *any* mix of
//!   connections — land together in the next
//!   [`rtpl_runtime::Runtime::submit_batch`] call and the runtime's
//!   fingerprint grouping amortizes value gathers across clients. Batches
//!   grow with load; a lone request waits for nothing.
//!   [`ServerConfig::gather_window`] can hold each batch open longer.
//! * **Metrics** ([`Histogram`]): per-request-kind log-bucketed latency
//!   histograms plus the runtime's own counters
//!   ([`rtpl_runtime::RuntimeStats::render_plaintext`]), served as
//!   plaintext on a second loopback listener.
//!
//! ## Failure containment at the edge
//!
//! The wire surface carries the runtime's containment semantics as typed
//! error frames: a panicking body answers
//! [`proto::err_code::BODY_PANICKED`] on the failing request alone, an
//! expired deadline ([`ServerConfig::job_deadline`]; jobs still queued
//! when they expire are answered without running) answers
//! [`proto::err_code::DEADLINE_EXCEEDED`], and a pattern whose circuit
//! breaker is open answers [`proto::err_code::CIRCUIT_OPEN`] — a client
//! can tell "retry later" from "this job is poisoned" without parsing
//! message text. Connections themselves have deadlines too:
//! [`ServerConfig::idle_timeout`] bounds quiet time at a frame boundary
//! and [`ServerConfig::frame_timeout`] bounds a stall mid-frame (the
//! slowloris shape), each closing the connection and counting
//! ([`ServerStats::closed_idle`] / [`ServerStats::closed_stalled`]).
//! The socket paths consult `rtpl_sparse::failpoint` sites
//! (`server.accept`, `server.read`, `server.write`) so the chaos
//! harness can kill connections at every seam; metrics expose the total
//! injected fault load as `rtpl_failpoint_trips`. The bundled [`Client`]
//! is bounded on every retry axis (capped attempts with a typed
//! [`ClientError::RetriesExhausted`], capped jittered sleeps).
//!
//! ## Quick start
//!
//! ```
//! use rtpl_server::{proto::Response, Client, Server, ServerConfig};
//! use rtpl_sparse::{gen::laplacian_5pt, ilu0};
//!
//! let mut cfg = ServerConfig::default();
//! cfg.runtime.calibrate = false; // fast startup for the example
//! let server = Server::spawn(cfg).unwrap();
//!
//! let f = ilu0(&laplacian_5pt(6, 5)).unwrap();
//! let b = vec![1.0; f.n()];
//! let mut client = Client::connect(server.addr()).unwrap();
//! // Cold: ship the factors once...
//! let x = match client.solve(&f.l, &f.u, &b).unwrap() {
//!     Response::Solved { x, .. } => x,
//!     other => panic!("{other:?}"),
//! };
//! // ...then warm solves go by fingerprint only.
//! let key = rtpl_runtime::Runtime::solve_key(&f);
//! let x2 = match client.solve_by_fingerprint(key, &b).unwrap() {
//!     Response::Solved { x, .. } => x,
//!     other => panic!("{other:?}"),
//! };
//! assert_eq!(x, x2);
//! server.shutdown().unwrap();
//! ```

pub mod client;
pub mod histogram;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError};
pub use histogram::Histogram;
pub use proto::{ProtoError, Request, Response, RetryReason, WarmLevel, WIRE_VERSION};
pub use server::{Server, ServerConfig, ServerStats};
