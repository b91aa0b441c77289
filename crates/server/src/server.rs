//! The service itself: listeners, admission control, the batching
//! dispatcher, and graceful drain.
//!
//! Thread structure (all plain `std::thread`, no async runtime):
//!
//! * one **accept** thread per listener (requests + metrics);
//! * per connection, a **reader** (decodes frames, answers cheap requests
//!   inline, admits solve jobs) and a **writer** (serializes responses from
//!   an `mpsc` channel, so the dispatcher never blocks on a slow client's
//!   socket);
//! * one **dispatcher** draining the bounded queue into
//!   [`Runtime::submit_batch`] as soon as it holds a job. Jobs admitted
//!   while a batch runs — from any mix of connections — form the next
//!   batch, so batches grow with load and the runtime's fingerprint
//!   grouping amortizes across clients, while a lone request waits for
//!   nothing (group commit). Replies go out after the queue lock is
//!   released.
//!
//! Admission is two checks, both rejecting with a typed
//! [`Response::RetryAfter`] instead of buffering: a per-connection
//! in-flight quota (one client cannot monopolize the queue) and the queue
//! depth bound (total buffered work is capped, so saturation costs memory
//! proportional to the cap, never the offered load).

use crate::histogram::Histogram;
use crate::proto::{self, err_code, Request, Response, RetryReason, WarmLevel, REQUEST_KINDS};
use rtpl_runtime::{Job, NoBody, Runtime, RuntimeConfig, RuntimeError};
use rtpl_sparse::failpoint;
use rtpl_sparse::{IluFactors, PatternFingerprint};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// The runtime the server fronts (cache shards, processor count, …).
    pub runtime: RuntimeConfig,
    /// Bound on queued solve jobs across all connections; pushes beyond it
    /// are rejected with [`RetryReason::QueueFull`].
    pub queue_depth: usize,
    /// Bound on one connection's unanswered solve jobs; beyond it,
    /// [`RetryReason::QuotaExceeded`].
    pub client_inflight: usize,
    /// Optional hold before each batch. `Duration::ZERO` (the default)
    /// holds nothing: the dispatcher takes whatever queued while the
    /// previous batch ran. A non-zero window keeps the batch open on the
    /// queue's condvar until the window passes, `max_batch` jobs are
    /// queued, or a drain or stop begins.
    pub gather_window: Duration,
    /// Most jobs drained into one [`Runtime::submit_batch`] call.
    pub max_batch: usize,
    /// Suggested client delay carried by every rejection.
    pub retry_after_ms: u32,
    /// Bound on patterns the factor registry retains; inserting beyond it
    /// evicts the least-recently-used entry (mirroring the runtime's plan
    /// cache), so a client cycling patterns recycles registry memory
    /// instead of growing it. An evicted pattern answers
    /// [`Request::SolveByFingerprint`]
    /// with `UNKNOWN_PATTERN`; clients fall back to a full `Solve`.
    pub registry_capacity: usize,
    /// Whether the wire-level
    /// [`Request::Shutdown`] may drain
    /// this server. Off by default: the request is unauthenticated and
    /// there is no un-drain, so any client that can connect could
    /// otherwise deny service to everyone else. The owning process drains
    /// via [`Server::shutdown`] regardless.
    pub allow_remote_shutdown: bool,
    /// Most persisted plans pre-compiled from the runtime's store at
    /// spawn (hottest first). Only meaningful when
    /// `runtime.store_path` is set; `0` disables warming. Warming runs on
    /// its own thread concurrent with request traffic — a request racing
    /// the warmer at worst pays the store decode itself.
    pub warm_limit: usize,
    /// Longest a connection may sit quiet **at a frame boundary** before
    /// the server closes it. `None` (the default) keeps idle connections
    /// forever — idleness is legitimate for a pipelined client.
    pub idle_timeout: Option<Duration>,
    /// Longest a peer may go without delivering **any further byte** of a
    /// frame it has started. This is the slowloris defense: a peer that
    /// opens a frame and stops sending pins a reader thread, and this
    /// bound reclaims it. `None` disables the bound.
    pub frame_timeout: Option<Duration>,
    /// Deadline applied to every accepted solve job, measured from the
    /// moment its frame was decoded. A job still queued when it expires is
    /// answered [`err_code::DEADLINE_EXCEEDED`] without running; one
    /// already running is cancelled cooperatively at the next
    /// phase/stride boundary. `None` (the default) lets jobs wait out any
    /// backlog.
    pub job_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            runtime: RuntimeConfig::default(),
            queue_depth: 256,
            client_inflight: 32,
            gather_window: Duration::ZERO,
            max_batch: 128,
            retry_after_ms: 2,
            registry_capacity: 128,
            allow_remote_shutdown: false,
            warm_limit: 64,
            idle_timeout: None,
            frame_timeout: Some(Duration::from_secs(10)),
            job_deadline: None,
        }
    }
}

/// Counter snapshot of a [`Server`] (latency histograms are rendered by
/// [`Server::metrics_text`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Connections ever accepted (excluding the metrics listener).
    pub connections: u64,
    /// Solve jobs admitted into the queue.
    pub accepted_jobs: u64,
    /// Solve jobs answered (success or typed error). Equals
    /// `accepted_jobs` after a drain: every accepted request is answered.
    pub answered_jobs: u64,
    /// Rejections because the queue was at depth.
    pub rejected_queue: u64,
    /// Rejections because the connection's quota was exhausted.
    pub rejected_quota: u64,
    /// Rejections because the server was draining.
    pub rejected_draining: u64,
    /// Patterns currently held by the factor registry (≤
    /// [`ServerConfig::registry_capacity`]).
    pub registered_patterns: u64,
    /// Registry entries discarded by the LRU bound.
    pub registry_evictions: u64,
    /// Accepted jobs answered [`err_code::DEADLINE_EXCEEDED`] because
    /// their deadline expired while they waited in the queue (jobs that
    /// expire mid-run are counted by the runtime's `deadline_expired`).
    pub expired_jobs: u64,
    /// Connections closed for sitting quiet past
    /// [`ServerConfig::idle_timeout`].
    pub closed_idle: u64,
    /// Connections closed for stalling mid-frame past
    /// [`ServerConfig::frame_timeout`] (slowloris defense).
    pub closed_stalled: u64,
}

struct Metrics {
    connections: AtomicU64,
    accepted: AtomicU64,
    answered: AtomicU64,
    rejected_queue: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_draining: AtomicU64,
    expired: AtomicU64,
    closed_idle: AtomicU64,
    closed_stalled: AtomicU64,
    /// Request latency per kind, indexed as [`Request::kind_index`].
    latency: [Histogram; 5],
}

impl Metrics {
    fn new() -> Self {
        Metrics {
            connections: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            rejected_queue: AtomicU64::new(0),
            rejected_quota: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            closed_idle: AtomicU64::new(0),
            closed_stalled: AtomicU64::new(0),
            latency: [
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
            ],
        }
    }
}

/// Bounded map from solve fingerprint to the factors most recently
/// shipped for that pattern — what `SolveByFingerprint` solves against.
///
/// Two properties matter for correctness and memory:
///
/// * **Re-shipping replaces.** The runtime supports refactorized values
///   on an unchanged pattern, so a `Solve` carrying new values for a
///   registered pattern must re-point the entry — the first-shipped copy
///   is never authoritative.
/// * **LRU-bounded**, mirroring the runtime's plan cache: at most
///   `capacity` patterns stay pinned, so a client cycling patterns
///   recycles memory instead of growing the server without bound. An
///   evicted pattern answers `UNKNOWN_PATTERN` and the client re-ships.
struct Registry {
    map: Mutex<HashMap<u128, RegistryEntry>>,
    capacity: usize,
    clock: AtomicU64,
    evictions: AtomicU64,
}

struct RegistryEntry {
    factors: Arc<IluFactors>,
    last_used: u64,
}

impl Registry {
    fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "registry must hold at least one pattern");
        Registry {
            map: Mutex::new(HashMap::new()),
            capacity,
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Registers (or re-registers) a pattern's factors; the shipped values
    /// always replace whatever the pattern held before. Inserting a new
    /// pattern at capacity evicts the least-recently-used entry first.
    fn insert(&self, key: u128, factors: &Arc<IluFactors>) {
        let tick = self.tick();
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if !map.contains_key(&key) && map.len() >= self.capacity {
            let victim = map.iter().min_by_key(|(_, e)| e.last_used).map(|(&k, _)| k);
            if let Some(k) = victim {
                map.remove(&k);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(
            key,
            RegistryEntry {
                factors: Arc::clone(factors),
                last_used: tick,
            },
        );
    }

    /// The registered factors, bumping the LRU clock.
    fn get(&self, key: u128) -> Option<Arc<IluFactors>> {
        let tick = self.tick();
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        map.get_mut(&key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.factors)
        })
    }

    /// LRU-neutral peek (mirrors `PlanCache::contains`).
    fn contains(&self, key: u128) -> bool {
        self.map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(&key)
    }

    fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// One admitted solve job, owned by the queue (all borrows end at the
/// reader; the dispatcher rebuilds borrowed [`Job`]s locally per batch).
struct QueuedSolve {
    id: u64,
    factors: Arc<IluFactors>,
    b: Vec<f64>,
    reply: mpsc::Sender<(u64, Response)>,
    inflight: Arc<AtomicUsize>,
    kind_idx: usize,
    t0: Instant,
    /// When set, the job must start by this instant; set from
    /// [`ServerConfig::job_deadline`] at admission and carried into the
    /// runtime [`Job`] so mid-run expiry cancels cooperatively too.
    deadline: Option<Instant>,
}

struct QueueState {
    q: VecDeque<QueuedSolve>,
    /// Admitted jobs not yet answered (queued + in the current batch).
    open: usize,
    draining: bool,
}

struct Inner {
    cfg: ServerConfig,
    runtime: Runtime,
    addr: SocketAddr,
    metrics_addr: SocketAddr,
    /// Factors registered by full `Solve` requests (see [`Registry`]).
    registry: Registry,
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    drained: Condvar,
    /// Stops the accept loops and (once the queue is empty) the
    /// dispatcher.
    stop: AtomicBool,
    /// Read halves of **live** connections by connection id, shut down at
    /// close so readers unblock (write halves stay open until every
    /// response is flushed). Each reader removes its own entry on exit,
    /// so the map tracks live connections, not total ever accepted.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    metrics: Metrics,
}

/// The running service. See the crate docs for the architecture; see
/// [`Server::spawn`] / [`Server::shutdown`] for the lifecycle.
pub struct Server {
    inner: Arc<Inner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Binds both listeners on loopback ephemeral ports, starts the
    /// runtime and every service thread, and returns ready to serve.
    ///
    /// Honors `RTPL_FAILPOINTS` (see [`rtpl_sparse::failpoint`]): points
    /// named in the environment are armed before the first accept, so a
    /// whole service process can be started under injected fault load.
    pub fn spawn(cfg: ServerConfig) -> io::Result<Server> {
        failpoint::init_from_env();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let metrics_listener = TcpListener::bind("127.0.0.1:0")?;
        let inner = Arc::new(Inner {
            runtime: Runtime::new(cfg.runtime.clone()),
            addr: listener.local_addr()?,
            metrics_addr: metrics_listener.local_addr()?,
            registry: Registry::new(cfg.registry_capacity),
            queue: Mutex::new(QueueState {
                q: VecDeque::new(),
                open: 0,
                draining: false,
            }),
            not_empty: Condvar::new(),
            drained: Condvar::new(),
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            conn_threads: Mutex::new(Vec::new()),
            metrics: Metrics::new(),
            cfg,
        });
        let mut threads = Vec::new();
        {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || accept_loop(&inner, listener)));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || {
                metrics_loop(&inner, metrics_listener)
            }));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || dispatcher_loop(&inner)));
        }
        // Background cache warming: decode the persistent store's hottest
        // plans into the memory cache while the listeners already serve.
        if inner.cfg.warm_limit > 0 && inner.runtime.store().is_some() {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || {
                inner.runtime.warm_from_store(inner.cfg.warm_limit);
            }));
        }
        Ok(Server {
            inner,
            threads: Mutex::new(threads),
        })
    }

    /// Address of the request listener.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Address of the plaintext metrics listener.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.inner.metrics_addr
    }

    /// The runtime behind the front door (for in-process inspection).
    pub fn runtime(&self) -> &Runtime {
        &self.inner.runtime
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats()
    }

    /// The full metrics text: server counters, per-kind latency
    /// histograms, and the runtime's own counters — exactly what the
    /// metrics listener serves.
    pub fn metrics_text(&self) -> String {
        self.inner.metrics_text()
    }

    /// Graceful drain: stop admitting, then block until every accepted
    /// solve job has been answered. New solve requests during (and after)
    /// the drain are rejected with [`RetryReason::Draining`]; connections
    /// stay open.
    pub fn drain(&self) {
        self.inner.begin_drain();
        self.inner.wait_drained();
    }

    /// Full graceful shutdown: [`Server::drain`], persist the learned
    /// policy state to the plan store (when one is attached), then stop
    /// the accept loops, close every connection's read half (responses
    /// already in flight still go out), and join every thread. Idempotent.
    pub fn shutdown(&self) -> io::Result<()> {
        self.drain();
        // Everything is answered: snapshot each cached plan's adaptive
        // state so the next process resumes the learned policy.
        self.inner.runtime.persist_learned();
        self.inner.stop.store(true, Ordering::SeqCst);
        // Wake the dispatcher (waiting on a condvar) and both accept loops
        // (blocked in `accept`).
        self.inner.not_empty.notify_all();
        let _ = TcpStream::connect(self.inner.addr);
        let _ = TcpStream::connect(self.inner.metrics_addr);
        for (_, conn) in self
            .inner
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain()
        {
            let _ = conn.shutdown(Shutdown::Read);
        }
        for t in self
            .inner
            .conn_threads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            let _ = t.join();
        }
        for t in self
            .threads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            let _ = t.join();
        }
        Ok(())
    }
}

impl Inner {
    fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.metrics.connections.load(Ordering::Relaxed),
            accepted_jobs: self.metrics.accepted.load(Ordering::Relaxed),
            answered_jobs: self.metrics.answered.load(Ordering::Relaxed),
            rejected_queue: self.metrics.rejected_queue.load(Ordering::Relaxed),
            rejected_quota: self.metrics.rejected_quota.load(Ordering::Relaxed),
            rejected_draining: self.metrics.rejected_draining.load(Ordering::Relaxed),
            registered_patterns: self.registry.len() as u64,
            registry_evictions: self.registry.evictions.load(Ordering::Relaxed),
            expired_jobs: self.metrics.expired.load(Ordering::Relaxed),
            closed_idle: self.metrics.closed_idle.load(Ordering::Relaxed),
            closed_stalled: self.metrics.closed_stalled.load(Ordering::Relaxed),
        }
    }

    fn metrics_text(&self) -> String {
        let s = self.stats();
        let mut out = String::new();
        for (name, v) in [
            ("rtpl_server_connections", s.connections),
            ("rtpl_server_accepted_jobs", s.accepted_jobs),
            ("rtpl_server_answered_jobs", s.answered_jobs),
            ("rtpl_server_rejected_queue", s.rejected_queue),
            ("rtpl_server_rejected_quota", s.rejected_quota),
            ("rtpl_server_rejected_draining", s.rejected_draining),
            ("rtpl_server_registered_patterns", s.registered_patterns),
            ("rtpl_server_registry_evictions", s.registry_evictions),
            ("rtpl_server_expired_jobs", s.expired_jobs),
            ("rtpl_server_closed_idle", s.closed_idle),
            ("rtpl_server_closed_stalled", s.closed_stalled),
            ("rtpl_failpoint_trips", failpoint::trips()),
        ] {
            out.push_str(&format!("{name} {v}\n"));
        }
        for (i, kind) in REQUEST_KINDS.iter().enumerate() {
            out.push_str(
                &self.metrics.latency[i].render_plaintext(&format!("rtpl_server_latency_{kind}")),
            );
        }
        out.push_str(&self.runtime.stats().render_plaintext());
        out
    }

    fn begin_drain(&self) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.draining = true;
        // Wake the dispatcher in case it waits on an empty queue with
        // nothing else ever arriving, or holds a batch open.
        self.not_empty.notify_all();
    }

    fn wait_drained(&self) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        while q.open > 0 {
            q = self.drained.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Two-stage admission; on rejection the job is dropped here and the
    /// caller sends the typed `RetryAfter`.
    fn admit(&self, job: QueuedSolve) -> Result<(), RetryReason> {
        let prev = job.inflight.fetch_add(1, Ordering::AcqRel);
        if prev >= self.cfg.client_inflight {
            job.inflight.fetch_sub(1, Ordering::AcqRel);
            self.metrics.rejected_quota.fetch_add(1, Ordering::Relaxed);
            return Err(RetryReason::QuotaExceeded);
        }
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.draining {
            job.inflight.fetch_sub(1, Ordering::AcqRel);
            self.metrics
                .rejected_draining
                .fetch_add(1, Ordering::Relaxed);
            return Err(RetryReason::Draining);
        }
        if q.q.len() >= self.cfg.queue_depth {
            job.inflight.fetch_sub(1, Ordering::AcqRel);
            self.metrics.rejected_queue.fetch_add(1, Ordering::Relaxed);
            return Err(RetryReason::QueueFull);
        }
        q.q.push_back(job);
        q.open += 1;
        self.metrics.accepted.fetch_add(1, Ordering::Relaxed);
        // The dispatcher is the only thread that waits on `not_empty`.
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until the queue holds a job, then takes the next batch:
    /// everything queued, up to `max_batch`, in the same critical section.
    /// Jobs admitted while a batch runs therefore form the next one. A
    /// non-zero [`ServerConfig::gather_window`] first holds the batch open
    /// on the queue's condvar, until the window passes, `max_batch` jobs
    /// are queued, or a drain or stop begins. `None` once stop was
    /// requested and nothing is left to answer.
    fn next_batch(&self) -> Option<Vec<QueuedSolve>> {
        let max_batch = self.cfg.max_batch.max(1);
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        while q.q.is_empty() && !self.stop.load(Ordering::SeqCst) {
            q = self.not_empty.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        if q.q.is_empty() {
            return None;
        }
        let window = self.cfg.gather_window;
        if !window.is_zero() {
            // `None` (a window past the clock's range) holds until one of
            // the other conditions ends it.
            let until = Instant::now().checked_add(window);
            while q.q.len() < max_batch && !q.draining && !self.stop.load(Ordering::SeqCst) {
                let left = until.map_or(window, |t| t.saturating_duration_since(Instant::now()));
                if left.is_zero() {
                    break;
                }
                q = self
                    .not_empty
                    .wait_timeout(q, left)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        }
        let take = q.q.len().min(max_batch);
        Some(q.q.drain(..take).collect())
    }

    /// Replies to one taken job. Runs without the queue lock; the job
    /// stays counted in `open` until [`Inner::close`].
    fn answer(&self, job: QueuedSolve, resp: Response) {
        // Counters and the client's quota slot move before the reply so a
        // client that reads its response immediately observes them updated
        // (and may pipeline its next request at once).
        self.metrics.latency[job.kind_idx].record(job.t0.elapsed().as_nanos() as u64);
        self.metrics.answered.fetch_add(1, Ordering::Relaxed);
        job.inflight.fetch_sub(1, Ordering::AcqRel);
        let _ = job.reply.send((job.id, resp));
    }

    /// Retires `answered` jobs of one batch, every one already replied to,
    /// so [`Inner::wait_drained`] returns only once each accepted job was
    /// answered.
    fn close(&self, answered: usize) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.open -= answered;
        if q.open == 0 {
            self.drained.notify_all();
        }
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    for stream in listener.incoming() {
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Injected accept failure: the connection is dropped on the floor,
        // exactly as if the socket died between accept and handshake. The
        // client sees a reset and retries; the server keeps serving.
        if failpoint::should_fail("server.accept") {
            continue;
        }
        let _ = stream.set_nodelay(true);
        inner.metrics.connections.fetch_add(1, Ordering::Relaxed);
        // Both clones before anything is registered: a failed clone
        // (`EMFILE`) drops the stream with nothing recorded, instead of
        // pinning a read half that no reader thread would ever remove.
        let (Ok(read_half), Ok(writer_half)) = (stream.try_clone(), stream.try_clone()) else {
            continue;
        };
        let conn_id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
        inner
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(conn_id, read_half);
        let (tx, rx) = mpsc::channel::<(u64, Response)>();
        let writer = std::thread::spawn(move || writer_loop(writer_half, rx));
        let reader = std::thread::spawn({
            let inner = Arc::clone(inner);
            move || reader_loop(&inner, conn_id, stream, tx)
        });
        let mut threads = inner.conn_threads.lock().unwrap_or_else(|e| e.into_inner());
        // Reap connections that already ended, so a long-running server
        // holds handles proportional to live connections, not total ever
        // accepted (finished handles join without blocking).
        let mut i = 0;
        while i < threads.len() {
            if threads[i].is_finished() {
                let _ = threads.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        threads.push(writer);
        threads.push(reader);
    }
}

/// Serializes responses onto the socket; exits (flushing everything) once
/// all senders — the reader plus every queued job — are gone.
fn writer_loop(mut stream: TcpStream, rx: mpsc::Receiver<(u64, Response)>) {
    while let Ok((id, resp)) = rx.recv() {
        // Injected write failure: the connection dies as if the peer
        // vanished mid-response. Remaining queued responses are dropped
        // with the channel; the client re-establishes and retries.
        if failpoint::should_fail("server.write") {
            break;
        }
        if proto::write_frame(&mut stream, &proto::encode_response(id, &resp)).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Write);
}

/// What one bounded frame read observed.
enum FrameRead {
    /// A complete, well-delimited payload.
    Frame(Vec<u8>),
    /// Clean EOF, a transport error, or an injected read failure: the
    /// reader exits without further accounting.
    Closed,
    /// Nothing arrived within [`ServerConfig::idle_timeout`] at a frame
    /// boundary.
    Idle,
    /// A frame started but its remainder missed
    /// [`ServerConfig::frame_timeout`] — the slowloris shape.
    Stalled,
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one frame under the connection deadlines: the idle budget covers
/// waiting for a frame's **first byte**, the (typically much shorter)
/// frame budget bounds each further wait once the frame has started.
/// Distinguishing the two keeps legitimately quiet pipelined clients
/// alive while still reclaiming the thread from a peer that stalls
/// mid-frame.
fn read_frame_bounded(inner: &Inner, stream: &mut io::BufReader<TcpStream>) -> FrameRead {
    if failpoint::should_fail("server.read") {
        return FrameRead::Closed;
    }
    // Idle phase: peek (without consuming) until at least one byte of the
    // next frame exists.
    if stream
        .get_ref()
        .set_read_timeout(inner.cfg.idle_timeout)
        .is_err()
    {
        return FrameRead::Closed;
    }
    while stream.buffer().is_empty() {
        match stream.fill_buf() {
            Ok([]) => return FrameRead::Closed, // clean EOF
            Ok(_) => break,
            Err(e) if is_timeout(&e) => return FrameRead::Idle,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return FrameRead::Closed,
        }
    }
    // Frame phase: the peer committed to a frame; it must deliver it.
    if stream
        .get_ref()
        .set_read_timeout(inner.cfg.frame_timeout)
        .is_err()
    {
        return FrameRead::Closed;
    }
    match proto::read_frame(stream) {
        Ok(Some(payload)) => FrameRead::Frame(payload),
        Ok(None) => FrameRead::Closed,
        Err(e) if is_timeout(&e) => FrameRead::Stalled,
        Err(_) => FrameRead::Closed,
    }
}

fn reader_loop(
    inner: &Arc<Inner>,
    conn_id: u64,
    stream: TcpStream,
    tx: mpsc::Sender<(u64, Response)>,
) {
    let mut stream = io::BufReader::new(stream);
    // Clean EOF, transport errors, and blown deadlines all end the reader.
    loop {
        let payload = match read_frame_bounded(inner, &mut stream) {
            FrameRead::Frame(payload) => payload,
            FrameRead::Closed => break,
            FrameRead::Idle => {
                inner.metrics.closed_idle.fetch_add(1, Ordering::Relaxed);
                break;
            }
            FrameRead::Stalled => {
                inner.metrics.closed_stalled.fetch_add(1, Ordering::Relaxed);
                break;
            }
        };
        let t0 = Instant::now();
        let (id, req) = match proto::decode_request(&payload) {
            Ok(x) => x,
            Err(e) => {
                // The frame was well-delimited but undecodable; report it
                // (id 0 — the real id may be unreadable) and keep going.
                let _ = tx.send((
                    0,
                    Response::Error {
                        code: err_code::BAD_REQUEST,
                        message: e.to_string(),
                    },
                ));
                continue;
            }
        };
        let kind_idx = req.kind_index();
        // Solve-class requests record latency at reply time in the
        // dispatcher; everything answered inline records right here.
        let mut answered_inline = true;
        match req {
            Request::Stats => {
                let _ = tx.send((
                    id,
                    Response::StatsText {
                        text: inner.metrics_text(),
                    },
                ));
            }
            Request::WarmCheck { key } => {
                // The ladder a solve for this pattern would walk: factors
                // registered (an rhs-only solve runs now) → plan artifact
                // persisted (shipping factors skips the inspection) →
                // nothing anywhere.
                let level = if inner.registry.contains(key.as_u128()) {
                    WarmLevel::Memory
                } else if inner.runtime.store_contains(key) {
                    WarmLevel::Disk
                } else {
                    WarmLevel::Cold
                };
                let _ = tx.send((id, Response::WarmStatus { level }));
            }
            Request::Shutdown => {
                if inner.cfg.allow_remote_shutdown {
                    // Graceful: stop admitting, answer everything
                    // accepted, then acknowledge. The owner completes the
                    // teardown with `Server::shutdown`.
                    inner.begin_drain();
                    inner.wait_drained();
                    let _ = tx.send((id, Response::ShutdownAck));
                } else {
                    // Unauthenticated and irreversible (there is no
                    // un-drain), so it needs an explicit opt-in.
                    let _ = tx.send((
                        id,
                        Response::Error {
                            code: err_code::SHUTDOWN_DISABLED,
                            message: "wire shutdown is disabled on this server \
                                      (ServerConfig::allow_remote_shutdown)"
                                .to_string(),
                        },
                    ));
                }
            }
            Request::Solve { l, u, b } => {
                let factors = IluFactors { l, u };
                match validate_solve(&factors, &b) {
                    Err(resp) => {
                        let _ = tx.send((id, resp));
                    }
                    Ok(()) => {
                        // The shipped values are authoritative: this
                        // request solves against them, and the registry
                        // entry is re-pointed — never a stale
                        // first-shipped copy (the runtime supports
                        // refactorized values on an unchanged pattern).
                        let key = Runtime::solve_key(&factors).as_u128();
                        let factors = Arc::new(factors);
                        inner.registry.insert(key, &factors);
                        answered_inline = !submit(inner, &tx, id, kind_idx, factors, b, t0);
                    }
                }
            }
            Request::SolveByFingerprint { key, b } => match lookup(inner, key) {
                Err(resp) => {
                    let _ = tx.send((id, resp));
                }
                Ok(factors) => {
                    if factors.n() != b.len() {
                        let _ = tx.send((id, dimension_error(factors.n(), b.len())));
                    } else {
                        answered_inline = !submit(inner, &tx, id, kind_idx, factors, b, t0);
                    }
                }
            },
        }
        if answered_inline {
            inner.metrics.latency[kind_idx].record(t0.elapsed().as_nanos() as u64);
        }
    }
    // The connection ended: drop its read half so the live-connection map
    // never grows past the live set (the writer exits on its own once the
    // last response sender is gone).
    inner
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&conn_id);
}

/// The wire error code for a runtime failure: containment failures get
/// their own codes so a client can tell "retry later" (deadline, open
/// breaker) from "this job is poisoned" (panicked body) without parsing
/// message text.
fn error_code_for(e: &RuntimeError) -> u8 {
    match e {
        RuntimeError::BodyPanicked { .. } => err_code::BODY_PANICKED,
        RuntimeError::DeadlineExceeded | RuntimeError::Cancelled => err_code::DEADLINE_EXCEEDED,
        RuntimeError::CircuitOpen => err_code::CIRCUIT_OPEN,
        _ => err_code::RUNTIME,
    }
}

fn dimension_error(expected: usize, found: usize) -> Response {
    Response::Error {
        code: err_code::BAD_REQUEST,
        message: format!("rhs length {found} does not match matrix order {expected}"),
    }
}

fn validate_solve(factors: &IluFactors, b: &[f64]) -> Result<(), Response> {
    let n = factors.l.nrows();
    if factors.l.ncols() != n || factors.u.nrows() != n || factors.u.ncols() != n {
        return Err(Response::Error {
            code: err_code::BAD_REQUEST,
            message: format!(
                "factors must be square and conformal: L is {}x{}, U is {}x{}",
                factors.l.nrows(),
                factors.l.ncols(),
                factors.u.nrows(),
                factors.u.ncols()
            ),
        });
    }
    if b.len() != n {
        return Err(dimension_error(n, b.len()));
    }
    Ok(())
}

fn lookup(inner: &Inner, key: PatternFingerprint) -> Result<Arc<IluFactors>, Response> {
    inner
        .registry
        .get(key.as_u128())
        .ok_or_else(|| Response::Error {
            code: err_code::UNKNOWN_PATTERN,
            message: format!("no factors registered for pattern {key}"),
        })
}

/// Admission for one decoded solve-class request. Returns `true` if the
/// job was queued (latency recorded later, by the dispatcher); on
/// rejection the typed `RetryAfter` goes out immediately and this returns
/// `false`.
fn submit(
    inner: &Arc<Inner>,
    tx: &mpsc::Sender<(u64, Response)>,
    id: u64,
    kind_idx: usize,
    factors: Arc<IluFactors>,
    b: Vec<f64>,
    t0: Instant,
) -> bool {
    // One quota counter per connection: each connection has exactly one
    // reader thread, so a thread-local is a per-connection counter.
    thread_local! {
        static INFLIGHT: Arc<AtomicUsize> = Arc::new(AtomicUsize::new(0));
    }
    let inflight = INFLIGHT.with(Arc::clone);
    let job = QueuedSolve {
        id,
        factors,
        b,
        reply: tx.clone(),
        inflight,
        kind_idx,
        t0,
        deadline: inner.cfg.job_deadline.map(|d| t0 + d),
    };
    match inner.admit(job) {
        Ok(()) => true,
        Err(reason) => {
            let _ = tx.send((
                id,
                Response::RetryAfter {
                    retry_ms: inner.cfg.retry_after_ms,
                    reason,
                },
            ));
            false
        }
    }
}

/// One-shot plaintext metrics endpoint: each connection gets the current
/// metrics text in a minimal HTTP/1.0 response and is closed. Works with
/// `curl` and with a plain TCP read.
fn metrics_loop(inner: &Arc<Inner>, listener: TcpListener) {
    for stream in listener.incoming() {
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        // Consume whatever request line the client sent (if any), then
        // answer unconditionally.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let mut buf = [0u8; 1024];
        let _ = stream.read(&mut buf);
        let body = inner.metrics_text();
        let _ = write!(
            stream,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
    }
}

fn dispatcher_loop(inner: &Arc<Inner>) {
    while let Some(drained) = inner.next_batch() {
        let taken = drained.len();
        // Jobs whose deadline passed while they queued are answered here,
        // typed, without spending any runtime work on them.
        let now = Instant::now();
        let (expired, batch): (Vec<_>, Vec<_>) = drained
            .into_iter()
            .partition(|j| j.deadline.is_some_and(|d| d <= now));
        for job in expired {
            inner.metrics.expired.fetch_add(1, Ordering::Relaxed);
            inner.answer(
                job,
                Response::Error {
                    code: err_code::DEADLINE_EXCEEDED,
                    message: "job deadline expired while queued".to_string(),
                },
            );
        }
        if !batch.is_empty() {
            let mut xs: Vec<Vec<f64>> = batch.iter().map(|j| vec![0.0; j.factors.n()]).collect();
            let jobs: Vec<Job<'_, NoBody>> = batch
                .iter()
                .zip(xs.iter_mut())
                .map(|(j, x)| {
                    let job = Job::solve(&j.factors, &j.b, x);
                    match j.deadline {
                        Some(d) => job.with_deadline(d),
                        None => job,
                    }
                })
                .collect();
            let outcome = inner.runtime.submit_batch(jobs);
            for ((job, x), result) in batch.into_iter().zip(xs).zip(outcome.jobs) {
                let resp = match result {
                    Ok(out) => Response::Solved {
                        cached: out.cached,
                        policy: out.policy as u8,
                        x,
                    },
                    Err(e) => Response::Error {
                        code: error_code_for(&e),
                        message: e.to_string(),
                    },
                };
                inner.answer(job, resp);
            }
        }
        inner.close(taken);
    }
}
