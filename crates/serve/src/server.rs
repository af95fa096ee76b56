//! The `tdmatch serve` daemon: a Unix-domain-socket (optionally TCP)
//! front end over a long-lived [`Matcher`].
//!
//! # Architecture
//!
//! ```text
//! clients ──► listener threads ──► reader thread per connection
//!  (unix / --tcp)                    │ decode + validate + tokenize
//!                                    ▼
//!                              BatchQueue (window / QUERY_BLOCK coalescing)
//!                                    │ next_batch, by whichever worker
//!                                    ▼ is free
//!                           worker threads (--workers): snapshot,
//!                           partition by mode, one
//!                           Matcher::query_batch_with_mode call per
//!                           partition ──► responses written by the worker
//! ```
//!
//! Reader threads do the cheap per-request work (framing, JSON,
//! tokenizing text queries). Each of the `--workers` threads takes a
//! coalesced batch straight from the queue, snapshots the matcher,
//! partitions the batch by retrieval mode, scores each partition with
//! one engine call and writes the responses itself — one hand-off
//! between the reader and the engine. A slow peer (bounded by the
//! SO_SNDTIMEO eviction deadline) stalls the one worker writing to it;
//! the others keep taking batches.
//!
//! Several workers run in parallel by each taking *its own* batch; a
//! batch is never split. Every per-query ranking is independent of its
//! batch neighbours (property-pinned in the engine), so answers are
//! bit-identical at any worker count. The only observable difference
//! under `workers > 1` is response *order* on a connection with several
//! requests in flight — clients must match responses by `id` (ours
//! does).
//!
//! # Snapshot rotation (hot swap)
//!
//! The daemon serves an [`Arc<Matcher>`] held in a
//! [`MatcherCell`]; a `reload` request (or a `SIGHUP`, when
//! [`ServeOptions::reload_signal`] is wired up) re-opens
//! [`ServeOptions::artifact`] and swaps the cell. A worker clones the
//! `Arc` **once per batch** and scores every partition of that batch
//! with it, so every batch — including batches straddling the swap — is
//! answered entirely by one snapshot, and the old mapping is unmapped
//! only when the last batch holding it drops its handle. A
//! failed reload (torn file, wrong dimension, missing path) leaves the
//! old snapshot serving and bumps the `reload_failures` counter; it
//! never crashes the daemon.
//!
//! # Degradation under faults
//!
//! Every connection carries a read *and* write deadline
//! ([`ServeOptions::io_timeout`]). A client that stalls mid-frame, or
//! that stops draining its responses, is evicted (counted in
//! `evicted`); idle-but-healthy connections are unaffected because a
//! read timeout *between* frames just keeps waiting. When more than
//! [`ServeOptions::max_inflight`] queries are admitted-but-unanswered —
//! the budget spans the coalescing queue and the batches being scored —
//! new queries are shed with the retryable `overloaded` error (counted
//! in `shed`) instead of growing the queue without bound. A response
//! too large for one frame ([`MAX_FRAME`]) is replaced by an
//! `oversized` error for that request id (counted in `errors`), so the
//! connection stays in sync.
//!
//! # Lifecycle
//!
//! [`Server::start`] binds the socket(s) and spawns the threads;
//! [`Server::join`] parks the caller until the daemon stops. A stale
//! socket file left by a SIGKILLed predecessor is unlinked and rebound
//! (detected by a refused connection); a *live* daemon's socket is
//! refused with `AddrInUse`. Shutdown — via a `shutdown` request or
//! [`Server::shutdown`] — is *draining*: the listeners stop accepting
//! and the socket file is removed, queued queries are still answered
//! (the workers drain the queue before connections are severed), then
//! connections are closed. Requests arriving after the drain began get
//! a `shutting_down` error.
//!
//! Requests within one batch may ask for different `k`; each mode
//! partition scores at its largest `k` and truncates per request, which
//! by the engine's total order (score desc, index asc) returns exactly
//! each request's own top-k.
//!
//! [`MatcherCell`]: tdmatch_core::serving::MatcherCell

use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tdmatch_core::serving::{Matcher, MatcherCell, Query, QueryError};
use tdmatch_embed::score::QueryBlock;
use tdmatch_text::Preprocessor;

use crate::batch::{BatchOptions, BatchQueue};
use crate::net;
use crate::protocol::{
    write_frame, ErrorCode, FrameError, FrameReader, Request, RequestBody, Response, ResponseBody,
    StatsSnapshot, MAX_FRAME,
};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Filesystem path the Unix socket is bound at. A stale socket file
    /// (no daemon answering) is unlinked and reused; a live one is
    /// refused. The daemon unlinks the path on shutdown.
    pub socket: PathBuf,
    /// Request-coalescing policy.
    pub batch: BatchOptions,
    /// Artifact path `reload` re-opens. `None` disables reloading (the
    /// request gets a `reload_failed` error).
    pub artifact: Option<PathBuf>,
    /// Per-connection read/write deadline. A connection stalled
    /// mid-frame, or not draining its responses, for longer than this
    /// is evicted. Zero disables the deadlines.
    pub io_timeout: Duration,
    /// Maximum admitted-but-unanswered queries before new ones are shed
    /// with `overloaded`. The budget spans the coalescing queue and the
    /// batches being scored. Zero means unlimited.
    pub max_inflight: usize,
    /// External reload trigger: when the flag flips to `true` (e.g.
    /// from the [`signals`](crate::signals) SIGHUP handler), the
    /// listener swaps it back and reloads the artifact.
    pub reload_signal: Option<&'static AtomicBool>,
    /// Default retrieval mode. `Some(pool)` makes queries without an
    /// explicit per-request `ann` flag use ANN candidate retrieval with
    /// this pool width (exact rescoring still ranks the pool); `None`
    /// keeps the exact full scan as the default. Either way a request
    /// can opt in or out per query, and an artifact without an index
    /// always scans exactly.
    pub ann_pool: Option<usize>,
    /// ANN beam width (`ef_search`) independent of the rescore pool.
    /// `None` keeps the bit-identical default `ef = pool`; values below
    /// the pool width are clamped up to it at query time.
    pub ann_ef: Option<usize>,
    /// Worker threads: each takes a batch straight from the queue,
    /// scores it and writes its responses, so up to this many batches
    /// are scored at once. Clamped to ≥ 1; with the default `1`, batches
    /// are answered one at a time in arrival order.
    pub workers: usize,
    /// Optional TCP listener address (`HOST:PORT`) speaking the same
    /// length-prefixed protocol as the Unix socket. **No
    /// authentication** — bind loopback unless the network is trusted.
    pub tcp: Option<String>,
}

impl ServeOptions {
    /// Default policy at the given socket path: 30 s I/O deadlines, no
    /// inflight cap, reload disabled, one worker, no TCP.
    pub fn at<P: Into<PathBuf>>(socket: P) -> Self {
        ServeOptions {
            socket: socket.into(),
            batch: BatchOptions::default(),
            artifact: None,
            io_timeout: Duration::from_secs(30),
            max_inflight: 0,
            reload_signal: None,
            ann_pool: None,
            ann_ef: None,
            workers: 1,
            tcp: None,
        }
    }

    /// Sets the request-coalescing policy.
    pub fn batch(mut self, batch: BatchOptions) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the artifact path `reload` re-opens.
    pub fn artifact<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.artifact = Some(path.into());
        self
    }

    /// Sets the per-connection read/write deadline.
    pub fn io_timeout(mut self, deadline: Duration) -> Self {
        self.io_timeout = deadline;
        self
    }

    /// Sets the inflight cap (0 = unlimited).
    pub fn max_inflight(mut self, cap: usize) -> Self {
        self.max_inflight = cap;
        self
    }

    /// Makes ANN retrieval the daemon's default mode with this pool
    /// width (see [`ServeOptions::ann_pool`]).
    pub fn ann_pool(mut self, pool: usize) -> Self {
        self.ann_pool = Some(pool);
        self
    }

    /// Sets the ANN beam width independently of the rescore pool (see
    /// [`ServeOptions::ann_ef`]).
    pub fn ann_ef(mut self, ef: usize) -> Self {
        self.ann_ef = Some(ef);
        self
    }

    /// Sets the worker count (clamped to ≥ 1 at start).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Adds a TCP listener at `HOST:PORT` alongside the Unix socket.
    pub fn tcp<S: Into<String>>(mut self, addr: S) -> Self {
        self.tcp = Some(addr.into());
        self
    }
}

/// A queued query: either engine-ready, or text tokens the worker
/// embeds against the *batch's* snapshot (embedding in the reader would
/// let a hot swap mix vocabularies between embed and score).
enum PendingQuery {
    Ready(Query),
    Text(Vec<String>),
}

/// One query waiting for a worker.
struct Pending {
    req_id: u64,
    query: PendingQuery,
    k: usize,
    /// Per-request retrieval mode; `None` defers to the daemon default.
    ann: Option<bool>,
    conn: Arc<Conn>,
}

/// A connection's write half, shared by its reader thread and the
/// workers.
struct Conn {
    stream: Mutex<net::Stream>,
    /// Set once the connection is evicted or hung up; later sends are
    /// skipped instead of re-blocking on a dead peer.
    dead: AtomicBool,
}

impl Conn {
    /// Writes one frame of JSON text. A frame `write_frame` refuses as
    /// too large (`InvalidInput`, nothing written) leaves the connection
    /// as it was; on any other failure it is marked dead and severed.
    /// The error kind is returned so the caller can distinguish a
    /// deadline eviction from an ordinary hangup.
    fn send(&self, json_text: &str) -> Result<(), std::io::ErrorKind> {
        if self.dead.load(Ordering::Relaxed) {
            return Err(std::io::ErrorKind::NotConnected);
        }
        let mut stream = self.stream.lock().expect("connection writer poisoned");
        match write_frame(&mut *stream, json_text) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => Err(e.kind()),
            Err(e) => {
                self.dead.store(true, Ordering::Relaxed);
                let _ = stream.shutdown(std::net::Shutdown::Both);
                Err(e.kind())
            }
        }
    }

    fn hang_up(&self) {
        self.dead.store(true, Ordering::Relaxed);
        let stream = self.stream.lock().expect("connection writer poisoned");
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    batched_requests: AtomicU64,
    batches: AtomicU64,
    coalesced: AtomicU64,
    errors: AtomicU64,
    max_batch: AtomicU64,
    shed: AtomicU64,
    evicted: AtomicU64,
    reloads: AtomicU64,
    reload_failures: AtomicU64,
    ann_queries: AtomicU64,
    exact_queries: AtomicU64,
    pooled: AtomicU64,
    shards: AtomicU64,
}

struct ServerInner {
    matcher: MatcherCell,
    queue: BatchQueue<Pending>,
    running: AtomicBool,
    counters: Counters,
    inflight: AtomicUsize,
    started: Instant,
    conns: Mutex<Vec<Weak<Conn>>>,
    options: ServeOptions,
    /// The TCP listener's bound address, if one was requested (useful
    /// with port 0).
    tcp_addr: Option<SocketAddr>,
    preprocessor: Preprocessor,
}

impl ServerInner {
    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.counters.requests.load(Ordering::Relaxed),
            batched_requests: self.counters.batched_requests.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            max_batch: self.counters.max_batch.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            evicted: self.counters.evicted.load(Ordering::Relaxed),
            reloads: self.counters.reloads.load(Ordering::Relaxed),
            reload_failures: self.counters.reload_failures.load(Ordering::Relaxed),
            generation: self.matcher.generation(),
            ann_queries: self.counters.ann_queries.load(Ordering::Relaxed),
            exact_queries: self.counters.exact_queries.load(Ordering::Relaxed),
            pooled: self.counters.pooled.load(Ordering::Relaxed),
            workers: self.options.workers.max(1) as u64,
            shards: self.counters.shards.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::SeqCst) as u64,
            queue_depth: self.queue.len() as u64,
            uptime_secs: self.started.elapsed().as_secs_f64(),
        }
    }

    fn count_error(&self) {
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Sends a response, counting an eviction when the write deadline
    /// fired (as opposed to the peer simply having gone away). A
    /// response too large for one frame is answered with an `oversized`
    /// error for the same id instead, and counted as an error.
    fn send_to(&self, conn: &Conn, response: &Response) {
        let text = response.encode();
        let sent = match conn.send(&text) {
            Err(std::io::ErrorKind::InvalidInput) => {
                self.count_error();
                let refusal = Response::error(
                    response.id,
                    ErrorCode::Oversized,
                    format!(
                        "a response of {} bytes exceeds the {MAX_FRAME}-byte frame limit; \
                         retry with a smaller k",
                        text.len()
                    ),
                );
                conn.send(&refusal.encode())
            }
            sent => sent,
        };
        match sent {
            Ok(()) => {}
            Err(std::io::ErrorKind::WouldBlock) | Err(std::io::ErrorKind::TimedOut) => {
                self.counters.evicted.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {}
        }
    }

    /// Reloads the artifact into the cell. On any failure the old
    /// snapshot keeps serving; the failure is counted and logged, never
    /// propagated as a panic.
    fn reload(&self) -> Result<u64, String> {
        let Some(path) = self.options.artifact.as_deref() else {
            self.counters.reload_failures.fetch_add(1, Ordering::Relaxed);
            return Err("daemon was started without an artifact path; reload unavailable".into());
        };
        match self.matcher.reload_from(path) {
            Ok(()) => {
                self.counters.reloads.fetch_add(1, Ordering::Relaxed);
                let generation = self.matcher.generation();
                eprintln!(
                    "tdmatch serve: reloaded {} (generation {generation})",
                    path.display()
                );
                Ok(generation)
            }
            Err(e) => {
                self.counters.reload_failures.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "tdmatch serve: reload of {} failed, keeping current snapshot: {e}",
                    path.display()
                );
                Err(e.to_string())
            }
        }
    }

    /// Begins the drain: stop accepting, refuse new queries, answer the
    /// queued ones. Idempotent.
    fn begin_shutdown(&self) {
        if self.running.swap(false, Ordering::SeqCst) {
            self.queue.close();
        }
    }

    /// Severs every live connection (after the drain), unblocking their
    /// reader threads.
    fn close_connections(&self) {
        let conns = self.conns.lock().expect("connection registry poisoned");
        for conn in conns.iter().filter_map(Weak::upgrade) {
            conn.hang_up();
        }
    }
}

/// A running daemon. See the [module docs](self) for the architecture.
///
/// Dropping the handle shuts the daemon down and waits for its threads.
pub struct Server {
    inner: Arc<ServerInner>,
    listener: Option<JoinHandle<()>>,
    tcp_listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("socket", &self.inner.options.socket)
            .field("tcp", &self.inner.tcp_addr)
            .field("workers", &self.inner.options.workers)
            .field("running", &self.inner.running.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `options.socket` (and `options.tcp`, when set) and starts
    /// serving `matcher`.
    ///
    /// If the socket path already exists it is reclaimed only when it
    /// is actually stale: a socket file nobody answers on (the
    /// signature a SIGKILLed daemon leaves behind) is unlinked and
    /// rebound. A path that is not a socket, or one a live daemon still
    /// answers on, fails with `AddrInUse`.
    pub fn start(mut matcher: Matcher, options: ServeOptions) -> std::io::Result<Server> {
        if options.ann_pool.is_some() {
            matcher.set_ann_pool(options.ann_pool);
        }
        if options.ann_ef.is_some() {
            matcher.set_ann_ef(options.ann_ef);
        }
        if options.socket.exists() {
            reclaim_stale_socket(&options.socket)?;
        }
        let listener = UnixListener::bind(&options.socket)?;
        listener.set_nonblocking(true)?;
        let tcp = match options.tcp.as_deref() {
            Some(addr) => {
                let l = TcpListener::bind(addr).inspect_err(|_| {
                    // The Unix socket is already bound; do not leave its
                    // file behind on the error path.
                    let _ = std::fs::remove_file(&options.socket);
                })?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let tcp_addr = match tcp.as_ref() {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let inner = Arc::new(ServerInner {
            matcher: MatcherCell::new(matcher),
            queue: BatchQueue::new(),
            running: AtomicBool::new(true),
            counters: Counters::default(),
            inflight: AtomicUsize::new(0),
            started: Instant::now(),
            conns: Mutex::new(Vec::new()),
            options,
            tcp_addr,
            preprocessor: Preprocessor::default(),
        });

        let workers = (0..inner.options.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("tdmatch-worker-{i}"))
                    .spawn(move || work_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        let listener_thread = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || listen_loop(&inner, listener))
        };
        let tcp_thread = tcp.map(|l| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || tcp_listen_loop(&inner, l))
        });
        Ok(Server {
            inner,
            listener: Some(listener_thread),
            tcp_listener: tcp_thread,
            workers,
        })
    }

    /// The socket path clients connect to.
    pub fn socket_path(&self) -> &Path {
        &self.inner.options.socket
    }

    /// The TCP listener's bound address, when one was requested (the
    /// actual port, even if the options asked for port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.inner.tcp_addr
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    /// The serving snapshot's generation (0 = the one the daemon
    /// started with; bumped by each successful reload).
    pub fn generation(&self) -> u64 {
        self.inner.matcher.generation()
    }

    /// Reloads the artifact in-process (same path as the `reload`
    /// request). Returns the new generation, or the reload error; the
    /// old snapshot keeps serving on failure.
    pub fn reload(&self) -> Result<u64, String> {
        self.inner.reload()
    }

    /// Triggers the drain from outside the protocol (e.g. a signal
    /// handler). Idempotent; returns immediately.
    pub fn shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Parks until the daemon has stopped (a `shutdown` request arrived
    /// or [`shutdown`](Server::shutdown) was called) and the service
    /// threads have exited. Returns the final counters.
    pub fn join(mut self) -> StatsSnapshot {
        self.join_threads();
        self.inner.stats()
    }

    fn join_threads(&mut self) {
        if let Some(t) = self.listener.take() {
            let _ = t.join();
        }
        if let Some(t) = self.tcp_listener.take() {
            let _ = t.join();
        }
        // The listeners stop only after the drain began, which closed
        // the queue; the workers empty it (answering every accepted
        // query) and exit.
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        // Sever connections only now: the workers have drained (every
        // accepted query is answered) AND the listeners have stopped,
        // so no connection can register after this sweep — a
        // registration racing an earlier sweep would leak a blocked
        // reader thread.
        self.inner.close_connections();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.inner.begin_shutdown();
        self.join_threads();
    }
}

/// Decides whether an existing socket path may be unlinked and rebound.
fn reclaim_stale_socket(path: &Path) -> std::io::Result<()> {
    use std::os::unix::fs::FileTypeExt;
    let meta = std::fs::symlink_metadata(path)?;
    if !meta.file_type().is_socket() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::AddrInUse,
            format!(
                "socket path {} already exists and is not a socket; refusing to remove it",
                path.display()
            ),
        ));
    }
    match UnixStream::connect(path) {
        Ok(_) => Err(std::io::Error::new(
            std::io::ErrorKind::AddrInUse,
            format!("a live daemon is answering on {}", path.display()),
        )),
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
            // A bound-but-unaccepted socket file: the daemon that owned
            // it is gone (SIGKILL leaves exactly this behind).
            std::fs::remove_file(path)?;
            Ok(())
        }
        Err(e) => Err(std::io::Error::new(
            std::io::ErrorKind::AddrInUse,
            format!(
                "socket path {} exists and probing it failed ({e}); refusing to remove it",
                path.display()
            ),
        )),
    }
}

/// Arms the per-connection deadlines, registers the connection, and
/// spawns its reader thread — identical for both listener families.
fn spawn_connection(inner: &Arc<ServerInner>, stream: net::Stream) {
    let deadline = inner.options.io_timeout;
    if !deadline.is_zero() {
        // Both halves share the socket, so this arms the read AND
        // write deadlines for the connection.
        let _ = stream.set_read_timeout(Some(deadline));
        let _ = stream.set_write_timeout(Some(deadline));
    }
    let conn = Arc::new(Conn {
        stream: Mutex::new(stream),
        dead: AtomicBool::new(false),
    });
    {
        let mut conns = inner.conns.lock().expect("connection registry poisoned");
        conns.retain(|w| w.strong_count() > 0);
        conns.push(Arc::downgrade(&conn));
    }
    let inner = Arc::clone(inner);
    std::thread::spawn(move || serve_connection(&inner, &conn));
}

/// A listener's pause between polls of its non-blocking `accept`:
/// `ACCEPT_PAUSE_MIN` right after a connection arrives, doubling up to
/// `ACCEPT_PAUSE_MAX` while none do. Clients that connect together are
/// accepted together, and an idle listener still wakes only once a
/// millisecond.
const ACCEPT_PAUSE_MIN: Duration = Duration::from_micros(50);
const ACCEPT_PAUSE_MAX: Duration = Duration::from_millis(1);

fn listen_loop(inner: &Arc<ServerInner>, listener: UnixListener) {
    let mut pause = ACCEPT_PAUSE_MAX;
    while inner.running.load(Ordering::SeqCst) {
        if let Some(flag) = inner.options.reload_signal {
            if flag.swap(false, Ordering::Relaxed) {
                let _ = inner.reload();
            }
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                pause = ACCEPT_PAUSE_MIN;
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                spawn_connection(inner, net::Stream::Unix(stream));
            }
            Err(_) => {
                std::thread::sleep(pause);
                pause = (pause * 2).min(ACCEPT_PAUSE_MAX);
            }
        }
    }
    // Unbind before the drain finishes so late connectors fail fast.
    drop(listener);
    let _ = std::fs::remove_file(&inner.options.socket);
}

/// The optional TCP front: same accept handling as the Unix listener
/// (reload-signal polling stays with the Unix loop, which always runs).
fn tcp_listen_loop(inner: &Arc<ServerInner>, listener: TcpListener) {
    let mut pause = ACCEPT_PAUSE_MAX;
    while inner.running.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                pause = ACCEPT_PAUSE_MIN;
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                spawn_connection(inner, net::Stream::tcp(stream));
            }
            Err(_) => {
                std::thread::sleep(pause);
                pause = (pause * 2).min(ACCEPT_PAUSE_MAX);
            }
        }
    }
}

/// Reader-side request handling: framing, decoding, validation, and the
/// immediate (non-scored) answers. Scored queries go to the queue.
fn serve_connection(inner: &Arc<ServerInner>, conn: &Arc<Conn>) {
    let mut read_half = match conn.stream.lock().expect("connection writer poisoned").try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut frames = FrameReader::new();
    // True while this connection holds a batching intent: the first
    // bytes of its next frame have arrived but the request has not yet
    // been enqueued or answered. A worker's coalescing window
    // waits for announced requests (and only those) instead of always
    // sleeping out its cap — see `BatchQueue::begin_intent`.
    let mut intent = false;
    loop {
        // The previous iteration's request was resolved (enqueued or
        // answered inline); release its intent before blocking on the
        // next frame.
        if std::mem::take(&mut intent) {
            inner.queue.end_intent();
        }
        if conn.dead.load(Ordering::Relaxed) {
            break; // evicted on the write side
        }
        let payload = match frames.next_with(&mut read_half, || {
            if !intent {
                intent = true;
                inner.queue.begin_intent();
            }
        }) {
            Ok(Some(payload)) => payload,
            Ok(None) => break, // clean hangup
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if frames.in_frame() {
                    // Stalled mid-frame: the client claimed a length it
                    // never delivered. Evict.
                    inner.counters.evicted.fetch_add(1, Ordering::Relaxed);
                    conn.hang_up();
                    break;
                }
                if !inner.running.load(Ordering::SeqCst) {
                    break; // draining; leave without waiting to be severed
                }
                continue; // idle between frames: keep waiting
            }
            Err(FrameError::Oversized { len }) => {
                inner.count_error();
                inner.send_to(
                    conn,
                    &Response::error(
                        0,
                        ErrorCode::Oversized,
                        format!("frame length {len} outside (0, {}]", crate::protocol::MAX_FRAME),
                    ),
                );
                break; // stream is desynchronized beyond repair
            }
            Err(FrameError::Truncated) => {
                inner.count_error();
                inner.send_to(
                    conn,
                    &Response::error(0, ErrorCode::BadFrame, "stream ended mid-frame"),
                );
                break;
            }
            Err(FrameError::Io(_)) => break,
        };
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(bad) => {
                // The frame boundary held, so the connection survives a
                // malformed payload; only framing errors are fatal.
                inner.count_error();
                inner.send_to(conn, &Response::error(bad.id, bad.code, bad.message));
                continue;
            }
        };
        let id = request.id;
        let (query, k, ann) = match request.body {
            RequestBody::Ping => {
                inner.send_to(
                    conn,
                    &Response {
                        id,
                        body: ResponseBody::Pong,
                    },
                );
                continue;
            }
            RequestBody::Stats => {
                inner.send_to(
                    conn,
                    &Response {
                        id,
                        body: ResponseBody::Stats(inner.stats()),
                    },
                );
                continue;
            }
            RequestBody::Reload => {
                let body = match inner.reload() {
                    Ok(generation) => ResponseBody::Reloaded { generation },
                    Err(message) => ResponseBody::Error {
                        code: ErrorCode::ReloadFailed,
                        message,
                    },
                };
                inner.send_to(conn, &Response { id, body });
                continue;
            }
            RequestBody::Shutdown => {
                inner.send_to(
                    conn,
                    &Response {
                        id,
                        body: ResponseBody::Stopping,
                    },
                );
                inner.begin_shutdown();
                continue; // the drain will sever this connection
            }
            RequestBody::QueryId { doc, k, ann } => (PendingQuery::Ready(Query::ById(doc)), k, ann),
            RequestBody::QueryVector { vector, k, ann } => {
                (PendingQuery::Ready(Query::ByVector(vector)), k, ann)
            }
            RequestBody::QueryText { text, k, ann } => {
                // Tokenize here (cheap, snapshot-independent); embedding
                // waits for the worker so it uses the same snapshot
                // that scores the batch.
                (
                    PendingQuery::Text(inner.preprocessor.base_tokens(&text)),
                    k,
                    ann,
                )
            }
        };
        inner.counters.requests.fetch_add(1, Ordering::Relaxed);
        enqueue(inner, conn, id, query, k, ann);
    }
    // Every exit path (hangup, eviction, framing error, drain) may
    // leave a frame mid-read; release its intent so a worker's
    // window does not wait for a request that will never arrive.
    if intent {
        inner.queue.end_intent();
    }
}

fn enqueue(
    inner: &Arc<ServerInner>,
    conn: &Arc<Conn>,
    req_id: u64,
    query: PendingQuery,
    k: usize,
    ann: Option<bool>,
) {
    // Admission control: count the query inflight, shedding it when the
    // cap is hit. The count spans the coalescing queue and scoring — it
    // drops as the response is handed to the writer.
    let cap = inner.options.max_inflight;
    let admitted = inner.inflight.fetch_add(1, Ordering::SeqCst);
    if cap > 0 && admitted >= cap {
        inner.inflight.fetch_sub(1, Ordering::SeqCst);
        inner.counters.shed.fetch_add(1, Ordering::Relaxed);
        inner.send_to(
            conn,
            &Response::error(
                req_id,
                ErrorCode::Overloaded,
                format!("inflight limit {cap} reached; retry with backoff"),
            ),
        );
        return;
    }
    let accepted = inner.queue.push(Pending {
        req_id,
        query,
        k,
        ann,
        conn: Arc::clone(conn),
    });
    if !accepted {
        inner.inflight.fetch_sub(1, Ordering::SeqCst);
        inner.count_error();
        inner.send_to(
            conn,
            &Response::error(req_id, ErrorCode::ShuttingDown, "daemon is draining"),
        );
    }
}

/// A worker: takes coalesced batches straight from the queue and
/// answers them until the queue is closed and drained. Its
/// `QueryBlock` is reused across batches (recreated only when a reload
/// changes the dimension).
fn work_loop(inner: &ServerInner) {
    let mut block: Option<QueryBlock> = None;
    while let Some(batch) = inner.queue.next_batch(&inner.options.batch) {
        answer_batch(inner, &mut block, batch);
    }
}

/// Scores one batch — one engine call per retrieval-mode partition —
/// and writes its responses. The whole batch is served by one snapshot.
fn answer_batch(inner: &ServerInner, block: &mut Option<QueryBlock>, batch: Vec<Pending>) {
    // One snapshot per batch: the hot swap can land at any time, but
    // every query in this batch sees exactly this snapshot.
    let matcher = inner.matcher.get();

    let n = batch.len();
    inner.counters.batches.fetch_add(1, Ordering::Relaxed);
    inner
        .counters
        .batched_requests
        .fetch_add(n as u64, Ordering::Relaxed);
    if n >= 2 {
        inner.counters.coalesced.fetch_add(n as u64, Ordering::Relaxed);
    }
    inner.counters.max_batch.fetch_max(n as u64, Ordering::Relaxed);

    // Resolve text queries against this batch's snapshot. A text query
    // with no in-vocabulary token keeps the engine's missing-query
    // semantics: empty matches, batch 0. Queries are partitioned by
    // their effective retrieval mode (per-request flag, falling back to
    // the daemon default).
    let default_ann = matcher.ann_pool().is_some();
    let mut parts = [
        (false, Vec::new(), Vec::with_capacity(n)),
        (true, Vec::new(), Vec::new()),
    ];
    for pending in batch {
        let query = match pending.query {
            PendingQuery::Ready(query) => query,
            PendingQuery::Text(tokens) => match matcher.artifact().embed_tokens(&tokens) {
                Some(vector) => Query::ByVector(vector),
                None => {
                    inner.inflight.fetch_sub(1, Ordering::SeqCst);
                    inner.send_to(
                        &pending.conn,
                        &Response {
                            id: pending.req_id,
                            body: ResponseBody::Matches {
                                matches: Vec::new(),
                                batch: 0,
                            },
                        },
                    );
                    continue;
                }
            },
        };
        let part = &mut parts[usize::from(pending.ann.unwrap_or(default_ann))];
        part.1.push((pending.req_id, pending.k, pending.conn));
        part.2.push(query);
    }
    // The wire `batch` field: queries scored across the whole batch.
    let scored = parts.iter().map(|(_, _, q)| q.len()).sum::<usize>();
    if scored == 0 {
        return;
    }
    let dim = matcher.dim();
    if block.as_ref().is_none_or(|b| b.dim() != dim) {
        *block = Some(QueryBlock::with_capacity(
            inner.options.batch.max_batch.max(1),
            dim,
        ));
    }
    let block = block.as_mut().expect("query block just ensured");

    for (ann, routes, queries) in parts {
        if queries.is_empty() {
            continue;
        }
        let k_max = routes.iter().map(|&(_, k, _)| k).max().unwrap_or(0);
        inner.counters.shards.fetch_add(1, Ordering::Relaxed);
        let (results, usage) = matcher.query_batch_with_mode(block, &queries, k_max, ann);
        let answered = results.iter().filter(|r| r.is_ok()).count() as u64;
        inner
            .counters
            .ann_queries
            .fetch_add(usage.queries, Ordering::Relaxed);
        inner
            .counters
            .exact_queries
            .fetch_add(answered.saturating_sub(usage.queries), Ordering::Relaxed);
        inner.counters.pooled.fetch_add(usage.pooled, Ordering::Relaxed);
        for ((req_id, k, conn), result) in routes.into_iter().zip(results) {
            let body = match result {
                Ok(mut ranked) => {
                    ranked.truncate(k);
                    ResponseBody::Matches {
                        matches: ranked,
                        batch: scored,
                    }
                }
                Err(e) => {
                    inner.count_error();
                    ResponseBody::Error {
                        code: match e {
                            QueryError::UnknownId { .. } => ErrorCode::UnknownId,
                            QueryError::DimMismatch { .. } | QueryError::NonFinite => {
                                ErrorCode::BadVector
                            }
                        },
                        message: e.to_string(),
                    }
                }
            };
            // Decrement BEFORE the write so "client holds the response"
            // implies the budget slot is free: a stats read taken after
            // the last response lands must see inflight 0, not a stale
            // count. The slack (a response mid-write no longer holds
            // budget) is bounded by the worker count.
            inner.inflight.fetch_sub(1, Ordering::SeqCst);
            inner.send_to(&conn, &Response { id: req_id, body });
        }
    }
}
