//! The concurrent TCP server: acceptor + fixed worker pool + hot-reloadable
//! served index.
//!
//! ## Concurrency model
//!
//! One acceptor thread admits connections into the bounded admission
//! queue (`pool::AdmissionQueue`, refusing with a typed `OVERLOADED`
//! frame when it is full); `workers` threads each own one
//! [`QueryScratch`] plus reusable frame/position buffers and serve one
//! connection at a time, request after request — so steady-state query
//! handling allocates nothing on the hot path beyond what the engine's
//! warmed-up scratch already holds.
//!
//! ## Hot reload
//!
//! The served index lives behind `Mutex<Arc<ServedState>>`. A worker
//! answering a query clones the `Arc` (a refcount bump) and runs against
//! that snapshot; `RELOAD` builds the replacement off-lock and swaps the
//! `Arc`. In-flight queries keep their snapshot alive until they finish —
//! nothing is dropped mid-request, and the old index is freed exactly when
//! its last in-flight query completes.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] (or a client `SHUTDOWN` frame) closes the queue,
//! wakes the acceptor, answers queued-but-unserved connections with
//! `SHUTTING_DOWN`, and joins every thread. A worker waits for each frame
//! in one blocking read (under the connection's `idle_timeout`); it
//! publishes a clone of the connection it serves, and shutdown closes the
//! read half of every published connection. That wakes an idle read at
//! once with EOF, which the worker answers with `SHUTTING_DOWN`, while a
//! frame already received is still read and answered first.
//!
//! ## Observability
//!
//! Each worker owns a private [`WorkerObs`] histogram registry; recording
//! (per-stage query timings, per-op service time, queue wait) is a few
//! relaxed atomic adds into that registry, so workers never contend with
//! each other or with scrapers. One decision per request samples it: the
//! first request on each connection and one in
//! `clock::STAGE_SAMPLE_EVERY` after that. A sampled request arms the
//! worker's trace, which makes the engine stamp its query stages, and
//! feeds the service and stage histograms; so the histograms and the trace
//! trees describe the same requests, and a live query times all of its
//! parts. Per-request elapsed time is measured on every request, from one
//! clock stamp at service end, so the slow ring is exact. At service end
//! the worker hands the request to the [`FlightRecorder`], which keeps it
//! when it failed, was slow or was sampled. The filter counters
//! (candidates, verified, reported, grid work) and `PatternTooShort`
//! refusals are exact. A `STATS` request — or a local [`MetricsHandle`] —
//! reads the shared counters, merges every registry and samples the live
//! index and the recorder's rings into one [`Scrape`] on the scrape path.
//! All timing sites are gated on `ius_obs::clock::enabled()`, which is how
//! the overhead benchmark measures instrumented vs. stubbed serving.

use crate::flight::{FlightRecorder, RequestFacts, TRACE_NO_ERROR};
use crate::metrics::{ServerMetrics, WorkerObs};
use crate::pool::AdmissionQueue;
use crate::protocol::{
    decode_header, decode_query_body, decode_request_body, encode_matches_from_slice,
    encode_response, read_frame, ErrorCode, LiveSnapshot, ProtocolError, Request, Response,
    ResultMode, MAX_REQUEST_FRAME, OP_QUERY,
};
use ius_arena::Arena;
use ius_exec::WorkerPool;
use ius_index::overlap::trace_stages;
use ius_index::{open_index, AnyIndex, UncertainIndex};
use ius_live::LiveIndex;
use ius_obs::{clock, trace, Scrape, Value};
use ius_query::{CountSink, FirstKSink, MatchSink, QueryScratch};
use ius_weighted::WeightedString;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Once, Weak};
use std::time::Duration;

/// An index ready to serve: the structure plus whatever corpus access its
/// queries need.
///
/// Single-machine families verify candidates by random access to the
/// corpus, so they are paired with (shared ownership of) `X`; a
/// [`LiveIndex`] owns its segment chunks and memtable rows and is
/// self-contained. A segmented static corpus is served as a live index
/// (`LiveIndex::from_corpus`) that no client mutates.
///
/// Deliberately unboxed despite the variant size skew: a server holds one
/// of these per corpus, and dispatch sits on the per-query hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ServedIndex {
    /// One single-machine index over a shared corpus.
    Single {
        /// The index.
        index: AnyIndex,
        /// The corpus it was built over.
        corpus: Arc<WeightedString>,
    },
    /// A mutable live index (self-contained: segments and memtable own
    /// the corpus). The `Arc` is shared, not swapped — the live index
    /// performs its own internal snapshot/swap per mutation, so `APPEND`
    /// / `DELETE_RANGE` / `FLUSH` / `COMPACT` work through the same
    /// serving snapshot while queries keep running.
    Live(Arc<LiveIndex>),
}

impl ServedIndex {
    /// Pairs a single-machine index with its corpus.
    pub fn single(index: AnyIndex, corpus: Arc<WeightedString>) -> Self {
        ServedIndex::Single { index, corpus }
    }

    /// Wraps a mutable live index (enables the `APPEND` / `DELETE_RANGE`
    /// / `FLUSH` / `COMPACT` wire ops).
    pub fn live(index: Arc<LiveIndex>) -> Self {
        ServedIndex::Live(index)
    }

    /// Loads a persisted single-machine index file of any family, to be
    /// served against `corpus`, the corpus it was built over.
    ///
    /// # Errors
    ///
    /// I/O and `InvalidData` errors of `ius_index::persist`, plus
    /// `InvalidInput` when a single-machine file is loaded without a
    /// corpus — or with a corpus whose length does not match the one
    /// recorded in the file (minimizer families record it; a mismatch
    /// would otherwise surface only as per-query panics or wrong
    /// answers).
    pub fn load(path: &Path, corpus: Option<Arc<WeightedString>>) -> io::Result<Self> {
        // One read into a single arena, then the zero-copy open — every
        // array view (and a hot reload's new serving snapshot) borrows the
        // same Arc-shared buffer.
        let index = open_index(&Arena::from_file(path)?)?;
        let corpus = corpus.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{} is a single-machine index file; serving it needs the corpus it was \
                     built over",
                    path.display()
                ),
            )
        })?;
        if let Some(expected) = index.corpus_len_hint() {
            if corpus.len() != expected {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "{} was built over a corpus of length {expected}, but the supplied \
                         corpus has length {} — wrong --n, preset or seed?",
                        path.display(),
                        corpus.len()
                    ),
                ));
            }
        }
        Ok(ServedIndex::Single { index, corpus })
    }

    /// The sink-based query entry point (see
    /// [`UncertainIndex::query_into`]).
    ///
    /// When the calling thread carries an armed request trace, the whole
    /// dispatch runs under a `query` span. A live index records its
    /// per-part stage groups internally (it knows the fan-out);
    /// single-machine indexes report one flat stage breakdown, recorded
    /// here from the returned stats.
    ///
    /// # Errors
    ///
    /// The engine's pattern-contract errors.
    pub fn query_into(
        &self,
        pattern: &[u8],
        scratch: &mut QueryScratch,
        sink: &mut dyn MatchSink,
    ) -> ius_weighted::Result<ius_query::QueryStats> {
        let traced = trace::active();
        if traced {
            trace::enter(trace::STAGE_QUERY);
        }
        let result = match self {
            ServedIndex::Single { index, corpus } => {
                index.query_into(pattern, corpus, scratch, sink)
            }
            ServedIndex::Live(index) => index.query_owned_into(pattern, scratch, sink),
        };
        if traced {
            match &result {
                Ok(stats) => {
                    if matches!(self, ServedIndex::Single { .. }) {
                        trace_stages(stats);
                    }
                    trace::exit_with(stats.candidates as u64, stats.reported as u64);
                }
                Err(_) => trace::exit_with(0, 0),
            }
        }
        result
    }

    /// Display name of the served structure.
    pub fn name(&self) -> String {
        match self {
            ServedIndex::Single { index, .. } => index.name().to_string(),
            ServedIndex::Live(index) => index.stats().name,
        }
    }

    /// Length of the served corpus.
    pub fn corpus_len(&self) -> usize {
        match self {
            ServedIndex::Single { corpus, .. } => corpus.len(),
            ServedIndex::Live(index) => index.len(),
        }
    }

    /// Heap bytes of the served index structure.
    pub fn size_bytes(&self) -> usize {
        match self {
            ServedIndex::Single { index, .. } => index.size_bytes(),
            ServedIndex::Live(index) => index.size_bytes(),
        }
    }

    /// The live index, when one is served (the target of the live wire
    /// ops).
    fn live_index(&self) -> Option<&Arc<LiveIndex>> {
        match self {
            ServedIndex::Live(index) => Some(index),
            _ => None,
        }
    }

    /// The shared corpus, when one is attached (used by reloads so a new
    /// single-machine index file can be served against the same `X`).
    fn corpus(&self) -> Option<Arc<WeightedString>> {
        match self {
            ServedIndex::Single { corpus, .. } => Some(corpus.clone()),
            ServedIndex::Live(_) => None,
        }
    }
}

/// One immutable serving snapshot: what `Arc` swaps exchange.
#[derive(Debug)]
struct ServedState {
    index: ServedIndex,
    generation: u64,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (each owns a scratch and serves one connection at a
    /// time). At least 1.
    pub workers: usize,
    /// Admission-queue capacity: connections waiting beyond the ones being
    /// served. Full queue ⇒ typed `OVERLOADED` refusal. At least 1.
    pub queue_depth: usize,
    /// The read timeout of every connection: a peer that sends nothing for
    /// this long — between frames or inside one — is closed, releasing the
    /// worker. Without it, `workers` silent keep-alive clients would pin
    /// the whole pool while admitted connections starve in the queue. Must
    /// be non-zero (`Server::bind` refuses zero).
    pub idle_timeout: Duration,
    /// Queries answered at least this slow land in the flight recorder's
    /// slow ring, surfaced by `TRACE_DUMP` and counted by `slow_queries`
    /// (`Duration::ZERO` records every query; handy in tests). A failed
    /// query goes to the errors ring instead.
    pub slow_query_threshold: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_depth: 64,
            idle_timeout: Duration::from_secs(60),
            slow_query_threshold: Duration::from_millis(50),
        }
    }
}

struct Shared {
    state: Mutex<Arc<ServedState>>,
    reload_path: Option<PathBuf>,
    metrics: ServerMetrics,
    /// One private registry per worker (indexed like the worker threads);
    /// merged only on a scrape.
    worker_obs: Vec<Arc<WorkerObs>>,
    slow_query_threshold_ns: u64,
    /// The errors, slow and recent rings, answered by `TRACE_DUMP` and
    /// dumped to stderr by the panic hook.
    flight: Arc<FlightRecorder>,
    queue: AdmissionQueue,
    shutdown: AtomicBool,
    /// One slot per worker: a clone of the connection it is serving, so
    /// shutdown can close its read half and wake the worker's read.
    serving: Vec<Mutex<Option<TcpStream>>>,
    addr: SocketAddr,
    workers: usize,
    queue_depth: usize,
    idle_timeout: Duration,
}

/// A running server. Dropping the handle does **not** stop the threads;
/// call [`Server::shutdown`] (or send a `SHUTDOWN` frame and then
/// [`Server::join`]).
pub struct Server {
    shared: Arc<Shared>,
    /// The acceptor and worker threads, tracked by the shared
    /// [`WorkerPool`] (joined on shutdown; a dropped handle detaches).
    pool: WorkerPool,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor and worker threads serving `index`. `reload_path` is the
    /// file a path-less `RELOAD` re-reads — pass the startup index path.
    ///
    /// # Errors
    ///
    /// Socket errors of the bind; `InvalidInput` for a zero
    /// `idle_timeout` (a zero read timeout is not representable — std
    /// refuses it).
    pub fn bind(
        addr: impl ToSocketAddrs,
        index: ServedIndex,
        reload_path: Option<PathBuf>,
        config: &ServerConfig,
    ) -> io::Result<Server> {
        if config.idle_timeout.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "idle_timeout must be non-zero",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // The first timed operation must not pay the clock's one-time
        // base-instant initialization.
        clock::warm_up();
        let workers = config.workers.max(1);
        let flight = Arc::new(FlightRecorder::new());
        register_flight_panic_hook(&flight);
        let shared = Arc::new(Shared {
            state: Mutex::new(Arc::new(ServedState {
                index,
                generation: 0,
            })),
            reload_path,
            metrics: ServerMetrics::new(),
            worker_obs: (0..workers).map(|_| Arc::new(WorkerObs::new())).collect(),
            flight,
            slow_query_threshold_ns: config.slow_query_threshold.as_nanos() as u64,
            queue: AdmissionQueue::new(config.queue_depth),
            shutdown: AtomicBool::new(false),
            serving: (0..workers).map(|_| Mutex::new(None)).collect(),
            addr,
            workers,
            queue_depth: config.queue_depth.max(1),
            idle_timeout: config.idle_timeout,
        });
        let mut pool = WorkerPool::new();
        {
            let shared = shared.clone();
            pool.spawn("ius-accept", move || accept_loop(&shared, &listener));
        }
        for i in 0..shared.workers {
            let shared = shared.clone();
            pool.spawn(&format!("ius-worker-{i}"), move || worker_loop(&shared, i));
        }
        Ok(Server { shared, pool })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The current index generation (0 at startup, +1 per reload).
    pub fn generation(&self) -> u64 {
        self.shared.state.lock().expect("state lock").generation
    }

    /// A scrape handle that outlives the consuming [`Server::join`] /
    /// [`Server::shutdown`]: the `serve` binary's periodic metrics dump
    /// thread holds one while the main thread blocks in `join`.
    pub fn metrics_handle(&self) -> MetricsHandle {
        MetricsHandle {
            shared: self.shared.clone(),
        }
    }

    /// Initiates a graceful shutdown and joins every thread: in-flight
    /// requests complete, queued-but-unserved connections are answered
    /// with `SHUTTING_DOWN`.
    pub fn shutdown(mut self) {
        trigger_shutdown(&self.shared);
        self.join_threads();
    }

    /// Waits for a shutdown initiated elsewhere (a client `SHUTDOWN`
    /// frame), then cleans up — what the `serve` binary blocks on.
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        self.pool.join_all();
        // Everything still queued was never served: tell the clients.
        let mut out = Vec::new();
        for mut stream in self.shared.queue.drain() {
            refuse(
                &mut stream,
                ErrorCode::ShuttingDown,
                "server shut down before this connection was served",
                &mut out,
            );
        }
    }
}

/// A cloneable local scrape handle onto a running server — the same
/// scrape a wire `STATS` request answers, without a connection.
#[derive(Clone)]
pub struct MetricsHandle {
    shared: Arc<Shared>,
}

impl MetricsHandle {
    /// Scrapes the running server (see [`Server::metrics_handle`]).
    pub fn scrape(&self) -> Scrape {
        scrape(&self.shared)
    }

    /// Whether the server has begun shutting down (lets a dump thread
    /// exit promptly).
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

/// Builds the `STATS` answer: the serving context, the shared counters,
/// every worker registry merged, the served live index's samples and the
/// rings' counts. Runs on the scrape path — allocation is fine here.
fn scrape(shared: &Shared) -> Scrape {
    let state = shared.state.lock().expect("state lock").clone();
    let mut scrape = Scrape::new();
    for (name, value) in [
        ("index_name", Value::Info(state.index.name())),
        ("generation", Value::Gauge(state.generation)),
        ("corpus_len", Value::Gauge(state.index.corpus_len() as u64)),
        (
            "index_size_bytes",
            Value::Gauge(state.index.size_bytes() as u64),
        ),
        ("workers", Value::Gauge(shared.workers as u64)),
        ("queue_depth", Value::Gauge(shared.queue_depth as u64)),
        ("uptime_ns", Value::Gauge(clock::now_ns())),
    ] {
        scrape.push(name, value);
    }
    shared.metrics.scrape_into(&mut scrape);
    WorkerObs::scrape_into(&shared.worker_obs, &mut scrape);
    match state.index.live_index() {
        Some(live) => live.scrape_into(&mut scrape),
        // A static index runs no background work that could fail; the
        // counter is present so every server reports all error counters.
        None => scrape.push("compaction_errors", Value::Counter(0)),
    }
    shared.flight.scrape_into(&mut scrape);
    scrape.push(
        "slow_query_threshold_ns",
        Value::Gauge(shared.slow_query_threshold_ns),
    );
    scrape
}

/// Flight recorders of every server bound in this process, reachable by
/// the (installed-once) panic hook. Weak: the hook must not keep a
/// shut-down server's rings alive.
static HOOKED_FLIGHTS: Mutex<Vec<Weak<FlightRecorder>>> = Mutex::new(Vec::new());
static FLIGHT_HOOK: Once = Once::new();

/// Registers `flight` with the process-wide panic hook: when any thread
/// panics, every live recorder dumps its surviving records to stderr —
/// the last failed, slow and sampled requests before the crash, which is
/// the whole point of a flight recorder. Chains the previously installed
/// hook.
fn register_flight_panic_hook(flight: &Arc<FlightRecorder>) {
    {
        let mut flights = HOOKED_FLIGHTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        flights.retain(|w| w.strong_count() > 0);
        flights.push(Arc::downgrade(flight));
    }
    FLIGHT_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            previous(info);
            let flights = HOOKED_FLIGHTS
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for flight in flights.iter().filter_map(Weak::upgrade) {
                eprintln!("{}", flight.render());
            }
        }));
    });
}

fn trigger_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    shared.queue.close();
    // Wake every worker blocked reading a connection: its read returns
    // EOF once the bytes already received are consumed.
    for slot in &shared.serving {
        if let Some(stream) = &*slot.lock().expect("serving slot") {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
    // Wake the acceptor out of its blocking accept. A wildcard bind
    // (0.0.0.0 / ::) is not connectable on every platform, so aim the
    // wake-up at loopback on the same port.
    let mut wake = shared.addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    let _ = TcpStream::connect(wake);
}

fn accept_loop(shared: &Shared, listener: &TcpListener) {
    let mut out = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Persistent accept errors (e.g. the process is out of file
                // descriptors) must not busy-spin a core; back off briefly.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wake-up connection from trigger_shutdown lands here; any
            // real late connection gets the same typed answer.
            let mut stream = stream;
            refuse(
                &mut stream,
                ErrorCode::ShuttingDown,
                "server is shutting down",
                &mut out,
            );
            return;
        }
        shared.metrics.connections.inc();
        let _ = stream.set_nodelay(true);
        // The one read timeout of this connection: bind refused zero.
        let _ = stream.set_read_timeout(Some(shared.idle_timeout));
        if let Err(mut refused) = shared.queue.try_push(stream, clock::now_ns()) {
            shared.metrics.overloaded.inc();
            refuse(
                &mut refused,
                ErrorCode::Overloaded,
                &format!(
                    "admission queue full ({} waiting); retry later",
                    shared.queue_depth
                ),
                &mut out,
            );
            // Dropping the stream closes the refused connection.
        }
    }
}

/// Per-worker reusable buffers: with these warmed up, answering a
/// collect/count query allocates nothing beyond what the engine scratch
/// already owns (the pattern is borrowed straight out of the frame buffer,
/// never copied). The frame buffer lives outside this struct so its borrow
/// can overlap the mutable use of the rest.
struct WorkerBuffers {
    scratch: QueryScratch,
    positions: Vec<usize>,
    out: Vec<u8>,
}

impl WorkerBuffers {
    fn new() -> Self {
        Self {
            scratch: QueryScratch::new(),
            positions: Vec::new(),
            out: Vec::new(),
        }
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    let mut frame = Vec::new();
    let mut buffers = WorkerBuffers::new();
    // The registry outlives any panic recovery below: recorded history is
    // never lost with the buffers.
    let obs = shared.worker_obs[worker].clone();
    let slot = &shared.serving[worker];
    while let Some((stream, accepted_ns)) = shared.queue.pop() {
        let mut queue_wait_ns = 0;
        if clock::enabled() {
            queue_wait_ns = clock::now_ns().saturating_sub(accepted_ns);
            obs.queue_wait.record(queue_wait_ns);
        }
        // Publish the connection for shutdown to wake, then re-check the
        // flag: a shutdown that swept the slots before this publish is
        // not missed. (A failed clone leaves only the idle timeout.)
        *slot.lock().expect("serving slot") = stream.try_clone().ok();
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Read);
        }
        // A panic while serving (an engine bug, an incompatible reloaded
        // index) must cost one connection, not a pool slot: catch it, drop
        // the possibly inconsistent buffers, keep serving.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_connection(
                shared,
                &obs,
                stream,
                &mut frame,
                &mut buffers,
                queue_wait_ns,
            );
        }));
        *slot.lock().expect("serving slot") = None;
        if outcome.is_err() {
            eprintln!("ius-server worker recovered from a panic; connection dropped");
            // A trace armed by the aborted request must not leak spans
            // into whatever this thread serves next.
            trace::abandon();
            frame = Vec::new();
            buffers = WorkerBuffers::new();
        }
    }
}

/// Answers `stream` with one typed error frame carrying id 0 (no request
/// id could be read); the caller then closes the connection.
fn refuse(stream: &mut TcpStream, code: ErrorCode, message: &str, out: &mut Vec<u8>) {
    encode_response(
        0,
        &Response::Error {
            code,
            message: message.into(),
        },
        out,
    );
    let _ = stream.write_all(out);
}

/// What request traces carry of the wire frame: the `ErrorCode` byte of a
/// typed error response sits at this absolute offset in the encoded frame
/// (4-byte length prefix + 14-byte header + the status byte at 18 being
/// `ST_ERROR`).
const FRAME_STATUS_OFFSET: usize = 18;

fn handle_connection(
    shared: &Shared,
    obs: &WorkerObs,
    mut stream: TcpStream,
    frame: &mut Vec<u8>,
    buffers: &mut WorkerBuffers,
    queue_wait_ns: u64,
) {
    // Per-request timing is always on (the slow ring must see every
    // query), but everything else is sampled at 1-in-
    // [`clock::STAGE_SAMPLE_EVERY`], one decision per request: it arms the
    // request's trace (so the engine stamps its stages), feeds the service
    // histogram and keeps the request in the flight recorder's recent
    // ring. Under a large index working set the histograms' cache lines
    // are cold on every request, so an unconditional record costs a couple
    // of hundred nanoseconds of misses. The first request on each
    // connection is always sampled, so scrapes see per-op service data
    // immediately.
    let mut service_tick: u32 = 0;
    loop {
        match read_frame(&mut stream, MAX_REQUEST_FRAME, frame) {
            Ok(true) => {}
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized length prefix: refuse with a typed frame, then
                // close (the stream offset can no longer be trusted).
                shared.metrics.protocol_errors.inc();
                refuse(
                    &mut stream,
                    ErrorCode::Malformed,
                    &e.to_string(),
                    &mut buffers.out,
                );
                return;
            }
            // EOF, the idle timeout or a transport error: close. Shutdown
            // wakes an idle read with EOF; tell the client why.
            _ => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    refuse(
                        &mut stream,
                        ErrorCode::ShuttingDown,
                        "server is shutting down",
                        &mut buffers.out,
                    );
                }
                return;
            }
        }
        shared.metrics.requests.inc();
        // Service time covers body decode + answer + send — everything the
        // worker does for this frame after it has arrived.
        let service_start = clock::now_ns();
        // The one sampling decision: arm the thread-local span buffer
        // (refused while the clock is stubbed). The queue-wait leaf belongs
        // to the connection's first request only (pops happen once per
        // connection, not per frame).
        let sampled = service_tick.is_multiple_of(clock::STAGE_SAMPLE_EVERY)
            && trace::begin(trace::next_trace_id());
        if sampled {
            if service_tick == 0 {
                trace::leaf(trace::STAGE_QUEUE_WAIT, queue_wait_ns, 0, 0);
            }
            trace::enter(trace::STAGE_FRAME_DECODE);
        }
        let (id, op, body) = match decode_header(frame) {
            Ok(parts) => parts,
            Err(err) => {
                // The stream cannot be trusted to be frame-aligned after a
                // header-level violation: answer once, then close.
                trace::abandon();
                shared.metrics.protocol_errors.inc();
                let code = match err {
                    ProtocolError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
                    _ => ErrorCode::Malformed,
                };
                refuse(&mut stream, code, &err.to_string(), &mut buffers.out);
                return;
            }
        };
        // Hot path: QUERY bodies are decoded borrowing the pattern straight
        // out of the frame buffer (no per-request allocation); other ops go
        // through the owned decoder.
        enum Decoded<'a> {
            Query(ResultMode, &'a [u8]),
            Other(Request),
            Bad(ProtocolError),
        }
        let decoded = match decode_query_body(op, body) {
            Some(Ok((mode, pattern))) => Decoded::Query(mode, pattern),
            Some(Err(err)) => Decoded::Bad(err),
            None => match decode_request_body(op, body) {
                Ok(request) => Decoded::Other(request),
                Err(err) => Decoded::Bad(err),
            },
        };
        if sampled {
            trace::exit_with(frame.len() as u64, 0); // frame_decode
        }
        let close_after;
        // The pattern and reported count of a QUERY, for its flight record.
        let mut query = None;
        match decoded {
            Decoded::Query(mode, pattern) => {
                close_after = false;
                let reported = answer_query(shared, obs, id, mode, pattern, buffers);
                query = Some((pattern, reported));
            }
            Decoded::Other(request) => {
                close_after = matches!(request, Request::Shutdown);
                answer(shared, obs, id, request, buffers);
            }
            Decoded::Bad(err) => {
                // Body-level violations leave the framing intact: answer
                // with the request's own id and keep the connection.
                close_after = false;
                body_error(shared, id, &err, &mut buffers.out);
            }
        }
        if sampled {
            trace::enter(trace::STAGE_RESPONSE_WRITE);
        }
        let sent = stream.write_all(&buffers.out);
        if sampled {
            trace::exit_with(buffers.out.len() as u64, 0);
        }
        // One stamp at service end feeds the service histogram, the slow
        // test and the flight record (0 while the clock is stubbed).
        let elapsed = clock::now_ns().saturating_sub(service_start);
        if sampled {
            obs.record_service(op, elapsed);
        }
        // A typed error response sits at a fixed frame offset, so no error
        // state needs threading through the answer paths.
        let error = match buffers.out.get(FRAME_STATUS_OFFSET) {
            Some(&255) => buffers
                .out
                .get(FRAME_STATUS_OFFSET + 1)
                .copied()
                .unwrap_or(TRACE_NO_ERROR),
            _ => TRACE_NO_ERROR,
        };
        let slow = op == OP_QUERY && clock::enabled() && elapsed >= shared.slow_query_threshold_ns;
        let mut facts = RequestFacts::new(op, error, service_start, elapsed);
        if let Some((pattern, reported)) = query {
            facts = facts.with_query(pattern, reported);
        }
        // Kept when failed, slow or sampled; the trace (write span
        // included) is finished into the record.
        shared.flight.record(&facts, slow);
        service_tick = service_tick.wrapping_add(1);
        if sent.is_err() || close_after {
            return;
        }
    }
}

/// Encodes the typed error frame for a body-level protocol violation.
fn body_error(shared: &Shared, id: u64, err: &ProtocolError, out: &mut Vec<u8>) {
    shared.metrics.protocol_errors.inc();
    let code = match err {
        ProtocolError::UnknownOp(_) => ErrorCode::UnknownOp,
        _ => ErrorCode::Malformed,
    };
    encode_response(
        id,
        &Response::Error {
            code,
            message: err.to_string(),
        },
        out,
    );
}

/// Answers one query, borrowing the pattern from the caller's frame
/// buffer — the hot path. With warmed buffers, collect and count modes
/// allocate nothing beyond what the engine scratch already owns.
///
/// Returns the number of positions reported (0 when the query failed and
/// was answered with a typed error).
fn answer_query(
    shared: &Shared,
    obs: &WorkerObs,
    id: u64,
    mode: ResultMode,
    pattern: &[u8],
    buffers: &mut WorkerBuffers,
) -> u64 {
    // Snapshot the served index: a reload swapping the Arc while this
    // query runs does not affect it, and the old index stays alive until
    // the last in-flight query drops its clone.
    let state = shared.state.lock().expect("state lock").clone();
    // The modes differ only in the sink and the response they encode;
    // collect reuses the worker's position buffer.
    buffers.positions.clear();
    let mut count = CountSink::new();
    let mut first_k = FirstKSink::new(match mode {
        ResultMode::FirstK(k) => usize::try_from(k).unwrap_or(usize::MAX),
        _ => 0,
    });
    let sink: &mut dyn MatchSink = match mode {
        ResultMode::Collect => &mut buffers.positions,
        ResultMode::Count => &mut count,
        ResultMode::FirstK(_) => &mut first_k,
    };
    let stats = match state.index.query_into(pattern, &mut buffers.scratch, sink) {
        Ok(stats) => stats,
        Err(err) => {
            query_error(shared, obs, id, &err, &mut buffers.out);
            return 0;
        }
    };
    let positions: &[usize] = match mode {
        ResultMode::Collect => &buffers.positions,
        ResultMode::Count => &[],
        ResultMode::FirstK(_) => &first_k.positions,
    };
    let reported = match mode {
        ResultMode::Count => count.count,
        _ => positions.len(),
    } as u64;
    obs.record_query(&stats);
    shared.metrics.queries.inc();
    shared.metrics.occurrences.add(reported);
    let traced = trace::active();
    if traced {
        trace::enter(trace::STAGE_RESPONSE_ENCODE);
    }
    match mode {
        ResultMode::Count => encode_response(
            id,
            &Response::Count {
                stats: stats.into(),
                count: reported,
            },
            &mut buffers.out,
        ),
        _ => encode_matches_from_slice(id, &stats.into(), positions, &mut buffers.out),
    }
    if traced {
        trace::exit_with(buffers.out.len() as u64, 0);
    }
    reported
}

/// Builds the response frame for one well-formed request into
/// `buffers.out`.
fn answer(
    shared: &Shared,
    obs: &WorkerObs,
    id: u64,
    request: Request,
    buffers: &mut WorkerBuffers,
) {
    match request {
        Request::Ping => encode_response(id, &Response::Pong, &mut buffers.out),
        Request::Query { mode, pattern } => {
            answer_query(shared, obs, id, mode, &pattern, buffers);
        }
        Request::Stats => encode_response(id, &Response::Stats(scrape(shared)), &mut buffers.out),
        Request::Reload { path } => match reload(shared, path.as_deref()) {
            Ok(generation) => {
                shared.metrics.reloads.inc();
                encode_response(id, &Response::Reloaded { generation }, &mut buffers.out);
            }
            Err(message) => {
                encode_response(
                    id,
                    &Response::Error {
                        code: ErrorCode::Reload,
                        message,
                    },
                    &mut buffers.out,
                );
            }
        },
        Request::TraceDump => encode_response(
            id,
            &Response::TraceDump(shared.flight.snapshot()),
            &mut buffers.out,
        ),
        Request::Shutdown => {
            trigger_shutdown(shared);
            encode_response(id, &Response::ShuttingDown, &mut buffers.out);
        }
        Request::Append { .. }
        | Request::DeleteRange { .. }
        | Request::Flush
        | Request::Compact { .. } => answer_live(shared, id, request, &mut buffers.out),
    }
}

/// Answers one live-corpus mutation. A server not serving a live index
/// refuses with a typed `LIVE_ERROR`; engine-side failures (alphabet
/// mismatch, malformed rows, out-of-range delete, segment build errors)
/// come back typed the same way — never as a panic or a hangup.
fn answer_live(shared: &Shared, id: u64, request: Request, out: &mut Vec<u8>) {
    let state = shared.state.lock().expect("state lock").clone();
    let Some(live) = state.index.live_index() else {
        shared.metrics.live_errors.inc();
        encode_response(
            id,
            &Response::Error {
                code: ErrorCode::Live,
                message: format!(
                    "this server serves a static {} index; live mutations need `serve --live`",
                    state.index.name()
                ),
            },
            out,
        );
        return;
    };
    // Matched by value so the APPEND body moves straight into the
    // WeightedString — no copy of a potentially 16 MB batch.
    let outcome: Result<u64, String> = match request {
        Request::Append { sigma, probs } => {
            let expected = live.alphabet().size() as u64;
            if sigma != expected {
                Err(format!(
                    "appended rows are over sigma = {sigma}, the live index over sigma = {expected}"
                ))
            } else if probs.is_empty() {
                Err("APPEND carried no rows".into())
            } else {
                // Row validation (arity, [0, 1] entries, unit sums) happens
                // in the WeightedString constructor.
                WeightedString::from_flat(live.alphabet().clone(), probs)
                    .map_err(|e| e.to_string())
                    .and_then(|batch| {
                        let rows = batch.len() as u64;
                        live.append(&batch).map_err(|e| e.to_string()).map(|_| rows)
                    })
                    .inspect(|rows| {
                        shared.metrics.appended_positions.add(*rows);
                    })
            }
        }
        Request::DeleteRange { start, end } => {
            let (start, end) = (start as usize, end as usize);
            live.delete_range(start, end)
                .map_err(|e| e.to_string())
                .map(|()| (end - start) as u64)
                .inspect(|_| shared.metrics.delete_ranges.inc())
        }
        Request::Flush => {
            let before = live.live_stats().segments as u64;
            live.flush().map_err(|e| e.to_string()).map(|frozen| {
                if frozen {
                    shared.metrics.flushes.inc();
                    // A concurrent compaction may already have merged the
                    // frozen segments; never underflow.
                    (live.live_stats().segments as u64)
                        .saturating_sub(before)
                        .max(1)
                } else {
                    0
                }
            })
        }
        Request::Compact { full } => {
            let merges = if full {
                live.compact_full()
            } else {
                live.compact_once()
            };
            merges.map_err(|e| e.to_string()).map(|merges| {
                if merges > 0 {
                    shared.metrics.compactions.inc();
                }
                merges as u64
            })
        }
        _ => unreachable!("answer_live only receives live ops"),
    };
    match outcome {
        Ok(changed) => {
            let stats = live.live_stats();
            encode_response(
                id,
                &Response::Live(LiveSnapshot {
                    corpus_len: stats.corpus_len as u64,
                    segments: stats.segments as u64,
                    memtable_rows: stats.memtable_rows as u64,
                    tombstones: stats.tombstones as u64,
                    changed,
                }),
                out,
            );
        }
        Err(message) => {
            shared.metrics.live_errors.inc();
            encode_response(
                id,
                &Response::Error {
                    code: ErrorCode::Live,
                    message,
                },
                out,
            );
        }
    }
}

fn query_error(
    shared: &Shared,
    obs: &WorkerObs,
    id: u64,
    err: &ius_weighted::Error,
    out: &mut Vec<u8>,
) {
    shared.metrics.query_errors.inc();
    if matches!(err, ius_weighted::Error::PatternTooShort { .. }) {
        obs.pattern_too_short.inc();
    }
    encode_response(
        id,
        &Response::Error {
            code: ErrorCode::Query,
            message: err.to_string(),
        },
        out,
    );
}

/// Loads the replacement index **off-lock**, then swaps the `Arc` under the
/// lock. Returns the new generation.
///
/// **Contract:** a reloaded *single-machine* file must contain an index
/// built over the corpus the server is already serving — the file stores
/// the structure, not `X`. Minimizer files record the corpus *length*, so
/// a wrong-length swap fails here with a typed `RELOAD_ERROR`; a
/// same-length different corpus cannot be detected (no content
/// fingerprint is stored) and yields wrong answers (or a panicked query,
/// which costs that connection but not the worker — see `worker_loop`).
fn reload(shared: &Shared, path: Option<&str>) -> Result<u64, String> {
    if shared
        .state
        .lock()
        .expect("state lock")
        .index
        .live_index()
        .is_some()
    {
        return Err(
            "this server serves a live index, which mutates in place (APPEND/DELETE_RANGE/\
             FLUSH/COMPACT); RELOAD is not supported — persist and reopen via the ius_live \
             manifest instead"
                .into(),
        );
    }
    let path: PathBuf = match (path, &shared.reload_path) {
        (Some(p), _) => PathBuf::from(p),
        (None, Some(p)) => p.clone(),
        (None, None) => {
            return Err(
                "no reload path: the server was started from an in-memory index and the \
                 RELOAD frame named no file"
                    .into(),
            )
        }
    };
    // A reloaded single-machine index is served against the corpus already
    // attached (the file stores the structure, not X).
    let corpus = shared.state.lock().expect("state lock").index.corpus();
    let index = ServedIndex::load(&path, corpus)
        .map_err(|e| format!("reload of {} failed: {e}", path.display()))?;
    let mut state = shared.state.lock().expect("state lock");
    let generation = state.generation + 1;
    *state = Arc::new(ServedState { index, generation });
    Ok(generation)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_is_sane() {
        let config = ServerConfig::default();
        assert!(config.workers >= 1);
        assert!(config.queue_depth >= 1);
        assert!(config.idle_timeout > Duration::ZERO);
    }

    #[test]
    fn bind_refuses_a_zero_idle_timeout() {
        use ius_datasets::uniform::UniformConfig;
        use ius_index::{IndexFamily, IndexParams, IndexSpec};
        let x = UniformConfig {
            n: 120,
            sigma: 2,
            spread: 0.4,
            seed: 9,
        }
        .generate();
        let params = IndexParams::new(4.0, 8, x.sigma()).unwrap();
        let index = IndexSpec::new(IndexFamily::Wsa, params).build(&x).unwrap();
        let config = ServerConfig {
            idle_timeout: Duration::ZERO,
            ..Default::default()
        };
        let served = ServedIndex::single(index, Arc::new(x));
        let err = Server::bind("127.0.0.1:0", served, None, &config)
            .err()
            .expect("a zero idle timeout must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("idle_timeout"), "{err}");
    }

    #[test]
    fn served_index_load_requires_a_corpus_for_single_machine_files() {
        use ius_datasets::uniform::UniformConfig;
        use ius_index::{IndexFamily, IndexParams, IndexSpec};
        let x = UniformConfig {
            n: 120,
            sigma: 2,
            spread: 0.4,
            seed: 9,
        }
        .generate();
        let params = IndexParams::new(4.0, 8, x.sigma()).unwrap();
        let index = IndexSpec::new(IndexFamily::Wsa, params).build(&x).unwrap();
        let dir = std::env::temp_dir().join(format!("ius-served-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wsa.iusx");
        let mut file = std::fs::File::create(&path).unwrap();
        index.save_to(&mut file).unwrap();
        drop(file);
        let err = ServedIndex::load(&path, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let served = ServedIndex::load(&path, Some(Arc::new(x.clone()))).unwrap();
        assert_eq!(served.corpus_len(), 120);
        assert_eq!(served.name(), "WSA");
        assert!(served.size_bytes() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn served_index_load_rejects_a_corpus_of_the_wrong_length() {
        use ius_datasets::uniform::UniformConfig;
        use ius_index::{IndexFamily, IndexParams, IndexSpec, IndexVariant};
        let x = UniformConfig {
            n: 300,
            sigma: 2,
            spread: 0.4,
            seed: 4,
        }
        .generate();
        let params = IndexParams::new(4.0, 8, x.sigma()).unwrap();
        let index = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::Array), params)
            .build(&x)
            .unwrap();
        let dir = std::env::temp_dir().join(format!("ius-served-mismatch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mwsa.iusx");
        index
            .save_to(&mut std::fs::File::create(&path).unwrap())
            .unwrap();
        // The minimizer file records |X| = 300; a 150-long corpus must be
        // refused at load time, not fail per-query.
        let short = UniformConfig {
            n: 150,
            sigma: 2,
            spread: 0.4,
            seed: 4,
        }
        .generate();
        let err = ServedIndex::load(&path, Some(Arc::new(short))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("300") && err.to_string().contains("150"));
        assert!(ServedIndex::load(&path, Some(Arc::new(x))).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
