//! # servebench — the repository benchmark of the served index
//!
//! One command runs one named workload from one seed, checks every answer
//! the system gives, and prints every metric by name with its unit and
//! sample count (see [`report`] for the metric tables). It drives the
//! library only through its public calls and times each layer from
//! outside, around the calls into it:
//!
//! * `weighted` — `ZEstimation::build`;
//! * `index` — `IndexSpec::build_with_estimation` and `save_to`;
//! * `arena` — `ServedIndex::load` (the zero-copy open);
//! * `query` — in-process `UncertainIndex::query_into`;
//! * `server` — `Server::bind` and the wire round trip of `Client` calls;
//! * `live` — `LiveIndex::from_corpus`, `enable_durability`, appends and
//!   queries through the live server;
//! * `client` — the benchmark's own load generator (how late it ran).
//!
//! Workloads ([`Workload`]): `serve-pangenome` and `serve-rssi` serve a
//! persisted MWSA-G index read-only; `live-uniform` serves a WAL-armed
//! `LiveIndex` that one connection appends to while the other queries.
//!
//! `--trace 0` measures the end-to-end metrics with spans off;
//! `--trace 1` repeats the run with in-memory spans recorded around every
//! call, adds a closed-loop capacity phase and an in-process engine
//! pass, and prints the per-layer metrics instead.

#[global_allocator]
static ALLOC: ius_memtrack::CountingAllocator = ius_memtrack::CountingAllocator::new();

mod live;
mod load;
pub mod report;
mod serve;
mod spans;

use ius::datasets::patterns::PatternSampler;
use ius::index::{QueryScratch, QueryStats, UncertainIndex};
use ius::server::{Client, ServerConfig};
use ius::weighted::{WeightedString, ZEstimation};
use load::{closed_loop, open_loop, Counts, OpError, OpenLoop, SpanNames, Stripe};
use report::{median, Report};
use spans::{SpanId, Tracer};
use std::fmt;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Server worker threads, and the most connections one workload opens at
/// once: the host this benchmark was written for has two CPUs.
pub const WORKERS: usize = 2;

/// Length of the closed-loop capacity phase of a traced run, as a share
/// of `--seconds`.
const CAPACITY_SHARE: f64 = 0.2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pangenome corpus (z = 32, ℓ = 128) served read-only.
    ServePangenome,
    /// RSSI corpus (σ = 91, z = 64, ℓ = 8) served read-only.
    ServeRssi,
    /// Uniform corpus (z = 8, ℓ = 64) in a WAL-armed live index, appended
    /// to while queried.
    LiveUniform,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ServePangenome,
        Workload::ServeRssi,
        Workload::LiveUniform,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePangenome => "serve-pangenome",
            Workload::ServeRssi => "serve-rssi",
            Workload::LiveUniform => "live-uniform",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Source of the corpus, pattern and stream seeds.
    pub seed: u64,
    /// Length of the measured phases, seconds.
    pub seconds: f64,
    /// Record spans and print the per-layer metrics.
    pub trace: bool,
    /// Corpus length (the live workload seeds its index with this many
    /// positions).
    pub n: usize,
    /// Distinct query patterns.
    pub patterns: usize,
    /// Times the set-up is repeated (its times are those of one
    /// repetition, see `SetupPick`).
    pub setup_reps: usize,
    /// Memtable rows that trigger a flush in the live workload.
    pub live_flush_threshold: usize,
    /// Corrupt one expected answer before measuring, so the correctness
    /// gate must fire (used by the tests).
    pub perturb_expected: bool,
    /// Directory for index files, the WAL and the span dump.
    pub out_dir: PathBuf,
}

impl Config {
    /// The full-size run of `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            n: 100_000,
            patterns: 1_000,
            // The RSSI set-up takes seconds; the others a fraction of one.
            setup_reps: if workload == Workload::ServeRssi {
                5
            } else {
                9
            },
            live_flush_threshold: ius::live::LiveConfig::default().flush_threshold,
            perturb_expected: false,
            out_dir: PathBuf::from(".bench_out"),
        }
    }
}

/// Why a run produced no result.
#[derive(Debug)]
pub enum BenchError {
    /// Bad command line.
    Usage(String),
    /// The system could not be set up or driven.
    Setup(String),
    /// The system gave a wrong answer.
    Mismatch(String),
}

impl BenchError {
    /// The process exit code for this error.
    pub fn exit_code(&self) -> i32 {
        match self {
            BenchError::Usage(_) | BenchError::Setup(_) => 2,
            BenchError::Mismatch(_) => 3,
        }
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Usage(m) => write!(f, "usage: {m}"),
            BenchError::Setup(m) => write!(f, "set-up failed: {m}"),
            BenchError::Mismatch(m) => write!(f, "wrong answer: {m}"),
        }
    }
}

/// Wraps any displayable error as a set-up failure.
pub(crate) fn setup_err(what: &str) -> impl Fn(&dyn fmt::Display) -> BenchError + '_ {
    move |e| BenchError::Setup(format!("{what}: {e}"))
}

/// Runs one workload and returns its report.
pub fn run(config: &Config) -> Result<Report, BenchError> {
    std::fs::create_dir_all(&config.out_dir).map_err(|e| setup_err("output directory")(&e))?;
    let mut tracer = Tracer::new(config.trace, Instant::now());
    let mut report = match config.workload {
        Workload::ServePangenome => serve::run(config, &serve::PANGENOME, &mut tracer)?,
        Workload::ServeRssi => serve::run(config, &serve::RSSI, &mut tracer)?,
        Workload::LiveUniform => live::run(config, &mut tracer)?,
    };
    if config.trace {
        for (name, t) in tracer.self_times() {
            report.note(format!(
                "span {name}: count {} total {:.3} ms self {:.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        let path = config
            .out_dir
            .join(format!("spans-{}.tsv", config.workload.name()));
        tracer
            .write_tsv(&path)
            .map_err(|e| setup_err("writing spans")(&e))?;
        report.note(format!("spans written to {}", path.display()));
    }
    Ok(report)
}

/// SplitMix64: the benchmark's own seed mixer and stream generator.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of one input (`0` corpus, `1` patterns, `2` query stream)
/// derived from the run seed.
pub(crate) fn derive_seed(seed: u64, input: u64) -> u64 {
    let mut state = seed ^ input.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix64(&mut state)
}

/// Samples the pattern pool: 45% of length `lengths[0]` and 45% of length
/// `lengths[1]` drawn from the z-estimation (solid somewhere), plus 10%
/// uniformly random patterns of those lengths (almost always absent).
pub(crate) fn pattern_pool(
    estimation: &ZEstimation,
    lengths: [usize; 2],
    sigma: usize,
    count: usize,
    seed: u64,
) -> Result<Vec<Vec<u8>>, BenchError> {
    let mut sampler = PatternSampler::new(estimation, seed);
    let absent = count / 10;
    let solid = count - absent;
    let mut pool = sampler.sample_many(lengths[0], solid / 2);
    pool.extend(sampler.sample_many(lengths[1], solid - solid / 2));
    if pool.len() < solid {
        return Err(BenchError::Setup(format!(
            "only {} of {solid} solid patterns could be sampled",
            pool.len()
        )));
    }
    pool.extend(sampler.sample_random(lengths[0], absent / 2, sigma));
    pool.extend(sampler.sample_random(lengths[1], absent - absent / 2, sigma));
    Ok(pool)
}

/// A seeded stream of `len` pool indices, uniform over `pool_len`.
pub(crate) fn query_stream(len: usize, pool_len: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    (0..len)
        .map(|_| (splitmix64(&mut state) % pool_len as u64) as usize)
        .collect()
}

/// Requests scheduled at `rate` over `share` of `--seconds` (at least one
/// per sender).
pub(crate) fn scheduled_requests(config: &Config, rate: f64, share: f64) -> usize {
    ((rate * config.seconds * share).round() as usize).max(WORKERS)
}

/// Length of the closed-loop capacity phase of a traced run, seconds.
pub(crate) fn capacity_seconds(config: &Config) -> f64 {
    config.seconds * CAPACITY_SHARE
}

/// The server settings every workload uses.
pub(crate) fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        queue_depth: 64,
        ..Default::default()
    }
}

/// Sum of the server's error counters (`STATS`), read over a connection
/// that is closed again before returning, so it never holds a worker.
pub(crate) fn server_errors(addr: SocketAddr) -> Result<u64, BenchError> {
    let stats = Client::connect(addr)
        .map_err(|e| setup_err("stats connection")(&e))?
        .stats()
        .map_err(|e| setup_err("stats")(&e))?;
    Ok(stats.protocol_errors
        + stats.query_errors
        + stats.overloaded
        + stats.live_errors
        + stats.compaction_errors)
}

/// A directory under the output directory, removed when dropped.
pub(crate) struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub(crate) fn create(config: &Config, tag: &str) -> Result<Self, BenchError> {
        let path = config.out_dir.join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| setup_err("work directory")(&e))?;
        Ok(Self { path })
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Time and heap of one measured call.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Part {
    pub(crate) ms: f64,
    /// Highest live heap reached during the call, bytes.
    pub(crate) peak_abs: usize,
    /// That peak minus the live heap when the call started, bytes.
    pub(crate) peak_growth: usize,
}

/// Runs `f` as layer call `name`, recording a span and its time and heap.
pub(crate) fn measured<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: Option<SpanId>,
    req: u64,
    f: impl FnOnce() -> T,
) -> (T, Part) {
    ius_memtrack::reset_peak();
    let base = ius_memtrack::live_bytes();
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    let peak_abs = ius_memtrack::peak_bytes();
    tracer.record(name, start, end, parent, req);
    let part = Part {
        ms: (end - start).as_secs_f64() * 1e3,
        peak_abs,
        peak_growth: peak_abs.saturating_sub(base),
    };
    (value, part)
}

/// Bytes per MB in the reported figures.
pub(crate) const MB: f64 = 1024.0 * 1024.0;

/// One repetition of a workload's set-up (parts a workload does not run
/// stay 0).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SetupSample {
    /// Build start to server accepting, milliseconds.
    pub(crate) total_ms: f64,
    /// Highest heap growth over the whole set-up, MB.
    pub(crate) peak_mb: f64,
    pub(crate) zest: Part,
    pub(crate) build: Part,
    pub(crate) save: Part,
    pub(crate) open: Part,
    pub(crate) bind: Part,
    pub(crate) seed_build: Part,
    pub(crate) wal_arm: Part,
    /// Persisted index file bytes.
    pub(crate) file_bytes: u64,
    /// In-memory index bytes (`size_bytes()`).
    pub(crate) size_bytes: u64,
}

impl SetupSample {
    /// Set-up time not covered by a measured part.
    pub(crate) fn unattributed_ms(&self) -> f64 {
        let parts = [
            self.zest,
            self.build,
            self.save,
            self.open,
            self.bind,
            self.seed_build,
            self.wal_arm,
        ];
        self.total_ms - parts.iter().map(|p| p.ms).sum::<f64>()
    }
}

/// Which set-up repetition `setup_s` and its parts are taken from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SetupPick {
    /// The fastest: the set-up runs no background work of its own, so
    /// other work on the host can only slow it down.
    Fastest,
    /// The median (by total time): the set-up races the system's own
    /// background work, so the fastest repetition is a lucky outcome of
    /// that race, not the typical cost.
    Median,
}

/// Reports the set-up metrics. `setup_s` and its parts come from one
/// repetition chosen by `pick`, so the parts plus `setup.unattributed_ms`
/// sum to `setup_s`; `setup_peak_heap_mb` is the median over the
/// repetitions.
pub(crate) fn report_setup(report: &mut Report, reps: &[SetupSample], pick: SetupPick) {
    let n = reps.len();
    let mut by_time = reps.to_vec();
    by_time.sort_by(|a, b| a.total_ms.total_cmp(&b.total_ms));
    let chosen = match pick {
        SetupPick::Fastest => by_time.first(),
        SetupPick::Median => by_time.get(by_time.len().saturating_sub(1) / 2),
    }
    .copied()
    .unwrap_or_default();
    let peaks: Vec<f64> = reps.iter().map(|s| s.peak_mb).collect();
    report.set("setup_s", chosen.total_ms / 1e3, n);
    report.set("setup_peak_heap_mb", median(&peaks), n);
    report.set("weighted.zestimation_ms", chosen.zest.ms, 1);
    report.set(
        "weighted.zestimation_peak_mb",
        chosen.zest.peak_growth as f64 / MB,
        1,
    );
    report.set("index.build_ms", chosen.build.ms, 1);
    report.set(
        "index.build_peak_mb",
        chosen.build.peak_growth as f64 / MB,
        1,
    );
    report.set("index.save_ms", chosen.save.ms, 1);
    report.set("arena.open_ms", chosen.open.ms, 1);
    report.set("server.bind_ms", chosen.bind.ms, 1);
    report.set("live.seed_build_ms", chosen.seed_build.ms, 1);
    report.set("live.wal_arm_ms", chosen.wal_arm.ms, 1);
    report.set("setup.unattributed_ms", chosen.unattributed_ms(), 1);
    report.set("index.file_bytes", chosen.file_bytes as f64, 1);
    report.set("index.size_bytes", chosen.size_bytes as f64, 1);
    let totals: Vec<String> = reps.iter().map(|s| format!("{:.1}", s.total_ms)).collect();
    let which = match pick {
        SetupPick::Fastest => "fastest",
        SetupPick::Median => "median",
    };
    report.note(format!(
        "set-up repetitions ms: {}; setup_s is the {which} one",
        totals.join(" ")
    ));
    report.note(format!(
        "attribution: set-up parts + setup.unattributed_ms = setup_s; \
         unattributed share {:.4}%",
        chosen.unattributed_ms() / chosen.total_ms * 100.0
    ));
}

/// Heap growth `peak_abs - base` in MB.
pub(crate) fn growth_mb(peak_abs: usize, base: usize) -> f64 {
    peak_abs.saturating_sub(base) as f64 / MB
}

/// Engine times and counters of one in-process pass over the stream.
#[derive(Debug, Default)]
pub(crate) struct EnginePass {
    /// Engine time of each request of the stream, µs.
    pub(crate) per_request_us: Vec<f64>,
    /// Median engine time of each pool pattern, µs (0 if never queried).
    pub(crate) per_pattern_us: Vec<f64>,
    /// Summed engine counters.
    pub(crate) stats: QueryStats,
}

/// Queries every request of `stream` in process through
/// `UncertainIndex::query_into`, timing each call, and checks each answer
/// against `expected`.
pub(crate) fn engine_pass(
    index: &dyn UncertainIndex,
    x: &WeightedString,
    pool: &[Vec<u8>],
    expected: &[Vec<usize>],
    stream: &[usize],
    tracer: &mut Tracer,
) -> Result<EnginePass, BenchError> {
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let mut pass = EnginePass {
        per_request_us: Vec::with_capacity(stream.len()),
        ..Default::default()
    };
    let mut by_pattern: Vec<Vec<f64>> = vec![Vec::new(); pool.len()];
    for (i, &p) in stream.iter().enumerate() {
        out.clear();
        let start = Instant::now();
        let stats = index
            .query_into(&pool[p], x, &mut scratch, &mut out)
            .map_err(|e| setup_err("in-process query")(&e))?;
        let end = Instant::now();
        if out != expected[p] {
            return Err(BenchError::Mismatch(format!(
                "in-process answer to pattern {p} differs from the expected answer"
            )));
        }
        tracer.record(
            "query.engine",
            start,
            end,
            None,
            spans::REQ_ENGINE | i as u64,
        );
        let us = (end - start).as_secs_f64() * 1e6;
        pass.per_request_us.push(us);
        by_pattern[p].push(us);
        pass.stats.candidates += stats.candidates;
        pass.stats.verified += stats.verified;
        pass.stats.reported += stats.reported;
        pass.stats.grid_nodes += stats.grid_nodes;
    }
    pass.per_pattern_us = by_pattern.iter().map(|s| median(s)).collect();
    Ok(pass)
}

/// Reports the engine, counter and wire metrics. `closed_rt` holds the
/// served closed-loop round trips as `(pool index, µs)`; the wire share
/// of each is its round trip minus the engine time of the same pattern.
pub(crate) fn report_query_layers(
    report: &mut Report,
    engine: &EnginePass,
    closed_rt: &[(usize, f64)],
) {
    let q = engine.per_request_us.len();
    report.set_quantile("query.engine_p50_us", &engine.per_request_us, 0.50);
    report.set_quantile("query.engine_p99_us", &engine.per_request_us, 0.99);
    let s = &engine.stats;
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    report.set(
        "query.candidates_per_reported",
        ratio(s.candidates, s.reported),
        q,
    );
    report.set(
        "query.verified_per_candidate",
        ratio(s.verified, s.candidates),
        q,
    );
    report.set("query.grid_nodes_per_query", ratio(s.grid_nodes, q), q);
    report.set("query.reported_per_query", ratio(s.reported, q), q);
    let wire: Vec<f64> = closed_rt
        .iter()
        .map(|&(p, rt)| rt - engine.per_pattern_us[p])
        .collect();
    report.set_quantile("server.wire_p50_us", &wire, 0.50);
    report.set_quantile("server.wire_p99_us", &wire, 0.99);
    let rt: Vec<f64> = closed_rt.iter().map(|&(_, rt)| rt).collect();
    let engine_closed: Vec<f64> = closed_rt
        .iter()
        .map(|&(p, _)| engine.per_pattern_us[p])
        .collect();
    let (rt50, e50, w50) = (median(&rt), median(&engine_closed), median(&wire));
    report.note(format!(
        "attribution: served round trip = query.engine + server.wire per request; at p50 \
         round trip {rt50:.2} us, engine {e50:.2} us, wire {w50:.2} us, unattributed share {:.2}%",
        if rt50 > 0.0 {
            (rt50 - e50 - w50) / rt50 * 100.0
        } else {
            0.0
        }
    ));
}

/// Every answer of every pool pattern from an in-process index.
pub(crate) fn expected_answers(
    index: &dyn UncertainIndex,
    x: &WeightedString,
    pool: &[Vec<u8>],
) -> Result<Vec<Vec<usize>>, BenchError> {
    let mut scratch = QueryScratch::new();
    pool.iter()
        .map(|p| {
            let mut out = Vec::new();
            index
                .query_into(p, x, &mut scratch, &mut out)
                .map_err(|e| setup_err("in-process query")(&e))?;
            Ok(out)
        })
        .collect()
}

/// Corrupts one expected answer (drops a position, or invents one when
/// every answer is empty), so a correct system must trip the gate.
pub(crate) fn perturb(expected: &mut [Vec<usize>]) {
    match expected.iter_mut().find(|e| !e.is_empty()) {
        Some(answer) => {
            answer.pop();
        }
        None => expected[0].push(0),
    }
}

/// The correctness gate of a served answer that must equal the expected
/// one exactly.
pub(crate) fn check_exact(got: &[usize], want: &[usize], pattern: usize) -> Result<(), OpError> {
    if got == want {
        Ok(())
    } else {
        Err(OpError::Mismatch(format!(
            "served answer to pattern {pattern} has {} positions, the in-process index {}",
            got.len(),
            want.len()
        )))
    }
}

/// Runs the open-loop `sender(c, tracer)` on each of [`WORKERS`] threads
/// and merges what they return and record.
pub(crate) fn on_senders<T: Send>(
    tracer: &mut Tracer,
    capacity: usize,
    sender: impl Fn(usize, &mut Tracer) -> Result<T, BenchError> + Sync,
) -> Result<Vec<T>, BenchError> {
    let results: Vec<Result<(T, Tracer), BenchError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|c| {
                let mut local = tracer.fork(capacity);
                let sender = &sender;
                scope.spawn(move || sender(c, &mut local).map(|t| (t, local)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(WORKERS);
    for result in results {
        let (value, local) = result?;
        tracer.absorb(local);
        out.push(value);
    }
    Ok(out)
}

/// Consecutive parts of an open-loop phase, each with fresh sender
/// threads and connections, so a slow placement of the threads on the
/// CPUs spoils a part, not the figure.
const OPEN_LOOP_PARTS: usize = 4;

/// The open-loop query phase: `stream` scheduled at `rate` queries/s over
/// [`WORKERS`] connections, every answer checked against `expected`. The
/// stream is sent in [`OPEN_LOOP_PARTS`] parts; samples come back in
/// stream order.
pub(crate) fn open_loop_queries(
    addr: SocketAddr,
    pool: &[Vec<u8>],
    expected: &[Vec<usize>],
    stream: &[usize],
    rate: f64,
    tracer: &mut Tracer,
) -> Result<OpenLoop, BenchError> {
    let names = SpanNames {
        request: "client.request",
        call: "server.roundtrip",
    };
    let mut parts = Vec::new();
    for part in 0..OPEN_LOOP_PARTS {
        let lo = part * stream.len() / OPEN_LOOP_PARTS;
        let sub = &stream[lo..(part + 1) * stream.len() / OPEN_LOOP_PARTS];
        let start = Instant::now() + std::time::Duration::from_millis(50);
        let senders = on_senders(tracer, 3 * sub.len() / WORKERS + 16, |c, local| {
            let mut client = Client::connect(addr).map_err(|e| setup_err("connect")(&e))?;
            let stripe = Stripe {
                start,
                rate,
                first: c,
                step: WORKERS,
                count: sub.len(),
            };
            open_loop(
                stripe,
                local,
                names,
                spans::REQ_QUERY + lo as u64,
                |i| Ok(client.query(&pool[sub[i]])?),
                |i, outcome, _| check_exact(&outcome.positions, &expected[sub[i]], sub[i]),
            )
            .map_err(BenchError::Mismatch)
        })?;
        for mut sender in senders {
            sender.index.iter_mut().for_each(|i| *i += lo);
            parts.push(sender);
        }
    }
    Ok(OpenLoop::merge(parts))
}

/// Throughput and round trips of one closed-loop block.
#[derive(Debug, Default)]
struct Block {
    /// Answered requests per second of the block.
    qps: f64,
    /// `(pool index, round trip µs)` of every answered request.
    rt: Vec<(usize, f64)>,
    counts: Counts,
}

/// One closed-loop block of `seconds`: [`WORKERS`] fresh connections, one
/// request in flight on each, cycling through `stream`. Fresh sender
/// threads per block let the scheduler place them anew, so a placement
/// that happens to be slow spoils one block, not the figure.
fn capacity_block(
    addr: SocketAddr,
    pool: &[Vec<u8>],
    expected: &[Vec<usize>],
    stream: &[usize],
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Block, BenchError> {
    let spans_per_sender = (seconds * 100_000.0) as usize;
    let start = Instant::now() + std::time::Duration::from_millis(20);
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let loops = on_senders(tracer, spans_per_sender, |c, local| {
        let mut client = Client::connect(addr).map_err(|e| setup_err("connect")(&e))?;
        let now = Instant::now();
        if start > now {
            std::thread::sleep(start - now);
        }
        closed_loop(
            deadline,
            c,
            WORKERS,
            local,
            |i| Ok(client.query(&pool[stream[i % stream.len()]])?),
            |i, outcome| {
                let p = stream[i % stream.len()];
                check_exact(&outcome.positions, &expected[p], p)
            },
        )
        .map_err(BenchError::Mismatch)
    })?;
    let mut block = Block::default();
    for l in loops {
        block.counts.add(l.counts);
        block.rt.extend(
            l.rt_us
                .into_iter()
                .map(|(i, us)| (stream[i % stream.len()], us)),
        );
    }
    block.qps = block.rt.len() as f64 / seconds;
    Ok(block)
}

/// Measured closed-loop blocks, alternating untraced and traced
/// (`ABBAABBA`).
const CAPACITY_BLOCKS: usize = 8;

/// The closed-loop capacity phase of a traced run: a warm-up block, then
/// [`CAPACITY_BLOCKS`] blocks alternating untraced and traced, over
/// `seconds` in all. `query_capacity_qps` is the median untraced block
/// throughput and `trace.overhead_frac` the untraced median over the
/// traced median, minus 1. Returns the round trips of the traced blocks
/// (for the wire metrics) and the counts of all blocks.
pub(crate) fn capacity_phase(
    addr: SocketAddr,
    pool: &[Vec<u8>],
    expected: &[Vec<usize>],
    stream: &[usize],
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(Vec<(usize, f64)>, Counts), BenchError> {
    let block_seconds = seconds / (CAPACITY_BLOCKS + 1) as f64;
    let mut counts = Counts::default();
    let (mut plain, mut traced, mut rt) = (Vec::new(), Vec::new(), Vec::new());
    for b in 0..=CAPACITY_BLOCKS {
        let is_traced = b > 0 && matches!((b - 1) % 4, 1 | 2);
        tracer.set_enabled(is_traced);
        let block = capacity_block(addr, pool, expected, stream, block_seconds, tracer);
        tracer.set_enabled(true);
        let block = block?;
        counts.add(block.counts);
        if b == 0 {
            continue;
        }
        if is_traced {
            traced.push(block.qps);
            rt.extend(block.rt);
        } else {
            plain.push(block.qps);
        }
    }
    let (plain_qps, traced_qps) = (median(&plain), median(&traced));
    report.set("query_capacity_qps", plain_qps, plain.len());
    report.set(
        "trace.overhead_frac",
        plain_qps / traced_qps - 1.0,
        plain.len() + traced.len(),
    );
    report.note(format!(
        "tracing overhead: closed loop {plain_qps:.0} q/s untraced vs {traced_qps:.0} q/s traced"
    ));
    Ok((rt, counts))
}

/// Reports the metrics of the live layer as 0 with no samples, for the
/// workloads that do not run it.
pub(crate) fn report_no_live_layer(report: &mut Report) {
    for name in [
        "append_p50_us",
        "append_p99_us",
        "live.append_call_p50_us",
        "live.append_call_p99_us",
        "live.flush_append_ms",
        "live.query_call_p50_us",
        "live.ingest_query_p99_us",
        "live.segments_mean",
        "live.flushes",
        "live.compactions",
        "live.compaction_errors",
        "live.wal_bytes_per_appended_byte",
    ] {
        report.set(name, 0.0, 0);
    }
}
