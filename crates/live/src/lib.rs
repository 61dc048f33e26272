//! # ius-live — dynamic segmented indexing over uncertain strings
//!
//! Every index family in this workspace is built once over a fixed weighted
//! string. This crate adds the first *mutable-corpus* structure: an
//! LSM-style [`LiveIndex`] whose logical corpus grows by appends and
//! shrinks (logically) by range deletions **while it is being queried** —
//! no full rebuild, no downtime.
//!
//! ## Model
//!
//! The logical corpus is the weighted string `X[0, n)`; `n` only grows.
//! Three structures cover it:
//!
//! * an ordered list of immutable **segments** — each one a chunk of `X`
//!   plus a persisted-format index (any family, built through the PR-3
//!   [`IndexSpec`] builder) over that chunk. Segment *home ranges* tile a
//!   prefix `[0, h)` of the corpus, and each chunk extends
//!   `max_pattern_len − 1` positions past its home range (the shared
//!   overlap rule of `ius_index::overlap`), so every occurrence of a
//!   supported pattern lies entirely inside the chunk of the segment whose
//!   home range contains its start;
//! * a **memtable tail**: the raw probability rows of `[h, n)`, served by
//!   a naive `O(rows·m)` scan that abandons a window as soon as it can no
//!   longer be solid. Appends land here and are visible to the very next
//!   query;
//! * a **tombstone set** of deleted logical ranges. Positions are never
//!   renumbered: `delete_range(s, e)` invalidates every occurrence whose
//!   window intersects `[s, e)`, and reported positions keep their
//!   original coordinates. (Space is not reclaimed — tombstones are a
//!   query-time filter.)
//!
//! A **flush** freezes the memtable into a new segment: the new segment's
//! home range is `[h, n − overlap)` and its chunk is all memtable rows
//! `[h, n)`; the memtable retains the last `overlap` rows (its new home
//! start is `n − overlap`), which is exactly what makes the frozen chunk
//! cover its home range plus the overlap without ever needing future data.
//!
//! ## Queries
//!
//! [`LiveIndex::query_owned_into`] implements the workspace-wide
//! `query_into(pattern, scratch, sink) → QueryStats` contract on the
//! calling thread: it visits the segments in order through the shared
//! fan-out `ius_index::overlap::query_parts`, which filters each part's
//! output to its home range (the shared dedup rule) into one merge buffer
//! — already globally sorted — then appends the memtable scan, drops
//! tombstoned windows and streams into the sink. No thread is spawned and,
//! once the caller's scratch has warmed up, nothing is allocated.
//! Queries run against an [`Arc`] snapshot of the state: appends, flushes
//! and compactions swap the snapshot and never block or corrupt an
//! in-flight query (the PR-4 hot-reload discipline).
//!
//! ## Compaction
//!
//! Many small segments mean many fan-out parts per query. A **tiered**
//! compaction policy merges runs of ≥ `compact_fanout` consecutive
//! segments in the same size class (⌊log₂ home_len⌋) into one segment.
//! [`LiveIndex::compact_once`] applies one round; with
//! `LiveConfig::auto_compact` a background thread runs rounds after every
//! flush. The merged segment is built entirely **off-lock** from a
//! snapshot and swapped in only if its inputs are still present (checked
//! by segment id), so concurrent queries, appends and flushes proceed
//! untouched while a compaction builds.
//!
//! ## Persistence
//!
//! [`LiveIndex::save_to_dir`] / [`LiveIndex::open`] persist the whole
//! structure as a directory: one `live.iusl` manifest (magic `IUSL`,
//! versioned like the `IUSX` index format) naming the segment list,
//! memtable and tombstones, plus one `seg-*.iusg` file per segment
//! embedding the chunk and its index (saved via `ius_index::persist`, so
//! reopening never re-runs construction). Every file carries a CRC32
//! trailer, so silent corruption is rejected typed at open. See
//! [`manifest`].
//!
//! ## Durability
//!
//! [`LiveIndex::enable_durability`] arms a **write-ahead log**
//! (`live.wal`, see [`wal`]): every append/delete is logged — checksummed
//! and flushed per the configured [`FsyncPolicy`] — *before* it is applied,
//! so the caller's ack implies the mutation survives a crash.
//! [`LiveIndex::open`] replays the log tail over the manifest snapshot;
//! each flush checkpoints the manifest and rotates the log so it stays
//! bounded. Checkpoint failures are recorded in [`LiveStats::last_error`]
//! and retried on the next flush — they never fail an already-acked
//! mutation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest;
pub mod wal;

pub use wal::FsyncPolicy;

use crate::wal::{Wal, WalRecord};
use ius_exec::{Executor, WorkerPool};
use ius_faultio::DurableSink;
use ius_index::overlap::{overlap_len, query_parts, trace_part, Part};
use ius_index::{validate_pattern, AnyIndex, IndexSpec, IndexStats, UncertainIndex};
use ius_obs::{clock, trace, Counter, Histogram, HistogramSnapshot};
use ius_query::{finalize_into, MatchSink, QueryScratch, QueryStats};
use ius_weighted::string::DISTRIBUTION_SUM_TOLERANCE;
use ius_weighted::{is_solid, Alphabet, Error, Result, WeightedString, PROB_EPSILON};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Tuning knobs of one [`LiveIndex`].
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Memtable rows that trigger an automatic flush on append. The
    /// effective threshold is at least `max_pattern_len` (a flush needs a
    /// non-empty home range after retaining the overlap).
    pub flush_threshold: usize,
    /// Tiered-compaction fan-out `K`: a run of at least `K` consecutive
    /// segments in the same size class is merged into one. At least 2.
    pub compact_fanout: usize,
    /// Spawn a background thread that runs compaction rounds after every
    /// flush (and periodically), so queries never see an unbounded number
    /// of small segments.
    pub auto_compact: bool,
    /// Worker threads of the segment-build executor — flushes freeze
    /// multiple segments concurrently and a compaction round runs multiple
    /// tier merges concurrently, one worker each (0 = all CPUs). Individual
    /// segment indexes always build serially inside their worker, so the
    /// built bytes are identical at every thread count. Queries do not use
    /// it: they run on the calling thread.
    pub threads: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            flush_threshold: 8_192,
            compact_fanout: 4,
            auto_compact: true,
            threads: 0,
        }
    }
}

/// One immutable segment: its global offset, the width of the home range
/// it is authoritative for, its chunk of `X` (home + overlap) and the
/// index built over the chunk.
#[derive(Debug)]
pub(crate) struct Segment {
    /// Unique id (stable across compactions of *other* segments; used by
    /// the compaction swap to detect a concurrent change and by the
    /// manifest to name the segment file).
    pub(crate) id: u64,
    /// Global position of the chunk's (and home range's) first row.
    pub(crate) offset: usize,
    /// Width of the home range.
    pub(crate) home_len: usize,
    /// The chunk `[offset, offset + home_len + overlap)`, owned.
    pub(crate) x: WeightedString,
    /// The index over the chunk.
    pub(crate) index: AnyIndex,
}

/// Rows below which an append coalesces into the tail slab instead of
/// starting a new one: bounds both the copy-on-write cost of a
/// small-batch append and the slab count of the whole memtable.
const SLAB_MIN_ROWS: usize = 256;

/// The in-memory tail: raw probability rows of `[start, start + rows)`.
///
/// Rows are stored in **slabs** shared with snapshots via [`Arc`] — the
/// per-mutation state clone copies only the slab pointer list, and an
/// append either pushes a new slab or extends the (bounded) tail slab
/// copy-on-write. Every slab holds a whole number of rows, so row-at-a-
/// time wire ingest costs `O(batch + SLAB_MIN_ROWS)` per append instead
/// of re-copying the entire memtable.
#[derive(Debug, Clone)]
pub(crate) struct Memtable {
    /// Global position of the first stored row (= the memtable's home
    /// start: the memtable is authoritative for every start ≥ `start`).
    pub(crate) start: usize,
    /// Stored rows.
    pub(crate) rows: usize,
    /// Row-major probability slabs (`Σ lengths = rows × σ`).
    slabs: Vec<Arc<Vec<f64>>>,
}

impl Memtable {
    pub(crate) fn empty(start: usize) -> Self {
        Self {
            start,
            rows: 0,
            slabs: Vec::new(),
        }
    }

    /// Rebuilds a memtable from one contiguous flat buffer (manifest
    /// load).
    pub(crate) fn from_flat(start: usize, rows: usize, flat: Vec<f64>) -> Self {
        Self {
            start,
            rows,
            slabs: if rows > 0 {
                vec![Arc::new(flat)]
            } else {
                Vec::new()
            },
        }
    }

    /// Appends `rows` row-major rows (never leaving an empty slab, which
    /// the scan's row cursor relies on).
    pub(crate) fn push_rows(&mut self, flat: &[f64], rows: usize, sigma: usize) {
        debug_assert_eq!(flat.len(), rows * sigma);
        if rows == 0 {
            return;
        }
        if let Some(last) = self.slabs.last_mut() {
            if last.len() < SLAB_MIN_ROWS * sigma {
                // Coalesce into the tail slab; `make_mut` copies it only
                // when a snapshot still shares it, and the slab is
                // bounded, so the copy is too.
                Arc::make_mut(last).extend_from_slice(flat);
                self.rows += rows;
                return;
            }
        }
        self.slabs.push(Arc::new(flat.to_vec()));
        self.rows += rows;
    }

    /// Appends the rows `[row_start, row_end)` onto `out` as one
    /// contiguous row-major run.
    pub(crate) fn copy_rows_into(
        &self,
        row_start: usize,
        row_end: usize,
        sigma: usize,
        out: &mut Vec<f64>,
    ) {
        let mut skip = row_start * sigma;
        let mut take = (row_end - row_start) * sigma;
        out.reserve(take);
        for slab in &self.slabs {
            if take == 0 {
                break;
            }
            if skip >= slab.len() {
                skip -= slab.len();
                continue;
            }
            let end = (skip + take).min(slab.len());
            out.extend_from_slice(&slab[skip..end]);
            take -= end - skip;
            skip = 0;
        }
        debug_assert_eq!(take, 0, "requested rows exceed the memtable");
    }

    /// The rows `[row_start, row_end)` as one owned flat buffer.
    pub(crate) fn flat_rows(&self, row_start: usize, row_end: usize, sigma: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.copy_rows_into(row_start, row_end, sigma, &mut out);
        out
    }

    /// Drops the first `rows` rows, advancing `start` (a slab split at
    /// the boundary is replaced by a copy of its tail, never mutated in
    /// place — snapshots may share it).
    pub(crate) fn drain_front(&mut self, rows: usize, sigma: usize) {
        let mut drop_vals = rows * sigma;
        while drop_vals > 0 {
            let slab = self.slabs.first().expect("enough rows to drain");
            if slab.len() <= drop_vals {
                drop_vals -= slab.len();
                self.slabs.remove(0);
            } else {
                let tail = Arc::new(slab[drop_vals..].to_vec());
                self.slabs[0] = tail;
                drop_vals = 0;
            }
        }
        self.rows -= rows;
        self.start += rows;
    }

    /// Heap bytes held by the slabs and the pointer list.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.slabs
            .iter()
            .map(|slab| slab.capacity() * std::mem::size_of::<f64>())
            .sum::<usize>()
            + self.slabs.capacity() * std::mem::size_of::<Arc<Vec<f64>>>()
    }
}

/// One immutable snapshot of the whole structure — what queries clone and
/// mutators swap.
#[derive(Debug, Clone)]
pub(crate) struct LiveState {
    pub(crate) segments: Vec<Arc<Segment>>,
    pub(crate) memtable: Memtable,
    /// Sorted, disjoint, coalesced deleted ranges (half-open).
    pub(crate) tombstones: Vec<(usize, usize)>,
    /// Logical corpus length.
    pub(crate) n: usize,
}

/// Operational counters of a [`LiveIndex`] (monotonic since creation).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Logical corpus length `n`.
    pub corpus_len: usize,
    /// Immutable segments currently serving.
    pub segments: usize,
    /// Rows currently in the memtable tail.
    pub memtable_rows: usize,
    /// Tombstoned ranges currently filtering queries.
    pub tombstones: usize,
    /// Positions appended since creation.
    pub appended: u64,
    /// Memtable flushes since creation.
    pub flushes: u64,
    /// Compaction merges since creation.
    pub compactions: u64,
    /// Mutations logged to the write-ahead log since creation.
    pub wal_records: u64,
    /// Bytes appended to the write-ahead log since creation.
    pub wal_bytes: u64,
    /// Crash recoveries performed (1 if this instance replayed a
    /// non-empty WAL tail when it was opened, 0 otherwise).
    pub recoveries: u64,
    /// Mutations replayed from the WAL at open.
    pub recovered_records: u64,
    /// The active fsync policy as its wire code: 0 durability off,
    /// 1 per-record, 2 interval, 3 never.
    pub fsync_policy: u64,
    /// Background compaction rounds that failed (they are retried on the
    /// next wake-up; see [`LiveStats::last_error`]).
    pub compaction_errors: u64,
    /// The most recent background/durability error (compaction failure,
    /// checkpoint failure, WAL rotation failure), if any.
    pub last_error: Option<String>,
}

/// Allocation-free timing registry of the background machinery: flush and
/// compaction durations, WAL `fsync` latency, replay throughput and
/// compaction swap races. Recording is a few relaxed atomic adds, gated on
/// [`ius_obs::clock::enabled`]; [`LiveIndex::obs_snapshot`] reads it.
pub(crate) struct LiveObs {
    /// Duration of each memtable flush (plan + build + swap), ns.
    pub(crate) flush: Histogram,
    /// Duration of each compaction round that built at least one merge, ns.
    pub(crate) compaction: Histogram,
    /// Latency of each WAL `fsync`, ns (shared with the armed [`Wal`]
    /// across rotations).
    pub(crate) wal_fsync: Arc<Histogram>,
    /// Compaction swaps abandoned because a concurrent flush or competing
    /// merge consumed one of the run's inputs first.
    pub(crate) swap_in_races: Counter,
    /// WAL records scanned at open (both applied and checkpoint-skipped).
    pub(crate) replay_records: Counter,
    /// WAL bytes scanned at open.
    pub(crate) replay_bytes: Counter,
    /// Wall time of the open-time WAL scan + replay, ns.
    pub(crate) replay_ns: Counter,
}

impl LiveObs {
    fn new() -> Self {
        Self {
            flush: Histogram::new(),
            compaction: Histogram::new(),
            wal_fsync: Arc::new(Histogram::new()),
            swap_in_races: Counter::new(),
            replay_records: Counter::new(),
            replay_bytes: Counter::new(),
            replay_ns: Counter::new(),
        }
    }
}

/// Point-in-time view of a [`LiveIndex`]'s timing metrics — what the
/// serving layer folds into its `METRICS` snapshot. All durations are
/// nanoseconds; histogram quantiles carry the `ius_obs` relative-error
/// bound.
#[derive(Debug, Clone)]
pub struct LiveObsSnapshot {
    /// Memtable flush durations (plan + segment builds + swap).
    pub flush: HistogramSnapshot,
    /// Compaction round durations (rounds that built at least one merge).
    pub compaction: HistogramSnapshot,
    /// WAL `fsync` latencies (empty until durability is armed).
    pub wal_fsync: HistogramSnapshot,
    /// Compaction swaps lost to a concurrent flush or competing merge.
    pub swap_in_races: u64,
    /// WAL records scanned when this instance was opened.
    pub replay_records: u64,
    /// WAL bytes scanned when this instance was opened.
    pub replay_bytes: u64,
    /// Wall time of the open-time WAL replay, ns.
    pub replay_ns: u64,
}

/// The armed write-ahead log plus the directory it (and the checkpoint
/// manifest) lives in. `dir` is `None` for the fault-injection entry point
/// ([`LiveIndex::enable_durability_with_sink`]) — there is no directory to
/// checkpoint into, so flushes skip the checkpoint and the log never
/// rotates.
struct Durability {
    dir: Option<PathBuf>,
    wal: Wal,
}

struct Inner {
    alphabet: Alphabet,
    spec: IndexSpec,
    max_pattern_len: usize,
    config: LiveConfig,
    /// Snapshot holder: queries clone the `Arc`, mutators swap it.
    state: Mutex<Arc<LiveState>>,
    /// Serializes mutators (append/delete/flush); compaction swaps are
    /// id-checked instead, so a long merge build never stalls appends.
    write_lock: Mutex<()>,
    next_segment_id: AtomicU64,
    /// Fan-out for segment builds (flush freezes, compaction merges),
    /// `config.threads` wide.
    build_executor: Executor,
    appended: AtomicU64,
    flushes: AtomicU64,
    compactions: AtomicU64,
    /// `Some` once durability is armed; mutators log here *before*
    /// applying (always while holding `write_lock`, so record order is
    /// the mutation order).
    durability: Mutex<Option<Durability>>,
    wal_records: AtomicU64,
    wal_bytes: AtomicU64,
    recoveries: AtomicU64,
    recovered_records: AtomicU64,
    compaction_errors: AtomicU64,
    /// Timing registry of the background machinery (flush/compaction/WAL
    /// fsync/replay); see [`LiveIndex::obs_snapshot`].
    obs: LiveObs,
    /// Most recent background/durability error, surfaced through STATS.
    last_error: Mutex<Option<String>>,
    /// Compactor wake-up: `(dirty, stop)` under the mutex.
    compact_signal: Mutex<(bool, bool)>,
    compact_cond: Condvar,
}

impl Inner {
    fn record_error(&self, message: String) {
        *self.last_error.lock().expect("error lock") = Some(message);
    }
}

/// An LSM-style dynamic index over one growing uncertain string. All
/// methods take `&self`; the structure is internally synchronized and is
/// meant to be shared behind an [`Arc`] (the serving layer does exactly
/// that).
pub struct LiveIndex {
    inner: Arc<Inner>,
    /// The background compactor thread (empty without `auto_compact`),
    /// tracked by the shared [`WorkerPool`] and joined on drop.
    compactor: Mutex<WorkerPool>,
}

impl std::fmt::Debug for LiveIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.live_stats();
        f.debug_struct("LiveIndex")
            .field("family", &self.inner.spec.family.name())
            .field("n", &stats.corpus_len)
            .field("segments", &stats.segments)
            .field("memtable_rows", &stats.memtable_rows)
            .field("tombstones", &stats.tombstones)
            .finish()
    }
}

impl LiveIndex {
    /// Creates an empty live index over `alphabet`: no segments, empty
    /// memtable, length 0. `max_pattern_len` bounds the pattern lengths
    /// the index will ever serve and fixes the segment overlap
    /// (`max_pattern_len − 1`).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameters`] if `max_pattern_len` is zero or below
    /// the family's minimum pattern length, or if `compact_fanout < 2`.
    pub fn new(
        alphabet: Alphabet,
        spec: IndexSpec,
        max_pattern_len: usize,
        config: LiveConfig,
    ) -> Result<Self> {
        if max_pattern_len == 0 {
            return Err(Error::InvalidParameters(
                "max_pattern_len = 0: the live index could not serve any pattern".into(),
            ));
        }
        if max_pattern_len < spec.lower_bound() {
            return Err(Error::InvalidParameters(format!(
                "max_pattern_len = {max_pattern_len} is below the family's minimum \
                 pattern length {}",
                spec.lower_bound()
            )));
        }
        if config.compact_fanout < 2 {
            return Err(Error::InvalidParameters(format!(
                "compact_fanout = {}: a merge needs at least two inputs",
                config.compact_fanout
            )));
        }
        let build_executor = Executor::with_threads(config.threads);
        let auto_compact = config.auto_compact;
        let inner = Arc::new(Inner {
            alphabet,
            spec,
            max_pattern_len,
            config,
            state: Mutex::new(Arc::new(LiveState {
                segments: Vec::new(),
                memtable: Memtable::empty(0),
                tombstones: Vec::new(),
                n: 0,
            })),
            write_lock: Mutex::new(()),
            next_segment_id: AtomicU64::new(0),
            build_executor,
            appended: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            durability: Mutex::new(None),
            wal_records: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            recovered_records: AtomicU64::new(0),
            compaction_errors: AtomicU64::new(0),
            obs: LiveObs::new(),
            last_error: Mutex::new(None),
            compact_signal: Mutex::new((false, false)),
            compact_cond: Condvar::new(),
        });
        let mut compactor = WorkerPool::new();
        if auto_compact {
            let worker = inner.clone();
            compactor.spawn("ius-live-compact", move || compactor_loop(&worker));
        }
        Ok(Self {
            inner,
            compactor: Mutex::new(compactor),
        })
    }

    /// Seeds a live index from an existing corpus: creates an empty index,
    /// appends `x` (auto-flushing at the configured threshold) and flushes
    /// the remainder, so the bulk of the corpus serves from real segments
    /// and only the trailing overlap stays in the memtable.
    ///
    /// This is also how a static sharded index is built: with
    /// `flush_threshold = ⌈n/S⌉` and `auto_compact: false`, the seed
    /// freezes into `⌈(n − overlap)/⌈n/S⌉⌉ ≤ S` segments, built
    /// concurrently on `LiveConfig::threads` workers, and nothing merges
    /// them afterwards.
    ///
    /// # Errors
    ///
    /// Construction errors of [`LiveIndex::new`], [`LiveIndex::append`]
    /// and [`LiveIndex::flush`].
    pub fn from_corpus(
        x: &WeightedString,
        spec: IndexSpec,
        max_pattern_len: usize,
        config: LiveConfig,
    ) -> Result<Self> {
        let live = Self::new(x.alphabet().clone(), spec, max_pattern_len, config)?;
        live.append(x)?;
        live.flush()?;
        Ok(live)
    }

    pub(crate) fn from_loaded_parts(
        alphabet: Alphabet,
        spec: IndexSpec,
        max_pattern_len: usize,
        config: LiveConfig,
        state: LiveState,
        next_segment_id: u64,
    ) -> Result<Self> {
        let live = Self::new(alphabet, spec, max_pattern_len, config)?;
        *live.inner.state.lock().expect("state lock") = Arc::new(state);
        live.inner
            .next_segment_id
            .store(next_segment_id, Ordering::SeqCst);
        Ok(live)
    }

    /// The alphabet every appended row must be over.
    pub fn alphabet(&self) -> &Alphabet {
        &self.inner.alphabet
    }

    /// The family/parameter descriptor segments are built from.
    pub fn spec(&self) -> &IndexSpec {
        &self.inner.spec
    }

    /// The maximum pattern length this index serves.
    pub fn max_pattern_len(&self) -> usize {
        self.inner.max_pattern_len
    }

    /// The segment overlap (`max_pattern_len − 1`).
    pub fn overlap(&self) -> usize {
        overlap_len(self.inner.max_pattern_len)
    }

    /// Logical corpus length `n`.
    pub fn len(&self) -> usize {
        self.snapshot().n
    }

    /// `true` iff nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of immutable segments currently serving.
    pub fn num_segments(&self) -> usize {
        self.snapshot().segments.len()
    }

    /// Operational counters.
    pub fn live_stats(&self) -> LiveStats {
        let state = self.snapshot();
        let fsync_policy = self
            .inner
            .durability
            .lock()
            .expect("durability lock")
            .as_ref()
            .map_or(0, |d| d.wal.policy().code());
        LiveStats {
            corpus_len: state.n,
            segments: state.segments.len(),
            memtable_rows: state.memtable.rows,
            tombstones: state.tombstones.len(),
            appended: self.inner.appended.load(Ordering::Relaxed),
            flushes: self.inner.flushes.load(Ordering::Relaxed),
            compactions: self.inner.compactions.load(Ordering::Relaxed),
            wal_records: self.inner.wal_records.load(Ordering::Relaxed),
            wal_bytes: self.inner.wal_bytes.load(Ordering::Relaxed),
            recoveries: self.inner.recoveries.load(Ordering::Relaxed),
            recovered_records: self.inner.recovered_records.load(Ordering::Relaxed),
            fsync_policy,
            compaction_errors: self.inner.compaction_errors.load(Ordering::Relaxed),
            last_error: self.inner.last_error.lock().expect("error lock").clone(),
        }
    }

    /// Point-in-time timing metrics of the background machinery: flush
    /// and compaction duration histograms, WAL `fsync` latency, replay
    /// throughput and compaction swap races. Durations are only recorded
    /// while the shared [`ius_obs::clock`] is enabled; reading is
    /// lock-free and never blocks a mutator.
    pub fn obs_snapshot(&self) -> LiveObsSnapshot {
        let obs = &self.inner.obs;
        LiveObsSnapshot {
            flush: obs.flush.snapshot(),
            compaction: obs.compaction.snapshot(),
            wal_fsync: obs.wal_fsync.snapshot(),
            swap_in_races: obs.swap_in_races.get(),
            replay_records: obs.replay_records.get(),
            replay_bytes: obs.replay_bytes.get(),
            replay_ns: obs.replay_ns.get(),
        }
    }

    /// The current tombstone set (sorted, disjoint, coalesced half-open
    /// ranges) — what the differential harness replays onto its reference.
    pub fn tombstones(&self) -> Vec<(usize, usize)> {
        self.snapshot().tombstones.clone()
    }

    /// Materializes the full logical corpus `X[0, n)` as one weighted
    /// string (`None` while the index is empty). Linear time and space —
    /// meant for tests and for differential verification, not serving.
    pub fn materialize(&self) -> Option<WeightedString> {
        let state = self.snapshot();
        if state.n == 0 {
            return None;
        }
        let sigma = self.inner.alphabet.size();
        let mut flat = Vec::with_capacity(state.n * sigma);
        for segment in &state.segments {
            flat.extend_from_slice(&segment.x.flat_probs()[..segment.home_len * sigma]);
        }
        state
            .memtable
            .copy_rows_into(0, state.memtable.rows, sigma, &mut flat);
        debug_assert_eq!(flat.len(), state.n * sigma);
        Some(
            WeightedString::from_flat(self.inner.alphabet.clone(), flat)
                .expect("segment and memtable rows were validated on append"),
        )
    }

    fn snapshot(&self) -> Arc<LiveState> {
        self.inner.state.lock().expect("state lock").clone()
    }

    // -----------------------------------------------------------------
    // Mutations
    // -----------------------------------------------------------------

    /// Appends `batch` to the logical corpus. The new rows are visible to
    /// the very next query (served by the memtable scan until a flush
    /// freezes them into a segment). Auto-flushes when the memtable
    /// reaches the configured threshold.
    ///
    /// With durability armed the batch is logged to the write-ahead log —
    /// and flushed per the [`FsyncPolicy`] — **before** it is applied, so
    /// a returned `Ok` implies the append survives a crash.
    ///
    /// Returns the new corpus length.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameters`] if `batch` is over a different
    /// alphabet; [`Error::Io`] if the write-ahead log refused the record
    /// (the batch was then **not** applied); flush errors when the
    /// threshold triggers.
    pub fn append(&self, batch: &WeightedString) -> Result<usize> {
        if batch.alphabet() != &self.inner.alphabet {
            return Err(Error::InvalidParameters(format!(
                "appended rows are over alphabet {:?}, the live index over {:?}",
                batch.alphabet().symbols(),
                self.inner.alphabet.symbols()
            )));
        }
        if batch.is_empty() {
            // Nothing to log or apply; keep the WAL free of zero-row
            // records (replay rejects them as malformed).
            return Ok(self.len());
        }
        let _write = self.inner.write_lock.lock().expect("write lock");
        // Log before applying: the record must be durable (per policy)
        // before the caller can observe the new rows.
        let n_before = self.snapshot().n;
        self.log_mutation(|| WalRecord::Append {
            n_before: n_before as u64,
            rows: batch.len() as u64,
            flat: batch.flat_probs().to_vec(),
        })?;
        let new_n;
        {
            let mut holder = self.inner.state.lock().expect("state lock");
            let mut state = LiveState::clone(&holder);
            state
                .memtable
                .push_rows(batch.flat_probs(), batch.len(), self.inner.alphabet.size());
            state.n += batch.len();
            new_n = state.n;
            *holder = Arc::new(state);
        }
        self.inner
            .appended
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        // Auto-flush freezes only *full* threshold-sized segments (the
        // remainder stays in the memtable), so segment sizes — and hence
        // the tiered compaction classes — do not depend on how appends
        // were batched.
        if self.snapshot().memtable.rows >= self.max_home() + self.overlap() {
            self.flush_locked(false)?;
        }
        Ok(new_n)
    }

    /// Home rows per frozen segment (the effective flush threshold).
    fn max_home(&self) -> usize {
        self.inner
            .config
            .flush_threshold
            .max(self.inner.max_pattern_len)
    }

    /// Tombstones the logical range `[start, end)`: every occurrence whose
    /// window intersects it disappears from query results. Positions are
    /// never renumbered and space is not reclaimed.
    ///
    /// With durability armed the deletion is logged to the write-ahead
    /// log — and flushed per the [`FsyncPolicy`] — **before** it is
    /// applied, so a returned `Ok` implies it survives a crash.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameters`] if `start ≥ end`;
    /// [`Error::PositionOutOfBounds`] if `end` exceeds the corpus length;
    /// [`Error::Io`] if the write-ahead log refused the record (the
    /// deletion was then **not** applied).
    pub fn delete_range(&self, start: usize, end: usize) -> Result<()> {
        if start >= end {
            return Err(Error::InvalidParameters(format!(
                "delete_range({start}, {end}): the range is empty"
            )));
        }
        let _write = self.inner.write_lock.lock().expect("write lock");
        let n_before = self.snapshot().n;
        if end > n_before {
            return Err(Error::PositionOutOfBounds {
                position: end,
                length: n_before,
            });
        }
        self.log_mutation(|| WalRecord::Delete {
            n_before: n_before as u64,
            start: start as u64,
            end: end as u64,
        })?;
        let mut holder = self.inner.state.lock().expect("state lock");
        let mut state = LiveState::clone(&holder);
        insert_tombstone(&mut state.tombstones, start, end);
        *holder = Arc::new(state);
        Ok(())
    }

    /// Freezes the memtable into a new segment: home range
    /// `[h, n − overlap)`, chunk `[h, n)`; the memtable retains the last
    /// `overlap` rows. Returns `true` if a segment was created (`false`
    /// when the memtable holds no more than `overlap` rows — there would
    /// be nothing to be authoritative for).
    ///
    /// # Errors
    ///
    /// Construction errors of the per-segment build.
    pub fn flush(&self) -> Result<bool> {
        let _write = self.inner.write_lock.lock().expect("write lock");
        self.flush_locked(true)
    }

    /// The flush body; the caller holds `write_lock`, so the memtable can
    /// only be observed, not changed, while the segments build. A memtable
    /// larger than the threshold (one huge append, a seeding
    /// [`LiveIndex::from_corpus`]) is split into segments of at most
    /// `flush_threshold` home rows each, so segmentation does not depend
    /// on the append batching. With `drain == false` (the append-triggered
    /// auto-flush) only *full* threshold-sized segments are frozen and the
    /// remainder stays in the memtable — which keeps segment sizes (and
    /// hence the tiered compaction classes) uniform; `drain == true` (an
    /// explicit [`LiveIndex::flush`]) freezes everything above the
    /// retained overlap.
    fn flush_locked(&self, drain: bool) -> Result<bool> {
        let overlap = self.overlap();
        let snapshot = self.snapshot();
        let mem = &snapshot.memtable;
        if mem.rows <= overlap {
            return Ok(false);
        }
        let flush_start = clock::now_ns();
        let sigma = self.inner.alphabet.size();
        let max_home = self.max_home();
        // Plan the freeze serially (cheap), then build the per-segment
        // indexes concurrently off-lock (queries proceed on the old
        // snapshot; concurrent appends are excluded by write_lock).
        // Segment ids are assigned in plan order before the fan-out, so
        // the resulting segment list is identical at every thread count.
        let mut plans: Vec<(u64, usize, usize)> = Vec::new(); // (id, consumed, home_len)
        let mut consumed = 0usize;
        while if drain {
            mem.rows - consumed > overlap
        } else {
            mem.rows - consumed >= max_home + overlap
        } {
            let home_len = (mem.rows - consumed - overlap).min(max_home);
            let id = self.inner.next_segment_id.fetch_add(1, Ordering::SeqCst);
            plans.push((id, consumed, home_len));
            consumed += home_len;
        }
        if plans.is_empty() {
            return Ok(false);
        }
        let built = self
            .inner
            .build_executor
            .run(plans.len(), |i| -> Result<Arc<Segment>> {
                let (id, start, home_len) = plans[i];
                let chunk_rows = home_len + overlap;
                let flat = mem.flat_rows(start, start + chunk_rows, sigma);
                let chunk = WeightedString::from_flat(self.inner.alphabet.clone(), flat)
                    .expect("memtable rows were validated on append");
                let index = self.inner.spec.build(&chunk)?;
                Ok(Arc::new(Segment {
                    id,
                    offset: mem.start + start,
                    home_len,
                    x: chunk,
                    index,
                }))
            });
        let mut frozen: Vec<Arc<Segment>> = Vec::with_capacity(built.len());
        for outcome in built {
            match outcome {
                Ok(segment) => frozen.push(segment?),
                Err(task_panic) => panic!("{task_panic}"),
            }
        }
        {
            let mut holder = self.inner.state.lock().expect("state lock");
            let mut state = LiveState::clone(&holder);
            debug_assert_eq!(state.memtable.start, mem.start, "write_lock held");
            debug_assert_eq!(state.memtable.rows, mem.rows, "write_lock held");
            state.segments.extend(frozen);
            state.memtable.drain_front(consumed, sigma);
            *holder = Arc::new(state);
        }
        self.inner.flushes.fetch_add(1, Ordering::Relaxed);
        if clock::enabled() {
            self.inner
                .obs
                .flush
                .record(clock::now_ns().saturating_sub(flush_start));
        }
        // Wake the background compactor: a flush is what grows the
        // segment list.
        {
            let mut signal = self.inner.compact_signal.lock().expect("signal lock");
            signal.0 = true;
            self.inner.compact_cond.notify_all();
        }
        // Checkpoint: fold the frozen segments into the manifest and
        // rotate the WAL so it stays bounded. Failures are recorded and
        // retried on the next flush, never propagated — the mutations
        // behind this flush were already applied and acked through the
        // WAL, and the (kept) old log still covers them.
        self.checkpoint_locked();
        Ok(true)
    }

    // -----------------------------------------------------------------
    // Durability
    // -----------------------------------------------------------------

    /// Arms durability: checkpoints the current state into `dir` (the
    /// manifest directory of [`LiveIndex::save_to_dir`]) and starts a
    /// fresh write-ahead log `live.wal` there. From now on every
    /// append/delete is logged — checksummed and flushed per `policy` —
    /// *before* it is applied, and every flush re-checkpoints and rotates
    /// the log. Reopening the directory with [`LiveIndex::open`] replays
    /// any log tail the last checkpoint had not folded in.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the checkpoint or the log file cannot be written.
    pub fn enable_durability(&self, dir: &Path, policy: FsyncPolicy) -> Result<()> {
        let _write = self.inner.write_lock.lock().expect("write lock");
        self.save_to_dir_locked(dir)
            .map_err(|e| Error::Io(format!("initial checkpoint into {}: {e}", dir.display())))?;
        let file = wal::create_wal_file(dir).map_err(|e| {
            Error::Io(format!(
                "creating {} in {}: {e}",
                wal::WAL_FILE,
                dir.display()
            ))
        })?;
        *self.inner.durability.lock().expect("durability lock") = Some(Durability {
            dir: Some(dir.to_path_buf()),
            wal: Wal::resume(Box::new(file), policy)
                .with_fsync_histogram(self.inner.obs.wal_fsync.clone()),
        });
        Ok(())
    }

    /// Arms durability over an injectable sink instead of a real file —
    /// the fault-injection entry point. No directory is attached, so
    /// flushes skip the checkpoint and the log never rotates: every
    /// logged mutation stays in the sink's media for the test to crash
    /// and replay.
    #[doc(hidden)]
    pub fn enable_durability_with_sink(
        &self,
        sink: Box<dyn DurableSink>,
        policy: FsyncPolicy,
    ) -> Result<()> {
        let _write = self.inner.write_lock.lock().expect("write lock");
        let wal = Wal::create(sink, policy)
            .map_err(|e| Error::Io(format!("writing the wal header: {e}")))?
            .with_fsync_histogram(self.inner.obs.wal_fsync.clone());
        *self.inner.durability.lock().expect("durability lock") =
            Some(Durability { dir: None, wal });
        Ok(())
    }

    /// Logs one mutation to the WAL (no-op when durability is off). The
    /// record is only built when a log is armed — the common undurable
    /// path never copies the batch. Caller holds `write_lock`, so record
    /// order is the mutation order.
    fn log_mutation(&self, record: impl FnOnce() -> WalRecord) -> Result<()> {
        let mut durability = self.inner.durability.lock().expect("durability lock");
        let Some(d) = durability.as_mut() else {
            return Ok(());
        };
        match d.wal.append(&record()) {
            Ok(bytes) => {
                self.inner.wal_records.fetch_add(1, Ordering::Relaxed);
                self.inner
                    .wal_bytes
                    .fetch_add(bytes as u64, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                let message = format!("wal append failed: {e}");
                self.inner.record_error(message.clone());
                Err(Error::Io(message))
            }
        }
    }

    /// The post-flush checkpoint (caller holds `write_lock`): saves the
    /// manifest and rotates the WAL. Failures are recorded in
    /// `last_error` and swallowed — an already-applied, already-acked
    /// mutation must never retroactively fail, and replaying the kept
    /// old log over the old manifest is idempotent.
    fn checkpoint_locked(&self) {
        let dir = {
            let durability = self.inner.durability.lock().expect("durability lock");
            match durability.as_ref() {
                Some(d) => match &d.dir {
                    Some(dir) => dir.clone(),
                    None => return, // sink-backed: nothing to checkpoint into
                },
                None => return,
            }
        };
        if let Err(e) = self.save_to_dir_locked(&dir) {
            self.inner.record_error(format!("checkpoint failed: {e}"));
            return;
        }
        self.rotate_wal_locked(&dir);
    }

    /// Starts a fresh WAL after a successful manifest save of
    /// `saved_dir` (caller holds `write_lock`). A rotation failure only
    /// costs boundedness, never correctness — records already folded
    /// into the manifest replay as skips — so it is recorded, not
    /// propagated.
    pub(crate) fn rotate_wal_locked(&self, saved_dir: &Path) {
        let mut durability = self.inner.durability.lock().expect("durability lock");
        let Some(d) = durability.as_mut() else { return };
        let Some(dir) = &d.dir else { return };
        if dir != saved_dir {
            return;
        }
        match wal::create_wal_file(dir) {
            Ok(file) => {
                d.wal = Wal::resume(Box::new(file), d.wal.policy())
                    .with_fsync_histogram(self.inner.obs.wal_fsync.clone());
            }
            Err(e) => self.inner.record_error(format!("wal rotation failed: {e}")),
        }
    }

    /// Applies one round of the tiered compaction policy: **every**
    /// disjoint run of at least `compact_fanout` consecutive segments in
    /// the same size class (⌊log₂ home_len⌋) is merged into one segment,
    /// and the merges build **concurrently** on the shared executor. Each
    /// merged index builds off-lock from a snapshot; every swap is
    /// id-checked independently, so a concurrent competing compaction
    /// simply loses its run and nothing is blocked meanwhile.
    ///
    /// Returns the number of merges performed this round.
    ///
    /// # Errors
    ///
    /// Construction errors of the merged builds.
    pub fn compact_once(&self) -> Result<usize> {
        compact_round(&self.inner)
    }

    /// Merges **all** segments into one (a major compaction), retrying
    /// until a single segment remains — a concurrent background tiered
    /// round may win an individual swap race, but every competitor shrinks
    /// the list, so this converges. The memtable is not touched — call
    /// [`LiveIndex::flush`] first to fold it in too.
    ///
    /// Returns the number of merges performed.
    ///
    /// # Errors
    ///
    /// Construction errors of the merged build.
    pub fn compact_full(&self) -> Result<usize> {
        let mut merges = 0usize;
        loop {
            let snapshot = self.snapshot();
            if snapshot.segments.len() < 2 {
                return Ok(merges);
            }
            merges += self.merge_run(&snapshot.segments)?;
        }
    }

    /// Builds one merged segment from a run of consecutive segments
    /// (off-lock) and swaps it in if the run is still intact.
    fn merge_run(&self, run: &[Arc<Segment>]) -> Result<usize> {
        let id = self.inner.next_segment_id.fetch_add(1, Ordering::SeqCst);
        let merged = build_merged_segment(&self.inner, run, id)?;
        Ok(swap_in_merged(&self.inner, merged, run))
    }

    // -----------------------------------------------------------------
    // Queries
    // -----------------------------------------------------------------

    /// The sink-based query over the owned corpus: fans out over the
    /// segments and the memtable scan, merges the (already globally
    /// sorted) home-filtered outputs, drops tombstoned windows and streams
    /// into `sink`. Runs against an immutable snapshot — concurrent
    /// appends, flushes and compactions never affect an in-flight query.
    ///
    /// # Errors
    ///
    /// Pattern-contract errors ([`Error::EmptyInput`],
    /// [`Error::PatternTooShort`], [`Error::PatternTooLong`],
    /// [`Error::UnknownSymbol`] for a rank outside the alphabet) and query
    /// errors of the per-segment indexes.
    pub fn query_owned_into(
        &self,
        pattern: &[u8],
        scratch: &mut QueryScratch,
        sink: &mut dyn MatchSink,
    ) -> Result<QueryStats> {
        validate_pattern(pattern, self.inner.spec.lower_bound())?;
        if pattern.len() > self.inner.max_pattern_len {
            return Err(Error::PatternTooLong {
                pattern: pattern.len(),
                upper_bound: self.inner.max_pattern_len,
            });
        }
        let sigma = self.inner.alphabet.size();
        if let Some(&rank) = pattern.iter().find(|&&rank| rank as usize >= sigma) {
            // The engines index probability rows by rank; reject foreign
            // ranks here with a typed error instead of risking a panic
            // deep inside a segment engine.
            return Err(Error::UnknownSymbol(rank));
        }
        let state = self.snapshot();
        let parts = state.segments.iter().map(|segment| Part {
            index: &segment.index,
            chunk: &segment.x,
            home_len: segment.home_len,
            offset: segment.offset,
        });
        let mut total = query_parts(parts, pattern, scratch)?;
        // The memtable's data start is its home start: its hits are global
        // already and follow every segment's, so the merge stays sorted.
        let z = self.inner.spec.params.z;
        let memtable = scan_memtable(&state.memtable, sigma, pattern, z, &mut scratch.merged);
        total.accumulate(&memtable);
        let traced = trace::active();
        if traced {
            trace_part(trace::STAGE_MEMTABLE, state.segments.len(), &memtable);
            trace::enter(trace::STAGE_TOMBSTONE_FILTER);
        }
        let before = scratch.merged.len();
        filter_tombstoned_windows(&mut scratch.merged, &state.tombstones, pattern.len());
        if traced {
            trace::exit_with(before as u64, scratch.merged.len() as u64);
        }
        total.reported = finalize_into(&mut scratch.merged, true, sink);
        Ok(total)
    }

    /// Collects all occurrence positions — the allocating convenience
    /// wrapper over [`LiveIndex::query_owned_into`].
    ///
    /// # Errors
    ///
    /// Same contract as [`LiveIndex::query_owned_into`].
    pub fn query_owned(&self, pattern: &[u8]) -> Result<Vec<usize>> {
        let mut scratch = QueryScratch::new();
        let mut positions = Vec::new();
        self.query_owned_into(pattern, &mut scratch, &mut positions)?;
        Ok(positions)
    }
}

impl Drop for LiveIndex {
    fn drop(&mut self) {
        // Clean-shutdown barrier: under `interval`/`never` fsync policies
        // acked records may still sit in kernel buffers — push them to
        // stable storage before the handle goes away (best-effort).
        if let Ok(mut durability) = self.inner.durability.lock() {
            if let Some(d) = durability.as_mut() {
                let _ = d.wal.sync();
            }
        }
        let mut pool = self.compactor.lock().expect("compactor lock");
        if !pool.is_empty() {
            {
                let mut signal = self.inner.compact_signal.lock().expect("signal lock");
                signal.1 = true;
                self.inner.compact_cond.notify_all();
            }
            pool.join_all();
        }
    }
}

impl UncertainIndex for LiveIndex {
    fn name(&self) -> &'static str {
        "LIVE"
    }

    /// Delegates to [`LiveIndex::query_owned_into`]; the live index owns
    /// its corpus (every segment its chunk, the memtable its rows), so the
    /// `x` argument is ignored.
    fn query_into(
        &self,
        pattern: &[u8],
        _x: &WeightedString,
        scratch: &mut QueryScratch,
        sink: &mut dyn MatchSink,
    ) -> Result<QueryStats> {
        self.query_owned_into(pattern, scratch, sink)
    }

    /// Heap bytes of the corpus-dependent state: every segment's index and
    /// chunk, the memtable slabs and the tombstone list. Excludes the fixed
    /// per-index registry (the shared `Inner`, its observability
    /// histograms and counters), a constant of a few tens of KB that does
    /// not grow with `n`.
    fn size_bytes(&self) -> usize {
        let state = self.snapshot();
        state
            .segments
            .iter()
            .map(|segment| segment.index.size_bytes() + segment.x.memory_bytes())
            .sum::<usize>()
            + state.memtable.capacity_bytes()
            + state.tombstones.capacity() * std::mem::size_of::<(usize, usize)>()
    }

    fn stats(&self) -> IndexStats {
        let state = self.snapshot();
        let mut aggregate = IndexStats {
            name: format!(
                "LIVE-{}(S={})",
                self.inner.spec.family.name(),
                state.segments.len()
            ),
            size_bytes: self.size_bytes(),
            ..Default::default()
        };
        for segment in &state.segments {
            let stats = segment.index.stats();
            aggregate.num_nodes += stats.num_nodes;
            aggregate.num_leaves += stats.num_leaves;
            aggregate.num_grid_points += stats.num_grid_points;
            aggregate.num_mismatches += stats.num_mismatches;
        }
        aggregate
    }
}

/// The naive scan over the memtable tail: enumerates every start whose
/// window fits in `[0, rows)`, multiplies the per-position probabilities
/// of the pattern's ranks and appends the z-solid starts to `out`. Output
/// positions are global (the memtable's data start *is* its home start, so
/// no filter is needed).
///
/// A window is abandoned once its running product falls below
/// [`solid_cutoff`], which no remaining factors can lift back to `1/z`;
/// every other window multiplies exactly as the full product does, so the
/// answers are those of the full scan. Rows are read through a
/// (slab, offset) cursor, so a window may span slab boundaries and the
/// scan allocates nothing.
fn scan_memtable(
    memtable: &Memtable,
    sigma: usize,
    pattern: &[u8],
    z: f64,
    out: &mut Vec<usize>,
) -> QueryStats {
    let mut stats = QueryStats::default();
    let m = pattern.len();
    if memtable.rows < m {
        return stats;
    }
    let cutoff = solid_cutoff(z, m);
    let slabs = &memtable.slabs;
    // The next row after `(slab, at)`; slabs hold whole rows and are never
    // empty, so stepping past a slab's end lands on the next one's start.
    let next_row = |(slab, at): (usize, usize)| {
        if at + sigma < slabs[slab].len() {
            (slab, at + sigma)
        } else {
            (slab + 1, 0)
        }
    };
    let mut first = (0usize, 0usize);
    for start in 0..=memtable.rows - m {
        stats.candidates += 1;
        let mut row = first;
        let mut p = 1.0f64;
        for &rank in pattern {
            p *= slabs[row.0][row.1 + rank as usize];
            if p < cutoff {
                break;
            }
            row = next_row(row);
        }
        if is_solid(p, z) {
            stats.verified += 1;
            out.push(memtable.start + start);
        }
        first = next_row(first);
    }
    stats
}

/// The running product below which a window of at most `m` letters can no
/// longer be z-solid, with margin to spare for rounding.
///
/// The validator accepts entries up to `1 + DISTRIBUTION_SUM_TOLERANCE`,
/// so the remaining factors can lift a prefix product by at most that
/// value to the `m`-th power, plus one rounding error per product. The
/// growth bound `(1 + 2·tolerance)^m` covers both, and the numerator
/// `1 − 2·PROB_EPSILON` keeps `p·z + PROB_EPSILON` (the [`is_solid`] test)
/// below 1 after rounding. A prefix below the cutoff therefore ends below
/// `1/z` whatever its remaining factors are; a bare "prefix not solid"
/// test would not be exact, since a factor above 1 can lift a prefix
/// that is just short of `1/z` back over it.
fn solid_cutoff(z: f64, m: usize) -> f64 {
    let growth = (1.0 + 2.0 * DISTRIBUTION_SUM_TOLERANCE).powf(m as f64);
    (1.0 - 2.0 * PROB_EPSILON) / (z * growth)
}

/// Inserts `[start, end)` into a sorted, disjoint tombstone set,
/// coalescing with every range it touches (adjacent ranges merge too).
fn insert_tombstone(tombstones: &mut Vec<(usize, usize)>, mut start: usize, mut end: usize) {
    let mut i = 0;
    while i < tombstones.len() && tombstones[i].1 < start {
        i += 1;
    }
    let mut j = i;
    while j < tombstones.len() && tombstones[j].0 <= end {
        start = start.min(tombstones[j].0);
        end = end.max(tombstones[j].1);
        j += 1;
    }
    tombstones.splice(i..j, [(start, end)]).for_each(drop);
}

/// Drops every (sorted) position whose window `[p, p + m)` intersects a
/// tombstoned range. Two-pointer merge: linear in positions + tombstones.
fn filter_tombstoned_windows(positions: &mut Vec<usize>, tombstones: &[(usize, usize)], m: usize) {
    if tombstones.is_empty() {
        return;
    }
    let mut ti = 0usize;
    positions.retain(|&p| {
        while ti < tombstones.len() && tombstones[ti].1 <= p {
            ti += 1;
        }
        !(ti < tombstones.len() && tombstones[ti].0 < p + m)
    });
}

/// The tiered policy: **every** disjoint run of at least `fanout`
/// consecutive segments in the same size class (⌊log₂ home_len⌋), as
/// half-open index ranges into the segment list, in order. One merge
/// consumes at most `2 · fanout` segments at a time (a longer class run
/// yields several merges), so a long backlog is folded in cascading
/// rounds (each merge promotes its output to a larger class) instead of
/// one unbounded rebuild.
fn plan_tiered_runs(segments: &[Arc<Segment>], fanout: usize) -> Vec<(usize, usize)> {
    let class = |segment: &Segment| usize::BITS - segment.home_len.max(1).leading_zeros();
    let mut runs = Vec::new();
    let mut start = 0usize;
    while start < segments.len() {
        let c = class(&segments[start]);
        let mut end = start + 1;
        while end < segments.len() && class(&segments[end]) == c {
            end += 1;
        }
        // Chop the class run into merge-sized pieces; a short tail below
        // `fanout` waits for the next round.
        let mut piece = start;
        while end - piece >= fanout {
            let piece_end = end.min(piece + 2 * fanout);
            runs.push((piece, piece_end));
            piece = piece_end;
        }
        start = end;
    }
    runs
}

/// One compaction round: plans every qualifying tier run on a snapshot,
/// builds all merged segments **concurrently** on the shared executor
/// (ids assigned in plan order, so the outcome is identical at every
/// thread count), then swaps each in under its own id check. Returns the
/// number of merges that actually swapped in.
fn compact_round(inner: &Arc<Inner>) -> Result<usize> {
    let snapshot = inner.state.lock().expect("state lock").clone();
    let runs = plan_tiered_runs(&snapshot.segments, inner.config.compact_fanout);
    if runs.is_empty() {
        return Ok(0);
    }
    let round_start = clock::now_ns();
    let ids: Vec<u64> = runs
        .iter()
        .map(|_| inner.next_segment_id.fetch_add(1, Ordering::SeqCst))
        .collect();
    let built = inner.build_executor.run(runs.len(), |i| {
        let (start, end) = runs[i];
        build_merged_segment(inner, &snapshot.segments[start..end], ids[i])
    });
    let mut merges = 0usize;
    for (outcome, &(start, end)) in built.into_iter().zip(&runs) {
        let merged = match outcome {
            Ok(segment) => segment?,
            Err(task_panic) => panic!("{task_panic}"),
        };
        merges += swap_in_merged(inner, merged, &snapshot.segments[start..end]);
    }
    if clock::enabled() {
        inner
            .obs
            .compaction
            .record(clock::now_ns().saturating_sub(round_start));
    }
    Ok(merges)
}

/// The background compactor: wakes on every flush (and periodically as a
/// safety net) and applies tiered rounds until the policy no longer
/// triggers. Build errors are reported and retried on the next wake-up
/// rather than crashing the thread.
fn compactor_loop(inner: &Arc<Inner>) {
    loop {
        {
            let signal = inner.compact_signal.lock().expect("signal lock");
            // Wake on a flush signal or a stop; the timeout doubles as a
            // periodic safety-net round.
            let (mut signal, _timeout) = inner
                .compact_cond
                .wait_timeout_while(
                    signal,
                    std::time::Duration::from_millis(200),
                    |(dirty, stop)| !*dirty && !*stop,
                )
                .expect("signal lock");
            if signal.1 {
                return;
            }
            signal.0 = false;
        }
        // Apply tiered rounds (each round merges every qualifying run
        // concurrently) until the policy no longer triggers.
        loop {
            match compact_round(inner) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(err) => {
                    // Surface through STATS (counter + last-error string)
                    // instead of stderr; the next wake-up retries.
                    inner.compaction_errors.fetch_add(1, Ordering::Relaxed);
                    inner.record_error(format!("background compaction failed (will retry): {err}"));
                    break;
                }
            }
        }
    }
}

/// Builds one merged segment covering a run of consecutive segments —
/// pure construction, no shared-state mutation, so several merges can
/// build concurrently. The caller supplies the segment id (assigned in
/// plan order, which keeps the segment list deterministic under
/// parallel rounds).
fn build_merged_segment(inner: &Arc<Inner>, run: &[Arc<Segment>], id: u64) -> Result<Arc<Segment>> {
    debug_assert!(run.len() >= 2);
    let sigma = inner.alphabet.size();
    let last = run.last().expect("non-empty run");
    let offset = run[0].offset;
    let home_len = last.offset + last.home_len - offset;
    let mut flat = Vec::with_capacity((home_len + overlap_len(inner.max_pattern_len)) * sigma);
    for segment in &run[..run.len() - 1] {
        flat.extend_from_slice(&segment.x.flat_probs()[..segment.home_len * sigma]);
    }
    flat.extend_from_slice(last.x.flat_probs());
    let chunk = WeightedString::from_flat(inner.alphabet.clone(), flat)
        .expect("segment rows were validated on append");
    let index = inner.spec.build(&chunk)?;
    Ok(Arc::new(Segment {
        id,
        offset,
        home_len,
        x: chunk,
        index,
    }))
}

/// Swaps a merged segment in for its inputs if — and only if — the run
/// is still intact (checked by segment id). A concurrent flush or a
/// competing merge that already consumed one of the inputs makes this a
/// no-op: the merged segment is dropped and nothing changes.
fn swap_in_merged(inner: &Arc<Inner>, merged: Arc<Segment>, run: &[Arc<Segment>]) -> usize {
    let ids: Vec<u64> = run.iter().map(|segment| segment.id).collect();
    let mut holder = inner.state.lock().expect("state lock");
    let Some(first) = holder.segments.iter().position(|s| s.id == ids[0]) else {
        inner.obs.swap_in_races.inc();
        return 0;
    };
    let intact = holder.segments.len() >= first + ids.len()
        && holder.segments[first..first + ids.len()]
            .iter()
            .zip(&ids)
            .all(|(s, &id)| s.id == id);
    if !intact {
        inner.obs.swap_in_races.inc();
        return 0;
    }
    let mut state = LiveState::clone(&holder);
    state
        .segments
        .splice(first..first + ids.len(), [merged])
        .for_each(drop);
    *holder = Arc::new(state);
    drop(holder);
    inner.compactions.fetch_add(1, Ordering::Relaxed);
    1
}

#[cfg(test)]
mod tests;
