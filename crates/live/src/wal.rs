//! The write-ahead log behind a durable [`LiveIndex`](crate::LiveIndex).
//!
//! ## File layout
//!
//! ```text
//! <dir>/live.wal   magic "IUSJ" · version u16 · records…
//! record           payload_len u32 · crc32(payload) u32 · payload
//! payload          kind u8 · n_before u64 · body
//!   kind 1 APPEND  rows u64 · rows × σ probability f64s
//!   kind 2 DELETE  start u64 · end u64
//! ```
//!
//! Everything is little-endian, written and read through
//! [`ius_arena::le`]; the CRC32 is the IEEE one from [`ius_faultio`].
//! `n_before` is the logical corpus length at the moment
//! the mutation was logged — that stamp is what makes replay idempotent
//! across the checkpoint window: an `APPEND` whose `n_before` is below the
//! reopened manifest's `n` is already reflected in the manifest and is
//! skipped, the first one at exactly `n` resumes the log, and a gap is a
//! typed corruption error. Deletes re-apply idempotently (tombstone
//! insertion coalesces).
//!
//! ## Torn-tail rule
//!
//! A crash can only tear the *last* record (records are appended with a
//! single `write_all` and the file only ever grows between rotations).
//! [`scan`] therefore stops cleanly — no error, no panic — at the first
//! short record header, short payload, or checksum mismatch, and returns
//! everything before it. A bad file *header* is different: the header is
//! created via a temp file + atomic rename before the log is ever armed,
//! so a bad magic/version is real corruption and fails typed.
//!
//! ## Durability contract
//!
//! `Wal::append` writes the record and applies the configured
//! [`FsyncPolicy`] *before* returning; the caller acks the mutation only
//! after. A failed write (torn record, full disk) **poisons** the log:
//! the failed mutation was never applied or acked, but the file now ends
//! in a torn record that a later append must not bury, so every following
//! append is refused typed until the next checkpoint rotates the log.
//! The log is rotated (checkpoint + fresh file) on every flush/manifest
//! save, which keeps it bounded.

use ius_arena::le::{self, Reader};
use ius_faultio::{crc32, DurableSink};
use ius_obs::{clock, Histogram};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// File name of the write-ahead log inside a live-index directory.
pub const WAL_FILE: &str = "live.wal";

/// The four magic bytes opening a write-ahead log.
pub const WAL_MAGIC: [u8; 4] = *b"IUSJ";

/// The current WAL format version.
pub const WAL_VERSION: u16 = 1;

/// Bytes of the fixed file header (magic + version).
pub const WAL_HEADER_LEN: usize = 6;

/// Bytes of a record header (payload length + checksum).
pub const WAL_RECORD_HEADER_LEN: usize = 8;

const KIND_APPEND: u8 = 1;
const KIND_DELETE: u8 = 2;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// When a logged record is forced to stable storage, relative to the ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record, before the ack: an acked mutation
    /// survives even an immediate power loss.
    Record,
    /// `fsync` at most once per interval (checked on append): bounded
    /// data-loss window, near-`Never` throughput.
    Interval(Duration),
    /// Never `fsync` explicitly: acked mutations survive a process crash
    /// (the kernel holds the bytes) but not necessarily a power loss.
    Never,
}

impl FsyncPolicy {
    /// Parses the `serve --fsync` syntax: `record`, `interval:<ms>` or
    /// `never`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the accepted forms.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "record" => Ok(FsyncPolicy::Record),
            "never" => Ok(FsyncPolicy::Never),
            _ => {
                if let Some(ms) = s.strip_prefix("interval:") {
                    let ms: u64 = ms.parse().map_err(|_| {
                        format!("invalid fsync interval {ms:?} (expected milliseconds)")
                    })?;
                    if ms == 0 {
                        return Err("fsync interval must be positive (use `record`)".into());
                    }
                    Ok(FsyncPolicy::Interval(Duration::from_millis(ms)))
                } else {
                    Err(format!(
                        "unknown fsync policy {s:?} (expected record, interval:<ms> or never)"
                    ))
                }
            }
        }
    }

    /// The numeric code STATS reports: 1 record, 2 interval, 3 never
    /// (0 means durability is off entirely).
    pub fn code(self) -> u64 {
        match self {
            FsyncPolicy::Record => 1,
            FsyncPolicy::Interval(_) => 2,
            FsyncPolicy::Never => 3,
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Record => f.write_str("record"),
            FsyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_millis()),
            FsyncPolicy::Never => f.write_str("never"),
        }
    }
}

/// One logged mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// `rows` appended when the corpus length was `n_before`; `flat` holds
    /// the row-major `rows × σ` probabilities.
    Append {
        /// Corpus length at log time.
        n_before: u64,
        /// Rows in the batch.
        rows: u64,
        /// Row-major probabilities.
        flat: Vec<f64>,
    },
    /// `delete_range(start, end)` issued when the corpus length was
    /// `n_before`.
    Delete {
        /// Corpus length at log time.
        n_before: u64,
        /// First deleted position.
        start: u64,
        /// One past the last deleted position.
        end: u64,
    },
}

/// Appends the full encoding of `record` (record header + payload) onto
/// `out`. Exposed so tests can compute exact record boundaries when
/// enumerating crash offsets.
pub fn encode_record(out: &mut Vec<u8>, record: &WalRecord) {
    let payload_at = out.len() + WAL_RECORD_HEADER_LEN;
    out.resize(payload_at, 0);
    match record {
        WalRecord::Append {
            n_before,
            rows,
            flat,
        } => {
            le::put(out, KIND_APPEND);
            le::put_slice(out, &[*n_before, *rows]);
            le::put_slice(out, flat);
        }
        WalRecord::Delete {
            n_before,
            start,
            end,
        } => {
            le::put(out, KIND_DELETE);
            le::put_slice(out, &[*n_before, *start, *end]);
        }
    }
    let payload_len = (out.len() - payload_at) as u32;
    let crc = crc32(&out[payload_at..]);
    out[payload_at - 8..payload_at - 4].copy_from_slice(&payload_len.to_le_bytes());
    out[payload_at - 4..payload_at].copy_from_slice(&crc.to_le_bytes());
}

fn decode_payload(payload: &[u8]) -> io::Result<WalRecord> {
    // The payload passed its checksum, so a malformed one is written-side
    // corruption (or an unknown future kind), not a torn tail: typed error.
    let short = |_| bad("wal payload too short for its kind");
    let mut r = Reader::new(payload);
    let kind: u8 = r.get("kind").map_err(|_| bad("empty wal payload"))?;
    let n_before: u64 = r.get("n_before").map_err(short)?;
    match kind {
        KIND_APPEND => {
            let rows: u64 = r.get("rows").map_err(short)?;
            if rows == 0 || !r.remaining().is_multiple_of(8) {
                return Err(bad("malformed wal APPEND payload"));
            }
            let flat: Vec<f64> = r.vec(r.remaining() / 8, "append probabilities")?;
            if !(flat.len() as u64).is_multiple_of(rows) {
                return Err(bad(format!(
                    "wal APPEND carries {} values, not a multiple of its {rows} rows",
                    flat.len()
                )));
            }
            Ok(WalRecord::Append {
                n_before,
                rows,
                flat,
            })
        }
        KIND_DELETE => {
            if payload.len() != 25 {
                return Err(bad("malformed wal DELETE payload"));
            }
            Ok(WalRecord::Delete {
                n_before,
                start: r.get("delete start")?,
                end: r.get("delete end")?,
            })
        }
        other => Err(bad(format!("unknown wal record kind {other}"))),
    }
}

/// Parses a whole WAL image: validates the file header, then decodes
/// records until the first torn one (short header, short payload or
/// checksum mismatch), at which point it stops **cleanly** and returns
/// everything before it — the torn-tail truncation rule.
///
/// # Errors
///
/// `InvalidData` on a bad file header (the header is written atomically,
/// so this is real corruption, not a crash artifact) or on a payload that
/// passes its checksum but does not decode (written-side corruption).
pub fn scan(bytes: &[u8]) -> io::Result<Vec<WalRecord>> {
    if bytes.len() < WAL_HEADER_LEN {
        return Err(bad("wal shorter than its fixed header"));
    }
    let mut r = Reader::new(bytes);
    let magic = r.bytes(4, "magic")?;
    if magic != WAL_MAGIC {
        return Err(bad(format!("not a wal file (bad magic {magic:02x?})")));
    }
    let version: u16 = r.get("version")?;
    if version != WAL_VERSION {
        return Err(bad(format!(
            "unsupported wal version {version} (this build reads version {WAL_VERSION})"
        )));
    }
    let mut records = Vec::new();
    while r.remaining() > 0 {
        // A short record header, a short payload or a checksum mismatch is
        // the torn (or bit-flipped) tail record: stop there.
        let (Ok(payload_len), Ok(stored_crc)) = (r.get::<u32>("length"), r.get::<u32>("crc"))
        else {
            break;
        };
        let Ok(payload) = r.bytes(payload_len as usize, "payload") else {
            break;
        };
        if crc32(payload) != stored_crc {
            break;
        }
        records.push(decode_payload(payload)?);
    }
    Ok(records)
}

/// The live write side of one WAL file.
pub(crate) struct Wal {
    sink: Box<dyn DurableSink>,
    policy: FsyncPolicy,
    last_sync: Instant,
    /// Set when a write or sync failed: the file may end in a torn record,
    /// so further appends are refused until the log is rotated.
    poisoned: bool,
    buf: Vec<u8>,
    /// Observability hook: every `fsync` latency (ns) is recorded here.
    /// Survives rotations — the owner re-attaches the same histogram to
    /// the fresh log.
    fsync_hist: Option<Arc<Histogram>>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("policy", &self.policy)
            .field("poisoned", &self.poisoned)
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// Writes the file header (magic + version) through `sink`, then wraps
    /// it: the one place a log file is started, whether the "file" is a
    /// real one ([`create_wal_file`]) or a scripted fault sink.
    pub(crate) fn create(mut sink: Box<dyn DurableSink>, policy: FsyncPolicy) -> io::Result<Self> {
        let mut header = WAL_MAGIC.to_vec();
        le::put(&mut header, WAL_VERSION);
        sink.write_all(&header)?;
        Ok(Self {
            sink,
            policy,
            last_sync: Instant::now(),
            poisoned: false,
            buf: Vec::new(),
            fsync_hist: None,
        })
    }

    /// Attaches the histogram `fsync` latencies are recorded into.
    pub(crate) fn with_fsync_histogram(mut self, hist: Arc<Histogram>) -> Self {
        self.fsync_hist = Some(hist);
        self
    }

    pub(crate) fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Logs one record and applies the fsync policy; only after this
    /// returns `Ok` may the mutation be applied and acked. Returns the
    /// encoded record size in bytes.
    ///
    /// # Errors
    ///
    /// The underlying write/sync error; the log is then poisoned and
    /// every later append is refused typed until a rotation.
    pub(crate) fn append(&mut self, record: &WalRecord) -> io::Result<usize> {
        if self.poisoned {
            return Err(io::Error::other(
                "wal poisoned by an earlier write failure; a checkpoint (flush) rotates it",
            ));
        }
        self.buf.clear();
        encode_record(&mut self.buf, record);
        if let Err(e) = self.sink.write_all(&self.buf) {
            self.poisoned = true;
            return Err(e);
        }
        let need_sync = match self.policy {
            FsyncPolicy::Record => true,
            FsyncPolicy::Interval(every) => self.last_sync.elapsed() >= every,
            FsyncPolicy::Never => false,
        };
        if need_sync {
            if let Err(e) = self.timed_sync() {
                // The record may not be on stable storage: refuse the ack
                // and stop trusting the file.
                self.poisoned = true;
                return Err(e);
            }
            self.last_sync = Instant::now();
        }
        Ok(self.buf.len())
    }

    /// Forces the log to stable storage (rotation and shutdown barrier).
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.timed_sync()
    }

    /// One `sync` through the sink, its latency recorded into the attached
    /// histogram (failures are not recorded — a refused ack is not a
    /// latency sample).
    fn timed_sync(&mut self) -> io::Result<()> {
        let Some(hist) = &self.fsync_hist else {
            return self.sink.sync();
        };
        let start = clock::now_ns();
        self.sink.sync()?;
        hist.record(clock::now_ns().saturating_sub(start));
        Ok(())
    }
}

/// Creates a fresh, empty WAL at `dir/live.wal` — header written to a
/// temp name, synced, then atomically renamed — and returns it open for
/// appending. The rename is what makes a crash window leave either the
/// old complete log or the new empty one, never a header-less file.
pub(crate) fn create_wal_file(dir: &Path, policy: FsyncPolicy) -> io::Result<Wal> {
    let tmp = dir.join(format!("{WAL_FILE}.tmp"));
    let mut wal = Wal::create(Box::new(std::fs::File::create(&tmp)?), policy)?;
    wal.sync()?;
    std::fs::rename(&tmp, dir.join(WAL_FILE))?;
    Ok(wal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ius_faultio::{FaultPlan, SimSink};

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Append {
                n_before: 0,
                rows: 2,
                flat: vec![0.25, 0.75, 1.0, 0.0],
            },
            WalRecord::Delete {
                n_before: 2,
                start: 0,
                end: 1,
            },
            WalRecord::Append {
                n_before: 2,
                rows: 1,
                flat: vec![0.5, 0.5],
            },
        ]
    }

    fn image(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        le::put(&mut bytes, WAL_VERSION);
        for record in records {
            encode_record(&mut bytes, record);
        }
        bytes
    }

    #[test]
    fn scan_round_trips() {
        let records = sample_records();
        assert_eq!(scan(&image(&records)).unwrap(), records);
        assert_eq!(scan(&image(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn torn_tail_truncates_cleanly_at_every_offset() {
        let records = sample_records();
        let bytes = image(&records);
        // Record boundaries, for deciding how many records must survive a
        // truncation at each byte offset.
        let mut boundaries = vec![WAL_HEADER_LEN];
        {
            let mut partial = Vec::new();
            for record in &records {
                encode_record(&mut partial, record);
                boundaries.push(WAL_HEADER_LEN + partial.len());
            }
        }
        for cut in WAL_HEADER_LEN..=bytes.len() {
            let survivors = scan(&bytes[..cut])
                .unwrap_or_else(|e| panic!("cut at {cut} must truncate cleanly, got error {e}"));
            let expected = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(survivors.len(), expected, "cut at {cut}");
            assert_eq!(survivors, records[..expected], "cut at {cut}");
        }
    }

    #[test]
    fn bit_flip_in_tail_record_truncates_it() {
        let records = sample_records();
        let mut bytes = image(&records);
        let last = bytes.len() - 3;
        bytes[last] ^= 0x10;
        let survivors = scan(&bytes).unwrap();
        assert_eq!(survivors, records[..2]);
    }

    #[test]
    fn bad_header_is_a_typed_error() {
        assert!(scan(b"IUS").is_err());
        assert!(scan(b"NOPE\x01\x00").is_err());
        let mut wrong_version = image(&[]);
        wrong_version[4] = 0xEE;
        assert!(scan(&wrong_version).is_err());
    }

    #[test]
    fn fsync_policy_parses_and_refuses_typed() {
        assert_eq!(FsyncPolicy::parse("record").unwrap(), FsyncPolicy::Record);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(
            FsyncPolicy::parse("interval:25").unwrap(),
            FsyncPolicy::Interval(Duration::from_millis(25))
        );
        for bad in ["always", "interval:", "interval:0", "interval:abc", ""] {
            assert!(FsyncPolicy::parse(bad).is_err(), "{bad:?} must be refused");
        }
        assert_eq!(
            FsyncPolicy::parse("interval:25").unwrap().to_string(),
            "interval:25"
        );
    }

    #[test]
    fn wal_append_syncs_per_policy() {
        let sink = SimSink::healthy();
        let media = sink.media();
        let mut wal = Wal::create(Box::new(sink), FsyncPolicy::Record).unwrap();
        for record in &sample_records() {
            wal.append(record).unwrap();
        }
        let bytes = media.lock().unwrap().clone();
        assert_eq!(scan(&bytes).unwrap(), sample_records());
    }

    #[test]
    fn write_failure_poisons_until_rotation() {
        let sink = SimSink::new(FaultPlan {
            disk_capacity: Some(40),
            ..Default::default()
        });
        let media = sink.media();
        let mut wal = Wal::create(Box::new(sink), FsyncPolicy::Never).unwrap();
        let records = sample_records();
        // The first record (2 rows × 2 floats = 49 bytes encoded) cannot
        // fit in 40 bytes: the write tears and fails.
        assert!(wal.append(&records[0]).is_err());
        // Poisoned: even a record that would fit is refused, typed.
        let err = wal.append(&records[1]).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        // The torn media still scans cleanly to zero records.
        let bytes = media.lock().unwrap().clone();
        assert_eq!(scan(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn fsync_failure_refuses_the_ack() {
        let sink = SimSink::new(FaultPlan {
            fail_sync_from: Some(0),
            ..Default::default()
        });
        let mut wal = Wal::create(Box::new(sink), FsyncPolicy::Record).unwrap();
        assert!(wal.append(&sample_records()[0]).is_err());
        assert!(wal
            .append(&sample_records()[1])
            .unwrap_err()
            .to_string()
            .contains("poisoned"));
    }
}
