//! Crash-durability properties of the write-ahead log, driven through the
//! injectable sink layer of `ius_faultio`.
//!
//! The **acked-durable invariant**: once `append`/`delete_range` returns
//! `Ok`, the mutation survives any crash. Concretely:
//!
//! * truncating `live.wal` at **every byte offset** (a simulated crash —
//!   the kernel persists a prefix of what was written) and reopening the
//!   directory recovers a corpus and tombstone set **byte-identical** to
//!   a naive oracle over exactly the acked mutation prefix whose records
//!   fit below the cut — never a partial record, never a panic. Exercised
//!   across two index families and across a checkpoint boundary;
//! * a scripted sink crash (`FaultPlan::crash_at`) makes the in-flight
//!   mutation fail typed and **not** apply, poisons the log for later
//!   mutations, and leaves exactly the acked records decodable;
//! * a full disk (`FaultPlan::disk_capacity`) behaves the same way;
//! * a seeded sweep of mutations behind the IUSJ header, with every
//!   record CRC re-sealed, reopens typed-refused or answering, never
//!   panicking or hanging.

use ius_faultio::mutate::{mutations, sweep};
use ius_faultio::{crc32, FaultPlan, SimSink};
use ius_index::{IndexFamily, IndexParams, IndexSpec, IndexVariant};
use ius_live::wal::{encode_record, scan, WalRecord, WAL_FILE, WAL_HEADER_LEN};
use ius_live::{FsyncPolicy, LiveConfig, LiveIndex};
use ius_weighted::{Alphabet, Error, WeightedString};
use proptest::prelude::*;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn config() -> LiveConfig {
    LiveConfig {
        // No auto-flush: the WAL holds the whole mutation history, so a
        // crash offset maps 1:1 onto a mutation prefix.
        flush_threshold: 1 << 20,
        compact_fanout: 4,
        auto_compact: false,
        threads: 1,
    }
}

fn alphabet() -> Alphabet {
    Alphabet::new(b"ab").expect("alphabet")
}

fn spec(family: IndexFamily) -> IndexSpec {
    IndexSpec::new(family, IndexParams::new(4.0, 4, 2).expect("params"))
}

const MAX_PATTERN_LEN: usize = 6;

/// Tiny deterministic generator (split-mix style) so every test derives
/// its mutation sequence from one seed.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

#[derive(Debug, Clone)]
enum Op {
    Append(WeightedString),
    Delete(usize, usize),
}

/// Generates `count` valid mutations (appends of 1–4 rows, deletions of
/// in-bounds ranges) over the 2-symbol alphabet.
fn gen_ops(seed: u64, count: usize) -> Vec<Op> {
    let alphabet = alphabet();
    let mut rng = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut n = 0usize;
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        if n >= 2 && next(&mut rng).is_multiple_of(4) {
            let start = (next(&mut rng) as usize) % (n - 1);
            let len = 1 + (next(&mut rng) as usize) % (n - start - 1).max(1);
            ops.push(Op::Delete(start, (start + len).min(n)));
        } else {
            let rows = 1 + (next(&mut rng) as usize) % 4;
            let mut flat = Vec::with_capacity(rows * 2);
            for _ in 0..rows {
                let p = (next(&mut rng) % 101) as f64 / 100.0;
                flat.push(p);
                flat.push(1.0 - p);
            }
            n += rows;
            ops.push(Op::Append(
                WeightedString::from_flat(alphabet.clone(), flat).expect("valid rows"),
            ));
        }
    }
    ops
}

/// The naive oracle: the flat corpus and a per-position deleted flag.
#[derive(Debug, Clone, PartialEq, Default)]
struct Oracle {
    flat: Vec<f64>,
    deleted: Vec<bool>,
}

impl Oracle {
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Append(batch) => {
                self.flat.extend_from_slice(batch.flat_probs());
                self.deleted.extend(std::iter::repeat_n(false, batch.len()));
            }
            Op::Delete(start, end) => {
                for flag in &mut self.deleted[*start..*end] {
                    *flag = true;
                }
            }
        }
    }
}

/// What one op would have logged, given the corpus length at log time —
/// used to compute exact record boundaries in the WAL image.
fn expected_record(op: &Op, n_before: usize) -> WalRecord {
    match op {
        Op::Append(batch) => WalRecord::Append {
            n_before: n_before as u64,
            rows: batch.len() as u64,
            flat: batch.flat_probs().to_vec(),
        },
        Op::Delete(start, end) => WalRecord::Delete {
            n_before: n_before as u64,
            start: *start as u64,
            end: *end as u64,
        },
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ius-wal-fault-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Copies `src` into a scratch directory with `live.wal` truncated at
/// `cut` bytes — the simulated crash image.
fn crashed_copy(src: &Path, tag: &str, cut: usize) -> PathBuf {
    let dir = scratch_dir(tag);
    for entry in std::fs::read_dir(src).expect("read dir") {
        let entry = entry.expect("entry");
        let name = entry.file_name();
        let bytes = std::fs::read(entry.path()).expect("read file");
        if name.to_string_lossy() == WAL_FILE {
            std::fs::write(dir.join(&name), &bytes[..cut.min(bytes.len())]).expect("write wal");
        } else {
            std::fs::write(dir.join(&name), &bytes).expect("copy file");
        }
    }
    dir
}

fn assert_matches_oracle(live: &LiveIndex, oracle: &Oracle, label: &str) {
    let flat = live
        .materialize()
        .map(|x| x.flat_probs().to_vec())
        .unwrap_or_default();
    assert_eq!(flat, oracle.flat, "{label}: corpus is not byte-identical");
    let mut deleted = vec![false; oracle.deleted.len()];
    for (start, end) in live.tombstones() {
        for flag in &mut deleted[start..end] {
            *flag = true;
        }
    }
    assert_eq!(
        deleted, oracle.deleted,
        "{label}: tombstone coverage differs"
    );
}

/// The exhaustive property: run a mutation sequence durably into a real
/// directory, then for **every byte offset** of the WAL simulate a crash
/// there and reopen — the recovered state must equal the oracle over the
/// longest record prefix below the cut. `flush_after` optionally inserts
/// a checkpoint (manifest save + WAL rotation) mid-sequence, so the cut
/// enumeration also covers the post-checkpoint log and the pre-checkpoint
/// mutations must *always* be recovered.
fn crash_at_every_offset(family: IndexFamily, seed: u64, flush_after: Option<usize>, tag: &str) {
    let ops = gen_ops(seed, 10);
    let dir = scratch_dir(&format!("{tag}-base"));
    let live = LiveIndex::new(alphabet(), spec(family), MAX_PATTERN_LEN, config()).expect("build");
    live.enable_durability(&dir, FsyncPolicy::Never)
        .expect("arm durability");

    // Replay the ops, tracking the oracle after each one plus the exact
    // records the post-checkpoint WAL holds.
    let mut oracle = Oracle::default();
    // oracles[k] = state after the first `wal_floor + k` acked mutations.
    let mut oracles = vec![oracle.clone()];
    let mut wal_image = Vec::from(&b"IUSJ\x01\x00"[..]);
    let mut boundaries = vec![wal_image.len()];
    for (i, op) in ops.iter().enumerate() {
        let n_before = oracle.deleted.len();
        match op {
            Op::Append(batch) => {
                live.append(batch).expect("append");
            }
            Op::Delete(start, end) => {
                live.delete_range(*start, *end).expect("delete");
            }
        }
        oracle.apply(op);
        if flush_after == Some(i) {
            // Checkpoint: everything so far moves into the manifest and
            // the WAL starts over.
            assert!(live.flush().expect("flush"), "flush froze no segment");
            wal_image.truncate(0);
            wal_image.extend_from_slice(b"IUSJ\x01\x00");
            boundaries = vec![wal_image.len()];
            oracles = vec![oracle.clone()];
        } else {
            encode_record(&mut wal_image, &expected_record(op, n_before));
            boundaries.push(wal_image.len());
            oracles.push(oracle.clone());
        }
    }
    drop(live);
    let on_disk = std::fs::read(dir.join(WAL_FILE)).expect("read wal");
    assert_eq!(
        on_disk, wal_image,
        "the WAL image must match the re-encoding"
    );

    for cut in WAL_HEADER_LEN..=on_disk.len() {
        let crashed = crashed_copy(&dir, &format!("{tag}-cut"), cut);
        let reopened = LiveIndex::open(&crashed, config())
            .unwrap_or_else(|e| panic!("{tag}: crash at byte {cut} broke reopen: {e}"));
        let survivors = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_matches_oracle(
            &reopened,
            &oracles[survivors],
            &format!("{tag}: crash at byte {cut} ({survivors} surviving records)"),
        );
        let stats = reopened.live_stats();
        assert_eq!(stats.recovered_records, survivors as u64, "{tag} cut {cut}");
        assert_eq!(
            stats.recoveries,
            u64::from(survivors > 0),
            "{tag} cut {cut}"
        );
        drop(reopened);
        std::fs::remove_dir_all(&crashed).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_at_every_offset_naive_family() {
    crash_at_every_offset(IndexFamily::Naive, 0xA11CE, None, "naive");
}

#[test]
fn crash_at_every_offset_minimizer_family() {
    crash_at_every_offset(
        IndexFamily::Minimizer(IndexVariant::Array),
        0xB0B,
        None,
        "minimizer",
    );
}

#[test]
fn crash_at_every_offset_across_a_checkpoint() {
    crash_at_every_offset(
        IndexFamily::Minimizer(IndexVariant::Array),
        0xCAFE,
        Some(5),
        "checkpointed",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A scripted sink crash mid-sequence: every mutation acked before the
    /// crash is decodable from the surviving media (and nothing partial
    /// is); the in-flight mutation fails typed and is **not** applied; the
    /// poisoned log refuses every later mutation typed.
    #[test]
    fn acked_mutations_survive_a_sink_crash(
        seed in 0u64..1 << 48,
        crash_frac in 0.0f64..1.0,
    ) {
        let ops = gen_ops(seed, 12);
        // Dry run on a healthy sink to learn the full image size.
        let full_len = {
            let live = LiveIndex::new(alphabet(), spec(IndexFamily::Naive), MAX_PATTERN_LEN, config())
                .expect("build");
            let sink = SimSink::healthy();
            let media = sink.media();
            live.enable_durability_with_sink(Box::new(sink), FsyncPolicy::Never)
                .expect("arm durability");
            for op in &ops {
                match op {
                    Op::Append(batch) => drop(live.append(batch).expect("append")),
                    Op::Delete(start, end) => live.delete_range(*start, *end).expect("delete"),
                }
            }
            let len = media.lock().expect("media").len();
            len
        };
        let crash_at = WAL_HEADER_LEN as u64
            + ((full_len - WAL_HEADER_LEN) as f64 * crash_frac) as u64;

        let live = LiveIndex::new(alphabet(), spec(IndexFamily::Naive), MAX_PATTERN_LEN, config())
            .expect("build");
        let sink = SimSink::new(FaultPlan { crash_at: Some(crash_at), ..Default::default() });
        let media = sink.media();
        live.enable_durability_with_sink(Box::new(sink), FsyncPolicy::Never)
            .expect("arm durability");

        let mut oracle = Oracle::default();
        let mut acked_records = Vec::new();
        let mut crashed = false;
        for op in &ops {
            let n_before = oracle.deleted.len();
            // A delete may target rows whose append was refused by the
            // crash — then the bounds check fires before the WAL does.
            let in_bounds = match op {
                Op::Delete(_, end) => *end <= n_before,
                Op::Append(_) => true,
            };
            let result = match op {
                Op::Append(batch) => live.append(batch).map(drop),
                Op::Delete(start, end) => live.delete_range(*start, *end),
            };
            match result {
                Ok(()) => {
                    prop_assert!(!crashed, "a mutation succeeded after the crash (no poisoning)");
                    acked_records.push(expected_record(op, n_before));
                    oracle.apply(op);
                }
                Err(Error::Io(_)) => {
                    // Typed refusal; the mutation must not have applied.
                    crashed = true;
                    prop_assert_eq!(live.len(), oracle.deleted.len(), "a failed append applied");
                }
                Err(Error::PositionOutOfBounds { .. }) if !in_bounds => {}
                Err(other) => prop_assert!(false, "untyped durability failure: {}", other),
            }
        }
        // The surviving media decodes to exactly the acked records.
        let bytes = media.lock().expect("media").clone();
        let recovered = scan(&bytes).expect("scan the crashed media");
        prop_assert_eq!(recovered, acked_records);
        // And the live (in-memory) state still matches the oracle.
        assert_matches_oracle(&live, &oracle, "post-crash in-memory state");
    }

    /// Running out of disk behaves like a crash: typed refusals, nothing
    /// partial recoverable, earlier acks intact.
    #[test]
    fn full_disk_keeps_acked_mutations_recoverable(
        seed in 0u64..1 << 48,
        capacity_frac in 0.0f64..1.0,
    ) {
        let ops = gen_ops(seed, 10);
        let capacity = WAL_HEADER_LEN as u64 + (600.0 * capacity_frac) as u64;
        let live = LiveIndex::new(alphabet(), spec(IndexFamily::Naive), MAX_PATTERN_LEN, config())
            .expect("build");
        let sink = SimSink::new(FaultPlan { disk_capacity: Some(capacity), ..Default::default() });
        let media = sink.media();
        live.enable_durability_with_sink(Box::new(sink), FsyncPolicy::Never)
            .expect("arm durability");
        let mut oracle = Oracle::default();
        let mut acked_records = Vec::new();
        for op in &ops {
            let n_before = oracle.deleted.len();
            let in_bounds = match op {
                Op::Delete(_, end) => *end <= n_before,
                Op::Append(_) => true,
            };
            let result = match op {
                Op::Append(batch) => live.append(batch).map(drop),
                Op::Delete(start, end) => live.delete_range(*start, *end),
            };
            match result {
                Ok(()) => {
                    acked_records.push(expected_record(op, n_before));
                    oracle.apply(op);
                }
                Err(Error::Io(_)) => {}
                Err(Error::PositionOutOfBounds { .. }) if !in_bounds => {}
                Err(other) => prop_assert!(false, "untyped durability failure: {}", other),
            }
        }
        let bytes = media.lock().expect("media").clone();
        let recovered = scan(&bytes).expect("scan the full-disk media");
        prop_assert_eq!(recovered, acked_records);
        assert_matches_oracle(&live, &oracle, "post-ENOSPC in-memory state");
    }
}

/// A failing fsync under the per-record policy refuses the ack (the
/// record may not be on stable storage) and the mutation is not applied.
#[test]
fn fsync_failure_refuses_the_ack_and_does_not_apply() {
    let live = LiveIndex::new(
        alphabet(),
        spec(IndexFamily::Naive),
        MAX_PATTERN_LEN,
        config(),
    )
    .expect("build");
    let sink = SimSink::new(FaultPlan {
        fail_sync_from: Some(1),
        ..Default::default()
    });
    live.enable_durability_with_sink(Box::new(sink), FsyncPolicy::Record)
        .expect("arm durability");
    let ops = gen_ops(7, 4);
    let Op::Append(first) = &ops[0] else {
        panic!("first op is always an append");
    };
    live.append(first).expect("first record syncs fine");
    let n = live.len();
    let err = live
        .append(first)
        .expect_err("second sync is scripted to fail");
    assert!(matches!(err, Error::Io(_)), "{err}");
    assert_eq!(live.len(), n, "the refused append must not apply");
    let stats = live.live_stats();
    assert_eq!(stats.fsync_policy, 1, "record policy wire code");
    assert!(
        stats
            .last_error
            .expect("a durability error is surfaced")
            .contains("wal"),
        "last_error names the wal"
    );
}

/// Reopening after a clean shutdown (no crash) replays the whole WAL tail
/// and `enable_durability` folds it into a fresh checkpoint, after which
/// a reopen recovers from the manifest alone.
#[test]
fn reopen_checkpoint_reopen_round_trip() {
    let dir = scratch_dir("roundtrip");
    let ops = gen_ops(0xD00D, 8);
    let mut oracle = Oracle::default();
    {
        let live = LiveIndex::new(
            alphabet(),
            spec(IndexFamily::Naive),
            MAX_PATTERN_LEN,
            config(),
        )
        .expect("build");
        live.enable_durability(&dir, FsyncPolicy::Record)
            .expect("arm");
        for op in &ops {
            match op {
                Op::Append(batch) => drop(live.append(batch).expect("append")),
                Op::Delete(start, end) => live.delete_range(*start, *end).expect("delete"),
            }
            oracle.apply(op);
        }
    }
    let reopened = LiveIndex::open(&dir, config()).expect("reopen");
    assert_matches_oracle(&reopened, &oracle, "first reopen");
    assert!(reopened.live_stats().recovered_records > 0);
    // Re-arm: checkpoints the replayed state and rotates the log.
    reopened
        .enable_durability(&dir, FsyncPolicy::Record)
        .expect("re-arm");
    let wal = std::fs::read(dir.join(WAL_FILE)).expect("wal");
    assert_eq!(wal.len(), WAL_HEADER_LEN, "the rotated log is empty");
    drop(reopened);
    let again = LiveIndex::open(&dir, config()).expect("second reopen");
    assert_matches_oracle(&again, &oracle, "second reopen");
    assert_eq!(
        again.live_stats().recovered_records,
        0,
        "manifest-only recovery"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Re-seals every record CRC of a WAL image the way the scanner frames
/// it: from the header on, each record's (possibly mutated) length
/// decides where its payload ends and the next record starts. A record
/// whose length escapes the image is the torn tail the scanner stops at.
fn reseal_wal(bytes: &mut [u8]) {
    let mut at = WAL_HEADER_LEN;
    while at + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let Some(end) = (at + 8).checked_add(len).filter(|&end| end <= bytes.len()) else {
            return;
        };
        let crc = crc32(&bytes[at + 8..end]);
        bytes[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
        at = end;
    }
}

/// The re-sealed IUSJ sweep: a log of appends and deletes behind a saved
/// manifest takes 1,500 seeded byte flips and boundary-value `u32`/`u64`
/// overwrites behind its header, each with every record CRC re-sealed.
/// Reopening must replay and answer, or fail with a typed error; no case
/// may panic or hang.
#[test]
fn resealed_wal_mutations_reopen_typed_or_answer() {
    let dir = scratch_dir("reseal-base");
    {
        let family = IndexFamily::Minimizer(IndexVariant::Array);
        let live =
            LiveIndex::new(alphabet(), spec(family), MAX_PATTERN_LEN, config()).expect("build");
        live.enable_durability(&dir, FsyncPolicy::Never)
            .expect("arm durability");
        for op in &gen_ops(0x1057, 12) {
            match op {
                Op::Append(batch) => drop(live.append(batch).expect("append")),
                Op::Delete(start, end) => live.delete_range(*start, *end).expect("delete"),
            }
        }
    }
    let wal = std::fs::read(dir.join(WAL_FILE)).expect("read wal");
    let records = scan(&wal).expect("clean log").len();
    assert_eq!(records, 12, "every mutation is logged");
    let cases = mutations(WAL_HEADER_LEN..wal.len(), 1_500, 0x1057_0001);
    let total = cases.len();
    let replayed = Arc::new(AtomicUsize::new(0));
    let replays = replayed.clone();
    let target = dir.join(WAL_FILE);
    let check_dir = dir.clone();
    let failures = sweep("IUSJ", cases, Duration::from_secs(120), move |mutation| {
        let mut corrupted = wal.clone();
        mutation.apply(&mut corrupted);
        reseal_wal(&mut corrupted);
        std::fs::write(&target, &corrupted).map_err(|e| e.to_string())?;
        let outcome = match LiveIndex::open(&check_dir, config()) {
            Err(err)
                if matches!(
                    err.kind(),
                    ErrorKind::InvalidData | ErrorKind::UnexpectedEof
                ) =>
            {
                Ok(())
            }
            Err(err) => Err(format!("untyped kind {:?}: {err}", err.kind())),
            Ok(live) => {
                for pattern in [vec![0u8; 4], vec![1u8; 5], vec![0, 1, 0, 1, 0, 1]] {
                    let _ = live.query_owned(&pattern);
                }
                replays.fetch_add(
                    usize::from(live.live_stats().recovered_records > 0),
                    Ordering::Relaxed,
                );
                Ok(())
            }
        };
        std::fs::write(&target, &wal).map_err(|e| e.to_string())?;
        outcome
    });
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        failures.is_empty(),
        "{} of {total} re-sealed mutations failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
    let replayed = replayed.load(Ordering::Relaxed);
    assert!(
        replayed > 0 && replayed < total,
        "{replayed} of {total} mutated logs replayed"
    );
}
