//! Byte-layout pins of the live index's files: an `IUSJ` write-ahead log
//! holding one APPEND and one DELETE, and the `IUSL` manifest and `IUSG`
//! segment files of a small saved directory, each pinned by its CRC32
//! beside the format version it was written under. The round-trip and
//! corruption suites cannot see a change that moves the writer and the
//! reader together; these can. A layout change that keeps the version
//! fails here: bump it when the layout moved, then re-pin.

use ius_faultio::{crc32, SimSink};
use ius_index::{IndexFamily, IndexParams, IndexSpec, IndexVariant};
use ius_live::manifest::LIVE_FORMAT_VERSION;
use ius_live::wal::{encode_record, WalRecord, WAL_FILE, WAL_MAGIC, WAL_VERSION};
use ius_live::{FsyncPolicy, LiveConfig, LiveIndex};
use ius_weighted::{Alphabet, WeightedString};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ius-layout-pins-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn spec(sigma: usize) -> IndexSpec {
    let params = IndexParams::new(6.0, 8, sigma).expect("params");
    IndexSpec::new(IndexFamily::Minimizer(IndexVariant::Array), params)
}

/// A WAL holding one two-row APPEND and one DELETE, written through a
/// real directory, through an injected sink and by `encode_record` alike.
#[test]
fn wal_image_layout_is_pinned() {
    const PINNED_VERSION: u16 = 1;
    const PINNED: u32 = 0xf3d9b6e7;
    let alphabet = Alphabet::new(b"ab").expect("alphabet");
    let batch =
        WeightedString::from_flat(alphabet.clone(), vec![0.25, 0.75, 1.0, 0.0]).expect("batch");
    let config = LiveConfig {
        flush_threshold: 1 << 20,
        auto_compact: false,
        threads: 1,
        ..LiveConfig::default()
    };
    let mutate = |live: &LiveIndex| {
        live.append(&batch).expect("append");
        live.delete_range(0, 1).expect("delete");
    };
    // Through a directory: the header file `enable_durability` creates.
    let dir = scratch_dir("wal");
    let live = LiveIndex::new(alphabet.clone(), spec(2), 8, config.clone()).expect("live");
    live.enable_durability(&dir, FsyncPolicy::Never)
        .expect("arm durability");
    mutate(&live);
    drop(live);
    let from_file = std::fs::read(dir.join(WAL_FILE)).expect("read wal");
    std::fs::remove_dir_all(&dir).ok();
    // Through an injected sink.
    let sink = SimSink::healthy();
    let media = sink.media();
    let live = LiveIndex::new(alphabet, spec(2), 8, config).expect("live");
    live.enable_durability_with_sink(Box::new(sink), FsyncPolicy::Never)
        .expect("arm durability");
    mutate(&live);
    let from_sink = media.lock().expect("media").clone();
    // By hand.
    let mut by_hand = Vec::new();
    by_hand.extend_from_slice(&WAL_MAGIC);
    by_hand.extend_from_slice(&WAL_VERSION.to_le_bytes());
    encode_record(
        &mut by_hand,
        &WalRecord::Append {
            n_before: 0,
            rows: 2,
            flat: vec![0.25, 0.75, 1.0, 0.0],
        },
    );
    encode_record(
        &mut by_hand,
        &WalRecord::Delete {
            n_before: 2,
            start: 0,
            end: 1,
        },
    );
    assert_eq!(from_file, by_hand, "the directory's wal");
    assert_eq!(from_sink, by_hand, "the sink's wal");
    assert_eq!(
        WAL_VERSION, PINNED_VERSION,
        "WAL_VERSION moved: re-pin the checksum below it"
    );
    let got = crc32(&by_hand);
    assert_eq!(
        got, PINNED,
        "the wal bytes written under version {WAL_VERSION} changed: bump WAL_VERSION if the \
         layout changed, then re-pin (got {got:#010x})"
    );
}

/// The manifest and every segment file of a saved directory with several
/// segments, a tombstone and a non-empty memtable. Each file ends in the
/// CRC32 of everything before it, so the pin is that checksum (the CRC32
/// of a whole file with its trailer is the same constant for every file).
#[test]
fn saved_directory_layout_is_pinned() {
    const PINNED_VERSION: u16 = 3;
    const PINNED: [(&str, u32); 4] = [
        ("live.iusl", 0x9ebb32ec),
        ("seg-0000000000000000.iusg", 0x169000d9),
        ("seg-0000000000000001.iusg", 0x08c7d30f),
        ("seg-0000000000000002.iusg", 0xe0fff593),
    ];
    let x = ius_datasets::uniform::UniformConfig {
        n: 300,
        sigma: 3,
        spread: 0.35,
        seed: 0x1A7,
    }
    .generate();
    let config = LiveConfig {
        flush_threshold: 100,
        compact_fanout: 4,
        auto_compact: false,
        threads: 1,
    };
    let live = LiveIndex::from_corpus(&x, spec(x.sigma()), 16, config).expect("build");
    live.delete_range(40, 55).expect("tombstone");
    live.append(&x.substring(0, 20).expect("batch"))
        .expect("append");
    let dir = scratch_dir("dir");
    live.save_to_dir(&dir).expect("save");
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("read dir")
        .map(|entry| {
            let entry = entry.expect("entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(entry.path()).expect("read file"))
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    files.sort();
    let got: Vec<(&str, u32)> = files
        .iter()
        .map(|(name, bytes)| (name.as_str(), crc32(&bytes[..bytes.len() - 4])))
        .collect();
    assert_eq!(
        LIVE_FORMAT_VERSION, PINNED_VERSION,
        "LIVE_FORMAT_VERSION moved: re-pin the checksums below it"
    );
    assert_eq!(
        got, PINNED,
        "the files written under live format version {LIVE_FORMAT_VERSION} changed: bump \
         LIVE_FORMAT_VERSION if the layout changed, then re-pin (got {got:#010x?})"
    );
}
