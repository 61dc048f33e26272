//! Corruption properties of the `IUSL` manifest format, mirroring the
//! `IUSX` guarantees of `crates/index/tests/persist_corruption.rs`: a
//! flipped byte or a truncation anywhere in the manifest or a segment file
//! must **never panic** the loader — it must fail with a typed
//! `InvalidData`/`UnexpectedEof` error or (when the flip lands in payload
//! data that stays structurally valid) open an index that still answers
//! queries without panicking. A segment file the manifest references but
//! that is missing on disk must fail **typed at open**, naming the file —
//! never lazily at first query. So must a manifest whose checksum is
//! intact but whose segment table sums past the address space, and a
//! write-ahead log whose CRC-valid APPEND claims more rows than σ times
//! the address space can hold.
//!
//! A plain flip almost always stops at a CRC32 trailer, so seeded sweeps
//! also mutate the manifest, and one segment file, behind their headers
//! and **re-seal** every CRC — the segment file's own and its embedded
//! IUSX envelope's — before opening the directory: the validators behind
//! the checksums must refuse the result typed, or the index must answer.

use ius_faultio::crc32;
use ius_faultio::mutate::{mutations, reseal, sweep, Mutation};
use ius_index::{IndexFamily, IndexParams, IndexSpec, IndexVariant};
use ius_live::wal::{encode_record, WalRecord, WAL_FILE, WAL_MAGIC, WAL_VERSION};
use ius_live::{LiveConfig, LiveIndex};
use proptest::prelude::*;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn config() -> LiveConfig {
    LiveConfig {
        flush_threshold: 60,
        compact_fanout: 4,
        auto_compact: false,
        threads: 1,
    }
}

/// One saved live index (several segments, a tombstone, a non-empty
/// memtable), serialized once for the whole test binary.
struct Saved {
    manifest: Vec<u8>,
    segment_files: Vec<(PathBuf, Vec<u8>)>,
}

fn saved() -> &'static Saved {
    static SAVED: OnceLock<Saved> = OnceLock::new();
    SAVED.get_or_init(|| {
        let x = ius_datasets::uniform::UniformConfig {
            n: 400,
            sigma: 3,
            spread: 0.35,
            seed: 0xC0DE,
        }
        .generate();
        let params = IndexParams::new(6.0, 8, x.sigma()).expect("params");
        let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::Array), params);
        let live = LiveIndex::from_corpus(&x, spec, 16, config()).expect("build");
        live.delete_range(50, 80).expect("tombstone");
        // A trailing batch keeps the memtable non-empty beyond the overlap.
        live.append(&x.substring(0, 30).expect("batch"))
            .expect("append");
        let dir = std::env::temp_dir().join(format!("ius-live-corruption-{}", std::process::id()));
        live.save_to_dir(&dir).expect("save");
        let manifest = std::fs::read(dir.join("live.iusl")).expect("read manifest");
        let mut segment_files = Vec::new();
        for entry in std::fs::read_dir(&dir).expect("read dir") {
            let entry = entry.expect("entry");
            if entry.file_name().to_string_lossy().ends_with(".iusg") {
                segment_files.push((
                    entry.path(),
                    std::fs::read(entry.path()).expect("read segment"),
                ));
            }
        }
        segment_files.sort();
        assert!(segment_files.len() >= 2, "need several segment files");
        Saved {
            manifest,
            segment_files,
        }
    })
}

fn is_typed_load_error(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::InvalidData | ErrorKind::UnexpectedEof)
}

/// Copies the saved directory into a fresh scratch directory so each case
/// can corrupt it independently.
fn scratch_copy(tag: &str) -> PathBuf {
    let saved = saved();
    let dir = std::env::temp_dir().join(format!(
        "ius-live-corruption-case-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    std::fs::write(dir.join("live.iusl"), &saved.manifest).expect("copy manifest");
    for (path, bytes) in &saved.segment_files {
        std::fs::write(dir.join(path.file_name().expect("name")), bytes).expect("copy segment");
    }
    dir
}

/// Opening must either fail typed or produce a queryable index.
fn open_never_panics(dir: &Path, label: &str) -> Result<(), TestCaseError> {
    match LiveIndex::open(dir, config()) {
        Err(err) => prop_assert!(
            is_typed_load_error(err.kind()) || err.kind() == ErrorKind::NotFound,
            "{label}: untyped error kind {:?}: {err}",
            err.kind()
        ),
        Ok(live) => {
            // The corruption survived validation (structurally valid
            // either way): the index must still answer — right or wrong —
            // without panicking.
            for pattern in [vec![0u8; 8], vec![1u8; 12], vec![2u8; 16]] {
                let _ = live.query_owned(&pattern);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One flipped byte anywhere in the manifest never panics the loader.
    #[test]
    fn one_flipped_manifest_byte_never_panics(
        offset_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let dir = scratch_copy("mflip");
        let mut bytes = saved().manifest.clone();
        let offset = ((bytes.len() as f64 - 1.0) * offset_frac) as usize;
        bytes[offset] ^= flip;
        std::fs::write(dir.join("live.iusl"), &bytes).expect("write corrupted manifest");
        open_never_panics(&dir, &format!("manifest flip at {offset}"))?;
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncating the manifest at any offset strictly inside it always
    /// fails with a typed error (the format has no trailing slack).
    #[test]
    fn manifest_truncation_always_fails_typed(cut_frac in 0.0f64..1.0) {
        let dir = scratch_copy("mtrunc");
        let bytes = &saved().manifest;
        let cut = ((bytes.len() as f64 - 1.0) * cut_frac) as usize;
        std::fs::write(dir.join("live.iusl"), &bytes[..cut]).expect("write truncated manifest");
        let err = LiveIndex::open(&dir, config());
        prop_assert!(err.is_err(), "truncation at {cut} opened successfully");
        let kind = err.unwrap_err().kind();
        prop_assert!(
            is_typed_load_error(kind),
            "truncation at {cut} failed with untyped kind {kind:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One flipped byte anywhere in a segment file never panics: typed
    /// failure at open, or a still-queryable index.
    #[test]
    fn one_flipped_segment_byte_never_panics(
        pick in 0usize..8,
        offset_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let dir = scratch_copy("sflip");
        let (path, bytes) = &saved().segment_files[pick % saved().segment_files.len()];
        let mut corrupted = bytes.clone();
        let offset = ((corrupted.len() as f64 - 1.0) * offset_frac) as usize;
        corrupted[offset] ^= flip;
        std::fs::write(dir.join(path.file_name().expect("name")), &corrupted)
            .expect("write corrupted segment");
        open_never_panics(&dir, &format!("segment flip at {offset}"))?;
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncating a segment file always fails typed at open.
    #[test]
    fn segment_truncation_always_fails_typed(
        pick in 0usize..8,
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = scratch_copy("strunc");
        let (path, bytes) = &saved().segment_files[pick % saved().segment_files.len()];
        let cut = ((bytes.len() as f64 - 1.0) * cut_frac) as usize;
        std::fs::write(dir.join(path.file_name().expect("name")), &bytes[..cut])
            .expect("write truncated segment");
        let err = LiveIndex::open(&dir, config());
        prop_assert!(err.is_err(), "segment truncation at {cut} opened successfully");
        let kind = err.unwrap_err().kind();
        prop_assert!(
            is_typed_load_error(kind),
            "segment truncation at {cut} failed with untyped kind {kind:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A segment file the manifest references but that is missing on disk
/// fails **at open** with a typed `NotFound` error naming the file —
/// never at first query.
#[test]
fn missing_segment_file_fails_typed_at_open() {
    for pick in 0..saved().segment_files.len() {
        let dir = scratch_copy(&format!("missing-{pick}"));
        let name = saved().segment_files[pick]
            .0
            .file_name()
            .expect("name")
            .to_string_lossy()
            .into_owned();
        std::fs::remove_file(dir.join(&name)).expect("remove segment file");
        let err = LiveIndex::open(&dir, config()).expect_err("open must fail");
        assert_eq!(err.kind(), ErrorKind::NotFound, "{err}");
        assert!(
            err.to_string().contains(&name),
            "error must name the missing file: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Deterministic spot checks of the security-relevant header offsets.
#[test]
fn header_corruptions_fail_with_informative_messages() {
    // Manifest magic.
    let dir = scratch_copy("hdr-magic");
    let mut bytes = saved().manifest.clone();
    bytes[0] = b'X';
    std::fs::write(dir.join("live.iusl"), &bytes).unwrap();
    let err = LiveIndex::open(&dir, config()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("magic"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
    // Manifest version.
    let dir = scratch_copy("hdr-version");
    let mut bytes = saved().manifest.clone();
    bytes[4] = 0xFF;
    std::fs::write(dir.join("live.iusl"), &bytes).unwrap();
    let err = LiveIndex::open(&dir, config()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("version"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
    // Segment magic.
    let dir = scratch_copy("hdr-seg-magic");
    let (path, bytes) = &saved().segment_files[0];
    let mut corrupted = bytes.clone();
    corrupted[0] = b'X';
    std::fs::write(dir.join(path.file_name().unwrap()), &corrupted).unwrap();
    let err = LiveIndex::open(&dir, config()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("magic"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
    // Version 2 — the format before aligned segment envelopes — is
    // refused, for the manifest and for a segment file alike.
    let dir = scratch_copy("hdr-manifest-v2");
    let mut bytes = saved().manifest.clone();
    bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
    std::fs::write(dir.join("live.iusl"), &bytes).unwrap();
    let err = LiveIndex::open(&dir, config()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("version 2"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
    let dir = scratch_copy("hdr-seg-v2");
    let (path, bytes) = &saved().segment_files[0];
    let mut corrupted = bytes.clone();
    corrupted[4..6].copy_from_slice(&2u16.to_le_bytes());
    std::fs::write(dir.join(path.file_name().unwrap()), &corrupted).unwrap();
    let err = LiveIndex::open(&dir, config()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("version"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
    // Empty manifest.
    let dir = scratch_copy("hdr-empty");
    std::fs::write(dir.join("live.iusl"), []).unwrap();
    let err = LiveIndex::open(&dir, config()).unwrap_err();
    assert!(is_typed_load_error(err.kind()), "{err}");
    std::fs::remove_dir_all(&dir).ok();
    // Missing manifest entirely.
    let dir = scratch_copy("hdr-nomanifest");
    std::fs::remove_file(dir.join("live.iusl")).unwrap();
    let err = LiveIndex::open(&dir, config()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::NotFound);
    assert!(err.to_string().contains("live.iusl"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

fn u64_at(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().unwrap())
}

/// A manifest whose CRC is intact but whose segment table holds the
/// entries `(0, 0, u64::MAX)` and `(1, u64::MAX, 1)` — each tiles onto the
/// previous one, their sum overflows — is refused typed at open, in debug
/// and release builds alike (never an arithmetic panic, never a wrapped
/// sum).
#[test]
fn overflowing_segment_table_fails_typed() {
    let saved = saved();
    let bytes = &saved.manifest;
    // The manifest ends: segment count · (id, offset, home_len) per
    // segment · next segment id · CRC32 trailer.
    let segments = saved.segment_files.len();
    let count_at = bytes.len() - 4 - 8 - 24 * segments - 8;
    assert_eq!(u64_at(bytes, count_at), segments as u64, "segment count");
    let next_id = u64_at(bytes, bytes.len() - 12);
    assert!(next_id >= 2, "both forged ids must lie below the next id");
    let mut forged = bytes[..count_at].to_vec();
    for field in [2, 0, 0, u64::MAX, 1, u64::MAX, 1, next_id] {
        forged.extend_from_slice(&field.to_le_bytes());
    }
    let crc = crc32(&forged);
    forged.extend_from_slice(&crc.to_le_bytes());
    let dir = scratch_copy("table-overflow");
    std::fs::write(dir.join("live.iusl"), &forged).unwrap();
    let err = LiveIndex::open(&dir, config()).expect_err("open must fail");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("overflows"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A manifest whose CRC is intact but whose family tag is 9 — a tag that
/// once named a space-efficient grid variant, which never built — is
/// refused typed at open.
#[test]
fn retired_family_tag_fails_typed() {
    let saved = saved();
    let bytes = &saved.manifest;
    // The manifest starts: magic · version u16 · symbol count u64 ·
    // symbols · family tag.
    let tag_at = 4 + 2 + 8 + u64_at(bytes, 6) as usize;
    assert_eq!(bytes[tag_at], 4, "the saved index is an explicit MWSA");
    let mut forged = bytes[..bytes.len() - 4].to_vec();
    forged[tag_at] = 9;
    let crc = crc32(&forged);
    forged.extend_from_slice(&crc.to_le_bytes());
    let dir = scratch_copy("retired-tag");
    std::fs::write(dir.join("live.iusl"), &forged).unwrap();
    let err = LiveIndex::open(&dir, config()).expect_err("open must fail");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(
        err.to_string().contains("unknown index-family tag 9"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A write-ahead log whose one record is a CRC-valid APPEND of 2^63 rows
/// with an empty body: the record decodes (0 values is a multiple of any
/// row count), but rows × σ overflows, so replay refuses it typed at
/// open, in debug and release builds alike (never an arithmetic panic,
/// never a wrapped product).
#[test]
fn forged_wal_append_with_overflowing_rows_fails_typed() {
    let mut wal = WAL_MAGIC.to_vec();
    wal.extend_from_slice(&WAL_VERSION.to_le_bytes());
    encode_record(
        &mut wal,
        &WalRecord::Append {
            n_before: 0,
            rows: 1 << 63,
            flat: Vec::new(),
        },
    );
    let dir = scratch_copy("wal-rows-overflow");
    std::fs::write(dir.join(WAL_FILE), &wal).unwrap();
    let err = LiveIndex::open(&dir, config()).expect_err("open must fail");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("overflows"), "{err}");
}

/// Bytes of the IUSL / IUSG file header: magic (4) · version (u16).
const LIVE_HEADER_LEN: usize = 6;

/// Opens `dir` after one re-sealed mutation: a typed refusal passes, a
/// checksum refusal means the case was not re-sealed, and an index that
/// opens must answer every probe without panicking. Returns whether it
/// opened.
fn open_typed_or_answer(dir: &Path) -> Result<bool, String> {
    match LiveIndex::open(dir, config()) {
        Err(err) if err.to_string().contains("checksum mismatch") => {
            Err(format!("not re-sealed: {err}"))
        }
        Err(err) if is_typed_load_error(err.kind()) => Ok(false),
        Err(err) => Err(format!("untyped kind {:?}: {err}", err.kind())),
        Ok(live) => {
            for pattern in [
                vec![0u8; 8],
                vec![1u8; 12],
                vec![2u8; 16],
                vec![0, 1, 2, 0, 1, 2, 0, 1],
            ] {
                let _ = live.query_owned(&pattern);
            }
            Ok(true)
        }
    }
}

/// Runs one re-sealed sweep over `file` of a scratch copy of the saved
/// directory: each case writes the mutated and re-sealed file, opens the
/// directory, and puts the original back. Both outcomes must occur: some
/// cases open and answer, the others are refused by the validators.
fn resealed_sweep(
    tag: &str,
    file: &str,
    original: &[u8],
    cases: Vec<Mutation>,
    seal: fn(&mut [u8]),
) {
    let dir = scratch_copy(tag);
    let target = dir.join(file);
    let original = original.to_vec();
    let total = cases.len();
    let check_dir = dir.clone();
    let answered = Arc::new(AtomicUsize::new(0));
    let answers = answered.clone();
    let failures = sweep(tag, cases, Duration::from_secs(120), move |mutation| {
        let mut corrupted = original.clone();
        mutation.apply(&mut corrupted);
        seal(&mut corrupted);
        std::fs::write(&target, &corrupted).map_err(|e| e.to_string())?;
        let outcome = open_typed_or_answer(&check_dir);
        std::fs::write(&target, &original).map_err(|e| e.to_string())?;
        answers.fetch_add(usize::from(outcome?), Ordering::Relaxed);
        Ok(())
    });
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        failures.is_empty(),
        "{} of {total} re-sealed mutations failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
    let answered = answered.load(Ordering::Relaxed);
    assert!(
        answered > 0 && answered < total,
        "{tag}: {answered} of {total} mutated directories answered"
    );
}

/// Re-seals a whole-file CRC32 trailer.
fn seal_file(bytes: &mut [u8]) {
    let trailer = bytes.len() - 4;
    reseal(bytes, 0..trailer);
}

/// The re-sealed manifest sweep: 1,500 seeded byte flips and boundary-value
/// `u32`/`u64` overwrites behind the header, the CRC32 re-sealed each
/// time. Every case opens typed-refused or answers; none panics or hangs.
#[test]
fn resealed_manifest_mutations_open_typed_or_answer() {
    let manifest = &saved().manifest;
    let cases = mutations(LIVE_HEADER_LEN..manifest.len() - 4, 1_500, 0x1051_0001);
    resealed_sweep("reseal-manifest", "live.iusl", manifest, cases, seal_file);
}

/// The re-sealed segment sweep: 1,500 seeded mutations behind the header of
/// one segment file, re-sealing the embedded IUSX envelope's CRC32 where
/// its (possibly mutated) length field puts it, and then the segment
/// file's own.
#[test]
fn resealed_segment_mutations_open_typed_or_answer() {
    let (path, bytes) = &saved().segment_files[0];
    let name = path
        .file_name()
        .expect("name")
        .to_string_lossy()
        .into_owned();
    let cases = mutations(LIVE_HEADER_LEN..bytes.len() - 4, 1_500, 0x1051_0002);
    resealed_sweep("reseal-segment", &name, bytes, cases, |corrupted| {
        let base = iusx_base(&saved().segment_files[0].1);
        // An envelope length that escapes the file is refused by the
        // reader before any checksum; there is nothing to re-seal.
        let end = usize::try_from(u64_at(corrupted, base + 7))
            .ok()
            .and_then(|len| base.checked_add(len))
            .filter(|&end| end >= base + 19 && end <= corrupted.len() - 4);
        if let Some(end) = end {
            reseal(corrupted, base..end - 4);
        }
        seal_file(corrupted);
    });
}

/// Offset of the IUSX envelope embedded in a segment file: the first
/// 8-aligned `IUSX` magic. Its header is magic · version u16 · family tag
/// u8 · envelope length u64.
fn iusx_base(segment: &[u8]) -> usize {
    (0..segment.len() - 4)
        .step_by(8)
        .find(|&at| &segment[at..at + 4] == b"IUSX")
        .expect("a segment file embeds an IUSX envelope")
}
