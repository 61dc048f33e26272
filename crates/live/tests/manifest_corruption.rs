//! Corruption properties of the `IUSL` manifest format, mirroring the
//! `IUSX` guarantees of `crates/index/tests/persist_corruption.rs`: a
//! flipped byte or a truncation anywhere in the manifest or a segment file
//! must **never panic** the loader — it must fail with a typed
//! `InvalidData`/`UnexpectedEof` error or (when the flip lands in payload
//! data that stays structurally valid) open an index that still answers
//! queries without panicking. A segment file the manifest references but
//! that is missing on disk must fail **typed at open**, naming the file —
//! never lazily at first query.

use ius_index::{IndexFamily, IndexParams, IndexSpec, IndexVariant};
use ius_live::{LiveConfig, LiveIndex};
use proptest::prelude::*;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

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
