//! Format differential suite for the IUSX on-disk format (version 3, the
//! only version this build reads or writes): the same index saved with raw
//! sections and with bit-packed `u32` sections must answer exactly like the
//! in-memory build it was saved from —
//!
//! * raw bytes → zero-copy arena open, and through the `Read` entry point,
//! * packed bytes → arena open,
//!
//! across every buildable family and all four benchmark preset corpora
//! (`uniform`, `uniform_high_entropy`, `pangenome`, `rssi`). Re-saving an
//! opened index reproduces its file byte for byte.
//!
//! The second half is the corruption side of the one read path: the
//! envelope is validated **at open**, so any bit flip, truncation or
//! appended byte of a v3 file, and any file whose header names another
//! version (the earlier version 2 included) or the removed sharded-index
//! format (family tag 4), must be rejected with a typed error before a
//! single view is handed out — never a panic, never a lazily-corrupt index.

use ius_arena::Arena;
use ius_datasets::corpora::{bench_corpus, BENCH_CORPUS_NAMES};
use ius_datasets::patterns::PatternSampler;
use ius_faultio::crc32;
use ius_index::persist::open_index_at;
use ius_index::{
    load_index, open_index, save_index_with, AnyIndex, IndexFamily, IndexParams, IndexSpec,
    MinimizerIndex, SaveOptions, UncertainIndex,
};
use ius_weighted::{WeightedString, ZEstimation};
use proptest::prelude::*;
use std::io::ErrorKind;
use std::sync::OnceLock;

/// Corpus length for the suite: large enough that every preset's ℓ (up to
/// 128 for `pangenome`) fits patterns at ℓ and 2ℓ, small enough to build
/// all families four times in a debug test run.
const N: usize = 400;

const PACKED: SaveOptions = SaveOptions { pack_u32: true };

/// `(family label, built index, raw bytes, packed bytes)`.
type FamilyCase = (String, AnyIndex, Vec<u8>, Vec<u8>);

struct Case {
    label: String,
    x: WeightedString,
    patterns: Vec<Vec<u8>>,
    families: Vec<FamilyCase>,
}

fn cases() -> &'static Vec<Case> {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        BENCH_CORPUS_NAMES
            .iter()
            .map(|name| {
                let corpus = bench_corpus(name, N, None).expect("known preset");
                let est = ZEstimation::build(&corpus.x, corpus.z).expect("estimation");
                let mut sampler = PatternSampler::new(&est, 0xF0_0D);
                let mut patterns = sampler.sample_many(corpus.ell, 8);
                patterns.extend(sampler.sample_many(2 * corpus.ell, 4));
                patterns.extend(sampler.sample_random(corpus.ell, 4, corpus.x.sigma()));
                let params =
                    IndexParams::new(corpus.z, corpus.ell, corpus.x.sigma()).expect("params");
                let families = IndexFamily::all()
                    .into_iter()
                    .map(|family| {
                        let spec = IndexSpec::new(family, params);
                        let index = spec.build_with_estimation(&corpus.x, &est).expect("build");
                        let mut raw = Vec::new();
                        index.save_to(&mut raw).expect("save raw");
                        let mut packed = Vec::new();
                        save_index_with(&index, &mut packed, PACKED).expect("save packed");
                        (family.name().to_string(), index, raw, packed)
                    })
                    .collect();
                Case {
                    label: corpus.name.to_string(),
                    x: corpus.x,
                    patterns,
                    families,
                }
            })
            .collect()
    })
}

fn open_single(bytes: &[u8]) -> AnyIndex {
    open_index(&Arena::from_bytes(bytes)).expect("arena open")
}

/// Every family, raw and packed, answers exactly like the in-memory build
/// it was saved from, on all four preset corpora.
#[test]
fn raw_and_packed_files_answer_like_the_build() {
    for case in cases() {
        for (label, built, raw, packed) in &case.families {
            let opened = open_single(raw);
            let loaded = load_index(&mut raw.as_slice()).expect("load raw");
            let opened_packed = open_single(packed);
            for pattern in &case.patterns {
                let expected = built.query(pattern, &case.x);
                for (path, other) in [
                    ("raw open", &opened),
                    ("raw load", &loaded),
                    ("packed open", &opened_packed),
                ] {
                    let got = other.query(pattern, &case.x);
                    match (&expected, &got) {
                        (Ok(a), Ok(b)) => assert_eq!(
                            a, b,
                            "{}/{label}/{path}: answers diverge on {pattern:?}",
                            case.label
                        ),
                        (Err(_), Err(_)) => {}
                        _ => panic!(
                            "{}/{label}/{path}: one side errored on {pattern:?}",
                            case.label
                        ),
                    }
                }
            }
        }
    }
}

/// Re-saving an opened index is byte-identical to the file it was opened
/// from, for every family (raw and packed) and corpus — the zero-copy views
/// carry the full structure, not a lossy projection of it.
#[test]
fn resave_after_open_is_byte_identical() {
    for case in cases() {
        for (label, _, raw, packed) in &case.families {
            for (encoding, bytes, opts) in [
                ("raw", raw, SaveOptions::default()),
                ("packed", packed, PACKED),
            ] {
                let mut resaved = Vec::new();
                save_index_with(&open_single(bytes), &mut resaved, opts).expect("resave");
                assert_eq!(
                    bytes, &resaved,
                    "{}/{label}/{encoding}: open round trip changed bytes",
                    case.label
                );
            }
        }
    }
}

/// A header naming any version but 3 — the earlier streamed version 2
/// included — is refused with a typed `InvalidData` error that names the
/// version, through both entry points.
#[test]
fn other_versions_are_refused_naming_the_version() {
    for (label, _, bytes, _) in &cases()[0].families {
        for version in [2u16, 4] {
            let mut other = bytes.clone();
            other[4..6].copy_from_slice(&version.to_le_bytes());
            for err in [
                open_index(&Arena::from_bytes(&other)).expect_err("open must fail"),
                load_index(&mut other.as_slice()).expect_err("load must fail"),
            ] {
                assert_eq!(err.kind(), ErrorKind::InvalidData, "{label}: {err}");
                assert!(
                    err.to_string().contains(&format!("version {version}")),
                    "{label}: {err}"
                );
            }
        }
    }
}

/// A file whose envelope names family tag 4 — the removed sharded-index
/// format — is refused with a typed `InvalidData` error that names the
/// format and points to its replacement, through every entry point, even
/// when its checksum is intact.
#[test]
fn removed_sharded_format_is_refused_typed() {
    let (_, _, raw, _) = &cases()[0].families[0];
    let mut sharded = raw.clone();
    sharded[6] = 4;
    let end = sharded.len() - 4;
    let crc = crc32(&sharded[..end]);
    sharded[end..].copy_from_slice(&crc.to_le_bytes());
    let arena = Arena::from_bytes(&sharded);
    for err in [
        open_index(&arena).expect_err("open must fail"),
        open_index_at(&arena, 0).expect_err("embedded open must fail"),
        load_index(&mut sharded.as_slice()).expect_err("load must fail"),
        MinimizerIndex::load_from(&mut sharded.as_slice()).expect_err("typed load must fail"),
    ] {
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        let message = err.to_string();
        assert!(message.contains("sharded-index format"), "{message}");
        assert!(message.contains("LiveIndex::save_to_dir"), "{message}");
    }
}

fn is_typed(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::InvalidData | ErrorKind::UnexpectedEof)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The arena path validates the envelope CRC at open, so **any** bit
    /// flip in a v3 file is rejected typed before a view is handed out.
    #[test]
    fn arena_open_rejects_any_bit_flip(
        pick in 0usize..16,
        offset_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let case = &cases()[pick % cases().len()];
        let (label, _, raw, _) = &case.families[pick % case.families.len()];
        let mut corrupted = raw.clone();
        let offset = ((corrupted.len() as f64 - 1.0) * offset_frac) as usize;
        corrupted[offset] ^= 1 << bit;
        match open_index(&Arena::from_bytes(&corrupted)) {
            Err(err) => prop_assert!(
                is_typed(err.kind()),
                "{label}: flip at {offset} failed with untyped kind {:?}: {err}",
                err.kind()
            ),
            Ok(_) => prop_assert!(
                false,
                "{label}: flip at byte {offset} bit {bit} passed CRC validation"
            ),
        }
    }

    /// Truncating a v3 file anywhere must fail typed at open.
    #[test]
    fn arena_open_rejects_any_truncation(
        pick in 0usize..16,
        cut_frac in 0.0f64..1.0,
    ) {
        let case = &cases()[pick % cases().len()];
        let (label, _, raw, _) = &case.families[pick % case.families.len()];
        let cut = ((raw.len() as f64 - 1.0) * cut_frac) as usize;
        match open_index(&Arena::from_bytes(&raw[..cut])) {
            Err(err) => prop_assert!(
                is_typed(err.kind()),
                "{label}: truncation at {cut} failed with untyped kind {:?}: {err}",
                err.kind()
            ),
            Ok(_) => prop_assert!(false, "{label}: truncation at {cut}/{} opened", raw.len()),
        }
    }

    /// Bytes appended after the CRC trailer are refused typed, through
    /// both entry points: a file ends at its trailer.
    #[test]
    fn open_rejects_any_appended_bytes(
        pick in 0usize..16,
        extra in prop::collection::vec(0u8..=255, 1..64),
    ) {
        let case = &cases()[pick % cases().len()];
        let (label, _, raw, _) = &case.families[pick % case.families.len()];
        let mut longer = raw.clone();
        longer.extend_from_slice(&extra);
        for result in [
            open_index(&Arena::from_bytes(&longer)),
            load_index(&mut longer.as_slice()),
        ] {
            match result {
                Err(err) => prop_assert!(
                    err.kind() == ErrorKind::InvalidData
                        && err.to_string().contains("trailing bytes"),
                    "{label}: {} appended bytes failed untyped ({:?}): {err}",
                    extra.len(),
                    err.kind()
                ),
                Ok(_) => prop_assert!(
                    false,
                    "{label}: {} appended bytes opened",
                    extra.len()
                ),
            }
        }
    }
}
