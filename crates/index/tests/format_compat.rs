//! Format differential suite for the IUSX on-disk format (version 6, the
//! only version this build reads or writes): a saved index must answer
//! exactly like the in-memory build it was saved from, opened zero-copy
//! from an arena and through the `Read` entry point, across every buildable
//! family and all four benchmark preset corpora (`uniform`,
//! `uniform_high_entropy`, `pangenome`, `rssi`). Re-saving an opened index
//! reproduces its file byte for byte.
//!
//! The second half is the corruption side of the one read path: the
//! envelope is validated **at open**, so any bit flip, truncation or
//! appended byte of a v6 file, and any file whose header names another
//! version (the earlier versions 2, 3, 4 and 5 included) or the removed
//! sharded-index format (family tag 4), must be rejected with a typed error
//! before a single view is handed out — never a panic, never a
//! lazily-corrupt index. So must a file whose checksum is intact but whose
//! contents break an invariant the query relies on (mismatch depths that do
//! not increase within a factor, or a malformed leaf bitvector of the
//! grid), and one with a section in an encoding other than raw (the
//! bit-packed `u32` sections of earlier version-5 builds).

use ius_arena::Arena;
use ius_datasets::corpora::{bench_corpus, BENCH_CORPUS_NAMES};
use ius_datasets::patterns::PatternSampler;
use ius_faultio::crc32;
use ius_index::persist::{open_index_at, FORMAT_VERSION};
use ius_index::{
    load_index, open_index, AnyIndex, IndexFamily, IndexParams, IndexSpec, UncertainIndex,
};
use ius_weighted::{WeightedString, ZEstimation};
use proptest::prelude::*;
use std::io::ErrorKind;
use std::sync::OnceLock;

/// Corpus length for the suite: large enough that every preset's ℓ (up to
/// 128 for `pangenome`) fits patterns at ℓ and 2ℓ, small enough to build
/// all families four times in a debug test run.
const N: usize = 400;

/// `(family label, built index, saved bytes)`.
type FamilyCase = (String, AnyIndex, Vec<u8>);

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
                        let mut bytes = Vec::new();
                        index.save_to(&mut bytes).expect("save");
                        (family.name().to_string(), index, bytes)
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

/// Every family answers exactly like the in-memory build it was saved
/// from, on all four preset corpora.
#[test]
fn saved_files_answer_like_the_build() {
    for case in cases() {
        for (label, built, bytes) in &case.families {
            let opened = open_single(bytes);
            let loaded = load_index(&mut bytes.as_slice()).expect("load");
            for pattern in &case.patterns {
                let expected = built.query(pattern, &case.x);
                for (path, other) in [("open", &opened), ("load", &loaded)] {
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
/// from, for every family and corpus — the zero-copy views carry the full
/// structure, not a lossy projection of it.
#[test]
fn resave_after_open_is_byte_identical() {
    for case in cases() {
        for (label, _, bytes) in &case.families {
            let mut resaved = Vec::new();
            open_single(bytes).save_to(&mut resaved).expect("resave");
            assert_eq!(
                bytes, &resaved,
                "{}/{label}: open round trip changed bytes",
                case.label
            );
        }
    }
}

/// A header naming any version but 6 — the earlier streamed version 2,
/// version 3 with its merge-tree grid, version 4 with its strands, ratios
/// and general point-set grid, and version 5 with its prefix-dominated
/// leaves and permutation grid included — is refused with a typed
/// `InvalidData` error that names the version, through both entry points.
#[test]
fn other_versions_are_refused_naming_the_version() {
    for (label, _, bytes) in &cases()[0].families {
        for version in [2u16, 3, 4, 5, 7] {
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

/// The raw bytes every family writes for the first corpus (their CRC32,
/// trailer excluded), pinned beside
/// the format version they were written under. A layout change that keeps
/// `FORMAT_VERSION` fails here: bump the version (and refuse the old one in
/// `other_versions_are_refused_naming_the_version`) when the layout moved,
/// and re-pin alone when only the index contents did.
#[test]
fn layout_changes_bump_the_format_version() {
    const PINNED_VERSION: u16 = 6;
    const PINNED: [(&str, u32); 9] = [
        ("NAIVE", 0x8a1671bd),
        ("WST", 0x42687382),
        ("WSA", 0x93aa0742),
        ("MWST", 0xecc8caa2),
        ("MWSA", 0x1cd4d64c),
        ("MWST-G", 0x673bdcca),
        ("MWSA-G", 0xeac8c187),
        ("SE-MWST", 0x076d687c),
        ("SE-MWSA", 0x0d3f73e7),
    ];
    let families = &cases()[0].families;
    // The pin covers the grid sections only if the grid holds points.
    for (label, built, _) in families {
        if label.ends_with("-G") {
            assert!(built.stats().num_grid_points > 0, "{label}: empty grid");
        }
    }
    let got: Vec<(&str, u32)> = families
        .iter()
        .map(|(label, _, raw)| (label.as_str(), crc32(&raw[..raw.len() - 4])))
        .collect();
    assert_eq!(
        FORMAT_VERSION, PINNED_VERSION,
        "FORMAT_VERSION moved: re-pin the checksums below it"
    );
    assert_eq!(
        got, PINNED,
        "the bytes written under format version {FORMAT_VERSION} changed: bump FORMAT_VERSION \
         if the layout changed, then re-pin (got {got:#010x?})"
    );
}

/// A file whose envelope names family tag 4 — the removed sharded-index
/// format — is refused with a typed `InvalidData` error that names the
/// format and points to its replacement, through every entry point, even
/// when its checksum is intact.
#[test]
fn removed_sharded_format_is_refused_typed() {
    let (_, _, raw) = &cases()[0].families[0];
    let mut sharded = raw.clone();
    sharded[6] = 4;
    reseal(&mut sharded);
    let arena = Arena::from_bytes(&sharded);
    for err in [
        open_index(&arena).expect_err("open must fail"),
        open_index_at(&arena, 0).expect_err("embedded open must fail"),
        load_index(&mut sharded.as_slice()).expect_err("load must fail"),
    ] {
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        let message = err.to_string();
        assert!(message.contains("sharded-index format"), "{message}");
        assert!(message.contains("LiveIndex::save_to_dir"), "{message}");
    }
}

/// Recomputes the CRC32 trailer of an edited file, so only the edit can
/// make the open fail.
fn reseal(bytes: &mut [u8]) {
    let end = bytes.len() - 4;
    let crc = crc32(&bytes[..end]);
    bytes[end..].copy_from_slice(&crc.to_le_bytes());
}

/// Walks a raw v6 file's sections: `(element count, data offset)` of the
/// section at `*pos`, advancing `*pos` past it.
fn raw_section(bytes: &[u8], pos: &mut usize, elem_size: usize) -> (usize, usize) {
    let count = u64::from_le_bytes(bytes[*pos..*pos + 8].try_into().unwrap()) as usize;
    assert_eq!(bytes[*pos + 8], 0, "raw section expected");
    let data = (*pos + 9).next_multiple_of(8);
    *pos = data + count * elem_size;
    (count, data)
}

fn u32_at(bytes: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap())
}

/// A saved MWSA-G file whose CRC is intact but whose factor has two
/// mismatch depths swapped — out of order, so the query's slice
/// comparisons would panic on it — is refused `InvalidData` at open,
/// through every entry point.
#[test]
fn swapped_mismatch_depths_are_refused_at_open() {
    let mut corrupted = None;
    'search: for case in cases() {
        let (_, _, raw) = case
            .families
            .iter()
            .find(|(label, ..)| label == "MWSA-G")
            .expect("MWSA-G is built");
        // Header (15) · params (33) · variant, construction (2) · n, σ (16).
        let mut pos = 66;
        raw_section(raw, &mut pos, 1); // heavy letters
        raw_section(raw, &mut pos, 8); // log-prefix (grid variants)
        for _ in 0..2 {
            raw_section(raw, &mut pos, 4); // anchor_x
            raw_section(raw, &mut pos, 4); // lens
            let (starts, start_at) = raw_section(raw, &mut pos, 4);
            let (_, depths_at) = raw_section(raw, &mut pos, 4);
            let leaf = (0..starts - 1).find(|&leaf| {
                u32_at(raw, start_at + 4 * (leaf + 1)) - u32_at(raw, start_at + 4 * leaf) >= 2
            });
            if let Some(leaf) = leaf {
                let first = depths_at + 4 * u32_at(raw, start_at + 4 * leaf) as usize;
                let mut bytes = raw.clone();
                let (a, b) = (first, first + 4);
                let depth_a: [u8; 4] = bytes[a..a + 4].try_into().unwrap();
                bytes.copy_within(b..b + 4, a);
                bytes[b..b + 4].copy_from_slice(&depth_a);
                reseal(&mut bytes);
                corrupted = Some((case.label.clone(), bytes));
                break 'search;
            }
            raw_section(raw, &mut pos, 1); // mism_letters
            raw_section(raw, &mut pos, 8); // mism_log_ratios (grid variants)
            raw_section(raw, &mut pos, 8); // prefix_keys
        }
    }
    let (label, bytes) = corrupted.expect("some MWSA-G factor has two mismatches");
    let arena = Arena::from_bytes(&bytes);
    for err in [
        open_index(&arena).expect_err("open must fail"),
        open_index_at(&arena, 0).expect_err("embedded open must fail"),
        load_index(&mut bytes.as_slice()).expect_err("load must fail"),
    ] {
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{label}: {err}");
        assert!(
            err.to_string().contains("strictly increase"),
            "{label}: {err}"
        );
    }
}

/// A section whose encoding byte is not raw — among them `1`, the
/// bit-packed `u32` encoding earlier version-5 builds could write on
/// request — is refused `InvalidData` naming the encoding, through every
/// entry point, even with the checksum recomputed.
#[test]
fn non_raw_section_encodings_are_refused_at_open() {
    let (_, _, raw) = cases()[0]
        .families
        .iter()
        .find(|(label, ..)| label == "MWSA-G")
        .expect("MWSA-G is built");
    // Header (15) · params (33) · variant, construction (2) · n, σ (16).
    let mut pos = 66;
    raw_section(raw, &mut pos, 1); // heavy letters
    raw_section(raw, &mut pos, 8); // log-prefix (grid variants)
                                   // `pos` now opens the forward set's anchor_x, a u32 section; its
                                   // encoding byte follows the element count.
    let mut bytes = raw.clone();
    bytes[pos + 8] = 1;
    reseal(&mut bytes);
    let arena = Arena::from_bytes(&bytes);
    for err in [
        open_index(&arena).expect_err("open must fail"),
        open_index_at(&arena, 0).expect_err("embedded open must fail"),
        load_index(&mut bytes.as_slice()).expect_err("load must fail"),
    ] {
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        let message = err.to_string();
        assert!(message.contains("section encoding 1"), "{message}");
        assert!(message.contains("rebuild the index"), "{message}");
    }
}

/// The data offsets of the forward (x) leaf bitvector of a saved MWSA-G
/// file: `(N, words offset, rank counts offset)`, each of `⌊N/64⌋ + 1`
/// entries.
fn x_starts_sections(raw: &[u8]) -> (usize, usize, usize) {
    // Header (15) · params (33) · variant, construction (2) · n, σ (16).
    let mut pos = 66;
    raw_section(raw, &mut pos, 1); // heavy letters
    raw_section(raw, &mut pos, 8); // log-prefix (grid variants)
    for _ in 0..2 {
        for elem_size in [4, 4, 4, 4, 1, 8, 8] {
            // anchor_x · lens · mism_start · mism_depths · mism_letters
            // · mism_log_ratios · prefix_keys
            raw_section(raw, &mut pos, elem_size);
        }
    }
    // Two trie flags (no tries in MWSA-G) and the grid flag, then N.
    assert_eq!(raw[pos..pos + 3], [0, 0, 1]);
    let n = u64::from_le_bytes(raw[pos + 3..pos + 11].try_into().unwrap()) as usize;
    pos += 11;
    for elem_size in [8, 4, 4, 4] {
        // Wavelet words · rank counts · ids_by_x · xs_by_id
        raw_section(raw, &mut pos, elem_size);
    }
    let (words, bits_at) = raw_section(raw, &mut pos, 8);
    let (ranks, ranks_at) = raw_section(raw, &mut pos, 4);
    assert_eq!((words, ranks), (n / 64 + 1, n / 64 + 1));
    (n, bits_at, ranks_at)
}

/// A saved MWSA-G file whose CRC is intact but whose forward leaf
/// bitvector is malformed — rank counts that are not its prefix popcounts,
/// a popcount other than the forward leaf count, rank 0 unmarked, a bit
/// set past N — is refused `InvalidData` naming the fault, through every
/// entry point.
#[test]
fn malformed_leaf_bitvectors_are_refused_at_open() {
    let (label, raw, n, bits_at, ranks_at) = cases()
        .iter()
        .find_map(|case| {
            let (_, _, raw) = case.families.iter().find(|(l, ..)| l == "MWSA-G")?;
            let (n, bits_at, ranks_at) = x_starts_sections(raw);
            (n > 64).then(|| (case.label.clone(), raw.clone(), n, bits_at, ranks_at))
        })
        .expect("some MWSA-G grid spans two words");
    let words = n / 64 + 1;
    let word = |bytes: &[u8], w: usize| {
        u64::from_le_bytes(
            bytes[bits_at + 8 * w..bits_at + 8 * w + 8]
                .try_into()
                .unwrap(),
        )
    };
    // Rewrites the words, then the rank counts as their prefix popcounts.
    let with_words = |edit: &dyn Fn(&mut [u64])| {
        let mut bytes = raw.clone();
        let mut bits: Vec<u64> = (0..words).map(|w| word(&bytes, w)).collect();
        edit(&mut bits);
        let mut ones = 0u32;
        for (w, bits) in bits.iter().enumerate() {
            bytes[bits_at + 8 * w..bits_at + 8 * w + 8].copy_from_slice(&bits.to_le_bytes());
            bytes[ranks_at + 4 * w..ranks_at + 4 * w + 4].copy_from_slice(&ones.to_le_bytes());
            ones += bits.count_ones();
        }
        bytes
    };
    let mut rank_count = raw.clone();
    let bumped = u32_at(&rank_count, ranks_at + 4) + 1;
    rank_count[ranks_at + 4..ranks_at + 8].copy_from_slice(&bumped.to_le_bytes());
    let corruptions = [
        (
            "rank count",
            rank_count,
            "x bitvector rank counts are not its prefix popcounts",
        ),
        (
            "one leaf unmarked",
            with_words(&|bits| {
                let w = (0..words).rev().find(|&w| bits[w] != 0).unwrap();
                bits[w] &= !(1 << (63 - bits[w].leading_zeros()));
            }),
            "grid marks",
        ),
        (
            "rank 0 unmarked",
            with_words(&|bits| bits[0] &= !1),
            "x bitvector does not mark the first point",
        ),
        (
            "bit past N",
            with_words(&|bits| bits[words - 1] |= 1 << 63),
            "x bitvector has bits set past its length",
        ),
    ];
    for (what, mut bytes, expected) in corruptions {
        reseal(&mut bytes);
        let arena = Arena::from_bytes(&bytes);
        for err in [
            open_index(&arena).expect_err("open must fail"),
            open_index_at(&arena, 0).expect_err("embedded open must fail"),
            load_index(&mut bytes.as_slice()).expect_err("load must fail"),
        ] {
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{label} {what}: {err}");
            assert!(err.to_string().contains(expected), "{label} {what}: {err}");
        }
    }
}

fn is_typed(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::InvalidData | ErrorKind::UnexpectedEof)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The arena path validates the envelope CRC at open, so **any** bit
    /// flip in a v6 file is rejected typed before a view is handed out.
    #[test]
    fn arena_open_rejects_any_bit_flip(
        pick in 0usize..16,
        offset_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let case = &cases()[pick % cases().len()];
        let (label, _, raw) = &case.families[pick % case.families.len()];
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

    /// Truncating a v6 file anywhere must fail typed at open.
    #[test]
    fn arena_open_rejects_any_truncation(
        pick in 0usize..16,
        cut_frac in 0.0f64..1.0,
    ) {
        let case = &cases()[pick % cases().len()];
        let (label, _, raw) = &case.families[pick % case.families.len()];
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
        let (label, _, raw) = &case.families[pick % case.families.len()];
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
