//! Format differential suite for the IUSX on-disk format (version 9, the
//! only version this build reads or writes): a saved index must answer
//! exactly like the in-memory build it was saved from, opened zero-copy
//! from an arena and through the `Read` entry point, across every buildable
//! family and all four benchmark preset corpora (`uniform`,
//! `uniform_high_entropy`, `pangenome`, `rssi`). Re-saving an opened index
//! reproduces its file byte for byte.
//!
//! The second half is the corruption side of the one read path: the
//! envelope is validated **at open**, so any bit flip, truncation or
//! appended byte of a v9 file, and any file whose header names another
//! version (the earlier versions 2 to 8 included) or a family tag no
//! family has, must be rejected with a typed error before a single view is
//! handed out — never a panic, never a lazily-corrupt index. So must a
//! file whose checksum is intact but whose contents break an invariant the
//! query relies on (mismatch depths that do not increase within a factor,
//! a malformed leaf bitvector of the grid, a trie edge that leads back
//! up, or a key directory out of order or of the wrong length), one with
//! a section in an encoding other than raw (the bit-packed
//! `u32` sections of earlier version-5 builds), and one whose narrow leaf
//! table has a width byte other than 1, 2 or 4 or a section too short for
//! its count.

use ius_arena::Arena;
use ius_datasets::corpora::{bench_corpus, BENCH_CORPUS_NAMES};
use ius_datasets::patterns::PatternSampler;
use ius_datasets::uniform::UniformConfig;
use ius_faultio::crc32;
use ius_index::encode::KEY_STRIDE;
use ius_index::persist::{open_index_at, write_spec, FORMAT_VERSION};
use ius_index::{
    load_index, open_index, AnyIndex, IndexFamily, IndexParams, IndexSpec, IndexVariant,
    NaiveIndex, UncertainIndex,
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

/// A corpus without uncertainty, 70,000 letters long: every forward factor
/// runs from its minimizer to the end of `X` and every backward one back
/// to its start, so the longest needs more than 16 bits and both sets store
/// their lengths and depths 4 bytes wide. Its MWSA-G file re-saves byte for
/// byte and answers like the build and like NAIVE.
#[test]
fn factors_past_65535_letters_are_stored_u32_wide() {
    let x = UniformConfig {
        n: 70_000,
        sigma: 4,
        spread: 0.0,
        seed: 3,
    }
    .generate();
    let (z, ell) = (4.0, 32);
    let est = ZEstimation::build(&x, z).expect("estimation");
    let params = IndexParams::new(z, ell, x.sigma()).expect("params");
    let built = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params)
        .build_with_estimation(&x, &est)
        .expect("build");
    let AnyIndex::Minimizer(index) = &built else {
        panic!("MWSA-G is a minimizer index");
    };
    let widths = index.factor_sets().map(|set| set.length_width());
    assert_eq!(
        widths,
        [4, 4],
        "length widths of the forward and backward set"
    );
    let mut bytes = Vec::new();
    built.save_to(&mut bytes).expect("save");
    let opened = open_single(&bytes);
    let mut resaved = Vec::new();
    opened.save_to(&mut resaved).expect("resave");
    assert!(bytes == resaved, "open round trip changed bytes");
    let naive = NaiveIndex::new(z).expect("naive");
    let mut sampler = PatternSampler::new(&est, 0x0_5EED);
    let mut patterns = sampler.sample_many(ell, 8);
    patterns.extend(sampler.sample_many(2 * ell, 4));
    let mut reported = 0;
    for pattern in &patterns {
        let expected = naive.query(pattern, &x).expect("naive query");
        assert_eq!(built.query(pattern, &x).expect("query"), expected);
        assert_eq!(opened.query(pattern, &x).expect("query"), expected);
        reported += expected.len();
    }
    assert!(reported > 0, "no sampled pattern occurs");
}

/// A header naming any version but 9 — the earlier streamed version 2,
/// version 3 with its merge-tree grid, version 4 with its strands, ratios
/// and general point-set grid, version 5 with its prefix-dominated leaves
/// and permutation grid, version 6 with its `u32` leaf tables, version 7
/// with its variant bytes, presence flags and child counts, and version 8
/// with a prefix key per leaf included — is refused with a typed
/// `InvalidData` error that names the version, through both entry points.
#[test]
fn other_versions_are_refused_naming_the_version() {
    for (label, _, bytes) in &cases()[0].families {
        for version in [2u16, 3, 4, 5, 6, 7, 8, 10] {
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
    const PINNED_VERSION: u16 = 9;
    const PINNED: [(&str, u32); 9] = [
        ("NAIVE", 0xc989e773),
        ("WST", 0xd3201e48),
        ("WSA", 0x09a8d44c),
        ("MWST", 0xbbcdd3c9),
        ("MWSA", 0x54a49448),
        ("MWST-G", 0x82238672),
        ("MWSA-G", 0x14aa3f41),
        ("SE-MWST", 0x26e3506d),
        ("SE-MWSA", 0x03dbd717),
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

/// Each family's envelope tag (offset 6) is its `IUSL` manifest tag and
/// its place in `IndexFamily::all()`: one numbering for both formats.
#[test]
fn every_family_tag_is_its_manifest_tag_and_its_place_in_the_family_list() {
    let families = &cases()[0].families;
    assert_eq!(families.len(), IndexFamily::all().len());
    for (place, (family, (label, built, raw))) in
        IndexFamily::all().into_iter().zip(families).enumerate()
    {
        assert_eq!(built.family(), family, "{label}");
        let params = IndexParams::new(4.0, 8, 4).expect("params");
        let mut spec = Vec::new();
        write_spec(&mut spec, &IndexSpec::new(family, params));
        assert_eq!(usize::from(raw[6]), place, "{label}: envelope tag");
        assert_eq!(raw[6], spec[0], "{label}: manifest tag");
        assert_eq!(open_single(raw).family(), family, "{label}");
    }
}

/// Asserts that `bytes` is refused with a typed `InvalidData` error whose
/// message contains `needle`, through every entry point.
fn assert_refused_typed(bytes: &[u8], needle: &str) {
    let arena = Arena::from_bytes(bytes);
    for err in [
        open_index(&arena).expect_err("open must fail"),
        open_index_at(&arena, 0).expect_err("embedded open must fail"),
        load_index(&mut &bytes[..]).expect_err("load must fail"),
    ] {
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{needle}: {err}");
        assert!(err.to_string().contains(needle), "{needle}: {err}");
    }
}

/// A v9 envelope whose family tag no family has is refused with a typed
/// `InvalidData` error naming the tag, through every entry point, even
/// when its checksum is intact.
#[test]
fn unknown_family_tags_are_refused_typed() {
    let (_, _, raw) = &cases()[0].families[0];
    assert_eq!(IndexFamily::all().len(), 9, "tags 0 to 8 name a family");
    for tag in [11u8, 128, 255] {
        let mut bytes = raw.clone();
        bytes[6] = tag;
        reseal(&mut bytes);
        assert_refused_typed(&bytes, &format!("unknown index-family tag {tag}"));
    }
}

/// A file of the removed sharded-index format — a version-7 envelope with
/// family tag 4 — is refused with a typed `InvalidData` error naming its
/// version, through every entry point, even when its checksum is intact.
/// (Since version 8, tag 4 is MWSA's.)
#[test]
fn removed_sharded_format_is_refused_typed() {
    let (_, _, raw) = &cases()[0].families[0];
    let mut sharded = raw.clone();
    sharded[4..6].copy_from_slice(&7u16.to_le_bytes());
    sharded[6] = 4;
    reseal(&mut sharded);
    assert_refused_typed(&sharded, "version 7");
}

/// Since version 8 there is no construction byte: the space-efficient grid
/// variants, which no construction builds, have no family tag. A v9 envelope with
/// tag 9 or 10 — the `IUSL` tags that once named them — is refused with a
/// typed `InvalidData` error naming the tag, through every entry point,
/// even when its checksum is intact; the SE-MWST and SE-MWSA files open as
/// their family.
#[test]
fn space_efficient_grid_files_are_refused_typed() {
    for (label, built, raw) in &cases()[0].families {
        if label.starts_with("SE-") {
            assert_eq!(open_single(raw).family(), built.family(), "{label}");
        }
    }
    let (_, _, raw) = &cases()[0].families[0];
    for tag in [9u8, 10] {
        let mut bytes = raw.clone();
        bytes[6] = tag;
        reseal(&mut bytes);
        assert_refused_typed(&bytes, &format!("unknown index-family tag {tag}"));
    }
}

/// Recomputes the CRC32 trailer of an edited file, so only the edit can
/// make the open fail.
fn reseal(bytes: &mut [u8]) {
    let end = bytes.len() - 4;
    let crc = crc32(&bytes[..end]);
    bytes[end..].copy_from_slice(&crc.to_le_bytes());
}

/// Walks a raw v9 file's sections: `(element count, data offset)` of the
/// section at `*pos`, advancing `*pos` past it.
fn raw_section(bytes: &[u8], pos: &mut usize, elem_size: usize) -> (usize, usize) {
    let count = u64::from_le_bytes(bytes[*pos..*pos + 8].try_into().unwrap()) as usize;
    assert_eq!(bytes[*pos + 8], 0, "raw section expected");
    let data = (*pos + 9).next_multiple_of(8);
    *pos = data + count * elem_size;
    (count, data)
}

/// A narrow table at `*pos` — its width byte, then a section of that width:
/// `(width, element count, data offset)`, advancing `*pos` past it.
fn narrow_section(bytes: &[u8], pos: &mut usize) -> (usize, usize, usize) {
    let width = usize::from(bytes[*pos]);
    assert!([1, 2, 4].contains(&width), "width byte {width}");
    *pos += 1;
    let (count, data) = raw_section(bytes, pos, width);
    (width, count, data)
}

/// The `index`-th entry of a table `width` bytes wide whose data starts at
/// `data`.
fn entry_at(bytes: &[u8], data: usize, width: usize, index: usize) -> u32 {
    let at = data + width * index;
    let mut le = [0u8; 4];
    le[..width].copy_from_slice(&bytes[at..at + width]);
    u32::from_le_bytes(le)
}

fn u32_at(bytes: &[u8], offset: usize) -> u32 {
    entry_at(bytes, offset, 4, 0)
}

/// Skips a factor set of a minimizer file at `*pos`, with its log-ratio
/// section when the variant has a `grid`: returns its leaf count and the
/// offset of its key-directory section.
fn skip_factor_set(raw: &[u8], pos: &mut usize, grid: bool) -> (usize, usize) {
    let (leaves, _) = raw_section(raw, pos, 4); // anchor_x
    for _ in 0..3 {
        narrow_section(raw, pos); // lens · mism_start · mism_depths
    }
    raw_section(raw, pos, 1); // mism_letters
    if grid {
        raw_section(raw, pos, 8); // mism_log_ratios
    }
    let key_dir_at = *pos;
    raw_section(raw, pos, 8); // key directory
    (leaves, key_dir_at)
}

/// The offsets of both factor sets' key-directory sections in a saved
/// minimizer file of `variant`.
fn key_dir_sections(raw: &[u8], variant: IndexVariant) -> [usize; 2] {
    // Header (15) · params (33) · n, σ (16).
    let mut pos = 64;
    raw_section(raw, &mut pos, 1); // heavy letters
    if variant.has_grid() {
        raw_section(raw, &mut pos, 8); // log-prefix
    }
    [(); 2].map(|()| skip_factor_set(raw, &mut pos, variant.has_grid()).1)
}

/// `letters`' first eight packed as a leaf key: big-endian, each letter as
/// its rank + 1, the end of a shorter factor as 0.
fn leaf_key(letters: &[u8]) -> u64 {
    let mut key = [0u8; 8];
    for (slot, &c) in key.iter_mut().zip(letters) {
        *slot = c + 1;
    }
    u64::from_be_bytes(key)
}

/// The tree variants (MWST, MWST-G, SE-MWST) save an empty key directory
/// per set — only the array lookup reads it — and the array variants
/// (MWSA, MWSA-G, SE-MWSA) `⌈leaves / 16⌉` keys, the `j`-th equal to the
/// key of leaf `16j` recomputed from its letters, on every preset.
#[test]
fn only_the_array_variants_save_prefix_keys() {
    assert_eq!(KEY_STRIDE, 16);
    let mut keys = 0;
    for case in cases() {
        for (label, built, raw) in &case.families {
            let AnyIndex::Minimizer(index) = built else {
                continue;
            };
            let variant = index.variant();
            let at = key_dir_sections(raw, variant);
            for (set, mut pos) in index.factor_sets().into_iter().zip(at) {
                let (stored, data) = raw_section(raw, &mut pos, 8);
                let expected: Vec<u64> = if variant.has_tree() {
                    Vec::new()
                } else {
                    (0..set.len())
                        .step_by(16)
                        .map(|leaf| leaf_key(&set.materialize(leaf)))
                        .collect()
                };
                let got: Vec<u64> = (0..stored)
                    .map(|j| {
                        u64::from_le_bytes(raw[data + 8 * j..data + 8 * j + 8].try_into().unwrap())
                    })
                    .collect();
                assert_eq!(got, expected, "{}/{label}: key directory", case.label);
                keys += stored;
            }
        }
    }
    assert!(keys > 0, "no array variant stored a key directory");
}

/// A saved file whose CRC is intact but whose forward key directory is
/// forged — MWSA keys out of order, one MWSA key too many, or one key
/// in an MWST set, which stores none — is refused `InvalidData` naming the
/// fault, through every entry point.
#[test]
fn forged_key_directories_are_refused_at_open() {
    let file = |family: &str| {
        cases()
            .iter()
            .find_map(|case| {
                let (_, built, raw) = case.families.iter().find(|(l, ..)| l == family)?;
                let AnyIndex::Minimizer(index) = built else {
                    return None;
                };
                let mut pos = key_dir_sections(raw, index.variant())[0];
                let count_at = pos;
                let (keys, data) = raw_section(raw, &mut pos, 8);
                (keys >= 2 || index.variant().has_tree())
                    .then(|| (raw.clone(), count_at, keys, data))
            })
            .expect("a preset has a forward directory of two keys")
    };
    let key = |raw: &[u8], j: usize, data: usize| -> [u8; 8] {
        raw[data + 8 * j..data + 8 * j + 8].try_into().unwrap()
    };
    // Inserts one key (a copy of the last, or 0) at the directory's end:
    // the count, the envelope length (offset 7) and the trailer follow.
    let one_more = |(mut raw, count_at, keys, data): (Vec<u8>, usize, usize, usize)| {
        let extra = if keys == 0 {
            [0; 8]
        } else {
            key(&raw, keys - 1, data)
        };
        raw.splice(data + 8 * keys..data + 8 * keys, extra);
        raw[count_at..count_at + 8].copy_from_slice(&(keys as u64 + 1).to_le_bytes());
        let envelope = u64::from_le_bytes(raw[7..15].try_into().unwrap()) + 8;
        raw[7..15].copy_from_slice(&envelope.to_le_bytes());
        raw
    };
    // No real key is all ones, so a first key of all ones is out of order.
    let (mut swapped, _, _, data) = file("MWSA");
    swapped[data..data + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let corruptions = [
        (swapped, "key directory decreases"),
        (one_more(file("MWSA")), "key directory holds"),
        (one_more(file("MWST")), "key directory holds 1 key(s), but"),
    ];
    for (mut bytes, expected) in corruptions {
        reseal(&mut bytes);
        assert_refused_typed(&bytes, expected);
    }
}

/// A saved MWST file whose CRC is intact but whose forward trie's first
/// child entry points the root back at itself — a descent through it
/// would never return — is refused `InvalidData` at open, through every
/// entry point.
#[test]
fn a_trie_edge_back_to_the_root_is_refused_at_open() {
    let (_, _, raw) = cases()[0]
        .families
        .iter()
        .find(|(label, ..)| label == "MWST")
        .expect("MWST is built");
    // Header (15) · params (33) · n, σ (16).
    let mut pos = 64;
    raw_section(raw, &mut pos, 1); // heavy letters
    for _ in 0..2 {
        skip_factor_set(raw, &mut pos, false);
    }
    for elem_size in [4, 4, 4, 4, 1] {
        // depth · leaf_lo · leaf_hi · children_start · child_letters
        raw_section(raw, &mut pos, elem_size);
    }
    let (children, child_nodes_at) = raw_section(raw, &mut pos, 4);
    assert!(children > 0);
    assert_ne!(u32_at(raw, child_nodes_at), 0, "the root is nobody's child");
    let mut bytes = raw.clone();
    bytes[child_nodes_at..child_nodes_at + 4].copy_from_slice(&0u32.to_le_bytes());
    reseal(&mut bytes);
    let arena = Arena::from_bytes(&bytes);
    for err in [
        open_index(&arena).expect_err("open must fail"),
        open_index_at(&arena, 0).expect_err("embedded open must fail"),
        load_index(&mut bytes.as_slice()).expect_err("load must fail"),
    ] {
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        assert!(
            err.to_string().contains("is not deeper than its parent"),
            "{err}"
        );
    }
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
        // Header (15) · params (33) · n, σ (16).
        let mut pos = 64;
        raw_section(raw, &mut pos, 1); // heavy letters
        raw_section(raw, &mut pos, 8); // log-prefix (grid variants)
        for _ in 0..2 {
            raw_section(raw, &mut pos, 4); // anchor_x
            narrow_section(raw, &mut pos); // lens
            let (start_width, starts, start_at) = narrow_section(raw, &mut pos);
            let (width, _, depths_at) = narrow_section(raw, &mut pos);
            let start = |leaf| entry_at(raw, start_at, start_width, leaf) as usize;
            if let Some(leaf) = (0..starts - 1).find(|&leaf| start(leaf + 1) - start(leaf) >= 2) {
                let a = depths_at + width * start(leaf);
                let b = a + width;
                let mut bytes = raw.clone();
                let depth_a = bytes[a..b].to_vec();
                bytes.copy_within(b..b + width, a);
                bytes[b..b + width].copy_from_slice(&depth_a);
                reseal(&mut bytes);
                corrupted = Some((case.label.clone(), bytes));
                break 'search;
            }
            raw_section(raw, &mut pos, 1); // mism_letters
            raw_section(raw, &mut pos, 8); // mism_log_ratios (grid variants)
            raw_section(raw, &mut pos, 8); // key directory
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
    // Header (15) · params (33) · n, σ (16).
    let mut pos = 64;
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
    // Header (15) · params (33) · n, σ (16).
    let mut pos = 64;
    raw_section(raw, &mut pos, 1); // heavy letters
    raw_section(raw, &mut pos, 8); // log-prefix (grid variants)
    for _ in 0..2 {
        skip_factor_set(raw, &mut pos, true);
    }
    // No tries in MWSA-G: the grid follows, opening with N.
    let n = u64::from_le_bytes(raw[pos..pos + 8].try_into().unwrap()) as usize;
    pos += 8;
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

/// A saved MWSA-G file whose CRC is intact but whose forward `lens` table
/// has a width byte other than 1, 2 or 4 (0, 3 or 8), or a section too
/// short for its element count, is refused `InvalidData` naming the fault,
/// through every entry point.
#[test]
fn malformed_width_bytes_are_refused_at_open() {
    let (_, _, raw) = cases()[0]
        .families
        .iter()
        .find(|(label, ..)| label == "MWSA-G")
        .expect("MWSA-G is built");
    // Header (15) · params (33) · n, σ (16).
    let mut pos = 64;
    raw_section(raw, &mut pos, 1); // heavy letters
    raw_section(raw, &mut pos, 8); // log-prefix (grid variants)
    raw_section(raw, &mut pos, 4); // forward anchor_x
    let lens_at = pos;
    let (width, _, _) = narrow_section(raw, &mut pos);
    let mut corruptions: Vec<(String, Vec<u8>, String)> = [0u8, 3, 8]
        .into_iter()
        .map(|bad| {
            let mut bytes = raw.clone();
            bytes[lens_at] = bad;
            let expected = format!("factor-length table width {bad}");
            (format!("width {bad}"), bytes, expected)
        })
        .collect();
    // One element more than the rest of the payload holds.
    let count = (raw.len() - lens_at) / width + 1;
    let mut short = raw.clone();
    short[lens_at + 1..lens_at + 9].copy_from_slice(&(count as u64).to_le_bytes());
    corruptions.push((
        "short section".into(),
        short,
        "section escapes the envelope".into(),
    ));
    for (what, mut bytes, expected) in corruptions {
        reseal(&mut bytes);
        let arena = Arena::from_bytes(&bytes);
        for err in [
            open_index(&arena).expect_err("open must fail"),
            open_index_at(&arena, 0).expect_err("embedded open must fail"),
            load_index(&mut bytes.as_slice()).expect_err("load must fail"),
        ] {
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}: {err}");
            assert!(err.to_string().contains(&expected), "{what}: {err}");
        }
    }
}

fn is_typed(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::InvalidData | ErrorKind::UnexpectedEof)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The arena path validates the envelope CRC at open, so **any** bit
    /// flip in a v8 file is rejected typed before a view is handed out.
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

    /// Truncating a v8 file anywhere must fail typed at open.
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
