//! Corruption properties of the persistence layer: a saved index file with
//! one flipped byte, or truncated at an arbitrary offset, must **never
//! panic** the loader — truncation must always fail with an
//! `InvalidData`/`UnexpectedEof`-style error, and a byte flip must either
//! fail the same way or (when the flip lands in payload data that is
//! structurally valid either way, e.g. a probability byte) produce an index
//! that still answers queries without panicking.
//!
//! A plain flip almost always stops at the CRC32 trailer, so a seeded
//! sweep also mutates each file behind its header, **re-seals** the CRC
//! and opens the result: the validators behind the checksum must refuse it
//! typed, or the index must answer queries.
//!
//! Runs across **all** families.

use ius_faultio::mutate::{mutations, reseal, sweep};
use ius_index::{load_index, IndexFamily, IndexParams, IndexSpec, UncertainIndex};
use ius_weighted::WeightedString;
use proptest::prelude::*;
use std::io::ErrorKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// `(label, serialized bytes)` for every family over one fixed corpus,
/// built once for the whole test binary.
fn family_files() -> &'static Vec<(String, Vec<u8>)> {
    static FILES: OnceLock<Vec<(String, Vec<u8>)>> = OnceLock::new();
    FILES.get_or_init(|| {
        let x = corpus();
        let params = IndexParams::new(6.0, 8, x.sigma()).expect("params");
        let mut files = Vec::new();
        for family in IndexFamily::all() {
            let spec = IndexSpec::new(family, params);
            let index = spec.build(&x).expect("build");
            let mut bytes = Vec::new();
            index.save_to(&mut bytes).expect("save");
            files.push((family.name().to_string(), bytes));
        }
        files
    })
}

fn corpus() -> WeightedString {
    ius_datasets::uniform::UniformConfig {
        n: 180,
        sigma: 3,
        spread: 0.35,
        seed: 0xC0BB,
    }
    .generate()
}

/// Patterns every loaded index is queried with: two that rarely occur and
/// two windows of the corpus's most likely letters, which do.
fn probe_patterns(x: &WeightedString) -> Vec<Vec<u8>> {
    let heavy = |start: usize, len: usize| -> Vec<u8> {
        (start..start + len)
            .map(|p| {
                x.letters_at(p)
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("a row has a letter")
                    .0
            })
            .collect()
    };
    vec![vec![0u8; 8], vec![1u8; 12], heavy(10, 8), heavy(100, 16)]
}

/// The error kinds a corrupted file may legally fail with.
fn is_typed_load_error(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::InvalidData | ErrorKind::UnexpectedEof)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Flipping one byte anywhere in the file must never panic: either the
    /// load fails with a typed error, or — when the flip lands in payload
    /// bytes that stay structurally valid — the loaded index still answers
    /// queries without panicking.
    #[test]
    fn one_flipped_byte_never_panics(
        pick in 0..IndexFamily::all().len(),
        offset_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let (label, bytes) = &family_files()[pick];
        let mut corrupted = bytes.clone();
        let offset = ((corrupted.len() as f64 - 1.0) * offset_frac) as usize;
        corrupted[offset] ^= flip; // flip != 0 guarantees a real change
        match load_index(&mut corrupted.as_slice()) {
            Err(err) => prop_assert!(
                is_typed_load_error(err.kind()),
                "{label}: flip at {offset} failed with untyped kind {:?}: {err}",
                err.kind()
            ),
            Ok(loaded) => {
                // The flip survived validation (payload data, both values
                // structurally valid). The index must still be servable:
                // queries return — right or wrong — without panicking.
                let x = corpus();
                for pattern in [vec![0u8; 8], vec![1u8; 12]] {
                    let _ = loaded.query(&pattern, &x);
                }
            }
        }
    }

    /// Truncating the file at any offset strictly inside it must always
    /// fail with a typed error — the format has no trailing slack, so a
    /// shortened file is always missing required bytes.
    #[test]
    fn truncation_always_fails_with_a_typed_error(
        pick in 0..IndexFamily::all().len(),
        cut_frac in 0.0f64..1.0,
    ) {
        let (label, bytes) = &family_files()[pick];
        let cut = ((bytes.len() as f64 - 1.0) * cut_frac) as usize;
        let truncated = &bytes[..cut];
        match load_index(&mut &truncated[..]) {
            Err(err) => prop_assert!(
                is_typed_load_error(err.kind()),
                "{label}: truncation at {cut} failed with untyped kind {:?}: {err}",
                err.kind()
            ),
            Ok(_) => prop_assert!(
                false,
                "{label}: truncation at {cut}/{} loaded successfully",
                bytes.len()
            ),
        }
    }
}

/// Deterministic spot checks of the most security-relevant offsets: the
/// magic, the version, the family tag and the first length prefix.
#[test]
fn header_corruptions_fail_with_informative_messages() {
    let (_, bytes) = &family_files()[0];
    // Magic.
    let mut corrupted = bytes.clone();
    corrupted[0] = b'X';
    let err = load_index(&mut corrupted.as_slice()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("magic"), "{err}");
    // Version.
    let mut corrupted = bytes.clone();
    corrupted[4] = 0xFF;
    let err = load_index(&mut corrupted.as_slice()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("version"), "{err}");
    // Family tag.
    let mut corrupted = bytes.clone();
    corrupted[6] = 99;
    let err = load_index(&mut corrupted.as_slice()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("tag"), "{err}");
    // Empty file.
    let err = load_index(&mut [].as_slice()).unwrap_err();
    assert!(is_typed_load_error(err.kind()));
}

/// Bytes of the IUSX envelope header: magic (4) · version (u16) · family
/// tag (u8) · envelope length (u64).
const IUSX_HEADER_LEN: usize = 15;

/// The re-sealed sweep: 1,000 seeded mutations per family behind the header
/// (byte flips and aligned `u32`/`u64` overwrites with boundary values),
/// each with its CRC32 trailer re-sealed. Every case must load and answer
/// — as a server would serve it, so a minimizer file recording another
/// corpus length is refused the way `ServedIndex::load` refuses it — or
/// fail with a typed error; none may panic or hang. No refusal may be a
/// checksum mismatch: each case reaches the validators behind the CRC.
#[test]
fn resealed_mutations_open_typed_or_answer() {
    let x = corpus();
    let patterns = probe_patterns(&x);
    let mut cases = Vec::new();
    for (f, (label, bytes)) in family_files().iter().enumerate() {
        let body = IUSX_HEADER_LEN..bytes.len() - 4;
        for mutation in mutations(body, CASES_PER_FAMILY, 0x1055_0000 + f as u64) {
            cases.push(Case {
                label,
                bytes,
                mutation,
            });
        }
    }
    let total = cases.len();
    let answered = Arc::new(AtomicUsize::new(0));
    let answers = answered.clone();
    let failures = sweep("IUSX", cases, Duration::from_secs(120), move |case| {
        let mut corrupted = case.bytes.clone();
        case.mutation.apply(&mut corrupted);
        let trailer = corrupted.len() - 4;
        reseal(&mut corrupted, 0..trailer);
        match load_index(&mut corrupted.as_slice()) {
            Err(err) if err.to_string().contains("checksum mismatch") => {
                Err(format!("not re-sealed: {err}"))
            }
            Err(err) if is_typed_load_error(err.kind()) => Ok(()),
            Err(err) => Err(format!("untyped kind {:?}: {err}", err.kind())),
            Ok(index) if index.corpus_len_hint().is_some_and(|n| n != x.len()) => Ok(()),
            Ok(index) => {
                for pattern in &patterns {
                    let _ = index.query(pattern, &x);
                }
                answers.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }
    });
    assert_eq!(total, IndexFamily::all().len() * CASES_PER_FAMILY);
    assert!(
        failures.is_empty(),
        "{} of {total} re-sealed mutations failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
    // Payload bytes that stay structurally valid (a probability, a z) open
    // and answer; the rest is refused by the validators.
    let answered = answered.load(Ordering::Relaxed);
    assert!(
        answered > total / 20 && answered < total,
        "{answered} of {total} mutated files answered"
    );
}

/// Seeded mutations per family in the re-sealed sweep.
const CASES_PER_FAMILY: usize = 1_000;

/// One case of the re-sealed sweep: a family's file and its mutation.
struct Case {
    label: &'static str,
    bytes: &'static Vec<u8>,
    mutation: ius_faultio::mutate::Mutation,
}

impl std::fmt::Display for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.label, self.mutation)
    }
}
