//! Corruption properties of the persistence layer: a saved index file with
//! one flipped byte, or truncated at an arbitrary offset, must **never
//! panic** the loader — truncation must always fail with an
//! `InvalidData`/`UnexpectedEof`-style error, and a byte flip must either
//! fail the same way or (when the flip lands in payload data that is
//! structurally valid either way, e.g. a probability byte) produce an index
//! that still answers queries without panicking.
//!
//! Runs across **all** families.

use ius_index::{load_index, IndexFamily, IndexParams, IndexSpec, UncertainIndex};
use ius_weighted::WeightedString;
use proptest::prelude::*;
use std::io::ErrorKind;
use std::sync::OnceLock;

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
