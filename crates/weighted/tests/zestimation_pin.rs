//! Pins the z-estimation's output on the four bench presets.
//!
//! The contract tests check that an estimation is *a* valid z-estimation;
//! many letter assignments are. The indexes built from it, and so every
//! IUSX file and benchmark figure, depend on *which* one the construction
//! picks. This file fixes that choice: a 64-bit FNV-1a checksum over every
//! strand's letters and its `extent(i)` values (each read as a `u32`,
//! little-endian), per preset at n = 20,000. A change to how the strands
//! or their properties are stored must keep these values; a change to the
//! letter assignment itself must re-pin them and say why.
//!
//! The second test runs the brute-force contract on a short prefix of each
//! preset, where it is affordable.

use ius_datasets::corpora::{bench_corpus, BENCH_CORPUS_NAMES};
use ius_weighted::ZEstimation;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The checksum of an estimation: per strand, its letters, then its
/// `extent(i)` values as little-endian `u32`s.
fn checksum(est: &ZEstimation) -> u64 {
    let mut hash = Fnv::new();
    for strand in est.strands() {
        hash.write(strand.seq());
        for i in 0..strand.len() {
            hash.write(&(strand.extent(i) as u32).to_le_bytes());
        }
    }
    hash.0
}

/// Per preset: the checksum at n = 20,000 with the preset's own `z`.
const PINS: [(&str, u64); 4] = [
    ("uniform", 0x2189_dc0a_f519_1955),
    ("uniform_high_entropy", 0x9d4b_4e29_9793_2298),
    ("pangenome", 0xa60b_beb9_6fd9_7109),
    ("rssi", 0xde92_5eb3_9ffe_2a7c),
];

#[test]
fn estimation_output_is_pinned_on_the_bench_presets() {
    assert_eq!(PINS.map(|(name, _)| name), BENCH_CORPUS_NAMES);
    let mut mismatches = Vec::new();
    for (name, pinned) in PINS {
        let corpus = bench_corpus(name, 20_000, None).expect("a bench preset");
        let est = ZEstimation::build(&corpus.x, corpus.z).unwrap();
        let got = checksum(&est);
        if got != pinned {
            mismatches.push(format!("{name}: {got:#018x} (pinned {pinned:#018x})"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "estimation output moved: {mismatches:?}"
    );
}

#[test]
fn estimation_meets_its_contract_on_the_bench_presets() {
    for name in BENCH_CORPUS_NAMES {
        let corpus = bench_corpus(name, 2_000, None).expect("a bench preset");
        let est = ZEstimation::build(&corpus.x, corpus.z).unwrap();
        est.verify_contract(&corpus.x, 8)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
