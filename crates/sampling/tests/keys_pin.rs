//! Pins the lexicographic k-mer keys: a checksum of `KmerKeyer::keys` over
//! one seeded 2,000-letter text per alphabet, for every k whose packed key
//! fits in 63 bits. Any change to how such a key is packed moves a checksum.

use ius_sampling::order::KmerKeyer;
use ius_sampling::KmerOrder;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// FNV-1a over every key of every k from 1 up to the fit limit.
fn checksum(sigma: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(sigma as u64);
    let text: Vec<u8> = (0..2_000).map(|_| rng.gen_range(0..sigma) as u8).collect();
    let fits = |k: usize| (k as f64) * (sigma as f64).log2() <= 63.0;
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for k in (1..).take_while(|&k| fits(k)) {
        for key in KmerKeyer::new(KmerOrder::Lexicographic, k, sigma).keys(&text) {
            for byte in key.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    h
}

#[test]
fn lexicographic_keys_are_pinned() {
    assert_eq!(checksum(2), 0xF382_DBA7_A68E_26A8);
    assert_eq!(checksum(4), 0xD0B7_9509_EE9B_BE4E);
    assert_eq!(checksum(91), 0xF155_AD62_D2EE_F2D6);
    assert_eq!(checksum(255), 0x34B6_943A_525B_6054);
}
