//! A seeded mutation sweep over `IUSW` frames: every valid frame of
//! `frames` (one per request op and per response status, the v5
//! `TRACE_DUMP` holding a record from each flight-recorder ring) is
//! corrupted byte by byte and field by field, and the decoders must answer
//! every corrupted payload with a value or a typed `ProtocolError`, never
//! a panic. The wire has no CRC, so no mutation needs re-sealing.

mod frames;

use ius_server::protocol::{decode_request, decode_response, encode_request, encode_response};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Values written over 4- and 8-byte windows: the boundaries a count or
/// length field most often mishandles.
const OVERWRITES: [u64; 5] = [0, 1, (1 << 31) - 1, u32::MAX as u64, u64::MAX];

/// A splitmix64 stream, so the sweep is the same on every run.
struct SplitMix(u64);

impl SplitMix {
    fn next_byte(&mut self) -> u8 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as u8
    }
}

/// Every mutation of `payload`: at each offset, the byte inverted and
/// XORed with a seeded non-zero mask; at each offset a 4-byte window (and
/// an 8-byte one) fits, every value of [`OVERWRITES`] that fits the width.
fn mutations(payload: &[u8], rng: &mut SplitMix) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for at in 0..payload.len() {
        let mask = rng.next_byte() | 1;
        for flip in [0xFF, mask] {
            let mut bytes = payload.to_vec();
            bytes[at] ^= flip;
            out.push((format!("byte {at} ^ {flip:#04x}"), bytes));
        }
        for &value in &OVERWRITES {
            if value <= u32::MAX as u64 && at + 4 <= payload.len() {
                let mut bytes = payload.to_vec();
                bytes[at..at + 4].copy_from_slice(&(value as u32).to_le_bytes());
                out.push((format!("u32 at {at} = {value:#x}"), bytes));
            }
            if at + 8 <= payload.len() {
                let mut bytes = payload.to_vec();
                bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
                out.push((format!("u64 at {at} = {value:#x}"), bytes));
            }
        }
    }
    out
}

/// Runs `decode` over every mutation of `payload`, returning a line per
/// mutation that panicked.
fn sweep<T, E: std::fmt::Debug>(
    label: &str,
    payload: &[u8],
    rng: &mut SplitMix,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) -> (usize, Vec<String>) {
    let cases = mutations(payload, rng);
    let mut panics = Vec::new();
    for (what, bytes) in &cases {
        if catch_unwind(AssertUnwindSafe(|| drop(decode(bytes)))).is_err() {
            panics.push(format!("{label}: {what}"));
        }
    }
    (cases.len(), panics)
}

#[test]
fn mutated_frames_decode_or_fail_typed() {
    let mut rng = SplitMix(0x1055_5eed);
    let mut frame = Vec::new();
    let (mut total, mut panics) = (0, Vec::new());
    for (i, (label, request)) in frames::requests().iter().enumerate() {
        encode_request(i as u64, request, &mut frame);
        let (n, p) = sweep(label, &frame[4..], &mut rng, decode_request);
        total += n;
        panics.extend(p);
    }
    for (i, (label, response)) in frames::responses().iter().enumerate() {
        encode_response(i as u64, response, &mut frame);
        let (n, p) = sweep(label, &frame[4..], &mut rng, decode_response);
        total += n;
        panics.extend(p);
    }
    assert!(total > 10_000, "the sweep ran {total} mutations");
    assert!(
        panics.is_empty(),
        "{} of {total} mutations panicked a decoder:\n{}",
        panics.len(),
        panics.join("\n")
    );
}
