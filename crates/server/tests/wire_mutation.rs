//! A mutation sweep over `IUSW` frames: every valid frame of `frames` (one
//! per request op and per response status, the v5 `TRACE_DUMP` holding a
//! record from each flight-recorder ring) is corrupted at every offset by
//! `ius_faultio::mutate::every_offset` (each byte inverted and XORed with
//! a seeded mask, each `u32` and `u64` window overwritten with boundary
//! values), and the decoders must answer every corrupted payload with a
//! value or a typed `ProtocolError`, never a panic or a hang. The wire has
//! no CRC, so no mutation needs re-sealing.

mod frames;

use ius_faultio::mutate::{every_offset, sweep};
use ius_server::protocol::{decode_request, decode_response, encode_request, encode_response};
use std::time::Duration;

/// Runs `decode` over every mutation of `payload` under one watchdog,
/// returning the number of mutations and a line per mutation that
/// panicked.
fn sweep_frame<T: 'static, E: 'static>(
    label: &str,
    payload: &[u8],
    seed: u64,
    decode: fn(&[u8]) -> Result<T, E>,
) -> (usize, Vec<String>) {
    let cases = every_offset(0..payload.len(), seed);
    let count = cases.len();
    let payload = payload.to_vec();
    let panics = sweep(label, cases, Duration::from_secs(60), move |mutation| {
        let mut bytes = payload.clone();
        mutation.apply(&mut bytes);
        drop(decode(&bytes));
        Ok(())
    });
    (count, panics)
}

#[test]
fn mutated_frames_decode_or_fail_typed() {
    let mut frame = Vec::new();
    let (mut total, mut panics) = (0, Vec::new());
    for (i, (label, request)) in frames::requests().iter().enumerate() {
        encode_request(i as u64, request, &mut frame);
        let (n, p) = sweep_frame(label, &frame[4..], 0x1055_5eed + i as u64, decode_request);
        total += n;
        panics.extend(p);
    }
    for (i, (label, response)) in frames::responses().iter().enumerate() {
        encode_response(i as u64, response, &mut frame);
        let (n, p) = sweep_frame(label, &frame[4..], 0x1055_6eed + i as u64, decode_response);
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
