//! Byte-layout pins of the `IUSW` wire protocol: one encoded frame per
//! request op and per response status, each pinned by the CRC32 of the
//! whole frame (length prefix included) beside the wire version it was
//! written under. The round-trip tests in `protocol.rs` cannot see a
//! change that moves the encoder and the decoder together; these can. A
//! layout change that keeps `WIRE_VERSION` fails here: bump the version
//! when the layout moved, then re-pin.

mod frames;

use frames::{requests, responses, stats};
use ius_faultio::crc32;
use ius_server::protocol::{encode_matches_from_slice, encode_request, encode_response};
use ius_server::WIRE_VERSION;

const PINNED_VERSION: u16 = 5;

#[test]
fn every_request_frame_layout_is_pinned() {
    const PINNED: [(&str, u32); 12] = [
        ("PING", 0x74e831b4),
        ("QUERY collect", 0xeb616780),
        ("QUERY count", 0x2b891310),
        ("QUERY first-k", 0xe802a485),
        ("STATS", 0xc70a0194),
        ("RELOAD", 0xa413fdac),
        ("SHUTDOWN", 0x009f8c27),
        ("APPEND", 0x9a6aa86b),
        ("DELETE_RANGE", 0xf47ed630),
        ("FLUSH", 0xeaef503d),
        ("COMPACT", 0x0d710092),
        ("TRACE_DUMP", 0xbaa80406),
    ];
    let mut frame = Vec::new();
    let got: Vec<(&str, u32)> = requests()
        .iter()
        .enumerate()
        .map(|(i, (label, request))| {
            encode_request(0x0102_0304_0506_0708 + i as u64, request, &mut frame);
            (*label, crc32(&frame))
        })
        .collect();
    assert_eq!(
        WIRE_VERSION, PINNED_VERSION,
        "WIRE_VERSION moved: re-pin the checksums below it"
    );
    assert_eq!(
        got, PINNED,
        "request frames written under wire version {WIRE_VERSION} changed: bump WIRE_VERSION \
         if the layout changed, then re-pin (got {got:#010x?})"
    );
}

#[test]
fn every_response_frame_layout_is_pinned() {
    const PINNED: [(&str, u32); 9] = [
        ("PONG", 0xe3821020),
        ("MATCHES", 0xcd8f6cae),
        ("COUNT", 0x2b1ac689),
        ("STATS", 0xecba84b0),
        ("RELOADED", 0xfb1b25d2),
        ("SHUTTING_DOWN", 0xd97fa1e0),
        ("LIVE", 0x11827c32),
        ("TRACE_DUMP", 0xdec2aa0b),
        ("ERROR", 0xa42602de),
    ];
    let mut frame = Vec::new();
    let got: Vec<(&str, u32)> = responses()
        .iter()
        .enumerate()
        .map(|(i, (label, response))| {
            encode_response(0x1122_3344_5566_7788 + i as u64, response, &mut frame);
            (*label, crc32(&frame))
        })
        .collect();
    assert_eq!(
        WIRE_VERSION, PINNED_VERSION,
        "WIRE_VERSION moved: re-pin the checksums below it"
    );
    assert_eq!(
        got, PINNED,
        "response frames written under wire version {WIRE_VERSION} changed: bump WIRE_VERSION \
         if the layout changed, then re-pin (got {got:#010x?})"
    );
    // The server's hot-path MATCHES encoder writes the pinned bytes too.
    let mut fast = Vec::new();
    encode_matches_from_slice(
        0x1122_3344_5566_7789,
        &stats(),
        &[1, 5, 900, 1 << 40],
        &mut fast,
    );
    assert_eq!(crc32(&fast), PINNED[1].1, "encode_matches_from_slice");
}
