//! Byte-layout pins of the `IUSW` wire protocol: one encoded frame per
//! request op and per response status, each pinned by the CRC32 of the
//! whole frame (length prefix included) beside the wire version it was
//! written under. The round-trip tests in `protocol.rs` cannot see a
//! change that moves the encoder and the decoder together; these can. A
//! layout change that keeps `WIRE_VERSION` fails here: bump the version
//! when the layout moved, then re-pin.

use ius_faultio::crc32;
use ius_obs::trace::Span;
use ius_obs::HistogramSnapshot;
use ius_server::protocol::{encode_matches_from_slice, encode_request, encode_response};
use ius_server::{
    ErrorCode, LiveSnapshot, Request, Response, ResultMode, Scrape, SlowQueryEntry, TraceDump,
    TraceRecordSnapshot, Value, WireStats, SLOW_QUERY_PREFIX_LEN, WIRE_VERSION,
};

const PINNED_VERSION: u16 = 4;

/// One request per op byte (every result mode of QUERY).
fn requests() -> Vec<(&'static str, Request)> {
    vec![
        ("PING", Request::Ping),
        (
            "QUERY collect",
            Request::Query {
                mode: ResultMode::Collect,
                pattern: vec![0, 1, 2, 1, 0, 3],
            },
        ),
        (
            "QUERY count",
            Request::Query {
                mode: ResultMode::Count,
                pattern: vec![2, 2, 1],
            },
        ),
        (
            "QUERY first-k",
            Request::Query {
                mode: ResultMode::FirstK(17),
                pattern: vec![1, 0, 1, 0, 1, 0, 1, 0],
            },
        ),
        ("STATS", Request::Stats),
        (
            "RELOAD",
            Request::Reload {
                path: Some("indexes/corpus.iusx".into()),
            },
        ),
        ("SHUTDOWN", Request::Shutdown),
        (
            "APPEND",
            Request::Append {
                sigma: 2,
                probs: vec![0.25, 0.75, 1.0, 0.0, 0.5, 0.5],
            },
        ),
        (
            "DELETE_RANGE",
            Request::DeleteRange {
                start: 40,
                end: 1 << 33,
            },
        ),
        ("FLUSH", Request::Flush),
        ("COMPACT", Request::Compact { full: true }),
        ("TRACE_DUMP", Request::TraceDump),
    ]
}

fn stats() -> WireStats {
    WireStats {
        candidates: 12,
        verified: 9,
        reported: 4,
        grid_nodes: 3,
    }
}

/// One response per status byte.
fn responses() -> Vec<(&'static str, Response)> {
    let mut scrape = Scrape::new();
    scrape.push("requests", Value::Counter(1_234));
    scrape.push("live_segments", Value::Gauge(5));
    scrape.push(
        "query_scan_ns",
        Value::Histogram(HistogramSnapshot {
            count: 3,
            sum: 60,
            min: 10,
            max: 30,
            buckets: vec![(10, 1), (20, 1), (30, 1)],
        }),
    );
    scrape.push("index_name", Value::Info("MWSA-G".into()));
    let mut prefix = [0u8; SLOW_QUERY_PREFIX_LEN];
    prefix[..5].copy_from_slice(&[3, 1, 4, 1, 5]);
    let dump = TraceDump {
        traces: vec![TraceRecordSnapshot {
            trace_id: 42,
            op: 1,
            error: 3,
            started_ns: 1_000_000,
            total_ns: 90_000,
            truncated: true,
            pinned: true,
            spans: vec![
                Span {
                    code: ius_obs::trace::STAGE_QUERY,
                    depth: 0,
                    start_ns: 600,
                    dur_ns: 40_000,
                    a: 0,
                    b: 7,
                },
                Span {
                    code: ius_obs::trace::STAGE_VERIFY,
                    depth: 1,
                    start_ns: 0,
                    dur_ns: 20_000,
                    a: 11,
                    b: 0,
                },
            ],
        }],
        slow_queries: vec![SlowQueryEntry {
            ts_ns: 2_000,
            duration_ns: 51_000_000,
            pattern_len: 5,
            reported: 2,
            prefix_len: 5,
            prefix,
        }],
    };
    vec![
        ("PONG", Response::Pong),
        (
            "MATCHES",
            Response::Matches {
                stats: stats(),
                positions: vec![1, 5, 900, 1 << 40],
            },
        ),
        (
            "COUNT",
            Response::Count {
                stats: stats(),
                count: 42,
            },
        ),
        ("STATS", Response::Stats(scrape)),
        ("RELOADED", Response::Reloaded { generation: 3 }),
        ("SHUTTING_DOWN", Response::ShuttingDown),
        (
            "LIVE",
            Response::Live(LiveSnapshot {
                corpus_len: 123_456,
                segments: 7,
                memtable_rows: 300,
                tombstones: 2,
                changed: 512,
            }),
        ),
        ("TRACE_DUMP", Response::TraceDump(dump)),
        (
            "ERROR",
            Response::Error {
                code: ErrorCode::Live,
                message: "alphabet mismatch".into(),
            },
        ),
    ]
}

#[test]
fn every_request_frame_layout_is_pinned() {
    const PINNED: [(&str, u32); 12] = [
        ("PING", 0xb566ee74),
        ("QUERY collect", 0xfc490340),
        ("QUERY count", 0xfc6b9348),
        ("QUERY first-k", 0x19d8a12f),
        ("STATS", 0x0684de54),
        ("RELOAD", 0x8091ac9a),
        ("SHUTDOWN", 0xc11153e7),
        ("APPEND", 0x66346ff6),
        ("DELETE_RANGE", 0x9af2cd71),
        ("FLUSH", 0x2b618ffd),
        ("COMPACT", 0x96d44cfd),
        ("TRACE_DUMP", 0x7b26dbc6),
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
        ("PONG", 0x220ccfe0),
        ("MATCHES", 0xcbf0b850),
        ("COUNT", 0xe124351a),
        ("STATS", 0xf93ab249),
        ("RELOADED", 0x2cf9a58a),
        ("SHUTTING_DOWN", 0x18f17e20),
        ("LIVE", 0xdbbc8fa1),
        ("TRACE_DUMP", 0x6d09509b),
        ("ERROR", 0x92d4922d),
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
