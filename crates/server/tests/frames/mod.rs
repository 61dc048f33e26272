//! One valid frame of every kind, shared by the wire tests that pin
//! (`wire_layout`) and mutate (`wire_mutation`) them: one request per op
//! byte (every result mode of QUERY) and one response per status byte.

use ius_obs::trace::Span;
use ius_obs::HistogramSnapshot;
use ius_server::{
    ErrorCode, FlightRing, LiveSnapshot, Request, RequestFacts, Response, ResultMode, Scrape,
    TraceRecordSnapshot, Value, WireStats, TRACE_NO_ERROR,
};

/// One request per op byte (every result mode of QUERY).
pub fn requests() -> Vec<(&'static str, Request)> {
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

pub fn stats() -> WireStats {
    WireStats {
        candidates: 12,
        verified: 9,
        reported: 4,
        grid_nodes: 3,
    }
}

/// One response per status byte.
pub fn responses() -> Vec<(&'static str, Response)> {
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
    // One record from each ring: a sampled QUERY failure with a truncated
    // span tree, an unsampled slow QUERY whose pattern outruns the
    // retained prefix, and a sampled STATS.
    let dump = vec![
        TraceRecordSnapshot {
            trace_id: 42,
            ring: FlightRing::Errors,
            truncated: true,
            facts: RequestFacts::new(1, 3, 1_000_000, 90_000).with_query(&[3, 1, 4], 0),
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
        },
        TraceRecordSnapshot {
            trace_id: 43,
            ring: FlightRing::Slow,
            truncated: false,
            facts: RequestFacts::new(1, TRACE_NO_ERROR, 2_000, 51_000_000)
                .with_query(&[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3], 2),
            spans: Vec::new(),
        },
        TraceRecordSnapshot {
            trace_id: 44,
            ring: FlightRing::Recent,
            truncated: false,
            facts: RequestFacts::new(2, TRACE_NO_ERROR, 3_000, 8_000),
            spans: vec![Span {
                code: ius_obs::trace::STAGE_RESPONSE_WRITE,
                depth: 0,
                start_ns: 7_000,
                dur_ns: 900,
                a: 311,
                b: 0,
            }],
        },
    ];
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
