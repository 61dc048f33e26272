//! Live-server wire-protocol tests: every malformed or hostile byte
//! sequence must be answered with a typed error frame (or a clean close) —
//! the server must never panic on untrusted input — and well-formed
//! traffic must round-trip exactly.

use ius_datasets::uniform::UniformConfig;
use ius_index::{IndexFamily, IndexParams, IndexSpec, IndexVariant, UncertainIndex};
use ius_server::protocol::{self, read_frame};
use ius_server::{
    Client, ClientError, ErrorCode, Request, Response, ResultMode, ServedIndex, Server,
    ServerConfig, MAX_RESPONSE_FRAME, WIRE_MAGIC, WIRE_VERSION,
};
use ius_weighted::WeightedString;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

fn test_corpus() -> WeightedString {
    UniformConfig {
        n: 400,
        sigma: 2,
        spread: 0.4,
        seed: 11,
    }
    .generate()
}

/// A small MWSA server over a binary corpus (`ℓ = 8`).
fn start_server(config: &ServerConfig) -> (Server, WeightedString, ius_index::AnyIndex) {
    let x = test_corpus();
    let params = IndexParams::new(4.0, 8, x.sigma()).expect("params");
    let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::Array), params);
    let index = spec.build(&x).expect("build");
    let served = ServedIndex::single(index.clone(), Arc::new(x.clone()));
    let server = Server::bind("127.0.0.1:0", served, None, config).expect("bind");
    (server, x, index)
}

/// Sends raw bytes and reads one response frame.
fn raw_round_trip(addr: std::net::SocketAddr, bytes: &[u8]) -> Option<(u64, Response)> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("send");
    let mut buf = Vec::new();
    match read_frame(&mut stream, MAX_RESPONSE_FRAME, &mut buf) {
        Ok(true) => Some(protocol::decode_response(&buf).expect("decode response")),
        Ok(false) => None,
        Err(e) => panic!("transport error instead of a typed response: {e}"),
    }
}

#[test]
fn well_formed_traffic_round_trips_and_matches_the_engine() {
    let (server, x, index) = start_server(&ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");

    // Compare every result mode against the in-process engine.
    let pattern = vec![0u8; 8];
    let expected = index.query(&pattern, &x).expect("in-process query");
    let outcome = client.query(&pattern).expect("collect");
    assert_eq!(outcome.positions, expected);
    assert_eq!(outcome.stats.reported, expected.len());
    let (count, stats) = client.query_count(&pattern).expect("count");
    assert_eq!(count as usize, expected.len());
    assert_eq!(stats.reported, expected.len());
    let k = 2u64;
    let first = client.query_first_k(&pattern, k).expect("first-k");
    assert_eq!(
        first.positions,
        expected[..expected.len().min(k as usize)].to_vec()
    );

    // Engine-level refusals come back as typed QUERY errors.
    let err = client.query(&[0u8; 3]).expect_err("short pattern");
    match err {
        ClientError::Server { code, message } => {
            assert_eq!(code, ErrorCode::Query);
            assert!(
                message.contains("shorter"),
                "unexpected message {message:?}"
            );
        }
        other => panic!("expected a typed server error, got {other:?}"),
    }

    // The connection is still usable after a query error.
    client.ping().expect("ping after error");
    let snapshot = client.stats().expect("stats");
    assert_eq!(snapshot.index_name, "MWSA");
    assert_eq!(snapshot.corpus_len, 400);
    assert_eq!(snapshot.generation, 0);
    assert!(snapshot.queries >= 3);
    assert_eq!(snapshot.query_errors, 1);
    server.shutdown();
}

#[test]
fn bad_magic_gets_a_typed_error_and_a_close() {
    let (server, _, _) = start_server(&ServerConfig::default());
    let mut frame = Vec::new();
    protocol::encode_request(5, &Request::Ping, &mut frame);
    frame[4] = b'Z'; // corrupt the magic
    let (id, response) = raw_round_trip(server.local_addr(), &frame).expect("typed answer");
    assert_eq!(id, 0, "header-level errors cannot echo an id");
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::Malformed,
            ..
        }
    ));
    server.shutdown();
}

#[test]
fn unknown_version_gets_a_typed_error() {
    let (server, _, _) = start_server(&ServerConfig::default());
    let mut frame = Vec::new();
    protocol::encode_request(5, &Request::Ping, &mut frame);
    frame[8] = WIRE_VERSION as u8 + 1; // bump the version low byte
    let (_, response) = raw_round_trip(server.local_addr(), &frame).expect("typed answer");
    match response {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::UnsupportedVersion);
            assert!(message.contains("version"));
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn unknown_op_keeps_the_connection_alive() {
    let (server, _, _) = start_server(&ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // Hand-build a frame with op 99: header only.
    let mut frame = Vec::new();
    protocol::encode_request(77, &Request::Ping, &mut frame);
    frame[18] = 99;
    stream.write_all(&frame).expect("send");
    let mut buf = Vec::new();
    assert!(read_frame(&mut stream, MAX_RESPONSE_FRAME, &mut buf).expect("read"));
    let (id, response) = protocol::decode_response(&buf).expect("decode");
    assert_eq!(id, 77, "body-level errors echo the request id");
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::UnknownOp,
            ..
        }
    ));
    // Framing stayed intact: a well-formed request on the same connection
    // still answers.
    let mut frame = Vec::new();
    protocol::encode_request(78, &Request::Ping, &mut frame);
    stream.write_all(&frame).expect("send");
    assert!(read_frame(&mut stream, MAX_RESPONSE_FRAME, &mut buf).expect("read"));
    let (id, response) = protocol::decode_response(&buf).expect("decode");
    assert_eq!(id, 78);
    assert_eq!(response, Response::Pong);
    server.shutdown();
}

#[test]
fn truncated_body_gets_a_typed_error_with_the_request_id() {
    let (server, _, _) = start_server(&ServerConfig::default());
    // A QUERY frame whose pattern length field announces more bytes than
    // the frame carries.
    let mut frame = Vec::new();
    protocol::encode_request(
        13,
        &Request::Query {
            mode: ResultMode::Collect,
            pattern: vec![1, 2, 3, 4],
        },
        &mut frame,
    );
    // Shrink the frame by two bytes but leave the announced pattern length:
    // the body decoder must hit Truncated.
    frame.truncate(frame.len() - 2);
    let new_len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&new_len.to_le_bytes());
    let (id, response) = raw_round_trip(server.local_addr(), &frame).expect("typed answer");
    assert_eq!(id, 13);
    match response {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Malformed);
            assert!(message.contains("truncated"), "{message:?}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn oversized_length_prefix_gets_a_typed_error_then_a_close() {
    let (server, _, _) = start_server(&ServerConfig::default());
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&WIRE_MAGIC);
    let (id, response) = raw_round_trip(server.local_addr(), &bytes).expect("typed answer");
    assert_eq!(id, 0);
    match response {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Malformed);
            assert!(message.contains("exceeds"), "{message:?}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn random_garbage_never_panics_the_server() {
    let (server, x, index) = start_server(&ServerConfig::default());
    // A deterministic xorshift spray of garbage blobs.
    let mut state = 0x1234_5678_9ABC_DEFFu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..32 {
        let len = (next() % 64) as usize + 1;
        let mut blob = Vec::with_capacity(len);
        for _ in 0..len {
            blob.push(next() as u8);
        }
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_millis(200)))
            .expect("timeout");
        stream.write_all(&blob).expect("send");
        // Whatever happens — typed error frame, clean close, or the server
        // waiting for a frame the blob's bogus length prefix announced (our
        // drop below resolves that as EOF) — the server must stay up; a
        // panic would fail the final query below.
        let mut buf = Vec::new();
        let _ = read_frame(&mut stream, MAX_RESPONSE_FRAME, &mut buf);
        drop(stream);
        let _ = round;
    }
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.ping().expect("server survived the garbage spray");
    let pattern = vec![1u8; 8];
    assert_eq!(
        client.query(&pattern).expect("query").positions,
        index.query(&pattern, &x).expect("in-process")
    );
    server.shutdown();
}

#[test]
fn full_admission_queue_refuses_with_overloaded() {
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..Default::default()
    };
    let (server, _, _) = start_server(&config);
    // Connection 1 is being served (the single worker pops it), connection
    // 2 fills the queue, connection 3 must be refused.
    let mut busy = Client::connect(server.local_addr()).expect("connect 1");
    busy.ping().expect("ping 1"); // ensures the worker owns this connection
    let _queued = TcpStream::connect(server.local_addr()).expect("connect 2");
    // Give the acceptor a moment to enqueue connection 2.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut refused = Client::connect(server.local_addr()).expect("connect 3");
    match refused.ping() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("expected an OVERLOADED refusal, got {other:?}"),
    }
    let snapshot = busy.stats().expect("stats");
    assert_eq!(snapshot.overloaded, 1);
    assert_eq!(snapshot.queue_depth, 1);
    server.shutdown();
}

#[test]
fn client_shutdown_stops_the_server_gracefully() {
    let (server, _, _) = start_server(&ServerConfig {
        workers: 2,
        ..Default::default()
    });
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");
    client.shutdown().expect("shutdown handshake");
    // join() returns once the acceptor and workers exited.
    server.join();
    // New connections are refused outright.
    assert!(
        Client::connect(addr).is_err() || {
            let mut late = Client::connect(addr).unwrap();
            late.ping().is_err()
        },
        "the port must be closed (or refuse work) after shutdown"
    );
}

#[test]
fn metrics_scrape_reflects_served_queries() {
    // Threshold zero: every query lands in the slow-query log, so the log
    // path is exercised deterministically.
    let config = ServerConfig {
        slow_query_threshold: std::time::Duration::ZERO,
        ..Default::default()
    };
    let (server, _, _) = start_server(&config);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let pattern = vec![0u8; 8];
    for _ in 0..5 {
        client.query(&pattern).expect("query");
    }
    client.query_count(&pattern).expect("count");

    let snapshot = client.metrics().expect("metrics");
    // Stage tracing is sampled (1 in STAGE_SAMPLE_EVERY per thread), but
    // the first query a worker serves always draws a ticket, so every
    // stage histogram has between 1 and 6 samples here.
    for (name, stage) in [
        ("scan", &snapshot.query_scan),
        ("locate", &snapshot.query_locate),
        ("verify", &snapshot.query_verify),
        ("report", &snapshot.query_report),
    ] {
        assert!(
            (1..=6).contains(&stage.count),
            "stage {name} must see sampled queries, got {}",
            stage.count
        );
    }
    // One admitted connection recorded one queue-wait sample.
    assert!(
        snapshot.queue_wait.count >= 1,
        "queue-wait must be recorded"
    );
    // Service time is recorded per op byte, sampled per connection at the
    // stage-tracing rate with the first request always recorded: QUERY (1)
    // must be present with 1..=6 samples, METRICS (9) not yet (the
    // in-flight scrape is recorded only after its response is sent).
    let query_service = snapshot
        .op_service
        .iter()
        .find(|(op, _)| *op == 1)
        .expect("QUERY service histogram");
    assert!(
        (1..=6).contains(&query_service.1.count),
        "sampled QUERY service count, got {}",
        query_service.1.count
    );
    // Histogram invariant on a real scrape: quantiles are monotone.
    assert!(snapshot.query_scan.p50() <= snapshot.query_scan.p99());
    // The zero threshold put every query into the slow-query log.
    assert_eq!(snapshot.slow_query_threshold_ns, 0);
    assert!(
        snapshot.slow_queries.len() >= 6,
        "all queries must be logged as slow at threshold 0, got {}",
        snapshot.slow_queries.len()
    );
    assert!(snapshot
        .slow_queries
        .iter()
        .all(|entry| entry.pattern_len == 8));
    // Every slow entry retains the pattern prefix (the full 8-rank pattern
    // here, since it is shorter than the 16-byte cap).
    assert!(snapshot
        .slow_queries
        .iter()
        .all(|entry| entry.prefix() == &pattern[..]));
    // The ring-occupancy gauges reflect the same entries, and advertise
    // non-trivial capacities.
    assert_eq!(snapshot.rings.slow, snapshot.slow_queries.len() as u64);
    assert!(snapshot.rings.slow_capacity >= snapshot.rings.slow);
    assert!(snapshot.rings.flight_recent_capacity > 0);
    assert!(snapshot.rings.flight_pinned_capacity > 0);
    server.shutdown();
}

#[test]
fn metrics_request_with_trailing_bytes_is_refused_typed() {
    let (server, _, _) = start_server(&ServerConfig::default());
    let mut frame = Vec::new();
    protocol::encode_request(21, &Request::Metrics, &mut frame);
    // A METRICS request has an empty body: a trailing byte must be refused
    // typed, echoing the request id, not by hanging up.
    frame.push(0xAB);
    let new_len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&new_len.to_le_bytes());
    let (id, response) = raw_round_trip(server.local_addr(), &frame).expect("typed answer");
    assert_eq!(id, 21);
    match response {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Malformed);
            assert!(message.contains("trailing"), "{message:?}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn unassigned_op_after_metrics_keeps_the_connection_alive() {
    // METRICS was added without a wire-version bump: a server that does not
    // know an op must answer UNKNOWN_OP and keep serving — this is the
    // contract that lets old servers tolerate new clients. Verify the
    // server upholds it for the next unassigned op and still answers a
    // METRICS scrape on the very same connection.
    let (server, _, _) = start_server(&ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut frame = Vec::new();
    protocol::encode_request(30, &Request::Metrics, &mut frame);
    frame[18] = 11; // the first op byte this build does not assign
    stream.write_all(&frame).expect("send");
    let mut buf = Vec::new();
    assert!(read_frame(&mut stream, MAX_RESPONSE_FRAME, &mut buf).expect("read"));
    let (id, response) = protocol::decode_response(&buf).expect("decode");
    assert_eq!(id, 30);
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::UnknownOp,
            ..
        }
    ));
    let mut frame = Vec::new();
    protocol::encode_request(31, &Request::Metrics, &mut frame);
    stream.write_all(&frame).expect("send");
    assert!(read_frame(&mut stream, MAX_RESPONSE_FRAME, &mut buf).expect("read"));
    let (id, response) = protocol::decode_response(&buf).expect("decode");
    assert_eq!(id, 31);
    assert!(
        matches!(response, Response::Metrics(_)),
        "a real METRICS scrape must still answer on the same connection"
    );
    server.shutdown();
}

#[test]
fn idle_connections_are_closed_after_the_idle_timeout() {
    let config = ServerConfig {
        workers: 1,
        idle_timeout: std::time::Duration::from_millis(150),
        poll_interval: std::time::Duration::from_millis(10),
        ..Default::default()
    };
    let (server, _, _) = start_server(&config);
    let mut idle = Client::connect(server.local_addr()).expect("connect");
    idle.ping().expect("ping while fresh");
    // Sit silent past the idle timeout: the server must close the
    // connection and free the worker for the next client.
    std::thread::sleep(std::time::Duration::from_millis(400));
    assert!(
        idle.ping().is_err(),
        "the idle connection must have been closed"
    );
    // The freed worker serves a new connection normally.
    let mut fresh = Client::connect(server.local_addr()).expect("connect");
    fresh.ping().expect("ping on a fresh connection");
    server.shutdown();
}

#[test]
fn trace_dump_round_trips_over_the_wire() {
    let (server, _, _) = start_server(&ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // The first request on a connection always draws a trace ticket, and
    // the flight push happens before the worker reads this connection's
    // next frame — so a same-connection TRACE_DUMP must see the query.
    let pattern = vec![0u8; 8];
    client.query(&pattern).expect("query");
    let records = client.trace_dump().expect("trace dump");
    let query_trace = records
        .iter()
        .find(|r| r.op == 1 && !r.pinned)
        .expect("the sampled QUERY must be in the recent ring");
    assert_eq!(query_trace.error, ius_server::TRACE_NO_ERROR);
    assert!(query_trace.total_ns > 0);
    let codes: Vec<u16> = query_trace.spans.iter().map(|s| s.code).collect();
    for stage in [
        ius_obs::trace::STAGE_QUEUE_WAIT,
        ius_obs::trace::STAGE_FRAME_DECODE,
        ius_obs::trace::STAGE_QUERY,
        ius_obs::trace::STAGE_RESPONSE_ENCODE,
        ius_obs::trace::STAGE_RESPONSE_WRITE,
    ] {
        assert!(
            codes.contains(&stage),
            "stage {} missing from {codes:?}",
            ius_obs::trace::stage_name(stage)
        );
    }
    // The query span nests the single-machine stage leaves one level down.
    let query_span = query_trace
        .spans
        .iter()
        .find(|s| s.code == ius_obs::trace::STAGE_QUERY)
        .expect("query span");
    let verify = query_trace
        .spans
        .iter()
        .find(|s| s.code == ius_obs::trace::STAGE_VERIFY)
        .expect("verify leaf");
    assert_eq!(verify.depth, query_span.depth + 1);
    // The dump renders as an indented tree naming every stage.
    let text = query_trace.render();
    assert!(
        text.contains("queue_wait") && text.contains("response_write"),
        "{text}"
    );
    server.shutdown();
}

/// A traced live query records one `part` group per segment, in segment
/// order, then one `memtable` group, all directly under the query span —
/// the span-tree shape `TRACE_DUMP` consumers read the fan-out from.
#[test]
fn live_trace_dump_records_every_segment_then_the_memtable() {
    let x = test_corpus();
    let params = IndexParams::new(4.0, 8, x.sigma()).expect("params");
    let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::Array), params);
    let config = ius_live::LiveConfig {
        flush_threshold: 100,
        auto_compact: false,
        ..Default::default()
    };
    let live = ius_live::LiveIndex::new(x.alphabet().clone(), spec, 16, config).expect("live");
    live.append(&x).expect("append");
    let stats = live.live_stats();
    let segments = stats.segments;
    assert!(segments >= 2, "{segments} segments");
    assert!(
        stats.memtable_rows >= 8,
        "{} memtable rows",
        stats.memtable_rows
    );
    let server = Server::bind(
        "127.0.0.1:0",
        ServedIndex::live(Arc::new(live)),
        None,
        &ServerConfig::default(),
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // The first request on a connection always draws a trace ticket.
    client.query(&[0u8; 8]).expect("query");
    let records = client.trace_dump().expect("trace dump");
    let query_trace = records
        .iter()
        .find(|r| r.op == 1 && !r.pinned)
        .expect("the sampled QUERY must be in the recent ring");
    let query_span = query_trace
        .spans
        .iter()
        .find(|s| s.code == ius_obs::trace::STAGE_QUERY)
        .expect("query span");
    let fan_out: Vec<(u16, u64)> = query_trace
        .spans
        .iter()
        .filter(|s| s.depth == query_span.depth + 1)
        .filter(|s| {
            s.code == ius_obs::trace::STAGE_PART || s.code == ius_obs::trace::STAGE_MEMTABLE
        })
        .map(|s| (s.code, s.a))
        .collect();
    let mut expected: Vec<(u16, u64)> = (0..segments as u64)
        .map(|i| (ius_obs::trace::STAGE_PART, i))
        .collect();
    expected.push((ius_obs::trace::STAGE_MEMTABLE, segments as u64));
    assert_eq!(fan_out, expected);
    server.shutdown();
}

#[test]
fn error_traces_are_pinned_and_drained_over_the_wire() {
    let (server, _, _) = start_server(&ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // First request on the connection (always sampled): an engine-level
    // refusal — pattern shorter than ℓ — answered as a typed QUERY error.
    let err = client.query(&[0u8; 3]).expect_err("short pattern");
    assert!(matches!(
        err,
        ClientError::Server {
            code: ErrorCode::Query,
            ..
        }
    ));
    let records = client.trace_dump().expect("trace dump");
    let pinned = records
        .iter()
        .find(|r| r.pinned)
        .expect("the error trace must be pinned");
    assert_eq!(pinned.op, 1, "the failing op was QUERY");
    assert_eq!(pinned.error, 3, "the QUERY_ERROR code byte is recorded");
    assert!(pinned
        .spans
        .iter()
        .any(|s| s.code == ius_obs::trace::STAGE_QUERY));
    server.shutdown();
}

#[test]
fn trace_dump_request_with_trailing_bytes_is_refused_typed() {
    let (server, _, _) = start_server(&ServerConfig::default());
    let mut frame = Vec::new();
    protocol::encode_request(23, &Request::TraceDump, &mut frame);
    // A TRACE_DUMP request has an empty body: a trailing byte must be
    // refused typed, echoing the request id, not by hanging up.
    frame.push(0xCD);
    let new_len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&new_len.to_le_bytes());
    let (id, response) = raw_round_trip(server.local_addr(), &frame).expect("response");
    assert_eq!(id, 23);
    match response {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Malformed);
            assert!(message.contains("trailing"), "{message:?}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    server.shutdown();
}
