//! Live-server wire-protocol tests: every malformed or hostile byte
//! sequence must be answered with a typed error frame (or a clean close) —
//! the server must never panic on untrusted input — and well-formed
//! traffic must round-trip exactly.

use ius_datasets::uniform::UniformConfig;
use ius_index::{IndexFamily, IndexParams, IndexSpec, IndexVariant, UncertainIndex};
use ius_server::protocol::{self, read_frame};
use ius_server::{
    Client, ClientError, ErrorCode, FlightRing, Request, Response, ResultMode, ServedIndex, Server,
    ServerConfig, MAX_RESPONSE_FRAME, WIRE_MAGIC, WIRE_VERSION,
};
use ius_weighted::WeightedString;
use std::io::{Read, Write};
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
    let scrape = client.scrape().expect("scrape");
    assert_eq!(scrape.info("index_name"), Some("MWSA"));
    assert_eq!(scrape.value("corpus_len"), Some(400));
    assert_eq!(
        scrape.value("index_size_bytes"),
        Some(index.size_bytes() as u64)
    );
    assert_eq!(
        scrape.value("workers"),
        Some(ServerConfig::default().workers as u64)
    );
    assert_eq!(scrape.value("generation"), Some(0));
    assert!(scrape.value("queries").expect("queries") >= 3);
    assert_eq!(scrape.value("query_errors"), Some(1));
    assert_eq!(scrape.value("pattern_too_short"), Some(1));
    assert_eq!(client.stats().expect("stats").query_errors, 1);
    server.shutdown();
}

#[test]
fn a_rank_outside_the_alphabet_is_refused_typed_and_the_connection_kept() {
    let (server, x, index) = start_server(&ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let rank = x.sigma() as u8 + 1;
    for at in [0, 4, 7] {
        let mut pattern = vec![0u8; 8];
        pattern[at] = rank;
        assert!(index.query(&pattern, &x).is_err(), "the engine refuses it");
        match client.query(&pattern).expect_err("foreign rank") {
            ClientError::Server { code, message } => {
                assert_eq!(code, ErrorCode::Query);
                let expected = format!(
                    "pattern rank {rank} is outside the alphabet (σ = {})",
                    x.sigma()
                );
                assert_eq!(message, expected);
            }
            other => panic!("expected a typed server error, got {other:?}"),
        }
        // The same connection still answers.
        client.ping().expect("ping after the refusal");
    }
    assert_eq!(client.stats().expect("stats").query_errors, 3);
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
    // A future version, version 4 — the layout before the one-list
    // TRACE_DUMP — and version 3 — the layout before the one metrics
    // surface — are all refused typed, naming the version.
    for version in [WIRE_VERSION + 1, 4, 3] {
        let mut frame = Vec::new();
        protocol::encode_request(5, &Request::Ping, &mut frame);
        frame[8..10].copy_from_slice(&version.to_le_bytes());
        let (_, response) = raw_round_trip(server.local_addr(), &frame).expect("typed answer");
        match response {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::UnsupportedVersion);
                assert!(
                    message.contains(&format!("version {version}")),
                    "{message:?}"
                );
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
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
    let scrape = busy.scrape().expect("scrape");
    assert_eq!(scrape.value("overloaded"), Some(1));
    assert_eq!(scrape.value("queue_depth"), Some(1));
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
    // Threshold zero: every query lands in the flight recorder's slow
    // ring, so the slow path is exercised deterministically.
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

    let scrape = client.scrape().expect("scrape");
    // Requests are sampled 1 in STAGE_SAMPLE_EVERY per connection, the
    // first always: of these six queries exactly the first is sampled, and
    // every stage histogram holds that one sample.
    for name in [
        "query_scan_ns",
        "query_locate_ns",
        "query_verify_ns",
        "query_report_ns",
    ] {
        let stage = scrape.histogram(name).expect(name);
        assert_eq!(stage.count, 1, "stage {name} must see the sampled query");
    }
    // One admitted connection recorded one queue-wait sample.
    assert!(
        scrape.histogram("queue_wait_ns").expect("queue wait").count >= 1,
        "queue-wait must be recorded"
    );
    // Service time is recorded per op byte for the same sampled requests:
    // QUERY (1) holds the one sample, STATS (2) none yet (the in-flight
    // scrape is recorded only after its response is sent).
    let query_service = scrape
        .histogram("op_service_ns_query")
        .expect("QUERY service histogram");
    assert_eq!(query_service.count, 1, "sampled QUERY service count");
    assert_eq!(scrape.histogram("op_service_ns_stats"), None);
    // Histogram invariant on a real scrape: quantiles are monotone.
    let scan = scrape.histogram("query_scan_ns").expect("scan");
    assert!(scan.p50() <= scan.p99());
    // The zero threshold put every query into the slow ring.
    assert_eq!(scrape.value("slow_query_threshold_ns"), Some(0));
    assert_eq!(scrape.value("slow_queries"), Some(6));
    // The records themselves are events, answered by TRACE_DUMP: each
    // query with its pattern length, its retained ranks (the whole 8-rank
    // pattern, shorter than the 16-rank cap) and its reported count.
    let dump = client.trace_dump().expect("trace dump");
    let slow: Vec<_> = dump.iter().filter(|r| r.ring == FlightRing::Slow).collect();
    assert_eq!(slow.len(), 6, "all queries are slow at threshold 0");
    assert!(slow
        .iter()
        .all(|r| r.facts.pattern_len == 8 && r.facts.prefix() == &pattern[..]));
    assert!(slow
        .iter()
        .all(|r| r.facts.reported == slow[0].facts.reported));
    // The ring-occupancy gauges reflect the same records, and advertise
    // non-trivial capacities.
    let gauge = |name: &str| scrape.value(name).expect(name);
    assert_eq!(gauge("flight_slow_len"), slow.len() as u64);
    assert!(gauge("flight_slow_capacity") >= gauge("flight_slow_len"));
    assert!(gauge("flight_recent_capacity") > 0);
    assert!(gauge("flight_pinned_capacity") > 0);
    server.shutdown();
}

#[test]
fn metrics_request_with_trailing_bytes_is_refused_typed() {
    let (server, _, _) = start_server(&ServerConfig::default());
    let mut frame = Vec::new();
    protocol::encode_request(21, &Request::Stats, &mut frame);
    // A STATS request has an empty body: a trailing byte must be refused
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
    // Op 9 was METRICS until wire version 4 made STATS the one scrape. A
    // retired op is unassigned: the server answers UNKNOWN_OP, echoing the
    // id, and keeps serving the same connection.
    let (server, _, _) = start_server(&ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut frame = Vec::new();
    protocol::encode_request(30, &Request::Ping, &mut frame);
    frame[18] = 9;
    stream.write_all(&frame).expect("send");
    let mut buf = Vec::new();
    assert!(read_frame(&mut stream, MAX_RESPONSE_FRAME, &mut buf).expect("read"));
    let (id, response) = protocol::decode_response(&buf).expect("decode");
    assert_eq!(id, 30);
    match response {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::UnknownOp);
            assert!(message.contains("op 9"), "{message:?}");
        }
        other => panic!("expected UNKNOWN_OP, got {other:?}"),
    }
    let mut frame = Vec::new();
    protocol::encode_request(31, &Request::Stats, &mut frame);
    stream.write_all(&frame).expect("send");
    assert!(read_frame(&mut stream, MAX_RESPONSE_FRAME, &mut buf).expect("read"));
    let (id, response) = protocol::decode_response(&buf).expect("decode");
    assert_eq!(id, 31);
    match response {
        Response::Stats(scrape) => assert_eq!(
            scrape.value("protocol_errors"),
            Some(1),
            "the refused op counts as one protocol error"
        ),
        other => panic!("a STATS scrape must still answer on the same connection, got {other:?}"),
    }
    server.shutdown();
}

/// The binary pattern of length 8 with the most occurrences, and them.
fn frequent_pattern(index: &ius_index::AnyIndex, x: &WeightedString) -> (Vec<u8>, Vec<usize>) {
    let (pattern, expected) = (0..=255u8)
        .map(|bits| {
            let pattern: Vec<u8> = (0..8).map(|i| (bits >> i) & 1).collect();
            let expected = index.query(&pattern, x).expect("in-process query");
            (pattern, expected)
        })
        .max_by_key(|(_, expected)| expected.len())
        .expect("patterns");
    assert!(expected.len() > 1, "the pattern must occur");
    (pattern, expected)
}

#[test]
fn first_k_with_a_huge_bound_answers_every_occurrence() {
    let (server, x, index) = start_server(&ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (pattern, expected) = frequent_pattern(&index, &x);
    // The bound comes from the client: it must not size any allocation.
    let all = client
        .query_first_k(&pattern, u64::MAX)
        .expect("first-k with k = u64::MAX");
    assert_eq!(
        all.positions,
        client.query(&pattern).expect("collect").positions
    );
    assert_eq!(all.positions, expected);
    client.ping().expect("the connection stays usable");
    server.shutdown();
}

/// Sends one request frame on a raw connection.
fn send_request(stream: &mut TcpStream, id: u64, request: &Request) {
    let mut frame = Vec::new();
    protocol::encode_request(id, request, &mut frame);
    stream.write_all(&frame).expect("send");
}

/// Reads and decodes one response frame from a raw connection.
fn read_response(stream: &mut TcpStream) -> (u64, Response) {
    let mut buf = Vec::new();
    assert!(
        read_frame(stream, MAX_RESPONSE_FRAME, &mut buf).expect("read"),
        "the server closed without answering"
    );
    protocol::decode_response(&buf).expect("decode response")
}

fn assert_shutting_down(stream: &mut TcpStream) {
    match read_response(stream) {
        (
            0,
            Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            },
        ) => {}
        other => panic!("expected a SHUTTING_DOWN frame, got {other:?}"),
    }
}

#[test]
fn shutdown_wakes_idle_connections_at_once() {
    let (server, _, _) = start_server(&ServerConfig {
        workers: 2,
        idle_timeout: std::time::Duration::from_secs(60),
        ..Default::default()
    });
    // Two idle connections, each owned by a worker (its PING answered).
    let mut idle: Vec<TcpStream> = (0..2)
        .map(|i| {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .expect("timeout");
            send_request(&mut stream, i, &Request::Ping);
            assert_eq!(read_response(&mut stream), (i, Response::Pong));
            stream
        })
        .collect();
    let started = std::time::Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(
        took < std::time::Duration::from_secs(2),
        "shutdown waited {took:?} on idle connections"
    );
    for stream in &mut idle {
        assert_shutting_down(stream);
    }
}

#[test]
fn frames_received_before_shutdown_are_answered() {
    let (server, x, index) = start_server(&ServerConfig {
        workers: 1,
        ..Default::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("timeout");
    send_request(&mut stream, 1, &Request::Ping);
    assert_eq!(read_response(&mut stream), (1, Response::Pong));
    // Two frames fully written, then shutdown: both are answered with
    // their own ids before the SHUTTING_DOWN frame.
    let (pattern, expected) = frequent_pattern(&index, &x);
    send_request(&mut stream, 41, &Request::Ping);
    send_request(
        &mut stream,
        42,
        &Request::Query {
            mode: ResultMode::Collect,
            pattern,
        },
    );
    server.shutdown();
    assert_eq!(read_response(&mut stream), (41, Response::Pong));
    match read_response(&mut stream) {
        (42, Response::Matches { positions, .. }) => {
            assert_eq!(
                positions,
                expected.iter().map(|&p| p as u64).collect::<Vec<_>>()
            )
        }
        other => panic!("expected the query's answer, got {other:?}"),
    }
    assert_shutting_down(&mut stream);
}

#[test]
fn idle_connections_are_closed_after_the_idle_timeout() {
    let config = ServerConfig {
        workers: 1,
        idle_timeout: std::time::Duration::from_millis(150),
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
    // A client that sends half a frame and stalls is closed the same way.
    let mut half = TcpStream::connect(server.local_addr()).expect("connect");
    half.set_read_timeout(Some(std::time::Duration::from_secs(1)))
        .expect("timeout");
    let mut frame = Vec::new();
    protocol::encode_request(5, &Request::Ping, &mut frame);
    half.write_all(&frame[..frame.len() / 2])
        .expect("send half");
    std::thread::sleep(std::time::Duration::from_millis(400));
    let mut byte = [0u8; 1];
    match half.read(&mut byte) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("the stalled connection must have been closed, got {other:?}"),
    }
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
        .find(|r| r.facts.op == 1 && r.ring == FlightRing::Recent)
        .expect("the sampled QUERY must be in the recent ring");
    assert_eq!(query_trace.facts.error, ius_server::TRACE_NO_ERROR);
    assert!(query_trace.facts.total_ns > 0);
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
        .find(|r| r.facts.op == 1 && r.ring == FlightRing::Recent)
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
        .find(|r| r.ring == FlightRing::Errors)
        .expect("the error trace must be pinned");
    assert_eq!(pinned.facts.op, 1, "the failing op was QUERY");
    assert_eq!(
        pinned.facts.error, 3,
        "the QUERY_ERROR code byte is recorded"
    );
    assert_eq!(
        pinned.facts.prefix(),
        &[0u8; 3],
        "the refused pattern is kept"
    );
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

/// The codes of the spans directly below `spans[at]` in a pre-order tree.
fn children(spans: &[ius_obs::trace::Span], at: usize) -> Vec<u16> {
    let depth = spans[at].depth;
    spans[at + 1..]
        .iter()
        .take_while(|s| s.depth > depth)
        .filter(|s| s.depth == depth + 1)
        .map(|s| s.code)
        .collect()
}

const STAGE_LEAVES: [u16; 4] = [
    ius_obs::trace::STAGE_SCAN,
    ius_obs::trace::STAGE_LOCATE,
    ius_obs::trace::STAGE_VERIFY,
    ius_obs::trace::STAGE_REPORT,
];

/// Sampling is one decision per request, made per connection: the first
/// query of a connection is sampled and its trace carries the engine's
/// stage leaves, whatever the worker thread served before.
#[test]
fn a_sampled_query_carries_its_stage_leaves_on_every_connection() {
    let config = ServerConfig {
        workers: 1,
        ..Default::default()
    };
    let (server, _, _) = start_server(&config);
    let pattern = vec![0u8; 8];
    {
        // Connection A: three queries on the one worker, then close, so
        // the worker moves on to connection B.
        let mut a = Client::connect(server.local_addr()).expect("connect A");
        for _ in 0..3 {
            a.query(&pattern).expect("query on A");
        }
    }
    let mut b = Client::connect(server.local_addr()).expect("connect B");
    b.query(&pattern).expect("query on B");
    let records = b.trace_dump().expect("trace dump");
    let queries: Vec<_> = records
        .iter()
        .filter(|r| r.facts.op == 1 && r.ring == FlightRing::Recent)
        .collect();
    assert_eq!(
        queries.len(),
        2,
        "the first query of A and of B are sampled"
    );
    let b_trace = queries[1];
    let query_at = b_trace
        .spans
        .iter()
        .position(|s| s.code == ius_obs::trace::STAGE_QUERY)
        .expect("query span");
    assert_eq!(
        children(&b_trace.spans, query_at),
        STAGE_LEAVES,
        "B's sampled query lacks its stage leaves:\n{}",
        b_trace.render()
    );
    server.shutdown();
}

/// A live query samples all of its parts or none: over 32 queries on one
/// connection, exactly the two sampled requests feed the stage
/// histograms, and every part of both traces holds its four stage leaves.
#[test]
fn a_sampled_live_query_times_every_part() {
    let x = test_corpus();
    let params = IndexParams::new(4.0, 8, x.sigma()).expect("params");
    let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::Array), params);
    let config = ius_live::LiveConfig {
        flush_threshold: 80,
        auto_compact: false,
        ..Default::default()
    };
    let live = ius_live::LiveIndex::new(x.alphabet().clone(), spec, 16, config).expect("live");
    live.append(&x).expect("append");
    let segments = live.live_stats().segments;
    assert!(segments >= 3, "{segments} segments");
    let server = Server::bind(
        "127.0.0.1:0",
        ServedIndex::live(Arc::new(live)),
        None,
        &ServerConfig::default(),
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for i in 0..32u8 {
        let pattern: Vec<u8> = (0..8).map(|j| (i >> (j % 5)) & 1).collect();
        client.query(&pattern).expect("query");
    }
    let scrape = client.scrape().expect("scrape");
    for name in [
        "query_scan_ns",
        "query_locate_ns",
        "query_verify_ns",
        "query_report_ns",
    ] {
        let stage = scrape.histogram(name).expect(name);
        assert_eq!(stage.count, 2, "{name} counts the two sampled queries");
    }
    let records = client.trace_dump().expect("trace dump");
    let sampled: Vec<_> = records
        .iter()
        .filter(|r| r.facts.op == 1 && r.ring == FlightRing::Recent)
        .collect();
    assert_eq!(sampled.len(), 2, "requests 0 and 16 are sampled");
    for record in sampled {
        let parts: Vec<usize> = (0..record.spans.len())
            .filter(|&i| record.spans[i].code == ius_obs::trace::STAGE_PART)
            .collect();
        assert_eq!(parts.len(), segments, "one part span per segment");
        for at in parts {
            assert_eq!(
                children(&record.spans, at),
                STAGE_LEAVES,
                "part {} lacks its stage leaves:\n{}",
                record.spans[at].a,
                record.render()
            );
        }
    }
    server.shutdown();
}

/// At threshold 0 every query is slow: each lands in the slow ring with
/// its pattern length, first 16 ranks and reported count, exactly as the
/// engine answers it; the sampled ones carry their span tree and the
/// rest none.
#[test]
fn slow_queries_keep_their_pattern_count_and_sampled_spans() {
    let config = ServerConfig {
        slow_query_threshold: std::time::Duration::ZERO,
        ..Default::default()
    };
    let (server, x, index) = start_server(&config);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let patterns: Vec<Vec<u8>> = (0..20u32)
        .map(|i| (0..20).map(|j| ((i * 7 + j) % 5 == 0) as u8).collect())
        .collect();
    for pattern in &patterns {
        client.query(pattern).expect("query");
    }
    let scrape = client.scrape().expect("scrape");
    assert_eq!(scrape.value("slow_queries"), Some(patterns.len() as u64));
    let records = client.trace_dump().expect("trace dump");
    let slow: Vec<_> = records
        .iter()
        .filter(|r| r.ring == FlightRing::Slow)
        .collect();
    assert_eq!(slow.len(), patterns.len());
    for (i, (record, pattern)) in slow.iter().zip(&patterns).enumerate() {
        assert_eq!(record.facts.op, 1);
        assert_eq!(record.facts.pattern_len, 20);
        assert_eq!(record.facts.prefix(), &pattern[..16]);
        let expected = index.query(pattern, &x).expect("engine").len() as u64;
        assert_eq!(record.facts.reported, expected, "query {i}");
        let sampled = i % ius_obs::clock::STAGE_SAMPLE_EVERY as usize == 0;
        assert_eq!(
            !record.spans.is_empty(),
            sampled,
            "query {i}: spans iff sampled"
        );
    }
    // A slow record displays its query facts, as the panic-hook dump
    // prints them.
    let text = slow[1].render();
    assert!(text.contains("ring=slow op=QUERY"), "{text}");
    assert!(text.contains("pattern_len=20"), "{text}");
    server.shutdown();
}
