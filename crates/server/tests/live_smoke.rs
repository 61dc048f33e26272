//! Live-mode serving smoke: starts the real `serve` binary with `--live`,
//! drives APPEND / QUERY / DELETE_RANGE / FLUSH / COMPACT / SHUTDOWN over
//! the wire, then reopens the saved `--live-dir` state with a second server
//! process — the end-to-end path CI exercises.

use ius_datasets::corpora::bench_corpus;
use ius_server::{Client, ClientError, ErrorCode};
use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

/// A spawned serve process that is killed (and reaped) if the test panics
/// before the graceful-shutdown path waits on it — a failing assertion
/// must not leak a listening server.
struct ServeGuard {
    child: Option<Child>,
}

impl ServeGuard {
    /// Consumes the guard after a graceful `SHUTDOWN`, asserting a clean
    /// exit.
    fn wait_success(mut self) {
        let status = self
            .child
            .take()
            .expect("child not yet waited")
            .wait()
            .expect("wait for serve");
        assert!(status.success(), "serve exited with {status:?}");
    }
}

impl Drop for ServeGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns the serve binary and parses the bound address off its stdout.
fn spawn_serve(args: &[&str]) -> (ServeGuard, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn serve binary");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut guard = ServeGuard { child: Some(child) };
    let mut lines = std::io::BufReader::new(stdout).lines();
    for _ in 0..20 {
        let line = lines
            .next()
            .expect("serve exited before printing its address")
            .expect("read serve stdout");
        if let Some(rest) = line.strip_prefix("listening on ") {
            let addr = rest
                .split_whitespace()
                .next()
                .expect("address token")
                .parse()
                .expect("parse bound address");
            return (guard, addr);
        }
    }
    drop(guard.child.take().map(|mut child| child.kill()));
    panic!("serve did not print its listening address");
}

#[test]
fn live_serve_append_query_shutdown_roundtrip() {
    let n = 3_000usize;
    let dir = std::env::temp_dir().join(format!("ius-live-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let (server, addr) = spawn_serve(&[
        "--live",
        "--build",
        "mwsa",
        "--corpus",
        "uniform",
        "--n",
        "3000",
        "--live-dir",
        dir_arg,
        "--flush-threshold",
        "500",
        "--port",
        "0",
        "--workers",
        "2",
    ]);
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");
    let scrape = client.scrape().expect("scrape");
    assert_eq!(scrape.value("corpus_len"), Some(n as u64));
    let name = scrape.info("index_name").expect("index name");
    assert!(name.contains("LIVE"), "{name}");

    // Append 100 fresh rows (same uniform preset alphabet); they must be
    // visible to the very next query and counted in STATS.
    let batch = bench_corpus("uniform", 100, Some(7)).expect("preset").x;
    let snapshot = client.append(&batch).expect("append");
    assert_eq!(snapshot.corpus_len, (n + 100) as u64);
    assert_eq!(snapshot.changed, 100);
    let outcome = client.query(&[0u8; 64]).expect("query after append");
    let count = client.query_count(&[0u8; 64]).expect("count").0;
    assert_eq!(outcome.positions.len() as u64, count);

    // Delete, flush, compact — each answered with a live snapshot.
    let snapshot = client.delete_range(0, 50).expect("delete");
    assert_eq!(snapshot.tombstones, 1);
    let snapshot = client.flush().expect("flush");
    assert_eq!(snapshot.memtable_rows, 127, "overlap = 2*ell - 1");
    let snapshot = client.compact(true).expect("compact");
    assert_eq!(snapshot.segments, 1);
    let after = client.query(&[0u8; 64]).expect("query after compact");
    // The tombstone [0, 50) masks every window that touches it.
    assert!(after.positions.iter().all(|&p| p >= 50));

    // Live servers refuse RELOAD with a typed error.
    match client.reload(None) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Reload),
        other => panic!("RELOAD on a live server must be refused, got {other:?}"),
    }
    // Wrong-sigma appends are refused typed, and the server keeps serving.
    match client.append_rows(3, vec![0.5, 0.25, 0.25]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Live),
        other => panic!("wrong-sigma APPEND must be refused, got {other:?}"),
    }
    client.ping().expect("still serving after refusals");

    let scrape = client.scrape().expect("scrape");
    assert_eq!(scrape.value("appended_positions"), Some(100));
    assert_eq!(scrape.value("delete_ranges"), Some(1));
    assert_eq!(scrape.value("flushes"), Some(1));
    assert_eq!(scrape.value("compactions"), Some(1));
    // The wrong-sigma refusal above landed in the dedicated live counter,
    // not in query_errors.
    assert_eq!(scrape.value("live_errors"), Some(1));
    assert_eq!(scrape.value("query_errors"), Some(0));
    let stats = client.stats().expect("stats");
    assert_eq!((stats.live_errors, stats.query_errors), (1, 0));

    client.shutdown().expect("shutdown");
    server.wait_success();

    // Graceful shutdown saved the live state; a fresh process reopens it.
    assert!(dir.join("live.iusl").exists(), "manifest saved on shutdown");
    let (server, addr) = spawn_serve(&["--live", "--live-dir", dir_arg, "--port", "0"]);
    let mut client = Client::connect(addr).expect("reconnect");
    let scrape = client.scrape().expect("scrape after reopen");
    assert_eq!(scrape.value("corpus_len"), Some((n + 100) as u64));
    let reopened = client.query(&[0u8; 64]).expect("query after reopen");
    assert_eq!(reopened.positions, after.positions);
    client.shutdown().expect("shutdown reopened server");
    server.wait_success();
    std::fs::remove_dir_all(&dir).ok();
}

/// The acked-durable invariant at the process level: a server serving
/// with `--fsync record` is SIGKILLed mid-stream, and every mutation it
/// acked over the wire must survive into the reopened state — first
/// checked by replaying the directory in-process, then by serving it
/// again and comparing query answers over the wire.
#[test]
fn sigkill_crash_preserves_acked_mutations() {
    use ius_live::{LiveConfig, LiveIndex};
    let n = 2_000usize;
    let dir = std::env::temp_dir().join(format!("ius-live-sigkill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create live dir");
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let (server, addr) = spawn_serve(&[
        "--live",
        "--build",
        "mwsa",
        "--corpus",
        "uniform",
        "--n",
        "2000",
        "--live-dir",
        dir_arg,
        "--fsync",
        "record",
        // Keep every mutation out of the checkpoint: recovery must come
        // from the WAL alone.
        "--flush-threshold",
        "100000",
        "--port",
        "0",
        "--workers",
        "2",
    ]);
    let mut client = Client::connect(addr).expect("connect");

    // Three acked appends and one acked delete, all only in the WAL.
    let mut acked = n as u64;
    for seed in [11, 12, 13] {
        let batch = bench_corpus("uniform", 40, Some(seed)).expect("preset").x;
        let snapshot = client.append(&batch).expect("acked append");
        acked += 40;
        assert_eq!(snapshot.corpus_len, acked);
    }
    client.delete_range(10, 30).expect("acked delete");
    let before = client.query(&[0u8; 64]).expect("query before crash");
    let scrape = client.scrape().expect("scrape before crash");
    assert_eq!(
        scrape.value("fsync_policy"),
        Some(1),
        "record policy on the wire"
    );
    assert_eq!(scrape.value("wal_records"), Some(4));
    assert!(scrape.value("wal_bytes").expect("wal bytes") > 0);
    assert_eq!(scrape.value("recoveries"), Some(0));
    assert_eq!(scrape.info("last_error"), Some(""));

    // SIGKILL — no graceful save, no WAL rotation, no flush.
    drop(client);
    drop(server);

    // In-process reopen replays the log tail.
    let live = LiveIndex::open(&dir, LiveConfig::default()).expect("reopen crashed dir");
    assert_eq!(live.len() as u64, acked, "every acked append survived");
    let stats = live.live_stats();
    assert_eq!(stats.recoveries, 1);
    assert_eq!(stats.recovered_records, 4);
    assert_eq!(stats.tombstones, 1, "the acked delete survived");
    drop(live);

    // A fresh server over the same directory answers as before the crash.
    let (server, addr) = spawn_serve(&[
        "--live",
        "--live-dir",
        dir_arg,
        "--fsync",
        "record",
        "--port",
        "0",
    ]);
    let mut client = Client::connect(addr).expect("reconnect");
    let scrape = client.scrape().expect("scrape after crash");
    assert_eq!(scrape.value("corpus_len"), Some(acked));
    assert_eq!(scrape.value("recoveries"), Some(1));
    assert_eq!(scrape.value("recovered_records"), Some(4));
    let after = client.query(&[0u8; 64]).expect("query after crash");
    assert_eq!(after.positions, before.positions);
    client.shutdown().expect("shutdown recovered server");
    server.wait_success();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn static_servers_refuse_live_mutations_typed() {
    use ius_index::{IndexFamily, IndexParams, IndexSpec, IndexVariant};
    use ius_server::{ServedIndex, Server, ServerConfig};
    use std::sync::Arc;
    let x = bench_corpus("uniform", 2_000, None).expect("preset").x;
    let params = IndexParams::new(8.0, 64, x.sigma()).unwrap();
    let index = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::Array), params)
        .build(&x)
        .unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        ServedIndex::single(index, Arc::new(x.clone())),
        None,
        &ServerConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for result in [
        client.append(&x.substring(0, 10).unwrap()).map(|_| ()),
        client.delete_range(0, 5).map(|_| ()),
        client.flush().map(|_| ()),
        client.compact(false).map(|_| ()),
    ] {
        match result {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::Live);
                assert!(message.contains("--live"), "{message}");
            }
            other => panic!("static server must refuse live ops typed, got {other:?}"),
        }
    }
    // The connection survives every refusal.
    client.ping().unwrap();
    server.shutdown();
}
