//! End-to-end observability smoke: serve a live preset corpus, drive
//! queries and mutations over the wire, scrape `STATS`, and assert every
//! layer's instrumentation actually recorded — per-stage query histograms,
//! the queue-wait/service split, live flush/compaction durations and WAL
//! fsync latency — plus the histogram invariants (stage counts equal to
//! the sampled query ops, quantiles monotone),
//! and that the paper's filter counters add up exactly to what the
//! per-query responses carried. This is the CI smoke step of the metrics
//! subsystem.

use ius_datasets::corpora::bench_corpus;
use ius_index::{IndexFamily, IndexParams, IndexSpec, IndexVariant};
use ius_live::{FsyncPolicy, LiveConfig, LiveIndex};
use ius_server::{Client, ClientError, ErrorCode, Scrape, ServedIndex, Server, ServerConfig};
use std::sync::Arc;

/// A live MWSA server seeded from the uniform preset; `flush_threshold`
/// 500 over `n = 3000` seeds six equal-class segments, so one tiered
/// compaction round deterministically has work to do.
fn live_server(dir: Option<&std::path::Path>, config: &ServerConfig) -> (Server, Arc<LiveIndex>) {
    let corpus = bench_corpus("uniform", 3_000, None).expect("preset");
    let params = IndexParams::new(corpus.z, corpus.ell, corpus.x.sigma()).expect("params");
    let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::Array), params);
    let live_config = LiveConfig {
        flush_threshold: 500,
        auto_compact: false, // compaction is driven explicitly, so counts are exact
        ..Default::default()
    };
    let live = LiveIndex::from_corpus(&corpus.x, spec, 2 * corpus.ell, live_config).expect("seed");
    if let Some(dir) = dir {
        live.enable_durability(dir, FsyncPolicy::Record)
            .expect("arm WAL");
    }
    let live = Arc::new(live);
    let server =
        Server::bind("127.0.0.1:0", ServedIndex::live(live.clone()), None, config).expect("bind");
    (server, live)
}

/// The histogram `name` of a scrape, which must be present.
fn hist<'a>(scrape: &'a Scrape, name: &str) -> &'a ius_obs::HistogramSnapshot {
    scrape
        .histogram(name)
        .unwrap_or_else(|| panic!("scrape has no histogram {name}"))
}

/// The counter or gauge `name` of a scrape, which must be present.
fn value(scrape: &Scrape, name: &str) -> u64 {
    scrape
        .value(name)
        .unwrap_or_else(|| panic!("scrape has no counter or gauge {name}"))
}

fn assert_monotone_quantiles(name: &str, h: &ius_obs::HistogramSnapshot) {
    assert!(
        h.p50() <= h.p99(),
        "{name}: p50 {} must not exceed p99 {}",
        h.p50(),
        h.p99()
    );
}

#[test]
fn metrics_scrape_covers_every_layer_under_load() {
    let dir = std::env::temp_dir().join(format!("ius-metrics-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create live dir");
    let (server, _live) = live_server(Some(&dir), &ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Drive the query path: 12 collect + 4 count ops, all recording the
    // four per-stage histograms.
    let pattern = vec![0u8; 64];
    for _ in 0..12 {
        client.query(&pattern).expect("query");
    }
    for _ in 0..4 {
        client.query_count(&pattern).expect("count");
    }
    // Drive the live path: an append big enough to freeze a segment on
    // flush, one explicit flush, one tiered compaction round. Every
    // mutation is WAL-logged with per-record fsync.
    let batch = bench_corpus("uniform", 600, Some(3)).expect("preset").x;
    client.append(&batch).expect("append");
    client.flush().expect("flush");
    client.compact(false).expect("tiered compaction round");

    let scrape = client.scrape().expect("metrics scrape");

    // Query stages: requests are sampled 1-in-STAGE_SAMPLE_EVERY per
    // connection with the first always sampled, so of these 16 query ops
    // exactly the first feeds each stage histogram (all of its segment
    // parts summed); quantiles must be monotone.
    for name in [
        "query_scan_ns",
        "query_locate_ns",
        "query_verify_ns",
        "query_report_ns",
    ] {
        let stage = hist(&scrape, name);
        assert_eq!(stage.count, 1, "{name} must see the sampled query op");
        assert_monotone_quantiles(name, stage);
    }
    // The scan stage does real work on every traced query; its total time
    // must be nonzero under load.
    assert!(
        hist(&scrape, "query_scan_ns").sum > 0,
        "scan stage time must be nonzero"
    );

    // Server split: queue-wait recorded per admitted connection, service
    // time per op byte for the same sampled requests, and the first
    // request here is a QUERY (op 1).
    let queue_wait = hist(&scrape, "queue_wait_ns");
    assert!(queue_wait.count >= 1);
    assert_monotone_quantiles("queue_wait_ns", queue_wait);
    let query_service = hist(&scrape, "op_service_ns_query");
    assert_eq!(query_service.count, 1, "sampled QUERY service count");
    assert!(query_service.sum > 0, "service time must be nonzero");

    // Live layer: the seeding auto-flushes plus the explicit flush all
    // recorded durations; the driven compaction round recorded one sample.
    let flush = hist(&scrape, "live_flush_ns");
    assert!(flush.count >= 2, "flush durations recorded");
    assert!(flush.sum > 0);
    let compaction = hist(&scrape, "live_compaction_ns");
    assert_eq!(compaction.count, 1, "one driven round");
    assert!(compaction.sum > 0);
    assert_eq!(
        value(&scrape, "live_segments"),
        2,
        "6 seeds - merged run + flushed"
    );
    assert_eq!(value(&scrape, "compaction_errors"), 0);
    assert_eq!(scrape.info("last_error"), Some(""));

    // WAL: per-record fsync latencies under the append/delete load.
    let fsync = hist(&scrape, "wal_fsync_ns");
    assert!(
        fsync.count >= 1,
        "fsync latency must be recorded with --fsync record"
    );
    assert!(fsync.sum > 0);
    assert_monotone_quantiles("wal_fsync_ns", fsync);

    assert!(value(&scrape, "uptime_ns") > 0);
    // The default 50 ms threshold is advertised beside the slow ring.
    assert_eq!(value(&scrape, "slow_query_threshold_ns"), 50_000_000);

    // The text exposition covers every section without panicking.
    let text = scrape.to_text();
    for needle in [
        "# TYPE query_scan_ns summary",
        "queue_wait_ns_count",
        "live_flush_ns{quantile=\"0.99\"}",
        "wal_fsync_ns_sum",
        "# TYPE requests counter",
    ] {
        assert!(
            text.contains(needle),
            "text must mention {needle:?}:\n{text}"
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The paper's filter signal over the wire: an MWSA-G server's scrape
/// counts exactly the candidates and reported occurrences the query
/// responses carried, and exactly the patterns refused for being shorter
/// than ℓ — no sampling.
#[test]
fn filter_counters_match_the_per_response_stats() {
    let corpus = bench_corpus("uniform", 3_000, None).expect("preset");
    let params = IndexParams::new(corpus.z, corpus.ell, corpus.x.sigma()).expect("params");
    let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params);
    let index = spec.build(&corpus.x).expect("build");
    let served = ServedIndex::single(index, Arc::new(corpus.x.clone()));
    let server = Server::bind("127.0.0.1:0", served, None, &ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Corpus windows spelled with each position's most likely letter, in
    // every result mode, summing what each response carried.
    let (mut candidates, mut verified, mut reported, mut grid) = (0u64, 0u64, 0u64, 0u64);
    let mut add = |stats: ius_query::QueryStats| {
        candidates += stats.candidates as u64;
        verified += stats.verified as u64;
        reported += stats.reported as u64;
        grid += stats.grid_nodes as u64;
    };
    let ell = corpus.ell;
    for i in 0..24 {
        let start = (i * 97) % (corpus.x.len() - ell);
        let pattern: Vec<u8> = (start..start + ell)
            .map(|p| {
                let (letter, _) = corpus
                    .x
                    .letters_at(p)
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("a row has a letter");
                letter
            })
            .collect();
        match i % 3 {
            0 => add(client.query(&pattern).expect("collect").stats),
            1 => add(client.query_count(&pattern).expect("count").1),
            _ => add(client.query_first_k(&pattern, 2).expect("first-k").stats),
        }
    }
    assert!(reported > 0, "corpus windows must match somewhere");
    // Patterns shorter than ℓ are refused typed and counted.
    let too_short = 5u64;
    for len in 1..=too_short as usize {
        match client.query(&vec![0u8; len]) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Query),
            other => panic!("a {len}-long pattern must be refused, got {other:?}"),
        }
    }

    let scrape = client.scrape().expect("scrape");
    assert_eq!(scrape.info("index_name"), Some("MWSA-G"));
    assert_eq!(value(&scrape, "query_candidates"), candidates);
    assert_eq!(value(&scrape, "query_verified"), verified);
    assert_eq!(value(&scrape, "query_reported"), reported);
    assert_eq!(value(&scrape, "query_grid_nodes"), grid);
    assert_eq!(value(&scrape, "pattern_too_short"), too_short);
    assert_eq!(value(&scrape, "query_errors"), too_short);
    assert_eq!(value(&scrape, "queries"), 24);
    server.shutdown();
}

#[test]
fn wal_replay_throughput_shows_in_metrics_after_reopen() {
    let dir = std::env::temp_dir().join(format!("ius-metrics-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create live dir");
    {
        let (server, _live) = live_server(Some(&dir), &ServerConfig::default());
        let mut client = Client::connect(server.local_addr()).expect("connect");
        // Three acked mutations that stay in the WAL (no flush afterwards).
        for seed in [21, 22, 23] {
            let batch = bench_corpus("uniform", 40, Some(seed)).expect("preset").x;
            client.append(&batch).expect("append");
        }
        // Simulated crash: drop the server without a graceful save.
        drop(client);
        drop(server);
    }
    // Reopen: the WAL tail replays, and the replay throughput metrics
    // surface through the served snapshot.
    let live = Arc::new(LiveIndex::open(&dir, LiveConfig::default()).expect("reopen"));
    let server = Server::bind(
        "127.0.0.1:0",
        ServedIndex::live(live.clone()),
        None,
        &ServerConfig::default(),
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    let scrape = client.scrape().expect("scrape");
    assert_eq!(
        value(&scrape, "wal_replay_records"),
        3,
        "three WAL records scanned"
    );
    assert!(value(&scrape, "wal_replay_bytes") > 0);
    assert!(value(&scrape, "wal_replay_ns") > 0);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn background_failure_shows_on_next_scrape() {
    let dir = std::env::temp_dir().join(format!("ius-metrics-bgerr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create live dir");
    let (server, _live) = live_server(Some(&dir), &ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let pattern = vec![0u8; 64];
    client.query(&pattern).expect("query");
    let clean = client.scrape().expect("first scrape");
    assert_eq!(
        clean.info("last_error"),
        Some(""),
        "no background error yet"
    );

    // Sabotage the checkpoint target: replace the live directory with a
    // plain file, so the next flush's checkpoint fails in the background.
    // The WAL file descriptor stays open, so mutations still ack.
    std::fs::remove_dir_all(&dir).expect("remove live dir");
    std::fs::write(&dir, b"not a directory").expect("block the dir path");

    let batch = bench_corpus("uniform", 600, Some(5)).expect("preset").x;
    client.append(&batch).expect("append still acks");
    client
        .flush()
        .expect("flush succeeds; only its checkpoint fails");

    // The failure surfaces on the very next scrape — no query ever failed.
    let scrape = client.scrape().expect("second scrape");
    let last_error = scrape.info("last_error").expect("last_error");
    assert!(
        last_error.contains("checkpoint failed"),
        "background failure must surface through the scrape, got {last_error:?}"
    );
    client
        .query(&pattern)
        .expect("queries unaffected by the failure");
    server.shutdown();
    std::fs::remove_file(&dir).ok();
}
