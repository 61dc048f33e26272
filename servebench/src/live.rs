//! The `live-uniform` workload: a WAL-armed `LiveIndex` of MWSA-G segments
//! over the uniform corpus, served over loopback TCP. One connection
//! appends 100-row batches open loop while the other queries open loop;
//! then the answers are compared with a static index of the final corpus
//! and capacity is measured closed loop.
//!
//! During ingest an answer is checked by the prefix rule: it must hold
//! every occurrence (of the final corpus) whose window ends within the
//! length acked before the query was sent, and nothing whose window ends
//! beyond the length the appender had sent when the answer arrived.

use crate::load::{open_loop, OpError, OpenLoop, SpanNames, Stripe};
use crate::report::{mean, median, Report};
use crate::spans::{Tracer, REQ_APPEND, REQ_QUERY, REQ_SETUP};
use crate::{
    capacity_phase, capacity_seconds, check_exact, derive_seed, engine_pass, expected_answers,
    growth_mb, measured, open_loop_queries, pattern_pool, perturb, query_stream,
    report_query_layers, report_setup, scheduled_requests, server_config, server_errors, setup_err,
    BenchError, Config, SetupPick, SetupSample, WorkDir, MB,
};
use ius::datasets::corpora::bench_corpus;
use ius::index::{IndexFamily, IndexParams, IndexSpec, IndexVariant, UncertainIndex};
use ius::live::{FsyncPolicy, LiveConfig, LiveIndex};
use ius::server::{Client, ServedIndex, Server};
use ius::weighted::{WeightedString, ZEstimation};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop query rate during ingest, queries/s (pinned).
pub const QUERY_QPS: f64 = 250.0;

/// Open-loop query rate on the settled index after ingest, over both
/// connections, queries/s (pinned).
pub const SETTLED_QPS: f64 = 500.0;

/// Share of `--seconds` the settled open-loop phase lasts.
const SETTLED_SHARE: f64 = 0.5;

/// Share of `--seconds` the ingest phase lasts.
const INGEST_SHARE: f64 = 0.8;

/// Open-loop append rate, batches/s (pinned): 100k positions land in the
/// 8 s open-loop phase of a 10 s run.
pub const APPEND_BATCHES_PER_S: f64 = 125.0;

/// Query pattern lengths in quarters of ℓ: the uniform preset has few
/// solid windows much longer than ℓ.
const PATTERN_LENGTHS: [usize; 2] = [4, 5];

/// Rows per appended batch.
pub const BATCH_ROWS: usize = 100;

/// The durability policy: `record` syncs the log before every ack, the
/// only policy under which an ack means durable.
const FSYNC: FsyncPolicy = FsyncPolicy::Record;

/// `[start, end)` of the flat probability rows of `x` as a new string.
fn rows(x: &WeightedString, start: usize, end: usize) -> Result<WeightedString, BenchError> {
    let sigma = x.sigma();
    WeightedString::from_flat(
        x.alphabet().clone(),
        x.flat_probs()[start * sigma..end * sigma].to_vec(),
    )
    .map_err(|e| setup_err("slicing the corpus")(&e))
}

/// Seeds, arms and serves the live index once, timing each call.
fn setup(
    seed_x: &WeightedString,
    spec: IndexSpec,
    live_config: &LiveConfig,
    wal_dir: &Path,
    tracer: &mut Tracer,
    rep: usize,
) -> Result<(Server, Arc<LiveIndex>, SetupSample), BenchError> {
    std::fs::create_dir_all(wal_dir).map_err(|e| setup_err("WAL directory")(&e))?;
    let req = REQ_SETUP | rep as u64;
    ius_memtrack::reset_peak();
    let base = ius_memtrack::live_bytes();
    let start = Instant::now();
    let root = tracer.record("setup", start, start, None, req);
    let max_len = PATTERN_LENGTHS[1] * spec.params.ell / 4;
    let (live, seed_build) = measured(tracer, "live.seed_build", root, req, || {
        LiveIndex::from_corpus(seed_x, spec, max_len, live_config.clone())
    });
    let live = Arc::new(live.map_err(|e| setup_err("live seed build")(&e))?);
    let (armed, wal_arm) = measured(tracer, "live.wal_arm", root, req, || {
        live.enable_durability(wal_dir, FSYNC)
    });
    armed.map_err(|e| setup_err("arming the WAL")(&e))?;
    let (server, bind) = measured(tracer, "server.bind", root, req, || {
        Server::bind(
            "127.0.0.1:0",
            ServedIndex::live(live.clone()),
            None,
            &server_config(),
        )
    });
    let server = server.map_err(|e| setup_err("bind")(&e))?;
    let end = Instant::now();
    tracer.finish(root, end);
    let peak_abs = [seed_build, wal_arm, bind]
        .iter()
        .map(|p| p.peak_abs)
        .max()
        .unwrap_or(base);
    let sample = SetupSample {
        total_ms: (end - start).as_secs_f64() * 1e3,
        peak_mb: growth_mb(peak_abs, base),
        seed_build,
        wal_arm,
        bind,
        ..Default::default()
    };
    Ok((server, live, sample))
}

/// Finishes the tiered merges the background compactor has pending, so a
/// measured phase starts from a segment list that does not depend on how
/// far the compactor got.
fn settle(live: &LiveIndex) -> Result<(), BenchError> {
    while live
        .compact_once()
        .map_err(|e| setup_err("settling compaction")(&e))?
        > 0
    {}
    std::thread::sleep(Duration::from_millis(100));
    Ok(())
}

/// The prefix rule for an answer given during ingest (see the module
/// docs): `acked` was read before the send, `sent` after the answer.
fn check_prefix(
    got: &[usize],
    final_answer: &[usize],
    m: usize,
    acked: usize,
    sent: usize,
    pattern: usize,
) -> Result<(), OpError> {
    let mismatch = |what: String| Err(OpError::Mismatch(format!("pattern {pattern}: {what}")));
    for &pos in got {
        if final_answer.binary_search(&pos).is_err() {
            return mismatch(format!(
                "position {pos} is not an occurrence in the final corpus"
            ));
        }
        if pos + m > sent {
            return mismatch(format!(
                "position {pos} ends beyond the {sent} positions sent"
            ));
        }
    }
    for &pos in final_answer.iter().take_while(|&&p| p + m <= acked) {
        if got.binary_search(&pos).is_err() {
            return mismatch(format!(
                "occurrence {pos} within the {acked} acked positions is missing"
            ));
        }
    }
    Ok(())
}

/// Runs the live workload.
pub fn run(config: &Config, tracer: &mut Tracer) -> Result<Report, BenchError> {
    let n_seed = config.n;
    let batches = scheduled_requests(config, APPEND_BATCHES_PER_S, INGEST_SHARE);
    let n_final = n_seed + batches * BATCH_ROWS;
    let corpus = bench_corpus("uniform", n_final, Some(derive_seed(config.seed, 0)))
        .ok_or_else(|| BenchError::Setup("unknown corpus uniform".into()))?;
    let (z, ell) = (corpus.z, corpus.ell);
    let x = Arc::new(corpus.x);
    let sigma = x.sigma();
    let spec = IndexSpec::new(
        IndexFamily::Minimizer(IndexVariant::ArrayGrid),
        IndexParams::new(z, ell, sigma).map_err(|e| setup_err("index parameters")(&e))?,
    );
    let work = WorkDir::create(config, "live")?;

    // The static reference over the final corpus: the expected answers,
    // the persisted size, and the weighted/index/arena layer timings.
    let ref_path = work.path().join("reference.iusx");
    let req = REQ_SETUP | 0xFFFF;
    let ref_start = Instant::now();
    let ref_root = tracer.record("reference", ref_start, ref_start, None, req);
    let (est, zest) = measured(tracer, "weighted.zestimation", ref_root, req, || {
        ZEstimation::build(&x, z)
    });
    let est = est.map_err(|e| setup_err("z-estimation")(&e))?;
    let pool = pattern_pool(
        &est,
        PATTERN_LENGTHS.map(|f| f * ell / 4),
        sigma,
        config.patterns,
        derive_seed(config.seed, 1),
    )?;
    let (index, build) = measured(tracer, "index.build", ref_root, req, || {
        spec.build_with_estimation(&x, &est)
    });
    let index = index.map_err(|e| setup_err("index build")(&e))?;
    drop(est);
    let size_bytes = index.size_bytes() as u64;
    let (saved, save) = measured(tracer, "index.save", ref_root, req, || {
        std::fs::File::create(&ref_path).and_then(|mut file| index.save_to(&mut file))
    });
    saved.map_err(|e| setup_err("index save")(&e))?;
    drop(index);
    let file_bytes = std::fs::metadata(&ref_path)
        .map_err(|e| setup_err("index file size")(&e))?
        .len();
    let (reference, open) = measured(tracer, "arena.open", ref_root, req, || {
        ServedIndex::load(&ref_path, Some(x.clone()))
    });
    tracer.finish(ref_root, Instant::now());
    let reference = reference.map_err(|e| setup_err("reference open")(&e))?;
    let ServedIndex::Single { index, corpus } = &reference else {
        return Err(BenchError::Setup(
            "expected a single-machine index file".into(),
        ));
    };
    let mut expected = expected_answers(index, corpus, &pool)?;
    drop(reference);
    if config.perturb_expected {
        perturb(&mut expected);
    }

    let seed_x = rows(&x, 0, n_seed)?;
    let batch_x: Vec<WeightedString> = (0..batches)
        .map(|k| rows(&x, n_seed + k * BATCH_ROWS, n_seed + (k + 1) * BATCH_ROWS))
        .collect::<Result<_, _>>()?;
    let live_config = LiveConfig {
        flush_threshold: config.live_flush_threshold,
        ..LiveConfig::default()
    };

    let mut reps = Vec::new();
    let mut serving: Option<(Server, Arc<LiveIndex>)> = None;
    for rep in 0..config.setup_reps.max(1) {
        if let Some((previous, live)) = serving.take() {
            // Background merges of the previous repetition must not run
            // inside the next one's timed window.
            settle(&live)?;
            previous.shutdown();
            drop(live);
            let _ = std::fs::remove_dir_all(work.path().join(format!("wal-{}", rep - 1)));
        }
        let wal_dir = work.path().join(format!("wal-{rep}"));
        let (server, live, sample) = setup(&seed_x, spec, &live_config, &wal_dir, tracer, rep)?;
        reps.push(sample);
        serving = Some((server, live));
    }
    let (server, live) = serving.expect("at least one set-up ran");
    let addr = server.local_addr();
    settle(&live)?;

    let before = live.live_stats();
    let errors_before = server_errors(addr)?;
    let query_count = scheduled_requests(config, QUERY_QPS, INGEST_SHARE);
    let ingest_stream = query_stream(query_count, pool.len(), derive_seed(config.seed, 2));
    let acked = AtomicUsize::new(n_seed);
    let sent = AtomicUsize::new(n_seed);
    let start = Instant::now() + Duration::from_millis(50);

    let mut append_tracer = tracer.fork(3 * batches + 16);
    let mut query_tracer = tracer.fork(3 * query_count + 16);
    let (appends, queries) = std::thread::scope(|scope| {
        let appender = scope.spawn(|| {
            let mut client = Client::connect(addr).map_err(|e| setup_err("connect")(&e))?;
            let mut flushes = before.flushes;
            let mut flush_call_ms = Vec::new();
            let stripe = Stripe {
                start,
                rate: APPEND_BATCHES_PER_S,
                first: 0,
                step: 1,
                count: batches,
            };
            let names = SpanNames {
                request: "client.append",
                call: "server.append",
            };
            let appended = open_loop(
                stripe,
                &mut append_tracer,
                names,
                REQ_APPEND,
                |k| {
                    sent.store(n_seed + (k + 1) * BATCH_ROWS, Ordering::SeqCst);
                    Ok(client.append(&batch_x[k])?)
                },
                |k, snapshot, call_us| {
                    let want = n_seed + (k + 1) * BATCH_ROWS;
                    if snapshot.corpus_len as usize != want {
                        return Err(OpError::Mismatch(format!(
                            "append {k} acked corpus length {}, expected {want}",
                            snapshot.corpus_len
                        )));
                    }
                    acked.store(want, Ordering::SeqCst);
                    let now = live.live_stats().flushes;
                    if now > flushes {
                        flush_call_ms.push(call_us / 1e3);
                    }
                    flushes = now;
                    Ok(())
                },
            )
            .map_err(BenchError::Mismatch)?;
            Ok::<_, BenchError>((appended, flush_call_ms))
        });
        let querier = scope.spawn(|| {
            let mut client = Client::connect(addr).map_err(|e| setup_err("connect")(&e))?;
            let mut segments = Vec::with_capacity(query_count);
            let stripe = Stripe {
                start,
                rate: QUERY_QPS,
                first: 0,
                step: 1,
                count: query_count,
            };
            let names = SpanNames {
                request: "client.request",
                call: "server.roundtrip",
            };
            let queried = open_loop(
                stripe,
                &mut query_tracer,
                names,
                REQ_QUERY,
                |i| {
                    let acked_before = acked.load(Ordering::SeqCst);
                    Ok((acked_before, client.query(&pool[ingest_stream[i]])?))
                },
                |i, (acked_before, outcome), _| {
                    let sent_after = sent.load(Ordering::SeqCst);
                    segments.push(live.num_segments() as f64);
                    let p = ingest_stream[i];
                    check_prefix(
                        &outcome.positions,
                        &expected[p],
                        pool[p].len(),
                        acked_before,
                        sent_after,
                        p,
                    )
                },
            )
            .map_err(BenchError::Mismatch)?;
            Ok::<_, BenchError>((queried, segments))
        });
        (
            appender.join().expect("appender thread panicked"),
            querier.join().expect("querier thread panicked"),
        )
    });
    tracer.absorb(append_tracer);
    tracer.absorb(query_tracer);
    let (appends, flush_call_ms): (OpenLoop, Vec<f64>) = appends?;
    let (queries, segments): (OpenLoop, Vec<f64>) = queries?;
    let after = live.live_stats();

    // After ingest every answer equals the static index's over the final
    // corpus.
    if live.len() != n_final {
        return Err(BenchError::Mismatch(format!(
            "live corpus holds {} positions after ingest, expected {n_final}",
            live.len()
        )));
    }
    {
        let mut client = Client::connect(addr).map_err(|e| setup_err("connect")(&e))?;
        for (p, pattern) in pool.iter().enumerate() {
            let outcome = client
                .query(pattern)
                .map_err(|e| setup_err("post-ingest query")(&e))?;
            if let Err(OpError::Mismatch(m)) = check_exact(&outcome.positions, &expected[p], p) {
                return Err(BenchError::Mismatch(format!("after ingest: {m}")));
            }
        }
    }

    // The end-to-end query metrics are measured on the settled index: the
    // tail during ingest is set by where flushes and merges happen to
    // fall, too unsteady to bound (it is reported per layer).
    settle(&live)?;
    let settled_count = scheduled_requests(config, SETTLED_QPS, SETTLED_SHARE);
    let stream = query_stream(settled_count, pool.len(), derive_seed(config.seed, 3));
    let settled = open_loop_queries(addr, &pool, &expected, &stream, SETTLED_QPS, tracer)?;
    let mut report = Report::default();
    let mut counts = appends.counts;
    counts.add(queries.counts);
    counts.add(settled.counts);
    if config.trace {
        let (closed_rt, closed_counts) = capacity_phase(
            addr,
            &pool,
            &expected,
            &stream,
            capacity_seconds(config),
            tracer,
            &mut report,
        )?;
        counts.add(closed_counts);
        let engine = engine_pass(&*live, &x, &pool, &expected, &stream, tracer)?;
        report_query_layers(&mut report, &engine, &closed_rt);
    }
    let errors = server_errors(addr)?.saturating_sub(errors_before);
    server.shutdown();
    drop(live);

    report.attempted = counts.attempted;
    report.failed = counts.failed + errors.saturating_sub(counts.refusals);

    report_setup(&mut report, &reps, SetupPick::Median);
    // The weighted/index/arena layers run in this workload only for the
    // static reference over the final corpus.
    report.set("weighted.zestimation_ms", zest.ms, 1);
    report.set(
        "weighted.zestimation_peak_mb",
        zest.peak_growth as f64 / MB,
        1,
    );
    report.set("index.build_ms", build.ms, 1);
    report.set("index.build_peak_mb", build.peak_growth as f64 / MB, 1);
    report.set("index.save_ms", save.ms, 1);
    report.set("arena.open_ms", open.ms, 1);
    report.set("index.file_bytes", file_bytes as f64, 1);
    report.set("index.size_bytes", size_bytes as f64, 1);
    report.set("index_bytes_per_pos", file_bytes as f64 / n_final as f64, 1);

    report.note_quantiles("settled open-loop latency", &settled.latency_us);
    report.note_quantiles("ingest open-loop latency", &queries.latency_us);
    report.set_windowed_median("query_p50_us", &settled.latency_us);
    report.set_quantile("query_p99_us", &settled.latency_us, 0.99);
    report.set_quantile("live.ingest_query_p99_us", &queries.latency_us, 0.99);
    let late: Vec<f64> = [&settled.late_us, &queries.late_us, &appends.late_us]
        .into_iter()
        .flatten()
        .copied()
        .collect();
    report.set_quantile("client.send_late_p50_us", &late, 0.50);
    report.set_quantile("client.send_late_p99_us", &late, 0.99);
    report.set("server.refusals", counts.refusals as f64, 1);
    report.set("server.errors", errors as f64, 1);
    report.set_quantile("append_p50_us", &appends.latency_us, 0.50);
    report.set_quantile("append_p99_us", &appends.latency_us, 0.99);
    report.set_quantile("live.append_call_p50_us", &appends.call_us, 0.50);
    report.set_quantile("live.append_call_p99_us", &appends.call_us, 0.99);
    report.set(
        "live.flush_append_ms",
        median(&flush_call_ms),
        flush_call_ms.len(),
    );
    report.set_quantile("live.query_call_p50_us", &queries.call_us, 0.50);
    report.set("live.segments_mean", mean(&segments), segments.len());
    report.set("live.flushes", (after.flushes - before.flushes) as f64, 1);
    report.set(
        "live.compactions",
        (after.compactions - before.compactions) as f64,
        1,
    );
    report.set(
        "live.compaction_errors",
        (after.compaction_errors - before.compaction_errors) as f64,
        1,
    );
    let appended_bytes = (batches * BATCH_ROWS * sigma * std::mem::size_of::<f64>()) as f64;
    report.set(
        "live.wal_bytes_per_appended_byte",
        (after.wal_bytes - before.wal_bytes) as f64 / appended_bytes,
        batches,
    );
    report.note(format!(
        "workload live-uniform: corpus uniform z={z} ell={ell}, MWSA-G segments, seeded with \
         {n_seed} positions, {batches} appends of {BATCH_ROWS} rows at {APPEND_BATCHES_PER_S}/s \
         (final n={n_final}), queries open loop at {QUERY_QPS} q/s during ingest ({query_count} \
         requests) and at {SETTLED_QPS} q/s over {} connections once settled ({} requests), \
         fsync policy record, flush threshold {}, {} set-up repetitions",
        crate::WORKERS,
        stream.len(),
        live_config.flush_threshold,
        reps.len()
    ));
    report.note(format!(
        "error_frac {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_rule_bounds_an_answer_from_both_sides() {
        let final_answer = [10, 50, 90];
        // m = 10: 10 and 50 end within 60 acked positions, 90 ends at 100.
        assert!(check_prefix(&[10, 50], &final_answer, 10, 60, 60, 0).is_ok());
        assert!(check_prefix(&[10, 50, 90], &final_answer, 10, 60, 100, 0).is_ok());
        // Missing an acked occurrence.
        assert!(check_prefix(&[10], &final_answer, 10, 60, 60, 0).is_err());
        // Reporting beyond what was sent.
        assert!(check_prefix(&[10, 50, 90], &final_answer, 10, 60, 99, 0).is_err());
        // Reporting a non-occurrence.
        assert!(check_prefix(&[10, 20, 50], &final_answer, 10, 60, 60, 0).is_err());
    }
}
