//! The read-only workloads `serve-pangenome` and `serve-rssi`: a persisted
//! MWSA-G index served over loopback TCP, queried open loop at a pinned
//! rate and then closed loop for capacity.

use crate::report::Report;
use crate::spans::{Tracer, REQ_SETUP};
use crate::{
    capacity_phase, capacity_seconds, derive_seed, engine_pass, expected_answers, growth_mb,
    measured, open_loop_queries, pattern_pool, perturb, query_stream, report_no_live_layer,
    report_query_layers, report_setup, scheduled_requests, server_config, server_errors, setup_err,
    BenchError, Config, SetupPick, SetupSample, WorkDir,
};
use ius::datasets::corpora::bench_corpus;
use ius::index::{IndexFamily, IndexParams, IndexSpec, IndexVariant, UncertainIndex};
use ius::server::{ServedIndex, Server};
use ius::weighted::{WeightedString, ZEstimation};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One read-only workload: the corpus and its pinned open-loop rate.
#[derive(Debug)]
pub struct ServeSpec {
    /// `ius_datasets::corpora` preset name.
    pub corpus: &'static str,
    /// Open-loop arrival rate over both connections, queries/s. A
    /// constant, never derived from a measured capacity: a faster server
    /// must be measured at the same load.
    pub rate_qps: f64,
}

/// `serve-pangenome`: z = 32, ℓ = 128; the served index is larger than L2.
pub const PANGENOME: ServeSpec = ServeSpec {
    corpus: "pangenome",
    rate_qps: 10_000.0,
};

/// `serve-rssi`: σ = 91, z = 64, ℓ = 8; a large index with large answers.
pub const RSSI: ServeSpec = ServeSpec {
    corpus: "rssi",
    rate_qps: 6_000.0,
};

/// Builds, saves, opens and serves the index once, timing each call.
fn setup(
    x: &Arc<WeightedString>,
    spec: &IndexSpec,
    path: &Path,
    tracer: &mut Tracer,
    rep: usize,
) -> Result<(Server, SetupSample), BenchError> {
    let req = REQ_SETUP | rep as u64;
    ius_memtrack::reset_peak();
    let base = ius_memtrack::live_bytes();
    let start = Instant::now();
    let root = tracer.record("setup", start, start, None, req);
    let (est, zest) = measured(tracer, "weighted.zestimation", root, req, || {
        ZEstimation::build(x, spec.params.z)
    });
    let est = est.map_err(|e| setup_err("z-estimation")(&e))?;
    let (index, build) = measured(tracer, "index.build", root, req, || {
        spec.build_with_estimation(x, &est)
    });
    let index = index.map_err(|e| setup_err("index build")(&e))?;
    drop(est);
    let size_bytes = index.size_bytes() as u64;
    let (saved, save) = measured(tracer, "index.save", root, req, || {
        std::fs::File::create(path).and_then(|mut file| index.save_to(&mut file))
    });
    saved.map_err(|e| setup_err("index save")(&e))?;
    drop(index);
    let (served, open) = measured(tracer, "arena.open", root, req, || {
        ServedIndex::load(path, Some(x.clone()))
    });
    let served = served.map_err(|e| setup_err("index open")(&e))?;
    let (server, bind) = measured(tracer, "server.bind", root, req, || {
        Server::bind(
            "127.0.0.1:0",
            served,
            Some(path.to_path_buf()),
            &server_config(),
        )
    });
    let server = server.map_err(|e| setup_err("bind")(&e))?;
    let end = Instant::now();
    tracer.finish(root, end);
    let peak_abs = [zest, build, save, open, bind]
        .iter()
        .map(|p| p.peak_abs)
        .max()
        .unwrap_or(base);
    let file_bytes = std::fs::metadata(path)
        .map_err(|e| setup_err("index file size")(&e))?
        .len();
    let sample = SetupSample {
        total_ms: (end - start).as_secs_f64() * 1e3,
        peak_mb: growth_mb(peak_abs, base),
        zest,
        build,
        save,
        open,
        bind,
        file_bytes,
        size_bytes,
        ..Default::default()
    };
    Ok((server, sample))
}

/// Runs one read-only workload.
pub fn run(
    config: &Config,
    workload: &ServeSpec,
    tracer: &mut Tracer,
) -> Result<Report, BenchError> {
    let corpus = bench_corpus(workload.corpus, config.n, Some(derive_seed(config.seed, 0)))
        .ok_or_else(|| BenchError::Setup(format!("unknown corpus {}", workload.corpus)))?;
    let (z, ell) = (corpus.z, corpus.ell);
    let x = Arc::new(corpus.x);
    let pool = {
        let est = ZEstimation::build(&x, z).map_err(|e| setup_err("z-estimation")(&e))?;
        pattern_pool(
            &est,
            [ell, 2 * ell],
            x.sigma(),
            config.patterns,
            derive_seed(config.seed, 1),
        )?
    };
    let spec = IndexSpec::new(
        IndexFamily::Minimizer(IndexVariant::ArrayGrid),
        IndexParams::new(z, ell, x.sigma()).map_err(|e| setup_err("index parameters")(&e))?,
    );
    let work = WorkDir::create(config, workload.corpus)?;
    let path = work.path().join("index.iusx");

    let mut reps = Vec::new();
    let mut serving: Option<Server> = None;
    for rep in 0..config.setup_reps.max(1) {
        if let Some(previous) = serving.take() {
            previous.shutdown();
        }
        let (server, sample) = setup(&x, &spec, &path, tracer, rep)?;
        reps.push(sample);
        serving = Some(server);
    }
    let server = serving.expect("at least one set-up ran");
    let addr = server.local_addr();

    // The in-process reference: the same file, opened again.
    let reference =
        ServedIndex::load(&path, Some(x.clone())).map_err(|e| setup_err("reference open")(&e))?;
    let ServedIndex::Single { index, corpus } = &reference else {
        return Err(BenchError::Setup(
            "expected a single-machine index file".into(),
        ));
    };
    let mut expected = expected_answers(index, corpus, &pool)?;
    if config.perturb_expected {
        perturb(&mut expected);
    }
    let count = scheduled_requests(config, workload.rate_qps, 1.0);
    let stream = query_stream(count, pool.len(), derive_seed(config.seed, 2));
    let errors_before = server_errors(addr)?;

    let open = open_loop_queries(addr, &pool, &expected, &stream, workload.rate_qps, tracer)?;

    let mut report = Report::default();
    let mut counts = open.counts;
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
        let engine = engine_pass(index, corpus, &pool, &expected, &stream, tracer)?;
        report_query_layers(&mut report, &engine, &closed_rt);
    }
    let errors = server_errors(addr)?.saturating_sub(errors_before);
    server.shutdown();

    report.attempted = counts.attempted;
    report.failed = counts.failed + errors.saturating_sub(counts.refusals);
    report_setup(&mut report, &reps, SetupPick::Fastest);
    let last = reps.last().copied().unwrap_or_default();
    report.set(
        "index_bytes_per_pos",
        last.file_bytes as f64 / x.len() as f64,
        1,
    );
    report.note_quantiles("open-loop latency", &open.latency_us);
    report.set_windowed_median("query_p50_us", &open.latency_us);
    report.set_quantile("query_p99_us", &open.latency_us, 0.99);
    report.set_quantile("client.send_late_p50_us", &open.late_us, 0.50);
    report.set_quantile("client.send_late_p99_us", &open.late_us, 0.99);
    report.set("server.refusals", counts.refusals as f64, 1);
    report.set("server.errors", errors as f64, 1);
    report_no_live_layer(&mut report);
    report.note(format!(
        "workload {}: corpus {} n={} z={z} ell={ell}, MWSA-G, {} patterns, open loop {} q/s \
         over {} connections ({} requests), {} workers, {} set-up repetitions",
        config.workload.name(),
        workload.corpus,
        x.len(),
        pool.len(),
        workload.rate_qps,
        crate::WORKERS,
        count,
        crate::WORKERS,
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
