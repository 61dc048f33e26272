//! The open-loop latency-SLO benchmark behind `reproduce --bench-slo` and
//! `BENCH_slo.json`.
//!
//! In a closed-loop benchmark each client keeps exactly one request in
//! flight, so the offered load collapses the moment the server slows down,
//! and queueing delay hides from the latency percentiles — the
//! coordinated-omission trap. This harness drives a served index
//! *open-loop*: every request has an **intended send
//! time** on a fixed arrival schedule (at rate R, request i is due at
//! `i/R` seconds), a sender that falls behind does not stretch the
//! schedule, and every latency is measured **from the intended send
//! time** — a request that waited behind a stalled worker is charged its
//! full queueing delay, whether or not the client had sent it yet.
//!
//! Per corpus the harness first measures a closed-loop baseline
//! (`timed_sweep`), then sweeps arrival rates — explicit
//! ones (`--bench-rates`) or, by default, [`RATE_FRACTIONS`] of the
//! measured closed-loop throughput — and reports per rate the achieved
//! rate and the p50/p99/max latency from intended send. The sweep
//! derives:
//!
//! * the **knee**: the lowest swept rate above every SLO-meeting rate
//!   whose p99 violates the SLO (p99 < 1 ms by default) — an isolated
//!   mid-sweep miss below a rate that meets the SLO again is scheduler
//!   noise on a shared host, reported in the rows but not a knee;
//! * **max throughput under SLO**: the highest *achieved* rate whose p99
//!   still meets the SLO;
//! * the **closed-vs-open p99 delta** at that rate — the latency the
//!   closed-loop percentile hides at comparable load.
//!
//! Every wire answer is still asserted identical to an in-process
//! `query_into` before any timing is trusted. On a single-CPU host the
//! senders and the server share one core, so the knee lands well below
//! the closed-loop throughput; the client/worker counts are recorded in
//! the JSON so the numbers can be read honestly.

use crate::report::percentile;
use ius_datasets::corpora::{bench_corpora, BenchCorpus};
use ius_datasets::patterns::PatternSampler;
use ius_index::{IndexFamily, IndexParams, IndexSpec, IndexVariant, QueryScratch, UncertainIndex};
use ius_server::{Client, ServedIndex, Server, ServerConfig};
use ius_weighted::ZEstimation;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Arrival rates swept when `--bench-rates` is not given, as fractions of
/// the corpus's measured closed-loop throughput. The window reaches far
/// *below* the closed-loop number on purpose: open-loop senders share the
/// host with the server, and charging latency from intended send means the
/// p99-under-SLO knee sits well under the closed-loop throughput — that
/// gap is the finding, so the sweep has to straddle it.
pub const RATE_FRACTIONS: [f64; 5] = [0.05, 0.125, 0.25, 0.5, 1.0];

/// Parameters of one SLO-benchmark run.
#[derive(Debug, Clone)]
pub struct SloBenchConfig {
    /// Length of the generated weighted strings.
    pub n: usize,
    /// Query patterns sampled per dataset (half at ℓ, half at 2ℓ).
    pub patterns: usize,
    /// Concurrent sender threads (one connection each).
    pub clients: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Explicit arrival rates to sweep, requests/s. Empty: derive per
    /// corpus as [`RATE_FRACTIONS`] × the closed-loop throughput.
    pub rates: Vec<f64>,
    /// Open-loop requests per rate step.
    pub requests_per_rate: usize,
    /// The SLO: 99th-percentile latency from intended send time must stay
    /// below this many microseconds.
    pub slo_p99_us: f64,
}

impl Default for SloBenchConfig {
    fn default() -> Self {
        Self {
            n: 100_000,
            patterns: 200,
            clients: 4,
            workers: 2,
            rates: Vec::new(),
            requests_per_rate: 2_000,
            slo_p99_us: 1_000.0,
        }
    }
}

impl SloBenchConfig {
    /// Sender connections actually opened: [`clients`](Self::clients)
    /// capped at the worker-pool size.
    ///
    /// The serving model dedicates a worker to a connection for the
    /// connection's whole lifetime (the wire protocol is strict
    /// request→response lockstep — multiplexing is ROADMAP item 4's
    /// serving half). A sender connection beyond the pool is therefore
    /// only picked up when an earlier connection *closes*; in an
    /// open-loop sweep nothing closes until the schedule ends, so such a
    /// sender's every latency would include the wait for a worker —
    /// measuring connection starvation, not service under load.
    pub fn sender_connections(&self) -> usize {
        self.clients.min(self.workers).max(1)
    }
}

/// The closed-loop baseline of one corpus (one request in flight per
/// client, latency measured from actual send).
#[derive(Debug, Clone)]
pub struct ClosedLoopBaseline {
    /// Requests in the baseline sweep.
    pub queries: usize,
    /// Closed-loop throughput, queries per second.
    pub throughput_qps: f64,
    /// Median round trip, microseconds.
    pub p50_us: f64,
    /// 99th-percentile round trip, microseconds.
    pub p99_us: f64,
}

/// One open-loop rate step.
#[derive(Debug, Clone)]
pub struct RateBench {
    /// The scheduled arrival rate, requests/s.
    pub target_qps: f64,
    /// Requests completed divided by the sweep wall time — falls below
    /// `target_qps` once the server saturates.
    pub achieved_qps: f64,
    /// Requests sent at this rate.
    pub requests: usize,
    /// Median latency from intended send time, microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency from intended send time, microseconds.
    pub p99_us: f64,
    /// Worst latency from intended send time, microseconds.
    pub max_us: f64,
    /// Whether `p99_us` met the SLO.
    pub slo_met: bool,
}

/// All SLO measurements of one corpus.
#[derive(Debug, Clone)]
pub struct SloDatasetBench {
    /// Dataset label (`uniform`, `pangenome`, …).
    pub name: String,
    /// Human-readable generator parameters.
    pub params: String,
    /// Weight threshold z.
    pub z: f64,
    /// Minimum pattern length ℓ.
    pub ell: usize,
    /// The closed-loop baseline.
    pub closed: ClosedLoopBaseline,
    /// The rate sweep, ascending by target rate.
    pub rates: Vec<RateBench>,
    /// The capacity knee: the lowest swept rate above every SLO-meeting
    /// rate whose p99 violated the SLO (`None` when the top swept rate
    /// met it). An isolated mid-sweep miss below a rate that meets the
    /// SLO again stays visible in [`rates`](Self::rates) but is not a
    /// knee.
    pub knee_qps: Option<f64>,
    /// The highest achieved rate whose p99 met the SLO (`None` when no
    /// rate did).
    pub max_under_slo_qps: Option<f64>,
    /// Open-loop p99 minus closed-loop p99 at the rate behind
    /// `max_under_slo_qps` (or at the lowest swept rate when no rate met
    /// the SLO): the queueing delay the closed-loop number hides.
    pub closed_vs_open_p99_delta_us: f64,
    /// The target rate the delta was read at.
    pub delta_at_qps: f64,
}

/// One timed sweep: `clients` threads, each a fresh connection, each
/// streaming its stripe of the patterns in collect mode, asserting every
/// answer against the expected outputs. Returns the per-request round-trip
/// latencies (µs) and the sweep's wall time (seconds).
fn timed_sweep(
    addr: SocketAddr,
    clients: usize,
    patterns: &[Vec<u8>],
    expected: &[Vec<usize>],
    passes: usize,
) -> (Vec<f64>, f64) {
    let sweep_start = Instant::now();
    let mut all_latencies = Vec::with_capacity(patterns.len() * passes);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("bench client connect");
                let mut latencies = Vec::new();
                for _ in 0..passes.max(1) {
                    for (i, pattern) in patterns.iter().enumerate().skip(c).step_by(clients) {
                        let t = Instant::now();
                        let outcome = client.query(pattern).expect("bench query");
                        latencies.push(t.elapsed().as_secs_f64() * 1e6);
                        assert_eq!(
                            outcome.positions, expected[i],
                            "served output differs from in-process query_into (pattern {i})"
                        );
                    }
                }
                latencies
            }));
        }
        for handle in handles {
            all_latencies.extend(handle.join().expect("bench client thread"));
        }
    });
    (all_latencies, sweep_start.elapsed().as_secs_f64())
}

/// One open-loop sweep: `clients` sender threads, each a fresh connection,
/// each owning the stripe `i ≡ c (mod clients)` of a shared arrival
/// schedule at `rate_qps`. Latencies (µs) are measured from each request's
/// intended send time; the second return is the sweep wall time (seconds,
/// slowest sender).
fn open_loop_run(
    addr: SocketAddr,
    clients: usize,
    patterns: &[Vec<u8>],
    expected: &[Vec<usize>],
    rate_qps: f64,
    total_requests: usize,
) -> (Vec<f64>, f64) {
    assert!(rate_qps > 0.0, "arrival rate must be positive");
    let barrier = std::sync::Barrier::new(clients);
    let mut all_latencies = Vec::with_capacity(total_requests);
    let mut wall = 0.0f64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("slo client connect");
                barrier.wait();
                let start = Instant::now();
                let mut latencies = Vec::new();
                let mut i = c;
                while i < total_requests {
                    let due = Duration::from_secs_f64(i as f64 / rate_qps);
                    // Sleep until the intended send time. A sender that is
                    // already late sends immediately — the schedule never
                    // stretches; the wait shows up in the latency instead.
                    // Plain sleep, never spin or yield-poll: senders share
                    // the host with the server, and a sender burning CPU
                    // on arrival precision starves the very workers it is
                    // measuring (ms-scale scheduler tails at exactly the
                    // rates whose inter-arrival gap a poll loop covers).
                    // Sleep overshoot makes the sender *late*, and
                    // lateness is charged to latency below — the honest
                    // direction for an SLO harness to err in.
                    let elapsed = start.elapsed();
                    if elapsed < due {
                        std::thread::sleep(due - elapsed);
                    }
                    let p = i % patterns.len();
                    let outcome = client.query(&patterns[p]).expect("slo query");
                    // From *intended* send: queueing behind a late sender
                    // counts, which is the whole point of the harness.
                    let lat = start.elapsed().saturating_sub(due);
                    latencies.push(lat.as_secs_f64() * 1e6);
                    assert_eq!(
                        outcome.positions, expected[p],
                        "served output differs from in-process query_into (pattern {p})"
                    );
                    i += clients;
                }
                (latencies, start.elapsed().as_secs_f64())
            }));
        }
        for handle in handles {
            let (latencies, thread_wall) = handle.join().expect("slo client thread");
            all_latencies.extend(latencies);
            wall = wall.max(thread_wall);
        }
    });
    (all_latencies, wall)
}

/// Benchmarks one corpus: closed-loop baseline, then the open-loop rate
/// sweep with knee/SLO/delta derivation.
fn bench_dataset(corpus: &BenchCorpus, dir: &Path, config: &SloBenchConfig) -> SloDatasetBench {
    let x = &corpus.x;
    let senders = config.sender_connections();
    eprintln!(
        "[bench-slo] {} (n = {}, z = {}, ell = {}, {} patterns, {} sender(s), {} worker(s))",
        corpus.name,
        x.len(),
        corpus.z,
        corpus.ell,
        config.patterns,
        senders,
        config.workers
    );
    let index_params = IndexParams::new(corpus.z, corpus.ell, x.sigma()).expect("params");
    let spec = IndexSpec::new(
        IndexFamily::Minimizer(IndexVariant::ArrayGrid),
        index_params,
    );
    let index = spec.build(x).expect("build MWSA-G");

    let est = ZEstimation::build(x, corpus.z).expect("estimation");
    let mut sampler = PatternSampler::new(&est, 0x510);
    let mut patterns = sampler.sample_many(corpus.ell, config.patterns / 2);
    patterns.extend(sampler.sample_many(2 * corpus.ell, config.patterns - config.patterns / 2));
    assert!(
        !patterns.is_empty(),
        "{}: no solid patterns of length {}",
        corpus.name,
        corpus.ell
    );
    let mut scratch = QueryScratch::new();
    let expected: Vec<Vec<usize>> = patterns
        .iter()
        .map(|p| {
            let mut out = Vec::new();
            index
                .query_into(p, x, &mut scratch, &mut out)
                .expect("in-process query");
            out
        })
        .collect();

    let path = dir.join(format!("{}.iusx", corpus.name));
    index
        .save_to(&mut std::fs::File::create(&path).expect("create index file"))
        .expect("save index");
    let served = ServedIndex::load(&path, Some(Arc::new(x.clone()))).expect("load index file");
    let server = Server::bind(
        "127.0.0.1:0",
        served,
        Some(path),
        &ServerConfig {
            workers: config.workers,
            queue_depth: 64,
            ..Default::default()
        },
    )
    .expect("bind slo server");
    let addr = server.local_addr();

    // Closed-loop baseline over roughly as many requests as one rate step,
    // after one warm pass. Same connection count as the open-loop sweep,
    // so the closed-vs-open delta compares like with like.
    let passes = (config.requests_per_rate / patterns.len()).clamp(1, 64);
    timed_sweep(addr, senders, &patterns, &expected, 1);
    let (mut closed_lat, closed_wall) = timed_sweep(addr, senders, &patterns, &expected, passes);
    closed_lat.sort_by(f64::total_cmp);
    let closed = ClosedLoopBaseline {
        queries: closed_lat.len(),
        throughput_qps: closed_lat.len() as f64 / closed_wall,
        p50_us: percentile(&closed_lat, 0.50),
        p99_us: percentile(&closed_lat, 0.99),
    };
    eprintln!(
        "  closed loop: {:>9.0} q/s  p50 {:>8.1} us  p99 {:>8.1} us",
        closed.throughput_qps, closed.p50_us, closed.p99_us
    );

    let mut targets: Vec<f64> = if config.rates.is_empty() {
        RATE_FRACTIONS
            .iter()
            .map(|f| f * closed.throughput_qps)
            .collect()
    } else {
        config.rates.clone()
    };
    targets.retain(|r| *r > 0.0);
    targets.sort_by(f64::total_cmp);
    assert!(!targets.is_empty(), "the rate sweep needs a positive rate");

    let total_requests = config.requests_per_rate.max(senders);
    let mut rate_rows = Vec::new();
    for &target_qps in &targets {
        let (mut latencies, wall) = open_loop_run(
            addr,
            senders,
            &patterns,
            &expected,
            target_qps,
            total_requests,
        );
        latencies.sort_by(f64::total_cmp);
        let p99_us = percentile(&latencies, 0.99);
        let row = RateBench {
            target_qps,
            achieved_qps: latencies.len() as f64 / wall,
            requests: latencies.len(),
            p50_us: percentile(&latencies, 0.50),
            p99_us,
            max_us: latencies.last().copied().unwrap_or(0.0),
            slo_met: p99_us < config.slo_p99_us,
        };
        eprintln!(
            "  rate {:>8.0}/s: achieved {:>8.0}/s  p50 {:>8.1} us  p99 {:>9.1} us  max {:>9.1} us  {}",
            row.target_qps,
            row.achieved_qps,
            row.p50_us,
            row.p99_us,
            row.max_us,
            if row.slo_met { "SLO met" } else { "SLO MISSED" }
        );
        rate_rows.push(row);
    }
    server.shutdown();

    // The knee is the capacity boundary, not the first blip: the lowest
    // swept rate above *every* SLO-meeting rate whose p99 broke the SLO.
    // An isolated mid-sweep miss below a rate that meets the SLO again is
    // scheduler noise on a shared host — visible in the per-rate rows,
    // but not a knee. Rows are sorted by target rate, so that is the row
    // after the last SLO-meeting one.
    let knee_qps = match rate_rows.iter().rposition(|r| r.slo_met) {
        Some(last_met) => rate_rows.get(last_met + 1).map(|r| r.target_qps),
        None => rate_rows.first().map(|r| r.target_qps),
    };
    let best_under_slo = rate_rows
        .iter()
        .filter(|r| r.slo_met)
        .max_by(|a, b| a.achieved_qps.total_cmp(&b.achieved_qps));
    let max_under_slo_qps = best_under_slo.map(|r| r.achieved_qps);
    // The delta reads off the highest SLO-meeting rate — or, when every
    // rate missed, the lowest rate, which is the kindest comparison the
    // open loop can offer.
    let delta_row = best_under_slo.unwrap_or(&rate_rows[0]);
    let closed_vs_open_p99_delta_us = delta_row.p99_us - closed.p99_us;
    let delta_at_qps = delta_row.target_qps;
    eprintln!(
        "  knee {}  max under SLO {}  open-vs-closed p99 delta {:+.1} us (at {:.0}/s)",
        knee_qps.map_or("none".into(), |k| format!("{k:.0}/s")),
        max_under_slo_qps.map_or("none".into(), |m| format!("{m:.0}/s")),
        closed_vs_open_p99_delta_us,
        delta_at_qps
    );

    SloDatasetBench {
        name: corpus.name.to_string(),
        params: corpus.params.clone(),
        z: corpus.z,
        ell: corpus.ell,
        closed,
        rates: rate_rows,
        knee_qps,
        max_under_slo_qps,
        closed_vs_open_p99_delta_us,
        delta_at_qps,
    }
}

/// Runs the SLO benchmark on the four corpora.
pub fn run_slo_bench(config: &SloBenchConfig) -> Vec<SloDatasetBench> {
    let dir: PathBuf = std::env::temp_dir().join(format!("ius-bench-slo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    let results = bench_corpora(config.n)
        .iter()
        .map(|corpus| bench_dataset(corpus, &dir, config))
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    results
}

/// Renders the benchmark results as the `BENCH_slo.json` document.
pub fn render_slo_json(config: &SloBenchConfig, results: &[SloDatasetBench]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"n\": {}, \"patterns_per_dataset\": {}, \"requests_per_rate\": {}, \
         \"client_threads\": {}, \"workers\": {}, \"slo_p99_us\": {}, \"family\": \"MWSA-G\", {},\n",
        config.n,
        config.patterns,
        config.requests_per_rate,
        config.sender_connections(),
        config.workers,
        config.slo_p99_us,
        crate::report::json_host_fields(&[config.workers])
    ));
    out.push_str(
        "  \"note\": \"Open-loop latency-SLO sweep over a persisted MWSA-G index served over \
         loopback TCP. Each rate step schedules requests at fixed arrivals (request i due at \
         i/rate); a late sender never stretches the schedule, and every latency is measured \
         from the intended send time, so queueing delay is charged in full (no coordinated \
         omission). closed_loop is the same sweep with one request in flight per client, \
         latency from actual send — the comparison baseline. knee_qps is the lowest swept \
         rate above every SLO-meeting rate whose p99 broke the SLO (an isolated mid-sweep \
         miss below a rate that meets the SLO again is scheduler noise on a shared host, \
         visible in the rows but not a knee); max_under_slo_qps the highest achieved rate \
         that met it; closed_vs_open_p99_delta_us the open-minus-closed p99 at that rate. Rates \
         default to fractions of the measured closed-loop throughput unless --bench-rates \
         pins them. Sender connections are capped at the worker-pool size: a worker owns a \
         connection for its lifetime (no multiplexing yet), so an extra open-loop connection \
         would wait out the whole schedule for a worker and measure starvation, not service. \
         Senders and server share the host CPUs; every answer is asserted identical to an \
         in-process query_into.\",\n",
    );
    out.push_str("  \"datasets\": [\n");
    for (i, d) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", d.name));
        out.push_str(&format!("      \"params\": \"{}\",\n", d.params));
        out.push_str(&format!("      \"z\": {}, \"ell\": {},\n", d.z, d.ell));
        out.push_str(&format!(
            "      \"closed_loop\": {{ \"queries\": {}, \"throughput_qps\": {:.1}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1} }},\n",
            d.closed.queries, d.closed.throughput_qps, d.closed.p50_us, d.closed.p99_us
        ));
        out.push_str("      \"rates\": [\n");
        for (j, r) in d.rates.iter().enumerate() {
            out.push_str(&format!(
                "        {{ \"target_qps\": {:.1}, \"achieved_qps\": {:.1}, \"requests\": {}, \
                 \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"max_us\": {:.1}, \"slo_met\": {}, \
                 \"outputs_identical\": true }}{}\n",
                r.target_qps,
                r.achieved_qps,
                r.requests,
                r.p50_us,
                r.p99_us,
                r.max_us,
                r.slo_met,
                if j + 1 == d.rates.len() { "" } else { "," }
            ));
        }
        out.push_str("      ],\n");
        out.push_str(&format!(
            "      \"knee_qps\": {}, \"max_under_slo_qps\": {}, \
             \"closed_vs_open_p99_delta_us\": {:.1}, \"delta_at_qps\": {:.1}\n",
            d.knee_qps.map_or("null".into(), |k| format!("{k:.1}")),
            d.max_under_slo_qps
                .map_or("null".into(), |m| format!("{m:.1}")),
            d.closed_vs_open_p99_delta_us,
            d.delta_at_qps
        ));
        out.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_sweeps_explicit_rates_and_renders_json() {
        // Tiny end-to-end run with pinned rates; the output-identity
        // assertions inside the open-loop senders are the test.
        let config = SloBenchConfig {
            n: 2_000,
            patterns: 8,
            clients: 2,
            workers: 2,
            rates: vec![50.0, 200.0],
            requests_per_rate: 40,
            slo_p99_us: 1_000.0,
        };
        let results = run_slo_bench(&config);
        assert_eq!(results.len(), 4);
        for d in &results {
            assert!(d.closed.throughput_qps > 0.0);
            assert!(d.closed.p99_us >= d.closed.p50_us);
            assert_eq!(d.rates.len(), 2);
            assert_eq!(d.rates[0].target_qps, 50.0);
            for r in &d.rates {
                assert_eq!(r.requests, config.requests_per_rate);
                assert!(r.achieved_qps > 0.0);
                // The schedule bounds the achieved rate from above (give
                // 25% slack for wall-clock jitter at this tiny size).
                assert!(r.achieved_qps <= r.target_qps * 1.25);
                assert!(r.max_us >= r.p99_us && r.p99_us >= r.p50_us);
                assert_eq!(r.slo_met, r.p99_us < config.slo_p99_us);
            }
            // Derivations are consistent with the per-rate rows.
            if let Some(knee) = d.knee_qps {
                assert!(d.rates.iter().any(|r| r.target_qps == knee && !r.slo_met));
            }
            if d.rates.iter().all(|r| r.slo_met) {
                assert!(d.knee_qps.is_none());
            }
        }
        let json = render_slo_json(&config, &results);
        for needle in [
            "\"slo_p99_us\": 1000",
            "\"closed_loop\"",
            "\"knee_qps\"",
            "\"max_under_slo_qps\"",
            "\"closed_vs_open_p99_delta_us\"",
            "\"target_qps\": 50.0",
        ] {
            assert!(json.contains(needle), "JSON missing {needle:?}:\n{json}");
        }
    }

    #[test]
    fn open_loop_latency_is_charged_from_the_intended_send_time() {
        // A schedule far faster than one core can serve must report
        // growing queueing delay: the p99 from intended send dwarfs the
        // p50 the early requests enjoy, and the achieved rate falls short
        // of the target. This is the property a closed-loop sweep cannot
        // express.
        let corpus = bench_corpora(2_000).into_iter().next().expect("corpus");
        let dir = std::env::temp_dir().join(format!("ius-slo-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let config = SloBenchConfig {
            n: 2_000,
            patterns: 6,
            clients: 2,
            workers: 1,
            rates: vec![1.0e6],
            requests_per_rate: 200,
            slo_p99_us: 1_000.0,
        };
        let result = bench_dataset(&corpus, &dir, &config);
        std::fs::remove_dir_all(&dir).ok();
        let rate = &result.rates[0];
        assert!(
            rate.achieved_qps < rate.target_qps,
            "a million q/s schedule must saturate the server"
        );
        assert!(
            rate.max_us >= rate.p50_us,
            "queueing delay accumulates across the schedule"
        );
    }
}
