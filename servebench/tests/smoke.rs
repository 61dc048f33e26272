//! Smoke mode: every workload at a tiny size, in both trace modes. Every
//! metric of the mode's table must be printed with its unit and sample
//! count, and the correctness gate must fire on a perturbed expected
//! answer.

use servebench::report::{Report, END_TO_END, PER_LAYER};
use servebench::{run, BenchError, Config, Workload};
use std::path::PathBuf;

/// A tiny run of `workload`; `tag` keeps the output directories of tests
/// running at the same time apart.
fn tiny(workload: Workload, trace: bool, tag: &str) -> Config {
    let mut config = Config::new(workload, 7, 0.5, trace);
    config.n = match workload {
        Workload::ServePangenome => 3_000,
        // Solid windows of length 2ℓ are rare in a short RSSI corpus.
        Workload::ServeRssi => 20_000,
        Workload::LiveUniform => 2_000,
    };
    config.patterns = 40;
    config.setup_reps = 2;
    config.live_flush_threshold = 512;
    config.out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{tag}-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    config
}

fn assert_complete(workload: Workload, trace: bool) {
    let config = tiny(workload, trace, "smoke");
    let report = run(&config).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0, "{}", workload.name());
    let text = report.render(trace).expect("every metric measured");
    for (name, unit) in Report::table(trace) {
        let line = text
            .lines()
            .find(|l| l.starts_with(&format!("metric {name} = ")))
            .unwrap_or_else(|| panic!("{}: {name} not printed:\n{text}", workload.name()));
        assert!(
            line.contains(&format!(" {unit} (samples ")),
            "{}: {line}",
            workload.name()
        );
    }
    let last = text.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for (name, _) in Report::table(trace) {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
    }
    std::fs::remove_dir_all(&config.out_dir).ok();
}

#[test]
fn serve_pangenome_prints_every_metric() {
    assert_complete(Workload::ServePangenome, false);
    assert_complete(Workload::ServePangenome, true);
}

#[test]
fn serve_rssi_prints_every_metric() {
    assert_complete(Workload::ServeRssi, false);
    assert_complete(Workload::ServeRssi, true);
}

#[test]
fn live_uniform_prints_every_metric() {
    assert_complete(Workload::LiveUniform, false);
    assert_complete(Workload::LiveUniform, true);
}

#[test]
fn the_gate_fires_on_a_perturbed_expected_answer() {
    for workload in Workload::ALL {
        let mut config = tiny(workload, false, "gate");
        config.perturb_expected = true;
        match run(&config) {
            Err(e @ BenchError::Mismatch(_)) => assert_eq!(e.exit_code(), 3),
            other => panic!("{}: expected a mismatch, got {other:?}", workload.name()),
        }
        std::fs::remove_dir_all(&config.out_dir).ok();
    }
}

#[test]
fn benchmark_json_lists_the_same_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    for workload in Workload::ALL {
        assert!(
            json.contains(&format!("{{\"name\": \"{}\", \"why\": ", workload.name())),
            "{}",
            workload.name()
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    let listed = json.matches("\"unit\": ").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
}
