//! # xsec-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation section, plus the timing gate the whole-stack benchmark
//! (`benchmark/`) does not cover (`kernels`: reactor scale, beside
//! report-only kernel and training rates).
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Table 2 | `cargo run --release -p xsec-bench --bin table2` |
//! | Table 3 | `cargo run --release -p xsec-bench --bin table3` |
//! | Figure 2 | `cargo run --release -p xsec-bench --bin fig2` |
//! | Figure 4 | `cargo run --release -p xsec-bench --bin fig4` |
//! | Figure 5 | `cargo run --release -p xsec-bench --bin fig5` |
//! | design-choice ablations | `cargo run --release -p xsec-bench --bin ablations` |
//!
//! Every binary accepts `--quick` for a reduced-scale run (used in CI) and
//! writes its output both to stdout and to `target/experiments/<name>.txt`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write;
use std::path::{Path, PathBuf};
use xsec_obs::{FlightRecorder, Snapshot};

/// Whether `--quick` was passed on the command line.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Writes an experiment report under `target/experiments/` and echoes the
/// path, so EXPERIMENTS.md can reference reproducible artifacts.
pub fn save_report(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    let path = dir.join(format!("{name}.txt"));
    let mut file = std::fs::File::create(&path).expect("create report file");
    file.write_all(contents.as_bytes()).expect("write report");
    eprintln!("bench: report saved to {}", path.display());
    path
}

/// Writes a run's metrics snapshot as `target/experiments/<stem>.prom` and
/// `<stem>.json`, echoing both paths.
pub fn save_metrics(snapshot: &Snapshot, stem: &str) -> (PathBuf, PathBuf) {
    let (prom, json) = snapshot
        .write_files(Path::new("target/experiments"), stem)
        .expect("write metrics files");
    eprintln!("bench: metrics saved to {} and {}", prom.display(), json.display());
    (prom, json)
}

/// Writes a run's captured incident traces as `target/experiments/
/// <stem>.jsonl` (replayable decision trace) and `<stem>_trace.json`
/// (Perfetto/chrome://tracing), echoing both paths and the incident count.
pub fn save_incidents(recorder: &FlightRecorder, stem: &str) -> (PathBuf, PathBuf) {
    let (jsonl, perfetto) = recorder
        .write_incident_files(Path::new("target/experiments"), stem)
        .expect("write incident files");
    eprintln!(
        "bench: {} incident trace(s) saved to {} and {}",
        recorder.incidents().len(),
        jsonl.display(),
        perfetto.display()
    );
    (jsonl, perfetto)
}

/// Renders a `stage  count  p50  p90  p99  max` table over the pipeline's
/// latency histograms — one row per labelled series, µs shown as ms where
/// large. Stages with no samples render as `(no samples)`.
pub fn render_stage_latencies(snapshot: &Snapshot, stages: &[(&str, &str)]) -> String {
    fn us(v: f64) -> String {
        if v >= 10_000.0 {
            format!("{:.1}ms", v / 1000.0)
        } else {
            format!("{v:.0}µs")
        }
    }
    let mut text = format!(
        "  {:<34} {:>7} {:>9} {:>9} {:>9} {:>9}\n",
        "stage", "count", "p50", "p90", "p99", "max"
    );
    for (stage, metric) in stages {
        let series = snapshot.histograms(metric);
        if series.is_empty() || series.iter().all(|(_, h)| h.count == 0) {
            text.push_str(&format!("  {stage:<34} (no samples)\n"));
            continue;
        }
        for (sample, h) in series {
            if h.count == 0 {
                continue;
            }
            let label = if sample.labels.is_empty() {
                stage.to_string()
            } else {
                let tags: Vec<String> =
                    sample.labels.iter().map(|(_, v)| v.clone()).collect();
                format!("{stage} [{}]", tags.join(","))
            };
            text.push_str(&format!(
                "  {label:<34} {:>7} {:>9} {:>9} {:>9} {:>9}\n",
                h.count,
                us(h.p50),
                us(h.p90),
                us(h.p99),
                us(h.max as f64),
            ));
        }
    }
    text
}

/// The detection→enforcement stages every pipeline run records, in
/// pipeline order, as `(display name, metric name)` pairs.
pub const PIPELINE_STAGES: &[(&str, &str)] = &[
    ("ingest (E2 drain per pump)", "xsec_e2_decode_latency_us"),
    ("featurize", "xsec_mobiwatch_featurize_latency_us"),
    ("inference", "xsec_mobiwatch_inference_latency_us"),
    ("analyze (LLM turnaround)", "xsec_analyzer_turnaround_us"),
    ("mitigate (control ack)", "xsec_ric_control_ack_latency_us"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_obs::Obs;

    #[test]
    fn save_report_round_trips() {
        let path = save_report("selftest", "hello\n");
        assert_eq!(std::fs::read_to_string(path).unwrap(), "hello\n");
    }

    #[test]
    fn stage_table_renders_labelled_series_and_gaps() {
        let obs = Obs::new();
        let h = obs.histogram("xsec_mobiwatch_inference_latency_us", &[("detector", "autoencoder")]);
        h.observe(120);
        h.observe(480);
        let table = render_stage_latencies(&obs.snapshot(), PIPELINE_STAGES);
        assert!(table.contains("inference [autoencoder]"), "labelled row missing:\n{table}");
        assert!(table.contains("ingest (E2 drain per pump)"), "stage column missing");
        assert!(table.contains("(no samples)"), "empty stages must be visible");
    }

    #[test]
    fn save_metrics_writes_both_expositions() {
        let obs = Obs::new();
        obs.counter("xsec_selftest_total", &[]).inc();
        let (prom, json) = save_metrics(&obs.snapshot(), "selftest-metrics");
        assert!(std::fs::read_to_string(prom).unwrap().contains("xsec_selftest_total 1"));
        assert!(std::fs::read_to_string(json).unwrap().contains("xsec_selftest_total"));
    }
}
