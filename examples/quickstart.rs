//! Quickstart: train the 6G-XSec pipeline on benign traffic from the
//! simulated 5G testbed, then drive a BTS DoS attack dataset through the
//! full O-RAN stack — RIC agent → E2 → nRT-RIC platform → MobiWatch xApp →
//! LLM-analyzer xApp — and print what came out.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sixg_xsec::pipeline::{Pipeline, PipelineConfig};
use sixg_xsec::scale::{Replay, ScaleDeployment};
use xsec_types::{AttackKind, TrafficClass};

fn main() {
    println!("== 6G-XSec quickstart ==\n");

    // 1. Collect a benign dataset and train both detectors in the SMO.
    let config = PipelineConfig::small(7, 40);
    println!(
        "training on {} benign UE sessions (window N={}, threshold p{}) ...",
        config.benign_sessions, config.detector_window, config.training.threshold_pct
    );
    let pipeline = Pipeline::train(&config);
    println!(
        "  autoencoder threshold: {:.5}\n  lstm threshold:        {:.5}\n",
        pipeline.models().ae_threshold.value,
        pipeline.models().lstm_threshold.value
    );

    // 2. Replay a BTS DoS attack dataset through the live pipeline.
    println!("replaying a BTS DoS attack dataset through the RIC ...");
    let stream = pipeline.eval_stream(TrafficClass::Attack(AttackKind::BtsDos));
    let mut d = ScaleDeployment::new(&pipeline, 1);
    let outcome = d.drive(&mut Replay(&stream.records));
    let confusion = pipeline.evaluate(&stream, &d);
    println!(
        "  {} telemetry records, {} windows flagged, {} alerts published",
        outcome.records, outcome.flagged_windows, outcome.alerts
    );
    println!(
        "  detector window recall {:.1}%, precision {:.1}%",
        confusion.recall().unwrap_or(0.0) * 100.0,
        confusion.precision().unwrap_or(0.0) * 100.0
    );
    println!(
        "  mean xApp handler latency: {:.0} µs (near-RT budget: 10ms–1s)\n",
        outcome.metrics.histogram_merged("xsec_ric_handler_latency_us").mean
    );

    // 3. Show the expert's explanation for the first *confirmed* finding
    //    (detector and LLM agree the window is anomalous).
    let confirmed = outcome
        .findings
        .iter()
        .find(|f| f.verdict == xsec_llm::CrossVerdict::ConfirmedAnomalous);
    match confirmed.or(outcome.findings.first()) {
        Some(finding) => {
            println!("== LLM analyzer verdict ({:?}) ==", finding.verdict);
            println!("{}", finding.response);
        }
        None => println!("(no findings — try a different seed)"),
    }

    // 4. Sanity: the same pipeline stays quiet on fresh benign traffic.
    let benign = pipeline.eval_stream(TrafficClass::Benign);
    let mut d = ScaleDeployment::new(&pipeline, 1);
    let alerts = d.drive(&mut Replay(&benign.records)).alerts;
    println!(
        "\nbenign control run: accuracy {:.1}%, {} alerts",
        pipeline.evaluate(&benign, &d).accuracy().unwrap_or(0.0) * 100.0,
        alerts
    );
}
