//! Live split-process pipeline: the nRT-RIC platform and the RAN-side RIC
//! agent run in separate threads connected by a *real TCP socket* on
//! loopback, speaking the framed E2AP protocol. The agent streams a null-
//! cipher attack dataset; the RIC hosts MobiWatch + the LLM analyzer and
//! prints findings as they land.
//!
//! ```sh
//! cargo run --release --example live_ric_pipeline
//! ```

use sixg_xsec::analyzer::LlmAnalyzer;
use sixg_xsec::mobiwatch::{MobiWatch, MobiWatchConfig};
use sixg_xsec::pipeline::{Pipeline, PipelineConfig};
use std::net::TcpListener;
use xsec_attacks::DatasetBuilder;
use xsec_e2::{RicAgent, RicAgentConfig, TcpTransport};
use xsec_llm::{ModelPersonality, SimulatedExpert};
use xsec_mobiflow::extract_from_events;
use xsec_ric::{Grants, RicPlatform, SubscriptionSpec};
use xsec_types::{AttackKind, CellId, GnbId, Timestamp};

fn main() {
    // Offline: train the models the SMO will "deploy" to the RIC.
    let config = PipelineConfig::small(23, 30);
    println!("[smo]   training detectors on {} benign sessions ...", config.benign_sessions);
    let pipeline = Pipeline::train(&config);
    let models = pipeline.models().clone();

    // The dataset the RAN will observe live.
    let ds = DatasetBuilder::small(1023, 30).attack(AttackKind::NullCipher);
    let stream = extract_from_events(&ds.report.events);
    let total = stream.len();
    println!("[ran]   dataset ready: {total} telemetry records (null-cipher downgrade inside)");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    println!("[ric]   E2 termination listening on {addr}");

    // RIC process: platform + xApps.
    let ric = std::thread::spawn(move || {
        let (socket, peer) = listener.accept().expect("accept agent");
        println!("[ric]   agent connected from {peer}");
        let mut platform = RicPlatform::new();
        platform.add_agent(Box::new(TcpTransport::new(socket).unwrap()));

        let (watch, watch_state) = MobiWatch::new(models, MobiWatchConfig::default());
        let (analyzer, analyzer_state) = LlmAnalyzer::new(
            Box::new(SimulatedExpert::new(ModelPersonality::CHATGPT_4O)),
            "anomalies",
        );
        // Each xApp runs under its own identity holding only the grants
        // its role needs; sealing closes registration for the run.
        platform
            .register_xapp_scoped(
                Box::new(watch),
                SubscriptionSpec::telemetry(100),
                Grants::none().publish("anomalies"),
            )
            .expect("register mobiwatch");
        platform
            .register_xapp_scoped(
                Box::new(analyzer),
                SubscriptionSpec::topics_only(&["anomalies"]),
                Grants::none().subscribe("anomalies").publish("findings"),
            )
            .expect("register analyzer");
        platform.seal();

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let mut printed = 0;
        loop {
            match platform.pump() {
                Ok(_) => {}
                Err(e) => {
                    println!("[ric]   agent disconnected ({e}); shutting down");
                    break;
                }
            }
            let findings = analyzer_state.lock();
            for finding in findings.findings.iter().skip(printed) {
                let first_line =
                    finding.response.lines().next().unwrap_or_default().to_string();
                println!(
                    "[xapp]  alert @record {} score {:.4} -> {first_line}",
                    finding.at_record, finding.score
                );
            }
            printed = findings.findings.len();
            // Every record past the first N−1 completes a window, so the
            // stream is fully consumed when total−3 windows are scored.
            let scored = watch_state.lock().scores.len();
            if scored >= total.saturating_sub(3) && printed > 0 {
                break;
            }
            if std::time::Instant::now() > deadline {
                println!("[ric]   deadline reached");
                break;
            }
            std::thread::yield_now();
        }
        let watch_state = watch_state.lock();
        let analyzer_state = analyzer_state.lock();
        println!(
            "[ric]   done: {} windows scored, {} alerts, {} findings, {} for human review",
            watch_state.scores.len(),
            watch_state.alerts.len(),
            analyzer_state.findings.len(),
            analyzer_state.human_review.len()
        );
        let handler = platform.obs().snapshot().histogram_merged("xsec_ric_handler_latency_us");
        println!(
            "[ric]   handler latency: mean {:.0} µs, p50 {:.0} µs, p99 {:.0} µs, max {} µs ({} the 1 s near-RT budget)",
            handler.mean,
            handler.p50,
            handler.p99,
            handler.max,
            if handler.max > 1_000_000 { "over" } else { "within" }
        );
    });

    // RAN process: agent streaming telemetry in 100ms report periods.
    let transport = TcpTransport::connect(&addr.to_string()).expect("connect to RIC");
    let mut agent =
        RicAgent::new(RicAgentConfig { gnb_id: GnbId(1), cell: CellId(1) }, transport).unwrap();
    while !agent.is_setup() || agent.subscription_count() == 0 {
        agent.poll(Timestamp::ZERO).expect("handshake");
        std::thread::yield_now();
    }
    println!("[ran]   E2 setup + subscription complete; streaming ...");
    let mut bucket_end = Timestamp(100_000);
    'stream: for record in &stream.records {
        while record.timestamp >= bucket_end {
            if agent.poll(bucket_end).is_err() {
                break 'stream; // the RIC hung up
            }
            bucket_end = Timestamp(bucket_end.as_micros() + 100_000);
        }
        agent.push_record(record.clone());
    }
    while agent.backlog() > 0 {
        // The RIC may close the socket once it has seen everything it
        // needs; a reset here just means "done".
        if agent.poll(bucket_end).is_err() {
            break;
        }
        bucket_end = Timestamp(bucket_end.as_micros() + 100_000);
    }
    println!("[ran]   {} records shipped", total - agent.backlog());
    ric.join().unwrap();
}
