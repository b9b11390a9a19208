//! End-to-end observability: one closed-loop run must leave a metrics
//! snapshot that explains every stage of the detection→mitigation budget —
//! E2 decode, MobiWatch featurize/inference, LLM analyzer turnaround, and
//! the per-agent Control-Ack round trip — and that snapshot must export to
//! both Prometheus text and JSON.

use sixg_xsec::pipeline::{Pipeline, PipelineConfig};
use sixg_xsec::scale::{LiveSim, Replay, ScaleDeployment};
use xsec_attacks::sustained_flood_simulator;
use xsec_obs::SampleValue;
use xsec_types::{AttackKind, TrafficClass};

#[test]
fn closed_loop_snapshot_covers_every_stage() {
    let pipeline = Pipeline::train(&PipelineConfig::small(31, 12));
    let outcome = ScaleDeployment::new(&pipeline, 1)
        .drive(&mut LiveSim::new(sustained_flood_simulator(31, 12, 200), |_, _| {}));
    let snap = &outcome.metrics;

    // Per-stage latency histograms, in pipeline order.
    for stage in [
        "xsec_e2_decode_latency_us",
        "xsec_mobiwatch_featurize_latency_us",
        "xsec_mobiwatch_inference_latency_us",
        "xsec_analyzer_turnaround_us",
        "xsec_ric_handler_latency_us",
        "xsec_ric_control_ack_latency_us",
    ] {
        assert!(snap.histogram_count(stage) > 0, "stage {stage} recorded no samples");
    }

    // The inference histogram is labelled by the detector in force.
    let inference = snap.histograms("xsec_mobiwatch_inference_latency_us");
    assert!(
        inference
            .iter()
            .any(|(s, _)| s.labels.contains(&("detector".into(), "autoencoder".into()))),
        "inference histogram must carry the detector label"
    );

    // Ack latency is attributed per agent, learned from the E2 Setup.
    let acks = snap.histograms("xsec_ric_control_ack_latency_us");
    assert!(
        acks.iter().any(|(s, h)| h.count > 0
            && s.labels.contains(&("agent".into(), "gnb-1".into()))),
        "per-agent ack latency missing for gnb-1"
    );

    // Mitigation issue→ack accounting per action kind (virtual time).
    let issued = snap.counter_total("xsec_control_actions_issued_total");
    let acked = snap.counter_total("xsec_control_actions_acked_total");
    assert!(issued > 0, "no control actions issued");
    assert!(acked > 0 && acked <= issued, "ack accounting off: {acked}/{issued}");
    assert!(
        snap.histogram_count("xsec_control_detection_to_ack_us") > 0,
        "detection→ack latency not sampled"
    );

    // The RAN side recorded into the same registry (sim.attach_obs).
    assert!(
        snap.counter_total("xsec_ran_gnb_mitigation_dropped_total") > 0,
        "gNB enforcement counters missing from the pipeline snapshot"
    );
    assert_eq!(
        snap.counter_total("xsec_e2_records_pushed_total"),
        outcome.records as u64,
        "E2 ingest counter disagrees with the evaluated stream"
    );

    // Quantile summaries are coherent: p50 <= p99 <= max for every stage.
    for sample in &snap.samples {
        if let SampleValue::Histogram(h) = &sample.value {
            if h.count > 0 {
                assert!(
                    h.p50 <= h.p99 + f64::EPSILON && h.p99 <= h.max as f64 + 1.0,
                    "{}: incoherent quantiles p50={} p99={} max={}",
                    sample.name,
                    h.p50,
                    h.p99,
                    h.max
                );
            }
        }
    }

    // The snapshot exports to both formats on disk.
    let dir = std::path::Path::new("target/experiments");
    let (prom_path, json_path) = snap.write_files(dir, "metrics-selftest").unwrap();
    let prom = std::fs::read_to_string(prom_path).unwrap();
    assert!(prom.contains("# TYPE xsec_mobiwatch_inference_latency_us histogram"));
    assert!(prom.contains("xsec_ric_control_ack_latency_us_bucket{agent=\"gnb-1\""));
    let json = std::fs::read_to_string(json_path).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON exposition");
    let metrics = parsed.get("metrics").and_then(|m| m.as_array()).expect("metrics array");
    assert!(
        metrics.iter().any(|m| {
            m.get("name").and_then(|n| n.as_str())
                == Some("xsec_mobiwatch_inference_latency_us")
                && m.get("count").and_then(|c| c.as_u64()).unwrap_or(0) > 0
        }),
        "JSON exposition missing inference latency samples"
    );
}

#[test]
fn each_deployment_gets_a_fresh_registry() {
    let pipeline = Pipeline::train(&PipelineConfig::small(23, 10));
    let stream = pipeline.eval_stream(TrafficClass::Attack(AttackKind::NullCipher));
    let run = || ScaleDeployment::new(&pipeline, 1).drive(&mut Replay(&stream.records));
    let (first, second) = (run(), run());
    // Same workload, fresh registry: counts match rather than accumulate.
    assert_eq!(
        first.metrics.counter_total("xsec_e2_records_pushed_total"),
        second.metrics.counter_total("xsec_e2_records_pushed_total"),
        "snapshots leak state across runs"
    );
}
