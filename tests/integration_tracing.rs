//! Causal incident tracing, end to end: one trace id follows a detection
//! from E2 ingest through inference, alerting, the analyzer verdict, the
//! policy decision, the Control Request's trace-id TLV, gNB enforcement,
//! and the correlated ack — and the flight recorder's exports replay that
//! chain as a JSONL decision trace and a Perfetto file.

use sixg_xsec::pipeline::{Pipeline, PipelineConfig};
use sixg_xsec::scale::{LiveSim, Replay, ScaleDeployment};
use xsec_attacks::sustained_flood_simulator;
use xsec_obs::TraceStage;
use xsec_types::{AttackKind, Duration, TrafficClass};

#[test]
fn flood_incident_carries_the_complete_causal_chain() {
    let pipeline = Pipeline::train(&PipelineConfig::small(31, 15));
    let mut d = ScaleDeployment::new(&pipeline, 1);
    let outcome = d.drive(&mut LiveSim::new(sustained_flood_simulator(31, 15, 300), |_, _| {}));
    let recorder = &d.obs().recorder;

    let incidents = recorder.incidents();
    assert!(!incidents.is_empty(), "flood produced no incident traces");

    // At least one incident must span every causal stage.
    let complete = incidents
        .iter()
        .find(|incident| {
            TraceStage::ALL.iter().all(|stage| {
                incident.events.iter().any(|e| e.stage == *stage)
            })
        })
        .unwrap_or_else(|| {
            panic!(
                "no incident spans all 8 stages; stage sets: {:?}",
                incidents
                    .iter()
                    .map(|i| i.events.iter().map(|e| e.stage).collect::<Vec<_>>())
                    .collect::<Vec<_>>()
            )
        });
    let trace = complete.trace;
    assert_ne!(trace, 0, "incident trace must be a real id");

    // Events are order-normalized: virtual time never goes backwards, and
    // the chain starts at ingest.
    assert!(complete.events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    assert_eq!(complete.events[0].stage, TraceStage::Ingest);

    // The inference and alert spans carry real score/threshold payloads,
    // and the alert fired because the score crossed the threshold.
    let alert = complete
        .events
        .iter()
        .find(|e| e.stage == TraceStage::Alert)
        .expect("alert span present");
    let (score, threshold) = (f32::from_bits(alert.a as u32), f32::from_bits(alert.b as u32));
    assert!(score.is_finite() && threshold.is_finite());
    assert!(score >= threshold, "alert fired below threshold: {score} < {threshold}");

    // The Control Request that reached the RAN carried this trace in its
    // trace-id TLV: `enforced` holds actions decoded from the raw E2
    // payload, so a matching `trace` field proves the id survived the wire.
    assert!(
        outcome.enforced.iter().any(|(_, action)| action.trace == Some(trace)),
        "no enforced Control Request carried trace {trace} in its TLV"
    );

    // The ack closed the loop for this trace.
    let ack = complete
        .events
        .iter()
        .find(|e| e.stage == TraceStage::Ack)
        .expect("ack span present");
    assert_eq!(ack.a, 1, "ack must report success");

    // Histogram exemplars link the latency quantiles back to trace ids.
    let traces: Vec<u64> = incidents.iter().map(|i| i.trace).collect();
    let inference = outcome.metrics.histograms("xsec_mobiwatch_inference_latency_us");
    let (_, summary) = inference.first().expect("inference histogram present");
    let (_, exemplar_trace) = summary.exemplar.expect("inference histogram has an exemplar");
    assert!(
        exemplar_trace != 0,
        "inference exemplar must reference a trace id"
    );

    // The Perfetto export is valid JSON and holds the whole chain: at
    // least 8 complete ("X") spans sharing the incident's trace id.
    let perfetto = recorder.perfetto_json();
    let doc: serde_json::Value =
        serde_json::from_str(&perfetto).expect("perfetto export must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array present");
    let spans = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|v| v.as_str()) == Some("X")
                && e.get("args")
                    .and_then(|a| a.get("trace_id"))
                    .and_then(|v| v.as_u64())
                    == Some(trace)
        })
        .count();
    assert!(spans >= 8, "expected >= 8 Perfetto spans for trace {trace}, got {spans}");

    // The JSONL decision trace replays the same chain, one event per line.
    let jsonl = recorder.incidents_jsonl();
    let chain_lines = jsonl
        .lines()
        .filter(|l| l.contains(&format!("\"trace\":{trace},")))
        .count();
    assert_eq!(chain_lines, complete.events.len());
    for line in jsonl.lines() {
        let _: serde_json::Value =
            serde_json::from_str(line).expect("every JSONL line must parse");
    }

    // Every captured incident belongs to a distinct trace.
    let mut unique = traces.clone();
    unique.dedup();
    assert_eq!(unique.len(), traces.len(), "duplicate incident traces");
}

#[test]
fn open_loop_replay_records_no_enforce_span() {
    let mut config = PipelineConfig::small(31, 15);
    config.scoring_shards = 1;
    let pipeline = Pipeline::train(&config);
    let stream = pipeline.eval_stream(TrafficClass::Attack(AttackKind::BtsDos));
    let mut d = ScaleDeployment::new(&pipeline, 1);
    d.drive(&mut Replay(&stream.records));
    let incidents = d.obs().recorder.incidents();
    assert!(!incidents.is_empty(), "the replayed flood captured no incidents");

    // Open-loop replay never enforces, so no incident may claim an
    // Enforce span — the stage only appears when a gNB actually acted.
    assert!(
        incidents.iter().all(|i| i.events.iter().all(|e| e.stage != TraceStage::Enforce)),
        "open-loop run must not record Enforce spans"
    );
}

#[test]
fn every_incident_opens_at_its_own_record_however_long_the_bucket() {
    // One report bucket holds the whole replay, so the agent admits every
    // record behind an alerted one before the detector scores any of them.
    let mut config = PipelineConfig::small(31, 15);
    config.report_period_ms = 600_000;
    let pipeline = Pipeline::train(&config);
    let mut records = pipeline.eval_stream(TrafficClass::Attack(AttackKind::BtsDos)).records;
    let benign = pipeline.eval_stream(TrafficClass::Benign).records;
    let flood_records = records.len();
    // Benign sessions replayed after the flood until more than 4 096 records
    // trail it, each pass restamped past the previous end.
    while records.len() <= flood_records + 4_096 {
        let shift = Duration(records.last().expect("stream not empty").timestamp.as_micros() + 1);
        records.extend(benign.iter().map(|r| {
            let mut r = r.clone();
            r.timestamp += shift;
            r
        }));
    }
    // Renumbered so every msg id, and its trace slot, is the record's own.
    for (msg_id, record) in (0u64..).zip(records.iter_mut()) {
        record.msg_id = msg_id;
    }
    assert!(
        records.last().expect("stream not empty").timestamp.as_micros()
            < u64::from(config.report_period_ms) * 1_000,
        "the replay must fit one report bucket"
    );

    let mut d = ScaleDeployment::new(&pipeline, 1);
    d.drive(&mut Replay(&records));
    // Trace ids count admitted records from 1, in the order the bucket is
    // flushed: cell-major, stable.
    let mut admitted = records.clone();
    admitted.sort_by_key(|r| r.cell.0);
    let incidents = d.obs().recorder.incidents();
    assert!(
        incidents.iter().any(|i| admitted.len() - i.trace as usize > 4_096),
        "no alerted record is followed by more than 4 096 records in its bucket"
    );
    for incident in &incidents {
        let record = &admitted[incident.trace as usize - 1];
        let ingest = incident.events.first().expect("an incident holds its events");
        assert_eq!(ingest.stage, TraceStage::Ingest, "trace {} starts elsewhere", incident.trace);
        assert_eq!(
            (ingest.at_us, ingest.a, ingest.b),
            (record.timestamp.as_micros(), u64::from(record.du_ue_id), record.msg_id),
            "trace {}'s ingest is not its own record's",
            incident.trace
        );
        let stage = |stage| {
            incident.events.iter().find(|e| e.stage == stage).expect("inference and alert spans")
        };
        let (inference, alert) = (stage(TraceStage::Inference), stage(TraceStage::Alert));
        assert_eq!((inference.a, inference.b), (alert.a, alert.b), "trace {}", incident.trace);
    }
}
