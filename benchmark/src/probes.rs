//! Micro-probes: each layer's unit cost, bulk-timed on a sample of the
//! workload's own record stream (traced run only, after the timed section).
//!
//! These are the numbers an optimisation to one layer moves first; the
//! README's interaction table says which end-to-end metric each should
//! move, on which workload.

use crate::report::Metrics;
use crate::stack::tcp_links;
use sixg_xsec::mobiwatch::{AnomalyAlert, MobiWatchConfig};
use sixg_xsec::{Detector, LlmAnalyzer, MobiWatch, Pipeline};
use std::hint::black_box;
use std::time::Instant;
use xsec_control::{ControlAction, MitigationAction, PolicyEngine, ThreatAssessment};
use xsec_dl::{Featurizer, Precision, Workspace};
use xsec_e2::{
    in_proc_pair, E2Transport, E2apPdu, KpmIndication, RicRequestId, RAN_FUNCTION_MOBIFLOW,
};
use xsec_llm::SimulatedExpert;
use xsec_mobiflow::{decode_ue_record, encode_ue_record, SharedDataLayer, TelemetryStream};
use xsec_obs::{FlightEvent, FlightRecorder, TraceStage};
use xsec_types::{AttackKind, CellId, Duration, EstablishmentCause, Rnti, Timestamp};

/// Records in the probe sample.
pub const SAMPLE_RECORDS: usize = 50_000;

/// Windows per call of the batched scoring kernels.
const SCORE_BATCH: usize = 256;

/// Nanoseconds per operation of `f` run `ops` times in one timed block.
fn ns_per_op(ops: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Runs every probe over `sample` (records of the workload's own stream),
/// with indications of `records_per_indication` records.
pub fn run(pipeline: &Pipeline, sample: &TelemetryStream, records_per_indication: f64) -> Metrics {
    let records = &sample.records;
    let n = records.len();
    let mut m: Metrics = Vec::new();

    // --- MobiFlow line codec ------------------------------------------------
    let mut lines = Vec::with_capacity(n);
    m.push((
        "mobiflow.codec.encode_ns_per_record",
        ns_per_op(n, || lines.extend(records.iter().map(encode_ue_record))),
    ));
    m.push((
        "mobiflow.codec.decode_ns_per_record",
        ns_per_op(n, || {
            for line in &lines {
                black_box(decode_ue_record(line).expect("own encoding decodes"));
            }
        }),
    ));

    // --- E2SM-KPM and E2AP at the workload's indication size ---------------
    let per_pdu = (records_per_indication.round() as usize).max(1);
    let request_id = RicRequestId { requestor: 1, instance: 1 };
    let mut payloads = Vec::new();
    m.push((
        "e2.kpm.encode_ns_per_record",
        ns_per_op(n, || {
            for chunk in records.chunks(per_pdu) {
                let end = chunk.last().expect("non-empty chunk").timestamp;
                payloads.push(
                    KpmIndication::from_records(CellId(1), Timestamp::ZERO, end, chunk).encode(),
                );
            }
        }),
    ));
    m.push((
        "e2.kpm.decode_ns_per_record",
        ns_per_op(n, || {
            for payload in &payloads {
                let kpm = KpmIndication::decode(payload).expect("own payload decodes");
                black_box(kpm.mobiflow_records().expect("own records decode"));
            }
        }),
    ));
    let pdus: Vec<E2apPdu> = payloads
        .into_iter()
        .enumerate()
        .map(|(i, payload)| E2apPdu::Indication {
            request_id,
            ran_function: RAN_FUNCTION_MOBIFLOW,
            sequence: i as u64,
            payload,
        })
        .collect();
    let mut frames = Vec::with_capacity(pdus.len());
    m.push((
        "e2.e2ap.encode_ns_per_pdu",
        ns_per_op(pdus.len(), || frames.extend(pdus.iter().map(E2apPdu::encode))),
    ));
    m.push((
        "e2.e2ap.decode_ns_per_pdu",
        ns_per_op(frames.len(), || {
            for frame in &frames {
                black_box(E2apPdu::decode(frame).expect("own frame decodes"));
            }
        }),
    ));
    let wire_bytes: usize = frames.iter().map(Vec::len).sum();
    m.push(("e2.wire.bytes_per_record", wire_bytes as f64 / n.max(1) as f64));

    // --- SDL write under the platform's key shape --------------------------
    let sdl = SharedDataLayer::new();
    m.push((
        "mobiflow.sdl.set_ns_per_record",
        ns_per_op(n, || {
            for (i, (record, line)) in records.iter().zip(&lines).enumerate() {
                let key =
                    format!("{}/{}/{}/{:06}/{:03}", 0, 1, i / per_pdu, record.msg_id, i % per_pdu);
                sdl.set("mobiflow", &key, line.clone().into_bytes());
            }
        }),
    ));
    drop(sdl);

    // --- transports: one frame there, received on the other end ------------
    let (mut a, mut b) = in_proc_pair();
    m.push((
        "e2.transport.inproc_ns_per_frame",
        ns_per_op(frames.len(), || ferry(&mut a, &mut b, &frames)),
    ));
    let (mut a, mut b) = tcp_links(1).pop().expect("one loopback link");
    m.push((
        "e2.transport.tcp_ns_per_frame",
        ns_per_op(frames.len(), || ferry(&mut a, &mut b, &frames)),
    ));

    // --- detector alone (the old headline number) --------------------------
    let config = pipeline.config();
    let models = pipeline.models();
    let watch_config = MobiWatchConfig { detector: config.detector, ..MobiWatchConfig::default() };
    let (mut watch, _state) = MobiWatch::new(models.clone(), watch_config);
    m.push((
        "mobiwatch.process_ns_per_record",
        ns_per_op(n, || {
            for record in records {
                black_box(watch.process_record(record));
            }
        }),
    ));

    // --- model scoring: batched kernel vs one window per call --------------
    // Batches of SCORE_BATCH windows, sliced before the clock starts; one
    // untimed batch first so the workspace is grown.
    let dataset = Featurizer::encode_stream(&models.feature_config, sample);
    let mut ws = Workspace::new();
    let (batched, single) = match config.detector {
        Detector::Autoencoder => {
            let flat = dataset.flat_windows();
            let windows = flat.rows();
            let batches: Vec<_> = (0..windows)
                .step_by(SCORE_BATCH)
                .map(|r| flat.slice_rows(r, (r + SCORE_BATCH).min(windows)))
                .collect();
            black_box(models.autoencoder.score_rows(&batches[0], &mut ws));
            let batched = ns_per_op(windows, || {
                for batch in &batches {
                    black_box(models.autoencoder.score_rows(batch, &mut ws));
                }
            });
            let single = ns_per_op(windows, || {
                for r in 0..windows {
                    black_box(models.autoencoder.score_window_with(
                        flat.row_slice(r),
                        &mut ws,
                        Precision::F32,
                    ));
                }
            });
            (batched, single)
        }
        Detector::Lstm => {
            let (windows, nexts) = dataset.lstm_pairs();
            black_box(models.lstm.score_batch(&windows[..1], &nexts[..1], &mut ws));
            let batched = ns_per_op(windows.len(), || {
                for (w, next) in windows.chunks(SCORE_BATCH).zip(nexts.chunks(SCORE_BATCH)) {
                    black_box(models.lstm.score_batch(w, next, &mut ws));
                }
            });
            let single = ns_per_op(windows.len(), || {
                for (w, next) in windows.iter().zip(&nexts) {
                    black_box(models.lstm.score_window_with(
                        w.data(),
                        next.data(),
                        &mut ws,
                        Precision::F32,
                    ));
                }
            });
            (batched, single)
        }
    };
    m.push(("dl.score.batched_ns_per_window", batched));
    m.push(("dl.score.per_window_ns", single));

    // --- analyzer on alerts carrying the product's context size ------------
    let context = MobiWatchConfig::default().context_records + models.feature_config.window;
    let alerts: Vec<AnomalyAlert> = lines
        .chunks(context)
        .take(200)
        .enumerate()
        .map(|(i, chunk)| AnomalyAlert {
            trace: 0,
            at_record: (i * context) as u64,
            at_time: records[i * context].timestamp,
            score: 1.0,
            threshold: 0.5,
            records: chunk.to_vec(),
        })
        .collect();
    let (mut analyzer, _state) =
        LlmAnalyzer::new(Box::new(SimulatedExpert::new(config.personality)), "anomalies");
    m.push((
        "analyzer.analyze_ns_per_alert",
        ns_per_op(alerts.len(), || {
            for alert in &alerts {
                black_box(analyzer.analyze_alert(alert));
            }
        }),
    ));

    // --- policy decision and control codec ---------------------------------
    const DECISIONS: usize = 2_000;
    let mut policy = PolicyEngine::default();
    let mut issued: Vec<ControlAction> = Vec::new();
    m.push((
        "control.policy.decide_ns",
        ns_per_op(DECISIONS, || {
            for i in 0..DECISIONS {
                // One detection per cell per minute: past every cooldown, so
                // each decision instantiates the full playbook.
                let assessment = ThreatAssessment {
                    attack: Some(AttackKind::BtsDos),
                    confidence: 0.9,
                    llm_confirmed: true,
                    detected_at: Timestamp::ZERO + Duration::from_secs(60 * i as u64),
                    cell: CellId(1 + (i % 8) as u32),
                    suspect_conns: vec![i as u32, i as u32 + 1],
                    suspect_rntis: vec![Rnti(0x1000 + (i % 0x1000) as u16)],
                    dominant_cause: Some(EstablishmentCause::MoSignalling),
                    trace: Some(i as u64 + 1),
                };
                if let xsec_control::PolicyDecision::Act(actions) = policy.decide(&assessment) {
                    issued.extend(actions);
                }
            }
        }),
    ));
    if issued.is_empty() {
        issued.push(ControlAction {
            id: 1,
            ttl: Duration::from_secs(1),
            action: MitigationAction::QuarantineCell { cell: CellId(1) },
            trace: Some(1),
        });
    }
    let mut encoded = Vec::with_capacity(issued.len());
    m.push((
        "control.action.encode_ns",
        ns_per_op(issued.len(), || encoded.extend(issued.iter().map(ControlAction::encode))),
    ));
    m.push((
        "control.action.decode_ns",
        ns_per_op(encoded.len(), || {
            for payload in &encoded {
                black_box(ControlAction::decode(payload).expect("own action decodes"));
            }
        }),
    ));

    // --- flight recorder: the per-record ingest event -----------------------
    let recorder = FlightRecorder::new();
    let ring = recorder.ring();
    m.push((
        "obs.flight.record_ns_per_event",
        ns_per_op(n, || {
            for record in records {
                let trace = recorder.begin_trace(record.msg_id);
                ring.record(FlightEvent {
                    trace,
                    stage: TraceStage::Ingest,
                    at_us: record.timestamp.as_micros(),
                    a: u64::from(record.du_ue_id),
                    b: record.msg_id,
                });
            }
        }),
    ));
    m
}

/// Sends every frame from `a` and receives it on `b`, one at a time.
fn ferry(a: &mut impl E2Transport, b: &mut impl E2Transport, frames: &[Vec<u8>]) {
    for frame in frames {
        a.send(frame).expect("probe send");
        loop {
            // TCP may need several reads for one large frame.
            if black_box(b.try_recv().expect("probe recv")).is_some() {
                break;
            }
            a.flush().expect("probe flush");
        }
    }
}
