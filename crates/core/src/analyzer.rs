//! The LLM analyzer xApp: expert referencing on flagged windows.
//!
//! Subscribes to the `anomalies` topic, turns each alert into the Figure 5
//! zero-shot prompt, queries the configured LLM backend, parses the answer,
//! and cross-compares it with the detector's decision. Contradictions land
//! in the human-supervision queue (§3.3).

use crate::mobiwatch::AnomalyAlert;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;
use xsec_llm::{cross_compare, CrossVerdict, LlmBackend, ParsedResponse, PromptTemplate};
use xsec_mobiflow::{decode_ue_record, UeMobiFlow};
use xsec_obs::{Counter, FlightEvent, FlightRecorder, Histogram, Obs, TraceStage};
use xsec_ric::{XApp, XAppContext};
use xsec_types::Timestamp;

/// One analyzed alert.
#[derive(Debug, Clone)]
pub struct AnalyzerFinding {
    /// Stream index of the alert's flagged window.
    pub at_record: u64,
    /// Detector score that triggered the alert.
    pub score: f32,
    /// The model's full completion text.
    pub response: String,
    /// The parsed verdict.
    pub parsed: ParsedResponse,
    /// Detector/model agreement.
    pub verdict: CrossVerdict,
}

/// Shared inspection state.
#[derive(Debug, Default)]
pub struct AnalyzerState {
    /// Every analyzed alert, in arrival order.
    pub findings: Vec<AnalyzerFinding>,
    /// Indices (into `findings`) queued for human supervision.
    pub human_review: Vec<usize>,
}

/// The expert-referencing xApp.
pub struct LlmAnalyzer {
    backend: Box<dyn LlmBackend>,
    template: PromptTemplate,
    topic: String,
    state: Arc<Mutex<AnalyzerState>>,
    turnaround: Histogram,
    /// Evidence lines that did not decode and were left out of the prompt.
    dropped: Counter,
    /// Payloads on the topic that are not an [`AnomalyAlert`].
    undecodable: Counter,
    recorder: FlightRecorder,
}

/// The evidence-line and bus-message drop counters, registered in `obs`.
fn drop_counters(obs: &Obs) -> (Counter, Counter) {
    (
        obs.counter("xsec_alert_records_dropped_total", &[("site", "analyzer")]),
        obs.counter("xsec_bus_dropped_total", &[("site", "analyzer"), ("reason", "undecodable")]),
    )
}

impl LlmAnalyzer {
    /// Creates the analyzer over a backend; returns the shared state handle.
    pub fn new(backend: Box<dyn LlmBackend>, topic: &str) -> (Self, Arc<Mutex<AnalyzerState>>) {
        let state = Arc::new(Mutex::new(AnalyzerState::default()));
        let silent = Obs::new();
        let (dropped, undecodable) = drop_counters(&silent);
        (
            LlmAnalyzer {
                backend,
                template: PromptTemplate::default(),
                topic: topic.to_string(),
                state: state.clone(),
                turnaround: silent.histogram("xsec_analyzer_turnaround_us", &[]),
                dropped,
                undecodable,
                recorder: FlightRecorder::new(),
            },
            state,
        )
    }

    /// Re-homes the turnaround histogram and the drop counters into
    /// `obs`'s registry and flight recording into `obs`'s recorder. Call
    /// before analysis starts — samples do not carry over.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.turnaround = obs.histogram("xsec_analyzer_turnaround_us", &[]);
        (self.dropped, self.undecodable) = drop_counters(obs);
        self.recorder = obs.recorder.clone();
    }

    /// The topic this analyzer listens on.
    pub fn topic(&self) -> &str {
        &self.topic
    }

    /// Analyzes one alert directly (also used by the Table 3 harness).
    pub fn analyze_alert(&mut self, alert: &AnomalyAlert) -> AnalyzerFinding {
        let finding = self.analyze(alert);
        self.file(finding.clone());
        finding
    }

    /// Prompts the backend with the alert's evidence and cross-compares its
    /// answer with the detector's decision.
    fn analyze(&mut self, alert: &AnomalyAlert) -> AnalyzerFinding {
        let start = Instant::now();
        // The evidence is already in the prompt's line coding: the lines
        // that decode go in as they stand (none can hold a line break, so
        // none can reframe the prompt), the rest are counted and left out.
        let mut dropped = 0;
        let prompt = self.template.render_lines(alert.records.iter().filter(|line| {
            let decodes = decode_ue_record(line).is_ok();
            dropped += u64::from(!decodes);
            decodes
        }));
        self.dropped.add(dropped);
        let mut response = match self.backend.complete(&prompt) {
            Ok(text) => text,
            Err(e) => format!("Verdict: BENIGN\n(backend error: {e})"),
        };
        // The state vector keeps this string for the run, not a copy of it.
        response.shrink_to_fit();
        let parsed = ParsedResponse::parse(&response);
        let verdict = cross_compare(true, &parsed);
        self.turnaround.observe_duration_with_exemplar(start.elapsed(), alert.trace);
        self.recorder.record_stage(FlightEvent {
            trace: alert.trace,
            stage: TraceStage::Verdict,
            at_us: alert.at_time.as_micros(),
            a: u64::from(matches!(verdict, CrossVerdict::ConfirmedAnomalous)),
            b: u64::from(matches!(verdict, CrossVerdict::NeedsHumanReview { .. })),
        });
        AnalyzerFinding { at_record: alert.at_record, score: alert.score, response, parsed, verdict }
    }

    /// Appends a finding to the shared state, queueing it for human review
    /// when detector and model disagree.
    fn file(&mut self, finding: AnalyzerFinding) {
        let mut state = self.state.lock();
        if matches!(finding.verdict, CrossVerdict::NeedsHumanReview { .. }) {
            let idx = state.findings.len();
            state.human_review.push(idx);
        }
        state.findings.push(finding);
    }
}

impl XApp for LlmAnalyzer {
    fn name(&self) -> &str {
        "llm-analyzer"
    }

    fn on_records(
        &mut self,
        _ctx: &mut XAppContext<'_>,
        _records: &[UeMobiFlow],
        _window_end: Timestamp,
    ) {
        // The analyzer consumes alerts, not raw telemetry.
    }

    fn on_message(&mut self, ctx: &mut XAppContext<'_>, topic: &str, payload: &[u8]) {
        if topic != self.topic {
            return;
        }
        let Ok(alert) = serde_json::from_slice::<AnomalyAlert>(payload) else {
            self.undecodable.inc();
            return;
        };
        let finding = self.analyze(&alert);
        // Downstream consumers (the mitigator) get the conclusion, not the
        // raw completion text: verdict, named attacks, and the evidence
        // records needed to scope a response.
        let notice = crate::mitigator::FindingNotice {
            trace: alert.trace,
            at_record: alert.at_record,
            at_time: alert.at_time,
            score: alert.score,
            threshold: alert.threshold,
            anomalous: finding.parsed.anomalous,
            confirmed: matches!(finding.verdict, CrossVerdict::ConfirmedAnomalous),
            needs_human: matches!(finding.verdict, CrossVerdict::NeedsHumanReview { .. }),
            attacks: finding.parsed.attacks.clone(),
            records: alert.records,
        };
        self.file(finding);
        if let Ok(json) = serde_json::to_vec(&notice) {
            ctx.publish(crate::mitigator::FINDINGS_TOPIC, &json);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_llm::{ModelPersonality, SimulatedExpert};
    use xsec_proto::MessageKind;
    use xsec_types::{CellId, Rnti};

    fn flood_alert() -> AnomalyAlert {
        use MessageKind as K;
        let mut lines = Vec::new();
        let mut id = 0u64;
        for conn in 1..=6u32 {
            for k in [
                K::RrcSetupRequest,
                K::RrcSetup,
                K::RrcSetupComplete,
                K::NasRegistrationRequest,
                K::NasAuthenticationRequest,
            ] {
                let r = UeMobiFlow {
                    msg_id: id,
                    timestamp: Timestamp(id * 500),
                    cell: CellId(1),
                    rnti: Rnti(0x4600 + conn as u16),
                    du_ue_id: conn,
                    direction: k.direction(),
                    msg: k,
                    tmsi: None,
                    supi: None,
                    cipher_alg: None,
                    integrity_alg: None,
                    establishment_cause: None,
                    release_cause: None,
                };
                lines.push(xsec_mobiflow::encode_ue_record(&r));
                id += 1;
            }
        }
        AnomalyAlert {
            trace: 0,
            at_record: id,
            at_time: Timestamp(id * 500),
            score: 0.5,
            threshold: 0.1,
            records: lines,
        }
    }

    #[test]
    fn flood_alert_is_confirmed_by_gpt4o() {
        let (mut analyzer, state) = LlmAnalyzer::new(
            Box::new(SimulatedExpert::new(ModelPersonality::CHATGPT_4O)),
            "anomalies",
        );
        let obs = Obs::new();
        analyzer.attach_obs(&obs);
        let finding = analyzer.analyze_alert(&flood_alert());
        assert!(finding.parsed.anomalous);
        assert_eq!(finding.verdict, CrossVerdict::ConfirmedAnomalous);
        assert!(finding.response.contains("Signaling storm"));
        assert!(state.lock().human_review.is_empty());
        assert_eq!(
            obs.snapshot().histogram_count("xsec_analyzer_turnaround_us"),
            1,
            "turnaround must be sampled once per alert"
        );
    }

    #[test]
    fn undecodable_evidence_lines_are_counted_and_the_rest_still_analysed() {
        let (mut analyzer, _state) = LlmAnalyzer::new(
            Box::new(SimulatedExpert::new(ModelPersonality::CHATGPT_4O)),
            "anomalies",
        );
        let obs = Obs::new();
        analyzer.attach_obs(&obs);
        let clean = analyzer.analyze_alert(&flood_alert());
        assert_eq!(obs.snapshot().counter_total("xsec_alert_records_dropped_total"), 0);

        let mut alert = flood_alert();
        alert.records.insert(3, "v2;UE;not;a;record".to_string());
        let finding = analyzer.analyze_alert(&alert);
        // The garbage line never reaches the model; the verdict is the one
        // the thirty well-formed lines earn.
        assert_eq!(finding.response, clean.response);
        assert_eq!(finding.verdict, CrossVerdict::ConfirmedAnomalous);
        let exposition = obs.metrics.render_prometheus();
        assert!(
            exposition.contains("xsec_alert_records_dropped_total{site=\"analyzer\"} 1\n"),
            "{exposition}"
        );
    }

    #[test]
    fn blind_model_disagreement_goes_to_human_review() {
        // Llama3 is flood-blind: the detector flagged, the model says
        // benign → human supervision.
        let (mut analyzer, state) = LlmAnalyzer::new(
            Box::new(SimulatedExpert::new(ModelPersonality::LLAMA3)),
            "anomalies",
        );
        let finding = analyzer.analyze_alert(&flood_alert());
        assert!(!finding.parsed.anomalous);
        assert!(matches!(finding.verdict, CrossVerdict::NeedsHumanReview { .. }));
        assert_eq!(state.lock().human_review, vec![0]);
    }

    #[test]
    fn malformed_topic_payloads_are_ignored() {
        let (mut analyzer, state) = LlmAnalyzer::new(
            Box::new(SimulatedExpert::new(ModelPersonality::ORACLE)),
            "anomalies",
        );
        let obs = Obs::new();
        analyzer.attach_obs(&obs);
        let dropped = "xsec_bus_dropped_total{reason=\"undecodable\",site=\"analyzer\"}";
        assert!(obs.metrics.render_prometheus().contains(&format!("{dropped} 0\n")));
        let sdl = xsec_ric::SharedDataLayer::new();
        let scope = xsec_ric::Router::new()
            .register(xsec_ric::XAppIdentity::named("analyzer"), xsec_ric::Grants::none())
            .unwrap();
        let mut control = Vec::new();
        let mut ctx =
            xsec_ric::XAppContext { sdl: &sdl, scope: &scope, control_out: &mut control };
        analyzer.on_message(&mut ctx, "anomalies", b"not json");
        analyzer.on_message(&mut ctx, "other-topic", b"{}");
        assert!(state.lock().findings.is_empty());
        assert!(control.is_empty());
        // Only the payload on the analyzer's own topic counts as a drop.
        let exposition = obs.metrics.render_prometheus();
        assert!(exposition.contains(&format!("{dropped} 1\n")), "{exposition}");
    }
}
