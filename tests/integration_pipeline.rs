//! End-to-end integration: train on benign traffic, replay every attack
//! dataset through the full RIC pipeline (agent → E2 → platform → MobiWatch
//! → topic → LLM analyzer), and check the paper's headline behaviors.

use sixg_xsec::pipeline::{Pipeline, PipelineConfig};
use sixg_xsec::scale::{Replay, ScaleDeployment, ScaleOutcome};
use xsec_dl::Confusion;
use xsec_llm::CrossVerdict;
use xsec_types::{AttackKind, TrafficClass};

fn pipeline(seed: u64) -> Pipeline {
    Pipeline::train(&PipelineConfig::small(seed, 20))
}

/// Drives `class`'s evaluation stream through a one-agent RIC and scores it.
fn replayed(pipeline: &Pipeline, class: TrafficClass) -> (ScaleOutcome, Confusion) {
    let stream = pipeline.eval_stream(class);
    let mut d = ScaleDeployment::new(pipeline, 1);
    let outcome = d.drive(&mut Replay(&stream.records));
    (outcome, pipeline.evaluate(&stream, &d))
}

#[test]
fn every_attack_is_detected_end_to_end() {
    let pipeline = pipeline(100);
    for kind in AttackKind::ALL {
        let (outcome, confusion) = replayed(&pipeline, TrafficClass::Attack(kind));
        assert!(
            outcome.flagged_windows > 0,
            "{kind}: the detector flagged nothing ({} records)",
            outcome.records
        );
        assert!(outcome.alerts > 0, "{kind}: no alerts published to the analyzer");
        assert!(!outcome.findings.is_empty(), "{kind}: the analyzer produced no findings");
        // The detector's window recall stays meaningful for every attack.
        let recall = confusion.recall().unwrap_or(0.0);
        assert!(recall > 0.5, "{kind}: window recall collapsed to {recall}");
    }
}

#[test]
fn analyzer_confirms_attacks_the_personality_can_see() {
    // GPT-4o (the default personality) perceives floods: a BTS DoS run must
    // produce at least one confirmed-anomalous finding mentioning the storm.
    let (outcome, _) = replayed(&pipeline(101), TrafficClass::Attack(AttackKind::BtsDos));
    let confirmed = outcome
        .findings
        .iter()
        .filter(|f| f.verdict == CrossVerdict::ConfirmedAnomalous)
        .count();
    assert!(confirmed > 0, "no confirmed findings");
    assert!(outcome.findings.iter().any(|f| f.response.contains("Signaling storm")));
    // Every confirmed finding carries remediation (the §3.3 outputs).
    for f in &outcome.findings {
        if f.verdict == CrossVerdict::ConfirmedAnomalous {
            assert!(f.response.contains("Recommended remediation"), "{}", f.response);
            assert!(f.response.contains("Attribution"), "{}", f.response);
        }
    }
}

#[test]
fn benign_traffic_stays_quiet_and_accurate() {
    let (_, confusion) = replayed(&pipeline(102), TrafficClass::Benign);
    let accuracy = confusion.accuracy().unwrap();
    assert!(accuracy > 0.85, "benign accuracy {accuracy}");
    // The paper expects < 10% benign false positives.
    let fp_rate = confusion.fp as f64 / confusion.total() as f64;
    assert!(fp_rate < 0.15, "benign FP rate {fp_rate}");
}

#[test]
fn detector_llm_disagreements_reach_the_human_queue() {
    // Llama3 is flood-blind: every flood alert it reviews must land in the
    // human-supervision queue (§3.3's contradictory-results rule).
    let mut config = PipelineConfig::small(103, 20);
    config.personality = xsec_llm::ModelPersonality::LLAMA3;
    let pipeline = Pipeline::train(&config);
    let (outcome, _) = replayed(&pipeline, TrafficClass::Attack(AttackKind::BtsDos));
    assert!(!outcome.findings.is_empty());
    assert_eq!(
        outcome.human_review,
        outcome
            .findings
            .iter()
            .filter(|f| matches!(f.verdict, CrossVerdict::NeedsHumanReview { .. }))
            .count()
    );
    assert!(outcome.human_review > 0, "flood-blind model should disagree with the detector");
}

#[test]
fn pipeline_runs_are_deterministic() {
    let run = || replayed(&pipeline(104), TrafficClass::Attack(AttackKind::NullCipher));
    let ((a, a_confusion), (b, b_confusion)) = (run(), run());
    assert_eq!(a.flagged_windows, b.flagged_windows);
    assert_eq!(a.alerts, b.alerts);
    assert_eq!(a_confusion, b_confusion);
    assert_eq!(a.findings.len(), b.findings.len());
    for (x, y) in a.findings.iter().zip(&b.findings) {
        assert_eq!(x.response, y.response);
    }
}
