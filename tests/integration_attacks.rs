//! Integration between the attack datasets, the protocol conformance
//! checker, the raw-capture extraction path, and the expert engine: each
//! attack's literature-documented signature must be visible through every
//! independent lens.

use xsec_attacks::DatasetBuilder;
use xsec_llm::{AnalysisSignal, ExpertEngine};
use xsec_mobiflow::{extract_from_events, extract_from_trace};
use xsec_proto::{L3Message, ProcedureConformance, Violation};
use xsec_types::{AttackKind, TrafficClass};

#[test]
fn conformance_checker_clears_benign_connections() {
    // Seed pinned against the vendored RNG stream: channel retransmissions
    // cascade into ordering false positives often enough that an unlucky
    // draw can push a small dataset past the "rare" threshold below.
    let report = DatasetBuilder::small(420, 15).benign();
    // Group messages per connection and replay each through the checker.
    let mut conns: std::collections::BTreeMap<u32, Vec<&L3Message>> = Default::default();
    for ev in &report.events {
        conns.entry(ev.du_ue_id).or_default().push(&ev.msg);
    }
    let mut violating = 0;
    for msgs in conns.values() {
        let mut check = ProcedureConformance::new();
        for msg in msgs {
            check.observe(msg);
        }
        // No finish(): channel loss can strand benign sessions (an abandoned
        // handshake is noise, not an ordering violation).
        if !check.is_conformant() {
            violating += 1;
        }
    }
    // Channel loss/duplication occasionally produces sequences the strict
    // grammar rejects — exactly the "network interference" false-positive
    // source the paper reports. It must stay rare.
    assert!(
        violating * 10 <= conns.len(),
        "{violating}/{} benign connections violated the grammar",
        conns.len()
    );
}

#[test]
fn downlink_extraction_violates_the_grammar_where_figure_2a_says() {
    let ds = DatasetBuilder::small(401, 15).attack(AttackKind::DownlinkIdExtraction);
    let victim_conn = ds
        .report
        .events
        .iter()
        .find(|e| e.label == TrafficClass::Attack(AttackKind::DownlinkIdExtraction))
        .map(|e| e.du_ue_id)
        .expect("an attack event exists");
    let mut check = ProcedureConformance::new();
    for ev in ds.report.events.iter().filter(|e| e.du_ue_id == victim_conn) {
        check.observe(&ev.msg);
    }
    assert!(check.violations().iter().any(|v| matches!(v, Violation::OutOfOrder { .. })));
    assert!(check.violations().contains(&Violation::PlaintextIdentityDisclosure));
}

#[test]
fn uplink_extraction_stays_grammar_compliant() {
    // The hard case: the trace is standards-compliant; only the plaintext
    // disclosure finding (ambiguous per §5) appears.
    // Seed pinned against the vendored RNG stream (see the benign test): the
    // victim connection must not be hit by a benign retransmission cascade.
    let ds = DatasetBuilder::small(404, 15).attack(AttackKind::UplinkIdExtraction);
    let victim_conn = ds
        .report
        .events
        .iter()
        .find(|e| e.label == TrafficClass::Attack(AttackKind::UplinkIdExtraction))
        .map(|e| e.du_ue_id)
        .expect("an attack event exists");
    let mut check = ProcedureConformance::new();
    for ev in ds.report.events.iter().filter(|e| e.du_ue_id == victim_conn) {
        check.observe(&ev.msg);
    }
    let ordering: Vec<_> = check
        .violations()
        .iter()
        .filter(|v| matches!(v, Violation::OutOfOrder { .. }))
        .collect();
    assert!(ordering.is_empty(), "unexpected ordering violations: {ordering:?}");
    assert!(check.violations().contains(&Violation::PlaintextIdentityDisclosure));
}

#[test]
fn raw_capture_extraction_agrees_on_attack_traffic() {
    // The pcap-equivalent path must reconstruct the same telemetry the
    // structured path produces, even under attack (same message kinds,
    // security state, exposures) — labels are the only difference.
    for kind in AttackKind::ALL {
        let ds = DatasetBuilder::small(403 + kind as u64, 10).attack(kind);
        let from_events = extract_from_events(&ds.report.events);
        let from_trace = extract_from_trace(&ds.report.trace).unwrap();
        assert_eq!(from_events.len(), from_trace.len(), "{kind}");
        for (a, b) in from_events.records.iter().zip(&from_trace.records) {
            assert_eq!(a.msg, b.msg, "{kind} diverges at msg {}", a.msg_id);
            assert_eq!(a.supi, b.supi, "{kind} at {}", a.msg_id);
            assert_eq!(a.release_cause, b.release_cause, "{kind} at {}", a.msg_id);
            // The CU learns the negotiated algorithms when it relays the
            // security-mode command — a couple of milliseconds before the
            // command appears on the wire. A retransmitted message landing
            // inside that window carries Some(...) in the agent's view and
            // None in the capture replay; contradictions are still bugs.
            match (a.cipher_alg, b.cipher_alg) {
                (x, y) if x == y => {}
                (Some(_), None) => {}
                (x, y) => panic!("{kind} at {}: cipher {x:?} vs {y:?}", a.msg_id),
            }
        }
    }
}

#[test]
fn expert_engine_names_every_attack_from_its_dataset() {
    // Feed the expert the whole attack region (attack records ± context):
    // its top suspicion must match the dataset's attack.
    let engine = ExpertEngine;
    for kind in AttackKind::ALL {
        let ds = DatasetBuilder::small(500 + kind as u64, 20).attack(kind);
        let stream = extract_from_events(&ds.report.events);
        let first = stream.labels.iter().position(|l| l.is_attack()).expect("attack exists");
        let last = stream.len()
            - 1
            - stream.labels.iter().rev().position(|l| l.is_attack()).unwrap();
        let start = first.saturating_sub(30);
        let end = (last + 10).min(stream.len());
        let report = engine.analyze(&stream.records[start..end]);
        assert!(report.is_anomalous(), "{kind}: engine saw nothing");
        assert!(
            report.suspected.contains(&kind),
            "{kind}: suspected {:?} (signals {:?})",
            report.suspected,
            report.signals.len()
        );
    }
}

#[test]
fn blind_dos_shows_replay_to_the_engine_and_detaches_victims() {
    let ds = DatasetBuilder::small(600, 20).attack(AttackKind::BlindDos);
    let stream = extract_from_events(&ds.report.events);
    let report = ExpertEngine.analyze(&stream.records);
    assert!(report
        .signals
        .iter()
        .any(|s| matches!(s, AnalysisSignal::TmsiReplay { connections, .. } if *connections >= 2)));
    // Victim teardowns are labeled as attack fallout.
    let victim_aborts = ds
        .report
        .events
        .iter()
        .filter(|e| {
            e.label == TrafficClass::Attack(AttackKind::BlindDos)
                && matches!(
                    &e.msg,
                    L3Message::Rrc(xsec_proto::RrcMessage::Release {
                        cause: xsec_types::ReleaseCause::NetworkAbort
                    })
                )
        })
        .count();
    assert!(victim_aborts > 0, "no labeled victim detaches");
}
