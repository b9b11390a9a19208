//! Integration between the attack datasets, MobiFlow extraction and the
//! expert engine: each attack's literature-documented signature must reach
//! the protocol judge the analyzer runs (`ExpertEngine::analyze`) through
//! the telemetry it reads, and benign connections must pass it clean.

use std::collections::{BTreeMap, HashMap};
use xsec_attacks::DatasetBuilder;
use xsec_control::attack_from_title;
use xsec_llm::{
    AnalysisSignal, ExpertEngine, LlmBackend, ModelPersonality, ParsedResponse, PromptTemplate,
    SimulatedExpert,
};
use xsec_mobiflow::{extract_from_events, TelemetryStream, UeMobiFlow};
use xsec_proto::{L3Message, MessageKind, NasMessage, RrcMessage};
use xsec_types::{AttackKind, CipherAlg, IntegrityAlg, TrafficClass};

/// Each connection's MobiFlow records, in stream order.
fn connections(stream: &TelemetryStream) -> BTreeMap<u32, Vec<UeMobiFlow>> {
    let mut conns: BTreeMap<u32, Vec<UeMobiFlow>> = BTreeMap::new();
    for r in &stream.records {
        conns.entry(r.du_ue_id).or_default().push(r.clone());
    }
    conns
}

/// The expert's findings on the connection that carries the first record
/// labelled as `kind`: the victim's.
fn victim_signals(seed: u64, kind: AttackKind) -> Vec<AnalysisSignal> {
    let ds = DatasetBuilder::small(seed, 15).attack(kind);
    let stream = extract_from_events(&ds.report.events);
    let victim = stream
        .records
        .iter()
        .zip(&stream.labels)
        .find(|(_, label)| **label == TrafficClass::Attack(kind))
        .map(|(r, _)| r.du_ue_id)
        .expect("an attack record exists");
    ExpertEngine.analyze(&connections(&stream)[&victim])
}

#[test]
fn expert_clears_benign_connections() {
    // Channel loss and retransmissions reorder and duplicate benign ladders;
    // none of that may read as an attack on any connection.
    let mut seen = 0;
    for seed in 420..430 {
        for sessions in [15, 30] {
            let report = DatasetBuilder::small(seed, sessions).benign();
            let stream = extract_from_events(&report.events);
            for (conn, records) in connections(&stream) {
                let signals = ExpertEngine.analyze(&records);
                assert!(signals.is_empty(), "seed {seed}/{sessions}: conn {conn}: {signals:?}");
                seen += 1;
            }
        }
    }
    assert!(seen > 0, "no benign connection was judged");
}

#[test]
fn downlink_extraction_violates_the_grammar_where_figure_2a_says() {
    // The UE answers an AuthenticationRequest with an IdentityResponse.
    for seed in 400..410 {
        let signals = victim_signals(seed, AttackKind::DownlinkIdExtraction);
        assert!(
            signals.iter().any(|s| matches!(
                s,
                AnalysisSignal::OrderingViolation { got: MessageKind::NasIdentityResponse, .. }
            )),
            "seed {seed}: {signals:?}"
        );
        assert!(
            signals.iter().any(|s| matches!(
                s,
                AnalysisSignal::PlaintextIdentityExposure { compliant_position: false, .. }
            )),
            "seed {seed}: {signals:?}"
        );
    }
}

#[test]
fn uplink_extraction_stays_grammar_compliant() {
    // The hard case: the trace is standards-compliant; only the plaintext
    // disclosure inside a legal identity procedure (ambiguous per §5)
    // appears.
    for seed in 400..410 {
        let signals = victim_signals(seed, AttackKind::UplinkIdExtraction);
        assert!(
            !signals.iter().any(|s| matches!(s, AnalysisSignal::OrderingViolation { .. })),
            "seed {seed}: unexpected ordering violation: {signals:?}"
        );
        assert!(
            signals.iter().any(|s| matches!(
                s,
                AnalysisSignal::PlaintextIdentityExposure { compliant_position: true, .. }
            )),
            "seed {seed}: {signals:?}"
        );
    }
}

#[test]
fn attack_records_carry_the_commanded_algorithms() {
    // Replays each connection's messages, attacks included: an RRC Setup
    // Request starts it with no algorithms, a NAS Security Mode Command sets
    // them. The CU learns the pair when it relays the command, a couple of
    // milliseconds before the command itself is recorded, so a retransmitted
    // message landing in that gap may carry the pair early. Any other
    // disagreement is a bug.
    type Algs = (Option<CipherAlg>, Option<IntegrityAlg>);
    for kind in AttackKind::ALL {
        let ds = DatasetBuilder::small(403 + kind as u64, 10).attack(kind);
        let stream = extract_from_events(&ds.report.events);
        let mut replayed: HashMap<u32, Algs> = HashMap::new();
        for (ev, rec) in ds.report.events.iter().zip(&stream.records) {
            let pair = replayed.entry(ev.du_ue_id).or_default();
            match &ev.msg {
                L3Message::Rrc(RrcMessage::SetupRequest { .. }) => *pair = (None, None),
                L3Message::Nas(NasMessage::SecurityModeCommand { cipher, integrity, .. }) => {
                    *pair = (Some(*cipher), Some(*integrity));
                }
                _ => {}
            }
            match ((rec.cipher_alg, rec.integrity_alg), *pair) {
                (x, y) if x == y => {}
                ((Some(_), Some(_)), (None, None)) => {}
                (x, y) => panic!("{kind} at {}: records {x:?}, replay {y:?}", rec.msg_id),
            }
        }
    }
}

#[test]
fn expert_engine_names_every_attack_from_its_dataset() {
    // Feed the expert the whole attack region (attack records ± context), as
    // the analyzer's backend reads it: a rendered prompt. The attacks the
    // ORACLE lists must name the dataset's attack.
    for base in [500, 600, 700] {
        for kind in AttackKind::ALL {
            let ds = DatasetBuilder::small(base + kind as u64, 20).attack(kind);
            let stream = extract_from_events(&ds.report.events);
            let first = stream.labels.iter().position(|l| l.is_attack()).expect("attack exists");
            let last = stream.len()
                - 1
                - stream.labels.iter().rev().position(|l| l.is_attack()).unwrap();
            let start = first.saturating_sub(30);
            let end = (last + 10).min(stream.len());
            let prompt = PromptTemplate::default().render(&stream.records[start..end]);
            let answer =
                SimulatedExpert::new(ModelPersonality::ORACLE).complete(&prompt).unwrap();
            let parsed = ParsedResponse::parse(&answer);
            assert!(parsed.anomalous, "{kind} at {base}: the expert saw nothing");
            assert!(
                parsed.attacks.iter().any(|t| attack_from_title(t) == Some(kind)),
                "{kind} at {base}: listed {:?}",
                parsed.attacks
            );
        }
    }
}

#[test]
fn blind_dos_shows_replay_to_the_engine_and_detaches_victims() {
    let ds = DatasetBuilder::small(600, 20).attack(AttackKind::BlindDos);
    let stream = extract_from_events(&ds.report.events);
    let signals = ExpertEngine.analyze(&stream.records);
    assert!(signals
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
