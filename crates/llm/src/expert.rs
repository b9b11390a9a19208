//! The cellular-security analysis engine.
//!
//! Performs, deterministically, the analysis steps the paper observes
//! capable LLMs performing on rendered telemetry (§4.2): per-connection
//! sequence conformance, identifier-reuse analysis across sessions,
//! signaling-rate analysis, security-algorithm audit, and plaintext-identity
//! audit. Findings become typed [`AnalysisSignal`]s, each naming the attack
//! it implicates; the backend renders them as the four §3.3 outputs —
//! classification, explanation, attribution, and remediation.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use xsec_mobiflow::UeMobiFlow;
use xsec_proto::MessageKind;
use xsec_types::{AttackKind, Supi, Tmsi};

/// One analysis finding.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisSignal {
    /// Many connections arriving rapidly and stalling before registration —
    /// the signaling-storm shape of Figure 2b.
    SignalingFlood {
        /// `RRCSetupRequest`s in the window.
        setups: usize,
        /// Distinct RNTIs among them.
        distinct_rntis: usize,
        /// Connections that saw a challenge but never answered it.
        stalled: usize,
    },
    /// The same temporary identity presented on multiple connections.
    TmsiReplay {
        /// The replayed identity.
        tmsi: Tmsi,
        /// Number of distinct connections presenting it.
        connections: usize,
    },
    /// A message arrived where the 24.501 procedure grammar forbids it.
    OrderingViolation {
        /// The connection.
        conn: u32,
        /// The offending message.
        got: MessageKind,
        /// What was expected instead.
        expected: &'static str,
    },
    /// A permanent identity crossed the air in plaintext.
    PlaintextIdentityExposure {
        /// The connection.
        conn: u32,
        /// The exposed identity.
        supi: Supi,
        /// `true` when the exposure sits inside a *legal* identity
        /// procedure (the hard, standards-compliant-looking case).
        compliant_position: bool,
    },
    /// A session negotiated NEA0/NIA0.
    NullSecurity {
        /// The connection.
        conn: u32,
    },
}

impl AnalysisSignal {
    /// The attack this signal is primary evidence for.
    pub fn implicates(&self) -> AttackKind {
        match self {
            AnalysisSignal::SignalingFlood { .. } => AttackKind::BtsDos,
            AnalysisSignal::TmsiReplay { .. } => AttackKind::BlindDos,
            AnalysisSignal::OrderingViolation { .. } => AttackKind::DownlinkIdExtraction,
            AnalysisSignal::PlaintextIdentityExposure { compliant_position, .. } => {
                if *compliant_position {
                    AttackKind::UplinkIdExtraction
                } else {
                    AttackKind::DownlinkIdExtraction
                }
            }
            AnalysisSignal::NullSecurity { .. } => AttackKind::NullCipher,
        }
    }
}

/// Minimum setup requests for flood suspicion.
const FLOOD_MIN_SETUPS: usize = 5;
/// Minimum stalled handshakes for flood suspicion.
const FLOOD_MIN_STALLED: usize = 3;

/// The rule-based telemetry analysis.
#[derive(Debug, Clone, Default)]
pub struct ExpertEngine;

impl ExpertEngine {
    /// Analyzes a telemetry window: its findings, in detection order (an
    /// empty list is a benign verdict).
    pub fn analyze(&self, records: &[UeMobiFlow]) -> Vec<AnalysisSignal> {
        let mut signals = Vec::new();

        // --- per-connection sequence view ---------------------------------
        let mut conns: BTreeMap<u32, Vec<&UeMobiFlow>> = BTreeMap::new();
        for r in records {
            conns.entry(r.du_ue_id).or_default().push(r);
        }

        // Sequence conformance + identity audit per connection.
        for (conn, seq) in &conns {
            let mut identity_request_open = false;
            let mut auth_outstanding = false;
            let mut last_kind: Option<MessageKind> = None;
            for r in seq {
                // Skip exact duplicates (retransmissions).
                if last_kind == Some(r.msg) {
                    continue;
                }
                last_kind = Some(r.msg);
                match r.msg {
                    MessageKind::NasAuthenticationRequest => auth_outstanding = true,
                    MessageKind::NasAuthenticationResponse
                    | MessageKind::NasAuthenticationFailure => auth_outstanding = false,
                    MessageKind::NasIdentityRequest => identity_request_open = true,
                    MessageKind::NasIdentityResponse => {
                        if !identity_request_open && auth_outstanding {
                            signals.push(AnalysisSignal::OrderingViolation {
                                conn: *conn,
                                got: MessageKind::NasIdentityResponse,
                                expected: "AuthenticationResponse to the outstanding challenge",
                            });
                        }
                        let compliant = identity_request_open;
                        identity_request_open = false;
                        if let Some(supi) = r.supi {
                            signals.push(AnalysisSignal::PlaintextIdentityExposure {
                                conn: *conn,
                                supi,
                                compliant_position: compliant && !auth_outstanding,
                            });
                        }
                    }
                    _ => {
                        // Any other message carrying a plaintext SUPI.
                        if let Some(supi) = r.supi {
                            signals.push(AnalysisSignal::PlaintextIdentityExposure {
                                conn: *conn,
                                supi,
                                compliant_position: false,
                            });
                        }
                    }
                }
            }
        }

        // Null-security audit (one signal per connection).
        let mut null_conns = BTreeSet::new();
        for r in records {
            let null = r.cipher_alg.map(|c| c.is_null()).unwrap_or(false)
                && r.integrity_alg.map(|i| i.is_null()).unwrap_or(false);
            if null && null_conns.insert(r.du_ue_id) {
                signals.push(AnalysisSignal::NullSecurity { conn: r.du_ue_id });
            }
        }

        // TMSI replay analysis across connections.
        let mut tmsi_conns: HashMap<Tmsi, BTreeSet<u32>> = HashMap::new();
        for r in records {
            if let Some(tmsi) = r.tmsi {
                tmsi_conns.entry(tmsi).or_default().insert(r.du_ue_id);
            }
        }
        let mut replays: Vec<(Tmsi, usize)> = tmsi_conns
            .into_iter()
            .filter(|(_, conns)| conns.len() >= 2)
            .map(|(t, conns)| (t, conns.len()))
            .collect();
        replays.sort_by_key(|(t, _)| *t);
        for (tmsi, connections) in replays {
            signals.push(AnalysisSignal::TmsiReplay { tmsi, connections });
        }

        // Signaling-rate analysis.
        let setups: Vec<&UeMobiFlow> =
            records.iter().filter(|r| r.msg == MessageKind::RrcSetupRequest).collect();
        let distinct_rntis: BTreeSet<u16> = setups.iter().map(|r| r.rnti.0).collect();
        let stalled = conns
            .values()
            .filter(|seq| {
                let challenged =
                    seq.iter().any(|r| r.msg == MessageKind::NasAuthenticationRequest);
                let answered = seq.iter().any(|r| {
                    matches!(
                        r.msg,
                        MessageKind::NasAuthenticationResponse
                            | MessageKind::NasRegistrationAccept
                    )
                });
                challenged && !answered
            })
            .count();
        if setups.len() >= FLOOD_MIN_SETUPS && stalled >= FLOOD_MIN_STALLED {
            signals.push(AnalysisSignal::SignalingFlood {
                setups: setups.len(),
                distinct_rntis: distinct_rntis.len(),
                stalled,
            });
        }

        signals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_types::{CellId, CipherAlg, IntegrityAlg, Plmn, Rnti, Timestamp};

    fn record(id: u64, conn: u32, msg: MessageKind) -> UeMobiFlow {
        UeMobiFlow {
            msg_id: id,
            timestamp: Timestamp(id * 1_000),
            cell: CellId(1),
            rnti: Rnti(0x4600 + conn as u16),
            du_ue_id: conn,
            direction: msg.direction(),
            msg,
            tmsi: None,
            supi: None,
            cipher_alg: None,
            integrity_alg: None,
            establishment_cause: None,
            release_cause: None,
        }
    }

    fn benign_ladder(conn: u32, base: u64) -> Vec<UeMobiFlow> {
        use MessageKind as K;
        [
            K::RrcSetupRequest,
            K::RrcSetup,
            K::RrcSetupComplete,
            K::NasRegistrationRequest,
            K::NasAuthenticationRequest,
            K::NasAuthenticationResponse,
            K::NasSecurityModeCommand,
            K::NasSecurityModeComplete,
            K::NasRegistrationAccept,
            K::NasRegistrationComplete,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, k)| record(base + i as u64, conn, k))
        .collect()
    }

    #[test]
    fn benign_ladder_yields_no_signals() {
        let signals = ExpertEngine.analyze(&benign_ladder(1, 0));
        assert!(signals.is_empty(), "signals: {signals:?}");
    }

    #[test]
    fn flood_is_detected() {
        use MessageKind as K;
        let mut records = Vec::new();
        for conn in 1..=6u32 {
            for (i, k) in [
                K::RrcSetupRequest,
                K::RrcSetup,
                K::RrcSetupComplete,
                K::NasRegistrationRequest,
                K::NasAuthenticationRequest,
            ]
            .into_iter()
            .enumerate()
            {
                records.push(record(conn as u64 * 10 + i as u64, conn, k));
            }
        }
        let signals = ExpertEngine.analyze(&records);
        assert_eq!(
            signals,
            vec![AnalysisSignal::SignalingFlood { setups: 6, distinct_rntis: 6, stalled: 6 }]
        );
        assert_eq!(signals[0].implicates(), AttackKind::BtsDos);
    }

    #[test]
    fn tmsi_replay_is_detected() {
        let mut records = benign_ladder(1, 0);
        records.extend(benign_ladder(2, 100));
        for r in &mut records {
            r.tmsi = Some(Tmsi(0xBEEF)); // same TMSI on both connections
        }
        let signals = ExpertEngine.analyze(&records);
        assert_eq!(
            signals,
            vec![AnalysisSignal::TmsiReplay { tmsi: Tmsi(0xBEEF), connections: 2 }]
        );
        assert_eq!(signals[0].implicates(), AttackKind::BlindDos);
    }

    #[test]
    fn ordering_violation_and_exposure_mean_downlink_extraction() {
        use MessageKind as K;
        let mut records: Vec<UeMobiFlow> = [
            K::RrcSetupRequest,
            K::RrcSetup,
            K::RrcSetupComplete,
            K::NasRegistrationRequest,
            K::NasAuthenticationRequest,
            K::NasIdentityResponse,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, k)| record(i as u64, 1, k))
        .collect();
        records[5].supi = Some(Supi::new(Plmn::TEST, 42));
        let signals = ExpertEngine.analyze(&records);
        assert!(signals.iter().any(|s| matches!(s, AnalysisSignal::OrderingViolation { .. })));
        assert!(signals.iter().any(|s| matches!(
            s,
            AnalysisSignal::PlaintextIdentityExposure { compliant_position: false, .. }
        )));
        assert!(signals.iter().all(|s| s.implicates() == AttackKind::DownlinkIdExtraction));
    }

    #[test]
    fn compliant_exposure_means_uplink_extraction() {
        use MessageKind as K;
        let mut records: Vec<UeMobiFlow> = [
            K::RrcSetupRequest,
            K::RrcSetup,
            K::RrcSetupComplete,
            K::NasRegistrationRequest,
            K::NasIdentityRequest,
            K::NasIdentityResponse,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, k)| record(i as u64, 1, k))
        .collect();
        records[5].supi = Some(Supi::new(Plmn::TEST, 42));
        let signals = ExpertEngine.analyze(&records);
        // No ordering violation — the trace is standards compliant.
        assert!(!signals.iter().any(|s| matches!(s, AnalysisSignal::OrderingViolation { .. })));
        assert!(signals.iter().any(|s| matches!(
            s,
            AnalysisSignal::PlaintextIdentityExposure { compliant_position: true, .. }
        )));
        assert!(signals.iter().all(|s| s.implicates() == AttackKind::UplinkIdExtraction));
    }

    #[test]
    fn null_security_is_detected_once_per_connection() {
        let mut records = benign_ladder(1, 0);
        for r in &mut records[6..] {
            r.cipher_alg = Some(CipherAlg::Nea0);
            r.integrity_alg = Some(IntegrityAlg::Nia0);
        }
        let signals = ExpertEngine.analyze(&records);
        assert_eq!(signals, vec![AnalysisSignal::NullSecurity { conn: 1 }]);
        assert_eq!(signals[0].implicates(), AttackKind::NullCipher);
    }

    #[test]
    fn suspicion_list_caps_at_three() {
        // A window implicating all five attacks: six stalled handshakes
        // replaying one TMSI under NEA0/NIA0 (flood, replay, null security),
        // a challenge answered with a plaintext identity (downlink
        // extraction) and a legal identity procedure disclosing the SUPI
        // (uplink extraction).
        use crate::{LlmBackend, ModelPersonality, ParsedResponse, PromptTemplate, SimulatedExpert};
        use MessageKind as K;
        let mut records = Vec::new();
        for conn in 1..=6u32 {
            for (i, k) in [
                K::RrcSetupRequest,
                K::RrcSetup,
                K::RrcSetupComplete,
                K::NasRegistrationRequest,
                K::NasAuthenticationRequest,
            ]
            .into_iter()
            .enumerate()
            {
                let mut r = record(conn as u64 * 10 + i as u64, conn, k);
                r.tmsi = Some(Tmsi(7));
                r.cipher_alg = Some(CipherAlg::Nea0);
                r.integrity_alg = Some(IntegrityAlg::Nia0);
                records.push(r);
            }
        }
        for (conn, probe) in [(7u32, K::NasAuthenticationRequest), (8, K::NasIdentityRequest)] {
            let ladder = [K::RrcSetupRequest, probe, K::NasIdentityResponse];
            for (i, k) in ladder.into_iter().enumerate() {
                let mut r = record(conn as u64 * 10 + i as u64, conn, k);
                if k == K::NasIdentityResponse {
                    r.supi = Some(Supi::new(Plmn::TEST, u64::from(conn)));
                }
                records.push(r);
            }
        }
        let implicated: BTreeSet<AttackKind> =
            ExpertEngine.analyze(&records).iter().map(AnalysisSignal::implicates).collect();
        assert_eq!(implicated.len(), 5, "{implicated:?}");

        let prompt = PromptTemplate::default().render(&records);
        let answer = SimulatedExpert::new(ModelPersonality::ORACLE).complete(&prompt).unwrap();
        let parsed = ParsedResponse::parse(&answer);
        assert!(parsed.anomalous, "{answer}");
        // Listed in signal order: the per-connection findings come first.
        assert_eq!(parsed.attacks.len(), 3, "{answer}");
        assert!(parsed.attacks[0].starts_with("Downlink identity extraction"), "{answer}");
        assert!(parsed.attacks[1].starts_with("Uplink identity extraction"), "{answer}");
    }

    #[test]
    fn retransmissions_do_not_trip_ordering_checks() {
        let mut records = benign_ladder(1, 0);
        // Duplicate the auth request (retransmission).
        let dup = records[4].clone();
        records.insert(5, dup);
        let signals = ExpertEngine.analyze(&records);
        assert!(signals.is_empty(), "signals: {signals:?}");
    }
}
