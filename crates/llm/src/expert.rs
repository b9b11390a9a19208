//! The cellular-security analysis engine.
//!
//! Performs, deterministically, the analysis steps the paper observes
//! capable LLMs performing on rendered telemetry (§4.2): per-connection
//! sequence conformance, identifier-reuse analysis across sessions,
//! signaling-rate analysis, security-algorithm audit, and plaintext-identity
//! audit. Findings become typed [`AnalysisSignal`]s; the report renders them
//! as the four §3.3 outputs — classification, explanation, attribution, and
//! remediation.

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

/// The engine's full report on one telemetry window.
#[derive(Debug, Clone)]
pub struct ExpertReport {
    /// Findings, in detection order.
    pub signals: Vec<AnalysisSignal>,
    /// Ranked attack suspicion (most likely first, up to 3, deduplicated).
    pub suspected: Vec<AttackKind>,
}

impl ExpertReport {
    /// Whether the window should be classified anomalous.
    pub fn is_anomalous(&self) -> bool {
        !self.signals.is_empty()
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
    /// Analyzes a telemetry window.
    pub fn analyze(&self, records: &[UeMobiFlow]) -> ExpertReport {
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

        // Rank suspicion: order signals by specificity (floods and replays
        // are the loudest), dedupe attack kinds, cap at 3.
        let mut suspected = Vec::new();
        let mut ranked: Vec<&AnalysisSignal> = signals.iter().collect();
        ranked.sort_by_key(|s| match s {
            AnalysisSignal::SignalingFlood { .. } => 0,
            AnalysisSignal::TmsiReplay { .. } => 1,
            AnalysisSignal::OrderingViolation { .. } => 2,
            AnalysisSignal::PlaintextIdentityExposure { .. } => 3,
            AnalysisSignal::NullSecurity { .. } => 4,
        });
        for signal in ranked {
            let attack = signal.implicates();
            if !suspected.contains(&attack) {
                suspected.push(attack);
            }
            if suspected.len() == 3 {
                break;
            }
        }

        ExpertReport { signals, suspected }
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
        let report = ExpertEngine.analyze(&benign_ladder(1, 0));
        assert!(!report.is_anomalous(), "signals: {:?}", report.signals);
        assert!(report.suspected.is_empty());
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
        let report = ExpertEngine.analyze(&records);
        let flood = report
            .signals
            .iter()
            .find(|s| matches!(s, AnalysisSignal::SignalingFlood { .. }))
            .expect("flood signal");
        if let AnalysisSignal::SignalingFlood { setups, distinct_rntis, stalled } = flood {
            assert_eq!(*setups, 6);
            assert_eq!(*distinct_rntis, 6);
            assert_eq!(*stalled, 6);
        }
        assert_eq!(report.suspected[0], AttackKind::BtsDos);
    }

    #[test]
    fn tmsi_replay_is_detected() {
        let mut records = benign_ladder(1, 0);
        records.extend(benign_ladder(2, 100));
        for r in &mut records {
            r.tmsi = Some(Tmsi(0xBEEF)); // same TMSI on both connections
        }
        let report = ExpertEngine.analyze(&records);
        assert!(report
            .signals
            .iter()
            .any(|s| matches!(s, AnalysisSignal::TmsiReplay { connections: 2, .. })));
        assert!(report.suspected.contains(&AttackKind::BlindDos));
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
        let report = ExpertEngine.analyze(&records);
        assert!(report
            .signals
            .iter()
            .any(|s| matches!(s, AnalysisSignal::OrderingViolation { .. })));
        assert!(report.signals.iter().any(|s| matches!(
            s,
            AnalysisSignal::PlaintextIdentityExposure { compliant_position: false, .. }
        )));
        assert_eq!(report.suspected[0], AttackKind::DownlinkIdExtraction);
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
        let report = ExpertEngine.analyze(&records);
        // No ordering violation — the trace is standards compliant.
        assert!(!report
            .signals
            .iter()
            .any(|s| matches!(s, AnalysisSignal::OrderingViolation { .. })));
        assert!(report.signals.iter().any(|s| matches!(
            s,
            AnalysisSignal::PlaintextIdentityExposure { compliant_position: true, .. }
        )));
        assert_eq!(report.suspected[0], AttackKind::UplinkIdExtraction);
    }

    #[test]
    fn null_security_is_detected_once_per_connection() {
        let mut records = benign_ladder(1, 0);
        for r in &mut records[6..] {
            r.cipher_alg = Some(CipherAlg::Nea0);
            r.integrity_alg = Some(IntegrityAlg::Nia0);
        }
        let report = ExpertEngine.analyze(&records);
        let nulls = report
            .signals
            .iter()
            .filter(|s| matches!(s, AnalysisSignal::NullSecurity { .. }))
            .count();
        assert_eq!(nulls, 1);
        assert_eq!(report.suspected[0], AttackKind::NullCipher);
    }

    #[test]
    fn suspicion_list_caps_at_three() {
        // Construct a window exhibiting four signal classes.
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
        let report = ExpertEngine.analyze(&records);
        assert!(report.suspected.len() <= 3);
        assert_eq!(report.suspected[0], AttackKind::BtsDos);
        assert_eq!(report.suspected[1], AttackKind::BlindDos);
    }

    #[test]
    fn retransmissions_do_not_trip_ordering_checks() {
        let mut records = benign_ladder(1, 0);
        // Duplicate the auth request (retransmission).
        let dup = records[4].clone();
        records.insert(5, dup);
        let report = ExpertEngine.analyze(&records);
        assert!(!report.is_anomalous(), "signals: {:?}", report.signals);
    }
}
