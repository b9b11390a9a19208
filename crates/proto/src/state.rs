//! Procedure conformance checking.
//!
//! The conformance checker [`ProcedureConformance`] replays an observed
//! message sequence against the 3GPP procedure grammar and reports
//! [`Violation`]s. Nothing on the live path calls it (the LLM expert's
//! `ExpertEngine::analyze` carries its own per-connection ordering check):
//! it is an independent lens for tests and examples
//! (`tests/integration_attacks.rs`, `examples/identity_extraction_hunt.rs`).
//!
//! The grammar is intentionally *permissive where the spec is permissive*:
//! retransmissions (the same message repeated) are tolerated and merely
//! counted, and an `IdentityRequest → IdentityResponse` exchange is legal
//! before authentication (24.501 §5.4.3) — which is exactly why the uplink
//! identity-extraction attack looks standards-compliant and is the hard case
//! in the paper's Table 3.

use crate::msg::{L3Message, MessageKind};
use crate::nas::NasMessage;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A conformance finding on an observed sequence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Violation {
    /// A message arrived that the procedure grammar does not allow in the
    /// current state (e.g. `IdentityResponse` while an `AuthenticationRequest`
    /// is outstanding — the downlink identity-extraction signature).
    OutOfOrder {
        /// The offending message kind.
        kind: MessageKind,
        /// Human-readable description of what was expected instead.
        expected: String,
    },
    /// A connection attempt was abandoned before completing authentication —
    /// one abandoned handshake is noise; a burst of them is the BTS DoS shape.
    AbandonedHandshake {
        /// The state the exchange reached before going silent.
        last_state: String,
    },
    /// The permanent identity crossed the air interface in plaintext.
    /// Ambiguous by itself (paper §5): flagged as a violation-level finding
    /// but the pipeline treats it as "needs analyst attention".
    PlaintextIdentityDisclosure,
    /// The session negotiated null ciphering and/or null integrity.
    NullSecurityNegotiated {
        /// `true` if ciphering is NEA0.
        null_cipher: bool,
        /// `true` if integrity is NIA0.
        null_integrity: bool,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::OutOfOrder { kind, expected } => {
                write!(f, "out-of-order {kind}; expected {expected}")
            }
            Violation::AbandonedHandshake { last_state } => {
                write!(f, "handshake abandoned at {last_state}")
            }
            Violation::PlaintextIdentityDisclosure => {
                f.write_str("permanent identity disclosed in plaintext")
            }
            Violation::NullSecurityNegotiated { null_cipher, null_integrity } => write!(
                f,
                "null security negotiated (cipher={}, integrity={})",
                if *null_cipher { "NEA0" } else { "ok" },
                if *null_integrity { "NIA0" } else { "ok" }
            ),
        }
    }
}

/// Grammar phase of one UE connection, as seen from the network side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Nothing seen yet.
    Start,
    /// `RRCSetupRequest` seen.
    RrcRequested,
    /// `RRCSetup` sent.
    RrcGranted,
    /// `RRCSetupComplete` (with registration/service request) seen.
    RrcComplete,
    /// `AuthenticationRequest` outstanding.
    AuthPending,
    /// Authentication answered; NAS SMC may follow.
    Authenticated,
    /// NAS security established.
    NasSecured,
    /// Registration accepted.
    Registered,
    /// Connection released.
    Released,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Start => "start",
            Phase::RrcRequested => "rrc-requested",
            Phase::RrcGranted => "rrc-granted",
            Phase::RrcComplete => "rrc-complete",
            Phase::AuthPending => "auth-pending",
            Phase::Authenticated => "authenticated",
            Phase::NasSecured => "nas-secured",
            Phase::Registered => "registered",
            Phase::Released => "released",
        }
    }
}

/// Replays one UE connection's message sequence against the procedure
/// grammar, accumulating violations.
#[derive(Debug)]
pub struct ProcedureConformance {
    phase: Phase,
    last_kind: Option<MessageKind>,
    retransmissions: u32,
    identity_request_outstanding: bool,
    violations: Vec<Violation>,
}

impl Default for ProcedureConformance {
    fn default() -> Self {
        Self::new()
    }
}

impl ProcedureConformance {
    /// Starts a fresh conformance check for one connection.
    pub fn new() -> Self {
        ProcedureConformance {
            phase: Phase::Start,
            last_kind: None,
            retransmissions: 0,
            identity_request_outstanding: false,
            violations: Vec::new(),
        }
    }

    /// Violations found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Whether the sequence so far is fully conformant.
    pub fn is_conformant(&self) -> bool {
        self.violations.is_empty()
    }

    /// Feeds the next observed message. Content-level checks (plaintext
    /// identity, null security) need the full message; sequence-level checks
    /// use only its kind.
    pub fn observe(&mut self, msg: &L3Message) {
        let kind = msg.kind();

        // Retransmission tolerance: an identical kind repeated back-to-back
        // is counted, not flagged — RLC retransmissions duplicate messages
        // and the paper explicitly attributes benign false positives to them.
        if self.last_kind == Some(kind) {
            self.retransmissions += 1;
            return;
        }
        self.last_kind = Some(kind);

        self.check_content(msg);
        self.advance(kind);
    }

    /// Feeds a whole sequence.
    #[cfg(test)]
    fn observe_all<'a>(&mut self, msgs: impl IntoIterator<Item = &'a L3Message>) {
        for msg in msgs {
            self.observe(msg);
        }
    }

    /// Declares the connection over (released or went silent). If the
    /// exchange never reached registration and was not explicitly released,
    /// this records an abandoned handshake.
    pub fn finish(&mut self) {
        if !matches!(self.phase, Phase::Registered | Phase::Released | Phase::Start) {
            self.violations
                .push(Violation::AbandonedHandshake { last_state: self.phase.name().to_string() });
        }
    }

    fn check_content(&mut self, msg: &L3Message) {
        if let L3Message::Nas(nas) = msg {
            if let Some(identity) = nas.disclosed_identity() {
                if identity.exposes_supi() {
                    self.violations.push(Violation::PlaintextIdentityDisclosure);
                }
            }
            if let NasMessage::SecurityModeCommand { cipher, integrity, .. } = nas {
                if cipher.is_null() || integrity.is_null() {
                    self.violations.push(Violation::NullSecurityNegotiated {
                        null_cipher: cipher.is_null(),
                        null_integrity: integrity.is_null(),
                    });
                }
            }
        }
        if let L3Message::Rrc(crate::rrc::RrcMessage::SecurityModeCommand { cipher, integrity }) =
            msg
        {
            if cipher.is_null() || integrity.is_null() {
                self.violations.push(Violation::NullSecurityNegotiated {
                    null_cipher: cipher.is_null(),
                    null_integrity: integrity.is_null(),
                });
            }
        }
    }

    fn out_of_order(&mut self, kind: MessageKind, expected: &str) {
        self.violations
            .push(Violation::OutOfOrder { kind, expected: expected.to_string() });
    }

    fn advance(&mut self, kind: MessageKind) {
        use MessageKind as K;

        // Identity procedures are legal at any point after RRC completion
        // (24.501 §5.4.3) — this permissiveness is what lets the uplink
        // identity-extraction trace pass as conformant.
        match kind {
            K::NasIdentityRequest => {
                if matches!(self.phase, Phase::Start | Phase::RrcRequested | Phase::RrcGranted) {
                    self.out_of_order(kind, "an established RRC connection first");
                } else {
                    self.identity_request_outstanding = true;
                }
                return;
            }
            K::NasIdentityResponse => {
                if self.identity_request_outstanding {
                    self.identity_request_outstanding = false;
                } else if matches!(self.phase, Phase::AuthPending) {
                    // The Figure 2a signature: the UE answers an
                    // AuthenticationRequest with an IdentityResponse.
                    self.out_of_order(kind, "AuthenticationResponse to the outstanding challenge");
                } else {
                    self.out_of_order(kind, "a preceding IdentityRequest");
                }
                return;
            }
            // Paging and information transfer are carriers/asynchronous.
            K::RrcPaging | K::RrcUlInformationTransfer | K::RrcDlInformationTransfer => return,
            _ => {}
        }

        self.phase = match (self.phase, kind) {
            (Phase::Start, K::RrcSetupRequest) => Phase::RrcRequested,
            (Phase::Start, other) => {
                self.out_of_order(other, "RRCSetupRequest to open the connection");
                Phase::Start
            }
            (Phase::RrcRequested, K::RrcSetup) => Phase::RrcGranted,
            (Phase::RrcRequested, K::RrcReject) => Phase::Released,
            (Phase::RrcRequested, other) => {
                self.out_of_order(other, "RRCSetup or RRCReject");
                Phase::RrcRequested
            }
            (Phase::RrcGranted, K::RrcSetupComplete) => Phase::RrcComplete,
            (Phase::RrcGranted, other) => {
                self.out_of_order(other, "RRCSetupComplete");
                Phase::RrcGranted
            }
            // Registration/service request rides inside RRCSetupComplete; a
            // standalone RegistrationRequest right after is also accepted
            // (the simulator logs the piggybacked NAS separately).
            (Phase::RrcComplete, K::NasRegistrationRequest | K::NasServiceRequest) => {
                Phase::RrcComplete
            }
            (Phase::RrcComplete, K::NasAuthenticationRequest) => Phase::AuthPending,
            (Phase::RrcComplete, K::NasServiceAccept) => Phase::Registered,
            (Phase::RrcComplete, K::RrcRelease) => Phase::Released,
            (Phase::RrcComplete, other) => {
                self.out_of_order(other, "AuthenticationRequest (or ServiceAccept)");
                Phase::RrcComplete
            }
            (Phase::AuthPending, K::NasAuthenticationResponse | K::NasAuthenticationFailure) => {
                Phase::Authenticated
            }
            (Phase::AuthPending, K::RrcRelease) => Phase::Released,
            (Phase::AuthPending, other) => {
                self.out_of_order(other, "AuthenticationResponse");
                Phase::AuthPending
            }
            (Phase::Authenticated, K::NasSecurityModeCommand) => Phase::NasSecured,
            (Phase::Authenticated, K::NasAuthenticationReject | K::RrcRelease) => Phase::Released,
            (Phase::Authenticated, K::NasAuthenticationRequest) => Phase::AuthPending,
            (Phase::Authenticated, other) => {
                self.out_of_order(other, "NASSecurityModeCommand");
                Phase::Authenticated
            }
            (Phase::NasSecured, K::NasSecurityModeComplete | K::NasSecurityModeReject) => {
                Phase::NasSecured
            }
            (Phase::NasSecured, K::NasRegistrationAccept) => Phase::NasSecured,
            (Phase::NasSecured, K::NasRegistrationComplete) => Phase::Registered,
            (Phase::NasSecured, K::RrcSecurityModeCommand | K::RrcSecurityModeComplete) => {
                Phase::NasSecured
            }
            (Phase::NasSecured, K::RrcRelease) => Phase::Released,
            (Phase::NasSecured, other) => {
                self.out_of_order(other, "security/registration completion");
                Phase::NasSecured
            }
            (Phase::Registered, K::RrcRelease) => Phase::Released,
            (
                Phase::Registered,
                K::RrcSecurityModeCommand
                | K::RrcSecurityModeComplete
                | K::RrcReconfiguration
                | K::RrcReconfigurationComplete
                | K::NasPduSessionEstablishmentRequest
                | K::NasPduSessionEstablishmentAccept
                | K::NasDeregistrationRequest
                | K::NasDeregistrationAccept,
            ) => Phase::Registered,
            (Phase::Registered, other) => {
                self.out_of_order(other, "session traffic or release");
                Phase::Registered
            }
            (Phase::Released, K::RrcSetupRequest) => Phase::RrcRequested,
            (Phase::Released, other) => {
                self.out_of_order(other, "a new RRCSetupRequest");
                Phase::Released
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nas::IdentityType;
    use crate::rrc::RrcMessage;
    use crate::msg::MobileIdentity;
    use xsec_types::{
        CipherAlg, EstablishmentCause, IntegrityAlg, Plmn, SecurityCapabilities, Supi, Tmsi,
    };

    fn setup_request() -> L3Message {
        L3Message::Rrc(RrcMessage::SetupRequest {
            ue_identity: 1,
            cause: EstablishmentCause::MoSignalling,
        })
    }

    fn registration() -> NasMessage {
        NasMessage::RegistrationRequest {
            identity: MobileIdentity::Suci { plmn: Plmn::TEST, concealed: 7 },
            capabilities: SecurityCapabilities::full(),
        }
    }

    fn registration_request() -> L3Message {
        L3Message::Nas(registration())
    }

    /// `RRCSetupComplete` carrying the registration, as a UE sends it.
    fn setup_complete() -> L3Message {
        L3Message::Rrc(RrcMessage::SetupComplete { nas: Box::new(registration()) })
    }

    fn benign_ladder() -> Vec<L3Message> {
        vec![
            setup_request(),
            L3Message::Rrc(RrcMessage::Setup),
            setup_complete(),
            registration_request(),
            L3Message::Nas(NasMessage::AuthenticationRequest { rand: 1, autn: 2 }),
            L3Message::Nas(NasMessage::AuthenticationResponse { res: 3 }),
            L3Message::Nas(NasMessage::SecurityModeCommand {
                cipher: CipherAlg::Nea2,
                integrity: IntegrityAlg::Nia2,
                replayed_capabilities: SecurityCapabilities::full(),
            }),
            L3Message::Nas(NasMessage::SecurityModeComplete),
            L3Message::Nas(NasMessage::RegistrationAccept { new_tmsi: Tmsi(9) }),
            L3Message::Nas(NasMessage::RegistrationComplete),
        ]
    }

    #[test]
    fn benign_ladder_is_conformant() {
        let mut check = ProcedureConformance::new();
        let ladder = benign_ladder();
        check.observe_all(&ladder);
        check.finish();
        assert!(check.is_conformant(), "violations: {:?}", check.violations());
        assert!(matches!(check.phase, Phase::Registered));
    }

    #[test]
    fn identity_response_to_auth_request_is_out_of_order() {
        // Figure 2a: the downlink identity-extraction attack makes the UE
        // answer the authentication challenge with an IdentityResponse.
        let mut check = ProcedureConformance::new();
        let mut ladder = benign_ladder()[..5].to_vec(); // up to AuthenticationRequest
        ladder.push(L3Message::Nas(NasMessage::IdentityResponse {
            identity: MobileIdentity::PlainSupi(Supi::new(Plmn::TEST, 42)),
        }));
        check.observe_all(&ladder);
        let violations = check.violations();
        assert!(violations.iter().any(|v| matches!(v, Violation::OutOfOrder { .. })));
        assert!(violations.contains(&Violation::PlaintextIdentityDisclosure));
    }

    #[test]
    fn legal_identity_procedure_is_conformant_but_flags_plaintext() {
        // The uplink identity-extraction shape: IdentityRequest arrives in a
        // legal position, the UE replies — no ordering violation, only the
        // (ambiguous) plaintext disclosure finding.
        let mut check = ProcedureConformance::new();
        let ladder = vec![
            setup_request(),
            L3Message::Rrc(RrcMessage::Setup),
            setup_complete(),
            registration_request(),
            L3Message::Nas(NasMessage::IdentityRequest { id_type: IdentityType::PlainSupi }),
            L3Message::Nas(NasMessage::IdentityResponse {
                identity: MobileIdentity::PlainSupi(Supi::new(Plmn::TEST, 42)),
            }),
        ];
        check.observe_all(&ladder);
        let ordering_violations: Vec<_> = check
            .violations()
            .iter()
            .filter(|v| matches!(v, Violation::OutOfOrder { .. }))
            .collect();
        assert!(ordering_violations.is_empty(), "unexpected: {ordering_violations:?}");
        assert!(check.violations().contains(&Violation::PlaintextIdentityDisclosure));
    }

    #[test]
    fn abandoned_handshake_is_flagged_on_finish() {
        // The BTS DoS per-connection shape: the flow stalls after the
        // authentication request and the connection goes silent.
        let mut check = ProcedureConformance::new();
        check.observe_all(&benign_ladder()[..5]);
        check.finish();
        assert!(check
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::AbandonedHandshake { .. })));
    }

    #[test]
    fn completed_session_is_not_abandoned() {
        let mut check = ProcedureConformance::new();
        let ladder = benign_ladder();
        check.observe_all(&ladder);
        check.finish();
        assert!(!check
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::AbandonedHandshake { .. })));
    }

    #[test]
    fn null_security_is_flagged() {
        let mut check = ProcedureConformance::new();
        let mut ladder = benign_ladder();
        ladder[6] = L3Message::Nas(NasMessage::SecurityModeCommand {
            cipher: CipherAlg::Nea0,
            integrity: IntegrityAlg::Nia0,
            replayed_capabilities: SecurityCapabilities::null_only(),
        });
        check.observe_all(&ladder);
        assert!(check.violations().contains(&Violation::NullSecurityNegotiated {
            null_cipher: true,
            null_integrity: true,
        }));
    }

    #[test]
    fn retransmissions_are_tolerated_and_counted() {
        let mut check = ProcedureConformance::new();
        let ladder = benign_ladder();
        // Duplicate the auth request (RLC retransmission).
        check.observe_all(&ladder[..5]);
        check.observe(&ladder[4]);
        check.observe_all(&ladder[5..]);
        check.finish();
        assert!(check.is_conformant(), "violations: {:?}", check.violations());
        assert_eq!(check.retransmissions, 1);
    }

    #[test]
    fn nas_before_rrc_is_out_of_order() {
        let mut check = ProcedureConformance::new();
        check.observe(&registration_request());
        assert!(matches!(check.violations()[0], Violation::OutOfOrder { .. }));
    }

    #[test]
    fn reconnect_after_release_is_legal() {
        let mut check = ProcedureConformance::new();
        let mut ladder = benign_ladder();
        ladder.push(L3Message::Rrc(RrcMessage::Release {
            cause: xsec_types::ReleaseCause::Normal,
        }));
        ladder.push(setup_request());
        ladder.push(L3Message::Rrc(RrcMessage::Setup));
        check.observe_all(&ladder);
        assert!(check.is_conformant(), "violations: {:?}", check.violations());
    }

    #[test]
    fn empty_sequence_finishes_clean() {
        let mut check = ProcedureConformance::new();
        check.finish();
        assert!(check.is_conformant());
        assert!(!matches!(check.phase, Phase::Registered));
    }
}
