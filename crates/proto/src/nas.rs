//! NAS message model (3GPP 24.501 subset).
//!
//! The registration/authentication/security-mode ladder here is the one the
//! paper's Figure 2 abstracts: `Reg. Req. → Auth. Req. → Auth. Resp.` in
//! benign traffic, with the identity-extraction attacks perturbing exactly
//! this exchange.

use crate::msg::{MessageKind, MobileIdentity};
use serde::{Deserialize, Serialize};
use std::fmt;
use xsec_types::{CipherAlg, IntegrityAlg, SecurityCapabilities, Tmsi};

/// Which identity an `IdentityRequest` demands. The one kind any sender in
/// the model asks for is the plaintext SUPI: the AMF's fallback and the
/// identity-extraction attacks both request it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IdentityType {
    /// The *plaintext* permanent identity — legitimate networks only fall
    /// back to this when no security context can be established; attackers
    /// request it outright.
    PlainSupi,
}

impl fmt::Display for IdentityType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IdentityType::PlainSupi => "SUPI",
        })
    }
}

/// Why a registration was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NasRejectCause {
    /// Illegal UE (authentication failed).
    IllegalUe,
    /// PLMN not allowed.
    PlmnNotAllowed,
    /// Congestion.
    Congestion,
}

/// A NAS message with the fields the telemetry and state machines consume.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NasMessage {
    /// UL: initial registration; carries the UE identity and capabilities.
    RegistrationRequest {
        /// SUCI on first contact, 5G-S-TMSI on re-registration.
        identity: MobileIdentity,
        /// Advertised security capabilities.
        capabilities: SecurityCapabilities,
    },
    /// DL: registration succeeded; assigns a fresh temporary identity.
    RegistrationAccept {
        /// Newly allocated 5G-S-TMSI.
        new_tmsi: Tmsi,
    },
    /// UL: acknowledges the accept.
    RegistrationComplete,
    /// DL: registration rejected.
    RegistrationReject {
        /// Reject cause.
        cause: NasRejectCause,
    },
    /// DL: 5G-AKA challenge.
    AuthenticationRequest {
        /// Network random challenge.
        rand: u64,
        /// Authentication token proving network authenticity.
        autn: u64,
    },
    /// UL: challenge response.
    AuthenticationResponse {
        /// RES* value derived from the challenge.
        res: u64,
    },
    /// UL: the UE could not verify the network (e.g. MAC failure).
    AuthenticationFailure {
        /// 24.501 cause value (20 = MAC failure, 21 = sync failure).
        cause: u8,
    },
    /// DL: network gives up on authentication.
    AuthenticationReject,
    /// DL: asks the UE to identify itself.
    IdentityRequest {
        /// Which identity is demanded.
        id_type: IdentityType,
    },
    /// UL: the requested identity.
    IdentityResponse {
        /// The identity disclosed.
        identity: MobileIdentity,
    },
    /// DL: selects NAS security algorithms.
    SecurityModeCommand {
        /// Selected ciphering algorithm.
        cipher: CipherAlg,
        /// Selected integrity algorithm.
        integrity: IntegrityAlg,
        /// Echo of the capabilities the network *received* — lets the UE
        /// detect a capability-stripping MiTM (the 33.501 anti-bidding-down
        /// echo). The null-cipher attack forges this echo to match.
        replayed_capabilities: SecurityCapabilities,
    },
    /// UL: acknowledges NAS security.
    SecurityModeComplete,
    /// UL: the UE refuses the selected algorithms.
    SecurityModeReject {
        /// 24.501 cause value (23 = UE security capabilities mismatch).
        cause: u8,
    },
    /// UL: service request from idle.
    ServiceRequest {
        /// The temporary identity presented.
        tmsi: Tmsi,
    },
    /// DL: service request granted.
    ServiceAccept,
    /// UL: UE-initiated deregistration.
    DeregistrationRequest,
    /// DL: acknowledges deregistration.
    DeregistrationAccept,
    /// UL: asks for a PDU session (user-plane connectivity).
    PduSessionEstablishmentRequest {
        /// Requested session id.
        session_id: u8,
    },
    /// DL: grants the PDU session.
    PduSessionEstablishmentAccept {
        /// Granted session id.
        session_id: u8,
    },
}

impl NasMessage {
    /// The flat kind tag.
    pub fn kind(&self) -> MessageKind {
        match self {
            NasMessage::RegistrationRequest { .. } => MessageKind::NasRegistrationRequest,
            NasMessage::RegistrationAccept { .. } => MessageKind::NasRegistrationAccept,
            NasMessage::RegistrationComplete => MessageKind::NasRegistrationComplete,
            NasMessage::RegistrationReject { .. } => MessageKind::NasRegistrationReject,
            NasMessage::AuthenticationRequest { .. } => MessageKind::NasAuthenticationRequest,
            NasMessage::AuthenticationResponse { .. } => MessageKind::NasAuthenticationResponse,
            NasMessage::AuthenticationFailure { .. } => MessageKind::NasAuthenticationFailure,
            NasMessage::AuthenticationReject => MessageKind::NasAuthenticationReject,
            NasMessage::IdentityRequest { .. } => MessageKind::NasIdentityRequest,
            NasMessage::IdentityResponse { .. } => MessageKind::NasIdentityResponse,
            NasMessage::SecurityModeCommand { .. } => MessageKind::NasSecurityModeCommand,
            NasMessage::SecurityModeComplete => MessageKind::NasSecurityModeComplete,
            NasMessage::SecurityModeReject { .. } => MessageKind::NasSecurityModeReject,
            NasMessage::ServiceRequest { .. } => MessageKind::NasServiceRequest,
            NasMessage::ServiceAccept => MessageKind::NasServiceAccept,
            NasMessage::DeregistrationRequest => MessageKind::NasDeregistrationRequest,
            NasMessage::DeregistrationAccept => MessageKind::NasDeregistrationAccept,
            NasMessage::PduSessionEstablishmentRequest { .. } => {
                MessageKind::NasPduSessionEstablishmentRequest
            }
            NasMessage::PduSessionEstablishmentAccept { .. } => {
                MessageKind::NasPduSessionEstablishmentAccept
            }
        }
    }

    /// The mobile identity this message discloses over the air, if any.
    pub fn disclosed_identity(&self) -> Option<&MobileIdentity> {
        match self {
            NasMessage::RegistrationRequest { identity, .. }
            | NasMessage::IdentityResponse { identity } => Some(identity),
            _ => None,
        }
    }
}

impl fmt::Display for NasMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NasMessage::RegistrationRequest { identity, .. } => {
                write!(f, "RegistrationRequest({identity})")
            }
            NasMessage::RegistrationAccept { new_tmsi } => {
                write!(f, "RegistrationAccept(tmsi={new_tmsi})")
            }
            NasMessage::IdentityRequest { id_type } => write!(f, "IdentityRequest({id_type})"),
            NasMessage::IdentityResponse { identity } => write!(f, "IdentityResponse({identity})"),
            NasMessage::SecurityModeCommand { cipher, integrity, .. } => {
                write!(f, "NASSecurityModeCommand({cipher}, {integrity})")
            }
            NasMessage::ServiceRequest { tmsi } => write!(f, "ServiceRequest(tmsi={tmsi})"),
            other => f.write_str(other.kind().name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_types::{Plmn, Supi};

    #[test]
    fn kind_mapping_is_consistent() {
        let msg = NasMessage::AuthenticationRequest { rand: 1, autn: 2 };
        assert_eq!(msg.kind(), MessageKind::NasAuthenticationRequest);
        assert_eq!(
            NasMessage::SecurityModeComplete.kind(),
            MessageKind::NasSecurityModeComplete
        );
    }

    #[test]
    fn disclosed_identity_covers_registration_and_identity_response() {
        let suci = MobileIdentity::Suci { plmn: Plmn::TEST, concealed: 1 };
        let reg = NasMessage::RegistrationRequest {
            identity: suci,
            capabilities: SecurityCapabilities::full(),
        };
        assert_eq!(reg.disclosed_identity(), Some(&suci));

        let plain = MobileIdentity::PlainSupi(Supi::new(Plmn::TEST, 42));
        let resp = NasMessage::IdentityResponse { identity: plain };
        assert_eq!(resp.disclosed_identity(), Some(&plain));

        assert_eq!(NasMessage::ServiceAccept.disclosed_identity(), None);
    }

    #[test]
    fn display_names_match_spec_spelling() {
        assert_eq!(
            NasMessage::IdentityRequest { id_type: IdentityType::PlainSupi }.to_string(),
            "IdentityRequest(SUPI)"
        );
        assert_eq!(NasMessage::DeregistrationRequest.to_string(), "DeregistrationRequest");
    }
}
