//! RRC message model (3GPP 38.331 subset).

use crate::msg::{MessageKind, MobileIdentity};
use crate::nas::NasMessage;
use serde::{Deserialize, Serialize};
use std::fmt;
use xsec_types::{CipherAlg, EstablishmentCause, IntegrityAlg, ReleaseCause, Rnti};

/// An RRC message with the fields the telemetry and state machines consume.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RrcMessage {
    /// UL: first message on SRB0; carries the UE identity part and cause.
    SetupRequest {
        /// Random value or 5G-S-TMSI part used for contention resolution.
        ue_identity: u64,
        /// Why the UE wants a connection.
        cause: EstablishmentCause,
    },
    /// DL: the network grants SRB1 and assigns configuration.
    Setup,
    /// UL: completes establishment; carries the first NAS message
    /// (registration or service request) piggybacked.
    SetupComplete {
        /// The dedicated NAS message (boxed: it is the largest field of
        /// any RRC message, and every `L3Message` would pay for it).
        nas: Box<NasMessage>,
    },
    /// DL: the network rejects the establishment (congestion, barring).
    Reject {
        /// Back-off the UE must wait before retrying, in seconds.
        wait_time_s: u8,
    },
    /// DL: activates AS security with the selected algorithms.
    SecurityModeCommand {
        /// Selected ciphering algorithm.
        cipher: CipherAlg,
        /// Selected integrity algorithm.
        integrity: IntegrityAlg,
    },
    /// UL: acknowledges AS security activation.
    SecurityModeComplete,
    /// DL: (re)configures radio bearers; follows security activation.
    Reconfiguration,
    /// UL: acknowledges reconfiguration.
    ReconfigurationComplete,
    /// DL: releases the connection.
    Release {
        /// Why the network released the UE.
        cause: ReleaseCause,
    },
    /// DL: pages an idle UE by its temporary identity.
    Paging {
        /// The paged identity (normally a 5G-S-TMSI).
        ue_identity: MobileIdentity,
    },
    /// UL: requests re-establishment after radio link failure.
    ReestablishmentRequest {
        /// The C-RNTI the UE had before the failure.
        old_rnti: Rnti,
    },
    /// DL: grants re-establishment.
    Reestablishment,
    /// UL: carries a NAS message after connection establishment.
    UlInformationTransfer {
        /// The dedicated NAS message.
        nas: Box<NasMessage>,
    },
    /// DL: carries a NAS message toward the UE.
    DlInformationTransfer {
        /// The dedicated NAS message.
        nas: Box<NasMessage>,
    },
}

impl RrcMessage {
    /// The flat kind tag.
    pub fn kind(&self) -> MessageKind {
        match self {
            RrcMessage::SetupRequest { .. } => MessageKind::RrcSetupRequest,
            RrcMessage::Setup => MessageKind::RrcSetup,
            RrcMessage::SetupComplete { .. } => MessageKind::RrcSetupComplete,
            RrcMessage::Reject { .. } => MessageKind::RrcReject,
            RrcMessage::SecurityModeCommand { .. } => MessageKind::RrcSecurityModeCommand,
            RrcMessage::SecurityModeComplete => MessageKind::RrcSecurityModeComplete,
            RrcMessage::Reconfiguration => MessageKind::RrcReconfiguration,
            RrcMessage::ReconfigurationComplete => MessageKind::RrcReconfigurationComplete,
            RrcMessage::Release { .. } => MessageKind::RrcRelease,
            RrcMessage::Paging { .. } => MessageKind::RrcPaging,
            RrcMessage::ReestablishmentRequest { .. } => MessageKind::RrcReestablishmentRequest,
            RrcMessage::Reestablishment => MessageKind::RrcReestablishment,
            RrcMessage::UlInformationTransfer { .. } => MessageKind::RrcUlInformationTransfer,
            RrcMessage::DlInformationTransfer { .. } => MessageKind::RrcDlInformationTransfer,
        }
    }

    /// The NAS message piggybacked on this message, if any.
    pub fn nas(&self) -> Option<&NasMessage> {
        match self {
            RrcMessage::SetupComplete { nas }
            | RrcMessage::UlInformationTransfer { nas }
            | RrcMessage::DlInformationTransfer { nas } => Some(nas),
            _ => None,
        }
    }
}

impl fmt::Display for RrcMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RrcMessage::SetupRequest { ue_identity, cause } => {
                write!(f, "RRCSetupRequest(id={ue_identity:#x}, cause={cause})")
            }
            RrcMessage::SecurityModeCommand { cipher, integrity } => {
                write!(f, "SecurityModeCommand({cipher}, {integrity})")
            }
            RrcMessage::Release { cause } => write!(f, "RRCRelease({cause})"),
            RrcMessage::Paging { ue_identity } => write!(f, "Paging({ue_identity})"),
            RrcMessage::Reject { wait_time_s } => write!(f, "RRCReject(wait={wait_time_s}s)"),
            RrcMessage::ReestablishmentRequest { old_rnti } => {
                write!(f, "RRCReestablishmentRequest(old={old_rnti})")
            }
            other => f.write_str(other.kind().name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_types::Tmsi;

    #[test]
    fn kind_mapping_is_consistent() {
        let msg = RrcMessage::SetupRequest { ue_identity: 1, cause: EstablishmentCause::MoData };
        assert_eq!(msg.kind(), MessageKind::RrcSetupRequest);
        assert_eq!(RrcMessage::Setup.kind(), MessageKind::RrcSetup);
        assert_eq!(
            RrcMessage::Release { cause: ReleaseCause::Normal }.kind(),
            MessageKind::RrcRelease
        );
    }

    #[test]
    fn nas_is_the_piggybacked_message() {
        let msg = RrcMessage::UlInformationTransfer { nas: Box::new(NasMessage::ServiceAccept) };
        assert_eq!(msg.nas(), Some(&NasMessage::ServiceAccept));
        assert_eq!(RrcMessage::Setup.nas(), None);
        let request = NasMessage::ServiceRequest { tmsi: Tmsi(9) };
        let complete = RrcMessage::SetupComplete { nas: Box::new(request.clone()) };
        assert_eq!(complete.nas(), Some(&request));
        let down = RrcMessage::DlInformationTransfer { nas: Box::new(NasMessage::ServiceAccept) };
        assert_eq!(down.nas(), Some(&NasMessage::ServiceAccept));
    }

    #[test]
    fn display_shows_security_params() {
        let msg = RrcMessage::SecurityModeCommand {
            cipher: CipherAlg::Nea0,
            integrity: IntegrityAlg::Nia0,
        };
        assert_eq!(msg.to_string(), "SecurityModeCommand(NEA0, NIA0)");
    }

    #[test]
    fn display_shows_paged_identity() {
        let msg = RrcMessage::Paging {
            ue_identity: MobileIdentity::FiveGSTmsi(Tmsi(7)),
        };
        assert_eq!(msg.to_string(), "Paging(5g-s-tmsi-7)");
    }
}
