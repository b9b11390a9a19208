//! The unified L3 message vocabulary.
//!
//! [`MessageKind`] is the flat, stable enumeration of every control message
//! the system knows about. It is the categorical "message" variable `m_i` of
//! the MobiFlow telemetry tuple (paper §3.1) and the primary feature of the
//! anomaly detectors, so its codes must stay stable across versions.

use crate::nas::NasMessage;
use crate::rrc::RrcMessage;
use serde::{Deserialize, Serialize};
use std::fmt;
use xsec_types::{Plmn, Supi, Tmsi};

/// Transmission direction relative to the UE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// UE → network.
    Uplink,
    /// Network → UE.
    Downlink,
}

impl Direction {
    /// `true` for uplink.
    pub fn is_uplink(self) -> bool {
        matches!(self, Direction::Uplink)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_uplink() { "UL" } else { "DL" })
    }
}

/// How a UE identifies itself inside NAS messages.
///
/// The privacy-critical distinction: a [`MobileIdentity::PlainSupi`] crossing
/// the air interface is exactly what identity-extraction attacks harvest;
/// benign 5G traffic conceals the permanent identity as a SUCI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MobileIdentity {
    /// Subscription Concealed Identifier — SUPI encrypted under the home
    /// network public key. We model concealment as an opaque nonce-keyed
    /// value: the network can resolve it, an observer cannot.
    Suci {
        /// Home PLMN (transmitted in clear as routing info).
        plmn: Plmn,
        /// The concealed (opaque) part.
        concealed: u64,
    },
    /// Temporary identity previously assigned by the AMF.
    FiveGSTmsi(Tmsi),
    /// Permanent identity in plaintext — should never appear over the air.
    PlainSupi(Supi),
}

impl MobileIdentity {
    /// Whether this identity exposes the permanent subscriber identity.
    pub fn exposes_supi(&self) -> bool {
        matches!(self, MobileIdentity::PlainSupi(_))
    }
}

impl fmt::Display for MobileIdentity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MobileIdentity::Suci { plmn, concealed } => write!(f, "suci-{plmn}-{concealed:016x}"),
            MobileIdentity::FiveGSTmsi(tmsi) => write!(f, "5g-s-tmsi-{tmsi}"),
            MobileIdentity::PlainSupi(supi) => write!(f, "{supi}"),
        }
    }
}

/// An L3 control message: either RRC or NAS.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum L3Message {
    /// Radio Resource Control message (38.331).
    Rrc(RrcMessage),
    /// Non-Access-Stratum message (24.501).
    Nas(NasMessage),
}

impl L3Message {
    /// The flat kind tag of this message.
    pub fn kind(&self) -> MessageKind {
        match self {
            L3Message::Rrc(m) => m.kind(),
            L3Message::Nas(m) => m.kind(),
        }
    }

}

impl fmt::Display for L3Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            L3Message::Rrc(m) => write!(f, "{m}"),
            L3Message::Nas(m) => write!(f, "{m}"),
        }
    }
}

macro_rules! message_kinds {
    ($( $variant:ident => ($code:expr, $name:expr, $dir:ident) ),+ $(,)?) => {
        /// Flat enumeration of every L3 message type in the model.
        ///
        /// The numeric codes are the wire tags of the codec and the category
        /// indices of the one-hot featurizer; they are append-only.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
        #[allow(missing_docs)]
        pub enum MessageKind {
            $($variant),+
        }

        impl MessageKind {
            /// Every kind, ordered by code.
            pub const ALL: &'static [MessageKind] = &[$(MessageKind::$variant),+];

            /// Stable numeric code (wire tag / feature index).
            pub fn code(self) -> u8 {
                match self { $(MessageKind::$variant => $code),+ }
            }

            /// Inverse of [`MessageKind::code`].
            pub fn from_code(code: u8) -> Option<Self> {
                match code { $($code => Some(MessageKind::$variant),)+ _ => None }
            }

            /// The 38.331 / 24.501 style message name.
            pub fn name(self) -> &'static str {
                match self { $(MessageKind::$variant => $name),+ }
            }

            /// Nominal direction of this message type.
            pub fn direction(self) -> Direction {
                match self { $(MessageKind::$variant => Direction::$dir),+ }
            }
        }
    };
}

message_kinds! {
    // --- RRC (codes 0..32) -------------------------------------------------
    RrcSetupRequest        => (0,  "RRCSetupRequest",            Uplink),
    RrcSetup               => (1,  "RRCSetup",                   Downlink),
    RrcSetupComplete       => (2,  "RRCSetupComplete",           Uplink),
    RrcReject              => (3,  "RRCReject",                  Downlink),
    RrcSecurityModeCommand => (4,  "SecurityModeCommand",        Downlink),
    RrcSecurityModeComplete=> (5,  "SecurityModeComplete",       Uplink),
    RrcReconfiguration     => (6,  "RRCReconfiguration",         Downlink),
    RrcReconfigurationComplete => (7, "RRCReconfigurationComplete", Uplink),
    RrcRelease             => (8,  "RRCRelease",                 Downlink),
    RrcPaging              => (9,  "Paging",                     Downlink),
    RrcReestablishmentRequest => (10, "RRCReestablishmentRequest", Uplink),
    RrcReestablishment     => (11, "RRCReestablishment",         Downlink),
    RrcUlInformationTransfer => (12, "ULInformationTransfer",    Uplink),
    RrcDlInformationTransfer => (13, "DLInformationTransfer",    Downlink),
    // --- NAS (codes 32..) --------------------------------------------------
    NasRegistrationRequest => (32, "RegistrationRequest",        Uplink),
    NasRegistrationAccept  => (33, "RegistrationAccept",         Downlink),
    NasRegistrationComplete=> (34, "RegistrationComplete",       Uplink),
    NasRegistrationReject  => (35, "RegistrationReject",         Downlink),
    NasAuthenticationRequest => (36, "AuthenticationRequest",    Downlink),
    NasAuthenticationResponse => (37, "AuthenticationResponse",  Uplink),
    NasAuthenticationFailure => (38, "AuthenticationFailure",    Uplink),
    NasAuthenticationReject => (39, "AuthenticationReject",      Downlink),
    NasIdentityRequest     => (40, "IdentityRequest",            Downlink),
    NasIdentityResponse    => (41, "IdentityResponse",           Uplink),
    NasSecurityModeCommand => (42, "NASSecurityModeCommand",     Downlink),
    NasSecurityModeComplete=> (43, "NASSecurityModeComplete",    Uplink),
    NasSecurityModeReject  => (44, "NASSecurityModeReject",      Uplink),
    NasServiceRequest      => (45, "ServiceRequest",             Uplink),
    NasServiceAccept       => (46, "ServiceAccept",              Downlink),
    NasDeregistrationRequest => (47, "DeregistrationRequest",    Uplink),
    NasDeregistrationAccept => (48, "DeregistrationAccept",      Downlink),
    NasPduSessionEstablishmentRequest => (49, "PDUSessionEstablishmentRequest", Uplink),
    NasPduSessionEstablishmentAccept  => (50, "PDUSessionEstablishmentAccept",  Downlink),
}

impl MessageKind {
    /// The dense feature index of this kind (0-based, contiguous), used by
    /// the one-hot featurizer. Unlike [`MessageKind::code`] this has no gaps.
    pub fn feature_index(self) -> usize {
        Self::ALL.iter().position(|k| *k == self).expect("kind is in ALL")
    }

    /// Number of distinct message kinds (one-hot vocabulary size).
    pub fn vocabulary_size() -> usize {
        Self::ALL.len()
    }
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_for_all_kinds() {
        for kind in MessageKind::ALL {
            assert_eq!(MessageKind::from_code(kind.code()), Some(*kind));
        }
        assert_eq!(MessageKind::from_code(200), None);
    }

    #[test]
    fn codes_are_unique() {
        let mut codes: Vec<u8> = MessageKind::ALL.iter().map(|k| k.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), MessageKind::ALL.len());
    }

    #[test]
    fn rrc_nas_split_at_32() {
        for kind in MessageKind::ALL {
            assert_eq!(kind.code() < 32, format!("{kind:?}").starts_with("Rrc"), "{kind:?}");
        }
    }

    #[test]
    fn feature_indices_are_dense() {
        for (i, kind) in MessageKind::ALL.iter().enumerate() {
            assert_eq!(kind.feature_index(), i);
        }
        assert_eq!(MessageKind::vocabulary_size(), MessageKind::ALL.len());
    }

    #[test]
    fn directions_match_3gpp_roles() {
        assert_eq!(MessageKind::RrcSetupRequest.direction(), Direction::Uplink);
        assert_eq!(MessageKind::RrcSetup.direction(), Direction::Downlink);
        assert_eq!(MessageKind::NasAuthenticationRequest.direction(), Direction::Downlink);
        assert_eq!(MessageKind::NasAuthenticationResponse.direction(), Direction::Uplink);
        assert_eq!(MessageKind::NasIdentityResponse.direction(), Direction::Uplink);
    }

    #[test]
    fn plain_supi_is_flagged_as_exposure() {
        use xsec_types::Plmn;
        let plain = MobileIdentity::PlainSupi(Supi::new(Plmn::TEST, 1));
        let suci = MobileIdentity::Suci { plmn: Plmn::TEST, concealed: 0xABCD };
        let tmsi = MobileIdentity::FiveGSTmsi(Tmsi(5));
        assert!(plain.exposes_supi());
        assert!(!suci.exposes_supi());
        assert!(!tmsi.exposes_supi());
    }

    #[test]
    fn identity_display_forms() {
        use xsec_types::Plmn;
        assert_eq!(
            MobileIdentity::Suci { plmn: Plmn::TEST, concealed: 0xAB }.to_string(),
            "suci-001.01-00000000000000ab"
        );
        assert_eq!(MobileIdentity::FiveGSTmsi(Tmsi(9)).to_string(), "5g-s-tmsi-9");
    }
}
