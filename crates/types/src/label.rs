//! Ground-truth traffic labels.
//!
//! Labels exist only for evaluation: the unsupervised detector never sees
//! them during training (it trains on benign-only data), and the simulator
//! attaches them out-of-band so that the experiment harness can compute
//! accuracy / precision / recall / F1 (Table 2) and per-attack verdicts
//! (Table 3).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The five attacks the paper evaluates (§4, Table 3), plus their provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AttackKind {
    /// "BTS DoS": flood the gNB with fabricated RRC connections that stall at
    /// the authentication stage, each from a fresh RNTI (Kim et al., S&P'19;
    /// paper Figure 2b).
    BtsDos,
    /// "Blind DoS": replay a victim's 5G-S-TMSI across sessions to trip the
    /// network's state for that subscriber (Kim et al., S&P'19).
    BlindDos,
    /// Uplink identity extraction via adaptive overshadowing of uplink
    /// messages (AdaptOver, Erni et al., MobiCom'22). The resulting trace is
    /// standards-compliant looking, which is why most LLMs miss it (Table 3).
    UplinkIdExtraction,
    /// Downlink identity extraction: a MiTM overwrites the downlink
    /// authentication request with an identity request, so the UE answers
    /// with its permanent identity in plaintext (LTrack, Kotuliak et al.,
    /// USENIX Sec'22; paper Figure 2a).
    DownlinkIdExtraction,
    /// Null cipher & integrity downgrade: strip the UE security capabilities
    /// so the session negotiates NEA0/NIA0 (5GReasoner, Hussain et al.,
    /// CCS'19).
    NullCipher,
}

impl AttackKind {
    /// All attacks, in the order Table 3 lists them.
    pub const ALL: [AttackKind; 5] = [
        AttackKind::BtsDos,
        AttackKind::BlindDos,
        AttackKind::UplinkIdExtraction,
        AttackKind::DownlinkIdExtraction,
        AttackKind::NullCipher,
    ];

    /// The short name used in tables and reports.
    pub fn short_name(self) -> &'static str {
        match self {
            AttackKind::BtsDos => "BTS DoS",
            AttackKind::BlindDos => "Blind DoS",
            AttackKind::UplinkIdExtraction => "Uplink ID Extr",
            AttackKind::DownlinkIdExtraction => "Downlink ID Extr",
            AttackKind::NullCipher => "Null Cipher & Int.",
        }
    }

    /// The literature citation the paper associates with the attack.
    pub fn citation(self) -> &'static str {
        match self {
            AttackKind::BtsDos | AttackKind::BlindDos => "Kim et al., IEEE S&P 2019",
            AttackKind::UplinkIdExtraction => "Erni et al. (AdaptOver), MobiCom 2022",
            AttackKind::DownlinkIdExtraction => "Kotuliak et al. (LTrack), USENIX Security 2022",
            AttackKind::NullCipher => "Hussain et al. (5GReasoner), CCS 2019",
        }
    }
}

impl fmt::Display for AttackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Ground-truth class of a telemetry entry or window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Normal traffic from a legitimate device.
    Benign,
    /// Traffic produced by (or directly caused by) the given attack.
    Attack(AttackKind),
}

impl TrafficClass {
    /// Returns `true` for any attack label.
    pub fn is_attack(self) -> bool {
        matches!(self, TrafficClass::Attack(_))
    }

    /// The attack kind, if this is an attack label.
    pub fn attack_kind(self) -> Option<AttackKind> {
        match self {
            TrafficClass::Benign => None,
            TrafficClass::Attack(kind) => Some(kind),
        }
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficClass::Benign => f.write_str("benign"),
            TrafficClass::Attack(kind) => write!(f, "attack:{kind}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_five_attacks_in_table3_order() {
        assert_eq!(AttackKind::ALL.len(), 5);
        assert_eq!(AttackKind::ALL[0], AttackKind::BtsDos);
        assert_eq!(AttackKind::ALL[4], AttackKind::NullCipher);
    }

    #[test]
    fn short_names_match_table3() {
        assert_eq!(AttackKind::BtsDos.short_name(), "BTS DoS");
        assert_eq!(AttackKind::UplinkIdExtraction.short_name(), "Uplink ID Extr");
    }

    #[test]
    fn traffic_class_predicates() {
        assert!(!TrafficClass::Benign.is_attack());
        assert!(TrafficClass::Attack(AttackKind::BtsDos).is_attack());
        assert_eq!(
            TrafficClass::Attack(AttackKind::BlindDos).attack_kind(),
            Some(AttackKind::BlindDos)
        );
        assert_eq!(TrafficClass::Benign.attack_kind(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(TrafficClass::Benign.to_string(), "benign");
        assert_eq!(
            TrafficClass::Attack(AttackKind::NullCipher).to_string(),
            "attack:Null Cipher & Int."
        );
    }

    #[test]
    fn every_attack_has_a_citation() {
        for kind in AttackKind::ALL {
            assert!(!kind.citation().is_empty());
        }
    }
}
