//! MobiFlow record types.

use serde::{Deserialize, Serialize};
use xsec_proto::{Direction, MessageKind};
use xsec_types::{
    CellId, CipherAlg, EstablishmentCause, IntegrityAlg, ReleaseCause, Rnti, Supi, Timestamp,
    Tmsi,
};

/// Schema version tag carried by every encoded record.
pub const MOBIFLOW_VERSION: u32 = 2;

/// One per-message UE telemetry record — the `x_i` of the paper's time
/// series, with the Table 1 parameter set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UeMobiFlow {
    /// Monotonic record index within the stream.
    pub msg_id: u64,
    /// Observation timestamp.
    pub timestamp: Timestamp,
    /// Serving cell.
    pub cell: CellId,
    /// C-RNTI of the connection.
    pub rnti: Rnti,
    /// DU-local UE association id.
    pub du_ue_id: u32,
    /// Message direction.
    pub direction: Direction,
    /// The control message observed (`m_i`).
    pub msg: MessageKind,
    /// Temporary identity bound to the connection, if known.
    pub tmsi: Option<Tmsi>,
    /// Permanent identity, only when observed in plaintext in this message.
    pub supi: Option<Supi>,
    /// Active ciphering algorithm (None before security establishes).
    pub cipher_alg: Option<CipherAlg>,
    /// Active integrity algorithm.
    pub integrity_alg: Option<IntegrityAlg>,
    /// RRC establishment cause of the connection.
    pub establishment_cause: Option<EstablishmentCause>,
    /// Release cause, set only on `RRCRelease` records — abnormal teardown
    /// causes (congestion, network abort, radio-link failure) are a security
    /// state parameter in their own right.
    pub release_cause: Option<ReleaseCause>,
}

impl UeMobiFlow {
    /// Whether the connection runs with null security (either algorithm).
    pub fn null_security(&self) -> bool {
        self.cipher_alg.map(CipherAlg::is_null).unwrap_or(false)
            || self.integrity_alg.map(IntegrityAlg::is_null).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> UeMobiFlow {
        UeMobiFlow {
            msg_id: 1,
            timestamp: Timestamp(1000),
            cell: CellId(1),
            rnti: Rnti(0x4601),
            du_ue_id: 1,
            direction: Direction::Uplink,
            msg: MessageKind::RrcSetupRequest,
            tmsi: None,
            supi: None,
            cipher_alg: None,
            integrity_alg: None,
            establishment_cause: Some(EstablishmentCause::MoData),
            release_cause: None,
        }
    }

    #[test]
    fn exposure_and_null_security_predicates() {
        let mut r = record();
        assert!(r.supi.is_none());
        assert!(!r.null_security());
        r.supi = Some(Supi::new(xsec_types::Plmn::TEST, 5));
        assert!(r.supi.is_some());
        r.cipher_alg = Some(CipherAlg::Nea2);
        r.integrity_alg = Some(IntegrityAlg::Nia0);
        assert!(r.null_security(), "null integrity alone counts");
    }
}
