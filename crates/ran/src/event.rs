//! The structured, ground-truth-labeled event stream the telemetry pipeline
//! consumes.
//!
//! One [`RanEvent`] is emitted for every L3 message observed at the network
//! side of the air interface (the same vantage point as the paper's
//! instrumented F1AP/NGAP taps), carrying the protocol content plus the
//! security-context state parameters MobiFlow records (paper Table 1), plus
//! out-of-band ground truth used only by the evaluation harness.

use xsec_proto::{Direction, L3Message};
use xsec_types::{
    CellId, CipherAlg, EstablishmentCause, IntegrityAlg, Rnti, Supi, Timestamp, Tmsi,
    TrafficClass, UeId,
};

/// One observed control-plane message with its context snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct RanEvent {
    /// Observation time at the network tap.
    pub at: Timestamp,
    /// Serving cell.
    pub cell: CellId,
    /// The connection's C-RNTI.
    pub rnti: Rnti,
    /// DU-local UE association id (gNB-DU UE F1AP ID).
    pub du_ue_id: u32,
    /// Message direction relative to the UE.
    pub direction: Direction,
    /// The message itself.
    pub msg: L3Message,
    /// Ciphering algorithm active for this UE context (None before AS/NAS
    /// security establishes).
    pub cipher: Option<CipherAlg>,
    /// Integrity algorithm active for this UE context.
    pub integrity: Option<IntegrityAlg>,
    /// The establishment cause the connection started with.
    pub establishment_cause: Option<EstablishmentCause>,
    /// The temporary identity currently bound to the context, if known.
    pub tmsi: Option<Tmsi>,
    /// A permanent identity observed in plaintext in *this* message, if any.
    pub supi_exposed: Option<Supi>,
    /// Ground truth: the simulator-internal UE that sent/received this
    /// message. `None` for messages fabricated by an over-the-air attacker.
    pub ue: Option<UeId>,
    /// Ground truth label for evaluation. Never exposed to the detector.
    pub label: TrafficClass,
}

impl RanEvent {
    /// Short one-line rendering for logs.
    #[cfg(test)]
    pub(crate) fn summary(&self) -> String {
        format!(
            "{} {} {} rnti={} {}",
            self.at,
            self.direction,
            self.msg.kind().name(),
            self.rnti,
            self.label
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_proto::RrcMessage;

    #[test]
    fn summary_contains_the_essentials() {
        let ev = RanEvent {
            at: Timestamp(2_000_000),
            cell: CellId(1),
            rnti: Rnti(0x4601),
            du_ue_id: 3,
            direction: Direction::Downlink,
            msg: L3Message::Rrc(RrcMessage::Setup),
            cipher: None,
            integrity: None,
            establishment_cause: None,
            tmsi: None,
            supi_exposed: None,
            ue: Some(UeId(1)),
            label: TrafficClass::Benign,
        };
        let s = ev.summary();
        assert!(s.contains("RRCSetup"));
        assert!(s.contains("0x4601"));
        assert!(s.contains("benign"));
        assert!(s.contains("DL"));
    }
}
