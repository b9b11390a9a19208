//! F1AP-style encapsulation between the simulated O-DU and O-CU (3GPP 38.473).
//!
//! The real F1 Application Protocol carries RRC messages between DU and CU
//! together with the UE-association identifiers. The paper's telemetry
//! pipeline instruments exactly this interface ("we instrument the F1AP and
//! NGAP interface to obtain pcap streams"). Our PDU keeps the fields the
//! MobiFlow extractor reads: the DU's UE identifiers (RNTI + cell) and the
//! RRC container.

use crate::codec::{decode_l3, encode_l3};
use crate::msg::L3Message;
use serde::{Deserialize, Serialize};
use xsec_types::{CellId, Put, Reader, Result, Rnti};

/// One F1AP message carrying an RRC container for a UE association.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct F1apPdu {
    /// gNB-DU UE F1AP ID (we use the DU-local association number).
    pub du_ue_id: u32,
    /// The UE's current C-RNTI.
    pub rnti: Rnti,
    /// Serving cell.
    pub cell: CellId,
    /// `true` if the contained message travels UE → network.
    pub uplink: bool,
    /// The encoded L3 (RRC, possibly with piggybacked NAS) message.
    rrc_container: Vec<u8>,
}

impl F1apPdu {
    /// Wraps an L3 message for transport.
    pub fn wrap(du_ue_id: u32, rnti: Rnti, cell: CellId, uplink: bool, msg: &L3Message) -> Self {
        F1apPdu { du_ue_id, rnti, cell, uplink, rrc_container: encode_l3(msg) }
    }

    /// Decodes the contained L3 message.
    pub fn unwrap_l3(&self) -> Result<L3Message> {
        decode_l3(&self.rrc_container)
    }

    /// Encodes the PDU for capture / transport.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(13 + self.rrc_container.len());
        buf.put_u32(self.du_ue_id);
        buf.put_u16(self.rnti.0);
        buf.put_u32(self.cell.0);
        buf.put_u8(self.uplink as u8);
        buf.put_prefixed::<2>(&self.rrc_container).expect("an RRC container is under 64 KiB");
        buf
    }

    /// Decodes a PDU from capture bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let pdu = F1apPdu {
            du_ue_id: r.u32()?,
            rnti: Rnti(r.u16()?),
            cell: CellId(r.u32()?),
            uplink: r.flag()?,
            rrc_container: r.prefixed::<2>()?.to_vec(),
        };
        r.finish()?;
        Ok(pdu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrc::RrcMessage;

    #[test]
    fn wrap_and_unwrap_round_trip() {
        let msg = L3Message::Rrc(RrcMessage::Setup);
        let pdu = F1apPdu::wrap(7, Rnti(0x5F), CellId(1), false, &msg);
        assert_eq!(pdu.unwrap_l3().unwrap(), msg);
    }

    #[test]
    fn encode_decode_round_trip() {
        let msg = L3Message::Rrc(RrcMessage::SetupComplete { nas_container: vec![1, 2, 3] });
        let pdu = F1apPdu::wrap(42, Rnti(0x1234), CellId(3), true, &msg);
        let bytes = pdu.encode();
        let back = F1apPdu::decode(&bytes).unwrap();
        assert_eq!(pdu, back);
        assert_eq!(back.unwrap_l3().unwrap(), msg);
    }

    #[test]
    fn decode_rejects_truncation() {
        let pdu = F1apPdu::wrap(1, Rnti(2), CellId(3), true, &L3Message::Rrc(RrcMessage::Setup));
        let bytes = pdu.encode();
        for cut in 0..bytes.len() {
            assert!(F1apPdu::decode(&bytes[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn decode_rejects_bad_direction_flag() {
        let pdu = F1apPdu::wrap(1, Rnti(2), CellId(3), true, &L3Message::Rrc(RrcMessage::Setup));
        let mut bytes = pdu.encode();
        bytes[10] = 9; // direction flag offset: 4 + 2 + 4
        assert!(F1apPdu::decode(&bytes).is_err());
    }
}
