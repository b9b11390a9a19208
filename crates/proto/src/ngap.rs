//! NGAP-style encapsulation between the simulated O-CU and the AMF (3GPP 38.413).
//!
//! Carries NAS containers together with the RAN/AMF UE association
//! identifiers — the second interface the paper's telemetry pipeline taps.

use crate::codec::{decode_l3, encode_l3};
use crate::msg::L3Message;
use serde::{Deserialize, Serialize};
use xsec_types::{Put, Reader, Result};

/// One NGAP message carrying a NAS container for a UE association.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NgapPdu {
    /// RAN UE NGAP ID (CU-local association number).
    pub ran_ue_id: u64,
    /// AMF UE NGAP ID (0 until the AMF assigns one).
    pub amf_ue_id: u64,
    /// `true` if the contained message travels UE → network.
    pub uplink: bool,
    /// The encoded NAS message.
    pub nas_container: Vec<u8>,
}

impl NgapPdu {
    /// Wraps an L3 message for transport toward/from the AMF.
    pub fn wrap(ran_ue_id: u64, amf_ue_id: u64, uplink: bool, msg: &L3Message) -> Self {
        NgapPdu { ran_ue_id, amf_ue_id, uplink, nas_container: encode_l3(msg) }
    }

    /// Decodes the contained L3 message.
    pub fn unwrap_l3(&self) -> Result<L3Message> {
        decode_l3(&self.nas_container)
    }

    /// Encodes the PDU for capture / transport.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(19 + self.nas_container.len());
        buf.put_u64(self.ran_ue_id);
        buf.put_u64(self.amf_ue_id);
        buf.put_u8(self.uplink as u8);
        buf.put_prefixed::<2>(&self.nas_container).expect("a NAS container is under 64 KiB");
        buf
    }

    /// Decodes a PDU from capture bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let pdu = NgapPdu {
            ran_ue_id: r.u64()?,
            amf_ue_id: r.u64()?,
            uplink: r.flag()?,
            nas_container: r.prefixed::<2>()?.to_vec(),
        };
        r.finish()?;
        Ok(pdu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nas::NasMessage;

    #[test]
    fn wrap_and_unwrap_round_trip() {
        let msg = L3Message::Nas(NasMessage::AuthenticationRequest { rand: 5, autn: 6 });
        let pdu = NgapPdu::wrap(100, 200, false, &msg);
        assert_eq!(pdu.unwrap_l3().unwrap(), msg);
    }

    #[test]
    fn encode_decode_round_trip() {
        let msg = L3Message::Nas(NasMessage::AuthenticationResponse { res: 9 });
        let pdu = NgapPdu::wrap(1, 2, true, &msg);
        let back = NgapPdu::decode(&pdu.encode()).unwrap();
        assert_eq!(pdu, back);
    }

    #[test]
    fn decode_rejects_truncation_and_garbage() {
        let pdu = NgapPdu::wrap(
            1,
            2,
            true,
            &L3Message::Nas(NasMessage::SecurityModeComplete),
        );
        let bytes = pdu.encode();
        for cut in 0..bytes.len() {
            assert!(NgapPdu::decode(&bytes[..cut]).is_err());
        }
        let mut bad = bytes.clone();
        bad[16] = 7; // direction flag
        assert!(NgapPdu::decode(&bad).is_err());
    }
}
