//! E2 Application Protocol PDUs and their codec.
//!
//! The subset of E2AP the 6G-XSec control loop uses: setup, subscription
//! management, indications (report primitive), and control. PDUs encode to a
//! tag byte plus fields; a stream transport frames them
//! ([`crate::transport`]).

use xsec_types::{CellId, GnbId, Put, Reader, Result, XsecError};

/// Identifies one xApp's subscription (requestor, instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RicRequestId {
    /// The requesting xApp's id.
    pub requestor: u16,
    /// Instance number within the requestor.
    pub instance: u16,
}

/// The E2 action primitives an xApp can subscribe with (E2AP §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RicAction {
    /// Report: the RAN sends indications on the trigger.
    Report,
    /// Insert: the RAN pauses and asks the RIC for a decision.
    Insert,
    /// Policy: the RAN applies a standing rule autonomously.
    Policy,
}

impl RicAction {
    fn code(self) -> u8 {
        match self {
            RicAction::Report => 0,
            RicAction::Insert => 1,
            RicAction::Policy => 2,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(RicAction::Report),
            1 => Some(RicAction::Insert),
            2 => Some(RicAction::Policy),
            _ => None,
        }
    }
}

/// An E2AP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum E2apPdu {
    /// RAN → RIC: announce supported RAN functions and served cells.
    SetupRequest {
        /// The announcing gNB.
        gnb_id: GnbId,
        /// Supported RAN function ids (service models).
        ran_functions: Vec<u32>,
        /// Cells this gNB serves (E2AP carries the served-cell list in the
        /// setup; the RIC uses it to route control actions to the owning
        /// agent).
        cells: Vec<CellId>,
    },
    /// RIC → RAN: which functions were accepted.
    SetupResponse {
        /// Accepted RAN function ids.
        accepted: Vec<u32>,
    },
    /// RIC → RAN: subscribe to a function with a report trigger.
    SubscriptionRequest {
        /// Subscription identity.
        request_id: RicRequestId,
        /// Target RAN function.
        ran_function: u32,
        /// Report trigger period in milliseconds.
        report_period_ms: u32,
        /// Requested actions.
        actions: Vec<RicAction>,
    },
    /// RAN → RIC: subscription outcome.
    SubscriptionResponse {
        /// Subscription identity.
        request_id: RicRequestId,
        /// Whether the subscription was admitted.
        accepted: bool,
    },
    /// RIC → RAN: cancel a subscription.
    SubscriptionDeleteRequest {
        /// Subscription identity.
        request_id: RicRequestId,
    },
    /// RAN → RIC: telemetry report (the report primitive).
    Indication {
        /// Subscription this indication answers.
        request_id: RicRequestId,
        /// Producing RAN function.
        ran_function: u32,
        /// Monotonic sequence number per subscription.
        sequence: u64,
        /// Service-model-specific payload (E2SM encoded).
        payload: Vec<u8>,
    },
    /// RIC → RAN: a control action (the control primitive).
    ControlRequest {
        /// Target RAN function.
        ran_function: u32,
        /// The RIC's number for this request; the agent echoes it in the ack.
        control_id: u32,
        /// Service-model-specific control payload.
        payload: Vec<u8>,
    },
    /// RAN → RIC: control acknowledgement.
    ControlAck {
        /// Target RAN function.
        ran_function: u32,
        /// The `control_id` of the request this acknowledges.
        control_id: u32,
        /// Whether the action was applied.
        success: bool,
    },
}

impl E2apPdu {
    /// Encodes the PDU to bytes (unframed).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Encodes the PDU over whatever `buf` held, so a sender framing one PDU
    /// after another allocates once for all of them.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        // Sized so the payload-carrying PDUs allocate at most once.
        let payload_len = match self {
            E2apPdu::Indication { payload, .. } | E2apPdu::ControlRequest { payload, .. } => {
                payload.len()
            }
            _ => 0,
        };
        buf.clear();
        buf.reserve(32 + payload_len);
        self.write(buf).expect("a PDU's lists and payloads fit their length fields");
    }

    fn write(&self, buf: &mut Vec<u8>) -> Result<()> {
        match self {
            E2apPdu::SetupRequest { gnb_id, ran_functions, cells } => {
                buf.put_u8(0);
                buf.put_u32(gnb_id.0);
                put_u32_list(buf, ran_functions.iter().copied())?;
                put_u32_list(buf, cells.iter().map(|c| c.0))?;
            }
            E2apPdu::SetupResponse { accepted } => {
                buf.put_u8(1);
                put_u32_list(buf, accepted.iter().copied())?;
            }
            E2apPdu::SubscriptionRequest { request_id, ran_function, report_period_ms, actions } => {
                buf.put_u8(2);
                put_request_id(buf, request_id);
                buf.put_u32(*ran_function);
                buf.put_u32(*report_period_ms);
                buf.put_len::<1>(actions.len())?;
                buf.extend(actions.iter().map(|a| a.code()));
            }
            E2apPdu::SubscriptionResponse { request_id, accepted } => {
                buf.put_u8(3);
                put_request_id(buf, request_id);
                buf.put_u8(*accepted as u8);
            }
            E2apPdu::SubscriptionDeleteRequest { request_id } => {
                buf.put_u8(4);
                put_request_id(buf, request_id);
            }
            E2apPdu::Indication { request_id, ran_function, sequence, payload } => {
                buf.put_u8(5);
                put_request_id(buf, request_id);
                buf.put_u32(*ran_function);
                buf.put_u64(*sequence);
                buf.put_prefixed::<4>(payload)?;
            }
            E2apPdu::ControlRequest { ran_function, control_id, payload } => {
                buf.put_u8(6);
                buf.put_u32(*ran_function);
                buf.put_u32(*control_id);
                buf.put_prefixed::<4>(payload)?;
            }
            E2apPdu::ControlAck { ran_function, control_id, success } => {
                buf.put_u8(7);
                buf.put_u32(*ran_function);
                buf.put_u32(*control_id);
                buf.put_u8(*success as u8);
            }
        }
        Ok(())
    }

    /// Decodes a PDU from bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let pdu = match r.u8()? {
            0 => E2apPdu::SetupRequest {
                gnb_id: GnbId(r.u32()?),
                ran_functions: get_u32_list(&mut r)?,
                cells: get_u32_list(&mut r)?.into_iter().map(CellId).collect(),
            },
            1 => E2apPdu::SetupResponse { accepted: get_u32_list(&mut r)? },
            2 => E2apPdu::SubscriptionRequest {
                request_id: get_request_id(&mut r)?,
                ran_function: r.u32()?,
                report_period_ms: r.u32()?,
                actions: (0..r.u8()?)
                    .map(|_| r.code("action", RicAction::from_code))
                    .collect::<Result<_>>()?,
            },
            3 => E2apPdu::SubscriptionResponse {
                request_id: get_request_id(&mut r)?,
                accepted: r.flag()?,
            },
            4 => E2apPdu::SubscriptionDeleteRequest { request_id: get_request_id(&mut r)? },
            5 => E2apPdu::Indication {
                request_id: get_request_id(&mut r)?,
                ran_function: r.u32()?,
                sequence: r.u64()?,
                payload: r.prefixed::<4>()?.to_vec(),
            },
            6 => E2apPdu::ControlRequest {
                ran_function: r.u32()?,
                control_id: r.u32()?,
                payload: r.prefixed::<4>()?.to_vec(),
            },
            7 => E2apPdu::ControlAck { ran_function: r.u32()?, control_id: r.u32()?, success: r.flag()? },
            other => return Err(XsecError::Codec(format!("unknown E2AP tag {other}"))),
        };
        r.finish()?;
        Ok(pdu)
    }
}

fn put_request_id(buf: &mut Vec<u8>, id: &RicRequestId) {
    buf.put_u16(id.requestor);
    buf.put_u16(id.instance);
}

fn get_request_id(r: &mut Reader<'_>) -> Result<RicRequestId> {
    Ok(RicRequestId { requestor: r.u16()?, instance: r.u16()? })
}

fn put_u32_list(buf: &mut Vec<u8>, list: impl ExactSizeIterator<Item = u32>) -> Result<()> {
    buf.put_len::<2>(list.len())?;
    list.for_each(|v| buf.put_u32(v));
    Ok(())
}

fn get_u32_list(r: &mut Reader<'_>) -> Result<Vec<u32>> {
    // Grown by the values actually read, never sized by the count.
    (0..r.u16()?).map(|_| r.u32()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn samples() -> Vec<E2apPdu> {
        let rid = RicRequestId { requestor: 10, instance: 1 };
        vec![
            E2apPdu::SetupRequest {
                gnb_id: GnbId(7),
                ran_functions: vec![1, 142],
                cells: vec![CellId(1), CellId(2)],
            },
            E2apPdu::SetupResponse { accepted: vec![142] },
            E2apPdu::SubscriptionRequest {
                request_id: rid,
                ran_function: 142,
                report_period_ms: 100,
                actions: vec![RicAction::Report, RicAction::Policy],
            },
            E2apPdu::SubscriptionResponse { request_id: rid, accepted: true },
            E2apPdu::SubscriptionDeleteRequest { request_id: rid },
            E2apPdu::Indication {
                request_id: rid,
                ran_function: 142,
                sequence: 9,
                payload: vec![1, 2, 3],
            },
            E2apPdu::ControlRequest {
                ran_function: 142,
                control_id: 0x0102_0304,
                payload: sample_action().encode(),
            },
            E2apPdu::ControlRequest { ran_function: 142, control_id: 0, payload: vec![] },
            E2apPdu::ControlAck { ran_function: 142, control_id: u32::MAX, success: false },
        ]
    }

    /// A realistic Control Request payload: the mitigation TLV sub-codec
    /// nested inside the E2AP envelope, as the closed loop ships it.
    fn sample_action() -> xsec_control::ControlAction {
        xsec_control::ControlAction {
            id: 77,
            ttl: xsec_types::Duration::from_secs(10),
            action: xsec_control::MitigationAction::RateLimitCause {
                cause: xsec_types::EstablishmentCause::MoSignalling,
                max_setups: 2,
                window: xsec_types::Duration::from_millis(400),
            },
            trace: Some(0xDEAD_BEEF),
        }
    }

    #[test]
    fn round_trip_all_samples() {
        for pdu in samples() {
            let bytes = pdu.encode();
            assert_eq!(E2apPdu::decode(&bytes).unwrap(), pdu, "failed: {pdu:?}");
        }
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        for pdu in samples() {
            let bytes = pdu.encode();
            for cut in 0..bytes.len() {
                assert!(E2apPdu::decode(&bytes[..cut]).is_err(), "{pdu:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn decode_rejects_unknown_tag_and_trailing_bytes() {
        assert!(E2apPdu::decode(&[99]).is_err());
        let mut bytes = E2apPdu::SetupResponse { accepted: vec![] }.encode();
        bytes.push(0);
        assert!(E2apPdu::decode(&bytes).is_err());
    }

    proptest! {
        #[test]
        fn prop_indication_round_trip(
            requestor in any::<u16>(),
            instance in any::<u16>(),
            func in any::<u32>(),
            seq in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let pdu = E2apPdu::Indication {
                request_id: RicRequestId { requestor, instance },
                ran_function: func,
                sequence: seq,
                payload,
            };
            prop_assert_eq!(E2apPdu::decode(&pdu.encode()).unwrap(), pdu);
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = E2apPdu::decode(&bytes);
        }

        /// Arbitrary Control Request payloads (opaque bytes) survive the
        /// E2AP envelope byte-exactly.
        #[test]
        fn prop_control_request_round_trip(
            func in any::<u32>(),
            control_id in any::<u32>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let pdu = E2apPdu::ControlRequest { ran_function: func, control_id, payload };
            prop_assert_eq!(E2apPdu::decode(&pdu.encode()).unwrap(), pdu);
        }

        #[test]
        fn prop_control_ack_round_trip(
            func in any::<u32>(),
            control_id in any::<u32>(),
            success in any::<bool>(),
        ) {
            let pdu = E2apPdu::ControlAck { ran_function: func, control_id, success };
            prop_assert_eq!(E2apPdu::decode(&pdu.encode()).unwrap(), pdu);
        }

        /// The strict TLV decoder never panics on garbage.
        #[test]
        fn prop_action_decode_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let _ = xsec_control::ControlAction::decode(&bytes);
        }
    }
}
