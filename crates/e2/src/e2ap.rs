//! E2 Application Protocol PDUs and their codec.
//!
//! The subset of E2AP the 6G-XSec control loop uses: setup, subscription
//! management, indications (report primitive), and control. PDUs encode to a
//! tag byte plus fields; streams frame them with the shared length-prefix
//! framing from `xsec-proto`.

use bytes::{Buf, BufMut};
use xsec_types::{CellId, GnbId, Result, XsecError};

fn err(msg: impl Into<String>) -> XsecError {
    XsecError::Codec(msg.into())
}

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
        /// Service-model-specific control payload.
        payload: Vec<u8>,
    },
    /// RAN → RIC: control acknowledgement.
    ControlAck {
        /// Target RAN function.
        ran_function: u32,
        /// Whether the action was applied.
        success: bool,
    },
}

impl E2apPdu {
    /// Encodes the PDU to bytes (unframed).
    pub fn encode(&self) -> Vec<u8> {
        // Sized so the payload-carrying PDUs allocate exactly once.
        let payload_len = match self {
            E2apPdu::Indication { payload, .. } | E2apPdu::ControlRequest { payload, .. } => {
                payload.len()
            }
            _ => 0,
        };
        let mut buf = Vec::with_capacity(32 + payload_len);
        match self {
            E2apPdu::SetupRequest { gnb_id, ran_functions, cells } => {
                buf.put_u8(0);
                buf.put_u32(gnb_id.0);
                put_u32_list(&mut buf, ran_functions);
                let cell_ids: Vec<u32> = cells.iter().map(|c| c.0).collect();
                put_u32_list(&mut buf, &cell_ids);
            }
            E2apPdu::SetupResponse { accepted } => {
                buf.put_u8(1);
                put_u32_list(&mut buf, accepted);
            }
            E2apPdu::SubscriptionRequest { request_id, ran_function, report_period_ms, actions } => {
                buf.put_u8(2);
                put_request_id(&mut buf, request_id);
                buf.put_u32(*ran_function);
                buf.put_u32(*report_period_ms);
                buf.put_u8(actions.len() as u8);
                for a in actions {
                    buf.put_u8(a.code());
                }
            }
            E2apPdu::SubscriptionResponse { request_id, accepted } => {
                buf.put_u8(3);
                put_request_id(&mut buf, request_id);
                buf.put_u8(*accepted as u8);
            }
            E2apPdu::SubscriptionDeleteRequest { request_id } => {
                buf.put_u8(4);
                put_request_id(&mut buf, request_id);
            }
            E2apPdu::Indication { request_id, ran_function, sequence, payload } => {
                buf.put_u8(5);
                put_request_id(&mut buf, request_id);
                buf.put_u32(*ran_function);
                buf.put_u64(*sequence);
                buf.put_u32(payload.len() as u32);
                buf.put_slice(payload);
            }
            E2apPdu::ControlRequest { ran_function, payload } => {
                buf.put_u8(6);
                buf.put_u32(*ran_function);
                buf.put_u32(payload.len() as u32);
                buf.put_slice(payload);
            }
            E2apPdu::ControlAck { ran_function, success } => {
                buf.put_u8(7);
                buf.put_u32(*ran_function);
                buf.put_u8(*success as u8);
            }
        }
        buf
    }

    /// Decodes a PDU from bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut buf = bytes;
        if !buf.has_remaining() {
            return Err(err("empty E2AP PDU"));
        }
        let tag = buf.get_u8();
        let pdu = match tag {
            0 => {
                need(&buf, 4, "gnb id")?;
                let gnb_id = GnbId(buf.get_u32());
                let ran_functions = get_u32_list(&mut buf)?;
                let cells = get_u32_list(&mut buf)?.into_iter().map(CellId).collect();
                E2apPdu::SetupRequest { gnb_id, ran_functions, cells }
            }
            1 => E2apPdu::SetupResponse { accepted: get_u32_list(&mut buf)? },
            2 => {
                let request_id = get_request_id(&mut buf)?;
                need(&buf, 9, "subscription body")?;
                let ran_function = buf.get_u32();
                let report_period_ms = buf.get_u32();
                let n = buf.get_u8() as usize;
                need(&buf, n, "actions")?;
                let mut actions = Vec::with_capacity(n);
                for _ in 0..n {
                    let code = buf.get_u8();
                    actions.push(
                        RicAction::from_code(code)
                            .ok_or_else(|| err(format!("bad action code {code}")))?,
                    );
                }
                E2apPdu::SubscriptionRequest { request_id, ran_function, report_period_ms, actions }
            }
            3 => {
                let request_id = get_request_id(&mut buf)?;
                need(&buf, 1, "accepted flag")?;
                E2apPdu::SubscriptionResponse { request_id, accepted: buf.get_u8() != 0 }
            }
            4 => E2apPdu::SubscriptionDeleteRequest { request_id: get_request_id(&mut buf)? },
            5 => {
                let request_id = get_request_id(&mut buf)?;
                need(&buf, 16, "indication header")?;
                let ran_function = buf.get_u32();
                let sequence = buf.get_u64();
                let len = buf.get_u32() as usize;
                need(&buf, len, "indication payload")?;
                let payload = take(&mut buf, len);
                E2apPdu::Indication { request_id, ran_function, sequence, payload }
            }
            6 => {
                need(&buf, 8, "control header")?;
                let ran_function = buf.get_u32();
                let len = buf.get_u32() as usize;
                need(&buf, len, "control payload")?;
                E2apPdu::ControlRequest { ran_function, payload: take(&mut buf, len) }
            }
            7 => {
                need(&buf, 5, "control ack")?;
                E2apPdu::ControlAck { ran_function: buf.get_u32(), success: buf.get_u8() != 0 }
            }
            other => return Err(err(format!("unknown E2AP tag {other}"))),
        };
        if buf.has_remaining() {
            return Err(err(format!("{} trailing bytes", buf.remaining())));
        }
        Ok(pdu)
    }
}

fn need(buf: &impl Buf, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        Err(err(format!("truncated E2AP: need {n} for {what}, have {}", buf.remaining())))
    } else {
        Ok(())
    }
}

/// Copies out the next `len` bytes (the caller has checked they exist).
fn take(buf: &mut &[u8], len: usize) -> Vec<u8> {
    let (front, rest) = buf.split_at(len);
    *buf = rest;
    front.to_vec()
}

fn put_request_id(buf: &mut Vec<u8>, id: &RicRequestId) {
    buf.put_u16(id.requestor);
    buf.put_u16(id.instance);
}

fn get_request_id(buf: &mut &[u8]) -> Result<RicRequestId> {
    need(buf, 4, "request id")?;
    Ok(RicRequestId { requestor: buf.get_u16(), instance: buf.get_u16() })
}

fn put_u32_list(buf: &mut Vec<u8>, list: &[u32]) {
    buf.put_u16(list.len() as u16);
    for v in list {
        buf.put_u32(*v);
    }
}

fn get_u32_list(buf: &mut &[u8]) -> Result<Vec<u32>> {
    need(buf, 2, "list length")?;
    let n = buf.get_u16() as usize;
    need(buf, n * 4, "list body")?;
    Ok((0..n).map(|_| buf.get_u32()).collect())
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
            E2apPdu::ControlRequest { ran_function: 142, payload: sample_action().encode() },
            E2apPdu::ControlRequest { ran_function: 142, payload: vec![] },
            E2apPdu::ControlAck { ran_function: 142, success: false },
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

    /// Arbitrary mitigation action assembled from primitive draws (the
    /// vendored proptest stub has no `Arbitrary` derive).
    fn build_action(
        id: u32,
        ttl_us: u64,
        variant: u8,
        conn: u32,
        word: u16,
        span_us: u64,
    ) -> xsec_control::ControlAction {
        use xsec_control::MitigationAction as M;
        use xsec_types::{CellId, Duration, EstablishmentCause, ReleaseCause, Rnti};
        let action = match variant % 5 {
            0 => M::ReleaseUe {
                conn,
                cause: [
                    ReleaseCause::Normal,
                    ReleaseCause::RadioLinkFailure,
                    ReleaseCause::NetworkAbort,
                    ReleaseCause::Congestion,
                ][word as usize % 4],
            },
            1 => M::BlacklistRnti { rnti: Rnti(word) },
            2 => M::ForceReauth { conn },
            3 => M::QuarantineCell { cell: CellId(conn) },
            _ => M::RateLimitCause {
                cause: EstablishmentCause::ALL[word as usize % EstablishmentCause::ALL.len()],
                max_setups: word,
                window: Duration::from_micros(span_us),
            },
        };
        xsec_control::ControlAction {
            id,
            ttl: Duration::from_micros(ttl_us),
            action,
            trace: span_us.is_multiple_of(2).then_some(span_us),
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
            payload in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let pdu = E2apPdu::ControlRequest { ran_function: func, payload };
            prop_assert_eq!(E2apPdu::decode(&pdu.encode()).unwrap(), pdu);
        }

        #[test]
        fn prop_control_ack_round_trip(func in any::<u32>(), success in any::<bool>()) {
            let pdu = E2apPdu::ControlAck { ran_function: func, success };
            prop_assert_eq!(E2apPdu::decode(&pdu.encode()).unwrap(), pdu);
        }

        /// The full control path a mitigation takes on the wire: action TLV →
        /// E2AP Control Request → stream framing → deframe → E2AP decode →
        /// action TLV decode. Every arbitrary action must survive unchanged.
        #[test]
        fn prop_action_round_trip_through_e2ap_and_framing(
            id in any::<u32>(),
            ttl_us in any::<u64>(),
            variant in any::<u8>(),
            conn in any::<u32>(),
            word in any::<u16>(),
            span_us in any::<u64>(),
        ) {
            let action = build_action(id, ttl_us, variant, conn, word, span_us);
            let pdu = E2apPdu::ControlRequest { ran_function: 142, payload: action.encode() };

            let mut writer = xsec_proto::FrameWriter::new();
            writer.write_frame(&pdu.encode()).unwrap();
            let mut reader = xsec_proto::FrameReader::new();
            reader.extend(&writer.take());
            let frame = reader.next_frame().unwrap().expect("one whole frame buffered");
            prop_assert!(reader.next_frame().unwrap().is_none());

            let decoded = E2apPdu::decode(&frame).unwrap();
            let E2apPdu::ControlRequest { ran_function, payload } = decoded else {
                panic!("wrong PDU kind");
            };
            prop_assert_eq!(ran_function, 142);
            prop_assert_eq!(
                xsec_control::ControlAction::decode(&payload).unwrap(),
                action
            );
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
