//! Deterministic binary codec for L3 messages.
//!
//! The encoding is a compact tag-then-fields format: one byte of
//! [`MessageKind::code`], followed by the variant's fields in declaration
//! order. It is *not* ASN.1 PER — the paper's telemetry does not re-encode
//! PER either; its instrumented CU emits structured records. What
//! matters here is that encoding is total, decoding rejects malformed input
//! with a [`XsecError::Codec`] error instead of panicking, and
//! `decode(encode(m)) == m` for every message (property-tested below).
//! Every read goes through [`xsec_types::Reader`].

use crate::msg::{L3Message, MessageKind, MobileIdentity};
use crate::nas::{IdentityType, NasMessage, NasRejectCause};
use crate::rrc::RrcMessage;
use xsec_types::{
    CipherAlg, EstablishmentCause, IntegrityAlg, Plmn, Put, Reader, ReleaseCause, Result, Rnti,
    SecurityCapabilities, Supi, Tmsi, XsecError,
};

fn err(msg: impl Into<String>) -> XsecError {
    XsecError::Codec(msg.into())
}

// --- primitive field helpers -------------------------------------------------

fn put_identity(buf: &mut Vec<u8>, id: &MobileIdentity) {
    match id {
        MobileIdentity::Suci { plmn, concealed } => {
            buf.put_u8(0);
            buf.put_u16(plmn.mcc);
            buf.put_u16(plmn.mnc);
            buf.put_u64(*concealed);
        }
        MobileIdentity::FiveGSTmsi(tmsi) => {
            buf.put_u8(1);
            buf.put_u32(tmsi.0);
        }
        MobileIdentity::PlainSupi(supi) => {
            buf.put_u8(2);
            buf.put_u16(supi.plmn.mcc);
            buf.put_u16(supi.plmn.mnc);
            buf.put_u64(supi.msin);
        }
    }
}

fn get_identity(r: &mut Reader<'_>) -> Result<MobileIdentity> {
    match r.u8()? {
        0 => {
            let plmn = Plmn { mcc: r.u16()?, mnc: r.u16()? };
            Ok(MobileIdentity::Suci { plmn, concealed: r.u64()? })
        }
        1 => Ok(MobileIdentity::FiveGSTmsi(Tmsi(r.u32()?))),
        2 => {
            let plmn = Plmn { mcc: r.u16()?, mnc: r.u16()? };
            Ok(MobileIdentity::PlainSupi(Supi::new(plmn, r.u64()?)))
        }
        tag => Err(err(format!("unknown identity tag {tag}"))),
    }
}

fn caps_to_byte(flags: &[bool; 4]) -> u8 {
    flags.iter().enumerate().fold(0u8, |acc, (i, set)| acc | ((*set as u8) << i))
}

/// The inverse of [`caps_to_byte`]; the four high bits are never set by it.
fn caps_from_byte(byte: u8) -> Option<[bool; 4]> {
    (byte < 16).then_some([byte & 1 != 0, byte & 2 != 0, byte & 4 != 0, byte & 8 != 0])
}

fn put_capabilities(buf: &mut Vec<u8>, caps: &SecurityCapabilities) {
    buf.put_u8(caps_to_byte(&caps.ciphers));
    buf.put_u8(caps_to_byte(&caps.integrity));
}

fn get_capabilities(r: &mut Reader<'_>) -> Result<SecurityCapabilities> {
    Ok(SecurityCapabilities {
        ciphers: r.code("cipher capabilities", caps_from_byte)?,
        integrity: r.code("integrity capabilities", caps_from_byte)?,
    })
}

// --- top-level codec ----------------------------------------------------------

/// Encodes an L3 message into its binary form.
pub fn encode_l3(msg: &L3Message) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    buf.put_u8(msg.kind().code());
    match msg {
        L3Message::Rrc(rrc) => encode_rrc_body(rrc, &mut buf),
        L3Message::Nas(nas) => encode_nas_body(nas, &mut buf),
    }
    buf
}

fn encode_rrc_body(msg: &RrcMessage, buf: &mut Vec<u8>) {
    match msg {
        RrcMessage::SetupRequest { ue_identity, cause } => {
            buf.put_u64(*ue_identity);
            buf.put_u8(cause.code());
        }
        RrcMessage::Setup
        | RrcMessage::SecurityModeComplete
        | RrcMessage::Reconfiguration
        | RrcMessage::ReconfigurationComplete
        | RrcMessage::Reestablishment => {}
        RrcMessage::SetupComplete { nas_container }
        | RrcMessage::UlInformationTransfer { nas_container }
        | RrcMessage::DlInformationTransfer { nas_container } => {
            buf.put_prefixed::<2>(nas_container).expect("a NAS container is under 64 KiB")
        }
        RrcMessage::Reject { wait_time_s } => buf.put_u8(*wait_time_s),
        RrcMessage::SecurityModeCommand { cipher, integrity } => {
            buf.put_u8(cipher.code());
            buf.put_u8(integrity.code());
        }
        RrcMessage::Release { cause } => buf.put_u8(cause.code()),
        RrcMessage::Paging { ue_identity } => put_identity(buf, ue_identity),
        RrcMessage::ReestablishmentRequest { old_rnti } => buf.put_u16(old_rnti.0),
    }
}

fn encode_nas_body(msg: &NasMessage, buf: &mut Vec<u8>) {
    match msg {
        NasMessage::RegistrationRequest { identity, capabilities } => {
            put_identity(buf, identity);
            put_capabilities(buf, capabilities);
        }
        NasMessage::RegistrationAccept { new_tmsi } => buf.put_u32(new_tmsi.0),
        NasMessage::RegistrationComplete
        | NasMessage::AuthenticationReject
        | NasMessage::SecurityModeComplete
        | NasMessage::ServiceAccept
        | NasMessage::DeregistrationRequest
        | NasMessage::DeregistrationAccept => {}
        NasMessage::RegistrationReject { cause } => buf.put_u8(match cause {
            NasRejectCause::IllegalUe => 0,
            NasRejectCause::PlmnNotAllowed => 1,
            NasRejectCause::Congestion => 2,
        }),
        NasMessage::AuthenticationRequest { rand, autn } => {
            buf.put_u64(*rand);
            buf.put_u64(*autn);
        }
        NasMessage::AuthenticationResponse { res } => buf.put_u64(*res),
        NasMessage::AuthenticationFailure { cause } => buf.put_u8(*cause),
        NasMessage::IdentityRequest { id_type } => buf.put_u8(match id_type {
            IdentityType::Suci => 0,
            IdentityType::PlainSupi => 1,
            IdentityType::Tmsi => 2,
        }),
        NasMessage::IdentityResponse { identity } => put_identity(buf, identity),
        NasMessage::SecurityModeCommand { cipher, integrity, replayed_capabilities } => {
            buf.put_u8(cipher.code());
            buf.put_u8(integrity.code());
            put_capabilities(buf, replayed_capabilities);
        }
        NasMessage::SecurityModeReject { cause } => buf.put_u8(*cause),
        NasMessage::ServiceRequest { tmsi } => buf.put_u32(tmsi.0),
        NasMessage::PduSessionEstablishmentRequest { session_id }
        | NasMessage::PduSessionEstablishmentAccept { session_id } => buf.put_u8(*session_id),
    }
}

/// Decodes an L3 message from its binary form, rejecting malformed input.
pub fn decode_l3(bytes: &[u8]) -> Result<L3Message> {
    let mut r = Reader::new(bytes);
    let kind = r.code("message kind", MessageKind::from_code)?;
    let msg = decode_body(kind, &mut r)?;
    r.finish()?;
    Ok(msg)
}

fn decode_body(kind: MessageKind, r: &mut Reader<'_>) -> Result<L3Message> {
    use MessageKind as K;
    let msg = match kind {
        K::RrcSetupRequest => L3Message::Rrc(RrcMessage::SetupRequest {
            ue_identity: r.u64()?,
            cause: r.code("establishment cause", EstablishmentCause::from_code)?,
        }),
        K::RrcSetup => L3Message::Rrc(RrcMessage::Setup),
        K::RrcSetupComplete => L3Message::Rrc(RrcMessage::SetupComplete {
            nas_container: r.prefixed::<2>()?.to_vec(),
        }),
        K::RrcReject => L3Message::Rrc(RrcMessage::Reject { wait_time_s: r.u8()? }),
        K::RrcSecurityModeCommand => L3Message::Rrc(RrcMessage::SecurityModeCommand {
            cipher: r.code("cipher alg", CipherAlg::from_code)?,
            integrity: r.code("integrity alg", IntegrityAlg::from_code)?,
        }),
        K::RrcSecurityModeComplete => L3Message::Rrc(RrcMessage::SecurityModeComplete),
        K::RrcReconfiguration => L3Message::Rrc(RrcMessage::Reconfiguration),
        K::RrcReconfigurationComplete => L3Message::Rrc(RrcMessage::ReconfigurationComplete),
        K::RrcRelease => L3Message::Rrc(RrcMessage::Release {
            cause: r.code("release cause", ReleaseCause::from_code)?,
        }),
        K::RrcPaging => L3Message::Rrc(RrcMessage::Paging { ue_identity: get_identity(r)? }),
        K::RrcReestablishmentRequest => {
            L3Message::Rrc(RrcMessage::ReestablishmentRequest { old_rnti: Rnti(r.u16()?) })
        }
        K::RrcReestablishment => L3Message::Rrc(RrcMessage::Reestablishment),
        K::RrcUlInformationTransfer => L3Message::Rrc(RrcMessage::UlInformationTransfer {
            nas_container: r.prefixed::<2>()?.to_vec(),
        }),
        K::RrcDlInformationTransfer => L3Message::Rrc(RrcMessage::DlInformationTransfer {
            nas_container: r.prefixed::<2>()?.to_vec(),
        }),
        K::NasRegistrationRequest => L3Message::Nas(NasMessage::RegistrationRequest {
            identity: get_identity(r)?,
            capabilities: get_capabilities(r)?,
        }),
        K::NasRegistrationAccept => {
            L3Message::Nas(NasMessage::RegistrationAccept { new_tmsi: Tmsi(r.u32()?) })
        }
        K::NasRegistrationComplete => L3Message::Nas(NasMessage::RegistrationComplete),
        K::NasRegistrationReject => {
            let cause = match r.u8()? {
                0 => NasRejectCause::IllegalUe,
                1 => NasRejectCause::PlmnNotAllowed,
                2 => NasRejectCause::Congestion,
                other => return Err(err(format!("bad NAS reject cause {other}"))),
            };
            L3Message::Nas(NasMessage::RegistrationReject { cause })
        }
        K::NasAuthenticationRequest => {
            L3Message::Nas(NasMessage::AuthenticationRequest { rand: r.u64()?, autn: r.u64()? })
        }
        K::NasAuthenticationResponse => {
            L3Message::Nas(NasMessage::AuthenticationResponse { res: r.u64()? })
        }
        K::NasAuthenticationFailure => {
            L3Message::Nas(NasMessage::AuthenticationFailure { cause: r.u8()? })
        }
        K::NasAuthenticationReject => L3Message::Nas(NasMessage::AuthenticationReject),
        K::NasIdentityRequest => {
            let id_type = match r.u8()? {
                0 => IdentityType::Suci,
                1 => IdentityType::PlainSupi,
                2 => IdentityType::Tmsi,
                other => return Err(err(format!("bad identity type {other}"))),
            };
            L3Message::Nas(NasMessage::IdentityRequest { id_type })
        }
        K::NasIdentityResponse => {
            L3Message::Nas(NasMessage::IdentityResponse { identity: get_identity(r)? })
        }
        K::NasSecurityModeCommand => L3Message::Nas(NasMessage::SecurityModeCommand {
            cipher: r.code("cipher alg", CipherAlg::from_code)?,
            integrity: r.code("integrity alg", IntegrityAlg::from_code)?,
            replayed_capabilities: get_capabilities(r)?,
        }),
        K::NasSecurityModeComplete => L3Message::Nas(NasMessage::SecurityModeComplete),
        K::NasSecurityModeReject => {
            L3Message::Nas(NasMessage::SecurityModeReject { cause: r.u8()? })
        }
        K::NasServiceRequest => {
            L3Message::Nas(NasMessage::ServiceRequest { tmsi: Tmsi(r.u32()?) })
        }
        K::NasServiceAccept => L3Message::Nas(NasMessage::ServiceAccept),
        K::NasDeregistrationRequest => L3Message::Nas(NasMessage::DeregistrationRequest),
        K::NasDeregistrationAccept => L3Message::Nas(NasMessage::DeregistrationAccept),
        K::NasPduSessionEstablishmentRequest => {
            L3Message::Nas(NasMessage::PduSessionEstablishmentRequest { session_id: r.u8()? })
        }
        K::NasPduSessionEstablishmentAccept => {
            L3Message::Nas(NasMessage::PduSessionEstablishmentAccept { session_id: r.u8()? })
        }
    };
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xsec_types::SecurityCapabilities;

    fn sample_messages() -> Vec<L3Message> {
        vec![
            L3Message::Rrc(RrcMessage::SetupRequest {
                ue_identity: 0xDEAD_BEEF,
                cause: EstablishmentCause::MoSignalling,
            }),
            L3Message::Rrc(RrcMessage::Setup),
            L3Message::Rrc(RrcMessage::SetupComplete { nas_container: vec![1, 2, 3] }),
            L3Message::Rrc(RrcMessage::Reject { wait_time_s: 16 }),
            L3Message::Rrc(RrcMessage::SecurityModeCommand {
                cipher: CipherAlg::Nea2,
                integrity: IntegrityAlg::Nia2,
            }),
            L3Message::Rrc(RrcMessage::Release { cause: ReleaseCause::Congestion }),
            L3Message::Rrc(RrcMessage::Paging {
                ue_identity: MobileIdentity::FiveGSTmsi(Tmsi(77)),
            }),
            L3Message::Rrc(RrcMessage::ReestablishmentRequest { old_rnti: Rnti(0x1234) }),
            L3Message::Rrc(RrcMessage::UlInformationTransfer { nas_container: vec![] }),
            L3Message::Nas(NasMessage::RegistrationRequest {
                identity: MobileIdentity::Suci { plmn: Plmn::TEST, concealed: 42 },
                capabilities: SecurityCapabilities::full(),
            }),
            L3Message::Nas(NasMessage::RegistrationAccept { new_tmsi: Tmsi(0xCAFE) }),
            L3Message::Nas(NasMessage::AuthenticationRequest { rand: 7, autn: 8 }),
            L3Message::Nas(NasMessage::AuthenticationResponse { res: 9 }),
            L3Message::Nas(NasMessage::IdentityRequest {
                id_type: IdentityType::PlainSupi,
            }),
            L3Message::Nas(NasMessage::IdentityResponse {
                identity: MobileIdentity::PlainSupi(Supi::new(Plmn::TEST, 123)),
            }),
            L3Message::Nas(NasMessage::SecurityModeCommand {
                cipher: CipherAlg::Nea0,
                integrity: IntegrityAlg::Nia0,
                replayed_capabilities: SecurityCapabilities::null_only(),
            }),
            L3Message::Nas(NasMessage::ServiceRequest { tmsi: Tmsi(1) }),
            L3Message::Nas(NasMessage::PduSessionEstablishmentRequest { session_id: 5 }),
        ]
    }

    #[test]
    fn round_trip_all_samples() {
        for msg in sample_messages() {
            let bytes = encode_l3(&msg);
            let back = decode_l3(&bytes).unwrap_or_else(|e| panic!("{msg}: {e}"));
            assert_eq!(msg, back, "round trip failed for {msg}");
        }
    }

    #[test]
    fn decode_rejects_unknown_kind() {
        assert!(decode_l3(&[250]).is_err());
    }

    #[test]
    fn decode_rejects_empty_input() {
        assert!(decode_l3(&[]).is_err());
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        for msg in sample_messages() {
            let bytes = encode_l3(&msg);
            for cut in 0..bytes.len() {
                assert!(
                    decode_l3(&bytes[..cut]).is_err(),
                    "truncated {msg} at {cut} bytes decoded successfully"
                );
            }
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = encode_l3(&L3Message::Rrc(RrcMessage::Setup));
        bytes.push(0xFF);
        assert!(decode_l3(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_bad_enum_codes() {
        // SecurityModeCommand with cipher code 9.
        let bytes = [MessageKind::RrcSecurityModeCommand.code(), 9, 0];
        assert!(decode_l3(&bytes).is_err());
        // IdentityRequest with type 9.
        let bytes = [MessageKind::NasIdentityRequest.code(), 9];
        assert!(decode_l3(&bytes).is_err());
    }

    // --- property tests ---------------------------------------------------

    fn arb_identity() -> impl Strategy<Value = MobileIdentity> {
        prop_oneof![
            (any::<u16>(), any::<u16>(), any::<u64>()).prop_map(|(mcc, mnc, concealed)| {
                MobileIdentity::Suci { plmn: Plmn { mcc, mnc }, concealed }
            }),
            any::<u32>().prop_map(|t| MobileIdentity::FiveGSTmsi(Tmsi(t))),
            (any::<u16>(), any::<u16>(), any::<u64>()).prop_map(|(mcc, mnc, msin)| {
                MobileIdentity::PlainSupi(Supi::new(Plmn { mcc, mnc }, msin))
            }),
        ]
    }

    fn arb_caps() -> impl Strategy<Value = SecurityCapabilities> {
        (any::<[bool; 4]>(), any::<[bool; 4]>())
            .prop_map(|(ciphers, integrity)| SecurityCapabilities { ciphers, integrity })
    }

    fn arb_message() -> impl Strategy<Value = L3Message> {
        prop_oneof![
            (any::<u64>(), 0u8..7).prop_map(|(id, c)| L3Message::Rrc(RrcMessage::SetupRequest {
                ue_identity: id,
                cause: EstablishmentCause::from_code(c).unwrap(),
            })),
            proptest::collection::vec(any::<u8>(), 0..128).prop_map(|c| L3Message::Rrc(
                RrcMessage::SetupComplete { nas_container: c }
            )),
            (0u8..4, 0u8..4).prop_map(|(c, i)| L3Message::Rrc(RrcMessage::SecurityModeCommand {
                cipher: CipherAlg::from_code(c).unwrap(),
                integrity: IntegrityAlg::from_code(i).unwrap(),
            })),
            arb_identity().prop_map(|id| L3Message::Rrc(RrcMessage::Paging { ue_identity: id })),
            (arb_identity(), arb_caps()).prop_map(|(identity, capabilities)| L3Message::Nas(
                NasMessage::RegistrationRequest { identity, capabilities }
            )),
            (any::<u64>(), any::<u64>()).prop_map(|(rand, autn)| L3Message::Nas(
                NasMessage::AuthenticationRequest { rand, autn }
            )),
            arb_identity()
                .prop_map(|identity| L3Message::Nas(NasMessage::IdentityResponse { identity })),
            (0u8..4, 0u8..4, arb_caps()).prop_map(|(c, i, caps)| L3Message::Nas(
                NasMessage::SecurityModeCommand {
                    cipher: CipherAlg::from_code(c).unwrap(),
                    integrity: IntegrityAlg::from_code(i).unwrap(),
                    replayed_capabilities: caps,
                }
            )),
            any::<u32>().prop_map(|t| L3Message::Nas(NasMessage::ServiceRequest { tmsi: Tmsi(t) })),
        ]
    }

    proptest! {
        #[test]
        fn prop_encode_decode_round_trip(msg in arb_message()) {
            let bytes = encode_l3(&msg);
            let back = decode_l3(&bytes).unwrap();
            prop_assert_eq!(msg, back);
        }

        #[test]
        fn prop_decode_never_panics_on_fuzz(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = decode_l3(&bytes); // must not panic, errors are fine
        }
    }
}
