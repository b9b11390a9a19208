//! The fixed-layout binary MobiFlow record — what travels over E2.
//!
//! One record is [`RECORD_LEN`] bytes, big-endian, every field at a fixed
//! offset, so a report window is a flat block the RIC decodes in one pass
//! with no per-record allocation. The semicolon form
//! ([`crate::encode_ue_record`]) stays where the paper uses it (the LLM
//! prompt and the alert context); this form is what the RIC agent ships and
//! the RIC decodes.
//!
//! ```text
//! off len field
//!   0   8 msg_id
//!   8   8 timestamp (µs)
//!  16   4 cell
//!  20   4 du_ue_id
//!  24   2 rnti
//!  26   1 tag: high nibble = WIRE_VERSION; bit 0 TMSI present,
//!              bit 1 SUPI present, bit 2 uplink, bit 3 reserved (0)
//!  27   1 MessageKind::code
//!  28   1 cipher alg code            (0xFF = none)
//!  29   1 integrity alg code         (0xFF = none)
//!  30   1 establishment cause code   (0xFF = none)
//!  31   1 release cause code         (0xFF = none)
//!  32   4 tmsi                       (0 when absent)
//!  36   2 supi mcc                   (0 when absent)
//!  38   2 supi mnc                   (0 when absent)
//!  40   8 supi msin                  (0 when absent)
//! ```
//!
//! The encoding is canonical: every record has exactly one byte form, and
//! [`get_record`] rejects every other pattern (unknown codes, reserved bits,
//! non-zero bytes under an absent optional), so `put(get(bytes)) == bytes`
//! whenever `get` succeeds.

use crate::record::UeMobiFlow;
use xsec_proto::{Direction, MessageKind};
use xsec_types::{
    CellId, CipherAlg, EstablishmentCause, IntegrityAlg, Plmn, ReleaseCause, Result, Rnti, Supi,
    Timestamp, Tmsi, XsecError,
};

/// Version of the binary record layout, carried in every record's tag byte.
const WIRE_VERSION: u8 = 1;

/// Encoded size of one record.
pub const RECORD_LEN: usize = 48;

/// The "absent" value of the one-byte algorithm and cause fields.
const NONE: u8 = 0xFF;

const TAG_TMSI: u8 = 0b0001;
const TAG_SUPI: u8 = 0b0010;
const TAG_UPLINK: u8 = 0b0100;
const TAG_RESERVED: u8 = 0b1000;

fn err(msg: &str) -> XsecError {
    XsecError::Codec(msg.into())
}

/// Writes `r` into `out`. Total: every record has an encoding, and nothing
/// is allocated.
pub fn put_record(r: &UeMobiFlow, out: &mut [u8; RECORD_LEN]) {
    let mut tag = WIRE_VERSION << 4;
    if r.tmsi.is_some() {
        tag |= TAG_TMSI;
    }
    if r.supi.is_some() {
        tag |= TAG_SUPI;
    }
    if r.direction.is_uplink() {
        tag |= TAG_UPLINK;
    }
    let supi = r.supi.unwrap_or(Supi::new(Plmn { mcc: 0, mnc: 0 }, 0));
    out[0..8].copy_from_slice(&r.msg_id.to_be_bytes());
    out[8..16].copy_from_slice(&r.timestamp.as_micros().to_be_bytes());
    out[16..20].copy_from_slice(&r.cell.0.to_be_bytes());
    out[20..24].copy_from_slice(&r.du_ue_id.to_be_bytes());
    out[24..26].copy_from_slice(&r.rnti.0.to_be_bytes());
    out[26] = tag;
    out[27] = r.msg.code();
    out[28] = r.cipher_alg.map_or(NONE, CipherAlg::code);
    out[29] = r.integrity_alg.map_or(NONE, IntegrityAlg::code);
    out[30] = r.establishment_cause.map_or(NONE, EstablishmentCause::code);
    out[31] = r.release_cause.map_or(NONE, ReleaseCause::code);
    out[32..36].copy_from_slice(&r.tmsi.map_or(0, |t| t.0).to_be_bytes());
    out[36..38].copy_from_slice(&supi.plmn.mcc.to_be_bytes());
    out[38..40].copy_from_slice(&supi.plmn.mnc.to_be_bytes());
    out[40..48].copy_from_slice(&supi.msin.to_be_bytes());
}

/// Reads one record. Total: any 48 bytes either decode or return
/// [`XsecError::Codec`]; the success path allocates nothing.
pub fn get_record(b: &[u8; RECORD_LEN]) -> Result<UeMobiFlow> {
    let tag = b[26];
    if tag >> 4 != WIRE_VERSION {
        return Err(err("unsupported MobiFlow wire version"));
    }
    if tag & TAG_RESERVED != 0 {
        return Err(err("reserved tag bit set"));
    }
    let msg = MessageKind::from_code(b[27]).ok_or_else(|| err("unknown message code"))?;
    // One optional code byte: the sentinel, a known code, or an error.
    fn opt<T>(code: u8, from_code: fn(u8) -> Option<T>, what: &str) -> Result<Option<T>> {
        if code == NONE {
            Ok(None)
        } else {
            from_code(code).map(Some).ok_or_else(|| err(what))
        }
    }
    let tmsi = u32::from_be_bytes([b[32], b[33], b[34], b[35]]);
    let tmsi = match (tag & TAG_TMSI != 0, tmsi) {
        (true, v) => Some(Tmsi(v)),
        (false, 0) => None,
        (false, _) => return Err(err("TMSI bytes set without the presence bit")),
    };
    let supi = Supi::new(
        Plmn { mcc: u16::from_be_bytes([b[36], b[37]]), mnc: u16::from_be_bytes([b[38], b[39]]) },
        u64::from_be_bytes([b[40], b[41], b[42], b[43], b[44], b[45], b[46], b[47]]),
    );
    let supi = if tag & TAG_SUPI != 0 {
        Some(supi)
    } else if b[36..48].iter().all(|&x| x == 0) {
        None
    } else {
        return Err(err("SUPI bytes set without the presence bit"));
    };
    Ok(UeMobiFlow {
        msg_id: u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]),
        timestamp: Timestamp(u64::from_be_bytes([
            b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15],
        ])),
        cell: CellId(u32::from_be_bytes([b[16], b[17], b[18], b[19]])),
        rnti: Rnti(u16::from_be_bytes([b[24], b[25]])),
        du_ue_id: u32::from_be_bytes([b[20], b[21], b[22], b[23]]),
        direction: if tag & TAG_UPLINK != 0 { Direction::Uplink } else { Direction::Downlink },
        msg,
        tmsi,
        supi,
        cipher_alg: opt(b[28], CipherAlg::from_code, "bad cipher code")?,
        integrity_alg: opt(b[29], IntegrityAlg::from_code, "bad integrity code")?,
        establishment_cause: opt(b[30], EstablishmentCause::from_code, "bad cause code")?,
        release_cause: opt(b[31], ReleaseCause::from_code, "bad release code")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_ue_record, encode_ue_record};
    use proptest::prelude::*;

    fn sample() -> UeMobiFlow {
        UeMobiFlow {
            msg_id: 42,
            timestamp: Timestamp(123_456),
            cell: CellId(1),
            rnti: Rnti(0x4601),
            du_ue_id: 7,
            direction: Direction::Uplink,
            msg: MessageKind::NasRegistrationRequest,
            tmsi: Some(Tmsi(99)),
            supi: Some(Supi::new(Plmn::TEST, 12345)),
            cipher_alg: Some(CipherAlg::Nea2),
            integrity_alg: Some(IntegrityAlg::Nia2),
            establishment_cause: Some(EstablishmentCause::MoSignalling),
            release_cause: None,
        }
    }

    fn put(r: &UeMobiFlow) -> [u8; RECORD_LEN] {
        let mut out = [0u8; RECORD_LEN];
        put_record(r, &mut out);
        out
    }

    #[test]
    fn layout_is_stable() {
        // Pin the byte layout — every E2 peer depends on it.
        let bytes = put(&sample());
        let mut want = Vec::new();
        want.extend_from_slice(&42u64.to_be_bytes());
        want.extend_from_slice(&123_456u64.to_be_bytes());
        want.extend_from_slice(&1u32.to_be_bytes());
        want.extend_from_slice(&7u32.to_be_bytes());
        want.extend_from_slice(&[0x46, 0x01]);
        want.push(0x17); // version 1 | uplink | SUPI | TMSI
        want.push(MessageKind::NasRegistrationRequest.code());
        want.extend_from_slice(&[2, 2, EstablishmentCause::MoSignalling.code(), 0xFF]);
        want.extend_from_slice(&99u32.to_be_bytes());
        want.extend_from_slice(&[0, 1, 0, 1]);
        want.extend_from_slice(&12345u64.to_be_bytes());
        assert_eq!(bytes.to_vec(), want);
        assert_eq!(get_record(&bytes).unwrap(), sample());
    }

    #[test]
    fn absent_optionals_encode_as_sentinels_and_zeroes() {
        let r = UeMobiFlow {
            direction: Direction::Downlink,
            tmsi: None,
            supi: None,
            cipher_alg: None,
            integrity_alg: None,
            establishment_cause: None,
            release_cause: None,
            ..sample()
        };
        let bytes = put(&r);
        assert_eq!(bytes[26], WIRE_VERSION << 4);
        assert_eq!(bytes[28..32], [0xFF; 4]);
        assert_eq!(bytes[32..48], [0; 16]);
        assert_eq!(get_record(&bytes).unwrap(), r);
    }

    #[test]
    fn non_canonical_patterns_are_rejected() {
        let good = put(&UeMobiFlow { tmsi: None, supi: None, ..sample() });
        let cases: [(usize, u8, &str); 9] = [
            (26, 0x24, "future version"),
            (26, 0x04, "version zero"),
            (26, 0x1C, "reserved bit"),
            (27, 0xEE, "unknown message code"),
            (28, 4, "cipher code out of range"),
            (29, 0xFE, "integrity code out of range"),
            (31, 4, "release code out of range"),
            (35, 1, "TMSI bytes without the presence bit"),
            (47, 1, "SUPI bytes without the presence bit"),
        ];
        for (at, value, what) in cases {
            let mut bad = good;
            bad[at] = value;
            assert!(
                matches!(get_record(&bad), Err(XsecError::Codec(_))),
                "accepted a record with {what}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_decodes_canonically_or_errors() {
        let good = put(&sample());
        for bit in 0..RECORD_LEN * 8 {
            let mut flipped = good;
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(r) = get_record(&flipped) {
                assert_eq!(put(&r), flipped, "bit {bit} decoded to a non-canonical value");
            }
        }
    }

    proptest! {
        /// Both codecs carry every field — including SUPI and the release
        /// cause — and agree with each other.
        #[test]
        fn prop_binary_and_line_codecs_round_trip(
            ids in (any::<u64>(), any::<u64>(), any::<u32>(), any::<u16>(), any::<u32>()),
            kind_idx in 0usize..MessageKind::ALL.len(),
            uplink in any::<bool>(),
            tmsi in proptest::option::of(any::<u32>()),
            supi in proptest::option::of((any::<u16>(), any::<u16>(), any::<u64>())),
            cipher in proptest::option::of(0u8..4),
            integ in proptest::option::of(0u8..4),
            cause in proptest::option::of(0u8..7),
            release in proptest::option::of(0u8..4),
        ) {
            let (msg_id, ts, cell, rnti, du_ue_id) = ids;
            let r = UeMobiFlow {
                msg_id,
                timestamp: Timestamp(ts),
                cell: CellId(cell),
                rnti: Rnti(rnti),
                du_ue_id,
                direction: if uplink { Direction::Uplink } else { Direction::Downlink },
                msg: MessageKind::ALL[kind_idx],
                tmsi: tmsi.map(Tmsi),
                supi: supi.map(|(mcc, mnc, msin)| Supi::new(Plmn { mcc, mnc }, msin)),
                cipher_alg: cipher.map(|c| CipherAlg::from_code(c).unwrap()),
                integrity_alg: integ.map(|c| IntegrityAlg::from_code(c).unwrap()),
                establishment_cause: cause.map(|c| EstablishmentCause::from_code(c).unwrap()),
                release_cause: release.map(|c| ReleaseCause::from_code(c).unwrap()),
            };
            prop_assert_eq!(&get_record(&put(&r)).unwrap(), &r);
            prop_assert_eq!(&decode_ue_record(&encode_ue_record(&r)).unwrap(), &r);
        }

        /// Arbitrary bytes never panic, and whatever decodes is canonical.
        #[test]
        fn prop_arbitrary_bytes_decode_canonically_or_error(
            bytes in proptest::collection::vec(any::<u8>(), RECORD_LEN),
            version_fixed in any::<bool>(),
        ) {
            let mut b: [u8; RECORD_LEN] = bytes.try_into().unwrap();
            if version_fixed {
                // Steer half the cases past the version check.
                b[26] = (WIRE_VERSION << 4) | (b[26] & 0x07);
            }
            if let Ok(r) = get_record(&b) {
                prop_assert_eq!(put(&r), b);
            }
        }
    }
}
