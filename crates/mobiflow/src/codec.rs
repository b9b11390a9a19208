//! The semicolon-delimited MobiFlow line encoding.
//!
//! Mirrors the format of the 5GSEC MobiFlow releases: a fixed field order,
//! `;` separators, `-` for absent optionals. This is the human-readable form
//! the paper shows to the LLM (alert context and prompt); it must round-trip
//! exactly. Over E2 and in the SDL records travel in the binary layout of
//! [`crate::wire`].
//!
//! ```text
//! v2;UE;<msg_id>;<ts_us>;<cell>;<rnti_hex>;<du_ue_id>;<UL|DL>;<msg_name>;
//!   <tmsi|- >;<supi|- >;<nea|- >;<nia|- >;<cause_code|- >;<release_code|- >
//! ```

use crate::record::{UeMobiFlow, MOBIFLOW_VERSION};
use std::fmt;
use std::io::Write;
use xsec_proto::{Direction, MessageKind};
use xsec_types::{
    CellId, CipherAlg, EstablishmentCause, IntegrityAlg, Plmn, ReleaseCause, Result, Rnti, Supi,
    Timestamp, Tmsi, XsecError,
};

fn err(msg: impl Into<String>) -> XsecError {
    XsecError::Codec(msg.into())
}

/// An optional field: its value, or `-` when absent.
struct OrDash<T>(Option<T>);

impl<T: fmt::Display> fmt::Display for OrDash<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(value) => value.fmt(f),
            None => f.write_str("-"),
        }
    }
}

/// A SUPI as the line carries it: `<mcc>.<mnc>.<msin>`.
struct SupiField(Supi);

impl fmt::Display for SupiField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:03}.{:02}.{}", self.0.plmn.mcc, self.0.plmn.mnc, self.0.msin)
    }
}

/// Room for the longest line there is: every numeric field at its type's
/// full width is under 200 bytes (`longest_line_fits_the_buffer`).
const MAX_LINE: usize = 256;

/// Encodes a UE record into its line form.
pub fn encode_ue_record(r: &UeMobiFlow) -> String {
    // Formatted on the stack, then copied out at its exact length: the line
    // is the call's one allocation, and alerts hold thousands of them.
    let mut buf = [0u8; MAX_LINE];
    let mut rest = &mut buf[..];
    write!(
        rest,
        "v{};UE;{};{};{};{:04x};{};{};{};{};{};{};{};{};{}",
        MOBIFLOW_VERSION,
        r.msg_id,
        r.timestamp.as_micros(),
        r.cell.0,
        r.rnti.0,
        r.du_ue_id,
        if r.direction.is_uplink() { "UL" } else { "DL" },
        r.msg.name(),
        OrDash(r.tmsi.map(|t| t.0)),
        OrDash(r.supi.map(SupiField)),
        OrDash(r.cipher_alg.map(|c| c.code())),
        OrDash(r.integrity_alg.map(|i| i.code())),
        OrDash(r.establishment_cause.map(|c| c.code())),
        OrDash(r.release_cause.map(|c| c.code())),
    )
    .expect("a MobiFlow line fits MAX_LINE");
    let len = MAX_LINE - rest.len();
    std::str::from_utf8(&buf[..len]).expect("formatted text is UTF-8").to_owned()
}

/// Decodes a UE record from its line form.
pub fn decode_ue_record(line: &str) -> Result<UeMobiFlow> {
    let mut fields = [""; 15];
    let mut count = 0;
    for field in line.split(';') {
        if let Some(slot) = fields.get_mut(count) {
            *slot = field;
        }
        count += 1;
    }
    if count != 15 {
        return Err(err(format!("expected 15 fields, got {count}")));
    }
    let version = fields[0]
        .strip_prefix('v')
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or_else(|| err("bad version field"))?;
    if version != MOBIFLOW_VERSION {
        return Err(err(format!("unsupported MobiFlow version {version}")));
    }
    if fields[1] != "UE" {
        return Err(err(format!("expected UE record, got {:?}", fields[1])));
    }

    fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T> {
        s.parse().map_err(|_| err(format!("bad {what}: {s:?}")))
    }
    fn parse_opt<T: std::str::FromStr>(s: &str, what: &str) -> Result<Option<T>> {
        if s == "-" {
            Ok(None)
        } else {
            parse(s, what).map(Some)
        }
    }

    let msg_name = fields[8];
    let msg = MessageKind::ALL
        .iter()
        .copied()
        .find(|k| k.name() == msg_name)
        .ok_or_else(|| err(format!("unknown message name {msg_name:?}")))?;

    let direction = match fields[7] {
        "UL" => Direction::Uplink,
        "DL" => Direction::Downlink,
        other => return Err(err(format!("bad direction {other:?}"))),
    };

    let supi = if fields[10] == "-" {
        None
    } else {
        let mut parts = fields[10].split('.');
        let (Some(mcc), Some(mnc), Some(msin), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(err(format!("bad SUPI field {:?}", fields[10])));
        };
        Some(Supi::new(
            Plmn { mcc: parse(mcc, "mcc")?, mnc: parse(mnc, "mnc")? },
            parse(msin, "msin")?,
        ))
    };

    let cipher_alg = parse_opt::<u8>(fields[11], "cipher")?
        .map(|c| CipherAlg::from_code(c).ok_or_else(|| err(format!("bad cipher code {c}"))))
        .transpose()?;
    let integrity_alg = parse_opt::<u8>(fields[12], "integrity")?
        .map(|c| IntegrityAlg::from_code(c).ok_or_else(|| err(format!("bad integrity code {c}"))))
        .transpose()?;
    let establishment_cause = parse_opt::<u8>(fields[13], "cause")?
        .map(|c| {
            EstablishmentCause::from_code(c).ok_or_else(|| err(format!("bad cause code {c}")))
        })
        .transpose()?;
    let release_cause = parse_opt::<u8>(fields[14], "release cause")?
        .map(|c| ReleaseCause::from_code(c).ok_or_else(|| err(format!("bad release code {c}"))))
        .transpose()?;

    Ok(UeMobiFlow {
        msg_id: parse(fields[2], "msg_id")?,
        timestamp: Timestamp(parse(fields[3], "timestamp")?),
        cell: CellId(parse(fields[4], "cell")?),
        rnti: Rnti(
            u16::from_str_radix(fields[5], 16).map_err(|_| err(format!("bad rnti {:?}", fields[5])))?,
        ),
        du_ue_id: parse(fields[6], "du_ue_id")?,
        direction,
        msg,
        tmsi: parse_opt::<u32>(fields[9], "tmsi")?.map(Tmsi),
        supi,
        cipher_alg,
        integrity_alg,
        establishment_cause,
        release_cause,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn round_trip_full_record() {
        let r = sample();
        let line = encode_ue_record(&r);
        assert_eq!(decode_ue_record(&line).unwrap(), r);
    }

    #[test]
    fn round_trip_minimal_record() {
        let r = UeMobiFlow {
            tmsi: None,
            supi: None,
            cipher_alg: None,
            integrity_alg: None,
            establishment_cause: None,
            release_cause: None,
            ..sample()
        };
        let line = encode_ue_record(&r);
        assert!(line.contains(";-;-;-;-;-;-"), "optionals should encode as dashes: {line}");
        assert_eq!(decode_ue_record(&line).unwrap(), r);
    }

    #[test]
    fn encoded_form_is_stable() {
        // Pin the exact wire format — downstream parsers depend on it.
        let line = encode_ue_record(&sample());
        assert_eq!(
            line,
            "v2;UE;42;123456;1;4601;7;UL;RegistrationRequest;99;001.01.12345;2;2;3;-"
        );
    }

    #[test]
    fn longest_line_fits_the_buffer() {
        let longest_name =
            MessageKind::ALL.iter().copied().max_by_key(|k| k.name().len()).unwrap();
        let r = UeMobiFlow {
            msg_id: u64::MAX,
            timestamp: Timestamp(u64::MAX),
            cell: CellId(u32::MAX),
            rnti: Rnti(u16::MAX),
            du_ue_id: u32::MAX,
            direction: Direction::Downlink,
            msg: longest_name,
            tmsi: Some(Tmsi(u32::MAX)),
            supi: Some(Supi::new(Plmn { mcc: u16::MAX, mnc: u16::MAX }, u64::MAX)),
            cipher_alg: Some(CipherAlg::Nea3),
            integrity_alg: Some(IntegrityAlg::Nia3),
            establishment_cause: EstablishmentCause::from_code(6),
            release_cause: ReleaseCause::from_code(3),
        };
        let line = encode_ue_record(&r);
        assert!(line.len() < 200, "{} bytes: {line}", line.len());
        assert_eq!(line.capacity(), line.len(), "lines are held at their exact length");
        assert_eq!(decode_ue_record(&line).unwrap(), r);
    }

    #[test]
    fn decode_rejects_malformed_lines() {
        for bad in [
            "",
            "v2;UE;1",                                        // too few fields
            "v1;UE;42;1;1;4601;7;UL;RegistrationRequest;-;-;-;-;-;-", // old version
            "v2;BS;42;1;1;4601;7;UL;RegistrationRequest;-;-;-;-;-;-", // wrong type
            "v2;UE;42;1;1;ZZZZ;7;UL;RegistrationRequest;-;-;-;-;-;-", // bad rnti
            "v2;UE;42;1;1;4601;7;XX;RegistrationRequest;-;-;-;-;-;-", // bad direction
            "v2;UE;42;1;1;4601;7;UL;NoSuchMessage;-;-;-;-;-;-",       // bad message
            "v2;UE;42;1;1;4601;7;UL;RegistrationRequest;-;-;9;-;-;-", // bad cipher code
            "v2;UE;42;1;1;4601;7;UL;RegistrationRequest;-;-;-;-;-;9", // bad release code
            "v2;UE;42;1;1;4601;7;UL;RegistrationRequest;-;1.1;-;-;-;-", // short SUPI
            "v2;UE;42;1;1;4601;7;UL;RegistrationRequest;-;1.1.1.1;-;-;-;-", // long SUPI
            "v2;UE;42;1;1;4601;7;UL;RegistrationRequest;-;-;-;-;-;-;", // a sixteenth field
        ] {
            assert!(decode_ue_record(bad).is_err(), "accepted malformed line: {bad:?}");
        }
    }

    proptest! {
        #[test]
        fn prop_round_trip(
            msg_id in any::<u64>(),
            ts in any::<u64>(),
            rnti in any::<u16>(),
            du in any::<u32>(),
            kind_idx in 0usize..MessageKind::ALL.len(),
            uplink in any::<bool>(),
            tmsi in proptest::option::of(any::<u32>()),
            cipher in proptest::option::of(0u8..4),
            integ in proptest::option::of(0u8..4),
            cause in proptest::option::of(0u8..7),
        ) {
            let r = UeMobiFlow {
                msg_id,
                timestamp: Timestamp(ts),
                cell: CellId(1),
                rnti: Rnti(rnti),
                du_ue_id: du,
                direction: if uplink { Direction::Uplink } else { Direction::Downlink },
                msg: MessageKind::ALL[kind_idx],
                tmsi: tmsi.map(Tmsi),
                supi: None,
                cipher_alg: cipher.map(|c| CipherAlg::from_code(c).unwrap()),
                integrity_alg: integ.map(|c| IntegrityAlg::from_code(c).unwrap()),
                establishment_cause: cause.map(|c| EstablishmentCause::from_code(c).unwrap()),
                release_cause: None,
            };
            let line = encode_ue_record(&r);
            prop_assert_eq!(decode_ue_record(&line).unwrap(), r);
        }

        #[test]
        fn prop_decode_never_panics(line in "[ -~]{0,100}") {
            let _ = decode_ue_record(&line);
        }
    }
}
