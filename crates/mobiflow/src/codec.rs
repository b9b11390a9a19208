//! The semicolon-delimited MobiFlow line encoding.
//!
//! Mirrors the format of the 5GSEC MobiFlow releases: a fixed field order,
//! `;` separators, `-` for absent optionals. This is the human-readable form
//! the paper shows to the LLM (alert context and prompt); it must round-trip
//! exactly. Over E2 records travel in the binary layout of [`crate::wire`].
//!
//! ```text
//! v2;UE;<msg_id>;<ts_us>;<cell>;<rnti_hex>;<du_ue_id>;<UL|DL>;<msg_name>;
//!   <tmsi|- >;<supi|- >;<nea|- >;<nia|- >;<cause_code|- >;<release_code|- >
//! ```
//!
//! Every published alert writes its evidence lines and the analyzer and the
//! expert read them back, so both directions work on bytes, without
//! `core::fmt` or `str::parse`. The contract is the one those std routines
//! gave: [`encode_ue_record`] writes the bytes `write!` wrote (decimal
//! fields, the RNTI as 4 lower-case hex digits, MCC and MNC zero-padded to
//! at least 3 and 2 digits), and [`decode_ue_record`] accepts exactly the
//! lines `str::parse` accepted (each unsigned field one optional `+`, then
//! at least one ASCII digit, in range for its width; the RNTI through
//! `u16::from_str_radix`). The tests keep the `write!` / `str::parse`
//! version as a differential oracle.

use crate::record::{UeMobiFlow, MOBIFLOW_VERSION};
use xsec_proto::{Direction, MessageKind};
use xsec_types::{
    CellId, CipherAlg, EstablishmentCause, IntegrityAlg, Plmn, ReleaseCause, Result, Rnti, Supi,
    Timestamp, Tmsi, XsecError,
};

fn err(msg: impl Into<String>) -> XsecError {
    XsecError::Codec(msg.into())
}

/// Room for the longest line there is: every numeric field at its type's
/// full width is under 200 bytes (`longest_line_fits_the_buffer`).
const MAX_LINE: usize = 256;

/// A line being written on the stack.
struct Line {
    buf: [u8; MAX_LINE],
    len: usize,
}

impl Line {
    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// `value` in decimal, zero-padded to at least `min_digits`.
    fn decimal(&mut self, mut value: u64, min_digits: usize) {
        let digits = (value.checked_ilog10().unwrap_or(0) as usize + 1).max(min_digits);
        let end = self.len + digits;
        for slot in self.buf[self.len..end].iter_mut().rev() {
            *slot = b'0' + (value % 10) as u8;
            value /= 10;
        }
        self.len = end;
    }

    /// `value` as exactly 4 lower-case hex digits.
    fn hex4(&mut self, value: u16) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let nibble = |shift: u16| HEX[usize::from((value >> shift) & 0xf)];
        self.put(&[nibble(12), nibble(8), nibble(4), nibble(0)]);
    }

    /// `;` and an optional decimal field, `-` when absent.
    fn optional(&mut self, value: Option<impl Into<u64>>) {
        match value {
            Some(value) => {
                self.put(b";");
                self.decimal(value.into(), 1);
            }
            None => self.put(b";-"),
        }
    }
}

/// Encodes a UE record into its line form.
pub fn encode_ue_record(r: &UeMobiFlow) -> String {
    // Written on the stack, then copied out at its exact length: the line
    // is the call's one allocation, and alerts hold thousands of them.
    let mut line = Line { buf: [0; MAX_LINE], len: 0 };
    line.put(b"v");
    line.decimal(MOBIFLOW_VERSION.into(), 1);
    line.put(b";UE;");
    line.decimal(r.msg_id, 1);
    line.put(b";");
    line.decimal(r.timestamp.as_micros(), 1);
    line.put(b";");
    line.decimal(r.cell.0.into(), 1);
    line.put(b";");
    line.hex4(r.rnti.0);
    line.put(b";");
    line.decimal(r.du_ue_id.into(), 1);
    line.put(if r.direction.is_uplink() { b";UL;" } else { b";DL;" });
    line.put(r.msg.name().as_bytes());
    line.optional(r.tmsi.map(|t| t.0));
    match r.supi {
        Some(supi) => {
            line.put(b";");
            line.decimal(supi.plmn.mcc.into(), 3);
            line.put(b".");
            line.decimal(supi.plmn.mnc.into(), 2);
            line.put(b".");
            line.decimal(supi.msin, 1);
        }
        None => line.put(b";-"),
    }
    line.optional(r.cipher_alg.map(|c| c.code()));
    line.optional(r.integrity_alg.map(|i| i.code()));
    line.optional(r.establishment_cause.map(|c| c.code()));
    line.optional(r.release_cause.map(|c| c.code()));
    String::from_utf8(line.buf[..line.len].to_vec()).expect("the line is ASCII")
}

/// An unsigned decimal field as std's `FromStr` reads it: one optional `+`,
/// then at least one ASCII digit; `None` if the value overflows `T`.
fn unsigned<T: TryFrom<u64>>(field: &str) -> Option<T> {
    let bytes = field.as_bytes();
    let digits = bytes.strip_prefix(b"+").unwrap_or(bytes);
    if digits.is_empty() {
        return None;
    }
    let mut value = 0u64;
    for &b in digits {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        value = value.checked_mul(10)?.checked_add(digit.into())?;
    }
    T::try_from(value).ok()
}

/// A required unsigned field, or an error naming it.
fn field<T: TryFrom<u64>>(s: &str, what: &str) -> Result<T> {
    unsigned(s).ok_or_else(|| err(format!("bad {what}: {s:?}")))
}

/// An optional code field: `-`, or a `u8` that `from_code` knows.
fn code<T>(s: &str, what: &str, from_code: fn(u8) -> Option<T>) -> Result<Option<T>> {
    if s == "-" {
        return Ok(None);
    }
    let c = field(s, what)?;
    from_code(c).map(Some).ok_or_else(|| err(format!("bad {what} code {c}")))
}

/// `<mcc>.<mnc>.<msin>`.
fn supi(s: &str) -> Option<Supi> {
    let (mcc, rest) = s.split_once('.')?;
    let (mnc, msin) = rest.split_once('.')?;
    Some(Supi::new(Plmn { mcc: unsigned(mcc)?, mnc: unsigned(mnc)? }, unsigned(msin)?))
}

/// Decodes a UE record from its line form.
pub fn decode_ue_record(line: &str) -> Result<UeMobiFlow> {
    // `;` is ASCII, so every cut is on a char boundary.
    let mut fields = [""; 15];
    let mut count = 0;
    let mut start = 0;
    for (at, &b) in line.as_bytes().iter().enumerate() {
        if b == b';' {
            if let Some(slot) = fields.get_mut(count) {
                *slot = &line[start..at];
            }
            count += 1;
            start = at + 1;
        }
    }
    if count != 14 {
        return Err(err(format!("expected 15 fields, got {}", count + 1)));
    }
    fields[14] = &line[start..];

    let version: Option<u32> = fields[0].strip_prefix('v').and_then(unsigned);
    if version != Some(MOBIFLOW_VERSION) {
        return Err(err(format!("unsupported MobiFlow version field {:?}", fields[0])));
    }
    if fields[1] != "UE" {
        return Err(err(format!("expected UE record, got {:?}", fields[1])));
    }
    let direction = match fields[7] {
        "UL" => Direction::Uplink,
        "DL" => Direction::Downlink,
        other => return Err(err(format!("bad direction {other:?}"))),
    };
    let msg = MessageKind::from_name(fields[8])
        .ok_or_else(|| err(format!("unknown message name {:?}", fields[8])))?;
    let supi = match fields[10] {
        "-" => None,
        s => Some(supi(s).ok_or_else(|| err(format!("bad SUPI field {s:?}")))?),
    };
    let tmsi = match fields[9] {
        "-" => None,
        s => Some(Tmsi(field(s, "tmsi")?)),
    };

    Ok(UeMobiFlow {
        msg_id: field(fields[2], "msg_id")?,
        timestamp: Timestamp(field(fields[3], "timestamp")?),
        cell: CellId(field(fields[4], "cell")?),
        rnti: Rnti(
            u16::from_str_radix(fields[5], 16)
                .map_err(|_| err(format!("bad rnti {:?}", fields[5])))?,
        ),
        du_ue_id: field(fields[6], "du_ue_id")?,
        direction,
        msg,
        tmsi,
        supi,
        cipher_alg: code(fields[11], "cipher", CipherAlg::from_code)?,
        integrity_alg: code(fields[12], "integrity", IntegrityAlg::from_code)?,
        establishment_cause: code(fields[13], "cause", EstablishmentCause::from_code)?,
        release_cause: code(fields[14], "release", ReleaseCause::from_code)?,
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

    /// The `sample()` line, one field at a time.
    const SAMPLE_FIELDS: [&str; 15] = [
        "v2", "UE", "42", "123456", "1", "4601", "7", "UL", "RegistrationRequest", "99",
        "001.01.12345", "2", "2", "3", "-",
    ];

    fn with_field(index: usize, value: &str) -> String {
        let mut fields = SAMPLE_FIELDS;
        fields[index] = value;
        fields.join(";")
    }

    #[test]
    fn decode_keeps_std_integer_semantics() {
        // The accept set is std's `FromStr` for each field's width (and
        // `from_str_radix` for the RNTI): one optional `+`, at least one
        // ASCII digit, leading zeros allowed, overflow rejected.
        for (index, value) in [
            (2, "+42"),
            (3, "+123456"),
            (9, "+99"),
            (11, "+2"),
            (0, "v+2"),
            (10, "+001.+01.+12345"),
            (2, "0042"),
            (4, "007"),
            (6, "007"),
            (9, "0099"),
            (13, "003"),
            (0, "v002"),
            (10, "0001.0001.00012345"),
            (5, "ABCD"),
            (5, "aBcD"),
            (5, "+4601"),
            (5, "04601"),
            (5, "1"),
            (2, "18446744073709551615"),
            (3, "18446744073709551615"),
            (4, "4294967295"),
            (6, "4294967295"),
            (9, "4294967295"),
            (10, "65535.65535.18446744073709551615"),
            (2, "000000000000000000000000000018446744073709551615"),
        ] {
            let line = with_field(index, value);
            assert!(decode_ue_record(&line).is_ok(), "rejected {line:?}");
        }

        let mut rejects = vec![
            // empty numeric fields and a bare `+`
            with_field(2, ""),
            with_field(3, ""),
            with_field(4, ""),
            with_field(5, ""),
            with_field(6, ""),
            with_field(9, ""),
            with_field(11, ""),
            with_field(10, ".01.12345"),
            with_field(10, "001..12345"),
            with_field(10, "001.01."),
            with_field(0, "v"),
            with_field(2, "+"),
            with_field(5, "+"),
            with_field(9, "+"),
            with_field(14, "+"),
            with_field(10, "+.01.12345"),
            // signs, spaces and doubled prefixes std refuses
            with_field(2, "++42"),
            with_field(2, "-42"),
            with_field(2, "-0"),
            with_field(5, "-1"),
            with_field(2, " 42"),
            with_field(2, "42 "),
            with_field(2, "4_2"),
            with_field(5, "0x46"),
            with_field(2, "-"),
            // non-ASCII digits
            with_field(2, "\u{ff14}\u{ff12}"),
            with_field(4, "1\u{0663}"),
            with_field(11, "\u{0662}"),
            with_field(5, "46\u{ff10}1"),
            // a 5-digit hex RNTI
            with_field(5, "14601"),
            with_field(5, "10000"),
            // one past each width's maximum
            with_field(2, "18446744073709551616"),
            with_field(3, "18446744073709551616"),
            with_field(10, "001.01.18446744073709551616"),
            with_field(4, "4294967296"),
            with_field(6, "4294967296"),
            with_field(9, "4294967296"),
            with_field(10, "65536.01.12345"),
            with_field(10, "001.65536.12345"),
            with_field(0, "v4294967298"),
        ];
        for code_field in 11..15 {
            rejects.push(with_field(code_field, "256"));
        }
        // 14 and 16 fields
        rejects.push(SAMPLE_FIELDS[..14].join(";"));
        rejects.push([&SAMPLE_FIELDS[..], &["-"]].concat().join(";"));
        for line in rejects {
            assert!(decode_ue_record(&line).is_err(), "accepted {line:?}");
        }
        assert_eq!(decode_ue_record(&SAMPLE_FIELDS.join(";")).unwrap(), sample());
    }

    /// A record with every field drawn, small values (zero padding, short
    /// digit runs) as often as full-width ones.
    fn arb_record() -> impl Strategy<Value = UeMobiFlow> {
        let wide = || prop_oneof![0u64..1_000, any::<u64>()];
        let narrow = || prop_oneof![0u32..1_000, any::<u32>()];
        let short = || prop_oneof![0u16..1_000, any::<u16>()];
        let ids = (wide(), wide(), narrow(), any::<u16>(), narrow());
        let kind = (0usize..MessageKind::ALL.len(), any::<bool>());
        let identities =
            (proptest::option::of(narrow()), proptest::option::of((short(), short(), wide())));
        let codes = (
            proptest::option::of(0u8..4),
            proptest::option::of(0u8..4),
            proptest::option::of(0u8..7),
            proptest::option::of(0u8..4),
        );
        (ids, kind, identities, codes).prop_map(|(ids, kind, identities, codes)| {
            let (msg_id, ts, cell, rnti, du_ue_id) = ids;
            let (tmsi, supi) = identities;
            let (cipher, integ, cause, release) = codes;
            UeMobiFlow {
                msg_id,
                timestamp: Timestamp(ts),
                cell: CellId(cell),
                rnti: Rnti(rnti),
                du_ue_id,
                direction: if kind.1 { Direction::Uplink } else { Direction::Downlink },
                msg: MessageKind::ALL[kind.0],
                tmsi: tmsi.map(Tmsi),
                supi: supi.map(|(mcc, mnc, msin)| Supi::new(Plmn { mcc, mnc }, msin)),
                cipher_alg: cipher.map(|c| CipherAlg::from_code(c).unwrap()),
                integrity_alg: integ.map(|c| IntegrityAlg::from_code(c).unwrap()),
                establishment_cause: cause.map(|c| EstablishmentCause::from_code(c).unwrap()),
                release_cause: release.map(|c| ReleaseCause::from_code(c).unwrap()),
            }
        })
    }

    /// The decoder and the oracle agree: the same record, or both refuse.
    fn assert_decodes_like_the_oracle(line: &str) {
        match (decode_ue_record(line), oracle::decode_ue_record(line)) {
            (Ok(ours), Ok(theirs)) => assert_eq!(ours, theirs, "{line:?}"),
            (Err(_), Err(_)) => {}
            (ours, theirs) => panic!("{line:?}: {ours:?}, the oracle {theirs:?}"),
        }
    }

    /// Text that a field is replaced by, or suffixed with.
    fn arb_field_text() -> impl Strategy<Value = String> {
        prop_oneof![
            "[ -~]{0,6}",
            "[0-9]{1,3}",
            "[0-9]{19,22}",
            "[0-9a-fA-F+]{1,6}",
            Just("256".to_owned()),
            Just("65536".to_owned()),
            Just("4294967296".to_owned()),
            Just("18446744073709551616".to_owned()),
        ]
    }

    /// Each case checks a batch: the stand-in proptest runs 64 cases.
    const BATCH: usize = 64;

    proptest! {
        #[test]
        fn prop_round_trip(r in arb_record()) {
            let line = encode_ue_record(&r);
            prop_assert_eq!(decode_ue_record(&line).unwrap(), r);
        }

        #[test]
        fn prop_decode_never_panics(line in "[ -~]{0,100}") {
            let _ = decode_ue_record(&line);
        }

        #[test]
        fn prop_encodes_the_oracles_bytes(
            records in proptest::collection::vec(arb_record(), BATCH),
        ) {
            for r in &records {
                prop_assert_eq!(encode_ue_record(r), oracle::encode_ue_record(r));
            }
        }

        /// Printable text, text with non-ASCII digits and letters in it, and
        /// 15 arbitrary fields.
        #[test]
        fn prop_arbitrary_text_decodes_like_the_oracle(
            lines in proptest::collection::vec(
                prop_oneof![
                    "[ -~]{0,100}",
                    "[ -~\u{a0}-\u{ff}\u{660}-\u{669}\u{ff10}-\u{ff19}]{0,100}",
                    proptest::collection::vec("[ -:<-~]{0,6}", 15).prop_map(|f| f.join(";")),
                ],
                BATCH,
            ),
        ) {
            for line in &lines {
                assert_decodes_like_the_oracle(line);
            }
        }

        /// One field of a valid line replaced: by random ASCII, a `+`
        /// prefix, leading zeros, overflowing digits, or nothing.
        #[test]
        fn prop_edited_fields_decode_like_the_oracle(
            edits in proptest::collection::vec(
                (arb_record(), (0usize..15, 0u8..6, arb_field_text())),
                BATCH,
            ),
        ) {
            for (r, (index, how, text)) in edits {
                let line = encode_ue_record(&r);
                let mut fields: Vec<String> = line.split(';').map(str::to_owned).collect();
                let old = &fields[index];
                fields[index] = match how {
                    0 => text,
                    1 => format!("+{old}"),
                    2 => format!("00{old}"),
                    3 => format!("{old}{text}"),
                    4 => format!("+{text}"),
                    _ => String::new(),
                };
                assert_decodes_like_the_oracle(&fields.join(";"));
            }
        }

        /// A separator added or removed anywhere in a valid line.
        #[test]
        fn prop_moved_separators_decode_like_the_oracle(
            edits in proptest::collection::vec((arb_record(), any::<usize>(), any::<bool>()), BATCH),
        ) {
            for (r, at, remove) in edits {
                let mut line = encode_ue_record(&r);
                if remove {
                    let separators: Vec<usize> =
                        line.match_indices(';').map(|(i, _)| i).collect();
                    line.remove(separators[at % separators.len()]);
                } else {
                    line.insert(at % (line.len() + 1), ';');
                }
                assert_decodes_like_the_oracle(&line);
            }
        }
    }

    /// The `write!` / `str::parse` codec the byte-level one replaced, kept
    /// as the differential oracle for its bytes and its accept set.
    mod oracle {
        use super::super::MAX_LINE;
        use crate::record::{UeMobiFlow, MOBIFLOW_VERSION};
        use std::fmt;
        use std::io::Write;
        use xsec_proto::{Direction, MessageKind};
        use xsec_types::{
            CellId, CipherAlg, EstablishmentCause, IntegrityAlg, Plmn, ReleaseCause, Result, Rnti,
            Supi, Timestamp, Tmsi, XsecError,
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

        pub fn encode_ue_record(r: &UeMobiFlow) -> String {
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
                .map(|c| {
                    IntegrityAlg::from_code(c).ok_or_else(|| err(format!("bad integrity code {c}")))
                })
                .transpose()?;
            let establishment_cause = parse_opt::<u8>(fields[13], "cause")?
                .map(|c| {
                    EstablishmentCause::from_code(c)
                        .ok_or_else(|| err(format!("bad cause code {c}")))
                })
                .transpose()?;
            let release_cause = parse_opt::<u8>(fields[14], "release cause")?
                .map(|c| {
                    ReleaseCause::from_code(c).ok_or_else(|| err(format!("bad release code {c}")))
                })
                .transpose()?;

            Ok(UeMobiFlow {
                msg_id: parse(fields[2], "msg_id")?,
                timestamp: Timestamp(parse(fields[3], "timestamp")?),
                cell: CellId(parse(fields[4], "cell")?),
                rnti: Rnti(
                    u16::from_str_radix(fields[5], 16)
                        .map_err(|_| err(format!("bad rnti {:?}", fields[5])))?,
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
    }
}
