//! The extended E2SM-KPM service model carrying security telemetry.
//!
//! The paper extends the O-RAN KPM (key performance measurement) service
//! model so the RIC agent can "report security telemetry via the E2 report
//! operation per time interval, where the telemetry can be encoded as
//! (key, value) data" (§3.1). [`KpmIndication`] is that container: a report
//! window, the window's MobiFlow records as one block of fixed-layout binary
//! records ([`xsec_mobiflow::wire`]), and a list of generic UTF-8 key/value
//! entries for any other measurement.
//!
//! ```text
//! cell u32 | window_start u64 | window_end u64 | n_records u32
//!   | n_records x 48-byte record | n_entries u32
//!   | n_entries x (u16 len, key, u16 len, value)
//! ```

use xsec_mobiflow::wire::{get_record, put_record, RECORD_LEN};
use xsec_mobiflow::UeMobiFlow;
use xsec_types::{CellId, Put, Reader, Result, Timestamp, XsecError};

/// RAN function id of the MobiFlow security service model (a private id
/// outside the ranges the O-RAN Alliance reserves for its own models).
pub const RAN_FUNCTION_MOBIFLOW: u32 = 142;

/// Bytes before the record block: cell, window bounds, record count.
const HEADER_LEN: usize = 24;

/// One report-interval indication payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KpmIndication {
    /// Producing cell.
    pub cell: CellId,
    /// Report window start.
    pub window_start: Timestamp,
    /// Report window end.
    pub window_end: Timestamp,
    /// The window's MobiFlow records, in log order.
    pub records: Vec<UeMobiFlow>,
    /// Generic (key, value) telemetry entries.
    pub entries: Vec<(String, String)>,
}

impl KpmIndication {
    /// Builds an indication carrying MobiFlow records.
    pub fn from_records(
        cell: CellId,
        window_start: Timestamp,
        window_end: Timestamp,
        records: &[UeMobiFlow],
    ) -> Self {
        KpmIndication {
            cell,
            window_start,
            window_end,
            records: records.to_vec(),
            entries: Vec::new(),
        }
    }

    /// The MobiFlow records carried by this indication, in log order.
    /// Generic entries never contribute. Decoding already validated every
    /// record, so this cannot fail; the `Result` is the signature existing
    /// callers compile against.
    pub fn mobiflow_records(&self) -> Result<Vec<UeMobiFlow>> {
        Ok(self.records.clone())
    }

    /// Consumes the indication into its records without copying them.
    pub fn into_records(self) -> Vec<UeMobiFlow> {
        self.records
    }

    /// Encodes the payload.
    pub fn encode(&self) -> Vec<u8> {
        encode_parts(self.cell, self.window_start, self.window_end, &self.records, &self.entries)
    }

    /// Encodes a records-only payload straight from a slice — the agent's
    /// path, which never builds a `KpmIndication`.
    pub fn encode_records(
        cell: CellId,
        window_start: Timestamp,
        window_end: Timestamp,
        records: &[UeMobiFlow],
    ) -> Vec<u8> {
        encode_parts(cell, window_start, window_end, records, &[])
    }

    /// Decodes a payload. The record block is borrowed from bytes that are
    /// present before anything is sized by its count, and the entry list
    /// grows by the entries actually read.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let cell = CellId(r.u32()?);
        let window_start = Timestamp(r.u64()?);
        let window_end = Timestamp(r.u64()?);
        let block_len = (r.u32()? as usize).saturating_mul(RECORD_LEN);
        let block = r.bytes(block_len)?;
        let mut records = Vec::with_capacity(block_len / RECORD_LEN);
        for chunk in block.chunks_exact(RECORD_LEN) {
            records.push(get_record(chunk.try_into().expect("chunks_exact yields RECORD_LEN"))?);
        }
        let entries = (0..r.u32()?)
            .map(|_| Ok((get_str(&mut r)?, get_str(&mut r)?)))
            .collect::<Result<_>>()?;
        r.finish()?;
        Ok(KpmIndication { cell, window_start, window_end, records, entries })
    }
}

/// The one encoder, sized exactly up front so it allocates once.
fn encode_parts(
    cell: CellId,
    window_start: Timestamp,
    window_end: Timestamp,
    records: &[UeMobiFlow],
    entries: &[(String, String)],
) -> Vec<u8> {
    let block_len = records.len() * RECORD_LEN;
    let entries_len: usize = entries.iter().map(|(k, v)| 4 + k.len() + v.len()).sum();
    let mut buf = Vec::with_capacity(HEADER_LEN + block_len + 4 + entries_len);
    buf.put_u32(cell.0);
    buf.put_u64(window_start.as_micros());
    buf.put_u64(window_end.as_micros());
    buf.put_len::<4>(records.len()).expect("a report window holds under 2^32 records");
    buf.resize(HEADER_LEN + block_len, 0);
    for (record, chunk) in records.iter().zip(buf[HEADER_LEN..].chunks_exact_mut(RECORD_LEN)) {
        put_record(record, chunk.try_into().expect("chunks_exact_mut yields RECORD_LEN"));
    }
    buf.put_len::<4>(entries.len()).expect("an indication holds under 2^32 entries");
    for (k, v) in entries {
        put_str(&mut buf, k);
        put_str(&mut buf, v);
    }
    buf
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_prefixed::<2>(s.as_bytes()).expect("KPM entry strings are under 64 KiB");
}

fn get_str(r: &mut Reader<'_>) -> Result<String> {
    String::from_utf8(r.prefixed::<2>()?.to_vec())
        .map_err(|e| XsecError::Codec(format!("bad utf8: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xsec_proto::{Direction, MessageKind};
    use xsec_types::{Plmn, ReleaseCause, Rnti, Supi, Tmsi};

    fn record(id: u64) -> UeMobiFlow {
        UeMobiFlow {
            msg_id: id,
            timestamp: Timestamp(id * 100),
            cell: CellId(1),
            rnti: Rnti(0x4601),
            du_ue_id: 1,
            direction: Direction::Uplink,
            msg: MessageKind::RrcSetupRequest,
            tmsi: None,
            supi: None,
            cipher_alg: None,
            integrity_alg: None,
            establishment_cause: None,
            release_cause: None,
        }
    }

    /// A payload exercising every part of the layout: records with and
    /// without optionals, plus generic entries.
    fn full_payload() -> Vec<u8> {
        let mut records: Vec<_> = (0..3).map(record).collect();
        records[1].tmsi = Some(Tmsi(0xAABB_CCDD));
        records[1].supi = Some(Supi::new(Plmn::TEST, 99));
        records[2].msg = MessageKind::RrcRelease;
        records[2].release_cause = Some(ReleaseCause::Congestion);
        let mut ind = KpmIndication::from_records(CellId(1), Timestamp(0), Timestamp(1), &records);
        ind.entries.push(("kpm/prb_util".into(), "0.7".into()));
        ind.encode()
    }

    /// `decode` either errors or yields a value that re-encodes to exactly
    /// the bytes it was given.
    fn assert_canonical_or_err(bytes: &[u8]) {
        if let Ok(ind) = KpmIndication::decode(bytes) {
            assert_eq!(ind.encode(), bytes, "decoded a non-canonical payload");
        }
    }

    #[test]
    fn records_round_trip_through_indication() {
        let records: Vec<_> = (0..5).map(record).collect();
        let ind = KpmIndication::from_records(CellId(1), Timestamp(0), Timestamp(1000), &records);
        let bytes = ind.encode();
        assert_eq!(bytes.len(), HEADER_LEN + 5 * RECORD_LEN + 4);
        let back = KpmIndication::decode(&bytes).unwrap();
        assert_eq!(back, ind);
        assert_eq!(back.mobiflow_records().unwrap(), records);
        assert_eq!(back.into_records(), records);
    }

    #[test]
    fn slice_encoder_matches_the_owned_one() {
        let records: Vec<_> = (0..4).map(record).collect();
        let (cell, start, end) = (CellId(9), Timestamp(5), Timestamp(6));
        assert_eq!(
            KpmIndication::encode_records(cell, start, end, &records),
            KpmIndication::from_records(cell, start, end, &records).encode()
        );
    }

    #[test]
    fn non_mobiflow_entries_are_skipped() {
        let mut ind =
            KpmIndication::from_records(CellId(1), Timestamp(0), Timestamp(1), &[record(1)]);
        ind.entries.push(("kpm/prb_util".into(), "0.7".into()));
        let back = KpmIndication::decode(&ind.encode()).unwrap();
        assert_eq!(back.entries, ind.entries);
        assert_eq!(back.mobiflow_records().unwrap().len(), 1);
    }

    #[test]
    fn malformed_mobiflow_value_errors() {
        let mut bytes =
            KpmIndication::from_records(CellId(1), Timestamp(0), Timestamp(1), &[record(1)])
                .encode();
        // The record's message-kind byte.
        bytes[HEADER_LEN + 27] = 0xEE;
        assert!(matches!(KpmIndication::decode(&bytes), Err(XsecError::Codec(_))));
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = full_payload();
        for cut in 0..bytes.len() {
            assert!(KpmIndication::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn every_single_bit_flip_decodes_canonically_or_errors() {
        let good = full_payload();
        for bit in 0..good.len() * 8 {
            let mut flipped = good.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_canonical_or_err(&flipped);
        }
    }

    #[test]
    fn hostile_counts_error_before_allocating() {
        // 30 bytes claiming u32::MAX records: were the count trusted, the
        // `Vec::with_capacity` behind it would abort the process.
        let mut bytes = vec![0u8; 30];
        bytes[20..24].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(KpmIndication::decode(&bytes).is_err());
        // Same for the entry count behind an empty record block.
        let mut bytes = vec![0u8; 30];
        bytes[24..28].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(KpmIndication::decode(&bytes).is_err());
    }

    proptest! {
        #[test]
        fn prop_entries_round_trip(
            entries in proptest::collection::vec(("[a-z/0-9]{0,20}", "[ -~]{0,40}"), 0..16)
        ) {
            let ind = KpmIndication {
                cell: CellId(3),
                window_start: Timestamp(1),
                window_end: Timestamp(2),
                records: vec![record(7)],
                entries,
            };
            prop_assert_eq!(KpmIndication::decode(&ind.encode()).unwrap(), ind);
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            assert_canonical_or_err(&bytes);
        }

        /// Arbitrary bytes behind a plausible header, so the fuzz reaches
        /// the record and entry decoders instead of dying on the count.
        #[test]
        fn prop_fuzzed_bodies_decode_canonically_or_error(
            n_records in 0u32..3,
            body in proptest::collection::vec(any::<u8>(), 0..160),
        ) {
            let mut bytes = vec![0u8; 20];
            bytes.extend_from_slice(&n_records.to_be_bytes());
            bytes.extend_from_slice(&body);
            assert_canonical_or_err(&bytes);
        }
    }
}
