//! The extended E2SM-KPM service model carrying security telemetry.
//!
//! The paper extends the O-RAN KPM (key performance measurement) service
//! model so the RIC agent can "report security telemetry via the E2 report
//! operation per time interval, where the telemetry can be encoded as
//! (key, value) data" (§3.1). [`KpmIndication`] is that container: a report
//! window and the window's MobiFlow records as one block of fixed-layout
//! binary records ([`xsec_mobiflow::wire`]), each record's fields keyed by
//! their position.
//!
//! ```text
//! cell u32 | window_start u64 | window_end u64 | n_records u32
//!   | n_records x 48-byte record
//! ```

use xsec_mobiflow::wire::{get_record, put_record, RECORD_LEN};
use xsec_mobiflow::UeMobiFlow;
use xsec_types::{CellId, Put, Reader, Result, Timestamp};

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
}

impl KpmIndication {
    /// Builds an indication carrying MobiFlow records.
    pub fn from_records(
        cell: CellId,
        window_start: Timestamp,
        window_end: Timestamp,
        records: &[UeMobiFlow],
    ) -> Self {
        KpmIndication { cell, window_start, window_end, records: records.to_vec() }
    }

    /// The MobiFlow records carried by this indication, in log order.
    /// Decoding already validated every record, so this cannot fail; the
    /// `Result` is the signature existing callers compile against.
    pub fn mobiflow_records(&self) -> Result<Vec<UeMobiFlow>> {
        Ok(self.records.clone())
    }

    /// Encodes the payload.
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_records(self.cell, self.window_start, self.window_end, &self.records)
    }

    /// Encodes a payload straight from a slice — the agent's path, which
    /// never builds a `KpmIndication`. Sized exactly up front, so it
    /// allocates once.
    pub fn encode_records(
        cell: CellId,
        window_start: Timestamp,
        window_end: Timestamp,
        records: &[UeMobiFlow],
    ) -> Vec<u8> {
        let block_len = records.len() * RECORD_LEN;
        let mut buf = Vec::with_capacity(HEADER_LEN + block_len);
        buf.put_u32(cell.0);
        buf.put_u64(window_start.as_micros());
        buf.put_u64(window_end.as_micros());
        buf.put_len::<4>(records.len()).expect("a report window holds under 2^32 records");
        buf.resize(HEADER_LEN + block_len, 0);
        for (record, chunk) in records.iter().zip(buf[HEADER_LEN..].chunks_exact_mut(RECORD_LEN)) {
            put_record(record, chunk.try_into().expect("chunks_exact_mut yields RECORD_LEN"));
        }
        buf
    }

    /// Decodes a payload.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut records = Vec::new();
        let window = Self::decode_into(bytes, &mut records)?;
        Ok(KpmIndication { records, ..window })
    }

    /// Decodes a payload, appending its records to `records` — the RIC's
    /// path, which gathers many indications into one buffer — and returns
    /// the indication with an empty record list. The record block is
    /// borrowed from bytes that are present before anything is sized by its
    /// count. On an error `records` is left as it was.
    pub fn decode_into(bytes: &[u8], records: &mut Vec<UeMobiFlow>) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let cell = CellId(r.u32()?);
        let window_start = Timestamp(r.u64()?);
        let window_end = Timestamp(r.u64()?);
        let block_len = (r.u32()? as usize).saturating_mul(RECORD_LEN);
        let block = r.bytes(block_len)?;
        r.finish()?;
        let base = records.len();
        records.reserve(block_len / RECORD_LEN);
        for chunk in block.chunks_exact(RECORD_LEN) {
            match get_record(chunk.try_into().expect("chunks_exact yields RECORD_LEN")) {
                Ok(record) => records.push(record),
                Err(e) => {
                    records.truncate(base);
                    return Err(e);
                }
            }
        }
        Ok(KpmIndication { cell, window_start, window_end, records: Vec::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xsec_proto::{Direction, MessageKind};
    use xsec_types::{Plmn, ReleaseCause, Rnti, Supi, Tmsi, XsecError};

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
    /// without optionals.
    fn full_payload() -> Vec<u8> {
        let mut records: Vec<_> = (0..3).map(record).collect();
        records[1].tmsi = Some(Tmsi(0xAABB_CCDD));
        records[1].supi = Some(Supi::new(Plmn::TEST, 99));
        records[2].msg = MessageKind::RrcRelease;
        records[2].release_cause = Some(ReleaseCause::Congestion);
        KpmIndication::from_records(CellId(1), Timestamp(0), Timestamp(1), &records).encode()
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
        assert_eq!(bytes.len(), HEADER_LEN + 5 * RECORD_LEN);
        let back = KpmIndication::decode(&bytes).unwrap();
        assert_eq!(back, ind);
        assert_eq!(back.mobiflow_records().unwrap(), records);
    }

    #[test]
    fn decode_into_appends_or_leaves_the_buffer_as_it_was() {
        let first: Vec<_> = (0..2).map(record).collect();
        let second: Vec<_> = (2..5).map(record).collect();
        let encode = |records: &[UeMobiFlow], end| {
            KpmIndication::from_records(CellId(3), Timestamp(0), Timestamp(end), records).encode()
        };
        let mut records = Vec::new();
        let window = KpmIndication::decode_into(&encode(&first, 10), &mut records).unwrap();
        assert_eq!((window.cell, window.window_end), (CellId(3), Timestamp(10)));
        assert!(window.records.is_empty());
        KpmIndication::decode_into(&encode(&second, 20), &mut records).unwrap();
        assert_eq!(records, [first.as_slice(), second.as_slice()].concat());

        // A bad last record, or a trailing byte, appends nothing.
        let mut bad = encode(&second, 30);
        bad[HEADER_LEN + 2 * RECORD_LEN + 27] = 0xEE;
        assert!(KpmIndication::decode_into(&bad, &mut records).is_err());
        let mut long = encode(&second, 30);
        long.push(0);
        assert!(KpmIndication::decode_into(&long, &mut records).is_err());
        assert_eq!(records.len(), 5);
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
    }

    proptest! {
        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            assert_canonical_or_err(&bytes);
        }

        /// Arbitrary bytes behind a plausible header, so the fuzz reaches
        /// the record decoder instead of dying on the count.
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
