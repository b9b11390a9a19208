//! The two binary frames of the incident hop on the xApp bus: the
//! [`AnomalyAlert`] MobiWatch publishes on `anomalies`, and the
//! [`FindingNotice`] the analyzer publishes on `findings`.
//!
//! Both are built on [`xsec_types::Put`] and read through
//! [`xsec_types::Reader`], big-endian, behind a one-byte frame tag, and both
//! are canonical: whatever decodes re-encodes to the same bytes. The alert
//! carries its evidence as the semicolon lines the prompt quotes; the notice
//! carries the records the analyzer decoded from them, as 48-byte
//! [`xsec_mobiflow::wire`] records, so the mitigator parses no text. Attack
//! titles are the model's own words, of any length, so they go behind `u32`
//! lengths; evidence lines are under 200 bytes, behind `u16` ones.
//!
//! ```text
//! alert                                 notice
//!  0  1 tag = 0x01                       0  1 tag = 0x02
//!  1  8 trace                            1  8 trace
//!  9  8 at_record                        9  8 at_record
//! 17  8 at_time (µs)                    17  8 at_time (µs)
//! 25  4 score (f32 bits)                25  4 score (f32 bits)
//! 29  4 threshold (f32 bits)            29  4 threshold (f32 bits)
//! 33  2 line count                      33  3 anomalous, confirmed, needs_human (0|1)
//! 35    per line: u16 length, UTF-8     36  4 attack count
//!                                       40    per title: u32 length, UTF-8
//!                                        …  2 record count, then 48 bytes each
//! ```

use crate::mitigator::FindingNotice;
use crate::mobiwatch::AnomalyAlert;
use xsec_mobiflow::wire::{get_record, put_record, RECORD_LEN};
use xsec_types::{Put, Reader, Result, Timestamp, XsecError};

const ALERT_TAG: u8 = 0x01;
const NOTICE_TAG: u8 = 0x02;

/// Bytes [`put_head`] writes: the tag and the five shared fields.
const HEAD_LEN: usize = 33;

/// The fields every incident-hop frame opens with, after its tag.
struct Head {
    trace: u64,
    at_record: u64,
    at_time: Timestamp,
    score: f32,
    threshold: f32,
}

fn put_head(buf: &mut Vec<u8>, tag: u8, head: Head) {
    buf.put_u8(tag);
    buf.put_u64(head.trace);
    buf.put_u64(head.at_record);
    buf.put_u64(head.at_time.as_micros());
    buf.put_u32(head.score.to_bits());
    buf.put_u32(head.threshold.to_bits());
}

fn get_head(r: &mut Reader<'_>, tag: u8) -> Result<Head> {
    let got = r.u8()?;
    if got != tag {
        return Err(XsecError::Codec(format!("frame tag {got:#04x}, expected {tag:#04x}")));
    }
    Ok(Head {
        trace: r.u64()?,
        at_record: r.u64()?,
        at_time: Timestamp(r.u64()?),
        score: f32::from_bits(r.u32()?),
        threshold: f32::from_bits(r.u32()?),
    })
}

/// Bytes [`put_strings`] writes for `strings` at width `N`.
fn strings_len<const N: usize>(strings: &[String]) -> usize {
    N + strings.iter().map(|s| N + s.len()).sum::<usize>()
}

/// An `N`-byte count, then each string behind its `N`-byte length.
fn put_strings<const N: usize>(buf: &mut Vec<u8>, strings: &[String]) {
    buf.put_len::<N>(strings.len()).expect("the count fits its field");
    for s in strings {
        buf.put_prefixed::<N>(s.as_bytes()).expect("every length fits its field");
    }
}

/// Reads what [`put_strings`] wrote. The lengths are walked first, so the
/// vector is sized by strings that are present, never by the count alone.
fn get_strings<const N: usize>(r: &mut Reader<'_>) -> Result<Vec<String>> {
    let count = r.count::<N>()?;
    let mut ahead = r.clone();
    for _ in 0..count {
        ahead.prefixed::<N>()?;
    }
    // Every string walked took at least its length bytes, so `count` is
    // under the input's length here.
    let mut strings = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let text = std::str::from_utf8(r.prefixed::<N>()?)
            .map_err(|_| XsecError::Codec("a string in the frame is not UTF-8".into()))?;
        strings.push(text.to_owned());
    }
    Ok(strings)
}

impl AnomalyAlert {
    /// The alert as it travels on the `anomalies` topic. Allocates once.
    ///
    /// # Panics
    /// If it holds 65 536 lines or more, or a line of 64 KiB or more (a
    /// MobiFlow line is under 200 bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEAD_LEN + strings_len::<2>(&self.records));
        put_head(
            &mut buf,
            ALERT_TAG,
            Head {
                trace: self.trace,
                at_record: self.at_record,
                at_time: self.at_time,
                score: self.score,
                threshold: self.threshold,
            },
        );
        put_strings::<2>(&mut buf, &self.records);
        buf
    }

    /// Reads an alert frame. Total: any bytes decode or return
    /// [`XsecError::Codec`].
    pub fn decode(frame: &[u8]) -> Result<Self> {
        let mut r = Reader::new(frame);
        let Head { trace, at_record, at_time, score, threshold } = get_head(&mut r, ALERT_TAG)?;
        let records = get_strings::<2>(&mut r)?;
        r.finish()?;
        Ok(AnomalyAlert { trace, at_record, at_time, score, threshold, records })
    }
}

impl FindingNotice {
    /// The notice as it travels on the `findings` topic. Allocates once.
    ///
    /// # Panics
    /// If it holds 65 536 records or more (the analyzer's notice holds at
    /// most its alert's lines, which are fewer), or a title of 4 GiB.
    pub fn encode(&self) -> Vec<u8> {
        let records_at = HEAD_LEN + 3 + strings_len::<4>(&self.attacks) + 2;
        let mut buf = Vec::with_capacity(records_at + self.records.len() * RECORD_LEN);
        put_head(
            &mut buf,
            NOTICE_TAG,
            Head {
                trace: self.trace,
                at_record: self.at_record,
                at_time: self.at_time,
                score: self.score,
                threshold: self.threshold,
            },
        );
        for flag in [self.anomalous, self.confirmed, self.needs_human] {
            buf.put_u8(u8::from(flag));
        }
        put_strings::<4>(&mut buf, &self.attacks);
        buf.put_len::<2>(self.records.len()).expect("under 65 536 records in a notice");
        buf.resize(records_at + self.records.len() * RECORD_LEN, 0);
        let block = buf[records_at..].chunks_exact_mut(RECORD_LEN);
        for (record, chunk) in self.records.iter().zip(block) {
            put_record(record, chunk.try_into().expect("chunks_exact_mut yields RECORD_LEN"));
        }
        buf
    }

    /// Reads a notice frame. Total: any bytes decode or return
    /// [`XsecError::Codec`]; a record that [`get_record`] refuses fails the
    /// whole notice.
    pub fn decode(frame: &[u8]) -> Result<Self> {
        let mut r = Reader::new(frame);
        let Head { trace, at_record, at_time, score, threshold } = get_head(&mut r, NOTICE_TAG)?;
        let (anomalous, confirmed, needs_human) = (r.flag()?, r.flag()?, r.flag()?);
        let attacks = get_strings::<4>(&mut r)?;
        let count = usize::from(r.u16()?);
        let block = r.bytes(count * RECORD_LEN)?;
        let mut records = Vec::with_capacity(count);
        for chunk in block.chunks_exact(RECORD_LEN) {
            records.push(get_record(chunk.try_into().expect("chunks_exact yields RECORD_LEN"))?);
        }
        r.finish()?;
        Ok(FindingNotice {
            trace,
            at_record,
            at_time,
            score,
            threshold,
            anomalous,
            confirmed,
            needs_human,
            attacks,
            records,
        })
    }
}
