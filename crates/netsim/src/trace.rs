//! Trace capture — the simulator's pcap analogue.
//!
//! Every interface tap in the simulated RAN appends [`TraceRecord`]s here.
//! The MobiFlow extractor consumes the log the same way the paper's pipeline
//! parses pcap streams captured on the F1AP/NGAP interfaces. Records carry an
//! interface tag, direction, a human-readable summary, and the raw encoded
//! payload so downstream consumers can re-decode messages independently.

use xsec_types::Timestamp;

/// One captured record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Capture time (virtual).
    pub at: Timestamp,
    /// Interface tag, e.g. `"F1AP"`, `"NGAP"`, `"Uu"`.
    pub interface: &'static str,
    /// `true` for uplink (UE → network) records.
    pub uplink: bool,
    /// Short human-readable summary, e.g. `"RRCSetupRequest rnti=0x005F"`.
    pub summary: String,
    /// Raw encoded bytes of the captured message.
    pub payload: Vec<u8>,
}

/// Append-only capture log.
#[derive(Debug, Default)]
pub struct TraceLog {
    records: Vec<TraceRecord>,
}

impl TraceLog {
    /// Creates an unbounded log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// All captured records in capture order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of captured records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(at: u64, interface: &'static str, summary: &str) -> TraceRecord {
        TraceRecord {
            at: Timestamp(at),
            interface,
            uplink: true,
            summary: summary.to_string(),
            payload: vec![1, 2, 3],
        }
    }

    #[test]
    fn append_preserves_order() {
        let mut log = TraceLog::new();
        log.push(record(1, "F1AP", "a"));
        log.push(record(2, "NGAP", "b"));
        assert_eq!(log.len(), 2);
        assert_eq!(log.records()[0].summary, "a");
        assert_eq!(log.records()[1].summary, "b");
    }

    #[test]
    fn empty_log_reports_empty() {
        let log = TraceLog::new();
        assert!(log.is_empty());
        assert!(log.records().is_empty());
    }
}
