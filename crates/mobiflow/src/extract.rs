//! Telemetry extraction — the RIC agent's job.
//!
//! [`extract_from_events`] turns the simulator's structured [`RanEvent`]s
//! into a [`TelemetryStream`]: one record per message, carrying the
//! connection state the CU held when it relayed it (security algorithms,
//! TMSI, establishment cause) and, beside it, the ground-truth label. The
//! event stream is the only tap; it stands in for the paper's CU
//! instrumented with an E2 agent.

use crate::record::UeMobiFlow;
use xsec_proto::{L3Message, RrcMessage};
use xsec_ran::RanEvent;
use xsec_types::TrafficClass;

/// A labeled telemetry stream: `records[i]` has ground truth `labels[i]`.
#[derive(Debug, Clone, Default)]
pub struct TelemetryStream {
    /// The per-message records, in observation order.
    pub records: Vec<UeMobiFlow>,
    /// Ground-truth labels, parallel to `records`.
    pub labels: Vec<TrafficClass>,
}

impl TelemetryStream {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates `(record, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&UeMobiFlow, TrafficClass)> {
        self.records.iter().zip(self.labels.iter().copied())
    }

    /// Count of attack-labeled records.
    pub fn attack_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_attack()).count()
    }
}

/// Builds the telemetry stream from structured simulator events.
pub fn extract_from_events(events: &[RanEvent]) -> TelemetryStream {
    extract_from_events_at(events, 0)
}

/// [`extract_from_events`] for an event *chunk*: record ids continue from
/// `first_msg_id` so a streaming driver extracting batch by batch produces
/// the same globally monotone `msg_id` sequence a one-shot extraction would.
pub fn extract_from_events_at(events: &[RanEvent], first_msg_id: u64) -> TelemetryStream {
    let mut stream = TelemetryStream::default();
    for (i, ev) in events.iter().enumerate() {
        stream.records.push(UeMobiFlow {
            msg_id: first_msg_id + i as u64,
            timestamp: ev.at,
            cell: ev.cell,
            rnti: ev.rnti,
            du_ue_id: ev.du_ue_id,
            direction: ev.direction,
            msg: ev.msg.kind(),
            tmsi: ev.tmsi,
            supi: ev.supi_exposed,
            cipher_alg: ev.cipher,
            integrity_alg: ev.integrity,
            establishment_cause: ev.establishment_cause,
            release_cause: match &ev.msg {
                L3Message::Rrc(RrcMessage::Release { cause }) => Some(*cause),
                _ => None,
            },
        });
        stream.labels.push(ev.label);
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use xsec_proto::NasMessage;
    use xsec_ran::scenario::{Scenario, ScenarioConfig};
    use xsec_ran::sim::SimConfig;
    use xsec_types::{CipherAlg, IntegrityAlg};

    fn run_small(seed: u64) -> xsec_ran::sim::SimReport {
        let config = ScenarioConfig {
            sim: SimConfig {
                seed,
                channel: xsec_netsim::ChannelConfig::ideal(),
                horizon: xsec_types::Duration::from_secs(60),
                ..SimConfig::default()
            },
            benign_sessions: 12,
            ..ScenarioConfig::default()
        };
        Scenario::new(config).build().run()
    }

    #[test]
    fn event_extraction_preserves_counts_and_order() {
        let report = run_small(1);
        let stream = extract_from_events(&report.events);
        assert_eq!(stream.len(), report.events.len());
        assert!(stream.records.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        assert!(stream.records.iter().enumerate().all(|(i, r)| r.msg_id == i as u64));
        assert_eq!(stream.attack_count(), 0);
    }

    #[test]
    fn event_records_carry_the_last_commanded_algorithms() {
        // Replays each connection's messages: an RRC Setup Request starts it
        // with no algorithms, a NAS Security Mode Command sets them. Every
        // record must carry the pair its connection's messages imply.
        let report = run_small(2);
        let stream = extract_from_events(&report.events);
        let mut replayed: HashMap<u32, (Option<CipherAlg>, Option<IntegrityAlg>)> =
            HashMap::new();
        let mut commanded = 0;
        for (ev, rec) in report.events.iter().zip(&stream.records) {
            let pair = replayed.entry(ev.du_ue_id).or_default();
            match &ev.msg {
                L3Message::Rrc(RrcMessage::SetupRequest { .. }) => *pair = (None, None),
                L3Message::Nas(NasMessage::SecurityModeCommand { cipher, integrity, .. }) => {
                    *pair = (Some(*cipher), Some(*integrity));
                    commanded += 1;
                }
                _ => {}
            }
            assert_eq!(
                (rec.cipher_alg, rec.integrity_alg),
                *pair,
                "msg_id {} ({}) on connection {}",
                rec.msg_id,
                rec.msg,
                rec.du_ue_id
            );
        }
        assert!(commanded > 0, "the run must negotiate security at least once");
    }

    #[test]
    fn empty_streams_are_handled() {
        let empty = extract_from_events(&[]);
        assert!(empty.is_empty());
    }
}
