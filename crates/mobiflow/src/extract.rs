//! Telemetry extraction — the RIC agent's job.
//!
//! Two paths produce the same [`TelemetryStream`]:
//!
//! * [`extract_from_events`] reads the simulator's structured [`RanEvent`]s
//!   (fast path; also carries ground-truth labels for evaluation);
//! * [`extract_from_trace`] parses the raw F1AP/NGAP byte capture and
//!   *reconstructs* the per-connection state (security algorithms, TMSI,
//!   establishment cause) by replaying the messages — exactly what the
//!   paper's pipeline does to pcap streams. It carries no labels.
//!
//! The two paths agreeing on a full simulation run is one of the pipeline's
//! integration tests.

use crate::record::UeMobiFlow;
use std::collections::HashMap;
use xsec_netsim::TraceLog;
use xsec_proto::{Direction, F1apPdu, L3Message, NasMessage, NgapPdu, RrcMessage};
use xsec_ran::RanEvent;
use xsec_types::{
    CellId, CipherAlg, EstablishmentCause, IntegrityAlg, Result, Rnti, Tmsi,
    TrafficClass,
};

/// A labeled telemetry stream: `records[i]` has ground truth `labels[i]`.
#[derive(Debug, Clone, Default)]
pub struct TelemetryStream {
    /// The per-message records, in observation order.
    pub records: Vec<UeMobiFlow>,
    /// Ground-truth labels, parallel to `records`. All-benign when the
    /// stream was reconstructed from a raw capture.
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

/// Replay state per connection, reconstructed from the capture.
#[derive(Debug, Clone, Copy)]
struct ConnState {
    rnti: Rnti,
    cipher: Option<CipherAlg>,
    integrity: Option<IntegrityAlg>,
    cause: Option<EstablishmentCause>,
    tmsi: Option<Tmsi>,
}

impl Default for ConnState {
    fn default() -> Self {
        ConnState { rnti: Rnti(0), cipher: None, integrity: None, cause: None, tmsi: None }
    }
}

/// Builds the telemetry stream by parsing and replaying a raw capture.
///
/// # Errors
/// Fails on undecodable PDUs — a corrupt capture should be loud, not
/// silently half-parsed.
pub fn extract_from_trace(trace: &TraceLog) -> Result<TelemetryStream> {
    let mut stream = TelemetryStream::default();
    let mut conns: HashMap<u32, ConnState> = HashMap::new();

    for (i, rec) in trace.records().iter().enumerate() {
        let (conn, cell, msg, direction) = match rec.interface {
            "F1AP" => {
                let pdu = F1apPdu::decode(&rec.payload)?;
                let msg = pdu.unwrap_l3()?;
                let state = conns.entry(pdu.du_ue_id).or_default();
                state.rnti = pdu.rnti;
                (pdu.du_ue_id, pdu.cell, msg, direction_of(pdu.uplink))
            }
            "NGAP" => {
                let pdu = NgapPdu::decode(&rec.payload)?;
                let msg = pdu.unwrap_l3()?;
                (pdu.ran_ue_id as u32, CellId(1), msg, direction_of(pdu.uplink))
            }
            other => {
                return Err(xsec_types::XsecError::Codec(format!(
                    "unknown capture interface {other:?}"
                )))
            }
        };

        // Replay the message into the connection state *before* snapshotting
        // for fields set by this very message (cause), matching the
        // event-stream semantics where the snapshot is taken at the CU after
        // context creation/update.
        let state = conns.entry(conn).or_default();
        match &msg {
            L3Message::Rrc(RrcMessage::SetupRequest { cause, .. }) => {
                // A fresh connection starts clean.
                *state = ConnState { rnti: state.rnti, cause: Some(*cause), ..Default::default() };
            }
            L3Message::Nas(NasMessage::SecurityModeCommand { cipher, integrity, .. }) => {
                state.cipher = Some(*cipher);
                state.integrity = Some(*integrity);
            }
            L3Message::Nas(NasMessage::RegistrationAccept { new_tmsi }) => {
                state.tmsi = Some(*new_tmsi);
            }
            L3Message::Nas(NasMessage::ServiceRequest { tmsi }) => {
                state.tmsi = Some(*tmsi);
            }
            L3Message::Nas(NasMessage::RegistrationRequest {
                identity: xsec_proto::MobileIdentity::FiveGSTmsi(tmsi),
                ..
            }) => {
                state.tmsi = Some(*tmsi);
            }
            _ => {}
        }

        let supi = match &msg {
            L3Message::Nas(nas) => nas.disclosed_identity().and_then(|id| match id {
                xsec_proto::MobileIdentity::PlainSupi(supi) => Some(*supi),
                _ => None,
            }),
            _ => None,
        };

        stream.records.push(UeMobiFlow {
            msg_id: i as u64,
            timestamp: rec.at,
            cell,
            rnti: state.rnti,
            du_ue_id: conn,
            direction,
            msg: msg.kind(),
            tmsi: state.tmsi,
            supi,
            cipher_alg: state.cipher,
            integrity_alg: state.integrity,
            establishment_cause: state.cause,
            release_cause: match &msg {
                L3Message::Rrc(RrcMessage::Release { cause }) => Some(*cause),
                _ => None,
            },
        });
        stream.labels.push(TrafficClass::Benign); // captures carry no truth
    }
    Ok(stream)
}

fn direction_of(uplink: bool) -> Direction {
    if uplink {
        Direction::Uplink
    } else {
        Direction::Downlink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_ran::scenario::{Scenario, ScenarioConfig};
    use xsec_ran::sim::SimConfig;

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
    fn trace_extraction_matches_event_extraction() {
        let report = run_small(2);
        let from_events = extract_from_events(&report.events);
        let from_trace = extract_from_trace(&report.trace).unwrap();
        assert_eq!(from_events.len(), from_trace.len());
        for (a, b) in from_events.records.iter().zip(&from_trace.records) {
            assert_eq!(a.msg, b.msg, "message kinds diverge at msg_id {}", a.msg_id);
            assert_eq!(a.timestamp, b.timestamp);
            assert_eq!(a.rnti, b.rnti, "rnti diverges at {}: {a:?} vs {b:?}", a.msg_id);
            assert_eq!(a.direction, b.direction);
            assert_eq!(a.cipher_alg, b.cipher_alg, "cipher diverges at {}", a.msg_id);
            assert_eq!(a.integrity_alg, b.integrity_alg);
            assert_eq!(a.supi, b.supi);
        }
    }

    #[test]
    fn trace_extraction_rejects_corrupt_capture() {
        let report = run_small(3);
        let mut trace = xsec_netsim::TraceLog::new();
        let mut rec = report.trace.records()[0].clone();
        rec.payload.truncate(3);
        trace.push(rec);
        assert!(extract_from_trace(&trace).is_err());
    }

    #[test]
    fn empty_streams_are_handled() {
        let empty = extract_from_events(&[]);
        assert!(empty.is_empty());
    }
}
