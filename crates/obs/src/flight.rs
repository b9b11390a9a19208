//! The flight recorder: causal trace contexts plus a bounded incident store
//! that turns a detection into a replayable incident file.
//!
//! A **trace id is an incident id**: when the detector publishes an alert it
//! opens the next incident ([`FlightRecorder::begin_trace`]), numbered 1, 2,
//! … in publication order — no wall clock, no randomness — so two replays
//! of the same seeded scenario number their incidents identically. The id
//! rides the alert through analyzer verdict → policy decision → Control
//! Request (as an optional TLV) → gNB enforcement → ack, and each stage
//! drops a fixed-size [`FlightEvent`] into its incident. Nothing is recorded
//! per record.
//!
//! The recorder is one store: the incidents and the authorization denials.
//! The detector records the alerted record's own ingest, inference and
//! alert events from the record and verdict it holds; later stages extend
//! the incident via [`FlightRecorder::record_stage`], which finds incident
//! `t` at index `t - 1`. At most 64 incidents are kept; later ones still get
//! an id and count as dropped, and an event whose incident is not kept is
//! dropped. Incidents export as a JSONL decision trace
//! ([`FlightRecorder::incidents_jsonl`]) and a Chrome/Perfetto `trace.json`
//! ([`FlightRecorder::perfetto_json`]); both order-normalize events by
//! `(trace, time, stage)` so the export is invariant to the order the
//! stages recorded them in.
//!
//! Span identity is positional, not allocated: a span is `(trace id,
//! stage)`, with the parent edge implied by the fixed stage order, so no
//! stage mints ids and a replay's incident trace is byte-identical to the
//! run's.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Maximum incidents retained per run; later detections count as dropped.
const MAX_INCIDENTS: usize = 64;

/// Maximum authorization denials retained per run; later ones only count.
const MAX_DENIALS: usize = 256;

/// One stage of the detection→enforcement causal chain. The numeric order
/// *is* the causal order: each stage's parent span is the previous stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceStage {
    /// The record that fired, as the E2 agent admitted it (`a` = DU UE id,
    /// `b` = msg id); recorded when its alert opens the incident.
    Ingest = 0,
    /// Model scored the record (`a` = score bits, `b` = threshold bits).
    Inference = 1,
    /// Detection fired (`a` = score bits, `b` = threshold bits).
    Alert = 2,
    /// Analyzer verdict (`a` = confirmed, `b` = needs human review).
    Verdict = 3,
    /// Policy decision (`a` = confidence bits, `b` = actions issued).
    Policy = 4,
    /// Control Request shipped (`a` = action id, `b` = payload length).
    ControlShip = 5,
    /// gNB enforced the action (`a` = action id, `b` = action kind).
    Enforce = 6,
    /// Ack correlated at the RIC (`a` = success, `b` = detection→ack µs).
    Ack = 7,
}

impl TraceStage {
    /// Every stage, in causal order.
    pub const ALL: [TraceStage; 8] = [
        TraceStage::Ingest,
        TraceStage::Inference,
        TraceStage::Alert,
        TraceStage::Verdict,
        TraceStage::Policy,
        TraceStage::ControlShip,
        TraceStage::Enforce,
        TraceStage::Ack,
    ];

    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            TraceStage::Ingest => "ingest",
            TraceStage::Inference => "inference",
            TraceStage::Alert => "alert",
            TraceStage::Verdict => "verdict",
            TraceStage::Policy => "policy",
            TraceStage::ControlShip => "control_ship",
            TraceStage::Enforce => "enforce",
            TraceStage::Ack => "ack",
        }
    }
}

/// Where a stage's span sits in its trace's chain. Span ids are positional
/// (`stage + 1`, parent is the previous stage's span, 0 at the root), so
/// they derive from the stage alone, without id allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TraceCtx {
    /// This stage's span id within the trace.
    span: u32,
    /// Parent span id (0 for the root ingest span).
    parent: u32,
}

impl TraceCtx {
    /// The span of `stage`.
    fn at(stage: TraceStage) -> TraceCtx {
        TraceCtx { span: stage as u32 + 1, parent: stage as u32 }
    }
}

/// One fixed-size flight-recorder event. `a`/`b` are stage-specific
/// payloads (see [`TraceStage`]); f32 scores travel as `to_bits()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Owning trace id, which is its incident's id (0 = untraced; such
    /// events are never recorded).
    pub trace: u64,
    /// The causal stage.
    pub stage: TraceStage,
    /// Virtual timestamp in microseconds (sim time, never wall clock, so
    /// replays produce identical exports).
    pub at_us: u64,
    /// First stage-specific payload word.
    pub a: u64,
    /// Second stage-specific payload word.
    pub b: u64,
}

impl FlightEvent {
    /// Order-normalization key: time, then causal stage, then payload.
    fn sort_key(&self) -> (u64, u8, u64, u64) {
        (self.at_us, self.stage as u8, self.a, self.b)
    }
}

/// What the frozen `benchmark/` probe records through: a handle whose
/// [`FlightRing::record`] is [`FlightRecorder::record_stage`]. The recorder
/// keeps no ring; kept, like `RicPlatform::harden`, until a benchmark-only
/// PR stops naming it. Product code calls `record_stage`.
#[derive(Debug, Clone)]
pub struct FlightRing {
    recorder: FlightRecorder,
}

impl FlightRing {
    /// [`FlightRecorder::record_stage`].
    pub fn record(&self, event: FlightEvent) {
        self.recorder.record_stage(event);
    }
}

/// One detection's causal slice: every flight event recorded for its trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// The incident's id, which is its trace id.
    pub trace: u64,
    /// Events for this trace, order-normalized at export time.
    pub events: Vec<FlightEvent>,
}

/// The first [`MAX_INCIDENTS`] incidents, incident `t` at index `t - 1`,
/// and a count of those opened after it filled.
#[derive(Debug, Default)]
struct IncidentStore {
    incidents: Vec<Incident>,
    dropped: u64,
}

/// One recorded authorization denial. Denials are not part of any causal
/// trace (the denied action never happened, so no trace id was allocated
/// for it — which is also what keeps granted-path exports byte-identical
/// whether enforcement is on or off); they carry their own sequence number
/// instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenialRecord {
    /// Per-recorder denial sequence number, starting at 1.
    pub seq: u64,
    /// The denied principal.
    pub xapp: String,
    /// The missing capability label (`class:target`).
    pub capability: String,
}

#[derive(Debug, Default)]
struct DenialStore {
    records: Vec<DenialRecord>,
    next_seq: u64,
    dropped: u64,
}

#[derive(Debug, Default)]
struct RecorderInner {
    incidents: Mutex<IncidentStore>,
    denials: Mutex<DenialStore>,
}

/// The flight recorder: the incident store, which numbers incidents, and
/// the denial store. Cloning shares the recorder; [`Default`] builds a
/// fresh one. The recorder is always on.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Arc<RecorderInner>,
}

impl FlightRecorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// A [`FlightRing`] over this recorder: the benchmark's name for
    /// [`Self::record_stage`].
    pub fn ring(&self) -> FlightRing {
        FlightRing { recorder: self.clone() }
    }

    /// Opens the next incident, empty, and returns its id — the trace id
    /// its events carry: 1, 2, … in the order incidents open. Its events
    /// arrive through [`Self::record_stage`]. At most [`MAX_INCIDENTS`] are
    /// kept; a later one still gets its id and counts as dropped.
    ///
    /// `msg_id` is not read (the frozen benchmark probe passes it). Called
    /// by the detector, once per published alert, so the order — and
    /// therefore every replayed id — is deterministic.
    pub fn begin_trace(&self, _msg_id: u64) -> u64 {
        let mut store = self.inner.incidents.lock().expect("incident store poisoned");
        let trace = store.incidents.len() as u64 + store.dropped + 1;
        if store.incidents.len() < MAX_INCIDENTS {
            store.incidents.push(Incident { trace, events: Vec::new() });
        } else {
            store.dropped += 1;
        }
        trace
    }

    /// Appends a stage event to its incident, if that incident is kept;
    /// otherwise (untraced, never opened, or dropped) the event is dropped,
    /// past the store's bound without taking its lock.
    pub fn record_stage(&self, event: FlightEvent) {
        let index = event.trace.checked_sub(1).and_then(|i| usize::try_from(i).ok());
        let Some(index) = index.filter(|&i| i < MAX_INCIDENTS) else {
            return;
        };
        let mut store = self.inner.incidents.lock().expect("incident store poisoned");
        if let Some(incident) = store.incidents.get_mut(index) {
            incident.events.push(event);
        }
    }

    /// Records one authorization denial (rogue publish, ungranted control
    /// kind, forged A1 envelope, …) so it shows up in `incidents.jsonl`
    /// alongside the causal traces. Bounded at [`MAX_DENIALS`]; overflow
    /// bumps the sequence counter but keeps no record.
    pub fn record_denial(&self, xapp: &str, capability: &str) {
        let mut store = self.inner.denials.lock().expect("denial store poisoned");
        store.next_seq += 1;
        if store.records.len() >= MAX_DENIALS {
            store.dropped += 1;
            return;
        }
        let seq = store.next_seq;
        store.records.push(DenialRecord {
            seq,
            xapp: xapp.to_string(),
            capability: capability.to_string(),
        });
    }

    /// Every retained denial, in record order.
    pub fn denials(&self) -> Vec<DenialRecord> {
        self.inner.denials.lock().expect("denial store poisoned").records.clone()
    }

    /// Every retained incident in trace order, events order-normalized and
    /// deduplicated.
    pub fn incidents(&self) -> Vec<Incident> {
        let store = self.inner.incidents.lock().expect("incident store poisoned");
        let mut out = store.incidents.clone();
        for incident in &mut out {
            incident.events.sort_by_key(FlightEvent::sort_key);
            incident.events.dedup();
        }
        out
    }

    /// Incidents opened after the store filled up: numbered, not kept.
    pub fn dropped_incidents(&self) -> u64 {
        self.inner.incidents.lock().expect("incident store poisoned").dropped
    }

    /// Renders every incident as a JSONL decision trace: one JSON object
    /// per event with stage-specific field names, grouped by trace in
    /// trace order, followed by one `authz_deny` line per recorded
    /// denial (trace 0 — the denied action never entered the causal
    /// chain). A run without denials renders exactly as it did before
    /// authorization existed. Stable across replays and agent counts.
    pub fn incidents_jsonl(&self) -> String {
        let mut out = String::new();
        for incident in self.incidents() {
            for event in &incident.events {
                out.push_str(&event_jsonl(event));
                out.push('\n');
            }
        }
        for denial in self.denials() {
            out.push_str(&format!(
                "{{\"trace\":0,\"stage\":\"authz_deny\",\"seq\":{},\"xapp\":\"{}\",\
                 \"capability\":\"{}\"}}\n",
                denial.seq,
                crate::export::escape_json(&denial.xapp),
                crate::export::escape_json(&denial.capability),
            ));
        }
        out
    }

    /// Renders every incident as a Chrome/Perfetto trace-event JSON file
    /// (open in <https://ui.perfetto.dev> or `chrome://tracing`). Each
    /// trace id becomes one "process"; each stage one complete (`"X"`)
    /// span, with its duration stretched to the next event so the causal
    /// chain reads as a cascade. Every span carries `args.trace_id`.
    pub fn perfetto_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for incident in self.incidents() {
            let mut push = |s: &str| {
                if first {
                    first = false;
                } else {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(s);
            };
            push(&format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"incident trace {}\"}}}}",
                incident.trace, incident.trace,
            ));
            for (i, event) in incident.events.iter().enumerate() {
                let next_at = incident.events[i + 1..]
                    .iter()
                    .map(|e| e.at_us)
                    .find(|at| *at > event.at_us);
                let dur = next_at.map(|at| at - event.at_us).unwrap_or(1).max(1);
                let ctx = TraceCtx::at(event.stage);
                push(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"xsec\",\"ph\":\"X\",\"ts\":{},\"dur\":{dur},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"trace_id\":{},\"span\":{},\
                     \"parent\":{},{}}}}}",
                    event.stage.name(),
                    event.at_us,
                    event.trace,
                    event.stage as u8 + 1,
                    event.trace,
                    ctx.span,
                    ctx.parent,
                    event_args(event),
                ));
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes `<stem>.jsonl` (decision trace) and `<stem>_trace.json`
    /// (Perfetto) under `dir`, atomically via temp-file + rename; returns
    /// both paths.
    pub fn write_incident_files(
        &self,
        dir: &Path,
        stem: &str,
    ) -> std::io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let jsonl = dir.join(format!("{stem}.jsonl"));
        let perfetto = dir.join(format!("{stem}_trace.json"));
        crate::export::atomic_write(&jsonl, &self.incidents_jsonl())?;
        crate::export::atomic_write(&perfetto, &self.perfetto_json())?;
        Ok((jsonl, perfetto))
    }
}

/// A finite f32 for JSON (NaN/inf would break the document).
fn finite(bits: u64) -> f32 {
    let v = f32::from_bits(bits as u32);
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Stage-specific `"key":value` args (no surrounding braces).
fn event_args(event: &FlightEvent) -> String {
    match event.stage {
        TraceStage::Ingest => format!("\"ue\":{},\"msg_id\":{}", event.a, event.b),
        TraceStage::Inference | TraceStage::Alert => {
            format!("\"score\":{},\"threshold\":{}", finite(event.a), finite(event.b))
        }
        TraceStage::Verdict => {
            format!("\"confirmed\":{},\"needs_human\":{}", event.a != 0, event.b != 0)
        }
        TraceStage::Policy => {
            format!("\"confidence\":{},\"actions\":{}", finite(event.a), event.b)
        }
        TraceStage::ControlShip => {
            format!("\"action_id\":{},\"payload_len\":{}", event.a, event.b)
        }
        TraceStage::Enforce => format!("\"action_id\":{},\"kind\":{}", event.a, event.b),
        TraceStage::Ack => {
            format!("\"success\":{},\"latency_us\":{}", event.a != 0, event.b)
        }
    }
}

fn event_jsonl(event: &FlightEvent) -> String {
    format!(
        "{{\"trace\":{},\"stage\":\"{}\",\"at_us\":{},{}}}",
        event.trace,
        event.stage.name(),
        event.at_us,
        event_args(event),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: u64, stage: TraceStage, at_us: u64) -> FlightEvent {
        FlightEvent { trace, stage, at_us, a: 0, b: 0 }
    }

    #[test]
    fn trace_ids_are_sequential_and_recoverable() {
        let rec = FlightRecorder::new();
        // Ids count opened incidents from 1; the msg id is not read.
        let kept: Vec<u64> = (0..MAX_INCIDENTS as u64).map(|i| rec.begin_trace(900 - i)).collect();
        assert_eq!(kept, (1..=MAX_INCIDENTS as u64).collect::<Vec<_>>());
        // The 65th still gets its id, and counts as dropped.
        let dropped = rec.begin_trace(7);
        assert_eq!(dropped, MAX_INCIDENTS as u64 + 1);
        assert_eq!(rec.dropped_incidents(), 1);
        // Events for a dropped, an unknown or the zero trace are dropped.
        for trace in [dropped, dropped + 1, 0] {
            rec.record_stage(ev(trace, TraceStage::Alert, 1));
        }
        assert!(rec.incidents().iter().all(|i| i.events.is_empty()));
        // Incident `t` is recovered at index `t - 1`.
        rec.record_stage(ev(3, TraceStage::Alert, 1));
        let incidents = rec.incidents();
        assert_eq!(incidents.iter().map(|i| i.trace).collect::<Vec<_>>(), kept);
        assert_eq!(incidents[2].events, vec![ev(3, TraceStage::Alert, 1)]);
    }

    #[test]
    fn record_stage_appends_only_to_an_open_incident() {
        let rec = FlightRecorder::new();
        rec.record_stage(ev(1, TraceStage::Ingest, 5)); // not open yet: dropped
        let trace = rec.begin_trace(7);
        let other = rec.begin_trace(8);
        rec.record_stage(ev(trace, TraceStage::Ingest, 10));
        rec.ring().record(ev(trace, TraceStage::Inference, 20)); // the benchmark's shim
        rec.record_stage(ev(other, TraceStage::Alert, 25));
        rec.record_stage(ev(trace, TraceStage::Alert, 30));
        rec.record_stage(ev(other + 1, TraceStage::Alert, 31)); // never opened: dropped
        rec.record_stage(ev(0, TraceStage::Alert, 32)); // untraced: dropped
        let incidents = rec.incidents();
        assert_eq!(incidents.len(), 2);
        let events: Vec<(TraceStage, u64)> =
            incidents[0].events.iter().map(|e| (e.stage, e.at_us)).collect();
        assert_eq!(
            events,
            vec![(TraceStage::Ingest, 10), (TraceStage::Inference, 20), (TraceStage::Alert, 30)]
        );
        assert_eq!(incidents[1].events, vec![ev(other, TraceStage::Alert, 25)]);
    }

    #[test]
    fn incident_store_is_bounded() {
        let rec = FlightRecorder::new();
        for i in 1..=(MAX_INCIDENTS as u64 + 5) {
            assert_eq!(rec.begin_trace(0), i);
        }
        assert_eq!(rec.incidents().len(), MAX_INCIDENTS);
        assert_eq!(rec.dropped_incidents(), 5);
    }

    #[test]
    fn exports_are_order_normalized_and_stage_named() {
        let rec = FlightRecorder::new();
        let trace = rec.begin_trace(1);
        // Append out of order; export must sort by time.
        rec.record_stage(FlightEvent {
            trace,
            stage: TraceStage::Ack,
            at_us: 900,
            a: 1,
            b: 250,
        });
        rec.record_stage(FlightEvent {
            trace,
            stage: TraceStage::Alert,
            at_us: 100,
            a: 0.9f32.to_bits() as u64,
            b: 0.5f32.to_bits() as u64,
        });
        let jsonl = rec.incidents_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"stage\":\"alert\""), "got: {}", lines[0]);
        assert!(lines[0].contains("\"score\":0.9"));
        assert!(lines[1].contains("\"stage\":\"ack\""));
        assert!(lines[1].contains("\"latency_us\":250"));

        let perfetto = rec.perfetto_json();
        assert!(perfetto.contains("\"traceEvents\""));
        assert!(perfetto.contains("\"name\":\"alert\""));
        assert!(perfetto.contains(&format!("\"trace_id\":{trace}")));
        // Alert's span stretches to the ack (900 - 100).
        assert!(perfetto.contains("\"dur\":800"), "got: {perfetto}");
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(perfetto.matches(open).count(), perfetto.matches(close).count());
        }
    }

    #[test]
    fn denials_are_bounded_and_render_after_incidents() {
        let rec = FlightRecorder::new();
        let trace = rec.begin_trace(1);
        rec.record_stage(ev(trace, TraceStage::Alert, 10));
        rec.record_denial("rogue", "publish:a1-policies");
        rec.record_denial("rogue", "control:quarantine-cell");
        let jsonl = rec.incidents_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"stage\":\"alert\""));
        assert!(lines[1].contains("\"stage\":\"authz_deny\""), "got: {}", lines[1]);
        assert!(lines[1].contains("\"xapp\":\"rogue\""));
        assert!(lines[1].contains("\"capability\":\"publish:a1-policies\""));
        assert!(lines[2].contains("\"seq\":2"));
        // No denials → the export is exactly the pre-authz rendering.
        let clean = FlightRecorder::new();
        let t = clean.begin_trace(1);
        clean.record_stage(ev(t, TraceStage::Alert, 10));
        assert!(!clean.incidents_jsonl().contains("authz_deny"));
        // The store is bounded; overflow only counts.
        for _ in 0..(MAX_DENIALS + 7) {
            rec.record_denial("rogue", "publish:findings");
        }
        assert_eq!(rec.denials().len(), MAX_DENIALS);
        assert_eq!(rec.inner.denials.lock().unwrap().dropped, 9);
    }

    #[test]
    fn denial_strings_are_json_escaped() {
        let rec = FlightRecorder::new();
        rec.record_denial("ro\"gue\\", "publish:a\nb");
        rec.record_denial("tab\tand\nline\u{1}", "publish:x");
        let jsonl = rec.incidents_jsonl();
        assert!(jsonl.contains("\"xapp\":\"ro\\\"gue\\\\\""), "got: {jsonl}");
        assert!(jsonl.contains("\"capability\":\"publish:a\\nb\""), "got: {jsonl}");
        assert!(jsonl.contains("\"xapp\":\"tab\\tand\\nline\\u0001\""), "got: {jsonl}");
        // Every line is still one JSON document.
        assert!(jsonl.lines().all(|l| !l.contains('\t') && l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn trace_ctx_spans_are_positional() {
        let ctx = TraceCtx::at(TraceStage::Ingest);
        assert_eq!((ctx.span, ctx.parent), (1, 0));
        let ctx = TraceCtx::at(TraceStage::Ack);
        assert_eq!((ctx.span, ctx.parent), (8, 7));
    }

    #[test]
    fn write_incident_files_round_trips() {
        let dir = std::env::temp_dir().join("xsec-obs-test-flight");
        let rec = FlightRecorder::new();
        let trace = rec.begin_trace(1);
        rec.record_stage(ev(trace, TraceStage::Alert, 10));
        let (jsonl, perfetto) = rec.write_incident_files(&dir, "incidents").unwrap();
        assert!(std::fs::read_to_string(jsonl).unwrap().contains("\"stage\":\"alert\""));
        assert!(std::fs::read_to_string(perfetto).unwrap().contains("traceEvents"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
