//! The flight recorder: causal trace contexts plus always-on bounded event
//! rings that turn a detection into a replayable incident file.
//!
//! Every MobiFlow record admitted at the E2 agent gets a **trace id** from a
//! counter-based generator — no wall clock, no randomness — so two replays
//! of the same seeded scenario allocate identical ids. The id rides the
//! record through featurize → inference → alert → analyzer verdict → policy
//! decision → Control Request (as an optional TLV) → gNB enforcement → ack,
//! and each stage drops a fixed-size [`FlightEvent`] into a bounded ring.
//!
//! Recording is two-tier so the hot path stays cheap:
//!
//! * **Hot stages** ([`TraceStage::Ingest`], [`TraceStage::Inference`])
//!   write into fixed-capacity [`FlightRing`]s — one short mutex-guarded
//!   array write per event, steady-state zero allocation, oldest events
//!   overwritten on wrap.
//! * **Incident stages** (everything from the alert on) only exist for
//!   detections, so they append straight to the bounded incident store.
//!
//! When a detection fires, [`FlightRecorder::mark_incident`] snapshots the
//! causal slice for that trace id out of every ring into an [`Incident`];
//! later stages extend it via [`FlightRecorder::record_stage`]. Incidents
//! export as a JSONL decision trace ([`FlightRecorder::incidents_jsonl`])
//! and a Chrome/Perfetto `trace.json`
//! ([`FlightRecorder::perfetto_json`]); both order-normalize events by
//! `(trace, time, stage)` so the export is invariant to how many scoring
//! shards raced to produce it.
//!
//! Span identity is positional, not allocated: a span is `(trace id,
//! stage)`, with the parent edge implied by the fixed stage order. Worker
//! threads therefore never mint ids, which is what keeps a 4-shard run's
//! incident trace byte-identical to a 1-shard run's.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Capacity of each per-thread event ring. Sized to hold several ingest
/// buckets' worth of hot-path events, so a detection fired at batch-merge
/// time still finds its ingest/inference events un-overwritten.
const FLIGHT_RING_CAPACITY: usize = 4096;

/// Capacity of the bounded msg-id → trace-id slot map.
const TRACE_SLOTS: usize = 16_384;

/// Maximum incidents retained per run; later detections count as dropped.
const MAX_INCIDENTS: usize = 64;

/// Maximum authorization denials retained per run; later ones only count.
const MAX_DENIALS: usize = 256;

/// One stage of the detection→enforcement causal chain. The numeric order
/// *is* the causal order: each stage's parent span is the previous stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceStage {
    /// Record admitted at the E2 agent (`a` = DU UE id, `b` = msg id).
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

/// The causal context one stage runs under: which trace it belongs to and
/// where it sits in the chain. Span ids are positional (`stage + 1`, parent
/// is the previous stage's span, 0 at the root), so contexts are derivable
/// anywhere from `(trace, stage)` without cross-thread id allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace id (counter-allocated, starts at 1; 0 means "untraced").
    pub trace: u64,
    /// This stage's span id within the trace.
    pub span: u32,
    /// Parent span id (0 for the root ingest span).
    parent: u32,
}

impl TraceCtx {
    /// The context for `stage` of trace `trace`.
    pub fn at(trace: u64, stage: TraceStage) -> TraceCtx {
        TraceCtx { trace, span: stage as u32 + 1, parent: stage as u32 }
    }
}

/// One fixed-size flight-recorder event. `a`/`b` are stage-specific
/// payloads (see [`TraceStage`]); f32 scores travel as `to_bits()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Owning trace id (0 = untraced; such events are never recorded).
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

#[derive(Debug, Default)]
struct RingBuf {
    events: Vec<FlightEvent>,
    next: usize,
}

impl RingBuf {
    fn push(&mut self, event: FlightEvent) {
        if self.events.len() < FLIGHT_RING_CAPACITY {
            self.events.push(event);
        } else {
            self.events[self.next] = event;
        }
        self.next = (self.next + 1) % FLIGHT_RING_CAPACITY;
    }
}

/// A handle onto one bounded event ring. Components that record hot-path
/// stages acquire one via [`FlightRecorder::ring`] (typically one per
/// recording thread) and push through it; pushing is a single short lock
/// over a fixed-size buffer and allocates nothing in steady state.
#[derive(Debug, Clone, Default)]
pub struct FlightRing {
    buf: Arc<Mutex<RingBuf>>,
}

impl FlightRing {
    /// Records one hot-path event. Untraced events (`trace == 0`: the
    /// record's trace was evicted from the slot map, or it was never
    /// ingested) are skipped.
    pub fn record(&self, event: FlightEvent) {
        if event.trace == 0 {
            return;
        }
        self.buf.lock().expect("flight ring poisoned").push(event);
    }

    fn snapshot_trace(&self, trace: u64, out: &mut Vec<FlightEvent>) {
        let buf = self.buf.lock().expect("flight ring poisoned");
        out.extend(buf.events.iter().filter(|e| e.trace == trace));
    }
}

/// One detection's causal slice: every flight event recorded for its trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// The trace id the detection fired on.
    pub trace: u64,
    /// Events for this trace, order-normalized at export time.
    pub events: Vec<FlightEvent>,
}

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

#[derive(Debug)]
struct RecorderInner {
    next_trace: AtomicU64,
    /// `msg_id % TRACE_SLOTS` → `(msg_id + 1, trace)`; sized lazily so an
    /// unused recorder costs nothing.
    slots: Mutex<Vec<(u64, u64)>>,
    rings: Mutex<Vec<FlightRing>>,
    incidents: Mutex<IncidentStore>,
    denials: Mutex<DenialStore>,
}

/// The flight recorder: trace-id generator, ring registry, and incident
/// store. Cloning shares the recorder; [`Default`] builds a fresh one. The
/// recorder is always on.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<RecorderInner>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder {
            inner: Arc::new(RecorderInner {
                next_trace: AtomicU64::new(1),
                slots: Mutex::new(Vec::new()),
                rings: Mutex::new(Vec::new()),
                incidents: Mutex::new(IncidentStore::default()),
                denials: Mutex::new(DenialStore::default()),
            }),
        }
    }
}

impl FlightRecorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Registers and returns a new bounded event ring. Acquire one per
    /// recording thread at attach time, not per event.
    pub fn ring(&self) -> FlightRing {
        let ring = FlightRing::default();
        self.inner.rings.lock().expect("flight rings poisoned").push(ring.clone());
        ring
    }

    /// Allocates the next trace id for `msg_id` and remembers the mapping
    /// in a bounded slot map so downstream stages can recover the trace
    /// from the record alone.
    ///
    /// Must be called from the (single) ingest path so the counter order —
    /// and therefore every replayed id — is deterministic.
    pub fn begin_trace(&self, msg_id: u64) -> u64 {
        let trace = self.inner.next_trace.fetch_add(1, Ordering::Relaxed);
        let mut slots = self.inner.slots.lock().expect("trace slots poisoned");
        if slots.is_empty() {
            slots.resize(TRACE_SLOTS, (0, 0));
        }
        slots[(msg_id % TRACE_SLOTS as u64) as usize] = (msg_id.wrapping_add(1), trace);
        trace
    }

    /// The trace id allocated for `msg_id`, or 0 when unknown (never
    /// ingested, or evicted from the slot map).
    pub fn trace_for(&self, msg_id: u64) -> u64 {
        let slots = self.inner.slots.lock().expect("trace slots poisoned");
        match slots.get((msg_id % TRACE_SLOTS.max(1) as u64) as usize) {
            Some((owner, trace)) if *owner == msg_id.wrapping_add(1) => *trace,
            _ => 0,
        }
    }

    /// Promotes `trace` to an incident: snapshots its causal slice out of
    /// every registered ring. Idempotent per trace; at most
    /// [`MAX_INCIDENTS`] are kept and the rest are counted as dropped.
    pub fn mark_incident(&self, trace: u64) {
        if trace == 0 {
            return;
        }
        let mut store = self.inner.incidents.lock().expect("incident store poisoned");
        if store.incidents.iter().any(|i| i.trace == trace) {
            return;
        }
        if store.incidents.len() >= MAX_INCIDENTS {
            store.dropped += 1;
            return;
        }
        let mut events = Vec::new();
        for ring in self.inner.rings.lock().expect("flight rings poisoned").iter() {
            ring.snapshot_trace(trace, &mut events);
        }
        events.sort_by_key(FlightEvent::sort_key);
        events.dedup();
        store.incidents.push(Incident { trace, events });
    }

    /// Appends a post-detection stage event to its incident, if the trace
    /// was marked. Incident stages are rare (per detection, not per
    /// record), so they bypass the rings and can never be overwritten.
    pub fn record_stage(&self, event: FlightEvent) {
        if event.trace == 0 {
            return;
        }
        let mut store = self.inner.incidents.lock().expect("incident store poisoned");
        if let Some(incident) = store.incidents.iter_mut().find(|i| i.trace == event.trace) {
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

    /// Every retained incident, events order-normalized and deduplicated.
    pub fn incidents(&self) -> Vec<Incident> {
        let store = self.inner.incidents.lock().expect("incident store poisoned");
        let mut out = store.incidents.clone();
        for incident in &mut out {
            incident.events.sort_by_key(FlightEvent::sort_key);
            incident.events.dedup();
        }
        out.sort_by_key(|i| i.trace);
        out
    }

    /// Detections that arrived after the incident store filled up.
    pub fn dropped_incidents(&self) -> u64 {
        self.inner.incidents.lock().expect("incident store poisoned").dropped
    }

    /// Renders every incident as a JSONL decision trace: one JSON object
    /// per event with stage-specific field names, grouped by trace in
    /// allocation order, followed by one `authz_deny` line per recorded
    /// denial (trace 0 — the denied action never entered the causal
    /// chain). A run without denials renders exactly as it did before
    /// authorization existed. Stable across replays and shard counts.
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
                let ctx = TraceCtx::at(event.trace, event.stage);
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
        assert_eq!(rec.begin_trace(100), 1);
        assert_eq!(rec.begin_trace(101), 2);
        assert_eq!(rec.trace_for(100), 1);
        assert_eq!(rec.trace_for(101), 2);
        assert_eq!(rec.trace_for(999), 0, "unknown msg_id must be untraced");
        // Slot collision: the newer msg_id evicts the older mapping.
        let collider = 100 + TRACE_SLOTS as u64;
        assert_eq!(rec.begin_trace(collider), 3);
        assert_eq!(rec.trace_for(collider), 3);
        assert_eq!(rec.trace_for(100), 0, "evicted mapping must not alias");
    }

    #[test]
    fn rings_are_bounded_and_overwrite_oldest() {
        let rec = FlightRecorder::new();
        let ring = rec.ring();
        for i in 0..(FLIGHT_RING_CAPACITY as u64 + 10) {
            ring.record(ev(i + 1, TraceStage::Ingest, i));
        }
        // The first 10 traces were overwritten; the last one survives.
        rec.mark_incident(1);
        rec.mark_incident(FLIGHT_RING_CAPACITY as u64 + 10);
        let incidents = rec.incidents();
        assert_eq!(incidents.len(), 2);
        assert!(incidents[0].events.is_empty(), "overwritten event resurfaced");
        assert_eq!(incidents[1].events.len(), 1);
    }

    #[test]
    fn mark_incident_snapshots_and_record_stage_appends() {
        let rec = FlightRecorder::new();
        let ring_a = rec.ring();
        let ring_b = rec.ring();
        let trace = rec.begin_trace(7);
        ring_a.record(ev(trace, TraceStage::Ingest, 10));
        ring_b.record(ev(trace, TraceStage::Inference, 20));
        ring_b.record(ev(trace + 99, TraceStage::Inference, 21)); // other trace
        rec.mark_incident(trace);
        rec.mark_incident(trace); // idempotent
        rec.record_stage(ev(trace, TraceStage::Alert, 30));
        rec.record_stage(ev(trace + 99, TraceStage::Alert, 31)); // unmarked: dropped
        rec.mark_incident(0); // untraced: no incident
        let incidents = rec.incidents();
        assert_eq!(incidents.len(), 1);
        let stages: Vec<TraceStage> = incidents[0].events.iter().map(|e| e.stage).collect();
        assert_eq!(stages, vec![TraceStage::Ingest, TraceStage::Inference, TraceStage::Alert]);
    }

    #[test]
    fn incident_store_is_bounded() {
        let rec = FlightRecorder::new();
        for i in 1..=(MAX_INCIDENTS as u64 + 5) {
            rec.mark_incident(i);
        }
        assert_eq!(rec.incidents().len(), MAX_INCIDENTS);
        assert_eq!(rec.dropped_incidents(), 5);
    }

    #[test]
    fn exports_are_order_normalized_and_stage_named() {
        let rec = FlightRecorder::new();
        let trace = rec.begin_trace(1);
        rec.mark_incident(trace);
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
        rec.mark_incident(trace);
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
        clean.mark_incident(t);
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
        let ctx = TraceCtx::at(5, TraceStage::Ingest);
        assert_eq!((ctx.span, ctx.parent), (1, 0));
        let ctx = TraceCtx::at(5, TraceStage::Ack);
        assert_eq!((ctx.span, ctx.parent), (8, 7));
    }

    #[test]
    fn write_incident_files_round_trips() {
        let dir = std::env::temp_dir().join("xsec-obs-test-flight");
        let rec = FlightRecorder::new();
        let trace = rec.begin_trace(1);
        rec.mark_incident(trace);
        rec.record_stage(ev(trace, TraceStage::Alert, 10));
        let (jsonl, perfetto) = rec.write_incident_files(&dir, "incidents").unwrap();
        assert!(std::fs::read_to_string(jsonl).unwrap().contains("\"stage\":\"alert\""));
        assert!(std::fs::read_to_string(perfetto).unwrap().contains("traceEvents"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
