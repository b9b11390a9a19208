//! The MOBIWATCH xApp: unsupervised anomaly detection in the near-RT loop.
//!
//! Consumes MobiFlow telemetry from E2 indications, maintains the sliding
//! windows over the live stream, scores each window with the deployed model,
//! and — when a window exceeds the threshold — publishes the window plus its
//! context to the `anomalies` topic for the LLM analyzer (§3.3: MobiWatch is
//! the pre-filter that keeps the expensive model out of the hot path).
//! The unit it publishes is the *incident*, not the window: a flood flags
//! thousands of windows, and an incident gate lets through only those
//! that open or escalate an incident, so the analyzer runs once per episode
//! step rather than once per window.
//!
//! Everything runs on the calling thread. Featurization and emission follow
//! the global record sequence: the relational features (TMSI reuse,
//! inter-arrival gaps, burst density), the alert context, the flight events
//! and the shared state are functions of that sequence and the verdicts, so
//! detections and incident traces do not depend on how scoring was keyed or
//! batched. Windowing and scoring are **per key** in one [`Scorer`], which
//! keeps each key's (`window::window_key`) windows and alert cooldown and
//! judges in staging order, which is record order. [`MobiWatch::new`] is the
//! paper's global window: one key. [`MobiWatch::per_ue`] keys by `du_ue_id`
//! and evicts a UE at its RRC release.

use crate::mitigator::ANOMALIES_TOPIC;
use crate::smo::DeployedModels;
use crate::window::{window_key, Scorer, Verdict, WatchMetrics};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;
use xsec_dl::{Featurizer, Precision};
use xsec_mobiflow::{encode_ue_record, UeMobiFlow};
use xsec_obs::{FlightEvent, FlightRecorder, Obs, TraceStage};
use xsec_proto::MessageKind;
use xsec_ric::{XApp, XAppContext};
use xsec_types::{Duration, Timestamp};

/// Which deployed model scores the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Detector {
    /// Reconstruction-error scoring.
    Autoencoder,
    /// Next-step prediction-error scoring.
    Lstm,
}

impl Detector {
    /// The metric label value for this detector.
    pub fn label(self) -> &'static str {
        match self {
            Detector::Autoencoder => "autoencoder",
            Detector::Lstm => "lstm",
        }
    }

    /// Records one score consumes at window length `window`: the window
    /// itself, plus the predicted step for the LSTM.
    pub fn span(self, window: usize) -> usize {
        match self {
            Detector::Autoencoder => window,
            Detector::Lstm => window + 1,
        }
    }
}

/// MobiWatch configuration.
#[derive(Debug, Clone)]
pub struct MobiWatchConfig {
    /// Model selection.
    pub detector: Detector,
    /// Records of context (before the window) attached to each alert.
    pub context_records: usize,
    /// Minimum windows of one key between two alert candidates (LLM cost
    /// control; the incident gate then merges candidates per incident).
    pub publish_cooldown: usize,
    /// Numeric scoring path; [`Precision`] has one variant and nothing
    /// reads this (kept for the frozen `benchmark/` package).
    pub precision: Precision,
}

impl Default for MobiWatchConfig {
    fn default() -> Self {
        MobiWatchConfig {
            detector: Detector::Autoencoder,
            context_records: 48,
            publish_cooldown: 16,
            precision: Precision::F32,
        }
    }
}

/// One alert as published to the analyzer, in the binary frame of
/// [`AnomalyAlert::encode`].
#[derive(Debug, Clone)]
pub struct AnomalyAlert {
    /// Causal trace id of the record that completed the flagged window
    /// (0 = untraced; ids start at 1). Downstream xApps propagate it so the
    /// flight recorder can stitch detection → mitigation → ack into one
    /// incident trace.
    pub trace: u64,
    /// Stream index of the last record in the flagged window.
    pub at_record: u64,
    /// Virtual time of that record.
    pub at_time: Timestamp,
    /// The anomaly score.
    pub score: f32,
    /// The decision threshold in force.
    pub threshold: f32,
    /// Window + context records, oldest first, in the MobiFlow line coding.
    pub records: Vec<String>,
}

/// Shared inspection state (scores and flags survive the platform run).
#[derive(Debug, Default)]
pub struct MobiWatchState {
    /// `(record index, score, flagged)` per completed window.
    pub scores: Vec<(u64, f32, bool)>,
    /// Published alerts.
    pub alerts: Vec<AnomalyAlert>,
}

/// How long a scope may go without an alert candidate before its incident
/// closes: one E2 report period.
const INCIDENT_QUIET: Duration = Duration::from_millis(100);

/// The age at which an incident closes however busy it is: A1's `ttl_min`
/// for every policy type, so a mitigation that has lapsed is always looked
/// at again.
const INCIDENT_MAX_AGE: Duration = Duration::from_secs(1);

/// Records featurized and scored per pass. A pump hands MobiWatch everything
/// it drained (≈ 940 records a pump on `steady`), and past a few hundred
/// records a pass's working set outgrows the cache and the cost per record
/// climbs (DESIGN.md § "Per-pump delivery" has the curve). Scores do not
/// depend on the cut.
const MAX_PASS_RECORDS: usize = 256;

/// One open incident: when it opened, its latest candidate, and the highest
/// score and setup classes it has seen.
struct Incident {
    opened: Timestamp,
    last: Timestamp,
    score_class: i32,
    setup_class: u32,
}

/// Merges alert candidates — flagged windows outside their key's cooldown —
/// into incidents, at most one open per scope: the global window is one
/// scope, the per-UE pool has one per cell. A candidate is published when
/// it opens an incident or escalates the open one, and merged otherwise.
/// It escalates when its score class `floor(log2(score / threshold))` or
/// its setup class (the bit length of the `RrcSetupRequest` count in its
/// evidence) rises above the incident's. An incident closes after
/// [`INCIDENT_QUIET`] without a candidate in its scope, or at
/// [`INCIDENT_MAX_AGE`].
#[derive(Default)]
struct IncidentGate {
    /// The highest candidate timestamp so far. Within a report period the
    /// stream is cell-major, so timestamps step back; a step back must not
    /// read as a quiet period.
    clock: Timestamp,
    open: HashMap<u32, Incident>,
}

impl IncidentGate {
    /// Whether the candidate `verdict` at `at` in `scope`, with `setups`
    /// setup requests in its evidence, opens or escalates an incident.
    /// Out of line: only candidates reach it, never the per-record path.
    #[inline(never)]
    fn admit(&mut self, scope: u32, at: Timestamp, verdict: &Verdict, setups: usize) -> bool {
        self.clock = self.clock.max(at);
        let now = self.clock;
        let candidate = Incident {
            opened: now,
            last: now,
            // A zero threshold makes every class +inf, saturated to i32::MAX.
            score_class: (verdict.score / verdict.threshold).log2().floor() as i32,
            setup_class: usize::BITS - setups.leading_zeros(),
        };
        let Some(open) = self.open.get_mut(&scope) else {
            self.open.insert(scope, candidate);
            return true;
        };
        if now - open.last >= INCIDENT_QUIET || now - open.opened >= INCIDENT_MAX_AGE {
            *open = candidate;
            return true;
        }
        let escalates =
            candidate.score_class > open.score_class || candidate.setup_class > open.setup_class;
        open.last = now;
        open.score_class = open.score_class.max(candidate.score_class);
        open.setup_class = open.setup_class.max(candidate.setup_class);
        escalates
    }
}

/// The anomaly-detection xApp.
pub struct MobiWatch {
    featurizer: Featurizer,
    seen: u64,
    /// Trailing records of the *global* stream, for alert context only,
    /// eagerly capped at what an alert can reference (context + window).
    tail: VecDeque<UeMobiFlow>,
    state: Arc<Mutex<MobiWatchState>>,
    recorder: FlightRecorder,
    /// The models, the config, the instruments and every key's windows.
    scorer: Scorer,
    per_ue: bool,
    /// Which alert candidates are published.
    incidents: IncidentGate,
}

impl MobiWatch {
    /// The paper's global sliding window: every record under one key, never
    /// released. Returns the shared state handle for post-run inspection.
    pub fn new(
        models: DeployedModels,
        config: MobiWatchConfig,
    ) -> (Self, Arc<Mutex<MobiWatchState>>) {
        Self::keyed(models, config, false)
    }

    /// The per-UE pool: windows keyed by `du_ue_id`, a UE's state evicted
    /// at its RRC release.
    pub fn per_ue(
        models: DeployedModels,
        config: MobiWatchConfig,
    ) -> (Self, Arc<Mutex<MobiWatchState>>) {
        Self::keyed(models, config, true)
    }

    /// [`Self::per_ue`] when `per_ue`, else the global window, with private
    /// (silent) instruments.
    pub(crate) fn keyed(
        models: DeployedModels,
        config: MobiWatchConfig,
        per_ue: bool,
    ) -> (Self, Arc<Mutex<MobiWatchState>>) {
        let state = Arc::new(Mutex::new(MobiWatchState::default()));
        let metrics = WatchMetrics::register(&Obs::new(), config.detector);
        let watch = MobiWatch {
            featurizer: Featurizer::new(),
            seen: 0,
            tail: VecDeque::new(),
            state: state.clone(),
            recorder: FlightRecorder::new(),
            scorer: Scorer::new(models, config, metrics),
            per_ue,
            incidents: IncidentGate::default(),
        };
        (watch, state)
    }

    /// Re-homes the xApp's instruments into `obs`'s registry and its flight
    /// recording into `obs`'s recorder. Call before feeding records
    /// (deployment time): samples do not carry over.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.scorer.metrics = WatchMetrics::register(obs, self.scorer.config.detector);
        self.recorder = obs.recorder.clone();
    }

    /// The sliding-window length in force.
    pub fn window(&self) -> usize {
        self.scorer.models.feature_config.window
    }

    /// How often the scoring workspace had to grow a buffer. Stable across
    /// calls once warm at a batch size — the steady-state zero-allocation
    /// guarantee.
    #[cfg(test)]
    fn workspace_grow_events(&self) -> usize {
        self.scorer.workspace_grow_events()
    }

    /// How many records' LSTM gate bases `P` the scorer has computed.
    #[cfg(test)]
    pub(crate) fn projected(&self) -> u64 {
        self.scorer.projected()
    }

    /// Keys with live window state: under [`Self::per_ue`] the open
    /// connections, whose growth over a churning stream would be a leak.
    /// Deployed, it is the `xsec_mobiwatch_tracked_keys` gauge.
    #[cfg(test)]
    fn tracked_ues(&self) -> usize {
        self.scorer.tracked()
    }

    /// Feeds one record; returns an alert when the window it completes is
    /// anomalous and opens or escalates an incident (past the publish
    /// cooldown; scoring happens for every window regardless). The batch of
    /// one.
    pub fn process_record(&mut self, record: &UeMobiFlow) -> Option<AnomalyAlert> {
        self.process_batch(std::slice::from_ref(record)).pop()
    }

    /// Feeds a batch of records in passes of at most [`MAX_PASS_RECORDS`]:
    /// each pass featurizes its records, scores every window they complete
    /// in one batched model pass, then thresholds and emits in stream order.
    /// Returns the alerts raised. Scores, alerts and their context are the
    /// same — to the bit — however a stream is cut into batches.
    pub fn process_batch(&mut self, records: &[UeMobiFlow]) -> Vec<AnomalyAlert> {
        let alerts = self.detect(records);
        self.file(alerts.clone());
        alerts
    }

    /// [`Self::process_batch`] up to its alerts, which the caller files.
    fn detect(&mut self, records: &[UeMobiFlow]) -> Vec<AnomalyAlert> {
        let mut alerts = Vec::new();
        for pass in records.chunks(MAX_PASS_RECORDS) {
            alerts.extend(self.pass(pass));
        }
        alerts
    }

    /// One pass of [`Self::detect`].
    fn pass(&mut self, records: &[UeMobiFlow]) -> Vec<AnomalyAlert> {
        let Some(last) = records.last() else {
            return Vec::new();
        };
        // Featurize sequentially (stream-level state), staging each record
        // under its key. An RRC release ends a per-UE key for good — DU ids
        // are never reused within a run — so once the release record itself
        // is scored the UE's window state is dead weight, and a million-UE
        // stream would pin a million rings.
        let first = self.seen;
        let start = Instant::now();
        for record in records {
            let key = window_key(self.per_ue, record);
            let release = self.per_ue && record.msg == MessageKind::RrcRelease;
            self.scorer.push(&mut self.featurizer, self.seen, record, key, release);
            self.seen += 1;
        }
        let metrics = &self.scorer.metrics;
        metrics.featurize_latency.observe_duration(start.elapsed());
        metrics.records.add(records.len() as u64);
        // The latency sample's exemplar: the causal trace the E2 agent
        // rooted for the batch's last record.
        self.scorer.score(self.recorder.trace_for(last.msg_id));
        self.scorer.metrics.windows_scored.add(self.scorer.verdicts.len() as u64);
        self.emit(records, first)
    }

    /// Walks one batch in stream order (`first` = its first record's global
    /// index), draining the verdicts of the windows its records completed.
    /// Each record joins the alert-context tail, then its verdict is logged:
    /// the `(index, score, flagged)` row, and — when the verdict is a
    /// candidate that opens or escalates an incident — the alert with the
    /// stream's trailing window + context *as of that record* attached, and
    /// its trace's incident opened with the record's ingest, inference and
    /// alert spans. A candidate merged into an open incident builds nothing
    /// and is only counted. The context is the stream's, not the key's: a
    /// per-UE context would hide stream-level signatures like a storm of
    /// one-shot connections.
    /// The alerts are returned, not yet in the shared state: the caller
    /// [`Self::file`]s them.
    fn emit(&mut self, records: &[UeMobiFlow], first: u64) -> Vec<AnomalyAlert> {
        let keep = self.scorer.config.context_records + self.window();
        let mut alerts = Vec::new();
        let metrics = &self.scorer.metrics;
        let mut verdicts = self.scorer.verdicts.drain(..).peekable();
        let mut state = self.state.lock();
        for (record, index) in records.iter().zip(first..) {
            if self.tail.len() == keep {
                self.tail.pop_front();
            }
            self.tail.push_back(record.clone());
            let Some((_, verdict)) = verdicts.next_if(|(scored, _)| *scored == index) else {
                continue;
            };
            state.scores.push((index, verdict.score, verdict.flagged));
            if !verdict.publish {
                continue;
            }
            let scope = if self.per_ue { record.cell.0 } else { 0 };
            let setups = self.tail.iter().filter(|r| r.msg == MessageKind::RrcSetupRequest).count();
            if !self.incidents.admit(scope, record.timestamp, &verdict, setups) {
                metrics.alerts_merged.inc();
                continue;
            }
            let trace = self.recorder.trace_for(record.msg_id);
            let alert = AnomalyAlert {
                trace,
                at_record: index,
                at_time: record.timestamp,
                score: verdict.score,
                threshold: verdict.threshold,
                records: self.tail.iter().map(encode_ue_record).collect(),
            };
            // A detection fired: open this trace's incident with the
            // record's ingest, its inference and the alert.
            self.recorder.mark_incident(trace);
            let at_us = record.timestamp.as_micros();
            let (score, threshold) =
                (u64::from(verdict.score.to_bits()), u64::from(verdict.threshold.to_bits()));
            for (stage, a, b) in [
                (TraceStage::Ingest, u64::from(record.du_ue_id), record.msg_id),
                (TraceStage::Inference, score, threshold),
                (TraceStage::Alert, score, threshold),
            ] {
                self.recorder.record_stage(FlightEvent { trace, stage, at_us, a, b });
            }
            metrics.alerts.inc();
            alerts.push(alert);
        }
        debug_assert!(verdicts.next().is_none(), "verdict for a record outside the batch");
        alerts
    }

    /// Moves a batch's alerts into the shared state — where [`Self::emit`]'s
    /// alerts end up once whoever asked for them has seen them.
    fn file(&self, alerts: Vec<AnomalyAlert>) {
        if !alerts.is_empty() {
            self.state.lock().alerts.extend(alerts);
        }
    }
}

impl XApp for MobiWatch {
    fn name(&self) -> &str {
        "mobiwatch"
    }

    fn on_records(
        &mut self,
        ctx: &mut XAppContext<'_>,
        records: &[UeMobiFlow],
        _window_end: Timestamp,
    ) {
        // Publish on [`ANOMALIES_TOPIC`] for the analyzer, then file.
        let alerts = self.detect(records);
        for alert in &alerts {
            ctx.publish(ANOMALIES_TOPIC, &alert.encode());
        }
        self.file(alerts);
    }
}

/// The per-UE pool under the name the frozen `benchmark/` package calls:
/// `ShardedMobiWatch::new(models, config, shards)` is
/// [`MobiWatch::per_ue`]. Kept, like `RicPlatform::harden` and
/// `xsec_dl::Precision`, until a benchmark-only PR stops naming it.
pub struct ShardedMobiWatch;

impl ShardedMobiWatch {
    /// [`MobiWatch::per_ue`]; the shard count is not read.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        models: DeployedModels,
        config: MobiWatchConfig,
        _shards: usize,
    ) -> (MobiWatch, Arc<Mutex<MobiWatchState>>) {
        MobiWatch::per_ue(models, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smo::quick_models;
    use crate::window::window_truth;
    use xsec_attacks::DatasetBuilder;
    use xsec_mobiflow::{extract_from_events, TelemetryStream};
    use xsec_types::AttackKind;

    #[test]
    fn the_incident_gate_publishes_openings_and_escalations_only() {
        // Threshold 1: scores 1.5 / 2.5 / 4.5 are score classes 0 / 1 / 2;
        // 1 / 2–3 / 4 setups are setup classes 1 / 2 / 3.
        let mut gate = IncidentGate::default();
        let mut admit = |scope: u32, ms: u64, score: f32, setups: usize| {
            let verdict = Verdict { score, threshold: 1.0, flagged: true, publish: true };
            gate.admit(scope, Timestamp(ms * 1_000), &verdict, setups)
        };
        let steps = [
            (0, 0, 1.5, 1, true, "no incident open: opens"),
            (0, 10, 1.5, 1, false, "same classes: merges"),
            (0, 20, 2.5, 1, true, "score class 0 -> 1"),
            (0, 30, 2.5, 1, false, "score class 1 again"),
            (0, 40, 4.5, 1, true, "score class 1 -> 2"),
            (0, 50, 1.5, 1, false, "a lower score merges"),
            (0, 60, 1.5, 2, true, "setup class 1 -> 2"),
            (0, 70, 1.5, 3, false, "3 setups are still class 2"),
            (0, 80, 1.5, 4, true, "setup class 2 -> 3"),
            (0, 40, 1.5, 1, false, "a step back in time neither reopens nor escalates"),
            (1, 45, 1.5, 1, true, "another scope opens its own incident"),
            (0, 179, 1.5, 1, false, "99 ms after the clock's 80: still open"),
            (0, 279, 1.5, 1, true, "100 ms without a candidate: closed, reopens"),
        ];
        for (scope, ms, score, setups, published, why) in steps {
            assert_eq!(
                admit(scope, ms, score, setups),
                published,
                "{why} (scope {scope}, {ms} ms)"
            );
        }
        // Busy but never escalating: merges until 1 s after it opened at 279.
        for ms in (369..1279).step_by(90) {
            assert!(!admit(0, ms, 1.5, 1), "{ms} ms: merged while younger than 1 s");
        }
        assert!(admit(0, 1279, 1.5, 1), "1 s of age closes the incident, so it reopens");
        assert!(!admit(0, 1280, 1.5, 1), "and the new incident merges again");
    }

    #[test]
    fn benign_replay_is_mostly_quiet() {
        let models = quick_models(10);
        let (mut watch, state) = MobiWatch::new(models, MobiWatchConfig::default());
        // Fresh benign traffic from a different seed.
        let report = DatasetBuilder::small(11, 10).benign();
        let stream = extract_from_events(&report.events);
        for r in &stream.records {
            watch.process_record(r);
        }
        let state = state.lock();
        let flagged = state.scores.iter().filter(|(_, _, f)| *f).count();
        let total = state.scores.len();
        assert!(total > 50);
        assert!(
            (flagged as f64) < 0.12 * total as f64,
            "too many benign flags: {flagged}/{total}"
        );
    }

    #[test]
    fn bts_dos_raises_alerts() {
        let models = quick_models(12);
        let (mut watch, state) = MobiWatch::new(models, MobiWatchConfig::default());
        let obs = Obs::new();
        watch.attach_obs(&obs);
        let ds = DatasetBuilder::small(13, 10).attack(AttackKind::BtsDos);
        let stream = extract_from_events(&ds.report.events);
        let mut alerts = 0;
        for r in &stream.records {
            if watch.process_record(r).is_some() {
                alerts += 1;
            }
        }
        assert!(alerts >= 1, "the flood must raise at least one alert");
        let snap = obs.snapshot();
        assert!(
            snap.histogram_count("xsec_mobiwatch_inference_latency_us") > 0,
            "inference latency must be sampled"
        );
        assert!(snap.histogram_count("xsec_mobiwatch_featurize_latency_us") > 0);
        assert_eq!(snap.counter_total("xsec_mobiwatch_alerts_total"), alerts as u64);
        let state = state.lock();
        assert_eq!(state.alerts.len(), alerts);
        // Alerts carry decodable context records.
        for line in &state.alerts[0].records {
            xsec_mobiflow::decode_ue_record(line).unwrap();
        }
    }

    #[test]
    fn ingested_records_and_scored_windows_are_counted() {
        let models = quick_models(12);
        let ds = DatasetBuilder::small(13, 10).attack(AttackKind::BtsDos);
        let stream = extract_from_events(&ds.report.events);
        for detector in [Detector::Autoencoder, Detector::Lstm] {
            let config = MobiWatchConfig { detector, ..MobiWatchConfig::default() };
            let (mut pool, state) = MobiWatch::per_ue(models.clone(), config);
            let obs = Obs::new();
            pool.attach_obs(&obs);
            let labels = [("detector", detector.label())];
            let records = obs.counter("xsec_mobiwatch_records_total", &labels);
            let windows = obs.counter("xsec_mobiwatch_windows_scored_total", &labels);
            let mut fed = 0;
            for chunk in stream.records.chunks(37) {
                pool.process_batch(chunk);
                fed += chunk.len() as u64;
                assert_eq!(records.get(), fed, "{detector:?}");
                assert_eq!(windows.get(), state.lock().scores.len() as u64, "{detector:?}");
            }
            let (records, windows) = (records.get(), windows.get());
            let why = format!("{detector:?}: {windows} windows, {records} records");
            assert!(0 < windows && windows < records, "{why}");
        }
    }

    #[test]
    fn cooldown_limits_alert_rate() {
        let models = quick_models(14);
        let config =
            MobiWatchConfig { publish_cooldown: 1000, ..MobiWatchConfig::default() };
        let (mut watch, state) = MobiWatch::new(models, config);
        let ds = DatasetBuilder::small(15, 10).attack(AttackKind::BtsDos);
        let stream = extract_from_events(&ds.report.events);
        for r in &stream.records {
            watch.process_record(r);
        }
        // Scores accumulate freely; alerts are capped by the cooldown.
        let state = state.lock();
        let flagged = state.scores.iter().filter(|(_, _, f)| *f).count();
        assert!(flagged > state.alerts.len(), "cooldown should suppress repeats");
        assert!(state.alerts.len() <= 2);
    }

    #[test]
    fn history_stays_bounded_and_scoring_stops_allocating() {
        let models = quick_models(18);
        let keep = MobiWatchConfig::default().context_records + models.feature_config.window;
        let (mut watch, state) = MobiWatch::new(models, MobiWatchConfig::default());
        let report = DatasetBuilder::small(19, 10).benign();
        let stream = extract_from_events(&report.events);
        assert!(stream.records.len() > keep + 10, "stream must outrun the cap");
        let mut grows_after_warmup = None;
        for (i, r) in stream.records.iter().enumerate() {
            watch.process_record(r);
            // Raw history must never exceed the alert-context cap — the old
            // implementation let it grow to 4× before draining.
            assert!(
                watch.tail.len() <= keep,
                "history grew to {} (cap {keep}) at record {i}",
                watch.tail.len()
            );
            if i == 2 * watch.window() {
                grows_after_warmup = Some(watch.workspace_grow_events());
            }
        }
        assert_eq!(
            Some(watch.workspace_grow_events()),
            grows_after_warmup,
            "steady-state scoring must not grow workspace buffers"
        );
        assert!(!state.lock().scores.is_empty());
    }

    #[test]
    fn lstm_detector_also_works() {
        let models = quick_models(16);
        let config = MobiWatchConfig { detector: Detector::Lstm, ..MobiWatchConfig::default() };
        let (mut watch, state) = MobiWatch::new(models, config);
        let ds = DatasetBuilder::small(17, 10).attack(AttackKind::BtsDos);
        let stream = extract_from_events(&ds.report.events);
        for r in &stream.records {
            watch.process_record(r);
        }
        assert!(!state.lock().scores.is_empty());
    }

    fn run_per_ue(
        models: &DeployedModels,
        config: &MobiWatchConfig,
        stream: &TelemetryStream,
    ) -> MobiWatchState {
        // An odd batch size exercises uneven batch boundaries.
        run_chunked(models, config, 23, stream)
    }

    fn run_chunked(
        models: &DeployedModels,
        config: &MobiWatchConfig,
        chunk: usize,
        stream: &TelemetryStream,
    ) -> MobiWatchState {
        let (mut pool, state) = MobiWatch::per_ue(models.clone(), config.clone());
        for chunk in stream.records.chunks(chunk) {
            pool.process_batch(chunk);
        }
        drop(pool);
        Arc::try_unwrap(state).expect("pool dropped").into_inner()
    }

    #[test]
    fn scores_arrive_in_global_record_order() {
        let models = quick_models(32);
        let ds = DatasetBuilder::small(33, 8).attack(AttackKind::BtsDos);
        let stream = extract_from_events(&ds.report.events);
        let state = run_per_ue(&models, &MobiWatchConfig::default(), &stream);
        let indices: Vec<u64> = state.scores.iter().map(|(i, _, _)| *i).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted, "per-key scores must be stream-ordered");
    }

    #[test]
    fn released_ues_are_evicted_from_shard_state() {
        let models = quick_models(36);
        let ds = DatasetBuilder::small(37, 12).attack(AttackKind::BtsDos);
        let stream = extract_from_events(&ds.report.events);
        let config = MobiWatchConfig::default();
        let labels = [("detector", config.detector.label())];
        let tracked_keys = |obs: &Obs| obs.gauge("xsec_mobiwatch_tracked_keys", &labels).get();

        // The pool should only still track connections that never saw an
        // RRC release (e.g. admission-rejected setups); everything released
        // — benign teardowns and guard-expired DoS contexts alike — must be
        // evicted.
        let mut open: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for record in &stream.records {
            if record.msg == xsec_proto::MessageKind::RrcRelease {
                open.remove(&record.du_ue_id);
            } else {
                open.insert(record.du_ue_id);
            }
        }
        let distinct: std::collections::HashSet<u32> =
            stream.records.iter().map(|r| r.du_ue_id).collect();
        let obs = Obs::new();
        let (mut pool, _state) = MobiWatch::per_ue(models.clone(), config.clone());
        pool.attach_obs(&obs);
        for chunk in stream.records.chunks(50) {
            pool.process_batch(chunk);
            // The gauge is the deployed reading of the same count.
            assert_eq!(tracked_keys(&obs), pool.tracked_ues() as i64);
        }
        assert_eq!(pool.tracked_ues(), open.len(), "tracked state diverged from open connections");
        assert!(
            pool.tracked_ues() < distinct.len() / 2,
            "eviction barely fired: {} tracked of {} distinct",
            pool.tracked_ues(),
            distinct.len()
        );

        // The global window is one key, never released.
        let obs = Obs::new();
        let (mut global, _state) = MobiWatch::new(models, config);
        global.attach_obs(&obs);
        assert_eq!(tracked_keys(&obs), 0);
        for chunk in stream.records.chunks(50) {
            global.process_batch(chunk);
            assert_eq!(tracked_keys(&obs), 1);
        }
    }

    #[test]
    fn detections_are_batch_invariant_under_churn() {
        use xsec_ran::{StreamConfig, StreamingScenario};
        use xsec_types::Duration;

        // A stream where UEs register, hand over between cells, and retire
        // mid-run — slab slots and DU ranges churn constantly.
        let mut engine = StreamingScenario::new(StreamConfig {
            seed: 41,
            cells: 3,
            total_ues: 50,
            mean_inter_arrival: Duration::from_millis(4),
            mobility_fraction: 0.5,
            max_handovers: 2,
            max_live: 24,
            ..StreamConfig::default()
        });
        let stream = crate::scale::drained(&mut engine);
        assert!(engine.stats().handovers > 0, "churn stream must hand over");

        let models = quick_models(38);
        let config = MobiWatchConfig::default();
        let reference = run_per_ue(&models, &config, &stream);
        assert!(!reference.scores.is_empty(), "churn stream must produce scores");
        // Detections do not depend on how the stream was cut into batches:
        // a UE released and recycled mid-batch scores as it does record at
        // a time.
        for chunk in [1, 240, stream.records.len()] {
            let other = run_chunked(&models, &config, chunk, &stream);
            assert_eq!(reference.scores, other.scores, "batches of {chunk}");
            assert_eq!(reference.alerts.len(), other.alerts.len(), "batches of {chunk}");
            for (a, b) in reference.alerts.iter().zip(&other.alerts) {
                assert_eq!(a.at_record, b.at_record, "batches of {chunk}");
                assert_eq!(a.records, b.records, "batches of {chunk}");
            }
        }
    }

    #[test]
    fn per_ue_truth_matches_emission_accounting() {
        let models = quick_models(34);
        let ds = DatasetBuilder::small(35, 8).attack(AttackKind::NullCipher);
        let stream = extract_from_events(&ds.report.events);
        for detector in [Detector::Autoencoder, Detector::Lstm] {
            let config = MobiWatchConfig { detector, ..MobiWatchConfig::default() };
            let state = run_per_ue(&models, &config, &stream);
            let span = detector.span(models.feature_config.window);
            let truth = window_truth(&stream, span, |r| window_key(true, r));
            assert_eq!(
                state.scores.len(),
                truth.len(),
                "{detector:?}: emission accounting diverged from truth helper"
            );
        }
    }
}
