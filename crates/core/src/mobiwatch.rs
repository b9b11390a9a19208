//! The MOBIWATCH xApp: unsupervised anomaly detection in the near-RT loop.
//!
//! Consumes MobiFlow telemetry from E2 indications, maintains the sliding
//! windows over the live stream, scores each window with the deployed model,
//! and — when a window exceeds the threshold — publishes the window plus its
//! context to the `anomalies` topic for the LLM analyzer (§3.3: MobiWatch is
//! the pre-filter that keeps the expensive model out of the hot path).
//!
//! Featurization and emission stay **global and sequential** on the calling
//! thread: the relational features (TMSI reuse, inter-arrival gaps, burst
//! density), the alert context, the flight events and the shared state are
//! functions of the global record sequence and the verdicts, so detections
//! and incident traces do not depend on how scoring was keyed, sharded or
//! batched. Windowing and scoring are **per key** over a pool of shards;
//! each key (`window::window_key`) hashes to one shard, which keeps its
//! windows and alert cooldown. [`MobiWatch::new`] is the paper's global
//! window: one key, one shard. [`MobiWatch::per_ue`] keys by `du_ue_id` and
//! evicts a UE at its RRC release; its detections are invariant in the shard
//! count. Per batch, every busy shard but one goes to a worker thread (state
//! travels with the work) and the last is scored on the calling thread, so
//! a batch that touches one shard — always, with one shard — costs no
//! hand-off. Verdicts merge by global record index.

use crate::mitigator::ANOMALIES_TOPIC;
use crate::smo::DeployedModels;
use crate::window::{window_key, Scorer, Verdict, WatchMetrics};
use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use xsec_dl::{Featurizer, Precision};
use xsec_mobiflow::{encode_ue_record, UeMobiFlow};
use xsec_obs::{FlightEvent, FlightRecorder, FlightRing, Obs, TraceStage};
use xsec_proto::MessageKind;
use xsec_ric::{XApp, XAppContext};
use xsec_types::Timestamp;

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
    /// Minimum records between two published alerts (LLM cost control).
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

/// One alert as published to the analyzer.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// Which shard owns a key. A fixed multiplicative hash keeps the mapping
/// deterministic across runs and spreads sequential IDs.
fn shard_of(key: u32, shards: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B1) as usize) % shards
}

/// A shard on its way to or from a worker, with its position in the pool.
type Forked = (usize, Box<Scorer>);

/// The threads a pool of two or more shards hands busy shards to. They
/// hold no state: a shard arrives with its batch and leaves with its
/// verdicts.
struct Workers {
    to_workers: Sender<Forked>,
    from_workers: Receiver<Forked>,
    threads: Vec<JoinHandle<()>>,
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
    flight: FlightRing,
    /// What every shard is built from: one read-only copy of the models,
    /// the config and the instruments.
    models: Arc<DeployedModels>,
    config: MobiWatchConfig,
    metrics: WatchMetrics,
    per_ue: bool,
    /// Every shard's windows, parked here between batches (a slot is empty
    /// only while its shard is out with a worker).
    shards: Vec<Option<Box<Scorer>>>,
    /// The threads busy shards are handed to: `shards - 1` of them, spawned
    /// on the first batch that needs one.
    workers: Option<Workers>,
    /// The current batch's verdicts, merged across shards.
    verdicts: Vec<(u64, Verdict)>,
}

impl MobiWatch {
    /// The paper's global sliding window: every record under one key, never
    /// released, scored on the calling thread. Returns the shared state
    /// handle for post-run inspection.
    pub fn new(
        models: DeployedModels,
        config: MobiWatchConfig,
    ) -> (Self, Arc<Mutex<MobiWatchState>>) {
        Self::keyed(models, config, false, 1)
    }

    /// The per-UE pool: windows keyed by `du_ue_id`, a UE's state evicted
    /// at its RRC release, over `shards` shards (`shards - 1` worker threads,
    /// spawned lazily). Detections are invariant in `shards`.
    ///
    /// # Panics
    /// If `shards` is zero.
    pub fn per_ue(
        models: DeployedModels,
        config: MobiWatchConfig,
        shards: usize,
    ) -> (Self, Arc<Mutex<MobiWatchState>>) {
        Self::keyed(models, config, true, shards)
    }

    /// [`Self::per_ue`] when `per_ue`, else the global window, over
    /// `shards` shards, with private (silent) instruments.
    pub(crate) fn keyed(
        models: DeployedModels,
        config: MobiWatchConfig,
        per_ue: bool,
        shards: usize,
    ) -> (Self, Arc<Mutex<MobiWatchState>>) {
        assert!(shards > 0, "shard count must be positive");
        let state = Arc::new(Mutex::new(MobiWatchState::default()));
        let recorder = FlightRecorder::new();
        let mut watch = MobiWatch {
            featurizer: Featurizer::new(),
            seen: 0,
            tail: VecDeque::new(),
            state: state.clone(),
            flight: recorder.ring(),
            recorder,
            models: Arc::new(models),
            metrics: WatchMetrics::register(&Obs::new(), config.detector),
            config,
            per_ue,
            shards: (0..shards).map(|_| None).collect(),
            workers: None,
            verdicts: Vec::new(),
        };
        watch.park_fresh_shards();
        (watch, state)
    }

    /// Re-homes the xApp's instruments into `obs`'s registry and its flight
    /// recording into `obs`'s recorder. Call before feeding records
    /// (deployment time) — samples and window state do not carry over.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.metrics = WatchMetrics::register(obs, self.config.detector);
        self.recorder = obs.recorder.clone();
        self.flight = self.recorder.ring();
        self.park_fresh_shards();
    }

    fn park_fresh_shards(&mut self) {
        for slot in &mut self.shards {
            let shard = Scorer::new(self.models.clone(), self.config.clone(), self.metrics.clone());
            *slot = Some(Box::new(shard));
        }
    }

    /// The sliding-window length in force.
    pub fn window(&self) -> usize {
        self.models.feature_config.window
    }

    /// How often the scoring workspaces had to grow a buffer. Stable across
    /// calls once warm at a batch size — the steady-state zero-allocation
    /// guarantee.
    pub fn workspace_grow_events(&self) -> usize {
        self.shards.iter().flatten().map(|shard| shard.workspace_grow_events()).sum()
    }

    /// Keys with live window state: under [`Self::per_ue`] the open
    /// connections, whose growth over a churning stream would be a leak.
    pub fn tracked_ues(&self) -> usize {
        self.shards.iter().flatten().map(|shard| shard.tracked()).sum()
    }

    /// The worker threads, spawned on first use: one busy shard is always
    /// scored on the calling thread, so `shards - 1` can be out at once.
    fn workers(&mut self) -> &Workers {
        let threads = self.shards.len() - 1;
        self.workers.get_or_insert_with(|| {
            let (to_workers, work) = unbounded::<Forked>();
            let (done, from_workers) = unbounded::<Forked>();
            let threads = (0..threads)
                .map(|_| {
                    let (work, done) = (work.clone(), done.clone());
                    std::thread::spawn(move || {
                        while let Ok((id, mut shard)) = work.recv() {
                            // The trace id, like the alert context, is
                            // stamped by the calling thread on merge.
                            shard.score(0);
                            if done.send((id, shard)).is_err() {
                                return; // pool is shutting down
                            }
                        }
                    })
                })
                .collect();
            Workers { to_workers, from_workers, threads }
        })
    }

    /// Feeds one record; returns an alert when the window it completes is
    /// anomalous (alert emission respects the publish cooldown; scoring
    /// happens for every window regardless). The batch of one.
    pub fn process_record(&mut self, record: &UeMobiFlow) -> Option<AnomalyAlert> {
        self.process_batch(std::slice::from_ref(record)).pop()
    }

    /// Feeds one E2 indication's records: featurizes them all, scores every
    /// window they complete in one batched model pass per busy shard, then
    /// thresholds and emits in stream order. Returns the alerts raised.
    /// Scores, alerts and their context are the same — to the bit — however
    /// a stream is cut into batches.
    pub fn process_batch(&mut self, records: &[UeMobiFlow]) -> Vec<AnomalyAlert> {
        let alerts = self.detect(records);
        self.file(alerts.clone());
        alerts
    }

    /// [`Self::process_batch`] up to its alerts, which the caller files.
    fn detect(&mut self, records: &[UeMobiFlow]) -> Vec<AnomalyAlert> {
        let Some(last) = records.last() else {
            return Vec::new();
        };
        // Featurize sequentially (stream-level state), staging each record
        // on its key's shard. An RRC release ends a per-UE key for good —
        // DU ids are never reused within a run — so once the release record
        // itself is scored the UE's window state is dead weight, and a
        // million-UE stream would pin a million rings.
        let first = self.seen;
        let start = Instant::now();
        let count = self.shards.len();
        for record in records {
            let key = window_key(self.per_ue, record);
            let release = self.per_ue && record.msg == MessageKind::RrcRelease;
            let shard = self.shards[shard_of(key, count)].as_mut().expect("parked between batches");
            shard.push(&mut self.featurizer, self.seen, record, key, release);
            self.seen += 1;
        }
        self.metrics.featurize_latency.observe_duration(start.elapsed());
        // Hand off only when there is something to join: the first busy
        // shard is scored right here, any other goes to a worker.
        let mut local = None;
        let mut forked = 0;
        for id in 0..count {
            if !self.shards[id].as_ref().is_some_and(|shard| shard.is_busy()) {
                continue;
            }
            if local.is_none() {
                local = Some(id);
                continue;
            }
            let shard = self.shards[id].take().expect("checked busy");
            self.workers().to_workers.send((id, shard)).expect("workers alive");
            forked += 1;
        }
        let local = local.expect("a non-empty batch has a busy shard");
        // The latency sample's exemplar: the causal trace the E2 agent
        // rooted for the batch's last record.
        let trace = self.recorder.trace_for(last.msg_id);
        self.shards[local].as_mut().expect("never handed off").score(trace);
        for _ in 0..forked {
            let (id, shard) = self.workers().from_workers.recv().expect("worker replies");
            self.shards[id] = Some(shard);
        }
        // Deterministic merge: shard arrival order is per key only; global
        // record index restores the stream order regardless of shard count.
        for shard in self.shards.iter_mut().flatten() {
            self.verdicts.append(&mut shard.verdicts);
        }
        self.verdicts.sort_unstable_by_key(|(index, _)| *index);
        self.emit(records, first)
    }

    /// Walks one batch in stream order (`first` = its first record's global
    /// index), draining the verdicts of the windows its records completed.
    /// Each record joins the alert-context tail, then its verdict is logged:
    /// the inference span, the `(index, score, flagged)` row, and — when the
    /// verdict says publish — the alert with the stream's trailing window +
    /// context *as of that record* attached, its trace frozen as an
    /// incident. Shards can't build the context (each sees only its own
    /// keys), and a per-UE context would hide stream-level signatures like a
    /// storm of one-shot connections. The alerts are returned, not yet in
    /// the shared state: the caller [`Self::file`]s them.
    fn emit(&mut self, records: &[UeMobiFlow], first: u64) -> Vec<AnomalyAlert> {
        let keep = self.config.context_records + self.window();
        let mut alerts = Vec::new();
        let mut verdicts = self.verdicts.drain(..).peekable();
        let mut state = self.state.lock();
        for (record, index) in records.iter().zip(first..) {
            if self.tail.len() == keep {
                self.tail.pop_front();
            }
            self.tail.push_back(record.clone());
            let Some((_, verdict)) = verdicts.next_if(|(scored, _)| *scored == index) else {
                continue;
            };
            let trace = self.recorder.trace_for(record.msg_id);
            let span = |stage| FlightEvent {
                trace,
                stage,
                at_us: record.timestamp.as_micros(),
                a: u64::from(verdict.score.to_bits()),
                b: u64::from(verdict.threshold.to_bits()),
            };
            self.flight.record(span(TraceStage::Inference));
            state.scores.push((index, verdict.score, verdict.flagged));
            if !verdict.publish {
                continue;
            }
            let alert = AnomalyAlert {
                trace,
                at_record: index,
                at_time: record.timestamp,
                score: verdict.score,
                threshold: verdict.threshold,
                records: self.tail.iter().map(encode_ue_record).collect(),
            };
            // A detection fired: freeze this trace's causal slice and append
            // the alert span to it.
            self.recorder.mark_incident(trace);
            self.recorder.record_stage(span(TraceStage::Alert));
            self.metrics.alerts.inc();
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

impl Drop for MobiWatch {
    fn drop(&mut self) {
        if let Some(Workers { to_workers, threads, .. }) = self.workers.take() {
            drop(to_workers); // hang up: workers exit on channel close
            for thread in threads {
                let _ = thread.join();
            }
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
            let payload = serde_json::to_vec(alert).expect("alert serializes");
            ctx.publish(ANOMALIES_TOPIC, &payload);
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
    /// [`MobiWatch::per_ue`].
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        models: DeployedModels,
        config: MobiWatchConfig,
        shards: usize,
    ) -> (MobiWatch, Arc<Mutex<MobiWatchState>>) {
        MobiWatch::per_ue(models, config, shards)
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

    #[test]
    fn every_shard_shares_one_copy_of_the_models() {
        let (mut watch, _) = MobiWatch::per_ue(quick_models(40), MobiWatchConfig::default(), 3);
        watch.attach_obs(&Obs::new());
        assert_eq!(watch.shards.len(), 3);
        for shard in watch.shards.iter().flatten() {
            assert!(Arc::ptr_eq(&shard.models, &watch.models));
        }
    }

    fn run_sharded(
        models: &DeployedModels,
        config: &MobiWatchConfig,
        shards: usize,
        stream: &TelemetryStream,
    ) -> MobiWatchState {
        // An odd batch size exercises the fork/join on uneven boundaries.
        run_chunked(models, config, shards, 23, stream)
    }

    fn run_chunked(
        models: &DeployedModels,
        config: &MobiWatchConfig,
        shards: usize,
        chunk: usize,
        stream: &TelemetryStream,
    ) -> MobiWatchState {
        let (mut pool, state) = MobiWatch::per_ue(models.clone(), config.clone(), shards);
        for chunk in stream.records.chunks(chunk) {
            pool.process_batch(chunk);
        }
        drop(pool);
        Arc::try_unwrap(state).expect("pool dropped").into_inner()
    }

    #[test]
    fn alert_and_score_sets_are_shard_count_invariant() {
        let models = quick_models(30);
        let config = MobiWatchConfig::default();
        let ds = DatasetBuilder::small(31, 10).attack(AttackKind::NullCipher);
        let stream = extract_from_events(&ds.report.events);

        let single = run_sharded(&models, &config, 1, &stream);
        let quad = run_sharded(&models, &config, 4, &stream);

        assert!(!single.scores.is_empty(), "stream must produce scores");
        assert_eq!(single.scores, quad.scores, "scores must not depend on shard count");
        assert_eq!(single.alerts.len(), quad.alerts.len());
        for (a, b) in single.alerts.iter().zip(&quad.alerts) {
            assert_eq!(a.at_record, b.at_record);
            assert_eq!(a.score, b.score);
            assert_eq!(a.records, b.records);
        }
    }

    #[test]
    fn scores_arrive_in_global_record_order() {
        let models = quick_models(32);
        let ds = DatasetBuilder::small(33, 8).attack(AttackKind::BtsDos);
        let stream = extract_from_events(&ds.report.events);
        let state = run_sharded(&models, &MobiWatchConfig::default(), 3, &stream);
        let indices: Vec<u64> = state.scores.iter().map(|(i, _, _)| *i).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted, "merged scores must be stream-ordered");
    }

    #[test]
    fn released_ues_are_evicted_from_shard_state() {
        let models = quick_models(36);
        let ds = DatasetBuilder::small(37, 12).attack(AttackKind::BtsDos);
        let stream = extract_from_events(&ds.report.events);

        let (mut pool, _state) = MobiWatch::per_ue(models.clone(), MobiWatchConfig::default(), 3);
        for chunk in stream.records.chunks(50) {
            pool.process_batch(chunk);
        }

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
        assert_eq!(
            pool.tracked_ues(),
            open.len(),
            "tracked state diverged from open connections"
        );
        assert!(
            pool.tracked_ues() < distinct.len() / 2,
            "eviction barely fired: {} tracked of {} distinct",
            pool.tracked_ues(),
            distinct.len()
        );
        drop(pool);
    }

    #[test]
    fn detections_are_shard_invariant_under_churn() {
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
        let single = run_sharded(&models, &config, 1, &stream);
        let quad = run_sharded(&models, &config, 4, &stream);

        assert!(!single.scores.is_empty(), "churn stream must produce scores");
        assert_eq!(single.scores, quad.scores, "churn broke shard invariance");
        assert_eq!(single.alerts.len(), quad.alerts.len());
        for (a, b) in single.alerts.iter().zip(&quad.alerts) {
            assert_eq!(a.at_record, b.at_record);
            assert_eq!(a.records, b.records);
        }
        // Nor on how the stream was cut into batches: a UE released and
        // recycled mid-batch scores as it does record at a time.
        for (shards, chunk) in [(1, 1), (4, 1), (1, 240), (4, stream.records.len())] {
            let other = run_chunked(&models, &config, shards, chunk, &stream);
            assert_eq!(single.scores, other.scores, "{shards} shards, batches of {chunk}");
            let positions = |s: &MobiWatchState| -> Vec<u64> {
                s.alerts.iter().map(|a| a.at_record).collect()
            };
            assert_eq!(positions(&single), positions(&other), "{shards} shards/{chunk}");
        }
    }

    #[test]
    fn one_busy_shard_is_scored_without_a_hand_off() {
        let models = quick_models(39);
        let ds = DatasetBuilder::small(31, 4).benign();
        let stream = extract_from_events(&ds.events);
        let (mut pool, state) = MobiWatch::per_ue(models.clone(), MobiWatchConfig::default(), 1);
        assert!(pool.process_batch(&[]).is_empty());
        // A 1-shard pool never has anyone to hand work to.
        for chunk in stream.records.chunks(23) {
            pool.process_batch(chunk);
        }
        assert!(pool.workers.is_none(), "a 1-shard pool spawned a worker");
        assert!(!state.lock().scores.is_empty());
        // A wider pool spawns no thread for batches that touch one shard,
        // and parks every shard again after each batch, forked or not, with
        // nothing left in flight.
        let (mut pool, _state) = MobiWatch::per_ue(models, MobiWatchConfig::default(), 3);
        for chunk in stream.records.chunks(1).chain(stream.records.chunks(50)) {
            assert!(chunk.len() > 1 || pool.workers.is_none(), "a lone record was handed off");
            pool.process_batch(chunk);
            for shard in &pool.shards {
                let shard = shard.as_ref().expect("parked");
                assert!(!shard.is_busy() && shard.verdicts.is_empty());
            }
        }
        assert_eq!(pool.workers.as_ref().map(|w| w.threads.len()), Some(2));
    }

    #[test]
    fn per_ue_truth_matches_emission_accounting() {
        let models = quick_models(34);
        let ds = DatasetBuilder::small(35, 8).attack(AttackKind::NullCipher);
        let stream = extract_from_events(&ds.report.events);
        for detector in [Detector::Autoencoder, Detector::Lstm] {
            let config = MobiWatchConfig { detector, ..MobiWatchConfig::default() };
            let state = run_sharded(&models, &config, 2, &stream);
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
