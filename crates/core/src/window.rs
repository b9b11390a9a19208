//! The one window core: per-key sliding-window state, the scoring rule, and
//! the stream-ordered emission of scores and alerts.
//!
//! Detection has two halves. *Scoring* is per key: a [`WindowCore`] is one
//! key's feature ring plus its cooldown clock, and [`WindowCore::push`] is
//! the only place a window is scored, thresholded, and rate-limited.
//! [`MobiWatch`](crate::mobiwatch::MobiWatch) holds one core — the paper's
//! global window is "one key" — and each shard of the
//! [`ShardedMobiWatch`](crate::shard::ShardedMobiWatch) pool holds a map of
//! them, one per `du_ue_id`. *Emission* is global: [`Ingest`] owns what must
//! follow stream order whatever the keying — relational featurization,
//! flight events, the shared inspection state, and alert context — so both
//! xApps produce the same artifacts from the same verdicts.

use crate::mobiwatch::{AnomalyAlert, Detector, MobiWatchConfig, MobiWatchState};
use crate::smo::DeployedModels;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;
use xsec_dl::{FeatureRing, Featurizer, Workspace, FEATURES_PER_RECORD};
use xsec_mobiflow::{encode_ue_record, TelemetryStream, UeMobiFlow};
use xsec_obs::{
    Counter, FlightEvent, FlightRecorder, FlightRing, Histogram, Obs, TraceStage,
};
use xsec_ric::XAppContext;

/// MobiWatch's per-stage instruments, labelled by the detector in force.
#[derive(Debug, Clone)]
struct WatchMetrics {
    featurize_latency: Histogram,
    inference_latency: Histogram,
    alerts: Counter,
}

impl WatchMetrics {
    fn register(obs: &Obs, detector: Detector) -> Self {
        let labels = &[("detector", detector.label())];
        WatchMetrics {
            featurize_latency: obs.histogram("xsec_mobiwatch_featurize_latency_us", labels),
            inference_latency: obs.histogram("xsec_mobiwatch_inference_latency_us", labels),
            alerts: obs.counter("xsec_mobiwatch_alerts_total", labels),
        }
    }
}

/// What every key's window is scored with: the deployed models (one
/// read-only copy shared by every fork), the detector / cooldown in force,
/// the instruments, and a scoring workspace. One per scoring thread.
pub(crate) struct Scorer {
    models: Arc<DeployedModels>,
    config: MobiWatchConfig,
    metrics: WatchMetrics,
    workspace: Workspace,
}

impl Scorer {
    /// A scorer over the same models, config, and instruments with its own
    /// workspace — what each shard thread scores with.
    pub(crate) fn fork(&self) -> Scorer {
        Scorer {
            models: Arc::clone(&self.models),
            config: self.config.clone(),
            metrics: self.metrics.clone(),
            workspace: Workspace::new(),
        }
    }

    /// The sliding-window length in force.
    pub(crate) fn window(&self) -> usize {
        self.models.feature_config.window
    }

    /// How often the scoring workspace had to grow a buffer.
    pub(crate) fn workspace_grow_events(&self) -> usize {
        self.workspace.grow_events()
    }
}

/// What one completed window scored.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Verdict {
    pub(crate) score: f32,
    pub(crate) threshold: f32,
    pub(crate) flagged: bool,
    /// Flagged *and* outside the key's publish cooldown: raise an alert.
    pub(crate) publish: bool,
}

/// One key's sliding-window detection state. Deliberately small: alert
/// context comes from [`Ingest`]'s global record tail, so a core keeps only
/// what scoring needs.
pub(crate) struct WindowCore {
    ring: FeatureRing,
    seen: u64,
    last_publish: Option<u64>,
}

impl WindowCore {
    /// Fresh state for a `window`-record detector, reusing a ring from
    /// `pool` when one is free so churning keys don't reallocate the
    /// (large) flat feature buffer.
    pub(crate) fn new(window: usize, pool: &mut Vec<FeatureRing>) -> Self {
        // The LSTM consumes window + 1 rows (sequence plus predicted step).
        let ring = pool
            .pop()
            .unwrap_or_else(|| FeatureRing::new(FEATURES_PER_RECORD, window + 1));
        WindowCore { ring, seen: 0, last_publish: None }
    }

    /// Drops the state, returning its ring to `pool`.
    pub(crate) fn retire(mut self, pool: &mut Vec<FeatureRing>) {
        self.ring.clear();
        pool.push(self.ring);
    }

    /// Appends one record's features and scores the window it completes
    /// (`None` while the key is still filling its first window). Scoring
    /// happens for every window; `publish` additionally respects the
    /// cooldown, counted in the key's own records so it is invariant in
    /// what other keys are doing. `trace` (0 = unknown here) becomes the
    /// inference-latency exemplar.
    pub(crate) fn push(
        &mut self,
        scorer: &mut Scorer,
        features: &[f32],
        trace: u64,
    ) -> Option<Verdict> {
        self.ring.push(features);
        self.seen += 1;
        let n = scorer.window();
        let detector = scorer.config.detector;
        let span = detector.span(n);
        if self.ring.len() < span {
            return None;
        }
        let start = Instant::now();
        let span = self.ring.last_n(span);
        let (score, threshold) = match detector {
            Detector::Autoencoder => (
                scorer.models.autoencoder.score_window(span, &mut scorer.workspace),
                scorer.models.ae_threshold,
            ),
            Detector::Lstm => {
                let (window_flat, next) = span.split_at(n * FEATURES_PER_RECORD);
                (
                    scorer.models.lstm.score_window(window_flat, next, &mut scorer.workspace),
                    scorer.models.lstm_threshold,
                )
            }
        };
        scorer.metrics.inference_latency.observe_duration_with_exemplar(start.elapsed(), trace);

        let flagged = threshold.is_anomalous(score);
        // Cooldown: one alert per burst, not one per window.
        let cooldown = scorer.config.publish_cooldown as u64;
        let cooling = self.last_publish.is_some_and(|last| self.seen - last < cooldown);
        let publish = flagged && !cooling;
        if publish {
            self.last_publish = Some(self.seen);
        }
        Some(Verdict { score, threshold: threshold.value, flagged, publish })
    }
}

/// The stream-ordered half of detection, run on the thread that owns record
/// order. Everything it produces is a pure function of the global record
/// sequence and the verdicts — which is why detections and incident traces
/// are invariant in how scoring was keyed or sharded.
pub(crate) struct Ingest {
    pub(crate) scorer: Scorer,
    featurizer: Featurizer,
    seen: u64,
    /// Trailing records of the *global* stream, for alert context only,
    /// eagerly capped at what an alert can reference (context + window).
    pub(crate) tail: VecDeque<UeMobiFlow>,
    state: Arc<Mutex<MobiWatchState>>,
    recorder: FlightRecorder,
    flight: FlightRing,
}

impl Ingest {
    /// Builds the ingest half with private (silent) instruments; returns
    /// the shared state handle for post-run inspection.
    pub(crate) fn new(
        models: DeployedModels,
        config: MobiWatchConfig,
    ) -> (Self, Arc<Mutex<MobiWatchState>>) {
        let state = Arc::new(Mutex::new(MobiWatchState::default()));
        let metrics = WatchMetrics::register(&Obs::new(), config.detector);
        let recorder = FlightRecorder::new();
        let flight = recorder.ring();
        let ingest = Ingest {
            scorer: Scorer {
                models: Arc::new(models),
                config,
                metrics,
                workspace: Workspace::new(),
            },
            featurizer: Featurizer::new(),
            seen: 0,
            tail: VecDeque::new(),
            state: state.clone(),
            recorder,
            flight,
        };
        (ingest, state)
    }

    /// Re-homes the instruments into `obs`'s registry and flight recording
    /// into `obs`'s recorder. Samples do not carry over.
    pub(crate) fn attach_obs(&mut self, obs: &Obs) {
        self.scorer.metrics = WatchMetrics::register(obs, self.scorer.config.detector);
        self.recorder = obs.recorder.clone();
        self.flight = self.recorder.ring();
    }

    /// Records featurized so far — the next record's global index.
    pub(crate) fn seen(&self) -> u64 {
        self.seen
    }

    /// Featurizes the stream's next record into `out` and returns its
    /// global index. Strictly sequential: the relational features (TMSI
    /// reuse, inter-arrival gaps, burst density) are stream-level state.
    pub(crate) fn featurize(&mut self, record: &UeMobiFlow, out: &mut Vec<f32>) -> u64 {
        let start = Instant::now();
        self.featurizer.encode_record_into(record, out);
        self.scorer.metrics.featurize_latency.observe_duration(start.elapsed());
        self.seen += 1;
        self.seen - 1
    }

    /// The causal trace the E2 agent rooted for `record` (0 = untraced).
    pub(crate) fn trace_for(&self, record: &UeMobiFlow) -> u64 {
        self.recorder.trace_for(record.msg_id)
    }

    /// Appends `record` to the alert-context tail. Call in stream order,
    /// before emitting the verdict of the window the record completes.
    pub(crate) fn remember(&mut self, record: &UeMobiFlow) {
        if self.tail.len() == self.scorer.config.context_records + self.scorer.window() {
            self.tail.pop_front();
        }
        self.tail.push_back(record.clone());
    }

    /// Logs the verdict of the window `record` (global `index`) completed:
    /// the inference span, the `(index, score, flagged)` row, and — when
    /// the verdict says publish — the alert with the stream's trailing
    /// window + context attached, its trace frozen as an incident.
    pub(crate) fn emit(
        &mut self,
        record: &UeMobiFlow,
        index: u64,
        trace: u64,
        verdict: Verdict,
    ) -> Option<AnomalyAlert> {
        let span = |stage| FlightEvent {
            trace,
            stage,
            at_us: record.timestamp.as_micros(),
            a: u64::from(verdict.score.to_bits()),
            b: u64::from(verdict.threshold.to_bits()),
        };
        self.flight.record(span(TraceStage::Inference));
        let mut state = self.state.lock();
        state.scores.push((index, verdict.score, verdict.flagged));
        if !verdict.publish {
            return None;
        }
        let alert = AnomalyAlert {
            trace,
            at_record: index,
            at_time: record.timestamp,
            score: verdict.score,
            threshold: verdict.threshold,
            records: self.tail.iter().map(encode_ue_record).collect(),
        };
        // A detection fired: freeze this trace's causal slice and append the
        // alert span to it.
        self.recorder.mark_incident(trace);
        self.recorder.record_stage(span(TraceStage::Alert));
        state.alerts.push(alert.clone());
        self.scorer.metrics.alerts.inc();
        Some(alert)
    }

    /// Publishes one alert on the configured topic for the analyzer.
    pub(crate) fn publish(&self, ctx: &XAppContext<'_>, alert: &AnomalyAlert) {
        let payload = serde_json::to_vec(alert).expect("alert serializes");
        ctx.publish(&self.scorer.config.publish_topic, &payload);
    }
}

/// Ground truth aligned with the detector's emissions.
///
/// Mirrors [`WindowCore`]'s accounting over the labeled stream: walking
/// records in order, a window completes at record `i` once `key(record)`
/// has accumulated `span` records ([`Detector::span`]), and it is anomalous
/// if *any* of the key's last `span` records is attack-labeled — the
/// paper's labeling rule. A constant key is the global sliding window;
/// `|r| r.du_ue_id` is the sharded pool's per-UE windows.
pub fn window_truth<K: Hash + Eq>(
    stream: &TelemetryStream,
    span: usize,
    key: impl Fn(&UeMobiFlow) -> K,
) -> Vec<bool> {
    let mut per_key: HashMap<K, VecDeque<bool>> = HashMap::new();
    let mut truth = Vec::new();
    for (record, label) in stream.records.iter().zip(&stream.labels) {
        let labels = per_key.entry(key(record)).or_default();
        if labels.len() == span {
            labels.pop_front();
        }
        labels.push_back(label.attack_kind().is_some());
        if labels.len() == span {
            truth.push(labels.iter().any(|&a| a));
        }
    }
    truth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobiwatch::MobiWatch;
    use crate::shard::ShardedMobiWatch;
    use crate::smo::quick_models;
    use xsec_attacks::DatasetBuilder;
    use xsec_dl::FeatureConfig;
    use xsec_mobiflow::extract_from_events;
    use xsec_types::AttackKind;

    #[test]
    fn global_window_is_the_one_key_case_of_the_sharded_pool() {
        // The equivalence the shared core rests on: over a single-UE stream
        // the global window and the per-UE window are the same window, so
        // MobiWatch and a pool of any width must agree on every artifact.
        let ds = DatasetBuilder::small(41, 10).attack(AttackKind::NullCipher);
        let stream = extract_from_events(&ds.report.events);
        let mut sizes: HashMap<u32, usize> = HashMap::new();
        for record in &stream.records {
            *sizes.entry(record.du_ue_id).or_default() += 1;
        }
        let (&ue, &len) = sizes.iter().max_by_key(|(ue, len)| (**len, **ue)).unwrap();
        let records: Vec<UeMobiFlow> =
            stream.records.iter().filter(|r| r.du_ue_id == ue).cloned().collect();
        assert!(len > 8, "longest session has only {len} records");

        // Flag every window so the alert path (cooldown, context lines)
        // is compared too, not just the scores.
        let mut models = quick_models(40);
        models.ae_threshold.value = 0.0;
        models.lstm_threshold.value = 0.0;
        for detector in [Detector::Autoencoder, Detector::Lstm] {
            let config =
                MobiWatchConfig { detector, publish_cooldown: 3, ..MobiWatchConfig::default() };
            let (mut watch, global) = MobiWatch::new(models.clone(), config.clone());
            for record in &records {
                watch.process_record(record);
            }
            let global = global.lock();
            assert_eq!(global.scores.len(), len + 1 - detector.span(4), "{detector:?}");
            assert!(global.alerts.len() > 1, "{detector:?}: cooldown path not exercised");
            for shards in [1, 3] {
                let (mut pool, sharded) =
                    ShardedMobiWatch::new(models.clone(), config.clone(), shards);
                for chunk in records.chunks(5) {
                    pool.process_batch(chunk);
                }
                let sharded = sharded.lock();
                let bits = |scores: &[(u64, f32, bool)]| -> Vec<(u64, u32, bool)> {
                    scores.iter().map(|(i, s, f)| (*i, s.to_bits(), *f)).collect()
                };
                assert_eq!(bits(&global.scores), bits(&sharded.scores), "{detector:?}/{shards}");
                assert_eq!(global.alerts.len(), sharded.alerts.len(), "{detector:?}/{shards}");
                for (a, b) in global.alerts.iter().zip(&sharded.alerts) {
                    assert_eq!(a.at_record, b.at_record);
                    assert_eq!(a.score.to_bits(), b.score.to_bits());
                    assert_eq!(a.threshold.to_bits(), b.threshold.to_bits());
                    assert_eq!(a.records, b.records, "context lines diverge");
                }
            }
        }
    }

    #[test]
    fn forks_share_one_copy_of_the_models() {
        let (ingest, _) = Ingest::new(quick_models(40), MobiWatchConfig::default());
        let (a, b) = (ingest.scorer.fork(), ingest.scorer.fork());
        assert!(Arc::ptr_eq(&a.models, &b.models));
        assert!(Arc::ptr_eq(&a.models, &ingest.scorer.models));
    }

    #[test]
    fn constant_key_truth_is_the_featurizers_window_labels() {
        let ds = DatasetBuilder::small(43, 8).attack(AttackKind::BtsDos);
        let stream = extract_from_events(&ds.report.events);
        assert!(stream.attack_count() > 0, "stream must carry attack labels");
        for window in [1, 4, 7] {
            let dataset = Featurizer::encode_stream(&FeatureConfig { window }, &stream);
            let global = |detector: Detector| window_truth(&stream, detector.span(window), |_| ());
            assert_eq!(global(Detector::Autoencoder), dataset.window_labels());
            assert_eq!(global(Detector::Lstm), dataset.lstm_labels());
        }
    }
}
