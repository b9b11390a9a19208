//! The one window core: how a record is keyed, per-key sliding-window state
//! and the scoring rule.
//!
//! Scoring is per key, in three steps per E2 indication, all inside
//! [`Scorer::score`]: **stage** — each record's features go into its key's
//! [`WindowCore`] ring and the span they complete is copied into the batch
//! buffer; **flush** — one batched model pass over every staged span (one
//! GEMM per layer per indication, not one GEMV per window); **judge** —
//! threshold and per-key cooldown, in staging order. The kernels make a
//! window's score independent of its batch, so how a stream is cut into
//! indications moves no verdict. [`window_key`] is the keying: one global
//! key for the paper's window, `du_ue_id` for the per-UE pool. What must
//! follow stream order whatever the keying — relational featurization,
//! flight events, the shared inspection state and alert context — is
//! [`MobiWatch`](crate::mobiwatch::MobiWatch)'s.

use crate::mobiwatch::{Detector, MobiWatchConfig};
use crate::smo::DeployedModels;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;
use xsec_dl::{FeatureRing, Featurizer, Threshold, Workspace, FEATURES_PER_RECORD};
use xsec_mobiflow::{TelemetryStream, UeMobiFlow};
use xsec_obs::{Counter, Histogram, Obs};

/// The window `record` belongs to: its `du_ue_id` under per-UE keying, one
/// global key (0) otherwise. [`MobiWatch`](crate::mobiwatch::MobiWatch)
/// scores by it, and `Pipeline::evaluate` passes it to [`window_truth`].
pub(crate) fn window_key(per_ue: bool, record: &UeMobiFlow) -> u32 {
    if per_ue {
        record.du_ue_id
    } else {
        0
    }
}

/// MobiWatch's per-stage instruments, labelled by the detector in force.
#[derive(Debug, Clone)]
pub(crate) struct WatchMetrics {
    pub(crate) featurize_latency: Histogram,
    inference_latency: Histogram,
    pub(crate) alerts: Counter,
}

impl WatchMetrics {
    pub(crate) fn register(obs: &Obs, detector: Detector) -> Self {
        let labels = &[("detector", detector.label())];
        WatchMetrics {
            featurize_latency: obs.histogram("xsec_mobiwatch_featurize_latency_us", labels),
            inference_latency: obs.histogram("xsec_mobiwatch_inference_latency_us", labels),
            alerts: obs.counter("xsec_mobiwatch_alerts_total", labels),
        }
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
/// context comes from MobiWatch's global record tail, so a core keeps only
/// what scoring needs.
struct WindowCore {
    ring: FeatureRing,
    /// Windows judged so far — the cooldown's clock.
    judged: u64,
    last_publish: Option<u64>,
}

impl WindowCore {
    fn new(window: usize) -> Self {
        // The LSTM consumes window + 1 rows (sequence plus predicted step).
        let ring = FeatureRing::new(FEATURES_PER_RECORD, window + 1);
        WindowCore { ring, judged: 0, last_publish: None }
    }

    /// Forgets the key but keeps the (large) flat feature buffer, so
    /// churning keys don't reallocate it.
    fn reset(&mut self) {
        self.ring.clear();
        self.judged = 0;
        self.last_publish = None;
    }

    /// Appends one record's features and, once the key has filled its first
    /// `span`-record window, copies the span the record completes onto
    /// `spans`. Returns whether it did; every staged span is owed one
    /// [`WindowCore::judge`], in staging order.
    fn stage(&mut self, features: &[f32], span: usize, spans: &mut Vec<f32>) -> bool {
        self.ring.push(features);
        if self.ring.len() < span {
            return false;
        }
        spans.extend_from_slice(self.ring.last_n(span));
        true
    }

    /// Thresholds the score of this key's next staged window. Every window
    /// is judged; `publish` additionally respects the cooldown, counted in
    /// the key's own windows (one per record once the first has filled) so
    /// it is invariant in what other keys are doing and in how the stream
    /// was batched.
    fn judge(&mut self, score: f32, threshold: Threshold, cooldown: u64) -> Verdict {
        let flagged = threshold.is_anomalous(score);
        self.judged += 1;
        // Cooldown: one alert per burst, not one per window.
        let cooling = self.last_publish.is_some_and(|last| self.judged - last < cooldown);
        let publish = flagged && !cooling;
        if publish {
            self.last_publish = Some(self.judged);
        }
        Verdict { score, threshold: threshold.value, flagged, publish }
    }
}

/// One shard of MobiWatch's pool — what a set of keyed windows is scored
/// with and where they live: the deployed models (one read-only copy shared
/// by every shard), the detector / cooldown in force, the instruments, a
/// scoring workspace, one core per live key, and the batch in flight.
/// Self-contained, so any thread can score it.
pub(crate) struct Scorer {
    pub(crate) models: Arc<DeployedModels>,
    config: MobiWatchConfig,
    metrics: WatchMetrics,
    workspace: Workspace,
    /// Cores by slot; a free slot keeps its ring for the next key.
    cores: Vec<WindowCore>,
    by_key: HashMap<u32, usize>,
    free: Vec<usize>,
    /// This batch's `(global record index, key, release)`s in stream order,
    /// and their features, one flat row each.
    work: Vec<(u64, u32, bool)>,
    features: Vec<f32>,
    /// `(global record index, core slot)` of each window staged this batch,
    /// their spans back to back (≤ records × span floats: the batched
    /// pass's input) and, once flushed, their scores.
    staged: Vec<(u64, usize)>,
    spans: Vec<f32>,
    scores: Vec<f32>,
    /// Slots of keys released this batch.
    released: Vec<usize>,
    /// `(global record index, verdict)` in arrival order, for the caller to
    /// drain.
    pub(crate) verdicts: Vec<(u64, Verdict)>,
}

impl Scorer {
    pub(crate) fn new(
        models: Arc<DeployedModels>,
        config: MobiWatchConfig,
        metrics: WatchMetrics,
    ) -> Self {
        Scorer {
            models,
            config,
            metrics,
            workspace: Workspace::new(),
            cores: Vec::new(),
            by_key: HashMap::new(),
            free: Vec::new(),
            work: Vec::new(),
            features: Vec::new(),
            staged: Vec::new(),
            spans: Vec::new(),
            scores: Vec::new(),
            released: Vec::new(),
            verdicts: Vec::new(),
        }
    }

    /// Adds the stream's record `index` to the batch under `key`. A
    /// `release` ends the key: its state is dropped once this record's
    /// window is judged.
    pub(crate) fn push(
        &mut self,
        featurizer: &mut Featurizer,
        index: u64,
        record: &UeMobiFlow,
        key: u32,
        release: bool,
    ) {
        featurizer.append_record(record, &mut self.features);
        self.work.push((index, key, release));
    }

    /// Whether the batch holds any records.
    pub(crate) fn is_busy(&self) -> bool {
        !self.work.is_empty()
    }

    /// Keys with live window state.
    pub(crate) fn tracked(&self) -> usize {
        self.by_key.len()
    }

    /// How often the scoring workspace had to grow a buffer.
    pub(crate) fn workspace_grow_events(&self) -> usize {
        self.workspace.grow_events()
    }

    /// Scores the batch into `verdicts`: stage every record on its key's
    /// core, flush once, judge in staging order. `trace` (0 = unknown here)
    /// is the latency sample's exemplar.
    pub(crate) fn score(&mut self, trace: u64) {
        let (window, detector) = (self.models.feature_config.window, self.config.detector);
        let span = detector.span(window);
        for ((index, key, release), row) in
            self.work.drain(..).zip(self.features.chunks_exact(FEATURES_PER_RECORD))
        {
            let slot = *self.by_key.entry(key).or_insert_with(|| {
                self.free.pop().unwrap_or_else(|| {
                    self.cores.push(WindowCore::new(window));
                    self.cores.len() - 1
                })
            });
            if self.cores[slot].stage(row, span, &mut self.spans) {
                self.staged.push((index, slot));
            }
            // The key is forgotten now — whatever the batching, a later
            // record under it starts afresh — and the slot recycled once
            // its last window is judged.
            if release {
                self.by_key.remove(&key);
                self.released.push(slot);
            }
        }
        self.features.clear();
        self.flush(trace);
        let threshold = match detector {
            Detector::Autoencoder => self.models.ae_threshold,
            Detector::Lstm => self.models.lstm_threshold,
        };
        let cooldown = self.config.publish_cooldown as u64;
        for ((index, slot), &score) in self.staged.drain(..).zip(&self.scores) {
            self.verdicts.push((index, self.cores[slot].judge(score, threshold, cooldown)));
        }
        for slot in self.released.drain(..) {
            self.cores[slot].reset();
            self.free.push(slot);
        }
    }

    /// Scores every staged span in one batched model pass. One
    /// inference-latency sample per call that scored anything.
    fn flush(&mut self, trace: u64) {
        if self.spans.is_empty() {
            return;
        }
        let start = Instant::now();
        let Scorer { models, config, metrics, workspace, spans, scores, .. } = self;
        match config.detector {
            Detector::Autoencoder => models.autoencoder.score_spans(spans, workspace, scores),
            Detector::Lstm => {
                models.lstm.score_spans(spans, models.feature_config.window, workspace, scores)
            }
        }
        spans.clear();
        metrics.inference_latency.observe_duration_with_exemplar(start.elapsed(), trace);
    }
}

/// Ground truth aligned with the detector's emissions.
///
/// Mirrors [`WindowCore`]'s accounting over the labeled stream: walking
/// records in order, a window completes at record `i` once `key(record)`
/// has accumulated `span` records ([`Detector::span`]), and it is anomalous
/// if *any* of the key's last `span` records is attack-labeled — the
/// paper's labeling rule. A constant key is the global sliding window;
/// `|r| r.du_ue_id` is [`MobiWatch::per_ue`](crate::mobiwatch::MobiWatch::per_ue)'s
/// per-UE windows.
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
    use crate::mobiwatch::{MobiWatch, MobiWatchState, ShardedMobiWatch};
    use crate::smo::quick_models;
    use proptest::prelude::*;
    use xsec_attacks::DatasetBuilder;
    use xsec_dl::FeatureConfig;
    use xsec_mobiflow::extract_from_events;
    use xsec_types::AttackKind;

    /// The single-UE slice of a NullCipher stream with the most records.
    fn longest_session() -> Vec<UeMobiFlow> {
        let ds = DatasetBuilder::small(41, 10).attack(AttackKind::NullCipher);
        let stream = extract_from_events(&ds.report.events);
        let mut sizes: HashMap<u32, usize> = HashMap::new();
        for record in &stream.records {
            *sizes.entry(record.du_ue_id).or_default() += 1;
        }
        let (&ue, &len) = sizes.iter().max_by_key(|(ue, len)| (**len, **ue)).unwrap();
        assert!(len > 8, "longest session has only {len} records");
        stream.records.iter().filter(|r| r.du_ue_id == ue).cloned().collect()
    }

    /// `(index, score bits, flagged)` rows and `(at_record, score bits,
    /// threshold bits, context lines)` alerts — everything a detection
    /// digest is made of.
    type Artifacts = (Vec<(u64, u32, bool)>, Vec<(u64, u32, u32, Vec<String>)>);

    fn artifacts(state: &MobiWatchState) -> Artifacts {
        (
            state.scores.iter().map(|(i, s, f)| (*i, s.to_bits(), *f)).collect(),
            state
                .alerts
                .iter()
                .map(|a| (a.at_record, a.score.to_bits(), a.threshold.to_bits(), a.records.clone()))
                .collect(),
        )
    }

    #[test]
    fn global_window_is_the_one_key_case_of_the_sharded_pool() {
        // The equivalence the shared core rests on: over a single-UE stream
        // the global window and the per-UE window are the same window, so
        // MobiWatch and a pool of any width must agree on every artifact —
        // whatever size the batches are.
        let records = longest_session();
        let len = records.len();

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
            for (shards, chunk) in [(1, 5), (3, 5), (1, 1), (3, 64)] {
                let (mut pool, sharded) = MobiWatch::per_ue(models.clone(), config.clone(), shards);
                for chunk in records.chunks(chunk) {
                    pool.process_batch(chunk);
                }
                let sharded = sharded.lock();
                assert!(
                    artifacts(&global) == artifacts(&sharded),
                    "{detector:?}/{shards} shards/chunks of {chunk}"
                );
            }
        }
    }

    #[test]
    fn the_benchmarks_sharded_mobiwatch_is_the_per_ue_pool() {
        let ds = DatasetBuilder::small(31, 10).attack(AttackKind::BtsDos);
        let records = extract_from_events(&ds.report.events).records;
        let models = quick_models(30);
        let config = MobiWatchConfig::default();
        for shards in [1, 3] {
            let (mut shim, by_shim) = ShardedMobiWatch::new(models.clone(), config.clone(), shards);
            let (mut pool, by_pool) = MobiWatch::per_ue(models.clone(), config.clone(), shards);
            for chunk in records.chunks(23) {
                shim.process_batch(chunk);
                pool.process_batch(chunk);
            }
            let (by_shim, by_pool) = (by_shim.lock(), by_pool.lock());
            assert!(!by_pool.alerts.is_empty(), "the flood raised no alert");
            assert!(artifacts(&by_shim) == artifacts(&by_pool), "{shards} shards");
        }
    }

    #[test]
    fn a_windows_score_is_bit_equal_alone_and_in_any_batch() {
        // Model level, on a real featurized stream (one-hot-sparse rows,
        // the 48→12 layer's 4-column tail): the batched entry, the
        // single-window entry and the dataset entries agree to the bit at
        // every batch size.
        let models = quick_models(44);
        let ds = DatasetBuilder::small(45, 10).attack(AttackKind::BtsDos);
        let stream = extract_from_events(&ds.report.events);
        let dataset = Featurizer::encode_stream(&models.feature_config, &stream);
        let bits = |scores: &[f32]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        let mut ws = Workspace::new();
        let mut out = Vec::new();

        let flat = dataset.flat_windows();
        assert!(flat.rows() > 300, "stream too short: {} windows", flat.rows());
        let alone: Vec<f32> = (0..flat.rows())
            .map(|r| models.autoencoder.score_window(flat.row_slice(r), &mut ws))
            .collect();
        assert_eq!(bits(&models.autoencoder.score_rows(&flat, &mut ws)), bits(&alone));
        for batch in [1, 2, 8, 240] {
            let mut batched = Vec::new();
            for spans in flat.data().chunks(batch * flat.cols()) {
                models.autoencoder.score_spans(spans, &mut ws, &mut out);
                batched.extend_from_slice(&out);
            }
            assert_eq!(bits(&batched), bits(&alone), "autoencoder, batches of {batch}");
        }

        let (windows, nexts) = dataset.lstm_pairs();
        let steps = models.feature_config.window;
        let alone: Vec<f32> = windows
            .iter()
            .zip(&nexts)
            .map(|(w, n)| models.lstm.score_window(w.data(), n.data(), &mut ws))
            .collect();
        assert_eq!(bits(&models.lstm.score_batch(&windows, &nexts, &mut ws)), bits(&alone));
        let spans: Vec<f32> = windows
            .iter()
            .zip(&nexts)
            .flat_map(|(w, n)| w.data().iter().chain(n.data()).copied())
            .collect();
        let span = (steps + 1) * FEATURES_PER_RECORD;
        for batch in [1, 2, 8, 240] {
            let mut batched = Vec::new();
            for spans in spans.chunks(batch * span) {
                models.lstm.score_spans(spans, steps, &mut ws, &mut out);
                batched.extend_from_slice(&out);
            }
            assert_eq!(bits(&batched), bits(&alone), "lstm, batches of {batch}");
        }
    }

    /// Everything the chunking property compares against, computed once:
    /// the stream, models whose thresholds sit at the stream's median score
    /// (so flags come in irregular runs: alerts mid-batch, cooldowns and
    /// alert context straddling batch boundaries), and the record-at-a-time
    /// artifacts per detector and cooldown.
    struct Reference {
        records: Vec<UeMobiFlow>,
        models: DeployedModels,
        expected: HashMap<(bool, usize), Artifacts>,
    }

    const COOLDOWNS: [usize; 3] = [0, 3, 16];

    fn watch_config(lstm: bool, publish_cooldown: usize) -> MobiWatchConfig {
        let detector = if lstm { Detector::Lstm } else { Detector::Autoencoder };
        // A short context so the tail turns over many times per stream.
        MobiWatchConfig { detector, publish_cooldown, context_records: 6, ..Default::default() }
    }

    fn reference() -> &'static Reference {
        static REFERENCE: std::sync::OnceLock<Reference> = std::sync::OnceLock::new();
        REFERENCE.get_or_init(|| {
            let ds = DatasetBuilder::small(47, 24).attack(AttackKind::BtsDos);
            let records = extract_from_events(&ds.report.events).records;
            assert!(records.len() > 600, "stream too short: {}", records.len());
            let mut models = quick_models(46);
            let median = |models: &DeployedModels, lstm: bool| {
                let (mut watch, state) = MobiWatch::new(models.clone(), watch_config(lstm, 0));
                records.iter().for_each(|r| drop(watch.process_record(r)));
                let mut scores: Vec<f32> = state.lock().scores.iter().map(|s| s.1).collect();
                scores.sort_by(f32::total_cmp);
                scores[scores.len() / 2]
            };
            models.ae_threshold.value = median(&models, false);
            models.lstm_threshold.value = median(&models, true);
            let mut expected = HashMap::new();
            for lstm in [false, true] {
                for cooldown in COOLDOWNS {
                    let (mut watch, state) =
                        MobiWatch::new(models.clone(), watch_config(lstm, cooldown));
                    records.iter().for_each(|r| drop(watch.process_record(r)));
                    let state = state.lock();
                    assert!(state.alerts.len() > 10, "lstm={lstm}/{cooldown}: too few alerts");
                    expected.insert((lstm, cooldown), artifacts(&state));
                }
            }
            Reference { records, models, expected }
        })
    }

    proptest! {
        /// However a stream is cut into indications — empty ones, single
        /// records, a few, a full report window — `process_batch` yields
        /// the score bits, alert positions and context lines of
        /// record-at-a-time processing, for both detectors.
        #[test]
        fn any_chunking_yields_record_at_a_time_artifacts(
            sizes in proptest::collection::vec(
                prop_oneof![Just(0usize), Just(1usize), Just(5usize), Just(240usize), 0usize..40],
                1..12,
            ),
            lstm in any::<bool>(),
            cooldown in 0usize..COOLDOWNS.len(),
        ) {
            let Reference { records, models, expected } = reference();
            let cooldown = COOLDOWNS[cooldown];
            let (mut watch, state) = MobiWatch::new(models.clone(), watch_config(lstm, cooldown));
            let mut rest = records.as_slice();
            let mut returned = 0;
            // Empty chunks are fed too; a cycle of only-empty sizes would
            // never finish, so each cycle ends with the remainder's head.
            for &size in sizes.iter().chain(&[7]).cycle() {
                if rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at(size.min(rest.len()));
                returned += watch.process_batch(chunk).len();
                rest = tail;
            }
            let state = state.lock();
            prop_assert_eq!(returned, state.alerts.len());
            prop_assert!(artifacts(&state) == expected[&(lstm, cooldown)], "sizes {:?}", sizes);
        }
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
