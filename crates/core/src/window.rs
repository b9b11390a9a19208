//! The one window core: how a record is keyed, per-key sliding-window state
//! and the scoring rule.
//!
//! Scoring is per key, in three steps per pass over a delivered batch, all inside
//! [`Scorer::score`]: **stage** — each record goes into its key's
//! [`WindowCore`], and the window it completes is copied into the batch
//! buffers as the detector's pass reads it. A record is the list of its
//! nonzeros the featurizer emitted. An autoencoder key holds its last
//! `window` records' lists, and stages them as the window's one input row
//! (what the first layer reads) and, scattered, as its dense target. An
//! LSTM key holds its last `window` records' gate bases `P = b + x·W`, each
//! projected once when its record is staged, and stages the window's `P`s
//! plus the one observed next row (the target, scattered from its list) —
//! not lists, since every record is an input step of `window` windows;
//! **flush** —
//! one batched model pass over every staged window (one product per layer per
//! pass, not one GEMV per window); **judge** —
//! threshold and per-key cooldown, in staging order. The kernels make a
//! window's score independent of its batch, so how a stream is cut into
//! deliveries and passes moves no verdict. [`window_key`] is the keying: one global
//! key for the paper's window, `du_ue_id` for the per-UE pool. What must
//! follow stream order whatever the keying — relational featurization,
//! flight events, the shared inspection state and alert context — is
//! [`MobiWatch`](crate::mobiwatch::MobiWatch)'s.

use crate::mobiwatch::{Detector, MobiWatchConfig};
use crate::smo::DeployedModels;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::time::Instant;
use xsec_dl::{
    Featurizer, Lstm, SparseRows, Threshold, Workspace, FEATURES_PER_RECORD,
    MAX_NONZEROS_PER_RECORD,
};
use xsec_mobiflow::{TelemetryStream, UeMobiFlow};
use xsec_obs::{Counter, Gauge, Histogram, Obs};

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
#[derive(Debug)]
pub(crate) struct WatchMetrics {
    pub(crate) featurize_latency: Histogram,
    inference_latency: Histogram,
    /// Records ingested and windows scored, each added once per batch.
    pub(crate) records: Counter,
    pub(crate) windows_scored: Counter,
    pub(crate) alerts: Counter,
    /// Alert candidates merged into an open incident instead of published.
    pub(crate) alerts_merged: Counter,
    /// Keys with live window state.
    tracked_keys: Gauge,
}

impl WatchMetrics {
    pub(crate) fn register(obs: &Obs, detector: Detector) -> Self {
        let labels = &[("detector", detector.label())];
        WatchMetrics {
            featurize_latency: obs.histogram("xsec_mobiwatch_featurize_latency_us", labels),
            inference_latency: obs.histogram("xsec_mobiwatch_inference_latency_us", labels),
            records: obs.counter("xsec_mobiwatch_records_total", labels),
            windows_scored: obs.counter("xsec_mobiwatch_windows_scored_total", labels),
            alerts: obs.counter("xsec_mobiwatch_alerts_total", labels),
            alerts_merged: obs.counter("xsec_mobiwatch_alerts_merged_total", labels),
            tracked_keys: obs.gauge("xsec_mobiwatch_tracked_keys", labels),
        }
    }
}

/// What one completed window scored.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Verdict {
    pub(crate) score: f32,
    pub(crate) threshold: f32,
    pub(crate) flagged: bool,
    /// Flagged *and* outside the key's publish cooldown: an alert candidate,
    /// which MobiWatch's incident gate publishes or merges.
    pub(crate) publish: bool,
}

/// What a key holds between its records: exactly what its next windows
/// read, `window` records' worth, record number `r` in slot `r mod window`.
enum Held {
    /// Autoencoder: the records' nonzeros — slot `s` owns
    /// `nonzeros[s · MAX_NONZEROS_PER_RECORD ..]`, of which the first
    /// `lens[s]` are in use. They are both the window's input and, scattered,
    /// its scoring target: `window × (12 × 8 + 8)` bytes, 416 at window 4.
    Records { nonzeros: Vec<(u32, f32)>, lens: Vec<usize> },
    /// LSTM: the records' gate bases `P = b + x·W` ([`Lstm::project`]),
    /// [`Lstm::gate_width`] floats per slot. Each is computed once, when
    /// its record is staged, and copied into the `window` windows the
    /// record is an input step of. A window's target is the record that
    /// completes it, so no feature row is kept.
    Projections(Vec<f32>),
}

/// One key's sliding-window detection state. Deliberately small: alert
/// context comes from MobiWatch's global record tail, so a core keeps only
/// what scoring needs.
struct WindowCore {
    held: Held,
    /// Records staged under the key so far.
    records: usize,
    /// Windows judged so far — the cooldown's clock.
    judged: u64,
    last_publish: Option<u64>,
}

impl WindowCore {
    fn new(detector: Detector, window: usize, lstm: &Lstm) -> Self {
        let held = match detector {
            Detector::Autoencoder => Held::Records {
                nonzeros: vec![(0, 0.0); window * MAX_NONZEROS_PER_RECORD],
                lens: vec![0; window],
            },
            Detector::Lstm => Held::Projections(vec![0.0; window * lstm.gate_width()]),
        };
        WindowCore { held, records: 0, judged: 0, last_publish: None }
    }

    /// Forgets the key but keeps the buffers, so churning keys don't
    /// reallocate them. (A slot is always written before a window reads it.)
    fn reset(&mut self) {
        self.records = 0;
        self.judged = 0;
        self.last_publish = None;
    }

    /// Takes one record — its nonzeros — and, once the key has seen enough
    /// records, stages the window it completes onto `batch`. The
    /// autoencoder's window is the key's last `window` records: their lists
    /// are its one input row and, scattered, its target. The LSTM's window
    /// is the `window` records before this one, its target this record
    /// scattered: the window's `P`s are copied out before this record's `P`
    /// is projected into the slot of the oldest. Returns whether a window
    /// was staged; every staged window is owed one [`WindowCore::judge`],
    /// in staging order.
    fn stage(&mut self, nonzeros: &[(u32, f32)], lstm: &Lstm, batch: &mut Batch) -> bool {
        let r = self.records;
        self.records += 1;
        match &mut self.held {
            Held::Records { nonzeros: held, lens } => {
                let window = lens.len();
                let slot = r % window;
                held[slot * MAX_NONZEROS_PER_RECORD..][..nonzeros.len()].copy_from_slice(nonzeros);
                lens[slot] = nonzeros.len();
                if self.records < window {
                    return false;
                }
                // Record `r + 1 - window + p` is the window's record `p`.
                for p in 0..window {
                    let slot = (r + 1 + p) % window;
                    let list = &held[slot * MAX_NONZEROS_PER_RECORD..][..lens[slot]];
                    batch.lists.extend(list, (p * FEATURES_PER_RECORD) as u32);
                    SparseRows::scatter(list, FEATURES_PER_RECORD, &mut batch.targets);
                }
                batch.lists.end_row();
                true
            }
            Held::Projections(held) => {
                let width = lstm.gate_width();
                let window = held.len() / width;
                let slot = r % window;
                let staged = r >= window;
                if staged {
                    // Records `r - window .. r`, oldest first: the oldest
                    // is in this record's slot.
                    let (newer, older) = held.split_at(slot * width);
                    batch.projections.extend_from_slice(older);
                    batch.projections.extend_from_slice(newer);
                    SparseRows::scatter(nonzeros, FEATURES_PER_RECORD, &mut batch.targets);
                }
                lstm.project([nonzeros], &mut held[slot * width..][..width]);
                batch.projected += 1;
                staged
            }
        }
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

/// The windows staged in one batch, in the layout the detector's pass
/// reads, plus a running count of the projections computed.
#[derive(Default)]
struct Batch {
    /// Their scoring targets back to back: the autoencoder's whole window,
    /// the LSTM's observed next row.
    targets: Vec<f32>,
    /// Autoencoder input: one row per window, record `p`'s nonzeros offset
    /// by `p · FEATURES_PER_RECORD`.
    lists: SparseRows,
    /// LSTM input: each window's `window` projections, oldest first.
    projections: Vec<f32>,
    /// Records whose `P` the scorer has computed: one per record staged
    /// under the LSTM, however many windows read it.
    projected: u64,
}

/// What MobiWatch's keyed windows are scored with and where they live: the
/// deployed models, the detector / cooldown in force, the instruments, a
/// scoring workspace, one core per live key, and the batch in flight.
pub(crate) struct Scorer {
    pub(crate) models: DeployedModels,
    pub(crate) config: MobiWatchConfig,
    pub(crate) metrics: WatchMetrics,
    workspace: Workspace,
    /// Cores by slot; a free slot keeps its buffers for the next key.
    cores: Vec<WindowCore>,
    by_key: HashMap<u32, usize>,
    free: Vec<usize>,
    /// This batch's `(global record index, key, release)`s in stream order
    /// and their nonzeros, one list each.
    work: Vec<(u64, u32, bool)>,
    nonzeros: SparseRows,
    /// `(global record index, core slot)` of each window staged this batch,
    /// the windows themselves and, once flushed, their scores.
    staged: Vec<(u64, usize)>,
    batch: Batch,
    scores: Vec<f32>,
    /// Slots of keys released this batch.
    released: Vec<usize>,
    /// `(global record index, verdict)` in staging order, which is record
    /// order, for the caller to drain.
    pub(crate) verdicts: Vec<(u64, Verdict)>,
}

impl Scorer {
    pub(crate) fn new(
        models: DeployedModels,
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
            nonzeros: SparseRows::default(),
            staged: Vec::new(),
            batch: Batch::default(),
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
        featurizer.append_record(record, &mut self.nonzeros);
        self.work.push((index, key, release));
    }

    /// Keys with live window state.
    #[cfg(test)]
    pub(crate) fn tracked(&self) -> usize {
        self.by_key.len()
    }

    /// How often the scoring workspace had to grow a buffer.
    #[cfg(test)]
    pub(crate) fn workspace_grow_events(&self) -> usize {
        self.workspace.grow_events()
    }

    /// How many records' `P` the scorer has computed.
    #[cfg(test)]
    pub(crate) fn projected(&self) -> u64 {
        self.batch.projected
    }

    /// Scores the batch into `verdicts`: stage every record on its key's
    /// core, flush once, judge in staging order.
    pub(crate) fn score(&mut self) {
        let (window, detector) = (self.models.feature_config.window, self.config.detector);
        let lstm = &self.models.lstm;
        // Room for every window the batch can stage, by its record count
        // alone: whether the inputs grow never depends on their contents.
        let pushed = self.work.len();
        match detector {
            Detector::Autoencoder => {
                self.batch.lists.reserve(pushed, window * MAX_NONZEROS_PER_RECORD)
            }
            Detector::Lstm => self.batch.projections.reserve(pushed * window * lstm.gate_width()),
        }
        for ((index, key, release), nonzeros) in self.work.drain(..).zip(self.nonzeros.iter()) {
            let slot = *self.by_key.entry(key).or_insert_with(|| {
                self.metrics.tracked_keys.add(1);
                self.free.pop().unwrap_or_else(|| {
                    self.cores.push(WindowCore::new(detector, window, lstm));
                    self.cores.len() - 1
                })
            });
            if self.cores[slot].stage(nonzeros, lstm, &mut self.batch) {
                self.staged.push((index, slot));
            }
            // The key is forgotten now — whatever the batching, a later
            // record under it starts afresh — and the slot recycled once
            // its last window is judged.
            if release {
                self.by_key.remove(&key);
                self.metrics.tracked_keys.add(-1);
                self.released.push(slot);
            }
        }
        self.nonzeros.clear();
        self.flush();
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

    /// Scores every staged window in one batched model pass. One
    /// inference-latency sample per call that scored anything.
    fn flush(&mut self) {
        if self.batch.targets.is_empty() {
            return;
        }
        let start = Instant::now();
        let Scorer { models, config, metrics, workspace, batch, scores, .. } = self;
        match config.detector {
            Detector::Autoencoder => {
                models.autoencoder.score_spans(&batch.targets, &batch.lists, workspace, scores)
            }
            Detector::Lstm => {
                let steps = models.feature_config.window;
                let (projections, nexts) = (&batch.projections, &batch.targets);
                models.lstm.score_projected(projections, nexts, steps, workspace, scores)
            }
        }
        batch.targets.clear();
        batch.lists.clear();
        batch.projections.clear();
        metrics.inference_latency.observe_duration(start.elapsed());
    }
}

/// Ground truth aligned with the detector's emissions: the one labeling
/// rule.
///
/// Mirrors the window core's accounting over the labeled stream: walking
/// records in order, a window completes at record `i` once `key(record)`
/// has accumulated `span` records ([`Detector::span`]), and it is anomalous
/// if *any* of the key's last `span` records is attack-labeled — the
/// paper's labeling rule. A constant key (`|_| ()`) is the global sliding
/// window, so it also labels a `WindowedDataset`'s `flat_windows` (span
/// `window`) and `lstm_pairs` (span `window + 1`) row for row;
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
    use xsec_dl::Precision;
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
        // the two keyings must agree on every artifact — whatever size the
        // batches are.
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
            for chunk in [1, 5, 64] {
                let (mut pool, per_ue) = MobiWatch::per_ue(models.clone(), config.clone());
                for chunk in records.chunks(chunk) {
                    pool.process_batch(chunk);
                }
                let per_ue = per_ue.lock();
                assert!(
                    artifacts(&global) == artifacts(&per_ue),
                    "{detector:?}/chunks of {chunk}"
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
        // The shard count is not read: any count is the one pool.
        let (mut pool, by_pool) = MobiWatch::per_ue(models.clone(), config.clone());
        for chunk in records.chunks(23) {
            pool.process_batch(chunk);
        }
        let by_pool = by_pool.lock();
        assert!(!by_pool.alerts.is_empty(), "the flood raised no alert");
        for shards in [1, 3] {
            let (mut shim, by_shim) = ShardedMobiWatch::new(models.clone(), config.clone(), shards);
            for chunk in records.chunks(23) {
                shim.process_batch(chunk);
            }
            assert!(artifacts(&by_shim.lock()) == artifacts(&by_pool), "{shards} shards");
        }
    }

    #[test]
    fn a_windows_score_is_bit_equal_alone_and_in_any_batch() {
        // Model level, on a real featurized stream (one-hot-sparse rows,
        // the 48→12 layer's 4-column tail): the batched entry, the
        // benchmark's single-window shim and the dataset entries agree to
        // the bit at every batch size.
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
            .map(|r| models.autoencoder.score_window_with(flat.row_slice(r), &mut ws, Precision::F32))
            .collect();
        assert_eq!(bits(&models.autoencoder.score_rows(&flat, &mut ws)), bits(&alone));
        let mut lists = SparseRows::default();
        for batch in [1, 2, 8, 240] {
            let mut batched = Vec::new();
            for spans in flat.data().chunks(batch * flat.cols()) {
                lists.clear();
                lists.push_dense([spans], flat.cols());
                models.autoencoder.score_spans(spans, &lists, &mut ws, &mut out);
                batched.extend_from_slice(&out);
            }
            assert_eq!(bits(&batched), bits(&alone), "autoencoder, batches of {batch}");
        }

        let (windows, nexts) = dataset.lstm_pairs();
        let steps = models.feature_config.window;
        let alone: Vec<f32> = windows
            .iter()
            .zip(&nexts)
            .map(|(w, n)| models.lstm.score_window_with(w.data(), n.data(), &mut ws, Precision::F32))
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
            for (c, spans) in spans.chunks(batch * span).enumerate() {
                lists.clear();
                let chunk = &windows[c * batch..c * batch + spans.len() / span];
                lists.push_dense(chunk.iter().map(|w| w.data()), FEATURES_PER_RECORD);
                models.lstm.score_spans(spans, &lists, steps, &mut ws, &mut out);
                batched.extend_from_slice(&out);
            }
            assert_eq!(bits(&batched), bits(&alone), "lstm, batches of {batch}");
        }
    }

    #[test]
    fn the_featurizers_lists_are_each_records_nonzeros() {
        // A streaming scenario with warm starts, handovers and storms, so
        // the relational features (TMSI reuse, bursts, pressure) fire too.
        use xsec_ran::{StormConfig, StreamConfig, StreamingScenario};
        use xsec_types::Duration;
        let mut engine = StreamingScenario::new(StreamConfig {
            seed: 53,
            cells: 2,
            total_ues: 300,
            mobility_fraction: 0.5,
            storm: Some(StormConfig { period: Duration::from_millis(150), burst: 12 }),
            ..StreamConfig::default()
        });
        let stream = crate::scale::drained(&mut engine);
        let mut featurizer = Featurizer::new();
        let mut lists = SparseRows::default();
        for record in &stream.records {
            featurizer.append_record(record, &mut lists);
        }
        assert_eq!(lists.rows(), stream.records.len());
        let mut active = [0usize; FEATURES_PER_RECORD];
        for (r, list) in lists.iter().enumerate() {
            assert!(list.len() <= MAX_NONZEROS_PER_RECORD, "record {r}: {} nonzeros", list.len());
            assert!(list.windows(2).all(|w| w[0].0 < w[1].0), "record {r}: {list:?}");
            let inside = |&(k, v): &(u32, f32)| (k as usize) < FEATURES_PER_RECORD && v != 0.0;
            assert!(list.iter().all(inside), "record {r}: {list:?}");
            list.iter().for_each(|&(k, _)| active[k as usize] += 1);
        }
        // TMSI reuse, setup burst, incomplete connections, release burst.
        for k in [53, 58, 59, 60] {
            assert!(active[k] > 0, "feature {k} never fired in {} records", stream.records.len());
        }
    }

    #[test]
    fn live_lists_score_like_the_scanned_dataset() {
        // The lists MobiWatch stages from the featurizer against the lists
        // the dense-input entries scan: every window's score, both models.
        let models = quick_models(48);
        let ds = DatasetBuilder::small(49, 10).attack(AttackKind::BtsDos);
        let stream = extract_from_events(&ds.report.events);
        let dataset = Featurizer::encode_stream(&models.feature_config, &stream);
        let mut ws = Workspace::new();
        let (windows, nexts) = dataset.lstm_pairs();
        let scanned = [
            models.autoencoder.score_rows(&dataset.flat_windows(), &mut ws),
            models.lstm.score_batch(&windows, &nexts, &mut ws),
        ];
        for (detector, scanned) in [Detector::Autoencoder, Detector::Lstm].into_iter().zip(scanned) {
            let config = MobiWatchConfig { detector, ..MobiWatchConfig::default() };
            let (mut watch, state) = MobiWatch::new(models.clone(), config);
            for chunk in stream.records.chunks(37) {
                watch.process_batch(chunk);
            }
            let live: Vec<u32> = state.lock().scores.iter().map(|s| s.1.to_bits()).collect();
            let scanned: Vec<u32> = scanned.iter().map(|s| s.to_bits()).collect();
            assert!(live.len() > 300, "{detector:?}: {} windows", live.len());
            assert!(live == scanned, "{detector:?}: the live lists moved a score");
        }
    }

    #[test]
    fn per_ue_lstm_projections_score_like_score_batch_through_evictions() {
        // Keys are released at their RRC release and their slots reused, so
        // a slot's projections are overwritten by the next key's records;
        // every window must still score to the bits `score_batch` gives the
        // same rows, and each record is projected once, not once per window.
        use xsec_dl::Matrix;
        use xsec_proto::MessageKind;
        let models = quick_models(50);
        let ds = DatasetBuilder::small(51, 24).attack(AttackKind::BtsDos);
        let stream = extract_from_events(&ds.report.events);
        let records = &stream.records;
        let window = models.feature_config.window;

        // Each UE's windows in stream order, from the dataset's rows (the
        // featurizer runs over the whole stream, as MobiWatch's does),
        // forgetting a UE at its release.
        let dense = Featurizer::encode_stream(&models.feature_config, &stream).record_features;
        let row = |r: usize| {
            Matrix::row(dense[r * FEATURES_PER_RECORD..][..FEATURES_PER_RECORD].to_vec())
        };
        let mut open: HashMap<u32, Vec<usize>> = HashMap::new();
        let (mut windows, mut nexts, mut at) = (Vec::new(), Vec::new(), Vec::new());
        for (i, record) in records.iter().enumerate() {
            let seen = open.entry(record.du_ue_id).or_default();
            if seen.len() >= window {
                let steps: Vec<Matrix> =
                    seen[seen.len() - window..].iter().map(|&r| row(r)).collect();
                windows.push(Matrix::stack_rows(&steps));
                nexts.push(row(i));
                at.push(i as u64);
            }
            seen.push(i);
            if record.msg == MessageKind::RrcRelease {
                open.remove(&record.du_ue_id);
            }
        }
        let releases = records.iter().filter(|r| r.msg == MessageKind::RrcRelease).count();
        let why = format!("{releases} releases, {} windows", windows.len());
        assert!(releases > 20 && windows.len() > 300, "{why}");
        let scores = models.lstm.score_batch(&windows, &nexts, &mut Workspace::new());
        let want: Vec<(u64, u32)> =
            at.into_iter().zip(scores.iter().map(|s| s.to_bits())).collect();

        let config = MobiWatchConfig { detector: Detector::Lstm, ..MobiWatchConfig::default() };
        let (mut pool, state) = MobiWatch::per_ue(models.clone(), config);
        for chunk in records.chunks(29) {
            pool.process_batch(chunk);
        }
        let live: Vec<(u64, u32)> =
            state.lock().scores.iter().map(|s| (s.0, s.1.to_bits())).collect();
        assert!(live == want, "a per-UE window moved off score_batch's bits");
        assert_eq!(pool.projected(), records.len() as u64, "one projection per record staged");
        assert!(windows.len() * window > 2 * records.len(), "windows reuse too few projections");
    }

    /// Everything the chunking property compares against, computed once:
    /// the stream, models whose thresholds sit at the stream's median score
    /// (so flags come in irregular runs: alerts mid-batch, cooldowns,
    /// incident merges and alert context straddling batch boundaries), and
    /// the record-at-a-time
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
                    // Hundreds of flagged windows, but the incident gate
                    // publishes only openings and escalations (6–11 here).
                    let alerts = state.alerts.len();
                    assert!(alerts >= 5, "lstm={lstm}/{cooldown}: {alerts} alerts");
                    expected.insert((lstm, cooldown), artifacts(&state));
                }
            }
            Reference { records, models, expected }
        })
    }

    proptest! {
        /// However a stream is cut into deliveries — empty ones, single
        /// records, a few, a full report window, several scoring passes —
        /// `process_batch` yields the score bits, alert positions and
        /// context lines of record-at-a-time processing, for both detectors.
        #[test]
        fn any_chunking_yields_record_at_a_time_artifacts(
            sizes in proptest::collection::vec(
                prop_oneof![
                    Just(0usize),
                    Just(1usize),
                    Just(5usize),
                    Just(240usize),
                    0usize..40,
                    // Longer than one scoring pass.
                    257usize..900,
                ],
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
    fn window_truth_follows_the_paper_rule() {
        use xsec_types::TrafficClass;
        // Record 3 is malicious → every window containing it is malicious.
        let mut labels = vec![TrafficClass::Benign; 6];
        labels[3] = TrafficClass::Attack(AttackKind::BtsDos);
        let stream = TelemetryStream { records: longest_session()[..6].to_vec(), labels };
        let truth = |span| window_truth(&stream, span, |_| ());
        // The autoencoder's windows of 2, then the LSTM's pairs: a window
        // of 2 and the step it predicts.
        assert_eq!(truth(Detector::Autoencoder.span(2)), [false, false, true, true, false]);
        assert_eq!(truth(Detector::Lstm.span(2)), [false, true, true, true]);
        assert!(truth(7).is_empty(), "a stream shorter than the span completes no window");
    }

    #[test]
    fn an_autoencoder_key_holds_only_its_lists() {
        // Every buffer a key holds, by its allocation: the nonzero slots
        // and their lengths, `window × (12 × 8 + 8)` bytes, before and
        // after it has staged windows.
        fn held_bytes(core: &WindowCore) -> usize {
            let Held::Records { nonzeros, lens } = &core.held else {
                panic!("not an autoencoder key")
            };
            nonzeros.capacity() * std::mem::size_of::<(u32, f32)>()
                + lens.capacity() * std::mem::size_of::<usize>()
        }
        let models = quick_models(52);
        let mut lists = SparseRows::default();
        let mut featurizer = Featurizer::new();
        for record in &longest_session() {
            featurizer.append_record(record, &mut lists);
        }
        for (window, want) in [(1, 104), (4, 416), (7, 728)] {
            let mut core = WindowCore::new(Detector::Autoencoder, window, &models.lstm);
            assert_eq!(held_bytes(&core), want, "window {window}, fresh");
            let mut batch = Batch::default();
            let staged =
                lists.iter().filter(|list| core.stage(list, &models.lstm, &mut batch)).count();
            assert_eq!(staged, lists.rows() + 1 - window);
            core.reset();
            assert_eq!(held_bytes(&core), want, "window {window}, after {staged} windows");
        }
    }
}
