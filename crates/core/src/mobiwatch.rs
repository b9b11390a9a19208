//! The MOBIWATCH xApp: unsupervised anomaly detection in the near-RT loop.
//!
//! Consumes MobiFlow telemetry from E2 indications, maintains the sliding
//! window over the live stream, scores each window with the deployed model,
//! and — when a window exceeds the threshold — publishes the window plus its
//! context to the `anomalies` topic for the LLM analyzer (§3.3: MobiWatch is
//! the pre-filter that keeps the expensive model out of the hot path).

use crate::smo::DeployedModels;
use crate::window::{Ingest, Scorer};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use xsec_dl::Precision;
use xsec_mobiflow::UeMobiFlow;
use xsec_obs::Obs;
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

/// The anomaly-detection xApp.
pub struct MobiWatch {
    ingest: Ingest,
    /// The paper's global sliding window: every record under one key.
    scorer: Scorer,
}

impl MobiWatch {
    /// Creates the xApp with deployed models; returns the shared state
    /// handle for post-run inspection.
    pub fn new(
        models: DeployedModels,
        config: MobiWatchConfig,
    ) -> (Self, Arc<Mutex<MobiWatchState>>) {
        let (ingest, state) = Ingest::new(models, config);
        let scorer = ingest.scorer.fork();
        (MobiWatch { ingest, scorer }, state)
    }

    /// Re-homes the xApp's instruments into `obs`'s registry and its flight
    /// recording into `obs`'s recorder. Call before feeding records
    /// (deployment time) — samples do not carry over.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.ingest.attach_obs(obs);
        self.scorer = self.ingest.scorer.fork();
    }

    /// The sliding-window length in force.
    pub fn window(&self) -> usize {
        self.ingest.scorer.window()
    }

    /// How often the scoring workspace had to grow a buffer. Stable across
    /// calls once warm at a batch size — the steady-state zero-allocation
    /// guarantee.
    pub fn workspace_grow_events(&self) -> usize {
        self.scorer.workspace_grow_events()
    }

    /// Feeds one record; returns an alert when the window it completes is
    /// anomalous (alert emission respects the publish cooldown; scoring
    /// happens for every window regardless). The batch of one.
    pub fn process_record(&mut self, record: &UeMobiFlow) -> Option<AnomalyAlert> {
        self.process_batch(std::slice::from_ref(record)).pop()
    }

    /// Feeds one E2 indication's records: featurizes them all, scores every
    /// window they complete in one batched model pass, then thresholds and
    /// emits in stream order. Returns the alerts raised. Scores, alerts and
    /// their context are the same — to the bit — however a stream is cut
    /// into batches.
    pub fn process_batch(&mut self, records: &[UeMobiFlow]) -> Vec<AnomalyAlert> {
        let alerts = self.detect(records);
        self.ingest.file(alerts.clone());
        alerts
    }

    /// [`Self::process_batch`] up to its alerts, which the caller files.
    fn detect(&mut self, records: &[UeMobiFlow]) -> Vec<AnomalyAlert> {
        let Some(last) = records.last() else {
            return Vec::new();
        };
        let scorer = &mut self.scorer;
        let first = self.ingest.featurize(records, |f, index, r| scorer.push(f, index, r, 0, false));
        // The latency sample's exemplar: the causal trace the E2 agent
        // rooted for the batch's last record.
        scorer.score(self.ingest.trace_for(last));
        self.ingest.emit(records, first, &mut scorer.verdicts)
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
        let alerts = self.detect(records);
        self.ingest.publish(ctx, alerts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smo::quick_models;
    use xsec_attacks::DatasetBuilder;
    use xsec_mobiflow::extract_from_events;
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
                watch.ingest.tail.len() <= keep,
                "history grew to {} (cap {keep}) at record {i}",
                watch.ingest.tail.len()
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
}
