//! The 6G-XSec pipeline (paper Figure 3): trainer and evaluator.
//!
//! Training: a benign dataset is collected from the simulated testbed and
//! the SMO trains both detectors. Evaluation: [`Pipeline::eval_stream`]
//! builds a labelled attack (or fresh benign) dataset, a
//! [`ScaleDeployment`] drives it through the *real* stack — RIC agent → E2
//! → platform → MobiWatch xApp → `anomalies` topic → LLM analyzer xApp →
//! mitigator — and [`Pipeline::evaluate`] scores the detector's windows
//! against ground truth. The wiring, the drive loop and the run summary
//! live in [`crate::scale`]; nothing here builds or sequences the RIC.

use crate::mobiwatch::Detector;
use crate::scale::ScaleDeployment;
use crate::smo::{DeployedModels, Smo, TrainingConfig};
use crate::window::{window_key, window_truth};
use xsec_attacks::DatasetBuilder;
use xsec_dl::{Confusion, Precision};
use xsec_llm::ModelPersonality;
use xsec_mobiflow::{extract_from_events, TelemetryStream};
use xsec_types::TrafficClass;

/// Pipeline parameters.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Master seed (training data uses it; evaluation data derives from it).
    pub seed: u64,
    /// Benign sessions in the training collection.
    pub benign_sessions: usize,
    /// Model training parameters; `training.window` is the sliding-window
    /// length `N` the deployed detector scores with.
    pub training: TrainingConfig,
    /// Detector used by the deployed MobiWatch.
    pub detector: Detector,
    /// Which simulated LLM answers the analyzer's prompts.
    pub personality: ModelPersonality,
    /// E2 report period in milliseconds.
    pub report_period_ms: u32,
    /// Scoring shards. `0` deploys the paper's global sliding window
    /// ([`MobiWatch::new`](crate::mobiwatch::MobiWatch::new)); `>= 1` the
    /// per-UE pool ([`MobiWatch::per_ue`](crate::mobiwatch::MobiWatch::per_ue)),
    /// whose detections are invariant in the shard count.
    pub scoring_shards: usize,
    /// Numeric path the deployed detector scores with; [`Precision`] has
    /// one variant (kept for the frozen `benchmark/` package).
    pub precision: Precision,
}

impl PipelineConfig {
    /// A fast configuration for tests and doctests.
    pub fn small(seed: u64, benign_sessions: usize) -> Self {
        PipelineConfig {
            benign_sessions,
            training: TrainingConfig {
                autoencoder_epochs: 12,
                lstm_epochs: 3,
                autoencoder_hidden: vec![48, 12],
                lstm_hidden: 24,
                ..TrainingConfig::default()
            },
            ..Self::paper(seed)
        }
    }

    /// The paper-scale configuration used by the experiment harness.
    pub fn paper(seed: u64) -> Self {
        PipelineConfig {
            seed,
            benign_sessions: 110,
            training: TrainingConfig::default(),
            detector: Detector::Autoencoder,
            personality: ModelPersonality::CHATGPT_4O,
            report_period_ms: 100,
            scoring_shards: 0,
            precision: Precision::F32,
        }
    }
}

/// A trained, deployable pipeline.
pub struct Pipeline {
    config: PipelineConfig,
    models: DeployedModels,
}

impl Pipeline {
    /// Collects benign training data and trains the detectors.
    pub fn train(config: &PipelineConfig) -> Self {
        let benign = DatasetBuilder::small(config.seed, config.benign_sessions).benign();
        Self::train_on(config, &extract_from_events(&benign.events))
    }

    /// Trains the detectors on a caller-provided benign stream instead of
    /// the built-in collection scenario. Streaming deployments use this so
    /// the training distribution matches what the generator produces
    /// (multi-cell interleave, handover re-registrations, storms) — models
    /// trained on the single-cell collection flag that traffic wholesale.
    pub fn train_on(config: &PipelineConfig, stream: &TelemetryStream) -> Self {
        let models = Smo::train(&config.training, stream).expect("training succeeds");
        Pipeline { config: config.clone(), models }
    }

    /// The deployed models (for the experiment harness).
    pub fn models(&self) -> &DeployedModels {
        &self.models
    }

    /// The configuration this pipeline was trained with.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Whether the deployed MobiWatch keys its windows per UE
    /// (`scoring_shards > 0`) rather than running the global window.
    pub(crate) fn per_ue(&self) -> bool {
        self.config.scoring_shards > 0
    }

    /// The labelled dataset a detection run replays: one attack of `class`
    /// mixed into benign sessions, or fresh benign sessions, at a seed
    /// derived from the training seed so it never repeats the training data.
    pub fn eval_stream(&self, class: TrafficClass) -> TelemetryStream {
        let (seed, sessions) = (self.config.seed, self.config.benign_sessions);
        let events = match class {
            TrafficClass::Attack(kind) => {
                let builder = DatasetBuilder::small(seed + 1_000 + kind as u64, sessions);
                builder.attack(kind).report.events
            }
            TrafficClass::Benign => DatasetBuilder::small(seed + 2_000, sessions).benign().events,
        };
        extract_from_events(&events)
    }

    /// Scores a driven deployment's detector windows against ground truth:
    /// `stream` is every record `d` was driven with, in order, labels
    /// included. Truth follows the deployed detector's window accounting
    /// record for record, under the same keys.
    ///
    /// # Panics
    /// Under the global window (`scoring_shards == 0`) when `stream` spans
    /// more than one cell: the deployment delivers each report bucket
    /// cell-major, so the detector's windows are not the stream-order
    /// windows truth is built from. Per-UE keys are safe (a UE never spans
    /// cells and the sort is stable). Also when the window counts differ.
    pub fn evaluate(&self, stream: &TelemetryStream, d: &ScaleDeployment) -> Confusion {
        assert!(
            self.per_ue() || stream.records.windows(2).all(|w| w[0].cell == w[1].cell),
            "evaluate under the global window needs a single-cell stream: buckets are \
             delivered cell-major, so stream-order truth misaligns with the windows scored"
        );
        let span = self.config.detector.span(self.models.feature_config.window);
        let truth = window_truth(stream, span, |r| window_key(self.per_ue(), r));
        let predictions: Vec<bool> =
            d.watch_state.lock().scores.iter().map(|(_, _, f)| *f).collect();
        assert_eq!(
            predictions.len(),
            truth.len(),
            "window accounting mismatch: {} predictions vs {} truths",
            predictions.len(),
            truth.len()
        );
        Confusion::from_predictions(&predictions, &truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::{Replay, ScaleOutcome, Streaming};
    use xsec_types::{AttackKind, Duration, Timestamp};

    /// Drives `class`'s evaluation stream through a one-agent deployment and
    /// scores it.
    fn replayed(pipeline: &Pipeline, class: TrafficClass) -> (ScaleOutcome, Confusion) {
        let stream = pipeline.eval_stream(class);
        let mut d = ScaleDeployment::new(pipeline, 1);
        let outcome = d.drive(&mut Replay(&stream.records));
        (outcome, pipeline.evaluate(&stream, &d))
    }

    #[test]
    fn bts_dos_is_detected_and_explained_end_to_end() {
        let pipeline = Pipeline::train(&PipelineConfig::small(21, 15));
        let (outcome, confusion) = replayed(&pipeline, TrafficClass::Attack(AttackKind::BtsDos));
        assert!(outcome.flagged_windows > 0, "flood not flagged");
        assert!(outcome.alerts > 0, "no alerts published");
        assert!(!outcome.findings.is_empty(), "analyzer saw nothing");
        // The detector must catch the attack windows (high recall).
        let recall = confusion.recall().unwrap_or(0.0);
        assert!(recall > 0.8, "recall too low: {recall}");
        // GPT-4o confirms floods.
        assert!(outcome
            .findings
            .iter()
            .any(|f| f.response.contains("Signaling storm")));
    }

    #[test]
    fn benign_run_stays_mostly_quiet() {
        let pipeline = Pipeline::train(&PipelineConfig::small(22, 15));
        let (_, confusion) = replayed(&pipeline, TrafficClass::Benign);
        let accuracy = confusion.accuracy().unwrap();
        assert!(accuracy > 0.85, "benign accuracy too low: {accuracy}");
    }

    #[test]
    fn sharded_scoring_runs_end_to_end() {
        let mut config = PipelineConfig::small(24, 15);
        config.scoring_shards = 2;
        let pipeline = Pipeline::train(&config);
        let (outcome, _) = replayed(&pipeline, TrafficClass::Attack(AttackKind::NullCipher));
        // Per-UE windows still surface the downgrade and the evaluation's
        // per-UE truth accounting lines up with the pool's emissions.
        assert!(outcome.records > 100);
        assert!(outcome.flagged_windows > 0, "downgrade not flagged");
        assert!(outcome.metrics.histogram_count("xsec_mobiwatch_inference_latency_us") > 0);
    }

    #[test]
    fn migrating_attacker_is_detected_and_mitigated_in_every_cell_it_visits() {
        use xsec_attacks::{MigrateConfig, MigrationSchedule};
        use xsec_ran::stream::{StreamConfig, StreamingScenario};

        let stream_config = StreamConfig {
            seed: 61,
            cells: 3,
            total_ues: 45,
            mean_inter_arrival: Duration::from_millis(8),
            mobility_fraction: 0.3,
            max_handovers: 1,
            max_live: 64,
            ..StreamConfig::default()
        };

        // Train on a benign run of the *same* streaming deployment — the
        // detector must learn the multi-cell, churning distribution it will
        // patrol, not the single-cell collection scenario.
        let mut benign = StreamingScenario::new(StreamConfig { seed: 7, ..stream_config.clone() });
        let mut config = PipelineConfig::small(25, 15);
        config.scoring_shards = 2;
        let pipeline = Pipeline::train_on(&config, &crate::scale::drained(&mut benign));

        let mut engine = StreamingScenario::new(stream_config);
        // The attacker tours all three cells, flooding each in turn — the
        // per-(attack, cell) cooldown must not let later visits ride free.
        MigrationSchedule::tour(
            &[0, 1, 2],
            Timestamp::ZERO + Duration::from_millis(150),
            Duration::from_millis(900),
            MigrateConfig { connections_per_visit: 40, ..MigrateConfig::default() },
        )
        .install(&mut engine);

        // One agent per cell, the streaming engine's layout.
        let mut d = ScaleDeployment::new(&pipeline, 3);
        let outcome = d.drive(&mut Streaming::new(&mut engine, Duration::from_secs(60)));

        assert!(outcome.flagged_windows > 0, "flood not flagged");
        assert!(!outcome.findings.is_empty(), "analyzer saw nothing");
        assert!(outcome.mitigation.issued > 0, "no actions issued");
        assert!(!outcome.enforced.is_empty(), "no actions reached the RAN");
        assert!(engine.stats().handovers > 0, "benign churn missing");

        // Enforcement must land in *every* visited cell: once the flood is
        // mitigated there, that cell's gNB drops its setups (rate limit /
        // quarantine) or its uplinks (RNTI blacklist).
        for cell in 0..3 {
            let stats = engine.gnb_stats(cell);
            assert!(
                stats.mitigation_dropped + stats.blacklist_dropped > 0,
                "cell {cell} was never protected: {stats:?}"
            );
        }
    }

    #[test]
    fn handler_latency_is_tracked() {
        let pipeline = Pipeline::train(&PipelineConfig::small(23, 12));
        let (outcome, _) = replayed(&pipeline, TrafficClass::Attack(AttackKind::NullCipher));
        assert!(outcome.metrics.histogram_merged("xsec_ric_handler_latency_us").mean > 0.0);
        assert!(outcome.records > 100);
        // The run's snapshot carries every stage's latency histogram.
        for stage in [
            "xsec_e2_decode_latency_us",
            "xsec_mobiwatch_featurize_latency_us",
            "xsec_mobiwatch_inference_latency_us",
            "xsec_ric_handler_latency_us",
        ] {
            assert!(
                outcome.metrics.histogram_count(stage) > 0,
                "stage {stage} recorded no samples"
            );
        }
        assert_eq!(
            outcome.metrics.counter_total("xsec_e2_records_pushed_total"),
            outcome.records as u64
        );
    }

    #[test]
    #[should_panic(expected = "needs a single-cell stream")]
    fn evaluate_refuses_a_multi_cell_stream_under_the_global_window() {
        use xsec_ran::stream::{StreamConfig, StreamingScenario};

        let mut engine = StreamingScenario::new(StreamConfig {
            seed: 27,
            cells: 2,
            total_ues: 16,
            mean_inter_arrival: Duration::from_millis(6),
            mobility_fraction: 0.0,
            max_live: 64,
            ..StreamConfig::default()
        });
        let stream = crate::scale::drained(&mut engine);
        let pipeline = Pipeline::train(&PipelineConfig::small(27, 10));
        assert!(!pipeline.per_ue(), "the global window is the default");
        let mut d = ScaleDeployment::new(&pipeline, 2);
        d.drive(&mut Replay(&stream.records));
        pipeline.evaluate(&stream, &d);
    }
}
