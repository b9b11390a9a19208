//! The end-to-end 6G-XSec pipeline (paper Figure 3): trainer and evaluator.
//!
//! Training: a benign dataset is collected from the simulated testbed and
//! the SMO trains both detectors. Inference: an attack (or fresh benign)
//! dataset is driven through the *real* stack — a one-agent
//! [`ScaleDeployment`]: RIC agent → E2 → platform → MobiWatch xApp →
//! `anomalies` topic → LLM analyzer xApp → mitigator — and the outcome is
//! evaluated against ground truth. The wiring and the drive loop live in
//! [`crate::scale`]; nothing here builds or sequences the RIC.

use crate::analyzer::AnalyzerFinding;
use crate::mitigator::MitigationSummary;
use crate::mobiwatch::Detector;
use crate::scale::{LiveSim, ScaleDeployment};
use crate::smo::{A1PolicyClient, DeployedModels, Smo, TrainingConfig};
use crate::window::{window_key, window_truth};
use xsec_attacks::DatasetBuilder;
use xsec_control::ControlAction;
use xsec_dl::{Confusion, Precision};
use xsec_llm::ModelPersonality;
use xsec_mobiflow::{extract_from_events, TelemetryStream};
use xsec_obs::{FlightRecorder, Snapshot};
use xsec_ran::sim::{RanSimulator, SimReport};
use xsec_types::{AttackKind, Timestamp};

/// Pipeline parameters.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Master seed (training data uses it; evaluation data derives from it).
    pub seed: u64,
    /// Benign sessions in the training collection.
    pub benign_sessions: usize,
    /// Model training parameters.
    pub training: TrainingConfig,
    /// Detector used by the deployed MobiWatch.
    pub detector: Detector,
    /// Which simulated LLM answers the analyzer's prompts.
    pub personality: ModelPersonality,
    /// Sliding-window length `N` (mirrored into `training.window`).
    pub detector_window: usize,
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
            detector_window: 4,
            report_period_ms: 100,
            scoring_shards: 0,
            precision: Precision::F32,
        }
    }
}

/// What one evaluation run produced.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// Telemetry records replayed.
    pub records: usize,
    /// Windows the detector flagged.
    pub flagged_windows: usize,
    /// Alerts published to the analyzer (post-cooldown).
    pub alerts: usize,
    /// The analyzer's findings.
    pub findings: Vec<AnalyzerFinding>,
    /// Findings queued for human supervision.
    pub human_review: usize,
    /// Window-level confusion against ground truth.
    pub confusion: Confusion,
    /// Mean xApp handler latency (µs), from `xsec_ric_handler_latency_us`.
    pub mean_handler_latency_us: f64,
    /// Closed-loop mitigation outcome (actions issued, acked, escalated).
    pub mitigation: MitigationSummary,
    /// End-of-run metrics snapshot: per-stage latency histograms (E2
    /// decode, MobiWatch featurize/inference, analyzer turnaround,
    /// per-agent control-ack, detection→ack) and every stage counter.
    pub metrics: Snapshot,
    /// The run's flight recorder: captured incident traces ready for
    /// JSONL/Perfetto export via [`FlightRecorder::write_incident_files`].
    pub recorder: FlightRecorder,
}

/// What one *live* closed-loop run produced: the pipeline outcome plus the
/// final RAN-side report showing the mitigation's effect on the network.
#[derive(Debug)]
pub struct ClosedLoopOutcome {
    /// The RIC-side outcome (detections, findings, mitigation summary).
    pub outcome: PipelineOutcome,
    /// The RAN-side simulation report after enforcement.
    pub report: SimReport,
    /// Control actions the RAN actually enforced, with the virtual time at
    /// which each took effect, in arrival order.
    pub enforced: Vec<(Timestamp, ControlAction)>,
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
        let mut config = config.clone();
        config.training.window = config.detector_window;
        let models = Smo::train(&config.training, stream).expect("training succeeds");
        Pipeline { config, models }
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

    /// Runs the full pipeline over one attack dataset.
    pub fn run_attack(&self, kind: AttackKind) -> PipelineOutcome {
        let eval_seed = self.config.seed + 1_000 + kind as u64;
        let ds =
            DatasetBuilder::small(eval_seed, self.config.benign_sessions).attack(kind);
        let stream = extract_from_events(&ds.report.events);
        self.run_stream(&stream)
    }

    /// Runs the full pipeline over a fresh benign dataset.
    pub fn run_benign(&self) -> PipelineOutcome {
        let eval_seed = self.config.seed + 2_000;
        let report =
            DatasetBuilder::small(eval_seed, self.config.benign_sessions).benign();
        let stream = extract_from_events(&report.events);
        self.run_stream(&stream)
    }

    /// Replays a telemetry stream through a one-agent [`ScaleDeployment`]
    /// and scores the run against ground truth.
    ///
    /// Control Requests the mitigator issues still travel RIC → agent and
    /// are acked, but nothing enforces them — this is the *open-loop*
    /// replay used for detection evaluation. [`Pipeline::run_closed_loop`]
    /// feeds the actions back into a live simulation.
    pub fn run_stream(&self, stream: &TelemetryStream) -> PipelineOutcome {
        let mut d = ScaleDeployment::new(self, 1);
        d.run_stream(stream);
        self.evaluate(stream, &d)
    }

    /// Runs the *closed* loop: a live [`RanSimulator`] is driven in
    /// report-period steps, its telemetry flows through the full RIC stack,
    /// and every Control Request the mitigator ships is decoded and applied
    /// to the simulated gNB mid-run, so mitigation changes the traffic the
    /// rest of the run produces.
    pub fn run_closed_loop(&self, sim: RanSimulator) -> ClosedLoopOutcome {
        self.run_closed_loop_with(sim, |_, _, _| {})
    }

    /// [`Pipeline::run_closed_loop`] with an SMO-side hook in the loop.
    ///
    /// The hook runs at the end of every report bucket with the bucket's
    /// closing virtual time, the actions enforced so far, and a live
    /// [`A1PolicyClient`] — so a run can hot-swap policy rules between
    /// detections (the operation reaches the mitigator on the next pump)
    /// and observe the Control Actions change.
    pub fn run_closed_loop_with(
        &self,
        sim: RanSimulator,
        mut smo_hook: impl FnMut(Timestamp, &[(Timestamp, ControlAction)], &A1PolicyClient),
    ) -> ClosedLoopOutcome {
        let mut d = ScaleDeployment::new(self, 1);
        // The hook's client runs under the SMO's registered identity: its
        // operations go out as signed envelopes the mitigator verifies.
        let a1 = d.a1_client();
        let mut ran = LiveSim::new(sim, |at, enforced| smo_hook(at, enforced, &a1));
        let enforced = d.drive(&mut ran);
        let outcome = self.evaluate(&ran.seen, &d);
        ClosedLoopOutcome { outcome, report: ran.sim.finish(), enforced }
    }

    /// Scores the run against ground truth and snapshots every xApp state.
    fn evaluate(&self, stream: &TelemetryStream, d: &ScaleDeployment) -> PipelineOutcome {
        // Truth follows the deployed detector's window accounting record
        // for record, under the same keys.
        let span = self.config.detector.span(self.config.detector_window);
        let truth = window_truth(stream, span, |r| window_key(self.per_ue(), r));
        let scale = d.outcome();
        let predictions: Vec<bool> =
            d.watch_state.lock().scores.iter().map(|(_, _, f)| *f).collect();
        assert_eq!(
            predictions.len(),
            truth.len(),
            "window accounting mismatch: {} predictions vs {} truths",
            predictions.len(),
            truth.len()
        );
        let analyzer_state = d.analyzer_state.lock();
        PipelineOutcome {
            records: stream.len(),
            flagged_windows: scale.flagged_windows,
            alerts: scale.alerts,
            findings: analyzer_state.findings.clone(),
            human_review: analyzer_state.human_review.len(),
            confusion: Confusion::from_predictions(&predictions, &truth),
            mean_handler_latency_us: scale
                .metrics
                .histogram_merged("xsec_ric_handler_latency_us")
                .mean,
            mitigation: scale.mitigation,
            metrics: scale.metrics,
            recorder: d.obs().recorder.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bts_dos_is_detected_and_explained_end_to_end() {
        let pipeline = Pipeline::train(&PipelineConfig::small(21, 15));
        let outcome = pipeline.run_attack(AttackKind::BtsDos);
        assert!(outcome.flagged_windows > 0, "flood not flagged");
        assert!(outcome.alerts > 0, "no alerts published");
        assert!(!outcome.findings.is_empty(), "analyzer saw nothing");
        // The detector must catch the attack windows (high recall).
        let recall = outcome.confusion.recall().unwrap_or(0.0);
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
        let outcome = pipeline.run_benign();
        let accuracy = outcome.confusion.accuracy().unwrap();
        assert!(accuracy > 0.85, "benign accuracy too low: {accuracy}");
    }

    #[test]
    fn sharded_scoring_runs_end_to_end() {
        let mut config = PipelineConfig::small(24, 15);
        config.scoring_shards = 2;
        let pipeline = Pipeline::train(&config);
        let outcome = pipeline.run_attack(AttackKind::NullCipher);
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
        use xsec_types::Duration;

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
        let enforced = d.run_streaming(&mut engine, Duration::from_secs(60));
        let outcome = d.outcome();

        assert!(outcome.flagged_windows > 0, "flood not flagged");
        assert!(outcome.findings > 0, "analyzer saw nothing");
        assert!(outcome.mitigation.issued > 0, "no actions issued");
        assert!(!enforced.is_empty(), "no actions reached the RAN");
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
        let outcome = pipeline.run_attack(AttackKind::NullCipher);
        assert!(outcome.mean_handler_latency_us > 0.0);
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
}
