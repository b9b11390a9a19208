//! Table 2 — detection performance of the two unsupervised models.
//!
//! Protocol (paper §4.1):
//!
//! * **Benign row** — k-fold cross-validation on the benign dataset: train
//!   on k−1 folds, score the held-out fold; a benign window counted correct
//!   when *not* flagged. The paper reports Accuracy = Precision here (all
//!   samples are negative, so both reduce to the fraction unflagged).
//! * **Attack row** — train on the full benign dataset, evaluate on the
//!   five attack datasets (benign background + attack episodes), windows
//!   labeled by the "any malicious record taints the window" rule.

use crate::smo::{Smo, TrainingConfig};
use serde::{Deserialize, Serialize};
use xsec_attacks::DatasetBuilder;
use xsec_dl::{
    Autoencoder, AutoencoderConfig, Confusion, FeatureConfig, Featurizer, Lstm, LstmConfig,
    Matrix, Threshold, Workspace, FEATURES_PER_RECORD,
};
use xsec_mobiflow::{extract_from_events, TelemetryStream};
use xsec_types::AttackKind;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Table2Config {
    /// Master seed.
    pub seed: u64,
    /// Benign sessions per dataset.
    pub benign_sessions: usize,
    /// Cross-validation folds for the benign row.
    pub folds: usize,
    /// Training hyperparameters.
    pub training: TrainingConfig,
}

impl Default for Table2Config {
    fn default() -> Self {
        Table2Config {
            seed: 1,
            benign_sessions: 110,
            folds: 5,
            training: TrainingConfig::default(),
        }
    }
}

impl Table2Config {
    /// A fast variant for tests.
    pub fn quick(seed: u64) -> Self {
        Table2Config {
            seed,
            benign_sessions: 25,
            folds: 3,
            training: TrainingConfig {
                autoencoder_epochs: 12,
                lstm_epochs: 3,
                autoencoder_hidden: vec![48, 12],
                lstm_hidden: 24,
                ..TrainingConfig::default()
            },
        }
    }
}

/// One row of the table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// "Benign" or "Attack".
    pub dataset: String,
    /// "Autoencoder" or "LSTM".
    pub model: String,
    /// Accuracy in percent.
    pub accuracy: f64,
    /// Precision in percent (equals accuracy on the benign row).
    pub precision: f64,
    /// Recall in percent; `None` on the benign row (no positives).
    pub recall: Option<f64>,
    /// F1 in percent; `None` on the benign row.
    pub f1: Option<f64>,
}

/// The full table plus per-attack breakdown.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Result {
    /// The four headline rows (benign/attack × AE/LSTM).
    pub rows: Vec<Table2Row>,
    /// Per-attack recall for the autoencoder (detection-rate detail behind
    /// the "100% detection rate for 5 attacks" claim).
    per_attack_ae_recall: Vec<(AttackKind, f64)>,
    /// Per-attack *episode* detection by the autoencoder: whether any window
    /// of the attack was flagged — the unit behind the abstract's "100%
    /// detection rate" claim.
    per_attack_ae_detected: Vec<(AttackKind, bool)>,
}

impl Table2Result {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Table 2: Detection performance of the two deep learning models\n\
             Dataset  Model        Accuracy  Precision  Recall   F1 Score\n",
        );
        for row in &self.rows {
            let fmt_opt = |v: Option<f64>| match v {
                Some(x) => format!("{:6.2}%", x),
                None => "   N/A".to_string(),
            };
            out.push_str(&format!(
                "{:<8} {:<12} {:6.2}%   {:6.2}%   {}  {}\n",
                row.dataset,
                row.model,
                row.accuracy,
                row.precision,
                fmt_opt(row.recall),
                fmt_opt(row.f1),
            ));
        }
        out.push_str("\nPer-attack detection (Autoencoder):\n");
        for ((kind, recall), (_, detected)) in
            self.per_attack_ae_recall.iter().zip(&self.per_attack_ae_detected)
        {
            out.push_str(&format!(
                "  {:<20} window recall {:6.2}%   attack detected: {}\n",
                kind.short_name(),
                recall * 100.0,
                if *detected { "yes" } else { "NO" }
            ));
        }
        out
    }
}

fn benign_cross_validation(
    config: &Table2Config,
    stream: &TelemetryStream,
) -> (f64, f64) {
    let feature_config = FeatureConfig { window: config.training.window };
    let dataset = Featurizer::encode_stream(&feature_config, stream);
    let flat = dataset.flat_windows();
    let (lstm_windows, lstm_nexts) = dataset.lstm_pairs();

    let n = flat.rows();
    let fold_size = n / config.folds;
    let mut ws = Workspace::new();
    let mut ae_correct = 0usize;
    let mut ae_total = 0usize;
    let mut lstm_correct = 0usize;
    let mut lstm_total = 0usize;

    for fold in 0..config.folds {
        let test_start = fold * fold_size;
        let test_end = if fold + 1 == config.folds { n } else { test_start + fold_size };

        // Train the AE on everything outside the fold.
        let train =
            Matrix::stack_rows(&[flat.slice_rows(0, test_start), flat.slice_rows(test_end, n)]);
        let ae = Autoencoder::train(
            AutoencoderConfig {
                input_dim: flat.cols(),
                hidden: config.training.autoencoder_hidden.clone(),
                epochs: config.training.autoencoder_epochs,
                seed: config.training.seed,
                ..AutoencoderConfig::for_input(flat.cols())
            },
            &train,
        );
        let threshold = Threshold::fit(ae.training_errors(), config.training.threshold_pct);
        // One batched pass over the held-out fold instead of a GEMV per row.
        let fold_scores = ae.score_rows(&flat.slice_rows(test_start, test_end), &mut ws);
        ae_total += fold_scores.len();
        ae_correct += fold_scores.iter().filter(|s| !threshold.is_anomalous(**s)).count();

        // Same protocol for the LSTM over its (window, next) pairs.
        let m = lstm_windows.len();
        let lstm_fold = m / config.folds;
        let lt_start = fold * lstm_fold;
        let lt_end = if fold + 1 == config.folds { m } else { lt_start + lstm_fold };
        let (mut tw, mut tn) = (Vec::new(), Vec::new());
        for i in 0..m {
            if i < lt_start || i >= lt_end {
                tw.push(lstm_windows[i].clone());
                tn.push(lstm_nexts[i].clone());
            }
        }
        let lstm = Lstm::train(
            LstmConfig {
                input_dim: FEATURES_PER_RECORD,
                hidden: config.training.lstm_hidden,
                epochs: config.training.lstm_epochs,
                seed: config.training.seed,
                ..LstmConfig::for_input(FEATURES_PER_RECORD)
            },
            &tw,
            &tn,
        );
        let threshold = Threshold::fit(lstm.training_errors(), config.training.threshold_pct);
        let fold_scores =
            lstm.score_batch(&lstm_windows[lt_start..lt_end], &lstm_nexts[lt_start..lt_end], &mut ws);
        lstm_total += fold_scores.len();
        lstm_correct += fold_scores.iter().filter(|s| !threshold.is_anomalous(**s)).count();
    }

    (
        100.0 * ae_correct as f64 / ae_total.max(1) as f64,
        100.0 * lstm_correct as f64 / lstm_total.max(1) as f64,
    )
}

/// Runs the experiment.
pub fn run(config: &Table2Config) -> Table2Result {
    let mut training = config.training.clone();
    training.window = config.training.window;

    // --- benign dataset -----------------------------------------------------
    let benign_report = DatasetBuilder::small(config.seed, config.benign_sessions).benign();
    let benign_stream = extract_from_events(&benign_report.events);
    let (ae_benign_acc, lstm_benign_acc) = benign_cross_validation(config, &benign_stream);

    // --- attack datasets ----------------------------------------------------
    let models = Smo::train(&training, &benign_stream).expect("training succeeds");
    let feature_config = FeatureConfig { window: training.window };

    let mut ae_conf = Confusion::default();
    let mut lstm_conf = Confusion::default();
    let mut per_attack_ae_recall = Vec::new();
    let mut per_attack_ae_detected = Vec::new();
    let mut ws = Workspace::new();

    for kind in AttackKind::ALL {
        let eval_seed = config.seed + 1_000 + kind as u64;
        let ds = DatasetBuilder::small(eval_seed, config.benign_sessions).attack(kind);
        let stream = extract_from_events(&ds.report.events);
        let dataset = Featurizer::encode_stream(&feature_config, &stream);

        // Autoencoder.
        let flat = dataset.flat_windows();
        let truth = dataset.window_labels();
        let scores = models.autoencoder.score_rows(&flat, &mut ws);
        let pred = models.ae_threshold.classify(&scores);
        let kind_conf = Confusion::from_predictions(&pred, &truth);
        per_attack_ae_recall.push((kind, kind_conf.recall().unwrap_or(1.0)));
        per_attack_ae_detected.push((kind, kind_conf.tp > 0));
        ae_conf.tp += kind_conf.tp;
        ae_conf.fp += kind_conf.fp;
        ae_conf.tn += kind_conf.tn;
        ae_conf.fn_ += kind_conf.fn_;

        // LSTM.
        let (windows, nexts) = dataset.lstm_pairs();
        let truth = dataset.lstm_labels();
        let scores = models.lstm.score_batch(&windows, &nexts, &mut ws);
        let pred = models.lstm_threshold.classify(&scores);
        let kind_conf = Confusion::from_predictions(&pred, &truth);
        lstm_conf.tp += kind_conf.tp;
        lstm_conf.fp += kind_conf.fp;
        lstm_conf.tn += kind_conf.tn;
        lstm_conf.fn_ += kind_conf.fn_;
    }

    let pct = |v: Option<f64>| v.map(|x| x * 100.0);
    let rows = vec![
        Table2Row {
            dataset: "Benign".into(),
            model: "Autoencoder".into(),
            accuracy: ae_benign_acc,
            precision: ae_benign_acc,
            recall: None,
            f1: None,
        },
        Table2Row {
            dataset: "Benign".into(),
            model: "LSTM".into(),
            accuracy: lstm_benign_acc,
            precision: lstm_benign_acc,
            recall: None,
            f1: None,
        },
        Table2Row {
            dataset: "Attack".into(),
            model: "Autoencoder".into(),
            accuracy: pct(ae_conf.accuracy()).unwrap_or(0.0),
            precision: pct(ae_conf.precision()).unwrap_or(0.0),
            recall: pct(ae_conf.recall()),
            f1: pct(ae_conf.f1()),
        },
        Table2Row {
            dataset: "Attack".into(),
            model: "LSTM".into(),
            accuracy: pct(lstm_conf.accuracy()).unwrap_or(0.0),
            precision: pct(lstm_conf.precision()).unwrap_or(0.0),
            recall: pct(lstm_conf.recall()),
            f1: pct(lstm_conf.f1()),
        },
    ];

    Table2Result { rows, per_attack_ae_recall, per_attack_ae_detected }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table2_has_the_papers_shape() {
        let result = run(&Table2Config::quick(5));
        assert_eq!(result.rows.len(), 4);
        // Benign rows: high accuracy, no recall.
        for row in &result.rows[..2] {
            assert!(row.accuracy > 80.0, "{row:?}");
            assert!(row.recall.is_none());
        }
        // Attack rows: the autoencoder must keep high window recall; the
        // LSTM is the weaker model (as in the paper, where it also trails
        // the autoencoder).
        let ae_recall = result.rows[2].recall.unwrap();
        let lstm_recall = result.rows[3].recall.unwrap();
        assert!(ae_recall > 80.0, "AE recall collapsed: {:?}", result.rows[2]);
        assert!(lstm_recall > 40.0, "LSTM recall collapsed: {:?}", result.rows[3]);
        assert!(ae_recall >= lstm_recall, "the paper's ordering (AE ≥ LSTM) must hold");
        assert_eq!(result.per_attack_ae_recall.len(), 5);
        // The headline claim: every attack is detected.
        assert!(
            result.per_attack_ae_detected.iter().all(|(_, d)| *d),
            "an attack went fully undetected: {:?}",
            result.per_attack_ae_detected
        );
        let render = result.render();
        assert!(render.contains("Autoencoder"));
        assert!(render.contains("N/A"));
    }
}
