//! Figure 4 — the autoencoder's reconstruction errors over the attack
//! datasets, with the detection threshold and per-attack grouping.
//!
//! The paper's observation: attack events of the same type exhibit highly
//! similar reconstruction-error patterns (① Blind DoS, ② BTS DoS), which
//! suggests the error signature could drive a supervised attack classifier.
//! The result captures the full score series plus per-attack statistics
//! that quantify the grouping.

use crate::smo::{Smo, TrainingConfig};
use serde::{Deserialize, Serialize};
use xsec_attacks::DatasetBuilder;
use xsec_dl::{FeatureConfig, Featurizer, Workspace};
use xsec_mobiflow::extract_from_events;
use xsec_types::AttackKind;

/// One scored window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoredWindow {
    /// Window index within its dataset's series.
    pub index: usize,
    /// Reconstruction error.
    pub score: f32,
    /// Ground-truth attack kind (None = benign background).
    pub kind: Option<AttackKind>,
}

/// Per-attack score statistics (the "grouping" evidence).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttackScoreStats {
    /// The attack.
    pub kind: AttackKind,
    /// Number of attack windows.
    pub windows: usize,
    /// Mean score of the attack windows.
    pub mean: f32,
    /// Standard deviation of the attack windows' scores.
    std_dev: f32,
    /// Fraction of attack windows above the threshold.
    above_threshold: f64,
}

/// The full figure data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Result {
    /// The fitted detection threshold.
    pub threshold: f32,
    /// Score series per attack dataset, in [`AttackKind::ALL`] order.
    pub series: Vec<(AttackKind, Vec<ScoredWindow>)>,
    /// Grouping statistics per attack.
    pub stats: Vec<AttackScoreStats>,
}

impl Fig4Result {
    /// Renders an ASCII scatter of the series plus the statistics table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Figure 4: Autoencoder reconstruction errors over the attack datasets\n",
        );
        out.push_str(&format!("Detection threshold: {:.5}\n\n", self.threshold));
        let max_score = self
            .series
            .iter()
            .flat_map(|(_, s)| s.iter().map(|w| w.score))
            .fold(self.threshold, f32::max);
        for (kind, series) in &self.series {
            out.push_str(&format!("── {kind} dataset ({} windows) ──\n", series.len()));
            // Downsample to ~60 columns; mark attack windows.
            let cols = 60usize;
            let stride = (series.len() / cols).max(1);
            for row in (0..8).rev() {
                let low = max_score * row as f32 / 8.0;
                let threshold_row =
                    self.threshold >= low && self.threshold < max_score * (row + 1) as f32 / 8.0;
                let mut line = String::new();
                for chunk in series.chunks(stride).take(cols) {
                    let peak = chunk.iter().map(|w| w.score).fold(0.0f32, f32::max);
                    let any_attack = chunk.iter().any(|w| w.kind.is_some());
                    let in_row = peak >= low && (row == 7 || peak < max_score * (row + 1) as f32 / 8.0);
                    line.push(if in_row {
                        if any_attack {
                            '#'
                        } else {
                            '*'
                        }
                    } else if threshold_row {
                        '-'
                    } else {
                        ' '
                    });
                }
                out.push_str(&line);
                out.push('\n');
            }
            out.push_str(&"^".repeat(10));
            out.push_str("  (# attack window peak, * benign peak, --- threshold)\n\n");
        }
        out.push_str("Per-attack grouping statistics:\n");
        out.push_str("  Attack                windows   mean      std-dev   >threshold\n");
        for s in &self.stats {
            out.push_str(&format!(
                "  {:<20} {:>7}   {:.5}   {:.5}   {:5.1}%\n",
                s.kind.short_name(),
                s.windows,
                s.mean,
                s.std_dev,
                s.above_threshold * 100.0
            ));
        }
        out
    }

    /// CSV export: `dataset,index,score,label`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("dataset,window,score,kind\n");
        for (kind, series) in &self.series {
            for w in series {
                out.push_str(&format!(
                    "{},{},{},{}\n",
                    kind.short_name(),
                    w.index,
                    w.score,
                    w.kind.map(|k| k.short_name()).unwrap_or("benign")
                ));
            }
        }
        out
    }
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Fig4Config {
    /// Master seed.
    pub seed: u64,
    /// Benign sessions per dataset.
    pub benign_sessions: usize,
    /// Training hyperparameters.
    pub training: TrainingConfig,
}

impl Fig4Config {
    /// A fast variant for tests.
    pub fn quick(seed: u64) -> Self {
        Fig4Config {
            seed,
            benign_sessions: 25,
            training: TrainingConfig {
                autoencoder_epochs: 12,
                lstm_epochs: 1,
                autoencoder_hidden: vec![48, 12],
                lstm_hidden: 8,
                ..TrainingConfig::default()
            },
        }
    }
}

impl Default for Fig4Config {
    fn default() -> Self {
        Fig4Config { seed: 1, benign_sessions: 110, training: TrainingConfig::default() }
    }
}

/// Runs the figure regeneration.
pub fn run(config: &Fig4Config) -> Fig4Result {
    let benign = DatasetBuilder::small(config.seed, config.benign_sessions).benign();
    let benign_stream = extract_from_events(&benign.events);
    let models = Smo::train(&config.training, &benign_stream).expect("training succeeds");
    let feature_config = FeatureConfig { window: config.training.window };

    let mut series = Vec::new();
    let mut stats = Vec::new();
    // One workspace spans all five datasets: the scoring buffers warm up on
    // the first and are reused for the rest.
    let mut ws = Workspace::new();
    for kind in AttackKind::ALL {
        let eval_seed = config.seed + 1_000 + kind as u64;
        let ds = DatasetBuilder::small(eval_seed, config.benign_sessions).attack(kind);
        let stream = extract_from_events(&ds.report.events);
        let dataset = Featurizer::encode_stream(&feature_config, &stream);
        let flat = dataset.flat_windows();
        let scores = models.autoencoder.score_rows(&flat, &mut ws);
        let kinds = dataset.window_attack_kinds();

        let windows: Vec<ScoredWindow> = scores
            .iter()
            .zip(&kinds)
            .enumerate()
            .map(|(index, (score, kind))| ScoredWindow { index, score: *score, kind: *kind })
            .collect();

        let attack_scores: Vec<f32> = windows
            .iter()
            .filter(|w| w.kind == Some(kind))
            .map(|w| w.score)
            .collect();
        let n = attack_scores.len().max(1) as f32;
        let mean = attack_scores.iter().sum::<f32>() / n;
        let var = attack_scores.iter().map(|s| (s - mean).powi(2)).sum::<f32>() / n;
        let above = attack_scores
            .iter()
            .filter(|s| models.ae_threshold.is_anomalous(**s))
            .count() as f64
            / attack_scores.len().max(1) as f64;
        stats.push(AttackScoreStats {
            kind,
            windows: attack_scores.len(),
            mean,
            std_dev: var.sqrt(),
            above_threshold: above,
        });
        series.push((kind, windows));
    }

    Fig4Result { threshold: models.ae_threshold.value, series, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_shows_separation_and_grouping() {
        let fig = run(&Fig4Config::quick(51));
        assert_eq!(fig.series.len(), 5);
        assert!(fig.threshold > 0.0);

        for s in &fig.stats {
            assert!(s.windows > 0, "{:?} has no attack windows", s.kind);
            // The bulk of the attack scores sit above the threshold (the
            // paper's "all data points above the threshold bar"; our honest
            // labeling also marks a replay's bland connection-setup prefix,
            // which no detector could flag — see EXPERIMENTS.md).
            assert!(
                s.above_threshold > 0.7,
                "{:?}: only {:.0}% above threshold",
                s.kind,
                s.above_threshold * 100.0
            );
            // Grouping: the within-attack spread is small relative to the
            // attack's mean elevation above the threshold.
            assert!(
                s.std_dev < s.mean,
                "{:?}: scores too dispersed (std {} vs mean {})",
                s.kind,
                s.std_dev,
                s.mean
            );
        }

        // Attack means dominate benign means in every dataset.
        for (kind, series) in &fig.series {
            let benign_mean = mean(series.iter().filter(|w| w.kind.is_none()).map(|w| w.score));
            let attack_mean = mean(series.iter().filter(|w| w.kind.is_some()).map(|w| w.score));
            assert!(
                attack_mean > benign_mean,
                "{kind}: attack windows do not stand out"
            );
        }

        let text = fig.render();
        assert!(text.contains("threshold"));
        let csv = fig.to_csv();
        assert!(csv.lines().count() > 10);
    }

    fn mean(iter: impl Iterator<Item = f32>) -> f32 {
        let v: Vec<f32> = iter.collect();
        v.iter().sum::<f32>() / v.len().max(1) as f32
    }
}
