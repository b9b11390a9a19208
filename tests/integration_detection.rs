//! Integration over the learning stack: featurization invariants on real
//! simulated traffic, model training on real datasets, and the separation
//! properties behind Table 2 and Figure 4.

use sixg_xsec::smo::{Smo, TrainingConfig};
use xsec_attacks::DatasetBuilder;
use xsec_dl::{FeatureConfig, Featurizer, Workspace, FEATURES_PER_RECORD};
use xsec_mobiflow::extract_from_events;
use xsec_types::AttackKind;

fn quick_training() -> TrainingConfig {
    TrainingConfig {
        autoencoder_epochs: 60,
        lstm_epochs: 3,
        autoencoder_hidden: vec![48, 12],
        lstm_hidden: 24,
        ..TrainingConfig::default()
    }
}

#[test]
fn featurizer_is_deterministic_and_well_shaped_on_real_traffic() {
    let report = DatasetBuilder::small(200, 15).benign();
    let stream = extract_from_events(&report.events);
    let config = FeatureConfig { window: 4 };
    let a = Featurizer::encode_stream(&config, &stream);
    let b = Featurizer::encode_stream(&config, &stream);
    assert_eq!(a.record_features, b.record_features);
    for features in &a.record_features {
        assert_eq!(features.len(), FEATURES_PER_RECORD);
        assert!(features.iter().all(|x| x.is_finite() && *x >= 0.0));
    }
    // Benign traffic never activates the security-critical bits above the
    // sigmoid range: no SUPI exposures, no TMSI reuse, no null algorithms.
    let supi_idx = FEATURES_PER_RECORD - 14;
    let reuse_idx = FEATURES_PER_RECORD - 13;
    for features in &a.record_features {
        assert_eq!(features[supi_idx], 0.0, "benign SUPI exposure bit set");
        assert_eq!(features[reuse_idx], 0.0, "benign TMSI reuse bit set");
    }
}

#[test]
fn trained_models_separate_every_attack_dataset() {
    let benign = DatasetBuilder::small(201, 30).benign();
    let stream = extract_from_events(&benign.events);
    let models = Smo::train(&quick_training(), &stream).unwrap();
    let config = FeatureConfig { window: 4 };
    let mut ws = Workspace::new();

    for kind in AttackKind::ALL {
        let ds = DatasetBuilder::small(1201 + kind as u64, 30).attack(kind);
        let stream = extract_from_events(&ds.report.events);
        let dataset = Featurizer::encode_stream(&config, &stream);
        let flat = dataset.flat_windows();
        let truth = dataset.window_labels();
        let scores = models.autoencoder.score_rows(&flat, &mut ws);

        // Attack windows score higher than benign windows on average...
        let mean = |sel: bool| {
            let v: Vec<f32> = scores
                .iter()
                .zip(&truth)
                .filter(|(_, t)| **t == sel)
                .map(|(s, _)| *s)
                .collect();
            v.iter().sum::<f32>() / v.len().max(1) as f32
        };
        assert!(
            mean(true) > 2.0 * mean(false),
            "{kind}: attack mean {} vs benign mean {}",
            mean(true),
            mean(false)
        );
        // ...and the attack is detected (some window above threshold).
        let detected = scores
            .iter()
            .zip(&truth)
            .any(|(s, t)| *t && models.ae_threshold.is_anomalous(*s));
        assert!(detected, "{kind} went undetected");
    }
}

#[test]
fn lstm_detects_the_content_level_attacks() {
    let benign = DatasetBuilder::small(202, 30).benign();
    let stream = extract_from_events(&benign.events);
    let models = Smo::train(&quick_training(), &stream).unwrap();
    let config = FeatureConfig { window: 4 };
    let mut ws = Workspace::new();

    // The content-level attacks (null cipher, extraction) must be visible
    // to the LSTM's next-step prediction error too.
    for kind in [AttackKind::NullCipher, AttackKind::DownlinkIdExtraction] {
        let ds = DatasetBuilder::small(1301 + kind as u64, 30).attack(kind);
        let stream = extract_from_events(&ds.report.events);
        let dataset = Featurizer::encode_stream(&config, &stream);
        let (windows, nexts) = dataset.lstm_pairs();
        let truth = dataset.lstm_labels();
        let scores = models.lstm.score_batch(&windows, &nexts, &mut ws);
        let detected = scores
            .iter()
            .zip(&truth)
            .any(|(s, t)| *t && models.lstm_threshold.is_anomalous(*s));
        assert!(detected, "{kind} invisible to the LSTM");
    }
}

#[test]
fn window_size_sweep_trains_and_evaluates() {
    // The N ablation from DESIGN.md must at least be runnable end to end.
    let benign = DatasetBuilder::small(203, 12).benign();
    let stream = extract_from_events(&benign.events);
    for window in [2usize, 4, 8] {
        let config = TrainingConfig {
            window,
            autoencoder_epochs: 10,
            lstm_epochs: 1,
            autoencoder_hidden: vec![32, 8],
            lstm_hidden: 8,
            ..TrainingConfig::default()
        };
        let models = Smo::train(&config, &stream).unwrap();
        assert!(models.ae_threshold.value > 0.0, "window {window}");
        assert_eq!(models.feature_config.window, window);
    }
}
