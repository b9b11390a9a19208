//! Quality ablations for the design choices DESIGN.md calls out:
//!
//! 1. sliding-window length `N`,
//! 2. detection-threshold percentile,
//! 3. autoencoder bottleneck width,
//! 4. the MobiWatch→LLM chaining cost model (§3.3's motivation).
//!
//! Each sweep reports benign accuracy and attack recall/precision so the
//! trade-off behind the defaults (N=4, p99, 64→16) is visible.

use sixg_xsec::smo::{Smo, TrainingConfig};
use sixg_xsec::{window_truth, Detector, MobiWatch, MobiWatchConfig};
use xsec_attacks::DatasetBuilder;
use xsec_dl::{Confusion, FeatureConfig, Featurizer, Threshold, Workspace};
use xsec_mobiflow::extract_from_events;
use xsec_obs::Obs;
use xsec_types::AttackKind;

struct Eval {
    benign_accuracy: f64,
    attack_recall: f64,
    attack_precision: f64,
}

/// Runs one train+score cycle, timing it into the harness registry so the
/// sweep cost shows up in the exported snapshot.
fn evaluate(
    obs: &Obs,
    training: &TrainingConfig,
    seed: u64,
    sessions: usize,
    pct: f64,
    sweep: &str,
) -> Eval {
    let timer = obs
        .histogram("xsec_bench_ablation_eval_latency_us", &[("sweep", sweep)]);
    let start = std::time::Instant::now();
    let eval = evaluate_inner(training, seed, sessions, pct);
    timer.observe_duration(start.elapsed());
    eval
}

fn evaluate_inner(training: &TrainingConfig, seed: u64, sessions: usize, pct: f64) -> Eval {
    let benign = DatasetBuilder::small(seed, sessions).benign();
    let benign_stream = extract_from_events(&benign.events);
    let models = Smo::train(training, &benign_stream).expect("training succeeds");
    let threshold = Threshold { value: models.autoencoder.threshold(pct), pct };
    // Re-fit at the requested percentile over held-out-style scores: reuse
    // the deployed threshold when the percentile matches the config.
    let threshold =
        if (pct - training.threshold_pct).abs() < f64::EPSILON { models.ae_threshold } else { threshold };
    let config = FeatureConfig { window: training.window };
    let mut ws = Workspace::new();

    // Benign accuracy on a fresh seed.
    let fresh = DatasetBuilder::small(seed + 5_000, sessions).benign();
    let stream = extract_from_events(&fresh.events);
    let dataset = Featurizer::encode_stream(&config, &stream);
    let scores = models.autoencoder.score_rows(&dataset.flat_windows(), &mut ws);
    let benign_accuracy =
        scores.iter().filter(|s| !threshold.is_anomalous(**s)).count() as f64
            / scores.len().max(1) as f64;

    // Aggregate attack metrics.
    let mut conf = Confusion::default();
    for kind in AttackKind::ALL {
        let ds = DatasetBuilder::small(seed + 1_000 + kind as u64, sessions).attack(kind);
        let stream = extract_from_events(&ds.report.events);
        let dataset = Featurizer::encode_stream(&config, &stream);
        let scores = models.autoencoder.score_rows(&dataset.flat_windows(), &mut ws);
        let pred = threshold.classify(&scores);
        let truth = window_truth(&stream, Detector::Autoencoder.span(config.window), |_| ());
        let k = Confusion::from_predictions(&pred, &truth);
        conf.tp += k.tp;
        conf.fp += k.fp;
        conf.tn += k.tn;
        conf.fn_ += k.fn_;
    }
    Eval {
        benign_accuracy: benign_accuracy * 100.0,
        attack_recall: conf.recall().unwrap_or(0.0) * 100.0,
        attack_precision: conf.precision().unwrap_or(0.0) * 100.0,
    }
}

fn main() {
    let obs = Obs::new();
    let quick = xsec_bench::quick_mode();
    let sessions = if quick { 20 } else { 60 };
    let base = TrainingConfig {
        autoencoder_epochs: if quick { 40 } else { 120 },
        lstm_epochs: 1, // the ablations sweep the autoencoder only
        lstm_hidden: 8,
        ..TrainingConfig::default()
    };
    let mut out = String::new();
    let mut emit = |line: String| {
        println!("{line}");
        out.push_str(&line);
        out.push('\n');
    };

    emit("Ablation 1: sliding-window length N (threshold p99)".into());
    emit(format!("  {:<6} {:>14} {:>14} {:>16}", "N", "benign acc", "attack recall", "attack precision"));
    for window in [2usize, 4, 6, 8, 12] {
        let training = TrainingConfig { window, ..base.clone() };
        let e = evaluate(&obs, &training, 10, sessions, 99.0, "window");
        emit(format!(
            "  {:<6} {:>13.1}% {:>13.1}% {:>15.1}%",
            window, e.benign_accuracy, e.attack_recall, e.attack_precision
        ));
    }

    emit("\nAblation 2: threshold percentile (N=4)".into());
    emit(format!("  {:<6} {:>14} {:>14} {:>16}", "pct", "benign acc", "attack recall", "attack precision"));
    for pct in [90.0, 95.0, 99.0, 99.9] {
        let training = TrainingConfig { threshold_pct: pct, ..base.clone() };
        let e = evaluate(&obs, &training, 11, sessions, pct, "threshold");
        emit(format!(
            "  {:<6} {:>13.1}% {:>13.1}% {:>15.1}%",
            pct, e.benign_accuracy, e.attack_recall, e.attack_precision
        ));
    }

    emit("\nAblation 3: autoencoder bottleneck (N=4, p99)".into());
    emit(format!("  {:<12} {:>14} {:>14} {:>16}", "hidden", "benign acc", "attack recall", "attack precision"));
    for hidden in [vec![16, 4], vec![32, 8], vec![64, 16], vec![128, 32]] {
        let training = TrainingConfig { autoencoder_hidden: hidden.clone(), ..base.clone() };
        let e = evaluate(&obs, &training, 12, sessions, 99.0, "bottleneck");
        emit(format!(
            "  {:<12} {:>13.1}% {:>13.1}% {:>15.1}%",
            format!("{hidden:?}"),
            e.benign_accuracy,
            e.attack_recall,
            e.attack_precision
        ));
    }

    emit("\nAblation 4: MobiWatch→LLM chaining cost model (§3.3)".into());
    // Estimate how many "LLM calls" each policy triggers on one attack run.
    let ds = DatasetBuilder::small(13, sessions).attack(AttackKind::BtsDos);
    let stream = extract_from_events(&ds.report.events);
    let training = base.clone();
    let benign = DatasetBuilder::small(10, sessions).benign();
    let models =
        Smo::train(&training, &extract_from_events(&benign.events)).expect("training succeeds");
    let dataset = Featurizer::encode_stream(&FeatureConfig { window: 4 }, &stream);
    let scores = models.autoencoder.score_rows(&dataset.flat_windows(), &mut Workspace::new());
    let flagged = scores.iter().filter(|s| models.ae_threshold.is_anomalous(**s)).count();
    emit(format!("  windows in the run:            {:>8}", scores.len()));
    emit(format!("  LLM calls without pre-filter:  {:>8}  (every window)", scores.len()));
    emit(format!("  LLM calls with MobiWatch only: {:>8}  (flagged windows)", flagged));
    let cooldown = 16usize;
    let mut calls = 0usize;
    let mut last: Option<usize> = None;
    for (i, s) in scores.iter().enumerate() {
        if models.ae_threshold.is_anomalous(*s)
            && last.map(|l| i - l >= cooldown).unwrap_or(true)
        {
            calls += 1;
            last = Some(i);
        }
    }
    emit(format!("  ... plus alert cooldown ({cooldown}): {:>7}  (alert candidates)", calls));
    // The deployed detector: the cooldown, then the incident gate.
    let (mut watch, state) = MobiWatch::new(models, MobiWatchConfig::default());
    for record in &stream.records {
        watch.process_record(record);
    }
    let published = state.lock().alerts.len();
    emit(format!("  ... plus incident gate:        {published:>8}  (deployed policy)"));

    // Surface what the sweeps themselves cost, per sweep kind.
    let snapshot = obs.snapshot();
    emit("\nHarness cost (train+score cycle per sweep point)".into());
    for (sample, h) in snapshot.histograms("xsec_bench_ablation_eval_latency_us") {
        let sweep = sample.labels.first().map(|(_, v)| v.as_str()).unwrap_or("?");
        emit(format!(
            "  {:<12} n={}  p50={:.0}ms  max={:.0}ms",
            sweep,
            h.count,
            h.p50 / 1000.0,
            h.max as f64 / 1000.0
        ));
    }

    xsec_bench::save_report("ablations", &out);
    xsec_bench::save_metrics(&snapshot, "ablations-metrics");
}
