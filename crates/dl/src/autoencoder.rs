//! The autoencoder outlier detector (paper §3.2, "Autoencoders").
//!
//! Trained only on benign windows to minimize reconstruction MSE; at
//! inference, a window's anomaly score *is* its reconstruction error. Scores
//! above a threshold chosen as a percentile of the *training* errors (the
//! paper uses the 99th, assuming ~1% noise) flag the window anomalous.

use crate::dense::{Activation, Dense, GradScratch};
use crate::metrics::percentile;
use crate::tensor::Matrix;
use crate::workspace::Workspace;
use crate::Precision;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Autoencoder hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutoencoderConfig {
    /// Input width (window length × features per record).
    pub input_dim: usize,
    /// Widths of the encoder's hidden layers; the decoder mirrors them.
    /// The last entry is the bottleneck.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl AutoencoderConfig {
    /// The defaults used by the Table 2 experiment.
    pub fn for_input(input_dim: usize) -> Self {
        AutoencoderConfig {
            input_dim,
            hidden: vec![64, 16],
            learning_rate: 1e-3,
            epochs: 40,
            batch_size: 32,
            seed: 42,
        }
    }
}

/// The trained model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Autoencoder {
    layers: Vec<Dense>,
    config: AutoencoderConfig,
    /// Reconstruction errors on the training set, kept for thresholding.
    training_errors: Vec<f32>,
}

/// What [`Autoencoder::train`] reuses from step to step — never part of the
/// model: every layer's activations (`acts[0]` is the batch), the gradient
/// flowing back and the buffer it is written to next.
#[derive(Debug, Default)]
struct TrainScratch {
    acts: Vec<Matrix>,
    grad: Matrix,
    grad_in: Matrix,
    dense: GradScratch,
}

impl Autoencoder {
    /// Trains on benign windows (`rows × input_dim`).
    ///
    /// # Panics
    /// If the dataset is empty or widths disagree with the config.
    pub fn train(config: AutoencoderConfig, data: &Matrix) -> Self {
        assert!(data.rows() > 0, "empty training set");
        assert_eq!(data.cols(), config.input_dim, "data width != input_dim");
        assert!(!config.hidden.is_empty(), "need at least one hidden layer");

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut layers = Vec::new();
        // Encoder.
        let mut widths = vec![config.input_dim];
        widths.extend(&config.hidden);
        for w in widths.windows(2) {
            layers.push(Dense::new(w[0], w[1], Activation::Relu, &mut rng));
        }
        // Decoder (mirrored). Sigmoid output: every feature lives in
        // [0, 1] (see the featurizer's weighting scheme), and the bounded
        // nonlinearity keeps the decoder from extrapolating to anomalous
        // feature combinations it never saw.
        let mut rev: Vec<usize> = widths.clone();
        rev.reverse();
        for (i, w) in rev.windows(2).enumerate() {
            let act =
                if i + 1 == rev.len() - 1 { Activation::Sigmoid } else { Activation::Relu };
            layers.push(Dense::new(w[0], w[1], act, &mut rng));
        }

        let mut model =
            Autoencoder { layers, config: config.clone(), training_errors: Vec::new() };

        let mut scratch = TrainScratch::default();
        scratch.acts.resize(model.layers.len() + 1, Matrix::default());
        let mut order: Vec<usize> = (0..data.rows()).collect();
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(config.batch_size) {
                let batch = &mut scratch.acts[0];
                batch.resize(chunk.len(), config.input_dim);
                for (row, &i) in batch.data_mut().chunks_exact_mut(config.input_dim).zip(chunk) {
                    row.copy_from_slice(data.row_slice(i));
                }
                model.train_step(&mut scratch);
            }
        }

        model.training_errors = model.score_rows(data, &mut Workspace::new());
        model
    }

    /// One Adam step on the batch in `scratch.acts[0]`; allocates nothing
    /// once the buffers have seen a full batch.
    fn train_step(&mut self, scratch: &mut TrainScratch) {
        let TrainScratch { acts, grad, grad_in, dense } = scratch;
        for (li, layer) in self.layers.iter().enumerate() {
            let (input, output) = acts.split_at_mut(li + 1);
            layer.forward_to(&input[li], &mut output[0]);
        }
        let (batch, recon) = (&acts[0], &acts[self.layers.len()]);
        let scale = 2.0 / recon.data().len() as f32;
        grad.resize(recon.rows(), recon.cols());
        for ((g, &y), &x) in grad.data_mut().iter_mut().zip(recon.data()).zip(batch.data()) {
            *g = (y - x) * scale;
        }
        for (li, layer) in self.layers.iter_mut().enumerate().rev() {
            // Nothing reads the first layer's input gradient.
            let wanted = (li > 0).then_some(&mut *grad_in);
            layer.grad_step(&acts[li], &acts[li + 1], grad, wanted, dense, self.config.learning_rate);
            std::mem::swap(grad, grad_in);
        }
    }

    /// Reconstructs an input batch.
    pub fn reconstruct(&self, x: &Matrix) -> Matrix {
        let mut y = x.clone();
        for layer in &self.layers {
            y = layer.forward(&y);
        }
        y
    }

    /// Anomaly score of a single window (1 × input_dim): reconstruction MSE.
    ///
    /// This is the allocation-heavy reference path; the hot paths go
    /// through [`Autoencoder::score_spans`], which the parity tests pin
    /// against it.
    pub fn score_row(&self, x: &Matrix) -> f32 {
        assert_eq!(x.rows(), 1, "score_row takes one window");
        self.reconstruct(x).sub(x).mean_sq()
    }

    /// The one inference pass: `m` flat row-major windows through the layer
    /// stack, each layer a single GEMM over all of them, activations
    /// ping-ponging between two workspace buffers; returns the one holding
    /// the reconstruction. By the kernels' row-invariance contract a
    /// window reconstructs to the same bits alone and in any batch.
    fn reconstruct_into<'w>(&self, x: &[f32], m: usize, ws: &'w mut Workspace) -> &'w Matrix {
        for (li, layer) in self.layers.iter().enumerate() {
            let grew = if li == 0 {
                layer.forward_into(x, m, &mut ws.a)
            } else if li % 2 == 1 {
                layer.forward_into(ws.a.data(), m, &mut ws.b)
            } else {
                layer.forward_into(ws.b.data(), m, &mut ws.a)
            };
            ws.note(grew);
        }
        if self.layers.len() % 2 == 1 {
            &ws.a
        } else {
            &ws.b
        }
    }

    /// Scores every `input_dim`-wide window of `spans` (flat, back to back)
    /// in one batched pass, replacing `out` with one score per window. All
    /// temporaries live in the workspace.
    ///
    /// # Panics
    /// If `spans` is not a whole number of windows.
    pub fn score_spans(&self, spans: &[f32], ws: &mut Workspace, out: &mut Vec<f32>) {
        let d = self.config.input_dim;
        assert!(spans.len().is_multiple_of(d), "spans are not whole {d}-wide windows");
        out.clear();
        if spans.is_empty() {
            return;
        }
        let recon = self.reconstruct_into(spans, spans.len() / d, ws);
        out.extend(
            spans
                .chunks_exact(d)
                .zip(recon.data().chunks_exact(d))
                .map(|(x, y)| crate::kernels::mse_row(x, y)),
        );
    }

    /// Scores every row of `data`; row `i` of the result equals
    /// `score_row(data.row_at(i))`.
    pub fn score_rows(&self, data: &Matrix, ws: &mut Workspace) -> Vec<f32> {
        let mut out = Vec::with_capacity(data.rows());
        self.score_spans(data.data(), ws, &mut out);
        out
    }

    /// Scores one flattened window (`input_dim` floats) without allocating
    /// once the workspace is warm.
    ///
    /// # Panics
    /// If `flat.len() != input_dim`.
    pub fn score_window(&self, flat: &[f32], ws: &mut Workspace) -> f32 {
        assert_eq!(flat.len(), self.config.input_dim, "window width mismatch");
        crate::kernels::mse_row(flat, self.reconstruct_into(flat, 1, ws).row_slice(0))
    }

    /// [`Autoencoder::score_window`] under the spelling the frozen
    /// `benchmark/` package calls; [`Precision`] has one variant.
    pub fn score_window_with(&self, flat: &[f32], ws: &mut Workspace, _: Precision) -> f32 {
        self.score_window(flat, ws)
    }

    /// The detection threshold at the given percentile of training errors
    /// (the paper's rule with `pct = 99.0`).
    pub fn threshold(&self, pct: f64) -> f32 {
        percentile(&self.training_errors, pct)
    }

    /// Reconstruction errors on the training set.
    pub fn training_errors(&self) -> &[f32] {
        &self.training_errors
    }

    /// Serializes the model to JSON (the SMO's deployment artifact).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serializes")
    }

    /// Loads a model from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Synthetic "benign" data: two one-hot-ish prototype patterns plus
    /// noise. Outliers use a pattern never seen in training.
    fn synthetic(n: usize, seed: u64) -> (Matrix, Matrix) {
        let dim = 24;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut benign_rows = Vec::new();
        for i in 0..n {
            let mut v = vec![0.05f32; dim];
            let proto = i % 2;
            for j in 0..6 {
                v[proto * 6 + j] = 1.0 - rng.gen_range(0.0..0.1);
            }
            benign_rows.push(Matrix::row(v));
        }
        let mut outlier_rows = Vec::new();
        for _ in 0..n / 4 {
            let mut v = vec![0.05f32; dim];
            for slot in &mut v[18..24] {
                *slot = 1.0; // a region never active in benign data
            }
            outlier_rows.push(Matrix::row(v));
        }
        (Matrix::stack_rows(&benign_rows), Matrix::stack_rows(&outlier_rows))
    }

    fn quick_config(dim: usize) -> AutoencoderConfig {
        AutoencoderConfig {
            input_dim: dim,
            hidden: vec![12, 4],
            learning_rate: 5e-3,
            epochs: 60,
            batch_size: 16,
            seed: 1,
        }
    }

    #[test]
    fn separates_outliers_from_benign() {
        let (benign, outliers) = synthetic(120, 3);
        let model = Autoencoder::train(quick_config(benign.cols()), &benign);
        let threshold = model.threshold(99.0);
        let mut ws = Workspace::new();
        let benign_scores = model.score_rows(&benign, &mut ws);
        let outlier_scores = model.score_rows(&outliers, &mut ws);
        let benign_above = benign_scores.iter().filter(|&&s| s > threshold).count();
        let outliers_above = outlier_scores.iter().filter(|&&s| s > threshold).count();
        assert!(
            benign_above <= benign_scores.len() / 50 + 2,
            "too many benign false positives: {benign_above}/{}",
            benign_scores.len()
        );
        assert_eq!(
            outliers_above,
            outlier_scores.len(),
            "all outliers must exceed the threshold"
        );
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let (benign, _) = synthetic(80, 5);
        let short = AutoencoderConfig { epochs: 1, ..quick_config(benign.cols()) };
        let long = AutoencoderConfig { epochs: 80, ..quick_config(benign.cols()) };
        let e1: f32 = Autoencoder::train(short, &benign).training_errors().iter().sum();
        let e2: f32 = Autoencoder::train(long, &benign).training_errors().iter().sum();
        assert!(e2 < e1, "more training should fit better: {e2} !< {e1}");
    }

    #[test]
    fn training_is_deterministic() {
        let (benign, _) = synthetic(40, 7);
        let a = Autoencoder::train(quick_config(benign.cols()), &benign);
        let b = Autoencoder::train(quick_config(benign.cols()), &benign);
        assert_eq!(a.training_errors(), b.training_errors());
    }

    #[test]
    fn json_round_trip_preserves_scores() {
        let (benign, _) = synthetic(40, 9);
        let model = Autoencoder::train(quick_config(benign.cols()), &benign);
        let back = Autoencoder::from_json(&model.to_json()).unwrap();
        let x = benign.row_at(0);
        assert_eq!(model.score_row(&x), back.score_row(&x));
        assert_eq!(model.threshold(99.0), back.threshold(99.0));
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_panics() {
        let _ = Autoencoder::train(quick_config(4), &Matrix::zeros(0, 4));
    }

    #[test]
    fn batched_score_rows_matches_per_row() {
        let (benign, outliers) = synthetic(60, 13);
        let model = Autoencoder::train(quick_config(benign.cols()), &benign);
        let mut ws = Workspace::new();
        for data in [&benign, &outliers] {
            let batched = model.score_rows(data, &mut ws);
            assert_eq!(batched.len(), data.rows());
            for (i, s) in batched.iter().enumerate() {
                let reference = model.score_row(&data.row_at(i));
                assert!(
                    (s - reference).abs() < 1e-5,
                    "row {i}: batched {s} vs per-row {reference}"
                );
                // Against the same pass at batch size one: the same bits.
                let alone = model.score_window(data.row_slice(i), &mut ws);
                assert_eq!(s.to_bits(), alone.to_bits(), "row {i} depends on its batch");
            }
        }
    }

    #[test]
    fn score_window_matches_score_row() {
        let (benign, _) = synthetic(40, 17);
        let model = Autoencoder::train(quick_config(benign.cols()), &benign);
        let mut ws = Workspace::new();
        for i in 0..benign.rows() {
            let flat = benign.row_slice(i);
            let hot = model.score_window(flat, &mut ws);
            let reference = model.score_row(&benign.row_at(i));
            assert!(
                (hot - reference).abs() < 1e-5,
                "row {i}: hot-path {hot} vs reference {reference}"
            );
        }
    }

    #[test]
    fn steady_state_scoring_does_not_allocate() {
        let (benign, _) = synthetic(40, 19);
        let model = Autoencoder::train(quick_config(benign.cols()), &benign);
        let mut ws = Workspace::new();
        // Warm-up: buffers grow to the window shape once.
        model.score_window(benign.row_slice(0), &mut ws);
        let warm = ws.grow_events();
        for i in 0..benign.rows() {
            model.score_window(benign.row_slice(i), &mut ws);
        }
        assert_eq!(
            ws.grow_events(),
            warm,
            "steady-state single-window scoring must not grow any buffer"
        );
        // The batched path over a same-width dataset warms independently,
        // then also goes allocation-free.
        model.score_rows(&benign, &mut ws);
        let warm = ws.grow_events();
        model.score_rows(&benign, &mut ws);
        assert_eq!(ws.grow_events(), warm, "steady-state batched scoring grew a buffer");
    }
}
