//! The LSTM next-step predictor (paper §3.2, "Sequence Modeling").
//!
//! A single-layer LSTM reads a window of telemetry vectors and predicts the
//! *next* vector: `x̂_{i+N} = f_LSTM(x_i .. x_{i+N-1})`. The anomaly score of
//! a window is the MSE between the prediction and the actually observed next
//! telemetry — out-of-order sequences and unusual parameter combinations
//! make that error spike.
//!
//! Implemented from scratch with full backpropagation through time; the
//! analytic gradients are validated against finite differences in the tests.

use crate::dense::{sigmoid, Activation, AdamState, Dense, GradScratch};
use crate::metrics::percentile;
use crate::tensor::Matrix;
use crate::workspace::Workspace;
use crate::Precision;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// LSTM hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmConfig {
    /// Per-step feature width.
    pub input_dim: usize,
    /// Hidden state width.
    pub hidden: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl LstmConfig {
    /// The defaults used by the Table 2 experiment.
    pub fn for_input(input_dim: usize) -> Self {
        LstmConfig { input_dim, hidden: 48, learning_rate: 2e-3, epochs: 12, seed: 42 }
    }
}

/// What one training step (and the reference forward pass) reuses from
/// window to window — never part of the model. Per-step rows are kept for
/// BPTT: `h_prev`/`c_prev` row `t` is the state step `t` started from,
/// `gates` row `t` its activated `[i | f | g | o]`, `tanh_c` row `t` the
/// `tanh` of the cell it produced.
#[derive(Debug, Default)]
struct SeqScratch {
    xw: Matrix,
    hu: Matrix,
    h: Matrix,
    c: Matrix,
    h_prev: Matrix,
    c_prev: Matrix,
    gates: Matrix,
    tanh_c: Matrix,
    pred: Matrix,
    grad_pred: Matrix,
    u_t: Matrix,
    dz: Matrix,
    dh: Matrix,
    dc: Matrix,
    grad_w: Matrix,
    grad_u: Matrix,
    grad_b: Matrix,
    head: GradScratch,
}

/// `grad += xᵀ·dz` for a single row `x` — bit for bit what the k = 1 GEMM
/// into zeros and the matrix add it replaces compute: each product rounded,
/// then added, never fused. A zero `x` contributes a row of `+0.0`, and
/// gradients never hold `−0.0`, so skipping it moves nothing.
fn add_outer(grad: &mut Matrix, x: &[f32], dz: &[f32]) {
    for (row, &xv) in grad.data_mut().chunks_exact_mut(dz.len()).zip(x) {
        if xv != 0.0 {
            for (g, &d) in row.iter_mut().zip(dz) {
                *g += 0.0 + xv * d;
            }
        }
    }
}

/// The trained LSTM predictor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lstm {
    /// Input→gates weights (`input_dim × 4·hidden`), gate order `i f g o`.
    w: Matrix,
    /// Hidden→gates weights (`hidden × 4·hidden`).
    u: Matrix,
    /// Gate biases (`1 × 4·hidden`).
    b: Matrix,
    /// Output projection hidden → input_dim prediction.
    head: Dense,
    config: LstmConfig,
    adam_w: AdamState,
    adam_u: AdamState,
    adam_b: AdamState,
    training_errors: Vec<f32>,
}

impl Lstm {
    /// Trains on `(window, next)` pairs: `windows[k]` is a `N × input_dim`
    /// sequence, `nexts[k]` the `1 × input_dim` vector that followed it.
    ///
    /// # Panics
    /// If the dataset is empty or shapes disagree.
    pub fn train(config: LstmConfig, windows: &[Matrix], nexts: &[Matrix]) -> Self {
        assert!(!windows.is_empty(), "empty training set");
        assert_eq!(windows.len(), nexts.len(), "windows/nexts length mismatch");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let h = config.hidden;
        let d = config.input_dim;
        let mut model = Lstm {
            w: Matrix::xavier(d, 4 * h, &mut rng),
            u: Matrix::xavier(h, 4 * h, &mut rng),
            b: Matrix::zeros(1, 4 * h),
            // Sigmoid head: every target feature lives in [0, 1].
            head: Dense::new(h, d, Activation::Sigmoid, &mut rng),
            config: config.clone(),
            adam_w: AdamState::new(d, 4 * h),
            adam_u: AdamState::new(h, 4 * h),
            adam_b: AdamState::new(1, 4 * h),
            training_errors: Vec::new(),
        };

        let mut scratch = SeqScratch::default();
        let mut order: Vec<usize> = (0..windows.len()).collect();
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &k in &order {
                model.train_step(&windows[k], &nexts[k], &mut scratch);
            }
        }
        model.training_errors = model.score_batch(windows, nexts, &mut Workspace::new());
        model
    }

    /// The reference forward pass, scalar libm activations:
    /// leaves the final hidden state in `s.h` and what BPTT needs of each
    /// step in the per-step rows. `z = (x·W + h·U) + b` with the `x_t·W` of
    /// all steps from one GEMM up front (row `t` has the bits it would
    /// alone), `c' = f·c + i·g` as two rounded products and one add.
    fn forward_sequence(&self, window: &Matrix, s: &mut SeqScratch) {
        let hd = self.config.hidden;
        let steps = window.rows();
        window.matmul_into(&self.w, &mut s.xw);
        s.h.resize_zeroed(1, hd);
        s.c.resize_zeroed(1, hd);
        s.h_prev.resize(steps, hd);
        s.c_prev.resize(steps, hd);
        s.gates.resize(steps, 4 * hd);
        s.tanh_c.resize(steps, hd);
        for t in 0..steps {
            s.h.matmul_into(&self.u, &mut s.hu);
            s.h_prev.data[t * hd..][..hd].copy_from_slice(&s.h.data);
            s.c_prev.data[t * hd..][..hd].copy_from_slice(&s.c.data);
            let z = &mut s.gates.data[t * 4 * hd..][..4 * hd];
            let xw = &s.xw.data[t * 4 * hd..][..4 * hd];
            for (((z, &xw), &hu), &b) in z.iter_mut().zip(xw).zip(&s.hu.data).zip(&self.b.data) {
                *z = (xw + hu) + b;
            }
            z[..2 * hd].iter_mut().for_each(|v| *v = sigmoid(*v));
            z[2 * hd..3 * hd].iter_mut().for_each(|v| *v = v.tanh());
            z[3 * hd..].iter_mut().for_each(|v| *v = sigmoid(*v));
            let tanh_c = &mut s.tanh_c.data[t * hd..][..hd];
            for j in 0..hd {
                let c = z[hd + j] * s.c.data[j] + z[j] * z[2 * hd + j];
                s.c.data[j] = c;
                tanh_c[j] = c.tanh();
                s.h.data[j] = z[3 * hd + j] * tanh_c[j];
            }
        }
    }

    /// One Adam step on one `(window, next)` pair, BPTT from the last step
    /// to the first; allocates nothing once `s` has seen a window.
    fn train_step(&mut self, window: &Matrix, next: &Matrix, s: &mut SeqScratch) {
        let lr = self.config.learning_rate;
        let hd = self.config.hidden;
        self.forward_sequence(window, s);

        // The head: prediction, its gradient, and `dh` before its Adam step.
        self.head.forward_to(&s.h, &mut s.pred);
        let scale = 2.0 / s.pred.data.len() as f32;
        s.grad_pred.resize(1, s.pred.cols());
        for ((g, &p), &y) in s.grad_pred.data.iter_mut().zip(&s.pred.data).zip(next.data()) {
            *g = (p - y) * scale;
        }
        self.head.grad_step(&s.h, &s.pred, &mut s.grad_pred, Some(&mut s.dh), &mut s.head, lr);

        // U only moves at the end of the step: one transpose serves them all.
        self.u.transpose_into(&mut s.u_t);
        s.dz.resize(1, 4 * hd);
        s.dc.resize_zeroed(1, hd);
        for (grad, param) in [(&mut s.grad_w, &self.w), (&mut s.grad_u, &self.u), (&mut s.grad_b, &self.b)] {
            grad.resize_zeroed(param.rows(), param.cols());
        }
        for t in (0..window.rows()).rev() {
            let gates = &s.gates.data[t * 4 * hd..][..4 * hd];
            let (tanh_c, c_prev) = (&s.tanh_c.data[t * hd..][..hd], &s.c_prev.data[t * hd..][..hd]);
            for j in 0..hd {
                let (i, f, g, o) = (gates[j], gates[hd + j], gates[2 * hd + j], gates[3 * hd + j]);
                let dh = s.dh.data[j];
                let dc_total = s.dc.data[j] + ((dh * o) * (1.0 - tanh_c[j] * tanh_c[j]));
                s.dc.data[j] = dc_total * f;
                s.dz.data[j] = (dc_total * g) * (i * (1.0 - i));
                s.dz.data[hd + j] = (dc_total * c_prev[j]) * (f * (1.0 - f));
                s.dz.data[2 * hd + j] = (dc_total * i) * (1.0 - g * g);
                s.dz.data[3 * hd + j] = (dh * tanh_c[j]) * (o * (1.0 - o));
            }
            add_outer(&mut s.grad_w, window.row_slice(t), &s.dz.data);
            add_outer(&mut s.grad_u, &s.h_prev.data[t * hd..][..hd], &s.dz.data);
            for (g, &d) in s.grad_b.data.iter_mut().zip(&s.dz.data) {
                *g += d;
            }
            s.dz.matmul_into(&s.u_t, &mut s.dh);
        }

        self.adam_w.step(&mut self.w, &s.grad_w, lr);
        self.adam_u.step(&mut self.u, &s.grad_u, lr);
        self.adam_b.step(&mut self.b, &s.grad_b, lr);
    }

    /// Predicts the next telemetry vector after `window` (`N × input_dim`).
    pub fn predict(&self, window: &Matrix) -> Matrix {
        let mut s = SeqScratch::default();
        self.forward_sequence(window, &mut s);
        self.head.forward(&s.h)
    }

    /// Anomaly score: MSE between the prediction and the observed next.
    ///
    /// This is the allocation-heavy reference path; the hot paths share
    /// one batched pass ([`Lstm::score_spans`]), which the parity tests pin
    /// against it.
    pub fn score(&self, window: &Matrix, actual_next: &Matrix) -> f32 {
        self.predict(window).sub(actual_next).mean_sq()
    }

    /// One batched LSTM timestep: `ws.x` (`M × input_dim`) holds the step
    /// input; `ws.h`/`ws.c` (`M × hidden`) are updated in place. The gate
    /// pre-activations for all M sequences come from two GEMMs
    /// (`x·W` and `h·U`) instead of 2·M GEMVs.
    fn step_batched(&self, ws: &mut Workspace) {
        let h_dim = self.config.hidden;
        let rows = ws.x.rows();
        // Stage the gate bias into z first (one write per element), then
        // accumulate both GEMMs on top — cheaper than the zero → GEMM →
        // separate bias pass it replaces.
        let grew = ws.z.resize(rows, 4 * h_dim);
        ws.note(grew);
        for zrow in ws.z.data_mut().chunks_exact_mut(4 * h_dim) {
            zrow.copy_from_slice(self.b.row_slice(0));
        }
        ws.x.matmul_acc_into(&self.w, &mut ws.z);
        ws.h.matmul_acc_into(&self.u, &mut ws.z);
        // Gate math through the slice transcendentals (the vectorizable
        // polynomials). `z` is scratch, so the gates activate in place: row layout is [i | f | g | o], each h_dim wide.
        let Workspace { z, c: cbuf, h: hbuf, .. } = ws;
        for m in 0..rows {
            let zrow = &mut z.data[m * 4 * h_dim..(m + 1) * 4 * h_dim];
            crate::kernels::sigmoid_slice(&mut zrow[..2 * h_dim]); // i and f are adjacent
            crate::kernels::tanh_slice(&mut zrow[2 * h_dim..3 * h_dim]);
            crate::kernels::sigmoid_slice(&mut zrow[3 * h_dim..]);
            let crow = &mut cbuf.data_mut()[m * h_dim..(m + 1) * h_dim];
            let hrow = &mut hbuf.data_mut()[m * h_dim..(m + 1) * h_dim];
            for j in 0..h_dim {
                let c = zrow[h_dim + j] * crow[j] + zrow[j] * zrow[2 * h_dim + j];
                crow[j] = c;
                hrow[j] = c;
            }
            crate::kernels::tanh_slice(hrow);
            for j in 0..h_dim {
                hrow[j] *= zrow[3 * h_dim + j];
            }
        }
    }

    /// The one inference pass: runs `m` sequences of `steps` rows through
    /// one batched time loop — at each step the `m` current input rows
    /// (`row(k, t)`, a plain copy) are stacked so the gate pre-activations
    /// are two GEMMs, not 2·m GEMVs — and leaves the `m` predictions in
    /// `ws.a`. All temporaries live in the workspace; by the kernels'
    /// row-invariance contract sequence `k`'s prediction has the same bits
    /// alone and in any batch.
    fn predict_into<'a>(
        &self,
        m: usize,
        steps: usize,
        row: impl Fn(usize, usize) -> &'a [f32],
        ws: &mut Workspace,
    ) {
        let d = self.config.input_dim;
        let h_dim = self.config.hidden;
        let grew = ws.h.resize(m, h_dim);
        ws.note(grew);
        ws.h.data_mut().fill(0.0);
        let grew = ws.c.resize(m, h_dim);
        ws.note(grew);
        ws.c.data_mut().fill(0.0);
        for t in 0..steps {
            let grew = ws.x.resize(m, d);
            ws.note(grew);
            for (k, x) in ws.x.data_mut().chunks_exact_mut(d).enumerate() {
                x.copy_from_slice(row(k, t));
            }
            self.step_batched(ws);
        }
        let grew = self.head.forward_into(ws.h.data(), m, &mut ws.a);
        ws.note(grew);
    }

    /// Scores every span of `spans` (flat, back to back; one span is
    /// `steps` window rows followed by the observed next row, each
    /// `input_dim` wide) in one batched pass, replacing `out` with one
    /// score per span.
    ///
    /// # Panics
    /// If `spans` is not a whole number of `(steps + 1)`-row spans.
    pub fn score_spans(&self, spans: &[f32], steps: usize, ws: &mut Workspace, out: &mut Vec<f32>) {
        let d = self.config.input_dim;
        let span = (steps + 1) * d;
        assert!(spans.len().is_multiple_of(span), "spans are not whole {span}-float spans");
        let m = spans.len() / span;
        out.clear();
        if m == 0 {
            return;
        }
        self.predict_into(m, steps, |k, t| &spans[k * span + t * d..][..d], ws);
        out.extend(
            spans
                .chunks_exact(span)
                .zip(ws.a.data().chunks_exact(d))
                .map(|(s, pred)| crate::kernels::mse_row(pred, &s[steps * d..])),
        );
    }

    /// Scores M `(window, next)` pairs in one batched pass. Entry `k`
    /// equals `score(&windows[k], &nexts[k])` up to float-summation order.
    ///
    /// # Panics
    /// If lengths disagree or the windows are ragged (different step counts).
    pub fn score_batch(
        &self,
        windows: &[Matrix],
        nexts: &[Matrix],
        ws: &mut Workspace,
    ) -> Vec<f32> {
        assert_eq!(windows.len(), nexts.len(), "windows/nexts length mismatch");
        let Some(first) = windows.first() else {
            return Vec::new();
        };
        let steps = first.rows();
        assert!(windows.iter().all(|w| w.rows() == steps), "ragged window batch");
        self.predict_into(windows.len(), steps, |k, t| windows[k].row_slice(t), ws);
        nexts
            .iter()
            .zip(ws.a.data().chunks_exact(self.config.input_dim))
            .map(|(next, pred)| crate::kernels::mse_row(pred, next.row_slice(0)))
            .collect()
    }

    /// Scores one flattened window (`steps · input_dim` floats) against the
    /// observed `next` vector without building any `Matrix` or allocating
    /// once the workspace is warm.
    ///
    /// # Panics
    /// If `window_flat` is not a whole number of steps or `next` has the
    /// wrong width.
    pub fn score_window(&self, window_flat: &[f32], next: &[f32], ws: &mut Workspace) -> f32 {
        let d = self.config.input_dim;
        assert_eq!(next.len(), d, "next-vector width mismatch");
        assert!(
            !window_flat.is_empty() && window_flat.len().is_multiple_of(d),
            "window is not a whole number of {d}-wide steps"
        );
        self.predict_into(1, window_flat.len() / d, |_, t| &window_flat[t * d..][..d], ws);
        crate::kernels::mse_row(ws.a.row_slice(0), next)
    }

    /// [`Lstm::score_window`] under the spelling the frozen `benchmark/`
    /// package calls; [`Precision`] has one variant.
    pub fn score_window_with(
        &self,
        window_flat: &[f32],
        next: &[f32],
        ws: &mut Workspace,
        _: Precision,
    ) -> f32 {
        self.score_window(window_flat, next, ws)
    }

    /// Threshold at the given percentile of training errors.
    pub fn threshold(&self, pct: f64) -> f32 {
        percentile(&self.training_errors, pct)
    }

    /// Prediction errors on the training set.
    pub fn training_errors(&self) -> &[f32] {
        &self.training_errors
    }

    /// Serializes the model to JSON.
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

    /// Benign sequences follow a fixed cyclic pattern A→B→C→D (one-hot);
    /// anomalous ones break the order.
    fn cyclic_data(n: usize, dim: usize, seed: u64) -> (Vec<Matrix>, Vec<Matrix>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let onehot = |k: usize| {
            let mut v = vec![0.0f32; dim];
            v[k % dim] = 1.0;
            Matrix::row(v)
        };
        let mut windows = Vec::new();
        let mut nexts = Vec::new();
        for _ in 0..n {
            let start = rng.gen_range(0..dim);
            let rows: Vec<Matrix> = (0..3).map(|t| onehot(start + t)).collect();
            windows.push(Matrix::stack_rows(&rows));
            nexts.push(onehot(start + 3));
        }
        (windows, nexts)
    }

    fn quick_config(dim: usize) -> LstmConfig {
        LstmConfig { input_dim: dim, hidden: 16, learning_rate: 5e-3, epochs: 40, seed: 2 }
    }

    #[test]
    fn learns_the_cycle_and_flags_order_violations() {
        let dim = 6;
        let (windows, nexts) = cyclic_data(120, dim, 1);
        let model = Lstm::train(quick_config(dim), &windows, &nexts);
        let threshold = model.threshold(99.0);

        // In-pattern continuation scores low.
        let benign_scores = model.score_batch(&windows, &nexts, &mut Workspace::new());
        let fp = benign_scores.iter().filter(|&&s| s > threshold).count();
        assert!(fp <= benign_scores.len() / 50 + 2, "{fp} benign windows flagged");

        // Out-of-order continuation (skip two steps) scores high.
        let mut violations = 0;
        for (w, n) in windows.iter().zip(&nexts).take(30) {
            // Rotate the "next" two positions forward — an order violation.
            let wrong_idx =
                (n.data().iter().position(|&v| v == 1.0).unwrap() + 2) % dim;
            let mut wrong = vec![0.0f32; dim];
            wrong[wrong_idx] = 1.0;
            if model.score(w, &Matrix::row(wrong)) > threshold {
                violations += 1;
            }
        }
        assert!(violations >= 28, "only {violations}/30 violations flagged");
    }

    #[test]
    fn training_is_deterministic() {
        let (windows, nexts) = cyclic_data(30, 5, 3);
        let a = Lstm::train(quick_config(5), &windows, &nexts);
        let b = Lstm::train(quick_config(5), &windows, &nexts);
        assert_eq!(a.training_errors(), b.training_errors());
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let (windows, nexts) = cyclic_data(20, 5, 4);
        let model = Lstm::train(
            LstmConfig { epochs: 3, ..quick_config(5) },
            &windows,
            &nexts,
        );
        let back = Lstm::from_json(&model.to_json()).unwrap();
        assert_eq!(model.predict(&windows[0]), back.predict(&windows[0]));
    }

    /// Finite-difference check of the full BPTT gradient: a zero-lr step
    /// moves no parameter and leaves dL/dW and dL/dU in the scratch.
    #[test]
    fn bptt_gradient_matches_finite_difference() {
        let dim = 3;
        let (windows, nexts) = cyclic_data(4, dim, 5);
        let config = LstmConfig { input_dim: dim, hidden: 4, learning_rate: 0.0, epochs: 0, seed: 6 };
        let model = Lstm::train(config, &windows, &nexts);
        let (window, next) = (&windows[0], &nexts[0]);
        let loss = |m: &Lstm| m.score(window, next);

        let mut s = SeqScratch::default();
        let mut same = model.clone();
        same.train_step(window, next, &mut s);
        assert_eq!(same.w, model.w, "a zero-lr step moved W");

        const EPS: f32 = 1e-3;
        type Param = fn(&mut Lstm) -> &mut Matrix;
        let params: [(&str, Param, &Matrix); 2] =
            [("W", |m| &mut m.w, &s.grad_w), ("U", |m| &mut m.u, &s.grad_u)];
        let mut nonzero = 0;
        for (name, param, analytic) in params {
            for idx in 0..analytic.data().len() {
                let mut mp = model.clone();
                param(&mut mp).data_mut()[idx] += EPS;
                let mut mm = model.clone();
                param(&mut mm).data_mut()[idx] -= EPS;
                let numeric = (loss(&mp) - loss(&mm)) / (2.0 * EPS);
                let got = analytic.data()[idx];
                assert!(
                    (numeric - got).abs() < 2e-3,
                    "d{name}[{idx}]: numeric {numeric} vs analytic {got}"
                );
                nonzero += usize::from(got != 0.0);
            }
        }
        assert!(nonzero > 20, "only {nonzero} gradient entries were exercised");

        // And a descent step along it reduces the loss.
        let mut stepped = model.clone();
        stepped.config.learning_rate = 1e-2;
        stepped.train_step(window, next, &mut s);
        assert!(loss(&stepped) < loss(&model), "analytic step should descend");
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_panics() {
        let _ = Lstm::train(quick_config(3), &[], &[]);
    }

    #[test]
    fn batched_scoring_matches_per_window() {
        let dim = 5;
        let (windows, nexts) = cyclic_data(40, dim, 9);
        let model = Lstm::train(
            LstmConfig { epochs: 4, ..quick_config(dim) },
            &windows,
            &nexts,
        );
        let mut ws = Workspace::new();
        let batched = model.score_batch(&windows, &nexts, &mut ws);
        assert_eq!(batched.len(), windows.len());
        for (k, s) in batched.iter().enumerate() {
            let reference = model.score(&windows[k], &nexts[k]);
            assert!(
                (s - reference).abs() < 1e-5,
                "pair {k}: batched {s} vs per-window {reference}"
            );
            // Against the same pass at batch size one: the same bits.
            let alone = model.score_window(windows[k].data(), nexts[k].data(), &mut ws);
            assert_eq!(s.to_bits(), alone.to_bits(), "pair {k} depends on its batch");
        }
    }

    #[test]
    fn score_window_matches_score() {
        let dim = 5;
        let (windows, nexts) = cyclic_data(30, dim, 10);
        let model = Lstm::train(
            LstmConfig { epochs: 4, ..quick_config(dim) },
            &windows,
            &nexts,
        );
        let mut ws = Workspace::new();
        for (w, n) in windows.iter().zip(&nexts) {
            let hot = model.score_window(w.data(), n.data(), &mut ws);
            let reference = model.score(w, n);
            assert!(
                (hot - reference).abs() < 1e-5,
                "hot-path {hot} vs reference {reference}"
            );
        }
    }

    #[test]
    fn steady_state_scoring_does_not_allocate() {
        let dim = 4;
        let (windows, nexts) = cyclic_data(20, dim, 11);
        let model = Lstm::train(
            LstmConfig { epochs: 2, ..quick_config(dim) },
            &windows,
            &nexts,
        );
        let mut ws = Workspace::new();
        model.score_window(windows[0].data(), nexts[0].data(), &mut ws);
        let warm = ws.grow_events();
        for (w, n) in windows.iter().zip(&nexts) {
            model.score_window(w.data(), n.data(), &mut ws);
        }
        assert_eq!(
            ws.grow_events(),
            warm,
            "steady-state LSTM window scoring must not grow any buffer"
        );
    }
}
