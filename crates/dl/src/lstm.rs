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

use crate::dense::{Activation, AdamState, Dense, GradScratch, Input};
use crate::metrics::percentile;
use crate::tensor::{Matrix, SparseRows};
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

/// What one training step reuses from window to window — never part of the
/// model. The forward pass is [`Lstm::predict_into`] itself, in `ws`; after
/// each step `t` its hook keeps what BPTT needs as row `t`: `hs`/`cs` the
/// hidden and cell state the step started from, `gates` its activated
/// `[i | f | g | o]`, `tanh_c` the `tanh` of the cell it produced. (The
/// step's input is the window's list, which the trainer already holds.)
#[derive(Debug, Default)]
struct SeqScratch {
    ws: Workspace,
    hs: Matrix,
    cs: Matrix,
    gates: Matrix,
    tanh_c: Matrix,
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

/// `grad += xᵀ·dz` for a single row `x` given by its nonzeros `(k, x[k])`:
/// each product rounded, then added.
fn add_outer(grad: &mut Matrix, x: impl Iterator<Item = (usize, f32)>, dz: &[f32]) {
    let n = dz.len();
    for (k, xv) in x {
        for (g, &d) in grad.data_mut()[k * n..(k + 1) * n].iter_mut().zip(dz) {
            *g += xv * d;
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
        let steps = windows[0].rows();
        assert!(windows.iter().all(|w| w.rows() == steps), "ragged window batch");
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

        // Each step's window, as its rows' nonzeros: a scan of 264 floats
        // beside a step's ≈ 20 µs, where keeping every window's lists would
        // add megabytes to the refit's peak. Sized for all-nonzero rows, so
        // no window can grow it.
        let mut window = SparseRows::default();
        window.reserve(steps, d);
        let mut scratch = SeqScratch::default();
        let mut order: Vec<usize> = (0..windows.len()).collect();
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &k in &order {
                window.clear();
                window.push_dense([windows[k].data()], d);
                model.train_step(&window, &nexts[k], &mut scratch);
            }
        }
        model.training_errors = model.score_batch(windows, nexts, &mut Workspace::new());
        model
    }

    /// One Adam step on one `(window, next)` pair, the window given as its
    /// steps' lists, BPTT from the last step to the first; allocates
    /// nothing once `s` has seen a window.
    fn train_step(&mut self, window: &SparseRows, next: &Matrix, s: &mut SeqScratch) {
        let lr = self.config.learning_rate;
        let (d, hd, steps) = (self.config.input_dim, self.config.hidden, window.rows());

        // The forward pass is the inference pass; its hook records each step.
        let SeqScratch { ws, hs, cs, gates, tanh_c, .. } = &mut *s;
        gates.resize(steps, 4 * hd);
        for buf in [&mut *hs, &mut *cs, &mut *tanh_c] {
            buf.resize(steps, hd);
        }
        hs.data[..hd].fill(0.0);
        cs.data[..hd].fill(0.0);
        let project = |t, ws: &mut Workspace| self.project([window.row(t)], ws.z.data_mut());
        self.predict_into(1, steps, project, ws, |t, ws| {
            gates.data[t * 4 * hd..][..4 * hd].copy_from_slice(ws.z.data());
            let tc = &mut tanh_c.data[t * hd..][..hd];
            tc.copy_from_slice(ws.c.data());
            crate::kernels::tanh_slice(tc);
            if t + 1 < steps {
                hs.data[(t + 1) * hd..][..hd].copy_from_slice(ws.h.data());
                cs.data[(t + 1) * hd..][..hd].copy_from_slice(ws.c.data());
            }
        });

        // The head: prediction, its gradient, and `dh` before its Adam step.
        let scale = 2.0 / d as f32;
        s.grad_pred.resize(1, d);
        for ((g, &p), &y) in s.grad_pred.data.iter_mut().zip(s.ws.a.data()).zip(next.data()) {
            *g = (p - y) * scale;
        }
        let h = Input::Dense(&s.ws.h);
        self.head.grad_step(h, &s.ws.a, &mut s.grad_pred, Some(&mut s.dh), &mut s.head, lr);

        // U only moves at the end of the step: one transpose serves them all.
        self.u.transpose_into(&mut s.u_t);
        s.dz.resize(1, 4 * hd);
        s.dc.resize_zeroed(1, hd);
        for (grad, param) in [(&mut s.grad_w, &self.w), (&mut s.grad_u, &self.u), (&mut s.grad_b, &self.b)] {
            grad.resize_zeroed(param.rows(), param.cols());
        }
        for t in (0..steps).rev() {
            let gates = &s.gates.data[t * 4 * hd..][..4 * hd];
            let (tanh_c, c_prev) = (&s.tanh_c.data[t * hd..][..hd], &s.cs.data[t * hd..][..hd]);
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
            add_outer(&mut s.grad_w, window.row(t).iter().map(|&(k, x)| (k as usize, x)), &s.dz.data);
            let h_prev = s.hs.data[t * hd..][..hd].iter().copied().enumerate();
            add_outer(&mut s.grad_u, h_prev.filter(|&(_, h)| h != 0.0), &s.dz.data);
            for (g, &d) in s.grad_b.data.iter_mut().zip(&s.dz.data) {
                *g += d;
            }
            s.dz.matmul_into(&s.u_t, &mut s.dh);
        }

        self.adam_w.step(&mut self.w, &s.grad_w, lr);
        self.adam_u.step(&mut self.u, &s.grad_u, lr);
        self.adam_b.step(&mut self.b, &s.grad_b, lr);
    }

    /// Width of one gate pre-activation row: `4 · hidden`, laid out
    /// `[i | f | g | o]`.
    pub fn gate_width(&self) -> usize {
        4 * self.config.hidden
    }

    /// The gate pre-activation base `P = b + x·W` of each row `x` of `rows`
    /// (given by its nonzeros), one [`Lstm::gate_width`]-wide row of `out`
    /// each: the bias staged first (one write per element), the sparse
    /// product accumulated on top. A row's `P` is a function of that row
    /// alone (the kernels' row invariance), so the live path computes it
    /// once per record and hands the same bits to each of the windows the
    /// record is a step of ([`Lstm::score_projected`]).
    ///
    /// # Panics
    /// If `out` has fewer rows than `rows` yields.
    pub fn project<'a>(&self, rows: impl IntoIterator<Item = &'a [(u32, f32)]>, out: &mut [f32]) {
        let width = self.gate_width();
        for row in out.chunks_exact_mut(width) {
            row.copy_from_slice(self.b.row_slice(0));
        }
        crate::kernels::sparse_gemm_acc(rows, self.w.data(), width, out);
    }

    /// [`Lstm::project`] into `ws.z` for the step rows `fill` lists into the
    /// workspace's list buffer — for the entries handed dense rows.
    fn project_scanned(&self, ws: &mut Workspace, fill: impl FnOnce(&mut SparseRows)) {
        let x = ws.lists(fill);
        assert_eq!(x.rows(), ws.z.rows(), "one list per sequence");
        self.project(x.iter(), ws.z.data_mut());
        ws.restore(x);
    }

    /// One batched LSTM timestep: `ws.z` holds the `M` sequences' `P` rows
    /// for this step; `h·U` (dense, one product for all M) is added unless
    /// this is the `first` step, the gates activate in place and
    /// `ws.h`/`ws.c` (`M × hidden`) are updated.
    fn step_batched(&self, first: bool, ws: &mut Workspace) {
        let h_dim = self.config.hidden;
        let rows = ws.h.rows();
        if !first {
            ws.h.matmul_acc_into(&self.u, &mut ws.z);
        }
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

    /// The one forward pass, for inference and training alike: runs `m`
    /// sequences of `steps` rows through one batched time loop and leaves
    /// the `m` predictions in `ws.a`.
    ///
    /// At step `t`, `project(t, ws)` fills `ws.z` (`m × 4·hidden`, sized)
    /// with the sequences' row-`t` gate bases `P = b + x·W`: computed there
    /// from the rows' lists by [`Lstm::project`] (training, `score_spans`,
    /// the dense entries) or copied from the record's `P` cached when it was
    /// staged ([`Lstm::score_projected`], the live detector). Both are the
    /// same bias-staged row product, so they are the same bits. The step
    /// then adds `h·U` for `t ≥ 1` only: at `t = 0`, `h` is the zero state,
    /// every element of that product is an FMA chain of zeros from `+0`,
    /// i.e. `+0`, and `P + (+0) = P` — `P` is never `−0`, being `b` plus a
    /// chain from `+0`, and an exact zero sum rounds to `+0`. (A `−0` would
    /// only flip a zero's sign, which neither activation sees.) So skipping
    /// it keeps every bit.
    ///
    /// By the kernels' row-invariance contract sequence `k`'s prediction
    /// has the same bits alone and in any batch. `after_step(t, ws)` sees
    /// each step's activated gates and new state (training keeps them for
    /// BPTT).
    fn predict_into(
        &self,
        m: usize,
        steps: usize,
        mut project: impl FnMut(usize, &mut Workspace),
        ws: &mut Workspace,
        mut after_step: impl FnMut(usize, &Workspace),
    ) {
        let h_dim = self.config.hidden;
        let grew = ws.h.resize(m, h_dim);
        ws.note(grew);
        ws.h.data_mut().fill(0.0);
        let grew = ws.c.resize(m, h_dim);
        ws.note(grew);
        ws.c.data_mut().fill(0.0);
        for t in 0..steps {
            let grew = ws.z.resize(m, 4 * h_dim);
            ws.note(grew);
            project(t, ws);
            self.step_batched(t == 0, ws);
            after_step(t, ws);
        }
        let grew = self.head.forward_into(Input::Dense(&ws.h), &mut ws.a);
        ws.note(grew);
    }

    /// Appends to `out` the MSE of each prediction `k` in `ws.a` against its
    /// target: the `input_dim` floats at `offset` into the `k`-th
    /// `stride`-float chunk of `targets`.
    fn mse_onto(
        &self,
        targets: &[f32],
        stride: usize,
        offset: usize,
        ws: &Workspace,
        out: &mut Vec<f32>,
    ) {
        let d = self.config.input_dim;
        out.extend(
            targets
                .chunks_exact(stride)
                .zip(ws.a.data().chunks_exact(d))
                .map(|(s, pred)| crate::kernels::mse_row(pred, &s[offset..][..d])),
        );
    }

    /// The one scoring entry over lists: every span of `spans` (flat, back
    /// to back; one span is `steps` window rows followed by the observed
    /// next row, each `input_dim` wide) in one batched pass, replacing `out`
    /// with one score per span — the MSE between the prediction and the
    /// observed next row. `lists` holds what the gates read: row `k·steps +
    /// t` is span `k`'s row `t` as its nonzeros; each step projects its
    /// rows. A span scores to the same bits alone, in any batch and through
    /// [`Lstm::score_projected`].
    ///
    /// # Panics
    /// If `spans` is not a whole number of `(steps + 1)`-row spans, or
    /// `lists` does not hold `steps` rows per span.
    pub fn score_spans(
        &self,
        spans: &[f32],
        lists: &SparseRows,
        steps: usize,
        ws: &mut Workspace,
        out: &mut Vec<f32>,
    ) {
        let d = self.config.input_dim;
        let span = (steps + 1) * d;
        assert!(spans.len().is_multiple_of(span), "spans are not whole {span}-float spans");
        let m = spans.len() / span;
        assert_eq!(lists.rows(), m * steps, "one list per window row");
        out.clear();
        if m == 0 {
            return;
        }
        let project = |t, ws: &mut Workspace| {
            self.project((0..m).map(|k| lists.row(k * steps + t)), ws.z.data_mut())
        };
        self.predict_into(m, steps, project, ws, |_, _| {});
        self.mse_onto(spans, span, steps * d, ws, out);
    }

    /// The live detector's entry: the same pass as [`Lstm::score_spans`] with
    /// every step's `P` given. `projections` holds window `k`'s step `t` as
    /// row `k·steps + t` ([`Lstm::gate_width`] floats, from
    /// [`Lstm::project`]); `nexts` one observed next row per window, the MSE
    /// target. Replaces `out` with one score per window; a window scores to
    /// the bits it has from its lists.
    ///
    /// # Panics
    /// If `nexts` is not whole `input_dim`-wide rows or `projections` does
    /// not hold `steps` rows per window.
    pub fn score_projected(
        &self,
        projections: &[f32],
        nexts: &[f32],
        steps: usize,
        ws: &mut Workspace,
        out: &mut Vec<f32>,
    ) {
        let (d, width) = (self.config.input_dim, self.gate_width());
        assert!(nexts.len().is_multiple_of(d), "nexts are not whole {d}-float rows");
        let m = nexts.len() / d;
        assert_eq!(projections.len(), m * steps * width, "one projection per window step");
        out.clear();
        if m == 0 {
            return;
        }
        let project = |t, ws: &mut Workspace| {
            let rows = projections.chunks_exact(width).skip(t).step_by(steps);
            for (z, p) in ws.z.data_mut().chunks_exact_mut(width).zip(rows) {
                z.copy_from_slice(p);
            }
        };
        self.predict_into(m, steps, project, ws, |_, _| {});
        self.mse_onto(nexts, d, 0, ws, out);
    }

    /// Scores M `(window, next)` pairs in the pass behind
    /// [`Lstm::score_spans`] (training thresholds and the experiments).
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
        let d = self.config.input_dim;
        let project = |t, ws: &mut Workspace| {
            self.project_scanned(ws, |x| x.push_dense(windows.iter().map(|w| w.row_slice(t)), d))
        };
        self.predict_into(windows.len(), steps, project, ws, |_, _| {});
        nexts
            .iter()
            .zip(ws.a.data().chunks_exact(self.config.input_dim))
            .map(|(next, pred)| crate::kernels::mse_row(pred, next.row_slice(0)))
            .collect()
    }

    /// One flattened window (`steps · input_dim` floats) against the
    /// observed `next` vector through the same pass at batch size one —
    /// kept only because the frozen `benchmark/` package calls it;
    /// [`Precision`] has one variant.
    ///
    /// # Panics
    /// If `window_flat` is not a whole number of steps or `next` has the
    /// wrong width.
    pub fn score_window_with(
        &self,
        window_flat: &[f32],
        next: &[f32],
        ws: &mut Workspace,
        _: Precision,
    ) -> f32 {
        let d = self.config.input_dim;
        assert_eq!(next.len(), d, "next-vector width mismatch");
        assert!(
            !window_flat.is_empty() && window_flat.len().is_multiple_of(d),
            "window is not a whole number of {d}-wide steps"
        );
        let project = |t: usize, ws: &mut Workspace| {
            self.project_scanned(ws, |x| x.push_dense([&window_flat[t * d..][..d]], d))
        };
        self.predict_into(1, window_flat.len() / d, project, ws, |_, _| {});
        crate::kernels::mse_row(ws.a.row_slice(0), next)
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

    /// The LSTM equations written out one window at a time with libm —
    /// `z = b + x·W + h·U`, `c' = f·c + i·g`, `h' = o·tanh(c')`, then the
    /// head `sigmoid(b + h·W)` — and the MSE summed sequentially, as the
    /// oracle of the one forward pass.
    fn reference_score(model: &Lstm, window: &Matrix, next: &Matrix) -> f32 {
        use crate::dense::{reference_affine, sigmoid};
        let (d, hd) = (model.config.input_dim, model.config.hidden);
        let (mut h, mut c) = (vec![0.0f32; hd], vec![0.0f32; hd]);
        for t in 0..window.rows() {
            let x = window.row_slice(t);
            let z: Vec<f32> = (0..4 * hd)
                .map(|j| {
                    let xw: f32 = (0..d).map(|i| x[i] * model.w.get(i, j)).sum();
                    let hu: f32 = (0..hd).map(|i| h[i] * model.u.get(i, j)).sum();
                    model.b.get(0, j) + xw + hu
                })
                .collect();
            for j in 0..hd {
                let (i, f) = (sigmoid(z[j]), sigmoid(z[hd + j]));
                let (g, o) = (z[2 * hd + j].tanh(), sigmoid(z[3 * hd + j]));
                c[j] = f * c[j] + i * g;
                h[j] = o * c[j].tanh();
            }
        }
        let pred = reference_affine(&model.head, &h).into_iter().map(sigmoid);
        pred.zip(next.data()).map(|(p, y)| (p - y) * (p - y)).sum::<f32>() / d as f32
    }

    /// The pairs back to back as [`Lstm::score_spans`] takes them.
    fn spans(windows: &[Matrix], nexts: &[Matrix]) -> Vec<f32> {
        windows.iter().zip(nexts).flat_map(|(w, n)| w.data().iter().chain(n.data()).copied()).collect()
    }

    /// Every row of `windows` as the lists the gates read.
    fn lists(windows: &[Matrix]) -> SparseRows {
        let mut lists = SparseRows::default();
        lists.push_dense(windows.iter().map(Matrix::data), windows[0].cols());
        lists
    }

    fn bits(scores: &[f32]) -> Vec<u32> {
        scores.iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn learns_the_cycle_and_flags_order_violations() {
        let dim = 6;
        let (windows, nexts) = cyclic_data(120, dim, 1);
        let model = Lstm::train(quick_config(dim), &windows, &nexts);
        let threshold = model.threshold(99.0);

        // In-pattern continuation scores low.
        let mut ws = Workspace::new();
        let benign_scores = model.score_batch(&windows, &nexts, &mut ws);
        let fp = benign_scores.iter().filter(|&&s| s > threshold).count();
        assert!(fp <= benign_scores.len() / 50 + 2, "{fp} benign windows flagged");

        // Out-of-order continuation (skip two steps) scores high.
        let wrong: Vec<Matrix> = nexts
            .iter()
            .take(30)
            .map(|n| {
                // Rotate the "next" two positions forward — an order violation.
                let wrong_idx = (n.data().iter().position(|&v| v == 1.0).unwrap() + 2) % dim;
                let mut wrong = vec![0.0f32; dim];
                wrong[wrong_idx] = 1.0;
                Matrix::row(wrong)
            })
            .collect();
        let scores = model.score_batch(&windows[..30], &wrong, &mut ws);
        let violations = scores.iter().filter(|&&s| s > threshold).count();
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
        let predict = |m: &Lstm| {
            let mut ws = Workspace::new();
            m.score_window_with(windows[0].data(), nexts[0].data(), &mut ws, Precision::F32);
            ws.a
        };
        assert_eq!(predict(&model), predict(&back));
    }

    /// Finite-difference check of the full BPTT gradient: a zero-lr step
    /// moves no parameter and leaves dL/dW and dL/dU in the scratch. The
    /// loss is the scoring pass itself, which BPTT differentiates.
    #[test]
    fn bptt_gradient_matches_finite_difference() {
        let dim = 3;
        let (windows, nexts) = cyclic_data(4, dim, 5);
        let config = LstmConfig { input_dim: dim, hidden: 4, learning_rate: 0.0, epochs: 0, seed: 6 };
        let model = Lstm::train(config, &windows, &nexts);
        let (window, next) = (lists(&windows[..1]), &nexts[0]);
        let loss = |m: &Lstm| m.score_batch(&windows[..1], &nexts[..1], &mut Workspace::new())[0];

        let mut s = SeqScratch::default();
        let mut same = model.clone();
        same.train_step(&window, next, &mut s);
        assert_eq!(same.w, model.w, "a zero-lr step moved W");

        const EPS: f32 = 1e-3;
        type Param = fn(&mut Lstm) -> &mut Matrix;
        let params: [(&str, Param, &Matrix); 3] = [
            ("W", |m| &mut m.w, &s.grad_w),
            ("U", |m| &mut m.u, &s.grad_u),
            ("b", |m| &mut m.b, &s.grad_b),
        ];
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
        stepped.train_step(&window, next, &mut s);
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
        let (mut ws, mut alone) = (Workspace::new(), Vec::new());
        let batched = model.score_batch(&windows, &nexts, &mut ws);
        assert_eq!(batched.len(), windows.len());
        let (steps, spans) = (windows[0].rows(), spans(&windows, &nexts));
        for (k, (s, span)) in batched.iter().zip(spans.chunks_exact((steps + 1) * dim)).enumerate() {
            // Against the same pass at batch size one: the same bits.
            model.score_spans(span, &lists(&windows[k..=k]), steps, &mut ws, &mut alone);
            assert_eq!(bits(&[*s]), bits(&alone), "pair {k} depends on its batch");
        }
    }

    #[test]
    fn score_spans_matches_the_libm_reference() {
        let dim = 5;
        let (windows, nexts) = cyclic_data(80, dim, 10);
        let model = Lstm::train(
            LstmConfig { epochs: 4, ..quick_config(dim) },
            &windows,
            &nexts,
        );
        let (mut ws, mut out) = (Workspace::new(), Vec::new());
        let (steps, spans) = (windows[0].rows(), spans(&windows, &nexts));
        let span = (steps + 1) * dim;
        for batch in [1, 7, 64] {
            for (c, chunk) in spans.chunks(batch * span).enumerate() {
                let rows = lists(&windows[c * batch..c * batch + chunk.len() / span]);
                model.score_spans(chunk, &rows, steps, &mut ws, &mut out);
                for (i, got) in out.iter().enumerate() {
                    let k = c * batch + i;
                    let reference = reference_score(&model, &windows[k], &nexts[k]);
                    assert!(
                        (got - reference).abs() < 1e-5,
                        "batches of {batch}, pair {k}: {got} vs libm reference {reference}"
                    );
                }
            }
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
        // One window per call, its lists scanned into the workspace.
        let mut ws = Workspace::new();
        let score = |k: usize, ws: &mut Workspace| {
            model.score_window_with(windows[k].data(), nexts[k].data(), ws, Precision::F32)
        };
        score(0, &mut ws);
        let warm = ws.grow_events();
        for k in 1..windows.len() {
            score(k, &mut ws);
        }
        assert_eq!(
            ws.grow_events(),
            warm,
            "steady-state LSTM window scoring must not grow any buffer"
        );
    }
}
