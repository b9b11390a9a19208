//! Fully-connected layers with built-in Adam state.

use crate::tensor::{Matrix, SparseRows};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// A batch of layer inputs, one row per example.
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// Dense rows: activations, and any input given as plain floats.
    Dense(&'a Matrix),
    /// Each row's nonzeros: a featurized window, a first layer's input.
    Sparse(&'a SparseRows),
}

impl Input<'_> {
    fn rows(&self) -> usize {
        match self {
            Input::Dense(x) => x.rows(),
            Input::Sparse(x) => x.rows(),
        }
    }
}

/// Layer nonlinearity: the two the models use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// max(0, x) — every hidden layer.
    Relu,
    /// Logistic sigmoid — the output layers: every feature lives in \[0,1\].
    Sigmoid,
}

impl Activation {
    /// Applies the activation in place — the one activation path, for
    /// training and inference alike. Sigmoid goes through the kernels'
    /// vectorized polynomial.
    fn apply_inplace(self, data: &mut [f32]) {
        match self {
            Activation::Relu => data.iter_mut().for_each(|v| *v = v.max(0.0)),
            Activation::Sigmoid => crate::kernels::sigmoid_slice(data),
        }
    }

    /// Derivative expressed in terms of the *activated output* `y`.
    fn derivative(self, y: f32) -> f32 {
        match self {
            Activation::Relu if y > 0.0 => 1.0,
            Activation::Relu => 0.0,
            Activation::Sigmoid => y * (1.0 - y),
        }
    }
}

/// Numerically stable logistic sigmoid through libm's `exp` — the reference
/// the polynomial [`crate::kernels::sigmoid_slice`] is tested against.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// One Adam update of `param` along `grad`, `t` the step count including
/// this one — the only Adam in the crate. Plain IEEE multiply/add/divide/
/// sqrt per element over zipped slices (which vectorizes), the bias
/// corrections hoisted. A moment that decays below `f32::MIN_POSITIVE` is
/// flushed to `0.0` by a select, not a branch: a dead weight's `m` would
/// otherwise park in the denormals, where every vector instruction touching
/// it takes a microcode assist, while the step it adds is far below the
/// weight's last bit. Public for the `kernels` report.
///
/// The loop is bound by its divides. A bias correction `1 − βᵗ` rounds to
/// exactly `1.0` once `βᵗ` ≤ 2⁻²⁵ (`t` ≥ 165 for `m`, ≥ 17 321 for `v`),
/// and `x / 1.0` is `x` bit for bit, so from there on the loop is
/// instantiated without that divide: the same update, less divider work.
pub fn adam_update(param: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32], t: u64, lr: f32) {
    let (c1, c2) = (1.0 - ADAM_B1.powi(t as i32), 1.0 - ADAM_B2.powi(t as i32));
    // `c2` reaches 1.0 long after `c1` does.
    match (c1 == 1.0, c2 == 1.0) {
        (false, _) => adam_loop::<true, true>(param, grad, m, v, (c1, c2), lr),
        (true, false) => adam_loop::<false, true>(param, grad, m, v, (c1, c2), lr),
        (true, true) => adam_loop::<false, false>(param, grad, m, v, (c1, c2), lr),
    }
}

const ADAM_B1: f32 = 0.9;
const ADAM_B2: f32 = 0.999;

/// [`adam_update`]'s element loop; `DIV_M`/`DIV_V` say whether the bias
/// correction of that moment still differs from `1.0`. Out of line: with
/// its three copies inlined into `adam_update`, the benchmark binary's
/// `steady` throughput measured 1–5 % lower although this loop runs only
/// in training (code placement of the inference kernels).
#[inline(never)]
fn adam_loop<const DIV_M: bool, const DIV_V: bool>(
    param: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    (c1, c2): (f32, f32),
    lr: f32,
) {
    const EPS: f32 = 1e-8;
    let flush = |x: f32| if x.abs() < f32::MIN_POSITIVE { 0.0 } else { x };
    for (((p, &g), m), v) in param.iter_mut().zip(grad).zip(m).zip(v) {
        *m = flush(ADAM_B1 * *m + (1.0 - ADAM_B1) * g);
        *v = flush(ADAM_B2 * *v + (1.0 - ADAM_B2) * g * g);
        let m_hat = if DIV_M { *m / c1 } else { *m };
        let v_hat = if DIV_V { *v / c2 } else { *v };
        *p -= lr * m_hat / (v_hat.sqrt() + EPS);
    }
}

/// Per-parameter Adam state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct AdamState {
    m: Matrix,
    v: Matrix,
    t: u64,
}

impl AdamState {
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        AdamState { m: Matrix::zeros(rows, cols), v: Matrix::zeros(rows, cols), t: 0 }
    }

    pub(crate) fn step(&mut self, param: &mut Matrix, grad: &Matrix, lr: f32) {
        self.t += 1;
        adam_update(param.data_mut(), grad.data(), self.m.data_mut(), self.v.data_mut(), self.t, lr);
    }
}

/// A dense layer `y = act(x·W + b)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    weights: Matrix,
    bias: Matrix,
    activation: Activation,
    adam_w: AdamState,
    adam_b: AdamState,
}

/// The buffers [`Dense::grad_step`] reuses from one call to the next.
#[derive(Debug, Default)]
pub(crate) struct GradScratch {
    transposed: Matrix,
    grad_w: Matrix,
    grad_b: Matrix,
}

impl Dense {
    /// A new layer with Xavier-initialized weights.
    pub fn new(fan_in: usize, fan_out: usize, activation: Activation, rng: &mut StdRng) -> Self {
        Dense {
            weights: Matrix::xavier(fan_in, fan_out, rng),
            bias: Matrix::zeros(1, fan_out),
            activation,
            adam_w: AdamState::new(fan_in, fan_out),
            adam_b: AdamState::new(1, fan_out),
        }
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.weights.rows()
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.weights.cols()
    }

    /// The one forward pass, for inference and training alike: a batch of
    /// inputs into a reusable buffer, no allocation once `out` has
    /// capacity. The bias is staged into `out` first and the product
    /// accumulates on top (one pass over the output instead of two) —
    /// [`crate::kernels::gemm_acc`] for dense rows,
    /// [`crate::kernels::sparse_gemm_acc`] for featurized ones, which by
    /// the kernels' contract give the same bits. A single row is the
    /// `rows = 1` case of the same kernel and, by row invariance, yields the
    /// bits it would in any batch.
    ///
    /// Returns `true` when `out`'s buffer grew.
    pub fn forward_into(&self, x: Input<'_>, out: &mut Matrix) -> bool {
        let (rows, fan_out) = (x.rows(), self.fan_out());
        let grew = out.resize(rows, fan_out);
        for row in out.data_mut().chunks_exact_mut(fan_out) {
            row.copy_from_slice(self.bias.row_slice(0));
        }
        let w = self.weights.data();
        match x {
            Input::Dense(x) => {
                assert_eq!(x.cols(), self.fan_in(), "forward_into input is not fan_in wide");
                crate::kernels::gemm_acc(x.data(), rows, self.fan_in(), w, fan_out, out.data_mut());
            }
            Input::Sparse(x) => crate::kernels::sparse_gemm_acc(x.iter(), w, fan_out, out.data_mut()),
        }
        self.activation.apply_inplace(out.data_mut());
        grew
    }

    /// Backward pass and Adam step for input `x` and output `y` of
    /// [`Dense::forward_into`]. `grad` holds dL/dy on entry and dL/dz on
    /// return; dL/dx goes to `grad_in` when the caller has a use for it,
    /// taken before the step moves the weights. The weight gradient `xᵀ·dz`
    /// of sparse rows is a scatter of each row's nonzeros
    /// ([`crate::kernels::sparse_outer_acc`]).
    pub(crate) fn grad_step(
        &mut self,
        x: Input<'_>,
        y: &Matrix,
        grad: &mut Matrix,
        grad_in: Option<&mut Matrix>,
        scratch: &mut GradScratch,
        lr: f32,
    ) {
        for (g, &v) in grad.data_mut().iter_mut().zip(y.data()) {
            *g *= self.activation.derivative(v);
        }
        if let Some(grad_in) = grad_in {
            self.weights.transpose_into(&mut scratch.transposed);
            grad.matmul_into(&scratch.transposed, grad_in);
        }
        match x {
            Input::Dense(x) => {
                x.transpose_into(&mut scratch.transposed);
                scratch.transposed.matmul_into(grad, &mut scratch.grad_w);
            }
            Input::Sparse(x) => {
                let grad_w = &mut scratch.grad_w;
                grad_w.resize_zeroed(self.fan_in(), self.fan_out());
                crate::kernels::sparse_outer_acc(x.iter(), grad.data(), self.fan_out(), grad_w.data_mut());
            }
        }
        grad.sum_rows_into(&mut scratch.grad_b);
        self.adam_w.step(&mut self.weights, &scratch.grad_w, lr);
        self.adam_b.step(&mut self.bias, &scratch.grad_b, lr);
    }
}

/// `b + x·W` for each row of `x`, every output a sequential sum in
/// ascending input order: the pre-activation the libm oracles in the tests
/// apply their activation to.
#[cfg(test)]
pub(crate) fn reference_affine(layer: &Dense, x: &[f32]) -> Vec<f32> {
    let w = &layer.weights;
    x.chunks_exact(w.rows())
        .flat_map(|row| {
            (0..w.cols()).map(move |j| {
                let z: f32 = row.iter().enumerate().map(|(i, &v)| v * w.get(i, j)).sum();
                layer.bias.data()[j] + z
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sigmoid_is_stable_and_correct() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
        assert!(sigmoid(-1000.0).is_finite());
        assert!(sigmoid(1000.0).is_finite());
    }

    #[test]
    fn activations_and_derivatives() {
        let mut y = [-1.0, 0.0, 2.0];
        Activation::Relu.apply_inplace(&mut y);
        assert_eq!(y, [0.0, 0.0, 2.0]);
        assert_eq!(y.map(|v| Activation::Relu.derivative(v)), [0.0, 0.0, 1.0]);
        let x = [0.0f32, -3.0, 0.5, 4.0];
        let mut s = x;
        Activation::Sigmoid.apply_inplace(&mut s);
        assert!((Activation::Sigmoid.derivative(s[0]) - 0.25).abs() < 1e-6);
        for (s, x) in s.iter().zip(x) {
            assert!((s - sigmoid(x)).abs() < 1e-6, "sigmoid({x}) = {s}");
        }
    }

    /// `(y − target) · scale` element by element: the MSE gradient the
    /// tests step along.
    fn scaled_diff(y: &Matrix, target: &[f32], scale: f32) -> Matrix {
        let data = y.data().iter().zip(target).map(|(a, b)| (a - b) * scale).collect();
        Matrix::from_vec(y.rows(), y.cols(), data)
    }

    #[test]
    fn dense_learns_a_linear_map() {
        // y = sigmoid(2x − 1); a single sigmoid unit must recover the map.
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(1, 1, Activation::Sigmoid, &mut rng);
        let (mut y, mut scratch) = (Matrix::default(), GradScratch::default());
        let x = Matrix::from_vec(4, 1, vec![-1.0, 0.5, 1.0, 2.0]);
        let target: Vec<f32> = x.data().iter().map(|&v| sigmoid(2.0 * v - 1.0)).collect();
        for _ in 0..2_000 {
            layer.forward_into(Input::Dense(&x), &mut y);
            let mut grad = scaled_diff(&y, &target, 2.0 / 4.0);
            layer.grad_step(Input::Dense(&x), &y, &mut grad, None, &mut scratch, 0.05);
        }
        let (w, b) = (layer.weights.data()[0], layer.bias.data()[0]);
        assert!((w - 2.0).abs() < 0.01 && (b + 1.0).abs() < 0.01, "got w = {w}, b = {b}");
    }

    /// Numerical gradient check: the analytic input gradient must match a
    /// finite-difference estimate.
    #[test]
    fn dense_input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(7);
        let layer = Dense::new(3, 2, Activation::Sigmoid, &mut rng);
        let x = Matrix::row(vec![0.3, -0.2, 0.8]);
        let target = [0.1, 0.6];
        let loss = |x: &Matrix| {
            let mut y = Matrix::default();
            layer.forward_into(Input::Dense(x), &mut y);
            y.data().iter().zip(&target).map(|(a, b)| (a - b) * (a - b)).sum::<f32>() / 2.0
        };

        // Analytic.
        let mut train_layer = layer.clone();
        let mut y = Matrix::default();
        train_layer.forward_into(Input::Dense(&x), &mut y);
        let mut grad = scaled_diff(&y, &target, 2.0 / 2.0);
        // lr=0 step so parameters stay untouched while we read dL/dx.
        let mut analytic = Matrix::default();
        let scratch = &mut GradScratch::default();
        train_layer.grad_step(Input::Dense(&x), &y, &mut grad, Some(&mut analytic), scratch, 0.0);

        // Numerical.
        const EPS: f32 = 1e-3;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += EPS;
            let mut xm = x.clone();
            xm.data_mut()[i] -= EPS;
            let numeric = (loss(&xp) - loss(&xm)) / (2.0 * EPS);
            let got = analytic.data()[i];
            assert!(
                (numeric - got).abs() < 2e-3,
                "grad[{i}]: numeric {numeric} vs analytic {got}"
            );
        }
    }

    /// The slice Adam against the indexed, branching formula (kept here as
    /// the oracle), bit for bit — including moments that start in the
    /// denormals and parameters whose gradient is exactly zero.
    #[test]
    fn adam_update_matches_the_indexed_formula_bit_for_bit() {
        use rand::Rng;
        fn indexed(p: &mut [f32], grad: &[f32], ms: &mut [f32], vs: &mut [f32], t: u64, lr: f32) {
            const B1: f32 = 0.9;
            const B2: f32 = 0.999;
            const EPS: f32 = 1e-8;
            let t = t as i32;
            for i in 0..p.len() {
                let g = grad[i];
                let mut m = B1 * ms[i] + (1.0 - B1) * g;
                let mut v = B2 * vs[i] + (1.0 - B2) * g * g;
                if m.abs() < f32::MIN_POSITIVE {
                    m = 0.0;
                }
                if v < f32::MIN_POSITIVE {
                    v = 0.0;
                }
                ms[i] = m;
                vs[i] = v;
                let m_hat = m / (1.0 - B1.powi(t));
                let v_hat = v / (1.0 - B2.powi(t));
                p[i] -= lr * m_hat / (v_hat.sqrt() + EPS);
            }
        }
        let mut rng = StdRng::seed_from_u64(41);
        let n = 67; // not a multiple of any vector width
        let mut param: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut m: Vec<f32> = (0..n)
            .map(|i| match i % 3 {
                0 => f32::from_bits(rng.gen_range(1..0x0080_0000u32)), // denormal
                1 => -f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
                _ => rng.gen_range(-1e-2..1e-2),
            })
            .collect();
        let mut v: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..1e-4)).collect();
        let (mut param_ref, mut m_ref, mut v_ref) = (param.clone(), m.clone(), v.clone());
        // Steps 1–300 cross the step where `m`'s bias correction rounds to
        // 1.0, steps 17 300–17 340 the one where `v`'s does.
        let c2 = |t| 1.0 - 0.999f32.powi(t);
        assert!(c2(17_300) < 1.0 && c2(17_340) == 1.0);
        for t in (1..=300).chain(17_300..=17_340) {
            let grad: Vec<f32> = (0..n)
                .map(|i| if (i + t as usize).is_multiple_of(4) { 0.0 } else { rng.gen_range(-1e-3..1e-3) })
                .collect();
            adam_update(&mut param, &grad, &mut m, &mut v, t, 1e-3);
            indexed(&mut param_ref, &grad, &mut m_ref, &mut v_ref, t, 1e-3);
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&param), bits(&param_ref), "param diverged at step {t}");
            assert_eq!(bits(&m), bits(&m_ref), "m diverged at step {t}");
            assert_eq!(bits(&v), bits(&v_ref), "v diverged at step {t}");
        }
        // Zero gradients alone: both sides decay `m` to exactly zero.
        let zero = vec![0.0f32; n];
        for t in 17_341..=19_540 {
            adam_update(&mut param, &zero, &mut m, &mut v, t, 1e-3);
            indexed(&mut param_ref, &zero, &mut m_ref, &mut v_ref, t, 1e-3);
            assert!(m.iter().zip(&m_ref).all(|(a, b)| a.to_bits() == b.to_bits()), "step {t}");
            assert!(param.iter().zip(&param_ref).all(|(a, b)| a.to_bits() == b.to_bits()), "step {t}");
        }
        assert!(m.iter().all(|&x| x == 0.0), "a moment outlived 2 200 zero gradients");
    }

    /// A moment whose gradient stays zero reaches exactly `0.0` without
    /// passing through the denormals, alone and inside a trained layer
    /// (weights of an input feature seen in one batch only).
    #[test]
    fn dead_moments_flush_to_zero() {
        let (mut p, mut m, mut v) = ([0.5f32], [1e-3f32], [1e-6f32]);
        let mut t = 0;
        while m[0] != 0.0 {
            t += 1;
            assert!(t < 1_000, "m = {:e} after {t} zero-gradient steps", m[0]);
            adam_update(&mut p, &[0.0], &mut m, &mut v, t, 1e-3);
            assert!(!m[0].is_subnormal() && !v[0].is_subnormal(), "step {t}: m = {:e}", m[0]);
        }
        assert_eq!(m[0].to_bits(), 0, "m must flush to +0.0");

        let mut rng = StdRng::seed_from_u64(13);
        let mut layer = Dense::new(3, 2, Activation::Relu, &mut rng);
        let (mut y, mut scratch) = (Matrix::default(), GradScratch::default());
        for step in 0..1_000 {
            // Feature 2 is seen once; the other two every step.
            let seen = if step == 0 { 1.0 } else { 0.0 };
            let x = Matrix::from_vec(2, 3, vec![0.3, 0.8, seen, 0.9, -0.4, 0.0]);
            layer.forward_into(Input::Dense(&x), &mut y);
            let mut grad = scaled_diff(&y, &[0.1, 0.2, 0.3, 0.4], 0.5);
            layer.grad_step(Input::Dense(&x), &y, &mut grad, None, &mut scratch, 1e-2);
        }
        let moments = layer.adam_w.m.data();
        assert!(moments.iter().all(|m| !m.is_subnormal()), "{moments:?}");
        assert_eq!(&moments[4..], &[0.0, 0.0], "the seen-once feature's moments");
    }

    /// The buffered pass against `sigmoid(b + Σ x·W)` written out with libm,
    /// for one row and a batch, before and after a weight update.
    #[test]
    fn forward_into_matches_the_libm_reference() {
        let reference = |layer: &Dense, x: &Matrix| -> Vec<f32> {
            reference_affine(layer, x.data()).into_iter().map(sigmoid).collect()
        };
        let mut rng = StdRng::seed_from_u64(21);
        let layer = Dense::new(6, 4, Activation::Sigmoid, &mut rng);
        let single = Matrix::row(vec![0.3, -0.2, 0.8, 0.0, 1.5, -0.7]);
        let batch = Matrix::from_vec(
            3,
            6,
            (0..18).map(|i| (i as f32 * 0.37).sin()).collect(),
        );
        let mut out = Matrix::default();
        for x in [&single, &batch] {
            layer.forward_into(Input::Dense(x), &mut out);
            assert_eq!(out.rows(), x.rows());
            for (a, b) in out.data().iter().zip(reference(&layer, x)) {
                assert!((a - b).abs() < 1e-5, "forward_into diverged: {a} vs {b}");
            }
        }
        // After a weight update, the buffered path must track the new weights.
        let mut trained = layer.clone();
        let mut y = Matrix::default();
        trained.forward_into(Input::Dense(&single), &mut y);
        trained.grad_step(Input::Dense(&single), &y, &mut y.clone(), None, &mut GradScratch::default(), 0.1);
        trained.forward_into(Input::Dense(&single), &mut out);
        assert_ne!(trained.weights, layer.weights);
        for (a, b) in out.data().iter().zip(reference(&trained, &single)) {
            assert!((a - b).abs() < 1e-5, "stale weights in buffered path: {a} vs {b}");
        }
    }

    #[test]
    fn serde_round_trip_preserves_behavior() {
        let mut rng = StdRng::seed_from_u64(9);
        let layer = Dense::new(4, 3, Activation::Sigmoid, &mut rng);
        let json = serde_json::to_string(&layer).unwrap();
        let back: Dense = serde_json::from_str(&json).unwrap();
        let (mut a, mut b) = (Matrix::default(), Matrix::default());
        let x = Matrix::row(vec![0.1, 0.2, 0.3, 0.4]);
        layer.forward_into(Input::Dense(&x), &mut a);
        back.forward_into(Input::Dense(&x), &mut b);
        assert_eq!(a, b);
    }

    /// A batch of one-hot-sparse rows steps a layer to the same bits as
    /// its lists or as dense rows: forward, input gradient, weight
    /// gradient and Adam, over several steps.
    #[test]
    fn sparse_rows_train_a_layer_like_their_dense_rows() {
        let mut rng = StdRng::seed_from_u64(31);
        let (m, fan_in, fan_out) = (7, 66, 12);
        let data: Vec<f32> = (0..m * fan_in)
            .map(|i| if (i * 7 + i / fan_in) % 9 == 0 { 1.0 + (i % 4) as f32 } else { 0.0 })
            .collect();
        let x = Matrix::from_vec(m, fan_in, data);
        let mut lists = SparseRows::default();
        lists.push_dense([x.data()], fan_in);
        let mut dense = Dense::new(fan_in, fan_out, Activation::Relu, &mut rng);
        let mut sparse = dense.clone();
        let target: Vec<f32> = (0..m * fan_out).map(|i| (i % 5) as f32 * 0.2).collect();
        let (mut scratch_dense, mut scratch_sparse) = (GradScratch::default(), GradScratch::default());
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for step in 0..5 {
            let (mut y_dense, mut y_sparse) = (Matrix::default(), Matrix::default());
            dense.forward_into(Input::Dense(&x), &mut y_dense);
            sparse.forward_into(Input::Sparse(&lists), &mut y_sparse);
            assert_eq!(bits(y_dense.data()), bits(y_sparse.data()), "forward, step {step}");
            let (mut in_dense, mut in_sparse) = (Matrix::default(), Matrix::default());
            let mut grad = scaled_diff(&y_dense, &target, 0.5);
            let wanted = Some(&mut in_dense);
            dense.grad_step(Input::Dense(&x), &y_dense, &mut grad, wanted, &mut scratch_dense, 1e-2);
            let mut grad = scaled_diff(&y_sparse, &target, 0.5);
            let wanted = Some(&mut in_sparse);
            sparse.grad_step(Input::Sparse(&lists), &y_sparse, &mut grad, wanted, &mut scratch_sparse, 1e-2);
            assert_eq!(bits(in_dense.data()), bits(in_sparse.data()), "input gradient, step {step}");
            assert_eq!(bits(dense.weights.data()), bits(sparse.weights.data()), "weights, step {step}");
            assert_eq!(bits(dense.bias.data()), bits(sparse.bias.data()), "bias, step {step}");
        }
    }
}
