//! Fully-connected layers with built-in Adam state.

use crate::tensor::Matrix;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Layer nonlinearity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity.
    Linear,
    /// max(0, x).
    Relu,
    /// Logistic sigmoid — the right output for one-hot targets in \[0,1\].
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation in place with the libm transcendentals — the
    /// reference path, and the one training is pinned to (see DESIGN.md §
    /// "The training path").
    fn apply_scalar(self, data: &mut [f32]) {
        match self {
            Activation::Linear => {}
            Activation::Relu => data.iter_mut().for_each(|v| *v = v.max(0.0)),
            Activation::Sigmoid => data.iter_mut().for_each(|v| *v = sigmoid(*v)),
            Activation::Tanh => data.iter_mut().for_each(|v| *v = v.tanh()),
        }
    }

    /// Applies the activation in place (the allocation-free inference path).
    /// Sigmoid/tanh go through the kernels' vectorized polynomials.
    pub fn apply_inplace(self, data: &mut [f32]) {
        match self {
            Activation::Sigmoid => crate::kernels::sigmoid_slice(data),
            Activation::Tanh => crate::kernels::tanh_slice(data),
            Activation::Linear | Activation::Relu => self.apply_scalar(data),
        }
    }

    /// Derivative expressed in terms of the *activated output* `y`.
    fn derivative(self, y: f32) -> f32 {
        match self {
            Activation::Linear => 1.0,
            Activation::Relu if y > 0.0 => 1.0,
            Activation::Relu => 0.0,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
        }
    }
}

/// Numerically stable logistic sigmoid.
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
/// sqrt per element, so hoisting the bias corrections and walking zipped
/// slices (which vectorizes) moves no bit against an indexed loop; `m` is
/// left to decay through the denormals. Public for the `kernels` report.
pub fn adam_update(param: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32], t: u64, lr: f32) {
    const B1: f32 = 0.9;
    const B2: f32 = 0.999;
    const EPS: f32 = 1e-8;
    let (c1, c2) = (1.0 - B1.powi(t as i32), 1.0 - B2.powi(t as i32));
    for (((p, &g), m), v) in param.iter_mut().zip(grad).zip(m).zip(v) {
        *m = B1 * *m + (1.0 - B1) * g;
        *v = B2 * *v + (1.0 - B2) * g * g;
        *p -= lr * (*m / c1) / ((*v / c2).sqrt() + EPS);
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

    /// The reference forward pass.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.forward_to(x, &mut out);
        out
    }

    /// [`Dense::forward`] into a reused buffer, and the training forward:
    /// GEMM into zeros, then the bias, then the scalar libm activation — the
    /// order trained weights are pinned to, not [`Dense::forward_into`]'s.
    pub(crate) fn forward_to(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.weights, out);
        out.add_row_inplace(&self.bias);
        self.activation.apply_scalar(out.data_mut());
    }

    /// Inference forward pass over `rows` flat row-major inputs into a
    /// reusable buffer — no allocation once `out` has capacity. The bias is
    /// staged into `out` first and the GEMM accumulates on top (one pass
    /// over the output instead of two); a single row is just the
    /// `rows = 1` case of the same kernel, and by the kernel's
    /// row-invariance contract yields the bits it would in any batch.
    ///
    /// Returns `true` when `out`'s buffer grew.
    pub fn forward_into(&self, x: &[f32], rows: usize, out: &mut Matrix) -> bool {
        assert_eq!(
            x.len(),
            rows * self.fan_in(),
            "forward_into input is not {rows} rows of fan_in {}",
            self.fan_in()
        );
        let fan_out = self.fan_out();
        let grew = out.resize(rows, fan_out);
        for row in out.data_mut().chunks_exact_mut(fan_out) {
            row.copy_from_slice(self.bias.row_slice(0));
        }
        crate::kernels::gemm_acc(x, rows, self.fan_in(), self.weights.data(), fan_out, out.data_mut());
        self.activation.apply_inplace(out.data_mut());
        grew
    }

    /// Backward pass and Adam step for input `x` and output `y` of
    /// [`Dense::forward_to`]. `grad` holds dL/dy on entry and dL/dz on
    /// return; dL/dx goes to `grad_in` when the caller has a use for it,
    /// taken before the step moves the weights.
    pub(crate) fn grad_step(
        &mut self,
        x: &Matrix,
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
        x.transpose_into(&mut scratch.transposed);
        scratch.transposed.matmul_into(grad, &mut scratch.grad_w);
        grad.sum_rows_into(&mut scratch.grad_b);
        self.adam_w.step(&mut self.weights, &scratch.grad_w, lr);
        self.adam_b.step(&mut self.bias, &scratch.grad_b, lr);
    }
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
        Activation::Relu.apply_scalar(&mut y);
        assert_eq!(y, [0.0, 0.0, 2.0]);
        assert_eq!(y.map(|v| Activation::Relu.derivative(v)), [0.0, 0.0, 1.0]);
        let mut s = [0.0];
        Activation::Sigmoid.apply_scalar(&mut s);
        assert!((Activation::Sigmoid.derivative(s[0]) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn dense_learns_a_linear_map() {
        // y = 2x; a single linear unit must fit it quickly.
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(1, 1, Activation::Linear, &mut rng);
        let (mut y, mut scratch) = (Matrix::default(), GradScratch::default());
        for _ in 0..500 {
            let x = Matrix::from_vec(4, 1, vec![-1.0, 0.5, 1.0, 2.0]);
            let target = x.scale(2.0);
            layer.forward_to(&x, &mut y);
            let mut grad = y.sub(&target).scale(2.0 / 4.0);
            layer.grad_step(&x, &y, &mut grad, None, &mut scratch, 0.05);
        }
        let y = layer.forward(&Matrix::row(vec![3.0]));
        assert!((y.data()[0] - 6.0).abs() < 0.05, "got {}", y.data()[0]);
    }

    /// Numerical gradient check: the analytic input gradient must match a
    /// finite-difference estimate.
    #[test]
    fn dense_input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(7);
        let layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::row(vec![0.3, -0.2, 0.8]);
        let target = Matrix::row(vec![0.1, -0.4]);
        let loss = |x: &Matrix| layer.forward(x).sub(&target).mean_sq();

        // Analytic.
        let mut train_layer = layer.clone();
        let y = train_layer.forward(&x);
        let n = y.data().len() as f32;
        let mut grad = y.sub(&target).scale(2.0 / n);
        // lr=0 step so parameters stay untouched while we read dL/dx.
        let mut analytic = Matrix::default();
        train_layer.grad_step(&x, &y, &mut grad, Some(&mut analytic), &mut GradScratch::default(), 0.0);

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

    /// The slice Adam against the indexed loop it replaced (kept here as the
    /// oracle), bit for bit — including moments that have decayed into the
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
                let m = B1 * ms[i] + (1.0 - B1) * g;
                let v = B2 * vs[i] + (1.0 - B2) * g * g;
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
        for t in 1..=300 {
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
        // Zero gradients alone: `m` walks down through the denormals to zero
        // on both sides (no flush-to-zero shortcut).
        let zero = vec![0.0f32; n];
        let mut saw_denormal = false;
        for t in 301..=2_500 {
            adam_update(&mut param, &zero, &mut m, &mut v, t, 1e-3);
            indexed(&mut param_ref, &zero, &mut m_ref, &mut v_ref, t, 1e-3);
            saw_denormal |= m.iter().any(|x| x.is_subnormal());
            assert!(m.iter().zip(&m_ref).all(|(a, b)| a.to_bits() == b.to_bits()), "step {t}");
            assert!(param.iter().zip(&param_ref).all(|(a, b)| a.to_bits() == b.to_bits()), "step {t}");
        }
        assert!(saw_denormal, "the decay never reached the denormals");
    }

    #[test]
    fn forward_into_matches_forward_for_rows_and_batches() {
        let mut rng = StdRng::seed_from_u64(21);
        let layer = Dense::new(6, 4, Activation::Relu, &mut rng);
        let single = Matrix::row(vec![0.3, -0.2, 0.8, 0.0, 1.5, -0.7]);
        let batch = Matrix::from_vec(
            3,
            6,
            (0..18).map(|i| (i as f32 * 0.37).sin()).collect(),
        );
        let mut out = Matrix::default();
        for x in [&single, &batch] {
            layer.forward_into(x.data(), x.rows(), &mut out);
            let reference = layer.forward(x);
            assert_eq!(out.rows(), reference.rows());
            for (a, b) in out.data().iter().zip(reference.data()) {
                assert!((a - b).abs() < 1e-5, "forward_into diverged: {a} vs {b}");
            }
        }
        // After a weight update, the buffered path must track the new weights.
        let mut trained = layer.clone();
        let y = trained.forward(&single);
        trained.grad_step(&single, &y, &mut y.clone(), None, &mut GradScratch::default(), 0.1);
        trained.forward_into(single.data(), 1, &mut out);
        let reference = trained.forward(&single);
        for (a, b) in out.data().iter().zip(reference.data()) {
            assert!((a - b).abs() < 1e-5, "stale weights in buffered path: {a} vs {b}");
        }
    }

    #[test]
    fn serde_round_trip_preserves_behavior() {
        let mut rng = StdRng::seed_from_u64(9);
        let layer = Dense::new(4, 3, Activation::Sigmoid, &mut rng);
        let x = Matrix::row(vec![0.1, 0.2, 0.3, 0.4]);
        let json = serde_json::to_string(&layer).unwrap();
        let back: Dense = serde_json::from_str(&json).unwrap();
        assert_eq!(layer.forward(&x), back.forward(&x));
    }
}
