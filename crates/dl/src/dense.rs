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
    /// Applies the activation.
    pub fn apply(self, x: &Matrix) -> Matrix {
        match self {
            Activation::Linear => x.clone(),
            Activation::Relu => x.map(|v| v.max(0.0)),
            Activation::Sigmoid => x.map(sigmoid),
            Activation::Tanh => x.map(f32::tanh),
        }
    }

    /// Applies the activation in place (the allocation-free inference path).
    /// Sigmoid/tanh go through the dispatched kernel transcendentals:
    /// polynomial (vectorized) on the wide path, libm on the scalar path.
    pub fn apply_inplace(self, data: &mut [f32]) {
        match self {
            Activation::Linear => {}
            Activation::Relu => {
                for v in data {
                    *v = v.max(0.0);
                }
            }
            Activation::Sigmoid => crate::kernels::sigmoid_slice(data),
            Activation::Tanh => crate::kernels::tanh_slice(data),
        }
    }

    /// Derivative expressed in terms of the *activated output* `y`.
    pub fn derivative_from_output(self, y: &Matrix) -> Matrix {
        match self {
            Activation::Linear => y.map(|_| 1.0),
            Activation::Relu => y.map(|v| if v > 0.0 { 1.0 } else { 0.0 }),
            Activation::Sigmoid => y.map(|v| v * (1.0 - v)),
            Activation::Tanh => y.map(|v| 1.0 - v * v),
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

/// Per-parameter Adam state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AdamState {
    m: Matrix,
    v: Matrix,
    t: u64,
}

impl AdamState {
    fn new(rows: usize, cols: usize) -> Self {
        AdamState { m: Matrix::zeros(rows, cols), v: Matrix::zeros(rows, cols), t: 0 }
    }

    fn step(&mut self, param: &mut Matrix, grad: &Matrix, lr: f32) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        self.t += 1;
        let t = self.t as i32;
        for i in 0..param.data().len() {
            let g = grad.data()[i];
            let m = B1 * self.m.data()[i] + (1.0 - B1) * g;
            let v = B2 * self.v.data()[i] + (1.0 - B2) * g * g;
            self.m.data_mut()[i] = m;
            self.v.data_mut()[i] = v;
            let m_hat = m / (1.0 - B1.powi(t));
            let v_hat = v / (1.0 - B2.powi(t));
            param.data_mut()[i] -= lr * m_hat / (v_hat.sqrt() + EPS);
        }
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
    #[serde(skip)]
    cache: Option<LayerCache>,
}

#[derive(Debug, Clone)]
struct LayerCache {
    input: Matrix,
    output: Matrix,
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
            cache: None,
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

    /// Inference-only forward pass (no cache).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.activation.apply(&x.matmul(&self.weights).add_row_broadcast(&self.bias))
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

    /// Training forward pass: caches activations for `backward`.
    pub fn forward_train(&mut self, x: &Matrix) -> Matrix {
        let output = self.forward(x);
        self.cache = Some(LayerCache { input: x.clone(), output: output.clone() });
        output
    }

    /// Backward pass: consumes dL/dy, applies an Adam step to the layer's
    /// parameters, and returns dL/dx.
    ///
    /// # Panics
    /// If called without a preceding [`Dense::forward_train`].
    pub fn backward(&mut self, grad_out: &Matrix, lr: f32) -> Matrix {
        let cache = self.cache.take().expect("backward without forward_train");
        let dz = grad_out.hadamard(&self.activation.derivative_from_output(&cache.output));
        let grad_w = cache.input.transpose().matmul(&dz);
        let grad_b = dz.sum_rows();
        let grad_in = dz.matmul(&self.weights.transpose());
        self.adam_w.step(&mut self.weights, &grad_w, lr);
        self.adam_b.step(&mut self.bias, &grad_b, lr);
        grad_in
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
        let x = Matrix::row(vec![-1.0, 0.0, 2.0]);
        assert_eq!(Activation::Relu.apply(&x).data(), &[0.0, 0.0, 2.0]);
        let y = Activation::Relu.apply(&x);
        assert_eq!(Activation::Relu.derivative_from_output(&y).data(), &[0.0, 0.0, 1.0]);
        let s = Activation::Sigmoid.apply(&Matrix::row(vec![0.0]));
        let ds = Activation::Sigmoid.derivative_from_output(&s);
        assert!((ds.data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn dense_learns_a_linear_map() {
        // y = 2x; a single linear unit must fit it quickly.
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(1, 1, Activation::Linear, &mut rng);
        for _ in 0..500 {
            let x = Matrix::from_vec(4, 1, vec![-1.0, 0.5, 1.0, 2.0]);
            let target = x.scale(2.0);
            let y = layer.forward_train(&x);
            let grad = y.sub(&target).scale(2.0 / 4.0);
            layer.backward(&grad, 0.05);
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
        let y = train_layer.forward_train(&x);
        let n = y.data().len() as f32;
        let grad_out = y.sub(&target).scale(2.0 / n);
        // lr=0 step so parameters stay untouched while we read dL/dx.
        let analytic = train_layer.backward(&grad_out, 0.0);

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

    #[test]
    #[should_panic(expected = "backward without forward_train")]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(2, 2, Activation::Linear, &mut rng);
        layer.backward(&Matrix::row(vec![1.0, 1.0]), 0.01);
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
        let y = trained.forward_train(&single);
        trained.backward(&y.clone(), 0.1);
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
