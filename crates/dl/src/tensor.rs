//! A minimal row-major f32 matrix.
//!
//! Only what the networks need — no broadcasting, no views, no unsafe. Shape
//! errors are bugs in the caller, so they panic with both shapes in the
//! message rather than returning `Result`s that training loops would unwrap
//! anyway.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) data: Vec<f32>,
}

impl Default for Matrix {
    /// An empty 0 × 0 matrix — the initial state of workspace buffers.
    fn default() -> Self {
        Matrix { rows: 0, cols: 0, data: Vec::new() }
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds from a flat row-major vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape {rows}x{cols} needs {} elements", rows * cols);
        Matrix { rows, cols, data }
    }

    /// A row vector (1 × n).
    pub fn row(data: Vec<f32>) -> Self {
        Matrix { rows: 1, cols: data.len(), data }
    }

    /// Xavier/Glorot-uniform initialization for a layer `fan_in → fan_out`.
    pub fn xavier(fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Self {
        let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
        let data = (0..fan_in * fan_out).map(|_| rng.gen_range(-limit..limit)).collect();
        Matrix { rows: fan_in, cols: fan_out, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    /// If `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Resizes in place to `rows × cols`, reusing the existing allocation
    /// when capacity allows. Element values after a resize are unspecified
    /// (callers overwrite). Returns `true` when the backing buffer had to
    /// grow — the signal [`crate::Workspace`] uses to prove steady-state
    /// scoring is allocation-free.
    pub fn resize(&mut self, rows: usize, cols: usize) -> bool {
        let need = rows * cols;
        let grew = need > self.data.capacity();
        self.data.resize(need, 0.0);
        self.rows = rows;
        self.cols = cols;
        grew
    }

    /// [`Matrix::resize`] to an all-zero `rows × cols` — what an accumulator
    /// starts from. Returns `true` when the backing buffer had to grow.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) -> bool {
        let grew = self.resize(rows, cols);
        self.data.fill(0.0);
        grew
    }

    /// Writes `self · rhs` into `out` (resized as needed), reusing `out`'s
    /// allocation. The inner loop is blocked over the shared dimension so
    /// the active slice of `rhs` stays cache-resident, and zero entries of
    /// `self` are skipped (featurized windows are mostly zero).
    ///
    /// Returns `true` when `out`'s buffer grew.
    ///
    /// # Panics
    /// If `self.cols != rhs.rows`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> bool {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let grew = out.resize_zeroed(self.rows, rhs.cols);
        self.gemm_acc(rhs, out);
        grew
    }

    /// Accumulates `self · rhs` into `out` (`out += self · rhs`).
    ///
    /// # Panics
    /// If shapes disagree (`out` must already be `self.rows × rhs.cols`).
    pub fn matmul_acc_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, rhs.cols),
            "accumulator shape mismatch: {}x{} for a {}x{} product",
            out.rows,
            out.cols,
            self.rows,
            rhs.cols
        );
        self.gemm_acc(rhs, out);
    }

    /// The one GEMM entry point behind both `matmul_into` variants (and,
    /// through them, `matmul` and every forward pass): the kernel in
    /// [`crate::kernels`].
    fn gemm_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        crate::kernels::gemm_acc(&self.data, self.rows, self.cols, &rhs.data, rhs.cols, &mut out.data);
    }

    /// Adds a row vector to every row in place (bias add).
    ///
    /// # Panics
    /// If `bias` is not `1 × self.cols`.
    pub fn add_row_inplace(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for row in self.data.chunks_exact_mut(self.cols) {
            for (o, b) in row.iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
    }

    /// The flat row-major slice of row `r` (no copy).
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies rows `start..end` into a new matrix (one contiguous memcpy).
    /// An empty range yields a `0 × cols` matrix, so callers can slice
    /// around a fold that sits at either edge.
    ///
    /// # Panics
    /// If the range is out of bounds or reversed.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "bad row range {start}..{end}");
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Writes the transpose into `out`, reusing its allocation.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// Element-wise difference. Panics on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a - b)
    }

    /// Sums rows into a 1 × cols vector in `out` (bias gradient), reusing
    /// its allocation: each column is `0.0 + Σ rows` in ascending row order.
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        out.resize_zeroed(1, self.cols);
        for row in self.data.chunks_exact(self.cols.max(1)) {
            for (o, &v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    /// Applies `f` element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Scales by a constant.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Mean of squared elements (the MSE of a difference matrix).
    pub fn mean_sq(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|x| x * x).sum::<f32>() / self.data.len() as f32
    }

    /// Extracts row `r` as a 1 × cols matrix.
    pub fn row_at(&self, r: usize) -> Matrix {
        assert!(r < self.rows);
        Matrix::row(self.data[r * self.cols..(r + 1) * self.cols].to_vec())
    }

    /// Stacks matrices (row vectors or multi-row blocks) vertically into
    /// one matrix. Panics if widths differ.
    pub fn stack_rows(rows: &[Matrix]) -> Matrix {
        assert!(!rows.is_empty(), "cannot stack zero rows");
        let cols = rows[0].cols;
        let total: usize = rows.iter().map(|r| r.rows).sum();
        let mut data = Vec::with_capacity(total * cols);
        for r in rows {
            assert_eq!(r.cols, cols, "row width mismatch");
            data.extend_from_slice(&r.data);
        }
        Matrix { rows: total, cols, data }
    }

    fn zip(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "elementwise shape mismatch: {}x{} vs {}x{}",
            self.rows,
            self.cols,
            rhs.rows,
            rhs.cols
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_panic() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let (mut t, mut back) = (Matrix::default(), Matrix::default());
        a.transpose_into(&mut t);
        assert_eq!(t, Matrix::from_vec(3, 2, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]));
        t.transpose_into(&mut back);
        assert_eq!(back, a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::row(vec![1.0, 2.0]);
        let b = Matrix::row(vec![3.0, 4.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 2.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn bias_broadcast_and_sum_rows() {
        let mut x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        // A stale, wrongly-shaped `out` is reshaped and zeroed first.
        let mut sums = Matrix::from_vec(1, 3, vec![9.0; 3]);
        x.sum_rows_into(&mut sums);
        assert_eq!(sums, Matrix::row(vec![4.0, 6.0]));
        x.add_row_inplace(&Matrix::row(vec![10.0, 20.0]));
        assert_eq!(x.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn mean_sq_and_row_ops() {
        let x = Matrix::row(vec![3.0, 4.0]);
        assert_eq!(x.mean_sq(), 12.5);
        let stacked = Matrix::stack_rows(&[x.clone(), x.clone()]);
        assert_eq!(stacked.rows(), 2);
        assert_eq!(stacked.row_at(1).data(), &[3.0, 4.0]);
    }

    #[test]
    fn xavier_init_is_bounded_and_seeded() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = Matrix::xavier(100, 50, &mut rng);
        let limit = (6.0f32 / 150.0).sqrt();
        assert!(w.data().iter().all(|x| x.abs() <= limit));
        let mut rng2 = StdRng::seed_from_u64(5);
        assert_eq!(w, Matrix::xavier(100, 50, &mut rng2));
    }

    #[test]
    fn serde_round_trip() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn matmul_into_matches_matmul_and_reuses_capacity() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Matrix::xavier(70, 130, &mut rng); // spans multiple k-blocks
        let b = Matrix::xavier(130, 40, &mut rng);
        let mut out = Matrix::default();
        assert!(a.matmul_into(&b, &mut out), "first call must allocate");
        assert_eq!(out, a.matmul(&b));
        // Steady state: same shapes reuse the buffer.
        assert!(!a.matmul_into(&b, &mut out), "second call must not grow");
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn matmul_delegates_to_the_shared_kernel() {
        // `matmul`, `matmul_into`, and `matmul_acc_into` are all the same
        // `gemm_acc` call: bit-identical to invoking it directly.
        let mut rng = StdRng::seed_from_u64(23);
        let a = Matrix::xavier(5, 37, &mut rng);
        let b = Matrix::xavier(37, 19, &mut rng);
        let mut want = vec![0.0f32; 5 * 19];
        crate::kernels::gemm_acc(a.data(), 5, 37, b.data(), 19, &mut want);
        let via_matmul = a.matmul(&b);
        let mut via_into = Matrix::default();
        a.matmul_into(&b, &mut via_into);
        let mut via_acc = Matrix::zeros(5, 19);
        a.matmul_acc_into(&b, &mut via_acc);
        assert_eq!(via_matmul.data(), &want[..]);
        assert_eq!(via_into.data(), &want[..]);
        assert_eq!(via_acc.data(), &want[..]);
    }

    #[test]
    fn matmul_acc_accumulates() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut out = Matrix::zeros(2, 2);
        a.matmul_into(&b, &mut out);
        a.matmul_acc_into(&b, &mut out);
        assert_eq!(out.data(), &[116.0, 128.0, 278.0, 308.0]);
    }

    #[test]
    fn inplace_bias_matches_broadcast() {
        // The bias lands on every row, not only the first.
        let mut y = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        y.add_row_inplace(&Matrix::row(vec![0.5, -1.0]));
        assert_eq!(y.data(), &[1.5, 1.0, 3.5, 3.0, 5.5, 5.0]);
    }

    #[test]
    fn row_slice_and_slice_rows() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.row_slice(1), &[3.0, 4.0]);
        let mid = a.slice_rows(1, 3);
        assert_eq!(mid.rows(), 2);
        assert_eq!(mid.data(), &[3.0, 4.0, 5.0, 6.0]);
    }
}
