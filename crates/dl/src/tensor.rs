//! A minimal row-major f32 matrix, and its sparse twin for one-hot rows.
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

    /// Immutable element access (the oracles in the layers' tests).
    #[cfg(test)]
    pub(crate) fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// The flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
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
    /// allocation, through [`crate::kernels::gemm_acc`].
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

    /// The one GEMM entry point behind both `matmul_into` variants: the
    /// kernel in [`crate::kernels`].
    fn gemm_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        crate::kernels::gemm_acc(&self.data, self.rows, self.cols, &rhs.data, rhs.cols, &mut out.data);
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

    /// Writes the transpose into `out`, reusing its allocation. Source rows
    /// go eight at a time, so each output row takes eight contiguous values
    /// per pass — about twice the rate of scattering one row at a time at
    /// the shapes training transposes every step.
    pub fn transpose_into(&self, out: &mut Matrix) {
        const LANES: usize = 8;
        let (rows, cols) = (self.rows, self.cols);
        out.resize(cols, rows);
        let whole = rows - rows % LANES;
        for r0 in (0..whole).step_by(LANES) {
            let block = &self.data[r0 * cols..][..LANES * cols];
            for (c, out_row) in out.data.chunks_exact_mut(rows).enumerate() {
                let lanes: &mut [f32; LANES] = (&mut out_row[r0..r0 + LANES]).try_into().expect("8 lanes");
                for (k, o) in lanes.iter_mut().enumerate() {
                    *o = block[k * cols + c];
                }
            }
        }
        for r in whole..rows {
            for (c, &v) in self.row_slice(r).iter().enumerate() {
                out.data[c * rows + r] = v;
            }
        }
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
}

/// Rows given by their nonzeros: each row a list of `(column, value)`
/// entries in ascending column order, all rows back to back. A featurized
/// record is 66 floats of which about nine are nonzero, so this is how the
/// first layer of either model reads its input
/// ([`crate::kernels::sparse_gemm_acc`]). Appending never allocates once
/// the buffers have held as much.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseRows {
    /// One past each row's last entry.
    ends: Vec<u32>,
    entries: Vec<(u32, f32)>,
}

impl SparseRows {
    /// Closed rows.
    pub fn rows(&self) -> usize {
        self.ends.len()
    }

    /// Row `r`'s entries.
    pub fn row(&self, r: usize) -> &[(u32, f32)] {
        let start = if r == 0 { 0 } else { self.ends[r - 1] as usize };
        &self.entries[start..self.ends[r] as usize]
    }

    /// Every closed row, in order.
    pub fn iter(&self) -> impl Iterator<Item = &[(u32, f32)]> + Clone {
        (0..self.rows()).map(|r| self.row(r))
    }

    /// Forgets every row, keeping the buffers.
    pub fn clear(&mut self) {
        self.ends.clear();
        self.entries.clear();
    }

    /// Makes room for `rows` more rows of at most `per_row` entries each,
    /// counted from the rows already closed rather than from the entries
    /// they hold: whether a buffer grows depends on the row count alone,
    /// never on how many nonzeros earlier rows happened to have.
    pub fn reserve(&mut self, rows: usize, per_row: usize) {
        self.ends.reserve(rows);
        let worst = (self.rows() + rows) * per_row;
        self.entries.reserve(worst.saturating_sub(self.entries.len()));
    }

    /// Appends one nonzero to the open row; columns must ascend.
    pub fn push(&mut self, column: u32, value: f32) {
        debug_assert!(value != 0.0, "column {column} holds a zero");
        debug_assert!(
            self.entries.len() == self.ends.last().map_or(0, |&end| end as usize)
                || self.entries.last().is_some_and(|&(last, _)| last < column),
            "column {column} does not ascend"
        );
        self.entries.push((column, value));
    }

    /// Appends `row`'s entries to the open row, each column shifted by
    /// `offset` — a window's row is its records' rows side by side.
    pub fn extend(&mut self, row: &[(u32, f32)], offset: u32) {
        self.entries.extend(row.iter().map(|&(column, value)| (column + offset, value)));
    }

    /// Closes the open row (possibly empty).
    pub fn end_row(&mut self) {
        self.ends.push(u32::try_from(self.entries.len()).expect("under 2^32 entries"));
    }

    /// Appends every `width`-wide row of `blocks`, in order, as one row of
    /// its nonzeros (`-0.0` counts as zero). A branchless scan: every
    /// element is written at the cursor and the cursor moves past the
    /// nonzero ones, so the cost does not depend on where the zeros are.
    ///
    /// When the buffers must grow, they grow once, to exactly what the rows
    /// left to scan need (one counting pass, paid only then): a one-off scan
    /// of a whole data set leaves no slack behind, where doubling would
    /// leave up to half of it.
    pub fn push_dense<'a, I>(&mut self, blocks: I, width: usize)
    where
        I: IntoIterator<Item = &'a [f32]>,
        I::IntoIter: Clone,
    {
        let mut blocks = blocks.into_iter();
        while let Some(block) = blocks.next() {
            debug_assert!(width > 0 && block.len().is_multiple_of(width));
            for (r, row) in block.chunks_exact(width).enumerate() {
                let start = self.entries.len();
                if self.entries.capacity() < start + width {
                    let rest = || block[r * width..].iter().chain(blocks.clone().flatten());
                    self.entries.reserve_exact(rest().filter(|v| **v != 0.0).count() + width);
                    self.ends.reserve_exact(rest().count() / width);
                }
                self.entries.resize(start + width, (0, 0.0));
                let out = &mut self.entries[start..];
                let mut len = 0;
                for (column, &value) in row.iter().enumerate() {
                    out[len] = (column as u32, value);
                    len += usize::from(value != 0.0);
                }
                self.entries.truncate(start + len);
                self.end_row();
            }
        }
    }

    /// Appends `row` to `out` as a dense `width`-wide row: zeros, with each
    /// listed value at its column — the inverse of [`SparseRows::push_dense`]
    /// for a row that lists no zero.
    pub fn scatter(row: &[(u32, f32)], width: usize, out: &mut Vec<f32>) {
        let start = out.len();
        out.resize(start + width, 0.0);
        let dense = &mut out[start..];
        for &(column, value) in row {
            dense[column as usize] = value;
        }
    }

    /// Allocated slots in both buffers: moves only when one of them grew.
    pub(crate) fn capacity(&self) -> usize {
        self.ends.capacity() + self.entries.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// `a · b` into a fresh matrix.
    fn product(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        a.matmul_into(b, &mut out);
        out
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        assert_eq!(product(&a, &b).data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(product(&a, &i), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_panic() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = product(&a, &b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let (mut t, mut back) = (Matrix::default(), Matrix::default());
        a.transpose_into(&mut t);
        assert_eq!(t, Matrix::from_vec(3, 2, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]));
        t.transpose_into(&mut back);
        assert_eq!(back, a);
        // Whole blocks of eight rows, a partial one, and neither.
        let mut rng = StdRng::seed_from_u64(8);
        for (rows, cols) in [(8, 1), (13, 5), (24, 66), (1, 24), (0, 3), (3, 0)] {
            let a = Matrix::xavier(rows, cols, &mut rng);
            a.transpose_into(&mut t);
            assert_eq!((t.rows(), t.cols()), (cols, rows));
            for (r, c) in (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c))) {
                assert_eq!(t.get(c, r).to_bits(), a.get(r, c).to_bits(), "{rows}x{cols} at ({r}, {c})");
            }
        }
    }

    #[test]
    fn sum_rows_into_reshapes_and_sums() {
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        // A stale, wrongly-shaped `out` is reshaped and zeroed first.
        let mut sums = Matrix::from_vec(1, 3, vec![9.0; 3]);
        x.sum_rows_into(&mut sums);
        assert_eq!(sums, Matrix::row(vec![4.0, 6.0]));
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
        let fresh = out.clone();
        // Steady state: same shapes reuse the buffer, whatever it held.
        out.data_mut().fill(7.0);
        assert!(!a.matmul_into(&b, &mut out), "second call must not grow");
        assert_eq!(out, fresh);
    }

    #[test]
    fn matmul_delegates_to_the_shared_kernel() {
        // `matmul_into` and `matmul_acc_into` are the same `gemm_acc`
        // call: bit-identical to invoking it directly.
        let mut rng = StdRng::seed_from_u64(23);
        let a = Matrix::xavier(5, 37, &mut rng);
        let b = Matrix::xavier(37, 19, &mut rng);
        let mut want = vec![0.0f32; 5 * 19];
        crate::kernels::gemm_acc(a.data(), 5, 37, b.data(), 19, &mut want);
        let mut via_into = Matrix::default();
        a.matmul_into(&b, &mut via_into);
        let mut via_acc = Matrix::zeros(5, 19);
        a.matmul_acc_into(&b, &mut via_acc);
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
    fn row_slice_and_slice_rows() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.row_slice(1), &[3.0, 4.0]);
        let mid = a.slice_rows(1, 3);
        assert_eq!(mid.rows(), 2);
        assert_eq!(mid.data(), &[3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn mean_sq_and_row_ops() {
        let x = Matrix::row(vec![3.0, 4.0]);
        // A row's mean square is its squared error against zeros.
        assert_eq!(crate::kernels::mse_row(x.data(), &[0.0; 2]), 12.5);
        let stacked = Matrix::stack_rows(&[x.clone(), x.clone()]);
        assert_eq!(stacked.rows(), 2);
        assert_eq!(stacked.row_slice(1), &[3.0, 4.0]);
    }

    #[test]
    fn scatter_undoes_push_dense() {
        let dense = [0.0, 2.5, -0.0, 0.0, -1.0, 3.0, 0.0, 0.0, 0.0];
        let mut lists = SparseRows::default();
        lists.push_dense([&dense[..]], 3);
        assert_eq!(lists.row(1), &[(1, -1.0), (2, 3.0)]);
        let mut out = vec![7.0];
        lists.iter().for_each(|row| SparseRows::scatter(row, 3, &mut out));
        // `-0.0` is not listed, so it comes back as `+0.0`.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want = [7.0, 0.0, 2.5, 0.0, 0.0, -1.0, 3.0, 0.0, 0.0, 0.0];
        assert_eq!(bits(&out), bits(&want));
    }
}
