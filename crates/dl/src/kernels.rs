//! The GEMM micro-kernels behind every matrix product in the crate.
//!
//! Every product is one of three functions here, so optimizing this file
//! optimizes every detector:
//! - [`gemm_acc`], dense `a · b`: [`crate::Matrix::matmul_into`], every
//!   hidden and output layer, the LSTM's `h·U`;
//! - [`sparse_gemm_acc`], `a · b` with each row of `a` given by its
//!   nonzeros ([`crate::SparseRows`]): the first layer of both models, whose
//!   input is a featurized window — 264 floats, about 36 of them nonzero;
//! - [`sparse_outer_acc`], `aᵀ · g` for such an `a`: the autoencoder's
//!   first-layer weight gradient.
//!
//! [`gemm_acc`] is a register-tiled wide-lane kernel: output tiles of
//! [`MR`]`×`[`NR`] stay in registers across the *entire* k loop, so each k
//! step is two `rhs` vector loads and eight FMAs with zero output-row
//! traffic. Explicit [`LANES`]-wide arrays lower to vector FMAs without
//! `unsafe` intrinsics, on whatever vector width the target has. It picks
//! its path by shape alone: a single row takes the one-row path (which
//! skips the row's zero coefficients), everything else the tiles. Its
//! oracle is the naive triple loop in the tests below, and the sparse
//! products' oracle is [`gemm_acc`] itself.
//!
//! Alongside the GEMM live the vectorizable transcendentals
//! ([`sigmoid_slice`], [`tanh_slice`]): Cephes-style polynomial `exp`
//! (|abs err| ≲ 1e-7 through sigmoid/tanh), branchless so the lane loop
//! vectorizes. They are the activations of the one forward pass, which
//! training and inference share; libm ([`crate::dense::sigmoid`],
//! `f32::tanh`) is their oracle in the tests.
//!
//! **Row invariance.** Row `i` of the product is a pure function of row `i`
//! of `a` and of `b`: every output element is one ascending-k chain of FMAs
//! from zero, whichever path computes it, so a window scores to the same
//! bits alone and in any batch. A sparse row runs the same chain with its
//! zero coefficients skipped, which leaves it unchanged because weights are
//! finite — so a window's list and its dense row give the same bits too.
//! The live detectors rely on this to batch per indication without moving a
//! digest; both halves are property-tested bit for bit below.

/// Vector width of the wide kernel, in f32 lanes.
pub const LANES: usize = 8;

/// Output rows per main register tile of the wide kernel. Four rows ×
/// two lane groups = 8 independent accumulators — exactly the FMA
/// latency×throughput product of current x86 cores (4 cycles × 2/cycle),
/// keeping the pipeline full without spilling (6 rows measured slower).
const MR: usize = 4;

/// Output columns per register tile of the wide kernel (two lane groups).
const NR: usize = 2 * LANES;

/// Accumulates `out += a · b` over flat row-major slices: `a` is `m × k`,
/// `b` is `k × n`, `out` is `m × n`.
///
/// The output is walked in [`MR`]`×`[`NR`] tiles whose accumulators live in
/// registers for the whole k loop: each k step is two contiguous vector
/// loads of `b`, four broadcast loads of `a`, and eight FMAs — no
/// output-row traffic at all until the tile is stored once at the end.
/// Leftover rows run a narrower tile, leftover columns a narrower tile and
/// then single-column tiles; a single row (the streaming GEMV) runs the
/// one-row path over its nonzero coefficients instead.
///
/// Contract: `out[i][j] += fma(a[i][k-1], b[k-1][j], … fma(a[i][0],
/// b[0][j], 0))` on every path, so the bits of row `i` do not depend on
/// `m` or on the other rows.
///
/// # Panics
/// Debug-asserts the slice lengths; callers ([`crate::Matrix`]) validate
/// shapes with real assertions.
pub fn gemm_acc(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if k == 0 || n == 0 {
        return;
    }
    if m == 1 {
        // A single row skips its zero coefficients (ReLU outputs): measured
        // against running every k, `fanin` — one window per call — won 9
        // of 10 pairs (+3 % records/s).
        row_tile(a.iter().copied().enumerate().filter(|&(_, c)| c != 0.0), b, n, out);
        return;
    }
    // Dense path, column-tile outer: one j-tile's panel of `b` is ~k cache
    // lines that stay L1-resident while every block of `a` rows streams
    // through it (weight matrices here outgrow L1 — 48×264 is 50 KB — so
    // row-major traversal would re-fetch `b` from L2 for every row block).
    let mut j = 0;
    while n - j >= NR {
        col_strip::<2>(a, m, k, b, n, j, out);
        j += NR;
    }
    if n - j >= LANES {
        col_strip::<1>(a, m, k, b, n, j, out);
        j += LANES;
    }
    if n - j >= LANES / 2 {
        edge_strip::<{ LANES / 2 }>(a, m, k, b, n, j, out);
        j += LANES / 2;
    }
    if j < n {
        edge_strip::<1>(a, m, k, b, n, j, out);
        if n - j >= 2 {
            edge_strip::<1>(a, m, k, b, n, j + 1, out);
        }
        if n - j >= 3 {
            edge_strip::<1>(a, m, k, b, n, j + 2, out);
        }
    }
}

/// Accumulates `out += a · b` where each item of `rows` is one row of `a`
/// given by its nonzeros, `(k, a[i][k])` in ascending `k` ([`crate::SparseRows`]
/// holds them); `b` is `k × n`, `out` has one `n`-wide row per item.
///
/// Row `i` runs [`gemm_acc`]'s chain over its entries only: `out[i][j] +=
/// fma(c_last, b[k_last][j], … fma(c_0, b[k_0][j], 0))`, so it has the bits
/// [`gemm_acc`] gives the densified row. The cost is the entries' FMAs —
/// nothing scans the zeros.
pub fn sparse_gemm_acc<'a>(
    rows: impl IntoIterator<Item = &'a [(u32, f32)]>,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    if n == 0 {
        return;
    }
    let mut out_rows = out.chunks_exact_mut(n);
    for list in rows {
        let out_row = out_rows.next().expect("one output row per input row");
        row_tile(list.iter().map(|&(k, c)| (k as usize, c)), b, n, out_row);
    }
    debug_assert!(out_rows.next().is_none(), "more output rows than input rows");
}

/// Accumulates `out += aᵀ · g` where each item of `rows` is row `i` of `a`
/// given by its nonzeros, as in [`sparse_gemm_acc`]; `g` is `m × n`, `out`
/// is `k × n`. Row `i`'s entries scatter `c · g[i]` onto the output rows
/// they name, so `out[k][j]` is `fma` over the rows `i` holding column `k`
/// in ascending `i` — the chain [`gemm_acc`] runs on the densified `aᵀ`,
/// zero coefficients skipped.
pub fn sparse_outer_acc<'a>(
    rows: impl IntoIterator<Item = &'a [(u32, f32)]>,
    g: &[f32],
    n: usize,
    out: &mut [f32],
) {
    if n == 0 {
        return;
    }
    for (list, g_row) in rows.into_iter().zip(g.chunks_exact(n)) {
        for &(k, c) in list {
            let k = k as usize;
            for (o, &gv) in out[k * n..(k + 1) * n].iter_mut().zip(g_row) {
                *o = c.mul_add(gv, *o);
            }
        }
    }
}

/// All row blocks of one `L`-column edge strip (see [`tile_narrow`]).
#[inline(always)]
fn edge_strip<const L: usize>(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, j: usize, out: &mut [f32]) {
    let mut i = 0;
    while m - i >= MR {
        tile_narrow::<MR, L>(a, i, k, b, n, j, out);
        i += MR;
    }
    match m - i {
        3 => tile_narrow::<3, L>(a, i, k, b, n, j, out),
        2 => tile_narrow::<2, L>(a, i, k, b, n, j, out),
        1 => tile_narrow::<1, L>(a, i, k, b, n, j, out),
        _ => {}
    }
}

/// All row blocks of one `G`-lane-group column strip.
#[inline(always)]
fn col_strip<const G: usize>(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, j: usize, out: &mut [f32]) {
    let mut i = 0;
    while m - i >= MR {
        tile::<MR, G>(a, i, k, b, n, j, out);
        i += MR;
    }
    match m - i {
        3 => tile::<3, G>(a, i, k, b, n, j, out),
        2 => tile::<2, G>(a, i, k, b, n, j, out),
        1 => tile::<1, G>(a, i, k, b, n, j, out),
        _ => {}
    }
}

/// One `R × (G·LANES)` output tile: accumulators held in registers across
/// the full k loop, stored into `out` once. Each k step is `G` contiguous
/// vector loads of `b`, `R` broadcast loads of `a`, and `R·G` FMAs.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // kk indexes R parallel row slices
fn tile<const R: usize, const G: usize>(
    a: &[f32],
    i: usize,
    k: usize,
    b: &[f32],
    n: usize,
    j: usize,
    out: &mut [f32],
) {
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
    let mut acc = [[[0.0f32; LANES]; G]; R];
    for kk in 0..k {
        // No zero-check here: sparse inputs go through
        // [`sparse_gemm_acc`] instead, and on dense tiles a per-k branch
        // costs more FMA slots than the few skippable columns return.
        let c: [f32; R] = std::array::from_fn(|r| arows[r][kk]);
        let base = kk * n + j;
        // Fixed-size views: bounds-checked once, then the lane loops
        // lower to vector FMAs.
        let bg: [&[f32; LANES]; G] = std::array::from_fn(|g| {
            (&b[base + g * LANES..base + (g + 1) * LANES]).try_into().unwrap()
        });
        for r in 0..R {
            for g in 0..G {
                for l in 0..LANES {
                    // `mul_add` is what actually emits FMA: LLVM honors IEEE
                    // rounding, so a written-out `acc + c*b` stays a mul+add
                    // pair and caps at half the FMA port throughput.
                    acc[r][g][l] = c[r].mul_add(bg[g][l], acc[r][g][l]);
                }
            }
        }
    }
    for (r, groups) in acc.iter().enumerate() {
        let o = &mut out[(i + r) * n + j..(i + r) * n + j + G * LANES];
        for (g, lanes) in groups.iter().enumerate() {
            for l in 0..LANES {
                o[g * LANES + l] += lanes[l];
            }
        }
    }
}

/// `R × L` register tile for the `n % LANES` edge columns, with `L` the
/// half-width (4) or scalar (1) lane count. Same structure as [`tile`] at
/// a narrower vector width, so a 48→12 layer's last 4 columns run SSE-wide
/// FMA instead of a column-strided scalar loop. (Staging the remainder
/// into a zero-padded 8-lane buffer per k was tried first and lost ~7× to
/// store-forwarding stalls — partial-width stores read back full-width
/// every iteration.)
#[inline(always)]
#[allow(clippy::needless_range_loop)] // kk indexes R parallel row slices
fn tile_narrow<const R: usize, const L: usize>(
    a: &[f32],
    i: usize,
    k: usize,
    b: &[f32],
    n: usize,
    j: usize,
    out: &mut [f32],
) {
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
    let mut acc = [[0.0f32; L]; R];
    for kk in 0..k {
        let c: [f32; R] = std::array::from_fn(|r| arows[r][kk]);
        let bl: &[f32; L] = (&b[kk * n + j..kk * n + j + L]).try_into().unwrap();
        for r in 0..R {
            for l in 0..L {
                acc[r][l] = c[r].mul_add(bl[l], acc[r][l]);
            }
        }
    }
    for (r, lanes) in acc.iter().enumerate() {
        let o = &mut out[(i + r) * n + j..(i + r) * n + j + L];
        for l in 0..L {
            o[l] += lanes[l];
        }
    }
}

/// One output row — the single-row GEMV and every sparse row — from its
/// nonzero coefficients `(k, a[k])` in ascending `k`: filtered out of a
/// dense row, or a sparse row's list. Up to twelve lane groups (96 output columns)
/// are held in register accumulators per pass over the coefficients, so
/// each coefficient lands on up to twelve independent FMA chains.
#[inline(always)]
fn row_tile(
    coeffs: impl Iterator<Item = (usize, f32)> + Clone,
    b: &[f32],
    n: usize,
    out_row: &mut [f32],
) {
    let mut j = 0;
    while n - j >= 12 * LANES {
        // 96 columns per pass: 12 accumulator groups cycle through one or
        // two b registers, so this still fits the register file, and the
        // pass over the coefficients is paid half as often.
        row_pass::<12>(coeffs.clone(), b, n, j, out_row);
        j += 12 * LANES;
    }
    while n - j >= 6 * LANES {
        row_pass::<6>(coeffs.clone(), b, n, j, out_row);
        j += 6 * LANES;
    }
    if n - j >= 4 * LANES {
        row_pass::<4>(coeffs.clone(), b, n, j, out_row);
        j += 4 * LANES;
    }
    if n - j >= 2 * LANES {
        row_pass::<2>(coeffs.clone(), b, n, j, out_row);
        j += 2 * LANES;
    }
    if n - j >= LANES {
        row_pass::<1>(coeffs.clone(), b, n, j, out_row);
        j += LANES;
    }
    for jj in j..n {
        // The same FMA chain [`tile_narrow`] runs for these columns on the
        // dense path — a mul-then-add here was the one place a row's bits
        // depended on its batch.
        let mut acc = 0.0f32;
        for (kk, c) in coeffs.clone() {
            acc = c.mul_add(b[kk * n + jj], acc);
        }
        out_row[jj] += acc;
    }
}

/// One pass over a row's coefficients updating `G` lane groups (`G·LANES`
/// output columns) of register accumulators.
#[inline(always)]
fn row_pass<const G: usize>(
    coeffs: impl Iterator<Item = (usize, f32)>,
    b: &[f32],
    n: usize,
    j: usize,
    out_row: &mut [f32],
) {
    let mut acc = [[0.0f32; LANES]; G];
    for (kk, c) in coeffs {
        // One bounds check for the whole strip; the lane views below are
        // then provably in range.
        let strip = &b[kk * n + j..kk * n + j + G * LANES];
        let bg: [&[f32; LANES]; G] =
            std::array::from_fn(|g| (&strip[g * LANES..(g + 1) * LANES]).try_into().unwrap());
        for g in 0..G {
            for l in 0..LANES {
                acc[g][l] = c.mul_add(bg[g][l], acc[g][l]);
            }
        }
    }
    let o = &mut out_row[j..j + G * LANES];
    for (g, lanes) in acc.iter().enumerate() {
        for l in 0..LANES {
            o[g * LANES + l] += lanes[l];
        }
    }
}

/// Cephes-style polynomial `exp` — branchless, so loops over it vectorize.
/// Relative error ≲ 2e-7 over the clamped range; inputs outside
/// `[-87, 88]` saturate (matching `f32::exp`'s useful range).
#[inline(always)]
fn exp_poly(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    // ln(2) split hi/lo so the range reduction stays exact in f32. The
    // hi digits are the exact value of the f32 (low mantissa bits zero);
    // don't let clippy truncate the text and hide that.
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const P: [f32; 6] = [
        1.987_569_1e-4,
        1.398_199_9e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        1.666_666_5e-1,
        5.000_000_6e-1,
    ];
    // Adding 1.5·2^23 pushes `log2e·x` past the mantissa's integer capacity,
    // so the hardware round-to-nearest leaves the rounded integer sitting in
    // the low mantissa bits of `zb` — no float→int cast anywhere. (Rust's
    // saturating `as i32` lowers to a scalar cvttss2si + two cmovs per lane
    // and destroys vectorization; `to_bits` is a free bitcast.)
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    let xc = x.clamp(-87.0, 88.0);
    let zb = LOG2E.mul_add(xc, MAGIC);
    let zf = zb - MAGIC;
    let xr = zf.mul_add(-LN2_LO, zf.mul_add(-LN2_HI, xc));
    let mut p = P[0];
    p = p.mul_add(xr, P[1]);
    p = p.mul_add(xr, P[2]);
    p = p.mul_add(xr, P[3]);
    p = p.mul_add(xr, P[4]);
    p = p.mul_add(xr, P[5]);
    let y = p.mul_add(xr * xr, xr) + 1.0;
    // 2^zf: the low mantissa bits of `zb` hold zf + 0x400000; shifting left
    // by 23 wraps the 0x400000 away (mod 2^32) and lands zf in the exponent
    // field, then adding the bias 127<<23 finishes the assembly.
    let scale = f32::from_bits(zb.to_bits().wrapping_shl(23).wrapping_add(127u32 << 23));
    y * scale
}

/// Branchless sigmoid on top of [`exp_poly`]; |abs err| ≲ 1e-7.
#[inline(always)]
fn sigmoid_fast(x: f32) -> f32 {
    1.0 / (1.0 + exp_poly(-x))
}

/// Branchless tanh via `2σ(2x) − 1`; |abs err| ≲ 2e-7.
#[inline(always)]
fn tanh_fast(x: f32) -> f32 {
    2.0 / (1.0 + exp_poly(-2.0 * x)) - 1.0
}

/// In-place polynomial sigmoid over a slice (every sigmoid the networks
/// compute, in training and inference alike).
pub fn sigmoid_slice(data: &mut [f32]) {
    for v in data.iter_mut() {
        *v = sigmoid_fast(*v);
    }
}

/// Mean squared error between two equal-length rows.
///
/// Accumulates into [`LANES`] independent lanes: a plain
/// `zip().map().sum()` is a *sequential* float add chain — LLVM may not
/// reassociate IEEE sums, so it runs at add latency, ~4 cycles per element.
pub fn mse_row(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return 0.0;
    }
    sq_err_wide(a, b) / a.len() as f32
}

/// `Σ (a[i] − b[i])²` as one sequential add chain: the sub-lane tail of
/// [`sq_err_wide`] and its reference in the tests.
fn sq_err_scalar(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// `Σ (a[i] − b[i])²` over [`LANES`] independent accumulator lanes.
fn sq_err_wide(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            let d = xa[l] - xb[l];
            acc[l] = d.mul_add(d, acc[l]);
        }
    }
    acc.iter().sum::<f32>() + sq_err_scalar(ca.remainder(), cb.remainder())
}

/// In-place polynomial tanh over a slice; see [`sigmoid_slice`].
pub fn tanh_slice(data: &mut [f32]) {
    for v in data.iter_mut() {
        *v = tanh_fast(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference triple loop, no blocking, no skipping.
    fn gemm_naive(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
    }

    fn check(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
        let mut want = vec![0.0f32; m * n];
        gemm_naive(a, m, k, b, n, &mut want);
        let mut got = vec![0.0f32; m * n];
        gemm_acc(a, m, k, b, n, &mut got);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-4, "{m}x{k}x{n}: {g} vs {w}");
        }
    }

    #[test]
    fn k_not_a_multiple_of_the_lane_width() {
        // k = 13 is no multiple of the lane width; n = 11 leaves a lane remainder.
        let (m, k, n) = (3, 13, 11);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 7) % 5) as f32 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 3) % 7) as f32 * 0.25).collect();
        check(&a, m, k, &b, n);
    }

    #[test]
    fn empty_and_one_by_one() {
        check(&[], 0, 0, &[], 0); // 0×0 · 0×0
        check(&[], 0, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2); // 0×3 · 3×2
        check(&[1.5], 1, 1, &[-2.0], 1); // 1×1 · 1×1
        // k = 0: the product is all zeros and must not touch out.
        let mut out = vec![7.0f32; 4];
        gemm_acc(&[], 2, 0, &[], 2, &mut out);
        assert_eq!(out, vec![7.0; 4]);
    }

    #[test]
    fn all_zero_one_hot_rows_are_skipped_correctly() {
        // Rows of zeros (an empty one-hot window) must leave out untouched,
        // as dense rows and as empty lists.
        let (m, k, n) = (2, 12, 9);
        let a = vec![0.0f32; m * k];
        let b: Vec<f32> = (0..k * n).map(|i| i as f32).collect();
        let mut out = vec![1.0f32; m * n];
        gemm_acc(&a, m, k, &b, n, &mut out);
        assert_eq!(out, vec![1.0; m * n], "zero input must accumulate nothing");
        sparse_gemm_acc([&[][..], &[]], &b, n, &mut out);
        assert_eq!(out, vec![1.0; m * n], "empty lists must accumulate nothing");
        // A single nonzero among zeros still lands.
        let mut a = vec![0.0f32; m * k];
        a[5] = 2.0; // row 0, k=5
        check(&a, m, k, &b, n);
    }

    #[test]
    fn dense_narrow_edge_columns() {
        // A batch with n = 12 routes the last 4 columns
        // through the half-width edge tile; n = 11 additionally exercises
        // the single-column tail. m = 9 covers full MR blocks + remainder.
        let (m, k) = (9, 48);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 11) % 17) as f32 * 0.125 - 1.0).collect();
        for n in [12usize, 11, 4, 3] {
            let b: Vec<f32> = (0..k * n).map(|i| ((i * 5) % 13) as f32 * 0.25 - 1.5).collect();
            check(&a, m, k, &b, n);
        }
    }

    #[test]
    fn mse_row_matches_reference_on_both_paths() {
        // Length 19 exercises the lane loop plus a 3-element tail.
        let a: Vec<f32> = (0..19).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..19).map(|i| (i as f32 * 0.61).cos()).collect();
        let want: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert_eq!(sq_err_scalar(&a, &b), want);
        assert!((sq_err_wide(&a, &b) - want).abs() < 1e-5);
        let got = mse_row(&a, &b);
        assert!((got - want / a.len() as f32).abs() < 1e-6, "{got} vs {want}/19");
        assert_eq!(mse_row(&[], &[]), 0.0);
        assert_eq!(mse_row(&[2.0], &[-1.0]), 9.0);
    }

    #[test]
    fn polynomial_transcendentals_track_libm() {
        // Sweep well past saturation in both directions.
        for i in -2000..=2000 {
            let x = i as f32 * 0.02; // [-40, 40]
            let s = sigmoid_fast(x);
            let t = tanh_fast(x);
            assert!(
                (s - crate::dense::sigmoid(x)).abs() < 1e-6,
                "sigmoid({x}): poly {s}"
            );
            assert!((t - x.tanh()).abs() < 1e-6, "tanh({x}): poly {t}");
        }
        // Extremes saturate cleanly instead of producing inf/NaN.
        for x in [-1e30f32, -200.0, 200.0, 1e30] {
            assert!((sigmoid_fast(x) - crate::dense::sigmoid(x)).abs() < 1e-6);
            assert!((tanh_fast(x) - x.tanh()).abs() < 1e-6);
        }
        assert_eq!(sigmoid_fast(0.0), 0.5);
    }

    #[test]
    fn slice_transcendentals_are_the_polynomials() {
        let input: Vec<f32> = (0..37).map(|i| i as f32 * 0.3 - 5.0).collect();
        let (mut s, mut t) = (input.clone(), input.clone());
        sigmoid_slice(&mut s);
        tanh_slice(&mut t);
        for ((s, t), &x) in s.iter().zip(&t).zip(&input) {
            assert_eq!((*s, *t), (sigmoid_fast(x), tanh_fast(x)));
            assert!((s - crate::dense::sigmoid(x)).abs() < 1e-6);
            assert!((t - x.tanh()).abs() < 1e-6);
        }
    }

    /// A seeded stream of values uniform in [-0.5, 0.5).
    fn uniform(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        }
    }

    proptest! {
        /// The row-invariance contract, bit for bit:
        /// row `i` of a batched product is the product of row `i` alone
        /// (the one-row path), whatever the other rows hold. `n` covers
        /// every `n % 8` edge, rows mix one-hot-sparse and dense.
        #[test]
        fn a_rows_bits_do_not_depend_on_its_batch(
            m in 1usize..11,
            k in 1usize..70,
            n in 1usize..60,
            seed in 0u64..1000,
        ) {
            let mut next = uniform(seed);
            // seed % 3: all rows sparse, all dense, or alternating.
            let a: Vec<f32> = (0..m * k)
                .map(|at| {
                    let v = next();
                    let sparse = match seed % 3 { 0 => true, 1 => false, _ => (at / k) % 2 == 0 };
                    if sparse && v.abs() < 0.45 { 0.0 } else { v * 4.0 }
                })
                .collect();
            let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
            let bias: Vec<f32> = (0..n).map(|_| next()).collect();
            let mut batched = bias.repeat(m);
            gemm_acc(&a, m, k, &b, n, &mut batched);
            for i in 0..m {
                let mut alone = bias.clone();
                gemm_acc(&a[i * k..(i + 1) * k], 1, k, &b, n, &mut alone);
                let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&batched[i * n..(i + 1) * n]), bits(&alone), "row {} of {}", i, m);
            }
        }

        /// The kernel against the naive triple loop on random shapes,
        /// sparse (one-hot-like) and dense inputs alike.
        #[test]
        fn wide_matches_scalar_on_random_shapes(
            m in 0usize..6,
            k in 0usize..40,
            n in 0usize..40,
            seed in 0u64..1000,
        ) {
            let sparse = seed % 2 == 0;
            let mut next = uniform(seed);
            let a: Vec<f32> = (0..m * k)
                .map(|_| {
                    let v = next();
                    if sparse && v.abs() < 0.4 { 0.0 } else { v * 4.0 }
                })
                .collect();
            let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
            check(&a, m, k, &b, n);
        }

        /// The sparse products against [`gemm_acc`] on the densified rows,
        /// bit for bit: `a · b` from a bias, and `aᵀ · g` from zero. Each
        /// row is empty, one-hot, all nonzero, or a random sparse mix.
        #[test]
        fn sparse_products_are_gemm_acc_bit_for_bit(
            m in 1usize..=10,
            k in 1usize..=300,
            n in 1usize..60,
            seed in 0u64..1000,
        ) {
            let mut next = uniform(seed);
            let mut a = vec![0.0f32; m * k];
            for (i, row) in a.chunks_exact_mut(k).enumerate() {
                match (seed as usize + i) % 4 {
                    0 => {}
                    1 => row[(seed as usize * 7 + i) % k] = 1.0 + next(),
                    2 => row.iter_mut().for_each(|v| *v = next() + 1.0),
                    _ => row.iter_mut().for_each(|v| {
                        let x = next();
                        *v = if x.abs() < 0.4 { 0.0 } else { x * 4.0 };
                    }),
                }
            }
            let mut lists = crate::SparseRows::default();
            lists.push_dense([&a[..]], k);
            let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

            let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
            let bias: Vec<f32> = (0..n).map(|_| next()).collect();
            let (mut want, mut got) = (bias.repeat(m), bias.repeat(m));
            gemm_acc(&a, m, k, &b, n, &mut want);
            sparse_gemm_acc(lists.iter(), &b, n, &mut got);
            prop_assert_eq!(bits(&got), bits(&want), "a · b");

            let g: Vec<f32> = (0..m * n).map(|_| next()).collect();
            let at: Vec<f32> = (0..k * m).map(|at| a[(at % m) * k + at / m]).collect();
            let (mut want, mut got) = (vec![0.0f32; k * n], vec![0.0f32; k * n]);
            gemm_acc(&at, k, m, &g, n, &mut want);
            sparse_outer_acc(lists.iter(), &g, n, &mut got);
            prop_assert_eq!(bits(&got), bits(&want), "aᵀ · g");
        }
    }
}
