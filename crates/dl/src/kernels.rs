//! The GEMM micro-kernel behind every matrix product in the crate.
//!
//! There is exactly **one** place that multiplies matrices: [`gemm_acc`].
//! [`crate::Matrix::matmul_into`], the batched scoring paths, and the
//! single-window GEMV hot path all funnel into it, so optimizing this file
//! optimizes every detector.
//!
//! [`gemm_acc`] is a register-tiled wide-lane kernel: output tiles of
//! [`MR`]`×`[`NR`] stay in registers across the *entire* k loop, so each k
//! step is two `rhs` vector loads and eight FMAs with zero output-row
//! traffic. Explicit [`LANES`]-wide arrays lower to vector FMAs without
//! `unsafe` intrinsics, on whatever vector width the target has. Sparse
//! (one-hot) batches take a row-granular path that skips zero coefficients.
//! Its oracle is the naive triple loop in the tests below.
//!
//! Alongside the GEMM live the vectorizable transcendentals
//! ([`sigmoid_slice`], [`tanh_slice`]): Cephes-style polynomial `exp`
//! (|abs err| ≲ 1e-7 through sigmoid/tanh), branchless so the lane loop
//! vectorizes. They are the inference path's activations; training keeps
//! libm ([`crate::dense::sigmoid`], `f32::tanh`), which is also their oracle.
//!
//! **Row invariance.** Row `i` of the product is a pure function of row `i`
//! of `a` and of `b`: every output element is one ascending-k chain of FMAs
//! from zero, whichever path computes it, so a window scores to the same
//! bits alone, in any batch, and whatever [`is_mostly_zero`] decides about
//! its neighbours. (Skipping a zero coefficient leaves a chain unchanged
//! because weights are finite.) The live detectors rely on this to batch
//! per indication without moving a digest; it is property-tested bit for
//! bit below.

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
/// A k whose [`MR`] `a` coefficients are all zero is skipped whole;
/// featurized windows are mostly zero *at the same positions* (unused
/// one-hot regions), so the skip fires across the whole tile. Leftover
/// rows run a one-row variant (the streaming GEMV path), leftover columns
/// a narrower tile and then single-column tiles.
///
/// Contract: `out[i][j] += fma(a[i][k-1], b[k-1][j], … fma(a[i][0],
/// b[0][j], 0))` on every path, so the bits of row `i` do not depend on
/// `m`, on the other rows, or on which path the batch's sparsity selects.
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
    // Very sparse inputs (featurized one-hot windows run 85–90% zero) skip
    // better at row granularity: nonzero positions differ per window, so a
    // tile's MR-row column check rarely finds all-zero columns. The O(mk)
    // scan is noise next to the O(mkn) product it steers.
    if is_mostly_zero(a) || m == 1 {
        for i in 0..m {
            row_tile(&a[i * k..(i + 1) * k], b, n, &mut out[i * n..(i + 1) * n]);
        }
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

/// Whether ≥ 3/4 of `a` is exactly zero (one-hot feature batches are;
/// dense weight/activation batches are not). Below that, tile-granular
/// FMA density beats row-granular skipping.
#[inline]
fn is_mostly_zero(a: &[f32]) -> bool {
    let zeros = a.iter().filter(|&&v| v == 0.0).count();
    4 * zeros > 3 * a.len()
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
        // No zero-check here: sparse inputs dispatch to the row-granular
        // path instead, and on dense tiles a per-k branch costs more FMA
        // slots than the <1% of skippable columns returns.
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

/// One output row (the streaming GEMV path, the m remainder, and the
/// sparse row-granular path): up to six lane groups — 48 output columns —
/// held in register accumulators per scan of the row, so a skipped zero
/// costs one branch and a nonzero lands on six independent FMA chains.
#[inline(always)]
fn row_tile(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    let mut j = 0;
    while n - j >= 12 * LANES {
        // 96 columns per scan: 12 accumulator groups cycle through one or
        // two b registers, so this still fits the register file — and for
        // sparse rows the scan itself is the cost worth halving.
        row_pass::<12>(a_row, b, n, j, out_row);
        j += 12 * LANES;
    }
    while n - j >= 6 * LANES {
        row_pass::<6>(a_row, b, n, j, out_row);
        j += 6 * LANES;
    }
    if n - j >= 4 * LANES {
        row_pass::<4>(a_row, b, n, j, out_row);
        j += 4 * LANES;
    }
    if n - j >= 2 * LANES {
        row_pass::<2>(a_row, b, n, j, out_row);
        j += 2 * LANES;
    }
    if n - j >= LANES {
        row_pass::<1>(a_row, b, n, j, out_row);
        j += LANES;
    }
    for jj in j..n {
        // The same FMA chain [`tile_narrow`] runs for these columns on the
        // dense path — a mul-then-add here was the one place a row's bits
        // depended on its batch.
        let mut acc = 0.0f32;
        for (kk, &c) in a_row.iter().enumerate() {
            acc = c.mul_add(b[kk * n + jj], acc);
        }
        out_row[jj] += acc;
    }
}

/// One scan of a single `a` row updating `G` lane groups (`G·LANES`
/// output columns) of register accumulators, with the per-k zero skip the
/// one-hot feature rows rely on.
#[inline(always)]
fn row_pass<const G: usize>(a_row: &[f32], b: &[f32], n: usize, j: usize, out_row: &mut [f32]) {
    let mut acc = [[0.0f32; LANES]; G];
    let fma = |kk: usize, c: f32, acc: &mut [[f32; LANES]; G]| {
        let base = kk * n + j;
        let bg: [&[f32; LANES]; G] = std::array::from_fn(|g| {
            (&b[base + g * LANES..base + (g + 1) * LANES]).try_into().unwrap()
        });
        for g in 0..G {
            for l in 0..LANES {
                acc[g][l] = c.mul_add(bg[g][l], acc[g][l]);
            }
        }
    };
    // The scan itself dominates sparse rows (one branch per k beats any
    // FMA savings), so zeros are skipped a whole [`LANES`] group at a
    // time first: one-hot windows zero out in long runs (entire unused
    // one-hot regions), and OR-ing the raw f32 bits is an associative
    // integer reduction LLVM vectorizes — a float sum would not be.
    // (-0.0 has a sign bit and defeats the group skip, but never occurs
    // in featurized windows and is still handled by the per-k check.)
    let mut groups = a_row.chunks_exact(LANES);
    let mut kk = 0;
    for grp in groups.by_ref() {
        let mut bits = 0u32;
        for &v in grp {
            bits |= v.to_bits();
        }
        if bits != 0 {
            for (l, &c) in grp.iter().enumerate() {
                if c != 0.0 {
                    fma(kk + l, c, &mut acc);
                }
            }
        }
        kk += LANES;
    }
    for (l, &c) in groups.remainder().iter().enumerate() {
        if c != 0.0 {
            fma(kk + l, c, &mut acc);
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

/// In-place polynomial sigmoid over a slice (the inference path; training
/// keeps libm's [`crate::dense::sigmoid`]).
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
        // k = 13 exercises the 4-group remainder; n = 11 the lane remainder.
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
        // including in the 4-group skip path.
        let (m, k, n) = (2, 12, 9);
        let a = vec![0.0f32; m * k];
        let b: Vec<f32> = (0..k * n).map(|i| i as f32).collect();
        let mut out = vec![1.0f32; m * n];
        gemm_acc(&a, m, k, &b, n, &mut out);
        assert_eq!(out, vec![1.0; m * n], "zero input must accumulate nothing");
        // A single nonzero straddling a zero k-group still lands.
        let mut a = vec![0.0f32; m * k];
        a[5] = 2.0; // row 0, k=5 (inside the second 4-group)
        check(&a, m, k, &b, n);
    }

    #[test]
    fn dense_narrow_edge_columns() {
        // A dense (non-sparse) batch with n = 12 routes the last 4 columns
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
        /// row `i` of a batched product is the product of row `i` alone,
        /// whatever the other rows make `is_mostly_zero` decide. `n` covers
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
        /// including sparse (one-hot-like) inputs that exercise the
        /// zero-skip paths.
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
    }
}
