//! Fixed-order linear-algebra kernels for the hot path.
//!
//! One reduction order: eight independent accumulator lanes, combined as
//! defined by the portable [`lanes8`] encoding. On x86_64 hosts with AVX2
//! the dispatchers below run the [`x86`] encoding instead, which is
//! bit-identical to [`lanes8`] on every input — so results depend only on
//! the inputs, never on the hardware a session runs on. The CPU check is
//! `std`'s cached runtime feature detection, one predictable branch per
//! kernel call.
//!
//! Element-wise kernels ([`axpy`], [`scale_axpy`]) involve no
//! accumulation order at all, and [`matmul`] accumulates every output
//! cell with single k-ascending adds, so it is independent of blocking
//! and of how many rows one call covers.

pub mod lanes8;
#[cfg(target_arch = "x86_64")]
pub mod x86;

/// Dot product in the fixed 8-lane order.
///
/// Panics in debug builds if the slices differ in length; in release the
/// shorter length governs.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if x86::has_avx2() {
            // SAFETY: AVX2 support was verified at runtime just above.
            return unsafe { x86::dot_avx2(a, b) };
        }
    }
    lanes8::dot(a, b)
}

/// `y += alpha * x`. Element-wise, so no accumulation order is involved.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        if x86::has_avx2() {
            // SAFETY: AVX2 support was verified at runtime just above.
            return unsafe { x86::axpy_avx2(alpha, x, y) };
        }
    }
    lanes8::axpy(alpha, x, y)
}

/// `y = alpha * y + beta * x` (the SGD weight-decay + gradient step
/// fused into one pass). Element-wise.
#[inline]
pub fn scale_axpy(alpha: f64, y: &mut [f64], beta: f64, x: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        if x86::has_avx2() {
            // SAFETY: AVX2 support was verified at runtime just above.
            return unsafe { x86::scale_axpy_avx2(alpha, y, beta, x) };
        }
    }
    lanes8::scale_axpy(alpha, y, beta, x)
}

/// Squared Euclidean distance in the fixed 8-lane order (callers take the
/// square root once at the end if they need the metric itself).
///
/// # Contract
///
/// `a` and `b` must have equal lengths: the distance between vectors of
/// different dimensionality is undefined. Debug builds panic on a
/// mismatch; release builds let the shorter length govern, silently
/// ignoring the excess — so callers that can receive *user-shaped*
/// lengths must validate first and return a typed error (`comet-core`
/// does this at the featurization boundary before any model sees the
/// matrices). Two empty slices are at distance `0.0`.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(
        a.len(),
        b.len(),
        "sq_dist requires equal dimensionality (got {} vs {})",
        a.len(),
        b.len()
    );
    #[cfg(target_arch = "x86_64")]
    {
        if x86::has_avx2() {
            // SAFETY: AVX2 support was verified at runtime just above.
            return unsafe { x86::sq_dist_avx2(a, b) };
        }
    }
    lanes8::sq_dist(a, b)
}

/// Dense row-major matrix–vector product: `out[i] = dot(a_row_i, x)`.
/// `a` holds `nrows * ncols` elements; rows stream through cache in
/// order, so no extra blocking is needed for the matvec shape.
#[inline]
pub fn matvec(a: &[f64], nrows: usize, ncols: usize, x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), nrows * ncols);
    debug_assert_eq!(x.len(), ncols);
    debug_assert_eq!(out.len(), nrows);
    if ncols == 0 {
        out.fill(0.0);
        return;
    }
    for (o, row) in out.iter_mut().zip(a.chunks_exact(ncols)) {
        *o = dot(row, x);
    }
}

/// [`matvec`] with a per-row bias added after the dot: `out[i] =
/// dot(a_row_i, x) + bias[i]` — the linear-layer forward shape shared by
/// the GLM and MLP.
#[inline]
pub fn matvec_bias(
    a: &[f64],
    nrows: usize,
    ncols: usize,
    x: &[f64],
    bias: &[f64],
    out: &mut [f64],
) {
    debug_assert_eq!(bias.len(), nrows);
    matvec(a, nrows, ncols, x, out);
    for (o, b) in out.iter_mut().zip(bias) {
        *o += b;
    }
}

/// Block edge for [`matmul`]: 64 f64 columns = one 512-byte panel per
/// row, keeping a `B × B` tile of `b` plus a row of `out` inside L1/L2.
const MM_BLOCK: usize = 64;

/// Dense row-major matrix product `out = a(m×k) * b(k×n)`, cache-blocked.
///
/// The accumulation order per output cell is the plain k-ascending order
/// of the textbook i-k-j loop: each `out[i][j]` receives its
/// `a[i][k]*b[k][j]` terms with k strictly ascending — one add per term,
/// no horizontal combines — so the result is bit-identical to the
/// unblocked loop and independent of the blocking. The AVX2 encoding
/// uses register-blocked broadcast micro-kernels (4×8 f64 tiles of
/// dedicated accumulators in [`x86::matmul_avx2`]) that add
/// instruction-level parallelism across cells, never within one; the
/// portable fallback tiles the j/k dimensions around a [`lanes8::axpy`]
/// panel loop. The ISA is resolved once per call, so the inner loops
/// carry no dispatch overhead.
pub fn matmul(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    {
        if x86::has_avx2() {
            // SAFETY: AVX2 support was verified at runtime just above.
            return unsafe { x86::matmul_avx2(a, m, k, b, n, out) };
        }
    }
    matmul_portable(a, m, k, b, n, out);
}

/// The blocked i-k-j loop behind [`matmul`]'s portable fallback.
#[inline]
fn matmul_portable(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    out.fill(0.0);
    for j0 in (0..n).step_by(MM_BLOCK) {
        let j1 = (j0 + MM_BLOCK).min(n);
        for k0 in (0..k).step_by(MM_BLOCK) {
            let k1 = (k0 + MM_BLOCK).min(k);
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let out_row = &mut out[i * n + j0..i * n + j1];
                for kk in k0..k1 {
                    lanes8::axpy(a_row[kk], &b[kk * n + j0..kk * n + j1], out_row);
                }
            }
        }
    }
}

/// NaN-safe maximum over a slice in fixed left-to-right order.
///
/// NaN entries are sanitized to `-∞` ("no information") so they can
/// never poison or win the reduction — unlike `f64::max`, which silently
/// drops NaN from whichever side it lands on, and unlike raw
/// `total_cmp`, which would rank `+NaN` above `+∞`. This is the
/// D2-sanctioned way to take a max over score-like values.
///
/// # Contract
///
/// An empty slice carries no information: the result is `-∞` by
/// definition, the same as for an all-NaN slice. Callers for whom "no
/// candidates" is a *user-reachable* state (rather than a programmer
/// error upstream) must treat a `-∞` result as "nothing to rank" — or
/// validate emptiness first and return a typed error, as `comet-core`
/// does where candidate sets come from user-shaped inputs.
#[inline]
pub fn max_sanitized(xs: &[f64]) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for &x in xs {
        let x = if x.is_nan() { f64::NEG_INFINITY } else { x };
        if x > best {
            best = x;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn seq(n: usize, scale: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.37 - 1.5) * scale).collect()
    }

    #[test]
    fn max_sanitized_ignores_nan_and_handles_empty() {
        assert_eq!(max_sanitized(&[1.0, 3.0, 2.0]), 3.0);
        assert_eq!(max_sanitized(&[1.0, f64::NAN, 2.0]), 2.0);
        assert_eq!(max_sanitized(&[f64::NAN; 3]), f64::NEG_INFINITY);
        assert_eq!(max_sanitized(&[]), f64::NEG_INFINITY);
        // NaN must not outrank +∞ the way raw `total_cmp` would let it.
        assert_eq!(max_sanitized(&[f64::INFINITY, f64::NAN]), f64::INFINITY);
    }

    #[test]
    fn dot_matches_naive_within_tolerance_and_is_deterministic() {
        for n in [0, 1, 3, 4, 5, 8, 17, 100] {
            let a = seq(n, 1.0);
            let b = seq(n, -0.5);
            let d = dot(&a, &b);
            assert!((d - naive_dot(&a, &b)).abs() < 1e-9 * (n.max(1) as f64));
            // Bitwise repeatable.
            assert_eq!(d.to_bits(), dot(&a, &b).to_bits());
        }
    }

    #[test]
    fn axpy_and_scale_axpy() {
        for n in [0, 1, 4, 7, 9, 16, 21] {
            let x = seq(n, 2.0);
            let mut y = seq(n, 1.0);
            let expect: Vec<f64> = y.iter().zip(&x).map(|(yi, xi)| yi + 0.5 * xi).collect();
            axpy(0.5, &x, &mut y);
            assert_eq!(y, expect);

            let mut z = seq(n, 1.0);
            let expect: Vec<f64> = z.iter().zip(&x).map(|(zi, xi)| 0.9 * zi - 0.1 * xi).collect();
            scale_axpy(0.9, &mut z, -0.1, &x);
            assert_eq!(z, expect);
        }
    }

    #[test]
    fn sq_dist_matches_naive() {
        for n in [0, 1, 4, 6, 13, 24] {
            let a = seq(n, 1.0);
            let b = seq(n, 0.25);
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            assert!((sq_dist(&a, &b) - naive).abs() < 1e-9);
        }
    }

    #[test]
    fn matvec_and_bias() {
        // 2x3 matrix times x.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let x = [1.0, 0.0, -1.0];
        let mut out = [0.0; 2];
        matvec(&a, 2, 3, &x, &mut out);
        assert_eq!(out, [-2.0, -2.0]);
        matvec_bias(&a, 2, 3, &x, &[10.0, 20.0], &mut out);
        assert_eq!(out, [8.0, 18.0]);
    }

    #[test]
    fn matvec_zero_cols() {
        let mut out = [1.0; 3];
        matvec(&[], 3, 0, &[], &mut out);
        assert_eq!(out, [0.0; 3]);
        matvec_bias(&[], 3, 0, &[], &[0.5; 3], &mut out);
        assert_eq!(out, [0.5; 3]);
    }

    #[test]
    fn matmul_matches_naive_bitwise() {
        // Sizes straddling the block edge so every tiling branch runs.
        for (m, k, n) in [(1, 1, 1), (3, 4, 5), (7, 65, 9), (65, 3, 70), (70, 70, 70)] {
            let a = seq(m * k, 0.01);
            let b = seq(k * n, -0.02);
            // Unblocked i-k-j reference with the same k-ascending order.
            let mut naive = vec![0.0; m * n];
            for i in 0..m {
                for kk in 0..k {
                    let aik = a[i * k + kk];
                    for j in 0..n {
                        naive[i * n + j] += aik * b[kk * n + j];
                    }
                }
            }
            let mut blocked = vec![0.0; m * n];
            matmul(&a, m, k, &b, n, &mut blocked);
            let mut portable = vec![1.0; m * n];
            matmul_portable(&a, m, k, &b, n, &mut portable);
            for ((x, p), y) in blocked.iter().zip(&portable).zip(&naive) {
                assert_eq!(x.to_bits(), y.to_bits(), "m={m} k={k} n={n}");
                assert_eq!(p.to_bits(), y.to_bits(), "portable m={m} k={k} n={n}");
            }
        }
    }
}
