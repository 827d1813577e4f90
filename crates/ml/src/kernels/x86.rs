//! x86_64 AVX2 encoding of the 8-lane reduction order.
//!
//! Every function here is required to be **bit-identical** to its
//! portable reference in [`super::lanes8`] on every input — the lane
//! assignment and horizontal-combine order are the same, only the
//! instruction encoding differs. Lanes `l0..l3` live in the low 256-bit
//! accumulator and `l4..l7` in the high one; the vertical `lo + hi` add
//! produces `[s0, s1, s2, s3]`, combined in scalar code as
//! `(s0 + s1) + (s2 + s3)`.
//!
//! No fused multiply–add: FMA rounds once where the reference's
//! mul-then-add rounds twice, so `_mm256_fmadd_pd` and friends are
//! banned in this module even when the CPU supports them. IEEE-754
//! addition and multiplication are themselves deterministic, so matching
//! the operation order is sufficient for bit-identity.
//!
//! Dispatch lives in [`super`]: callers check [`has_avx2`] and fall back
//! to `lanes8` (the proptests in `tests/kernels.rs` check both encodings
//! against each other).

use core::arch::x86_64::{
    _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd,
    _mm256_storeu_pd, _mm256_sub_pd,
};

/// Runtime AVX2 support (cached by `std` after the first query).
#[inline]
pub fn has_avx2() -> bool {
    std::is_x86_feature_detected!("avx2")
}

/// Horizontal combine of `[s0, s1, s2, s3]` matching
/// [`super::lanes8::combine8`]'s final step.
#[inline(always)]
fn combine4(s: [f64; 4]) -> f64 {
    (s[0] + s[1]) + (s[2] + s[3])
}

/// [`super::lanes8::dot`] via AVX2, bit-identical.
///
/// # Safety
/// The CPU must support AVX2 ([`has_avx2`]).
// SAFETY: body reads a[i..i+8]/b[i..i+8] only for i + 8 <= n (n = min length).
#[target_feature(enable = "avx2")]
pub unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc_lo = _mm256_setzero_pd(); // lanes l0..l3
    let mut acc_hi = _mm256_setzero_pd(); // lanes l4..l7
    let chunks = n / 8;
    for c in 0..chunks {
        let i = c * 8;
        acc_lo = _mm256_add_pd(
            acc_lo,
            _mm256_mul_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i))),
        );
        acc_hi = _mm256_add_pd(
            acc_hi,
            _mm256_mul_pd(_mm256_loadu_pd(ap.add(i + 4)), _mm256_loadu_pd(bp.add(i + 4))),
        );
    }
    let mut s = [0.0f64; 4];
    _mm256_storeu_pd(s.as_mut_ptr(), _mm256_add_pd(acc_lo, acc_hi));
    let mut tail = 0.0;
    for i in chunks * 8..n {
        tail += a[i] * b[i];
    }
    combine4(s) + tail
}

/// [`super::lanes8::sq_dist`] via AVX2, bit-identical.
///
/// # Safety
/// The CPU must support AVX2 ([`has_avx2`]).
// SAFETY: body reads a[i..i+8]/b[i..i+8] only for i + 8 <= n (n = min length).
#[target_feature(enable = "avx2")]
pub unsafe fn sq_dist_avx2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc_lo = _mm256_setzero_pd();
    let mut acc_hi = _mm256_setzero_pd();
    let chunks = n / 8;
    for c in 0..chunks {
        let i = c * 8;
        let d_lo = _mm256_sub_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)));
        let d_hi = _mm256_sub_pd(_mm256_loadu_pd(ap.add(i + 4)), _mm256_loadu_pd(bp.add(i + 4)));
        acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(d_lo, d_lo));
        acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(d_hi, d_hi));
    }
    let mut s = [0.0f64; 4];
    _mm256_storeu_pd(s.as_mut_ptr(), _mm256_add_pd(acc_lo, acc_hi));
    let mut tail = 0.0;
    for i in chunks * 8..n {
        let d = a[i] - b[i];
        tail += d * d;
    }
    combine4(s) + tail
}

/// `y += alpha * x` via AVX2 (element-wise).
///
/// # Safety
/// The CPU must support AVX2 ([`has_avx2`]).
// SAFETY: body reads/writes x[i..i+8]/y[i..i+8] only for i + 8 <= n (n = min length).
#[target_feature(enable = "avx2")]
pub unsafe fn axpy_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let va = _mm256_set1_pd(alpha);
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    let chunks = n / 8;
    for c in 0..chunks {
        let i = c * 8;
        let y_lo = _mm256_add_pd(
            _mm256_loadu_pd(yp.add(i)),
            _mm256_mul_pd(va, _mm256_loadu_pd(xp.add(i))),
        );
        let y_hi = _mm256_add_pd(
            _mm256_loadu_pd(yp.add(i + 4)),
            _mm256_mul_pd(va, _mm256_loadu_pd(xp.add(i + 4))),
        );
        _mm256_storeu_pd(yp.add(i), y_lo);
        _mm256_storeu_pd(yp.add(i + 4), y_hi);
    }
    for i in chunks * 8..n {
        y[i] += alpha * x[i];
    }
}

/// `y = alpha * y + beta * x` via AVX2 (element-wise).
///
/// # Safety
/// The CPU must support AVX2 ([`has_avx2`]).
// SAFETY: body reads/writes x[i..i+8]/y[i..i+8] only for i + 8 <= n (n = min length).
#[target_feature(enable = "avx2")]
pub unsafe fn scale_axpy_avx2(alpha: f64, y: &mut [f64], beta: f64, x: &[f64]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let va = _mm256_set1_pd(alpha);
    let vb = _mm256_set1_pd(beta);
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    let chunks = n / 8;
    for c in 0..chunks {
        let i = c * 8;
        for off in [0usize, 4] {
            let ay = _mm256_mul_pd(va, _mm256_loadu_pd(yp.add(i + off)));
            let bx = _mm256_mul_pd(vb, _mm256_loadu_pd(xp.add(i + off)));
            _mm256_storeu_pd(yp.add(i + off), _mm256_add_pd(ay, bx));
        }
    }
    for i in chunks * 8..n {
        y[i] = alpha * y[i] + beta * x[i];
    }
}

/// Register-blocked `out = a(m×k) · b(k×n)` via AVX2.
///
/// Each output cell accumulates its `a[i][kk] * b[kk][j]` terms with
/// `kk` strictly ascending in one dedicated accumulator lane — a single
/// add per term, no horizontal combines, no FMA — so the result is
/// bit-identical to the naive i-k-j loop and to the portable
/// [`super::matmul`] fallback. The 4×8 register tile (eight ymm
/// accumulators) only adds instruction-level parallelism *across* cells,
/// never within one; remainder rows/columns fall back to the same-order
/// scalar cell loop.
///
/// # Safety
/// The CPU must support AVX2 ([`has_avx2`]).
// SAFETY: pointer access bounded by the debug-asserted m*k/k*n/m*n shapes;
// the vector body touches only full 4×8 tiles (i + 4 <= m, j + 8 <= n).
#[target_feature(enable = "avx2")]
pub unsafe fn matmul_avx2(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let op = out.as_mut_ptr();
    let full_m = m / 4 * 4;
    let full_n = n / 8 * 8;
    // Column strips outer: the k×8 panel of `b` a strip reads (a few KB)
    // stays L1-resident across every row tile of that strip.
    let mut j = 0;
    while j < full_n {
        let mut i = 0;
        while i < full_m {
            let mut c00 = _mm256_setzero_pd();
            let mut c01 = _mm256_setzero_pd();
            let mut c10 = _mm256_setzero_pd();
            let mut c11 = _mm256_setzero_pd();
            let mut c20 = _mm256_setzero_pd();
            let mut c21 = _mm256_setzero_pd();
            let mut c30 = _mm256_setzero_pd();
            let mut c31 = _mm256_setzero_pd();
            for kk in 0..k {
                let b0 = _mm256_loadu_pd(bp.add(kk * n + j));
                let b1 = _mm256_loadu_pd(bp.add(kk * n + j + 4));
                let a0 = _mm256_set1_pd(*ap.add(i * k + kk));
                c00 = _mm256_add_pd(c00, _mm256_mul_pd(a0, b0));
                c01 = _mm256_add_pd(c01, _mm256_mul_pd(a0, b1));
                let a1 = _mm256_set1_pd(*ap.add((i + 1) * k + kk));
                c10 = _mm256_add_pd(c10, _mm256_mul_pd(a1, b0));
                c11 = _mm256_add_pd(c11, _mm256_mul_pd(a1, b1));
                let a2 = _mm256_set1_pd(*ap.add((i + 2) * k + kk));
                c20 = _mm256_add_pd(c20, _mm256_mul_pd(a2, b0));
                c21 = _mm256_add_pd(c21, _mm256_mul_pd(a2, b1));
                let a3 = _mm256_set1_pd(*ap.add((i + 3) * k + kk));
                c30 = _mm256_add_pd(c30, _mm256_mul_pd(a3, b0));
                c31 = _mm256_add_pd(c31, _mm256_mul_pd(a3, b1));
            }
            _mm256_storeu_pd(op.add(i * n + j), c00);
            _mm256_storeu_pd(op.add(i * n + j + 4), c01);
            _mm256_storeu_pd(op.add((i + 1) * n + j), c10);
            _mm256_storeu_pd(op.add((i + 1) * n + j + 4), c11);
            _mm256_storeu_pd(op.add((i + 2) * n + j), c20);
            _mm256_storeu_pd(op.add((i + 2) * n + j + 4), c21);
            _mm256_storeu_pd(op.add((i + 3) * n + j), c30);
            _mm256_storeu_pd(op.add((i + 3) * n + j + 4), c31);
            i += 4;
        }
        j += 8;
    }
    matmul_cells(a, k, b, n, out, 0..full_m, full_n..n);
    matmul_cells(a, k, b, n, out, full_m..m, 0..n);
}

/// Remainder cells for the register-blocked matmul: the same
/// per-cell single-accumulator k-ascending chain the vector tiles use,
/// just one cell at a time.
#[inline(always)]
fn matmul_cells(
    a: &[f64],
    k: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) {
    for i in rows {
        let a_row = &a[i * k..(i + 1) * k];
        for j in cols.clone() {
            let mut acc = 0.0;
            for (kk, &aik) in a_row.iter().enumerate() {
                acc += aik * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}
