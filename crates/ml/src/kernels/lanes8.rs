//! The reduction order: portable 8-lane fixed-order kernels.
//!
//! Every kernel's semantics are defined *here*, in plain Rust. Eight
//! independent accumulator lanes run over an 8-wide unrolled body; lane
//! `j` accumulates elements `8·c + j`. The horizontal combine is fixed as
//!
//! ```text
//! s0 = l0 + l4    s1 = l1 + l5    s2 = l2 + l6    s3 = l3 + l7
//! result = ((s0 + s1) + (s2 + s3)) + tail
//! ```
//!
//! where `tail` is the sequential left-to-right remainder sum. The pair
//! step `l_j + l_{j+4}` is exactly the vertical `acc_lo + acc_hi` add the
//! AVX2 encoding in [`super::x86`] performs, so the intrinsics are
//! required (and property-tested) to be bit-identical to this module on
//! every input. Fused multiply–add is deliberately *not* used anywhere:
//! FMA rounds once where mul-then-add rounds twice, and would diverge
//! from this reference.
//!
//! This module is a lane-ordered primitive: raw float reductions are
//! allowed here (and in `x86`) because the lane order is the contract.
//! Everything else routes through the dispatchers in [`super`].

/// Dot product with eight fixed-order accumulator lanes.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    let mut l = [0.0f64; 8];
    for (pa, pb) in ca.by_ref().zip(cb.by_ref()) {
        l[0] += pa[0] * pb[0];
        l[1] += pa[1] * pb[1];
        l[2] += pa[2] * pb[2];
        l[3] += pa[3] * pb[3];
        l[4] += pa[4] * pb[4];
        l[5] += pa[5] * pb[5];
        l[6] += pa[6] * pb[6];
        l[7] += pa[7] * pb[7];
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    combine8(&l) + tail
}

/// Squared Euclidean distance with eight fixed-order lanes.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    let mut l = [0.0f64; 8];
    for (pa, pb) in ca.by_ref().zip(cb.by_ref()) {
        for j in 0..8 {
            let d = pa[j] - pb[j];
            l[j] += d * d;
        }
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    combine8(&l) + tail
}

/// `y += alpha * x`, unrolled 8-wide. Element-wise (order-free).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let mut cy = y.chunks_exact_mut(8);
    let mut cx = x.chunks_exact(8);
    for (py, px) in cy.by_ref().zip(cx.by_ref()) {
        for j in 0..8 {
            py[j] += alpha * px[j];
        }
    }
    for (yi, xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yi += alpha * xi;
    }
}

/// `y = alpha * y + beta * x`, unrolled 8-wide. Element-wise (order-free).
#[inline]
pub fn scale_axpy(alpha: f64, y: &mut [f64], beta: f64, x: &[f64]) {
    debug_assert_eq!(x.len(), y.len());
    let mut cy = y.chunks_exact_mut(8);
    let mut cx = x.chunks_exact(8);
    for (py, px) in cy.by_ref().zip(cx.by_ref()) {
        for j in 0..8 {
            py[j] = alpha * py[j] + beta * px[j];
        }
    }
    for (yi, xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yi = alpha * *yi + beta * xi;
    }
}

/// The fixed 8-lane horizontal combine shared by every encoding:
/// pairwise `l_j + l_{j+4}` (the vector `lo + hi` add), then
/// `((s0 + s1) + (s2 + s3))`.
#[inline]
pub fn combine8(l: &[f64; 8]) -> f64 {
    let s0 = l[0] + l[4];
    let s1 = l[1] + l[5];
    let s2 = l[2] + l[6];
    let s3 = l[3] + l[7];
    (s0 + s1) + (s2 + s3)
}
