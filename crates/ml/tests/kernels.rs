//! Cross-encoding bit-identity proptests for the kernels.
//!
//! The kernels' determinism story rests on one claim: the portable
//! [`lanes8`] reference and the AVX2 [`x86`] encoding produce the same
//! bits on every input, at every length straddling the 8-lane boundary.
//! These tests drive both encodings against each other with random
//! lengths and values, plus the dispatcher, and `matmul`'s m-invariance
//! (the property `KnnClassifier` relies on to make `predict_row` match
//! batched `predict` bit for bit).

use comet_ml::kernels::{self, lanes8};
use proptest::prop_assert_eq;

#[cfg(target_arch = "x86_64")]
use comet_ml::kernels::x86;

/// Deterministic pseudo-random f64 vector (values in roughly ±8).
fn vec_f64(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 16.0
        })
        .collect()
}

/// Every length from empty through two full 8-lane blocks plus ragged
/// tails — each residue mod 8 appears at least twice.
const LENS: [usize; 20] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 23, 40];

#[test]
fn reducing_kernels_bit_identical_across_encodings() {
    for (li, &n) in LENS.iter().enumerate() {
        let a = vec_f64(n, li as u64 + 1);
        let b = vec_f64(n, li as u64 + 101);
        let dot_ref = lanes8::dot(&a, &b);
        let sq_ref = lanes8::sq_dist(&a, &b);
        #[cfg(target_arch = "x86_64")]
        {
            if x86::has_avx2() {
                // SAFETY: AVX2 support was verified at runtime just above.
                unsafe {
                    assert_eq!(x86::dot_avx2(&a, &b).to_bits(), dot_ref.to_bits(), "n={n}");
                    assert_eq!(x86::sq_dist_avx2(&a, &b).to_bits(), sq_ref.to_bits(), "n={n}");
                }
            }
        }
        assert_eq!(kernels::dot(&a, &b).to_bits(), dot_ref.to_bits(), "n={n}");
        assert_eq!(kernels::sq_dist(&a, &b).to_bits(), sq_ref.to_bits(), "n={n}");
    }
}

#[test]
fn elementwise_kernels_bit_identical_across_encodings() {
    for (li, &n) in LENS.iter().enumerate() {
        let x = vec_f64(n, li as u64 + 7);
        let y0 = vec_f64(n, li as u64 + 207);
        let mut y_ref = y0.clone();
        lanes8::axpy(0.37, &x, &mut y_ref);
        lanes8::scale_axpy(0.9, &mut y_ref, -0.21, &x);
        #[cfg(target_arch = "x86_64")]
        {
            if x86::has_avx2() {
                let mut y = y0.clone();
                // SAFETY: AVX2 support was verified at runtime just above.
                unsafe {
                    x86::axpy_avx2(0.37, &x, &mut y);
                    x86::scale_axpy_avx2(0.9, &mut y, -0.21, &x);
                }
                assert!(y.iter().zip(&y_ref).all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }
}

// The vendored `proptest!` grammar takes `ident in strategy` only, so
// tuple strategies bind one ident and destructure inside the body.
proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(48))]
    #[test]
    fn dispatcher_matches_portable_reference(
        args in (0usize..40, 0u64..1_000_000),
    ) {
        let (n, seed) = args;
        let a = vec_f64(n, seed);
        let b = vec_f64(n, seed ^ 0xABCD);
        // Both encodings are bit-identical (tests above), so the portable
        // reference is the expected value regardless of which ISA the
        // dispatcher picked.
        prop_assert_eq!(kernels::dot(&a, &b).to_bits(), lanes8::dot(&a, &b).to_bits());
        prop_assert_eq!(
            kernels::sq_dist(&a, &b).to_bits(),
            lanes8::sq_dist(&a, &b).to_bits()
        );
        let mut y = b.clone();
        let mut y_ref = b.clone();
        kernels::axpy(0.43, &a, &mut y);
        kernels::scale_axpy(0.87, &mut y, -0.12, &a);
        lanes8::axpy(0.43, &a, &mut y_ref);
        lanes8::scale_axpy(0.87, &mut y_ref, -0.12, &a);
        for (p, q) in y.iter().zip(&y_ref) {
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(48))]
    #[test]
    fn matvec_matches_per_row_dot(
        args in (1usize..9, 0usize..17, 0u64..1_000_000),
    ) {
        let (rows, cols, seed) = args;
        let a = vec_f64(rows * cols, seed);
        let x = vec_f64(cols, seed ^ 0x77);
        let bias = vec_f64(rows, seed ^ 0x99);
        let mut out = vec![0.0; rows];
        kernels::matvec(&a, rows, cols, &x, &mut out);
        for (i, o) in out.iter().enumerate() {
            let row = &a[i * cols..(i + 1) * cols];
            prop_assert_eq!(o.to_bits(), kernels::dot(row, &x).to_bits());
        }
        kernels::matvec_bias(&a, rows, cols, &x, &bias, &mut out);
        for (i, o) in out.iter().enumerate() {
            let row = &a[i * cols..(i + 1) * cols];
            prop_assert_eq!(o.to_bits(), (kernels::dot(row, &x) + bias[i]).to_bits());
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(48))]
    #[test]
    fn matmul_is_m_invariant(
        args in (1usize..10, 0usize..12, 1usize..20, 0u64..1_000_000),
    ) {
        let (m, k, n, seed) = args;
        let a = vec_f64(m * k, seed);
        let b = vec_f64(k * n, seed ^ 0x55);
        // Naive i-k-j reference: one add per term, k strictly ascending.
        let mut naive = vec![0.0; m * n];
        for i in 0..m {
            for kk in 0..k {
                let aik = a[i * k + kk];
                for j in 0..n {
                    naive[i * n + j] += aik * b[kk * n + j];
                }
            }
        }
        let mut out = vec![0.0; m * n];
        kernels::matmul(&a, m, k, &b, n, &mut out);
        for (x, y) in out.iter().zip(&naive) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        // m-invariance: row-at-a-time calls see the same bits, so a
        // one-row caller (`predict_row`) matches any batched caller.
        for i in 0..m {
            let mut row_out = vec![0.0; n];
            kernels::matmul(&a[i * k..(i + 1) * k], 1, k, &b, n, &mut row_out);
            for (x, y) in row_out.iter().zip(&naive[i * n..(i + 1) * n]) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
