//! Block input rotation (§4.3.1, Figure 8).
//!
//! Multiplying block-input activations by a random-ish unitary matrix `Q`
//! makes every channel a linear combination of all channels, suppressing
//! outliers; the inverse rotation `Qᵀ` is folded into the weights so the
//! layer output is mathematically unchanged (`x Q (W Q)ᵀ = x Q Qᵀ Wᵀ = x Wᵀ`).
//! QServe "simply choose\[s\] the scaled Hadamard matrix as the rotation
//! matrix".

use qserve_tensor::Matrix;

/// Builds the scaled Hadamard matrix `H_n / √n` for `n` a power of two.
///
/// `H_n` is defined by the Sylvester construction: `H_1 = [1]`,
/// `H_2n = [[H_n, H_n], [H_n, -H_n]]`. Scaling by `1/√n` makes it orthonormal
/// (`H Hᵀ = I`), i.e. a rotation.
///
/// # Panics
/// Panics if `n` is zero or not a power of two.
///
/// # Example
/// ```
/// let h = qserve_core::rotation::hadamard(4);
/// let prod = h.matmul_nt(&h); // H Hᵀ = I
/// for i in 0..4 {
///     for j in 0..4 {
///         let expect = if i == j { 1.0 } else { 0.0 };
///         assert!((prod[(i, j)] - expect).abs() < 1e-6);
///     }
/// }
/// ```
pub fn hadamard(n: usize) -> Matrix {
    assert!(n > 0 && n.is_power_of_two(), "Hadamard size must be a power of two");
    let scale = 1.0 / (n as f32).sqrt();
    // Sylvester entry: H[i][j] = (-1)^{popcount(i & j)}.
    Matrix::from_fn(n, n, |i, j| {
        if (i & j).count_ones() % 2 == 0 {
            scale
        } else {
            -scale
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserve_tensor::rng::TensorRng;
    use qserve_tensor::stats::sqnr_db;
    use qserve_quant::{matrixq::rtn_fake_quant, Granularity, QuantSpec};

    /// Measures the outlier "spread" of a matrix: max per-channel absmax divided
    /// by mean per-channel absmax. 1.0 ⇒ perfectly flat channels.
    fn channel_spread(x: &Matrix) -> f32 {
        let am = qserve_tensor::stats::col_abs_max(x);
        let max = am.iter().cloned().fold(0.0f32, f32::max);
        let mean = am.iter().sum::<f32>() / am.len().max(1) as f32;
        if mean.abs().to_bits() == 0 {
            1.0
        } else {
            max / mean
        }
    }

    #[test]
    fn hadamard_is_orthonormal() {
        for n in [1usize, 2, 4, 8, 16, 64, 128] {
            let h = hadamard(n);
            let prod = h.matmul_nt(&h);
            for i in 0..n {
                for j in 0..n {
                    let expect = if i == j { 1.0 } else { 0.0 };
                    assert!(
                        (prod[(i, j)] - expect).abs() < 1e-4,
                        "H Hᵀ ≠ I at ({}, {}) for n={}",
                        i,
                        j,
                        n
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn hadamard_rejects_non_power_of_two() {
        hadamard(12);
    }

    #[test]
    fn rotation_preserves_layer_output() {
        let mut rng = TensorRng::seed(1);
        let x = rng.with_outlier_channels(8, 16, 1.0, &[2, 9], 12.0);
        let w = rng.gaussian(4, 16, 0.3);
        let q = hadamard(16);
        let y0 = x.matmul_nt(&w);
        // Activations `x ← x Q`, the input module's weight `W ← W Q`.
        let y1 = x.matmul_nn(&q).matmul_nt(&w.matmul_nn(&q));
        for (a, b) in y0.as_slice().iter().zip(y1.as_slice()) {
            assert!((a - b).abs() < 1e-3 * a.abs().max(1.0), "{} vs {}", a, b);
        }
    }

    #[test]
    fn rotation_suppresses_outliers() {
        let mut rng = TensorRng::seed(2);
        let x = rng.with_outlier_channels(64, 128, 1.0, &[5, 40, 77], 15.0);
        let q = hadamard(128);
        let rx = x.matmul_nn(&q);
        assert!(
            channel_spread(&rx) < channel_spread(&x) * 0.4,
            "rotation should flatten channels: {} -> {}",
            channel_spread(&x),
            channel_spread(&rx)
        );
    }

    #[test]
    fn rotation_improves_int8_activation_quant() {
        let mut rng = TensorRng::seed(3);
        let x = rng.with_outlier_channels(64, 128, 1.0, &[5, 40, 77], 15.0);
        let q = hadamard(128);
        let rx = x.matmul_nn(&q);
        // Per-token (row) symmetric INT8 like QServe activations.
        let spec = QuantSpec::int8_symmetric(Granularity::PerRow);
        // Compare error *in the rotated frame* vs the raw frame — what the
        // INT8 tensor core actually sees.
        let raw = sqnr_db(&x, &rtn_fake_quant(&x, spec));
        let rot = sqnr_db(&rx, &rtn_fake_quant(&rx, spec));
        assert!(rot > raw, "rotated SQNR {} should beat raw {}", rot, raw);
    }

    #[test]
    fn hadamard_rows_have_unit_norm() {
        let h = hadamard(32);
        for i in 0..32 {
            let n: f32 = h.row(i).iter().map(|v| v * v).sum();
            assert!((n - 1.0).abs() < 1e-5);
        }
    }
}
