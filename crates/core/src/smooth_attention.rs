//! SmoothAttention (§4.2).
//!
//! Key caches have fixed per-channel outliers ~10× the typical magnitude
//! (Figure 7); 4-bit KV quantization cannot absorb them. SmoothAttention
//! rescales `Z = (QΛ)(KΛ⁻¹)ᵀ` with `Λ = diag(λ)`, migrating the outliers into
//! the Queries — which stay unquantized — so the product is unchanged.
//!
//! Because RoPE pairs channel `i` with `i + D/2` inside each head, the scale
//! must satisfy `λᵢ = λᵢ₊D/₂` (Equation 9) for the rescaling to commute with
//! the rotation; then `Λ` can be folded into the q/k projection weights:
//! `W_Q ← ΛW_Q`, `W_K ← Λ⁻¹W_K`.

use qserve_tensor::Matrix;

/// Per-channel SmoothAttention scales for one attention block.
#[derive(Debug, Clone, PartialEq)]
pub struct SmoothAttentionScales {
    lambda: Vec<f32>,
    head_dim: usize,
}

impl SmoothAttentionScales {
    /// Computes `λᵢ = max(max|Kᵢ|, max|Kᵢ₊D/₂|)^α` from calibration keys
    /// (pre-RoPE layout, `tokens × (heads·head_dim)`), honouring the RoPE
    /// pairing constraint within each head.
    ///
    /// The paper finds `α = 0.5` "good enough in practice".
    ///
    /// # Panics
    /// Panics if `head_dim` is odd or does not divide the key width.
    pub fn from_keys(keys: &Matrix, head_dim: usize, alpha: f32) -> Self {
        assert!(head_dim % 2 == 0, "head_dim must be even for RoPE pairing");
        assert!(
            keys.cols() % head_dim == 0,
            "key width {} not a multiple of head_dim {}",
            keys.cols(),
            head_dim
        );
        let col_max = qserve_tensor::stats::col_abs_max(keys);
        let half = head_dim / 2;
        let mut lambda = vec![1.0f32; keys.cols()];
        for head_start in (0..keys.cols()).step_by(head_dim) {
            for i in 0..half {
                let a = col_max[head_start + i];
                let b = col_max[head_start + i + half];
                let paired = a.max(b);
                // Guard against dead channels: λ must stay positive.
                let l = if paired > 0.0 { paired.powf(alpha) } else { 1.0 };
                lambda[head_start + i] = l;
                lambda[head_start + i + half] = l;
            }
        }
        Self { lambda, head_dim }
    }

    /// The per-channel λ vector.
    pub fn lambda(&self) -> &[f32] {
        &self.lambda
    }

    /// Head dimension the pairing constraint was applied over.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Folds Λ into the query projection weight (`n×k`, rows are output
    /// channels): `W_Q ← ΛW_Q`, i.e. output channel `i` scaled by `λᵢ`.
    pub fn fold_into_wq(&self, wq: &Matrix) -> Matrix {
        wq.scale_rows(&self.lambda)
    }

    /// Folds Λ⁻¹ into the key projection weight: `W_K ← Λ⁻¹W_K`.
    pub fn fold_into_wk(&self, wk: &Matrix) -> Matrix {
        let inv: Vec<f32> = self.lambda.iter().map(|l| 1.0 / l).collect();
        wk.scale_rows(&inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserve_tensor::ops::rope_matrix;
    use qserve_tensor::rng::TensorRng;
    use qserve_tensor::stats::{col_abs_max, sqnr_db};
    use qserve_quant::{matrixq::rtn_fake_quant, Granularity, QuantSpec};

    /// What the folded weights produce, applied to activations directly.
    impl SmoothAttentionScales {
        /// Scales a Query activation: `Q ← QΛ` (columns multiplied by λ).
        fn apply_to_queries(&self, q: &Matrix) -> Matrix {
            q.scale_cols(&self.lambda)
        }

        /// Scales a Key activation: `K ← KΛ⁻¹` (columns divided by λ).
        fn apply_to_keys(&self, k: &Matrix) -> Matrix {
            let inv: Vec<f32> = self.lambda.iter().map(|l| 1.0 / l).collect();
            k.scale_cols(&inv)
        }
    }

    fn outlier_keys(rng: &mut TensorRng, tokens: usize, heads: usize, d: usize) -> Matrix {
        // Outlier channels fixed per head, ~10x magnitude (Figure 7).
        let width = heads * d;
        let outliers: Vec<usize> = (0..heads).map(|h| h * d + 3).collect();
        rng.with_outlier_channels(tokens, width, 0.5, &outliers, 10.0)
    }

    #[test]
    fn product_preserved_exactly_pre_rope() {
        let mut rng = TensorRng::seed(1);
        let q = rng.gaussian(6, 8, 1.0);
        let k = outlier_keys(&mut rng, 6, 1, 8);
        let s = SmoothAttentionScales::from_keys(&k, 8, 0.5);
        let z0 = q.matmul_nt(&k);
        let z1 = s.apply_to_queries(&q).matmul_nt(&s.apply_to_keys(&k));
        for (a, b) in z0.as_slice().iter().zip(z1.as_slice()) {
            assert!((a - b).abs() < 1e-3 * a.abs().max(1.0), "{} vs {}", a, b);
        }
    }

    #[test]
    fn pairing_constraint_satisfied() {
        let mut rng = TensorRng::seed(2);
        let k = outlier_keys(&mut rng, 16, 2, 8);
        let s = SmoothAttentionScales::from_keys(&k, 8, 0.5);
        for head in 0..2 {
            for i in 0..4 {
                assert_eq!(
                    s.lambda()[head * 8 + i],
                    s.lambda()[head * 8 + i + 4],
                    "λ must be equal across RoPE pairs"
                );
            }
        }
    }

    #[test]
    fn commutes_with_rope() {
        // Scaling columns then applying RoPE == applying RoPE then scaling,
        // provided λ is RoPE-pair constant.
        let mut rng = TensorRng::seed(3);
        let k = outlier_keys(&mut rng, 5, 1, 8);
        let s = SmoothAttentionScales::from_keys(&k, 8, 0.5);

        let mut scaled_then_rope = s.apply_to_keys(&k);
        rope_matrix(&mut scaled_then_rope, 8, 0, 10000.0);

        let mut rope_then_scaled = k.clone();
        rope_matrix(&mut rope_then_scaled, 8, 0, 10000.0);
        let rope_then_scaled = s.apply_to_keys(&rope_then_scaled);

        for (a, b) in scaled_then_rope
            .as_slice()
            .iter()
            .zip(rope_then_scaled.as_slice())
        {
            assert!((a - b).abs() < 1e-4, "{} vs {}", a, b);
        }
    }

    #[test]
    fn smoothing_flattens_outliers() {
        let mut rng = TensorRng::seed(4);
        let k = outlier_keys(&mut rng, 128, 4, 16);
        let s = SmoothAttentionScales::from_keys(&k, 16, 0.5);
        let smoothed = s.apply_to_keys(&k);
        let before = col_abs_max(&k);
        let after = col_abs_max(&smoothed);
        let spread = |v: &[f32]| {
            let max = v.iter().cloned().fold(0.0f32, f32::max);
            let mean = v.iter().sum::<f32>() / v.len() as f32;
            max / mean
        };
        assert!(
            spread(&after) < spread(&before) * 0.5,
            "outlier spread should shrink: {} -> {}",
            spread(&before),
            spread(&after)
        );
    }

    #[test]
    fn improves_kv4_quantization_error() {
        // The end goal: 4-bit quantization of smoothed keys loses less
        // signal than 4-bit quantization of raw keys.
        let mut rng = TensorRng::seed(5);
        let k = outlier_keys(&mut rng, 256, 4, 16);
        let s = SmoothAttentionScales::from_keys(&k, 16, 0.5);
        let smoothed = s.apply_to_keys(&k);
        let spec = QuantSpec::uint4_asymmetric(Granularity::PerRow);
        let raw_q = rtn_fake_quant(&k, spec);
        let smooth_q = rtn_fake_quant(&smoothed, spec);
        let raw_sqnr = sqnr_db(&k, &raw_q);
        let smooth_sqnr = sqnr_db(&smoothed, &smooth_q);
        assert!(
            smooth_sqnr > raw_sqnr + 2.0,
            "SmoothAttention should buy ≥2 dB: {} vs {}",
            smooth_sqnr,
            raw_sqnr
        );
    }

    #[test]
    fn fold_into_weights_equals_activation_scaling() {
        // Q = X W_Qᵀ. Scaling rows of W_Q by λ must equal scaling Q's columns.
        let mut rng = TensorRng::seed(6);
        let x = rng.gaussian(4, 12, 1.0);
        let wq = rng.gaussian(8, 12, 0.2);
        let k = outlier_keys(&mut rng, 32, 1, 8);
        let s = SmoothAttentionScales::from_keys(&k, 8, 0.5);
        let a = s.apply_to_queries(&x.matmul_nt(&wq));
        let b = x.matmul_nt(&s.fold_into_wq(&wq));
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-4);
        }
    }

    #[test]
    fn wq_wk_folds_cancel() {
        // (ΛW_Q)(X)ᵀ · ((Λ⁻¹W_K)(X)ᵀ)ᵀ == (W_Q X)(W_K X) product unchanged.
        let mut rng = TensorRng::seed(7);
        let x = rng.gaussian(5, 12, 1.0);
        let wq = rng.gaussian(8, 12, 0.2);
        let wk = rng.gaussian(8, 12, 0.2);
        let kcal = outlier_keys(&mut rng, 32, 1, 8);
        let s = SmoothAttentionScales::from_keys(&kcal, 8, 0.5);
        let z0 = x.matmul_nt(&wq).matmul_nt(&x.matmul_nt(&wk));
        let z1 = x
            .matmul_nt(&s.fold_into_wq(&wq))
            .matmul_nt(&x.matmul_nt(&s.fold_into_wk(&wk)));
        for (a, b) in z0.as_slice().iter().zip(z1.as_slice()) {
            assert!((a - b).abs() < 1e-3 * a.abs().max(1.0));
        }
    }

    #[test]
    fn dead_channels_get_unit_lambda() {
        let k = Matrix::zeros(4, 8);
        let s = SmoothAttentionScales::from_keys(&k, 8, 0.5);
        assert!(s.lambda().iter().all(|&l| l.to_bits() == 1.0f32.to_bits()));
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn rejects_odd_head_dim() {
        SmoothAttentionScales::from_keys(&Matrix::zeros(2, 9), 9, 0.5);
    }
}
