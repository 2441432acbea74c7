//! Activation-aware channel reordering (§4.3.3, Figure 10).
//!
//! AWQ and Atom observed that "salient" weights — those multiplied by large
//! activations — matter most for accuracy. Atom protects them with
//! mixed-precision; QoQ instead *reorders input channels by salience* so that
//! channels with similar magnitude land in the same quantization group,
//! letting each group's scale fit its members snugly. The permutation is
//! applied offline to the weights' input channels; the activation side is a
//! gather at the quantization node that feeds them, which QServe fuses into
//! the norm / activation kernel that writes the INT8 tensor — that is what
//! makes it free at inference time. This stack does the same unfused:
//! [`crate::pipeline::ActivationFrame`] carries the node's permutation and
//! the runtime gathers by it before per-token INT8. Nothing is folded into
//! the preceding layer's rows (out_proj's order interleaves attention heads
//! and could not be).

use qserve_tensor::stats::{argsort_desc, col_abs_max};
use qserve_tensor::Matrix;

/// A salience-derived input-channel permutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelReorder {
    perm: Vec<usize>,
}

impl ChannelReorder {
    /// Derives the permutation from calibration activations (`tokens × k`):
    /// `AbsMax → ArgSort` descending, exactly Figure 10.
    pub fn from_activations(x: &Matrix) -> Self {
        Self {
            perm: argsort_desc(&col_abs_max(x)),
        }
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> ChannelReorder {
        let mut inv = vec![0usize; self.perm.len()];
        for (j, &p) in self.perm.iter().enumerate() {
            inv[p] = j;
        }
        ChannelReorder { perm: inv }
    }

    /// Reorders the input channels (columns) of a weight (`n×k`).
    pub fn apply_to_weight(&self, w: &Matrix) -> Matrix {
        w.permute_cols(&self.perm)
    }

    /// Reorders activation channels (columns of `tokens × k`) to match.
    pub fn apply_to_activation(&self, x: &Matrix) -> Matrix {
        x.permute_cols(&self.perm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progressive::ProgressiveWeight;
    use qserve_tensor::rng::TensorRng;
    use qserve_tensor::stats::sqnr_db;

    #[test]
    fn reorder_preserves_gemm_output() {
        let mut rng = TensorRng::seed(1);
        let x = rng.gaussian(4, 16, 1.0);
        let w = rng.gaussian(8, 16, 0.3);
        let r = ChannelReorder::from_activations(&x);
        let y0 = x.matmul_nt(&w);
        let y1 = r.apply_to_activation(&x).matmul_nt(&r.apply_to_weight(&w));
        for (a, b) in y0.as_slice().iter().zip(y1.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn permutation_sorted_by_salience() {
        let mut rng = TensorRng::seed(2);
        let x = rng.with_outlier_channels(32, 8, 1.0, &[5], 20.0);
        let r = ChannelReorder::from_activations(&x);
        assert_eq!(r.perm[0], 5, "most salient channel first");
    }

    #[test]
    fn inverse_round_trips() {
        let r = ChannelReorder { perm: vec![2, 0, 3, 1] };
        let m = Matrix::from_fn(2, 4, |i, j| (i * 4 + j) as f32);
        let back = r.inverse().apply_to_weight(&r.apply_to_weight(&m));
        assert_eq!(back, m);
    }

    #[test]
    fn grouping_similar_salience_helps_weight_quant() {
        // Construct a weight whose column magnitudes alternate tiny/huge.
        // Ungrouped, every group contains a huge channel and tiny channels
        // get crushed; sorted by (activation-correlated) salience, groups are
        // homogeneous.
        let mut rng = TensorRng::seed(3);
        let k = 128;
        let mut w = rng.gaussian(16, k, 0.1);
        let mut x = rng.gaussian(64, k, 1.0);
        for j in (0..k).step_by(4) {
            for i in 0..16 {
                w[(i, j)] *= 10.0;
            }
            for i in 0..64 {
                x[(i, j)] *= 10.0; // salience tracks the big weight columns
            }
        }
        let r = ChannelReorder::from_activations(&x);
        let w_re = r.apply_to_weight(&w);
        let raw = ProgressiveWeight::quantize(&w, 32).dequantize();
        let reordered = r
            .inverse()
            .apply_to_weight(&ProgressiveWeight::quantize(&w_re, 32).dequantize());
        let raw_sqnr = sqnr_db(&w, &raw);
        let re_sqnr = sqnr_db(&w, &reordered);
        assert!(
            re_sqnr > raw_sqnr,
            "reordering should improve group quant: {} vs {}",
            re_sqnr,
            raw_sqnr
        );
    }
}
