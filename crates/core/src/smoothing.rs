//! Block output module smoothing (§4.3.2, Figure 9).
//!
//! Output modules (attention out-projection, FFN down-projection) consume
//! *block intermediate* activations. QServe smooths those intermediates by a
//! per-channel factor `λ`, dividing the activation channel and multiplying
//! the consumer weight's corresponding input channel — a SmoothQuant-style
//! migration. Unlike SmoothQuant, the paper finds the migration strength `α`
//! "should be near 0", i.e. `λ` is determined mostly by the *weights*.

use qserve_quant::matrixq::rtn_fake_quant;
use qserve_quant::{Granularity, QuantSpec};
use qserve_tensor::stats::{col_abs_max, mse};
use qserve_tensor::Matrix;

/// Per-channel smoothing factors for one output module.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SmoothingScales {
    lambda: Vec<f32>,
}

impl SmoothingScales {
    /// Computes `λⱼ = max|Xⱼ|^α / max|Wⱼ|^(1−α)` from the per-channel absmax
    /// of the activations `X` and of the consumer weight `W`'s input
    /// channels (the pipeline aggregates the latter across GQA head groups).
    ///
    /// `α → 0` makes λ weight-dominated, per the paper's finding. Channels
    /// where either statistic vanishes get `λ = 1`.
    ///
    /// # Panics
    /// Panics if lengths differ or `alpha ∉ [0, 1]`.
    fn from_stats(ax: &[f32], aw: &[f32], alpha: f32) -> Self {
        assert_eq!(ax.len(), aw.len(), "stat length mismatch");
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        let lambda = ax
            .iter()
            .zip(aw)
            .map(|(&a, &w)| {
                if a <= 0.0 || w <= 0.0 {
                    1.0
                } else {
                    a.powf(alpha) / w.powf(1.0 - alpha)
                }
            })
            .collect();
        Self { lambda }
    }

    /// The per-channel λ vector.
    pub fn lambda(&self) -> &[f32] {
        &self.lambda
    }

    /// Smooths the intermediate activation: `X ← X Λ⁻¹` (columns divided).
    pub fn apply_to_activation(&self, x: &Matrix) -> Matrix {
        let inv: Vec<f32> = self.lambda.iter().map(|l| 1.0 / l).collect();
        x.scale_cols(&inv)
    }

    /// Folds Λ into the consumer weight (`n×k`): input channel `j` scaled by
    /// `λⱼ`, so `(XΛ⁻¹)(WΛ)ᵀ = XWᵀ`.
    pub fn fold_into_consumer(&self, w: &Matrix) -> Matrix {
        w.scale_cols(&self.lambda)
    }

    /// Folds Λ⁻¹ into the producer weight (`k×m` producer emitting the
    /// intermediate activation as `x_prev · W_prevᵀ`): output channel `j`
    /// (row `j` of `W_prev`) divided by `λⱼ`, so the smoothed activation is
    /// produced directly with no runtime scaling kernel.
    pub fn fold_into_producer(&self, w_prev: &Matrix) -> Matrix {
        let inv: Vec<f32> = self.lambda.iter().map(|l| 1.0 / l).collect();
        w_prev.scale_rows(&inv)
    }
}

/// Grid-searches the migration strength α, minimizing the *quantized* layer
/// output error `‖XWᵀ − q₈(XΛ⁻¹)·Q(WΛ)ᵀ‖` — both operands quantized as
/// deployment would. The paper reports α near 0 is best for the real LLM
/// checkpoints (§4.3.2); searching makes the technique robust to weight
/// statistics that differ from theirs (cf. SmoothQuant's searched migration
/// strength).
///
/// Returns the winning scales and the α chosen.
pub(crate) fn search_smoothing(
    x: &Matrix,
    w: &Matrix,
    weight_spec: QuantSpec,
    grid: &[f32],
) -> (SmoothingScales, f32) {
    let own: Vec<usize> = (0..x.cols()).collect();
    search_smoothing_from_stats(x, w, &col_abs_max(x), &col_abs_max(w), &own, weight_spec, grid)
}

/// [`search_smoothing`] over λ built from the caller's per-channel absmax
/// statistics instead of `x`'s and `w`'s own. The statistics may be narrower
/// than the layer (GQA: one entry per KV channel, aggregated over the query
/// heads that replicate it): `stat_of[c]` is the statistic channel `c` of
/// the layer reads (`pipeline::gqa_kv_map`). Each candidate is widened
/// through it to be scored and returned at the statistics' width.
///
/// # Panics
/// Panics if the grid is empty, the statistics' lengths differ, `stat_of`
/// does not cover the channels, or `x` and `w` disagree on their count.
pub(crate) fn search_smoothing_from_stats(
    x: &Matrix,
    w: &Matrix,
    ax: &[f32],
    aw: &[f32],
    stat_of: &[usize],
    weight_spec: QuantSpec,
    grid: &[f32],
) -> (SmoothingScales, f32) {
    assert!(!grid.is_empty(), "alpha grid must be non-empty");
    assert_eq!(x.cols(), w.cols(), "activation/weight channel mismatch");
    assert_eq!(stat_of.len(), x.cols(), "one statistic per channel");
    let act_spec = QuantSpec::int8_symmetric(Granularity::PerRow);
    let y_ref = x.matmul_nt(w);
    let mut best: Option<(f64, SmoothingScales, f32)> = None;
    for &alpha in grid {
        let s = SmoothingScales::from_stats(ax, aw, alpha);
        let tiled = SmoothingScales {
            lambda: stat_of.iter().map(|&j| s.lambda[j]).collect(),
        };
        let xq = rtn_fake_quant(&tiled.apply_to_activation(x), act_spec);
        let wq = rtn_fake_quant(&tiled.fold_into_consumer(w), weight_spec);
        let err = mse(&y_ref, &xq.matmul_nt(&wq));
        if best.as_ref().map(|(e, _, _)| err < *e).unwrap_or(true) {
            best = Some((err, s, alpha));
        }
    }
    let (_, s, alpha) = best.expect("non-empty grid");
    (s, alpha)
}

/// The default α grid for [`search_smoothing`].
pub(crate) fn default_alpha_grid() -> Vec<f32> {
    vec![0.0, 0.15, 0.3, 0.5, 0.65, 0.8]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserve_tensor::rng::TensorRng;
    use qserve_tensor::stats::sqnr_db;

    impl SmoothingScales {
        /// [`SmoothingScales::from_stats`] over `x`'s and `w`'s own
        /// per-channel absmax, at a fixed migration strength.
        fn from_calibration(x: &Matrix, w: &Matrix, alpha: f32) -> Self {
            assert_eq!(x.cols(), w.cols(), "activation/weight channel mismatch");
            Self::from_stats(&col_abs_max(x), &col_abs_max(w), alpha)
        }
    }

    #[test]
    fn smoothing_preserves_output() {
        let mut rng = TensorRng::seed(1);
        let x = rng.with_outlier_channels(8, 16, 1.0, &[3], 10.0);
        let w = rng.gaussian(4, 16, 0.2);
        let s = SmoothingScales::from_calibration(&x, &w, 0.1);
        let y0 = x.matmul_nt(&w);
        let y1 = s.apply_to_activation(&x).matmul_nt(&s.fold_into_consumer(&w));
        for (a, b) in y0.as_slice().iter().zip(y1.as_slice()) {
            assert!((a - b).abs() < 1e-3 * a.abs().max(1.0));
        }
    }

    #[test]
    fn producer_fold_emits_smoothed_activation() {
        let mut rng = TensorRng::seed(2);
        let xprev = rng.gaussian(4, 8, 1.0);
        let wprev = rng.gaussian(16, 8, 0.3);
        let inter = xprev.matmul_nt(&wprev);
        let wnext = rng.gaussian(4, 16, 0.2);
        let s = SmoothingScales::from_calibration(&inter, &wnext, 0.1);
        let smoothed = s.apply_to_activation(&inter);
        let direct = xprev.matmul_nt(&s.fold_into_producer(&wprev));
        for (a, b) in smoothed.as_slice().iter().zip(direct.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn alpha_zero_is_weight_determined() {
        let mut rng = TensorRng::seed(3);
        let x = rng.gaussian(8, 16, 1.0);
        let w = rng.gaussian(4, 16, 0.2);
        let s = SmoothingScales::from_calibration(&x, &w, 0.0);
        let aw = col_abs_max(&w);
        for (l, &wmax) in s.lambda().iter().zip(&aw) {
            assert!((l - 1.0 / wmax).abs() < 1e-5, "α=0 ⇒ λ = 1/max|W|");
        }
    }

    #[test]
    fn improves_weight_quantization_at_low_alpha() {
        // λ with α≈0 equalizes weight columns, helping 4-bit weight quant.
        let mut rng = TensorRng::seed(4);
        let x = rng.gaussian(64, 128, 1.0);
        // Weight with wildly uneven input-channel magnitudes.
        let mut w = rng.gaussian(16, 128, 0.1);
        for i in 0..16 {
            let row = w.row_mut(i);
            for (j, v) in row.iter_mut().enumerate() {
                if j % 16 == 0 {
                    *v *= 12.0;
                }
            }
        }
        let s = SmoothingScales::from_calibration(&x, &w, 0.05);
        let w_smooth = s.fold_into_consumer(&w);
        let spec = QuantSpec::uint4_asymmetric(Granularity::PerGroup { group_size: 32 });
        let raw = sqnr_db(&w, &rtn_fake_quant(&w, spec));
        let smooth = sqnr_db(&w_smooth, &rtn_fake_quant(&w_smooth, spec));
        assert!(
            smooth > raw,
            "smoothed weight SQNR {} should beat raw {}",
            smooth,
            raw
        );
    }

    #[test]
    fn dead_channels_are_safe() {
        let x = Matrix::zeros(4, 8);
        let w = Matrix::zeros(2, 8);
        let s = SmoothingScales::from_calibration(&x, &w, 0.5);
        assert!(s.lambda().iter().all(|&l| l.to_bits() == 1.0f32.to_bits()));
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn rejects_mismatched_channels() {
        SmoothingScales::from_calibration(&Matrix::zeros(2, 8), &Matrix::zeros(2, 6), 0.5);
    }

    #[test]
    fn search_never_worse_than_no_smoothing() {
        let mut rng = TensorRng::seed(7);
        let x = rng.with_outlier_channels(32, 64, 1.0, &[3, 40], 10.0);
        let w = rng.heavy_tailed(16, 64, 0.1, 0.03, 8.0);
        let spec = QuantSpec::uint4_asymmetric(Granularity::PerGroup { group_size: 16 });
        // α = 0 in the grid means "weight-driven"; include a λ=1 sentinel by
        // evaluating the unsmoothed error separately.
        let y_ref = x.matmul_nt(&w);
        let unsmoothed = {
            let xq = rtn_fake_quant(&x, QuantSpec::int8_symmetric(Granularity::PerRow));
            let wq = rtn_fake_quant(&w, spec);
            qserve_tensor::stats::mse(&y_ref, &xq.matmul_nt(&wq))
        };
        let (s, alpha) = search_smoothing(&x, &w, spec, &default_alpha_grid());
        let smoothed = {
            let xq = rtn_fake_quant(
                &s.apply_to_activation(&x),
                QuantSpec::int8_symmetric(Granularity::PerRow),
            );
            let wq = rtn_fake_quant(&s.fold_into_consumer(&w), spec);
            qserve_tensor::stats::mse(&y_ref, &xq.matmul_nt(&wq))
        };
        assert!(
            smoothed <= unsmoothed * 1.05,
            "searched smoothing (α={}) err {} should not regress vs {}",
            alpha,
            smoothed,
            unsmoothed
        );
    }

    #[test]
    fn search_picks_grid_member() {
        let mut rng = TensorRng::seed(8);
        let x = rng.gaussian(16, 32, 1.0);
        let w = rng.gaussian(8, 32, 0.2);
        let spec = QuantSpec::uint4_asymmetric(Granularity::PerRow);
        let grid = default_alpha_grid();
        let (_, alpha) = search_smoothing(&x, &w, spec, &grid);
        assert!(grid.contains(&alpha));
    }
}
