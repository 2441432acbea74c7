//! Weight clipping (§4.3.4).
//!
//! Clipping the dynamic range before computing quantization scales
//! (`W_max = α·max(W)`) trades saturation error on a few large weights for
//! resolution on the many small ones. QoQ grid-searches the clip ratio `α`
//! minimizing *layer output* MSE `‖XWᵀ − X·Q(W;α)ᵀ‖` for most layers, and
//! *block output* MSE for `q_proj`/`k_proj` (Equation 10); this pipeline
//! uses the layer-output objective for every layer.

use qserve_quant::{matrixq::fake_quant_clipped, QuantSpec};
use qserve_tensor::stats::mse;
use qserve_tensor::Matrix;

/// Result of a clip-ratio grid search.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint: allow(unreferenced-pub) -- return type of `search_clip_layer_output`; callers read its fields
pub struct ClipSearchResult {
    /// The winning clip ratio `α ∈ (0, 1]`.
    pub alpha: f32,
    /// The objective value (MSE) achieved at `alpha`.
    pub error: f64,
}

/// Default grid used by the searches: 1.0 down to 0.5 in steps of 0.05,
/// matching the granularity used by AWQ/Atom-style searches.
pub fn default_grid() -> Vec<f32> {
    (0..=10).map(|i| 1.0 - 0.05 * i as f32).collect()
}

/// Grid-searches `α` minimizing the *layer output* error
/// `‖XWᵀ − X·Q(W;α)ᵀ‖` — QoQ's objective for all linear layers except
/// q/k projections.
pub fn search_clip_layer_output(
    x: &Matrix,
    w: &Matrix,
    spec: QuantSpec,
    grid: &[f32],
) -> ClipSearchResult {
    let y_ref = x.matmul_nt(w);
    search_over(grid, |alpha| {
        mse(&y_ref, &x.matmul_nt(&fake_quant_clipped(w, spec, alpha)))
    })
}

/// The grid minimum of an arbitrary objective `α → MSE`.
fn search_over(grid: &[f32], mut objective: impl FnMut(f32) -> f64) -> ClipSearchResult {
    assert!(!grid.is_empty(), "clip grid must be non-empty");
    let mut best = ClipSearchResult {
        alpha: grid[0],
        error: f64::INFINITY,
    };
    for &alpha in grid {
        assert!(alpha > 0.0 && alpha <= 1.0, "clip ratio {alpha} out of (0,1]");
        let err = objective(alpha);
        if err < best.error {
            best = ClipSearchResult { alpha, error: err };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserve_quant::Granularity;
    use qserve_tensor::rng::TensorRng;

    fn int4_spec() -> QuantSpec {
        QuantSpec::int4_symmetric(Granularity::PerRow)
    }

    /// The *tensor* objective `‖W − Q(W; α)‖` — the cheaper search §4.3.4
    /// mentions, here as the baseline the layer-output search is compared
    /// against.
    fn search_clip_tensor(w: &Matrix, spec: QuantSpec, grid: &[f32]) -> ClipSearchResult {
        search_over(grid, |alpha| mse(w, &fake_quant_clipped(w, spec, alpha)))
    }

    #[test]
    fn clean_gaussian_prefers_no_or_mild_clipping() {
        let w = TensorRng::seed(1).gaussian(16, 128, 0.02);
        let r = search_clip_tensor(&w, int4_spec(), &default_grid());
        assert!(r.alpha >= 0.75, "clean weights should not clip hard, got {}", r.alpha);
    }

    #[test]
    fn heavy_tails_prefer_clipping() {
        // A moderate outlier (~4× the bulk absmax) blows up the symmetric
        // scale; saturating it buys resolution for the 127 small weights.
        let mut w = TensorRng::seed(2).gaussian(1, 128, 0.02);
        w[(0, 0)] = 0.25;
        let no_clip = mse(&w, &fake_quant_clipped(&w, int4_spec(), 1.0));
        let r = search_clip_tensor(&w, int4_spec(), &default_grid());
        assert!(r.error <= no_clip, "search must never be worse than α=1");
        assert!(r.alpha < 1.0, "outliers should trigger clipping");
    }

    #[test]
    fn layer_output_objective_uses_activations() {
        // When activations nearly ignore the outlier channel, layer-output
        // search can clip more aggressively than tensor search.
        let mut rng = TensorRng::seed(3);
        let mut w = rng.gaussian(8, 64, 0.02);
        w[(0, 5)] = 2.0; // huge weight in channel 5
        let mut x = rng.gaussian(32, 64, 1.0);
        for i in 0..32 {
            x[(i, 5)] *= 0.001; // channel 5 practically unused
        }
        let t = search_clip_tensor(&w, int4_spec(), &default_grid());
        let l = search_clip_layer_output(&x, &w, int4_spec(), &default_grid());
        assert!(
            l.alpha <= t.alpha,
            "layer-output search should clip at least as hard: {} vs {}",
            l.alpha,
            t.alpha
        );
    }

    #[test]
    fn block_output_search_returns_grid_minimum() {
        // Synthetic convex objective with minimum at 0.7.
        let r = search_over(&default_grid(), |a| f64::from((a - 0.7) * (a - 0.7)));
        assert!((r.alpha - 0.7).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_grid_rejected() {
        search_over(&[], |_| 0.0);
    }
}
