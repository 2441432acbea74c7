//! The end-to-end QoQ recipe for one transformer block (§4, evaluated in
//! Figure 16's ablation).
//!
//! [`quantize_block`] applies, in order and each individually toggleable:
//!
//! 1. block input rotation (Hadamard) — input modules `q/k/v/gate/up`;
//! 2. SmoothAttention — `λ` folded into `W_Q`/`W_K`;
//! 3. block output smoothing — `W_O` (producer `W_V`) and `W_down`
//!    (producer `W_up`);
//! 4. activation-aware channel reordering (per-group weights only);
//! 5. weight clipping grid search;
//! 6. progressive group quantization (or per-channel W4).
//!
//! The returned [`QuantizedBlock`] carries both the *deployment* form
//! (quantized codes per layer) and a *fake-quantized* [`BlockWeights`] mapped
//! back to the original frame — every transform applied, the weight
//! quantized, then the transform inverted — so accuracy evaluation can drop
//! the fake weights into an unmodified forward pass. This mirrors how
//! AWQ/QuaRot-style papers evaluate transformed quantization schemes.

use crate::clipping::{default_grid, search_clip_layer_output};
use crate::kv_quant::KvPrecision;
use crate::progressive::{PerChannelW4, ProgressiveWeight};
use crate::reorder::ChannelReorder;
use crate::rotation::hadamard;
use crate::smooth_attention::SmoothAttentionScales;
use crate::smoothing::{
    default_alpha_grid, search_smoothing, search_smoothing_from_stats, SmoothingScales,
};
use qserve_quant::{Granularity, QuantSpec};
use qserve_tensor::ops::swiglu;
use qserve_tensor::stats::col_abs_max;
use qserve_tensor::Matrix;

/// Weight quantization granularity (the paper's two deployment configs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightGranularity {
    /// "W4A8KV4": per-channel asymmetric INT4, zero-points fused into the
    /// GEMM epilogue (§5.2.2). Used on A100 in the paper.
    PerChannel,
    /// "W4A8KV4 g128": progressive group quantization (§4.1). Used on L40S.
    PerGroup(usize),
}

/// Full QoQ configuration. Default = the paper's complete recipe with g128.
#[derive(Debug, Clone, PartialEq)]
pub struct QoqConfig {
    /// Weight quantization granularity.
    pub weight_granularity: WeightGranularity,
    /// KV cache precision.
    pub kv_precision: KvPrecision,
    /// Enable block input rotation (§4.3.1).
    pub rotation: bool,
    /// Enable SmoothAttention (§4.2).
    pub smooth_attention: bool,
    /// SmoothAttention exponent α (paper: 0.5).
    pub smooth_attention_alpha: f32,
    /// Enable block output smoothing (§4.3.2).
    pub output_smoothing: bool,
    /// Output-smoothing migration strength (paper: near 0), used when
    /// `output_smoothing_search` is off.
    pub output_smoothing_alpha: f32,
    /// Grid-search the migration strength per layer with a
    /// quantization-aware objective (robust default; the paper fixes α
    /// near 0 for the real checkpoints).
    pub output_smoothing_search: bool,
    /// Enable activation-aware channel reordering (§4.3.3).
    pub channel_reorder: bool,
    /// Enable weight clipping grid search (§4.3.4).
    pub weight_clipping: bool,
}

impl Default for QoqConfig {
    fn default() -> Self {
        Self::w4a8kv4_g128()
    }
}

impl QoqConfig {
    /// The paper's full recipe, per-group g128 (L40S deployment).
    pub fn w4a8kv4_g128() -> Self {
        Self {
            weight_granularity: WeightGranularity::PerGroup(128),
            kv_precision: KvPrecision::Int4,
            rotation: true,
            smooth_attention: true,
            smooth_attention_alpha: 0.5,
            output_smoothing: true,
            output_smoothing_alpha: 0.05,
            output_smoothing_search: true,
            channel_reorder: true,
            weight_clipping: true,
        }
    }

    /// The paper's full recipe, per-channel weights (A100 deployment).
    pub fn w4a8kv4_per_channel() -> Self {
        Self {
            weight_granularity: WeightGranularity::PerChannel,
            channel_reorder: false, // reordering needs groups to matter
            ..Self::w4a8kv4_g128()
        }
    }

    /// Round-to-nearest baseline: same precision, no accuracy techniques.
    /// This is the "RTN" row of Table 2.
    pub fn rtn(granularity: WeightGranularity) -> Self {
        Self {
            weight_granularity: granularity,
            kv_precision: KvPrecision::Int4,
            rotation: false,
            smooth_attention: false,
            smooth_attention_alpha: 0.5,
            output_smoothing: false,
            output_smoothing_alpha: 0.05,
            output_smoothing_search: true,
            channel_reorder: false,
            weight_clipping: false,
        }
    }
}

/// Weights of one transformer block (GQA attention + SwiGLU FFN), the unit
/// QoQ operates on. All projections are `n×k` (output × input channels) and
/// compute `y = x Wᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockWeights {
    /// Query projection, `(heads·head_dim) × hidden`.
    pub wq: Matrix,
    /// Key projection, `(kv_heads·head_dim) × hidden`.
    pub wk: Matrix,
    /// Value projection, `(kv_heads·head_dim) × hidden`.
    pub wv: Matrix,
    /// Attention output projection, `hidden × (heads·head_dim)`.
    pub wo: Matrix,
    /// FFN gate projection, `ffn × hidden`.
    pub w_gate: Matrix,
    /// FFN up projection, `ffn × hidden`.
    pub w_up: Matrix,
    /// FFN down projection, `hidden × ffn`.
    pub w_down: Matrix,
    /// Per-head feature dimension `D`.
    pub head_dim: usize,
}

impl BlockWeights {
    /// Hidden (block input/output) width.
    pub fn hidden(&self) -> usize {
        self.wq.cols()
    }

    /// Names and references of the seven linear layers, in a fixed order.
    pub fn layers(&self) -> [(&'static str, &Matrix); 7] {
        [
            ("q_proj", &self.wq),
            ("k_proj", &self.wk),
            ("v_proj", &self.wv),
            ("out_proj", &self.wo),
            ("gate_proj", &self.w_gate),
            ("up_proj", &self.w_up),
            ("down_proj", &self.w_down),
        ]
    }

    /// Total parameter count across the seven projections.
    pub fn param_count(&self) -> usize {
        self.layers().iter().map(|(_, w)| w.len()).sum()
    }
}

/// The deployed (integer) form of one quantized linear layer.
#[derive(Debug, Clone, PartialEq)]
pub enum DeployedWeight {
    /// Progressive per-group form (W4A8KV4 g128).
    Progressive(ProgressiveWeight),
    /// Per-channel form (W4A8KV4).
    PerChannel(PerChannelW4),
}

impl DeployedWeight {
    /// Dequantizes the deployed form back to floating point (still in the
    /// transformed frame).
    pub fn dequantize(&self) -> Matrix {
        match self {
            DeployedWeight::Progressive(w) => w.dequantize(),
            DeployedWeight::PerChannel(w) => w.dequantize(),
        }
    }
}

/// Per-layer diagnostics from the quantization run.
#[derive(Debug, Clone, PartialEq)]
// lint: allow(unreferenced-pub) -- element type of the public `QuantizedBlock::reports`; callers read its fields
pub struct LayerReport {
    /// Layer name (`q_proj`, …).
    pub name: String,
    /// SQNR (dB) of the fake-quantized weight vs the original, measured in
    /// the original frame.
    pub weight_sqnr_db: f64,
    /// Clip ratio chosen by the grid search (1.0 when clipping disabled).
    pub clip_alpha: f32,
}

/// Output of [`quantize_block`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedBlock {
    /// Fake-quantized weights mapped back to the original frame — drop-in
    /// replacements for accuracy evaluation.
    pub fake: BlockWeights,
    /// Deployment-form integer weights (in the transformed frame), keyed in
    /// [`BlockWeights::layers`] order.
    pub deployed: Vec<(String, DeployedWeight)>,
    /// Per-layer diagnostics.
    pub reports: Vec<LayerReport>,
    /// The block-input rotation matrix (if rotation was enabled). Deployment
    /// quantizes activations in this rotated frame; evaluation must do the
    /// same to see rotation's benefit on the A8 side.
    pub input_rotation: Option<Matrix>,
}

/// Applies the full QoQ pipeline to one block given calibration block inputs
/// `calib_x` (`tokens × hidden`).
///
/// # Panics
/// Panics if shapes are inconsistent or `calib_x.cols() != block.hidden()`.
pub fn quantize_block(block: &BlockWeights, calib_x: &Matrix, cfg: &QoqConfig) -> QuantizedBlock {
    assert_eq!(
        calib_x.cols(),
        block.hidden(),
        "calibration width must equal hidden size"
    );
    let hidden = block.hidden();
    let group = match cfg.weight_granularity {
        WeightGranularity::PerGroup(g) => Some(g),
        WeightGranularity::PerChannel => None,
    };

    // ------------------------------------------------------------------
    // Stage 1: block input rotation (input modules only).
    // ------------------------------------------------------------------
    let rot = if cfg.rotation {
        Some(block_rotation_matrix(hidden))
    } else {
        None
    };
    let rotate_in = |w: &Matrix| -> Matrix {
        match &rot {
            Some(q) => w.matmul_nn(q),
            None => w.clone(),
        }
    };
    let unrotate_in = |w: &Matrix| -> Matrix {
        match &rot {
            Some(q) => w.matmul_nt(q), // W·Qᵀ undoes W·Q for orthogonal Q
            None => w.clone(),
        }
    };
    let calib_rot = match &rot {
        Some(q) => calib_x.matmul_nn(q),
        None => calib_x.clone(),
    };

    let mut wq = rotate_in(&block.wq);
    let mut wk = rotate_in(&block.wk);
    let mut wv = rotate_in(&block.wv);
    let w_gate = rotate_in(&block.w_gate);
    let mut w_up = rotate_in(&block.w_up);
    let mut wo = block.wo.clone();
    let mut w_down = block.w_down.clone();

    // ------------------------------------------------------------------
    // Stage 2: SmoothAttention (uses pre-RoPE keys from calibration).
    // ------------------------------------------------------------------
    let smooth_attn = if cfg.smooth_attention {
        let keys = calib_rot.matmul_nt(&wk);
        let s = SmoothAttentionScales::from_keys(&keys, block.head_dim, cfg.smooth_attention_alpha);
        // GQA: queries have `r` heads per kv head; tile λ across query heads.
        let q_lambda = tile_lambda(s.lambda(), wq.rows());
        wq = wq.scale_rows(&q_lambda);
        wk = s.fold_into_wk(&wk);
        Some((s, q_lambda))
    } else {
        None
    };

    // ------------------------------------------------------------------
    // Stage 3: block output smoothing for out_proj and down_proj.
    // ------------------------------------------------------------------
    // Intermediate activations from calibration (cheap proxies that match
    // the channel structure each output module consumes):
    //   out_proj consumes attention outputs — channel-wise linear in V, so
    //   the V activation is the right statistic;
    //   down_proj consumes swiglu(gate, up).
    // GQA constraint: out_proj's input channels replicate each V channel
    // across `reps` query-head groups, so λ must be periodic with the KV
    // width for the producer fold into W_V to stay exact. We therefore
    // compute λ at KV width from group-aggregated consumer statistics and
    // tile it across the groups.
    let smooth_o = if cfg.output_smoothing {
        let v_act = calib_rot.matmul_nt(&wv);
        let kvw = wv.rows();
        let ax = col_abs_max(&v_act);
        let aw_full = col_abs_max(&wo);
        let reps = wo.cols() / kvw;
        let aw: Vec<f32> = (0..kvw)
            .map(|j| (0..reps).map(|r| aw_full[r * kvw + j]).fold(0.0f32, f32::max))
            .collect();
        let s = if cfg.output_smoothing_search {
            let o_in = tile_cols(&v_act, wo.cols());
            let spec = clip_spec(group, wo.cols());
            search_smoothing_from_stats(&o_in, &wo, &ax, &aw, spec, &default_alpha_grid()).0
        } else {
            SmoothingScales::from_stats(&ax, &aw, cfg.output_smoothing_alpha)
        };
        let lambda_tiled = tile_lambda(s.lambda(), wo.cols());
        wo = wo.scale_cols(&lambda_tiled);
        let inv: Vec<f32> = s.lambda().iter().map(|l| 1.0 / l).collect();
        wv = wv.scale_rows(&inv);
        Some((s, lambda_tiled))
    } else {
        None
    };
    // `w_gate` is rotated once and never rescaled, so its calibration
    // activation serves both the down_proj smoothing statistics and the
    // down_proj clip search. (The `wv` / `w_up` activations do not: those
    // weights are rescaled in between, and a rescaled product rounds
    // differently from a product of rescaled weights.)
    let gate_act = calib_rot.matmul_nt(&w_gate);
    let smooth_d = if cfg.output_smoothing {
        let inter = swiglu(&gate_act, &calib_rot.matmul_nt(&w_up));
        let s = if cfg.output_smoothing_search {
            let spec = clip_spec(group, w_down.cols());
            search_smoothing(&inter, &w_down, spec, &default_alpha_grid()).0
        } else {
            SmoothingScales::from_calibration(&inter, &w_down, cfg.output_smoothing_alpha)
        };
        w_down = s.fold_into_consumer(&w_down);
        w_up = s.fold_into_producer(&w_up);
        Some(s)
    } else {
        None
    };

    // ------------------------------------------------------------------
    // Stages 4-6 per layer: reorder → clip → quantize, then invert
    // everything for the fake-quant frame.
    // ------------------------------------------------------------------
    // Calibration inputs per layer, in the transformed frame.
    let attn_out_calib = tile_cols(&calib_rot.matmul_nt(&wv), wo.cols());
    let ffn_inter_calib = swiglu(&gate_act, &calib_rot.matmul_nt(&w_up));

    let transformed: [(&'static str, &Matrix, &Matrix); 7] = [
        ("q_proj", &wq, &calib_rot),
        ("k_proj", &wk, &calib_rot),
        ("v_proj", &wv, &calib_rot),
        ("out_proj", &wo, &attn_out_calib),
        ("gate_proj", &w_gate, &calib_rot),
        ("up_proj", &w_up, &calib_rot),
        ("down_proj", &w_down, &ffn_inter_calib),
    ];

    let mut deployed = Vec::with_capacity(7);
    let mut fake_transformed: Vec<Matrix> = Vec::with_capacity(7);
    let mut reports = Vec::with_capacity(7);

    for (name, w, layer_calib) in transformed {
        let reorderer = if cfg.channel_reorder && group.is_some() {
            Some(ChannelReorder::from_activations(layer_calib))
        } else {
            None
        };
        let w_re = match &reorderer {
            Some(r) => r.apply_to_weight(w),
            None => w.clone(),
        };

        let clip_alpha = if cfg.weight_clipping {
            let x_re = match &reorderer {
                Some(r) => r.apply_to_activation(layer_calib),
                None => layer_calib.clone(),
            };
            let spec = clip_spec(group, w_re.cols());
            search_clip_layer_output(&x_re, &w_re, spec, &default_grid()).alpha
        } else {
            1.0
        };
        let w_clipped = clip_weight(&w_re, clip_alpha);

        let (dep, fake_re) = match group {
            Some(g) => {
                let g = effective_group(g, w_clipped.cols());
                let pw = ProgressiveWeight::quantize(&w_clipped, g);
                let f = pw.dequantize();
                (DeployedWeight::Progressive(pw), f)
            }
            None => {
                let pc = PerChannelW4::quantize(&w_clipped);
                let f = pc.dequantize();
                (DeployedWeight::PerChannel(pc), f)
            }
        };
        // Undo reorder to return to the (rotated/smoothed) frame.
        let fake_t = match &reorderer {
            Some(r) => r.inverse().apply_to_weight(&fake_re),
            None => fake_re,
        };
        deployed.push((name.to_string(), dep));
        fake_transformed.push(fake_t);
        reports.push((name, clip_alpha));
    }

    // ------------------------------------------------------------------
    // Invert stages 3 → 2 → 1 to express fake weights in the original frame.
    // ------------------------------------------------------------------
    let mut f_wq = fake_transformed[0].clone();
    let mut f_wk = fake_transformed[1].clone();
    let mut f_wv = fake_transformed[2].clone();
    let mut f_wo = fake_transformed[3].clone();
    let f_wgate = fake_transformed[4].clone();
    let mut f_wup = fake_transformed[5].clone();
    let mut f_wdown = fake_transformed[6].clone();

    if let Some(s) = &smooth_d {
        let inv: Vec<f32> = s.lambda().iter().map(|l| 1.0 / l).collect();
        f_wdown = f_wdown.scale_cols(&inv);
        f_wup = f_wup.scale_rows(s.lambda());
    }
    if let Some((s, lambda_tiled)) = &smooth_o {
        let inv_tiled: Vec<f32> = lambda_tiled.iter().map(|l| 1.0 / l).collect();
        f_wo = f_wo.scale_cols(&inv_tiled);
        f_wv = f_wv.scale_rows(s.lambda());
    }
    if let Some((s, q_lambda)) = &smooth_attn {
        let qinv: Vec<f32> = q_lambda.iter().map(|l| 1.0 / l).collect();
        f_wq = f_wq.scale_rows(&qinv);
        f_wk = f_wk.scale_rows(s.lambda());
    }
    let f_wq = unrotate_in(&f_wq);
    let f_wk = unrotate_in(&f_wk);
    let f_wv = unrotate_in(&f_wv);
    let f_wgate = unrotate_in(&f_wgate);
    let f_wup = unrotate_in(&f_wup);

    let fake = BlockWeights {
        wq: f_wq,
        wk: f_wk,
        wv: f_wv,
        wo: f_wo,
        w_gate: f_wgate,
        w_up: f_wup,
        w_down: f_wdown,
        head_dim: block.head_dim,
    };

    let reports = block
        .layers()
        .iter()
        .zip(fake.layers().iter())
        .zip(reports)
        .map(|(((name, orig), (_, fq)), (_, alpha))| LayerReport {
            name: (*name).to_string(),
            weight_sqnr_db: qserve_tensor::stats::sqnr_db(orig, fq),
            clip_alpha: alpha,
        })
        .collect();

    QuantizedBlock {
        fake,
        deployed,
        reports,
        input_rotation: rot,
    }
}

/// Block-diagonal scaled-Hadamard rotation for arbitrary `n`: the largest
/// power-of-two divisor chunk is rotated; if `n` is odd the matrix degrades
/// to identity (no rotation possible without changing dimensionality).
fn block_rotation_matrix(n: usize) -> Matrix {
    let chunk = largest_pow2_divisor(n);
    if chunk <= 1 {
        return Matrix::eye(n);
    }
    let h = hadamard(chunk);
    let mut q = Matrix::zeros(n, n);
    for b in (0..n).step_by(chunk) {
        for i in 0..chunk {
            for j in 0..chunk {
                q[(b + i, b + j)] = h[(i, j)];
            }
        }
    }
    q
}

fn largest_pow2_divisor(n: usize) -> usize {
    if n == 0 {
        1
    } else {
        1 << n.trailing_zeros()
    }
}

/// Tiles a kv-width λ up to the query width (GQA head replication).
fn tile_lambda(lambda: &[f32], target: usize) -> Vec<f32> {
    assert!(
        target % lambda.len() == 0,
        "query width {} not a multiple of kv width {}",
        target,
        lambda.len()
    );
    let reps = target / lambda.len();
    let mut out = Vec::with_capacity(target);
    for _ in 0..reps {
        out.extend_from_slice(lambda);
    }
    out
}

/// Tiles activation columns up to `target` width (GQA value replication).
fn tile_cols(x: &Matrix, target: usize) -> Matrix {
    if x.cols() == target {
        return x.clone();
    }
    assert!(target % x.cols() == 0, "cannot tile {} to {}", x.cols(), target);
    let reps = target / x.cols();
    let mut out = Matrix::zeros(x.rows(), target);
    for i in 0..x.rows() {
        let src = x.row(i);
        let dst = out.row_mut(i);
        for r in 0..reps {
            dst[r * x.cols()..(r + 1) * x.cols()].copy_from_slice(src);
        }
    }
    out
}

fn clip_spec(group: Option<usize>, cols: usize) -> QuantSpec {
    match group {
        Some(g) => QuantSpec::uint4_asymmetric(Granularity::PerGroup {
            group_size: effective_group(g, cols),
        }),
        None => QuantSpec::uint4_asymmetric(Granularity::PerRow),
    }
}

/// Shrinks the requested group size to fit `cols` when the layer is narrower
/// than one group (useful for the reduced-dimension test models).
fn effective_group(g: usize, cols: usize) -> usize {
    let mut g = g.min(cols);
    while g > 1 && cols % g != 0 {
        g /= 2;
    }
    g.max(1)
}

fn clip_weight(w: &Matrix, alpha: f32) -> Matrix {
    if alpha >= 1.0 {
        return w.clone();
    }
    // Clamp each row to α times its dynamic range, matching how the scale
    // search treated the tensor.
    let mut out = w.clone();
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        let (lo, hi) = row
            .iter()
            .fold((0.0f32, 0.0f32), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let (clo, chi) = (lo * alpha, hi * alpha);
        for v in row {
            *v = v.clamp(clo, chi);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserve_tensor::rng::TensorRng;

    fn test_block(rng: &mut TensorRng, hidden: usize, heads: usize, kv_heads: usize) -> BlockWeights {
        let head_dim = hidden / heads;
        let ffn = hidden * 2;
        BlockWeights {
            wq: rng.gaussian(heads * head_dim, hidden, 0.05),
            wk: rng.gaussian(kv_heads * head_dim, hidden, 0.05),
            wv: rng.gaussian(kv_heads * head_dim, hidden, 0.05),
            wo: rng.gaussian(hidden, heads * head_dim, 0.05),
            w_gate: rng.gaussian(ffn, hidden, 0.05),
            w_up: rng.gaussian(ffn, hidden, 0.05),
            w_down: rng.gaussian(hidden, ffn, 0.05),
            head_dim,
        }
    }

    fn outlier_calib(rng: &mut TensorRng, tokens: usize, hidden: usize) -> Matrix {
        let outliers = rng.pick_outlier_channels(hidden, hidden / 16);
        rng.with_outlier_channels(tokens, hidden, 1.0, &outliers, 8.0)
    }

    #[test]
    fn full_recipe_runs_and_reports() {
        let mut rng = TensorRng::seed(1);
        let block = test_block(&mut rng, 64, 4, 2);
        let calib = outlier_calib(&mut rng, 32, 64);
        let cfg = QoqConfig {
            weight_granularity: WeightGranularity::PerGroup(32),
            ..QoqConfig::w4a8kv4_g128()
        };
        let qb = quantize_block(&block, &calib, &cfg);
        assert_eq!(qb.reports.len(), 7);
        assert_eq!(qb.deployed.len(), 7);
        for r in &qb.reports {
            assert!(
                r.weight_sqnr_db > 5.0,
                "layer {} SQNR {} too low",
                r.name,
                r.weight_sqnr_db
            );
        }
    }

    #[test]
    fn fake_weights_have_original_shapes() {
        let mut rng = TensorRng::seed(2);
        let block = test_block(&mut rng, 64, 4, 4);
        let calib = outlier_calib(&mut rng, 16, 64);
        let qb = quantize_block(&block, &calib, &QoqConfig::default());
        for ((_, orig), (_, fake)) in block.layers().iter().zip(qb.fake.layers().iter()) {
            assert_eq!(orig.shape(), fake.shape());
        }
    }

    #[test]
    fn qoq_beats_rtn_on_outlier_data() {
        // The headline accuracy claim (Table 2): QoQ < RTN damage.
        let mut rng = TensorRng::seed(3);
        let block = test_block(&mut rng, 64, 4, 2);
        let calib = outlier_calib(&mut rng, 64, 64);
        let g = WeightGranularity::PerGroup(32);
        let qoq = quantize_block(&block, &calib, &QoqConfig {
            weight_granularity: g,
            ..QoqConfig::w4a8kv4_g128()
        });
        let rtn = quantize_block(&block, &calib, &QoqConfig::rtn(g));
        // Compare end-to-end block-input→qkv output error.
        let err = |qb: &QuantizedBlock| -> f64 {
            let y0 = calib.matmul_nt(&block.wq);
            let y1 = calib.matmul_nt(&qb.fake.wq);
            qserve_tensor::stats::mse(&y0, &y1)
        };
        assert!(
            err(&qoq) < err(&rtn),
            "QoQ {} should beat RTN {}",
            err(&qoq),
            err(&rtn)
        );
    }

    #[test]
    fn per_channel_config_runs() {
        let mut rng = TensorRng::seed(4);
        let block = test_block(&mut rng, 64, 4, 2);
        let calib = outlier_calib(&mut rng, 16, 64);
        let qb = quantize_block(&block, &calib, &QoqConfig::w4a8kv4_per_channel());
        assert!(matches!(qb.deployed[0].1, DeployedWeight::PerChannel(_)));
    }

    #[test]
    fn ablation_monotonic_techniques_help() {
        // The full recipe should beat plain RTN on W4A8-style error that
        // includes *activation* quantization (rotation's benefit lives on
        // the A8 side — Figure 16's downward staircase).
        let mut rng = TensorRng::seed(5);
        let mut block = test_block(&mut rng, 128, 4, 2);
        // Real LLM weights are heavy-tailed (motivating clipping, §4.3.4);
        // give the query projection that pathology.
        block.wq = rng.heavy_tailed(128, 128, 0.05, 0.02, 10.0);
        let calib = outlier_calib(&mut rng, 64, 128);
        let g = WeightGranularity::PerGroup(32);
        let y_ref = calib.matmul_nt(&block.wq);
        // W4A8 error with the fake-quant weights and per-token INT8 inputs
        // quantized in the deployed (possibly rotated) frame.
        let err_for = |cfg: &QoqConfig| {
            use qserve_quant::matrixq::rtn_fake_quant;
            let qb = quantize_block(&block, &calib, cfg);
            // The block input as deployment quantizes it: rotate into the
            // deployed frame, per-token symmetric INT8, rotate back.
            let spec = QuantSpec::int8_symmetric(Granularity::PerRow);
            let x_q = match &qb.input_rotation {
                Some(q) => rtn_fake_quant(&calib.matmul_nn(q), spec).matmul_nt(q),
                None => rtn_fake_quant(&calib, spec),
            };
            let y1 = x_q.matmul_nt(&qb.fake.wq);
            qserve_tensor::stats::mse(&y_ref, &y1)
        };
        let base = err_for(&QoqConfig::rtn(g));
        let full = err_for(&QoqConfig {
            weight_granularity: g,
            ..QoqConfig::w4a8kv4_g128()
        });
        assert!(full < base, "full recipe should help: {} vs {}", full, base);
        // Rotation alone must not regress the weight-only error noticeably.
        let with_rot = err_for(&QoqConfig {
            rotation: true,
            ..QoqConfig::rtn(g)
        });
        assert!(
            with_rot < base * 1.25,
            "rotation alone should be roughly neutral on this metric: {} vs {}",
            with_rot,
            base
        );
    }

    #[test]
    fn rotation_matrix_identity_for_odd() {
        let q = block_rotation_matrix(7);
        assert_eq!(q, Matrix::eye(7));
    }

    #[test]
    fn rotation_matrix_orthogonal_for_mixed() {
        // 96 = 32 * 3 → chunk 32 block-diagonal.
        let q = block_rotation_matrix(96);
        let prod = q.matmul_nt(&q);
        for i in 0..96 {
            for j in 0..96 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn tile_lambda_replicates() {
        let l = vec![1.0, 2.0, 3.0, 4.0];
        let tiled = tile_lambda(&l, 8);
        assert_eq!(tiled, vec![1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn effective_group_shrinks_to_fit() {
        assert_eq!(effective_group(128, 64), 64);
        assert_eq!(effective_group(128, 96), 96); // whole row is one group
        assert_eq!(effective_group(64, 96), 32); // halved until it divides
        assert_eq!(effective_group(128, 7), 7); // whole (tiny) row
        assert_eq!(effective_group(4, 6), 2);
    }
}
