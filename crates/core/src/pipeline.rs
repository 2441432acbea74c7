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
//! Stages 2, 3 and 5 are folded into the weights. Stages 1 and 4 change the
//! *frame* a deployed GEMM reads its input in, so the artifact says how to
//! feed it — one [`ActivationFrame`] per quantization node:
//!
//! * the block input (read by `q/k/v` and `gate/up`): rotated, then gathered
//!   by the node's channel order;
//! * the attention output (read by `out_proj`): gathered;
//! * the FFN intermediate (read by `down_proj`): gathered.
//!
//! Where a KV-width quantity meets a query-width one (SmoothAttention's λ,
//! out_proj's smoothing and calibration), [`gqa_kv_map`] is the one
//! definition of which query heads share which KV head.
//!
//! The returned [`QuantizedBlock`] carries both the *deployment* form
//! (quantized codes per layer, plus the three frames) and a *fake-quantized*
//! [`BlockWeights`] mapped back to the original frame — every transform
//! applied, the weight quantized, then the transform inverted — so accuracy
//! evaluation can drop the fake weights into an unmodified forward pass.
//! This mirrors how AWQ/QuaRot-style papers evaluate transformed
//! quantization schemes; `tests/deployed_is_what_is_evaluated.rs` holds the
//! two forms to the same function.

use crate::clipping::{default_grid, search_clip_layer_output};
use crate::kv_quant::KvPrecision;
use crate::progressive::{PerChannelW4, ProgressiveWeight};
use crate::reorder::ChannelReorder;
use crate::rotation::hadamard;
use crate::smooth_attention::SmoothAttentionScales;
use crate::smoothing::{default_alpha_grid, search_smoothing, search_smoothing_from_stats};
use qserve_quant::{Granularity, QuantSpec};
use qserve_tensor::ops::swiglu;
use qserve_tensor::stats::col_abs_max;
use qserve_tensor::Matrix;
use std::borrow::Cow;

/// SmoothAttention's exponent α (§4.2: 0.5 is "good enough in practice").
const SMOOTH_ATTENTION_ALPHA: f32 = 0.5;

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
    /// Enable block output smoothing (§4.3.2). The migration strength is
    /// grid-searched per layer with a quantization-aware objective
    /// (`search_smoothing`; the paper fixes it near 0 for the real
    /// checkpoints).
    pub output_smoothing: bool,
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
            output_smoothing: true,
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
            output_smoothing: false,
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

/// Position of `q_proj` in [`BlockWeights::layers`] order — the order of
/// [`QuantizedBlock::deployed`] and [`QuantizedBlock::reports`] too.
pub const Q_PROJ: usize = 0;
/// Position of `k_proj`.
pub const K_PROJ: usize = 1;
/// Position of `v_proj`.
pub const V_PROJ: usize = 2;
/// Position of `out_proj`, the one reader of the attention-output frame.
pub const OUT_PROJ: usize = 3;
/// Position of `gate_proj`.
pub const GATE_PROJ: usize = 4;
/// Position of `up_proj`.
pub const UP_PROJ: usize = 5;
/// Position of `down_proj`, the one reader of the FFN-intermediate frame.
pub const DOWN_PROJ: usize = 6;

impl BlockWeights {
    /// Hidden (block input/output) width.
    pub fn hidden(&self) -> usize {
        self.wq.cols()
    }

    /// Names and references of the seven linear layers, in the fixed order
    /// [`Q_PROJ`] … [`DOWN_PROJ`] name.
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

    /// The inverse of [`Self::layers`]: a block from its seven projections
    /// in that order.
    fn from_layers(layers: [Matrix; 7], head_dim: usize) -> Self {
        let [wq, wk, wv, wo, w_gate, w_up, w_down] = layers;
        Self { wq, wk, wv, wo, w_gate, w_up, w_down, head_dim }
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

/// The GQA head layout, spelled once: query head `h` reads KV head
/// `h / (heads / kv_heads)`, so the query heads sharing a KV head are
/// contiguous. Returns, for each of the `query_width` query-side channels,
/// the KV-side channel it pairs with; widening a KV-width vector or matrix
/// is a gather through the map, the fold back a reduction over it. With
/// `head_dim = 1` the widths are head counts and the map is head to head.
///
/// # Panics
/// Panics unless `head_dim` divides both widths and the KV head count
/// divides the query head count.
pub fn gqa_kv_map(kv_width: usize, query_width: usize, head_dim: usize) -> Vec<usize> {
    assert!(
        head_dim > 0 && kv_width % head_dim == 0 && query_width % head_dim == 0,
        "widths {} / {} are not whole heads of {}",
        kv_width,
        query_width,
        head_dim
    );
    let (kv_heads, heads) = (kv_width / head_dim, query_width / head_dim);
    assert!(
        kv_heads > 0 && heads % kv_heads == 0,
        "query heads {} not a multiple of kv heads {}",
        heads,
        kv_heads
    );
    let group = heads / kv_heads;
    (0..query_width).map(|c| c / head_dim / group * head_dim + c % head_dim).collect()
}

/// How a floating-point activation must be presented to the deployed GEMMs
/// of one quantization node, before per-token INT8: rotated (§4.3.1, the
/// block input only), then gathered into the channel order the node's
/// per-group weights were quantized in (§4.3.3). QServe fuses both into the
/// norm / activation kernel that writes the INT8 tensor; this stack applies
/// them at the node.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationFrame {
    /// The rotation `Q` (`x ← xQ`), when this is the block input and
    /// rotation is on.
    pub rotation: Option<Matrix>,
    /// The channel gather, when reordering is on and weights are per-group.
    pub reorder: Option<ChannelReorder>,
}

impl ActivationFrame {
    /// `x` in this frame — what the node quantizes.
    pub fn apply<'a>(&self, x: &'a Matrix) -> Cow<'a, Matrix> {
        let mut x = Cow::Borrowed(x);
        if let Some(q) = &self.rotation {
            x = Cow::Owned(x.matmul_nn(q));
        }
        if let Some(r) = &self.reorder {
            x = Cow::Owned(r.apply_to_activation(&x));
        }
        x
    }
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
    /// Frame of the block input, read by `q/k/v` and `gate/up`. Evaluation
    /// over [`Self::fake`] quantizes block inputs under its rotation to see
    /// rotation's benefit on the A8 side (the gather it can skip: per-token
    /// absmax quantization is invariant under a channel permutation).
    pub input_frame: ActivationFrame,
    /// Frame of the attention output, read by `out_proj`.
    pub attn_out_frame: ActivationFrame,
    /// Frame of the FFN intermediate, read by `down_proj`.
    pub ffn_inter_frame: ActivationFrame,
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
    let rot = cfg.rotation.then(|| block_rotation_matrix(hidden));
    let rotate_in = |w: &Matrix| -> Matrix {
        match &rot {
            Some(q) => w.matmul_nn(q),
            None => w.clone(),
        }
    };
    let calib_rot = rotate_in(calib_x);

    let mut wq = rotate_in(&block.wq);
    let mut wk = rotate_in(&block.wk);
    let mut wv = rotate_in(&block.wv);
    let w_gate = rotate_in(&block.w_gate);
    let mut w_up = rotate_in(&block.w_up);
    let mut wo = block.wo.clone();
    let mut w_down = block.w_down.clone();

    // W_Q's rows and W_O's columns are query-wide, W_K's and W_V's rows
    // KV-wide: every fold that pairs them widens through this map.
    let kv_of = gqa_kv_map(wk.rows(), wq.rows(), block.head_dim);

    // ------------------------------------------------------------------
    // Stage 2: SmoothAttention (uses pre-RoPE keys from calibration).
    // ------------------------------------------------------------------
    let smooth_attn = if cfg.smooth_attention {
        let keys = calib_rot.matmul_nt(&wk);
        let s = SmoothAttentionScales::from_keys(&keys, block.head_dim, SMOOTH_ATTENTION_ALPHA);
        let q_lambda = tile_lambda(s.lambda(), &kv_of);
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
    // once per query head of its group, so λ must be constant across a
    // group for the producer fold into W_V to stay exact. We therefore
    // compute λ at KV width from group-aggregated consumer statistics and
    // widen it across the groups.
    let smooth_o = if cfg.output_smoothing {
        let v_act = calib_rot.matmul_nt(&wv);
        let ax = col_abs_max(&v_act);
        let mut aw = vec![0.0f32; ax.len()];
        for (&j, &a) in kv_of.iter().zip(&col_abs_max(&wo)) {
            aw[j] = aw[j].max(a);
        }
        let o_in = tile_cols(&v_act, &kv_of);
        let spec = clip_spec(group, wo.cols());
        let (s, _) =
            search_smoothing_from_stats(&o_in, &wo, &ax, &aw, &kv_of, spec, &default_alpha_grid());
        let lambda_tiled = tile_lambda(s.lambda(), &kv_of);
        wo = wo.scale_cols(&lambda_tiled);
        wv = s.fold_into_producer(&wv);
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
        let spec = clip_spec(group, w_down.cols());
        let (s, _) = search_smoothing(&inter, &w_down, spec, &default_alpha_grid());
        w_down = s.fold_into_consumer(&w_down);
        w_up = s.fold_into_producer(&w_up);
        Some(s)
    } else {
        None
    };

    // ------------------------------------------------------------------
    // Stage 4 per quantization node: the frame its GEMMs read, and the
    // node's calibration activations in that frame.
    // ------------------------------------------------------------------
    let attn_out_calib = tile_cols(&calib_rot.matmul_nt(&wv), &kv_of);
    let ffn_inter_calib = swiglu(&gate_act, &calib_rot.matmul_nt(&w_up));
    let node = |rotation: Option<Matrix>, calib: Matrix| -> (ActivationFrame, Matrix) {
        let reorder = (cfg.channel_reorder && group.is_some())
            .then(|| ChannelReorder::from_activations(&calib));
        let calib = match &reorder {
            Some(r) => r.apply_to_activation(&calib),
            None => calib,
        };
        (ActivationFrame { rotation, reorder }, calib)
    };
    let (input_frame, input_calib) = node(rot, calib_rot);
    let (attn_out_frame, attn_out_calib) = node(None, attn_out_calib);
    let (ffn_inter_frame, ffn_inter_calib) = node(None, ffn_inter_calib);

    // ------------------------------------------------------------------
    // Stages 4-6 per layer: reorder → clip → quantize, then undo the
    // reorder for the fake-quant frame.
    // ------------------------------------------------------------------
    let transformed = BlockWeights { wq, wk, wv, wo, w_gate, w_up, w_down, head_dim: block.head_dim };
    let mut deployed = Vec::with_capacity(7);
    let mut fake_transformed = Vec::with_capacity(7);
    let mut clip_alphas = Vec::with_capacity(7);
    for (layer, (name, w)) in transformed.layers().into_iter().enumerate() {
        let (frame, calib) = match layer {
            OUT_PROJ => (&attn_out_frame, &attn_out_calib),
            DOWN_PROJ => (&ffn_inter_frame, &ffn_inter_calib),
            _ => (&input_frame, &input_calib),
        };
        let w_re = match &frame.reorder {
            Some(r) => r.apply_to_weight(w),
            None => w.clone(),
        };
        let clip_alpha = if cfg.weight_clipping {
            let spec = clip_spec(group, w_re.cols());
            search_clip_layer_output(calib, &w_re, spec, &default_grid()).alpha
        } else {
            1.0
        };
        let w_clipped = clip_weight(&w_re, clip_alpha);

        let dep = match group {
            Some(g) => {
                let g = effective_group(g, w_clipped.cols());
                DeployedWeight::Progressive(ProgressiveWeight::quantize(&w_clipped, g))
            }
            None => DeployedWeight::PerChannel(PerChannelW4::quantize(&w_clipped)),
        };
        let fake_re = dep.dequantize();
        fake_transformed.push(match &frame.reorder {
            Some(r) => r.inverse().apply_to_weight(&fake_re),
            None => fake_re,
        });
        deployed.push((name.to_string(), dep));
        clip_alphas.push(clip_alpha);
    }

    // ------------------------------------------------------------------
    // Invert stages 3 → 2 → 1 to express fake weights in the original frame.
    // ------------------------------------------------------------------
    let layers: [Matrix; 7] = fake_transformed.try_into().expect("seven layers quantized");
    let mut fake = BlockWeights::from_layers(layers, block.head_dim);
    let inverse = |lambda: &[f32]| -> Vec<f32> { lambda.iter().map(|l| 1.0 / l).collect() };
    if let Some(s) = &smooth_d {
        fake.w_down = fake.w_down.scale_cols(&inverse(s.lambda()));
        fake.w_up = fake.w_up.scale_rows(s.lambda());
    }
    if let Some((s, lambda_tiled)) = &smooth_o {
        fake.wo = fake.wo.scale_cols(&inverse(lambda_tiled));
        fake.wv = fake.wv.scale_rows(s.lambda());
    }
    if let Some((s, q_lambda)) = &smooth_attn {
        fake.wq = fake.wq.scale_rows(&inverse(q_lambda));
        fake.wk = fake.wk.scale_rows(s.lambda());
    }
    if let Some(q) = &input_frame.rotation {
        // W·Qᵀ undoes W·Q for orthogonal Q.
        for w in [&mut fake.wq, &mut fake.wk, &mut fake.wv, &mut fake.w_gate, &mut fake.w_up] {
            *w = w.matmul_nt(q);
        }
    }

    let reports = block
        .layers()
        .iter()
        .zip(fake.layers().iter())
        .zip(clip_alphas)
        .map(|(((name, orig), (_, fq)), clip_alpha)| LayerReport {
            name: (*name).to_string(),
            weight_sqnr_db: qserve_tensor::stats::sqnr_db(orig, fq),
            clip_alpha,
        })
        .collect();

    QuantizedBlock { fake, deployed, reports, input_frame, attn_out_frame, ffn_inter_frame }
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

/// Widens a KV-width λ to query width through a [`gqa_kv_map`].
fn tile_lambda(lambda: &[f32], kv_of: &[usize]) -> Vec<f32> {
    kv_of.iter().map(|&j| lambda[j]).collect()
}

/// Widens KV-width activation columns to query width through a
/// [`gqa_kv_map`] (each V channel replicated to the query heads reading it).
fn tile_cols(x: &Matrix, kv_of: &[usize]) -> Matrix {
    Matrix::from_fn(x.rows(), kv_of.len(), |i, c| x[(i, kv_of[c])])
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
        assert!(matches!(qb.deployed[Q_PROJ].1, DeployedWeight::PerChannel(_)));
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
            let x_q = match &qb.input_frame.rotation {
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
        // Two KV heads of width 2 under four query heads: each KV head's λ
        // lands on the two contiguous query heads of its group — not on
        // every other one, which a single KV head cannot tell apart.
        let l = vec![1.0, 2.0, 3.0, 4.0];
        let tiled = tile_lambda(&l, &gqa_kv_map(4, 8, 2));
        assert_eq!(tiled, vec![1.0, 2.0, 1.0, 2.0, 3.0, 4.0, 3.0, 4.0]);
        // Head to head (`head_dim = 1`): 8 query heads over 2 KV heads.
        assert_eq!(gqa_kv_map(2, 8, 1), vec![0, 0, 0, 0, 1, 1, 1, 1]);
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
