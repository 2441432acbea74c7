//! Reference forward pass (§2.1's block structure: RMSNorm → GQA attention
//! with RoPE → residual → RMSNorm → SwiGLU FFN → residual).

use crate::synth::SyntheticModel;
use qserve_core::kv_quant::{dequantize_token_row, quantize_token_row, KvPrecision};
use qserve_core::pipeline::{gqa_kv_map, BlockWeights};
use qserve_tensor::ops::{attention_causal, rmsnorm, rope_matrix, swiglu};
use qserve_tensor::Matrix;

/// Fake-quantizes a K or V activation per token and per head, as the KV
/// cache write path would (§5.1's dynamic per-head quantization).
fn fake_quant_kv(x: &Matrix, head_dim: usize, precision: KvPrecision) -> Matrix {
    if precision == KvPrecision::Fp16 {
        return x.clone();
    }
    let mut out = Matrix::zeros(x.rows(), x.cols());
    for t in 0..x.rows() {
        let q = quantize_token_row(x.row(t), head_dim, precision);
        out.row_mut(t).copy_from_slice(&dequantize_token_row(&q));
    }
    out
}

/// Runs one transformer block on a `tokens × hidden` input (prefill-style,
/// causal) in full precision. Returns the block output (with residuals
/// applied).
pub fn block_forward(
    x: &Matrix,
    block: &BlockWeights,
    attn_norm: &[f32],
    ffn_norm: &[f32],
    rope_base: f32,
) -> Matrix {
    block_forward_full(x, block, attn_norm, ffn_norm, rope_base, KvPrecision::Fp16, &ActQuant::None)
}

/// How GEMM-input activations are treated during a forward pass.
#[derive(Debug, Clone)]
pub enum ActQuant {
    /// Full precision (the FP16 reference, and W4A16 deployments).
    None,
    /// Per-token symmetric integer quantization at every GEMM input —
    /// QServe's A8 deployment at `bits = 8` ("activation quantization
    /// happens in normalization and activation layers … a separate
    /// quantization node is inserted before output projection", §5.1),
    /// Atom/QuaRot's A4 at `bits = 4`. Block inputs are quantized in the
    /// deployed frame: rotated first when rotation is enabled.
    PerToken {
        /// Activation bit width (8 for W4A8, 4 for W4A4).
        bits: u8,
        /// The block-input rotation (`QuantizedBlock::input_frame`'s).
        rotation: Option<Matrix>,
    },
}

impl ActQuant {
    fn spec(bits: u8) -> qserve_quant::QuantSpec {
        use qserve_quant::{Granularity, QuantSpec};
        QuantSpec {
            bits,
            symmetric: true,
            signed: true,
            granularity: Granularity::PerRow,
            range_clamp: None,
        }
    }

    /// Fake-quantizes a *block-input* activation: in the rotated frame when
    /// there is one, and back.
    fn block_input(&self, x: &Matrix) -> Matrix {
        match self {
            ActQuant::PerToken { rotation: Some(q), .. } => {
                self.intermediate(&x.matmul_nn(q)).matmul_nt(q)
            }
            _ => self.intermediate(x),
        }
    }

    /// Fake-quantizes an intermediate (output-module input) activation.
    fn intermediate(&self, x: &Matrix) -> Matrix {
        use qserve_quant::matrixq::rtn_fake_quant;
        match self {
            ActQuant::None => x.clone(),
            ActQuant::PerToken { bits, .. } => rtn_fake_quant(x, Self::spec(*bits)),
        }
    }
}

/// The block forward: the KV activations squeezed through a quantized KV
/// cache at `kv_precision` (the accuracy cost KV4 incurs) and
/// deployment-faithful activation quantization.
pub fn block_forward_full(
    x: &Matrix,
    block: &BlockWeights,
    attn_norm: &[f32],
    ffn_norm: &[f32],
    rope_base: f32,
    kv_precision: KvPrecision,
    act_quant: &ActQuant,
) -> Matrix {
    let d = block.head_dim;
    let hidden = block.wq.cols();
    let heads = block.wq.rows() / d;
    let kv_head_of = gqa_kv_map(block.wk.rows() / d, heads, 1);

    // ---- Attention ----
    let normed = act_quant.block_input(&rmsnorm(x, attn_norm, 1e-5));
    let mut q = normed.matmul_nt(&block.wq);
    let mut k = normed.matmul_nt(&block.wk);
    let v = normed.matmul_nt(&block.wv);
    rope_matrix(&mut q, d, 0, rope_base);
    rope_matrix(&mut k, d, 0, rope_base);
    let k = fake_quant_kv(&k, d, kv_precision);
    let v = fake_quant_kv(&v, d, kv_precision);

    let tokens = x.rows();
    let mut attn_out = Matrix::zeros(tokens, heads * d);
    for (h, &kv_h) in kv_head_of.iter().enumerate() {
        let qh = q.slice_cols(h * d, (h + 1) * d);
        let kh = k.slice_cols(kv_h * d, (kv_h + 1) * d);
        let vh = v.slice_cols(kv_h * d, (kv_h + 1) * d);
        let oh = attention_causal(&qh, &kh, &vh);
        for t in 0..tokens {
            attn_out.row_mut(t)[h * d..(h + 1) * d].copy_from_slice(oh.row(t));
        }
    }
    let attn_out = act_quant.intermediate(&attn_out);
    let x = x.add(&attn_out.matmul_nt(&block.wo));

    // ---- FFN ----
    let normed = act_quant.block_input(&rmsnorm(&x, ffn_norm, 1e-5));
    let gate = normed.matmul_nt(&block.w_gate);
    let up = normed.matmul_nt(&block.w_up);
    let inter = act_quant.intermediate(&swiglu(&gate, &up));
    debug_assert_eq!(inter.cols(), block.w_down.cols());
    debug_assert_eq!(x.cols(), hidden);
    x.add(&inter.matmul_nt(&block.w_down))
}

/// The embedding rows of `tokens` (`tokens × hidden`), ids taken modulo the
/// vocabulary.
pub fn embed(model: &SyntheticModel, tokens: &[u32]) -> Matrix {
    let mut x = Matrix::zeros(tokens.len(), model.config.hidden);
    for (t, &id) in tokens.iter().enumerate() {
        x.row_mut(t)
            .copy_from_slice(model.embedding.row(id as usize % model.config.vocab));
    }
    x
}

/// Final norm and the LM head (tied to the embedding table): hidden states
/// → logits (`rows × vocab`).
pub fn lm_head(model: &SyntheticModel, hidden: &Matrix) -> Matrix {
    // Temperature 1/√hidden keeps the random model's logit range sane so
    // pseudo-perplexity differences are numerically meaningful.
    let h = model.config.hidden;
    rmsnorm(hidden, &model.final_norm, 1e-5)
        .matmul_nt(&model.embedding)
        .scale(1.0 / (h as f32).sqrt())
}

/// The model forward: embeds `tokens` and runs every block through
/// [`block_forward_full`] with `act_quant(layer)`. Returns the residual
/// stream — entry `l` is block `l`'s input, the last entry the final hidden
/// state [`lm_head`] reads.
pub fn forward_hidden(
    model: &SyntheticModel,
    tokens: &[u32],
    kv_precision: KvPrecision,
    act_quant: impl Fn(usize) -> ActQuant,
) -> Vec<Matrix> {
    let mut stream = vec![embed(model, tokens)];
    for (layer, (block, (attn_norm, ffn_norm))) in model.blocks.iter().zip(&model.norms).enumerate() {
        let aq = act_quant(layer);
        let x = &stream[layer];
        stream.push(block_forward_full(x, block, attn_norm, ffn_norm, model.rope_base, kv_precision, &aq));
    }
    stream
}

/// Full-precision model forward: token ids → logits (`tokens × vocab`).
pub fn forward_logits(model: &SyntheticModel, tokens: &[u32]) -> Matrix {
    let stream = forward_hidden(model, tokens, KvPrecision::Fp16, |_| ActQuant::None);
    lm_head(model, &stream[model.blocks.len()])
}

/// Collects the *block inputs* at every layer of the full-precision model
/// for calibration — what `qserve_core::pipeline::quantize_block` consumes.
pub fn collect_calibration(model: &SyntheticModel, tokens: &[u32]) -> Vec<Matrix> {
    let mut stream = forward_hidden(model, tokens, KvPrecision::Fp16, |_| ActQuant::None);
    stream.truncate(model.blocks.len());
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SyntheticModel;
    use qserve_tensor::rng::TensorRng;

    #[test]
    fn forward_produces_finite_logits() {
        let m = SyntheticModel::small(2);
        let mut rng = TensorRng::seed(1);
        let tokens = rng.token_sequence(16, m.config.vocab);
        let logits = forward_logits(&m, &tokens);
        assert_eq!(logits.shape(), (16, m.config.vocab));
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_is_deterministic() {
        let m = SyntheticModel::small(2);
        let tokens = vec![1, 2, 3, 4];
        assert_eq!(forward_logits(&m, &tokens), forward_logits(&m, &tokens));
    }

    #[test]
    fn causality_prefix_invariance() {
        // Logits at position t must not depend on tokens after t.
        let m = SyntheticModel::small(2);
        let t1 = vec![5, 6, 7, 8, 9];
        let t2 = vec![5, 6, 7, 1, 2];
        let l1 = forward_logits(&m, &t1);
        let l2 = forward_logits(&m, &t2);
        for (a, b) in l1.row(2).iter().zip(l2.row(2)) {
            assert!((a - b).abs() < 1e-4, "position 2 must be prefix-determined");
        }
    }

    #[test]
    fn calibration_layers_match_block_count() {
        let m = SyntheticModel::small(3);
        let calib = collect_calibration(&m, &[1, 2, 3]);
        assert_eq!(calib.len(), 3);
        assert_eq!(calib[0].shape(), (3, m.config.hidden));
    }

    #[test]
    fn gqa_forward_runs() {
        // Llama-3-style 4:1 GQA at reduced scale.
        let full = crate::config::ModelConfig::llama3_8b();
        let cfg = SyntheticModel::reduced_config(&full, 128, 2);
        let m = SyntheticModel::generate(cfg, crate::synth::SynthesisOptions::default());
        let logits = forward_logits(&m, &[1, 2, 3]);
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn residual_stream_grows_bounded() {
        // Residual additions shouldn't explode for the default weight std.
        let m = SyntheticModel::small(4);
        let calib = collect_calibration(&m, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let first = calib[0].frobenius_norm();
        let last = calib.last().unwrap().frobenius_norm();
        assert!(last / first < 100.0, "residual stream exploded: {} → {}", first, last);
    }
}
