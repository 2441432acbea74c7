//! Accuracy evaluation: pseudo-perplexity and output-agreement proxies.
//!
//! The real WikiText2 / lm-eval / LongBench datasets and checkpoints are
//! unavailable here (DESIGN.md §1). The substitution:
//!
//! * **Pseudo-perplexity** — exp(mean next-token cross-entropy) of the
//!   synthetic model on synthetic token streams. Quantization damage raises
//!   it exactly as it raises WikiText2 perplexity, so the *orderings and
//!   deltas* of Table 2 / Figure 16 are reproducible.
//! * **Top-1 agreement** — fraction of positions where the quantized model's
//!   argmax matches the FP16 model's: a zero-shot-accuracy proxy for
//!   Tables 3/5 (FP16 scores 1.0 by construction; each scheme's deficit
//!   mirrors its accuracy drop).

use crate::forward::{collect_calibration, forward_hidden, lm_head, ActQuant};
use crate::synth::SyntheticModel;
use qserve_core::kv_quant::KvPrecision;
use qserve_core::pipeline::{quantize_block, QoqConfig, QuantizedBlock};
use qserve_tensor::Matrix;

/// Exp of the mean next-token cross-entropy of `logits` against the shifted
/// token stream.
///
/// # Panics
/// Panics if fewer than 2 tokens.
pub fn pseudo_perplexity_from_logits(logits: &Matrix, tokens: &[u32]) -> f64 {
    assert!(tokens.len() >= 2, "need at least two tokens");
    assert_eq!(logits.rows(), tokens.len());
    let mut nll = 0.0f64;
    let count = tokens.len() - 1;
    for t in 0..count {
        let row = logits.row(t);
        let target = tokens[t + 1] as usize % logits.cols();
        // log-softmax, numerically stable.
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let lse: f64 = row.iter().map(|&v| f64::from(v - max).exp()).sum::<f64>().ln()
            + f64::from(max);
        nll += lse - f64::from(row[target]);
    }
    (nll / count as f64).exp()
}

/// Index of the largest logit — the greedy sampler. Among equal maxima the
/// last wins (`Iterator::max_by`); 0 for an empty row.
pub fn argmax(logits: &[f32]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Fraction of positions whose argmax token matches between two logit sets.
pub fn top1_agreement(reference: &Matrix, candidate: &Matrix) -> f64 {
    assert_eq!(reference.shape(), candidate.shape());
    if reference.rows() == 0 {
        return 1.0;
    }
    let mut hits = 0usize;
    for t in 0..reference.rows() {
        if argmax(reference.row(t)) == argmax(candidate.row(t)) {
            hits += 1;
        }
    }
    hits as f64 / reference.rows() as f64
}

/// A fake-quantized model plus the per-block input rotations deployment
/// would apply before activation quantization.
#[derive(Debug, Clone)]
// lint: allow(unreferenced-pub) -- return type of `quantize_model`; callers read its fields
pub struct QuantizedModel {
    /// The model with fake-quantized block weights.
    pub model: SyntheticModel,
    /// Per-block input rotation matrices (None when rotation is off).
    pub rotations: Vec<Option<Matrix>>,
    /// KV precision for deployment-faithful evaluation.
    pub kv_precision: KvPrecision,
}

/// Quantizes every block of `model` with QoQ, each calibrated on its own
/// full-precision input over `calib_tokens` — the one deployment loop:
/// evaluation keeps each artifact's fake weights ([`quantize_model`]), the
/// serving runtime its deployed ones.
pub fn quantize_blocks(
    model: &SyntheticModel,
    cfg: &QoqConfig,
    calib_tokens: &[u32],
) -> Vec<QuantizedBlock> {
    let calib = collect_calibration(model, calib_tokens);
    model.blocks.iter().zip(&calib).map(|(b, x)| quantize_block(b, x, cfg)).collect()
}

/// [`quantize_blocks`], keeping what evaluation reads: the fake-quantized
/// model (weights replaced layer by layer) and each block's input rotation.
pub fn quantize_model(
    model: &SyntheticModel,
    cfg: &QoqConfig,
    calib_tokens: &[u32],
) -> QuantizedModel {
    let (blocks, rotations) = quantize_blocks(model, cfg, calib_tokens)
        .into_iter()
        .map(|qb| (qb.fake, qb.input_frame.rotation))
        .unzip();
    QuantizedModel {
        model: model.with_blocks(blocks),
        rotations,
        kv_precision: cfg.kv_precision,
    }
}

/// Generic quantized forward pass: any activation bit width (None = FP16
/// activations, as in W4A16), per-block rotations, any KV precision. Used by
/// the benchmark harness to model baseline schemes (W8A8, W4A16, W4A4).
pub fn custom_forward_logits(
    model: &SyntheticModel,
    rotations: &[Option<Matrix>],
    act_bits: Option<u8>,
    kv: KvPrecision,
    tokens: &[u32],
) -> Matrix {
    assert_eq!(rotations.len(), model.blocks.len(), "rotation count mismatch");
    let stream = forward_hidden(model, tokens, kv, |layer| match act_bits {
        Some(bits) => ActQuant::PerToken { bits, rotation: rotations[layer].clone() },
        None => ActQuant::None,
    });
    lm_head(model, &stream[model.blocks.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserve_core::pipeline::WeightGranularity;
    use qserve_tensor::rng::TensorRng;

    fn tokens(seed: u64, len: usize, vocab: usize) -> Vec<u32> {
        TensorRng::seed(seed).token_sequence(len, vocab)
    }

    /// Pseudo-perplexity of a model (optionally with KV fake quantization).
    fn pseudo_perplexity(model: &SyntheticModel, tokens: &[u32], kv: KvPrecision) -> f64 {
        let no_rot = vec![None; model.blocks.len()];
        let logits = custom_forward_logits(model, &no_rot, None, kv, tokens);
        pseudo_perplexity_from_logits(&logits, tokens)
    }

    /// One quantization configuration's damage, end to end.
    struct SchemeEval {
        /// Pseudo-perplexity (lower is better).
        perplexity: f64,
        /// Top-1 agreement with the FP16 model (1.0 = perfect).
        agreement: f64,
        /// Mean squared logit distortion vs the FP16 model (lower is better) —
        /// the least-noisy damage metric at reduced model scale.
        distortion: f64,
    }

    /// Quantizes with `cfg`, then runs the deployment-faithful forward pass:
    /// INT8 per-token activations at every GEMM input (rotated frame where
    /// applicable) and the configuration's KV precision.
    fn evaluate_scheme(
        model: &SyntheticModel,
        cfg: &QoqConfig,
        calib_tokens: &[u32],
        eval_tokens: &[u32],
    ) -> SchemeEval {
        let q = quantize_model(model, cfg, calib_tokens);
        let ref_logits = crate::forward::forward_logits(model, eval_tokens);
        let q_logits =
            custom_forward_logits(&q.model, &q.rotations, Some(8), q.kv_precision, eval_tokens);
        SchemeEval {
            perplexity: pseudo_perplexity_from_logits(&q_logits, eval_tokens),
            agreement: top1_agreement(&ref_logits, &q_logits),
            distortion: qserve_tensor::stats::mse(&ref_logits, &q_logits),
        }
    }

    #[test]
    fn uniform_logits_ppl_equals_vocab() {
        let logits = Matrix::zeros(8, 100);
        let toks: Vec<u32> = (0..8).collect();
        let ppl = pseudo_perplexity_from_logits(&logits, &toks);
        assert!((ppl - 100.0).abs() < 1e-6);
    }

    #[test]
    fn confident_correct_logits_ppl_near_one() {
        let toks: Vec<u32> = vec![1, 2, 3, 4];
        let mut logits = Matrix::zeros(4, 10);
        for t in 0..3 {
            logits[(t, toks[t + 1] as usize)] = 50.0;
        }
        assert!(pseudo_perplexity_from_logits(&logits, &toks) < 1.01);
    }

    #[test]
    fn top1_agreement_self_is_one() {
        let m = Matrix::from_fn(4, 8, |i, j| ((i * 7 + j * 3) % 5) as f32);
        assert_eq!(top1_agreement(&m, &m), 1.0);
    }

    #[test]
    fn quantization_increases_perplexity() {
        let model = SyntheticModel::small(2);
        let calib = tokens(1, 48, model.config.vocab);
        let eval = tokens(2, 48, model.config.vocab);
        let base = pseudo_perplexity(&model, &eval, KvPrecision::Fp16);
        let cfg = QoqConfig {
            weight_granularity: WeightGranularity::PerGroup(32),
            ..QoqConfig::w4a8kv4_g128()
        };
        let s = evaluate_scheme(&model, &cfg, &calib, &eval);
        assert!(
            s.perplexity >= base * 0.98,
            "quantized ppl {} should not beat fp16 {} meaningfully",
            s.perplexity,
            base
        );
        assert!(s.perplexity < base * 2.0, "damage should be bounded");
        assert!(s.agreement > 0.3, "agreement collapsed: {}", s.agreement);
    }

    #[test]
    fn qoq_beats_rtn_end_to_end() {
        // The Table 2 headline at model scale.
        let model = SyntheticModel::small(2);
        let calib = tokens(3, 64, model.config.vocab);
        let eval = tokens(4, 64, model.config.vocab);
        let g = WeightGranularity::PerGroup(32);
        let qoq = evaluate_scheme(
            &model,
            &QoqConfig {
                weight_granularity: g,
                ..QoqConfig::w4a8kv4_g128()
            },
            &calib,
            &eval,
        );
        let rtn = evaluate_scheme(&model, &QoqConfig::rtn(g), &calib, &eval);
        assert!(
            qoq.distortion < rtn.distortion,
            "QoQ distortion {} must beat RTN {}",
            qoq.distortion,
            rtn.distortion
        );
        // Perplexity is a noisier metric at this scale; require QoQ stays in
        // the same ballpark rather than strictly lower.
        assert!(
            qoq.perplexity <= rtn.perplexity * 1.1,
            "QoQ ppl {} should not be far above RTN ppl {}",
            qoq.perplexity,
            rtn.perplexity
        );
    }

    #[test]
    fn kv8_hurts_less_than_kv4() {
        // Single-sequence perplexity deltas are extremely noisy on the
        // synthetic model (quantization can even "improve" one sequence),
        // so compare the mean relative perturbation across several evals.
        let model = SyntheticModel::small(2);
        let mut drift = [0.0f64; 2]; // [kv8, kv4]
        let seeds = 6;
        for seed in 0..seeds {
            let eval = tokens(5 + seed, 64, model.config.vocab);
            let base = pseudo_perplexity(&model, &eval, KvPrecision::Fp16);
            let kv8 = pseudo_perplexity(&model, &eval, KvPrecision::Int8);
            let kv4 = pseudo_perplexity(&model, &eval, KvPrecision::Int4);
            drift[0] += ((kv8 - base) / base).abs();
            drift[1] += ((kv4 - base) / base).abs();
        }
        let kv8_mean = drift[0] / seeds as f64;
        let kv4_mean = drift[1] / seeds as f64;
        assert!(
            kv8_mean < kv4_mean,
            "mean |Δppl|/ppl: kv8 {} should be below kv4 {}",
            kv8_mean,
            kv4_mean
        );
    }
}
