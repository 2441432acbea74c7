//! Accuracy experiments: Tables 2, 3, 5 and the accuracy axis of Figure 16.
//!
//! Runs on reduced-scale synthetic models (README, "What is synthetic
//! here"): each full model is mapped to a 128-hidden, 2-layer synthetic twin
//! preserving its GQA head structure; schemes are compared by
//! pseudo-perplexity, FP16-agreement and logit distortion. Absolute values differ from the paper; orderings are
//! the reproduced quantity.

use crate::report::{fnum, Table};
use qserve_core::kv_quant::KvPrecision;
use qserve_core::pipeline::{BlockWeights, QoqConfig, WeightGranularity};
use qserve_model::eval::{
    custom_forward_logits, pseudo_perplexity_from_logits, quantize_model, top1_agreement,
};
use qserve_model::forward::forward_logits;
use qserve_model::synth::{SynthesisOptions, SyntheticModel};
use qserve_model::ModelConfig;
use qserve_quant::matrixq::rtn_fake_quant;
use qserve_quant::{Granularity, QuantSpec};
use qserve_tensor::rng::TensorRng;
use qserve_tensor::Matrix;

/// The quantization schemes compared in Table 2, in row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Scheme {
    /// FP16 baseline.
    Fp16,
    /// W8A8 per-channel/per-token (SmoothQuant row).
    W8A8,
    /// W4A16 g128 weight-only with clipping (AWQ row).
    W4A16G128,
    /// W4A4 with rotation (QuaRot row).
    W4A4Quarot,
    /// W4A4 g128 with reordering (Atom row).
    W4A4AtomG128,
    /// W4A8KV4 round-to-nearest, per-channel.
    W4A8Kv4Rtn,
    /// W4A8KV4 QoQ, per-channel.
    W4A8Kv4Qoq,
    /// W4A8KV4 g128 round-to-nearest.
    W4A8Kv4G128Rtn,
    /// W4A8KV4 g128 QoQ — the paper's headline configuration.
    W4A8Kv4G128Qoq,
}

impl Scheme {
    /// All Table 2 rows in order.
    fn table2_rows() -> Vec<Self> {
        vec![
            Scheme::Fp16,
            Scheme::W8A8,
            Scheme::W4A16G128,
            Scheme::W4A4Quarot,
            Scheme::W4A4AtomG128,
            Scheme::W4A8Kv4Rtn,
            Scheme::W4A8Kv4Qoq,
            Scheme::W4A8Kv4G128Rtn,
            Scheme::W4A8Kv4G128Qoq,
        ]
    }

    /// Printed label matching the paper's rows.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Fp16 => "FP16",
            Scheme::W8A8 => "W8A8 SmoothQuant",
            Scheme::W4A16G128 => "W4A16 g128 AWQ",
            Scheme::W4A4Quarot => "W4A4 QuaRot",
            Scheme::W4A4AtomG128 => "W4A4 g128 Atom",
            Scheme::W4A8Kv4Rtn => "W4A8KV4 RTN",
            Scheme::W4A8Kv4Qoq => "W4A8KV4 QoQ",
            Scheme::W4A8Kv4G128Rtn => "W4A8KV4 g128 RTN",
            Scheme::W4A8Kv4G128Qoq => "W4A8KV4 g128 QoQ",
        }
    }
}

/// Evaluation artifacts for one (model, scheme) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SchemeResult {
    /// Pseudo-perplexity.
    pub perplexity: f64,
    /// Top-1 agreement with FP16 (zero-shot accuracy proxy).
    pub agreement: f64,
    /// Mean squared logit distortion vs FP16.
    pub distortion: f64,
}

/// Group size used at reduced scale (128 would exceed the reduced hidden).
const REDUCED_GROUP: usize = 32;

fn rtn_blocks(model: &SyntheticModel, spec: QuantSpec) -> Vec<BlockWeights> {
    model
        .blocks
        .iter()
        .map(|b| BlockWeights {
            wq: rtn_fake_quant(&b.wq, spec),
            wk: rtn_fake_quant(&b.wk, spec),
            wv: rtn_fake_quant(&b.wv, spec),
            wo: rtn_fake_quant(&b.wo, spec),
            w_gate: rtn_fake_quant(&b.w_gate, spec),
            w_up: rtn_fake_quant(&b.w_up, spec),
            w_down: rtn_fake_quant(&b.w_down, spec),
            head_dim: b.head_dim,
        })
        .collect()
}

/// Evaluates one scheme on one synthetic model.
fn evaluate(model: &SyntheticModel, scheme: Scheme, calib: &[u32], eval: &[u32]) -> SchemeResult {
    let ref_logits = forward_logits(model, eval);
    let no_rot = vec![None; model.blocks.len()];
    let g = WeightGranularity::PerGroup(REDUCED_GROUP);

    let q_logits: Matrix = match scheme {
        Scheme::Fp16 => ref_logits.clone(),
        Scheme::W8A8 => {
            let blocks = rtn_blocks(model, QuantSpec::int8_symmetric(Granularity::PerRow));
            let m = model.with_blocks(blocks);
            custom_forward_logits(&m, &no_rot, Some(8), KvPrecision::Int8, eval)
        }
        Scheme::W4A16G128 => {
            let cfg = QoqConfig {
                weight_granularity: g,
                kv_precision: KvPrecision::Fp16,
                weight_clipping: true,
                ..QoqConfig::rtn(g)
            };
            let q = quantize_model(model, &cfg, calib);
            custom_forward_logits(&q.model, &q.rotations, None, KvPrecision::Fp16, eval)
        }
        Scheme::W4A4Quarot => {
            let cfg = QoqConfig {
                rotation: true,
                weight_clipping: true,
                ..QoqConfig::rtn(g)
            };
            let q = quantize_model(model, &cfg, calib);
            custom_forward_logits(&q.model, &q.rotations, Some(4), KvPrecision::Int4, eval)
        }
        Scheme::W4A4AtomG128 => {
            let cfg = QoqConfig {
                channel_reorder: true,
                weight_clipping: true,
                ..QoqConfig::rtn(g)
            };
            let q = quantize_model(model, &cfg, calib);
            custom_forward_logits(&q.model, &q.rotations, Some(4), KvPrecision::Int4, eval)
        }
        Scheme::W4A8Kv4Rtn => {
            let q = quantize_model(model, &QoqConfig::rtn(WeightGranularity::PerChannel), calib);
            custom_forward_logits(&q.model, &q.rotations, Some(8), KvPrecision::Int4, eval)
        }
        Scheme::W4A8Kv4Qoq => {
            let q = quantize_model(model, &QoqConfig::w4a8kv4_per_channel(), calib);
            custom_forward_logits(&q.model, &q.rotations, Some(8), KvPrecision::Int4, eval)
        }
        Scheme::W4A8Kv4G128Rtn => {
            let q = quantize_model(model, &QoqConfig::rtn(g), calib);
            custom_forward_logits(&q.model, &q.rotations, Some(8), KvPrecision::Int4, eval)
        }
        Scheme::W4A8Kv4G128Qoq => {
            let cfg = QoqConfig {
                weight_granularity: g,
                ..QoqConfig::w4a8kv4_g128()
            };
            let q = quantize_model(model, &cfg, calib);
            custom_forward_logits(&q.model, &q.rotations, Some(8), KvPrecision::Int4, eval)
        }
    };

    SchemeResult {
        perplexity: pseudo_perplexity_from_logits(&q_logits, eval),
        agreement: top1_agreement(&ref_logits, &q_logits),
        distortion: qserve_tensor::stats::mse(&ref_logits, &q_logits),
    }
}

/// Builds the reduced synthetic twin of a full model config.
fn reduced_model(full: &ModelConfig, seed_salt: u64) -> SyntheticModel {
    let cfg = SyntheticModel::reduced_config(full, 128, 2);
    let opts = SynthesisOptions {
        seed: 0x9_5E2 ^ seed_salt,
        ..SynthesisOptions::default()
    };
    SyntheticModel::generate(cfg, opts)
}

fn token_sets(model: &SyntheticModel) -> (Vec<u32>, Vec<u32>) {
    let calib = TensorRng::seed(101).token_sequence(64, model.config.vocab);
    let eval = TensorRng::seed(202).token_sequence(96, model.config.vocab);
    (calib, eval)
}

/// **Table 2**: pseudo-perplexity for every scheme × model.
pub fn table2(models: &[ModelConfig]) -> Table {
    let mut header = vec!["Scheme".to_string()];
    header.extend(models.iter().map(|m| m.name.clone()));
    let mut t = Table::new(
        "Table 2",
        "WikiText2 perplexity → logit distortion ×10³ vs FP16 on synthetic twins (lower is \
         better; pseudo-perplexity is too noisy at reduced scale to rank schemes)",
        &header.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    let evals: Vec<Vec<SchemeResult>> = models
        .iter()
        .enumerate()
        .map(|(i, full)| {
            let model = reduced_model(full, i as u64);
            let (calib, eval) = token_sets(&model);
            Scheme::table2_rows()
                .into_iter()
                .map(|s| evaluate(&model, s, &calib, &eval))
                .collect()
        })
        .collect();
    for (row_idx, scheme) in Scheme::table2_rows().into_iter().enumerate() {
        let mut row = vec![scheme.label().to_string()];
        for model_evals in &evals {
            row.push(fnum(model_evals[row_idx].distortion * 1e3, 3));
        }
        t.push_row(row);
    }
    t
}

/// **Table 3**: zero-shot accuracy proxy (FP16 top-1 agreement, %) for
/// Llama-2 7B/13B/70B twins.
pub fn table3() -> Table {
    let models = [
        ModelConfig::llama2_7b(),
        ModelConfig::llama2_13b(),
        ModelConfig::llama2_70b(),
    ];
    let schemes = [
        Scheme::Fp16,
        Scheme::W4A4Quarot,
        Scheme::W4A4AtomG128,
        Scheme::W4A8Kv4Qoq,
        Scheme::W4A8Kv4G128Qoq,
    ];
    let mut t = Table::new(
        "Table 3",
        "zero-shot accuracy → FP16 top-1 agreement % on synthetic twins (higher is better)",
        &["Model", "Scheme", "Agreement %"],
    );
    for (i, full) in models.iter().enumerate() {
        let model = reduced_model(full, 40 + i as u64);
        let (calib, eval) = token_sets(&model);
        for s in schemes {
            let r = evaluate(&model, s, &calib, &eval);
            t.push_row(vec![
                full.name.clone(),
                s.label().to_string(),
                fnum(r.agreement * 100.0, 2),
            ]);
        }
    }
    t
}

/// **Table 5**: long-context retention — QoQ agreement vs FP16 at growing
/// sequence lengths (LongBench proxy).
pub fn table5() -> Table {
    let mut t = Table::new(
        "Table 5",
        "LongBench → FP16 agreement % of QoQ W4A8KV4 g128 at long context lengths",
        &["Context length", "FP16", "QoQ W4A8KV4 g128"],
    );
    let model = reduced_model(&ModelConfig::llama3_8b(), 77);
    let (calib, _) = token_sets(&model);
    let cfg = QoqConfig {
        weight_granularity: WeightGranularity::PerGroup(REDUCED_GROUP),
        ..QoqConfig::w4a8kv4_g128()
    };
    let q = quantize_model(&model, &cfg, &calib);
    for len in [64usize, 128, 256, 384] {
        let eval = TensorRng::seed(300 + len as u64).token_sequence(len, model.config.vocab);
        let ref_logits = forward_logits(&model, &eval);
        let q_logits = custom_forward_logits(&q.model, &q.rotations, Some(8), KvPrecision::Int4, &eval);
        t.push_row(vec![
            len.to_string(),
            "100.00".to_string(),
            fnum(top1_agreement(&ref_logits, &q_logits) * 100.0, 2),
        ]);
    }
    t
}

/// The Figure 16 ablation ladder configs, in the paper's order.
fn figure16_ladder() -> Vec<(&'static str, QoqConfig)> {
    let g = WeightGranularity::PerGroup(REDUCED_GROUP);
    let rtn = QoqConfig::rtn(g);
    vec![
        (
            "+ 4-bit Weight Quant (W4A8KV8)",
            QoqConfig {
                kv_precision: KvPrecision::Int8,
                ..rtn.clone()
            },
        ),
        (
            "+ Block Rotation and Smoothing",
            QoqConfig {
                kv_precision: KvPrecision::Int8,
                rotation: true,
                output_smoothing: true,
                ..rtn.clone()
            },
        ),
        (
            "+ Block-MSE Weight Clip",
            QoqConfig {
                kv_precision: KvPrecision::Int8,
                rotation: true,
                output_smoothing: true,
                weight_clipping: true,
                ..rtn.clone()
            },
        ),
        (
            "+ 4-bit KV Quant (W4A8KV4)",
            QoqConfig {
                rotation: true,
                output_smoothing: true,
                weight_clipping: true,
                ..rtn.clone()
            },
        ),
        (
            "+ SmoothAttention",
            QoqConfig {
                rotation: true,
                output_smoothing: true,
                weight_clipping: true,
                smooth_attention: true,
                ..rtn.clone()
            },
        ),
        (
            "+ Activation-aware Reorder (full QoQ)",
            QoqConfig {
                weight_granularity: g,
                ..QoqConfig::w4a8kv4_g128()
            },
        ),
    ]
}

/// **Figure 16 (accuracy axis)**: the QoQ technique ladder on Llama-2-7B.
pub fn fig16_accuracy() -> Table {
    let mut t = Table::new(
        "Figure 16 (accuracy)",
        "ablation of QoQ techniques on the Llama-2-7B twin (distortion vs FP16; lower is better)",
        &["Step", "Logit distortion", "log2 pseudo-ppl"],
    );
    let model = reduced_model(&ModelConfig::llama2_7b(), 7);
    let (calib, eval) = token_sets(&model);
    // W8A8KV8 starting point.
    {
        let blocks = rtn_blocks(&model, QuantSpec::int8_symmetric(Granularity::PerRow));
        let m = model.with_blocks(blocks);
        let no_rot = vec![None; m.blocks.len()];
        let ref_logits = forward_logits(&model, &eval);
        let q_logits = custom_forward_logits(&m, &no_rot, Some(8), KvPrecision::Int8, &eval);
        t.push_row(vec![
            "8-bit Quant (W8A8KV8)".to_string(),
            fnum(qserve_tensor::stats::mse(&ref_logits, &q_logits), 6),
            fnum(pseudo_perplexity_from_logits(&q_logits, &eval).log2(), 3),
        ]);
    }
    let ref_logits = forward_logits(&model, &eval);
    for (label, cfg) in figure16_ladder() {
        let q = quantize_model(&model, &cfg, &calib);
        let q_logits =
            custom_forward_logits(&q.model, &q.rotations, Some(8), cfg.kv_precision, &eval);
        t.push_row(vec![
            label.to_string(),
            fnum(qserve_tensor::stats::mse(&ref_logits, &q_logits), 6),
            fnum(pseudo_perplexity_from_logits(&q_logits, &eval).log2(), 3),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_model() -> SyntheticModel {
        reduced_model(&ModelConfig::llama2_7b(), 0)
    }

    #[test]
    fn fp16_scheme_is_exact() {
        let m = quick_model();
        let (calib, eval) = token_sets(&m);
        let r = evaluate(&m, Scheme::Fp16, &calib, &eval);
        assert_eq!(r.distortion, 0.0);
        assert_eq!(r.agreement, 1.0);
    }

    #[test]
    fn w8a8_nearly_lossless() {
        let m = quick_model();
        let (calib, eval) = token_sets(&m);
        let w8 = evaluate(&m, Scheme::W8A8, &calib, &eval);
        let w4rtn = evaluate(&m, Scheme::W4A8Kv4G128Rtn, &calib, &eval);
        assert!(w8.distortion < w4rtn.distortion, "W8A8 must be closest to FP16");
        assert!(w8.agreement > 0.9);
    }

    #[test]
    fn table2_orderings_hold() {
        // The paper's qualitative story on one model:
        // QoQ ≤ RTN at each granularity, and QoQ(W4A8) beats W4A4.
        let m = quick_model();
        let (calib, eval) = token_sets(&m);
        let qoq = evaluate(&m, Scheme::W4A8Kv4G128Qoq, &calib, &eval);
        let rtn = evaluate(&m, Scheme::W4A8Kv4G128Rtn, &calib, &eval);
        let quarot = evaluate(&m, Scheme::W4A4Quarot, &calib, &eval);
        let atom = evaluate(&m, Scheme::W4A4AtomG128, &calib, &eval);
        assert!(qoq.distortion < rtn.distortion, "QoQ {} vs RTN {}", qoq.distortion, rtn.distortion);
        assert!(qoq.distortion < quarot.distortion, "QoQ {} vs QuaRot {}", qoq.distortion, quarot.distortion);
        assert!(qoq.distortion < atom.distortion, "QoQ {} vs Atom {}", qoq.distortion, atom.distortion);
    }

    #[test]
    fn table_builders_produce_rows() {
        let t = table2(&[ModelConfig::llama2_7b()]);
        assert_eq!(t.rows.len(), Scheme::table2_rows().len());
        assert_eq!(t.header.len(), 2);
    }
}
