//! Reduced-scale synthetic transformers with realistic quantization
//! pathologies.
//!
//! Each generated model carries the three distributional features QoQ's
//! techniques target (see `qserve-tensor::rng` and the README's "What is
//! synthetic here"): heavy-tailed weights, fixed activation outlier channels
//! (realised through outlier input embeddings), and fixed Key outlier
//! channels per head (realised through outsized rows in `W_K`).

use crate::config::ModelConfig;
use qserve_core::pipeline::BlockWeights;
use qserve_tensor::rng::TensorRng;
use qserve_tensor::Matrix;

/// A runnable synthetic transformer: embedding table, `L` blocks, final
/// norm, LM head (tied to the embedding).
#[derive(Debug, Clone)]
pub struct SyntheticModel {
    /// Reduced-scale architecture (same head structure as the full model).
    pub config: ModelConfig,
    /// Token embedding table, `vocab × hidden`.
    pub embedding: Matrix,
    /// Transformer blocks.
    pub blocks: Vec<BlockWeights>,
    /// Final RMSNorm gain.
    pub final_norm: Vec<f32>,
    /// Per-block RMSNorm gains (attention input, FFN input).
    pub norms: Vec<(Vec<f32>, Vec<f32>)>,
    /// RoPE base.
    pub rope_base: f32,
}

/// Generation knobs for [`SyntheticModel::generate`].
#[derive(Debug, Clone, Copy)]
pub struct SynthesisOptions {
    /// RNG seed (models are fully reproducible).
    pub seed: u64,
    /// Std of the weight bulk.
    pub weight_std: f32,
    /// Fraction of heavy-tail weights.
    pub tail_fraction: f32,
    /// Tail magnitude multiplier.
    pub tail_mult: f32,
    /// Outlier channels per block input, as a fraction of hidden.
    pub outlier_channel_fraction: f32,
    /// Outlier channel magnitude multiplier (the ~10× of Figure 7).
    pub outlier_mult: f32,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        Self {
            seed: 20240532, // arXiv id of the paper
            weight_std: 0.05,
            tail_fraction: 0.01,
            tail_mult: 8.0,
            outlier_channel_fraction: 0.06,
            outlier_mult: 10.0,
        }
    }
}

impl SyntheticModel {
    /// A reduced-scale config preserving a full model's head structure:
    /// `scale` divides hidden/ffn/vocab while keeping `heads : kv_heads`.
    ///
    /// # Panics
    /// Panics if the scaled dimensions degenerate (hidden < heads).
    pub fn reduced_config(full: &ModelConfig, hidden: usize, layers: usize) -> ModelConfig {
        assert!(hidden >= 16, "hidden too small");
        // Target head_dim ≈ 16 so RoPE pairing and per-head statistics stay
        // meaningful at reduced scale; preserve the GQA ratio.
        let heads = (hidden / 16).clamp(1, full.heads);
        let head_dim = (hidden / heads).max(2) & !1;
        let hidden = heads * head_dim;
        let kv_heads = (heads * full.kv_heads / full.heads).max(1);
        ModelConfig {
            name: format!("{}-reduced", full.name),
            hidden,
            layers,
            heads,
            kv_heads,
            ffn: hidden * 11008 / 4096, // Llama-ish expansion
            vocab: 512,
            experts: 1,
            active_experts: 1,
        }
    }

    /// Generates a model from a (reduced) config.
    pub fn generate(config: ModelConfig, opts: SynthesisOptions) -> Self {
        let mut rng = TensorRng::seed(opts.seed);
        let h = config.hidden;
        let d = config.head_dim();
        let kvw = config.kv_heads * d;

        // Outlier input channels are fixed across the whole model (the
        // "fixed outlier channels" phenomenon).
        let n_outliers = ((h as f32 * opts.outlier_channel_fraction) as usize).max(1);
        let outliers = rng.pick_outlier_channels(h, n_outliers);
        let embedding = rng.with_outlier_channels(config.vocab, h, 1.0, &outliers, opts.outlier_mult);

        let mut blocks = Vec::with_capacity(config.layers);
        let mut norms = Vec::with_capacity(config.layers);
        for _ in 0..config.layers {
            let hw = |rng: &mut TensorRng, n: usize, k: usize| {
                rng.heavy_tailed(n, k, opts.weight_std, opts.tail_fraction, opts.tail_mult)
            };
            // Key outlier channels: a few rows of W_K are outsized so the
            // produced Keys have fixed per-head outlier channels (Figure 7).
            let mut wk = hw(&mut rng, kvw, h);
            for head in 0..config.kv_heads {
                // Scale a RoPE pair (channel i and i + d/2) so the outlier
                // survives rotation, mirroring Figure 7's per-head pattern.
                let row = head * d + rng.index(d / 2);
                let pair = row + d / 2;
                for target in [row, pair] {
                    for v in wk.row_mut(target) {
                        *v *= opts.outlier_mult * 0.75;
                    }
                }
            }
            blocks.push(BlockWeights {
                wq: hw(&mut rng, h, h),
                wk,
                wv: hw(&mut rng, kvw, h),
                wo: hw(&mut rng, h, h),
                w_gate: hw(&mut rng, config.ffn, h),
                w_up: hw(&mut rng, config.ffn, h),
                w_down: hw(&mut rng, h, config.ffn),
                head_dim: d,
            });
            norms.push((vec![1.0; h], vec![1.0; h]));
        }
        Self {
            final_norm: vec![1.0; h],
            embedding,
            blocks,
            norms,
            config,
            rope_base: 10000.0,
        }
    }

    /// A small default model for tests and examples.
    pub fn small(layers: usize) -> Self {
        let full = ModelConfig::llama2_7b();
        let cfg = Self::reduced_config(&full, 64, layers);
        Self::generate(cfg, SynthesisOptions::default())
    }

    /// Replaces every block's weights (e.g. with fake-quantized ones),
    /// keeping norms and embeddings.
    pub fn with_blocks(&self, blocks: Vec<BlockWeights>) -> Self {
        assert_eq!(blocks.len(), self.blocks.len(), "block count mismatch");
        Self {
            blocks,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserve_tensor::stats::col_abs_max;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticModel::small(2);
        let b = SyntheticModel::small(2);
        assert_eq!(a.blocks[0].wq, b.blocks[0].wq);
        assert_eq!(a.embedding, b.embedding);
    }

    #[test]
    fn reduced_config_preserves_gqa_ratio() {
        let full = ModelConfig::llama3_8b(); // 32 heads, 8 kv heads
        let r = SyntheticModel::reduced_config(&full, 128, 2);
        assert_eq!(r.heads / r.kv_heads, 4);
        assert_eq!(r.hidden % r.heads, 0);
        assert!(r.head_dim() % 2 == 0);
    }

    #[test]
    fn embedding_has_outlier_channels() {
        let m = SyntheticModel::small(1);
        let am = col_abs_max(&m.embedding);
        let max = am.iter().cloned().fold(0.0f32, f32::max);
        let mean = am.iter().sum::<f32>() / am.len() as f32;
        assert!(max / mean > 3.0, "embedding should have outlier channels");
    }

    #[test]
    fn keys_have_outlier_channels() {
        let m = SyntheticModel::small(1);
        let x = m.embedding.slice_rows(0, 64);
        let keys = x.matmul_nt(&m.blocks[0].wk);
        let am = col_abs_max(&keys);
        let max = am.iter().cloned().fold(0.0f32, f32::max);
        let mean = am.iter().sum::<f32>() / am.len() as f32;
        assert!(max / mean > 2.5, "keys should carry outliers, spread {}", max / mean);
    }

    #[test]
    fn with_blocks_swaps_weights() {
        let m = SyntheticModel::small(2);
        let mut blocks = m.blocks.clone();
        blocks[0].wq = Matrix::zeros(m.config.hidden, m.config.hidden);
        let m2 = m.with_blocks(blocks);
        assert_eq!(m2.blocks[0].wq.abs_max(), 0.0);
        assert_eq!(m2.blocks[1].wq, m.blocks[1].wq);
    }

    #[test]
    fn shapes_consistent() {
        let m = SyntheticModel::small(2);
        let c = &m.config;
        for b in &m.blocks {
            assert_eq!(b.wq.shape(), (c.hidden, c.hidden));
            assert_eq!(b.wk.shape(), (c.kv_heads * c.head_dim(), c.hidden));
            assert_eq!(b.w_down.shape(), (c.hidden, c.ffn));
        }
    }
}
