//! Functional execution of one transformer block through the deployed
//! QServe precision mapping (Figure 11): FP16 block inputs/outputs, W4A8
//! GEMMs on (emulated) INT8 tensor cores, activation quantization fused at
//! the normalization/activation boundaries, per-head KV4 paged cache, and
//! the FP16 fused decode-attention kernel.
//!
//! This is the data plane the latency-simulating [`crate::engine`] models;
//! integration tests check it against the reference fake-quant forward pass.

use crate::attention_exec::paged_run_attention;
use crate::kv_cache::{KvCacheError, PagedKvCache, SequenceId};
use qserve_core::pipeline::{
    ActivationFrame, DeployedWeight, QuantizedBlock, DOWN_PROJ, GATE_PROJ, K_PROJ, OUT_PROJ, Q_PROJ,
    UP_PROJ, V_PROJ,
};
use qserve_kernels::attention::HeadTile;
use qserve_kernels::gemm::{
    gemm_w4a8_per_channel, gemm_w4a8_per_group, quantize_activations_int8, QuantizedActivations,
};
use qserve_tensor::ops::{rmsnorm, swiglu};
use qserve_tensor::Matrix;

/// One block's deployed weights plus the frame each of its three
/// quantization nodes feeds them in — both as the artifact states them.
#[derive(Debug, Clone)]
pub struct BlockRuntime {
    weights: Vec<DeployedWeight>,
    input_frame: ActivationFrame,
    attn_out_frame: ActivationFrame,
    ffn_inter_frame: ActivationFrame,
}

/// A quantization node: `x` in `frame`, then per-token INT8 — QServe's
/// fused norm / activation quantization (§5.1).
fn quantize(frame: &ActivationFrame, x: &Matrix) -> QuantizedActivations {
    quantize_activations_int8(&frame.apply(x))
}

impl BlockRuntime {
    /// Builds a runtime from a [`QuantizedBlock`] (pipeline output).
    ///
    /// # Panics
    /// Panics if the block does not carry the seven expected layers.
    pub fn new(qb: &QuantizedBlock) -> Self {
        assert_eq!(qb.deployed.len(), 7, "expected 7 deployed layers");
        Self {
            weights: qb.deployed.iter().map(|(_, w)| w.clone()).collect(),
            input_frame: qb.input_frame.clone(),
            attn_out_frame: qb.attn_out_frame.clone(),
            ffn_inter_frame: qb.ffn_inter_frame.clone(),
        }
    }

    fn w4a8(&self, layer: usize, x_q: &QuantizedActivations) -> Matrix {
        match &self.weights[layer] {
            DeployedWeight::Progressive(w) => gemm_w4a8_per_group(x_q, w),
            DeployedWeight::PerChannel(w) => gemm_w4a8_per_channel(x_q, w),
        }
    }

    /// One step for a batch of rows: each row of `x` is the hidden state of
    /// one token of `seqs[i]`; KV states live in (and grow into) the paged
    /// cache. Every GEMM runs once over all `m = x.rows()` rows. Returns the
    /// block output (FP16-domain `f32`).
    ///
    /// `positions[i]` is row `i`'s token index (for RoPE). Consecutive rows
    /// of one sequence form a *run* — a prefill chunk, or a single decode
    /// row: the run's K/V are appended first, each KV head is dequantized
    /// once, and row `r` of the run attends over the tokens before it plus
    /// itself — causal by construction. Runs go in row order, so a sequence
    /// may come back later in the batch as another run. Rows are otherwise
    /// independent, so a row's output does not depend on which other rows
    /// share its batch.
    ///
    /// # Errors
    /// Propagates cache errors (unknown sequence / out of pages / an FP16
    /// cache, which the quantized attention kernel cannot read).
    ///
    /// # Panics
    /// Panics on shape mismatches with the cache geometry.
    pub fn decode_step(
        &self,
        x: &Matrix,
        seqs: &[SequenceId],
        positions: &[usize],
        layer: usize,
        cache: &mut PagedKvCache,
        attn_norm: &[f32],
        ffn_norm: &[f32],
        rope_base: f32,
    ) -> Result<Matrix, KvCacheError> {
        let mut tile = HeadTile::default();
        self.decode_step_with(x, seqs, positions, layer, cache, attn_norm, ffn_norm, rope_base, &mut tile)
    }

    /// [`Self::decode_step`] with the attention tile supplied by the caller,
    /// so one step's layers share its buffers.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn decode_step_with(
        &self,
        x: &Matrix,
        seqs: &[SequenceId],
        positions: &[usize],
        layer: usize,
        cache: &mut PagedKvCache,
        attn_norm: &[f32],
        ffn_norm: &[f32],
        rope_base: f32,
        tile: &mut HeadTile,
    ) -> Result<Matrix, KvCacheError> {
        cache.require_quantized()?;
        assert_eq!(x.rows(), seqs.len(), "one row per sequence");
        assert_eq!(seqs.len(), positions.len(), "positions per sequence");
        let d = cache.config().head_dim;

        // ---- Attention: norm → quantization node → QKV GEMMs ----
        let normed = rmsnorm(x, attn_norm, 1e-5);
        let xq = quantize(&self.input_frame, &normed);
        let mut q = self.w4a8(Q_PROJ, &xq);
        let mut k = self.w4a8(K_PROJ, &xq);
        let v = self.w4a8(V_PROJ, &xq);
        for (i, &pos) in positions.iter().enumerate() {
            let qrow = q.row_mut(i);
            for h in 0..qrow.len() / d {
                qserve_tensor::ops::rope_inplace(&mut qrow[h * d..(h + 1) * d], pos, rope_base);
            }
            let krow = k.row_mut(i);
            for h in 0..krow.len() / d {
                qserve_tensor::ops::rope_inplace(&mut krow[h * d..(h + 1) * d], pos, rope_base);
            }
        }

        // ---- KV cache append (dynamic per-head quantization) + attention,
        // one run of same-sequence rows at a time.
        let width = q.cols();
        let mut attn_out = Matrix::zeros(x.rows(), width);
        let mut start = 0;
        for run in seqs.chunk_by(|a, b| a == b) {
            let end = start + run.len();
            for i in start..end {
                cache.append_token(run[0], layer, k.row(i), v.row(i))?;
            }
            paged_run_attention(
                cache,
                run[0],
                layer,
                &q.as_slice()[start * width..end * width],
                width,
                tile,
                &mut attn_out.as_mut_slice()[start * width..end * width],
            )?;
            start = end;
        }

        // ---- Output projection (its own quantization node, §5.1).
        let attn_q = quantize(&self.attn_out_frame, &attn_out);
        let x = x.add(&self.w4a8(OUT_PROJ, &attn_q));

        // ---- FFN: norm → quantization node → gate/up → SwiGLU → node → down.
        let normed = rmsnorm(&x, ffn_norm, 1e-5);
        let xq = quantize(&self.input_frame, &normed);
        let gate = self.w4a8(GATE_PROJ, &xq);
        let up = self.w4a8(UP_PROJ, &xq);
        let inter = swiglu(&gate, &up);
        let inter_q = quantize(&self.ffn_inter_frame, &inter);
        Ok(x.add(&self.w4a8(DOWN_PROJ, &inter_q)))
    }

    /// Prefill: runs the whole prompt through [`Self::decode_step`] as one
    /// `m = prompt_hidden.rows()` batch — row `t` is `seq`'s token at
    /// position `t` — returning the final hidden state of the last token.
    ///
    /// # Errors
    /// Propagates cache errors.
    #[allow(clippy::too_many_arguments)]
    pub fn prefill(
        &self,
        prompt_hidden: &Matrix,
        seq: SequenceId,
        layer: usize,
        cache: &mut PagedKvCache,
        attn_norm: &[f32],
        ffn_norm: &[f32],
        rope_base: f32,
    ) -> Result<Matrix, KvCacheError> {
        let tokens = prompt_hidden.rows();
        if tokens == 0 {
            return Ok(Matrix::zeros(1, prompt_hidden.cols()));
        }
        let positions: Vec<usize> = (0..tokens).collect();
        let out = self.decode_step(
            prompt_hidden,
            &vec![seq; tokens],
            &positions,
            layer,
            cache,
            attn_norm,
            ffn_norm,
            rope_base,
        )?;
        Ok(out.slice_rows(tokens - 1, tokens))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv_cache::KvCacheConfig;
    use qserve_core::kv_quant::KvPrecision;
    use qserve_core::pipeline::{quantize_block, QoqConfig, WeightGranularity};
    use qserve_model::synth::SyntheticModel;
    use qserve_tensor::rng::TensorRng;

    fn setup() -> (SyntheticModel, BlockRuntime, PagedKvCache) {
        setup_for(SyntheticModel::small(1))
    }

    fn setup_for(model: SyntheticModel) -> (SyntheticModel, BlockRuntime, PagedKvCache) {
        let mut rng = TensorRng::seed(4);
        let calib = rng.gaussian(32, model.config.hidden, 1.0);
        let cfg = QoqConfig {
            weight_granularity: WeightGranularity::PerGroup(32),
            ..QoqConfig::w4a8kv4_g128()
        };
        let qb = quantize_block(&model.blocks[0], &calib, &cfg);
        let runtime = BlockRuntime::new(&qb);
        let cache_cfg = KvCacheConfig {
            page_tokens: 8,
            kv_heads: model.config.kv_heads,
            head_dim: model.config.head_dim(),
            layers: 1,
            precision: KvPrecision::Int4,
        };
        (model, runtime, PagedKvCache::new(cache_cfg, 512))
    }

    #[test]
    fn decode_step_close_to_reference_block() {
        // The fully-quantized runtime (W4A8 kernels + KV4 pages + fused
        // attention) must track the reference forward pass of the same
        // block within quantization noise, token by token — on the residual
        // branch `out − x`, which is all the block computes: the whole
        // output is dominated by the `x` the residual stream carries through
        // and reads close even when the branch is noise. MHA, and the 8:2
        // GQA twin whose query groups the offline folds must pair correctly.
        let gqa = SyntheticModel::generate(
            SyntheticModel::reduced_config(&qserve_model::ModelConfig::llama3_8b(), 128, 1),
            qserve_model::synth::SynthesisOptions::default(),
        );
        assert_eq!((gqa.config.heads, gqa.config.kv_heads), (8, 2));
        for model in [SyntheticModel::small(1), gqa] {
            let (model, runtime, mut cache) = setup_for(model);
            let block = &model.blocks[0];
            let h = model.config.hidden;
            let norms = vec![1.0f32; h];
            let seq = SequenceId(0);
            cache.register(seq).unwrap();

            let mut rng = TensorRng::seed(5);
            let tokens = 12;
            let hidden_states = rng.gaussian(tokens, h, 1.0);

            // Reference: full-precision prefix forward with causal attention.
            let reference =
                qserve_model::forward::block_forward(&hidden_states, block, &norms, &norms, 10000.0);

            // Runtime: feed tokens one at a time through the quantized path.
            let mut last_out = Matrix::zeros(1, h);
            for t in 0..tokens {
                let x = hidden_states.slice_rows(t, t + 1);
                last_out = runtime
                    .decode_step(&x, &[seq], &[t], 0, &mut cache, &norms, &norms, 10000.0)
                    .unwrap();
            }
            let x_last = hidden_states.slice_rows(tokens - 1, tokens);
            let err = qserve_tensor::stats::relative_error(
                &reference.slice_rows(tokens - 1, tokens).sub(&x_last),
                &last_out.sub(&x_last),
            );
            assert!(
                err < 0.25,
                "{}: quantized runtime's residual branch drifted: relative error {}",
                model.config.name,
                err
            );
            assert!(err > 0.0, "quantization must not be a no-op");
        }
    }

    #[test]
    fn batch_decode_matches_sequential() {
        // Two sequences decoded together must equal each decoded alone.
        let (model, runtime, mut cache) = setup();
        let h = model.config.hidden;
        let norms = vec![1.0f32; h];
        let mut rng = TensorRng::seed(6);
        let x = rng.gaussian(2, h, 1.0);

        let (a, b) = (SequenceId(0), SequenceId(1));
        cache.register(a).unwrap();
        cache.register(b).unwrap();
        let batched = runtime
            .decode_step(&x, &[a, b], &[0, 0], 0, &mut cache, &norms, &norms, 10000.0)
            .unwrap();

        let mut cache2 = {
            let cfg = *cache.config();
            PagedKvCache::new(cfg, 64)
        };
        cache2.register(a).unwrap();
        let solo = runtime
            .decode_step(&x.slice_rows(0, 1), &[a], &[0], 0, &mut cache2, &norms, &norms, 10000.0)
            .unwrap();
        for (u, v) in batched.row(0).iter().zip(solo.row(0)) {
            assert!((u - v).abs() < 1e-4, "batching changed numerics: {} vs {}", u, v);
        }
    }

    #[test]
    fn cache_grows_one_token_per_step() {
        let (model, runtime, mut cache) = setup();
        let h = model.config.hidden;
        let norms = vec![1.0f32; h];
        let seq = SequenceId(7);
        cache.register(seq).unwrap();
        let mut rng = TensorRng::seed(8);
        for t in 0..5 {
            let x = rng.gaussian(1, h, 1.0);
            runtime
                .decode_step(&x, &[seq], &[t], 0, &mut cache, &norms, &norms, 10000.0)
                .unwrap();
            assert_eq!(cache.seq_len(seq), t + 1);
        }
    }

    #[test]
    fn a_step_on_an_fp16_cache_is_refused_before_anything_is_appended() {
        let (model, runtime, quantized) = setup();
        let mut cache = PagedKvCache::new(
            KvCacheConfig { precision: KvPrecision::Fp16, ..*quantized.config() },
            16,
        );
        let seq = SequenceId(0);
        cache.register(seq).unwrap();
        let h = model.config.hidden;
        let norms = vec![1.0f32; h];
        let x = TensorRng::seed(9).gaussian(2, h, 1.0);
        let refused = runtime
            .decode_step(&x, &[seq, seq], &[0, 1], 0, &mut cache, &norms, &norms, 10000.0)
            .unwrap_err();
        assert_eq!(refused, KvCacheError::NotQuantized(KvPrecision::Fp16));
        assert_eq!((cache.seq_len(seq), cache.used_pages()), (0, 0));
    }
}
