//! Decode/prefill attention latency model (§5.3, Table 1).
//!
//! Decode attention is a batch of GEMVs: 1 MAC per KV element, so the
//! *memory* roofline says KV4 should be 2× KV8. The catch (§5.3): a fused
//! kernel's CUDA-core ops per element — dequantization (5 ops naive),
//! MAC, control flow, address arithmetic — push its arithmetic intensity
//! past the A100's 9.8 op/byte turning point, flipping it compute-bound.
//! QServe's kernel gets back under the roof by moving to FP16 (2× the
//! compute roof), the two-op magic-bias dequant, simplified control flow,
//! and prefetched scales/zeros.

use crate::spec::GpuSpec;

/// Achieved fraction of peak bandwidth for paged-KV gather traffic.
const ATTN_BW_EFFICIENCY: f64 = 0.6;
/// Achieved fraction of peak CUDA-core throughput in the fused kernel.
const ATTN_CUDA_EFFICIENCY: f64 = 0.6;

/// The attention kernel designs compared in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttentionKernel {
    /// FP16 KV cache (TRT-LLM FP16 baseline).
    Fp16Kv,
    /// 8-bit KV, static per-tensor scales (TRT-LLM style).
    Kv8Static,
    /// 4-bit KV, dynamic per-head scales, naive 5-op dequant in FP32.
    Kv4Naive,
    /// 4-bit KV, QServe kernel: FP16 math + 2-op dequant + prefetch (§5.3).
    Kv4QServe,
    /// 4-bit KV with a runtime Hadamard transform in the attention operator
    /// (QuaRot): heavy extra CUDA-core work (§5.3).
    Kv4Hadamard,
}

impl AttentionKernel {
    /// KV storage bits per element.
    pub fn kv_bits(self) -> u32 {
        match self {
            AttentionKernel::Fp16Kv => 16,
            AttentionKernel::Kv8Static => 8,
            _ => 4,
        }
    }

    /// Dynamic per-(token, head) parameter bytes (scale + zero for K and V).
    fn param_bytes_per_token_head(self) -> f64 {
        match self {
            // FP16 scale + FP16 zero, for K and for V (§5.1).
            AttentionKernel::Kv4Naive | AttentionKernel::Kv4QServe | AttentionKernel::Kv4Hadamard => 8.0,
            // Static scales live in constant memory.
            AttentionKernel::Fp16Kv | AttentionKernel::Kv8Static => 0.0,
        }
    }

    /// CUDA-core ops per KV element in the fused decode kernel
    /// (dequant + MAC + control + addressing).
    fn ops_per_element(self) -> f64 {
        match self {
            // No dequant; FP32 MAC (2) + control (1).
            AttentionKernel::Fp16Kv => 3.0,
            // Convert+scale (2) + MAC (2) + control (1).
            AttentionKernel::Kv8Static => 5.0,
            // Mask/shift/cvt/mul/sub (5) + MAC (2) + control (2) + nibble
            // addressing (1).
            AttentionKernel::Kv4Naive => 10.0,
            // Magic-bias dequant (2) + packed-half MAC (1) + simplified
            // control (0.5) — runs on the FP16 pipe.
            AttentionKernel::Kv4QServe => 3.5,
            // Naive dequant + on-the-fly Hadamard: +log2(128)=7 FMA/element.
            AttentionKernel::Kv4Hadamard => 17.0,
        }
    }

    /// Which CUDA pipe the per-element work runs on.
    fn cuda_ops_rate(self, gpu: &GpuSpec) -> f64 {
        match self {
            AttentionKernel::Kv4QServe => gpu.fp16_cuda_ops,
            _ => gpu.fp32_cuda_ops,
        }
    }
}

/// One decode-attention launch: `batch` sequences each attending over
/// `seq_len` cached tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttentionShape {
    /// Decoding sequences in the batch.
    pub batch: usize,
    /// KV-cache length per sequence.
    pub seq_len: usize,
    /// Query heads `H`.
    pub query_heads: usize,
    /// Key/value heads `H_KV` (GQA).
    pub kv_heads: usize,
    /// Per-head dimension `D`.
    pub head_dim: usize,
}

impl AttentionShape {
    /// Total KV elements touched: K and V, all heads, all cached tokens.
    fn kv_elements(&self) -> f64 {
        2.0 * self.batch as f64 * self.seq_len as f64 * self.kv_heads as f64 * self.head_dim as f64
    }
}

/// Breakdown of one modelled decode-attention launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttentionLatency {
    /// Memory pipeline time, seconds.
    pub memory_s: f64,
    /// CUDA-core compute time, seconds.
    pub compute_s: f64,
    /// Total modelled latency, seconds.
    pub total_s: f64,
    /// Whether the kernel is compute-bound (the §5.3 pathology).
    pub compute_bound: bool,
}

/// The individual optimizations of §5.3/§6.4, applied on top of the naive
/// KV4 kernel. The paper's "Improvement breakdown for KV4 attention"
/// (§6.4) enables them cumulatively: 0.48 ms → 0.44 (bit tricks) → 0.39
/// (control flow) → 0.36 (fp16 QK) → 0.33 (fp16 SV) → 0.28 ms (prefetch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AttentionOptimizations {
    /// Kim et al. 2022 magic-bias dequantization: 5 ALU ops → 2 per element.
    pub bit_tricks: bool,
    /// Simplified control logic in the fused loop.
    pub simplified_control: bool,
    /// QK product in FP16 instead of FP32.
    pub fp16_qk: bool,
    /// Softmax·V product in FP16 instead of FP32.
    pub fp16_sv: bool,
    /// Asynchronous prefetch of per-head scales/zeros at kernel start.
    pub prefetch_params: bool,
}

impl AttentionOptimizations {
    /// No optimizations — the naive KV4 kernel.
    pub fn none() -> Self {
        Self::default()
    }

    /// Everything on — the QServe kernel.
    pub fn all() -> Self {
        Self {
            bit_tricks: true,
            simplified_control: true,
            fp16_qk: true,
            fp16_sv: true,
            prefetch_params: true,
        }
    }

    /// The cumulative ladder of §6.4, in the paper's order.
    pub fn ladder() -> Vec<(&'static str, Self)> {
        let mut cur = Self::none();
        let mut out = vec![("naive KV4", cur)];
        cur.bit_tricks = true;
        out.push(("+ bit tricks (2-op dequant)", cur));
        cur.simplified_control = true;
        out.push(("+ simplified control flow", cur));
        cur.fp16_qk = true;
        out.push(("+ FP16 QK product", cur));
        cur.fp16_sv = true;
        out.push(("+ FP16 SV product", cur));
        cur.prefetch_params = true;
        out.push(("+ async scale/zero prefetch", cur));
        out
    }
}

/// Models a KV4 decode-attention launch with an explicit optimization set —
/// the §6.4 breakdown. [`AttentionKernel::Kv4Naive`] ≡ none,
/// [`AttentionKernel::Kv4QServe`] ≡ all.
pub fn attention_decode_latency_with(
    gpu: &GpuSpec,
    opts: AttentionOptimizations,
    shape: AttentionShape,
) -> AttentionLatency {
    let elems = shape.kv_elements();
    let tokens_heads = shape.batch as f64 * shape.seq_len as f64 * shape.kv_heads as f64;

    // Per-element op budget, mirroring `AttentionKernel::ops_per_element`.
    let dequant = if opts.bit_tricks { 2.0 } else { 5.0 };
    // Each half (QK, SV) contributes one MAC; fp16 packing halves its cost.
    let mac = (if opts.fp16_qk { 0.5 } else { 1.0 }) + (if opts.fp16_sv { 0.5 } else { 1.0 });
    let control = if opts.simplified_control { 0.5 } else { 2.0 };
    let address = if opts.prefetch_params { 0.0 } else { 1.0 };
    let ops = dequant + mac + control + address;

    // The FP16 pipe is only usable once both products are halves.
    let rate = if opts.fp16_qk && opts.fp16_sv {
        gpu.fp16_cuda_ops
    } else {
        gpu.fp32_cuda_ops
    };
    let group = (shape.query_heads / shape.kv_heads).max(1) as f64;
    let compute_s = ops * elems * group / (rate * ATTN_CUDA_EFFICIENCY);

    let kv_bytes = elems * 0.5;
    let param_bytes = tokens_heads * 8.0;
    let qo_bytes = 2.0 * 2.0 * shape.batch as f64 * shape.query_heads as f64 * shape.head_dim as f64;
    let score_bytes = 4.0 * shape.batch as f64 * shape.query_heads as f64 * shape.seq_len as f64;
    let memory_s =
        (kv_bytes + param_bytes + qo_bytes + score_bytes) / (gpu.dram_bytes_per_s * ATTN_BW_EFFICIENCY);

    let total_s = memory_s.max(compute_s) + gpu.kernel_overhead_s;
    AttentionLatency {
        memory_s,
        compute_s,
        total_s,
        compute_bound: compute_s > memory_s,
    }
}

/// Decode-attention latency from batch-level totals: `batch` sequences with
/// `total_tokens` cached KV tokens between them. One kernel launch serves the
/// whole batch, so the per-launch overhead is charged once regardless of how
/// the tokens are distributed across sequences — which is why a caller that
/// already tracks the two integers (the scheduler does) can price a step
/// without materializing the per-sequence lengths.
pub fn attention_decode_latency_totals(
    gpu: &GpuSpec,
    kernel: AttentionKernel,
    batch: usize,
    total_tokens: usize,
    query_heads: usize,
    kv_heads: usize,
    head_dim: usize,
) -> AttentionLatency {
    let (batch, total_tokens) = (batch as f64, total_tokens as f64);
    let elems = 2.0 * total_tokens * kv_heads as f64 * head_dim as f64;
    let tokens_heads = total_tokens * kv_heads as f64;

    // Memory: quantized KV + dynamic params + queries/outputs/scores.
    let kv_bytes = elems * f64::from(kernel.kv_bits()) / 8.0;
    let param_bytes = tokens_heads * kernel.param_bytes_per_token_head();
    let qo_bytes = 2.0 * 2.0 * batch * query_heads as f64 * head_dim as f64;
    let score_bytes = 4.0 * total_tokens * query_heads as f64;
    let memory_s =
        (kv_bytes + param_bytes + qo_bytes + score_bytes) / (gpu.dram_bytes_per_s * ATTN_BW_EFFICIENCY);

    // Compute: per-element fused-kernel work. GQA replays each KV element
    // for every query head in its group.
    let group = (query_heads / kv_heads).max(1) as f64;
    let compute_s =
        kernel.ops_per_element() * elems * group / (kernel.cuda_ops_rate(gpu) * ATTN_CUDA_EFFICIENCY);

    let total_s = memory_s.max(compute_s) + gpu.kernel_overhead_s;
    AttentionLatency {
        memory_s,
        compute_s,
        total_s,
        compute_bound: compute_s > memory_s,
    }
}

/// Models one decode-attention launch.
pub fn attention_decode_latency(
    gpu: &GpuSpec,
    kernel: AttentionKernel,
    shape: AttentionShape,
) -> AttentionLatency {
    attention_decode_latency_totals(
        gpu,
        kernel,
        shape.batch,
        shape.batch * shape.seq_len,
        shape.query_heads,
        shape.kv_heads,
        shape.head_dim,
    )
}

/// Models one decode-attention launch over a *heterogeneous* batch: each
/// sequence is charged at its true cached length, so mixed-length batches are
/// costed honestly instead of at the batch-mean length. For a homogeneous
/// batch this is exactly [`attention_decode_latency`].
pub fn attention_decode_latency_hetero(
    gpu: &GpuSpec,
    kernel: AttentionKernel,
    seq_lens: &[usize],
    query_heads: usize,
    kv_heads: usize,
    head_dim: usize,
) -> AttentionLatency {
    attention_decode_latency_totals(
        gpu,
        kernel,
        seq_lens.len(),
        seq_lens.iter().sum(),
        query_heads,
        kv_heads,
        head_dim,
    )
}

/// Prefill attention latency from totals: `total_tokens` = Σ sᵢ and
/// `total_sq_tokens` = Σ sᵢ² over the prompts in the wave (causal attention
/// work is quadratic per sequence, KV writes are linear).
fn prefill_latency_from_totals(
    gpu: &GpuSpec,
    kernel: AttentionKernel,
    total_tokens: f64,
    total_sq_tokens: f64,
    query_heads: usize,
    kv_heads: usize,
    head_dim: usize,
) -> f64 {
    let (h, d) = (query_heads as f64, head_dim as f64);
    // Causal QKᵀ and PV: 2 GEMMs × 2·S²/2·H·D ops each.
    let ops = 2.0 * total_sq_tokens * h * d;
    let compute_s = ops / (gpu.fp16_tc_ops * 0.7);
    // Write the new KV entries (quantized) once.
    let kv_write_bytes = 2.0 * total_tokens * kv_heads as f64 * d * f64::from(kernel.kv_bits()) / 8.0;
    let memory_s = kv_write_bytes / (gpu.dram_bytes_per_s * ATTN_BW_EFFICIENCY);
    compute_s.max(memory_s) + gpu.kernel_overhead_s
}

/// Prefill (context) attention: causal `S×S` attention on FP16 tensor cores
/// plus the KV-cache quantize-and-write pass.
pub fn attention_prefill_latency(
    gpu: &GpuSpec,
    kernel: AttentionKernel,
    batch: usize,
    seq_len: usize,
    query_heads: usize,
    kv_heads: usize,
    head_dim: usize,
) -> f64 {
    let (b, s) = (batch as f64, seq_len as f64);
    prefill_latency_from_totals(gpu, kernel, b * s, b * s * s, query_heads, kv_heads, head_dim)
}

/// Prefill attention for a wave of prompt *chunks*: each entry is
/// `(new_tokens, past_tokens)` — `new_tokens` fresh prompt tokens attending
/// causally over `past_tokens` of already-cached context (an aliased shared
/// prefix and/or earlier chunks of the same prompt) plus themselves. Only
/// the new tokens' KV is written.
///
/// The causal work of a chunk is `c·(c + 2p)` in the same units that give a
/// whole prompt `s²` — and because `(Σcᵢ)² = Σ cᵢ·(cᵢ + 2pᵢ)` exactly when
/// the `pᵢ` are the running sums, every term is an exact integer and a
/// single chunk with no past, `(s, 0)`, is **bit-identical** to
/// [`attention_prefill_latency`] at batch 1 and length `s`. That identity is
/// what keeps the un-shared, un-chunked paper protocol byte-stable while
/// shared or chunked runs reuse the same cost model.
pub fn attention_prefill_latency_chunked(
    gpu: &GpuSpec,
    kernel: AttentionKernel,
    chunks: &[(usize, usize)],
    query_heads: usize,
    kv_heads: usize,
    head_dim: usize,
) -> f64 {
    let total: usize = chunks.iter().map(|&(c, _)| c).sum();
    let total_sq: f64 = chunks.iter().map(|&(c, p)| (c * (c + 2 * p)) as f64).sum();
    prefill_latency_from_totals(gpu, kernel, total as f64, total_sq, query_heads, kv_heads, head_dim)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Prefill attention for a wave of prompts with *per-sequence* lengths; the
    /// quadratic causal work is charged at each prompt's true length. For a
    /// homogeneous wave this is exactly [`attention_prefill_latency`].
    fn attention_prefill_latency_hetero(
        gpu: &GpuSpec,
        kernel: AttentionKernel,
        input_lens: &[usize],
        query_heads: usize,
        kv_heads: usize,
        head_dim: usize,
    ) -> f64 {
        let total: usize = input_lens.iter().sum();
        let total_sq: f64 = input_lens.iter().map(|&s| (s * s) as f64).sum();
        prefill_latency_from_totals(gpu, kernel, total as f64, total_sq, query_heads, kv_heads, head_dim)
    }

    /// Llama-2-7B attention geometry at the paper's benchmark batch.
    fn shape(seq: usize) -> AttentionShape {
        AttentionShape {
            batch: 64,
            seq_len: seq,
            query_heads: 32,
            kv_heads: 32,
            head_dim: 128,
        }
    }

    #[test]
    fn naive_kv4_compute_bound_on_a100() {
        // §5.3: "the fused KV4 attention kernel can become compute-bound on
        // datacenter GPUs like A100."
        let l = attention_decode_latency(&GpuSpec::a100(), AttentionKernel::Kv4Naive, shape(1024));
        assert!(l.compute_bound, "naive KV4 must be compute-bound on A100");
    }

    #[test]
    fn kv8_memory_bound_on_a100() {
        let l = attention_decode_latency(&GpuSpec::a100(), AttentionKernel::Kv8Static, shape(1024));
        assert!(!l.compute_bound);
    }

    #[test]
    fn qserve_kv4_memory_bound_on_a100() {
        // The whole point of §5.3's optimizations.
        let l = attention_decode_latency(&GpuSpec::a100(), AttentionKernel::Kv4QServe, shape(1024));
        assert!(!l.compute_bound);
    }

    #[test]
    fn table1_naive_slower_than_kv8_on_a100() {
        // Table 1: naive KV4 runs at 0.86-0.90× the KV8 speed on A100.
        let gpu = GpuSpec::a100();
        for seq in [256usize, 512, 1024, 1536] {
            let kv8 = attention_decode_latency(&gpu, AttentionKernel::Kv8Static, shape(seq)).total_s;
            let naive = attention_decode_latency(&gpu, AttentionKernel::Kv4Naive, shape(seq)).total_s;
            let speed = kv8 / naive;
            assert!(
                (0.75..1.0).contains(&speed),
                "seq={}: naive speed ratio {} should be < 1",
                seq,
                speed
            );
        }
    }

    #[test]
    fn table1_qserve_kv4_faster_than_kv8_on_a100() {
        // Table 1: ours reaches 1.29×..1.51× over KV8, improving with seq.
        let gpu = GpuSpec::a100();
        let mut prev_speedup = 0.0;
        for seq in [128usize, 256, 512, 1024, 1536] {
            let kv8 = attention_decode_latency(&gpu, AttentionKernel::Kv8Static, shape(seq)).total_s;
            let ours = attention_decode_latency(&gpu, AttentionKernel::Kv4QServe, shape(seq)).total_s;
            let speedup = kv8 / ours;
            assert!(
                (1.2..2.1).contains(&speedup),
                "seq={}: speedup {} out of band",
                seq,
                speedup
            );
            assert!(
                speedup >= prev_speedup * 0.98,
                "speedup should grow (or hold) with seq: {} after {}",
                speedup,
                prev_speedup
            );
            prev_speedup = speedup;
        }
    }

    #[test]
    fn naive_kv4_faster_on_l40s() {
        // Table 1 discussion: "A naive KV4 attention implementation is 1.7×
        // faster on L40S than TRT-LLM-KV8" — L40S's CUDA cores are strong
        // enough that the naive kernel stays memory-bound.
        let gpu = GpuSpec::l40s();
        let kv8 = attention_decode_latency(&gpu, AttentionKernel::Kv8Static, shape(1024)).total_s;
        let naive = attention_decode_latency(&gpu, AttentionKernel::Kv4Naive, shape(1024)).total_s;
        let speedup = kv8 / naive;
        assert!(
            (1.4..2.0).contains(&speedup),
            "L40S naive KV4 speedup {} should be ≈1.7",
            speedup
        );
    }

    #[test]
    fn hadamard_attention_worst_on_a100() {
        // §5.3: QuaRot's in-kernel Hadamard makes real KV4 speedups hard.
        let gpu = GpuSpec::a100();
        let h = attention_decode_latency(&gpu, AttentionKernel::Kv4Hadamard, shape(1024)).total_s;
        let naive = attention_decode_latency(&gpu, AttentionKernel::Kv4Naive, shape(1024)).total_s;
        assert!(h > naive);
    }

    #[test]
    fn latency_scales_linearly_with_seq() {
        let gpu = GpuSpec::a100();
        let t1 = attention_decode_latency(&gpu, AttentionKernel::Kv8Static, shape(512)).total_s;
        let t2 = attention_decode_latency(&gpu, AttentionKernel::Kv8Static, shape(1024)).total_s;
        let ratio = t2 / t1;
        assert!((1.8..2.1).contains(&ratio), "ratio {}", ratio);
    }

    #[test]
    fn breakdown_ladder_monotonically_improves() {
        // §6.4: each optimization step reduces (or holds) latency, and the
        // full ladder lands ≈1.7× below the naive kernel.
        let gpu = GpuSpec::a100();
        let s = shape(1024);
        let mut prev = f64::MAX;
        let mut first = 0.0;
        let mut last = 0.0;
        for (i, (name, opts)) in AttentionOptimizations::ladder().into_iter().enumerate() {
            let t = attention_decode_latency_with(&gpu, opts, s).total_s;
            assert!(t <= prev * 1.0001, "step '{}' regressed: {} after {}", name, t, prev);
            prev = t;
            if i == 0 {
                first = t;
            }
            last = t;
        }
        let improvement = first / last;
        assert!(
            (1.4..2.4).contains(&improvement),
            "end-to-end kernel improvement {} should be ≈1.7×",
            improvement
        );
    }

    #[test]
    fn breakdown_endpoints_match_named_kernels() {
        let gpu = GpuSpec::a100();
        let s = shape(512);
        let naive_named = attention_decode_latency(&gpu, AttentionKernel::Kv4Naive, s).total_s;
        let naive_opts =
            attention_decode_latency_with(&gpu, AttentionOptimizations::none(), s).total_s;
        assert!((naive_named / naive_opts - 1.0).abs() < 0.15);
        let ours_named = attention_decode_latency(&gpu, AttentionKernel::Kv4QServe, s).total_s;
        let ours_opts =
            attention_decode_latency_with(&gpu, AttentionOptimizations::all(), s).total_s;
        assert!((ours_named / ours_opts - 1.0).abs() < 0.15);
    }

    #[test]
    fn gqa_reduces_memory_time() {
        // 8 KV heads vs 32: four times less KV traffic.
        let gpu = GpuSpec::a100();
        let mha = attention_decode_latency(&gpu, AttentionKernel::Kv8Static, shape(1024));
        let gqa = attention_decode_latency(
            &gpu,
            AttentionKernel::Kv8Static,
            AttentionShape {
                kv_heads: 8,
                ..shape(1024)
            },
        );
        assert!(gqa.memory_s < mha.memory_s / 3.0);
    }

    #[test]
    fn chunked_prefill_unchunked_is_bit_identical() {
        // The exact-integer identity (Σcᵢ)² = Σ cᵢ(cᵢ+2pᵢ): one whole-prompt
        // chunk must reproduce the hetero path bit for bit — the invariant
        // the golden-snapshot CSVs rest on.
        let gpu = GpuSpec::a100();
        for lens in [vec![1024usize], vec![1024, 512, 77], vec![1, 1, 4096]] {
            let chunks: Vec<(usize, usize)> = lens.iter().map(|&s| (s, 0)).collect();
            let hetero = attention_prefill_latency_hetero(
                &gpu, AttentionKernel::Kv4QServe, &lens, 32, 32, 128,
            );
            let chunked = attention_prefill_latency_chunked(
                &gpu, AttentionKernel::Kv4QServe, &chunks, 32, 32, 128,
            );
            assert_eq!(hetero.to_bits(), chunked.to_bits(), "lens {:?}", lens);
        }
    }

    #[test]
    fn chunk_split_work_sums_exactly_per_launch() {
        // Splitting one prompt into chunks conserves the causal-attention
        // totals: Σ cᵢ(cᵢ+2pᵢ) with running-sum pasts equals s² exactly, so
        // a merged launch of all chunks costs the same as the whole prompt.
        let gpu = GpuSpec::a100();
        let s = 1024usize;
        let whole = attention_prefill_latency_hetero(
            &gpu, AttentionKernel::Kv4QServe, &[s], 32, 32, 128,
        );
        for chunk in [128usize, 256, 1000] {
            let mut chunks = Vec::new();
            let mut past = 0;
            while past < s {
                let c = chunk.min(s - past);
                chunks.push((c, past));
                past += c;
            }
            let split = attention_prefill_latency_chunked(
                &gpu, AttentionKernel::Kv4QServe, &chunks, 32, 32, 128,
            );
            assert_eq!(whole.to_bits(), split.to_bits(), "chunk {}", chunk);
        }
    }

    #[test]
    fn shared_prefix_prefill_cheaper() {
        // A suffix over an aliased 896-token prefix costs less than
        // prefilling the whole 1024 tokens, but more than the bare suffix
        // (it still attends over the prefix).
        let gpu = GpuSpec::a100();
        let full = attention_prefill_latency_hetero(
            &gpu, AttentionKernel::Kv4QServe, &[1024], 32, 32, 128,
        );
        let bare = attention_prefill_latency_hetero(
            &gpu, AttentionKernel::Kv4QServe, &[128], 32, 32, 128,
        );
        let shared = attention_prefill_latency_chunked(
            &gpu, AttentionKernel::Kv4QServe, &[(128, 896)], 32, 32, 128,
        );
        assert!(shared < full, "sharing must save prefill: {} vs {}", shared, full);
        assert!(shared > bare, "context attention is not free: {} vs {}", shared, bare);
    }

    #[test]
    fn prefill_compute_bound_and_quadratic() {
        // Large enough that the fixed launch overhead is negligible.
        let gpu = GpuSpec::a100();
        let t1 = attention_prefill_latency(&gpu, AttentionKernel::Kv4QServe, 16, 1024, 32, 32, 128);
        let t2 = attention_prefill_latency(&gpu, AttentionKernel::Kv4QServe, 16, 2048, 32, 32, 128);
        let ratio = t2 / t1;
        assert!((3.5..4.3).contains(&ratio), "quadratic growth, got {}", ratio);
    }
}
