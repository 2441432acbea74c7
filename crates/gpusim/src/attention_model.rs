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

/// The constants the decode formula reads for one kernel design: what a
/// cached token costs to fetch, and the CUDA-core ops the fused loop spends
/// on each KV element, by kind.
#[derive(Debug, Clone, Copy)]
struct AttentionRow {
    /// KV storage bits per element.
    kv_bits: u32,
    /// Dynamic per-(token, head) parameter bytes (scale + zero for K and V).
    param_bytes_per_token_head: f64,
    /// Dequantization ops per element.
    dequant_ops: f64,
    /// QK and SV multiply-accumulate ops per element.
    mac_ops: f64,
    /// Loop-control ops per element.
    control_ops: f64,
    /// Nibble / parameter addressing ops per element.
    address_ops: f64,
    /// The per-element work runs on the FP16 (packed half2) pipe.
    fp16_pipe: bool,
}

impl AttentionKernel {
    fn row(self) -> AttentionRow {
        match self {
            // No dequant; FP32 MAC (2) + control (1).
            AttentionKernel::Fp16Kv => AttentionRow {
                kv_bits: 16,
                param_bytes_per_token_head: 0.0,
                dequant_ops: 0.0,
                mac_ops: 2.0,
                control_ops: 1.0,
                address_ops: 0.0,
                fp16_pipe: false,
            },
            // Convert+scale (2); static scales live in constant memory.
            AttentionKernel::Kv8Static => {
                AttentionRow { kv_bits: 8, dequant_ops: 2.0, ..AttentionKernel::Fp16Kv.row() }
            }
            AttentionKernel::Kv4Naive => AttentionOptimizations::none().row(),
            AttentionKernel::Kv4QServe => AttentionOptimizations::all().row(),
            // Naive dequant + on-the-fly Hadamard: +log2(128)=7 FMA/element.
            AttentionKernel::Kv4Hadamard => {
                AttentionRow { dequant_ops: 5.0 + 7.0, ..AttentionOptimizations::none().row() }
            }
        }
    }

    /// KV storage bits per element.
    pub fn kv_bits(self) -> u32 {
        self.row().kv_bits
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
    fn latency(&self, gpu: &GpuSpec, row: AttentionRow) -> AttentionLatency {
        decode_latency(
            gpu,
            row,
            self.batch,
            self.batch * self.seq_len,
            self.query_heads,
            self.kv_heads,
            self.head_dim,
        )
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

    /// The KV4 kernel these switches build: dynamic per-head FP16 scale +
    /// zero for K and for V (§5.1), and the §5.3 op budget.
    fn row(self) -> AttentionRow {
        AttentionRow {
            kv_bits: 4,
            param_bytes_per_token_head: 8.0,
            // Mask/shift/cvt/mul/sub (5), or the magic-bias pair (2).
            dequant_ops: if self.bit_tricks { 2.0 } else { 5.0 },
            // Each half (QK, SV) contributes one MAC; fp16 packing halves it.
            mac_ops: (if self.fp16_qk { 0.5 } else { 1.0 }) + (if self.fp16_sv { 0.5 } else { 1.0 }),
            control_ops: if self.simplified_control { 0.5 } else { 2.0 },
            address_ops: if self.prefetch_params { 0.0 } else { 1.0 },
            // The FP16 pipe is only usable once both products are halves.
            fp16_pipe: self.fp16_qk && self.fp16_sv,
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

/// The one decode formula, over batch-level totals.
fn decode_latency(
    gpu: &GpuSpec,
    row: AttentionRow,
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
    let kv_bytes = elems * f64::from(row.kv_bits) / 8.0;
    let param_bytes = tokens_heads * row.param_bytes_per_token_head;
    let qo_bytes = 2.0 * 2.0 * batch * query_heads as f64 * head_dim as f64;
    let score_bytes = 4.0 * total_tokens * query_heads as f64;
    let memory_s =
        (kv_bytes + param_bytes + qo_bytes + score_bytes) / (gpu.dram_bytes_per_s * ATTN_BW_EFFICIENCY);

    // Compute: per-element fused-kernel work. GQA replays each KV element
    // for every query head in its group.
    let ops = row.dequant_ops + row.mac_ops + row.control_ops + row.address_ops;
    let rate = if row.fp16_pipe { gpu.fp16_cuda_ops } else { gpu.fp32_cuda_ops };
    let group = (query_heads / kv_heads).max(1) as f64;
    let compute_s = ops * elems * group / (rate * ATTN_CUDA_EFFICIENCY);

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
    decode_latency(gpu, kernel.row(), batch, total_tokens, query_heads, kv_heads, head_dim)
}

/// Models one decode-attention launch.
pub fn attention_decode_latency(
    gpu: &GpuSpec,
    kernel: AttentionKernel,
    shape: AttentionShape,
) -> AttentionLatency {
    shape.latency(gpu, kernel.row())
}

/// Models a KV4 decode-attention launch with an explicit optimization set —
/// the §6.4 breakdown.
pub fn attention_decode_latency_with(
    gpu: &GpuSpec,
    opts: AttentionOptimizations,
    shape: AttentionShape,
) -> AttentionLatency {
    shape.latency(gpu, opts.row())
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

/// Prefill attention for a wave of prompt *chunks*: each entry is
/// `(new_tokens, past_tokens)` — `new_tokens` fresh prompt tokens attending
/// causally over `past_tokens` of already-cached context (an aliased shared
/// prefix and/or earlier chunks of the same prompt) plus themselves. Only
/// the new tokens' KV is written.
///
/// The causal work of a chunk is `c·(c + 2p)` in the same units that give a
/// whole prompt `s²` — and because `(Σcᵢ)² = Σ cᵢ·(cᵢ + 2pᵢ)` exactly when
/// the `pᵢ` are the running sums, every term is an exact integer and a
/// single chunk with no past, `(s, 0)`, is **bit-identical** to the closed
/// form for one whole prompt of length `s`. That identity is what keeps the
/// un-shared, un-chunked paper protocol byte-stable while shared or chunked
/// runs reuse the same cost model.
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

    /// Prefill (context) attention for `batch` fresh prompts of `seq_len`
    /// tokens, from the closed form `Σs = b·s`, `Σs² = b·s²` — the
    /// homogeneous oracle the chunked entry point must reproduce.
    fn attention_prefill_latency(
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

    /// Prefill attention for a wave of prompts with *per-sequence* lengths; the
    /// quadratic causal work is charged at each prompt's true length. For a
    /// homogeneous wave this is exactly `attention_prefill_latency`.
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
        // The named kernels *are* the ladder's two ends: same row, same bits.
        for gpu in [GpuSpec::a100(), GpuSpec::l40s()] {
            for (kernel, opts) in [
                (AttentionKernel::Kv4Naive, AttentionOptimizations::none()),
                (AttentionKernel::Kv4QServe, AttentionOptimizations::all()),
            ] {
                for s in [shape(512), AttentionShape { kv_heads: 8, ..shape(1537) }] {
                    let named = attention_decode_latency(&gpu, kernel, s);
                    let built = attention_decode_latency_with(&gpu, opts, s);
                    assert_eq!(named.memory_s.to_bits(), built.memory_s.to_bits());
                    assert_eq!(named.compute_s.to_bits(), built.compute_s.to_bits());
                    assert_eq!(named.total_s.to_bits(), built.total_s.to_bits());
                }
            }
        }
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
        // And the closed form b·s, b·s² for a wave of equal prompts.
        for (batch, len) in [(1usize, 1024usize), (7, 513), (64, 1024)] {
            let closed =
                attention_prefill_latency(&gpu, AttentionKernel::Kv8Static, batch, len, 32, 8, 128);
            let chunked = attention_prefill_latency_chunked(
                &gpu, AttentionKernel::Kv8Static, &vec![(len, 0); batch], 32, 8, 128,
            );
            assert_eq!(closed.to_bits(), chunked.to_bits(), "{} x {}", batch, len);
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
