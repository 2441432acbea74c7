//! Frozen kernel cost model: every `f64` the GEMM and attention latency
//! functions return, over a grid of kernels × GPUs × shapes, folded into one
//! FNV-1a digest per (GPU, kernel). The constants were recorded on the
//! commit *before* the cost model was rewritten so that a kernel is one row
//! of constants (PR 21) and must be reproduced bit for bit by every later
//! spelling of the same formulas.
//!
//! The golden CSVs print three or four significant digits and the paper
//! claims are inequalities, so neither can see a reassociated sum or a
//! constant that moved in the last place; these digests can. A digest per
//! (GPU, kernel) rather than one per file, so a drift names the row that
//! caused it.

use qserve_gpusim::attention_model::{
    attention_decode_latency, attention_decode_latency_hetero, attention_decode_latency_with,
    attention_prefill_latency_chunked, AttentionLatency, AttentionOptimizations, DecodeAttention,
};
use qserve_gpusim::{gemm_latency, AttentionKernel, AttentionShape, GemmConfig, GemmShape, GpuSpec};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

fn fold_attn(h: u64, l: AttentionLatency) -> u64 {
    [l.memory_s.to_bits(), l.compute_s.to_bits(), l.total_s.to_bits(), u64::from(l.compute_bound)]
        .into_iter()
        .fold(h, fold)
}

fn gpus() -> [GpuSpec; 2] {
    [GpuSpec::a100(), GpuSpec::l40s()]
}

const GEMM_CONFIGS: [GemmConfig; 9] = [
    GemmConfig::TrtFp16,
    GemmConfig::TrtW8A8,
    GemmConfig::TrtW4A16,
    GemmConfig::AtomW4A4,
    GemmConfig::QuarotW4A4,
    GemmConfig::QServeW4A8PerChannel,
    GemmConfig::QServeW4A8PerGroup,
    GemmConfig::DgqW4A8Unfused,
    GemmConfig::QServeW4A8Saturated,
];

const ATTENTION_KERNELS: [AttentionKernel; 5] = [
    AttentionKernel::Fp16Kv,
    AttentionKernel::Kv8Static,
    AttentionKernel::Kv4Naive,
    AttentionKernel::Kv4QServe,
    AttentionKernel::Kv4Hadamard,
];

/// Token counts on both sides of the `TILE_M` = 128 weight-reload boundary,
/// the decode regime, and prefill-wave totals.
const GEMM_M: [usize; 10] = [0, 1, 3, 16, 64, 127, 128, 129, 512, 4096];
/// `(n, k)`: the Llama-2-7B layer shapes, a 70B TP-4 shard, the Mixtral
/// expert FFN, and one shape that divides neither the k-tile nor the group.
const GEMM_NK: [(usize, usize); 7] = [
    (4096, 4096),
    (12288, 4096),
    (22016, 4096),
    (4096, 11008),
    (2560, 8192),
    (28672, 4096),
    (100, 200),
];

fn gemm_digest(gpu: &GpuSpec, cfg: GemmConfig) -> u64 {
    let mut h = FNV_OFFSET;
    for m in GEMM_M {
        for (n, k) in GEMM_NK {
            let l = gemm_latency(gpu, cfg, GemmShape { m, n, k });
            for bits in [l.memory_s, l.tensor_core_s, l.dequant_s, l.total_s].map(f64::to_bits) {
                h = fold(h, bits);
            }
        }
    }
    h
}

/// `(query_heads, kv_heads, head_dim)`: MHA, 4:1 and 8:1 GQA, a TP shard
/// down to one KV head, and a narrow head.
const HEADS: [(usize, usize, usize); 5] =
    [(32, 32, 128), (32, 8, 128), (64, 8, 128), (16, 1, 128), (8, 8, 64)];
const DECODE_BATCH: [usize; 4] = [1, 7, 64, 256];
/// Cached tokens per sequence; the totals grid is `batch × this` plus a
/// remainder, so totals that no homogeneous batch produces are covered too.
const DECODE_LEN: [usize; 4] = [1, 77, 1024, 4096];

fn decode_digest(gpu: &GpuSpec, kernel: AttentionKernel) -> u64 {
    let mut h = FNV_OFFSET;
    for (query_heads, kv_heads, head_dim) in HEADS {
        let decode = DecodeAttention::new(gpu, kernel, query_heads, kv_heads, head_dim);
        for batch in DECODE_BATCH {
            for len in DECODE_LEN {
                h = fold_attn(h, decode.latency(batch, batch * len + batch / 3));
            }
        }
        // The two wrappers, on shapes of their own.
        let shape = AttentionShape { batch: 48, seq_len: 1280, query_heads, kv_heads, head_dim };
        h = fold_attn(h, attention_decode_latency(gpu, kernel, shape));
        h = fold_attn(
            h,
            attention_decode_latency_hetero(
                gpu,
                kernel,
                &[256, 512, 1024, 2048, 17],
                query_heads,
                kv_heads,
                head_dim,
            ),
        );
    }
    h
}

/// Chunk lists `(new_tokens, past_tokens)`: whole prompts, a shared prefix,
/// one prompt split into running-sum chunks, a mixed wave, the empty wave,
/// and three waves short enough that the KV write, not the causal product,
/// is the binding term (the only place prefill reads the KV width).
const CHUNK_LISTS: [&[(usize, usize)]; 9] = [
    &[(1024, 0)],
    &[(1024, 0), (512, 0), (77, 0)],
    &[(128, 896)],
    &[(256, 0), (256, 256), (256, 512), (256, 768)],
    &[(1024, 3072), (1, 0), (333, 17), (64, 4096)],
    &[],
    &[(1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0)],
    &[(16, 0), (16, 0), (16, 0), (16, 0)],
    &[(32, 0), (8, 24), (2, 1)],
];

fn prefill_digest(gpu: &GpuSpec, kernel: AttentionKernel) -> u64 {
    let mut h = FNV_OFFSET;
    for (query_heads, kv_heads, head_dim) in HEADS {
        for chunks in CHUNK_LISTS {
            let t = attention_prefill_latency_chunked(
                gpu, kernel, chunks, query_heads, kv_heads, head_dim,
            );
            h = fold(h, t.to_bits());
        }
    }
    h
}

/// One digest per step of the §6.4 ladder, over four shapes.
fn ladder_digests(gpu: &GpuSpec) -> Vec<u64> {
    AttentionOptimizations::ladder()
        .into_iter()
        .map(|(_, opts)| {
            let mut h = FNV_OFFSET;
            for (batch, seq_len, (query_heads, kv_heads, head_dim)) in
                [(64, 1024, HEADS[0]), (16, 300, HEADS[1]), (1, 4096, HEADS[2]), (256, 77, HEADS[4])]
            {
                let shape = AttentionShape { batch, seq_len, query_heads, kv_heads, head_dim };
                h = fold_attn(h, attention_decode_latency_with(gpu, opts, shape));
            }
            h
        })
        .collect()
}

/// Recorded on commit b45bcf8 (the parent of the one-row-per-kernel rewrite):
/// `GEMM_CONFIGS` order, A100 then L40S.
const FROZEN_GEMM: [[u64; 9]; 2] = [
    [
        0xf249cdb40e576a26,
        0x037394f5720d8092,
        0x09414d1b1df48f27,
        0x1cbdc044cb85ec0e,
        0x1cbdc044cb85ec0e,
        0xdd19726fce065a28,
        0x7ae0b9bd66933226,
        0xa7f761032f6e9ea7,
        0xe15f8ab9f2320d7a,
    ],
    [
        0x47ef97c229a7db2e,
        0x8d25b51dc92fd54c,
        0x844bda21e9d5a077,
        0x7f13e5b783d47178,
        0x7f13e5b783d47178,
        0xf8602822c495f573,
        0x3c2859f5c7778489,
        0x7d65f6d1b2891793,
        0x37f8706439f27b94,
    ],
];

/// `ATTENTION_KERNELS` order, A100 then L40S: `(decode, prefill)`.
const FROZEN_ATTENTION: [[(u64, u64); 5]; 2] = [
    [
        (0xfb3cc7b521347bba, 0xd30e2cd5c1faef34),
        (0x1732027f986adf57, 0x254439304da04add),
        (0x165c1ee716291ba4, 0x29c8a2458f8d6a56),
        (0x2718eb6ab6042302, 0x29c8a2458f8d6a56),
        (0x9077b109143f3f88, 0x29c8a2458f8d6a56),
    ],
    [
        (0x9432d900518fd4c5, 0x3a9a90a073c155ca),
        (0x3e96640596f0112a, 0x7c90e3bec8e04c7c),
        (0xb0863a82992bb0e3, 0x611e041606234576),
        (0xa5eaeb263313a865, 0x611e041606234576),
        (0x75ff85220c38a7a6, 0x611e041606234576),
    ],
];

/// The six ladder steps in the paper's order, A100 then L40S.
const FROZEN_LADDER: [[u64; 6]; 2] = [
    [
        0xc97d91642777f3c5,
        0x8a828441d911e990,
        0xeaad26972385738d,
        0xcf7235fb6a668956,
        0x960a2cf084752a7b,
        0x68db6093da9fa3c4,
    ],
    [
        0x0f45f88bdb9c30e0,
        0xb20d945f8e755b74,
        0x833e67548e940f66,
        0xe4304725939919b3,
        0x2bec5c0bb46773e6,
        0xec4d945f8e755b74,
    ],
];

#[test]
fn gemm_latency_reproduces_the_bits_frozen_before_the_rewrite() {
    let actual: Vec<Vec<u64>> = gpus()
        .iter()
        .map(|gpu| GEMM_CONFIGS.iter().map(|&cfg| gemm_digest(gpu, cfg)).collect())
        .collect();
    if actual != FROZEN_GEMM {
        for row in &actual {
            eprintln!("    [");
            for d in row {
                eprintln!("        {d:#018x},");
            }
            eprintln!("    ],");
        }
    }
    for (g, gpu) in gpus().iter().enumerate() {
        for (c, cfg) in GEMM_CONFIGS.iter().enumerate() {
            assert_eq!(
                actual[g][c], FROZEN_GEMM[g][c],
                "{:?} on {} drifted from its frozen GEMM latencies",
                cfg, gpu.name
            );
        }
    }
    // Distinct rows must price differently, or the digest pins nothing. The
    // one exception is by design: Atom and QuaRot share a main loop.
    for row in &FROZEN_GEMM {
        for a in 0..row.len() {
            for b in a + 1..row.len() {
                let twins = (GEMM_CONFIGS[a], GEMM_CONFIGS[b])
                    == (GemmConfig::AtomW4A4, GemmConfig::QuarotW4A4);
                assert_eq!(row[a] == row[b], twins, "{:?} vs {:?}", GEMM_CONFIGS[a], GEMM_CONFIGS[b]);
            }
        }
    }
}

#[test]
fn attention_latency_reproduces_the_bits_frozen_before_the_rewrite() {
    let actual: Vec<Vec<(u64, u64)>> = gpus()
        .iter()
        .map(|gpu| {
            ATTENTION_KERNELS
                .iter()
                .map(|&k| (decode_digest(gpu, k), prefill_digest(gpu, k)))
                .collect()
        })
        .collect();
    if actual != FROZEN_ATTENTION {
        for row in &actual {
            eprintln!("    [");
            for (d, p) in row {
                eprintln!("        ({d:#018x}, {p:#018x}),");
            }
            eprintln!("    ],");
        }
    }
    for (g, gpu) in gpus().iter().enumerate() {
        for (k, kernel) in ATTENTION_KERNELS.iter().enumerate() {
            assert_eq!(
                actual[g][k], FROZEN_ATTENTION[g][k],
                "{:?} on {} drifted from its frozen (decode, prefill) latencies",
                kernel, gpu.name
            );
        }
    }
    for row in &FROZEN_ATTENTION {
        for a in 0..row.len() {
            for b in a + 1..row.len() {
                assert_ne!(row[a].0, row[b].0, "decode digests must tell kernels apart");
                // Prefill reads only the KV width: the three KV4 kernels agree.
                let same_bits = ATTENTION_KERNELS[a].kv_bits() == ATTENTION_KERNELS[b].kv_bits();
                assert_eq!(row[a].1 == row[b].1, same_bits);
            }
        }
    }
}

#[test]
fn optimization_ladder_reproduces_the_bits_frozen_before_the_rewrite() {
    let actual: Vec<Vec<u64>> = gpus().iter().map(ladder_digests).collect();
    if actual != FROZEN_LADDER {
        for row in &actual {
            eprintln!("    [");
            for d in row {
                eprintln!("        {d:#018x},");
            }
            eprintln!("    ],");
        }
    }
    for (g, gpu) in gpus().iter().enumerate() {
        for (step, (name, _)) in AttentionOptimizations::ladder().iter().enumerate() {
            assert_eq!(
                actual[g][step], FROZEN_LADDER[g][step],
                "ladder step '{}' on {} drifted from its frozen latencies",
                name, gpu.name
            );
        }
    }
}
