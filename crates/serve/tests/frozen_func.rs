//! Frozen functional arithmetic: the W4A8KV4 data plane pinned to the bit.
//!
//! The constants below were recorded by running this file on the commit
//! *before* the attention kernel became a dequantized head tile shared by
//! every row of a run and the W4A8 main loop moved to i16 lanes. Every
//! scenario folds into FNV-1a (a) the `to_bits` of every logit
//! `ModelRuntime::step_batch` returns (for the block-level scenarios, of
//! every hidden state `BlockRuntime::decode_step` returns; for the
//! cache-level ones, of every attention output) and (b) `read_head` of
//! every live (sequence, layer, KV head) afterwards — codes, scales and
//! zeros. The older pins hold tokens only
//! (`shared_chunked_serve_is_pinned_to_the_pre_batching_values`) or compare
//! the batched path with itself (`batched_step_equals_token_at_a_time`);
//! this one holds the arithmetic, so a kernel rewrite that moves a single
//! rounding anywhere in a step fails here by name.
//!
//! Between them the scenarios cover KV4 and KV8, per-group (g32) and
//! per-channel weights, MHA and a 4:1 GQA model, chunk runs of 1 / 5 / 16 /
//! 17 / 32 rows (page-aligned and not; pages hold 16 tokens), forks ending
//! mid-page whose parent then fills the shared tail further, interleaved
//! rows of two sequences, multi-sequence decode ticks, odd head widths, and
//! the `func_serve` deployment served with sharing and 32-token chunks.
//!
//! Seven of the twelve pins were re-recorded on PR 19's commit (parent
//! `8a58dd7`), because what they had frozen was the wrong function. The six
//! `g32` scenarios (`kv4_g32_mha_chunk_ladder`, `kv4_g32_gqa_chunk_ladder`,
//! `kv8_g32_mha_interleaved`, `kv4_g32_mha_decode_ticks`,
//! `kv8_g32_gqa_decode_ticks`, `kv4_g32_gqa_forks`) had pinned a runtime
//! that never gathered activations into the channel order its per-group
//! weights were quantized in, so every block's residual branch was noise;
//! `kv4_per_channel_gqa_interleaved` (and the three `g32` GQA scenarios
//! again) had pinned offline folds that paired query head `h` with KV head
//! `h mod kv_heads` where the attention kernel reads `h / (heads /
//! kv_heads)`. The other five — per-channel MHA, the cache-level scenario
//! and the two `func_serve` token digests — did not move. That the new
//! values are the *right* function is not this file's claim:
//! `tests/deployed_is_what_is_evaluated.rs` is the oracle for that (the
//! deployed block against the fake-quant reference built from the same
//! artifact); this file only says they do not move again.

use qserve_core::kv_quant::KvPrecision;
use qserve_core::pipeline::{QoqConfig, WeightGranularity};
use qserve_model::eval::quantize_blocks;
use qserve_model::synth::{SynthesisOptions, SyntheticModel};
use qserve_model::ModelConfig;
use qserve_serve::kv_cache::KvCacheConfig;
use qserve_serve::request::{ArrivalPattern, LengthDist, PrefixSharing, SloSpec, WorkloadSpec};
use qserve_serve::scheduler::{Fcfs, PreemptionMode, SchedOptions};
use qserve_serve::{paged_decode_attention, BlockRuntime, ModelRuntime, PagedKvCache, SequenceId};
use qserve_tensor::rng::TensorRng;
use qserve_tensor::Matrix;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// Folds every cached token of `seqs` — codes, scale bits, zero — in
/// (sequence, layer, KV head, K-then-V, token) order.
fn digest_cache(h: &mut Fnv, cache: &PagedKvCache, seqs: &[SequenceId]) {
    let cfg = *cache.config();
    for &seq in seqs {
        h.u64(cache.seq_len(seq) as u64);
        for layer in 0..cfg.layers {
            for head in 0..cfg.kv_heads {
                let (keys, values) = cache.read_head(seq, layer, head).expect("a live sequence");
                for token in keys.iter().chain(&values) {
                    h.bytes(&token.codes);
                    h.f32s(&[token.params.scale]);
                    h.u64(token.params.zero as u64);
                }
            }
        }
    }
}

fn g32() -> QoqConfig {
    QoqConfig { weight_granularity: WeightGranularity::PerGroup(32), ..QoqConfig::w4a8kv4_g128() }
}

fn with_kv(cfg: QoqConfig, kv_precision: KvPrecision) -> QoqConfig {
    QoqConfig { kv_precision, ..cfg }
}

/// Hidden 64, 4 heads × 16, MHA, FFN 172 (so the down projection's groups
/// shrink to 4 and its last packed word is ragged).
fn mha_model() -> SyntheticModel {
    SyntheticModel::small(2)
}

/// Hidden 128, 8 query heads over 2 KV heads (4:1 GQA), FFN 344.
fn gqa_model() -> SyntheticModel {
    let cfg = SyntheticModel::reduced_config(&ModelConfig::llama3_8b(), 128, 2);
    assert_eq!((cfg.heads, cfg.kv_heads), (8, 2));
    SyntheticModel::generate(cfg, SynthesisOptions::default())
}

fn deploy(model: &SyntheticModel, qoq: &QoqConfig) -> ModelRuntime {
    let calib = TensorRng::seed(1).token_sequence(32, model.config.vocab);
    ModelRuntime::deploy(model, qoq, &calib, 256)
}

/// Runs `batches` through `step_batch`, asking for every row's logits, and
/// returns `(logit digest, cache digest)`.
fn run_batches(rt: &mut ModelRuntime, live: &[SequenceId], batches: &[Vec<(SequenceId, u32)>]) -> (u64, u64) {
    let mut logits = Fnv::new();
    for rows in batches {
        let every_row: Vec<usize> = (0..rows.len()).collect();
        for row in rt.step_batch(rows, &every_row).expect("the pool is large enough") {
            logits.f32s(&row);
        }
    }
    let mut kv = Fnv::new();
    digest_cache(&mut kv, rt.cache(), live);
    (logits.0, kv.0)
}

/// One sequence fed as chunk runs of 1, 5, 16, 17 and 32 rows — starting
/// at positions 0, 1, 6, 22 and 39, so runs begin and end on page
/// boundaries and off them — then three single decode rows.
fn chunk_ladder(model: &SyntheticModel, qoq: &QoqConfig) -> (u64, u64) {
    let mut rt = deploy(model, qoq);
    let seq = rt.start_sequence().unwrap();
    let mut rng = TensorRng::seed(0xF0);
    let mut batches: Vec<Vec<(SequenceId, u32)>> = [1usize, 5, 16, 17, 32, 1, 1, 1]
        .iter()
        .map(|&n| rng.token_sequence(n, model.config.vocab).into_iter().map(|t| (seq, t)).collect())
        .collect();
    // A second sequence whose first run is exactly one page, then exactly
    // two more: every run page-aligned at both ends.
    let aligned = rt.start_sequence().unwrap();
    for n in [16usize, 32] {
        batches.push(rng.token_sequence(n, model.config.vocab).into_iter().map(|t| (aligned, t)).collect());
    }
    run_batches(&mut rt, &[seq, aligned], &batches)
}

/// Rows of two sequences interleaved inside one batch (so each sequence is
/// several separate runs, in row order), then mixed decode + chunk ticks.
fn interleaved(model: &SyntheticModel, qoq: &QoqConfig) -> (u64, u64) {
    let mut rt = deploy(model, qoq);
    let (a, b) = (rt.start_sequence().unwrap(), rt.start_sequence().unwrap());
    let mut rng = TensorRng::seed(0xF1);
    let vocab = model.config.vocab as i64;
    let mut tok = || rng.int_in(0, vocab - 1) as u32;
    let pattern = |order: &[SequenceId], tok: &mut dyn FnMut() -> u32| -> Vec<(SequenceId, u32)> {
        order.iter().map(|&s| (s, tok())).collect()
    };
    let batches = vec![
        // a a a b b a b b b b a a a a a a a a a a a a a a b  (runs of 3,2,1,4,14,1)
        pattern(
            &[vec![a; 3], vec![b; 2], vec![a; 1], vec![b; 4], vec![a; 14], vec![b; 1]].concat(),
            &mut tok,
        ),
        // Strict alternation: every run is one row, both sequences growing.
        pattern(&[a, b, a, b, a, b, a, b, a, b], &mut tok),
        // A decode row of `a` riding with a 19-row chunk of `b`.
        pattern(&[vec![a; 1], vec![b; 19]].concat(), &mut tok),
        pattern(&[b, a], &mut tok),
    ];
    run_batches(&mut rt, &[a, b], &batches)
}

/// Four sequences prefilled to different lengths (one crossing two page
/// boundaries), then six decode ticks over all of them at once.
fn decode_ticks(model: &SyntheticModel, qoq: &QoqConfig) -> (u64, u64) {
    let mut rt = deploy(model, qoq);
    let mut rng = TensorRng::seed(0xF2);
    let mut batches = Vec::new();
    let mut live = Vec::new();
    for n in [3usize, 15, 16, 37] {
        let seq = rt.start_sequence().unwrap();
        live.push(seq);
        batches.push(rng.token_sequence(n, model.config.vocab).into_iter().map(|t| (seq, t)).collect());
    }
    for _tick in 0..6 {
        batches.push(live.iter().map(|&s| (s, rng.token_sequence(1, model.config.vocab)[0])).collect());
    }
    run_batches(&mut rt, &live, &batches)
}

/// The block-level twin of `step_batch` over a cache this file owns, so a
/// scenario can fork: embedding rows through every block's `decode_step`.
struct Stack {
    model: SyntheticModel,
    blocks: Vec<BlockRuntime>,
    cache: PagedKvCache,
    hidden: Fnv,
}

impl Stack {
    fn new(model: SyntheticModel, qoq: &QoqConfig) -> Self {
        let calib_tokens = TensorRng::seed(1).token_sequence(32, model.config.vocab);
        let blocks = quantize_blocks(&model, qoq, &calib_tokens).iter().map(BlockRuntime::new).collect();
        let cache = PagedKvCache::new(
            KvCacheConfig {
                page_tokens: 16,
                kv_heads: model.config.kv_heads,
                head_dim: model.config.head_dim(),
                layers: model.config.layers,
                precision: qoq.kv_precision,
            },
            256,
        );
        Self { model, blocks, cache, hidden: Fnv::new() }
    }

    /// One batched step; every row's final hidden state is folded in.
    fn step(&mut self, rows: &[(SequenceId, u32)]) {
        let mut x = Matrix::zeros(rows.len(), self.model.config.hidden);
        let mut seqs = Vec::new();
        let mut positions = Vec::new();
        for (i, &(seq, token)) in rows.iter().enumerate() {
            x.row_mut(i).copy_from_slice(self.model.embedding.row(token as usize));
            let earlier = rows[..i].iter().filter(|r| r.0 == seq).count();
            positions.push(self.cache.seq_len(seq) + earlier);
            seqs.push(seq);
        }
        for (layer, (block, (attn_norm, ffn_norm))) in self.blocks.iter().zip(&self.model.norms).enumerate() {
            x = block
                .decode_step(&x, &seqs, &positions, layer, &mut self.cache, attn_norm, ffn_norm, self.model.rope_base)
                .expect("the pool is large enough");
        }
        self.hidden.f32s(x.as_slice());
    }
}

/// Forks that end mid-page and on a page boundary; the parent keeps
/// filling the tail page it still shares; the children then run chunks
/// (copy-on-write on the first append) and everybody decodes together.
fn forks(model: SyntheticModel, qoq: &QoqConfig) -> (u64, u64) {
    let vocab = model.config.vocab;
    let mut s = Stack::new(model, qoq);
    let mut rng = TensorRng::seed(0xF3);
    let mut run = |seq: SequenceId, n: usize| -> Vec<(SequenceId, u32)> {
        rng.token_sequence(n, vocab).into_iter().map(|t| (seq, t)).collect()
    };
    let (parent, mid, aligned, late) = (SequenceId(0), SequenceId(1), SequenceId(2), SequenceId(3));
    s.cache.register(parent).unwrap();
    s.step(&run(parent, 21)); // one full page + 5 slots of the second
    s.cache.fork(parent, mid, 19).unwrap(); // ends mid-page: 3 own slots of the shared tail
    s.cache.fork(parent, aligned, 16).unwrap(); // ends on the page boundary
    s.step(&run(parent, 6)); // the parent fills the shared tail to 27 (it owns the page: no copy)
    // The child's first append copies the tail page; its tile must hold its
    // own 19 tokens, not the parent's 27.
    s.step(&run(mid, 5));
    s.step(&run(aligned, 17));
    // A late fork of the parent, decoded straight away in one batch with
    // everyone else: a run of one whose first append copies a fuller tail.
    s.cache.fork(parent, late, 25).unwrap();
    let tick: Vec<(SequenceId, u32)> =
        [late, parent, mid, aligned].iter().flat_map(|&q| run(q, 1)).collect();
    s.step(&tick);
    s.step(&[run(mid, 9), run(late, 8), run(parent, 1)].concat());
    let mut kv = Fnv::new();
    digest_cache(&mut kv, &s.cache, &[parent, mid, aligned, late]);
    (s.hidden.0, kv.0)
}

/// Cache-level: head widths no model here has (odd ones leave a half-used
/// byte per KV4 lane), a GQA group of 3, 4-token pages, and a forked child
/// *reading* — without ever appending — a tail page its parent filled
/// further. Attention is taken at every length as the cache grows.
fn odd_head_dims() -> (u64, u64) {
    let (mut out, mut kv) = (Fnv::new(), Fnv::new());
    for precision in [KvPrecision::Int4, KvPrecision::Int8] {
        for (head_dim, kv_heads, query_heads) in [(5usize, 2usize, 6usize), (17, 1, 2), (2, 3, 3)] {
            let cfg = KvCacheConfig { page_tokens: 4, kv_heads, head_dim, layers: 2, precision };
            let mut cache = PagedKvCache::new(cfg, 64);
            let mut rng = TensorRng::seed(0xF4 + head_dim as u64);
            let rows = rng.gaussian(2 * 2 * 13, kv_heads * head_dim, 1.0);
            let queries = rng.gaussian(13, query_heads * head_dim, 1.0);
            let (parent, child) = (SequenceId(0), SequenceId(1));
            cache.register(parent).unwrap();
            for t in 0..13 {
                for layer in 0..2 {
                    let at = 4 * t + 2 * layer;
                    cache.append_token(parent, layer, rows.row(at), rows.row(at + 1)).unwrap();
                }
                if t == 5 {
                    cache.fork(parent, child, 6).unwrap(); // 2 own slots of the second page
                }
                for layer in 0..2 {
                    out.f32s(&paged_decode_attention(&cache, parent, layer, queries.row(t)).unwrap());
                    if t >= 5 {
                        out.f32s(&paged_decode_attention(&cache, child, layer, queries.row(t)).unwrap());
                    }
                }
            }
            digest_cache(&mut kv, &cache, &[parent, child]);
        }
    }
    (out.0, kv.0)
}

/// The `func_serve` deployment (hidden 128, two layers, g32, 64 calibration
/// tokens, 8192 pages) serving the benchmark's workload shape — six
/// requests behind one shared 32-token prompt, batch limit 8, sharing and
/// 32-token chunks on. Pins every output token and both step indices.
fn func_serve(seed: u64) -> (u64, u64) {
    let model = SyntheticModel::generate(
        SyntheticModel::reduced_config(&ModelConfig::llama2_7b(), 128, 2),
        SynthesisOptions::default(),
    );
    let calib = TensorRng::seed(1).token_sequence(64, model.config.vocab);
    let mut rt = ModelRuntime::deploy(&model, &g32(), &calib, 8192);
    let spec = WorkloadSpec {
        num_requests: 6,
        input: LengthDist::Uniform { lo: 26, hi: 30 },
        output: LengthDist::Fixed(16),
        arrival: ArrivalPattern::Batch,
        sharing: PrefixSharing::Groups { groups: 1, prefix_len: 32 },
        slo: SloSpec::None,
        seed,
    };
    let opts = SchedOptions {
        share_prefixes: true,
        chunk_tokens: Some(32),
        preemption: PreemptionMode::Recompute,
    };
    let served = rt.serve_with(&spec, 8, Box::new(Fcfs), opts).expect("the ledger is peak-reserving");
    assert_eq!(served.len(), 6);
    assert_eq!(rt.cache().used_pages(), 0, "every page returned");
    let (mut tokens, mut steps) = (Fnv::new(), Fnv::new());
    for r in &served {
        tokens.u64(r.id.0);
        r.prompt.iter().chain(&r.output).for_each(|&t| tokens.u64(u64::from(t)));
        steps.u64(r.first_token_step as u64);
        steps.u64(r.finish_step as u64);
    }
    (tokens.0, steps.0)
}

type Scenario = (&'static str, fn() -> (u64, u64), (u64, u64));

/// `(name, scenario, (output digest, cache digest))`; for `func_serve_*`
/// the pair is `(token digest, step-index digest)`.
const FROZEN: [Scenario; 12] = [
    ("kv4_g32_mha_chunk_ladder", || chunk_ladder(&mha_model(), &g32()), (0x8ce3_3b0b_bfdb_75e9, 0x47cb_7f63_8f4b_7999)),
    (
        "kv8_per_channel_mha_chunk_ladder",
        || chunk_ladder(&mha_model(), &with_kv(QoqConfig::w4a8kv4_per_channel(), KvPrecision::Int8)),
        (0xc6a0_3588_6bf9_ec53, 0x6fbb_29d3_f8e7_5cd8),
    ),
    ("kv4_g32_gqa_chunk_ladder", || chunk_ladder(&gqa_model(), &g32()), (0xd84b_b192_7d8d_06a2, 0xfccf_3545_4e15_d746)),
    (
        "kv4_per_channel_gqa_interleaved",
        || interleaved(&gqa_model(), &QoqConfig::w4a8kv4_per_channel()),
        (0x2a90_1b08_5cd2_e379, 0x34b0_617c_6f21_6129),
    ),
    ("kv8_g32_mha_interleaved", || interleaved(&mha_model(), &with_kv(g32(), KvPrecision::Int8)), (0x3bcc_b553_afa1_3a1d, 0xf373_da71_85a1_cbda)),
    ("kv4_g32_mha_decode_ticks", || decode_ticks(&mha_model(), &g32()), (0x0f69_693a_e5c7_6ba0, 0x49f3_8423_59b8_274e)),
    ("kv8_g32_gqa_decode_ticks", || decode_ticks(&gqa_model(), &with_kv(g32(), KvPrecision::Int8)), (0x69e2_115e_c6f8_9c86, 0xaca0_aed9_f5bf_8c72)),
    ("kv4_g32_gqa_forks", || forks(gqa_model(), &g32()), (0xae16_8392_1775_dcf1, 0x2314_b28c_2031_8d36)),
    (
        "kv8_per_channel_mha_forks",
        || forks(mha_model(), &with_kv(QoqConfig::w4a8kv4_per_channel(), KvPrecision::Int8)),
        (0x8f4e_0c08_97c0_8286, 0x2b67_e71a_e78a_eef6),
    ),
    ("odd_head_dims_cache_level", odd_head_dims, (0x9ef5_c79f_4570_d765, 0xb02e_a275_c95e_2480)),
    ("func_serve_seed_7", || func_serve(7), (0xc12b_15b0_27f7_ea58, 0x601c_c419_3b1d_c3e5)),
    ("func_serve_seed_11", || func_serve(11), (0x5583_8a80_35f6_1e48, 0xb40c_8da5_7ea6_7c65)),
];

#[test]
fn functional_arithmetic_is_frozen() {
    let mut drifted = Vec::new();
    for (name, scenario, want) in FROZEN {
        let got = scenario();
        if got != want {
            drifted.push(format!("{name}: got ({:#018x}, {:#018x}), frozen ({:#018x}, {:#018x})", got.0, got.1, want.0, want.1));
        }
    }
    assert!(drifted.is_empty(), "functional arithmetic moved:\n{}", drifted.join("\n"));
}
