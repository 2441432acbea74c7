//! *Deployed = evaluated*, as a property.
//!
//! `quantize_block` returns one artifact with two faces: `fake`, the
//! weights every accuracy table evaluates through the reference forward
//! pass, and `deployed` + the three activation frames, the integer form
//! `BlockRuntime` serves. Table 2 means something only if they are the same
//! function. This file builds **one** artifact per case
//! (`quantize_blocks`), runs the model's own block inputs through both
//! faces, and bounds the relative error between the two residual branches
//! `out − x` — the branch, because the whole block output is dominated by
//! the `x` the residual stream carries through and reads close even when
//! the branch is noise.
//!
//! Bounds (maxima measured over the draw space, see CHANGES.md PR 19):
//! ≤ 0.06 at KV8, the sharp arm — both faces quantize the same activations
//! and the same weights, so what is left is FP16 attention against f32 and
//! accumulation order; ≤ 0.20 at KV4, where the bound mostly holds the
//! cache's own quantization noise, which enters the two faces at different
//! points. A runtime that ignores a frame, or offline folds that pair query
//! and KV heads differently from the attention kernel, read 0.2 – 2.8.

use qserve::core::kv_quant::KvPrecision;
use qserve::core::pipeline::{QoqConfig, WeightGranularity};
use qserve::model::eval::quantize_blocks;
use qserve::model::forward::{block_forward_full, collect_calibration, ActQuant};
use qserve::model::synth::{SynthesisOptions, SyntheticModel};
use qserve::model::ModelConfig;
use qserve::serve::kv_cache::KvCacheConfig;
use qserve::serve::{BlockRuntime, PagedKvCache, SequenceId};
use qserve::tensor::props;
use qserve::tensor::rng::TensorRng;
use qserve::tensor::stats::relative_error;

/// `(hidden, query heads, KV heads)`: MHA, grouped and single-KV-head
/// layouts at head width 16. Hidden 64 / 128 put the FFN at 172 / 344, so a
/// g32 request shrinks to groups of 4 / 8 on the down projection.
const HIDDEN_64: [(usize, usize, usize); 3] = [(64, 4, 4), (64, 4, 2), (64, 4, 1)];
const HIDDEN_128: [(usize, usize, usize); 4] = [(128, 8, 8), (128, 8, 4), (128, 8, 2), (128, 8, 1)];

const KV8_BOUND: f64 = 0.06;
const KV4_BOUND: f64 = 0.20;

struct Case {
    layout: (usize, usize, usize),
    model_seed: u64,
    cfg: QoqConfig,
    layer: usize,
    tokens: usize,
}

/// Relative error between the deployed and the evaluated residual branch of
/// one block, both built from the same `QuantizedBlock`.
fn branch_error(case: &Case) -> f64 {
    let (hidden, heads, kv_heads) = case.layout;
    let config = ModelConfig {
        kv_heads,
        ..SyntheticModel::reduced_config(&ModelConfig::llama2_7b(), hidden, 2)
    };
    assert_eq!((config.hidden, config.heads), (hidden, heads));
    let model = SyntheticModel::generate(
        config,
        SynthesisOptions { seed: case.model_seed, ..SynthesisOptions::default() },
    );
    let vocab = model.config.vocab;
    let calib_tokens = TensorRng::seed(1).token_sequence(32, vocab);
    let qb = &quantize_blocks(&model, &case.cfg, &calib_tokens)[case.layer];

    // The model's own input to this block, on tokens calibration never saw.
    let fresh = TensorRng::seed(case.model_seed ^ 0xF2E5).token_sequence(case.tokens, vocab);
    let x = &collect_calibration(&model, &fresh)[case.layer];
    let (attn_norm, ffn_norm) = &model.norms[case.layer];

    // (i) What is served: the deployed weights behind their frames, over a
    // paged cache, as one prefill run.
    let mut cache = PagedKvCache::new(
        KvCacheConfig {
            page_tokens: 16,
            kv_heads,
            head_dim: model.config.head_dim(),
            layers: 1,
            precision: case.cfg.kv_precision,
        },
        8,
    );
    let seq = SequenceId(0);
    cache.register(seq).expect("a fresh cache");
    let positions: Vec<usize> = (0..case.tokens).collect();
    let deployed = BlockRuntime::new(qb)
        .decode_step(x, &vec![seq; case.tokens], &positions, 0, &mut cache, attn_norm, ffn_norm, model.rope_base)
        .expect("eight pages hold the run");

    // (ii) What is evaluated: the fake weights through the reference
    // forward, A8 at every GEMM input, the same KV precision.
    let a8 = ActQuant::PerToken { bits: 8, rotation: qb.input_frame.rotation.clone() };
    let evaluated = block_forward_full(
        x,
        &qb.fake,
        attn_norm,
        ffn_norm,
        model.rope_base,
        case.cfg.kv_precision,
        &a8,
    );
    relative_error(&deployed.sub(x), &evaluated.sub(x))
}

fn check(case: &Case) {
    let err = branch_error(case);
    let bound = match case.cfg.kv_precision {
        KvPrecision::Int8 => KV8_BOUND,
        _ => KV4_BOUND,
    };
    assert!(
        err <= bound,
        "deployed and evaluated branches differ by {err:.4} (bound {bound}) on layout {:?}, \
         model seed {}, layer {}, {} tokens, {:?}",
        case.layout,
        case.model_seed,
        case.layer,
        case.tokens,
        case.cfg
    );
}

fn all_off(weight_granularity: WeightGranularity, kv_precision: KvPrecision) -> QoqConfig {
    QoqConfig { kv_precision, ..QoqConfig::rtn(weight_granularity) }
}

props! {
    /// Any head layout, either granularity, either KV width, any subset of
    /// the five techniques, either layer.
    fn deployed_is_what_is_evaluated(rng, cases = 28) {
        // Hidden 128 in a quarter of the draws: tier-1 runs unoptimised.
        let layout = if rng.int_in(0, 3) == 0 {
            HIDDEN_128[rng.index(HIDDEN_128.len())]
        } else {
            HIDDEN_64[rng.index(HIDDEN_64.len())]
        };
        let mut flag = || rng.int_in(0, 1) == 1;
        let cfg = QoqConfig {
            weight_granularity: if flag() { WeightGranularity::PerGroup(32) } else { WeightGranularity::PerChannel },
            kv_precision: if flag() { KvPrecision::Int8 } else { KvPrecision::Int4 },
            rotation: flag(),
            smooth_attention: flag(),
            output_smoothing: flag(),
            channel_reorder: flag(),
            weight_clipping: flag(),
        };
        let case = Case {
            layout,
            model_seed: rng.int_in(1, 1 << 20) as u64,
            cfg,
            layer: rng.index(2),
            tokens: rng.int_in(16, 24) as usize,
        };
        check(&case);
    }
}

fn named(layout: (usize, usize, usize), cfg: QoqConfig) -> Case {
    Case { layout, model_seed: SynthesisOptions::default().seed, cfg, layer: 0, tokens: 24 }
}

/// A runtime that does not gather by the channel order its per-group
/// weights were quantized in feeds every group the wrong channels: the
/// branch comes out uncorrelated (relative error ≥ 1.4 before the frames).
#[test]
fn g32_reorder_on_mha() {
    let g32 = WeightGranularity::PerGroup(32);
    for kv in [KvPrecision::Int8, KvPrecision::Int4] {
        check(&named((128, 8, 8), QoqConfig { weight_granularity: g32, kv_precision: kv, ..QoqConfig::w4a8kv4_g128() }));
    }
}

/// No reorder involved: with query head `h` paired to KV head `h mod 2`
/// offline and `h / 4` in the kernel, the λ folded into W_Q / W_O do not
/// cancel the ones in W_K / W_V (0.20 at KV8 before `gqa_kv_map`).
#[test]
fn per_channel_on_8_2_gqa_at_kv8() {
    check(&named((128, 8, 2), QoqConfig { kv_precision: KvPrecision::Int8, ..QoqConfig::w4a8kv4_per_channel() }));
}

#[test]
fn g32_reorder_on_8_2_gqa() {
    let g32 = WeightGranularity::PerGroup(32);
    for kv in [KvPrecision::Int8, KvPrecision::Int4] {
        check(&named((128, 8, 2), QoqConfig { weight_granularity: g32, kv_precision: kv, ..QoqConfig::w4a8kv4_g128() }));
    }
}

/// RTN: no frame, no fold — the two faces differ by kernel arithmetic only.
#[test]
fn every_technique_off() {
    for layout in [(128, 8, 8), (128, 8, 2)] {
        check(&named(layout, all_off(WeightGranularity::PerGroup(32), KvPrecision::Int8)));
        check(&named(layout, all_off(WeightGranularity::PerChannel, KvPrecision::Int4)));
    }
}
