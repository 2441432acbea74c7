//! End-to-end generation through the deployed stack: QoQ-quantize a
//! synthetic model, deploy every block through the emulated W4A8 kernels and
//! paged KV4 cache, and generate tokens greedily — comparing against the
//! FP16 reference model's choices.
//!
//! ```text
//! cargo run --release --example generate
//! ```

use qserve::core::pipeline::{QoqConfig, WeightGranularity};
use qserve::model::eval::{argmax, quantize_blocks};
use qserve::model::forward::{block_forward, collect_calibration, forward_logits};
use qserve::model::synth::SyntheticModel;
use qserve::serve::kv_cache::KvCacheConfig;
use qserve::serve::{BlockRuntime, ModelRuntime, PagedKvCache, SequenceId};
use qserve::tensor::rng::TensorRng;
use qserve::tensor::stats::relative_error;

/// The deployed = evaluated property's KV4 bound
/// (`tests/deployed_is_what_is_evaluated.rs`): a deployed block whose
/// residual branch is further than this from the reference is not computing
/// the quantized function.
const BRANCH_ERROR_BOUND: f64 = 0.20;

fn main() {
    let model = SyntheticModel::small(2);
    let calib = TensorRng::seed(1).token_sequence(48, model.config.vocab);
    let cfg = QoqConfig {
        weight_granularity: WeightGranularity::PerGroup(32),
        ..QoqConfig::w4a8kv4_g128()
    };
    println!(
        "deploying {}: {} layers, hidden {}, W4A8KV4 (progressive g{:?})",
        model.config.name, model.config.layers, model.config.hidden, cfg.weight_granularity
    );
    let mut runtime = ModelRuntime::deploy(&model, &cfg, &calib, 4096);

    let prompt: Vec<u32> = vec![17, 201, 5, 88];
    let seq = runtime.start_sequence().expect("fresh sequence");
    let generated = runtime.generate_greedy(seq, &prompt, 12).expect("capacity");
    println!("\nprompt:    {:?}", prompt);
    println!("generated: {:?} (12 tokens, greedy)", generated);
    println!(
        "KV cache after generation: {} tokens across {} pages",
        runtime.cache().seq_len(seq),
        runtime.cache().used_pages()
    );

    // How often does the deployed model agree with the FP16 reference on
    // next-token choices along the same trajectory?
    let mut full: Vec<u32> = prompt.clone();
    full.extend(&generated);
    let ref_logits = forward_logits(&model, &full);
    let agree = (0..full.len() - 1)
        .filter(|&t| argmax(ref_logits.row(t)) as u32 == full[t + 1])
        .count();
    println!(
        "\nFP16 reference would have picked the same next token at {}/{} positions",
        agree,
        full.len() - 1
    );
    runtime.finish_sequence(seq).expect("registered");
    println!("sequence retired; all pages returned to the pool.");

    // Token agreement is a coarse check — the residual stream decides most
    // argmaxes on its own. What each deployed block *adds* to the stream is
    // the sharper one: its residual branch `out − x` against the FP16
    // block's, on the model's own activations along the same trajectory.
    let inputs = collect_calibration(&model, &full);
    let positions: Vec<usize> = (0..full.len()).collect();
    let mut mean = 0.0;
    for (layer, qb) in quantize_blocks(&model, &cfg, &calib).iter().enumerate() {
        let (x, (attn_norm, ffn_norm)) = (&inputs[layer], &model.norms[layer]);
        let mut cache = PagedKvCache::new(
            KvCacheConfig {
                page_tokens: 16,
                kv_heads: model.config.kv_heads,
                head_dim: model.config.head_dim(),
                layers: 1,
                precision: cfg.kv_precision,
            },
            4,
        );
        let seq = SequenceId(0);
        cache.register(seq).expect("fresh cache");
        let deployed = BlockRuntime::new(qb)
            .decode_step(x, &vec![seq; full.len()], &positions, 0, &mut cache, attn_norm, ffn_norm, model.rope_base)
            .expect("capacity");
        let reference = block_forward(x, &model.blocks[layer], attn_norm, ffn_norm, model.rope_base);
        let err = relative_error(&reference.sub(x), &deployed.sub(x));
        println!("block {layer}: deployed residual branch vs FP16, relative error {err:.4}");
        mean += err / model.config.layers as f64;
    }
    println!("mean branch error {mean:.4} (bound {BRANCH_ERROR_BOUND})");
    if mean > BRANCH_ERROR_BOUND {
        eprintln!("the deployed blocks do not compute the quantized model");
        std::process::exit(1);
    }
}
