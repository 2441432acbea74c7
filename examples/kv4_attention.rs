//! Walkthrough of the KV4 path: paged KV cache with inline per-head dynamic
//! scales (§5.1), the fp16 magic-bias dequantization trick, and the fused
//! decode-attention kernel (§5.3) checked against an FP32 reference.
//!
//! ```text
//! cargo run --release --example kv4_attention
//! ```

use qserve::core::kv_quant::KvPrecision;
use qserve::kernels::attention::{magic_bias_dequant, HeadTile};
use qserve::serve::kv_cache::{KvCacheConfig, PagedKvCache, SequenceId};
use qserve::tensor::fp16::F16;
use qserve::tensor::ops::attention_single;
use qserve::tensor::rng::TensorRng;
use qserve::tensor::Matrix;

fn main() {
    // --- The two-op dequantization trick (Kim et al. 2022) ---------------
    let scale = F16::from_f32(0.0371);
    println!("fp16 magic-bias dequantization (code, zero=8):");
    for code in [0u8, 7, 8, 15] {
        let v = magic_bias_dequant(code, 8, scale);
        println!("  code {:2} → {:+.4}  (exact: {:+.4})", code, v.to_f32(), (code as f32 - 8.0) * scale.to_f32());
    }

    // --- Fill a paged KV4 cache token by token ---------------------------
    let cfg = KvCacheConfig {
        page_tokens: 32,
        kv_heads: 4,
        head_dim: 32,
        layers: 1,
        precision: KvPrecision::Int4,
    };
    let mut cache = PagedKvCache::new(cfg, 256);
    let seq = SequenceId(0);
    cache.register(seq).expect("fresh id");

    let mut rng = TensorRng::seed(11);
    let width = cfg.kv_heads * cfg.head_dim;
    let tokens = 100;
    let keys = rng.gaussian(tokens, width, 1.0);
    let values = rng.gaussian(tokens, width, 1.0);
    for t in 0..tokens {
        cache.append_token(seq, 0, keys.row(t), values.row(t)).expect("capacity");
    }
    println!(
        "\npaged cache: {} tokens cached in {} pages ({} bytes/page, scales stored inline)",
        cache.seq_len(seq),
        cache.used_pages(),
        cfg.page_bytes()
    );

    // --- Decode attention against the quantized cache --------------------
    let head = 2;
    let q: Vec<f32> = (0..cfg.head_dim).map(|_| rng.normal(1.0)).collect();
    // The kernel reads the page bytes in place — no quantized token is
    // copied out — dequantizing the head once into a tile it then attends.
    let view = cache.head_view(seq, 0, head).expect("registered");
    let mut tile = HeadTile::default();
    let cached = view.fill(&mut tile);
    let mut out_kv4 = vec![0.0f32; cfg.head_dim];
    tile.attend(&q, cached, &mut out_kv4);

    // FP32 reference over the unquantized K/V slices of that head.
    let lo = head * cfg.head_dim;
    let hi = lo + cfg.head_dim;
    let k_ref = keys.slice_cols(lo, hi);
    let v_ref = values.slice_cols(lo, hi);
    let out_ref = attention_single(&q, &k_ref, &v_ref);

    let err = out_kv4
        .iter()
        .zip(&out_ref)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!(
        "decode attention over {} cached tokens: max |KV4 − FP32| = {:.4}",
        tokens, err
    );
    println!("first 4 outputs  KV4: {:?}", &out_kv4[..4].iter().map(|v| Matrix::from_rows(&[vec![*v]])[(0,0)]).collect::<Vec<_>>());
    println!("first 4 outputs FP32: {:?}", &out_ref[..4]);
}
