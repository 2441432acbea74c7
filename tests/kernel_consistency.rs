//! Cross-crate consistency: the QoQ algorithm's deployed artifacts must run
//! bit-exactly through the emulated GPU kernels.

use qserve::core::kv_quant::{quantize_token_row, KvPrecision};
use qserve::core::pipeline::{quantize_block, DeployedWeight, QoqConfig, WeightGranularity};
use qserve::kernels::attention::{decode_attention_fp16, QuantizedKvHead};
use qserve::kernels::{gemm_w4a8_per_channel, gemm_w4a8_per_group, quantize_activations_int8};
use qserve::model::synth::SyntheticModel;
use qserve::tensor::rng::TensorRng;
use qserve::tensor::Matrix;

/// The pipeline's deployed per-group weights must produce, through the
/// emulated kernel, exactly the dequantize-then-matmul result of the same
/// deployed form.
#[test]
fn pipeline_deployed_weights_match_kernel_output() {
    let model = SyntheticModel::small(1);
    let mut rng = TensorRng::seed(2);
    let calib = rng.gaussian(32, model.config.hidden, 1.0);
    let cfg = QoqConfig {
        weight_granularity: WeightGranularity::PerGroup(32),
        ..QoqConfig::w4a8kv4_g128()
    };
    let qb = quantize_block(&model.blocks[0], &calib, &cfg);
    let x = rng.gaussian(4, model.config.hidden, 1.0);
    let qx = quantize_activations_int8(&x);
    for (name, dep) in &qb.deployed {
        let DeployedWeight::Progressive(pw) = dep else {
            panic!("expected progressive weights");
        };
        if pw.k() != model.config.hidden || pw.k() % 32 != 0 {
            continue; // down_proj consumes the FFN width
        }
        let y_kernel = gemm_w4a8_per_group(&qx, pw);
        // Integer-exact reference through the intermediate INT8 tensor.
        let inter = pw.intermediate_int8();
        for i in 0..4 {
            for j in 0..pw.n() {
                let mut acc = 0i64;
                for p in 0..pw.k() {
                    acc += i64::from(qx.codes[i * pw.k() + p]) * i64::from(inter[j * pw.k() + p]);
                }
                let expect = acc as f32 * qx.scales[i] * pw.channel_scales()[j];
                assert_eq!(y_kernel[(i, j)], expect, "{} ({}, {})", name, i, j);
            }
        }
    }
}

/// Per-channel deployment path: epilogue-fused zero points, bit-exact.
#[test]
fn per_channel_deployment_bit_exact() {
    let model = SyntheticModel::small(1);
    let mut rng = TensorRng::seed(3);
    let calib = rng.gaussian(16, model.config.hidden, 1.0);
    let qb = quantize_block(&model.blocks[0], &calib, &QoqConfig::w4a8kv4_per_channel());
    let x = rng.gaussian(2, model.config.hidden, 1.0);
    let qx = quantize_activations_int8(&x);
    let (_, dep) = &qb.deployed[0];
    let DeployedWeight::PerChannel(pc) = dep else {
        panic!("expected per-channel weights");
    };
    let y = gemm_w4a8_per_channel(&qx, pc);
    let codes = pc.codes();
    for i in 0..2 {
        for j in 0..pc.n() {
            let mut acc = 0i64;
            for p in 0..pc.k() {
                let qw = i64::from(codes[j * pc.k() + p]) - i64::from(pc.zeros()[j]);
                acc += i64::from(qx.codes[i * pc.k() + p]) * qw;
            }
            let expect = acc as f32 * qx.scales[i] * pc.scales()[j];
            assert_eq!(y[(i, j)], expect);
        }
    }
}

/// KV rows quantized by `qserve-core` must flow through the attention kernel
/// and land near the unquantized reference.
#[test]
fn kv_quant_to_attention_kernel_path() {
    let mut rng = TensorRng::seed(4);
    let d = 32;
    let seq = 48;
    let keys = rng.gaussian(seq, d, 1.0);
    let values = rng.gaussian(seq, d, 1.0);
    let mut head = QuantizedKvHead::new(KvPrecision::Int4);
    for t in 0..seq {
        head.keys.push(quantize_token_row(keys.row(t), d, KvPrecision::Int4).remove(0));
        head.values.push(quantize_token_row(values.row(t), d, KvPrecision::Int4).remove(0));
    }
    let q: Vec<f32> = (0..d).map(|_| rng.normal(1.0)).collect();
    let out = decode_attention_fp16(&q, &head);
    let reference = qserve::tensor::ops::attention_single(&q, &keys, &values);
    for (a, b) in out.iter().zip(&reference) {
        assert!((a - b).abs() < 0.2, "{} vs {}", a, b);
    }
}

/// SmoothAttention folded into W_Q/W_K must leave the *kernel-computed*
/// attention scores unchanged (pre-RoPE), end to end.
#[test]
fn smooth_attention_fold_invisible_to_scores() {
    use qserve::core::smooth_attention::SmoothAttentionScales;
    let mut rng = TensorRng::seed(5);
    let hidden = 32;
    let d = 16;
    let x = rng.gaussian(6, hidden, 1.0);
    let wq = rng.gaussian(d, hidden, 0.2);
    let wk = rng.gaussian(d, hidden, 0.2);
    let k_cal = rng.with_outlier_channels(64, d, 0.5, &[3], 10.0);
    let s = SmoothAttentionScales::from_keys(&k_cal, d, 0.5);
    let scores0 = x.matmul_nt(&wq).matmul_nt(&x.matmul_nt(&wk));
    let scores1 = x
        .matmul_nt(&s.fold_into_wq(&wq))
        .matmul_nt(&x.matmul_nt(&s.fold_into_wk(&wk)));
    for (a, b) in scores0.as_slice().iter().zip(scores1.as_slice()) {
        assert!((a - b).abs() < 1e-3 * a.abs().max(1.0));
    }
}

/// Full fake-quant block applied to a forward pass changes outputs only
/// within the expected quantization noise band.
#[test]
fn fake_quant_block_bounded_damage() {
    use qserve::model::forward::block_forward;
    let model = SyntheticModel::small(1);
    let mut rng = TensorRng::seed(6);
    let calib = rng.gaussian(32, model.config.hidden, 1.0);
    let cfg = QoqConfig {
        weight_granularity: WeightGranularity::PerGroup(32),
        ..QoqConfig::w4a8kv4_g128()
    };
    let qb = quantize_block(&model.blocks[0], &calib, &cfg);
    let x = rng.gaussian(8, model.config.hidden, 1.0);
    let norms = vec![1.0f32; model.config.hidden];
    let y0 = block_forward(&x, &model.blocks[0], &norms, &norms, 10000.0);
    let y1 = block_forward(&x, &qb.fake, &norms, &norms, 10000.0);
    let rel = qserve::tensor::stats::relative_error(&y0, &y1);
    assert!(rel < 0.2, "block-level damage {} too large", rel);
    assert!(rel > 0.0, "quantization must not be a no-op");
    assert_ne!(y0, Matrix::zeros(8, model.config.hidden));
}
