//! Quickstart: quantize a synthetic transformer block with QoQ, inspect the
//! reports, and run the emulated W4A8 GEMM against its FP32 reference.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use qserve::core::pipeline::{
    quantize_block, DeployedWeight, QoqConfig, WeightGranularity, Q_PROJ,
};
use qserve::kernels::{gemm_w4a8_per_group, quantize_activations_int8};
use qserve::model::forward::collect_calibration;
use qserve::model::synth::SyntheticModel;
use qserve::tensor::rng::TensorRng;
use qserve::tensor::stats::relative_error;

fn main() {
    // 1. A reduced-scale synthetic Llama-2-7B twin (2 layers) with the
    //    outlier pathologies real checkpoints show.
    let model = SyntheticModel::small(2);
    println!(
        "model: {} — hidden {}, {} heads ({} kv), {} layers",
        model.config.name,
        model.config.hidden,
        model.config.heads,
        model.config.kv_heads,
        model.config.layers
    );

    // 2. Calibrate on a short token stream and quantize block 0 with the
    //    full QoQ recipe (rotation + SmoothAttention + smoothing + reorder +
    //    clip + progressive group quantization).
    let mut rng = TensorRng::seed(7);
    let calib_tokens = rng.token_sequence(64, model.config.vocab);
    let calib = collect_calibration(&model, &calib_tokens);
    let cfg = QoqConfig {
        weight_granularity: WeightGranularity::PerGroup(32),
        ..QoqConfig::w4a8kv4_g128()
    };
    let qb = quantize_block(&model.blocks[0], &calib[0], &cfg);

    println!("\nper-layer quantization reports:");
    for r in &qb.reports {
        println!(
            "  {:10}  weight SQNR {:6.2} dB   clip α {:.2}",
            r.name, r.weight_sqnr_db, r.clip_alpha
        );
    }

    // 3. Run the deployed form through the emulated GPU kernel: per-group
    //    W4A8 GEMM with register-level-parallel dequantization.
    let x = rng.gaussian(8, model.config.hidden, 1.0);
    let qx = quantize_activations_int8(&x);
    let (name, deployed) = &qb.deployed[Q_PROJ];
    let DeployedWeight::Progressive(pw) = deployed else {
        unreachable!("g128 config produces progressive weights");
    };
    let y_kernel = gemm_w4a8_per_group(&qx, pw);
    // Reference: FP32 GEMM against the *transformed* weight the kernel holds.
    let y_ref = x.matmul_nt(&pw.dequantize());
    println!(
        "\nW4A8 kernel vs FP32 reference on {}: relative error {:.4} \
         (within activation-quantization noise)",
        name,
        relative_error(&y_ref, &y_kernel)
    );
    println!(
        "protective-range invariant: max |intermediate| = {} (must be ≤ 127)",
        pw.max_intermediate_abs()
    );
}
