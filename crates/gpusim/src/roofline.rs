//! Roofline analysis (Figure 3): attainable GEMM performance versus
//! computation intensity for each weight/activation precision pair, and the
//! attention-side KV-precision rooflines. A precision pair is named by a
//! kernel that runs it ([`GemmConfig`]), so the roofline and
//! [`crate::gemm_latency`] read the same bit widths and the first is a floor
//! under the second.

use crate::gemm_model::GemmConfig;
use crate::spec::GpuSpec;

/// Attainable performance (operations/second) of a decode-stage GEMM at
/// computation intensity `m` MACs/element (≈ token batch size, §3.1), for
/// an `n×k` weight that dominates memory traffic.
///
/// The model: moving one weight element costs `weight_bits/8` bytes and
/// yields `m` MACs = `2m` ops; activations add `m·act_bits/(8)` bytes per
/// `n` weight elements (negligible for the decode regime but included).
pub fn attainable_gemm_ops(gpu: &GpuSpec, cfg: GemmConfig, m: f64, n: f64, k: f64) -> f64 {
    let ops = 2.0 * m * n * k;
    let bytes = n * k * f64::from(cfg.weight_bits()) / 8.0
        + m * k * f64::from(cfg.act_bits()) / 8.0
        + m * n * 2.0; // FP16 outputs
    let compute_time = ops / gpu.tc_ops_for_bits(cfg.act_bits());
    let memory_time = bytes / gpu.dram_bytes_per_s;
    ops / compute_time.max(memory_time)
}

/// Attainable performance of decode attention per KV element precision
/// (the right side of Figure 3): intensity is fixed at 1 MAC/element, so the
/// roofline is purely `bandwidth × (16 / kv_bits)` relative to FP16 — "KV4
/// offers 2× peak performance for attention over KV8".
pub fn attainable_attention_ops(gpu: &GpuSpec, kv_bits: u32) -> f64 {
    // 1 MAC = 2 ops per element of kv_bits/8 bytes.
    2.0 * gpu.dram_bytes_per_s / (f64::from(kv_bits) / 8.0)
}

/// The batch size where two precision rooflines cross (None if one dominates
/// everywhere in `1..=512`). Used to verify the paper's m≈78 W4A16/W8A8
/// crossover.
pub fn crossover_batch(
    gpu: &GpuSpec,
    a: GemmConfig,
    b: GemmConfig,
    n: f64,
    k: f64,
) -> Option<u32> {
    let mut prev = attainable_gemm_ops(gpu, a, 1.0, n, k) - attainable_gemm_ops(gpu, b, 1.0, n, k);
    for m in 2..=512u32 {
        let cur = attainable_gemm_ops(gpu, a, f64::from(m), n, k)
            - attainable_gemm_ops(gpu, b, f64::from(m), n, k);
        if prev.signum() != cur.signum() && cur.abs().to_bits() != 0 {
            return Some(m);
        }
        prev = cur;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: f64 = 4096.0;
    const K: f64 = 4096.0;

    // Figure 3's five precision pairs, each by a kernel that runs it.
    const FP16: GemmConfig = GemmConfig::TrtFp16;
    const W8A8: GemmConfig = GemmConfig::TrtW8A8;
    const W4A16: GemmConfig = GemmConfig::TrtW4A16;
    const W4A8: GemmConfig = GemmConfig::QServeW4A8PerChannel;
    const W4A4: GemmConfig = GemmConfig::AtomW4A4;

    #[test]
    fn w4a16_w8a8_crossover_near_78() {
        // §3.1: "W4A16 has a higher theoretical throughput when m < 78,
        // while W8A8 performs better when m > 78."
        let gpu = GpuSpec::a100();
        let m = crossover_batch(&gpu, W4A16, W8A8, N, K)
            .expect("curves must cross");
        assert!((70..=90).contains(&m), "crossover at {}, expected ≈78", m);
    }

    #[test]
    fn w4a8_dominates_both_everywhere() {
        // Figure 3: "the W4A8 roofline dominates both W4A16 and W8A8 across
        // different batch sizes."
        let gpu = GpuSpec::a100();
        for m in [1u32, 4, 16, 64, 78, 128, 256, 512] {
            let m = f64::from(m);
            let w4a8 = attainable_gemm_ops(&gpu, W4A8, m, N, K);
            let w4a16 = attainable_gemm_ops(&gpu, W4A16, m, N, K);
            let w8a8 = attainable_gemm_ops(&gpu, W8A8, m, N, K);
            assert!(w4a8 >= w4a16 * 0.999, "m={}: W4A8 {} < W4A16 {}", m, w4a8, w4a16);
            assert!(w4a8 >= w8a8 * 0.999, "m={}: W4A8 {} < W8A8 {}", m, w4a8, w8a8);
        }
    }

    #[test]
    fn w4a4_beats_w4a8_only_past_78() {
        // §3.2: "W4A4 starts to achieve better theoretical GEMM performance
        // when m … exceeds 78" (INT4 TC is 2× INT8 TC).
        let gpu = GpuSpec::a100();
        let small = attainable_gemm_ops(&gpu, W4A4, 16.0, N, K);
        let w4a8_small = attainable_gemm_ops(&gpu, W4A8, 16.0, N, K);
        // Identical weight traffic; W4A4 saves a sliver of activation bytes,
        // hence the 2% tolerance.
        assert!(small <= w4a8_small * 1.02);
        let big = attainable_gemm_ops(&gpu, W4A4, 256.0, N, K);
        let w4a8_big = attainable_gemm_ops(&gpu, W4A8, 256.0, N, K);
        assert!(big > w4a8_big);
    }

    #[test]
    fn memory_bound_small_batch_tracks_weight_bits() {
        // At m=1 everything is weight-bandwidth bound: 4-bit weights should
        // be ~2× faster than 8-bit, ~4× faster than FP16.
        let gpu = GpuSpec::a100();
        let f16 = attainable_gemm_ops(&gpu, FP16, 1.0, N, K);
        let w8 = attainable_gemm_ops(&gpu, W8A8, 1.0, N, K);
        let w4 = attainable_gemm_ops(&gpu, W4A16, 1.0, N, K);
        assert!((w8 / f16 - 2.0).abs() < 0.1);
        assert!((w4 / f16 - 4.0).abs() < 0.4);
    }

    #[test]
    fn compute_bound_large_batch_tracks_tc_peak() {
        let gpu = GpuSpec::a100();
        let w8 = attainable_gemm_ops(&gpu, W8A8, 2048.0, N, K);
        assert!(w8 > 0.85 * gpu.int8_tc_ops, "should approach INT8 peak");
    }

    #[test]
    fn kv4_doubles_attention_roofline_over_kv8() {
        let gpu = GpuSpec::a100();
        let kv8 = attainable_attention_ops(&gpu, 8);
        let kv4 = attainable_attention_ops(&gpu, 4);
        assert_eq!(kv4, 2.0 * kv8);
    }

    #[test]
    fn tensor_core_width_is_the_activation_width() {
        // W4A16 computes in FP16, W4A8 in INT8, W4A4 in INT4.
        assert_eq!(W4A16.act_bits(), 16);
        assert_eq!(W4A8.act_bits(), 8);
        assert_eq!(W4A4.act_bits(), 4);
    }
}
