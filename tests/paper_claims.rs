//! The paper's headline claims, checked end to end across crates.

use qserve::core::progressive::ProgressiveWeight;
use qserve::gpusim::attention_model::{
    attention_decode_latency, attention_decode_latency_totals, AttentionKernel, AttentionShape,
};
use qserve::gpusim::gemm_model::{gemm_latency, GemmConfig, GemmShape};
use qserve::gpusim::roofline::{attainable_attention_ops, attainable_gemm_ops, crossover_batch};
use qserve::gpusim::GpuSpec;
use qserve::model::ModelConfig;
use qserve::serve::{ServingEngine, SystemConfig, WorkloadSpec};
use qserve::tensor::rng::TensorRng;
use qserve::tensor::{prop, props, Matrix};

/// §3.1: the W4A16/W8A8 roofline crossover sits near m = 78 on A100.
#[test]
fn claim_roofline_crossover() {
    let m = crossover_batch(
        &GpuSpec::a100(),
        GemmConfig::TrtW4A16,
        GemmConfig::TrtW8A8,
        4096.0,
        4096.0,
    )
    .expect("must cross");
    assert!((70..=90).contains(&m), "crossover {}", m);
}

/// Abstract: "existing INT4 quantization methods suffer from significant
/// runtime overhead (20-90%) when dequantizing either weights or partial
/// sums" — while QServe's stays small.
#[test]
fn claim_dequant_overhead_band() {
    let gpu = GpuSpec::a100();
    let shape = GemmShape { m: 128, n: 4096, k: 4096 };
    let atom = gemm_latency(&gpu, GemmConfig::AtomW4A4, shape).dequant_overhead();
    let w4a16 = gemm_latency(&gpu, GemmConfig::TrtW4A16, shape).dequant_overhead();
    let ours = gemm_latency(&gpu, GemmConfig::QServeW4A8PerGroup, shape).dequant_overhead();
    assert!(atom > 0.2 && atom < 0.95, "atom {}", atom);
    assert!(w4a16 > 0.02, "w4a16 {}", w4a16);
    assert!(ours < w4a16 && ours < atom, "ours {}", ours);
}

/// Table 1's two-sided result: naive KV4 loses to KV8 on A100 but wins on
/// L40S; QServe's KV4 wins on both.
#[test]
fn claim_kv4_attention_gpu_dependence() {
    let shape = AttentionShape {
        batch: 64,
        seq_len: 1024,
        query_heads: 32,
        kv_heads: 32,
        head_dim: 128,
    };
    for (gpu, naive_should_win) in [(GpuSpec::a100(), false), (GpuSpec::l40s(), true)] {
        let kv8 = attention_decode_latency(&gpu, AttentionKernel::Kv8Static, shape).total_s;
        let naive = attention_decode_latency(&gpu, AttentionKernel::Kv4Naive, shape).total_s;
        let ours = attention_decode_latency(&gpu, AttentionKernel::Kv4QServe, shape).total_s;
        assert_eq!(
            naive < kv8,
            naive_should_win,
            "{}: naive {} vs kv8 {}",
            gpu.name,
            naive,
            kv8
        );
        assert!(ours < kv8, "{}: ours must always win", gpu.name);
    }
}

/// Abstract: QServe improves max serving throughput over TensorRT-LLM on
/// both GPUs, with the larger gains on L40S.
#[test]
fn claim_end_to_end_speedups() {
    let wl = WorkloadSpec::paper(48);
    let best_trt = |gpu: &GpuSpec, m: &ModelConfig| -> f64 {
        [SystemConfig::TrtFp16, SystemConfig::TrtW4A16, SystemConfig::TrtW8A8]
            .into_iter()
            .filter_map(|s| {
                ServingEngine::new(gpu.clone(), m.clone(), s)
                    .ok()?
                    .max_throughput(&wl)
                    .ok()
            })
            .map(|r| r.throughput_tps)
            .fold(0.0, f64::max)
    };
    let mut a100_speedups = Vec::new();
    let mut l40s_speedups = Vec::new();
    // MHA models, where the L40S memory squeeze makes KV4 decisive. (For
    // GQA/70B models our cost model yields comparable gains on both GPUs;
    // see EXPERIMENTS.md.)
    for m in [ModelConfig::llama2_7b(), ModelConfig::llama2_13b()] {
        for (gpu, sys, acc) in [
            (GpuSpec::a100(), SystemConfig::QServePerChannel, &mut a100_speedups),
            (GpuSpec::l40s(), SystemConfig::QServePerGroup, &mut l40s_speedups),
        ] {
            let q = ServingEngine::new(gpu.clone(), m.clone(), sys)
                .unwrap()
                .max_throughput(&wl)
                .unwrap()
                .throughput_tps;
            let t = best_trt(&gpu, &m);
            let s = q / t;
            assert!(s > 1.0, "{} {}: speedup {} must exceed 1", gpu.name, m.name, s);
            acc.push(s);
        }
    }
    let gm = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    assert!(
        gm(&l40s_speedups) > gm(&a100_speedups),
        "L40S gains {:?} should exceed A100 gains {:?}",
        l40s_speedups,
        a100_speedups
    );
}

/// §6.3: Qwen1.5-72B — the largest relative win (2.4× A100, 3.5× L40S in
/// the paper) because W8A8 barely fits while W4A8KV4 runs comfortably.
#[test]
fn claim_72b_dramatic_win() {
    let wl = WorkloadSpec::paper(16);
    let m = ModelConfig::qwen15_72b();
    let q = ServingEngine::new(GpuSpec::a100(), m.clone(), SystemConfig::QServePerChannel)
        .unwrap()
        .max_throughput(&wl)
        .unwrap()
        .throughput_tps;
    let w8 = ServingEngine::new(GpuSpec::a100(), m, SystemConfig::TrtW8A8)
        .unwrap()
        .max_throughput(&wl)
        .unwrap()
        .throughput_tps;
    assert!(q / w8 > 2.0, "72B speedup over W8A8 is {}", q / w8);
}

props! {
    /// §3.1's roofline is a floor under the latency model: no kernel design,
    /// on either GPU, at any shape, finishes a GEMM faster than its precision
    /// pair's `max(ops / tensor-core peak, bytes / bandwidth)`, and no decode
    /// attention launch streams its cached KV faster than the memory roof
    /// allows. Both sides read the same bit widths off the same kernel row,
    /// so this can only fail if the latency model stops charging a resource.
    fn prop_roofline_is_a_floor_under_every_latency(rng, cases = 256) {
        let gpu = if rng.choose(&[true, false]) { GpuSpec::a100() } else { GpuSpec::l40s() };
        let dim = |rng: &mut TensorRng, hi| usize::try_from(rng.int_in(1, hi)).expect("positive");

        let cfg = rng.choose(&[
            GemmConfig::TrtFp16,
            GemmConfig::TrtW8A8,
            GemmConfig::TrtW4A16,
            GemmConfig::AtomW4A4,
            GemmConfig::QuarotW4A4,
            GemmConfig::QServeW4A8PerChannel,
            GemmConfig::QServeW4A8PerGroup,
            GemmConfig::DgqW4A8Unfused,
            GemmConfig::QServeW4A8Saturated,
        ]);
        let (m, n, k) = (dim(rng, 8192), dim(rng, 32768), dim(rng, 32768));
        let (mf, nf, kf) = (m as f64, n as f64, k as f64);
        let floor_s = 2.0 * mf * nf * kf / attainable_gemm_ops(&gpu, cfg, mf, nf, kf);
        let modelled = gemm_latency(&gpu, cfg, GemmShape { m, n, k }).total_s;
        assert!(
            modelled >= floor_s,
            "{:?} {}x{}x{} on {}: {} s beats its roofline {} s",
            cfg, m, n, k, gpu.name, modelled, floor_s
        );

        let kernel = rng.choose(&[
            AttentionKernel::Fp16Kv,
            AttentionKernel::Kv8Static,
            AttentionKernel::Kv4Naive,
            AttentionKernel::Kv4QServe,
            AttentionKernel::Kv4Hadamard,
        ]);
        let kv_heads = rng.choose(&[1usize, 2, 8, 32, 64]);
        let query_heads = kv_heads * rng.choose(&[1usize, 4, 8]);
        let head_dim = rng.choose(&[64usize, 128]);
        let batch = dim(rng, 512);
        let total_tokens = batch * dim(rng, 8192);
        let kv_elements = 2.0 * total_tokens as f64 * kv_heads as f64 * head_dim as f64;
        let floor_s = 2.0 * kv_elements / attainable_attention_ops(&gpu, kernel.kv_bits());
        let modelled = attention_decode_latency_totals(
            &gpu, kernel, batch, total_tokens, query_heads, kv_heads, head_dim,
        )
        .total_s;
        assert!(
            modelled >= floor_s,
            "{:?} b={} tokens={} {}:{}x{} on {}: {} s beats its roofline {} s",
            kernel, batch, total_tokens, query_heads, kv_heads, head_dim, gpu.name, modelled, floor_s
        );
    }

    /// §4.1 protective range, end to end: for arbitrary weight tensors the
    /// progressive intermediates never leave the INT8 range — the invariant
    /// that licenses register-level parallelism in the kernel.
    fn prop_protective_range_invariant(rng, cases = 32) {
        let vals = prop::vec_f32(rng, -4.0, 4.0, 128);
        let group = rng.choose(&[16usize, 32, 64]);
        let w = Matrix::from_vec(2, 64, vals);
        let pw = ProgressiveWeight::quantize(&w, group.min(64));
        assert!(pw.max_intermediate_abs() <= 127);
    }

    /// Reconstruction error of progressive quantization is bounded by the
    /// worst-case two-level step: s⁽⁰⁾/2 for level 0, plus per level 1 a
    /// rounding half-step s⁽¹⁾/2 *and* the clipping slack from s⁽¹⁾ being
    /// rounded down — a group range of up to 15·s⁽¹⁾ + 7.5 is squeezed into
    /// 15 codes, and with zero-point rounding the whole ≤ 7.5 + s⁽¹⁾/2
    /// shortfall can land on one endpoint.
    fn prop_progressive_error_bound(rng, cases = 32) {
        let w = rng.heavy_tailed(4, 64, 0.1, 0.05, 6.0);
        let pw = ProgressiveWeight::quantize(&w, 16);
        let back = pw.dequantize();
        let groups_per_row = 64 / 16;
        for i in 0..4 {
            let s0 = pw.channel_scales()[i];
            for j in 0..64 {
                let s1 = pw.group_params()[i * groups_per_row + j / 16].scale;
                let bound = s0 * (f32::from(s1) + 8.0) + 1e-5;
                let err = (w[(i, j)] - back[(i, j)]).abs();
                assert!(err <= bound, "err {} > bound {} at ({}, {})", err, bound, i, j);
            }
        }
    }
}
