//! Efficiency experiments: Figures 2, 3, 15, 17, 18 and Tables 1, 4, 6.

use crate::report::{fnum, Table};
use qserve_gpusim::attention_model::{
    attention_decode_latency, attention_decode_latency_with, AttentionKernel,
    AttentionOptimizations, AttentionShape,
};
use qserve_gpusim::gemm_model::{gemm_latency, GemmConfig, GemmShape};
use qserve_gpusim::roofline::attainable_gemm_ops;
use qserve_gpusim::GpuSpec;
use qserve_model::ModelConfig;
use qserve_serve::engine::{EngineUnavailable, LayerCost, ServeConfig};
use qserve_serve::scheduler::Fcfs;
use qserve_serve::{ServingEngine, SystemConfig, WorkloadSpec};

/// **Figure 2a**: runtime share of attention vs GEMM vs others on Llama-2-7B
/// (A100), batch 1→64, decoding at the workload's mean context length.
pub fn fig2a() -> Table {
    let mut t = Table::new(
        "Figure 2a",
        "decode latency share (%) of attention vs GEMM, Llama-2-7B on A100, 1024+512 workload",
        &["Batch", "Attention %", "GEMM %", "Others %"],
    );
    let engine = ServingEngine::new(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::TrtFp16)
        .expect("FP16 Llama-2-7B fits an A100");
    let seq = 1024 + 256; // mean context during decoding
    for batch in [1usize, 2, 4, 8, 16, 32, 64] {
        let cost = engine.decode_layer_cost(batch, batch * seq);
        let LayerCost { gemm_s, attention_s, misc_s, all_reduce_s } = cost;
        let total = cost.total_s();
        t.push_row(vec![
            batch.to_string(),
            fnum(100.0 * attention_s / total, 1),
            fnum(100.0 * gemm_s / total, 1),
            fnum(100.0 * (misc_s + all_reduce_s) / total, 1),
        ]);
    }
    t
}

/// **Figure 2b**: Llama-2-7B maximum throughput on A100 across the five
/// systems of the motivation figure.
pub fn fig2b() -> Table {
    let mut t = Table::new(
        "Figure 2b",
        "Llama-2-7B max throughput on A100 (tokens/s)",
        &["System", "Throughput (tok/s)"],
    );
    let model = ModelConfig::llama2_7b();
    for sys in [
        SystemConfig::TrtFp16,
        SystemConfig::TrtW4A16,
        SystemConfig::TrtW8A8,
        SystemConfig::AtomW4A4,
        SystemConfig::QuarotW4A4,
    ] {
        t.push_row(vec![sys.name().to_string(), throughput_cell(paper_throughput(&GpuSpec::a100(), &model, sys))]);
    }
    t
}

/// **Figure 3**: A100 roofline — attainable TOPS vs computation intensity
/// for five GEMM precision pairs (weights × activations), FP16×FP16 to
/// INT4×INT4.
pub fn fig3() -> Table {
    let mut t = Table::new(
        "Figure 3",
        "A100 attainable performance (TOPS) vs computation intensity (≈ batch m)",
        &["m", "FP16xFP16", "INT8xINT8", "INT4xFP16", "INT4xINT8", "INT4xINT4"],
    );
    let gpu = GpuSpec::a100();
    let (n, k) = (4096.0, 4096.0);
    for m in [1u32, 8, 16, 32, 64, 78, 96, 128, 160, 192, 256, 512] {
        let mut row = vec![m.to_string()];
        // Each precision pair, by a kernel that runs it.
        for cfg in [
            GemmConfig::TrtFp16,
            GemmConfig::TrtW8A8,
            GemmConfig::TrtW4A16,
            GemmConfig::QServeW4A8PerChannel,
            GemmConfig::AtomW4A4,
        ] {
            row.push(fnum(attainable_gemm_ops(&gpu, cfg, f64::from(m), n, k) / 1e12, 1));
        }
        t.push_row(row);
    }
    t
}

/// **Table 1**: decode attention latency on A100 — KV8 vs naive KV4 vs
/// QServe KV4, batch 64, Llama-2-7B heads.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1",
        "A100 decode attention latency (ms), batch 64 — KV8 vs naive KV4 vs QServe KV4",
        &["Seq len", "8-bit KV", "4-bit KV (Naive)", "4-bit KV (Ours)", "Ours speedup"],
    );
    let gpu = GpuSpec::a100();
    for seq in [128usize, 256, 512, 1024, 1536] {
        let shape = AttentionShape {
            batch: 64,
            seq_len: seq,
            query_heads: 32,
            kv_heads: 32,
            head_dim: 128,
        };
        let kv8 = attention_decode_latency(&gpu, AttentionKernel::Kv8Static, shape).total_s;
        let naive = attention_decode_latency(&gpu, AttentionKernel::Kv4Naive, shape).total_s;
        let ours = attention_decode_latency(&gpu, AttentionKernel::Kv4QServe, shape).total_s;
        t.push_row(vec![
            seq.to_string(),
            fnum(kv8 * 1e3, 3),
            format!("{} ({}x)", fnum(naive * 1e3, 3), fnum(kv8 / naive, 2)),
            format!("{} ({}x)", fnum(ours * 1e3, 3), fnum(kv8 / ours, 2)),
            fnum(kv8 / ours, 2),
        ]);
    }
    t
}

/// Maximum achievable throughput (tokens/s) of `sys` serving `model` on
/// `gpu` under the paper's §6.3 protocol: 1024 in / 512 out, the batch
/// derived from device memory.
fn paper_throughput(gpu: &GpuSpec, model: &ModelConfig, sys: SystemConfig) -> Result<f64, EngineUnavailable> {
    let engine = ServingEngine::new(gpu.clone(), model.clone(), sys)?;
    Ok(engine.max_throughput(&WorkloadSpec::paper(64))?.throughput_tps)
}

/// A throughput as a table cell: whole tokens/s, or why there is none.
fn throughput_cell(tps: Result<f64, EngineUnavailable>) -> String {
    tps.map_or_else(|unavailable| unavailable.to_string(), |tps| fnum(tps, 0))
}

/// **Table 4 / Figure 15**: maximum achievable throughput of every system on
/// every model, for one GPU.
pub fn table4(gpu: &GpuSpec) -> Table {
    // The three TRT configurations lead and QServe closes: the speed-up row
    // reads them back by position.
    let systems = [
        SystemConfig::TrtFp16,
        SystemConfig::TrtW4A16,
        SystemConfig::TrtW8A8,
        SystemConfig::AtomW4A4,
        SystemConfig::QuarotW4A4,
        SystemConfig::qserve_for(gpu.name),
    ];
    let mut header = vec!["System".to_string()];
    let models = ModelConfig::throughput_suite();
    header.extend(models.iter().map(|m| m.name.clone()));
    let mut t = Table::new(
        "Table 4 / Figure 15",
        &format!("max throughput (tokens/s) on {}, 1024 in / 512 out", gpu.name),
        &header.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    // Every (system, model) cell is simulated once.
    let cells: Vec<Vec<Result<f64, EngineUnavailable>>> = systems
        .iter()
        .map(|&sys| models.iter().map(|m| paper_throughput(gpu, m, sys)).collect())
        .collect();
    for (sys, tps) in systems.iter().zip(&cells) {
        let mut row = vec![sys.name().to_string()];
        row.extend(tps.iter().map(|&tps| throughput_cell(tps)));
        t.push_row(row);
    }
    // Speedup row: QServe over the best TRT config per model.
    let (trt, qserve) = (&cells[..3], &cells[systems.len() - 1]);
    let mut row = vec!["Speedup vs best TRT".to_string()];
    for m in 0..models.len() {
        let best = trt.iter().filter_map(|sys| sys[m].ok()).fold(0.0f64, f64::max);
        row.push(match qserve[m] {
            Ok(q) if best > 0.0 => format!("{}x", fnum(q / best, 2)),
            _ => "—".to_string(),
        });
    }
    t.push_row(row);
    t
}

/// **Figure 16 (efficiency axes)**: throughput and memory for the ablation
/// ladder's deployment-visible steps on L40S, Llama-2-7B.
pub fn fig16_efficiency() -> Table {
    let mut t = Table::new(
        "Figure 16 (efficiency)",
        "serving impact of precision steps, Llama-2-7B on L40S (batch from memory)",
        &["Step", "Throughput (tok/s)", "Weights (GB)", "KV per token (KB)"],
    );
    let gpu = GpuSpec::l40s();
    let model = ModelConfig::llama2_7b();
    let steps: [(&str, SystemConfig); 3] = [
        ("W8A8KV8", SystemConfig::TrtW8A8),
        ("W4A8KV8 (4-bit weights)", SystemConfig::TrtW4A16), // W4 weights, KV8
        ("W4A8KV4 (QServe)", SystemConfig::QServePerGroup),
    ];
    for (label, sys) in steps {
        let weights_gb = model.weight_bytes(sys.weight_bits()) as f64 / (1u64 << 30) as f64;
        let kv_kb = model.kv_bytes_per_token(sys.kv_bits()) as f64 / 1024.0;
        t.push_row(vec![
            label.to_string(),
            throughput_cell(paper_throughput(&gpu, &model, sys)),
            fnum(weights_gb, 2),
            fnum(kv_kb, 1),
        ]);
    }
    t
}

/// **Figure 17**: same-batch throughput on L40S for Llama-2-7B and
/// Llama-2-13B.
pub fn fig17(model: &ModelConfig, batches: &[usize]) -> Table {
    let mut header = vec!["System".to_string()];
    header.extend(batches.iter().map(|b| format!("batch {}", b)));
    let mut t = Table::new(
        "Figure 17",
        &format!("same-batch throughput (tokens/s), {} on L40S", model.name),
        &header.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    let gpu = GpuSpec::l40s();
    for sys in [
        SystemConfig::TrtFp16,
        SystemConfig::TrtW4A16,
        SystemConfig::TrtW8A8,
        SystemConfig::AtomW4A4,
        SystemConfig::QuarotW4A4,
        SystemConfig::QServePerChannel,
        SystemConfig::QServePerGroup,
    ] {
        let mut row = vec![sys.name().to_string()];
        match ServingEngine::new(gpu.clone(), model.clone(), sys) {
            Ok(e) => {
                for &b in batches {
                    if e.plan().max_batch(WorkloadSpec::paper(64).max_peak_len()) < b {
                        row.push("OOM".to_string());
                    } else {
                        let r = e
                            .serve(
                                &WorkloadSpec::paper(b * 2),
                                Box::new(Fcfs),
                                ServeConfig::fixed_batch(b),
                            )
                            .expect("fixed-batch protocol serves");
                        row.push(fnum(r.throughput_tps, 0));
                    }
                }
            }
            Err(err) => {
                for _ in batches {
                    row.push(err.to_string());
                }
            }
        }
        t.push_row(row);
    }
    t
}

/// **Figure 18**: main-loop dequantization overhead (%) per kernel design,
/// m = 8..128 on A100.
pub fn fig18() -> Table {
    let mut t = Table::new(
        "Figure 18",
        "dequantization overhead (% of GEMM runtime) on A100, n=k=4096",
        &["m", "W8A8", "W4A16", "W4A4 (Atom)", "W4A8 (Ours g128)", "W4A8 (Ours per-chn)"],
    );
    let gpu = GpuSpec::a100();
    for m in [8usize, 16, 32, 64, 128] {
        let shape = GemmShape { m, n: 4096, k: 4096 };
        let mut row = vec![m.to_string()];
        for cfg in [
            GemmConfig::TrtW8A8,
            GemmConfig::TrtW4A16,
            GemmConfig::AtomW4A4,
            GemmConfig::QServeW4A8PerGroup,
            GemmConfig::QServeW4A8PerChannel,
        ] {
            row.push(fnum(100.0 * gemm_latency(&gpu, cfg, shape).dequant_overhead(), 1));
        }
        t.push_row(row);
    }
    t
}

/// **Table 6**: the artifact-appendix subset — A100 throughput of QServe vs
/// TRT-LLM W8A8 for three models.
pub fn table6() -> Table {
    let mut t = Table::new(
        "Table 6",
        "artifact numbers: A100 generation throughput (tokens/s)",
        &["Model", "TRT-LLM (W8A8KV8)", "QServe", "Speedup"],
    );
    let gpu = GpuSpec::a100();
    for m in [
        ModelConfig::llama3_8b(),
        ModelConfig::llama2_7b(),
        ModelConfig::mistral_7b(),
    ] {
        let trt = paper_throughput(&gpu, &m, SystemConfig::TrtW8A8).unwrap();
        let qserve = paper_throughput(&gpu, &m, SystemConfig::QServePerChannel).unwrap();
        t.push_row(vec![
            m.name.clone(),
            fnum(trt, 2),
            fnum(qserve, 2),
            format!("{}x", fnum(qserve / trt, 2)),
        ]);
    }
    t
}

/// **Figure 1**: dollar efficiency — QServe on the $8K L40S versus
/// TensorRT-LLM's best configuration on the $25K A100.
pub fn fig1() -> Table {
    let mut t = Table::new(
        "Figure 1",
        "GPU dollar cost: QServe on L40S ($8K) vs best TRT-LLM on A100 ($25K)",
        &[
            "Model",
            "TRT@A100 (tok/s)",
            "QServe@L40S (tok/s)",
            "tok/s/$ ratio (L40S/A100)",
        ],
    );
    let a100 = GpuSpec::a100();
    let l40s = GpuSpec::l40s();
    for m in [
        ModelConfig::llama3_8b(),
        ModelConfig::llama2_7b(),
        ModelConfig::llama2_13b(),
        ModelConfig::llama_30b(),
    ] {
        let trt = [SystemConfig::TrtFp16, SystemConfig::TrtW4A16, SystemConfig::TrtW8A8]
            .into_iter()
            .filter_map(|s| paper_throughput(&a100, &m, s).ok())
            .fold(0.0f64, f64::max);
        let qserve = paper_throughput(&l40s, &m, SystemConfig::QServePerGroup).unwrap_or(0.0);
        let per_dollar = (qserve / l40s.price_usd) / (trt / a100.price_usd);
        t.push_row(vec![
            m.name.clone(),
            fnum(trt, 0),
            fnum(qserve, 0),
            format!("{}x", fnum(per_dollar, 2)),
        ]);
    }
    t
}

/// **§6.4 breakdown**: cumulative KV4 attention-kernel optimizations on
/// A100 (paper: 0.48 → 0.44 → 0.39 → 0.36 → 0.33 → 0.28 ms at 64×1024).
pub fn attn_breakdown() -> Table {
    let mut t = Table::new(
        "§6.4 breakdown",
        "KV4 decode attention optimization ladder, batch 64 × seq 1024 on A100 (ms)",
        &["Step", "Latency (ms)", "Speedup vs naive"],
    );
    let gpu = GpuSpec::a100();
    let shape = AttentionShape {
        batch: 64,
        seq_len: 1024,
        query_heads: 32,
        kv_heads: 32,
        head_dim: 128,
    };
    let mut naive = 0.0f64;
    for (i, (label, opts)) in AttentionOptimizations::ladder().into_iter().enumerate() {
        let ms = attention_decode_latency_with(&gpu, opts, shape).total_s * 1e3;
        if i == 0 {
            naive = ms;
        }
        t.push_row(vec![
            label.to_string(),
            fnum(ms, 3),
            format!("{}x", fnum(naive / ms, 2)),
        ]);
    }
    t
}

/// **§4.1 microbenchmarks**: fused vs DGQ-unfused vs saturating W4A8 GEMM
/// against the W8A8 baseline.
pub fn microbench() -> Table {
    let mut t = Table::new(
        "§4.1 microbench",
        "W4A8 GEMM variants vs W8A8, A100, n=k=4096 (µs; lower is better)",
        &["m", "W8A8", "QServe fused", "DGQ unfused", "Saturating"],
    );
    let gpu = GpuSpec::a100();
    for m in [16usize, 64, 128] {
        let shape = GemmShape { m, n: 4096, k: 4096 };
        let us = |cfg: GemmConfig| fnum(gemm_latency(&gpu, cfg, shape).total_s * 1e6, 1);
        t.push_row(vec![
            m.to_string(),
            us(GemmConfig::TrtW8A8),
            us(GemmConfig::QServeW4A8PerGroup),
            us(GemmConfig::DgqW4A8Unfused),
            us(GemmConfig::QServeW4A8Saturated),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_per_dollar_always_wins() {
        let t = fig1();
        for row in &t.rows {
            let r: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(r > 1.5, "per-dollar ratio should be decisive: {:?}", row);
        }
    }

    #[test]
    fn attn_breakdown_monotone() {
        let t = attn_breakdown();
        let mut prev = f64::MAX;
        for row in &t.rows {
            let ms: f64 = row[1].parse().unwrap();
            assert!(ms <= prev * 1.0001, "ladder must not regress: {:?}", row);
            prev = ms;
        }
        let final_speedup: f64 = t.rows.last().unwrap()[2].trim_end_matches('x').parse().unwrap();
        assert!((1.4..2.4).contains(&final_speedup));
    }

    #[test]
    fn microbench_orderings() {
        let t = microbench();
        for row in &t.rows {
            let w8a8: f64 = row[1].parse().unwrap();
            let fused: f64 = row[2].parse().unwrap();
            let dgq: f64 = row[3].parse().unwrap();
            let sat: f64 = row[4].parse().unwrap();
            assert!(fused < w8a8, "fused must beat W8A8: {:?}", row);
            assert!(dgq > w8a8, "DGQ must lose to W8A8: {:?}", row);
            assert!(sat > fused * 1.4, "saturation must be costly: {:?}", row);
        }
    }

    #[test]
    fn fig2a_attention_share_grows_with_batch() {
        let t = fig2a();
        let first: f64 = t.rows.first().unwrap()[1].parse().unwrap();
        let last: f64 = t.rows.last().unwrap()[1].parse().unwrap();
        assert!(last > first, "attention share should grow: {} -> {}", first, last);
        assert!(last > 50.0, "attention should dominate at batch 64 (paper: >50%)");
    }

    #[test]
    fn fig3_has_expected_shape() {
        let t = fig3();
        assert_eq!(t.header.len(), 6);
        assert!(t.rows.len() >= 10);
    }

    #[test]
    fn table1_ours_wins_everywhere() {
        let t = table1();
        for row in &t.rows {
            let speedup: f64 = row[4].parse().unwrap();
            assert!(speedup > 1.2, "row {:?}", row);
        }
    }

    #[test]
    fn fig18_ours_under_w4a16_under_atom() {
        let t = fig18();
        for row in &t.rows {
            let w4a16: f64 = row[2].parse().unwrap();
            let atom: f64 = row[3].parse().unwrap();
            let ours: f64 = row[4].parse().unwrap();
            assert!(atom > w4a16 && w4a16 > ours, "row {:?}", row);
        }
    }

    #[test]
    fn table6_speedups_above_one() {
        let t = table6();
        for row in &t.rows {
            let s: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(s > 1.0, "row {:?}", row);
        }
    }
}
