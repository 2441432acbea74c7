//! End-to-end serving benchmark: maximum achievable throughput of QServe vs
//! the TensorRT-LLM configurations on both GPUs — the Figure 15 / Table 4
//! protocol (1024 input tokens, 512 output tokens, memory-limited batch) —
//! followed by a look past the paper's fixed shape: heterogeneous workloads
//! under different scheduling policies, with TTFT and tail latency.
//!
//! ```text
//! cargo run --release --example serving_throughput
//! ```

use qserve::gpusim::GpuSpec;
use qserve::model::ModelConfig;
use qserve::serve::engine::ServeConfig;
use qserve::serve::request::WorkloadSpec;
use qserve::serve::scheduler::{Fcfs, MemoryAware, Reservation, ShortestJobFirst};
use qserve::serve::{ServingEngine, SystemConfig};

fn main() {
    let workload = WorkloadSpec::paper(64);
    for gpu in [GpuSpec::a100(), GpuSpec::l40s()] {
        println!("=== {} (memory {} GiB) ===", gpu.name, gpu.memory_bytes >> 30);
        for model in [
            ModelConfig::llama3_8b(),
            ModelConfig::llama2_7b(),
            ModelConfig::llama2_13b(),
            ModelConfig::llama2_70b(),
        ] {
            print!("{:12}", model.name);
            let qserve = SystemConfig::qserve_for(gpu.name);
            let mut best_trt = 0.0f64;
            for sys in [
                SystemConfig::TrtFp16,
                SystemConfig::TrtW4A16,
                SystemConfig::TrtW8A8,
                qserve,
            ] {
                match ServingEngine::new(gpu.clone(), model.clone(), sys) {
                    Ok(engine) => match engine.max_throughput(&workload) {
                        Ok(r) => {
                            print!("  {}: {:6.0} tok/s (batch {})", sys.name(), r.throughput_tps, r.max_batch);
                            if !sys.is_qserve() {
                                best_trt = best_trt.max(r.throughput_tps);
                            } else if best_trt > 0.0 {
                                print!("  → {:.2}× best TRT", r.throughput_tps / best_trt);
                            }
                        }
                        Err(e) => print!("  {}: {}", sys.name(), e),
                    },
                    Err(e) => print!("  {}: {}", sys.name(), e),
                }
            }
            println!();
        }
        println!();
    }
    // Beyond the paper's protocol: a bimodal chat/long-doc mix under three
    // scheduling policies, each decode step costed per-sequence at its true
    // KV length.
    println!("=== heterogeneous serving (A100, Llama-2-7B, QServe) ===");
    let engine = ServingEngine::new(
        GpuSpec::a100(),
        ModelConfig::llama2_7b(),
        SystemConfig::QServePerChannel,
    )
    .expect("A100 serves Llama-2-7B");
    let spec = WorkloadSpec::mixed(256, 42);
    println!(
        "workload: {} requests, prompts {:?}..{:?} tokens (bimodal), batch-arrival",
        spec.num_requests,
        spec.input.bounds().0,
        spec.input.bounds().1
    );
    let runs = [
        ("fcfs", engine.serve(&spec, Box::new(Fcfs), ServeConfig::worst_case())),
        ("sjf", engine.serve(&spec, Box::new(ShortestJobFirst), ServeConfig::worst_case())),
        (
            "memory-aware",
            engine.serve(
                &spec,
                Box::new(MemoryAware::default()),
                ServeConfig::paged(Reservation::OnDemand),
            ),
        ),
    ];
    println!(
        "{:14} {:>10} {:>6} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "policy", "tok/s", "batch", "ttft(s)", "p50(s)", "p95(s)", "p99(s)", "preempt"
    );
    for (name, run) in runs {
        let r = run.expect("workload must be servable");
        println!(
            "{:14} {:>10.0} {:>6} {:>9.3} {:>8.3} {:>8.3} {:>8.3} {:>8}",
            name,
            r.throughput_tps,
            r.max_batch,
            r.mean_ttft_s,
            r.p50_latency_s,
            r.p95_latency_s,
            r.p99_latency_s,
            r.preemptions
        );
    }
    println!();
    println!(
        "Note: latencies come from the analytical A100/L40S cost model \
         (see DESIGN.md §1); ratios, not absolutes, are the reproduced quantity."
    );
}
