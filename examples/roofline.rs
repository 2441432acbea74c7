//! Roofline exploration (Figure 3): why W4A8 dominates W4A16 and W8A8 at
//! every batch size, where W4A16/W8A8 cross, and what KV4 buys attention.
//!
//! ```text
//! cargo run --release --example roofline
//! ```

use qserve::gpusim::roofline::{attainable_attention_ops, attainable_gemm_ops, crossover_batch};
use qserve::gpusim::{GemmConfig, GpuSpec};

fn bar(tops: f64, scale: f64) -> String {
    "#".repeat((tops / scale).round() as usize)
}

fn main() {
    let gpu = GpuSpec::a100();
    let (n, k) = (4096.0, 4096.0);
    println!(
        "A100 roofline, 4096x4096 weight (CUDA turning point {:.1} op/byte)\n",
        gpu.cuda_turning_point()
    );
    println!("{:>5}  {:>9} {:>9} {:>9}  (TOPS)", "m", "W4A16", "W8A8", "W4A8");
    for m in [1u32, 4, 8, 16, 32, 64, 78, 96, 128, 192, 256, 384, 512] {
        let tops = |cfg| attainable_gemm_ops(&gpu, cfg, f64::from(m), n, k) / 1e12;
        let w4a16 = tops(GemmConfig::TrtW4A16);
        let w8a8 = tops(GemmConfig::TrtW8A8);
        let w4a8 = tops(GemmConfig::QServeW4A8PerChannel);
        println!(
            "{:>5}  {:>9.0} {:>9.0} {:>9.0}  {}",
            m,
            w4a16,
            w8a8,
            w4a8,
            bar(w4a8, 12.0)
        );
    }

    match crossover_batch(&gpu, GemmConfig::TrtW4A16, GemmConfig::TrtW8A8, n, k) {
        Some(m) => println!(
            "\nW4A16 and W8A8 cross at m ≈ {} (paper, §3.1: m ≈ 78). \
             W4A8 sits on the upper envelope of both.",
            m
        ),
        None => println!("\nno W4A16/W8A8 crossover found in 1..=512 (unexpected)"),
    }

    println!("\nattention rooflines (1 MAC/element):");
    for bits in [16u32, 8, 4] {
        println!(
            "  KV{:2}: {:>6.0} GOPS attainable",
            bits,
            attainable_attention_ops(&gpu, bits) / 1e9
        );
    }
    println!("KV4 doubles the attention roofline over KV8 — the §3.1 argument.");
}
