//! Shared-prefix serving: multi-tenant traffic through the real quantized
//! stack, with each tenant's system prompt stored once in the paged KV4
//! cache (fork + copy-on-write) and chunked prefill interleaving prompt
//! processing with decode — with the cache's page accounting printed
//! alongside: the pool's geometry, peak unique pages, every page returned.
//!
//! ```text
//! cargo run --release --example prefix_caching
//! ```

use qserve::core::pipeline::{QoqConfig, WeightGranularity};
use qserve::model::synth::SyntheticModel;
use qserve::serve::request::{ArrivalPattern, LengthDist, PrefixSharing, SloSpec, WorkloadSpec};
use qserve::serve::scheduler::{Fcfs, SchedOptions};
use qserve::serve::ModelRuntime;
use qserve::tensor::rng::TensorRng;

fn deploy() -> ModelRuntime {
    let model = SyntheticModel::small(2);
    let calib = TensorRng::seed(1).token_sequence(32, model.config.vocab);
    let cfg = QoqConfig {
        weight_granularity: WeightGranularity::PerGroup(32),
        ..QoqConfig::w4a8kv4_g128()
    };
    ModelRuntime::deploy(&model, &cfg, &calib, 1024)
}

fn main() {
    // Two tenants, each with a 40-token system prompt (2½ cache pages);
    // every request adds a short private suffix.
    let spec = WorkloadSpec {
        num_requests: 8,
        input: LengthDist::Uniform { lo: 3, hi: 8 },
        output: LengthDist::Uniform { lo: 2, hi: 5 },
        arrival: ArrivalPattern::Batch,
        sharing: PrefixSharing::Groups { groups: 2, prefix_len: 40 },
        slo: SloSpec::None,
        seed: 7,
    };

    println!("workload: 8 requests, 2 tenants × 40-token system prompt + private suffixes\n");

    let mut private_rt = deploy();
    let (geometry, total_pages) = (*private_rt.cache().config(), private_rt.cache().free_pages());
    println!(
        "paged KV4 cache: {} pages × {} tokens × {} B (per-head fp16 scales inline)\n",
        total_pages,
        geometry.page_tokens,
        geometry.page_bytes()
    );
    let private =
        private_rt.serve_with(&spec, 4, Box::new(Fcfs), SchedOptions::default()).expect("serves");
    let private_peak = private_rt.cache().peak_used_pages();

    let mut shared_rt = deploy();
    let shared = shared_rt
        .serve_with(
            &spec,
            4,
            Box::new(Fcfs),
            SchedOptions { share_prefixes: true, chunk_tokens: Some(16), ..SchedOptions::default() },
        )
        .expect("serves");
    let shared_peak = shared_rt.cache().peak_used_pages();

    for (s, p) in shared.iter().zip(&private) {
        assert_eq!(s.output, p.output, "sharing must never change tokens");
        println!(
            "request {:2}: {:2}-token prompt → {:?} (first token at step {:2} shared vs {:2} private)",
            s.id.0,
            s.prompt.len(),
            &s.output[..s.output.len().min(4)],
            s.first_token_step,
            p.first_token_step,
        );
    }

    println!(
        "\nidentical tokens, one copy of each system prompt: peak unique pages {} → {} \
         ({} saved), prompts forked off resident siblings via copy-on-write pages",
        private_peak,
        shared_peak,
        private_peak - shared_peak
    );
    assert!(shared_peak < private_peak);
    for rt in [&private_rt, &shared_rt] {
        assert_eq!(rt.cache().used_pages(), 0, "every page must return to the pool");
    }
    println!(
        "free pages {} / {} on both runs — no leaks, every page accounted for",
        shared_rt.cache().free_pages(),
        total_pages
    );
}
