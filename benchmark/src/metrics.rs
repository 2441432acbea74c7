//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their bounds, and the per-layer metrics of the traced pass.
//!
//! `BENCHMARK.json` at the repository root repeats these tables for the
//! driver; a test in this crate fails if the two disagree, so this file is
//! the single place a name, unit or bound is decided.
//!
//! *Host* numbers are what this machine took to run the program;
//! *simulated* numbers are what the modelled GPUs would take. A change
//! meant only to speed the simulator up must leave every simulated number
//! identical on every seed.

/// `(name, why)` of each workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "mega_chat",
        "65,536 short requests at 1.35x fleet capacity: arrivals, routing, the event queue, preemption and report folding dominate; the cost-model memo stays hot",
    ),
    (
        "longctx_pressure",
        "65,536 long-prompt requests, 1024-token chunks, swap preemption: the scheduler tick, chunked-prefill pricing (memo cold) and the host-tier swap path dominate; routing and events idle",
    ),
    (
        "control_churn",
        "two cells: crash/drain/restart plan with deadline routing, shedding and prefix migration on a mixed fleet, then a diurnal trace under the autoscaler; code that is dead on the other workloads",
    ),
    (
        "func_serve",
        "the functional W4A8KV4 stack serving 6 requests with real W4A8 GEMMs and KV4 paged attention: every simulator layer bypassed, every kernel layer exercised",
    ),
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Name in `BENCHMARK.json` and in every result line.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// How the number comes about: `host` (timed on this machine),
    /// `simulated` (cost-model time), `count` (repeats exactly for a
    /// seed), `computed` (from tensor shapes or other metrics, not timed).
    pub kind: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    kind: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        kind,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        kind,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, emitted on every workload with `--trace 0`.
///
/// Bounds, from two sets of ten seeds per workload on the reference host
/// (each at least three times the widest spread seen, where 25% allows):
/// host times spread 1-4% in quiet sets and up to 11% when a contention
/// episode covers whole runs; peak RSS 5-9%, from the seed — a `Vec`
/// doubling on one trace and not on the next; the simulated metrics repeat
/// exactly for a seed and spread 0.1-2.8% across seeds.
pub const END_TO_END: [MetricSpec; 8] = [
    e2e("setup_s", "s", Lower, 0.25, "host"),
    e2e("wall_s", "s", Lower, 0.25, "host"),
    e2e("peak_rss_mb", "MB", Lower, 0.25, "host"),
    e2e("sim_throughput_tps", "tok/s", Higher, 0.05, "simulated"),
    e2e("sim_goodput_frac", "frac", Higher, 0.05, "simulated"),
    e2e("sim_p99_latency_s", "s", Lower, 0.10, "simulated"),
    e2e("sim_mean_ttft_s", "s", Lower, 0.10, "simulated"),
    e2e("sim_gpu_seconds", "gpu_s", Lower, 0.05, "simulated"),
];

/// The per-layer metrics, emitted on every workload with `--trace 1`.
///
/// The first block is the ledger of the traced body (counts repeat
/// exactly for a seed; a layer the workload bypasses reads 0). The rest
/// are probes: small fixed calls into one layer's public functions, with
/// shapes taken from the workloads, run in every traced pass so every
/// timing is freshly measured whichever workload was asked for.
pub const PER_LAYER: &[MetricSpec] = &[
    // --- traced body: the workload's own ledger ---------------------------
    layer("serve.ns_per_request", "ns", Lower, "host"),
    layer("serve.ns_per_token_step", "ns", Lower, "host"),
    layer("cluster.completed", "count", Higher, "count"),
    layer("cluster.generated_tokens", "count", Higher, "count"),
    layer("cluster.preemptions", "count", Lower, "count"),
    layer("control.shed", "count", Lower, "count"),
    layer("control.migrations", "count", Higher, "count"),
    layer("control.requeued", "count", Lower, "count"),
    layer("control.restarts", "count", Lower, "count"),
    layer("fault.plan_events", "count", Higher, "count"),
    layer("host_tier.swap_outs", "count", Lower, "count"),
    layer("host_tier.swap_pages", "count", Lower, "count"),
    layer("model_exec.serve.steps", "count", Lower, "count"),
    layer("model_exec.serve.tokens", "count", Higher, "count"),
    layer("kernels.gemm.macs", "count", Lower, "computed"),
    layer("kernels.attn.kv_tokens_read", "count", Lower, "computed"),
    layer("kernels.attn.kv_bytes", "count", Lower, "computed"),
    layer("attrib.tick_frac", "frac", Lower, "computed"),
    layer("attrib.event_frac", "frac", Lower, "computed"),
    layer("attrib.place_frac", "frac", Lower, "computed"),
    layer("attrib.sample_frac", "frac", Lower, "computed"),
    layer("attrib.model_step_frac", "frac", Lower, "computed"),
    layer("cluster.unattributed_frac", "frac", Lower, "computed"),
    layer("trace.spans", "count", Lower, "count"),
    layer("trace.overhead_frac", "frac", Lower, "host"),
    // --- engine: scheduler + cost model per tick --------------------------
    layer("engine.tick_ns.b16", "ns", Lower, "host"),
    layer("engine.tick_ns.b64", "ns", Lower, "host"),
    layer("engine.tick_ns.b256", "ns", Lower, "host"),
    layer("engine.serve.ns_per_token_step", "ns", Lower, "host"),
    layer("engine.replay.ns_per_token_step", "ns", Lower, "host"),
    layer("engine.decode_cost_ns.b16", "ns", Lower, "host"),
    layer("engine.decode_cost_ns.b64", "ns", Lower, "host"),
    layer("engine.decode_cost_ns.b256", "ns", Lower, "host"),
    layer("engine.decode_cost_cold_ns.b64", "ns", Lower, "host"),
    layer("engine.memo_speedup", "ratio", Higher, "computed"),
    layer("engine.prefill_chunked_cost_ns.c8", "ns", Lower, "host"),
    layer("engine.new_us", "us", Lower, "host"),
    // --- gpusim: the analytic cost model ----------------------------------
    layer("gpusim.gemm_latency_ns", "ns", Lower, "host"),
    layer(
        "gpusim.attn_decode_hetero_ns_per_seq.b64",
        "ns",
        Lower,
        "host",
    ),
    layer(
        "gpusim.attn_prefill_chunked_ns_per_chunk",
        "ns",
        Lower,
        "host",
    ),
    // --- event queue, sketches, request sampling --------------------------
    layer("event.push_pop_ns.d8", "ns", Lower, "host"),
    layer("event.push_pop_ns.d4096", "ns", Lower, "host"),
    layer("sketch.insert_ns", "ns", Lower, "host"),
    layer("sketch.quantile_us", "us", Lower, "host"),
    layer("sketch.merge_us", "us", Lower, "host"),
    layer("request.sample_ns_per_req", "ns", Lower, "host"),
    layer("request.synth_prompts_us_per_req", "us", Lower, "host"),
    // --- control plane ------------------------------------------------------
    layer("control.place_ns.least_outstanding.r4", "ns", Lower, "host"),
    layer("control.place_ns.deadline_aware.r4", "ns", Lower, "host"),
    layer("control.place_ns.prefix_affinity.r4", "ns", Lower, "host"),
    // --- cluster driver -----------------------------------------------------
    layer("cluster.driver_overhead_ratio", "ratio", Lower, "host"),
    layer("cluster.par2_speedup", "ratio", Higher, "host"),
    // --- kernels ------------------------------------------------------------
    layer(
        "kernels.gemm_w4a8_per_group.ns_per_mac.m1",
        "ns",
        Lower,
        "host",
    ),
    layer(
        "kernels.gemm_w4a8_per_group.ns_per_mac.m32",
        "ns",
        Lower,
        "host",
    ),
    layer(
        "kernels.gemm_w4a8_per_channel.ns_per_mac.m32",
        "ns",
        Lower,
        "host",
    ),
    layer(
        "kernels.quantize_activations.ns_per_elem",
        "ns",
        Lower,
        "host",
    ),
    layer(
        "kernels.decode_attention_kv4.ns_per_kv_token.s128",
        "ns",
        Lower,
        "host",
    ),
    layer(
        "kernels.decode_attention_kv4.ns_per_kv_token.s512",
        "ns",
        Lower,
        "host",
    ),
    layer("kernels.par2_speedup", "ratio", Higher, "host"),
    // --- paged KV cache, prefix index, executors ----------------------------
    layer("kv_cache.append_token_ns", "ns", Lower, "host"),
    layer("kv_cache.read_head_ns_per_token", "ns", Lower, "host"),
    layer("kv_cache.fork_us", "us", Lower, "host"),
    layer("kv_cache.swap_roundtrip_us", "us", Lower, "host"),
    layer("kv_cache.export_import_us", "us", Lower, "host"),
    layer("prefix.longest_match_ns", "ns", Lower, "host"),
    layer("attention_exec.paged_decode_us.s128", "us", Lower, "host"),
    layer("block_exec.decode_step_us.s128", "us", Lower, "host"),
    layer("block_exec.prefill_us_per_token.c32", "us", Lower, "host"),
    layer("model_exec.step_us.s128", "us", Lower, "host"),
    layer("model_exec.us_per_token", "us", Lower, "host"),
    layer("model_exec.greedy_match_frac", "frac", Higher, "count"),
    layer("model_exec.fp16_top1_agreement", "frac", Higher, "count"),
    // --- deployment: what func_serve's setup_s is made of -------------------
    layer("model_exec.deploy_ms", "ms", Lower, "host"),
    layer("core.quantize_block_ms", "ms", Lower, "host"),
    layer(
        "core.progressive_quantize_ns_per_weight",
        "ns",
        Lower,
        "host",
    ),
    layer("model.collect_calibration_ms", "ms", Lower, "host"),
    layer("model.forward_logits_us_per_token", "us", Lower, "host"),
    layer("tensor.matmul_nt_ns_per_mac", "ns", Lower, "host"),
    // --- pool and sweep harness ---------------------------------------------
    layer("tensor.pool.fork_join_us", "us", Lower, "host"),
    layer("bench.golden_tables_ms", "ms", Lower, "host"),
    layer("bench.golden_mismatches", "count", Lower, "count"),
    layer("bench.table4_ms", "ms", Lower, "host"),
    layer("bench.hetero_sweep_ms", "ms", Lower, "host"),
];

/// Looks a metric up in either table.
pub fn spec_of(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
