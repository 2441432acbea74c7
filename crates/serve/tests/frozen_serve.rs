//! Frozen single-engine serving: every `ServeConfig` shape in use, each
//! scheduling policy under batch-only memory, swap preemption, batch and
//! Poisson arrivals, a tensor-parallel engine — with outcomes recorded on
//! the commit *before* `ServingEngine::serve` became a one-replica run of
//! the cluster driver, and reproduced bit for bit by every later `serve`.
//!
//! The golden CSVs print a `ServingReport` to three decimals at most; these
//! constants pin every field of it to the bit. Rows under `KvModel::BatchOnly`
//! are the ones the driver change reaches beyond the 1-replica identity tests
//! (those cover paged admission only).

use qserve_gpusim::{GpuSpec, TpGroup};
use qserve_model::synth::SyntheticModel;
use qserve_model::ModelConfig;
use qserve_serve::cluster::{Cluster, RoundRobin};
use qserve_serve::ledger::Reservation;
use qserve_serve::request::{ArrivalPattern, LengthDist, PrefixSharing, SloSpec, WorkloadSpec};
use qserve_serve::scheduler::{
    Fcfs, MemoryAware, PreemptionMode, SchedOptions, SchedulingPolicy, ShortestJobFirst,
};
use qserve_serve::{BatchLimit, KvModel, ServeConfig, ServingEngine, ServingReport, SystemConfig};

fn a100() -> ServingEngine {
    ServingEngine::new(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel)
        .expect("A100 serves Llama-2-7B")
}

fn l40s() -> ServingEngine {
    ServingEngine::new(GpuSpec::l40s(), ModelConfig::llama2_7b(), SystemConfig::QServePerGroup)
        .expect("L40S serves Llama-2-7B")
}

fn poisson(spec: WorkloadSpec, rate_rps: f64) -> WorkloadSpec {
    spec.with_arrivals(ArrivalPattern::Poisson { rate_rps })
}

/// Long private prompts with chat-sized completions: enough of them in
/// flight press one engine's resident set against its page pool.
fn long_prompts(n: usize, seed: u64, rate_rps: f64) -> WorkloadSpec {
    WorkloadSpec {
        num_requests: n,
        input: LengthDist::Uniform { lo: 4800, hi: 6400 },
        output: LengthDist::Uniform { lo: 256, hi: 512 },
        arrival: ArrivalPattern::Poisson { rate_rps },
        sharing: PrefixSharing::None,
        slo: SloSpec::None,
        seed,
    }
}

/// Sharing on, 32-token chunks: the options `func_serve` runs both its
/// functional serve and its analytic twin under.
const SHARE_AND_CHUNK: SchedOptions = SchedOptions {
    share_prefixes: true,
    chunk_tokens: Some(32),
    preemption: PreemptionMode::Recompute,
};

/// Swap preemption under 1024-token chunks.
const SWAP_CHUNKED: SchedOptions = SchedOptions {
    share_prefixes: false,
    chunk_tokens: Some(1024),
    preemption: PreemptionMode::Swap,
};

fn serve(
    engine: &ServingEngine,
    spec: &WorkloadSpec,
    policy: Box<dyn SchedulingPolicy>,
    cfg: ServeConfig,
) -> ServingReport {
    engine.serve(spec, policy, cfg).expect("the engine serves the trace")
}

/// Table 4's headline: memory-derived fixed batch, 1024 in / 512 out.
fn max_throughput_table4() -> ServingReport {
    a100().max_throughput(&WorkloadSpec::paper(64)).expect("fits")
}

/// Figure 17's same-batch protocol on the L40S.
fn fixed_batch_fig17() -> ServingReport {
    serve(&l40s(), &WorkloadSpec::paper(96), Box::new(Fcfs), ServeConfig::fixed_batch(32))
}

/// `sched_sweep`'s order-only cell: worst-case sizing, FCFS, Poisson.
fn worst_case_fcfs_poisson() -> ServingReport {
    let spec = poisson(WorkloadSpec::mixed(96, 3), 8.0);
    serve(&a100(), &spec, Box::new(Fcfs), ServeConfig::worst_case())
}

/// Shortest-job-first under worst-case sizing, offline batch.
fn worst_case_sjf_batch() -> ServingReport {
    let spec = WorkloadSpec::mixed(96, 5);
    serve(&a100(), &spec, Box::new(ShortestJobFirst), ServeConfig::worst_case())
}

/// The one policy that reads `free_tokens`, under batch-only memory.
fn fixed_batch_memory_aware() -> ServingReport {
    let spec = poisson(WorkloadSpec::mixed(64, 7), 6.0);
    serve(&a100(), &spec, Box::new(MemoryAware::default()), ServeConfig::fixed_batch(16))
}

/// Optimistic concurrency with no page ledger behind it.
fn optimistic_batch_only() -> ServingReport {
    let cfg = ServeConfig {
        batch: BatchLimit::Optimistic,
        memory: KvModel::BatchOnly,
        opts: SchedOptions::default(),
    };
    serve(&a100(), &WorkloadSpec::chat(96, 9), Box::new(Fcfs), cfg)
}

/// Prefix sharing and chunked prefill under batch-only memory.
fn batch_only_sharing_chunked() -> ServingReport {
    let cfg = ServeConfig::fixed_batch(8).with_opts(SHARE_AND_CHUNK);
    serve(&a100(), &WorkloadSpec::shared_prefix(3, 200, 48, 21), Box::new(Fcfs), cfg)
}

/// Peak-reserving paged admission.
fn paged_peak() -> ServingReport {
    let spec = poisson(WorkloadSpec::chat(128, 11), 24.0);
    serve(&a100(), &spec, Box::new(Fcfs), ServeConfig::paged(Reservation::Peak))
}

/// On-demand paged admission with no headroom: recompute preemption.
fn paged_on_demand() -> ServingReport {
    let policy = Box::new(MemoryAware { headroom: 0.0 });
    serve(&l40s(), &WorkloadSpec::mixed(480, 13), policy, ServeConfig::paged(Reservation::OnDemand))
}

/// Long prompts against the L40S pool: victims spill to the host tier.
fn paged_swap() -> ServingReport {
    let cfg = ServeConfig::paged(Reservation::OnDemand).with_opts(SWAP_CHUNKED);
    serve(&l40s(), &long_prompts(96, 37, 40.0), Box::new(Fcfs), cfg)
}

/// `func_serve`'s analytic twin: the reduced model, `Fixed(8)` ×
/// `Paged(Peak)`, one shared system prompt, sharing and 32-token chunks.
fn func_twin() -> ServingReport {
    let engine = ServingEngine::new(
        GpuSpec::a100(),
        SyntheticModel::reduced_config(&ModelConfig::llama2_7b(), 128, 2),
        SystemConfig::QServePerGroup,
    )
    .expect("the reduced model fits an A100");
    let spec = WorkloadSpec {
        num_requests: 6,
        input: LengthDist::Uniform { lo: 26, hi: 30 },
        output: LengthDist::Fixed(16),
        arrival: ArrivalPattern::Batch,
        sharing: PrefixSharing::Groups { groups: 1, prefix_len: 32 },
        slo: SloSpec::None,
        seed: 23,
    };
    let cfg = ServeConfig {
        batch: BatchLimit::Fixed(8),
        memory: KvModel::Paged(Reservation::Peak),
        opts: SHARE_AND_CHUNK,
    };
    serve(&engine, &spec, Box::new(Fcfs), cfg)
}

/// A two-way tensor-parallel engine under worst-case sizing.
fn tp2_worst_case() -> ServingReport {
    let engine = ServingEngine::with_tp(
        GpuSpec::a100(),
        ModelConfig::llama2_7b(),
        SystemConfig::QServePerChannel,
        TpGroup::nvlink(2),
    )
    .expect("a 2-way group divides Llama-2-7B's heads");
    let spec = poisson(WorkloadSpec::mixed(96, 19), 12.0);
    serve(&engine, &spec, Box::new(Fcfs), ServeConfig::worst_case())
}

/// Every `f64` field of the report as bits, then every integer field.
type Outcome = ([u64; 12], [usize; 4]);

fn outcome(r: &ServingReport) -> Outcome {
    (
        [
            r.throughput_tps.to_bits(),
            r.total_time_s.to_bits(),
            r.prefill_time_s.to_bits(),
            r.decode_time_s.to_bits(),
            r.mean_request_latency_s.to_bits(),
            r.max_request_latency_s.to_bits(),
            r.mean_ttft_s.to_bits(),
            r.p50_latency_s.to_bits(),
            r.p95_latency_s.to_bits(),
            r.p99_latency_s.to_bits(),
            r.sketch_p50_latency_s.to_bits(),
            r.sketch_p99_latency_s.to_bits(),
        ],
        [r.max_batch, r.completed, r.preemptions, r.peak_unique_pages],
    )
}

/// A row's name and the serve it runs.
type Row = (&'static str, fn() -> ServingReport);

const ROWS: [Row; 12] = [
    ("max_throughput_table4", max_throughput_table4),
    ("fixed_batch_fig17", fixed_batch_fig17),
    ("worst_case_fcfs_poisson", worst_case_fcfs_poisson),
    ("worst_case_sjf_batch", worst_case_sjf_batch),
    ("fixed_batch_memory_aware", fixed_batch_memory_aware),
    ("optimistic_batch_only", optimistic_batch_only),
    ("batch_only_sharing_chunked", batch_only_sharing_chunked),
    ("paged_peak", paged_peak),
    ("paged_on_demand", paged_on_demand),
    ("paged_swap", paged_swap),
    ("func_twin", func_twin),
    ("tp2_worst_case", tp2_worst_case),
];

/// Recorded on commit 7428896 (the parent of the one-replica `serve`).
const FROZEN: [Outcome; 12] = [
    (
        [0x40ad1dbff74bf1c3, 0x40581c3b5799affc, 0x40344e5a665491de, 0x405308a4be048b85, 0x4052152c81b343ff, 0x40581c3b5799affc,
         0x4041299b917db601, 0x40481c3b5799affc, 0x40581c3b5799affc, 0x40581c3b5799affc, 0x4048000000000000, 0x4058000000000000],
        [351, 702, 0, 0],
    ),
    (
        [0x4095fc42debf4702, 0x40417754f89c71e0, 0x400481cfecdceafc, 0x40402f37f9cea331, 0x403749c6a0d097d8, 0x40417754f89c71e0,
         0x402908b01d10dba8, 0x403749c6a0d097d6, 0x40417754f89c71e0, 0x40417754f89c71e0, 0x4037000000000000, 0x40417754f89c71e0],
        [32, 96, 0, 0],
    ),
    (
        [0x40988923a9ab1644, 0x4030a756b2030640, 0x400ed5c43eb4a5ed, 0x402978d1c719ed1c, 0x400aff98ea477707, 0x4027e6bcbfe2d7ea,
         0x3fb3e41557f60d8d, 0x40029a7783830fae, 0x402619c178920378, 0x4027e6bcbfe2d7ea, 0x4002800000000000, 0x4027e6bcbfe2d7ea],
        [105, 96, 0, 0],
    ),
    (
        [0x40a1eef131db84c6, 0x40261a0e57d187fc, 0x4006f99bda8a2fcf, 0x40205ba7612efc11, 0x401838b2fb19fa0c, 0x40261a0e57d187fc,
         0x40071e24930aed84, 0x40160380f64d7c7a, 0x4024efa5e4506c45, 0x40261a0e57d187fc, 0x4016000000000000, 0x40261a0e57d187fc],
        [105, 96, 0, 0],
    ),
    (
        [0x4096421c5dda6c01, 0x402a4d5333c60ce4, 0x4000dec7e115aa1e, 0x4026127893c3c6e2, 0x40042e32e1972e9b, 0x402041c092beaa67,
         0x3fd0e77594e08af7, 0x3ffbfb3f1d17d316, 0x401ad2c6e2bc70be, 0x402041c092beaa67, 0x3ffb800000000000, 0x402041c092beaa67],
        [16, 64, 0, 0],
    ),
    (
        [0x40b48f1a6641e356, 0x40043fe91c3e5c43, 0x3fe7c6f3680a3a3f, 0x3ffc9c5884779b5b, 0x3ffd592abc649fe4, 0x40043fe91c3e5c43,
         0x3fe80b7a7c836cb8, 0x3ffd704174c37b88, 0x4003ef0f6d49c4af, 0x40043fe91c3e5c43, 0x3ffd000000000000, 0x40043fe91c3e5c43],
        [5624, 96, 0, 0],
    ),
    (
        [0x40939490392bfd3c, 0x40073cd41a917308, 0x3fe41901926cf3bb, 0x40023693b5f63616, 0x3ff91e4c5c4c60f1, 0x40073cd41a917308,
         0x3ff26a353e2e1fe1, 0x3ff8268c96bcecdb, 0x4006804ebcc92746, 0x40073cd41a917308, 0x3ff8000000000000, 0x40073cd41a917308],
        [8, 48, 0, 0],
    ),
    (
        [0x40a4b9ae127deafe, 0x401e0fb5d654d906, 0x3ff3df1ed8843504, 0x4019165ff774dfa3, 0x3ff02b2a8af2569e, 0x3ffb2c36f3089b88,
         0x3f93f4bcf7d4087c, 0x3ff08d9776bf405c, 0x3ffa05bf11bc20e5, 0x3ffb08b236b59ad4, 0x3ff0800000000000, 0x3ffb000000000000],
        [5624, 128, 0, 26272],
    ),
    (
        [0x409cf158b92550fb, 0x40513ae0e9bc369d, 0x40290a44066aa4ad, 0x404c3330d1ddc418, 0x4041ea40f6dd4d9d, 0x40513ae0e9bc369d,
         0x4027df41e16045ce, 0x4040b11c6c3fbf0d, 0x4050d069bc283e30, 0x405115304d6faf71, 0x4040800000000000, 0x4051000000000000],
        [3260, 480, 71, 625984],
    ),
    (
        [0x407842c0910e069b, 0x40575696a004d641, 0x4031685ad4e6eada, 0x4052eb1e4aafee15, 0x405170af80ae2d20, 0x4056d1f143b298f5,
         0x403b9c1e88294174, 0x40516a52305aabe1, 0x4056bf798b0ec2ec, 0x4056d1f143b298f5, 0x4051000000000000, 0x4056d1f143b298f5],
        [61, 96, 0, 625984],
    ),
    (
        [0x40cf14499d4142e3, 0x3f78b605905c886d, 0x3f45ff395ecd6172, 0x3f75f61e6482dc3f, 0x3f78b605905c886d, 0x3f78b605905c886d,
         0x3f507d0f0fa5df98, 0x3f78b605905c886d, 0x3f78b605905c886d, 0x3f78b605905c886d, 0x3f78800000000000, 0x3f78b605905c886d],
        [8, 6, 0, 40],
    ),
    (
        [0x40a13d77da4e7c46, 0x4024c6c271d0d46c, 0x3ffe70f19dc905d7, 0x4020c26a0b3c3286, 0x3ffa9a4e31e29a2b, 0x401b0e8c7390501d,
         0x3fa478a57c503d86, 0x3ff3757040148638, 0x401659096cda7798, 0x401b0e8c7390501d, 0x3ff3000000000000, 0x401b0e8c7390501d],
        [216, 96, 0, 0],
    ),
];

#[test]
fn serve_reproduces_the_frozen_reports() {
    let actual: Vec<Outcome> = ROWS.iter().map(|(_, run)| outcome(&run())).collect();
    if actual != FROZEN {
        for (f, i) in &actual {
            let bits: Vec<String> = f.iter().map(|b| format!("{b:#018x}")).collect();
            eprintln!(
                "    (\n        [{},\n         {}],\n        {:?},\n    ),",
                bits[..6].join(", "),
                bits[6..].join(", "),
                i
            );
        }
    }
    for ((name, _), (a, f)) in ROWS.iter().zip(actual.iter().zip(&FROZEN)) {
        assert_eq!(a, f, "row '{name}' drifted from its frozen report");
    }
}

#[test]
fn the_frozen_rows_reach_what_they_are_named_for() {
    let row = |name: &str| FROZEN[ROWS.iter().position(|(n, _)| *n == name).expect("a row")];
    // Batch-only memory reports no page high-water; paged memory does.
    for name in [
        "max_throughput_table4",
        "fixed_batch_fig17",
        "worst_case_fcfs_poisson",
        "worst_case_sjf_batch",
        "fixed_batch_memory_aware",
        "optimistic_batch_only",
        "batch_only_sharing_chunked",
        "tp2_worst_case",
    ] {
        assert_eq!(row(name).1[3], 0, "'{name}' is batch-only");
    }
    for name in ["paged_peak", "paged_on_demand", "paged_swap", "func_twin"] {
        assert!(row(name).1[3] > 0, "'{name}' is paged");
    }
    assert!(row("paged_on_demand").1[2] > 0, "on-demand admission must preempt");
    // A lone replica is the single engine bit for bit, so its report says
    // whether the swap row really spilled to the host tier.
    let spec = long_prompts(96, 37, 40.0);
    let spill = Cluster::new(l40s(), 1, Box::new(RoundRobin::default()))
        .with_threads(1)
        .serve_paged(&spec, || Box::new(Fcfs), Reservation::OnDemand, SWAP_CHUNKED)
        .expect("serves");
    assert!(spill.swap_outs > 0, "the swap row must swap out");
}
