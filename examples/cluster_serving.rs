//! Cluster serving: the same multi-tenant workload on N engine replicas
//! behind each routing policy — round-robin, least-outstanding-work, and
//! prefix-affinity (requests of one tenant stick to the replica already
//! holding that tenant's system prompt, so copy-on-write prefix reuse
//! survives sharding).
//!
//! ```text
//! cargo run --release --example cluster_serving
//! ```

use qserve::gpusim::{GpuSpec, TpGroup};
use qserve::model::ModelConfig;
use qserve::serve::cluster::{
    Cluster, LeastOutstanding, PrefixAffinity, RoundRobin, RoutingPolicy,
};
use qserve::serve::ledger::Reservation;
use qserve::serve::request::WorkloadSpec;
use qserve::serve::scheduler::{MemoryAware, SchedOptions};
use qserve::serve::{ServingEngine, SystemConfig};

fn main() {
    let engine = ServingEngine::new(
        GpuSpec::a100(),
        ModelConfig::llama2_7b(),
        SystemConfig::QServePerChannel,
    )
    .expect("A100 serves Llama-2-7B");

    // Four tenants, each opening with a 2048-token system prompt; 96
    // requests with chat-sized private suffixes and completions.
    let spec = WorkloadSpec::shared_prefix(4, 2048, 96, 42);
    let opts = SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() };
    let routings: Vec<(&str, Box<dyn RoutingPolicy>)> = vec![
        ("round-robin", Box::new(RoundRobin::default())),
        ("least-outstanding", Box::new(LeastOutstanding)),
        ("prefix-affinity", Box::new(PrefixAffinity::default())),
    ];

    println!("workload: 96 requests, 4 tenants × 2048-token system prompt; 4 replicas\n");
    println!(
        "{:<18} {:>12} {:>10} {:>8} {:>8} {:>18}",
        "routing", "tok/s", "mean TTFT", "p50", "p99", "peak pages/replica"
    );
    let mut peaks = std::collections::HashMap::new();
    let mut ttfts = std::collections::HashMap::new();
    for (name, policy) in routings {
        let report = Cluster::new(engine.clone(), 4, policy)
            .serve_paged(
                &spec,
                || Box::new(MemoryAware::default()),
                Reservation::OnDemand,
                opts,
            )
            .expect("serves");
        assert_eq!(report.completed, 96, "every request finishes exactly once");
        println!(
            "{:<18} {:>12.0} {:>10.3} {:>8.3} {:>8.3} {:>18}",
            name,
            report.throughput_tps,
            report.mean_ttft_s,
            report.p50_latency_s,
            report.p99_latency_s,
            report.max_replica_peak_pages,
        );
        peaks.insert(name, report.max_replica_peak_pages);
        ttfts.insert(name, report.mean_ttft_s);
    }
    assert!(
        peaks["prefix-affinity"] < peaks["round-robin"],
        "affinity must store each system prompt on one replica"
    );
    assert!(ttfts["prefix-affinity"] < ttfts["round-robin"]);
    println!(
        "\nprefix-affinity keeps each tenant's prompt on one replica: {} → {} peak \
         pages per replica vs round-robin, TTFT {:.3}s → {:.3}s",
        peaks["round-robin"],
        peaks["prefix-affinity"],
        ttfts["round-robin"],
        ttfts["prefix-affinity"],
    );

    // A replica can be a whole tensor-parallel group: same cluster, sharded
    // engines (TP=1 stays bit-identical to the single-GPU cost model).
    let tp4 = ServingEngine::with_tp(
        GpuSpec::a100(),
        ModelConfig::llama2_7b(),
        SystemConfig::QServePerChannel,
        TpGroup::nvlink(4),
    )
    .expect("builds");
    let report = Cluster::new(tp4, 2, Box::new(LeastOutstanding))
        .serve_paged(
            &spec,
            || Box::new(MemoryAware::default()),
            Reservation::OnDemand,
            opts,
        )
        .expect("serves");
    println!(
        "\n2 replicas × TP=4 (8 GPUs): {:.0} tok/s aggregate, p99 {:.3}s",
        report.throughput_tps, report.p99_latency_s
    );
}
