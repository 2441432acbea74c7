//! Replica failover: a 4-replica fleet loses one replica mid-run. The
//! crash destroys that replica's KV pages and every request it was
//! holding — but not the requests themselves: the in-flight work is
//! requeued through routing onto the survivors, the prefill already done
//! for it is honestly re-owed, and the replica rejoins after its restart.
//! The report shows the crash as a goodput dip and a recovery time, never
//! as a lost request.
//!
//! ```text
//! cargo run --release --example replica_failover
//! ```

use qserve::gpusim::GpuSpec;
use qserve::model::ModelConfig;
use qserve::serve::cluster::{Cluster, LeastOutstanding};
use qserve::serve::ledger::Reservation;
use qserve::serve::request::{ArrivalPattern, LengthDist, PrefixSharing, SloSpec, WorkloadSpec};
use qserve::serve::scheduler::{MemoryAware, SchedOptions};
use qserve::serve::{FaultPlan, ServingEngine, SystemConfig};

fn main() {
    let engine = ServingEngine::new(
        GpuSpec::a100(),
        ModelConfig::llama2_7b(),
        SystemConfig::QServePerChannel,
    )
    .expect("A100 serves Llama-2-7B");

    // 128 long-prompt requests arriving over ~8 s; replica 0 crashes at
    // t = 2 s with work in flight and restarts at t = 5 s, while arrivals
    // are still coming — so the restarted replica rejoins the rotation.
    let spec = WorkloadSpec {
        num_requests: 128,
        input: LengthDist::Uniform { lo: 3000, hi: 4000 },
        output: LengthDist::Uniform { lo: 128, hi: 256 },
        arrival: ArrivalPattern::Poisson { rate_rps: 16.0 },
        sharing: PrefixSharing::None,
        slo: SloSpec::None,
        seed: 7,
    };
    let crash_s = 2.0;
    let plan = FaultPlan::none().crash_at(0, crash_s).restart_at(0, 5.0);

    let mk_cluster = || Cluster::new(engine.clone(), 4, Box::new(LeastOutstanding));
    let serve = |mut cluster: Cluster, plan: &FaultPlan| {
        cluster
            .serve_paged_faulty(
                &spec,
                || Box::new(MemoryAware::default()),
                Reservation::OnDemand,
                SchedOptions::default(),
                plan,
            )
            .expect("serves")
    };
    let healthy = serve(mk_cluster(), &FaultPlan::none());
    let crashed = serve(mk_cluster(), &plan);

    println!("workload: 128 requests; replica 0 crashes at t=2s, restarts at t=5s\n");
    println!(
        "{:<12} {:>10} {:>9} {:>10} {:>10} {:>9}",
        "run", "completed", "requeued", "lost tok", "tok/s", "p99"
    );
    for (name, r) in [("healthy", &healthy), ("crash", &crashed)] {
        println!(
            "{:<12} {:>10} {:>9} {:>10} {:>10.0} {:>9.3}",
            name,
            r.completed,
            r.requeued,
            r.lost_prefill_tokens,
            r.throughput_tps,
            r.p99_latency_s
        );
    }

    // The conservation contract: the crash requeued work, it lost none.
    assert_eq!(crashed.completed + crashed.shed, 128, "no request may be lost");
    assert!(crashed.requeued > 0, "the crash must catch in-flight work");
    assert!(crashed.lost_prefill_tokens > 0, "destroyed KV pages re-owe their prefill");
    let dead = &crashed.per_replica[0];
    assert!(dead.requeued_away > 0, "replica 0's in-flight work moved elsewhere");
    assert_eq!(dead.restarts, 1, "replica 0 came back exactly once");
    assert!(dead.completed > 0, "the restarted replica rejoins the rotation");
    assert_eq!(
        dead.completed + dead.requeued_away,
        dead.routed,
        "the per-replica ledger balances through the crash"
    );

    let recovery = crashed.last_requeued_finish_s - crash_s;
    println!(
        "\ncrash requeued {} in-flight requests (re-owing {} prefill tokens); \
         last of them finished {:.2}s after the crash; replica 0 served {} more \
         after restarting",
        crashed.requeued,
        crashed.lost_prefill_tokens,
        recovery,
        dead.completed,
    );
    // `serve_paged_faulty` returns only if the driver's closing audit found
    // finished ∪ shed to be exactly the arrivals, by id.
    println!(
        "goodput dip: {:.0} → {:.0} tok/s; the driver's audit found every request \
         finished or shed exactly once",
        healthy.throughput_tps, crashed.throughput_tps
    );
}
