//! Frozen report folding: the full `Debug` text of four reports — the single
//! engine and the cluster above `EXACT_STATS_MAX` completions (the streaming
//! sketch path), a mixed fleet that sheds at admission and reports SLO
//! ratios, and a crash-and-restart fleet under swap preemption — exactly
//! what the benchmark's `sim_digest` hashes. `f64`'s `Debug` round-trips, so
//! each text pins every bit of every field, per-replica rows included, and a
//! drift is reported field by field.
//!
//! Recorded on commit 30df3df as FNV-1a digests, while
//! `ServingEngine::serve` still folded its report through a scheduler-side
//! statistics struct of its own, and reproduced bit for bit by every later
//! fold. Rows (b)–(d) were re-pinned as text when the report stopped
//! carrying each replica's finished ids: each text is the one recorded then
//! with its `finished: [...]` lists removed, and no other field moved. Row
//! (a) never carried ids; its text still has the digest recorded then.

use qserve_gpusim::GpuSpec;
use qserve_model::ModelConfig;
use qserve_serve::cluster::{
    Cluster, DeadlineAware, DeadlineFeasible, LeastOutstanding, RoundRobin,
};
use qserve_serve::ledger::Reservation;
use qserve_serve::request::{ArrivalPattern, LengthDist, PrefixSharing, Slo, SloSpec, WorkloadSpec};
use qserve_serve::scheduler::{Fcfs, MemoryAware, PreemptionMode, SchedOptions};
use qserve_serve::{FaultPlan, ServeConfig, ServingEngine, SystemConfig, EXACT_STATS_MAX};

fn a100() -> ServingEngine {
    ServingEngine::new(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel)
        .expect("A100 serves Llama-2-7B")
}

fn l40s() -> ServingEngine {
    ServingEngine::new(GpuSpec::l40s(), ModelConfig::llama2_7b(), SystemConfig::QServePerGroup)
        .expect("L40S serves Llama-2-7B")
}

fn slo_cycle() -> SloSpec {
    SloSpec::Cycle(vec![Slo::interactive(2.0, 8.0), Slo::standard(6.0, 20.0), Slo::best_effort()])
}

/// FNV-1a over a report's `Debug` text.
fn digest(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// (a) One engine, 70,000 two-token requests in one batch: above
/// `EXACT_STATS_MAX`, so every latency statistic comes from the sketch.
fn serve_above_exact_max() -> String {
    let spec = WorkloadSpec::fixed(16, 2, 70_000);
    let r = a100().serve(&spec, Box::new(Fcfs), ServeConfig::fixed_batch(8192)).expect("serves");
    assert!(r.completed > EXACT_STATS_MAX, "row (a) must take the sketch path");
    format!("{r:?}")
}

/// (b) Two A100s, 70,000 mixed requests at 20,000 rps under the SLO cycle:
/// the cluster's sketch path, both replicas' latency sketches merged and the
/// SLO ratios sketched too.
fn cluster_above_exact_max() -> String {
    let spec = WorkloadSpec::mixed(70_000, 3)
        .with_arrivals(ArrivalPattern::Poisson { rate_rps: 20_000.0 })
        .with_slos(slo_cycle());
    let r = Cluster::new(a100(), 2, Box::new(RoundRobin::default()))
        .serve_paged(&spec, || Box::new(Fcfs), Reservation::Peak, SchedOptions::default())
        .expect("serves");
    assert!(r.completed > EXACT_STATS_MAX, "row (b) must take the sketch path");
    assert!(r.slo_ratio_p99 > 0.0, "row (b) must sketch SLO ratios");
    format!("{r:?}")
}

/// (c) An A100 and an L40S behind deadline-aware routing and deadline
/// admission under overload: shed counts and SLO ratios on the exact path.
fn deadline_fleet() -> String {
    let spec = WorkloadSpec::mixed(160, 7)
        .with_arrivals(ArrivalPattern::Poisson { rate_rps: 96.0 })
        .with_slos(slo_cycle());
    let r = Cluster::heterogeneous(vec![a100(), l40s()], Box::new(DeadlineAware))
        .with_admission(Box::new(DeadlineFeasible))
        .serve_paged(
            &spec,
            || Box::new(MemoryAware::default()),
            Reservation::OnDemand,
            SchedOptions::default(),
        )
        .expect("serves");
    assert!(r.shed > 0 && r.slo_ratio_p50 > 0.0, "row (c) must shed and report SLO ratios");
    format!("{r:?}")
}

/// (d) Long prompts on two A100s under swap preemption; replica 0 crashes
/// mid-run and restarts: requeues, a recovery time and host-link bytes.
fn crash_restart_under_swap() -> String {
    let spec = WorkloadSpec {
        num_requests: 240,
        input: LengthDist::Uniform { lo: 4800, hi: 6400 },
        output: LengthDist::Uniform { lo: 256, hi: 512 },
        arrival: ArrivalPattern::Poisson { rate_rps: 200.0 },
        sharing: PrefixSharing::None,
        slo: SloSpec::None,
        seed: 37,
    };
    let opts = SchedOptions {
        chunk_tokens: Some(1024),
        preemption: PreemptionMode::Swap,
        ..SchedOptions::default()
    };
    let plan = FaultPlan::none().crash_at(0, 3.0).restart_at(0, 5.0);
    let r = Cluster::new(a100(), 2, Box::new(LeastOutstanding))
        .serve_paged_faulty(&spec, || Box::new(Fcfs), Reservation::OnDemand, opts, &plan)
        .expect("serves");
    assert!(
        r.requeued > 0 && r.last_requeued_finish_s > 0.0 && r.swap_bytes > 0,
        "row (d) must requeue and swap: {} requeued, {} swap bytes",
        r.requeued,
        r.swap_bytes
    );
    format!("{r:?}")
}

/// A row's name and the `Debug` text of the report it builds.
type Row = (&'static str, fn() -> String);

const ROWS: [Row; 4] = [
    ("serve_above_exact_max", serve_above_exact_max),
    ("cluster_above_exact_max", cluster_above_exact_max),
    ("deadline_fleet", deadline_fleet),
    ("crash_restart_under_swap", crash_restart_under_swap),
];

/// Each row's `Debug` text, split at field boundaries for reading (a `\`
/// line end joins the pieces back into one line).
const FROZEN: [&str; 4] = [
    "ServingReport { throughput_tps: 4075.8209103251825, total_time_s: 34.34890861993991, \
     prefill_time_s: 30.171683194570136, decode_time_s: 4.177225425369775, max_batch: 8192, \
     completed: 70000, mean_request_latency_s: 19.124928219271677, \
     max_request_latency_s: 34.34890861993991, mean_ttft_s: 18.88707273586074, \
     p50_latency_s: 20.0, p95_latency_s: 34.0, p99_latency_s: 34.0, preemptions: 0, \
     peak_unique_pages: 0, sketch_p50_latency_s: 20.0, sketch_p99_latency_s: 34.0 }",
    "ClusterReport { routing: \"round-robin\", admission: \"admit-all\", replicas: 2, \
     completed: 70000, generated_tokens: 18737949, makespan_s: 2671.788174161846, \
     throughput_tps: 7013.261448347488, goodput_tps: 2359.3838991287275, \
     slo_attainment: 0.3333285714285714, slo_ratio_p50: 320.0, slo_ratio_p99: 1280.0, \
     shed: 0, shed_by_tier: [0, 0, 0], shed_ids: [], mean_ttft_s: 1310.4247045214443, \
     p50_latency_s: 1344.0, p99_latency_s: 2624.0, preemptions: 0, requeued: 0, \
     lost_prefill_tokens: 0, swap_outs: 0, swap_out_pages: 0, swap_in_pages: 0, \
     swap_bytes: 0, migrations: 0, migrated_pages: 0, migrated_bytes: 0, \
     gpu_seconds: 5343.576348323692, last_requeued_finish_s: 0.0, \
     max_replica_peak_pages: 1079968, sketch_p50_latency_s: 1344.0, \
     sketch_p99_latency_s: 2624.0, per_replica: [ReplicaReport { gpu: \"A100-80G-SXM4\", \
     routed: 35000, completed: 35000, generated_tokens: 9348016, \
     clock_s: 2666.9279306933527, busy_s: 2666.9279073366465, \
     utilization: 0.9981808936530965, preemptions: 0, peak_unique_pages: 1079968, \
     requeued_away: 0, restarts: 0, provisioned_s: 2671.788174161846 }, \
     ReplicaReport { gpu: \"A100-80G-SXM4\", routed: 35000, completed: 35000, \
     generated_tokens: 9389933, clock_s: 2671.788174161846, busy_s: 2671.7879671916135, \
     utilization: 0.9999999225349394, preemptions: 0, peak_unique_pages: 1079968, \
     requeued_away: 0, restarts: 0, provisioned_s: 2671.788174161846 }] }",
    "ClusterReport { routing: \"deadline-aware\", admission: \"deadline\", replicas: 2, \
     completed: 124, generated_tokens: 30968, makespan_s: 12.5851224560949, \
     throughput_tps: 2460.683247861635, goodput_tps: 2460.683247861635, slo_attainment: 1.0, \
     slo_ratio_p50: 0.25174049617981303, slo_ratio_p99: 0.8968411071316712, shed: 36, \
     shed_by_tier: [31, 5, 0], shed_ids: [RequestId(3), RequestId(12), RequestId(18), \
     RequestId(30), RequestId(33), RequestId(36), RequestId(39), RequestId(51), \
     RequestId(54), RequestId(57), RequestId(60), RequestId(63), RequestId(66), \
     RequestId(69), RequestId(72), RequestId(75), RequestId(76), RequestId(78), \
     RequestId(79), RequestId(81), RequestId(87), RequestId(93), RequestId(102), \
     RequestId(111), RequestId(114), RequestId(120), RequestId(126), RequestId(129), \
     RequestId(138), RequestId(142), RequestId(145), RequestId(147), RequestId(148), \
     RequestId(150), RequestId(153), RequestId(159)], mean_ttft_s: 0.29429130714793944, \
     p50_latency_s: 3.0605000115044563, p99_latency_s: 10.682883603249842, preemptions: 0, \
     requeued: 0, lost_prefill_tokens: 0, swap_outs: 0, swap_out_pages: 0, swap_in_pages: 0, \
     swap_bytes: 0, migrations: 0, migrated_pages: 0, migrated_bytes: 0, \
     gpu_seconds: 25.1702449121898, last_requeued_finish_s: 0.0, \
     max_replica_peak_pages: 123808, sketch_p50_latency_s: 3.0, sketch_p99_latency_s: 10.5, \
     per_replica: [ReplicaReport { gpu: \"A100-80G-SXM4\", routed: 69, completed: 69, \
     generated_tokens: 19129, clock_s: 8.22175398872719, busy_s: 8.221368391867522, \
     utilization: 0.653260897583556, preemptions: 0, peak_unique_pages: 123808, \
     requeued_away: 0, restarts: 0, provisioned_s: 12.5851224560949 }, \
     ReplicaReport { gpu: \"L40S-48G\", routed: 55, completed: 55, generated_tokens: 11839, \
     clock_s: 12.5851224560949, busy_s: 12.557513769310013, utilization: 0.9978062440885097, \
     preemptions: 0, peak_unique_pages: 88032, requeued_away: 0, restarts: 0, \
     provisioned_s: 12.5851224560949 }] }",
    "ClusterReport { routing: \"least-outstanding\", admission: \"admit-all\", replicas: 2, \
     completed: 240, generated_tokens: 91438, makespan_s: 129.22175286936613, \
     throughput_tps: 707.6053216244267, goodput_tps: 707.6053216244267, slo_attainment: 1.0, \
     slo_ratio_p50: 0.0, slo_ratio_p99: 0.0, shed: 0, shed_by_tier: [0, 0, 0], shed_ids: [], \
     mean_ttft_s: 51.63228103451498, p50_latency_s: 99.23748488794227, \
     p99_latency_s: 128.09707995215362, preemptions: 0, requeued: 121, \
     lost_prefill_tokens: 178176, swap_outs: 15, swap_out_pages: 171840, \
     swap_in_pages: 171840, swap_bytes: 23931125760, migrations: 0, migrated_pages: 0, \
     migrated_bytes: 0, gpu_seconds: 256.44350573873226, \
     last_requeued_finish_s: 129.22175286936613, max_replica_peak_pages: 1079968, \
     sketch_p50_latency_s: 98.0, sketch_p99_latency_s: 128.0, \
     per_replica: [ReplicaReport { gpu: \"A100-80G-SXM4\", routed: 121, completed: 0, \
     generated_tokens: 0, clock_s: 5.35819666954505, busy_s: 5.3542676412490415, \
     utilization: 0.04143472381667675, preemptions: 0, peak_unique_pages: 1075360, \
     requeued_away: 121, restarts: 1, provisioned_s: 127.22175286936613 }, \
     ReplicaReport { gpu: \"A100-80G-SXM4\", routed: 240, completed: 240, \
     generated_tokens: 91438, clock_s: 129.22175286936613, busy_s: 129.21344475567054, \
     utilization: 0.9999357065392543, preemptions: 0, peak_unique_pages: 1079968, \
     requeued_away: 0, restarts: 0, provisioned_s: 129.22175286936613 }] }",
];

/// Row (a)'s FNV-1a digest, as recorded on commit 30df3df.
const ROW_A_DIGEST: u64 = 0x82817ae429e87c05;

#[test]
fn reports_reproduce_their_frozen_text() {
    assert_eq!(digest(FROZEN[0]), ROW_A_DIGEST, "row (a)'s pin is the text recorded on 30df3df");
    // Rows (b)-(d) advance their replicas on the global pool: `ci.sh` runs
    // this file at one thread and again at four.
    for ((name, run), frozen) in ROWS.iter().zip(FROZEN) {
        let actual = run();
        let moved: Vec<String> = actual
            .split(", ")
            .zip(frozen.split(", "))
            .filter(|(a, f)| a != f)
            .map(|(a, f)| format!("{f} -> {a}"))
            .collect();
        assert!(actual == frozen, "row '{name}' drifted from its frozen report: {moved:?}\nnow: {actual}");
    }
}
