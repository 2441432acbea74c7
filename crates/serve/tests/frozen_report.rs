//! Frozen report folding: the full `Debug` text of four reports — the single
//! engine and the cluster above `EXACT_STATS_MAX` completions (the streaming
//! sketch path), a mixed fleet that sheds at admission and reports SLO
//! ratios, and a crash-and-restart fleet under swap preemption — hashed with
//! FNV-1a, exactly what the benchmark's `sim_digest` hashes. `f64`'s `Debug`
//! round-trips, so each constant pins every bit of every field, per-replica
//! rows and id columns included.
//!
//! Recorded on commit 30df3df, while `ServingEngine::serve` still folded its
//! report through a scheduler-side statistics struct of its own; reproduced
//! bit for bit by every later fold.

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

/// Recorded on commit 30df3df.
const FROZEN: [u64; 4] = [0x82817ae429e87c05, 0xffe76abf22804a8b, 0xb86d495bf74eda30, 0x63177384660d34df];

#[test]
fn reports_reproduce_their_frozen_digests() {
    let actual: Vec<u64> = ROWS.iter().map(|(_, run)| digest(&run())).collect();
    // Rows (b)-(d) advance their replicas on the global pool: `ci.sh` runs
    // this file at one thread and again at four.
    if actual != FROZEN {
        let rows: Vec<String> = actual.iter().map(|d| format!("{d:#018x}")).collect();
        eprintln!("const FROZEN: [u64; 4] = [{}];", rows.join(", "));
    }
    for ((name, _), (a, f)) in ROWS.iter().zip(actual.iter().zip(&FROZEN)) {
        assert_eq!(a, f, "row '{name}' drifted from its frozen report");
    }
}
