//! Frozen cluster-driver behaviour: eleven small fixed fleets that between
//! them reach every event handler of `Cluster::serve_paged_faulty` — shed,
//! route, migrate-then-route (onto an idle and onto a busy replica), crash
//! with requeue, crash with nobody left (parked work delivered at a restart,
//! or shed when none comes), drain and re-open, rolling upgrade, an upgrade
//! aimed at a dead replica, autoscale up and down, recompute preemption,
//! chunked prefill under swap preemption, a crash while a tick is due — with
//! outcomes recorded on the commit *before* the 430-line event loop was split
//! into `Driver` methods (the eleventh on the commit before replica ticks
//! left the event queue), and reproduced bit for bit by every later driver.
//!
//! The golden CSVs pin these paths to three decimals and the committed
//! benchmark's fault plans contain no upgrade; these constants pin them to
//! the bit, at one pool thread and at four (due replicas advance
//! concurrently).

use qserve_gpusim::{GpuSpec, HostLink};
use qserve_model::ModelConfig;
use qserve_serve::cluster::{
    AutoscaleConfig, Cluster, DeadlineAware, DeadlineFeasible, LeastOutstanding, MigrationConfig,
    QueuePressureScaler, RoundRobin,
};
use qserve_serve::ledger::Reservation;
use qserve_serve::request::{
    ArrivalPattern, LengthDist, PrefixSharing, Slo, SloSpec, WorkloadSpec,
};
use qserve_serve::scheduler::{Fcfs, MemoryAware, PreemptionMode, SchedOptions, SchedulingPolicy};
use qserve_serve::{ClusterReport, FaultPlan, ServingEngine, SystemConfig};

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

/// The mixed-length trace most fleets replay, at `rate_rps` Poisson.
fn mixed(n: usize, seed: u64, rate_rps: f64) -> WorkloadSpec {
    WorkloadSpec::mixed(n, seed).with_arrivals(ArrivalPattern::Poisson { rate_rps })
}

/// Long private prompts with chat-sized completions: enough of them in
/// flight press a replica's resident set against its page pool.
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

fn memory_aware() -> Box<dyn SchedulingPolicy> {
    Box::new(MemoryAware::default())
}

fn fcfs() -> Box<dyn SchedulingPolicy> {
    Box::new(Fcfs)
}

fn serve(
    cluster: Cluster,
    threads: usize,
    spec: &WorkloadSpec,
    mk_policy: fn() -> Box<dyn SchedulingPolicy>,
    opts: SchedOptions,
    plan: &FaultPlan,
) -> ClusterReport {
    cluster
        .with_threads(threads)
        .serve_paged_faulty(spec, mk_policy, Reservation::OnDemand, opts, plan)
        .expect("fleet serves the trace")
}

/// Deadline admission under overload: part of the trace is shed at the
/// front door, the rest is routed.
fn shed_and_route(threads: usize) -> ClusterReport {
    let cluster = Cluster::new(a100(), 2, Box::new(LeastOutstanding))
        .with_admission(Box::new(DeadlineFeasible));
    let spec = mixed(160, 7, 96.0).with_slos(slo_cycle());
    serve(cluster, threads, &spec, memory_aware, SchedOptions::default(), &FaultPlan::none())
}

/// One tenant's prefix saturates its home: the control plane copies the
/// pool to the other replica, then routes there.
fn migrate_then_route(threads: usize) -> ClusterReport {
    let cluster = Cluster::new(a100(), 2, Box::new(LeastOutstanding)).with_migration(
        MigrationConfig {
            saturation_queue_s: 0.5,
            relief_ratio: 0.5,
            migrate_pages: true,
            link: HostLink::nvlink_p2p(),
        },
    );
    let spec = WorkloadSpec::shared_prefix(1, 2048, 96, 41)
        .with_arrivals(ArrivalPattern::Poisson { rate_rps: 48.0 });
    let opts = SchedOptions { share_prefixes: true, ..SchedOptions::default() };
    serve(cluster, threads, &spec, memory_aware, opts, &FaultPlan::none())
}

/// A mixed fleet pressed against its page pools (recompute preemption) loses
/// replica 0 mid-run: its residents requeue onto the survivors through
/// deadline-aware routing, and it rejoins while traffic still arrives.
fn crash_requeues_onto_survivors(threads: usize) -> ClusterReport {
    let cluster =
        Cluster::heterogeneous(vec![a100(), a100(), l40s()], Box::new(DeadlineAware));
    let spec = long_prompts(300, 11, 40.0).with_slos(slo_cycle());
    let plan = FaultPlan::none().crash_at(0, 2.0).restart_at(0, 4.0);
    serve(cluster, threads, &spec, fcfs, SchedOptions::default(), &plan)
}

/// Both replicas die: in-flight work is parked (arrivals in the gap are
/// shed), then delivered when replica 1 restarts.
fn all_down_then_restart(threads: usize) -> ClusterReport {
    let cluster = Cluster::new(a100(), 2, Box::new(RoundRobin::default()));
    let spec = mixed(64, 13, 24.0);
    let plan = FaultPlan::none().crash_at(0, 1.0).crash_at(1, 1.25).restart_at(1, 1.75);
    serve(cluster, threads, &spec, memory_aware, SchedOptions::default(), &plan)
}

/// Both replicas die and nobody comes back (a third crash lands on the dead
/// replica 0 and must be a no-op): parked work is shed at the end of the run,
/// so finished ∪ shed still partitions the trace.
fn all_down_for_good(threads: usize) -> ClusterReport {
    let cluster = Cluster::new(a100(), 2, Box::new(RoundRobin::default()));
    let spec = mixed(48, 17, 24.0);
    let plan = FaultPlan::none().crash_at(0, 0.75).crash_at(1, 1.0).crash_at(0, 1.25);
    let opts = SchedOptions { chunk_tokens: Some(256), ..SchedOptions::default() };
    serve(cluster, threads, &spec, memory_aware, opts, &plan)
}

/// Replica 1 is drained before the first arrival (idle: its bill closes at
/// the drain instant) and re-opened while still online; replica 0 is
/// drained while busy, goes idle at its own clock, and is re-opened too.
fn drain_and_reopen(threads: usize) -> ClusterReport {
    let cluster = Cluster::new(a100(), 2, Box::new(LeastOutstanding));
    let spec = mixed(64, 19, 16.0);
    let plan = FaultPlan::none()
        .drain_at(1, 0.0)
        .restart_at(1, 1.5)
        .drain_at(0, 2.0)
        .restart_at(0, 3.5);
    serve(cluster, threads, &spec, memory_aware, SchedOptions::default(), &plan)
}

/// The upgrade wave walks the whole fleet, one replica down at a time — one
/// hop finds its replica already idle, so that downtime starts at the fault
/// instant (each busy upgrading replica bounds how far the others advance).
fn rolling_upgrade(threads: usize) -> ClusterReport {
    let cluster = Cluster::new(a100(), 3, Box::new(LeastOutstanding));
    let spec = mixed(96, 23, 24.0);
    let plan = FaultPlan::none().rolling_upgrade(3, 1.0, 0.5);
    serve(cluster, threads, &spec, memory_aware, SchedOptions::default(), &plan)
}

/// The wave's first hop lands on a replica that is already dead and must be
/// passed along; the crashed replica rejoins after the wave has gone by.
fn upgrade_skips_a_dead_replica(threads: usize) -> ClusterReport {
    let cluster = Cluster::new(a100(), 3, Box::new(LeastOutstanding));
    let spec = mixed(48, 29, 6.0);
    let plan = FaultPlan::none()
        .crash_at(0, 0.5)
        .rolling_upgrade(3, 1.0, 0.5)
        .restart_at(0, 5.0);
    serve(cluster, threads, &spec, memory_aware, SchedOptions::default(), &plan)
}

/// A diurnal trace against an elastic fleet: standbys wake into the first
/// crest, one drains in the trough and wakes again for the second.
fn autoscale_up_and_down(threads: usize) -> ClusterReport {
    let cluster = Cluster::new(a100(), 4, Box::new(LeastOutstanding)).with_autoscaler(
        AutoscaleConfig {
            policy: Box::new(QueuePressureScaler {
                min_replicas: 1,
                max_replicas: 4,
                scale_up_queue_s: 1.0,
                scale_down_queue_s: 0.25,
            }),
            interval_s: 1.0,
            initial_online: 1,
        },
    );
    let spec = WorkloadSpec::mixed(360, 31)
        .with_arrivals(ArrivalPattern::Diurnal { trough_rps: 1.0, peak_rps: 48.0, period_s: 10.0 })
        .with_slos(slo_cycle());
    serve(cluster, threads, &spec, memory_aware, SchedOptions::default(), &FaultPlan::none())
}

/// Long prompts in 1024-token chunks pressed against the page pool: victims
/// spill to the host tier and swap back.
fn chunked_prefill_under_swap(threads: usize) -> ClusterReport {
    let cluster = Cluster::new(a100(), 2, Box::new(LeastOutstanding));
    let spec = long_prompts(400, 37, 200.0);
    let opts = SchedOptions {
        chunk_tokens: Some(1024),
        preemption: PreemptionMode::Swap,
        ..SchedOptions::default()
    };
    serve(cluster, threads, &spec, fcfs, opts, &FaultPlan::none())
}

/// Three tenants' long prefixes under heavy load, copied over PCIe: a
/// saturated home moves its pool onto a replica that is itself busy. The
/// copy charges that replica's clock without re-arming its next tick, so it
/// ticks once more at the key it was armed at — ahead of the next arrival
/// when that key precedes it. Re-arming the destination at its charged
/// clock moves this fleet's outcome and no other's.
fn migrate_onto_a_busy_replica(threads: usize) -> ClusterReport {
    let cluster = Cluster::new(a100(), 3, Box::new(LeastOutstanding)).with_migration(
        MigrationConfig {
            saturation_queue_s: 0.5,
            relief_ratio: 0.5,
            migrate_pages: true,
            link: HostLink::pcie4(),
        },
    );
    let spec = mixed(240, 67, 64.0)
        .with_sharing(PrefixSharing::Groups { groups: 3, prefix_len: 2048 })
        .with_slos(slo_cycle());
    let opts = SchedOptions {
        share_prefixes: true,
        chunk_tokens: Some(512),
        preemption: PreemptionMode::Swap,
    };
    serve(cluster, threads, &spec, memory_aware, opts, &FaultPlan::none())
}

/// `(makespan bits, p99 bits, gpu_seconds bits, completed, shed, requeued,
/// lost_prefill_tokens, migrations, preemptions, FNV-1a over per-replica
/// routed / completed / restarts)`.
type Outcome = (u64, u64, u64, usize, usize, usize, usize, usize, usize, u64);

fn outcome(r: &ClusterReport) -> Outcome {
    let fleet = r
        .per_replica
        .iter()
        .flat_map(|p| [p.routed, p.completed, p.restarts])
        .fold(0xCBF2_9CE4_8422_2325u64, |h, x| (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01B3));
    (
        r.makespan_s.to_bits(),
        r.p99_latency_s.to_bits(),
        r.gpu_seconds.to_bits(),
        r.completed,
        r.shed,
        r.requeued,
        r.lost_prefill_tokens,
        r.migrations,
        r.preemptions,
        fleet,
    )
}

const FLEETS: [(&str, fn(usize) -> ClusterReport); 11] = [
    ("shed_and_route", shed_and_route),
    ("migrate_then_route", migrate_then_route),
    ("crash_requeues_onto_survivors", crash_requeues_onto_survivors),
    ("all_down_then_restart", all_down_then_restart),
    ("all_down_for_good", all_down_for_good),
    ("drain_and_reopen", drain_and_reopen),
    ("rolling_upgrade", rolling_upgrade),
    ("upgrade_skips_a_dead_replica", upgrade_skips_a_dead_replica),
    ("autoscale_up_and_down", autoscale_up_and_down),
    ("chunked_prefill_under_swap", chunked_prefill_under_swap),
    ("migrate_onto_a_busy_replica", migrate_onto_a_busy_replica),
];

/// Recorded on commit fa929d6 (the parent of the `Driver` split); the last
/// row on b4e9859 (the parent of the tickless event queue).
const FROZEN: [Outcome; 11] = [
    (0x40203eff0c60c27c, 0x401ec54a5dd2d41a, 0x40303eff0c60c27c, 130, 30, 0, 0, 0, 0, 0xd23c230e972518f5),
    (0x4007898c27ee51e1, 0x3ff6b2400730fc77, 0x4017898c27ee51e1, 96, 0, 0, 0, 1, 0, 0xb42d84048128fd21),
    (0x4053a17d332086ef, 0x4051f859c859df5c, 0x406d323bccb0ca66, 300, 0, 23, 59732, 0, 15, 0xf596bf45e7d564af),
    (0x402078eb7469ef63, 0x401e54b98564dfc5, 0x402178eb7469ef63, 54, 10, 38, 30448, 0, 0, 0x8eb3819427fa1048),
    (0x3ff016a5cf9c718f, 0x3fe2794227e19e00, 0x3ffc000000000000, 3, 45, 31, 15323, 0, 0, 0x39255cef57da834e),
    (0x4021ea69f37da9a0, 0x4016a699ae33c308, 0x40306a69f37da9a0, 64, 0, 0, 0, 0, 0, 0x47f5e36aabce2815),
    (0x4024f744e9fafecc, 0x401d6a157d7f1236, 0x403df2e75ef87e32, 96, 0, 0, 0, 0, 0, 0x4f9bec4fe433e6f6),
    (0x4027b2a51a53d850, 0x40127e8e06f08bda, 0x403e0bf7a77dc478, 48, 0, 0, 0, 0, 0, 0xd2c30adb830876fa),
    (0x4032e8ea38327668, 0x401d69becfec4a20, 0x405038bc56cfc0c5, 360, 0, 0, 0, 0, 0, 0x8f6fb18637ff989d),
    (0x405b26ce70b0120d, 0x405a7d71960fc57e, 0x406b26ce70b0120d, 400, 0, 0, 0, 0, 0, 0xd93d7b7a0873edad),
    (0x403028f549567d12, 0x402df6cd6730d81b, 0x40483d6fee01bb9b, 240, 0, 0, 0, 6, 0, 0x165902619d261aeb),
];

fn assert_frozen(threads: usize) -> Vec<ClusterReport> {
    let reports: Vec<ClusterReport> = FLEETS.iter().map(|(_, run)| run(threads)).collect();
    let actual: Vec<Outcome> = reports.iter().map(outcome).collect();
    if actual != FROZEN {
        for o in &actual {
            eprintln!(
                "    ({:#018x}, {:#018x}, {:#018x}, {}, {}, {}, {}, {}, {}, {:#018x}),",
                o.0, o.1, o.2, o.3, o.4, o.5, o.6, o.7, o.8, o.9
            );
        }
    }
    for ((name, _), (a, f)) in FLEETS.iter().zip(actual.iter().zip(&FROZEN)) {
        assert_eq!(a, f, "fleet '{name}' drifted from its frozen outcome at {threads} thread(s)");
    }
    reports
}

#[test]
fn driver_reproduces_the_frozen_outcomes_sequentially() {
    let r = assert_frozen(1);
    // The table is only worth freezing if each fleet reaches the handler it
    // was built for (each branch was also confirmed by instrumenting the
    // recording commit's driver).
    let sent = [160, 96, 300, 64, 48, 64, 96, 48, 360, 400, 240];
    for ((name, _), (r, n)) in FLEETS.iter().zip(r.iter().zip(sent)) {
        assert_eq!(r.completed + r.shed, n, "'{name}' lost a request");
    }
    let restarts = |r: &ClusterReport| -> Vec<usize> {
        r.per_replica.iter().map(|p| p.restarts).collect()
    };
    assert!(r[0].shed > 0 && r[0].completed > 0, "fleet 1 must shed and route");
    assert!(r[1].migrations > 0 && r[1].shed == 0, "fleet 2 must migrate");
    assert!(r[2].requeued > 0 && r[2].lost_prefill_tokens > 0, "fleet 3 must requeue");
    assert!(r[2].preemptions > 0 && r[2].shed == 0, "fleet 3 must preempt by recompute");
    assert!(
        restarts(&r[2]) == [1, 0, 0] && r[2].per_replica[0].completed > 0,
        "fleet 3's crashed replica must rejoin and serve"
    );
    assert!(r[3].shed > 0 && restarts(&r[3]) == [0, 1], "fleet 4 must shed the gap and restart");
    assert!(
        r[3].requeued > r[3].per_replica[0].requeued_away,
        "fleet 4 must requeue replica 1's residents with nobody accepting (parked)"
    );
    assert!(
        r[4].shed > 24 && restarts(&r[4]) == [0, 0],
        "fleet 5 must shed parked work on top of the 24 arrivals nobody accepted"
    );
    assert!(r[5].requeued == 0 && restarts(&r[5]) == [0, 0], "fleet 6 only drains and re-opens");
    assert!(r[5].gpu_seconds < 2.0 * r[5].makespan_s, "fleet 6's drains must close the bill");
    assert!(restarts(&r[6]) == [1, 1, 1] && r[6].requeued == 0, "fleet 7 must upgrade everyone");
    assert!(restarts(&r[7]) == [1, 1, 1], "fleet 8 must pass the wave along");
    assert!(r[8].per_replica.iter().all(|p| p.routed > 0), "fleet 9 must wake every standby");
    assert!(r[8].gpu_seconds < 4.0 * r[8].makespan_s, "fleet 9 must bill less than always-on");
    assert!(
        r[9].swap_outs > 0 && r[9].swap_in_pages == r[9].swap_out_pages,
        "fleet 10 must swap out and back"
    );
    assert!(
        r[10].migrations > 1 && r[10].per_replica.iter().all(|p| p.completed > 0),
        "fleet 11 must migrate between replicas that all serve"
    );
}

#[test]
fn driver_reproduces_the_frozen_outcomes_at_four_threads() {
    assert_frozen(4);
}
