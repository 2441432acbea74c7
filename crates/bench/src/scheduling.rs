//! Scheduler/workload sweeps — beyond the paper's fixed 1024/512 protocol:
//! how admission policy, workload mix, prefix sharing and chunked prefill
//! move throughput, TTFT and tail latency on the same (GPU, model, system)
//! triple.

use crate::report::{fnum, Table};
use qserve_gpusim::{GpuSpec, HostLink};
use qserve_model::ModelConfig;
use qserve_serve::cluster::{
    AdmissionPolicy, AdmitAll, AutoscaleConfig, Cluster, DeadlineAware, DeadlineFeasible,
    LeastOutstanding, MigrationConfig, PrefixAffinity, PriorityShed, QueuePressureScaler,
    RoundRobin, RoutingPolicy,
};
use qserve_serve::ledger::Reservation;
use qserve_serve::request::{
    ArrivalPattern, LengthDist, PrefixSharing, Slo, SloSpec, WorkloadSpec,
};
use qserve_serve::scheduler::{
    Fcfs, MemoryAware, PreemptionMode, SchedOptions, SchedulingPolicy, ShortestJobFirst,
};
use qserve_serve::{
    ClusterReport, FaultPlan, ServeConfig, ServingEngine, SystemConfig,
};
use qserve_tensor::pool;

/// Deterministic seed for the sweep's sampled workloads.
const SWEEP_SEED: u64 = 20240603;

/// The sweeps' A100 engine: Llama-2-7B under QServe per-channel W4A8KV4.
fn a100_qserve() -> ServingEngine {
    ServingEngine::new(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel)
        .expect("A100 serves Llama-2-7B")
}

/// The sweeps' L40S engine: Llama-2-7B under QServe per-group W4A8KV4.
fn l40s_qserve() -> ServingEngine {
    ServingEngine::new(GpuSpec::l40s(), ModelConfig::llama2_7b(), SystemConfig::QServePerGroup)
        .expect("L40S serves Llama-2-7B")
}

/// The standard interactive / standard / best-effort tier cycle every
/// deadline-carrying sweep workload runs under.
fn slo_cycle() -> SloSpec {
    SloSpec::Cycle(vec![
        Slo::interactive(2.0, 8.0),
        Slo::standard(6.0, 20.0),
        Slo::best_effort(),
    ])
}

/// One cluster cell, the way every sweep runs it: memory-aware admission
/// over on-demand paged replicas, under `plan` ([`FaultPlan::none`] is the
/// fault-free driver bit for bit).
fn serve_cell(
    cluster: &mut Cluster,
    spec: &WorkloadSpec,
    opts: SchedOptions,
    plan: &FaultPlan,
) -> ClusterReport {
    cluster
        .serve_paged_faulty(
            spec,
            || Box::new(MemoryAware::default()),
            Reservation::OnDemand,
            opts,
            plan,
        )
        .expect("workload must be servable")
}

/// Scenario arms are independent clusters built up front: serves them
/// concurrently on the pool and returns the reports in arm order.
fn serve_arms(
    arms: &mut [Cluster],
    spec: &WorkloadSpec,
    opts: SchedOptions,
) -> Vec<ClusterReport> {
    pool::global()
        .par_map_mut(arms, |_, cluster| serve_cell(cluster, spec, opts, &FaultPlan::none()))
}

/// Grid cells are independent serves: fans them out on the worker pool and
/// pushes their rows in grid order (`par_map` preserves submission order,
/// so the CSV is byte-identical at any thread count; a cell's panic
/// propagates to this thread).
fn fill_grid<C: Sync>(t: &mut Table, cells: &[C], row: impl Fn(&C) -> Vec<String> + Sync) {
    for r in pool::global().par_map(cells, |_, cell| row(cell)) {
        t.push_row(r);
    }
}

fn policies() -> Vec<(&'static str, fn() -> Box<dyn SchedulingPolicy>)> {
    vec![
        ("fcfs", || Box::new(Fcfs)),
        ("sjf", || Box::new(ShortestJobFirst)),
        ("memory-aware", || Box::new(MemoryAware::default())),
    ]
}

/// Requests per workload: enough to exceed the memory-derived batch limit
/// on the mixed workload, so queueing exists and admission order matters.
const SWEEP_REQUESTS: usize = 256;

fn workloads() -> Vec<(&'static str, WorkloadSpec)> {
    vec![
        ("paper-1024/512", WorkloadSpec::paper(SWEEP_REQUESTS)),
        ("chat", WorkloadSpec::chat(SWEEP_REQUESTS, SWEEP_SEED)),
        ("mixed", WorkloadSpec::mixed(SWEEP_REQUESTS, SWEEP_SEED)),
        (
            "chat-poisson",
            WorkloadSpec::chat(SWEEP_REQUESTS, SWEEP_SEED)
                .with_arrivals(ArrivalPattern::Poisson { rate_rps: 8.0 }),
        ),
    ]
}


/// **sched_sweep**: policy × workload grid on A100 / Llama-2-7B / QServe —
/// throughput, TTFT and latency percentiles for every combination. Where
/// memory is abundant relative to the workload (paper, chat) the rows tie:
/// admission order is irrelevant without queueing. The mixed workload is
/// where policies separate — SJF trims TTFT/median, memory-aware admission
/// lifts throughput by batching past the worst-case-peak limit.
pub fn sched_sweep() -> Table {
    let mut t = Table::new(
        "sched_sweep",
        "scheduling policy × workload, Llama-2-7B QServe on A100 (latencies in s)",
        &[
            "Workload",
            "Policy",
            "Batch",
            "Throughput (tok/s)",
            "Mean TTFT",
            "p50",
            "p95",
            "p99",
            "Preempt",
        ],
    );
    let engine = a100_qserve();
    for (wname, spec) in workloads() {
        for (pname, make) in policies() {
            // Memory-aware admission needs a page ledger to look at; the
            // order-only policies run under worst-case peak sizing.
            let cfg = if pname == "memory-aware" {
                ServeConfig::paged(Reservation::OnDemand)
            } else {
                ServeConfig::worst_case()
            };
            let r = engine.serve(&spec, make(), cfg).expect("workload must be servable");
            t.push_row(vec![
                wname.to_string(),
                pname.to_string(),
                r.max_batch.to_string(),
                fnum(r.throughput_tps, 0),
                fnum(r.mean_ttft_s, 3),
                fnum(r.p50_latency_s, 3),
                fnum(r.p95_latency_s, 3),
                fnum(r.p99_latency_s, 3),
                r.preemptions.to_string(),
            ]);
        }
    }
    t
}

/// The `prefix_sweep` grid's share-ratio rows: multi-tenant workloads whose
/// ~4k-token prompts are `ratio` shared system prompt and the rest private
/// suffix (`ratio` 0 disables sharing outright). 4 tenants, chat-sized
/// completions; enough requests that the paged pool is under real pressure.
fn prefix_workload(prefix_len: usize) -> WorkloadSpec {
    let requests = 192;
    let suffix = 4096usize.saturating_sub(prefix_len);
    WorkloadSpec {
        num_requests: requests,
        input: LengthDist::Uniform { lo: suffix.saturating_sub(128).max(64), hi: suffix + 128 },
        output: LengthDist::Uniform { lo: 256, hi: 512 },
        arrival: ArrivalPattern::Batch,
        sharing: if prefix_len == 0 {
            PrefixSharing::None
        } else {
            PrefixSharing::Groups { groups: 4, prefix_len }
        },
        slo: SloSpec::None,
        seed: SWEEP_SEED,
    }
}

/// **prefix_sweep**: share-ratio × chunk-size grid on A100 / Llama-2-7B /
/// QServe under memory-aware, on-demand paged admission. Sharing stores
/// each tenant's system prompt once (lower unique-page high-water), admits
/// against true residency (fewer preemptions) and skips recomputing
/// resident prefixes (lower TTFT); chunking bounds how long a long prompt
/// can stall running decodes.
pub fn prefix_sweep() -> Table {
    let mut t = Table::new(
        "prefix_sweep",
        "shared-prefix ratio × prefill chunk, Llama-2-7B QServe on A100 (latencies in s)",
        &[
            "Prefix",
            "Chunk",
            "Throughput (tok/s)",
            "Mean TTFT",
            "p50",
            "p99",
            "Preempt",
            "Peak pages",
        ],
    );
    let engine = a100_qserve();
    for prefix_len in [0usize, 2048, 3584] {
        let spec = prefix_workload(prefix_len);
        for chunk in [None, Some(2048usize), Some(512)] {
            let opts = SchedOptions {
                share_prefixes: prefix_len > 0,
                chunk_tokens: chunk,
                ..SchedOptions::default()
            };
            let cfg = ServeConfig::paged(Reservation::OnDemand).with_opts(opts);
            let r = engine
                .serve(&spec, Box::new(MemoryAware::default()), cfg)
                .expect("workload must be servable");
            t.push_row(vec![
                prefix_len.to_string(),
                chunk.map_or("—".to_string(), |c| c.to_string()),
                fnum(r.throughput_tps, 0),
                fnum(r.mean_ttft_s, 3),
                fnum(r.p50_latency_s, 3),
                fnum(r.p99_latency_s, 3),
                r.preemptions.to_string(),
                r.peak_unique_pages.to_string(),
            ]);
        }
    }
    t
}

fn routings() -> Vec<(&'static str, fn() -> Box<dyn RoutingPolicy>)> {
    vec![
        ("round-robin", || Box::new(RoundRobin::default())),
        ("least-outstanding", || Box::new(LeastOutstanding)),
        ("prefix-affinity", || Box::new(PrefixAffinity::default())),
    ]
}

/// **cluster_sweep**: replicas × routing policy × share-ratio grid on
/// A100 / Llama-2-7B / QServe — the same multi-tenant workloads as
/// `prefix_sweep`, served by 1, 2 or 4 engine replicas behind each router.
/// One replica reproduces the single-engine numbers exactly (routing is
/// irrelevant with one target); scaling out divides the queue. The routing
/// story appears at high share ratios: prefix-affinity keeps each tenant's
/// system prompt on one replica, so its per-replica unique-page high-water
/// and TTFT beat round-robin, which recomputes and stores every prefix on
/// every replica.
pub fn cluster_sweep() -> Table {
    let mut t = Table::new(
        "cluster_sweep",
        "replicas × routing × shared-prefix ratio, Llama-2-7B QServe on A100 (latencies in s)",
        &[
            "Replicas",
            "Routing",
            "Prefix",
            "Throughput (tok/s)",
            "Mean TTFT",
            "p50",
            "p99",
            "Preempt",
            "Peak pages/replica",
        ],
    );
    let engine = a100_qserve();
    let mut cells: Vec<(usize, &'static str, fn() -> Box<dyn RoutingPolicy>, usize)> = Vec::new();
    for replicas in [1usize, 2, 4] {
        for (rname, mk_routing) in routings() {
            for prefix_len in [0usize, 2048, 3584] {
                cells.push((replicas, rname, mk_routing, prefix_len));
            }
        }
    }
    fill_grid(&mut t, &cells, |&(replicas, rname, mk_routing, prefix_len)| {
        let spec = prefix_workload(prefix_len);
        let opts = SchedOptions {
            share_prefixes: prefix_len > 0,
            chunk_tokens: None,
            ..SchedOptions::default()
        };
        let mut cluster = Cluster::new(engine.clone(), replicas, mk_routing());
        let r = serve_cell(&mut cluster, &spec, opts, &FaultPlan::none());
        vec![
            replicas.to_string(),
            rname.to_string(),
            prefix_len.to_string(),
            fnum(r.throughput_tps, 0),
            fnum(r.mean_ttft_s, 3),
            fnum(r.p50_latency_s, 3),
            fnum(r.p99_latency_s, 3),
            r.preemptions.to_string(),
            r.max_replica_peak_pages.to_string(),
        ]
    });
    t
}

/// The heterogeneous fleets the `hetero_sweep` grid compares: a uniform
/// 4×A100 baseline and a mixed 2×A100 + 2×L40S fleet of the same size.
/// Each replica's prefill/decode costs, page pool and speed profile come
/// from its own spec — the L40S replicas really are ~2× slower at decode.
fn hetero_fleets() -> Vec<(&'static str, Vec<ServingEngine>)> {
    let (a100, l40s) = (a100_qserve(), l40s_qserve());
    vec![
        ("4xA100", vec![a100.clone(); 4]),
        ("2xA100+2xL40S", vec![a100.clone(), a100, l40s.clone(), l40s]),
    ]
}

/// The overloaded SLO workload behind `hetero_sweep`: the production mix
/// (bimodal lengths) at a sustained Poisson rate well above fleet capacity,
/// with a deterministic interactive / standard / best-effort tier cycle.
/// Overload is the point — admission policy only matters when serving
/// everything on time is impossible.
fn slo_workload() -> WorkloadSpec {
    WorkloadSpec::mixed(768, SWEEP_SEED)
        .with_arrivals(ArrivalPattern::Poisson { rate_rps: 96.0 })
        .with_slos(slo_cycle())
}

fn hetero_routings() -> Vec<(&'static str, fn() -> Box<dyn RoutingPolicy>)> {
    vec![
        ("round-robin", || Box::new(RoundRobin::default())),
        ("least-outstanding", || Box::new(LeastOutstanding)),
    ]
}

fn admissions() -> Vec<(&'static str, fn() -> Box<dyn AdmissionPolicy>)> {
    vec![
        ("admit-all", || Box::new(AdmitAll)),
        ("deadline", || Box::new(DeadlineFeasible)),
        ("priority-shed", || Box::new(PriorityShed { queue_budget_s: 2.0 })),
    ]
}

/// **hetero_sweep**: fleet mix × routing × admission grid under sustained
/// overload — goodput (SLO-met tok/s), SLO attainment among served
/// requests, shed counts per tier, tail latency and per-replica
/// utilization. Two stories: (1) on the mixed fleet, work-normalized
/// least-outstanding routing beats round-robin on goodput because it stops
/// treating an L40S like an A100 (round-robin pegs the L40S replicas while
/// the A100s idle); (2) deadline admission sheds the requests that cannot
/// meet their SLO anyway, lifting both goodput and attainment over
/// admit-all, while priority shedding sacrifices batch-tier traffic first
/// and never touches interactive.
pub fn hetero_sweep() -> Table {
    let mut t = Table::new(
        "hetero_sweep",
        "fleet mix × routing × admission under overload, Llama-2-7B QServe (latencies in s)",
        &[
            "Fleet",
            "Routing",
            "Admission",
            "Goodput (tok/s)",
            "Throughput (tok/s)",
            "SLO att",
            "Shed",
            "Shed i/s/b",
            "p99",
            "Util min",
            "Util max",
        ],
    );
    let spec = slo_workload();
    let fleets = hetero_fleets();
    type HeteroCell = (
        usize,
        &'static str,
        &'static str,
        fn() -> Box<dyn RoutingPolicy>,
        &'static str,
        fn() -> Box<dyn AdmissionPolicy>,
    );
    let mut cells: Vec<HeteroCell> = Vec::new();
    for (fi, (fname, _)) in fleets.iter().enumerate() {
        for (rname, mk_routing) in hetero_routings() {
            for (aname, mk_admission) in admissions() {
                cells.push((fi, fname, rname, mk_routing, aname, mk_admission));
            }
        }
    }
    fill_grid(&mut t, &cells, |&(fi, fname, rname, mk_routing, aname, mk_admission)| {
        let mut cluster = Cluster::heterogeneous(fleets[fi].1.clone(), mk_routing())
            .with_admission(mk_admission());
        let r = serve_cell(&mut cluster, &spec, SchedOptions::default(), &FaultPlan::none());
        let utils: Vec<f64> = r.per_replica.iter().map(|p| p.utilization).collect();
        let min_util = utils.iter().copied().fold(f64::INFINITY, f64::min);
        let max_util = utils.iter().copied().fold(0.0f64, f64::max);
        vec![
            fname.to_string(),
            rname.to_string(),
            aname.to_string(),
            fnum(r.goodput_tps, 0),
            fnum(r.throughput_tps, 0),
            fnum(r.slo_attainment, 3),
            r.shed.to_string(),
            format!("{}/{}/{}", r.shed_by_tier[0], r.shed_by_tier[1], r.shed_by_tier[2]),
            fnum(r.p99_latency_s, 3),
            fnum(min_util, 2),
            fnum(max_util, 2),
        ]
    });
    t
}

/// The `mega_sweep` fleet: four identical A100 replicas serving Llama-2-7B
/// under QServe per-channel — homogeneous on purpose, so the experiment
/// stresses arrival volume rather than fleet asymmetry.
fn mega_fleet() -> Vec<ServingEngine> {
    vec![a100_qserve(); 4]
}

/// Offered load for the `mega_sweep` trace, requests per second across the
/// fleet — chosen a little above the 4×A100 service rate on the production
/// length mix, so a persistent (but bounded) backlog exercises admission,
/// routing and the event queue under pressure for the whole run.
const MEGA_RATE_RPS: f64 = 640.0;

/// Shared core of `mega_sweep` / `mega_sweep_smoke`: an `num_requests`-long
/// production Poisson trace served by [`mega_fleet`] behind work-normalized
/// least-outstanding routing, reported as a single row. Above
/// [`qserve_serve::EXACT_STATS_MAX`] finished requests the latency
/// percentiles come from the streaming sketch (the exact and sketch columns
/// coincide below it).
fn mega_sweep_sized(name: &'static str, num_requests: usize) -> Table {
    let mut t = Table::new(
        name,
        "million-request event-core reproduce: 4xA100 Llama-2-7B QServe, \
         production Poisson trace (latencies in s)",
        &[
            "Requests",
            "Rate (rps)",
            "Completed",
            "Throughput (tok/s)",
            "Makespan (s)",
            "Mean TTFT",
            "p50",
            "p99",
            "Sketch p50",
            "Sketch p99",
            "Preempt",
        ],
    );
    let spec = WorkloadSpec::production(num_requests, MEGA_RATE_RPS, SWEEP_SEED);
    let mut cluster = Cluster::heterogeneous(mega_fleet(), Box::new(LeastOutstanding));
    let r = serve_cell(&mut cluster, &spec, SchedOptions::default(), &FaultPlan::none());
    assert_eq!(r.completed, num_requests, "mega_sweep must finish every request");
    t.push_row(vec![
        num_requests.to_string(),
        fnum(MEGA_RATE_RPS, 0),
        r.completed.to_string(),
        fnum(r.throughput_tps, 0),
        fnum(r.makespan_s, 1),
        fnum(r.mean_ttft_s, 3),
        fnum(r.p50_latency_s, 3),
        fnum(r.p99_latency_s, 3),
        fnum(r.sketch_p50_latency_s, 3),
        fnum(r.sketch_p99_latency_s, 3),
        r.preemptions.to_string(),
    ]);
    t
}

/// **mega_sweep**: the million-request reproduce — 1,000,000 Poisson
/// arrivals through the event-driven serving core on a 4×A100 fleet. The
/// step-driven driver's O(residents)-per-arrival scans made this scale
/// unreachable; the event core finishes it in minutes, with latency
/// percentiles from the streaming sketch.
pub fn mega_sweep() -> Table {
    mega_sweep_sized("mega_sweep", 1_000_000)
}

/// **mega_sweep_smoke**: the CI-sized `mega_sweep` (10,000 requests, same
/// fleet, rate and seed) — small enough for the exact percentile path, so
/// its sketch columns double as an accuracy check against the exact ones.
pub fn mega_sweep_smoke() -> Table {
    mega_sweep_sized("mega_sweep_smoke", 10_000)
}

/// When replica 0 dies / drains / upgrades in the failure sweep, seconds.
const FAULT_S: f64 = 3.0;
/// When the drained replica comes back, seconds.
const RECOVER_S: f64 = 6.0;
/// When the crashed replica comes back, seconds: halfway from the crash to
/// the trace's expected last arrival (384 requests at 64 rps end near 6 s),
/// so new work still arrives for it to rejoin.
const CRASH_RECOVER_S: f64 = 4.5;
/// Per-replica offline window of the rolling upgrade, seconds.
const UPGRADE_DOWNTIME_S: f64 = 1.5;

/// The failure-sweep workload: long private prompts with chat-sized
/// completions at a Poisson rate that keeps the 4×A100 fleet's resident
/// sets pressed against the paged pool — so the preemption axis
/// (recompute vs swap) is actually exercised, not latent — under the
/// standard interactive/standard/best-effort SLO cycle so goodput and
/// attainment react when a replica goes away.
fn failure_workload() -> WorkloadSpec {
    WorkloadSpec {
        num_requests: 384,
        input: LengthDist::Uniform { lo: 4800, hi: 6400 },
        output: LengthDist::Uniform { lo: 256, hi: 512 },
        arrival: ArrivalPattern::Poisson { rate_rps: 64.0 },
        sharing: PrefixSharing::None,
        slo: slo_cycle(),
        seed: SWEEP_SEED,
    }
}

/// The failure-sweep scenario grid: what happens to replica 0 (or, for the
/// rolling upgrade, the whole fleet in sequence) while the trace plays.
/// The third element is the fault instant recovery time is measured from
/// (`None` when nothing is requeued, so recovery is undefined).
fn failure_scenarios(fleet: usize) -> Vec<(&'static str, FaultPlan, Option<f64>)> {
    vec![
        ("none", FaultPlan::none(), None),
        (
            "crash",
            FaultPlan::none().crash_at(0, FAULT_S).restart_at(0, CRASH_RECOVER_S),
            Some(FAULT_S),
        ),
        ("drain", FaultPlan::none().drain_at(0, FAULT_S).restart_at(0, RECOVER_S), None),
        (
            "rolling-upgrade",
            FaultPlan::none().rolling_upgrade(fleet, FAULT_S, UPGRADE_DOWNTIME_S),
            None,
        ),
    ]
}

/// **failure_sweep**: the replica failure & lifecycle reproduce — crash,
/// drain and rolling upgrade against a 4×A100 fleet under KV pressure, in
/// both preemption modes. Three stories: (1) a crash loses KV pages and
/// in-flight work but never requests — everything requeues through routing
/// and finishes (the `Lost tok` column is the prefill honestly re-owed),
/// and the replica, back while the trace still arrives, serves again;
/// (2) a drain degrades goodput gracefully — no requeues, no lost work —
/// and the rolling upgrade holds the fleet at n−1 capacity as the wave
/// walks the replicas; (3) under memory pressure, swap-mode preemption
/// pays PCIe transfer instead of recomputing long prompts, and wins
/// goodput over recompute.
///
/// The grid is scenario × preemption mode on the 4×A100 [`mega_fleet`].
/// Every cell asserts the fault-conservation contract — finished ∪ shed
/// covers the workload exactly, so a crash moves work but never loses it —
/// and each crash cell that the crash caught in-flight work and re-owed its
/// prefill, and that replica 0 restarted once and completed work after.
pub fn failure_sweep() -> Table {
    let mut t = Table::new(
        "failure_sweep",
        "replica failure & lifecycle × preemption mode: 4xA100 Llama-2-7B QServe \
         (recovery from the fault instant; swap traffic in MB)",
        &[
            "Scenario",
            "Preemption",
            "Completed",
            "Requeued",
            "Lost tok",
            "Shed",
            "Goodput (tok/s)",
            "Throughput (tok/s)",
            "SLO att",
            "Recovery (s)",
            "Preempt",
            "Swap outs",
            "Swap MB",
        ],
    );
    let spec = failure_workload();
    let fleet = mega_fleet();
    let mut cells: Vec<(&'static str, FaultPlan, Option<f64>, &'static str, PreemptionMode)> =
        Vec::new();
    for (scenario, plan, fault_at) in failure_scenarios(fleet.len()) {
        for (pname, preemption) in
            [("recompute", PreemptionMode::Recompute), ("swap", PreemptionMode::Swap)]
        {
            cells.push((scenario, plan.clone(), fault_at, pname, preemption));
        }
    }
    fill_grid(&mut t, &cells, |(scenario, plan, fault_at, pname, preemption)| {
        let opts = SchedOptions { preemption: *preemption, ..SchedOptions::default() };
        let mut cluster = Cluster::heterogeneous(fleet.clone(), Box::new(LeastOutstanding));
        let r = serve_cell(&mut cluster, &spec, opts, plan);
        // The acceptance invariant: a fault may requeue or shed work,
        // never lose it.
        assert_eq!(
            r.completed + r.shed,
            spec.num_requests,
            "failure_sweep/{scenario}/{pname}: a request was lost"
        );
        if fault_at.is_some() {
            // The crash destroys replica 0's pages and re-owes their
            // prefill; the replica restarts exactly once, while the trace
            // still arrives, and is routed to and finishes new work.
            let dead = &r.per_replica[0];
            assert!(
                r.requeued > 0 && dead.requeued_away > 0,
                "failure_sweep/{scenario}/{pname}: the crash caught no in-flight work"
            );
            assert!(
                r.lost_prefill_tokens > 0,
                "failure_sweep/{scenario}/{pname}: destroyed pages re-owed no prefill"
            );
            assert_eq!(
                dead.restarts, 1,
                "failure_sweep/{scenario}/{pname}: replica 0 must restart exactly once"
            );
            assert!(
                dead.completed > 0,
                "failure_sweep/{scenario}/{pname}: the restarted replica must serve again"
            );
        }
        let recovery = match fault_at {
            Some(at) if r.requeued > 0 => fnum(r.last_requeued_finish_s - at, 2),
            _ => "—".to_string(),
        };
        // lint: allow(raw-cast) -- u64 byte count → f64 for MB display only
        let swap_mb = r.swap_bytes as f64 / 1e6;
        vec![
            scenario.to_string(),
            pname.to_string(),
            r.completed.to_string(),
            r.requeued.to_string(),
            r.lost_prefill_tokens.to_string(),
            r.shed.to_string(),
            fnum(r.goodput_tps, 0),
            fnum(r.throughput_tps, 0),
            fnum(r.slo_attainment, 3),
            recovery,
            r.preemptions.to_string(),
            r.swap_outs.to_string(),
            fnum(swap_mb, 1),
        ]
    });
    t
}

/// The control plane's migration trigger for the elastic sweep: a pinned
/// home is saturated past half a second of estimated queue, relief must
/// halve the backlog, and the copy is priced on the NVLink peer fabric.
fn migration_config(migrate_pages: bool) -> MigrationConfig {
    MigrationConfig {
        saturation_queue_s: 0.5,
        relief_ratio: 0.5,
        migrate_pages,
        link: HostLink::nvlink_p2p(),
    }
}

/// **elastic_sweep**: the control-plane reproduce — deadline-aware routing
/// under overload, cross-replica prefix migration off a saturated pin, and
/// the elastic autoscaler on a diurnal trace, with goodput, SLO
/// attainment, migration traffic and fleet-cost (GPU-seconds) per arm.
/// Three scenarios in one grid, each cell asserting the zero-lost-requests
/// contract (`completed + shed == n`).
///
/// * **deadline-routing** — the mixed 1×A100 + 3×L40S fleet under the
///   overloaded SLO trace: [`DeadlineAware`] placement folds each
///   replica's deadline-feasibility estimate into routing and must beat
///   work-normalized [`LeastOutstanding`] on SLO attainment.
/// * **prefix-migration** — one tenant's 4096-token system prompt,
///   arrivals past a single replica's capacity on a 2×A100 fleet:
///   affinity queues at the saturated home, priority shedding drops work,
///   re-pinning re-prefills on the relief replica; page migration copies
///   the prefix over NVLink and must win goodput over all three.
/// * **autoscale** — a diurnal day/night trace against a 4×A100 fleet:
///   the [`QueuePressureScaler`] wakes standbys into the crest and drains
///   them after, landing between static-min attainment and static-max
///   fleet-cost (GPU-seconds).
pub fn elastic_sweep() -> Table {
    let mut t = Table::new(
        "elastic_sweep",
        "control-plane scenarios: deadline routing, prefix migration, elastic \
         autoscaling (Llama-2-7B QServe; migration traffic in MB; fleet cost in GPU-s)",
        &[
            "Scenario",
            "Arm",
            "Fleet",
            "Completed",
            "Shed",
            "Goodput (tok/s)",
            "SLO att",
            "p99",
            "Migr",
            "Migr MB",
            "GPU-s",
        ],
    );
    let (a100, l40s) = (a100_qserve(), l40s_qserve());
    let mut push = |scenario: &str, arm: &str, fleet: &str, n: usize, r: &ClusterReport| {
        assert_eq!(
            r.completed + r.shed,
            n,
            "elastic_sweep/{scenario}/{arm}: a request was lost"
        );
        // lint: allow(raw-cast) -- u64 byte count → f64 for MB display only
        let migr_mb = r.migrated_bytes as f64 / 1e6;
        t.push_row(vec![
            scenario.to_string(),
            arm.to_string(),
            fleet.to_string(),
            r.completed.to_string(),
            r.shed.to_string(),
            fnum(r.goodput_tps, 0),
            fnum(r.slo_attainment, 3),
            fnum(r.p99_latency_s, 3),
            r.migrations.to_string(),
            fnum(migr_mb, 1),
            fnum(r.gpu_seconds, 1),
        ]);
    };

    // Scenario 1: deadline-aware routing on the mixed fleet at the capacity
    // knee. The rate sits where the fleet is pressed but not buried: deep
    // saturation makes every replica infeasible for everyone and erases the
    // difference between routing policies, while at the knee placing a
    // deadline-carrying request on the one replica whose cost model still
    // meets its budget is exactly what work-normalized balancing is blind
    // to. Misses here are latency-deadline misses — batching keeps TTFT low
    // but stretches decode — so the feasibility estimate's decode term is
    // what earns the attainment gap.
    let n_deadline = 384;
    let deadline_spec = WorkloadSpec::mixed(n_deadline, SWEEP_SEED)
        .with_arrivals(ArrivalPattern::Poisson { rate_rps: 48.0 })
        .with_slos(slo_cycle());
    // One fast replica among three slow ones: the interactive tier's tight
    // TTFT is only feasible on the A100, and only a feasibility-aware
    // router knows that.
    let mixed_fleet = vec![a100.clone(), l40s.clone(), l40s.clone(), l40s.clone()];
    let mut routing_arms = vec![
        Cluster::heterogeneous(mixed_fleet.clone(), Box::new(LeastOutstanding)),
        Cluster::heterogeneous(mixed_fleet.clone(), Box::new(DeadlineAware)),
    ];
    let mut reports = serve_arms(&mut routing_arms, &deadline_spec, SchedOptions::default());
    let da = reports.pop().expect("deadline-aware arm");
    let lo = reports.pop().expect("least-outstanding arm");
    assert!(
        da.slo_attainment > lo.slo_attainment,
        "elastic_sweep: deadline-aware routing must beat least-outstanding on attainment: \
         {} vs {}",
        da.slo_attainment,
        lo.slo_attainment
    );
    push("deadline-routing", "least-outstanding", "1xA100+3xL40S", n_deadline, &lo);
    push("deadline-routing", "deadline-aware", "1xA100+3xL40S", n_deadline, &da);

    // Scenario 2: one tenant's prefix saturates its pinned home. The
    // 4096-token system prompt is what makes the copy-vs-rebuild choice
    // real: re-prefilling it on the relief replica costs a full prefill
    // pass every time the pin moves, the NVLink copy costs milliseconds.
    let n_migrate = 96;
    let migrate_spec = WorkloadSpec::shared_prefix(1, 4096, n_migrate, SWEEP_SEED)
        .with_arrivals(ArrivalPattern::Poisson { rate_rps: 48.0 })
        .with_slos(slo_cycle());
    let share_opts = SchedOptions { share_prefixes: true, ..SchedOptions::default() };
    let pair = vec![a100.clone(), a100.clone()];
    let mut migration_arms = vec![
        Cluster::heterogeneous(pair.clone(), Box::new(PrefixAffinity::default())),
        Cluster::heterogeneous(pair.clone(), Box::new(PrefixAffinity::default()))
            .with_admission(Box::new(PriorityShed { queue_budget_s: 2.0 })),
        Cluster::heterogeneous(pair.clone(), Box::new(LeastOutstanding))
            .with_migration(migration_config(false)),
        Cluster::heterogeneous(pair.clone(), Box::new(LeastOutstanding))
            .with_migration(migration_config(true)),
    ];
    let mut reports = serve_arms(&mut migration_arms, &migrate_spec, share_opts);
    let migrate = reports.pop().expect("migrate-pages arm");
    let repin = reports.pop().expect("repin arm");
    let shed = reports.pop().expect("shed arm");
    let affinity = reports.pop().expect("affinity arm");
    assert!(migrate.migrations > 0, "elastic_sweep: the saturated home never migrated");
    assert_eq!(migrate.shed, 0, "elastic_sweep: migration must absorb, not shed");
    assert!(
        migrate.goodput_tps > affinity.goodput_tps,
        "elastic_sweep: migration must out-serve a saturated pin: {} vs {}",
        migrate.goodput_tps,
        affinity.goodput_tps
    );
    assert!(
        migrate.goodput_tps > shed.goodput_tps,
        "elastic_sweep: migration must out-serve load shedding: {} vs {}",
        migrate.goodput_tps,
        shed.goodput_tps
    );
    assert!(
        migrate.goodput_tps >= repin.goodput_tps,
        "elastic_sweep: copying pages must not lose to re-prefilling: {} vs {}",
        migrate.goodput_tps,
        repin.goodput_tps
    );
    push("prefix-migration", "affinity-queue", "2xA100", n_migrate, &affinity);
    push("prefix-migration", "affinity-shed", "2xA100", n_migrate, &shed);
    push("prefix-migration", "repin-reprefill", "2xA100", n_migrate, &repin);
    push("prefix-migration", "migrate-pages", "2xA100", n_migrate, &migrate);

    // Scenario 3: the diurnal trace and the elastic fleet. The crest rate
    // overloads a lone A100 on the mixed length distribution (the
    // static-min arm visibly misses deadlines); the trough is near-idle,
    // which is what the always-on static-max arm pays for.
    let n_elastic = 480;
    let elastic_spec = WorkloadSpec::mixed(n_elastic, SWEEP_SEED)
        .with_arrivals(ArrivalPattern::Diurnal {
            trough_rps: 2.0,
            peak_rps: 48.0,
            period_s: 20.0,
        })
        .with_slos(slo_cycle());
    let mut elastic_arms = vec![
        Cluster::new(a100.clone(), 1, Box::new(LeastOutstanding)),
        Cluster::new(a100.clone(), 4, Box::new(LeastOutstanding)),
        Cluster::new(a100.clone(), 4, Box::new(LeastOutstanding)).with_autoscaler(
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
        ),
    ];
    let mut reports = serve_arms(&mut elastic_arms, &elastic_spec, SchedOptions::default());
    let elastic = reports.pop().expect("elastic arm");
    let static_max = reports.pop().expect("static-max arm");
    let static_min = reports.pop().expect("static-min arm");
    assert!(
        elastic.gpu_seconds < static_max.gpu_seconds,
        "elastic_sweep: the autoscaler must bill less than the always-on fleet: {} vs {}",
        elastic.gpu_seconds,
        static_max.gpu_seconds
    );
    assert!(
        elastic.slo_attainment > static_min.slo_attainment,
        "elastic_sweep: the autoscaler must out-serve the static minimum: {} vs {}",
        elastic.slo_attainment,
        static_min.slo_attainment
    );
    push("autoscale", "static-min", "1xA100", n_elastic, &static_min);
    push("autoscale", "static-max", "4xA100", n_elastic, &static_max);
    push("autoscale", "elastic", "1..4xA100", n_elastic, &elastic);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_grid_with_sane_numbers() {
        // One sweep computation, every assertion — the grid is the most
        // expensive table in the workspace.
        let t = sched_sweep();
        assert_eq!(t.rows.len(), workloads().len() * policies().len());
        for row in &t.rows {
            let tput: f64 = row[3].parse().unwrap();
            assert!(tput > 0.0, "row {:?}", row);
            let ttft: f64 = row[4].parse().unwrap();
            let p50: f64 = row[5].parse().unwrap();
            let p99: f64 = row[7].parse().unwrap();
            assert!(ttft > 0.0 && ttft <= p99, "row {:?}", row);
            assert!(p50 <= p99, "row {:?}", row);
        }
        // On the homogeneous paper protocol every admission order serves
        // identical waves, so throughput must not depend on the policy.
        let tputs: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[0] == "paper-1024/512" && r[1] != "memory-aware")
            .map(|r| r[3].parse().unwrap())
            .collect();
        assert_eq!(tputs.len(), 2);
        assert!(
            (tputs[0] - tputs[1]).abs() < 1e-9,
            "policy changed the homogeneous protocol: {:?}",
            tputs
        );
    }

    #[test]
    fn cluster_sweep_grid_and_routing_story() {
        // One computation of both grids, every load-bearing assertion.
        let t = cluster_sweep();
        assert_eq!(t.rows.len(), 3 * routings().len() * 3);
        let cell = |r: &Vec<String>, i: usize| r[i].clone();
        for row in &t.rows {
            let tput: f64 = row[3].parse().unwrap();
            assert!(tput > 0.0, "row {:?}", row);
        }
        // With one replica, routing cannot matter: the three 1-replica rows
        // of each prefix ratio must be cell-identical (minus the name), and
        // equal to prefix_sweep's unchunked single-engine rows — the same
        // numbers the golden snapshot pins.
        let single = prefix_sweep();
        for prefix in ["0", "2048", "3584"] {
            let cluster_rows: Vec<&Vec<String>> = t
                .rows
                .iter()
                .filter(|r| r[0] == "1" && r[2] == prefix)
                .collect();
            assert_eq!(cluster_rows.len(), routings().len());
            for r in &cluster_rows {
                assert_eq!(r[3..], cluster_rows[0][3..], "routing changed a 1-replica run");
            }
            let golden = single
                .rows
                .iter()
                .find(|r| r[0] == prefix && r[1] == "—")
                .expect("prefix_sweep has the unchunked row");
            // cluster columns [tput, ttft, p50, p99, preempt, peak] vs
            // prefix_sweep [tput, ttft, p50, p99, preempt, peak].
            for (c, g) in [(3, 2), (4, 3), (5, 4), (6, 5), (7, 6), (8, 7)] {
                assert_eq!(
                    cell(cluster_rows[0], c),
                    golden[g],
                    "1-replica cluster drifted from the single engine at prefix {}",
                    prefix
                );
            }
        }
        // The routing story at the highest share ratio, 4 replicas:
        // prefix-affinity must beat round-robin on both the per-replica
        // unique-page high-water and the mean TTFT.
        let pick = |routing: &str| -> Vec<String> {
            t.rows
                .iter()
                .find(|r| r[0] == "4" && r[1] == routing && r[2] == "3584")
                .expect("grid row")
                .clone()
        };
        let rr = pick("round-robin");
        let pa = pick("prefix-affinity");
        let peak = |r: &Vec<String>| -> usize { r[8].parse().unwrap() };
        let ttft = |r: &Vec<String>| -> f64 { r[4].parse().unwrap() };
        assert!(
            peak(&pa) < peak(&rr),
            "affinity must dedupe per-replica pages: {} vs {}",
            peak(&pa),
            peak(&rr)
        );
        assert!(
            ttft(&pa) < ttft(&rr),
            "affinity must cut TTFT at high sharing: {} vs {}",
            ttft(&pa),
            ttft(&rr)
        );
        // And scaling out must raise aggregate throughput at every ratio.
        for prefix in ["0", "3584"] {
            let one: f64 = t
                .rows
                .iter()
                .find(|r| r[0] == "1" && r[1] == "least-outstanding" && r[2] == prefix)
                .unwrap()[3]
                .parse()
                .unwrap();
            let four: f64 = t
                .rows
                .iter()
                .find(|r| r[0] == "4" && r[1] == "least-outstanding" && r[2] == prefix)
                .unwrap()[3]
                .parse()
                .unwrap();
            assert!(
                four > one,
                "4 replicas must outserve 1 at prefix {}: {} vs {}",
                prefix,
                four,
                one
            );
        }
    }

    #[test]
    fn hetero_sweep_routing_and_admission_stories() {
        // One computation of the grid, every load-bearing assertion — this
        // is the sweep's acceptance contract.
        let t = hetero_sweep();
        assert_eq!(t.rows.len(), hetero_fleets().len() * hetero_routings().len() * admissions().len());
        let goodput = |r: &Vec<String>| -> f64 { r[3].parse().unwrap() };
        let tput = |r: &Vec<String>| -> f64 { r[4].parse().unwrap() };
        let att = |r: &Vec<String>| -> f64 { r[5].parse().unwrap() };
        let shed = |r: &Vec<String>| -> usize { r[6].parse().unwrap() };
        let pick = |fleet: &str, routing: &str, admission: &str| -> Vec<String> {
            t.rows
                .iter()
                .find(|r| r[0] == fleet && r[1] == routing && r[2] == admission)
                .expect("grid row")
                .clone()
        };
        for row in &t.rows {
            // Goodput can never exceed raw throughput; attainment is a
            // fraction; admit-all sheds nothing.
            assert!(goodput(row) <= tput(row) + 1e-9, "row {:?}", row);
            assert!((0.0..=1.0).contains(&att(row)), "row {:?}", row);
            if row[2] == "admit-all" {
                assert_eq!(shed(row), 0, "admit-all must not shed: {:?}", row);
                assert_eq!(row[7], "0/0/0");
            }
            if row[2] == "priority-shed" {
                let tiers: Vec<usize> =
                    row[7].split('/').map(|c| c.parse().unwrap()).collect();
                assert_eq!(tiers[0], 0, "priority shedding never touches interactive");
                assert!(tiers[2] > 0, "overload must shed batch traffic: {:?}", row);
            }
        }
        // Story 1: on the mixed fleet, work-normalized routing beats
        // round-robin on goodput — it stops treating an L40S like an A100.
        let rr = pick("2xA100+2xL40S", "round-robin", "admit-all");
        let lo = pick("2xA100+2xL40S", "least-outstanding", "admit-all");
        assert!(
            goodput(&lo) > goodput(&rr),
            "work-normalized routing must lift mixed-fleet goodput: {} vs {}",
            goodput(&lo),
            goodput(&rr)
        );
        // ...and it actually balances: round-robin leaves the fast replicas
        // much idler than the pegged L40S replicas.
        let util_min = |r: &Vec<String>| -> f64 { r[9].parse().unwrap() };
        assert!(
            util_min(&lo) > util_min(&rr),
            "work-normalized routing must raise the idlest replica's utilization: {} vs {}",
            util_min(&lo),
            util_min(&rr)
        );
        // Story 2: deadline admission raises SLO attainment *and* goodput
        // over admit-all under overload, on both fleets.
        for fleet in ["4xA100", "2xA100+2xL40S"] {
            let all = pick(fleet, "least-outstanding", "admit-all");
            let gated = pick(fleet, "least-outstanding", "deadline");
            assert!(shed(&gated) > 0, "overload must force deadline shedding on {}", fleet);
            assert!(
                att(&gated) > att(&all),
                "{}: deadline admission must lift attainment: {} vs {}",
                fleet,
                att(&gated),
                att(&all)
            );
            assert!(
                goodput(&gated) > goodput(&all),
                "{}: deadline admission must lift goodput: {} vs {}",
                fleet,
                goodput(&gated),
                goodput(&all)
            );
        }
    }

    #[test]
    fn prefix_sweep_shows_sharing_and_chunking_effects() {
        // One grid computation, the load-bearing orderings: more sharing
        // (at an unchunked baseline) must lower the unique-page high-water
        // and the mean TTFT — the capacity and latency story of the sweep.
        let t = prefix_sweep();
        assert_eq!(t.rows.len(), 9);
        let unchunked: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[1] == "—").collect();
        assert_eq!(unchunked.len(), 3);
        let peak = |r: &Vec<String>| -> usize { r[7].parse().unwrap() };
        let ttft = |r: &Vec<String>| -> f64 { r[3].parse().unwrap() };
        assert!(
            peak(unchunked[0]) > peak(unchunked[1]) && peak(unchunked[1]) > peak(unchunked[2]),
            "unique-page high-water must fall with the share ratio: {} {} {}",
            peak(unchunked[0]),
            peak(unchunked[1]),
            peak(unchunked[2])
        );
        assert!(
            ttft(unchunked[0]) > ttft(unchunked[2]),
            "sharing most of the prompt must cut mean TTFT: {} vs {}",
            ttft(unchunked[0]),
            ttft(unchunked[2])
        );
        for row in &t.rows {
            let tput: f64 = row[2].parse().unwrap();
            assert!(tput > 0.0, "row {:?}", row);
        }
    }
}
