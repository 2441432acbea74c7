//! The four workloads: what each one sets up, what its timed body calls,
//! and how its outputs are summarised and checked.
//!
//! Every workload is an **open loop** where it has arrivals at all: the
//! trace is a seeded arrival schedule (`WorkloadSpec`) that the simulated
//! fleet cannot slow down, so a slow design grows a queue instead of
//! receiving less load. `func_serve` is an offline batch (all requests at
//! t = 0). The program under test receives only the generated
//! `WorkloadSpec`; the seed never reaches it any other way.
//!
//! Sizes are smaller than the issue's (see [`SIM_REQUESTS`]) so that one
//! timed body takes about a second on the reference host and a
//! `--seconds 10` run holds several bodies; `func_serve` shrinks its
//! request count and lengths instead. `--quick` divides the simulator
//! counts by a further 100 for the crate's tests.

use crate::surface::*;
use crate::trace::Tracer;

/// Requests in every simulator cell: 2^16, the largest trace whose latency
/// percentiles still take the report's exact path (`EXACT_STATS_MAX`).
/// The issue sized `mega_chat` at 10^6 and the other cells at 4·10^5
/// requests, which the contract's time cap (92 runs, builds included, in
/// 3420 s) cannot hold; above 2^16 the report's p99 also becomes a sketch
/// bucket edge — a value that can read the same on every seed, which the
/// contract forbids for a time. The streaming sketches still run on every
/// request (they are always filled), and have probes of their own.
const SIM_REQUESTS: usize = 1 << 16;

/// Offered load of `mega_chat`, requests per simulated second: about 1.35×
/// what 4×A100 serve on this length mix (≈ 595 rps). `mega_sweep` runs at
/// 640 rps, which a million requests average out; over 2^16 requests that
/// operating point is critical — preemptions range from 0 to 4,000 and mean
/// TTFT by 3× across seeds — so the backlog is made to grow for certain.
const MEGA_RATE_RPS: f64 = 800.0;
/// Offered load of `longctx_pressure`: about 1.35× the fleet's knee
/// (≈ 7.4 rps). At the knee itself mean TTFT ranges 6× across seeds; below
/// it nothing is ever swapped out.
const LONGCTX_RATE_RPS: f64 = 10.0;
/// Offered load of the `faulty_hetero` cell.
const CHURN_RATE_RPS: f64 = 16.0;
/// Simulated seconds between lifecycle events in the `faulty_hetero` plan.
const FAULT_PERIOD_S: f64 = 120.0;
/// Simulated seconds a crashed or drained replica stays away.
const FAULT_DOWNTIME_S: f64 = 10.0;

/// Which workload a run executes. Order matches [`crate::metrics::WORKLOADS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `mega_sweep` trace: short requests, per-request work dominates.
    MegaChat,
    /// Long prompts under KV pressure: per-tick work dominates.
    LongctxPressure,
    /// Fault lane + control plane + autoscaler, two cells back to back.
    ControlChurn,
    /// The functional W4A8KV4 stack; every simulator layer idle.
    FuncServe,
}

impl Workload {
    /// All four, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::MegaChat,
        Workload::LongctxPressure,
        Workload::ControlChurn,
        Workload::FuncServe,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        crate::metrics::WORKLOADS[self.index()].0
    }

    /// Position in [`Workload::ALL`] (the span ledger's workload id).
    pub fn index(self) -> usize {
        match self {
            Workload::MegaChat => 0,
            Workload::LongctxPressure => 1,
            Workload::ControlChurn => 2,
            Workload::FuncServe => 3,
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One cluster serve inside a simulator workload.
pub struct SimCell {
    cluster: Cluster,
    spec: WorkloadSpec,
    opts: SchedOptions,
    plan: FaultPlan,
    /// Requests in the sampled trace.
    pub sent: usize,
}

/// The deployed functional stack plus its analytic twin.
pub struct FuncState {
    /// The FP16 reference model the deployment was quantized from.
    pub model: SyntheticModel,
    runtime: ModelRuntime,
    spec: WorkloadSpec,
    twin: ServingEngine,
}

/// What set-up leaves for the timed body.
pub enum Prepared {
    /// Simulator workloads: one or two cluster cells.
    Sim(Vec<SimCell>),
    /// `func_serve`.
    Func(Box<FuncState>),
}

/// What one timed body returns. Bodies of one run must all be equal.
#[derive(Debug, Clone, PartialEq)]
pub enum BodyOut {
    /// One report per cell.
    Sim(Vec<ClusterReport>),
    /// The served requests, by id.
    Func(Vec<ServedRequest>),
}

/// One A100 replica as every fleet here deploys it: Llama-2-7B, QServe
/// per-channel W4A8KV4.
pub fn a100() -> ServingEngine {
    ServingEngine::new(
        GpuSpec::a100(),
        ModelConfig::llama2_7b(),
        SystemConfig::QServePerChannel,
    )
    .expect("A100 serves Llama-2-7B")
}

fn l40s() -> ServingEngine {
    ServingEngine::new(
        GpuSpec::l40s(),
        ModelConfig::llama2_7b(),
        SystemConfig::QServePerGroup,
    )
    .expect("L40S serves Llama-2-7B")
}

/// The interactive / standard / best-effort tier cycle of the sweeps.
fn slo_cycle() -> SloSpec {
    SloSpec::Cycle(vec![
        Slo::interactive(2.0, 8.0),
        Slo::standard(6.0, 20.0),
        Slo::best_effort(),
    ])
}

fn scaled(n: usize, quick: bool) -> usize {
    if quick {
        (n / 100).max(64)
    } else {
        n
    }
}

/// Every `FAULT_PERIOD_S` the next replica (round-robin) alternately
/// crashes or drains and comes back `FAULT_DOWNTIME_S` later, for as long
/// as the trace offers arrivals.
fn periodic_plan(replicas: usize, horizon_s: f64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    let mut k = 0usize;
    loop {
        let at = FAULT_PERIOD_S * (k + 1) as f64;
        if at + FAULT_DOWNTIME_S >= horizon_s {
            return plan;
        }
        let replica = k % replicas;
        plan = if k.is_multiple_of(2) {
            plan.crash_at(replica, at)
        } else {
            plan.drain_at(replica, at)
        };
        plan = plan.restart_at(replica, at + FAULT_DOWNTIME_S);
        k += 1;
    }
}

/// Architecture of the model `func_serve` deploys: Llama-2-7B's head
/// structure at hidden 128, two layers.
pub fn func_model_config() -> ModelConfig {
    SyntheticModel::reduced_config(&ModelConfig::llama2_7b(), 128, 2)
}

/// The FP16 model `func_serve` deploys (fixed weights: the seed varies the
/// requests, not the model).
pub fn func_model() -> SyntheticModel {
    SyntheticModel::generate(func_model_config(), SynthesisOptions::default())
}

/// The QoQ recipe `func_serve` deploys with (g32 so the reduced hidden
/// size still has several groups per row).
pub fn func_qoq() -> QoqConfig {
    QoqConfig {
        weight_granularity: WeightGranularity::PerGroup(32),
        ..QoqConfig::w4a8kv4_g128()
    }
}

/// KV pages of the functional deployment.
pub const FUNC_PAGES: usize = 8192;
/// Calibration tokens of the functional deployment.
pub const FUNC_CALIB_TOKENS: usize = 64;
/// Batch limit of the functional serve.
const FUNC_BATCH: usize = 8;

/// Synthesises, calibrates, quantizes and deploys the functional model.
pub fn deploy_func(model: &SyntheticModel) -> ModelRuntime {
    let calib = TensorRng::seed(1).token_sequence(FUNC_CALIB_TOKENS, model.config.vocab);
    ModelRuntime::deploy(model, &func_qoq(), &calib, FUNC_PAGES)
}

/// Six requests behind one shared 32-token system prompt, batch arrivals.
/// The private suffix is drawn from a narrow range and the output length
/// is fixed, on purpose: with six requests a wide range makes the token
/// total — and with it `wall_s` and the twin's throughput — swing ±20%
/// with the seed, which would drown any kernel change.
fn func_spec(seed: u64, quick: bool) -> WorkloadSpec {
    let (n, suffix, output, prefix_len) = if quick {
        (3, (6, 8), 4, 20)
    } else {
        (6, (26, 30), 16, 32)
    };
    WorkloadSpec {
        num_requests: n,
        input: LengthDist::Uniform {
            lo: suffix.0,
            hi: suffix.1,
        },
        output: LengthDist::Fixed(output),
        arrival: ArrivalPattern::Batch,
        sharing: PrefixSharing::Groups {
            groups: 1,
            prefix_len,
        },
        slo: SloSpec::None,
        seed,
    }
}

fn longctx_spec(n: usize, rate_rps: f64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        num_requests: n,
        input: LengthDist::Uniform { lo: 4800, hi: 6400 },
        output: LengthDist::Uniform { lo: 256, hi: 512 },
        arrival: ArrivalPattern::Poisson { rate_rps },
        sharing: PrefixSharing::None,
        slo: slo_cycle(),
        seed,
    }
}

const LONGCTX_OPTS: SchedOptions = SchedOptions {
    share_prefixes: false,
    chunk_tokens: Some(1024),
    preemption: PreemptionMode::Swap,
};

fn churn_spec(n: usize, rate_rps: f64, seed: u64) -> WorkloadSpec {
    WorkloadSpec::mixed(n, seed)
        .with_sharing(PrefixSharing::Groups {
            groups: 8,
            prefix_len: 1024,
        })
        .with_arrivals(ArrivalPattern::Poisson { rate_rps })
        .with_slos(slo_cycle())
}

const CHURN_OPTS: SchedOptions = SchedOptions {
    share_prefixes: true,
    chunk_tokens: Some(512),
    preemption: PreemptionMode::Swap,
};

const FUNC_OPTS: SchedOptions = SchedOptions {
    share_prefixes: true,
    chunk_tokens: Some(32),
    preemption: PreemptionMode::Recompute,
};

/// The analytic engine's configuration that mirrors the functional serve:
/// same batch limit, peak-reserving page ledger, same options.
const FUNC_TWIN_CFG: ServeConfig = ServeConfig {
    batch: BatchLimit::Fixed(FUNC_BATCH),
    memory: KvModel::Paged(Reservation::Peak),
    opts: FUNC_OPTS,
};

/// One replica's share of a workload's trace, for a bare
/// [`ServingEngine::serve`]: a quarter of the requests at a quarter of the
/// rate, with the workload's own lengths, sharing, SLOs and scheduler
/// options (`control_churn`: its `faulty_hetero` cell; `func_serve`: its
/// analytic twin). The traced pass prices "the tick" with it.
pub fn replica_share(
    w: Workload,
    seed: u64,
    quick: bool,
) -> (ServingEngine, WorkloadSpec, ServeConfig) {
    let n = scaled(SIM_REQUESTS, quick) / 4;
    let paged = |opts| ServeConfig::paged(Reservation::OnDemand).with_opts(opts);
    match w {
        Workload::MegaChat => (
            a100(),
            WorkloadSpec::production(n, MEGA_RATE_RPS / 4.0, seed),
            paged(SchedOptions::default()),
        ),
        Workload::LongctxPressure => (
            a100(),
            longctx_spec(n, LONGCTX_RATE_RPS / 4.0, seed),
            paged(LONGCTX_OPTS),
        ),
        Workload::ControlChurn => (
            a100(),
            churn_spec(n, CHURN_RATE_RPS / 4.0, seed),
            paged(CHURN_OPTS),
        ),
        Workload::FuncServe => (func_twin(), func_spec(seed, quick), FUNC_TWIN_CFG),
    }
}

fn func_twin() -> ServingEngine {
    ServingEngine::new(
        GpuSpec::a100(),
        func_model_config(),
        SystemConfig::QServePerGroup,
    )
    .expect("the reduced model fits an A100")
}

/// Builds everything the timed body needs. This is what `setup_s` times.
pub fn setup(w: Workload, seed: u64, quick: bool) -> Prepared {
    let count = |spec: &WorkloadSpec| spec.sample().len();
    match w {
        Workload::MegaChat => {
            let spec = WorkloadSpec::production(scaled(SIM_REQUESTS, quick), MEGA_RATE_RPS, seed);
            Prepared::Sim(vec![SimCell {
                cluster: Cluster::new(a100(), 4, Box::new(LeastOutstanding)).with_threads(1),
                sent: count(&spec),
                spec,
                opts: SchedOptions::default(),
                plan: FaultPlan::none(),
            }])
        }
        Workload::LongctxPressure => {
            let spec = longctx_spec(scaled(SIM_REQUESTS, quick), LONGCTX_RATE_RPS, seed);
            Prepared::Sim(vec![SimCell {
                cluster: Cluster::new(a100(), 4, Box::new(LeastOutstanding)).with_threads(1),
                sent: count(&spec),
                spec,
                opts: LONGCTX_OPTS,
                plan: FaultPlan::none(),
            }])
        }
        Workload::ControlChurn => {
            let n = scaled(SIM_REQUESTS, quick);
            let faulty_spec = churn_spec(n, CHURN_RATE_RPS, seed);
            let horizon_s = n as f64 / CHURN_RATE_RPS;
            let faulty = SimCell {
                cluster: Cluster::heterogeneous(
                    vec![a100(), a100(), l40s(), l40s()],
                    Box::new(DeadlineAware),
                )
                .with_admission(Box::new(DeadlineFeasible))
                .with_migration(MigrationConfig {
                    saturation_queue_s: 0.5,
                    relief_ratio: 0.5,
                    migrate_pages: true,
                    link: HostLink::nvlink_p2p(),
                })
                .with_threads(1),
                sent: count(&faulty_spec),
                spec: faulty_spec,
                opts: CHURN_OPTS,
                plan: periodic_plan(4, horizon_s),
            };
            let elastic_spec = WorkloadSpec::mixed(n, seed)
                .with_arrivals(ArrivalPattern::Diurnal {
                    trough_rps: 2.0,
                    peak_rps: 48.0,
                    period_s: 20.0,
                })
                .with_slos(slo_cycle());
            let elastic = SimCell {
                cluster: Cluster::new(a100(), 4, Box::new(LeastOutstanding))
                    .with_autoscaler(AutoscaleConfig {
                        policy: Box::new(QueuePressureScaler {
                            min_replicas: 1,
                            max_replicas: 4,
                            scale_up_queue_s: 1.0,
                            scale_down_queue_s: 0.25,
                        }),
                        interval_s: 1.0,
                        initial_online: 1,
                    })
                    .with_threads(1),
                sent: count(&elastic_spec),
                spec: elastic_spec,
                opts: SchedOptions::default(),
                plan: FaultPlan::none(),
            };
            Prepared::Sim(vec![faulty, elastic])
        }
        Workload::FuncServe => {
            let model = func_model();
            let runtime = deploy_func(&model);
            Prepared::Func(Box::new(FuncState {
                model,
                runtime,
                spec: func_spec(seed, quick),
                twin: func_twin(),
            }))
        }
    }
}

/// The timed body: exactly the calls into the program, each under a span.
pub fn body(p: &mut Prepared, t: &mut Tracer) -> BodyOut {
    match p {
        Prepared::Sim(cells) => BodyOut::Sim(
            cells
                .iter_mut()
                .map(|c| {
                    let policy =
                        || -> Box<dyn SchedulingPolicy> { Box::new(MemoryAware::default()) };
                    if c.plan.is_empty() {
                        t.span("cluster.serve_paged", |_| {
                            c.cluster
                                .serve_paged(&c.spec, policy, Reservation::OnDemand, c.opts)
                        })
                    } else {
                        t.span("cluster.serve_paged_faulty", |_| {
                            c.cluster.serve_paged_faulty(
                                &c.spec,
                                policy,
                                Reservation::OnDemand,
                                c.opts,
                                &c.plan,
                            )
                        })
                    }
                    .expect("every workload is sized to be servable")
                })
                .collect(),
        ),
        Prepared::Func(f) => BodyOut::Func(t.span("model_exec.serve_with", |_| {
            f.runtime
                .serve_with(&f.spec, FUNC_BATCH, Box::new(Fcfs), FUNC_OPTS)
                .expect("the page ledger is peak-reserving")
        })),
    }
}

/// Everything the end-to-end metrics, the failure counts and the ledger
/// read from one body.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Requests in the trace(s).
    pub sent: usize,
    /// Requests that finished.
    pub succeeded: usize,
    /// Requests refused at admission (shed).
    pub refused: usize,
    /// Requests neither finished nor shed.
    pub failed: usize,
    /// Requests that finished within their SLO (no SLO = finished).
    pub met: f64,
    /// Output tokens generated (simulated, or real on `func_serve`).
    pub generated_tokens: usize,
    /// Sum of the cells' simulated makespans.
    pub makespan_s: f64,
    /// Largest p99 latency over the cells, simulated seconds.
    pub p99_latency_s: f64,
    /// Completed-weighted mean TTFT, simulated seconds.
    pub mean_ttft_s: f64,
    /// Provisioned GPU-seconds summed over the cells.
    pub gpu_seconds: f64,
    /// Ledger counts.
    pub preemptions: usize,
    /// Swap-out events.
    pub swap_outs: usize,
    /// Pages moved device → host.
    pub swap_pages: usize,
    /// Prefix-group migrations.
    pub migrations: usize,
    /// Crash requeues.
    pub requeued: usize,
    /// Replica restarts.
    pub restarts: usize,
    /// Lifecycle events in the fault plan(s).
    pub plan_events: usize,
    /// Scheduler steps of the functional serve (0 on simulator workloads).
    pub func_steps: usize,
    /// Tokens stepped through the functional model (0 on simulator workloads).
    pub func_tokens: usize,
    /// FNV-1a hash of every report, finished and shed ids included.
    pub digest: u64,
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds a body's reports into a [`Summary`].
pub fn summarise(p: &Prepared, out: &BodyOut) -> Summary {
    let mut s = Summary {
        digest: FNV_OFFSET,
        ..Summary::default()
    };
    match (p, out) {
        (Prepared::Sim(cells), BodyOut::Sim(reports)) => {
            let mut ttft_weighted = 0.0;
            for (c, r) in cells.iter().zip(reports) {
                s.sent += c.sent;
                s.succeeded += r.completed;
                s.refused += r.shed;
                s.met += r.slo_attainment * r.completed as f64;
                s.generated_tokens += r.generated_tokens;
                s.makespan_s += r.makespan_s;
                s.p99_latency_s = s.p99_latency_s.max(r.p99_latency_s);
                ttft_weighted += r.mean_ttft_s * r.completed as f64;
                s.gpu_seconds += r.gpu_seconds;
                s.preemptions += r.preemptions;
                s.swap_outs += r.swap_outs;
                s.swap_pages += r.swap_out_pages;
                s.migrations += r.migrations;
                s.requeued += r.requeued;
                s.restarts += r.per_replica.iter().map(|x| x.restarts).sum::<usize>();
                s.plan_events += c.plan.faults().len();
                s.digest = fnv1a(s.digest, format!("{r:?}").as_bytes());
            }
            if s.succeeded > 0 {
                s.mean_ttft_s = ttft_weighted / s.succeeded as f64;
            }
            s.failed = s.sent.saturating_sub(s.succeeded + s.refused);
        }
        (Prepared::Func(f), BodyOut::Func(served)) => {
            s.sent = f.spec.num_requests;
            s.succeeded = served.len();
            s.generated_tokens = served.iter().map(|r| r.output.len()).sum();
            s.func_steps = served.iter().map(|r| r.finish_step).max().unwrap_or(0);
            s.func_tokens = served.iter().map(|r| r.prompt.len() + r.output.len()).sum();
            s.digest = fnv1a(s.digest, format!("{served:?}").as_bytes());
            // The analytic twin: the cost model's verdict on the same spec,
            // policy, batch limit and options, on one simulated A100. It
            // gives `func_serve` its simulated-time metrics; only a
            // scheduler or cost-model change can move them.
            let twin = f
                .twin
                .serve(&f.spec, Box::new(Fcfs), FUNC_TWIN_CFG)
                .expect("the reduced model's requests fit one A100's page pool");
            s.met = twin.completed as f64;
            s.makespan_s = twin.total_time_s;
            s.p99_latency_s = twin.p99_latency_s;
            s.mean_ttft_s = twin.mean_ttft_s;
            s.gpu_seconds = twin.total_time_s;
            s.digest = fnv1a(s.digest, format!("{twin:?}").as_bytes());
            s.failed = s.sent.saturating_sub(s.succeeded);
        }
        _ => unreachable!("a body returns its own workload's output"),
    }
    s
}

/// Output checks beyond conservation: the solo greedy oracle and the FP16
/// agreement of `func_serve`. Returns `(greedy mismatches, greedy match
/// fraction, FP16 top-1 agreement)`; simulator workloads return `None`.
pub fn func_quality(p: &Prepared, out: &BodyOut) -> Option<(usize, f64, f64)> {
    let (Prepared::Func(f), BodyOut::Func(served)) = (p, out) else {
        return None;
    };
    // Solo oracle: each prompt alone, on a fresh deployment that never saw
    // batching, forking or chunking, must emit the same tokens.
    let mut solo = deploy_func(&f.model);
    let mut mismatches = 0usize;
    let mut agree = 0usize;
    let mut positions = 0usize;
    for r in served {
        let seq = solo.start_sequence().expect("solo cache has room");
        let expect = solo
            .generate_greedy(seq, &r.prompt, r.output.len())
            .expect("solo cache has room");
        solo.finish_sequence(seq).expect("sequence is live");
        if expect != r.output {
            mismatches += 1;
        }
        // FP16 reference along the served trajectory: does the deployed
        // W4A8KV4 model pick the token FP16 would have picked next?
        let mut trajectory = r.prompt.clone();
        trajectory.extend(&r.output);
        let reference = forward_logits(&f.model, &trajectory);
        for (k, &chosen) in r.output.iter().enumerate() {
            let row = reference.row(r.prompt.len() - 1 + k);
            positions += 1;
            if argmax(row) == chosen {
                agree += 1;
            }
        }
    }
    let frac = |a: usize, b: usize| if b == 0 { 1.0 } else { a as f64 / b as f64 };
    Some((
        mismatches,
        frac(served.len() - mismatches, served.len()),
        frac(agree, positions),
    ))
}

/// Index of the largest logit; among equal maxima the last wins, as in
/// the runtime's own greedy sampler (`Iterator::max_by`).
fn argmax(v: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, x) in v.iter().enumerate() {
        if x.total_cmp(&v[best]).is_ge() {
            best = i;
        }
    }
    u32::try_from(best).expect("vocabulary fits u32")
}

/// Start-up asserts: each workload must still have the shape it was chosen
/// for, or it has silently stopped exercising its layer. Returns one line
/// per violated expectation.
pub fn shape_violations(w: Workload, out: &BodyOut, s: &Summary, quick: bool) -> Vec<String> {
    let mut bad = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            bad.push(what);
        }
    };
    expect(
        s.failed == 0,
        format!("{} requests neither finished nor shed", s.failed),
    );
    if quick {
        // Quick traces are too short to build pressure; only conservation
        // is checked.
        return bad;
    }
    match (w, out) {
        (Workload::MegaChat, _) => {
            expect(s.preemptions > 0, "mega_chat: no preemptions".into());
            expect(
                s.refused == 0,
                format!("mega_chat: {} shed under admit-all", s.refused),
            );
        }
        (Workload::LongctxPressure, BodyOut::Sim(r)) => {
            expect(s.swap_outs > 0, "longctx_pressure: no swap-outs".into());
            let a = r[0].slo_attainment;
            expect(
                a > 0.3 && a < 0.99,
                format!("longctx_pressure: attainment {a} outside (0.3, 0.99)"),
            );
        }
        (Workload::ControlChurn, BodyOut::Sim(r)) => {
            expect(s.requeued > 0, "control_churn: nothing requeued".into());
            expect(s.migrations > 0, "control_churn: no migrations".into());
            expect(s.restarts > 0, "control_churn: no restarts".into());
            let shed_share = s.refused as f64 / s.sent as f64;
            expect(
                shed_share < 0.10,
                format!("control_churn: shed share {shed_share} ≥ 0.10"),
            );
            let elastic = &r[1];
            let static_bill = elastic.replicas as f64 * elastic.makespan_s;
            expect(
                elastic.gpu_seconds < static_bill,
                format!(
                    "elastic_diurnal: {} GPU-s is not below the static bill {static_bill}",
                    elastic.gpu_seconds
                ),
            );
        }
        (Workload::FuncServe, _) => {
            expect(s.func_tokens > 0, "func_serve: no tokens stepped".into());
        }
        _ => unreachable!("a body returns its own workload's output"),
    }
    bad
}

/// Kernel work of one body, computed from tensor shapes (not measured).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelWork {
    /// Multiply-accumulates of the W4A8 GEMMs.
    pub gemm_macs: f64,
    /// KV tokens the decode-attention kernel reads, summed over steps,
    /// layers and KV heads.
    pub kv_tokens_read: f64,
    /// Bytes of quantized KV (codes plus per-head scale/zero) behind those
    /// reads.
    pub kv_bytes: f64,
}

/// What the kernels of `func_serve` are asked to do, from the served
/// lengths and the model's shapes, for the *unshared* schedule: every
/// request steps all of its prompt and all but its last output token.
/// Forked prefixes skip part of that, so these are upper bounds; they move
/// only when the workload or the model shape does. Simulator workloads run
/// no kernels and read 0.
pub fn kernel_work(w: Workload, out: &BodyOut) -> KernelWork {
    let (Workload::FuncServe, BodyOut::Func(served)) = (w, out) else {
        return KernelWork::default();
    };
    let cfg = func_model_config();
    let (h, ffn, kvw) = (cfg.hidden, cfg.ffn, cfg.kv_heads * cfg.head_dim());
    // q, o: h×h; k, v: kvw×h; gate, up: ffn×h; down: h×ffn.
    let macs_per_token_layer = 2 * h * h + 2 * kvw * h + 3 * ffn * h;
    let slot_bytes = KvCacheConfig {
        page_tokens: 16,
        kv_heads: cfg.kv_heads,
        head_dim: cfg.head_dim(),
        layers: cfg.layers,
        precision: func_qoq().kv_precision,
    }
    .token_slot_bytes();
    let mut work = KernelWork::default();
    for r in served {
        let steps = r.prompt.len() + r.output.len() - 1;
        // The step at position p attends over p + 1 cached tokens.
        let attended = steps * (steps + 1) / 2;
        work.gemm_macs += (steps * cfg.layers * macs_per_token_layer) as f64;
        work.kv_tokens_read += (attended * cfg.layers * cfg.kv_heads) as f64;
        work.kv_bytes += (attended * cfg.layers * slot_bytes) as f64;
    }
    work
}
