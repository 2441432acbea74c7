//! The per-layer probes of the traced pass: small fixed calls into one
//! layer's public functions, with shapes taken from the workloads.
//!
//! Every probe runs in every traced pass, whichever workload was asked
//! for, so each timing is freshly measured on each run and the four
//! workloads' ledgers share one probe baseline. Timings are host time on
//! this CPU; MACs and bytes are computed from tensor shapes; nothing here
//! is an accelerator measurement.
//!
//! Each probe is one span in the ledger, named after its layer. Spans are
//! per probe, not per call: a span around each of a million `place` calls
//! would cost more than the call.

use crate::clock::{self, ns_once, ns_per_call};
use crate::surface::*;
use crate::trace::Tracer;
use crate::workloads::{self, a100, Workload};

/// Ids pinned under `tests/golden/`, with their CSV files (first table is
/// `<id>.csv`, later ones `<id>_<i>.csv`) — the list
/// `crates/bench/tests/golden_snapshots.rs` pins.
const GOLDEN_IDS: [(&str, usize); 10] = [
    ("table1", 1),
    ("table4", 2),
    ("table6", 1),
    ("fig1", 1),
    ("fig17", 2),
    ("sched_sweep", 1),
    ("prefix_sweep", 1),
    ("cluster_sweep", 1),
    ("failure_sweep", 1),
    ("elastic_sweep", 1),
];

/// Collects `(metric name, value)` pairs as the probes run.
pub struct Probes<'a> {
    /// Host seconds each repeated probe may measure for.
    budget_s: f64,
    seed: u64,
    quick: bool,
    workload: Workload,
    /// `(greedy match, FP16 agreement)` when the asked-for workload has
    /// already checked its own full-size serve (`func_serve`).
    quality: Option<(f64, f64)>,
    tracer: &'a mut Tracer,
    out: Vec<(&'static str, f64)>,
}

impl<'a> Probes<'a> {
    /// A probe run with `budget_s` host seconds per repeated probe.
    pub fn new(
        budget_s: f64,
        seed: u64,
        quick: bool,
        workload: Workload,
        quality: Option<(f64, f64)>,
        tracer: &'a mut Tracer,
    ) -> Self {
        Self {
            budget_s,
            seed,
            quick,
            workload,
            quality,
            tracer,
            out: Vec::new(),
        }
    }

    fn rec(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }

    /// Times `f` repeatedly under a span named `layer`; ns per call.
    fn timed(&mut self, layer: &'static str, f: impl FnMut()) -> f64 {
        let budget = self.budget_s;
        self.tracer.span(layer, |_| ns_per_call(budget, f))
    }

    /// Times `f` a few times under a span named `layer`; fastest ns.
    fn once(&mut self, layer: &'static str, repeats: usize, f: impl FnMut()) -> f64 {
        let repeats = if self.quick { 1 } else { repeats };
        self.tracer.span(layer, |_| ns_once(repeats, f))
    }

    /// Runs every probe and returns the collected metrics.
    pub fn run(mut self) -> Vec<(&'static str, f64)> {
        self.engine();
        self.gpusim();
        self.events_sketches_requests();
        self.control();
        self.cluster();
        self.kernels();
        self.kv_cache_and_executors();
        self.deployment();
        self.pool_and_sweeps();
        self.out
    }

    // -- engine: scheduler + cost model ------------------------------------

    fn engine(&mut self) {
        let engine = a100();
        // The tick: fixed lengths, batch arrivals, a fixed batch limit, so
        // the tick count is known without looking inside — each wave of B
        // requests retires together after `OUT` decode ticks.
        const IN: usize = 128;
        const OUT: usize = 64;
        const WAVES: usize = 4;
        for (name, b) in [
            ("engine.tick_ns.b16", 16usize),
            ("engine.tick_ns.b64", 64),
            ("engine.tick_ns.b256", 256),
        ] {
            let spec = WorkloadSpec::fixed(IN, OUT, WAVES * b);
            let ns = self.timed("engine.serve", || {
                black_box(
                    engine
                        .serve(&spec, Box::new(Fcfs), ServeConfig::fixed_batch(b))
                        .expect("fixed batch cannot run out of memory"),
                );
            });
            self.rec(name, ns / (WAVES * OUT) as f64);
        }
        // Mixed lengths, Poisson arrivals, paged on-demand admission: what
        // one replica does inside the cluster workloads.
        let n = if self.quick { 200 } else { 2_000 };
        let spec = WorkloadSpec::mixed(n, self.seed)
            .with_arrivals(ArrivalPattern::Poisson { rate_rps: 12.0 });
        let mut token_steps = 0.0;
        let ns = self.timed("engine.serve", || {
            let r = engine
                .serve(
                    &spec,
                    Box::new(MemoryAware::default()),
                    ServeConfig::paged(Reservation::OnDemand),
                )
                .expect("mixed prompts fit an A100");
            token_steps = r.throughput_tps * r.total_time_s;
        });
        self.rec("engine.serve.ns_per_token_step", ns / token_steps);

        // The one workload-specific probe: one replica's share of the
        // asked-for workload's own trace on a bare engine. The ledger
        // prices that workload's ticks with it.
        let (replica, spec, cfg) = workloads::replica_share(self.workload, self.seed, self.quick);
        let ns = self.once("engine.serve", 3, || {
            let r = replica
                .serve(&spec, Box::new(MemoryAware::default()), cfg)
                .expect("a replica's share of a servable trace is servable");
            token_steps = r.throughput_tps * r.total_time_s;
        });
        self.rec("engine.replay.ns_per_token_step", ns / token_steps);

        // Cost of pricing one decode step, memo warm (the steady state of
        // `mega_chat`) and cold (a fresh clone: what every sweep cell and
        // every replica pays first).
        let mut rng = TensorRng::seed(self.seed);
        let mut warm64 = 0.0;
        for (name, b) in [
            ("engine.decode_cost_ns.b16", 16usize),
            ("engine.decode_cost_ns.b64", 64),
            ("engine.decode_cost_ns.b256", 256),
        ] {
            let lens: Vec<usize> = (0..b).map(|_| 64 + rng.index(448)).collect();
            let ns = self.timed("engine.decode_step_latency_hetero", || {
                black_box(engine.decode_step_latency_hetero(black_box(&lens)));
            });
            if b == 64 {
                warm64 = ns;
            }
            self.rec(name, ns);
        }
        let lens: Vec<usize> = (0..64).map(|_| 64 + rng.index(448)).collect();
        let clone_ns = self.timed("engine.clone", || {
            black_box(engine.clone());
        });
        let cold_ns = self.timed("engine.decode_step_latency_hetero", || {
            let fresh = engine.clone();
            black_box(fresh.decode_step_latency_hetero(black_box(&lens)));
        });
        let cold = (cold_ns - clone_ns).max(0.0);
        self.rec("engine.decode_cost_cold_ns.b64", cold);
        self.rec("engine.memo_speedup", cold / warm64);

        // Chunked-prefill pricing as `longctx_pressure` asks for it: eight
        // (chunk, past) slices per call, cycling through 64 seeded shapes.
        let shapes: Vec<Vec<(usize, usize)>> = (0..64)
            .map(|_| {
                (0..8)
                    .map(|_| (1 + rng.index(1024), rng.index(6400)))
                    .collect()
            })
            .collect();
        let mut k = 0usize;
        let ns = self.timed("engine.prefill_latency_chunked", || {
            black_box(engine.prefill_latency_chunked(&shapes[k % shapes.len()]));
            k += 1;
        });
        self.rec("engine.prefill_chunked_cost_ns.c8", ns);

        let ns = self.timed("engine.new", || {
            black_box(a100());
        });
        self.rec("engine.new_us", ns / 1e3);
    }

    // -- gpusim ------------------------------------------------------------

    fn gpusim(&mut self) {
        let gpu = GpuSpec::a100();
        let mut rng = TensorRng::seed(self.seed ^ 0x6770);
        let ms: Vec<usize> = (0..64).map(|_| 1 + rng.index(4096)).collect();
        let mut k = 0usize;
        let ns = self.timed("gpusim.gemm_latency", || {
            let shape = GemmShape {
                m: ms[k % ms.len()],
                n: 4096,
                k: 4096,
            };
            black_box(gemm_latency(&gpu, GemmConfig::QServeW4A8PerChannel, shape));
            k += 1;
        });
        self.rec("gpusim.gemm_latency_ns", ns);

        let lens: Vec<usize> = (0..64).map(|_| 64 + rng.index(6400)).collect();
        let ns = self.timed("gpusim.attention_decode_latency_hetero", || {
            black_box(attention_decode_latency_hetero(
                &gpu,
                AttentionKernel::Kv4QServe,
                black_box(&lens),
                32,
                32,
                128,
            ));
        });
        self.rec("gpusim.attn_decode_hetero_ns_per_seq.b64", ns / 64.0);

        let chunks: Vec<(usize, usize)> = (0..8)
            .map(|_| (1 + rng.index(1024), rng.index(6400)))
            .collect();
        let ns = self.timed("gpusim.attention_prefill_latency_chunked", || {
            black_box(attention_prefill_latency_chunked(
                &gpu,
                AttentionKernel::Kv4QServe,
                black_box(&chunks),
                32,
                32,
                128,
            ));
        });
        self.rec("gpusim.attn_prefill_chunked_ns_per_chunk", ns / 8.0);
    }

    // -- event queue, sketches, request sampling ---------------------------

    fn events_sketches_requests(&mut self) {
        // One pop and one push at a steady depth: what every replica tick
        // and every arrival costs the driver. Depth 8 is the 4-replica
        // fleets here; 4096 is a thousand-replica fleet.
        for (name, depth) in [
            ("event.push_pop_ns.d8", 8u64),
            ("event.push_pop_ns.d4096", 4096),
        ] {
            let mut q: EventQueue<u32> = EventQueue::new();
            for lane in 0..depth {
                q.push(lane as f64 * 1e-3, lane, 0);
            }
            let ns = self.timed("event.push_pop", || {
                let (t, lane, payload) = q.pop().expect("queue holds `depth` events");
                q.push(t + 1.0, lane, payload);
            });
            self.rec(name, ns);
        }

        let mut rng = TensorRng::seed(self.seed ^ 0x736b);
        let samples: Vec<f64> = (0..4096)
            .map(|_| 1e-3 + f64::from(rng.next_f32()) * 60.0)
            .collect();
        let mut sketch = PercentileSketch::new();
        let mut k = 0usize;
        let ns = self.timed("sketch.insert", || {
            sketch.insert(samples[k % samples.len()]);
            k += 1;
        });
        self.rec("sketch.insert_ns", ns);
        let ns = self.timed("sketch.quantile", || {
            black_box(sketch.quantile(black_box(0.99)));
        });
        self.rec("sketch.quantile_us", ns / 1e3);
        let other = sketch.clone();
        let ns = self.timed("sketch.merge", || {
            sketch.merge(black_box(&other));
        });
        self.rec("sketch.merge_us", ns / 1e3);

        // Trace sampling happens inside every serve call (and in set-up).
        let n = if self.quick { 1_000 } else { 20_000 };
        let spec = WorkloadSpec::production(n, 800.0, self.seed);
        let ns = self.timed("request.sample", || {
            black_box(spec.sample());
        });
        self.rec("request.sample_ns_per_req", ns / n as f64);

        let spec = WorkloadSpec::shared_prefix(4, 96, 64, self.seed);
        let requests = spec.sample();
        let ns = self.timed("request.synth_prompts", || {
            black_box(spec.synth_prompts(&requests, 512));
        });
        self.rec(
            "request.synth_prompts_us_per_req",
            ns / 1e3 / requests.len() as f64,
        );
    }

    // -- control plane -----------------------------------------------------

    fn control(&mut self) {
        let speed = a100().speed_profile();
        let views: Vec<ReplicaView> = (0..4)
            .map(|index| ReplicaView {
                index,
                clock_s: 10.0 + index as f64 * 0.01,
                outstanding_tokens: 20_000 + 3_000 * index,
                waiting: index,
                running: 48,
                accepting: true,
                online: true,
                host_used_pages: 0,
                host_capacity_pages: 0,
                speed,
            })
            .collect();
        let requests = WorkloadSpec::mixed(256, self.seed)
            .with_sharing(PrefixSharing::Groups {
                groups: 8,
                prefix_len: 1024,
            })
            .with_slos(SloSpec::Cycle(vec![
                Slo::interactive(2.0, 8.0),
                Slo::standard(6.0, 20.0),
                Slo::best_effort(),
            ]))
            .sample();
        let planes: [(&'static str, ControlPlane); 3] = [
            (
                "control.place_ns.least_outstanding.r4",
                ControlPlane::new(Box::new(LeastOutstanding), Box::new(AdmitAll)),
            ),
            (
                "control.place_ns.deadline_aware.r4",
                ControlPlane::new(Box::new(DeadlineAware), Box::new(DeadlineFeasible)),
            ),
            (
                "control.place_ns.prefix_affinity.r4",
                ControlPlane::new(Box::new(PrefixAffinity::default()), Box::new(AdmitAll)),
            ),
        ];
        for (name, mut plane) in planes {
            let mut k = 0usize;
            let ns = self.timed("control.place", || {
                black_box(plane.place(&requests[k % requests.len()], black_box(&views)));
                k += 1;
            });
            self.rec(name, ns);
        }
    }

    // -- cluster driver ----------------------------------------------------

    fn cluster(&mut self) {
        let n = if self.quick { 500 } else { 20_000 };
        let policy = || -> Box<dyn SchedulingPolicy> { Box::new(MemoryAware::default()) };

        // One replica behind the cluster driver against the bare engine on
        // the same trace: the ratio isolates what the driver adds — event
        // queue, control plane, report aggregation.
        let spec = WorkloadSpec::production(n, 200.0, self.seed);
        let engine = a100();
        let mut single = None;
        let engine_ns = self.once("engine.serve", 3, || {
            single = Some(
                engine
                    .serve(&spec, policy(), ServeConfig::paged(Reservation::OnDemand))
                    .expect("short prompts fit an A100"),
            );
        });
        let mut one = Cluster::new(a100(), 1, Box::new(LeastOutstanding)).with_threads(1);
        let mut report = None;
        let cluster_ns = self.once("cluster.serve_paged", 3, || {
            report = Some(
                one.serve_paged(
                    &spec,
                    policy,
                    Reservation::OnDemand,
                    SchedOptions::default(),
                )
                .expect("short prompts fit an A100"),
            );
        });
        assert!(
            report
                .expect("the probe ran")
                .matches_single_engine(&single.expect("the probe ran")),
            "a 1-replica cluster no longer matches the single engine"
        );
        self.rec("cluster.driver_overhead_ratio", cluster_ns / engine_ns);

        // The same 4-replica fleet as `mega_chat`, sequential against a
        // 2-thread pool (barrier windows). Reports must be identical.
        let spec = WorkloadSpec::production(n, 800.0, self.seed);
        let mut reports = Vec::new();
        let mut walls = Vec::new();
        for threads in [1usize, 2] {
            let mut fleet =
                Cluster::new(a100(), 4, Box::new(LeastOutstanding)).with_threads(threads);
            let mut last = None;
            walls.push(self.once("cluster.serve_paged", 3, || {
                last = Some(
                    fleet
                        .serve_paged(
                            &spec,
                            policy,
                            Reservation::OnDemand,
                            SchedOptions::default(),
                        )
                        .expect("short prompts fit an A100"),
                );
            }));
            reports.push(last.expect("the probe ran"));
        }
        assert!(
            reports[0] == reports[1],
            "1-thread and 2-thread cluster reports differ"
        );
        self.rec("cluster.par2_speedup", walls[0] / walls[1]);
    }

    // -- kernels -----------------------------------------------------------

    fn kernels(&mut self) {
        // `func_serve`'s widest projection: gate/up, ffn × hidden.
        let cfg = workloads::func_model_config();
        let (h, ffn) = (cfg.hidden, cfg.ffn);
        let mut rng = TensorRng::seed(self.seed ^ 0x6b72);
        let w = rng.gaussian(ffn, h, 0.05);
        let per_group = ProgressiveWeight::quantize(&w, 32);
        let per_channel = PerChannelW4::quantize(&w);
        let macs = |m: usize| (m * ffn * h) as f64;
        let x1 = quantize_activations_int8(&rng.gaussian(1, h, 1.0));
        let x32m = rng.gaussian(32, h, 1.0);
        let x32 = quantize_activations_int8(&x32m);

        let ns = self.timed("kernels.gemm_w4a8_per_group", || {
            black_box(gemm_w4a8_per_group(black_box(&x1), &per_group));
        });
        self.rec("kernels.gemm_w4a8_per_group.ns_per_mac.m1", ns / macs(1));
        let ns = self.timed("kernels.gemm_w4a8_per_group", || {
            black_box(gemm_w4a8_per_group(black_box(&x32), &per_group));
        });
        self.rec("kernels.gemm_w4a8_per_group.ns_per_mac.m32", ns / macs(32));
        let ns = self.timed("kernels.gemm_w4a8_per_channel", || {
            black_box(gemm_w4a8_per_channel(black_box(&x32), &per_channel));
        });
        self.rec(
            "kernels.gemm_w4a8_per_channel.ns_per_mac.m32",
            ns / macs(32),
        );
        let ns = self.timed("kernels.quantize_activations_int8", || {
            black_box(quantize_activations_int8(black_box(&x32m)));
        });
        self.rec(
            "kernels.quantize_activations.ns_per_elem",
            ns / (32 * h) as f64,
        );

        let d = cfg.head_dim();
        for (name, s) in [
            (
                "kernels.decode_attention_kv4.ns_per_kv_token.s128",
                128usize,
            ),
            ("kernels.decode_attention_kv4.ns_per_kv_token.s512", 512),
        ] {
            let mut head = QuantizedKvHead::new(KvPrecision::Int4);
            let kv = rng.gaussian(2 * s, d, 1.0);
            for t in 0..s {
                head.append(kv.row(2 * t), kv.row(2 * t + 1));
            }
            let q = rng.gaussian(1, d, 1.0);
            let ns = self.timed("kernels.decode_attention_fp16", || {
                black_box(decode_attention_fp16(black_box(q.row(0)), &head));
            });
            self.rec(name, ns / s as f64);
        }

        // The pool is process-wide and sized once, so the 2-thread arm is a
        // second process running `par_gemm_ns` below at QSERVE_THREADS=2.
        let (budget, seed) = (self.budget_s, self.seed);
        let one = self
            .tracer
            .span("kernels.gemm_w4a8_per_group", |_| par_gemm_ns(budget, seed));
        let two = self
            .tracer
            .span("kernels.par2_child", |_| par_gemm_child(budget, seed));
        self.rec("kernels.par2_speedup", one / two);
    }

    // -- paged KV cache, prefix index, executors ---------------------------

    fn kv_cache_and_executors(&mut self) {
        let model = workloads::func_model();
        let cfg = model.config.clone();
        let (d, kvw) = (cfg.head_dim(), cfg.kv_heads * cfg.head_dim());
        let kv_cfg = KvCacheConfig {
            page_tokens: 16,
            kv_heads: cfg.kv_heads,
            head_dim: d,
            layers: cfg.layers,
            precision: KvPrecision::Int4,
        };
        const S: usize = 128;
        let mut rng = TensorRng::seed(self.seed ^ 0x6b76);
        let kv = rng.gaussian(2 * S, kvw, 1.0);
        let mut cache = PagedKvCache::new(kv_cfg, 1024);
        let fill = |cache: &mut PagedKvCache, seq: SequenceId| {
            cache.register(seq).expect("fresh id");
            for t in 0..S {
                for layer in 0..cfg.layers {
                    cache
                        .append_token(seq, layer, kv.row(2 * t), kv.row(2 * t + 1))
                        .expect("the pool holds several sequences");
                }
            }
        };
        let scratch = SequenceId(1);
        let ns = self.timed("kv_cache.append_token", || {
            fill(&mut cache, scratch);
            cache.release(scratch).expect("registered above");
        });
        self.rec("kv_cache.append_token_ns", ns / (S * cfg.layers) as f64);

        let parent = SequenceId(0);
        fill(&mut cache, parent);
        let ns = self.timed("kv_cache.read_head", || {
            black_box(cache.read_head(parent, 0, 0).expect("parent is resident"));
        });
        self.rec("kv_cache.read_head_ns_per_token", ns / S as f64);
        let ns = self.timed("kv_cache.fork", || {
            cache
                .fork(parent, scratch, 96)
                .expect("parent holds 128 tokens");
            cache.release(scratch).expect("forked above");
        });
        self.rec("kv_cache.fork_us", ns / 1e3);
        let ns = self.timed("kv_cache.swap", || {
            cache.swap_out(parent).expect("parent is resident");
            cache.swap_in(parent).expect("the pool has room");
        });
        self.rec("kv_cache.swap_roundtrip_us", ns / 1e3);
        let ns = self.timed("kv_cache.export_import", || {
            let image = cache
                .export_pages(parent, S)
                .expect("parent holds 128 tokens");
            cache
                .import_pages(scratch, &image)
                .expect("the pool has room");
            cache.release(scratch).expect("imported above");
        });
        self.rec("kv_cache.export_import_us", ns / 1e3);

        let mut index = PrefixIndex::new();
        let system = rng.token_sequence(96, cfg.vocab);
        for i in 0..64u64 {
            let mut prompt = system[..(32 + (i as usize % 3) * 32)].to_vec();
            prompt.extend(rng.token_sequence(32, cfg.vocab));
            index.insert(SequenceId(i), prompt);
        }
        let mut query = system.clone();
        query.extend(rng.token_sequence(32, cfg.vocab));
        let ns = self.timed("prefix.longest_shared_prefix", || {
            black_box(index.longest_shared_prefix(black_box(&query)));
        });
        self.rec("prefix.longest_match_ns", ns);

        let q = rng.gaussian(1, cfg.heads * d, 1.0);
        let ns = self.timed("attention_exec.paged_decode_attention", || {
            black_box(
                paged_decode_attention(&cache, parent, 0, black_box(q.row(0)))
                    .expect("parent is resident"),
            );
        });
        self.rec("attention_exec.paged_decode_us.s128", ns / 1e3);

        // One block, deployed as `func_serve` deploys it.
        let calib = collect_calibration(
            &model,
            &TensorRng::seed(1).token_sequence(workloads::FUNC_CALIB_TOKENS, cfg.vocab),
        );
        let block = BlockRuntime::new(&quantize_block(
            &model.blocks[0],
            &calib[0],
            &workloads::func_qoq(),
        ));
        let (attn_norm, ffn_norm) = &model.norms[0];
        let x = rng.gaussian(1, cfg.hidden, 1.0);
        let ns = self.timed("block_exec.decode_step", || {
            // A fork of the 128-token parent, so every call decodes at
            // position 128 exactly (the fork itself is ~1000× cheaper).
            cache
                .fork(parent, scratch, S)
                .expect("parent holds 128 tokens");
            black_box(
                block
                    .decode_step(
                        &x,
                        &[scratch],
                        &[S],
                        0,
                        &mut cache,
                        attn_norm,
                        ffn_norm,
                        model.rope_base,
                    )
                    .expect("the pool has room"),
            );
            cache.release(scratch).expect("forked above");
        });
        self.rec("block_exec.decode_step_us.s128", ns / 1e3);
        let chunk = rng.gaussian(32, cfg.hidden, 1.0);
        let ns = self.timed("block_exec.prefill", || {
            cache.register(scratch).expect("fresh id");
            black_box(
                block
                    .prefill(
                        &chunk,
                        scratch,
                        0,
                        &mut cache,
                        attn_norm,
                        ffn_norm,
                        model.rope_base,
                    )
                    .expect("the pool has room"),
            );
            cache.release(scratch).expect("registered above");
        });
        self.rec("block_exec.prefill_us_per_token.c32", ns / 1e3 / 32.0);
    }

    // -- deployment and the whole-model executor ---------------------------

    fn deployment(&mut self) {
        let model = workloads::func_model();
        let cfg = model.config.clone();
        let calib_tokens =
            TensorRng::seed(1).token_sequence(workloads::FUNC_CALIB_TOKENS, cfg.vocab);

        let mut runtime = None;
        let ns = self.once("model_exec.deploy", 1, || {
            runtime = Some(workloads::deploy_func(&model));
        });
        self.rec("model_exec.deploy_ms", ns / 1e6);
        let mut runtime = runtime.expect("deployed above");

        let mut calib = Vec::new();
        let ns = self.once("model.collect_calibration", 3, || {
            calib = collect_calibration(&model, &calib_tokens);
        });
        self.rec("model.collect_calibration_ms", ns / 1e6);
        let ns = self.once("core.quantize_block", 1, || {
            black_box(quantize_block(
                &model.blocks[0],
                &calib[0],
                &workloads::func_qoq(),
            ));
        });
        self.rec("core.quantize_block_ms", ns / 1e6);
        let w = &model.blocks[0].w_gate;
        let ns = self.timed("core.progressive_quantize", || {
            black_box(ProgressiveWeight::quantize(black_box(w), 32));
        });
        self.rec(
            "core.progressive_quantize_ns_per_weight",
            ns / (w.rows() * w.cols()) as f64,
        );
        let tokens = TensorRng::seed(self.seed).token_sequence(64, cfg.vocab);
        let ns = self.timed("model.forward_logits", || {
            black_box(forward_logits(&model, black_box(&tokens)));
        });
        self.rec("model.forward_logits_us_per_token", ns / 1e3 / 64.0);
        let x = TensorRng::seed(self.seed).gaussian(32, cfg.hidden, 1.0);
        let ns = self.timed("tensor.matmul_nt", || {
            black_box(black_box(&x).matmul_nt(w));
        });
        self.rec(
            "tensor.matmul_nt_ns_per_mac",
            ns / (32 * w.rows() * w.cols()) as f64,
        );

        // One token through the whole deployed model at KV length ≈ 128:
        // 120 tokens of context, then 16 timed steps (lengths 120..136).
        let seq = runtime.start_sequence().expect("empty cache");
        let context = TensorRng::seed(self.seed ^ 1).token_sequence(136, cfg.vocab);
        for &t in &context[..120] {
            runtime.step(seq, t).expect("the cache holds 136 tokens");
        }
        let mut k = 120usize;
        let ns = self.once("model_exec.step", 16, || {
            black_box(
                runtime
                    .step(seq, context[k])
                    .expect("the cache holds 136 tokens"),
            );
            k += 1;
        });
        runtime.finish_sequence(seq).expect("started above");
        self.rec("model_exec.step_us.s128", ns / 1e3);
        let prompt = &context[..32];
        let ns = self.once("model_exec.generate_greedy", 3, || {
            let seq = runtime.start_sequence().expect("the cache has room");
            black_box(
                runtime
                    .generate_greedy(seq, prompt, 16)
                    .expect("the cache has room"),
            );
            runtime.finish_sequence(seq).expect("started above");
        });
        self.rec("model_exec.us_per_token", ns / 1e3 / 48.0);

        // Output quality of the deployed stack — solo greedy oracle and
        // FP16 top-1 agreement — from a quick-sized serve, unless the
        // asked-for workload already checked its own full-size one.
        let seed = self.seed;
        let (greedy, fp16) = self.quality.unwrap_or_else(|| {
            self.tracer.span("model_exec.quality", |t| {
                let mut p = workloads::setup(Workload::FuncServe, seed, true);
                let out = workloads::body(&mut p, t);
                let (_, greedy, fp16) =
                    workloads::func_quality(&p, &out).expect("func_serve has a quality check");
                (greedy, fp16)
            })
        });
        self.rec("model_exec.greedy_match_frac", greedy);
        self.rec("model_exec.fp16_top1_agreement", fp16);
    }

    // -- pool and sweep harness --------------------------------------------

    fn pool_and_sweeps(&mut self) {
        let pool = Pool::new(2);
        let tasks = [0u8; 64];
        let ns = self.timed("tensor.pool.par_map", || {
            black_box(pool.par_map(&tasks, |_, t| *t));
        });
        self.rec("tensor.pool.fork_join_us", ns / 1e3);

        // The sweep harness's cold-start regime: many short cells, every
        // memo cold — the opposite of `mega_chat`.
        let mut total_ns = 0.0;
        let mut mismatches = 0usize;
        for (id, tables) in GOLDEN_IDS {
            let mut fresh = Vec::new();
            let ns = self.once("bench.run_experiment", 1, || {
                fresh = run_experiment(id).expect("a pinned id is a known id");
            });
            total_ns += ns;
            if id == "table4" {
                self.rec("bench.table4_ms", ns / 1e6);
            }
            if fresh.len() != tables {
                mismatches += 1;
                continue;
            }
            for (i, table) in fresh.iter().enumerate() {
                let file = if i == 0 {
                    format!("tests/golden/{id}.csv")
                } else {
                    format!("tests/golden/{id}_{i}.csv")
                };
                // A missing file counts as a mismatch: the run's
                // `correct` flag then fails, naming this metric.
                if std::fs::read_to_string(&file).ok().as_deref() != Some(table.to_csv().as_str()) {
                    mismatches += 1;
                }
            }
        }
        self.rec("bench.golden_tables_ms", total_ns / 1e6);
        self.rec("bench.golden_mismatches", mismatches as f64);
        let ns = self.once("bench.run_experiment", 1, || {
            black_box(run_experiment("hetero_sweep").expect("a known id"));
        });
        self.rec("bench.hetero_sweep_ms", ns / 1e6);
    }
}

/// The parallel-kernel probe: a W4A8 per-group GEMM large enough for the
/// column-block fork-join to matter (m 16, n = k = 1024), at whatever
/// width the process-wide pool has. ns per call.
pub fn par_gemm_ns(budget_s: f64, seed: u64) -> f64 {
    let mut rng = TensorRng::seed(seed ^ 0x7032);
    let w = ProgressiveWeight::quantize(&rng.gaussian(1024, 1024, 0.05), 128);
    let x = quantize_activations_int8(&rng.gaussian(16, 1024, 1.0));
    ns_per_call(budget_s, || {
        black_box(gemm_w4a8_per_group(black_box(&x), &w));
    })
}

/// Runs [`par_gemm_ns`] in a child process whose pool has two threads,
/// waits for it, and returns the ns per call it printed.
fn par_gemm_child(budget_s: f64, seed: u64) -> f64 {
    let exe = clock::current_exe().expect("the running binary has a path");
    let out = std::process::Command::new(exe)
        .args(["par-gemm-child", &budget_s.to_string(), &seed.to_string()])
        .output()
        .expect("the benchmark can start itself");
    assert!(
        out.status.success(),
        "the 2-thread kernel probe failed: {:?}",
        out.status
    );
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("the child prints one number")
}
