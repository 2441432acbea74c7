//! Serving-system integration: scheduler conservation, memory bounds, cache
//! lifecycle under randomized workloads.

use qserve::core::kv_quant::KvPrecision;
use qserve::gpusim::GpuSpec;
use qserve::model::ModelConfig;
use qserve::serve::engine::ServeConfig;
use qserve::serve::kv_cache::{KvCacheConfig, PagedKvCache, SequenceId};
use qserve::serve::request::{
    ArrivalPattern, LengthDist, PrefixSharing, RequestId, SloSpec, WorkloadSpec,
};
use qserve::serve::scheduler::{
    AdmittedWave, Fcfs, KvBudget, MemoryAware, PageBudget, Reservation, SchedOptions, Scheduler,
    SchedulingPolicy, ShortestJobFirst, TickExecutor, UnboundedBudget,
};
use qserve::serve::{ServingEngine, SystemConfig};
use qserve::tensor::{prop, props};

#[test]
fn engine_completes_any_feasible_workload() {
    let e = ServingEngine::new(
        GpuSpec::a100(),
        ModelConfig::llama2_7b(),
        SystemConfig::QServePerChannel,
    )
    .unwrap();
    for (requests, batch) in [(1usize, 1usize), (7, 3), (64, 64), (100, 13)] {
        let wl = WorkloadSpec::fixed(64, 16, requests);
        let r = e
            .serve(&wl, Box::new(Fcfs), ServeConfig::fixed_batch(batch))
            .expect("serves");
        assert_eq!(r.completed, requests);
        let tokens = (requests * 16) as f64;
        assert!((r.throughput_tps * r.total_time_s - tokens).abs() < 1e-6 * tokens.max(1.0));
    }
}

#[test]
fn throughput_ordering_stable_across_workloads() {
    // QServe > best TRT must hold for short and long generations alike.
    let m = ModelConfig::llama2_7b();
    for (input, output) in [(256usize, 128usize), (1024, 512), (2048, 256)] {
        let wl = WorkloadSpec::fixed(input, output, 32);
        let q = ServingEngine::new(GpuSpec::a100(), m.clone(), SystemConfig::QServePerChannel)
            .unwrap()
            .max_throughput(&wl)
            .unwrap()
            .throughput_tps;
        let t = ServingEngine::new(GpuSpec::a100(), m.clone(), SystemConfig::TrtW8A8)
            .unwrap()
            .max_throughput(&wl)
            .unwrap()
            .throughput_tps;
        assert!(q > t, "{}+{}: QServe {} ≤ TRT {}", input, output, q, t);
    }
}

#[test]
fn memory_constrained_batch_respected() {
    let e = ServingEngine::new(
        GpuSpec::l40s(),
        ModelConfig::llama2_70b(),
        SystemConfig::QServePerGroup,
    )
    .unwrap();
    let wl = WorkloadSpec::paper(16);
    let batch = e.plan().max_batch(wl.max_peak_len());
    assert!(batch >= 1, "70B W4KV4 must fit L40S");
    // The plan's token capacity must cover the batch at peak length.
    assert!(e.plan().max_tokens >= (batch * wl.max_peak_len()) as u64);
}

#[test]
fn fixed_workload_report_identical_across_policies() {
    // The paper protocol is homogeneous: admission order cannot change the
    // wave composition, so FCFS and SJF must produce the *same* report —
    // the guarantee that keeps Table 4 / Figure 15 independent of the
    // scheduler refactor.
    let e = ServingEngine::new(
        GpuSpec::a100(),
        ModelConfig::llama2_7b(),
        SystemConfig::QServePerChannel,
    )
    .unwrap();
    let spec = WorkloadSpec::paper(48);
    let run = |policy: Box<dyn SchedulingPolicy>| {
        e.serve(&spec, policy, ServeConfig::fixed_batch(16)).expect("serves")
    };
    let fcfs = run(Box::new(Fcfs));
    let sjf = run(Box::new(ShortestJobFirst));
    assert_eq!(fcfs, sjf);
    // And `paper` is the fixed 1024 / 512 shape, bit for bit.
    assert_eq!(
        fcfs,
        e.serve(
            &WorkloadSpec::fixed(1024, 512, 48),
            Box::new(Fcfs),
            ServeConfig::fixed_batch(16),
        )
        .expect("serves")
    );
}

#[test]
fn heterogeneous_policies_complete_and_expose_percentiles() {
    let e = ServingEngine::new(
        GpuSpec::l40s(),
        ModelConfig::llama2_7b(),
        SystemConfig::QServePerGroup,
    )
    .unwrap();
    let spec = WorkloadSpec::mixed(40, 31)
        .with_arrivals(ArrivalPattern::Poisson { rate_rps: 8.0 });
    for report in [
        e.serve(&spec, Box::new(Fcfs), ServeConfig::worst_case()).expect("serves"),
        e.serve(&spec, Box::new(ShortestJobFirst), ServeConfig::worst_case()).expect("serves"),
        e.serve(
            &spec,
            Box::new(MemoryAware::default()),
            ServeConfig::paged(Reservation::OnDemand),
        )
        .expect("serves"),
    ] {
        assert_eq!(report.completed, 40);
        assert!(report.mean_ttft_s > 0.0);
        assert!(report.mean_ttft_s <= report.mean_request_latency_s);
        assert!(report.p50_latency_s <= report.p95_latency_s);
        assert!(report.p95_latency_s <= report.p99_latency_s);
        assert!(report.p99_latency_s <= report.max_request_latency_s + 1e-12);
        assert!(report.prefill_time_s + report.decode_time_s <= report.total_time_s + 1e-9);
    }
}

props! {
    /// Same seed ⇒ identical workload: request lengths and arrival times
    /// replay bit-for-bit, and every sample respects the configured bounds.
    fn prop_workload_sampling_seed_deterministic(rng, cases = 32) {
        let lo = rng.int_in(1, 64) as usize;
        let hi = lo + rng.int_in(0, 512) as usize;
        let out_lo = rng.int_in(1, 32) as usize;
        let out_hi = out_lo + rng.int_in(0, 128) as usize;
        let seed = rng.next_u64();
        let arrival = match rng.int_in(0, 2) {
            0 => ArrivalPattern::Batch,
            1 => ArrivalPattern::Uniform { rate_rps: 2.0 },
            _ => ArrivalPattern::Poisson { rate_rps: 2.0 },
        };
        let spec = WorkloadSpec {
            num_requests: rng.int_in(1, 24) as usize,
            input: LengthDist::Uniform { lo, hi },
            output: LengthDist::Bimodal {
                short: (out_lo, out_hi),
                long: (out_hi + 1, out_hi + 64),
                long_weight: 0.25,
            },
            arrival,
            sharing: PrefixSharing::None,
            slo: SloSpec::None,
            seed,
        };
        let a = spec.sample();
        let b = spec.sample();
        assert_eq!(a, b, "same seed must replay the identical workload");
        let (ilo, ihi) = spec.input.bounds();
        let (olo, ohi) = spec.output.bounds();
        let mut prev_arrival = 0.0f64;
        for r in &a {
            assert!((ilo..=ihi).contains(&r.input_len), "input {} outside bounds", r.input_len);
            assert!((olo..=ohi).contains(&r.output_len), "output {} outside bounds", r.output_len);
            assert!(r.arrival_s >= prev_arrival, "arrivals must be non-decreasing");
            prev_arrival = r.arrival_s;
        }
        // A different seed almost surely changes a non-degenerate workload.
        if ihi > ilo && a.len() > 4 {
            let other = WorkloadSpec { seed: seed ^ 0xDEAD_BEEF, ..spec.clone() };
            assert_ne!(other.sample(), a, "distinct seeds should differ");
        }
    }

    /// The paged cache never loses or duplicates pages across random
    /// register/append/release interleavings.
    fn prop_cache_page_conservation(rng, cases = 16) {
        let len = rng.int_in(1, 59) as usize;
        let ops = prop::vec_u8(rng, 0, 2, len);
        let cfg = KvCacheConfig {
            page_tokens: 4,
            kv_heads: 2,
            head_dim: 8,
            layers: 2,
            precision: KvPrecision::Int4,
        };
        let total = 24;
        let mut cache = PagedKvCache::new(cfg, total);
        let width = cfg.kv_heads * cfg.head_dim;
        let feats = vec![0.5f32; width];
        let mut live: Vec<SequenceId> = Vec::new();
        let mut next_id = 0u64;
        for op in ops {
            match op {
                0 => {
                    let id = SequenceId(next_id);
                    next_id += 1;
                    cache.register(id).unwrap();
                    live.push(id);
                }
                1 => {
                    if let Some(&id) = live.first() {
                        for layer in 0..cfg.layers {
                            // Appends may legitimately hit OutOfPages.
                            let _ = cache.append_token(id, layer, &feats, &feats);
                        }
                    }
                }
                _ => {
                    if let Some(id) = live.pop() {
                        cache.release(id).unwrap();
                    }
                }
            }
            assert_eq!(cache.free_pages() + cache.used_pages(), total);
        }
        for id in live {
            cache.release(id).unwrap();
        }
        assert_eq!(cache.free_pages(), total);
    }

    /// Copy-on-write sharing under random fork/append/release
    /// interleavings: every page referenced by a live sequence keeps
    /// refcount ≥ 1 (and the refcount equals the number of referencing
    /// sequences), unique used + free == total at every step, and a fork
    /// reads back exactly its parent's prefix before (and after) any
    /// divergence.
    fn prop_cow_sharing_invariants(rng, cases = 24) {
        let cfg = KvCacheConfig {
            page_tokens: 4,
            kv_heads: 2,
            head_dim: 8,
            layers: 2,
            precision: KvPrecision::Int4,
        };
        let total = 32;
        let mut cache = PagedKvCache::new(cfg, total);
        let width = cfg.kv_heads * cfg.head_dim;
        let mut live: Vec<SequenceId> = Vec::new();
        let mut next_id = 0u64;
        let check = |cache: &PagedKvCache, live: &[SequenceId]| {
            assert_eq!(cache.used_pages() + cache.free_pages(), total, "conservation");
            // Refcounts must equal the number of live referencing sequences.
            let mut refs = std::collections::HashMap::new();
            for &s in live {
                for layer in 0..cfg.layers {
                    for &p in cache.layer_pages(s, layer) {
                        *refs.entry(p).or_insert(0u32) += 1;
                    }
                }
            }
            assert_eq!(refs.len(), cache.used_pages(), "table pages = unique used pages");
            for (&p, &n) in &refs {
                assert!(n >= 1);
                assert_eq!(cache.page_refcount(p), n, "page {} refcount drift", p);
            }
        };
        for _ in 0..40 {
            match rng.int_in(0, 9) {
                0 | 1 => {
                    let id = SequenceId(next_id);
                    next_id += 1;
                    cache.register(id).unwrap();
                    live.push(id);
                }
                2 | 3 | 4 | 5 => {
                    if !live.is_empty() {
                        let s = live[rng.int_in(0, live.len() as i64 - 1) as usize];
                        let feats: Vec<f32> =
                            (0..width).map(|_| rng.uniform(-2.0, 2.0)).collect();
                        // May legitimately hit OutOfPages (incl. mid-COW).
                        let mut ok = true;
                        for layer in 0..cfg.layers {
                            if !ok { break; }
                            ok = cache.append_token(s, layer, &feats, &feats).is_ok();
                        }
                    }
                }
                6 | 7 => {
                    if !live.is_empty() {
                        let pi = rng.int_in(0, live.len() as i64 - 1) as usize;
                        let parent = live[pi];
                        let plen = cache.seq_len(parent);
                        let prefix = rng.int_in(0, plen as i64) as usize;
                        let child = SequenceId(next_id);
                        next_id += 1;
                        cache.fork(parent, child, prefix).unwrap();
                        live.push(child);
                        // The forked view is the parent's prefix, byte-equal.
                        for head in 0..cfg.kv_heads {
                            let (pk, pv) = cache.read_head(parent, 1, head).unwrap();
                            let (ck, cv) = cache.read_head(child, 1, head).unwrap();
                            assert_eq!(ck.len().min(prefix), ck.len());
                            assert_eq!(ck[..], pk[..ck.len()], "fork K diverged pre-write");
                            assert_eq!(cv[..], pv[..cv.len()], "fork V diverged pre-write");
                        }
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let i = rng.int_in(0, live.len() as i64 - 1) as usize;
                        let s = live.swap_remove(i);
                        cache.release(s).unwrap();
                    }
                }
            }
            check(&cache, &live);
        }
        for s in live.drain(..) {
            cache.release(s).unwrap();
        }
        assert_eq!(cache.free_pages(), total, "all pages recycled at the end");
    }

    /// Scheduler conservation over random policy × workload × budget ×
    /// option grids: every generated request finishes exactly once, no
    /// request is both Finished and Preempted at exit, and each request's
    /// output length matches its spec.
    fn prop_scheduler_conserves_requests(rng, cases = 24) {
        let n = rng.int_in(2, 14) as usize;
        let seed = rng.next_u64();
        let arrival = match rng.int_in(0, 2) {
            0 => ArrivalPattern::Batch,
            1 => ArrivalPattern::Uniform { rate_rps: 4.0 },
            _ => ArrivalPattern::Poisson { rate_rps: 4.0 },
        };
        let sharing = match rng.int_in(0, 2) {
            0 => PrefixSharing::None,
            _ => PrefixSharing::Groups { groups: 2, prefix_len: 12 },
        };
        let spec = WorkloadSpec {
            num_requests: n,
            input: LengthDist::Uniform { lo: 2, hi: 9 },
            output: LengthDist::Uniform { lo: 1, hi: 6 },
            arrival,
            sharing,
            slo: SloSpec::None,
            seed,
        };
        let requests = spec.sample();
        let expected: Vec<(u64, usize)> =
            requests.iter().map(|r| (r.id.0, r.output_len)).collect();
        let policy: Box<dyn SchedulingPolicy> = match rng.int_in(0, 2) {
            0 => Box::new(Fcfs),
            1 => Box::new(ShortestJobFirst),
            _ => Box::new(MemoryAware { headroom: 0.25 }),
        };
        // A pool tight enough to preempt sometimes but able to hold any
        // single request (peak ≤ 30 tokens = 8 pages ≤ 12).
        let mut paged;
        let mut unbounded = UnboundedBudget;
        let budget: &mut dyn KvBudget = if rng.int_in(0, 1) == 0 {
            &mut unbounded
        } else {
            let mode = if rng.int_in(0, 1) == 0 { Reservation::Peak } else { Reservation::OnDemand };
            paged = PageBudget::new(4, 1, 12, mode);
            &mut paged
        };
        let opts = SchedOptions {
            share_prefixes: rng.int_in(0, 1) == 1,
            chunk_tokens: match rng.int_in(0, 2) {
                0 => None,
                1 => Some(2),
                _ => Some(5),
            },
            ..SchedOptions::default()
        };
        let batch_limit = rng.int_in(1, 4) as usize;
        let mut sched = Scheduler::with_options(requests, batch_limit, policy, opts);
        /// Whole prompts free, 0.01 s per chunk and per decode step.
        struct Flat;
        impl TickExecutor for Flat {
            fn prefill_wave(&mut self, _: &Scheduler, _: &AdmittedWave) -> f64 {
                0.0
            }
            fn prefill_chunks(&mut self, _: &Scheduler, chunks: &[(RequestId, usize, usize)]) -> f64 {
                0.01 * chunks.len() as f64
            }
            fn swap(&mut self, _: &Scheduler, _: usize) -> f64 {
                unreachable!("recompute preemption moves no pages")
            }
            fn decode(&mut self, _: &Scheduler) -> f64 {
                0.01
            }
        }
        let mut guard = 0;
        while !sched.is_done() {
            guard += 1;
            assert!(guard < 100_000, "scheduler failed to converge");
            sched.tick(budget, &mut Flat);
        }
        let finished = sched.finished();
        assert_eq!(finished.len(), n, "every request finishes");
        let mut seen = std::collections::HashSet::new();
        for r in finished {
            assert!(seen.insert(r.id.0), "request {} finished twice", r.id.0);
            let (_, expect_out) = expected
                .iter()
                .find(|&&(id, _)| id == r.id.0)
                .expect("finished an ungenerated request");
            assert_eq!(r.generated(), *expect_out, "request {} output length", r.id.0);
        }
    }

    /// Round trip through the page bytes is within one quantization step for
    /// arbitrary feature values.
    fn prop_cache_round_trip_error_bounded(rng, cases = 16) {
        let feats = prop::vec_f32(rng, -8.0, 8.0, 16);
        let cfg = KvCacheConfig {
            page_tokens: 4,
            kv_heads: 2,
            head_dim: 8,
            layers: 1,
            precision: KvPrecision::Int4,
        };
        let mut cache = PagedKvCache::new(cfg, 8);
        let s = SequenceId(0);
        cache.register(s).unwrap();
        cache.append_token(s, 0, &feats, &feats).unwrap();
        for head in 0..2 {
            let (keys, _) = cache.read_head(s, 0, head).unwrap();
            let back = qserve::core::kv_quant::dequantize_head(&keys[0]);
            for (a, b) in feats[head * 8..(head + 1) * 8].iter().zip(&back) {
                // One step + fp16 rounding of the stored scale.
                assert!((a - b).abs() <= keys[0].params.scale * 1.5 + 1e-3);
            }
        }
    }
}
