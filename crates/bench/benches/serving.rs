//! Benchmarks of the serving-side data structures: the paged KV4 cache and
//! the end-to-end simulation step.

use qserve_bench::timing::{black_box, Criterion};
use qserve_bench::{bench_group, bench_main};
use qserve_core::kv_quant::KvPrecision;
use qserve_gpusim::GpuSpec;
use qserve_model::ModelConfig;
use qserve_serve::engine::{ServeConfig, Workload};
use qserve_serve::kv_cache::{KvCacheConfig, PagedKvCache, SequenceId};
use qserve_serve::request::WorkloadSpec;
use qserve_serve::request::ArrivalPattern;
use qserve_serve::scheduler::{Fcfs, ShortestJobFirst};
use qserve_serve::{ServingEngine, SystemConfig};
use qserve_tensor::rng::TensorRng;

fn bench_kv_cache(c: &mut Criterion) {
    let cfg = KvCacheConfig {
        page_tokens: 64,
        kv_heads: 8,
        head_dim: 128,
        layers: 4,
        precision: KvPrecision::Int4,
    };
    let mut rng = TensorRng::seed(1);
    let width = cfg.kv_heads * cfg.head_dim;
    let k: Vec<f32> = (0..width).map(|_| rng.normal(1.0)).collect();
    let v: Vec<f32> = (0..width).map(|_| rng.normal(1.0)).collect();

    c.bench_function("kv_cache_append_token_4layers", |b| {
        b.iter_with_setup(
            || {
                let mut cache = PagedKvCache::new(cfg, 512);
                cache.register(SequenceId(0)).unwrap();
                cache
            },
            |mut cache| {
                for layer in 0..4 {
                    cache.append_token(SequenceId(0), layer, &k, &v).unwrap();
                }
                black_box(cache)
            },
        )
    });

    let mut cache = PagedKvCache::new(cfg, 512);
    cache.register(SequenceId(0)).unwrap();
    for _ in 0..256 {
        for layer in 0..4 {
            cache.append_token(SequenceId(0), layer, &k, &v).unwrap();
        }
    }
    c.bench_function("kv_cache_read_head_256_tokens", |b| {
        b.iter(|| black_box(cache.read_head(SequenceId(0), 0, 3).unwrap()))
    });
}

fn bench_engine(c: &mut Criterion) {
    let engine = ServingEngine::new(
        GpuSpec::a100(),
        ModelConfig::llama2_7b(),
        SystemConfig::QServePerChannel,
    )
    .unwrap();
    c.bench_function("engine_decode_step_latency_model", |b| {
        b.iter(|| black_box(engine.decode_step_latency(black_box(64), black_box(1280))))
    });
    let wl = Workload {
        input_len: 1024,
        output_len: 512,
        num_requests: 128,
    };
    c.bench_function("engine_full_simulation_128_requests", |b| {
        b.iter(|| {
            black_box(
                engine
                    .serve(&wl.spec(), Box::new(Fcfs), ServeConfig::fixed_batch(64))
                    .expect("serves"),
            )
        })
    });
    // The staggered-arrival path: admission interleaves with decode, so the
    // scheduler's arrival bookkeeping (idle jumps, partial batches) is on
    // the timed path — not just the offline all-at-once wave.
    let online = Workload {
        input_len: 256,
        output_len: 64,
        num_requests: 64,
    };
    let online_spec = online.spec().with_arrivals(ArrivalPattern::Uniform { rate_rps: 8.0 });
    c.bench_function("engine_online_arrivals_64_requests", |b| {
        b.iter(|| {
            black_box(
                engine
                    .serve(&online_spec, Box::new(Fcfs), ServeConfig::fixed_batch(32))
                    .expect("serves"),
            )
        })
    });
    let spec = WorkloadSpec::mixed(64, 7);
    c.bench_function("engine_heterogeneous_sjf_64_requests", |b| {
        b.iter(|| {
            black_box(
                engine
                    .serve(black_box(&spec), Box::new(ShortestJobFirst), ServeConfig::worst_case())
                    .expect("serves"),
            )
        })
    });
}

bench_group!(benches, bench_kv_cache, bench_engine);
bench_main!(benches);
