//! Functional serving path: the request-lifecycle scheduler core driving a
//! multi-sequence paged KV4 cache and the fused attention kernel with real
//! admission/retirement — the data-plane counterpart of the
//! latency-simulating engine, now with heterogeneous prompt lengths and
//! page-budget-gated admission.
//!
//! ```text
//! cargo run --release --example paged_serving
//! ```

use qserve::core::kv_quant::KvPrecision;
use qserve::serve::attention_exec::paged_decode_attention;
use qserve::serve::kv_cache::{KvCacheConfig, PagedKvCache, SequenceId};
use qserve::serve::request::{ArrivalPattern, LengthDist, PrefixSharing, SloSpec, WorkloadSpec};
use qserve::serve::scheduler::{AdmittedWave, Fcfs, PageBudget, Reservation, Scheduler};
use qserve::tensor::rng::TensorRng;

fn main() {
    let cfg = KvCacheConfig {
        page_tokens: 16,
        kv_heads: 4,
        head_dim: 32,
        layers: 2,
        precision: KvPrecision::Int4,
    };
    let total_pages = 64;
    let mut cache = PagedKvCache::new(cfg, total_pages);
    let mut rng = TensorRng::seed(3);
    let width = cfg.kv_heads * cfg.head_dim;
    let query_heads = 8; // GQA: 8 query heads over 4 kv heads

    println!(
        "paged KV4 cache: {} pages × {} tokens × {} B (per-head fp16 scales inline)\n",
        total_pages,
        cfg.page_tokens,
        cfg.page_bytes()
    );

    // A heterogeneous workload: six requests with mixed prompt/output
    // lengths, admitted by the scheduler core against the cache's own page
    // arithmetic (peak-reserving, so appends can never hit OutOfPages).
    let spec = WorkloadSpec {
        num_requests: 6,
        input: LengthDist::Uniform { lo: 12, hi: 56 },
        output: LengthDist::Uniform { lo: 4, hi: 12 },
        arrival: ArrivalPattern::Batch,
        sharing: PrefixSharing::None,
        slo: SloSpec::None,
        seed: 11,
    };
    let mut budget =
        PageBudget::new(cfg.page_tokens, cfg.layers, total_pages, Reservation::Peak);
    let mut sched = Scheduler::new(spec.sample(), 4, Box::new(Fcfs));
    println!(
        "workload: {} requests, prompts 12–56 tokens, outputs 4–12; batch limit 4, \
         page-budget admission",
        spec.num_requests
    );

    let fresh = |rng: &mut TensorRng| -> Vec<f32> {
        (0..width).map(|_| rng.normal(1.0)).collect()
    };
    let mut step = 0usize;
    let (mut wave, mut retired) = (AdmittedWave::default(), Vec::new());
    while !sched.is_done() {
        sched.admit(&mut budget, &mut wave);
        for (&id, &len) in wave.ids.iter().zip(&wave.prefill_lens) {
            let seq = SequenceId(id.0);
            cache.register(seq).expect("fresh sequence");
            for _ in 0..len {
                let (k, v) = (fresh(&mut rng), fresh(&mut rng));
                for layer in 0..cfg.layers {
                    cache.append_token(seq, layer, &k, &v).expect("peak-reserved");
                }
            }
            println!(
                "step {:2}: admitted seq {} ({} prompt tokens) — cache {}/{} pages",
                step,
                id.0,
                len,
                cache.used_pages(),
                total_pages
            );
        }
        if !wave.ids.is_empty() {
            sched.charge_prefill(wave.prefill_lens.iter().sum::<usize>() as f64);
        }
        sched.make_room(&mut budget, &mut Vec::new()); // no-op under peak reservation

        // One decode tick: fused KV4 attention for every running sequence,
        // then append this step's KV (as the engine would after projections).
        for r in sched.running() {
            let seq = SequenceId(r.id.0);
            let q: Vec<f32> = (0..query_heads * cfg.head_dim).map(|_| rng.normal(1.0)).collect();
            let out = paged_decode_attention(&cache, seq, 0, &q).expect("active");
            let (k, v) = (fresh(&mut rng), fresh(&mut rng));
            for layer in 0..cfg.layers {
                cache.append_token(seq, layer, &k, &v).expect("peak-reserved");
            }
            if r.remaining() == 1 {
                let norm: f32 = out.iter().map(|x| x * x).sum::<f32>().sqrt();
                println!(
                    "step {:2}: seq {} finishing — context {:3} tokens, ‖attention out‖ = {:.3}",
                    step,
                    r.id.0,
                    cache.seq_len(seq),
                    norm
                );
            }
        }
        sched.decode_step(1.0, &mut budget, &mut retired);
        for &id in &retired {
            let seq = SequenceId(id.0);
            let before = cache.free_pages();
            cache.release(seq).expect("registered");
            println!(
                "step {:2}: retired seq {} — free pages {} → {}",
                step,
                id.0,
                before,
                cache.free_pages()
            );
        }
        step += 1;
    }

    let stats = sched.stats();
    assert_eq!(cache.used_pages(), 0, "every page must return to the pool");
    println!(
        "\nserved {} requests in {} decode ticks ({} tokens generated); \
         mean TTFT {:.0} steps, p95 latency {:.0} steps — no leaks, every page accounted for",
        stats.completed,
        stats.decode_time_s as usize,
        stats.generated_tokens,
        stats.mean_ttft_s,
        stats.p95_latency_s
    );
}
