//! Memory is proportional to what is resident, not to the trace: a cluster
//! run — and a single engine's `serve`, which is a one-replica cluster run —
//! holds its residents, its backlog and one small record per completion —
//! never the workload, never a retired request.
//!
//! One `#[test]` in a binary of its own, because the counting allocator is
//! process-global: the harness runs the lone test on one thread while the
//! main thread sleeps on its result, so exactly one thread allocates and the
//! counters need no read-modify-write — plain atomic loads and stores. No
//! clock, no `/proc` read: the numbers are exact and repeat.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use qserve_gpusim::GpuSpec;
use qserve_model::ModelConfig;
use qserve_serve::cluster::{Cluster, LeastOutstanding};
use qserve_serve::ledger::Reservation;
use qserve_serve::request::WorkloadSpec;
use qserve_serve::scheduler::{MemoryAware, SchedOptions};
use qserve_serve::{ServeConfig, ServingEngine, SystemConfig};

/// Bytes the heap holds now, and the most it has held.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn moved(freed: usize, taken: usize) {
    let live = LIVE.load(Relaxed) - freed + taken;
    LIVE.store(live, Relaxed);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

struct Counting;

// SAFETY: every call is forwarded to `System` with the caller's own
// arguments, so `System`'s contract is the caller's; the counters touch no
// allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            moved(0, layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        moved(layout.size(), 0);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            moved(layout.size(), new_size);
        }
        q
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

fn a100() -> ServingEngine {
    ServingEngine::new(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel)
        .expect("A100 serves Llama-2-7B")
}

/// Peak live heap, over what was live at entry, of `run`.
fn peak_heap_of(run: impl FnOnce()) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    run();
    PEAK.load(Relaxed) - base
}

/// Serving `n` requests of the `mega_sweep` trace on four A100 replicas
/// below their capacity (≈ 595 rps), so residents and backlog do not grow
/// with `n`.
fn peak_heap_of_fleet(n: usize) -> usize {
    let mut cluster = Cluster::new(a100(), 4, Box::new(LeastOutstanding)).with_threads(1);
    let spec = WorkloadSpec::production(n, 400.0, 11);
    peak_heap_of(|| {
        let report = cluster
            .serve_paged(
                &spec,
                || Box::new(MemoryAware::default()),
                Reservation::OnDemand,
                SchedOptions::default(),
            )
            .expect("the trace is servable");
        assert_eq!((report.completed, report.shed), (n, 0));
    })
}

/// The same trace at a quarter of the rate on one engine's `serve`.
fn peak_heap_of_engine(n: usize) -> usize {
    let engine = a100();
    let spec = WorkloadSpec::production(n, 100.0, 11);
    peak_heap_of(|| {
        let report = engine
            .serve(&spec, Box::new(MemoryAware::default()), ServeConfig::paged(Reservation::OnDemand))
            .expect("the trace is servable");
        assert_eq!(report.completed, n);
    })
}

#[test]
fn peak_heap_grows_by_a_finished_record_per_request_not_by_the_trace() {
    let (small, large) = (1 << 12, 1 << 14);
    let runs = [("cluster", peak_heap_of_fleet as fn(usize) -> usize), ("serve", peak_heap_of_engine)];
    for (what, peak_heap_of_serving) in runs {
        let (peak_small, peak_large) = (peak_heap_of_serving(small), peak_heap_of_serving(large));
        let per_request = (peak_large as f64 - peak_small as f64) / (large - small) as f64;
        println!("{what}: peak live heap {peak_small} B at n = {small}, {peak_large} B at n = {large}: {per_request:.1} B per additional request");
        assert!(
            per_request <= 128.0,
            "{what}: peak live heap grew by {per_request:.1} B per additional request ({peak_small} B at \
             n = {small}, {peak_large} B at n = {large}); a finished request should leave a 48-byte \
             record and its report columns, not itself"
        );
    }
}
