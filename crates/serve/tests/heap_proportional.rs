//! Memory is proportional to what is resident, not to the trace: a cluster
//! run — and a single engine's `serve`, which is a one-replica cluster run —
//! holds its residents, its backlog and, per scheduler, a report fold whose
//! exact columns stop at `EXACT_STATS_MAX` completions — never the
//! workload, never a retired request or a record of one. Over capacity the
//! backlog itself grows with the trace, and then what a pending `Request`
//! costs is what the run costs.
//!
//! One `#[test]` in a binary of its own, because the counting allocator
//! (`common/counting_alloc.rs`) is process-global.

use qserve_gpusim::GpuSpec;
use qserve_model::ModelConfig;
use qserve_serve::cluster::{Cluster, LeastOutstanding};
use qserve_serve::ledger::Reservation;
use qserve_serve::request::WorkloadSpec;
use qserve_serve::scheduler::{MemoryAware, SchedOptions};
use qserve_serve::{ServeConfig, ServingEngine, SystemConfig};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::peak_heap_of;

fn a100() -> ServingEngine {
    ServingEngine::new(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel)
        .expect("A100 serves Llama-2-7B")
}

/// Serving `n` requests of the `mega_sweep` trace on four A100 replicas at
/// `rate_rps`. Below their capacity (≈ 595 rps) residents and backlog do
/// not grow with `n`; at `mega_chat`'s 800 rps (≈ 1.35×) the backlog does,
/// and it is resident at the peak. Also returns each replica's completions.
fn peak_heap_of_fleet(n: usize, rate_rps: f64) -> (usize, Vec<usize>) {
    let mut cluster = Cluster::new(a100(), 4, Box::new(LeastOutstanding)).with_threads(1);
    let spec = WorkloadSpec::production(n, rate_rps, 11);
    let mut completed = [0; 4];
    let peak = peak_heap_of(|| {
        let report = cluster
            .serve_paged(
                &spec,
                || Box::new(MemoryAware::default()),
                Reservation::OnDemand,
                SchedOptions::default(),
            )
            .expect("the trace is servable");
        assert_eq!((report.completed, report.shed), (n, 0));
        for (c, r) in completed.iter_mut().zip(&report.per_replica) {
            *c = r.completed;
        }
    });
    (peak, completed.to_vec())
}

/// The same trace at 100 rps on one engine's `serve`, and its completions.
fn peak_heap_of_engine(n: usize) -> (usize, Vec<usize>) {
    let engine = a100();
    let spec = WorkloadSpec::production(n, 100.0, 11);
    let peak = peak_heap_of(|| {
        let report = engine
            .serve(&spec, Box::new(MemoryAware::default()), ServeConfig::paged(Reservation::OnDemand))
            .expect("the trace is servable");
        assert_eq!(report.completed, n);
    });
    (peak, vec![n])
}

/// `size_of::<Request>()` as `request::tests::request_size_is_pinned` pins
/// it. Over capacity every backlogged request is one of these, so the
/// overload run's bound is figured from it: a `Request` that grows back
/// fails here, not only at the size pin.
const REQUEST_BYTES: f64 = 80.0;

/// Per additional request, the overload run holds ≈ 1.15 `Request`s at its
/// peak (the backlog and its deques' slack) over ≈ 120 B of everything
/// else — 211.4 B at 80-byte requests, ≈ 5 B of it make-room's calendar
/// bookings (a larger backlog packs larger batches). The bound is left where
/// it was when the run read 248.7 B (then the report copied every fold's
/// columns into one merged set at the end): the ≈ 44 B margin is what a
/// per-request field such as a queued-since stamp may spend, and a `Request`
/// of 120 B or more still fails.
const OVERLOAD_BYTES_PER_REQUEST: f64 = 156.0 + 1.25 * REQUEST_BYTES;

/// The exact columns a report fold keeps per completion up to
/// `EXACT_STATS_MAX` on this trace: a latency and a TTFT, 8 B each (the
/// `production` trace carries no deadlines, so no SLO ratio).
const COLUMN_BYTES: f64 = 2.0 * 8.0;

/// Below the threshold, per additional request: the folds' columns, held
/// once (a report sorts and reads them in place, copying none), and a
/// quarter more for their growth slack — a column past 4,096 records grows
/// by one 4,096-record block at a time, not by doubling — 20 B (16.0 B for
/// `serve` and 18.9 B for `cluster` today; 32.0 B and 29.8 B while the
/// report merged the columns into a copy and every column doubled). The
/// cluster run sits on a block edge: at n = 2^14 each of its four folds holds
/// about one block's records, so whether one fold passes `COLUMN_BLOCK` =
/// 4,096 completions moves its reading by 4,096 × 16 B / 12,288 ≈ 5.3 B per
/// request, with no change to what a request costs. The test prints each
/// replica's completions beside the reading, at both sizes, to show which
/// side of the block each fold landed on.
const BELOW_THRESHOLD_BYTES_PER_REQUEST: f64 = 1.25 * COLUMN_BYTES;

/// Past the threshold a fold has dropped its columns and holds only sums
/// and two fixed-size sketches: nothing may grow with the trace. 0.0 B
/// today; the bound leaves room for one word per request and no more.
const PAST_THRESHOLD_BYTES_PER_REQUEST: f64 = 8.0;

#[test]
fn peak_heap_holds_no_record_of_a_finished_request() {
    let (small, large) = (1 << 12, 1 << 14);
    let below = BELOW_THRESHOLD_BYTES_PER_REQUEST;
    let runs = [
        ("cluster", (|n| peak_heap_of_fleet(n, 400.0)) as fn(usize) -> (usize, Vec<usize>), below, small, large),
        ("serve", peak_heap_of_engine, below, small, large),
        ("overload", |n| peak_heap_of_fleet(n, 800.0), OVERLOAD_BYTES_PER_REQUEST, small, large),
        // One engine past `EXACT_STATS_MAX` = 2^16 at both sizes.
        ("serve past the threshold", peak_heap_of_engine, PAST_THRESHOLD_BYTES_PER_REQUEST, 1 << 17, 1 << 18),
    ];
    for (what, peak_heap_of_serving, bound, small, large) in runs {
        let ((peak_small, done_small), (peak_large, done_large)) =
            (peak_heap_of_serving(small), peak_heap_of_serving(large));
        let per_request = (peak_large as f64 - peak_small as f64) / (large - small) as f64;
        println!(
            "{what}: peak live heap {peak_small} B at n = {small}, {peak_large} B at n = {large}: \
             {per_request:.1} B per additional request (completed per replica: {done_small:?}, {done_large:?})"
        );
        assert!(
            per_request <= bound,
            "{what}: peak live heap grew by {per_request:.1} B per additional request ({peak_small} B at \
             n = {small}, {peak_large} B at n = {large}; at most {bound} B): a finished request should \
             leave no record, only its report fold's columns up to the exact-statistics threshold, \
             and a backlogged one its `Request` ({REQUEST_BYTES} B)"
        );
    }
}
