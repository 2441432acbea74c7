//! Cluster report assembly: turning per-replica scheduler state into the
//! [`ClusterReport`] every sweep and golden CSV reads.
//!
//! Split out of [`crate::cluster`] so the event-loop driver owns *when*
//! things happen and this module owns *what the run meant*: percentile
//! assembly (exact below [`EXACT_STATS_MAX`] completions, streaming
//! sketches above), goodput/SLO attainment, shed accounting, swap and
//! migration byte totals, and the fleet-cost integral (GPU-seconds of
//! provisioned replica time). Aggregation is a pure fold over immutable
//! replica slices — it never mutates a scheduler — so moving it cannot
//! change a single bit of any report.
//!
//! No per-request float is computed here. Each replica's scheduler built a
//! [`crate::scheduler::FinishedRequest`] per completion — latency, TTFT, the
//! achieved ÷ deadline ratio, the SLO verdict — and this module sums them
//! (TTFT, tokens, goodput) and sorts them (latencies, ratios) in
//! replica-then-completion order, the one order in which no sum is
//! re-associated. Shed requests arrive as `(id, tier)`, all a report says
//! of them.

use crate::engine::ServingReport;
use crate::request::{RequestId, Tier};
use crate::scheduler::{percentile, Scheduler};
use crate::sketch::{PercentileSketch, EXACT_STATS_MAX};

/// Per-replica slice of a [`ClusterReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaReport {
    /// GPU name of this replica's spec (distinguishes a mixed fleet's rows).
    pub gpu: &'static str,
    /// Requests the router sent here.
    pub routed: usize,
    /// Requests that finished here (== `routed` on success).
    pub completed: usize,
    /// Output tokens generated here.
    pub generated_tokens: usize,
    /// The replica's final clock, seconds.
    pub clock_s: f64,
    /// Seconds this replica spent doing work (prefill + decode + swap +
    /// migration transfers).
    pub busy_s: f64,
    /// Fraction of the cluster makespan this replica spent working — the
    /// balance number a fleet planner reads (0 when nothing ran).
    pub utilization: f64,
    /// Preemption events on this replica.
    pub preemptions: usize,
    /// High-water mark of unique KV pages on this replica.
    pub peak_unique_pages: usize,
    /// Requests routed here that a crash requeued to another replica
    /// (0 in fault-free runs; `routed - requeued_away` is what this
    /// replica actually served).
    pub requeued_away: usize,
    /// Times this replica came back online after a crash or upgrade
    /// downtime (0 in fault-free runs).
    pub restarts: usize,
    /// Seconds this replica was *provisioned* (accepting, or still
    /// draining work it accepted) — the replica's share of the fleet's
    /// GPU-seconds bill. A static replica is provisioned for the whole
    /// makespan; an autoscaled standby is billed only between its wake and
    /// its drain going idle.
    pub provisioned_s: f64,
    /// Ids of the requests that finished here, in completion order — what
    /// conservation properties audit (each id on exactly one replica).
    pub finished: Vec<RequestId>,
}

/// Aggregate result of one cluster serve.
///
/// Every statistic is edge-safe when *everything* was shed: rates and
/// percentiles report `0.0`, counts report `0`, and the shed accounting
/// still partitions the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// The routing policy's report name.
    pub routing: String,
    /// The admission policy's report name.
    pub admission: String,
    /// Replica count.
    pub replicas: usize,
    /// Requests finished across the cluster.
    pub completed: usize,
    /// Output tokens generated across the cluster.
    pub generated_tokens: usize,
    /// Cluster makespan: the busiest replica's final clock, seconds.
    pub makespan_s: f64,
    /// Aggregate output tokens per second over the makespan.
    pub throughput_tps: f64,
    /// *Goodput*: output tokens per second counting only requests that met
    /// their SLO — the number admission control protects. Equal to
    /// `throughput_tps` when no request carries a deadline.
    pub goodput_tps: f64,
    /// Fraction of *finished* requests that met their SLO. Shed requests
    /// are excluded — they are accounted by `shed`/`shed_by_tier` and by
    /// `goodput_tps` (their tokens are never produced) — so attainment
    /// reads "of what we chose to serve, how much was served in time".
    pub slo_attainment: f64,
    /// Median of `achieved ÷ deadline` over deadline-carrying finished
    /// requests, taking each request's worst ratio across its TTFT and
    /// latency deadlines (≤ 1 means met; 0 when none carried a deadline).
    pub slo_ratio_p50: f64,
    /// 99th percentile of the same ratio — the tail's distance from its
    /// deadline.
    pub slo_ratio_p99: f64,
    /// Requests shed at admission.
    pub shed: usize,
    /// Shed counts per priority tier, indexed by [`crate::request::Tier::index`].
    pub shed_by_tier: [usize; 3],
    /// Ids of the shed requests — the other half of the workload partition
    /// conservation properties audit.
    pub shed_ids: Vec<RequestId>,
    /// Mean time-to-first-token across all finished requests, seconds.
    pub mean_ttft_s: f64,
    /// Median end-to-end latency across all finished requests, seconds.
    pub p50_latency_s: f64,
    /// 99th-percentile end-to-end latency, seconds — the cluster SLO number.
    pub p99_latency_s: f64,
    /// Preemption events summed over replicas.
    pub preemptions: usize,
    /// Requeue events: each time a crash moved an in-flight request to
    /// another replica (a request crashed twice counts twice). 0 in
    /// fault-free runs.
    pub requeued: usize,
    /// Prefill tokens thrown away by crashes — work the cluster had done
    /// for requests whose KV pages died with their replica. 0 in
    /// fault-free runs.
    pub lost_prefill_tokens: usize,
    /// Swap-out events summed over replicas (swap-mode preemption only).
    pub swap_outs: usize,
    /// KV pages moved device → host across the cluster.
    pub swap_out_pages: usize,
    /// KV pages moved host → device across the cluster.
    pub swap_in_pages: usize,
    /// Bytes that crossed the host link in either direction, priced into
    /// each replica's clock at PCIe cost.
    pub swap_bytes: u64,
    /// Prefix-group migrations the control plane executed (0 without a
    /// [`crate::control::MigrationConfig`]).
    pub migrations: usize,
    /// KV pages copied between replicas by those migrations.
    pub migrated_pages: usize,
    /// Bytes those copies moved across the migration link, priced into the
    /// destination replica's clock at link bandwidth.
    pub migrated_bytes: u64,
    /// Fleet cost: total GPU-seconds of provisioned replica time (the sum
    /// of [`ReplicaReport::provisioned_s`]). A static `n`-replica fleet
    /// bills exactly `n × makespan_s`; an autoscaled fleet bills less when
    /// it drains idle capacity.
    pub gpu_seconds: f64,
    /// Latest finish time over requests that were requeued by a crash —
    /// minus the crash instant, the fleet's recovery time. 0 when nothing
    /// was requeued.
    pub last_requeued_finish_s: f64,
    /// Worst per-replica unique-page high-water mark — the number a
    /// capacity planner provisions each replica's HBM against.
    pub max_replica_peak_pages: usize,
    /// Median latency from the per-replica streaming sketches, merged in
    /// replica order — always populated, and the authoritative percentile
    /// source above [`EXACT_STATS_MAX`] total completions (0 when nothing
    /// finished).
    pub sketch_p50_latency_s: f64,
    /// 99th-percentile latency from the merged streaming sketches.
    pub sketch_p99_latency_s: f64,
    /// Per-replica breakdown, indexed by replica.
    pub per_replica: Vec<ReplicaReport>,
}

impl ClusterReport {
    /// The 1-replica degenerate case as a single-engine [`ServingReport`]
    /// comparison: every shared field must match bit for bit.
    ///
    /// # Panics
    /// Panics unless the cluster has exactly one replica.
    pub fn matches_single_engine(&self, r: &ServingReport) -> bool {
        assert_eq!(self.replicas, 1, "single-engine comparison needs one replica");
        self.shed == 0
            && self.completed == r.completed
            && self.makespan_s.to_bits() == r.total_time_s.to_bits()
            && self.throughput_tps.to_bits() == r.throughput_tps.to_bits()
            && self.mean_ttft_s.to_bits() == r.mean_ttft_s.to_bits()
            && self.p50_latency_s.to_bits() == r.p50_latency_s.to_bits()
            && self.p99_latency_s.to_bits() == r.p99_latency_s.to_bits()
            && self.preemptions == r.preemptions
            && self.max_replica_peak_pages == r.peak_unique_pages
            && self.sketch_p50_latency_s.to_bits() == r.sketch_p50_latency_s.to_bits()
            && self.sketch_p99_latency_s.to_bits() == r.sketch_p99_latency_s.to_bits()
    }
}

/// Everything aggregation needs to know about one replica, borrowed from
/// the driver's `Replica` at the end of a run. A plain data view — the
/// driver stays free to reshape its internal struct without touching the
/// report math.
pub(crate) struct ReplicaSlice<'a> {
    /// The replica's scheduler (finished records, sketches, counters).
    pub sched: &'a Scheduler,
    /// GPU name of the replica's spec.
    pub gpu: &'static str,
    /// Bytes per KV page on this replica — prices its swap traffic.
    pub kv_page_bytes: u64,
    /// Requests the router sent here.
    pub routed: usize,
    /// Requests a crash requeued away.
    pub requeued_away: usize,
    /// Times this replica came back online.
    pub restarts: usize,
    /// Unique-page high-water mark.
    pub peak_pages: usize,
    /// Provisioned seconds already closed by lifecycle transitions.
    pub provisioned_s: f64,
    /// Start of a still-open provisioned window, closed at the makespan.
    pub provisioned_open_since: Option<f64>,
}

/// Cluster-wide migration totals the driver counted while executing
/// [`crate::control::Placement::Migrate`] decisions.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MigrationTotals {
    pub migrations: usize,
    pub pages: usize,
    pub bytes: u64,
}

/// Folds per-replica end-of-run state into one [`ClusterReport`].
pub(crate) fn aggregate(
    routing: &str,
    admission: &str,
    reps: &[ReplicaSlice<'_>],
    shed: &[(RequestId, Tier)],
    requeued: usize,
    lost_prefill_tokens: usize,
    migration: MigrationTotals,
) -> ClusterReport {
    // Below the sample threshold the exact sorted-buffer path is
    // authoritative (golden CSVs live here); above it percentiles come
    // from the streaming sketches and the O(n log n) sorts never run.
    let total_finished: usize = reps.iter().map(|rep| rep.sched.finished().len()).sum();
    let exact = total_finished <= EXACT_STATS_MAX;
    let mut lat_sketch = PercentileSketch::new();
    let mut slo_sketch = PercentileSketch::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut slo_ratios: Vec<f64> = Vec::new();
    let mut ttft_sum = 0.0;
    let mut generated = 0usize;
    let mut good_tokens = 0usize;
    let mut met = 0usize;
    let mut completed = 0usize;
    let mut preemptions = 0usize;
    let mut swap_outs = 0usize;
    let mut swap_out_pages = 0usize;
    let mut swap_in_pages = 0usize;
    let mut swap_bytes = 0u64;
    let mut last_requeued_finish = 0.0f64;
    let mut makespan = 0.0f64;
    let mut per_replica = Vec::with_capacity(reps.len());
    for rep in reps {
        // Replica-index merge order: deterministic by construction. One
        // pass over each replica's finished list — everything below reads
        // borrowed state; no per-replica vector is copied.
        lat_sketch.merge(rep.sched.latency_sketch());
        let finished = rep.sched.finished();
        let mut rep_generated = 0usize;
        for r in finished {
            rep_generated += r.generated();
            if exact {
                latencies.push(r.latency_s());
            }
            ttft_sum += r.ttft_s();
            if r.met_slo {
                met += 1;
                good_tokens += r.generated();
            }
            if let Some(ratio) = r.slo_ratio() {
                if exact {
                    slo_ratios.push(ratio);
                } else {
                    slo_sketch.insert(ratio);
                }
            }
            if r.requeued {
                last_requeued_finish = last_requeued_finish.max(r.finish_s);
            }
        }
        generated += rep_generated;
        completed += finished.len();
        preemptions += rep.sched.preemptions();
        swap_outs += rep.sched.swap_outs();
        swap_out_pages += rep.sched.swap_out_pages();
        swap_in_pages += rep.sched.swap_in_pages();
        let moved_pages = rep.sched.swap_out_pages() + rep.sched.swap_in_pages();
        swap_bytes +=
            u64::try_from(moved_pages).expect("page count fits u64") * rep.kv_page_bytes;
        if rep.routed > 0 {
            makespan = makespan.max(rep.sched.clock());
        }
        per_replica.push(ReplicaReport {
            gpu: rep.gpu,
            routed: rep.routed,
            completed: finished.len(),
            generated_tokens: rep_generated,
            clock_s: rep.sched.clock(),
            busy_s: rep.sched.busy_time_s(),
            utilization: 0.0, // filled in once the makespan is known
            preemptions: rep.sched.preemptions(),
            peak_unique_pages: rep.peak_pages,
            requeued_away: rep.requeued_away,
            restarts: rep.restarts,
            provisioned_s: 0.0, // filled in once the makespan is known
            finished: finished.iter().map(|r| r.id).collect(),
        });
    }
    for (r, slice) in per_replica.iter_mut().zip(reps) {
        r.utilization = if makespan > 0.0 { r.busy_s / makespan } else { 0.0 };
        // A window still open at the end of the run bills to the cluster
        // makespan (a static replica bills the whole run by construction —
        // its window opened at 0 and nothing closed it). `max(0.0)` guards
        // the empty run, where the makespan never grew past a window
        // opened at 0.
        r.provisioned_s = slice.provisioned_s
            + slice
                .provisioned_open_since
                .map_or(0.0, |since| (makespan - since).max(0.0));
    }
    let gpu_seconds: f64 = per_replica.iter().map(|r| r.provisioned_s).sum();
    let mut shed_by_tier = [0usize; 3];
    for (_, tier) in shed {
        shed_by_tier[tier.index()] += 1;
    }
    latencies.sort_by(f64::total_cmp);
    slo_ratios.sort_by(f64::total_cmp);
    let (slo_ratio_p50, slo_ratio_p99) = if exact {
        if slo_ratios.is_empty() {
            (0.0, 0.0)
        } else {
            (percentile(&slo_ratios, 0.50), percentile(&slo_ratios, 0.99))
        }
    } else if slo_sketch.is_empty() {
        (0.0, 0.0)
    } else {
        (slo_sketch.quantile(0.50), slo_sketch.quantile(0.99))
    };
    let (p50_latency_s, p99_latency_s) = if exact {
        if latencies.is_empty() {
            (0.0, 0.0)
        } else {
            (percentile(&latencies, 0.50), percentile(&latencies, 0.99))
        }
    } else {
        (lat_sketch.quantile(0.50), lat_sketch.quantile(0.99))
    };
    let rate = |tokens: usize| if makespan > 0.0 { tokens as f64 / makespan } else { 0.0 };
    ClusterReport {
        routing: routing.to_string(),
        admission: admission.to_string(),
        replicas: reps.len(),
        completed,
        generated_tokens: generated,
        makespan_s: makespan,
        throughput_tps: rate(generated),
        goodput_tps: rate(good_tokens),
        slo_attainment: if completed > 0 { met as f64 / completed as f64 } else { 0.0 },
        slo_ratio_p50,
        slo_ratio_p99,
        shed: shed.len(),
        shed_by_tier,
        shed_ids: shed.iter().map(|&(id, _)| id).collect(),
        mean_ttft_s: if completed > 0 { ttft_sum / completed as f64 } else { 0.0 },
        p50_latency_s,
        p99_latency_s,
        sketch_p50_latency_s: if lat_sketch.is_empty() {
            0.0
        } else {
            lat_sketch.quantile(0.50)
        },
        sketch_p99_latency_s: if lat_sketch.is_empty() {
            0.0
        } else {
            lat_sketch.quantile(0.99)
        },
        preemptions,
        requeued,
        lost_prefill_tokens,
        swap_outs,
        swap_out_pages,
        swap_in_pages,
        swap_bytes,
        migrations: migration.migrations,
        migrated_pages: migration.pages,
        migrated_bytes: migration.bytes,
        gpu_seconds,
        last_requeued_finish_s: last_requeued_finish,
        max_replica_peak_pages: per_replica
            .iter()
            .map(|r| r.peak_unique_pages)
            .max()
            .unwrap_or(0),
        per_replica,
    }
}
