//! Report assembly: the one module that turns finished records into
//! numbers. The single engine's [`ServingReport`] and the fleet's
//! [`ClusterReport`] — what every sweep and golden CSV reads — are both
//! built here, from one merge of per-scheduler folds.
//!
//! Split out of [`crate::cluster`] so the event-loop driver owns *when*
//! things happen and this module owns *what the run meant*: percentile
//! assembly (exact up to [`EXACT_STATS_MAX`] completions, streaming
//! sketches above), goodput/SLO attainment, shed accounting, swap and
//! migration byte totals, and the fleet-cost integral (GPU-seconds of
//! provisioned replica time).
//!
//! No per-request float is computed here, and no record is kept. Each
//! scheduler builds a [`FinishedRequest`] per completion — latency, TTFT,
//! the achieved ÷ deadline ratio, the SLO verdict, each held nowhere else —
//! and folds it into its own `Fold` as it retires: sums, both sketches,
//! and the exact columns only while that fold has seen at most
//! [`EXACT_STATS_MAX`] records. A report merges the folds' sums and
//! sketches in scheduler order; up to the threshold it sorts each fold's
//! columns in place and selects each percentile across them where they
//! lie, copying none, so every statistic a report reads is what one fold
//! over the records in scheduler-then-completion order gives, to the bit.
//! Shed requests arrive as `(id, tier)`, all a report says of them.

use std::cmp::Ordering;

use crate::engine::ServingReport;
use crate::request::{RequestId, Tier};
use crate::scheduler::{FinishedRequest, Scheduler};
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
    /// Ids of the shed requests, in shed order. The driver audits that they
    /// and the finished requests are exactly the arrivals.
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
    /// another replica (a request crashed twice counts twice) — the sum of
    /// [`ReplicaReport::requeued_away`]. 0 in fault-free runs.
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
    /// Median latency from the streaming sketch over every finished
    /// record, in replica-then-completion order — always populated, and the
    /// authoritative percentile source above [`EXACT_STATS_MAX`] total
    /// completions (0 when nothing finished).
    pub sketch_p50_latency_s: f64,
    /// 99th-percentile latency from the same sketch.
    pub sketch_p99_latency_s: f64,
    /// Per-replica breakdown, indexed by replica.
    pub per_replica: Vec<ReplicaReport>,
}

impl ClusterReport {
    /// The 1-replica degenerate case as a single-engine [`ServingReport`]
    /// comparison: every shared field must match bit for bit. Both reports
    /// come from this module's one merge of scheduler folds, so for
    /// [`crate::ServingEngine::serve`] — itself a one-replica driver run —
    /// it holds by construction whenever the two runs size the replica
    /// alike.
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
    /// The replica's scheduler (its counters, and its fold to sort in place).
    pub sched: &'a mut Scheduler,
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

/// Nearest-rank percentile (`q` in `(0, 1]`) of the union of the sorted
/// `cols` in `f64::total_cmp` order — what a sorted concatenation holds at
/// that rank, found by bisecting each column on its elements' ranks in the
/// union (each a bisection of every column): O(k² log² n) comparisons over
/// k columns, no copy. `q = 1` gives the maximum; an empty union gives 0.
pub(crate) fn select(cols: &[&[f64]], q: f64) -> f64 {
    assert!(q > 0.0 && q <= 1.0, "q must be in (0, 1]");
    let n: usize = cols.iter().map(|c| c.len()).sum();
    if n == 0 {
        return 0.0;
    }
    // `q > 0` makes the rank ≥ 1 and `q ≤ 1` makes it ≤ n, but float
    // rounding could break either bound; saturate instead of trusting it.
    let idx = ((q * n as f64).ceil() as usize).saturating_sub(1).min(n - 1);
    // How many of the union's elements stand in relation `keep` to `x`.
    let rank = |x: f64, keep: fn(Ordering) -> bool| -> usize {
        cols.iter().map(|c| c.partition_point(|y| keep(y.total_cmp(&x)))).sum()
    };
    // A column's first element with more than `idx` of the union at or
    // below it is the answer when at most `idx` lie below it.
    cols.iter()
        .find_map(|c| {
            let &x = c.get(c.partition_point(|&y| rank(y, Ordering::is_le) <= idx))?;
            (rank(x, Ordering::is_lt) <= idx).then_some(x)
        })
        .expect("the element of every rank lies in some column")
}

/// The `q` quantile of a sample held either exactly (the sorted `cols`,
/// when `exact`) or as a `sketch` — 0 for an empty sample.
fn quantile(exact: bool, cols: &[&[f64]], sketch: &PercentileSketch, q: f64) -> f64 {
    match exact {
        true => select(cols, q),
        false if !sketch.is_empty() => sketch.quantile(q),
        false => 0.0,
    }
}

/// `tokens` per second over `seconds` (0 over a run that never started).
fn rate(tokens: usize, seconds: f64) -> f64 {
    if seconds > 0.0 { tokens as f64 / seconds } else { 0.0 }
}

/// An order-free digest of a multiset of request ids: how many, and the
/// wrapping sum of a 64-bit mix of each. Equal tallies mean equal
/// multisets up to a 2⁻⁶⁴ collision — how the cluster driver audits that
/// finished ∪ shed is exactly what arrived, without a column of ids.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct IdTally {
    pub(crate) count: usize,
    print: u64,
}

impl IdTally {
    pub(crate) fn add(&mut self, id: RequestId) {
        // SplitMix64's finalizer: every id bit reaches every print bit.
        let mut z = id.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.merge(Self { count: 1, print: z ^ (z >> 31) });
    }

    pub(crate) fn merge(&mut self, other: Self) {
        self.count += other.count;
        self.print = self.print.wrapping_add(other.print);
    }
}

/// Records past which an exact column grows by this many slots, not by
/// doubling: at most one block of slack however long the column gets.
const COLUMN_BLOCK: usize = 4096;

/// One scheduler's retirements, folded as they happen: counts and sums,
/// the latency and SLO-ratio sketches, the retired ids' tally, and — while
/// the fold has seen at most [`EXACT_STATS_MAX`] records — the exact
/// latency, TTFT and SLO-ratio columns, in completion order until a report
/// that reads them sorts the latency and SLO-ratio ones in place. Past the
/// threshold the columns go, so a fold never grows with the trace.
#[derive(Default)]
pub(crate) struct Fold {
    pub(crate) retired: IdTally,
    generated: usize,
    /// Output tokens of the requests that met their SLO.
    good_tokens: usize,
    /// Requests that met their SLO.
    met: usize,
    /// TTFTs summed in completion order.
    ttft_sum: f64,
    last_requeued_finish_s: f64,
    lat_sketch: PercentileSketch,
    slo_sketch: PercentileSketch,
    latencies: Vec<f64>,
    ttfts: Vec<f64>,
    slo_ratios: Vec<f64>,
}

impl Fold {
    /// Folds one retirement in.
    pub(crate) fn add(&mut self, r: &FinishedRequest) {
        self.retired.add(r.id);
        self.generated += r.generated();
        if r.met_slo {
            self.met += 1;
            self.good_tokens += r.generated();
        }
        if r.requeued {
            self.last_requeued_finish_s = self.last_requeued_finish_s.max(r.finish_s);
        }
        self.ttft_sum += r.ttft_s();
        self.lat_sketch.insert(r.latency_s());
        let ratio = r.slo_ratio();
        if let Some(ratio) = ratio {
            self.slo_sketch.insert(ratio);
        }
        if self.exact() {
            push(&mut self.latencies, r.latency_s());
            push(&mut self.ttfts, r.ttft_s());
            if let Some(ratio) = ratio {
                push(&mut self.slo_ratios, ratio);
            }
        } else if self.retired.count == EXACT_STATS_MAX + 1 {
            self.drop_columns();
        }
    }

    /// Whether the exact columns hold every record folded in.
    fn exact(&self) -> bool {
        self.retired.count <= EXACT_STATS_MAX
    }

    fn drop_columns(&mut self) {
        (self.latencies, self.ttfts, self.slo_ratios) = Default::default();
    }

    /// Folds `other`'s counts, sums and sketches in after this fold's, as
    /// if one fold had seen both sequences; the columns stay where they
    /// are. The TTFT sum continues through `other`'s column, in completion
    /// order, so it re-associates only where `other` is past the threshold
    /// and adds its own partial sum.
    fn absorb(&mut self, other: &Self) {
        match other.exact() {
            true => other.ttfts.iter().for_each(|t| self.ttft_sum += t),
            false => self.ttft_sum += other.ttft_sum,
        }
        self.retired.merge(other.retired);
        self.generated += other.generated;
        self.good_tokens += other.good_tokens;
        self.met += other.met;
        self.last_requeued_finish_s = self.last_requeued_finish_s.max(other.last_requeued_finish_s);
        self.lat_sketch.merge(&other.lat_sketch);
        self.slo_sketch.merge(&other.slo_sketch);
    }
}

/// Appends `x` to an exact column: by `Vec`'s doubling up to
/// [`COLUMN_BLOCK`] records, a block at a time past it.
fn push(col: &mut Vec<f64>, x: f64) {
    if col.len() == col.capacity() && col.len() >= COLUMN_BLOCK {
        col.reserve_exact(COLUMN_BLOCK);
    }
    col.push(x);
}

/// What a set of folds say together — the one summary both reports read:
/// the folds' counts, sums and sketches merged in order, and each fold's
/// own latency and SLO-ratio columns. Up to [`EXACT_STATS_MAX`] completions
/// in total the columns are sorted in place and the percentiles selected
/// across them (byte-stable with every golden CSV); above it, unsorted, they
/// yield to the merged sketches, whose bucket counts, minimum and maximum
/// do not depend on order. Every statistic of an empty set is 0.
struct Stats<'f> {
    all: Fold,
    latencies: Vec<&'f [f64]>,
    slo_ratios: Vec<&'f [f64]>,
}

impl<'f> Stats<'f> {
    fn of(folds: impl IntoIterator<Item = &'f mut Fold>) -> Self {
        let folds: Vec<&'f mut Fold> = folds.into_iter().collect();
        let exact = folds.iter().map(|f| f.retired.count).sum::<usize>() <= EXACT_STATS_MAX;
        let (mut all, mut latencies, mut slo_ratios) = (Fold::default(), Vec::new(), Vec::new());
        for f in folds {
            all.absorb(f);
            // Unstable sorts are exact here: `total_cmp` ties only equal
            // bits. A second report's sorts find the columns sorted.
            if exact {
                f.latencies.sort_unstable_by(f64::total_cmp);
                f.slo_ratios.sort_unstable_by(f64::total_cmp);
            }
            let f: &'f Fold = f;
            latencies.push(&f.latencies[..]);
            slo_ratios.push(&f.slo_ratios[..]);
        }
        Self { all, latencies, slo_ratios }
    }

    fn latency(&self, q: f64) -> f64 {
        quantile(self.all.exact(), &self.latencies, &self.all.lat_sketch, q)
    }

    fn slo_ratio(&self, q: f64) -> f64 {
        quantile(self.all.exact(), &self.slo_ratios, &self.all.slo_sketch, q)
    }

    /// The latency sketch's view, on both paths, so the two can be
    /// compared on any run.
    fn sketch_latency(&self, q: f64) -> f64 {
        quantile(false, &[], &self.all.lat_sketch, q)
    }

    fn mean_ttft_s(&self) -> f64 {
        let n = self.all.retired.count;
        if n > 0 { self.all.ttft_sum / n as f64 } else { 0.0 }
    }

    /// Mean and maximum latency: the mean sums the *sorted* columns fold by
    /// fold (the single engine's report, its only reader, has one fold) and
    /// the max is the union's last element.
    fn mean_max_latency_s(&self) -> (f64, f64) {
        match (self.all.exact(), self.all.retired.count) {
            (true, 0) => (0.0, 0.0),
            (true, n) => (self.latencies.iter().copied().flatten().sum::<f64>() / n as f64, self.latency(1.0)),
            (false, _) => (self.all.lat_sketch.mean(), self.all.lat_sketch.max()),
        }
    }
}

impl ServingReport {
    /// The single engine's report: the fold over its one scheduler, with
    /// the scheduler's clock, phase times and preemptions, and the sizing
    /// [`crate::ServingEngine::serve`] ran it under — the batch limit and
    /// the page high-water mark it reports.
    pub(crate) fn fold(sched: &mut Scheduler, max_batch: usize, peak_unique_pages: usize) -> Self {
        let (clock, prefill_time_s, decode_time_s, preemptions) =
            (sched.clock(), sched.prefill_time_s(), sched.decode_time_s(), sched.preemptions());
        let f = Stats::of([sched.fold()]);
        let (mean_request_latency_s, max_request_latency_s) = f.mean_max_latency_s();
        Self {
            throughput_tps: rate(f.all.generated, clock),
            total_time_s: clock,
            prefill_time_s,
            decode_time_s,
            max_batch,
            completed: f.all.retired.count,
            mean_request_latency_s,
            max_request_latency_s,
            mean_ttft_s: f.mean_ttft_s(),
            p50_latency_s: f.latency(0.50),
            p95_latency_s: f.latency(0.95),
            p99_latency_s: f.latency(0.99),
            preemptions,
            peak_unique_pages,
            sketch_p50_latency_s: f.sketch_latency(0.50),
            sketch_p99_latency_s: f.sketch_latency(0.99),
        }
    }
}

/// Folds per-replica end-of-run state into one [`ClusterReport`].
pub(crate) fn aggregate(
    routing: &str,
    admission: &str,
    reps: &mut [ReplicaSlice<'_>],
    shed: &[(RequestId, Tier)],
    lost_prefill_tokens: usize,
    migration: MigrationTotals,
) -> ClusterReport {
    let mut preemptions = 0usize;
    let mut swap_outs = 0usize;
    let mut swap_out_pages = 0usize;
    let mut swap_in_pages = 0usize;
    let mut swap_bytes = 0u64;
    let mut makespan = 0.0f64;
    let mut per_replica = Vec::with_capacity(reps.len());
    for rep in reps.iter_mut() {
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
            completed: rep.sched.fold().retired.count,
            generated_tokens: rep.sched.fold().generated,
            clock_s: rep.sched.clock(),
            busy_s: rep.sched.busy_time_s(),
            utilization: 0.0, // filled in once the makespan is known
            preemptions: rep.sched.preemptions(),
            peak_unique_pages: rep.peak_pages,
            requeued_away: rep.requeued_away,
            restarts: rep.restarts,
            provisioned_s: 0.0, // filled in once the makespan is known
        });
    }
    for (r, slice) in per_replica.iter_mut().zip(reps.iter()) {
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
    let f = Stats::of(reps.iter_mut().map(|rep| rep.sched.fold()));
    let (completed, generated) = (f.all.retired.count, f.all.generated);
    let mut shed_by_tier = [0usize; 3];
    for (_, tier) in shed {
        shed_by_tier[tier.index()] += 1;
    }
    ClusterReport {
        routing: routing.to_string(),
        admission: admission.to_string(),
        replicas: per_replica.len(),
        completed,
        generated_tokens: generated,
        makespan_s: makespan,
        throughput_tps: rate(generated, makespan),
        goodput_tps: rate(f.all.good_tokens, makespan),
        slo_attainment: if completed > 0 { f.all.met as f64 / completed as f64 } else { 0.0 },
        slo_ratio_p50: f.slo_ratio(0.50),
        slo_ratio_p99: f.slo_ratio(0.99),
        shed: shed.len(),
        shed_by_tier,
        shed_ids: shed.iter().map(|&(id, _)| id).collect(),
        mean_ttft_s: f.mean_ttft_s(),
        p50_latency_s: f.latency(0.50),
        p99_latency_s: f.latency(0.99),
        sketch_p50_latency_s: f.sketch_latency(0.50),
        sketch_p99_latency_s: f.sketch_latency(0.99),
        preemptions,
        requeued: per_replica.iter().map(|r| r.requeued_away).sum(),
        lost_prefill_tokens,
        swap_outs,
        swap_out_pages,
        swap_in_pages,
        swap_bytes,
        migrations: migration.migrations,
        migrated_pages: migration.pages,
        migrated_bytes: migration.bytes,
        gpu_seconds,
        last_requeued_finish_s: f.all.last_requeued_finish_s,
        max_replica_peak_pages: per_replica
            .iter()
            .map(|r| r.peak_unique_pages)
            .max()
            .unwrap_or(0),
        per_replica,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, RoundRobin};
    use crate::engine::ServeConfig;
    use crate::ledger::{PageBudget, Reservation};
    use crate::request::{ArrivalPattern, Request, Slo, WorkloadSpec};
    use crate::scheduler::{Fcfs, SchedOptions, TickExecutor};
    use crate::{ServingEngine, SystemConfig};
    use qserve_gpusim::GpuSpec;
    use qserve_model::ModelConfig;
    use qserve_tensor::rng::TensorRng;

    /// Flat prices: `prefill` per admitted request (whole prompts: one
    /// slice each), `decode` per step.
    struct Flat {
        prefill: f64,
        decode: f64,
    }

    impl TickExecutor for Flat {
        fn prefill(&mut self, _: &Scheduler, slices: &[(RequestId, usize, usize)]) -> f64 {
            self.prefill * slices.len() as f64
        }
        fn swap(&mut self, _: &Scheduler, _: usize) -> f64 {
            unreachable!("the pool never runs dry")
        }
        fn decode(&mut self, _: &Scheduler) -> f64 {
            self.decode
        }
    }

    /// `requests` served FCFS at batch limit `limit` on a ledger no test
    /// workload comes near filling, at flat prices.
    fn served(requests: Vec<Request>, limit: usize, prefill: f64, decode: f64) -> Scheduler {
        let mut sched = Scheduler::open(limit, Box::new(Fcfs), SchedOptions::default());
        for r in requests {
            sched.submit(r);
        }
        let mut budget = PageBudget::new(16, 1, 1 << 40, Reservation::OnDemand);
        let mut exec = Flat { prefill, decode };
        while !sched.is_done() {
            sched.tick(&mut budget, &mut exec);
        }
        sched
    }

    fn report(sched: &mut Scheduler) -> ServingReport {
        ServingReport::fold(sched, 0, 0)
    }

    /// Nearest-rank percentile of one ascending-sorted slice (`q` in
    /// `(0, 1]`), by index — the oracle [`select`] is held to.
    fn percentile(sorted: &[f64], q: f64) -> f64 {
        assert!(!sorted.is_empty(), "percentile of empty sample");
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
    }

    #[test]
    fn fcfs_completes_everything_in_order() {
        let mut sched = served(WorkloadSpec::fixed(8, 4, 10).sample(), 3, 0.1, 0.01);
        let f = report(&mut sched);
        assert_eq!(f.completed, 10);
        assert_eq!(sched.fold().generated, 40);
        assert!(f.p50_latency_s <= f.p95_latency_s);
        assert!(f.p95_latency_s <= f.p99_latency_s);
        assert!(f.p99_latency_s <= f.max_request_latency_s);
        assert!(f.mean_ttft_s > 0.0 && f.mean_ttft_s <= f.mean_request_latency_s);
        assert_eq!(sched.preemptions(), 0);
    }

    /// A drawn retirement `id`: arrival, TTFT and latency with full
    /// 53-bit mantissas (so sums round), 1–64 output tokens, one of the
    /// three SLO tiers (tight enough that some miss), and now and then a
    /// crash requeue.
    fn record(rng: &mut TensorRng, id: u64) -> FinishedRequest {
        let mut seconds = |hi: f64| (rng.next_u64() >> 11) as f64 * hi / (1u64 << 53) as f64;
        let (arrival, ttft, decode) = (seconds(100.0), 0.01 + seconds(4.0), seconds(20.0));
        let slo = match rng.int_in(0, 2) {
            0 => Slo::interactive(0.5, 4.0),
            1 => Slo::standard(2.0, 16.0),
            _ => Slo::best_effort(),
        };
        let output = rng.int_in(1, 64) as usize;
        let mut r = Request::new(RequestId(id), 8, output, arrival).with_slo(slo);
        r.stamp_first_token(arrival + ttft);
        r.decoded(output);
        r.requeued = rng.int_in(0, 7) == 0;
        FinishedRequest::retire(&r, arrival + ttft + decode)
    }

    /// `records` cut into `k` consecutive runs, each folded on its own; the
    /// first cut falls below `first_below`.
    fn split(rng: &mut TensorRng, records: &[FinishedRequest], k: usize, first_below: usize) -> Vec<Fold> {
        let mut cuts: Vec<usize> = (1..k).map(|_| rng.index(records.len() + 1)).collect();
        if let Some(first) = cuts.first_mut() {
            *first = rng.index(first_below + 1);
        }
        cuts.extend([0, records.len()]);
        cuts.sort_unstable();
        cuts.windows(2).map(|w| fold_all(&records[w[0]..w[1]])).collect()
    }

    fn fold_all(records: &[FinishedRequest]) -> Fold {
        let mut fold = Fold::default();
        records.iter().for_each(|r| fold.add(r));
        fold
    }

    /// Every statistic either report reads off `s` — as text, which pins
    /// each `f64`'s bits — but the two means, which come back apart.
    fn read(s: &Stats) -> (String, [f64; 2]) {
        let (f, (mean_latency, max_latency)) = (&s.all, s.mean_max_latency_s());
        let text = format!(
            "{:?}",
            (
                (f.retired, f.generated, f.good_tokens, f.met, f.last_requeued_finish_s, max_latency),
                [0.50, 0.95, 0.99].map(|q| s.latency(q)),
                [0.50, 0.99].map(|q| (s.sketch_latency(q), s.slo_ratio(q))),
            )
        );
        (text, [s.mean_ttft_s(), mean_latency])
    }

    /// Two recursive sums of the same `n` positive terms differ by at most
    /// `2(n − 1)u` of the total, so their means by under `2n` ulps.
    fn assert_near(mean: f64, whole: f64, n: usize, what: &str) {
        let ulps = mean.to_bits().abs_diff(whole.to_bits());
        assert!(ulps < 2 * n as u64, "{what}: a mean {ulps} ulps away");
    }

    qserve_tensor::props! {
        /// Merging folds in order is one fold over the whole sequence, bit
        /// for bit on every statistic either report reads, for k = 1..4
        /// runs (empty runs included), while the total is within
        /// `EXACT_STATS_MAX` — all but the mean latency, which only the
        /// single engine's report reads (of one fold): over several folds it
        /// sums each one's sorted column in turn, so it re-associates and is
        /// held within `2n` ulps.
        fn merged_folds_are_one_fold_over_the_whole_sequence(rng) {
            let n = rng.int_in(0, 600) as usize;
            let records: Vec<FinishedRequest> = (0..n).map(|i| record(rng, i as u64)).collect();
            let (whole, [whole_ttft, whole_latency]) = read(&Stats::of([&mut fold_all(&records)]));
            for k in 1..=4 {
                let what = format!("{k} folds of {n} records");
                let (merged, [ttft, latency]) = read(&Stats::of(&mut split(rng, &records, k, n)));
                assert_eq!((merged, ttft.to_bits()), (whole.clone(), whole_ttft.to_bits()), "{what}");
                assert_near(latency, whole_latency, n, &what);
            }
        }

        /// Past `EXACT_STATS_MAX` every statistic but the two means is still
        /// the one fold's, bit for bit: sketch counts, minimum and maximum
        /// do not depend on order. The means re-associate where a later fold
        /// is itself past the threshold (the first cut leaves the rest that
        /// long) and adds its partial sum — the mean TTFT, and the latency
        /// sketch's mean, which only the single engine's report reads, from
        /// one scheduler's fold.
        fn merged_folds_past_the_threshold_move_only_the_means(rng, cases = 3) {
            let n = EXACT_STATS_MAX + 1 + rng.index(EXACT_STATS_MAX);
            let records: Vec<FinishedRequest> = (0..n).map(|i| record(rng, i as u64)).collect();
            let (whole, whole_means) = read(&Stats::of([&mut fold_all(&records)]));
            for k in 1..=4 {
                let what = format!("{k} folds of {n} records");
                let (merged, means) = read(&Stats::of(&mut split(rng, &records, k, n - EXACT_STATS_MAX - 1)));
                assert_eq!(merged, whole, "{what}");
                for (mean, whole_mean) in means.into_iter().zip(whole_means) {
                    assert_near(mean, whole_mean, n, &what);
                }
            }
        }

        /// Selecting across sorted columns is `percentile` of their sorted
        /// concatenation, bit for bit, for k = 0..=6 columns — empty and
        /// one-element columns, duplicates, ±0.0 and subnormals among them
        /// (`total_cmp` orders −0.0 below +0.0) — and 0 for an empty union.
        fn selection_is_the_sorted_concatenations_percentile(rng) {
            let odd = [0.0, -0.0, 5e-324, -5e-324, f64::MIN_POSITIVE / 3.0, 1.0, -1.0];
            let mut cols: Vec<Vec<f64>> = (0..rng.int_in(0, 6))
                .map(|_| {
                    let len = match rng.int_in(0, 3) {
                        0 => 0,
                        1 => 1,
                        _ => rng.index(40),
                    };
                    (0..len)
                        .map(|_| match rng.int_in(0, 2) {
                            0 => rng.choose(&odd),
                            1 => rng.int_in(-3, 3) as f64 / 4.0,
                            _ => (rng.next_u64() >> 11) as f64 / (1u64 << 40) as f64,
                        })
                        .collect()
                })
                .collect();
            cols.iter_mut().for_each(|c| c.sort_unstable_by(f64::total_cmp));
            let mut union = cols.concat();
            union.sort_unstable_by(f64::total_cmp);
            let cols: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
            for q in [0.5, 0.95, 0.99, 1.0] {
                let want = if union.is_empty() { 0.0 } else { percentile(&union, q) };
                assert_eq!(select(&cols, q).to_bits(), want.to_bits(), "q = {q} over {cols:?}");
            }
        }
    }

    /// Sorting a fold's columns in place twice sorts nothing the second
    /// time: a second report off the same scheduler reads the same bits.
    #[test]
    fn a_second_report_off_one_scheduler_is_the_first() {
        let reqs = WorkloadSpec::mixed(48, 3)
            .with_arrivals(ArrivalPattern::Poisson { rate_rps: 8.0 })
            .sample();
        let mut sched = served(reqs, 4, 0.05, 0.01);
        let first = format!("{:?}", report(&mut sched));
        assert_eq!(format!("{:?}", report(&mut sched)), first);
    }

    /// A report sorts the latency and SLO-ratio columns, never the TTFT
    /// column, whose order later folds' TTFT sums continue through.
    #[test]
    fn a_report_leaves_the_ttft_column_in_completion_order() {
        let mut rng = TensorRng::seed(5);
        let records: Vec<FinishedRequest> = (0..300).map(|i| record(&mut rng, i)).collect();
        let mut folds = [fold_all(&records[..120]), fold_all(&records[120..])];
        Stats::of(&mut folds);
        let ttfts: Vec<f64> = folds.iter().flat_map(|f| f.ttfts.iter().copied()).collect();
        assert_eq!(ttfts, records.iter().map(FinishedRequest::ttft_s).collect::<Vec<_>>());
        assert!(folds.iter().all(|f| f.latencies.is_sorted_by(|a, b| a.total_cmp(b).is_le())));
    }

    /// Past `EXACT_STATS_MAX` completions in total the sketches answer, so
    /// a report sorts no column even where every fold still holds its own.
    #[test]
    fn a_report_past_the_threshold_leaves_every_column_in_completion_order() {
        let mut rng = TensorRng::seed(13);
        let n = EXACT_STATS_MAX + 2;
        let records: Vec<FinishedRequest> = (0..n as u64).map(|i| record(&mut rng, i)).collect();
        let mut folds = [fold_all(&records[..n / 2]), fold_all(&records[n / 2..])];
        assert!(folds.iter().all(Fold::exact), "each fold holds its columns");
        let stats = Stats::of(&mut folds);
        assert!(!stats.all.exact());
        let column = |col: fn(&Fold) -> &Vec<f64>| -> Vec<f64> {
            folds.iter().flat_map(|f| col(f).iter().copied()).collect()
        };
        let latencies: Vec<f64> = records.iter().map(FinishedRequest::latency_s).collect();
        let slo_ratios: Vec<f64> = records.iter().filter_map(FinishedRequest::slo_ratio).collect();
        assert_eq!(column(|f| &f.latencies), latencies);
        assert_eq!(column(|f| &f.slo_ratios), slo_ratios);
    }

    /// A column doubles up to `COLUMN_BLOCK` records and grows a block at a
    /// time past it, so it holds at most one block of slack.
    #[test]
    fn columns_grow_by_doubling_then_by_blocks() {
        let mut rng = TensorRng::seed(9);
        let mut fold = Fold::default();
        for n in 1..=5 * COLUMN_BLOCK + 1 {
            fold.add(&record(&mut rng, n as u64));
            for col in [&fold.latencies, &fold.ttfts] {
                match n <= COLUMN_BLOCK {
                    true => assert_eq!(col.capacity(), n.next_power_of_two().max(4), "n = {n}"),
                    false => assert!((n..=n + COLUMN_BLOCK).contains(&col.capacity()), "n = {n}"),
                }
            }
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn percentile_single_sample_well_defined_for_all_q() {
        // The single-request edge case: every percentile of a one-element
        // sample is that element — p50 == p95 == p99 == max, no index
        // arithmetic at the array edge.
        for q in [0.001, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&[3.25], q), 3.25, "q = {}", q);
        }
        // Two samples: the nearest-rank split lands between them.
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.51), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.99), 2.0);
    }

    #[test]
    fn single_request_stats_have_degenerate_percentiles() {
        let f = report(&mut served(WorkloadSpec::fixed(8, 4, 1).sample(), 2, 0.1, 0.01));
        assert_eq!(f.completed, 1);
        assert_eq!(f.p50_latency_s, f.max_request_latency_s);
        assert_eq!(f.p95_latency_s, f.max_request_latency_s);
        assert_eq!(f.p99_latency_s, f.max_request_latency_s);
        assert_eq!(f.mean_request_latency_s, f.max_request_latency_s);
    }

    #[test]
    fn stats_sketch_fields_track_exact_percentiles() {
        let reqs = WorkloadSpec::mixed(64, 9)
            .with_arrivals(ArrivalPattern::Poisson { rate_rps: 8.0 })
            .sample();
        let f = report(&mut served(reqs, 4, 0.05, 0.01));
        // Below EXACT_STATS_MAX the exact path is authoritative; the sketch
        // must agree to within one bucket width (2.2%) from below.
        for (exact, sketch) in [
            (f.p50_latency_s, f.sketch_p50_latency_s),
            (f.p99_latency_s, f.sketch_p99_latency_s),
        ] {
            assert!(
                sketch <= exact && exact <= sketch * (1.0 + 1.0 / 32.0),
                "sketch {sketch} vs exact {exact}"
            );
        }
    }

    #[test]
    fn an_empty_workload_reports_all_zero_through_both_entry_points() {
        let engine =
            ServingEngine::new(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel)
                .expect("A100 serves Llama-2-7B");
        let spec = WorkloadSpec::chat(0, 1);
        let r = engine.serve(&spec, Box::new(Fcfs), ServeConfig::worst_case()).expect("serves");
        assert!(r.max_batch > 0, "the sizing still ran");
        let zero = ServingReport {
            throughput_tps: 0.0,
            total_time_s: 0.0,
            prefill_time_s: 0.0,
            decode_time_s: 0.0,
            max_batch: r.max_batch,
            completed: 0,
            mean_request_latency_s: 0.0,
            max_request_latency_s: 0.0,
            mean_ttft_s: 0.0,
            p50_latency_s: 0.0,
            p95_latency_s: 0.0,
            p99_latency_s: 0.0,
            preemptions: 0,
            peak_unique_pages: 0,
            sketch_p50_latency_s: 0.0,
            sketch_p99_latency_s: 0.0,
        };
        assert_eq!(r, zero);
        let c = Cluster::new(engine, 2, Box::new(RoundRobin::default()))
            .serve_paged(&spec, || Box::new(Fcfs), Reservation::OnDemand, SchedOptions::default())
            .expect("serves");
        assert_eq!((c.completed, c.generated_tokens, c.shed, c.preemptions), (0, 0, 0, 0));
        for x in [
            c.makespan_s,
            c.throughput_tps,
            c.goodput_tps,
            c.slo_attainment,
            c.slo_ratio_p50,
            c.slo_ratio_p99,
            c.mean_ttft_s,
            c.p50_latency_s,
            c.p99_latency_s,
            c.gpu_seconds,
            c.sketch_p50_latency_s,
            c.sketch_p99_latency_s,
        ] {
            assert_eq!(x, 0.0);
        }
    }

    /// The third serve entry point, beside the two above: the functional
    /// stack serves an empty workload as no requests, not a panic.
    #[test]
    fn an_empty_workload_serves_nothing_through_the_functional_stack() {
        use qserve_core::pipeline::QoqConfig;
        use qserve_model::synth::SyntheticModel;
        let model = SyntheticModel::small(1);
        let calib = qserve_tensor::rng::TensorRng::seed(1).token_sequence(16, model.config.vocab);
        let mut rt = crate::ModelRuntime::deploy(&model, &QoqConfig::w4a8kv4_g128(), &calib, 64);
        let served = rt.serve_with(&WorkloadSpec::chat(0, 1), 4, Box::new(Fcfs), SchedOptions::default());
        assert_eq!(served, Ok(vec![]));
        assert_eq!(rt.cache().used_pages(), 0);
    }
}
