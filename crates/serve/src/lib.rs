//! The QServe serving system (§5.1, §6.3).
//!
//! * [`kv_cache`] — paged KV cache with *inline per-head dynamic scales*:
//!   FP16 scale/zero pairs stored immediately after the quantized features in
//!   each page, updatable on the fly (unlike vLLM/TRT-LLM's offline
//!   per-tensor scales).
//! * [`memory`] — device memory budgeting: weights + workspace + KV pages,
//!   and the max-batch search the throughput benchmark relies on ("maximum
//!   achievable throughput within the same memory constraints").
//! * [`baselines`] — system models for every baseline in Figures 2b/15/17:
//!   TensorRT-LLM (FP16 / W8A8 / W4A16), Atom and QuaRot (W4A4), alongside
//!   QServe per-channel and per-group.
//! * [`request`] — the request model: per-request lengths and arrival
//!   times, a lifecycle state machine, and seeded heterogeneous workload
//!   generation ([`WorkloadSpec`]).
//! * [`scheduler`] — the request-lifecycle scheduler core: pluggable
//!   [`SchedulingPolicy`] admission (FCFS, shortest-job-first,
//!   memory-aware), KV page budgets with optional recompute preemption, and
//!   latency/TTFT statistics. Shared by the analytic engine and the real
//!   execution path — the single continuous-batching implementation. The
//!   page ledger ([`PageBudget`]) also holds the modeled host-memory KV
//!   tier behind swap-style preemption, where victims spill private pages
//!   at PCIe cost instead of recomputing.
//! * [`engine`] — a continuous-batching serving engine running against the
//!   `qserve-gpusim` cost model: the scheduler core driven by per-sequence
//!   prefill/decode costs (each sequence charged at its true KV length),
//!   optionally as a tensor-parallel group of GPUs.
//! * [`cluster`] — scale-out: N engine replicas, possibly of mixed
//!   hardware (each with its own spec-derived cost model, page pool,
//!   scheduler and clock), driven by the event-driven core.
//! * [`control`] — the cluster's control plane: pluggable
//!   [`AdmissionPolicy`] (admit-all, deadline-feasibility, priority load
//!   shedding) and [`RoutingPolicy`] (round-robin, work-normalized
//!   least-outstanding, prefix-affinity, deadline-aware) behind a
//!   [`ControlPlane`] that also decides cross-replica prefix migration,
//!   plus the [`AutoscalePolicy`] elastic-fleet layer.
//! * [`report`] — end-of-run aggregation: per-replica slices folded into a
//!   [`ClusterReport`] (throughput/goodput, SLO attainment, latency
//!   percentiles, migration and fleet-cost accounting).
//! * [`event`] — the deterministic priority event queue behind the
//!   event-driven core: `(time.to_bits(), lane, seq)` total ordering over
//!   a binary heap, O(log n) per event.
//! * [`fault`] — deterministic replica lifecycle plans ([`FaultPlan`]):
//!   seeded crash/drain/restart/rolling-upgrade schedules injected as the
//!   cluster's fault event lane, so failures interleave reproducibly
//!   with arrivals and completions.
//! * [`sketch`] — streaming fixed-bucket percentile sketch: O(1) insert,
//!   deterministic quantiles, bounded memory — latency percentiles for
//!   million-request traces without buffering every sample.
//!
//! The engine's scheduler/cache logic is real (allocation, batching,
//! accounting all execute); only kernel *wall-clock* comes from the cost
//! model (DESIGN.md §1).

pub mod attention_exec;
pub mod baselines;
pub mod block_exec;
pub mod cluster;
pub mod control;
pub mod engine;
pub mod event;
pub mod fault;
pub mod kv_cache;
pub mod memory;
pub mod model_exec;
pub mod prefix;
pub mod report;
pub mod request;
pub mod scheduler;
pub mod sketch;

pub use attention_exec::paged_decode_attention;
pub use block_exec::BlockRuntime;
pub use cluster::Cluster;
pub use control::{
    Admission, AdmissionPolicy, AdmitAll, AutoscaleConfig, AutoscalePolicy, ControlPlane,
    DeadlineAware, DeadlineFeasible, LeastOutstanding, MigrationConfig, Placement, PrefixAffinity,
    PriorityShed, QueuePressureScaler, ReplicaView, RoundRobin, RoutingPolicy,
};
pub use report::{ClusterReport, ReplicaReport};
pub use model_exec::ModelRuntime;
pub use baselines::SystemConfig;
pub use engine::{
    BatchLimit, KvModel, ServeConfig, ServingEngine, ServingReport, SpeedProfile,
};
pub use event::EventQueue;
pub use fault::{Fault, FaultKind, FaultPlan, Lifecycle};
pub use kv_cache::{KvPageExport, PagedKvCache, SequenceId};
pub use prefix::PrefixIndex;
pub use request::{
    ArrivalPattern, LengthDist, PrefixSharing, Request, RequestId, RequestState, Slo, SloSpec,
    Tier, WorkloadSpec,
};
pub use scheduler::{
    Fcfs, FinishedRequest, KvBudget, MemoryAware, PageBudget, PreemptionMode, Reservation,
    Scheduler, SchedulingPolicy, ShortestJobFirst, UnboundedBudget,
};
pub use sketch::{PercentileSketch, EXACT_STATS_MAX};
