//! The program under test, as the benchmark is allowed to see it.
//!
//! Later changes may not edit `benchmark/`, and ROADMAP already schedules
//! deletions in `crates/serve` and `crates/bench` (the step-reference
//! driver, `Replica::tick`, the allocating scheduler twins, the
//! `run_workload*` / `run_scheduled*` aliases, the `*_sized` sweep
//! bodies). So every name the benchmark binds to is imported here and
//! nowhere else: a rename breaks one file, and a reviewer can read the
//! whole contract between the benchmark and the program in one screen.
//!
//! Deliberately absent: the scheduler's step functions (`admit`,
//! `make_room`, `decode_step`, ...). They are about to lose their
//! allocating twins; the scheduler is measured jointly with the engine as
//! "the tick" through [`ServingEngine::serve`].

// --- analytic simulator -----------------------------------------------
pub use qserve_gpusim::attention_model::{
    attention_decode_latency_hetero, attention_prefill_latency_chunked,
};
pub use qserve_gpusim::{gemm_latency, AttentionKernel, GemmConfig, GemmShape, GpuSpec, HostLink};
pub use qserve_serve::scheduler::{SchedOptions, SchedulingPolicy};
pub use qserve_serve::{
    AdmitAll, ArrivalPattern, AutoscaleConfig, BatchLimit, Cluster, ClusterReport, ControlPlane,
    DeadlineAware, DeadlineFeasible, EventQueue, FaultPlan, Fcfs, KvModel, LeastOutstanding,
    LengthDist, MemoryAware, MigrationConfig, PercentileSketch, Placement, PreemptionMode,
    PrefixAffinity, PrefixSharing, QueuePressureScaler, ReplicaView, Request, RequestId,
    Reservation, ServeConfig, ServingEngine, ServingReport, Slo, SloSpec, SpeedProfile,
    SystemConfig, WorkloadSpec,
};

// --- functional W4A8KV4 stack -----------------------------------------
pub use qserve_core::kv_quant::KvPrecision;
pub use qserve_core::pipeline::{quantize_block, DeployedWeight, QoqConfig, WeightGranularity};
pub use qserve_core::progressive::{PerChannelW4, ProgressiveWeight};
pub use qserve_kernels::attention::{decode_attention_fp16, QuantizedKvHead};
pub use qserve_kernels::gemm::{
    gemm_w4a8_per_channel, gemm_w4a8_per_group, quantize_activations_int8,
};
pub use qserve_model::forward::{collect_calibration, forward_logits};
pub use qserve_model::synth::{SynthesisOptions, SyntheticModel};
pub use qserve_model::ModelConfig;
pub use qserve_serve::kv_cache::KvCacheConfig;
pub use qserve_serve::model_exec::ServedRequest;
pub use qserve_serve::{
    paged_decode_attention, BlockRuntime, ModelRuntime, PagedKvCache, PrefixIndex, SequenceId,
};
pub use qserve_tensor::rng::TensorRng;
pub use qserve_tensor::Matrix;

// --- sweep harness ----------------------------------------------------
pub use qserve_bench::run_experiment;
pub use qserve_bench::timing::black_box;
pub use qserve_tensor::pool::Pool;
