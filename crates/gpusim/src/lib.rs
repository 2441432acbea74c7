//! Analytical GPU cost model for the QServe reproduction.
//!
//! The paper's performance arguments are roofline and operation-counting
//! arguments (§3, §5.3): CUDA-core dequantization competes with tensor-core
//! MMA inside the GEMM main loop; KV4 attention is memory-bound only if its
//! arithmetic intensity stays under the CUDA-core roofline turning point.
//! This crate implements those equations for the two evaluation GPUs:
//!
//! * [`spec`] — A100-80G-SXM4 and L40S-48G datasheets (tensor-core TOPS per
//!   precision, CUDA-core throughput, HBM bandwidth, capacity, price).
//! * [`roofline`] — attainable-performance curves (Figure 3).
//! * [`gemm_model`] / [`attention_model`] — main-loop GEMM latency and
//!   decode/prefill attention latency for every kernel design in the
//!   paper's comparison. A design is one row of constants; the README's
//!   "Where a cost comes from" tables list them with their paper sources.
//! * [`tp`] — tensor-parallel groups: exact-integer shard shapes plus a
//!   ring all-reduce cost term (TP=1 degenerates to the single-GPU model
//!   bit for bit).
//!
//! Absolute times are model outputs, not measurements; the calibrated
//! quantities are the *ratios* the paper's figures argue about (who wins,
//! where the crossovers sit). See DESIGN.md §1.

pub mod attention_model;
pub mod gemm_model;
pub mod roofline;
pub mod spec;
pub mod tp;

pub use attention_model::{attention_decode_latency, AttentionKernel, AttentionShape};
pub use gemm_model::{gemm_latency, GemmConfig, GemmShape};
pub use spec::GpuSpec;
pub use tp::{HostLink, TpGroup};
