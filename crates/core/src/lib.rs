//! The QoQ (quattuor-octō-quattuor, W4A8KV4) quantization algorithm — the
//! primary contribution of *QServe* (MLSys 2025), §4 of the paper.
//!
//! The algorithm quantizes LLMs to 4-bit weights, 8-bit activations and 4-bit
//! KV caches while keeping all GEMMs on INT8 tensor cores:
//!
//! * [`progressive`] — **progressive group quantization** (§4.1): per-channel
//!   symmetric INT8 with the protective range `[-119, 119]`, then per-group
//!   asymmetric UINT4 with *integer* (u8) group scales, so level-2
//!   dequantization is pure INT8 arithmetic that provably never overflows.
//! * [`smooth_attention`] — **SmoothAttention** (§4.2): migrate Key-cache
//!   outliers into the (unquantized) Queries with `λᵢ = max|Kᵢ|^α`, under the
//!   RoPE pairing constraint `λᵢ = λᵢ₊D/₂`.
//! * [`rotation`] — **block input rotation** (§4.3.1): scaled-Hadamard
//!   rotation of block inputs to suppress activation outliers.
//! * [`smoothing`] — **block output smoothing** (§4.3.2): SmoothQuant-style
//!   migration for output modules with migration strength near 0.
//! * [`reorder`] — **activation-aware channel reordering** (§4.3.3): a
//!   permutation of *input channels* by activation salience, chosen from
//!   calibration data and used by [`pipeline`]. Not the compute-aware weight
//!   reorder of §5.2 / Figure 12 — that is a storage layout, and [`pack`] is
//!   the only one this workspace has.
//! * [`clipping`] — **weight clipping** via grid search on layer/block output
//!   MSE (§4.3.4).
//! * [`pack`] — the INT4 storage format: the `w0,w16,w1,w17,…` interleave
//!   and three-op unpack of Figure 13. It lives here, not in the kernels
//!   crate, because the weight types pack themselves once at `quantize`
//!   time ([`pack::pack_rows`]): "store weights in the order the main loop
//!   streams them", decided here once and pinned by
//!   `tests/frozen_deployment.rs`.
//! * [`kv_quant`] — per-head, dynamic, asymmetric INT4/INT8 KV quantization
//!   (§5.1).
//! * [`pipeline`] — the end-to-end QoQ recipe applied to a transformer block,
//!   with each technique individually toggleable (this powers the Figure 16
//!   ablation).

pub mod clipping;
pub mod kv_quant;
pub mod pack;
pub mod pipeline;
pub mod progressive;
pub mod reorder;
pub mod rotation;
pub mod smooth_attention;
pub mod smoothing;

pub use pipeline::{QoqConfig, WeightGranularity};
pub use progressive::{PerChannelW4, ProgressiveWeight};
