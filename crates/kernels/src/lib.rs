//! Bit-exact emulation of the QServe GPU kernels (§5 of the paper).
//!
//! We have no NVIDIA GPU in this environment, so instead of PTX these kernels
//! run on *emulated 32-bit registers*: every logical operation the paper's
//! CUDA kernels perform — nibble masks and shifts, lane-parallel `vadd4`
//! additions, the zero-padded-scale multiplication trick, INT8 MMA with INT32
//! accumulators, FP16 arithmetic in the attention kernel — is performed here
//! on real `u32`/`i32`/binary16 values with identical semantics. The paper's
//! correctness-critical claims (the protective range makes register-level
//! parallelism safe; zero-point subtraction can move to the epilogue; the
//! interleaved packing unpacks in three logic ops) are therefore *verified*,
//! not just asserted.
//!
//! Modules:
//!
//! * [`pack`] — INT4 nibble packing with the `w0,w16,w1,w17,…` interleave of
//!   Figure 13, and the three-op unpack (re-exported from `qserve-core`,
//!   whose weight types pack themselves offline at `quantize` time).
//! * [`rlp`] — register-level parallelism primitives: `vadd4`, lane-parallel
//!   u8 multiply, and the overflow demonstration of Figure 14.
//! * [`reorder`] — compute-aware weight reordering (Figure 12): the 32×32
//!   tile layout that stores weights in the exact order threads consume them.
//! * [`mma`] — INT8 tensor-core matrix-multiply-accumulate emulation.
//! * [`gemm`] — the W4A8 GEMM kernels: per-channel (§5.2.2, zero-points fused
//!   into the epilogue via Equation 12/13) and per-group (§5.2.3, two-level
//!   dequantization with subtraction after multiplication).
//! * [`attention`] — the KV4 decoding attention kernel (§5.3): FP16 math,
//!   two-op dequantization via the fp16 magic-bias bit trick, per-head
//!   dynamic scales fetched from the KV page.

pub mod attention;
pub mod baseline_gemm;
pub mod gemm;
pub mod mma;
pub mod reorder;
pub mod rlp;

pub use baseline_gemm::{gemm_w4a16, gemm_w4a4_atom};
pub use gemm::{gemm_w4a8_per_channel, gemm_w4a8_per_group, gemm_w8a8, quantize_activations_int8};
pub use pack::{pack_interleaved, unpack_interleaved, PackedInt4};
pub use qserve_core::pack;
