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
//! * [`rlp`] — register-level parallelism primitives: `vadd4` and the
//!   lane-parallel u8 multiply; its tests demonstrate the overflow of
//!   Figure 14(a).
//! * `mma` — INT8 tensor-core matrix-multiply-accumulate emulation: the
//!   one integer dot (`dot_rows_i16` over `dot_i16`) both GEMMs run.
//! * [`gemm`] — the W4A8 GEMM kernels: per-channel (§5.2.2, zero-points fused
//!   into the epilogue via Equation 12/13) and per-group (§5.2.3, two-level
//!   dequantization with subtraction after multiplication).
//! * [`attention`] — the KV4 decoding attention kernel (§5.3): FP16 math,
//!   two-op dequantization via the fp16 magic-bias bit trick, per-head
//!   dynamic scales fetched from the KV page.
//!
//! **What is executed here.** A kernel is executed in this crate iff `serve`
//! deploys it or a test uses it as the oracle for one that is; every other
//! system in the paper's comparison (TRT-LLM W8A8 / W4A16, Atom W4A4) is
//! priced in `qserve-gpusim`, never run. The weights the GEMMs stream are
//! laid out once, offline, by `qserve_core::pack::pack_rows` — the only
//! offline weight layout in the workspace: the emulated MMA is a dot product
//! over a weight row, not a per-thread `m16n8k32` fragment, so Figure 12's
//! thread order has no consumer here.

pub mod attention;
pub mod gemm;
mod mma;
pub mod rlp;

pub use gemm::{gemm_w4a8_per_channel, gemm_w4a8_per_group, quantize_activations_int8};
pub use pack::{pack_interleaved, unpack_interleaved, PackedInt4};
pub use qserve_core::pack;
