//! GEMM main-loop latency model (§3.2, Figure 5, Figure 18).
//!
//! For an `m×n×k` GEMM the model charges three resources:
//!
//! * **memory**: weights + activations + outputs (+ group scales) over HBM at
//!   an achieved-bandwidth fraction;
//! * **tensor cores**: `2mnk` ops at the compute precision's peak, scaled by
//!   an occupancy factor (Atom/QuaRot's duplicated INT32+FP32 accumulators
//!   cut concurrent warps, §3.2);
//! * **CUDA cores**: the main-loop dequantization ops each kernel design
//!   performs (Figure 5) — zero for FP16/W8A8, weight conversion for
//!   W4A16, *partial-sum* conversion for W4A4, and the cheap
//!   register-level-parallel sequence for QServe's W4A8.
//!
//! `latency = max(mem, tc) + dequant + launch overhead`: tensor-core and
//! CUDA-core work sit on the same dependency chain inside the main loop
//! (they cannot overlap within an iteration), while memory transfers are
//! pipelined against compute via `cp.async` multi-stage buffering (§5.2.4).

use crate::spec::GpuSpec;

/// Fraction of peak HBM bandwidth a well-tuned GEMM achieves.
const GEMM_BW_EFFICIENCY: f64 = 0.8;
/// Fraction of peak CUDA-core throughput achieved inside a main loop.
const CUDA_EFFICIENCY: f64 = 0.6;

/// The GEMM kernel designs compared in the paper (Figures 2b, 15, 17, 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmConfig {
    /// TensorRT-LLM FP16 (Figure 5a's dataflow at 16-bit).
    TrtFp16,
    /// TensorRT-LLM W8A8: INT8 main loop, epilogue-only dequant (Figure 5a).
    TrtW8A8,
    /// TensorRT-LLM W4A16: INT4→FP16 weight conversion in the main loop
    /// (Figure 5b).
    TrtW4A16,
    /// Atom W4A4 g128: INT32→FP32 partial-sum conversion in the main loop +
    /// doubled accumulator registers (Figure 5c).
    AtomW4A4,
    /// QuaRot W4A4: same main-loop structure as Atom.
    QuarotW4A4,
    /// QServe W4A8 per-channel: 3-op unpack only; zero-points fused into the
    /// epilogue (§5.2.2).
    QServeW4A8PerChannel,
    /// QServe W4A8 per-group: 3-op unpack + 2-op sub-after-mul RLP dequant
    /// (§5.2.3).
    QServeW4A8PerGroup,
    /// DGQ-style W4A8: dequantization in a *separate kernel* from the GEMM
    /// (§4.1: "the end-to-end latency of W4A8 GEMM in DGQ is even slower
    /// than the W8A8 GEMM in cuBLAS").
    DgqW4A8Unfused,
    /// QServe's per-group kernel with per-lane *saturating* arithmetic
    /// instead of the protective range — no register-level parallelism, so
    /// each weight costs scalar saturated ops (§4.1: "simply applying
    /// saturation will severely damage the computation throughput, reducing
    /// speed by as much as 67%").
    QServeW4A8Saturated,
}

/// The constants [`gemm_latency`] reads for one kernel design. A kernel is
/// one row of these; nothing else in the model knows a kernel by name.
#[derive(Debug, Clone, Copy)]
struct GemmRow {
    weight_bits: u32,
    /// Activation storage bits — also the tensor-core operand width: every
    /// design computes at its activation precision (W4A16 converts weights
    /// up to FP16, W4A8 up to INT8).
    act_bits: u32,
    /// Main-loop CUDA-core ops per *weight element load*.
    ops_per_weight: f64,
    /// Main-loop CUDA-core ops per *partial-sum element per k-tile*.
    ops_per_partial_sum: f64,
    /// Fraction of warps left in flight for latency hiding.
    occupancy: f64,
    /// Quantization group size along `k`, for kernels with per-group scales.
    group_size: Option<f64>,
    /// The dequantization sequence is pure INT32 logic (lop3 / vadd4) at the
    /// full ALU rate, not converts on the FP32 pipe.
    int32_dequant: bool,
    /// Dequantization runs as a kernel of its own before the GEMM.
    unfused: bool,
}

impl GemmConfig {
    fn row(self) -> GemmRow {
        // Figure 5a at 16 bits: nothing to dequantize, per-channel scales.
        const FP16: GemmRow = GemmRow {
            weight_bits: 16,
            act_bits: 16,
            ops_per_weight: 0.0,
            ops_per_partial_sum: 0.0,
            occupancy: 1.0,
            group_size: None,
            int32_dequant: false,
            unfused: false,
        };
        const G128: Option<f64> = Some(128.0);
        // Figure 13: 3 logic ops unpack 8 weights.
        const UNPACK: f64 = 3.0 / 8.0;
        const W4A8_G128: GemmRow =
            GemmRow { weight_bits: 4, act_bits: 8, ops_per_weight: UNPACK, group_size: G128, ..FP16 };
        match self {
            GemmConfig::TrtFp16 => FP16,
            GemmConfig::TrtW8A8 => GemmRow { weight_bits: 8, act_bits: 8, ..FP16 },
            // Figure 5b: INT4→FP16 with fast lop3 tricks + per-group scale FMA.
            GemmConfig::TrtW4A16 => {
                GemmRow { weight_bits: 4, ops_per_weight: 1.0, group_size: G128, ..FP16 }
            }
            // Figure 5c, §3.2: the *sums* are dequantized — INT32→FP32 convert
            // + two scale FMAs + add each ("equivalent to 50 tensor core
            // MACs") — while every weight still pays the scale/zero fetches
            // and strided addressing of two group-quantized operands, and the
            // duplicate INT32 + FP32 accumulator sets cut the warps in flight.
            GemmConfig::AtomW4A4 | GemmConfig::QuarotW4A4 => GemmRow {
                weight_bits: 4,
                act_bits: 4,
                ops_per_weight: 1.0,
                ops_per_partial_sum: 4.0,
                occupancy: 0.6,
                group_size: G128,
                ..FP16
            },
            // §5.2.2: zero-points fused into the epilogue; the unpack is all.
            GemmConfig::QServeW4A8PerChannel => {
                GemmRow { group_size: None, int32_dequant: true, ..W4A8_G128 }
            }
            // Figure 14b: + one vmul and one vadd4 per 4 weights.
            GemmConfig::QServeW4A8PerGroup => {
                GemmRow { ops_per_weight: UNPACK + 2.0 / 4.0, int32_dequant: true, ..W4A8_G128 }
            }
            // §4.1: the main loop dequantizes nothing; the cost is the kernel
            // before it (priced in `gemm_latency`).
            GemmConfig::DgqW4A8Unfused => GemmRow { ops_per_weight: 0.0, unfused: true, ..W4A8_G128 },
            // §4.1: per-lane saturating mul+sub with no 4-way packing — the
            // unpack plus ~1.4 scalar saturated ops per element of a lane, on
            // the FP32 pipe.
            GemmConfig::QServeW4A8Saturated => {
                GemmRow { ops_per_weight: UNPACK + 5.6, ..W4A8_G128 }
            }
        }
    }

    /// Weight storage bits.
    pub fn weight_bits(self) -> u32 {
        self.row().weight_bits
    }

    /// Activation storage bits, which is also the tensor-core operand width
    /// the kernel computes in.
    pub fn act_bits(self) -> u32 {
        self.row().act_bits
    }
}

/// `m×n×k` problem: `m` tokens, `n` output channels, `k` input channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Tokens (the computation-intensity axis of Figure 3).
    pub m: usize,
    /// Output channels.
    pub n: usize,
    /// Input channels (reduction).
    pub k: usize,
}

/// The k-tile depth of one main-loop iteration (partial sums are converted
/// once per iteration in Atom-style kernels).
const K_TILE: f64 = 64.0;
/// Output-tile height: weights are re-loaded (and re-dequantized) once per
/// `TILE_M` tokens.
const TILE_M: f64 = 128.0;

/// Breakdown of one modelled GEMM execution.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint: allow(unreferenced-pub) -- return type of `gemm_latency` (bound by benchmark/src/surface.rs); callers read its fields
pub struct GemmLatency {
    /// Memory pipeline time (occupancy-adjusted), seconds.
    pub memory_s: f64,
    /// Tensor-core time (occupancy-adjusted), seconds.
    pub tensor_core_s: f64,
    /// Main-loop CUDA-core dequantization time, seconds.
    pub dequant_s: f64,
    /// Total modelled latency, seconds.
    pub total_s: f64,
}

impl GemmLatency {
    /// Fraction of total runtime spent on main-loop dequantization (the
    /// Figure 18 metric: achieved speed vs a dequantization-free kernel).
    pub fn dequant_overhead(&self) -> f64 {
        if self.dequant_s.abs().to_bits() == 0 {
            0.0
        } else {
            self.dequant_s / self.total_s
        }
    }
}

/// Models one GEMM execution.
///
/// `total = max(memory, tensor-core) + dequant + launch overhead`: `cp.async`
/// pipelining overlaps HBM traffic with MMA issue, but the main loop's
/// CUDA-core dequantization sits on the MMA dependency chain and steals
/// issue slots, so it is charged additively (this is exactly the overhead
/// Figure 18 measures).
pub fn gemm_latency(gpu: &GpuSpec, cfg: GemmConfig, shape: GemmShape) -> GemmLatency {
    // Shape first, row second: converted after the row's branch, (n, k) are
    // re-read as one 16-byte load over the caller's three fresh 8-byte
    // stores, and the failed store forward doubles the cost of the call.
    let (m, n, k) = (shape.m as f64, shape.n as f64, shape.k as f64);
    let row = cfg.row();
    let ops = 2.0 * m * n * k;
    let bandwidth = gpu.dram_bytes_per_s * GEMM_BW_EFFICIENCY;

    // Memory: weights + activations + FP16 outputs + group scales. Reduced
    // occupancy also hurts latency hiding on the memory side (§3.2).
    let mut bytes = n * k * f64::from(row.weight_bits) / 8.0
        + m * k * f64::from(row.act_bits) / 8.0
        + m * n * 2.0;
    if let Some(g) = row.group_size {
        bytes += n * (k / g) * 2.0; // FP16 or u8+u4 scales per group
    }
    let memory_s = bytes / (bandwidth * row.occupancy);

    // Tensor cores.
    let tensor_core_s = ops / (gpu.tc_ops_for_bits(row.act_bits) * row.occupancy);

    // CUDA-core dequantization in the main loop: per weight load (weights
    // are re-loaded once per output tile) and per partial sum per k-tile.
    let weight_loads = n * k * (m / TILE_M).max(1.0).ceil();
    let dequant_ops =
        row.ops_per_weight * weight_loads + row.ops_per_partial_sum * m * n * (k / K_TILE);
    let dequant_rate = if row.int32_dequant {
        gpu.int32_alu_ops
    } else {
        gpu.fp32_cuda_ops * CUDA_EFFICIENCY * row.occupancy
    };
    let dequant_s = dequant_ops / dequant_rate;

    // A standalone dequantization kernel reads W4 and writes W8, then the
    // GEMM re-reads W8 — pure extra memory traffic plus a launch.
    let unfused_s = if row.unfused {
        let dequant_kernel_bytes = n * k * 0.5 + n * k; // read INT4, write INT8
        let gemm_extra_read = n * k * 0.5; // GEMM streams INT8, not INT4
        (dequant_kernel_bytes + gemm_extra_read) / bandwidth + gpu.kernel_overhead_s
    } else {
        0.0
    };

    let total_s = memory_s.max(tensor_core_s) + dequant_s + unfused_s + gpu.kernel_overhead_s;
    GemmLatency {
        memory_s,
        tensor_core_s,
        dequant_s,
        total_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(m: usize) -> GemmShape {
        GemmShape { m, n: 4096, k: 4096 }
    }

    #[test]
    fn w8a8_has_no_dequant_overhead() {
        let l = gemm_latency(&GpuSpec::a100(), GemmConfig::TrtW8A8, shape(64));
        assert_eq!(l.dequant_overhead(), 0.0);
    }

    #[test]
    fn figure18_overhead_ordering() {
        // Figure 18: Atom-W4A4 overhead (up to 90%) ≫ W4A16 ≫ W4A8 (ours)
        // ≫ W8A8 (≈0), across m = 8..128.
        let gpu = GpuSpec::a100();
        for m in [8usize, 16, 32, 64, 128] {
            let atom = gemm_latency(&gpu, GemmConfig::AtomW4A4, shape(m)).dequant_overhead();
            let w4a16 = gemm_latency(&gpu, GemmConfig::TrtW4A16, shape(m)).dequant_overhead();
            let ours = gemm_latency(&gpu, GemmConfig::QServeW4A8PerGroup, shape(m)).dequant_overhead();
            let w8a8 = gemm_latency(&gpu, GemmConfig::TrtW8A8, shape(m)).dequant_overhead();
            assert!(atom > w4a16, "m={}: atom {} ≤ w4a16 {}", m, atom, w4a16);
            assert!(w4a16 > ours, "m={}: w4a16 {} ≤ ours {}", m, w4a16, ours);
            assert!(ours > w8a8, "m={}: ours {} ≤ w8a8 {}", m, ours, w8a8);
            assert!(ours < 0.2, "m={}: our overhead {} should be small", m, ours);
        }
        // At compute-heavy batches the Atom overhead dominates the runtime
        // ("up to 90%" in the abstract).
        let atom_big = gemm_latency(&gpu, GemmConfig::AtomW4A4, shape(128)).dequant_overhead();
        assert!(atom_big > 0.5, "Atom overhead at m=128 is {}", atom_big);
    }

    #[test]
    fn qserve_w4a8_beats_w8a8_at_decode_batches() {
        // §4.1: "our QServe W4A8 per-group GEMM achieves 1.5× speedup over
        // the W8A8 cuBLAS GEMM" — memory-bound decode regime.
        let gpu = GpuSpec::a100();
        for m in [16usize, 32, 64, 128] {
            let ours = gemm_latency(&gpu, GemmConfig::QServeW4A8PerGroup, shape(m)).total_s;
            let w8a8 = gemm_latency(&gpu, GemmConfig::TrtW8A8, shape(m)).total_s;
            let speedup = w8a8 / ours;
            assert!(
                (1.2..=2.2).contains(&speedup),
                "m={}: speedup {} outside the expected band",
                m,
                speedup
            );
        }
    }

    #[test]
    fn atom_slower_than_w8a8_despite_int4_cores() {
        // Figure 2b's core finding: W4A4 systems lose to TRT-W8A8 end to end
        // even though INT4 tensor cores are 2× INT8.
        // Atom's small-batch GEMMs enjoy 4-bit weight traffic; the partial-
        // sum dequantization + register pressure bites once the tensor-core
        // work grows (m ≥ 64 covers the paper's serving batches).
        let gpu = GpuSpec::a100();
        for m in [64usize, 128, 256, 512] {
            let atom = gemm_latency(&gpu, GemmConfig::AtomW4A4, shape(m)).total_s;
            let w8a8 = gemm_latency(&gpu, GemmConfig::TrtW8A8, shape(m)).total_s;
            assert!(atom > w8a8, "m={}: Atom {} should be slower than W8A8 {}", m, atom, w8a8);
        }
    }

    #[test]
    fn w4a16_wins_small_batch_w8a8_wins_large() {
        let gpu = GpuSpec::a100();
        let small_w4 = gemm_latency(&gpu, GemmConfig::TrtW4A16, shape(4)).total_s;
        let small_w8 = gemm_latency(&gpu, GemmConfig::TrtW8A8, shape(4)).total_s;
        assert!(small_w4 < small_w8, "W4A16 should win at batch 4");
        let big_w4 = gemm_latency(&gpu, GemmConfig::TrtW4A16, shape(512)).total_s;
        let big_w8 = gemm_latency(&gpu, GemmConfig::TrtW8A8, shape(512)).total_s;
        assert!(big_w8 < big_w4, "W8A8 should win at batch 512");
    }

    #[test]
    fn per_channel_cheaper_than_per_group() {
        // Per-channel skips the level-2 dequant ops; it must never be slower.
        let gpu = GpuSpec::a100();
        for m in [8usize, 64, 256] {
            let pc = gemm_latency(&gpu, GemmConfig::QServeW4A8PerChannel, shape(m)).total_s;
            let pg = gemm_latency(&gpu, GemmConfig::QServeW4A8PerGroup, shape(m)).total_s;
            assert!(pc <= pg, "m={}", m);
        }
    }

    #[test]
    fn latency_monotonic_in_m() {
        let gpu = GpuSpec::a100();
        let mut prev = 0.0;
        for m in [1usize, 8, 32, 128, 512, 2048] {
            let t = gemm_latency(&gpu, GemmConfig::QServeW4A8PerGroup, shape(m)).total_s;
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn dgq_unfused_slower_than_w8a8() {
        // §4.1: "the end-to-end latency of W4A8 GEMM in DGQ is even slower
        // than the W8A8 GEMM in cuBLAS" — while QServe's fused kernel wins.
        let gpu = GpuSpec::a100();
        for m in [16usize, 64, 128] {
            let dgq = gemm_latency(&gpu, GemmConfig::DgqW4A8Unfused, shape(m)).total_s;
            let w8a8 = gemm_latency(&gpu, GemmConfig::TrtW8A8, shape(m)).total_s;
            let ours = gemm_latency(&gpu, GemmConfig::QServeW4A8PerGroup, shape(m)).total_s;
            assert!(dgq > w8a8, "m={}: DGQ {} must lose to W8A8 {}", m, dgq, w8a8);
            assert!(ours < w8a8, "m={}: fused W4A8 must beat W8A8", m);
        }
    }

    #[test]
    fn saturation_destroys_throughput() {
        // §4.1: saturating dequantization reduces speed "by as much as 67%"
        // relative to the protective-range RLP kernel.
        let gpu = GpuSpec::a100();
        let sat = gemm_latency(&gpu, GemmConfig::QServeW4A8Saturated, shape(64)).total_s;
        let rlp = gemm_latency(&gpu, GemmConfig::QServeW4A8PerGroup, shape(64)).total_s;
        let speed_loss = 1.0 - rlp / sat;
        assert!(
            (0.35..0.75).contains(&speed_loss),
            "saturation speed loss {} should approach the paper's 67%",
            speed_loss
        );
    }

    #[test]
    fn dgq_unfused_loses_on_l40s_too() {
        // The DGQ pathology is architectural (extra kernel + traffic), not
        // A100-specific.
        let gpu = GpuSpec::l40s();
        let dgq = gemm_latency(&gpu, GemmConfig::DgqW4A8Unfused, shape(64)).total_s;
        let w8a8 = gemm_latency(&gpu, GemmConfig::TrtW8A8, shape(64)).total_s;
        assert!(dgq > w8a8);
    }

    #[test]
    fn latency_model_deterministic() {
        let gpu = GpuSpec::a100();
        let a = gemm_latency(&gpu, GemmConfig::QServeW4A8PerGroup, shape(64));
        let b = gemm_latency(&gpu, GemmConfig::QServeW4A8PerGroup, shape(64));
        assert_eq!(a, b);
    }

    #[test]
    fn l40s_dequant_cheaper_relative() {
        // "We use per-group quantization for L40S … because L40S has
        // stronger CUDA cores for dequantization" (§6.3): the per-group
        // overhead fraction must be smaller on L40S than on A100.
        let a = gemm_latency(&GpuSpec::a100(), GemmConfig::QServeW4A8PerGroup, shape(64));
        let l = gemm_latency(&GpuSpec::l40s(), GemmConfig::QServeW4A8PerGroup, shape(64));
        assert!(l.dequant_overhead() < a.dequant_overhead());
    }
}
