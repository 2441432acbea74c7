//! Progressive group quantization (§4.1, Figure 6).
//!
//! Two levels:
//!
//! 1. **Level 0** — per-channel *symmetric* INT8 with FP16 scales `s⁽⁰⁾`,
//!    using the **protective range** `[-119, 119]` instead of `[-127, 127]`.
//! 2. **Level 1** — per-group *asymmetric* UINT4 of the 8-bit intermediates,
//!    with unsigned 8-bit group scales `s⁽¹⁾` and unsigned 4-bit zero points.
//!
//! The protective range guarantees the level-2 dequantization
//! `(q_u4 − z)·s⁽¹⁾` lands back inside `[-128, 127]` *without saturation*
//! (derivation in §4.1: `ŝq8 ≤ q + s/2`, and `s ≤ ⌈238/15⌋ = 16` ⇒
//! `ŝq8 ≤ 119 + 8 < 128`). That is what lets the GPU kernel use
//! register-level-parallel `vadd4` arithmetic with no per-lane overflow
//! checks (§5.2.3, Figure 14).

use crate::pack::{pack_rows, unpack_rows, PackedInt4};
use qserve_quant::params::IntQParams;
use qserve_quant::rounding::round_clamp;
use qserve_tensor::fp16::f16_step;
use qserve_tensor::stats::row_abs_max;
use qserve_tensor::Matrix;

/// The protective symmetric INT8 bound of §4.1.
const PROTECTIVE_QMAX: i32 = 119;

/// A weight tensor quantized with QoQ progressive group quantization
/// ("W4A8KV4 g128" in the paper's tables).
///
/// Shapes follow the paper's GEMM convention: the weight is `n×k`
/// (output channels × input channels) and each row is split into groups of
/// `group_size` input channels.
///
/// # Example
/// ```
/// use qserve_core::ProgressiveWeight;
/// use qserve_tensor::{Matrix, rng::TensorRng};
///
/// let w = TensorRng::seed(0).gaussian(4, 256, 0.02);
/// let pw = ProgressiveWeight::quantize(&w, 128);
/// let err = qserve_tensor::stats::relative_error(&w, &pw.dequantize());
/// assert!(err < 0.15, "4-bit group quantization stays within ~15%");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressiveWeight {
    n: usize,
    k: usize,
    group_size: usize,
    /// UINT4 codes (`0..=15`) in the W4A8 kernels' storage order, packed
    /// once here: per output channel, `k.div_ceil(32)` interleaved 128-bit
    /// words ([`crate::pack`]). The only copy of the codes this type keeps.
    packed: Vec<PackedInt4>,
    /// Level-1 integer params, one per group: `n * (k / group_size)`.
    group_params: Vec<IntQParams>,
    /// Level-0 per-channel FP16 scales, length `n`.
    channel_scales: Vec<f32>,
}

impl ProgressiveWeight {
    /// Quantizes an `n×k` weight matrix.
    ///
    /// # Panics
    /// Panics if `group_size` does not divide `k`.
    pub fn quantize(w: &Matrix, group_size: usize) -> Self {
        let (n, k) = w.shape();
        assert!(
            group_size > 0 && k % group_size == 0,
            "group size {} must divide k {}",
            group_size,
            k
        );
        // Level 0: per-channel symmetric INT8 in the protective range,
        // FP16 scales.
        let mut channel_scales = Vec::with_capacity(n);
        let mut level0 = vec![0i8; n * k];
        for (i, am) in row_abs_max(w).into_iter().enumerate() {
            let scale = f16_step(am, PROTECTIVE_QMAX as f32);
            channel_scales.push(scale);
            for (j, &x) in w.row(i).iter().enumerate() {
                level0[i * k + j] =
                    round_clamp(x / scale, -PROTECTIVE_QMAX, PROTECTIVE_QMAX) as i8;
            }
        }

        // Level 1: per-group asymmetric UINT4 of the INT8 intermediates.
        let groups_per_row = k / group_size;
        let mut group_params = Vec::with_capacity(n * groups_per_row);
        let mut codes = vec![0u8; n * k];
        for i in 0..n {
            for g in 0..groups_per_row {
                let start = i * k + g * group_size;
                let group = &level0[start..start + group_size];
                let p = IntQParams::from_group(group);
                for (off, &q0) in group.iter().enumerate() {
                    codes[start + off] = p.quantize(q0);
                }
                group_params.push(p);
            }
        }
        Self {
            n,
            k,
            group_size,
            packed: pack_rows(&codes, k),
            group_params,
            channel_scales,
        }
    }

    /// Output channels `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Input channels `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Level-1 group size.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Raw UINT4 codes, row-major `n×k`, unpacked from the stored words.
    pub fn codes(&self) -> Vec<u8> {
        unpack_rows(&self.packed, self.k)
    }

    /// Output channel `row`'s codes as stored: `k.div_ceil(32)` interleaved
    /// words, the final one zero-padded when `k` is not a multiple of 32.
    pub fn packed_row(&self, row: usize) -> &[PackedInt4] {
        let words = self.k.div_ceil(32);
        &self.packed[row * words..(row + 1) * words]
    }

    /// Level-1 parameters, one per `(row, group)` in row-major group order.
    pub fn group_params(&self) -> &[IntQParams] {
        &self.group_params
    }

    /// Level-0 per-channel FP16 scales.
    pub fn channel_scales(&self) -> &[f32] {
        &self.channel_scales
    }

    /// Level-2 dequantization to the INT8 intermediate tensor
    /// `Q_W⁽⁰⁾ = (Q_W − z)·s⁽¹⁾` (Equation 5) — what the GPU main loop feeds
    /// the INT8 tensor cores.
    ///
    /// By the protective-range invariant this never saturates; the method
    /// checks that in debug builds.
    pub fn intermediate_int8(&self) -> Vec<i8> {
        let codes = self.codes();
        let mut out = vec![0i8; self.n * self.k];
        let groups_per_row = self.k / self.group_size;
        for i in 0..self.n {
            for j in 0..self.k {
                let p = self.group_params[i * groups_per_row + j / self.group_size];
                out[i * self.k + j] = p.dequantize(codes[i * self.k + j]);
            }
        }
        out
    }

    /// Full dequantization to floating point: `Ŵ = Q_W⁽⁰⁾ · s⁽⁰⁾`
    /// (Equation 4).
    pub fn dequantize(&self) -> Matrix {
        let inter = self.intermediate_int8();
        Matrix::from_fn(self.n, self.k, |i, j| {
            f32::from(inter[i * self.k + j]) * self.channel_scales[i]
        })
    }

    /// Maximum |intermediate| over the whole tensor — must be ≤ 127 by the
    /// protective-range guarantee (≤ 127 always; ≤ 119 + s/2 in theory).
    pub fn max_intermediate_abs(&self) -> i32 {
        let codes = self.codes();
        let groups_per_row = self.k / self.group_size;
        let mut max = 0i32;
        for i in 0..self.n {
            for j in 0..self.k {
                let p = self.group_params[i * groups_per_row + j / self.group_size];
                let v = (i32::from(codes[i * self.k + j]) - i32::from(p.zero))
                    * i32::from(p.scale);
                max = max.max(v.abs());
            }
        }
        max
    }
}

/// Per-channel W4A8 weight format ("W4A8KV4" without g128 in the tables):
/// one level of *asymmetric* UINT4 per output channel with an FP16 scale and
/// a UINT4 zero point. §5.2.2 describes its GEMM: the zero-point subtraction
/// is moved entirely into the epilogue.
#[derive(Debug, Clone, PartialEq)]
pub struct PerChannelW4 {
    n: usize,
    k: usize,
    /// UINT4 codes (`0..=15`), packed once at quantize time in the kernels'
    /// storage order (see [`ProgressiveWeight`]).
    packed: Vec<PackedInt4>,
    /// Per-channel FP16 scales, length `n`.
    scales: Vec<f32>,
    /// Per-channel UINT4 zero points, length `n`.
    zeros: Vec<u8>,
}

impl PerChannelW4 {
    /// Quantizes an `n×k` weight matrix with per-channel asymmetric UINT4.
    pub fn quantize(w: &Matrix) -> Self {
        let (n, k) = w.shape();
        let mut codes = vec![0u8; n * k];
        let mut scales = Vec::with_capacity(n);
        let mut zeros = Vec::with_capacity(n);
        for i in 0..n {
            let row = w.row(i);
            let (lo, hi) = row
                .iter()
                .fold((0.0f32, 0.0f32), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let scale = f16_step(hi - lo, 15.0);
            let zero = round_clamp(-lo / scale, 0, 15) as u8;
            scales.push(scale);
            zeros.push(zero);
            for (j, &x) in row.iter().enumerate() {
                codes[i * k + j] = round_clamp(x / scale + f32::from(zero), 0, 15) as u8;
            }
        }
        Self {
            n,
            k,
            packed: pack_rows(&codes, k),
            scales,
            zeros,
        }
    }

    /// Output channels `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Input channels `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Raw UINT4 codes, row-major `n×k`, unpacked from the stored words.
    pub fn codes(&self) -> Vec<u8> {
        unpack_rows(&self.packed, self.k)
    }

    /// Output channel `row`'s codes as stored (see
    /// [`ProgressiveWeight::packed_row`]).
    pub fn packed_row(&self, row: usize) -> &[PackedInt4] {
        let words = self.k.div_ceil(32);
        &self.packed[row * words..(row + 1) * words]
    }

    /// Per-channel FP16 scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Per-channel UINT4 zero points.
    pub fn zeros(&self) -> &[u8] {
        &self.zeros
    }

    /// Dequantizes to floating point: `(q − z)·s` per channel.
    pub fn dequantize(&self) -> Matrix {
        let codes = self.codes();
        Matrix::from_fn(self.n, self.k, |i, j| {
            (f32::from(codes[i * self.k + j]) - f32::from(self.zeros[i])) * self.scales[i]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserve_tensor::rng::TensorRng;
    use qserve_tensor::stats::{relative_error, sqnr_db};

    /// The *naive* two-level scheme of VSQuant / QLoRA's DoubleQuant (§4.1,
    /// bottom of Figure 6), implemented for comparison: quantize directly to
    /// INT4 with per-group FP16 scales, then quantize those *scales* per channel
    /// to UINT8.
    ///
    /// Crucially, `Q_W · s⁽¹⁾` here does **not** reconstruct an 8-bit integer
    /// tensor — the group scales are quantized floats, so dequantization must go
    /// through floating point and the GEMM cannot stay on INT8 tensor cores.
    /// [`NaiveDoubleQuant::int8_intermediate_exists`] makes that failure mode
    /// checkable.
    #[derive(Debug, Clone, PartialEq)]
    struct NaiveDoubleQuant {
        n: usize,
        k: usize,
        group_size: usize,
        /// UINT4 codes, row-major.
        codes: Vec<u8>,
        /// Per-group UINT4 zero points.
        zeros: Vec<u8>,
        /// Per-group UINT8 quantized scale codes.
        scale_codes: Vec<u8>,
        /// Per-channel FP16 scale-of-scales.
        channel_scales: Vec<f32>,
    }

    impl NaiveDoubleQuant {
        /// Quantizes an `n×k` weight with group-first double quantization.
        ///
        /// # Panics
        /// Panics if `group_size` does not divide `k`.
        fn quantize(w: &Matrix, group_size: usize) -> Self {
            let (n, k) = w.shape();
            assert!(
                group_size > 0 && k % group_size == 0,
                "group size {} must divide k {}",
                group_size,
                k
            );
            let groups_per_row = k / group_size;
            let mut codes = vec![0u8; n * k];
            let mut zeros = Vec::with_capacity(n * groups_per_row);
            let mut fp_scales = Vec::with_capacity(n * groups_per_row);
            for i in 0..n {
                let row = w.row(i);
                for g in 0..groups_per_row {
                    let grp = &row[g * group_size..(g + 1) * group_size];
                    let (lo, hi) = grp
                        .iter()
                        .fold((0.0f32, 0.0f32), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                    let scale = if hi == lo { 1.0 } else { (hi - lo) / 15.0 };
                    let zero = round_clamp(-lo / scale, 0, 15) as u8;
                    for (off, &x) in grp.iter().enumerate() {
                        codes[i * k + g * group_size + off] =
                            round_clamp(x / scale + f32::from(zero), 0, 15) as u8;
                    }
                    zeros.push(zero);
                    fp_scales.push(scale);
                }
            }
            // Level 2: per-channel UINT8 quantization of the group scales
            // (scales are positive, so an unsigned symmetric code suffices).
            let mut scale_codes = vec![0u8; n * groups_per_row];
            let mut channel_scales = Vec::with_capacity(n);
            for i in 0..n {
                let row = &fp_scales[i * groups_per_row..(i + 1) * groups_per_row];
                let smax = row.iter().cloned().fold(0.0f32, f32::max);
                let cscale = f16_step(smax, 255.0);
                channel_scales.push(cscale);
                for (g, &s) in row.iter().enumerate() {
                    scale_codes[i * groups_per_row + g] = round_clamp(s / cscale, 0, 255) as u8;
                }
            }
            Self {
                n,
                k,
                group_size,
                codes,
                zeros,
                scale_codes,
                channel_scales,
            }
        }

        /// Dequantizes to floating point: `(q − z) · ŝ_group` with
        /// `ŝ_group = scale_code · s_channel` — two float multiplies deep.
        fn dequantize(&self) -> Matrix {
            let groups_per_row = self.k / self.group_size;
            Matrix::from_fn(self.n, self.k, |i, j| {
                let gi = i * groups_per_row + j / self.group_size;
                let s = f32::from(self.scale_codes[gi]) * self.channel_scales[i];
                (f32::from(self.codes[i * self.k + j]) - f32::from(self.zeros[gi])) * s
            })
        }

        /// Whether `(q − z) · scale_code` lands on an INT8-representable integer
        /// grid for every element — the property QoQ's progressive order
        /// guarantees and this scheme does **not**: scale codes up to 255 make
        /// the products overflow INT8 almost always.
        fn int8_intermediate_exists(&self) -> bool {
            let groups_per_row = self.k / self.group_size;
            for i in 0..self.n {
                for j in 0..self.k {
                    let gi = i * groups_per_row + j / self.group_size;
                    let v = (i32::from(self.codes[i * self.k + j]) - i32::from(self.zeros[gi]))
                        * i32::from(self.scale_codes[gi]);
                    if !(-128..=127).contains(&v) {
                        return false;
                    }
                }
            }
            true
        }
    }

    #[test]
    fn protective_invariant_holds_on_gaussian() {
        let w = TensorRng::seed(1).gaussian(16, 256, 0.05);
        let pw = ProgressiveWeight::quantize(&w, 128);
        assert!(pw.max_intermediate_abs() <= 127);
    }

    #[test]
    fn protective_invariant_holds_on_heavy_tails() {
        let w = TensorRng::seed(2).heavy_tailed(16, 256, 0.05, 0.02, 12.0);
        let pw = ProgressiveWeight::quantize(&w, 64);
        assert!(pw.max_intermediate_abs() <= 127);
    }

    #[test]
    fn codes_are_uint4() {
        let w = TensorRng::seed(3).gaussian(8, 128, 1.0);
        let pw = ProgressiveWeight::quantize(&w, 32);
        assert!(pw.codes().iter().all(|&c| c <= 15));
    }

    #[test]
    fn group_scales_at_most_16() {
        // s⁽¹⁾ = ⌈(max−min)/15⌋ ≤ ⌈238/15⌋ = 16 under the protective range.
        let w = TensorRng::seed(4).heavy_tailed(8, 256, 0.1, 0.05, 10.0);
        let pw = ProgressiveWeight::quantize(&w, 128);
        assert!(pw.group_params().iter().all(|p| p.scale >= 1 && p.scale <= 16));
    }

    #[test]
    fn reconstruction_error_reasonable() {
        let w = TensorRng::seed(5).gaussian(32, 512, 0.02);
        let pw = ProgressiveWeight::quantize(&w, 128);
        let err = relative_error(&w, &pw.dequantize());
        assert!(err < 0.12, "relative error {} too large", err);
    }

    #[test]
    fn smaller_groups_reduce_error() {
        let w = TensorRng::seed(6).heavy_tailed(16, 512, 0.02, 0.02, 8.0);
        let coarse = ProgressiveWeight::quantize(&w, 256);
        let fine = ProgressiveWeight::quantize(&w, 32);
        assert!(sqnr_db(&w, &fine.dequantize()) > sqnr_db(&w, &coarse.dequantize()));
    }

    #[test]
    fn dequantize_consistent_with_intermediate() {
        let w = TensorRng::seed(7).gaussian(4, 64, 0.5);
        let pw = ProgressiveWeight::quantize(&w, 16);
        let inter = pw.intermediate_int8();
        let full = pw.dequantize();
        for i in 0..4 {
            for j in 0..64 {
                let expect = f32::from(inter[i * 64 + j]) * pw.channel_scales()[i];
                assert_eq!(full[(i, j)], expect);
            }
        }
    }

    #[test]
    fn zero_weight_tensor_is_exact() {
        let w = Matrix::zeros(4, 32);
        let pw = ProgressiveWeight::quantize(&w, 16);
        assert_eq!(pw.dequantize(), w);
    }

    /// Rows whose range over the code span underflows an FP16 scale: one
    /// all-tiny, one tiny and one-sided, next to a healthy row.
    fn below_fp16_resolution() -> Matrix {
        Matrix::from_fn(3, 32, |i, j| match i {
            0 => (j as f32 - 15.5) * 1.0e-9,
            1 => j as f32 * -1.0e-10,
            _ => (j as f32 - 15.5) * 0.01,
        })
    }

    fn assert_tiny_rows_vanish(back: &Matrix, scales: &[f32]) {
        assert!(scales.iter().all(|s| s.is_finite() && *s > 0.0), "{scales:?}");
        assert!(back.as_slice().iter().all(|v| v.is_finite()));
        assert!(back.row(0).iter().chain(back.row(1)).all(|v| v.abs() < 1.0e-6));
        assert!(back.row(2).iter().any(|v| v.abs() > 0.1), "the healthy row survives");
    }

    #[test]
    fn progressive_scale_underflow_is_a_zero_row_not_a_zero_scale() {
        let pw = ProgressiveWeight::quantize(&below_fp16_resolution(), 16);
        assert_eq!(pw.channel_scales()[..2], [1.0, 1.0]);
        assert!(pw.intermediate_int8()[..64].iter().all(|&q| q == 0));
        assert_tiny_rows_vanish(&pw.dequantize(), pw.channel_scales());
    }

    #[test]
    fn per_channel_scale_underflow_is_a_zero_row_not_a_zero_scale() {
        let pc = PerChannelW4::quantize(&below_fp16_resolution());
        assert_eq!(pc.scales()[..2], [1.0, 1.0]);
        assert_eq!(pc.zeros()[..2], [0, 0]);
        assert!(pc.codes()[..64].iter().all(|&q| q == 0));
        assert_tiny_rows_vanish(&pc.dequantize(), pc.scales());
    }

    #[test]
    fn double_quant_scale_of_scales_underflow_stays_finite() {
        let naive = NaiveDoubleQuant::quantize(&below_fp16_resolution(), 16);
        assert_eq!(naive.channel_scales[..2], [1.0, 1.0]);
        assert!(naive.scale_codes[..4].iter().all(|&c| c == 0));
        assert_tiny_rows_vanish(&naive.dequantize(), &naive.channel_scales);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_bad_group_size() {
        ProgressiveWeight::quantize(&Matrix::zeros(2, 100), 64);
    }

    #[test]
    fn per_channel_w4_round_trip() {
        let w = TensorRng::seed(8).gaussian(16, 128, 0.02);
        let q = PerChannelW4::quantize(&w);
        let err = relative_error(&w, &q.dequantize());
        // Per-channel INT4 is coarse but should stay in a sane band.
        assert!(err < 0.25, "relative error {} too large", err);
        assert!(q.codes().iter().all(|&c| c <= 15));
    }

    #[test]
    fn per_channel_w4_worse_than_per_group() {
        let w = TensorRng::seed(9).heavy_tailed(16, 512, 0.02, 0.02, 10.0);
        let pc = PerChannelW4::quantize(&w);
        let pg = ProgressiveWeight::quantize(&w, 128);
        // Matches the paper's Table 2: g128 has lower perplexity than
        // per-channel at the same nominal precision.
        assert!(sqnr_db(&w, &pg.dequantize()) > sqnr_db(&w, &pc.dequantize()));
    }

    #[test]
    fn naive_double_quant_accuracy_comparable() {
        // VSQuant/DoubleQuant reach similar *accuracy* to progressive
        // quantization — the difference is systems-level, not accuracy.
        let w = TensorRng::seed(20).heavy_tailed(16, 512, 0.02, 0.02, 8.0);
        let naive = NaiveDoubleQuant::quantize(&w, 128);
        let prog = ProgressiveWeight::quantize(&w, 128);
        let s_naive = sqnr_db(&w, &naive.dequantize());
        let s_prog = sqnr_db(&w, &prog.dequantize());
        assert!(
            (s_naive - s_prog).abs() < 3.0,
            "naive {} vs progressive {} dB should be comparable",
            s_naive,
            s_prog
        );
    }

    #[test]
    fn naive_double_quant_cannot_stay_int8() {
        // §4.1: "using the group-wise scaling factors s⁽¹⁾ to dequantize
        // Q_W s4 cannot yield the 8-bit weight tensor" — the reason prior
        // two-level schemes must dequantize through floating point while
        // QoQ's progressive order feeds INT8 tensor cores directly.
        let w = TensorRng::seed(21).gaussian(8, 256, 0.05);
        let naive = NaiveDoubleQuant::quantize(&w, 64);
        assert!(
            !naive.int8_intermediate_exists(),
            "naive double quantization should not admit an INT8 intermediate"
        );
        let prog = ProgressiveWeight::quantize(&w, 64);
        assert!(prog.max_intermediate_abs() <= 127, "QoQ always does");
    }

    #[test]
    fn progressive_vs_direct_int4_error_similar_scale() {
        // Progressive quantization exists for *system* reasons; its accuracy
        // should be in the same band as ordinary per-group INT4 (§4.1 claims
        // no accuracy loss from the two-level structure).
        use qserve_quant::{matrixq::rtn_fake_quant, Granularity, QuantSpec};
        let w = TensorRng::seed(10).gaussian(16, 512, 0.02);
        let prog = ProgressiveWeight::quantize(&w, 128).dequantize();
        let direct = rtn_fake_quant(
            &w,
            QuantSpec::uint4_asymmetric(Granularity::PerGroup { group_size: 128 }),
        );
        let s_prog = sqnr_db(&w, &prog);
        let s_direct = sqnr_db(&w, &direct);
        assert!(
            (s_prog - s_direct).abs() < 3.0,
            "progressive {} vs direct {} dB diverge too much",
            s_prog,
            s_direct
        );
    }
}
