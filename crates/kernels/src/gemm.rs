//! The QServe W4A8 GEMM kernels (§5.2, Figure 5d).
//!
//! Both kernels keep the main loop free of floating point:
//!
//! * **per-channel** ([`gemm_w4a8_per_channel`], §5.2.2): UINT4 codes are fed
//!   to the INT8 MMA *without* zero-point subtraction; Equation 12/13 moves
//!   the `−z` term into the epilogue as `t_X ⊗ (z ⊙ s_W)` where
//!   `t_X[i] = Σ_k Q_X[i][k]` is precomputed (fused into the preceding
//!   memory-bound kernel in the real system).
//! * **per-group** ([`gemm_w4a8_per_group`], §5.2.3): each group is
//!   dequantized to signed INT8 intermediates *inside the main loop* with the
//!   two-op register-level-parallel subtraction-after-multiplication
//!   sequence, then hits the same INT8 MMA; only the level-0 FP16 channel
//!   scales appear in the epilogue.
//!
//! Both are verified bit-exact against integer references.

use crate::mma::dot_rows_i16;
use crate::pack::{unpack_register, ByteLanes, PackedInt4};
use crate::rlp::{dequant_sub_after_mul, splat4};
use qserve_core::progressive::{PerChannelW4, ProgressiveWeight};
use qserve_quant::rounding::round_clamp;
use qserve_tensor::fp16::f16_step;
use qserve_tensor::pool;
use qserve_tensor::Matrix;

/// Runs a W4A8 kernel body over the `n` output channels of an `m×n` GEMM.
///
/// `fill(start, end, panel)` computes output channels `[start, end)` for
/// every token into a row-major `m×(end−start)` panel. Output channels are
/// independent — the INT32 accumulators are per element and the epilogues
/// touch one element at a time — so any split is bit-exact by construction.
///
/// The channels fork into at most `threads` contiguous blocks of at least
/// [`MIN_COLS_PER_BLOCK`] columns, so a tiny GEMM never pays fork overhead.
/// With one block (one pool thread, or a narrow `n`) the panel *is* the
/// output and `fill` writes straight into it; only a real fork builds
/// per-block panels and scatters them back in block order.
fn over_col_blocks(
    m: usize,
    n: usize,
    fill: impl Fn(usize, usize, &mut [f32]) + Sync,
) -> Matrix {
    const MIN_COLS_PER_BLOCK: usize = 16;
    let p = pool::global();
    let blocks = p.threads().min(n.div_ceil(MIN_COLS_PER_BLOCK)).max(1);
    let mut out = Matrix::zeros(m, n);
    if blocks == 1 {
        fill(0, n, out.as_mut_slice());
        return out;
    }
    let per = n.div_ceil(blocks);
    let ranges: Vec<(usize, usize)> = (0..blocks)
        .map(|b| (b * per, ((b + 1) * per).min(n)))
        .filter(|&(start, end)| start < end)
        .collect();
    let panels = p.par_map(&ranges, |_, &(start, end)| {
        let mut panel = vec![0.0f32; m * (end - start)];
        fill(start, end, &mut panel);
        panel
    });
    let dst = out.as_mut_slice();
    for (&(start, end), panel) in ranges.iter().zip(panels) {
        for (i, row) in panel.chunks_exact(end - start).enumerate() {
            dst[i * n + start..i * n + end].copy_from_slice(row);
        }
    }
    out
}

/// Unpacks a stored weight row into byte-lane registers in input-channel
/// order: register `r` (channels `4r .. 4r + 4`) is `lanes[4r .. 4r + 4]`,
/// little-endian. The three-op unpack of Figure 13 lands `w0..w15` in a
/// word's low registers and `w16..w31` in its high ones, so each half of a
/// word is written as a unit.
#[inline]
fn unpack_row(row: &[PackedInt4], lanes: &mut [u8]) {
    for (word, out) in row.iter().zip(lanes.chunks_exact_mut(32)) {
        let (low, high) = out.split_at_mut(16);
        for ((&reg, low), high) in word.regs.iter().zip(low.chunks_exact_mut(4)).zip(high.chunks_exact_mut(4)) {
            let (l, h) = unpack_register(reg);
            low.copy_from_slice(&l.to_le_bytes());
            high.copy_from_slice(&h.to_le_bytes());
        }
    }
}

/// Spills the byte lanes the MMA consumes — signed INT8 — as the i16 lanes
/// its main loop multiplies.
#[inline]
fn widen_lanes(lanes: &[u8], w_row: &mut [i16]) {
    for (wide, &lane) in w_row.iter_mut().zip(lanes) {
        *wide = i16::from(lane as i8);
    }
}

/// The activation codes widened to i16, once per GEMM call: `m·k` lane
/// conversions against `m·n·k` multiply-adds, shared by every column block.
fn widen(x: &QuantizedActivations) -> Vec<i16> {
    x.codes.iter().map(|&code| i16::from(code)).collect()
}

/// Per-token symmetric INT8 activations plus the precomputed token sums
/// `t_X` the per-channel epilogue needs (Equation 13).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedActivations {
    /// `m×k` signed codes, row-major.
    pub codes: Vec<i8>,
    /// Per-token FP16 scales, length `m`.
    pub scales: Vec<f32>,
    /// Token sums `t_X[i] = Σ_k codes[i][k]`, length `m` — "each W4A8 kernel
    /// is always preceded by a memory-bound kernel, allowing us to fuse the
    /// precomputation into it" (§5.2.2).
    pub token_sums: Vec<i32>,
    /// Tokens.
    pub m: usize,
    /// Input channels.
    pub k: usize,
}

/// Quantizes activations per-token (symmetric INT8, FP16 scales) and
/// precomputes `t_X`, as QServe's fused normalization/activation kernels do
/// (§5.1).
pub fn quantize_activations_int8(x: &Matrix) -> QuantizedActivations {
    let (m, k) = x.shape();
    let mut codes = vec![0i8; m * k];
    let mut scales = Vec::with_capacity(m);
    let mut token_sums = Vec::with_capacity(m);
    for i in 0..m {
        let row = x.row(i);
        let am = row.iter().fold(0.0f32, |a, v| a.max(v.abs()));
        let scale = f16_step(am, 127.0);
        scales.push(scale);
        let mut sum = 0i32;
        for (j, &v) in row.iter().enumerate() {
            let q = round_clamp(v / scale, -127, 127) as i8;
            codes[i * k + j] = q;
            sum += i32::from(q);
        }
        token_sums.push(sum);
    }
    QuantizedActivations {
        codes,
        scales,
        token_sums,
        m,
        k,
    }
}

/// Per-channel W4A8 GEMM (§5.2.2).
///
/// Main loop: the stored words (packed offline by [`PerChannelW4::quantize`])
/// unpacked with the three-op RLP sequence and fed *as unsigned values*
/// (all ≤ 15, so they fit in `i8`) straight into the INT8 MMA — no
/// subtraction, no multiplication. Epilogue (Equation 12):
///
/// ```text
/// O[i][j] = (acc[i][j] − t_X[i]·z[j]) · s_X[i] · s_W[j]
/// ```
///
/// # Panics
/// Panics if `x.k != w.k()`.
pub fn gemm_w4a8_per_channel(x: &QuantizedActivations, w: &PerChannelW4) -> Matrix {
    assert_eq!(x.k, w.k(), "reduction dimension mismatch");
    let (m, k) = (x.m, w.k());
    let x16 = widen(x);
    over_col_blocks(m, w.n(), |start, end, panel| {
        let nb = end - start;
        // One weight row at a time: unpacked once from the stored words,
        // reused by every token. A final word's padding lanes sit past `k`
        // and never reach the MMA.
        let mut lanes = vec![0u8; k.div_ceil(32) * 32];
        let mut w_row = vec![0i16; lanes.len()];
        for (j, row) in (start..end).enumerate() {
            unpack_row(w.packed_row(row), &mut lanes);
            widen_lanes(&lanes, &mut w_row);
            let (zero, scale) = (i32::from(w.zeros()[row]), w.scales()[row]);
            dot_rows_i16(&x16, m, k, &w_row, |i, acc| {
                // Epilogue: subtraction after multiplication, fused
                // zero-point term.
                let corrected = acc - x.token_sums[i] * zero;
                panel[i * nb + j] = corrected as f32 * x.scales[i] * scale;
            });
        }
    })
}

/// Per-group W4A8 GEMM (§5.2.3).
///
/// Main loop, per 4-lane register of the stored words (packed offline by
/// [`ProgressiveWeight::quantize`]): `vmul` by the u8 group scale, `vadd4`
/// with the packed `−z·s` constant (subtraction **after** multiplication —
/// safe because progressive quantization keeps every lane in `[-128, 127]`),
/// yielding signed INT8 intermediates for the MMA. Epilogue: level-0 FP16
/// channel scales × per-token scales.
///
/// # Panics
/// Panics if dimensions mismatch or the group size is not a multiple of 4
/// (one dequant register spans 4 consecutive input channels).
pub fn gemm_w4a8_per_group(x: &QuantizedActivations, w: &ProgressiveWeight) -> Matrix {
    assert_eq!(x.k, w.k(), "reduction dimension mismatch");
    let (m, k, g) = (x.m, w.k(), w.group_size());
    assert!(g % 4 == 0 || g == k, "group size must be a multiple of 4 for RLP");
    let groups_per_row = k / g;
    let x16 = widen(x);
    over_col_blocks(m, w.n(), |start, end, panel| {
        let nb = end - start;
        // One weight row at a time: unpacked and level-2 dequantized with
        // real RLP registers once, then reused by every token — the M rows
        // amortise the main loop's dequantization (§5.2.3).
        let mut lanes = vec![0u8; k.div_ceil(32) * 32];
        let mut w_row = vec![0i16; lanes.len()];
        for (j, row) in (start..end).enumerate() {
            unpack_row(w.packed_row(row), &mut lanes);
            // Groups, then the registers of each, so `(scale, −z·s)` is
            // fixed across the inner loop. A register never straddles
            // groups (`g % 4 == 0`, or one group spans the row); a final
            // word's padding lanes sit past the last group, stay raw codes
            // and never reach the MMA.
            let params = &w.group_params()[row * groups_per_row..][..groups_per_row];
            for (group, p) in lanes.chunks_mut(g.next_multiple_of(4)).zip(params) {
                let zs = u32::from(p.zero) * u32::from(p.scale);
                debug_assert!(zs <= 255);
                let neg_zs = splat4((zs as u8 as i8).wrapping_neg() as u8);
                for reg in group.chunks_exact_mut(4) {
                    let codes = ByteLanes::from_le_bytes([reg[0], reg[1], reg[2], reg[3]]);
                    reg.copy_from_slice(&dequant_sub_after_mul(codes, p.scale, neg_zs).to_le_bytes());
                }
            }
            widen_lanes(&lanes, &mut w_row);
            let scale = w.channel_scales()[row];
            dot_rows_i16(&x16, m, k, &w_row, |i, acc| {
                panel[i * nb + j] = acc as f32 * x.scales[i] * scale;
            });
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserve_tensor::rng::TensorRng;
    use qserve_tensor::stats::relative_error;

    fn acts(rng: &mut TensorRng, m: usize, k: usize) -> (Matrix, QuantizedActivations) {
        let x = rng.gaussian(m, k, 1.0);
        let q = quantize_activations_int8(&x);
        (x, q)
    }

    #[test]
    fn activation_quant_round_trip() {
        let mut rng = TensorRng::seed(1);
        let (x, q) = acts(&mut rng, 4, 64);
        for i in 0..4 {
            for j in 0..64 {
                let back = f32::from(q.codes[i * 64 + j]) * q.scales[i];
                assert!((back - x[(i, j)]).abs() <= q.scales[i], "within one step");
            }
        }
    }

    #[test]
    fn a_row_below_fp16_resolution_quantizes_to_zero_not_to_saturation() {
        // absmax / 127 underflows binary16: the stored scale used to be 0.0,
        // every x / 0 saturated and the token sum was −127·k garbage.
        let mut tiny = Matrix::full(2, 31, 1.0);
        for (j, v) in tiny.row_mut(0).iter_mut().enumerate() {
            *v = (j as f32 - 15.0) * 1.0e-9;
        }
        let q = quantize_activations_int8(&tiny);
        assert_eq!(q.scales[0], 1.0);
        assert!(q.scales.iter().all(|s| s.is_finite() && *s > 0.0));
        assert!(q.codes[..31].iter().all(|&c| c == 0));
        assert_eq!(q.token_sums[0], 0);
        assert!(q.codes[31..].iter().all(|&c| c == 127), "the healthy row is untouched");
    }

    #[test]
    fn token_sums_match_codes() {
        let mut rng = TensorRng::seed(2);
        let (_, q) = acts(&mut rng, 3, 32);
        for i in 0..3 {
            let s: i32 = q.codes[i * 32..(i + 1) * 32].iter().map(|&c| i32::from(c)).sum();
            assert_eq!(q.token_sums[i], s);
        }
    }

    /// The per-channel epilogue zero-point fusion must be *exactly* the
    /// dequantize-then-matmul result (integer identity, Equation 12).
    #[test]
    fn per_channel_epilogue_fusion_exact() {
        let mut rng = TensorRng::seed(4);
        let (_, q) = acts(&mut rng, 4, 64);
        let w = rng.gaussian(8, 64, 0.1);
        let pw = PerChannelW4::quantize(&w);
        let y_kernel = gemm_w4a8_per_channel(&q, &pw);
        // Reference: explicit integer dequant (q_w − z) then integer GEMM.
        let codes = pw.codes();
        for i in 0..4 {
            for j in 0..8 {
                let mut acc = 0i64;
                for p in 0..64 {
                    let qw = i64::from(codes[j * 64 + p]) - i64::from(pw.zeros()[j]);
                    acc += i64::from(q.codes[i * 64 + p]) * qw;
                }
                let expect = acc as f32 * q.scales[i] * pw.scales()[j];
                assert_eq!(y_kernel[(i, j)], expect, "({}, {})", i, j);
            }
        }
    }

    /// The per-group RLP main loop must be exactly the level-2 scalar
    /// dequantization followed by integer GEMM.
    #[test]
    fn per_group_rlp_main_loop_exact() {
        let mut rng = TensorRng::seed(5);
        let (_, q) = acts(&mut rng, 4, 128);
        let w = rng.heavy_tailed(8, 128, 0.1, 0.05, 6.0);
        let pw = ProgressiveWeight::quantize(&w, 32);
        let y_kernel = gemm_w4a8_per_group(&q, &pw);
        let inter = pw.intermediate_int8();
        for i in 0..4 {
            for j in 0..8 {
                let mut acc = 0i64;
                for p in 0..128 {
                    acc += i64::from(q.codes[i * 128 + p]) * i64::from(inter[j * 128 + p]);
                }
                let expect = acc as f32 * q.scales[i] * pw.channel_scales()[j];
                assert_eq!(y_kernel[(i, j)], expect, "({}, {})", i, j);
            }
        }
    }

    #[test]
    fn per_group_close_to_fp32_reference() {
        let mut rng = TensorRng::seed(6);
        let (x, q) = acts(&mut rng, 8, 256);
        let w = rng.gaussian(16, 256, 0.05);
        let pw = ProgressiveWeight::quantize(&w, 64);
        let y = gemm_w4a8_per_group(&q, &pw);
        let y_ref = x.matmul_nt(&w);
        assert!(
            relative_error(&y_ref, &y) < 0.15,
            "got {}",
            relative_error(&y_ref, &y)
        );
    }

    #[test]
    fn per_channel_close_to_fp32_reference() {
        let mut rng = TensorRng::seed(7);
        let (x, q) = acts(&mut rng, 8, 256);
        let w = rng.gaussian(16, 256, 0.05);
        let pw = PerChannelW4::quantize(&w);
        let y = gemm_w4a8_per_channel(&q, &pw);
        let y_ref = x.matmul_nt(&w);
        assert!(
            relative_error(&y_ref, &y) < 0.3,
            "got {}",
            relative_error(&y_ref, &y)
        );
    }

    #[test]
    fn per_group_beats_per_channel_accuracy() {
        let mut rng = TensorRng::seed(8);
        let (x, q) = acts(&mut rng, 8, 256);
        let w = rng.heavy_tailed(16, 256, 0.05, 0.03, 8.0);
        let y_ref = x.matmul_nt(&w);
        let e_group = relative_error(&y_ref, &gemm_w4a8_per_group(&q, &ProgressiveWeight::quantize(&w, 64)));
        let e_chan = relative_error(&y_ref, &gemm_w4a8_per_channel(&q, &PerChannelW4::quantize(&w)));
        assert!(e_group < e_chan, "group {} should beat channel {}", e_group, e_chan);
    }

    #[test]
    fn zero_activation_rows_give_zero_output() {
        let x = Matrix::zeros(2, 64);
        let q = quantize_activations_int8(&x);
        let mut rng = TensorRng::seed(9);
        let w = rng.gaussian(4, 64, 0.1);
        let y = gemm_w4a8_per_group(&q, &ProgressiveWeight::quantize(&w, 32));
        assert!(y.as_slice().iter().all(|&v| v.abs().to_bits() == 0));
    }

    #[test]
    #[should_panic(expected = "reduction dimension mismatch")]
    fn rejects_k_mismatch() {
        let q = quantize_activations_int8(&Matrix::zeros(1, 32));
        let w = ProgressiveWeight::quantize(&Matrix::zeros(4, 64), 32);
        gemm_w4a8_per_group(&q, &w);
    }
    qserve_tensor::props! {
        /// Both W4A8 kernels against the i64 scalar reference, bit for bit,
        /// at every token-tile remainder (m = 1, 3, 4, 5, 32, 33), on odd
        /// and ragged reductions (k = 4 … 344, with every legal group shape:
        /// one register, a few registers, one group spanning a row whose
        /// length is not even a multiple of 4), on the paper's g128 — whole
        /// 128-bit words per group, several groups per row (k = 256, 512) —
        /// and at output widths on both
        /// sides of the column-block fork (n = 37 splits into panels once
        /// the pool has threads, sharing the widened activations).
        fn tiled_kernels_match_i64_reference_at_every_tile_remainder(rng, cases = 6) {
            for (k, groups) in [(4usize, &[4usize][..]), (40, &[4, 8, 40]), (100, &[4, 20, 100]), (127, &[127]), (344, &[8, 344]), (256, &[32, 128]), (512, &[128])] {
                let g = groups[rng.int_in(0, groups.len() as i64 - 1) as usize];
                let n = [3usize, 37][rng.int_in(0, 1) as usize];
                let w = rng.heavy_tailed(n, k, 0.1, 0.05, 6.0);
                let pw = ProgressiveWeight::quantize(&w, g);
                let inter = pw.intermediate_int8();
                let pc = PerChannelW4::quantize(&w);
                let codes = pc.codes();
                for m in [1usize, 3, 4, 5, 32, 33] {
                    let (_, q) = acts(rng, m, k);
                    let y = gemm_w4a8_per_group(&q, &pw);
                    let y_pc = gemm_w4a8_per_channel(&q, &pc);
                    for i in 0..m {
                        for j in 0..n {
                            let (mut acc, mut acc_pc) = (0i64, 0i64);
                            for p in 0..k {
                                let x = i64::from(q.codes[i * k + p]);
                                acc += x * i64::from(inter[j * k + p]);
                                acc_pc += x * (i64::from(codes[j * k + p]) - i64::from(pc.zeros()[j]));
                            }
                            let expect = acc as f32 * q.scales[i] * pw.channel_scales()[j];
                            assert_eq!(y[(i, j)].to_bits(), expect.to_bits(), "per-group k={k} g={g} n={n} m={m} ({i}, {j})");
                            let expect = acc_pc as f32 * q.scales[i] * pc.scales()[j];
                            assert_eq!(y_pc[(i, j)].to_bits(), expect.to_bits(), "per-channel k={k} n={n} m={m} ({i}, {j})");
                        }
                    }
                }
            }
        }
    }

    /// The kernels over the offline-packed words against the scalar integer
    /// reference, bit for bit, on the shapes the packed layout makes
    /// awkward: reductions that are not a multiple of the 32-weight word
    /// (a zero-padded final word), groups as small as one register, one
    /// group per row, and token counts from a single decode row to a
    /// prefill chunk.
    #[test]
    fn packed_kernels_match_integer_reference_on_ragged_shapes() {
        let mut rng = TensorRng::seed(12);
        // (k, group size): 40, 72 and 100 are not multiples of 32; a group
        // of 32 can only divide a k that is.
        for (k, g) in [(40, 4), (40, 40), (72, 4), (72, 72), (100, 4), (96, 32), (64, 32)] {
            for m in [1, 7, 32] {
                let n = 19;
                let (_, q) = acts(&mut rng, m, k);
                let w = rng.heavy_tailed(n, k, 0.1, 0.05, 6.0);

                let pw = ProgressiveWeight::quantize(&w, g);
                let y = gemm_w4a8_per_group(&q, &pw);
                let inter = pw.intermediate_int8();
                let pc = PerChannelW4::quantize(&w);
                let y_pc = gemm_w4a8_per_channel(&q, &pc);
                let codes = pc.codes();
                for i in 0..m {
                    for j in 0..n {
                        let (mut acc, mut acc_pc) = (0i64, 0i64);
                        for p in 0..k {
                            let x = i64::from(q.codes[i * k + p]);
                            acc += x * i64::from(inter[j * k + p]);
                            acc_pc += x * (i64::from(codes[j * k + p]) - i64::from(pc.zeros()[j]));
                        }
                        let expect = acc as f32 * q.scales[i] * pw.channel_scales()[j];
                        assert_eq!(y[(i, j)].to_bits(), expect.to_bits(), "per-group k={k} g={g} m={m} ({i}, {j})");
                        let expect = acc_pc as f32 * q.scales[i] * pc.scales()[j];
                        assert_eq!(y_pc[(i, j)].to_bits(), expect.to_bits(), "per-channel k={k} m={m} ({i}, {j})");
                    }
                }
            }
        }
    }
}
