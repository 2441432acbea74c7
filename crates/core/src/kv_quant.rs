//! Per-head, dynamic KV-cache quantization (§5.1).
//!
//! "QServe requires per-head, dynamic KV quantization to maintain competitive
//! accuracy due to the lower bit precision (4 vs. 8). We therefore store FP16
//! scaling factors and zero points for each head immediately following the
//! quantized KV features in each KV cache page, allowing these values to be
//! updated on-the-fly."
//!
//! This module implements the per-token/per-head quantization math; the page
//! layout that embeds the parameters next to the features lives in
//! `qserve-serve::kv_cache`.

use qserve_quant::params::QParams;
use qserve_quant::rounding::round_clamp;
use qserve_tensor::fp16::f16_step;

/// KV cache precision (the paper compares KV8 and KV4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KvPrecision {
    /// 16-bit (no quantization) — TRT-LLM FP16 baseline.
    Fp16,
    /// 8-bit asymmetric.
    Int8,
    /// 4-bit asymmetric — QServe's KV4.
    Int4,
}

impl KvPrecision {
    /// Bits per stored element.
    pub fn bits(self) -> u32 {
        match self {
            KvPrecision::Fp16 => 16,
            KvPrecision::Int8 => 8,
            KvPrecision::Int4 => 4,
        }
    }

    /// Inclusive unsigned code range `(0, qmax)`.
    pub fn q_range(self) -> (i32, i32) {
        match self {
            KvPrecision::Fp16 => (0, 0),
            KvPrecision::Int8 => (0, 255),
            KvPrecision::Int4 => (0, 15),
        }
    }

    /// Bytes one head's `head_dim` stored elements occupy (KV4 packs two
    /// codes per byte; an odd `head_dim` leaves the last high nibble unused).
    pub fn lane_bytes(self, head_dim: usize) -> usize {
        (head_dim * self.bits() as usize).div_ceil(8)
    }
}

/// One token's worth of quantized K or V features for a single head,
/// with its dynamic per-head parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedHeadToken {
    /// Unsigned codes, one per feature channel.
    pub codes: Vec<u8>,
    /// Dynamic scale/zero for this (token, head) pair. Scale is FP16-rounded
    /// as it would be stored in the page.
    pub params: QParams,
}

/// Quantizes one head's feature vector (length = head_dim) dynamically —
/// asymmetric, range computed from this very vector — writing the codes
/// **as a KV page stores them** straight into `codes_out`: one byte per code
/// for KV8, two codes per byte (low nibble first) for KV4. Returns the
/// dynamic parameters; nothing is allocated.
///
/// # Panics
/// Panics if `precision` is [`KvPrecision::Fp16`] (nothing to quantize) or
/// `codes_out` is not exactly [`KvPrecision::lane_bytes`] long.
pub fn quantize_head_into(features: &[f32], precision: KvPrecision, codes_out: &mut [u8]) -> QParams {
    assert!(
        precision != KvPrecision::Fp16,
        "quantize_head called with FP16 precision"
    );
    assert_eq!(codes_out.len(), precision.lane_bytes(features.len()), "code buffer size mismatch");
    let (qmin, qmax) = precision.q_range();
    let (lo, hi) = features
        .iter()
        .fold((0.0f32, 0.0f32), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let scale = f16_step(hi - lo, qmax as f32);
    let zero = round_clamp(-lo / scale, qmin, qmax);
    let params = QParams { scale, zero };
    let code = |x: f32| params.quantize(x, qmin, qmax) as u8;
    if precision == KvPrecision::Int4 {
        let mut pairs = features.chunks_exact(2);
        for (byte, pair) in codes_out.iter_mut().zip(pairs.by_ref()) {
            *byte = code(pair[0]) | (code(pair[1]) << 4);
        }
        // An odd head_dim leaves the last byte's high nibble zero.
        if let ([x], Some(byte)) = (pairs.remainder(), codes_out.last_mut()) {
            *byte = code(*x);
        }
    } else {
        for (byte, &x) in codes_out.iter_mut().zip(features) {
            *byte = code(x);
        }
    }
    params
}

/// [`quantize_head_into`] materialised: the codes one per byte, whatever
/// the precision.
///
/// # Panics
/// Panics if `precision` is [`KvPrecision::Fp16`] (nothing to quantize).
pub fn quantize_head(features: &[f32], precision: KvPrecision) -> QuantizedHeadToken {
    let mut codes = vec![0u8; precision.lane_bytes(features.len())];
    let params = quantize_head_into(features, precision, &mut codes);
    if precision == KvPrecision::Int4 {
        codes = codes.iter().flat_map(|&byte| [byte & 0x0F, byte >> 4]).take(features.len()).collect();
    }
    QuantizedHeadToken { codes, params }
}

/// Dequantizes a head token back to `f32` features.
pub fn dequantize_head(token: &QuantizedHeadToken) -> Vec<f32> {
    token
        .codes
        .iter()
        .map(|&q| token.params.dequantize(i32::from(q)))
        .collect()
}

/// Quantizes a full token row (`heads × head_dim` concatenated) per head.
///
/// # Panics
/// Panics if `row.len()` is not a multiple of `head_dim`.
pub fn quantize_token_row(
    row: &[f32],
    head_dim: usize,
    precision: KvPrecision,
) -> Vec<QuantizedHeadToken> {
    assert!(
        row.len() % head_dim == 0,
        "row length {} not a multiple of head_dim {}",
        row.len(),
        head_dim
    );
    row.chunks(head_dim)
        .map(|head| quantize_head(head, precision))
        .collect()
}

/// Dequantizes a full token row produced by [`quantize_token_row`].
pub fn dequantize_token_row(tokens: &[QuantizedHeadToken]) -> Vec<f32> {
    tokens.iter().flat_map(dequantize_head).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserve_tensor::rng::TensorRng;

    fn max_abs_err(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max)
    }

    #[test]
    fn kv8_round_trip_tight() {
        let mut rng = TensorRng::seed(1);
        let feats: Vec<f32> = (0..64).map(|_| rng.normal(1.0)).collect();
        let q = quantize_head(&feats, KvPrecision::Int8);
        let back = dequantize_head(&q);
        assert!(max_abs_err(&feats, &back) <= q.params.scale, "within one step");
    }

    #[test]
    fn kv4_round_trip_bounded() {
        let mut rng = TensorRng::seed(2);
        let feats: Vec<f32> = (0..64).map(|_| rng.normal(1.0)).collect();
        let q = quantize_head(&feats, KvPrecision::Int4);
        let back = dequantize_head(&q);
        assert!(max_abs_err(&feats, &back) <= q.params.scale);
    }

    #[test]
    fn kv8_better_than_kv4() {
        let mut rng = TensorRng::seed(3);
        let feats: Vec<f32> = (0..128).map(|_| rng.normal(1.0)).collect();
        let e8 = max_abs_err(&feats, &dequantize_head(&quantize_head(&feats, KvPrecision::Int8)));
        let e4 = max_abs_err(&feats, &dequantize_head(&quantize_head(&feats, KvPrecision::Int4)));
        assert!(e8 < e4);
    }

    #[test]
    fn codes_in_range() {
        let mut rng = TensorRng::seed(4);
        let feats: Vec<f32> = (0..64).map(|_| rng.normal(2.0)).collect();
        let q = quantize_head(&feats, KvPrecision::Int4);
        assert!(q.codes.iter().all(|&c| c <= 15));
        let q8 = quantize_head(&feats, KvPrecision::Int8);
        // all u8 values valid by type; check params zero in range
        assert!((0..=255).contains(&q8.params.zero));
    }

    #[test]
    fn per_head_isolation() {
        // A huge outlier in head 0 must not degrade head 1's precision —
        // that is the whole point of per-head dynamic quantization.
        let mut rng = TensorRng::seed(5);
        let mut row: Vec<f32> = (0..16).map(|_| rng.normal(0.5)).collect();
        row[3] = 100.0; // head 0 outlier
        let tokens = quantize_token_row(&row, 8, KvPrecision::Int4);
        let back = dequantize_token_row(&tokens);
        let head1_err = max_abs_err(&row[8..], &back[8..]);
        assert!(
            head1_err <= tokens[1].params.scale,
            "head 1 precision should be unaffected by head 0 outlier"
        );
        assert!(tokens[0].params.scale > tokens[1].params.scale * 10.0);
    }

    /// `quantize_head_into` writes a page's bytes: KV8 one code per byte,
    /// KV4 two per byte with the low nibble first and an odd head's last
    /// high nibble zero — the codes `quantize_head` hands back one per byte,
    /// each the element-wise quantization under the returned parameters.
    #[test]
    fn quantize_head_into_packs_what_quantize_head_returns() {
        let mut rng = TensorRng::seed(7);
        for head_dim in [1usize, 2, 5, 16, 17, 128] {
            let feats: Vec<f32> = (0..head_dim).map(|_| rng.normal(1.5)).collect();
            for precision in [KvPrecision::Int4, KvPrecision::Int8] {
                // A dirty buffer: every byte, and the unused nibble, must be written.
                let mut packed = vec![0xFFu8; precision.lane_bytes(head_dim)];
                let params = quantize_head_into(&feats, precision, &mut packed);
                let token = quantize_head(&feats, precision);
                assert_eq!(token.params, params);
                let (qmin, qmax) = precision.q_range();
                let expect: Vec<u8> = feats.iter().map(|&x| params.quantize(x, qmin, qmax) as u8).collect();
                assert_eq!(token.codes, expect, "{:?} d={}", precision, head_dim);
                match precision {
                    KvPrecision::Int4 => {
                        assert_eq!(packed.len(), head_dim.div_ceil(2));
                        for (byte, pair) in packed.iter().zip(expect.chunks(2)) {
                            assert_eq!(*byte, pair[0] | (pair.get(1).copied().unwrap_or(0) << 4));
                        }
                    }
                    _ => assert_eq!(packed, expect),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "code buffer size mismatch")]
    fn quantize_head_into_rejects_a_wrong_sized_buffer() {
        quantize_head_into(&[0.0; 9], KvPrecision::Int4, &mut [0u8; 4]);
    }

    #[test]
    fn zero_vector_is_exact() {
        let q = quantize_head(&[0.0; 8], KvPrecision::Int4);
        assert_eq!(dequantize_head(&q), vec![0.0; 8]);
    }

    #[test]
    fn a_head_below_fp16_resolution_is_a_zero_vector() {
        let feats: Vec<f32> = (0..16).map(|j| (j as f32 - 7.5) * 1.0e-9).collect();
        for precision in [KvPrecision::Int4, KvPrecision::Int8] {
            let q = quantize_head(&feats, precision);
            assert_eq!(q.params, QParams { scale: 1.0, zero: 0 });
            assert!(q.codes.iter().all(|&c| c == 0));
            assert_eq!(dequantize_head(&q), vec![0.0; 16]);
        }
    }

    #[test]
    fn dynamic_beats_static_on_drifting_tokens() {
        // Token magnitudes drift over time; static (per-tensor, offline)
        // scales mis-fit late tokens, dynamic per-token scales adapt. This
        // is why QServe uses dynamic quantization (§5.1).
        let mut rng = TensorRng::seed(6);
        let head_dim = 32;
        let tokens: Vec<Vec<f32>> = (0..50)
            .map(|t| {
                let amp = 0.1 + t as f32 * 0.1;
                (0..head_dim).map(|_| rng.normal(amp)).collect()
            })
            .collect();
        // Static: one scale from the global range.
        let global_max = tokens
            .iter()
            .flat_map(|t| t.iter())
            .fold(0.0f32, |a, &v| a.max(v.abs()));
        let static_scale = global_max * 2.0 / 15.0;
        let mut static_err = 0.0f64;
        let mut dynamic_err = 0.0f64;
        for t in &tokens {
            for &v in t {
                let q = ((v / static_scale + 8.0).round()).clamp(0.0, 15.0);
                let back = (q - 8.0) * static_scale;
                static_err += f64::from((v - back) * (v - back));
            }
            let qt = quantize_head(t, KvPrecision::Int4);
            let back = dequantize_head(&qt);
            for (a, b) in t.iter().zip(&back) {
                dynamic_err += f64::from((a - b) * (a - b));
            }
        }
        assert!(
            dynamic_err < static_err * 0.5,
            "dynamic {} should halve static {}",
            dynamic_err,
            static_err
        );
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn rejects_ragged_row() {
        quantize_token_row(&[0.0; 10], 8, KvPrecision::Int4);
    }
}
