//! Transformer primitives: softmax, RMSNorm, RoPE, SiLU/SwiGLU.
//!
//! These implement the block structure described in §2.1 of the paper: each
//! layer is attention + FFN + normalization, queries/keys get rotary position
//! embeddings (RoPE), and the FFN uses a gated activation.

use crate::matrix::Matrix;

/// Numerically-stable softmax over a slice, in place.
///
/// Subtracts the max before exponentiating so that large attention logits do
/// not overflow.
///
/// # Example
/// ```
/// let mut v = vec![1.0f32, 2.0, 3.0];
/// qserve_tensor::ops::softmax_inplace(&mut v);
/// assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-6);
/// assert!(v[2] > v[1] && v[1] > v[0]);
/// ```
pub fn softmax_inplace(v: &mut [f32]) {
    if v.is_empty() {
        return;
    }
    let max = v.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in v.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in v.iter_mut() {
            *x /= sum;
        }
    }
}

/// RMS normalization of each row: `x / sqrt(mean(x²) + eps) * gain`.
///
/// # Panics
/// Panics if `gain.len() != x.cols()`.
pub fn rmsnorm(x: &Matrix, gain: &[f32], eps: f32) -> Matrix {
    assert_eq!(gain.len(), x.cols(), "rmsnorm gain length mismatch");
    let mut out = x.clone();
    let cols = x.cols();
    for i in 0..x.rows() {
        let row = out.row_mut(i);
        let ms: f32 =
            row.iter().map(|v| f64::from(*v) * f64::from(*v)).sum::<f64>() as f32 / cols as f32;
        let inv = 1.0 / (ms + eps).sqrt();
        for (v, &g) in row.iter_mut().zip(gain.iter()) {
            *v = *v * inv * g;
        }
    }
    out
}

/// SiLU (sigmoid-weighted linear unit): `x * sigmoid(x)`.
fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// SwiGLU gating: `silu(gate) * up`, applied element-wise.
///
/// This is the FFN activation used by every Llama-family model in the paper's
/// evaluation (§6.2). The second FFN GEMM consumes its output, which is why
/// QServe fuses activation quantization into this kernel (§5.1).
///
/// # Panics
/// Panics on shape mismatch.
pub fn swiglu(gate: &Matrix, up: &Matrix) -> Matrix {
    assert_eq!(gate.shape(), up.shape(), "swiglu shape mismatch");
    let data: Vec<f32> = gate
        .as_slice()
        .iter()
        .zip(up.as_slice())
        .map(|(&g, &u)| silu(g) * u)
        .collect();
    Matrix::from_vec(gate.rows(), gate.cols(), data)
}

/// Rotary positional embedding over one head's feature slice, in place.
///
/// Pairs channel `i` with channel `i + d/2` within the head (the "rotate-half"
/// convention used by Llama), rotating each pair by `pos·θᵢ` where
/// `θᵢ = base^(-2i/d)`. §4.2 of the paper relies on this pairing: the
/// SmoothAttention scale must satisfy `λᵢ = λᵢ₊d/₂` to commute with RoPE.
///
/// # Panics
/// Panics if `head.len()` is odd.
pub fn rope_inplace(head: &mut [f32], pos: usize, base: f32) {
    let d = head.len();
    assert!(d % 2 == 0, "RoPE head dimension must be even");
    let half = d / 2;
    for i in 0..half {
        let theta = base.powf(-2.0 * i as f32 / d as f32);
        let angle = pos as f32 * theta;
        let (sin, cos) = angle.sin_cos();
        let a = head[i];
        let b = head[i + half];
        head[i] = a * cos - b * sin;
        head[i + half] = a * sin + b * cos;
    }
}

/// Applies RoPE to every head of every row of a `tokens × (heads·head_dim)`
/// matrix, where row `t` is at position `pos_offset + t`.
///
/// # Panics
/// Panics if `x.cols()` is not a multiple of `head_dim`.
pub fn rope_matrix(x: &mut Matrix, head_dim: usize, pos_offset: usize, base: f32) {
    assert!(
        x.cols() % head_dim == 0,
        "cols {} not a multiple of head_dim {}",
        x.cols(),
        head_dim
    );
    let heads = x.cols() / head_dim;
    for t in 0..x.rows() {
        let row = x.row_mut(t);
        for h in 0..heads {
            rope_inplace(&mut row[h * head_dim..(h + 1) * head_dim], pos_offset + t, base);
        }
    }
}

/// Single-query attention: `softmax(q Kᵀ / sqrt(d)) V`.
///
/// `q` has length `d`; `keys` and `values` are `seq × d`. Returns the output
/// vector of length `d`. This is the reference the KV4 attention kernel
/// (`qserve-kernels`) is checked against.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn attention_single(q: &[f32], keys: &Matrix, values: &Matrix) -> Vec<f32> {
    assert_eq!(q.len(), keys.cols(), "q/K dim mismatch");
    assert_eq!(keys.shape(), values.shape(), "K/V shape mismatch");
    let d = q.len();
    let seq = keys.rows();
    let scale = 1.0 / (d as f32).sqrt();
    let mut scores = Vec::with_capacity(seq);
    for s in 0..seq {
        let k = keys.row(s);
        let dot: f32 = q.iter().zip(k).map(|(a, b)| a * b).sum();
        scores.push(dot * scale);
    }
    softmax_inplace(&mut scores);
    let mut out = vec![0.0f32; d];
    for (s, &p) in scores.iter().enumerate() {
        let v = values.row(s);
        for (o, &x) in out.iter_mut().zip(v) {
            *o += p * x;
        }
    }
    out
}

/// Causal multi-token attention for prefill: row `t` of `q` attends to key
/// rows `0..=t`. All matrices are `seq × d` for a single head.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn attention_causal(q: &Matrix, keys: &Matrix, values: &Matrix) -> Matrix {
    assert_eq!(q.cols(), keys.cols(), "q/K dim mismatch");
    assert_eq!(keys.shape(), values.shape(), "K/V shape mismatch");
    assert_eq!(q.rows(), keys.rows(), "causal attention needs equal seq lens");
    let d = q.cols();
    let scale = 1.0 / (d as f32).sqrt();
    let mut out = Matrix::zeros(q.rows(), d);
    for t in 0..q.rows() {
        let qr = q.row(t);
        let mut scores = Vec::with_capacity(t + 1);
        for s in 0..=t {
            let dot: f32 = qr.iter().zip(keys.row(s)).map(|(a, b)| a * b).sum();
            scores.push(dot * scale);
        }
        softmax_inplace(&mut scores);
        let orow = out.row_mut(t);
        for (s, &p) in scores.iter().enumerate() {
            for (o, &v) in orow.iter_mut().zip(values.row(s)) {
                *o += p * v;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let mut v = vec![0.5, -1.0, 3.0, 2.0];
        softmax_inplace(&mut v);
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(v.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn softmax_handles_large_logits() {
        let mut v = vec![1000.0, 1001.0];
        softmax_inplace(&mut v);
        assert!(v.iter().all(|p| p.is_finite()));
        assert!(v[1] > v[0]);
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut v: Vec<f32> = vec![];
        softmax_inplace(&mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn rmsnorm_unit_gain_normalizes() {
        let x = Matrix::from_rows(&[vec![3.0, 4.0]]);
        let y = rmsnorm(&x, &[1.0, 1.0], 0.0);
        // RMS of [3,4] is sqrt(12.5); normalized RMS should be 1.
        let ms: f32 = y.row(0).iter().map(|v| v * v).sum::<f32>() / 2.0;
        assert!((ms - 1.0).abs() < 1e-5);
    }

    #[test]
    fn silu_known_values() {
        assert_eq!(silu(0.0), 0.0);
        assert!((silu(1.0) - 0.731_058_6).abs() < 1e-5);
        assert!(silu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn swiglu_matches_elementwise() {
        let g = Matrix::from_rows(&[vec![1.0, -1.0]]);
        let u = Matrix::from_rows(&[vec![2.0, 2.0]]);
        let y = swiglu(&g, &u);
        assert!((y[(0, 0)] - 2.0 * silu(1.0)).abs() < 1e-6);
        assert!((y[(0, 1)] - 2.0 * silu(-1.0)).abs() < 1e-6);
    }

    #[test]
    fn rope_preserves_norm() {
        let mut h = vec![1.0, 2.0, 3.0, 4.0];
        let norm0: f32 = h.iter().map(|v| v * v).sum();
        rope_inplace(&mut h, 7, 10000.0);
        let norm1: f32 = h.iter().map(|v| v * v).sum();
        assert!((norm0 - norm1).abs() < 1e-4);
    }

    #[test]
    fn rope_position_zero_is_identity() {
        let mut h = vec![1.0, 2.0, 3.0, 4.0];
        let orig = h.clone();
        rope_inplace(&mut h, 0, 10000.0);
        assert_eq!(h, orig);
    }

    #[test]
    fn rope_is_rotation_per_pair() {
        // For d=2 RoPE is a plain 2D rotation by `pos` radians (θ₀=1).
        let mut h = vec![1.0, 0.0];
        rope_inplace(&mut h, 1, 10000.0);
        assert!((h[0] - 1f32.cos()).abs() < 1e-6);
        assert!((h[1] - 1f32.sin()).abs() < 1e-6);
    }

    #[test]
    fn attention_single_uniform_scores() {
        // Identical keys → uniform attention → output = mean of values.
        let keys = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 0.0]]);
        let values = Matrix::from_rows(&[vec![0.0, 2.0], vec![4.0, 0.0]]);
        let out = attention_single(&[1.0, 0.0], &keys, &values);
        assert!((out[0] - 2.0).abs() < 1e-6);
        assert!((out[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn attention_causal_first_row_sees_only_first_kv() {
        let q = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let k = q.clone();
        let v = Matrix::from_rows(&[vec![5.0, 0.0], vec![0.0, 7.0]]);
        let out = attention_causal(&q, &k, &v);
        // Row 0 can only attend to kv 0.
        assert!((out[(0, 0)] - 5.0).abs() < 1e-6);
        assert!((out[(0, 1)] - 0.0).abs() < 1e-6);
    }

    #[test]
    fn attention_causal_last_row_matches_single() {
        let q = Matrix::from_fn(3, 4, |i, j| ((i + j) as f32 * 0.3).sin());
        let k = Matrix::from_fn(3, 4, |i, j| ((i * j) as f32 * 0.2).cos());
        let v = Matrix::from_fn(3, 4, |i, j| (i as f32 - j as f32) * 0.1);
        let full = attention_causal(&q, &k, &v);
        let single = attention_single(q.row(2), &k, &v);
        for (a, b) in full.row(2).iter().zip(single.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
