//! The KV4 decoding-attention kernel (§5.3).
//!
//! The naive KV4 kernel is *compute-bound* on A100 (5 ALU ops per
//! dequantized element against a 9.8 op/byte roofline turning point). QServe
//! recovers the KV4 bandwidth win by:
//!
//! 1. replacing FP32 CUDA-core math with FP16 (doubles the compute roof);
//! 2. a two-op dequantization using the fp16 *magic bias* bit trick of
//!    Kim et al. 2022 ([`magic_bias_dequant`]);
//! 3. prefetching per-head scales/zeros at kernel start (modelled in
//!    `qserve-gpusim`; numerically irrelevant here).
//!
//! This module emulates the kernel's *numerics* bit-for-bit in binary16; the
//! latency model for Table 1 lives in `qserve-gpusim`.
//!
//! There is one spelling of the arithmetic, [`HeadTile`]: one KV head's
//! cache is dequantized **once** — from borrowed [`KvLane`]s, a paged
//! cache's bytes where they lie (KV4 nibbles still packed) or a materialised
//! [`QuantizedKvHead`] — into a tile that every row reading that head in the
//! step then attends over: the query heads of a GQA group, and every row of
//! a prefill chunk at its own causal length. Dequantization is paid per
//! (sequence, layer, KV head) per step, not per row; nothing dequantized
//! outlives the step. It runs on the calling thread: a 256-token head costs
//! tens of microseconds end to end, the same order as one pool fork-join,
//! so forking inside a head cannot pay.

use qserve_core::kv_quant::{KvPrecision, QuantizedHeadToken};
use qserve_tensor::fp16::{round_f16, F16};
use qserve_tensor::ops::softmax_inplace;

/// The binary16 value `0x6400 | code` — exactly `1024 + code`, the magic
/// bias with a code ORed into its (all-zero) mantissa — widened to the
/// `f32` the emulation computes in: binary16 mantissa bit `i` is `f32`
/// mantissa bit `i + 13`, and `1024.0f32` is `0x4480_0000`.
#[inline]
fn magic_bias(code: u8) -> f32 {
    f32::from_bits(0x4480_0000 | (u32::from(code) << 13))
}

/// The two-op dequantization of one code: an fp16 subtraction of the
/// pre-biased zero point `1024 + z` (exact — both operands and the
/// difference are small integers) and one fp16 multiply by the scale.
/// `scale` must be a binary16 value; the result is one too.
#[inline]
fn dequant(code: u8, bias_zero: f32, scale: f32) -> f32 {
    round_f16((magic_bias(code) - bias_zero) * scale)
}

/// The fp16 magic-bias dequantization (Kim et al. 2022): ORing a 4-bit code
/// into the mantissa of the fp16 constant `1024.0` (bits `0x6400`) yields
/// **exactly** `1024 + q` (integers up to 2048 are exact in binary16); one
/// fp16 subtraction of `1024 + z` then recovers `q − z` exactly, and one
/// multiply applies the scale — two arithmetic ops per element instead of
/// five (mask, shift, cvt, mul, sub).
///
/// The 10-bit mantissa of `1024.0` is zero, so any 8-bit code fits exactly —
/// the same trick covers both KV4 and KV8 codes.
///
/// # Example
/// ```
/// use qserve_kernels::attention::magic_bias_dequant;
/// use qserve_tensor::fp16::F16;
/// let v = magic_bias_dequant(13, 8, F16::from_f32(0.5));
/// assert_eq!(v.to_f32(), 2.5); // (13 − 8) · 0.5
/// ```
pub fn magic_bias_dequant(code: u8, zero: u8, scale: F16) -> F16 {
    F16::from_f32(dequant(code, magic_bias(zero), scale.to_f32()))
}

/// How one token-head's codes sit in memory.
#[derive(Debug, Clone, Copy)]
pub enum LaneCodes<'a> {
    /// One code per byte (KV8 pages, and [`QuantizedHeadToken`] at either
    /// precision).
    Bytes(&'a [u8]),
    /// Two codes per byte, low nibble first — a KV4 page's bytes as stored.
    Nibbles(&'a [u8]),
}

impl LaneCodes<'_> {
    /// Materialises the lane's `head_dim` codes one per byte (an odd
    /// `head_dim` leaves the last byte's high nibble unused).
    pub fn unpack(&self, head_dim: usize) -> Vec<u8> {
        match *self {
            LaneCodes::Bytes(codes) => codes.to_vec(),
            LaneCodes::Nibbles(bytes) => {
                let mut codes = Vec::with_capacity(2 * bytes.len());
                for &byte in bytes {
                    codes.extend([byte & 0x0F, byte >> 4]);
                }
                codes.truncate(head_dim);
                codes
            }
        }
    }
}

/// One cached token's K *or* V features for one head, borrowed from
/// wherever they live: what the fused kernel reads per token-head.
#[derive(Debug, Clone, Copy)]
pub struct KvLane<'a> {
    /// The quantized features.
    pub codes: LaneCodes<'a>,
    /// Dynamic per-token-head scale, a binary16 value (as stored in a page).
    pub scale: f32,
    /// Dynamic per-token-head zero point.
    pub zero: u8,
}

impl KvLane<'_> {
    /// Dequantizes the lane's `out.len()` features with the magic-bias
    /// trick; scale and zero are decoded once for the whole lane.
    ///
    /// # Panics
    /// Panics if the lane does not hold exactly `out.len()` codes.
    #[inline]
    fn dequantize_into(&self, out: &mut [f32]) {
        let bias_zero = magic_bias(self.zero);
        match self.codes {
            LaneCodes::Bytes(codes) => {
                assert_eq!(codes.len(), out.len(), "head_dim mismatch");
                for (o, &code) in out.iter_mut().zip(codes) {
                    *o = dequant(code, bias_zero, self.scale);
                }
            }
            LaneCodes::Nibbles(bytes) => {
                assert_eq!(bytes.len(), out.len().div_ceil(2), "head_dim mismatch");
                // A 4-bit code under one (scale, zero) has only sixteen
                // possible values: dequantize each once — a counted loop
                // over consecutive codes, which the compiler vectorises —
                // and look the lane's codes up.
                let mut table = [0.0f32; 16];
                for (code, value) in table.iter_mut().enumerate() {
                    *value = dequant(code as u8, bias_zero, self.scale);
                }
                let mut pairs = out.chunks_exact_mut(2);
                for (pair, &byte) in pairs.by_ref().zip(bytes) {
                    pair[0] = table[usize::from(byte & 0x0F)];
                    pair[1] = table[usize::from(byte >> 4)];
                }
                // An odd head_dim leaves the last byte's high nibble unused.
                if let ([last], Some(&byte)) = (pairs.into_remainder(), bytes.last()) {
                    *last = table[usize::from(byte & 0x0F)];
                }
            }
        }
    }
}

/// One KV head's cached keys and values, dequantized for one step.
///
/// "Fused" still means the kernel consumes the cache where it lies — the
/// lanes are borrowed, nothing quantized is copied — but the two-op
/// magic-bias dequantization now runs once per cached token per step:
/// [`HeadTile::reset`] sizes the tile, [`HeadTile::push`] dequantizes one
/// token's K and V lanes into it, and [`HeadTile::attend`] then serves any
/// number of rows, each over its own visible prefix. Keys are stored
/// feature-major (`head_dim × seq`) so the score loop is unit-stride over
/// tokens; values token-major (`seq × head_dim`) so the output loop is
/// unit-stride over features. The buffers are reused from fill to fill, so
/// a step over many heads, sequences and layers allocates nothing per
/// token.
#[derive(Debug, Default)]
pub struct HeadTile {
    head_dim: usize,
    /// Tokens the tile was sized for, and how many have been pushed.
    seq: usize,
    filled: usize,
    /// Dequantized keys, `head_dim × seq`, feature-major.
    keys: Vec<f32>,
    /// Dequantized values, `seq × head_dim`, token-major.
    values: Vec<f32>,
    /// One dequantized key lane on its way into a column of `keys`.
    lane: Vec<f32>,
    /// Scaled queries in binary16, `group × head_dim`.
    q16: Vec<f32>,
    /// One query head's scores, then probabilities.
    scores: Vec<f32>,
}

impl HeadTile {
    /// Empties the tile and sizes it for `seq` tokens of `head_dim`
    /// features; exactly `seq` [`HeadTile::push`]es must follow.
    ///
    /// # Panics
    /// Panics if `head_dim == 0`.
    pub fn reset(&mut self, head_dim: usize, seq: usize) {
        assert!(head_dim > 0, "head_dim must be positive");
        (self.head_dim, self.seq, self.filled) = (head_dim, seq, 0);
        // Every element is overwritten by the pushes; no need to clear.
        self.keys.resize(head_dim * seq, 0.0);
        self.values.resize(head_dim * seq, 0.0);
        self.lane.resize(head_dim, 0.0);
    }

    /// Dequantizes the next cached token's key and value lanes into the
    /// tile (tokens arrive oldest first).
    ///
    /// # Panics
    /// Panics if the tile is already full or a lane's width is not
    /// `head_dim`.
    #[inline]
    pub fn push(&mut self, key: KvLane<'_>, value: KvLane<'_>) {
        let (d, t) = (self.head_dim, self.filled);
        assert!(t < self.seq, "more lanes than the tile was sized for");
        key.dequantize_into(&mut self.lane);
        for (slot, &k) in self.keys[t..].iter_mut().step_by(self.seq).zip(&self.lane) {
            *slot = k;
        }
        value.dequantize_into(&mut self.values[t * d..(t + 1) * d]);
        self.filled += 1;
    }

    /// QServe's decode attention for the `group` query heads that share
    /// this KV head (GQA), over the first `visible` cached tokens,
    /// emulating the FP16 compute path: Q·K products and the softmax·V
    /// reduction run in binary16 with FP32 accumulation (the HMMA
    /// accumulate width). `queries` and `out` are `group × head_dim`,
    /// head-major.
    ///
    /// A decode row attends over the whole tile; row `r` of a prefill chunk
    /// whose K/V were appended before the fill attends over
    /// `past + r + 1` — causal by construction, and bit-identical to a
    /// tile filled with only those tokens: a token's dequantized lane does
    /// not depend on what follows it, each score accumulates its
    /// `head_dim` products in index order from zero, and each output
    /// feature accumulates over the visible tokens in cache order.
    ///
    /// # Panics
    /// Panics if `visible == 0` or exceeds the tile, the tile is not
    /// completely filled, or the query and output widths disagree or are
    /// not a multiple of `head_dim`.
    pub fn attend(&mut self, queries: &[f32], visible: usize, out: &mut [f32]) {
        assert!(visible > 0, "empty KV cache");
        assert_eq!(self.filled, self.seq, "tile fill incomplete");
        assert!(visible <= self.seq, "{} visible tokens in a tile of {}", visible, self.seq);
        assert_eq!(queries.len(), out.len(), "one output per query feature");
        let d = self.head_dim;
        assert!(
            queries.len() % d == 0,
            "query width {} not a multiple of head_dim {}",
            queries.len(),
            d
        );
        let scale = 1.0 / (d as f32).sqrt();
        self.q16.clear();
        self.q16.extend(queries.iter().map(|&v| round_f16(v * scale)));
        self.scores.resize(visible, 0.0);
        let scores = &mut self.scores[..];
        for (q, o) in self.q16.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
            // Stage 1: scores = q·Kᵀ in fp16 multiplies, fp32 accumulation,
            // one feature at a time across all visible tokens.
            scores.fill(0.0);
            for (&qj, k) in q.iter().zip(self.keys.chunks_exact(self.seq)) {
                for (score, &k) in scores.iter_mut().zip(&k[..visible]) {
                    *score += round_f16(qj * k);
                }
            }
            // Stage 2: softmax on CUDA cores (fp32, as in the real kernel).
            softmax_inplace(scores);
            // Stage 3: out = Σ p_t · V_t, fp16 multiplies, fp32
            // accumulation, tokens in cache order.
            o.fill(0.0);
            for (&p, v) in scores.iter().zip(self.values.chunks_exact(d)) {
                let p16 = round_f16(p);
                for (oj, &v) in o.iter_mut().zip(v) {
                    *oj += round_f16(p16 * v);
                }
            }
        }
    }
}

/// One head's quantized KV sequence: per-token codes and dynamic params, as
/// stored in a QServe KV-cache page.
#[derive(Debug, Clone)]
pub struct QuantizedKvHead {
    /// Quantized keys, one entry per cached token.
    pub keys: Vec<QuantizedHeadToken>,
    /// Quantized values, one entry per cached token.
    pub values: Vec<QuantizedHeadToken>,
    /// Element precision.
    pub precision: KvPrecision,
}

impl QuantizedKvHead {
    /// Creates an empty cache for one head.
    pub fn new(precision: KvPrecision) -> Self {
        Self {
            keys: Vec::new(),
            values: Vec::new(),
            precision,
        }
    }

    /// Appends one token's K/V features, quantizing on the fly.
    ///
    /// # Panics
    /// Panics if `k.len() != v.len()`.
    pub fn append(&mut self, k: &[f32], v: &[f32]) {
        assert_eq!(k.len(), v.len(), "K/V feature length mismatch");
        self.keys.push(qserve_core::kv_quant::quantize_head(k, self.precision));
        self.values.push(qserve_core::kv_quant::quantize_head(v, self.precision));
    }

    /// Cached sequence length.
    pub fn seq_len(&self) -> usize {
        self.keys.len()
    }
}

/// The lane of a materialised token: its codes one per byte, its scale as
/// the binary16 value a page would hold.
fn token_lane(token: &QuantizedHeadToken) -> KvLane<'_> {
    KvLane {
        codes: LaneCodes::Bytes(&token.codes),
        scale: round_f16(token.params.scale),
        zero: token.params.zero as u8,
    }
}

/// [`HeadTile`] decode attention for one query head over a materialised
/// [`QuantizedKvHead`] — the same tile, filled from owned tokens instead of
/// page bytes, attended once over everything it holds.
///
/// Returns the attention output (length = head_dim).
///
/// # Panics
/// Panics if the cache is empty, holds different numbers of keys and
/// values, or `q.len()` differs from the stored head_dim.
pub fn decode_attention_fp16(q: &[f32], cache: &QuantizedKvHead) -> Vec<f32> {
    assert_eq!(cache.keys.len(), cache.values.len(), "one value per key");
    let mut tile = HeadTile::default();
    tile.reset(q.len(), cache.seq_len());
    for (key, value) in cache.keys.iter().zip(&cache.values) {
        tile.push(token_lane(key), token_lane(value));
    }
    let mut out = vec![0.0f32; q.len()];
    tile.attend(q, cache.seq_len(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserve_tensor::rng::TensorRng;
    use qserve_tensor::Matrix;

    /// Scalar 5-op reference dequantization (mask/shift happen upstream here):
    /// integer subtract, int→float convert, float multiply — in fp32 then
    /// rounded, as the naive kernel would produce.
    fn naive_dequant(code: u8, zero: u8, scale: f32) -> f32 {
        round_f16((f32::from(code) - f32::from(zero)) * scale)
    }

    /// FP32 reference attention over the *dequantized* cache — isolates the
    /// fp16-arithmetic error from the quantization error in tests.
    fn decode_attention_fp32_reference(q: &[f32], cache: &QuantizedKvHead) -> Vec<f32> {
        use qserve_core::kv_quant::dequantize_head;
        let d = q.len();
        let dequantized = |tokens: &[QuantizedHeadToken]| {
            Matrix::from_vec(cache.seq_len(), d, tokens.iter().flat_map(dequantize_head).collect())
        };
        qserve_tensor::ops::attention_single(q, &dequantized(&cache.keys), &dequantized(&cache.values))
    }

    #[test]
    fn magic_bias_exact_for_all_codes() {
        // The bit trick must equal exact integer (q−z) times scale, for every
        // (q, z) pair and a spread of fp16 scales.
        for scale_bits in [0x3C00u16, 0x2E66, 0x4500, 0x1400] {
            let s = F16::from_bits(scale_bits);
            for q in 0u8..16 {
                for z in 0u8..16 {
                    let trick = magic_bias_dequant(q, z, s);
                    let exact = F16::from_f32(f32::from(q as i16 - z as i16)).mul(s);
                    assert_eq!(
                        trick.to_bits(),
                        exact.to_bits(),
                        "q={} z={} s={}",
                        q,
                        z,
                        s.to_f32()
                    );
                }
            }
        }
    }

    #[test]
    fn magic_bias_matches_naive_dequant() {
        let s = 0.0371f32;
        let s16 = F16::from_f32(s);
        for q in 0u8..16 {
            for z in 0u8..16 {
                let a = magic_bias_dequant(q, z, s16).to_f32();
                let b = naive_dequant(q, z, s16.to_f32());
                assert_eq!(a, b, "q={} z={}", q, z);
            }
        }
    }

    fn fill_cache(rng: &mut TensorRng, seq: usize, d: usize, p: KvPrecision) -> (Matrix, Matrix, QuantizedKvHead) {
        let keys = rng.gaussian(seq, d, 1.0);
        let values = rng.gaussian(seq, d, 1.0);
        let mut cache = QuantizedKvHead::new(p);
        for t in 0..seq {
            cache.append(keys.row(t), values.row(t));
        }
        (keys, values, cache)
    }

    #[test]
    fn fp16_kernel_close_to_fp32_reference() {
        let mut rng = TensorRng::seed(1);
        let (_, _, cache) = fill_cache(&mut rng, 64, 32, KvPrecision::Int4);
        let q: Vec<f32> = (0..32).map(|_| rng.normal(1.0)).collect();
        let fast = decode_attention_fp16(&q, &cache);
        let slow = decode_attention_fp32_reference(&q, &cache);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 0.02, "{} vs {}", a, b);
        }
    }

    #[test]
    fn kv4_attention_close_to_unquantized() {
        let mut rng = TensorRng::seed(2);
        let (keys, values, cache) = fill_cache(&mut rng, 128, 32, KvPrecision::Int4);
        let q: Vec<f32> = (0..32).map(|_| rng.normal(1.0)).collect();
        let quant_out = decode_attention_fp16(&q, &cache);
        let exact = qserve_tensor::ops::attention_single(&q, &keys, &values);
        let err: f32 = quant_out
            .iter()
            .zip(&exact)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(err < 0.15, "KV4 attention error {} too large", err);
    }

    #[test]
    fn kv8_more_accurate_than_kv4() {
        let mut rng = TensorRng::seed(3);
        let keys = rng.gaussian(64, 32, 1.0);
        let values = rng.gaussian(64, 32, 1.0);
        let q: Vec<f32> = (0..32).map(|_| rng.normal(1.0)).collect();
        let exact = qserve_tensor::ops::attention_single(&q, &keys, &values);
        let mut err = [0.0f64; 2];
        for (slot, p) in [KvPrecision::Int8, KvPrecision::Int4].iter().enumerate() {
            let mut cache = QuantizedKvHead::new(*p);
            for t in 0..64 {
                cache.append(keys.row(t), values.row(t));
            }
            let out = decode_attention_fp16(&q, &cache);
            err[slot] = out
                .iter()
                .zip(&exact)
                .map(|(a, b)| f64::from((a - b) * (a - b)))
                .sum();
        }
        assert!(err[0] < err[1], "KV8 {} should beat KV4 {}", err[0], err[1]);
    }

    #[test]
    fn attention_weights_sum_preserved() {
        // Output must be a convex combination of values: with all-equal
        // values the output equals that value regardless of quantized keys.
        let mut cache = QuantizedKvHead::new(KvPrecision::Int4);
        let mut rng = TensorRng::seed(4);
        for _ in 0..16 {
            let k: Vec<f32> = (0..8).map(|_| rng.normal(1.0)).collect();
            cache.append(&k, &[3.0; 8]);
        }
        let q = vec![0.5; 8];
        let out = decode_attention_fp16(&q, &cache);
        for v in out {
            assert!((v - 3.0).abs() < 0.01, "got {}", v);
        }
    }

    #[test]
    #[should_panic(expected = "empty KV cache")]
    fn rejects_empty_cache() {
        decode_attention_fp16(&[0.0; 8], &QuantizedKvHead::new(KvPrecision::Int4));
    }

    /// The kernel this module shipped before the tile, kept as the oracle:
    /// one call per row, every lane dequantized element by element (no
    /// table) into a `head_dim` buffer, each score a sequential dot over one
    /// lane, each output feature accumulated lane by lane.
    fn lane_at_a_time_attention(queries: &[f32], head_dim: usize, keys: &[KvLane<'_>], values: &[KvLane<'_>]) -> Vec<f32> {
        fn dequantize(lane: &KvLane<'_>, out: &mut [f32]) {
            let bias_zero = magic_bias(lane.zero);
            let codes = lane.codes.unpack(out.len());
            assert_eq!(codes.len(), out.len(), "head_dim mismatch");
            for (o, &code) in out.iter_mut().zip(&codes) {
                *o = dequant(code, bias_zero, lane.scale);
            }
        }
        let (d, seq) = (head_dim, keys.len());
        assert_eq!(values.len(), seq);
        let scale = 1.0 / (d as f32).sqrt();
        let q16: Vec<f32> = queries.iter().map(|&v| round_f16(v * scale)).collect();
        let mut scores = vec![0.0f32; q16.len() / d * seq];
        let mut lane = vec![0.0f32; d];
        for (t, key) in keys.iter().enumerate() {
            dequantize(key, &mut lane);
            for (q, row) in q16.chunks_exact(d).zip(scores.chunks_exact_mut(seq)) {
                let mut acc = 0.0f32;
                for (&qi, &k) in q.iter().zip(lane.iter()) {
                    acc += round_f16(qi * k);
                }
                row[t] = acc;
            }
        }
        for row in scores.chunks_exact_mut(seq) {
            softmax_inplace(row);
        }
        let mut out = vec![0.0f32; queries.len()];
        for (t, value) in values.iter().enumerate() {
            dequantize(value, &mut lane);
            for (o, row) in out.chunks_exact_mut(d).zip(scores.chunks_exact(seq)) {
                let p16 = round_f16(row[t]);
                for (oj, &v) in o.iter_mut().zip(lane.iter()) {
                    *oj += round_f16(p16 * v);
                }
            }
        }
        out
    }

    qserve_tensor::props! {
        /// The exactness contract of the tile: filled **once** and attended
        /// at every visible length `1..=seq`, it returns, `to_bits`, what
        /// the lane-at-a-time oracle returns when called afresh for each
        /// length — KV4 and KV8, head widths from one byte to 128 (odd ones
        /// leave a half-used nibble), GQA groups of 1 / 2 / 4, and both
        /// sources: tokens materialised one code per byte
        /// ([`QuantizedKvHead`]) and lanes packed as a page stores them
        /// (KV4 nibbles in place). A reused tile (the next case's fill is
        /// shorter or longer than the last) must not see stale data.
        fn tile_filled_once_equals_the_lane_at_a_time_oracle_at_every_length(rng, cases = 24) {
            let mut tile = HeadTile::default();
            for precision in [KvPrecision::Int4, KvPrecision::Int8] {
                let d = [2usize, 6, 16, 17, 128][rng.int_in(0, 4) as usize];
                let group = [1usize, 2, 4][rng.int_in(0, 2) as usize];
                let seq = rng.int_in(1, if d == 128 { 12 } else { 37 }) as usize;
                let spread = [1.0e-4f32, 1.0, 300.0][rng.int_in(0, 2) as usize];
                let kv = rng.gaussian(2 * seq, d, spread);
                let queries = rng.gaussian(seq, group * d, 1.0);

                // Source 1: materialised tokens, one code per byte.
                let mut head = QuantizedKvHead::new(precision);
                // Source 2: the same tokens packed as a page stores them.
                let lane_bytes = precision.lane_bytes(d);
                let mut packed = vec![0u8; 2 * seq * lane_bytes];
                let mut params = Vec::new();
                for (t, bytes) in packed.chunks_exact_mut(lane_bytes).enumerate() {
                    params.push(qserve_core::kv_quant::quantize_head_into(kv.row(t), precision, bytes));
                }
                for t in 0..seq {
                    head.append(kv.row(2 * t), kv.row(2 * t + 1));
                }
                let page_lane = |t: usize| KvLane {
                    codes: match precision {
                        KvPrecision::Int4 => LaneCodes::Nibbles(&packed[t * lane_bytes..(t + 1) * lane_bytes]),
                        _ => LaneCodes::Bytes(&packed[t * lane_bytes..(t + 1) * lane_bytes]),
                    },
                    scale: params[t].scale,
                    zero: params[t].zero as u8,
                };
                let sources: [(Vec<KvLane<'_>>, Vec<KvLane<'_>>); 2] = [
                    (head.keys.iter().map(token_lane).collect(), head.values.iter().map(token_lane).collect()),
                    ((0..seq).map(|t| page_lane(2 * t)).collect(), (0..seq).map(|t| page_lane(2 * t + 1)).collect()),
                ];
                for (keys, values) in &sources {
                    tile.reset(d, seq);
                    for (&key, &value) in keys.iter().zip(values) {
                        tile.push(key, value);
                    }
                    for visible in 1..=seq {
                        let q = queries.row(visible - 1);
                        let mut got = vec![f32::NAN; q.len()];
                        tile.attend(q, visible, &mut got);
                        let want = lane_at_a_time_attention(q, d, &keys[..visible], &values[..visible]);
                        assert!(
                            got.iter().map(|v| v.to_bits()).eq(want.iter().map(|v| v.to_bits())),
                            "{:?} d={} group={} seq={} visible={} spread={}", precision, d, group, seq, visible, spread
                        );
                    }
                }
                // The one-row adapter is the tile attended at full length.
                let q = &queries.row(seq - 1)[..d];
                let want = lane_at_a_time_attention(q, d, &sources[0].0, &sources[0].1);
                let got = decode_attention_fp16(q, &head);
                assert!(got.iter().map(|v| v.to_bits()).eq(want.iter().map(|v| v.to_bits())));
            }
        }
    }

    #[test]
    #[should_panic(expected = "tile fill incomplete")]
    fn a_half_filled_tile_refuses_to_attend() {
        let mut head = QuantizedKvHead::new(KvPrecision::Int4);
        head.append(&[0.5; 4], &[0.25; 4]);
        let mut tile = HeadTile::default();
        tile.reset(4, 2);
        tile.push(token_lane(&head.keys[0]), token_lane(&head.values[0]));
        tile.attend(&[1.0; 4], 1, &mut [0.0; 4]);
    }
}
