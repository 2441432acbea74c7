//! Synthetic weight and activation generators.
//!
//! The accuracy techniques in QoQ each target a specific distributional
//! pathology observed in real LLMs:
//!
//! * **Fixed per-channel outliers in Keys** — "Key matrices tend to have fixed
//!   outlier channels in each head … ∼10× larger than most activation values"
//!   (§4.2, Figure 7). SmoothAttention exists to flatten these.
//! * **Activation outlier channels at block inputs** — motivates block input
//!   rotation (§4.3.1) and activation-aware channel reordering (§4.3.3).
//! * **Heavy-tailed weights** — motivates weight clipping (§4.3.4).
//!
//! Since the real checkpoints are unavailable in this environment, these
//! generators synthesize tensors exhibiting exactly those pathologies so each
//! QoQ technique is exercised against the phenomenon it was designed for
//! (the README's "What is synthetic here" gives the substitution).
//!
//! The generator is built on an in-repo xoshiro256++ PRNG (seeded via
//! SplitMix64) so the workspace needs no external crates: same-seed streams
//! are bit-identical across platforms and releases.

use crate::matrix::Matrix;

/// Deterministic generator for synthetic model tensors.
///
/// # Example
/// ```
/// use qserve_tensor::rng::TensorRng;
/// let mut rng = TensorRng::seed(42);
/// let w = rng.gaussian(8, 16, 0.02);
/// assert_eq!(w.shape(), (8, 16));
/// ```
#[derive(Debug, Clone)]
pub struct TensorRng {
    state: [u64; 4],
}

/// One step of SplitMix64 — used to expand a 64-bit seed into the
/// xoshiro256++ state so that nearby seeds yield uncorrelated streams.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TensorRng {
    /// Creates a generator from a fixed seed (reproducible).
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { state }
    }

    /// Next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Next raw 32-bit output (upper half of the 64-bit stream).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f32` in `[0, 1)` with 24 bits of mantissa entropy.
    pub fn next_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (1.0 / (1u32 << 24) as f32)
    }

    /// Standard normal sample scaled by `std`.
    pub fn normal(&mut self, std: f32) -> f32 {
        // Box-Muller transform; rejects zero to avoid ln(0).
        let u1: f32 = self.next_f32().max(f32::EPSILON);
        let u2: f32 = self.next_f32();
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos() * std
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + self.next_f32() * (hi - lo)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() needs a non-empty range");
        // Multiply-shift bounded sampling (Lemire): no modulo bias worth
        // caring about at test-suite sample counts, no division.
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn int_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "int_in range {}..={} is empty", lo, hi);
        // Span arithmetic in u64 so extreme ranges (e.g. i64::MIN..=i64::MAX)
        // cannot overflow; a wrapped span of 0 means the full 2^64 range.
        let span = (hi.wrapping_sub(lo) as u64).wrapping_add(1);
        let offset = if span == 0 { self.next_u64() } else { self.next_u64() % span };
        lo.wrapping_add(offset as i64)
    }

    /// Uniformly picks one element of a non-empty slice.
    pub fn choose<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.index(options.len())]
    }

    /// Fisher–Yates shuffle of a slice in place (the `SliceRandom::shuffle`
    /// replacement).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Gaussian matrix with standard deviation `std`.
    pub fn gaussian(&mut self, rows: usize, cols: usize, std: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.normal(std))
    }

    /// Heavy-tailed weight matrix: Gaussian body with a fraction of entries
    /// drawn from a wider Gaussian, mimicking LLM weight kurtosis.
    ///
    /// `tail_fraction` of the entries get `tail_mult ×` the base std.
    pub fn heavy_tailed(
        &mut self,
        rows: usize,
        cols: usize,
        std: f32,
        tail_fraction: f32,
        tail_mult: f32,
    ) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            if self.next_f32() < tail_fraction {
                self.normal(std * tail_mult)
            } else {
                self.normal(std)
            }
        })
    }

    /// Activation-like matrix with *fixed* outlier channels: all entries are
    /// Gaussian, but the columns listed in `outlier_channels` are scaled by
    /// `outlier_mult` for every row (token). This is the Key-cache pathology
    /// of Figure 7.
    pub fn with_outlier_channels(
        &mut self,
        rows: usize,
        cols: usize,
        std: f32,
        outlier_channels: &[usize],
        outlier_mult: f32,
    ) -> Matrix {
        let mut is_outlier = vec![false; cols];
        for &c in outlier_channels {
            assert!(c < cols, "outlier channel {} out of range {}", c, cols);
            is_outlier[c] = true;
        }
        Matrix::from_fn(rows, cols, |_, j| {
            let base = self.normal(std);
            if is_outlier[j] {
                base * outlier_mult
            } else {
                base
            }
        })
    }

    /// Picks `count` distinct channel indices in `[0, cols)`, deterministic
    /// given the RNG state — used to fix the outlier channels of a synthetic
    /// layer once at generation time.
    pub fn pick_outlier_channels(&mut self, cols: usize, count: usize) -> Vec<usize> {
        assert!(count <= cols, "cannot pick {} of {} channels", count, cols);
        let mut chosen = Vec::with_capacity(count);
        while chosen.len() < count {
            let c = self.index(cols);
            if !chosen.contains(&c) {
                chosen.push(c);
            }
        }
        chosen.sort_unstable();
        chosen
    }

    /// Synthetic token-id sequence for pseudo-perplexity evaluation.
    pub fn token_sequence(&mut self, len: usize, vocab: usize) -> Vec<u32> {
        (0..len).map(|_| self.index(vocab) as u32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_with_same_seed() {
        let a = TensorRng::seed(7).gaussian(4, 4, 1.0);
        let b = TensorRng::seed(7).gaussian(4, 4, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = TensorRng::seed(1).gaussian(4, 4, 1.0);
        let b = TensorRng::seed(2).gaussian(4, 4, 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn gaussian_statistics_roughly_correct() {
        let mut rng = TensorRng::seed(3);
        let m = rng.gaussian(100, 100, 2.0);
        let mean: f32 = m.as_slice().iter().sum::<f32>() / m.len() as f32;
        let var: f32 =
            m.as_slice().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / m.len() as f32;
        assert!(mean.abs() < 0.1, "mean {} too far from 0", mean);
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {} too far from 2", var.sqrt());
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = TensorRng::seed(21);
        for _ in 0..10_000 {
            let v = rng.uniform(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&v), "{} out of range", v);
        }
    }

    #[test]
    fn index_covers_all_buckets() {
        let mut rng = TensorRng::seed(22);
        let mut hits = [0usize; 7];
        for _ in 0..7_000 {
            hits[rng.index(7)] += 1;
        }
        assert!(hits.iter().all(|&h| h > 500), "skewed buckets: {:?}", hits);
    }

    #[test]
    fn int_in_inclusive_endpoints_reachable() {
        let mut rng = TensorRng::seed(23);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1_000 {
            let v = rng.int_in(-2, 2);
            assert!((-2..=2).contains(&v));
            saw_lo |= v == -2;
            saw_hi |= v == 2;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn int_in_extreme_ranges_do_not_overflow() {
        let mut rng = TensorRng::seed(25);
        for _ in 0..1_000 {
            // Any i64 is valid output; this must simply not panic or wrap
            // outside the requested bounds.
            let _ = rng.int_in(i64::MIN, i64::MAX);
            assert!(rng.int_in(i64::MIN, 0) <= 0);
            assert!(rng.int_in(0, i64::MAX) >= 0);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = TensorRng::seed(24);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>(), "50 elements should not shuffle to identity");
    }

    #[test]
    fn outlier_channels_are_larger() {
        let mut rng = TensorRng::seed(11);
        let outliers = vec![3, 17];
        let m = rng.with_outlier_channels(256, 32, 1.0, &outliers, 10.0);
        let col_absmax: Vec<f32> = (0..32)
            .map(|j| m.col(j).iter().fold(0.0f32, |a, v| a.max(v.abs())))
            .collect();
        let outlier_min = outliers.iter().map(|&c| col_absmax[c]).fold(f32::MAX, f32::min);
        let normal_max = (0..32)
            .filter(|j| !outliers.contains(j))
            .map(|j| col_absmax[j])
            .fold(0.0f32, f32::max);
        assert!(
            outlier_min > normal_max * 1.5,
            "outlier channels should dominate: {} vs {}",
            outlier_min,
            normal_max
        );
    }

    #[test]
    fn pick_outlier_channels_distinct_and_sorted() {
        let mut rng = TensorRng::seed(5);
        let picks = rng.pick_outlier_channels(64, 8);
        assert_eq!(picks.len(), 8);
        for w in picks.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn heavy_tailed_has_higher_kurtosis() {
        let mut rng = TensorRng::seed(9);
        let normal = rng.gaussian(64, 64, 1.0);
        let heavy = rng.heavy_tailed(64, 64, 1.0, 0.01, 10.0);
        assert!(heavy.abs_max() > normal.abs_max());
    }

    #[test]
    fn token_sequence_in_range() {
        let mut rng = TensorRng::seed(13);
        let seq = rng.token_sequence(100, 1000);
        assert_eq!(seq.len(), 100);
        assert!(seq.iter().all(|&t| t < 1000));
    }
}
