//! Streaming percentile sketch: fixed log-spaced buckets, O(1) insert,
//! deterministic quantiles — the metric accumulator that lets a
//! million-request run report latency percentiles without buffering (and
//! sorting) a million samples.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic.** Bucket indexing is pure integer arithmetic on the
//!    value's IEEE-754 bits; insertion order cannot change any count, and
//!    merging per-replica sketches in replica order is reproducible bit for
//!    bit. No randomized compression (GK/t-digest style) anywhere.
//! 2. **Fixed memory.** One `u64` count per bucket, sized at construction:
//!    [`PercentileSketch::SUB_BUCKET_BITS`] sub-buckets per power of two
//!    across a clamped value range — a few KiB regardless of sample count.
//! 3. **Bounded relative error.** A quantile lands in the right bucket
//!    exactly (nearest-rank over exact counts); the reported value is the
//!    bucket's lower edge, so the only error is the bucket width: at 32
//!    sub-buckets per octave, ≤ 2^(1/32) − 1 ≈ 2.2% relative.
//!
//! The exact sorted-buffer path stays authoritative below
//! [`EXACT_STATS_MAX`] samples — every golden CSV is produced there — and
//! the sketch is reported *additionally*; above the threshold the sketch
//! takes over and the O(n log n) sort never happens.

/// Largest finished-request count for which reports use the exact
/// sorted-buffer percentile path. At or below this, every statistic is
/// computed exactly as before (golden CSVs stay byte-identical); above it,
/// percentiles come from the streaming sketch and the latency buffer sort
/// is skipped entirely.
pub const EXACT_STATS_MAX: usize = 1 << 16;

/// Smallest representable magnitude: values below 2^MIN_EXP clamp into the
/// underflow bucket (~1 µs — far below any simulated latency).
const MIN_EXP: i32 = -20;
/// One past the largest representable exponent: values at or above
/// 2^MAX_EXP clamp into the top bucket (~2 × 10^7 s, months of makespan).
const MAX_EXP: i32 = 25;

/// A deterministic fixed-bucket percentile sketch over positive `f64`
/// samples (latencies, SLO ratios). See the module docs for the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct PercentileSketch {
    /// Per-bucket sample counts; index 0 is the underflow bucket.
    counts: Vec<u64>,
    /// Total samples inserted.
    n: u64,
    /// Running sum, in insertion order (mergers add the other's sum once).
    sum: f64,
    /// Exact maximum inserted (`quantile(1.0)` returns this, not an edge).
    max: f64,
    /// Exact minimum inserted (the underflow bucket reports this).
    min: f64,
}

impl Default for PercentileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl PercentileSketch {
    /// Sub-bucket resolution: 2^5 = 32 buckets per power of two, giving a
    /// ≤ 2.2% relative error on every reported quantile.
    const SUB_BUCKET_BITS: u32 = 5;

    const SUB_BUCKETS: usize = 1 << Self::SUB_BUCKET_BITS;
    /// Mantissa bits dropped when mapping a float's bits to a bucket.
    const SHIFT: u32 = 52 - Self::SUB_BUCKET_BITS;
    /// Bucket-index offset of the first in-range value (2^MIN_EXP).
    const BASE: u64 = ((1023 + MIN_EXP) as u64) << Self::SUB_BUCKET_BITS;
    const NUM_BUCKETS: usize = (MAX_EXP - MIN_EXP) as usize * Self::SUB_BUCKETS + 1;

    /// An empty sketch.
    pub fn new() -> Self {
        Self {
            counts: vec![0; Self::NUM_BUCKETS],
            n: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
            min: f64::INFINITY,
        }
    }

    /// Bucket index for `v`: the exponent and top mantissa bits of the
    /// float, rebased so bucket 1 starts at 2^MIN_EXP (bucket 0 catches
    /// underflow, the last bucket catches overflow). Pure integer
    /// arithmetic — no rounding mode, no platform dependence.
    fn bucket_of(v: f64) -> usize {
        debug_assert!(v >= 0.0, "sketch samples are non-negative");
        let raw = v.to_bits() >> Self::SHIFT;
        if raw < Self::BASE {
            return 0;
        }
        ((raw - Self::BASE + 1) as usize).min(Self::NUM_BUCKETS - 1)
    }

    /// Lower edge of bucket `idx` — the deterministic representative a
    /// quantile lookup reports for any bucket except the underflow bucket
    /// (which reports the exact minimum) and a rank hitting the total count
    /// (which reports the exact maximum).
    fn lower_edge(idx: usize) -> f64 {
        debug_assert!(idx >= 1, "the underflow bucket has no lower edge");
        f64::from_bits((idx as u64 - 1 + Self::BASE) << Self::SHIFT)
    }

    /// Records one sample.
    ///
    /// # Panics
    /// Panics on NaN or negative samples (latencies and ratios are
    /// non-negative by construction; a negative one is an accounting bug).
    pub fn insert(&mut self, v: f64) {
        assert!(v >= 0.0, "sketch sample must be a non-negative number, got {v}");
        self.counts[Self::bucket_of(v)] += 1;
        self.n += 1;
        self.sum += v;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sum of all samples, accumulated in insertion order.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all samples.
    ///
    /// # Panics
    /// Panics on an empty sketch.
    pub fn mean(&self) -> f64 {
        assert!(self.n > 0, "mean of an empty sketch");
        self.sum / self.n as f64
    }

    /// Exact maximum sample.
    ///
    /// # Panics
    /// Panics on an empty sketch.
    pub fn max(&self) -> f64 {
        assert!(self.n > 0, "max of an empty sketch");
        self.max
    }

    /// Nearest-rank quantile (`q` in `(0, 1]`), mirroring
    /// [`crate::scheduler::percentile`]: the first bucket whose cumulative
    /// count reaches `ceil(q·n)`, reported as that bucket's lower edge
    /// (≤ 2.2% below the true order statistic). `q = 1` returns the exact
    /// maximum; a rank landing in the underflow bucket returns the exact
    /// minimum.
    ///
    /// # Panics
    /// Panics on an empty sketch or `q` outside `(0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.n > 0, "quantile of an empty sketch");
        assert!(q > 0.0 && q <= 1.0, "q must be in (0, 1]");
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        if rank == self.n {
            return self.max;
        }
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return if idx == 0 { self.min } else { Self::lower_edge(idx) };
            }
        }
        unreachable!("cumulative count must reach every valid rank");
    }

    /// Folds `other` into `self` bucket-wise. Deterministic as long as the
    /// merge *order* is fixed (cluster aggregation merges replicas in
    /// replica-index order).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_exact_within_bucket_error() {
        // Deterministic log-spread sample: exact nearest-rank vs sketch.
        let xs: Vec<f64> = (1..=10_000).map(|i| (i as f64).sqrt() * 0.01).collect();
        let mut sk = PercentileSketch::new();
        for &x in &xs {
            sk.insert(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999] {
            let exact = crate::scheduler::percentile(&sorted, q);
            let approx = sk.quantile(q);
            assert!(
                approx <= exact && exact <= approx * (1.0 + 1.0 / 32.0) + f64::MIN_POSITIVE,
                "q={q}: sketch {approx} vs exact {exact}"
            );
        }
        assert_eq!(sk.quantile(1.0).to_bits(), sorted.last().unwrap().to_bits());
        assert_eq!(sk.len(), 10_000);
        assert!((sk.mean() - xs.iter().sum::<f64>() / 10_000.0).abs() < 1e-12);
    }

    #[test]
    fn insertion_order_cannot_change_the_sketch() {
        let forward: Vec<f64> = (1..=500).map(|i| i as f64 * 0.037).collect();
        let mut a = PercentileSketch::new();
        let mut b = PercentileSketch::new();
        for &x in &forward {
            a.insert(x);
        }
        for &x in forward.iter().rev() {
            b.insert(x);
        }
        // Counts, n, min, max identical; only `sum` is order-sensitive (and
        // only in its last bits), so compare the quantile surface.
        assert_eq!(a.counts, b.counts);
        for q in [0.1, 0.5, 0.99, 1.0] {
            assert_eq!(a.quantile(q).to_bits(), b.quantile(q).to_bits());
        }
    }

    #[test]
    fn merge_equals_inserting_everything_into_one() {
        let xs: Vec<f64> = (1..=300).map(|i| (i % 37) as f64 + 0.25).collect();
        let mut whole = PercentileSketch::new();
        let mut left = PercentileSketch::new();
        let mut right = PercentileSketch::new();
        for (i, &x) in xs.iter().enumerate() {
            whole.insert(x);
            if i < 150 {
                left.insert(x);
            } else {
                right.insert(x);
            }
        }
        left.merge(&right);
        assert_eq!(left.counts, whole.counts);
        assert_eq!(left.len(), whole.len());
        assert_eq!(left.max().to_bits(), whole.max().to_bits());
        for q in [0.25, 0.5, 0.75, 0.99] {
            assert_eq!(left.quantile(q).to_bits(), whole.quantile(q).to_bits());
        }
    }

    #[test]
    fn range_edges_clamp_instead_of_misfiling() {
        let mut sk = PercentileSketch::new();
        sk.insert(0.0); // underflow bucket
        sk.insert(1e-12); // still underflow
        sk.insert(1e9); // overflow bucket
        assert_eq!(sk.len(), 3);
        // Median rank (2 of 3) lands in the underflow bucket → exact min.
        assert_eq!(sk.quantile(0.5).to_bits(), 0.0f64.to_bits());
        assert_eq!(sk.quantile(1.0).to_bits(), 1e9f64.to_bits());
    }

    #[test]
    fn single_sample_degenerates_like_exact_percentile() {
        let mut sk = PercentileSketch::new();
        sk.insert(3.25);
        for q in [0.001, 0.5, 0.95, 1.0] {
            assert_eq!(sk.quantile(q).to_bits(), 3.25f64.to_bits(), "q = {q}");
        }
    }

    #[test]
    fn bucket_edges_are_monotone() {
        let mut prev = 0.0;
        for idx in 1..PercentileSketch::NUM_BUCKETS {
            let edge = PercentileSketch::lower_edge(idx);
            assert!(edge > prev, "bucket {idx} edge {edge} not increasing");
            // The edge belongs to its own bucket (below the overflow clamp).
            if idx < PercentileSketch::NUM_BUCKETS - 1 {
                assert_eq!(PercentileSketch::bucket_of(edge), idx);
            }
            prev = edge;
        }
    }

    #[test]
    #[should_panic(expected = "empty sketch")]
    fn empty_quantile_panics() {
        PercentileSketch::new().quantile(0.5);
    }
}
