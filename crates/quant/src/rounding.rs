//! Round-to-nearest, the `⌈·⌋` operator in the paper's equations.
//!
//! NVIDIA's float→int conversions (`__float2int_rn`, `cvt.rni`) round to the
//! nearest integer with ties to even; quantization code paths in this
//! repository all go through [`round_half_even`] so the emulated kernels and
//! the reference algorithm agree bit-for-bit.

/// Rounds to the nearest integer, ties to even (banker's rounding).
///
/// # Example
/// ```
/// use qserve_quant::rounding::round_half_even;
/// assert_eq!(round_half_even(2.5), 2);
/// assert_eq!(round_half_even(3.5), 4);
/// assert_eq!(round_half_even(-2.5), -2);
/// assert_eq!(round_half_even(2.4), 2);
/// ```
pub fn round_half_even(x: f32) -> i32 {
    // Below 2²³ in magnitude, adding 2²³ lands where `f32` spacing is exactly
    // 1, so the FPU's own round-to-nearest-even does the rounding and the
    // subtraction is exact; the sign goes back on afterwards (ties-to-even is
    // an odd function). From 2²³ up every `f32` is already an integer. The
    // cast saturates at the `i32` edges and sends NaN to 0.
    const INTEGERS_FROM: f32 = 8_388_608.0;
    let magnitude = x.abs();
    let rounded = if magnitude < INTEGERS_FROM {
        ((magnitude + INTEGERS_FROM) - INTEGERS_FROM).copysign(x)
    } else {
        x
    };
    rounded as i32
}

/// Rounds and clamps to an inclusive integer range, the full quantization
/// step `clamp(⌈x/s⌋ + z, qmin, qmax)`.
pub fn round_clamp(x: f32, qmin: i32, qmax: i32) -> i32 {
    round_half_even(x).clamp(qmin, qmax)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `round_half_even` as it was first spelled out — floor, fractional
    /// part, three-way branch in `i64` — kept as the oracle for the
    /// branch-free form. One repair: `+∞` used to take the tie branch
    /// (`∞ − ∞` is NaN) and wrap `i64::MAX + 1` to `i32::MIN` in release
    /// builds (an overflow panic in debug); the add saturates here, so `+∞`
    /// rounds to `i32::MAX` like every other value above the range.
    fn round_half_even_spelled_out(x: f32) -> i32 {
        let floor = x.floor();
        let diff = x - floor;
        let f = floor as i64;
        let r = if diff > 0.5 {
            f + 1
        } else if diff < 0.5 || f % 2 == 0 {
            f
        } else {
            f.saturating_add(1)
        };
        r.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32
    }

    /// The `(qmin, qmax)` ranges the repository quantizes into.
    const RANGES: [(i32, i32); 4] = [(-127, 127), (-119, 119), (0, 15), (0, 255)];

    fn assert_matches_oracle(x: f32) {
        let expect = round_half_even_spelled_out(x);
        assert_eq!(
            round_half_even(x),
            expect,
            "x = {x:e} ({:#010x})",
            x.to_bits()
        );
        for (qmin, qmax) in RANGES {
            assert_eq!(
                round_clamp(x, qmin, qmax),
                expect.clamp(qmin, qmax),
                "x = {x:e} into [{qmin}, {qmax}]"
            );
        }
    }

    #[test]
    fn matches_the_spelled_out_oracle_across_all_bit_patterns() {
        // A prime stride walks every exponent, both signs, the subnormals,
        // the infinities and the NaN space: 2³² / 4093 ≈ 1.05 million samples.
        let mut samples = 0u32;
        for bits in (0..=u32::MAX).step_by(4093) {
            assert_matches_oracle(f32::from_bits(bits));
            samples += 1;
        }
        assert!(samples >= 1_000_000);
    }

    #[test]
    fn matches_the_spelled_out_oracle_on_every_tie() {
        // Every k + 0.5 that `f32` can hold: exact up to 2²² and, with a
        // half-spaced mantissa, all through [2²², 2²³) — the band where a
        // one-sided magic constant rounds the wrong way.
        for k in -(1i32 << 23)..(1i32 << 23) {
            let tie = k as f32 + 0.5;
            assert_eq!(tie - k as f32, 0.5, "k + 0.5 is exact for k = {k}");
            assert_matches_oracle(tie);
        }
    }

    #[test]
    fn matches_the_spelled_out_oracle_at_the_edges() {
        let two23 = 8_388_608.0f32;
        let i32_edge = 2_147_483_648.0f32;
        let mut edges = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            0.499_999_97,
            0.500_000_06,
        ];
        for centre in [two23 / 2.0, two23, 2.0 * two23, i32_edge] {
            // The six neighbours of each power of two, both signs.
            let c = centre.to_bits();
            for bits in c - 3..=c + 3 {
                edges.push(f32::from_bits(bits));
                edges.push(-f32::from_bits(bits));
            }
        }
        for x in edges {
            assert_matches_oracle(x);
        }
        assert_eq!(round_half_even(f32::INFINITY), i32::MAX);
        assert_eq!(round_half_even(f32::NEG_INFINITY), i32::MIN);
        assert_eq!(round_half_even(i32_edge), i32::MAX);
        assert_eq!(round_half_even(-i32_edge), i32::MIN);
        assert_eq!(round_half_even(f32::NAN), 0);
    }

    #[test]
    fn rounds_to_nearest() {
        assert_eq!(round_half_even(1.4), 1);
        assert_eq!(round_half_even(1.6), 2);
        assert_eq!(round_half_even(-1.4), -1);
        assert_eq!(round_half_even(-1.6), -2);
    }

    #[test]
    fn ties_to_even() {
        assert_eq!(round_half_even(0.5), 0);
        assert_eq!(round_half_even(1.5), 2);
        assert_eq!(round_half_even(-0.5), 0);
        assert_eq!(round_half_even(-1.5), -2);
        assert_eq!(round_half_even(-3.5), -4);
    }

    #[test]
    fn integers_unchanged() {
        for i in -100..=100 {
            assert_eq!(round_half_even(i as f32), i);
        }
    }

    #[test]
    fn clamping() {
        assert_eq!(round_clamp(200.0, -127, 127), 127);
        assert_eq!(round_clamp(-200.0, -127, 127), -127);
        assert_eq!(round_clamp(7.4, 0, 15), 7);
    }

    #[test]
    fn matches_std_ties_even() {
        for i in 0..10_000 {
            let x = (i as f32 - 5000.0) * 0.137;
            assert_eq!(round_half_even(x), x.round_ties_even() as i32, "x = {}", x);
        }
    }
}
