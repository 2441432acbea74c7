//! IEEE-754 binary16 ("half") emulation.
//!
//! QServe's KV4 attention kernel replaces all FP32 CUDA-core arithmetic with
//! FP16 to double the compute roof (§5.3). To emulate that kernel faithfully
//! we need arithmetic that *rounds like FP16*: every intermediate is squeezed
//! through a binary16 round-trip. [`F16`] stores the raw 16 bits and performs
//! each operation in `f32` followed by a correctly-rounded conversion back to
//! binary16 (round-to-nearest-even), which matches how half-precision FMA-free
//! arithmetic behaves on NVIDIA hardware for individual `+`/`*` ops.

use std::fmt;

/// A 16-bit IEEE-754 binary16 float stored as raw bits.
///
/// # Example
///
/// ```
/// use qserve_tensor::F16;
/// let a = F16::from_f32(1.0009765625); // representable exactly: 1 + 2^-10
/// assert_eq!(a.to_f32(), 1.0009765625);
/// let b = F16::from_f32(1.00048828125); // 1 + 2^-11 rounds to even → 1.0
/// assert_eq!(b.to_f32(), 1.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F16(u16);

impl F16 {
    /// Largest finite binary16 value (65504).
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest positive normal value (2⁻¹⁴).
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);

    /// Constructs from raw binary16 bits.
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Returns the raw binary16 bits.
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even semantics.
    pub fn from_f32(value: f32) -> Self {
        F16(f32_to_f16_bits(value))
    }

    /// Converts to `f32` (exact — every binary16 value is representable).
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// FP16 addition: `round16(a + b)`.
    pub fn add(self, other: F16) -> F16 {
        F16::from_f32(self.to_f32() + other.to_f32())
    }

    /// FP16 subtraction: `round16(a - b)`.
    pub fn sub(self, other: F16) -> F16 {
        F16::from_f32(self.to_f32() - other.to_f32())
    }

    /// FP16 multiplication: `round16(a * b)`.
    pub fn mul(self, other: F16) -> F16 {
        F16::from_f32(self.to_f32() * other.to_f32())
    }

    /// Whether the value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// Whether the value is ±∞.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({})", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<F16> for f32 {
    fn from(h: F16) -> f32 {
        h.to_f32()
    }
}

/// Rounds an `f32` to the nearest representable binary16 value
/// (round-to-nearest, ties-to-even), returning an `f32`.
///
/// This is the workhorse for "FP16 math" in kernel emulation:
/// `round_f16(a * b)` behaves like a half-precision multiply. It is
/// bit-identical to `f16_bits_to_f32(f32_to_f16_bits(value))` for every
/// input, but never leaves the `f32` container:
///
/// * binary16 **subnormals and zero** (`|x| < 2⁻¹⁴`): the representable
///   values are the multiples of `2⁻²⁴`, which is exactly the `f32` spacing
///   in `[0.5, 1)` — adding and subtracting `0.5` lets the FPU's own
///   round-to-nearest-even do the work;
/// * binary16 **normals** and the overflow margin (`2⁻¹⁴ ≤ |x| < 65520`):
///   drop 13 mantissa bits with ties-to-even as integer arithmetic on the
///   bit pattern (a carry out of the mantissa correctly bumps the exponent);
/// * `|x| ≥ 65520` rounds to ±∞, and NaN becomes the quiet NaN.
#[inline]
pub fn round_f16(value: f32) -> f32 {
    let bits = value.to_bits();
    let abs = bits & 0x7FFF_FFFF;
    let rounded = if abs < 0x3880_0000 {
        ((f32::from_bits(abs) + 0.5) - 0.5).to_bits()
    } else if abs < 0x477F_F000 {
        (abs + 0x0FFF + ((abs >> 13) & 1)) & !0x1FFF
    } else if abs <= 0x7F80_0000 {
        0x7F80_0000
    } else {
        0x7FC0_0000
    };
    f32::from_bits((bits & 0x8000_0000) | rounded)
}

/// The step size a quantizer stores in FP16 for a dynamic range `range`
/// spread over `levels` integer steps: `round_f16(range / levels)`, or `1.0`
/// when that is not a positive number.
///
/// Two inputs land on the fallback. An empty range (`range == 0`) has
/// nothing to resolve. A range below `levels · 2⁻²⁵` has a quotient that
/// *underflows* binary16 to zero, and a zero step would turn every `x / step`
/// into ±∞ or NaN; such values are below half of FP16's smallest subnormal,
/// so coding them all as zero under step 1 loses nothing FP16 could hold.
#[inline]
pub fn f16_step(range: f32, levels: f32) -> f32 {
    let step = round_f16(range / levels);
    if step > 0.0 {
        step
    } else {
        1.0
    }
}

/// Converts `f32` bits to binary16 bits with round-to-nearest-even,
/// handling subnormals, overflow to ±∞, and NaN payload preservation (quieted).
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Inf or NaN.
        return if mant == 0 {
            sign | 0x7C00
        } else {
            sign | 0x7E00 // quiet NaN
        };
    }

    // Unbiased exponent in binary16 terms.
    let unbiased = exp - 127;
    let half_exp = unbiased + 15;

    if half_exp >= 0x1F {
        // Overflow → infinity.
        return sign | 0x7C00;
    }

    if half_exp <= 0 {
        // Subnormal or zero in binary16.
        if half_exp < -10 {
            return sign; // underflows to zero
        }
        // Add the implicit leading 1 and shift right; round to nearest even.
        let m = mant | 0x0080_0000;
        let shift = (14 - half_exp) as u32; // 14..24
        let half_mant = m >> shift;
        let rem = m & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let rounded = match rem.cmp(&halfway) {
            std::cmp::Ordering::Greater => half_mant + 1,
            std::cmp::Ordering::Equal => half_mant + (half_mant & 1),
            std::cmp::Ordering::Less => half_mant,
        };
        return sign | rounded as u16;
    }

    // Normal number: keep 10 mantissa bits, round-to-nearest-even on bit 12.
    let half_mant = mant >> 13;
    let rem = mant & 0x1FFF;
    let mut out = sign | ((half_exp as u16) << 10) | (half_mant as u16);
    match rem.cmp(&0x1000) {
        std::cmp::Ordering::Greater => out = out.wrapping_add(1),
        std::cmp::Ordering::Equal => out = out.wrapping_add(out & 1),
        std::cmp::Ordering::Less => {}
    }
    // Mantissa carry may roll into the exponent; that is the correct
    // behaviour (e.g. 2047.5 → 2048). Overflow into infinity is also correct.
    out
}

/// Converts binary16 bits to an exactly-equal `f32`.
#[inline]
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = u32::from(bits & 0x8000) << 16;
    let exp = (bits >> 10) & 0x1F;
    let mant = u32::from(bits & 0x03FF);

    if exp == 0 {
        // Zero or subnormal: value = mant · 2⁻²⁴ (`0x3380_0000`), exact.
        let v = (mant as f32) * f32::from_bits(0x3380_0000);
        return f32::from_bits(sign | v.to_bits());
    }
    if exp == 0x1F {
        return if mant == 0 {
            f32::from_bits(sign | 0x7F80_0000)
        } else {
            f32::from_bits(sign | 0x7FC0_0000 | (mant << 13))
        };
    }
    let f32_exp = (u32::from(exp) + 112) << 23;
    f32::from_bits(sign | f32_exp | (mant << 13))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_round_trip() {
        for i in -2048i32..=2048 {
            let v = i as f32;
            assert_eq!(round_f16(v), v, "integer {} should be exact in fp16", i);
        }
    }

    #[test]
    fn large_integers_round() {
        // 2049 is not representable: mantissa has 11 bits of precision at
        // this scale. Ties-to-even sends it to 2048.
        assert_eq!(round_f16(2049.0), 2048.0);
        assert_eq!(round_f16(2051.0), 2052.0);
    }

    #[test]
    fn overflow_to_infinity() {
        assert!(F16::from_f32(70000.0).is_infinite());
        assert_eq!(round_f16(65504.0), 65504.0);
        // 65520 is exactly halfway between 65504 and "65536" (infinity):
        // rounds to infinity per IEEE.
        assert!(F16::from_f32(65520.0).is_infinite());
        assert_eq!(round_f16(65519.0), 65504.0);
    }

    #[test]
    fn subnormals() {
        let tiny = (-24f32).exp2(); // smallest positive subnormal
        assert_eq!(round_f16(tiny), tiny);
        assert_eq!(round_f16(tiny * 0.49), 0.0);
        let below_normal = (-15f32).exp2();
        assert_eq!(round_f16(below_normal), below_normal);
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn negative_values() {
        assert_eq!(round_f16(-1.5), -1.5);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
    }

    #[test]
    fn ties_to_even() {
        // 1 + 2^-11 is exactly between 1.0 and 1+2^-10 → rounds to 1.0 (even)
        assert_eq!(round_f16(1.0 + (-11f32).exp2()), 1.0);
        // 1 + 3*2^-11 is between 1+2^-10 and 1+2^-9 → rounds to 1+2^-9? No:
        // it is exactly halfway between 1+2^-10 (odd mantissa) and 1+2^-9
        // (even mantissa) → ties to even → 1+2^-9.
        let v = 1.0 + 3.0 * (-11f32).exp2();
        assert_eq!(round_f16(v), 1.0 + (-9f32).exp2());
    }

    #[test]
    fn arithmetic_rounds() {
        let a = F16::from_f32(0.1); // ≈0.0999756
        let b = F16::from_f32(0.2); // ≈0.199951
        let c = a.add(b);
        // Result must itself be a binary16 value.
        assert_eq!(round_f16(c.to_f32()), c.to_f32());
    }

    #[test]
    fn all_f16_bit_patterns_round_trip() {
        // Every finite binary16 is exactly representable in f32, so
        // f32→f16 of the f16→f32 conversion must be the identity.
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                continue;
            }
            let back = F16::from_f32(h.to_f32());
            assert_eq!(back.to_bits(), bits, "bits {:#06x} failed round trip", bits);
        }
    }

    #[test]
    fn round_f16_fast_paths_match_the_bit_level_conversion() {
        let reference = |v: f32| f16_bits_to_f32(f32_to_f16_bits(v));
        let check = |bits: u32| {
            let v = f32::from_bits(bits);
            let (fast, slow) = (round_f16(v), reference(v));
            assert!(
                fast.to_bits() == slow.to_bits() || (fast.is_nan() && slow.is_nan()),
                "bits {:#010x}: fast {:#010x} vs reference {:#010x}",
                bits,
                fast.to_bits(),
                slow.to_bits()
            );
        };
        // Every binary16 value, the f32 halfway to its successor (a tie),
        // and the f32 neighbours of both — all rounding decisions, in the
        // subnormal, normal and overflow ranges, either sign.
        for h in 0..=u16::MAX {
            if F16::from_bits(h).is_nan() || F16::from_bits(h).is_infinite() {
                continue;
            }
            let lo = F16::from_bits(h).to_f32();
            let hi = F16::from_bits(h.wrapping_add(1)).to_f32();
            let tie = if hi.is_finite() { (lo + hi) / 2.0 } else { lo * 1.000_244 };
            for centre in [lo.to_bits(), tie.to_bits()] {
                for delta in -2i32..=2 {
                    check(centre.wrapping_add_signed(delta));
                }
            }
        }
        // The range boundaries of the fast paths, f32 subnormals, ±0, ±∞, NaN.
        for centre in [0u32, 1, 0x007F_FFFF, 0x0080_0000, 0x3300_0000, 0x3880_0000, 0x477F_E000, 0x477F_F000, 0x4780_0000, 0x7F80_0000, 0x7FC0_0000] {
            for delta in -3i32..=3 {
                check(centre.wrapping_add_signed(delta));
                check(centre.wrapping_add_signed(delta) | 0x8000_0000);
            }
        }
        // A coprime stride across the whole f32 space.
        let mut bits = 0u32;
        for _ in 0..2_000_000 {
            check(bits);
            bits = bits.wrapping_add(2_147_483_629 / 1000 * 2 + 1);
        }
    }

    #[test]
    fn f16_step_falls_back_on_empty_and_underflowing_ranges() {
        assert_eq!(f16_step(12.7, 127.0), round_f16(12.7 / 127.0));
        assert_eq!(f16_step(0.0, 127.0), 1.0);
        // 127 · 2⁻²⁵ is the tie that rounds to the even neighbour, zero.
        let tie = 127.0 * 2.0f32.powi(-25);
        assert_eq!(round_f16(tie / 127.0), 0.0);
        assert_eq!(f16_step(tie, 127.0), 1.0);
        assert_eq!(f16_step(1.0e-9, 15.0), 1.0);
        // Just above it the smallest subnormal survives.
        assert_eq!(f16_step(tie * 1.01, 127.0), 2.0f32.powi(-24));
        assert_eq!(f16_step(f32::INFINITY, 15.0), f32::INFINITY);
        assert_eq!(f16_step(f32::NAN, 15.0), 1.0);
    }
}
