//! Register-level parallelism (RLP) primitives (§5.2.3, Figure 14).
//!
//! NVIDIA GPUs expose `vadd4`, a single ALU instruction performing four
//! lane-wise INT8 additions inside one 32-bit register. There is no 4-way
//! INT8 *multiply*, so QServe simulates one by multiplying the whole register
//! by a zero-extended 8-bit scale — valid **only** when every lane's product
//! stays within 8 bits, otherwise the carry corrupts the neighbouring lane.
//!
//! QoQ's progressive quantization (protective range + `s⁽¹⁾ ≤ 16`,
//! `codes ≤ 15` ⇒ products ≤ 240 < 256) guarantees lane containment for the
//! *subtraction-after-multiplication* order; the
//! *subtraction-before-multiplication* order multiplies signed values up to
//! ±15·16 = ±240 which cannot be represented in a lane, reproducing the
//! overflow of Figure 14(a).

use crate::pack::ByteLanes;

/// `vadd4`: four independent lane-wise 8-bit additions in one 32-bit
/// operation. Carries do **not** propagate across lanes (each lane wraps
/// mod 256), exactly like the PTX `vadd4.u32.u32.u32` instruction.
#[inline]
fn vadd4(a: ByteLanes, b: ByteLanes) -> ByteLanes {
    // Classic SWAR: add the low 7 bits of each lane, then fix up the MSBs.
    let low = (a & 0x7F7F_7F7F).wrapping_add(b & 0x7F7F_7F7F);
    (low ^ ((a ^ b) & 0x8080_8080)) & 0xFFFF_FFFF
}

/// The simulated 4-way multiply: one 32×32 multiply treating the register as
/// four u8 lanes and the scale as a zero-extended u8 (§5.2.3: "one has to
/// simulate this by padding 24 zeros to the most significant bits of the
/// 8-bit scaling factor").
///
/// **Lane-exact only when every `lane × scale ≤ 255`.** This function mirrors
/// the hardware faithfully: it performs the full 32-bit multiply, so if a
/// product overflows 8 bits the carry corrupts the next lane.
#[inline]
fn mul4_u8(lanes: ByteLanes, scale: u8) -> ByteLanes {
    lanes.wrapping_mul(u32::from(scale))
}

/// Broadcasts one `u8` into all four byte lanes (the packed `-z·s` constant
/// of Figure 14 uses this shape).
#[inline]
pub fn splat4(v: u8) -> ByteLanes {
    u32::from(v) * 0x0101_0101
}

/// Subtraction-after-multiplication dequantization of four UINT4 codes
/// sharing one group: `lanes·s + (−z·s)` — two register operations, lane
/// exact under QoQ's guarantees. Returns the register whose lanes are the
/// signed INT8 intermediates.
///
/// `neg_zs` must be the byte-lane splat of `(-(z·s)) as i8 as u8`.
#[inline]
pub fn dequant_sub_after_mul(codes: ByteLanes, scale: u8, neg_zs: ByteLanes) -> ByteLanes {
    vadd4(mul4_u8(codes, scale), neg_zs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{lane_i8, lane_u8, pack_lanes_i8};
    use qserve_tensor::{prop, props, props_assume};

    /// `vsub4`: four lane-wise 8-bit subtractions (two's complement wrap).
    fn vsub4(a: ByteLanes, b: ByteLanes) -> ByteLanes {
        // a - b = a + (~b + 1) per lane.
        let not_b = !b;
        vadd4(vadd4(a, not_b), 0x0101_0101)
    }

    /// Reference scalar dequantization for one lane: `(q − z)·s` in full
    /// precision.
    fn dequant_scalar(q: u8, zero: u8, scale: u8) -> i32 {
        (i32::from(q) - i32::from(zero)) * i32::from(scale)
    }

    /// Subtraction-*before*-multiplication on packed lanes — the order Figure
    /// 14(a) shows is broken: lane values `(q − z)` are signed, and the register
    /// multiply treats the register as one unsigned integer, so negative lanes
    /// and large products corrupt neighbours.
    fn dequant_sub_before_mul_broken(codes: ByteLanes, zero: u8, scale: u8) -> ByteLanes {
        let diff = vsub4(codes, splat4(zero));
        mul4_u8(diff, scale)
    }

    #[test]
    fn vadd4_no_cross_lane_carry() {
        // 0xFF + 0x01 in lane 0 must wrap to 0x00 without touching lane 1.
        let a = 0x0000_00FFu32;
        let b = 0x0000_0001u32;
        assert_eq!(vadd4(a, b), 0x0000_0000);
    }

    #[test]
    fn vadd4_matches_scalar_wrapping() {
        for (a, b) in [(0x8040_2010u32, 0x7FC0_E0F0u32), (0xFFFF_FFFF, 0x01010101)] {
            let r = vadd4(a, b);
            for l in 0..4 {
                let expect = lane_u8(a, l).wrapping_add(lane_u8(b, l));
                assert_eq!(lane_u8(r, l), expect, "lane {}", l);
            }
        }
    }

    #[test]
    fn vsub4_matches_scalar_wrapping() {
        let a = 0x0102_0304u32;
        let b = 0x0503_0102u32;
        let r = vsub4(a, b);
        for l in 0..4 {
            let expect = lane_u8(a, l).wrapping_sub(lane_u8(b, l));
            assert_eq!(lane_u8(r, l), expect, "lane {}", l);
        }
    }

    #[test]
    fn mul4_exact_when_contained() {
        // codes ≤ 15, scale ≤ 16 → products ≤ 240, lane-exact.
        let codes = 0x0F0A_0501u32; // lanes 1,5,10,15
        let r = mul4_u8(codes, 16);
        assert_eq!(lane_u8(r, 0), 16);
        assert_eq!(lane_u8(r, 1), 80);
        assert_eq!(lane_u8(r, 2), 160);
        assert_eq!(lane_u8(r, 3), 240);
    }

    #[test]
    fn mul4_overflow_corrupts_neighbour() {
        // A product > 255 carries into the next lane: scale 20 × code 15 =
        // 300 = 0x12C → lane 0 reads 0x2C, lane 1 gains +1.
        let codes = 0x0000_000Fu32;
        let r = mul4_u8(codes, 20);
        assert_eq!(lane_u8(r, 0), 0x2C, "lane 0 truncated");
        assert_eq!(lane_u8(r, 1), 0x01, "carry leaked into lane 1");
    }

    #[test]
    fn sub_after_mul_matches_scalar_dequant() {
        // The paper's Figure 14(b) worked example: codes [7,0,3,15],
        // z = 8, s = 2 → products [14,0,6,30] → minus 16 → [-2,-16,-10,14].
        let codes = (15u32 << 24) | (3 << 16) | (0 << 8) | 7;
        let zs = (8u32 * 2) as u8;
        let neg_zs = splat4((zs as i8).wrapping_neg() as u8);
        let r = dequant_sub_after_mul(codes, 2, neg_zs);
        assert_eq!(
            [lane_i8(r, 0), lane_i8(r, 1), lane_i8(r, 2), lane_i8(r, 3)],
            [-2, -16, -10, 14]
        );
    }

    #[test]
    fn sub_before_mul_is_broken_on_figure14_example() {
        // Figure 14(a): with z = -8 (i.e. subtracting z = 8 keeps signed
        // lanes) and s = 2 the signed×unsigned register multiply corrupts
        // lanes that hold negative intermediate values.
        let codes = (15u32 << 24) | (3 << 16) | (0 << 8) | 7;
        let r = dequant_sub_before_mul_broken(codes, 8, 2);
        let got = [lane_i8(r, 0), lane_i8(r, 1), lane_i8(r, 2), lane_i8(r, 3)];
        let want = [-2i8, -16, -10, 14];
        assert_ne!(got, want, "sub-before-mul must NOT produce the right answer");
    }

    #[test]
    fn dequant_scalar_reference() {
        assert_eq!(dequant_scalar(7, 8, 2), -2);
        assert_eq!(dequant_scalar(15, 0, 16), 240);
        assert_eq!(dequant_scalar(0, 15, 16), -240);
    }

    props! {
        /// The paper's core RLP safety claim: for any UINT4 codes and any
        /// level-1 params QoQ can produce (s ∈ [1,16], z ∈ [0,15]) **such
        /// that the true dequantized value fits in i8** (guaranteed by the
        /// protective range for real quantized data), the two-op RLP path
        /// equals the scalar reference in every lane.
        fn prop_rlp_equals_scalar_when_in_range(rng, cases = 256) {
            let q = prop::vec_u8(rng, 0, 15, 4);
            let scale = rng.int_in(1, 16) as u8;
            let zero = rng.int_in(0, 15) as u8;
            let scalar: Vec<i32> = q.iter().map(|&c| dequant_scalar(c, zero, scale)).collect();
            props_assume!(scalar.iter().all(|v| (-128..=127).contains(v)));
            // Products q·s must be lane-contained: q ≤ 15, s ≤ 16 ⇒ ≤ 240 ✓.
            let codes = (u32::from(q[3]) << 24) | (u32::from(q[2]) << 16)
                | (u32::from(q[1]) << 8) | u32::from(q[0]);
            let zs = u32::from(zero) * u32::from(scale);
            props_assume!(zs <= 255); // the packed constant is one byte per lane
            let neg_zs = splat4((zs as u8 as i8).wrapping_neg() as u8);
            let r = dequant_sub_after_mul(codes, scale, neg_zs);
            for l in 0..4 {
                assert_eq!(i32::from(lane_i8(r, l)), scalar[l], "lane {}", l);
            }
        }

        fn prop_vadd4_lane_isolation(rng) {
            let a = rng.next_u32();
            let b = rng.next_u32();
            let r = vadd4(a, b);
            for l in 0..4 {
                assert_eq!(lane_u8(r, l), lane_u8(a, l).wrapping_add(lane_u8(b, l)));
            }
        }

        fn prop_vsub4_lane_isolation(rng) {
            let a = rng.next_u32();
            let b = rng.next_u32();
            let r = vsub4(a, b);
            for l in 0..4 {
                assert_eq!(lane_u8(r, l), lane_u8(a, l).wrapping_sub(lane_u8(b, l)));
            }
        }

        fn prop_pack_lanes_round_trip(rng) {
            let v = prop::vec_i8(rng, -128, 127, 4);
            let reg = pack_lanes_i8([v[0], v[1], v[2], v[3]]);
            for l in 0..4 {
                assert_eq!(lane_i8(reg, l), v[l]);
            }
        }
    }
}
