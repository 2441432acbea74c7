//! INT4 weight packing with the register-level-parallelism interleave
//! (§5.2.2, Figure 13).
//!
//! 32 UINT4 weights occupy one 128-bit word = four `u32` registers. QServe
//! stores them in the order `w0, w16, w1, w17, …, w15, w31` so that the
//! three-operation unpack
//!
//! ```text
//! Wlow  =  Wpack       & 0x0F0F0F0F   // even nibbles → byte lanes
//! Whigh = (Wpack >> 4) & 0x0F0F0F0F   // odd  nibbles → byte lanes
//! ```
//!
//! lands `w0..w15` in the low byte-lane registers and `w16..w31` in the high
//! ones — each output register holding four *consecutive* weights in its four
//! byte lanes, ready for lane-parallel dequantization.

/// 32 UINT4 weights packed into four `u32` registers with the QServe
/// interleave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackedInt4 {
    /// The four 32-bit registers (one 128-bit load on GPU).
    pub regs: [u32; 4],
}

/// Packs 32 UINT4 values (`w[i] <= 15`) with the interleave
/// `w0, w16, w1, w17, …`: register `r` holds interleaved elements
/// `8r..8r+8`, nibble 0 = lowest 4 bits.
///
/// # Panics
/// Panics if `w.len() != 32` or any value exceeds 15.
pub fn pack_interleaved(w: &[u8]) -> PackedInt4 {
    assert_eq!(w.len(), 32, "pack_interleaved needs exactly 32 weights");
    let mut regs = [0u32; 4];
    for (pos, &i) in interleave_order().iter().enumerate() {
        let value = w[i];
        assert!(value <= 15, "weight {} exceeds UINT4", value);
        let reg = pos / 8;
        let nibble = pos % 8;
        regs[reg] |= u32::from(value) << (4 * nibble);
    }
    PackedInt4 { regs }
}

/// The storage order: position `2i` holds `w[i]`, position `2i+1` holds
/// `w[i+16]`, for `i` in `0..16`.
fn interleave_order() -> [usize; 32] {
    let mut order = [0usize; 32];
    for i in 0..16 {
        order[2 * i] = i;
        order[2 * i + 1] = i + 16;
    }
    order
}

/// One unpacked register: four UINT8 weights in the byte lanes of a `u32`.
pub type ByteLanes = u32;

/// The three-logic-op unpack of one packed register (Figure 13): returns
/// `(low, high)` where `low`'s byte lanes are four consecutive weights from
/// `w0..w15` and `high`'s are the corresponding four from `w16..w31`.
#[inline]
pub fn unpack_register(reg: u32) -> (ByteLanes, ByteLanes) {
    let low = reg & 0x0F0F_0F0F;
    let high = (reg >> 4) & 0x0F0F_0F0F;
    (low, high)
}

/// Fully unpacks a [`PackedInt4`] back to 32 UINT8 values in original order,
/// using only the three-op register unpack plus byte-lane extraction.
pub fn unpack_interleaved(p: &PackedInt4) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (r, &reg) in p.regs.iter().enumerate() {
        let (low, high) = unpack_register(reg);
        for lane in 0..4 {
            // Register r, lane l: low lane = w[4r + l], high lane = w[16 + 4r + l].
            out[4 * r + lane] = ((low >> (8 * lane)) & 0xFF) as u8;
            out[16 + 4 * r + lane] = ((high >> (8 * lane)) & 0xFF) as u8;
        }
    }
    out
}

/// Extracts byte lane `l` (0..4) of a register as `u8`.
#[inline]
pub fn lane_u8(reg: ByteLanes, l: usize) -> u8 {
    debug_assert!(l < 4);
    ((reg >> (8 * l)) & 0xFF) as u8
}

/// Extracts byte lane `l` (0..4) of a register as `i8` (two's complement).
#[inline]
pub fn lane_i8(reg: ByteLanes, l: usize) -> i8 {
    lane_u8(reg, l) as i8
}

/// Packs four `i8` values into the byte lanes of a `u32`.
#[inline]
pub fn pack_lanes_i8(v: [i8; 4]) -> ByteLanes {
    (v[0] as u8 as u32)
        | ((v[1] as u8 as u32) << 8)
        | ((v[2] as u8 as u32) << 16)
        | ((v[3] as u8 as u32) << 24)
}

/// Packs a whole row of UINT4 codes into interleaved 128-bit words. A row
/// whose length is not a multiple of 32 is zero-padded into its final word
/// (real deployments pad channel counts; padded lanes multiply against zero
/// activations and contribute nothing).
fn pack_row(codes: &[u8]) -> Vec<PackedInt4> {
    codes
        .chunks(32)
        .map(|chunk| {
            let mut padded = [0u8; 32];
            padded[..chunk.len()].copy_from_slice(chunk);
            pack_interleaved(&padded)
        })
        .collect()
}

/// Unpacks one row of [`pack_rows`]' output (padding lanes included).
pub fn unpack_row(packed: &[PackedInt4]) -> Vec<u8> {
    packed.iter().flat_map(unpack_interleaved).collect()
}

/// Packs a row-major `n×k` code matrix row by row: `k.div_ceil(32)` words
/// per row, the storage order the W4A8 main loops stream. This is the
/// offline step — the weight types run it once at `quantize` time.
///
/// # Panics
/// Panics if `codes.len()` is not a multiple of `k`.
pub fn pack_rows(codes: &[u8], k: usize) -> Vec<PackedInt4> {
    assert!(k > 0 && codes.len() % k == 0, "code length {} not a multiple of k {}", codes.len(), k);
    codes.chunks(k).flat_map(pack_row).collect()
}

/// Inverts [`pack_rows`], dropping each row's padding lanes.
pub fn unpack_rows(packed: &[PackedInt4], k: usize) -> Vec<u8> {
    packed
        .chunks(k.div_ceil(32))
        .flat_map(|row| {
            let mut codes = unpack_row(row);
            codes.truncate(k);
            codes
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserve_tensor::{prop, props};

    #[test]
    fn round_trip_identity() {
        let w: Vec<u8> = (0..32).map(|i| (i % 16) as u8).collect();
        let p = pack_interleaved(&w);
        assert_eq!(unpack_interleaved(&p).to_vec(), w);
    }

    #[test]
    fn interleave_layout_matches_figure13() {
        // w0 goes to register 0 nibble 0; w16 to register 0 nibble 1.
        let mut w = vec![0u8; 32];
        w[0] = 0xA;
        w[16] = 0x5;
        let p = pack_interleaved(&w);
        assert_eq!(p.regs[0] & 0xF, 0xA);
        assert_eq!((p.regs[0] >> 4) & 0xF, 0x5);
        // w15 → register 3 nibble 6; w31 → register 3 nibble 7.
        let mut w2 = vec![0u8; 32];
        w2[15] = 0x3;
        w2[31] = 0xC;
        let p2 = pack_interleaved(&w2);
        assert_eq!((p2.regs[3] >> 24) & 0xF, 0x3);
        assert_eq!((p2.regs[3] >> 28) & 0xF, 0xC);
    }

    #[test]
    fn unpack_register_splits_low_high() {
        // Register with nibbles 0..8 in order (nibble i holds value i).
        let reg = 0x7654_3210u32;
        let (low, high) = unpack_register(reg);
        assert_eq!([lane_u8(low, 0), lane_u8(low, 1), lane_u8(low, 2), lane_u8(low, 3)], [0, 2, 4, 6]);
        assert_eq!(
            [lane_u8(high, 0), lane_u8(high, 1), lane_u8(high, 2), lane_u8(high, 3)],
            [1, 3, 5, 7]
        );
    }

    #[test]
    fn consecutive_weights_land_in_one_register() {
        // The kernel needs w[4r..4r+4] in one register's lanes: verify for
        // a recognizable pattern.
        let w: Vec<u8> = (0..32).map(|i| (i % 16) as u8).collect();
        let p = pack_interleaved(&w);
        let (low0, high0) = unpack_register(p.regs[0]);
        assert_eq!(
            [lane_u8(low0, 0), lane_u8(low0, 1), lane_u8(low0, 2), lane_u8(low0, 3)],
            [w[0], w[1], w[2], w[3]]
        );
        assert_eq!(
            [lane_u8(high0, 0), lane_u8(high0, 1), lane_u8(high0, 2), lane_u8(high0, 3)],
            [w[16], w[17], w[18], w[19]]
        );
    }

    #[test]
    #[should_panic(expected = "exceeds UINT4")]
    fn rejects_oversized_values() {
        let mut w = vec![0u8; 32];
        w[5] = 16;
        pack_interleaved(&w);
    }

    #[test]
    #[should_panic(expected = "exactly 32")]
    fn rejects_wrong_length() {
        pack_interleaved(&[0u8; 31]);
    }

    #[test]
    fn pack_row_round_trip() {
        let codes: Vec<u8> = (0..128).map(|i| (i * 7 % 16) as u8).collect();
        assert_eq!(unpack_row(&pack_row(&codes)), codes);
    }

    #[test]
    fn ragged_rows_pad_and_round_trip() {
        // k = 40: two words per row, the second one 8 codes + 24 zero lanes.
        let codes: Vec<u8> = (0..3 * 40).map(|i| (i * 5 % 16) as u8).collect();
        let packed = pack_rows(&codes, 40);
        assert_eq!(packed.len(), 3 * 2);
        assert_eq!(unpack_rows(&packed, 40), codes);
        assert!(unpack_interleaved(&packed[1])[8..].iter().all(|&c| c == 0));
    }

    #[test]
    fn lane_i8_sign_extends() {
        let reg = pack_lanes_i8([-1, -128, 127, 0]);
        assert_eq!(lane_i8(reg, 0), -1);
        assert_eq!(lane_i8(reg, 1), -128);
        assert_eq!(lane_i8(reg, 2), 127);
        assert_eq!(lane_i8(reg, 3), 0);
    }

    props! {
        fn prop_round_trip(rng) {
            let w = prop::vec_u8(rng, 0, 15, 32);
            let p = pack_interleaved(&w);
            assert_eq!(unpack_interleaved(&p).to_vec(), w);
        }

        fn prop_pack_row_round_trip(rng) {
            let w = prop::vec_u8(rng, 0, 15, 32 * 4);
            assert_eq!(unpack_row(&pack_row(&w)), w);
        }
    }
}
