//! INT8 tensor-core matrix-multiply-accumulate emulation.
//!
//! Ampere's `mma.sync.aligned.m16n8k32.s32.s8.s8.s32` consumes signed 8-bit
//! fragments and accumulates exactly into signed 32-bit integers. Integer MMA
//! is associative and exact, so a faithful emulation only needs the same
//! dtypes: `i8 × i8 → i32` with wrapping-free accumulation (overflow is
//! impossible for LLM-sized reductions: `k < 2¹⁶` elements × max product
//! `2¹⁴` ≤ `2³⁰`, which the shared main loop asserts).

/// Token rows one pass over a weight row serves: every widened weight lane
/// is loaded once and multiplied against [`TOKEN_TILE`] activation rows.
pub(crate) const TOKEN_TILE: usize = 4;

/// The integer main loop, and the only one: exact dot products of `T`
/// activation rows against one weight row, all in i16 lanes — i8 codes
/// widened *before* the loop, so its body is a 16-bit multiply-add into
/// i32 the compiler turns into packed multiply-adds, with the weight lanes
/// shared across the `T` rows.
///
/// Every operand must be a widened i8 (`|x| ≤ 128`): with `len < 2¹⁶` each
/// accumulator stays within `2¹⁶ · 2¹⁴ = 2³⁰ < 2³¹`, so integer addition
/// never wraps and is therefore exact in *any* association — tiling and
/// vectorising the reduction cannot move a bit. The bound is checked once
/// per call, not per element (the paper's k dimensions are ≤ 2¹⁵).
///
/// # Panics
/// Panics if a row is shorter than `w` or `w.len() ≥ 2¹⁶`.
#[inline]
pub(crate) fn dot_i16<const T: usize>(x: [&[i16]; T], w: &[i16]) -> [i32; T] {
    assert!(w.len() < 1 << 16, "reduction of {} could overflow the i32 MMA accumulator", w.len());
    let x = x.map(|row| &row[..w.len()]);
    let mut acc = [0i32; T];
    for (p, &wp) in w.iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(&x) {
            *a += i32::from(row[p]) * i32::from(wp);
        }
    }
    acc
}

/// The INT32 accumulators of one weight row against every token:
/// `emit(i, Σ_p x[i][p] · w[p])` for each of the `m` rows of the row-major
/// `m×k` widened activations `x`, [`TOKEN_TILE`] rows per pass of
/// [`dot_i16`] and the remainder one by one. `w` may run past `k` (a
/// padded final word); only its first `k` lanes are read.
#[inline]
pub(crate) fn dot_rows_i16(x: &[i16], m: usize, k: usize, w: &[i16], mut emit: impl FnMut(usize, i32)) {
    let w = &w[..k];
    let row = |i: usize| &x[i * k..(i + 1) * k];
    let tiled = m - m % TOKEN_TILE;
    for i in (0..tiled).step_by(TOKEN_TILE) {
        let acc: [i32; TOKEN_TILE] = dot_i16(std::array::from_fn(|t| row(i + t)), w);
        for (t, acc) in acc.into_iter().enumerate() {
            emit(i + t, acc);
        }
    }
    for i in tiled..m {
        emit(i, dot_i16([row(i)], w)[0]);
    }
}

/// Exact dot product of two signed 8-bit vectors into i32, the unit of work
/// one tensor-core MMA performs per output element: both operands widened
/// to i16 a block at a time and reduced by [`dot_i16`], the main loop the
/// W4A8 kernels run.
///
/// # Panics
/// Panics if the lengths differ or `len ≥ 2¹⁶`.
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8 length mismatch");
    assert!(a.len() < 1 << 16, "reduction of {} could overflow the i32 MMA accumulator", a.len());
    const BLOCK: usize = 256;
    let (mut a16, mut b16) = ([0i16; BLOCK], [0i16; BLOCK]);
    let mut acc = 0i32;
    let widen = |wide: &mut [i16; BLOCK], narrow: &[i8]| {
        for (wide, &narrow) in wide.iter_mut().zip(narrow) {
            *wide = i16::from(narrow);
        }
    };
    for (a, b) in a.chunks(BLOCK).zip(b.chunks(BLOCK)) {
        widen(&mut a16, a);
        widen(&mut b16, b);
        acc += dot_i16([&a16[..a.len()]], &b16[..b.len()])[0];
    }
    acc
}

/// An `m×n×k` INT8 GEMM producing INT32 partial sums — the main loop of
/// Figure 5(a)/(d) with all iterations unrolled. `a` is `m×k` row-major,
/// `b` is `n×k` row-major (output-channel rows, as in `Y = X Wᵀ`).
///
/// # Panics
/// Panics if slice lengths disagree with the dimensions.
pub fn mma_i8_nt(a: &[i8], b: &[i8], m: usize, n: usize, k: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k, "A size mismatch");
    assert_eq!(b.len(), n * k, "B size mismatch");
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        let ar = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let br = &b[j * k..(j + 1) * k];
            out[i * n + j] = dot_i8(ar, br);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserve_tensor::{prop, props};

    #[test]
    fn dot_known_values() {
        assert_eq!(dot_i8(&[1, 2, 3], &[4, 5, 6]), 32);
        assert_eq!(dot_i8(&[-128; 4], &[-128; 4]), 4 * 16384);
        assert_eq!(dot_i8(&[], &[]), 0);
    }

    #[test]
    fn dot_is_exact_at_the_extremes_of_the_bound() {
        // The largest admitted reduction of the largest products: 65535 ·
        // 2¹⁴ < 2³⁰, no wrap.
        let n = (1 << 16) - 1;
        assert_eq!(dot_i8(&vec![-128; n], &vec![-128; n]), n as i32 * 16384);
        assert_eq!(dot_i8(&vec![-128; n], &vec![127; n]), n as i32 * -16256);
    }

    #[test]
    #[should_panic(expected = "could overflow")]
    fn dot_rejects_reductions_past_the_bound() {
        dot_i8(&vec![0; 1 << 16], &vec![0; 1 << 16]);
    }

    #[test]
    fn gemm_matches_naive() {
        let a: Vec<i8> = (0..6).map(|v| v as i8).collect(); // 2x3
        let b: Vec<i8> = (0..12).map(|v| (v as i8) - 6).collect(); // 4x3
        let c = mma_i8_nt(&a, &b, 2, 4, 3);
        for i in 0..2 {
            for j in 0..4 {
                let mut expect = 0i32;
                for p in 0..3 {
                    expect += i32::from(a[i * 3 + p]) * i32::from(b[j * 3 + p]);
                }
                assert_eq!(c[i * 4 + j], expect);
            }
        }
    }

    /// The bound, reached through the GEMMs' tiled core as well as through
    /// `dot_i8`: the longest admitted reduction of the largest products, in
    /// a five-row call (one full token tile and a remainder row), so no
    /// i16 lane and no i32 accumulator can wrap on either path.
    #[test]
    fn tiled_rows_are_exact_at_the_extremes_of_the_bound() {
        let k = (1 << 16) - 1;
        let m = TOKEN_TILE + 1;
        for (x, w, each) in [(127i16, -128i16, -16256i32), (-127, -128, 16256), (127, 127, 16129), (-127, 127, -16129)] {
            // A padded weight row: lanes past `k` must not be read.
            let mut w_row = vec![w; k];
            w_row.extend([i16::MAX; 9]);
            let mut got = vec![0i32; m];
            dot_rows_i16(&vec![x; m * k], m, k, &w_row, |i, acc| got[i] = acc);
            assert_eq!(got, vec![k as i32 * each; m], "x={x} w={w}");
            let narrow = dot_i8(&vec![x as i8; k], &vec![w as i8; k]);
            assert_eq!(narrow, k as i32 * each, "dot_i8 x={x} w={w}");
        }
    }

    #[test]
    #[should_panic(expected = "could overflow")]
    fn tiled_rows_reject_reductions_past_the_bound() {
        let k = 1 << 16;
        dot_rows_i16(&vec![0; k], 1, k, &vec![0; k], |_, _| {});
    }

    props! {
        /// Every token-tile remainder and every block edge of `dot_i8`'s
        /// widening: the tiled rows, the one-row dot and the i64 sum agree.
        fn prop_tiled_rows_match_i64_reference(rng, cases = 32) {
            let m = rng.int_in(0, 2 * TOKEN_TILE as i64 + 1) as usize;
            let k = [0usize, 1, 7, 255, 256, 257, 600][rng.int_in(0, 6) as usize];
            let x = prop::vec_i8(rng, -127, 127, m * k);
            let w = prop::vec_i8(rng, -128, 127, k);
            let x16: Vec<i16> = x.iter().map(|&v| i16::from(v)).collect();
            let w16: Vec<i16> = w.iter().map(|&v| i16::from(v)).collect();
            let mut got = vec![i32::MIN; m];
            dot_rows_i16(&x16, m, k, &w16, |i, acc| got[i] = acc);
            for (i, &got) in got.iter().enumerate() {
                let row = &x[i * k..(i + 1) * k];
                let expect: i64 = row.iter().zip(&w).map(|(&a, &b)| i64::from(a) * i64::from(b)).sum();
                assert_eq!(i64::from(got), expect, "row {i} of m={m} k={k}");
                assert_eq!(i64::from(dot_i8(row, &w)), expect, "dot_i8 row {i} k={k}");
            }
        }

        fn prop_gemm_matches_i64_reference(rng) {
            let a = prop::vec_i8(rng, -128, 127, 3 * 8);
            let b = prop::vec_i8(rng, -128, 127, 2 * 8);
            let c = mma_i8_nt(&a, &b, 3, 2, 8);
            for i in 0..3 {
                for j in 0..2 {
                    let expect: i64 = (0..8)
                        .map(|p| i64::from(a[i * 8 + p]) * i64::from(b[j * 8 + p]))
                        .sum();
                    assert_eq!(i64::from(c[i * 2 + j]), expect);
                }
            }
        }
    }
}
