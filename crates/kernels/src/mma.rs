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

#[cfg(test)]
mod tests {
    use super::*;
    use qserve_tensor::{prop, props};

    /// The bound, reached through the GEMMs' tiled core: the longest
    /// admitted reduction of the largest products, in a five-row call (one
    /// full token tile and a remainder row), so no i16 lane and no i32
    /// accumulator can wrap.
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
        }
    }

    #[test]
    #[should_panic(expected = "could overflow")]
    fn tiled_rows_reject_reductions_past_the_bound() {
        let k = 1 << 16;
        dot_rows_i16(&vec![0; k], 1, k, &vec![0; k], |_, _| {});
    }

    props! {
        /// Every token-tile remainder, on reductions from empty to several
        /// hundred lanes: the tiled rows and the i64 sum agree.
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
            }
        }
    }
}
