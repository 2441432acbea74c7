//! INT8 tensor-core matrix-multiply-accumulate emulation.
//!
//! Ampere's `mma.sync.aligned.m16n8k32.s32.s8.s8.s32` consumes signed 8-bit
//! fragments and accumulates exactly into signed 32-bit integers. Integer MMA
//! is associative and exact, so a faithful emulation only needs the same
//! dtypes: `i8 × i8 → i32` with wrapping-free accumulation (overflow is
//! impossible for LLM-sized reductions: `k < 2¹⁶` elements × max product
//! `2¹⁴` ≤ `2³⁰`, which [`dot_i8`] asserts).

/// Exact dot product of two signed 8-bit vectors into i32, the unit of work
/// one tensor-core MMA performs per output element.
///
/// The overflow bound is checked once per call, not per element: with
/// `len < 2¹⁶` the sum is at most `2¹⁶ · 2¹⁴ = 2³⁰ < 2³¹` in magnitude, so
/// the loop body is a plain widening multiply-add the compiler vectorises
/// (the paper's k dimensions are ≤ 2¹⁵).
///
/// # Panics
/// Panics if the lengths differ or `len ≥ 2¹⁶`.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8 length mismatch");
    assert!(a.len() < 1 << 16, "reduction of {} could overflow the i32 MMA accumulator", a.len());
    a.iter().zip(b).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum()
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

    props! {
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
