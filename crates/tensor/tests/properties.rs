//! Property tests of the tensor substrate's algebraic invariants.

use qserve_tensor::fp16::{f16_bits_to_f32, f32_to_f16_bits, round_f16};
use qserve_tensor::ops::{rope_inplace, softmax_inplace};
use qserve_tensor::rng::TensorRng;
use qserve_tensor::{prop, props, Matrix};

fn small_matrix(rng: &mut TensorRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, prop::vec_f32(rng, -100.0, 100.0, rows * cols))
}

/// `matmul_nt` as it was first written: one accumulator per output element,
/// products added in index order. Kept as the oracle the register-tiled
/// kernel must match bit for bit.
fn matmul_nt_naive(x: &Matrix, w: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), w.rows());
    for i in 0..x.rows() {
        for j in 0..w.rows() {
            let mut acc = 0.0f32;
            for (a, b) in x.row(i).iter().zip(w.row(j)) {
                acc += a * b;
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// Values whose products and sums exercise every special path of the adder:
/// NaN, both infinities (∞ − ∞ and 0·∞ arise), signed zero, subnormals and
/// the largest finite value (overflow to ∞ mid-sum).
const SPECIALS: [f32; 9] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    -0.0,
    0.0,
    1.0e-40,
    -3.0e-42,
    f32::MIN_POSITIVE,
    f32::MAX,
];

fn planted_matrix(rng: &mut TensorRng, rows: usize, cols: usize) -> Matrix {
    let mut m = small_matrix(rng, rows, cols);
    if !m.is_empty() {
        for _ in 0..rng.index(4) {
            let at = rng.index(m.len());
            m.as_mut_slice()[at] = SPECIALS[rng.index(SPECIALS.len())];
        }
    }
    m
}

props! {
    /// The register-tiled `matmul_nt` performs, per output element, the
    /// same `f32` operations in the same order as the naive loop: equal
    /// bits on every tile/edge combination (m, n ∈ 0..=9), at reduction
    /// lengths on both sides of the tile loop's trip counts, with special
    /// values planted in both operands. A NaN must meet a NaN; which of two
    /// NaN payloads an addition keeps is the one thing left to the compiler.
    fn matmul_nt_is_bit_equal_to_the_naive_loop(rng, cases = 8) {
        for k in [0, 1, 7, 128, 344] {
            for m in 0..=9 {
                for n in 0..=9 {
                    let x = planted_matrix(rng, m, k);
                    let w = planted_matrix(rng, n, k);
                    let (tiled, naive) = (x.matmul_nt(&w), matmul_nt_naive(&x, &w));
                    assert_eq!(tiled.shape(), (m, n));
                    for (at, (t, o)) in tiled.as_slice().iter().zip(naive.as_slice()).enumerate() {
                        assert!(
                            t.to_bits() == o.to_bits() || (t.is_nan() && o.is_nan()),
                            "{m}x{k}x{n}, element {at}: tiled {t:e} ({:#x}) vs naive {o:e} ({:#x})",
                            t.to_bits(),
                            o.to_bits()
                        );
                    }
                }
            }
        }
    }

    /// (A + B) + C == A + (B + C) exactly is false in floats, but the
    /// element-wise ops must commute: A + B == B + A bitwise.
    fn add_commutes(rng) {
        let a = small_matrix(rng, 3, 4);
        let b = small_matrix(rng, 3, 4);
        assert_eq!(a.add(&b), b.add(&a));
    }

    /// Transpose is an involution.
    fn transpose_involution(rng) {
        let a = small_matrix(rng, 4, 6);
        assert_eq!(a.transpose().transpose(), a);
    }

    /// matmul distributes over the identity: (X·I) == X bitwise.
    fn identity_neutral(rng) {
        let a = small_matrix(rng, 3, 5);
        assert_eq!(a.matmul_nn(&Matrix::eye(5)), a);
    }

    /// Y = X·Wᵀ must equal X·(Wᵀ) computed via explicit transpose, closely.
    fn matmul_nt_consistent(rng) {
        let x = small_matrix(rng, 3, 4);
        let w = small_matrix(rng, 2, 4);
        let a = x.matmul_nt(&w);
        let b = x.matmul_nn(&w.transpose());
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() <= 1e-3 * u.abs().max(1.0));
        }
    }

    /// Scaling rows by f then 1/f round-trips within an ulp or two.
    fn row_scaling_inverts(rng) {
        let a = small_matrix(rng, 3, 4);
        let f = rng.uniform(0.25, 4.0);
        let back = a.scale_rows(&[f; 3]).scale_rows(&[1.0 / f; 3]);
        for (u, v) in a.as_slice().iter().zip(back.as_slice()) {
            assert!((u - v).abs() <= 1e-4 * u.abs().max(1e-3));
        }
    }

    /// fp16 round-trip is idempotent: round(round(x)) == round(x).
    fn fp16_idempotent(rng) {
        let x = rng.uniform(-70000.0, 70000.0);
        let once = round_f16(x);
        assert_eq!(round_f16(once).to_bits(), once.to_bits());
    }

    /// fp16 rounding is monotone: x ≤ y ⇒ round(x) ≤ round(y).
    fn fp16_monotone(rng) {
        let x = rng.uniform(-60000.0, 60000.0);
        let y = rng.uniform(-60000.0, 60000.0);
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        assert!(round_f16(lo) <= round_f16(hi));
    }

    /// fp16 conversion round-trips bits for every representable value.
    fn fp16_bits_round_trip(rng) {
        // All positive finite halves.
        let bits = rng.int_in(0, 0x7BFF) as u16;
        assert_eq!(f32_to_f16_bits(f16_bits_to_f32(bits)), bits);
    }

    /// Softmax output is a probability simplex for any finite input.
    fn softmax_simplex(rng) {
        let len = rng.int_in(1, 19) as usize;
        let mut s = prop::vec_f32(rng, -50.0, 50.0, len);
        softmax_inplace(&mut s);
        let sum: f32 = s.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(s.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// RoPE preserves the norm of every pair (it is a rotation).
    fn rope_isometry(rng) {
        let v = prop::vec_f32(rng, -10.0, 10.0, 8);
        let pos = rng.index(4096);
        let mut h = v.clone();
        rope_inplace(&mut h, pos, 10000.0);
        let n0: f32 = v.iter().map(|x| x * x).sum();
        let n1: f32 = h.iter().map(|x| x * x).sum();
        assert!((n0 - n1).abs() <= 1e-3 * n0.max(1.0));
    }

    /// Column permutation preserves multiset of entries per row.
    fn permute_preserves_rows(rng) {
        let a = small_matrix(rng, 2, 6);
        let mut perm: Vec<usize> = (0..6).collect();
        rng.shuffle(&mut perm);
        let p = a.permute_cols(&perm);
        for i in 0..2 {
            let mut orig: Vec<_> = a.row(i).iter().map(|v| v.to_bits()).collect();
            let mut permuted: Vec<_> = p.row(i).iter().map(|v| v.to_bits()).collect();
            orig.sort_unstable();
            permuted.sort_unstable();
            assert_eq!(orig, permuted);
        }
    }
}
