//! Error metrics and per-axis statistics shared by the quantization crates.

use crate::matrix::Matrix;

/// Per-column absolute maximum (channel salience, §4.3.3: "We use max(|X|) to
/// determine the channel salience").
pub fn col_abs_max(m: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0f32; m.cols()];
    for i in 0..m.rows() {
        for (o, &v) in out.iter_mut().zip(m.row(i)) {
            *o = o.max(v.abs());
        }
    }
    out
}

/// Per-row absolute maximum (per-channel weight scale, per-token activation
/// scale).
pub fn row_abs_max(m: &Matrix) -> Vec<f32> {
    (0..m.rows())
        .map(|i| m.row(i).iter().fold(0.0f32, |a, v| a.max(v.abs())))
        .collect()
}

/// Mean squared error between two equal-shaped matrices.
///
/// # Panics
/// Panics on shape mismatch.
pub fn mse(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(a.shape(), b.shape(), "mse shape mismatch");
    if a.is_empty() {
        return 0.0;
    }
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum::<f64>()
        / a.len() as f64
}

/// Signal-to-quantization-noise ratio in dB: `10·log₁₀(‖a‖² / ‖a−b‖²)`.
///
/// Higher is better; returns `f64::INFINITY` for an exact match.
///
/// # Panics
/// Panics on shape mismatch.
pub fn sqnr_db(reference: &Matrix, quantized: &Matrix) -> f64 {
    assert_eq!(reference.shape(), quantized.shape(), "sqnr shape mismatch");
    let signal: f64 = reference
        .as_slice()
        .iter()
        .map(|&v| f64::from(v) * f64::from(v))
        .sum();
    let noise: f64 = reference
        .as_slice()
        .iter()
        .zip(quantized.as_slice())
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum();
    if noise.abs().to_bits() == 0 {
        f64::INFINITY
    } else {
        10.0 * (signal / noise).log10()
    }
}

/// Relative Frobenius error `‖a − b‖_F / ‖a‖_F` (0 when `a` is all-zero and
/// `b == a`).
///
/// # Panics
/// Panics on shape mismatch.
pub fn relative_error(reference: &Matrix, approx: &Matrix) -> f64 {
    assert_eq!(reference.shape(), approx.shape(), "relative_error shape mismatch");
    let num = f64::from(reference.sub(approx).frobenius_norm());
    let den = f64::from(reference.frobenius_norm());
    if den.abs().to_bits() == 0 {
        if num.abs().to_bits() == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        num / den
    }
}

/// Argsort of `values` in descending order — used by activation-aware channel
/// reordering (§4.3.3: "AbsMax → ArgSort → Reorder"). The order is
/// `f32::total_cmp`'s, so a NaN never breaks the sort: a positive NaN ranks
/// above every number, and equal values keep their index order.
pub fn argsort_desc(values: &[f32]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[b].total_cmp(&values[a]));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_abs_max_basic() {
        let m = Matrix::from_rows(&[vec![1.0, -5.0], vec![-2.0, 3.0]]);
        assert_eq!(col_abs_max(&m), vec![2.0, 5.0]);
    }

    #[test]
    fn row_abs_max_basic() {
        let m = Matrix::from_rows(&[vec![1.0, -5.0], vec![-2.0, 3.0]]);
        assert_eq!(row_abs_max(&m), vec![5.0, 3.0]);
    }

    #[test]
    fn mse_zero_for_identical() {
        let m = Matrix::from_fn(3, 3, |i, j| (i + j) as f32);
        assert_eq!(mse(&m, &m), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let a = Matrix::from_rows(&[vec![0.0, 0.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert!((mse(&a, &b) - 12.5).abs() < 1e-9);
    }

    #[test]
    fn sqnr_infinite_for_exact() {
        let m = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f32);
        assert!(sqnr_db(&m, &m).is_infinite());
    }

    #[test]
    fn sqnr_decreases_with_noise() {
        let m = Matrix::full(4, 4, 1.0);
        let small = Matrix::full(4, 4, 1.01);
        let big = Matrix::full(4, 4, 1.5);
        assert!(sqnr_db(&m, &small) > sqnr_db(&m, &big));
    }

    #[test]
    fn relative_error_scale_free() {
        let a = Matrix::full(2, 2, 10.0);
        let b = Matrix::full(2, 2, 11.0);
        assert!((relative_error(&a, &b) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn argsort_desc_orders() {
        assert_eq!(argsort_desc(&[1.0, 3.0, 2.0]), vec![1, 2, 0]);
    }

    #[test]
    fn argsort_handles_ties() {
        let idx = argsort_desc(&[2.0, 2.0, 1.0]);
        assert_eq!(idx[2], 2);
    }

    #[test]
    fn argsort_desc_ranks_nans_first_and_never_panics() {
        // Long enough for std's sort to notice a comparator that maps a NaN
        // to `Equal`, which is no total order: that one panicked here.
        let values: Vec<f32> =
            (0..64).map(|i| if i % 3 == 0 { f32::NAN } else { i as f32 }).collect();
        let nans = (0..64).step_by(3);
        let numbers_desc = (0..64).rev().filter(|i| i % 3 != 0);
        assert_eq!(argsort_desc(&values), nans.chain(numbers_desc).collect::<Vec<_>>());
    }
}
