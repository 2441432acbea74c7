//! Whole-matrix quantization under a [`QuantSpec`].

use crate::params::QParams;
use crate::{Granularity, QuantSpec};
use qserve_tensor::Matrix;

/// A quantized matrix: integer codes plus one [`QParams`] per sharing unit.
///
/// Codes are stored as `i32` for generality (this type backs every precision
/// in the paper's comparison tables); the bit-packed formats used by the
/// emulated GPU kernels live in `qserve-kernels`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    spec: QuantSpec,
    rows: usize,
    cols: usize,
    codes: Vec<i32>,
    params: Vec<QParams>,
}

impl QuantizedMatrix {
    /// Quantizes `m` according to `spec` (round-to-nearest-even, ranges per
    /// Equation 2 of the paper).
    ///
    /// # Panics
    /// Panics if a per-group granularity does not divide the column count.
    pub fn quantize(m: &Matrix, spec: QuantSpec) -> Self {
        Self::quantize_clipped(m, spec, 1.0)
    }

    /// Quantizes with a clip ratio `α` applied to the dynamic range
    /// (`W_max = α·max(W)`, `W_min = α·min(W)` — §4.3.4 weight clipping).
    ///
    /// # Panics
    /// Panics if `alpha` is not in `(0, 1]` or the granularity is invalid.
    pub fn quantize_clipped(m: &Matrix, spec: QuantSpec, alpha: f32) -> Self {
        let (rows, cols) = m.shape();
        let (qmin, qmax) = spec.q_range();
        let mut params = vec![QParams::default(); spec.granularity.param_count(rows, cols)];
        let mut codes = Vec::with_capacity(rows * cols);
        for (slot, (p, unit)) in params.iter_mut().zip(units(m, spec, alpha)) {
            *slot = p;
            codes.extend(unit.iter().map(|&x| p.quantize(x, qmin, qmax)));
        }
        Self {
            spec,
            rows,
            cols,
            codes,
            params,
        }
    }

    /// Reconstructs the floating-point matrix `(q − z)·s`.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let unit = unit_len(self.spec.granularity, self.rows, self.cols);
        let units = out.as_mut_slice().chunks_mut(unit).zip(self.codes.chunks(unit));
        for (p, (dst, src)) in self.params.iter().zip(units) {
            for (o, &q) in dst.iter_mut().zip(src) {
                *o = p.dequantize(q);
            }
        }
        out
    }

    /// The quantization recipe used.
    pub fn spec(&self) -> QuantSpec {
        self.spec
    }

    /// `(rows, cols)` of the underlying matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw integer codes, row-major.
    pub fn codes(&self) -> &[i32] {
        &self.codes
    }

    /// Scale/zero parameters, indexed per [`Granularity::param_index`].
    pub fn params(&self) -> &[QParams] {
        &self.params
    }

    /// Integer code at `(i, j)`.
    pub fn code(&self, i: usize, j: usize) -> i32 {
        self.codes[i * self.cols + j]
    }

    /// Parameters governing element `(i, j)`.
    pub fn params_at(&self, i: usize, j: usize) -> QParams {
        self.params[self.spec.granularity.param_index(i, j, self.cols)]
    }
}

/// Elements that share one `(s, z)` lie contiguously in row-major order at
/// every granularity — the whole tensor, one row, or one group of a row — so
/// a matrix is walked one parameter unit at a time as fixed-length chunks.
fn unit_len(granularity: Granularity, rows: usize, cols: usize) -> usize {
    let len = match granularity {
        Granularity::PerTensor => rows * cols,
        Granularity::PerRow => cols,
        Granularity::PerGroup { group_size } => group_size,
    };
    len.max(1)
}

/// Each parameter unit of `m` with the `(s, z)` its own range (shrunk by the
/// clip ratio `alpha`) yields, in [`Granularity::param_index`] order.
///
/// # Panics
/// Panics if `alpha` is not in `(0, 1]` or a per-group size does not divide
/// the column count.
fn units(m: &Matrix, spec: QuantSpec, alpha: f32) -> impl Iterator<Item = (QParams, &[f32])> {
    assert!(alpha > 0.0 && alpha <= 1.0, "clip ratio must be in (0,1]");
    let (rows, cols) = m.shape();
    let (qmin, qmax) = spec.q_range();
    // Validates the group size.
    spec.granularity.param_count(rows, cols);
    m.as_slice()
        .chunks(unit_len(spec.granularity, rows, cols))
        .map(move |unit| {
            let p = if spec.symmetric {
                let am = unit.iter().fold(0.0f32, |a, v| a.max(v.abs()));
                QParams::symmetric(am * alpha, qmax)
            } else {
                let (lo, hi) = unit
                    .iter()
                    .fold((f32::MAX, f32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                QParams::asymmetric(lo * alpha, hi * alpha, qmin, qmax)
            };
            (p, unit)
        })
}

/// Quantize-dequantize under a clip ratio in one pass:
/// `quantize_clipped(m, spec, α).dequantize()` bit for bit, without ever
/// holding the codes or the parameter vector — the form the clip and
/// smoothing grid searches evaluate once per candidate.
///
/// # Panics
/// As [`QuantizedMatrix::quantize_clipped`].
pub fn fake_quant_clipped(m: &Matrix, spec: QuantSpec, alpha: f32) -> Matrix {
    let (qmin, qmax) = spec.q_range();
    let mut data = Vec::with_capacity(m.len());
    for (p, unit) in units(m, spec, alpha) {
        data.extend(unit.iter().map(|&x| p.dequantize(p.quantize(x, qmin, qmax))));
    }
    Matrix::from_vec(m.rows(), m.cols(), data)
}

/// Convenience: round-to-nearest (RTN) quantize-dequantize in one step, the
/// baseline every table in the paper compares against.
pub fn rtn_fake_quant(m: &Matrix, spec: QuantSpec) -> Matrix {
    fake_quant_clipped(m, spec, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserve_tensor::rng::TensorRng;
    use qserve_tensor::stats::{relative_error, sqnr_db};

    #[test]
    fn int8_per_row_round_trip_error_small() {
        let mut rng = TensorRng::seed(1);
        let m = rng.gaussian(16, 64, 1.0);
        let q = QuantizedMatrix::quantize(&m, QuantSpec::int8_symmetric(Granularity::PerRow));
        assert!(relative_error(&m, &q.dequantize()) < 0.01);
    }

    #[test]
    fn codes_within_range() {
        let mut rng = TensorRng::seed(2);
        let m = rng.gaussian(8, 32, 3.0);
        for spec in [
            QuantSpec::int8_symmetric(Granularity::PerRow),
            QuantSpec::int8_protective(Granularity::PerRow),
            QuantSpec::uint4_asymmetric(Granularity::PerGroup { group_size: 8 }),
            QuantSpec::int4_symmetric(Granularity::PerTensor),
        ] {
            let (qmin, qmax) = spec.q_range();
            let q = QuantizedMatrix::quantize(&m, spec);
            assert!(
                q.codes().iter().all(|&c| c >= qmin && c <= qmax),
                "codes out of range for {:?}",
                spec
            );
        }
    }

    #[test]
    fn per_group_beats_per_tensor_on_outliers() {
        let mut rng = TensorRng::seed(3);
        let m = rng.with_outlier_channels(32, 64, 1.0, &[5], 20.0);
        let pt = rtn_fake_quant(&m, QuantSpec::int4_symmetric(Granularity::PerTensor));
        let pg = rtn_fake_quant(
            &m,
            QuantSpec::int4_symmetric(Granularity::PerGroup { group_size: 8 }),
        );
        assert!(
            sqnr_db(&m, &pg) > sqnr_db(&m, &pt) + 3.0,
            "group quantization should win by ≥3 dB on outlier data"
        );
    }

    #[test]
    fn int8_beats_int4() {
        let mut rng = TensorRng::seed(4);
        let m = rng.gaussian(16, 64, 1.0);
        let q8 = rtn_fake_quant(&m, QuantSpec::int8_symmetric(Granularity::PerRow));
        let q4 = rtn_fake_quant(&m, QuantSpec::int4_symmetric(Granularity::PerRow));
        assert!(sqnr_db(&m, &q8) > sqnr_db(&m, &q4) + 10.0);
    }

    #[test]
    fn asymmetric_handles_shifted_data() {
        // All-positive data wastes half the symmetric range; asymmetric wins.
        let mut rng = TensorRng::seed(5);
        let shifted = Matrix::from_vec(
            8,
            32,
            rng.gaussian(8, 32, 0.2).as_slice().iter().map(|v| v + 2.0).collect(),
        );
        let sym = rtn_fake_quant(&shifted, QuantSpec::int4_symmetric(Granularity::PerRow));
        let asym = rtn_fake_quant(&shifted, QuantSpec::uint4_asymmetric(Granularity::PerRow));
        assert!(sqnr_db(&shifted, &asym) > sqnr_db(&shifted, &sym));
    }

    #[test]
    fn clipping_reduces_range() {
        let m = Matrix::from_rows(&[vec![0.1, 0.2, 0.1, -0.15, 10.0]]); // one outlier
        let spec = QuantSpec::int4_symmetric(Granularity::PerRow);
        let clipped = QuantizedMatrix::quantize_clipped(&m, spec, 0.05);
        // With alpha=0.05 the scale is set by 0.5, so small values survive.
        let back = clipped.dequantize();
        assert!((back[(0, 0)] - 0.1).abs() < 0.05);
    }

    #[test]
    fn protective_range_codes_clamped_to_119() {
        let m = Matrix::from_rows(&[vec![1.0, -1.0, 0.5]]);
        let q = QuantizedMatrix::quantize(&m, QuantSpec::int8_protective(Granularity::PerRow));
        assert_eq!(q.code(0, 0), 119);
        assert_eq!(q.code(0, 1), -119);
    }

    #[test]
    fn params_at_matches_granularity() {
        let mut rng = TensorRng::seed(6);
        let m = rng.gaussian(4, 16, 1.0);
        let q = QuantizedMatrix::quantize(
            &m,
            QuantSpec::uint4_asymmetric(Granularity::PerGroup { group_size: 4 }),
        );
        // Elements in the same group share params.
        assert_eq!(q.params_at(2, 0), q.params_at(2, 3));
    }

    #[test]
    fn empty_matrix_ok() {
        let m = Matrix::zeros(0, 0);
        let q = QuantizedMatrix::quantize(&m, QuantSpec::int8_symmetric(Granularity::PerTensor));
        assert_eq!(q.dequantize().shape(), (0, 0));
    }
}
