//! Row-major dense `f32` matrix.
//!
//! LLM linear layers compute `Y = X Wᵀ` where `X` is `m×k` (tokens ×
//! input channels) and `W` is `n×k` (output channels × input channels), the
//! layout used throughout the paper (Figure 4). [`Matrix::matmul_nt`]
//! implements exactly that contraction; [`Matrix::matmul_nn`] is the plain
//! row×column product used for attention scores.

use std::fmt;

/// A dense row-major `f32` matrix.
///
/// The storage is a flat `Vec<f32>` of length `rows * cols`; element `(i, j)`
/// lives at `data[i * cols + j]`.
///
/// # Example
///
/// ```
/// use qserve_tensor::Matrix;
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.rows(), 2);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    ///
    /// # Panics
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        Self {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates the `n×n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.data[i * cols + j] = f(i, j);
            }
        }
        m
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "inconsistent row lengths");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {} out of bounds ({})", i, self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row {} out of bounds ({})", i, self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f32> {
        assert!(j < self.cols, "col {} out of bounds ({})", j, self.cols);
        (0..self.rows).map(|i| self.data[i * self.cols + j]).collect()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// `Y = self · other` (row × column), shapes `m×k · k×n → m×n`.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul_nn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul_nn shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let xi = &self.data[i * k..(i + 1) * k];
            let oi = &mut out.data[i * n..(i + 1) * n];
            for (p, &x) in xi.iter().enumerate() {
                if x.abs().to_bits() == 0 {
                    continue;
                }
                let wr = &other.data[p * n..(p + 1) * n];
                for (o, &w) in oi.iter_mut().zip(wr.iter()) {
                    *o += x * w;
                }
            }
        }
        out
    }

    /// `Y = self · otherᵀ`, shapes `m×k · (n×k)ᵀ → m×n`.
    ///
    /// This is the LLM linear-layer contraction from Figure 4 of the paper:
    /// `X` holds one token per row, `W` holds one output channel per row, and
    /// both share the reduction (input-channel) dimension `k`.
    ///
    /// Every output element is `((0 + x₀w₀) + x₁w₁) + …` in `f32`, one
    /// unfused multiply and one add per step, in index order. The 4×4 and
    /// 1×4 register tiles below only interleave sixteen (or four) such
    /// chains so the adder's latency overlaps; no chain is reassociated, so
    /// the result is bit-identical to the one-accumulator loop at any shape.
    ///
    /// # Panics
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt reduction mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let (m4, n4) = (m - m % 4, n - n % 4);
        let mut out = Matrix::zeros(m, n);
        for i in (0..m4).step_by(4) {
            for j in (0..n4).step_by(4) {
                let acc = dot_tile::<4>(&self.data, &other.data, k, i, j);
                for (a, row) in acc.iter().enumerate() {
                    out.data[(i + a) * n + j..][..4].copy_from_slice(row);
                }
            }
        }
        for i in m4..m {
            for j in (0..n4).step_by(4) {
                let [row] = dot_tile::<1>(&self.data, &other.data, k, i, j);
                out.data[i * n + j..][..4].copy_from_slice(&row);
            }
        }
        for i in 0..m {
            let xi = &self.data[i * k..(i + 1) * k];
            for j in n4..n {
                let wj = &other.data[j * k..(j + 1) * k];
                out.data[i * n + j] = xi.iter().zip(wj).fold(0.0f32, |acc, (a, b)| acc + a * b);
            }
        }
        out
    }

    /// Element-wise addition.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise subtraction.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scales column `j` of every row by `factors[j]`.
    ///
    /// # Panics
    /// Panics if `factors.len() != cols`.
    pub fn scale_cols(&self, factors: &[f32]) -> Matrix {
        assert_eq!(factors.len(), self.cols, "scale_cols length mismatch");
        let mut out = self.clone();
        for i in 0..self.rows {
            let r = out.row_mut(i);
            for (v, &f) in r.iter_mut().zip(factors.iter()) {
                *v *= f;
            }
        }
        out
    }

    /// Scales row `i` by `factors[i]`.
    ///
    /// # Panics
    /// Panics if `factors.len() != rows`.
    pub fn scale_rows(&self, factors: &[f32]) -> Matrix {
        assert_eq!(factors.len(), self.rows, "scale_rows length mismatch");
        let mut out = self.clone();
        for (i, &f) in factors.iter().enumerate() {
            for v in out.row_mut(i) {
                *v *= f;
            }
        }
        out
    }

    /// Reorders columns so output column `j` is input column `perm[j]`.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..cols`.
    pub fn permute_cols(&self, perm: &[usize]) -> Matrix {
        assert_eq!(perm.len(), self.cols, "perm length mismatch");
        let mut seen = vec![false; self.cols];
        for &p in perm {
            assert!(p < self.cols && !seen[p], "perm is not a permutation");
            seen[p] = true;
        }
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let src = self.row(i);
            let dst = out.row_mut(i);
            for (j, &p) in perm.iter().enumerate() {
                dst[j] = src[p];
            }
        }
        out
    }

    /// Extracts rows `r0..r1` as a new matrix.
    ///
    /// # Panics
    /// Panics if `r0 > r1` or `r1 > rows`.
    pub fn slice_rows(&self, r0: usize, r1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "slice_rows out of bounds");
        Matrix {
            rows: r1 - r0,
            cols: self.cols,
            data: self.data[r0 * self.cols..r1 * self.cols].to_vec(),
        }
    }

    /// Extracts columns `c0..c1` as a new matrix.
    ///
    /// # Panics
    /// Panics if `c0 > c1` or `c1 > cols`.
    pub fn slice_cols(&self, c0: usize, c1: usize) -> Matrix {
        assert!(c0 <= c1 && c1 <= self.cols, "slice_cols out of bounds");
        let mut out = Matrix::zeros(self.rows, c1 - c0);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[c0..c1]);
        }
        out
    }

    /// Maximum absolute element, 0 for an empty matrix.
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|v| f64::from(*v) * f64::from(*v))
            .sum::<f64>()
            .sqrt() as f32
    }
}

/// The `MR×4` block of `X·Wᵀ` whose corner is row `i` of `x` and row `j` of
/// `w` (both row-major with `k` columns): `MR·4` independent accumulators,
/// each summing its own products in index order.
#[inline(always)]
fn dot_tile<const MR: usize>(x: &[f32], w: &[f32], k: usize, i: usize, j: usize) -> [[f32; 4]; MR] {
    let xr: [&[f32]; MR] = std::array::from_fn(|a| &x[(i + a) * k..(i + a + 1) * k]);
    let wr: [&[f32]; 4] = std::array::from_fn(|b| &w[(j + b) * k..(j + b + 1) * k]);
    let mut acc = [[0.0f32; 4]; MR];
    for p in 0..k {
        for a in 0..MR {
            for b in 0..4 {
                acc[a][b] += xr[a][p] * wr[b][p];
            }
        }
    }
    acc
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v.abs().to_bits() == 0));
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let x = Matrix::from_fn(3, 3, |i, j| (i + 2 * j) as f32);
        let id = Matrix::eye(3);
        assert_eq!(x.matmul_nn(&id), x);
        assert_eq!(id.matmul_nn(&x), x);
    }

    #[test]
    fn matmul_nt_matches_manual() {
        // X = [[1,2],[3,4]], W = [[5,6],[7,8]] (rows are output channels)
        // Y[i][j] = X[i]·W[j]
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let w = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let y = x.matmul_nt(&w);
        assert_eq!(y.as_slice(), &[17.0, 23.0, 39.0, 53.0]);
    }

    #[test]
    fn matmul_nt_equals_nn_with_transpose() {
        let x = Matrix::from_fn(4, 6, |i, j| (i as f32 - j as f32) * 0.5);
        let w = Matrix::from_fn(5, 6, |i, j| (i * j) as f32 * 0.1);
        let a = x.matmul_nt(&w);
        let b = x.matmul_nn(&w.transpose());
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f32);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn permute_cols_round_trip() {
        let m = Matrix::from_fn(2, 4, |i, j| (i * 4 + j) as f32);
        let perm = vec![2, 0, 3, 1];
        let p = m.permute_cols(&perm);
        // invert the permutation
        let mut inv = vec![0usize; 4];
        for (j, &pj) in perm.iter().enumerate() {
            inv[pj] = j;
        }
        assert_eq!(p.permute_cols(&inv), m);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_cols_rejects_duplicates() {
        let m = Matrix::zeros(1, 3);
        m.permute_cols(&[0, 0, 2]);
    }

    #[test]
    fn scale_rows_and_cols() {
        let m = Matrix::full(2, 2, 1.0);
        let r = m.scale_rows(&[2.0, 3.0]);
        assert_eq!(r.as_slice(), &[2.0, 2.0, 3.0, 3.0]);
        let c = m.scale_cols(&[2.0, 3.0]);
        assert_eq!(c.as_slice(), &[2.0, 3.0, 2.0, 3.0]);
    }

    #[test]
    fn slice_rows_and_cols() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f32);
        let s = m.slice_rows(1, 3);
        assert_eq!(s.shape(), (2, 4));
        assert_eq!(s[(0, 0)], 4.0);
        let c = m.slice_cols(2, 4);
        assert_eq!(c.shape(), (4, 2));
        assert_eq!(c[(0, 0)], 2.0);
    }

    #[test]
    fn abs_max_and_norm() {
        let m = Matrix::from_rows(&[vec![-3.0, 4.0]]);
        assert_eq!(m.abs_max(), 4.0);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn col_extraction() {
        let m = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f32);
        assert_eq!(m.col(1), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_rejects_shape_mismatch() {
        let _ = Matrix::zeros(2, 2).add(&Matrix::zeros(2, 3));
    }
}
