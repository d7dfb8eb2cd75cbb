//! Row-major dense matrix with the operations a transformer decoder needs.

use crate::error::ShapeError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major matrix of `f32` values.
///
/// `Matrix` is the working representation for activations, attention scores
/// and (dequantized) KV-cache blocks throughout the Cocktail reproduction.
/// All operations validate shapes and return [`ShapeError`] on mismatch.
///
/// # Example
///
/// ```
/// use cocktail_tensor::Matrix;
///
/// # fn main() -> Result<(), cocktail_tensor::ShapeError> {
/// let q = Matrix::from_rows(&[vec![1.0, 0.0]])?;
/// let k = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]])?;
/// let scores = q.matmul(&k.transpose())?;
/// assert_eq!(scores.shape(), (1, 2));
/// assert_eq!(scores.get(0, 0), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix of the given shape filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new(
                "from_vec",
                format!(
                    "data length {} does not match shape {}x{}",
                    data.len(),
                    rows,
                    cols
                ),
            ));
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix from a slice of equal-length rows.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, ShapeError> {
        if rows.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(ShapeError::new(
                    "from_rows",
                    format!("row {} has length {}, expected {}", i, row.len(), cols),
                ));
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
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

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets element `(row, col)` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Immutable view of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable view of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row index out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Matrix multiplication `self * other` using a cache-blocked kernel.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != other.rows {
            return Err(ShapeError::new(
                "matmul",
                format!(
                    "{}x{} * {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            ));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps the inner loop streaming over contiguous
        // rows of `other` and `out`, which is the standard cache-friendly
        // ordering for row-major data.
        for i in 0..self.rows {
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Multiplies `self` by the transpose of `other` (`self * otherᵀ`)
    /// without materialising the transpose.
    ///
    /// This is the hot kernel of attention-score computation
    /// (`Q · Kᵀ`), where both operands are stored row-major.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != other.cols()`.
    pub fn matmul_transposed(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != other.cols {
            return Err(ShapeError::new(
                "matmul_transposed",
                format!(
                    "{}x{} * ({}x{})^T",
                    self.rows, self.cols, other.rows, other.cols
                ),
            ));
        }
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                out.data[i * other.rows + j] = acc;
            }
        }
        Ok(out)
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub(crate) fn add(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new(
                "add",
                format!("{:?} + {:?}", self.shape(), other.shape()),
            ));
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Element-wise addition in place.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) -> Result<(), ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new(
                "add_assign",
                format!("{:?} += {:?}", self.shape(), other.shape()),
            ));
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Element-wise subtraction (`self - other`).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new(
                "sub",
                format!("{:?} - {:?}", self.shape(), other.shape()),
            ));
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiplies every element by `scalar`, returning a new matrix.
    pub fn scale(&self, scalar: f32) -> Matrix {
        let data = self.data.iter().map(|v| v * scalar).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Multiplies every element by `scalar` in place.
    pub fn scale_in_place(&mut self, scalar: f32) {
        for v in &mut self.data {
            *v *= scalar;
        }
    }

    /// Concatenates matrices along the row dimension (stacking).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the column counts differ.
    pub fn concat_rows(parts: &[&Matrix]) -> Result<Matrix, ShapeError> {
        let non_empty: Vec<&&Matrix> = parts.iter().filter(|m| !m.is_empty()).collect();
        if non_empty.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = non_empty[0].cols;
        let mut data = Vec::new();
        let mut rows = 0;
        for m in parts.iter().filter(|m| !m.is_empty()) {
            if m.cols != cols {
                return Err(ShapeError::new(
                    "concat_rows",
                    format!("column mismatch: {} vs {}", m.cols, cols),
                ));
            }
            data.extend_from_slice(&m.data);
            rows += m.rows;
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Concatenates matrices along the column dimension (side by side).
    ///
    /// This is the `cat(..., -1)` of Algorithm 1 in the paper: the three
    /// attention-score blocks produced by the INT2 / INT4 / FP16 key groups
    /// are concatenated along the token axis.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the row counts differ.
    pub fn concat_cols(parts: &[&Matrix]) -> Result<Matrix, ShapeError> {
        let non_empty: Vec<&&Matrix> = parts.iter().filter(|m| !m.is_empty()).collect();
        if non_empty.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let rows = non_empty[0].rows;
        let total_cols: usize = non_empty.iter().map(|m| m.cols).sum();
        for m in &non_empty {
            if m.rows != rows {
                return Err(ShapeError::new(
                    "concat_cols",
                    format!("row mismatch: {} vs {}", m.rows, rows),
                ));
            }
        }
        let mut out = Matrix::zeros(rows, total_cols);
        for r in 0..rows {
            let mut offset = 0;
            for m in &non_empty {
                out.data[r * total_cols + offset..r * total_cols + offset + m.cols]
                    .copy_from_slice(m.row(r));
                offset += m.cols;
            }
        }
        Ok(out)
    }

    /// Appends one row in place. A matrix without rows takes its column
    /// count from the first row pushed, like [`Matrix::concat_rows`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the matrix has rows and `row.len()`
    /// differs from `cols()`.
    pub fn push_row(&mut self, row: &[f32]) -> Result<(), ShapeError> {
        if self.rows == 0 {
            self.cols = row.len();
        } else if row.len() != self.cols {
            return Err(ShapeError::new(
                "push_row",
                format!("row of length {} onto {} columns", row.len(), self.cols),
            ));
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Returns the sub-matrix consisting of rows `start..end`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > rows()`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "row slice out of bounds");
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Returns the sub-matrix consisting of columns `start..end`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > cols()`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.cols,
            "column slice out of bounds"
        );
        let mut out = Matrix::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Applies the softmax function to every row in place.
    ///
    /// Uses the numerically stable max-subtraction formulation. Rows that
    /// are entirely `-inf` (fully masked) become all zeros rather than NaN.
    pub fn softmax_rows(&mut self) {
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            if max == f32::NEG_INFINITY {
                for v in row.iter_mut() {
                    *v = 0.0;
                }
                continue;
            }
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
    }

    /// Adds `mask` to the matrix and applies row softmax, returning a new
    /// matrix (the `softmax(att + mask)` step of Algorithm 1).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the mask shape differs.
    pub fn masked_softmax(&self, mask: &Matrix) -> Result<Matrix, ShapeError> {
        let mut out = self.add(mask)?;
        out.softmax_rows();
        Ok(out)
    }

    /// Rounds every element through FP16 precision in place, modelling
    /// storage of this matrix in a half-precision buffer.
    pub fn round_to_f16(&mut self) {
        crate::f16::round_slice_to_f16(&mut self.data);
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Mean squared difference between two matrices of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn mse(&self, other: &Matrix) -> Result<f32, ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new(
                "mse",
                format!("{:?} vs {:?}", self.shape(), other.shape()),
            ));
        }
        if self.is_empty() {
            return Ok(0.0);
        }
        let sum: f32 = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        Ok(sum / self.data.len() as f32)
    }

    /// Maximum absolute difference between two matrices of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f32, ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new(
                "max_abs_diff",
                format!("{:?} vs {:?}", self.shape(), other.shape()),
            ));
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    /// Gathers the given rows into a new matrix, in the order supplied.
    ///
    /// This is the primitive behind KV-chunk reordering: a permutation of
    /// chunk indices expands to a permutation of token rows.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &src) in indices.iter().enumerate() {
            assert!(src < self.rows, "gather index out of bounds");
            out.row_mut(i).copy_from_slice(self.row(src));
        }
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>9.4} ", self.get(r, c))?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Copies column `col` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    fn column(m: &Matrix, col: usize) -> Vec<f32> {
        assert!(col < m.cols, "column index out of bounds");
        (0..m.rows).map(|r| m.get(r, col)).collect()
    }

    fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_identity_map() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let id = Matrix::identity(3);
        let prod = a.matmul(&id).unwrap();
        assert_eq!(prod, a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![0.5, -1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[
            vec![2.0, 0.0, 1.0],
            vec![1.0, 1.0, 1.0],
            vec![0.0, 3.0, -1.0],
        ])
        .unwrap();
        let via_t = a.matmul(&b.transpose()).unwrap();
        let fused = a.matmul_transposed(&b).unwrap();
        assert_eq!(via_t.shape(), fused.shape());
        for (x, y) in via_t.as_slice().iter().zip(fused.as_slice()) {
            assert!(approx_eq(*x, *y, 1e-6));
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).is_ok());
    }

    #[test]
    fn from_rows_validates_row_lengths() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
    }

    #[test]
    fn add_and_sub_are_inverses() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![0.5, -0.5], vec![1.5, 2.5]]).unwrap();
        let sum = a.add(&b).unwrap();
        let back = sum.sub(&b).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn add_assign_matches_add() {
        let mut a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        let expected = a.add(&b).unwrap();
        a.add_assign(&b).unwrap();
        assert_eq!(a, expected);
    }

    #[test]
    fn scale_multiplies_every_element() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0]]).unwrap();
        let s = a.scale(3.0);
        assert_eq!(s.as_slice(), &[3.0, -6.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-1.0, 0.0, 1.0]]).unwrap();
        m.softmax_rows();
        for r in 0..m.rows() {
            let sum: f32 = m.row(r).iter().sum();
            assert!(approx_eq(sum, 1.0, 1e-5));
        }
    }

    #[test]
    fn softmax_fully_masked_row_is_zero() {
        let mut m = Matrix::from_rows(&[vec![f32::NEG_INFINITY, f32::NEG_INFINITY]]).unwrap();
        m.softmax_rows();
        assert_eq!(m.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn masked_softmax_respects_mask() {
        let scores = Matrix::from_rows(&[vec![5.0, 5.0, 5.0]]).unwrap();
        let mask = Matrix::from_rows(&[vec![0.0, f32::NEG_INFINITY, 0.0]]).unwrap();
        let out = scores.masked_softmax(&mask).unwrap();
        assert!(approx_eq(out.get(0, 0), 0.5, 1e-5));
        assert_eq!(out.get(0, 1), 0.0);
        assert!(approx_eq(out.get(0, 2), 0.5, 1e-5));
    }

    #[test]
    fn concat_cols_matches_layout() {
        let a = Matrix::from_rows(&[vec![1.0], vec![3.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![2.0, 2.5], vec![4.0, 4.5]]).unwrap();
        let c = Matrix::concat_cols(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 2.0, 2.5]);
        assert_eq!(c.row(1), &[3.0, 4.0, 4.5]);
    }

    #[test]
    fn concat_rows_matches_layout() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let c = Matrix::concat_rows(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn push_row_matches_concat_rows() {
        let mut m = Matrix::zeros(0, 2);
        let mut expected = Matrix::zeros(0, 2);
        for row in [[1.0, 2.0], [3.0, 4.0]] {
            m.push_row(&row).unwrap();
            let new = Matrix::from_vec(1, 2, row.to_vec()).unwrap();
            expected = Matrix::concat_rows(&[&expected, &new]).unwrap();
            assert_eq!(m, expected);
        }
        assert!(m.push_row(&[5.0]).is_err());
        assert_eq!(m.shape(), (2, 2));
    }

    #[test]
    fn concat_handles_empty_parts() {
        let empty = Matrix::zeros(0, 0);
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let c = Matrix::concat_cols(&[&empty, &a, &empty]).unwrap();
        assert_eq!(c, a);
        let r = Matrix::concat_rows(&[&empty, &a]).unwrap();
        assert_eq!(r, a);
    }

    #[test]
    fn concat_mismatch_errors() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(2, 2);
        assert!(Matrix::concat_cols(&[&a, &b]).is_err());
        let c = Matrix::zeros(2, 3);
        assert!(Matrix::concat_rows(&[&b, &c]).is_err());
    }

    #[test]
    fn slice_rows_and_cols() {
        let m = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ])
        .unwrap();
        let mid = m.slice_rows(1, 2);
        assert_eq!(mid.as_slice(), &[4.0, 5.0, 6.0]);
        let right = m.slice_cols(2, 3);
        assert_eq!(column(&right, 0), vec![3.0, 6.0, 9.0]);
    }

    #[test]
    fn gather_rows_reorders() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let g = m.gather_rows(&[2, 0, 1]);
        assert_eq!(column(&g, 0), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn mse_and_max_abs_diff() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![1.5, 1.0]]).unwrap();
        let mse = a.mse(&b).unwrap();
        assert!(approx_eq(mse, (0.25 + 1.0) / 2.0, 1e-6));
        assert!(approx_eq(a.max_abs_diff(&b).unwrap(), 1.0, 1e-6));
    }

    #[test]
    fn round_to_f16_is_idempotent() {
        let mut m = Matrix::from_rows(&[vec![0.1, 0.2, 0.33333]]).unwrap();
        m.round_to_f16();
        let once = m.clone();
        m.round_to_f16();
        assert_eq!(m, once);
    }

    #[test]
    fn display_does_not_panic_on_large_matrix() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m}");
        assert!(s.contains("Matrix 20x20"));
    }

    #[test]
    fn frobenius_norm_known_value() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        assert!(approx_eq(m.frobenius_norm(), 5.0, 1e-6));
    }

    #[test]
    fn column_extracts_correct_values() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(column(&m, 1), vec![2.0, 4.0]);
    }

    #[test]
    fn iter_rows_yields_all_rows() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let rows: Vec<&[f32]> = (0..m.rows()).map(|r| m.row(r)).collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], &[3.0, 4.0]);
    }

    proptest! {
        #[test]
        fn matmul_is_associative_with_identity(
            rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000
        ) {
            let data: Vec<f32> = (0..rows * cols)
                .map(|i| ((i as u64 * 2654435761 + seed) % 1000) as f32 / 100.0 - 5.0)
                .collect();
            let a = Matrix::from_vec(rows, cols, data).unwrap();
            let left = Matrix::identity(rows).matmul(&a).unwrap();
            let right = a.matmul(&Matrix::identity(cols)).unwrap();
            prop_assert_eq!(&left, &a);
            prop_assert_eq!(&right, &a);
        }

        #[test]
        fn transpose_preserves_elements(rows in 1usize..8, cols in 1usize..8, seed in 0u64..100) {
            let data: Vec<f32> = (0..rows * cols)
                .map(|i| ((i as u64 * 31 + seed * 7) % 97) as f32)
                .collect();
            let m = Matrix::from_vec(rows, cols, data).unwrap();
            let t = m.transpose();
            for r in 0..rows {
                for c in 0..cols {
                    prop_assert_eq!(m.get(r, c), t.get(c, r));
                }
            }
        }

        #[test]
        fn softmax_output_is_probability_distribution(
            cols in 1usize..12, seed in 0u64..500
        ) {
            let data: Vec<f32> = (0..cols)
                .map(|i| ((i as u64 * 131 + seed) % 23) as f32 - 11.0)
                .collect();
            let mut m = Matrix::from_vec(1, cols, data).unwrap();
            m.softmax_rows();
            let sum: f32 = m.row(0).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(m.row(0).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }

        #[test]
        fn gather_rows_then_inverse_is_identity(n in 1usize..10, seed in 0u64..100) {
            let data: Vec<f32> = (0..n * 3).map(|i| (i as u64 + seed) as f32).collect();
            let m = Matrix::from_vec(n, 3, data).unwrap();
            // Build a deterministic permutation.
            let mut perm: Vec<usize> = (0..n).collect();
            perm.rotate_left((seed as usize) % n.max(1));
            let mut inverse = vec![0usize; n];
            for (i, &p) in perm.iter().enumerate() {
                inverse[p] = i;
            }
            let permuted = m.gather_rows(&perm);
            let restored = permuted.gather_rows(&inverse);
            prop_assert_eq!(restored, m);
        }
    }
}
