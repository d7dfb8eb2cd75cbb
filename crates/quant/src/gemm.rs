//! Fused floating-point × quantized matrix multiplication kernels.
//!
//! These are the `fqm` primitives of the paper's Algorithm 1: during the
//! decode phase the FP16 query (or attention-probability) matrix is
//! multiplied against a *quantized* key (or value) block, dequantizing one
//! row of the quantized operand at a time into a scratch buffer rather than
//! materialising the whole block in FP32.
//!
//! The two fused kernels and their `*_reference` oracles (compiled for
//! tests, and for docs so the links to them resolve) are built from the
//! same two accumulation helpers — a sequential dot product and a
//! zero-skipping axpy — so they are bit-identical to one another by
//! construction, and the tile kernels used by [`crate::parallel`] restrict
//! the same loops to a contiguous output slice without reassociating any
//! sum. Inner loops run over contiguous slices (no per-element bounds
//! checks) so the autovectorizer can lift them.

use crate::config::QuantError;
use crate::quantized::QuantizedMatrix;
use cocktail_tensor::Matrix;

/// Sequential dot product (`acc = 0.0; acc += a[c] * b[c]`, `c` ascending,
/// no reassociation) — the single accumulation order every score kernel
/// shares: the fused, reference and tiled kernels of this module and the
/// decode attention of `cocktail_kvcache`. It is also the per-element order
/// of `Matrix::matmul_transposed`.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

/// `out[c] += weight * row[c]` — the single accumulation step every value
/// kernel of this module shares, and the inner loop of `Matrix::matmul`.
/// Callers skip the call for a weight of exactly 0.0, as `Matrix::matmul`
/// does; attention probabilities that underflowed are exactly 0.0.
#[inline]
pub(crate) fn axpy(out: &mut [f32], weight: f32, row: &[f32]) {
    for (o, &v) in out.iter_mut().zip(row.iter()) {
        *o += weight * v;
    }
}

pub(crate) fn check_transposed_shapes(a: &Matrix, bq: &QuantizedMatrix) -> Result<(), QuantError> {
    if a.cols() != bq.cols() {
        return Err(QuantError::Incompatible(format!(
            "fp ({}x{}) x quantized^T ({}x{})",
            a.rows(),
            a.cols(),
            bq.rows(),
            bq.cols()
        )));
    }
    Ok(())
}

pub(crate) fn check_shapes(a: &Matrix, bq: &QuantizedMatrix) -> Result<(), QuantError> {
    if a.cols() != bq.rows() {
        return Err(QuantError::Incompatible(format!(
            "fp ({}x{}) x quantized ({}x{})",
            a.rows(),
            a.cols(),
            bq.rows(),
            bq.cols()
        )));
    }
    Ok(())
}

/// Columns `[j0, j1)` of `a · bqᵀ` (shapes already checked): the tile
/// primitive behind both the scalar fused kernel (`j0..j1` = the full
/// range) and the pooled dispatcher in [`crate::parallel`]. Each tile owns
/// its output block, so stitching tiles in ascending order reproduces the
/// full kernel bit for bit.
pub(crate) fn transposed_tile(a: &Matrix, bq: &QuantizedMatrix, j0: usize, j1: usize) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), j1 - j0);
    if a.cols() == 0 {
        return out;
    }
    let mut row_buf = vec![0.0f32; bq.cols()];
    for j in j0..j1 {
        bq.dequantize_row_into(j, &mut row_buf);
        for i in 0..a.rows() {
            out.set(i, j - j0, dot(a.row(i), &row_buf));
        }
    }
    out
}

/// Columns `[c0, c1)` of `a · bq` (shapes already checked): the value-side
/// tile primitive. The i-k-j accumulation order and the zero-weight skip
/// are identical to the full kernel restricted to the column slice, so
/// per-output-element float operations are unchanged.
pub(crate) fn value_tile(a: &Matrix, bq: &QuantizedMatrix, c0: usize, c1: usize) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), c1 - c0);
    if a.cols() == 0 || c1 == c0 {
        return out;
    }
    let mut row_buf = vec![0.0f32; c1 - c0];
    for k in 0..bq.rows() {
        bq.dequantize_row_range_into(k, c0, &mut row_buf);
        for i in 0..a.rows() {
            let weight = a.get(i, k);
            if weight == 0.0 {
                continue;
            }
            axpy(out.row_mut(i), weight, &row_buf);
        }
    }
    out
}

/// Computes `a · bqᵀ` where `bq` is quantized — the attention-score kernel
/// `Q · Kᵀ` with a quantized key block.
///
/// `a` has shape `(m, d)`, `bq` has shape `(n, d)`; the result has shape
/// `(m, n)`.
///
/// # Errors
///
/// Returns [`QuantError::Incompatible`] if the inner dimensions differ.
///
/// # Example
///
/// ```
/// use cocktail_quant::{gemm, Bitwidth, QuantConfig, QuantAxis, QuantizedMatrix};
/// use cocktail_tensor::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = cocktail_tensor::rng::gaussian_matrix(1, 8, 1.0, 1);
/// let k = cocktail_tensor::rng::gaussian_matrix(4, 8, 1.0, 2);
/// let kq = QuantizedMatrix::quantize(&k, &QuantConfig::new(Bitwidth::Int8, QuantAxis::PerToken, 8)?)?;
/// let exact = q.matmul_transposed(&k)?;
/// let fused = gemm::fp_matmul_quant_transposed(&q, &kq)?;
/// assert!(exact.max_abs_diff(&fused)? < 0.1);
/// # Ok(())
/// # }
/// ```
pub fn fp_matmul_quant_transposed(a: &Matrix, bq: &QuantizedMatrix) -> Result<Matrix, QuantError> {
    check_transposed_shapes(a, bq)?;
    Ok(transposed_tile(a, bq, 0, bq.rows()))
}

/// Computes `a · bq` where `bq` is quantized — the output kernel
/// `softmax(QKᵀ) · V` with a quantized value block.
///
/// `a` has shape `(m, n)`, `bq` has shape `(n, d)`; the result has shape
/// `(m, d)`.
///
/// # Errors
///
/// Returns [`QuantError::Incompatible`] if the inner dimensions differ.
pub fn fp_matmul_quant(a: &Matrix, bq: &QuantizedMatrix) -> Result<Matrix, QuantError> {
    check_shapes(a, bq)?;
    Ok(value_tile(a, bq, 0, bq.cols()))
}

/// Reference (non-fused) implementation: dequantize the whole operand,
/// then run the same `dot` accumulation as the fused kernel over the
/// materialised rows. The test oracle of the [`crate::parallel`]
/// dispatcher stack — fused, tiled and reference paths all produce the
/// same bits.
///
/// # Errors
///
/// Returns [`QuantError::Incompatible`] if the inner dimensions differ.
#[cfg(any(test, doc))]
pub(crate) fn fp_matmul_quant_transposed_reference(
    a: &Matrix,
    bq: &QuantizedMatrix,
) -> Result<Matrix, QuantError> {
    check_transposed_shapes(a, bq)?;
    let dense = bq.dequantize();
    let mut out = Matrix::zeros(a.rows(), bq.rows());
    for j in 0..bq.rows() {
        let dense_row = dense.row(j);
        for i in 0..a.rows() {
            out.set(i, j, dot(a.row(i), dense_row));
        }
    }
    Ok(out)
}

/// Reference (non-fused) version of [`fp_matmul_quant`]: dequantize the
/// whole operand, then run the same zero-skipping `axpy` accumulation
/// as the fused kernel.
///
/// # Errors
///
/// Returns [`QuantError::Incompatible`] if the inner dimensions differ.
#[cfg(any(test, doc))]
pub(crate) fn fp_matmul_quant_reference(
    a: &Matrix,
    bq: &QuantizedMatrix,
) -> Result<Matrix, QuantError> {
    check_shapes(a, bq)?;
    let dense = bq.dequantize();
    let mut out = Matrix::zeros(a.rows(), bq.cols());
    for k in 0..bq.rows() {
        let dense_row = dense.row(k);
        for i in 0..a.rows() {
            let weight = a.get(i, k);
            if weight == 0.0 {
                continue;
            }
            axpy(out.row_mut(i), weight, dense_row);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bitwidth, QuantAxis, QuantConfig};
    use cocktail_tensor::rng;
    use proptest::prelude::*;

    fn quantize(m: &Matrix, bw: Bitwidth, axis: QuantAxis, group: usize) -> QuantizedMatrix {
        QuantizedMatrix::quantize(m, &QuantConfig::new(bw, axis, group).unwrap()).unwrap()
    }

    #[test]
    fn fused_transposed_matches_reference() {
        let a = rng::gaussian_matrix(3, 16, 1.0, 1);
        let b = rng::gaussian_matrix(7, 16, 1.0, 2);
        let bq = quantize(&b, Bitwidth::Int4, QuantAxis::PerToken, 8);
        let fused = fp_matmul_quant_transposed(&a, &bq).unwrap();
        let reference = fp_matmul_quant_transposed_reference(&a, &bq).unwrap();
        assert!(fused.max_abs_diff(&reference).unwrap() < 1e-4);
    }

    #[test]
    fn fused_matches_reference() {
        let a = rng::gaussian_matrix(3, 7, 1.0, 3);
        let b = rng::gaussian_matrix(7, 16, 1.0, 4);
        let bq = quantize(&b, Bitwidth::Int4, QuantAxis::PerToken, 8);
        let fused = fp_matmul_quant(&a, &bq).unwrap();
        let reference = fp_matmul_quant_reference(&a, &bq).unwrap();
        assert!(fused.max_abs_diff(&reference).unwrap() < 1e-4);
    }

    #[test]
    fn int8_score_error_is_small_relative_to_exact() {
        let q = rng::gaussian_matrix(1, 64, 1.0, 5);
        let k = rng::gaussian_matrix(32, 64, 1.0, 6);
        let exact = q.matmul_transposed(&k).unwrap();
        let kq = quantize(&k, Bitwidth::Int8, QuantAxis::PerToken, 32);
        let approx = fp_matmul_quant_transposed(&q, &kq).unwrap();
        let scale = exact.frobenius_norm().max(1.0);
        assert!(approx.max_abs_diff(&exact).unwrap() / scale < 0.02);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = Matrix::zeros(2, 8);
        let b = rng::gaussian_matrix(4, 16, 1.0, 7);
        let bq = quantize(&b, Bitwidth::Int4, QuantAxis::PerToken, 8);
        assert!(fp_matmul_quant_transposed(&a, &bq).is_err());
        let a2 = Matrix::zeros(2, 3);
        assert!(fp_matmul_quant(&a2, &bq).is_err());
    }

    #[test]
    fn empty_operands_give_empty_output() {
        let a = Matrix::zeros(0, 0);
        let b = Matrix::zeros(0, 0);
        let bq = quantize(&b, Bitwidth::Int4, QuantAxis::PerToken, 8);
        let out = fp_matmul_quant_transposed(&a, &bq).unwrap();
        assert_eq!(out.shape(), (0, 0));
    }

    #[test]
    fn zero_attention_rows_are_skipped_correctly() {
        // A probability row with zeros must contribute nothing.
        let a = Matrix::from_rows(&[vec![0.0, 1.0, 0.0]]).unwrap();
        let v = Matrix::from_rows(&[vec![5.0, 5.0], vec![1.0, 2.0], vec![9.0, 9.0]]).unwrap();
        let vq = quantize(&v, Bitwidth::Int8, QuantAxis::PerToken, 2);
        let out = fp_matmul_quant(&a, &vq).unwrap();
        assert!((out.get(0, 0) - 1.0).abs() < 0.05);
        assert!((out.get(0, 1) - 2.0).abs() < 0.05);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn fused_kernels_agree_with_reference(
            m in 1usize..4,
            n in 1usize..10,
            d in 1usize..20,
            seed in 0u64..200,
        ) {
            let a = rng::gaussian_matrix(m, d, 1.0, seed);
            let b = rng::gaussian_matrix(n, d, 1.0, seed + 1);
            let bq = quantize(&b, Bitwidth::Int4, QuantAxis::PerToken, 8);
            let fused = fp_matmul_quant_transposed(&a, &bq).unwrap();
            let reference = fp_matmul_quant_transposed_reference(&a, &bq).unwrap();
            prop_assert!(fused.max_abs_diff(&reference).unwrap() < 1e-3);

            let p = rng::uniform_matrix(m, n, 1.0, seed + 2);
            let c = rng::gaussian_matrix(n, d, 1.0, seed + 3);
            let cq = quantize(&c, Bitwidth::Int2, QuantAxis::PerToken, 8);
            let fused2 = fp_matmul_quant(&p, &cq).unwrap();
            let reference2 = fp_matmul_quant_reference(&p, &cq).unwrap();
            prop_assert!(fused2.max_abs_diff(&reference2).unwrap() < 1e-3);
        }
    }
}
