//! Quantization error metrics for the unit tests: how much information a
//! quantize-then-dequantize round trip destroys.

#[cfg(test)]
mod tests {
    use crate::{Bitwidth, QuantAxis, QuantConfig, QuantizedMatrix};
    use cocktail_tensor::{rng, Matrix};

    /// Summary statistics of the difference between a reference tensor and its
    /// quantized-then-dequantized reconstruction.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct QuantErrorStats {
        /// Mean squared error.
        mse: f32,
        /// Maximum absolute element-wise error.
        max_abs: f32,
        /// Relative Frobenius-norm error `‖a − b‖_F / ‖a‖_F` (0 when `a` is 0).
        relative: f32,
        /// Signal-to-quantization-noise ratio in dB (∞ when the error is 0).
        sqnr_db: f32,
    }

    impl QuantErrorStats {
        /// Computes the statistics between a reference and a reconstruction.
        ///
        /// # Errors
        ///
        /// Returns a [`cocktail_tensor::ShapeError`] if the shapes differ.
        fn between(
            reference: &Matrix,
            reconstruction: &Matrix,
        ) -> Result<Self, cocktail_tensor::ShapeError> {
            let mse = reference.mse(reconstruction)?;
            let max_abs = reference.max_abs_diff(reconstruction)?;
            let diff = reference.sub(reconstruction)?;
            let ref_norm = reference.frobenius_norm();
            let relative = if ref_norm > 0.0 {
                diff.frobenius_norm() / ref_norm
            } else {
                0.0
            };
            let signal_power: f32 = if reference.is_empty() {
                0.0
            } else {
                reference.as_slice().iter().map(|v| v * v).sum::<f32>() / reference.len() as f32
            };
            let sqnr_db = if mse > 0.0 && signal_power > 0.0 {
                10.0 * (signal_power / mse).log10()
            } else {
                f32::INFINITY
            };
            Ok(Self {
                mse,
                max_abs,
                relative,
                sqnr_db,
            })
        }
    }

    #[test]
    fn identical_matrices_have_zero_error_and_infinite_sqnr() {
        let a = rng::gaussian_matrix(4, 4, 1.0, 1);
        let stats = QuantErrorStats::between(&a, &a).unwrap();
        assert_eq!(stats.mse, 0.0);
        assert_eq!(stats.max_abs, 0.0);
        assert_eq!(stats.relative, 0.0);
        assert!(stats.sqnr_db.is_infinite());
    }

    #[test]
    fn sqnr_improves_with_more_bits() {
        let m = rng::gaussian_matrix(32, 64, 1.0, 2);
        let mut sqnrs = Vec::new();
        for bw in [Bitwidth::Int2, Bitwidth::Int4, Bitwidth::Int8] {
            let q = QuantizedMatrix::quantize(
                &m,
                &QuantConfig::new(bw, QuantAxis::PerToken, 32).unwrap(),
            )
            .unwrap();
            let stats = QuantErrorStats::between(&m, &q.dequantize()).unwrap();
            sqnrs.push(stats.sqnr_db);
        }
        assert!(sqnrs[0] < sqnrs[1] && sqnrs[1] < sqnrs[2], "{sqnrs:?}");
    }

    #[test]
    fn shape_mismatch_is_error() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(QuantErrorStats::between(&a, &b).is_err());
    }

    #[test]
    fn empty_matrices_are_fine() {
        let a = Matrix::zeros(0, 0);
        let stats = QuantErrorStats::between(&a, &a).unwrap();
        assert_eq!(stats.mse, 0.0);
        assert_eq!(stats.relative, 0.0);
    }
}
