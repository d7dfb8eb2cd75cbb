//! Asymmetric uniform group quantization of a dense matrix.

use crate::bitwidth::Bitwidth;
use crate::config::{QuantAxis, QuantConfig, QuantError};
use crate::packed::PackedInts;
use cocktail_tensor::{Matrix, F16};
use serde::{Deserialize, Serialize};

/// A matrix stored as bit-packed integer codes plus per-group scale and
/// zero-point parameters.
///
/// Quantization is *asymmetric uniform*: for each group the code of value
/// `x` is `round((x − zero) / scale)` clamped to the representable range,
/// with `zero = min(group)` and `scale = (max(group) − min(group)) / max_code`.
/// Quantization parameters are themselves rounded to FP16, which is how
/// real KV-cache quantization kernels store them.
///
/// The group layout follows [`QuantAxis`]: per-token groups run along rows
/// (one token's head dimensions), per-channel groups run down columns.
///
/// # Example
///
/// ```
/// use cocktail_quant::{Bitwidth, QuantAxis, QuantConfig, QuantizedMatrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let m = cocktail_tensor::rng::gaussian_matrix(16, 64, 1.0, 3);
/// let cfg = QuantConfig::new(Bitwidth::Int8, QuantAxis::PerToken, 32)?;
/// let q = QuantizedMatrix::quantize(&m, &cfg)?;
/// assert_eq!(q.shape(), (16, 64));
/// assert!(q.dequantize().max_abs_diff(&m)? < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    config: QuantConfig,
    codes: PackedInts,
    scales: Vec<f32>,
    zeros: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes a matrix according to `config`.
    ///
    /// # Errors
    ///
    /// Currently infallible for any non-degenerate configuration, but kept
    /// fallible so future layouts (e.g. NUQ codebooks) can report
    /// incompatibilities; the error type is [`QuantError`].
    pub fn quantize(matrix: &Matrix, config: &QuantConfig) -> Result<Self, QuantError> {
        let (rows, cols) = matrix.shape();
        match config.axis() {
            QuantAxis::PerToken => {
                // Hot axis (every KV chunk takes it): group-aligned chunked
                // row scans, shared with the row-tiled parallel path in
                // [`crate::parallel`].
                let tile = quantize_rows_per_token(matrix, config, 0, rows);
                Ok(Self::assemble(
                    rows,
                    cols,
                    *config,
                    &tile.codes,
                    tile.scales,
                    tile.zeros,
                ))
            }
            QuantAxis::PerChannel => Ok(Self::quantize_per_channel(matrix, config)),
        }
    }

    /// Generic two-pass path for per-channel grouping, where groups run
    /// down columns and therefore span rows. Iteration order (row-major,
    /// per-element group lookup) matches the original scalar kernel.
    fn quantize_per_channel(matrix: &Matrix, config: &QuantConfig) -> Self {
        let (rows, cols) = matrix.shape();
        let group = config.group_size();
        let max_code = config.bitwidth().max_code() as f32;
        let per_col = rows.div_ceil(group);
        let group_count = cols * per_col;

        let mut scales = vec![1.0f32; group_count];
        let mut zeros = vec![0.0f32; group_count];
        let mut codes = vec![0u32; rows * cols];

        // First pass: group statistics.
        let mut mins = vec![f32::INFINITY; group_count];
        let mut maxs = vec![f32::NEG_INFINITY; group_count];
        for r in 0..rows {
            let row_group = r / group;
            for (c, &v) in matrix.row(r).iter().enumerate() {
                let g = c * per_col + row_group;
                if v < mins[g] {
                    mins[g] = v;
                }
                if v > maxs[g] {
                    maxs[g] = v;
                }
            }
        }
        for g in 0..group_count {
            if !mins[g].is_finite() {
                // Empty group (possible only when the matrix has zero rows
                // or columns); leave the identity parameters.
                mins[g] = 0.0;
                maxs[g] = 0.0;
            }
            let (scale, zero) = group_params(mins[g], maxs[g], max_code);
            scales[g] = scale;
            zeros[g] = zero;
        }

        // Second pass: encode.
        for r in 0..rows {
            let row_group = r / group;
            for (c, &v) in matrix.row(r).iter().enumerate() {
                let g = c * per_col + row_group;
                codes[r * cols + c] = encode(v, scales[g], zeros[g], max_code);
            }
        }

        Self::assemble(rows, cols, *config, &codes, scales, zeros)
    }

    /// Builds a matrix from already-computed parameters and unpacked codes
    /// (the stitch step of the row-tiled parallel quantizer).
    pub(crate) fn assemble(
        rows: usize,
        cols: usize,
        config: QuantConfig,
        codes: &[u32],
        scales: Vec<f32>,
        zeros: Vec<f32>,
    ) -> Self {
        debug_assert_eq!(codes.len(), rows * cols);
        debug_assert_eq!(scales.len(), zeros.len());
        Self {
            rows,
            cols,
            config,
            codes: PackedInts::pack(codes, config.bitwidth()),
            scales,
            zeros,
        }
    }

    /// Number of rows of the original matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the original matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` of the original matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The configuration this matrix was quantized with.
    pub fn config(&self) -> &QuantConfig {
        &self.config
    }

    /// The storage bitwidth.
    pub fn bitwidth(&self) -> Bitwidth {
        self.config.bitwidth()
    }

    /// Reconstructs one row into the provided buffer.
    ///
    /// This is the inner primitive of the fused GEMM kernels in
    /// [`crate::gemm`]: a row (or a group of rows) is reconstructed into a
    /// small scratch buffer instead of materialising the whole matrix. The
    /// codes are unpacked in bulk and the affine step runs over
    /// group-aligned contiguous chunks, so the hot loops carry no
    /// per-element bounds checks.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()` or `out.len() != cols()`.
    pub(crate) fn dequantize_row_into(&self, row: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "output buffer length mismatch");
        self.dequantize_row_range_into(row, 0, out);
    }

    /// Reconstructs the column slice `[col_start, col_start + out.len())`
    /// of one row — the primitive behind the column-tiled value kernel in
    /// [`crate::parallel`].
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()` or the column range exceeds `cols()`.
    pub(crate) fn dequantize_row_range_into(&self, row: usize, col_start: usize, out: &mut [f32]) {
        assert!(row < self.rows, "row out of bounds");
        assert!(
            col_start + out.len() <= self.cols,
            "column range out of bounds"
        );
        if out.is_empty() {
            return;
        }
        self.codes.unpack_f32_into(row * self.cols + col_start, out);
        let group = self.config.group_size();
        match self.config.axis() {
            QuantAxis::PerToken => {
                // Groups are contiguous row slices: apply each group's
                // affine parameters to its whole chunk at once.
                let per_row = self.cols.div_ceil(group);
                let base = row * per_row;
                let mut col = col_start;
                let mut off = 0;
                while off < out.len() {
                    let group_in_row = col / group;
                    let group_end = ((group_in_row + 1) * group).min(self.cols);
                    let take = (group_end - col).min(out.len() - off);
                    let scale = self.scales[base + group_in_row];
                    let zero = self.zeros[base + group_in_row];
                    for v in &mut out[off..off + take] {
                        *v = *v * scale + zero;
                    }
                    col += take;
                    off += take;
                }
            }
            QuantAxis::PerChannel => {
                let per_col = self.rows.div_ceil(group);
                let row_group = row / group;
                for (i, v) in out.iter_mut().enumerate() {
                    let g = (col_start + i) * per_col + row_group;
                    *v = *v * self.scales[g] + self.zeros[g];
                }
            }
        }
    }

    /// Reconstructs `out.len() / cols()` whole rows starting at `row_start`,
    /// row-major, into `out` — the block primitive of the decode attention
    /// kernel in `cocktail_kvcache` and of [`QuantizedMatrix::dequantize`].
    ///
    /// The rows' codes are contiguous, so they are unpacked in one bulk
    /// call; then each group's affine step runs with that group's scale and
    /// zero-point loaded once. Every element is still exactly
    /// `code * scale + zero`, so the output is bit-identical to
    /// `QuantizedMatrix::dequantize_row_into` row by row.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not a whole number of rows or the rows run
    /// past `rows()`.
    pub fn dequantize_rows_into(&self, row_start: usize, out: &mut [f32]) {
        if out.is_empty() {
            return;
        }
        assert!(
            self.cols > 0 && out.len() % self.cols == 0,
            "output buffer is not a whole number of rows"
        );
        let rows = out.len() / self.cols;
        assert!(row_start + rows <= self.rows, "row range out of bounds");
        self.codes.unpack_f32_into(row_start * self.cols, out);
        let group = self.config.group_size();
        match self.config.axis() {
            QuantAxis::PerToken => {
                // A row's groups are contiguous slices of it, and the
                // block's groups are contiguous in the parameter arrays.
                let per_row = self.cols.div_ceil(group);
                let params = row_start * per_row..(row_start + rows) * per_row;
                let scales = self.scales[params.clone()].chunks_exact(per_row);
                let zeros = self.zeros[params].chunks_exact(per_row);
                for ((row, scales), zeros) in out.chunks_exact_mut(self.cols).zip(scales).zip(zeros)
                {
                    for ((chunk, &scale), &zero) in row.chunks_mut(group).zip(scales).zip(zeros) {
                        for v in chunk {
                            *v = *v * scale + zero;
                        }
                    }
                }
            }
            QuantAxis::PerChannel => {
                // Column `c`'s parameters for row group `g` sit at
                // `c * per_col + g`: one strided walk per row.
                let per_col = self.rows.div_ceil(group);
                for (i, row) in out.chunks_exact_mut(self.cols).enumerate() {
                    let row_group = (row_start + i) / group;
                    let scales = self.scales[row_group..].iter().step_by(per_col);
                    let zeros = self.zeros[row_group..].iter().step_by(per_col);
                    for ((v, &scale), &zero) in row.iter_mut().zip(scales).zip(zeros) {
                        *v = *v * scale + zero;
                    }
                }
            }
        }
    }

    /// Reconstructs the full matrix.
    pub fn dequantize(&self) -> Matrix {
        self.dequantize_rows(0, self.rows)
    }

    /// Reconstructs the row slice `[row_start, row_end)` as its own matrix
    /// — the tile primitive of the row-parallel dequantizer in
    /// [`crate::parallel`].
    pub(crate) fn dequantize_rows(&self, row_start: usize, row_end: usize) -> Matrix {
        let mut out = Matrix::zeros(row_end - row_start, self.cols);
        self.dequantize_rows_into(row_start, out.as_mut_slice());
        out
    }

    /// Exact number of bytes occupied by the packed codes.
    pub fn payload_bytes(&self) -> usize {
        self.codes.byte_len()
    }

    /// Exact number of bytes occupied by quantization parameters (scale and
    /// zero-point stored as FP16 each).
    pub fn param_bytes(&self) -> usize {
        self.scales.len() * 2 + self.zeros.len() * 2
    }

    /// Total storage footprint in bytes (payload + parameters).
    pub fn storage_bytes(&self) -> usize {
        self.payload_bytes() + self.param_bytes()
    }

    /// Storage footprint of the same matrix kept in FP16, for comparison.
    pub fn fp16_reference_bytes(&self) -> usize {
        self.rows * self.cols * 2
    }

    /// Achieved compression ratio versus FP16 storage (>1 means smaller).
    pub fn compression_ratio(&self) -> f64 {
        if self.storage_bytes() == 0 {
            return 1.0;
        }
        self.fp16_reference_bytes() as f64 / self.storage_bytes() as f64
    }
}

/// Per-group parameters from group statistics — the one place the scale /
/// zero-point formula lives. FP16 rounding matches what real KV-cache
/// kernels store.
#[inline]
fn group_params(min: f32, max: f32, max_code: f32) -> (f32, f32) {
    let range = max - min;
    let scale = if range > 0.0 && max_code > 0.0 {
        range / max_code
    } else {
        1.0
    };
    (
        F16::round_trip(scale).max(f32::MIN_POSITIVE),
        F16::round_trip(min),
    )
}

/// Encodes one value against its group's affine parameters: bit for bit
/// `((v - zero) / scale).round().clamp(0.0, max_code) as u32`.
///
/// Clamping first is exact because both bounds are integers. The clamp is
/// `max(0.0).min(max_code)` written as two ordered selects, which lower to
/// plain min/max instructions and map NaN to 0, as `NaN as u32` is. On
/// `[0, max_code]`, adding `2^23` rounds to an integer (nearest, ties to
/// even) that the sum's low mantissa bits hold; where that tie went down,
/// `q` sits exactly `0.5` above it and [`f32::round`] goes up instead. No
/// branch, no libm call and no saturating float-to-int cast, so a loop
/// over a group vectorises.
#[inline]
fn encode(v: f32, scale: f32, zero: f32, max_code: f32) -> u32 {
    const TWO_23: f32 = 8_388_608.0;
    let q = (v - zero) / scale;
    let q = if q > 0.0 { q } else { 0.0 };
    let q = if q < max_code { q } else { max_code };
    let shifted = q + TWO_23;
    let nearest_even = shifted.to_bits() - TWO_23.to_bits();
    nearest_even + u32::from(q - (shifted - TWO_23) == 0.5)
}

/// One row tile's worth of per-token quantization output: parameters and
/// (unpacked) codes for rows `[row_start, row_end)`, laid out exactly as
/// the corresponding slice of the full matrix. Tiles from adjacent row
/// ranges concatenate into the full layout, which is what makes the
/// row-parallel quantizer in [`crate::parallel`] bit-identical to the
/// scalar path.
pub(crate) struct PerTokenTile {
    pub(crate) scales: Vec<f32>,
    pub(crate) zeros: Vec<f32>,
    pub(crate) codes: Vec<u32>,
}

/// Quantizes rows `[row_start, row_end)` under per-token grouping.
///
/// Per-token groups never cross a row, so each row is a sequence of
/// group-aligned contiguous chunks, walked with no per-element group-index
/// arithmetic and no bounds checks inside the hot loops. A group's min/max
/// scan, its parameters and its codes form one long dependency chain, so
/// the tile runs three passes, each over every group (statistics, then
/// parameters, then codes): the CPU then overlaps neighbouring groups'
/// chains instead of waiting out each in turn.
pub(crate) fn quantize_rows_per_token(
    matrix: &Matrix,
    config: &QuantConfig,
    row_start: usize,
    row_end: usize,
) -> PerTokenTile {
    let cols = matrix.cols();
    let group = config.group_size();
    let max_code = config.bitwidth().max_code() as f32;
    let per_row = cols.div_ceil(group);
    let rows = row_end - row_start;

    // The statistics pass leaves each group's min in `zeros` and its max
    // in `scales`; the parameter pass turns them into zero and scale.
    let mut scales = Vec::with_capacity(rows * per_row);
    let mut zeros = Vec::with_capacity(rows * per_row);
    let mut codes = vec![0u32; rows * cols];
    if cols == 0 {
        return PerTokenTile {
            scales,
            zeros,
            codes,
        };
    }
    let values = &matrix.as_slice()[row_start * cols..row_end * cols];
    for chunk in values.chunks_exact(cols).flat_map(|row| row.chunks(group)) {
        // Same comparison pattern as the original two-pass kernel, so
        // the statistics (and therefore every parameter bit) match.
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &v in chunk {
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        }
        zeros.push(min);
        scales.push(max);
    }
    for (scale, zero) in scales.iter_mut().zip(&mut zeros) {
        (*scale, *zero) = group_params(*zero, *scale, max_code);
    }
    let params = scales
        .chunks_exact(per_row)
        .zip(zeros.chunks_exact(per_row));
    for ((row, code_row), (scales, zeros)) in values
        .chunks_exact(cols)
        .zip(codes.chunks_exact_mut(cols))
        .zip(params)
    {
        let groups = row.chunks(group).zip(code_row.chunks_mut(group));
        for (((chunk, out), &scale), &zero) in groups.zip(scales).zip(zeros) {
            for (code, &v) in out.iter_mut().zip(chunk) {
                *code = encode(v, scale, zero, max_code);
            }
        }
    }
    PerTokenTile {
        scales,
        zeros,
        codes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_tensor::rng;
    use proptest::prelude::*;

    fn cfg(bw: Bitwidth, axis: QuantAxis, group: usize) -> QuantConfig {
        QuantConfig::new(bw, axis, group).expect("valid test config")
    }

    /// Element-wise reference: `(row, col)`'s code times its group's scale
    /// plus its group's zero point.
    fn dequantize_element(q: &QuantizedMatrix, row: usize, col: usize) -> f32 {
        let group = q.config.group_size();
        let g = match q.config.axis() {
            QuantAxis::PerToken => row * q.cols.div_ceil(group) + col / group,
            QuantAxis::PerChannel => col * q.rows.div_ceil(group) + row / group,
        };
        let code = q.codes.get(row * q.cols + col) as f32;
        code * q.scales[g] + q.zeros[g]
    }

    /// The encode `encode` replaced, kept as its oracle.
    fn encode_reference(v: f32, scale: f32, zero: f32, max_code: f32) -> u32 {
        ((v - zero) / scale).round().clamp(0.0, max_code) as u32
    }

    /// The per-token quantizer before it wrote preallocated slices, on
    /// the encode oracle above.
    fn quantize_per_token_reference(matrix: &Matrix, config: &QuantConfig) -> QuantizedMatrix {
        let max_code = config.bitwidth().max_code() as f32;
        let (mut scales, mut zeros, mut codes) = (Vec::new(), Vec::new(), Vec::new());
        for r in 0..matrix.rows() {
            for chunk in matrix.row(r).chunks(config.group_size()) {
                let mut min = f32::INFINITY;
                let mut max = f32::NEG_INFINITY;
                for &v in chunk {
                    if v < min {
                        min = v;
                    }
                    if v > max {
                        max = v;
                    }
                }
                let (scale, zero) = group_params(min, max, max_code);
                scales.push(scale);
                zeros.push(zero);
                codes.extend(
                    chunk
                        .iter()
                        .map(|&v| encode_reference(v, scale, zero, max_code)),
                );
            }
        }
        QuantizedMatrix::assemble(matrix.rows(), matrix.cols(), *config, &codes, scales, zeros)
    }

    const INTEGER_BITWIDTHS: [Bitwidth; 3] = [Bitwidth::Int2, Bitwidth::Int4, Bitwidth::Int8];

    #[test]
    fn encode_matches_round_then_clamp_at_every_edge() {
        // The adjacent bit patterns: one ulp either side of a nonzero `x`.
        let next_up = |x: f32| f32::from_bits(x.to_bits().wrapping_add(1));
        let next_down = |x: f32| f32::from_bits(x.to_bits().wrapping_sub(1));
        for bw in INTEGER_BITWIDTHS {
            let max_code = bw.max_code() as f32;
            let mut inputs = vec![
                f32::NAN,
                -f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                0.0,
                -0.0,
                next_down(0.5),
                max_code - 0.5,
                next_down(max_code - 0.5),
                next_up(max_code - 0.5),
                f32::MAX,
                f32::MIN,
                1e9,
                -1e9,
            ];
            for k in -2..=bw.max_code() as i32 + 2 {
                for x in [k as f32 - 0.5, k as f32, k as f32 + 0.5] {
                    inputs.extend([next_down(x), x, next_up(x)]);
                }
            }
            for (scale, zero) in [(1.0, 0.0), (0.25, -1.5), (0.1, 0.3), (3.0, 7.0)] {
                for &q in &inputs {
                    // A `v` whose `(v - zero) / scale` lands on `q` or
                    // beside it, plus `q` itself.
                    for v in [q * scale + zero, q] {
                        assert_eq!(
                            encode(v, scale, zero, max_code),
                            encode_reference(v, scale, zero, max_code),
                            "{bw} v={v:e} scale={scale} zero={zero}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn encode_matches_round_then_clamp_over_a_sweep_of_f32_patterns() {
        // Every 13th pattern in release, a coarser stride in debug; with
        // scale 1 and zero 0 the pattern is the encoded quotient itself.
        let stride = if cfg!(debug_assertions) { 65_521 } else { 13 };
        for bw in INTEGER_BITWIDTHS {
            let max_code = bw.max_code() as f32;
            for bits in (0..=u32::MAX).step_by(stride) {
                let v = f32::from_bits(bits);
                assert_eq!(
                    encode(v, 1.0, 0.0, max_code),
                    encode_reference(v, 1.0, 0.0, max_code),
                    "{bw} v={bits:#010x}"
                );
            }
        }
    }

    #[test]
    fn int8_reconstruction_error_is_small() {
        let m = rng::gaussian_matrix(32, 64, 1.0, 1);
        let q =
            QuantizedMatrix::quantize(&m, &cfg(Bitwidth::Int8, QuantAxis::PerToken, 32)).unwrap();
        let err = q.dequantize().max_abs_diff(&m).unwrap();
        assert!(err < 0.05, "int8 max error {err}");
    }

    #[test]
    fn error_grows_as_bits_shrink() {
        let m = rng::gaussian_matrix(32, 64, 1.0, 2);
        let mut errors = Vec::new();
        for bw in [Bitwidth::Int8, Bitwidth::Int4, Bitwidth::Int2] {
            let q = QuantizedMatrix::quantize(&m, &cfg(bw, QuantAxis::PerToken, 32)).unwrap();
            errors.push(q.dequantize().mse(&m).unwrap());
        }
        assert!(
            errors[0] < errors[1],
            "int8 {} < int4 {}",
            errors[0],
            errors[1]
        );
        assert!(
            errors[1] < errors[2],
            "int4 {} < int2 {}",
            errors[1],
            errors[2]
        );
    }

    #[test]
    fn constant_matrix_is_exact() {
        let m = Matrix::filled(8, 8, 3.25);
        let q =
            QuantizedMatrix::quantize(&m, &cfg(Bitwidth::Int2, QuantAxis::PerToken, 4)).unwrap();
        assert_eq!(q.dequantize().max_abs_diff(&m).unwrap(), 0.0);
    }

    #[test]
    fn group_extremes_are_exactly_representable() {
        // Min and max of every group must round-trip exactly (up to the FP16
        // rounding of the parameters themselves).
        let m = Matrix::from_rows(&[vec![-1.0, 0.5, 2.0, 4.0]]).unwrap();
        let q =
            QuantizedMatrix::quantize(&m, &cfg(Bitwidth::Int4, QuantAxis::PerToken, 4)).unwrap();
        let d = q.dequantize();
        assert!((d.get(0, 0) - -1.0).abs() < 1e-3);
        assert!((d.get(0, 3) - 4.0).abs() < 2e-3);
    }

    #[test]
    fn per_channel_groups_follow_columns() {
        // Build a matrix where each column has a wildly different scale; the
        // per-channel layout should adapt per column and beat per-token.
        let mut m = Matrix::zeros(16, 4);
        for r in 0..16 {
            for c in 0..4 {
                let scale = 10f32.powi(c as i32);
                m.set(r, c, (r as f32 / 16.0) * scale);
            }
        }
        let per_channel =
            QuantizedMatrix::quantize(&m, &cfg(Bitwidth::Int4, QuantAxis::PerChannel, 16)).unwrap();
        let per_token =
            QuantizedMatrix::quantize(&m, &cfg(Bitwidth::Int4, QuantAxis::PerToken, 4)).unwrap();
        let err_channel = per_channel.dequantize().mse(&m).unwrap();
        let err_token = per_token.dequantize().mse(&m).unwrap();
        assert!(
            err_channel < err_token,
            "per-channel {err_channel} should beat per-token {err_token} on channel-scaled data"
        );
    }

    #[test]
    fn storage_bytes_accounting() {
        let m = rng::uniform_matrix(64, 128, 1.0, 5);
        let q =
            QuantizedMatrix::quantize(&m, &cfg(Bitwidth::Int4, QuantAxis::PerToken, 32)).unwrap();
        // 64*128 values at 4 bits = 4096 bytes payload.
        assert_eq!(q.payload_bytes(), 64 * 128 / 2);
        // 128/32 = 4 groups per row, 64 rows = 256 groups, 4 bytes each.
        assert_eq!(q.param_bytes(), 256 * 4);
        assert_eq!(q.storage_bytes(), 4096 + 1024);
        assert!(q.compression_ratio() > 3.0);
    }

    #[test]
    fn ragged_group_sizes_are_handled() {
        // cols = 10 with group 4 → groups of 4, 4, 2 per row.
        let m = rng::uniform_matrix(3, 10, 1.0, 9);
        let q =
            QuantizedMatrix::quantize(&m, &cfg(Bitwidth::Int4, QuantAxis::PerToken, 4)).unwrap();
        assert_eq!(q.scales.len(), 3 * 3);
        let err = q.dequantize().max_abs_diff(&m).unwrap();
        assert!(err < 0.2);
    }

    #[test]
    fn empty_matrix_quantizes_to_empty() {
        let m = Matrix::zeros(0, 0);
        let q =
            QuantizedMatrix::quantize(&m, &cfg(Bitwidth::Int2, QuantAxis::PerToken, 32)).unwrap();
        assert_eq!(q.shape(), (0, 0));
        assert_eq!(q.storage_bytes(), 0);
        assert_eq!(q.dequantize().shape(), (0, 0));
    }

    #[test]
    fn dequantize_element_matches_full_dequantize() {
        let m = rng::gaussian_matrix(8, 16, 2.0, 11);
        let q =
            QuantizedMatrix::quantize(&m, &cfg(Bitwidth::Int4, QuantAxis::PerChannel, 4)).unwrap();
        let full = q.dequantize();
        for r in 0..8 {
            for c in 0..16 {
                assert_eq!(dequantize_element(&q, r, c), full.get(r, c));
            }
        }
    }

    #[test]
    fn compression_ratio_tracks_bitwidth() {
        let m = rng::uniform_matrix(128, 128, 1.0, 13);
        let r2 = QuantizedMatrix::quantize(&m, &cfg(Bitwidth::Int2, QuantAxis::PerToken, 32))
            .unwrap()
            .compression_ratio();
        let r4 = QuantizedMatrix::quantize(&m, &cfg(Bitwidth::Int4, QuantAxis::PerToken, 32))
            .unwrap()
            .compression_ratio();
        let r8 = QuantizedMatrix::quantize(&m, &cfg(Bitwidth::Int8, QuantAxis::PerToken, 32))
            .unwrap()
            .compression_ratio();
        assert!(r2 > r4 && r4 > r8 && r8 > 1.5, "r2={r2} r4={r4} r8={r8}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn reconstruction_error_is_bounded_by_group_range(
            rows in 1usize..12,
            cols in 1usize..24,
            seed in 0u64..500,
            group in 1usize..16,
        ) {
            let m = rng::uniform_matrix(rows, cols, 3.0, seed);
            let config = cfg(Bitwidth::Int4, QuantAxis::PerToken, group);
            let q = QuantizedMatrix::quantize(&m, &config).unwrap();
            let d = q.dequantize();
            // For asymmetric uniform quantization the max error is half a
            // step: (range / max_code) / 2, range ≤ 6.0 here. Allow slack for
            // the FP16 rounding of the parameters.
            let bound = 6.0 / 15.0 / 2.0 + 0.02;
            prop_assert!(d.max_abs_diff(&m).unwrap() <= bound);
        }

        #[test]
        fn quantization_is_deterministic(
            rows in 1usize..8,
            cols in 1usize..16,
            seed in 0u64..100,
        ) {
            let m = rng::gaussian_matrix(rows, cols, 1.0, seed);
            let config = cfg(Bitwidth::Int2, QuantAxis::PerToken, 8);
            let a = QuantizedMatrix::quantize(&m, &config).unwrap();
            let b = QuantizedMatrix::quantize(&m, &config).unwrap();
            prop_assert_eq!(a, b);
        }

        #[test]
        fn dequantized_values_stay_within_group_bounds(
            rows in 1usize..8,
            cols in 1usize..16,
            seed in 0u64..100,
        ) {
            let m = rng::uniform_matrix(rows, cols, 5.0, seed);
            let config = cfg(Bitwidth::Int4, QuantAxis::PerToken, 4);
            let q = QuantizedMatrix::quantize(&m, &config).unwrap();
            let d = q.dequantize();
            let lo = m.as_slice().iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = m.as_slice().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            for v in d.as_slice() {
                prop_assert!(*v >= lo - 0.05 && *v <= hi + 0.05, "v={v} lo={lo} hi={hi}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // The per-token quantizer against the code it replaced, every
        // parameter and code equal, over groups that hold zeros of both
        // signs, NaNs, infinities and values past the FP16 range.
        #[test]
        fn per_token_quantize_is_bit_identical_to_the_reference(
            rows in 0usize..12,
            cols in 0usize..40,
            bw_pick in 0usize..3,
            group in 1usize..24,
            special_mask in 0u64..u64::MAX,
            seed in 0u64..500,
        ) {
            let specials = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 7e4, -1e-30];
            let mut m = rng::gaussian_matrix(rows, cols, 2.0, seed);
            for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
                let pick = (special_mask >> (i % 61)) & 0x1F;
                if let Some(&special) = specials.get(pick as usize) {
                    *v = special;
                }
            }
            let config = cfg(INTEGER_BITWIDTHS[bw_pick], QuantAxis::PerToken, group);
            let q = QuantizedMatrix::quantize(&m, &config).unwrap();
            let want = quantize_per_token_reference(&m, &config);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&q.scales), bits(&want.scales));
            prop_assert_eq!(bits(&q.zeros), bits(&want.zeros));
            prop_assert_eq!(&q.codes, &want.codes);
        }

        // The block dequantizer against the per-row one, bit for bit, over
        // ranges that start and end mid-byte and mid-group.
        #[test]
        fn block_dequantize_is_bit_identical_to_per_row(
            rows in 1usize..40,
            cols in 1usize..24,
            bw_pick in 0usize..3,
            axis_pick in 0usize..2,
            group_pick in 0usize..4,
            start_pick in 0usize..40,
            len_pick in 0usize..41,
            seed in 0u64..500,
        ) {
            let bw = [Bitwidth::Int2, Bitwidth::Int4, Bitwidth::Int8][bw_pick];
            let axis = [QuantAxis::PerToken, QuantAxis::PerChannel][axis_pick];
            let group = [4usize, 8, 32, cols + 1][group_pick];
            let m = rng::gaussian_matrix(rows, cols, 2.0, seed);
            let q = QuantizedMatrix::quantize(&m, &cfg(bw, axis, group)).unwrap();
            let row_start = start_pick % rows;
            let n = len_pick % (rows - row_start + 1);
            let mut block = vec![f32::NAN; n * cols];
            q.dequantize_rows_into(row_start, &mut block);
            let mut row = vec![f32::NAN; cols];
            for (i, got) in block.chunks_exact(cols).enumerate() {
                q.dequantize_row_into(row_start + i, &mut row);
                let want: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, want, "row {}", row_start + i);
            }
        }
    }
}
