//! A single KV-cache chunk: the keys and values of one run of context
//! tokens, stored at one of the paper's precision levels.

use crate::error::KvCacheError;
use cocktail_quant::{Bitwidth, QuantAxis, QuantConfig, QuantizedMatrix};
use cocktail_tensor::{Matrix, F16};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::ops::Range;

/// Token rows `tokens` of the row-major concatenation of `parts`, rounded
/// through FP16 into a new `(tokens.len(), head_dim)` matrix: every
/// element is read once and written once, and a run of rows that spans two
/// parts is stitched on the way.
///
/// # Panics
///
/// Panics if the parts hold fewer than `tokens.end * head_dim` elements.
pub(crate) fn rounded_rows(parts: &[&[f32]], tokens: Range<usize>, head_dim: usize) -> Matrix {
    let wanted = tokens.start * head_dim..tokens.end * head_dim;
    let mut data = Vec::with_capacity(wanted.len());
    let mut offset = 0;
    for part in parts {
        let lo = wanted.start.clamp(offset, offset + part.len()) - offset;
        let hi = wanted.end.clamp(offset, offset + part.len()) - offset;
        data.extend(part[lo..hi].iter().map(|&x| F16::round_trip(x)));
        offset += part.len();
    }
    Matrix::from_vec(tokens.len(), head_dim, data).expect("the parts cover the requested rows")
}

/// Physical storage of a chunk's key and value tensors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChunkStorage {
    /// Both tensors kept in FP16 (values rounded through half precision).
    Fp16 {
        /// Key tensor, shape `(tokens, head_dim)`.
        k: Matrix,
        /// Value tensor, shape `(tokens, head_dim)`.
        v: Matrix,
    },
    /// Both tensors quantized to the same integer bitwidth.
    Quantized {
        /// Quantized key tensor.
        k: QuantizedMatrix,
        /// Quantized value tensor.
        v: QuantizedMatrix,
    },
}

/// The key or the value rows of one cache segment as the decode attention
/// kernel reads them: a block of whole rows at a time, quantized rows
/// reconstructed into the caller's buffer, dense rows borrowed where they
/// lie.
pub(crate) enum Rows<'a> {
    /// FP16 storage.
    Dense(&'a Matrix),
    /// Quantized storage, plus the rows of an outlier patch (KVQuant) as
    /// `(row indices, FP16 rows)`, written over the reconstructed rows.
    Quantized(&'a QuantizedMatrix, Option<(&'a [usize], &'a Matrix)>),
}

impl Rows<'_> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Rows::Dense(m) => m.rows(),
            Rows::Quantized(q, _) => q.rows(),
        }
    }

    /// Rows `[r0, r0 + buf.len() / head_dim)`, row-major; `buf` is written
    /// only by quantized storage. Each row is exactly the row of
    /// [`KvChunk::key_matrix`] / [`KvChunk::value_matrix`].
    pub(crate) fn block<'b>(&'b self, r0: usize, buf: &'b mut [f32]) -> &'b [f32] {
        match self {
            Rows::Dense(m) => &m.as_slice()[r0 * m.cols()..][..buf.len()],
            Rows::Quantized(q, patch) => {
                q.dequantize_rows_into(r0, buf);
                if let Some((rows, dense)) = patch {
                    let dim = dense.cols();
                    let block = r0..r0 + buf.len() / dim;
                    for (slot, &row) in rows.iter().enumerate() {
                        if block.contains(&row) {
                            buf[(row - r0) * dim..][..dim].copy_from_slice(dense.row(slot));
                        }
                    }
                }
                buf
            }
        }
    }
}

/// FP16 copies of a few "outlier" token rows kept alongside a quantized
/// chunk — the dense-and-sparse decomposition used by KVQuant, where ~1 %
/// of tokens retain full precision while the rest are quantized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutlierPatch {
    /// Row indices (within the chunk) stored at full precision.
    pub rows: Vec<usize>,
    /// FP16 key rows, one per entry of `rows`.
    pub k_rows: Matrix,
    /// FP16 value rows, one per entry of `rows`.
    pub v_rows: Matrix,
}

impl OutlierPatch {
    /// Bytes occupied by the patch: FP16 payload plus a 4-byte row index per
    /// outlier.
    pub fn storage_bytes(&self) -> usize {
        (self.k_rows.len() + self.v_rows.len()) * 2 + self.rows.len() * 4
    }
}

/// The KV cache of one contiguous run of context tokens for a single
/// (layer, KV-head) pair.
///
/// A chunk remembers which logical chunk index it was born as
/// ([`KvChunk::logical_index`]) so that reordering (Module II of the paper)
/// never loses the association between physical position and logical
/// position.
///
/// # Example
///
/// ```
/// use cocktail_kvcache::{ChunkSegmentation, ChunkedLayerCache};
/// use cocktail_quant::Bitwidth;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let k = cocktail_tensor::rng::gaussian_matrix(32, 16, 1.0, 1);
/// let v = cocktail_tensor::rng::gaussian_matrix(32, 16, 1.0, 2);
/// let seg = ChunkSegmentation::new(32, 32)?;
/// let cache = ChunkedLayerCache::from_prefill(&k, &v, &seg)?;
/// let chunk = &cache.chunks()[0];
/// assert_eq!(chunk.bitwidth(), Bitwidth::Fp16);
/// let quantized = chunk.clone().quantized(Bitwidth::Int2, 32)?;
/// assert!(quantized.storage_bytes() < chunk.storage_bytes());
/// assert_eq!(quantized.bitwidth(), Bitwidth::Int2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KvChunk {
    logical_index: usize,
    token_len: usize,
    head_dim: usize,
    storage: ChunkStorage,
    outliers: Option<OutlierPatch>,
}

impl KvChunk {
    /// Creates an FP16 chunk from raw (FP32) key/value tensors; the values
    /// are rounded through half precision to model FP16 storage.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::ShapeMismatch`] if `k` and `v` do not have
    /// identical shapes.
    pub(crate) fn new_fp16(
        logical_index: usize,
        k: &Matrix,
        v: &Matrix,
    ) -> Result<Self, KvCacheError> {
        if k.shape() != v.shape() {
            return Err(KvCacheError::ShapeMismatch(format!(
                "k {:?} vs v {:?}",
                k.shape(),
                v.shape()
            )));
        }
        let rounded = |m: &Matrix| rounded_rows(&[m.as_slice()], 0..m.rows(), m.cols());
        Ok(Self::from_fp16_rows(logical_index, rounded(k), rounded(v)))
    }

    /// An FP16 chunk over key/value rows already rounded through half
    /// precision, taken as they are.
    pub(crate) fn from_fp16_rows(logical_index: usize, k: Matrix, v: Matrix) -> Self {
        debug_assert_eq!(k.shape(), v.shape());
        Self {
            logical_index,
            token_len: k.rows(),
            head_dim: k.cols(),
            storage: ChunkStorage::Fp16 { k, v },
            outliers: None,
        }
    }

    /// This chunk quantized to `bitwidth` with per-token groups of
    /// `group_size` (the layout used by Atom and Cocktail).
    ///
    /// Asking for [`Bitwidth::Fp16`] returns the chunk converted back to
    /// FP16 storage (dequantizing first if necessary).
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::Quant`] if the quantization kernel rejects
    /// the configuration (e.g. zero group size).
    pub fn quantized(self, bitwidth: Bitwidth, group_size: usize) -> Result<Self, KvCacheError> {
        self.quantized_with_axis(
            bitwidth,
            QuantAxis::PerToken,
            QuantAxis::PerToken,
            group_size,
        )
    }

    /// A copy quantized with separate grouping axes for keys and values
    /// (KIVI quantizes keys per channel and values per token). FP16 rows
    /// are read where they are stored; only quantized storage (or an
    /// outlier patch) is reconstructed first.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::Quant`] if the quantization kernel rejects
    /// the configuration.
    pub(crate) fn quantized_with_axis(
        &self,
        bitwidth: Bitwidth,
        key_axis: QuantAxis,
        value_axis: QuantAxis,
        group_size: usize,
    ) -> Result<Self, KvCacheError> {
        let (k, v) = self.source_pair();
        if bitwidth.is_float() {
            return Self::new_fp16(self.logical_index, &k, &v);
        }
        let k_cfg = QuantConfig::new(bitwidth, key_axis, group_size)?;
        let v_cfg = QuantConfig::new(bitwidth, value_axis, group_size)?;
        // Dispatched, bit-identical either way: a per-token matrix of at
        // least `PARALLEL_THRESHOLD` (65,536) elements quantizes
        // row-parallel on the kernel pool when it has more than one
        // thread, anything smaller inline. A chunk's matrix holds
        // `chunk_size * head_dim` elements, so at `llama2-7b-sim`'s
        // `head_dim` of 16 only chunks of 4,096 tokens or more reach it;
        // a default 32-token chunk holds 512 and always quantizes inline.
        let kq = cocktail_quant::parallel::quantize(&k, &k_cfg)?;
        let vq = cocktail_quant::parallel::quantize(&v, &v_cfg)?;
        Ok(Self {
            logical_index: self.logical_index,
            token_len: self.token_len,
            head_dim: self.head_dim,
            storage: ChunkStorage::Quantized { k: kq, v: vq },
            outliers: None,
        })
    }

    /// Quantizes the chunk while keeping the listed token rows at FP16 in a
    /// sparse [`OutlierPatch`] — the dense-and-sparse decomposition used by
    /// the KVQuant baseline.
    ///
    /// Duplicate or out-of-range row indices are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::Quant`] if the quantization kernel rejects
    /// the configuration.
    pub(crate) fn quantized_with_outliers(
        &self,
        bitwidth: Bitwidth,
        group_size: usize,
        outlier_rows: &[usize],
    ) -> Result<Self, KvCacheError> {
        let mut chunk = self.quantized_with_axis(
            bitwidth,
            QuantAxis::PerToken,
            QuantAxis::PerToken,
            group_size,
        )?;
        let mut rows: Vec<usize> = outlier_rows
            .iter()
            .copied()
            .filter(|&r| r < chunk.token_len)
            .collect();
        rows.sort_unstable();
        rows.dedup();
        if rows.is_empty() || bitwidth.is_float() {
            return Ok(chunk);
        }
        let (k, v) = self.source_pair();
        let mut k_rows = k.gather_rows(&rows);
        let mut v_rows = v.gather_rows(&rows);
        k_rows.round_to_f16();
        v_rows.round_to_f16();
        chunk.outliers = Some(OutlierPatch {
            rows,
            k_rows,
            v_rows,
        });
        Ok(chunk)
    }

    /// Number of token rows kept at FP16 by an outlier patch (0 when there
    /// is no patch).
    pub fn outlier_count(&self) -> usize {
        self.outliers.as_ref().map_or(0, |p| p.rows.len())
    }

    /// The outlier patch, if any.
    pub fn outliers(&self) -> Option<&OutlierPatch> {
        self.outliers.as_ref()
    }

    /// The chunk's position in the *logical* (original) chunk order.
    pub fn logical_index(&self) -> usize {
        self.logical_index
    }

    /// Number of tokens stored in the chunk.
    pub fn token_len(&self) -> usize {
        self.token_len
    }

    /// Head dimension of the stored tensors.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Storage precision of the chunk.
    pub fn bitwidth(&self) -> Bitwidth {
        match &self.storage {
            ChunkStorage::Fp16 { .. } => Bitwidth::Fp16,
            ChunkStorage::Quantized { k, .. } => k.bitwidth(),
        }
    }

    /// Raw storage representation.
    pub fn storage(&self) -> &ChunkStorage {
        &self.storage
    }

    /// Reconstructed (dequantized) key tensor, with any outlier patch
    /// applied.
    pub fn key_matrix(&self) -> Matrix {
        let mut k = match &self.storage {
            ChunkStorage::Fp16 { k, .. } => k.clone(),
            ChunkStorage::Quantized { k, .. } => k.dequantize(),
        };
        if let Some(patch) = &self.outliers {
            for (slot, &row) in patch.rows.iter().enumerate() {
                k.row_mut(row).copy_from_slice(patch.k_rows.row(slot));
            }
        }
        k
    }

    /// Reconstructed (dequantized) value tensor, with any outlier patch
    /// applied.
    pub(crate) fn value_matrix(&self) -> Matrix {
        let mut v = match &self.storage {
            ChunkStorage::Fp16 { v, .. } => v.clone(),
            ChunkStorage::Quantized { v, .. } => v.dequantize(),
        };
        if let Some(patch) = &self.outliers {
            for (slot, &row) in patch.rows.iter().enumerate() {
                v.row_mut(row).copy_from_slice(patch.v_rows.row(slot));
            }
        }
        v
    }

    /// The key rows for the attention kernel, borrowed. An outlier patch
    /// only ever rides on quantized storage
    /// ([`KvChunk::quantized_with_outliers`]).
    pub(crate) fn key_rows(&self) -> Rows<'_> {
        match &self.storage {
            ChunkStorage::Fp16 { k, .. } => Rows::Dense(k),
            ChunkStorage::Quantized { k, .. } => {
                Rows::Quantized(k, self.outliers.as_ref().map(|p| (&p.rows[..], &p.k_rows)))
            }
        }
    }

    /// The value rows for the attention kernel, as [`KvChunk::key_rows`].
    pub(crate) fn value_rows(&self) -> Rows<'_> {
        match &self.storage {
            ChunkStorage::Fp16 { v, .. } => Rows::Dense(v),
            ChunkStorage::Quantized { v, .. } => {
                Rows::Quantized(v, self.outliers.as_ref().map(|p| (&p.rows[..], &p.v_rows)))
            }
        }
    }

    /// The key and value rows quantization reads: FP16 storage borrowed
    /// where it lies, anything else reconstructed as
    /// [`KvChunk::key_matrix`] / [`KvChunk::value_matrix`] return it.
    fn source_pair(&self) -> (Cow<'_, Matrix>, Cow<'_, Matrix>) {
        match (&self.storage, &self.outliers) {
            (ChunkStorage::Fp16 { k, v }, None) => (Cow::Borrowed(k), Cow::Borrowed(v)),
            _ => (
                Cow::Owned(self.key_matrix()),
                Cow::Owned(self.value_matrix()),
            ),
        }
    }

    /// The quantizer before it read FP16 rows by reference: it rebuilt both
    /// matrices from a consumed copy of the chunk first. Kept as the oracle
    /// of the by-reference path.
    #[cfg(test)]
    pub(crate) fn requantized_by_copy(
        self,
        bitwidth: Bitwidth,
        key_axis: QuantAxis,
        value_axis: QuantAxis,
        group_size: usize,
        outlier_rows: &[usize],
    ) -> Self {
        let (k, v) = (self.key_matrix(), self.value_matrix());
        if bitwidth.is_float() {
            return Self::new_fp16(self.logical_index, &k, &v).unwrap();
        }
        let k_cfg = QuantConfig::new(bitwidth, key_axis, group_size).unwrap();
        let v_cfg = QuantConfig::new(bitwidth, value_axis, group_size).unwrap();
        let mut rows: Vec<usize> = outlier_rows
            .iter()
            .copied()
            .filter(|&r| r < self.token_len)
            .collect();
        rows.sort_unstable();
        rows.dedup();
        let outliers = (!rows.is_empty()).then(|| {
            let mut k_rows = k.gather_rows(&rows);
            let mut v_rows = v.gather_rows(&rows);
            k_rows.round_to_f16();
            v_rows.round_to_f16();
            OutlierPatch {
                rows,
                k_rows,
                v_rows,
            }
        });
        Self {
            storage: ChunkStorage::Quantized {
                k: QuantizedMatrix::quantize(&k, &k_cfg).unwrap(),
                v: QuantizedMatrix::quantize(&v, &v_cfg).unwrap(),
            },
            outliers,
            ..self
        }
    }

    /// Exact storage footprint in bytes (payload plus quantization
    /// parameters for quantized chunks; two bytes per element for FP16).
    pub fn storage_bytes(&self) -> usize {
        let base = match &self.storage {
            ChunkStorage::Fp16 { k, v } => (k.len() + v.len()) * 2,
            ChunkStorage::Quantized { k, v } => k.storage_bytes() + v.storage_bytes(),
        };
        base + self
            .outliers
            .as_ref()
            .map_or(0, OutlierPatch::storage_bytes)
    }

    /// Storage the chunk would need if kept entirely in FP16.
    pub fn fp16_reference_bytes(&self) -> usize {
        2 * self.token_len * self.head_dim * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_tensor::rng;

    fn sample_chunk(tokens: usize, dim: usize, idx: usize) -> KvChunk {
        let k = rng::gaussian_matrix(tokens, dim, 1.0, idx as u64 * 2 + 1);
        let v = rng::gaussian_matrix(tokens, dim, 1.0, idx as u64 * 2 + 2);
        KvChunk::new_fp16(idx, &k, &v).unwrap()
    }

    #[test]
    fn fp16_chunk_reports_fp16_bitwidth_and_bytes() {
        let chunk = sample_chunk(32, 16, 0);
        assert_eq!(chunk.bitwidth(), Bitwidth::Fp16);
        assert_eq!(chunk.storage_bytes(), 2 * 32 * 16 * 2);
        assert_eq!(chunk.storage_bytes(), chunk.fp16_reference_bytes());
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let k = Matrix::zeros(4, 8);
        let v = Matrix::zeros(4, 9);
        assert!(KvChunk::new_fp16(0, &k, &v).is_err());
    }

    #[test]
    fn quantization_shrinks_storage_monotonically() {
        let chunk = sample_chunk(32, 64, 1);
        let int8 = chunk.clone().quantized(Bitwidth::Int8, 32).unwrap();
        let int4 = chunk.clone().quantized(Bitwidth::Int4, 32).unwrap();
        let int2 = chunk.clone().quantized(Bitwidth::Int2, 32).unwrap();
        assert!(int8.storage_bytes() < chunk.storage_bytes());
        assert!(int4.storage_bytes() < int8.storage_bytes());
        assert!(int2.storage_bytes() < int4.storage_bytes());
    }

    #[test]
    fn quantize_to_fp16_round_trips_storage() {
        let chunk = sample_chunk(16, 16, 2);
        let same = chunk.clone().quantized(Bitwidth::Fp16, 32).unwrap();
        assert_eq!(same.bitwidth(), Bitwidth::Fp16);
        assert_eq!(same.key_matrix(), chunk.key_matrix());
        assert_eq!(same.value_matrix(), chunk.value_matrix());
    }

    #[test]
    fn reconstruction_error_increases_with_compression() {
        let chunk = sample_chunk(32, 64, 3);
        let reference_k = chunk.key_matrix();
        let e4 = chunk
            .clone()
            .quantized(Bitwidth::Int4, 32)
            .unwrap()
            .key_matrix()
            .mse(&reference_k)
            .unwrap();
        let e2 = chunk
            .clone()
            .quantized(Bitwidth::Int2, 32)
            .unwrap()
            .key_matrix()
            .mse(&reference_k)
            .unwrap();
        assert!(e4 < e2, "int4 mse {e4} should be below int2 mse {e2}");
    }

    #[test]
    fn logical_index_survives_quantization() {
        let chunk = sample_chunk(8, 8, 7);
        let q = chunk.quantized(Bitwidth::Int2, 8).unwrap();
        assert_eq!(q.logical_index(), 7);
        assert_eq!(q.token_len(), 8);
        assert_eq!(q.head_dim(), 8);
    }

    #[test]
    fn per_channel_key_axis_is_supported() {
        let chunk = sample_chunk(32, 16, 4);
        let kivi_style = chunk
            .quantized_with_axis(
                Bitwidth::Int4,
                QuantAxis::PerChannel,
                QuantAxis::PerToken,
                32,
            )
            .unwrap();
        assert_eq!(kivi_style.bitwidth(), Bitwidth::Int4);
        assert_eq!(kivi_style.key_matrix().shape(), (32, 16));
    }

    #[test]
    fn outlier_rows_are_restored_exactly() {
        let chunk = sample_chunk(32, 16, 5);
        let reference_k = chunk.key_matrix();
        let reference_v = chunk.value_matrix();
        let q = chunk
            .clone()
            .quantized_with_outliers(Bitwidth::Int2, 16, &[3, 17])
            .unwrap();
        assert_eq!(q.outlier_count(), 2);
        let k = q.key_matrix();
        let v = q.value_matrix();
        // Outlier rows match the FP16 reference exactly.
        assert_eq!(k.row(3), reference_k.row(3));
        assert_eq!(k.row(17), reference_k.row(17));
        assert_eq!(v.row(3), reference_v.row(3));
        // Non-outlier rows carry INT2 quantization error.
        let err: f32 = k
            .row(4)
            .iter()
            .zip(reference_k.row(4))
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(err > 0.0);
    }

    #[test]
    fn outlier_patch_increases_storage_slightly() {
        let chunk = sample_chunk(32, 16, 6);
        let plain = chunk.clone().quantized(Bitwidth::Int4, 16).unwrap();
        let patched = chunk
            .clone()
            .quantized_with_outliers(Bitwidth::Int4, 16, &[0])
            .unwrap();
        assert!(patched.storage_bytes() > plain.storage_bytes());
        assert!(patched.storage_bytes() < chunk.storage_bytes());
    }

    #[test]
    fn outlier_indices_are_deduplicated_and_bounded() {
        let chunk = sample_chunk(8, 8, 7);
        let q = chunk
            .quantized_with_outliers(Bitwidth::Int4, 8, &[1, 1, 99, 2])
            .unwrap();
        assert_eq!(q.outlier_count(), 2);
        assert_eq!(q.outliers().unwrap().rows, vec![1, 2]);
    }

    #[test]
    fn empty_outlier_list_is_plain_quantization() {
        let chunk = sample_chunk(8, 8, 8);
        let q = chunk
            .quantized_with_outliers(Bitwidth::Int4, 8, &[])
            .unwrap();
        assert_eq!(q.outlier_count(), 0);
        assert!(q.outliers().is_none());
    }

    #[test]
    fn empty_chunk_is_representable() {
        let k = Matrix::zeros(0, 16);
        let v = Matrix::zeros(0, 16);
        let chunk = KvChunk::new_fp16(0, &k, &v).unwrap();
        assert_eq!(chunk.token_len(), 0);
        assert_eq!(chunk.storage_bytes(), 0);
        let q = chunk.quantized(Bitwidth::Int2, 32).unwrap();
        assert_eq!(q.key_matrix().shape(), (0, 16));
    }
}
