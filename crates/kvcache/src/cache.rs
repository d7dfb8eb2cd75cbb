//! Per-layer and whole-model chunked KV caches, with the streaming
//! decode-time attention kernel over mixed-precision chunks (the paper's
//! Algorithm 1).

use crate::chunk::{KvChunk, Rows};
use crate::error::KvCacheError;
use crate::permutation::ChunkPermutation;
use crate::segmentation::ChunkSegmentation;
use cocktail_quant::{gemm, Bitwidth, QuantAxis};
use cocktail_tensor::ops::softmax_in_place;
use cocktail_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// The KV cache of a single (layer, KV-head) pair, segmented into context
/// chunks plus an FP16 remainder and an FP16 decode tail.
///
/// The cache always remembers the original [`ChunkSegmentation`] and the
/// permutation currently applied to its chunks, so the logical token order
/// can be reconstructed at any time.
///
/// # Example
///
/// ```
/// use cocktail_kvcache::{ChunkSegmentation, ChunkedLayerCache};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let k = cocktail_tensor::rng::gaussian_matrix(64, 8, 1.0, 1);
/// let v = cocktail_tensor::rng::gaussian_matrix(64, 8, 1.0, 2);
/// let seg = ChunkSegmentation::new(64, 16)?;
/// let cache = ChunkedLayerCache::from_prefill(&k, &v, &seg)?;
/// assert_eq!(cache.chunk_count(), 4);
/// assert_eq!(cache.total_tokens(), 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkedLayerCache {
    head_dim: usize,
    segmentation: ChunkSegmentation,
    chunks: Vec<KvChunk>,
    permutation: ChunkPermutation,
    remainder_k: Matrix,
    remainder_v: Matrix,
    tail_k: Matrix,
    tail_v: Matrix,
}

impl ChunkedLayerCache {
    /// Builds the cache from the prefill-phase key/value tensors of the
    /// context (`(context_len, head_dim)` each), splitting them according
    /// to `segmentation`. All chunks start in FP16.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::ShapeMismatch`] if `k` and `v` differ in
    /// shape or do not cover `segmentation.context_len()` tokens.
    pub fn from_prefill(
        k: &Matrix,
        v: &Matrix,
        segmentation: &ChunkSegmentation,
    ) -> Result<Self, KvCacheError> {
        if k.shape() != v.shape() {
            return Err(KvCacheError::ShapeMismatch(format!(
                "k {:?} vs v {:?}",
                k.shape(),
                v.shape()
            )));
        }
        if k.rows() != segmentation.context_len() {
            return Err(KvCacheError::ShapeMismatch(format!(
                "prefill has {} tokens but segmentation covers {}",
                k.rows(),
                segmentation.context_len()
            )));
        }
        let head_dim = k.cols();
        let mut chunks = Vec::with_capacity(segmentation.chunk_count());
        for (i, range) in segmentation.iter_ranges().enumerate() {
            let kc = k.slice_rows(range.start, range.end);
            let vc = v.slice_rows(range.start, range.end);
            chunks.push(KvChunk::new_fp16(i, &kc, &vc)?);
        }
        let rem = segmentation.remainder_range();
        let mut remainder_k = k.slice_rows(rem.start, rem.end);
        let mut remainder_v = v.slice_rows(rem.start, rem.end);
        remainder_k.round_to_f16();
        remainder_v.round_to_f16();
        Ok(Self {
            head_dim,
            segmentation: *segmentation,
            permutation: ChunkPermutation::identity(chunks.len()),
            chunks,
            remainder_k,
            remainder_v,
            tail_k: Matrix::zeros(0, head_dim),
            tail_v: Matrix::zeros(0, head_dim),
        })
    }

    /// Head dimension of the cached tensors.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// The segmentation the cache was built with.
    pub fn segmentation(&self) -> &ChunkSegmentation {
        &self.segmentation
    }

    /// Number of context chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The chunks in their current *physical* order.
    pub fn chunks(&self) -> &[KvChunk] {
        &self.chunks
    }

    /// The permutation currently applied to the chunks
    /// (`physical position → logical index`).
    pub fn permutation(&self) -> &ChunkPermutation {
        &self.permutation
    }

    /// Number of decode-phase tokens appended so far.
    pub fn tail_len(&self) -> usize {
        self.tail_k.rows()
    }

    /// Number of FP16 remainder tokens (context tail that did not fill a
    /// chunk).
    pub fn remainder_len(&self) -> usize {
        self.remainder_k.rows()
    }

    /// Total number of cached tokens (chunks + remainder + decode tail).
    pub fn total_tokens(&self) -> usize {
        self.segmentation.chunk_count() * self.segmentation.chunk_size()
            + self.remainder_len()
            + self.tail_len()
    }

    /// Quantizes chunk `physical_index` (in current physical order) to the
    /// given bitwidth with per-token groups.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::ChunkIndexOutOfRange`] for a bad index or a
    /// quantization error from the kernel.
    pub fn quantize_chunk(
        &mut self,
        physical_index: usize,
        bitwidth: Bitwidth,
        group_size: usize,
    ) -> Result<(), KvCacheError> {
        self.quantize_chunk_with_axis(
            physical_index,
            bitwidth,
            QuantAxis::PerToken,
            QuantAxis::PerToken,
            group_size,
        )
    }

    /// Quantizes chunk `physical_index` with explicit key/value grouping
    /// axes (used by the KIVI baseline).
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::ChunkIndexOutOfRange`] for a bad index or a
    /// quantization error from the kernel.
    pub fn quantize_chunk_with_axis(
        &mut self,
        physical_index: usize,
        bitwidth: Bitwidth,
        key_axis: QuantAxis,
        value_axis: QuantAxis,
        group_size: usize,
    ) -> Result<(), KvCacheError> {
        let len = self.chunks.len();
        if physical_index >= len {
            return Err(KvCacheError::ChunkIndexOutOfRange {
                index: physical_index,
                len,
            });
        }
        let chunk = self.chunks[physical_index].clone();
        self.chunks[physical_index] =
            chunk.quantized_with_axis(bitwidth, key_axis, value_axis, group_size)?;
        Ok(())
    }

    /// Quantizes chunk `physical_index` while keeping the listed token rows
    /// (indices within the chunk) at FP16 in a sparse outlier patch — the
    /// KVQuant-style dense-and-sparse decomposition.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::ChunkIndexOutOfRange`] for a bad index or a
    /// quantization error from the kernel.
    pub fn quantize_chunk_with_outliers(
        &mut self,
        physical_index: usize,
        bitwidth: Bitwidth,
        group_size: usize,
        outlier_rows: &[usize],
    ) -> Result<(), KvCacheError> {
        let len = self.chunks.len();
        if physical_index >= len {
            return Err(KvCacheError::ChunkIndexOutOfRange {
                index: physical_index,
                len,
            });
        }
        let chunk = self.chunks[physical_index].clone();
        self.chunks[physical_index] =
            chunk.quantized_with_outliers(bitwidth, group_size, outlier_rows)?;
        Ok(())
    }

    /// Quantizes every chunk to the same bitwidth (uniform baselines).
    ///
    /// # Errors
    ///
    /// Propagates the first quantization error encountered.
    pub fn quantize_all(
        &mut self,
        bitwidth: Bitwidth,
        key_axis: QuantAxis,
        value_axis: QuantAxis,
        group_size: usize,
    ) -> Result<(), KvCacheError> {
        for i in 0..self.chunks.len() {
            self.quantize_chunk_with_axis(i, bitwidth, key_axis, value_axis, group_size)?;
        }
        Ok(())
    }

    /// Reorders the chunks according to `permutation`
    /// (`new physical position → current physical position`).
    ///
    /// The stored permutation is updated so it always maps
    /// *current physical position → logical chunk index*.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::InvalidPermutation`] if the length does not
    /// match the chunk count.
    pub fn reorder(&mut self, permutation: &ChunkPermutation) -> Result<(), KvCacheError> {
        if permutation.len() != self.chunks.len() {
            return Err(KvCacheError::InvalidPermutation(format!(
                "permutation of {} chunks applied to cache with {}",
                permutation.len(),
                self.chunks.len()
            )));
        }
        self.chunks = permutation.apply(&self.chunks);
        let combined: Vec<usize> = (0..self.chunks.len())
            .map(|new_pos| self.chunks[new_pos].logical_index())
            .collect();
        self.permutation =
            ChunkPermutation::new(combined).expect("composition of permutations is a permutation");
        Ok(())
    }

    /// Restores the original (logical) chunk order.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for symmetry with
    /// [`ChunkedLayerCache::reorder`].
    pub fn restore_logical_order(&mut self) -> Result<(), KvCacheError> {
        let inverse = self.permutation.inverse();
        self.reorder(&inverse)
    }

    /// Appends the key/value vectors of one decode-phase output token. The
    /// paper keeps these in FP16.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::ShapeMismatch`] if the vectors do not have
    /// `head_dim` elements.
    pub fn append_decode_token(
        &mut self,
        k_row: &[f32],
        v_row: &[f32],
    ) -> Result<(), KvCacheError> {
        if k_row.len() != self.head_dim || v_row.len() != self.head_dim {
            return Err(KvCacheError::ShapeMismatch(format!(
                "decode token dim {} / {} vs head_dim {}",
                k_row.len(),
                v_row.len(),
                self.head_dim
            )));
        }
        for (tail, row) in [(&mut self.tail_k, k_row), (&mut self.tail_v, v_row)] {
            tail.push_row(row)?;
            let last = tail.rows() - 1;
            cocktail_tensor::ops::round_to_f16(tail.row_mut(last));
        }
        Ok(())
    }

    /// Exact storage footprint of the cache in bytes.
    pub fn storage_bytes(&self) -> usize {
        let chunk_bytes: usize = self.chunks.iter().map(KvChunk::storage_bytes).sum();
        let fp16_bytes = (self.remainder_k.len()
            + self.remainder_v.len()
            + self.tail_k.len()
            + self.tail_v.len())
            * 2;
        chunk_bytes + fp16_bytes
    }

    /// Storage footprint if every token were kept in FP16.
    pub fn fp16_reference_bytes(&self) -> usize {
        2 * self.total_tokens() * self.head_dim * 2
    }

    /// Concatenated (dequantized) key matrix in the current physical order:
    /// chunks, then remainder, then decode tail.
    pub fn full_key_matrix(&self) -> Matrix {
        let chunk_ks: Vec<Matrix> = self.chunks.iter().map(KvChunk::key_matrix).collect();
        let mut parts: Vec<&Matrix> = chunk_ks.iter().collect();
        parts.push(&self.remainder_k);
        parts.push(&self.tail_k);
        Matrix::concat_rows(&parts).expect("head dims are identical")
    }

    /// Concatenated (dequantized) value matrix in the current physical
    /// order.
    pub fn full_value_matrix(&self) -> Matrix {
        let chunk_vs: Vec<Matrix> = self.chunks.iter().map(KvChunk::value_matrix).collect();
        let mut parts: Vec<&Matrix> = chunk_vs.iter().collect();
        parts.push(&self.remainder_v);
        parts.push(&self.tail_v);
        Matrix::concat_rows(&parts).expect("head dims are identical")
    }

    /// One side (keys or values) of the cache's segments in physical order:
    /// every chunk, then the FP16 remainder, then the decode tail.
    fn segments<'a>(
        &'a self,
        chunk_rows: fn(&'a KvChunk) -> Rows<'a>,
        remainder: &'a Matrix,
        tail: &'a Matrix,
    ) -> impl Iterator<Item = Rows<'a>> {
        self.chunks
            .iter()
            .map(chunk_rows)
            .chain([remainder, tail].map(|m| Rows::Dense(Cow::Borrowed(m))))
    }

    /// Decode-phase attention of `queries` (shape `(m, head_dim)`) over the
    /// whole cache: `softmax(scale · Q·Kᵀ) · V` in the cache's physical
    /// token order. No causal mask is applied: during decode every cached
    /// token is visible to the query, exactly as in Algorithm 1 of the
    /// paper.
    ///
    /// This is the paper's block-wise kernel and the only decode attention
    /// in the workspace. It streams: the segments are walked in physical
    /// order (after Module II's reorder the chunks are Algorithm 1's at most
    /// three same-bitwidth runs; the FP16 remainder and the decode tail
    /// follow), a quantized row is reconstructed into one reusable
    /// `head_dim` buffer and an FP16 row is read where it lies. The call
    /// allocates that buffer, one `(m, tokens)` score block, one
    /// `(m, head_dim)` partial and the output — nothing per chunk, and no
    /// score, probability or dequantized matrix. Only an outlier-patched
    /// chunk (the KVQuant baseline) is first copied out dense.
    ///
    /// # Operation order
    ///
    /// Every output bit equals that of the materialised path it replaced
    /// (per segment `matmul_transposed` / `fp_matmul_quant_transposed`,
    /// `concat_cols`, `scale_in_place`, `softmax_rows`, then per segment
    /// `slice_cols` + `matmul` / `fp_matmul_quant` + `add_assign`), kept as
    /// the test reference of this module, because each element goes through
    /// the same `f32` operations in the same order:
    ///
    /// 1. `s[j] = dot(q, k[j]) * scale` for every key row `j` in physical
    ///    order, [`gemm::dot`] being one sequential chain from `0.0` over
    ///    ascending dimensions;
    /// 2. `max` folded from `-inf` with `f32::max` over ascending `j`;
    ///    `p[j] = exp(s[j] - max)` and `sum += p[j]` left to right from
    ///    `0.0`; `p[j] /= sum` if `sum > 0.0` ([`softmax_in_place`]);
    /// 3. per non-empty segment a partial starts at `0.0` and takes
    ///    [`gemm::axpy`]`(partial, p[j], v[j])` over the segment's ascending
    ///    `j`, skipping `p[j] == 0.0`; then `out += partial`, segments in
    ///    physical order.
    ///
    /// Query rows are independent; a key or value row is reconstructed once
    /// and used for all of them.
    ///
    /// # Errors
    ///
    /// Returns an error if the query head dimension does not match.
    pub fn attend(&self, queries: &Matrix, scale: f32) -> Result<Matrix, KvCacheError> {
        if queries.cols() != self.head_dim {
            return Err(KvCacheError::ShapeMismatch(format!(
                "query dim {} vs head_dim {}",
                queries.cols(),
                self.head_dim
            )));
        }
        let (m, dim) = queries.shape();
        let tokens = self.total_tokens();
        let mut output = Matrix::zeros(m, dim);
        if tokens == 0 {
            return Ok(output);
        }
        let mut row_buf = vec![0.0f32; dim];
        let mut scores = vec![0.0f32; m * tokens];

        let mut col = 0;
        for keys in self.segments(KvChunk::key_rows, &self.remainder_k, &self.tail_k) {
            for r in 0..keys.len() {
                let key = keys.row(r, &mut row_buf);
                for i in 0..m {
                    scores[i * tokens + col] = gemm::dot(queries.row(i), key) * scale;
                }
                col += 1;
            }
        }
        debug_assert_eq!(col, tokens, "segments cover total_tokens()");
        for row in scores.chunks_exact_mut(tokens) {
            softmax_in_place(row);
        }

        let mut partial = vec![0.0f32; m * dim];
        let mut col = 0;
        for values in self.segments(KvChunk::value_rows, &self.remainder_v, &self.tail_v) {
            if values.len() == 0 {
                continue;
            }
            partial.fill(0.0);
            for r in 0..values.len() {
                let value = values.row(r, &mut row_buf);
                for i in 0..m {
                    let weight = scores[i * tokens + col];
                    if weight != 0.0 {
                        gemm::axpy(&mut partial[i * dim..(i + 1) * dim], weight, value);
                    }
                }
                col += 1;
            }
            for (out, part) in output.as_mut_slice().iter_mut().zip(&partial) {
                *out += part;
            }
        }
        Ok(output)
    }
}

/// The chunked KV cache of an entire model: one [`ChunkedLayerCache`] per
/// (layer, KV-head) pair.
///
/// # Example
///
/// ```
/// use cocktail_kvcache::{ChunkSegmentation, ChunkedKvCache, ChunkedLayerCache};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let seg = ChunkSegmentation::new(32, 16)?;
/// let mut cache = ChunkedKvCache::new(2, 1);
/// for layer in 0..2 {
///     let k = cocktail_tensor::rng::gaussian_matrix(32, 8, 1.0, layer as u64);
///     let v = cocktail_tensor::rng::gaussian_matrix(32, 8, 1.0, 100 + layer as u64);
///     cache.set(layer, 0, ChunkedLayerCache::from_prefill(&k, &v, &seg)?);
/// }
/// assert!(cache.total_storage_bytes() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkedKvCache {
    layers: usize,
    kv_heads: usize,
    entries: Vec<Option<ChunkedLayerCache>>,
}

impl ChunkedKvCache {
    /// Creates an empty cache with slots for `layers × kv_heads` entries.
    pub fn new(layers: usize, kv_heads: usize) -> Self {
        Self {
            layers,
            kv_heads,
            entries: vec![None; layers * kv_heads],
        }
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Number of KV heads per layer.
    pub fn kv_heads(&self) -> usize {
        self.kv_heads
    }

    fn index(&self, layer: usize, head: usize) -> usize {
        assert!(
            layer < self.layers && head < self.kv_heads,
            "cache slot out of range"
        );
        layer * self.kv_heads + head
    }

    /// Stores the cache for one (layer, head) slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot indices are out of range.
    pub fn set(&mut self, layer: usize, head: usize, cache: ChunkedLayerCache) {
        let idx = self.index(layer, head);
        self.entries[idx] = Some(cache);
    }

    /// Returns the cache for one (layer, head) slot, if populated.
    ///
    /// # Panics
    ///
    /// Panics if the slot indices are out of range.
    pub fn get(&self, layer: usize, head: usize) -> Option<&ChunkedLayerCache> {
        self.entries[self.index(layer, head)].as_ref()
    }

    /// Mutable access to one (layer, head) slot, if populated.
    ///
    /// # Panics
    ///
    /// Panics if the slot indices are out of range.
    pub fn get_mut(&mut self, layer: usize, head: usize) -> Option<&mut ChunkedLayerCache> {
        let idx = self.index(layer, head);
        self.entries[idx].as_mut()
    }

    /// Iterator over all populated slots as `(layer, head, cache)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &ChunkedLayerCache)> {
        self.entries.iter().enumerate().filter_map(move |(i, e)| {
            e.as_ref()
                .map(|c| (i / self.kv_heads, i % self.kv_heads, c))
        })
    }

    /// Applies a closure to every populated slot.
    ///
    /// # Errors
    ///
    /// Propagates the first error returned by the closure.
    pub fn try_for_each_mut<F>(&mut self, mut f: F) -> Result<(), KvCacheError>
    where
        F: FnMut(usize, usize, &mut ChunkedLayerCache) -> Result<(), KvCacheError>,
    {
        let kv_heads = self.kv_heads;
        for (i, entry) in self.entries.iter_mut().enumerate() {
            if let Some(cache) = entry.as_mut() {
                f(i / kv_heads, i % kv_heads, cache)?;
            }
        }
        Ok(())
    }

    /// Total storage footprint over all populated slots, in bytes.
    pub fn total_storage_bytes(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .map(ChunkedLayerCache::storage_bytes)
            .sum()
    }

    /// Total FP16 reference footprint over all populated slots, in bytes.
    pub fn total_fp16_reference_bytes(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .map(ChunkedLayerCache::fp16_reference_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkStorage;
    use cocktail_quant::parallel;
    use cocktail_tensor::rng;
    use proptest::prelude::*;

    /// The materialised decode attention `attend` replaced, kept verbatim as
    /// the bit-exact reference: a score matrix per segment, `concat_cols`,
    /// `softmax_rows`, then per segment `slice_cols` + a GEMM into a fresh
    /// partial + `add_assign`. Returns `(output, probabilities)`.
    fn attend_materialised(
        cache: &ChunkedLayerCache,
        queries: &Matrix,
        scale: f32,
    ) -> (Matrix, Matrix) {
        let mut score_blocks: Vec<Matrix> = Vec::with_capacity(cache.chunks.len() + 2);
        let mut segment_lengths = Vec::with_capacity(cache.chunks.len() + 2);
        for chunk in &cache.chunks {
            let scores = if chunk.outlier_count() > 0 {
                queries.matmul_transposed(&chunk.key_matrix()).unwrap()
            } else {
                match chunk.storage() {
                    ChunkStorage::Fp16 { k, .. } => queries.matmul_transposed(k).unwrap(),
                    ChunkStorage::Quantized { k, .. } => {
                        parallel::fp_matmul_quant_transposed(queries, k).unwrap()
                    }
                }
            };
            segment_lengths.push(chunk.token_len());
            score_blocks.push(scores);
        }
        score_blocks.push(queries.matmul_transposed(&cache.remainder_k).unwrap());
        segment_lengths.push(cache.remainder_len());
        score_blocks.push(queries.matmul_transposed(&cache.tail_k).unwrap());
        segment_lengths.push(cache.tail_len());

        let refs: Vec<&Matrix> = score_blocks.iter().collect();
        let mut scores = Matrix::concat_cols(&refs).unwrap();
        scores.scale_in_place(scale);
        scores.softmax_rows();

        let mut output = Matrix::zeros(queries.rows(), cache.head_dim);
        let mut col = 0usize;
        for (i, chunk) in cache.chunks.iter().enumerate() {
            let len = segment_lengths[i];
            if len == 0 {
                continue;
            }
            let probs = scores.slice_cols(col, col + len);
            let partial = if chunk.outlier_count() > 0 {
                probs.matmul(&chunk.value_matrix()).unwrap()
            } else {
                match chunk.storage() {
                    ChunkStorage::Fp16 { v, .. } => probs.matmul(v).unwrap(),
                    ChunkStorage::Quantized { v, .. } => {
                        parallel::fp_matmul_quant(&probs, v).unwrap()
                    }
                }
            };
            output.add_assign(&partial).unwrap();
            col += len;
        }
        if cache.remainder_len() > 0 {
            let probs = scores.slice_cols(col, col + cache.remainder_len());
            output
                .add_assign(&probs.matmul(&cache.remainder_v).unwrap())
                .unwrap();
            col += cache.remainder_len();
        }
        if cache.tail_len() > 0 {
            let probs = scores.slice_cols(col, col + cache.tail_len());
            output
                .add_assign(&probs.matmul(&cache.tail_v).unwrap())
                .unwrap();
        }
        (output, scores)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Rewrites `cache` into storage mix `mix`: 0 all-FP16; 1–3 uniform
    /// INT8 / INT4 / INT2 per token; 4 keys per channel, values per token
    /// (KIVI); 5 bitwidths interleaved chunk by chunk; 6 the same grouped
    /// into runs by a reorder; 7 INT2 with an FP16 outlier patch per chunk.
    fn apply_mix(cache: &mut ChunkedLayerCache, mix: usize, group: usize) {
        const CYCLE: [Bitwidth; 4] = [
            Bitwidth::Int2,
            Bitwidth::Fp16,
            Bitwidth::Int4,
            Bitwidth::Int8,
        ];
        let per_token = QuantAxis::PerToken;
        match mix {
            0 => {}
            1..=3 => {
                let bitwidth = [Bitwidth::Int8, Bitwidth::Int4, Bitwidth::Int2][mix - 1];
                cache
                    .quantize_all(bitwidth, per_token, per_token, group)
                    .unwrap();
            }
            4 => cache
                .quantize_all(Bitwidth::Int4, QuantAxis::PerChannel, per_token, group)
                .unwrap(),
            5 | 6 => {
                let widths: Vec<Bitwidth> =
                    (0..cache.chunk_count()).map(|i| CYCLE[i % 4]).collect();
                for (i, &bitwidth) in widths.iter().enumerate() {
                    cache.quantize_chunk(i, bitwidth, group).unwrap();
                }
                if mix == 6 {
                    let keys: Vec<u32> = widths.iter().map(|b| b.bits()).collect();
                    cache
                        .reorder(&ChunkPermutation::stable_sort_by_key(&keys))
                        .unwrap();
                }
            }
            _ => {
                let last = cache.segmentation.chunk_size() - 1;
                for i in 0..cache.chunk_count() {
                    cache
                        .quantize_chunk_with_outliers(i, Bitwidth::Int2, group, &[1, last])
                        .unwrap();
                }
            }
        }
    }

    fn build_cache(tokens: usize, dim: usize, chunk: usize, seed: u64) -> ChunkedLayerCache {
        let k = rng::gaussian_matrix(tokens, dim, 1.0, seed);
        let v = rng::gaussian_matrix(tokens, dim, 1.0, seed + 1);
        let seg = ChunkSegmentation::new(tokens, chunk).unwrap();
        ChunkedLayerCache::from_prefill(&k, &v, &seg).unwrap()
    }

    #[test]
    fn from_prefill_splits_into_chunks_and_remainder() {
        let cache = build_cache(70, 8, 16, 1);
        assert_eq!(cache.chunk_count(), 4);
        assert_eq!(cache.remainder_len(), 6);
        assert_eq!(cache.total_tokens(), 70);
        assert_eq!(cache.tail_len(), 0);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let k = Matrix::zeros(10, 8);
        let v = Matrix::zeros(10, 9);
        let seg = ChunkSegmentation::new(10, 4).unwrap();
        assert!(ChunkedLayerCache::from_prefill(&k, &v, &seg).is_err());
        let v2 = Matrix::zeros(12, 8);
        assert!(ChunkedLayerCache::from_prefill(&k, &v2, &seg).is_err());
    }

    #[test]
    fn quantize_chunk_reduces_storage() {
        let mut cache = build_cache(64, 16, 16, 2);
        let before = cache.storage_bytes();
        cache.quantize_chunk(0, Bitwidth::Int2, 16).unwrap();
        cache.quantize_chunk(1, Bitwidth::Int4, 16).unwrap();
        assert!(cache.storage_bytes() < before);
        assert_eq!(cache.chunks()[0].bitwidth(), Bitwidth::Int2);
        assert_eq!(cache.chunks()[1].bitwidth(), Bitwidth::Int4);
        assert_eq!(cache.chunks()[2].bitwidth(), Bitwidth::Fp16);
    }

    #[test]
    fn quantize_and_attend_are_bit_identical_across_kernel_thread_counts() {
        // A context large enough that the quantize dispatcher's threshold
        // trips (512-token chunks × 128 dims), quantized under kernel-thread
        // overrides of 1 (scalar) and 4 (tiled): every stored bit must
        // match. `attend` never forks, so equal storage is equal attention.
        let build = || {
            let mut cache = build_cache(1100, 128, 512, 21);
            cache.quantize_chunk(0, Bitwidth::Int4, 32).unwrap();
            cache.quantize_chunk(1, Bitwidth::Int2, 32).unwrap();
            cache
        };
        parallel::set_kernel_thread_override(Some(1));
        let scalar_cache = build();
        parallel::set_kernel_thread_override(Some(4));
        let tiled_cache = build();
        parallel::set_kernel_thread_override(None);

        assert_eq!(scalar_cache, tiled_cache);
        let q = rng::gaussian_matrix(4, 128, 1.0, 77);
        let scale = 1.0 / (128f32).sqrt();
        assert_eq!(
            bits(&scalar_cache.attend(&q, scale).unwrap()),
            bits(&tiled_cache.attend(&q, scale).unwrap())
        );
    }

    #[test]
    fn quantize_chunk_out_of_range_is_error() {
        let mut cache = build_cache(32, 8, 16, 3);
        assert!(matches!(
            cache.quantize_chunk(5, Bitwidth::Int4, 16),
            Err(KvCacheError::ChunkIndexOutOfRange { index: 5, len: 2 })
        ));
    }

    #[test]
    fn reorder_tracks_logical_indices() {
        let mut cache = build_cache(64, 8, 16, 4);
        let perm = ChunkPermutation::new(vec![2, 0, 3, 1]).unwrap();
        cache.reorder(&perm).unwrap();
        let logical: Vec<usize> = cache.chunks().iter().map(|c| c.logical_index()).collect();
        assert_eq!(logical, vec![2, 0, 3, 1]);
        cache.restore_logical_order().unwrap();
        let logical: Vec<usize> = cache.chunks().iter().map(|c| c.logical_index()).collect();
        assert_eq!(logical, vec![0, 1, 2, 3]);
        assert!(cache.permutation().is_identity());
    }

    #[test]
    fn double_reorder_composes() {
        let mut cache = build_cache(48, 8, 16, 5);
        cache
            .reorder(&ChunkPermutation::new(vec![1, 2, 0]).unwrap())
            .unwrap();
        cache
            .reorder(&ChunkPermutation::new(vec![2, 1, 0]).unwrap())
            .unwrap();
        let logical: Vec<usize> = cache.chunks().iter().map(|c| c.logical_index()).collect();
        // First reorder: [1,2,0]; second picks physical [2,1,0] of that = [0,2,1].
        assert_eq!(logical, vec![0, 2, 1]);
        cache.restore_logical_order().unwrap();
        let logical: Vec<usize> = cache.chunks().iter().map(|c| c.logical_index()).collect();
        assert_eq!(logical, vec![0, 1, 2]);
    }

    #[test]
    fn append_decode_token_grows_tail() {
        let mut cache = build_cache(32, 4, 16, 6);
        cache
            .append_decode_token(&[1.0, 2.0, 3.0, 4.0], &[0.5, 0.5, 0.5, 0.5])
            .unwrap();
        cache
            .append_decode_token(&[0.0, 0.0, 1.0, 0.0], &[1.0, 0.0, 0.0, 0.0])
            .unwrap();
        assert_eq!(cache.tail_len(), 2);
        assert_eq!(cache.total_tokens(), 34);
        assert!(cache.append_decode_token(&[1.0, 2.0], &[0.5, 0.5]).is_err());
    }

    #[test]
    fn append_decode_token_stores_fp16_rounded_rows_in_order() {
        let mut cache = build_cache(32, 4, 16, 6);
        let rows = [[0.1f32, -2.3, 1e-9, 70000.0], [3.3, 0.0, -0.7, 5.5]];
        let mut expected = Matrix::zeros(0, 4);
        for row in &rows {
            cache.append_decode_token(row, row).unwrap();
            let mut rounded = Matrix::from_vec(1, 4, row.to_vec()).unwrap();
            rounded.round_to_f16();
            expected = Matrix::concat_rows(&[&expected, &rounded]).unwrap();
            assert_eq!((&cache.tail_k, &cache.tail_v), (&expected, &expected));
        }
    }

    #[test]
    fn remainder_and_tail_are_the_trailing_rows_of_the_full_matrices() {
        let mut cache = build_cache(70, 8, 16, 13);
        cache.quantize_chunk(1, Bitwidth::Int4, 8).unwrap();
        cache.append_decode_token(&[0.25; 8], &[0.5; 8]).unwrap();
        let chunk_tokens = 64;
        let (rem_k, rem_v) = (&cache.remainder_k, &cache.remainder_v);
        let (tail_k, tail_v) = (&cache.tail_k, &cache.tail_v);
        let full_k = cache.full_key_matrix();
        let full_v = cache.full_value_matrix();
        assert_eq!(
            Matrix::concat_rows(&[rem_k, tail_k]).unwrap(),
            full_k.slice_rows(chunk_tokens, full_k.rows())
        );
        assert_eq!(
            Matrix::concat_rows(&[rem_v, tail_v]).unwrap(),
            full_v.slice_rows(chunk_tokens, full_v.rows())
        );
    }

    #[test]
    fn attend_output_matches_dense_reference() {
        let cache = build_cache(48, 16, 16, 7);
        let q = rng::gaussian_matrix(1, 16, 1.0, 99);
        let scale = 1.0 / (16f32).sqrt();
        let result = cache.attend(&q, scale).unwrap();

        // Dense reference: softmax(Q Kᵀ · scale) V over the full FP16 cache.
        let k = cache.full_key_matrix();
        let v = cache.full_value_matrix();
        let mut scores = q.matmul_transposed(&k).unwrap();
        scores.scale_in_place(scale);
        scores.softmax_rows();
        let reference = scores.matmul(&v).unwrap();
        assert!(result.max_abs_diff(&reference).unwrap() < 1e-4);
    }

    #[test]
    fn attend_is_invariant_to_chunk_reordering_when_fp16() {
        let mut cache = build_cache(64, 8, 16, 8);
        let q = rng::gaussian_matrix(1, 8, 1.0, 55);
        let scale = 1.0 / (8f32).sqrt();
        let before = cache.attend(&q, scale).unwrap();
        cache
            .reorder(&ChunkPermutation::new(vec![3, 1, 0, 2]).unwrap())
            .unwrap();
        let after = cache.attend(&q, scale).unwrap();
        assert!(before.max_abs_diff(&after).unwrap() < 1e-5);
    }

    #[test]
    fn attend_with_quantized_chunks_stays_close_to_fp16() {
        let mut cache = build_cache(64, 16, 16, 9);
        let q = rng::gaussian_matrix(1, 16, 1.0, 77);
        let scale = 1.0 / 4.0;
        let fp16 = cache.attend(&q, scale).unwrap();
        cache
            .quantize_all(Bitwidth::Int8, QuantAxis::PerToken, QuantAxis::PerToken, 16)
            .unwrap();
        let quantized = cache.attend(&q, scale).unwrap();
        let err = fp16.max_abs_diff(&quantized).unwrap();
        assert!(err < 0.05, "int8 attention error too large: {err}");
    }

    #[test]
    fn attend_rejects_wrong_query_dim() {
        let cache = build_cache(32, 8, 16, 10);
        let q = Matrix::zeros(1, 4);
        assert!(cache.attend(&q, 1.0).is_err());
    }

    #[test]
    fn attend_skips_probabilities_that_underflow_to_zero() {
        // A query far along one key: every other key's probability
        // underflows to exactly 0.0 and is skipped, as `matmul` skips it.
        let mut cache = build_cache(70, 8, 16, 11);
        apply_mix(&mut cache, 5, 8);
        cache.append_decode_token(&[0.5; 8], &[0.25; 8]).unwrap();
        let mut q = Matrix::zeros(2, 8);
        q.row_mut(0)
            .copy_from_slice(cache.full_key_matrix().row(40));
        q.row_mut(1).copy_from_slice(cache.full_key_matrix().row(3));
        q.scale_in_place(200.0);
        let (reference, probabilities) = attend_materialised(&cache, &q, 1.0);
        assert!(probabilities.as_slice().contains(&0.0));
        assert!(probabilities.as_slice().iter().any(|&p| p > 0.5));
        assert_eq!(bits(&cache.attend(&q, 1.0).unwrap()), bits(&reference));
    }

    #[test]
    fn attend_over_an_empty_cache_is_zero() {
        let cache = build_cache(0, 8, 16, 12);
        let q = rng::gaussian_matrix(2, 8, 1.0, 5);
        assert_eq!(cache.attend(&q, 0.35).unwrap(), Matrix::zeros(2, 8));
        assert_eq!(attend_materialised(&cache, &q, 0.35).0, Matrix::zeros(2, 8));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // The kernel's contract: every output bit equals the materialised
        // path's, for every storage mix, with and without chunks (a context
        // shorter than one chunk has none), remainder and decode tail, and
        // for a query sharp enough to zero some probabilities.
        #[test]
        fn streaming_attend_is_bit_identical_to_the_materialised_reference(
            tokens in 0usize..300,
            dim_pick in 0usize..4,
            chunk_pick in 0usize..3,
            queries in 1usize..5,
            mix in 0usize..8,
            group_pick in 0usize..3,
            tail in 0usize..3,
            sharp in 0usize..2,
            seed in 0u64..1000,
        ) {
            let dim = [2usize, 8, 16, 64][dim_pick];
            let chunk = [8usize, 16, 32][chunk_pick];
            let mut cache = build_cache(tokens, dim, chunk, seed);
            apply_mix(&mut cache, mix, [4usize, 8, 32][group_pick]);
            for t in 0..tail {
                let row = rng::gaussian_matrix(2, dim, 1.0, seed + 7 + t as u64);
                cache.append_decode_token(row.row(0), row.row(1)).unwrap();
            }
            let mut q = rng::gaussian_matrix(queries, dim, 1.0, seed + 3);
            if sharp == 1 {
                q.scale_in_place(150.0);
            }
            let scale = 1.0 / (dim as f32).sqrt();
            let (reference, _) = attend_materialised(&cache, &q, scale);
            let streamed = cache.attend(&q, scale).unwrap();
            prop_assert_eq!(streamed.shape(), (queries, dim));
            prop_assert_eq!(bits(&streamed), bits(&reference));
        }
    }

    #[test]
    fn whole_model_cache_slots() {
        let seg = ChunkSegmentation::new(32, 16).unwrap();
        let mut cache = ChunkedKvCache::new(2, 2);
        assert_eq!(cache.layers(), 2);
        assert_eq!(cache.kv_heads(), 2);
        assert!(cache.get(1, 1).is_none());
        for layer in 0..2 {
            for head in 0..2 {
                let k = rng::gaussian_matrix(32, 4, 1.0, (layer * 2 + head) as u64);
                let v = rng::gaussian_matrix(32, 4, 1.0, 50 + (layer * 2 + head) as u64);
                cache.set(
                    layer,
                    head,
                    ChunkedLayerCache::from_prefill(&k, &v, &seg).unwrap(),
                );
            }
        }
        assert_eq!(cache.iter().count(), 4);
        assert_eq!(
            cache.total_storage_bytes(),
            cache.total_fp16_reference_bytes()
        );
        cache
            .try_for_each_mut(|_, _, layer| layer.quantize_chunk(0, Bitwidth::Int2, 16))
            .unwrap();
        assert!(cache.total_storage_bytes() < cache.total_fp16_reference_bytes());
    }

    #[test]
    fn storage_accounting_includes_tail_and_remainder() {
        let mut cache = build_cache(20, 4, 16, 12); // 1 chunk of 16, remainder 4
        let base = cache.storage_bytes();
        assert_eq!(base, 2 * 20 * 4 * 2);
        cache.append_decode_token(&[0.0; 4], &[0.0; 4]).unwrap();
        assert_eq!(cache.storage_bytes(), base + 2 * 4 * 2);
    }
}
