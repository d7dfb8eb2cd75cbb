//! Refcounted key/value blocks for sharing a prompt prefix across
//! serving requests.
//!
//! When many requests share a long context prefix (a system prompt, a
//! document served to several users), the prefill work for that prefix is
//! identical across them. A [`SharedPrefixKv`] holds the raw per-(layer,
//! KV-head) key/value rows of one token prefix behind [`Arc`]s, so a prefix
//! cache and any number of in-flight prefills can reference the same bytes:
//! cloning the handle bumps refcounts instead of copying tensors, and the
//! refcount tells an evictor whether the entry is still pinned by a request
//! being prefilled.
//!
//! The blocks are stored at *prefill precision* (FP32), not in the
//! compressed chunk format: continuing a prefill from a cached prefix must
//! be bit-identical to a cold full prefill, and the chunk formats round
//! through FP16 (and are rewritten per request by query-dependent
//! quantization policies). The bytes reported by
//! [`SharedPrefixKv::storage_bytes`] are therefore honest FP32 bytes, which
//! is what a serving budget should be charged.

use crate::error::KvCacheError;
use cocktail_tensor::Matrix;
use std::sync::Arc;

/// The raw key/value rows of one (layer, KV-head) pair for a token prefix,
/// shape `(prefix_tokens, head_dim)` each, keys already rotary-embedded at
/// their absolute positions (exactly what the prefill phase produces).
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixKvBlock {
    k: Matrix,
    v: Matrix,
}

impl PrefixKvBlock {
    /// Wraps the key/value rows of one (layer, head) pair.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::ShapeMismatch`] if `k` and `v` differ in
    /// shape.
    pub fn new(k: Matrix, v: Matrix) -> Result<Self, KvCacheError> {
        if k.shape() != v.shape() {
            return Err(KvCacheError::ShapeMismatch(format!(
                "prefix block k {:?} vs v {:?}",
                k.shape(),
                v.shape()
            )));
        }
        Ok(Self { k, v })
    }

    /// The key rows (post-RoPE), shape `(prefix_tokens, head_dim)`.
    pub fn k(&self) -> &Matrix {
        &self.k
    }

    /// The value rows, shape `(prefix_tokens, head_dim)`.
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// Number of prefix tokens covered by this block.
    pub fn tokens(&self) -> usize {
        self.k.rows()
    }

    /// FP32 storage footprint of this block in bytes.
    pub fn storage_bytes(&self) -> usize {
        (self.k.len() + self.v.len()) * std::mem::size_of::<f32>()
    }
}

/// The refcounted KV blocks of one token prefix across every (layer,
/// KV-head) pair of a model: the unit a serving-side prefix cache stores,
/// hands to prefills, and evicts.
///
/// Cloning is cheap (one [`Arc`] bump per block) and is how the cache pins
/// an entry while a prefill uses it; [`SharedPrefixKv::ref_count`] exposes
/// the number of outstanding handles so LRU eviction can skip pinned
/// entries.
///
/// # Example
///
/// ```
/// use cocktail_kvcache::{PrefixKvBlock, SharedPrefixKv};
/// use cocktail_tensor::rng::gaussian_matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let block = |seed| {
///     PrefixKvBlock::new(
///         gaussian_matrix(6, 4, 1.0, seed),
///         gaussian_matrix(6, 4, 1.0, seed + 100),
///     )
/// };
/// let shared = SharedPrefixKv::from_blocks(2, 1, vec![block(1)?, block(2)?])?;
/// assert_eq!(shared.tokens(), 6);
/// assert_eq!(shared.ref_count(), 1);
/// let pinned = shared.clone(); // refcount bump, no tensor copy
/// assert_eq!(shared.ref_count(), 2);
/// drop(pinned);
/// assert_eq!(shared.ref_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SharedPrefixKv {
    tokens: usize,
    layers: usize,
    kv_heads: usize,
    blocks: Vec<Arc<PrefixKvBlock>>,
}

impl SharedPrefixKv {
    /// Builds a shared prefix from one block per (layer, KV-head) pair, in
    /// layer-major order (`layer * kv_heads + head`).
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::ShapeMismatch`] if the block count is not
    /// `layers * kv_heads`, the blocks disagree on token count, or there
    /// are no blocks.
    pub fn from_blocks(
        layers: usize,
        kv_heads: usize,
        blocks: Vec<PrefixKvBlock>,
    ) -> Result<Self, KvCacheError> {
        if blocks.is_empty() || blocks.len() != layers * kv_heads {
            return Err(KvCacheError::ShapeMismatch(format!(
                "{} prefix blocks for {layers} layers x {kv_heads} kv heads",
                blocks.len()
            )));
        }
        let tokens = blocks[0].tokens();
        if blocks.iter().any(|b| b.tokens() != tokens) {
            return Err(KvCacheError::ShapeMismatch(
                "prefix blocks disagree on token count".into(),
            ));
        }
        Ok(Self {
            tokens,
            layers,
            kv_heads,
            blocks: blocks.into_iter().map(Arc::new).collect(),
        })
    }

    /// Number of prefix tokens covered.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Number of KV heads per layer.
    pub fn kv_heads(&self) -> usize {
        self.kv_heads
    }

    /// The block of one (layer, KV-head) pair.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn block(&self, layer: usize, head: usize) -> &PrefixKvBlock {
        assert!(
            layer < self.layers && head < self.kv_heads,
            "prefix block out of range"
        );
        &self.blocks[layer * self.kv_heads + head]
    }

    /// Total FP32 storage footprint of all blocks in bytes. Shared handles
    /// reference the same allocation, so a budget should charge this once
    /// per entry, not once per handle.
    pub fn storage_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.storage_bytes()).sum::<usize>()
    }

    /// Number of live handles to these blocks (including this one). A
    /// cache-resident entry with `ref_count() == 1` is unpinned and safe to
    /// evict; a higher count means prefills are still reading it.
    pub fn ref_count(&self) -> usize {
        self.blocks.first().map(Arc::strong_count).unwrap_or(0)
    }

    /// Copies the token rows `start..end` of every block into a new,
    /// independently refcounted prefix — the primitive a token-trie prefix
    /// cache uses to split one cached run at a divergence point (each trie
    /// node owns exactly its own segment's rows, so evicting a node frees
    /// real bytes).
    ///
    /// The rows keep their absolute positions (keys stay rotary-embedded
    /// where the original prefill put them), so a slice taken at token
    /// offset `start` is only meaningful as the continuation of a prefix
    /// covering `start` tokens.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::ShapeMismatch`] if `start >= end` or
    /// `end > self.tokens()`.
    pub fn slice_tokens(&self, start: usize, end: usize) -> Result<Self, KvCacheError> {
        if start >= end || end > self.tokens {
            return Err(KvCacheError::ShapeMismatch(format!(
                "token slice {start}..{end} of a {}-token prefix",
                self.tokens
            )));
        }
        let blocks = self
            .blocks
            .iter()
            .map(|b| {
                PrefixKvBlock::new(b.k.slice_rows(start, end), b.v.slice_rows(start, end))
                    .map(Arc::new)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            tokens: end - start,
            layers: self.layers,
            kv_heads: self.kv_heads,
            blocks,
        })
    }

    /// Concatenates consecutive prefix segments row-wise into one
    /// contiguous prefix — the inverse of [`SharedPrefixKv::slice_tokens`],
    /// used to assemble the KV of a trie path (root-ward segment first)
    /// into the single contiguous block a resuming prefill reads.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::ShapeMismatch`] if `parts` is empty or the
    /// segments disagree on layer/head layout.
    pub fn concat(parts: &[&Self]) -> Result<Self, KvCacheError> {
        let first = parts
            .first()
            .ok_or_else(|| KvCacheError::ShapeMismatch("concat of zero prefix segments".into()))?;
        if parts
            .iter()
            .any(|p| p.layers != first.layers || p.kv_heads != first.kv_heads)
        {
            return Err(KvCacheError::ShapeMismatch(
                "prefix segments disagree on layer/head layout".into(),
            ));
        }
        if parts.len() == 1 {
            return Ok((*first).clone());
        }
        let mut blocks = Vec::with_capacity(first.blocks.len());
        for i in 0..first.blocks.len() {
            let ks: Vec<&Matrix> = parts.iter().map(|p| &p.blocks[i].k).collect();
            let vs: Vec<&Matrix> = parts.iter().map(|p| &p.blocks[i].v).collect();
            let k =
                Matrix::concat_rows(&ks).map_err(|e| KvCacheError::ShapeMismatch(e.to_string()))?;
            let v =
                Matrix::concat_rows(&vs).map_err(|e| KvCacheError::ShapeMismatch(e.to_string()))?;
            blocks.push(Arc::new(PrefixKvBlock::new(k, v)?));
        }
        Ok(Self {
            tokens: parts.iter().map(|p| p.tokens).sum(),
            layers: first.layers,
            kv_heads: first.kv_heads,
            blocks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_tensor::rng::gaussian_matrix;

    fn blocks(layers: usize, heads: usize, tokens: usize) -> Vec<PrefixKvBlock> {
        (0..layers * heads)
            .map(|i| {
                PrefixKvBlock::new(
                    gaussian_matrix(tokens, 4, 1.0, i as u64),
                    gaussian_matrix(tokens, 4, 1.0, 1000 + i as u64),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn from_blocks_validates_layout() {
        assert!(SharedPrefixKv::from_blocks(2, 2, blocks(2, 2, 5)).is_ok());
        assert!(SharedPrefixKv::from_blocks(2, 2, blocks(2, 1, 5)).is_err());
        assert!(SharedPrefixKv::from_blocks(1, 1, vec![]).is_err());
        let mut uneven = blocks(2, 1, 5);
        uneven[1] =
            PrefixKvBlock::new(gaussian_matrix(3, 4, 1.0, 7), gaussian_matrix(3, 4, 1.0, 8))
                .unwrap();
        assert!(SharedPrefixKv::from_blocks(2, 1, uneven).is_err());
    }

    #[test]
    fn block_shape_mismatch_is_rejected() {
        let k = gaussian_matrix(4, 4, 1.0, 1);
        let v = gaussian_matrix(5, 4, 1.0, 2);
        assert!(PrefixKvBlock::new(k, v).is_err());
    }

    #[test]
    fn clone_shares_blocks_and_tracks_refcount() {
        let shared = SharedPrefixKv::from_blocks(2, 2, blocks(2, 2, 6)).unwrap();
        assert_eq!(shared.ref_count(), 1);
        let a = shared.clone();
        let b = shared.clone();
        assert_eq!(shared.ref_count(), 3);
        // Cloned handles see the same data.
        assert_eq!(a.block(1, 1).k(), shared.block(1, 1).k());
        drop(a);
        drop(b);
        assert_eq!(shared.ref_count(), 1);
    }

    #[test]
    fn storage_bytes_counts_fp32_k_and_v_once() {
        let shared = SharedPrefixKv::from_blocks(2, 1, blocks(2, 1, 8)).unwrap();
        // 2 blocks x (k + v) x 8 tokens x 4 dims x 4 bytes.
        assert_eq!(shared.storage_bytes(), 2 * 2 * 8 * 4 * 4);
        let clone = shared.clone();
        assert_eq!(clone.storage_bytes(), shared.storage_bytes());
    }

    #[test]
    fn slice_tokens_copies_the_requested_rows_into_fresh_arcs() {
        let shared = SharedPrefixKv::from_blocks(2, 1, blocks(2, 1, 8)).unwrap();
        let head = shared.slice_tokens(0, 3).unwrap();
        let tail = shared.slice_tokens(3, 8).unwrap();
        assert_eq!(head.tokens(), 3);
        assert_eq!(tail.tokens(), 5);
        // Fresh allocations: slicing does not pin the original.
        assert_eq!(shared.ref_count(), 1);
        assert_eq!(head.ref_count(), 1);
        // Row content is preserved exactly.
        for layer in 0..2 {
            let full = shared.block(layer, 0);
            assert_eq!(head.block(layer, 0).k(), &full.k().slice_rows(0, 3));
            assert_eq!(tail.block(layer, 0).v(), &full.v().slice_rows(3, 8));
        }
        // Byte accounting splits proportionally.
        assert_eq!(
            head.storage_bytes() + tail.storage_bytes(),
            shared.storage_bytes()
        );
        // Invalid ranges are rejected.
        assert!(shared.slice_tokens(3, 3).is_err());
        assert!(shared.slice_tokens(0, 9).is_err());
    }

    #[test]
    fn concat_reassembles_slices_bit_identically() {
        let shared = SharedPrefixKv::from_blocks(2, 2, blocks(2, 2, 7)).unwrap();
        let a = shared.slice_tokens(0, 2).unwrap();
        let b = shared.slice_tokens(2, 5).unwrap();
        let c = shared.slice_tokens(5, 7).unwrap();
        let whole = SharedPrefixKv::concat(&[&a, &b, &c]).unwrap();
        assert_eq!(whole.tokens(), 7);
        for layer in 0..2 {
            for h in 0..2 {
                assert_eq!(whole.block(layer, h).k(), shared.block(layer, h).k());
                assert_eq!(whole.block(layer, h).v(), shared.block(layer, h).v());
            }
        }
        // A single segment concatenates to a cheap clone (refcount bump).
        let alias = SharedPrefixKv::concat(&[&a]).unwrap();
        assert_eq!(a.ref_count(), 2);
        drop(alias);
        // Layout mismatches and empty input are rejected.
        let other = SharedPrefixKv::from_blocks(1, 1, blocks(1, 1, 4)).unwrap();
        assert!(SharedPrefixKv::concat(&[&a, &other]).is_err());
        assert!(SharedPrefixKv::concat(&[]).is_err());
    }

    #[test]
    fn tokens_and_indexing() {
        let shared = SharedPrefixKv::from_blocks(3, 2, blocks(3, 2, 7)).unwrap();
        assert_eq!(shared.tokens(), 7);
        assert_eq!(shared.layers(), 3);
        assert_eq!(shared.kv_heads(), 2);
        assert_eq!(shared.block(2, 1).tokens(), 7);
    }
}
