//! Splitting a long context into equal-size chunks.

use crate::error::KvCacheError;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Describes how a context of `context_len` tokens is divided into
/// equal-size chunks of `chunk_size` tokens.
///
/// Following Section III-A of the paper, the trailing tokens that do not
/// fill a whole chunk are *not* quantized — their KV cache stays in FP16 —
/// so the segmentation exposes them separately as the *remainder*.
///
/// # Example
///
/// ```
/// use cocktail_kvcache::ChunkSegmentation;
///
/// # fn main() -> Result<(), cocktail_kvcache::KvCacheError> {
/// let seg = ChunkSegmentation::new(89 * 32, 32)?;
/// assert_eq!(seg.chunk_count(), 89);
/// assert_eq!(seg.remainder_len(), 0);
/// assert_eq!(seg.chunk_range(1), 32..64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ChunkSegmentation {
    context_len: usize,
    chunk_size: usize,
}

impl ChunkSegmentation {
    /// Creates a segmentation of `context_len` tokens into chunks of
    /// `chunk_size`.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::ZeroChunkSize`] if `chunk_size == 0`.
    pub fn new(context_len: usize, chunk_size: usize) -> Result<Self, KvCacheError> {
        if chunk_size == 0 {
            return Err(KvCacheError::ZeroChunkSize);
        }
        Ok(Self {
            context_len,
            chunk_size,
        })
    }

    /// Total number of context tokens covered.
    pub fn context_len(&self) -> usize {
        self.context_len
    }

    /// Tokens per chunk.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Number of *full* chunks (the remainder is excluded).
    pub fn chunk_count(&self) -> usize {
        self.context_len / self.chunk_size
    }

    /// Number of trailing tokens that do not fill a whole chunk and stay in
    /// FP16.
    pub fn remainder_len(&self) -> usize {
        self.context_len % self.chunk_size
    }

    /// Token range `[start, end)` of chunk `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= chunk_count()`.
    pub fn chunk_range(&self, index: usize) -> Range<usize> {
        assert!(index < self.chunk_count(), "chunk index out of range");
        index * self.chunk_size..(index + 1) * self.chunk_size
    }

    /// Token range of the FP16 remainder (possibly empty).
    pub(crate) fn remainder_range(&self) -> Range<usize> {
        self.chunk_count() * self.chunk_size..self.context_len
    }

    /// Iterator over all chunk token ranges.
    pub(crate) fn iter_ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.chunk_count()).map(move |i| self.chunk_range(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_chunk_size_is_rejected() {
        assert_eq!(
            ChunkSegmentation::new(10, 0).unwrap_err(),
            KvCacheError::ZeroChunkSize
        );
    }

    #[test]
    fn exact_division_has_no_remainder() {
        let seg = ChunkSegmentation::new(128, 32).unwrap();
        assert_eq!(seg.chunk_count(), 4);
        assert_eq!(seg.remainder_len(), 0);
        assert!(seg.remainder_range().is_empty());
    }

    #[test]
    fn remainder_is_trailing_tokens() {
        let seg = ChunkSegmentation::new(100, 32).unwrap();
        assert_eq!(seg.chunk_count(), 3);
        assert_eq!(seg.remainder_len(), 4);
        assert_eq!(seg.remainder_range(), 96..100);
    }

    #[test]
    fn context_shorter_than_chunk_is_all_remainder() {
        let seg = ChunkSegmentation::new(10, 32).unwrap();
        assert_eq!(seg.chunk_count(), 0);
        assert_eq!(seg.remainder_len(), 10);
        assert_eq!(seg.remainder_range(), 0..10);
    }

    #[test]
    fn chunk_ranges_tile_the_prefix() {
        let seg = ChunkSegmentation::new(70, 16).unwrap();
        let mut covered = 0;
        for (i, range) in seg.iter_ranges().enumerate() {
            assert_eq!(range, seg.chunk_range(i));
            assert_eq!(range.start, covered);
            covered = range.end;
        }
        assert_eq!(covered, seg.chunk_count() * 16);
    }

    #[test]
    fn chunk_of_token_maps_correctly() {
        let chunk_of_token = |seg: &ChunkSegmentation, pos: usize| {
            (0..seg.chunk_count()).find(|&c| seg.chunk_range(c).contains(&pos))
        };
        let seg = ChunkSegmentation::new(100, 32).unwrap();
        assert_eq!(chunk_of_token(&seg, 0), Some(0));
        assert_eq!(chunk_of_token(&seg, 31), Some(0));
        assert_eq!(chunk_of_token(&seg, 32), Some(1));
        assert_eq!(chunk_of_token(&seg, 95), Some(2));
        assert_eq!(chunk_of_token(&seg, 96), None); // remainder
        assert_eq!(chunk_of_token(&seg, 1000), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn chunk_range_panics_out_of_range() {
        let seg = ChunkSegmentation::new(64, 32).unwrap();
        seg.chunk_range(2);
    }

    proptest! {
        #[test]
        fn chunks_plus_remainder_cover_context(
            context_len in 0usize..10_000,
            chunk_size in 1usize..512,
        ) {
            let seg = ChunkSegmentation::new(context_len, chunk_size).unwrap();
            let chunk_tokens: usize = seg.iter_ranges().map(|r| r.len()).sum();
            prop_assert_eq!(chunk_tokens + seg.remainder_len(), context_len);
            prop_assert!(seg.remainder_len() < chunk_size);
            for range in seg.iter_ranges() {
                prop_assert_eq!(range.len(), chunk_size);
            }
        }
    }
}
