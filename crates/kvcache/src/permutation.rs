//! Validated permutations of chunk indices.
//!
//! Module II of the paper reorders KV-cache chunks so that chunks sharing a
//! bitwidth are contiguous in physical memory. A [`ChunkPermutation`] is the
//! validated carrier of such a reordering: it maps each new position to
//! the old one, and its inverse maps back.

use crate::error::KvCacheError;
use serde::{Deserialize, Serialize};

/// A permutation of `n` chunk indices.
///
/// `order[new_position] = old_position`: element `i` of the reordered
/// sequence is the chunk that was originally at `order[i]`.
///
/// # Example
///
/// ```
/// use cocktail_kvcache::ChunkPermutation;
///
/// # fn main() -> Result<(), cocktail_kvcache::KvCacheError> {
/// let perm = ChunkPermutation::new(vec![2, 0, 1])?;
/// assert_eq!(perm.apply(&["a", "b", "c"]), vec!["c", "a", "b"]);
/// assert_eq!(perm.inverse().apply(&["c", "a", "b"]), vec!["a", "b", "c"]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkPermutation {
    order: Vec<usize>,
}

impl ChunkPermutation {
    /// Creates a permutation from a `new → old` index mapping.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::InvalidPermutation`] if `order` is not a
    /// permutation of `0..order.len()`.
    pub fn new(order: Vec<usize>) -> Result<Self, KvCacheError> {
        let n = order.len();
        let mut seen = vec![false; n];
        for &idx in &order {
            if idx >= n {
                return Err(KvCacheError::InvalidPermutation(format!(
                    "index {idx} out of range for length {n}"
                )));
            }
            if seen[idx] {
                return Err(KvCacheError::InvalidPermutation(format!(
                    "index {idx} appears more than once"
                )));
            }
            seen[idx] = true;
        }
        Ok(Self { order })
    }

    /// The identity permutation of length `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            order: (0..n).collect(),
        }
    }

    /// Number of chunks the permutation covers.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The underlying `new → old` mapping.
    pub fn as_slice(&self) -> &[usize] {
        &self.order
    }

    /// The inverse permutation (`old → new` becomes `new → old`).
    pub fn inverse(&self) -> ChunkPermutation {
        let mut inv = vec![0usize; self.order.len()];
        for (new_pos, &old_pos) in self.order.iter().enumerate() {
            inv[old_pos] = new_pos;
        }
        ChunkPermutation { order: inv }
    }

    /// Applies the permutation to a slice, cloning elements into the new
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `items.len() != len()`.
    pub fn apply<T: Clone>(&self, items: &[T]) -> Vec<T> {
        assert_eq!(items.len(), self.order.len(), "permutation length mismatch");
        self.order.iter().map(|&old| items[old].clone()).collect()
    }

    /// Builds the permutation that sorts chunks by the given key while
    /// preserving the original order within equal keys (stable grouping).
    ///
    /// This is exactly the reordering of Figure 3 in the paper when the key
    /// is the chunk's assigned bitwidth.
    pub fn stable_sort_by_key<K: Ord>(keys: &[K]) -> ChunkPermutation {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| (&keys[i], i));
        ChunkPermutation { order }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segmentation::ChunkSegmentation;
    use proptest::prelude::*;

    /// Expands the chunk-level permutation to a token-level index list for
    /// a context described by `segmentation`, appending the (unpermuted)
    /// remainder tokens at the end.
    ///
    /// The result maps *new* token position → *old* token position and can
    /// be fed to `Matrix::gather_rows` or
    /// `cocktail_tensor::ops::permute_mask_columns`.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::InvalidPermutation`] if the permutation
    /// length does not match the segmentation's chunk count.
    fn token_order(
        perm: &ChunkPermutation,
        segmentation: &ChunkSegmentation,
    ) -> Result<Vec<usize>, KvCacheError> {
        if perm.order.len() != segmentation.chunk_count() {
            return Err(KvCacheError::InvalidPermutation(format!(
                "permutation of {} chunks does not match segmentation with {} chunks",
                perm.order.len(),
                segmentation.chunk_count()
            )));
        }
        let mut tokens = Vec::with_capacity(segmentation.context_len());
        for &old_chunk in &perm.order {
            tokens.extend(segmentation.chunk_range(old_chunk));
        }
        tokens.extend(segmentation.remainder_range());
        Ok(tokens)
    }

    #[test]
    fn rejects_duplicate_and_out_of_range() {
        assert!(ChunkPermutation::new(vec![0, 0]).is_err());
        assert!(ChunkPermutation::new(vec![0, 2]).is_err());
        assert!(ChunkPermutation::new(vec![1, 0]).is_ok());
    }

    #[test]
    fn identity_is_identity() {
        let p = ChunkPermutation::identity(4);
        assert_eq!(p.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(p.apply(&[10, 20, 30, 40]), vec![10, 20, 30, 40]);
    }

    #[test]
    fn inverse_round_trips() {
        let p = ChunkPermutation::new(vec![3, 1, 0, 2]).unwrap();
        let items = ["a", "b", "c", "d"];
        let reordered = p.apply(&items);
        let restored = p.inverse().apply(&reordered);
        assert_eq!(restored, items.to_vec());
    }

    #[test]
    fn old_and_new_positions_agree() {
        let p = ChunkPermutation::new(vec![2, 0, 1]).unwrap();
        for new_pos in 0..3 {
            let old = p.as_slice()[new_pos];
            assert_eq!(p.inverse().as_slice()[old], new_pos);
        }
    }

    #[test]
    fn token_order_expands_chunks_and_appends_remainder() {
        let seg = ChunkSegmentation::new(10, 4).unwrap(); // chunks [0..4),[4..8), rem [8..10)
        let p = ChunkPermutation::new(vec![1, 0]).unwrap();
        let tokens = token_order(&p, &seg).unwrap();
        assert_eq!(tokens, vec![4, 5, 6, 7, 0, 1, 2, 3, 8, 9]);
    }

    #[test]
    fn token_order_length_mismatch_is_error() {
        let seg = ChunkSegmentation::new(12, 4).unwrap(); // 3 chunks
        let p = ChunkPermutation::new(vec![1, 0]).unwrap();
        assert!(token_order(&p, &seg).is_err());
    }

    #[test]
    fn stable_sort_groups_by_key_and_preserves_order() {
        // Keys: bitwidth ranks; equal keys keep original relative order.
        let keys = vec![2, 0, 1, 0, 2, 1];
        let p = ChunkPermutation::stable_sort_by_key(&keys);
        assert_eq!(p.as_slice(), &[1, 3, 2, 5, 0, 4]);
    }

    #[test]
    fn empty_permutation_is_valid() {
        let p = ChunkPermutation::identity(0);
        assert!(p.is_empty());
        assert!(p.as_slice().is_empty());
        let seg = ChunkSegmentation::new(3, 8).unwrap();
        assert_eq!(token_order(&p, &seg).unwrap(), vec![0, 1, 2]);
    }

    proptest! {
        #[test]
        fn inverse_of_inverse_is_original(n in 0usize..40, seed in 0u64..1000) {
            let mut order: Vec<usize> = (0..n).collect();
            // Deterministic shuffle.
            for i in (1..n).rev() {
                let j = ((seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64)) as usize) % (i + 1);
                order.swap(i, j);
            }
            let p = ChunkPermutation::new(order).unwrap();
            prop_assert_eq!(p.inverse().inverse(), p);
        }

        #[test]
        fn apply_then_inverse_apply_is_identity(n in 1usize..30, seed in 0u64..1000) {
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = ((seed.wrapping_mul(2862933555777941757).wrapping_add(i as u64)) as usize) % (i + 1);
                order.swap(i, j);
            }
            let p = ChunkPermutation::new(order).unwrap();
            let items: Vec<usize> = (100..100 + n).collect();
            let restored = p.inverse().apply(&p.apply(&items));
            prop_assert_eq!(restored, items);
        }

        #[test]
        fn stable_sort_output_is_sorted(keys in proptest::collection::vec(0u8..4, 0..50)) {
            let p = ChunkPermutation::stable_sort_by_key(&keys);
            let sorted = p.apply(&keys);
            prop_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
