//! Module II (part 1): KV-cache chunk reordering.
//!
//! Mixed-precision quantization naturally interleaves chunks of different
//! bitwidths in memory, which costs extra cache lines and kernel switches
//! during decode (Figure 3 of the paper). Reordering groups all chunks of
//! the same bitwidth contiguously. Softmax attention is invariant to a
//! permutation of the key/value token order (Eq. 4/5), so the result is
//! equal up to `f32` summation order: the sums run in the new order, and
//! `cocktail_kvcache`'s `attend_is_invariant_to_chunk_reordering_when_fp16`
//! bounds the difference at 1e-5.

use crate::search::BitwidthPlan;
use cocktail_kvcache::{ChunkPermutation, ChunkedLayerCache, KvCacheError};
use cocktail_quant::Bitwidth;

/// Builds the permutation that groups chunks by their assigned bitwidth
/// (lowest precision first, preserving logical order within each group —
/// the layout of Figure 3 in the paper).
///
/// # Example
///
/// ```
/// use cocktail_core::reorder::group_by_bitwidth;
/// use cocktail_quant::Bitwidth;
///
/// let assignments = [
///     Bitwidth::Fp16,
///     Bitwidth::Int2,
///     Bitwidth::Int4,
///     Bitwidth::Int2,
/// ];
/// let perm = group_by_bitwidth(&assignments);
/// // INT2 chunks (1, 3) first, then INT4 (2), then FP16 (0).
/// assert_eq!(perm.as_slice(), &[1, 3, 2, 0]);
/// ```
pub fn group_by_bitwidth(assignments: &[Bitwidth]) -> ChunkPermutation {
    ChunkPermutation::stable_sort_by_key(assignments)
}

/// Applies a bitwidth plan to one layer cache: optionally reorders the
/// chunks so equal-precision chunks are contiguous, then quantizes every
/// chunk according to its assignment.
///
/// The plan's assignments are indexed by *logical* chunk index, so the
/// function follows the cache's permutation when looking up the target
/// precision of each physical chunk.
///
/// # Errors
///
/// Returns a [`KvCacheError`] if the plan length does not match the
/// cache's chunk count or a quantization step fails.
pub fn apply_plan(
    cache: &mut ChunkedLayerCache,
    plan: &BitwidthPlan,
    group_size: usize,
    reorder: bool,
) -> Result<(), KvCacheError> {
    if plan.assignments().len() != cache.chunk_count() {
        return Err(KvCacheError::InvalidPermutation(format!(
            "plan covers {} chunks but the cache has {}",
            plan.assignments().len(),
            cache.chunk_count()
        )));
    }
    if reorder {
        let perm = group_by_bitwidth(plan.assignments());
        cache.reorder(&perm)?;
    }
    for physical in 0..cache.chunk_count() {
        let logical = cache.chunks()[physical].logical_index();
        let target = plan.assignments()[logical];
        if target.is_float() {
            continue; // FP16 chunks are already stored at full precision.
        }
        cache.quantize_chunk(physical, target, group_size)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CocktailConfig;
    use crate::search::ChunkQuantSearch;
    use cocktail_kvcache::ChunkSegmentation;
    use cocktail_tensor::rng;
    use proptest::prelude::*;

    /// Number of chunks in each contiguous precision group after reordering,
    /// in ascending precision order: `(int2, int4, fp16)`. These are the
    /// `len_2` / `len_4` block lengths of Algorithm 1.
    fn group_lengths(assignments: &[Bitwidth]) -> (usize, usize, usize) {
        let int2 = assignments.iter().filter(|&&b| b == Bitwidth::Int2).count();
        let int4 = assignments.iter().filter(|&&b| b == Bitwidth::Int4).count();
        let fp16 = assignments.iter().filter(|&&b| b == Bitwidth::Fp16).count();
        (int2, int4, fp16)
    }

    fn cache(tokens: usize, chunk: usize, seed: u64) -> ChunkedLayerCache {
        let k = rng::gaussian_matrix(tokens, 16, 1.0, seed);
        let v = rng::gaussian_matrix(tokens, 16, 1.0, seed + 1);
        let seg = ChunkSegmentation::new(tokens, chunk).unwrap();
        ChunkedLayerCache::from_prefill(&k, &v, &seg).unwrap()
    }

    fn plan_for(scores: &[f32]) -> BitwidthPlan {
        ChunkQuantSearch::new(CocktailConfig::default())
            .plan_from_scores(scores)
            .unwrap()
    }

    #[test]
    fn grouping_orders_by_precision_then_logical_index() {
        let assignments = [
            Bitwidth::Int4,
            Bitwidth::Fp16,
            Bitwidth::Int2,
            Bitwidth::Int4,
            Bitwidth::Int2,
        ];
        let perm = group_by_bitwidth(&assignments);
        assert_eq!(perm.as_slice(), &[2, 4, 0, 3, 1]);
        assert_eq!(group_lengths(&assignments), (2, 2, 1));
    }

    #[test]
    fn apply_plan_quantizes_to_assigned_bitwidths() {
        let mut c = cache(128, 32, 1);
        let plan = plan_for(&[0.1, 0.2, 0.5, 0.95]);
        apply_plan(&mut c, &plan, 32, true).unwrap();
        // After reordering, chunks are grouped: INT2 first, FP16 last.
        let widths: Vec<Bitwidth> = c.chunks().iter().map(|ch| ch.bitwidth()).collect();
        let mut sorted = widths.clone();
        sorted.sort();
        assert_eq!(widths, sorted, "chunks must be grouped by precision");
        // Each logical chunk got the bitwidth the plan assigned.
        for chunk in c.chunks() {
            assert_eq!(chunk.bitwidth(), plan.assignments()[chunk.logical_index()]);
        }
    }

    #[test]
    fn apply_plan_without_reorder_keeps_logical_order() {
        let mut c = cache(128, 32, 3);
        let plan = plan_for(&[0.9, 0.1, 0.5, 0.2]);
        apply_plan(&mut c, &plan, 32, false).unwrap();
        let logical: Vec<usize> = c.chunks().iter().map(|ch| ch.logical_index()).collect();
        assert_eq!(logical, vec![0, 1, 2, 3]);
        assert_eq!(c.chunks()[0].bitwidth(), Bitwidth::Fp16);
        assert_eq!(c.chunks()[1].bitwidth(), Bitwidth::Int2);
    }

    #[test]
    fn apply_plan_rejects_length_mismatch() {
        let mut c = cache(64, 32, 5);
        let plan = plan_for(&[0.1, 0.2, 0.3]);
        assert!(apply_plan(&mut c, &plan, 32, true).is_err());
    }

    #[test]
    fn reordering_does_not_change_total_storage() {
        let plan = plan_for(&[0.05, 0.5, 0.92, 0.3]);
        let mut reordered = cache(128, 32, 7);
        apply_plan(&mut reordered, &plan, 32, true).unwrap();
        let mut in_place = cache(128, 32, 7);
        apply_plan(&mut in_place, &plan, 32, false).unwrap();
        assert_eq!(reordered.storage_bytes(), in_place.storage_bytes());
    }

    proptest! {
        #[test]
        fn grouped_permutation_is_always_valid(
            raw in proptest::collection::vec(0u8..3, 0..40)
        ) {
            let assignments: Vec<Bitwidth> = raw
                .iter()
                .map(|&r| Bitwidth::COCKTAIL_LEVELS[r as usize])
                .collect();
            let perm = group_by_bitwidth(&assignments);
            prop_assert_eq!(perm.len(), assignments.len());
            let reordered = perm.apply(&assignments);
            prop_assert!(reordered.windows(2).all(|w| w[0] <= w[1]));
            let (a, b, c) = group_lengths(&assignments);
            prop_assert_eq!(a + b + c, assignments.len());
        }
    }
}
