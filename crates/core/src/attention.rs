//! Module II (part 2): block-wise mixed-precision decode attention
//! (Algorithm 1 of the paper).
//!
//! After reordering, the cached keys form contiguous INT2, INT4 and FP16
//! runs, so one kernel — [`ChunkedLayerCache::attend`], the one every
//! decoded token goes through — walks the runs instead of dispatching per
//! chunk. Softmax and the weighted sum are invariant to a permutation of
//! the token axis (the paper's Eq. 4/5), so the output equals attention
//! over the unpermuted cache; the tests below verify that numerically.

use crate::error::CocktailError;
use cocktail_kvcache::ChunkedLayerCache;
use cocktail_tensor::Matrix;

/// Decode-phase attention over a chunked (and typically reordered) cache:
/// the Module II name for [`ChunkedLayerCache::attend`], to which it
/// delegates. Correct on unreordered caches too — reordering only makes
/// the same-bitwidth runs longer.
///
/// # Errors
///
/// Fails if the query head dimension does not match the cache.
///
/// ```
/// # use cocktail_kvcache::{ChunkSegmentation, ChunkedLayerCache};
/// let kv = cocktail_tensor::rng::gaussian_matrix(64, 16, 1.0, 1);
/// let seg = ChunkSegmentation::new(64, 16).unwrap();
/// let mut cache = ChunkedLayerCache::from_prefill(&kv, &kv, &seg).unwrap();
/// cache.quantize_chunk(0, cocktail_quant::Bitwidth::Int2, 16).unwrap();
/// let q = cocktail_tensor::rng::gaussian_matrix(1, 16, 1.0, 3);
/// let output = cocktail_core::attention::grouped_attend(&cache, &q, 0.25).unwrap();
/// assert_eq!(output.shape(), (1, 16));
/// ```
pub fn grouped_attend(
    cache: &ChunkedLayerCache,
    queries: &Matrix,
    scale: f32,
) -> Result<Matrix, CocktailError> {
    Ok(cache.attend(queries, scale)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CocktailConfig;
    use crate::reorder::apply_plan;
    use crate::search::ChunkQuantSearch;
    use cocktail_kvcache::ChunkSegmentation;
    use cocktail_quant::Bitwidth;
    use cocktail_tensor::rng;
    use proptest::prelude::*;

    fn build_cache(tokens: usize, chunk: usize, seed: u64) -> ChunkedLayerCache {
        let k = rng::gaussian_matrix(tokens, 16, 1.0, seed);
        let v = rng::gaussian_matrix(tokens, 16, 1.0, seed + 1);
        let seg = ChunkSegmentation::new(tokens, chunk).unwrap();
        ChunkedLayerCache::from_prefill(&k, &v, &seg).unwrap()
    }

    fn plan_from(scores: &[f32]) -> crate::search::BitwidthPlan {
        ChunkQuantSearch::new(CocktailConfig::default())
            .plan_from_scores(scores)
            .unwrap()
    }

    /// Generic attention: dense `softmax(scale · Q·Kᵀ) · V` over the
    /// dequantized cache in its physical order.
    fn generic_attend(cache: &ChunkedLayerCache, q: &Matrix, scale: f32) -> Matrix {
        let mut scores = q.matmul_transposed(&cache.full_key_matrix()).unwrap();
        scores.scale_in_place(scale);
        scores.softmax_rows();
        scores.matmul(&cache.full_value_matrix()).unwrap()
    }

    #[test]
    fn grouped_attention_matches_generic_attention() {
        let mut cache = build_cache(130, 32, 1); // 4 chunks + remainder of 2
                                                 // alpha = 0.6, beta = 0.1 over range [0.05, 0.9]: T_low = 0.56,
                                                 // T_high = 0.815, so the assignment is [Int2, Fp16, Int4, Int2].
        let plan = plan_from(&[0.05, 0.9, 0.6, 0.1]);
        apply_plan(&mut cache, &plan, 32, true).unwrap();
        cache.append_decode_token(&[0.1; 16], &[0.2; 16]).unwrap();
        // Reordered into Algorithm 1's runs: two INT2 chunks, INT4, FP16.
        let runs: Vec<Bitwidth> = cache.chunks().iter().map(|c| c.bitwidth()).collect();
        assert_eq!(
            runs,
            [
                Bitwidth::Int2,
                Bitwidth::Int2,
                Bitwidth::Int4,
                Bitwidth::Fp16
            ]
        );
        assert_eq!(cache.total_tokens(), 131);

        let q = rng::gaussian_matrix(1, 16, 1.0, 9);
        let scale = 0.25;
        let grouped = grouped_attend(&cache, &q, scale).unwrap();
        let generic = generic_attend(&cache, &q, scale);
        assert!(grouped.max_abs_diff(&generic).unwrap() < 1e-4);
    }

    #[test]
    fn reordering_preserves_attention_output_exactly() {
        // The paper's equivalence argument (Eq. 4/5): quantize the same
        // chunks to the same precisions with and without reordering and the
        // decode attention output must match.
        let plan = plan_from(&[0.02, 0.95, 0.4, 0.6, 0.1]);
        let q = rng::gaussian_matrix(1, 16, 1.0, 42);
        let scale = 1.0 / 4.0;

        let mut reordered = build_cache(160, 32, 5);
        apply_plan(&mut reordered, &plan, 32, true).unwrap();
        let out_reordered = grouped_attend(&reordered, &q, scale).unwrap();

        let mut in_place = build_cache(160, 32, 5);
        apply_plan(&mut in_place, &plan, 32, false).unwrap();
        let out_in_place = grouped_attend(&in_place, &q, scale).unwrap();

        assert!(out_reordered.max_abs_diff(&out_in_place).unwrap() < 1e-4);
    }

    #[test]
    fn all_fp16_grouped_attention_matches_dense_reference() {
        let cache = build_cache(96, 32, 11);
        let q = rng::gaussian_matrix(2, 16, 1.0, 13);
        let scale = 0.3;
        let grouped = grouped_attend(&cache, &q, scale).unwrap();
        assert!(cache.chunks().iter().all(|c| c.bitwidth().is_float()));
        let reference = generic_attend(&cache, &q, scale);
        assert!(grouped.max_abs_diff(&reference).unwrap() < 1e-4);
    }

    #[test]
    fn probabilities_sum_to_one() {
        // The kernel returns no probabilities; over all-ones values (exact
        // at every bitwidth) each output element is their sum.
        let k = rng::gaussian_matrix(67, 16, 1.0, 17);
        let v = Matrix::filled(67, 16, 1.0);
        let seg = ChunkSegmentation::new(67, 16).unwrap();
        let mut cache = ChunkedLayerCache::from_prefill(&k, &v, &seg).unwrap();
        let plan = plan_from(&[0.1, 0.9, 0.5, 0.2]);
        apply_plan(&mut cache, &plan, 16, true).unwrap();
        let q = rng::gaussian_matrix(3, 16, 1.0, 19);
        let grouped = grouped_attend(&cache, &q, 0.25).unwrap();
        for sum in grouped.as_slice() {
            assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn wrong_query_dim_is_rejected() {
        let cache = build_cache(32, 16, 23);
        let q = Matrix::zeros(1, 8);
        assert!(grouped_attend(&cache, &q, 1.0).is_err());
    }

    #[test]
    fn heavier_quantization_of_irrelevant_chunks_barely_moves_output() {
        // Quantizing chunks that receive little attention mass should change
        // the output much less than quantizing the chunk the query actually
        // attends to. This is the mechanism Cocktail exploits.
        let tokens = 128;
        let chunk = 32;
        let dim = 16;
        let k = rng::gaussian_matrix(tokens, dim, 1.0, 31);
        let v = rng::gaussian_matrix(tokens, dim, 1.0, 32);
        let seg = ChunkSegmentation::new(tokens, chunk).unwrap();
        // Make the query point strongly at a token in chunk 1.
        let q = {
            let mut q = Matrix::zeros(1, dim);
            q.row_mut(0).copy_from_slice(k.row(40));
            q.scale_in_place(2.0);
            q
        };
        let scale = 1.0 / (dim as f32).sqrt();

        let reference = ChunkedLayerCache::from_prefill(&k, &v, &seg)
            .unwrap()
            .attend(&q, scale)
            .unwrap();

        // Case A: quantize everything except chunk 1 to INT2.
        let mut keep_relevant = ChunkedLayerCache::from_prefill(&k, &v, &seg).unwrap();
        for i in [0usize, 2, 3] {
            keep_relevant.quantize_chunk(i, Bitwidth::Int2, 32).unwrap();
        }
        let err_keep = grouped_attend(&keep_relevant, &q, scale)
            .unwrap()
            .max_abs_diff(&reference)
            .unwrap();

        // Case B: quantize the relevant chunk 1 to INT2, keep the rest FP16.
        let mut drop_relevant = ChunkedLayerCache::from_prefill(&k, &v, &seg).unwrap();
        drop_relevant.quantize_chunk(1, Bitwidth::Int2, 32).unwrap();
        let err_drop = grouped_attend(&drop_relevant, &q, scale)
            .unwrap()
            .max_abs_diff(&reference)
            .unwrap();

        assert!(
            err_keep < err_drop,
            "quantizing irrelevant chunks (err {err_keep}) should hurt less than quantizing the relevant one (err {err_drop})"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn grouped_and_generic_attention_always_agree(
            seed in 0u64..200,
            scores in proptest::collection::vec(0.0f32..1.0, 2..6),
        ) {
            let chunks = scores.len();
            let tokens = chunks * 16 + 3;
            let mut cache = build_cache(tokens, 16, seed);
            let plan = plan_from(&scores);
            apply_plan(&mut cache, &plan, 16, true).unwrap();
            let q = rng::gaussian_matrix(1, 16, 1.0, seed + 100);
            let grouped = grouped_attend(&cache, &q, 0.25).unwrap();
            let generic = generic_attend(&cache, &q, 0.25);
            prop_assert!(grouped.max_abs_diff(&generic).unwrap() < 1e-3);
        }
    }
}
