//! Module II (part 2): block-wise mixed-precision decode attention
//! (Algorithm 1 of the paper).
//!
//! After reordering, the cached context keys form three contiguous blocks —
//! INT2, INT4 and FP16 — so the decode-phase attention can be computed as
//! one fused quantized GEMM per block plus one FP16 GEMM, concatenated,
//! softmaxed and recombined. The output is identical to ordinary attention
//! over the unpermuted cache because softmax and the weighted sum are
//! invariant to a permutation of the token axis (the paper's Eq. 4/5); the
//! property tests at the bottom of this module verify that equivalence
//! numerically.

use crate::error::CocktailError;
use cocktail_kvcache::{ChunkStorage, ChunkedLayerCache};
use cocktail_quant::{gemm, Bitwidth};
use cocktail_tensor::Matrix;

/// Result of the block-wise mixed-precision attention pass.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedAttention {
    /// Attention output, shape `(queries, head_dim)`.
    pub output: Matrix,
    /// Attention probabilities over the cache's physical token order.
    pub probabilities: Matrix,
    /// Tokens per precision block, in the order the blocks were processed:
    /// `[int2, int4, int8, fp16]` (INT8 is unused by the paper's
    /// configuration but supported for ablations; the FP16 block includes
    /// the remainder and the decode tail).
    pub block_tokens: [usize; 4],
}

impl GroupedAttention {
    /// Total number of cached tokens attended over.
    pub fn total_tokens(&self) -> usize {
        self.block_tokens.iter().sum()
    }
}

fn block_index(bitwidth: Bitwidth) -> usize {
    match bitwidth {
        Bitwidth::Int2 => 0,
        Bitwidth::Int4 => 1,
        Bitwidth::Int8 => 2,
        Bitwidth::Fp16 => 3,
    }
}

/// Computes decode-phase attention over a chunked (and typically reordered)
/// cache using the block-wise scheme of Algorithm 1.
///
/// The chunks are processed grouped by bitwidth — all INT2 chunks first,
/// then INT4, then INT8, then FP16 together with the FP16 remainder and the
/// decode tail — regardless of their physical order, so the function is
/// correct on unreordered caches too (reordering only matters for the
/// hardware model). Scores are scaled by `scale` before the softmax; no
/// causal mask is needed because during decode the query attends to every
/// cached token.
///
/// # Errors
///
/// Returns [`CocktailError::InvalidInput`] if the query head dimension does
/// not match the cache.
///
/// # Example
///
/// ```
/// use cocktail_core::attention::grouped_attend;
/// use cocktail_kvcache::{ChunkSegmentation, ChunkedLayerCache};
/// use cocktail_quant::Bitwidth;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let k = cocktail_tensor::rng::gaussian_matrix(64, 16, 1.0, 1);
/// let v = cocktail_tensor::rng::gaussian_matrix(64, 16, 1.0, 2);
/// let seg = ChunkSegmentation::new(64, 16)?;
/// let mut cache = ChunkedLayerCache::from_prefill(&k, &v, &seg)?;
/// cache.quantize_chunk(0, Bitwidth::Int2, 16)?;
/// let q = cocktail_tensor::rng::gaussian_matrix(1, 16, 1.0, 3);
/// let result = grouped_attend(&cache, &q, 0.25)?;
/// assert_eq!(result.output.shape(), (1, 16));
/// assert_eq!(result.total_tokens(), 64);
/// # Ok(())
/// # }
/// ```
pub fn grouped_attend(
    cache: &ChunkedLayerCache,
    queries: &Matrix,
    scale: f32,
) -> Result<GroupedAttention, CocktailError> {
    if queries.cols() != cache.head_dim() {
        return Err(CocktailError::InvalidInput(format!(
            "query head dim {} does not match cache head dim {}",
            queries.cols(),
            cache.head_dim()
        )));
    }

    // Group chunk indices by bitwidth, preserving physical order inside each
    // group. This mirrors the contiguous layout produced by the reordering
    // step; on an unreordered cache it simply gathers the same blocks
    // logically.
    let mut groups: [Vec<usize>; 4] = Default::default();
    for (i, chunk) in cache.chunks().iter().enumerate() {
        groups[block_index(chunk.bitwidth())].push(i);
    }

    // Phase 1 of Algorithm 1: per-block attention scores, concatenated along
    // the token axis (`att = cat(att, fqm(Q, K_b^T), -1)`).
    let mut score_blocks: Vec<Matrix> = Vec::new();
    let mut block_tokens = [0usize; 4];
    // Order of processed segments so phase 2 can walk the same layout.
    let mut processed: Vec<(usize, usize)> = Vec::new(); // (block, chunk physical index)

    for (block, members) in groups.iter().enumerate() {
        for &idx in members {
            let chunk = &cache.chunks()[idx];
            let scores = if chunk.outlier_count() > 0 {
                queries.matmul_transposed(&chunk.key_matrix())?
            } else {
                match chunk.storage() {
                    ChunkStorage::Fp16 { k, .. } => queries.matmul_transposed(k)?,
                    ChunkStorage::Quantized { k, .. } => {
                        gemm::fp_matmul_quant_transposed(queries, k)?
                    }
                }
            };
            block_tokens[block] += chunk.token_len();
            processed.push((block, idx));
            score_blocks.push(scores);
        }
    }
    // The FP16 remainder and decode tail belong to the FP16 block. Only
    // these few rows are copied; the chunks are never dequantized here.
    let (remainder_k, remainder_v) = cache.remainder();
    let (tail_k, tail_v) = cache.tail();
    let fp16_extra = remainder_k.rows() + tail_k.rows();
    if fp16_extra > 0 {
        let extra_k = Matrix::concat_rows(&[remainder_k, tail_k])?;
        score_blocks.push(queries.matmul_transposed(&extra_k)?);
        block_tokens[3] += fp16_extra;
    }

    let refs: Vec<&Matrix> = score_blocks.iter().collect();
    let mut att = Matrix::concat_cols(&refs)?;
    att.scale_in_place(scale);
    // Decode-phase mask is all zeros, so `softmax(att + mask)` is just the
    // softmax.
    att.softmax_rows();

    // Phase 2: per-block partial outputs, summed
    // (`output += fqm(att[block], V_b)`).
    let mut output = Matrix::zeros(queries.rows(), cache.head_dim());
    let mut col = 0usize;
    for &(_, idx) in &processed {
        let chunk = &cache.chunks()[idx];
        let len = chunk.token_len();
        if len == 0 {
            continue;
        }
        let probs = att.slice_cols(col, col + len);
        let partial = if chunk.outlier_count() > 0 {
            probs.matmul(&chunk.value_matrix())?
        } else {
            match chunk.storage() {
                ChunkStorage::Fp16 { v, .. } => probs.matmul(v)?,
                ChunkStorage::Quantized { v, .. } => gemm::fp_matmul_quant(&probs, v)?,
            }
        };
        output.add_assign(&partial)?;
        col += len;
    }
    if fp16_extra > 0 {
        let extra_v = Matrix::concat_rows(&[remainder_v, tail_v])?;
        let probs = att.slice_cols(col, col + fp16_extra);
        output.add_assign(&probs.matmul(&extra_v)?)?;
    }

    Ok(GroupedAttention {
        output,
        probabilities: att,
        block_tokens,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CocktailConfig;
    use crate::reorder::apply_plan;
    use crate::search::ChunkQuantSearch;
    use cocktail_kvcache::ChunkSegmentation;
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

    #[test]
    fn grouped_attention_matches_generic_attention() {
        let mut cache = build_cache(130, 32, 1); // 4 chunks + remainder of 2
                                                 // alpha = 0.6, beta = 0.1 over range [0.05, 0.9]: T_low = 0.56,
                                                 // T_high = 0.815, so the assignment is [Int2, Fp16, Int4, Int2].
        let plan = plan_from(&[0.05, 0.9, 0.6, 0.1]);
        apply_plan(&mut cache, &plan, 32, true).unwrap();
        cache.append_decode_token(&[0.1; 16], &[0.2; 16]).unwrap();

        let q = rng::gaussian_matrix(1, 16, 1.0, 9);
        let scale = 0.25;
        let grouped = grouped_attend(&cache, &q, scale).unwrap();
        let generic = cache.attend(&q, scale).unwrap();
        assert!(grouped.output.max_abs_diff(&generic.output).unwrap() < 1e-4);
        assert_eq!(grouped.total_tokens(), 131);
        assert_eq!(grouped.block_tokens[0], 64); // two INT2 chunks
        assert_eq!(grouped.block_tokens[3], 32 + 2 + 1); // FP16 chunk + remainder + tail
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

        assert!(
            out_reordered
                .output
                .max_abs_diff(&out_in_place.output)
                .unwrap()
                < 1e-4
        );
    }

    #[test]
    fn all_fp16_grouped_attention_matches_dense_reference() {
        let cache = build_cache(96, 32, 11);
        let q = rng::gaussian_matrix(2, 16, 1.0, 13);
        let scale = 0.3;
        let grouped = grouped_attend(&cache, &q, scale).unwrap();

        let k = cache.full_key_matrix();
        let v = cache.full_value_matrix();
        let mut scores = q.matmul_transposed(&k).unwrap();
        scores.scale_in_place(scale);
        scores.softmax_rows();
        let reference = scores.matmul(&v).unwrap();
        assert!(grouped.output.max_abs_diff(&reference).unwrap() < 1e-4);
        assert_eq!(grouped.block_tokens, [0, 0, 0, 96]);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut cache = build_cache(64, 16, 17);
        let plan = plan_from(&[0.1, 0.9, 0.5, 0.2]);
        apply_plan(&mut cache, &plan, 16, true).unwrap();
        let q = rng::gaussian_matrix(3, 16, 1.0, 19);
        let grouped = grouped_attend(&cache, &q, 0.25).unwrap();
        for r in 0..3 {
            let sum: f32 = grouped.probabilities.row(r).iter().sum();
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
            .unwrap()
            .output;

        // Case A: quantize everything except chunk 1 to INT2.
        let mut keep_relevant = ChunkedLayerCache::from_prefill(&k, &v, &seg).unwrap();
        for i in [0usize, 2, 3] {
            keep_relevant.quantize_chunk(i, Bitwidth::Int2, 32).unwrap();
        }
        let err_keep = grouped_attend(&keep_relevant, &q, scale)
            .unwrap()
            .output
            .max_abs_diff(&reference)
            .unwrap();

        // Case B: quantize the relevant chunk 1 to INT2, keep the rest FP16.
        let mut drop_relevant = ChunkedLayerCache::from_prefill(&k, &v, &seg).unwrap();
        drop_relevant.quantize_chunk(1, Bitwidth::Int2, 32).unwrap();
        let err_drop = grouped_attend(&drop_relevant, &q, scale)
            .unwrap()
            .output
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
            chunk_scores in proptest::collection::vec(0.0f32..1.0, 2..6),
        ) {
            let chunks = chunk_scores.len();
            let tokens = chunks * 16 + 3;
            let mut cache = build_cache(tokens, 16, seed);
            let plan = plan_from(&chunk_scores);
            apply_plan(&mut cache, &plan, 16, true).unwrap();
            let q = rng::gaussian_matrix(1, 16, 1.0, seed + 100);
            let grouped = grouped_attend(&cache, &q, 0.25).unwrap();
            let generic = cache.attend(&q, 0.25).unwrap();
            prop_assert!(grouped.output.max_abs_diff(&generic.output).unwrap() < 1e-3);
        }
    }
}
