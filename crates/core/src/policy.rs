//! Cocktail as a [`CachePolicy`], pluggable wherever the baselines are.

use crate::config::CocktailConfig;
use crate::error::CocktailError;
use crate::reorder::apply_plan;
use crate::search::{BitwidthPlan, ChunkQuantSearch};
use cocktail_baselines::{
    CachePolicy, PolicyContext, PolicyError, PolicyReport, SearchGranularity,
};
use cocktail_kvcache::{ChunkedKvCache, ChunkedLayerCache};

/// The Cocktail cache policy: chunk-level quantization search followed by
/// chunk reordering and mixed-precision quantization.
///
/// The policy consumes the [`PolicyContext`]: the configured encoder scores
/// `chunk_texts` against `query`. On a whole-model cache
/// ([`CachePolicy::apply`]) Module I runs once per request and Module II
/// applies that one plan to every `(layer, KV-head)` slot, as in the paper.
/// With Module I disabled the relevance-blind fallback plan is used, and
/// with Module II disabled chunks are quantized in logical order without
/// reordering — the two ablations of Table V.
///
/// # Example
///
/// ```
/// use cocktail_baselines::{CachePolicy, PolicyContext};
/// use cocktail_core::{CocktailConfig, CocktailPolicy};
/// use cocktail_kvcache::{ChunkSegmentation, ChunkedLayerCache};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let k = cocktail_tensor::rng::gaussian_matrix(96, 16, 1.0, 1);
/// let v = cocktail_tensor::rng::gaussian_matrix(96, 16, 1.0, 2);
/// let seg = ChunkSegmentation::new(96, 32)?;
/// let mut cache = ChunkedLayerCache::from_prefill(&k, &v, &seg)?;
///
/// let policy = CocktailPolicy::new(CocktailConfig::default())?;
/// let ctx = PolicyContext::new(
///     vec!["filler one".into(), "the launch code is omega".into(), "filler two".into()],
///     "what is the launch code?",
/// );
/// let report = policy.apply_layer(&mut cache, &ctx)?;
/// assert_eq!(report.total_chunks(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CocktailPolicy {
    config: CocktailConfig,
    search: ChunkQuantSearch,
}

impl CocktailPolicy {
    /// Creates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`CocktailError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(config: CocktailConfig) -> Result<Self, CocktailError> {
        config.validate()?;
        let search = ChunkQuantSearch::new(config.clone());
        Ok(Self { config, search })
    }

    /// Computes the bitwidth plan for a request, honouring the Module I
    /// switch.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::InvalidInput`] if the number of chunk texts
    /// does not match `chunk_count`.
    pub(crate) fn plan_for(
        &self,
        ctx: &PolicyContext,
        chunk_count: usize,
    ) -> Result<BitwidthPlan, PolicyError> {
        if !self.config.enable_search {
            return Ok(self.search.plan_without_search(chunk_count));
        }
        if ctx.chunk_texts.len() != chunk_count {
            return Err(PolicyError::InvalidInput(format!(
                "{} chunk texts for {} cache chunks",
                ctx.chunk_texts.len(),
                chunk_count
            )));
        }
        self.search
            .plan(&ctx.query, &ctx.chunk_texts)
            .map_err(|e| PolicyError::InvalidInput(e.to_string()))
    }

    /// The report for `plan` applied to `slots` cache slots: the search ran
    /// once, every slot holds the plan's chunks.
    fn report_for(&self, plan: &BitwidthPlan, slots: usize) -> PolicyReport {
        let search = if self.config.enable_search {
            SearchGranularity::ChunkLevel {
                chunks: plan.assignments().len(),
            }
        } else {
            SearchGranularity::None
        };
        let mut report = PolicyReport::new(self.name(), search);
        for &bw in plan.assignments() {
            report.record_chunks(bw, slots);
        }
        report
    }
}

impl CachePolicy for CocktailPolicy {
    fn name(&self) -> &'static str {
        "Cocktail"
    }

    fn apply_layer(
        &self,
        cache: &mut ChunkedLayerCache,
        ctx: &PolicyContext,
    ) -> Result<PolicyReport, PolicyError> {
        let plan = self.plan_for(ctx, cache.chunk_count())?;
        apply_plan(
            cache,
            &plan,
            self.config.group_size,
            self.config.enable_reorder,
        )?;
        Ok(self.report_for(&plan, 1))
    }

    /// Plans once from the first populated slot's chunk count and applies
    /// that plan to every slot.
    fn apply(
        &self,
        cache: &mut ChunkedKvCache,
        ctx: &PolicyContext,
    ) -> Result<PolicyReport, PolicyError> {
        let chunk_count = cache
            .iter()
            .next()
            .map_or(0, |(_, _, slot)| slot.chunk_count());
        let plan = self.plan_for(ctx, chunk_count)?;
        let mut slots = 0;
        cache.try_for_each_mut(|_, _, slot| {
            slots += 1;
            apply_plan(
                slot,
                &plan,
                self.config.group_size,
                self.config.enable_reorder,
            )
        })?;
        Ok(self.report_for(&plan, slots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_kvcache::ChunkSegmentation;
    use cocktail_quant::Bitwidth;
    use cocktail_tensor::rng;

    fn layer_cache(tokens: usize, chunk: usize, seed: u64) -> ChunkedLayerCache {
        let k = rng::gaussian_matrix(tokens, 16, 1.0, seed);
        let v = rng::gaussian_matrix(tokens, 16, 1.0, seed + 1);
        let seg = ChunkSegmentation::new(tokens, chunk).unwrap();
        ChunkedLayerCache::from_prefill(&k, &v, &seg).unwrap()
    }

    fn needle_context(chunks: usize, needle_at: usize) -> (Vec<String>, String) {
        let texts: Vec<String> = (0..chunks)
            .map(|i| {
                if i == needle_at {
                    "the reactor override phrase is silver heron nine two".to_string()
                } else {
                    format!("maintenance entry {i} listing routine checks of pumps valves filters and gauges")
                }
            })
            .collect();
        (texts, "what is the reactor override phrase?".to_string())
    }

    #[test]
    fn relevant_chunk_keeps_fp16_and_most_go_int2() {
        let mut cache = layer_cache(8 * 32, 32, 1);
        let (texts, query) = needle_context(8, 5);
        let policy = CocktailPolicy::new(CocktailConfig::default()).unwrap();
        let ctx = PolicyContext::new(texts, query);
        let report = policy.apply_layer(&mut cache, &ctx).unwrap();

        assert_eq!(report.total_chunks(), 8);
        assert!(report.chunks_at(Bitwidth::Fp16) >= 1);
        assert!(report.chunks_at(Bitwidth::Int2) >= 4);
        // The needle chunk (logical index 5) stays FP16.
        let needle_chunk = cache
            .chunks()
            .iter()
            .find(|c| c.logical_index() == 5)
            .unwrap();
        assert_eq!(needle_chunk.bitwidth(), Bitwidth::Fp16);
        assert_eq!(report.search, SearchGranularity::ChunkLevel { chunks: 8 });
    }

    #[test]
    fn reordering_groups_chunks_by_precision() {
        let mut cache = layer_cache(8 * 32, 32, 3);
        let (texts, query) = needle_context(8, 2);
        let policy = CocktailPolicy::new(CocktailConfig::default()).unwrap();
        policy
            .apply_layer(&mut cache, &PolicyContext::new(texts, query))
            .unwrap();
        let widths: Vec<Bitwidth> = cache.chunks().iter().map(|c| c.bitwidth()).collect();
        let mut sorted = widths.clone();
        sorted.sort();
        assert_eq!(widths, sorted);
    }

    #[test]
    fn without_reorder_logical_order_is_preserved() {
        let mut cache = layer_cache(6 * 32, 32, 5);
        let (texts, query) = needle_context(6, 0);
        let policy = CocktailPolicy::new(CocktailConfig::default().with_reorder(false)).unwrap();
        policy
            .apply_layer(&mut cache, &PolicyContext::new(texts, query))
            .unwrap();
        let logical: Vec<usize> = cache.chunks().iter().map(|c| c.logical_index()).collect();
        assert_eq!(logical, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn without_search_assignment_ignores_the_query() {
        let mut cache = layer_cache(10 * 32, 32, 7);
        let (texts, query) = needle_context(10, 9);
        let policy = CocktailPolicy::new(CocktailConfig::default().with_search(false)).unwrap();
        let report = policy
            .apply_layer(&mut cache, &PolicyContext::new(texts, query))
            .unwrap();
        assert_eq!(report.search, SearchGranularity::None);
        // The relevance-blind pattern puts FP16 at logical chunk 0, not at
        // the needle chunk 9.
        let chunk9 = cache
            .chunks()
            .iter()
            .find(|c| c.logical_index() == 9)
            .unwrap();
        assert_ne!(chunk9.bitwidth(), Bitwidth::Fp16);
    }

    #[test]
    fn mismatched_inputs_are_rejected() {
        let mut cache = layer_cache(4 * 32, 32, 11);
        let policy = CocktailPolicy::new(CocktailConfig::default()).unwrap();
        let bad_texts = PolicyContext::new(vec!["one".into()], "q");
        assert!(policy.apply_layer(&mut cache, &bad_texts).is_err());
    }

    #[test]
    fn whole_model_apply_scores_once_and_covers_all_layers() {
        let mut cache = ChunkedKvCache::new(2, 2);
        for layer in 0..2 {
            for head in 0..2 {
                cache.set(
                    layer,
                    head,
                    layer_cache(6 * 32, 32, (layer * 2 + head) as u64),
                );
            }
        }
        let (texts, query) = needle_context(6, 4);
        let policy = CocktailPolicy::new(CocktailConfig::default()).unwrap();
        let report = policy
            .apply(
                &mut cache,
                &PolicyContext::new(texts.clone(), query.clone()),
            )
            .unwrap();
        // 6 chunks × 4 slots.
        assert_eq!(report.total_chunks(), 24);
        assert!(cache.total_storage_bytes() < cache.total_fp16_reference_bytes());
        // Every slot holds the one plan Module I makes for the request.
        let plan = ChunkQuantSearch::new(CocktailConfig::default())
            .plan(&query, &texts)
            .unwrap();
        for (_, _, slot) in cache.iter() {
            let mut logical = vec![Bitwidth::Fp16; slot.chunk_count()];
            for chunk in slot.chunks() {
                logical[chunk.logical_index()] = chunk.bitwidth();
            }
            assert_eq!(logical, plan.assignments());
        }
        for bw in [Bitwidth::Fp16, Bitwidth::Int4, Bitwidth::Int2] {
            assert_eq!(report.chunks_at(bw), plan.count(bw) * 4);
        }
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let bad = CocktailConfig {
            alpha: 2.0,
            ..CocktailConfig::default()
        };
        assert!(CocktailPolicy::new(bad).is_err());
    }
}
