//! The KVQuant baseline: token-level mixed-precision quantization.

use crate::policy::{CachePolicy, PolicyContext, PolicyError, PolicyReport, SearchGranularity};
use cocktail_kvcache::ChunkedLayerCache;
use cocktail_quant::{Bitwidth, QuantConfig};

/// KVQuant-style token-level mixed precision: a per-token importance scan
/// identifies the small fraction of tokens whose keys carry outlier
/// magnitudes, keeps those tokens' KV at FP16 (a dense-and-sparse
/// decomposition), and quantizes everything else to INT4.
///
/// The importance scan touches every cached token in every layer, which is
/// the "token-level quantization search" the paper identifies as slow; the
/// [`PolicyReport::search`] field records it as
/// [`SearchGranularity::TokenLevel`] so the hardware model can charge for
/// it.
///
/// # Example
///
/// ```
/// use cocktail_baselines::{CachePolicy, KvQuantPolicy, PolicyContext};
/// use cocktail_kvcache::{ChunkSegmentation, ChunkedLayerCache};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let k = cocktail_tensor::rng::gaussian_matrix(128, 16, 1.0, 1);
/// let v = cocktail_tensor::rng::gaussian_matrix(128, 16, 1.0, 2);
/// let seg = ChunkSegmentation::new(128, 32)?;
/// let mut cache = ChunkedLayerCache::from_prefill(&k, &v, &seg)?;
/// let report = KvQuantPolicy::default().apply_layer(&mut cache, &PolicyContext::empty())?;
/// assert!(report.outlier_tokens >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvQuantPolicy {
    bitwidth: Bitwidth,
    group_size: usize,
    outlier_fraction: f32,
}

impl KvQuantPolicy {
    /// Creates the policy.
    ///
    /// `outlier_fraction` is the fraction of context tokens (per layer,
    /// per KV head) whose KV stays at FP16; the paper uses 1 %.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::InvalidInput`] for an FP16 bitwidth, a zero
    /// group size, or an outlier fraction outside `[0, 1]`.
    pub fn new(
        bitwidth: Bitwidth,
        group_size: usize,
        outlier_fraction: f32,
    ) -> Result<Self, PolicyError> {
        if bitwidth.is_float() {
            return Err(PolicyError::InvalidInput(
                "KVQuant requires an integer bitwidth".into(),
            ));
        }
        if group_size == 0 {
            return Err(PolicyError::InvalidInput(
                "group size must be nonzero".into(),
            ));
        }
        if !(0.0..=1.0).contains(&outlier_fraction) {
            return Err(PolicyError::InvalidInput(format!(
                "outlier fraction {outlier_fraction} must be in [0, 1]"
            )));
        }
        Ok(Self {
            bitwidth,
            group_size,
            outlier_fraction,
        })
    }

    /// Fraction of tokens kept at FP16.
    pub fn outlier_fraction(&self) -> f32 {
        self.outlier_fraction
    }

    /// The token-level importance scan: scores every context token by the
    /// infinity norm of its key vector (the outlier signal KVQuant keys on)
    /// and returns the indices of the top `outlier_fraction` tokens,
    /// grouped per chunk.
    fn find_outliers(&self, cache: &ChunkedLayerCache) -> Vec<Vec<usize>> {
        let chunk_count = cache.chunk_count();
        let mut scored: Vec<(f32, usize, usize)> = Vec::new(); // (score, chunk, row)
        for (chunk_idx, chunk) in cache.chunks().iter().enumerate() {
            let k = chunk.key_matrix();
            for row in 0..k.rows() {
                let score = k.row(row).iter().fold(0.0f32, |m, v| m.max(v.abs()));
                scored.push((score, chunk_idx, row));
            }
        }
        let total_tokens = scored.len();
        let keep =
            ((total_tokens as f32 * self.outlier_fraction).ceil() as usize).min(total_tokens);
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut per_chunk = vec![Vec::new(); chunk_count];
        for &(_, chunk_idx, row) in scored.iter().take(keep) {
            per_chunk[chunk_idx].push(row);
        }
        per_chunk
    }
}

impl Default for KvQuantPolicy {
    /// The paper's configuration: INT4, default group size, 1 % outliers.
    fn default() -> Self {
        Self {
            bitwidth: Bitwidth::Int4,
            group_size: QuantConfig::DEFAULT_GROUP_SIZE,
            outlier_fraction: 0.01,
        }
    }
}

impl CachePolicy for KvQuantPolicy {
    fn name(&self) -> &'static str {
        "KVQuant"
    }

    fn apply_layer(
        &self,
        cache: &mut ChunkedLayerCache,
        _ctx: &PolicyContext,
    ) -> Result<PolicyReport, PolicyError> {
        let outliers = self.find_outliers(cache);
        let scanned_tokens: usize = cache.chunks().iter().map(|c| c.token_len()).sum();
        let mut outlier_total = 0usize;
        for (chunk_idx, rows) in outliers.iter().enumerate() {
            cache.quantize_chunk_with_outliers(chunk_idx, self.bitwidth, self.group_size, rows)?;
            outlier_total += cache.chunks()[chunk_idx].outlier_count();
        }
        let mut report = PolicyReport::new(
            self.name(),
            SearchGranularity::TokenLevel {
                tokens: scanned_tokens,
            },
        );
        report.record_chunks(self.bitwidth, cache.chunk_count());
        report.outlier_tokens = outlier_total;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_kvcache::ChunkSegmentation;
    use cocktail_tensor::rng;

    fn cache(tokens: usize, chunk: usize, seed: u64) -> ChunkedLayerCache {
        let k = rng::gaussian_matrix(tokens, 16, 1.0, seed);
        let v = rng::gaussian_matrix(tokens, 16, 1.0, seed + 1);
        let seg = ChunkSegmentation::new(tokens, chunk).unwrap();
        ChunkedLayerCache::from_prefill(&k, &v, &seg).unwrap()
    }

    #[test]
    fn keeps_roughly_one_percent_of_tokens_fp16() {
        let mut c = cache(256, 32, 1);
        let report = KvQuantPolicy::default()
            .apply_layer(&mut c, &PolicyContext::empty())
            .unwrap();
        // ceil(256 * 0.01) = 3 outlier tokens.
        assert_eq!(report.outlier_tokens, 3);
        assert_eq!(report.search, SearchGranularity::TokenLevel { tokens: 256 });
    }

    #[test]
    fn outliers_are_the_largest_magnitude_tokens() {
        let mut k = rng::gaussian_matrix(64, 8, 0.1, 2);
        // Plant a huge outlier at token 17.
        for c in 0..8 {
            k.set(17, c, 100.0);
        }
        let v = rng::gaussian_matrix(64, 8, 0.1, 3);
        let seg = ChunkSegmentation::new(64, 32).unwrap();
        let mut cache = ChunkedLayerCache::from_prefill(&k, &v, &seg).unwrap();
        let policy = KvQuantPolicy::new(Bitwidth::Int4, 32, 0.02).unwrap();
        policy
            .apply_layer(&mut cache, &PolicyContext::empty())
            .unwrap();
        // Token 17 lives in chunk 0, row 17; it must be in the outlier patch.
        let chunk0 = &cache.chunks()[0];
        assert!(chunk0.outliers().unwrap().rows.contains(&17));
        // And its key must be reconstructed exactly.
        assert_eq!(chunk0.key_matrix().get(17, 0), 100.0);
    }

    #[test]
    fn accuracy_sits_between_atom_and_fp16() {
        // Mixed precision with outliers must reconstruct keys at least as
        // well as plain uniform INT4.
        let c_ref = cache(128, 32, 5);
        let reference_k = c_ref.full_key_matrix();

        let mut kvq = c_ref.clone();
        KvQuantPolicy::new(Bitwidth::Int4, 32, 0.05)
            .unwrap()
            .apply_layer(&mut kvq, &PolicyContext::empty())
            .unwrap();
        let mut atom = c_ref.clone();
        crate::AtomPolicy::default()
            .apply_layer(&mut atom, &PolicyContext::empty())
            .unwrap();

        let err_kvq = kvq.full_key_matrix().mse(&reference_k).unwrap();
        let err_atom = atom.full_key_matrix().mse(&reference_k).unwrap();
        assert!(err_kvq <= err_atom, "kvquant {err_kvq} vs atom {err_atom}");
        assert!(err_kvq > 0.0);
    }

    #[test]
    fn memory_is_slightly_above_atom() {
        let c_ref = cache(128, 32, 9);
        let mut kvq = c_ref.clone();
        KvQuantPolicy::default()
            .apply_layer(&mut kvq, &PolicyContext::empty())
            .unwrap();
        let mut atom = c_ref.clone();
        crate::AtomPolicy::default()
            .apply_layer(&mut atom, &PolicyContext::empty())
            .unwrap();
        assert!(kvq.storage_bytes() >= atom.storage_bytes());
        assert!(kvq.storage_bytes() < c_ref.storage_bytes());
    }

    #[test]
    fn rejects_invalid_configuration() {
        assert!(KvQuantPolicy::new(Bitwidth::Fp16, 32, 0.01).is_err());
        assert!(KvQuantPolicy::new(Bitwidth::Int4, 0, 0.01).is_err());
        assert!(KvQuantPolicy::new(Bitwidth::Int4, 32, 1.5).is_err());
        assert!(KvQuantPolicy::new(Bitwidth::Int4, 32, -0.1).is_err());
    }

    #[test]
    fn zero_outlier_fraction_is_plain_uniform() {
        let mut c = cache(64, 32, 11);
        let report = KvQuantPolicy::new(Bitwidth::Int4, 32, 0.0)
            .unwrap()
            .apply_layer(&mut c, &PolicyContext::empty())
            .unwrap();
        // ceil(64 * 0) = 0.
        assert_eq!(report.outlier_tokens, 0);
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(KvQuantPolicy::default().name(), "KVQuant");
        assert_eq!(KvQuantPolicy::default().outlier_fraction(), 0.01);
    }
}
