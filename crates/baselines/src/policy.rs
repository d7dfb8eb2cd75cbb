//! The cache-policy interface shared by the baselines and Cocktail.

use cocktail_kvcache::{ChunkedKvCache, ChunkedLayerCache, KvCacheError};
use cocktail_quant::Bitwidth;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Error raised while applying a cache policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// The underlying KV cache rejected an operation.
    Cache(String),
    /// The policy was given an invalid configuration or context.
    InvalidInput(String),
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::Cache(d) => write!(f, "cache operation failed: {d}"),
            PolicyError::InvalidInput(d) => write!(f, "invalid policy input: {d}"),
        }
    }
}

impl Error for PolicyError {}

impl From<KvCacheError> for PolicyError {
    fn from(err: KvCacheError) -> Self {
        PolicyError::Cache(err.to_string())
    }
}

/// How much work the policy's bitwidth search performed — the quantity
/// behind the paper's claim that chunk-level search is cheaper than
/// KVQuant's token-level search (Figure 6 discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchGranularity {
    /// No search at all (uniform quantization and FP16).
    None,
    /// One encoder pass per chunk plus one for the query.
    ChunkLevel {
        /// Number of chunks scored.
        chunks: usize,
    },
    /// A scan over every cached token in every layer.
    TokenLevel {
        /// Number of token positions examined.
        tokens: usize,
    },
}

/// What the query/context looked like when the policy ran.
///
/// Uniform policies ignore it entirely; Cocktail scores the chunk texts
/// against the query once per request; KVQuant only needs the cache itself.
#[derive(Debug, Clone, Default)]
pub struct PolicyContext {
    /// Text of each context chunk, aligned with the cache's logical chunk
    /// order.
    pub chunk_texts: Vec<String>,
    /// The user query.
    pub query: String,
}

impl PolicyContext {
    /// A context carrying no information (sufficient for the uniform
    /// baselines).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Creates a context from chunk texts and a query.
    pub fn new(chunk_texts: Vec<String>, query: impl Into<String>) -> Self {
        Self {
            chunk_texts,
            query: query.into(),
        }
    }
}

/// Summary of what a policy did to a cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyReport {
    /// Policy name.
    pub policy: String,
    /// Number of chunks left at / converted to each bitwidth.
    pub chunk_bitwidths: BTreeMap<Bitwidth, usize>,
    /// Total number of tokens kept at FP16 through outlier patches
    /// (KVQuant-style), across all chunks and layers touched.
    pub outlier_tokens: usize,
    /// Search work performed.
    pub search: SearchGranularity,
}

impl PolicyReport {
    /// Creates an empty report for the given policy name.
    pub fn new(policy: impl Into<String>, search: SearchGranularity) -> Self {
        Self {
            policy: policy.into(),
            chunk_bitwidths: BTreeMap::new(),
            outlier_tokens: 0,
            search,
        }
    }

    /// Records `count` chunks at `bitwidth`.
    pub fn record_chunks(&mut self, bitwidth: Bitwidth, count: usize) {
        *self.chunk_bitwidths.entry(bitwidth).or_insert(0) += count;
    }

    /// Number of chunks recorded at the given bitwidth.
    pub fn chunks_at(&self, bitwidth: Bitwidth) -> usize {
        self.chunk_bitwidths.get(&bitwidth).copied().unwrap_or(0)
    }

    /// Total chunks recorded.
    pub fn total_chunks(&self) -> usize {
        self.chunk_bitwidths.values().sum()
    }

    /// Merges another report (e.g. per-layer reports into a model-level
    /// one). The search granularity of `other` is ignored; the receiver's
    /// is kept.
    pub(crate) fn merge(&mut self, other: &PolicyReport) {
        for (&bw, &count) in &other.chunk_bitwidths {
            self.record_chunks(bw, count);
        }
        self.outlier_tokens += other.outlier_tokens;
    }
}

/// A KV-cache quantization policy: given a freshly prefetched FP16 chunked
/// cache and the query/context, rewrite the cache in place (quantizing,
/// reordering, patching outliers) and report what was done.
pub trait CachePolicy {
    /// Human-readable policy name as used in the paper's tables
    /// (`"FP16"`, `"Atom"`, `"KIVI"`, `"KVQuant"`, `"Cocktail"`).
    fn name(&self) -> &'static str;

    /// Applies the policy to the cache of a single (layer, KV-head) pair.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] if a cache or quantization operation fails.
    fn apply_layer(
        &self,
        cache: &mut ChunkedLayerCache,
        ctx: &PolicyContext,
    ) -> Result<PolicyReport, PolicyError>;

    /// Applies the policy to every populated slot of a whole-model cache.
    ///
    /// The default implementation loops over the slots and merges the
    /// per-layer reports; the search cost is counted once (the paper's
    /// chunk-level search runs once per request, not once per layer).
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] if any slot fails.
    fn apply(
        &self,
        cache: &mut ChunkedKvCache,
        ctx: &PolicyContext,
    ) -> Result<PolicyReport, PolicyError> {
        let mut combined: Option<PolicyReport> = None;
        let mut failure: Option<PolicyError> = None;
        cache
            .try_for_each_mut(|_, _, layer| {
                if failure.is_some() {
                    return Ok(());
                }
                match self.apply_layer(layer, ctx) {
                    Ok(report) => {
                        match &mut combined {
                            Some(c) => c.merge(&report),
                            None => combined = Some(report),
                        }
                        Ok(())
                    }
                    Err(err) => {
                        failure = Some(err);
                        Ok(())
                    }
                }
            })
            .map_err(PolicyError::from)?;
        if let Some(err) = failure {
            return Err(err);
        }
        Ok(combined.unwrap_or_else(|| PolicyReport::new(self.name(), SearchGranularity::None)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_chunk_counts() {
        let mut r = PolicyReport::new("test", SearchGranularity::None);
        r.record_chunks(Bitwidth::Int2, 3);
        r.record_chunks(Bitwidth::Int2, 2);
        r.record_chunks(Bitwidth::Fp16, 1);
        assert_eq!(r.chunks_at(Bitwidth::Int2), 5);
        assert_eq!(r.chunks_at(Bitwidth::Int4), 0);
        assert_eq!(r.total_chunks(), 6);
    }

    #[test]
    fn merge_sums_counts_and_outliers() {
        let mut a = PolicyReport::new("a", SearchGranularity::ChunkLevel { chunks: 4 });
        a.record_chunks(Bitwidth::Int4, 2);
        a.outlier_tokens = 3;
        let mut b = PolicyReport::new("b", SearchGranularity::None);
        b.record_chunks(Bitwidth::Int4, 1);
        b.record_chunks(Bitwidth::Fp16, 1);
        b.outlier_tokens = 2;
        a.merge(&b);
        assert_eq!(a.chunks_at(Bitwidth::Int4), 3);
        assert_eq!(a.chunks_at(Bitwidth::Fp16), 1);
        assert_eq!(a.outlier_tokens, 5);
        assert_eq!(a.search, SearchGranularity::ChunkLevel { chunks: 4 });
    }

    #[test]
    fn context_builders_work() {
        let ctx = PolicyContext::new(vec!["a".into(), "b".into()], "q");
        assert_eq!(ctx.chunk_texts.len(), 2);
        assert_eq!(ctx.query, "q");
        assert!(PolicyContext::empty().chunk_texts.is_empty());
    }

    #[test]
    fn policy_error_display() {
        assert!(PolicyError::Cache("boom".into())
            .to_string()
            .contains("boom"));
        assert!(PolicyError::InvalidInput("alpha".into())
            .to_string()
            .contains("alpha"));
        let err: PolicyError = KvCacheError::ZeroChunkSize.into();
        assert!(matches!(err, PolicyError::Cache(_)));
    }
}
