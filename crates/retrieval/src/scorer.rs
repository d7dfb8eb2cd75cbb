//! The chunk-scoring interface used by the quantization search module.

use crate::dense::{AdaSim, LlmEmbedderSim};
use crate::{Bm25, ContrieverSim};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Scores context chunks against a query.
///
/// Higher scores mean "more relevant to the query"; the Cocktail search
/// module only compares scores from the *same* scorer against each other
/// (its thresholds are defined relative to the per-query score range), so
/// scorers are free to use any monotone scale. Dense encoders return cosine
/// similarities in `[-1, 1]`; BM25 returns unbounded non-negative scores.
pub trait ChunkScorer {
    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;

    /// Scores every chunk against the query. The returned vector has one
    /// entry per chunk, in order.
    fn score(&self, query: &str, chunks: &[String]) -> Vec<f32>;
}

/// The encoder families compared in Table IV of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EncoderKind {
    /// Stand-in for OpenAI ADA-002 embeddings.
    Ada002,
    /// Classical BM25 lexical scoring.
    Bm25,
    /// Stand-in for the LLM-Embedder model.
    LlmEmbedder,
    /// Stand-in for Facebook-Contriever (the paper's choice).
    Contriever,
}

impl EncoderKind {
    /// All encoder kinds in the order of the paper's Table IV.
    pub const ALL: [EncoderKind; 4] = [
        EncoderKind::Ada002,
        EncoderKind::Bm25,
        EncoderKind::LlmEmbedder,
        EncoderKind::Contriever,
    ];

    /// Instantiates the scorer for this encoder kind.
    pub fn build(self) -> Box<dyn ChunkScorer> {
        match self {
            EncoderKind::Ada002 => Box::new(AdaSim::new()),
            EncoderKind::Bm25 => Box::new(Bm25::new()),
            EncoderKind::LlmEmbedder => Box::new(LlmEmbedderSim::new()),
            EncoderKind::Contriever => Box::new(ContrieverSim::new()),
        }
    }

    /// Display name matching the paper's tables.
    pub const fn name(self) -> &'static str {
        match self {
            EncoderKind::Ada002 => "ADA-002",
            EncoderKind::Bm25 => "BM25",
            EncoderKind::LlmEmbedder => "LLM Embedder",
            EncoderKind::Contriever => "Facebook-Contriever",
        }
    }
}

impl fmt::Display for EncoderKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_build_and_score() {
        let chunks = vec![
            "the cat sat on the mat".to_string(),
            "quantum entanglement of qubits".to_string(),
        ];
        for kind in EncoderKind::ALL {
            let scorer = kind.build();
            let scores = scorer.score("tell me about qubits", &chunks);
            assert_eq!(scores.len(), 2, "{kind} returned wrong length");
            assert!(scores.iter().all(|s| s.is_finite()));
        }
    }

    #[test]
    fn names_match_paper_table() {
        assert_eq!(EncoderKind::Contriever.to_string(), "Facebook-Contriever");
        assert_eq!(EncoderKind::Ada002.to_string(), "ADA-002");
        assert_eq!(EncoderKind::ALL.len(), 4);
    }

    #[test]
    fn scorer_trait_is_object_safe() {
        let scorers: Vec<Box<dyn ChunkScorer>> =
            EncoderKind::ALL.iter().map(|k| k.build()).collect();
        assert_eq!(scorers.len(), 4);
    }
}
