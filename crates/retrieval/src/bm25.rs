//! Classical BM25 lexical chunk scoring.

use crate::chunking::split_words;
use crate::scorer::ChunkScorer;
use std::collections::HashMap;

/// The Okapi BM25 ranking function over the chunk set being scored.
///
/// Each chunk is treated as a document; document frequencies and average
/// document length are computed over the supplied chunk list, so the scorer
/// is self-contained (no external corpus statistics).
///
/// # Example
///
/// ```
/// use cocktail_retrieval::{Bm25, ChunkScorer};
///
/// let chunks = vec![
///     "rust is a systems programming language".to_string(),
///     "bananas are yellow fruit".to_string(),
/// ];
/// let scores = Bm25::new().score("systems programming", &chunks);
/// assert!(scores[0] > scores[1]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Bm25 {
    k1: f32,
    b: f32,
}

impl Bm25 {
    /// Creates a scorer with the standard parameters `k1 = 1.2`, `b = 0.75`.
    pub fn new() -> Self {
        Self { k1: 1.2, b: 0.75 }
    }

    /// The `b` length-normalisation parameter.
    pub fn b(&self) -> f32 {
        self.b
    }
}

impl Default for Bm25 {
    fn default() -> Self {
        Self::new()
    }
}

impl ChunkScorer for Bm25 {
    fn name(&self) -> &'static str {
        "BM25"
    }

    fn score(&self, query: &str, chunks: &[String]) -> Vec<f32> {
        if chunks.is_empty() {
            return Vec::new();
        }
        let docs: Vec<Vec<String>> = chunks.iter().map(|c| split_words(c)).collect();
        let n = docs.len() as f32;
        let avg_len = docs.iter().map(|d| d.len() as f32).sum::<f32>() / n;

        // Document frequency per term.
        let mut df: HashMap<&str, usize> = HashMap::new();
        for doc in &docs {
            let mut seen: Vec<&str> = doc.iter().map(String::as_str).collect();
            seen.sort_unstable();
            seen.dedup();
            for term in seen {
                *df.entry(term).or_insert(0) += 1;
            }
        }

        let query_terms = split_words(query);
        docs.iter()
            .map(|doc| {
                let len = doc.len() as f32;
                let mut tf: HashMap<&str, f32> = HashMap::new();
                for term in doc {
                    *tf.entry(term.as_str()).or_insert(0.0) += 1.0;
                }
                query_terms
                    .iter()
                    .map(|q| {
                        let f = *tf.get(q.as_str()).unwrap_or(&0.0);
                        if f == 0.0 {
                            return 0.0;
                        }
                        let n_q = *df.get(q.as_str()).unwrap_or(&0) as f32;
                        let idf = ((n - n_q + 0.5) / (n_q + 0.5) + 1.0).ln();
                        let denom_len = if avg_len > 0.0 { len / avg_len } else { 1.0 };
                        idf * f * (self.k1 + 1.0)
                            / (f + self.k1 * (1.0 - self.b + self.b * denom_len))
                    })
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Creates a scorer with custom parameters.
    ///
    /// # Panics
    ///
    /// Panics if `k1 < 0` or `b` is outside `[0, 1]`.
    fn with_params(k1: f32, b: f32) -> Bm25 {
        assert!(k1 >= 0.0, "k1 must be non-negative");
        assert!((0.0..=1.0).contains(&b), "b must be in [0, 1]");
        Bm25 { k1, b }
    }

    fn chunks() -> Vec<String> {
        vec![
            "alpha beta gamma delta".to_string(),
            "alpha alpha alpha alpha".to_string(),
            "omega psi chi phi".to_string(),
            "beta beta alpha gamma epsilon zeta eta theta".to_string(),
        ]
    }

    #[test]
    fn exact_match_beats_no_match() {
        let scores = Bm25::new().score("omega", &chunks());
        assert!(scores[2] > scores[0]);
        assert_eq!(scores[0], 0.0);
    }

    #[test]
    fn term_frequency_saturates() {
        // Four copies of "alpha" should score higher than one, but not 4x.
        let scores = Bm25::new().score("alpha", &chunks());
        assert!(scores[1] > scores[0]);
        assert!(scores[1] < scores[0] * 4.0);
    }

    #[test]
    fn rare_terms_get_higher_idf() {
        let scores = Bm25::new().score("omega alpha", &chunks());
        // Chunk 2 has the rare term omega; chunk 1 has the common alpha.
        assert!(scores[2] > 0.0);
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert!(Bm25::new().score("anything", &[]).is_empty());
        let scores = Bm25::new().score("", &chunks());
        assert!(scores.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn scores_are_non_negative() {
        let scores = Bm25::new().score("alpha beta omega", &chunks());
        assert!(scores.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn custom_params_validate() {
        let bm = with_params(2.0, 0.5);
        assert_eq!(bm.k1, 2.0);
        assert_eq!(bm.b(), 0.5);
    }

    #[test]
    #[should_panic(expected = "b must be in")]
    fn invalid_b_panics() {
        with_params(1.2, 1.5);
    }

    proptest! {
        #[test]
        fn bm25_never_produces_nan(
            query in "[a-c ]{0,20}",
            docs in proptest::collection::vec("[a-d ]{0,30}", 0..6)
        ) {
            let docs: Vec<String> = docs;
            let scores = Bm25::new().score(&query, &docs);
            prop_assert_eq!(scores.len(), docs.len());
            prop_assert!(scores.iter().all(|s| s.is_finite()));
        }
    }
}
