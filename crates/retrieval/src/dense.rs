//! Deterministic dense chunk encoders.
//!
//! The encoders hash word unigrams and bigrams into a fixed-width feature
//! space, weight them by an inverse-document-frequency estimate computed
//! over the chunk set being scored, and L2-normalise — a classical hashed
//! TF-IDF embedding. Query/chunk relevance is the cosine similarity of
//! those embeddings.
//!
//! Three presets model the encoder-quality ordering of the paper's
//! Table IV: [`ContrieverSim`] (wide feature space, IDF-weighted),
//! [`LlmEmbedderSim`] (narrower space, mild seeded noise) and [`AdaSim`]
//! (narrow space, no IDF, stronger noise). The widths and noise levels are
//! chosen only to order the retrieval quality, not to mimic any particular
//! proprietary model.

use crate::chunking::split_words;
use crate::scorer::ChunkScorer;
use cocktail_tensor::cosine_similarity;
use std::collections::HashMap;

/// A configurable hashed TF-IDF dense encoder.
///
/// # Example
///
/// ```
/// use cocktail_retrieval::{ChunkScorer, DenseEncoder};
///
/// let encoder = DenseEncoder::new("demo", 256, true, true, 0.0, 7);
/// let chunks = vec![
///     "apollo landed on the moon".to_string(),
///     "recipes for sourdough bread".to_string(),
/// ];
/// let scores = encoder.score("moon landing", &chunks);
/// assert!(scores[0] > scores[1]);
/// ```
#[derive(Debug, Clone)]
pub struct DenseEncoder {
    name: &'static str,
    dim: usize,
    use_idf: bool,
    use_bigrams: bool,
    noise: f32,
    seed: u64,
}

impl DenseEncoder {
    /// Creates an encoder.
    ///
    /// * `dim` — width of the hashed feature space (larger = fewer
    ///   collisions = better retrieval).
    /// * `use_idf` — weight features by inverse document frequency over the
    ///   chunk set.
    /// * `use_bigrams` — include word-bigram features.
    /// * `noise` — standard deviation of deterministic pseudo-noise added to
    ///   each embedding dimension (degrades quality).
    /// * `seed` — seed for the hashing and the pseudo-noise.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(
        name: &'static str,
        dim: usize,
        use_idf: bool,
        use_bigrams: bool,
        noise: f32,
        seed: u64,
    ) -> Self {
        assert!(dim > 0, "embedding dimension must be nonzero");
        Self {
            name,
            dim,
            use_idf,
            use_bigrams,
            noise,
            seed,
        }
    }

    /// Number of independent hash rows per feature (count-sketch style).
    /// With a single row, one unlucky bucket collision between a rare
    /// query-defining term and an opposite-signed rare term can cancel the
    /// whole retrieval signal for a chunk; spreading each feature over four
    /// independently hashed buckets bounds the damage of any single
    /// collision to a quarter of the feature's energy.
    const HASH_ROWS: u64 = 4;

    /// One FNV-1a pass over the feature bytes; the per-row buckets are
    /// derived from this digest so the string is hashed only once.
    fn feature_digest(&self, feature: &str) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in feature.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    /// Bucket and sign for one count-sketch row: a SplitMix64 finalizer over
    /// the row-salted digest gives independently mixed bits per row; low
    /// bits pick the bucket, one higher bit picks the sign (signed hashing
    /// reduces collision bias).
    fn row_bucket(&self, digest: u64, row: u64) -> (usize, f32) {
        let mut z = digest ^ row.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let bucket = (z % self.dim as u64) as usize;
        let sign = if (z >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        (bucket, sign)
    }

    fn features(&self, text: &str) -> Vec<String> {
        let words = split_words(text);
        // Keep multi-character words and numeric tokens; single punctuation
        // characters carry no retrieval signal.
        let mut feats: Vec<String> = words
            .iter()
            .filter(|w| w.len() > 1 || w.chars().all(|c| c.is_ascii_digit()))
            .cloned()
            .collect();
        if self.use_bigrams {
            for pair in words.windows(2) {
                feats.push(format!("{}_{}", pair[0], pair[1]));
            }
        }
        feats
    }

    /// Embeds a single text given externally computed IDF weights (pass an
    /// empty map to fall back to uniform weights).
    pub(crate) fn embed_with_idf(&self, text: &str, idf: &HashMap<String, f32>) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        // Aggregate term frequencies first (in first-occurrence order, so
        // accumulation order stays deterministic) so each unique feature is
        // hashed and scattered once, however often it repeats.
        let mut counts: Vec<(String, f32)> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        for feat in self.features(text) {
            match index.entry(feat) {
                std::collections::hash_map::Entry::Occupied(e) => counts[*e.get()].1 += 1.0,
                std::collections::hash_map::Entry::Vacant(e) => {
                    counts.push((e.key().clone(), 1.0));
                    e.insert(counts.len() - 1);
                }
            }
        }
        for (feat, count) in counts {
            let weight = if self.use_idf {
                *idf.get(&feat).unwrap_or(&1.0)
            } else {
                1.0
            };
            // Normalising by sqrt(rows) keeps a feature's total energy (and
            // therefore matched-feature dot products) identical to the
            // single-row scheme.
            let row_weight = count * weight / (Self::HASH_ROWS as f32).sqrt();
            let digest = self.feature_digest(&feat);
            for row in 0..Self::HASH_ROWS {
                let (bucket, sign) = self.row_bucket(digest, row);
                v[bucket] += sign * row_weight;
            }
        }
        if self.noise > 0.0 {
            // Deterministic pseudo-noise derived from the text so repeated
            // calls stay reproducible.
            let mut h: u64 = self.seed;
            for b in text.as_bytes() {
                h = h
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(u64::from(*b));
            }
            for (i, slot) in v.iter_mut().enumerate() {
                h = h.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                let r = ((h >> 33) as f32 / (1u64 << 31) as f32) - 0.5;
                *slot += r * self.noise;
            }
        }
        let norm = cocktail_tensor::l2_norm(&v);
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        v
    }

    /// Embeds a single text with uniform feature weights (no corpus IDF).
    pub fn embed(&self, text: &str) -> Vec<f32> {
        self.embed_with_idf(text, &HashMap::new())
    }

    fn idf_over(&self, chunks: &[String]) -> HashMap<String, f32> {
        let mut df: HashMap<String, usize> = HashMap::new();
        for chunk in chunks {
            let mut feats = self.features(chunk);
            feats.sort();
            feats.dedup();
            for f in feats {
                *df.entry(f).or_insert(0) += 1;
            }
        }
        let n = chunks.len().max(1) as f32;
        // Squared IDF sharpens the contrast between rare, query-defining
        // terms and ubiquitous filler vocabulary. This mimics the large
        // relevant/irrelevant similarity margin a contrastively trained
        // dense encoder (such as Contriever) produces — the margin visible
        // in Figure 1 of the paper — which plain TF-IDF underestimates.
        df.into_iter()
            .map(|(f, count)| {
                let idf = (1.0 + n / (1.0 + count as f32)).ln();
                (f, idf * idf)
            })
            .collect()
    }
}

impl ChunkScorer for DenseEncoder {
    fn name(&self) -> &'static str {
        self.name
    }

    fn score(&self, query: &str, chunks: &[String]) -> Vec<f32> {
        let idf = if self.use_idf {
            self.idf_over(chunks)
        } else {
            HashMap::new()
        };
        let q = self.embed_with_idf(query, &idf);
        chunks
            .iter()
            .map(|c| cosine_similarity(&q, &self.embed_with_idf(c, &idf)))
            .collect()
    }
}

/// Stand-in for the Facebook-Contriever encoder — the paper's choice and
/// the highest-quality scorer in this reproduction.
#[derive(Debug, Clone)]
pub struct ContrieverSim(DenseEncoder);

impl ContrieverSim {
    /// Creates the encoder with its standard parameters.
    pub fn new() -> Self {
        Self(DenseEncoder::new(
            "contriever-sim",
            1024,
            true,
            false,
            0.0,
            0xC04,
        ))
    }

    /// Access to the underlying dense encoder (for embedding inspection).
    pub fn encoder(&self) -> &DenseEncoder {
        &self.0
    }
}

impl Default for ContrieverSim {
    fn default() -> Self {
        Self::new()
    }
}

impl ChunkScorer for ContrieverSim {
    fn name(&self) -> &'static str {
        "Facebook-Contriever"
    }
    fn score(&self, query: &str, chunks: &[String]) -> Vec<f32> {
        self.0.score(query, chunks)
    }
}

/// Stand-in for the LLM-Embedder model: slightly narrower feature space and
/// mild noise, so its retrieval quality sits just below Contriever.
#[derive(Debug, Clone)]
pub(crate) struct LlmEmbedderSim(DenseEncoder);

impl LlmEmbedderSim {
    /// Creates the encoder with its standard parameters.
    pub fn new() -> Self {
        Self(DenseEncoder::new(
            "llm-embedder-sim",
            256,
            true,
            false,
            0.02,
            0x11E,
        ))
    }
}

impl Default for LlmEmbedderSim {
    fn default() -> Self {
        Self::new()
    }
}

impl ChunkScorer for LlmEmbedderSim {
    fn name(&self) -> &'static str {
        "LLM Embedder"
    }
    fn score(&self, query: &str, chunks: &[String]) -> Vec<f32> {
        self.0.score(query, chunks)
    }
}

/// Stand-in for ADA-002 embeddings: narrow feature space, no IDF weighting
/// and stronger noise, so it ranks below the other dense encoders on the
/// synthetic tasks (matching its position in the paper's Table IV).
#[derive(Debug, Clone)]
pub(crate) struct AdaSim(DenseEncoder);

impl AdaSim {
    /// Creates the encoder with its standard parameters.
    pub fn new() -> Self {
        Self(DenseEncoder::new(
            "ada-002-sim",
            96,
            false,
            false,
            0.05,
            0xADA,
        ))
    }
}

impl Default for AdaSim {
    fn default() -> Self {
        Self::new()
    }
}

impl ChunkScorer for AdaSim {
    fn name(&self) -> &'static str {
        "ADA-002"
    }
    fn score(&self, query: &str, chunks: &[String]) -> Vec<f32> {
        self.0.score(query, chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_chunks() -> Vec<String> {
        vec![
            "the weather in the mountains was cold and windy all week".to_string(),
            "the launch access code is delta-seven-three stored in the vault".to_string(),
            "our quarterly revenue grew by twelve percent over last year".to_string(),
            "a recipe for lentil soup with cumin garlic and fresh coriander".to_string(),
        ]
    }

    #[test]
    fn relevant_chunk_scores_highest() {
        let scorer = ContrieverSim::new();
        let scores = scorer.score("what is the launch access code?", &sample_chunks());
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 1);
    }

    #[test]
    fn scores_are_deterministic() {
        let scorer = ContrieverSim::new();
        let a = scorer.score("revenue growth", &sample_chunks());
        let b = scorer.score("revenue growth", &sample_chunks());
        assert_eq!(a, b);
    }

    #[test]
    fn scores_are_cosine_bounded() {
        for scorer in [
            Box::new(ContrieverSim::new()) as Box<dyn ChunkScorer>,
            Box::new(LlmEmbedderSim::new()),
            Box::new(AdaSim::new()),
        ] {
            let scores = scorer.score("lentil soup recipe", &sample_chunks());
            assert!(scores.iter().all(|s| (-1.01..=1.01).contains(s)));
        }
    }

    #[test]
    fn empty_chunk_list_gives_empty_scores() {
        let scorer = ContrieverSim::new();
        assert!(scorer.score("anything", &[]).is_empty());
    }

    #[test]
    fn empty_text_embeds_to_zero_vector() {
        let enc = DenseEncoder::new("t", 64, true, true, 0.0, 1);
        let v = enc.embed("");
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let enc = ContrieverSim::new();
        let v = enc.encoder().embed("the moon is made of rock");
        let norm = cocktail_tensor::l2_norm(&v);
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn idf_downweights_common_words() {
        // Query made only of words common to all chunks should not strongly
        // prefer any chunk under the IDF-weighted encoder.
        let chunks = vec![
            "the report about the project".to_string(),
            "the report about the budget".to_string(),
            "the report about the zebra migration".to_string(),
        ];
        let scorer = ContrieverSim::new();
        let scores = scorer.score("zebra migration", &chunks);
        assert!(scores[2] > scores[0] && scores[2] > scores[1]);
    }

    #[test]
    fn encoder_quality_ordering_on_needle_retrieval() {
        // Build a retrieval benchmark with many filler chunks and one
        // needle; measure how often each encoder ranks the needle first.
        let mut filler: Vec<String> = (0..30)
            .map(|i| {
                format!(
                    "section {i} routine update covering logistics schedule planning \
                     inventory maintenance personnel catering transport rotation"
                )
            })
            .collect();
        let queries: Vec<(usize, String, String)> = (0..12)
            .map(|q| {
                let code = format!("secret-token-{q}");
                let needle = format!("classified entry: the access phrase for gate {q} is {code}");
                (
                    q,
                    format!("what is the access phrase for gate {q}?"),
                    needle,
                )
            })
            .collect();

        let mut hits = std::collections::HashMap::new();
        for (q, query, needle) in &queries {
            let mut chunks = filler.clone();
            let needle_pos = q % filler.len();
            chunks[needle_pos] = needle.clone();
            for (name, scorer) in [
                (
                    "contriever",
                    Box::new(ContrieverSim::new()) as Box<dyn ChunkScorer>,
                ),
                ("llm-embedder", Box::new(LlmEmbedderSim::new())),
                ("ada", Box::new(AdaSim::new())),
            ] {
                let scores = scorer.score(query, &chunks);
                let best = scores
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .unwrap()
                    .0;
                if best == needle_pos {
                    *hits.entry(name).or_insert(0usize) += 1;
                }
            }
        }
        // Rotate filler so the borrow checker is happy about reuse above.
        filler.rotate_left(1);
        let contriever = *hits.get("contriever").unwrap_or(&0);
        let ada = *hits.get("ada").unwrap_or(&0);
        assert!(
            contriever >= ada,
            "contriever-sim ({contriever}) should be at least as good as ada-sim ({ada})"
        );
        assert!(
            contriever >= 10,
            "contriever-sim should almost always find the needle"
        );
    }
}
