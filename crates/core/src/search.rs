//! Module I: chunk-level quantization search.
//!
//! The search computes the cosine similarity between the query and every
//! context chunk (Eq. 1 of the paper), derives the two thresholds from the
//! score range (Eq. 2/3) and assigns a bitwidth to every chunk:
//!
//! * `score > T_high` → FP16 (highly relevant — keep full precision),
//! * `score < T_low`  → INT2 (irrelevant — compress aggressively),
//! * otherwise        → INT4 (the compromise band).

use crate::config::CocktailConfig;
use crate::error::CocktailError;
use cocktail_quant::Bitwidth;
use serde::{Deserialize, Serialize};

/// The outcome of the chunk-level quantization search for one request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BitwidthPlan {
    scores: Vec<f32>,
    t_low: f32,
    t_high: f32,
    assignments: Vec<Bitwidth>,
}

impl BitwidthPlan {
    /// The raw similarity score of every chunk.
    pub fn scores(&self) -> &[f32] {
        &self.scores
    }

    /// The bitwidth assigned to each chunk, in logical chunk order.
    pub fn assignments(&self) -> &[Bitwidth] {
        &self.assignments
    }

    /// Number of chunks assigned to the given bitwidth.
    pub fn count(&self, bitwidth: Bitwidth) -> usize {
        self.assignments.iter().filter(|&&b| b == bitwidth).count()
    }
}

/// The chunk-level quantization search module.
///
/// # Example
///
/// ```
/// use cocktail_core::{ChunkQuantSearch, CocktailConfig};
///
/// # fn main() -> Result<(), cocktail_core::CocktailError> {
/// let search = ChunkQuantSearch::new(CocktailConfig::default());
/// let chunks = vec![
///     "annual rainfall statistics for the region".to_string(),
///     "the ceo announced the acquisition of meridian labs".to_string(),
/// ];
/// let plan = search.plan("what did the ceo announce about meridian labs?", &chunks)?;
/// assert!(plan.scores()[1] > plan.scores()[0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ChunkQuantSearch {
    config: CocktailConfig,
}

impl ChunkQuantSearch {
    /// Creates the search module with the given configuration.
    pub fn new(config: CocktailConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CocktailConfig {
        &self.config
    }

    /// Scores the chunks with the configured encoder and derives the plan.
    ///
    /// # Errors
    ///
    /// Returns [`CocktailError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn plan(&self, query: &str, chunk_texts: &[String]) -> Result<BitwidthPlan, CocktailError> {
        self.config.validate()?;
        let scorer = self.config.encoder.build();
        let scores = scorer.score(query, chunk_texts);
        self.plan_from_scores(&scores)
    }

    /// Derives the plan from precomputed similarity scores (one per chunk).
    ///
    /// # Errors
    ///
    /// Returns [`CocktailError::InvalidConfig`] if the configuration fails
    /// validation, or [`CocktailError::InvalidInput`] if any score is not
    /// finite.
    pub(crate) fn plan_from_scores(&self, scores: &[f32]) -> Result<BitwidthPlan, CocktailError> {
        self.config.validate()?;
        if scores.iter().any(|s| !s.is_finite()) {
            return Err(CocktailError::InvalidInput(
                "similarity scores must be finite".into(),
            ));
        }
        if scores.is_empty() {
            return Ok(BitwidthPlan {
                scores: Vec::new(),
                t_low: 0.0,
                t_high: 0.0,
                assignments: Vec::new(),
            });
        }
        let s_min = scores.iter().cloned().fold(f32::INFINITY, f32::min);
        let s_max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let range = s_max - s_min;
        // Eq. 2 and Eq. 3 of the paper.
        let t_low = s_min + range * self.config.alpha;
        let t_high = s_max - range * self.config.beta;

        let assignments = scores
            .iter()
            .map(|&s| {
                if range == 0.0 {
                    // Degenerate case: every chunk is equally relevant; the
                    // compromise precision is the safe choice.
                    Bitwidth::Int4
                } else if s > t_high {
                    Bitwidth::Fp16
                } else if s < t_low {
                    Bitwidth::Int2
                } else {
                    Bitwidth::Int4
                }
            })
            .collect();
        Ok(BitwidthPlan {
            scores: scores.to_vec(),
            t_low,
            t_high,
            assignments,
        })
    }

    /// The relevance-blind fallback used by the "w/o Module I" ablation:
    /// the same three precision levels are used in fixed proportions
    /// (roughly matching what the search typically produces: one FP16 chunk
    /// in ten, three INT4 in ten, the rest INT2) but assigned purely by
    /// chunk position, with no knowledge of the query.
    pub fn plan_without_search(&self, chunk_count: usize) -> BitwidthPlan {
        let assignments: Vec<Bitwidth> = (0..chunk_count)
            .map(|i| match i % 10 {
                0 => Bitwidth::Fp16,
                1..=3 => Bitwidth::Int4,
                _ => Bitwidth::Int2,
            })
            .collect();
        BitwidthPlan {
            scores: vec![0.0; chunk_count],
            t_low: 0.0,
            t_high: 0.0,
            assignments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Average bits per element across all chunks under this plan (a quick
    /// proxy for the compression the plan achieves on the chunked portion).
    fn mean_bits(plan: &BitwidthPlan) -> f32 {
        if plan.assignments.is_empty() {
            return 0.0;
        }
        plan.assignments
            .iter()
            .map(|b| b.bits() as f32)
            .sum::<f32>()
            / plan.assignments.len() as f32
    }

    fn search_with(alpha: f32, beta: f32) -> ChunkQuantSearch {
        ChunkQuantSearch::new(
            CocktailConfig::default()
                .with_alpha(alpha)
                .unwrap()
                .with_beta(beta)
                .unwrap(),
        )
    }

    #[test]
    fn thresholds_follow_equations_2_and_3() {
        let search = search_with(0.6, 0.1);
        let plan = search.plan_from_scores(&[0.0, 0.5, 1.0]).unwrap();
        assert!((plan.t_low - 0.6).abs() < 1e-6);
        assert!((plan.t_high - 0.9).abs() < 1e-6);
    }

    #[test]
    fn assignment_bands_are_correct() {
        let search = search_with(0.5, 0.2);
        // range [0,1]: T_low = 0.5, T_high = 0.8.
        let plan = search
            .plan_from_scores(&[0.0, 0.49, 0.5, 0.65, 0.8, 0.81, 1.0])
            .unwrap();
        assert_eq!(
            plan.assignments(),
            &[
                Bitwidth::Int2, // 0.0 < 0.5
                Bitwidth::Int2, // 0.49 < 0.5
                Bitwidth::Int4, // 0.5 is not strictly below T_low
                Bitwidth::Int4, // middle band
                Bitwidth::Int4, // 0.8 is not strictly above T_high
                Bitwidth::Fp16, // 0.81 > 0.8
                Bitwidth::Fp16, // max
            ]
        );
    }

    #[test]
    fn equal_scores_fall_back_to_int4() {
        let search = search_with(0.6, 0.1);
        let plan = search.plan_from_scores(&[0.3, 0.3, 0.3]).unwrap();
        assert!(plan.assignments().iter().all(|&b| b == Bitwidth::Int4));
    }

    #[test]
    fn larger_alpha_quantizes_more_chunks_to_int2() {
        let scores: Vec<f32> = (0..20).map(|i| i as f32 / 19.0).collect();
        let low_alpha = search_with(0.2, 0.1).plan_from_scores(&scores).unwrap();
        let high_alpha = search_with(0.8, 0.1).plan_from_scores(&scores).unwrap();
        assert!(high_alpha.count(Bitwidth::Int2) > low_alpha.count(Bitwidth::Int2));
        assert!(mean_bits(&high_alpha) < mean_bits(&low_alpha));
    }

    #[test]
    fn larger_beta_keeps_more_chunks_fp16() {
        let scores: Vec<f32> = (0..20).map(|i| i as f32 / 19.0).collect();
        let small_beta = search_with(0.3, 0.05).plan_from_scores(&scores).unwrap();
        let large_beta = search_with(0.3, 0.5).plan_from_scores(&scores).unwrap();
        assert!(large_beta.count(Bitwidth::Fp16) > small_beta.count(Bitwidth::Fp16));
    }

    #[test]
    fn empty_and_invalid_scores() {
        let search = search_with(0.6, 0.1);
        let empty = search.plan_from_scores(&[]).unwrap();
        assert!(empty.assignments().is_empty());
        assert_eq!(mean_bits(&empty), 0.0);
        assert!(search.plan_from_scores(&[0.1, f32::NAN]).is_err());
    }

    #[test]
    fn end_to_end_plan_keeps_relevant_chunk_fp16() {
        let search = ChunkQuantSearch::new(CocktailConfig::default());
        let chunks: Vec<String> = (0..12)
            .map(|i| {
                if i == 7 {
                    "the launch password is crimson falcon seven".to_string()
                } else {
                    format!("routine log entry number {i} nothing notable happened today at the station")
                }
            })
            .collect();
        let plan = search
            .plan("what is the launch password?", &chunks)
            .unwrap();
        assert_eq!(plan.assignments()[7], Bitwidth::Fp16);
        assert!(
            plan.count(Bitwidth::Int2) >= 6,
            "most chunks should be INT2"
        );
    }

    #[test]
    fn fallback_plan_is_relevance_blind_but_mixed() {
        let search = ChunkQuantSearch::new(CocktailConfig::default());
        let plan = search.plan_without_search(20);
        assert_eq!(plan.assignments().len(), 20);
        assert_eq!(plan.count(Bitwidth::Fp16), 2);
        assert_eq!(plan.count(Bitwidth::Int4), 6);
        assert_eq!(plan.count(Bitwidth::Int2), 12);
    }

    proptest! {
        #[test]
        fn every_assignment_is_one_of_the_three_levels(
            scores in proptest::collection::vec(-1.0f32..1.0, 0..64),
            alpha in 0.0f32..0.9,
            beta in 0.0f32..0.1,
        ) {
            let search = search_with(alpha, beta);
            let plan = search.plan_from_scores(&scores).unwrap();
            prop_assert_eq!(plan.assignments().len(), scores.len());
            for bw in plan.assignments() {
                prop_assert!(Bitwidth::COCKTAIL_LEVELS.contains(bw));
            }
        }

        #[test]
        fn max_score_is_never_int2_and_min_never_fp16(
            scores in proptest::collection::vec(-1.0f32..1.0, 2..64),
            alpha in 0.05f32..0.9,
            beta in 0.0f32..0.1,
        ) {
            let search = search_with(alpha, beta);
            let plan = search.plan_from_scores(&scores).unwrap();
            let max_idx = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            let min_idx = scores
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            prop_assert_ne!(plan.assignments()[max_idx], Bitwidth::Int2);
            prop_assert_ne!(plan.assignments()[min_idx], Bitwidth::Fp16);
        }
    }
}
