//! Simulated model profiles mirroring the four models of the paper.

use crate::config::ModelConfig;
use serde::{Deserialize, Serialize};

/// A pair of configurations describing one of the paper's evaluation
/// models: a small *simulated* configuration that the CPU engine actually
/// runs, and the *full-size* dimension sheet of the original checkpoint
/// used by the analytic hardware model.
///
/// The simulated configurations preserve the architectural features that
/// matter for KV-cache behaviour — layer-count ratios between models, MHA
/// versus grouped-query attention, and the 4K versus 32K context limits —
/// at a width small enough for CPU inference.
///
/// # Example
///
/// ```
/// use cocktail_model::ModelProfile;
///
/// let mistral = ModelProfile::mistral_7b_sim();
/// assert!(mistral.sim().n_kv_heads < mistral.sim().n_heads); // GQA
/// assert_eq!(mistral.full().max_context, 32 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    sim: ModelConfig,
    full: ModelConfig,
    seed: u64,
}

impl ModelProfile {
    /// Simulated stand-in for **Llama2-7B** (32 layers, MHA, 4K context).
    pub fn llama2_7b_sim() -> Self {
        Self {
            sim: ModelConfig::new("llama2-7b-sim", 64, 4, 4, 4, 176, 2048, 4096)
                .expect("profile config is valid"),
            full: ModelConfig::new("llama2-7b", 4096, 32, 32, 32, 11008, 32000, 4096)
                .expect("profile config is valid"),
            seed: 0x011A_A207,
        }
    }

    /// Simulated stand-in for **Llama2-13B** (40 layers, MHA, 4K context).
    pub(crate) fn llama2_13b_sim() -> Self {
        Self {
            sim: ModelConfig::new("llama2-13b-sim", 80, 5, 5, 5, 220, 2048, 4096)
                .expect("profile config is valid"),
            full: ModelConfig::new("llama2-13b", 5120, 40, 40, 40, 13824, 32000, 4096)
                .expect("profile config is valid"),
            seed: 0x011A_A213,
        }
    }

    /// Simulated stand-in for **Mistral-7B** (32 layers, grouped-query
    /// attention with 8 KV heads, 32K context).
    pub fn mistral_7b_sim() -> Self {
        Self {
            sim: ModelConfig::new("mistral-7b-sim", 64, 4, 8, 2, 176, 2048, 32 * 1024)
                .expect("profile config is valid"),
            full: ModelConfig::new("mistral-7b", 4096, 32, 32, 8, 14336, 32000, 32 * 1024)
                .expect("profile config is valid"),
            seed: 0x0007_1507,
        }
    }

    /// Simulated stand-in for **Longchat-7B** (Llama architecture fine-tuned
    /// for 32K chat contexts).
    pub fn longchat_7b_sim() -> Self {
        Self {
            sim: ModelConfig::new("longchat-7b-sim", 64, 4, 4, 4, 176, 2048, 32 * 1024)
                .expect("profile config is valid"),
            full: ModelConfig::new("longchat-7b", 4096, 32, 32, 32, 11008, 32000, 32 * 1024)
                .expect("profile config is valid"),
            seed: 0x10_c4a7,
        }
    }

    /// The four profiles evaluated in the paper, in the order of Table II.
    pub fn paper_suite() -> Vec<ModelProfile> {
        vec![
            Self::llama2_7b_sim(),
            Self::llama2_13b_sim(),
            Self::mistral_7b_sim(),
            Self::longchat_7b_sim(),
        ]
    }

    /// A deliberately tiny profile for fast unit tests and doc examples.
    pub fn tiny() -> Self {
        Self {
            sim: ModelConfig::new("tiny", 32, 2, 2, 2, 64, 512, 1024)
                .expect("profile config is valid"),
            full: ModelConfig::new("tiny-full", 32, 2, 2, 2, 64, 512, 1024)
                .expect("profile config is valid"),
            seed: 0x717,
        }
    }

    /// The simulated (runnable) configuration.
    pub fn sim(&self) -> &ModelConfig {
        &self.sim
    }

    /// The full-size dimension sheet of the original checkpoint.
    pub fn full(&self) -> &ModelConfig {
        &self.full
    }

    /// Seed used for the deterministic weight initialisation.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Display name (taken from the full-size configuration).
    pub fn name(&self) -> &str {
        &self.full.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_suite_has_four_models_in_table_order() {
        let suite = ModelProfile::paper_suite();
        let names: Vec<&str> = suite.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec!["llama2-7b", "llama2-13b", "mistral-7b", "longchat-7b"]
        );
    }

    #[test]
    fn all_profiles_validate() {
        for profile in ModelProfile::paper_suite() {
            profile.sim().validate().unwrap();
            profile.full().validate().unwrap();
        }
        ModelProfile::tiny().sim().validate().unwrap();
    }

    #[test]
    fn full_size_13b_is_larger_than_7b() {
        let p7 = ModelProfile::llama2_7b_sim();
        let p13 = ModelProfile::llama2_13b_sim();
        assert!(p13.full().parameter_count() > p7.full().parameter_count());
        assert!(p13.sim().parameter_count() > p7.sim().parameter_count());
    }

    #[test]
    fn mistral_uses_gqa_and_long_context() {
        let m = ModelProfile::mistral_7b_sim();
        assert_eq!(m.full().n_kv_heads, 8);
        assert_eq!(m.full().max_context, 32 * 1024);
        assert!(m.sim().gqa_group_size() > 1);
    }

    #[test]
    fn long_context_models_report_32k() {
        assert_eq!(
            ModelProfile::longchat_7b_sim().full().max_context,
            32 * 1024
        );
        assert_eq!(ModelProfile::llama2_7b_sim().full().max_context, 4096);
    }

    #[test]
    fn seeds_differ_between_profiles() {
        let seeds: Vec<u64> = ModelProfile::paper_suite()
            .iter()
            .map(|p| p.seed())
            .collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }
}
