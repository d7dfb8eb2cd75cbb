//! Configuration of the Cocktail method.

use crate::error::CocktailError;
use cocktail_retrieval::EncoderKind;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the Cocktail method.
///
/// The defaults are the paper's headline configuration: α = 0.6, β = 0.1,
/// chunk size 32, quantization group size 32, Facebook-Contriever as the
/// chunk/query encoder, and both modules enabled.
///
/// # Example
///
/// ```
/// use cocktail_core::CocktailConfig;
///
/// # fn main() -> Result<(), cocktail_core::CocktailError> {
/// let config = CocktailConfig::default().with_alpha(0.4)?.with_beta(0.2)?;
/// assert_eq!(config.alpha, 0.4);
/// assert_eq!(config.chunk_size, 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CocktailConfig {
    /// Fraction of the similarity-score range below which chunks are
    /// quantized to INT2 (Eq. 2: `T_low = s_min + (s_max − s_min)·α`).
    pub alpha: f32,
    /// Fraction of the similarity-score range above which chunks keep FP16
    /// (Eq. 3: `T_high = s_max − (s_max − s_min)·β`).
    pub beta: f32,
    /// Context chunk size in tokens.
    pub chunk_size: usize,
    /// Group size of the integer quantizer.
    pub group_size: usize,
    /// The chunk/query encoder used by the quantization search.
    pub encoder: EncoderKind,
    /// Module I switch: when `false`, relevance search is skipped and the
    /// bitwidth assignment falls back to a fixed, relevance-blind pattern
    /// (the paper's "w/o Module I" ablation).
    pub enable_search: bool,
    /// Module II switch: when `false`, chunks are quantized in logical
    /// order without reordering (the paper's "w/o Module II" ablation).
    pub enable_reorder: bool,
}

impl CocktailConfig {
    /// Creates the paper's headline configuration.
    pub(crate) fn paper_default() -> Self {
        Self {
            alpha: 0.6,
            beta: 0.1,
            chunk_size: 32,
            group_size: 32,
            encoder: EncoderKind::Contriever,
            enable_search: true,
            enable_reorder: true,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CocktailError::InvalidConfig`] if α or β lie outside
    /// `[0, 1]`, their thresholds cross (`α + β > 1`), or a size is zero.
    pub fn validate(&self) -> Result<(), CocktailError> {
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(CocktailError::InvalidConfig(format!(
                "alpha {} must be in [0, 1]",
                self.alpha
            )));
        }
        if !(0.0..=1.0).contains(&self.beta) {
            return Err(CocktailError::InvalidConfig(format!(
                "beta {} must be in [0, 1]",
                self.beta
            )));
        }
        if self.alpha + self.beta > 1.0 + 1e-6 {
            return Err(CocktailError::InvalidConfig(format!(
                "alpha {} + beta {} exceeds 1, so T_low would be above T_high",
                self.alpha, self.beta
            )));
        }
        if self.chunk_size == 0 {
            return Err(CocktailError::InvalidConfig(
                "chunk size must be nonzero".into(),
            ));
        }
        if self.group_size == 0 {
            return Err(CocktailError::InvalidConfig(
                "group size must be nonzero".into(),
            ));
        }
        Ok(())
    }

    /// Returns a copy with a different α.
    ///
    /// # Errors
    ///
    /// Returns [`CocktailError::InvalidConfig`] if the result is invalid.
    pub fn with_alpha(mut self, alpha: f32) -> Result<Self, CocktailError> {
        self.alpha = alpha;
        self.validate()?;
        Ok(self)
    }

    /// Returns a copy with a different β.
    ///
    /// # Errors
    ///
    /// Returns [`CocktailError::InvalidConfig`] if the result is invalid.
    pub fn with_beta(mut self, beta: f32) -> Result<Self, CocktailError> {
        self.beta = beta;
        self.validate()?;
        Ok(self)
    }

    /// Returns a copy with a different chunk size.
    ///
    /// # Errors
    ///
    /// Returns [`CocktailError::InvalidConfig`] if the result is invalid.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Result<Self, CocktailError> {
        self.chunk_size = chunk_size;
        self.validate()?;
        Ok(self)
    }

    /// Returns a copy with a different encoder.
    pub fn with_encoder(mut self, encoder: EncoderKind) -> Self {
        self.encoder = encoder;
        self
    }

    /// Returns a copy with Module I (quantization search) toggled.
    pub fn with_search(mut self, enable: bool) -> Self {
        self.enable_search = enable;
        self
    }

    /// Returns a copy with Module II (reordering) toggled.
    pub fn with_reorder(mut self, enable: bool) -> Self {
        self.enable_reorder = enable;
        self
    }
}

impl Default for CocktailConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_headline() {
        let c = CocktailConfig::default();
        assert_eq!(c.alpha, 0.6);
        assert_eq!(c.beta, 0.1);
        assert_eq!(c.chunk_size, 32);
        assert_eq!(c.encoder, EncoderKind::Contriever);
        assert!(c.enable_search && c.enable_reorder);
        c.validate().unwrap();
    }

    #[test]
    fn rejects_out_of_range_alpha_beta() {
        assert!(CocktailConfig::default().with_alpha(1.2).is_err());
        assert!(CocktailConfig::default().with_beta(-0.1).is_err());
    }

    #[test]
    fn rejects_crossing_thresholds() {
        let config = CocktailConfig {
            alpha: 0.7,
            beta: 0.7,
            ..CocktailConfig::default()
        };
        assert!(config.validate().is_err());
    }

    #[test]
    fn rejects_zero_sizes() {
        let config = CocktailConfig {
            chunk_size: 0,
            ..CocktailConfig::default()
        };
        assert!(config.validate().is_err());
        let config = CocktailConfig {
            group_size: 0,
            ..CocktailConfig::default()
        };
        assert!(config.validate().is_err());
    }

    #[test]
    fn builders_replace_single_fields() {
        let c = CocktailConfig::default()
            .with_alpha(0.3)
            .unwrap()
            .with_beta(0.2)
            .unwrap()
            .with_chunk_size(64)
            .unwrap()
            .with_encoder(EncoderKind::Bm25)
            .with_search(false)
            .with_reorder(false);
        assert_eq!(c.alpha, 0.3);
        assert_eq!(c.beta, 0.2);
        assert_eq!(c.chunk_size, 64);
        assert_eq!(c.encoder, EncoderKind::Bm25);
        assert!(!c.enable_search && !c.enable_reorder);
    }
}
