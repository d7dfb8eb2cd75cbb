//! Architecture hyper-parameters of a decoder-only transformer.

use crate::error::ModelError;
use serde::{Deserialize, Serialize};

/// Architecture description of a Llama-family decoder-only transformer.
///
/// The same type is used both for the small *simulated* configurations the
/// engine actually runs and for the *full-size* dimension sheets that feed
/// the analytic hardware model, so every derived quantity (parameter count,
/// KV bytes per token) is computed from first principles here.
///
/// # Example
///
/// ```
/// use cocktail_model::ModelConfig;
///
/// # fn main() -> Result<(), cocktail_model::ModelError> {
/// let cfg = ModelConfig::new("demo", 64, 4, 4, 4, 176, 2048, 4096)?;
/// assert_eq!(cfg.head_dim(), 16);
/// assert!(cfg.parameter_count() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Human-readable model name (e.g. `"llama2-7b"`).
    pub name: String,
    /// Residual stream width.
    pub hidden_dim: usize,
    /// Number of decoder layers.
    pub n_layers: usize,
    /// Number of query attention heads.
    pub n_heads: usize,
    /// Number of key/value heads (equal to `n_heads` for MHA, smaller for
    /// grouped-query attention).
    pub n_kv_heads: usize,
    /// Width of the SwiGLU MLP's intermediate projection.
    pub intermediate_dim: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Maximum supported context length in tokens.
    pub max_context: usize,
    /// RoPE base frequency.
    pub rope_theta: f32,
    /// RMSNorm epsilon.
    pub rms_eps: f32,
}

impl ModelConfig {
    /// Creates and validates a configuration with the standard RoPE base
    /// (10 000) and RMSNorm epsilon (1e-5).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if `hidden_dim` is not a
    /// multiple of `n_heads`, if `n_heads` is not a multiple of
    /// `n_kv_heads`, or if any dimension is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        hidden_dim: usize,
        n_layers: usize,
        n_heads: usize,
        n_kv_heads: usize,
        intermediate_dim: usize,
        vocab_size: usize,
        max_context: usize,
    ) -> Result<Self, ModelError> {
        let config = Self {
            name: name.to_string(),
            hidden_dim,
            n_layers,
            n_heads,
            n_kv_heads,
            intermediate_dim,
            vocab_size,
            max_context,
            rope_theta: 10_000.0,
            rms_eps: 1e-5,
        };
        config.validate()?;
        Ok(config)
    }

    /// Validates the internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// See [`ModelConfig::new`].
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.hidden_dim == 0
            || self.n_layers == 0
            || self.n_heads == 0
            || self.n_kv_heads == 0
            || self.intermediate_dim == 0
            || self.vocab_size == 0
            || self.max_context == 0
        {
            return Err(ModelError::InvalidConfig(
                "all dimensions must be nonzero".into(),
            ));
        }
        if self.hidden_dim % self.n_heads != 0 {
            return Err(ModelError::InvalidConfig(format!(
                "hidden_dim {} is not divisible by n_heads {}",
                self.hidden_dim, self.n_heads
            )));
        }
        if self.n_heads % self.n_kv_heads != 0 {
            return Err(ModelError::InvalidConfig(format!(
                "n_heads {} is not divisible by n_kv_heads {}",
                self.n_heads, self.n_kv_heads
            )));
        }
        if self.head_dim() % 2 != 0 {
            return Err(ModelError::InvalidConfig(format!(
                "head_dim {} must be even for RoPE",
                self.head_dim()
            )));
        }
        Ok(())
    }

    /// Dimension of a single attention head.
    pub fn head_dim(&self) -> usize {
        self.hidden_dim / self.n_heads
    }

    /// Number of query heads that share one KV head.
    pub(crate) fn gqa_group_size(&self) -> usize {
        self.n_heads / self.n_kv_heads
    }

    /// Total parameter count of the model (embedding, attention, MLP,
    /// norms and the untied LM head).
    pub fn parameter_count(&self) -> usize {
        let head = self.head_dim();
        let attn = self.hidden_dim * self.n_heads * head       // wq
            + self.hidden_dim * self.n_kv_heads * head          // wk
            + self.hidden_dim * self.n_kv_heads * head          // wv
            + self.n_heads * head * self.hidden_dim; // wo
        let mlp = 3 * self.hidden_dim * self.intermediate_dim;
        let norms = 2 * self.hidden_dim;
        let per_layer = attn + mlp + norms;
        self.vocab_size * self.hidden_dim          // embedding
            + self.n_layers * per_layer
            + self.hidden_dim                       // final norm
            + self.hidden_dim * self.vocab_size // lm head
    }

    /// Bytes occupied by the weights when stored in FP16.
    pub fn weight_bytes_fp16(&self) -> usize {
        self.parameter_count() * 2
    }

    /// Bytes of KV cache generated per token when stored in FP16:
    /// 2 tensors × layers × KV heads × head_dim × 2 bytes.
    pub fn kv_bytes_per_token_fp16(&self) -> usize {
        2 * self.n_layers * self.n_kv_heads * self.head_dim() * 2
    }

    /// Total FP16 KV-cache bytes for a sequence of `tokens` tokens.
    pub fn kv_bytes_fp16(&self, tokens: usize) -> usize {
        self.kv_bytes_per_token_fp16() * tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_config_passes() {
        let cfg = ModelConfig::new("t", 64, 2, 4, 2, 128, 1000, 2048).unwrap();
        assert_eq!(cfg.head_dim(), 16);
        assert_eq!(cfg.gqa_group_size(), 2);
    }

    #[test]
    fn rejects_indivisible_heads() {
        assert!(ModelConfig::new("t", 60, 2, 7, 7, 128, 1000, 2048).is_err());
        assert!(ModelConfig::new("t", 64, 2, 4, 3, 128, 1000, 2048).is_err());
    }

    #[test]
    fn rejects_zero_dims() {
        assert!(ModelConfig::new("t", 0, 2, 4, 4, 128, 1000, 2048).is_err());
        assert!(ModelConfig::new("t", 64, 0, 4, 4, 128, 1000, 2048).is_err());
        assert!(ModelConfig::new("t", 64, 2, 4, 4, 128, 0, 2048).is_err());
    }

    #[test]
    fn rejects_odd_head_dim() {
        // hidden 12 / 4 heads = head_dim 3, odd -> RoPE impossible.
        assert!(ModelConfig::new("t", 12, 1, 4, 4, 16, 100, 64).is_err());
    }

    #[test]
    fn llama2_7b_full_size_parameter_count_is_about_7b() {
        let cfg = ModelConfig::new("llama2-7b", 4096, 32, 32, 32, 11008, 32000, 4096).unwrap();
        let params = cfg.parameter_count() as f64;
        assert!(
            (6.5e9..7.5e9).contains(&params),
            "expected ~7e9 parameters, got {params}"
        );
    }

    #[test]
    fn kv_bytes_per_token_matches_paper_scale() {
        // Llama2-13B: 2 * 40 layers * 40 heads * 128 dim * 2 bytes ≈ 820 KB per
        // token; a 128K context is then ~100 GB, the number quoted in the
        // paper's introduction.
        let cfg = ModelConfig::new("llama2-13b", 5120, 40, 40, 40, 13824, 32000, 4096).unwrap();
        let per_token = cfg.kv_bytes_per_token_fp16();
        assert_eq!(per_token, 2 * 40 * 40 * 128 * 2);
        let gb_128k = cfg.kv_bytes_fp16(128 * 1024) as f64 / 1e9;
        assert!(
            (90.0..115.0).contains(&gb_128k),
            "expected ~100 GB for a 128K context, got {gb_128k:.1} GB"
        );
    }

    #[test]
    fn gqa_reduces_kv_bytes() {
        let mha = ModelConfig::new("mha", 4096, 32, 32, 32, 11008, 32000, 4096).unwrap();
        let gqa = ModelConfig::new("gqa", 4096, 32, 32, 8, 14336, 32000, 32768).unwrap();
        assert_eq!(
            gqa.kv_bytes_per_token_fp16() * 4,
            mha.kv_bytes_per_token_fp16()
        );
    }
}
