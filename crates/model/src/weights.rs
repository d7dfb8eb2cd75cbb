//! Deterministic, seeded model weights.

use crate::config::ModelConfig;
use cocktail_tensor::rng::{derive_seed, gaussian_matrix, uniform_vec};
use cocktail_tensor::Matrix;

/// Weights of a single decoder layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWeights {
    /// Query projection, `hidden × (n_heads · head_dim)`.
    pub wq: Matrix,
    /// Key projection, `hidden × (n_kv_heads · head_dim)`.
    pub wk: Matrix,
    /// Value projection, `hidden × (n_kv_heads · head_dim)`.
    pub wv: Matrix,
    /// Output projection, `(n_heads · head_dim) × hidden`.
    pub wo: Matrix,
    /// SwiGLU gate projection, `hidden × intermediate`.
    pub w_gate: Matrix,
    /// SwiGLU up projection, `hidden × intermediate`.
    pub w_up: Matrix,
    /// SwiGLU down projection, `intermediate × hidden`.
    pub w_down: Matrix,
    /// RMSNorm weight applied before attention.
    pub attn_norm: Vec<f32>,
    /// RMSNorm weight applied before the MLP.
    pub mlp_norm: Vec<f32>,
}

/// All weights of a model, deterministically derived from a seed.
///
/// # Example
///
/// ```
/// use cocktail_model::{ModelConfig, ModelWeights};
///
/// # fn main() -> Result<(), cocktail_model::ModelError> {
/// let cfg = ModelConfig::new("demo", 32, 2, 2, 2, 64, 256, 512)?;
/// let a = ModelWeights::seeded(&cfg, 7);
/// let b = ModelWeights::seeded(&cfg, 7);
/// assert_eq!(a.embedding.shape(), (256, 32));
/// assert_eq!(a.layers.len(), 2);
/// assert_eq!(a.embedding, b.embedding); // fully deterministic
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelWeights {
    /// Token embedding table, `vocab × hidden`.
    pub embedding: Matrix,
    /// Per-layer weights.
    pub layers: Vec<LayerWeights>,
    /// Final RMSNorm weight.
    pub final_norm: Vec<f32>,
    /// LM head, `hidden × vocab`.
    pub lm_head: Matrix,
}

impl ModelWeights {
    /// Standard deviation used for projection initialisation. Matches the
    /// common 0.02 initialisation of GPT/Llama-family models, which keeps
    /// residual-stream activations in a numerically comfortable range.
    pub(crate) const INIT_STD: f32 = 0.02;

    /// Generates the full weight set for `config` from `seed`.
    pub fn seeded(config: &ModelConfig, seed: u64) -> Self {
        let hidden = config.hidden_dim;
        let head = config.head_dim();
        let q_dim = config.n_heads * head;
        let kv_dim = config.n_kv_heads * head;
        let inter = config.intermediate_dim;
        let std = Self::INIT_STD;

        let layers = (0..config.n_layers)
            .map(|layer| {
                let label = |part: &str| derive_seed(seed, &format!("layer{layer}/{part}"));
                LayerWeights {
                    wq: gaussian_matrix(hidden, q_dim, std, label("wq")),
                    wk: gaussian_matrix(hidden, kv_dim, std, label("wk")),
                    wv: gaussian_matrix(hidden, kv_dim, std, label("wv")),
                    wo: gaussian_matrix(q_dim, hidden, std, label("wo")),
                    w_gate: gaussian_matrix(hidden, inter, std, label("w_gate")),
                    w_up: gaussian_matrix(hidden, inter, std, label("w_up")),
                    w_down: gaussian_matrix(inter, hidden, std, label("w_down")),
                    attn_norm: norm_weight(hidden, label("attn_norm")),
                    mlp_norm: norm_weight(hidden, label("mlp_norm")),
                }
            })
            .collect();

        Self {
            embedding: gaussian_matrix(
                config.vocab_size,
                hidden,
                1.0,
                derive_seed(seed, "embedding"),
            ),
            layers,
            final_norm: norm_weight(hidden, derive_seed(seed, "final_norm")),
            lm_head: gaussian_matrix(hidden, config.vocab_size, std, derive_seed(seed, "lm_head")),
        }
    }

    /// Total number of scalar parameters actually materialised.
    pub fn parameter_count(&self) -> usize {
        let layer_params: usize = self
            .layers
            .iter()
            .map(|l| {
                l.wq.len()
                    + l.wk.len()
                    + l.wv.len()
                    + l.wo.len()
                    + l.w_gate.len()
                    + l.w_up.len()
                    + l.w_down.len()
                    + l.attn_norm.len()
                    + l.mlp_norm.len()
            })
            .sum();
        self.embedding.len() + layer_params + self.final_norm.len() + self.lm_head.len()
    }
}

/// RMSNorm weights are initialised close to one with a small seeded jitter
/// so that different layers are distinguishable but normalisation stays
/// well-conditioned.
fn norm_weight(len: usize, seed: u64) -> Vec<f32> {
    uniform_vec(len, 0.05, seed)
        .into_iter()
        .map(|v| 1.0 + v)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ModelConfig {
        ModelConfig::new("t", 32, 2, 4, 2, 48, 128, 256).unwrap()
    }

    #[test]
    fn shapes_match_config() {
        let cfg = small_config();
        let w = ModelWeights::seeded(&cfg, 3);
        assert_eq!(w.embedding.shape(), (128, 32));
        assert_eq!(w.lm_head.shape(), (32, 128));
        assert_eq!(w.layers.len(), 2);
        let l = &w.layers[0];
        assert_eq!(l.wq.shape(), (32, 32));
        assert_eq!(l.wk.shape(), (32, 16)); // 2 kv heads × head_dim 8
        assert_eq!(l.wv.shape(), (32, 16));
        assert_eq!(l.wo.shape(), (32, 32));
        assert_eq!(l.w_gate.shape(), (32, 48));
        assert_eq!(l.w_down.shape(), (48, 32));
        assert_eq!(l.attn_norm.len(), 32);
    }

    #[test]
    fn weights_are_deterministic_per_seed() {
        let cfg = small_config();
        let a = ModelWeights::seeded(&cfg, 5);
        let b = ModelWeights::seeded(&cfg, 5);
        let c = ModelWeights::seeded(&cfg, 6);
        assert_eq!(a, b);
        assert_ne!(a.layers[0].wq, c.layers[0].wq);
    }

    #[test]
    fn layers_have_distinct_weights() {
        let cfg = small_config();
        let w = ModelWeights::seeded(&cfg, 7);
        assert_ne!(w.layers[0].wq, w.layers[1].wq);
        assert_ne!(w.layers[0].w_down, w.layers[1].w_down);
    }

    #[test]
    fn parameter_count_matches_config_estimate() {
        let cfg = small_config();
        let w = ModelWeights::seeded(&cfg, 9);
        assert_eq!(w.parameter_count(), cfg.parameter_count());
    }

    #[test]
    fn norm_weights_are_near_one() {
        let cfg = small_config();
        let w = ModelWeights::seeded(&cfg, 11);
        for v in &w.layers[0].attn_norm {
            assert!((*v - 1.0).abs() <= 0.05 + 1e-6);
        }
    }
}
