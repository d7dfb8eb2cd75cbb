//! A from-scratch decoder-only transformer inference engine.
//!
//! The Cocktail paper evaluates its KV-cache quantization on Llama2-7B/13B,
//! Mistral-7B and Longchat-7B. Those checkpoints are not available in this
//! reproduction, so this crate provides the same *inference machinery* —
//! RMSNorm, rotary position embeddings, grouped-query attention over a
//! pluggable chunked KV cache, SwiGLU MLPs, prefill and decode phases —
//! driven by deterministic seeded weights, together with
//! [`ModelProfile`]s that mirror the four papers' models at two scales:
//!
//! * a *simulated* configuration small enough to run real inference on a
//!   CPU, preserving the architectural ratios (GQA grouping, context
//!   limits), and
//! * the *full-size* dimension sheet of the original checkpoint, used by
//!   the analytic hardware model in `cocktail-hwsim` for memory and latency
//!   accounting.
//!
//! # Example
//!
//! ```
//! use cocktail_model::{InferenceEngine, ModelProfile, PrefillSlot};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = InferenceEngine::new(ModelProfile::llama2_7b_sim())?;
//! let tokens = engine.tokenizer().encode("the quick brown fox jumps over the lazy dog");
//! let prefill = engine.prefill_batch(&[PrefillSlot::cold(&tokens)])?.remove(0);
//! // One K and one V row per prompt token, per layer and KV head.
//! assert_eq!(prefill.suffix_kv.len(), engine.config().n_layers);
//! assert_eq!(prefill.suffix_kv[0][0].k.rows(), tokens.len());
//! assert!((prefill.next_token() as usize) < engine.config().vocab_size);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod error;
mod profile;
pub mod sample;
mod tokenizer;
mod weights;

pub use config::ModelConfig;
pub use engine::{BatchPrefill, DecodeSlot, DecodeStep, InferenceEngine, PrefillSlot, RawKv};
pub use error::ModelError;
pub use profile::ModelProfile;
pub use sample::{SamplerChain, SamplingParams};
pub use tokenizer::Tokenizer;
pub use weights::{LayerWeights, ModelWeights};
