//! The Cocktail method: chunk-adaptive mixed-precision KV-cache
//! quantization for long-context LLM inference.
//!
//! This crate implements the paper's two modules and wires them into an
//! end-to-end pipeline:
//!
//! * **Module I — chunk-level quantization search** ([`search`]): the query
//!   and every context chunk are embedded by a retrieval encoder, cosine
//!   similarities are compared against two thresholds derived from the
//!   score range with hyper-parameters α and β (Eq. 2/3), and every chunk
//!   is assigned FP16, INT4 or INT2.
//! * **Module II — chunk-level KV cache computation** ([`reorder`],
//!   [`attention`]): KV chunks are reordered so chunks of equal bitwidth
//!   are physically contiguous, quantized according to the plan, and
//!   decode-phase attention is computed block-wise — one fused quantized
//!   GEMM per precision group plus one FP16 GEMM — exactly as in the
//!   paper's Algorithm 1. The output is mathematically identical to
//!   unpermuted attention (the paper's Eq. 4/5), which the property tests
//!   in this crate verify.
//! * [`CocktailPolicy`] exposes the method through the same
//!   [`CachePolicy`](cocktail_baselines::CachePolicy) interface as the
//!   baselines, and [`CocktailPipeline`] runs the whole flow
//!   (tokenize → prefill → search → reorder+quantize → decode) on a
//!   simulated model, one request per call, through a [`ServingEngine`].
//! * The **serving layer** ([`ServingEngine`], [`BatchScheduler`],
//!   [`PrefixCache`]) answers many requests concurrently with continuous
//!   batching: a FIFO scheduler admits requests under a KV-memory budget
//!   measured in *compressed* bytes (so Cocktail's compression buys batch
//!   capacity), admission prefills arriving prompts in one batched pass —
//!   reusing the refcounted KV blocks of a token-trie prefix cache for
//!   contexts that repeat or branch off a common preamble —
//!   and every engine step decodes one token for the whole running batch
//!   through a single batched decode call. Batched, prefix-reusing serving
//!   is byte-identical to running the same requests sequentially through
//!   [`CocktailPipeline`].
//! * The **router layer** ([`PrefixFingerprintIndex`]) places requests
//!   across N independent replicas — each with its own KV budget and
//!   prefix trie: branching conversations go back to the replica where
//!   their shared preamble KV is already resident, cold prompts to the
//!   least-loaded replica. The HTTP gateway's replica pool
//!   (`cocktail_server`) runs the fleet.
//! * The **persistence layer** ([`ServingEngine::snapshot_to`],
//!   [`ServingEngine::restore_from`], [`ServingEngine::with_cold_tier`])
//!   makes the prefix cache survive the process: a flat, versioned,
//!   checksummed snapshot format (from `cocktail_kvcache`) captures the
//!   trie and the tokenizer interning order it depends on, so a restarted
//!   engine — or a fresh replica restored from a warm sibling's snapshot
//!   ([`ServingEngine::snapshot_bytes`],
//!   [`ServingEngine::restore_from_bytes`]) — serves its first warm
//!   request at warm TTFT, byte-identical to never having restarted; and
//!   a disk cold tier demotes evicted branches to a spill file instead of
//!   dropping them, repromoting on a later match under the same KV budget.
//!
//! # Example
//!
//! ```
//! use cocktail_core::{CocktailConfig, ChunkQuantSearch};
//! use cocktail_quant::Bitwidth;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let chunks = vec![
//!     "the weather report for tuesday says light rain".to_string(),
//!     "the vault combination is nine four seven two".to_string(),
//!     "lunch options include soup salad and sandwiches".to_string(),
//! ];
//! let config = CocktailConfig::default();
//! let search = ChunkQuantSearch::new(config.clone());
//! let plan = search.plan("what is the vault combination?", &chunks)?;
//! assert_eq!(plan.assignments().len(), 3);
//! assert_eq!(plan.assignments()[1], Bitwidth::Fp16); // the relevant chunk keeps full precision
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attention;
mod config;
mod error;
mod pipeline;
mod policy;
mod prefix;
pub mod reorder;
mod router;
mod scheduler;
pub mod search;
mod serving;

pub use config::CocktailConfig;
pub use error::CocktailError;
pub use pipeline::{CocktailOutcome, CocktailPipeline, PipelineTimings};
pub use policy::CocktailPolicy;
pub use prefix::{PrefixCache, PrefixCacheConfig, PrefixCacheStats, PrefixHit};
pub use router::{PrefixFingerprintIndex, RouteDecision, RouterConfig, RouterStats};
pub use scheduler::{AdmitDecision, BatchScheduler, RequestId, SchedulerConfig};
pub use search::{BitwidthPlan, ChunkQuantSearch};
pub use serving::{
    FinishReason, RequestOutcome, RequestState, RestoreReport, ServeRequest, ServeRequestBuilder,
    ServingEngine, ServingStats, SnapshotReport, TokenEvent,
};

// Sampling types re-exported from the model crate, so serving users can
// attach a sampler chain without depending on `cocktail_model` directly.
pub use cocktail_model::{SamplerChain, SamplingParams};

// Snapshot-format types re-exported from the KV substrate, so serving
// users can speak the wire format without depending on `cocktail_kvcache`
// directly.
pub use cocktail_kvcache::{
    read_snapshot, write_snapshot, SnapshotError, TrieSnapshot, SNAPSHOT_FORMAT_VERSION,
};
