//! The end-to-end Cocktail inference pipeline.
//!
//! The pipeline follows Figure 2 of the paper: the context is chunked, the
//! chunk-level quantization search scores the chunks against the query, the
//! model prefills the prompt, the context KV cache is reordered and
//! quantized according to the plan (the query's own KV stays FP16, as do
//! the decode-phase output tokens), and the model decodes the answer over
//! the compressed cache.

use crate::config::CocktailConfig;
use crate::error::CocktailError;
use crate::serving::{ServeRequest, ServingEngine};
use cocktail_baselines::{CachePolicy, PolicyReport};
use cocktail_model::ModelProfile;
use cocktail_quant::Bitwidth;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Wall-clock timings of one pipeline run, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PipelineTimings {
    /// Prefill phase (full-precision attention over the prompt).
    pub prefill_us: u64,
    /// Chunk-level quantization search plus cache rewriting.
    pub compress_us: u64,
    /// Decode phase (token generation over the compressed cache).
    pub decode_us: u64,
}

impl PipelineTimings {
    /// Total time across the measured phases.
    pub fn total_us(&self) -> u64 {
        self.prefill_us + self.compress_us + self.decode_us
    }
}

/// Everything one pipeline run produces.
#[derive(Debug, Clone)]
pub struct CocktailOutcome {
    /// The decoded answer text.
    pub answer: String,
    /// The generated token ids.
    pub generated_tokens: Vec<u32>,
    /// What the cache policy did.
    pub report: PolicyReport,
    /// The bitwidth of every context chunk in logical order, read back from
    /// the compressed cache, whatever the policy (all FP16 under
    /// [`Fp16Policy`](cocktail_baselines::Fp16Policy)). Every `(layer,
    /// KV-head)` slot holds these bitwidths.
    pub chunk_plan: Vec<Bitwidth>,
    /// KV-cache bytes after compression (all layers and heads, including
    /// the FP16 query/remainder/output tokens).
    pub cache_bytes: usize,
    /// KV-cache bytes the same request would need at FP16.
    pub fp16_cache_bytes: usize,
    /// Wall-clock timings.
    pub timings: PipelineTimings,
}

impl CocktailOutcome {
    /// Measured KV-cache compression ratio (>1 means smaller than FP16).
    pub fn compression_ratio(&self) -> f64 {
        if self.cache_bytes == 0 {
            return 1.0;
        }
        self.fp16_cache_bytes as f64 / self.cache_bytes as f64
    }
}

/// The end-to-end pipeline: simulated model + Cocktail policy, one request
/// per call.
///
/// It is a [`ServingEngine`] (no prefix cache, unlimited budget) fed one
/// request at a time, so a pipeline run and a batched serving run of the
/// same request take the same path and return byte-identical answers.
///
/// # Example
///
/// ```
/// use cocktail_core::{CocktailConfig, CocktailPipeline};
/// use cocktail_model::ModelProfile;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = CocktailConfig::default().with_chunk_size(8)?;
/// let pipeline = CocktailPipeline::new(ModelProfile::tiny(), config)?;
/// let context = "the cargo manifest lists forty crates of oranges. \
///                the harbour master signs off every shipment at dawn. \
///                the access word for the customs office is bluebird.";
/// let outcome = pipeline.run(context, "what is the access word?", 8)?;
/// assert!(!outcome.answer.is_empty());
/// assert!(outcome.compression_ratio() >= 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CocktailPipeline {
    serving: RefCell<ServingEngine>,
}

impl CocktailPipeline {
    /// Builds a pipeline for a model profile.
    ///
    /// # Errors
    ///
    /// Returns [`CocktailError`] if the profile or configuration is invalid.
    pub fn new(profile: ModelProfile, config: CocktailConfig) -> Result<Self, CocktailError> {
        Ok(Self {
            serving: RefCell::new(ServingEngine::new(profile, config)?),
        })
    }

    /// Runs the full pipeline with the Cocktail policy.
    ///
    /// # Errors
    ///
    /// Returns [`CocktailError`] if the prompt is invalid for the model or
    /// any substrate operation fails.
    pub fn run(
        &self,
        context: &str,
        query: &str,
        max_new_tokens: usize,
    ) -> Result<CocktailOutcome, CocktailError> {
        self.serve(ServeRequest::new(context, query, max_new_tokens))
    }

    /// Runs the pipeline with an arbitrary cache policy (FP16, Atom, KIVI,
    /// KVQuant or Cocktail), so methods can be compared on identical
    /// requests.
    ///
    /// # Errors
    ///
    /// Returns [`CocktailError`] if the prompt is invalid for the model or
    /// any substrate operation fails.
    pub fn run_with_policy(
        &self,
        context: &str,
        query: &str,
        policy: Box<dyn CachePolicy>,
        max_new_tokens: usize,
    ) -> Result<CocktailOutcome, CocktailError> {
        let request = ServeRequest::builder()
            .context(context)
            .query(query)
            .max_new_tokens(max_new_tokens)
            .policy(policy)
            .build();
        self.serve(request)
    }

    /// Serves one request to its end. A failed request returns its error
    /// and leaves nothing behind in the engine.
    fn serve(&self, request: ServeRequest) -> Result<CocktailOutcome, CocktailError> {
        let mut serving = self.serving.borrow_mut();
        let id = serving.submit(request);
        match serving.run_until_idle() {
            // `run_until_idle` has already taken the outcome out.
            Ok(mut outcomes) => match outcomes.pop() {
                Some(done) => Ok(done.outcome),
                None => Err(serving
                    .take_error(id)
                    .expect("an idle engine's request completed or failed")
                    .0),
            },
            Err(err) => {
                // Whatever phase the request was left in, the next run
                // must not step it again.
                serving.cancel(id);
                serving.take_cancelled(id);
                serving.take_error(id);
                Err(err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::RequestId;
    use cocktail_baselines::{AtomPolicy, Fp16Policy};

    fn pipeline(chunk_size: usize) -> CocktailPipeline {
        CocktailPipeline::new(
            ModelProfile::tiny(),
            CocktailConfig::default()
                .with_chunk_size(chunk_size)
                .unwrap(),
        )
        .unwrap()
    }

    fn sample_context() -> String {
        let mut parts: Vec<String> = (0..10)
            .map(|i| {
                format!("daily log {i} covers weather supplies and morale nothing unusual reported")
            })
            .collect();
        parts[6] = "important notice the evacuation signal phrase is amber lantern".to_string();
        parts.join(" . ")
    }

    #[test]
    fn end_to_end_run_produces_answer_and_compression() {
        let pipeline = pipeline(16);
        let outcome = pipeline
            .run(
                &sample_context(),
                "what is the evacuation signal phrase?",
                6,
            )
            .unwrap();
        assert_eq!(outcome.generated_tokens.len(), 6);
        assert!(!outcome.answer.is_empty());
        assert!(outcome.compression_ratio() > 1.0);
        assert!(outcome.cache_bytes < outcome.fp16_cache_bytes);
        assert!(outcome.chunk_plan.contains(&Bitwidth::Int2));
    }

    #[test]
    fn fp16_policy_run_has_ratio_one() {
        let pipeline = pipeline(16);
        let outcome = pipeline
            .run_with_policy(
                &sample_context(),
                "what about morale?",
                Box::new(Fp16Policy::new()),
                4,
            )
            .unwrap();
        assert!((outcome.compression_ratio() - 1.0).abs() < 1e-9);
        assert!(!outcome.chunk_plan.is_empty());
        assert!(outcome.chunk_plan.iter().all(|&bw| bw == Bitwidth::Fp16));
    }

    #[test]
    fn atom_policy_compresses_more_uniformly_than_cocktail_keeps_relevant() {
        let pipeline = pipeline(16);
        let cocktail = pipeline
            .run(
                &sample_context(),
                "what is the evacuation signal phrase?",
                4,
            )
            .unwrap();
        let atom = pipeline
            .run_with_policy(
                &sample_context(),
                "what is the evacuation signal phrase?",
                Box::new(AtomPolicy::default()),
                4,
            )
            .unwrap();
        // Cocktail keeps some chunks FP16, so it compresses less than pure
        // INT4 Atom but still well below FP16.
        assert!(cocktail.cache_bytes < cocktail.fp16_cache_bytes);
        assert!(atom.cache_bytes < cocktail.fp16_cache_bytes);
        assert_eq!(atom.report.chunks_at(Bitwidth::Fp16), 0);
        assert!(cocktail.report.chunks_at(Bitwidth::Fp16) > 0);
    }

    #[test]
    fn rejects_empty_inputs() {
        let pipeline = pipeline(16);
        assert!(pipeline.run("", "question", 4).is_err());
        assert!(pipeline.run("some context", "", 4).is_err());
    }

    #[test]
    fn a_failed_run_returns_its_error_and_leaves_the_engine_clean() {
        let (context, query) = (sample_context(), "what supplies are mentioned?");
        let used = pipeline(16);
        let Err(CocktailError::InvalidInput(message)) = used.run("", "q", 4) else {
            panic!("an empty context is invalid input");
        };
        assert!(message.starts_with("context and query"), "{message}");
        {
            // The pipeline's first request has id 0.
            let serving = used.serving.borrow();
            assert!(serving.is_idle());
            assert_eq!(serving.state(RequestId::new(0)), None, "a slot remains");
        }
        let after = used.run(&context, query, 5).unwrap();
        // The failed call interned its words, so the reference is a fresh
        // pipeline given the same failed call first.
        let fresh = pipeline(16);
        assert!(fresh.run("", "q", 4).is_err());
        let reference = fresh.run(&context, query, 5).unwrap();
        assert_eq!(after.answer, reference.answer);
        assert_eq!(after.generated_tokens, reference.generated_tokens);
        assert_eq!(after.cache_bytes, reference.cache_bytes);
    }

    #[test]
    fn timings_are_populated() {
        let pipeline = pipeline(16);
        let outcome = pipeline
            .run(&sample_context(), "what supplies are mentioned?", 3)
            .unwrap();
        assert!(outcome.timings.prefill_us > 0);
        assert!(outcome.timings.total_us() >= outcome.timings.prefill_us);
    }

    #[test]
    fn short_context_with_no_full_chunk_still_runs() {
        let pipeline = pipeline(64);
        // Fewer than 64 context words: zero chunks, everything in FP16
        // remainder, the policy has nothing to do.
        let outcome = pipeline
            .run(
                "tiny context with a handful of words only",
                "what is this?",
                3,
            )
            .unwrap();
        assert_eq!(outcome.report.total_chunks(), 0);
        assert!((outcome.compression_ratio() - 1.0).abs() < 1e-9);
    }
}
