//! The batched serving engine: many concurrent requests over one model.
//!
//! [`CocktailPipeline`](crate::CocktailPipeline) runs one request at a time;
//! this module is the multi-request serving surface built on the same
//! machinery. A [`ServingEngine`] owns the model engine plus one
//! [`ChunkedKvCache`] per in-flight request, and a
//! [`BatchScheduler`](crate::BatchScheduler) admits queued requests under a
//! KV-memory budget measured in *compressed* bytes — so Cocktail's
//! quantization directly buys batch capacity, exactly the economics of the
//! paper's Figure 6.
//!
//! Scheduling is continuous batching: each [`ServingEngine::step`] first
//! admits (and prefills) whatever fits from the queue head, then runs one
//! decode round in which every running request produces one token through a
//! single [`decode_step_batch`](cocktail_model::InferenceEngine::decode_step_batch)
//! call. Requests therefore join and leave the batch while others are
//! mid-decode. Because the batched decode is row-wise bit-identical to
//! single-request decode, batched serving returns byte-identical answers to
//! running the same requests sequentially — only faster, since the weight
//! streaming of each decode step is amortized over the batch.
//!
//! Admission itself is batched and prefix-aware. Up to
//! [`SchedulerConfig::prefill_window`](crate::SchedulerConfig) queued
//! prompts are prefilled together through one
//! [`prefill_batch`](cocktail_model::InferenceEngine::prefill_batch) call,
//! amortizing QKV/MLP weight streaming over the arriving prompts exactly as
//! the decode path does over the running batch. With
//! [`ServingEngine::with_prefix_cache`] enabled, requests whose context
//! opens with previously served tokens reuse the token-trie prefix cache's
//! KV blocks instead of re-prefilling them — divergent branches share
//! their common preamble's blocks exactly once, the budget is charged per
//! trie node, and pressure trims the tree leaf-ward (partial eviction)
//! rather than dropping whole contexts.
//! Both optimizations are bit-exact: prefill is causal and row-wise, so a
//! batched or prefix-resumed prefill produces byte-identical outputs to a
//! cold sequential one (asserted by tests and property tests).

use crate::config::CocktailConfig;
use crate::error::CocktailError;
use crate::pipeline::{CocktailOutcome, PipelineTimings};
use crate::policy::CocktailPolicy;
use crate::prefix::{
    common_prefix_len, PrefixCache, PrefixCacheConfig, PrefixCacheStats, PrefixHit, PrefixLease,
};
use crate::scheduler::{AdmitDecision, BatchScheduler, RequestId, SchedulerConfig};
use crate::search::BitwidthPlan;
use cocktail_baselines::{CachePolicy, PolicyContext, PolicyReport};
use cocktail_kvcache::{
    read_snapshot, write_snapshot, ChunkSegmentation, ChunkedKvCache, ChunkedLayerCache,
    PrefixKvBlock, SharedPrefixKv, TrieSnapshot,
};
use cocktail_model::{
    BatchPrefill, DecodeSlot, DecodeStep, InferenceEngine, ModelProfile, PrefillSlot, SamplerChain,
    SamplingParams,
};
use cocktail_retrieval::chunking;
use cocktail_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One serving request: a context, a query and a generation budget.
///
/// Construct through [`ServeRequest::builder`], which gathers every knob —
/// cache policy, stop sequences, prefix reuse — in one place:
///
/// ```
/// use cocktail_core::ServeRequest;
///
/// let request = ServeRequest::builder()
///     .context("the night ferry code is osprey.")
///     .query("what is the code?")
///     .max_new_tokens(8)
///     .stop_sequence("osprey")
///     .build();
/// assert_eq!(request.max_new_tokens, 8);
/// ```
///
/// [`ServeRequest::new`] remains the shorthand for a default-policy
/// request.
pub struct ServeRequest {
    /// The long context to answer from.
    pub context: String,
    /// The user query.
    pub query: String,
    /// Maximum number of tokens to generate.
    pub max_new_tokens: usize,
    policy: Option<Box<dyn CachePolicy>>,
    stop_sequences: Vec<String>,
    prefix_reuse: bool,
    sampling: Option<SamplingParams>,
}

impl ServeRequest {
    /// Creates a request served with the engine's default (Cocktail)
    /// policy.
    pub fn new(
        context: impl Into<String>,
        query: impl Into<String>,
        max_new_tokens: usize,
    ) -> Self {
        Self {
            context: context.into(),
            query: query.into(),
            max_new_tokens,
            policy: None,
            stop_sequences: Vec::new(),
            prefix_reuse: true,
            sampling: None,
        }
    }

    /// Starts a [`ServeRequestBuilder`] with an empty context/query and a
    /// zero token budget.
    pub fn builder() -> ServeRequestBuilder {
        ServeRequestBuilder::default()
    }
}

impl fmt::Debug for ServeRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeRequest")
            .field("context_chars", &self.context.len())
            .field("query", &self.query)
            .field("max_new_tokens", &self.max_new_tokens)
            .field(
                "policy",
                &self.policy.as_ref().map_or("engine default", |p| p.name()),
            )
            .field("stop_sequences", &self.stop_sequences)
            .field("prefix_reuse", &self.prefix_reuse)
            .field("sampling", &self.sampling)
            .finish()
    }
}

/// Builder for a [`ServeRequest`], consolidating the request knobs that
/// used to live in scattered `with_*` constructors.
///
/// Defaults: engine-default (Cocktail) cache policy, no stop sequences,
/// prefix reuse enabled, greedy decode (no sampling).
///
/// # Example
///
/// ```
/// use cocktail_core::{CocktailConfig, SamplingParams, ServeRequest, ServingEngine};
/// use cocktail_model::ModelProfile;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = CocktailConfig::default().with_chunk_size(8)?;
/// let mut engine = ServingEngine::new(ModelProfile::tiny(), config)?;
/// let context = "the harbor log notes that the night ferry code is osprey.";
/// // Stopping on a word of the answer ends the request before its full
/// // 8-token budget.
/// let id = engine.submit(
///     ServeRequest::builder()
///         .context(context)
///         .query("what is the night ferry code?")
///         .max_new_tokens(8)
///         .stop_sequence("osprey")
///         .build(),
/// );
/// let outcome = engine.run_until_idle()?.pop().expect("one completed request");
/// assert_eq!(outcome.id, id);
/// if outcome.outcome.answer.contains("osprey") {
///     assert!(outcome.outcome.answer.ends_with("osprey"));
///     assert!(outcome.outcome.generated_tokens.len() < 8);
/// }
///
/// // Sampled decode: attach SamplingParams. Identical seeds replay
/// // bit-identically, on this engine or any other with the same config.
/// let sampled = || {
///     ServeRequest::builder()
///         .context(context)
///         .query("what is the night ferry code?")
///         .max_new_tokens(8)
///         .sampling(SamplingParams::seeded(7).with_temperature(0.8).with_top_k(16))
///         .build()
/// };
/// engine.submit(sampled());
/// let first = engine.run_until_idle()?.pop().expect("sampled request");
/// engine.submit(sampled());
/// let replay = engine.run_until_idle()?.pop().expect("sampled replay");
/// assert_eq!(first.outcome.answer, replay.outcome.answer);
/// # Ok(())
/// # }
/// ```
pub struct ServeRequestBuilder {
    context: String,
    query: String,
    max_new_tokens: usize,
    policy: Option<Box<dyn CachePolicy>>,
    stop_sequences: Vec<String>,
    prefix_reuse: bool,
    sampling: Option<SamplingParams>,
}

impl Default for ServeRequestBuilder {
    fn default() -> Self {
        Self {
            context: String::new(),
            query: String::new(),
            max_new_tokens: 0,
            policy: None,
            stop_sequences: Vec::new(),
            prefix_reuse: true,
            sampling: None,
        }
    }
}

impl fmt::Debug for ServeRequestBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeRequestBuilder")
            .field("context_chars", &self.context.len())
            .field("query", &self.query)
            .field("max_new_tokens", &self.max_new_tokens)
            .field(
                "policy",
                &self.policy.as_ref().map_or("engine default", |p| p.name()),
            )
            .field("stop_sequences", &self.stop_sequences)
            .field("prefix_reuse", &self.prefix_reuse)
            .field("sampling", &self.sampling)
            .finish()
    }
}

impl ServeRequestBuilder {
    /// Sets the long context to answer from.
    pub fn context(mut self, context: impl Into<String>) -> Self {
        self.context = context.into();
        self
    }

    /// Sets the user query.
    pub fn query(mut self, query: impl Into<String>) -> Self {
        self.query = query.into();
        self
    }

    /// Sets the generation budget.
    pub fn max_new_tokens(mut self, max_new_tokens: usize) -> Self {
        self.max_new_tokens = max_new_tokens;
        self
    }

    /// Serves the request with an explicit cache policy instead of the
    /// engine default.
    pub fn policy(mut self, policy: Box<dyn CachePolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Adds a stop sequence: generation ends (with [`FinishReason::Stop`])
    /// as soon as the streamed answer text contains it. The matched text is
    /// kept in the answer, so the streamed pieces still concatenate to the
    /// collected outcome byte-for-byte. Empty sequences are ignored; call
    /// repeatedly for several triggers.
    pub fn stop_sequence(mut self, stop: impl Into<String>) -> Self {
        let stop = stop.into();
        if !stop.is_empty() {
            self.stop_sequences.push(stop);
        }
        self
    }

    /// Whether this request may read from (and publish to) the engine's
    /// shared prefix trie — including the snapshot-restored and cold-tier
    /// paths. Defaults to `true`; turning it off forces a fully cold
    /// prefill for this request and keeps its context out of snapshots,
    /// which is the right call for contexts that must not persist across
    /// restarts or leak into other tenants' warm hits.
    pub fn prefix_reuse(mut self, enabled: bool) -> Self {
        self.prefix_reuse = enabled;
        self
    }

    /// Decodes with the given sampling chain instead of greedy argmax.
    /// The chain's seeded ChaCha stream is private to this request, so a
    /// resubmission with identical params (including
    /// [`SamplingParams::seed`]) replays bit-identically regardless of
    /// batch composition, replica placement or engine restarts. Passing a
    /// greedy-temperature chain (`temperature == 0.0`) is byte-identical
    /// to omitting sampling entirely.
    pub fn sampling(mut self, params: SamplingParams) -> Self {
        self.sampling = Some(params);
        self
    }

    /// Finalizes the request.
    pub fn build(self) -> ServeRequest {
        ServeRequest {
            context: self.context,
            query: self.query,
            max_new_tokens: self.max_new_tokens,
            policy: self.policy,
            stop_sequences: self.stop_sequences,
            prefix_reuse: self.prefix_reuse,
            sampling: self.sampling,
        }
    }
}

/// Lifecycle state of a serving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestState {
    /// Submitted but not yet admitted by the scheduler (it may already be
    /// prefilled and waiting for memory).
    Queued,
    /// Admitted: its compressed cache is charged against the budget and it
    /// decodes one token per engine step.
    Running,
    /// Finished; its outcome is available.
    Completed,
    /// Terminally failed (e.g. it can never fit the memory budget).
    Failed,
    /// Cancelled by the client via [`ServingEngine::cancel`]; its KV
    /// budget is released and its stats remain available.
    Cancelled,
}

/// Why a request stopped generating tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FinishReason {
    /// The generation budget (`max_new_tokens`) was exhausted.
    Length,
    /// A stop sequence appeared in the streamed answer text.
    Stop,
    /// The client cancelled the request mid-flight.
    Cancelled,
    /// The request failed terminally before or during admission (invalid
    /// input, or a prompt that can never fit the memory budget); the
    /// message is available via [`ServingEngine::failure`] /
    /// [`ServingEngine::take_failure`].
    Failed,
}

/// One streamed token of one request, emitted by
/// [`ServingEngine::step_events`] the moment the token is committed —
/// callers can forward pieces to clients without waiting for the request
/// to complete.
///
/// Concatenating the `piece` fields of a request's events reproduces the
/// collected [`RequestOutcome`] answer byte-for-byte (asserted by unit,
/// integration and property tests). A terminal event carries
/// `finish: Some(..)`; a request finishing without committing a token
/// (a zero-budget request, a terminal failure, or a
/// [`ServingEngine::cancel`] — whose terminal event is delivered at the
/// front of the next [`ServingEngine::step_events`] batch) emits one event
/// with `token: None` and an empty piece. Every submitted request's event
/// stream therefore closes with exactly one `finish`, which is what lets a
/// streaming server multiplex `step_events` to per-client connections
/// without polling request states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenEvent {
    /// The request the token belongs to.
    pub id: RequestId,
    /// The engine clock (step number) at which the token was committed.
    pub step: usize,
    /// Zero-based index of this token within the request's generation.
    pub index: usize,
    /// The committed token id (`None` for a token-less terminal event).
    pub token: Option<u32>,
    /// The decoded text piece this token contributes to the answer.
    pub piece: String,
    /// Set on the request's final event.
    pub finish: Option<FinishReason>,
}

/// Per-request serving statistics, serializable into `results/*.json`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServingStats {
    /// The request id.
    pub id: RequestId,
    /// Number of context tokens.
    pub context_tokens: usize,
    /// Number of query tokens.
    pub query_tokens: usize,
    /// The generation budget.
    pub max_new_tokens: usize,
    /// Tokens actually generated.
    pub generated_tokens: usize,
    /// Compressed KV-cache bytes measured right after the policy ran.
    pub cache_bytes: usize,
    /// KV-cache bytes the same request would need at FP16.
    pub fp16_cache_bytes: usize,
    /// Bytes reserved up front for the FP16 decode tail.
    pub reserved_tail_bytes: usize,
    /// Prompt tokens whose KV was reused from the shared prefix cache
    /// instead of being re-prefilled (0 for a cold prefill).
    pub prefix_reused_tokens: usize,
    /// Engine step at which the request was submitted.
    pub submitted_step: usize,
    /// Engine step at which the scheduler admitted it (None while queued).
    pub admitted_step: Option<usize>,
    /// Engine step at which its first token was streamed (None until
    /// then) — per-request TTFT in steps, observable without wall-clock
    /// timing.
    pub first_token_step: Option<usize>,
    /// Engine step at which it completed, failed or was cancelled (None
    /// while in flight).
    pub finished_step: Option<usize>,
    /// Whether the client cancelled the request mid-flight.
    pub cancelled: bool,
    /// Wall-clock phase timings.
    pub timings: PipelineTimings,
}

/// Everything a completed request produced.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// The request id.
    pub id: RequestId,
    /// The pipeline outcome (answer, tokens, policy report, plan, bytes,
    /// timings) — identical to what [`CocktailPipeline::run`] returns for
    /// the same request.
    ///
    /// [`CocktailPipeline::run`]: crate::CocktailPipeline::run
    pub outcome: CocktailOutcome,
    /// Scheduling statistics.
    pub stats: ServingStats,
}

/// What one generation round asks of the engine.
enum RoundAction {
    /// The request finished this round for the given reason.
    Finished(FinishReason),
    /// The request needs one decode step for `token` at `pos`.
    Decode { token: u32, pos: usize },
}

/// What [`RequestTask::begin_round`] produced: the token (and its decoded
/// text piece) committed this round, if any, plus what to do next.
struct RoundStart {
    committed: Option<(u32, String)>,
    action: RoundAction,
}

/// The per-request state machine shared by the single-request pipeline and
/// the batched serving engine: a prefilled, policy-compressed cache plus the
/// greedy-decoding cursor and the incrementally streamed answer text.
pub(crate) struct RequestTask {
    prompt_len: usize,
    context_tokens: usize,
    query_tokens: usize,
    /// Interned-vocabulary size right after this request's prompt was
    /// encoded: decoding against this horizon makes the rendered answer
    /// independent of which other requests share the engine's tokenizer.
    vocab_horizon: usize,
    max_new_tokens: usize,
    cache: ChunkedKvCache,
    generated: Vec<u32>,
    /// The answer text streamed so far: the concatenation of every
    /// committed token's piece, byte-identical to decoding `generated`
    /// wholesale against the vocab horizon.
    streamed: String,
    /// Stop sequences that end generation early when they appear in
    /// `streamed`.
    stop_sequences: Vec<String>,
    next_token: u32,
    /// The per-request sampling chain, when the request asked for one.
    /// `None` decodes greedily (the engine's argmax). The chain's ChaCha
    /// stream is seeded from the request's own [`SamplingParams::seed`],
    /// never from engine state, so replays are placement-independent.
    sampler: Option<SamplerChain>,
    /// The lease of the prefix-cache hit this request resumed from, held
    /// for the task's lifetime: it pins every trie node along the matched
    /// path, so LRU eviction prefers nodes no in-flight request is using.
    /// Only the lease is kept — the hit's assembled KV rows were already
    /// copied into this task's cache during prefill, so holding them too
    /// would duplicate the prefix per warm request. Dropped — unpinning
    /// the path — when the task completes, is cancelled, or the engine
    /// needs the memory (the pins are advisory: eviction is always safe).
    prefix: Option<PrefixLease>,
    report: PolicyReport,
    plan: Option<BitwidthPlan>,
    cache_bytes: usize,
    fp16_cache_bytes: usize,
    timings: PipelineTimings,
}

/// The encoded prompt of one request, with the tokenizer's interning
/// horizon captured right after encoding (see [`RequestTask`]).
pub(crate) struct EncodedPrompt {
    context_tokens: Vec<u32>,
    query_tokens: Vec<u32>,
    prompt: Vec<u32>,
    vocab_horizon: usize,
}

impl EncodedPrompt {
    /// Tokenizes and validates one request's context and query.
    fn encode(engine: &InferenceEngine, context: &str, query: &str) -> Result<Self, CocktailError> {
        let tokenizer = engine.tokenizer();
        let context_tokens = tokenizer.encode(context);
        let query_tokens = tokenizer.encode(query);
        let vocab_horizon = tokenizer.interned_words();
        if context_tokens.is_empty() || query_tokens.is_empty() {
            return Err(CocktailError::InvalidInput(
                "context and query must both be non-empty".into(),
            ));
        }
        let mut prompt = context_tokens.clone();
        prompt.extend_from_slice(&query_tokens);
        let max_context = engine.config().max_context;
        if prompt.len() > max_context {
            return Err(CocktailError::InvalidInput(format!(
                "prompt of {} tokens exceeds max context {max_context}",
                prompt.len()
            )));
        }
        Ok(Self {
            context_tokens,
            query_tokens,
            prompt,
            vocab_horizon,
        })
    }
}

impl RequestTask {
    /// Tokenizes, prefills and compresses one request — the exact
    /// pre-decode half of the original `CocktailPipeline::run_with_policy`,
    /// as a cold batch of one.
    pub(crate) fn prepare(
        engine: &InferenceEngine,
        config: &CocktailConfig,
        context: &str,
        query: &str,
        policy: &dyn CachePolicy,
        max_new_tokens: usize,
    ) -> Result<Self, CocktailError> {
        let encoded = EncodedPrompt::encode(engine, context, query)?;
        let start = Instant::now();
        let prefill = engine
            .prefill_batch(&[PrefillSlot::cold(&encoded.prompt)])?
            .pop()
            .expect("batch of one yields one prefill");
        let prefill_us = start.elapsed().as_micros() as u64;
        let (task, _) = Self::from_parts(
            engine,
            config,
            context,
            query,
            policy,
            max_new_tokens,
            Vec::new(),
            None,
            &encoded,
            None,
            &prefill,
            prefill_us,
            false,
        )?;
        Ok(task)
    }

    /// Builds the task from an already-encoded prompt and its prefill
    /// output (which may come from a batched and/or prefix-reusing
    /// prefill). When `want_prefix_blocks` is set, the raw full-context KV
    /// assembled for the chunked cache is also returned as shareable
    /// prefix blocks, so the caller can publish them to a prefix cache
    /// without re-deriving them.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        engine: &InferenceEngine,
        config: &CocktailConfig,
        context: &str,
        query: &str,
        policy: &dyn CachePolicy,
        max_new_tokens: usize,
        stop_sequences: Vec<String>,
        sampling: Option<SamplingParams>,
        encoded: &EncodedPrompt,
        prefix: Option<&PrefixHit>,
        prefill: &BatchPrefill,
        prefill_us: u64,
        want_prefix_blocks: bool,
    ) -> Result<(Self, Option<SharedPrefixKv>), CocktailError> {
        let chunk_texts = chunking::chunk_words(context, config.chunk_size);

        let compress_start = Instant::now();
        let (mut cache, prefix_blocks) = build_context_cache(
            engine,
            config,
            prefix.map(|hit| (hit.kv(), hit.tokens())),
            prefill,
            encoded.context_tokens.len(),
            want_prefix_blocks,
        )?;
        let fp16_cache_bytes = cache.total_fp16_reference_bytes();
        let ctx = PolicyContext::new(chunk_texts.clone(), query);
        let report = policy.apply(&mut cache, &ctx)?;
        let compress_us = compress_start.elapsed().as_micros() as u64;
        let cache_bytes = cache.total_storage_bytes();

        let plan = if policy.name() == "Cocktail" && config.enable_search {
            let cocktail = CocktailPolicy::new(config.clone())?;
            Some(
                cocktail
                    .plan_for(&ctx, chunk_texts.len())
                    .map_err(|e| CocktailError::Substrate(e.to_string()))?,
            )
        } else {
            None
        };

        // The sampler sees the same logits the greedy path argmaxes over;
        // it replaces the *selection* only, so attaching a chain perturbs
        // no logits arithmetic and the greedy path stays byte-identical.
        let mut sampler = sampling.map(SamplerChain::new);
        let first_token = match sampler.as_mut() {
            Some(chain) => chain.sample(&prefill.last_logits, &[]),
            None => prefill.next_token(),
        };
        let task = Self {
            prompt_len: encoded.prompt.len(),
            context_tokens: encoded.context_tokens.len(),
            query_tokens: encoded.query_tokens.len(),
            vocab_horizon: encoded.vocab_horizon,
            max_new_tokens,
            cache,
            generated: Vec::with_capacity(max_new_tokens),
            streamed: String::new(),
            stop_sequences: stop_sequences
                .into_iter()
                .filter(|s| !s.is_empty())
                .collect(),
            next_token: first_token,
            sampler,
            prefix: prefix.map(PrefixHit::lease),
            report,
            plan,
            cache_bytes,
            fp16_cache_bytes,
            timings: PipelineTimings {
                prefill_us,
                compress_us,
                decode_us: 0,
            },
        };
        Ok((task, prefix_blocks))
    }

    /// Renders the text piece one committed token contributes to the
    /// streamed answer: the token decoded against this request's own
    /// vocabulary horizon, preceded by the word separator for every token
    /// after the first — so concatenating the pieces reproduces the
    /// wholesale decode of the generated sequence byte-for-byte.
    fn render_piece(&self, engine: &InferenceEngine, token: u32) -> String {
        let word = engine
            .tokenizer()
            .decode_with_horizon(&[token], self.vocab_horizon);
        if self.generated.len() <= 1 {
            word
        } else {
            format!(" {word}")
        }
    }

    /// Commits the pending token (rendering its streamed piece) and reports
    /// what this round needs: the request finished — budget exhausted or a
    /// stop sequence hit — or one decode step. Mirrors one iteration of the
    /// sequential greedy-decoding loop, so batched and sequential serving
    /// walk identical token sequences.
    fn begin_round(&mut self, engine: &InferenceEngine) -> RoundStart {
        if self.generated.len() >= self.max_new_tokens {
            return RoundStart {
                committed: None,
                action: RoundAction::Finished(FinishReason::Length),
            };
        }
        let token = self.next_token;
        self.generated.push(token);
        let piece = self.render_piece(engine, token);
        self.streamed.push_str(&piece);
        // A new match must overlap the just-appended piece, so only the
        // tail window of the streamed text needs scanning — keeping the
        // per-token cost independent of how much has been generated.
        if self.stop_sequences.iter().any(|stop| {
            let mut start = self.streamed.len().saturating_sub(piece.len() + stop.len());
            while !self.streamed.is_char_boundary(start) {
                start -= 1;
            }
            self.streamed[start..].contains(stop.as_str())
        }) {
            return RoundStart {
                committed: Some((token, piece)),
                action: RoundAction::Finished(FinishReason::Stop),
            };
        }
        if self.generated.len() == self.max_new_tokens {
            return RoundStart {
                committed: Some((token, piece)),
                action: RoundAction::Finished(FinishReason::Length),
            };
        }
        RoundStart {
            committed: Some((token, piece)),
            action: RoundAction::Decode {
                token,
                pos: self.prompt_len + self.generated.len() - 1,
            },
        }
    }

    /// Stores the decode result of this round: the engine's greedy pick,
    /// or — when the request carries a sampler — a fresh draw over the
    /// same logits, with the tokens generated so far as penalty history.
    fn finish_round(&mut self, step: DecodeStep) {
        self.next_token = match self.sampler.as_mut() {
            Some(chain) => chain.sample(&step.logits, &self.generated),
            None => step.next_token,
        };
    }

    /// Drops the shared-prefix pin (if any); returns whether one was held.
    fn release_prefix(&mut self) -> bool {
        self.prefix.take().is_some()
    }

    /// Runs one sequential generation round; returns `true` once complete.
    pub(crate) fn generate_next(
        &mut self,
        engine: &InferenceEngine,
    ) -> Result<bool, CocktailError> {
        match self.begin_round(engine).action {
            RoundAction::Finished(_) => Ok(true),
            RoundAction::Decode { token, pos } => {
                let step = engine.decode_step(token, pos, &mut self.cache)?;
                self.finish_round(step);
                Ok(false)
            }
        }
    }

    /// Adds decode wall-clock time to the timings.
    pub(crate) fn add_decode_us(&mut self, micros: u64) {
        self.timings.decode_us += micros;
    }

    /// Compressed cache footprint measured after the policy ran.
    pub(crate) fn cache_bytes(&self) -> usize {
        self.cache_bytes
    }

    /// Converts the finished task into a pipeline outcome. The answer is
    /// the streamed text — each token rendered against the request's own
    /// vocabulary horizon the moment it was committed — which is
    /// byte-identical to decoding the whole generated sequence at once, so
    /// batched, streamed and sequential serving all produce the same text.
    pub(crate) fn into_outcome(self, engine: &InferenceEngine) -> CocktailOutcome {
        debug_assert_eq!(
            self.streamed,
            engine
                .tokenizer()
                .decode_with_horizon(&self.generated, self.vocab_horizon),
            "streamed pieces must reproduce the wholesale decode"
        );
        CocktailOutcome {
            answer: self.streamed,
            generated_tokens: self.generated,
            report: self.report,
            plan: self.plan,
            cache_bytes: self.cache_bytes,
            fp16_cache_bytes: self.fp16_cache_bytes,
            timings: self.timings,
        }
    }
}

/// Builds the chunked cache for a prompt whose first `context_len` tokens
/// are the context: the context portion is segmented into chunks while the
/// query tokens are appended to the FP16 tail (they are never quantized,
/// mirroring the paper's treatment of the query and of decode-phase
/// outputs).
///
/// When `prefix` is given, the first `reused` context rows are read from
/// the shared blocks (bit-identical to the rows a cold prefill would have
/// produced) and the prefill output only covers the computed suffix. When
/// `want_prefix_blocks` is set, the assembled full-context raw KV is also
/// returned as shareable blocks — built from the same matrices, so sharing
/// costs no extra pass over the data.
fn build_context_cache(
    engine: &InferenceEngine,
    config: &CocktailConfig,
    prefix: Option<(&SharedPrefixKv, usize)>,
    prefill: &BatchPrefill,
    context_len: usize,
    want_prefix_blocks: bool,
) -> Result<(ChunkedKvCache, Option<SharedPrefixKv>), CocktailError> {
    let model = engine.config();
    let seg = ChunkSegmentation::new(context_len, config.chunk_size)?;
    let reused = prefix.map_or(0, |(_, len)| len);
    debug_assert!(
        reused <= context_len,
        "prefix matches are made against context tokens only"
    );
    let mut cache = ChunkedKvCache::new(model.n_layers, model.n_kv_heads);
    let mut blocks =
        want_prefix_blocks.then(|| Vec::with_capacity(model.n_layers * model.n_kv_heads));
    for layer in 0..model.n_layers {
        for head in 0..model.n_kv_heads {
            let raw = &prefill.suffix_kv[layer][head];
            let (k_ctx, v_ctx) = match prefix {
                Some((shared, len)) if len > 0 => {
                    let block = shared.block(layer, head);
                    let pk = block.k().slice_rows(0, len);
                    let pv = block.v().slice_rows(0, len);
                    let sk = raw.k.slice_rows(0, context_len - len);
                    let sv = raw.v.slice_rows(0, context_len - len);
                    (
                        Matrix::concat_rows(&[&pk, &sk])?,
                        Matrix::concat_rows(&[&pv, &sv])?,
                    )
                }
                _ => (
                    raw.k.slice_rows(0, context_len),
                    raw.v.slice_rows(0, context_len),
                ),
            };
            let mut layer_cache = ChunkedLayerCache::from_prefill(&k_ctx, &v_ctx, &seg)?;
            // The suffix rows past the context are the query tokens.
            for row in (context_len - reused)..raw.k.rows() {
                layer_cache.append_decode_token(raw.k.row(row), raw.v.row(row))?;
            }
            cache.set(layer, head, layer_cache);
            if let Some(blocks) = &mut blocks {
                blocks.push(PrefixKvBlock::new(k_ctx, v_ctx)?);
            }
        }
    }
    let shared = match blocks {
        Some(b) => Some(SharedPrefixKv::from_blocks(
            model.n_layers,
            model.n_kv_heads,
            b,
        )?),
        None => None,
    };
    Ok((cache, shared))
}

/// Where a request currently is in the serving lifecycle.
enum Phase {
    /// Submitted, not yet prefilled.
    Queued(ServeRequest),
    /// Prefilled and compressed, waiting for the scheduler to admit it.
    Prepared(Box<RequestTask>),
    /// Admitted and decoding.
    Running(Box<RequestTask>),
    /// Finished successfully.
    Completed(Box<CocktailOutcome>),
    /// Terminally failed.
    Failed(String),
    /// Cancelled by the client; the task (cache, prefix pin) is dropped.
    Cancelled,
}

struct Slot {
    stats: ServingStats,
    phase: Phase,
}

/// The multi-request serving engine: continuous batching over one model.
///
/// # Example
///
/// ```
/// use cocktail_core::{CocktailConfig, ServeRequest, ServingEngine};
/// use cocktail_model::ModelProfile;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = CocktailConfig::default().with_chunk_size(8)?;
/// let mut engine = ServingEngine::new(ModelProfile::tiny(), config)?;
/// let context = "the cargo manifest lists forty crates of oranges. \
///                the access word for the customs office is bluebird.";
/// let a = engine.submit(ServeRequest::new(context, "what is the access word?", 6));
/// let b = engine.submit(ServeRequest::new(context, "what does the manifest list?", 6));
/// let outcomes = engine.run_until_idle()?;
/// assert_eq!(outcomes.len(), 2);
/// assert_eq!(outcomes[0].id, a);
/// assert_eq!(outcomes[1].id, b);
/// assert!(!outcomes[0].outcome.answer.is_empty());
/// # Ok(())
/// # }
/// ```
pub struct ServingEngine {
    engine: InferenceEngine,
    config: CocktailConfig,
    scheduler: BatchScheduler,
    prefix_cache: Option<PrefixCache>,
    slots: BTreeMap<RequestId, Slot>,
    /// Terminal events produced outside a decode round (cancellations),
    /// delivered at the front of the next [`ServingEngine::step_events`]
    /// batch so every request's event stream closes with a `finish`.
    pending_events: Vec<TokenEvent>,
    next_id: u64,
    clock: usize,
}

impl fmt::Debug for ServingEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServingEngine")
            .field("model", &self.engine.config().name)
            .field("queued", &self.scheduler.queued_len())
            .field("running", &self.scheduler.running_len())
            .field("kv_bytes_in_use", &self.scheduler.used_bytes())
            .field(
                "prefix_cache_entries",
                &self.prefix_cache.as_ref().map_or(0, PrefixCache::len),
            )
            .field("clock", &self.clock)
            .finish()
    }
}

/// One queued request taken out of its slot for a batched admission
/// prefill.
struct PrepCandidate {
    id: RequestId,
    context: String,
    query: String,
    policy: Box<dyn CachePolicy>,
    max_new_tokens: usize,
    stop_sequences: Vec<String>,
    prefix_reuse: bool,
    sampling: Option<SamplingParams>,
    encoded: EncodedPrompt,
    prefix: Option<PrefixHit>,
}

/// How one FIFO admission sweep over the queue head ended.
enum AdmitSweep {
    /// The queue is empty.
    Drained,
    /// The head is prepared but deferred (budget or batch cap).
    Deferred,
    /// The head has not been prefilled yet; another prepare pass is needed.
    NeedsPrepare,
}

/// What [`ServingEngine::snapshot_to`] wrote.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotReport {
    /// Size of the snapshot file in bytes.
    pub bytes: usize,
    /// Trie nodes captured (0 when the prefix cache is disabled or empty).
    pub nodes: usize,
}

/// How a [`ServingEngine::restore_from`] attempt ended.
///
/// Restoring never fails the engine: an unusable snapshot (truncated,
/// corrupted, wrong config fingerprint, diverging tokenizer vocabulary)
/// degrades to a clean cold start, reported through `restored == false`
/// and a human-readable `reason`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RestoreReport {
    /// Whether the snapshot was loaded into the prefix cache.
    pub restored: bool,
    /// Trie nodes resident after the restore (post budget eviction).
    pub nodes: usize,
    /// Prefix-cache bytes resident after the restore.
    pub resident_bytes: usize,
    /// Why the restore degraded to a cold start, when it did.
    pub reason: Option<String>,
}

/// FNV-1a over `bytes` — the same hash the snapshot checksum uses, applied
/// here to the engine's configuration descriptor.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl ServingEngine {
    /// Builds a serving engine for a model profile with an unlimited
    /// scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`CocktailError`] if the profile or configuration is
    /// invalid.
    pub fn new(profile: ModelProfile, config: CocktailConfig) -> Result<Self, CocktailError> {
        let engine = InferenceEngine::new(profile)?;
        Self::with_engine(engine, config)
    }

    /// Builds a serving engine around an existing inference engine.
    ///
    /// # Errors
    ///
    /// Returns [`CocktailError::InvalidConfig`] if the configuration is
    /// invalid.
    pub fn with_engine(
        engine: InferenceEngine,
        config: CocktailConfig,
    ) -> Result<Self, CocktailError> {
        config.validate()?;
        Ok(Self {
            engine,
            config,
            scheduler: BatchScheduler::new(SchedulerConfig::default()),
            prefix_cache: None,
            slots: BTreeMap::new(),
            pending_events: Vec::new(),
            next_id: 0,
            clock: 0,
        })
    }

    /// Replaces the scheduler configuration (budget and batch cap).
    ///
    /// # Panics
    ///
    /// Panics if any request has already been submitted: replacing the
    /// scheduler would silently drop its queue and budget accounting, so
    /// the configuration must be chosen before traffic arrives.
    pub fn with_scheduler_config(mut self, scheduler: SchedulerConfig) -> Self {
        assert!(
            self.slots.is_empty() && self.scheduler.is_idle(),
            "scheduler configuration must be set before submitting requests"
        );
        self.scheduler = BatchScheduler::new(scheduler);
        self
    }

    /// Enables shared-prefix KV reuse through the token-trie
    /// [`PrefixCache`]: requests whose context opens with previously
    /// served tokens resume from the cached trie path instead of
    /// re-prefilling it, and divergent branches over a common preamble
    /// store that preamble's blocks exactly once. Resident blocks are
    /// charged against the scheduler's KV budget per trie node, and budget
    /// pressure trims the tree leaf-ward (partial LRU eviction) rather
    /// than dropping whole contexts. Reuse is bit-exact — answers are
    /// byte-identical with the cache on or off.
    ///
    /// # Panics
    ///
    /// Panics if any request has already been submitted (the cache must be
    /// configured before traffic arrives, like the scheduler).
    pub fn with_prefix_cache(mut self, config: PrefixCacheConfig) -> Self {
        assert!(
            self.slots.is_empty() && self.scheduler.is_idle(),
            "the prefix cache must be configured before submitting requests"
        );
        self.prefix_cache = Some(PrefixCache::new(config));
        self
    }

    /// Enables the disk cold tier on the prefix cache (creating a
    /// default-configured cache first if none was enabled): evicted leaves
    /// are demoted to the spill file at `path` instead of dropped, and
    /// later lookups that miss RAM but hit the cold index repromote the
    /// branch under the existing KV budget. Records are stamped with this
    /// engine's configuration fingerprint, so a spill file can never leak
    /// KV across incompatible configurations.
    ///
    /// # Errors
    ///
    /// Returns [`CocktailError::Substrate`] if the spill file cannot be
    /// created.
    ///
    /// # Panics
    ///
    /// Panics if any request has already been submitted (like the
    /// scheduler and prefix-cache builders).
    pub fn with_cold_tier(mut self, path: impl Into<PathBuf>) -> Result<Self, CocktailError> {
        assert!(
            self.slots.is_empty() && self.scheduler.is_idle(),
            "the cold tier must be configured before submitting requests"
        );
        let fingerprint = self.config_fingerprint();
        let cache = self
            .prefix_cache
            .get_or_insert_with(|| PrefixCache::new(PrefixCacheConfig::default()));
        cache
            .enable_cold_tier(path, fingerprint)
            .map_err(|e| CocktailError::Substrate(e.to_string()))?;
        Ok(self)
    }

    /// Counters and occupancy of the prefix cache; `None` when disabled.
    pub fn prefix_cache_stats(&self) -> Option<PrefixCacheStats> {
        self.prefix_cache.as_ref().map(PrefixCache::stats)
    }

    /// Serializes the prefix cache (and the tokenizer interning order it
    /// depends on) into the flat snapshot format, stamped with this
    /// engine's configuration fingerprint. With the cache disabled or
    /// empty the snapshot is still valid — it restores to an empty trie.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let fingerprint = self.config_fingerprint();
        let vocab = self.engine.tokenizer().interned_vocab();
        let snapshot = match self.prefix_cache.as_ref() {
            Some(cache) => cache.to_snapshot(fingerprint, vocab),
            None => TrieSnapshot {
                fingerprint,
                layers: 1,
                kv_heads: 1,
                vocab,
                nodes: Vec::new(),
            },
        };
        write_snapshot(&snapshot)
    }

    /// Writes [`ServingEngine::snapshot_bytes`] to `path` so a restarted
    /// engine (or a fresh replica) can start warm via
    /// [`ServingEngine::restore_from`].
    ///
    /// # Errors
    ///
    /// Returns [`CocktailError::Substrate`] if the file cannot be written.
    pub fn snapshot_to(&self, path: impl AsRef<Path>) -> Result<SnapshotReport, CocktailError> {
        let bytes = self.snapshot_bytes();
        std::fs::write(path, &bytes).map_err(|e| CocktailError::Substrate(e.to_string()))?;
        Ok(SnapshotReport {
            bytes: bytes.len(),
            nodes: self.prefix_cache.as_ref().map_or(0, PrefixCache::len),
        })
    }

    /// Loads a snapshot produced by [`ServingEngine::snapshot_bytes`] into
    /// the prefix cache (creating a default-configured cache first if none
    /// was enabled), replays the snapshot's tokenizer interning order, and
    /// re-charges the restored bytes against the KV budget — evicting
    /// leaf-first if the budget is tighter than it was at snapshot time.
    ///
    /// Restore is infallible by design: any unusable snapshot — truncated,
    /// corrupted, produced under a different model/quantization/seed
    /// configuration, or with a diverging tokenizer — leaves the engine
    /// exactly as it was (a clean cold start) and reports why.
    pub fn restore_from_bytes(&mut self, bytes: &[u8]) -> RestoreReport {
        let fail = |reason: String| RestoreReport {
            restored: false,
            nodes: 0,
            resident_bytes: 0,
            reason: Some(reason),
        };
        let snapshot = match read_snapshot(bytes) {
            Ok(snapshot) => snapshot,
            Err(e) => return fail(e.to_string()),
        };
        if let Err(e) = snapshot.expect_fingerprint(self.config_fingerprint()) {
            return fail(e.to_string());
        }
        if !self.engine.tokenizer().align_vocab(&snapshot.vocab) {
            return fail("tokenizer vocabulary diverges from the snapshot".to_string());
        }
        let cache = self
            .prefix_cache
            .get_or_insert_with(|| PrefixCache::new(PrefixCacheConfig::default()));
        if let Err(e) = cache.load_snapshot(snapshot) {
            return fail(e.to_string());
        }
        self.sync_shared_bytes();
        while !self.scheduler.would_fit_shared(0) {
            if !self.evict_shared_for_budget() {
                break;
            }
        }
        let cache = self.prefix_cache.as_ref().expect("cache enabled above");
        RestoreReport {
            restored: true,
            nodes: cache.len(),
            resident_bytes: cache.total_bytes(),
            reason: None,
        }
    }

    /// Reads a snapshot file and feeds it to
    /// [`ServingEngine::restore_from_bytes`]. A missing or unreadable file
    /// degrades to a cold start like any other unusable snapshot.
    pub fn restore_from(&mut self, path: impl AsRef<Path>) -> RestoreReport {
        match std::fs::read(path) {
            Ok(bytes) => self.restore_from_bytes(&bytes),
            Err(e) => RestoreReport {
                restored: false,
                nodes: 0,
                resident_bytes: 0,
                reason: Some(format!("read snapshot: {e}")),
            },
        }
    }

    /// Fingerprint of everything that must match for KV bytes to be
    /// portable: the Cocktail configuration, the model configuration, and
    /// the weight seed (different seed ⇒ different weights ⇒ incompatible
    /// KV). Stamped into snapshots and cold-tier records.
    fn config_fingerprint(&self) -> u64 {
        let descriptor = format!(
            "{:?}|{:?}|{}",
            self.config,
            self.engine.config(),
            self.engine.weight_seed()
        );
        fnv1a(descriptor.as_bytes())
    }

    /// The underlying inference engine.
    pub fn engine(&self) -> &InferenceEngine {
        &self.engine
    }

    /// The Cocktail configuration.
    pub fn config(&self) -> &CocktailConfig {
        &self.config
    }

    /// The scheduler (budget accounting, queue/batch occupancy).
    pub fn scheduler(&self) -> &BatchScheduler {
        &self.scheduler
    }

    /// KV-cache bytes currently charged against the memory budget.
    pub fn kv_bytes_in_use(&self) -> usize {
        self.scheduler.used_bytes()
    }

    /// Engine steps executed so far (the logical serving clock).
    pub fn clock(&self) -> usize {
        self.clock
    }

    /// Submits a request; it joins the scheduler queue and will be admitted
    /// by a later [`ServingEngine::step`].
    pub fn submit(&mut self, request: ServeRequest) -> RequestId {
        let id = RequestId::new(self.next_id);
        self.next_id += 1;
        let stats = ServingStats {
            id,
            context_tokens: 0,
            query_tokens: 0,
            max_new_tokens: request.max_new_tokens,
            generated_tokens: 0,
            cache_bytes: 0,
            fp16_cache_bytes: 0,
            reserved_tail_bytes: 0,
            prefix_reused_tokens: 0,
            submitted_step: self.clock,
            admitted_step: None,
            first_token_step: None,
            finished_step: None,
            cancelled: false,
            timings: PipelineTimings::default(),
        };
        self.slots.insert(
            id,
            Slot {
                stats,
                phase: Phase::Queued(request),
            },
        );
        self.scheduler.enqueue(id);
        id
    }

    /// Current lifecycle state of a request.
    pub fn state(&self, id: RequestId) -> Option<RequestState> {
        self.slots.get(&id).map(|slot| match slot.phase {
            Phase::Queued(_) | Phase::Prepared(_) => RequestState::Queued,
            Phase::Running(_) => RequestState::Running,
            Phase::Completed(_) => RequestState::Completed,
            Phase::Failed(_) => RequestState::Failed,
            Phase::Cancelled => RequestState::Cancelled,
        })
    }

    /// Serving statistics of a request (live; fields fill in as the request
    /// progresses).
    pub fn stats(&self, id: RequestId) -> Option<&ServingStats> {
        self.slots.get(&id).map(|slot| &slot.stats)
    }

    /// The failure message of a failed request.
    pub fn failure(&self, id: RequestId) -> Option<&str> {
        match &self.slots.get(&id)?.phase {
            Phase::Failed(message) => Some(message),
            _ => None,
        }
    }

    /// Removes and returns the outcome of a completed request.
    pub fn take_outcome(&mut self, id: RequestId) -> Option<RequestOutcome> {
        if !matches!(self.slots.get(&id)?.phase, Phase::Completed(_)) {
            return None;
        }
        let slot = self.slots.remove(&id)?;
        match slot.phase {
            Phase::Completed(outcome) => Some(RequestOutcome {
                id,
                outcome: *outcome,
                stats: slot.stats,
            }),
            _ => unreachable!("phase checked above"),
        }
    }

    /// Removes a failed request and returns its failure message and stats.
    ///
    /// Terminal slots are retained until collected so callers can inspect
    /// them; a long-running engine should drain failures with this method
    /// (as it drains completions with [`ServingEngine::take_outcome`]) to
    /// keep the slot table from growing without bound.
    pub fn take_failure(&mut self, id: RequestId) -> Option<(String, ServingStats)> {
        if !matches!(self.slots.get(&id)?.phase, Phase::Failed(_)) {
            return None;
        }
        let slot = self.slots.remove(&id)?;
        match slot.phase {
            Phase::Failed(message) => Some((message, slot.stats)),
            _ => unreachable!("phase checked above"),
        }
    }

    /// Removes a cancelled request and returns its stats (how many tokens
    /// it decoded before the client gave up, its phase timings, and so
    /// on). Like [`ServingEngine::take_failure`], draining cancelled slots
    /// keeps the slot table bounded on a long-running engine.
    pub fn take_cancelled(&mut self, id: RequestId) -> Option<ServingStats> {
        if !matches!(self.slots.get(&id)?.phase, Phase::Cancelled) {
            return None;
        }
        self.slots.remove(&id).map(|slot| slot.stats)
    }

    /// Cancels a request mid-flight — the serving-side handling of a
    /// client disconnect. Returns `true` if the request was still live
    /// (queued, prepared or running); a completed, failed or already
    /// cancelled request is left untouched and `false` is returned.
    ///
    /// Cancellation immediately releases everything the request held: a
    /// running request's KV bytes (and reserved decode tail) are released
    /// from the scheduler budget, a queued request leaves the admission
    /// queue, the compressed cache is dropped, and the request's
    /// shared-prefix pin is released so the prefix-cache entry becomes
    /// evictable again.
    ///
    /// **Isolation guarantee:** cancelling a request never perturbs any
    /// other request. Batched decode is row-wise independent (each request
    /// owns its cache and its row of the batch), so the surviving
    /// requests' remaining tokens — and therefore their final answers —
    /// are byte-identical to what they would produce with no cancellation
    /// at all, which in turn equals their own solo sequential pipeline
    /// runs. This is asserted by the cancellation property test.
    ///
    /// # Example
    ///
    /// ```
    /// use cocktail_core::{CocktailConfig, RequestState, ServeRequest, ServingEngine};
    /// use cocktail_model::ModelProfile;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let config = CocktailConfig::default().with_chunk_size(8)?;
    /// let mut engine = ServingEngine::new(ModelProfile::tiny(), config)?;
    /// let context = "the quartermaster records twelve barrels of fresh water aboard.";
    /// let id = engine.submit(ServeRequest::new(context, "how many barrels?", 16));
    /// engine.step()?; // admitted and decoding
    /// let before = engine.kv_bytes_in_use();
    /// assert!(engine.cancel(id), "a running request can be cancelled");
    /// assert!(engine.kv_bytes_in_use() < before, "its KV charge is released");
    /// assert_eq!(engine.state(id), Some(RequestState::Cancelled));
    /// assert!(!engine.cancel(id), "cancelling twice is a no-op");
    /// let stats = engine.take_cancelled(id).expect("cancelled stats");
    /// assert!(stats.cancelled);
    /// assert!(stats.generated_tokens < 16);
    /// # Ok(())
    /// # }
    /// ```
    pub fn cancel(&mut self, id: RequestId) -> bool {
        let now = self.clock;
        let Some(slot) = self.slots.get_mut(&id) else {
            return false;
        };
        match &slot.phase {
            Phase::Queued(_) | Phase::Prepared(_) => {
                self.scheduler.remove_queued(id);
            }
            Phase::Running(_) => {
                self.scheduler.complete(id);
            }
            Phase::Completed(_) | Phase::Failed(_) | Phase::Cancelled => return false,
        }
        slot.stats.cancelled = true;
        slot.stats.finished_step = Some(now);
        // Close the request's event stream: the terminal Cancelled event
        // is delivered at the front of the next step_events batch (a
        // streaming server multiplexing step_events to clients needs a
        // closing finish even when someone else — an admin timeout, a
        // tenant limit — did the cancelling).
        self.pending_events.push(TokenEvent {
            id,
            step: now,
            index: slot.stats.generated_tokens,
            token: None,
            piece: String::new(),
            finish: Some(FinishReason::Cancelled),
        });
        // Dropping the phase drops the task: its compressed cache and its
        // shared-prefix pin go with it.
        slot.phase = Phase::Cancelled;
        true
    }

    /// Returns `true` when no request is queued or running (nothing left
    /// for [`ServingEngine::step`] to do).
    pub fn is_idle(&self) -> bool {
        self.scheduler.is_idle()
    }

    /// Zero-based position of a queued request in the admission queue
    /// (`Some(0)` is the head, next to be admitted); `None` once the
    /// request is running, finished, or unknown. A gateway surfacing
    /// backpressure reports this to waiting clients instead of leaving
    /// them blind.
    pub fn queue_position(&self, id: RequestId) -> Option<usize> {
        self.scheduler.queued_ids().iter().position(|q| *q == id)
    }

    /// Marks a request terminally failed and closes its event stream: the
    /// token-less [`FinishReason::Failed`] terminal event is delivered at
    /// the front of the next [`ServingEngine::step_events`] batch, so
    /// stream consumers see failures exactly like every other finish.
    fn fail_request(&mut self, id: RequestId, now: usize, message: String) {
        let slot = self.slots.get_mut(&id).expect("failing request has a slot");
        slot.stats.finished_step = Some(now);
        let index = slot.stats.generated_tokens;
        slot.phase = Phase::Failed(message);
        self.pending_events.push(TokenEvent {
            id,
            step: now,
            index,
            token: None,
            piece: String::new(),
            finish: Some(FinishReason::Failed),
        });
    }

    /// Compressed KV bytes held by prepared-but-not-yet-admitted requests.
    /// These bytes are *not* part of [`ServingEngine::kv_bytes_in_use`]:
    /// the budget governs admitted requests (and resident prefix-cache
    /// blocks), while prepared caches are kept across deferrals so a
    /// prefill is never repeated. Up to
    /// [`SchedulerConfig::prefill_window`](crate::SchedulerConfig) requests
    /// can be prepared ahead of admission, so operators sizing real memory
    /// should add this headroom to the budget.
    pub fn prepared_kv_bytes(&self) -> usize {
        self.slots
            .values()
            .map(|slot| match &slot.phase {
                Phase::Prepared(task) => task.cache_bytes(),
                _ => 0,
            })
            .sum()
    }

    /// Runs one engine step: admit whatever fits from the queue head
    /// (prefilling newly admitted requests), then one decode round in which
    /// every running request generates one token via a single batched
    /// decode call. Returns the ids of requests that finished this step.
    ///
    /// This is the collect-only wrapper over
    /// [`ServingEngine::step_events`], which additionally streams every
    /// committed token.
    ///
    /// Note that the queue head is prepared (prefilled + compressed) before
    /// its budget check, so up to one deferred request's compressed cache
    /// can be resident beyond the budget — see
    /// [`ServingEngine::prepared_kv_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CocktailError`] only for engine-level failures; a request
    /// that cannot be served (invalid input, oversized for the budget)
    /// transitions to [`RequestState::Failed`] instead of poisoning the
    /// engine.
    pub fn step(&mut self) -> Result<Vec<RequestId>, CocktailError> {
        Ok(self
            .step_events()?
            .into_iter()
            .filter(|event| event.finish.is_some())
            .map(|event| event.id)
            .collect())
    }

    /// Runs one engine step and streams it: every token committed this
    /// step is returned as a [`TokenEvent`] (in running-batch order), with
    /// `finish` set on each request's final event. Callers forward the
    /// pieces to clients as they arrive; concatenating a request's pieces
    /// reproduces its collected [`RequestOutcome`] answer byte-for-byte.
    ///
    /// # Errors
    ///
    /// Returns [`CocktailError`] only for engine-level failures, exactly
    /// like [`ServingEngine::step`].
    pub fn step_events(&mut self) -> Result<Vec<TokenEvent>, CocktailError> {
        self.clock += 1;
        let now = self.clock;
        self.admit(now)?;
        let mut events = std::mem::take(&mut self.pending_events);
        events.extend(self.decode_round(now)?);
        Ok(events)
    }

    /// FIFO admission with batched prefill: prefill up to a window of
    /// queued requests in one pass, then admit prepared heads until one no
    /// longer fits, repeating while the queue keeps yielding unprepared
    /// heads.
    fn admit(&mut self, now: usize) -> Result<(), CocktailError> {
        loop {
            self.prepare_window(now)?;
            if !matches!(self.admit_prepared(now), AdmitSweep::NeedsPrepare) {
                return Ok(());
            }
        }
    }

    /// Takes up to `prefill_window` queued requests from the front of the
    /// queue, encodes them in queue order (so tokenizer interning — and
    /// every request's vocabulary horizon — matches what sequential serving
    /// would produce), and prefills them through at most two batched
    /// passes: first the requests with no reusable prefix, then — once the
    /// cold pass has published its contexts to the prefix cache — the
    /// requests that can resume from a cached prefix. The two-pass split is
    /// what lets simultaneously arriving requests with a common context
    /// share its prefill within a single engine step.
    fn prepare_window(&mut self, now: usize) -> Result<(), CocktailError> {
        let window = self.scheduler.config().prefill_window;
        let ids: Vec<RequestId> = self
            .scheduler
            .queued_ids()
            .into_iter()
            .take(window)
            .filter(|id| {
                self.slots
                    .get(id)
                    .is_some_and(|slot| matches!(slot.phase, Phase::Queued(_)))
            })
            .collect();
        if ids.is_empty() {
            return Ok(());
        }

        let mut candidates: Vec<PrepCandidate> = Vec::with_capacity(ids.len());
        for id in ids {
            let phase = {
                let slot = self.slots.get_mut(&id).expect("queued request has a slot");
                std::mem::replace(&mut slot.phase, Phase::Failed("preparing".into()))
            };
            let Phase::Queued(request) = phase else {
                unreachable!("window contains queued phases only");
            };
            let policy: Box<dyn CachePolicy> = match request.policy {
                Some(policy) => policy,
                None => Box::new(CocktailPolicy::new(self.config.clone())?),
            };
            match EncodedPrompt::encode(&self.engine, &request.context, &request.query) {
                Ok(encoded) => candidates.push(PrepCandidate {
                    id,
                    context: request.context,
                    query: request.query,
                    policy,
                    max_new_tokens: request.max_new_tokens,
                    stop_sequences: request.stop_sequences,
                    prefix_reuse: request.prefix_reuse,
                    sampling: request.sampling,
                    encoded,
                    prefix: None,
                }),
                Err(err) => self.fail_request(id, now, err.to_string()),
            }
        }

        // Cold-tier repromotion happens before classification: a candidate
        // whose context misses the RAM trie but matches the cold index
        // promotes the spilled branch back under the KV budget now, so it
        // prefills as warm in this very step instead of going cold once
        // and re-publishing what the disk already holds.
        if self
            .prefix_cache
            .as_ref()
            .is_some_and(PrefixCache::cold_tier_enabled)
        {
            let contexts: Vec<Vec<u32>> = candidates
                .iter()
                .filter(|cand| cand.prefix_reuse)
                .map(|cand| cand.encoded.context_tokens.clone())
                .collect();
            for tokens in contexts {
                self.try_repromote(&tokens);
            }
        }

        // Classification uses stats-free probes; the warm pass below does
        // the one real (hit/miss-counted, LRU-touching) lookup per warm
        // candidate, after the cold pass has published its contexts — so a
        // candidate that would only match a short stale entry now still
        // picks up the longer prefix a cold batchmate just prefilled.
        let min_prefix = self
            .prefix_cache
            .as_ref()
            .map(|cache| cache.config().min_prefix_tokens);
        let mut cold: Vec<PrepCandidate> = Vec::new();
        let mut warm: Vec<PrepCandidate> = Vec::new();
        for cand in candidates {
            match min_prefix {
                // A request that opted out of prefix reuse always prefills
                // cold and never reads the trie (no counted miss either —
                // it never asked the cache for anything).
                _ if !cand.prefix_reuse => cold.push(cand),
                None => cold.push(cand),
                Some(min) => {
                    let cached = self.prefix_cache.as_ref().map_or(0, |cache| {
                        cache.peek_prefix_len(&cand.encoded.context_tokens)
                    });
                    // Only reuse-enabled batchmates publish their contexts,
                    // so only they can warm a same-prefix candidate.
                    let shares_cold_batchmate =
                        cold.iter().filter(|o| o.prefix_reuse).any(|other| {
                            common_prefix_len(
                                &other.encoded.context_tokens,
                                &cand.encoded.context_tokens,
                            ) >= min
                        });
                    if cached >= min || shares_cold_batchmate {
                        warm.push(cand);
                    } else {
                        // Record the miss through the counted lookup path.
                        if let Some(cache) = self.prefix_cache.as_mut() {
                            let _missed = cache.lookup(&cand.encoded.context_tokens);
                            debug_assert!(_missed.is_none(), "peek and lookup disagree");
                        }
                        cold.push(cand);
                    }
                }
            }
        }

        self.prefill_candidates(cold, now)?;
        for cand in &mut warm {
            cand.prefix = self
                .prefix_cache
                .as_mut()
                .and_then(|cache| cache.lookup(&cand.encoded.context_tokens));
        }
        self.prefill_candidates(warm, now)
    }

    /// Prefills one batch of candidates through a single
    /// `InferenceEngine::prefill_batch` call, builds their compressed
    /// caches, and publishes shareable context blocks to the prefix cache.
    fn prefill_candidates(
        &mut self,
        candidates: Vec<PrepCandidate>,
        now: usize,
    ) -> Result<(), CocktailError> {
        if candidates.is_empty() {
            return Ok(());
        }
        let outputs = {
            let slots: Vec<PrefillSlot<'_>> = candidates
                .iter()
                .map(|cand| match &cand.prefix {
                    Some(hit) => {
                        PrefillSlot::with_prefix(&cand.encoded.prompt, hit.kv(), hit.tokens())
                    }
                    None => PrefillSlot::cold(&cand.encoded.prompt),
                })
                .collect();
            let start = Instant::now();
            let outputs = self.engine.prefill_batch(&slots)?;
            (outputs, start.elapsed().as_micros() as u64)
        };
        let (outputs, elapsed_us) = outputs;

        // Attribute the batch wall time per request in proportion to its
        // share of the attention work (computed suffix rows x full prompt
        // length), the quadratic part batching does not amortize.
        let weights: Vec<u128> = candidates
            .iter()
            .map(|cand| {
                let reused = cand.prefix.as_ref().map_or(0, PrefixHit::tokens);
                ((cand.encoded.prompt.len() - reused) * cand.encoded.prompt.len()) as u128
            })
            .collect();
        let total_weight: u128 = weights.iter().sum::<u128>().max(1);

        for ((cand, output), weight) in candidates.into_iter().zip(outputs).zip(weights) {
            let prefill_us = ((u128::from(elapsed_us) * weight) / total_weight) as u64;
            let reused = cand.prefix.as_ref().map_or(0, PrefixHit::tokens);
            let want_blocks = match &self.prefix_cache {
                Some(cache) => {
                    cand.prefix_reuse
                        && cand.encoded.context_tokens.len() >= cache.config().min_prefix_tokens
                        && !cache.covers(&cand.encoded.context_tokens)
                }
                None => false,
            };
            let prepared = RequestTask::from_parts(
                &self.engine,
                &self.config,
                &cand.context,
                &cand.query,
                cand.policy.as_ref(),
                cand.max_new_tokens,
                cand.stop_sequences,
                cand.sampling,
                &cand.encoded,
                cand.prefix.as_ref(),
                &output,
                prefill_us,
                want_blocks,
            );
            let mut publish: Option<(Vec<u32>, SharedPrefixKv)> = None;
            let mut failure: Option<String> = None;
            {
                let slot = self
                    .slots
                    .get_mut(&cand.id)
                    .expect("prepared request has a slot");
                match prepared {
                    Ok((task, blocks)) => {
                        slot.stats.context_tokens = task.context_tokens;
                        slot.stats.query_tokens = task.query_tokens;
                        slot.stats.cache_bytes = task.cache_bytes;
                        slot.stats.fp16_cache_bytes = task.fp16_cache_bytes;
                        slot.stats.prefix_reused_tokens = reused;
                        slot.stats.timings = task.timings;
                        slot.phase = Phase::Prepared(Box::new(task));
                        if let Some(blocks) = blocks {
                            publish = Some((cand.encoded.context_tokens, blocks));
                        }
                    }
                    Err(err) => failure = Some(err.to_string()),
                }
            }
            if let Some(message) = failure {
                self.fail_request(cand.id, now, message);
            }
            if let Some((tokens, blocks)) = publish {
                self.insert_prefix_entry(tokens, blocks);
            }
        }
        Ok(())
    }

    /// Charges one context's blocks against the budget and inserts them
    /// into the prefix cache, evicting LRU unpinned trie leaves while the
    /// budget is tight. The trie stores only the *uncovered suffix* of the
    /// context (covered runs are already resident and already charged), so
    /// the budget pre-check charges that delta, not the full context —
    /// under pressure a branch whose preamble is cached needs room for its
    /// tail only. Eviction can shrink the covered part, so the delta is
    /// recomputed after every eviction. If even a fully drained cache
    /// cannot make room the blocks are simply not cached — correctness
    /// never depends on them.
    fn insert_prefix_entry(&mut self, tokens: Vec<u32>, blocks: SharedPrefixKv) {
        if self.prefix_cache.is_none() || tokens.is_empty() {
            return;
        }
        let bytes_per_token = blocks.storage_bytes() / tokens.len();
        loop {
            let covered = self
                .prefix_cache
                .as_ref()
                .map_or(0, |cache| cache.peek_prefix_len(&tokens));
            let delta = (tokens.len() - covered.min(tokens.len())) * bytes_per_token;
            if self.scheduler.would_fit_shared(delta) {
                break;
            }
            if !self.evict_shared_for_budget() {
                return;
            }
        }
        if let Some(cache) = self.prefix_cache.as_mut() {
            cache.insert(tokens, blocks);
        }
        self.sync_shared_bytes();
    }

    /// Evicts one LRU unpinned prefix entry and re-syncs the budget charge;
    /// `false` when nothing evictable remains.
    ///
    /// In-flight tasks pin the entries they resumed from, which steers LRU
    /// eviction away from hot prefixes — but those pins are advisory
    /// (prefix rows are *copied* into each request's cache, so eviction
    /// never breaks a request). When every resident entry is pinned and
    /// the budget still needs room, the engine therefore releases the task
    /// pins and retries rather than stalling admission: running requests
    /// take precedence over cached prefixes, always.
    fn evict_shared_for_budget(&mut self) -> bool {
        let evict = |cache: &mut Option<PrefixCache>| {
            cache
                .as_mut()
                .is_some_and(|cache| cache.evict_lru_unpinned().is_some())
        };
        let mut evicted = evict(&mut self.prefix_cache);
        if !evicted {
            let mut released = false;
            for slot in self.slots.values_mut() {
                if let Phase::Prepared(task) | Phase::Running(task) = &mut slot.phase {
                    released |= task.release_prefix();
                }
            }
            if released {
                evicted = evict(&mut self.prefix_cache);
            }
        }
        if evicted {
            self.sync_shared_bytes();
        }
        evicted
    }

    /// Reports the prefix cache's resident footprint to the scheduler.
    fn sync_shared_bytes(&mut self) {
        let bytes = self
            .prefix_cache
            .as_ref()
            .map_or(0, PrefixCache::total_bytes);
        self.scheduler.set_shared_bytes(bytes);
    }

    /// Repromotes a cold-tier branch covering `tokens` back into RAM when
    /// it would extend the resident match, evicting colder leaves first if
    /// the KV budget demands it. Silent when the cold tier is disabled,
    /// misses, or loses the budget fight — the request then prefills the
    /// uncovered tail like any other partial hit.
    fn try_repromote(&mut self, tokens: &[u32]) {
        let Some(cache) = self.prefix_cache.as_ref() else {
            return;
        };
        let resident = cache.peek_prefix_len(tokens);
        let Some((cold_len, est_bytes)) = cache.cold_match(tokens) else {
            return;
        };
        if cold_len <= resident {
            return;
        }
        while !self.scheduler.would_fit_shared(est_bytes) {
            if !self.evict_shared_for_budget() {
                return;
            }
        }
        if let Some(cache) = self.prefix_cache.as_mut() {
            cache.repromote(tokens);
        }
        self.sync_shared_bytes();
    }

    /// One FIFO sweep over the queue head: admit prepared requests until
    /// the queue drains, a request defers, or an unprepared head asks for
    /// another batched prefill pass. When the budget defers the head,
    /// unpinned prefix-cache entries are evicted LRU and admission is
    /// retried — running requests take precedence over cached prefixes.
    fn admit_prepared(&mut self, now: usize) -> AdmitSweep {
        enum HeadKind {
            Queued,
            Failed,
            Prepared { cost: usize, reserved: usize },
        }
        while let Some(head) = self.scheduler.head() {
            let kind = {
                let slot = self.slots.get(&head).expect("queued request has a slot");
                match &slot.phase {
                    Phase::Queued(_) => HeadKind::Queued,
                    Phase::Failed(_) => HeadKind::Failed,
                    Phase::Prepared(task) => {
                        let tail_tokens = task.max_new_tokens.saturating_sub(1);
                        let reserved = tail_tokens * self.engine.config().kv_bytes_per_token_fp16();
                        HeadKind::Prepared {
                            cost: task.cache_bytes() + reserved,
                            reserved,
                        }
                    }
                    Phase::Running(_) | Phase::Completed(_) | Phase::Cancelled => {
                        unreachable!("queued requests are not running, completed or cancelled")
                    }
                }
            };
            match kind {
                HeadKind::Queued => return AdmitSweep::NeedsPrepare,
                HeadKind::Failed => self.scheduler.drop_head(head),
                HeadKind::Prepared { cost, reserved } => {
                    match self.scheduler.try_admit(head, cost) {
                        AdmitDecision::Admitted => {
                            let slot = self.slots.get_mut(&head).expect("slot still present");
                            slot.stats.reserved_tail_bytes = reserved;
                            slot.stats.admitted_step = Some(now);
                            let phase =
                                std::mem::replace(&mut slot.phase, Phase::Failed(String::new()));
                            let Phase::Prepared(task) = phase else {
                                unreachable!("phase checked above");
                            };
                            slot.phase = Phase::Running(task);
                        }
                        AdmitDecision::Rejected => {
                            let budget = self
                                .scheduler
                                .config()
                                .kv_budget_bytes
                                .expect("rejection implies a finite budget");
                            self.fail_request(
                                head,
                                now,
                                format!("request needs {cost} KV bytes but the budget is {budget}"),
                            );
                        }
                        AdmitDecision::DeferredBudget => {
                            if !self.evict_shared_for_budget() {
                                return AdmitSweep::Deferred;
                            }
                        }
                        AdmitDecision::DeferredBatch => return AdmitSweep::Deferred,
                    }
                }
            }
        }
        AdmitSweep::Drained
    }

    /// One decode round: every running request commits its pending token
    /// (streaming it as a [`TokenEvent`]) and, unless finished — budget
    /// exhausted or a stop sequence hit — takes one batched decode step.
    fn decode_round(&mut self, now: usize) -> Result<Vec<TokenEvent>, CocktailError> {
        let running = self.scheduler.running();
        let mut events = Vec::new();
        let mut finished = Vec::new();
        let mut decoding = Vec::new();
        for id in running {
            let slot = self.slots.get_mut(&id).expect("running request has a slot");
            let Phase::Running(task) = &mut slot.phase else {
                unreachable!("scheduler and slots agree on running requests");
            };
            let round = task.begin_round(&self.engine);
            let finish = match round.action {
                RoundAction::Finished(reason) => Some(reason),
                RoundAction::Decode { .. } => None,
            };
            match round.committed {
                Some((token, piece)) => {
                    if slot.stats.first_token_step.is_none() {
                        slot.stats.first_token_step = Some(now);
                    }
                    slot.stats.generated_tokens = task.generated.len();
                    events.push(TokenEvent {
                        id,
                        step: now,
                        index: task.generated.len() - 1,
                        token: Some(token),
                        piece,
                        finish,
                    });
                }
                // A finish with no token this round (zero-budget request):
                // emit a token-less terminal event so streams still close.
                None => events.push(TokenEvent {
                    id,
                    step: now,
                    index: task.generated.len(),
                    token: None,
                    piece: String::new(),
                    finish,
                }),
            }
            match round.action {
                RoundAction::Finished(_) => finished.push(id),
                RoundAction::Decode { token, pos } => decoding.push((id, token, pos)),
            }
        }

        if !decoding.is_empty() {
            let decode_start = Instant::now();
            // Admission is FIFO over monotonically increasing ids, so the
            // scheduler's round-robin order equals id order; pair the
            // decoding list with one BTreeMap pass to get one mutable slot
            // borrow per decoding request.
            decoding.sort_unstable_by_key(|(id, _, _)| *id);
            let first = decoding.first().map(|(id, _, _)| *id).expect("non-empty");
            let last = decoding.last().map(|(id, _, _)| *id).expect("non-empty");
            let mut decode_iter = decoding.iter().peekable();
            let mut batch_slots: Vec<(&mut Slot, u32, usize)> = Vec::new();
            // Restrict the pairing scan to the decoding id span so the
            // per-round cost tracks the running batch, not every
            // completed/failed slot still awaiting collection.
            for (id, slot) in self.slots.range_mut(first..=last) {
                match decode_iter.peek() {
                    Some(&&(did, token, pos)) if did == *id => {
                        decode_iter.next();
                        batch_slots.push((slot, token, pos));
                    }
                    Some(_) => {}
                    None => break,
                }
            }
            let steps = {
                let mut batch: Vec<DecodeSlot<'_>> = batch_slots
                    .iter_mut()
                    .map(|(slot, token, pos)| {
                        let Phase::Running(task) = &mut slot.phase else {
                            unreachable!("decoding request is running");
                        };
                        DecodeSlot {
                            token: *token,
                            pos: *pos,
                            cache: &mut task.cache,
                        }
                    })
                    .collect();
                self.engine.decode_step_batch(&mut batch)?
            };
            let share_us = (decode_start.elapsed().as_micros() / decoding.len() as u128) as u64;
            for ((slot, _, _), step) in batch_slots.iter_mut().zip(steps) {
                let Phase::Running(task) = &mut slot.phase else {
                    unreachable!("decoding request is running");
                };
                task.finish_round(step);
                task.add_decode_us(share_us);
                slot.stats.generated_tokens = task.generated.len();
            }
        }

        for id in &finished {
            self.scheduler.complete(*id);
            let slot = self.slots.get_mut(id).expect("finished request has a slot");
            let phase = std::mem::replace(&mut slot.phase, Phase::Failed(String::new()));
            let Phase::Running(task) = phase else {
                unreachable!("finished request was running");
            };
            slot.stats.generated_tokens = task.generated.len();
            slot.stats.finished_step = Some(now);
            slot.stats.timings = task.timings;
            slot.phase = Phase::Completed(Box::new(task.into_outcome(&self.engine)));
        }
        Ok(events)
    }

    /// Steps the engine until every submitted request has completed or
    /// failed, then returns the completed outcomes in submission order.
    ///
    /// # Errors
    ///
    /// Returns [`CocktailError`] if a decode step fails at the engine
    /// level.
    pub fn run_until_idle(&mut self) -> Result<Vec<RequestOutcome>, CocktailError> {
        while !self.is_idle() {
            self.step()?;
        }
        let completed: Vec<RequestId> = self
            .slots
            .iter()
            .filter(|(_, slot)| matches!(slot.phase, Phase::Completed(_)))
            .map(|(id, _)| *id)
            .collect();
        Ok(completed
            .into_iter()
            .filter_map(|id| self.take_outcome(id))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CocktailPipeline;
    use cocktail_baselines::Fp16Policy;
    use proptest::prelude::*;
    use std::collections::BTreeMap as Map;

    fn config() -> CocktailConfig {
        CocktailConfig::default().with_chunk_size(8).unwrap()
    }

    fn contexts() -> Vec<(String, String)> {
        (0..4)
            .map(|i| {
                let mut lines: Vec<String> = (0..6)
                    .map(|j| format!("entry {j} of journal {i} reports calm seas and steady winds"))
                    .collect();
                lines[2] = format!("important notice the docking code for bay {i} is lantern{i}");
                (
                    lines.join(" . "),
                    format!("what is the docking code for bay {i}?"),
                )
            })
            .collect()
    }

    #[test]
    fn batched_serving_matches_sequential_pipeline_byte_for_byte() {
        let pipeline = CocktailPipeline::new(ModelProfile::tiny(), config()).unwrap();
        let sequential: Vec<CocktailOutcome> = contexts()
            .iter()
            .map(|(ctx, q)| pipeline.run(ctx, q, 6).unwrap())
            .collect();

        let mut serving = ServingEngine::new(ModelProfile::tiny(), config()).unwrap();
        let ids: Vec<RequestId> = contexts()
            .iter()
            .map(|(ctx, q)| serving.submit(ServeRequest::new(ctx.clone(), q.clone(), 6)))
            .collect();
        let outcomes = serving.run_until_idle().unwrap();

        assert_eq!(outcomes.len(), sequential.len());
        for ((outcome, id), seq) in outcomes.iter().zip(&ids).zip(&sequential) {
            assert_eq!(outcome.id, *id);
            assert_eq!(outcome.outcome.answer, seq.answer);
            assert_eq!(outcome.outcome.generated_tokens, seq.generated_tokens);
            assert_eq!(outcome.outcome.cache_bytes, seq.cache_bytes);
            assert_eq!(outcome.outcome.report, seq.report);
        }
    }

    #[test]
    fn memory_budget_serializes_admissions() {
        // Budget for roughly one request at a time: requests must take
        // turns, and the budget must never be exceeded.
        let (ctx, q) = &contexts()[0];
        let mut sizing = ServingEngine::new(ModelProfile::tiny(), config()).unwrap();
        sizing.submit(ServeRequest::new(ctx.clone(), q.clone(), 4));
        sizing.step().unwrap();
        let one_request = sizing.kv_bytes_in_use();
        assert!(one_request > 0);

        let budget = one_request + one_request / 2; // fits 1, not 2
        let mut engine = ServingEngine::new(ModelProfile::tiny(), config())
            .unwrap()
            .with_scheduler_config(SchedulerConfig::default().with_budget(budget));
        let ids: Vec<RequestId> = contexts()
            .iter()
            .take(3)
            .map(|(c, q)| engine.submit(ServeRequest::new(c.clone(), q.clone(), 4)))
            .collect();
        let mut max_concurrent = 0;
        while !engine.is_idle() {
            engine.step().unwrap();
            assert!(
                engine.kv_bytes_in_use() <= budget,
                "budget exceeded: {} > {budget}",
                engine.kv_bytes_in_use()
            );
            max_concurrent = max_concurrent.max(engine.scheduler().running_len());
        }
        assert_eq!(max_concurrent, 1, "budget should force serial admission");
        for id in ids {
            assert_eq!(engine.state(id), Some(RequestState::Completed));
            let stats = engine.stats(id).unwrap();
            assert_eq!(stats.generated_tokens, 4);
            assert!(stats.admitted_step.is_some());
            assert!(stats.finished_step.is_some());
        }
    }

    #[test]
    fn oversized_request_fails_and_queue_drains_past_it() {
        let mut engine = ServingEngine::new(ModelProfile::tiny(), config())
            .unwrap()
            .with_scheduler_config(SchedulerConfig::default().with_budget(16));
        let (ctx, q) = &contexts()[0];
        let big = engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 4));
        let outcomes = engine.run_until_idle().unwrap();
        assert!(outcomes.is_empty());
        assert_eq!(engine.state(big), Some(RequestState::Failed));
        assert!(engine.failure(big).unwrap().contains("budget"));
    }

    #[test]
    fn failed_requests_emit_a_terminal_event() {
        let mut engine = ServingEngine::new(ModelProfile::tiny(), config())
            .unwrap()
            .with_scheduler_config(SchedulerConfig::default().with_budget(16));
        let (ctx, q) = &contexts()[0];
        let big = engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 4));
        let bad = engine.submit(ServeRequest::new("", "question", 4));
        let mut terminals = Vec::new();
        while !engine.is_idle() {
            for event in engine.step_events().unwrap() {
                assert_eq!(event.finish, Some(FinishReason::Failed));
                assert!(event.token.is_none());
                assert!(event.piece.is_empty());
                terminals.push(event.id);
            }
        }
        // Every failed request closes its stream with exactly one token-less
        // Failed event, so a gateway multiplexing step_events never dangles.
        terminals.sort();
        let mut expected = vec![big, bad];
        expected.sort();
        assert_eq!(terminals, expected);
        assert!(engine.failure(big).unwrap().contains("budget"));
        assert!(engine.failure(bad).unwrap().contains("non-empty"));
    }

    #[test]
    fn invalid_request_fails_without_poisoning_the_engine() {
        let mut engine = ServingEngine::new(ModelProfile::tiny(), config()).unwrap();
        let bad = engine.submit(ServeRequest::new("", "question", 4));
        let (ctx, q) = &contexts()[1];
        let good = engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 3));
        let outcomes = engine.run_until_idle().unwrap();
        assert_eq!(engine.state(bad), Some(RequestState::Failed));
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].id, good);
        assert_eq!(outcomes[0].outcome.generated_tokens.len(), 3);
        // Failures are evictable so the slot table cannot grow forever.
        assert!(engine.take_failure(good).is_none());
        let (message, stats) = engine.take_failure(bad).unwrap();
        assert!(message.contains("non-empty"));
        assert_eq!(stats.generated_tokens, 0);
        assert_eq!(engine.state(bad), None);
    }

    #[test]
    fn explicit_policy_is_honoured_per_request() {
        let mut engine = ServingEngine::new(ModelProfile::tiny(), config()).unwrap();
        let (ctx, q) = &contexts()[2];
        let fp16 = engine.submit(
            ServeRequest::builder()
                .context(ctx.clone())
                .query(q.clone())
                .max_new_tokens(3)
                .policy(Box::new(Fp16Policy::new()))
                .build(),
        );
        let cocktail = engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 3));
        let outcomes = engine.run_until_idle().unwrap();
        let by_id = |id: RequestId| outcomes.iter().find(|o| o.id == id).unwrap();
        assert_eq!(by_id(fp16).outcome.report.policy, "FP16");
        assert_eq!(by_id(cocktail).outcome.report.policy, "Cocktail");
        assert!(by_id(cocktail).outcome.cache_bytes < by_id(fp16).outcome.cache_bytes);
    }

    #[test]
    fn batch_cap_limits_concurrency() {
        let mut engine = ServingEngine::new(ModelProfile::tiny(), config())
            .unwrap()
            .with_scheduler_config(SchedulerConfig::default().with_max_batch(2));
        for (ctx, q) in contexts().iter().take(4) {
            engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 5));
        }
        let mut max_concurrent = 0;
        while !engine.is_idle() {
            engine.step().unwrap();
            max_concurrent = max_concurrent.max(engine.scheduler().running_len());
        }
        assert_eq!(max_concurrent, 2);
    }

    #[test]
    fn zero_token_request_completes_immediately() {
        let mut engine = ServingEngine::new(ModelProfile::tiny(), config()).unwrap();
        let (ctx, q) = &contexts()[3];
        let id = engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 0));
        let outcomes = engine.run_until_idle().unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].id, id);
        assert!(outcomes[0].outcome.generated_tokens.is_empty());
    }

    /// Requests sharing one long preamble, each with its own tail and
    /// query.
    fn shared_prefix_contexts(n: usize) -> Vec<(String, String)> {
        let preamble: Vec<String> = (0..8)
            .map(|i| format!("standing order {i} requires every vessel to log position daily"))
            .collect();
        let preamble = preamble.join(" . ");
        (0..n)
            .map(|i| {
                (
                    format!(
                        "{preamble} . special bulletin the berth assignment for convoy {i} is \
                         pier{i}"
                    ),
                    format!("what is the berth assignment for convoy {i}?"),
                )
            })
            .collect()
    }

    #[test]
    fn prefix_cache_is_byte_identical_to_disabled_serving() {
        let requests = shared_prefix_contexts(4);
        let submit_all = |engine: &mut ServingEngine| -> Vec<RequestId> {
            requests
                .iter()
                .map(|(ctx, q)| engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 6)))
                .collect()
        };

        let mut plain = ServingEngine::new(ModelProfile::tiny(), config()).unwrap();
        submit_all(&mut plain);
        let baseline = plain.run_until_idle().unwrap();

        let mut cached = ServingEngine::new(ModelProfile::tiny(), config())
            .unwrap()
            .with_prefix_cache(PrefixCacheConfig::default());
        let ids = submit_all(&mut cached);
        let outcomes = cached.run_until_idle().unwrap();

        assert_eq!(outcomes.len(), baseline.len());
        for (warm, cold) in outcomes.iter().zip(&baseline) {
            assert_eq!(
                warm.outcome.answer, cold.outcome.answer,
                "prefix reuse changed an answer"
            );
            assert_eq!(warm.outcome.generated_tokens, cold.outcome.generated_tokens);
            assert_eq!(warm.outcome.cache_bytes, cold.outcome.cache_bytes);
            assert_eq!(warm.outcome.report, cold.outcome.report);
        }
        // The first request is cold; every later one reuses the preamble.
        assert_eq!(outcomes[0].stats.prefix_reused_tokens, 0);
        for outcome in &outcomes[1..] {
            assert!(
                outcome.stats.prefix_reused_tokens > 0,
                "{} did not reuse the shared preamble",
                outcome.id
            );
        }
        let stats = cached.prefix_cache_stats().unwrap();
        assert!(stats.hits >= (ids.len() - 1) as u64);
        assert!(stats.reused_tokens > 0);
        assert!(stats.entries >= 1);
    }

    #[test]
    fn intra_batch_shared_prefix_is_reused_within_one_step() {
        // Two identical contexts submitted before the first step: the
        // two-pass admission must prefill the first cold and resume the
        // second from the freshly published blocks, inside a single step.
        let (ctx, q) = &shared_prefix_contexts(1)[0];
        let mut engine = ServingEngine::new(ModelProfile::tiny(), config())
            .unwrap()
            .with_prefix_cache(PrefixCacheConfig::default());
        let a = engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 3));
        let b = engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 3));
        engine.step().unwrap();
        let stats_a = engine.stats(a).unwrap();
        let stats_b = engine.stats(b).unwrap();
        assert_eq!(stats_a.prefix_reused_tokens, 0);
        assert_eq!(
            stats_b.prefix_reused_tokens, stats_b.context_tokens,
            "an identical context must reuse the whole context prefix"
        );
        let outcomes = engine.run_until_idle().unwrap();
        assert_eq!(outcomes[0].outcome.answer, outcomes[1].outcome.answer);
    }

    #[test]
    fn prefix_cache_respects_budget_and_evicts_under_pressure() {
        // Budget sized for roughly one admitted request: resident shared
        // blocks must never push usage past the budget, and admission must
        // evict cached prefixes rather than stall.
        let requests = shared_prefix_contexts(3);
        let mut sizing = ServingEngine::new(ModelProfile::tiny(), config()).unwrap();
        sizing.submit(ServeRequest::new(
            requests[0].0.clone(),
            requests[0].1.clone(),
            4,
        ));
        sizing.step().unwrap();
        let one_request = sizing.kv_bytes_in_use();
        let budget = one_request + one_request / 2;

        let mut engine = ServingEngine::new(ModelProfile::tiny(), config())
            .unwrap()
            .with_scheduler_config(SchedulerConfig::default().with_budget(budget))
            .with_prefix_cache(PrefixCacheConfig::default());
        let ids: Vec<RequestId> = requests
            .iter()
            .map(|(ctx, q)| engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 4)))
            .collect();
        while !engine.is_idle() {
            engine.step().unwrap();
            assert!(
                engine.kv_bytes_in_use() <= budget,
                "budget exceeded with shared blocks: {} > {budget}",
                engine.kv_bytes_in_use()
            );
        }
        for id in ids {
            assert_eq!(engine.state(id), Some(RequestState::Completed));
        }
        let stats = engine.prefix_cache_stats().unwrap();
        assert!(
            stats.resident_bytes + engine.kv_bytes_in_use() <= budget,
            "resident shared blocks exceed the budget"
        );
    }

    #[test]
    #[should_panic(expected = "before submitting")]
    fn prefix_cache_must_be_configured_before_traffic() {
        let mut engine = ServingEngine::new(ModelProfile::tiny(), config()).unwrap();
        let (ctx, q) = &contexts()[0];
        engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 2));
        let _ = engine.with_prefix_cache(PrefixCacheConfig::default());
    }

    #[test]
    fn prefill_window_one_reproduces_sequential_admission() {
        let requests = shared_prefix_contexts(3);
        let run = |window: usize| -> Vec<RequestOutcome> {
            let mut engine = ServingEngine::new(ModelProfile::tiny(), config())
                .unwrap()
                .with_scheduler_config(SchedulerConfig::default().with_prefill_window(window));
            for (ctx, q) in &requests {
                engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 5));
            }
            engine.run_until_idle().unwrap()
        };
        let windowed = run(4);
        let sequential = run(1);
        for (a, b) in windowed.iter().zip(&sequential) {
            assert_eq!(a.outcome.answer, b.outcome.answer);
            assert_eq!(a.outcome.generated_tokens, b.outcome.generated_tokens);
        }
    }

    #[test]
    fn continuous_batching_admits_mid_decode() {
        // Submit one request, start decoding, then submit another: the
        // second must join while the first is mid-flight, and both must
        // still match their sequential outcomes.
        let pipeline = CocktailPipeline::new(ModelProfile::tiny(), config()).unwrap();
        let ctxs = contexts();
        let seq_a = pipeline.run(&ctxs[0].0, &ctxs[0].1, 8).unwrap();
        let seq_b = pipeline.run(&ctxs[1].0, &ctxs[1].1, 8).unwrap();

        let mut engine = ServingEngine::new(ModelProfile::tiny(), config()).unwrap();
        let a = engine.submit(ServeRequest::new(ctxs[0].0.clone(), ctxs[0].1.clone(), 8));
        engine.step().unwrap();
        engine.step().unwrap();
        assert_eq!(engine.state(a), Some(RequestState::Running));
        let b = engine.submit(ServeRequest::new(ctxs[1].0.clone(), ctxs[1].1.clone(), 8));
        let outcomes = engine.run_until_idle().unwrap();
        let by_id = |id: RequestId| outcomes.iter().find(|o| o.id == id).unwrap();
        assert_eq!(by_id(a).outcome.generated_tokens, seq_a.generated_tokens);
        assert_eq!(by_id(b).outcome.generated_tokens, seq_b.generated_tokens);
        // b was admitted after a (continuous batching, not a fixed batch).
        assert!(by_id(b).stats.admitted_step > by_id(a).stats.admitted_step);
    }

    /// Drives the engine with `step_events`, returning the concatenated
    /// streamed pieces, event counts and finish reasons per request.
    fn stream_until_idle(
        engine: &mut ServingEngine,
    ) -> (Map<RequestId, String>, Map<RequestId, FinishReason>) {
        let mut pieces: Map<RequestId, String> = Map::new();
        let mut finishes: Map<RequestId, FinishReason> = Map::new();
        while !engine.is_idle() {
            for event in engine.step_events().unwrap() {
                pieces.entry(event.id).or_default().push_str(&event.piece);
                if let Some(reason) = event.finish {
                    assert!(
                        finishes.insert(event.id, reason).is_none(),
                        "{} finished twice",
                        event.id
                    );
                }
            }
        }
        (pieces, finishes)
    }

    #[test]
    fn streamed_pieces_concatenate_to_the_collected_answer_and_sequential_output() {
        let pipeline = CocktailPipeline::new(ModelProfile::tiny(), config()).unwrap();
        let sequential: Vec<CocktailOutcome> = contexts()
            .iter()
            .map(|(ctx, q)| pipeline.run(ctx, q, 6).unwrap())
            .collect();

        let mut engine = ServingEngine::new(ModelProfile::tiny(), config()).unwrap();
        let ids: Vec<RequestId> = contexts()
            .iter()
            .map(|(ctx, q)| engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 6)))
            .collect();
        let (pieces, finishes) = stream_until_idle(&mut engine);

        for (id, seq) in ids.iter().zip(&sequential) {
            let outcome = engine.take_outcome(*id).expect("request completed");
            // Streamed pieces == collected outcome == sequential pipeline.
            assert_eq!(pieces[id], outcome.outcome.answer, "{id} pieces diverged");
            assert_eq!(outcome.outcome.answer, seq.answer);
            assert_eq!(finishes[id], FinishReason::Length);
            assert!(outcome.stats.first_token_step.is_some());
            assert!(outcome.stats.first_token_step <= outcome.stats.finished_step);
            assert!(!outcome.stats.cancelled);
        }
    }

    #[test]
    fn streamed_events_carry_monotone_indices_and_steps() {
        let mut engine = ServingEngine::new(ModelProfile::tiny(), config()).unwrap();
        let (ctx, q) = &contexts()[0];
        let id = engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 5));
        let mut events = Vec::new();
        while !engine.is_idle() {
            events.extend(engine.step_events().unwrap());
        }
        assert_eq!(events.len(), 5, "one event per token");
        for (i, event) in events.iter().enumerate() {
            assert_eq!(event.id, id);
            assert_eq!(event.index, i);
            assert!(event.token.is_some());
            if i > 0 {
                assert!(event.step > events[i - 1].step, "steps must advance");
                assert!(event.piece.starts_with(' '), "separator-prefixed piece");
            }
        }
        assert_eq!(events.last().unwrap().finish, Some(FinishReason::Length));
    }

    #[test]
    fn zero_token_request_emits_one_tokenless_terminal_event() {
        let mut engine = ServingEngine::new(ModelProfile::tiny(), config()).unwrap();
        let (ctx, q) = &contexts()[1];
        let id = engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 0));
        let mut events = Vec::new();
        while !engine.is_idle() {
            events.extend(engine.step_events().unwrap());
        }
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].id, id);
        assert_eq!(events[0].token, None);
        assert_eq!(events[0].piece, "");
        assert_eq!(events[0].finish, Some(FinishReason::Length));
        assert!(engine.take_outcome(id).is_some());
    }

    #[test]
    fn stop_sequence_ends_generation_early_and_byte_identically() {
        let (ctx, q) = &contexts()[2];

        // Reference: the full unstopped answer.
        let mut full_engine = ServingEngine::new(ModelProfile::tiny(), config()).unwrap();
        full_engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 8));
        let full = full_engine
            .run_until_idle()
            .unwrap()
            .pop()
            .expect("one completed request");
        let words: Vec<&str> = full.outcome.answer.split(' ').collect();
        assert!(words.len() >= 3, "need a mid-answer word to stop on");
        // Stop on the third word: greedy decoding reproduces the same
        // prefix, so the stop must trigger at exactly that token.
        let stop = words[2].to_string();

        let mut engine = ServingEngine::new(ModelProfile::tiny(), config()).unwrap();
        let id = engine.submit(
            ServeRequest::builder()
                .context(ctx.clone())
                .query(q.clone())
                .max_new_tokens(8)
                .stop_sequence(stop.clone())
                .build(),
        );
        let (pieces, finishes) = stream_until_idle(&mut engine);
        let outcome = engine.take_outcome(id).expect("stopped request completes");

        assert_eq!(finishes[&id], FinishReason::Stop);
        assert_eq!(pieces[&id], outcome.outcome.answer);
        assert!(
            outcome.outcome.generated_tokens.len() < full.outcome.generated_tokens.len(),
            "stopping early must decode fewer tokens"
        );
        // The stopped answer is a byte prefix of the full answer, ending
        // with the stop sequence.
        assert!(full.outcome.answer.starts_with(&outcome.outcome.answer));
        assert!(outcome.outcome.answer.ends_with(&stop));
        assert_eq!(
            outcome.outcome.generated_tokens,
            full.outcome.generated_tokens[..outcome.outcome.generated_tokens.len()].to_vec()
        );
    }

    #[test]
    fn cancelling_a_running_request_frees_its_budget_and_leaves_others_intact() {
        let requests = contexts();
        let mut reference = ServingEngine::new(ModelProfile::tiny(), config()).unwrap();
        for (ctx, q) in &requests {
            reference.submit(ServeRequest::new(ctx.clone(), q.clone(), 8));
        }
        let expected = reference.run_until_idle().unwrap();

        let mut engine = ServingEngine::new(ModelProfile::tiny(), config()).unwrap();
        let ids: Vec<RequestId> = requests
            .iter()
            .map(|(ctx, q)| engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 8)))
            .collect();
        // Let everyone start decoding, then cancel request 1 mid-flight.
        engine.step().unwrap();
        engine.step().unwrap();
        let before = engine.kv_bytes_in_use();
        assert_eq!(engine.state(ids[1]), Some(RequestState::Running));
        assert!(engine.cancel(ids[1]));
        assert!(
            engine.kv_bytes_in_use() < before,
            "cancellation must release the request's KV charge"
        );
        assert_eq!(engine.state(ids[1]), Some(RequestState::Cancelled));
        assert!(!engine.cancel(ids[1]), "double cancel is a no-op");

        let outcomes = engine.run_until_idle().unwrap();
        assert_eq!(outcomes.len(), requests.len() - 1);
        for outcome in &outcomes {
            let seq = expected.iter().find(|o| o.id == outcome.id).unwrap();
            assert_eq!(
                outcome.outcome.answer, seq.outcome.answer,
                "cancellation perturbed a surviving request"
            );
        }
        let stats = engine.take_cancelled(ids[1]).expect("cancelled stats");
        assert!(stats.cancelled);
        assert!(stats.generated_tokens < 8);
        assert!(stats.finished_step.is_some());
        assert_eq!(engine.state(ids[1]), None);
        // Cancelling a completed request is refused.
        assert!(!engine.cancel(ids[0]));
    }

    #[test]
    fn cancellation_emits_a_terminal_event_on_the_next_step() {
        let requests = contexts();
        let mut engine = ServingEngine::new(ModelProfile::tiny(), config()).unwrap();
        let ids: Vec<RequestId> = requests
            .iter()
            .take(2)
            .map(|(ctx, q)| engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 8)))
            .collect();
        engine.step_events().unwrap();
        assert!(engine.cancel(ids[0]));
        let events = engine.step_events().unwrap();
        let terminal = events
            .iter()
            .find(|e| e.id == ids[0])
            .expect("cancelled request closes its stream");
        assert_eq!(terminal.finish, Some(FinishReason::Cancelled));
        assert_eq!(terminal.token, None);
        assert_eq!(terminal.piece, "");
        assert_eq!(terminal.index, 1, "one token was streamed before cancel");
        // The terminal event is delivered exactly once.
        assert!(!engine.step_events().unwrap().iter().any(|e| e.id == ids[0]));
        // step() reports the cancellation as a finish too.
        let survivors = engine.run_until_idle().unwrap();
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].id, ids[1]);
    }

    #[test]
    fn cancelling_a_queued_request_removes_it_before_admission() {
        // Batch cap 1 keeps later requests queued while the first runs.
        let mut engine = ServingEngine::new(ModelProfile::tiny(), config())
            .unwrap()
            .with_scheduler_config(SchedulerConfig::default().with_max_batch(1));
        let requests = contexts();
        let ids: Vec<RequestId> = requests
            .iter()
            .take(3)
            .map(|(ctx, q)| engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 4)))
            .collect();
        engine.step().unwrap();
        assert_eq!(engine.state(ids[0]), Some(RequestState::Running));
        assert_eq!(engine.state(ids[1]), Some(RequestState::Queued));
        assert!(engine.cancel(ids[1]));
        let outcomes = engine.run_until_idle().unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(engine.state(ids[1]), Some(RequestState::Cancelled));
        let stats = engine.take_cancelled(ids[1]).unwrap();
        assert_eq!(stats.generated_tokens, 0);
        assert!(stats.cancelled);
    }

    #[test]
    fn cancellation_releases_shared_prefix_pins() {
        let requests = shared_prefix_contexts(3);
        let mut engine = ServingEngine::new(ModelProfile::tiny(), config())
            .unwrap()
            .with_prefix_cache(PrefixCacheConfig::default());
        let ids: Vec<RequestId> = requests
            .iter()
            .map(|(ctx, q)| engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 6)))
            .collect();
        engine.step().unwrap();
        // In-flight warm requests pin the preamble entry.
        let pinned = engine.prefix_cache_stats().unwrap().pinned_entries;
        assert!(pinned > 0, "running warm requests must pin their prefix");
        for id in &ids {
            engine.cancel(*id);
        }
        assert_eq!(
            engine.prefix_cache_stats().unwrap().pinned_entries,
            0,
            "cancellation must release every shared-prefix pin"
        );
        assert!(engine.is_idle());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Cancelling random requests at random steps never violates the
        /// KV-budget invariant, always releases shared-prefix pins, and
        /// leaves every surviving request byte-identical to its own solo
        /// sequential pipeline run (the full-isolation guarantee documented
        /// on [`ServingEngine::cancel`]).
        #[test]
        fn random_cancellations_preserve_budget_pins_and_survivors(
            per_group in 2usize..4,
            cancel_seed in 0u64..500,
            cancel_count in 1usize..3,
        ) {
            let requests = shared_prefix_contexts(per_group + 1);
            let max_new = 6usize;
            let pipeline = CocktailPipeline::new(ModelProfile::tiny(), config()).unwrap();
            let solo: Vec<CocktailOutcome> = requests
                .iter()
                .map(|(ctx, q)| pipeline.run(ctx, q, max_new).unwrap())
                .collect();

            // Budget sized for roughly two requests (compressed bytes +
            // reserved FP16 tail), so admission takes turns under cancels.
            let tail = (max_new - 1) * pipeline.engine().config().kv_bytes_per_token_fp16();
            let budget = solo
                .iter()
                .map(|o| o.cache_bytes + tail)
                .max()
                .expect("at least one request") * 2;

            let mut engine = ServingEngine::new(ModelProfile::tiny(), config())
                .unwrap()
                .with_scheduler_config(SchedulerConfig::default().with_budget(budget))
                .with_prefix_cache(PrefixCacheConfig::default().with_min_prefix_tokens(4));
            let ids: Vec<RequestId> = requests
                .iter()
                .map(|(ctx, q)| engine.submit(ServeRequest::new(ctx.clone(), q.clone(), max_new)))
                .collect();

            // A deterministic cancellation schedule drawn from the seed:
            // `cancel_count` distinct requests, each at its own step.
            let mut schedule: Vec<(usize, RequestId)> = (0..cancel_count)
                .map(|i| {
                    let mix = cancel_seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(i as u64);
                    let step = (mix % 7) as usize;
                    let victim = ids[(mix >> 8) as usize % ids.len()];
                    (step, victim)
                })
                .collect();
            schedule.sort_unstable();
            schedule.dedup_by_key(|(_, id)| *id);

            let mut cancelled: Vec<RequestId> = Vec::new();
            let mut guard = 0;
            while !engine.is_idle() {
                guard += 1;
                prop_assert!(guard < 10_000, "serving failed to quiesce");
                let step = engine.clock();
                for (at, id) in &schedule {
                    if *at <= step && !cancelled.contains(id) && engine.cancel(*id) {
                        cancelled.push(*id);
                    }
                }
                engine.step_events().unwrap();
                prop_assert!(
                    engine.kv_bytes_in_use() <= budget,
                    "budget invariant violated after cancellations: {} > {budget}",
                    engine.kv_bytes_in_use()
                );
            }

            let cache_stats = engine.prefix_cache_stats().expect("cache enabled");
            prop_assert_eq!(
                cache_stats.pinned_entries, 0,
                "idle engine must hold no shared-prefix pins"
            );

            for (i, id) in ids.iter().enumerate() {
                if cancelled.contains(id) {
                    let stats = engine.take_cancelled(*id).expect("cancelled stats");
                    prop_assert!(stats.cancelled);
                    prop_assert!(
                        stats.generated_tokens < max_new,
                        "a cancelled request must decode strictly fewer tokens than its budget"
                    );
                } else {
                    let outcome = engine.take_outcome(*id).expect("survivor completed");
                    prop_assert_eq!(
                        &outcome.outcome.answer, &solo[i].answer,
                        "survivor diverged from its solo sequential run"
                    );
                    prop_assert_eq!(&outcome.outcome.generated_tokens, &solo[i].generated_tokens);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Random mixes of sampled and greedy requests with random
        /// mid-flight cancellations: greedy requests stay byte-identical
        /// to their solo sequential pipeline runs, sampled requests
        /// replay identically given the same seed even though the
        /// cancellations give the two runs different batch compositions,
        /// and the KV budget holds every step.
        #[test]
        fn sampled_and_greedy_mixes_stay_deterministic_under_cancellation(
            sampled_mask in 1u32..15,
            base_seed in 0u64..500,
            cancel_seed in 0u64..500,
            cancel_count in 1usize..3,
        ) {
            let requests = shared_prefix_contexts(4);
            let max_new = 6usize;
            let build = |i: usize, (ctx, q): &(String, String)| {
                let mut builder = ServeRequest::builder()
                    .context(ctx.clone())
                    .query(q.clone())
                    .max_new_tokens(max_new);
                if sampled_mask & (1 << i) != 0 {
                    builder = builder.sampling(
                        SamplingParams::for_request(base_seed, i as u64)
                            .with_temperature(0.9)
                            .with_top_k(12),
                    );
                }
                builder.build()
            };

            // Solo greedy references, interned in submission order (the
            // batched engines below encode the same word sequence).
            let pipeline = CocktailPipeline::new(ModelProfile::tiny(), config()).unwrap();
            let solo: Vec<CocktailOutcome> = requests
                .iter()
                .map(|(ctx, q)| pipeline.run(ctx, q, max_new).unwrap())
                .collect();

            // A budget generous enough to admit everything in the first
            // step (so every prompt is encoded before any cancellation
            // fires), still asserted every step below.
            let tail = (max_new - 1) * pipeline.engine().config().kv_bytes_per_token_fp16();
            let budget: usize = solo.iter().map(|o| o.cache_bytes + tail).sum();

            let run = |with_cancels: bool| -> (Vec<RequestId>, Vec<RequestId>, ServingEngine) {
                let mut engine = ServingEngine::new(ModelProfile::tiny(), config())
                    .unwrap()
                    .with_scheduler_config(SchedulerConfig::default().with_budget(budget))
                    .with_prefix_cache(PrefixCacheConfig::default().with_min_prefix_tokens(4));
                let ids: Vec<RequestId> = requests
                    .iter()
                    .enumerate()
                    .map(|(i, r)| engine.submit(build(i, r)))
                    .collect();
                // Cancellations start at step 1, after the first admission
                // sweep has encoded every prompt.
                let schedule: Vec<(usize, RequestId)> = (0..cancel_count)
                    .map(|i| {
                        let mix = cancel_seed
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add(i as u64);
                        ((mix % 5) as usize + 1, ids[(mix >> 8) as usize % ids.len()])
                    })
                    .collect();
                let mut cancelled: Vec<RequestId> = Vec::new();
                let mut guard = 0;
                while !engine.is_idle() {
                    guard += 1;
                    assert!(guard < 10_000, "serving failed to quiesce");
                    let step = engine.clock();
                    if with_cancels {
                        for (at, id) in &schedule {
                            if *at <= step && !cancelled.contains(id) && engine.cancel(*id) {
                                cancelled.push(*id);
                            }
                        }
                    }
                    engine.step_events().unwrap();
                    assert!(
                        engine.kv_bytes_in_use() <= budget,
                        "budget invariant violated: {} > {budget}",
                        engine.kv_bytes_in_use()
                    );
                }
                (ids, cancelled, engine)
            };

            let (ids, cancelled, mut engine) = run(true);
            let (replay_ids, _, mut replay) = run(false);

            for (i, id) in ids.iter().enumerate() {
                if cancelled.contains(id) {
                    continue;
                }
                let outcome = engine.take_outcome(*id).expect("survivor completed");
                let rerun = replay
                    .take_outcome(replay_ids[i])
                    .expect("replay completed");
                if sampled_mask & (1 << i) != 0 {
                    // A sampled request replays bit-identically from its
                    // seed, no matter which batchmates got cancelled.
                    prop_assert_eq!(
                        &outcome.outcome.generated_tokens, &rerun.outcome.generated_tokens,
                        "sampled request drew different tokens on replay"
                    );
                    prop_assert_eq!(&outcome.outcome.answer, &rerun.outcome.answer);
                } else {
                    // A greedy request is byte-identical to its solo
                    // sequential pipeline run and to its replay.
                    prop_assert_eq!(
                        &outcome.outcome.answer, &solo[i].answer,
                        "greedy request diverged from its solo run"
                    );
                    prop_assert_eq!(&outcome.outcome.generated_tokens, &solo[i].generated_tokens);
                    prop_assert_eq!(&outcome.outcome.answer, &rerun.outcome.answer);
                }
            }
        }
    }

    /// A unique temp path per test invocation so parallel tests never share
    /// snapshot or spill files.
    fn temp_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("cocktail_serving_{}_{tag}_{n}", std::process::id()))
    }

    #[test]
    fn warm_restart_serves_byte_identical_answers_from_a_snapshot() {
        // Reference: a never-restarted engine serving the workload twice.
        let serve_all = |engine: &mut ServingEngine| -> Vec<String> {
            let reqs = contexts();
            for (ctx, q) in &reqs {
                engine.submit(ServeRequest::new(ctx.clone(), q.clone(), 6));
            }
            engine
                .run_until_idle()
                .unwrap()
                .into_iter()
                .map(|o| o.outcome.answer)
                .collect()
        };
        let mut reference = ServingEngine::new(ModelProfile::tiny(), config())
            .unwrap()
            .with_prefix_cache(PrefixCacheConfig::default());
        let first = serve_all(&mut reference);
        let second = serve_all(&mut reference);

        // "Restart": snapshot the warm engine, build a fresh one, restore.
        let snapshot = reference.snapshot_bytes();
        let mut restarted = ServingEngine::new(ModelProfile::tiny(), config())
            .unwrap()
            .with_prefix_cache(PrefixCacheConfig::default());
        let report = restarted.restore_from_bytes(&snapshot);
        assert!(report.restored, "restore failed: {:?}", report.reason);
        assert!(report.nodes > 0);
        assert!(report.resident_bytes > 0);

        // The restored engine serves the workload warm: every request
        // reuses cached prefix tokens and every answer is byte-identical
        // to the uninterrupted engine's.
        let stats_before = restarted.prefix_cache_stats().unwrap();
        let restored_answers = serve_all(&mut restarted);
        assert_eq!(restored_answers, second);
        assert_eq!(first, second, "prefix reuse must be bit-exact");
        let stats_after = restarted.prefix_cache_stats().unwrap();
        assert!(
            stats_after.hits > stats_before.hits,
            "a restored engine must serve its first requests from the cache"
        );
    }

    #[test]
    fn unusable_snapshots_degrade_to_a_clean_cold_start() {
        let mut warm = ServingEngine::new(ModelProfile::tiny(), config())
            .unwrap()
            .with_prefix_cache(PrefixCacheConfig::default());
        let (ctx, q) = &contexts()[0];
        warm.submit(ServeRequest::new(ctx.clone(), q.clone(), 6));
        warm.run_until_idle().unwrap();
        let snapshot = warm.snapshot_bytes();

        // Wrong configuration fingerprint (different chunk size).
        let other_config = CocktailConfig::default().with_chunk_size(16).unwrap();
        let mut other = ServingEngine::new(ModelProfile::tiny(), other_config)
            .unwrap()
            .with_prefix_cache(PrefixCacheConfig::default());
        let report = other.restore_from_bytes(&snapshot);
        assert!(!report.restored);
        assert!(report.reason.as_deref().unwrap().contains("fingerprint"));

        // Corruption and truncation: rejected, no panic, engine still cold.
        let mut fresh = ServingEngine::new(ModelProfile::tiny(), config())
            .unwrap()
            .with_prefix_cache(PrefixCacheConfig::default());
        let mut corrupt = snapshot.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        assert!(!fresh.restore_from_bytes(&corrupt).restored);
        assert!(!fresh.restore_from_bytes(&snapshot[..40]).restored);
        assert_eq!(fresh.prefix_cache_stats().unwrap().nodes, 0);

        // A degraded engine still serves, just cold.
        fresh.submit(ServeRequest::new(ctx.clone(), q.clone(), 6));
        let outcomes = fresh.run_until_idle().unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(!outcomes[0].outcome.answer.is_empty());
    }

    #[test]
    fn snapshot_to_and_restore_from_round_trip_on_disk() {
        let path = temp_path("roundtrip");
        let mut warm = ServingEngine::new(ModelProfile::tiny(), config())
            .unwrap()
            .with_prefix_cache(PrefixCacheConfig::default());
        let (ctx, q) = &contexts()[1];
        warm.submit(ServeRequest::new(ctx.clone(), q.clone(), 6));
        warm.run_until_idle().unwrap();

        let report = warm.snapshot_to(&path).unwrap();
        assert!(report.bytes > 0);
        assert!(report.nodes > 0);

        let mut restarted = ServingEngine::new(ModelProfile::tiny(), config()).unwrap();
        let restore = restarted.restore_from(&path);
        assert!(restore.restored, "restore failed: {:?}", restore.reason);
        assert_eq!(restore.nodes, report.nodes);

        // A missing file degrades instead of erroring.
        std::fs::remove_file(&path).unwrap();
        let missing = restarted.restore_from(&path);
        assert!(!missing.restored);
        assert!(missing.reason.as_deref().unwrap().contains("read snapshot"));
    }

    #[test]
    fn prefix_reuse_opt_out_forces_cold_prefill_without_publishing() {
        let (ctx, q) = &contexts()[2];
        let mut engine = ServingEngine::new(ModelProfile::tiny(), config())
            .unwrap()
            .with_prefix_cache(PrefixCacheConfig::default());

        let build = |reuse: bool| {
            ServeRequest::builder()
                .context(ctx.clone())
                .query(q.clone())
                .max_new_tokens(6)
                .prefix_reuse(reuse)
                .build()
        };

        // Opted-out requests neither publish to the cache ...
        engine.submit(build(false));
        let outcomes = engine.run_until_idle().unwrap();
        assert_eq!(engine.prefix_cache_stats().unwrap().nodes, 0);
        assert_eq!(outcomes[0].stats.prefix_reused_tokens, 0);

        // ... nor read from it, even once a reusing request has warmed it.
        engine.submit(build(true));
        let outcomes = engine.run_until_idle().unwrap();
        assert!(engine.prefix_cache_stats().unwrap().nodes > 0);
        assert_eq!(outcomes[0].stats.prefix_reused_tokens, 0);

        engine.submit(build(false));
        engine.submit(build(true));
        let outcomes = engine.run_until_idle().unwrap();
        assert_eq!(outcomes[0].stats.prefix_reused_tokens, 0);
        assert!(outcomes[1].stats.prefix_reused_tokens > 0);
        // Opting out never changes bytes, only where they come from.
        assert_eq!(outcomes[0].outcome.answer, outcomes[1].outcome.answer);
    }

    #[test]
    fn cold_tier_repromotes_evicted_prefixes_during_serving() {
        let path = temp_path("spill");
        // A two-node cap: room for the contexts' shared preamble plus one
        // branch tail, so caching a second context demotes the first
        // branch and repromoting it demotes the second in turn.
        let mut engine = ServingEngine::new(ModelProfile::tiny(), config())
            .unwrap()
            .with_prefix_cache(PrefixCacheConfig::default().with_max_entries(2))
            .with_cold_tier(&path)
            .unwrap();

        let reqs = contexts();
        let (ctx0, q0) = &reqs[0];
        let (ctx1, q1) = &reqs[1];

        engine.submit(ServeRequest::new(ctx0.clone(), q0.clone(), 6));
        engine.run_until_idle().unwrap();
        engine.submit(ServeRequest::new(ctx1.clone(), q1.clone(), 6));
        engine.run_until_idle().unwrap();
        let stats = engine.prefix_cache_stats().unwrap();
        assert!(
            stats.demotions > 0,
            "cap of 1 must demote the first context"
        );
        assert!(stats.cold_resident_bytes > 0);

        // Re-serving the demoted context repromotes it from disk: the
        // request reuses prefix tokens it could not have found in RAM.
        engine.submit(ServeRequest::new(ctx0.clone(), q0.clone(), 6));
        let outcomes = engine.run_until_idle().unwrap();
        let stats = engine.prefix_cache_stats().unwrap();
        assert!(stats.repromotions > 0, "cold hit must repromote");
        assert!(outcomes[0].stats.prefix_reused_tokens > 0);
        std::fs::remove_file(&path).ok();
    }
}
