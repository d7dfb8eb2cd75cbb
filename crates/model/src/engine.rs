//! The inference engine: prefill and decode phases over a chunked KV cache.

use crate::config::ModelConfig;
use crate::error::ModelError;
use crate::profile::ModelProfile;
use crate::tokenizer::Tokenizer;
use crate::weights::{LayerWeights, ModelWeights};
use cocktail_kvcache::{ChunkSegmentation, ChunkedKvCache, ChunkedLayerCache, SharedPrefixKv};
use cocktail_quant::parallel::{self as kernel_parallel, KernelPool};
use cocktail_tensor::ops::{causal_attention, rms_norm_rows, rope_rows, silu, KvRows};
use cocktail_tensor::Matrix;
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};

/// Raw (unquantized) key/value tensors of one (layer, KV-head) pair
/// produced by the prefill phase, shape `(tokens, head_dim)` each.
#[derive(Debug, Clone, PartialEq)]
pub struct RawKv {
    /// Key tensor after rotary position embedding.
    pub k: Matrix,
    /// Value tensor.
    pub v: Matrix,
}

/// Everything the prefill phase produces.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefillOutput {
    /// Raw per-layer, per-KV-head key/value tensors (`[layer][kv_head]`).
    pub kv: Vec<Vec<RawKv>>,
    /// Final-norm hidden states of every prompt token, `(tokens, hidden)`.
    pub hidden: Matrix,
    /// Logits of the token following the prompt.
    pub last_logits: Vec<f32>,
}

impl PrefillOutput {
    /// Greedy next token after the prompt.
    pub fn next_token(&self) -> u32 {
        argmax(&self.last_logits)
    }
}

/// Result of a single decode step.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeStep {
    /// Logits over the vocabulary for the next position.
    pub logits: Vec<f32>,
    /// Greedy argmax of the logits.
    pub next_token: u32,
}

/// One request's slot in a batched decode step: the token it is processing,
/// the token's absolute position in that request's sequence, and the
/// request's own KV cache.
#[derive(Debug)]
pub struct DecodeSlot<'a> {
    /// Token id to process.
    pub token: u32,
    /// Absolute position of `token` within the request's sequence.
    pub pos: usize,
    /// The request's chunked KV cache; the token's KV is appended to it.
    pub cache: &'a mut ChunkedKvCache,
}

/// One request's slot in a batched prefill: the full prompt tokens plus an
/// optional shared-prefix handle covering the leading `prefix_len` tokens,
/// whose KV is reused instead of recomputed.
#[derive(Debug, Clone)]
pub struct PrefillSlot<'a> {
    /// The full prompt token sequence (prefix included).
    pub tokens: &'a [u32],
    /// Cached raw KV blocks covering (at least) the first `prefix_len`
    /// prompt tokens; `None` for a cold prefill.
    pub prefix: Option<&'a SharedPrefixKv>,
    /// How many leading prompt tokens are served from `prefix`. Must be
    /// `0` when `prefix` is `None`, and strictly smaller than the prompt
    /// length otherwise (the engine always computes at least one row, which
    /// produces the next-token logits).
    pub prefix_len: usize,
}

impl<'a> PrefillSlot<'a> {
    /// A cold prefill of the whole prompt.
    pub fn cold(tokens: &'a [u32]) -> Self {
        Self {
            tokens,
            prefix: None,
            prefix_len: 0,
        }
    }

    /// A prefill reusing the first `prefix_len` tokens from cached blocks.
    pub fn with_prefix(tokens: &'a [u32], prefix: &'a SharedPrefixKv, prefix_len: usize) -> Self {
        Self {
            tokens,
            prefix: Some(prefix),
            prefix_len,
        }
    }

    /// Number of prompt tokens actually computed (not served from cache).
    pub fn suffix_len(&self) -> usize {
        self.tokens.len().saturating_sub(self.prefix_len)
    }
}

/// What one slot of a batched prefill produces: the raw KV rows of the
/// *computed* (non-reused) prompt suffix, its final-norm hidden states, and
/// the next-token logits.
///
/// Together with the reused prefix blocks, `suffix_kv` covers the whole
/// prompt, and every row is bit-identical to the same row of a cold
/// [`InferenceEngine::prefill`] of the full prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPrefill {
    /// How many leading prompt tokens were served from cached blocks.
    pub prefix_len: usize,
    /// Raw per-layer, per-KV-head key/value tensors of the computed suffix
    /// (`[layer][kv_head]`, `suffix_len` rows each).
    pub suffix_kv: Vec<Vec<RawKv>>,
    /// Final-norm hidden states of the computed suffix, `(suffix_len,
    /// hidden)`.
    pub hidden: Matrix,
    /// Logits of the token following the prompt.
    pub last_logits: Vec<f32>,
}

impl BatchPrefill {
    /// Greedy next token after the prompt.
    pub fn next_token(&self) -> u32 {
        argmax(&self.last_logits)
    }

    /// Number of computed suffix rows.
    pub fn suffix_len(&self) -> usize {
        self.hidden.rows()
    }
}

/// The compute core shared between the main thread and the persistent
/// worker pool: the model configuration and weights, plus every per-request
/// attention routine the pool workers execute. Held behind an [`Arc`] so
/// jobs shipped to pool threads can reference the weights without copying
/// (or borrowing across the thread boundary).
#[derive(Debug)]
struct EngineShared {
    config: ModelConfig,
    weights: ModelWeights,
}

impl EngineShared {
    fn attention_scale(&self) -> f32 {
        1.0 / (self.config.head_dim() as f32).sqrt()
    }

    /// One layer's attention-input projections: RMS-norms `x` and streams
    /// the QKV weights once for every row in the batch.
    fn layer_qkv(
        &self,
        layer: &LayerWeights,
        x: &Matrix,
    ) -> Result<(Matrix, Matrix, Matrix), ModelError> {
        let mut normed = x.clone();
        rms_norm_rows(&mut normed, &layer.attn_norm, self.config.rms_eps);
        Ok((
            normed.matmul(&layer.wq)?,
            normed.matmul(&layer.wk)?,
            normed.matmul(&layer.wv)?,
        ))
    }

    /// Merges the per-request attention rows back into the residual stream
    /// and runs the layer's SwiGLU MLP (weights streamed once per batch).
    fn finish_layer(
        &self,
        layer: &LayerWeights,
        x: &mut Matrix,
        attn_rows: Vec<Matrix>,
    ) -> Result<(), ModelError> {
        let attn_refs: Vec<&Matrix> = attn_rows.iter().collect();
        let attn = Matrix::concat_rows(&attn_refs)?;
        x.add_assign(&attn.matmul(&layer.wo)?)?;

        let mut normed2 = x.clone();
        rms_norm_rows(&mut normed2, &layer.mlp_norm, self.config.rms_eps);
        let gate = normed2.matmul(&layer.w_gate)?;
        let up = normed2.matmul(&layer.w_up)?;
        let mut fused = gate;
        for (g, u) in fused.as_mut_slice().iter_mut().zip(up.as_slice()) {
            *g = silu(*g) * u;
        }
        x.add_assign(&fused.matmul(&layer.w_down)?)?;
        Ok(())
    }

    /// RoPE-rotates and appends one request's token KV to its cache, then
    /// computes its decode attention for one layer: the per-request section
    /// of a batched decode step. The arithmetic is exactly the single-
    /// request [`InferenceEngine::decode_step`] path, so results never
    /// depend on the batch composition — or on which pool worker ran it.
    fn token_attention(
        &self,
        layer_idx: usize,
        cache: &mut ChunkedKvCache,
        pos: usize,
        q_row: &Matrix,
        k_row: &Matrix,
        v_row: &Matrix,
    ) -> Result<Matrix, ModelError> {
        let head = self.config.head_dim();
        let scale = self.attention_scale();
        // Append this token's KV to every KV-head cache first so the token
        // attends to itself, as in standard causal decoding.
        for j in 0..self.config.n_kv_heads {
            let mut k_j = k_row.slice_cols(j * head, (j + 1) * head);
            rope_rows(&mut k_j, pos, self.config.rope_theta);
            let v_j = v_row.slice_cols(j * head, (j + 1) * head);
            let entry = cache.get_mut(layer_idx, j).ok_or_else(|| {
                ModelError::CacheMismatch(format!(
                    "cache slot (layer {layer_idx}, head {j}) is not populated"
                ))
            })?;
            entry.append_decode_token(k_j.row(0), v_j.row(0))?;
        }
        let mut head_outputs = Vec::with_capacity(self.config.n_heads);
        for h in 0..self.config.n_heads {
            let mut q_h = q_row.slice_cols(h * head, (h + 1) * head);
            rope_rows(&mut q_h, pos, self.config.rope_theta);
            let kv_head = h / self.config.gqa_group_size();
            let entry = cache.get(layer_idx, kv_head).ok_or_else(|| {
                ModelError::CacheMismatch(format!(
                    "cache slot (layer {layer_idx}, head {kv_head}) is not populated"
                ))
            })?;
            head_outputs.push(entry.attend(&q_h, scale)?);
        }
        let head_refs: Vec<&Matrix> = head_outputs.iter().collect();
        Matrix::concat_cols(&head_refs).map_err(ModelError::from)
    }

    /// One (slot, head) tile of a prefill layer: RoPE the head's suffix
    /// queries, then stream causal attention over the slot's reused prefix
    /// rows (borrowed from the shared block, never copied) followed by its
    /// suffix rows. Pure per-tile arithmetic, so it runs inline or on any
    /// kernel-pool worker with bit-identical output.
    fn prefill_tile(
        &self,
        layer_idx: usize,
        meta: &PrefillSlotMeta,
        kv_head: usize,
        mut q_h: Matrix,
        suffix: &RawKv,
    ) -> Result<Matrix, ModelError> {
        rope_rows(&mut q_h, meta.prefix_len(), self.config.rope_theta);
        let reused = meta
            .prefix
            .as_ref()
            .map_or_else(KvRows::default, |(kv, len)| {
                let block = kv.block(layer_idx, kv_head);
                KvRows::leading(block.k(), block.v(), *len)
            });
        let context = [reused, KvRows::of(&suffix.k, &suffix.v)];
        causal_attention(&q_h, context, self.attention_scale()).map_err(ModelError::from)
    }
}

/// The caches (and token positions) of one worker's contiguous chunk of a
/// decode batch. Ownership of the caches is taken from the borrowed slots
/// at the start of a round, ping-pongs between the main thread and the
/// chunk's worker once per layer, and returns to the slots when the round
/// ends.
struct DecodeChunk {
    caches: Vec<ChunkedKvCache>,
    positions: Vec<usize>,
}

/// One prefill slot in an owned form a tile job can capture (the
/// [`SharedPrefixKv`] handle is a refcount bump, not a copy).
#[derive(Clone)]
struct PrefillSlotMeta {
    /// First row of the slot's computed suffix in the stacked batch.
    start: usize,
    prompt_len: usize,
    prefix: Option<(SharedPrefixKv, usize)>,
}

impl PrefillSlotMeta {
    fn prefix_len(&self) -> usize {
        self.prefix.as_ref().map_or(0, |(_, len)| *len)
    }

    /// Rows of the slot's computed suffix in the stacked batch.
    fn rows(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.prompt_len - self.prefix_len()
    }

    /// Causally visible (query, key) pairs of one head: every suffix query
    /// sees the whole prefix plus the suffix keys up to itself.
    fn visible_pairs(&self) -> usize {
        let suffix = self.rows().len();
        suffix * (suffix + 1) / 2 + suffix * self.prefix_len()
    }
}

/// A decoder-only transformer inference engine with deterministic seeded
/// weights and a pluggable chunked KV cache.
///
/// The engine separates the two phases exactly as the paper describes:
/// [`InferenceEngine::prefill`] runs full causal attention over the prompt
/// in FP32 and returns the raw per-layer KV tensors;
/// [`InferenceEngine::build_cache`] segments those tensors into a
/// [`ChunkedKvCache`]; a quantization policy (baseline or Cocktail) then
/// rewrites the cache in place; and [`InferenceEngine::decode_step`] /
/// [`InferenceEngine::generate_with_cache`] run decode-phase attention over
/// the (possibly quantized, possibly reordered) cache.
///
/// On multi-core hosts the engine owns a **persistent decode pool** (a
/// [`KernelPool`] of its own): the threads are spawned once, on the first
/// batched decode round that can use them, and then serve every decode
/// round for the engine's whole lifetime —
/// [`InferenceEngine::pool_spawn_count`] stays at the worker count however
/// many rounds run. Work is assigned to workers by contiguous chunk index
/// and stitched back in order, so pooled outputs are bit-identical to the
/// single-threaded loop. Prefill does not
/// use this pool: its attention is a list of (slot, head) tiles that a
/// lone slot runs on the process-wide kernel pool of
/// `cocktail_quant::parallel` (following `COCKTAIL_KERNEL_THREADS`) and a
/// batch of several slots runs inline.
///
/// # Example
///
/// ```
/// use cocktail_model::{InferenceEngine, ModelProfile};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = InferenceEngine::new(ModelProfile::tiny())?;
/// let prompt = engine.tokenizer().encode("alpha beta gamma delta epsilon zeta");
/// let prefill = engine.prefill(&prompt)?;
/// let mut cache = engine.build_cache(&prefill, 2)?;
/// let generated = engine.generate_with_cache(&prefill, &mut cache, 4)?;
/// assert_eq!(generated.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct InferenceEngine {
    shared: Arc<EngineShared>,
    tokenizer: Tokenizer,
    seed: u64,
    pool: OnceLock<KernelPool>,
}

impl InferenceEngine {
    /// Builds an engine from a [`ModelProfile`], using its simulated
    /// configuration and weight seed.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if the profile's configuration
    /// fails validation.
    pub fn new(profile: ModelProfile) -> Result<Self, ModelError> {
        Self::from_config(profile.sim().clone(), profile.seed())
    }

    /// Builds an engine from an explicit configuration and weight seed.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn from_config(config: ModelConfig, seed: u64) -> Result<Self, ModelError> {
        config.validate()?;
        let weights = ModelWeights::seeded(&config, seed);
        let tokenizer = Tokenizer::new(config.vocab_size);
        Ok(Self {
            shared: Arc::new(EngineShared { config, weights }),
            tokenizer,
            seed,
            pool: OnceLock::new(),
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.shared.config
    }

    /// The engine's tokenizer.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// The engine's weights (read-only).
    pub fn weights(&self) -> &ModelWeights {
        &self.shared.weights
    }

    /// The seed the weights were generated from. Engines built from the
    /// same configuration and seed have bit-identical weights, so KV rows
    /// snapshotted under one are valid under the other — a snapshot
    /// fingerprint must therefore include this value.
    pub fn weight_seed(&self) -> u64 {
        self.seed
    }

    /// The number of worker threads the engine would use for a batched
    /// decode round: the host's available parallelism (the pool is sized
    /// once, at first use).
    pub fn pool_workers(&self) -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Total decode-pool threads spawned over this engine's lifetime: `0`
    /// before the first batched decode round (or forever, on a single-core
    /// host), and exactly the worker count afterwards — the pool persists
    /// across decode rounds instead of re-spawning per round. Prefill never
    /// touches it.
    pub fn pool_spawn_count(&self) -> usize {
        self.pool.get().map_or(0, KernelPool::spawn_count)
    }

    /// The persistent decode pool, spawned on first use.
    fn pool(&self) -> &KernelPool {
        self.pool
            .get_or_init(|| KernelPool::new(self.pool_workers()))
    }

    fn embed(&self, tokens: &[u32]) -> Result<Matrix, ModelError> {
        let vocab = self.shared.config.vocab_size;
        for &t in tokens {
            if t as usize >= vocab {
                return Err(ModelError::InvalidPrompt(format!(
                    "token id {t} exceeds vocabulary size {vocab}"
                )));
            }
        }
        let indices: Vec<usize> = tokens.iter().map(|&t| t as usize).collect();
        Ok(self.shared.weights.embedding.gather_rows(&indices))
    }

    /// Runs the prefill phase over `tokens` (full causal attention in FP32)
    /// and returns the raw KV tensors, hidden states and next-token logits.
    ///
    /// Implemented as a cold [`InferenceEngine::prefill_batch`] of one, so
    /// single prefills, batched prefills and prefix-reusing prefills all go
    /// through the same row-wise arithmetic and stay bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPrompt`] if the prompt is empty, longer
    /// than the model's maximum context, or contains out-of-vocabulary ids.
    pub fn prefill(&self, tokens: &[u32]) -> Result<PrefillOutput, ModelError> {
        let mut batch = self.prefill_batch(&[PrefillSlot::cold(tokens)])?;
        let one = batch.pop().expect("batch of one yields one prefill");
        Ok(PrefillOutput {
            kv: one.suffix_kv,
            last_logits: one.last_logits,
            hidden: one.hidden,
        })
    }

    /// Validates one prefill slot against the model.
    fn validate_prefill_slot(&self, slot: &PrefillSlot<'_>) -> Result<(), ModelError> {
        let config = &self.shared.config;
        if slot.tokens.is_empty() {
            return Err(ModelError::InvalidPrompt("prompt is empty".into()));
        }
        if slot.tokens.len() > config.max_context {
            return Err(ModelError::InvalidPrompt(format!(
                "prompt of {} tokens exceeds max context {}",
                slot.tokens.len(),
                config.max_context
            )));
        }
        match slot.prefix {
            None => {
                if slot.prefix_len != 0 {
                    return Err(ModelError::CacheMismatch(
                        "prefix_len set without prefix blocks".into(),
                    ));
                }
            }
            Some(prefix) => {
                if prefix.layers() != config.n_layers || prefix.kv_heads() != config.n_kv_heads {
                    return Err(ModelError::CacheMismatch(format!(
                        "prefix has {}x{} blocks, model needs {}x{}",
                        prefix.layers(),
                        prefix.kv_heads(),
                        config.n_layers,
                        config.n_kv_heads
                    )));
                }
                if prefix.block(0, 0).k().cols() != config.head_dim() {
                    return Err(ModelError::CacheMismatch(format!(
                        "prefix head dim {} vs model head dim {}",
                        prefix.block(0, 0).k().cols(),
                        config.head_dim()
                    )));
                }
                if slot.prefix_len > prefix.tokens() || slot.prefix_len >= slot.tokens.len() {
                    return Err(ModelError::InvalidPrompt(format!(
                        "prefix_len {} out of range for a {}-token prompt with {} cached tokens",
                        slot.prefix_len,
                        slot.tokens.len(),
                        prefix.tokens()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Runs the prefill phase for a whole batch of independent prompts,
    /// optionally resuming each from cached shared-prefix KV blocks.
    ///
    /// The computed suffix rows of every slot are stacked into one hidden
    /// matrix, so the weight-streaming work — QKV projections, MLP, LM
    /// head — is paid once per batch, exactly as
    /// [`InferenceEngine::decode_step_batch`] does for decode. Attention is
    /// per (slot, head) tile: a head's suffix queries stream over the
    /// slot's reused prefix keys (borrowed from the shared blocks) followed
    /// by its own suffix keys, causally, through
    /// [`cocktail_tensor::ops::causal_attention`] — no score, mask or
    /// probability matrix exists. Each layer's tiles form one flat,
    /// slot-major list. A lone slot's list runs on the process-wide kernel
    /// pool when its visible-pair work clears
    /// [`cocktail_quant::parallel::PARALLEL_THRESHOLD`] (under
    /// `COCKTAIL_KERNEL_THREADS`); a batch of several slots, and anything
    /// below the threshold, runs the same list inline. Because prefill is
    /// causal and every shared op is row-wise, each computed row is
    /// bit-identical to the same row of a cold single-prompt
    /// [`InferenceEngine::prefill`] — reusing a prefix, batching prompts,
    /// or changing the thread count never changes any output.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPrompt`] for an empty/oversized prompt
    /// or an out-of-range `prefix_len`, and [`ModelError::CacheMismatch`]
    /// if a slot's prefix blocks do not match the model layout.
    pub fn prefill_batch(
        &self,
        slots: &[PrefillSlot<'_>],
    ) -> Result<Vec<BatchPrefill>, ModelError> {
        if slots.is_empty() {
            return Ok(Vec::new());
        }
        for slot in slots {
            self.validate_prefill_slot(slot)?;
        }

        // Each slot's computed suffix is a row range of the stacked hidden
        // matrix.
        let mut metas = Vec::with_capacity(slots.len());
        let mut total_rows = 0usize;
        for slot in slots {
            metas.push(PrefillSlotMeta {
                start: total_rows,
                prompt_len: slot.tokens.len(),
                prefix: slot.prefix.map(|kv| (kv.clone(), slot.prefix_len)),
            });
            total_rows += slot.suffix_len();
        }
        let stacked: Vec<u32> = slots
            .iter()
            .flat_map(|s| s.tokens[s.prefix_len..].iter().copied())
            .collect();
        let mut x = self.embed(&stacked)?;
        let mut kv_per_slot: Vec<Vec<Vec<RawKv>>> = slots
            .iter()
            .map(|_| Vec::with_capacity(self.shared.config.n_layers))
            .collect();

        for (layer_idx, layer) in self.shared.weights.layers.iter().enumerate() {
            let (q_all, k_all, v_all) = self.shared.layer_qkv(layer, &x)?;
            let per_slot =
                self.prefill_layer_attention(layer_idx, &metas, &q_all, &k_all, &v_all)?;
            let mut attn_rows = Vec::with_capacity(slots.len());
            for (suffix_kv, (attn, layer_kv)) in kv_per_slot.iter_mut().zip(per_slot) {
                attn_rows.push(attn);
                suffix_kv.push(layer_kv);
            }
            self.shared.finish_layer(layer, &mut x, attn_rows)?;
        }

        rms_norm_rows(
            &mut x,
            &self.shared.weights.final_norm,
            self.shared.config.rms_eps,
        );
        metas
            .iter()
            .zip(kv_per_slot)
            .map(|(meta, suffix_kv)| {
                let rows = meta.rows();
                let hidden = x.slice_rows(rows.start, rows.end);
                let last_hidden = hidden.slice_rows(hidden.rows() - 1, hidden.rows());
                let logits = last_hidden.matmul(&self.shared.weights.lm_head)?;
                Ok(BatchPrefill {
                    prefix_len: meta.prefix_len(),
                    suffix_kv,
                    last_logits: logits.row(0).to_vec(),
                    hidden,
                })
            })
            .collect()
    }

    /// One prefill layer's attention for every slot: the slot's attention
    /// rows (heads side by side) plus its per-KV-head suffix KV.
    ///
    /// The work is one flat, slot-major list of (slot, head) tiles, each
    /// owning its head's suffix queries and sharing its slot's suffix KV.
    /// A lone slot above the threshold hands the list to
    /// [`kernel_parallel::run_jobs`] (job `i` on worker `i % workers`, so
    /// its heads alternate between workers); every other batch runs the
    /// same tiles inline in the same order. A tile's arithmetic does not
    /// depend on where it runs, and tiles are stitched in list order, so
    /// the output is bit-identical either way.
    ///
    /// Several slots arrive together when a scheduler admits a burst,
    /// usually beside its running decode batch, and there the fork was
    /// measured to cost more than it buys: on the 2-vCPU reference box two
    /// computing threads each run about 1.3x slower, in regimes that last
    /// seconds, so forking those batches made `admission_storm` a further
    /// 1.3x faster per run but spread its runs from 3.5% to 8-12% of
    /// `tok_s` (inter-quartile), wider than the benchmark's bound.
    fn prefill_layer_attention(
        &self,
        layer_idx: usize,
        metas: &[PrefillSlotMeta],
        q_all: &Matrix,
        k_all: &Matrix,
        v_all: &Matrix,
    ) -> Result<Vec<(Matrix, Vec<RawKv>)>, ModelError> {
        let config = &self.shared.config;
        let head = config.head_dim();
        let gqa = config.gqa_group_size();

        // Per-KV-head suffix K/V of every slot, RoPE'd at the suffix
        // positions.
        let layer_kv: Vec<Arc<Vec<RawKv>>> = metas
            .iter()
            .map(|meta| {
                let rows = meta.rows();
                let k_s = k_all.slice_rows(rows.start, rows.end);
                let v_s = v_all.slice_rows(rows.start, rows.end);
                let heads = (0..config.n_kv_heads).map(|j| {
                    let mut k_j = k_s.slice_cols(j * head, (j + 1) * head);
                    rope_rows(&mut k_j, meta.prefix_len(), config.rope_theta);
                    RawKv {
                        k: k_j,
                        v: v_s.slice_cols(j * head, (j + 1) * head),
                    }
                });
                Arc::new(heads.collect())
            })
            .collect();

        let mut tiles = Vec::with_capacity(metas.len() * config.n_heads);
        for (meta, kv) in metas.iter().zip(&layer_kv) {
            let rows = meta.rows();
            let q_s = q_all.slice_rows(rows.start, rows.end);
            for h in 0..config.n_heads {
                let q_h = q_s.slice_cols(h * head, (h + 1) * head);
                let (shared, meta, kv) = (Arc::clone(&self.shared), meta.clone(), Arc::clone(kv));
                tiles.push(move || {
                    shared.prefill_tile(layer_idx, &meta, h / gqa, q_h, &kv[h / gqa])
                });
            }
        }
        let pairs: usize = metas.iter().map(PrefillSlotMeta::visible_pairs).sum();
        let fork =
            metas.len() == 1 && kernel_parallel::should_parallelize(pairs * config.hidden_dim);
        let outputs = if fork {
            kernel_parallel::run_jobs(tiles)
        } else {
            tiles.into_iter().map(|tile| tile()).collect()
        };

        let mut outputs = outputs.into_iter();
        layer_kv
            .into_iter()
            .map(|kv| {
                let heads = outputs
                    .by_ref()
                    .take(config.n_heads)
                    .collect::<Result<Vec<Matrix>, ModelError>>()?;
                let head_refs: Vec<&Matrix> = heads.iter().collect();
                let attn = Matrix::concat_cols(&head_refs)?;
                // Every tile has finished and dropped its handle.
                let kv = Arc::try_unwrap(kv).unwrap_or_else(|shared| (*shared).clone());
                Ok((attn, kv))
            })
            .collect()
    }

    /// Segments the prefill KV tensors into a [`ChunkedKvCache`] with the
    /// given chunk size. All chunks start in FP16; a quantization policy is
    /// applied afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CacheMismatch`] if the chunk size is zero.
    pub fn build_cache(
        &self,
        prefill: &PrefillOutput,
        chunk_size: usize,
    ) -> Result<ChunkedKvCache, ModelError> {
        let context_len = prefill
            .kv
            .first()
            .and_then(|heads| heads.first())
            .map(|kv| kv.k.rows())
            .unwrap_or(0);
        let seg = ChunkSegmentation::new(context_len, chunk_size)?;
        let config = &self.shared.config;
        let mut cache = ChunkedKvCache::new(config.n_layers, config.n_kv_heads);
        for (layer, heads) in prefill.kv.iter().enumerate() {
            for (head, raw) in heads.iter().enumerate() {
                cache.set(
                    layer,
                    head,
                    ChunkedLayerCache::from_prefill(&raw.k, &raw.v, &seg)?,
                );
            }
        }
        Ok(cache)
    }

    /// Runs one decode step: processes `token` at absolute position `pos`,
    /// appends its KV to the cache tail and returns the next-token logits.
    ///
    /// Implemented as a batch of one, so a single-request decode is
    /// bit-identical to the same request's row of a
    /// [`InferenceEngine::decode_step_batch`] call.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CacheMismatch`] if the cache layout does not
    /// match the model, or [`ModelError::InvalidPrompt`] for an
    /// out-of-vocabulary token.
    pub fn decode_step(
        &self,
        token: u32,
        pos: usize,
        cache: &mut ChunkedKvCache,
    ) -> Result<DecodeStep, ModelError> {
        let mut slots = [DecodeSlot { token, pos, cache }];
        let mut steps = self.decode_step_batch(&mut slots)?;
        Ok(steps.pop().expect("batch of one yields one step"))
    }

    /// The multi-core decode round on the **persistent pool**: worker `i`
    /// owns the `i`-th contiguous chunk of the batch for the entire round.
    /// At the start of the round each chunk's caches are *taken* from the
    /// borrowed slots (an O(1) move per cache); per layer the main thread
    /// streams the QKV/MLP weights for the whole batch, ships each worker
    /// its chunk's Q/K/V rows together with the chunk's caches, and the
    /// worker sends back the attention rows plus the caches for the next
    /// layer. When the round ends (or fails) the caches move back into the
    /// slots. The arithmetic and its stitching order are exactly the
    /// single-threaded loop's, so outputs stay bit-identical — and no
    /// thread is ever spawned here: the pool outlives the round.
    fn decode_layers_pooled(
        &self,
        slots: &mut [DecodeSlot<'_>],
        x: &mut Matrix,
        workers: usize,
    ) -> Result<(), ModelError> {
        let pool = self.pool();
        let workers = workers.min(pool.workers()).max(1);
        let n = slots.len();
        let chunk_len = n.div_ceil(workers);
        let mut chunks: Vec<Option<DecodeChunk>> = slots
            .chunks_mut(chunk_len)
            .map(|chunk| {
                Some(DecodeChunk {
                    caches: chunk
                        .iter_mut()
                        .map(|slot| std::mem::replace(slot.cache, ChunkedKvCache::new(0, 0)))
                        .collect(),
                    positions: chunk.iter().map(|slot| slot.pos).collect(),
                })
            })
            .collect();

        let mut round = || -> Result<(), ModelError> {
            for (layer_idx, layer) in self.shared.weights.layers.iter().enumerate() {
                let (q_all, k_all, v_all) = self.shared.layer_qkv(layer, x)?;
                let mut receivers = Vec::with_capacity(chunks.len());
                for (ci, state) in chunks.iter_mut().enumerate() {
                    let mut chunk = state.take().expect("chunk caches are home between layers");
                    let start = ci * chunk_len;
                    let end = start + chunk.caches.len();
                    let q = q_all.slice_rows(start, end);
                    let k = k_all.slice_rows(start, end);
                    let v = v_all.slice_rows(start, end);
                    let shared = Arc::clone(&self.shared);
                    let (tx, rx) = mpsc::channel();
                    receivers.push(rx);
                    pool.run_on(
                        ci,
                        Box::new(move || {
                            let results: Vec<Result<Matrix, ModelError>> = (0..chunk.caches.len())
                                .map(|i| {
                                    shared.token_attention(
                                        layer_idx,
                                        &mut chunk.caches[i],
                                        chunk.positions[i],
                                        &q.slice_rows(i, i + 1),
                                        &k.slice_rows(i, i + 1),
                                        &v.slice_rows(i, i + 1),
                                    )
                                })
                                .collect();
                            let _ = tx.send((results, chunk));
                        }),
                    );
                }
                let mut attn_rows = Vec::with_capacity(n);
                let mut layer_err: Option<ModelError> = None;
                for (ci, rx) in receivers.into_iter().enumerate() {
                    // A worker only fails to reply if its job panicked.
                    // Surface that as an error (the panicked chunk's
                    // caches are lost with the thread, but every other
                    // chunk's caches are still collected and restored
                    // below) instead of panicking past the restore loop.
                    match rx.recv() {
                        Ok((results, chunk)) => {
                            chunks[ci] = Some(chunk);
                            for result in results {
                                match result {
                                    Ok(rows) => attn_rows.push(rows),
                                    Err(err) => {
                                        layer_err.get_or_insert(err);
                                    }
                                }
                            }
                        }
                        Err(_) => {
                            layer_err.get_or_insert(ModelError::Numeric(format!(
                                "decode pool worker {ci} panicked; its requests' caches are lost"
                            )));
                        }
                    }
                }
                if let Some(err) = layer_err {
                    return Err(err);
                }
                self.shared.finish_layer(layer, x, attn_rows)?;
            }
            Ok(())
        };
        let result = round();

        // Hand every cache back to its borrowed slot, error or not.
        for (chunk_slots, state) in slots.chunks_mut(chunk_len).zip(chunks) {
            if let Some(chunk) = state {
                for (slot, cache) in chunk_slots.iter_mut().zip(chunk.caches) {
                    *slot.cache = cache;
                }
            }
        }
        result
    }

    /// Runs one decode step for a whole batch of independent requests.
    ///
    /// Every slot's token is embedded into one hidden-state matrix (one row
    /// per request) so the weight-streaming work — the QKV projections, the
    /// MLP and the LM head, which dominate decode cost — is paid once per
    /// *batch* rather than once per request. Attention stays per-request,
    /// since each request owns its cache, and RoPE is applied per row at
    /// each request's own position; on multi-core hosts the per-request
    /// attention runs on the engine's persistent [`KernelPool`], the
    /// request-level parallelism that continuous batching exposes. Row `i`
    /// of the batch goes through exactly the same row-wise arithmetic as a
    /// lone [`InferenceEngine::decode_step`] call — requests never share
    /// state — so batching (and pooling) never changes any request's
    /// logits: batched serving is bit-identical to sequential serving.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CacheMismatch`] if any cache layout does not
    /// match the model, or [`ModelError::InvalidPrompt`] for an
    /// out-of-vocabulary token.
    pub fn decode_step_batch(
        &self,
        slots: &mut [DecodeSlot<'_>],
    ) -> Result<Vec<DecodeStep>, ModelError> {
        if slots.is_empty() {
            return Ok(Vec::new());
        }
        let config = &self.shared.config;
        for slot in slots.iter() {
            if slot.cache.layers() != config.n_layers || slot.cache.kv_heads() != config.n_kv_heads
            {
                return Err(ModelError::CacheMismatch(format!(
                    "cache has {}x{} slots, model needs {}x{}",
                    slot.cache.layers(),
                    slot.cache.kv_heads(),
                    config.n_layers,
                    config.n_kv_heads
                )));
            }
        }
        let tokens: Vec<u32> = slots.iter().map(|s| s.token).collect();
        let mut x = self.embed(&tokens)?;
        // Worker count for the per-request attention: bounded by the cores
        // actually available, so a large batch never uses more threads than
        // the host can run.
        let workers = self.pool_workers().min(slots.len());

        if workers > 1 {
            self.decode_layers_pooled(slots, &mut x, workers)?;
        } else {
            for (layer_idx, layer) in self.shared.weights.layers.iter().enumerate() {
                let (q_all, k_all, v_all) = self.shared.layer_qkv(layer, &x)?;
                let attn_rows = slots
                    .iter_mut()
                    .enumerate()
                    .map(|(i, slot)| {
                        self.shared.token_attention(
                            layer_idx,
                            slot.cache,
                            slot.pos,
                            &q_all.slice_rows(i, i + 1),
                            &k_all.slice_rows(i, i + 1),
                            &v_all.slice_rows(i, i + 1),
                        )
                    })
                    .collect::<Result<Vec<Matrix>, ModelError>>()?;
                self.shared.finish_layer(layer, &mut x, attn_rows)?;
            }
        }

        rms_norm_rows(&mut x, &self.shared.weights.final_norm, config.rms_eps);
        let logits = x.matmul(&self.shared.weights.lm_head)?;
        Ok((0..slots.len())
            .map(|i| {
                let logits_vec = logits.row(i).to_vec();
                let next_token = argmax(&logits_vec);
                DecodeStep {
                    logits: logits_vec,
                    next_token,
                }
            })
            .collect())
    }

    /// Greedy generation of `max_new_tokens` tokens after the prompt, using
    /// the supplied cache (which has usually been rewritten by a
    /// quantization policy between [`InferenceEngine::build_cache`] and this
    /// call).
    ///
    /// # Errors
    ///
    /// Propagates any error from [`InferenceEngine::decode_step`].
    pub fn generate_with_cache(
        &self,
        prefill: &PrefillOutput,
        cache: &mut ChunkedKvCache,
        max_new_tokens: usize,
    ) -> Result<Vec<u32>, ModelError> {
        let mut generated = Vec::with_capacity(max_new_tokens);
        let prompt_len = prefill.hidden.rows();
        let mut token = prefill.next_token();
        for step in 0..max_new_tokens {
            generated.push(token);
            if step + 1 == max_new_tokens {
                break;
            }
            let out = self.decode_step(token, prompt_len + step, cache)?;
            token = out.next_token;
        }
        Ok(generated)
    }
}

fn argmax(values: &[f32]) -> u32 {
    let mut best = 0usize;
    let mut best_val = f32::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_val {
            best_val = v;
            best = i;
        }
    }
    best as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_quant::{Bitwidth, QuantAxis};

    fn tiny_engine() -> InferenceEngine {
        InferenceEngine::new(ModelProfile::tiny()).unwrap()
    }

    fn sample_prompt(engine: &InferenceEngine, words: usize) -> Vec<u32> {
        let text: Vec<String> = (0..words).map(|i| format!("word{i}")).collect();
        engine.tokenizer().encode(&text.join(" "))
    }

    /// A one-layer model that admits 2048-token prompts, small enough that
    /// the materialised reference stays affordable in a debug build.
    fn long_context_engine() -> InferenceEngine {
        let config = ModelConfig::new("long-tiny", 32, 1, 2, 2, 64, 512, 2048).unwrap();
        InferenceEngine::from_config(config, 0x10A6).unwrap()
    }

    fn cyclic_prompt(engine: &InferenceEngine, tokens: usize, salt: u32) -> Vec<u32> {
        let vocab = engine.config().vocab_size as u32;
        (0..tokens as u32)
            .map(|i| (i * 31 + salt * 17 + 7) % vocab)
            .collect()
    }

    /// The prefill attention this engine ran before the streaming kernel,
    /// kept as the reference: per slot it copies `[prefix ++ suffix]` K/V,
    /// and per head it materialises the causal mask, the score matrix and
    /// the probability matrix.
    fn materialised_slot_attention(
        shared: &EngineShared,
        layer_idx: usize,
        meta: &PrefillSlotMeta,
        q_s: &Matrix,
        k_s: &Matrix,
        v_s: &Matrix,
    ) -> (Matrix, Vec<RawKv>) {
        let head = shared.config.head_dim();
        let prefix_len = meta.prefix_len();
        let mut layer_kv = Vec::new();
        let mut full = Vec::new();
        for j in 0..shared.config.n_kv_heads {
            let mut k_j = k_s.slice_cols(j * head, (j + 1) * head);
            rope_rows(&mut k_j, prefix_len, shared.config.rope_theta);
            let v_j = v_s.slice_cols(j * head, (j + 1) * head);
            full.push(match &meta.prefix {
                Some((kv, len)) => {
                    let block = kv.block(layer_idx, j);
                    (
                        Matrix::concat_rows(&[&block.k().slice_rows(0, *len), &k_j]).unwrap(),
                        Matrix::concat_rows(&[&block.v().slice_rows(0, *len), &v_j]).unwrap(),
                    )
                }
                None => (k_j.clone(), v_j.clone()),
            });
            layer_kv.push(RawKv { k: k_j, v: v_j });
        }
        let mask = cocktail_tensor::ops::causal_mask(meta.rows().len(), meta.prompt_len);
        let mut head_outputs = Vec::new();
        for h in 0..shared.config.n_heads {
            let mut q_h = q_s.slice_cols(h * head, (h + 1) * head);
            rope_rows(&mut q_h, prefix_len, shared.config.rope_theta);
            let (k_ref, v_ref) = &full[h / shared.config.gqa_group_size()];
            let mut scores = q_h.matmul_transposed(k_ref).unwrap();
            scores.scale_in_place(shared.attention_scale());
            let probs = scores.masked_softmax(&mask).unwrap();
            head_outputs.push(probs.matmul(v_ref).unwrap());
        }
        let head_refs: Vec<&Matrix> = head_outputs.iter().collect();
        (Matrix::concat_cols(&head_refs).unwrap(), layer_kv)
    }

    /// A whole single-slot prefill through [`materialised_slot_attention`].
    fn materialised_prefill(engine: &InferenceEngine, slot: &PrefillSlot<'_>) -> BatchPrefill {
        let shared = &engine.shared;
        let meta = PrefillSlotMeta {
            start: 0,
            prompt_len: slot.tokens.len(),
            prefix: slot.prefix.map(|kv| (kv.clone(), slot.prefix_len)),
        };
        let mut x = engine.embed(&slot.tokens[slot.prefix_len..]).unwrap();
        let mut suffix_kv = Vec::new();
        for (layer_idx, layer) in shared.weights.layers.iter().enumerate() {
            let (q, k, v) = shared.layer_qkv(layer, &x).unwrap();
            let (attn, layer_kv) =
                materialised_slot_attention(shared, layer_idx, &meta, &q, &k, &v);
            suffix_kv.push(layer_kv);
            shared.finish_layer(layer, &mut x, vec![attn]).unwrap();
        }
        rms_norm_rows(&mut x, &shared.weights.final_norm, shared.config.rms_eps);
        let last = x.slice_rows(x.rows() - 1, x.rows());
        BatchPrefill {
            prefix_len: slot.prefix_len,
            suffix_kv,
            last_logits: last
                .matmul(&shared.weights.lm_head)
                .unwrap()
                .row(0)
                .to_vec(),
            hidden: x,
        }
    }

    fn prefill_one(engine: &InferenceEngine, slot: PrefillSlot<'_>) -> BatchPrefill {
        engine.prefill_batch(&[slot]).unwrap().pop().unwrap()
    }

    #[test]
    fn tiled_prefill_is_bit_identical_to_inline_prefill() {
        // A prompt large enough that the dispatch gate sends the tiles to
        // the kernel pool (96·97/2 pairs × hidden 32 ≫ the threshold), run
        // under kernel-thread overrides of 1 (inline) and 4 (pool).
        let engine = tiny_engine();
        let prompt = sample_prompt(&engine, 96);
        kernel_parallel::set_kernel_thread_override(Some(1));
        let scalar = engine.prefill(&prompt).unwrap();
        kernel_parallel::set_kernel_thread_override(Some(4));
        let parallel = engine.prefill(&prompt).unwrap();
        kernel_parallel::set_kernel_thread_override(None);
        assert_eq!(scalar, parallel);
    }

    #[test]
    fn long_cold_prefill_equals_the_materialised_reference() {
        let engine = long_context_engine();
        let prompt = cyclic_prompt(&engine, 2048, 0);
        let streamed = prefill_one(&engine, PrefillSlot::cold(&prompt));
        let reference = materialised_prefill(&engine, &PrefillSlot::cold(&prompt));
        assert_eq!(streamed, reference);
    }

    #[test]
    fn resumed_long_prefill_equals_cold_at_every_split_kind() {
        let engine = long_context_engine();
        let prompt = cyclic_prompt(&engine, 640, 1);
        let cold = engine.prefill(&prompt).unwrap();
        // One token, one 32-token chunk, and everything but the last token.
        for prefix_len in [1usize, 32, prompt.len() - 1] {
            let shared = prefix_blocks_from_prefill(&engine, &cold, prefix_len);
            let slot = PrefillSlot::with_prefix(&prompt, &shared, prefix_len);
            let warm = prefill_one(&engine, slot.clone());
            assert_eq!(warm, materialised_prefill(&engine, &slot));
            assert_eq!(cold.last_logits, warm.last_logits, "prefix {prefix_len}");
            assert_eq!(
                cold.hidden.slice_rows(prefix_len, prompt.len()),
                warm.hidden
            );
            for (cold_raw, warm_raw) in cold.kv[0].iter().zip(&warm.suffix_kv[0]) {
                assert_eq!(cold_raw.k.slice_rows(prefix_len, prompt.len()), warm_raw.k);
                assert_eq!(cold_raw.v.slice_rows(prefix_len, prompt.len()), warm_raw.v);
            }
        }
    }

    #[test]
    fn mixed_long_and_short_batch_equals_singles_at_every_thread_count() {
        let engine = long_context_engine();
        let prompts: Vec<Vec<u32>> = [2048usize, 256, 256, 256]
            .iter()
            .enumerate()
            .map(|(i, &n)| cyclic_prompt(&engine, n, i as u32))
            .collect();
        // Cold: every slot whole. Warm: every slot resumes from the first
        // half of its own prompt.
        let prefixes: Vec<SharedPrefixKv> = prompts
            .iter()
            .map(|p| {
                let half = engine.prefill(&p[..p.len() / 2]).unwrap();
                prefix_blocks_from_prefill(&engine, &half, p.len() / 2)
            })
            .collect();
        let cold: Vec<PrefillSlot<'_>> = prompts.iter().map(|p| PrefillSlot::cold(p)).collect();
        let warm: Vec<PrefillSlot<'_>> = prompts
            .iter()
            .zip(&prefixes)
            .map(|(p, kv)| PrefillSlot::with_prefix(p, kv, p.len() / 2))
            .collect();
        assert_eq!(engine.pool_spawn_count(), 0);
        let mut kernel_spawns = None;
        for batch in [&cold, &warm] {
            let singles: Vec<BatchPrefill> = batch
                .iter()
                .map(|slot| prefill_one(&engine, slot.clone()))
                .collect();
            for threads in [1usize, 2, 4] {
                kernel_parallel::set_kernel_thread_override(Some(threads));
                let batched = engine.prefill_batch(batch).unwrap();
                kernel_parallel::set_kernel_thread_override(None);
                assert_eq!(batched, singles, "threads {threads}");
                if threads > 1 {
                    // The kernel pool spawns on its first dispatch only.
                    let spawned = kernel_parallel::pool_spawn_count();
                    assert_eq!(*kernel_spawns.get_or_insert(spawned), spawned);
                }
            }
        }
        // Warm equals cold on the rows both computed.
        let cold_long = prefill_one(&engine, cold[0].clone());
        let warm_long = prefill_one(&engine, warm[0].clone());
        assert_eq!(cold_long.last_logits, warm_long.last_logits);
        assert_eq!(cold_long.hidden.slice_rows(1024, 2048), warm_long.hidden);
        // Prefill never touches the engine's decode pool.
        assert_eq!(engine.pool_spawn_count(), 0);
    }

    #[test]
    fn gqa_prefill_tiles_read_their_own_kv_head() {
        // 8 query heads over 2 KV heads: tile `h` must read KV head `h / 4`.
        let engine = InferenceEngine::new(ModelProfile::mistral_7b_sim()).unwrap();
        assert_eq!(engine.config().gqa_group_size(), 4);
        let prompt = cyclic_prompt(&engine, 160, 2);
        let reference = materialised_prefill(&engine, &PrefillSlot::cold(&prompt));
        for threads in [1usize, 4] {
            kernel_parallel::set_kernel_thread_override(Some(threads));
            let cold = prefill_one(&engine, PrefillSlot::cold(&prompt));
            kernel_parallel::set_kernel_thread_override(None);
            assert_eq!(cold, reference, "threads {threads}");
        }
        let cold = engine.prefill(&prompt).unwrap();
        let shared = prefix_blocks_from_prefill(&engine, &cold, 100);
        let slot = PrefillSlot::with_prefix(&prompt, &shared, 100);
        let warm = prefill_one(&engine, slot.clone());
        assert_eq!(warm, materialised_prefill(&engine, &slot));
        assert_eq!(cold.last_logits, warm.last_logits);
    }

    #[test]
    fn prefill_produces_kv_of_expected_shapes() {
        let engine = tiny_engine();
        let prompt = sample_prompt(&engine, 12);
        let out = engine.prefill(&prompt).unwrap();
        assert_eq!(out.kv.len(), engine.config().n_layers);
        assert_eq!(out.kv[0].len(), engine.config().n_kv_heads);
        assert_eq!(out.kv[0][0].k.shape(), (12, engine.config().head_dim()));
        assert_eq!(out.hidden.shape(), (12, engine.config().hidden_dim));
        assert_eq!(out.last_logits.len(), engine.config().vocab_size);
        assert!(out.last_logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn prefill_rejects_empty_and_oversized_prompts() {
        let engine = tiny_engine();
        assert!(engine.prefill(&[]).is_err());
        let too_long = vec![2u32; engine.config().max_context + 1];
        assert!(engine.prefill(&too_long).is_err());
    }

    #[test]
    fn prefill_rejects_out_of_vocab_tokens() {
        let engine = tiny_engine();
        let bad = vec![engine.config().vocab_size as u32 + 5];
        assert!(engine.prefill(&bad).is_err());
    }

    #[test]
    fn prefill_is_deterministic() {
        let engine = tiny_engine();
        let prompt = sample_prompt(&engine, 8);
        let a = engine.prefill(&prompt).unwrap();
        let b = engine.prefill(&prompt).unwrap();
        assert_eq!(a.last_logits, b.last_logits);
        assert_eq!(a.kv[0][0].k, b.kv[0][0].k);
    }

    #[test]
    fn prefill_is_causal() {
        // Logits for the first tokens must not change when more tokens are
        // appended to the prompt.
        let engine = tiny_engine();
        let long = sample_prompt(&engine, 10);
        let short = long[..6].to_vec();
        let out_short = engine.prefill(&short).unwrap();
        let out_long = engine.prefill(&long).unwrap();
        // Hidden state of position 5 must be identical in both runs.
        let h_short = out_short.hidden.row(5);
        let h_long = out_long.hidden.row(5);
        for (a, b) in h_short.iter().zip(h_long.iter()) {
            assert!((a - b).abs() < 1e-4, "causality violated: {a} vs {b}");
        }
    }

    #[test]
    fn build_cache_has_one_slot_per_layer_and_head() {
        let engine = tiny_engine();
        let prompt = sample_prompt(&engine, 10);
        let prefill = engine.prefill(&prompt).unwrap();
        let cache = engine.build_cache(&prefill, 4).unwrap();
        assert_eq!(cache.layers(), engine.config().n_layers);
        assert_eq!(cache.kv_heads(), engine.config().n_kv_heads);
        let layer0 = cache.get(0, 0).unwrap();
        assert_eq!(layer0.chunk_count(), 2); // 10 tokens, chunk 4 -> 2 chunks + 2 remainder
        assert_eq!(layer0.remainder_len(), 2);
    }

    #[test]
    fn decode_step_appends_to_cache_and_returns_valid_token() {
        let engine = tiny_engine();
        let prompt = sample_prompt(&engine, 8);
        let prefill = engine.prefill(&prompt).unwrap();
        let mut cache = engine.build_cache(&prefill, 4).unwrap();
        let before = cache.get(0, 0).unwrap().total_tokens();
        let step = engine.decode_step(3, prompt.len(), &mut cache).unwrap();
        assert!((step.next_token as usize) < engine.config().vocab_size);
        assert_eq!(cache.get(0, 0).unwrap().total_tokens(), before + 1);
        assert_eq!(step.logits.len(), engine.config().vocab_size);
    }

    #[test]
    fn decode_with_quantized_cache_stays_close_to_fp16() {
        let engine = tiny_engine();
        let prompt = sample_prompt(&engine, 16);
        let prefill = engine.prefill(&prompt).unwrap();

        let mut fp16_cache = engine.build_cache(&prefill, 4).unwrap();
        let fp16_step = engine
            .decode_step(5, prompt.len(), &mut fp16_cache)
            .unwrap();

        let mut int8_cache = engine.build_cache(&prefill, 4).unwrap();
        int8_cache
            .try_for_each_mut(|_, _, layer| {
                layer.quantize_all(Bitwidth::Int8, QuantAxis::PerToken, QuantAxis::PerToken, 16)
            })
            .unwrap();
        let int8_step = engine
            .decode_step(5, prompt.len(), &mut int8_cache)
            .unwrap();

        let max_diff = fp16_step
            .logits
            .iter()
            .zip(int8_step.logits.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        let scale = fp16_step
            .logits
            .iter()
            .map(|v| v.abs())
            .fold(0.0f32, f32::max)
            .max(1e-3);
        assert!(
            max_diff / scale < 0.1,
            "int8 cache changed logits too much: {max_diff} vs scale {scale}"
        );
    }

    #[test]
    fn decode_step_rejects_mismatched_cache() {
        let engine = tiny_engine();
        let mut wrong = ChunkedKvCache::new(1, 1);
        assert!(engine.decode_step(0, 0, &mut wrong).is_err());
    }

    #[test]
    fn generate_emits_requested_number_of_tokens() {
        let engine = tiny_engine();
        let prompt = sample_prompt(&engine, 8);
        let prefill = engine.prefill(&prompt).unwrap();
        let mut cache = engine.build_cache(&prefill, 4).unwrap();
        let out = engine.generate_with_cache(&prefill, &mut cache, 5).unwrap();
        assert_eq!(out.len(), 5);
        assert!(out
            .iter()
            .all(|&t| (t as usize) < engine.config().vocab_size));
    }

    #[test]
    fn batched_decode_is_bit_identical_to_sequential_decode() {
        let engine = tiny_engine();
        let prompts: Vec<Vec<u32>> = (0..3).map(|i| sample_prompt(&engine, 8 + 3 * i)).collect();
        let prefills: Vec<PrefillOutput> =
            prompts.iter().map(|p| engine.prefill(p).unwrap()).collect();

        // Sequential: each request decodes alone.
        let mut seq_steps = Vec::new();
        for (prompt, prefill) in prompts.iter().zip(&prefills) {
            let mut cache = engine.build_cache(prefill, 4).unwrap();
            let step = engine
                .decode_step(prefill.next_token(), prompt.len(), &mut cache)
                .unwrap();
            seq_steps.push((step, cache));
        }

        // Batched: all three decode in one call.
        let mut caches: Vec<ChunkedKvCache> = prefills
            .iter()
            .map(|p| engine.build_cache(p, 4).unwrap())
            .collect();
        let mut slots: Vec<DecodeSlot<'_>> = prefills
            .iter()
            .zip(prompts.iter())
            .zip(caches.iter_mut())
            .map(|((prefill, prompt), cache)| DecodeSlot {
                token: prefill.next_token(),
                pos: prompt.len(),
                cache,
            })
            .collect();
        let batch_steps = engine.decode_step_batch(&mut slots).unwrap();

        assert_eq!(batch_steps.len(), seq_steps.len());
        for (i, ((seq, seq_cache), batch)) in seq_steps.iter().zip(&batch_steps).enumerate() {
            assert_eq!(seq.logits, batch.logits, "request {i} logits diverged");
            assert_eq!(seq.next_token, batch.next_token);
            assert_eq!(seq_cache, &caches[i], "request {i} cache diverged");
        }
    }

    #[test]
    fn decode_pool_spawns_once_per_engine_lifetime() {
        let engine = tiny_engine();
        let prompts: Vec<Vec<u32>> = (0..4).map(|i| sample_prompt(&engine, 6 + 2 * i)).collect();
        let slots: Vec<PrefillSlot<'_>> = prompts.iter().map(|p| PrefillSlot::cold(p)).collect();
        let prefills = engine.prefill_batch(&slots).unwrap();
        assert_eq!(
            engine.pool_spawn_count(),
            0,
            "no pool before the first batched decode round"
        );

        // Many decode rounds over the same engine: the pool must not grow.
        let mut caches: Vec<ChunkedKvCache> = prefills
            .iter()
            .map(|b| {
                let out = PrefillOutput {
                    kv: b.suffix_kv.clone(),
                    hidden: b.hidden.clone(),
                    last_logits: b.last_logits.clone(),
                };
                engine.build_cache(&out, 4).unwrap()
            })
            .collect();
        let mut tokens: Vec<u32> = prefills.iter().map(BatchPrefill::next_token).collect();
        let mut after_first_round = 0;
        for round in 0..5 {
            let mut decode_slots: Vec<DecodeSlot<'_>> = caches
                .iter_mut()
                .zip(prompts.iter())
                .zip(tokens.iter())
                .map(|((cache, prompt), &token)| DecodeSlot {
                    token,
                    pos: prompt.len() + round,
                    cache,
                })
                .collect();
            let steps = engine.decode_step_batch(&mut decode_slots).unwrap();
            for (token, step) in tokens.iter_mut().zip(steps) {
                *token = step.next_token;
            }
            if round == 0 {
                after_first_round = engine.pool_spawn_count();
            }
        }

        let after_rounds = engine.pool_spawn_count();
        if engine.pool_workers() > 1 {
            assert_eq!(
                after_first_round, after_rounds,
                "the pool re-spawned workers between rounds"
            );
            assert_eq!(after_rounds, engine.pool_workers());
        } else {
            assert_eq!(after_rounds, 0, "single-core host never spawns a pool");
        }
    }

    fn prefix_blocks_from_prefill(
        engine: &InferenceEngine,
        prefill: &PrefillOutput,
        prefix_len: usize,
    ) -> SharedPrefixKv {
        let mut blocks = Vec::new();
        for heads in &prefill.kv {
            for raw in heads {
                blocks.push(
                    cocktail_kvcache::PrefixKvBlock::new(
                        raw.k.slice_rows(0, prefix_len),
                        raw.v.slice_rows(0, prefix_len),
                    )
                    .unwrap(),
                );
            }
        }
        SharedPrefixKv::from_blocks(engine.config().n_layers, engine.config().n_kv_heads, blocks)
            .unwrap()
    }

    #[test]
    fn batched_prefill_is_bit_identical_to_sequential_prefill() {
        let engine = tiny_engine();
        let prompts: Vec<Vec<u32>> = (0..3).map(|i| sample_prompt(&engine, 7 + 4 * i)).collect();
        let sequential: Vec<PrefillOutput> =
            prompts.iter().map(|p| engine.prefill(p).unwrap()).collect();
        let slots: Vec<PrefillSlot<'_>> = prompts.iter().map(|p| PrefillSlot::cold(p)).collect();
        let batched = engine.prefill_batch(&slots).unwrap();
        for ((seq, batch), prompt) in sequential.iter().zip(&batched).zip(&prompts) {
            assert_eq!(batch.prefix_len, 0);
            assert_eq!(batch.suffix_len(), prompt.len());
            assert_eq!(seq.last_logits, batch.last_logits);
            assert_eq!(seq.hidden, batch.hidden);
            assert_eq!(seq.kv, batch.suffix_kv);
        }
    }

    #[test]
    fn prefix_reusing_prefill_is_bit_identical_to_cold_prefill() {
        let engine = tiny_engine();
        let full = sample_prompt(&engine, 14);
        let cold = engine.prefill(&full).unwrap();
        for prefix_len in [1usize, 5, 8, 13] {
            let shared = prefix_blocks_from_prefill(&engine, &cold, prefix_len);
            let warm = engine
                .prefill_batch(&[PrefillSlot::with_prefix(&full, &shared, prefix_len)])
                .unwrap()
                .pop()
                .unwrap();
            assert_eq!(warm.prefix_len, prefix_len);
            assert_eq!(warm.suffix_len(), full.len() - prefix_len);
            assert_eq!(
                cold.last_logits, warm.last_logits,
                "prefix {prefix_len}: logits diverged"
            );
            for (layer, heads) in cold.kv.iter().enumerate() {
                for (head, raw) in heads.iter().enumerate() {
                    let warm_raw = &warm.suffix_kv[layer][head];
                    assert_eq!(
                        raw.k.slice_rows(prefix_len, full.len()),
                        warm_raw.k,
                        "layer {layer} head {head} suffix keys diverged"
                    );
                    assert_eq!(raw.v.slice_rows(prefix_len, full.len()), warm_raw.v);
                }
            }
            assert_eq!(cold.hidden.slice_rows(prefix_len, full.len()), warm.hidden);
        }
    }

    #[test]
    fn mixed_cold_and_warm_prefill_batch_matches_singles() {
        let engine = tiny_engine();
        let shared_full = sample_prompt(&engine, 12);
        let cold_prefill = engine.prefill(&shared_full).unwrap();
        let shared = prefix_blocks_from_prefill(&engine, &cold_prefill, 9);
        let other = sample_prompt(&engine, 10);

        let singles = [
            engine
                .prefill_batch(&[PrefillSlot::with_prefix(&shared_full, &shared, 9)])
                .unwrap()
                .pop()
                .unwrap(),
            engine
                .prefill_batch(&[PrefillSlot::cold(&other)])
                .unwrap()
                .pop()
                .unwrap(),
        ];
        let batched = engine
            .prefill_batch(&[
                PrefillSlot::with_prefix(&shared_full, &shared, 9),
                PrefillSlot::cold(&other),
            ])
            .unwrap();
        for (single, batch) in singles.iter().zip(&batched) {
            assert_eq!(single, batch, "batch composition changed a prefill");
        }
    }

    #[test]
    fn prefill_batch_rejects_invalid_slots() {
        let engine = tiny_engine();
        let prompt = sample_prompt(&engine, 10);
        let prefill = engine.prefill(&prompt).unwrap();
        let shared = prefix_blocks_from_prefill(&engine, &prefill, 10);
        // Empty prompt.
        assert!(engine.prefill_batch(&[PrefillSlot::cold(&[])]).is_err());
        // prefix_len without blocks.
        let bad = PrefillSlot {
            tokens: &prompt,
            prefix: None,
            prefix_len: 3,
        };
        assert!(engine.prefill_batch(&[bad]).is_err());
        // prefix_len covering the whole prompt leaves nothing to compute.
        assert!(engine
            .prefill_batch(&[PrefillSlot::with_prefix(&prompt, &shared, prompt.len())])
            .is_err());
        // Mismatched block layout.
        let wrong = SharedPrefixKv::from_blocks(
            1,
            1,
            vec![cocktail_kvcache::PrefixKvBlock::new(
                Matrix::zeros(4, engine.config().head_dim()),
                Matrix::zeros(4, engine.config().head_dim()),
            )
            .unwrap()],
        )
        .unwrap();
        assert!(engine
            .prefill_batch(&[PrefillSlot::with_prefix(&prompt, &wrong, 2)])
            .is_err());
    }

    #[test]
    fn empty_decode_batch_is_a_no_op() {
        let engine = tiny_engine();
        assert!(engine.decode_step_batch(&mut []).unwrap().is_empty());
    }

    #[test]
    fn gqa_engine_runs_end_to_end() {
        let profile = ModelProfile::mistral_7b_sim();
        let engine = InferenceEngine::new(profile).unwrap();
        assert!(engine.config().gqa_group_size() > 1);
        let prompt = sample_prompt(&engine, 12);
        let prefill = engine.prefill(&prompt).unwrap();
        let mut cache = engine.build_cache(&prefill, 4).unwrap();
        let out = engine.generate_with_cache(&prefill, &mut cache, 3).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn argmax_picks_largest() {
        assert_eq!(argmax(&[0.1, 3.0, -2.0]), 1);
        assert_eq!(argmax(&[-5.0]), 0);
    }
}
