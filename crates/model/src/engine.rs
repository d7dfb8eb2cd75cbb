//! The inference engine: prefill and decode phases over a chunked KV cache.

use crate::config::ModelConfig;
use crate::error::ModelError;
use crate::profile::ModelProfile;
use crate::tokenizer::Tokenizer;
use crate::weights::{LayerWeights, ModelWeights};
use cocktail_kvcache::{ChunkedKvCache, ChunkedLayerCache, SharedPrefixKv};
use cocktail_quant::parallel as kernel_parallel;
use cocktail_tensor::ops::{
    causal_attention, rms_norm_rows, rope_in_place, rope_rows, silu, KvRows,
};
use cocktail_tensor::Matrix;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// Least attention work of one layer, in QK multiply-adds (causally
/// visible (query, key) pairs × `hidden_dim`), for which the engine forks
/// the layer's prefill tiles or decode units onto the kernel pool.
///
/// It is the lower edge of the fork's measured winning region. On decode
/// rounds over Cocktail-compressed caches (b1–b8, 32–2048-token contexts,
/// one kernel thread against two on a 2-vCPU host; the table is in
/// `ROADMAP.md`), rounds of ~66k or less ran slower forked in 24 of 28
/// readings and rounds of ~131k or more ran faster in all 23. Between
/// them, served lone decodes at ~100–120k read from 0.75x to 1.04x
/// forked over inline. A pool dispatch wakes idle workers, which costs
/// more than the kernel dispatchers' `PARALLEL_THRESHOLD` assumes. At
/// 128 Ki a lone request's decode forks from position 2047 on, while two
/// short prompts of up to 32 tokens (2 × 528 pairs × 64 = 67,584)
/// prefill inline.
const ATTENTION_FORK_WORK: usize = 128 * 1024;

/// Whether a layer's attention of `work` QK multiply-adds forks onto the
/// kernel pool under the current `kernel_threads()`.
fn fork_attention(work: usize) -> bool {
    kernel_parallel::kernel_threads() > 1 && work >= ATTENTION_FORK_WORK
}

/// Raw (unquantized) key/value tensors of one (layer, KV-head) pair
/// produced by the prefill phase, shape `(tokens, head_dim)` each.
#[derive(Debug, Clone, PartialEq)]
pub struct RawKv {
    /// Key tensor after rotary position embedding.
    pub k: Matrix,
    /// Value tensor.
    pub v: Matrix,
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
    pub(crate) fn suffix_len(&self) -> usize {
        self.tokens.len().saturating_sub(self.prefix_len)
    }
}

/// What one slot of a batched prefill produces: the raw KV rows of the
/// *computed* (non-reused) prompt suffix and the next-token logits.
///
/// Together with the reused prefix blocks, `suffix_kv` covers the whole
/// prompt, and every row is bit-identical to the same row of a cold
/// prefill of the full prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPrefill {
    /// How many leading prompt tokens were served from cached blocks.
    pub prefix_len: usize,
    /// Raw per-layer, per-KV-head key/value tensors of the computed suffix
    /// (`[layer][kv_head]`, `suffix_len` rows each).
    pub suffix_kv: Vec<Vec<RawKv>>,
    /// Logits of the token following the prompt.
    pub last_logits: Vec<f32>,
}

impl BatchPrefill {
    /// Greedy next token after the prompt.
    pub fn next_token(&self) -> u32 {
        argmax(&self.last_logits)
    }
}

/// The compute core shared between the caller's thread and the kernel
/// pool: the model configuration and weights, plus every per-request
/// attention routine the pool's jobs execute. Held behind an [`Arc`] so
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
    /// the K and V weights once for every row in the batch, and the Q
    /// weights once for the rows `query_rows` picks (every row when
    /// `None`). Each op is row-wise, so a picked row's query has the same
    /// bits as in the full projection.
    fn layer_qkv(
        &self,
        layer: &LayerWeights,
        x: &Matrix,
        query_rows: Option<&[usize]>,
    ) -> Result<(Matrix, Matrix, Matrix), ModelError> {
        let mut normed = x.clone();
        rms_norm_rows(&mut normed, &layer.attn_norm, self.config.rms_eps);
        let q = match query_rows {
            Some(rows) => normed.gather_rows(rows).matmul(&layer.wq)?,
            None => normed.matmul(&layer.wq)?,
        };
        Ok((q, normed.matmul(&layer.wk)?, normed.matmul(&layer.wv)?))
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

    /// One (request, KV-head) unit of a decode layer: RoPE-rotates the
    /// token's key at `pos` and appends it with its value to the unit's
    /// cache entry, so the token attends to itself as in standard causal
    /// decoding, then rotates each query head of the group at `pos` and
    /// attends the group over the entry. The query heads sharing a KV head
    /// go to `attend` as one `(gqa_group_size, head_dim)` block, so each
    /// cached row is reconstructed once per group rather than once per
    /// head; query rows are independent in `attend`, so every output bit is
    /// the per-head result, and no result depends on which other units ran
    /// beside it or on which thread. It runs inside a kernel-pool job, so it
    /// must never fork: `append_decode_token` and `attend` dispatch nothing.
    fn unit_attention(
        &self,
        layer_idx: usize,
        unit: &mut DecodeUnit,
    ) -> Result<Matrix, ModelError> {
        let DecodeUnit {
            entry,
            kv_head,
            pos,
            q,
            k,
            v,
        } = unit;
        let entry = entry.as_mut().ok_or_else(|| {
            ModelError::CacheMismatch(format!(
                "cache slot (layer {layer_idx}, head {kv_head}) is not populated"
            ))
        })?;
        let theta = self.config.rope_theta;
        rope_in_place(k, *pos, theta);
        entry.append_decode_token(k, v)?;
        let head = self.config.head_dim();
        for query in q.chunks_exact_mut(head) {
            rope_in_place(query, *pos, theta);
        }
        let q_group = Matrix::from_vec(q.len() / head, head, std::mem::take(q))?;
        Ok(entry.attend(&q_group, self.attention_scale())?)
    }

    /// One (slot, head) tile of a prefill layer: RoPE the head's queries
    /// from position `first_pos` on, then stream causal attention over the
    /// slot's reused prefix rows (borrowed from the shared block, never
    /// copied) followed by its suffix rows. The queries are the slot's last
    /// rows: its whole suffix (`first_pos` = the prefix length), or at the
    /// last layer its final row alone (`first_pos` = prompt length − 1),
    /// which sees every key. Pure per-tile arithmetic, so it runs inline or
    /// on any kernel-pool worker with bit-identical output.
    fn prefill_tile(
        &self,
        layer_idx: usize,
        meta: &PrefillSlotMeta,
        kv_head: usize,
        first_pos: usize,
        mut q_h: Matrix,
        suffix: &RawKv,
    ) -> Result<Matrix, ModelError> {
        rope_rows(&mut q_h, first_pos, self.config.rope_theta);
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

/// One (request, KV-head) unit of a decode layer. Its cache entry moves
/// out of the request's [`ChunkedKvCache`] for the layer, into the unit's
/// kernel-pool job and back into the same slot afterwards, error or not;
/// the rows are the token's query heads that share the KV head and the KV
/// head's slices of the token's key and value, all before RoPE.
struct DecodeUnit {
    entry: Option<ChunkedLayerCache>,
    kv_head: usize,
    pos: usize,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
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
    /// sees the whole prefix plus the suffix keys up to itself; a final row
    /// alone sees the whole prompt.
    fn visible_pairs(&self, final_row_only: bool) -> usize {
        if final_row_only {
            return self.prompt_len;
        }
        let suffix = self.rows().len();
        suffix * (suffix + 1) / 2 + suffix * self.prefix_len()
    }
}

/// A decoder-only transformer inference engine with deterministic seeded
/// weights and a pluggable chunked KV cache.
///
/// The engine separates the two phases:
/// [`InferenceEngine::prefill_batch`] runs full causal attention over each
/// prompt in FP32 and returns the raw per-layer KV rows; the caller
/// segments them into a [`ChunkedKvCache`] and a quantization policy
/// (baseline or Cocktail) rewrites it in place; and
/// [`InferenceEngine::decode_step`] / [`InferenceEngine::decode_step_batch`]
/// run decode-phase attention over the (possibly quantized, possibly
/// reordered) cache. The Cocktail request path (`build_context_cache` in
/// `cocktail_core::serving`) chunks only the context and appends the query
/// rows to the FP16 tail, as the paper keeps the query in FP16.
///
/// The engine owns no threads. Its parallel work runs on the process-wide
/// kernel pool of `cocktail_quant::parallel`, sized and tiled by
/// `COCKTAIL_KERNEL_THREADS`: a prefill batch's (slot, head) attention
/// tiles, and a decode batch's (request, KV-head) attention units cut into
/// contiguous jobs, each whenever a layer's attention work clears one
/// measured gate. Work is stitched back in order, so every output is
/// bit-identical at every thread count.
///
/// # Example
///
/// ```
/// use cocktail_kvcache::{ChunkSegmentation, ChunkedKvCache, ChunkedLayerCache};
/// use cocktail_model::{InferenceEngine, ModelProfile, PrefillSlot};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = InferenceEngine::new(ModelProfile::tiny())?;
/// let prompt = engine.tokenizer().encode("alpha beta gamma delta epsilon zeta");
/// let prefill = engine.prefill_batch(&[PrefillSlot::cold(&prompt)])?.remove(0);
/// // Every prompt row in FP16 chunks of two tokens.
/// let seg = ChunkSegmentation::new(prompt.len(), 2)?;
/// let config = engine.config();
/// let mut cache = ChunkedKvCache::new(config.n_layers, config.n_kv_heads);
/// for (layer, heads) in prefill.suffix_kv.iter().enumerate() {
///     for (head, raw) in heads.iter().enumerate() {
///         cache.set(layer, head, ChunkedLayerCache::from_prefill(&raw.k, &raw.v, &seg)?);
///     }
/// }
/// let step = engine.decode_step(prefill.next_token(), prompt.len(), &mut cache)?;
/// assert!((step.next_token as usize) < engine.config().vocab_size);
/// assert_eq!(cache.get(0, 0).unwrap().total_tokens(), prompt.len() + 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct InferenceEngine {
    shared: Arc<EngineShared>,
    tokenizer: Tokenizer,
    seed: u64,
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
    pub(crate) fn from_config(config: ModelConfig, seed: u64) -> Result<Self, ModelError> {
        config.validate()?;
        let weights = ModelWeights::seeded(&config, seed);
        let tokenizer = Tokenizer::new(config.vocab_size);
        Ok(Self {
            shared: Arc::new(EngineShared { config, weights }),
            tokenizer,
            seed,
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
    /// slot-major list. The list runs on the process-wide kernel pool
    /// (under `COCKTAIL_KERNEL_THREADS`) when its visible-pair work, summed
    /// over every slot, clears the engine's attention fork gate, the same
    /// one [`InferenceEngine::decode_step_batch`] uses (128 Ki QK
    /// multiply-adds); below it the same list runs inline.
    ///
    /// A prefill hands on each layer's K/V and the logits after each
    /// slot's final row, nothing else. So the last layer norms every row
    /// and projects its K and V for the cache, then keeps each slot's final
    /// row alone for the Q projection, attention (one query row at position
    /// `prompt_len − 1`, which sees every key), `wo`, the MLP, the final
    /// norm and the LM head.
    ///
    /// Because prefill is causal and every op outside attention is
    /// row-wise, each handed-on bit is identical to the same bit of a cold
    /// single-prompt prefill — and to a prefill that
    /// carries every row through every layer: reusing a prefix, batching
    /// prompts, dropping the last layer's other rows or changing the thread
    /// count never changes any output. Attention scores of a query row
    /// depend only on that row and the keys it sees, and `rope_rows` rotates
    /// a row at its position to the same bits alone as in a block.
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

        // Past the last layer's K/V, only each slot's final row is read.
        let final_rows: Vec<usize> = metas.iter().map(|meta| meta.rows().end - 1).collect();
        let last_layer = self.shared.config.n_layers - 1;
        for (layer_idx, layer) in self.shared.weights.layers.iter().enumerate() {
            let final_row_only = layer_idx == last_layer;
            let query_rows = final_row_only.then_some(final_rows.as_slice());
            let (q, k_all, v_all) = self.shared.layer_qkv(layer, &x, query_rows)?;
            if final_row_only {
                x = x.gather_rows(&final_rows);
            }
            let per_slot = self.prefill_layer_attention(
                layer_idx,
                &metas,
                final_row_only,
                &q,
                &k_all,
                &v_all,
            )?;
            let mut attn_rows = Vec::with_capacity(slots.len());
            for (suffix_kv, (attn, layer_kv)) in kv_per_slot.iter_mut().zip(per_slot) {
                attn_rows.push(attn);
                suffix_kv.push(layer_kv);
            }
            self.shared.finish_layer(layer, &mut x, attn_rows)?;
        }

        // `x` holds each slot's final row, in slot order.
        rms_norm_rows(
            &mut x,
            &self.shared.weights.final_norm,
            self.shared.config.rms_eps,
        );
        let logits = x.matmul(&self.shared.weights.lm_head)?;
        Ok(metas
            .iter()
            .zip(kv_per_slot)
            .enumerate()
            .map(|(i, (meta, suffix_kv))| BatchPrefill {
                prefix_len: meta.prefix_len(),
                suffix_kv,
                last_logits: logits.row(i).to_vec(),
            })
            .collect())
    }

    /// One prefill layer's attention for every slot: the slot's attention
    /// rows (heads side by side) plus its per-KV-head suffix KV.
    ///
    /// `q` holds every suffix row's query, or with `final_row_only` (the
    /// last layer) one row per slot: the slot's final row, at position
    /// `prompt_len − 1`. The KV is always every suffix row's.
    ///
    /// The work is one flat, slot-major list of (slot, head) tiles, each
    /// owning its head's queries and sharing its slot's suffix KV. When the
    /// causally visible pairs of every slot, times `hidden_dim`, clear
    /// [`ATTENTION_FORK_WORK`], the list goes to
    /// [`kernel_parallel::run_jobs`] (job `i` on worker `i % workers`, so
    /// heads alternate between workers), however many slots it holds; a
    /// smaller list runs inline in the same order. A tile's arithmetic does
    /// not depend on where it runs, and tiles are stitched in list order,
    /// so the output is bit-identical either way.
    fn prefill_layer_attention(
        &self,
        layer_idx: usize,
        metas: &[PrefillSlotMeta],
        final_row_only: bool,
        q: &Matrix,
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
        for (i, (meta, kv)) in metas.iter().zip(&layer_kv).enumerate() {
            let (rows, first_pos) = if final_row_only {
                (i..i + 1, meta.prompt_len - 1)
            } else {
                (meta.rows(), meta.prefix_len())
            };
            let q_s = q.slice_rows(rows.start, rows.end);
            for h in 0..config.n_heads {
                let q_h = q_s.slice_cols(h * head, (h + 1) * head);
                let (shared, meta, kv) = (Arc::clone(&self.shared), meta.clone(), Arc::clone(kv));
                tiles.push(move || {
                    shared.prefill_tile(layer_idx, &meta, h / gqa, first_pos, q_h, &kv[h / gqa])
                });
            }
        }
        let pairs: usize = metas
            .iter()
            .map(|meta| meta.visible_pairs(final_row_only))
            .sum();
        let outputs = if fork_attention(pairs * config.hidden_dim) {
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

    /// Runs one decode step for a whole batch of independent requests.
    ///
    /// Every slot's token is embedded into one hidden-state matrix (one row
    /// per request) so the weight-streaming work — the QKV projections, the
    /// MLP and the LM head, which dominate decode cost — is paid once per
    /// *batch* rather than once per request. Attention stays per-request,
    /// since each request owns its cache, and RoPE is applied per row at
    /// each request's own position. Row `i` of the batch goes through
    /// exactly the same row-wise arithmetic as a lone
    /// [`InferenceEngine::decode_step`] call — requests never share state —
    /// so batching never changes any request's logits: batched serving is
    /// bit-identical to sequential serving.
    ///
    /// Attention is one list of (request, KV-head) units per layer, in
    /// request-major order. A unit's cache entry moves out of its request's
    /// cache for the layer (an O(1) move) together with the token's position,
    /// the query rows of the heads sharing that KV head and the KV head's
    /// key and value slices. When the round's QK work, `Σ(pos + 1) ·
    /// hidden_dim` multiply-adds per layer, clears the engine's attention
    /// fork gate (128 Ki, measured on Cocktail-compressed caches, shared
    /// with [`InferenceEngine::prefill_batch`]), the list is
    /// cut by [`kernel_parallel::tile_ranges`] into `kernel_threads()`
    /// contiguous jobs on [`kernel_parallel::run_jobs`], so even a lone
    /// request's heads fill every kernel thread; below the gate it runs
    /// inline as one job. The caller's thread streams the QKV/MLP weights
    /// for the whole batch in between. Unit outputs are stitched in (request,
    /// head) order, so the output is bit-identical at every thread count.
    /// Error or not, every entry is back in its slot when this returns, and
    /// a panic inside a job is caught there and returned as
    /// [`ModelError::Numeric`].
    ///
    /// A decode job must never fork: the job would wait on the pool it runs
    /// on. Jobs call only `append_decode_token` and `attend`, and neither
    /// dispatches to the pool; any change to the per-unit attention must
    /// keep it so.
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
        let qk_work: usize =
            slots.iter().map(|slot| slot.pos + 1).sum::<usize>() * config.hidden_dim;
        let jobs = if fork_attention(qk_work) {
            kernel_parallel::kernel_threads()
        } else {
            1
        };
        for (layer_idx, layer) in self.shared.weights.layers.iter().enumerate() {
            let (q, k, v) = self.shared.layer_qkv(layer, &x, None)?;
            let attn = self.decode_layer_attention(layer_idx, slots, jobs, [&q, &k, &v])?;
            self.shared.finish_layer(layer, &mut x, vec![attn])?;
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

    /// One decode layer's attention rows, one per slot: the layer's
    /// (request, KV-head) units cut into `jobs` contiguous
    /// [`kernel_parallel::run_jobs`] jobs. Every job hands its units back,
    /// and every entry is set back into its slot before the first error, if
    /// any, returns.
    fn decode_layer_attention(
        &self,
        layer_idx: usize,
        slots: &mut [DecodeSlot<'_>],
        jobs: usize,
        [q, k, v]: [&Matrix; 3],
    ) -> Result<Matrix, ModelError> {
        let config = &self.shared.config;
        let head = config.head_dim();
        let q_width = config.gqa_group_size() * head;
        let mut units = Vec::with_capacity(slots.len() * config.n_kv_heads);
        for (i, slot) in slots.iter_mut().enumerate() {
            for j in 0..config.n_kv_heads {
                units.push(DecodeUnit {
                    entry: slot.cache.take(layer_idx, j),
                    kv_head: j,
                    pos: slot.pos,
                    q: q.row(i)[j * q_width..(j + 1) * q_width].to_vec(),
                    k: k.row(i)[j * head..(j + 1) * head].to_vec(),
                    v: v.row(i)[j * head..(j + 1) * head].to_vec(),
                });
            }
        }
        let mut remaining = units.into_iter();
        let jobs: Vec<_> = kernel_parallel::tile_ranges(remaining.len(), jobs)
            .into_iter()
            .map(|(start, end)| {
                let mut units: Vec<DecodeUnit> = remaining.by_ref().take(end - start).collect();
                let shared = Arc::clone(&self.shared);
                move || {
                    let attention = panic::catch_unwind(AssertUnwindSafe(|| {
                        units
                            .iter_mut()
                            .map(|unit| shared.unit_attention(layer_idx, unit))
                            .collect::<Result<Vec<Matrix>, ModelError>>()
                    }))
                    .unwrap_or_else(|_| {
                        Err(ModelError::Numeric(format!(
                            "decode job for units {start}..{end} of layer {layer_idx} panicked"
                        )))
                    });
                    (attention, units)
                }
            })
            .collect();

        let mut index = 0;
        let attention: Vec<_> = kernel_parallel::run_jobs(jobs)
            .into_iter()
            .map(|(attention, units)| {
                for unit in units {
                    if let Some(entry) = unit.entry {
                        let slot = &mut slots[index / config.n_kv_heads];
                        slot.cache.set(layer_idx, unit.kv_head, entry);
                    }
                    index += 1;
                }
                attention
            })
            .collect();
        let blocks = attention.into_iter().collect::<Result<Vec<_>, _>>()?;
        let out: Vec<f32> = blocks
            .iter()
            .flatten()
            .flat_map(Matrix::as_slice)
            .copied()
            .collect();
        Matrix::from_vec(slots.len(), config.hidden_dim, out).map_err(ModelError::from)
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
    use cocktail_kvcache::{ChunkPermutation, ChunkSegmentation};
    use cocktail_quant::{Bitwidth, QuantAxis};
    use cocktail_tensor::rng;

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

    /// A whole single-slot prefill through [`materialised_slot_attention`],
    /// carrying every row through every layer.
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
            let (q, k, v) = shared.layer_qkv(layer, &x, None).unwrap();
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
        }
    }

    fn prefill_one(engine: &InferenceEngine, slot: PrefillSlot<'_>) -> BatchPrefill {
        engine.prefill_batch(&[slot]).unwrap().pop().unwrap()
    }

    fn cold_prefill(engine: &InferenceEngine, tokens: &[u32]) -> BatchPrefill {
        prefill_one(engine, PrefillSlot::cold(tokens))
    }

    /// Rows of the first KV tensor of a `[layer][kv_head]` set (every
    /// tensor in it has the same rows).
    fn kv_rows(kv: &[Vec<RawKv>]) -> usize {
        kv.first()
            .and_then(|heads| heads.first())
            .map_or(0, |raw| raw.k.rows())
    }

    /// A cold prefill's rows, every one of them (query included), in FP16
    /// chunks of `chunk_size` tokens: a decode state for engine tests. The
    /// request path chunks only the context (`build_context_cache` in
    /// `cocktail_core::serving`).
    fn segmented_cache(prefill: &BatchPrefill, chunk_size: usize) -> ChunkedKvCache {
        let seg = ChunkSegmentation::new(kv_rows(&prefill.suffix_kv), chunk_size).unwrap();
        let heads = prefill.suffix_kv.first().map_or(0, Vec::len);
        let mut cache = ChunkedKvCache::new(prefill.suffix_kv.len(), heads);
        for (layer, heads) in prefill.suffix_kv.iter().enumerate() {
            for (head, raw) in heads.iter().enumerate() {
                let entry = ChunkedLayerCache::from_prefill(&raw.k, &raw.v, &seg).unwrap();
                cache.set(layer, head, entry);
            }
        }
        cache
    }

    /// Every bit a prefill hands on, piece by piece: each layer's and KV
    /// head's K then V rows from `from_row` on, then the next-token logits.
    fn handed_on(kv: &[Vec<RawKv>], from_row: usize, logits: &[f32]) -> Vec<Vec<u32>> {
        let bits = |m: &Matrix| -> Vec<u32> {
            m.as_slice()[from_row * m.cols()..]
                .iter()
                .map(|x| x.to_bits())
                .collect()
        };
        let mut pieces: Vec<Vec<u32>> = kv
            .iter()
            .flatten()
            .flat_map(|raw| [bits(&raw.k), bits(&raw.v)])
            .collect();
        pieces.push(logits.iter().map(|x| x.to_bits()).collect());
        pieces
    }

    /// [`handed_on`] of a batch slot's whole output.
    fn slot_bits(prefill: &BatchPrefill) -> Vec<Vec<u32>> {
        handed_on(&prefill.suffix_kv, 0, &prefill.last_logits)
    }

    /// Asserts two [`handed_on`] lists are equal, naming the first piece
    /// that differs instead of printing both.
    #[track_caller]
    fn assert_same_bits(a: &[Vec<u32>], b: &[Vec<u32>], context: &str) {
        assert_eq!(a.len(), b.len(), "{context}: piece count");
        if let Some(piece) = (0..a.len()).find(|&i| a[i] != b[i]) {
            let what = if piece + 1 == a.len() {
                "the logits".to_string()
            } else {
                format!("K/V tensor {piece} (layer-major, K before V)")
            };
            panic!("{context}: {what} differ");
        }
    }

    #[test]
    fn tiled_prefill_is_bit_identical_to_inline_prefill() {
        // A prompt large enough that the dispatch gate sends the tiles to
        // the kernel pool (96·97/2 pairs × hidden 32 ≫ the threshold), run
        // under kernel-thread overrides of 1 (inline) and 4 (pool).
        let engine = tiny_engine();
        let prompt = sample_prompt(&engine, 96);
        kernel_parallel::set_kernel_thread_override(Some(1));
        let scalar = cold_prefill(&engine, &prompt);
        kernel_parallel::set_kernel_thread_override(Some(4));
        let parallel = cold_prefill(&engine, &prompt);
        kernel_parallel::set_kernel_thread_override(None);
        assert_eq!(scalar, parallel);
    }

    #[test]
    fn long_cold_prefill_equals_the_materialised_reference() {
        let engine = long_context_engine();
        let prompt = cyclic_prompt(&engine, 2048, 0);
        let streamed = prefill_one(&engine, PrefillSlot::cold(&prompt));
        let reference = materialised_prefill(&engine, &PrefillSlot::cold(&prompt));
        assert_same_bits(&slot_bits(&streamed), &slot_bits(&reference), "2048 cold");
    }

    #[test]
    fn prefill_hands_on_the_full_depth_kv_and_logits() {
        // `prefill_batch` carries only each slot's final row past the last
        // layer's K/V; `materialised_prefill` carries every row through
        // every layer. What both hand on must be the same bits.
        let engine = tiny_engine();
        let prompt = cyclic_prompt(&engine, 40, 4);
        let short = cyclic_prompt(&engine, 9, 5);
        let one_token = [prompt[0]];
        let cold = cold_prefill(&engine, &prompt);
        let all_but_one = prefix_blocks_from_prefill(&engine, &cold, prompt.len() - 1);
        let half = prefix_blocks_from_prefill(&engine, &cold, 17);
        let singles = [
            ("cold", PrefillSlot::cold(&prompt)),
            (
                "1-row suffix",
                PrefillSlot::with_prefix(&prompt, &all_but_one, prompt.len() - 1),
            ),
            ("1-token prompt", PrefillSlot::cold(&one_token)),
        ];
        for (name, slot) in &singles {
            let got = slot_bits(&prefill_one(&engine, slot.clone()));
            assert_same_bits(&got, &slot_bits(&materialised_prefill(&engine, slot)), name);
        }
        let batch = [
            PrefillSlot::cold(&short),
            PrefillSlot::with_prefix(&prompt, &half, 17),
            PrefillSlot::cold(&one_token),
            PrefillSlot::cold(&prompt),
        ];
        let outputs = engine.prefill_batch(&batch).unwrap();
        for (i, (got, slot)) in outputs.iter().zip(&batch).enumerate() {
            let reference = slot_bits(&materialised_prefill(&engine, slot));
            assert_same_bits(&slot_bits(got), &reference, &format!("batch slot {i}"));
        }

        // GQA, three slots long enough that even the last layer's one-row
        // tiles (one query row per slot) clear the fork gate together and
        // run on the kernel pool at 4 threads.
        let engine = InferenceEngine::new(ModelProfile::mistral_7b_sim()).unwrap();
        let long = [(700, 6), (690, 7), (710, 8)].map(|(n, salt)| cyclic_prompt(&engine, n, salt));
        assert!((700 + 690 + 710) * engine.config().hidden_dim >= ATTENTION_FORK_WORK);
        let slots: Vec<PrefillSlot<'_>> = long.iter().map(|p| PrefillSlot::cold(p)).collect();
        let references: Vec<Vec<Vec<u32>>> = slots
            .iter()
            .map(|slot| slot_bits(&materialised_prefill(&engine, slot)))
            .collect();
        for threads in [1usize, 4] {
            kernel_parallel::set_kernel_thread_override(Some(threads));
            let outputs = engine.prefill_batch(&slots).unwrap();
            kernel_parallel::set_kernel_thread_override(None);
            for (i, (got, reference)) in outputs.iter().zip(&references).enumerate() {
                let context = format!("GQA slot {i}, {threads} threads");
                assert_same_bits(&slot_bits(got), reference, &context);
            }
        }
    }

    #[test]
    fn resumed_long_prefill_equals_cold_at_every_split_kind() {
        let engine = long_context_engine();
        let prompt = cyclic_prompt(&engine, 640, 1);
        let cold = cold_prefill(&engine, &prompt);
        // One token, one 32-token chunk, and everything but the last token.
        for prefix_len in [1usize, 32, prompt.len() - 1] {
            let shared = prefix_blocks_from_prefill(&engine, &cold, prefix_len);
            let slot = PrefillSlot::with_prefix(&prompt, &shared, prefix_len);
            let warm = slot_bits(&prefill_one(&engine, slot.clone()));
            let context = format!("prefix {prefix_len}");
            let reference = slot_bits(&materialised_prefill(&engine, &slot));
            assert_same_bits(&warm, &reference, &context);
            let cold_rows = handed_on(&cold.suffix_kv, prefix_len, &cold.last_logits);
            assert_same_bits(&cold_rows, &warm, &context);
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
                let half = cold_prefill(&engine, &p[..p.len() / 2]);
                prefix_blocks_from_prefill(&engine, &half, p.len() / 2)
            })
            .collect();
        let cold: Vec<PrefillSlot<'_>> = prompts.iter().map(|p| PrefillSlot::cold(p)).collect();
        let warm: Vec<PrefillSlot<'_>> = prompts
            .iter()
            .zip(&prefixes)
            .map(|(p, kv)| PrefillSlot::with_prefix(p, kv, p.len() / 2))
            .collect();
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
                assert_eq!(batched.len(), singles.len());
                for (i, (got, single)) in batched.iter().zip(&singles).enumerate() {
                    let context = format!("threads {threads} slot {i}");
                    assert_same_bits(&slot_bits(got), &slot_bits(single), &context);
                }
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
        let cold_rows = handed_on(&cold_long.suffix_kv, 1024, &cold_long.last_logits);
        assert_same_bits(&cold_rows, &slot_bits(&warm_long), "long slot, warm");
    }

    #[test]
    fn gqa_prefill_tiles_read_their_own_kv_head() {
        // 8 query heads over 2 KV heads: tile `h` must read KV head `h / 4`.
        let engine = InferenceEngine::new(ModelProfile::mistral_7b_sim()).unwrap();
        assert_eq!(engine.config().gqa_group_size(), 4);
        let prompt = cyclic_prompt(&engine, 160, 2);
        let reference = slot_bits(&materialised_prefill(&engine, &PrefillSlot::cold(&prompt)));
        for threads in [1usize, 4] {
            kernel_parallel::set_kernel_thread_override(Some(threads));
            let cold = prefill_one(&engine, PrefillSlot::cold(&prompt));
            kernel_parallel::set_kernel_thread_override(None);
            assert_same_bits(&slot_bits(&cold), &reference, &format!("threads {threads}"));
        }
        let cold = cold_prefill(&engine, &prompt);
        let shared = prefix_blocks_from_prefill(&engine, &cold, 100);
        let slot = PrefillSlot::with_prefix(&prompt, &shared, 100);
        let warm = slot_bits(&prefill_one(&engine, slot.clone()));
        let warm_reference = slot_bits(&materialised_prefill(&engine, &slot));
        assert_same_bits(&warm, &warm_reference, "warm");
        let cold_rows = handed_on(&cold.suffix_kv, 100, &cold.last_logits);
        assert_same_bits(&cold_rows, &warm, "warm against cold");
    }

    #[test]
    fn prefill_produces_kv_of_expected_shapes() {
        let engine = tiny_engine();
        let prompt = sample_prompt(&engine, 12);
        let out = cold_prefill(&engine, &prompt);
        assert_eq!(out.suffix_kv.len(), engine.config().n_layers);
        assert_eq!(out.suffix_kv[0].len(), engine.config().n_kv_heads);
        for raw in out.suffix_kv.iter().flatten() {
            assert_eq!(raw.k.shape(), (12, engine.config().head_dim()));
            assert_eq!(raw.v.shape(), (12, engine.config().head_dim()));
        }
        assert_eq!(kv_rows(&out.suffix_kv), 12);
        assert_eq!(out.last_logits.len(), engine.config().vocab_size);
        assert!(out.last_logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn prefill_rejects_empty_and_oversized_prompts() {
        let engine = tiny_engine();
        assert!(engine.prefill_batch(&[PrefillSlot::cold(&[])]).is_err());
        let too_long = vec![2u32; engine.config().max_context + 1];
        assert!(engine
            .prefill_batch(&[PrefillSlot::cold(&too_long)])
            .is_err());
    }

    #[test]
    fn prefill_rejects_out_of_vocab_tokens() {
        let engine = tiny_engine();
        let bad = vec![engine.config().vocab_size as u32 + 5];
        assert!(engine.prefill_batch(&[PrefillSlot::cold(&bad)]).is_err());
    }

    #[test]
    fn prefill_is_deterministic() {
        let engine = tiny_engine();
        let prompt = sample_prompt(&engine, 8);
        let a = cold_prefill(&engine, &prompt);
        let b = cold_prefill(&engine, &prompt);
        assert_eq!(a.last_logits, b.last_logits);
        assert_eq!(a.suffix_kv[0][0].k, b.suffix_kv[0][0].k);
    }

    #[test]
    fn prefill_is_causal() {
        // Every layer's K/V of the first tokens must not change, by a single
        // bit, when more tokens are appended to the prompt.
        let engine = tiny_engine();
        let long = sample_prompt(&engine, 10);
        let short = long[..6].to_vec();
        let out_short = cold_prefill(&engine, &short);
        let out_long = cold_prefill(&engine, &long);
        let leading: Vec<Vec<RawKv>> = out_long
            .suffix_kv
            .iter()
            .map(|heads| {
                heads
                    .iter()
                    .map(|raw| RawKv {
                        k: raw.k.slice_rows(0, 6),
                        v: raw.v.slice_rows(0, 6),
                    })
                    .collect()
            })
            .collect();
        let short_kv = handed_on(&out_short.suffix_kv, 0, &[]);
        assert_same_bits(
            &short_kv,
            &handed_on(&leading, 0, &[]),
            "causality violated",
        );
    }

    #[test]
    fn decode_step_appends_to_cache_and_returns_valid_token() {
        let engine = tiny_engine();
        let prompt = sample_prompt(&engine, 8);
        let prefill = cold_prefill(&engine, &prompt);
        let mut cache = segmented_cache(&prefill, 4);
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
        let prefill = cold_prefill(&engine, &prompt);

        let mut fp16_cache = segmented_cache(&prefill, 4);
        let fp16_step = engine
            .decode_step(5, prompt.len(), &mut fp16_cache)
            .unwrap();

        let mut int8_cache = segmented_cache(&prefill, 4);
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

    /// Decodes `rounds` greedy steps of every prompt alone through
    /// `decode_step`, then as one batch through `decode_step_batch` under
    /// kernel-thread overrides of 1 (one inline job) and 2 and 4 (forked
    /// jobs of (request, KV-head) units, when the round clears the gate),
    /// and asserts the logits, next tokens and whole caches agree.
    fn assert_batched_decode_matches_solo(
        engine: &InferenceEngine,
        prompts: &[Vec<u32>],
        chunk_size: usize,
        rounds: usize,
    ) {
        let prefills: Vec<BatchPrefill> = prompts.iter().map(|p| cold_prefill(engine, p)).collect();
        let fresh_caches = || -> Vec<ChunkedKvCache> {
            prefills
                .iter()
                .map(|p| segmented_cache(p, chunk_size))
                .collect()
        };
        let mut solo_caches = fresh_caches();
        let mut solo_tokens: Vec<u32> = prefills.iter().map(BatchPrefill::next_token).collect();
        let solo_rounds: Vec<Vec<DecodeStep>> = (0..rounds)
            .map(|round| {
                solo_caches
                    .iter_mut()
                    .zip(&prefills)
                    .zip(&mut solo_tokens)
                    .map(|((cache, prefill), token)| {
                        let pos = kv_rows(&prefill.suffix_kv) + round;
                        let step = engine.decode_step(*token, pos, cache).unwrap();
                        *token = step.next_token;
                        step
                    })
                    .collect()
            })
            .collect();

        let mut kernel_spawns = None;
        for threads in [1usize, 2, 4] {
            kernel_parallel::set_kernel_thread_override(Some(threads));
            let mut caches = fresh_caches();
            let mut tokens: Vec<u32> = prefills.iter().map(BatchPrefill::next_token).collect();
            for (round, solo_round) in solo_rounds.iter().enumerate() {
                let mut slots: Vec<DecodeSlot<'_>> = caches
                    .iter_mut()
                    .zip(&prefills)
                    .zip(&tokens)
                    .map(|((cache, prefill), &token)| DecodeSlot {
                        token,
                        pos: kv_rows(&prefill.suffix_kv) + round,
                        cache,
                    })
                    .collect();
                let steps = engine.decode_step_batch(&mut slots).unwrap();
                let compared = steps.iter().zip(solo_round).zip(&mut tokens);
                for (i, ((step, solo), token)) in compared.enumerate() {
                    let context = format!("threads {threads} round {round} request {i}");
                    assert_eq!(step.logits, solo.logits, "{context}: logits diverged");
                    assert_eq!(step.next_token, solo.next_token, "{context}");
                    *token = step.next_token;
                }
                if threads > 1 {
                    // The kernel pool spawns on its first dispatch only.
                    let spawned = kernel_parallel::pool_spawn_count();
                    assert_eq!(*kernel_spawns.get_or_insert(spawned), spawned);
                }
            }
            kernel_parallel::set_kernel_thread_override(None);
            assert_eq!(caches, solo_caches, "threads {threads}: caches diverged");
        }
    }

    #[test]
    fn batched_decode_is_bit_identical_to_sequential_decode() {
        let engine = tiny_engine();
        let prompts: Vec<Vec<u32>> = (0..3).map(|i| sample_prompt(&engine, 8 + 3 * i)).collect();
        assert_batched_decode_matches_solo(&engine, &prompts, 4, 3);

        let engine = long_context_engine();
        let prompts: Vec<Vec<u32>> = [2048usize, 1536, 768]
            .iter()
            .enumerate()
            .map(|(i, &n)| cyclic_prompt(&engine, n, i as u32))
            .collect();
        assert_forks(&engine, prompts.iter().map(Vec::len));
        assert_batched_decode_matches_solo(&engine, &prompts, 32, 3);
    }

    /// Quantizes every slot's chunks to a repeating INT2/FP16/INT4 mix in
    /// groups of 16 and reorders them into same-bitwidth runs, the shape a
    /// Cocktail policy leaves a cache in.
    fn mix_bitwidths(cache: &mut ChunkedKvCache) {
        const WIDTHS: [Bitwidth; 3] = [Bitwidth::Int2, Bitwidth::Fp16, Bitwidth::Int4];
        cache
            .try_for_each_mut(|_, _, layer| {
                let widths: Vec<Bitwidth> =
                    (0..layer.chunk_count()).map(|i| WIDTHS[i % 3]).collect();
                for (i, &bitwidth) in widths.iter().enumerate() {
                    layer.quantize_chunk(i, bitwidth, 16)?;
                }
                let keys: Vec<u32> = widths.iter().map(|b| b.bits()).collect();
                layer.reorder(&ChunkPermutation::stable_sort_by_key(&keys))
            })
            .unwrap();
    }

    /// A mixed-precision cache of `tokens` seeded K/V rows in 32-token
    /// chunks for every (layer, KV head) of `engine`: a long request's
    /// decode state without the cost of its prefill.
    fn seeded_mixed_cache(engine: &InferenceEngine, tokens: usize, seed: u64) -> ChunkedKvCache {
        let config = engine.config();
        let seg = ChunkSegmentation::new(tokens, 32).unwrap();
        let mut cache = ChunkedKvCache::new(config.n_layers, config.n_kv_heads);
        for layer in 0..config.n_layers {
            for head in 0..config.n_kv_heads {
                let seed = seed + 2 * (layer * config.n_kv_heads + head) as u64;
                let k = rng::gaussian_matrix(tokens, config.head_dim(), 1.0, seed);
                let v = rng::gaussian_matrix(tokens, config.head_dim(), 1.0, seed + 1);
                let entry = ChunkedLayerCache::from_prefill(&k, &v, &seg).unwrap();
                cache.set(layer, head, entry);
            }
        }
        mix_bitwidths(&mut cache);
        cache
    }

    /// The decode slots of one round over `caches`, each request's token
    /// at the position after its cached tokens.
    fn round_slots<'a>(caches: &'a mut [ChunkedKvCache], tokens: &[u32]) -> Vec<DecodeSlot<'a>> {
        caches
            .iter_mut()
            .zip(tokens)
            .map(|(cache, &token)| DecodeSlot {
                token,
                pos: cache.get(0, 0).unwrap().total_tokens(),
                cache,
            })
            .collect()
    }

    /// Asserts a round at `positions` clears the decode fork gate, so that
    /// more than one kernel thread splits its units over several jobs.
    #[track_caller]
    fn assert_forks(engine: &InferenceEngine, positions: impl IntoIterator<Item = usize>) {
        let qk_work: usize = positions.into_iter().map(|pos| pos + 1).sum();
        assert!(
            qk_work * engine.config().hidden_dim >= ATTENTION_FORK_WORK,
            "the round must clear the fork gate"
        );
    }

    /// Decodes `rounds` greedy rounds of one batch over copies of `caches`
    /// under kernel-thread overrides of 1, 2, 4 and 5, and asserts every
    /// round's tokens and logits and every final cache entry equal the
    /// one-thread run's.
    fn assert_decode_is_thread_count_invariant(
        engine: &InferenceEngine,
        caches: &[ChunkedKvCache],
        rounds: usize,
    ) {
        assert_forks(
            engine,
            caches.iter().map(|c| c.get(0, 0).unwrap().total_tokens()),
        );
        let run = |threads: usize| {
            kernel_parallel::set_kernel_thread_override(Some(threads));
            let mut caches = caches.to_vec();
            let mut tokens: Vec<u32> = (0..caches.len() as u32).map(|i| 3 + 5 * i).collect();
            let mut bits = Vec::new();
            for _ in 0..rounds {
                let mut slots = round_slots(&mut caches, &tokens);
                let steps = engine.decode_step_batch(&mut slots).unwrap();
                tokens = steps.iter().map(|step| step.next_token).collect();
                for step in steps {
                    let logits: Vec<u32> = step.logits.iter().map(|x| x.to_bits()).collect();
                    bits.push((step.next_token, logits));
                }
            }
            kernel_parallel::set_kernel_thread_override(None);
            (bits, caches)
        };
        let (reference, reference_caches) = run(1);
        for threads in [2usize, 4, 5] {
            let (bits, caches) = run(threads);
            assert!(
                bits == reference,
                "threads {threads}: tokens or logits diverged"
            );
            assert!(
                caches == reference_caches,
                "threads {threads}: caches diverged"
            );
        }
    }

    #[test]
    fn unit_decode_is_bit_identical_at_every_thread_count() {
        // A lone 2048-token request: four units per layer, two jobs of two
        // heads at two threads.
        let llama = InferenceEngine::new(ModelProfile::llama2_7b_sim()).unwrap();
        assert_decode_is_thread_count_invariant(&llama, &[seeded_mixed_cache(&llama, 2048, 1)], 2);
        // Two KV heads: one unit per job at two threads.
        let mistral = InferenceEngine::new(ModelProfile::mistral_7b_sim()).unwrap();
        assert_eq!(mistral.config().n_kv_heads, 2);
        let lone = [seeded_mixed_cache(&mistral, 2048, 2)];
        assert_decode_is_thread_count_invariant(&mistral, &lone, 2);
        // Three requests, twelve units: jobs straddle requests at 2 and 4
        // threads and differ in length (3/3/2/2/2) at 5.
        let caches: Vec<ChunkedKvCache> = [1536usize, 512, 100]
            .iter()
            .zip(10u64..)
            .map(|(&tokens, seed)| seeded_mixed_cache(&llama, tokens, seed))
            .collect();
        assert_decode_is_thread_count_invariant(&llama, &caches, 2);
    }

    #[test]
    fn failed_forked_decode_returns_every_cache_to_its_slot() {
        // Contexts long enough that the round forks. One entry a column too
        // wide makes `append_decode_token` fail inside its job: in a b3
        // batch, the middle request's first head of the last layer (in the
        // first job at two threads, the second at four); in a b1 request,
        // its last KV head (in the second job at two threads).
        let engine = InferenceEngine::new(ModelProfile::llama2_7b_sim()).unwrap();
        let config = engine.config().clone();
        let wide = Matrix::zeros(4, config.head_dim() + 1);
        let seg = ChunkSegmentation::new(4, 4).unwrap();
        let bad = ChunkedLayerCache::from_prefill(&wide, &wide, &seg).unwrap();
        let last_layer = config.n_layers - 1;
        let cases = [
            (vec![700usize, 700, 700], 1, (last_layer, 0)),
            (vec![2048], 0, (last_layer, config.n_kv_heads - 1)),
        ];
        for (lengths, bad_slot, (layer, head)) in cases {
            assert_forks(&engine, lengths.iter().copied());
            for threads in [2usize, 4] {
                let mut caches: Vec<ChunkedKvCache> = lengths
                    .iter()
                    .zip(20u64..)
                    .map(|(&tokens, seed)| seeded_mixed_cache(&engine, tokens, seed))
                    .collect();
                caches[bad_slot].set(layer, head, bad.clone());
                let tokens = vec![3; caches.len()];
                kernel_parallel::set_kernel_thread_override(Some(threads));
                let result = engine.decode_step_batch(&mut round_slots(&mut caches, &tokens));
                kernel_parallel::set_kernel_thread_override(None);
                let context = format!("b{} at {threads} threads", lengths.len());
                assert!(
                    result.is_err(),
                    "{context}: a too-wide entry must fail the batch"
                );
                for (i, cache) in caches.iter().enumerate() {
                    for (l, h) in (0..config.n_layers)
                        .flat_map(|l| (0..config.n_kv_heads).map(move |h| (l, h)))
                    {
                        assert!(
                            cache.get(l, h).is_some(),
                            "{context}: slot {i} lost entry ({l}, {h})"
                        );
                    }
                }
                assert_eq!(caches[bad_slot].get(layer, head), Some(&bad), "{context}");
            }
        }
    }

    fn prefix_blocks_from_prefill(
        engine: &InferenceEngine,
        prefill: &BatchPrefill,
        prefix_len: usize,
    ) -> SharedPrefixKv {
        let mut blocks = Vec::new();
        for heads in &prefill.suffix_kv {
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
        let sequential: Vec<BatchPrefill> =
            prompts.iter().map(|p| cold_prefill(&engine, p)).collect();
        let slots: Vec<PrefillSlot<'_>> = prompts.iter().map(|p| PrefillSlot::cold(p)).collect();
        let batched = engine.prefill_batch(&slots).unwrap();
        for ((seq, batch), prompt) in sequential.iter().zip(&batched).zip(&prompts) {
            assert_eq!(batch.prefix_len, 0);
            assert_eq!(kv_rows(&batch.suffix_kv), prompt.len());
            let sequential_bits = handed_on(&seq.suffix_kv, 0, &seq.last_logits);
            assert_same_bits(&sequential_bits, &slot_bits(batch), "batched slot");
        }
    }

    #[test]
    fn prefix_reusing_prefill_is_bit_identical_to_cold_prefill() {
        let engine = tiny_engine();
        let full = sample_prompt(&engine, 14);
        let cold = cold_prefill(&engine, &full);
        for prefix_len in [1usize, 5, 8, 13] {
            let shared = prefix_blocks_from_prefill(&engine, &cold, prefix_len);
            let warm = engine
                .prefill_batch(&[PrefillSlot::with_prefix(&full, &shared, prefix_len)])
                .unwrap()
                .pop()
                .unwrap();
            assert_eq!(warm.prefix_len, prefix_len);
            assert_eq!(kv_rows(&warm.suffix_kv), full.len() - prefix_len);
            let cold_rows = handed_on(&cold.suffix_kv, prefix_len, &cold.last_logits);
            assert_same_bits(
                &cold_rows,
                &slot_bits(&warm),
                &format!("prefix {prefix_len}"),
            );
        }
    }

    #[test]
    fn mixed_cold_and_warm_prefill_batch_matches_singles() {
        let engine = tiny_engine();
        let shared_full = sample_prompt(&engine, 12);
        let cold_prefill = cold_prefill(&engine, &shared_full);
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
        let prefill = cold_prefill(&engine, &prompt);
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

    /// The decode attention before the query heads of a KV head were
    /// grouped, kept as the reference: one `attend` call per query head.
    fn per_head_token_attention(
        shared: &EngineShared,
        layer_idx: usize,
        cache: &mut ChunkedKvCache,
        pos: usize,
        (q_row, k_row, v_row): (&Matrix, &Matrix, &Matrix),
    ) -> Matrix {
        let head = shared.config.head_dim();
        for j in 0..shared.config.n_kv_heads {
            let mut k_j = k_row.slice_cols(j * head, (j + 1) * head);
            rope_rows(&mut k_j, pos, shared.config.rope_theta);
            let v_j = v_row.slice_cols(j * head, (j + 1) * head);
            let entry = cache.get_mut(layer_idx, j).unwrap();
            entry.append_decode_token(k_j.row(0), v_j.row(0)).unwrap();
        }
        let head_outputs: Vec<Matrix> = (0..shared.config.n_heads)
            .map(|h| {
                let mut q_h = q_row.slice_cols(h * head, (h + 1) * head);
                rope_rows(&mut q_h, pos, shared.config.rope_theta);
                let entry = cache.get(layer_idx, h / shared.config.gqa_group_size());
                entry
                    .unwrap()
                    .attend(&q_h, shared.attention_scale())
                    .unwrap()
            })
            .collect();
        let head_refs: Vec<&Matrix> = head_outputs.iter().collect();
        Matrix::concat_cols(&head_refs).unwrap()
    }

    /// One single-request decode step through [`per_head_token_attention`];
    /// returns the logits.
    fn per_head_decode_step(
        engine: &InferenceEngine,
        token: u32,
        pos: usize,
        cache: &mut ChunkedKvCache,
    ) -> Vec<f32> {
        let shared = &engine.shared;
        let mut x = engine.embed(&[token]).unwrap();
        for (layer_idx, layer) in shared.weights.layers.iter().enumerate() {
            let (q, k, v) = shared.layer_qkv(layer, &x, None).unwrap();
            let attn = per_head_token_attention(shared, layer_idx, cache, pos, (&q, &k, &v));
            shared.finish_layer(layer, &mut x, vec![attn]).unwrap();
        }
        rms_norm_rows(&mut x, &shared.weights.final_norm, shared.config.rms_eps);
        x.matmul(&shared.weights.lm_head).unwrap().row(0).to_vec()
    }

    #[test]
    fn grouped_decode_attention_equals_the_per_head_reference() {
        // 8 query heads over 2 KV heads, decoding over a cache quantized to
        // mixed bitwidths and reordered into same-bitwidth runs.
        let engine = InferenceEngine::new(ModelProfile::mistral_7b_sim()).unwrap();
        assert_eq!(engine.config().gqa_group_size(), 4);
        let prompt = cyclic_prompt(&engine, 160, 3);
        let prefill = cold_prefill(&engine, &prompt);
        let mut cache = segmented_cache(&prefill, 16);
        mix_bitwidths(&mut cache);
        let mut reference_cache = cache.clone();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut token = prefill.next_token();
        for step in 0..4 {
            let pos = prompt.len() + step;
            let grouped = engine.decode_step(token, pos, &mut cache).unwrap();
            let reference = per_head_decode_step(&engine, token, pos, &mut reference_cache);
            assert_eq!(bits(&grouped.logits), bits(&reference), "step {step}");
            assert_eq!(cache, reference_cache, "step {step}");
            token = grouped.next_token;
        }
    }

    #[test]
    fn argmax_picks_largest() {
        assert_eq!(argmax(&[0.1, 3.0, -2.0]), 1);
        assert_eq!(argmax(&[-5.0]), 0);
    }
}
