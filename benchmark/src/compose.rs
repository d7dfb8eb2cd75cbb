//! A request re-composed from the layers' public functions, with a span
//! around every call into a layer.
//!
//! The product's own request path (`CocktailPipeline::run`, the serving
//! engine's admission) is private glue over these same calls; composing
//! them here lets the benchmark time each layer from outside. The
//! composed answer must equal the pipeline's byte for byte — the traced
//! run asserts it — so the spans describe the real computation.

use crate::span::Tracer;
use crate::workloads::Request;
use cocktail_core::reorder::apply_plan;
use cocktail_core::{ChunkQuantSearch, CocktailConfig, PrefixCache, PrefixCacheConfig};
use cocktail_kvcache::{
    ChunkSegmentation, ChunkedKvCache, ChunkedLayerCache, PrefixKvBlock, SharedPrefixKv,
};
use cocktail_model::{BatchPrefill, DecodeSlot, InferenceEngine, ModelProfile, PrefillSlot};
use cocktail_retrieval::chunking::chunk_words;
use cocktail_server::{http, StreamEvent};
use cocktail_tensor::Matrix;

/// What one composed request produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Composed {
    /// The decoded answer.
    pub answer: String,
    /// Tokens generated.
    pub tokens: usize,
    /// Prompt tokens (context + query).
    pub prompt_tokens: usize,
    /// Leading context tokens served from the trie.
    pub reused_tokens: usize,
    /// KV bytes after compression.
    pub cache_bytes: usize,
    /// KV bytes the request would need at FP16.
    pub fp16_cache_bytes: usize,
}

/// The layers one request passes through, owned so requests can be
/// composed back to back like an engine serving them.
pub struct Composer {
    engine: InferenceEngine,
    config: CocktailConfig,
    search: ChunkQuantSearch,
    prefix: PrefixCache,
    /// Trie bytes above which the composer evicts leaf-first, standing in
    /// for the scheduler's KV budget.
    trie_budget_bytes: usize,
}

impl Composer {
    /// A composer over a fresh engine, with a trie trimmed to
    /// `trie_budget_bytes`.
    pub fn new(profile: ModelProfile, prefix: PrefixCacheConfig, trie_budget_bytes: usize) -> Self {
        let config = CocktailConfig::default();
        Self {
            engine: InferenceEngine::new(profile).expect("benchmark model profile is valid"),
            search: ChunkQuantSearch::new(config.clone()),
            config,
            prefix: PrefixCache::new(prefix),
            trie_budget_bytes,
        }
    }

    /// Serves one request through the layers, recording a span per call.
    pub fn run(&mut self, tracer: &mut Tracer, id: usize, request: &Request) -> Composed {
        let root = tracer.enter("request", id);
        let tokenizer = self.engine.tokenizer();

        let span = tracer.enter("model.tokenize", id);
        let context_tokens = tokenizer.encode(&request.context);
        let query_tokens = tokenizer.encode(&request.query);
        let horizon = tokenizer.interned_words();
        tracer.exit(span);
        let mut prompt = context_tokens.clone();
        prompt.extend_from_slice(&query_tokens);
        tracer.count("prompt_tokens", prompt.len() as u64);

        let span = tracer.enter("core.prefix_lookup", id);
        let hit = self.prefix.lookup(&context_tokens);
        tracer.exit(span);
        let reused = hit.as_ref().map_or(0, |h| h.tokens());
        tracer.count("prefix_reused_tokens", reused as u64);

        let span = tracer.enter("model.prefill", id);
        let slot = match &hit {
            Some(hit) => PrefillSlot::with_prefix(&prompt, hit.kv(), hit.tokens()),
            None => PrefillSlot::cold(&prompt),
        };
        let prefill = self
            .engine
            .prefill_batch(&[slot])
            .expect("generated prompts are valid")
            .pop()
            .expect("batch of one yields one prefill");
        tracer.exit(span);
        tracer.count("prefilled_tokens", (prompt.len() - reused) as u64);

        let want_blocks = context_tokens.len() >= self.prefix.config().min_prefix_tokens
            && !self.prefix.covers(&context_tokens);
        let span = tracer.enter("kvcache.build", id);
        let (mut cache, blocks) = build_cache(
            &self.engine,
            self.config.chunk_size,
            hit.as_ref().map(|h| (h.kv(), h.tokens())),
            &prefill,
            context_tokens.len(),
            want_blocks,
        );
        tracer.exit(span);
        let fp16_cache_bytes = cache.total_fp16_reference_bytes();

        if let Some(blocks) = blocks {
            let span = tracer.enter("core.prefix_insert", id);
            self.prefix.insert(context_tokens.clone(), blocks);
            tracer.exit(span);
            if self.prefix.total_bytes() > self.trie_budget_bytes {
                let span = tracer.enter("core.prefix_evict", id);
                while self.prefix.total_bytes() > self.trie_budget_bytes {
                    if self.prefix.evict_lru_unpinned().is_none() {
                        break;
                    }
                    tracer.count("trie_evictions", 1);
                }
                tracer.exit(span);
            }
        }
        drop(hit);

        // Module I and II run only when the context fills a chunk.
        let chunk_texts = chunk_words(&request.context, self.config.chunk_size);
        if !chunk_texts.is_empty() {
            let span = tracer.enter("core.search", id);
            let plan = self
                .search
                .plan(&request.query, &chunk_texts)
                .expect("default configuration is valid");
            tracer.exit(span);
            tracer.count("chunks_scored", chunk_texts.len() as u64);

            let span = tracer.enter("core.reorder_quantize", id);
            cache
                .try_for_each_mut(|_, _, layer| {
                    apply_plan(
                        layer,
                        &plan,
                        self.config.group_size,
                        self.config.enable_reorder,
                    )
                })
                .expect("plan matches the cache it was made for");
            tracer.exit(span);
        }
        let cache_bytes = cache.total_storage_bytes();

        let span = tracer.enter("model.sample", id);
        let mut next_token = prefill.next_token();
        tracer.exit(span);

        let mut generated: Vec<u32> = Vec::with_capacity(request.max_new_tokens);
        let mut answer = String::new();
        let wire_id = format!("req-{id}");
        while generated.len() < request.max_new_tokens {
            let token = next_token;
            generated.push(token);

            let span = tracer.enter("core.render", id);
            let word = tokenizer.decode_with_horizon(&[token], horizon);
            let piece = if generated.len() <= 1 {
                word
            } else {
                format!(" {word}")
            };
            answer.push_str(&piece);
            tracer.exit(span);

            let span = tracer.enter("server.sse_encode", id);
            let event = StreamEvent::token(wire_id.clone(), generated.len() - 1, piece);
            let frame = http::chunk(http::sse_event(&event.to_json()).as_bytes());
            std::hint::black_box(frame);
            tracer.exit(span);

            if generated.len() == request.max_new_tokens {
                break;
            }
            let span = tracer.enter("model.decode_step", id);
            let mut slots = [DecodeSlot {
                token,
                pos: prompt.len() + generated.len() - 1,
                cache: &mut cache,
            }];
            let step = self
                .engine
                .decode_step_batch(&mut slots)
                .expect("cache matches the model")
                .pop()
                .expect("batch of one yields one step");
            tracer.exit(span);
            next_token = step.next_token;
        }
        tracer.count("generated_tokens", generated.len() as u64);
        tracer.exit(root);
        Composed {
            answer,
            tokens: generated.len(),
            prompt_tokens: prompt.len(),
            reused_tokens: reused,
            cache_bytes,
            fp16_cache_bytes,
        }
    }
}

/// Segments the prompt's KV into a chunked cache: the context rows —
/// the reused prefix read from the trie's blocks, the rest from the
/// prefill — become chunks, the query rows join the FP16 tail. With
/// `want_blocks` the raw context rows are also returned as shareable
/// trie blocks.
pub fn build_cache(
    engine: &InferenceEngine,
    chunk_size: usize,
    prefix: Option<(&SharedPrefixKv, usize)>,
    prefill: &BatchPrefill,
    context_len: usize,
    want_blocks: bool,
) -> (ChunkedKvCache, Option<SharedPrefixKv>) {
    let model = engine.config();
    let segmentation =
        ChunkSegmentation::new(context_len, chunk_size).expect("chunk size is nonzero");
    let reused = prefix.map_or(0, |(_, len)| len);
    let mut cache = ChunkedKvCache::new(model.n_layers, model.n_kv_heads);
    let mut blocks = Vec::new();
    for layer in 0..model.n_layers {
        for head in 0..model.n_kv_heads {
            let raw = &prefill.suffix_kv[layer][head];
            let computed = context_len - reused;
            let (k_context, v_context) = match prefix {
                Some((shared, len)) if len > 0 => {
                    let block = shared.block(layer, head);
                    let concat = |cached: &Matrix, fresh: &Matrix| {
                        Matrix::concat_rows(&[
                            &cached.slice_rows(0, len),
                            &fresh.slice_rows(0, computed),
                        ])
                        .expect("prefix and suffix share the head dimension")
                    };
                    (concat(block.k(), &raw.k), concat(block.v(), &raw.v))
                }
                _ => (
                    raw.k.slice_rows(0, context_len),
                    raw.v.slice_rows(0, context_len),
                ),
            };
            let mut layer_cache =
                ChunkedLayerCache::from_prefill(&k_context, &v_context, &segmentation)
                    .expect("context rows cover the segmentation");
            for row in computed..raw.k.rows() {
                layer_cache
                    .append_decode_token(raw.k.row(row), raw.v.row(row))
                    .expect("query rows have the head dimension");
            }
            cache.set(layer, head, layer_cache);
            if want_blocks {
                blocks.push(
                    PrefixKvBlock::new(k_context, v_context).expect("key and value rows agree"),
                );
            }
        }
    }
    let shared = want_blocks.then(|| {
        SharedPrefixKv::from_blocks(model.n_layers, model.n_kv_heads, blocks)
            .expect("one block per layer and head")
    });
    (cache, shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;
    use cocktail_core::CocktailPipeline;

    fn request(index: usize, context: String) -> Request {
        Request {
            index,
            context,
            query: "what is the override phrase ?".to_string(),
            max_new_tokens: 5,
            stream: true,
            arrival_step: 0,
        }
    }

    #[test]
    fn composed_layers_reproduce_the_pipeline_with_and_without_reuse() {
        let filler: Vec<String> = (0..40)
            .map(|i| format!("maintenance entry {i} lists routine checks of pumps and valves ."))
            .collect();
        let base = filler.join(" ");
        let requests = [
            request(0, format!("{base} the override phrase is silver heron .")),
            // Shares the first request's whole context, then extends it.
            request(
                1,
                format!("{base} the override phrase is silver heron . later notes add little ."),
            ),
            // Below one chunk: nothing to search or quantize.
            request(2, "a very short context of nine words only .".to_string()),
        ];
        let pipeline =
            CocktailPipeline::new(ModelProfile::tiny(), CocktailConfig::default()).unwrap();
        let mut composer = Composer::new(
            ModelProfile::tiny(),
            PrefixCacheConfig::default(),
            usize::MAX,
        );
        let mut tracer = Tracer::new(true);
        for request in &requests {
            let composed = composer.run(&mut tracer, request.index, request);
            let reference = pipeline
                .run(&request.context, &request.query, request.max_new_tokens)
                .unwrap();
            assert_eq!(
                composed.answer, reference.answer,
                "request {}",
                request.index
            );
            assert_eq!(composed.cache_bytes, reference.cache_bytes);
            assert_eq!(composed.fp16_cache_bytes, reference.fp16_cache_bytes);
            assert_eq!(composed.tokens, 5);
        }
        let counts = span::span_count_by_name(tracer.spans());
        assert_eq!(counts["request"], 3);
        // The short request contributes no Module I / II span.
        assert_eq!(counts["core.search"], 2);
        assert_eq!(counts["core.reorder_quantize"], 2);
        assert!(tracer.counts()["prefix_reused_tokens"] > 300);
        // Every span of a request hangs off that request's root.
        let total: u64 = span::self_times_ns(tracer.spans()).iter().sum();
        assert_eq!(total, span::root_time_ns(tracer.spans()));
    }
}
