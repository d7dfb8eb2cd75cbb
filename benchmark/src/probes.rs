//! The per-layer probes of the traced run: each times one public function
//! of one layer on the shapes `longctx_cold` produces (2048 context
//! tokens, head dimension 16, 32-token chunks, 4 layers x 4 KV heads) and
//! reports ns/op-style figures, or achieved GB/s / GFLOP/s beside the
//! host ceilings measured here on the same machine.

use crate::compose;
use crate::load;
use crate::workloads::{self, Request, Workload};
use cocktail_baselines::{
    AtomPolicy, CachePolicy, Fp16Policy, KiviPolicy, KvQuantPolicy, PolicyContext,
};
use cocktail_core::attention::grouped_attend;
use cocktail_core::reorder::{apply_plan, group_by_bitwidth};
use cocktail_core::{
    read_snapshot, write_snapshot, BatchScheduler, BitwidthPlan, ChunkQuantSearch, CocktailConfig,
    CocktailPolicy, PrefixCache, PrefixCacheConfig, PrefixFingerprintIndex, RequestId,
    RouterConfig, SamplerChain, SamplingParams, SchedulerConfig, ServingEngine,
};
use cocktail_hwsim::{AcceleratorSpec, DeploymentModel, KvCacheProfile, RequestShape};
use cocktail_kvcache::{ChunkSegmentation, ChunkedKvCache, ChunkedLayerCache, SharedPrefixKv};
use cocktail_model::{DecodeSlot, InferenceEngine, PrefillSlot};
use cocktail_quant::{parallel, Bitwidth, QuantAxis, QuantConfig};
use cocktail_retrieval::chunking::chunk_words;
use cocktail_server::http::{self, RequestParser};
use cocktail_server::{GatewayConfig, GatewayServer, GenerateRequest, StreamEvent};
use cocktail_tensor::{rng, Matrix};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A per-layer measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `layer.what[.variant]`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

const CONTEXT_TOKENS: usize = 2048;
const HEAD_DIM: usize = 16;
const CHUNK: usize = 32;
const GROUP: usize = 32;

/// Median microseconds per call of `f`: five batches, each sized from a
/// first (warm-up) call to last about a fifth of `budget`.
fn time_us<T>(budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    let first = start.elapsed().max(Duration::from_nanos(50));
    let iters = ((budget.as_secs_f64() / 5.0 / first.as_secs_f64()) as usize).clamp(1, 200_000);
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[2]
}

/// Median microseconds of `run` over `reps` calls, each on a fresh value
/// from `setup` (whose cost is not timed).
fn time_with_setup_us<S, T>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> T,
) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            black_box(run(input));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

const SHORT: Duration = Duration::from_millis(40);

/// Stream-copy bandwidth and scalar multiply-add rate of this host: the
/// ceilings the kernel figures are read against.
pub fn host_ceilings() -> (f64, f64) {
    // 64 MiB: well past the last-level cache.
    let src = vec![1u8; 64 << 20];
    let mut dst = vec![0u8; 64 << 20];
    let copy_us = time_us(Duration::from_millis(150), || {
        dst.copy_from_slice(black_box(&src));
        dst[0]
    });
    let memcpy_gbs = src.len() as f64 / copy_us / 1e3;

    const STEPS: usize = 1 << 20;
    let fma_us = time_us(Duration::from_millis(100), || {
        // Eight independent chains keep the multiply-add pipeline full.
        let mut acc = [1.0f32; 8];
        let (a, b) = (black_box(1.000_000_1f32), black_box(1e-7f32));
        for _ in 0..STEPS {
            for lane in &mut acc {
                *lane = *lane * a + b;
            }
        }
        acc.iter().sum::<f32>()
    });
    let fma_gflops = (STEPS * 8 * 2) as f64 / fma_us / 1e3;
    (memcpy_gbs, fma_gflops)
}

fn gaussian(rows: usize, cols: usize, seed: u64) -> Matrix {
    rng::gaussian_matrix(rows, cols, 1.0, seed)
}

/// `tensor` and `quant`: the kernels under everything else.
fn kernel_probes(out: &mut Vec<Metric>) {
    // The MLP up-projection of a 2048-token prefill.
    let (x, w) = (gaussian(CONTEXT_TOKENS, 64, 1), gaussian(64, 176, 2));
    let us = time_us(Duration::from_millis(100), || {
        x.matmul(&w).expect("shapes agree")
    });
    out.push(metric(
        "tensor.matmul_gflops",
        (2 * CONTEXT_TOKENS * 64 * 176) as f64 / us / 1e3,
        "GFLOP/s",
    ));

    let chunk_k = gaussian(CHUNK, HEAD_DIM, 3);
    let query = gaussian(1, HEAD_DIM, 4);
    let probs = gaussian(1, CHUNK, 5);
    let chunk_bytes = (CHUNK * HEAD_DIM * 4) as f64;
    for (bitwidth, label) in [(Bitwidth::Int4, "int4"), (Bitwidth::Int2, "int2")] {
        let config =
            QuantConfig::new(bitwidth, QuantAxis::PerToken, GROUP).expect("integer bitwidth");
        let us = time_us(SHORT, || parallel::quantize(&chunk_k, &config));
        out.push(metric(
            format!("quant.quantize_gbs.{label}"),
            chunk_bytes / us / 1e3,
            "GB/s",
        ));
        let quantized = parallel::quantize(&chunk_k, &config).expect("chunk quantizes");
        let us = time_us(SHORT, || parallel::dequantize(&quantized));
        out.push(metric(
            format!("quant.dequantize_gbs.{label}"),
            chunk_bytes / us / 1e3,
            "GB/s",
        ));
        let flops = (2 * HEAD_DIM * CHUNK) as f64;
        let us = time_us(SHORT, || {
            parallel::fp_matmul_quant_transposed(&query, &quantized)
        });
        out.push(metric(
            format!("quant.gemm_qk_gflops.{label}"),
            flops / us / 1e3,
            "GFLOP/s",
        ));
        let us = time_us(SHORT, || parallel::fp_matmul_quant(&probs, &quantized));
        out.push(metric(
            format!("quant.gemm_av_gflops.{label}"),
            flops / us / 1e3,
            "GFLOP/s",
        ));
    }

    // The one decode-side shape above the dispatcher's threshold: scores of
    // a whole prompt's queries against its quantized keys.
    let queries = gaussian(1024, HEAD_DIM, 6);
    let keys = parallel::quantize(
        &gaussian(CONTEXT_TOKENS, HEAD_DIM, 7),
        &QuantConfig::new(Bitwidth::Int4, QuantAxis::PerToken, GROUP).expect("integer bitwidth"),
    )
    .expect("keys quantize");
    let scores = |threads| {
        time_us(Duration::from_millis(120), || {
            parallel::fp_matmul_quant_transposed_with_threads(&queries, &keys, threads)
        })
    };
    out.push(metric(
        "quant.parallel_speedup_x",
        scores(1) / scores(parallel::kernel_threads()),
        "x",
    ));
}

fn layer_cache(seed: u64) -> ChunkedLayerCache {
    let segmentation = ChunkSegmentation::new(CONTEXT_TOKENS, CHUNK).expect("nonzero chunk");
    ChunkedLayerCache::from_prefill(
        &gaussian(CONTEXT_TOKENS, HEAD_DIM, seed),
        &gaussian(CONTEXT_TOKENS, HEAD_DIM, seed + 1),
        &segmentation,
    )
    .expect("shapes agree")
}

/// A plan with the proportions the search typically yields (one FP16 chunk
/// in ten, three INT4, six INT2), so `mixed` probes do not depend on text.
fn typical_plan(chunks: usize) -> BitwidthPlan {
    ChunkQuantSearch::new(CocktailConfig::default()).plan_without_search(chunks)
}

/// `kvcache` and `core::attention`: one (layer, head) cache of a 2048-token
/// context at each precision.
fn cache_probes(out: &mut Vec<Metric>) {
    let scale = 1.0 / (HEAD_DIM as f32).sqrt();
    let query = gaussian(1, HEAD_DIM, 11);
    let base = layer_cache(20);
    let uniform = |bitwidth| {
        let mut cache = base.clone();
        cache
            .quantize_all(bitwidth, QuantAxis::PerToken, QuantAxis::PerToken, GROUP)
            .expect("chunks quantize");
        cache
    };
    let mut mixed = base.clone();
    apply_plan(&mut mixed, &typical_plan(base.chunk_count()), GROUP, true).expect("plan fits");
    for (label, cache) in [
        ("fp16", base.clone()),
        ("int4", uniform(Bitwidth::Int4)),
        ("int2", uniform(Bitwidth::Int2)),
        ("mixed", mixed.clone()),
    ] {
        let us = time_us(SHORT, || cache.attend(&query, scale));
        out.push(metric(format!("kvcache.attend_us.{label}"), us, "us"));
    }
    let us = time_us(SHORT, || grouped_attend(&mixed, &query, scale));
    out.push(metric("core.grouped_attend_us", us, "us"));

    let row = vec![0.25f32; HEAD_DIM];
    let us = time_with_setup_us(
        9,
        || mixed.clone(),
        |mut cache| {
            // 64 appends: the decode tail of one longctx_cold request.
            for _ in 0..64 {
                cache.append_decode_token(&row, &row).expect("row fits");
            }
            cache
        },
    );
    out.push(metric("kvcache.append_us", us / 64.0, "us"));

    let permutation = group_by_bitwidth(typical_plan(base.chunk_count()).assignments());
    let us = time_with_setup_us(
        9,
        || base.clone(),
        |mut cache| {
            cache.reorder(&permutation).expect("permutation fits");
            cache
        },
    );
    out.push(metric("kvcache.reorder_us", us, "us"));
    let us = time_with_setup_us(
        9,
        || base.clone(),
        |mut cache| {
            cache
                .quantize_all(
                    Bitwidth::Int4,
                    QuantAxis::PerToken,
                    QuantAxis::PerToken,
                    GROUP,
                )
                .expect("chunks quantize");
            cache
        },
    );
    out.push(metric("kvcache.quantize_all_us", us, "us"));
    out.push(metric(
        "kvcache.compression_x",
        mixed.fp16_reference_bytes() as f64 / mixed.storage_bytes() as f64,
        "x",
    ));
    out.push(metric(
        "kvcache.bytes_per_token",
        mixed.storage_bytes() as f64 / mixed.total_tokens() as f64,
        "B",
    ));
}

/// Everything the model probes share: an engine, one `longctx_cold`
/// request, its cold prefill and the raw context KV as trie blocks.
struct ModelFixture {
    engine: InferenceEngine,
    request: Request,
    prompt: Vec<u32>,
    context_len: usize,
    chunk_texts: Vec<String>,
}

impl ModelFixture {
    fn new(seed: u64) -> Self {
        let engine = InferenceEngine::new(workloads::profile()).expect("profile is valid");
        let request = workloads::oracle_trace(Workload::LongctxCold, seed)
            .requests
            .swap_remove(0);
        let context = engine.tokenizer().encode(&request.context);
        let mut prompt = context.clone();
        prompt.extend(engine.tokenizer().encode(&request.query));
        let chunk_texts = chunk_words(&request.context, CHUNK);
        Self {
            engine,
            context_len: context.len(),
            request,
            prompt,
            chunk_texts,
        }
    }
}

/// Decode microseconds per token over `steps` greedy steps on `cache`.
fn decode_us_per_token(
    engine: &InferenceEngine,
    cache: &mut ChunkedKvCache,
    first_token: u32,
    start_pos: usize,
    steps: usize,
) -> f64 {
    let mut token = first_token;
    let start = Instant::now();
    for i in 0..steps {
        let step = engine
            .decode_step(token, start_pos + i, cache)
            .expect("cache matches the model");
        token = step.next_token;
    }
    start.elapsed().as_secs_f64() * 1e6 / steps as f64
}

/// `model`, `retrieval`, `core::{search,reorder}` and the five policies'
/// measured decode cost, all on one real `longctx_cold` prompt.
fn model_probes(out: &mut Vec<Metric>, seed: u64) {
    let fixture = ModelFixture::new(seed);
    let engine = &fixture.engine;
    let prompt = &fixture.prompt;

    let text = fixture.request.context.as_str();
    let kwords = text.split_whitespace().count() as f64 / 1e3;
    let us = time_us(SHORT, || engine.tokenizer().encode(text));
    out.push(metric("model.tokenizer_us_per_kword", us / kwords, "us"));

    // Cold prefill at 2048 (timed once: it is the single largest call of
    // the whole run) and at 512.
    let start = Instant::now();
    let prefill = engine
        .prefill_batch(&[PrefillSlot::cold(prompt)])
        .expect("prompt is valid")
        .pop()
        .expect("one slot");
    out.push(metric(
        "model.prefill_us_per_token.2048",
        start.elapsed().as_secs_f64() * 1e6 / prompt.len() as f64,
        "us",
    ));
    let us = time_with_setup_us(
        3,
        || (),
        |()| engine.prefill_batch(&[PrefillSlot::cold(&prompt[..512])]),
    );
    out.push(metric("model.prefill_us_per_token.512", us / 512.0, "us"));

    // A chat turn: all but the last 128 context tokens come from the trie.
    let reused = fixture.context_len - 128;
    // The FP16 chunked cache of the prompt, as the pipeline builds it, and
    // its raw context rows as shareable trie blocks.
    let (fp16_cache, blocks) =
        compose::build_cache(engine, CHUNK, None, &prefill, fixture.context_len, true);
    let blocks = blocks.expect("asked for above");
    let us = time_with_setup_us(
        3,
        || (),
        |()| engine.prefill_batch(&[PrefillSlot::with_prefix(prompt, &blocks, reused)]),
    );
    out.push(metric(
        "model.prefill_resume_us_per_suffix_token",
        us / (prompt.len() - reused) as f64,
        "us",
    ));

    // Module I.
    let scorer = CocktailConfig::default().encoder.build();
    let us = time_us(SHORT, || {
        scorer.score(&fixture.request.query, &fixture.chunk_texts)
    });
    out.push(metric(
        "retrieval.score_us_per_chunk",
        us / fixture.chunk_texts.len() as f64,
        "us",
    ));
    let search = ChunkQuantSearch::new(CocktailConfig::default());
    let us = time_us(SHORT, || {
        search.plan(&fixture.request.query, &fixture.chunk_texts)
    });
    out.push(metric("core.search_us", us, "us"));

    // Module II over every (layer, head) slot of the request.
    let plan = search
        .plan(&fixture.request.query, &fixture.chunk_texts)
        .expect("default configuration is valid");
    let us = time_with_setup_us(
        5,
        || fp16_cache.clone(),
        |mut cache| {
            cache
                .try_for_each_mut(|_, _, slot| apply_plan(slot, &plan, GROUP, true))
                .expect("plan fits");
            cache
        },
    );
    out.push(metric("core.reorder_quantize_us", us, "us"));

    // Measured decode cost per policy on the same prompt, beside the
    // hardware model's prediction for the same pair of policies.
    let first_token = prefill.next_token();
    let context = PolicyContext::new(fixture.chunk_texts.clone(), fixture.request.query.as_str());
    let policies: [(&str, Box<dyn CachePolicy>); 5] = [
        ("fp16", Box::new(Fp16Policy::new())),
        ("atom", Box::new(AtomPolicy::default())),
        ("kivi", Box::new(KiviPolicy::default())),
        ("kvquant", Box::new(KvQuantPolicy::default())),
        (
            "cocktail",
            Box::new(CocktailPolicy::new(CocktailConfig::default()).expect("valid config")),
        ),
    ];
    let mut per_token = Vec::new();
    let mut cocktail_cache = None;
    for (label, policy) in policies {
        let mut cache = fp16_cache.clone();
        policy.apply(&mut cache, &context).expect("policy applies");
        if label == "cocktail" {
            cocktail_cache = Some(cache.clone());
        }
        let us = decode_us_per_token(engine, &mut cache, first_token, prompt.len(), 32);
        out.push(metric(
            format!("pipeline.decode_us_per_tok.{label}"),
            us,
            "us",
        ));
        per_token.push((label, us));
    }
    let of = |label: &str| per_token.iter().find(|(l, _)| *l == label).expect("run").1;
    out.push(metric(
        "pipeline.tpot_ratio_meas.cocktail_over_fp16",
        of("cocktail") / of("fp16"),
        "x",
    ));
    out.push(metric(
        "hwsim.tpot_ratio_pred.cocktail_over_fp16",
        predicted_tpot_ratio(),
        "x",
    ));

    // Batched decode over Cocktail-compressed caches of this prompt.
    let compressed = cocktail_cache.expect("cocktail ran");
    for batch in [1usize, 2, 4, 8] {
        let us = time_with_setup_us(
            3,
            || vec![compressed.clone(); batch],
            |mut caches| {
                for step in 0..8 {
                    let mut slots: Vec<DecodeSlot<'_>> = caches
                        .iter_mut()
                        .map(|cache| DecodeSlot {
                            token: first_token,
                            pos: prompt.len() + step,
                            cache,
                        })
                        .collect();
                    black_box(engine.decode_step_batch(&mut slots).expect("caches fit"));
                }
                caches
            },
        );
        out.push(metric(
            format!("model.decode_step_us.b{batch}"),
            us / 8.0,
            "us",
        ));
    }

    let mut chain = SamplerChain::new(
        SamplingParams::seeded(seed)
            .with_temperature(0.8)
            .with_top_k(40),
    );
    let history = [first_token; 16];
    let us = time_us(SHORT, || chain.sample(&prefill.last_logits, &history));
    out.push(metric("model.sample_us_per_token", us, "us"));

    prefix_probes(out, &fixture, &blocks);
}

/// The Cocktail / FP16 TPOT ratio the analytic A800 model predicts for
/// Llama2-7B — the same deployment `fig5_tpot` records.
pub fn predicted_tpot_ratio() -> f64 {
    const OUTPUT_LEN: usize = 128;
    const BATCH: usize = 16;
    let full = workloads::profile().full().clone();
    let shape = RequestShape::new(full.max_context - OUTPUT_LEN, OUTPUT_LEN);
    let model = DeploymentModel::new(AcceleratorSpec::a800(), full, shape);
    let tpot = |profile: &KvCacheProfile| model.tpot(profile, BATCH).total_us();
    tpot(&KvCacheProfile::cocktail_default()) / tpot(&KvCacheProfile::fp16())
}

/// `core::prefix` on trie entries the size of a `longctx_cold` context,
/// then the persistence path over the same trie.
fn prefix_probes(out: &mut Vec<Metric>, fixture: &ModelFixture, blocks: &SharedPrefixKv) {
    let context: Vec<u32> = fixture.prompt[..fixture.context_len].to_vec();
    // Eight branches sharing the first half of the context: inserts split
    // nodes, lookups assemble a two-node path.
    let half = fixture.context_len / 2;
    let branch = |i: u32| {
        let mut tokens = context.clone();
        for token in &mut tokens[half..] {
            *token = (*token + i) % 2000 + 2;
        }
        tokens
    };
    let filled = || {
        let mut cache = PrefixCache::new(PrefixCacheConfig::default());
        for i in 0..8 {
            cache.insert(branch(i), blocks.clone());
        }
        cache
    };
    let us = time_with_setup_us(
        5,
        || (filled(), branch(9), blocks.clone()),
        |(mut cache, tokens, kv)| {
            cache.insert(tokens, kv);
            cache
        },
    );
    out.push(metric("core.prefix_insert_us", us, "us"));
    let mut cache = filled();
    let probe = branch(3);
    let us = time_us(SHORT, || cache.lookup(&probe).map(|hit| hit.tokens()));
    out.push(metric("core.prefix_lookup_us", us, "us"));
    let us = time_with_setup_us(5, filled, |mut cache| {
        cache.evict_lru_unpinned();
        cache
    });
    out.push(metric("core.prefix_evict_us", us, "us"));

    persistence_probes(out, fixture, &filled());
}

fn scratch_file(name: &str) -> std::path::PathBuf {
    let dir = crate::bench::results_dir();
    std::fs::create_dir_all(&dir).expect("results directory is writable");
    dir.join(format!("scratch_{}_{name}", std::process::id()))
}

/// Snapshot and cold-tier I/O on the eight-branch trie.
fn persistence_probes(out: &mut Vec<Metric>, fixture: &ModelFixture, trie: &PrefixCache) {
    // An engine whose tokenizer has seen the fixture's text, so the trie's
    // token ids resolve under its vocabulary.
    let warm_engine = || {
        let engine = workloads::gateway_like_engine();
        engine.engine().tokenizer().encode(&fixture.request.context);
        engine.engine().tokenizer().encode(&fixture.request.query);
        engine
    };
    let mut engine = warm_engine();
    let empty = read_snapshot(&engine.snapshot_bytes()).expect("own snapshot decodes");
    let snapshot = trie.to_snapshot(empty.fingerprint, empty.vocab);

    let mut bytes = Vec::new();
    let us = time_with_setup_us(3, || (), |()| bytes = write_snapshot(&snapshot));
    let mb = bytes.len() as f64 / 1e6;
    out.push(metric(
        "kvcache.snapshot_write_mbs",
        mb / (us / 1e6),
        "MB/s",
    ));
    let us = time_with_setup_us(3, || (), |()| read_snapshot(&bytes).map(|s| s.nodes.len()));
    out.push(metric("kvcache.snapshot_read_mbs", mb / (us / 1e6), "MB/s"));

    let report = engine.restore_from_bytes(&bytes);
    assert!(
        report.restored,
        "probe snapshot restores: {:?}",
        report.reason
    );
    let path = scratch_file("snapshot.bin");
    let us = time_with_setup_us(
        3,
        || (),
        |()| {
            engine
                .snapshot_to(&path)
                .expect("snapshot file is writable")
        },
    );
    out.push(metric("core.snapshot_to_ms", us / 1e3, "ms"));
    let us = time_with_setup_us(3, warm_engine, |mut fresh: ServingEngine| {
        let report = fresh.restore_from(&path);
        assert!(report.restored, "snapshot restores: {:?}", report.reason);
        fresh
    });
    out.push(metric("core.restore_from_ms", us / 1e3, "ms"));
    let _ = std::fs::remove_file(&path);

    let spill = scratch_file("coldtier.bin");
    let cold = || {
        let mut cache = PrefixCache::new(PrefixCacheConfig::default());
        cache
            .enable_cold_tier(&spill, empty.fingerprint)
            .expect("spill file is creatable");
        cache
            .load_snapshot(snapshot.clone())
            .expect("snapshot is well formed");
        cache
    };
    let us = time_with_setup_us(3, cold, |mut cache| {
        cache.evict_lru_unpinned();
        cache
    });
    out.push(metric("core.coldtier_demote_ms", us / 1e3, "ms"));
    let context: Vec<u32> = fixture.prompt[..fixture.context_len].to_vec();
    let us = time_with_setup_us(
        3,
        || {
            let mut cache = cold();
            // Demote every branch, so whichever is asked for is on disk.
            while cache.evict_lru_unpinned().is_some() {}
            cache
        },
        |mut cache| {
            let promoted = cache.repromote(&context);
            assert!(promoted.is_some(), "a demoted branch repromotes");
            cache
        },
    );
    out.push(metric("core.coldtier_repromote_ms", us / 1e3, "ms"));
    let _ = std::fs::remove_file(&spill);
}

/// `core::{scheduler,router}`: the admission bookkeeping around a request.
fn control_probes(out: &mut Vec<Metric>, seed: u64) {
    let us = time_us(SHORT, || {
        let mut scheduler = BatchScheduler::new(
            SchedulerConfig::default()
                .with_budget(1 << 30)
                .with_max_batch(8),
        );
        for raw in 0..8 {
            let id = RequestId::new(black_box(raw));
            scheduler.enqueue(id);
            black_box(scheduler.try_admit(id, black_box(1 << 20)));
        }
        for raw in 0..8 {
            scheduler.complete(RequestId::new(raw));
        }
        scheduler
    });
    out.push(metric("core.scheduler_admit_us", us / 8.0, "us"));

    let trace = workloads::oracle_trace(Workload::LongctxCold, seed);
    let mut index = PrefixFingerprintIndex::new(1, RouterConfig::default());
    for request in &trace.requests[1..] {
        index.record(&request.context, 0);
    }
    let context = trace.requests[0].context.as_str();
    let us = time_us(SHORT, || index.route(context, &[0]));
    out.push(metric("core.router_route_us", us, "us"));
}

/// The engine loop: queueing counts from a short step-clocked storm on the
/// `admission_storm` trace, then the cost of a decode-only engine step at
/// fixed batch sizes.
fn serving_probes(out: &mut Vec<Metric>, seed: u64) {
    // Two bursts: the second lands while the first still decodes.
    let trace = workloads::storm_trace(seed, 2);
    let mut engine = workloads::storm_engine();
    let phase = load::step_clocked_open_loop(&mut engine, &trace);
    out.push(metric(
        "core.queue_wait_steps_p50",
        phase.counts["queue_wait_steps_p50"],
        "steps",
    ));
    out.push(metric(
        "core.batch_size_mean",
        phase.counts["batch_size_mean"],
        "count",
    ));

    let requests = workloads::oracle_trace(Workload::AdmissionStorm, seed).requests;
    let short: Vec<&Request> = requests
        .iter()
        .filter(|r| r.context.split_whitespace().count() < 1000)
        .take(8)
        .collect();
    for batch in [1usize, 4, 8] {
        let (step_us, overhead_pct) = engine_step_probe(&short[..batch]);
        out.push(metric(
            format!("core.serving_step_us.b{batch}"),
            step_us,
            "us",
        ));
        if batch == 8 {
            out.push(metric("core.serving_overhead_pct", overhead_pct, "%"));
        }
    }
}

/// Submits `requests` together and runs them to completion, timing every
/// step after the one that admits them: the median `step_events` wall,
/// and the share of the loop's wall spent outside `decode_step_batch` (the
/// product's per-request `decode_us` adds up to the time inside it).
fn engine_step_probe(requests: &[&Request]) -> (f64, f64) {
    let mut engine = workloads::storm_engine();
    let ids: Vec<RequestId> = requests
        .iter()
        .map(|r| engine.submit(load::serve_request(r)))
        .collect();
    // The first step admits and prefills every request.
    engine.step_events().expect("engine steps");
    let mut walls = Vec::new();
    while !engine.is_idle() {
        let start = Instant::now();
        engine.step_events().expect("engine steps");
        walls.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let inside: u64 = ids
        .iter()
        .filter_map(|id| engine.take_outcome(*id))
        .map(|outcome| outcome.stats.timings.decode_us)
        .sum();
    // A request of T tokens takes T - 1 decode calls, the first of them
    // inside the (untimed) admission step.
    let calls = (requests[0].max_new_tokens - 1) as f64;
    let inside = inside as f64 * (calls - 1.0) / calls;
    let total: f64 = walls.iter().sum();
    (
        crate::stats::median(&walls).unwrap_or(0.0),
        100.0 * (total - inside) / total.max(1.0),
    )
}

/// `server`: the wire path's own pieces, then the whole gateway against
/// an in-process engine on the same sequential request list.
fn server_probes(out: &mut Vec<Metric>, seed: u64) {
    let long = workloads::oracle_trace(Workload::LongctxCold, seed)
        .requests
        .swap_remove(0);
    let body = load::generate_body(&long);
    let raw = format!(
        "POST /api/v1/generate HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let us = time_us(SHORT, || {
        let mut parser = RequestParser::new();
        parser.push(raw.as_bytes());
        parser.next_request().map(|r| r.map(|r| r.body.len()))
    });
    out.push(metric("server.http_parse_us", us, "us"));
    let us = time_us(SHORT, || {
        GenerateRequest::from_json(&body).map(|r| r.max_new_tokens)
    });
    out.push(metric("server.json_decode_us", us, "us"));
    let us = time_us(SHORT, || {
        let event = StreamEvent::token("req-7".to_string(), 7, " lantern".to_string());
        http::chunk(http::sse_event(&event.to_json()).as_bytes())
    });
    out.push(metric("server.sse_encode_us_per_event", us, "us"));

    // Streamed short requests: the same list over the wire and in process,
    // both sequential on fresh engines.
    let mut requests = workloads::oracle_trace(Workload::ShortBurst, seed).requests;
    requests.truncate(150);
    for request in &mut requests {
        request.stream = true;
    }
    let tokens: usize = requests.iter().map(|r| r.max_new_tokens).sum();
    let server = GatewayServer::start(workloads::gateway_settings(), GatewayConfig::default())
        .expect("gateway binds a local port");
    // Let the driver thread finish building its engine before timing.
    load::sequential(server.addr(), &requests[..1]);
    let start = Instant::now();
    let samples = load::sequential(server.addr(), &requests[1..]);
    let wire_us = start.elapsed().as_secs_f64() * 1e6;
    server.shutdown();
    assert!(
        samples.iter().all(load::Sample::ok),
        "gateway probe requests succeed"
    );

    let mut engine = workloads::gateway_like_engine();
    let mut serve = |request: &Request| {
        let id = engine.submit(load::serve_request(request));
        while !engine.is_idle() {
            engine.step_events().expect("engine steps");
        }
        engine.take_outcome(id).expect("request completes")
    };
    serve(&requests[0]);
    let start = Instant::now();
    for request in &requests[1..] {
        black_box(serve(request));
    }
    let inproc_us = start.elapsed().as_secs_f64() * 1e6;
    let timed = (requests.len() - 1) as f64;
    let overhead = wire_us - inproc_us;
    out.push(metric(
        "server.gateway_overhead_us_per_req",
        overhead / timed,
        "us",
    ));
    out.push(metric(
        "server.gateway_overhead_us_per_token",
        overhead / (tokens as f64 * timed / requests.len() as f64),
        "us",
    ));
}

/// Runs every probe. All are sized by call counts, not by time.
pub fn run_all(seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    let (memcpy_gbs, fma_gflops) = host_ceilings();
    out.push(metric("host.memcpy_gbs", memcpy_gbs, "GB/s"));
    out.push(metric("host.fma_gflops", fma_gflops, "GFLOP/s"));
    kernel_probes(&mut out);
    cache_probes(&mut out);
    model_probes(&mut out, seed);
    control_probes(&mut out, seed);
    serving_probes(&mut out, seed);
    server_probes(&mut out, seed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_report_per_call_microseconds() {
        let us = time_us(Duration::from_millis(20), || {
            std::thread::sleep(Duration::from_millis(2))
        });
        assert!((1_900.0..20_000.0).contains(&us), "{us}");
        let mut setups = 0;
        let us = time_with_setup_us(
            3,
            || {
                setups += 1;
                std::thread::sleep(Duration::from_millis(5));
            },
            |()| std::thread::sleep(Duration::from_millis(1)),
        );
        assert_eq!(setups, 3);
        // Setup time is excluded.
        assert!((900.0..4_500.0).contains(&us), "{us}");
    }

    #[test]
    fn hwsim_predicts_the_fig5_ratio() {
        // results/fig5_tpot.json: 17731.70 / 29146.22 for llama2-7b.
        assert!((predicted_tpot_ratio() - 0.6084).abs() < 1e-3);
    }
}
