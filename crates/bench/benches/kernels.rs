//! Microbenchmarks of the data-parallel hot kernels against their scalar
//! forms, with three jobs rolled into one binary (it is the workload of
//! the CI `kernel-bench` job):
//!
//! 1. **Bit-identity enforcement.** Before anything is timed, every tiled
//!    kernel (`cocktail_quant::parallel::*_with_threads`) is checked
//!    byte-for-byte against its scalar fused form *and* the
//!    dequantize-then-dense `*_reference` form, and the streaming prefill
//!    attention (`cocktail_tensor::ops::causal_attention`) against the
//!    materialised score/mask/probability path, inline and as the
//!    engine's (slot, head) tiles. A single differing bit aborts the
//!    binary. The streaming decode attention
//!    (`ChunkedLayerCache::attend`) is checked against dense
//!    `softmax(q·Kᵀ)·V` to FP tolerance — its bit-exact reference is a
//!    unit-test fixture of `cocktail_kvcache` — and its bits are pinned by
//!    the committed fingerprint.
//! 2. **Wall-clock sanity bands.** Timing on shared CI runners is too
//!    noisy to gate tightly, so the parallel path is only required to stay
//!    within a generous multiple of the scalar path (see
//!    [`MAX_PARALLEL_OVER_SCALAR`]). Real speedups are reported for humans
//!    in the criterion output; the band only catches pathological
//!    regressions (e.g. the threshold gate breaking and every decode-sized
//!    call paying fork overhead).
//! 3. **A deterministic record.** `results/kernels.json` gets the
//!    machine-independent facts — shapes, multiply-add counts, packed
//!    payload/parameter bytes, tile layouts at 2 and 4 threads, and
//!    bit-fingerprints of every kernel output. CI regenerates the record
//!    and diffs it against `results/baseline/kernels.json`, so any change
//!    to kernel semantics, tiling layout or quantized storage must ship
//!    with a refreshed baseline. Wall-clock numbers are deliberately kept
//!    out of the record: they would differ on every host.
//!
//! A fourth, display-only group times the paper's search-cost argument:
//! Cocktail's chunk-level threshold assignment against KVQuant's
//! token-level outlier scan. Every other quantity the old criterion benches
//! timed is a named per-layer metric of `benchmark/src/probes.rs`.

use cocktail_baselines::{CachePolicy, KvQuantPolicy, PolicyContext};
use cocktail_bench::{record_json, write_record};
use cocktail_core::{ChunkQuantSearch, CocktailConfig};
use cocktail_kvcache::{ChunkSegmentation, ChunkedLayerCache, PrefixKvBlock, SharedPrefixKv};
use cocktail_model::{InferenceEngine, ModelProfile, PrefillSlot};
use cocktail_quant::{gemm, parallel, Bitwidth, QuantAxis, QuantConfig, QuantizedMatrix};
use cocktail_tensor::ops::{causal_attention, causal_mask, KvRows};
use cocktail_tensor::{rng, Matrix};
use criterion::{black_box, Criterion};
use serde::Serialize;
use std::time::Instant;

/// Generous in-binary band: the parallel path must not be slower than this
/// multiple of the scalar path on the same host. Chosen so that a loaded
/// two-core CI runner still passes while a broken threshold gate (fork
/// overhead on every tiny call) or a quadratic stitch still fails.
const MAX_PARALLEL_OVER_SCALAR: f64 = 4.0;

/// Iterations per timing sample for the in-binary band check.
const BAND_ITERS: usize = 20;
/// Best-of samples for the in-binary band check.
const BAND_SAMPLES: usize = 5;

/// One benchmarked kernel shape in the deterministic record.
#[derive(Debug, Serialize)]
struct KernelRow {
    /// Kernel name (`quantize`, `dequantize`, `gemm_transposed`, `gemm_value`).
    kernel: String,
    /// Left/input operand shape, `rows x cols`.
    input_shape: String,
    /// Quantized operand shape, `rows x cols`.
    quant_shape: String,
    /// Integer bitwidth of the quantized operand.
    bitwidth: String,
    /// Quantization group size.
    group_size: usize,
    /// Work metric the dispatcher gates on (multiply-adds for the GEMMs,
    /// elements for quantize/dequantize).
    work: usize,
    /// Packed code bytes of the quantized operand.
    payload_bytes: usize,
    /// Scale/zero parameter bytes of the quantized operand.
    param_bytes: usize,
    /// Number of tiles the kernel splits into at 2 threads.
    tiles_at_2: usize,
    /// Number of tiles the kernel splits into at 4 threads.
    tiles_at_4: usize,
    /// Bit-fingerprint of the kernel output (identical for the scalar,
    /// tiled and reference paths — that identity is asserted before this
    /// row is written).
    fingerprint: i64,
}

/// The prefill-attention kernel in the deterministic record.
#[derive(Debug, Serialize)]
struct AttentionRow {
    /// Kernel name.
    kernel: String,
    /// One head's suffix queries, `rows x head_dim`.
    query_shape: String,
    /// Reused prefix rows ahead of the suffix keys.
    prefix_rows: usize,
    /// Causally visible (query, key) pairs of one head:
    /// `n(n+1)/2 + n * prefix` for `n` suffix rows.
    visible_pairs: usize,
    /// Bit-fingerprint of the kernel output (asserted identical to the
    /// materialised score/mask/probability path).
    fingerprint: i64,
    /// Slots of the engine-level tiled check (one cold, one resumed).
    engine_slots: usize,
    /// Its slot-major (slot, head) tile list: the same at every thread
    /// count, `slots x heads` entries.
    engine_tiles: usize,
    /// The dispatcher's work metric of one of its layers (visible pairs of
    /// every slot x hidden width).
    engine_work: usize,
    /// Bit-fingerprint of its hidden states (asserted identical inline and
    /// on the kernel pool).
    engine_fingerprint: i64,
}

/// The decode-attention kernel in the deterministic record.
#[derive(Debug, Serialize)]
struct DecodeRow {
    /// Kernel name.
    kernel: String,
    /// Query block, `rows x head_dim`.
    query_shape: String,
    /// Cached tokens: chunks, FP16 remainder and decode tail.
    cache_tokens: usize,
    /// Tokens per chunk.
    chunk_size: usize,
    /// Tokens in the INT2 run.
    int2_tokens: usize,
    /// Tokens in the INT4 run.
    int4_tokens: usize,
    /// Tokens in the FP16 run, the remainder and the decode tail.
    fp16_tokens: usize,
    /// Bit-fingerprint of the kernel output (asserted close to dense
    /// attention over the dequantized cache; the bits are pinned here).
    fingerprint: i64,
}

/// Payload of `results/kernels.json`.
#[derive(Debug, Serialize)]
struct KernelRecord {
    /// The dispatcher's scalar/parallel cutover, in work units.
    parallel_threshold: usize,
    /// Per-kernel deterministic rows.
    kernels: Vec<KernelRow>,
    /// The streaming prefill-attention kernel and its tile dispatch.
    prefill_attention: AttentionRow,
    /// The streaming mixed-precision decode-attention kernel.
    decode_attention: DecodeRow,
}

/// Order-sensitive bit-fingerprint of a matrix: any single-bit difference
/// in any element, or any reordering, changes the digest.
fn fingerprint(m: &Matrix) -> i64 {
    m.as_slice()
        .iter()
        .fold(0u32, |acc, v| acc.rotate_left(1) ^ v.to_bits()) as i64
}

/// Best-of-samples mean nanoseconds per call of `f`.
fn time_ns<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BAND_SAMPLES {
        let start = Instant::now();
        for _ in 0..BAND_ITERS {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / BAND_ITERS as f64);
    }
    best
}

/// Asserts the generous wall-clock band for one kernel.
fn enforce_band(name: &str, scalar_ns: f64, parallel_ns: f64) {
    println!(
        "band {name}: scalar {scalar_ns:.0} ns/call, parallel {parallel_ns:.0} ns/call \
         ({:.2}x)",
        scalar_ns / parallel_ns.max(1.0)
    );
    assert!(
        parallel_ns <= scalar_ns * MAX_PARALLEL_OVER_SCALAR,
        "{name}: parallel path took {parallel_ns:.0} ns/call vs scalar {scalar_ns:.0} ns/call — \
         over the {MAX_PARALLEL_OVER_SCALAR}x band"
    );
}

struct Fixtures {
    /// 512x128 activations for quantize/dequantize.
    chunk: Matrix,
    /// Its Int4 per-token group-32 config.
    chunk_cfg: QuantConfig,
    /// Quantized form of `chunk`.
    chunk_q: QuantizedMatrix,
    /// 8x128 queries for the score GEMM.
    queries: Matrix,
    /// 1024x128 quantized keys (transposed GEMM right operand).
    keys_q: QuantizedMatrix,
    /// 8x1024 attention weights for the value GEMM.
    probs: Matrix,
    /// 1024x128 quantized values.
    values_q: QuantizedMatrix,
}

fn fixtures() -> Fixtures {
    let chunk_cfg = QuantConfig::new(Bitwidth::Int4, QuantAxis::PerToken, 32)
        .expect("int4 per-token g32 is a valid config");
    let chunk = rng::gaussian_matrix(512, 128, 1.0, 11);
    let chunk_q = QuantizedMatrix::quantize(&chunk, &chunk_cfg).expect("quantize chunk");
    let keys = rng::gaussian_matrix(1024, 128, 1.0, 12);
    let keys_q = QuantizedMatrix::quantize(&keys, &chunk_cfg).expect("quantize keys");
    let values = rng::gaussian_matrix(1024, 128, 1.0, 13);
    let values_q = QuantizedMatrix::quantize(&values, &chunk_cfg).expect("quantize values");
    Fixtures {
        chunk,
        chunk_cfg,
        chunk_q,
        queries: rng::gaussian_matrix(8, 128, 1.0, 14),
        probs: rng::gaussian_matrix(8, 1024, 1.0, 15),
        values_q,
        keys_q,
    }
}

/// Asserts scalar == tiled == reference for every kernel, at 1, 2 and 4
/// threads, and returns the canonical outputs for fingerprinting.
fn assert_bit_identity(f: &Fixtures) -> (QuantizedMatrix, Matrix, Matrix, Matrix) {
    let scalar_q = QuantizedMatrix::quantize(&f.chunk, &f.chunk_cfg).expect("scalar quantize");
    let scalar_dq = scalar_q.dequantize();
    let scalar_scores =
        gemm::fp_matmul_quant_transposed(&f.queries, &f.keys_q).expect("scalar score gemm");
    let reference_scores = gemm::fp_matmul_quant_transposed_reference(&f.queries, &f.keys_q)
        .expect("reference score gemm");
    let scalar_av = gemm::fp_matmul_quant(&f.probs, &f.values_q).expect("scalar value gemm");
    let reference_av =
        gemm::fp_matmul_quant_reference(&f.probs, &f.values_q).expect("reference value gemm");
    assert_eq!(
        scalar_scores, reference_scores,
        "fused and reference score GEMMs diverged"
    );
    assert_eq!(
        scalar_av, reference_av,
        "fused and reference value GEMMs diverged"
    );
    for threads in [1usize, 2, 4] {
        let tiled_q = parallel::quantize_with_threads(&f.chunk, &f.chunk_cfg, threads)
            .expect("tiled quantize");
        assert_eq!(scalar_q, tiled_q, "quantize diverged at {threads} threads");
        let tiled_dq = parallel::dequantize_with_threads(&f.chunk_q, threads);
        assert_eq!(
            scalar_dq, tiled_dq,
            "dequantize diverged at {threads} threads"
        );
        let tiled_scores =
            parallel::fp_matmul_quant_transposed_with_threads(&f.queries, &f.keys_q, threads)
                .expect("tiled score gemm");
        assert_eq!(
            scalar_scores, tiled_scores,
            "score GEMM diverged at {threads} threads"
        );
        let tiled_av = parallel::fp_matmul_quant_with_threads(&f.probs, &f.values_q, threads)
            .expect("tiled value gemm");
        assert_eq!(
            scalar_av, tiled_av,
            "value GEMM diverged at {threads} threads"
        );
    }
    println!("bit-identity: scalar == tiled == reference for all four kernels at 1/2/4 threads");
    (scalar_q, scalar_dq, scalar_scores, scalar_av)
}

/// Suffix and reused-prefix rows of the kernel-level attention fixture.
const ATTENTION_SUFFIX: usize = 160;
const ATTENTION_PREFIX: usize = 96;
const ATTENTION_HEAD_DIM: usize = 16;

fn visible_pairs(suffix: usize, prefix: usize) -> usize {
    suffix * (suffix + 1) / 2 + suffix * prefix
}

/// Asserts the streaming kernel equal to the materialised path on a
/// resumed shape, and the engine's (slot, head) tiles equal inline (as a
/// batch) and on the kernel pool (one slot at a time; GQA profile, one cold
/// and one resumed slot), and returns the record row.
fn assert_prefill_attention_identity() -> AttentionRow {
    let kv_len = ATTENTION_PREFIX + ATTENTION_SUFFIX;
    let q = rng::gaussian_matrix(ATTENTION_SUFFIX, ATTENTION_HEAD_DIM, 1.0, 16);
    let k = rng::gaussian_matrix(kv_len, ATTENTION_HEAD_DIM, 1.0, 17);
    let v = rng::gaussian_matrix(kv_len, ATTENTION_HEAD_DIM, 1.0, 18);
    let scale = 1.0 / (ATTENTION_HEAD_DIM as f32).sqrt();
    let mut scores = q.matmul_transposed(&k).expect("score gemm");
    scores.scale_in_place(scale);
    let materialised = scores
        .masked_softmax(&causal_mask(ATTENTION_SUFFIX, kv_len))
        .and_then(|probs| probs.matmul(&v))
        .expect("materialised attention");
    let (prefix, suffix) = (
        KvRows::leading(&k, &v, ATTENTION_PREFIX),
        KvRows {
            k: &k.as_slice()[ATTENTION_PREFIX * ATTENTION_HEAD_DIM..],
            v: &v.as_slice()[ATTENTION_PREFIX * ATTENTION_HEAD_DIM..],
        },
    );
    let streamed = causal_attention(&q, [prefix, suffix], scale).expect("streaming attention");
    assert_eq!(
        streamed, materialised,
        "streaming and materialised prefill attention diverged"
    );

    let engine = InferenceEngine::new(ModelProfile::mistral_7b_sim()).expect("engine builds");
    let config = engine.config().clone();
    let prompt = |tokens: usize, salt: u32| -> Vec<u32> {
        (0..tokens as u32)
            .map(|i| (i * 31 + salt) % config.vocab_size as u32)
            .collect()
    };
    let (cold_prompt, warm_prompt, warm_prefix) = (prompt(192, 7), prompt(128, 11), 64usize);
    let head_start = engine
        .prefill(&warm_prompt[..warm_prefix])
        .expect("prefix prefill");
    let blocks = head_start
        .kv
        .iter()
        .flatten()
        .map(|raw| PrefixKvBlock::new(raw.k.clone(), raw.v.clone()).expect("prefix block"))
        .collect();
    let shared = SharedPrefixKv::from_blocks(config.n_layers, config.n_kv_heads, blocks)
        .expect("shared prefix");
    let slots = [
        PrefillSlot::cold(&cold_prompt),
        PrefillSlot::with_prefix(&warm_prompt, &shared, warm_prefix),
    ];
    let slot_work = [
        visible_pairs(cold_prompt.len(), 0),
        visible_pairs(warm_prompt.len() - warm_prefix, warm_prefix),
    ]
    .map(|pairs| pairs * config.hidden_dim);
    let engine_work: usize = slot_work.iter().sum();
    assert!(
        slot_work
            .iter()
            .all(|&work| work >= parallel::PARALLEL_THRESHOLD),
        "each slot of the tiled check must clear the parallel threshold"
    );
    // Only a lone slot forks its tiles, so the pooled side prefills the
    // slots one at a time; the batch runs the same tiles inline.
    let hidden_of = |batches: &[&[PrefillSlot<'_>]], threads: usize| -> Matrix {
        parallel::set_kernel_thread_override(Some(threads));
        let prefills: Vec<_> = batches
            .iter()
            .flat_map(|batch| engine.prefill_batch(batch).expect("prefill"))
            .collect();
        parallel::set_kernel_thread_override(None);
        let parts: Vec<&Matrix> = prefills.iter().map(|b| &b.hidden).collect();
        Matrix::concat_rows(&parts).expect("hidden rows share the width")
    };
    let inline = hidden_of(&[&slots], 1);
    for threads in [2usize, 4] {
        assert_eq!(
            inline,
            hidden_of(&[&slots[..1], &slots[1..]], threads),
            "prefill tiles diverged at {threads} threads"
        );
    }
    println!(
        "bit-identity: streaming == materialised prefill attention; (slot, head) tiles inline == \
         pooled at 2/4 threads"
    );
    AttentionRow {
        kernel: "prefill_attention".to_string(),
        query_shape: format!("{ATTENTION_SUFFIX}x{ATTENTION_HEAD_DIM}"),
        prefix_rows: ATTENTION_PREFIX,
        visible_pairs: visible_pairs(ATTENTION_SUFFIX, ATTENTION_PREFIX),
        fingerprint: fingerprint(&streamed),
        engine_slots: slots.len(),
        engine_tiles: slots.len() * config.n_heads,
        engine_work,
        engine_fingerprint: fingerprint(&inline),
    }
}

/// Shape of the decode-attention fixture: 15 chunks of 32 tokens laid out
/// as Module II leaves them — six INT2, six INT4, three FP16 — then a
/// 20-token remainder and a 3-token decode tail.
const DECODE_CONTEXT: usize = 500;
const DECODE_CHUNK: usize = 32;
const DECODE_HEAD_DIM: usize = 64;
const DECODE_TAIL: usize = 3;
const DECODE_QUERIES: usize = 2;

/// Runs the decode attention over a mixed-precision cache, asserts it close
/// to dense attention over the dequantized cache, and returns the record
/// row.
fn assert_decode_attention() -> DecodeRow {
    let k = rng::gaussian_matrix(DECODE_CONTEXT, DECODE_HEAD_DIM, 1.0, 19);
    let v = rng::gaussian_matrix(DECODE_CONTEXT, DECODE_HEAD_DIM, 1.0, 20);
    let segmentation = ChunkSegmentation::new(DECODE_CONTEXT, DECODE_CHUNK).expect("chunk size");
    let mut cache = ChunkedLayerCache::from_prefill(&k, &v, &segmentation).expect("cache");
    for (chunk, bitwidth) in [(0..6, Bitwidth::Int2), (6..12, Bitwidth::Int4)] {
        for physical in chunk {
            cache
                .quantize_chunk(physical, bitwidth, 32)
                .expect("quantize chunk");
        }
    }
    let tail = rng::gaussian_matrix(2 * DECODE_TAIL, DECODE_HEAD_DIM, 1.0, 21);
    for t in 0..DECODE_TAIL {
        cache
            .append_decode_token(tail.row(2 * t), tail.row(2 * t + 1))
            .expect("tail row");
    }

    let q = rng::gaussian_matrix(DECODE_QUERIES, DECODE_HEAD_DIM, 1.0, 22);
    let scale = 1.0 / (DECODE_HEAD_DIM as f32).sqrt();
    let streamed = cache.attend(&q, scale).expect("decode attention");
    let mut scores = q
        .matmul_transposed(&cache.full_key_matrix())
        .expect("score gemm");
    scores.scale_in_place(scale);
    scores.softmax_rows();
    let dense = scores
        .matmul(&cache.full_value_matrix())
        .expect("value gemm");
    let gap = streamed.max_abs_diff(&dense).expect("same shape");
    assert!(
        gap < 1e-4,
        "decode attention is {gap} away from dense attention over the dequantized cache"
    );
    println!("decode attention: streaming kernel within {gap:.1e} of dense softmax(q·Kᵀ)·V");

    let tokens_at = |bitwidth: Bitwidth| -> usize {
        cache
            .chunks()
            .iter()
            .filter(|c| c.bitwidth() == bitwidth)
            .map(|c| c.token_len())
            .sum()
    };
    DecodeRow {
        kernel: "decode_attention".to_string(),
        query_shape: format!("{DECODE_QUERIES}x{DECODE_HEAD_DIM}"),
        cache_tokens: cache.total_tokens(),
        chunk_size: DECODE_CHUNK,
        int2_tokens: tokens_at(Bitwidth::Int2),
        int4_tokens: tokens_at(Bitwidth::Int4),
        fp16_tokens: tokens_at(Bitwidth::Fp16) + cache.remainder_len() + cache.tail_len(),
        fingerprint: fingerprint(&streamed),
    }
}

/// One timed closure (the operands are owned clones, so scalar and
/// parallel runs never contend on borrows).
type BenchFn = Box<dyn FnMut()>;

fn bands_and_display(c: &mut Criterion, f: &Fixtures) {
    let threads = parallel::kernel_threads();
    let mut group = c.benchmark_group("kernel_parallelism");

    let pairs: Vec<(&str, BenchFn, BenchFn)> = vec![
        (
            "quantize_512x128_int4",
            {
                let (m, cfg) = (f.chunk.clone(), f.chunk_cfg);
                Box::new(move || {
                    black_box(parallel::quantize_with_threads(&m, &cfg, 1).expect("quantize"));
                })
            },
            {
                let (m, cfg) = (f.chunk.clone(), f.chunk_cfg);
                Box::new(move || {
                    black_box(
                        parallel::quantize_with_threads(&m, &cfg, threads).expect("quantize"),
                    );
                })
            },
        ),
        (
            "dequantize_512x128_int4",
            {
                let q = f.chunk_q.clone();
                Box::new(move || {
                    black_box(parallel::dequantize_with_threads(&q, 1));
                })
            },
            {
                let q = f.chunk_q.clone();
                Box::new(move || {
                    black_box(parallel::dequantize_with_threads(&q, threads));
                })
            },
        ),
        (
            "gemm_transposed_8x128_1024x128_int4",
            {
                let (a, q) = (f.queries.clone(), f.keys_q.clone());
                Box::new(move || {
                    black_box(
                        parallel::fp_matmul_quant_transposed_with_threads(&a, &q, 1)
                            .expect("score gemm"),
                    );
                })
            },
            {
                let (a, q) = (f.queries.clone(), f.keys_q.clone());
                Box::new(move || {
                    black_box(
                        parallel::fp_matmul_quant_transposed_with_threads(&a, &q, threads)
                            .expect("score gemm"),
                    );
                })
            },
        ),
        (
            "gemm_value_8x1024_1024x128_int4",
            {
                let (a, q) = (f.probs.clone(), f.values_q.clone());
                Box::new(move || {
                    black_box(
                        parallel::fp_matmul_quant_with_threads(&a, &q, 1).expect("value gemm"),
                    );
                })
            },
            {
                let (a, q) = (f.probs.clone(), f.values_q.clone());
                Box::new(move || {
                    black_box(
                        parallel::fp_matmul_quant_with_threads(&a, &q, threads)
                            .expect("value gemm"),
                    );
                })
            },
        ),
    ];

    for (name, mut scalar, mut parallel_path) in pairs {
        let scalar_ns = time_ns(&mut scalar);
        let parallel_ns = time_ns(&mut parallel_path);
        enforce_band(name, scalar_ns, parallel_ns);
        group.bench_function(format!("{name}/scalar"), |b| b.iter(&mut scalar));
        group.bench_function(format!("{name}/parallel_t{threads}"), |b| {
            b.iter(&mut parallel_path)
        });
    }
    group.finish();
}

/// Timing display of the paper's search-cost argument: the chunk-level
/// threshold assignment over 256 chunk scores against KVQuant's per-token
/// outlier scan over a 1024-token single-head cache — the cost Cocktail's
/// chunk-level search avoids.
fn search_cost_display(c: &mut Criterion) {
    let search = ChunkQuantSearch::new(CocktailConfig::default());
    let scores: Vec<f32> = (0..256).map(|i| (i % 17) as f32 / 17.0).collect();
    c.bench_function("threshold_assignment_256_chunks", |b| {
        b.iter(|| search.plan_from_scores(black_box(&scores)).expect("plan"));
    });

    let k = rng::gaussian_matrix(1024, 64, 1.0, 21);
    let v = rng::gaussian_matrix(1024, 64, 1.0, 22);
    let segmentation = ChunkSegmentation::new(1024, 32).expect("chunk size");
    let cache = ChunkedLayerCache::from_prefill(&k, &v, &segmentation).expect("cache");
    let policy = KvQuantPolicy::default();
    c.bench_function("kvquant_token_level_search_1024_tokens", |b| {
        b.iter_batched(
            || cache.clone(),
            |mut cache| {
                policy
                    .apply_layer(&mut cache, &PolicyContext::empty())
                    .expect("token-level search")
            },
            criterion::BatchSize::LargeInput,
        );
    });
}

fn write_deterministic_record(
    f: &Fixtures,
    outputs: &(QuantizedMatrix, Matrix, Matrix, Matrix),
    prefill_attention: AttentionRow,
    decode_attention: DecodeRow,
) {
    let (quantized, dequantized, scores, av) = outputs;
    let row = |kernel: &str,
               input: &Matrix,
               q: &QuantizedMatrix,
               work: usize,
               tiled_n: usize,
               fp: i64| KernelRow {
        kernel: kernel.to_string(),
        input_shape: format!("{}x{}", input.rows(), input.cols()),
        quant_shape: format!("{}x{}", q.rows(), q.cols()),
        bitwidth: q.bitwidth().to_string(),
        group_size: q.config().group_size(),
        work,
        payload_bytes: q.payload_bytes(),
        param_bytes: q.param_bytes(),
        tiles_at_2: parallel::tile_ranges(tiled_n, 2).len(),
        tiles_at_4: parallel::tile_ranges(tiled_n, 4).len(),
        fingerprint: fp,
    };
    let kernels = vec![
        // quantize/dequantize tile over the chunk's rows.
        row(
            "quantize",
            &f.chunk,
            quantized,
            f.chunk.rows() * f.chunk.cols(),
            f.chunk.rows(),
            fingerprint(&quantized.dequantize()),
        ),
        row(
            "dequantize",
            &f.chunk,
            &f.chunk_q,
            f.chunk_q.rows() * f.chunk_q.cols(),
            f.chunk_q.rows(),
            fingerprint(dequantized),
        ),
        // The transposed GEMM tiles over the quantized operand's rows, the
        // value GEMM over its columns.
        row(
            "gemm_transposed",
            &f.queries,
            &f.keys_q,
            f.queries.rows() * f.keys_q.rows() * f.keys_q.cols(),
            f.keys_q.rows(),
            fingerprint(scores),
        ),
        row(
            "gemm_value",
            &f.probs,
            &f.values_q,
            f.probs.rows() * f.values_q.rows() * f.values_q.cols(),
            f.values_q.cols(),
            fingerprint(av),
        ),
    ];
    let note = format!(
        "Deterministic on every host: shapes, dispatcher work metrics, packed byte counts, \
         tile counts at 2/4 threads and output bit-fingerprints — no wall-clock numbers. \
         Wall-clock is enforced in-binary ({MAX_PARALLEL_OVER_SCALAR}x band) and displayed \
         by the criterion output. Threshold = {} work units; {} env var overrides the \
         thread count.",
        parallel::PARALLEL_THRESHOLD,
        parallel::KERNEL_THREADS_ENV
    );
    let rows = KernelRecord {
        parallel_threshold: parallel::PARALLEL_THRESHOLD,
        kernels,
        prefill_attention,
        decode_attention,
    };
    let json = record_json(
        "kernels",
        "Hot-kernel shapes, tile layouts and output fingerprints",
        &note,
        &rows,
    );
    println!("wrote {}", write_record("kernels", &json).display());
}

fn main() {
    let f = fixtures();
    let outputs = assert_bit_identity(&f);
    let prefill_attention = assert_prefill_attention_identity();
    let decode_attention = assert_decode_attention();
    let mut criterion = Criterion::default();
    bands_and_display(&mut criterion, &f);
    search_cost_display(&mut criterion);
    write_deterministic_record(&f, &outputs, prefill_attention, decode_attention);
}
