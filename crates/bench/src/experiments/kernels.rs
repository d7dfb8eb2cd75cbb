//! The hot-kernel record: shapes, dispatcher work metrics, packed byte
//! counts, tile layouts and output bit-fingerprints of the kernels behind
//! Module II — tiled quantize / dequantize and the fused FP x quantized
//! GEMMs, the streaming prefill attention with its (slot, head) tile
//! dispatch, and the streaming decode attention over reordered
//! INT2/INT4/FP16 runs.
//!
//! The record is the same on every host and at every kernel thread count,
//! so it is committed and gated byte for byte. That the tiled, streaming
//! and pooled forms equal their references is proved by the kernels' own
//! tests (`quant::parallel`, `quant::gemm`, `tensor::ops`, `model`,
//! `kvcache`); the fingerprints pin the bits those tests hold equal. The
//! kernels' speed — the parallel speed-up, the search cost — is the
//! benchmark's to judge (`quant.parallel_speedup_x`, `core.search_us`).

use super::{Finding, Findings};
use crate::print_rows;
use cocktail_kvcache::{ChunkSegmentation, ChunkedLayerCache, PrefixKvBlock, SharedPrefixKv};
use cocktail_model::{InferenceEngine, ModelProfile, PrefillSlot};
use cocktail_quant::{gemm, parallel, Bitwidth, QuantAxis, QuantConfig, QuantizedMatrix};
use cocktail_tensor::ops::{causal_attention, KvRows};
use cocktail_tensor::{rng, Matrix};
use serde::Serialize;

/// One tiled kernel shape in the record.
#[derive(Debug, Default, Serialize)]
pub(super) struct KernelRow {
    /// Kernel name (`quantize`, `dequantize`, `gemm_transposed`, `gemm_value`).
    pub kernel: String,
    /// Left/input operand shape, `rows x cols`.
    pub input_shape: String,
    /// Quantized operand shape, `rows x cols`.
    pub quant_shape: String,
    /// Integer bitwidth of the quantized operand.
    pub bitwidth: String,
    /// Quantization group size.
    pub group_size: usize,
    /// Work metric the dispatcher gates on (multiply-adds for the GEMMs,
    /// elements for quantize/dequantize).
    pub work: usize,
    /// Packed code bytes of the quantized operand.
    pub payload_bytes: usize,
    /// Scale/zero parameter bytes of the quantized operand.
    pub param_bytes: usize,
    /// Number of tiles the kernel splits into at 2 threads.
    pub tiles_at_2: usize,
    /// Number of tiles the kernel splits into at 4 threads.
    pub tiles_at_4: usize,
    /// Bit-fingerprint of the scalar kernel's output, which the tiled and
    /// reference forms equal bit for bit.
    pub fingerprint: i64,
}

/// The prefill-attention kernel in the record.
#[derive(Debug, Default, Serialize)]
pub(super) struct AttentionRow {
    /// Kernel name.
    pub kernel: String,
    /// One head's suffix queries, `rows x head_dim`.
    pub query_shape: String,
    /// Reused prefix rows ahead of the suffix keys.
    pub prefix_rows: usize,
    /// Causally visible (query, key) pairs of one head:
    /// `n(n+1)/2 + n * prefix` for `n` suffix rows.
    pub visible_pairs: usize,
    /// Bit-fingerprint of the kernel output (equal to the materialised
    /// score/mask/probability path).
    pub fingerprint: i64,
    /// Slots of the engine-level tiled prefill (one cold, one resumed).
    pub engine_slots: usize,
    /// Its slot-major (slot, head) tile list: the same at every thread
    /// count, `slots x heads` entries.
    pub engine_tiles: usize,
    /// The dispatcher's work metric of one of its layers (visible pairs of
    /// every slot x hidden width).
    pub engine_work: usize,
    /// Bit-fingerprint of its hidden states (equal inline and on the
    /// kernel pool).
    pub engine_fingerprint: i64,
}

/// The decode-attention kernel in the record.
#[derive(Debug, Default, Serialize)]
pub(super) struct DecodeRow {
    /// Kernel name.
    pub kernel: String,
    /// Query block, `rows x head_dim`.
    pub query_shape: String,
    /// Cached tokens: chunks, FP16 remainder and decode tail.
    pub cache_tokens: usize,
    /// Tokens per chunk.
    pub chunk_size: usize,
    /// Tokens in the INT2 run.
    pub int2_tokens: usize,
    /// Tokens in the INT4 run.
    pub int4_tokens: usize,
    /// Tokens in the FP16 run, the remainder and the decode tail.
    pub fp16_tokens: usize,
    /// Bit-fingerprint of the kernel output (close to dense attention over
    /// the dequantized cache; the bits are pinned here).
    pub fingerprint: i64,
}

/// The kernels report: the serialized fields are the record; the fixture's
/// slot work is checked but not recorded.
#[derive(Debug, Default, Serialize)]
pub(super) struct KernelsReport {
    /// The dispatcher's scalar/parallel cutover, in work units.
    pub parallel_threshold: usize,
    /// The tiled quantize, dequantize and GEMM kernels.
    pub kernels: Vec<KernelRow>,
    /// The streaming prefill-attention kernel and its tile dispatch.
    pub prefill_attention: AttentionRow,
    /// The streaming mixed-precision decode-attention kernel.
    pub decode_attention: DecodeRow,
    /// Work of each slot of the engine-level prefill, per layer.
    #[serde(skip)]
    pub engine_slot_work: Vec<usize>,
}

/// Order-sensitive bit-fingerprint of a matrix: any single-bit difference
/// in any element, or any reordering, changes the digest.
fn fingerprint(m: &Matrix) -> i64 {
    m.as_slice()
        .iter()
        .fold(0u32, |acc, v| acc.rotate_left(1) ^ v.to_bits()) as i64
}

/// The operands of the tiled kernels.
struct Fixtures {
    /// 512x128 activations for quantize/dequantize.
    chunk: Matrix,
    /// Its Int4 per-token group-32 quantized form.
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
    let quantized = |seed| {
        QuantizedMatrix::quantize(&rng::gaussian_matrix(1024, 128, 1.0, seed), &chunk_cfg)
            .expect("quantize operand")
    };
    let chunk = rng::gaussian_matrix(512, 128, 1.0, 11);
    Fixtures {
        chunk_q: QuantizedMatrix::quantize(&chunk, &chunk_cfg).expect("quantize chunk"),
        chunk,
        queries: rng::gaussian_matrix(8, 128, 1.0, 14),
        keys_q: quantized(12),
        probs: rng::gaussian_matrix(8, 1024, 1.0, 15),
        values_q: quantized(13),
    }
}

/// The record rows of the four tiled kernels, fingerprinted from their
/// scalar forms.
fn kernel_rows(f: &Fixtures) -> Vec<KernelRow> {
    let (x, xq, rows) = (&f.chunk, &f.chunk_q, f.chunk.rows());
    let (q, k, p, v) = (&f.queries, &f.keys_q, &f.probs, &f.values_q);
    let dq = xq.dequantize();
    let qk = gemm::fp_matmul_quant_transposed(q, k).expect("score gemm");
    let pv = gemm::fp_matmul_quant(p, v).expect("value gemm");
    let gemm_work = |a: &Matrix, bq: &QuantizedMatrix| a.rows() * bq.rows() * bq.cols();
    // (kernel, input, quantized operand, work, tiled extent, output):
    // quantize/dequantize tile over the chunk's rows, the transposed GEMM
    // over the quantized operand's rows, the value GEMM over its columns.
    [
        ("quantize", x, xq, rows * x.cols(), rows, &dq),
        ("dequantize", x, xq, rows * x.cols(), rows, &dq),
        ("gemm_transposed", q, k, gemm_work(q, k), k.rows(), &qk),
        ("gemm_value", p, v, gemm_work(p, v), v.cols(), &pv),
    ]
    .into_iter()
    .map(|(kernel, input, bq, work, tiled_n, output)| KernelRow {
        kernel: kernel.to_string(),
        input_shape: format!("{}x{}", input.rows(), input.cols()),
        quant_shape: format!("{}x{}", bq.rows(), bq.cols()),
        bitwidth: bq.bitwidth().to_string(),
        group_size: bq.config().group_size(),
        work,
        payload_bytes: bq.payload_bytes(),
        param_bytes: bq.param_bytes(),
        tiles_at_2: parallel::tile_ranges(tiled_n, 2).len(),
        tiles_at_4: parallel::tile_ranges(tiled_n, 4).len(),
        fingerprint: fingerprint(output),
    })
    .collect()
}

/// Suffix and reused-prefix rows of the kernel-level attention fixture.
const ATTENTION_SUFFIX: usize = 160;
const ATTENTION_PREFIX: usize = 96;
const ATTENTION_HEAD_DIM: usize = 16;

fn visible_pairs(suffix: usize, prefix: usize) -> usize {
    suffix * (suffix + 1) / 2 + suffix * prefix
}

/// The streaming prefill attention on a resumed shape, and the engine's
/// (slot, head) tiles over a batch of one cold and one resumed slot (GQA
/// profile). Returns the record row and each slot's work.
fn prefill_attention() -> (AttentionRow, Vec<usize>) {
    let kv_len = ATTENTION_PREFIX + ATTENTION_SUFFIX;
    let q = rng::gaussian_matrix(ATTENTION_SUFFIX, ATTENTION_HEAD_DIM, 1.0, 16);
    let k = rng::gaussian_matrix(kv_len, ATTENTION_HEAD_DIM, 1.0, 17);
    let v = rng::gaussian_matrix(kv_len, ATTENTION_HEAD_DIM, 1.0, 18);
    let suffix_start = ATTENTION_PREFIX * ATTENTION_HEAD_DIM;
    let rows = [
        KvRows::leading(&k, &v, ATTENTION_PREFIX),
        KvRows {
            k: &k.as_slice()[suffix_start..],
            v: &v.as_slice()[suffix_start..],
        },
    ];
    let scale = 1.0 / (ATTENTION_HEAD_DIM as f32).sqrt();
    let streamed = causal_attention(&q, rows, scale).expect("streaming attention");

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
    let slot_work: Vec<usize> = [
        visible_pairs(cold_prompt.len(), 0),
        visible_pairs(warm_prompt.len() - warm_prefix, warm_prefix),
    ]
    .iter()
    .map(|pairs| pairs * config.hidden_dim)
    .collect();
    let prefills = engine.prefill_batch(&slots).expect("prefill");
    let hidden: Vec<&Matrix> = prefills.iter().map(|p| &p.hidden).collect();
    let hidden = Matrix::concat_rows(&hidden).expect("hidden rows share the width");

    let row = AttentionRow {
        kernel: "prefill_attention".to_string(),
        query_shape: format!("{ATTENTION_SUFFIX}x{ATTENTION_HEAD_DIM}"),
        prefix_rows: ATTENTION_PREFIX,
        visible_pairs: visible_pairs(ATTENTION_SUFFIX, ATTENTION_PREFIX),
        fingerprint: fingerprint(&streamed),
        engine_slots: slots.len(),
        engine_tiles: slots.len() * config.n_heads,
        engine_work: slot_work.iter().sum(),
        engine_fingerprint: fingerprint(&hidden),
    };
    (row, slot_work)
}

/// Shape of the decode-attention fixture: 15 chunks of 32 tokens laid out
/// as Module II leaves them — six INT2, six INT4, three FP16 — then a
/// 20-token remainder and a 3-token decode tail.
const DECODE_CONTEXT: usize = 500;
const DECODE_CHUNK: usize = 32;
const DECODE_HEAD_DIM: usize = 64;
const DECODE_TAIL: usize = 3;
const DECODE_QUERIES: usize = 2;

/// The streaming decode attention over a mixed-precision cache.
fn decode_attention() -> DecodeRow {
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

/// The kernel record.
pub(super) fn kernels() -> (String, KernelsReport) {
    let f = fixtures();
    let (prefill_attention, engine_slot_work) = prefill_attention();
    let report = KernelsReport {
        parallel_threshold: parallel::PARALLEL_THRESHOLD,
        kernels: kernel_rows(&f),
        prefill_attention,
        decode_attention: decode_attention(),
        engine_slot_work,
    };
    print_rows(
        "Hot kernels: shapes, tile layouts and output fingerprints",
        &report.kernels,
    );
    let note = format!(
        "Deterministic on every host and at every kernel thread count: shapes, dispatcher work \
         metrics, packed byte counts, tile counts at 2/4 threads and output bit-fingerprints — \
         no wall-clock numbers. Threshold = {} work units; {} env var overrides the thread \
         count.",
        parallel::PARALLEL_THRESHOLD,
        parallel::KERNEL_THREADS_ENV
    );
    (note, report)
}

/// The kernel record's invariants.
pub(super) fn check_kernels(report: &KernelsReport) -> Vec<Finding> {
    let mut findings = Findings::default();
    for (slot, work) in report.engine_slot_work.iter().enumerate() {
        findings.require(
            *work >= report.parallel_threshold,
            format!(
                "prefill slot {slot} does {work} work units per layer, below the {} parallel \
                 threshold: the tiled prefill fixture never forks",
                report.parallel_threshold
            ),
        );
    }
    findings.0
}
