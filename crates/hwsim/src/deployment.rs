//! The deployment model: GPU memory, TPOT and throughput estimates.

use crate::profile::{KvCacheProfile, SearchKind};
use crate::spec::AcceleratorSpec;
use cocktail_model::ModelConfig;
use serde::{Deserialize, Serialize};

/// Shape of one inference request: how long the context is and how many
/// tokens are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestShape {
    /// Context (prompt) length in tokens.
    pub context_len: usize,
    /// Number of generated output tokens (the paper uses 128).
    pub output_len: usize,
}

impl RequestShape {
    /// Creates a request shape.
    pub fn new(context_len: usize, output_len: usize) -> Self {
        Self {
            context_len,
            output_len,
        }
    }

    /// The paper's output length (128 tokens) with the given context.
    pub fn with_context(context_len: usize) -> Self {
        Self::new(context_len, 128)
    }
}

/// Additive components of the per-decode-step latency (TPOT).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Time to stream the model weights from HBM.
    pub weight_read_s: f64,
    /// Time to stream the (compressed) KV cache from HBM, including the
    /// cache-line inefficiency of non-contiguous layouts.
    pub kv_read_s: f64,
    /// Time spent dequantizing integer KV data.
    pub dequant_s: f64,
    /// Kernel-launch overhead (one launch per contiguous precision block
    /// per layer, or per chunk run when the layout is interleaved).
    pub kernel_launch_s: f64,
    /// Extra gather cost for sparse FP16 outlier patches (KVQuant).
    pub outlier_gather_s: f64,
}

impl LatencyBreakdown {
    /// Total decode-step latency in seconds.
    pub fn total_s(&self) -> f64 {
        self.weight_read_s
            + self.kv_read_s
            + self.dequant_s
            + self.kernel_launch_s
            + self.outlier_gather_s
    }

    /// Total decode-step latency in microseconds (the unit of Table V).
    pub fn total_us(&self) -> f64 {
        self.total_s() * 1e6
    }
}

/// One point of the throughput-versus-batch sweep (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputPoint {
    /// Batch size (number of concurrent requests).
    pub batch: usize,
    /// Estimated GPU memory at this batch size, in bytes.
    pub memory_bytes: usize,
    /// Whether the batch fits in usable HBM; when `false` the point is an
    /// out-of-memory point and `tokens_per_s` is `None` (the interrupted
    /// lines of Figure 6).
    pub fits: bool,
    /// Generated tokens per second across the whole batch.
    pub tokens_per_s: Option<f64>,
}

/// Combines an accelerator, a full-size model dimension sheet and a request
/// shape into memory / latency / throughput estimates for any
/// [`KvCacheProfile`].
///
/// # Example
///
/// ```
/// use cocktail_hwsim::{AcceleratorSpec, DeploymentModel, KvCacheProfile, RequestShape};
/// use cocktail_model::ModelProfile;
///
/// let model = DeploymentModel::new(
///     AcceleratorSpec::a800(),
///     ModelProfile::llama2_7b_sim().full().clone(),
///     RequestShape::with_context(3968),
/// );
/// let fp16 = model.tpot(&KvCacheProfile::fp16(), 16);
/// let cocktail = model.tpot(&KvCacheProfile::cocktail_default(), 16);
/// assert!(cocktail.total_s() < fp16.total_s());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentModel {
    spec: AcceleratorSpec,
    model: ModelConfig,
    request: RequestShape,
}

impl DeploymentModel {
    /// Creates a deployment model.
    pub fn new(spec: AcceleratorSpec, model: ModelConfig, request: RequestShape) -> Self {
        Self {
            spec,
            model,
            request,
        }
    }

    /// The accelerator specification.
    pub fn spec(&self) -> &AcceleratorSpec {
        &self.spec
    }

    /// The model dimension sheet.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The request shape.
    pub fn request(&self) -> &RequestShape {
        &self.request
    }

    /// Number of KV scalars cached per token (keys + values, all layers and
    /// KV heads).
    pub(crate) fn kv_values_per_token(&self) -> usize {
        2 * self.model.n_layers * self.model.n_kv_heads * self.model.head_dim()
    }

    /// KV-cache bytes for the *context* portion of one request under the
    /// given profile.
    pub(crate) fn context_kv_bytes(&self, profile: &KvCacheProfile) -> f64 {
        self.kv_values_per_token() as f64
            * self.request.context_len as f64
            * profile.bytes_per_value()
    }

    /// KV-cache bytes for the generated output tokens (always FP16, as in
    /// the paper).
    pub(crate) fn output_kv_bytes(&self, generated_so_far: usize) -> f64 {
        self.kv_values_per_token() as f64 * generated_so_far as f64 * 2.0
    }

    /// Peak activation workspace per sequence (a small prefill-dominated
    /// term).
    fn activation_bytes_per_seq(&self) -> f64 {
        // Hidden states plus attention workspace for the longest sequence,
        // double-buffered in FP16.
        4.0 * self.request.context_len as f64 * self.model.hidden_dim as f64 * 2.0
    }

    /// Estimated total GPU memory for a batch of requests under the given
    /// cache profile (weights + KV cache + activations).
    pub fn gpu_memory_bytes(&self, profile: &KvCacheProfile, batch: usize) -> usize {
        let weights = self.model.weight_bytes_fp16() as f64;
        let per_seq = self.context_kv_bytes(profile)
            + self.output_kv_bytes(self.request.output_len)
            + self.activation_bytes_per_seq();
        (weights + batch as f64 * per_seq) as usize
    }

    /// Whether a batch of requests fits in usable HBM.
    pub(crate) fn fits(&self, profile: &KvCacheProfile, batch: usize) -> bool {
        self.gpu_memory_bytes(profile, batch) <= self.spec.usable_capacity_bytes()
    }

    /// The largest batch size that still fits (linear search up to `limit`).
    pub fn max_batch(&self, profile: &KvCacheProfile, limit: usize) -> usize {
        (1..=limit)
            .take_while(|&b| self.fits(profile, b))
            .last()
            .unwrap_or(0)
    }

    /// Bitwidth-search latency for a whole batch of requests.
    ///
    /// Cocktail's chunk-level search is one batched pass of a small encoder:
    /// a fixed setup cost plus a cheap per-chunk term, so it amortizes as
    /// the batch grows. KVQuant's token-level search scans every cached
    /// token of every layer per request and scales linearly with the batch,
    /// which is why its throughput never catches up (Figure 6).
    pub(crate) fn search_latency_s(&self, profile: &KvCacheProfile, batch: usize) -> f64 {
        if batch == 0 {
            return 0.0;
        }
        match profile.search {
            SearchKind::None => 0.0,
            SearchKind::ChunkLevel => {
                let chunks = (self.request.context_len / profile.group_size.max(1)) as f64;
                self.spec.search_setup_s
                    + batch as f64 * (chunks + 1.0) / self.spec.encoder_chunks_per_s
            }
            SearchKind::TokenLevel => {
                let token_layer = self.request.context_len as f64 * self.model.n_layers as f64;
                batch as f64 * token_layer / self.spec.token_scan_per_s
            }
        }
    }

    /// Decode-step latency (TPOT) for a batch of requests whose caches all
    /// follow the given profile. The decode output tokens accumulated so
    /// far are approximated by half the output length.
    pub fn tpot(&self, profile: &KvCacheProfile, batch: usize) -> LatencyBreakdown {
        let bw = self.spec.hbm_bandwidth_bytes_per_s;
        let weight_read_s = self.model.weight_bytes_fp16() as f64 / bw;

        let context_bytes = self.context_kv_bytes(profile);
        let output_bytes = self.output_kv_bytes(self.request.output_len / 2);
        // Non-contiguous mixed-precision layouts touch extra cache lines at
        // every precision boundary; charge a flat read-amplification factor
        // derived from one extra cache line per chunk boundary.
        let layout_amplification = if profile.grouped_layout || profile.precision_levels() <= 1 {
            1.0
        } else {
            let chunk_bytes = profile.group_size as f64
                * self.kv_values_per_token() as f64
                * profile.bytes_per_value()
                / self.request.context_len.max(1) as f64
                * profile.group_size as f64;
            let per_chunk_waste = self.spec.cache_line_bytes as f64 / chunk_bytes.max(1.0);
            1.0 + per_chunk_waste.min(0.25)
        };
        let kv_read_s = batch as f64 * (context_bytes * layout_amplification + output_bytes) / bw;

        // Dequantization: proportional to the number of quantized values,
        // weighted by how many bits each value unpacks.
        let values = self.kv_values_per_token() as f64 * self.request.context_len as f64;
        let mut dequant_weight = 0.0;
        for (&bits, &fraction) in &profile.fractions {
            if bits.is_integer() {
                dequant_weight += fraction * bits.bits() as f64 / 4.0;
            }
        }
        let dequant_s = batch as f64 * values * dequant_weight / self.spec.dequant_elems_per_s;

        // Kernel launches: one fused GEMM pair (QKᵀ and AV) per contiguous
        // precision run per layer.
        let runs_per_layer = if profile.grouped_layout {
            profile.precision_levels() as f64
        } else {
            let chunks = (self.request.context_len / profile.group_size.max(1)) as f64;
            let mix: f64 = profile.fractions.values().map(|f| f * f).sum();
            (chunks * (1.0 - mix)).max(1.0) + 1.0
        };
        let kernel_launch_s =
            2.0 * runs_per_layer * self.model.n_layers as f64 * self.spec.kernel_launch_s;

        // Sparse outlier patches require a gather pass over their tokens.
        let outlier_values = values * profile.outlier_fraction;
        let outlier_gather_s = batch as f64 * outlier_values * 4.0 / self.spec.dequant_elems_per_s;

        LatencyBreakdown {
            weight_read_s,
            kv_read_s,
            dequant_s,
            kernel_launch_s,
            outlier_gather_s,
        }
    }

    /// Prefill latency estimate (compute-bound): `2 · params · tokens / FLOPs`.
    pub(crate) fn prefill_latency_s(&self, batch: usize) -> f64 {
        2.0 * self.model.parameter_count() as f64 * self.request.context_len as f64 * batch as f64
            / self.spec.fp16_flops_per_s
    }

    /// End-to-end throughput (generated tokens per second) for a batch of
    /// identical requests, or an OOM point when the batch does not fit.
    pub fn throughput(&self, profile: &KvCacheProfile, batch: usize) -> ThroughputPoint {
        let memory_bytes = self.gpu_memory_bytes(profile, batch);
        if !self.fits(profile, batch) || batch == 0 {
            return ThroughputPoint {
                batch,
                memory_bytes,
                fits: false,
                tokens_per_s: None,
            };
        }
        let search_s = self.search_latency_s(profile, batch);
        let prefill_s = self.prefill_latency_s(batch);
        let decode_s = self.request.output_len as f64 * self.tpot(profile, batch).total_s();
        let total_s = search_s + prefill_s + decode_s;
        let tokens = (batch * self.request.output_len) as f64;
        ThroughputPoint {
            batch,
            memory_bytes,
            fits: true,
            tokens_per_s: Some(tokens / total_s),
        }
    }

    /// Runs the throughput sweep of Figure 6 over the given batch sizes.
    pub fn throughput_sweep(
        &self,
        profile: &KvCacheProfile,
        batches: &[usize],
    ) -> Vec<ThroughputPoint> {
        batches
            .iter()
            .map(|&b| self.throughput(profile, b))
            .collect()
    }

    /// Convenience: GPU memory in GiB.
    pub fn gpu_memory_gib(&self, profile: &KvCacheProfile, batch: usize) -> f64 {
        self.gpu_memory_bytes(profile, batch) as f64 / (1u64 << 30) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_model::ModelProfile;

    fn model_7b(context: usize) -> DeploymentModel {
        DeploymentModel::new(
            AcceleratorSpec::a800(),
            ModelProfile::llama2_7b_sim().full().clone(),
            RequestShape::with_context(context),
        )
    }

    fn model_longchat(context: usize) -> DeploymentModel {
        DeploymentModel::new(
            AcceleratorSpec::a800(),
            ModelProfile::longchat_7b_sim().full().clone(),
            RequestShape::with_context(context),
        )
    }

    #[test]
    fn fp16_memory_for_llama2_7b_is_plausible() {
        let m = model_7b(3968);
        let gib = m.gpu_memory_gib(&KvCacheProfile::fp16(), 1);
        // Weights ~12.6 GiB + ~2 GiB KV + activations: Table V reports
        // 17.13 GB for this setting; accept a generous band.
        assert!((13.0..20.0).contains(&gib), "got {gib:.2} GiB");
    }

    #[test]
    fn cocktail_reduces_memory_within_the_papers_band() {
        // Figure 4: 12–42 % GPU-memory reduction versus FP16 across the four
        // models; short-context models sit at the low end, 32K-context
        // models at the high end.
        let short = model_7b(3968);
        let fp16 = short.gpu_memory_gib(&KvCacheProfile::fp16(), 1);
        let cocktail = short.gpu_memory_gib(&KvCacheProfile::cocktail_default(), 1);
        let reduction_short = (fp16 - cocktail) / fp16;
        assert!(
            (0.05..0.45).contains(&reduction_short),
            "short-context reduction {reduction_short:.2}"
        );

        let long = model_longchat(32 * 1024 - 128);
        let fp16 = long.gpu_memory_gib(&KvCacheProfile::fp16(), 1);
        let cocktail = long.gpu_memory_gib(&KvCacheProfile::cocktail_default(), 1);
        let reduction_long = (fp16 - cocktail) / fp16;
        assert!(
            reduction_long > reduction_short,
            "long contexts must benefit more: {reduction_long:.2} vs {reduction_short:.2}"
        );
        assert!(reduction_long < 0.6);
    }

    #[test]
    fn without_reorder_memory_exceeds_fp16() {
        // Table V: w/o Module II uses more memory than even the FP16
        // baseline because packed sub-FP16 storage is lost.
        let m = model_7b(3968);
        let fp16 = m.gpu_memory_bytes(&KvCacheProfile::fp16(), 1);
        let no_reorder = m.gpu_memory_bytes(&KvCacheProfile::cocktail_without_reorder(), 1);
        let cocktail = m.gpu_memory_bytes(&KvCacheProfile::cocktail_default(), 1);
        assert!(no_reorder > fp16);
        assert!(cocktail < fp16);
    }

    #[test]
    fn tpot_ordering_matches_figure_5() {
        let m = model_7b(3968);
        let batch = 16;
        let fp16 = m.tpot(&KvCacheProfile::fp16(), batch).total_s();
        let atom = m.tpot(&KvCacheProfile::atom_int4(), batch).total_s();
        let kvq = m.tpot(&KvCacheProfile::kvquant_default(), batch).total_s();
        let cocktail = m.tpot(&KvCacheProfile::cocktail_default(), batch).total_s();
        let no_reorder = m
            .tpot(&KvCacheProfile::cocktail_without_reorder(), batch)
            .total_s();
        assert!(cocktail < atom, "cocktail {cocktail} vs atom {atom}");
        assert!(atom < fp16);
        assert!(kvq < fp16 && kvq >= atom);
        assert!(no_reorder > cocktail, "reordering must help TPOT");
        let reduction = (fp16 - cocktail) / fp16;
        assert!(
            (0.2..0.6).contains(&reduction),
            "TPOT reduction {reduction:.2} outside the paper's 32–52 % band (with slack)"
        );
    }

    #[test]
    fn search_latency_ordering() {
        let m = model_7b(3968);
        let none = m.search_latency_s(&KvCacheProfile::atom_int4(), 1);
        let chunk = m.search_latency_s(&KvCacheProfile::cocktail_default(), 1);
        let token = m.search_latency_s(&KvCacheProfile::kvquant_default(), 1);
        assert_eq!(none, 0.0);
        assert!(chunk > 0.0);
        assert!(
            token > chunk,
            "token-level search must cost more than chunk-level"
        );
        // Chunk-level search amortizes with the batch; token-level does not.
        let chunk_64 = m.search_latency_s(&KvCacheProfile::cocktail_default(), 64);
        let token_64 = m.search_latency_s(&KvCacheProfile::kvquant_default(), 64);
        assert!(
            chunk_64 / 64.0 < chunk,
            "per-request chunk search must shrink with batch"
        );
        assert!((token_64 / 64.0 - token).abs() / token < 1e-6);
    }

    #[test]
    fn throughput_crossover_between_cocktail_and_uniform() {
        // Figure 6: at batch 1 Cocktail's search overhead makes it slightly
        // slower than uniform quantization; at large batch its lower TPOT
        // wins.
        let m = model_7b(3968);
        let cocktail = KvCacheProfile::cocktail_default();
        let atom = KvCacheProfile::atom_int4();
        let small_c = m.throughput(&cocktail, 1).tokens_per_s.unwrap();
        let small_a = m.throughput(&atom, 1).tokens_per_s.unwrap();
        assert!(
            small_c <= small_a,
            "at batch 1: cocktail {small_c} vs atom {small_a}"
        );
        let big_batch = m.max_batch(&cocktail, 512).min(m.max_batch(&atom, 512));
        assert!(big_batch > 8);
        let big_c = m.throughput(&cocktail, big_batch).tokens_per_s.unwrap();
        let big_a = m.throughput(&atom, big_batch).tokens_per_s.unwrap();
        assert!(
            big_c > big_a,
            "at batch {big_batch}: cocktail {big_c} vs atom {big_a}"
        );
    }

    #[test]
    fn cocktail_throughput_always_beats_kvquant() {
        let m = model_7b(3968);
        let cocktail = KvCacheProfile::cocktail_default();
        let kvq = KvCacheProfile::kvquant_default();
        for batch in [1usize, 4, 16, 64] {
            let c = m.throughput(&cocktail, batch);
            let k = m.throughput(&kvq, batch);
            if let (Some(c), Some(k)) = (c.tokens_per_s, k.tokens_per_s) {
                assert!(c > k, "batch {batch}: cocktail {c} vs kvquant {k}");
            }
        }
    }

    #[test]
    fn oom_appears_first_for_fp16() {
        let m = model_longchat(32 * 1024 - 128);
        let fp16_max = m.max_batch(&KvCacheProfile::fp16(), 512);
        let atom_max = m.max_batch(&KvCacheProfile::atom_int4(), 512);
        let cocktail_max = m.max_batch(&KvCacheProfile::cocktail_default(), 512);
        assert!(fp16_max < atom_max, "fp16 {fp16_max} vs atom {atom_max}");
        assert!(fp16_max < cocktail_max);
        let oom_point = m.throughput(&KvCacheProfile::fp16(), fp16_max + 1);
        assert!(!oom_point.fits);
        assert!(oom_point.tokens_per_s.is_none());
    }

    #[test]
    fn throughput_increases_with_batch_until_oom() {
        let m = model_7b(3968);
        let profile = KvCacheProfile::cocktail_default();
        let sweep = m.throughput_sweep(&profile, &[1, 2, 4, 8, 16, 32]);
        let values: Vec<f64> = sweep.iter().filter_map(|p| p.tokens_per_s).collect();
        assert!(values.len() >= 4);
        assert!(values.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn gqa_model_uses_less_kv_memory() {
        let mha = model_longchat(31 * 1024);
        let gqa = DeploymentModel::new(
            AcceleratorSpec::a800(),
            ModelProfile::mistral_7b_sim().full().clone(),
            RequestShape::with_context(31 * 1024),
        );
        let profile = KvCacheProfile::fp16();
        assert!(gqa.context_kv_bytes(&profile) < mha.context_kv_bytes(&profile));
    }
}
