//! # Cocktail
//!
//! A from-scratch Rust reproduction of *"Cocktail: Chunk-Adaptive
//! Mixed-Precision Quantization for Long-Context LLM Inference"*
//! (DATE 2025).
//!
//! This facade crate re-exports the public API of every workspace member so
//! that downstream users can depend on a single crate:
//!
//! * [`tensor`] — dense linear algebra, FP16 rounding, RoPE, softmax.
//! * [`quant`] — INT2/INT4/INT8 group quantization and fused quantized GEMM.
//! * [`kvcache`] — the chunked KV-cache substrate with physical layout.
//! * [`model`] — a decoder-only transformer inference engine.
//! * [`retrieval`] — chunk scorers (Contriever-style dense encoders, BM25).
//! * [`baselines`] — FP16 / Atom / KIVI / KVQuant cache policies.
//! * [`core`] — the Cocktail method itself (search, reordering, block-wise
//!   mixed-precision attention, end-to-end pipeline).
//! * [`workloads`] — LongBench-style synthetic tasks and accuracy metrics.
//! * [`hwsim`] — the analytic GPU memory/latency/throughput model.
//! * [`server`] — the HTTP/1.1 serving gateway: SSE token streaming,
//!   disconnect-cancel, and admission backpressure over the engine.
//!
//! # Quickstart
//!
//! ```
//! use cocktail::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a small simulated model profile and a synthetic QA task.
//! let profile = ModelProfile::tiny();
//! let task = TaskGenerator::qasper(WorkloadConfig::tiny()).generate(42);
//!
//! // Run the Cocktail pipeline end to end: prefill, chunk-level search,
//! // reorder + quantize the KV cache, decode over the compressed cache.
//! let config = CocktailConfig::default().with_chunk_size(16)?;
//! let pipeline = CocktailPipeline::new(profile, config)?;
//! let outcome = pipeline.run(&task.context, &task.query, 8)?;
//! assert!(!outcome.answer.is_empty());
//! assert!(outcome.compression_ratio() >= 1.0);
//! # Ok(())
//! # }
//! ```

pub use cocktail_baselines as baselines;
pub use cocktail_core as core;
pub use cocktail_hwsim as hwsim;
pub use cocktail_kvcache as kvcache;
pub use cocktail_model as model;
pub use cocktail_quant as quant;
pub use cocktail_retrieval as retrieval;
pub use cocktail_server as server;
pub use cocktail_tensor as tensor;
pub use cocktail_workloads as workloads;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use cocktail_baselines::{
        AtomPolicy, CachePolicy, Fp16Policy, KiviPolicy, KvQuantPolicy, PolicyContext, PolicyReport,
    };
    pub use cocktail_core::{
        AdmitDecision, BatchScheduler, BitwidthPlan, ChunkQuantSearch, CocktailConfig,
        CocktailOutcome, CocktailPipeline, CocktailPolicy, FinishReason, PipelineTimings,
        PrefixCache, PrefixCacheConfig, PrefixCacheStats, RequestId, RequestOutcome, RequestState,
        RestoreReport, RouterConfig, SamplerChain, SamplingParams, SchedulerConfig, ServeRequest,
        ServeRequestBuilder, ServingEngine, ServingStats, SnapshotReport, TokenEvent,
    };
    pub use cocktail_hwsim::{AcceleratorSpec, DeploymentModel, KvCacheProfile, RequestShape};
    pub use cocktail_kvcache::{
        read_snapshot, write_snapshot, ChunkPermutation, ChunkSegmentation, ChunkedKvCache,
        ChunkedLayerCache, KvChunk, PrefixKvBlock, SharedPrefixKv, SnapshotError, TrieSnapshot,
        SNAPSHOT_FORMAT_VERSION,
    };
    pub use cocktail_model::{
        BatchPrefill, DecodeSlot, InferenceEngine, ModelConfig, ModelProfile, PrefillSlot,
        Tokenizer,
    };
    pub use cocktail_quant::{Bitwidth, QuantAxis, QuantConfig, QuantizedMatrix};
    pub use cocktail_retrieval::{Bm25, ChunkScorer, ContrieverSim, EncoderKind};
    pub use cocktail_server::{
        AdminRestoreResponse, AdminSnapshotResponse, EngineSettings, GatewayClient, GatewayConfig,
        GatewayServer, GenerateRequest, GenerateResponse, ReplicaStats, SnapshotRequest,
        StatsResponse, StreamEvent, VersionResponse,
    };
    pub use cocktail_tensor::Matrix;
    pub use cocktail_workloads::eval::{EvalConfig, Evaluator};
    pub use cocktail_workloads::{
        TaskGenerator, TaskInstance, TaskKind, TrafficConfig, TrafficGenerator, TrafficRequest,
        WorkloadConfig,
    };
}
