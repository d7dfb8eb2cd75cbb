//! Chunked key-value cache substrate for long-context LLM inference.
//!
//! The KV cache is the object every method in the Cocktail paper operates
//! on. This crate provides:
//!
//! * [`KvChunk`] — the KV tensors of one contiguous run of context tokens,
//!   stored either in FP16 or integer-quantized form.
//! * [`ChunkSegmentation`] — how a context of `n` tokens is split into
//!   equal-size chunks plus an FP16 remainder (the paper truncates the tail
//!   that does not divide evenly and keeps it at full precision).
//! * [`ChunkPermutation`] — a validated permutation of chunk indices with
//!   its inverse and its expansion to token level; this is the object the
//!   chunk-reordering module manipulates.
//! * [`ChunkedLayerCache`] / [`ChunkedKvCache`] — the per-(layer, head) and
//!   whole-model cache containers, including the FP16 decode tail for
//!   output tokens and [`ChunkedLayerCache::attend`], the one streaming
//!   decode-attention kernel over mixed-precision chunks.
//! * [`MemoryLayout`] — the physical byte layout of the chunks in a flat
//!   arena, with the statistics (bitwidth transitions, cache-line waste)
//!   that the hardware model in `cocktail-hwsim` consumes.
//! * [`SharedPrefixKv`] — refcounted raw KV blocks of a prompt prefix, the
//!   unit a serving-side prefix cache shares across requests so a common
//!   context is prefilled once instead of per request.
//! * [`TrieSnapshot`] / [`write_snapshot`] / [`read_snapshot`] — a flat,
//!   versioned, checksummed binary format that persists a prefix trie (and
//!   its shared KV blocks) across restarts and ships it to fresh replicas.
//!
//! # Example
//!
//! ```
//! use cocktail_kvcache::{ChunkSegmentation, ChunkedLayerCache};
//! use cocktail_quant::Bitwidth;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 100 context tokens, chunk size 32 -> 3 full chunks + 4 FP16 remainder.
//! let seg = ChunkSegmentation::new(100, 32)?;
//! assert_eq!(seg.chunk_count(), 3);
//! assert_eq!(seg.remainder_len(), 4);
//!
//! // Build a cache for one layer/head and quantize chunk 1 to INT2.
//! let k = cocktail_tensor::rng::gaussian_matrix(100, 16, 1.0, 1);
//! let v = cocktail_tensor::rng::gaussian_matrix(100, 16, 1.0, 2);
//! let mut cache = ChunkedLayerCache::from_prefill(&k, &v, &seg)?;
//! cache.quantize_chunk(1, Bitwidth::Int2, 32)?;
//! assert!(cache.storage_bytes() < 2 * 100 * 16 * 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod cache;
mod chunk;
mod error;
mod permutation;
mod segmentation;
mod shared;
mod snapshot;

pub use arena::{LayoutRegion, LayoutStats, MemoryLayout};
pub use cache::{ChunkedKvCache, ChunkedLayerCache};
pub use chunk::{ChunkStorage, KvChunk, OutlierPatch};
pub use error::KvCacheError;
pub use permutation::ChunkPermutation;
pub use segmentation::ChunkSegmentation;
pub use shared::{PrefixKvBlock, SharedPrefixKv};
pub use snapshot::{
    read_snapshot, write_snapshot, SnapshotError, SnapshotNode, TrieSnapshot, SNAPSHOT_BLOCK_ALIGN,
    SNAPSHOT_FORMAT_VERSION, SNAPSHOT_HEADER_LEN, SNAPSHOT_MAGIC,
};
