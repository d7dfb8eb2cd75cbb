//! Retrieval substrate for chunk-level quantization search.
//!
//! Module I of the Cocktail paper scores every context chunk against the
//! query with a retrieval encoder (Facebook-Contriever in the paper, with
//! ADA-002, BM25 and LLM-Embedder as ablation alternatives in Table IV).
//! Pretrained encoders are not available in this reproduction, so this
//! crate provides deterministic stand-ins that preserve what matters for
//! the method: a [`ChunkScorer`] ranks answer-bearing chunks above
//! irrelevant ones, with encoder-dependent quality.
//!
//! * [`ContrieverSim`], `LlmEmbedderSim`, `AdaSim` — hashed
//!   bag-of-words dense encoders with IDF weighting and random projection,
//!   at decreasing embedding width / increasing noise so their retrieval
//!   quality is ordered the same way as in the paper's Table IV.
//! * [`Bm25`] — a faithful classical BM25 implementation.
//! * [`chunking`] — splitting a long context into fixed-size word chunks
//!   aligned with the KV-cache chunk segmentation.
//! * [`similarity_matrix`] — the query × chunk score matrix behind the
//!   paper's Figure 1 heatmap.
//!
//! # Example
//!
//! ```
//! use cocktail_retrieval::{chunking, ChunkScorer, ContrieverSim};
//!
//! let context = "the sky is blue today. \
//!                the treasury code is zebra-nine-one. \
//!                bananas are rich in potassium.";
//! let chunks = chunking::chunk_words(context, 6);
//! let scorer = ContrieverSim::new();
//! let scores = scorer.score("what is the treasury code?", &chunks);
//! let best = scores
//!     .iter()
//!     .enumerate()
//!     .max_by(|a, b| a.1.total_cmp(b.1))
//!     .map(|(i, _)| i)
//!     .unwrap();
//! assert!(chunks[best].contains("treasury"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bm25;
pub mod chunking;
mod dense;
mod scorer;
mod similarity;

pub use bm25::Bm25;
pub use dense::{ContrieverSim, DenseEncoder};
pub use scorer::{ChunkScorer, EncoderKind};
pub use similarity::similarity_matrix;
