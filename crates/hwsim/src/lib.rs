//! Analytic accelerator model for KV-cache quantization experiments.
//!
//! The paper's memory, time-per-output-token (TPOT) and throughput figures
//! (Figures 4–6, Table V) were measured on an NVIDIA A800. This crate
//! models the same quantities from first principles so the experiments can
//! be regenerated without the hardware:
//!
//! * [`AcceleratorSpec`] — capacity, bandwidth, cache-line size and kernel
//!   overhead constants of the accelerator (an A800-like preset is
//!   provided).
//! * [`KvCacheProfile`] — what a quantization policy did to the cache, in
//!   hardware-relevant terms: the fraction of context tokens at each
//!   bitwidth, the outlier fraction, whether same-precision data is
//!   physically contiguous (Module II) and what kind of bitwidth search ran.
//! * [`DeploymentModel`] — combines an accelerator, a full-size model
//!   dimension sheet and a request shape (context length, output length,
//!   batch size) and produces GPU memory, TPOT and throughput estimates,
//!   including out-of-memory detection for the batch sweep of Figure 6.
//!
//! The model is first-order and documented in `DESIGN.md`: decode latency
//! is dominated by reading weights plus the KV cache from HBM, with
//! additive penalties for dequantization work, per-precision kernel
//! switches, token-level search and non-contiguous mixed-precision layouts.
//! Absolute numbers are not expected to match the paper's testbed; the
//! relative ordering and trends are.
//!
//! # Example
//!
//! ```
//! use cocktail_hwsim::{AcceleratorSpec, DeploymentModel, KvCacheProfile, RequestShape};
//! use cocktail_model::ModelProfile;
//!
//! let model = DeploymentModel::new(
//!     AcceleratorSpec::a800(),
//!     ModelProfile::llama2_7b_sim().full().clone(),
//!     RequestShape::new(4096, 128),
//! );
//! let fp16 = model.gpu_memory_bytes(&KvCacheProfile::fp16(), 1);
//! let cocktail = model.gpu_memory_bytes(&KvCacheProfile::cocktail_default(), 1);
//! assert!(cocktail < fp16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deployment;
mod profile;
mod spec;

pub use deployment::{DeploymentModel, LatencyBreakdown, RequestShape, ThroughputPoint};
pub use profile::{KvCacheProfile, SearchKind};
pub use spec::AcceleratorSpec;
