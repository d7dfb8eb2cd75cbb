//! Integer quantization kernels for KV-cache compression.
//!
//! This crate implements the quantization substrate every method in the
//! Cocktail paper relies on:
//!
//! * [`Bitwidth`] — the precision levels used by the paper (INT2, INT4,
//!   INT8 and FP16 pass-through).
//! * [`QuantizedMatrix`] — asymmetric uniform *group* quantization of a
//!   row-major matrix with bit-packed storage and exact byte accounting.
//! * [`QuantAxis`] — per-token (row) or per-channel (column) grouping, the
//!   distinction at the heart of KIVI's key/value treatment.
//! * [`gemm`] — fused kernels that multiply an FP32/FP16 activation by a
//!   quantized matrix, dequantizing group by group on the fly (the `fqm`
//!   primitive of the paper's Algorithm 1).
//! * [`parallel`] — the persistent [`parallel::KernelPool`] and
//!   threshold-gated data-parallel dispatchers over the kernels above:
//!   large operands are tiled across pool workers and stitched in
//!   deterministic tile order (bit-identical to the scalar paths at every
//!   thread count), small operands stay scalar and pay no dispatch
//!   overhead.
//! * [`error`] — quantization error metrics used by the evaluation harness.
//!
//! # Example
//!
//! ```
//! use cocktail_quant::{Bitwidth, QuantAxis, QuantConfig, QuantizedMatrix};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let kv = cocktail_tensor::rng::uniform_matrix(64, 32, 1.0, 7);
//! let config = QuantConfig::new(Bitwidth::Int4, QuantAxis::PerToken, 32)?;
//! let q = QuantizedMatrix::quantize(&kv, &config)?;
//! let restored = q.dequantize();
//! assert!(kv.mse(&restored)? < 1e-2);
//! assert!(q.storage_bytes() < 64 * 32 * 2); // smaller than FP16
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitwidth;
mod config;
pub mod error;
pub mod gemm;
mod packed;
pub mod parallel;
mod quantized;

pub use bitwidth::Bitwidth;
pub use config::{QuantAxis, QuantConfig, QuantError};
pub use packed::PackedInts;
pub use quantized::QuantizedMatrix;
