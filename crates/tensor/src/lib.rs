//! Dense linear-algebra primitives used throughout the Cocktail reproduction.
//!
//! The crate provides exactly the operations a decoder-only transformer
//! inference engine with a quantized KV cache needs, implemented from
//! scratch on plain `Vec<f32>` storage:
//!
//! * [`Matrix`] — a row-major 2-D tensor with blocked matrix multiplication,
//!   transposition, row-wise softmax (with additive masks) and norms.
//! * [`F16`] — an IEEE-754 binary16 value with exact bit-level conversion,
//!   used to model FP16 KV-cache storage without pulling in a dependency.
//! * [`ops`] — free functions for RMS normalisation, rotary position
//!   embeddings (RoPE), SiLU, cosine similarity and friends.
//! * [`rng`] — deterministic, seedable random initialisation helpers so that
//!   every experiment in the paper reproduction is bit-for-bit repeatable.
//!
//! # Example
//!
//! ```
//! use cocktail_tensor::Matrix;
//!
//! # fn main() -> Result<(), cocktail_tensor::ShapeError> {
//! let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod f16;
mod matrix;
pub mod ops;
pub mod rng;
mod vector;

pub use error::ShapeError;
pub use f16::F16;
pub use matrix::Matrix;
pub use vector::{cosine_similarity, dot, l2_norm};
