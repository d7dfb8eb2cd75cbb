//! Quantization configuration: precision, grouping axis and group size.

use crate::bitwidth::Bitwidth;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// The axis along which quantization groups are formed.
///
/// The distinction matters because key and value tensors have different
/// outlier structure: KIVI observed that key outliers are concentrated in a
/// few *channels* (columns) while value magnitudes vary per *token* (row),
/// so it quantizes keys per channel and values per token. Atom and Cocktail
/// use per-token grouping for both.
///
/// # Example
///
/// ```
/// use cocktail_quant::QuantAxis;
///
/// assert_ne!(QuantAxis::PerToken, QuantAxis::PerChannel);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuantAxis {
    /// Groups run along each row (one token's head vector). This is the
    /// layout used for values by every method and for keys by Atom/Cocktail.
    PerToken,
    /// Groups run down each column (one channel across tokens). Used by
    /// KIVI for the key cache.
    PerChannel,
}

impl QuantAxis {
    /// Short lowercase name used in experiment output.
    pub const fn name(self) -> &'static str {
        match self {
            QuantAxis::PerToken => "per-token",
            QuantAxis::PerChannel => "per-channel",
        }
    }
}

impl fmt::Display for QuantAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error raised when a quantization configuration or operation is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantError {
    /// The group size was zero.
    ZeroGroupSize,
    /// FP16 was requested where an integer precision is required.
    FloatBitwidth,
    /// A matrix dimension is incompatible with the configuration.
    Incompatible(String),
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::ZeroGroupSize => write!(f, "group size must be nonzero"),
            QuantError::FloatBitwidth => {
                write!(f, "integer bitwidth required, got fp16 pass-through")
            }
            QuantError::Incompatible(detail) => {
                write!(f, "incompatible quantization operands: {detail}")
            }
        }
    }
}

impl Error for QuantError {}

/// Complete description of how a matrix is to be quantized.
///
/// # Example
///
/// ```
/// use cocktail_quant::{Bitwidth, QuantAxis, QuantConfig};
///
/// # fn main() -> Result<(), cocktail_quant::QuantError> {
/// let cfg = QuantConfig::new(Bitwidth::Int4, QuantAxis::PerToken, 32)?;
/// assert_eq!(cfg.group_size(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuantConfig {
    bitwidth: Bitwidth,
    axis: QuantAxis,
    group_size: usize,
}

impl QuantConfig {
    /// Default quantization group size used throughout the paper's
    /// baselines (Atom-style group quantization).
    pub const DEFAULT_GROUP_SIZE: usize = 32;

    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::ZeroGroupSize`] if `group_size == 0` and
    /// [`QuantError::FloatBitwidth`] if `bitwidth` is [`Bitwidth::Fp16`]
    /// (FP16 chunks are stored unquantized and never go through a
    /// `QuantConfig`).
    pub fn new(bitwidth: Bitwidth, axis: QuantAxis, group_size: usize) -> Result<Self, QuantError> {
        if group_size == 0 {
            return Err(QuantError::ZeroGroupSize);
        }
        if bitwidth.is_float() {
            return Err(QuantError::FloatBitwidth);
        }
        Ok(Self {
            bitwidth,
            axis,
            group_size,
        })
    }

    /// The integer precision.
    pub fn bitwidth(&self) -> Bitwidth {
        self.bitwidth
    }

    /// The grouping axis.
    pub(crate) fn axis(&self) -> QuantAxis {
        self.axis
    }

    /// Number of elements sharing one (scale, zero-point) pair.
    pub fn group_size(&self) -> usize {
        self.group_size
    }
}

impl Default for QuantConfig {
    fn default() -> Self {
        Self {
            bitwidth: Bitwidth::Int4,
            axis: QuantAxis::PerToken,
            group_size: Self::DEFAULT_GROUP_SIZE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_zero_group_size() {
        assert_eq!(
            QuantConfig::new(Bitwidth::Int4, QuantAxis::PerToken, 0).unwrap_err(),
            QuantError::ZeroGroupSize
        );
    }

    #[test]
    fn new_rejects_fp16() {
        assert_eq!(
            QuantConfig::new(Bitwidth::Fp16, QuantAxis::PerToken, 32).unwrap_err(),
            QuantError::FloatBitwidth
        );
    }

    #[test]
    fn default_matches_paper_baseline() {
        let cfg = QuantConfig::default();
        assert_eq!(cfg.bitwidth(), Bitwidth::Int4);
        assert_eq!(cfg.axis(), QuantAxis::PerToken);
        assert_eq!(cfg.group_size(), 32);
    }

    #[test]
    fn with_group_size_replaces_only_group_size() {
        let cfg = QuantConfig::new(
            Bitwidth::Int2,
            QuantAxis::PerChannel,
            QuantConfig::DEFAULT_GROUP_SIZE,
        )
        .unwrap();
        let resized = QuantConfig::new(cfg.bitwidth(), cfg.axis(), 64).unwrap();
        assert_eq!(resized.group_size(), 64);
        assert_eq!(resized.axis(), QuantAxis::PerChannel);
        assert_eq!(resized.bitwidth(), Bitwidth::Int2);
        assert!(QuantConfig::new(cfg.bitwidth(), cfg.axis(), 0).is_err());
    }

    #[test]
    fn error_display_is_lowercase_and_informative() {
        assert!(QuantError::ZeroGroupSize.to_string().contains("group size"));
        assert!(QuantError::FloatBitwidth.to_string().contains("fp16"));
        assert!(QuantError::Incompatible("3 vs 4".into())
            .to_string()
            .contains("3 vs 4"));
    }

    #[test]
    fn axis_display_names() {
        assert_eq!(QuantAxis::PerToken.to_string(), "per-token");
        assert_eq!(QuantAxis::PerChannel.to_string(), "per-channel");
    }
}
