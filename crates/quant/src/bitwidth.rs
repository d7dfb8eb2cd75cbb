//! The precision levels used by the Cocktail paper.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Storage precision of a KV-cache chunk.
///
/// The Cocktail search module assigns one of three precisions to every
/// context chunk — [`Bitwidth::Fp16`] for query-relevant chunks,
/// [`Bitwidth::Int4`] for the middle band and [`Bitwidth::Int2`] for
/// irrelevant chunks — while the uniform baselines (Atom, KIVI) use
/// [`Bitwidth::Int4`] everywhere and [`Bitwidth::Int8`] is provided for
/// completeness and ablations.
///
/// # Example
///
/// ```
/// use cocktail_quant::Bitwidth;
///
/// assert_eq!(Bitwidth::Int4.bits(), 4);
/// assert_eq!(Bitwidth::Int2.values_per_byte(), 4);
/// assert!(Bitwidth::Fp16.is_float());
/// assert!(Bitwidth::Int2 < Bitwidth::Fp16); // ordered by fidelity
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Bitwidth {
    /// 2-bit integers, 4 values per byte. Used for query-irrelevant chunks.
    Int2,
    /// 4-bit integers, 2 values per byte. The workhorse precision of all
    /// uniform-quantization baselines.
    Int4,
    /// 8-bit integers, 1 value per byte. Not used by the paper's headline
    /// configuration but needed for group-size and precision ablations.
    Int8,
    /// IEEE-754 half precision; no integer quantization is applied.
    Fp16,
}

impl Bitwidth {
    /// All variants in ascending fidelity order.
    pub const ALL: [Bitwidth; 4] = [
        Bitwidth::Int2,
        Bitwidth::Int4,
        Bitwidth::Int8,
        Bitwidth::Fp16,
    ];

    /// The three precisions Cocktail's search module can assign.
    pub const COCKTAIL_LEVELS: [Bitwidth; 3] = [Bitwidth::Int2, Bitwidth::Int4, Bitwidth::Fp16];

    /// Number of bits used to store one element.
    pub const fn bits(self) -> u32 {
        match self {
            Bitwidth::Int2 => 2,
            Bitwidth::Int4 => 4,
            Bitwidth::Int8 => 8,
            Bitwidth::Fp16 => 16,
        }
    }

    /// Number of quantized values that fit in one byte (1 for FP16, which is
    /// not packed).
    pub const fn values_per_byte(self) -> usize {
        match self {
            Bitwidth::Int2 => 4,
            Bitwidth::Int4 => 2,
            Bitwidth::Int8 => 1,
            Bitwidth::Fp16 => 0,
        }
    }

    /// Number of representable integer levels (`2^bits`); 0 for FP16.
    pub(crate) const fn levels(self) -> u32 {
        match self {
            Bitwidth::Int2 => 4,
            Bitwidth::Int4 => 16,
            Bitwidth::Int8 => 256,
            Bitwidth::Fp16 => 0,
        }
    }

    /// Largest quantized code (`levels - 1`); 0 for FP16.
    pub(crate) const fn max_code(self) -> u32 {
        match self {
            Bitwidth::Fp16 => 0,
            other => other.levels() - 1,
        }
    }

    /// Returns `true` for the floating-point pass-through precision.
    pub const fn is_float(self) -> bool {
        matches!(self, Bitwidth::Fp16)
    }

    /// Returns `true` for an integer precision.
    pub const fn is_integer(self) -> bool {
        !self.is_float()
    }

    /// Exact number of bytes needed to store `n` elements at this precision
    /// (excluding quantization parameters), rounding up to whole bytes per
    /// the packed layout.
    pub const fn payload_bytes(self, n: usize) -> usize {
        match self {
            Bitwidth::Fp16 => n * 2,
            Bitwidth::Int8 => n,
            Bitwidth::Int4 => n.div_ceil(2),
            Bitwidth::Int2 => n.div_ceil(4),
        }
    }

    /// Compression ratio relative to FP16 storage (e.g. 8.0 for INT2).
    pub fn compression_ratio(self) -> f64 {
        16.0 / self.bits() as f64
    }

    /// Short lowercase name used in experiment output (`"int2"`, `"fp16"`).
    pub const fn name(self) -> &'static str {
        match self {
            Bitwidth::Int2 => "int2",
            Bitwidth::Int4 => "int4",
            Bitwidth::Int8 => "int8",
            Bitwidth::Fp16 => "fp16",
        }
    }
}

impl fmt::Display for Bitwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_and_levels_are_consistent() {
        for bw in Bitwidth::ALL {
            if bw.is_integer() {
                assert_eq!(bw.levels(), 1 << bw.bits());
                assert_eq!(bw.max_code(), bw.levels() - 1);
            }
        }
    }

    #[test]
    fn fidelity_ordering_matches_bits() {
        assert!(Bitwidth::Int2 < Bitwidth::Int4);
        assert!(Bitwidth::Int4 < Bitwidth::Int8);
        assert!(Bitwidth::Int8 < Bitwidth::Fp16);
    }

    #[test]
    fn payload_bytes_rounds_up() {
        assert_eq!(Bitwidth::Int2.payload_bytes(5), 2);
        assert_eq!(Bitwidth::Int4.payload_bytes(5), 3);
        assert_eq!(Bitwidth::Int8.payload_bytes(5), 5);
        assert_eq!(Bitwidth::Fp16.payload_bytes(5), 10);
        assert_eq!(Bitwidth::Int2.payload_bytes(0), 0);
    }

    #[test]
    fn compression_ratio_relative_to_fp16() {
        assert_eq!(Bitwidth::Int2.compression_ratio(), 8.0);
        assert_eq!(Bitwidth::Int4.compression_ratio(), 4.0);
        assert_eq!(Bitwidth::Int8.compression_ratio(), 2.0);
        assert_eq!(Bitwidth::Fp16.compression_ratio(), 1.0);
    }

    #[test]
    fn display_matches_name() {
        for bw in Bitwidth::ALL {
            assert_eq!(bw.to_string(), bw.name());
        }
    }

    #[test]
    fn cocktail_levels_are_the_papers_three() {
        assert_eq!(
            Bitwidth::COCKTAIL_LEVELS,
            [Bitwidth::Int2, Bitwidth::Int4, Bitwidth::Fp16]
        );
    }

    #[test]
    fn values_per_byte_times_bits_is_eight() {
        for bw in [Bitwidth::Int2, Bitwidth::Int4, Bitwidth::Int8] {
            assert_eq!(bw.values_per_byte() as u32 * bw.bits(), 8);
        }
    }

    #[test]
    fn debug_formatting_is_nonempty() {
        for bw in Bitwidth::ALL {
            assert!(!format!("{bw:?}").is_empty());
        }
    }
}
