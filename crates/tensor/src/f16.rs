//! A minimal IEEE-754 binary16 ("half precision", FP16) implementation.
//!
//! The Cocktail paper stores the unquantized portion of the KV cache in FP16.
//! To model FP16 storage faithfully (both its memory footprint and its
//! rounding error) without an external dependency, this module implements
//! exact bit-level `f32` ⇄ `f16` conversion with round-to-nearest-even.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An IEEE-754 binary16 floating point value stored as its raw 16 bits.
///
/// Conversion from [`f32`] uses round-to-nearest-even, matching what GPU
/// hardware does when a KV cache tensor is written out in half precision.
///
/// # Example
///
/// ```
/// use cocktail_tensor::F16;
///
/// let half = F16::from_f32(1.0 / 3.0);
/// let back = half.to_f32();
/// assert!((back - 1.0 / 3.0).abs() < 1e-3);
/// assert_eq!(F16::from_f32(1.0).to_f32(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct F16(u16);

impl F16 {
    /// Largest finite value representable in binary16 (65504.0).
    pub const MAX: F16 = F16(0x7BFF);

    /// Returns the raw bit pattern.
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to binary16 with round-to-nearest-even.
    ///
    /// Values whose magnitude exceeds [`F16::MAX`] become ±infinity, exactly
    /// as hardware conversion instructions behave.
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mantissa = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // NaN or infinity.
            let payload = if mantissa != 0 { 0x0200 } else { 0 };
            return F16(sign | 0x7C00 | payload);
        }

        // Unbiased exponent.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflow to infinity.
            return F16(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normal number in f16 range.
            let half_exp = (unbiased + 15) as u16;
            let half_mant = (mantissa >> 13) as u16;
            let rest = mantissa & 0x1FFF;
            let mut out = (sign) | (half_exp << 10) | half_mant;
            // Round to nearest even.
            if rest > 0x1000 || (rest == 0x1000 && (half_mant & 1) == 1) {
                out = out.wrapping_add(1);
            }
            return F16(out);
        }
        if unbiased >= -25 {
            // Subnormal in f16.
            let full_mant = mantissa | 0x0080_0000;
            let shift = (-14 - unbiased) as u32 + 13;
            let half_mant = (full_mant >> shift) as u16;
            let rest_mask = (1u32 << shift) - 1;
            let rest = full_mant & rest_mask;
            let halfway = 1u32 << (shift - 1);
            let mut out = sign | half_mant;
            if rest > halfway || (rest == halfway && (half_mant & 1) == 1) {
                out = out.wrapping_add(1);
            }
            return F16(out);
        }
        // Underflow to zero.
        F16(sign)
    }

    /// Converts the binary16 value back to `f32` exactly.
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1F) as u32;
        let mantissa = (self.0 & 0x03FF) as u32;

        let bits = if exp == 0 {
            if mantissa == 0 {
                sign
            } else {
                // Subnormal: value is mantissa × 2⁻²⁴, which is exactly
                // representable in f32, so compute it directly.
                let magnitude = mantissa as f32 * 2f32.powi(-24);
                let value = if sign != 0 { -magnitude } else { magnitude };
                return value;
            }
        } else if exp == 0x1F {
            sign | 0x7F80_0000 | (mantissa << 13)
        } else {
            let f32_exp = exp + 127 - 15;
            sign | (f32_exp << 23) | (mantissa << 13)
        };
        f32::from_bits(bits)
    }

    /// Rounds an `f32` through binary16 precision and back, i.e. the value
    /// that would be recovered after storing it in an FP16 KV cache.
    ///
    /// Bit for bit `F16::from_f32(value).to_f32()` (checked on every `f32`
    /// pattern), but computed on the `f32` bits with no branch, so a loop
    /// over a slice vectorises. At binary16 normal magnitudes
    /// (`|x| >= 2^-14`) round-to-nearest-even drops the 13 low mantissa
    /// bits after adding `0xFFF` plus the kept mantissa's last bit; a carry
    /// lands in the exponent, and a result of `65536` or more is infinity.
    /// Below that, binary16 steps are `2^-24`, which is one `f32` ulp at
    /// `0.5`: the `f32` addition `|x| + 0.5` rounds to that step (nearest,
    /// ties to even) and subtracting `0.5` again is exact. NaN becomes the
    /// quiet NaN `from_f32` yields, and the sign is put back last.
    ///
    /// The magnitude is compared as an `i32` (it is never negative), which
    /// SSE2 compares four lanes at a time; a NaN's sum may wrap, but a
    /// NaN's result is chosen last.
    #[inline]
    pub fn round_trip(value: f32) -> f32 {
        let bits = value.to_bits();
        let sign = bits & 0x8000_0000;
        let abs = (bits & 0x7FFF_FFFF) as i32;
        let normal = abs.wrapping_add(0xFFF + ((abs >> 13) & 1)) & !0x1FFF;
        let subnormal = ((f32::from_bits(abs as u32) + 0.5) - 0.5).to_bits() as i32;
        let rounded = if abs >= 0x3880_0000 {
            normal
        } else {
            subnormal
        };
        let rounded = if rounded >= 0x4780_0000 {
            0x7F80_0000
        } else {
            rounded
        };
        let rounded = if abs > 0x7F80_0000 {
            0x7FC0_0000
        } else {
            rounded
        };
        f32::from_bits(sign | rounded as u32)
    }

    /// Returns `true` if the value is positive or negative infinity.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }
}

impl From<f32> for F16 {
    fn from(value: f32) -> Self {
        F16::from_f32(value)
    }
}

impl From<F16> for f32 {
    fn from(value: F16) -> Self {
        value.to_f32()
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Rounds every element of a slice through FP16 precision in place.
///
/// This is the cheapest faithful way to model "this tensor is stored in
/// half precision" while keeping the working representation in `f32`.
///
/// # Example
///
/// ```
/// use cocktail_tensor::F16;
///
/// let mut data = vec![0.1f32, 1.0, -2.5];
/// cocktail_tensor::ops::round_to_f16(&mut data);
/// assert_eq!(data[1], 1.0);
/// assert_eq!(data[2], -2.5);
/// assert_eq!(data[0], F16::round_trip(0.1));
/// ```
pub(crate) fn round_slice_to_f16(values: &mut [f32]) {
    for v in values.iter_mut() {
        *v = F16::round_trip(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_small_integers_round_trip() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(F16::round_trip(x), x, "integer {i} must be exact in f16");
        }
    }

    #[test]
    fn powers_of_two_round_trip() {
        for e in -14..=15 {
            let x = 2f32.powi(e);
            assert_eq!(F16::round_trip(x), x);
        }
    }

    #[test]
    fn one_third_is_close() {
        let x = 1.0f32 / 3.0;
        let rt = F16::round_trip(x);
        assert!((rt - x).abs() < 1e-3);
    }

    #[test]
    fn overflow_becomes_infinity() {
        let h = F16::from_f32(1e6);
        assert!(h.is_infinite());
        assert!(h.to_f32().is_infinite());
        let h = F16::from_f32(-1e6);
        assert!(h.is_infinite());
        assert!(h.to_f32().is_sign_negative());
    }

    #[test]
    fn nan_is_preserved() {
        let h = F16::from_f32(f32::NAN);
        assert!((h.0 & 0x7C00) == 0x7C00 && (h.0 & 0x03FF) != 0);
        assert!(h.to_f32().is_nan());
    }

    #[test]
    fn zero_signs_preserved() {
        assert_eq!(F16::from_f32(0.0).to_bits(), 0);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
    }

    #[test]
    fn max_value_round_trips() {
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::from_f32(65504.0), F16::MAX);
    }

    #[test]
    fn subnormals_round_trip() {
        // Smallest positive subnormal of f16 is 2^-24.
        let tiny = 2f32.powi(-24);
        assert_eq!(F16::round_trip(tiny), tiny);
        // Below half of the smallest subnormal rounds to zero.
        let below = 2f32.powi(-26);
        assert_eq!(F16::round_trip(below), 0.0);
    }

    #[test]
    fn constants_are_consistent() {
        assert_eq!(F16(0).to_f32(), 0.0);
        assert_eq!(F16(0x3C00).to_f32(), 1.0);
        assert_eq!(std::mem::size_of::<F16>(), 2);
    }

    #[test]
    fn display_shows_value() {
        assert_eq!(F16(0x3C00).to_string(), "1");
    }

    #[test]
    fn round_slice_rounds_every_element() {
        let mut values = vec![0.1, 0.2, 0.3, 1.0];
        round_slice_to_f16(&mut values);
        for v in &values {
            assert_eq!(*v, F16::round_trip(*v), "idempotent after one pass");
        }
    }

    /// `round_trip` against the reference conversion, bit for bit, on the
    /// `f32` patterns `0, stride, 2 * stride, ...`.
    fn assert_round_trip_matches_reference(stride: usize) {
        for bits in (0..=u32::MAX).step_by(stride) {
            let x = f32::from_bits(bits);
            let want = F16::from_f32(x).to_f32().to_bits();
            assert_eq!(F16::round_trip(x).to_bits(), want, "input {bits:#010x}");
        }
    }

    #[test]
    fn round_trip_matches_the_reference_conversion_on_every_f32() {
        // Every one of the 2^32 patterns in release (~20 s); a strided
        // sweep in debug, where the edges below carry the weight.
        let stride = if cfg!(debug_assertions) { 1031 } else { 1 };
        assert_round_trip_matches_reference(stride);
    }

    #[test]
    fn round_trip_matches_the_reference_conversion_at_the_edges() {
        let mut edges = vec![
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001),
            f32::from_bits(0xFFC0_1234),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            65504.0,
            65519.99,
            65520.0,
            65535.0,
            65536.0,
            f32::from_bits(1),
        ];
        // Every binary16 subnormal step, the halfway points around it and
        // their neighbours, and the normal/subnormal boundary.
        for m in 0..=1024u32 {
            let step = m as f32 * 2f32.powi(-24);
            for x in [step, step + 2f32.powi(-25)] {
                let b = x.to_bits();
                edges.extend([
                    x,
                    f32::from_bits(b.saturating_sub(1)),
                    f32::from_bits(b + 1),
                ]);
            }
        }
        // Ties at every binary16 exponent: the kept mantissa odd and even.
        for e in -14..=15 {
            let base = 2f32.powi(e).to_bits();
            for kept in [0u32, 1, 2, 0x3FE, 0x3FF] {
                let tie = base + (kept << 13) + 0x1000;
                edges.extend([tie - 1, tie, tie + 1].map(f32::from_bits));
            }
        }
        for x in edges {
            for x in [x, -x] {
                let want = F16::from_f32(x).to_f32().to_bits();
                assert_eq!(F16::round_trip(x).to_bits(), want, "input {x:e}");
            }
        }
    }

    proptest! {
        #[test]
        fn round_trip_error_is_bounded(x in -60000.0f32..60000.0) {
            let rt = F16::round_trip(x);
            // Relative error of f16 is at most 2^-11 for normal numbers.
            let tol = (x.abs() * 1e-3).max(1e-7) + 6.0e-8;
            prop_assert!((rt - x).abs() <= tol, "x={x} rt={rt}");
        }

        #[test]
        fn conversion_is_idempotent(x in -60000.0f32..60000.0) {
            let once = F16::round_trip(x);
            let twice = F16::round_trip(once);
            prop_assert_eq!(once.to_bits(), twice.to_bits());
        }

        #[test]
        fn ordering_is_preserved(a in -60000.0f32..60000.0, b in -60000.0f32..60000.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(F16::round_trip(lo) <= F16::round_trip(hi));
        }
    }
}
