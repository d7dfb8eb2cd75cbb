//! Bit-packed storage for 2/4/8-bit integer codes.

use crate::bitwidth::Bitwidth;
use serde::{Deserialize, Serialize};

/// A sequence of unsigned integer codes packed `bits`-per-value into bytes.
///
/// INT2 stores four codes per byte, INT4 two and INT8 one, little-endian
/// within the byte (the first logical value occupies the least-significant
/// bits). This is the physical representation whose size the hardware model
/// accounts for.
///
/// # Example
///
/// ```
/// use cocktail_quant::{Bitwidth, PackedInts};
///
/// let packed = PackedInts::pack(&[3, 0, 1, 2, 3], Bitwidth::Int2);
/// assert_eq!(packed.len(), 5);
/// assert_eq!(packed.byte_len(), 2);
/// assert_eq!(packed.get(0), 3);
/// assert_eq!(packed.unpack(), vec![3, 0, 1, 2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedInts {
    bitwidth: Bitwidth,
    len: usize,
    bytes: Vec<u8>,
}

impl PackedInts {
    /// Packs a slice of codes at the given integer bitwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bitwidth` is [`Bitwidth::Fp16`] or any code exceeds
    /// `Bitwidth::max_code`.
    pub fn pack(codes: &[u32], bitwidth: Bitwidth) -> Self {
        assert!(
            bitwidth.is_integer(),
            "packed storage requires an integer bitwidth"
        );
        let max = bitwidth.max_code();
        // `max` is `2^bits - 1`, so every code is in range iff their OR is.
        if codes.iter().fold(0, |acc, &code| acc | code) > max {
            let code = codes
                .iter()
                .find(|&&code| code > max)
                .expect("the OR of in-range codes is in range");
            panic!("code {code} exceeds max {max} for {bitwidth}");
        }
        let bytes = match bitwidth {
            Bitwidth::Int2 => pack_bytes::<4>(codes),
            Bitwidth::Int4 => pack_bytes::<2>(codes),
            Bitwidth::Int8 => pack_bytes::<1>(codes),
            Bitwidth::Fp16 => unreachable!("checked above"),
        };
        Self {
            bitwidth,
            len: codes.len(),
            bytes,
        }
    }

    /// Creates an empty container for the given bitwidth.
    pub fn empty(bitwidth: Bitwidth) -> Self {
        Self::pack(&[], bitwidth)
    }

    /// Number of logical values stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of bytes of payload storage.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Raw packed bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Returns the `i`-th logical value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        assert!(i < self.len, "packed index out of bounds");
        let per_byte = self.bitwidth.values_per_byte();
        let bits = self.bitwidth.bits();
        let byte = self.bytes[i / per_byte];
        let slot = (i % per_byte) as u32;
        let mask = self.bitwidth.max_code() as u8;
        u32::from((byte >> (slot * bits)) & mask)
    }

    /// Decodes the logical values `[start, start + out.len())` into `out`
    /// as `f32` — the bulk primitive behind
    /// [`QuantizedMatrix::dequantize_row_into`](crate::QuantizedMatrix::dequantize_row_into).
    ///
    /// Unlike a [`PackedInts::get`] loop this runs one fixed-width decode
    /// loop per bitwidth over whole bytes (plus short unaligned head/tail
    /// fixups), with no per-element index arithmetic or bounds checks, so
    /// the autovectorizer can lift it.
    ///
    /// # Panics
    ///
    /// Panics if `start + out.len() > len()`.
    pub(crate) fn unpack_f32_into(&self, start: usize, out: &mut [f32]) {
        assert!(
            start
                .checked_add(out.len())
                .is_some_and(|end| end <= self.len),
            "packed range out of bounds"
        );
        if out.is_empty() {
            return;
        }
        match self.bitwidth {
            Bitwidth::Int8 => {
                let bytes = &self.bytes[start..start + out.len()];
                for (v, &b) in out.iter_mut().zip(bytes) {
                    *v = f32::from(b);
                }
            }
            Bitwidth::Int4 => {
                let mut i = start;
                let mut o = 0;
                if i % 2 == 1 {
                    out[0] = f32::from(self.bytes[i / 2] >> 4);
                    i += 1;
                    o += 1;
                }
                let bytes = &self.bytes[i / 2..];
                let rest = out.len() - o;
                let mut pairs = out[o..].chunks_exact_mut(2);
                for (pair, &b) in (&mut pairs).zip(bytes) {
                    pair[0] = f32::from(b & 0x0F);
                    pair[1] = f32::from(b >> 4);
                }
                let tail = pairs.into_remainder();
                if let [last] = tail {
                    *last = f32::from(bytes[rest / 2] & 0x0F);
                }
            }
            Bitwidth::Int2 => {
                let mut i = start;
                let mut o = 0;
                while o < out.len() && i % 4 != 0 {
                    out[o] = f32::from((self.bytes[i / 4] >> ((i % 4) * 2)) & 0x03);
                    i += 1;
                    o += 1;
                }
                let bytes = &self.bytes[i / 4..];
                let rest = out.len() - o;
                let mut quads = out[o..].chunks_exact_mut(4);
                for (quad, &b) in (&mut quads).zip(bytes) {
                    quad[0] = f32::from(b & 0x03);
                    quad[1] = f32::from((b >> 2) & 0x03);
                    quad[2] = f32::from((b >> 4) & 0x03);
                    quad[3] = f32::from(b >> 6);
                }
                let tail = quads.into_remainder();
                if !tail.is_empty() {
                    let b = bytes[rest / 4];
                    for (slot, v) in tail.iter_mut().enumerate() {
                        *v = f32::from((b >> (slot * 2)) & 0x03);
                    }
                }
            }
            Bitwidth::Fp16 => unreachable!("packed storage is integer-bitwidth only"),
        }
    }

    /// Unpacks every value into a `Vec<u32>`.
    pub fn unpack(&self) -> Vec<u32> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Iterator over the logical values.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

/// Packs in-range codes `PER_BYTE` to a byte, a whole byte at a time; a
/// short last group fills the low slots of the last byte.
fn pack_bytes<const PER_BYTE: usize>(codes: &[u32]) -> Vec<u8> {
    let whole = codes.chunks_exact(PER_BYTE);
    let tail = whole.remainder();
    let mut bytes = Vec::with_capacity(codes.len().div_ceil(PER_BYTE));
    bytes.extend(whole.map(pack_byte::<PER_BYTE>));
    if !tail.is_empty() {
        bytes.push(pack_byte::<PER_BYTE>(tail));
    }
    bytes
}

/// One byte of up to `PER_BYTE` codes, the first in the low bits.
#[inline]
fn pack_byte<const PER_BYTE: usize>(codes: &[u32]) -> u8 {
    let bits = 8 / PER_BYTE;
    codes
        .iter()
        .enumerate()
        .fold(0, |byte, (slot, &code)| byte | code << (slot * bits)) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-code packing loop `pack` replaced, kept as its oracle.
    fn pack_reference(codes: &[u32], bitwidth: Bitwidth) -> Vec<u8> {
        let max = bitwidth.max_code();
        let per_byte = bitwidth.values_per_byte();
        let bits = bitwidth.bits();
        let mut bytes = vec![0u8; codes.len().div_ceil(per_byte)];
        for (i, &code) in codes.iter().enumerate() {
            assert!(code <= max, "code {code} exceeds max {max} for {bitwidth}");
            let byte = i / per_byte;
            let slot = (i % per_byte) as u32;
            bytes[byte] |= (code as u8) << (slot * bits);
        }
        bytes
    }

    #[test]
    fn pack_matches_the_per_code_loop_at_every_length() {
        for bw in [Bitwidth::Int2, Bitwidth::Int4, Bitwidth::Int8] {
            for n in 0..=67u32 {
                let codes: Vec<u32> = (0..n)
                    .map(|i| i.wrapping_mul(2_654_435_761) % bw.levels())
                    .collect();
                let packed = PackedInts::pack(&codes, bw);
                assert_eq!(packed.as_bytes(), pack_reference(&codes, bw), "{bw} n={n}");
                assert_eq!(packed.len(), codes.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "code 16 exceeds max 15")]
    fn pack_names_the_first_out_of_range_code() {
        PackedInts::pack(&[1, 15, 16, 17], Bitwidth::Int4);
    }

    #[test]
    fn int2_packs_four_per_byte() {
        let p = PackedInts::pack(&[0, 1, 2, 3, 3, 2, 1, 0], Bitwidth::Int2);
        assert_eq!(p.byte_len(), 2);
        assert_eq!(p.unpack(), vec![0, 1, 2, 3, 3, 2, 1, 0]);
    }

    #[test]
    fn int4_packs_two_per_byte() {
        let p = PackedInts::pack(&[15, 0, 7], Bitwidth::Int4);
        assert_eq!(p.byte_len(), 2);
        assert_eq!(p.unpack(), vec![15, 0, 7]);
        assert_eq!(p.as_bytes()[0], 0x0F);
    }

    #[test]
    fn int8_is_one_per_byte() {
        let p = PackedInts::pack(&[255, 128, 0], Bitwidth::Int8);
        assert_eq!(p.byte_len(), 3);
        assert_eq!(p.unpack(), vec![255, 128, 0]);
    }

    #[test]
    fn empty_has_no_bytes() {
        let p = PackedInts::empty(Bitwidth::Int2);
        assert!(p.is_empty());
        assert_eq!(p.byte_len(), 0);
        assert_eq!(p.unpack(), Vec::<u32>::new());
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn pack_rejects_out_of_range_code() {
        PackedInts::pack(&[4], Bitwidth::Int2);
    }

    #[test]
    #[should_panic(expected = "integer bitwidth")]
    fn pack_rejects_fp16() {
        PackedInts::pack(&[0], Bitwidth::Fp16);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let p = PackedInts::pack(&[1, 2], Bitwidth::Int4);
        p.get(2);
    }

    #[test]
    fn iter_matches_unpack() {
        let codes = vec![1u32, 3, 0, 2, 1];
        let p = PackedInts::pack(&codes, Bitwidth::Int2);
        let collected: Vec<u32> = p.iter().collect();
        assert_eq!(collected, codes);
    }

    #[test]
    fn byte_len_matches_bitwidth_formula() {
        for bw in [Bitwidth::Int2, Bitwidth::Int4, Bitwidth::Int8] {
            for n in 0..20 {
                let codes: Vec<u32> = (0..n).map(|i| i as u32 % bw.levels()).collect();
                let p = PackedInts::pack(&codes, bw);
                assert_eq!(p.byte_len(), bw.payload_bytes(n), "{bw} n={n}");
            }
        }
    }

    #[test]
    fn unpack_f32_into_matches_get_for_every_range() {
        // Exhaustive over (start, len) for an awkward non-multiple length,
        // covering every head/body/tail alignment combination per bitwidth.
        for bw in [Bitwidth::Int2, Bitwidth::Int4, Bitwidth::Int8] {
            let codes: Vec<u32> = (0..37u32).map(|i| (i * 7 + 3) % bw.levels()).collect();
            let p = PackedInts::pack(&codes, bw);
            for start in 0..=codes.len() {
                for len in 0..=codes.len() - start {
                    let mut out = vec![f32::NAN; len];
                    p.unpack_f32_into(start, &mut out);
                    let expected: Vec<f32> =
                        (start..start + len).map(|i| p.get(i) as f32).collect();
                    assert_eq!(out, expected, "{bw} start={start} len={len}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "packed range out of bounds")]
    fn unpack_f32_into_rejects_out_of_range() {
        let p = PackedInts::pack(&[1, 2, 3], Bitwidth::Int4);
        let mut out = vec![0.0f32; 2];
        p.unpack_f32_into(2, &mut out);
    }

    proptest! {
        #[test]
        fn pack_unpack_round_trip_int2(codes in proptest::collection::vec(0u32..4, 0..128)) {
            let p = PackedInts::pack(&codes, Bitwidth::Int2);
            prop_assert_eq!(p.unpack(), codes);
        }

        #[test]
        fn pack_unpack_round_trip_int4(codes in proptest::collection::vec(0u32..16, 0..128)) {
            let p = PackedInts::pack(&codes, Bitwidth::Int4);
            prop_assert_eq!(p.unpack(), codes);
        }

        #[test]
        fn pack_unpack_round_trip_int8(codes in proptest::collection::vec(0u32..256, 0..128)) {
            let p = PackedInts::pack(&codes, Bitwidth::Int8);
            prop_assert_eq!(p.unpack(), codes);
        }

        #[test]
        fn pack_is_byte_identical_to_the_per_code_loop(
            codes in proptest::collection::vec(0u32..256, 0..200),
            bw_pick in 0usize..3,
        ) {
            let bw = [Bitwidth::Int2, Bitwidth::Int4, Bitwidth::Int8][bw_pick];
            let codes: Vec<u32> = codes.iter().map(|c| c % bw.levels()).collect();
            let packed = PackedInts::pack(&codes, bw);
            prop_assert_eq!(packed.as_bytes(), &pack_reference(&codes, bw)[..]);
        }
    }
}
