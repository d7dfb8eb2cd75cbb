//! Hardware-relevant summary of what a quantization policy did.

use cocktail_quant::Bitwidth;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What kind of bitwidth search a method performs per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchKind {
    /// No search (FP16 and the uniform baselines).
    None,
    /// One encoder pass per context chunk plus one for the query
    /// (Cocktail's chunk-level search).
    ChunkLevel,
    /// A scan over every token of every layer (KVQuant's token-level
    /// search).
    TokenLevel,
}

/// Hardware-relevant description of a compressed KV cache: the mix of
/// precisions, the layout, and the search the method ran.
///
/// # Example
///
/// ```
/// use cocktail_hwsim::KvCacheProfile;
/// use cocktail_quant::Bitwidth;
///
/// let profile = KvCacheProfile::cocktail_default();
/// assert!(profile.fraction(Bitwidth::Int2) > 0.5);
/// assert!((profile.mean_bits_per_value() - 16.0).abs() > 1.0); // well below FP16
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KvCacheProfile {
    /// Method name (used only for labelling output).
    pub method: String,
    /// Fraction of context tokens stored at each bitwidth (must sum to 1).
    pub fractions: BTreeMap<Bitwidth, f64>,
    /// Fraction of context tokens additionally kept as FP16 outlier patches
    /// (KVQuant-style), on top of their quantized storage.
    pub outlier_fraction: f64,
    /// Quantization group size (for parameter overhead accounting).
    pub group_size: usize,
    /// Whether same-precision data is physically contiguous (Module II).
    /// When `false`, quantized values cannot be kept in packed sub-FP16
    /// buffers inside the fused attention kernel and fall back to FP16
    /// containers (see DESIGN.md), and extra per-chunk kernel switches are
    /// charged.
    pub grouped_layout: bool,
    /// The per-request search the method performs.
    pub search: SearchKind,
}

impl KvCacheProfile {
    /// Builds a profile from explicit per-bitwidth fractions.
    ///
    /// # Panics
    ///
    /// Panics if the fractions are negative or do not sum to ≈1.
    pub fn new(
        method: impl Into<String>,
        fractions: &[(Bitwidth, f64)],
        outlier_fraction: f64,
        group_size: usize,
        grouped_layout: bool,
        search: SearchKind,
    ) -> Self {
        let map: BTreeMap<Bitwidth, f64> = fractions.iter().copied().collect();
        let total: f64 = map.values().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "bitwidth fractions must sum to 1, got {total}"
        );
        assert!(
            map.values().all(|&f| f >= 0.0),
            "fractions must be non-negative"
        );
        assert!((0.0..=1.0).contains(&outlier_fraction));
        Self {
            method: method.into(),
            fractions: map,
            outlier_fraction,
            group_size,
            grouped_layout,
            search,
        }
    }

    /// The uncompressed FP16 cache.
    pub fn fp16() -> Self {
        Self::new(
            "FP16",
            &[(Bitwidth::Fp16, 1.0)],
            0.0,
            32,
            true,
            SearchKind::None,
        )
    }

    /// Atom: uniform INT4, contiguous by construction.
    pub fn atom_int4() -> Self {
        Self::new(
            "Atom",
            &[(Bitwidth::Int4, 1.0)],
            0.0,
            32,
            true,
            SearchKind::None,
        )
    }

    /// KIVI: uniform INT4 (per-channel keys change error, not footprint).
    pub fn kivi_int4() -> Self {
        Self::new(
            "KIVI",
            &[(Bitwidth::Int4, 1.0)],
            0.0,
            32,
            true,
            SearchKind::None,
        )
    }

    /// KVQuant: INT4 with 1 % FP16 outliers and a token-level search.
    pub fn kvquant_default() -> Self {
        Self::new(
            "KVQuant",
            &[(Bitwidth::Int4, 1.0)],
            0.01,
            32,
            true,
            SearchKind::TokenLevel,
        )
    }

    /// Cocktail with the typical bitwidth mix its search produces on
    /// long-context workloads (about one chunk in ten highly relevant,
    /// three in ten in the middle band), grouped layout, chunk-level search.
    pub fn cocktail_default() -> Self {
        Self::new(
            "Cocktail",
            &[
                (Bitwidth::Int2, 0.6),
                (Bitwidth::Int4, 0.3),
                (Bitwidth::Fp16, 0.1),
            ],
            0.0,
            32,
            true,
            SearchKind::ChunkLevel,
        )
    }

    /// Cocktail without Module II: the same precision mix but interleaved
    /// in memory (the "w/o Module II" ablation of Table V).
    pub fn cocktail_without_reorder() -> Self {
        Self {
            method: "Cocktail w/o Module II".into(),
            grouped_layout: false,
            ..Self::cocktail_default()
        }
    }

    /// Cocktail without Module I: a relevance-blind mix with the same
    /// proportions (accuracy collapses but the hardware profile is nearly
    /// identical to full Cocktail, as in Table V).
    pub fn cocktail_without_search() -> Self {
        Self {
            method: "Cocktail w/o Module I".into(),
            search: SearchKind::None,
            ..Self::cocktail_default()
        }
    }

    /// The five headline methods of the paper's figures, in display order.
    pub fn paper_suite() -> Vec<KvCacheProfile> {
        vec![
            Self::fp16(),
            Self::atom_int4(),
            Self::kivi_int4(),
            Self::kvquant_default(),
            Self::cocktail_default(),
        ]
    }

    /// Builds a profile from measured per-bitwidth chunk counts (e.g. a
    /// `PolicyReport` from the pipeline), so analytic projections can use
    /// the mix a policy actually produced.
    pub fn from_chunk_counts(
        method: impl Into<String>,
        counts: &BTreeMap<Bitwidth, usize>,
        outlier_fraction: f64,
        group_size: usize,
        grouped_layout: bool,
        search: SearchKind,
    ) -> Self {
        let total: usize = counts.values().sum();
        let fractions: Vec<(Bitwidth, f64)> = if total == 0 {
            vec![(Bitwidth::Fp16, 1.0)]
        } else {
            counts
                .iter()
                .map(|(&bw, &c)| (bw, c as f64 / total as f64))
                .collect()
        };
        Self::new(
            method,
            &fractions,
            outlier_fraction,
            group_size,
            grouped_layout,
            search,
        )
    }

    /// Fraction of tokens stored at the given bitwidth.
    pub fn fraction(&self, bitwidth: Bitwidth) -> f64 {
        self.fractions.get(&bitwidth).copied().unwrap_or(0.0)
    }

    /// Mean payload bits per stored value (ignoring group parameters and
    /// outlier patches).
    pub fn mean_bits_per_value(&self) -> f64 {
        self.fractions
            .iter()
            .map(|(bw, f)| f * bw.bits() as f64)
            .sum()
    }

    /// Number of distinct precision levels present (the number of
    /// contiguous blocks after reordering).
    pub(crate) fn precision_levels(&self) -> usize {
        self.fractions.iter().filter(|(_, &f)| f > 0.0).count()
    }

    /// Effective stored bytes per value, accounting for packing (or the
    /// lack of it without Module II), per-group quantization parameters and
    /// FP16 outlier patches.
    pub fn bytes_per_value(&self) -> f64 {
        let param_bytes_per_value = 4.0 / self.group_size as f64; // fp16 scale + zero per group
        let mut total = 0.0;
        for (&bw, &fraction) in &self.fractions {
            let payload = if bw.is_float() {
                2.0
            } else if self.grouped_layout {
                bw.bits() as f64 / 8.0
            } else {
                // Interleaved mixed precision cannot stay bit-packed inside
                // the fused attention kernel's contiguous buffer: every
                // value occupies an FP16 container slot.
                2.0
            };
            let params = if bw.is_float() {
                0.0
            } else {
                param_bytes_per_value
            };
            total += fraction * (payload + params);
        }
        // Outlier tokens keep an FP16 copy (plus a 4-byte index per token,
        // negligible per value) on top of their quantized storage.
        total += self.outlier_fraction * 2.0;
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_must_sum_to_one() {
        let ok = KvCacheProfile::new(
            "x",
            &[(Bitwidth::Int2, 0.5), (Bitwidth::Fp16, 0.5)],
            0.0,
            32,
            true,
            SearchKind::None,
        );
        assert_eq!(ok.precision_levels(), 2);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_fractions_panic() {
        KvCacheProfile::new(
            "x",
            &[(Bitwidth::Int2, 0.5)],
            0.0,
            32,
            true,
            SearchKind::None,
        );
    }

    #[test]
    fn bytes_per_value_ordering() {
        let fp16 = KvCacheProfile::fp16().bytes_per_value();
        let atom = KvCacheProfile::atom_int4().bytes_per_value();
        let kvq = KvCacheProfile::kvquant_default().bytes_per_value();
        let cocktail = KvCacheProfile::cocktail_default().bytes_per_value();
        let no_reorder = KvCacheProfile::cocktail_without_reorder().bytes_per_value();
        assert_eq!(fp16, 2.0);
        assert!(atom < fp16);
        assert!(kvq > atom && kvq < fp16);
        assert!(cocktail < fp16);
        // Without Module II the packed layouts are lost and the footprint
        // exceeds even FP16 (parameters on top of FP16 containers).
        assert!(no_reorder > fp16);
    }

    #[test]
    fn cocktail_mean_bits_is_close_to_four() {
        let bits = KvCacheProfile::cocktail_default().mean_bits_per_value();
        assert!((3.0..5.0).contains(&bits), "mean bits {bits}");
    }

    #[test]
    fn from_chunk_counts_normalises() {
        let mut counts = BTreeMap::new();
        counts.insert(Bitwidth::Int2, 6);
        counts.insert(Bitwidth::Int4, 3);
        counts.insert(Bitwidth::Fp16, 1);
        let profile = KvCacheProfile::from_chunk_counts(
            "measured",
            &counts,
            0.0,
            32,
            true,
            SearchKind::ChunkLevel,
        );
        assert!((profile.fraction(Bitwidth::Int2) - 0.6).abs() < 1e-9);
        assert!((profile.fractions.values().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_chunk_counts_fall_back_to_fp16() {
        let profile = KvCacheProfile::from_chunk_counts(
            "empty",
            &BTreeMap::new(),
            0.0,
            32,
            true,
            SearchKind::None,
        );
        assert_eq!(profile.fraction(Bitwidth::Fp16), 1.0);
    }

    #[test]
    fn paper_suite_has_five_methods() {
        let names: Vec<String> = KvCacheProfile::paper_suite()
            .into_iter()
            .map(|p| p.method)
            .collect();
        assert_eq!(names, vec!["FP16", "Atom", "KIVI", "KVQuant", "Cocktail"]);
    }
}
