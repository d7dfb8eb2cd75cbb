//! Accelerator hardware parameters.

use serde::{Deserialize, Serialize};

/// First-order hardware description of the accelerator running inference.
///
/// The defaults for [`AcceleratorSpec::a800`] follow the public datasheet
/// numbers of the NVIDIA A800 80GB (the GPU used in the paper) with
/// conservative achievable-bandwidth derating, plus a handful of kernel
/// overhead constants that are documented where they are used in
/// [`crate::DeploymentModel`].
///
/// # Example
///
/// ```
/// let spec = cocktail_hwsim::AcceleratorSpec::a800();
/// assert_eq!(spec.hbm_capacity_bytes, 80 * 1024 * 1024 * 1024);
/// assert!(spec.hbm_bandwidth_bytes_per_s > 1.0e12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorSpec {
    /// Human-readable device name.
    pub name: String,
    /// HBM capacity in bytes.
    pub hbm_capacity_bytes: usize,
    /// Achievable HBM bandwidth in bytes per second.
    pub hbm_bandwidth_bytes_per_s: f64,
    /// Cache-line / minimum-transaction size in bytes.
    pub cache_line_bytes: usize,
    /// SIMD/allocation granularity in bytes for contiguous kernel buffers.
    pub simd_width_bytes: usize,
    /// Achievable FP16 compute throughput in FLOP/s (used for the
    /// prefill-phase estimate).
    pub fp16_flops_per_s: f64,
    /// Integer dequantization throughput for INT4 data, in elements per
    /// second (INT2 unpacks proportionally faster, INT8 slower).
    pub dequant_elems_per_s: f64,
    /// Fixed kernel-launch overhead in seconds, charged once per GEMM
    /// kernel (one per contiguous precision block).
    pub kernel_launch_s: f64,
    /// Fixed setup latency of one batched chunk-level search call
    /// (tokenization, host/device transfer, small-encoder launch), charged
    /// once per batch.
    pub search_setup_s: f64,
    /// Throughput of the retrieval encoder used by chunk-level search, in
    /// chunk embeddings per second once the batched call is running.
    pub encoder_chunks_per_s: f64,
    /// Throughput of a token-level importance scan (KVQuant-style search),
    /// in token·layer units per second.
    pub token_scan_per_s: f64,
    /// Fraction of HBM reserved for activations, workspace and fragmentation
    /// (not usable by weights or KV cache).
    pub reserved_fraction: f64,
}

impl AcceleratorSpec {
    /// NVIDIA A800 80GB preset (the paper's testbed).
    pub fn a800() -> Self {
        Self {
            name: "NVIDIA A800 80GB".to_string(),
            hbm_capacity_bytes: 80 * 1024 * 1024 * 1024,
            // 2039 GB/s peak, ~80 % achievable on large streaming reads.
            hbm_bandwidth_bytes_per_s: 1.63e12,
            cache_line_bytes: 128,
            simd_width_bytes: 32,
            fp16_flops_per_s: 2.5e14,
            dequant_elems_per_s: 4.0e12,
            kernel_launch_s: 2.0e-6,
            search_setup_s: 0.05,
            encoder_chunks_per_s: 100_000.0,
            token_scan_per_s: 1.0e6,
            reserved_fraction: 0.08,
        }
    }

    /// Usable HBM bytes after the reserved fraction.
    pub(crate) fn usable_capacity_bytes(&self) -> usize {
        (self.hbm_capacity_bytes as f64 * (1.0 - self.reserved_fraction)) as usize
    }
}

impl Default for AcceleratorSpec {
    fn default() -> Self {
        Self::a800()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smaller 40 GB accelerator, useful for OOM-sensitivity ablations.
    fn a100_40g() -> AcceleratorSpec {
        AcceleratorSpec {
            name: "NVIDIA A100 40GB".to_string(),
            hbm_capacity_bytes: 40 * 1024 * 1024 * 1024,
            hbm_bandwidth_bytes_per_s: 1.25e12,
            fp16_flops_per_s: 2.4e14,
            ..AcceleratorSpec::a800()
        }
    }

    #[test]
    fn a800_matches_datasheet_scale() {
        let spec = AcceleratorSpec::a800();
        assert_eq!(spec.hbm_capacity_bytes, 80 << 30);
        assert!(spec.hbm_bandwidth_bytes_per_s > 1.5e12);
        assert!(spec.usable_capacity_bytes() < spec.hbm_capacity_bytes);
    }

    #[test]
    fn a100_40g_is_smaller() {
        let a800 = AcceleratorSpec::a800();
        let a100 = a100_40g();
        assert!(a100.hbm_capacity_bytes < a800.hbm_capacity_bytes);
        assert!(a100.hbm_bandwidth_bytes_per_s < a800.hbm_bandwidth_bytes_per_s);
        assert_eq!(a100.cache_line_bytes, a800.cache_line_bytes);
    }

    #[test]
    fn default_is_a800() {
        assert_eq!(AcceleratorSpec::default(), AcceleratorSpec::a800());
    }
}
