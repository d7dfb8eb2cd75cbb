//! Deterministic random initialisation helpers.
//!
//! Every stochastic artefact in the reproduction — model weights, synthetic
//! workload text, encoder projections — is derived from an explicit `u64`
//! seed through ChaCha8, so that `cargo test` and every experiment binary
//! produce identical numbers on every run and platform.

use crate::matrix::Matrix;
use rand::distributions::{Distribution, Uniform};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Creates a deterministic RNG from a seed.
///
/// # Example
///
/// ```
/// use rand::Rng;
/// let mut a = cocktail_tensor::rng::seeded_rng(42);
/// let mut b = cocktail_tensor::rng::seeded_rng(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a label.
///
/// Used to give every layer / head / workload its own independent stream
/// while keeping a single top-level seed per experiment.
pub fn derive_seed(parent: u64, label: &str) -> u64 {
    // FNV-1a over the label, mixed with the parent seed.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in label.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash ^ parent.rotate_left(17)
}

/// Fills a matrix with samples from `U(-scale, scale)`.
pub fn uniform_matrix(rows: usize, cols: usize, scale: f32, seed: u64) -> Matrix {
    let mut rng = seeded_rng(seed);
    let dist = Uniform::new_inclusive(-scale, scale);
    let data: Vec<f32> = (0..rows * cols).map(|_| dist.sample(&mut rng)).collect();
    Matrix::from_vec(rows, cols, data).expect("shape matches generated data")
}

/// Fills a matrix with approximately normal samples (mean 0, std `std`).
///
/// Uses the sum-of-uniforms approximation (Irwin–Hall with 12 terms), which
/// is plenty for weight initialisation and avoids a Box–Muller edge case at 0.
pub fn gaussian_matrix(rows: usize, cols: usize, std: f32, seed: u64) -> Matrix {
    let mut rng = seeded_rng(seed);
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            let sum: f32 = (0..12).map(|_| rng.gen::<f32>()).sum();
            (sum - 6.0) * std
        })
        .collect();
    Matrix::from_vec(rows, cols, data).expect("shape matches generated data")
}

/// Generates a vector of samples from `U(-scale, scale)`.
pub fn uniform_vec(len: usize, scale: f32, seed: u64) -> Vec<f32> {
    let mut rng = seeded_rng(seed);
    let dist = Uniform::new_inclusive(-scale, scale);
    (0..len).map(|_| dist.sample(&mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Xavier/Glorot-style initialisation for a projection of shape
    /// `rows × cols`: uniform with scale `sqrt(6 / (rows + cols))`.
    fn xavier_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let scale = (6.0 / (rows + cols) as f32).sqrt();
        uniform_matrix(rows, cols, scale, seed)
    }

    #[test]
    fn seeded_rng_is_reproducible() {
        let a = uniform_matrix(4, 4, 1.0, 7);
        let b = uniform_matrix(4, 4, 1.0, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = uniform_matrix(4, 4, 1.0, 7);
        let b = uniform_matrix(4, 4, 1.0, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn derive_seed_depends_on_label_and_parent() {
        assert_ne!(derive_seed(1, "layer0"), derive_seed(1, "layer1"));
        assert_ne!(derive_seed(1, "layer0"), derive_seed(2, "layer0"));
        assert_eq!(derive_seed(5, "wq"), derive_seed(5, "wq"));
    }

    #[test]
    fn uniform_matrix_respects_scale() {
        let m = uniform_matrix(16, 16, 0.5, 3);
        assert!(m.as_slice().iter().all(|v| v.abs() <= 0.5));
    }

    #[test]
    fn gaussian_matrix_has_roughly_zero_mean() {
        let m = gaussian_matrix(64, 64, 1.0, 11);
        let mean: f32 = m.as_slice().iter().sum::<f32>() / m.len() as f32;
        assert!(mean.abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn gaussian_matrix_std_is_close() {
        let std = 0.02f32;
        let m = gaussian_matrix(64, 64, std, 13);
        let var: f32 = m.as_slice().iter().map(|v| v * v).sum::<f32>() / m.len() as f32;
        let measured = var.sqrt();
        assert!((measured - std).abs() < std * 0.2, "measured={measured}");
    }

    #[test]
    fn xavier_scale_shrinks_with_size() {
        let small = xavier_matrix(4, 4, 1);
        let large = xavier_matrix(1024, 1024, 1);
        let max_small = small.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let max_large = large.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(max_large < max_small);
    }

    #[test]
    fn uniform_vec_is_reproducible_and_bounded() {
        let a = uniform_vec(32, 2.0, 9);
        let b = uniform_vec(32, 2.0, 9);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| v.abs() <= 2.0));
    }
}
