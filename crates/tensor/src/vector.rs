//! Thin vector helpers: dot products, norms and cosine similarity.
//!
//! Cosine similarity is the scoring function of the paper's chunk-level
//! quantization search (Eq. 1): `sim(q, cᵢ) = q·cᵢ / (‖q‖·‖cᵢ‖)`.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// assert_eq!(cocktail_tensor::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot product of unequal-length vectors");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm of a slice.
///
/// # Example
///
/// ```
/// assert_eq!(cocktail_tensor::l2_norm(&[3.0, 4.0]), 5.0);
/// ```
pub fn l2_norm(a: &[f32]) -> f32 {
    a.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Cosine similarity between two equal-length vectors (Eq. 1 of the paper).
///
/// Returns `0.0` when either vector has zero norm, which is the safe
/// convention for empty or all-zero chunk embeddings.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// let sim = cocktail_tensor::cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]);
/// assert!((sim - 1.0).abs() < 1e-6);
/// let orth = cocktail_tensor::cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]);
/// assert!(orth.abs() < 1e-6);
/// ```
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        assert_eq!(dot(&[1.0, 0.0, 0.0], &[0.0, 5.0, 0.0]), 0.0);
    }

    #[test]
    fn l2_norm_of_zero_vector_is_zero() {
        assert_eq!(l2_norm(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn cosine_of_identical_vectors_is_one() {
        let v = [0.3, -1.2, 4.5, 0.0];
        assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_opposite_vectors_is_minus_one() {
        let v = [1.0, 2.0];
        let w = [-1.0, -2.0];
        assert!((cosine_similarity(&v, &w) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_with_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
        assert_eq!(cosine_similarity(&[1.0, 2.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "unequal-length")]
    fn dot_panics_on_length_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    proptest! {
        #[test]
        fn cosine_similarity_is_bounded(
            a in proptest::collection::vec(-100.0f32..100.0, 1..32),
            seed in 0u64..1000
        ) {
            let b: Vec<f32> = a
                .iter()
                .enumerate()
                .map(|(i, _)| ((i as u64 * 977 + seed) % 41) as f32 - 20.0)
                .collect();
            let sim = cosine_similarity(&a, &b);
            prop_assert!((-1.0001..=1.0001).contains(&sim), "sim={sim}");
        }

        #[test]
        fn cosine_is_scale_invariant(
            a in proptest::collection::vec(-10.0f32..10.0, 2..16),
            scale in 0.1f32..50.0
        ) {
            let b: Vec<f32> = a.iter().map(|x| x + 1.0).collect();
            let scaled: Vec<f32> = a.iter().map(|x| x * scale).collect();
            let s1 = cosine_similarity(&a, &b);
            let s2 = cosine_similarity(&scaled, &b);
            prop_assert!((s1 - s2).abs() < 1e-3, "s1={s1} s2={s2}");
        }

        #[test]
        fn norm_is_non_negative(a in proptest::collection::vec(-100.0f32..100.0, 0..32)) {
            prop_assert!(l2_norm(&a) >= 0.0);
        }
    }
}
