//! Transformer-specific element-wise and normalisation operations.
//!
//! These free functions implement the non-GEMM math a Llama-family decoder
//! block needs: RMS normalisation, rotary position embeddings (RoPE), the
//! SiLU activation used by SwiGLU MLPs, and FP16 rounding helpers.

use crate::error::ShapeError;
use crate::f16::round_slice_to_f16;
use crate::matrix::Matrix;

/// Applies RMS normalisation to a single vector in place.
///
/// `x_i ← x_i / sqrt(mean(x²) + eps) * weight_i`, the normalisation used by
/// Llama-style models (no mean subtraction, no bias).
///
/// # Panics
///
/// Panics if `weight.len() != x.len()`.
///
/// # Example
///
/// ```
/// let mut x = vec![3.0f32, 4.0];
/// let w = vec![1.0f32, 1.0];
/// cocktail_tensor::ops::rms_norm(&mut x, &w, 1e-6);
/// let rms: f32 = (x.iter().map(|v| v * v).sum::<f32>() / 2.0).sqrt();
/// assert!((rms - 1.0).abs() < 1e-4);
/// ```
pub fn rms_norm(x: &mut [f32], weight: &[f32], eps: f32) {
    assert_eq!(x.len(), weight.len(), "rms_norm weight length mismatch");
    if x.is_empty() {
        return;
    }
    let mean_sq: f32 = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (mean_sq + eps).sqrt();
    for (v, w) in x.iter_mut().zip(weight.iter()) {
        *v = *v * inv * w;
    }
}

/// Applies RMS normalisation to every row of a matrix in place.
///
/// # Panics
///
/// Panics if `weight.len() != m.cols()`.
pub fn rms_norm_rows(m: &mut Matrix, weight: &[f32], eps: f32) {
    assert_eq!(
        m.cols(),
        weight.len(),
        "rms_norm_rows weight length mismatch"
    );
    for r in 0..m.rows() {
        rms_norm(m.row_mut(r), weight, eps);
    }
}

/// The SiLU (a.k.a. swish) activation: `x * sigmoid(x)`.
///
/// # Example
///
/// ```
/// assert_eq!(cocktail_tensor::ops::silu(0.0), 0.0);
/// assert!(cocktail_tensor::ops::silu(10.0) > 9.9);
/// ```
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Applies SiLU element-wise in place.
pub fn silu_in_place(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = silu(*x);
    }
}

/// Applies rotary position embeddings (RoPE) to a single head vector in
/// place, for absolute position `pos`.
///
/// The vector is interpreted as `dim/2` complex pairs `(x[2i], x[2i+1])`,
/// each rotated by angle `pos · θ⁻²ⁱ/ᵈ` with base `theta` (10 000.0 for
/// Llama-family models).
///
/// # Panics
///
/// Panics if the vector length is odd.
///
/// # Example
///
/// ```
/// let mut v = vec![1.0f32, 0.0];
/// cocktail_tensor::ops::rope_in_place(&mut v, 0, 10_000.0);
/// assert_eq!(v, vec![1.0, 0.0]); // position 0 is a no-op rotation
/// ```
pub fn rope_in_place(x: &mut [f32], pos: usize, theta: f32) {
    assert!(x.len() % 2 == 0, "RoPE requires an even head dimension");
    let dim = x.len();
    for i in 0..dim / 2 {
        let freq = 1.0 / theta.powf(2.0 * i as f32 / dim as f32);
        let angle = pos as f32 * freq;
        let (sin, cos) = angle.sin_cos();
        let a = x[2 * i];
        let b = x[2 * i + 1];
        x[2 * i] = a * cos - b * sin;
        x[2 * i + 1] = a * sin + b * cos;
    }
}

/// Applies RoPE to every row of a matrix, where row `r` sits at absolute
/// position `start_pos + r`.
///
/// # Panics
///
/// Panics if the column count is odd.
pub fn rope_rows(m: &mut Matrix, start_pos: usize, theta: f32) {
    for r in 0..m.rows() {
        rope_in_place(m.row_mut(r), start_pos + r, theta);
    }
}

/// Builds the additive causal attention mask for a query block of
/// `q_len` tokens attending over `kv_len` cached tokens.
///
/// Query row `i` corresponds to absolute position `kv_len - q_len + i`; it
/// may attend to every key at position `<=` its own, and is blocked
/// (`-inf`) from later keys. During decode (`q_len == 1`) the mask is all
/// zeros, matching the paper's Algorithm 1 where the single query token
/// attends to the whole context cache.
///
/// # Example
///
/// ```
/// let mask = cocktail_tensor::ops::causal_mask(2, 4);
/// assert_eq!(mask.get(0, 3), f32::NEG_INFINITY); // first query cannot see the last key
/// assert_eq!(mask.get(1, 3), 0.0); // last query sees everything
/// ```
pub fn causal_mask(q_len: usize, kv_len: usize) -> Matrix {
    let mut mask = Matrix::zeros(q_len, kv_len);
    let offset = kv_len.saturating_sub(q_len);
    for i in 0..q_len {
        for j in 0..kv_len {
            if j > offset + i {
                mask.set(i, j, f32::NEG_INFINITY);
            }
        }
    }
    mask
}

/// Borrowed key and value rows of one segment of an attention context:
/// row-major, `rows × head_dim` values each.
#[derive(Debug, Clone, Copy, Default)]
pub struct KvRows<'a> {
    /// Key rows.
    pub k: &'a [f32],
    /// Value rows.
    pub v: &'a [f32],
}

impl<'a> KvRows<'a> {
    /// All rows of a key and a value matrix.
    pub fn of(k: &'a Matrix, v: &'a Matrix) -> Self {
        Self {
            k: k.as_slice(),
            v: v.as_slice(),
        }
    }

    /// The leading `rows` rows of a key and a value matrix.
    ///
    /// # Panics
    ///
    /// Panics if either matrix has fewer than `rows` rows.
    pub fn leading(k: &'a Matrix, v: &'a Matrix, rows: usize) -> Self {
        Self {
            k: &k.as_slice()[..rows * k.cols()],
            v: &v.as_slice()[..rows * v.cols()],
        }
    }
}

/// Keys per block of the score loop in [`causal_attention`]: a block's
/// per-key accumulators are one fixed-size array the compiler keeps in
/// vector registers (8 measured slower; 32 and 64 no faster).
const KEY_LANES: usize = 16;

/// Streaming causal attention of a query block over a two-segment context:
/// `softmax(scale · Q·Kᵀ + causal_mask) · V` with `K`/`V` the rows of
/// `context[0]` followed by the rows of `context[1]`, computed one query
/// row at a time without ever holding a score, mask or probability matrix.
///
/// Query row `i` sits at absolute position `kv_len - q.rows() + i` (the
/// convention of [`causal_mask`]) and reads keys `0..=` that position only.
/// Apart from a key copy laid out dimension-major (`kv_len × head_dim`),
/// the working set is one score row that stays in L1.
///
/// # Bit-identity with the materialised path
///
/// For finite inputs the output equals, bit for bit,
/// `q.matmul_transposed(k)` → `scale_in_place(scale)` →
/// `masked_softmax(&causal_mask(q.rows(), kv_len))` → `matmul(v)`. That
/// path gives a masked entry the probability `exp(-inf) = 0.0`, which adds
/// nothing to the row sum and is skipped by `matmul`'s `a == 0.0` test, so
/// leaving masked keys out changes no bit — provided every visible key
/// goes through the same operations in the same order, which is this
/// sequence per query row:
///
/// 1. `acc = 0.0; acc += q[c] * k[j][c]` for `c` ascending — one
///    sequential chain per key, no reassociation, no fused multiply-add.
///    (The key copy is dimension-major so the loop vectorises *across*
///    keys; each key's own chain keeps its order.)
/// 2. `s = acc * scale`, then `s + 0.0` — the visible mask entry, which
///    turns `-0.0` into `+0.0`.
/// 3. `max` folded from `-inf` with `f32::max` over ascending keys; a row
///    whose max is `-inf` yields zeros.
/// 4. `p = exp(s - max)` and `sum += p`, left to right from `0.0`.
/// 5. `p /= sum` if `sum > 0.0`.
/// 6. `out += p * v[j]` over ascending keys, skipping `p == 0.0`.
///
/// # Errors
///
/// Returns [`ShapeError`] if a segment's key and value lengths differ or
/// are not a multiple of `q.cols()`, or if the context holds fewer rows
/// than `q`.
///
/// # Example
///
/// ```
/// use cocktail_tensor::ops::{causal_attention, causal_mask, KvRows};
/// use cocktail_tensor::rng::gaussian_matrix;
///
/// # fn main() -> Result<(), cocktail_tensor::ShapeError> {
/// let (q, k, v) = (
///     gaussian_matrix(5, 8, 1.0, 1),
///     gaussian_matrix(5, 8, 1.0, 2),
///     gaussian_matrix(5, 8, 1.0, 3),
/// );
/// let streamed = causal_attention(&q, [KvRows::default(), KvRows::of(&k, &v)], 0.5)?;
/// let mut scores = q.matmul_transposed(&k)?;
/// scores.scale_in_place(0.5);
/// let materialised = scores.masked_softmax(&causal_mask(5, 5))?.matmul(&v)?;
/// assert_eq!(streamed, materialised);
/// # Ok(())
/// # }
/// ```
pub fn causal_attention(
    q: &Matrix,
    context: [KvRows<'_>; 2],
    scale: f32,
) -> Result<Matrix, ShapeError> {
    let (q_len, head_dim) = q.shape();
    let mut out = Matrix::zeros(q_len, head_dim);
    if q.is_empty() {
        return Ok(out);
    }
    for segment in &context {
        if segment.k.len() != segment.v.len() || segment.k.len() % head_dim != 0 {
            return Err(ShapeError::new(
                "causal_attention",
                format!(
                    "segment of {} key and {} value elements for head dim {head_dim}",
                    segment.k.len(),
                    segment.v.len()
                ),
            ));
        }
    }
    let first_rows = context[0].k.len() / head_dim;
    let kv_len = first_rows + context[1].k.len() / head_dim;
    if kv_len < q_len {
        return Err(ShapeError::new(
            "causal_attention",
            format!("{q_len} query rows over a context of {kv_len} rows"),
        ));
    }
    let offset = kv_len - q_len;

    // Dimension-major keys, zero-padded to whole blocks so the score loop
    // never needs a tail case (scores past the visible range are ignored).
    let stride = kv_len.next_multiple_of(KEY_LANES);
    let mut keys_t = vec![0.0f32; head_dim * stride];
    let key_rows = context[0]
        .k
        .chunks_exact(head_dim)
        .chain(context[1].k.chunks_exact(head_dim));
    for (j, key) in key_rows.enumerate() {
        for (c, &x) in key.iter().enumerate() {
            keys_t[c * stride + j] = x;
        }
    }

    let mut scores = vec![0.0f32; stride];
    for i in 0..q_len {
        let visible = offset + i + 1;
        let q_row = q.row(i);
        for j0 in (0..visible).step_by(KEY_LANES) {
            let mut acc = [0.0f32; KEY_LANES];
            for (c, &qc) in q_row.iter().enumerate() {
                let keys = &keys_t[c * stride + j0..c * stride + j0 + KEY_LANES];
                for (a, &k) in acc.iter_mut().zip(keys) {
                    *a += qc * k;
                }
            }
            scores[j0..j0 + KEY_LANES].copy_from_slice(&acc);
        }
        let row = &mut scores[..visible];
        let mut max = f32::NEG_INFINITY;
        for s in row.iter_mut() {
            *s = *s * scale + 0.0;
            max = max.max(*s);
        }
        if max == f32::NEG_INFINITY {
            continue;
        }
        let mut sum = 0.0f32;
        for s in row.iter_mut() {
            *s = (*s - max).exp();
            sum += *s;
        }
        if sum > 0.0 {
            for s in row.iter_mut() {
                *s /= sum;
            }
        }
        let (first, second) = row.split_at(visible.min(first_rows));
        let out_row = out.row_mut(i);
        accumulate_weighted_rows(out_row, first, context[0].v);
        accumulate_weighted_rows(out_row, second, context[1].v);
    }
    Ok(out)
}

/// `out += w · row` for each weight and its row of `rows`, in order,
/// skipping exact-zero weights (step 6 of [`causal_attention`]).
fn accumulate_weighted_rows(out: &mut [f32], weights: &[f32], rows: &[f32]) {
    for (&w, row) in weights.iter().zip(rows.chunks_exact(out.len())) {
        if w == 0.0 {
            continue;
        }
        for (o, &x) in out.iter_mut().zip(row) {
            *o += w * x;
        }
    }
}

/// Permutes the columns of an additive attention mask.
///
/// When KV-cache chunks are reordered (Module II of the paper), the mask
/// columns must follow the same permutation so that each logical token keeps
/// its visibility; `col_order[new] = old`.
///
/// # Panics
///
/// Panics if `col_order.len() != mask.cols()` or any index is out of range.
pub fn permute_mask_columns(mask: &Matrix, col_order: &[usize]) -> Matrix {
    assert_eq!(
        col_order.len(),
        mask.cols(),
        "mask permutation length mismatch"
    );
    let mut out = Matrix::zeros(mask.rows(), mask.cols());
    for r in 0..mask.rows() {
        for (new_c, &old_c) in col_order.iter().enumerate() {
            assert!(old_c < mask.cols(), "mask permutation index out of range");
            out.set(r, new_c, mask.get(r, old_c));
        }
    }
    out
}

/// Rounds a slice of `f32` values through FP16 precision in place.
///
/// See [`crate::F16::round_trip`] for the rounding behaviour.
pub fn round_to_f16(values: &mut [f32]) {
    round_slice_to_f16(values);
}

/// Numerically stable softmax over a slice, in place.
///
/// Fully `-inf` inputs become all zeros (the fully-masked convention used by
/// [`Matrix::softmax_rows`]).
pub fn softmax_in_place(xs: &mut [f32]) {
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        for x in xs.iter_mut() {
            *x = 0.0;
        }
        return;
    }
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    }
}

/// Mean of a slice; `0.0` for an empty slice.
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rms_norm_produces_unit_rms_with_unit_weight() {
        let mut x = vec![1.0f32, 2.0, 3.0, 4.0];
        let w = vec![1.0f32; 4];
        rms_norm(&mut x, &w, 1e-6);
        let rms = (x.iter().map(|v| v * v).sum::<f32>() / 4.0).sqrt();
        assert!((rms - 1.0).abs() < 1e-4);
    }

    #[test]
    fn rms_norm_applies_weight() {
        let mut x = vec![1.0f32, 1.0];
        let w = vec![2.0f32, 0.5];
        rms_norm(&mut x, &w, 1e-6);
        assert!((x[0] / x[1] - 4.0).abs() < 1e-4);
    }

    #[test]
    fn rms_norm_empty_is_noop() {
        let mut x: Vec<f32> = vec![];
        rms_norm(&mut x, &[], 1e-6);
        assert!(x.is_empty());
    }

    #[test]
    fn rms_norm_rows_normalises_each_row_independently() {
        let mut m = Matrix::from_rows(&[vec![10.0, 0.0], vec![0.0, 0.1]]).unwrap();
        let w = vec![1.0f32, 1.0];
        rms_norm_rows(&mut m, &w, 1e-6);
        for r in 0..2 {
            let rms = (m.row(r).iter().map(|v| v * v).sum::<f32>() / 2.0).sqrt();
            assert!((rms - 1.0).abs() < 1e-2, "row {r} rms {rms}");
        }
    }

    #[test]
    fn silu_known_values() {
        assert_eq!(silu(0.0), 0.0);
        assert!((silu(1.0) - 0.731_058_6).abs() < 1e-5);
        assert!(silu(-20.0).abs() < 1e-6);
    }

    #[test]
    fn silu_in_place_matches_scalar() {
        let mut xs = vec![-1.0f32, 0.0, 2.0];
        let expected: Vec<f32> = xs.iter().map(|&x| silu(x)).collect();
        silu_in_place(&mut xs);
        assert_eq!(xs, expected);
    }

    #[test]
    fn rope_at_position_zero_is_identity() {
        let mut v = vec![0.3f32, -1.0, 2.0, 0.5];
        let original = v.clone();
        rope_in_place(&mut v, 0, 10_000.0);
        for (a, b) in v.iter().zip(original.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rope_preserves_norm() {
        let mut v = vec![1.0f32, 2.0, -0.5, 0.7, 3.0, -1.0];
        let norm_before = crate::l2_norm(&v);
        rope_in_place(&mut v, 17, 10_000.0);
        let norm_after = crate::l2_norm(&v);
        assert!((norm_before - norm_after).abs() < 1e-4);
    }

    #[test]
    fn rope_relative_rotation_property() {
        // The inner product of two RoPE-rotated vectors depends only on the
        // relative distance between their positions.
        let q = vec![0.5f32, 1.0, -0.3, 0.8];
        let k = vec![1.0f32, -0.2, 0.6, 0.4];
        let score_at = |pq: usize, pk: usize| {
            let mut qr = q.clone();
            let mut kr = k.clone();
            rope_in_place(&mut qr, pq, 10_000.0);
            rope_in_place(&mut kr, pk, 10_000.0);
            crate::dot(&qr, &kr)
        };
        let a = score_at(5, 2);
        let b = score_at(105, 102);
        assert!((a - b).abs() < 1e-3, "a={a} b={b}");
    }

    #[test]
    #[should_panic(expected = "even head dimension")]
    fn rope_panics_on_odd_dim() {
        let mut v = vec![1.0f32, 2.0, 3.0];
        rope_in_place(&mut v, 1, 10_000.0);
    }

    #[test]
    fn causal_mask_decode_step_is_all_zero() {
        let mask = causal_mask(1, 10);
        assert!(mask.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn causal_mask_prefill_blocks_future() {
        let mask = causal_mask(3, 3);
        assert_eq!(mask.get(0, 1), f32::NEG_INFINITY);
        assert_eq!(mask.get(0, 0), 0.0);
        assert_eq!(mask.get(2, 2), 0.0);
        assert_eq!(mask.get(1, 2), f32::NEG_INFINITY);
    }

    /// Attention inputs for the bit-identity tests. Mode 0 is plain
    /// gaussian; mode 1 scales Q and K up until most visible
    /// probabilities underflow to exactly `0.0`; mode 2 zeroes some query
    /// and key rows under a negative scale, so their scores are `-0.0`.
    fn attention_inputs(
        q_len: usize,
        kv_len: usize,
        head_dim: usize,
        mode: usize,
        seed: u64,
    ) -> (Matrix, Matrix, Matrix, f32) {
        let std = if mode == 1 { 40.0 } else { 1.0 };
        let mut q = crate::rng::gaussian_matrix(q_len, head_dim, std, seed);
        let mut k = crate::rng::gaussian_matrix(kv_len, head_dim, std, seed + 1);
        let v = crate::rng::gaussian_matrix(kv_len, head_dim, 1.0, seed + 2);
        let mut scale = 1.0 / (head_dim as f32).sqrt();
        if mode == 2 {
            scale = -scale;
            for r in (0..q_len).step_by(3) {
                q.row_mut(r).fill(0.0);
            }
            for r in (1..kv_len).step_by(4) {
                k.row_mut(r).fill(0.0);
            }
        }
        (q, k, v, scale)
    }

    /// The materialised path [`causal_attention`] must reproduce, with its
    /// scaled scores and probabilities.
    fn materialised_attention(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        scale: f32,
    ) -> (Matrix, Matrix, Matrix) {
        let mut scores = q.matmul_transposed(k).unwrap();
        scores.scale_in_place(scale);
        let probs = scores
            .masked_softmax(&causal_mask(q.rows(), k.rows()))
            .unwrap();
        let out = probs.matmul(v).unwrap();
        (scores, probs, out)
    }

    fn split_context<'a>(k: &'a Matrix, v: &'a Matrix, boundary: usize) -> [KvRows<'a>; 2] {
        let at = boundary * k.cols();
        [
            KvRows {
                k: &k.as_slice()[..at],
                v: &v.as_slice()[..at],
            },
            KvRows {
                k: &k.as_slice()[at..],
                v: &v.as_slice()[at..],
            },
        ]
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn causal_attention_inputs_reach_negative_zero_scores_and_zero_probabilities() {
        let (q, k, v, scale) = attention_inputs(24, 40, 16, 1, 7);
        let (_, probs, out) = materialised_attention(&q, &k, &v, scale);
        let offset = k.rows() - q.rows();
        let visible_zeros = (0..q.rows())
            .flat_map(|i| probs.row(i)[..=offset + i].to_vec())
            .filter(|&p| p == 0.0)
            .count();
        assert!(visible_zeros > 0, "mode 1 must underflow visible entries");
        let streamed = causal_attention(&q, split_context(&k, &v, offset), scale).unwrap();
        assert_eq!(bits(&streamed), bits(&out));

        let (q, k, v, scale) = attention_inputs(24, 40, 16, 2, 8);
        let (scores, _, out) = materialised_attention(&q, &k, &v, scale);
        assert!(scores
            .as_slice()
            .iter()
            .any(|s| s.to_bits() == (-0.0f32).to_bits()));
        let streamed = causal_attention(&q, split_context(&k, &v, offset), scale).unwrap();
        assert_eq!(bits(&streamed), bits(&out));
    }

    #[test]
    fn causal_attention_rejects_bad_shapes() {
        let q = Matrix::zeros(3, 4);
        let k = Matrix::zeros(2, 4);
        // Fewer context rows than query rows.
        assert!(causal_attention(&q, [KvRows::default(), KvRows::of(&k, &k)], 1.0).is_err());
        // Key and value lengths differ.
        let v = Matrix::zeros(3, 4);
        assert!(causal_attention(&q, [KvRows::of(&k, &v), KvRows::of(&v, &v)], 1.0).is_err());
        // Segment length not a multiple of the head dimension.
        let ragged = KvRows {
            k: &v.as_slice()[..6],
            v: &v.as_slice()[..6],
        };
        assert!(causal_attention(&q, [ragged, KvRows::of(&v, &v)], 1.0).is_err());
        // No queries: an empty result, whatever the context.
        let none = causal_attention(&Matrix::zeros(0, 4), [KvRows::default(); 2], 1.0).unwrap();
        assert_eq!(none.shape(), (0, 4));
    }

    #[test]
    fn permute_mask_columns_moves_blocks() {
        let mask = causal_mask(2, 4);
        let perm = vec![3, 2, 1, 0];
        let permuted = permute_mask_columns(&mask, &perm);
        for r in 0..2 {
            for (new_c, &old_c) in perm.iter().enumerate() {
                assert_eq!(permuted.get(r, new_c), mask.get(r, old_c));
            }
        }
    }

    #[test]
    fn softmax_in_place_sums_to_one() {
        let mut xs = vec![1.0f32, 2.0, 3.0];
        softmax_in_place(&mut xs);
        assert!((xs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_all_masked_is_zero() {
        let mut xs = vec![f32::NEG_INFINITY; 3];
        softmax_in_place(&mut xs);
        assert_eq!(xs, vec![0.0; 3]);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    proptest! {
        #[test]
        fn rope_is_norm_preserving_for_any_position(
            pos in 0usize..4096,
            v in proptest::collection::vec(-10.0f32..10.0, 2..16)
        ) {
            let mut v = v;
            if v.len() % 2 == 1 {
                v.pop();
            }
            prop_assume!(!v.is_empty());
            let before = crate::l2_norm(&v);
            rope_in_place(&mut v, pos, 10_000.0);
            let after = crate::l2_norm(&v);
            prop_assert!((before - after).abs() < 1e-2 * before.max(1.0));
        }

        #[test]
        fn rms_norm_output_is_finite(
            v in proptest::collection::vec(-1000.0f32..1000.0, 1..32)
        ) {
            let mut v = v;
            let w = vec![1.0f32; v.len()];
            rms_norm(&mut v, &w, 1e-6);
            prop_assert!(v.iter().all(|x| x.is_finite()));
        }

        // The streaming kernel against the materialised path, bit for bit:
        // every head dimension the profiles use, cold and resumed shapes,
        // the three input modes, and the context split at every row
        // boundary (0 is the cold all-suffix split, `prefix_len` the
        // engine's resumed one).
        #[test]
        fn causal_attention_is_bit_identical_to_the_materialised_path(
            suffix_len in 1usize..96,
            prefix_len in 0usize..96,
            dim_pick in 0usize..4,
            mode in 0usize..3,
            seed in 0u64..1000,
        ) {
            let head_dim = [2usize, 8, 16, 64][dim_pick];
            let kv_len = prefix_len + suffix_len;
            let (q, k, v, scale) = attention_inputs(suffix_len, kv_len, head_dim, mode, seed);
            let expected = bits(&materialised_attention(&q, &k, &v, scale).2);
            for boundary in 0..=kv_len {
                let streamed = causal_attention(&q, split_context(&k, &v, boundary), scale).unwrap();
                prop_assert_eq!(&bits(&streamed), &expected, "boundary {}", boundary);
            }
        }

        #[test]
        fn causal_mask_is_lower_triangular_band(q in 1usize..8, extra in 0usize..8) {
            let kv = q + extra;
            let mask = causal_mask(q, kv);
            for i in 0..q {
                for j in 0..kv {
                    let visible = j <= extra + i;
                    if visible {
                        prop_assert_eq!(mask.get(i, j), 0.0);
                    } else {
                        prop_assert_eq!(mask.get(i, j), f32::NEG_INFINITY);
                    }
                }
            }
        }
    }
}
