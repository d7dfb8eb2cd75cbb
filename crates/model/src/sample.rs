//! Seeded, composable sampling over the engine's logits.
//!
//! The serving layers decode greedily by default: `argmax` over the last
//! logits row, first-max-wins on ties. This module layers a classic
//! sampling chain on top — temperature → repetition/presence penalty →
//! top-k → top-p → seeded categorical draw — without touching the logits
//! arithmetic, so the byte-identity discipline the repo is built on
//! carries over:
//!
//! * The engine's logits for a request are bit-identical regardless of
//!   batch composition (per-request vocab horizon, order-independent
//!   kernels), so a per-request sampler over those logits is
//!   automatically batch-invariant.
//! * Each request owns a private [`ChaCha8Rng`] stream keyed on a caller
//!   supplied seed ([`SamplingParams::seed`]), never on engine-assigned
//!   ids or wall clock. Replaying the same request with the same seed —
//!   on another replica, after a restart, or inside a longer trace —
//!   consumes the same stream and draws the same tokens.
//!
//! The deterministic part of the chain is exposed as
//! [`filtered_distribution`] (and per-stage helpers) so conformance tests
//! can pin each stage against hand-computed distributions; the draw
//! itself is one `next_u64` per sampled token.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Temperatures below this behave as greedy argmax (no RNG consumed), so
/// `temperature: 0.0` is an exact synonym for greedy decode.
pub(crate) const GREEDY_TEMPERATURE_EPSILON: f32 = 1e-6;

/// Per-request sampling configuration.
///
/// The default constructed by [`SamplingParams::seeded`] is an identity
/// chain (temperature 1, no truncation, no penalties) over the full
/// vocabulary — i.e. plain multinomial sampling from the softmax.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SamplingParams {
    /// Softmax temperature. `0.0` (or anything below
    /// `GREEDY_TEMPERATURE_EPSILON`, 1e-6) means greedy argmax.
    pub temperature: f32,
    /// Keep only the `k` highest-logit tokens before the draw.
    pub top_k: Option<usize>,
    /// Nucleus sampling: keep the smallest prefix of the sorted
    /// distribution whose cumulative probability reaches `p`.
    pub top_p: Option<f32>,
    /// CTRL-style repetition penalty applied to tokens already generated
    /// this request: positive logits are divided by it, negative logits
    /// multiplied. `1.0` disables.
    pub repetition_penalty: f32,
    /// Flat amount subtracted from the logit of every token already
    /// generated this request. `0.0` disables.
    pub presence_penalty: f32,
    /// Seed for the per-request ChaCha draw stream. Replays with the same
    /// seed (and same logits) are bit-identical.
    pub seed: u64,
}

impl SamplingParams {
    /// An identity chain (multinomial over the full softmax) with the
    /// given draw seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            temperature: 1.0,
            top_k: None,
            top_p: None,
            repetition_penalty: 1.0,
            presence_penalty: 0.0,
            seed,
        }
    }

    /// Derives the per-request seed from a trace-level base seed and a
    /// stable request index (SplitMix64 over their combination), the same
    /// keying the traffic generator uses. Two traces with the same base
    /// seed assign each request index the same stream no matter how many
    /// other requests the trace holds.
    pub fn for_request(base_seed: u64, request_index: u64) -> Self {
        let mut z = base_seed ^ request_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self::seeded(z ^ (z >> 31))
    }

    /// Sets the softmax temperature.
    pub fn with_temperature(mut self, temperature: f32) -> Self {
        self.temperature = temperature;
        self
    }

    /// Restricts the draw to the `k` highest-logit tokens.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Enables nucleus (top-p) truncation.
    pub fn with_top_p(mut self, p: f32) -> Self {
        self.top_p = Some(p);
        self
    }

    /// Sets the repetition penalty (`1.0` disables).
    pub fn with_repetition_penalty(mut self, penalty: f32) -> Self {
        self.repetition_penalty = penalty;
        self
    }

    /// Sets the presence penalty (`0.0` disables).
    pub fn with_presence_penalty(mut self, penalty: f32) -> Self {
        self.presence_penalty = penalty;
        self
    }

    /// Replaces the draw seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks every field for validity.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (gateways answer 400 with it)
    /// when: `temperature` is negative or non-finite, `top_k` is zero,
    /// `top_p` is outside `(0, 1]` or non-finite, `repetition_penalty`
    /// is not a finite positive number, or `presence_penalty` is
    /// negative or non-finite.
    pub fn validate(&self) -> Result<(), String> {
        if !self.temperature.is_finite() || self.temperature < 0.0 {
            return Err(format!(
                "temperature must be a finite number >= 0, got {}",
                self.temperature
            ));
        }
        if self.top_k == Some(0) {
            return Err("top_k must be at least 1".to_string());
        }
        if let Some(p) = self.top_p {
            if !p.is_finite() || p <= 0.0 || p > 1.0 {
                return Err(format!("top_p must be in (0, 1], got {p}"));
            }
        }
        if !self.repetition_penalty.is_finite() || self.repetition_penalty <= 0.0 {
            return Err(format!(
                "repetition_penalty must be a finite number > 0, got {}",
                self.repetition_penalty
            ));
        }
        if !self.presence_penalty.is_finite() || self.presence_penalty < 0.0 {
            return Err(format!(
                "presence_penalty must be a finite number >= 0, got {}",
                self.presence_penalty
            ));
        }
        Ok(())
    }

    /// `true` when the chain degenerates to greedy argmax and consumes no
    /// randomness (temperature below `GREEDY_TEMPERATURE_EPSILON`).
    pub fn is_greedy(&self) -> bool {
        self.temperature < GREEDY_TEMPERATURE_EPSILON
    }
}

/// A per-request sampler: validated [`SamplingParams`] plus the private
/// ChaCha draw stream they seed.
#[derive(Debug, Clone)]
pub struct SamplerChain {
    params: SamplingParams,
    rng: ChaCha8Rng,
}

impl SamplerChain {
    /// Builds the chain and seeds its draw stream from `params.seed`.
    pub fn new(params: SamplingParams) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(params.seed);
        Self { params, rng }
    }

    /// The parameters this chain was built with.
    pub fn params(&self) -> &SamplingParams {
        &self.params
    }

    /// Draws the next token from `logits`, given the tokens already
    /// generated for this request (`history`, used by the penalties).
    ///
    /// Advances the chain's RNG by exactly one `u64` per call — except on
    /// the greedy path (`temperature` ≈ 0), which consumes none, so a
    /// greedy-configured chain is byte-identical to the engine's argmax.
    ///
    /// # Panics
    ///
    /// Panics if `logits` is empty (the engine's vocab horizon is always
    /// at least one token).
    pub fn sample(&mut self, logits: &[f32], history: &[u32]) -> u32 {
        assert!(!logits.is_empty(), "sampler needs at least one logit");
        if self.params.is_greedy() {
            let mut penalized = logits.to_vec();
            apply_penalties(
                &mut penalized,
                history,
                self.params.repetition_penalty,
                self.params.presence_penalty,
            );
            return argmax(&penalized);
        }
        let support = filtered_distribution(logits, &self.params, history);
        let unit = self.rng.next_u64() as f64 / (u64::MAX as f64 + 1.0);
        pick(&support, unit)
    }
}

/// Greedy argmax with the engine's tie-break: the first (lowest-index)
/// maximum wins.
pub fn argmax(logits: &[f32]) -> u32 {
    let mut best = 0usize;
    let mut best_val = f32::NEG_INFINITY;
    for (i, &v) in logits.iter().enumerate() {
        if v > best_val {
            best_val = v;
            best = i;
        }
    }
    best as u32
}

/// Applies the repetition and presence penalties in place: every token id
/// in `history` has its logit divided by `repetition_penalty` when
/// positive (multiplied when negative, CTRL-style) and then reduced by
/// `presence_penalty`. Tokens outside the logits horizon are ignored.
pub fn apply_penalties(
    logits: &mut [f32],
    history: &[u32],
    repetition_penalty: f32,
    presence_penalty: f32,
) {
    if repetition_penalty == 1.0 && presence_penalty == 0.0 {
        return;
    }
    // Deduplicate so a token repeated N times is penalised once, keeping
    // the penalty magnitude independent of generation length.
    let mut seen = vec![false; logits.len()];
    for &token in history {
        let idx = token as usize;
        if idx >= logits.len() || seen[idx] {
            continue;
        }
        seen[idx] = true;
        let v = logits[idx];
        logits[idx] = if v > 0.0 {
            v / repetition_penalty
        } else {
            v * repetition_penalty
        } - presence_penalty;
    }
}

/// Divides every logit by `temperature` in place. `temperature == 1.0`
/// is a no-op; values below `GREEDY_TEMPERATURE_EPSILON` must be
/// handled by the caller (greedy path) and are ignored here.
pub fn apply_temperature(logits: &mut [f32], temperature: f32) {
    if temperature == 1.0 || temperature < GREEDY_TEMPERATURE_EPSILON {
        return;
    }
    for v in logits.iter_mut() {
        *v /= temperature;
    }
}

/// Sorts candidate `(token, logit)` pairs into draw order: logit
/// descending, token id ascending on ties. The deterministic order makes
/// truncation and the cumulative draw reproducible.
pub fn sort_candidates(candidates: &mut [(u32, f32)]) {
    candidates.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
}

/// Softmax over logits in draw order, accumulated in `f64` for stable
/// cumulative sums. Input must be non-empty.
pub fn softmax(logits: &[f32]) -> Vec<f64> {
    let max = logits.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let exps: Vec<f64> = logits.iter().map(|&v| f64::from(v - max).exp()).collect();
    let total: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / total).collect()
}

/// Keeps the smallest prefix of a draw-order-sorted probability list
/// whose cumulative mass reaches `p`, always at least one entry, and
/// renormalises the survivors to sum to one.
pub fn top_p_filter(sorted_probs: &mut Vec<(u32, f64)>, p: f32) {
    let p = f64::from(p);
    let mut cumulative = 0.0;
    let mut keep = sorted_probs.len();
    for (i, &(_, prob)) in sorted_probs.iter().enumerate() {
        cumulative += prob;
        if cumulative >= p {
            keep = i + 1;
            break;
        }
    }
    sorted_probs.truncate(keep);
    let total: f64 = sorted_probs.iter().map(|&(_, prob)| prob).sum();
    for entry in sorted_probs.iter_mut() {
        entry.1 /= total;
    }
}

/// Runs every deterministic stage of the chain — penalties, temperature,
/// top-k, softmax, top-p — and returns the resulting distribution in draw
/// order (probability descending, token id ascending on ties), summing
/// to one. The seeded draw is the only part left out, so golden-vector
/// tests can pin each stage exactly.
pub fn filtered_distribution(
    logits: &[f32],
    params: &SamplingParams,
    history: &[u32],
) -> Vec<(u32, f64)> {
    assert!(!logits.is_empty(), "sampler needs at least one logit");
    let mut working = logits.to_vec();
    apply_penalties(
        &mut working,
        history,
        params.repetition_penalty,
        params.presence_penalty,
    );
    apply_temperature(&mut working, params.temperature);
    let mut candidates: Vec<(u32, f32)> = working
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as u32, v))
        .collect();
    sort_candidates(&mut candidates);
    if let Some(k) = params.top_k {
        candidates.truncate(k.max(1));
    }
    let kept_logits: Vec<f32> = candidates.iter().map(|&(_, v)| v).collect();
    let probs = softmax(&kept_logits);
    let mut support: Vec<(u32, f64)> = candidates
        .iter()
        .map(|&(token, _)| token)
        .zip(probs)
        .collect();
    if let Some(p) = params.top_p {
        top_p_filter(&mut support, p);
    }
    support
}

/// Walks the cumulative distribution (in draw order) and returns the
/// token whose interval contains `unit` ∈ [0, 1).
fn pick(support: &[(u32, f64)], unit: f64) -> u32 {
    let mut cumulative = 0.0;
    for &(token, prob) in support {
        cumulative += prob;
        if unit < cumulative {
            return token;
        }
    }
    // Floating-point shortfall at the very top of the interval: fall back
    // to the last (least likely surviving) candidate.
    support.last().map(|&(token, _)| token).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_defaults_are_the_identity_chain() {
        let params = SamplingParams::seeded(7);
        assert_eq!(params.temperature, 1.0);
        assert_eq!(params.top_k, None);
        assert_eq!(params.top_p, None);
        assert_eq!(params.repetition_penalty, 1.0);
        assert_eq!(params.presence_penalty, 0.0);
        assert!(params.validate().is_ok());
        assert!(!params.is_greedy());
    }

    #[test]
    fn for_request_is_stable_and_index_sensitive() {
        let a = SamplingParams::for_request(42, 0);
        let b = SamplingParams::for_request(42, 0);
        let c = SamplingParams::for_request(42, 1);
        assert_eq!(a.seed, b.seed);
        assert_ne!(a.seed, c.seed);
    }

    #[test]
    fn validate_rejects_bad_params() {
        assert!(SamplingParams::seeded(0)
            .with_temperature(-0.5)
            .validate()
            .is_err());
        assert!(SamplingParams::seeded(0)
            .with_temperature(f32::NAN)
            .validate()
            .is_err());
        assert!(SamplingParams::seeded(0).with_top_k(0).validate().is_err());
        assert!(SamplingParams::seeded(0)
            .with_top_p(1.5)
            .validate()
            .is_err());
        assert!(SamplingParams::seeded(0)
            .with_top_p(0.0)
            .validate()
            .is_err());
        assert!(SamplingParams::seeded(0)
            .with_repetition_penalty(0.0)
            .validate()
            .is_err());
        assert!(SamplingParams::seeded(0)
            .with_presence_penalty(-1.0)
            .validate()
            .is_err());
    }

    #[test]
    fn greedy_chain_matches_argmax_and_consumes_no_rng() {
        let logits = [0.1, 2.0, 2.0, -1.0];
        let mut chain = SamplerChain::new(SamplingParams::seeded(3).with_temperature(0.0));
        // Repeated calls keep returning the argmax (first max wins).
        assert_eq!(chain.sample(&logits, &[]), 1);
        assert_eq!(chain.sample(&logits, &[]), 1);
        // An untouched stream from the same seed matches one that served
        // greedy draws, proving no RNG words were consumed.
        let mut fresh = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(chain.rng.next_u64(), fresh.next_u64());
    }

    #[test]
    fn same_seed_replays_bit_identically() {
        let logits = [0.3, 0.1, 0.9, 0.5, -0.2];
        let params = SamplingParams::seeded(99).with_top_k(4);
        let mut first = SamplerChain::new(params.clone());
        let mut second = SamplerChain::new(params);
        let mut history = Vec::new();
        for _ in 0..32 {
            let a = first.sample(&logits, &history);
            let b = second.sample(&logits, &history);
            assert_eq!(a, b);
            history.push(a);
        }
    }

    #[test]
    fn distribution_sums_to_one_and_respects_truncation() {
        let logits = [2.0, 1.0, 0.5, 0.0, -3.0];
        let params = SamplingParams::seeded(0).with_top_k(3).with_top_p(0.95);
        let support = filtered_distribution(&logits, &params, &[]);
        assert!(support.len() <= 3);
        let total: f64 = support.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for &(token, _) in &support {
            assert!(token < 3, "top-3 logits are the first three tokens");
        }
    }
}
