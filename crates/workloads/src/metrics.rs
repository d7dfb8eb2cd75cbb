//! Text-similarity metrics used by the LongBench-style evaluation
//! (Table I of the paper): token F1, ROUGE, classification accuracy and
//! edit similarity. All metrics return a value in `[0, 1]`.

use std::collections::HashMap;

fn tokens(text: &str) -> Vec<String> {
    text.split_whitespace()
        .map(|w| {
            w.chars()
                .filter(|c| c.is_alphanumeric() || *c == '-' || *c == '_')
                .collect::<String>()
                .to_lowercase()
        })
        .filter(|w| !w.is_empty())
        .collect()
}

/// Token-level F1 between a prediction and a reference (the metric of
/// Qasper and TriviaQA).
///
/// # Example
///
/// ```
/// let f1 = cocktail_workloads::metrics::token_f1("the red fox", "a red fox");
/// assert!(f1 > 0.6 && f1 < 1.0);
/// assert_eq!(cocktail_workloads::metrics::token_f1("same words", "same words"), 1.0);
/// ```
pub fn token_f1(prediction: &str, reference: &str) -> f64 {
    let pred = tokens(prediction);
    let reference = tokens(reference);
    if pred.is_empty() || reference.is_empty() {
        return if pred.is_empty() && reference.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let mut ref_counts: HashMap<&str, usize> = HashMap::new();
    for t in &reference {
        *ref_counts.entry(t.as_str()).or_insert(0) += 1;
    }
    let mut overlap = 0usize;
    for t in &pred {
        if let Some(count) = ref_counts.get_mut(t.as_str()) {
            if *count > 0 {
                *count -= 1;
                overlap += 1;
            }
        }
    }
    if overlap == 0 {
        return 0.0;
    }
    let precision = overlap as f64 / pred.len() as f64;
    let recall = overlap as f64 / reference.len() as f64;
    2.0 * precision * recall / (precision + recall)
}

/// ROUGE-L F-measure based on the longest common subsequence of tokens.
pub(crate) fn rouge_l(prediction: &str, reference: &str) -> f64 {
    let pred = tokens(prediction);
    let reference = tokens(reference);
    if pred.is_empty() || reference.is_empty() {
        return if pred.is_empty() && reference.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let lcs = lcs_length(&pred, &reference);
    if lcs == 0 {
        return 0.0;
    }
    let precision = lcs as f64 / pred.len() as f64;
    let recall = lcs as f64 / reference.len() as f64;
    2.0 * precision * recall / (precision + recall)
}

fn lcs_length(a: &[String], b: &[String]) -> usize {
    let mut prev = vec![0usize; b.len() + 1];
    let mut current = vec![0usize; b.len() + 1];
    for x in a {
        for (j, y) in b.iter().enumerate() {
            current[j + 1] = if x == y {
                prev[j] + 1
            } else {
                prev[j + 1].max(current[j])
            };
        }
        std::mem::swap(&mut prev, &mut current);
    }
    prev[b.len()]
}

/// Classification accuracy: 1.0 when the predicted label matches the
/// reference label (compared as the first token of each, case-insensitive),
/// 0.0 otherwise. Used for TREC.
pub(crate) fn classification_score(prediction: &str, reference: &str) -> f64 {
    let pred = tokens(prediction);
    let reference = tokens(reference);
    match (pred.first(), reference.first()) {
        (Some(p), Some(r)) if p == r => 1.0,
        (None, None) => 1.0,
        _ => 0.0,
    }
}

/// Normalised edit similarity `1 − levenshtein / max_len` over characters,
/// the metric LongBench uses for the code-completion tasks.
pub(crate) fn edit_similarity(prediction: &str, reference: &str) -> f64 {
    let a: Vec<char> = prediction.trim().chars().collect();
    let b: Vec<char> = reference.trim().chars().collect();
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(&a, &b) as f64 / max_len as f64
}

fn levenshtein(a: &[char], b: &[char]) -> usize {
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut current = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            current[j + 1] = (prev[j + 1] + 1).min(current[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut current);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// ROUGE-N F-measure (n-gram overlap).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    fn rouge_n(prediction: &str, reference: &str, n: usize) -> f64 {
        assert!(n > 0, "ROUGE-N requires n >= 1");
        let pred = tokens(prediction);
        let reference = tokens(reference);
        if pred.len() < n || reference.len() < n {
            return if pred.is_empty() && reference.is_empty() {
                1.0
            } else {
                0.0
            };
        }
        let grams = |toks: &[String]| -> HashMap<Vec<String>, usize> {
            let mut map = HashMap::new();
            for w in toks.windows(n) {
                *map.entry(w.to_vec()).or_insert(0) += 1;
            }
            map
        };
        let pred_grams = grams(&pred);
        let ref_grams = grams(&reference);
        let overlap: usize = ref_grams
            .iter()
            .map(|(g, &count)| count.min(pred_grams.get(g).copied().unwrap_or(0)))
            .sum();
        if overlap == 0 {
            return 0.0;
        }
        let pred_total: usize = pred_grams.values().sum();
        let ref_total: usize = ref_grams.values().sum();
        let precision = overlap as f64 / pred_total as f64;
        let recall = overlap as f64 / ref_total as f64;
        2.0 * precision * recall / (precision + recall)
    }

    #[test]
    fn f1_exact_match_is_one() {
        assert_eq!(token_f1("alpha beta gamma", "alpha beta gamma"), 1.0);
    }

    #[test]
    fn f1_disjoint_is_zero() {
        assert_eq!(token_f1("alpha beta", "gamma delta"), 0.0);
    }

    #[test]
    fn f1_is_order_insensitive() {
        let a = token_f1("beta alpha", "alpha beta");
        assert_eq!(a, 1.0);
    }

    #[test]
    fn f1_partial_overlap() {
        let f1 = token_f1("alpha beta", "alpha gamma");
        assert!((f1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn f1_empty_handling() {
        assert_eq!(token_f1("", ""), 1.0);
        assert_eq!(token_f1("word", ""), 0.0);
        assert_eq!(token_f1("", "word"), 0.0);
    }

    #[test]
    fn rouge_1_matches_unigram_overlap() {
        let r = rouge_n("the cat sat", "the cat ran", 1);
        assert!((r - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn rouge_2_requires_bigram_overlap() {
        assert_eq!(rouge_n("a b c", "b a c", 2), 0.0);
        assert!(rouge_n("a b c", "a b d", 2) > 0.0);
    }

    #[test]
    fn rouge_l_rewards_in_order_subsequences() {
        let in_order = rouge_l("the quick brown fox jumped", "the brown fox jumped high");
        let shuffled = rouge_l("jumped fox brown the quick", "the brown fox jumped high");
        assert!(in_order > shuffled);
    }

    #[test]
    fn rouge_l_exact_match_is_one() {
        assert_eq!(rouge_l("summary of results", "summary of results"), 1.0);
    }

    #[test]
    fn classification_uses_first_token() {
        assert_eq!(classification_score("Location", "location"), 1.0);
        assert_eq!(
            classification_score("location of the city", "location"),
            1.0
        );
        assert_eq!(classification_score("number", "location"), 0.0);
    }

    #[test]
    fn edit_similarity_bounds() {
        assert_eq!(edit_similarity("let x = 5;", "let x = 5;"), 1.0);
        assert!(edit_similarity("let x = 5;", "let y = 6;") > 0.5);
        assert!(edit_similarity("abc", "xyz") < 0.1);
        assert_eq!(edit_similarity("", ""), 1.0);
    }

    #[test]
    fn punctuation_is_ignored_by_token_metrics() {
        assert_eq!(token_f1("alpha, beta!", "alpha beta"), 1.0);
        assert_eq!(classification_score("location.", "location"), 1.0);
    }

    proptest! {
        #[test]
        fn all_metrics_are_bounded(a in "[a-d ]{0,40}", b in "[a-d ]{0,40}") {
            for v in [
                token_f1(&a, &b),
                rouge_n(&a, &b, 1),
                rouge_n(&a, &b, 2),
                rouge_l(&a, &b),
                classification_score(&a, &b),
                edit_similarity(&a, &b),
            ] {
                prop_assert!((0.0..=1.0).contains(&v), "metric out of range: {v}");
            }
        }

        #[test]
        fn metrics_are_maximal_on_identical_inputs(a in "[a-d]{1,10}( [a-d]{1,10}){0,8}") {
            prop_assert_eq!(token_f1(&a, &a), 1.0);
            prop_assert_eq!(rouge_l(&a, &a), 1.0);
            prop_assert_eq!(edit_similarity(&a, &a), 1.0);
            prop_assert_eq!(classification_score(&a, &a), 1.0);
        }

        #[test]
        fn f1_and_rouge_are_symmetric_enough(a in "[a-c ]{0,30}", b in "[a-c ]{0,30}") {
            // F1 is symmetric by construction; check it holds numerically.
            prop_assert!((token_f1(&a, &b) - token_f1(&b, &a)).abs() < 1e-9);
            prop_assert!((rouge_l(&a, &b) - rouge_l(&b, &a)).abs() < 1e-9);
        }
    }
}
