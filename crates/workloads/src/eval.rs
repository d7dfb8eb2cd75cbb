//! The accuracy evaluation harness.
//!
//! The paper measures model accuracy on LongBench with pretrained 7B/13B
//! checkpoints. This reproduction cannot run those models, so accuracy is
//! measured with an *induction-head extraction model*: a single attention
//! head whose keys encode the previous token and whose values encode the
//! current token, built over the same chunked KV cache the quantization
//! policies rewrite. Reading an answer out of the context then requires
//! real attention arithmetic over the (quantized) cache:
//!
//! 1. the query names a unique *anchor* token that also appears in the
//!    context right before the answer span;
//! 2. the extractor attends with the anchor's embedding, which matches the
//!    key of the token following the anchor — provided that chunk's keys
//!    survived quantization;
//! 3. the attention output is decoded to the nearest vocabulary embedding,
//!    which reproduces the answer token — provided that chunk's values
//!    survived quantization — and the process repeats autoregressively.
//!
//! Quantizing an answer-bearing chunk to INT2 corrupts both the match and
//! the read-out, so the task metric drops; quantizing irrelevant chunks is
//! harmless. This is precisely the causal chain Cocktail exploits, realised
//! with the same quantized-attention kernels the rest of the system uses.

use crate::task::TaskInstance;
use cocktail_baselines::{CachePolicy, PolicyContext, PolicyReport};
use cocktail_kvcache::{ChunkSegmentation, ChunkedLayerCache, KvCacheError};
use cocktail_retrieval::chunking;
use cocktail_tensor::rng::{derive_seed, seeded_rng};
use cocktail_tensor::Matrix;
use rand::Rng;
use std::collections::HashMap;
use std::collections::HashSet;

/// Configuration of the extraction-based evaluator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalConfig {
    /// Context chunk size in tokens (must match the policy's chunk size).
    pub chunk_size: usize,
    /// Dimension of the word embeddings used for keys, values and queries.
    /// Smaller dimensions make the read-out more sensitive to quantization
    /// noise, mimicking how error accumulates in a deep model.
    pub embed_dim: usize,
    /// Softmax sharpness (the scale applied to attention logits).
    pub sharpness: f32,
    /// Minimum cosine similarity between the attention output and the best
    /// vocabulary embedding for a token to be emitted. Below the threshold
    /// the extractor emits `<unk>`, modelling how a real model's decoding
    /// goes off-answer once the retrieved context features are too
    /// corrupted to decode confidently.
    pub confidence_threshold: f32,
    /// Seed for the embedding table.
    pub embedding_seed: u64,
}

impl EvalConfig {
    /// The default evaluator configuration used by the experiment
    /// harnesses: chunk size 32 (the paper's default), 16-dimensional
    /// embeddings, a softmax sharpness of 20 and a decoding-confidence
    /// threshold of 0.93.
    ///
    /// The confidence threshold is what makes the harness sensitive to KV
    /// quantization: when the answer-bearing chunk's keys/values are
    /// heavily quantized, the retrieved representation falls below the
    /// threshold and the extraction goes off-answer, exactly as a real
    /// model's long-context recall degrades; noise on irrelevant chunks
    /// leaves the margin intact.
    pub fn new(chunk_size: usize) -> Self {
        Self {
            chunk_size,
            embed_dim: 16,
            sharpness: 20.0,
            confidence_threshold: 0.93,
            embedding_seed: 0x00E3_7A11,
        }
    }
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self::new(32)
    }
}

/// The result of evaluating one policy on one task instance.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// Task score on the paper's 0–100 scale.
    pub score: f64,
    /// The extracted prediction text.
    pub prediction: String,
    /// What the policy did to the cache.
    pub report: PolicyReport,
    /// KV-cache bytes after the policy ran (extraction cache, single head).
    pub cache_bytes: usize,
    /// KV-cache bytes of the same cache in FP16.
    pub fp16_cache_bytes: usize,
}

/// The induction-head extraction evaluator.
///
/// # Example
///
/// ```
/// use cocktail_baselines::Fp16Policy;
/// use cocktail_workloads::eval::{EvalConfig, Evaluator};
/// use cocktail_workloads::{TaskGenerator, TaskKind, WorkloadConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let task = TaskGenerator::new(TaskKind::Qasper, WorkloadConfig::tiny()).generate(3);
/// let evaluator = Evaluator::new(EvalConfig::new(16));
/// let outcome = evaluator.evaluate(&task, &Fp16Policy::new())?;
/// assert!(outcome.score > 50.0); // FP16 cache: the answer is read out almost verbatim
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator {
    config: EvalConfig,
}

impl Evaluator {
    /// Creates an evaluator.
    pub fn new(config: EvalConfig) -> Self {
        Self { config }
    }

    /// The evaluator configuration.
    pub fn config(&self) -> &EvalConfig {
        &self.config
    }

    /// Deterministic unit-norm embedding of a word.
    pub(crate) fn word_embedding(&self, word: &str) -> Vec<f32> {
        let seed = derive_seed(self.config.embedding_seed, word);
        let mut rng = seeded_rng(seed);
        let mut v: Vec<f32> = (0..self.config.embed_dim)
            .map(|_| {
                let sum: f32 = (0..12).map(|_| rng.gen::<f32>()).sum();
                sum - 6.0
            })
            .collect();
        let norm = cocktail_tensor::l2_norm(&v).max(1e-6);
        for x in &mut v {
            *x /= norm;
        }
        v
    }

    /// Builds the induction-head KV cache for a context: key of position
    /// `i` is the embedding of token `i − 1` (the "previous token" feature a
    /// real induction head computes), value of position `i` is the
    /// embedding of token `i` itself.
    pub fn build_cache(&self, context_words: &[String]) -> Result<ChunkedLayerCache, KvCacheError> {
        let dim = self.config.embed_dim;
        let n = context_words.len();
        let mut k = Matrix::zeros(n, dim);
        let mut v = Matrix::zeros(n, dim);
        for i in 0..n {
            let prev = if i == 0 {
                "<bos>"
            } else {
                &context_words[i - 1]
            };
            k.row_mut(i).copy_from_slice(&self.word_embedding(prev));
            v.row_mut(i)
                .copy_from_slice(&self.word_embedding(&context_words[i]));
        }
        let seg = ChunkSegmentation::new(n, self.config.chunk_size)?;
        ChunkedLayerCache::from_prefill(&k, &v, &seg)
    }

    /// The anchors the extractor will follow: query words that occur in the
    /// context exactly once (everything else is either filler vocabulary or
    /// absent). This needs no ground-truth knowledge of the task.
    pub(crate) fn find_anchors(&self, context_words: &[String], query: &str) -> Vec<String> {
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for w in context_words {
            *counts.entry(w.as_str()).or_insert(0) += 1;
        }
        let mut seen = HashSet::new();
        chunking::split_words(query)
            .into_iter()
            .filter(|w| counts.get(w.as_str()) == Some(&1) && seen.insert(w.clone()))
            .collect()
    }

    /// Extracts a continuation starting after `anchor` by repeated
    /// attention over the cache and nearest-embedding read-out, until
    /// `content_words` non-punctuation tokens have been produced (with a
    /// small step budget so a derailed extraction terminates).
    fn extract_span(
        &self,
        cache: &ChunkedLayerCache,
        vocabulary: &[(String, Vec<f32>)],
        anchor: &str,
        content_words: usize,
    ) -> Result<Vec<String>, KvCacheError> {
        let mut produced = Vec::new();
        let mut prev = anchor.to_string();
        let max_steps = content_words + 3;
        let mut content = 0usize;
        for _ in 0..max_steps {
            if content >= content_words {
                break;
            }
            let q = Matrix::from_vec(1, self.config.embed_dim, self.word_embedding(&prev))
                .expect("embedding length matches dim");
            let attention = cache.attend(&q, self.config.sharpness)?;
            let output = attention.row(0);
            let output_norm = cocktail_tensor::l2_norm(output).max(1e-6);
            let mut best_word = "";
            let mut best_score = f32::NEG_INFINITY;
            for (word, embedding) in vocabulary {
                let score = cocktail_tensor::dot(output, embedding) / output_norm;
                if score > best_score {
                    best_score = score;
                    best_word = word;
                }
            }
            // Decode only when the retrieved representation is clean enough;
            // otherwise the extraction goes off-answer (an <unk> token).
            let emitted = if best_score >= self.config.confidence_threshold {
                best_word.to_string()
            } else {
                "<unk>".to_string()
            };
            prev = emitted.clone();
            if is_content_word(&emitted) {
                produced.push(emitted);
                content += 1;
            }
        }
        Ok(produced)
    }

    /// Evaluates one policy on one task instance.
    ///
    /// # Errors
    ///
    /// Returns a [`KvCacheError`] if the cache construction or attention
    /// fails, or a boxed policy error if the policy rejects the cache.
    pub fn evaluate(
        &self,
        task: &TaskInstance,
        policy: &dyn CachePolicy,
    ) -> Result<EvalOutcome, Box<dyn std::error::Error>> {
        let context_words = chunking::split_words(&task.context);
        let mut cache = self.build_cache(&context_words)?;
        let fp16_cache_bytes = cache.fp16_reference_bytes();

        let chunk_texts = chunking::chunk_words(&task.context, self.config.chunk_size);
        let ctx = PolicyContext::new(chunk_texts, task.query.clone());
        let report = policy.apply_layer(&mut cache, &ctx)?;
        let cache_bytes = cache.storage_bytes();

        // Vocabulary for the read-out: every distinct context word.
        let mut vocabulary: Vec<(String, Vec<f32>)> = Vec::new();
        let mut seen = HashSet::new();
        for w in &context_words {
            if seen.insert(w.clone()) {
                vocabulary.push((w.clone(), self.word_embedding(w)));
            }
        }

        let anchors = self.find_anchors(&context_words, &task.query);
        let reference_words = chunking::split_words(&task.reference).len().max(1);
        let per_anchor = if anchors.is_empty() {
            0
        } else {
            reference_words.div_ceil(anchors.len())
        };

        let mut predicted = Vec::new();
        for anchor in &anchors {
            predicted.extend(self.extract_span(&cache, &vocabulary, anchor, per_anchor)?);
        }
        let prediction = predicted.join(" ");
        Ok(EvalOutcome {
            score: task.score(&prediction),
            prediction,
            report,
            cache_bytes,
            fp16_cache_bytes,
        })
    }

    /// Evaluates a policy over a batch of task instances and returns the
    /// mean score (0–100).
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation error.
    pub fn mean_score(
        &self,
        tasks: &[TaskInstance],
        policy: &dyn CachePolicy,
    ) -> Result<f64, Box<dyn std::error::Error>> {
        if tasks.is_empty() {
            return Ok(0.0);
        }
        let mut total = 0.0;
        for task in tasks {
            total += self.evaluate(task, policy)?.score;
        }
        Ok(total / tasks.len() as f64)
    }
}

/// A token counts as content if it contains at least one alphanumeric
/// character (punctuation connectors like `":"` or `"="` do not).
fn is_content_word(word: &str) -> bool {
    word.chars().any(|c| c.is_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TaskGenerator, TaskKind, WorkloadConfig};
    use cocktail_baselines::{AtomPolicy, Fp16Policy, KvQuantPolicy};
    use cocktail_quant::Bitwidth;

    fn evaluator() -> Evaluator {
        Evaluator::new(EvalConfig::new(16))
    }

    fn tasks(kind: TaskKind, count: usize) -> Vec<TaskInstance> {
        TaskGenerator::new(kind, WorkloadConfig::small()).generate_batch(40, count)
    }

    #[test]
    fn embeddings_are_deterministic_unit_norm() {
        let eval = evaluator();
        let a = eval.word_embedding("crimson");
        let b = eval.word_embedding("crimson");
        let c = eval.word_embedding("falcon");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!((cocktail_tensor::l2_norm(&a) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn anchors_are_query_words_unique_in_context() {
        let eval = evaluator();
        let task = TaskGenerator::qasper(WorkloadConfig::tiny()).generate(7);
        let words = chunking::split_words(&task.context);
        let anchors = eval.find_anchors(&words, &task.query);
        assert_eq!(anchors.len(), task.needles.len());
        for needle in &task.needles {
            assert!(anchors.contains(&needle.anchor));
        }
    }

    #[test]
    fn fp16_cache_reads_the_answer_out_almost_verbatim() {
        let eval = evaluator();
        let task = TaskGenerator::qasper(WorkloadConfig::small()).generate(51);
        let outcome = eval.evaluate(&task, &Fp16Policy::new()).unwrap();
        assert!(
            outcome.score > 60.0,
            "FP16 extraction should be nearly perfect, got {} ({})",
            outcome.score,
            outcome.prediction
        );
        for answer in &task.needles[0].answer_words {
            assert!(
                outcome.prediction.contains(answer),
                "prediction {:?} should contain {answer}",
                outcome.prediction
            );
        }
    }

    #[test]
    fn uniform_int2_hurts_accuracy_much_more_than_fp16() {
        let eval = evaluator();
        let batch = tasks(TaskKind::Qasper, 4);
        let fp16 = eval.mean_score(&batch, &Fp16Policy::new()).unwrap();
        let int2 = eval
            .mean_score(&batch, &AtomPolicy::new(Bitwidth::Int2, 32).unwrap())
            .unwrap();
        assert!(
            fp16 - int2 > 10.0,
            "uniform INT2 should lose noticeable accuracy: fp16={fp16:.1} int2={int2:.1}"
        );
    }

    #[test]
    fn int4_sits_between_fp16_and_int2() {
        let eval = evaluator();
        let batch = tasks(TaskKind::TriviaQa, 4);
        let fp16 = eval.mean_score(&batch, &Fp16Policy::new()).unwrap();
        let int4 = eval.mean_score(&batch, &AtomPolicy::default()).unwrap();
        let int2 = eval
            .mean_score(&batch, &AtomPolicy::new(Bitwidth::Int2, 32).unwrap())
            .unwrap();
        assert!(fp16 >= int4 - 1e-9, "fp16={fp16:.1} int4={int4:.1}");
        assert!(int4 >= int2 - 5.0, "int4={int4:.1} int2={int2:.1}");
    }

    #[test]
    fn kvquant_outliers_do_not_hurt_memory_much() {
        let eval = evaluator();
        let task = TaskGenerator::qasper(WorkloadConfig::small()).generate(60);
        let atom = eval.evaluate(&task, &AtomPolicy::default()).unwrap();
        let kvq = eval.evaluate(&task, &KvQuantPolicy::default()).unwrap();
        assert!(kvq.cache_bytes >= atom.cache_bytes);
        assert!(kvq.cache_bytes < kvq.fp16_cache_bytes);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let eval = evaluator();
        let task = TaskGenerator::qmsum(WorkloadConfig::tiny()).generate(9);
        let a = eval.evaluate(&task, &AtomPolicy::default()).unwrap();
        let b = eval.evaluate(&task, &AtomPolicy::default()).unwrap();
        assert_eq!(a.score, b.score);
        assert_eq!(a.prediction, b.prediction);
    }

    #[test]
    fn empty_task_batch_scores_zero() {
        let eval = evaluator();
        assert_eq!(eval.mean_score(&[], &Fp16Policy::new()).unwrap(), 0.0);
    }
}
