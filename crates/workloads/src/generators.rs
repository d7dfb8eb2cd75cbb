//! Generators for the eight LongBench-style task families.

use crate::task::{Needle, TaskInstance, TaskKind};
use crate::text;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Size parameters of a generated workload.
///
/// # Example
///
/// ```
/// use cocktail_workloads::WorkloadConfig;
///
/// let cfg = WorkloadConfig::tiny();
/// assert!(cfg.context_words < WorkloadConfig::paper_scale().context_words);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Approximate number of words in the generated context.
    pub context_words: usize,
    /// Number of answer words per needle.
    pub answer_words: usize,
    /// Number of needles (answer-bearing spans) planted in the context.
    pub needles: usize,
}

impl WorkloadConfig {
    /// A very small configuration for unit tests and doc examples
    /// (~200-word context).
    pub fn tiny() -> Self {
        Self {
            context_words: 200,
            answer_words: 3,
            needles: 1,
        }
    }

    /// A small configuration suitable for fast accuracy sweeps
    /// (~640-word context).
    pub fn small() -> Self {
        Self {
            context_words: 640,
            answer_words: 4,
            needles: 2,
        }
    }

    /// The configuration used by the experiment harnesses: a ~2 000-word
    /// context, mirroring (at reduced scale) the long-context regime of the
    /// LongBench datasets.
    pub fn paper_scale() -> Self {
        Self {
            context_words: 2048,
            answer_words: 4,
            needles: 3,
        }
    }

    /// Returns a copy with a different context length.
    pub fn with_context_words(mut self, words: usize) -> Self {
        self.context_words = words;
        self
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// Generates [`TaskInstance`]s for one task family.
///
/// # Example
///
/// ```
/// use cocktail_workloads::{TaskGenerator, TaskKind, WorkloadConfig};
///
/// let generator = TaskGenerator::new(TaskKind::Trec, WorkloadConfig::tiny());
/// let a = generator.generate(1);
/// let b = generator.generate(1);
/// assert_eq!(a, b); // fully deterministic per seed
/// assert_eq!(a.kind, TaskKind::Trec);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskGenerator {
    kind: TaskKind,
    config: WorkloadConfig,
}

impl TaskGenerator {
    /// Creates a generator for the given task family and size.
    pub fn new(kind: TaskKind, config: WorkloadConfig) -> Self {
        Self { kind, config }
    }

    /// Convenience constructor for the Qasper-like single-document QA task.
    pub fn qasper(config: WorkloadConfig) -> Self {
        Self::new(TaskKind::Qasper, config)
    }

    /// Convenience constructor for the QMSum-like summarization task.
    pub fn qmsum(config: WorkloadConfig) -> Self {
        Self::new(TaskKind::QmSum, config)
    }

    /// The task family this generator produces.
    pub fn kind(&self) -> TaskKind {
        self.kind
    }

    /// The size configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Generates one deterministic task instance.
    pub fn generate(&self, seed: u64) -> TaskInstance {
        let mut rng = text::text_rng(seed.wrapping_mul(31).wrapping_add(self.kind as u64));
        let needles = self.needle_count();
        // Draw one shared pool of answer words so the same distinctive word
        // never appears in two different needles of the same instance.
        let per_needle = self.config.answer_words.max(1);
        let shared_answers = text::draw_answer_words(&mut rng, needles * per_needle);
        let specs: Vec<NeedleSpec> = (0..needles)
            .map(|i| {
                self.needle_spec(
                    &mut rng,
                    i,
                    &shared_answers[i * per_needle..(i + 1) * per_needle],
                )
            })
            .collect();
        let (context, planted) = self.assemble_context(&mut rng, &specs);
        let query = self.build_query(&specs);
        let reference = self.build_reference(&specs);
        TaskInstance {
            kind: self.kind,
            context,
            query,
            reference,
            needles: planted,
            seed,
        }
    }

    /// Generates a batch of instances with consecutive seeds.
    pub fn generate_batch(&self, base_seed: u64, count: usize) -> Vec<TaskInstance> {
        (0..count)
            .map(|i| self.generate(base_seed.wrapping_add(i as u64)))
            .collect()
    }

    fn needle_count(&self) -> usize {
        match self.kind {
            // Summarization tasks spread their reference content over
            // several needles; classification and completion use one.
            TaskKind::QmSum | TaskKind::MultiNews => self.config.needles.max(2),
            TaskKind::SamSum => self.config.needles.max(2),
            TaskKind::Trec | TaskKind::Lcc | TaskKind::RepoBenchP => 1,
            _ => self.config.needles.max(1),
        }
    }

    fn needle_spec(&self, rng: &mut ChaCha8Rng, index: usize, answers: &[String]) -> NeedleSpec {
        let anchor = text::anchor_token(rng, index);
        let answer_words = match self.kind {
            TaskKind::Trec => {
                vec![text::pick(rng, text::TREC_LABELS).to_string()]
            }
            _ => answers.to_vec(),
        };
        NeedleSpec {
            anchor,
            answer_words,
        }
    }

    fn filler_line(&self, rng: &mut ChaCha8Rng, line_index: usize) -> String {
        match self.kind {
            TaskKind::QmSum => text::meeting_sentence(rng),
            TaskKind::MultiNews => text::news_sentence(rng),
            TaskKind::SamSum => text::dialogue_line(rng),
            TaskKind::Lcc | TaskKind::RepoBenchP => {
                if self.kind == TaskKind::RepoBenchP && line_index % 12 == 0 {
                    format!("// file src/module_{line_index}.rs")
                } else {
                    text::code_line(rng)
                }
            }
            TaskKind::Trec => {
                // Few-shot examples of the classification format.
                let label = text::pick(rng, text::TREC_LABELS);
                format!(
                    "example question {} about {} category : {label} .",
                    line_index,
                    text::pick(rng, text::FILLER_OBJECTS)
                )
            }
            _ => text::filler_sentence(rng),
        }
    }

    fn needle_line(&self, spec: &NeedleSpec) -> String {
        // The answer words follow the anchor immediately, so an
        // induction-style reader that locks onto the anchor copies exactly
        // the answer span.
        let answers = spec.answer_words.join(" ");
        match self.kind {
            TaskKind::Trec => format!(
                "classification item for the {} {} category .",
                spec.anchor, answers
            ),
            TaskKind::Lcc | TaskKind::RepoBenchP => {
                format!("let {} {} ;", spec.anchor, answers)
            }
            TaskKind::QmSum => format!(
                "decision recorded for {} {} approved .",
                spec.anchor, answers
            ),
            TaskKind::MultiNews => {
                format!("breaking update on {} {} confirmed .", spec.anchor, answers)
            }
            TaskKind::SamSum => format!("alice : remember the {} {} .", spec.anchor, answers),
            _ => format!("note that the {} {} .", spec.anchor, answers),
        }
    }

    fn assemble_context(
        &self,
        rng: &mut ChaCha8Rng,
        specs: &[NeedleSpec],
    ) -> (String, Vec<Needle>) {
        let target_words = self.config.context_words.max(40);
        // Target word offsets for the needles, spread across the context with
        // a little seed-dependent jitter and kept away from the very edges.
        let mut targets: Vec<usize> = (0..specs.len())
            .map(|i| {
                let base = target_words * (i + 1) / (specs.len() + 1);
                let jitter = rng.gen_range(0..target_words / 10 + 1);
                (base + jitter).min(target_words.saturating_sub(20))
            })
            .collect();
        targets.sort_unstable();

        let mut words: Vec<String> = Vec::with_capacity(target_words + 32);
        let mut planted: Vec<Needle> = Vec::new();
        let mut next_needle = 0usize;
        let mut line_index = 0usize;
        while words.len() < target_words || next_needle < specs.len() {
            if next_needle < specs.len() && words.len() >= targets[next_needle] {
                let spec = &specs[next_needle];
                let line = self.needle_line(spec);
                let line_words: Vec<String> =
                    line.split_whitespace().map(|w| w.to_string()).collect();
                let anchor_offset = words.len()
                    + line_words
                        .iter()
                        .position(|w| {
                            w.trim_end_matches(|c: char| !c.is_alphanumeric()) == spec.anchor
                        })
                        .unwrap_or(0);
                planted.push(Needle {
                    word_offset: anchor_offset,
                    anchor: spec.anchor.clone(),
                    answer_words: spec.answer_words.clone(),
                });
                words.extend(line_words);
                next_needle += 1;
            } else {
                let line = self.filler_line(rng, line_index);
                words.extend(line.split_whitespace().map(|w| w.to_string()));
                line_index += 1;
            }
        }
        (words.join(" "), planted)
    }

    fn build_query(&self, specs: &[NeedleSpec]) -> String {
        let anchors: Vec<&str> = specs.iter().map(|s| s.anchor.as_str()).collect();
        match self.kind {
            TaskKind::Qasper => format!(
                "based on the passage , what is the {} ?",
                anchors.join(" and the ")
            ),
            TaskKind::QmSum => format!(
                "summarize the decisions recorded for {} in the meeting .",
                anchors.join(" and ")
            ),
            TaskKind::MultiNews => format!(
                "write a short summary covering the updates on {} .",
                anchors.join(" and ")
            ),
            TaskKind::Trec => format!(
                "classify the target question about the {} into its category .",
                anchors.join(" and ")
            ),
            TaskKind::TriviaQa => {
                format!("trivia time : what is the {} ?", anchors.join(" and the "))
            }
            TaskKind::SamSum => format!(
                "summarize what alice said about the {} .",
                anchors.join(" and the ")
            ),
            TaskKind::Lcc => format!("complete the assignment to {} .", anchors.join(" and ")),
            TaskKind::RepoBenchP => format!(
                "complete the definition of {} from the repository .",
                anchors.join(" and ")
            ),
        }
    }

    fn build_reference(&self, specs: &[NeedleSpec]) -> String {
        specs
            .iter()
            .map(|s| s.answer_words.join(" "))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[derive(Debug, Clone)]
struct NeedleSpec {
    anchor: String,
    answer_words: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_retrieval::chunking;

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let generator = TaskGenerator::qasper(WorkloadConfig::tiny());
        assert_eq!(generator.generate(5), generator.generate(5));
        assert_ne!(generator.generate(5).context, generator.generate(6).context);
    }

    #[test]
    fn context_reaches_requested_length_for_all_tasks() {
        for kind in TaskKind::ALL {
            let generator = TaskGenerator::new(kind, WorkloadConfig::small());
            let task = generator.generate(3);
            assert!(
                task.context_words() >= 640,
                "{kind} context too short: {}",
                task.context_words()
            );
            assert!(!task.query.is_empty());
            assert!(!task.reference.is_empty());
        }
    }

    #[test]
    fn anchors_appear_once_in_context_and_once_in_query() {
        for kind in TaskKind::ALL {
            let task = TaskGenerator::new(kind, WorkloadConfig::small()).generate(11);
            for needle in &task.needles {
                let context_hits = task
                    .context
                    .split_whitespace()
                    .filter(|w| w.trim_end_matches(|c: char| !c.is_alphanumeric()) == needle.anchor)
                    .count();
                assert_eq!(
                    context_hits, 1,
                    "{kind}: anchor {} not unique",
                    needle.anchor
                );
                assert!(
                    task.query.contains(&needle.anchor),
                    "{kind}: query must mention the anchor"
                );
            }
        }
    }

    #[test]
    fn anchor_word_offset_points_at_the_anchor() {
        for kind in TaskKind::ALL {
            let task = TaskGenerator::new(kind, WorkloadConfig::small()).generate(13);
            let words: Vec<&str> = task.context.split_whitespace().collect();
            for needle in &task.needles {
                let word =
                    words[needle.word_offset].trim_end_matches(|c: char| !c.is_alphanumeric());
                assert_eq!(word, needle.anchor, "{kind}: wrong anchor offset");
            }
        }
    }

    #[test]
    fn answer_words_follow_the_anchor_in_the_context() {
        let task = TaskGenerator::qasper(WorkloadConfig::small()).generate(17);
        let words = chunking::split_words(&task.context);
        for needle in &task.needles {
            // Find the anchor in the normalised word sequence.
            let pos = words.iter().position(|w| *w == needle.anchor).unwrap();
            for (i, answer) in needle.answer_words.iter().enumerate() {
                // Allow for small connector words between anchor and answers
                // depending on the template ("is", ":" etc.).
                let window = &words[pos..(pos + 6 + needle.answer_words.len()).min(words.len())];
                assert!(
                    window.contains(answer),
                    "answer word {answer} (#{i}) not found near anchor {}",
                    needle.anchor
                );
            }
        }
    }

    #[test]
    fn relevant_chunks_are_a_small_fraction_of_the_context() {
        let task = TaskGenerator::qmsum(WorkloadConfig::paper_scale()).generate(19);
        let chunk_size = 32;
        let total_chunks = task.context_words() / chunk_size;
        let relevant = task.relevant_chunks(chunk_size);
        assert!(!relevant.is_empty());
        assert!(
            relevant.len() * 5 <= total_chunks,
            "only a few chunks should be relevant ({} of {total_chunks})",
            relevant.len()
        );
    }

    #[test]
    fn trec_reference_is_a_valid_label() {
        let task = TaskGenerator::new(TaskKind::Trec, WorkloadConfig::small()).generate(23);
        assert!(text::TREC_LABELS.contains(&task.reference.as_str()));
    }

    #[test]
    fn summarization_tasks_have_multiple_needles() {
        for kind in [TaskKind::QmSum, TaskKind::MultiNews, TaskKind::SamSum] {
            let task = TaskGenerator::new(kind, WorkloadConfig::small()).generate(29);
            assert!(
                task.needles.len() >= 2,
                "{kind} should plant several needles"
            );
        }
    }

    #[test]
    fn code_tasks_look_like_code() {
        let task = TaskGenerator::new(TaskKind::Lcc, WorkloadConfig::small()).generate(31);
        assert!(task.context.contains("let "));
        assert!(task.context.contains(";"));
        let repo = TaskGenerator::new(TaskKind::RepoBenchP, WorkloadConfig::small()).generate(31);
        assert!(repo.context.contains("// file src/"));
    }

    #[test]
    fn batch_generation_produces_distinct_instances() {
        let batch = TaskGenerator::qasper(WorkloadConfig::tiny()).generate_batch(100, 4);
        assert_eq!(batch.len(), 4);
        assert_ne!(batch[0].context, batch[3].context);
    }
}
