//! Task kinds, metrics and task instances.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The eight LongBench task families used in the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// Single-document QA (Qasper).
    Qasper,
    /// Query-based meeting summarization (QMSum).
    QmSum,
    /// Multi-document news summarization (MultiNews).
    MultiNews,
    /// Few-shot question-type classification (TREC).
    Trec,
    /// Few-shot reading-comprehension QA (TriviaQA).
    TriviaQa,
    /// Few-shot dialogue summarization (SAMSum).
    SamSum,
    /// Long-context code completion (LCC).
    Lcc,
    /// Repository-level code completion (RepoBench-P).
    RepoBenchP,
}

impl TaskKind {
    /// All task kinds in the column order of the paper's Table II.
    pub const ALL: [TaskKind; 8] = [
        TaskKind::Qasper,
        TaskKind::QmSum,
        TaskKind::MultiNews,
        TaskKind::Trec,
        TaskKind::TriviaQa,
        TaskKind::SamSum,
        TaskKind::Lcc,
        TaskKind::RepoBenchP,
    ];

    /// Dataset name as printed in the paper.
    pub const fn name(self) -> &'static str {
        match self {
            TaskKind::Qasper => "Qasper",
            TaskKind::QmSum => "QMSum",
            TaskKind::MultiNews => "MultiNews",
            TaskKind::Trec => "TREC",
            TaskKind::TriviaQa => "TriviaQA",
            TaskKind::SamSum => "SAMSum",
            TaskKind::Lcc => "LCC",
            TaskKind::RepoBenchP => "RepoBench-P",
        }
    }

    /// The evaluation metric the paper uses for this dataset (Table I).
    pub const fn metric(self) -> Metric {
        match self {
            TaskKind::Qasper | TaskKind::TriviaQa => Metric::F1,
            TaskKind::QmSum | TaskKind::MultiNews | TaskKind::SamSum => Metric::Rouge,
            TaskKind::Trec => Metric::Classification,
            TaskKind::Lcc | TaskKind::RepoBenchP => Metric::EditSimilarity,
        }
    }
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The scoring functions used across the benchmark (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Metric {
    /// Token-level F1 between prediction and reference.
    F1,
    /// ROUGE score (this reproduction reports ROUGE-L F-measure).
    Rouge,
    /// Exact-match classification accuracy.
    Classification,
    /// Normalised edit similarity (for code completion).
    EditSimilarity,
}

impl Metric {
    /// Metric name as printed in experiment output.
    pub const fn name(self) -> &'static str {
        match self {
            Metric::F1 => "F1",
            Metric::Rouge => "ROUGE",
            Metric::Classification => "Accuracy",
            Metric::EditSimilarity => "EditSim",
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One needle of answer-bearing content planted in the context.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Needle {
    /// Word offset of the needle sentence within the context.
    pub word_offset: usize,
    /// The distinctive anchor word that precedes the answer span (the cue an
    /// induction head locks onto).
    pub anchor: String,
    /// The answer words that follow the anchor in the context.
    pub answer_words: Vec<String>,
}

/// One evaluation example: a long context, a query, the reference answer
/// and the ground-truth location of the answer-bearing content.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskInstance {
    /// The task family this instance belongs to.
    pub kind: TaskKind,
    /// The long context (the part of the prompt whose KV cache is chunked
    /// and quantized).
    pub context: String,
    /// The query appended after the context.
    pub query: String,
    /// The reference answer.
    pub reference: String,
    /// The planted needles (answer-bearing spans), in context order.
    pub needles: Vec<Needle>,
    /// The seed the instance was generated from.
    pub seed: u64,
}

impl TaskInstance {
    /// Number of words in the context.
    pub fn context_words(&self) -> usize {
        self.context.split_whitespace().count()
    }

    /// The chunk indices (for a given chunk size) that contain at least one
    /// needle word — the ground-truth "relevant chunks".
    pub fn relevant_chunks(&self, chunk_size: usize) -> Vec<usize> {
        assert!(chunk_size > 0, "chunk size must be nonzero");
        let mut chunks: Vec<usize> = self
            .needles
            .iter()
            .flat_map(|n| {
                let start = n.word_offset;
                let end = n.word_offset + n.answer_words.len() + 1;
                (start / chunk_size)..=(end.saturating_sub(1) / chunk_size)
            })
            .collect();
        chunks.sort_unstable();
        chunks.dedup();
        chunks
    }

    /// Scores a prediction against the reference with the task's metric,
    /// on the paper's 0–100 scale.
    pub fn score(&self, prediction: &str) -> f64 {
        let raw = match self.kind.metric() {
            Metric::F1 => crate::metrics::token_f1(prediction, &self.reference),
            Metric::Rouge => crate::metrics::rouge_l(prediction, &self.reference),
            Metric::Classification => {
                crate::metrics::classification_score(prediction, &self.reference)
            }
            Metric::EditSimilarity => crate::metrics::edit_similarity(prediction, &self.reference),
        };
        raw * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Broad task family, as listed in Table I.
    const fn family(kind: TaskKind) -> &'static str {
        match kind {
            TaskKind::Qasper => "Single-Document QA",
            TaskKind::QmSum | TaskKind::MultiNews => "Summarization",
            TaskKind::Trec | TaskKind::TriviaQa | TaskKind::SamSum => "Few-shot Learning",
            TaskKind::Lcc | TaskKind::RepoBenchP => "Code Completion",
        }
    }

    #[test]
    fn eight_tasks_in_table_order() {
        let names: Vec<&str> = TaskKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "Qasper",
                "QMSum",
                "MultiNews",
                "TREC",
                "TriviaQA",
                "SAMSum",
                "LCC",
                "RepoBench-P"
            ]
        );
    }

    #[test]
    fn metrics_match_table_one() {
        assert_eq!(TaskKind::Qasper.metric(), Metric::F1);
        assert_eq!(TaskKind::QmSum.metric(), Metric::Rouge);
        assert_eq!(TaskKind::Trec.metric(), Metric::Classification);
        assert_eq!(TaskKind::Lcc.metric(), Metric::EditSimilarity);
        assert_eq!(TaskKind::TriviaQa.metric(), Metric::F1);
    }

    #[test]
    fn families_match_table_one() {
        assert_eq!(family(TaskKind::Qasper), "Single-Document QA");
        assert_eq!(family(TaskKind::MultiNews), "Summarization");
        assert_eq!(family(TaskKind::SamSum), "Few-shot Learning");
        assert_eq!(family(TaskKind::RepoBenchP), "Code Completion");
    }

    #[test]
    fn relevant_chunks_cover_needles() {
        let instance = TaskInstance {
            kind: TaskKind::Qasper,
            context: "w ".repeat(100).trim().to_string(),
            query: "q".into(),
            reference: "a b".into(),
            needles: vec![Needle {
                word_offset: 40,
                anchor: "anchor".into(),
                answer_words: vec!["a".into(), "b".into()],
            }],
            seed: 0,
        };
        assert_eq!(instance.relevant_chunks(32), vec![1]);
        assert_eq!(instance.relevant_chunks(8), vec![5]);
    }

    #[test]
    fn score_uses_the_task_metric() {
        let instance = TaskInstance {
            kind: TaskKind::Trec,
            context: "c".into(),
            query: "q".into(),
            reference: "location".into(),
            needles: vec![],
            seed: 0,
        };
        assert_eq!(instance.score("location"), 100.0);
        assert_eq!(instance.score("number"), 0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Metric::Rouge.to_string(), "ROUGE");
        assert_eq!(TaskKind::RepoBenchP.to_string(), "RepoBench-P");
    }
}
