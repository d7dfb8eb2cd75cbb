//! Deterministic filler-text generation: word banks and sentence builders
//! used by the task generators.

use cocktail_tensor::rng::seeded_rng;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Subjects used in generic filler sentences.
pub(crate) const FILLER_SUBJECTS: &[&str] = &[
    "the committee",
    "the engineering team",
    "the quarterly report",
    "the field survey",
    "the maintenance crew",
    "the logistics group",
    "the research assistant",
    "the facility manager",
    "the external auditor",
    "the night shift",
];

/// Verbs used in generic filler sentences.
pub(crate) const FILLER_VERBS: &[&str] = &[
    "reviewed",
    "documented",
    "postponed",
    "inspected",
    "archived",
    "scheduled",
    "summarised",
    "monitored",
    "updated",
    "catalogued",
];

/// Objects used in generic filler sentences.
pub(crate) const FILLER_OBJECTS: &[&str] = &[
    "the inventory levels",
    "the ventilation system",
    "the staffing rotation",
    "the supply deliveries",
    "the safety checklist",
    "the training materials",
    "the budget forecast",
    "the equipment calibration",
    "the visitor records",
    "the incident backlog",
];

/// Trailing clauses for filler sentences.
pub(crate) const FILLER_TAILS: &[&str] = &[
    "without any unusual findings",
    "as part of the routine cycle",
    "ahead of the next review",
    "according to standard procedure",
    "with no outstanding issues",
    "before the end of the week",
    "in line with expectations",
    "for the third consecutive time",
];

/// Distinctive answer words. These never appear in filler text, so a
/// correct extraction is unambiguous and an incorrect one scores zero.
pub(crate) const ANSWER_WORDS: &[&str] = &[
    "crimson",
    "falcon",
    "zenith",
    "harbor",
    "willow",
    "ember",
    "quartz",
    "lagoon",
    "saffron",
    "onyx",
    "meridian",
    "juniper",
    "cobalt",
    "sparrow",
    "aurora",
    "basalt",
    "tundra",
    "velvet",
    "cascade",
    "marigold",
    "obsidian",
    "pelican",
    "sierra",
    "topaz",
    "verdant",
    "walnut",
    "yonder",
    "zephyr",
    "beacon",
    "cinder",
    "drift",
    "evergreen",
];

/// Anchor stems: combined with an index they form the unique cue word that
/// precedes an answer span (e.g. `"passphrase-3"`).
pub(crate) const ANCHOR_STEMS: &[&str] = &[
    "passphrase",
    "override",
    "directive",
    "clearance",
    "manifest",
    "protocol",
    "codeword",
    "waypoint",
    "ledger",
    "cipher",
];

/// TREC-style classification labels.
pub(crate) const TREC_LABELS: &[&str] = &[
    "location",
    "number",
    "person",
    "entity",
    "description",
    "abbreviation",
];

/// Identifier fragments for code-like filler.
pub(crate) const CODE_IDENTS: &[&str] = &[
    "batch", "buffer", "config", "cursor", "handle", "index", "offset", "payload", "queue",
    "record", "stream", "token", "worker", "cache", "frame",
];

/// Speaker names for dialogue filler.
pub(crate) const SPEAKERS: &[&str] = &["alice", "bob", "carol", "dave", "erin", "frank"];

/// Picks one item from a slice deterministically.
pub fn pick<'a>(rng: &mut ChaCha8Rng, items: &'a [&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

/// Generates one generic filler sentence (8–12 words).
pub(crate) fn filler_sentence(rng: &mut ChaCha8Rng) -> String {
    format!(
        "{} {} {} {} .",
        pick(rng, FILLER_SUBJECTS),
        pick(rng, FILLER_VERBS),
        pick(rng, FILLER_OBJECTS),
        pick(rng, FILLER_TAILS)
    )
}

/// Generates one meeting-transcript filler line.
pub(crate) fn meeting_sentence(rng: &mut ChaCha8Rng) -> String {
    format!(
        "{} : i think {} {} {} .",
        pick(rng, SPEAKERS),
        pick(rng, FILLER_SUBJECTS),
        pick(rng, FILLER_VERBS),
        pick(rng, FILLER_OBJECTS)
    )
}

/// Generates one news-style filler sentence.
pub(crate) fn news_sentence(rng: &mut ChaCha8Rng) -> String {
    format!(
        "officials said {} {} {} {} .",
        pick(rng, FILLER_SUBJECTS),
        pick(rng, FILLER_VERBS),
        pick(rng, FILLER_OBJECTS),
        pick(rng, FILLER_TAILS)
    )
}

/// Generates one code-like filler line.
pub(crate) fn code_line(rng: &mut ChaCha8Rng) -> String {
    let a = pick(rng, CODE_IDENTS);
    let b = pick(rng, CODE_IDENTS);
    let n: u32 = rng.gen_range(0..64);
    format!("let {a}_{n} = process_{b} ( {b}_input , {n} ) ;")
}

/// Generates one dialogue filler line.
pub(crate) fn dialogue_line(rng: &mut ChaCha8Rng) -> String {
    format!(
        "{} : did you see that {} {} ?",
        pick(rng, SPEAKERS),
        pick(rng, FILLER_SUBJECTS),
        pick(rng, FILLER_VERBS)
    )
}

/// Draws `count` distinct answer words deterministically.
pub(crate) fn draw_answer_words(rng: &mut ChaCha8Rng, count: usize) -> Vec<String> {
    let mut pool: Vec<&str> = ANSWER_WORDS.to_vec();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count.min(pool.len()) {
        let idx = rng.gen_range(0..pool.len());
        out.push(pool.swap_remove(idx).to_string());
    }
    // If more words are requested than the bank holds, extend with numbered
    // variants so the words stay unique.
    while out.len() < count {
        let idx = out.len();
        out.push(format!(
            "{}-{}",
            ANSWER_WORDS[idx % ANSWER_WORDS.len()],
            idx
        ));
    }
    out
}

/// Builds the unique anchor token for needle `index` of a task instance.
pub(crate) fn anchor_token(rng: &mut ChaCha8Rng, index: usize) -> String {
    let stem = pick(rng, ANCHOR_STEMS);
    let tag: u32 = rng.gen_range(10..100);
    format!("{stem}-{tag}-{index}")
}

/// Convenience wrapper building a seeded RNG for text generation.
pub(crate) fn text_rng(seed: u64) -> ChaCha8Rng {
    seeded_rng(seed ^ 0x7e87_00d5_eed5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentences_are_deterministic_per_seed() {
        let a = filler_sentence(&mut text_rng(1));
        let b = filler_sentence(&mut text_rng(1));
        let c = filler_sentence(&mut text_rng(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn answer_words_are_distinct() {
        let words = draw_answer_words(&mut text_rng(3), 10);
        let mut unique = words.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 10);
    }

    #[test]
    fn answer_words_never_collide_with_filler() {
        let words = draw_answer_words(&mut text_rng(4), ANSWER_WORDS.len());
        let filler = format!(
            "{} {} {} {}",
            FILLER_SUBJECTS.join(" "),
            FILLER_VERBS.join(" "),
            FILLER_OBJECTS.join(" "),
            FILLER_TAILS.join(" ")
        );
        for w in &words {
            assert!(
                !filler.contains(w),
                "answer word {w} appears in filler text"
            );
        }
    }

    #[test]
    fn oversized_answer_request_is_padded_with_unique_words() {
        let words = draw_answer_words(&mut text_rng(5), ANSWER_WORDS.len() + 5);
        let mut unique = words.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), words.len());
    }

    #[test]
    fn anchors_embed_their_index() {
        let a = anchor_token(&mut text_rng(6), 0);
        let b = anchor_token(&mut text_rng(6), 1);
        assert!(a.ends_with("-0"));
        assert!(b.ends_with("-1"));
    }

    #[test]
    fn all_generators_emit_nonempty_sentences() {
        let mut rng = text_rng(7);
        assert!(!filler_sentence(&mut rng).is_empty());
        assert!(!meeting_sentence(&mut rng).is_empty());
        assert!(!news_sentence(&mut rng).is_empty());
        assert!(!code_line(&mut rng).is_empty());
        assert!(!dialogue_line(&mut rng).is_empty());
    }
}
