//! A small, deterministic word-level tokenizer.
//!
//! The paper's models use SentencePiece/BPE vocabularies; for the synthetic
//! workloads in this reproduction a reversible word-level tokenizer is
//! sufficient and keeps every experiment deterministic. Words are interned
//! in encounter order; once the vocabulary is full, further words are
//! hash-folded onto existing ids (lossy, as with any closed vocabulary).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Mutex;

/// Reserved id for the beginning-of-sequence marker.
pub(crate) const BOS_TOKEN: u32 = 0;
/// Number of reserved ids at the start of the vocabulary.
const RESERVED: u32 = 2;

/// A deterministic, reversible word-level tokenizer with a bounded
/// vocabulary.
///
/// Encoding is whitespace splitting with punctuation detachment and
/// lower-casing; ids are assigned in first-encounter order, which keeps
/// runs reproducible for a fixed corpus generation seed.
///
/// # Example
///
/// ```
/// use cocktail_model::Tokenizer;
///
/// let tok = Tokenizer::new(1024);
/// let ids = tok.encode("The secret code is ALPHA-42.");
/// assert!(!ids.is_empty());
/// let text = tok.decode(&ids);
/// assert!(text.contains("secret code"));
/// ```
#[derive(Debug, Serialize, Deserialize)]
pub struct Tokenizer {
    vocab_size: usize,
    #[serde(skip)]
    state: Mutex<VocabState>,
}

#[derive(Debug, Default)]
struct VocabState {
    word_to_id: HashMap<String, u32>,
    id_to_word: Vec<String>,
}

impl Tokenizer {
    /// Creates a tokenizer with the given maximum vocabulary size.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_size` is smaller than the reserved token count (2).
    pub fn new(vocab_size: usize) -> Self {
        assert!(
            vocab_size > RESERVED as usize,
            "vocabulary must be larger than the reserved tokens"
        );
        Self {
            vocab_size,
            state: Mutex::new(VocabState::default()),
        }
    }

    /// Number of distinct words interned so far.
    pub fn interned_words(&self) -> usize {
        self.state.lock().expect("tokenizer lock").id_to_word.len()
    }

    /// Splits text into normalised word/punctuation pieces.
    pub fn split_words(text: &str) -> Vec<String> {
        let mut words = Vec::new();
        for raw in text.split_whitespace() {
            let mut current = String::new();
            for ch in raw.chars() {
                if ch.is_alphanumeric() || ch == '_' || ch == '-' {
                    current.extend(ch.to_lowercase());
                } else {
                    if !current.is_empty() {
                        words.push(std::mem::take(&mut current));
                    }
                    words.push(ch.to_string());
                }
            }
            if !current.is_empty() {
                words.push(current);
            }
        }
        words
    }

    fn fold_hash(word: &str, capacity: u32) -> u32 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in word.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        RESERVED + (hash % u64::from(capacity)) as u32
    }

    /// Encodes text into token ids (without a BOS marker).
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let words = Self::split_words(text);
        let mut state = self.state.lock().expect("tokenizer lock");
        let capacity = (self.vocab_size as u32).saturating_sub(RESERVED);
        words
            .iter()
            .map(|w| {
                if let Some(&id) = state.word_to_id.get(w) {
                    return id;
                }
                if (state.id_to_word.len() as u32) < capacity {
                    let id = RESERVED + state.id_to_word.len() as u32;
                    state.word_to_id.insert(w.clone(), id);
                    state.id_to_word.push(w.clone());
                    id
                } else {
                    Self::fold_hash(w, capacity)
                }
            })
            .collect()
    }

    /// Decodes token ids back into text. Unknown or folded ids decode to
    /// `"<unk>"`.
    pub fn decode(&self, ids: &[u32]) -> String {
        self.decode_with_horizon(ids, usize::MAX)
    }

    /// Decodes token ids using only the first `interned_limit` interned
    /// words; ids interned later render as `"<unk>"`.
    ///
    /// The tokenizer interns words in encounter order, so what `decode`
    /// renders for an id depends on how much text has been encoded when it
    /// runs. A multi-request serving engine encodes many requests before
    /// decoding any of them; passing the value [`Tokenizer::interned_words`]
    /// had when a request's prompt was encoded pins that request's
    /// rendering to its own vocabulary view, making the output independent
    /// of whichever requests happen to share the engine.
    pub fn decode_with_horizon(&self, ids: &[u32], interned_limit: usize) -> String {
        let state = self.state.lock().expect("tokenizer lock");
        let words: Vec<&str> = ids
            .iter()
            .map(|&id| {
                if id == BOS_TOKEN {
                    "<s>"
                } else if id < RESERVED {
                    "<unk>"
                } else {
                    let index = (id - RESERVED) as usize;
                    if index >= interned_limit {
                        return "<unk>";
                    }
                    state
                        .id_to_word
                        .get(index)
                        .map(String::as_str)
                        .unwrap_or("<unk>")
                }
            })
            .collect();
        words.join(" ")
    }

    /// The interned vocabulary in encounter order — the data a trie
    /// snapshot must carry, because token ids are only meaningful under the
    /// interning order that produced them.
    pub fn interned_vocab(&self) -> Vec<String> {
        self.state
            .lock()
            .expect("tokenizer lock")
            .id_to_word
            .clone()
    }

    /// Aligns this tokenizer's interning order with a snapshot's vocabulary.
    ///
    /// Returns `true` when the two orders are compatible: either the
    /// current vocabulary is a prefix of `vocab` (the remainder is interned
    /// so snapshot token ids resolve to the right words), or `vocab` is a
    /// prefix of the current vocabulary (nothing to do). Returns `false` —
    /// leaving the tokenizer untouched — when the orders diverge or the
    /// snapshot vocabulary would overflow this tokenizer's capacity; the
    /// caller should then discard the snapshot and start cold.
    pub fn align_vocab(&self, vocab: &[String]) -> bool {
        let mut state = self.state.lock().expect("tokenizer lock");
        let interned = state.id_to_word.len();
        if vocab.len() <= interned {
            return state.id_to_word[..vocab.len()] == *vocab;
        }
        if state.id_to_word[..] != vocab[..interned] {
            return false;
        }
        let capacity = self.vocab_size.saturating_sub(RESERVED as usize);
        if vocab.len() > capacity {
            return false;
        }
        for word in &vocab[interned..] {
            let id = RESERVED + state.id_to_word.len() as u32;
            state.word_to_id.insert(word.clone(), id);
            state.id_to_word.push(word.clone());
        }
        true
    }
}

impl Clone for Tokenizer {
    fn clone(&self) -> Self {
        let state = self.state.lock().expect("tokenizer lock");
        Self {
            vocab_size: self.vocab_size,
            state: Mutex::new(VocabState {
                word_to_id: state.word_to_id.clone(),
                id_to_word: state.id_to_word.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reserved id for unknown / folded tokens.
    const UNK_TOKEN: u32 = 1;

    /// Encodes text with a leading BOS token.
    fn encode_with_bos(tok: &Tokenizer, text: &str) -> Vec<u32> {
        let mut ids = vec![BOS_TOKEN];
        ids.extend(tok.encode(text));
        ids
    }

    #[test]
    fn encode_decode_round_trip_for_simple_text() {
        let tok = Tokenizer::new(4096);
        let text = "the quick brown fox jumps over the lazy dog";
        let ids = tok.encode(text);
        assert_eq!(ids.len(), 9);
        assert_eq!(tok.decode(&ids), text);
    }

    #[test]
    fn repeated_words_share_ids() {
        let tok = Tokenizer::new(4096);
        let ids = tok.encode("dog cat dog");
        assert_eq!(ids[0], ids[2]);
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn punctuation_is_detached() {
        let words = Tokenizer::split_words("Hello, world!");
        assert_eq!(words, vec!["hello", ",", "world", "!"]);
    }

    #[test]
    fn casing_is_normalised() {
        let tok = Tokenizer::new(4096);
        let a = tok.encode("Paris");
        let b = tok.encode("paris");
        assert_eq!(a, b);
    }

    #[test]
    fn bos_is_prepended() {
        let tok = Tokenizer::new(4096);
        let ids = encode_with_bos(&tok, "hi");
        assert_eq!(ids[0], BOS_TOKEN);
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn vocabulary_overflow_folds_but_never_panics() {
        let tok = Tokenizer::new(8); // 6 usable slots
        let text: Vec<String> = (0..50).map(|i| format!("word{i}")).collect();
        let ids = tok.encode(&text.join(" "));
        assert_eq!(ids.len(), 50);
        assert!(ids.iter().all(|&id| (id as usize) < 8 || id >= RESERVED));
        assert!(tok.interned_words() <= 6);
    }

    #[test]
    fn decode_unknown_id_is_unk() {
        let tok = Tokenizer::new(64);
        assert_eq!(tok.decode(&[UNK_TOKEN]), "<unk>");
        assert_eq!(tok.decode(&[63]), "<unk>");
    }

    #[test]
    fn clone_preserves_vocabulary() {
        let tok = Tokenizer::new(128);
        let ids = tok.encode("alpha beta gamma");
        let cloned = tok.clone();
        assert_eq!(cloned.decode(&ids), "alpha beta gamma");
    }

    #[test]
    #[should_panic(expected = "larger than the reserved")]
    fn tiny_vocab_is_rejected() {
        Tokenizer::new(2);
    }

    #[test]
    fn align_vocab_replays_a_snapshot_interning_order() {
        let source = Tokenizer::new(64);
        let ids = source.encode("alpha beta gamma delta");
        let vocab = source.interned_vocab();
        assert_eq!(vocab, vec!["alpha", "beta", "gamma", "delta"]);

        // Fresh tokenizer: the whole order is replayed.
        let fresh = Tokenizer::new(64);
        assert!(fresh.align_vocab(&vocab));
        assert_eq!(fresh.encode("alpha beta gamma delta"), ids);

        // Compatible prefix already interned: the remainder is appended.
        let partial = Tokenizer::new(64);
        partial.encode("alpha beta");
        assert!(partial.align_vocab(&vocab));
        assert_eq!(partial.encode("gamma delta"), ids[2..].to_vec());

        // Snapshot vocabulary a prefix of the current one: no-op success.
        let ahead = Tokenizer::new(64);
        ahead.encode("alpha beta gamma delta epsilon");
        assert!(ahead.align_vocab(&vocab));

        // Diverging order: refused, tokenizer untouched.
        let diverged = Tokenizer::new(64);
        diverged.encode("zeta alpha");
        assert!(!diverged.align_vocab(&vocab));
        assert_eq!(diverged.interned_vocab(), vec!["zeta", "alpha"]);

        // Overflowing capacity: refused.
        let tiny = Tokenizer::new(4); // 2 usable slots
        assert!(!tiny.align_vocab(&vocab));
    }

    #[test]
    fn hyphenated_codes_stay_single_tokens() {
        let words = Tokenizer::split_words("code ALPHA-42 end");
        assert_eq!(words, vec!["code", "alpha-42", "end"]);
    }
}
