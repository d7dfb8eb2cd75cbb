//! Splitting a long context into fixed-size word chunks.
//!
//! The chunk boundaries used for retrieval scoring must coincide with the
//! KV-cache chunk boundaries, so the same word-level splitting rules as the
//! model tokenizer are used: whitespace splitting, punctuation detachment,
//! lower-casing. A chunk of `chunk_size` words therefore corresponds to a
//! KV-cache chunk of `chunk_size` tokens.

/// Splits text into normalised word/punctuation pieces (the same rules as
/// the model tokenizer, duplicated here so the retrieval crate stays
/// independent of the model crate).
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

/// Splits a context into chunks of exactly `chunk_size` words each,
/// discarding the trailing words that do not fill a whole chunk (they stay
/// in FP16 in the KV cache and are never scored).
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
///
/// # Example
///
/// ```
/// let chunks = cocktail_retrieval::chunking::chunk_words("a b c d e", 2);
/// assert_eq!(chunks, vec!["a b", "c d"]);
/// ```
pub fn chunk_words(text: &str, chunk_size: usize) -> Vec<String> {
    assert!(chunk_size > 0, "chunk size must be nonzero");
    let words = split_words(text);
    words
        .chunks_exact(chunk_size)
        .map(|chunk| chunk.join(" "))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Like [`chunk_words`] but also returns the trailing remainder words (the
    /// part of the context the paper keeps in FP16).
    fn chunk_words_with_remainder(text: &str, chunk_size: usize) -> (Vec<String>, String) {
        assert!(chunk_size > 0, "chunk size must be nonzero");
        let words = split_words(text);
        let full = words.len() / chunk_size * chunk_size;
        let chunks = words[..full]
            .chunks_exact(chunk_size)
            .map(|chunk| chunk.join(" "))
            .collect();
        (chunks, words[full..].join(" "))
    }

    #[test]
    fn chunking_discards_partial_tail() {
        let chunks = chunk_words("one two three four five", 2);
        assert_eq!(chunks, vec!["one two", "three four"]);
    }

    #[test]
    fn chunking_with_remainder_keeps_tail() {
        let (chunks, rem) = chunk_words_with_remainder("one two three four five", 2);
        assert_eq!(chunks.len(), 2);
        assert_eq!(rem, "five");
    }

    #[test]
    fn exact_multiple_has_empty_remainder() {
        let (chunks, rem) = chunk_words_with_remainder("a b c d", 2);
        assert_eq!(chunks.len(), 2);
        assert!(rem.is_empty());
    }

    #[test]
    fn empty_text_yields_no_chunks() {
        assert!(chunk_words("", 8).is_empty());
        let (chunks, rem) = chunk_words_with_remainder("", 8);
        assert!(chunks.is_empty());
        assert!(rem.is_empty());
    }

    #[test]
    fn splitting_matches_model_tokenizer_rules() {
        assert_eq!(
            split_words("Hello, World! ALPHA-42"),
            vec!["hello", ",", "world", "!", "alpha-42"]
        );
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_chunk_size_panics() {
        chunk_words("a b", 0);
    }

    #[test]
    fn chunk_count_matches_word_count() {
        let text = (0..100)
            .map(|i| format!("w{i}"))
            .collect::<Vec<_>>()
            .join(" ");
        assert_eq!(chunk_words(&text, 32).len(), 3);
        assert_eq!(chunk_words(&text, 10).len(), 10);
    }
}
