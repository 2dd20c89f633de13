//! WordPiece vocabulary training via BPE-style pair merging.
//!
//! The trainer counts word frequencies over a corpus, represents each word
//! as characters (continuations prefixed with `##`), and repeatedly merges
//! the most frequent adjacent symbol pair until the vocabulary budget is
//! reached. Ties break lexicographically so training is deterministic.

use crate::pretokenize::{pretokenize, PretokenizeOptions};
use crate::vocab::{SpecialToken, Vocab};
use std::collections::{BTreeSet, HashMap};

/// Minimum pair frequency required to perform a merge: merges of
/// singletons only memorize noise.
const MIN_PAIR_FREQ: u64 = 2;

/// Trains a WordPiece vocabulary from raw text.
#[derive(Debug, Clone)]
pub struct WordPieceTrainer {
    vocab_size: usize,
    opts: PretokenizeOptions,
}

impl WordPieceTrainer {
    /// A trainer targeting `vocab_size` total tokens (special tokens
    /// included) with default pre-tokenization.
    pub fn new(vocab_size: usize) -> Self {
        Self {
            vocab_size,
            opts: PretokenizeOptions::default(),
        }
    }

    /// Overrides the pre-tokenization options.
    pub fn with_options(mut self, opts: PretokenizeOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Trains on an iterator of documents and returns the vocabulary.
    pub fn train<'a, I>(&self, corpus: I) -> Vocab
    where
        I: IntoIterator<Item = &'a str>,
    {
        // 1. Word frequencies.
        let mut word_freq: HashMap<String, u64> = HashMap::new();
        for doc in corpus {
            for piece in pretokenize(doc, self.opts) {
                *word_freq.entry(piece).or_insert(0) += 1;
            }
        }

        // 2. Words as symbol sequences: first char bare, rest ##-prefixed.
        let mut words: Vec<(Vec<String>, u64)> = word_freq
            .into_iter()
            .map(|(w, f)| (split_word(&w), f))
            .collect();
        // Deterministic iteration order independent of HashMap state.
        words.sort_by(|a, b| a.0.cmp(&b.0));

        // 3. Base symbols, ordered for determinism. From here on a symbol
        // is its index in `vocab_tokens`.
        let symbols: BTreeSet<&String> = words.iter().flat_map(|(syms, _)| syms).collect();
        let mut vocab_tokens: Vec<String> = symbols.into_iter().cloned().collect();
        let id_of = |s: &String| vocab_tokens.binary_search(s).expect("a base symbol") as u32;
        let mut words: Vec<(Vec<u32>, u64)> = words
            .iter()
            .map(|(syms, f)| (syms.iter().map(id_of).collect(), *f))
            .collect();
        let specials = SpecialToken::ALL.len();

        // 4. Merge loop. The pair counts are kept up to date across merges:
        // a merge visits only the words that contain the winning pair,
        // found through `pair_words` (a word is listed once per occurrence;
        // an entry may outlive its pair in that word, which costs a no-op
        // visit, never a wrong count).
        let mut pair_freq: HashMap<(u32, u32), u64> = HashMap::new();
        let mut pair_words: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
        for (w, (syms, f)) in words.iter().enumerate() {
            for win in syms.windows(2) {
                *pair_freq.entry((win[0], win[1])).or_insert(0) += f;
                pair_words
                    .entry((win[0], win[1]))
                    .or_default()
                    .push(w as u32);
            }
        }
        while vocab_tokens.len() + specials < self.vocab_size {
            // Highest frequency wins; ties go to the lexicographically
            // smallest (left, right) pair of symbol strings.
            let text =
                |&(l, r): &(u32, u32)| (&vocab_tokens[l as usize], &vocab_tokens[r as usize]);
            let Some((&(left, right), &freq)) = pair_freq
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| text(b.0).cmp(&text(a.0))))
            else {
                break;
            };
            if freq < MIN_PAIR_FREQ {
                break;
            }
            let merged = merge_symbols(&vocab_tokens[left as usize], &vocab_tokens[right as usize]);
            let merged_id = vocab_tokens.len() as u32;
            vocab_tokens.push(merged);

            let mut touched = pair_words.remove(&(left, right)).unwrap_or_default();
            touched.sort_unstable();
            touched.dedup();
            for w in touched {
                let (syms, f) = &mut words[w as usize];
                for win in syms.windows(2) {
                    let key = (win[0], win[1]);
                    let count = pair_freq.get_mut(&key).expect("every window is counted");
                    *count -= *f;
                    if *count == 0 {
                        pair_freq.remove(&key);
                    }
                }
                apply_merge(syms, left, right, merged_id);
                for win in syms.windows(2) {
                    let key = (win[0], win[1]);
                    *pair_freq.entry(key).or_insert(0) += *f;
                    // Every adjacency the merge created contains the new
                    // symbol; the others are already listed.
                    if win.contains(&merged_id) {
                        pair_words.entry(key).or_default().push(w);
                    }
                }
            }
        }

        Vocab::new(vocab_tokens).expect("trainer produces unique tokens")
    }
}

/// Splits a word into WordPiece base symbols.
fn split_word(w: &str) -> Vec<String> {
    w.chars()
        .enumerate()
        .map(|(i, c)| {
            if i == 0 {
                c.to_string()
            } else {
                format!("##{c}")
            }
        })
        .collect()
}

/// WordPiece merge: `p + ##o → po`, `##o + ##p → ##op`.
fn merge_symbols(left: &str, right: &str) -> String {
    let right_core = right.strip_prefix("##").unwrap_or(right);
    format!("{left}{right_core}")
}

/// Replaces every `left right` in `syms` by `merged`, left to right (so
/// `a a a` with `(a, a)` becomes `aa a`).
fn apply_merge(syms: &mut Vec<u32>, left: u32, right: u32, merged: u32) {
    let mut i = 0;
    while i + 1 < syms.len() {
        if syms[i] == left && syms[i + 1] == right {
            syms[i] = merged;
            syms.remove(i + 1);
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_word_marks_continuations() {
        assert_eq!(split_word("abc"), ["a", "##b", "##c"]);
        assert_eq!(split_word("x"), ["x"]);
    }

    #[test]
    fn merge_symbols_handles_prefixes() {
        assert_eq!(merge_symbols("p", "##o"), "po");
        assert_eq!(merge_symbols("##o", "##p"), "##op");
    }

    #[test]
    fn frequent_word_becomes_single_token() {
        let corpus: Vec<&str> = std::iter::repeat_n("population", 50)
            .chain(std::iter::repeat_n("zebra", 2))
            .collect();
        let vocab = WordPieceTrainer::new(120).train(corpus);
        assert!(
            vocab.id_of("population").is_some(),
            "frequent word should be fully merged"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = ["france paris population", "france population of paris"];
        let a = WordPieceTrainer::new(60).train(corpus.iter().copied());
        let b = WordPieceTrainer::new(60).train(corpus.iter().copied());
        assert_eq!(a.len(), b.len());
        for (id, tok) in a.iter() {
            assert_eq!(b.token_of(id), tok);
        }
    }

    #[test]
    fn vocab_size_budget_is_respected() {
        let corpus = ["aaa bbb ccc ddd eee fff ggg aaa bbb aaa"];
        let vocab = WordPieceTrainer::new(20).train(corpus.iter().copied());
        assert!(vocab.len() <= 20 + 7, "len={} exceeds budget", vocab.len());
    }

    #[test]
    fn min_pair_freq_stops_noise_merges() {
        // Every word unique → no pair reaches freq 2 → only base chars.
        let vocab = WordPieceTrainer::new(1000).train(["qx wy ez"]);
        assert!(vocab.id_of("qx").is_none());
        assert!(vocab.id_of("q").is_some());
        assert!(vocab.id_of("##x").is_some());
    }

    #[test]
    fn empty_corpus_yields_specials_only() {
        let vocab = WordPieceTrainer::new(100).train(std::iter::empty());
        assert!(vocab.is_empty());
    }
}
