//! Fuzz suite for the WordPiece tokenizer: arbitrary strings — non-ASCII,
//! empty, pathologically long, control characters, lone surrogate-adjacent
//! code points — must never panic the encoder, every produced id must be
//! in vocabulary bounds, and decoding in-bounds ids must round-trip
//! without panicking. And the trainer's incremental pair counts must learn
//! the vocabulary the recount-everything loop learns, id for id.

use ntr_tokenizer::train::WordPieceTrainer;
use ntr_tokenizer::{pretokenize, PretokenizeOptions, SpecialToken, Vocab, WordPieceTokenizer};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

fn tok() -> &'static WordPieceTokenizer {
    static TOK: OnceLock<WordPieceTokenizer> = OnceLock::new();
    TOK.get_or_init(|| {
        let docs = [
            "the quick brown fox jumps over the lazy dog",
            "population capital country continent language 1 2 3 4 5",
            "über naïve café façade übel — em-dash ₣ ¥ €",
            "tables rows columns cells headers values numbers text",
        ];
        let vocab = WordPieceTrainer::new(400).train(docs.iter().copied());
        WordPieceTokenizer::new(vocab)
    })
}

/// Arbitrary Unicode strings, including astral-plane and control chars
/// (surrogate gap code points are skipped by `char::from_u32`).
fn unicode_string(max_chars: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..=0x10FFFF, 0..=max_chars)
        .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
}

proptest! {
    #[test]
    fn encode_never_panics_and_ids_stay_in_bounds(s in unicode_string(200)) {
        let t = tok();
        let ids = t.encode(&s);
        prop_assert!(ids.iter().all(|&id| id < t.vocab_size()));
    }

    #[test]
    fn encode_pieces_matches_encode_length(s in unicode_string(80)) {
        let t = tok();
        prop_assert_eq!(t.encode(&s).len(), t.encode_pieces(&s).len());
    }

    #[test]
    fn decode_of_in_bounds_ids_never_panics(ids in proptest::collection::vec(0usize..400, 0..=64)) {
        let t = tok();
        let vocab_size = t.vocab_size();
        let clamped: Vec<usize> = ids.into_iter().map(|i| i % vocab_size).collect();
        let _ = t.decode(&clamped);
    }

    #[test]
    fn encode_decode_round_trip_stays_in_vocab(s in unicode_string(120)) {
        let t = tok();
        let ids = t.encode(&s);
        // Round-trip: decoding what encode produced and re-encoding must
        // stay within vocabulary bounds and never panic.
        let text = t.decode(&ids);
        let again = t.encode(&text);
        prop_assert!(again.iter().all(|&id| id < t.vocab_size()));
    }
}

#[test]
fn encode_survives_pathological_inputs() {
    let t = tok();
    // Empty, whitespace-only, and a single word far longer than u16::MAX
    // bytes (stress for any length arithmetic in the matcher).
    for s in [
        String::new(),
        " \t\n\r ".to_string(),
        "a".repeat(70_000),
        "é".repeat(70_000),
        format!("prefix {} suffix", "𝔘𝔫𝔦𝔠𝔬𝔡𝔢".repeat(9_000)),
        "\u{0}\u{1}\u{2}".to_string(),
    ] {
        let ids = t.encode(&s);
        assert!(ids.iter().all(|&id| id < t.vocab_size()));
        let _ = t.decode(&ids);
    }
}

/// The trainer as it was before it kept its pair counts across merges:
/// every merge recounts every pair of every word, over symbol strings. Slow
/// and obviously right — the reference `WordPieceTrainer::train` must equal.
fn train_by_recounting(vocab_size: usize, corpus: &[String]) -> Vocab {
    let mut word_freq: HashMap<String, u64> = HashMap::new();
    for doc in corpus {
        for piece in pretokenize(doc, PretokenizeOptions::default()) {
            *word_freq.entry(piece).or_insert(0) += 1;
        }
    }
    let mut words: Vec<(Vec<String>, u64)> = word_freq
        .into_iter()
        .map(|(w, f)| {
            let syms = w.chars().enumerate();
            let syms = syms.map(|(i, c)| {
                if i == 0 {
                    c.to_string()
                } else {
                    format!("##{c}")
                }
            });
            (syms.collect(), f)
        })
        .collect();
    words.sort_by(|a, b| a.0.cmp(&b.0));
    let mut symbols: BTreeMap<String, ()> = BTreeMap::new();
    for (syms, _) in &words {
        for s in syms {
            symbols.insert(s.clone(), ());
        }
    }
    let mut vocab_tokens: Vec<String> = symbols.into_keys().collect();
    while vocab_tokens.len() + SpecialToken::ALL.len() < vocab_size {
        let mut pair_freq: BTreeMap<(String, String), u64> = BTreeMap::new();
        for (syms, f) in &words {
            for win in syms.windows(2) {
                *pair_freq
                    .entry((win[0].clone(), win[1].clone()))
                    .or_insert(0) += f;
            }
        }
        let Some(((left, right), freq)) = pair_freq
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        else {
            break;
        };
        if freq < 2 {
            break;
        }
        let merged = format!("{left}{}", right.strip_prefix("##").unwrap_or(&right));
        for (syms, _) in &mut words {
            let mut i = 0;
            while i + 1 < syms.len() {
                if syms[i] == left && syms[i + 1] == right {
                    syms[i] = merged.clone();
                    syms.remove(i + 1);
                } else {
                    i += 1;
                }
            }
        }
        vocab_tokens.push(merged);
    }
    Vocab::new(vocab_tokens).expect("trainer produces unique tokens")
}

/// A seeded corpus over a small mixed-script alphabet, so pairs repeat and
/// tie: single-character words, runs of one character (`aaaa`, the
/// overlapping-merge case), multi-byte letters, digits and punctuation.
fn seeded_corpus(seed: u64, n_docs: usize) -> Vec<String> {
    const ALPHABET: [char; 12] = ['a', 'a', 'b', 'c', 'é', 'ü', 'ß', '日', '本', '𝔘', '7', '-'];
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 33) as usize % n
    };
    (0..n_docs)
        .map(|_| {
            let words = (0..1 + next(12)).map(|_| match next(4) {
                0 => ALPHABET[next(12)].to_string(),
                1 => ALPHABET[next(12)].to_string().repeat(2 + next(5)),
                _ => (0..1 + next(6)).map(|_| ALPHABET[next(12)]).collect(),
            });
            words.collect::<Vec<String>>().join(" ")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_pair_counts_learn_the_reference_vocabulary(
        seed in 0u64..1_000_000,
        n_docs in 0usize..24,
        vocab_size in 8usize..160,
    ) {
        let corpus = seeded_corpus(seed, n_docs);
        let fast = WordPieceTrainer::new(vocab_size).train(corpus.iter().map(String::as_str));
        let slow = train_by_recounting(vocab_size, &corpus);
        let fast: Vec<(usize, &str)> = fast.iter().collect();
        let slow: Vec<(usize, &str)> = slow.iter().collect();
        prop_assert_eq!(fast, slow);
    }
}
