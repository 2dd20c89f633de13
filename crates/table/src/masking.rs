//! Pretraining masking: masked language modeling (MLM) over tokens and
//! masked entity recovery (MER) over entity cells — the two TURL objectives
//! the paper's hands-on §3.3 walks through.

use crate::encoded::{EncodedTable, TokenKind};
use ntr_tokenizer::SpecialToken;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Output of a masking pass: the corrupted input ids plus per-position
/// recovery targets (`IGNORE` where no prediction is required).
#[derive(Debug, Clone)]
pub struct MaskedExample {
    /// Input ids after corruption.
    pub input_ids: Vec<usize>,
    /// Target token id per position, or [`MaskedExample::IGNORE`].
    pub targets: Vec<usize>,
}

impl MaskedExample {
    /// Sentinel meaning "no loss at this position" (matches
    /// `ntr_nn::loss::IGNORE_INDEX`).
    pub const IGNORE: usize = usize::MAX;

    /// Number of positions with a real target.
    pub fn n_masked(&self) -> usize {
        self.targets.iter().filter(|&&t| t != Self::IGNORE).count()
    }

    /// The positions with a real target, ascending, and their targets: the
    /// rows an MLM loss reads.
    pub fn positions(&self) -> (Vec<usize>, Vec<usize>) {
        self.targets
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != Self::IGNORE)
            .map(|(p, &t)| (p, t))
            .unzip()
    }
}

/// Configuration for BERT-style MLM masking.
#[derive(Debug, Clone, Copy)]
pub struct MlmConfig {
    /// Probability a maskable token is selected (BERT uses 0.15).
    pub mask_prob: f64,
    /// Of selected tokens: fraction replaced by `[MASK]` (0.8), the rest
    /// split evenly between a random token and keeping the original.
    pub mask_token_frac: f64,
    /// Vocabulary size, for sampling random replacement tokens.
    pub vocab_size: usize,
}

impl MlmConfig {
    /// BERT defaults (15% selection, 80/10/10 corruption).
    pub fn bert(vocab_size: usize) -> Self {
        Self {
            mask_prob: 0.15,
            mask_token_frac: 0.8,
            vocab_size,
        }
    }
}

/// Applies MLM masking to an encoded table.
///
/// Only `Context`, `Header` and `Cell` tokens are maskable; specials and
/// template filler are never masked (there is nothing to learn from
/// recovering a separator). Guarantees at least one masked position when
/// any position is maskable.
pub fn mask_mlm(encoded: &EncodedTable, cfg: &MlmConfig, seed: u64) -> MaskedExample {
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = encoded.ids();
    let mut input_ids = ids.to_vec();
    let mut targets = vec![MaskedExample::IGNORE; ids.len()];

    let maskable: Vec<usize> = encoded
        .meta()
        .iter()
        .enumerate()
        .filter(|(_, m)| {
            matches!(
                m.kind,
                TokenKind::Context | TokenKind::Header | TokenKind::Cell
            )
        })
        .map(|(i, _)| i)
        .collect();

    let mut any = false;
    for &i in &maskable {
        if rng.gen::<f64>() < cfg.mask_prob {
            corrupt(&mut input_ids, &mut targets, i, ids[i], cfg, &mut rng);
            any = true;
        }
    }
    if !any && !maskable.is_empty() {
        let i = maskable[rng.gen_range(0..maskable.len())];
        corrupt(&mut input_ids, &mut targets, i, ids[i], cfg, &mut rng);
    }
    MaskedExample { input_ids, targets }
}

fn corrupt(
    input_ids: &mut [usize],
    targets: &mut [usize],
    i: usize,
    original: usize,
    cfg: &MlmConfig,
    rng: &mut StdRng,
) {
    targets[i] = original;
    let roll: f64 = rng.gen();
    let rand_frac = (1.0 - cfg.mask_token_frac) / 2.0;
    if roll < cfg.mask_token_frac {
        input_ids[i] = SpecialToken::Mask.id();
    } else if roll < cfg.mask_token_frac + rand_frac {
        // Random replacement, avoiding special ids.
        let lo = SpecialToken::ALL.len();
        if cfg.vocab_size > lo {
            input_ids[i] = rng.gen_range(lo..cfg.vocab_size);
        } else {
            input_ids[i] = SpecialToken::Mask.id();
        }
    } // else: keep original (still predicted).
}

/// One masked-entity-recovery example: an entity cell whose tokens were all
/// replaced by `[MASK]`, to be recovered from the **entity vocabulary**.
#[derive(Debug, Clone)]
pub struct MaskedEntity {
    /// Grid coordinate of the masked cell (0-based).
    pub coord: (usize, usize),
    /// Token positions that were masked.
    pub positions: Vec<usize>,
    /// The entity id to recover.
    pub entity: u32,
}

/// Applies MER masking: each entity-linked cell is independently selected
/// with probability `mask_prob`; selected cells have their entire token
/// span replaced by `[MASK]`. Returns the corrupted ids and the recovery
/// targets. Guarantees at least one masked entity when any cell is linked.
pub fn mask_entities(
    encoded: &EncodedTable,
    mask_prob: f64,
    seed: u64,
) -> (Vec<usize>, Vec<MaskedEntity>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut input_ids = encoded.ids().to_vec();
    let mut masked = Vec::new();

    let entity_cells: Vec<((usize, usize), std::ops::Range<usize>, u32)> = encoded
        .cells()
        .filter_map(|(coord, span)| encoded.meta()[span.start].entity.map(|e| (coord, span, e)))
        .collect();

    for (coord, span, entity) in &entity_cells {
        if rng.gen::<f64>() < mask_prob {
            mask_span(&mut input_ids, span, &mut masked, *coord, *entity);
        }
    }
    if masked.is_empty() && !entity_cells.is_empty() {
        let (coord, span, entity) = &entity_cells[rng.gen_range(0..entity_cells.len())];
        mask_span(&mut input_ids, span, &mut masked, *coord, *entity);
    }
    (input_ids, masked)
}

fn mask_span(
    input_ids: &mut [usize],
    span: &std::ops::Range<usize>,
    masked: &mut Vec<MaskedEntity>,
    coord: (usize, usize),
    entity: u32,
) {
    for i in span.clone() {
        input_ids[i] = SpecialToken::Mask.id();
    }
    masked.push(MaskedEntity {
        coord,
        positions: span.clone().collect(),
        entity,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linearizer, LinearizerOptions, RowMajorLinearizer, Table, TurlLinearizer};
    use ntr_tokenizer::{train::WordPieceTrainer, WordPieceTokenizer};

    fn setup() -> (Table, WordPieceTokenizer, EncodedTable) {
        let corpus = ["country capital france paris australia canberra | ; : row is col"];
        let tok = WordPieceTokenizer::new(WordPieceTrainer::new(300).train(corpus.iter().copied()));
        let mut t = Table::from_strings(
            "t",
            &["Country", "Capital"],
            &[&["France", "Paris"], &["Australia", "Canberra"]],
        );
        t.cell_mut(0, 0).entity = Some(100);
        t.cell_mut(1, 0).entity = Some(101);
        let e = RowMajorLinearizer.linearize(&t, "countries", &tok, &LinearizerOptions::default());
        (t, tok, e)
    }

    #[test]
    fn mlm_masks_some_positions_and_records_targets() {
        let (_, tok, e) = setup();
        let cfg = MlmConfig::bert(tok.vocab_size());
        let m = mask_mlm(&e, &cfg, 7);
        assert_eq!(m.input_ids.len(), e.len());
        assert!(m.n_masked() >= 1);
        let (rows, targets) = m.positions();
        assert_eq!(rows.len(), m.n_masked());
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "ascending: {rows:?}");
        for (&r, &t) in rows.iter().zip(&targets) {
            assert_eq!(m.targets[r], t);
        }
        for (i, &t) in m.targets.iter().enumerate() {
            if t != MaskedExample::IGNORE {
                assert_eq!(t, e.ids()[i], "target must be the original id");
            } else {
                assert_eq!(m.input_ids[i], e.ids()[i], "unmasked positions unchanged");
            }
        }
    }

    #[test]
    fn mlm_never_masks_specials_or_templates() {
        let (_, tok, e) = setup();
        let cfg = MlmConfig {
            mask_prob: 1.0,
            mask_token_frac: 1.0,
            vocab_size: tok.vocab_size(),
        };
        let m = mask_mlm(&e, &cfg, 3);
        for (i, meta) in e.meta().iter().enumerate() {
            match meta.kind {
                TokenKind::Special | TokenKind::Template => {
                    assert_eq!(m.targets[i], MaskedExample::IGNORE, "pos {i}");
                    assert_eq!(m.input_ids[i], e.ids()[i]);
                }
                _ => assert_ne!(m.targets[i], MaskedExample::IGNORE, "pos {i}"),
            }
        }
    }

    #[test]
    fn mlm_is_deterministic_per_seed() {
        let (_, tok, e) = setup();
        let cfg = MlmConfig::bert(tok.vocab_size());
        let a = mask_mlm(&e, &cfg, 42);
        let b = mask_mlm(&e, &cfg, 42);
        assert_eq!(a.input_ids, b.input_ids);
        let c = mask_mlm(&e, &cfg, 43);
        assert!(a.input_ids != c.input_ids || a.targets != c.targets);
    }

    #[test]
    fn mlm_guarantees_at_least_one_mask() {
        let (_, tok, e) = setup();
        let cfg = MlmConfig {
            mask_prob: 0.0,
            mask_token_frac: 0.8,
            vocab_size: tok.vocab_size(),
        };
        let m = mask_mlm(&e, &cfg, 1);
        assert_eq!(m.n_masked(), 1);
    }

    #[test]
    fn mer_masks_whole_entity_cells() {
        let (t, tok, _) = setup();
        let e = TurlLinearizer.linearize(&t, "", &tok, &LinearizerOptions::default());
        let (ids, masked) = mask_entities(&e, 1.0, 5);
        assert_eq!(masked.len(), 2, "both entity cells selected at p=1");
        for m in &masked {
            let span = e.cell_span(m.coord.0, m.coord.1).unwrap();
            assert_eq!(m.positions, span.clone().collect::<Vec<_>>());
            for i in span {
                assert_eq!(ids[i], SpecialToken::Mask.id());
            }
        }
        let entities: Vec<u32> = masked.iter().map(|m| m.entity).collect();
        assert!(entities.contains(&100) && entities.contains(&101));
    }

    #[test]
    fn mer_ignores_unlinked_cells() {
        let (t, tok, _) = setup();
        let e = TurlLinearizer.linearize(&t, "", &tok, &LinearizerOptions::default());
        let (_, masked) = mask_entities(&e, 1.0, 5);
        for m in &masked {
            assert_eq!(m.coord.1, 0, "only column 0 has entities");
        }
    }

    #[test]
    fn mer_guarantees_one_mask_when_possible() {
        let (t, tok, _) = setup();
        let e = TurlLinearizer.linearize(&t, "", &tok, &LinearizerOptions::default());
        let (_, masked) = mask_entities(&e, 0.0, 9);
        assert_eq!(masked.len(), 1);
    }

    #[test]
    fn mer_on_entity_free_table_is_empty() {
        let (_, tok, _) = setup();
        let plain = Table::from_strings("p", &["a"], &[&["x"]]);
        let e = TurlLinearizer.linearize(&plain, "", &tok, &LinearizerOptions::default());
        let (ids, masked) = mask_entities(&e, 1.0, 2);
        assert!(masked.is_empty());
        assert_eq!(ids, e.ids());
    }
}
