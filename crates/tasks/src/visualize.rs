//! Attention visualization utilities — the paper's hands-on §3.3 provides
//! "utility code to visualize the attention weights and output table
//! encodings"; this module is that utility for a terminal.

use ntr_table::EncodedTable;
use ntr_tensor::Tensor;
use ntr_tokenizer::WordPieceTokenizer;

/// Shade characters from lightest to darkest.
const SHADES: [char; 5] = [' ', '░', '▒', '▓', '█'];

/// Renders one attention map (`[n_q, n_k]`, rows summing to 1) as an ASCII
/// heatmap with token labels, truncated to `max_tokens` per axis.
pub fn attention_heatmap(
    probs: &Tensor,
    encoded: &EncodedTable,
    tok: &WordPieceTokenizer,
    max_tokens: usize,
) -> String {
    assert_eq!(probs.ndim(), 2, "attention map must be 2-D");
    let n = probs
        .dim(0)
        .min(probs.dim(1))
        .min(encoded.len())
        .min(max_tokens);
    let labels: Vec<String> = (0..n)
        .map(|i| {
            let t = tok.vocab().token_of(encoded.ids()[i]);
            let mut s: String = t.chars().take(6).collect();
            while s.chars().count() < 6 {
                s.push(' ');
            }
            s
        })
        .collect();
    // Normalize shading to the visible submatrix's max.
    let mut max = f32::MIN_POSITIVE;
    for i in 0..n {
        for j in 0..n {
            max = max.max(probs.at(&[i, j]));
        }
    }
    let mut out = String::new();
    for (i, label) in labels.iter().enumerate() {
        out.push_str(label);
        out.push(' ');
        for j in 0..n {
            let p = probs.at(&[i, j]) / max;
            let shade =
                SHADES[((p * (SHADES.len() - 1) as f32).round() as usize).min(SHADES.len() - 1)];
            out.push(shade);
        }
        out.push('\n');
    }
    out
}

/// For each query token, the `k` key tokens with the highest attention,
/// with their structural coordinates — a textual "where does this token
/// look" summary.
pub fn top_attended(
    probs: &Tensor,
    encoded: &EncodedTable,
    tok: &WordPieceTokenizer,
    query: usize,
    k: usize,
) -> Vec<(String, usize, usize, f32)> {
    assert!(query < probs.dim(0), "query index out of range");
    let mut scored: Vec<(usize, f32)> = (0..probs.dim(1).min(encoded.len()))
        .map(|j| (j, probs.at(&[query, j])))
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite attention"));
    scored
        .into_iter()
        .take(k)
        .map(|(j, p)| {
            let meta = encoded.meta()[j];
            (
                tok.vocab().token_of(encoded.ids()[j]).to_string(),
                meta.row,
                meta.col,
                p,
            )
        })
        .collect()
}

/// Renders a table's cell-embedding similarity structure: for the anchor
/// cell, the cosine similarity to every other cell, as a grid of 2-decimal
/// numbers (the "output table encodings" inspection of §3.3).
pub fn cell_similarity_grid(
    encoded: &EncodedTable,
    states: &Tensor,
    anchor: (usize, usize),
    n_rows: usize,
    n_cols: usize,
) -> String {
    let embed = |r: usize, c: usize| -> Option<Tensor> {
        let span = encoded.cell_span(r, c)?;
        Some(ntr_models::pool_mean(states, &span))
    };
    let Some(anchor_vec) = embed(anchor.0, anchor.1) else {
        return String::from("(anchor cell not encoded)");
    };
    let mut out = String::new();
    for r in 0..n_rows {
        for c in 0..n_cols {
            match embed(r, c) {
                Some(v) => {
                    let cos = anchor_vec.cosine(&v);
                    let mark = if (r, c) == anchor { '*' } else { ' ' };
                    out.push_str(&format!("{mark}{cos:+.2} "));
                }
                None => out.push_str("  --  "),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr_models::{EncoderInput, ModelConfig, Rows, SequenceEncoder, Turl};
    use ntr_table::{Linearizer, LinearizerOptions, Table, TurlLinearizer};
    use ntr_tokenizer::train::WordPieceTrainer;

    fn setup() -> (EncodedTable, WordPieceTokenizer, Turl) {
        let tok = WordPieceTokenizer::new(
            WordPieceTrainer::new(300).train(["country capital france paris germany berlin | : ;"]),
        );
        let t = Table::from_strings(
            "t",
            &["Country", "Capital"],
            &[&["France", "Paris"], &["Germany", "Berlin"]],
        );
        let e = TurlLinearizer.linearize(&t, "", &tok, &LinearizerOptions::default());
        let cfg = ModelConfig {
            n_entities: 4,
            ..ModelConfig::tiny(tok.vocab_size())
        };
        (e, tok, Turl::new(&cfg))
    }

    #[test]
    fn heatmap_renders_rows_with_labels() {
        let (e, tok, model) = setup();
        let maps = model.attention_maps(&EncoderInput::from_encoded(&e));
        let art = attention_heatmap(&maps[0][0], &e, &tok, 8);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 8.min(e.len()));
        assert!(lines[0].starts_with("[CLS]"));
    }

    #[test]
    fn top_attended_is_sorted_and_bounded() {
        let (e, tok, model) = setup();
        let maps = model.attention_maps(&EncoderInput::from_encoded(&e));
        let top = top_attended(&maps[0][0], &e, &tok, 0, 3);
        assert_eq!(top.len(), 3);
        assert!(top[0].3 >= top[1].3 && top[1].3 >= top[2].3);
    }

    #[test]
    fn similarity_grid_marks_anchor() {
        let (e, _, model) = setup();
        let states = model.infer(&EncoderInput::from_encoded(&e), Rows::All);
        let grid = cell_similarity_grid(&e, &states, (0, 0), 2, 2);
        assert!(grid.contains("*+1.00"), "{grid}");
        let missing = cell_similarity_grid(&e, &states, (9, 9), 2, 2);
        assert!(missing.contains("not encoded"));
    }
}
