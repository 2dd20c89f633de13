//! [`EncodedTable`]: the 1-D token sequence a linearizer produces, with the
//! per-token structural metadata that lets models stay "data structure
//! aware" after flattening.

use std::collections::HashMap;
use std::ops::Range;

/// Which segment a token belongs to (BERT's segment-embedding notion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Segment {
    /// Natural-language context: caption, title, question.
    Context,
    /// Serialized table content.
    Table,
}

/// Structural role of a token within the linearization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// `[CLS]`, `[SEP]`, `[PAD]`-like framing tokens.
    Special,
    /// Context (caption/question) tokens.
    Context,
    /// Header-cell tokens.
    Header,
    /// Data-cell tokens.
    Cell,
    /// Structural filler emitted by template linearizers (`row`, `is`, `|`).
    Template,
}

/// Per-token structural metadata.
///
/// `row`/`col` use the TAPAS convention: `0` means "not part of the grid"
/// (context and special tokens); header tokens have `row == 0` but a real
/// `col`; data cells are `1`-based in both coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenMeta {
    /// 1-based data row, or 0.
    pub row: usize,
    /// 1-based column, or 0.
    pub col: usize,
    /// Segment.
    pub segment: Segment,
    /// Structural role.
    pub kind: TokenKind,
    /// Knowledge-base entity the enclosing cell links to, if any.
    pub entity: Option<u32>,
    /// 1-based numeric rank of the cell's value within its column
    /// (TAPAS-style rank embeddings); 0 for non-numeric cells and
    /// non-cell tokens.
    pub rank: usize,
}

impl TokenMeta {
    /// Metadata for tokens outside the grid.
    pub fn outside(segment: Segment, kind: TokenKind) -> Self {
        Self {
            row: 0,
            col: 0,
            segment,
            kind,
            entity: None,
            rank: 0,
        }
    }
}

/// A linearized, tokenized table: ids, aligned metadata, and the cell →
/// token-span index models use to pool cell representations.
#[derive(Debug, Clone)]
pub struct EncodedTable {
    ids: Vec<usize>,
    meta: Vec<TokenMeta>,
    cell_spans: HashMap<(usize, usize), Range<usize>>,
    header_spans: HashMap<usize, Range<usize>>,
    n_rows_encoded: usize,
    n_cols: usize,
    truncated_rows: usize,
    linearizer: &'static str,
}

impl EncodedTable {
    /// Assembles an encoded table; used by [`crate::Linearizer`]
    /// implementations.
    ///
    /// # Panics
    /// Panics when `ids` and `meta` lengths differ or a span is out of
    /// bounds.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ids: Vec<usize>,
        meta: Vec<TokenMeta>,
        cell_spans: HashMap<(usize, usize), Range<usize>>,
        header_spans: HashMap<usize, Range<usize>>,
        n_rows_encoded: usize,
        n_cols: usize,
        truncated_rows: usize,
        linearizer: &'static str,
    ) -> Self {
        assert_eq!(ids.len(), meta.len(), "ids/meta length mismatch");
        for (coord, span) in &cell_spans {
            assert!(
                span.end <= ids.len() && span.start <= span.end,
                "cell span {coord:?} = {span:?} out of bounds for {} tokens",
                ids.len()
            );
        }
        Self {
            ids,
            meta,
            cell_spans,
            header_spans,
            n_rows_encoded,
            n_cols,
            truncated_rows,
            linearizer,
        }
    }

    /// Token ids.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// Per-token metadata, aligned with [`EncodedTable::ids`].
    pub fn meta(&self) -> &[TokenMeta] {
        &self.meta
    }

    /// Approximate heap bytes held: the token arrays, and both span maps
    /// at their capacity (an entry plus its control byte per slot).
    pub fn heap_bytes(&self) -> usize {
        fn map_bytes<K, V>(m: &HashMap<K, V>) -> usize {
            m.capacity() * (std::mem::size_of::<(K, V)>() + 1)
        }
        std::mem::size_of_val(self.ids.as_slice())
            + std::mem::size_of_val(self.meta.as_slice())
            + map_bytes(&self.cell_spans)
            + map_bytes(&self.header_spans)
    }

    /// Sequence length.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no tokens were produced.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Token span of the data cell at 0-based `(row, col)`, if encoded.
    pub fn cell_span(&self, row: usize, col: usize) -> Option<Range<usize>> {
        self.cell_spans.get(&(row, col)).cloned()
    }

    /// Token span of a 0-based column's header, if encoded.
    pub fn header_span(&self, col: usize) -> Option<Range<usize>> {
        self.header_spans.get(&col).cloned()
    }

    /// Iterates over encoded cells as `((row, col), span)`, in grid order.
    pub fn cells(&self) -> impl Iterator<Item = ((usize, usize), Range<usize>)> + '_ {
        let mut coords: Vec<_> = self.cell_spans.keys().copied().collect();
        coords.sort_unstable();
        coords
            .into_iter()
            .map(move |c| (c, self.cell_spans[&c].clone()))
    }

    /// Data rows that made it into the encoding (before truncation cut off
    /// the rest).
    pub fn n_rows_encoded(&self) -> usize {
        self.n_rows_encoded
    }

    /// Column count of the source table.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Rows dropped by the token-budget truncation.
    pub fn truncated_rows(&self) -> usize {
        self.truncated_rows
    }

    /// Name of the linearizer that produced this encoding.
    pub fn linearizer(&self) -> &'static str {
        self.linearizer
    }

    /// Row ids per token (for row embeddings).
    pub fn row_ids(&self) -> Vec<usize> {
        self.meta.iter().map(|m| m.row).collect()
    }

    /// Column ids per token (for column embeddings).
    pub fn col_ids(&self) -> Vec<usize> {
        self.meta.iter().map(|m| m.col).collect()
    }

    /// Segment ids per token: 0 = context, 1 = table.
    pub fn segment_ids(&self) -> Vec<usize> {
        self.meta
            .iter()
            .map(|m| match m.segment {
                Segment::Context => 0,
                Segment::Table => 1,
            })
            .collect()
    }

    /// Numeric-rank ids per token (0 = no rank).
    pub fn rank_ids(&self) -> Vec<usize> {
        self.meta.iter().map(|m| m.rank).collect()
    }

    /// Token-kind ids per token (stable small ints for kind embeddings).
    pub fn kind_ids(&self) -> Vec<usize> {
        self.meta
            .iter()
            .map(|m| match m.kind {
                TokenKind::Special => 0,
                TokenKind::Context => 1,
                TokenKind::Header => 2,
                TokenKind::Cell => 3,
                TokenKind::Template => 4,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EncodedTable {
        let ids = vec![2, 10, 3, 11, 12];
        let meta = vec![
            TokenMeta::outside(Segment::Context, TokenKind::Special),
            TokenMeta::outside(Segment::Context, TokenKind::Context),
            TokenMeta::outside(Segment::Table, TokenKind::Special),
            TokenMeta {
                row: 0,
                col: 1,
                segment: Segment::Table,
                kind: TokenKind::Header,
                entity: None,
                rank: 0,
            },
            TokenMeta {
                row: 1,
                col: 1,
                segment: Segment::Table,
                kind: TokenKind::Cell,
                entity: Some(7),
                rank: 2,
            },
        ];
        let mut cells = HashMap::new();
        cells.insert((0usize, 0usize), 4..5);
        let mut headers = HashMap::new();
        headers.insert(0usize, 3..4);
        EncodedTable::new(ids, meta, cells, headers, 1, 1, 0, "test")
    }

    #[test]
    fn accessors() {
        let e = tiny();
        assert_eq!(e.len(), 5);
        assert!(!e.is_empty());
        assert_eq!(e.cell_span(0, 0), Some(4..5));
        assert_eq!(e.cell_span(5, 5), None);
        assert_eq!(e.header_span(0), Some(3..4));
        assert_eq!(e.row_ids(), vec![0, 0, 0, 0, 1]);
        assert_eq!(e.col_ids(), vec![0, 0, 0, 1, 1]);
        assert_eq!(e.segment_ids(), vec![0, 0, 1, 1, 1]);
        assert_eq!(e.kind_ids(), vec![0, 1, 0, 2, 3]);
        assert_eq!(e.rank_ids(), vec![0, 0, 0, 0, 2]);
        assert_eq!(e.meta()[4].entity, Some(7));
    }

    #[test]
    fn cells_iterates_in_grid_order() {
        let e = tiny();
        let cells: Vec<_> = e.cells().collect();
        assert_eq!(cells, vec![((0, 0), 4..5)]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_misaligned_meta() {
        let _ = EncodedTable::new(
            vec![1, 2],
            vec![TokenMeta::outside(Segment::Context, TokenKind::Special)],
            HashMap::new(),
            HashMap::new(),
            0,
            0,
            0,
            "test",
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_bad_span() {
        let mut cells = HashMap::new();
        cells.insert((0usize, 0usize), 0..9);
        let _ = EncodedTable::new(
            vec![1],
            vec![TokenMeta::outside(Segment::Context, TokenKind::Special)],
            cells,
            HashMap::new(),
            0,
            0,
            0,
            "test",
        );
    }
}
