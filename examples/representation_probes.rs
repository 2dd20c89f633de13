//! Representation probes — the paper's §2.4 closes by calling for "a new
//! family of data-driven basic tests … to measure the consistency of the
//! data representation". This example runs that family over every encoder
//! model and renders the §3.3-style inspection views (attention heatmap,
//! cell-similarity grid).
//!
//! Run with: `cargo run --release --example representation_probes`

use ntr::corpus::tables::{CorpusConfig, TableCorpus};
use ntr::corpus::{World, WorldConfig};
use ntr::models::{EncoderInput, ModelConfig, Rows, SequenceEncoder, Turl};
use ntr::table::{Linearizer, LinearizerOptions, TurlLinearizer};
use ntr::tasks::probes::consistency;
use ntr::tasks::visualize::{attention_heatmap, cell_similarity_grid, top_attended};
use ntr::zoo::{build_encoder, EncoderSpec, ModelKind};

fn main() {
    let world = World::generate(WorldConfig::default());
    let corpus = TableCorpus::generate(
        &world,
        &CorpusConfig {
            n_tables: 24,
            min_rows: 4,
            max_rows: 6,
            null_prob: 0.0,
            headerless_prob: 0.0,
            seed: 61,
        },
    );
    let tok = ntr::corpus::vocab::train_tokenizer(&corpus, &[], 1800);
    let cfg = ModelConfig {
        vocab_size: tok.vocab_size(),
        n_entities: world.n_entities(),
        d_model: 64,
        n_heads: 4,
        n_layers: 2,
        d_ff: 128,
        ..ModelConfig::default()
    };

    // ------------------------------------------------------------------
    // 1. Consistency probes per model family (centered cosine).
    // ------------------------------------------------------------------
    let opts = LinearizerOptions::default();
    println!(
        "consistency probes over {} tables (centered cosine):",
        corpus.len()
    );
    println!("{:<7} | row-perm ↑ | col-perm ↑ | header-strip ↓", "model");
    for kind in ModelKind::ALL {
        let mut model = build_encoder(EncoderSpec::f32(kind), &cfg).expect("f32 spec");
        let r = consistency(model.as_mut(), &corpus, &tok, &opts, 62);
        println!(
            "{:<7} |   {:+.3}   |   {:+.3}   |   {:+.3}",
            kind.name(),
            r.row_order_invariance,
            r.col_order_invariance,
            r.header_similarity
        );
    }
    println!("(structural models are more column-order sensitive and more");
    println!(" header-dependent than the BERT baseline — see EXPERIMENTS.md E12)\n");

    // ------------------------------------------------------------------
    // 2. §3.3-style inspection of one TURL encoding.
    // ------------------------------------------------------------------
    let t = &corpus.tables[0];
    let turl = Turl::new(&cfg);
    let e = TurlLinearizer.linearize(t, &t.caption, &tok, &opts);
    let input = EncoderInput::from_encoded(&e);
    let states = turl.infer(&input, Rows::All);

    println!(
        "table `{}` under the TURL linearizer ({} tokens)\n",
        t.id,
        e.len()
    );
    println!("attention heatmap, layer 0 / head 0 (first 16 tokens):");
    let maps = turl.attention_maps(&input);
    print!("{}", attention_heatmap(&maps[0][0], &e, &tok, 16));

    if let Some(span) = e.cell_span(0, 0) {
        println!("\nwhere the first token of cell (0,0) looks (layer 0, head 0):");
        for (token, row, col, p) in top_attended(&maps[0][0], &e, &tok, span.start, 5) {
            println!("  {token:<14} row={row} col={col} p={p:.3}");
        }
    }

    println!("\ncell-embedding cosine to cell (0,0):");
    print!(
        "{}",
        cell_similarity_grid(&e, &states, (0, 0), t.n_rows().min(5), t.n_cols().min(6))
    );
}
