//! E7 — the row-vs-column serialization ablation the survey notes a few
//! works ran (§2.3: "row vs. column serialization").
//!
//! Identical models are pretrained with MLM under each serialization and
//! evaluated on held-out tables under the *same* serialization they were
//! trained with; we also cross-evaluate to show format sensitivity.

use crate::report::{f3, Report};
use crate::setup::Setup;
use ntr::corpus::split_three;
use ntr::corpus::Split;
use ntr::models::VanillaBert;
use ntr::table::{ColumnMajorLinearizer, Linearizer, RowMajorLinearizer};
use ntr::tasks::pretrain::eval_mlm;
use ntr::tasks::TrainConfig;
use ntr::tasks::TrainRun;

const MAX_TOKENS: usize = 192;

pub fn run(setup: &Setup) -> Vec<Report> {
    let cfg = setup.model_config();
    let tc = TrainConfig {
        epochs: setup.epochs(6, 20),
        lr: 3e-3,
        batch_size: 8,
        warmup_frac: 0.1,
        seed: 0x7A1,
    };

    // Split the corpus into pretraining and held-out tables.
    let splits = split_three(setup.corpus.len(), 0.0, 0.25, 0x7A2);
    let train_tables: Vec<_> = setup
        .corpus
        .tables
        .iter()
        .zip(&splits)
        .filter(|(_, &s)| s == Split::Train)
        .map(|(t, _)| t.clone())
        .collect();
    let held_out: Vec<_> = setup
        .corpus
        .tables
        .iter()
        .zip(&splits)
        .filter(|(_, &s)| s == Split::Test)
        .map(|(t, _)| t.clone())
        .collect();
    let train_corpus = ntr::corpus::tables::TableCorpus {
        tables: train_tables,
        kinds: Vec::new(),
    };

    let mut report = Report::new(
        "E7 — row-major vs column-major serialization (MLM recovery on held-out tables)",
        &["pretrained with", "eval row-major", "eval column-major"],
    );
    report.note(format!(
        "{} pretraining tables, {} held-out; same model config and budget",
        train_corpus.tables.len(),
        held_out.len()
    ));

    let linearizers: [(&str, &dyn Linearizer); 2] = [
        ("row-major", &RowMajorLinearizer),
        ("column-major", &ColumnMajorLinearizer),
    ];
    for (name, lin) in linearizers {
        let mut model = VanillaBert::new(&cfg);
        TrainRun::new(tc)
            .max_tokens(MAX_TOKENS)
            .linearizer(lin)
            .mlm(&mut model, &train_corpus, &setup.tok)
            .expect("infallible: no checkpointing configured");
        let row_eval = eval_mlm(
            &model,
            &held_out,
            &setup.tok,
            MAX_TOKENS,
            &RowMajorLinearizer,
            0x7E,
        );
        let col_eval = eval_mlm(
            &model,
            &held_out,
            &setup.tok,
            MAX_TOKENS,
            &ColumnMajorLinearizer,
            0x7E,
        );
        report.row(&[name.to_string(), f3(row_eval), f3(col_eval)]);
    }
    vec![report]
}
