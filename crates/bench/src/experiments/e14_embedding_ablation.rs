//! E14 (extension) — ablation of the structural embeddings (DESIGN.md §4
//! design decision 3 / the survey's input-level extension): the *same*
//! TAPAS architecture with and without row/column/kind embedding tables,
//! compared on MLM recovery and snapshot QA.

use crate::report::{f3, Report};
use crate::setup::Setup;
use ntr::corpus::datasets::QaDataset;
use ntr::corpus::Split;
use ntr::models::{EmbeddingFlags, Tapas};
use ntr::table::{LinearizerOptions, RowMajorLinearizer};
use ntr::tasks::pretrain::eval_mlm;
use ntr::tasks::qa::{evaluate, finetune, snapshot_dataset, CellSelector};
use ntr::tasks::TrainConfig;
use ntr::tasks::TrainRun;

pub fn run(setup: &Setup) -> Vec<Report> {
    let cfg = setup.model_config();
    let qa = snapshot_dataset(&QaDataset::build(&setup.corpus, 5, 0xE01), 2);
    let opts = LinearizerOptions {
        max_tokens: 160,
        ..Default::default()
    };
    let pre = TrainConfig {
        epochs: setup.epochs(4, 10),
        lr: 3e-3,
        batch_size: 8,
        warmup_frac: 0.1,
        seed: 0xE02,
    };
    let ft = TrainConfig {
        epochs: setup.epochs(6, 15),
        lr: 1e-3,
        batch_size: 8,
        warmup_frac: 0.1,
        seed: 0xE03,
    };

    let mut report = Report::new(
        "E14 — structural-embedding ablation (same TAPAS architecture)",
        &[
            "embeddings",
            "MLM recovery",
            "QA coord acc",
            "QA denotation acc",
        ],
    );
    report.note(format!(
        "{} snapshot QA examples; MLM recovery measured on the pretraining corpus",
        qa.examples.len()
    ));

    for (name, flags) in [
        ("word+pos+segment (BERT-like)", EmbeddingFlags::text_only()),
        ("+row +col +kind (TAPAS)", EmbeddingFlags::structural()),
    ] {
        let mut encoder = Tapas::with_embeddings(&cfg, flags);
        TrainRun::new(pre)
            .max_tokens(160)
            .mlm(&mut encoder, &setup.corpus, &setup.tok)
            .expect("infallible: no checkpointing configured");
        let mlm = eval_mlm(
            &encoder,
            &setup.corpus.tables,
            &setup.tok,
            160,
            &RowMajorLinearizer,
            0xE04,
        );
        let mut selector = CellSelector::new(encoder, 0xE05);
        finetune(&mut selector, &qa, &setup.tok, &ft, &opts);
        let eval = evaluate(&mut selector, &qa, Split::Test, &setup.tok, &opts);
        report.row(&[
            name.to_string(),
            f3(mlm),
            f3(eval.coord_accuracy),
            f3(eval.denotation_accuracy),
        ]);
    }
    vec![report]
}
