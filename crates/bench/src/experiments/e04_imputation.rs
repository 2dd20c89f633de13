//! E4 — Fig 2d: fine-tuning for data imputation, with the §3.4 failure
//! slices (numeric tables, headerless tables).
//!
//! Systems compared: mode baseline, untrained BERT, MLM-pretrained BERT,
//! pretrained+fine-tuned BERT, and jointly pretrained (+fine-tuned) TURL.

use crate::report::{f3, Report};
use crate::setup::Setup;
use ntr::corpus::datasets::ImputationDataset;
use ntr::corpus::Split;
use ntr::models::{Turl, VanillaBert};
use ntr::tasks::imputation::{baseline_mode, evaluate, finetune, CandidatePools, ImputationEval};
use ntr::tasks::pretrain::MlmModel;
use ntr::tasks::TrainConfig;
use ntr::tasks::TrainRun;

const MAX_TOKENS: usize = 192;

fn eval_row(report: &mut Report, name: &str, e: &ImputationEval) {
    report.row(&[
        name.to_string(),
        f3(e.accuracy),
        f3(e.macro_f1),
        f3(e.text_accuracy),
        f3(e.numeric_accuracy),
        f3(e.headered_accuracy),
        f3(e.headerless_accuracy),
    ]);
}

fn light_finetune<M: MlmModel + Clone>(model: &mut M, ds: &ImputationDataset, setup: &Setup) {
    finetune(
        model,
        ds,
        &setup.tok,
        &TrainConfig {
            epochs: 1,
            lr: 3e-4,
            batch_size: 8,
            warmup_frac: 0.1,
            seed: 0x4F7,
        },
        MAX_TOKENS,
    );
}

pub fn run(setup: &Setup) -> Vec<Report> {
    let ds = ImputationDataset::build(&setup.corpus, 3, 0x4D5);
    let pools = CandidatePools::build(&ds, Split::Train);
    let cfg = setup.model_config();
    let pre_cfg = TrainConfig {
        epochs: setup.epochs(8, 40),
        lr: 3e-3,
        batch_size: 8,
        warmup_frac: 0.1,
        seed: 0x4AA,
    };

    let mut report = Report::new(
        "E4 — data imputation (Fig 2d): test accuracy/F1 with failure slices",
        &[
            "system",
            "acc",
            "macro-F1",
            "text",
            "numeric",
            "headered",
            "headerless",
        ],
    );
    report.note(format!(
        "{} examples ({} test); candidates per blank <= 64 (gold included); \
         slices follow the paper's §3.4 failure analysis",
        ds.examples.len(),
        ds.indices(Split::Test).len()
    ));

    eval_row(
        &mut report,
        "mode baseline",
        &baseline_mode(&ds, Split::Test, &pools),
    );

    let mut bert = VanillaBert::new(&cfg);
    let untrained = evaluate(&bert, &ds, Split::Test, &pools, &setup.tok, MAX_TOKENS);
    eval_row(&mut report, "bert untrained", &untrained);

    TrainRun::new(pre_cfg)
        .max_tokens(MAX_TOKENS)
        .mlm(&mut bert, &setup.corpus, &setup.tok)
        .expect("infallible: no checkpointing configured");
    let pretrained = evaluate(&bert, &ds, Split::Test, &pools, &setup.tok, MAX_TOKENS);
    eval_row(&mut report, "bert pretrained", &pretrained);

    light_finetune(&mut bert, &ds, setup);
    let tuned = evaluate(&bert, &ds, Split::Test, &pools, &setup.tok, MAX_TOKENS);
    eval_row(&mut report, "bert pretrained+ft", &tuned);

    let mut turl = Turl::new(&cfg);
    TrainRun::new(pre_cfg)
        .max_tokens(MAX_TOKENS)
        .turl(&mut turl, &setup.entity_corpus, &setup.tok)
        .expect("infallible: no checkpointing configured");
    TrainRun::new(pre_cfg)
        .max_tokens(MAX_TOKENS)
        .mlm(&mut turl, &setup.corpus, &setup.tok)
        .expect("infallible: no checkpointing configured");
    light_finetune(&mut turl, &ds, setup);
    let turl_eval = evaluate(&turl, &ds, Split::Test, &pools, &setup.tok, MAX_TOKENS);
    eval_row(&mut report, "turl pretrained+ft", &turl_eval);

    vec![report]
}
