//! E5 — the survey's §2.2/§2.3 dimension table, measured.
//!
//! For each model family: its design-space coordinates (input processing,
//! architecture extension, pretraining objective, output granularity) plus
//! *measured* downstream quality on NLI and CTA after identical
//! pretraining+fine-tuning budgets.

use crate::report::{f3, Report};
use crate::setup::Setup;
use ntr::corpus::datasets::{CtaDataset, NliDataset};
use ntr::corpus::Split;
use ntr::models::{Mate, SequenceEncoder, Tapas, Turl, VanillaBert};
use ntr::table::LinearizerOptions;
use ntr::tasks::cta::{baseline_majority, ColumnAnnotator};
use ntr::tasks::nli::{baseline_lookup, FactVerifier};
use ntr::tasks::pretrain::MlmModel;
use ntr::tasks::TrainConfig;
use ntr::tasks::TrainRun;

const MAX_TOKENS: usize = 192;

fn pretrain<M: MlmModel + Clone>(model: &mut M, setup: &Setup) {
    TrainRun::new(TrainConfig {
        epochs: setup.epochs(4, 15),
        lr: 3e-3,
        batch_size: 8,
        warmup_frac: 0.1,
        seed: 0x55A,
    })
    .max_tokens(MAX_TOKENS)
    .mlm(model, &setup.corpus, &setup.tok)
    .expect("infallible: no checkpointing configured");
}

fn measure<M: SequenceEncoder + Clone + 'static>(
    encoder: M,
    setup: &Setup,
    nli: &NliDataset,
    cta: &CtaDataset,
) -> (f64, f64) {
    let opts = LinearizerOptions {
        max_tokens: MAX_TOKENS,
        ..Default::default()
    };
    let ft = TrainConfig {
        epochs: setup.epochs(3, 8),
        lr: 1e-3,
        batch_size: 8,
        warmup_frac: 0.1,
        seed: 0x55B,
    };
    // NLI fine-tune + eval (fresh copy of the encoder weights per task via
    // the checkpoint mechanism is unnecessary: we consume the encoder for
    // NLI and re-pretrain for CTA in the caller).
    let mut verifier = FactVerifier::new(encoder, 0x55C);
    ntr::tasks::nli::finetune(&mut verifier, nli, &setup.tok, &ft, &opts);
    let nli_eval = ntr::tasks::nli::evaluate(&mut verifier, nli, Split::Test, &setup.tok, &opts);

    let mut annotator = ColumnAnnotator::new(verifier.encoder, cta.labels.len(), 0x55D);
    ntr::tasks::cta::finetune(&mut annotator, cta, &setup.tok, &ft, &opts);
    let cta_eval = ntr::tasks::cta::evaluate(&mut annotator, cta, Split::Test, &setup.tok, &opts);
    (nli_eval.accuracy, cta_eval.accuracy)
}

pub fn run(setup: &Setup) -> Vec<Report> {
    let cfg = setup.model_config();
    let nli = NliDataset::build(&setup.corpus, 4, 0x5E1);
    let cta = CtaDataset::build(&setup.corpus, 0x5E2);

    let mut dims = Report::new(
        "E5a — survey dimensions per family (design coordinates)",
        &[
            "model",
            "structural embeddings",
            "attention",
            "pretraining",
            "output granularity",
        ],
    );
    dims.row(&[
        "bert".into(),
        "segment only".into(),
        "full".into(),
        "MLM".into(),
        "token/CLS".into(),
    ]);
    dims.row(&[
        "tapas".into(),
        "row+col+kind".into(),
        "full".into(),
        "MLM".into(),
        "cell scores + CLS".into(),
    ]);
    dims.row(&[
        "tabert".into(),
        "row+col+kind".into(),
        "row-wise + vertical".into(),
        "MLM".into(),
        "cell/column".into(),
    ]);
    dims.row(&[
        "turl".into(),
        "row+col+kind".into(),
        "visibility matrix".into(),
        "MLM+MER".into(),
        "cell/entity".into(),
    ]);
    dims.row(&[
        "mate".into(),
        "row+col+kind".into(),
        "row/col sparse heads".into(),
        "MLM".into(),
        "token/CLS".into(),
    ]);
    dims.row(&[
        "tapex".into(),
        "row+col+kind".into(),
        "enc-dec".into(),
        "neural SQL execution".into(),
        "generated text".into(),
    ]);

    let mut measured = Report::new(
        "E5b — measured task accuracy per family (same pretrain+fine-tune budget)",
        &["model", "NLI acc", "CTA acc"],
    );
    measured.note(format!(
        "NLI: {} claims; CTA: {} columns over {} labels; both on held-out test splits",
        nli.examples.len(),
        cta.examples.len(),
        cta.labels.len()
    ));

    {
        let mut m = VanillaBert::new(&cfg);
        pretrain(&mut m, setup);
        let (nli_acc, cta_acc) = measure(m, setup, &nli, &cta);
        measured.row(&["bert".into(), f3(nli_acc), f3(cta_acc)]);
    }
    {
        let mut m = Tapas::new(&cfg);
        pretrain(&mut m, setup);
        let (nli_acc, cta_acc) = measure(m, setup, &nli, &cta);
        measured.row(&["tapas".into(), f3(nli_acc), f3(cta_acc)]);
    }
    {
        let mut m = Turl::new(&cfg);
        pretrain(&mut m, setup);
        let (nli_acc, cta_acc) = measure(m, setup, &nli, &cta);
        measured.row(&["turl".into(), f3(nli_acc), f3(cta_acc)]);
    }
    {
        let mut m = Mate::new(&cfg);
        pretrain(&mut m, setup);
        let (nli_acc, cta_acc) = measure(m, setup, &nli, &cta);
        measured.row(&["mate".into(), f3(nli_acc), f3(cta_acc)]);
    }
    let nli_base = baseline_lookup(&nli, Split::Test);
    let cta_base = baseline_majority(&cta, Split::Test);
    measured.row(&[
        "symbolic/majority baseline".into(),
        f3(nli_base.accuracy),
        f3(cta_base.accuracy),
    ]);

    vec![dims, measured]
}
