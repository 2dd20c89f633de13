//! E12 — §2.4's call for "data-driven basic tests … to measure the
//! consistency of the data representation": row/column-order invariance
//! and header sensitivity, per model family, before and after pretraining.

use crate::report::{f3, Report};
use crate::setup::Setup;
use ntr::models::{Mate, Tapas, Turl, VanillaBert};
use ntr::table::LinearizerOptions;
use ntr::tasks::pretrain::MlmModel;
use ntr::tasks::probes::consistency;
use ntr::tasks::TrainConfig;
use ntr::tasks::TrainRun;

pub fn run(setup: &Setup) -> Vec<Report> {
    let cfg = setup.model_config();
    let opts = LinearizerOptions {
        max_tokens: 192,
        ..Default::default()
    };
    let tc = TrainConfig {
        epochs: setup.epochs(4, 12),
        lr: 3e-3,
        batch_size: 8,
        warmup_frac: 0.1,
        seed: 0xC01,
    };

    let mut report = Report::new(
        "E12 — representation-consistency probes (cosine similarity of [CLS] embeddings)",
        &[
            "model",
            "state",
            "row-perm ↑",
            "col-perm ↑",
            "header-strip (lower = headers used)",
        ],
    );
    report.note(format!(
        "{} tables probed; a relation is a set of tuples, so row/column \
         permutations should not move the representation, while removing \
         headers removes real information and should",
        setup.corpus.len()
    ));

    fn probe<M: MlmModel>(
        mut model: M,
        name: &str,
        setup: &Setup,
        opts: &LinearizerOptions,
        tc: &TrainConfig,
        report: &mut Report,
    ) {
        let before = consistency(&mut model, &setup.corpus, &setup.tok, opts, 0xC02);
        report.row(&[
            name.to_string(),
            "untrained".to_string(),
            f3(before.row_order_invariance),
            f3(before.col_order_invariance),
            f3(before.header_similarity),
        ]);
        TrainRun::new(*tc)
            .max_tokens(192)
            .mlm(&mut model, &setup.corpus, &setup.tok)
            .expect("infallible: no checkpointing configured");
        let after = consistency(&mut model, &setup.corpus, &setup.tok, opts, 0xC02);
        report.row(&[
            name.to_string(),
            "pretrained".to_string(),
            f3(after.row_order_invariance),
            f3(after.col_order_invariance),
            f3(after.header_similarity),
        ]);
    }

    probe(
        VanillaBert::new(&cfg),
        "bert",
        setup,
        &opts,
        &tc,
        &mut report,
    );
    probe(Tapas::new(&cfg), "tapas", setup, &opts, &tc, &mut report);
    probe(Turl::new(&cfg), "turl", setup, &opts, &tc, &mut report);
    probe(Mate::new(&cfg), "mate", setup, &opts, &tc, &mut report);
    vec![report]
}
