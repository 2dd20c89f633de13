//! E1 — Fig 2a: off-the-shelf model inputs and outputs.
//!
//! Encode the same table with every model family's input format; compare
//! token counts, encoding shapes, parameter counts, and single-encode
//! latency — the quantitative version of the hands-on §3.1 comparison.

use crate::report::{f1, Report};
use crate::setup::Setup;
use ntr::models::{EncoderInput, TaBert};
use ntr::nn::Layer;
use ntr::table::{
    Linearizer, LinearizerOptions, RowMajorLinearizer, TapexLinearizer, TurlLinearizer,
};
use ntr::zoo::{build_encoder, EncoderSpec, ModelKind};
use std::time::Instant;

pub fn run(setup: &Setup) -> Vec<Report> {
    let table = &setup.corpus.tables[0];
    let opts = LinearizerOptions::default();
    let cfg = setup.model_config();

    let mut report = Report::new(
        "E1 — off-the-shelf inputs and outputs (Fig 2a)",
        &[
            "model",
            "input format",
            "tokens",
            "params",
            "output shape",
            "encode ms",
        ],
    );
    report.note(format!(
        "table `{}`: {} rows x {} cols, caption {:?}",
        table.id,
        table.n_rows(),
        table.n_cols(),
        table.caption
    ));

    for kind in ModelKind::ALL {
        let lin: Box<dyn Linearizer> = match kind {
            ModelKind::Turl => Box::new(TurlLinearizer),
            _ => Box::new(RowMajorLinearizer),
        };
        let encoded = lin.linearize(table, &table.caption, &setup.tok, &opts);
        let input = EncoderInput::from_encoded(&encoded);
        let mut model = build_encoder(EncoderSpec::f32(kind), &cfg)
            .expect("f32 specs are valid for every registry kind");
        let start = Instant::now();
        let states = model.encode(&input, false);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        report.row(&[
            kind.name().to_string(),
            encoded.linearizer().to_string(),
            encoded.len().to_string(),
            model.num_params().to_string(),
            format!("{:?}", states.shape()),
            f1(ms),
        ]);
    }

    // TaBERT has a table-native interface.
    let mut tabert = TaBert::new(&cfg);
    let start = Instant::now();
    let out = tabert.encode_table(table, &table.caption, &setup.tok);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    report.row(&[
        "tabert".to_string(),
        "per-row + vertical".to_string(),
        "(per row)".to_string(),
        tabert.num_params().to_string(),
        format!("cells {:?}", out.cells.shape()),
        f1(ms),
    ]);

    // TAPEX input format (encoder side).
    let enc = TapexLinearizer.linearize(table, "SELECT Country FROM t", &setup.tok, &opts);
    report.note(format!(
        "tapex encoder input uses the `{}` format ({} tokens with a SQL context)",
        enc.linearizer(),
        enc.len()
    ));
    vec![report]
}
