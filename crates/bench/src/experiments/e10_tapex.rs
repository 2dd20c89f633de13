//! E10 — §2.1 semantic parsing plus TAPEX's pretraining objective:
//!
//! * **neural SQL execution**: how close a pretrained TAPEX gets to the
//!   exact executor on held-out queries;
//! * **text-to-SQL**: denotation accuracy of a fine-tuned parser against
//!   the first-column baseline.

use crate::report::{f3, Report};
use crate::setup::Setup;
use ntr::corpus::datasets::Text2SqlDataset;
use ntr::corpus::Split;
use ntr::models::{ModelConfig, Tapex};
use ntr::sql::gen::{GenConfig, QueryGenerator};
use ntr::tasks::pretrain::eval_tapex_execution;
use ntr::tasks::text2sql::{baseline_first_column, evaluate, finetune};
use ntr::tasks::TrainConfig;
use ntr::tasks::TrainRun;

const MAX_TOKENS: usize = 160;

pub fn run(setup: &Setup) -> Vec<Report> {
    // Extend the tokenizer corpus with SQL/question text.
    let ds = Text2SqlDataset::build(&setup.corpus, 4, 0xA01);
    let extra: Vec<String> = ds
        .examples
        .iter()
        .flat_map(|e| [e.question.clone(), e.sql.to_string().to_lowercase()])
        .collect();
    let tok = ntr::corpus::vocab::train_tokenizer(&setup.corpus, &extra, 2600);
    let cfg = ModelConfig {
        vocab_size: tok.vocab_size(),
        ..setup.model_config()
    };
    let tc = TrainConfig {
        epochs: setup.epochs(3, 30),
        lr: 3e-3,
        batch_size: 8,
        warmup_frac: 0.1,
        seed: 0xA02,
    };

    // Part A: neural SQL execution.
    let mut executor = Tapex::new(&cfg);
    let losses = TrainRun::new(tc)
        .queries_per_table(3)
        .max_tokens(MAX_TOKENS)
        .tapex(&mut executor, &setup.corpus, &tok)
        .expect("infallible: no checkpointing configured");
    let mut held_out = Vec::new();
    for table in setup.corpus.tables.iter().take(16) {
        let mut g = QueryGenerator::new(0xA03, GenConfig::default());
        for (q, a) in g.generate_n(table, 2) {
            held_out.push((table.clone(), q, a));
        }
    }
    let exec_acc = eval_tapex_execution(&executor, &held_out, &tok, MAX_TOKENS);

    let mut exec_report = Report::new(
        "E10a — TAPEX as a neural SQL executor",
        &["executor", "denotation acc", "notes"],
    );
    exec_report.note(format!(
        "pretraining loss {:.3} -> {:.3} over {} steps; {} held-out (table, query) pairs",
        losses.first().copied().unwrap_or(0.0),
        losses.last().copied().unwrap_or(0.0),
        losses.len(),
        held_out.len()
    ));
    exec_report.row(&[
        "ntr-sql (exact)".into(),
        f3(1.0),
        "ground truth by construction".into(),
    ]);
    exec_report.row(&[
        "tapex (neural)".into(),
        f3(exec_acc),
        "greedy decode, token-level match".into(),
    ]);

    // Part B: text-to-SQL.
    let mut parser = Tapex::new(&ModelConfig { seed: 0xA04, ..cfg });
    let ft_losses = finetune(
        &mut parser,
        &ds,
        &tok,
        &TrainConfig {
            epochs: setup.epochs(6, 30),
            ..tc
        },
        MAX_TOKENS,
    );
    let eval = evaluate(&mut parser, &ds, Split::Test, &tok, MAX_TOKENS);
    let base = baseline_first_column(&ds, Split::Test);

    let mut parse_report = Report::new(
        "E10b — text-to-SQL semantic parsing (denotation evaluation)",
        &["system", "parse rate", "denotation acc", "exact match"],
    );
    parse_report.note(format!(
        "{} questions ({} test); fine-tuning loss {:.3} -> {:.3}",
        ds.examples.len(),
        eval.n,
        ft_losses.first().copied().unwrap_or(0.0),
        ft_losses.last().copied().unwrap_or(0.0)
    ));
    parse_report.row(&[
        "tapex parser".into(),
        f3(eval.parse_rate),
        f3(eval.denotation_accuracy),
        f3(eval.exact_match),
    ]);
    parse_report.row(&[
        "first-column baseline".into(),
        f3(base.parse_rate),
        f3(base.denotation_accuracy),
        f3(base.exact_match),
    ]);
    vec![exec_report, parse_report]
}
