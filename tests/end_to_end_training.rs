//! End-to-end learning tests: tiny but real pretrain → fine-tune flows
//! across the crates. Each asserts a *learning* outcome (a metric moves in
//! the right direction), not an absolute score.

use ntr::corpus::datasets::{ImputationDataset, NliDataset};
use ntr::corpus::tables::{CorpusConfig, TableCorpus};
use ntr::corpus::{Split, World, WorldConfig};
use ntr::models::{ModelConfig, Turl, VanillaBert};
use ntr::table::LinearizerOptions;
use ntr::tasks::TrainConfig;
use ntr::tasks::TrainRun;
use ntr::tokenizer::WordPieceTokenizer;

fn small_world() -> (World, TableCorpus, WordPieceTokenizer) {
    let world = World::generate(WorldConfig {
        n_countries: 10,
        n_people: 10,
        n_films: 8,
        n_clubs: 6,
        seed: 0xE2E,
    });
    let corpus = TableCorpus::generate(
        &world,
        &CorpusConfig {
            n_tables: 14,
            min_rows: 3,
            max_rows: 5,
            null_prob: 0.0,
            headerless_prob: 0.0,
            seed: 0xE2F,
        },
    );
    let tok = ntr::corpus::vocab::train_tokenizer(&corpus, &[], 1400);
    (world, corpus, tok)
}

fn quick(epochs: usize, lr: f32) -> TrainConfig {
    TrainConfig {
        epochs,
        lr,
        batch_size: 4,
        warmup_frac: 0.1,
        seed: 0xEE,
    }
}

#[test]
fn mlm_pretraining_improves_heldout_recovery() {
    let (_, corpus, tok) = small_world();
    let cfg = ModelConfig {
        vocab_size: tok.vocab_size(),
        ..ModelConfig::tiny(tok.vocab_size())
    };
    let (train, held): (Vec<_>, Vec<_>) = {
        let mid = corpus.tables.len() - 4;
        (corpus.tables[..mid].to_vec(), corpus.tables[mid..].to_vec())
    };
    let train_corpus = TableCorpus {
        tables: train,
        kinds: Vec::new(),
    };
    let mut model = VanillaBert::new(&cfg);
    let lin = ntr::table::RowMajorLinearizer;
    let train_tables = train_corpus.tables.clone();
    let before_train = ntr::tasks::pretrain::eval_mlm(&model, &train_tables, &tok, 96, &lin, 1);
    let before_held = ntr::tasks::pretrain::eval_mlm(&model, &held, &tok, 96, &lin, 1);
    TrainRun::new(quick(20, 3e-3))
        .max_tokens(96)
        .mlm(&mut model, &train_corpus, &tok)
        .expect("infallible: no checkpointing configured");
    let after_train = ntr::tasks::pretrain::eval_mlm(&model, &train_tables, &tok, 96, &lin, 1);
    let after_held = ntr::tasks::pretrain::eval_mlm(&model, &held, &tok, 96, &lin, 1);
    // The tiny test model must learn its pretraining corpus; held-out
    // recovery must at least not regress (it is near the noise floor at
    // this scale).
    assert!(
        after_train > before_train,
        "training-table MLM recovery should improve: {before_train:.3} -> {after_train:.3}"
    );
    assert!(
        after_held >= before_held,
        "held-out MLM recovery regressed: {before_held:.3} -> {after_held:.3}"
    );
}

#[test]
fn turl_joint_pretrain_then_imputation_beats_untrained() {
    let (world, _, _) = small_world();
    let corpus = TableCorpus::generate_entity_only(
        &world,
        &CorpusConfig {
            n_tables: 14,
            min_rows: 3,
            max_rows: 5,
            null_prob: 0.0,
            headerless_prob: 0.0,
            seed: 0xE30,
        },
    );
    let tok = ntr::corpus::vocab::train_tokenizer(&corpus, &[], 1400);
    // Wider than `tiny`: a d=16 single-layer model's untrained candidate
    // ranking is noisy enough to occasionally beat a barely-trained one.
    let cfg = ModelConfig {
        vocab_size: tok.vocab_size(),
        n_entities: world.n_entities(),
        d_model: 32,
        n_heads: 2,
        n_layers: 2,
        d_ff: 64,
        dropout: 0.0,
        ..ModelConfig::tiny(tok.vocab_size())
    };
    let ds = ImputationDataset::build(&corpus, 2, 0xE31);
    let pools = ntr::tasks::imputation::CandidatePools::build(&ds, Split::Train);

    let mut model = Turl::new(&cfg);
    let before = ntr::tasks::imputation::evaluate(&model, &ds, Split::Train, &pools, &tok, 96);
    TrainRun::new(quick(16, 3e-3))
        .max_tokens(96)
        .turl(&mut model, &corpus, &tok)
        .expect("infallible: no checkpointing configured");
    ntr::tasks::imputation::finetune(&mut model, &ds, &tok, &quick(2, 5e-4), 96);
    let after = ntr::tasks::imputation::evaluate(&model, &ds, Split::Train, &pools, &tok, 96);
    assert!(
        after.accuracy > before.accuracy,
        "pretrain+finetune must beat untrained: {:.3} -> {:.3}",
        before.accuracy,
        after.accuracy
    );
}

#[test]
fn nli_training_fits_above_chance_with_structural_model() {
    let (_, corpus, _) = small_world();
    let ds = NliDataset::build(&corpus, 4, 0xE32);
    let extra: Vec<String> = ds.examples.iter().map(|e| e.claim.clone()).collect();
    let tok = ntr::corpus::vocab::train_tokenizer(&corpus, &extra, 1500);
    // Slightly wider than `tiny`: the binary head collapses to the
    // majority class below ~d=32 on this task.
    let cfg = ModelConfig {
        vocab_size: tok.vocab_size(),
        d_model: 32,
        n_heads: 2,
        n_layers: 2,
        d_ff: 64,
        dropout: 0.0,
        ..ModelConfig::tiny(tok.vocab_size())
    };
    let opts = LinearizerOptions {
        max_tokens: 96,
        ..Default::default()
    };
    let mut model = ntr::tasks::nli::FactVerifier::new(ntr::models::Tapas::new(&cfg), 0xE33);
    ntr::tasks::nli::finetune(&mut model, &ds, &tok, &quick(16, 3e-3), &opts);
    let eval = ntr::tasks::nli::evaluate(&mut model, &ds, Split::Train, &tok, &opts);
    assert!(eval.n > 10);
    assert!(eval.accuracy > 0.6, "{eval:?}");
}

#[test]
fn consistency_probes_distinguish_perturbation_kinds() {
    let (_, corpus, tok) = small_world();
    let cfg = ModelConfig {
        vocab_size: tok.vocab_size(),
        ..ModelConfig::tiny(tok.vocab_size())
    };
    let mut model = VanillaBert::new(&cfg);
    let report = ntr::tasks::probes::consistency(
        &mut model,
        &corpus,
        &tok,
        &LinearizerOptions::default(),
        7,
    );
    assert!(report.n > 5);
    // Centered similarities must stay in [-1, 1] and be non-degenerate.
    for v in [
        report.row_order_invariance,
        report.col_order_invariance,
        report.header_similarity,
    ] {
        assert!((-1.0..=1.0).contains(&v), "{report:?}");
        assert!(
            v < 0.999_999,
            "centered cosine should not saturate: {report:?}"
        );
    }
}

/// The MLM head runs on the loss rows alone (`MlmHead::forward_rows`). Every
/// driver that does so must train bit-identically to the all-rows head it
/// replaced: `forward`, the loss over `IGNORE`-padded targets, `backward`.
mod mlm_rows_path {
    use super::{quick, small_world};
    use ntr::corpus::datasets::ImputationDataset;
    use ntr::corpus::tables::{CorpusConfig, TableCorpus};
    use ntr::corpus::Split;
    use ntr::models::{
        pool_mean, pool_mean_backward, EncoderInput, Mate, MlmHead, ModelConfig, SequenceEncoder,
        Tapas, Turl, VanillaBert,
    };
    use ntr::nn::init::SeededInit;
    use ntr::nn::loss::{softmax_cross_entropy, IGNORE_INDEX};
    use ntr::nn::Layer;
    use ntr::table::masking::{mask_entities, mask_mlm, MlmConfig};
    use ntr::table::{Linearizer, LinearizerOptions, RowMajorLinearizer, TurlLinearizer};
    use ntr::tasks::imputation;
    use ntr::tasks::pretrain::MlmModel;
    use ntr::tasks::supervisor::{run_supervised, SupervisorConfig};
    use ntr::tasks::trainer::TrainerOptions;
    use ntr::tasks::{TrainConfig, TrainRun};
    use ntr::tensor::{par, simd, Tensor};
    use ntr::tokenizer::WordPieceTokenizer;

    const MAX_TOKENS: usize = 64;

    /// Runs `f` on both SIMD lanes at 1, 2 and 4 pool threads.
    fn on_every_lane_and_pool(mut f: impl FnMut(&str)) {
        for scalar in [false, true] {
            for threads in [1, 2, 4] {
                let what = format!("scalar={scalar} threads={threads}");
                par::with_threads(threads, || {
                    if scalar {
                        simd::force_scalar(|| f(&what))
                    } else {
                        f(&what)
                    }
                });
            }
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// CRC-32 of the state dict: every parameter's bytes, in name order.
    fn state_crc(model: &mut dyn Layer) -> u32 {
        let params = ntr::nn::serialize::state_dict(model);
        let bytes: Vec<u8> = params
            .values()
            .flat_map(|t| t.data().iter().flat_map(|v| v.to_le_bytes()))
            .collect();
        ntr::tensor::io::crc32(&bytes)
    }

    fn grad_bits(layer: &mut dyn Layer) -> Vec<u32> {
        let mut out = Vec::new();
        layer.visit_params(&mut |_, p| out.extend(bits(p.grad.data())));
        out
    }

    /// The all-rows head step: logits for every row, a loss over
    /// `IGNORE`-padded targets, a backward through every row.
    fn all_rows(head: &mut MlmHead, states: &Tensor, targets: &[usize]) -> (f32, Tensor) {
        let logits = head.forward(states);
        let (loss, dlogits) = softmax_cross_entropy(&logits, targets, None);
        (loss, head.backward(&dlogits))
    }

    fn run<M: Layer, R>(
        model: &mut M,
        cfg: &TrainConfig,
        n: usize,
        loss_of: impl Fn(&R) -> f32,
        step: impl FnMut(&mut M, &[ntr::tasks::trainer::BatchItem], &ntr::obs::Obs) -> R,
    ) -> Vec<R> {
        let (topts, scfg) = (TrainerOptions::default(), SupervisorConfig::default());
        run_supervised(model, cfg, n, &topts, &scfg, loss_of, step).expect("no faults")
    }

    /// `TrainRun::mlm`'s loop with the all-rows head.
    fn reference_mlm<M: MlmModel>(
        model: &mut M,
        cfg: &TrainConfig,
        corpus: &TableCorpus,
        tok: &WordPieceTokenizer,
    ) -> Vec<f32> {
        let opts = LinearizerOptions {
            max_tokens: MAX_TOKENS,
            ..Default::default()
        };
        let mlm_cfg = MlmConfig::bert(tok.vocab_size());
        let encoded: Vec<_> = corpus
            .tables
            .iter()
            .map(|t| RowMajorLinearizer.linearize(t, &t.caption, tok, &opts))
            .collect();
        run(
            model,
            cfg,
            encoded.len(),
            |l: &f32| *l,
            |model, batch, _| {
                let mut batch_loss = 0.0;
                for item in batch {
                    let e = &encoded[item.index];
                    let seed = cfg.seed ^ ((item.epoch * 31 + item.pos) as u64);
                    let masked = mask_mlm(e, &mlm_cfg, seed);
                    let states = model.encode(&EncoderInput::from_masked(e, &masked), true);
                    let (loss, dstates) = all_rows(model.mlm_head(), &states, &masked.targets);
                    model.backward(&dstates);
                    batch_loss += loss;
                }
                batch_loss / batch.len() as f32
            },
        )
    }

    /// `TrainRun::turl`'s loop with the all-rows MLM head: (MLM, MER) loss.
    fn reference_turl(
        model: &mut Turl,
        cfg: &TrainConfig,
        corpus: &TableCorpus,
        tok: &WordPieceTokenizer,
    ) -> Vec<(f32, f32)> {
        let opts = LinearizerOptions {
            max_tokens: MAX_TOKENS,
            ..Default::default()
        };
        let mlm_cfg = MlmConfig::bert(tok.vocab_size());
        let encoded: Vec<_> = corpus
            .tables
            .iter()
            .map(|t| TurlLinearizer.linearize(t, &t.caption, tok, &opts))
            .collect();
        let loss_of = |r: &(f32, f32)| r.0 + r.1;
        run(model, cfg, encoded.len(), loss_of, |model, batch, _| {
            let (mut bl_mlm, mut bl_mer) = (0.0f32, 0.0f32);
            for item in batch {
                let e = &encoded[item.index];
                let seed = cfg.seed ^ ((item.epoch * 131 + item.pos) as u64);
                let (mut ids, entities) = mask_entities(e, 0.3, seed);
                let mlm = mask_mlm(e, &mlm_cfg, seed ^ 0xA5A5);
                let mut targets = mlm.targets.clone();
                for (p, id) in ids.iter_mut().enumerate() {
                    if entities.iter().any(|m| m.positions.contains(&p)) {
                        targets[p] = IGNORE_INDEX;
                    } else if targets[p] != IGNORE_INDEX {
                        *id = mlm.input_ids[p];
                    }
                }
                let states = model.encode(&EncoderInput::from_encoded_with_ids(e, ids), true);
                let (mlm_loss, mut dstates) = all_rows(&mut model.mlm, &states, &targets);
                let mut mer_loss = 0.0;
                if !entities.is_empty() {
                    let spans: Vec<_> = entities
                        .iter()
                        .map(|m| m.positions[0]..m.positions[m.positions.len() - 1] + 1)
                        .collect();
                    let mut pooled = Tensor::zeros(&[spans.len(), states.dim(1)]);
                    for (k, span) in spans.iter().enumerate() {
                        pooled
                            .row_mut(k)
                            .copy_from_slice(pool_mean(&states, span).data());
                    }
                    let mer_targets: Vec<usize> =
                        entities.iter().map(|m| m.entity as usize).collect();
                    let mer_logits = model.mer.forward(&pooled);
                    let (loss, dmer) = softmax_cross_entropy(&mer_logits, &mer_targets, None);
                    mer_loss = loss;
                    let d_pooled = model.mer.backward(&dmer);
                    for (k, span) in spans.iter().enumerate() {
                        let dp = d_pooled.rows(k, k + 1);
                        dstates.add_assign(&pool_mean_backward(&dp, span, states.dim(0)));
                    }
                }
                model.backward(&dstates);
                bl_mlm += mlm_loss;
                bl_mer += mer_loss;
            }
            (bl_mlm / batch.len() as f32, bl_mer / batch.len() as f32)
        })
    }

    /// `imputation::finetune_supervised`'s loop with the all-rows head.
    fn reference_imputation<M: MlmModel>(
        model: &mut M,
        ds: &ImputationDataset,
        tok: &WordPieceTokenizer,
        cfg: &TrainConfig,
    ) -> Vec<f32> {
        let prepared: Vec<_> = ds
            .indices(Split::Train)
            .iter()
            .filter_map(|&i| {
                let ex = &ds.examples[i];
                let (input, positions) = imputation::masked_input(ex, tok, MAX_TOKENS)?;
                Some((
                    input,
                    positions,
                    imputation::value_slots(&ex.target_text, tok),
                ))
            })
            .collect();
        run(
            model,
            cfg,
            prepared.len(),
            |l: &f32| *l,
            |model, batch, _| {
                let mut batch_loss = 0.0;
                for item in batch {
                    let (input, positions, slots) = &prepared[item.index];
                    let states = model.encode(input, true);
                    let mut targets = vec![IGNORE_INDEX; input.len()];
                    for (&p, &t) in positions.iter().zip(slots) {
                        targets[p] = t;
                    }
                    let (loss, dstates) = all_rows(model.mlm_head(), &states, &targets);
                    model.backward(&dstates);
                    batch_loss += loss;
                }
                batch_loss / batch.len() as f32
            },
        )
    }

    fn assert_mlm_matches<M: MlmModel>(
        family: &str,
        what: &str,
        build: impl Fn() -> M,
        corpus: &TableCorpus,
        tok: &WordPieceTokenizer,
    ) {
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 3,
            ..quick(1, 3e-3)
        };
        let mut rows_path = build();
        let report = TrainRun::new(cfg)
            .max_tokens(MAX_TOKENS)
            .mlm(&mut rows_path, corpus, tok)
            .expect("no faults configured");
        let mut reference = build();
        let expected = reference_mlm(&mut reference, &cfg, corpus, tok);
        assert_eq!(report.mlm_loss.len(), 2, "{family}: two steps");
        assert_eq!(
            bits(&report.mlm_loss),
            bits(&expected),
            "{family} loss, {what}"
        );
        assert_eq!(
            state_crc(&mut rows_path),
            state_crc(&mut reference),
            "{family} weights, {what}"
        );
    }

    #[test]
    fn train_run_mlm_matches_the_all_rows_head_for_every_family() {
        let (world, corpus, tok) = small_world();
        let corpus = TableCorpus {
            tables: corpus.tables[..6].to_vec(),
            kinds: Vec::new(),
        };
        let cfg = ModelConfig {
            n_entities: world.n_entities(),
            ..ModelConfig::tiny(tok.vocab_size())
        };
        on_every_lane_and_pool(|what| {
            assert_mlm_matches("bert", what, || VanillaBert::new(&cfg), &corpus, &tok);
            assert_mlm_matches("tapas", what, || Tapas::new(&cfg), &corpus, &tok);
            assert_mlm_matches("turl", what, || Turl::new(&cfg), &corpus, &tok);
            assert_mlm_matches("mate", what, || Mate::new(&cfg), &corpus, &tok);
        });
    }

    #[test]
    fn turl_and_imputation_match_the_all_rows_head() {
        let (world, _, _) = small_world();
        let corpus = TableCorpus::generate_entity_only(
            &world,
            &CorpusConfig {
                n_tables: 6,
                min_rows: 3,
                max_rows: 4,
                null_prob: 0.0,
                headerless_prob: 0.0,
                seed: 0xE34,
            },
        );
        let tok = ntr::corpus::vocab::train_tokenizer(&corpus, &[], 900);
        let cfg = ModelConfig {
            n_entities: world.n_entities(),
            ..ModelConfig::tiny(tok.vocab_size())
        };
        let turl_cfg = TrainConfig {
            epochs: 1,
            batch_size: 3,
            ..quick(1, 3e-3)
        };
        let ds = ImputationDataset::build(&corpus, 2, 0xE35);
        let ft_cfg = TrainConfig {
            batch_size: ds.indices(Split::Train).len(),
            ..turl_cfg
        };
        on_every_lane_and_pool(|what| {
            let mut rows_path = Turl::new(&cfg);
            let report = TrainRun::new(turl_cfg)
                .max_tokens(MAX_TOKENS)
                .turl(&mut rows_path, &corpus, &tok)
                .expect("no faults configured");
            let mut reference = Turl::new(&cfg);
            let (mlm, mer): (Vec<f32>, Vec<f32>) =
                reference_turl(&mut reference, &turl_cfg, &corpus, &tok)
                    .into_iter()
                    .unzip();
            assert_eq!(bits(&report.mlm_loss), bits(&mlm), "turl mlm loss, {what}");
            assert_eq!(bits(&report.mer_loss), bits(&mer), "turl mer loss, {what}");
            assert_eq!(
                state_crc(&mut rows_path),
                state_crc(&mut reference),
                "turl weights, {what}"
            );

            let mut rows_path = VanillaBert::new(&cfg);
            let losses = imputation::finetune_supervised(
                &mut rows_path,
                &ds,
                &tok,
                &ft_cfg,
                MAX_TOKENS,
                &TrainerOptions::default(),
                &SupervisorConfig::default(),
            )
            .expect("no faults configured");
            let mut reference = VanillaBert::new(&cfg);
            let expected = reference_imputation(&mut reference, &ds, &tok, &ft_cfg);
            assert_eq!(losses.len(), 1, "one step");
            assert_eq!(bits(&losses), bits(&expected), "imputation loss, {what}");
            assert_eq!(
                state_crc(&mut rows_path),
                state_crc(&mut reference),
                "imputation weights, {what}"
            );
        });
    }

    #[test]
    fn head_rows_path_matches_the_all_rows_head_at_the_edges() {
        let n = 101;
        let states = SeededInit::new(1).uniform(&[n, 64], -1.0, 1.0);
        let head = MlmHead::new(64, 300, &mut SeededInit::new(2));
        let row_sets: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            vec![n - 1],
            vec![0, n - 1],
            vec![3, 17, 18, 60, 99],
            (0..n).step_by(11).collect(),
            (0..n).collect(),
        ];
        on_every_lane_and_pool(|what| {
            for rows in &row_sets {
                let what = format!("{} row(s) from {:?}, {what}", rows.len(), rows.first());
                let targets: Vec<usize> = rows.iter().map(|&r| (r * 37) % 300).collect();
                let mut padded = vec![IGNORE_INDEX; n];
                for (&r, &t) in rows.iter().zip(&targets) {
                    padded[r] = t;
                }

                let mut all = head.clone();
                let full_logits = all.forward(&states);
                let (loss, dlogits) = softmax_cross_entropy(&full_logits, &padded, None);
                let dstates = all.backward(&dlogits);

                let mut part = head.clone();
                let logits = part.forward_rows(&states, rows);
                let (part_loss, d) = softmax_cross_entropy(&logits, &targets, None);
                let part_dstates = part.backward(&d);

                assert_eq!(loss.to_bits(), part_loss.to_bits(), "loss, {what}");
                for (k, &r) in rows.iter().enumerate() {
                    assert_eq!(bits(logits.row(k)), bits(full_logits.row(r)), "{what}");
                }
                let inferred = head.infer_rows(&states, rows);
                assert_eq!(bits(inferred.data()), bits(logits.data()), "infer, {what}");
                assert_eq!(part_dstates.shape(), &[n, 64]);
                // Equal as values: a row the loss skips is +0 here and may
                // be -0 on the all-rows path.
                assert_eq!(part_dstates.data(), dstates.data(), "dstates, {what}");
                assert_eq!(grad_bits(&mut part), grad_bits(&mut all), "grads, {what}");
                if rows.is_empty() {
                    assert_eq!(part_loss, 0.0);
                    assert!(part_dstates.data().iter().all(|&v| v == 0.0));
                    assert!(grad_bits(&mut part).iter().all(|&b| b == 0));
                }
            }
        });
    }
}
