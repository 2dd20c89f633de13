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

/// An MLM step computes the loss rows alone: the encoder's last layer
/// (`SequenceEncoder::encode_train` with `Rows::Only`) and the head run on
/// them. Every driver that does so must train bit-identically to the
/// all-rows forward and head it replaced: `encode(input, true)`, `forward`,
/// the loss over `IGNORE`-padded targets, `backward`.
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
    use ntr::nn::{AttnMask, Encoder, Layer, Rows};
    use ntr::table::masking::{mask_entities, mask_mlm, MlmConfig};
    use ntr::table::{Linearizer, LinearizerOptions, RowMajorLinearizer, TurlLinearizer};
    use ntr::tasks::imputation;
    use ntr::tasks::pretrain::MlmModel;
    use ntr::tasks::supervisor::{run_supervised, SupervisorConfig};
    use ntr::tasks::trainer::{BatchItem, Trainer, TrainerOptions};
    use ntr::tasks::{TrainConfig, TrainRun};
    use ntr::tensor::{par, simd, Tensor};
    use ntr::tokenizer::WordPieceTokenizer;

    pub(super) const MAX_TOKENS: usize = 64;

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

    pub(super) fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// CRC-32 of the state dict: every parameter's bytes, in name order.
    pub(super) fn state_crc(model: &mut dyn Layer) -> u32 {
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

    fn rng_states(layer: &mut dyn Layer) -> Vec<[u64; 4]> {
        let mut out = Vec::new();
        layer.visit_rng_state(&mut |_, s| out.push(*s));
        out
    }

    /// The all-rows head step: logits for every row, a loss over
    /// `IGNORE`-padded targets, a backward through every row.
    fn all_rows(head: &mut MlmHead, states: &Tensor, targets: &[usize]) -> (f32, Tensor) {
        let logits = head.forward(states);
        let (loss, dlogits) = softmax_cross_entropy(&logits, targets, None);
        (loss, head.backward(&dlogits))
    }

    /// How a reference loop runs its per-example bodies, each returning
    /// `(loss, second loss)`; a step records the per-example mean of each.
    #[derive(Clone, Copy)]
    pub(super) enum Driver {
        /// Through `run_supervised`: replicas, derived streams, the fold.
        Supervised,
        /// A plain serial loop on the master: each example's backward
        /// accumulates into the master's own gradients, one after another.
        Serial,
    }

    impl Driver {
        pub(super) fn run<M: Layer + Clone + Send>(
            self,
            model: &mut M,
            cfg: &TrainConfig,
            n: usize,
            body: impl Fn(&mut M, &BatchItem) -> (f32, f32) + Sync,
        ) -> Vec<(f32, f32)> {
            let mean = |ls: &[(f32, f32)]| {
                let (mut a, mut b) = (0.0f32, 0.0f32);
                for l in ls {
                    a += l.0;
                    b += l.1;
                }
                (a / ls.len() as f32, b / ls.len() as f32)
            };
            match self {
                Driver::Supervised => {
                    let (topts, scfg) = (TrainerOptions::default(), SupervisorConfig::default());
                    let loss_of = |r: &(f32, f32)| r.0 + r.1;
                    run_supervised(model, cfg, n, &topts, &scfg, loss_of, body, |ls, _, _| {
                        mean(&ls)
                    })
                    .expect("no faults")
                }
                Driver::Serial => {
                    let mut trainer = Trainer::new(cfg, n);
                    let mut out = Vec::new();
                    while let Some(batch) = trainer.next_batch() {
                        let ls: Vec<_> = batch.iter().map(|item| body(model, item)).collect();
                        trainer.step(model).expect("no checkpoint configured");
                        out.push(mean(&ls));
                    }
                    out
                }
            }
        }
    }

    /// `TrainRun::mlm`'s loop with the all-rows head.
    pub(super) fn reference_mlm<M: MlmModel + Clone>(
        driver: Driver,
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
        let steps = driver.run(model, cfg, encoded.len(), |model, item| {
            let e = &encoded[item.index];
            let seed = cfg.seed ^ ((item.epoch * 31 + item.pos) as u64);
            let masked = mask_mlm(e, &mlm_cfg, seed);
            let states = model.encode(&EncoderInput::from_masked(e, &masked), true);
            let (loss, dstates) = all_rows(model.mlm_head(), &states, &masked.targets);
            model.backward(&dstates);
            (loss, 0.0)
        });
        steps.into_iter().map(|s| s.0).collect()
    }

    /// `TrainRun::turl`'s loop with the all-rows MLM head: (MLM, MER) loss.
    pub(super) fn reference_turl(
        driver: Driver,
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
        driver.run(model, cfg, encoded.len(), |model, item| {
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
                let mer_targets: Vec<usize> = entities.iter().map(|m| m.entity as usize).collect();
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
            (mlm_loss, mer_loss)
        })
    }

    /// `imputation::finetune_supervised`'s loop with the all-rows head.
    pub(super) fn reference_imputation<M: MlmModel + Clone>(
        driver: Driver,
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
        let steps = driver.run(model, cfg, prepared.len(), |model, item| {
            let (input, positions, slots) = &prepared[item.index];
            let states = model.encode(input, true);
            let mut targets = vec![IGNORE_INDEX; input.len()];
            for (&p, &t) in positions.iter().zip(slots) {
                targets[p] = t;
            }
            let (loss, dstates) = all_rows(model.mlm_head(), &states, &targets);
            model.backward(&dstates);
            (loss, 0.0)
        });
        steps.into_iter().map(|s| s.0).collect()
    }

    fn assert_mlm_matches<M: MlmModel + Clone>(
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
        let expected = reference_mlm(Driver::Supervised, &mut reference, &cfg, corpus, tok);
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
        // Dropout 0.1 as well: the rows path must draw the all-rows masks.
        for dropout in [0.0, 0.1] {
            let cfg = ModelConfig {
                n_entities: world.n_entities(),
                dropout,
                ..ModelConfig::tiny(tok.vocab_size())
            };
            on_every_lane_and_pool(|what| {
                let what = format!("dropout {dropout}, {what}");
                assert_mlm_matches("bert", &what, || VanillaBert::new(&cfg), &corpus, &tok);
                assert_mlm_matches("tapas", &what, || Tapas::new(&cfg), &corpus, &tok);
                assert_mlm_matches("turl", &what, || Turl::new(&cfg), &corpus, &tok);
                assert_mlm_matches("mate", &what, || Mate::new(&cfg), &corpus, &tok);
            });
        }
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
        for dropout in [0.0, 0.1] {
            let cfg = ModelConfig {
                n_entities: world.n_entities(),
                dropout,
                ..ModelConfig::tiny(tok.vocab_size())
            };
            on_every_lane_and_pool(|what| {
                let what = format!("dropout {dropout}, {what}");
                let mut rows_path = Turl::new(&cfg);
                let report = TrainRun::new(turl_cfg)
                    .max_tokens(MAX_TOKENS)
                    .turl(&mut rows_path, &corpus, &tok)
                    .expect("no faults configured");
                let mut reference = Turl::new(&cfg);
                let (mlm, mer): (Vec<f32>, Vec<f32>) =
                    reference_turl(Driver::Supervised, &mut reference, &turl_cfg, &corpus, &tok)
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
                let expected =
                    reference_imputation(Driver::Supervised, &mut reference, &ds, &tok, &ft_cfg);
                assert_eq!(losses.len(), 1, "one step");
                assert_eq!(bits(&losses), bits(&expected), "imputation loss, {what}");
                assert_eq!(
                    state_crc(&mut rows_path),
                    state_crc(&mut reference),
                    "imputation weights, {what}"
                );
            });
        }
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
                let logits = part.forward(&states.gather_rows(rows));
                let (part_loss, d) = softmax_cross_entropy(&logits, &targets, None);
                let part_dstates = part.backward(&d);
                assert_eq!(part_dstates.shape(), &[rows.len(), 64]);
                let part_dstates = part_dstates.scatter_rows(rows, n);

                assert_eq!(loss.to_bits(), part_loss.to_bits(), "loss, {what}");
                for (k, &r) in rows.iter().enumerate() {
                    assert_eq!(bits(logits.row(k)), bits(full_logits.row(r)), "{what}");
                }
                let inferred = head.infer(&states.gather_rows(rows));
                assert_eq!(bits(inferred.data()), bits(logits.data()), "infer, {what}");
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

    /// The encoder's training forward on a row selection is the all-rows
    /// forward cut to those rows: the rows' output bits, every parameter
    /// gradient and both dropout streams of each layer are those of the
    /// all-rows pass whose other rows get a zero gradient, and the input
    /// gradient is equal as values (a row no loss reads may be `±0`).
    #[test]
    fn encoder_rows_path_matches_the_all_rows_forward_at_the_edges() {
        let (world, corpus, tok) = small_world();
        let cfg = ModelConfig {
            n_entities: world.n_entities(),
            ..ModelConfig::tiny(tok.vocab_size())
        };
        let t = &corpus.tables[0];
        let opts = LinearizerOptions {
            max_tokens: MAX_TOKENS,
            ..Default::default()
        };
        let input = EncoderInput::from_encoded(&TurlLinearizer.linearize(t, "", &tok, &opts));
        let n = input.len();
        let masks = [
            None,
            Some(AttnMask::causal(n)),
            Some(Turl::visibility_mask(&input)),
            Some(Mate::new(&cfg).head_masks(&input)),
        ];
        let row_sets: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            vec![n - 1],
            vec![0, n - 1],
            vec![2, 5, 6, n / 2, n - 3],
            (0..n).collect(),
        ];
        let x = SeededInit::new(3).uniform(&[n, cfg.d_model], -1.0, 1.0);
        let dy = SeededInit::new(4).uniform(&[n, cfg.d_model], -1.0, 1.0);
        for dropout in [0.0, 0.1] {
            let (d, heads, d_ff) = (cfg.d_model, cfg.n_heads, cfg.d_ff);
            let enc = Encoder::new(2, d, heads, d_ff, dropout, &mut SeededInit::new(5));
            on_every_lane_and_pool(|what| {
                for (m, mask) in masks.iter().enumerate() {
                    for rows in &row_sets {
                        let what = format!(
                            "{} row(s) from {:?}, mask {m}, dropout {dropout}, {what}",
                            rows.len(),
                            rows.first()
                        );
                        let mut all = enc.clone();
                        let y = all.forward_train(&x, mask.as_ref(), Rows::All);
                        let dx = all.backward(&dy.gather_rows(rows).scatter_rows(rows, n));

                        let mut part = enc.clone();
                        let y_part = part.forward_train(&x, mask.as_ref(), Rows::Only(rows));
                        let dx_part = part.backward(&dy.gather_rows(rows));

                        let y_rows = y.gather_rows(rows);
                        assert_eq!(bits(y_part.data()), bits(y_rows.data()), "out, {what}");
                        assert_eq!(dx_part.data(), dx.data(), "dx, {what}");
                        assert_eq!(grad_bits(&mut part), grad_bits(&mut all), "grads, {what}");
                        assert_eq!(rng_states(&mut part), rng_states(&mut all), "rng, {what}");
                    }
                }
            });
        }
    }
}

/// Every `run_supervised` caller trains a batch's examples on per-worker
/// replicas, each example on dropout streams derived from the master's and
/// its index in the batch, and folds the gradients in example order. So a
/// run is bit-identical at every pool size, and — with dropout off — it is
/// the plain serial loop on the master up to the summation order of the
/// fold.
mod data_parallel {
    use super::mlm_rows_path::{
        bits, reference_imputation, reference_mlm, reference_turl, state_crc, Driver, MAX_TOKENS,
    };
    use super::{quick, small_world};
    use ntr::corpus::datasets::{CtaDataset, ImputationDataset};
    use ntr::corpus::tables::{CorpusConfig, TableCorpus};
    use ntr::corpus::{Split, World};
    use ntr::models::{
        pool_mean, pool_mean_backward, EncoderInput, Mate, ModelConfig, RowStudent, Rows,
        SequenceEncoder, Tapas, Tapex, Turl, VanillaBert,
    };
    use ntr::nn::grads_of;
    use ntr::nn::loss::softmax_cross_entropy;
    use ntr::sql::gen::{GenConfig, QueryGenerator};
    use ntr::table::masking::{mask_mlm, MlmConfig};
    use ntr::table::{Linearizer, LinearizerOptions, RowMajorLinearizer, TokenKind};
    use ntr::tasks::cta::{self, ColumnAnnotator};
    use ntr::tasks::distill::distill_spans;
    use ntr::tasks::imputation;
    use ntr::tasks::pretrain::{tapex_example, MlmModel};
    use ntr::tasks::supervisor::{run_supervised, SupervisorConfig};
    use ntr::tasks::trainer::TrainerOptions;
    use ntr::tasks::{TrainConfig, TrainRun};
    use ntr::tensor::{par, Tensor};
    use ntr::tokenizer::WordPieceTokenizer;

    /// Six examples per objective at batch 3: two optimizer steps.
    const EXAMPLES: usize = 6;

    fn train_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 1,
            batch_size: 3,
            ..quick(1, 3e-3)
        }
    }

    fn opts() -> LinearizerOptions {
        LinearizerOptions {
            max_tokens: MAX_TOKENS,
            ..Default::default()
        }
    }

    struct Fixture {
        world: World,
        corpus: TableCorpus,
        tok: WordPieceTokenizer,
        imputation: ImputationDataset,
        cta: CtaDataset,
    }

    /// Splits that train on the first [`EXAMPLES`] of `n` examples `usable`
    /// accepts and test on the rest.
    fn first_six_train(n: usize, usable: impl Fn(usize) -> bool) -> Vec<Split> {
        let mut taken = 0;
        let splits = (0..n)
            .map(|i| {
                if taken < EXAMPLES && usable(i) {
                    taken += 1;
                    Split::Train
                } else {
                    Split::Test
                }
            })
            .collect();
        assert_eq!(taken, EXAMPLES, "the fixture holds six usable examples");
        splits
    }

    fn fixture() -> Fixture {
        let (world, _, _) = small_world();
        let corpus = TableCorpus::generate_entity_only(
            &world,
            &CorpusConfig {
                n_tables: EXAMPLES,
                min_rows: 3,
                max_rows: 4,
                null_prob: 0.0,
                headerless_prob: 0.0,
                seed: 0xD9A,
            },
        );
        let tok = ntr::corpus::vocab::train_tokenizer(&corpus, &[], 900);
        let mut imputation = ImputationDataset::build(&corpus, 2, 0xD9B);
        imputation.splits = first_six_train(imputation.examples.len(), |i| {
            imputation::masked_input(&imputation.examples[i], &tok, MAX_TOKENS).is_some()
        });
        let mut cta = CtaDataset::build(&corpus, 0xD9C);
        cta.splits = first_six_train(cta.examples.len(), |i| {
            !cta_positions(&cta, i, &tok).1.is_empty()
        });
        Fixture {
            world,
            corpus,
            tok,
            imputation,
            cta,
        }
    }

    /// CTA example `i`'s input and the positions of its column's cells.
    fn cta_positions(
        ds: &CtaDataset,
        i: usize,
        tok: &WordPieceTokenizer,
    ) -> (EncoderInput, Vec<usize>) {
        let ex = &ds.examples[i];
        let encoded = RowMajorLinearizer.linearize(&ex.table, "", tok, &opts());
        let positions = (0..encoded.len())
            .filter(|&p| {
                let m = &encoded.meta()[p];
                m.col == ex.col + 1 && m.kind == TokenKind::Cell
            })
            .collect();
        (EncoderInput::from_encoded(&encoded), positions)
    }

    /// The first three tables, two generated queries each: TAPEX's six.
    fn tapex_corpus(fx: &Fixture) -> TableCorpus {
        TableCorpus {
            tables: fx.corpus.tables[..EXAMPLES / 2].to_vec(),
            kinds: Vec::new(),
        }
    }

    /// One run's loss trace and final state-dict CRC-32.
    type Run = (&'static str, Vec<f32>, u32);

    fn mlm_run<M: MlmModel + Clone>(name: &'static str, mut model: M, fx: &Fixture) -> Run {
        let report = TrainRun::new(train_cfg())
            .max_tokens(MAX_TOKENS)
            .mlm(&mut model, &fx.corpus, &fx.tok)
            .expect("no faults configured");
        (name, report.mlm_loss, state_crc(&mut model))
    }

    /// Every `run_supervised` caller once, two steps at batch 3 each.
    fn every_caller(fx: &Fixture, mcfg: &ModelConfig) -> Vec<Run> {
        let (cfg, tok) = (train_cfg(), &fx.tok);
        let run = TrainRun::new(cfg).max_tokens(MAX_TOKENS);
        let mut out = vec![
            mlm_run("mlm/bert", VanillaBert::new(mcfg), fx),
            mlm_run("mlm/tapas", Tapas::new(mcfg), fx),
            mlm_run("mlm/turl", Turl::new(mcfg), fx),
            mlm_run("mlm/mate", Mate::new(mcfg), fx),
        ];

        let mut turl = Turl::new(mcfg);
        let r = run.turl(&mut turl, &fx.corpus, tok).expect("no faults");
        let losses = r.mlm_loss.iter().zip(&r.mer_loss).map(|(a, b)| a + b);
        out.push(("turl", losses.collect(), state_crc(&mut turl)));

        let mut tapex = Tapex::new(mcfg);
        let losses = run
            .tapex(&mut tapex, &tapex_corpus(fx), tok)
            .expect("no faults");
        out.push(("tapex", losses, state_crc(&mut tapex)));

        let mut bert = VanillaBert::new(mcfg);
        let (topts, scfg) = (TrainerOptions::default(), SupervisorConfig::default());
        let losses = imputation::finetune_supervised(
            &mut bert,
            &fx.imputation,
            tok,
            &cfg,
            MAX_TOKENS,
            &topts,
            &scfg,
        )
        .expect("no faults");
        out.push(("imputation", losses, state_crc(&mut bert)));

        let mut student = RowStudent::new(&ModelConfig { seed: 99, ..*mcfg });
        let r = run
            .distill(&mut student, &mut Tapas::new(mcfg), 0.0, &fx.corpus, tok)
            .expect("no faults");
        out.push(("distill", r.loss, state_crc(&mut student)));

        let mut annotator = ColumnAnnotator::new(VanillaBert::new(mcfg), fx.cta.labels.len(), 5);
        let losses = cta::finetune(&mut annotator, &fx.cta, tok, &cfg, &opts());
        out.push(("fit/cta", losses, state_crc(&mut annotator)));
        for (name, losses, _) in &out {
            assert_eq!(losses.len(), 2, "{name}: two steps");
        }
        out
    }

    /// The same objectives, each body a test-local copy, in the serial
    /// loop on the master.
    fn every_caller_serially(fx: &Fixture, mcfg: &ModelConfig) -> Vec<Vec<f32>> {
        let (cfg, tok, serial) = (train_cfg(), &fx.tok, Driver::Serial);
        let corpus = &fx.corpus;
        let mut out = vec![
            reference_mlm(serial, &mut VanillaBert::new(mcfg), &cfg, corpus, tok),
            reference_mlm(serial, &mut Tapas::new(mcfg), &cfg, corpus, tok),
            reference_mlm(serial, &mut Turl::new(mcfg), &cfg, corpus, tok),
            reference_mlm(serial, &mut Mate::new(mcfg), &cfg, corpus, tok),
        ];
        let turl = reference_turl(serial, &mut Turl::new(mcfg), &cfg, corpus, tok);
        out.push(turl.iter().map(|(a, b)| a + b).collect());

        let mut pairs = Vec::new();
        for (ti, table) in tapex_corpus(fx).tables.iter().enumerate() {
            let mut gen = QueryGenerator::new(cfg.seed ^ (ti as u64), GenConfig::default());
            for (sql, answer) in gen.generate_n(table, 2) {
                pairs.push(tapex_example(table, &sql, &answer, tok, MAX_TOKENS));
            }
        }
        let tapex = serial.run(&mut Tapex::new(mcfg), &cfg, pairs.len(), |m, item| {
            let (input, target) = &pairs[item.index];
            (m.train_step(input, target), 0.0)
        });
        out.push(tapex.iter().map(|s| s.0).collect());

        let ds = &fx.imputation;
        out.push(reference_imputation(
            serial,
            &mut VanillaBert::new(mcfg),
            ds,
            tok,
            &cfg,
        ));

        // Distillation at cos_weight 0: the mean over spans of the MSE.
        let teacher = Tapas::new(mcfg);
        let examples: Vec<_> = corpus
            .tables
            .iter()
            .map(|t| {
                let encoded = RowMajorLinearizer.linearize(t, &t.caption, tok, &opts());
                let input = EncoderInput::from_encoded(&encoded);
                let states = teacher.infer(&input, Rows::All);
                let spans = distill_spans(&encoded);
                let targets: Vec<Tensor> = spans.iter().map(|s| pool_mean(&states, s)).collect();
                (input, spans, targets)
            })
            .collect();
        let mut student = RowStudent::new(&ModelConfig { seed: 99, ..*mcfg });
        let distill = serial.run(&mut student, &cfg, examples.len(), |m, item| {
            let (input, spans, targets) = &examples[item.index];
            let states = m.encode(input, true);
            let d = states.dim(1);
            let mut dstates = Tensor::zeros(states.shape());
            let mut loss = 0.0;
            for (span, t) in spans.iter().zip(targets) {
                let u = pool_mean(&states, span);
                let mut du = Tensor::zeros(&[1, d]);
                for j in 0..d {
                    let diff = u.data()[j] - t.data()[j];
                    loss += diff * diff / d as f32;
                    du.data_mut()[j] = 2.0 * diff / d as f32;
                }
                dstates.add_assign(&pool_mean_backward(&du, span, states.dim(0)));
            }
            m.backward(&dstates);
            (loss, spans.len() as f32)
        });
        out.push(distill.iter().map(|(loss, spans)| loss / spans).collect());

        let cta_ds = &fx.cta;
        let prepared: Vec<_> = cta_ds
            .indices(Split::Train)
            .into_iter()
            .map(|i| (cta_positions(cta_ds, i, tok), cta_ds.examples[i].label))
            .collect();
        let mut annotator = ColumnAnnotator::new(VanillaBert::new(mcfg), cta_ds.labels.len(), 5);
        let cta = serial.run(&mut annotator, &cfg, prepared.len(), |m, item| {
            let ((input, positions), label) = &prepared[item.index];
            let states = m.encoder.encode(input, true);
            let (n, d) = (states.dim(0), states.dim(1));
            let scale = 1.0 / positions.len() as f32;
            let mut pooled = Tensor::zeros(&[1, d]);
            for &p in positions {
                for j in 0..d {
                    pooled.data_mut()[j] += states.at(&[p, j]);
                }
            }
            let logits = m.head.forward(&pooled.scale(scale));
            let (loss, dlogits) = softmax_cross_entropy(&logits, &[*label], None);
            let d_pooled = m.head.backward(&dlogits);
            let mut dstates = Tensor::zeros(&[n, d]);
            for &p in positions {
                for j in 0..d {
                    dstates.data_mut()[p * d + j] = d_pooled.data()[j] * scale;
                }
            }
            m.encoder.backward(&dstates);
            (loss, 0.0)
        });
        out.push(cta.iter().map(|s| s.0).collect());
        out
    }

    fn tiny(fx: &Fixture, dropout: f32) -> ModelConfig {
        ModelConfig {
            n_entities: fx.world.n_entities(),
            dropout,
            ..ModelConfig::tiny(fx.tok.vocab_size())
        }
    }

    #[test]
    fn every_caller_is_bit_identical_at_every_pool_size() {
        let fx = fixture();
        // `ModelConfig::tiny` trains without dropout; 0.1 makes the derived
        // per-example streams load-bearing.
        for dropout in [ModelConfig::tiny(8).dropout, 0.1] {
            let mcfg = tiny(&fx, dropout);
            let one = par::with_threads(1, || every_caller(&fx, &mcfg));
            for threads in [2, 4] {
                let many = par::with_threads(threads, || every_caller(&fx, &mcfg));
                for ((name, a, crc_a), (_, b, crc_b)) in one.iter().zip(&many) {
                    let what = format!("{name}, dropout {dropout}, 1 vs {threads} threads");
                    assert_eq!(bits(a), bits(b), "loss, {what}");
                    assert_eq!(crc_a, crc_b, "weights, {what}");
                }
            }
        }
    }

    #[test]
    fn dropout_free_runs_match_a_serial_loop_on_the_master() {
        let fx = fixture();
        let mcfg = tiny(&fx, 0.0);
        let parallel = par::with_threads(2, || every_caller(&fx, &mcfg));
        let serial = every_caller_serially(&fx, &mcfg);
        let mut report = Vec::new();
        for ((name, got, _), want) in parallel.iter().zip(&serial) {
            assert_eq!(got.len(), want.len(), "{name}: step count");
            let mut worst = 0.0f32;
            for (g, w) in got.iter().zip(want) {
                worst = worst.max((g - w).abs() / w.abs().max(f32::MIN_POSITIVE));
            }
            assert!(worst <= 1e-5, "{name}: {got:?} vs serial {want:?}");
            report.push(format!("{name} {worst:.1e}"));
        }
        eprintln!("largest relative loss deviation from the serial loop: {report:?}");
    }

    #[test]
    fn identical_examples_draw_distinct_dropout_masks() {
        let fx = fixture();
        let model = VanillaBert::new(&tiny(&fx, 0.1));
        let e = RowMajorLinearizer.linearize(&fx.corpus.tables[0], "", &fx.tok, &opts());
        let masked = mask_mlm(&e, &MlmConfig::bert(fx.tok.vocab_size()), 1);
        let input = EncoderInput::from_masked(&e, &masked);
        let (rows, targets) = masked.positions();
        let cfg = TrainConfig {
            batch_size: 2,
            ..train_cfg()
        };
        // Both examples of the one step are the same bytes; only their
        // dropout streams tell them apart.
        let per_example_grads = |threads| {
            par::with_threads(threads, || {
                let (topts, scfg) = (TrainerOptions::default(), SupervisorConfig::default());
                run_supervised(
                    &mut model.clone(),
                    &cfg,
                    2,
                    &topts,
                    &scfg,
                    |_: &Vec<Vec<u32>>| 0.0,
                    |m, _| {
                        let states = m.encode_train(&input, Rows::Only(&rows));
                        let logits = m.mlm_head().forward(&states);
                        let (_, dlogits) = softmax_cross_entropy(&logits, &targets, None);
                        let dstates = m.mlm_head().backward(&dlogits);
                        m.backward(&dstates);
                        grads_of(m)
                            .iter()
                            .flat_map(|g| bits(g.data()))
                            .collect::<Vec<_>>()
                    },
                    |grads, _, _| grads,
                )
                .expect("no faults")
                .remove(0)
            })
        };
        let one = per_example_grads(1);
        assert_eq!(one.len(), 2);
        assert_ne!(one[0], one[1], "two examples ran on one dropout stream");
        for threads in [2, 4] {
            assert_eq!(per_example_grads(threads), one, "{threads} threads");
        }
    }
}
