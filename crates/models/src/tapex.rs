//! TAPEX-style encoder–decoder: "table pre-training via learning a neural
//! SQL executor" (Liu et al., the survey's pretraining-objective exemplar).
//!
//! The encoder reads `SQL-query [SEP] linearized-table` (the
//! `TapexLinearizer` format); the decoder autoregressively emits the
//! query's answer string. Pretraining supervision comes from the *real*
//! SQL executor in `ntr-sql` — exactly the paper's recipe, at laptop scale.

use crate::config::ModelConfig;
use crate::embeddings::{EmbeddingFlags, TableEmbeddings};
use crate::input::EncoderInput;
use ntr_nn::init::SeededInit;
use ntr_nn::loss::softmax_cross_entropy;
use ntr_nn::{visit_child, Cx, Decoder, Dropout, Encoder, Layer, Linear, Name, Param, Rows};
use ntr_tensor::Tensor;
use ntr_tokenizer::SpecialToken;

/// Encoder–decoder table model.
pub struct Tapex {
    /// Encoder-side structural embeddings.
    pub embeddings: TableEmbeddings,
    /// Encoder stack.
    pub encoder: Encoder,
    /// Decoder-side (text-only) embeddings.
    pub dec_embeddings: TableEmbeddings,
    /// Decoder stack (causal self-attention + cross-attention).
    pub decoder: Decoder,
    /// Vocabulary projection for generation.
    pub lm_head: Linear,
    cfg: ModelConfig,
}

impl Tapex {
    /// Builds the model from a config (decoder depth = encoder depth).
    pub fn new(cfg: &ModelConfig) -> Self {
        cfg.validate();
        let mut init = SeededInit::new(cfg.seed ^ 0x7A9E7);
        Self {
            embeddings: TableEmbeddings::new(cfg, EmbeddingFlags::structural(), &mut init),
            encoder: Encoder::new(
                cfg.n_layers,
                cfg.d_model,
                cfg.n_heads,
                cfg.d_ff,
                cfg.dropout,
                &mut init,
            ),
            dec_embeddings: TableEmbeddings::new(cfg, EmbeddingFlags::text_only(), &mut init),
            decoder: Decoder::new(
                cfg.n_layers,
                cfg.d_model,
                cfg.n_heads,
                cfg.d_ff,
                cfg.dropout,
                &mut init,
            ),
            lm_head: Linear::new(cfg.d_model, cfg.vocab_size, &mut init.fork()),
            cfg: *cfg,
        }
    }

    /// The model's config.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// One teacher-forced training step on `(input, target_ids)`.
    ///
    /// The decoder input is `[BOS] target[..-1]`; the loss is cross-entropy
    /// of each position against `target_ids`. Accumulates gradients into
    /// `cx` and returns the mean loss.
    ///
    /// # Panics
    /// Panics on an empty target.
    pub fn train_step(&self, input: &EncoderInput, target_ids: &[usize], cx: &mut Cx) -> f32 {
        assert!(!target_ids.is_empty(), "empty decoder target");
        let (x, emb) = self.embeddings.forward_train(input, cx);
        let (memory, enc) = self.encoder.forward_train(&x, None, Rows::All, cx);

        let mut dec_input = Vec::with_capacity(target_ids.len());
        dec_input.push(SpecialToken::Bos.id());
        dec_input.extend_from_slice(&target_ids[..target_ids.len() - 1]);
        let dec_inp = EncoderInput::from_text_ids(dec_input);

        let (y, dec_emb) = self.dec_embeddings.forward_train(&dec_inp, cx);
        let (states, dec) = self.decoder.forward_train(&y, &memory, cx);
        let logits = self.lm_head.forward(&states);
        let (loss, dlogits) = softmax_cross_entropy(&logits, target_ids, None);

        let dstates = self.lm_head.backward(&states, &dlogits, cx);
        let (d_dec, d_memory) = self.decoder.backward(dec, &dstates, cx);
        self.dec_embeddings.backward(dec_emb, &d_dec, cx);
        let d_enc = self.encoder.backward(enc, &d_memory, cx);
        self.embeddings.backward(emb, &d_enc, cx);
        loss
    }

    /// The encoder's states of `input`, which the decoder attends to.
    fn memory(&self, input: &EncoderInput) -> Tensor {
        self.encoder
            .infer(&self.embeddings.infer(input), None, Rows::All)
    }

    /// The logits of the token after `[BOS] tokens`, `[1, vocab]`.
    fn next_logits(&self, memory: &Tensor, tokens: &[usize]) -> Tensor {
        let mut dec_input = Vec::with_capacity(tokens.len() + 1);
        dec_input.push(SpecialToken::Bos.id());
        dec_input.extend_from_slice(tokens);
        let dec_inp = EncoderInput::from_text_ids(dec_input);
        let states = self
            .decoder
            .forward(&self.dec_embeddings.infer(&dec_inp), memory);
        let logits = self.lm_head.forward(&states);
        logits.rows(logits.dim(0) - 1, logits.dim(0))
    }

    /// Beam-search generation with `beam_width` hypotheses; returns the
    /// highest-scoring finished sequence (without the final `[SEP]`).
    /// Scores are mean token log-probabilities, which avoids the
    /// short-sequence bias of summed log-probs.
    pub fn generate_beam(
        &self,
        input: &EncoderInput,
        max_len: usize,
        beam_width: usize,
    ) -> Vec<usize> {
        assert!(beam_width >= 1, "beam width must be at least 1");
        let memory = self.memory(input);
        // (tokens, total log-prob, finished)
        let mut beams: Vec<(Vec<usize>, f32, bool)> = vec![(Vec::new(), 0.0, false)];
        for _ in 0..max_len {
            if beams.iter().all(|(_, _, done)| *done) {
                break;
            }
            let mut next: Vec<(Vec<usize>, f32, bool)> = Vec::new();
            for (tokens, score, done) in &beams {
                if *done {
                    next.push((tokens.clone(), *score, true));
                    continue;
                }
                let log_probs = self.next_logits(&memory, tokens).log_softmax_rows();
                // Top beam_width continuations of this beam.
                let mut scored: Vec<(usize, f32)> = (0..log_probs.dim(1))
                    .map(|t| (t, log_probs.at(&[0, t])))
                    .collect();
                scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite log-probs"));
                for &(t, lp) in scored.iter().take(beam_width) {
                    if t == SpecialToken::Sep.id() {
                        next.push((tokens.clone(), score + lp, true));
                    } else {
                        let mut ext = tokens.clone();
                        ext.push(t);
                        next.push((ext, score + lp, false));
                    }
                }
            }
            // Keep the best beam_width by mean log-prob.
            next.sort_by(|a, b| {
                let la = a.1 / (a.0.len() + 1) as f32;
                let lb = b.1 / (b.0.len() + 1) as f32;
                lb.partial_cmp(&la).expect("finite scores")
            });
            next.truncate(beam_width);
            beams = next;
        }
        beams
            .into_iter()
            .max_by(|a, b| {
                let la = a.1 / (a.0.len() + 1) as f32;
                let lb = b.1 / (b.0.len() + 1) as f32;
                la.partial_cmp(&lb).expect("finite scores")
            })
            .map(|(tokens, _, _)| tokens)
            .unwrap_or_default()
    }

    /// Greedy generation: encodes `input`, then emits tokens until `[SEP]`
    /// or `max_len`. Returns the generated ids (without the final `[SEP]`).
    pub fn generate(&self, input: &EncoderInput, max_len: usize) -> Vec<usize> {
        let memory = self.memory(input);
        let mut out: Vec<usize> = Vec::new();
        for _ in 0..max_len {
            let next = self.next_logits(&memory, &out).argmax_rows()[0];
            if next == SpecialToken::Sep.id() {
                break;
            }
            out.push(next);
        }
        out
    }
}

impl Layer for Tapex {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        self.embeddings
            .visit_params(&mut visit_child("embeddings", f));
        self.encoder.visit_params(&mut visit_child("encoder", f));
        self.dec_embeddings
            .visit_params(&mut visit_child("dec_embeddings", f));
        self.decoder.visit_params(&mut visit_child("decoder", f));
        self.lm_head.visit_params(&mut visit_child("lm_head", f));
    }

    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&Name, &mut Dropout)) {
        self.embeddings
            .visit_rng_state(&mut visit_child("embeddings", f));
        self.encoder.visit_rng_state(&mut visit_child("encoder", f));
        self.dec_embeddings
            .visit_rng_state(&mut visit_child("dec_embeddings", f));
        self.decoder.visit_rng_state(&mut visit_child("decoder", f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{input_sample, tokenizer};
    use ntr_nn::optim::Adam;

    fn cfg() -> ModelConfig {
        ModelConfig {
            dropout: 0.0,
            ..ModelConfig::tiny(300)
        }
    }

    #[test]
    fn generate_is_bounded_and_deterministic() {
        let m = Tapex::new(&cfg());
        let inp = input_sample();
        let a = m.generate(&inp, 8);
        let b = m.generate(&inp, 8);
        assert!(a.len() <= 8);
        assert_eq!(a, b);
    }

    #[test]
    fn overfits_one_pair() {
        // The classic seq2seq sanity check: memorize a single
        // (input → answer) pair.
        let mut m = Tapex::new(&cfg());
        let inp = input_sample();
        let tok = tokenizer();
        let mut target = tok.encode("paris");
        target.push(SpecialToken::Sep.id());

        let mut cx = Cx::new(&mut m);
        let mut adam = Adam::new(1e-2);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let loss = m.train_step(&inp, &target, &mut cx);
            first.get_or_insert(loss);
            last = loss;
            adam.step(&mut m, &cx.grads);
            cx.grads.zero();
        }
        assert!(last < first.unwrap() * 0.2, "{first:?} → {last}");
        let generated = m.generate(&inp, 10);
        assert_eq!(
            generated,
            &target[..target.len() - 1],
            "greedy decode should reproduce the memorized answer"
        );
    }

    #[test]
    fn beam_width_one_matches_greedy() {
        let m = Tapex::new(&cfg());
        let inp = input_sample();
        let greedy = m.generate(&inp, 8);
        let beam = m.generate_beam(&inp, 8, 1);
        assert_eq!(greedy, beam);
    }

    #[test]
    fn beam_search_finds_memorized_sequence() {
        let mut m = Tapex::new(&cfg());
        let inp = input_sample();
        let tok = tokenizer();
        let mut target = tok.encode("paris");
        target.push(SpecialToken::Sep.id());
        let mut cx = Cx::new(&mut m);
        let mut adam = Adam::new(1e-2);
        for _ in 0..60 {
            let _ = m.train_step(&inp, &target, &mut cx);
            adam.step(&mut m, &cx.grads);
            cx.grads.zero();
        }
        let beam = m.generate_beam(&inp, 10, 3);
        assert_eq!(beam, &target[..target.len() - 1]);
    }

    #[test]
    #[should_panic(expected = "empty decoder target")]
    fn rejects_empty_target() {
        let mut m = Tapex::new(&cfg());
        let mut cx = Cx::new(&mut m);
        let _ = m.train_step(&input_sample(), &[], &mut cx);
    }
}
