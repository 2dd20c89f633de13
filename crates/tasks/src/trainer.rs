//! The one training loop's state: configuration and the resumable
//! [`Trainer`], which owns the example stream and Adam with its LR schedule
//! (all private to this module — every driver iterates and steps through
//! [`run_supervised`](crate::supervisor::run_supervised)) and can
//! checkpoint / resume a run **bit-identically** — training 2N steps
//! straight and training N, crashing, and resuming for N more produce the
//! same parameters, optimizer moments, and loss trace.

use ntr_nn::optim::{Adam, WarmupLinearSchedule};
use ntr_nn::serialize::{
    load_checkpoint, save_checkpoint_stats, CheckpointError, SaveStats, TrainCheckpoint,
    TrainCursor,
};
use ntr_nn::Layer;
use ntr_obs::{Obs, ObsOptions};
use std::path::{Path, PathBuf};

/// Hyperparameters for a fine-tuning run.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Passes over the training split.
    pub epochs: usize,
    /// Peak learning rate.
    pub lr: f32,
    /// Examples per optimizer step (gradient accumulation).
    pub batch_size: usize,
    /// Warmup fraction of total steps.
    pub warmup_frac: f32,
    /// Shuffling/masking seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 3,
            lr: 3e-3,
            batch_size: 8,
            warmup_frac: 0.1,
            seed: 0xF17E,
        }
    }
}

/// Deterministically shuffles indices for one epoch.
fn epoch_order(n: usize, epoch: usize, seed: u64) -> Vec<usize> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (epoch as u64).wrapping_mul(0x9E37));
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut rng);
    idx
}

/// One example drawn from the training stream: which epoch it belongs to,
/// its position within that epoch's shuffled order (the per-example masking
/// seeds are functions of these two), and the dataset index to train on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchItem {
    /// Epoch this example belongs to.
    pub epoch: usize,
    /// Position within the epoch's shuffled order.
    pub pos: usize,
    /// Dataset index of the example.
    pub index: usize,
}

/// Checkpoint/resume knobs for a training run, shared by `TrainRun`,
/// imputation's `finetune_supervised` and the CLI.
#[derive(Debug, Clone, Default)]
pub struct TrainerOptions {
    /// Write a checkpoint to this path every `.1` optimizer steps.
    pub checkpoint: Option<(PathBuf, u64)>,
    /// Resume from this checkpoint instead of starting fresh.
    pub resume: Option<PathBuf>,
    /// Stop issuing batches once this many optimizer steps have completed
    /// (crash simulation in tests; partial-run support in the CLI).
    pub halt_after: Option<u64>,
    /// Observability sinks for the run (trace / metrics paths); the default
    /// is fully disabled.
    pub obs: ObsOptions,
}

impl TrainerOptions {
    /// Builds the trainer for a run over `n_examples` examples: fresh from
    /// `cfg`, or resumed from [`TrainerOptions::resume`] (which also loads
    /// weights, optimizer moments, and RNG streams into `model`).
    pub fn build(
        &self,
        model: &mut dyn Layer,
        cfg: &TrainConfig,
        n_examples: usize,
    ) -> Result<Trainer, CheckpointError> {
        let obs = Obs::open(&self.obs)?;
        let mut t = match &self.resume {
            Some(path) => {
                let t = Trainer::resume(model, cfg, n_examples, path)?;
                if let Some(e) = obs.event("ckpt_load") {
                    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                    e.u64("step", t.steps())
                        .u64("bytes", bytes)
                        .str("source", "resume")
                        .finish();
                }
                t
            }
            None => Trainer::new(cfg, n_examples),
        };
        if let Some((path, every)) = &self.checkpoint {
            t = t.with_checkpointing(path.clone(), *every);
        }
        if let Some(h) = self.halt_after {
            t = t.with_halt_after(h);
        }
        t.obs = obs;
        Ok(t)
    }
}

/// A training state held in memory for rollback: the weights in
/// [`Layer::visit_params`] order, a copy of the optimizer with its flat
/// moments, the LR schedule, the RNG streams and the stream cursor.
/// [`Trainer::capture_into`] refills it in place, [`Trainer::rollback`]
/// restores it.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    values: Vec<f32>,
    adam: Adam,
    schedule: WarmupLinearSchedule,
    rngs: Vec<[u64; 4]>,
    cursor: TrainCursor,
}

/// Owns a training run's example stream and optimizer.
///
/// The stream is the concatenation of each epoch's seeded shuffle, chunked
/// into batches of `batch_size` (clamped to at least 1) that **span epoch
/// boundaries**, with a final partial batch. Checkpoints are only taken at
/// optimizer-step boundaries; the saved cursor names the next unprocessed
/// example, so resumed runs retrace the original stream.
#[derive(Debug)]
pub struct Trainer {
    adam: Adam,
    schedule: WarmupLinearSchedule,
    /// Transient multiplier on the scheduled LR — the supervisor's retry
    /// backoff. Not checkpointed: a restored run starts back at 1.0.
    lr_scale: f32,
    n_examples: usize,
    epochs: usize,
    batch_size: usize,
    seed: u64,
    epoch: usize,
    pos: usize,
    order: Vec<usize>,
    checkpoint: Option<(PathBuf, u64)>,
    halt_after: Option<u64>,
    obs: Obs,
}

impl Trainer {
    /// A fresh run over `n_examples` examples under `cfg`.
    pub fn new(cfg: &TrainConfig, n_examples: usize) -> Self {
        let total = (n_examples * cfg.epochs).div_ceil(cfg.batch_size.max(1)) as u64;
        let warmup = ((total as f32) * cfg.warmup_frac) as u64;
        Self {
            adam: Adam::new(cfg.lr).with_weight_decay(0.01),
            schedule: WarmupLinearSchedule {
                peak_lr: cfg.lr,
                warmup: warmup.max(1),
                total: total.max(1),
            },
            lr_scale: 1.0,
            n_examples,
            epochs: cfg.epochs,
            batch_size: cfg.batch_size.max(1),
            seed: cfg.seed,
            epoch: 0,
            pos: 0,
            order: epoch_order(n_examples, 0, cfg.seed),
            checkpoint: None,
            halt_after: None,
            obs: Obs::disabled(),
        }
    }

    /// Resumes a run from `path`: restores `model`'s weights, moments, and
    /// dropout RNG streams, and places the cursor at the first unprocessed
    /// example. The checkpoint's schedule is authoritative; its seed must
    /// match `cfg.seed` (a mismatch would silently retrace a *different*
    /// example stream, so it is an error).
    pub fn resume(
        model: &mut dyn Layer,
        cfg: &TrainConfig,
        n_examples: usize,
        path: &Path,
    ) -> Result<Self, CheckpointError> {
        let ckpt = load_checkpoint(path)?;
        let Some((adam, schedule, cursor)) = ckpt.apply_train(model)? else {
            return Err(CheckpointError::Mismatch(
                "checkpoint holds no training state to resume from (weights-only or v1 file)"
                    .into(),
            ));
        };
        if cursor.seed != cfg.seed {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint seed {:#x} != configured seed {:#x}: resuming would retrace a different example stream",
                cursor.seed, cfg.seed
            )));
        }
        let mut t = Self::new(cfg, n_examples);
        (t.adam, t.schedule) = (adam, schedule);
        t.seek(cursor);
        Ok(t)
    }

    /// Enables checkpointing to `path` every `every` optimizer steps.
    pub fn with_checkpointing(mut self, path: PathBuf, every: u64) -> Self {
        self.checkpoint = Some((path, every.max(1)));
        self
    }

    /// Stops issuing batches once `steps` optimizer steps have completed.
    pub fn with_halt_after(mut self, steps: u64) -> Self {
        self.halt_after = Some(steps);
        self
    }

    /// The run's observability handle (a no-op sink unless
    /// [`TrainerOptions::obs`] configured one).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The on-disk checkpoint path, when checkpointing is enabled.
    pub fn checkpoint_path(&self) -> Option<&Path> {
        self.checkpoint.as_ref().map(|(p, _)| p.as_path())
    }

    /// Sets the transient multiplier on the scheduled LR — the supervisor's
    /// retry backoff (1.0 = scheduled LR unchanged).
    pub fn set_lr_scale(&mut self, scale: f32) {
        self.lr_scale = scale;
    }

    /// Captures what [`Trainer::save_state`] would write into `snap`, with
    /// no disk and no names: its buffers grow on the first capture and are
    /// refilled in place after that (the supervisor's per-step capture).
    pub fn capture_into(&self, model: &mut dyn Layer, snap: &mut Snapshot) {
        snap.values.clear();
        snap.rngs.clear();
        model.visit_params(&mut |_, p| snap.values.extend_from_slice(p.value.data()));
        model.visit_rng_state(&mut |_, s| snap.rngs.push(*s));
        snap.adam.clone_from(&self.adam);
        snap.schedule = self.schedule;
        snap.cursor = self.cursor();
    }

    /// Rolls back to `snap` (see [`Trainer::capture_into`]): weights,
    /// optimizer moments, schedule, RNG streams and the stream cursor, as
    /// [`Trainer::restore`] restores a checkpoint. The LR backoff
    /// multiplier resets to 1.0.
    ///
    /// # Panics
    /// Panics if `snap` was not captured from this model.
    pub fn rollback(&mut self, model: &mut dyn Layer, snap: &Snapshot) {
        let mut values = snap.values.as_slice();
        model.visit_params(&mut |_, p| {
            let (head, rest) = values.split_at(p.value.numel());
            p.value.data_mut().copy_from_slice(head);
            values = rest;
        });
        let mut rngs = snap.rngs.iter();
        model.visit_rng_state(&mut |_, s| *s = *rngs.next().expect("one state per stream"));
        self.adam.clone_from(&snap.adam);
        self.schedule = snap.schedule;
        self.seek(snap.cursor);
    }

    /// Restores model weights, optimizer moments, RNG streams, and the
    /// stream cursor from a checkpoint loaded from disk, leaving the
    /// trainer exactly where it was when the checkpoint was written. The
    /// LR backoff multiplier resets to 1.0. Fails on a weights-only
    /// checkpoint or a seed mismatch (either would silently retrace a
    /// different example stream).
    pub fn restore(
        &mut self,
        model: &mut dyn Layer,
        ckpt: &TrainCheckpoint,
    ) -> Result<(), CheckpointError> {
        let Some((adam, schedule, cursor)) = ckpt.apply_train(model)? else {
            return Err(CheckpointError::Mismatch(
                "checkpoint holds no training state to restore from (weights-only or v1 file)"
                    .into(),
            ));
        };
        if cursor.seed != self.seed {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint seed {:#x} != trainer seed {:#x}: restoring would retrace a different example stream",
                cursor.seed, self.seed
            )));
        }
        (self.adam, self.schedule) = (adam, schedule);
        self.seek(cursor);
        Ok(())
    }

    /// Puts the stream cursor back at a saved point and resets the LR
    /// backoff multiplier.
    fn seek(&mut self, cursor: TrainCursor) {
        self.lr_scale = 1.0;
        self.epoch = cursor.epoch as usize;
        self.pos = cursor.example as usize;
        self.order = if self.epoch < self.epochs {
            epoch_order(self.n_examples, self.epoch, self.seed)
        } else {
            Vec::new()
        };
    }

    /// Completed optimizer steps.
    pub fn steps(&self) -> u64 {
        self.adam.steps()
    }

    /// The next batch of examples, or `None` when the stream is exhausted
    /// (or a halt point was reached).
    pub fn next_batch(&mut self) -> Option<Vec<BatchItem>> {
        if let Some(h) = self.halt_after {
            if self.adam.steps() >= h {
                return None;
            }
        }
        let mut batch = Vec::with_capacity(self.batch_size);
        while batch.len() < self.batch_size && self.epoch < self.epochs {
            if self.pos >= self.order.len() {
                self.epoch += 1;
                self.pos = 0;
                if self.epoch < self.epochs {
                    self.order = epoch_order(self.n_examples, self.epoch, self.seed);
                }
                continue;
            }
            batch.push(BatchItem {
                epoch: self.epoch,
                pos: self.pos,
                index: self.order[self.pos],
            });
            self.pos += 1;
        }
        if batch.is_empty() {
            None
        } else {
            Some(batch)
        }
    }

    /// Applies one optimizer step at the scheduled LR to `model`'s
    /// accumulated gradients and zeroes them, then writes a checkpoint if
    /// one is due. Only fails if a due checkpoint cannot be written.
    pub fn step(&mut self, model: &mut dyn Layer) -> Result<(), CheckpointError> {
        let lr = self.schedule.lr_at(self.adam.steps());
        // Skip the multiply at scale 1.0 so the default path sets the
        // schedule's LR bit-for-bit.
        self.adam.set_lr(if self.lr_scale == 1.0 {
            lr
        } else {
            lr * self.lr_scale
        });
        self.adam.step(model);
        model.zero_grad();
        if let Some((path, every)) = &self.checkpoint {
            if self.adam.steps().is_multiple_of(*every) {
                let stats = self.save_state(model, path)?;
                if let Some(e) = self.obs.event("ckpt_save") {
                    e.u64("step", self.adam.steps())
                        .u64("bytes", stats.bytes)
                        .u64("fsync_ms", stats.fsync_ms)
                        .finish();
                }
                self.obs.inc("ckpt/saves");
                self.obs.add("ckpt/bytes", stats.bytes);
            }
        }
        Ok(())
    }

    /// The resume point a checkpoint taken now would carry.
    pub fn cursor(&self) -> TrainCursor {
        TrainCursor {
            epoch: self.epoch as u64,
            example: self.pos as u64,
            seed: self.seed,
        }
    }

    /// Writes a full training checkpoint (weights + moments + schedule +
    /// cursor + RNG streams) to `path`, crash-safely. Returns the written
    /// size and fsync cost for observability.
    pub fn save_state(
        &self,
        model: &mut dyn Layer,
        path: &Path,
    ) -> Result<SaveStats, CheckpointError> {
        let ckpt = TrainCheckpoint::capture_train(model, &self.adam, &self.schedule, self.cursor());
        save_checkpoint_stats(&ckpt, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr_nn::init::SeededInit;
    use ntr_nn::Linear;
    use ntr_tensor::Tensor;

    #[test]
    fn a_step_updates_and_zeroes() {
        let mut t = Trainer::new(&TrainConfig::default(), 10);
        let mut lin = Linear::new(2, 2, &mut SeededInit::new(1));
        let before = lin.w.value.clone();
        let _ = lin.forward(&Tensor::ones(&[1, 2]));
        let _ = lin.backward(&Tensor::ones(&[1, 2]));
        t.step(&mut lin).unwrap();
        assert_ne!(lin.w.value, before);
        assert!(lin.w.grad.data().iter().all(|&g| g == 0.0));
        assert_eq!(t.steps(), 1);
    }

    #[test]
    fn epoch_order_is_a_deterministic_permutation() {
        let a = epoch_order(10, 0, 1);
        let b = epoch_order(10, 0, 1);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_ne!(epoch_order(10, 1, 1), a, "epochs reshuffle");
    }

    /// Drains a trainer's stream into (epoch, pos, index) triples.
    fn drain(t: &mut Trainer) -> Vec<Vec<BatchItem>> {
        let mut out = Vec::new();
        while let Some(b) = t.next_batch() {
            out.push(b);
        }
        out
    }

    #[test]
    fn batches_span_epochs_and_flush_the_tail() {
        // 5 examples × 3 epochs = 15 items in batches of 4 → 3 full + 1 of 3.
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 4,
            seed: 7,
            ..TrainConfig::default()
        };
        let mut t = Trainer::new(&cfg, 5);
        let batches = drain(&mut t);
        assert_eq!(batches.len(), 4);
        assert_eq!(batches[3].len(), 3);
        // The flattened stream is the concatenation of per-epoch shuffles.
        let flat: Vec<usize> = batches.iter().flatten().map(|i| i.index).collect();
        let expected: Vec<usize> = (0..3).flat_map(|e| epoch_order(5, e, 7)).collect();
        assert_eq!(flat, expected);
        // Batch 1 crosses the epoch-0/epoch-1 boundary (5 = 4 + 1).
        assert_eq!(batches[1][0].epoch, 0);
        assert_eq!(batches[1][1].epoch, 1);
        assert_eq!(batches[1][1].pos, 0);
    }

    #[test]
    fn zero_batch_size_trains_one_step_per_example() {
        // `fit` (every downstream fine-tune) inherits the trainer's clamp to
        // 1 instead of dividing by `batch_size`.
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 0,
            ..TrainConfig::default()
        };
        let mut model = Linear::new(2, 2, &mut SeededInit::new(8));
        let losses = crate::supervisor::fit(&mut model, &cfg, &[1.0, 2.0, 3.0], |model, &x, _| {
            let _ = model.forward(&Tensor::ones(&[1, 2]));
            let _ = model.backward(&Tensor::ones(&[1, 2]));
            x
        });
        assert_eq!(losses.len(), 6, "3 examples x 2 epochs, one step each");
        assert!(losses.iter().all(|l| [1.0, 2.0, 3.0].contains(l)));
    }

    #[test]
    fn empty_dataset_yields_no_batches() {
        let mut t = Trainer::new(&TrainConfig::default(), 0);
        assert!(t.next_batch().is_none());
    }

    #[test]
    fn halt_stops_the_stream_at_a_step_boundary() {
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 2,
            seed: 3,
            ..TrainConfig::default()
        };
        let mut model = Linear::new(2, 2, &mut SeededInit::new(2));
        let mut t = Trainer::new(&cfg, 4).with_halt_after(3);
        let mut steps = 0;
        while let Some(_b) = t.next_batch() {
            let _ = model.forward(&Tensor::ones(&[1, 2]));
            let _ = model.backward(&Tensor::ones(&[1, 2]));
            t.step(&mut model).unwrap();
            steps += 1;
        }
        assert_eq!(steps, 3, "halt_after(3) must stop after 3 steps");
        assert_eq!(t.steps(), 3);
    }

    #[test]
    fn resume_continues_the_exact_example_stream() {
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 4,
            seed: 11,
            ..TrainConfig::default()
        };
        let dir = std::env::temp_dir().join("ntr_trainer_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ntrw");

        // Reference: drain the full stream in one go.
        let mut full_model = Linear::new(2, 2, &mut SeededInit::new(3));
        let mut full = Trainer::new(&cfg, 5);
        let mut full_items = Vec::new();
        while let Some(b) = full.next_batch() {
            let _ = full_model.forward(&Tensor::ones(&[1, 2]));
            let _ = full_model.backward(&Tensor::ones(&[1, 2]));
            full.step(&mut full_model).unwrap();
            full_items.extend(b);
        }

        // Crashed run: halt after 2 steps, checkpointing every step.
        let mut model = Linear::new(2, 2, &mut SeededInit::new(3));
        let mut first = Trainer::new(&cfg, 5)
            .with_checkpointing(path.clone(), 1)
            .with_halt_after(2);
        let mut items = Vec::new();
        while let Some(b) = first.next_batch() {
            let _ = model.forward(&Tensor::ones(&[1, 2]));
            let _ = model.backward(&Tensor::ones(&[1, 2]));
            first.step(&mut model).unwrap();
            items.extend(b);
        }

        // Resume into a *fresh* model and finish the stream.
        let mut resumed_model = Linear::new(2, 2, &mut SeededInit::new(999));
        let mut resumed = Trainer::resume(&mut resumed_model, &cfg, 5, &path).unwrap();
        assert_eq!(resumed.steps(), 2);
        while let Some(b) = resumed.next_batch() {
            let _ = resumed_model.forward(&Tensor::ones(&[1, 2]));
            let _ = resumed_model.backward(&Tensor::ones(&[1, 2]));
            resumed.step(&mut resumed_model).unwrap();
            items.extend(b);
        }
        assert_eq!(items, full_items, "resume must retrace the same stream");
        assert_eq!(
            full_model.w.value.data(),
            resumed_model.w.value.data(),
            "weights must be bit-identical"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn capture_restore_replays_bit_identically() {
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 2,
            seed: 21,
            ..TrainConfig::default()
        };
        let mut model = Linear::new(2, 2, &mut SeededInit::new(5));
        let mut t = Trainer::new(&cfg, 4);
        let train_step = |model: &mut Linear, t: &mut Trainer| {
            let b = t.next_batch().expect("stream not exhausted");
            let _ = model.forward(&Tensor::ones(&[1, 2]));
            let _ = model.backward(&Tensor::ones(&[1, 2]));
            t.step(model).unwrap();
            b
        };
        // A snapshot before any step holds no moments; refilled after two.
        let mut initial = Snapshot::default();
        t.capture_into(&mut model, &mut initial);
        let mut snap = initial.clone();
        let b1 = train_step(&mut model, &mut t);
        let b2 = train_step(&mut model, &mut t);
        t.capture_into(&mut model, &mut snap);

        // Continue two more steps, recording the stream and weights.
        let b3 = train_step(&mut model, &mut t);
        let b4 = train_step(&mut model, &mut t);
        let w_after = model.w.value.clone();

        // Roll back and replay: same batches, same bits.
        t.rollback(&mut model, &snap);
        assert_eq!(t.steps(), 2);
        assert_eq!(train_step(&mut model, &mut t), b3);
        assert_eq!(train_step(&mut model, &mut t), b4);
        assert_eq!(model.w.value.data(), w_after.data());

        // And from the very start, where Adam had no moments yet.
        t.rollback(&mut model, &initial);
        assert_eq!(t.steps(), 0);
        for b in [b1, b2, b3, b4] {
            assert_eq!(train_step(&mut model, &mut t), b);
        }
        assert_eq!(model.w.value.data(), w_after.data());
    }

    #[test]
    fn restore_rejects_weights_only_checkpoints() {
        let cfg = TrainConfig::default();
        let mut model = Linear::new(2, 2, &mut SeededInit::new(6));
        let mut t = Trainer::new(&cfg, 3);
        let ckpt = ntr_nn::serialize::TrainCheckpoint::capture(&mut model);
        let err = t.restore(&mut model, &ckpt).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    }

    #[test]
    fn resume_rejects_seed_mismatch() {
        let cfg = TrainConfig {
            seed: 1,
            ..TrainConfig::default()
        };
        let dir = std::env::temp_dir().join("ntr_trainer_seed_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ntrw");
        let mut model = Linear::new(2, 2, &mut SeededInit::new(4));
        let t = Trainer::new(&cfg, 3);
        t.save_state(&mut model, &path).unwrap();
        let bad_cfg = TrainConfig {
            seed: 2,
            ..TrainConfig::default()
        };
        let err = Trainer::resume(&mut model, &bad_cfg, 3, &path).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
