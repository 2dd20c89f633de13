//! The one training driver and its self-healing supervisor.
//! [`run_supervised`] is the only place in this crate that iterates epochs,
//! accumulates a batch and steps the optimizer: every pretraining objective
//! and every downstream fine-tune hands it a batch body. Around that loop
//! sits a state machine over [`Trainer`](crate::trainer::Trainer) that keeps
//! long runs alive through NaN batches, diverging losses, panicking pool
//! workers, simulated hard kills, and corrupted checkpoints.
//!
//! ## State machine
//!
//! ```text
//!            batch ok                    anomaly detected
//!   healthy ─────────▶ healthy   healthy ────────────────▶ anomaly
//!                                                             │
//!                         rollback enabled, retries left      │ rollback off
//!                anomaly ────────────────────────────────┐    ▼
//!                                                        │  abort
//!                retry ◀─────── rollback ◀───────────────┘  (typed error)
//!                  │    restore last good snapshot,
//!                  │    skip offending batch, back off LR
//!                  │
//!                  └── retries exhausted ──▶ abort (typed error)
//! ```
//!
//! Per step the supervisor (when any feature is enabled) runs the step body
//! under [`std::panic::catch_unwind`], applies global-norm gradient
//! clipping, and checks three anomaly signals: non-finite loss, non-finite
//! global gradient norm, and an EMA loss-spike (`loss > spike_factor ×
//! EMA`). On an anomaly it restores the last good state (an in-memory
//! [`Snapshot`](crate::trainer::Snapshot) refilled in place after every good
//! step, holding what
//! [`Trainer::save_state`](crate::trainer::Trainer::save_state) writes),
//! deterministically **skips the offending batch window**
//! (identified by the epoch/position of its first example, so a replay
//! makes the identical decision), scales the next retry's learning rate by
//! `lr_backoff` per attempt, and aborts with a typed [`TrainError`] — never
//! a panic — once `max_retries` rollbacks have been spent.
//!
//! ## Fault drills
//!
//! A [`FaultPlan`] (e.g. `NTR_FAULTS=nan@120,panic@300,crash@450`) makes
//! the supervisor inject its own failures at exact optimizer steps: NaN
//! gradients, a panic inside a real pool worker, a simulated hard kill
//! (in-memory state wiped; recovery only through the on-disk checkpoint,
//! falling back to the run's initial state when the disk copy is corrupt),
//! and single-bit checkpoint corruption. Step numbers count completed
//! optimizer steps at injection time, so `nan@0` poisons the first batch.
//!
//! ## No-op guarantee
//!
//! With every feature disabled ([`SupervisorConfig::default`]) the
//! supervisor runs the exact pre-supervisor training loop — no
//! `catch_unwind`, no norm computation, no snapshots — so loss traces and
//! final parameters are **bit-identical** to the unsupervised baseline.

use crate::trainer::{BatchItem, Snapshot, TrainConfig, Trainer, TrainerOptions};
use ntr_nn::optim::{clip_global_grad_norm, global_grad_norm};
use ntr_nn::serialize::{load_checkpoint, CheckpointError};
use ntr_nn::{grads_of, merge_grads, Layer};
use ntr_obs::Obs;
use ntr_tensor::faults::{self, FaultKind, FaultPlan};
use ntr_tensor::par;
use ntr_tensor::Tensor;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Slack added to the EMA spike threshold so near-zero losses don't trip
/// it on ratio noise.
const SPIKE_EPS: f32 = 1e-6;

/// Supervisor knobs. The default disables every feature, making
/// [`run_supervised`] bit-identical to the plain training loop.
#[derive(Debug, Clone, Default)]
pub struct SupervisorConfig {
    /// Clip the global gradient norm to this value each step.
    pub clip_norm: Option<f32>,
    /// Roll back to the last good checkpoint on an anomaly (instead of
    /// aborting immediately with a typed error).
    pub rollback: bool,
    /// Rollbacks allowed per run before aborting.
    pub max_retries: u32,
    /// A step's loss counts as a spike when it exceeds `spike_factor ×`
    /// the EMA of past losses (0 disables spike detection).
    pub spike_factor: f32,
    /// EMA smoothing for the spike detector (weight of the newest loss).
    pub ema_alpha: f32,
    /// LR multiplier applied per retry attempt (reset after a good step).
    pub lr_backoff: f32,
    /// Capture the in-memory rollback snapshot every this many optimizer
    /// steps (keyed to the absolute step count, so a replay makes the
    /// identical capture decisions). `0` and `1` both mean every step —
    /// the original semantics; larger values trade deeper rollbacks (the
    /// intermediate steps replay deterministically) for not deep-copying
    /// the whole model + optimizer state on every single step.
    pub snapshot_every: u32,
    /// Deterministic fault injection schedule (drills only).
    pub faults: Option<FaultPlan>,
}

impl SupervisorConfig {
    /// Robustness defaults: clipping at norm 1, rollback with 3 retries,
    /// 4× EMA spike detection, halved LR per retry, per-step snapshots.
    pub fn resilient() -> Self {
        Self {
            clip_norm: Some(1.0),
            rollback: true,
            max_retries: 3,
            spike_factor: 4.0,
            ema_alpha: 0.1,
            lr_backoff: 0.5,
            snapshot_every: 1,
            faults: None,
        }
    }

    /// True when any supervision feature is on (the disabled path is the
    /// bit-identical baseline loop).
    pub fn enabled(&self) -> bool {
        self.clip_norm.is_some() || self.rollback || self.faults.is_some()
    }
}

/// Typed training failure — the supervisor's contract is that training
/// never panics and never aborts the process.
#[derive(Debug)]
pub enum TrainError {
    /// Checkpoint I/O or format failure (writing a due checkpoint, or
    /// restoring one during recovery).
    Checkpoint(CheckpointError),
    /// An anomaly was detected and rollback is disabled.
    Anomaly {
        /// Completed optimizer steps when the anomaly was detected.
        step: u64,
        /// What was detected.
        anomaly: String,
    },
    /// Every allowed rollback was spent and the anomaly persisted.
    RetriesExhausted {
        /// Completed optimizer steps when the final anomaly was detected.
        step: u64,
        /// Rollbacks spent.
        attempts: u32,
        /// The final anomaly.
        last_anomaly: String,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Checkpoint(e) => write!(f, "{e}"),
            TrainError::Anomaly { step, anomaly } => {
                write!(
                    f,
                    "training anomaly at step {step}: {anomaly} (rollback disabled)"
                )
            }
            TrainError::RetriesExhausted {
                step,
                attempts,
                last_anomaly,
            } => write!(
                f,
                "training aborted at step {step} after {attempts} rollback(s): {last_anomaly}"
            ),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// Poisons `model`'s first parameter gradient with NaN (the `nan@N` fault).
fn poison_grads(model: &mut dyn Layer) {
    let mut done = false;
    model.visit_params(&mut |_, p| {
        if !done {
            p.grad.map_mut(|g| g + f32::NAN);
            done = true;
        }
    });
}

/// Recomputes the loss EMA from a replayed prefix of step results. Only
/// the crash-recovery path needs this full rescan (a "restarted process"
/// has no in-memory EMA to restore); ordinary rollbacks restore the EMA
/// saved alongside the snapshot in O(1).
fn ema_of<R>(out: &[R], alpha: f32, loss_of: &impl Fn(&R) -> f32) -> Option<f32> {
    let mut ema = None;
    for r in out {
        let loss = loss_of(r);
        ema = Some(match ema {
            None => loss,
            Some(e) => alpha * loss + (1.0 - alpha) * e,
        });
    }
    ema
}

/// The supervisor's last-good rollback state: the model/optimizer/cursor
/// snapshot plus the loss EMA at capture time, so a rollback restores the
/// anomaly detector without rescanning the step history.
struct GoodState {
    snap: Snapshot,
    ema: Option<f32>,
}

/// Emits one `step` trace event + step counters. `step` is the completed
/// optimizer-step count *after* this step. All non-timing fields are pure
/// functions of the run's inputs; `step_ms`/`tokens_per_sec` are wall
/// clock and excluded from the determinism guarantee.
fn emit_step(
    obs: &Obs,
    step: u64,
    batch: &[BatchItem],
    loss: f32,
    lr_scale: f32,
    grad_norm: Option<f32>,
    started: Option<std::time::Instant>,
) {
    let tokens = obs.take_step_tokens();
    obs.inc("train/steps");
    obs.add("train/examples", batch.len() as u64);
    let Some(e) = obs.event("step") else { return };
    let mut e = e
        .u64("step", step)
        .u64("epoch", batch[0].epoch as u64)
        .u64("pos", batch[0].pos as u64)
        .u64("batch", batch.len() as u64)
        .f32("loss", loss)
        .f32("lr_scale", lr_scale);
    if let Some(g) = grad_norm {
        e = e.f32("grad_norm", g);
    }
    if tokens > 0 {
        e = e.u64("tokens", tokens);
    }
    if let Some(t0) = started {
        let elapsed = t0.elapsed();
        e = e.u64("step_ms", elapsed.as_millis() as u64);
        obs.observe("train/step_ns", elapsed.as_nanos() as u64);
        if tokens > 0 && elapsed.as_secs_f64() > 0.0 {
            e = e.f64("tokens_per_sec", tokens as f64 / elapsed.as_secs_f64());
        }
    }
    e.finish();
}

/// Runs a full training loop under the supervisor. Every driver funnels
/// through here: `TrainRun::{mlm,turl,tapex,distill}`, imputation's
/// `finetune_supervised`, and (via [`fit`]) the seven downstream fine-tunes.
///
/// A driver supplies `example`, the per-example body (forward, loss and
/// backward on the replica it is handed; see [`run_batch`]), and `reduce`,
/// which turns the batch's results, in example order, into the step record
/// and reports into the run's `Obs` (a no-op unless `topts.obs` configured
/// one). `loss_of` extracts the loss the anomaly detector watches. The
/// gradient fold, optimizer step, clipping, checkpointing, anomaly
/// handling, fault injection and event tracing belong to the supervisor.
///
/// Returns one record per completed optimizer step (skipped batch windows
/// contribute none), or a typed [`TrainError`]. Never panics on worker
/// failures: panics raised inside `example` or `reduce` are caught and
/// handled as anomalies.
#[allow(clippy::too_many_arguments)]
pub fn run_supervised<M: Layer + Clone + Send, E: Send, R>(
    model: &mut M,
    cfg: &TrainConfig,
    n_examples: usize,
    topts: &TrainerOptions,
    scfg: &SupervisorConfig,
    loss_of: impl Fn(&R) -> f32,
    example: impl Fn(&mut M, &BatchItem) -> E + Sync,
    mut reduce: impl FnMut(Vec<E>, &[BatchItem], &Obs) -> R,
) -> Result<Vec<R>, TrainError> {
    let mut trainer = topts.build(model, cfg, n_examples)?;
    let obs = trainer.obs().clone();
    if let Some(e) = obs.event("run_start") {
        e.u64("step", trainer.steps())
            .u64("n_examples", n_examples as u64)
            .u64("batch_size", cfg.batch_size as u64)
            .u64("epochs", cfg.epochs as u64)
            .u64("seed", cfg.seed)
            .finish();
    }
    // Every step starts from zero accumulators (see `run_batch`).
    model.zero_grad();
    let (mut replicas, mut slots) = (Vec::new(), Vec::new());
    let mut step_fn = |model: &mut M, batch: &[BatchItem], obs: &Obs| {
        let results = run_batch(model, &mut replicas, &mut slots, batch, &example);
        reduce(results, batch, obs)
    };
    let mut retries_used: u32 = 0;
    let result = supervise_loop(
        model,
        &mut trainer,
        scfg,
        &loss_of,
        &mut step_fn,
        &obs,
        &mut retries_used,
    );
    if let Some(e) = obs.event("run_end") {
        let e = e
            .u64("steps", trainer.steps())
            .u64("retries", retries_used as u64);
        match &result {
            Ok(_) => e.str("outcome", "ok").finish(),
            Err(err) => e
                .str("outcome", "error")
                .str("error", &err.to_string())
                .finish(),
        }
    }
    let _ = obs.write_metrics();
    result
}

/// The plain fine-tune form of [`run_supervised`]: no checkpointing, no
/// supervision, and a per-example body (forward, backward, returns that
/// example's loss). Returns the mean loss per optimizer step.
pub(crate) fn fit<M: Layer + Clone + Send, E: Sync>(
    model: &mut M,
    cfg: &TrainConfig,
    examples: &[E],
    example_loss: impl Fn(&mut M, &E, &BatchItem) -> f32 + Sync,
) -> Vec<f32> {
    run_supervised(
        model,
        cfg,
        examples.len(),
        &TrainerOptions::default(),
        &SupervisorConfig::default(),
        |loss: &f32| *loss,
        |model, item| example_loss(model, &examples[item.index], item),
        |losses, _, _| losses.iter().sum::<f32>() / losses.len() as f32,
    )
    .expect("no checkpoint, resume or supervisor is configured, so the run cannot fail")
}

/// The step record of examples that return `(tokens, loss)`: counts the
/// tokens into `obs` and returns the mean loss, in example order.
pub(crate) fn mean_loss(examples: Vec<(usize, f32)>, _: &[BatchItem], obs: &Obs) -> f32 {
    obs.count_tokens(examples.iter().map(|e| e.0 as u64).sum());
    examples.iter().fold(0.0, |loss, e| loss + e.1) / examples.len() as f32
}

/// The dropout stream of example `i` in a step: a pure function of the
/// master's stream `state` at step start and `i`, whatever worker runs the
/// example. `i = u64::MAX` is the master's own next state.
fn derive_stream(state: [u64; 4], i: u64) -> [u64; 4] {
    use rand::SeedableRng;
    let mix = |h: u64, &w: &u64| (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    rand::rngs::StdRng::seed_from_u64(state.iter().fold(i, mix)).state()
}

/// Runs `example` for every item of `batch` on one replica per pool worker
/// (DESIGN §6): example `i` draws [`derive_stream`]`(master, i)`, and the
/// gradients reach `model`'s zeroed accumulators in example order through
/// [`merge_grads`], so a step is bit-identical at any `NTR_THREADS`.
/// Returns the results in example order; re-raises a panic in `example`.
fn run_batch<M: Layer + Clone + Send, E: Send>(
    model: &mut M,
    replicas: &mut Vec<M>,
    slots: &mut Vec<Vec<Tensor>>,
    batch: &[BatchItem],
    example: &(impl Fn(&mut M, &BatchItem) -> E + Sync),
) -> Vec<E> {
    let n = batch.len();
    if replicas.is_empty() {
        *replicas = vec![model.clone(); par::max_threads().clamp(1, n)];
    }
    let per = n.div_ceil(replicas.len());
    if slots.len() < 1 + n - per {
        slots.resize(1 + n - per, grads_of(model));
    }
    let mut streams = Vec::new();
    model.visit_rng_state(&mut |_, s| {
        streams.push(*s);
        *s = derive_stream(*s, u64::MAX);
    });
    // The master's values, lent to the workers for the dispatch.
    let mut values = Vec::new();
    model.visit_params(&mut |_, p| {
        values.push(std::mem::replace(&mut p.value, Tensor::zeros(&[0])));
    });
    // Worker 0 runs the first examples and folds each into the master at
    // once, through one reused slot; the others keep a slot per example.
    let (first, rest) = slots.split_at_mut(1);
    let master = std::iter::once(Some(&mut *model)).chain(std::iter::repeat_with(|| None));
    let jobs: Vec<Mutex<_>> = (replicas.iter_mut().zip(batch.chunks(per)))
        .zip(std::iter::once(first).chain(rest[..n - per].chunks_mut(per)))
        .zip(master)
        .map(Mutex::new)
        .collect();
    let out = par::try_map_tasks(jobs.len(), jobs.len(), |w| {
        let mut job = jobs[w].lock().expect("each job is locked once");
        let (((replica, items), slots), master) = &mut *job;
        let mut k = 0;
        replica.visit_params(&mut |_, p| {
            p.value.data_mut().copy_from_slice(values[k].data());
            k += 1;
        });
        let mut results = Vec::with_capacity(items.len());
        for (j, item) in items.iter().enumerate() {
            let i = w * per + j;
            let mut k = 0;
            replica.visit_rng_state(&mut |_, s| {
                *s = derive_stream(streams[k], i as u64);
                k += 1;
            });
            results.push(example(replica, item));
            let slot = &mut slots[j.min(slots.len() - 1)];
            let mut k = 0;
            replica.visit_params(&mut |_, p| {
                std::mem::swap(&mut p.grad, &mut slot[k]);
                k += 1;
            });
            if let Some(master) = master {
                merge_grads(&mut **master, std::slice::from_mut(slot));
            }
        }
        results
    });
    drop(jobs);
    let mut values = values.into_iter();
    model.visit_params(&mut |_, p| p.value = values.next().expect("one value per param"));
    match out {
        Ok(parts) => {
            merge_grads(model, &mut slots[1..1 + n - per]);
            parts.into_iter().flatten().collect()
        }
        Err(panic) => {
            // Half-run examples leave partial gradients behind.
            replicas.clear();
            slots.clear();
            std::panic::resume_unwind(Box::new(panic.message))
        }
    }
}

/// The supervisor loop body, split out so [`run_supervised`] can emit
/// `run_end` + flush metrics on every exit path.
#[allow(clippy::too_many_arguments)]
fn supervise_loop<M: Layer, R>(
    model: &mut M,
    trainer: &mut Trainer,
    scfg: &SupervisorConfig,
    loss_of: &impl Fn(&R) -> f32,
    step_fn: &mut impl FnMut(&mut M, &[BatchItem], &Obs) -> R,
    obs: &Obs,
    retries_used: &mut u32,
) -> Result<Vec<R>, TrainError> {
    let mut out: Vec<R> = Vec::new();

    if !scfg.enabled() {
        // Bit-identical baseline: the exact pre-supervisor loop, plus
        // (only when armed) step tracing that reads but never perturbs it.
        while let Some(batch) = trainer.next_batch() {
            let t0 = obs.now();
            let r = step_fn(model, &batch, obs);
            trainer.step(model)?;
            if obs.enabled() {
                emit_step(obs, trainer.steps(), &batch, loss_of(&r), 1.0, None, t0);
            }
            out.push(r);
        }
        return Ok(out);
    }

    let mut plan = scfg.faults.clone().unwrap_or_default();
    let has_crash = plan.faults().iter().any(|f| f.kind == FaultKind::Crash);
    let snapshots = scfg.rollback || has_crash;
    let cadence = scfg.snapshot_every.max(1) as u64;
    // The run's starting state: what a fresh process would deterministically
    // reconstruct. The fallback when a crash finds no usable disk checkpoint,
    // and the first "last good" snapshot.
    let initial = snapshots.then(|| {
        let mut snap = Snapshot::default();
        trainer.capture_into(model, &mut snap);
        snap
    });
    let mut last_good: Option<GoodState> =
        initial.clone().map(|snap| GoodState { snap, ema: None });
    let base_steps = trainer.steps();
    let mut skip: HashSet<(usize, usize)> = HashSet::new();
    let mut ema: Option<f32> = None;
    let mut lr_scale = 1.0f32;

    while let Some(batch) = trainer.next_batch() {
        // A batch window blamed for an earlier anomaly is skipped without
        // an optimizer step; the window is identified by its first
        // example, which is a pure function of (epoch, pos, seed).
        if skip.contains(&(batch[0].epoch, batch[0].pos)) {
            continue;
        }
        let step = trainer.steps();

        if plan.take(FaultKind::Crash, step) {
            // Simulated hard kill: in-memory state (snapshots, EMA, LR
            // backoff) is gone. A restarted process recovers from the
            // on-disk checkpoint; with none (or a corrupt one) it starts
            // over from the initial state.
            let disk = trainer
                .checkpoint_path()
                .map(|p| p.to_path_buf())
                .and_then(|p| load_checkpoint(&p).ok());
            let restored = match disk {
                Some(ckpt) => trainer.restore(model, &ckpt).is_ok(),
                None => false,
            };
            if !restored {
                let initial = initial.as_ref().expect("crash fault implies snapshots");
                trainer.rollback(model, initial);
            }
            model.zero_grad();
            out.truncate(trainer.steps().saturating_sub(base_steps) as usize);
            // A "restarted process" has no in-memory EMA; rebuild it from
            // the surviving step records (this is the one path that still
            // rescans — crashes are rare, retries are not).
            ema = ema_of(&out, scfg.ema_alpha, loss_of);
            lr_scale = 1.0;
            trainer.set_lr_scale(1.0);
            let state = last_good.as_mut().expect("crash fault implies snapshots");
            trainer.capture_into(model, &mut state.snap);
            state.ema = ema;
            let _ = obs.take_step_tokens();
            if let Some(e) = obs.event("crash_recovery") {
                e.u64("step", step)
                    .u64("to_step", trainer.steps())
                    .str("source", if restored { "disk" } else { "initial" })
                    .finish();
            }
            obs.inc("supervisor/crash_recoveries");
            continue;
        }

        let t0 = obs.now();
        if plan.take(FaultKind::WorkerPanic, step) {
            // The step's own pool dispatch takes the injected panic, so the
            // drill exercises genuine worker panic isolation.
            faults::arm_worker_panic();
        }
        let result = catch_unwind(AssertUnwindSafe(|| step_fn(model, &batch, obs)))
            .map_err(|payload| format!("worker panic: {}", par::payload_message(payload)));
        faults::disarm_worker_panic();

        let mut step_grad_norm: Option<f32> = None;
        let anomaly: Option<(&'static str, String)> = match &result {
            Err(msg) => Some(("panic", msg.clone())),
            Ok(r) => {
                if plan.take(FaultKind::Nan, step) {
                    poison_grads(model);
                }
                let grad_norm = match scfg.clip_norm {
                    Some(max) => clip_global_grad_norm(model, max),
                    None => global_grad_norm(model),
                };
                step_grad_norm = Some(grad_norm);
                let loss = loss_of(r);
                if !loss.is_finite() {
                    Some(("nan-loss", format!("non-finite loss ({loss})")))
                } else if !grad_norm.is_finite() {
                    Some((
                        "nan-grad-norm",
                        format!("non-finite global gradient norm ({grad_norm})"),
                    ))
                } else if scfg.spike_factor > 0.0
                    && ema.is_some_and(|e| loss > scfg.spike_factor * e + SPIKE_EPS)
                {
                    Some((
                        "loss-spike",
                        format!(
                            "loss spike: {loss} > {} x EMA {}",
                            scfg.spike_factor,
                            ema.unwrap_or(0.0)
                        ),
                    ))
                } else {
                    None
                }
            }
        };

        match anomaly {
            None => {
                let r = match result {
                    Ok(r) => r,
                    Err(_) => unreachable!("anomaly is None only for Ok results"),
                };
                trainer.step(model)?;
                if plan.take(FaultKind::CorruptCkpt, trainer.steps()) {
                    if let Some(path) = trainer.checkpoint_path() {
                        if path.exists() {
                            let _ = faults::corrupt_file(path);
                        }
                    }
                }
                let loss = loss_of(&r);
                ema = Some(match ema {
                    None => loss,
                    Some(e) => scfg.ema_alpha * loss + (1.0 - scfg.ema_alpha) * e,
                });
                if obs.enabled() {
                    emit_step(
                        obs,
                        trainer.steps(),
                        &batch,
                        loss,
                        lr_scale,
                        step_grad_norm,
                        t0,
                    );
                }
                out.push(r);
                if lr_scale != 1.0 {
                    // The backoff covered the retry window; later steps run
                    // at the scheduled LR again.
                    lr_scale = 1.0;
                    trainer.set_lr_scale(1.0);
                }
                if let Some(state) = &mut last_good {
                    // Cadence snapshots: capture on absolute-step
                    // boundaries, so a rollback-and-replay makes the
                    // identical capture decisions it made the first time.
                    if trainer.steps().is_multiple_of(cadence) {
                        trainer.capture_into(model, &mut state.snap);
                        state.ema = ema;
                    }
                }
            }
            Some((kind, what)) => {
                // Grads may hold partial/poisoned accumulation; they are
                // never part of a checkpoint, so clear them explicitly.
                model.zero_grad();
                let _ = obs.take_step_tokens();
                if let Some(e) = obs.event("anomaly") {
                    e.u64("step", step)
                        .u64("epoch", batch[0].epoch as u64)
                        .u64("pos", batch[0].pos as u64)
                        .str("kind", kind)
                        .str("detail", &what)
                        .finish();
                }
                obs.inc("supervisor/anomalies");
                obs.inc(&format!("supervisor/anomaly/{kind}"));
                if !scfg.rollback {
                    return Err(TrainError::Anomaly {
                        step,
                        anomaly: what,
                    });
                }
                if *retries_used >= scfg.max_retries {
                    return Err(TrainError::RetriesExhausted {
                        step,
                        attempts: *retries_used,
                        last_anomaly: what,
                    });
                }
                *retries_used += 1;
                let state = last_good.as_ref().expect("rollback implies snapshots");
                trainer.rollback(model, &state.snap);
                model.zero_grad();
                lr_scale *= scfg.lr_backoff;
                trainer.set_lr_scale(lr_scale);
                out.truncate(trainer.steps().saturating_sub(base_steps) as usize);
                // O(1) detector restore: the EMA saved with the snapshot
                // matches the truncated step prefix exactly; replayed
                // steps then re-advance it deterministically.
                ema = state.ema;
                skip.insert((batch[0].epoch, batch[0].pos));
                if let Some(e) = obs.event("rollback") {
                    e.u64("step", step)
                        .u64("to_step", trainer.steps())
                        .u64("retry", *retries_used as u64)
                        .f32("lr_scale", lr_scale)
                        .u64("skip_epoch", batch[0].epoch as u64)
                        .u64("skip_pos", batch[0].pos as u64)
                        .finish();
                }
                obs.inc("supervisor/rollbacks");
            }
        }
    }
    Ok(out)
}
