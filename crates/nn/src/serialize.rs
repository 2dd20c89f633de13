//! Checkpointing: save/load model parameters **and full training state**
//! (Adam moments, LR schedule, shuffle cursor, dropout RNGs) as an `NTRW`
//! container file. The framing, checksums and crash-safe write sequence are
//! [`ntr_tensor::io`]'s; this module owns the section payloads.
//!
//! ## `NTRW` v2 sections (little-endian throughout)
//!
//! `str` = u32 length + UTF-8 bytes; `tensor` = u32 ndim, u32 per dim, f32
//! bit patterns row-major:
//!
//! * `PARA` — u32 count, then (str name, tensor value) per parameter;
//! * `ADAM` — u64 steps, f32 lr/β₁/β₂/ε/weight-decay, u32 count, then
//!   (str name, tensor m, tensor v) per parameter with optimizer state;
//! * `SCHD` — f32 peak_lr, u64 warmup, u64 total ([`WarmupLinearSchedule`]);
//! * `CURS` — u64 epoch, u64 example-within-epoch, u64 shuffle seed;
//! * `RNGS` — u32 count, then (str name, 4×u64 state words) per dropout RNG.
//!
//! A v2 file with only the `PARA` section is a plain weight checkpoint;
//! version-1 files (magic, version, then the `PARA` payload bare — no
//! sections, no checksums) still parse, yielding `state: None` so optimizer
//! state is freshly initialized.
//!
//! Loading never trusts a declared length: every read is bounds-checked
//! against the remaining bytes *before* any allocation. Any truncation or
//! bit flip surfaces as [`CheckpointError::BadFormat`] — never a panic,
//! never a silently wrong tensor.

use crate::optim::{Adam, WarmupLinearSchedule};
use crate::Layer;
use ntr_tensor::io::{
    get_str, put_str, read_sections, save_sections, write_sections, ByteReader, Section,
    SectionError, ShortRead,
};
use ntr_tensor::Tensor;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::Path;

pub use ntr_tensor::io::SaveStats;

const MAGIC: [u8; 4] = *b"NTRW";
const VERSION: u32 = 2;

const TAG_PARAMS: [u8; 4] = *b"PARA";
const TAG_ADAM: [u8; 4] = *b"ADAM";
const TAG_SCHEDULE: [u8; 4] = *b"SCHD";
const TAG_CURSOR: [u8; 4] = *b"CURS";
const TAG_RNGS: [u8; 4] = *b"RNGS";

/// Tensors in checkpoints are at most matrices today; a little headroom
/// guards against nonsense `ndim` from corrupt files without rejecting
/// plausible future shapes.
const MAX_NDIM: usize = 16;

/// Errors from checkpoint load/save.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not an `NTRW` checkpoint, is truncated, fails a
    /// checksum, or has a malformed section.
    BadFormat(String),
    /// Checkpoint and model disagree on the parameter set.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadFormat(m) => write!(f, "bad checkpoint format: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint/model mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<ShortRead> for CheckpointError {
    fn from(e: ShortRead) -> Self {
        CheckpointError::BadFormat(e.to_string())
    }
}

impl From<SectionError> for CheckpointError {
    fn from(e: SectionError) -> Self {
        CheckpointError::BadFormat(e.to_string())
    }
}

/// Position of a training run at checkpoint time: the next example to
/// process, identified by epoch and offset within that epoch's shuffled
/// order, plus the shuffle seed that order derives from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrainCursor {
    /// Epoch of the next unprocessed example.
    pub epoch: u64,
    /// Offset of the next unprocessed example within the epoch's order.
    pub example: u64,
    /// Shuffle/masking seed of the run (checked on resume).
    pub seed: u64,
}

/// Everything beyond raw weights that bit-identical resume requires.
#[derive(Debug, Clone)]
pub struct TrainState {
    /// Completed optimizer steps (Adam's bias-correction `t`).
    pub steps: u64,
    /// Learning rate at checkpoint time.
    pub lr: f32,
    /// Adam β₁.
    pub beta1: f32,
    /// Adam β₂.
    pub beta2: f32,
    /// Adam ε.
    pub eps: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Per-parameter first/second moments, keyed by parameter path.
    pub moments: BTreeMap<String, (Tensor, Tensor)>,
    /// The LR schedule (warmup/total are part of the training contract).
    pub schedule: WarmupLinearSchedule,
    /// Where in the example stream to resume.
    pub cursor: TrainCursor,
    /// Dropout RNG states, keyed by RNG path (see `Layer::visit_rng_state`).
    pub rngs: BTreeMap<String, [u64; 4]>,
}

/// A parsed checkpoint: parameters plus optional training state.
#[derive(Debug, Clone)]
pub struct TrainCheckpoint {
    /// Parameter path → value.
    pub params: BTreeMap<String, Tensor>,
    /// Training state; `None` for v1 files and weight-only checkpoints.
    pub state: Option<TrainState>,
}

/// Collects a layer's parameters into a name → tensor map.
pub fn state_dict(layer: &mut dyn Layer) -> BTreeMap<String, Tensor> {
    let mut map = BTreeMap::new();
    layer.visit_params(&mut |name, p| {
        let prev = map.insert(name.to_string(), p.value.clone());
        assert!(prev.is_none(), "duplicate parameter name {name}");
    });
    map
}

impl TrainCheckpoint {
    /// Captures a weight-only checkpoint of `model`.
    pub fn capture(model: &mut dyn Layer) -> Self {
        Self {
            params: state_dict(model),
            state: None,
        }
    }

    /// Captures the full training state: weights, the moments `adam` holds
    /// for them (keyed by path; none before Adam's first step), the
    /// schedule, the dropout RNG streams, and `cursor`.
    pub fn capture_train(
        model: &mut dyn Layer,
        adam: &Adam,
        schedule: &WarmupLinearSchedule,
        cursor: TrainCursor,
    ) -> Self {
        let params = state_dict(model);
        let mut moments = BTreeMap::new();
        let (m, v) = (&adam.m, &adam.v);
        if !m.is_empty() {
            let mut off = 0;
            model.visit_params(&mut |name, p| {
                let span = off..off + p.value.numel();
                let moment =
                    |buf: &[f32]| Tensor::from_vec(buf[span.clone()].to_vec(), p.value.shape());
                moments.insert(name.to_string(), (moment(m), moment(v)));
                off = span.end;
            });
        }
        let mut rngs = BTreeMap::new();
        model.visit_rng_state(&mut |name, d| {
            rngs.insert(name.to_string(), d.state());
        });
        Self {
            params,
            state: Some(TrainState {
                steps: adam.t,
                lr: adam.lr,
                beta1: adam.beta1,
                beta2: adam.beta2,
                eps: adam.eps,
                weight_decay: adam.weight_decay,
                moments,
                schedule: *schedule,
                cursor,
                rngs,
            }),
        }
    }

    /// Loads the parameters into `model`, strict on names and shapes: the
    /// checkpoint and the model must describe the same parameter set, which
    /// catches architecture drift early.
    pub fn apply_params(&self, model: &mut dyn Layer) -> Result<(), CheckpointError> {
        // Validate every name and shape first, so a mismatch leaves the
        // model completely untouched (no partial loads).
        let mut pending: BTreeMap<&str, &Tensor> =
            self.params.iter().map(|(k, v)| (k.as_str(), v)).collect();
        let mut error: Option<CheckpointError> = None;
        model.visit_params(&mut |name, p| {
            if error.is_some() {
                return;
            }
            match pending.remove(name.to_string().as_str()) {
                Some(t) if t.shape() == p.value.shape() => {}
                Some(t) => {
                    error = Some(CheckpointError::Mismatch(format!(
                        "parameter {name}: checkpoint shape {:?} != model shape {:?}",
                        t.shape(),
                        p.value.shape()
                    )));
                }
                None => {
                    error = Some(CheckpointError::Mismatch(format!(
                        "parameter {name} missing from checkpoint"
                    )));
                }
            }
        });
        if let Some(e) = error {
            return Err(e);
        }
        if let Some(extra) = pending.keys().next() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint contains {} parameter(s) unknown to the model, e.g. {extra}",
                pending.len()
            )));
        }
        model.visit_params(&mut |name, p| p.value = self.params[&name.to_string()].clone());
        Ok(())
    }

    /// Loads parameters into `model` and, when training state is present,
    /// rebuilds the optimizer (its path-keyed moments laid out in visit
    /// order, zero for a parameter the file holds none for), schedule and
    /// cursor and restores dropout RNG streams. Returns `None` for
    /// weight-only/v1 checkpoints.
    pub fn apply_train(
        &self,
        model: &mut dyn Layer,
    ) -> Result<Option<(Adam, WarmupLinearSchedule, TrainCursor)>, CheckpointError> {
        self.apply_params(model)?;
        let Some(st) = &self.state else {
            return Ok(None);
        };
        let mut pending: BTreeMap<&str, _> =
            st.moments.iter().map(|(k, mv)| (k.as_str(), mv)).collect();
        let (mut m, mut v) = (Vec::new(), Vec::new());
        let mut error: Option<CheckpointError> = None;
        if !pending.is_empty() {
            model.visit_params(
                &mut |name, p| match pending.remove(name.to_string().as_str()) {
                    Some((pm, pv)) if pm.shape() == p.value.shape() => {
                        m.extend_from_slice(pm.data());
                        v.extend_from_slice(pv.data());
                    }
                    Some((pm, _)) => {
                        error.get_or_insert(CheckpointError::Mismatch(format!(
                            "moments for {name}: checkpoint shape {:?} != model shape {:?}",
                            pm.shape(),
                            p.value.shape()
                        )));
                    }
                    None => {
                        m.resize(m.len() + p.value.numel(), 0.0);
                        v.resize(v.len() + p.value.numel(), 0.0);
                    }
                },
            );
        }
        if let Some(e) = error {
            return Err(e);
        }
        if let Some(extra) = pending.keys().next() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint has optimizer state for {} parameter(s) unknown to the model, e.g. {extra}",
                pending.len()
            )));
        }
        let mut rng_pending = st.rngs.clone();
        model.visit_rng_state(&mut |name, d| {
            if let Some(saved) = rng_pending.remove(&name.to_string()) {
                d.set_state(saved);
            }
        });
        if let Some(extra) = rng_pending.keys().next() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint has RNG state for {} stream(s) unknown to the model, e.g. {extra}",
                rng_pending.len()
            )));
        }
        let adam = Adam {
            lr: st.lr,
            beta1: st.beta1,
            beta2: st.beta2,
            eps: st.eps,
            weight_decay: st.weight_decay,
            t: st.steps,
            m,
            v,
        };
        Ok(Some((adam, st.schedule, st.cursor)))
    }
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

fn put_tensor(buf: &mut Vec<u8>, t: &Tensor) {
    buf.extend_from_slice(&(t.ndim() as u32).to_le_bytes());
    for &d in t.shape() {
        buf.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for &v in t.data() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_params(buf: &mut Vec<u8>, params: &BTreeMap<String, Tensor>) {
    buf.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for (name, t) in params {
        put_str(buf, name);
        put_tensor(buf, t);
    }
}

/// The v2 sections of `ckpt`: `PARA`, plus the four training-state sections
/// when state is present.
fn checkpoint_sections(ckpt: &TrainCheckpoint) -> Vec<Section> {
    let mut para = Vec::new();
    put_params(&mut para, &ckpt.params);
    let mut sections = vec![(TAG_PARAMS, para)];

    if let Some(st) = &ckpt.state {
        let mut adam = Vec::new();
        adam.extend_from_slice(&st.steps.to_le_bytes());
        for v in [st.lr, st.beta1, st.beta2, st.eps, st.weight_decay] {
            adam.extend_from_slice(&v.to_le_bytes());
        }
        adam.extend_from_slice(&(st.moments.len() as u32).to_le_bytes());
        for (name, (m, v)) in &st.moments {
            put_str(&mut adam, name);
            put_tensor(&mut adam, m);
            put_tensor(&mut adam, v);
        }
        sections.push((TAG_ADAM, adam));

        let mut schd = Vec::new();
        schd.extend_from_slice(&st.schedule.peak_lr.to_le_bytes());
        schd.extend_from_slice(&st.schedule.warmup.to_le_bytes());
        schd.extend_from_slice(&st.schedule.total.to_le_bytes());
        sections.push((TAG_SCHEDULE, schd));

        let mut curs = Vec::new();
        curs.extend_from_slice(&st.cursor.epoch.to_le_bytes());
        curs.extend_from_slice(&st.cursor.example.to_le_bytes());
        curs.extend_from_slice(&st.cursor.seed.to_le_bytes());
        sections.push((TAG_CURSOR, curs));

        let mut rngs = Vec::new();
        rngs.extend_from_slice(&(st.rngs.len() as u32).to_le_bytes());
        for (name, words) in &st.rngs {
            put_str(&mut rngs, name);
            for w64 in words {
                rngs.extend_from_slice(&w64.to_le_bytes());
            }
        }
        sections.push((TAG_RNGS, rngs));
    }
    sections
}

/// Serializes a checkpoint to `w` in the v2 format.
pub fn write_checkpoint_to(
    ckpt: &TrainCheckpoint,
    w: &mut dyn Write,
) -> Result<(), CheckpointError> {
    write_sections(w, MAGIC, VERSION, &checkpoint_sections(ckpt))?;
    Ok(())
}

/// Saves a checkpoint to `path` crash-safely (temp file, `fsync`, atomic
/// rename, directory `fsync` — see [`ntr_tensor::io::save_sections`]): a
/// crash at any point leaves either the previous checkpoint or the new one,
/// never a partial file under `path`.
pub fn save_checkpoint(ckpt: &TrainCheckpoint, path: &Path) -> Result<(), CheckpointError> {
    save_checkpoint_stats(ckpt, path).map(|_| ())
}

/// [`save_checkpoint`] reporting the written size and fsync cost.
pub fn save_checkpoint_stats(
    ckpt: &TrainCheckpoint,
    path: &Path,
) -> Result<SaveStats, CheckpointError> {
    Ok(save_sections(
        path,
        MAGIC,
        VERSION,
        &checkpoint_sections(ckpt),
    )?)
}

// ---------------------------------------------------------------------
// Parsing (bounds-checked, never trusts declared sizes)
// ---------------------------------------------------------------------

fn get_tensor(r: &mut ByteReader<'_>) -> Result<Tensor, CheckpointError> {
    let ndim = r.u32()? as usize;
    if ndim > MAX_NDIM {
        return Err(CheckpointError::BadFormat(format!(
            "tensor rank {ndim} exceeds the maximum of {MAX_NDIM}"
        )));
    }
    let mut shape = Vec::with_capacity(ndim);
    let mut numel: u64 = 1;
    for _ in 0..ndim {
        let d = r.u32()? as usize;
        numel = numel.saturating_mul(d as u64);
        shape.push(d);
    }
    // Clamp the declared element count against the bytes actually present
    // before allocating — a hostile header can not trigger a huge
    // allocation (`f32s` re-checks, but failing here gives a better error).
    if numel.saturating_mul(4) > r.remaining() as u64 {
        return Err(CheckpointError::BadFormat(format!(
            "tensor of shape {shape:?} declares {numel} element(s) but only {} byte(s) remain",
            r.remaining()
        )));
    }
    let data = r.f32s(numel as usize)?;
    Ok(Tensor::from_vec(data, &shape))
}

fn parse_params(payload: &[u8]) -> Result<BTreeMap<String, Tensor>, CheckpointError> {
    let mut r = ByteReader::new(payload);
    let count = r.u32()?;
    let mut map = BTreeMap::new();
    for _ in 0..count {
        let name = get_str(&mut r)?;
        let t = get_tensor(&mut r)?;
        if map.insert(name.clone(), t).is_some() {
            return Err(CheckpointError::BadFormat(format!(
                "duplicate parameter {name}"
            )));
        }
    }
    if !r.is_empty() {
        return Err(CheckpointError::BadFormat(format!(
            "{} trailing byte(s) in parameter section",
            r.remaining()
        )));
    }
    Ok(map)
}

struct AdamSection {
    steps: u64,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    moments: BTreeMap<String, (Tensor, Tensor)>,
}

fn parse_adam(payload: &[u8]) -> Result<AdamSection, CheckpointError> {
    let mut r = ByteReader::new(payload);
    let steps = r.u64()?;
    let lr = r.f32()?;
    let beta1 = r.f32()?;
    let beta2 = r.f32()?;
    let eps = r.f32()?;
    let weight_decay = r.f32()?;
    let count = r.u32()?;
    let mut moments = BTreeMap::new();
    for _ in 0..count {
        let name = get_str(&mut r)?;
        let m = get_tensor(&mut r)?;
        let v = get_tensor(&mut r)?;
        if m.shape() != v.shape() {
            return Err(CheckpointError::BadFormat(format!(
                "moments for {name} disagree on shape: {:?} vs {:?}",
                m.shape(),
                v.shape()
            )));
        }
        if moments.insert(name.clone(), (m, v)).is_some() {
            return Err(CheckpointError::BadFormat(format!(
                "duplicate optimizer state for {name}"
            )));
        }
    }
    if !r.is_empty() {
        return Err(CheckpointError::BadFormat(format!(
            "{} trailing byte(s) in optimizer section",
            r.remaining()
        )));
    }
    Ok(AdamSection {
        steps,
        lr,
        beta1,
        beta2,
        eps,
        weight_decay,
        moments,
    })
}

fn parse_schedule(payload: &[u8]) -> Result<WarmupLinearSchedule, CheckpointError> {
    let mut r = ByteReader::new(payload);
    let s = WarmupLinearSchedule {
        peak_lr: r.f32()?,
        warmup: r.u64()?,
        total: r.u64()?,
    };
    if !r.is_empty() {
        return Err(CheckpointError::BadFormat(
            "trailing bytes in schedule section".into(),
        ));
    }
    Ok(s)
}

fn parse_cursor(payload: &[u8]) -> Result<TrainCursor, CheckpointError> {
    let mut r = ByteReader::new(payload);
    let c = TrainCursor {
        epoch: r.u64()?,
        example: r.u64()?,
        seed: r.u64()?,
    };
    if !r.is_empty() {
        return Err(CheckpointError::BadFormat(
            "trailing bytes in cursor section".into(),
        ));
    }
    Ok(c)
}

fn parse_rngs(payload: &[u8]) -> Result<BTreeMap<String, [u64; 4]>, CheckpointError> {
    let mut r = ByteReader::new(payload);
    let count = r.u32()?;
    let mut map = BTreeMap::new();
    for _ in 0..count {
        let name = get_str(&mut r)?;
        let words = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        if map.insert(name.clone(), words).is_some() {
            return Err(CheckpointError::BadFormat(format!(
                "duplicate RNG state for {name}"
            )));
        }
    }
    if !r.is_empty() {
        return Err(CheckpointError::BadFormat(format!(
            "{} trailing byte(s) in RNG section",
            r.remaining()
        )));
    }
    Ok(map)
}

fn parse_v2(bytes: &[u8]) -> Result<TrainCheckpoint, CheckpointError> {
    let sections = read_sections(bytes, MAGIC, VERSION)?;
    let params = parse_params(sections.require(TAG_PARAMS)?)?;
    let schedule = sections.get(TAG_SCHEDULE).map(parse_schedule).transpose()?;
    let cursor = sections.get(TAG_CURSOR).map(parse_cursor).transpose()?;
    let rngs = sections.get(TAG_RNGS).map(parse_rngs).transpose()?;
    let state = match sections.get(TAG_ADAM).map(parse_adam).transpose()? {
        None => None,
        Some(a) => {
            let schedule = schedule.ok_or_else(|| {
                CheckpointError::BadFormat(
                    "optimizer state present but schedule section missing".into(),
                )
            })?;
            let cursor = cursor.ok_or_else(|| {
                CheckpointError::BadFormat(
                    "optimizer state present but cursor section missing".into(),
                )
            })?;
            Some(TrainState {
                steps: a.steps,
                lr: a.lr,
                beta1: a.beta1,
                beta2: a.beta2,
                eps: a.eps,
                weight_decay: a.weight_decay,
                moments: a.moments,
                schedule,
                cursor,
                rngs: rngs.unwrap_or_default(),
            })
        }
    };
    Ok(TrainCheckpoint { params, state })
}

/// A v1 file is magic, version, then the `PARA` payload with no framing.
fn parse_v1(bytes: &[u8]) -> Result<TrainCheckpoint, CheckpointError> {
    Ok(TrainCheckpoint {
        params: parse_params(&bytes[8..])?,
        state: None,
    })
}

/// Parses a checkpoint image (v1 or v2). All integrity checks run here;
/// any truncation, corruption, or hostile length yields
/// [`CheckpointError::BadFormat`] without large allocations or panics.
pub fn parse_checkpoint(bytes: &[u8]) -> Result<TrainCheckpoint, CheckpointError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(CheckpointError::BadFormat(format!(
            "bad magic {magic:?}, expected {MAGIC:?}"
        )));
    }
    match r.u32()? {
        1 => parse_v1(bytes),
        2 => parse_v2(bytes),
        v => Err(CheckpointError::BadFormat(format!(
            "unsupported version {v}"
        ))),
    }
}

/// Reads a full checkpoint (v1 or v2) from `r`.
pub fn read_checkpoint(r: &mut dyn Read) -> Result<TrainCheckpoint, CheckpointError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    parse_checkpoint(&bytes)
}

/// Loads a full checkpoint (v1 or v2) from a file.
pub fn load_checkpoint(path: &Path) -> Result<TrainCheckpoint, CheckpointError> {
    let bytes = std::fs::read(path)?;
    parse_checkpoint(&bytes)
}

// ---------------------------------------------------------------------
// Weight-only convenience API (kept from v1 days, now emitting v2)
// ---------------------------------------------------------------------

/// Serializes a layer's parameters to `w` (weight-only v2 checkpoint).
pub fn save_to(layer: &mut dyn Layer, w: &mut dyn Write) -> Result<(), CheckpointError> {
    write_checkpoint_to(&TrainCheckpoint::capture(layer), w)
}

/// Saves a layer's parameters to a file, atomically (see
/// [`save_checkpoint`]).
pub fn save(layer: &mut dyn Layer, path: &Path) -> Result<(), CheckpointError> {
    save_checkpoint(&TrainCheckpoint::capture(layer), path)
}

/// Reads a checkpoint (v1 or v2) into a name → tensor map.
pub fn read_from(r: &mut dyn Read) -> Result<BTreeMap<String, Tensor>, CheckpointError> {
    Ok(read_checkpoint(r)?.params)
}

/// Loads a checkpoint into a layer, strict on names and shapes.
pub fn load_from(layer: &mut dyn Layer, r: &mut dyn Read) -> Result<(), CheckpointError> {
    read_checkpoint(r)?.apply_params(layer)
}

/// Loads a checkpoint file into a layer.
pub fn load(layer: &mut dyn Layer, path: &Path) -> Result<(), CheckpointError> {
    load_checkpoint(path)?.apply_params(layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::SeededInit;
    use crate::{Encoder, Linear};

    #[test]
    fn roundtrip_linear() {
        let mut a = Linear::new(3, 4, &mut SeededInit::new(1));
        let mut buf = Vec::new();
        save_to(&mut a, &mut buf).unwrap();
        let mut b = Linear::new(3, 4, &mut SeededInit::new(999));
        assert_ne!(a.w.value.data(), b.w.value.data());
        load_from(&mut b, &mut buf.as_slice()).unwrap();
        assert_eq!(a.w.value.data(), b.w.value.data());
        assert_eq!(a.b.value.data(), b.b.value.data());
    }

    #[test]
    fn roundtrip_encoder_with_nested_names() {
        let mut a = Encoder::new(2, 8, 2, 16, 0.0, &mut SeededInit::new(2));
        let mut buf = Vec::new();
        save_to(&mut a, &mut buf).unwrap();
        let dict = read_from(&mut buf.as_slice()).unwrap();
        assert!(dict.keys().any(|k| k.starts_with("layer0/attn/wq/")));
        assert!(dict.contains_key("final_ln/gamma"));
        let mut b = Encoder::new(2, 8, 2, 16, 0.0, &mut SeededInit::new(3));
        load_from(&mut b, &mut buf.as_slice()).unwrap();
        assert_eq!(state_dict(&mut a), state_dict(&mut b));
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let mut a = Linear::new(3, 4, &mut SeededInit::new(4));
        let mut buf = Vec::new();
        save_to(&mut a, &mut buf).unwrap();
        let mut b = Linear::new(3, 5, &mut SeededInit::new(5));
        let err = load_from(&mut b, &mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    }

    #[test]
    fn missing_parameter_is_an_error() {
        let mut small = Linear::new(2, 2, &mut SeededInit::new(6));
        let mut buf = Vec::new();
        save_to(&mut small, &mut buf).unwrap();
        let mut big = Encoder::new(1, 4, 1, 8, 0.0, &mut SeededInit::new(7));
        let err = load_from(&mut big, &mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    }

    #[test]
    fn bad_magic_is_an_error() {
        let buf = b"XXXX\x01\x00\x00\x00\x00\x00\x00\x00".to_vec();
        let err = read_from(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::BadFormat(_)), "{err}");
    }

    #[test]
    fn truncated_file_is_bad_format() {
        // v2 files carry a whole-file CRC; any truncation is a clean
        // BadFormat, never a panic and never a partially loaded model.
        let mut a = Linear::new(3, 4, &mut SeededInit::new(8));
        let mut buf = Vec::new();
        save_to(&mut a, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let mut b = Linear::new(3, 4, &mut SeededInit::new(9));
        let err = load_from(&mut b, &mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::BadFormat(_)), "{err}");
    }

    #[test]
    fn repeated_section_is_bad_format() {
        // Two `PARA` sections, every CRC valid: loading the last (or the
        // first) silently would let a spliced file pass for a checkpoint.
        let mut a = Linear::new(3, 4, &mut SeededInit::new(23));
        let mut sections = checkpoint_sections(&TrainCheckpoint::capture(&mut a));
        sections.push(sections[0].clone());
        let mut buf = Vec::new();
        write_sections(&mut buf, MAGIC, VERSION, &sections).unwrap();
        match parse_checkpoint(&buf) {
            Err(CheckpointError::BadFormat(m)) => assert!(m.contains("more than once"), "{m}"),
            other => panic!("expected BadFormat, got {other:?}"),
        }
        // An unknown tag, once, is still skipped.
        sections[1].0 = *b"FUTR";
        let mut buf = Vec::new();
        write_sections(&mut buf, MAGIC, VERSION, &sections).unwrap();
        assert_eq!(parse_checkpoint(&buf).unwrap().params, state_dict(&mut a));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("ntr_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lin.ntrw");
        let mut a = Linear::new(2, 3, &mut SeededInit::new(10));
        save(&mut a, &path).unwrap();
        let mut b = Linear::new(2, 3, &mut SeededInit::new(11));
        load(&mut b, &path).unwrap();
        assert_eq!(a.w.value.data(), b.w.value.data());
        let _ = std::fs::remove_file(&path);
    }

    /// Writes the legacy v1 image for a parameter map (test-only: the
    /// writer always emits v2 now, but v1 files in the wild must load).
    fn v1_bytes(params: &BTreeMap<String, Tensor>) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        put_params(&mut buf, params);
        buf
    }

    #[test]
    fn v1_files_still_load_with_fresh_optimizer_state() {
        let mut a = Linear::new(3, 4, &mut SeededInit::new(12));
        let v1 = v1_bytes(&state_dict(&mut a));
        let ckpt = parse_checkpoint(&v1).unwrap();
        assert!(ckpt.state.is_none(), "v1 has no training state");
        let mut b = Linear::new(3, 4, &mut SeededInit::new(13));
        ckpt.apply_params(&mut b).unwrap();
        assert_eq!(a.w.value.data(), b.w.value.data());
    }

    #[test]
    fn v1_hostile_count_is_rejected_without_allocation() {
        // A v1 header declaring u32::MAX parameters (or a huge tensor)
        // must fail cleanly against the actual file size.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = parse_checkpoint(&buf).unwrap_err();
        assert!(matches!(err, CheckpointError::BadFormat(_)), "{err}");

        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // one parameter
        put_str(&mut buf, "w");
        buf.extend_from_slice(&2u32.to_le_bytes()); // ndim 2
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // 4 G rows
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // x 4 G cols
        let err = parse_checkpoint(&buf).unwrap_err();
        assert!(matches!(err, CheckpointError::BadFormat(_)), "{err}");
    }

    #[test]
    fn train_state_roundtrips_bit_exactly() {
        let mut model = Linear::new(3, 4, &mut SeededInit::new(14));
        let mut cx = crate::Cx::new(&mut model);
        let mut adam = Adam::new(1e-3).with_weight_decay(0.01);
        // Take two real steps so moments and t are non-trivial.
        for _ in 0..2 {
            let x = SeededInit::new(15).uniform(&[2, 3], -1.0, 1.0);
            let dy = SeededInit::new(16).uniform(&[2, 4], -1.0, 1.0);
            let _ = model.backward(&x, &dy, &mut cx);
            adam.step(&mut model, &cx.grads);
            cx.grads.zero();
        }
        let schedule = WarmupLinearSchedule {
            peak_lr: 1e-3,
            warmup: 3,
            total: 17,
        };
        let cursor = TrainCursor {
            epoch: 1,
            example: 5,
            seed: 0xF17E,
        };
        let ckpt = TrainCheckpoint::capture_train(&mut model, &adam, &schedule, cursor);
        let mut buf = Vec::new();
        write_checkpoint_to(&ckpt, &mut buf).unwrap();

        let parsed = parse_checkpoint(&buf).unwrap();
        let mut restored = Linear::new(3, 4, &mut SeededInit::new(99));
        let (adam2, schedule2, cursor2) = parsed
            .apply_train(&mut restored)
            .unwrap()
            .expect("training state present");
        assert_eq!(state_dict(&mut model), state_dict(&mut restored));
        assert_eq!(adam2.steps(), 2);
        assert_eq!(adam2.lr, adam.lr);
        assert_eq!(schedule2.warmup, 3);
        assert_eq!(schedule2.total, 17);
        assert_eq!(cursor2, cursor);
        // Each path's saved moments sit at its offset in the flat buffers,
        // bit for bit the moments the original Adam holds there.
        let saved = &ckpt.state.as_ref().unwrap().moments;
        let ((m, v), (m0, v0)) = ((&adam2.m, &adam2.v), (&adam.m, &adam.v));
        assert_eq!((m.len(), v.len()), (3 * 4 + 4, 3 * 4 + 4));
        let mut off = 0;
        restored.visit_params(&mut |name, p| {
            let span = off..off + p.value.numel();
            let (ms, vs) = &saved[&name.to_string()];
            assert_eq!(&m[span.clone()], ms.data(), "m of {name}");
            assert_eq!(&v[span.clone()], vs.data(), "v of {name}");
            assert_eq!(
                (&m0[span.clone()], &v0[span.clone()]),
                (ms.data(), vs.data())
            );
            off = span.end;
        });
    }

    #[test]
    fn moments_for_unknown_parameter_is_mismatch() {
        let mut model = Linear::new(2, 2, &mut SeededInit::new(17));
        let mut cx = crate::Cx::new(&mut model);
        let mut adam = Adam::new(1e-3);
        let x = ntr_tensor::Tensor::ones(&[1, 2]);
        let _ = model.backward(&x, &x, &mut cx);
        adam.step(&mut model, &cx.grads);
        let schedule = WarmupLinearSchedule {
            peak_lr: 1e-3,
            warmup: 1,
            total: 2,
        };
        let mut ckpt =
            TrainCheckpoint::capture_train(&mut model, &adam, &schedule, TrainCursor::default());
        if let Some(st) = &mut ckpt.state {
            let (m, v) = st.moments["w"].clone();
            st.moments.insert("ghost".into(), (m, v));
        }
        let mut other = Linear::new(2, 2, &mut SeededInit::new(18));
        let err = ckpt.apply_train(&mut other).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    }

    #[test]
    fn atomic_save_replaces_and_cleans_up_tmp() {
        let dir = std::env::temp_dir().join("ntr_ckpt_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ntrw");
        let tmp = dir.join("model.ntrw.tmp");
        // A stale temp file from a "crashed" earlier attempt must not
        // break or corrupt a fresh save.
        std::fs::write(&tmp, b"garbage from a crashed run").unwrap();
        let mut a = Linear::new(2, 2, &mut SeededInit::new(19));
        save(&mut a, &path).unwrap();
        assert!(!tmp.exists(), "temp file must be renamed away");
        let mut b = Linear::new(2, 2, &mut SeededInit::new(20));
        load(&mut b, &path).unwrap();
        assert_eq!(a.w.value.data(), b.w.value.data());
        // Overwriting an existing checkpoint also goes through the
        // temp+rename path and yields a valid file.
        let mut c = Linear::new(2, 2, &mut SeededInit::new(21));
        save(&mut c, &path).unwrap();
        let mut d = Linear::new(2, 2, &mut SeededInit::new(22));
        load(&mut d, &path).unwrap();
        assert_eq!(c.w.value.data(), d.w.value.data());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_and_scalar_tensors_roundtrip() {
        let mut params = BTreeMap::new();
        params.insert("empty".to_string(), Tensor::zeros(&[0]));
        params.insert("one".to_string(), Tensor::from_vec(vec![42.0], &[1]));
        params.insert("mat00".to_string(), Tensor::zeros(&[2, 0]));
        let ckpt = TrainCheckpoint {
            params,
            state: None,
        };
        let mut buf = Vec::new();
        write_checkpoint_to(&ckpt, &mut buf).unwrap();
        let parsed = parse_checkpoint(&buf).unwrap();
        assert_eq!(parsed.params["empty"].shape(), &[0]);
        assert_eq!(parsed.params["one"].data(), &[42.0]);
        assert_eq!(parsed.params["mat00"].shape(), &[2, 0]);
    }
}
