//! Fault-injection suite for the `NTRW` v2 checkpoint format.
//!
//! A checkpoint that crashed mid-write, hit disk corruption, or was
//! hostile-crafted must surface as a clean [`CheckpointError`] — **never** a
//! panic, never a silently wrong model. This sweep exercises every
//! byte-truncation prefix and every single-bit flip of a small real
//! checkpoint.

use ntr_nn::init::SeededInit;
use ntr_nn::optim::{Adam, WarmupLinearSchedule};
use ntr_nn::serialize::{
    parse_checkpoint, write_checkpoint_to, CheckpointError, TrainCheckpoint, TrainCursor,
};
use ntr_nn::{Cx, Linear};
use ntr_tensor::Tensor;

/// A small but fully-featured v2 checkpoint: parameters, Adam moments,
/// schedule, cursor, and an RNG stream.
fn small_checkpoint() -> Vec<u8> {
    let mut model = Linear::new(3, 2, &mut SeededInit::new(42));
    let mut cx = Cx::new(&mut model);
    let mut adam = Adam::new(1e-3).with_weight_decay(0.01);
    let _ = model.backward(&Tensor::ones(&[1, 3]), &Tensor::ones(&[1, 2]), &mut cx);
    adam.step(&mut model, &cx.grads);
    let schedule = WarmupLinearSchedule {
        peak_lr: 1e-3,
        warmup: 2,
        total: 9,
    };
    let cursor = TrainCursor {
        epoch: 1,
        example: 3,
        seed: 0xF17E,
    };
    let mut ckpt = TrainCheckpoint::capture_train(&mut model, &adam, &schedule, cursor);
    if let Some(st) = &mut ckpt.state {
        st.rngs.insert("encoder/layer0/drop1".into(), [1, 2, 3, 4]);
    }
    let mut buf = Vec::new();
    write_checkpoint_to(&ckpt, &mut buf).unwrap();
    buf
}

#[test]
fn intact_checkpoint_parses() {
    let bytes = small_checkpoint();
    let ckpt = parse_checkpoint(&bytes).expect("intact file must parse");
    assert!(ckpt.state.is_some());
    assert_eq!(ckpt.params.len(), 2, "w and b");
}

/// Every proper prefix of the file must fail cleanly. This is exactly the
/// family of states a crash mid-write could leave behind if the atomic
/// rename protocol were bypassed.
#[test]
fn every_truncation_prefix_is_rejected_without_panic() {
    let bytes = small_checkpoint();
    for len in 0..bytes.len() {
        let result = std::panic::catch_unwind(|| parse_checkpoint(&bytes[..len]))
            .unwrap_or_else(|_| panic!("parse_checkpoint PANICKED on a {len}-byte truncation"));
        match result {
            Err(CheckpointError::BadFormat(_)) => {}
            Err(other) => panic!("truncation to {len} bytes gave {other:?}, want BadFormat"),
            Ok(_) => panic!("truncation to {len} bytes silently parsed"),
        }
    }
}

/// Every single-bit flip must be detected (CRC-32 detects all single-bit
/// errors) and surface as `BadFormat` or `Mismatch` — never success, never
/// a panic.
#[test]
fn every_single_bit_flip_is_detected() {
    let bytes = small_checkpoint();
    for byte_idx in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[byte_idx] ^= 1 << bit;
            let result =
                std::panic::catch_unwind(|| parse_checkpoint(&corrupt)).unwrap_or_else(|_| {
                    panic!("parse_checkpoint PANICKED on bit {bit} of byte {byte_idx}")
                });
            match result {
                Err(CheckpointError::BadFormat(_)) | Err(CheckpointError::Mismatch(_)) => {}
                Err(CheckpointError::Io(e)) => {
                    panic!("bit {bit} of byte {byte_idx} gave Io({e}), want BadFormat/Mismatch")
                }
                Ok(_) => panic!("bit {bit} of byte {byte_idx} flipped silently"),
            }
        }
    }
}

/// Appending trailing garbage must also be rejected: the byte count is part
/// of what the file-level CRC protects.
#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = small_checkpoint();
    bytes.extend_from_slice(b"garbage");
    assert!(matches!(
        parse_checkpoint(&bytes),
        Err(CheckpointError::BadFormat(_))
    ));
}

/// Hostile headers: enormous declared section lengths, parameter counts,
/// and tensor dims must fail against the actual remaining bytes instead of
/// attempting multi-GiB allocations.
#[test]
fn hostile_declared_lengths_do_not_allocate() {
    let bytes = small_checkpoint();
    // Overwrite the first section's length field (magic 4 + version 4 +
    // n_sections 4 + tag 4 = offset 16) with u64::MAX.
    let mut hostile = bytes.clone();
    hostile[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        parse_checkpoint(&hostile),
        Err(CheckpointError::BadFormat(_))
    ));
    // And with a "plausible" huge length (1 TiB) that still exceeds the file.
    let mut hostile = bytes;
    hostile[16..24].copy_from_slice(&(1u64 << 40).to_le_bytes());
    assert!(matches!(
        parse_checkpoint(&hostile),
        Err(CheckpointError::BadFormat(_))
    ));
}
