//! # ntr-bench
//!
//! The experiment harness that regenerates every figure/exercise of the
//! paper (see DESIGN.md §2 for the experiment index E1–E12). Its
//! `tests/student_gate.rs` holds the distilled student to its speed and
//! fidelity targets; `ntrbench` (its own package under `src/bin/ntrbench`)
//! is the end-to-end and per-layer benchmark.
//!
//! Run all experiments:
//!
//! ```text
//! cargo run -p ntr-bench --release --bin experiments all
//! ```
//!
//! or a subset: `cargo run -p ntr-bench --release --bin experiments e1 e6`.
//! Results are printed as markdown tables and recorded in EXPERIMENTS.md.

pub mod experiments;
pub mod report;
pub mod setup;
