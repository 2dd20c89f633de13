//! # ntr-tasks
//!
//! Training loops, evaluation metrics, non-neural baselines and analysis
//! probes for every downstream task in the paper's §2.1:
//!
//! * [`pretrain`] — the hands-on §3.3: MLM pretraining for any encoder,
//!   joint MLM + masked-entity-recovery for TURL, and neural-SQL-executor
//!   pretraining for TAPEX — the terminal methods of one [`TrainRun`];
//! * [`distill`] — teacher–student distillation of a frozen encoder into
//!   the per-row student that serves at int8 (DESIGN.md §13);
//! * [`imputation`] — the hands-on §3.4: fine-tune for data imputation,
//!   evaluate accuracy/F1 with failure slices (numeric / headerless);
//! * [`qa`] — TAPAS-style cell-selection question answering;
//! * [`nli`] — tabular fact verification (TabFact-like);
//! * [`retrieval`] — dense table retrieval vs. a lexical baseline;
//! * [`cta`] — column type annotation (metadata prediction);
//! * [`linking`] — entity linking with TURL entity embeddings;
//! * [`text2sql`] — seq2seq semantic parsing evaluated by denotation;
//! * [`supervisor`] — `run_supervised`, the one training driver every
//!   objective and fine-tune above runs through, and its self-healing
//!   state machine: anomaly detection, checkpoint rollback, retry with LR
//!   backoff, and deterministic fault drills;
//! * [`trainer`] — the driver's state: [`TrainConfig`], checkpoint/resume
//!   options, the example stream and the scheduled optimizer;
//! * [`probes`] — §2.4's "consistency of the data representation" tests
//!   (row/column-order invariance, header sensitivity);
//! * [`aggqa`] — TAPAS-style aggregation prediction (operator + column);
//! * [`visualize`] — §3.3's attention/encoding inspection utilities;
//! * [`metrics`] — accuracy, P/R/F1, MRR, NDCG, Hits@k.

pub mod aggqa;
pub mod cta;
pub mod distill;
pub mod imputation;
pub mod linking;
pub mod metrics;
pub mod nli;
pub mod pretrain;
pub mod probes;
pub mod qa;
pub mod retrieval;
pub mod supervisor;
pub mod text2sql;
pub mod trainer;
pub mod visualize;

pub use distill::DistillReport;
pub use pretrain::TrainRun;
pub use trainer::TrainConfig;
