//! # ntr — neural table representations
//!
//! The facade crate of the `ntr` workspace: a faithful, laptop-scale Rust
//! implementation of the framework taught in *"Models and Practice of
//! Neural Table Representations"* (SIGMOD-Companion 2023).
//!
//! The paper's Fig. 1 pipeline maps onto this API as:
//!
//! ```text
//! table corpus ─▶ input processing ─▶ transformer model ─▶ representations
//!  (ntr::corpus)   (ntr::table: serialize, (ntr::models: BERT,  (TableEncoding:
//!                   filter, mask)           TAPAS, TaBERT, TURL, cell/row/column/
//!                                           MATE, TAPEX)         table vectors)
//!                                   ─▶ fine-tune on downstream tasks (ntr::tasks)
//! ```
//!
//! ## Quickstart (the hands-on §3.1 exercise)
//!
//! ```
//! use ntr::pipeline::Pipeline;
//! use ntr::zoo::{build_encoder, EncoderSpec, ModelKind};
//! use ntr::table::Table;
//!
//! // 1. Load a table from CSV.
//! let table = Table::from_csv_str(
//!     "countries",
//!     "Country,Capital,Population\nFrance,Paris,67.8\nAustralia,Canberra,25.69\n",
//!     true,
//! )
//! .unwrap()
//! .with_caption("Population in Million by Country");
//!
//! // 2. Build a pipeline (tokenizer + linearizer) over a corpus sample.
//! let pipeline = Pipeline::builder().vocab_from_tables(&[table.clone()]).build().unwrap();
//!
//! // 3. Load a model off the shelf (at exact f32 precision) and encode.
//! let mut model =
//!     build_encoder(EncoderSpec::f32(ModelKind::Tapas), &pipeline.default_config()).unwrap();
//! let encoding = pipeline.encode(model.as_mut(), &table, &table.caption);
//!
//! // 4. Inspect the vector representations.
//! assert_eq!(encoding.table_embedding().numel(), model.d_model());
//! assert!(encoding.cell_embedding(0, 1).is_some()); // "Paris"
//! ```

pub mod pipeline;
pub mod zoo;

// Re-export the sub-crates under stable module names so downstream users
// depend on `ntr` alone.
pub use ntr_corpus as corpus;
pub use ntr_models as models;
pub use ntr_nn as nn;
pub use ntr_obs as obs;
pub use ntr_sql as sql;
pub use ntr_table as table;
pub use ntr_tasks as tasks;
pub use ntr_tensor as tensor;
pub use ntr_tokenizer as tokenizer;

pub use ntr_models::Rows;
pub use pipeline::{EncodeError, EncodeRequest, Pipeline, PipelineBuilder, TableEncoding};
pub use zoo::{build_encoder, build_mlm_model, EncoderSpec, ModelKind, QuantSpec};
