//! `ntr` — command-line interface to the neural-table-representation
//! pipeline: inspect a CSV, preview its serializations, run mini-SQL over
//! it, or encode it with any model family.
//!
//! ```text
//! ntr inspect   data/countries.csv
//! ntr serialize data/countries.csv --strategy tapex --max-tokens 64
//! ntr query     data/countries.csv "SELECT Capital FROM t WHERE Country = 'France'"
//! ntr encode    data/countries.csv --model tapas --context "population by country"
//! ntr pretrain  data/countries.csv --trace run.jsonl --metrics metrics.json
//! ntr serve     data/countries.csv --port 7878 --max-batch 8 --workers 4
//! ntr index build idx/ --tables 500 --model bert --seed 7
//! ntr index query idx/ data/countries.csv --k 5
//! ntr serve     --index idx/ --port 7878
//! ntr trace summarize run.jsonl
//! ```

use ntr::corpus::kb::{World, WorldConfig};
use ntr::corpus::tables::{CorpusConfig, TableCorpus, TableKind};
use ntr::models::{ModelConfig, RowStudent, Rows};
use ntr::obs::trace::{parse_line, schema};
use ntr::obs::{Obs, ObsOptions};
use ntr::pipeline::{EncodeRequest, Pipeline};
use ntr::sql::{execute, parse_query};
use ntr::table::{LinearizerKind, LinearizerOptions, Table};
use ntr::tasks::distill::DEFAULT_COS_WEIGHT;
use ntr::tasks::pretrain::MlmModel;
use ntr::tasks::supervisor::SupervisorConfig;
use ntr::tasks::trainer::{TrainConfig, TrainerOptions};
use ntr::tasks::TrainRun;
use ntr::tensor::faults::FaultPlan;
use ntr::zoo::{build_encoder, build_mlm_model, EncoderSpec, ModelKind, QuantSpec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  ntr inspect   <table.csv> [--no-header]
  ntr serialize <table.csv> [--strategy row-major|template|column-major|tapex|turl]
                            [--max-tokens N] [--context TEXT] [--no-header]
  ntr query     <table.csv> <SQL> [--no-header]
  ntr encode    <table.csv> [--model bert|tapas|turl|mate|row-student]
                            [--precision f32|int8] [--context TEXT] [--no-header]
  ntr pretrain  <table.csv> [--model bert|tapas|turl|mate] [--epochs N] [--batch-size N]
                            [--max-tokens N] [--seed N] [--save PATH]
                            [--checkpoint PATH] [--checkpoint-every N] [--resume PATH]
                            [--halt-after N] [--no-header]
                            [--clip-norm F] [--rollback] [--max-retries N] [--faults SPEC]
                            [--snapshot-every N] [--trace PATH] [--metrics PATH]
  ntr distill   <table.csv> [--teacher bert|tapas|turl|mate] [--teacher-ckpt PATH]
                            [--epochs N] [--batch-size N] [--max-tokens N] [--seed N]
                            [--cos-weight F] [--save PATH]
                            [--checkpoint PATH] [--checkpoint-every N] [--resume PATH]
                            [--halt-after N] [--trace PATH] [--metrics PATH] [--no-header]
  ntr serve     <vocab.csv> [--port N] [--max-batch N]
                            [--cache-mb N] [--workers N] [--queue-cap N]
                            [--max-conns N] [--idle-timeout-ms N]
                            [--request-timeout-ms N] [--faults SPEC]
                            [--trace PATH] [--metrics PATH] [--no-header]
  ntr serve     --index <dir> [...same flags; <vocab.csv> is omitted]
  ntr index build <dir> [--tables N] [--model bert|tapas|turl|mate|row-student]
                        [--precision f32|int8] [--nlist N]
                        [--seed N] [--vocab-size N] [--max-tokens N]
                        [--trace PATH] [--metrics PATH]
  ntr index query <dir> <table.csv> [--k N] [--nprobe N] [--context TEXT]
                        [--no-header] [--trace PATH] [--metrics PATH]
  ntr trace summarize <trace.jsonl>
  ntr trace validate  <trace.jsonl>

  --no-header: treat the first CSV record as data and use synthetic col0..N names
  pretrain: MLM-pretrain on the CSV; --checkpoint-every writes a crash-safe full
  training checkpoint (weights + optimizer + cursor) every N steps; --resume
  continues a run bit-identically from such a checkpoint.
  Self-healing supervisor: --clip-norm clips the global gradient norm;
  --rollback restores the last good checkpoint on NaN/Inf/loss-spike anomalies,
  skips the offending batch, and retries (at most --max-retries times, default 3)
  before aborting with a typed error; --faults injects deterministic failures
  for drills, e.g. 'nan@120,panic@300,crash@450,corrupt-ckpt@500' (the
  NTR_FAULTS env var is the fallback). All supervisor features default to off,
  leaving training bit-identical to previous releases.
  Observability: --trace appends one JSONL event per step / anomaly / rollback /
  checkpoint to PATH; --metrics writes a counter+histogram snapshot (JSON) at
  run end; --snapshot-every N deep-snapshots the model for rollback only every
  N good steps (default 1 = every step). Both sinks default to off and are
  bit-identical no-ops when unset.
  distill: trains a per-row student encoder against a frozen --teacher
  (optionally restored from --teacher-ckpt) by MSE + cosine matching of the
  teacher's pooled row embeddings (--cos-weight sets the cosine term, default
  0.5). --save writes the student checkpoint; serve it back with
  --model row-student and --precision int8 for quantized inference. The
  checkpoint/resume/trace/metrics flags behave exactly as in pretrain.
  encode / index build: --precision int8 runs the row-student's symmetric
  per-row int8 path (integer-exact, so bit-identical across SIMD lanes and
  thread counts); int8 on a teacher family is a typed BadModelChoice error.
  index build stamps model and precision into the store metadata so queries
  and serve --index reconstruct the same encoder.
  serve: newline-delimited-JSON embedding server over TCP on 127.0.0.1. The
  CSV trains the vocabulary; clients send
  {\"id\":1,\"model\":\"tapas\",\"context\":\"...\",\"columns\":[...],\"rows\":[[...]]}
  per line and get the table embedding (or a typed error) back; each flush
  takes what is queued (up to --max-batch) across --workers model replicas
  with an LRU embedding cache of --cache-mb megabytes (0 disables). Batching
  is bit-identical to sequential encoding. {\"cmd\":\"shutdown\"} drains and
  exits; --port 0 picks an ephemeral port (printed on startup).
  All connections share one event-loop thread (no thread per connection):
  --max-conns caps concurrent connections (excess get a typed Overloaded line),
  --queue-cap bounds the submit queue ahead of the micro-batcher (0 = unbounded;
  requests past the cap are shed with {\"error\":{\"kind\":\"Overloaded\"}}), and
  --idle-timeout-ms closes connections that make no progress (or never read
  their responses) for that long. Oversized request lines (>1 MiB) are
  discarded with a LineTooLong error without buffering.
  Self-healing serve: panics in the flush path are isolated — every affected
  request gets a typed Internal error, the faulty replica is quarantined and
  rebuilt bit-identically, and the batcher restarts with bounded backoff.
  --request-timeout-ms sets a default per-request deadline (0 = none; a
  request's own \"timeout_ms\" field overrides it) answered with
  DeadlineExceeded when missed; clustered internal faults flip the service
  into cache-only degraded mode (misses get a typed Degraded error) until a
  half-open probe batch succeeds. {\"cmd\":\"health\"} reports
  state (ok|degraded|draining), queue depth, restart/quarantine counts, and
  per-replica status. --faults injects deterministic serve drills,
  e.g. 'serve-panic@50,serve-slow@120' (@N counts flushes; NTR_FAULTS env
  var is the fallback).
  index build: encodes the synthetic-KB table corpus (--tables tables grown
  from --seed) with --model via the batch pipeline and writes an embedding
  store (store.ntrs) plus an IVF-flat ANN index (index.ntri) into <dir>.
  Both files are crash-safe (temp + fsync + rename, per-section CRCs) and
  byte-identical for a given seed; --nlist 0 (the default) picks sqrt(n)
  clusters. The store's metadata records every generation parameter, so
  later commands rebuild the exact pipeline + model the index was built with.
  index query: encodes <table.csv> with that reconstructed pipeline and
  prints the --k nearest stored tables by squared L2 (ties broken by id);
  --nprobe widens the cluster scan (default nlist/8, clamped to [1, nlist]).
  serve --index: loads <dir> and additionally answers the
  {\"cmd\":\"search\",\"k\":K,...} verb: the query table is encoded through
  the micro-batcher (deadlines, shedding, and degraded mode all apply), then
  looked up in the IVF index; a missing index or unusable k comes back as a
  typed IndexNotLoaded / BadK error.
  trace summarize: per-event table plus loss-curve stats from a trace file.
  trace validate: checks every line against the v1 trace schema";

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "inspect" => inspect(rest),
        "serialize" => serialize(rest),
        "query" => query(rest),
        "encode" => encode(rest),
        "pretrain" => pretrain(rest),
        "distill" => distill(rest),
        "serve" => serve(rest),
        "index" => index_cmd(rest),
        "trace" => trace_cmd(rest),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn load_table(rest: &[String]) -> Result<(Table, Vec<String>), String> {
    let (path, flags) = rest.split_first().ok_or("missing <table.csv>")?;
    let table = if flags.iter().any(|f| f == "--no-header") {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let id = Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "table".to_string());
        Table::from_csv_str(&id, &text, false).map_err(|e| e.to_string())?
    } else {
        Table::from_csv_path(Path::new(path)).map_err(|e| e.to_string())?
    };
    Ok((table, flags.to_vec()))
}

fn flag_value<'a>(flags: &'a [String], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .position(|f| f == name)
        .and_then(|i| flags.get(i + 1))
        .map(String::as_str)
        // Another flag in value position means the value was omitted.
        .filter(|v| !v.starts_with("--"))
}

fn inspect(rest: &[String]) -> Result<(), String> {
    let (table, _) = load_table(rest)?;
    println!(
        "table `{}`: {} rows x {} cols, {:.0}% null, headers {}",
        table.id,
        table.n_rows(),
        table.n_cols(),
        table.null_fraction() * 100.0,
        if table.is_headerless() {
            "synthetic"
        } else {
            "descriptive"
        }
    );
    println!("\ncolumns:");
    for (i, col) in table.columns().iter().enumerate() {
        let sample = if table.n_rows() > 0 {
            table.cell(0, i).text()
        } else {
            ""
        };
        println!(
            "  {i:>2}  {:<20} {:<8} e.g. {sample:?}",
            col.name,
            col.sem_type.name()
        );
    }
    Ok(())
}

fn serialize(rest: &[String]) -> Result<(), String> {
    let (table, flags) = load_table(rest)?;
    let strategy = flag_value(&flags, "--strategy").unwrap_or("row-major");
    let lin =
        LinearizerKind::parse(strategy).ok_or_else(|| format!("unknown strategy {strategy:?}"))?;
    let max_tokens: usize = flag_value(&flags, "--max-tokens")
        .map(|v| v.parse().map_err(|_| format!("bad --max-tokens {v:?}")))
        .transpose()?
        .unwrap_or(256);
    let context = flag_value(&flags, "--context")
        .unwrap_or(&table.caption)
        .to_string();

    let pipeline = Pipeline::builder()
        .vocab_from_tables(std::slice::from_ref(&table))
        .vocab_from_texts(std::slice::from_ref(&context))
        .linearizer(lin)
        .options(LinearizerOptions {
            max_tokens,
            ..Default::default()
        })
        .build()
        .map_err(|e| e.to_string())?;
    let e = pipeline.serialize(&table, &context);
    println!(
        "strategy {} | {} tokens | {} rows encoded | {} rows truncated\n",
        e.linearizer(),
        e.len(),
        e.n_rows_encoded(),
        e.truncated_rows()
    );
    println!(
        "{:>4} {:<14} {:>3} {:>3} {:>4} {:<9}",
        "pos", "token", "row", "col", "rank", "kind"
    );
    for (i, (&id, m)) in e.ids().iter().zip(e.meta()).enumerate() {
        let kind = match m.kind {
            ntr::table::TokenKind::Special => "special",
            ntr::table::TokenKind::Context => "context",
            ntr::table::TokenKind::Header => "header",
            ntr::table::TokenKind::Cell => "cell",
            ntr::table::TokenKind::Template => "template",
        };
        println!(
            "{i:>4} {:<14} {:>3} {:>3} {:>4} {kind:<9}",
            pipeline.tokenizer().vocab().token_of(id),
            m.row,
            m.col,
            m.rank
        );
    }
    Ok(())
}

fn query(rest: &[String]) -> Result<(), String> {
    let (table, flags) = load_table(rest)?;
    // The SQL is the first positional (non-flag) argument, so flags may
    // appear on either side of it.
    let sql = flags
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("missing SQL (quote it)")?;
    let q = parse_query(sql).map_err(|e| e.to_string())?;
    let ans = execute(&q, &table).map_err(|e| e.to_string())?;
    for v in &ans.values {
        println!("{v}");
    }
    eprintln!("({} value(s))", ans.values.len());
    Ok(())
}

fn parsed_flag<T: std::str::FromStr>(
    flags: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag_value(flags, name) {
        Some(v) => v.parse().map_err(|_| format!("bad {name} {v:?}")),
        None => Ok(default),
    }
}

fn pretrain(rest: &[String]) -> Result<(), String> {
    let (table, flags) = load_table(rest)?;
    let kind: ModelKind = flag_value(&flags, "--model").unwrap_or("tapas").parse()?;
    let cfg = TrainConfig {
        epochs: parsed_flag(&flags, "--epochs", 3)?,
        batch_size: parsed_flag(&flags, "--batch-size", 4)?,
        seed: parsed_flag(&flags, "--seed", TrainConfig::default().seed)?,
        ..TrainConfig::default()
    };
    let max_tokens: usize = parsed_flag(&flags, "--max-tokens", 128)?;
    let every: u64 = parsed_flag(&flags, "--checkpoint-every", 1)?;
    let topts = TrainerOptions {
        checkpoint: flag_value(&flags, "--checkpoint").map(|p| (PathBuf::from(p), every)),
        resume: flag_value(&flags, "--resume").map(PathBuf::from),
        halt_after: flag_value(&flags, "--halt-after")
            .map(|v| v.parse().map_err(|_| format!("bad --halt-after {v:?}")))
            .transpose()?,
        obs: ObsOptions {
            trace: flag_value(&flags, "--trace").map(PathBuf::from),
            metrics: flag_value(&flags, "--metrics").map(PathBuf::from),
        },
    };
    let faults = match flag_value(&flags, "--faults") {
        Some(spec) => Some(FaultPlan::parse(spec).map_err(|e| format!("bad --faults: {e}"))?),
        None => FaultPlan::from_env().map_err(|e| format!("bad NTR_FAULTS: {e}"))?,
    };
    let scfg = SupervisorConfig {
        clip_norm: flag_value(&flags, "--clip-norm")
            .map(|v| v.parse().map_err(|_| format!("bad --clip-norm {v:?}")))
            .transpose()?,
        rollback: flags.iter().any(|f| f == "--rollback"),
        max_retries: parsed_flag(&flags, "--max-retries", 3)?,
        spike_factor: 4.0,
        ema_alpha: 0.1,
        lr_backoff: 0.5,
        snapshot_every: parsed_flag(&flags, "--snapshot-every", 1)?,
        faults,
    };

    // Split the table's rows into per-row shards so one CSV yields a small
    // corpus of training examples rather than a single one.
    let mut tables = Vec::new();
    for r in 0..table.n_rows().max(1) {
        if table.n_rows() > 1 {
            let hi = (r + 2).min(table.n_rows());
            let idx: Vec<usize> = (r..hi).collect();
            tables.push(table.select_rows(&idx));
        } else {
            tables.push(table.clone());
        }
    }
    let kinds = vec![TableKind::Employees; tables.len()];
    let corpus = TableCorpus { tables, kinds };

    let pipeline = Pipeline::builder()
        .vocab_from_tables(&corpus.tables)
        .build()
        .map_err(|e| e.to_string())?;
    let tok = pipeline.tokenizer();
    let model_cfg = ModelConfig {
        vocab_size: tok.vocab_size(),
        n_entities: 1,
        ..ModelConfig::tiny(tok.vocab_size())
    };

    #[allow(clippy::too_many_arguments)]
    fn run_mlm<M: MlmModel>(
        mut model: M,
        corpus: &TableCorpus,
        tok: &ntr::tokenizer::WordPieceTokenizer,
        cfg: &TrainConfig,
        max_tokens: usize,
        topts: &TrainerOptions,
        scfg: &SupervisorConfig,
        save: Option<&str>,
    ) -> Result<(usize, f32, f32), String> {
        let report = TrainRun::new(*cfg)
            .max_tokens(max_tokens)
            .trainer(topts)
            .supervisor(scfg)
            .mlm(&mut model, corpus, tok)
            .map_err(|e| e.to_string())?;
        if let Some(path) = save {
            ntr::nn::serialize::save(&mut model, Path::new(path)).map_err(|e| e.to_string())?;
        }
        let n = report.mlm_loss.len();
        let first = report.mlm_loss.first().copied().unwrap_or(0.0);
        let last = report.mlm_loss.last().copied().unwrap_or(0.0);
        Ok((n, first, last))
    }

    let save = flag_value(&flags, "--save");
    let model = build_mlm_model(kind, &model_cfg).map_err(|e| e.to_string())?;
    let (steps, first, last) = run_mlm(model, &corpus, tok, &cfg, max_tokens, &topts, &scfg, save)?;
    println!(
        "model {} | {} optimizer step(s) this run | mlm loss {first:.4} -> {last:.4}",
        kind.name(),
        steps
    );
    if let Some((path, every)) = &topts.checkpoint {
        println!("checkpointing to {} every {every} step(s)", path.display());
    }
    if let Some(path) = &topts.resume {
        println!("resumed from {}", path.display());
    }
    if scfg.enabled() {
        println!(
            "supervisor: clip-norm {} | rollback {} | max-retries {} | faults {}",
            scfg.clip_norm.map_or("off".to_string(), |c| format!("{c}")),
            if scfg.rollback { "on" } else { "off" },
            scfg.max_retries,
            scfg.faults.as_ref().map_or("none".to_string(), |p| format!(
                "{} armed",
                p.faults().len()
            )),
        );
    }
    Ok(())
}

fn distill(rest: &[String]) -> Result<(), String> {
    let (table, flags) = load_table(rest)?;
    let teacher_kind: ModelKind = flag_value(&flags, "--teacher").unwrap_or("tapas").parse()?;
    if teacher_kind == ModelKind::RowStudent {
        return Err("the teacher must be a full-context family, not row-student".into());
    }
    let cfg = TrainConfig {
        epochs: parsed_flag(&flags, "--epochs", 3)?,
        batch_size: parsed_flag(&flags, "--batch-size", 4)?,
        seed: parsed_flag(&flags, "--seed", TrainConfig::default().seed)?,
        ..TrainConfig::default()
    };
    let max_tokens: usize = parsed_flag(&flags, "--max-tokens", 128)?;
    let cos_weight: f32 = parsed_flag(&flags, "--cos-weight", DEFAULT_COS_WEIGHT)?;
    let every: u64 = parsed_flag(&flags, "--checkpoint-every", 1)?;
    let topts = TrainerOptions {
        checkpoint: flag_value(&flags, "--checkpoint").map(|p| (PathBuf::from(p), every)),
        resume: flag_value(&flags, "--resume").map(PathBuf::from),
        halt_after: flag_value(&flags, "--halt-after")
            .map(|v| v.parse().map_err(|_| format!("bad --halt-after {v:?}")))
            .transpose()?,
        obs: ObsOptions {
            trace: flag_value(&flags, "--trace").map(PathBuf::from),
            metrics: flag_value(&flags, "--metrics").map(PathBuf::from),
        },
    };
    let scfg = SupervisorConfig::default();

    // The same per-row sharding as pretrain: one CSV becomes a small corpus
    // of (overlapping) row windows, so the student sees many examples.
    let mut tables = Vec::new();
    for r in 0..table.n_rows().max(1) {
        if table.n_rows() > 1 {
            let hi = (r + 2).min(table.n_rows());
            let idx: Vec<usize> = (r..hi).collect();
            tables.push(table.select_rows(&idx));
        } else {
            tables.push(table.clone());
        }
    }
    let kinds = vec![TableKind::Employees; tables.len()];
    let corpus = TableCorpus { tables, kinds };

    let pipeline = Pipeline::builder()
        .vocab_from_tables(&corpus.tables)
        .build()
        .map_err(|e| e.to_string())?;
    let tok = pipeline.tokenizer();
    let model_cfg = ModelConfig {
        vocab_size: tok.vocab_size(),
        n_entities: 1,
        ..ModelConfig::tiny(tok.vocab_size())
    };

    let mut teacher =
        build_encoder(EncoderSpec::f32(teacher_kind), &model_cfg).map_err(|e| e.to_string())?;
    if let Some(path) = flag_value(&flags, "--teacher-ckpt") {
        ntr::nn::serialize::load(teacher.as_mut(), Path::new(path))
            .map_err(|e| format!("bad --teacher-ckpt: {e}"))?;
    }
    let mut student = RowStudent::new(&model_cfg);
    let report = TrainRun::new(cfg)
        .max_tokens(max_tokens)
        .trainer(&topts)
        .supervisor(&scfg)
        .distill(&mut student, teacher.as_mut(), cos_weight, &corpus, tok)
        .map_err(|e| e.to_string())?;
    if let Some(path) = flag_value(&flags, "--save") {
        ntr::nn::serialize::save(&mut student, Path::new(path)).map_err(|e| e.to_string())?;
    }
    let first = report.loss.first().copied().unwrap_or(0.0);
    let last = report.loss.last().copied().unwrap_or(0.0);
    println!(
        "teacher {} -> row-student | {} optimizer step(s) this run | distill loss {first:.4} -> {last:.4} | final cosine {:.4}",
        teacher_kind.name(),
        report.loss.len(),
        report.final_cosine()
    );
    if let Some((path, every)) = &topts.checkpoint {
        println!("checkpointing to {} every {every} step(s)", path.display());
    }
    if let Some(path) = &topts.resume {
        println!("resumed from {}", path.display());
    }
    Ok(())
}

fn open_obs(flags: &[String]) -> Result<Obs, String> {
    Obs::open(&ObsOptions {
        trace: flag_value(flags, "--trace").map(PathBuf::from),
        metrics: flag_value(flags, "--metrics").map(PathBuf::from),
    })
    .map_err(|e| e.to_string())
}

/// Everything that pins an index's embedding space: the synthetic-KB
/// generation parameters, vocabulary size, token budget, and model family.
/// `index build` stamps these into the store's metadata so `index query`
/// and `serve --index` reconstruct the exact pipeline + model the vectors
/// were produced with (the repo's bit-identical-encode guarantee does the
/// rest).
struct IndexParams {
    kind: ModelKind,
    precision: QuantSpec,
    n_tables: usize,
    seed: u64,
    vocab_size: usize,
    max_tokens: usize,
}

impl IndexParams {
    fn from_flags(flags: &[String]) -> Result<Self, String> {
        Ok(Self {
            kind: flag_value(flags, "--model").unwrap_or("bert").parse()?,
            precision: flag_value(flags, "--precision").unwrap_or("f32").parse()?,
            n_tables: parsed_flag(flags, "--tables", 200)?,
            seed: parsed_flag(flags, "--seed", 7)?,
            vocab_size: parsed_flag(flags, "--vocab-size", 600)?,
            max_tokens: parsed_flag(flags, "--max-tokens", 64)?,
        })
    }

    fn from_meta(store: &ntr_index::EmbeddingStore) -> Result<Self, String> {
        fn get<T: std::str::FromStr>(
            store: &ntr_index::EmbeddingStore,
            key: &str,
        ) -> Result<T, String> {
            store
                .meta_get(key)
                .ok_or_else(|| format!("index metadata is missing {key:?}; rebuild the index"))?
                .parse()
                .map_err(|_| format!("index metadata {key:?} is unparseable"))
        }
        let name = store
            .meta_get("model")
            .ok_or("index metadata is missing \"model\"; rebuild the index")?;
        Ok(Self {
            kind: name.parse()?,
            // Indexes built before the precision stamp existed are f32.
            precision: store.meta_get("precision").unwrap_or("f32").parse()?,
            n_tables: get(store, "n_tables")?,
            seed: get(store, "seed")?,
            vocab_size: get(store, "vocab_size")?,
            max_tokens: get(store, "max_tokens")?,
        })
    }

    fn spec(&self) -> EncoderSpec {
        EncoderSpec::new(self.kind, self.precision)
    }

    fn stamp(&self, store: &mut ntr_index::EmbeddingStore) {
        store.set_meta("model", self.kind.name());
        store.set_meta("precision", self.precision.name());
        store.set_meta("dim", store.dim().to_string());
        store.set_meta("n_tables", self.n_tables.to_string());
        store.set_meta("seed", self.seed.to_string());
        store.set_meta("vocab_size", self.vocab_size.to_string());
        store.set_meta("max_tokens", self.max_tokens.to_string());
    }

    /// Deterministically regrows the corpus and rebuilds the pipeline and
    /// model configuration these parameters describe.
    fn stack(&self) -> Result<(TableCorpus, Pipeline, ModelConfig), String> {
        let world = World::generate(WorldConfig {
            seed: self.seed,
            ..WorldConfig::default()
        });
        let corpus = TableCorpus::generate(
            &world,
            &CorpusConfig {
                n_tables: self.n_tables,
                seed: self.seed,
                headerless_prob: 0.0,
                ..CorpusConfig::default()
            },
        );
        let pipeline = Pipeline::builder()
            .vocab_from_tables(&corpus.tables)
            .vocab_size(self.vocab_size)
            .encoder(self.spec())
            .options(LinearizerOptions {
                max_tokens: self.max_tokens,
                ..LinearizerOptions::default()
            })
            .build()
            .map_err(|e| e.to_string())?;
        let model_cfg = ModelConfig::tiny(pipeline.tokenizer().vocab_size());
        Ok((corpus, pipeline, model_cfg))
    }
}

fn index_cmd(rest: &[String]) -> Result<(), String> {
    let (verb, rest) = rest
        .split_first()
        .ok_or("missing index verb (build|query)")?;
    match verb.as_str() {
        "build" => index_build(rest),
        "query" => index_query(rest),
        other => Err(format!("unknown index verb {other:?}")),
    }
}

fn index_build(rest: &[String]) -> Result<(), String> {
    let (dir, flags) = rest.split_first().ok_or("missing <index-dir>")?;
    let flags = flags.to_vec();
    let params = IndexParams::from_flags(&flags)?;
    let obs = open_obs(&flags)?;
    let (corpus, pipeline, model_cfg) = params.stack()?;
    let model = build_encoder(params.spec(), &model_cfg).map_err(|e| e.to_string())?;

    let t_encode = std::time::Instant::now();
    let mut store = ntr_index::EmbeddingStore::new(model_cfg.d_model);
    let reqs: Vec<EncodeRequest> = corpus
        .tables
        .iter()
        .map(|t| EncodeRequest::captioned(t.clone()))
        .collect();
    for chunk in reqs.chunks(32) {
        let encs = pipeline
            .encode_batch(model.as_ref(), chunk)
            .map_err(|e| e.to_string())?;
        for (req, enc) in chunk.iter().zip(&encs) {
            store
                .push(req.table.id.clone(), enc.table_embedding().data())
                .map_err(|e| e.to_string())?;
        }
    }
    let encode_ms = t_encode.elapsed().as_millis() as u64;
    params.stamp(&mut store);

    let t_build = std::time::Instant::now();
    let ivf = ntr_index::IvfIndex::build(
        &store,
        &ntr_index::IvfConfig {
            nlist: parsed_flag(&flags, "--nlist", 0usize)?,
            seed: params.seed,
            ..ntr_index::IvfConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let build_ms = t_build.elapsed().as_millis() as u64;

    let dir = Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let store_bytes = store
        .save(&dir.join(ntr_index::SearchIndex::STORE_FILE))
        .map_err(|e| e.to_string())?;
    let ivf_bytes = ivf
        .save(&dir.join(ntr_index::SearchIndex::IVF_FILE))
        .map_err(|e| e.to_string())?;

    if let Some(ev) = obs.event("index_build") {
        ev.u64("tables", store.len() as u64)
            .u64("dim", store.dim() as u64)
            .u64("nlist", ivf.nlist() as u64)
            .u64("seed", params.seed)
            .u64("bytes", store_bytes + ivf_bytes)
            .u64("encode_ms", encode_ms)
            .u64("build_ms", build_ms)
            .finish();
    }
    obs.inc("index/builds");
    obs.add("index/bytes", store_bytes + ivf_bytes);
    obs.write_metrics().map_err(|e| e.to_string())?;
    println!(
        "indexed {} table(s) ({} dim, model {}) into {} | {} cluster(s) | {} byte(s) | encode {encode_ms} ms | build {build_ms} ms",
        store.len(),
        store.dim(),
        params.spec(),
        dir.display(),
        ivf.nlist(),
        store_bytes + ivf_bytes
    );
    Ok(())
}

fn index_query(rest: &[String]) -> Result<(), String> {
    let (dir, rest) = rest.split_first().ok_or("missing <index-dir>")?;
    let idx = ntr_index::SearchIndex::open(Path::new(dir)).map_err(|e| e.to_string())?;
    let params = IndexParams::from_meta(&idx.store)?;
    let (table, flags) = load_table(rest)?;
    let obs = open_obs(&flags)?;
    let k: usize = parsed_flag(&flags, "--k", 10)?;
    let nprobe: Option<usize> = flag_value(&flags, "--nprobe")
        .map(|v| v.parse().map_err(|_| format!("bad --nprobe {v:?}")))
        .transpose()?;
    let context = flag_value(&flags, "--context")
        .unwrap_or(&table.caption)
        .to_string();

    let (_, pipeline, model_cfg) = params.stack()?;
    let model = build_encoder(params.spec(), &model_cfg).map_err(|e| e.to_string())?;
    let t0 = std::time::Instant::now();
    let encoded = pipeline.serialize(&table, &context);
    let enc = pipeline.encode_serialized(model.as_ref(), encoded, Rows::CLS);
    let res = idx
        .search(enc.table_embedding().data(), k, nprobe)
        .map_err(|e| e.to_string())?;
    let query_ms = t0.elapsed().as_millis() as u64;

    if let Some(ev) = obs.event("index_query") {
        ev.u64("k", k as u64)
            .u64(
                "nprobe",
                nprobe.unwrap_or_else(|| idx.ivf.default_nprobe()) as u64,
            )
            .u64("results", res.hits.len() as u64)
            .u64("scanned", res.scanned as u64)
            .u64("query_ms", query_ms)
            .finish();
    }
    obs.inc("index/searches");
    obs.write_metrics().map_err(|e| e.to_string())?;

    println!(
        "top {} of {} stored table(s) ({} scanned, model {}):",
        res.hits.len(),
        idx.store.len(),
        res.scanned,
        params.spec()
    );
    println!("{:>4} {:<24} {:>12}", "rank", "table_id", "distance");
    for (rank, (id, dist)) in res.hits.iter().enumerate() {
        println!("{rank:>4} {:<24} {dist:>12.6}", idx.store.id(*id as usize));
    }
    Ok(())
}

fn serve(rest: &[String]) -> Result<(), String> {
    // With --index the vocabulary, token budget, and model configuration
    // are reconstructed from the index's own metadata — query embeddings
    // must live in the stored embedding space — and the <vocab.csv>
    // positional is omitted.
    let (pipeline, model_config, index, flags) = match flag_value(rest, "--index") {
        Some(dir) => {
            let idx = ntr_index::SearchIndex::open(Path::new(dir)).map_err(|e| e.to_string())?;
            let params = IndexParams::from_meta(&idx.store)?;
            let (_, pipeline, model_cfg) = params.stack()?;
            (
                pipeline,
                Some(model_cfg),
                Some(std::sync::Arc::new(idx)),
                rest.to_vec(),
            )
        }
        None => {
            let (table, flags) = load_table(rest)?;
            let pipeline = Pipeline::builder()
                .vocab_from_tables(std::slice::from_ref(&table))
                .build()
                .map_err(|e| e.to_string())?;
            (pipeline, None, None, flags)
        }
    };
    let port: u16 = parsed_flag(&flags, "--port", 7878)?;
    // Same grammar and env fallback as `pretrain --faults`; the serve
    // faults are `serve-panic@N` / `serve-slow@N` with `@N` counting
    // flushes.
    let faults = match flag_value(&flags, "--faults") {
        Some(spec) => Some(FaultPlan::parse(spec).map_err(|e| format!("bad --faults: {e}"))?),
        None => FaultPlan::from_env().map_err(|e| format!("bad NTR_FAULTS: {e}"))?,
    };
    let timeout_ms: u64 = parsed_flag(&flags, "--request-timeout-ms", 0u64)?;
    let cfg = ntr_serve::ServeConfig {
        max_batch: parsed_flag(&flags, "--max-batch", 8)?,
        n_workers: parsed_flag(&flags, "--workers", 0).map(|w: usize| {
            if w == 0 {
                ntr::tensor::par::max_threads()
            } else {
                w
            }
        })?,
        cache_bytes: parsed_flag(&flags, "--cache-mb", 32usize)? << 20,
        queue_cap: parsed_flag(&flags, "--queue-cap", 256usize)?,
        model_config,
        default_timeout: (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms)),
        faults,
        ..Default::default()
    };
    let server_cfg = ntr_serve::ServerConfig {
        max_conns: parsed_flag(&flags, "--max-conns", 1024usize)?,
        idle_timeout: std::time::Duration::from_millis(parsed_flag(
            &flags,
            "--idle-timeout-ms",
            30_000u64,
        )?),
        ..Default::default()
    };
    let obs = open_obs(&flags)?;
    let server = ntr_serve::Server::start_with_index(pipeline, cfg, server_cfg, port, obs, index)
        .map_err(|e| e.to_string())?;
    // Scripts scrape this line for the (possibly ephemeral) port.
    println!("listening on {}", server.addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let stats = server.wait();
    let svc = stats.service;
    println!(
        "served {} request(s) in {} batch(es) | {} error(s) | {} shed | cache {} hit(s) / {} miss(es) / {} eviction(s) | p50 {} ms | p99 {} ms",
        svc.requests,
        svc.batches,
        svc.errors,
        svc.shed,
        svc.cache.hits,
        svc.cache.misses,
        svc.cache.evictions,
        svc.p50_ms,
        svc.p99_ms
    );
    if svc.internal + svc.restarts + svc.quarantined + svc.deadline_exceeded + svc.degraded_rejects
        > 0
    {
        println!(
            "self-healing: {} internal error(s) | {} batcher restart(s) | {} quarantine(s) | {} deadline(s) exceeded | {} degraded reject(s) / {} probe(s)",
            svc.internal,
            svc.restarts,
            svc.quarantined,
            svc.deadline_exceeded,
            svc.degraded_rejects,
            svc.degraded_probes
        );
    }
    let ev = stats.event_loop;
    println!(
        "connections: {} accepted | {} rejected | {} accept error(s) | {} idle close(s) | {} slow close(s) | {} oversized line(s)",
        ev.conns_accepted,
        ev.conns_rejected,
        ev.accept_errors,
        ev.idle_closes,
        ev.slow_closes,
        ev.oversized_lines
    );
    Ok(())
}

fn trace_cmd(rest: &[String]) -> Result<(), String> {
    let (verb, rest) = rest
        .split_first()
        .ok_or("missing trace verb (summarize|validate)")?;
    if !matches!(verb.as_str(), "summarize" | "validate") {
        return Err(format!("unknown trace verb {verb:?}"));
    }
    let path = rest.first().ok_or("missing <trace.jsonl>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    match verb.as_str() {
        "validate" => {
            let n = schema::validate_trace(&text)?;
            println!("{path}: {n} event(s), all valid against trace schema v1");
            Ok(())
        }
        _ => summarize_trace(path, &text),
    }
}

/// Prints a per-event-kind table and loss-curve stats for a JSONL trace.
fn summarize_trace(path: &str, text: &str) -> Result<(), String> {
    // Per-event-kind tallies, in schema order so the table is stable.
    let kinds: Vec<&str> = schema::EVENTS.iter().map(|e| e.name).collect();
    let mut counts = vec![0u64; kinds.len()];
    let mut first_ms = vec![None::<u64>; kinds.len()];
    let mut last_ms = vec![0u64; kinds.len()];
    let mut losses: Vec<f64> = Vec::new();
    let mut anomalies: Vec<(String, u64)> = Vec::new();
    let mut retries = 0u64;
    let mut ckpt_bytes = 0u64;
    let mut tokens = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields = parse_line(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let get = |k: &str| {
            fields
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, raw)| raw.as_str())
        };
        let ev = get("ev").ok_or_else(|| format!("{path}:{}: missing ev", i + 1))?;
        let ev = ev.trim_matches('"').to_string();
        let slot = kinds
            .iter()
            .position(|k| *k == ev)
            .ok_or_else(|| format!("{path}:{}: unknown event {ev:?}", i + 1))?;
        counts[slot] += 1;
        if let Some(ms) = get("wall_ms").and_then(|v| v.parse::<u64>().ok()) {
            first_ms[slot].get_or_insert(ms);
            last_ms[slot] = last_ms[slot].max(ms);
        }
        match ev.as_str() {
            "step" => {
                if let Some(l) = get("loss").and_then(|v| v.parse::<f64>().ok()) {
                    losses.push(l);
                }
                tokens += get("tokens")
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
            "anomaly" => {
                let kind = get("kind").unwrap_or("\"?\"").trim_matches('"').to_string();
                match anomalies.iter_mut().find(|(k, _)| *k == kind) {
                    Some((_, n)) => *n += 1,
                    None => anomalies.push((kind, 1)),
                }
            }
            "rollback" => retries += 1,
            "ckpt_save" => {
                ckpt_bytes += get("bytes")
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
            _ => {}
        }
    }

    println!("{path}: {} event(s)\n", counts.iter().sum::<u64>());
    println!(
        "{:<16} {:>7} {:>10} {:>10}",
        "event", "count", "first_ms", "last_ms"
    );
    for (i, kind) in kinds.iter().enumerate() {
        if counts[i] == 0 {
            continue;
        }
        println!(
            "{kind:<16} {:>7} {:>10} {:>10}",
            counts[i],
            first_ms[i].unwrap_or(0),
            last_ms[i]
        );
    }
    if !losses.is_empty() {
        let n = losses.len() as f64;
        let mean = losses.iter().sum::<f64>() / n;
        let min = losses.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = losses.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "\nloss curve over {} step(s): first {:.4} | last {:.4} | min {:.4} | max {:.4} | mean {:.4}",
            losses.len(),
            losses[0],
            losses[losses.len() - 1],
            min,
            max,
            mean
        );
    }
    if tokens > 0 {
        println!("tokens processed: {tokens}");
    }
    if retries > 0 || !anomalies.is_empty() {
        let kinds_str = anomalies
            .iter()
            .map(|(k, n)| format!("{k} x{n}"))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "supervisor: {retries} rollback(s) | anomalies: {}",
            if kinds_str.is_empty() {
                "none".to_string()
            } else {
                kinds_str
            }
        );
    }
    if ckpt_bytes > 0 {
        println!("checkpoints written: {ckpt_bytes} byte(s) total");
    }
    Ok(())
}

fn encode(rest: &[String]) -> Result<(), String> {
    let (table, flags) = load_table(rest)?;
    let kind: ModelKind = flag_value(&flags, "--model").unwrap_or("tapas").parse()?;
    let precision: QuantSpec = flag_value(&flags, "--precision").unwrap_or("f32").parse()?;
    let spec = EncoderSpec::new(kind, precision);
    let context = flag_value(&flags, "--context")
        .unwrap_or(&table.caption)
        .to_string();
    let pipeline = Pipeline::builder()
        .vocab_from_tables(std::slice::from_ref(&table))
        .vocab_from_texts(std::slice::from_ref(&context))
        .encoder(spec)
        .build()
        .map_err(|e| e.to_string())?;
    let model = pipeline
        .build_default_encoder()
        .map_err(|e| e.to_string())?;
    let enc = pipeline.encode(model.as_ref(), &table, &context);
    println!(
        "model {} | {} tokens -> states {:?} | table embedding norm {:.3}",
        spec,
        enc.encoded.len(),
        enc.states.shape(),
        enc.table_embedding().norm()
    );
    println!("\ncell-embedding cosine to cell (0,0):");
    for r in 0..table.n_rows().min(6) {
        let mut line = String::new();
        for c in 0..table.n_cols().min(8) {
            match enc.cell_similarity((0, 0), (r, c)) {
                Some(cos) => line.push_str(&format!("{cos:+.2} ")),
                None => line.push_str("  --  "),
            }
        }
        println!("  {line}");
    }
    Ok(())
}
