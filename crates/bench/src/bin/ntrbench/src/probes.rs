//! The per-layer probes of the traced run: each times one public call of
//! one layer, single-threaded, over the same generated inputs, as a span
//! per call; the metric is the median span.

use crate::api::{
    self, quant, simd, EmbeddingCache, EmbeddingFlags, Encoder, EncoderInput, EncoderLayer,
    FeedForward, LayerNorm, MultiHeadAttention, Obs, ObsOptions, SeededInit, SequenceEncoder,
    ServeRequest, SupervisorConfig, TableEmbeddings, TableEncoding, Tensor,
};
use crate::client::{self, Client};
use crate::ops::{self, TrainSlices, STEPS_PER_RUN};
use crate::report::LayerMetrics;
use crate::spans::Trace;
use crate::stack::{self, Offline};
use crate::stats::{median, percentile_of, Rng};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tables the probes draw their inputs from (and index).
const PROBE_TABLES: usize = 1024;
/// Inputs a probe cycles through.
const INPUTS: usize = 256;

/// Runs a probe body up to `max_iters` times or until `cap` has passed,
/// whichever comes first (but at least five times), one span per call.
struct Prober<'t> {
    trace: &'t mut Trace,
    max_iters: usize,
    cap: Duration,
}

impl Prober<'_> {
    fn run(&mut self, name: &'static str, mut call: impl FnMut(usize)) -> f64 {
        let mut us = Vec::new();
        let began = Instant::now();
        for i in 0..self.max_iters {
            if i >= 5 && began.elapsed() > self.cap {
                break;
            }
            let t0 = Instant::now();
            call(i);
            let t1 = Instant::now();
            self.trace.record(name, t0, t1, None, i as u64);
            us.push((t1 - t0).as_secs_f64() * 1e6);
        }
        median(&us)
    }
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

fn random_tensor(rng: &mut Rng, shape: &[usize]) -> Tensor {
    Tensor::from_fn(shape, |_| rng.symmetric())
}

/// Runs every probe: up to 2 000 calls or 0.2 s each, times `scale` (a
/// tenth under `--smoke`).
pub fn run(
    seed: u64,
    scale: f64,
    work_dir: &Path,
    trace: &mut Trace,
    out: &mut LayerMetrics,
) -> io::Result<()> {
    trace.set_on(true);
    let mut off = stack::offline(seed, PROBE_TABLES);
    let mut p = Prober {
        trace,
        max_iters: (2000.0 * scale) as usize,
        cap: Duration::from_secs_f64(0.2 * scale),
    };

    let seq_len = pipeline_probes(&mut p, &mut off, out)?;
    layer_probes(&mut p, &off, seed, seq_len, out);
    service_probes(&mut p, &off, work_dir, out)?;

    let dir = work_dir.join("probe-index");
    let mut store = api::teacher_store(off.teacher.d_model());
    let (pipeline, teacher) = (&off.pipeline, off.teacher.as_mut());
    ops::embed_into(pipeline, teacher, &off.corpus.tables, &mut store, p.trace)?;
    ops::build_index(&store, &dir, p.trace, out)?;
    ops::query_index(&dir, p.max_iters, p.trace, out)?;

    training_probes(&mut p, seed, work_dir, out)?;
    p.trace.set_on(false);
    Ok(())
}

/// serve wire and cache, table, tokenizer, models and core: everything on
/// the path of one request between its line and its reply. Returns the
/// median sequence length.
fn pipeline_probes(p: &mut Prober, off: &mut Offline, out: &mut LayerMetrics) -> io::Result<f64> {
    let tables = off.corpus.tables[..INPUTS].to_vec();
    let lines: Vec<String> = tables
        .iter()
        .map(|t| {
            let body =
                client::request_body(client::TEACHER_HEAD, &t.caption, &client::table_tail(t));
            format!("{{\"id\": 1, {body}")
        })
        .collect();
    let requests: Vec<ServeRequest> = lines
        .iter()
        .map(|l| api::decode_encode(l).ok_or_else(|| other("a generated request does not parse")))
        .collect::<io::Result<_>>()?;
    let encoded: Vec<_> = tables
        .iter()
        .map(|t| off.pipeline.try_serialize(t, &t.caption).map_err(other))
        .collect::<io::Result<_>>()?;
    let inputs: Vec<EncoderInput> = encoded.iter().map(EncoderInput::from_encoded).collect();
    let encodings: Vec<Arc<TableEncoding>> = tables[..64]
        .iter()
        .map(|t| {
            off.pipeline
                .try_encode(off.teacher.as_mut(), t, &t.caption)
                .map(Arc::new)
                .map_err(other)
        })
        .collect::<io::Result<_>>()?;

    // table + tokenizer
    let mut lens: Vec<f64> = encoded.iter().map(|e| e.len() as f64).collect();
    let seq_len = percentile_of(&mut lens, 0.5);
    let truncated = encoded.iter().filter(|e| e.truncated_rows() > 0).count();
    out.insert("table.seq_len_p50", seq_len);
    out.insert("table.truncated_share", truncated as f64 / INPUTS as f64);
    let linearize = p.run("table.linearize", |i| {
        let t = &tables[i % INPUTS];
        std::hint::black_box(off.pipeline.try_serialize(t, &t.caption).is_ok());
    });
    let tok = off.pipeline.tokenizer();
    let (mut pieces, mut calls) = (0usize, 0usize);
    let tokenize = p.run("tokenizer.encode", |i| {
        // The strings the linearizer tokenizes for this table.
        let t = &tables[i % INPUTS];
        let mut n = tok.encode(&t.caption).len();
        for col in t.columns() {
            n += tok.encode(&col.name).len();
        }
        for cell in t.rows().iter().flatten() {
            n += tok.encode(&cell.raw).len();
        }
        pieces += n;
        calls += 1;
    });
    out.insert("table.linearize_us", linearize);
    out.insert("tokenizer.encode_us", tokenize);
    out.insert("table.linearize_self_us", linearize - tokenize);
    out.insert(
        "tokenizer.tokens_per_s",
        pieces as f64 / calls.max(1) as f64 / (tokenize / 1e6),
    );

    // serve: wire and cache
    let request_bytes: Vec<f64> = lines.iter().map(|l| l.len() as f64).collect();
    out.insert("serve.wire.request_bytes", median(&request_bytes));
    let parse = p.run("serve.wire.parse", |i| {
        std::hint::black_box(api::parse_request(&lines[i % INPUTS]).is_ok());
    });
    out.insert("serve.wire.parse_us", parse);
    let mut response_bytes = Vec::new();
    let render = p.run("serve.wire.render", |i| {
        let line = api::ok_response(i as u64, &encodings[i % encodings.len()], false);
        response_bytes.push(line.len() as f64);
    });
    out.insert("serve.wire.render_us", render);
    out.insert("serve.wire.response_bytes", median(&response_bytes));
    let key = p.run("serve.cache.key", |i| {
        std::hint::black_box(api::cache_key(&off.pipeline, &requests[i % INPUTS]));
    });
    out.insert("serve.cache.key_us", key);
    let mut cache = EmbeddingCache::new(64 << 20);
    let mut inserted = 1u64;
    let insert = p.run("serve.cache.insert", |i| {
        cache.insert(i as u64, Arc::clone(&encodings[i % encodings.len()]));
        inserted = i as u64 + 1;
    });
    let get = p.run("serve.cache.get", |i| {
        std::hint::black_box(cache.get(i as u64 % inserted).is_some());
    });
    out.insert("serve.cache.insert_us", insert);
    out.insert("serve.cache.get_us", get);

    // core + models
    let pool = p.run("core.pool", |i| {
        std::hint::black_box(encodings[i % encodings.len()].table_embedding());
    });
    out.insert("core.pool_us", pool);
    let model_input = p.run("models.input", |i| {
        std::hint::black_box(EncoderInput::from_encoded(&encoded[i % INPUTS]));
    });
    out.insert("models.input_us", model_input);
    let mut embeddings = TableEmbeddings::new(
        &off.pipeline.default_config(),
        EmbeddingFlags::structural(),
        &mut SeededInit::new(1),
    );
    let embed = p.run("models.embed", |i| {
        std::hint::black_box(embeddings.forward(&inputs[i % INPUTS], false));
    });
    out.insert("models.embed_us", embed);

    let specs = [
        (
            api::teacher_f32(),
            "core.encode_us.teacher_f32",
            "models.encode_us.tapas_f32",
            "core.stage_sum_ratio.teacher_f32",
        ),
        (
            api::student_f32(),
            "core.encode_us.student_f32",
            "models.encode_us.row_student_f32",
            "core.stage_sum_ratio.student_f32",
        ),
        (
            api::student_int8(),
            "core.encode_us.student_int8",
            "models.encode_us.row_student_int8",
            "core.stage_sum_ratio.student_int8",
        ),
    ];
    for (spec, core_name, models_name, ratio_name) in specs {
        let mut model = api::encoder(spec, &off.pipeline);
        let core = p.run(core_name, |i| {
            let t = &tables[i % INPUTS];
            let enc = off.pipeline.try_encode(model.as_mut(), t, &t.caption);
            std::hint::black_box(enc.is_ok());
        });
        out.insert(core_name, core);
        let models = p.run(models_name, |i| {
            std::hint::black_box(model.encode(&inputs[i % INPUTS], false));
        });
        out.insert(models_name, models);

        out.insert(ratio_name, stage_sum_ratio(p, off, model.as_mut(), &lines));
    }
    Ok(seq_len)
}

/// Runs each request straight through (`parse_request` → `try_encode` →
/// `ok_response`) and then stage by stage (parse, linearize, input, model,
/// pool, render) as six child spans of one `core.request.staged` span.
/// Returns the median over requests of the time the stages cover divided by
/// the straight time: ROADMAP's "the stage numbers must add up to the
/// end-to-end one". The two walks of a request are back to back, so that
/// drift in the machine's speed reaches both.
fn stage_sum_ratio(
    p: &mut Prober,
    off: &Offline,
    model: &mut dyn SequenceEncoder,
    lines: &[String],
) -> f64 {
    let first = p.trace.len();
    let mut straight_ns = Vec::new();
    let began = Instant::now();
    for i in 0..p.max_iters {
        if i >= 5 && began.elapsed() > p.cap * 2 {
            break;
        }
        let (id, line) = (i as u64, &lines[i % lines.len()]);
        let t = &mut *p.trace;

        let start = Instant::now();
        let req = api::decode_encode(line).expect("parsed above");
        let enc = off
            .pipeline
            .try_encode(model, &req.table, &req.context)
            .expect("encoded above");
        std::hint::black_box(api::ok_response(1, &enc, false));
        let end = Instant::now();
        t.record("core.request.straight", start, end, None, id);
        straight_ns.push((end - start).as_nanos() as f64);

        let start = Instant::now();
        let root = t.record("core.request.staged", start, start, None, id);
        let req = t.time("stage.parse", root, id, || {
            api::decode_encode(line).expect("parsed above")
        });
        let encoded = t.time("stage.linearize", root, id, || {
            off.pipeline
                .try_serialize(&req.table, &req.context)
                .expect("serialized above")
        });
        let input = t.time("stage.input", root, id, || {
            EncoderInput::from_encoded(&encoded)
        });
        let states = t.time("stage.model", root, id, || model.encode(&input, false));
        let enc = api::table_encoding(encoded, states);
        t.time("stage.pool", root, id, || {
            std::hint::black_box(enc.table_embedding());
        });
        t.time("stage.render", root, id, || {
            std::hint::black_box(api::ok_response(1, &enc, false));
        });
        t.close(root, Instant::now());
    }
    // A stage's cover of its parent is the parent's duration minus its self
    // time.
    let own = p.trace.self_times_ns(first);
    let ratios: Vec<f64> = p.trace.spans()[first..]
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == "core.request.staged")
        .zip(straight_ns)
        .map(|((s, own), straight)| (s.duration_ns() - own) as f64 / straight)
        .collect();
    median(&ratios)
}

/// nn's layers and tensor's kernels, standalone, at the median sequence
/// length.
fn layer_probes(p: &mut Prober, off: &Offline, seed: u64, seq_len: f64, out: &mut LayerMetrics) {
    let cfg = off.pipeline.default_config();
    let (n, d, d_ff, heads) = (seq_len as usize, cfg.d_model, cfg.d_ff, cfg.n_heads);
    let mut rng = Rng::new(seed ^ 0x9806E5);
    let mut init = SeededInit::new(seed);

    let x = random_tensor(&mut rng, &[n, d]);
    let mut encoder = Encoder::new(cfg.n_layers, d, heads, d_ff, cfg.dropout, &mut init);
    let mut block = EncoderLayer::new(d, heads, d_ff, cfg.dropout, &mut init);
    let mut attention = MultiHeadAttention::new(d, heads, &mut init);
    let mut ffn = FeedForward::new(d, d_ff, &mut init);
    let mut layernorm = LayerNorm::new(d);
    let v = p.run("nn.encoder", |_| {
        std::hint::black_box(encoder.forward(&x, None, false));
    });
    out.insert("nn.encoder_us", v);
    let v = p.run("nn.block", |_| {
        std::hint::black_box(block.forward(&x, None, false));
    });
    out.insert("nn.block_us", v);
    let v = p.run("nn.attention", |_| {
        std::hint::black_box(attention.forward_self(&x, None));
    });
    out.insert("nn.attention_us", v);
    let v = p.run("nn.ffn", |_| {
        std::hint::black_box(ffn.forward(&x));
    });
    out.insert("nn.ffn_us", v);
    let v = p.run("nn.layernorm", |_| {
        std::hint::black_box(layernorm.forward(&x));
    });
    out.insert("nn.layernorm_us", v);

    // tensor: the matmul shapes of one block, named for the 108-token
    // median the shapes were chosen at.
    let w_dd = random_tensor(&mut rng, &[d, d]);
    let w_up = random_tensor(&mut rng, &[d, d_ff]);
    let w_down = random_tensor(&mut rng, &[d_ff, d]);
    let h = random_tensor(&mut rng, &[n, d_ff]);
    let q = random_tensor(&mut rng, &[n, d / heads]);
    let k = random_tensor(&mut rng, &[n, d / heads]);
    let scores = random_tensor(&mut rng, &[n, n]);
    let v = p.run("tensor.matmul.dxd", |_| {
        std::hint::black_box(x.matmul(&w_dd));
    });
    out.insert("tensor.matmul_us.108x64x64", v);
    let v = p.run("tensor.matmul.up", |_| {
        std::hint::black_box(x.matmul(&w_up));
    });
    out.insert("tensor.matmul_us.108x64x128", v);
    let v = p.run("tensor.matmul.down", |_| {
        std::hint::black_box(h.matmul(&w_down));
    });
    out.insert("tensor.matmul_us.108x128x64", v);
    let v = p.run("tensor.matmul_nt", |_| {
        std::hint::black_box(q.matmul_nt(&k));
    });
    out.insert("tensor.matmul_nt_us.108x16x108", v);
    let v = p.run("tensor.softmax", |_| {
        std::hint::black_box(scores.softmax_rows());
    });
    out.insert("tensor.softmax_us", v);
    let v = p.run("tensor.quantize", |_| {
        std::hint::black_box(quant::quantize_rows(&x));
    });
    out.insert("tensor.quantize_us", v);
    let (xq, wq) = (quant::quantize_rows(&x), quant::quantize_cols(&w_up));
    let on = simd::active();
    let v = p.run("tensor.q8_matmul", |_| {
        std::hint::black_box(quant::matmul_q8(on, &xq, &wq));
    });
    out.insert("tensor.q8_matmul_us", v);

    // Computed from the shapes, not measured: multiply-adds of the teacher's
    // matmuls (four d x d projections, scores and mixing per head, two
    // feed-forward matmuls, per layer) and the f32 bytes of their operands
    // and results.
    let (nf, df, ff) = (n as f64, d as f64, d_ff as f64);
    let layers = cfg.n_layers as f64;
    let madds = layers * (4.0 * nf * df * df + 2.0 * nf * nf * df + 2.0 * nf * df * ff);
    let floats = layers
        * (4.0 * (2.0 * nf * df + df * df)
            + 2.0 * (2.0 * nf * df + heads as f64 * nf * nf)
            + 2.0 * (nf * df + df * ff + nf * ff));
    let flops = 2.0 * madds;
    out.insert("tensor.flops_per_encode", flops);
    out.insert("tensor.bytes_per_encode", 4.0 * floats);
    let teacher_us = out["models.encode_us.tapas_f32"];
    out.insert("tensor.gflops", flops / (teacher_us * 1e-6) / 1e9);
}

/// A lone miss four ways, back to back per request so that drift in the
/// machine's speed reaches all four: `Pipeline::try_encode` alone, through
/// the service without a socket, the same with observability armed, and
/// through the server over loopback. The differences are the batcher's wait,
/// the cost of observability and the cost of the socket layer.
fn service_probes(
    p: &mut Prober,
    off: &Offline,
    work_dir: &Path,
    out: &mut LayerMetrics,
) -> io::Result<()> {
    let tables = &off.corpus.tables;
    let mut teacher = api::encoder(api::teacher_f32(), &off.pipeline);
    let armed_obs = Obs::open(&api::obs_armed(work_dir, "serve"))?;
    let plain = api::start_service(api::pipeline_like(&off.pipeline), Obs::disabled())?;
    let armed = api::start_service(api::pipeline_like(&off.pipeline), armed_obs)?;
    let server = api::start_server(api::pipeline_like(&off.pipeline), None)?;
    let mut client = Client::connect(server.addr(), 1)?;
    let lone_miss = |service: &api::EmbeddingService, t: &api::Table, context: String| {
        let req = ServeRequest::with_spec(api::teacher_f32(), t.clone(), context);
        let reply = service.handle().submit(req).recv();
        std::hint::black_box(reply.is_ok_and(|r| r.is_ok()));
    };

    let mut line = Vec::new();
    let (mut inproc_us, mut wait_us, mut socket_us, mut obs_pct) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let began = Instant::now();
    for i in 0..p.max_iters {
        if i >= 5 && began.elapsed() > p.cap * 6 {
            break;
        }
        let t = &tables[i % tables.len()];
        // Four contexts, four cache keys: every arm is a miss.
        let context = |arm: &str| format!("{} {arm}{i}", t.caption);
        let body = client::request_body(
            client::TEACHER_HEAD,
            &context("tcp"),
            &client::table_tail(t),
        );
        client::request_line(&mut line, i as u64, &body);

        let t0 = Instant::now();
        let enc = off
            .pipeline
            .try_encode(teacher.as_mut(), t, &context("alone"));
        std::hint::black_box(enc.is_ok());
        let t1 = Instant::now();
        lone_miss(&plain, t, context("plain"));
        let t2 = Instant::now();
        lone_miss(&armed, t, context("armed"));
        let t3 = Instant::now();
        client.round_trip(&line, Duration::from_secs(10))?;
        let t4 = Instant::now();

        let id = i as u64;
        p.trace.record("core.try_encode", t0, t1, None, id);
        p.trace
            .record("serve.service.inproc_miss", t1, t2, None, id);
        p.trace
            .record("serve.service.inproc_miss.obs", t2, t3, None, id);
        p.trace.record("serve.server.lone_miss", t3, t4, None, id);
        let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
        inproc_us.push(us(t1, t2));
        wait_us.push(us(t1, t2) - us(t0, t1));
        obs_pct.push((us(t2, t3) / us(t1, t2) - 1.0) * 100.0);
        socket_us.push(us(t3, t4) - us(t1, t2));
    }
    drop(client);
    server.stop();
    server.wait();
    plain.shutdown();
    armed.shutdown();
    out.insert("serve.service.inproc_miss_us", median(&inproc_us));
    out.insert("serve.batcher.wait_us", median(&wait_us));
    out.insert("serve.server.socket_us", median(&socket_us));
    out.insert("obs.serve_overhead_pct", median(&obs_pct));
    Ok(())
}

/// Short training runs in three arms, interleaved: the workload's own
/// (armed supervisor, observability off), the default supervisor, and the
/// armed supervisor with trace and metrics on.
fn training_probes(
    p: &mut Prober,
    seed: u64,
    work_dir: &Path,
    out: &mut LayerMetrics,
) -> io::Result<()> {
    let off = stack::offline(seed, 8 * ops::TRAIN_SLICE);
    let slices = TrainSlices::new(&off);
    let armed = SupervisorConfig::resilient();
    let mut models = [
        ops::fresh_tapas(&off),
        ops::fresh_tapas(&off),
        ops::fresh_tapas(&off),
    ];
    let (mut armed_s, mut tokens_per_s, mut final_loss) = (Vec::new(), Vec::new(), 0.0f32);
    let (mut supervisor_pct, mut obs_pct) = (Vec::new(), Vec::new());
    let rounds = ((p.cap.as_secs_f64() * 25.0) as usize).clamp(2, 5);
    for round in 0..rounds {
        // The three arms of a round are back to back, so that drift in the
        // machine's speed reaches all three.
        let mut secs = [0.0; 3];
        for (arm, model) in models.iter_mut().enumerate() {
            let (supervisor, obs) = match arm {
                0 => (armed.clone(), ObsOptions::default()),
                1 => (SupervisorConfig::default(), ObsOptions::default()),
                _ => (armed.clone(), api::obs_armed(work_dir, "train")),
            };
            let start = Instant::now();
            let (s, losses) = ops::train_run(&off, &slices, round, model, &supervisor, obs)?;
            p.trace
                .record("tasks.train_run", start, Instant::now(), None, arm as u64);
            secs[arm] = s;
            if arm == 0 {
                final_loss = *losses.last().expect("a run takes at least one step");
            }
        }
        armed_s.push(secs[0]);
        tokens_per_s.push(slices.tokens[round % slices.tokens.len()] as f64 / secs[0]);
        supervisor_pct.push((secs[0] / secs[1] - 1.0) * 100.0);
        obs_pct.push((secs[2] / secs[0] - 1.0) * 100.0);
    }
    out.insert(
        "tasks.step_ms",
        median(&armed_s) * 1e3 / STEPS_PER_RUN as f64,
    );
    out.insert("tasks.tokens_per_s", median(&tokens_per_s));
    out.insert("tasks.final_loss", f64::from(final_loss));
    out.insert("tasks.supervisor_overhead_pct", median(&supervisor_pct));
    out.insert("obs.train_overhead_pct", median(&obs_pct));
    Ok(())
}
