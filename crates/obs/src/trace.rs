//! Structured JSONL event trace.
//!
//! A [`TraceWriter`] appends one JSON object per line to a trace file.
//! Each line is built in full before a single `write_all` under a mutex,
//! so concurrent events never interleave ("atomic append"). Every event
//! starts with its `"ev"` kind and ends with `"wall_ms"` (milliseconds
//! since the writer opened).
//!
//! **Field stability:** trace content is deterministic apart from timing
//! fields. By convention a field is a wall-clock measurement if and only
//! if its key ends in `_ms` or `_per_sec`; [`strip_timings`] removes
//! exactly those, and the determinism test asserts that two traces of the
//! same run under different thread counts are byte-identical once
//! stripped. The event vocabulary and field types are pinned by
//! [`schema::render`] against a golden snapshot.

use crate::metrics::json_str;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// An append-only JSONL trace file.
#[derive(Debug)]
pub struct TraceWriter {
    file: Mutex<File>,
    start: Instant,
}

impl TraceWriter {
    /// Creates (truncating) the trace file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self {
            file: Mutex::new(File::create(path)?),
            start: Instant::now(),
        })
    }

    /// Starts an event of kind `ev`; finish the line with
    /// [`EventBuilder::finish`].
    pub fn event(&self, ev: &'static str) -> EventBuilder<'_> {
        let mut buf = String::with_capacity(128);
        buf.push_str("{\"ev\": ");
        buf.push_str(&json_str(ev));
        EventBuilder { writer: self, buf }
    }

    fn write_line(&self, mut buf: String) {
        let wall_ms = self.start.elapsed().as_millis() as u64;
        buf.push_str(&format!(", \"wall_ms\": {wall_ms}}}\n"));
        let mut f = self.file.lock().unwrap();
        // A trace write failing must not kill training; the trace is an
        // aid, not a dependency.
        let _ = f.write_all(buf.as_bytes());
        let _ = f.flush();
    }
}

/// Builds one trace line field by field, then appends it atomically.
#[derive(Debug)]
#[must_use = "call .finish() to write the event"]
pub struct EventBuilder<'a> {
    writer: &'a TraceWriter,
    buf: String,
}

impl EventBuilder<'_> {
    fn raw(mut self, key: &str, value: &str) -> Self {
        self.buf.push_str(", ");
        self.buf.push_str(&json_str(key));
        self.buf.push_str(": ");
        self.buf.push_str(value);
        self
    }

    /// An unsigned integer field.
    pub fn u64(self, key: &str, v: u64) -> Self {
        self.raw(key, &v.to_string())
    }

    /// A float field. Finite values use Rust's shortest round-trippable
    /// `{:?}` form (deterministic); non-finite values are encoded as the
    /// strings `"NaN"`, `"inf"`, `"-inf"` since JSON has no literal for
    /// them.
    pub fn f32(self, key: &str, v: f32) -> Self {
        let text = if v.is_finite() {
            format!("{v:?}")
        } else if v.is_nan() {
            json_str("NaN")
        } else if v > 0.0 {
            json_str("inf")
        } else {
            json_str("-inf")
        };
        self.raw(key, &text)
    }

    /// A float field computed in f64 (throughputs); same encoding rules as
    /// [`EventBuilder::f32`].
    pub fn f64(self, key: &str, v: f64) -> Self {
        let text = if v.is_finite() {
            format!("{v:?}")
        } else if v.is_nan() {
            json_str("NaN")
        } else if v > 0.0 {
            json_str("inf")
        } else {
            json_str("-inf")
        };
        self.raw(key, &text)
    }

    /// A string field.
    pub fn str(self, key: &str, v: &str) -> Self {
        let quoted = json_str(v);
        self.raw(key, &quoted)
    }

    /// Appends `wall_ms` and writes the finished line.
    pub fn finish(self) {
        self.writer.write_line(self.buf);
    }
}

/// Parses one flat trace line into `(key, raw_value)` pairs. Values keep
/// their raw JSON text (strings keep their quotes) so a re-serialized line
/// is byte-identical. Only the flat subset the writer emits is supported.
pub fn parse_line(line: &str) -> Result<Vec<(String, String)>, String> {
    let line = line.trim_end_matches('\n');
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not an object: {line:?}"))?;
    let mut fields = Vec::new();
    let mut rest = inner;
    while !rest.is_empty() {
        rest = rest.trim_start_matches(", ");
        let body = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected key at {rest:?}"))?;
        let kq = body
            .find('"')
            .ok_or_else(|| format!("unterminated key at {rest:?}"))?;
        let key = &body[..kq];
        if key.contains('\\') {
            return Err(format!("escaped key unsupported: {key:?}"));
        }
        let after = body[kq + 1..]
            .strip_prefix(": ")
            .ok_or_else(|| format!("expected ': ' after key {key:?}"))?;
        let (value, tail) = if let Some(s) = after.strip_prefix('"') {
            // Scan the quoted value, honouring backslash escapes.
            let mut end = None;
            let mut escaped = false;
            for (i, c) in s.char_indices() {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    end = Some(i);
                    break;
                }
            }
            let end = end.ok_or_else(|| format!("unterminated string for {key:?}"))?;
            (format!("\"{}\"", &s[..end]), &s[end + 1..])
        } else {
            let end = after.find(", \"").unwrap_or(after.len());
            (after[..end].to_string(), &after[end..])
        };
        fields.push((key.to_string(), value));
        rest = tail;
    }
    Ok(fields)
}

/// Re-serializes parsed fields in the writer's exact format.
pub fn render_line(fields: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_str(k));
        out.push_str(": ");
        out.push_str(v);
    }
    out.push('}');
    out
}

/// True for keys that are wall-clock measurements (and therefore excluded
/// from the determinism guarantee): `wall_ms`, anything `*_ms`, anything
/// `*_per_sec`.
pub fn is_timing_key(key: &str) -> bool {
    key.ends_with("_ms") || key.ends_with("_per_sec")
}

/// Removes every timing field from one trace line; what remains is
/// deterministic for a given run regardless of thread count or machine.
pub fn strip_timings(line: &str) -> Result<String, String> {
    let fields = parse_line(line)?;
    let kept: Vec<_> = fields
        .into_iter()
        .filter(|(k, _)| !is_timing_key(k))
        .collect();
    Ok(render_line(&kept))
}

/// The pinned trace-event vocabulary: names, fields, types, and which
/// fields are timing measurements.
pub mod schema {
    use super::{is_timing_key, parse_line};
    use std::fmt::Write as _;

    /// A field's JSON type in the schema.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FieldType {
        /// Unsigned integer.
        U64,
        /// Float (finite values are numbers; non-finite encode as the
        /// strings `"NaN"`, `"inf"`, `"-inf"`).
        Float,
        /// String.
        Str,
    }

    /// One schema field: name, type, required?
    pub struct Field {
        /// Field key.
        pub name: &'static str,
        /// Value type.
        pub ty: FieldType,
        /// Whether every event of this kind must carry it.
        pub required: bool,
    }

    const fn req(name: &'static str, ty: FieldType) -> Field {
        Field {
            name,
            ty,
            required: true,
        }
    }

    const fn opt(name: &'static str, ty: FieldType) -> Field {
        Field {
            name,
            ty,
            required: false,
        }
    }

    /// One event kind and its fields (excluding the implicit leading `ev`
    /// and trailing `wall_ms`).
    pub struct Event {
        /// The `ev` value.
        pub name: &'static str,
        /// Payload fields, in emission order.
        pub fields: &'static [Field],
    }

    use FieldType::{Float, Str, U64};

    /// Every event the stack emits. Adding a field or event here is a
    /// schema change and must re-bless the golden snapshot.
    pub const EVENTS: &[Event] = &[
        Event {
            name: "run_start",
            fields: &[
                req("step", U64),
                req("n_examples", U64),
                req("batch_size", U64),
                req("epochs", U64),
                req("seed", U64),
            ],
        },
        Event {
            name: "step",
            fields: &[
                req("step", U64),
                req("epoch", U64),
                req("pos", U64),
                req("batch", U64),
                req("loss", Float),
                req("lr_scale", Float),
                opt("grad_norm", Float),
                opt("tokens", U64),
                opt("step_ms", U64),
                opt("tokens_per_sec", Float),
            ],
        },
        Event {
            name: "anomaly",
            fields: &[
                req("step", U64),
                req("epoch", U64),
                req("pos", U64),
                req("kind", Str),
                req("detail", Str),
            ],
        },
        Event {
            name: "rollback",
            fields: &[
                req("step", U64),
                req("to_step", U64),
                req("retry", U64),
                req("lr_scale", Float),
                req("skip_epoch", U64),
                req("skip_pos", U64),
            ],
        },
        Event {
            name: "crash_recovery",
            fields: &[req("step", U64), req("to_step", U64), req("source", Str)],
        },
        Event {
            name: "ckpt_save",
            fields: &[req("step", U64), req("bytes", U64), opt("fsync_ms", U64)],
        },
        Event {
            name: "ckpt_load",
            fields: &[req("step", U64), req("bytes", U64), req("source", Str)],
        },
        Event {
            name: "run_end",
            fields: &[
                req("steps", U64),
                req("retries", U64),
                req("outcome", Str),
                opt("error", Str),
            ],
        },
        Event {
            name: "distill_start",
            fields: &[
                req("tables", U64),
                req("spans", U64),
                req("d_model", U64),
                req("teacher", Str),
                req("cos_weight", Float),
            ],
        },
        Event {
            name: "distill_step",
            fields: &[req("loss", Float), req("cosine", Float)],
        },
        Event {
            name: "serve_start",
            fields: &[
                req("port", U64),
                req("workers", U64),
                req("max_batch", U64),
                req("cache_bytes", U64),
                opt("queue_cap", U64),
                opt("max_conns", U64),
            ],
        },
        Event {
            name: "serve_batch",
            fields: &[req("size", U64), req("queued", U64), opt("encode_ms", U64)],
        },
        Event {
            name: "serve_fault",
            fields: &[
                req("kind", Str),
                req("flush", U64),
                opt("replica", U64),
                opt("detail", Str),
            ],
        },
        Event {
            name: "serve_recover",
            fields: &[
                req("kind", Str),
                req("flush", U64),
                opt("restarts", U64),
                opt("rebuilds", U64),
            ],
        },
        Event {
            name: "index_build",
            fields: &[
                req("tables", U64),
                req("dim", U64),
                req("nlist", U64),
                req("seed", U64),
                req("bytes", U64),
                opt("encode_ms", U64),
                opt("build_ms", U64),
            ],
        },
        Event {
            name: "index_query",
            fields: &[
                req("k", U64),
                req("nprobe", U64),
                req("results", U64),
                opt("scanned", U64),
                opt("query_ms", U64),
            ],
        },
        Event {
            name: "serve_end",
            fields: &[
                req("requests", U64),
                req("batches", U64),
                req("hits", U64),
                req("misses", U64),
                req("evictions", U64),
                opt("errors", U64),
                opt("shed", U64),
                opt("accept_errors", U64),
                opt("timeouts", U64),
                opt("p50_ms", U64),
                opt("p99_ms", U64),
                opt("deadline_exceeded", U64),
                opt("internal", U64),
                opt("restarts", U64),
                opt("quarantined", U64),
                opt("degraded", U64),
            ],
        },
    ];

    fn type_of_raw(raw: &str) -> Result<FieldType, String> {
        if raw.starts_with('"') {
            return Ok(FieldType::Str);
        }
        if raw.parse::<u64>().is_ok() {
            return Ok(FieldType::U64);
        }
        if raw.parse::<f64>().is_ok() {
            return Ok(FieldType::Float);
        }
        Err(format!("unparseable value {raw:?}"))
    }

    fn type_matches(expected: FieldType, raw: &str) -> bool {
        match (expected, type_of_raw(raw)) {
            (FieldType::U64, Ok(FieldType::U64)) => true,
            // A whole-numbered float serializes as e.g. `1.0`, and a
            // non-finite one as a marker string.
            (FieldType::Float, Ok(FieldType::Float | FieldType::U64)) => true,
            (FieldType::Float, Ok(FieldType::Str)) => {
                matches!(raw, "\"NaN\"" | "\"inf\"" | "\"-inf\"")
            }
            (FieldType::Str, Ok(FieldType::Str)) => true,
            _ => false,
        }
    }

    /// Validates one trace line against the schema: leading `ev` of a
    /// known kind, trailing numeric `wall_ms`, all required fields
    /// present in order, no unknown fields, types as declared.
    pub fn validate_line(line: &str) -> Result<(), String> {
        let fields = parse_line(line)?;
        let (first_key, ev_raw) = fields.first().ok_or("empty event")?;
        if first_key != "ev" {
            return Err(format!("first field must be \"ev\", got {first_key:?}"));
        }
        let ev_name = ev_raw.trim_matches('"');
        let event = EVENTS
            .iter()
            .find(|e| e.name == ev_name)
            .ok_or_else(|| format!("unknown event kind {ev_name:?}"))?;
        let (last_key, last_raw) = fields.last().unwrap();
        if last_key != "wall_ms" || last_raw.parse::<u64>().is_err() {
            return Err(format!(
                "last field must be numeric \"wall_ms\" in {ev_name}"
            ));
        }
        let payload = &fields[1..fields.len() - 1];
        let mut cursor = 0usize;
        for (key, raw) in payload {
            let idx = event.fields[cursor..]
                .iter()
                .position(|f| f.name == key)
                .map(|i| cursor + i)
                .ok_or_else(|| {
                    format!("unknown or out-of-order field {key:?} in event {ev_name}")
                })?;
            for skipped in &event.fields[cursor..idx] {
                if skipped.required {
                    return Err(format!(
                        "missing required field {:?} in event {ev_name}",
                        skipped.name
                    ));
                }
            }
            let f = &event.fields[idx];
            if !type_matches(f.ty, raw) {
                return Err(format!(
                    "field {key:?} in event {ev_name} has wrong type (value {raw:?})"
                ));
            }
            cursor = idx + 1;
        }
        for remaining in &event.fields[cursor..] {
            if remaining.required {
                return Err(format!(
                    "missing required field {:?} in event {ev_name}",
                    remaining.name
                ));
            }
        }
        Ok(())
    }

    /// Validates every line of a whole trace, reporting the first bad
    /// line's number.
    pub fn validate_trace(text: &str) -> Result<usize, String> {
        let mut n = 0;
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            validate_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            n += 1;
        }
        Ok(n)
    }

    /// Renders the schema as stable text for the golden snapshot: one
    /// line per event listing `field:type` terms, optional fields in
    /// brackets, timing fields marked with `~`.
    pub fn render() -> String {
        let mut out = String::from(
            "# ntr trace schema v1\n\
             # every event: leading ev:str, trailing ~wall_ms:u64\n\
             # [field] = optional, ~field = wall-clock timing (stripped for determinism)\n",
        );
        for e in EVENTS {
            write!(out, "{}:", e.name).unwrap();
            for f in e.fields {
                let ty = match f.ty {
                    FieldType::U64 => "u64",
                    FieldType::Float => "f",
                    FieldType::Str => "str",
                };
                let timing = if is_timing_key(f.name) { "~" } else { "" };
                if f.required {
                    write!(out, " {timing}{}:{ty}", f.name).unwrap();
                } else {
                    write!(out, " [{timing}{}:{ty}]", f.name).unwrap();
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ntr_obs_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn events_are_one_json_line_each() {
        let path = tmp("basic.jsonl");
        let w = TraceWriter::create(&path).unwrap();
        w.event("run_start")
            .u64("step", 0)
            .u64("n_examples", 3)
            .u64("batch_size", 2)
            .u64("epochs", 4)
            .u64("seed", 17)
            .finish();
        w.event("step")
            .u64("step", 1)
            .u64("epoch", 0)
            .u64("pos", 0)
            .u64("batch", 2)
            .f32("loss", 1.5)
            .f32("lr_scale", 1.0)
            .finish();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"ev\": \"run_start\", \"step\": 0, "));
        assert!(lines[1].contains("\"loss\": 1.5, \"lr_scale\": 1.0, \"wall_ms\": "));
        for l in &lines {
            schema::validate_line(l).unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_finite_floats_encode_as_strings() {
        let path = tmp("nan.jsonl");
        let w = TraceWriter::create(&path).unwrap();
        w.event("anomaly")
            .u64("step", 2)
            .u64("epoch", 0)
            .u64("pos", 1)
            .str("kind", "nan-loss")
            .str("detail", "loss=NaN")
            .finish();
        let text = std::fs::read_to_string(&path).unwrap();
        schema::validate_line(text.lines().next().unwrap()).unwrap();

        let b = w.event("step").f32("x", f32::NAN).f32("y", f32::INFINITY);
        assert!(b.buf.contains("\"x\": \"NaN\", \"y\": \"inf\""));
        b.finish();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parse_roundtrips_and_strips_timings() {
        let line = r#"{"ev": "step", "step": 3, "loss": 0.25, "kind": "a\"b", "step_ms": 12, "tokens_per_sec": 9134.5, "wall_ms": 88}"#;
        let fields = parse_line(line).unwrap();
        assert_eq!(render_line(&fields), line);
        let stripped = strip_timings(line).unwrap();
        assert_eq!(
            stripped,
            r#"{"ev": "step", "step": 3, "loss": 0.25, "kind": "a\"b"}"#
        );
    }

    #[test]
    fn validate_rejects_bad_lines() {
        // Unknown event.
        assert!(schema::validate_line(r#"{"ev": "nope", "wall_ms": 1}"#).is_err());
        // Missing required field (loss).
        assert!(schema::validate_line(
            r#"{"ev": "step", "step": 1, "epoch": 0, "pos": 0, "batch": 2, "lr_scale": 1.0, "wall_ms": 1}"#
        )
        .is_err());
        // Unknown field.
        assert!(schema::validate_line(
            r#"{"ev": "run_end", "steps": 4, "retries": 0, "outcome": "ok", "bogus": 1, "wall_ms": 1}"#
        )
        .is_err());
        // Wrong type.
        assert!(schema::validate_line(
            r#"{"ev": "run_end", "steps": "four", "retries": 0, "outcome": "ok", "wall_ms": 1}"#
        )
        .is_err());
        // Missing wall_ms.
        assert!(schema::validate_line(
            r#"{"ev": "run_end", "steps": 4, "retries": 0, "outcome": "ok"}"#
        )
        .is_err());
        // A correct run_end passes, with and without the optional error.
        schema::validate_line(
            r#"{"ev": "run_end", "steps": 4, "retries": 0, "outcome": "ok", "wall_ms": 1}"#,
        )
        .unwrap();
        schema::validate_line(
            r#"{"ev": "run_end", "steps": 4, "retries": 2, "outcome": "error", "error": "retries exhausted", "wall_ms": 1}"#,
        )
        .unwrap();
    }

    #[test]
    fn schema_render_lists_every_event() {
        let text = schema::render();
        for e in schema::EVENTS {
            assert!(text.contains(&format!("{}:", e.name)), "missing {}", e.name);
        }
    }
}
