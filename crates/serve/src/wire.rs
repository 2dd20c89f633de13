//! The NDJSON wire protocol: one JSON document per line, both ways.
//!
//! Request:
//! ```json
//! {"id": 1, "model": "tapas", "context": "population by country",
//!  "columns": ["country", "population"], "rows": [["france", "67.8"]]}
//! ```
//! An optional `"timeout_ms"` field bounds the request: past that budget
//! the service answers with a typed `DeadlineExceeded` error instead of
//! the embedding. An optional `"precision"` field (`"f32"` default, or
//! `"int8"` — only valid with `"model": "row-student"`) selects the
//! serving precision; an invalid combination is a typed `BadModelChoice`
//! at parse time.
//!
//! Control: `{"cmd": "shutdown"}` asks the server to drain and exit;
//! `{"cmd": "health"}` answers with the service self-assessment:
//! ```json
//! {"ok": true, "state": "ok", "queue_depth": 0, "queue_cap": 256,
//!  "restarts": 0, "quarantined": 0, "deadline_exceeded": 0,
//!  "replicas": [{"rebuilds": 0}]}
//! ```
//!
//! Search (requires the server to have been started with an index; the
//! table body is encoded through the same pipeline as `encode`, then the
//! embedding is looked up in the ANN index):
//! ```json
//! {"cmd": "search", "id": 2, "k": 10, "nprobe": 4,
//!  "columns": ["country", "population"], "rows": [["france", "67.8"]]}
//! ```
//! `k` defaults to 10; `nprobe` defaults to the index's own default;
//! `model` is optional and falls back to the model the index was built
//! with. Success response:
//! ```json
//! {"id": 2, "ok": true, "cached": false, "k": 10, "scanned": 1287,
//!  "results": [{"rank": 0, "table_id": "film_12", "distance": 0.42}]}
//! ```
//! Typed search failures reuse the error shape below with kinds
//! `IndexNotLoaded` (no index on this server) and `BadK` (`k` outside
//! `1..=len`); encode-stage failures (deadline, degraded, overload …)
//! surface exactly as they do for `encode`.
//!
//! Success response (`embedding` is the table-level `[CLS]` vector):
//! ```json
//! {"id": 1, "ok": true, "cached": false, "seq_len": 24, "d_model": 64,
//!  "embedding": [0.12, -0.5, ...]}
//! ```
//! Error response (`error.kind` is [`EncodeError::kind`] or
//! `"BadRequest"` for malformed input):
//! ```json
//! {"id": 1, "ok": false, "error": {"kind": "TableTooLarge", "message": "..."}}
//! ```

use crate::json::{self, Json};
use crate::service::{HealthReport, ServeRequest};
use ntr::{EncodeError, EncoderSpec, ModelKind, QuantSpec, TableEncoding};
use ntr_table::{Cell, Column, LinearizerOptions, Table};
use std::borrow::Cow;
use std::io::Write;
use std::time::Duration;

/// One parsed request line. `E` is what an encode request carries: a
/// built [`ServeRequest`], or from [`scan`] its spec and unbuilt body.
#[derive(Debug, Clone)]
pub enum WireRequest<E = ServeRequest> {
    /// An encode request to forward to the service.
    Encode {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// What to encode.
        req: E,
    },
    /// A `{"cmd": "search"}` ANN lookup: encode the body table, then
    /// search the loaded index with its embedding.
    Search(SearchRequest),
    /// Graceful-shutdown control message.
    Shutdown,
    /// Health probe: answered inline with [`health_response`], never
    /// queued behind the batcher (it must work while degraded).
    Health,
}

/// The table body of a scanned request. Its strings borrow from the line
/// unless they hold escapes.
#[derive(Debug, Clone)]
pub struct Body<'a> {
    context: Cow<'a, str>,
    timeout: Option<Duration>,
    columns: Vec<Cow<'a, str>>,
    /// Every cell, row-major; each row has one per column.
    cells: Vec<Cow<'a, str>>,
    n_rows: usize,
}

impl Body<'_> {
    /// The key [`crate::content_key`] gives the table [`Body::into_request`]
    /// builds, read from the same key stream without building it.
    pub fn key(&self, spec: EncoderSpec, linearizer_name: &str, opts: &LinearizerOptions) -> u64 {
        crate::cache::key_stream(
            spec,
            linearizer_name,
            opts,
            &self.context,
            ("wire", "", self.n_rows),
            self.columns.iter().map(|c| &**c),
            self.cells.iter().map(|c| (&**c, None)),
        )
    }

    /// Builds the request's table and owns its strings.
    pub fn into_request(self, spec: EncoderSpec) -> ServeRequest {
        let (table, context, timeout) = self.into_parts();
        ServeRequest {
            timeout,
            ..ServeRequest::with_spec(spec, table, context)
        }
    }

    fn into_parts(self) -> (Table, String, Option<Duration>) {
        let columns: Vec<Column> = self.columns.into_iter().map(Column::new).collect();
        let mut cells = self.cells.into_iter().map(Cell::new);
        let rows = (0..self.n_rows)
            .map(|_| cells.by_ref().take(columns.len()).collect())
            .collect();
        // The wire protocol has no table-id field, and the id is part of the
        // cache key — a constant here lets identical content from different
        // requests (and different connections) share one cache entry.
        let table = Table::new("wire", columns, rows).expect("the scan checked every row");
        (table, self.context.into_owned(), self.timeout)
    }
}

/// A parsed search verb.
#[derive(Debug, Clone)]
pub struct SearchRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Neighbors requested (default 10).
    pub k: usize,
    /// Inverted lists to probe; `None` uses the index default.
    pub nprobe: Option<usize>,
    /// Encoder override; `None` falls back to the index's build model.
    pub model: Option<ModelKind>,
    /// Precision override; `None` falls back to the precision the index
    /// was built at (f32 for indexes that predate the stamp).
    pub precision: Option<QuantSpec>,
    /// The query table.
    pub table: Table,
    /// Optional context string (caption / question).
    pub context: String,
    /// Optional per-request deadline, honored by the encode stage.
    pub timeout: Option<Duration>,
}

/// A request that could not be turned into work; becomes an `ok: false`
/// response line.
#[derive(Debug, Clone)]
pub struct WireError {
    /// Correlation id, when it could at least be parsed.
    pub id: Option<u64>,
    /// Stable error kind (`EncodeError::kind` or `"BadRequest"`).
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

fn bad(id: Option<u64>, message: impl Into<String>) -> WireError {
    WireError {
        id,
        kind: "BadRequest",
        message: message.into(),
    }
}

/// Parses one request line; an encode request's table is built.
pub fn parse_request(line: &str) -> Result<WireRequest, WireError> {
    read_request(line, |spec, body| body.into_request(spec))
}

/// Reads one request line once; an encode body still borrows from it.
pub fn scan(line: &str) -> Result<WireRequest<(EncoderSpec, Body<'_>)>, WireError> {
    read_request(line, |spec, body| (spec, body))
}

/// The one request reader: `encode` makes an encode request's payload.
fn read_request<'a, E>(
    line: &'a str,
    encode: impl FnOnce(EncoderSpec, Body<'a>) -> E,
) -> Result<WireRequest<E>, WireError> {
    let mut doc = json::read(line).map_err(|e| bad(None, format!("malformed JSON: {e}")))?;
    let search = match doc.get("cmd").and_then(Json::as_str) {
        None => false,
        Some("search") => true,
        Some("shutdown") => return Ok(WireRequest::Shutdown),
        Some("health") => return Ok(WireRequest::Health),
        Some(other) => return Err(bad(None, format!("unknown cmd {other:?}"))),
    };
    let id = (doc.get("id").and_then(Json::as_u64))
        .ok_or_else(|| bad(None, "missing or non-integer \"id\""))?;
    if search {
        return parse_search(&mut doc, id);
    }
    let model_name = doc
        .get("model")
        .and_then(Json::as_str)
        .ok_or_else(|| bad(Some(id), "missing \"model\""))?;
    let kind = parse_model(model_name, id)?;
    let precision = parse_precision(&doc, id)?.unwrap_or(QuantSpec::F32);
    let spec = EncoderSpec::new(kind, precision);
    // Fail the family/precision mismatch at parse time: a typed line now
    // beats a queued request that the service would reject anyway.
    spec.validate().map_err(|e| WireError {
        id: Some(id),
        kind: e.kind(),
        message: e.to_string(),
    })?;
    let req = encode(spec, take_body(&mut doc, id)?);
    Ok(WireRequest::Encode { id, req })
}

/// Parses the `{"cmd": "search"}` verb: same table body as `encode`, plus
/// `k` / `nprobe` knobs and an optional model override.
fn parse_search<E>(doc: &mut Json<'_>, id: u64) -> Result<WireRequest<E>, WireError> {
    let k = match doc.get("k") {
        None => 10,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| bad(Some(id), "\"k\" must be a non-negative integer"))?
            as usize,
    };
    let nprobe = match doc.get("nprobe") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| bad(Some(id), "\"nprobe\" must be a non-negative integer"))?
                as usize,
        ),
    };
    let model = match doc.get("model") {
        None => None,
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| bad(Some(id), "\"model\" must be a string"))?;
            Some(parse_model(name, id)?)
        }
    };
    let precision = parse_precision(doc, id)?;
    let (table, context, timeout) = take_body(doc, id)?.into_parts();
    Ok(WireRequest::Search(SearchRequest {
        id,
        k,
        nprobe,
        model,
        precision,
        table,
        context,
        timeout,
    }))
}

/// One model parser for the whole system: the registry's `FromStr`, so the
/// wire error menu can never drift from the CLI's or the META stamp's.
fn parse_model(model_name: &str, id: u64) -> Result<ModelKind, WireError> {
    model_name.parse().map_err(|message| WireError {
        id: Some(id),
        kind: "BadModelChoice",
        message,
    })
}

/// Parses the optional `"precision"` field (`None` when absent).
fn parse_precision(doc: &Json, id: u64) -> Result<Option<QuantSpec>, WireError> {
    match doc.get("precision") {
        None => Ok(None),
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| bad(Some(id), "\"precision\" must be a string"))?;
            name.parse().map(Some).map_err(|message| WireError {
                id: Some(id),
                kind: "BadModelChoice",
                message,
            })
        }
    }
}

/// Moves the shared request body out of `doc`: `context`, `timeout_ms`,
/// `columns`, `rows`, checked in that order.
fn take_body<'a>(doc: &mut Json<'a>, id: u64) -> Result<Body<'a>, WireError> {
    let context = doc.take("context").and_then(Json::into_str);
    let timeout = match doc.get("timeout_ms") {
        None => None,
        Some(v) => Some(Duration::from_millis(v.as_u64().ok_or_else(|| {
            bad(Some(id), "\"timeout_ms\" must be a non-negative integer")
        })?)),
    };
    let Some(Json::Arr(columns)) = doc.take("columns") else {
        return Err(bad(Some(id), "missing \"columns\" array"));
    };
    let columns: Option<Vec<_>> = columns.into_iter().map(Json::into_str).collect();
    let columns = columns.ok_or_else(|| bad(Some(id), "non-string column name"))?;
    let Some(Json::Arr(rows)) = doc.take("rows") else {
        return Err(bad(Some(id), "missing \"rows\" array"));
    };
    let n_rows = rows.len();
    // Sized by what was parsed, never by rows × columns of a hostile line.
    let mut cells = Vec::with_capacity(rows.iter().map(|r| r.as_arr().map_or(0, <[_]>::len)).sum());
    for row in rows {
        let Json::Arr(row) = row else {
            return Err(bad(Some(id), "row is not an array"));
        };
        if row.len() != columns.len() {
            let (n, m) = (row.len(), columns.len());
            let message = format!("row has {n} cells but there are {m} columns");
            return Err(bad(Some(id), message));
        }
        for cell in row {
            cells.push(
                cell.into_str()
                    .ok_or_else(|| bad(Some(id), "non-string cell"))?,
            );
        }
    }
    Ok(Body {
        context: context.unwrap_or_default(),
        timeout,
        columns,
        cells,
        n_rows,
    })
}

/// Renders the health-verb response line. `state` is passed separately so
/// the server layer can report `"draining"` during shutdown without the
/// service knowing about it.
pub fn health_response(state: &str, h: &HealthReport) -> String {
    let mut out = String::with_capacity(160);
    out.push_str("{\"ok\": true, \"state\": ");
    json::write_str(&mut out, state);
    out.push_str(&format!(
        ", \"queue_depth\": {}, \"queue_cap\": {}, \"restarts\": {}, \
         \"quarantined\": {}, \"deadline_exceeded\": {}, \"replicas\": [",
        h.queue_depth, h.queue_cap, h.restarts, h.quarantined, h.deadline_exceeded
    ));
    for (i, r) in h.replicas.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{{\"rebuilds\": {}}}", r.rebuilds));
    }
    out.push_str("]}");
    out
}

/// Renders a success response line (no trailing newline).
pub fn ok_response(id: u64, enc: &TableEncoding, cached: bool) -> String {
    let mut out = Vec::new();
    write_ok(&mut out, id, enc, cached);
    String::from_utf8(out).expect("a reply is ASCII")
}

/// [`ok_response`], appended to `out` (a connection's write buffer).
pub fn write_ok(out: &mut Vec<u8>, id: u64, enc: &TableEncoding, cached: bool) {
    let emb = enc.states.row(0);
    out.reserve(96 + emb.len() * 12);
    // Writes to a `Vec` cannot fail.
    let _ = write!(
        out,
        "{{\"id\": {id}, \"ok\": true, \"cached\": {cached}, \"seq_len\": {}, \"d_model\": {}, \"embedding\": [",
        enc.encoded.len(),
        emb.len(),
    );
    for (i, v) in emb.iter().enumerate() {
        if i > 0 {
            out.extend_from_slice(b", ");
        }
        // Rust's shortest-round-trip float formatting: parses back to the
        // identical f32 bit pattern.
        let _ = write!(out, "{v}");
    }
    out.extend_from_slice(b"]}");
}

/// Renders a search success line: ranked `(table_id, distance)` results
/// plus the scanned-vector count (the work an exact scan would not avoid).
pub fn search_ok_response(
    id: u64,
    cached: bool,
    res: &ntr_index::SearchResult,
    store: &ntr_index::EmbeddingStore,
) -> String {
    let mut out = String::with_capacity(64 + res.hits.len() * 48);
    out.push_str(&format!(
        "{{\"id\": {id}, \"ok\": true, \"cached\": {cached}, \"k\": {}, \"scanned\": {}, \"results\": [",
        res.hits.len(),
        res.scanned,
    ));
    for (rank, (row, dist)) in res.hits.iter().enumerate() {
        if rank > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{{\"rank\": {rank}, \"table_id\": "));
        json::write_str(&mut out, store.id(*row as usize));
        // Shortest-round-trip float formatting, as in `ok_response`.
        out.push_str(&format!(", \"distance\": {dist}}}"));
    }
    out.push_str("]}");
    out
}

/// Renders the typed rejection for a search against a server that was
/// started without an index.
pub fn index_not_loaded_response(id: u64) -> String {
    err_response(&WireError {
        id: Some(id),
        kind: "IndexNotLoaded",
        message: "no index loaded; start the server with --index DIR".into(),
    })
}

/// Renders a typed search failure from an [`ntr_index::IndexError`].
pub fn search_err_response(id: u64, e: &ntr_index::IndexError) -> String {
    err_response(&WireError {
        id: Some(id),
        kind: e.kind(),
        message: e.to_string(),
    })
}

/// Renders the typed rejection for a line that exceeded the server's
/// `max_line_bytes` (the line is discarded unbuffered, so no id could be
/// parsed; the connection stays open).
pub fn line_too_long_response(buffered: usize, max_line_bytes: usize) -> String {
    err_response(&WireError {
        id: None,
        kind: "LineTooLong",
        message: format!(
            "request line exceeded {max_line_bytes} bytes (got at least {buffered}); \
             the line was discarded"
        ),
    })
}

/// Renders the connection-level rejection sent (then followed by close)
/// when the server is at its `max_conns` limit.
pub fn conn_limit_response(max_conns: usize) -> String {
    err_response(&WireError {
        id: None,
        kind: "Overloaded",
        message: format!("connection limit reached ({max_conns}); retry after backoff"),
    })
}

/// Renders an error response line from a service-level [`EncodeError`].
pub fn encode_err_response(id: u64, e: &EncodeError) -> String {
    err_response(&WireError {
        id: Some(id),
        kind: e.kind(),
        message: e.to_string(),
    })
}

/// Renders an error response line.
pub fn err_response(e: &WireError) -> String {
    let mut out = String::new();
    out.push_str("{\"id\": ");
    match e.id {
        Some(id) => out.push_str(&id.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(", \"ok\": false, \"error\": {\"kind\": ");
    json::write_str(&mut out, e.kind);
    out.push_str(", \"message\": ");
    json::write_str(&mut out, &e.message);
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_encode_request() {
        let line = r#"{"id": 7, "model": "tapas", "context": "pop",
                       "columns": ["a", "b"], "rows": [["1", "2"], ["3", "4"]]}"#;
        let WireRequest::Encode { id, req } = parse_request(line).unwrap() else {
            panic!("expected encode");
        };
        assert_eq!(id, 7);
        assert_eq!(req.spec, EncoderSpec::f32(ModelKind::Tapas));
        assert_eq!(req.context, "pop");
        assert_eq!(req.table.n_rows(), 2);
        assert_eq!(req.table.n_cols(), 2);
        assert_eq!(req.table.cell(1, 0).raw, "3");
    }

    #[test]
    fn parses_precision_field() {
        // Explicit int8 on the student.
        let line = r#"{"id": 1, "model": "row-student", "precision": "int8",
                       "columns": ["a"], "rows": [["1"]]}"#;
        let WireRequest::Encode { req, .. } = parse_request(line).unwrap() else {
            panic!("expected encode");
        };
        assert_eq!(req.spec, EncoderSpec::int8(ModelKind::RowStudent));
        // Absent field defaults to f32.
        let line = r#"{"id": 2, "model": "row-student", "columns": ["a"], "rows": [["1"]]}"#;
        let WireRequest::Encode { req, .. } = parse_request(line).unwrap() else {
            panic!("expected encode");
        };
        assert_eq!(req.spec.precision, QuantSpec::F32);
        // int8 on a family without an int8 path is rejected at parse time.
        let e = parse_request(
            r#"{"id": 3, "model": "tapas", "precision": "int8", "columns": ["a"], "rows": [["1"]]}"#,
        )
        .unwrap_err();
        assert_eq!(e.kind, "BadModelChoice");
        assert_eq!(e.id, Some(3));
        // Unknown precision name lists the menu.
        let e = parse_request(
            r#"{"id": 4, "model": "bert", "precision": "fp4", "columns": ["a"], "rows": [["1"]]}"#,
        )
        .unwrap_err();
        assert_eq!(e.kind, "BadModelChoice");
        assert!(e.message.contains("f32, int8"), "{}", e.message);
    }

    #[test]
    fn parses_shutdown() {
        assert!(matches!(
            parse_request(r#"{"cmd": "shutdown"}"#).unwrap(),
            WireRequest::Shutdown
        ));
    }

    #[test]
    fn parses_health() {
        assert!(matches!(
            parse_request(r#"{"cmd": "health"}"#).unwrap(),
            WireRequest::Health
        ));
    }

    #[test]
    fn parses_timeout_ms() {
        let line = r#"{"id": 1, "model": "bert", "timeout_ms": 250,
                       "columns": ["a"], "rows": [["1"]]}"#;
        let WireRequest::Encode { req, .. } = parse_request(line).unwrap() else {
            panic!("expected encode");
        };
        assert_eq!(req.timeout, Some(Duration::from_millis(250)));
        // Absent field means "no per-request deadline".
        let line = r#"{"id": 1, "model": "bert", "columns": ["a"], "rows": [["1"]]}"#;
        let WireRequest::Encode { req, .. } = parse_request(line).unwrap() else {
            panic!("expected encode");
        };
        assert_eq!(req.timeout, None);
        // A malformed budget is a typed BadRequest, not a silent default.
        let e = parse_request(
            r#"{"id": 9, "model": "bert", "timeout_ms": "soon", "columns": ["a"], "rows": [["1"]]}"#,
        )
        .unwrap_err();
        assert_eq!(e.kind, "BadRequest");
        assert_eq!(e.id, Some(9));
    }

    #[test]
    fn parses_search_request() {
        let line = r#"{"cmd": "search", "id": 5, "k": 3, "nprobe": 2, "model": "bert",
                       "columns": ["a"], "rows": [["1"]]}"#;
        let WireRequest::Search(sr) = parse_request(line).unwrap() else {
            panic!("expected search");
        };
        assert_eq!(sr.id, 5);
        assert_eq!(sr.k, 3);
        assert_eq!(sr.nprobe, Some(2));
        assert_eq!(sr.model, Some(ModelKind::Bert));
        assert_eq!(sr.precision, None);
        assert_eq!(sr.table.n_rows(), 1);

        // k defaults to 10; nprobe, model and precision fall back to the
        // index's own.
        let line = r#"{"cmd": "search", "id": 6, "columns": ["a"], "rows": [["1"]]}"#;
        let WireRequest::Search(sr) = parse_request(line).unwrap() else {
            panic!("expected search");
        };
        assert_eq!(sr.k, 10);
        assert_eq!(sr.nprobe, None);
        assert_eq!(sr.model, None);
        assert_eq!(sr.precision, None);

        // An explicit precision override parses.
        let line = r#"{"cmd": "search", "id": 11, "precision": "int8",
                       "columns": ["a"], "rows": [["1"]]}"#;
        let WireRequest::Search(sr) = parse_request(line).unwrap() else {
            panic!("expected search");
        };
        assert_eq!(sr.precision, Some(QuantSpec::Int8));

        let e = parse_request(
            r#"{"cmd": "search", "id": 7, "k": "lots", "columns": ["a"], "rows": [["1"]]}"#,
        )
        .unwrap_err();
        assert_eq!(e.kind, "BadRequest");
        assert_eq!(e.id, Some(7));

        let e =
            parse_request(r#"{"cmd": "search", "columns": ["a"], "rows": [["1"]]}"#).unwrap_err();
        assert_eq!(e.kind, "BadRequest");
        assert_eq!(e.id, None);

        let e = parse_request(
            r#"{"cmd": "search", "id": 8, "model": "gpt", "columns": ["a"], "rows": [["1"]]}"#,
        )
        .unwrap_err();
        assert_eq!(e.kind, "BadModelChoice");
    }

    #[test]
    fn search_response_shape() {
        let mut store = ntr_index::EmbeddingStore::new(2);
        store.push("t_a", &[0.0, 0.0]).unwrap();
        store.push("t_b", &[1.0, 1.0]).unwrap();
        let res = ntr_index::SearchResult {
            hits: vec![(1, 0.25), (0, 2.0)],
            scanned: 2,
        };
        let line = search_ok_response(9, true, &res, &store);
        let doc = crate::json::parse(&line).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(9));
        assert_eq!(doc.get("k").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("scanned").and_then(Json::as_u64), Some(2));
        let results = doc.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(
            results[0].get("table_id").and_then(Json::as_str),
            Some("t_b")
        );
        assert_eq!(results[0].get("rank").and_then(Json::as_u64), Some(0));
        assert_eq!(results[1].get("rank").and_then(Json::as_u64), Some(1));

        let line = index_not_loaded_response(4);
        let doc = crate::json::parse(&line).unwrap();
        let err = doc.get("error").unwrap();
        assert_eq!(
            err.get("kind").and_then(Json::as_str),
            Some("IndexNotLoaded")
        );
    }

    #[test]
    fn health_response_shape() {
        use crate::service::ReplicaStatus;
        let line = health_response(
            "degraded",
            &HealthReport {
                state: "degraded",
                queue_depth: 3,
                queue_cap: 256,
                restarts: 1,
                quarantined: 2,
                deadline_exceeded: 4,
                replicas: vec![ReplicaStatus { rebuilds: 2 }, ReplicaStatus { rebuilds: 3 }],
            },
        );
        let doc = crate::json::parse(&line).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("state").and_then(Json::as_str), Some("degraded"));
        assert_eq!(doc.get("queue_cap").and_then(Json::as_u64), Some(256));
        let replicas = doc.get("replicas").and_then(Json::as_arr).unwrap();
        assert_eq!(replicas.len(), 2);
        assert_eq!(replicas[1].get("retired"), None);
        assert_eq!(replicas[1].get("rebuilds").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn rejects_bad_requests() {
        // (line, expected kind, expect id echoed)
        let cases = [
            ("not json", "BadRequest", false),
            (
                r#"{"model": "bert", "columns": [], "rows": []}"#,
                "BadRequest",
                false,
            ),
            // Above 2^53 an f64 no longer holds the id that was sent.
            (
                r#"{"id": 9007199254740993, "model": "bert", "columns": [], "rows": []}"#,
                "BadRequest",
                false,
            ),
            (
                r#"{"id": 18446744073709551616, "model": "bert", "columns": [], "rows": []}"#,
                "BadRequest",
                false,
            ),
            (
                r#"{"id": 1, "columns": [], "rows": []}"#,
                "BadRequest",
                true,
            ),
            (
                r#"{"id": 2, "model": "gpt", "columns": [], "rows": []}"#,
                "BadModelChoice",
                true,
            ),
            (
                r#"{"id": 3, "model": "bert", "columns": ["a"], "rows": [["1", "2"]]}"#,
                "BadRequest",
                true,
            ),
        ];
        for (line, kind, has_id) in cases {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.kind, kind, "{line}");
            assert_eq!(e.id.is_some(), has_id, "{line}");
        }
    }

    #[test]
    fn error_response_shape() {
        let line = err_response(&WireError {
            id: Some(4),
            kind: "TableTooLarge",
            message: "no data row fits".into(),
        });
        let doc = crate::json::parse(&line).unwrap();
        assert_eq!(doc.get("ok"), Some(&crate::json::Json::Bool(false)));
        let err = doc.get("error").unwrap();
        assert_eq!(
            err.get("kind").and_then(Json::as_str),
            Some("TableTooLarge")
        );
    }
}
