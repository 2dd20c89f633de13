//! Property tests for the wire JSON string escaping: any Rust string the
//! service can emit — error details carrying panic payloads, hostile cell
//! text echoed back in `BadRequest` messages — must survive
//! `json::write_str` → `json::parse` bit-for-bit. A single mis-escaped
//! control character would corrupt the NDJSON framing (a raw `\n` splits
//! one response into two lines), so this property is load-bearing for the
//! protocol, not just cosmetic.

use ntr::EncodeError;
use ntr_serve::json::{self, Json};
use ntr_serve::wire;
use proptest::prelude::*;

/// Arbitrary Unicode strings, surrogate gap mapped to U+FFFD (the same
/// substitution the parser applies to unpaired `\u` escapes). Draws are
/// weighted toward the troublesome regions: ASCII controls, the escape
/// metacharacters, and astral-plane code points.
fn arb_string() -> impl Strategy<Value = String> {
    let cp = prop_oneof![
        0u32..0x20,             // C0 controls: must be \u-escaped
        0x20u32..0x80,          // printable ASCII incl. `"` and `\`
        0x80u32..0x800,         // 2-byte UTF-8
        0x800u32..0x1_0000,     // 3-byte UTF-8 (crosses the surrogate gap)
        0x1_0000u32..0x11_0000  // astral plane: 4-byte UTF-8, non-BMP
    ];
    proptest::collection::vec(cp, 0..48).prop_map(|cps| {
        cps.into_iter()
            .map(|c| char::from_u32(c).unwrap_or('\u{FFFD}'))
            .collect()
    })
}

/// Embeds `s` as an object value the way every response renderer does,
/// parses the document back, and returns the recovered string.
fn through_wire(s: &str) -> String {
    let mut line = String::from("{\"detail\": ");
    json::write_str(&mut line, s);
    line.push('}');
    let doc = json::parse(&line).unwrap_or_else(|e| panic!("emitted invalid JSON {line:?}: {e}"));
    doc.get("detail")
        .and_then(Json::as_str)
        .expect("detail field survives")
        .to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn write_str_round_trips_arbitrary_strings(s in arb_string()) {
        prop_assert_eq!(through_wire(&s), s);
    }

    // The full error-response path: an `Internal` whose detail is a panic
    // payload of arbitrary text must come back as one well-formed line
    // with the detail intact inside `error.message`.
    #[test]
    fn internal_error_responses_round_trip(detail in arb_string(), id in 0u64..1_000_000) {
        let line = wire::encode_err_response(id, &EncodeError::Internal { detail: detail.clone() });
        prop_assert!(!line.contains('\n'), "response must stay a single NDJSON line");
        let doc = json::parse(&line).expect("error response is valid JSON");
        prop_assert_eq!(doc.get("id").and_then(Json::as_u64), Some(id));
        prop_assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        let err = doc.get("error").expect("error object");
        prop_assert_eq!(err.get("kind").and_then(Json::as_str), Some("Internal"));
        let msg = err.get("message").and_then(Json::as_str).expect("message");
        prop_assert!(msg.contains(&detail), "payload {detail:?} lost from {msg:?}");
    }
}

#[test]
fn targeted_hostile_strings_round_trip() {
    let cases: &[&str] = &[
        "",
        "\"",
        "\\",
        "\\\"\\\"",
        "a\"b\\c",
        "\n\r\t",
        "\u{0}\u{1}\u{8}\u{c}\u{1f}", // every escape branch incl. \u00xx
        "line1\nline2\r\nline3",      // framing hazards
        "tab\there\tand\tthere",
        "ünïcödé çhärs",                          // 2-byte sequences
        "日本語のテーブル",                       // 3-byte sequences
        "emoji 😀🎉 and music 𝄞",                 // non-BMP (4-byte, surrogate pairs in UTF-16)
        "\u{FFFD}\u{FFFF}\u{10FFFF}",             // boundary code points
        "{\"nested\": \"json\"}",                 // JSON-in-string must not re-parse
        "ntr-faults: injected serve flush panic", // the actual panic payload
    ];
    for s in cases {
        assert_eq!(&through_wire(s), s, "round-trip failed for {s:?}");
    }
}

// ---------------------------------------------------------------------------
// The request scan against a model of the wire contract. Each generated line
// comes from a model request whose outcome is worked out independently: the
// typed error line the protocol has always answered, or the table whose
// `content_key` the scan's borrowed key must equal.

use ntr::{EncoderSpec, ModelKind, QuantSpec};
use ntr_serve::wire::WireRequest;
use ntr_table::{LinearizerOptions, Table};

/// A splitmix64 stream: one proptest seed drives a whole line.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// A model JSON value: strings are held decoded, numbers as their literal
/// plus the id/timeout `as_u64` reads from it.
#[derive(Clone)]
enum Val {
    Str(String),
    Num(&'static str, Option<u64>),
    Lit(&'static str),
    Arr(Vec<Val>),
}

const TEXT: &[&str] = &[
    "Paris",
    "Fränce",
    "日本",
    "a\"b",
    "back\\slash",
    "tab\there",
    "",
    " ",
    "1.5",
    "-3",
    "😀",
    "x/y",
    "line\nbreak",
    "\u{1}",
    "\u{FFFD}",
];

const NUMS: &[(&str, Option<u64>)] = &[
    ("0", Some(0)),
    ("7", Some(7)),
    ("250", Some(250)),
    ("1e3", Some(1000)),
    ("-1", None),
    ("2.5", None),
    ("9007199254740993", None),
];

fn text(d: &mut Draw) -> String {
    let mut s = d.pick(TEXT).to_string();
    if d.chance(25) {
        s.push_str(d.pick(TEXT));
    }
    s
}

fn ws(d: &mut Draw) -> &'static str {
    d.pick(&["", "", " ", "  ", "\t", " \r "])
}

/// Renders a decoded string with escapes chosen at random: `\u` escapes
/// (either case), `\/`, and U+FFFD sent as a lone surrogate escape.
fn render_str(d: &mut Draw, s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{FFFD}' if d.chance(50) => out.push_str(d.pick(&["\\ud800", "\\uDC00", "\\udfff"])),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            '/' if d.chance(50) => out.push_str("\\/"),
            c if (c as u32) < 0x1_0000 && d.chance(15) => {
                out.push_str(&if d.chance(50) {
                    format!("\\u{:04x}", c as u32)
                } else {
                    format!("\\u{:04X}", c as u32)
                });
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render(d: &mut Draw, v: &Val, out: &mut String) {
    match v {
        Val::Str(s) => render_str(d, s, out),
        Val::Num(lit, _) | Val::Lit(lit) => out.push_str(lit),
        Val::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(ws(d));
                render(d, item, out);
                out.push_str(ws(d));
            }
            out.push(']');
        }
    }
}

fn model_request(d: &mut Draw) -> Vec<(&'static str, Val)> {
    let n_cols = d.below(4);
    let cell = |d: &mut Draw| {
        if d.chance(97) {
            Val::Str(text(d))
        } else {
            Val::Lit(d.pick(&["1", "null", "[]"]))
        }
    };
    let columns = (0..n_cols).map(|_| cell(d)).collect();
    let rows = (0..d.below(4))
        .map(|_| {
            let width = if d.chance(90) { n_cols } else { d.below(5) };
            if d.chance(97) {
                Val::Arr((0..width).map(|_| cell(d)).collect())
            } else {
                Val::Str("notarow".into())
            }
        })
        .collect();
    let mut pairs = vec![];
    let (lit, id) = d.pick(NUMS);
    pairs.push((
        "id",
        if d.chance(90) {
            Val::Num("42", Some(42))
        } else {
            Val::Num(lit, id)
        },
    ));
    let models = ["tapas", "bert", "turl", "mate", "row-student", "gpt"];
    pairs.push(("model", Val::Str(d.pick(&models).into())));
    match d.below(6) {
        0 => pairs.push(("precision", Val::Str("f32".into()))),
        1 | 2 => pairs.push(("precision", Val::Str("int8".into()))),
        3 if d.chance(30) => pairs.push(("precision", Val::Str("fp4".into()))),
        3 => pairs.push(("precision", Val::Num("8", Some(8)))),
        _ => {}
    }
    match d.below(10) {
        0..=5 => pairs.push(("context", Val::Str(text(d)))),
        6 => pairs.push((
            "context",
            Val::Lit(d.pick(&["1", "null", "[\"a\"]", "true"])),
        )),
        _ => {}
    }
    match d.below(10) {
        0..=1 => pairs.push(("timeout_ms", Val::Num("0", Some(0)))),
        2..=3 => {
            let (lit, ms) = d.pick(NUMS);
            pairs.push(("timeout_ms", Val::Num(lit, ms)));
        }
        4 => pairs.push(("timeout_ms", Val::Str("soon".into()))),
        _ => {}
    }
    if d.chance(97) {
        pairs.push((
            "columns",
            if d.chance(97) {
                Val::Arr(columns)
            } else {
                Val::Str("a".into())
            },
        ));
    }
    if d.chance(97) {
        pairs.push((
            "rows",
            if d.chance(97) {
                Val::Arr(rows)
            } else {
                Val::Lit("{}")
            },
        ));
    }
    if d.chance(3) {
        pairs.retain(|(k, _)| *k != "model");
    }
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, d.below(i + 1));
    }
    // Duplicate keys: the first one wins.
    for _ in 0..d.pick(&[0, 0, 1, 2]) {
        let key = d.pick(&[
            "id",
            "model",
            "context",
            "columns",
            "rows",
            "timeout_ms",
            "precision",
        ]);
        let v = d.pick(&[0, 1, 2, 3]);
        let v = match v {
            0 => Val::Str("dup".into()),
            1 => Val::Arr(vec![]),
            2 => Val::Arr(vec![Val::Arr(vec![Val::Str("z".into())])]),
            _ => Val::Num("2", Some(2)),
        };
        pairs.push((key, v));
    }
    pairs
}

fn render_line(d: &mut Draw, pairs: &[(&str, Val)]) -> String {
    let mut line = String::from(ws(d));
    line.push('{');
    for (i, (key, v)) in pairs.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(ws(d));
        render_str(d, key, &mut line);
        line.push_str(ws(d));
        line.push(':');
        line.push_str(ws(d));
        render(d, v, &mut line);
        line.push_str(ws(d));
    }
    line.push('}');
    line.push_str(ws(d));
    line
}

/// What the protocol answers for a model request: a typed error line, or
/// the (id, spec, timeout, context, table) it encodes.
type Outcome = Result<(u64, EncoderSpec, Option<u64>, String, Table), String>;

fn error_line(id: Option<u64>, kind: &str, message: &str) -> String {
    let mut out = format!(
        "{{\"id\": {}, \"ok\": false, \"error\": {{\"kind\": ",
        id.map_or("null".to_string(), |id| id.to_string())
    );
    json::write_str(&mut out, kind);
    out.push_str(", \"message\": ");
    json::write_str(&mut out, message);
    out.push_str("}}");
    out
}

fn expected(pairs: &[(&str, Val)]) -> Outcome {
    let first = |key: &str| pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
    let Some(Val::Num(_, Some(id))) = first("id") else {
        return Err(error_line(
            None,
            "BadRequest",
            "missing or non-integer \"id\"",
        ));
    };
    let id = *id;
    let bad = |message: &str| Err(error_line(Some(id), "BadRequest", message));
    let Some(Val::Str(model)) = first("model") else {
        return bad("missing \"model\"");
    };
    let kind: ModelKind = match model.parse() {
        Ok(kind) => kind,
        Err(message) => return Err(error_line(Some(id), "BadModelChoice", &message)),
    };
    let precision: QuantSpec = match first("precision") {
        None => QuantSpec::F32,
        Some(Val::Str(name)) => match name.parse() {
            Ok(p) => p,
            Err(message) => return Err(error_line(Some(id), "BadModelChoice", &message)),
        },
        Some(_) => return bad("\"precision\" must be a string"),
    };
    let spec = EncoderSpec::new(kind, precision);
    if let Err(e) = spec.validate() {
        return Err(error_line(Some(id), e.kind(), &e.to_string()));
    }
    let context = match first("context") {
        Some(Val::Str(s)) => s.clone(),
        _ => String::new(),
    };
    let timeout = match first("timeout_ms") {
        None => None,
        Some(Val::Num(_, Some(ms))) => Some(*ms),
        Some(_) => return bad("\"timeout_ms\" must be a non-negative integer"),
    };
    let Some(Val::Arr(columns)) = first("columns") else {
        return bad("missing \"columns\" array");
    };
    let mut names = vec![];
    for c in columns {
        let Val::Str(name) = c else {
            return bad("non-string column name");
        };
        names.push(name.as_str());
    }
    let Some(Val::Arr(rows)) = first("rows") else {
        return bad("missing \"rows\" array");
    };
    let mut cells: Vec<Vec<&str>> = vec![];
    for row in rows {
        let Val::Arr(row) = row else {
            return bad("row is not an array");
        };
        if row.len() != names.len() {
            let n = (row.len(), names.len());
            return bad(&format!(
                "row has {} cells but there are {} columns",
                n.0, n.1
            ));
        }
        let mut texts = vec![];
        for cell in row {
            let Val::Str(text) = cell else {
                return bad("non-string cell");
            };
            texts.push(text.as_str());
        }
        cells.push(texts);
    }
    let slices: Vec<&[&str]> = cells.iter().map(Vec::as_slice).collect();
    let table = Table::from_strings("wire", &names, &slices);
    Ok((id, spec, timeout, context, table))
}

fn key(spec: EncoderSpec, table: &Table, context: &str) -> u64 {
    ntr_serve::content_key(
        spec,
        "row_major",
        &LinearizerOptions::default(),
        table,
        context,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    // Escapes (`\u`, either case, lone surrogates), non-ASCII text,
    // duplicate keys, a context that is not a string, `timeout_ms` at 0,
    // absent or malformed, every family at f32 and int8, ragged rows and
    // stray whitespace: the scan keys what `parse_request` builds, both
    // answer what the model says, and every error line is the one the
    // protocol has always sent.
    #[test]
    fn the_scan_keys_and_answers_what_the_contract_says(seed in 0u64..u64::MAX) {
        let mut d = Draw(seed);
        let pairs = model_request(&mut d);
        let line = render_line(&mut d, &pairs);
        let parsed = wire::parse_request(&line).map_err(|e| wire::err_response(&e));
        let scanned = wire::scan(&line).map_err(|e| wire::err_response(&e));
        match expected(&pairs) {
            Err(want) => {
                prop_assert_eq!(parsed.err(), Some(want.clone()), "{}", line);
                prop_assert_eq!(scanned.err(), Some(want), "{}", line);
            }
            Ok((id, spec, timeout, context, table)) => {
                let want = key(spec, &table, &context);
                let Ok(WireRequest::Encode { id: got_id, req }) = parsed else {
                    panic!("{line}: expected an encode request");
                };
                prop_assert_eq!((got_id, req.spec), (id, spec));
                prop_assert_eq!(req.timeout.map(|t| t.as_millis() as u64), timeout);
                prop_assert_eq!(&req.context, &context);
                prop_assert_eq!(key(req.spec, &req.table, &req.context), want, "{}", line);
                let Ok(WireRequest::Encode { req: (spec, body), .. }) = scanned else {
                    panic!("{line}: expected an encode scan");
                };
                prop_assert_eq!(body.key(spec, "row_major", &LinearizerOptions::default()), want, "{}", line);
            }
        }
    }
}

/// Three error lines pinned byte for byte, as the protocol has answered
/// them: a ragged row, a family without an int8 path, and a malformed
/// `\u` escape.
#[test]
fn error_lines_are_pinned() {
    let cases = [
        (
            r#"{"id": 1, "model": "tapas", "columns": ["a"], "rows": [["x", "y"]]}"#,
            r#"{"id": 1, "ok": false, "error": {"kind": "BadRequest", "message": "row has 2 cells but there are 1 columns"}}"#,
        ),
        (
            r#"{"id": 2, "model": "tapas", "precision": "int8", "columns": ["a"], "rows": [["x"]]}"#,
            r#"{"id": 2, "ok": false, "error": {"kind": "BadModelChoice", "message": "bad model choice: model tapas has no int8 inference path; only row-student serves at int8"}}"#,
        ),
        (
            r#"{"id": 3, "model": "bert", "columns": ["a\q"], "rows": []}"#,
            r#"{"id": null, "ok": false, "error": {"kind": "BadRequest", "message": "malformed JSON: bad escape at byte 42"}}"#,
        ),
    ];
    for (line, want) in cases {
        let got = wire::parse_request(line)
            .map(|_| ())
            .map_err(|e| wire::err_response(&e));
        assert_eq!(got, Err(want.to_string()), "{line}");
    }
}
