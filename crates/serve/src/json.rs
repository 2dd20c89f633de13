//! A minimal JSON value type with one recursive-descent reader and a
//! writer — just enough for the NDJSON wire protocol, std-only by
//! design (the whole workspace is dependency-free).
//!
//! The reader borrows: a string is a slice of the input line, owned only
//! when it holds escapes. Numbers are kept as `f64`; object key order is
//! preserved (`Vec` of pairs, not a map) so responses serialize
//! deterministically.

use std::borrow::Cow;

/// A parsed JSON value whose strings borrow from the input.
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes resolved).
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object, in source order.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Moves the first `key` field's value out, leaving `null` in its place.
    pub(crate) fn take(&mut self, key: &str) -> Option<Json<'a>> {
        let Json::Obj(pairs) = self else { return None };
        let (_, v) = pairs.iter_mut().find(|(k, _)| k == key)?;
        Some(std::mem::replace(v, Json::Null))
    }

    /// The string payload, moved out, if this is a string.
    pub(crate) fn into_str(self) -> Option<Cow<'a, str>> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer. Numbers are held as
    /// `f64`, so only integers below 2^53 are accepted: from there on two
    /// different literals can parse to the same `f64` (2^53 + 1 reads as
    /// 2^53), and the value handed back would not be the one sent.
    pub fn as_u64(&self) -> Option<u64> {
        const FIRST_INEXACT: f64 = (1u64 << 53) as f64;
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < FIRST_INEXACT => Some(*n as u64),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The same document, detached from its input.
    pub(crate) fn into_owned(self) -> Json<'static> {
        let own = |s: Cow<'a, str>| Cow::Owned(s.into_owned());
        let pair = |(k, v): (Cow<'a, str>, Json<'a>)| (own(k), v.into_owned());
        match self {
            Json::Null => Json::Null,
            Json::Bool(b) => Json::Bool(b),
            Json::Num(n) => Json::Num(n),
            Json::Str(s) => Json::Str(own(s)),
            Json::Arr(vs) => Json::Arr(vs.into_iter().map(Json::into_owned).collect()),
            Json::Obj(kv) => Json::Obj(kv.into_iter().map(pair).collect()),
        }
    }
}

/// Deepest accepted array/object nesting. The parser is recursive
/// descent, so without a bound a hostile line of `[[[[…` converts input
/// bytes into stack frames and aborts the process; real requests nest 3
/// levels (`rows` → row → cell).
pub const MAX_DEPTH: usize = 128;

/// Reads one JSON document, borrowing its strings from `s`; trailing
/// non-whitespace is an error.
pub(crate) fn read(s: &str) -> Result<Json<'_>, String> {
    let mut p = Parser {
        src: s,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

/// [`read`], detached from `s`: for a document kept past its line.
pub fn parse(s: &str) -> Result<Json<'static>, String> {
    read(s).map(Json::into_owned)
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.src.as_bytes().get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json<'a>) -> Result<Json<'a>, String> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json<'a>, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json<'a>, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json<'a>, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    /// A string as a slice of the input, or owned when it holds escapes.
    /// It is cut only at ASCII bytes (quotes, backslashes and the ends of
    /// escapes), which are always character boundaries of the `&str`.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut run = self.pos; // start of the unescaped run being scanned
        let mut owned: Option<String> = None;
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    let tail = &self.src[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(out) => Cow::Owned(out + tail),
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = (self.src.as_bytes())
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            // Surrogates are replaced, not paired — the wire
                            // protocol only carries table text.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                    run = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<Json<'a>, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let raw = &self.src[start..self.pos];
        raw.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {raw:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"id": 3, "ok": true, "rows": [["a", "b"], []], "x": null}"#).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let rows = v.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows[0].as_arr().unwrap()[1].as_str(), Some("b"));
        assert!(rows[1].as_arr().unwrap().is_empty());
        assert_eq!(v.get("x"), Some(&Json::Null));
    }

    #[test]
    fn escapes_round_trip() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\te\u{1}");
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn strings_borrow_from_the_line_unless_escaped() {
        let doc = read(r#"{"plain": "Grèce", "escaped": "Gr\u00e8ce", "k\u0065y": 1}"#).unwrap();
        assert!(matches!(
            doc.get("plain"),
            Some(Json::Str(Cow::Borrowed("Grèce")))
        ));
        assert!(matches!(doc.get("escaped"), Some(Json::Str(Cow::Owned(s))) if s == "Grèce"));
        assert_eq!(doc.get("key").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.clone().into_owned(), doc);
    }

    #[test]
    fn error_messages_name_the_byte() {
        for (bad, message) in [
            ("[1,]", "unexpected input at byte 3"),
            ("{\"a\" 1}", "expected ':' at byte 5"),
            ("\"a\\qb\"", "bad escape at byte 3"),
            ("\"\\u12xy\"", "invalid digit found in string"),
            ("\"\\u12", "truncated \\u escape"),
            ("\"\\u123ü\"", "bad \\u escape"),
            ("\"abc", "unterminated string"),
            ("1 2", "trailing input at byte 2"),
            ("-", "bad number \"-\" at byte 0"),
        ] {
            assert_eq!(parse(bad).unwrap_err(), message, "{bad:?}");
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"ab"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Just inside the limit parses; one past it errors instead of
        // overflowing the stack.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        // Hostile case: a long unclosed prefix must also error cheaply.
        let bomb = "[".repeat(100_000);
        assert!(parse(&bomb).is_err());
        let obj_bomb = "{\"k\":".repeat(100_000);
        assert!(parse(&obj_bomb).is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(parse("-2.5e2").unwrap().as_f64(), Some(-250.0));
        assert_eq!(parse("12").unwrap().as_u64(), Some(12));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        let max_exact = (1u64 << 53) - 1;
        assert_eq!(
            parse(&max_exact.to_string()).unwrap().as_u64(),
            Some(max_exact)
        );
        assert_eq!(parse("9007199254740993").unwrap().as_u64(), None);
    }
}
