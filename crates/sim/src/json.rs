//! Minimal hand-rolled JSON support for the observability layer.
//!
//! The build environment is fully offline, so instead of `serde` this module
//! provides exactly what the profiling exports need:
//!
//! * [`JsonWriter`] — an append-only writer producing well-formed JSON
//!   objects/arrays (used by [`crate::ProfileReport`] and the `figures`
//!   harness).
//! * [`Json`] — a tiny recursive-descent parser, used by tests and CI smoke
//!   checks to verify that every emitted document round-trips through a
//!   real parse (not just an eyeball check).

use std::fmt::Write as _;

/// Escape `s` as the *contents* of a JSON string (no surrounding quotes).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialize `s` as a complete JSON string literal (quotes included).
pub fn quoted(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Render an `f64` as a JSON number. JSON has no NaN/infinity, so those
/// (which only arise from degenerate 0/0-style metrics) render as `0`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on f64 never produces exponent notation for finite values in
        // the ranges we emit, and always includes a digit before any `.`.
        s
    } else {
        "0".to_string()
    }
}

/// An append-only JSON document builder.
///
/// The caller drives structure through [`JsonWriter::begin_obj`] /
/// [`JsonWriter::begin_arr_key`] (and the matching `end_*`), and the writer
/// tracks comma placement. Keys are only legal inside objects, bare values
/// only inside arrays (or as the document root).
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// Stack of `(is_object, has_entries)` frames.
    stack: Vec<(bool, bool)>,
}

impl JsonWriter {
    /// Fresh writer with an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build one standalone JSON object: `body` writes its fields.
    pub fn object(body: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        body(&mut w);
        w.end_obj();
        w.finish()
    }

    fn comma(&mut self) {
        if let Some((_, has)) = self.stack.last_mut() {
            if *has {
                self.buf.push(',');
            }
            *has = true;
        }
    }

    /// Write `"key":` inside the current object.
    fn key(&mut self, key: &str) {
        self.comma();
        self.buf.push('"');
        self.buf.push_str(&escape(key));
        self.buf.push_str("\":");
    }

    /// Open the root object or an anonymous object inside an array.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.comma();
        self.buf.push('{');
        self.stack.push((true, false));
        self
    }

    /// Open an object under `key` in the current object.
    pub fn begin_obj_key(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.buf.push('{');
        self.stack.push((true, false));
        self
    }

    /// Close the current object.
    pub fn end_obj(&mut self) -> &mut Self {
        debug_assert!(matches!(self.stack.last(), Some((true, _))));
        self.stack.pop();
        self.buf.push('}');
        self
    }

    /// Open an array under `key` in the current object.
    pub fn begin_arr_key(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.buf.push('[');
        self.stack.push((false, false));
        self
    }

    /// Close the current array.
    pub fn end_arr(&mut self) -> &mut Self {
        debug_assert!(matches!(self.stack.last(), Some((false, _))));
        self.stack.pop();
        self.buf.push(']');
        self
    }

    /// `"key": <u64>` in the current object.
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// `"key": <f64>` in the current object.
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&num(v));
        self
    }

    /// `"key": "string"` in the current object.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
        self
    }

    /// `"key": true|false` in the current object.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// `"key": null` or `"key": <u64>` in the current object.
    pub fn opt_u64(&mut self, key: &str, v: Option<u64>) -> &mut Self {
        self.key(key);
        match v {
            Some(v) => {
                let _ = write!(self.buf, "{v}");
            }
            None => self.buf.push_str("null"),
        }
        self
    }

    /// Bare `u64` element in the current array.
    pub fn elem_u64(&mut self, v: u64) -> &mut Self {
        self.comma();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Splice an already-serialized JSON fragment under `key`.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// A `(name, value)` sink writing `"name": value` into the current
    /// object — what a counter struct's `for_each_field` is handed to
    /// export every counter under its own name.
    pub fn u64_fields(&mut self) -> impl FnMut(&str, u64) + '_ {
        move |name, v| {
            self.u64(name, v);
        }
    }

    /// `"key": [...]` of already-serialized JSON fragments.
    pub fn arr_raw(&mut self, key: &str, elems: impl IntoIterator<Item = String>) -> &mut Self {
        self.begin_arr_key(key);
        for e in elems {
            self.elem_raw(&e);
        }
        self.end_arr()
    }

    /// Splice an already-serialized JSON fragment as an array element.
    pub fn elem_raw(&mut self, json: &str) -> &mut Self {
        self.comma();
        self.buf.push_str(json);
        self
    }

    /// Finish and return the document.
    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unbalanced JSON writer");
        self.buf
    }
}

/// A parsed JSON value (the subset of shapes the exports produce: no
/// distinction between integers and floats).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            chars: src.chars().collect(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return Err(format!("trailing garbage at char {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an array, when it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a number, when it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an integer (numbers that round-trip through `u64`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn skip_ws(&mut self) {
        while matches!(self.chars.get(self.pos), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == c => Ok(()),
            got => Err(format!(
                "expected `{c}` at char {}, found {got:?}",
                self.pos.saturating_sub(1)
            )),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        for c in lit.chars() {
            self.expect(c)?;
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('t') => self.literal("true", Json::Bool(true)),
            Some('f') => self.literal("false", Json::Bool(false)),
            Some('n') => self.literal("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            c => Err(format!("unexpected {c:?} at char {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(Json::Obj(fields)),
                got => return Err(format!("expected `,` or `}}`, found {got:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.bump();
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(Json::Arr(items)),
                got => return Err(format!("expected `,` or `]`, found {got:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".to_string()),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let c = self.bump().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + c.to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit {c:?}"))?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    got => return Err(format!("bad escape {got:?}")),
                },
                Some(c) if (c as u32) < 0x20 => {
                    return Err("raw control character in string".to_string())
                }
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.bump();
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        if self.peek() == Some('.') {
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            self.bump();
            if matches!(self.peek(), Some('+' | '-')) {
                self.bump();
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_parseable_nested_doc() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.str("name", "a \"quoted\"\nthing");
        w.u64("count", 42);
        w.f64("rate", 0.5);
        w.bool("ok", true);
        w.opt_u64("parent", None);
        w.begin_arr_key("xs");
        w.elem_u64(1).elem_u64(2);
        w.begin_obj();
        w.u64("inner", 7);
        w.end_obj();
        w.end_arr();
        w.begin_obj_key("nested");
        w.end_obj();
        w.end_obj();
        let s = w.finish();
        let v = Json::parse(&s).expect("well-formed");
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("parent"), Some(&Json::Null));
        assert_eq!(
            v.get("name").and_then(Json::as_str),
            Some("a \"quoted\"\nthing")
        );
        let xs = v.get("xs").and_then(Json::as_arr).expect("array");
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2].get("inner").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn parser_rejects_malformed() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1,}").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parser_accepts_numbers_and_escapes() {
        let v = Json::parse("[-1.5e3, 0, 7, \"a\\u0041b\\tc\"]").expect("ok");
        let a = v.as_arr().expect("arr");
        assert_eq!(a[0].as_f64(), Some(-1500.0));
        assert_eq!(a[2].as_u64(), Some(7));
        assert_eq!(a[3].as_str(), Some("aAb\tc"));
    }

    #[test]
    fn nan_and_infinity_render_as_zero() {
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
        assert_eq!(num(0.25), "0.25");
    }
}
