//! A minimal JSON reader/writer: just enough to escape strings on the way
//! out and to parse + validate the traces this crate emits (the workspace
//! builds fully offline, so no serde).
//!
//! Objects preserve key order (`Vec<(String, Value)>`), which the golden
//! tests use to assert stable field ordering.
//!
//! For producing JSON there are the incremental single-line builders
//! [`Obj`] and [`Arr`]: every serialized response, access-log record, and
//! snapshot in the workspace goes through this one escaping path instead
//! of hand-rolled `format!` strings.

use std::fmt;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, with key order preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(kvs) => kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(vs) => Some(vs),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(kvs) => Some(kvs),
            _ => None,
        }
    }
}

/// A parse failure: message plus byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset of the failure.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Escapes `s` as a JSON string literal (with surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An incremental single-line JSON object builder. Keys are emitted in
/// call order; values are escaped through [`escape`]. Consume with
/// [`Obj::finish`].
///
/// ```
/// use dhpf_obs::json::Obj;
/// let line = Obj::new().str("id", "r1").bool("ok", true).u64("n", 3).finish();
/// assert_eq!(line, "{\"id\":\"r1\",\"ok\":true,\"n\":3}");
/// ```
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    /// An empty object builder.
    pub fn new() -> Self {
        Obj::default()
    }

    fn key(&mut self, k: &str) {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        self.buf.push_str(&escape(k));
        self.buf.push(':');
    }

    /// Adds a string field (escaped).
    #[must_use]
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(&escape(v));
        self
    }

    /// Adds a string field, or `null` when `v` is `None`.
    #[must_use]
    pub fn opt_str(mut self, k: &str, v: Option<&str>) -> Self {
        self.key(k);
        match v {
            Some(s) => self.buf.push_str(&escape(s)),
            None => self.buf.push_str("null"),
        }
        self
    }

    /// Adds a boolean field.
    #[must_use]
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds an unsigned integer field.
    #[must_use]
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a signed integer field.
    #[must_use]
    pub fn i64(mut self, k: &str, v: i64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field with `decimals` digits after the point.
    #[must_use]
    pub fn f64(mut self, k: &str, v: f64, decimals: usize) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v:.decimals$}");
        self
    }

    /// Adds a field whose value is already-serialized JSON (a nested
    /// object, array, or literal). The caller guarantees `json` is valid.
    #[must_use]
    pub fn raw(mut self, k: &str, json: &str) -> Self {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    /// Adds a nested object field.
    #[must_use]
    pub fn obj(self, k: &str, v: Obj) -> Self {
        let inner = v.finish();
        self.raw(k, &inner)
    }

    /// Adds a nested array field.
    #[must_use]
    pub fn arr(self, k: &str, v: Arr) -> Self {
        let inner = v.finish();
        self.raw(k, &inner)
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            return "{}".to_string();
        }
        self.buf.push('}');
        self.buf
    }
}

/// An incremental single-line JSON array builder, the [`Obj`] counterpart.
#[derive(Debug, Default)]
pub struct Arr {
    buf: String,
}

impl Arr {
    /// An empty array builder.
    pub fn new() -> Self {
        Arr::default()
    }

    fn sep(&mut self) {
        self.buf.push(if self.buf.is_empty() { '[' } else { ',' });
    }

    /// Appends a string element (escaped).
    #[must_use]
    pub fn str(mut self, v: &str) -> Self {
        self.sep();
        self.buf.push_str(&escape(v));
        self
    }

    /// Appends an element that is already-serialized JSON.
    #[must_use]
    pub fn raw(mut self, json: &str) -> Self {
        self.sep();
        self.buf.push_str(json);
        self
    }

    /// Appends a nested object element.
    #[must_use]
    pub fn obj(self, v: Obj) -> Self {
        let inner = v.finish();
        self.raw(&inner)
    }

    /// Closes the array and returns the JSON text.
    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            return "[]".to_string();
        }
        self.buf.push(']');
        self.buf
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses a complete JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first syntax error.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn lit(&mut self, s: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{s}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut kvs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(kvs));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            kvs.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(kvs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut vs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(vs));
        }
        loop {
            self.skip_ws();
            vs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(vs));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = &self.bytes[self.pos + 1..self.pos + 5];
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our traces;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a character boundary
                    // and each byte is validated once.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v =
            parse("{\"a\":[1,2.5,-3e2],\"b\":{\"c\":null,\"d\":true},\"e\":\"x\\ny\"}").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn preserves_key_order() {
        let v = parse("{\"z\":1,\"a\":2}").unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a"]);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("123abc").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn obj_and_arr_builders_produce_parseable_json() {
        let line = Obj::new()
            .str("id", "a\"b")
            .bool("ok", true)
            .u64("count", 7)
            .i64("delta", -2)
            .f64("rate", 0.12345, 3)
            .opt_str("err", None)
            .arr(
                "xs",
                Arr::new().str("x").raw("1").obj(Obj::new().u64("y", 2)),
            )
            .obj("nested", Obj::new().bool("z", false))
            .finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("a\"b"));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("count").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("delta").unwrap().as_f64(), Some(-2.0));
        assert_eq!(v.get("rate").unwrap().as_f64(), Some(0.123));
        assert_eq!(v.get("err"), Some(&Value::Null));
        assert_eq!(v.get("xs").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("nested").unwrap().get("z"), Some(&Value::Bool(false)));
        assert!(!line.contains('\n'), "builders must emit a single line");
        assert_eq!(Obj::new().finish(), "{}");
        assert_eq!(Arr::new().finish(), "[]");
    }

    #[test]
    fn escape_round_trips() {
        let s = "a\"b\\c\nd\te\u{1}";
        let v = parse(&escape(s)).unwrap();
        assert_eq!(v.as_str(), Some(s));
    }

    #[test]
    fn multibyte_runs_between_escapes_round_trip() {
        let s = "λx → \"ü\"\\n日本語\t🦀\u{7}é\n";
        let v = parse(&escape(s)).unwrap();
        assert_eq!(v.as_str(), Some(s));
        let doc = format!("{{\"k\":{},\"n\":1}}", escape(s));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some(s));
        let v = parse("\"a\\u00e9λ\\\\b\"").unwrap();
        assert_eq!(v.as_str(), Some("aéλ\\b"));
        assert!(parse("\"unterminated λ").is_err());
    }
}
