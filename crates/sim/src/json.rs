//! A minimal, dependency-free JSON value model: [`Json`].
//!
//! The build environment for this workspace is fully offline, so instead of
//! `serde`/`serde_json` the observability layer serializes through this
//! small in-tree module. It provides:
//!
//! * [`Json`] — an ordered value tree (object keys keep insertion order, so
//!   emitted documents are byte-stable across runs — a requirement for the
//!   determinism guarantees of the results schema);
//! * a compact writer ([`std::fmt::Display`]) and a pretty writer
//!   ([`Json::pretty`]);
//! * a strict parser ([`Json::parse`]) sufficient for config files and
//!   round-trip tests;
//! * the [`ToJson`] conversion trait implemented by every reportable type
//!   in the workspace.
//!
//! Numbers are kept in three lanes (`U64`, `I64`, `F64`) so counters never
//! lose precision and floats render with a decimal point (via `{:?}`),
//! which keeps `parse(render(v)) == v` for every value this workspace
//! produces.
//!
//! # Example
//!
//! ```rust
//! use tenways_sim::json::Json;
//!
//! let doc = Json::obj([
//!     ("name", Json::from("tenways")),
//!     ("cycles", Json::from(1234u64)),
//!     ("useful", Json::from(0.75)),
//! ]);
//! let text = doc.to_string();
//! assert_eq!(text, r#"{"name":"tenways","cycles":1234,"useful":0.75}"#);
//! assert_eq!(Json::parse(&text).unwrap(), doc);
//! ```

use std::fmt;

/// A JSON value. Object keys preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counters, cycles, ids).
    U64(u64),
    /// A negative-capable integer.
    I64(i64),
    /// A floating-point number (never NaN/inf; those render as `null`).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Looks up a key in an object (`None` for absent keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as a signed integer, if representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::I64(v) => Some(v),
            Json::U64(v) => i64::try_from(v).ok(),
            Json::F64(v) if v.fract() == 0.0 && v.abs() <= i64::MAX as f64 => Some(v as i64),
            _ => None,
        }
    }

    /// The value as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::F64(v) => Some(v),
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// A short name for the value's type (for error messages and the
    /// results-schema validator).
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::U64(_) => "uint",
            Json::I64(_) => "int",
            Json::F64(_) => "float",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Renders with two-space indentation and a trailing newline-free body.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        const INDENT: &str = "  ";
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&INDENT.repeat(depth + 1));
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&INDENT.repeat(depth));
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&INDENT.repeat(depth + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&INDENT.repeat(depth));
                out.push('}');
            }
            other => {
                use fmt::Write;
                let _ = write!(out, "{other}");
            }
        }
    }

    /// Parses a JSON document. Strict: trailing garbage is an error.
    /// Arrays and objects may nest at most [`MAX_DEPTH`] deep; deeper
    /// input is an error, so hostile input cannot overflow the stack.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::I64(v) => write!(f, "{v}"),
            Json::F64(v) if v.is_finite() => write!(f, "{v:?}"),
            Json::F64(_) => f.write_str("null"),
            Json::Str(s) => {
                let mut buf = String::new();
                write_escaped(&mut buf, s);
                f.write_str(&buf)
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = String::new();
                    write_escaped(&mut buf, k);
                    write!(f, "{buf}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// How deep [`Json::parse`] lets arrays and objects nest. The parser is
/// recursive descent, so this bounds its stack use; every document this
/// workspace writes nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one slice.
            // Both are ASCII, so the run ends on a char boundary of the
            // (already valid UTF-8) input.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(self.bytes.len(), |n| self.pos + n);
            out.push_str(&self.text[self.pos..run]);
            self.pos = run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("non-scalar \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if float {
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|_| self.err("invalid float"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::I64)
                .map_err(|_| self.err("invalid integer"))
        } else {
            text.parse::<u64>()
                .map(Json::U64)
                .map_err(|_| self.err("invalid integer"))
        }
    }
}

/// Conversion into a [`Json`] tree; the workspace-wide serialization trait.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

macro_rules! impl_to_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(u64::from(*self))
            }
        }
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::U64(u64::from(v))
            }
        }
    )*};
}
impl_to_json_uint!(u8, u16, u32, u64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::I64(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

/// Validates `doc` against a minimal JSON-Schema-style `schema`.
///
/// Supported keywords (a deliberate subset, enough for the
/// `results/schema/*.v1.json` contracts):
///
/// * `type` — one of `"object"`, `"array"`, `"string"`, `"number"`
///   (accepts any numeric lane), `"integer"`, `"boolean"`, `"null"`.
/// * `required` — array of keys an object must contain.
/// * `properties` — per-key subschemas for object members (keys absent
///   from `properties` are allowed and unchecked).
/// * `items` — subschema every array element must satisfy.
/// * `const` — the value must equal this literal exactly.
///
/// Returns the first violation as `Err(path: message)`.
pub fn validate_schema(doc: &Json, schema: &Json) -> Result<(), String> {
    fn check(doc: &Json, schema: &Json, path: &str) -> Result<(), String> {
        if let Some(expected) = schema.get("const") {
            if doc != expected {
                return Err(format!("{path}: expected constant {expected}, got {doc}"));
            }
        }
        if let Some(ty) = schema.get("type").and_then(Json::as_str) {
            let ok = match ty {
                "object" => matches!(doc, Json::Obj(_)),
                "array" => matches!(doc, Json::Arr(_)),
                "string" => matches!(doc, Json::Str(_)),
                "number" => matches!(doc, Json::U64(_) | Json::I64(_) | Json::F64(_)),
                "integer" => matches!(doc, Json::U64(_) | Json::I64(_)),
                "boolean" => matches!(doc, Json::Bool(_)),
                "null" => matches!(doc, Json::Null),
                other => return Err(format!("{path}: schema names unknown type `{other}`")),
            };
            if !ok {
                return Err(format!("{path}: expected {ty}, got {}", doc.type_name()));
            }
        }
        if let Some(required) = schema.get("required").and_then(Json::as_array) {
            for key in required {
                let key = key
                    .as_str()
                    .ok_or_else(|| format!("{path}: `required` entries must be strings"))?;
                if doc.get(key).is_none() {
                    return Err(format!("{path}: missing required key `{key}`"));
                }
            }
        }
        if let Some(props) = schema.get("properties").and_then(Json::as_object) {
            for (key, sub) in props {
                if let Some(value) = doc.get(key) {
                    check(value, sub, &format!("{path}.{key}"))?;
                }
            }
        }
        if let Some(items) = schema.get("items") {
            if let Some(elems) = doc.as_array() {
                for (i, elem) in elems.iter().enumerate() {
                    check(elem, items, &format!("{path}[{i}]"))?;
                }
            }
        }
        Ok(())
    }
    check(doc, schema, "$")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_validation_accepts_and_rejects() {
        let schema = Json::parse(
            r#"{
                "type": "object",
                "required": ["version", "rows"],
                "properties": {
                    "version": {"type": "integer", "const": 1},
                    "rows": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["label"],
                            "properties": {"label": {"type": "string"}}
                        }
                    }
                }
            }"#,
        )
        .unwrap();
        let good = Json::parse(r#"{"version":1,"rows":[{"label":"a","extra":true}]}"#).unwrap();
        assert_eq!(validate_schema(&good, &schema), Ok(()));
        let missing = Json::parse(r#"{"version":1}"#).unwrap();
        assert!(validate_schema(&missing, &schema)
            .unwrap_err()
            .contains("rows"));
        let mistyped = Json::parse(r#"{"version":1,"rows":[{"label":7}]}"#).unwrap();
        assert!(validate_schema(&mistyped, &schema)
            .unwrap_err()
            .contains("$.rows[0].label"));
        let wrong_const = Json::parse(r#"{"version":2,"rows":[]}"#).unwrap();
        assert!(validate_schema(&wrong_const, &schema)
            .unwrap_err()
            .contains("constant"));
    }

    #[test]
    fn scalars_render_and_parse() {
        for (v, s) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::U64(42), "42"),
            (Json::I64(-7), "-7"),
            (Json::F64(0.5), "0.5"),
            (Json::Str("hi \"there\"\n".into()), r#""hi \"there\"\n""#),
        ] {
            assert_eq!(v.to_string(), s);
            assert_eq!(Json::parse(s).unwrap(), v);
        }
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        // `1.0` must not collapse to the integer `1` — round-trip typing.
        assert_eq!(Json::F64(1.0).to_string(), "1.0");
        assert_eq!(Json::parse("1.0").unwrap(), Json::F64(1.0));
        assert_eq!(Json::parse("1").unwrap(), Json::U64(1));
    }

    #[test]
    fn object_round_trip_preserves_order() {
        let doc = Json::obj([
            ("z", Json::U64(1)),
            ("a", Json::arr([Json::Null, Json::Bool(false)])),
            ("m", Json::obj([("inner", Json::Str("x".into()))])),
        ]);
        let text = doc.to_string();
        assert!(text.starts_with(r#"{"z":"#), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("nul").is_err());
        for text in [r#""abc"#, r#""é\"#, r#""\x""#, r#""\u12""#, r#""\ud800""#] {
            assert!(Json::parse(text).is_err(), "{text}");
        }
    }

    #[test]
    fn accessors() {
        let doc = Json::obj([("n", Json::U64(3)), ("f", Json::F64(2.5))]);
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("f").and_then(Json::as_f64), Some(2.5));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::U64(5).get("x"), None);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(Json::parse(r#""A""#).unwrap(), Json::Str("A".into()));
        let ctrl = Json::Str("\u{1}".into());
        assert_eq!(Json::parse(&ctrl.to_string()).unwrap(), ctrl);
    }

    #[test]
    fn nonfinite_floats_render_null() {
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
    }

    #[test]
    fn multibyte_text_and_escapes_round_trip_at_run_boundaries() {
        // 2-byte é/ü, 3-byte €, 4-byte 😀, each directly before or after
        // an escape, so every copied run starts or ends on one.
        for s in [
            "é\"ü\\n😀",
            "é\"ü\n😀",
            "€\\😀\t",
            "\"\\\n\r\t\u{1}\u{1f}/",
            "\\",
            "ends in é",
            "ends in €",
            "ends in 😀",
            "😀",
            "",
        ] {
            let v = Json::Str(s.into());
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{s:?}");
            assert_eq!(Json::parse(&v.pretty()).unwrap(), v, "{s:?}");
        }
        // Escapes the writer never emits still decode next to multibyte
        // text.
        assert_eq!(
            Json::parse(r#""é\u00e9\/😀\b\f€""#).unwrap(),
            Json::Str("éé/😀\u{8}\u{c}€".into())
        );
        assert_eq!(
            Json::parse(r#"{"ü\"":"😀"}"#).unwrap(),
            Json::obj([("ü\"", Json::from("😀"))])
        );
    }

    #[test]
    fn megabyte_of_short_strings_round_trips() {
        let mut rows = Vec::new();
        let mut bytes = 0;
        let mut i = 0u64;
        while bytes < 1 << 20 {
            let row = Json::obj([
                ("label", Json::from(format!("p{i}"))),
                (
                    "kernel",
                    Json::from(["lu", "fft", "ocean\n"][i as usize % 3]),
                ),
                (
                    "note",
                    Json::from(if i.is_multiple_of(7) {
                        "ü😀\""
                    } else {
                        "ok"
                    }),
                ),
                ("cycles", Json::U64(i * 31)),
            ]);
            bytes += row.to_string().len() + 1;
            rows.push(row);
            i += 1;
        }
        let doc = Json::obj([("rows", Json::Arr(rows))]);
        let text = doc.to_string();
        assert!(text.len() >= 1 << 20);
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err.msg, "nesting too deep");
        assert_eq!(err.pos, MAX_DEPTH);
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&deep(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(Json::parse(&objects).unwrap_err().msg, "nesting too deep");
        // Siblings do not add up: depth is nesting, not count.
        let wide = format!("[{}]", vec![deep(MAX_DEPTH - 1); 50].join(","));
        assert!(Json::parse(&wide).is_ok());
    }
}
