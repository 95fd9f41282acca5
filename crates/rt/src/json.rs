//! Minimal JSON: a value type, writer, and recursive-descent reader.
//!
//! Exactly the subset the workspace serializes — objects, arrays,
//! strings, booleans, null, and numbers. Integers are kept in native
//! 64-bit form (node ids are full-width `u64`s that do not fit in an
//! `f64` mantissa), floats round-trip via Rust's shortest-repr
//! `Display`. Object fields preserve insertion order.
//!
//! Types opt in by hand-implementing [`ToJson`] / [`FromJson`]; the
//! [`Json::field`] helper keeps those impls one line per field.

use std::fmt::Write as _;

/// A parsed or under-construction JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer (canonical form for all unsigned fields).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A number with a fraction or exponent.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// A parse or conversion failure, with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Object field lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Typed object field lookup; errors name the missing field.
    ///
    /// # Errors
    /// If the field is absent or fails `T`'s conversion.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        match self.get(key) {
            Some(v) => T::from_json(v)
                .map_err(|e| JsonError(format!("field `{key}`: {}", e.0))),
            None => err(format!("missing field `{key}`")),
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        if let Json::Bool(b) = self { Some(*b) } else { None }
    }

    /// The value as `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(u) => Some(*u),
            Json::I64(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::U64(u) => i64::try_from(*u).ok(),
            Json::I64(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as `f64` (integers coerce).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(u) => Some(*u as f64),
            Json::I64(i) => Some(*i as f64),
            Json::F64(f) => Some(*f),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        if let Json::Str(s) = self { Some(s) } else { None }
    }

    /// The element slice, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        if let Json::Arr(a) = self { Some(a) } else { None }
    }

    /// Serializes compactly (no whitespace).
    #[must_use]
    pub fn dump(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Serializes with two-space indentation.
    #[must_use]
    pub fn dump_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(u) => {
                let _ = write!(out, "{u}");
            }
            Json::I64(i) => {
                let _ = write!(out, "{i}");
            }
            Json::F64(f) => {
                if f.is_finite() {
                    let mut t = format!("{f}");
                    // Keep whole-valued floats self-describing ("5.0",
                    // not "5") so they parse back as F64.
                    if !t.contains(['.', 'e', 'E']) {
                        t.push_str(".0");
                    }
                    out.push_str(&t);
                } else {
                    out.push_str("null"); // JSON has no NaN/inf
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    /// On malformed input, with a byte offset in the message, and on
    /// arrays / objects nested more than 128 deep.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array / object nesting [`Json::parse`] accepts. The reader
/// recurses once per level, so hostile input (a line of a million `[`)
/// would otherwise overflow the stack; nothing the workspace writes
/// nests past a handful of levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays / objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.depth += 1;
                let v = if b == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => err(format!("unexpected byte `{}` at {}", b as char, self.pos)),
            None => err("unexpected end of input"),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy runs of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError("invalid utf-8".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError("bad \\u escape".into()))?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return err("unterminated string"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError("invalid utf-8 in number".into()))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| JsonError(format!("bad number `{text}` at byte {start}")))
    }
}

/// Serializes a value to JSON.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

/// Reconstructs a value from JSON.
pub trait FromJson: Sized {
    /// Parses `self` out of a JSON value.
    ///
    /// # Errors
    /// If the value has the wrong shape.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Compact JSON text for any [`ToJson`] type.
pub fn to_string<T: ToJson + ?Sized>(v: &T) -> String {
    v.to_json().dump()
}

/// Pretty (2-space indented) JSON text for any [`ToJson`] type.
pub fn to_string_pretty<T: ToJson + ?Sized>(v: &T) -> String {
    v.to_json().dump_pretty()
}

/// Parses JSON text straight into a [`FromJson`] type.
///
/// # Errors
/// On malformed JSON or a shape mismatch.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

macro_rules! uint_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(u64::from(*self))
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let u = v.as_u64().ok_or_else(|| JsonError(
                    concat!("expected ", stringify!($t)).into()))?;
                <$t>::try_from(u).map_err(|_| JsonError(
                    concat!("out of range for ", stringify!($t)).into()))
            }
        }
    )*};
}

uint_json!(u8, u16, u32, u64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }
}

impl FromJson for usize {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let u = v.as_u64().ok_or_else(|| JsonError("expected usize".into()))?;
        usize::try_from(u).map_err(|_| JsonError("out of range for usize".into()))
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        if *self >= 0 { Json::U64(*self as u64) } else { Json::I64(*self) }
    }
}

impl FromJson for i64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_i64().ok_or_else(|| JsonError("expected i64".into()))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError("expected number".into()))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError("expected bool".into()))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str().map(str::to_owned).ok_or_else(|| JsonError("expected string".into()))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError("expected array".into()))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
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

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_width_u64_round_trips_exactly() {
        let id: u64 = 0xdead_beef_1234_5678;
        let text = to_string(&id);
        assert_eq!(text, "16045690981402826360");
        assert_eq!(from_str::<u64>(&text).unwrap(), id);
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
    }

    #[test]
    fn floats_round_trip_bitwise() {
        for f in [0.25f64, 1.0 / 3.0, -17.125, 1e-12, 2.5e17, 0.0] {
            let back: f64 = from_str(&to_string(&f)).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} mangled");
        }
    }

    #[test]
    fn whole_floats_stay_floats() {
        let v = Json::F64(5.0);
        assert_eq!(v.dump(), "5.0"); // not "5", which would parse as U64
        assert_eq!(Json::parse("5.0").unwrap(), Json::F64(5.0));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\nbreak \"quote\" back\\slash\ttab\u{1}";
        let back: String = from_str(&to_string(&s.to_owned())).unwrap();
        assert_eq!(back, s);
        assert_eq!(from_str::<String>(r#""aAb""#).unwrap(), "aAb");
    }

    #[test]
    fn nested_structures_parse() {
        let v = Json::parse(r#" {"a": [1, -2, 3.5, null, true], "b": {"c": "d"}, "e": []} "#)
            .unwrap();
        assert!(v.field::<u64>("a").unwrap_err().0.contains("field `a`"));
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0], Json::U64(1));
        assert_eq!(a[1], Json::I64(-2));
        assert_eq!(a[2], Json::F64(3.5));
        assert_eq!(a[3], Json::Null);
        assert_eq!(a[4], Json::Bool(true));
        assert_eq!(v.get("b").unwrap().field::<String>("c").unwrap(), "d");
        assert_eq!(v.get("e").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn object_round_trip_preserves_order() {
        let v = Json::obj([
            ("zeta", Json::U64(1)),
            ("alpha", Json::arr([Json::Bool(false), Json::Null])),
        ]);
        let compact = v.dump();
        assert_eq!(compact, r#"{"zeta":1,"alpha":[false,null]}"#);
        assert_eq!(Json::parse(&compact).unwrap(), v);
        let pretty = v.dump_pretty();
        assert!(pretty.contains("\n  \"zeta\": 1"));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in ["{", "[1,", "\"unterminated", "nul", "{\"a\" 1}", "1 2", "{\"a\":01x}"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn nesting_past_max_depth_is_an_error_not_a_stack_overflow() {
        for (what, text) in
            [("10^6 `[`", "[".repeat(1_000_000)), ("10^6 `{\"a\":`", "{\"a\":".repeat(1_000_000))]
        {
            let e = Json::parse(&text).expect_err(what);
            assert!(e.0.contains("nesting deeper than 128"), "{what}: {e}");
        }
        // MAX_DEPTH levels parse; one more does not.
        let at = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at).is_ok());
        let past = format!("[{at}]");
        assert!(Json::parse(&past).is_err());
        let obj = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&obj).is_ok());
    }

    #[test]
    fn options_and_vecs() {
        let some: Option<u32> = Some(7);
        let none: Option<u32> = None;
        assert_eq!(to_string(&some), "7");
        assert_eq!(to_string(&none), "null");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("7").unwrap(), Some(7));
        let v = vec![1u16, 2, 3];
        assert_eq!(from_str::<Vec<u16>>(&to_string(&v)).unwrap(), v);
    }
}
