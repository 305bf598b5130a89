//! A minimal, dependency-free JSON layer.
//!
//! Replaces `serde`/`serde_json` for the workspace's needs: persisting
//! manifests, traces, reports, and metrics. Three pieces:
//!
//! * [`Json`] — a JSON value tree. Objects preserve insertion order so
//!   serialisation is deterministic (two identical values always produce
//!   byte-identical text).
//! * [`to_string`] / [`from_str`] — serialiser and recursive-descent
//!   parser. Floats are written with Rust's shortest-round-trip `{}`
//!   formatting, so `value -> text -> value` is lossless; NaN and ±inf
//!   are rejected (JSON has no encoding for them).
//! * [`ToJson`] / [`FromJson`] — the conversion trait pair, with
//!   [`impl_json_struct!`](crate::impl_json_struct),
//!   [`impl_json_enum!`](crate::impl_json_enum) and
//!   [`impl_json_newtype!`](crate::impl_json_newtype) to implement both
//!   for a type in one line (the moral equivalent of
//!   `#[derive(Serialize, Deserialize)]`).

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Maximum nesting depth the parser accepts (guards against stack
/// overflow on adversarial input).
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional or exponent part that fits `i64`.
    Int(i64),
    /// Any other finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, accepting both number representations.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `i64` (exact integers only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            // lint:allow(float-compare, "intentional exact check: a value is an integer iff fract() is exactly zero")
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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

    /// The value's object entries.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// A short name for the value's kind, used in error messages.
    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Error produced by serialisation, parsing, or conversion.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// A NaN or infinite float cannot be represented in JSON.
    NonFinite,
    /// The input text is not valid JSON. Byte offset and message.
    Parse(usize, String),
    /// A value had the wrong JSON kind for the requested conversion.
    Type {
        /// What the conversion needed.
        expected: &'static str,
        /// What the value actually was.
        found: &'static str,
    },
    /// An object is missing a required field.
    MissingField(String),
    /// A string did not name a known enum variant.
    UnknownVariant(String),
    /// Any other conversion failure.
    Invalid(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::NonFinite => write!(f, "NaN or infinite float has no JSON encoding"),
            JsonError::Parse(at, msg) => write!(f, "invalid JSON at byte {at}: {msg}"),
            JsonError::Type { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            JsonError::MissingField(name) => write!(f, "missing field `{name}`"),
            JsonError::UnknownVariant(name) => write!(f, "unknown variant `{name}`"),
            JsonError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for JsonError {}

// ---------------------------------------------------------------------------
// Serialisation
// ---------------------------------------------------------------------------

/// Serialises a value to compact JSON text.
///
/// # Errors
///
/// Returns [`JsonError::NonFinite`] if any float in the tree is NaN or
/// infinite.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, JsonError> {
    let mut out = String::new();
    write_value(&value.to_json(), &mut out)?;
    Ok(out)
}

/// Serialises a value to indented JSON text (two-space indent).
///
/// # Errors
///
/// See [`to_string`].
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String, JsonError> {
    let mut out = String::new();
    write_value_pretty(&value.to_json(), 0, &mut out)?;
    Ok(out)
}

fn write_value(v: &Json, out: &mut String) -> Result<(), JsonError> {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Num(n) => write_f64(*n, out)?,
        Json::Str(s) => write_escaped(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out)?;
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_value(val, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn write_value_pretty(v: &Json, indent: usize, out: &mut String) -> Result<(), JsonError> {
    match v {
        Json::Arr(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                push_indent(indent + 1, out);
                write_value_pretty(item, indent + 1, out)?;
            }
            out.push('\n');
            push_indent(indent, out);
            out.push(']');
            Ok(())
        }
        Json::Obj(pairs) if !pairs.is_empty() => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                push_indent(indent + 1, out);
                write_escaped(k, out);
                out.push_str(": ");
                write_value_pretty(val, indent + 1, out)?;
            }
            out.push('\n');
            push_indent(indent, out);
            out.push('}');
            Ok(())
        }
        other => write_value(other, out),
    }
}

fn push_indent(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Writes a finite float using Rust's shortest-round-trip formatting.
fn write_f64(n: f64, out: &mut String) -> Result<(), JsonError> {
    if !n.is_finite() {
        return Err(JsonError::NonFinite);
    }
    // `{}` on f64 prints the shortest decimal string that parses back to
    // exactly the same bits — precisely the float_roundtrip guarantee.
    let s = format!("{n}");
    out.push_str(&s);
    // "1" round-trips as an integer; keep it a float-shaped token so the
    // value re-parses with the same representation it was written from.
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        out.push_str(".0");
    }
    Ok(())
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parses JSON text into a typed value.
///
/// # Errors
///
/// Returns [`JsonError::Parse`] on malformed input (including trailing
/// garbage) and whatever conversion error `T::from_json` produces.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

/// Parses JSON text into a [`Json`] tree.
///
/// # Errors
///
/// Returns [`JsonError::Parse`] on malformed input.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::Parse(p.pos, "trailing characters".into()));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    /// Byte offset of the next unread byte; always a char boundary of
    /// `text` between tokens and between string characters.
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError::Parse(self.pos, msg.into())
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
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `pos` is on a char
                    // boundary, so this reads one char, not the whole
                    // rest of the input.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        // Exactly four hex digits: `from_str_radix` alone would also take
        // a sign (`\u+041`).
        let v = digits.iter().try_fold(0u32, |acc, &d| {
            char::from(d)
                .to_digit(16)
                .map(|x| acc * 16 + x)
                .ok_or_else(|| self.err("invalid \\u escape"))
        })?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = self
            .text
            .get(start..self.pos)
            .ok_or_else(|| JsonError::Parse(start, "invalid number".into()))?;
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        let n: f64 = text
            .parse()
            .map_err(|_| JsonError::Parse(start, "invalid number".into()))?;
        if !n.is_finite() {
            return Err(JsonError::Parse(start, "number out of range".into()));
        }
        Ok(Json::Num(n))
    }
}

// ---------------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------------

/// Conversion into a [`Json`] tree (the `Serialize` half).
pub trait ToJson {
    /// Builds the JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Conversion out of a [`Json`] tree (the `Deserialize` half).
pub trait FromJson: Sized {
    /// Reconstructs a value from its JSON representation.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
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

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().ok_or(JsonError::Type {
            expected: "bool",
            found: v.kind(),
        })
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or(JsonError::Type {
            expected: "number",
            found: v.kind(),
        })
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        f64::from_json(v).map(|n| n as f32)
    }
}

macro_rules! impl_json_int {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                match i64::try_from(*self) {
                    Ok(i) => Json::Int(i),
                    // u64 values above i64::MAX: store as float (lossy
                    // above 2^53, but no workspace type goes there).
                    Err(_) => Json::Num(*self as f64),
                }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let i = v.as_i64().ok_or(JsonError::Type {
                    expected: "integer",
                    found: v.kind(),
                })?;
                <$t>::try_from(i).map_err(|_| {
                    JsonError::Invalid(format!(
                        "{} out of range for {}", i, stringify!($t)
                    ))
                })
            }
        }
    )+};
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str().map(str::to_owned).ok_or(JsonError::Type {
            expected: "string",
            found: v.kind(),
        })
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
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

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or(JsonError::Type {
                expected: "array",
                found: v.kind(),
            })?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for std::collections::VecDeque<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for std::collections::VecDeque<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Vec::<T>::from_json(v)?.into())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + fmt::Debug, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = Vec::<T>::from_json(v)?;
        let len = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| JsonError::Invalid(format!("expected array of length {N}, found {len}")))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson + ?Sized> ToJson for Box<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_object()
            .ok_or(JsonError::Type {
                expected: "object",
                found: v.kind(),
            })?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_json(val)?)))
            .collect()
    }
}

impl<V: ToJson> ToJson for HashMap<String, V> {
    fn to_json(&self) -> Json {
        // Sort keys so serialisation stays deterministic.
        let mut pairs: Vec<(String, Json)> =
            self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Json::Obj(pairs)
    }
}

impl<V: FromJson> FromJson for HashMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_object()
            .ok_or(JsonError::Type {
                expected: "object",
                found: v.kind(),
            })?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_json(val)?)))
            .collect()
    }
}

macro_rules! impl_json_tuple {
    ($(($($name:ident : $idx:tt),+))+) => {$(
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$idx.to_json()),+])
            }
        }
        impl<$($name: FromJson),+> FromJson for ($($name,)+) {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let items = v.as_array().ok_or(JsonError::Type {
                    expected: "array",
                    found: v.kind(),
                })?;
                let expected = [$($idx),+].len();
                if items.len() != expected {
                    return Err(JsonError::Invalid(format!(
                        "expected tuple of {expected}, found array of {}",
                        items.len()
                    )));
                }
                Ok(($($name::from_json(&items[$idx])?,)+))
            }
        }
    )+};
}

impl_json_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Reads a struct field during [`FromJson`] decoding; shared by the
/// [`impl_json_struct!`](crate::impl_json_struct) expansion.
///
/// # Errors
///
/// Returns [`JsonError::MissingField`] when the key is absent.
pub fn field<T: FromJson>(obj: &Json, name: &str) -> Result<T, JsonError> {
    let v = obj
        .get(name)
        .ok_or_else(|| JsonError::MissingField(name.to_owned()))?;
    T::from_json(v).map_err(|e| JsonError::Invalid(format!("field `{name}`: {e}")))
}

/// Implements [`ToJson`]/[`FromJson`] for a struct with named fields,
/// serialised as an object in declaration order — the replacement for
/// `#[derive(Serialize, Deserialize)]`. Invoke it in the module that
/// defines the struct (it accesses fields directly, so privacy is
/// respected).
///
/// A trailing `skip { a, b }` names fields that are not serialised
/// (`#[serde(skip)]`): decoding sets them to `Default::default()`.
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        $crate::impl_json_struct!($ty { $($field),+ } skip {});
    };
    ($ty:ty { $($field:ident),+ $(,)? } skip { $($skip:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_owned(), $crate::json::ToJson::to_json(&self.$field))),+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                if v.as_object().is_none() {
                    return Err($crate::json::JsonError::Type {
                        expected: "object",
                        found: "non-object",
                    });
                }
                Ok(Self {
                    $($field: $crate::json::field(v, stringify!($field))?,)+
                    $($skip: ::core::default::Default::default(),)*
                })
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a fieldless enum, serialised
/// as the variant name string (matching serde's unit-variant encoding).
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ty { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let name = match self {
                    $(<$ty>::$variant => stringify!($variant)),+
                };
                $crate::json::Json::Str(name.to_owned())
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                let s = v.as_str().ok_or($crate::json::JsonError::Type {
                    expected: "string",
                    found: "non-string",
                })?;
                match s {
                    $(stringify!($variant) => Ok(<$ty>::$variant),)+
                    other => Err($crate::json::JsonError::UnknownVariant(other.to_owned())),
                }
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a single-field tuple struct,
/// serialised transparently as the inner value (serde's newtype
/// encoding).
#[macro_export]
macro_rules! impl_json_newtype {
    ($ty:ty) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::ToJson::to_json(&self.0)
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok(Self($crate::json::FromJson::from_json(v)?))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&"hi".to_owned()).unwrap(), "\"hi\"");
        assert_eq!(from_str::<bool>("true").unwrap(), true);
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(from_str::<String>("\"hi\"").unwrap(), "hi");
    }

    #[test]
    fn whole_floats_keep_float_shape() {
        // 1.0f64 must not serialise as bare `1`, or a round trip through
        // Json would silently change Num -> Int.
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(from_str::<f64>("1.0").unwrap(), 1.0);
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -2.2250738585072014e-308,
            9007199254740993.0,
            std::f64::consts::PI,
        ] {
            let text = to_string(&x).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text} -> {back}");
        }
    }

    #[test]
    fn nan_and_inf_are_rejected() {
        assert_eq!(to_string(&f64::NAN).unwrap_err(), JsonError::NonFinite);
        assert_eq!(to_string(&f64::INFINITY).unwrap_err(), JsonError::NonFinite);
        assert_eq!(
            to_string(&f64::NEG_INFINITY).unwrap_err(),
            JsonError::NonFinite
        );
        assert_eq!(
            to_string(&vec![1.0, f64::NAN]).unwrap_err(),
            JsonError::NonFinite
        );
    }

    #[test]
    fn vec_and_option_roundtrip() {
        let v = vec![1.0f64, 2.5, -3.25];
        let text = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<f64>>(&text).unwrap(), v);

        let some: Option<u32> = Some(3);
        let none: Option<u32> = None;
        assert_eq!(to_string(&some).unwrap(), "3");
        assert_eq!(to_string(&none).unwrap(), "null");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("3").unwrap(), Some(3));
    }

    #[test]
    fn tuples_roundtrip() {
        let t = (1.5f64, -2.0f64, 3.25f64);
        let text = to_string(&t).unwrap();
        assert_eq!(text, "[1.5,-2.0,3.25]");
        assert_eq!(from_str::<(f64, f64, f64)>(&text).unwrap(), t);

        let pair = (4usize, 9usize);
        let text = to_string(&pair).unwrap();
        assert_eq!(from_str::<(usize, usize)>(&text).unwrap(), pair);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line1\nline2\t\"quoted\" \\slash\\ \u{1}\u{1F600}".to_owned();
        let text = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&text).unwrap(), s);
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(from_str::<String>(r#""A""#).unwrap(), "A");
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(from_str::<String>(r#""😀""#).unwrap(), "😀");
        assert!(from_str::<String>(r#""\ud83d""#).is_err());
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "{not json",
            "[1,]",
            "{\"a\":}",
            "01",
            "1.",
            "1e",
            "tru",
            "\"unterminated",
            "[1] trailing",
            "",
            "+1",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parser_accepts_valid_corpus() {
        for good in [
            "null",
            "-0.5e-3",
            "[[[]]]",
            "{\"a\":{\"b\":[1,2,{\"c\":null}]}}",
            " { \"x\" : 1 } ",
            "1e308",
        ] {
            assert!(parse(good).is_ok(), "rejected {good:?}");
        }
        assert!(parse("1e400").is_err(), "overflow should be rejected");
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"z":1,"a":2}"#).unwrap();
        let pairs = v.as_object().unwrap();
        assert_eq!(pairs[0].0, "z");
        assert_eq!(pairs[1].0, "a");
        let mut out = String::new();
        write_value(&v, &mut out).unwrap();
        assert_eq!(out, r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn integers_survive_exactly() {
        let big = i64::MAX;
        let text = to_string(&big).unwrap();
        assert_eq!(from_str::<i64>(&text).unwrap(), big);
        let neg = i64::MIN;
        assert_eq!(from_str::<i64>(&to_string(&neg).unwrap()).unwrap(), neg);
    }

    #[test]
    fn int_float_cross_decoding() {
        // An integer token can feed an f64 field...
        assert_eq!(from_str::<f64>("7").unwrap(), 7.0);
        // ...and an integral float can feed an integer field.
        assert_eq!(from_str::<u32>("7.0").unwrap(), 7);
        // But fractional floats cannot.
        assert!(from_str::<u32>("7.5").is_err());
        // And negatives cannot feed unsigned fields.
        assert!(from_str::<u32>("-1").is_err());
    }

    #[derive(Debug)]
    struct Demo {
        x: f64,
        name: String,
        tags: Vec<u32>,
    }
    impl_json_struct!(Demo { x, name, tags });

    #[derive(Debug, PartialEq)]
    enum Color {
        Red,
        Green,
    }
    impl_json_enum!(Color { Red, Green });

    struct Wrap(f64);
    impl_json_newtype!(Wrap);

    #[test]
    fn struct_macro_roundtrip() {
        let d = Demo {
            x: 2.5,
            name: "n".into(),
            tags: vec![1, 2],
        };
        let text = to_string(&d).unwrap();
        assert_eq!(text, r#"{"x":2.5,"name":"n","tags":[1,2]}"#);
        let back: Demo = from_str(&text).unwrap();
        assert_eq!(back.x, 2.5);
        assert_eq!(back.name, "n");
        assert_eq!(back.tags, vec![1, 2]);
    }

    #[test]
    fn struct_macro_reports_missing_field() {
        let err = from_str::<Demo>(r#"{"x":2.5,"name":"n"}"#).unwrap_err();
        assert!(err.to_string().contains("tags"), "{err}");
    }

    #[test]
    fn enum_macro_matches_serde_encoding() {
        assert_eq!(to_string(&Color::Red).unwrap(), "\"Red\"");
        assert_eq!(from_str::<Color>("\"Green\"").unwrap(), Color::Green);
        let err = from_str::<Color>("\"Blue\"").unwrap_err();
        assert!(matches!(err, JsonError::UnknownVariant(_)));
    }

    #[test]
    fn newtype_macro_is_transparent() {
        let w = Wrap(4.25);
        assert_eq!(to_string(&w).unwrap(), "4.25");
        let back: Wrap = from_str("4.25").unwrap();
        assert_eq!(back.0, 4.25);
    }

    #[test]
    fn pretty_printing_parses_back() {
        let v = parse(r#"{"a":[1,2],"b":{"c":null},"d":[]}"#).unwrap();
        let mut pretty = String::new();
        write_value_pretty(&v, 0, &mut pretty).unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(parse(&pretty).unwrap(), v);
    }
}

/// Property fuzzing of the parser: it is the one parser of external
/// input (imported datasets), so malformed text must come back as `Err`,
/// never as a panic, and everything the serialiser writes must parse back
/// to the value it was written from.
#[cfg(test)]
mod fuzz {
    use super::*;
    use crate::prop::{collection, Strategy};
    use crate::rng::StdRng;
    use crate::{prop_assert, prop_assert_eq, proptest};

    /// Characters strings are drawn from: JSON's escapes, control
    /// characters, and multi-byte UTF-8.
    const STR_CHARS: [char; 14] = [
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{7f}', 'é', '€', '😀',
    ];

    /// Bytes garbage is drawn from: every byte the grammar gives meaning
    /// to, plus a few it does not.
    const GARBAGE: &[u8] = b"{}[]\":,-+.0123456789eEtrufalsnNI\\u \n\tx#";

    /// Tokens JSON has no encoding for, though other writers emit them.
    const NON_FINITE: [&str; 6] = ["NaN", "nan", "Infinity", "-Infinity", "inf", "1e999"];

    /// Random [`Json`] trees of bounded depth, with finite numbers only.
    /// Shrinks a container to its children and a scalar to `null`.
    #[derive(Debug, Clone, Copy)]
    struct JsonTrees {
        depth: usize,
    }

    fn gen_string(rng: &mut StdRng) -> String {
        let len = rng.gen_range(0usize..9);
        (0..len)
            .map(|_| STR_CHARS[rng.gen_range(0..STR_CHARS.len())])
            .collect()
    }

    fn gen_number(rng: &mut StdRng) -> Json {
        match rng.gen_range(0u32..5) {
            0 => Json::Int(rng.gen_range(-1000i64..1000)),
            1 => Json::Int(rng.next_u64() as i64),
            2 => Json::Num(rng.gen_range(-1e6f64..1e6)),
            3 => Json::Num(rng.gen_range(-1.0f64..1.0) * 10f64.powi(rng.gen_range(-300i32..300))),
            _ => {
                let x = f64::from_bits(rng.next_u64());
                Json::Num(if x.is_finite() { x } else { 0.5 })
            }
        }
    }

    fn gen_tree(rng: &mut StdRng, depth: usize) -> Json {
        let kinds = if depth == 0 { 4 } else { 6 };
        match rng.gen_range(0u32..kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => gen_number(rng),
            3 => Json::Str(gen_string(rng)),
            4 => Json::Arr(
                (0..rng.gen_range(0usize..5))
                    .map(|_| gen_tree(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.gen_range(0usize..5))
                    .map(|_| (gen_string(rng), gen_tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    impl Strategy for JsonTrees {
        type Value = Json;

        fn generate(&self, rng: &mut StdRng) -> Json {
            gen_tree(rng, self.depth)
        }

        fn shrink(&self, value: &Json) -> Vec<Json> {
            match value {
                Json::Null => Vec::new(),
                Json::Arr(items) => items.clone(),
                Json::Obj(pairs) => pairs.iter().map(|(_, v)| v.clone()).collect(),
                _ => vec![Json::Null],
            }
        }
    }

    /// Every char-boundary prefix of `text` shorter than the whole.
    fn strict_prefixes(text: &str) -> impl Iterator<Item = &str> {
        text.char_indices().map(move |(i, _)| &text[..i])
    }

    proptest! {
        #[test]
        fn generated_trees_roundtrip(tree in JsonTrees { depth: 3 }) {
            let compact = to_string(&tree).unwrap();
            prop_assert_eq!(parse(&compact).unwrap(), tree.clone());
            let pretty = to_string_pretty(&tree).unwrap();
            prop_assert_eq!(parse(&pretty).unwrap(), tree.clone());
            // Text -> value -> text is a fixed point.
            prop_assert_eq!(to_string(&parse(&compact).unwrap()).unwrap(), compact);
        }

        #[test]
        fn typed_samples_roundtrip_bit_for_bit(
            samples in collection::vec((-1e4f64..1e4, -180.0f64..180.0, -90.0f64..90.0), 0..40),
        ) {
            // The shape a head trace persists: (t, yaw, pitch) triples.
            let text = to_string(&samples).unwrap();
            let back: Vec<(f64, f64, f64)> = from_str(&text).unwrap();
            prop_assert_eq!(back.len(), samples.len());
            for (a, b) in back.iter().zip(&samples) {
                prop_assert_eq!(
                    (a.0.to_bits(), a.1.to_bits(), a.2.to_bits()),
                    (b.0.to_bits(), b.1.to_bits(), b.2.to_bits())
                );
            }
        }

        #[test]
        fn truncated_text_is_an_error(tree in JsonTrees { depth: 3 }) {
            let text = to_string(&tree).unwrap();
            // A strict prefix of a string, array or object is never a
            // document; a number's prefix may be one ("12" of "123"), so
            // only its failing to panic is checked.
            let must_fail = matches!(tree, Json::Str(_) | Json::Arr(_) | Json::Obj(_));
            for prefix in strict_prefixes(&text) {
                let parsed = parse(prefix);
                prop_assert!(!must_fail || parsed.is_err(), "accepted prefix {:?}", prefix);
            }
        }

        #[test]
        fn non_finite_numbers_are_errors(
            tree in JsonTrees { depth: 2 },
            token in 0usize..6,
        ) {
            let text = to_string(&tree).unwrap();
            let bad = NON_FINITE[token];
            for doc in [
                format!("[{text},{bad}]"),
                format!("{{\"k\":{bad},\"v\":{text}}}"),
                bad.to_owned(),
            ] {
                prop_assert!(parse(&doc).is_err(), "accepted {:?}", doc);
            }
            // The writer refuses them too.
            let laden = Json::Arr(vec![tree, Json::Num(f64::NAN)]);
            prop_assert_eq!(to_string(&laden), Err(JsonError::NonFinite));
        }

        #[test]
        fn garbage_never_panics(
            picks in collection::vec(0usize..GARBAGE.len(), 0..48),
            raw in collection::vec(0u32..256, 0..32),
        ) {
            let grammar: String = picks.iter().map(|&i| char::from(GARBAGE[i])).collect();
            let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            let lossy = String::from_utf8_lossy(&bytes).into_owned();
            for text in [grammar, lossy] {
                // Whatever parses must survive a round trip.
                if let Ok(value) = parse(&text) {
                    let again = to_string(&value).unwrap();
                    prop_assert_eq!(parse(&again).unwrap(), value);
                }
            }
        }

        #[test]
        fn mutated_documents_never_panic(
            tree in JsonTrees { depth: 3 },
            edits in collection::vec((0usize..4096, 0usize..GARBAGE.len()), 1..4),
        ) {
            let mut bytes = to_string(&tree).unwrap().into_bytes();
            for (at, pick) in edits {
                // Replace one ASCII byte, so the text stays UTF-8.
                let len = bytes.len().max(1);
                if let Some(b) = bytes.get_mut(at % len) {
                    if b.is_ascii() {
                        *b = GARBAGE[pick];
                    }
                }
            }
            let text = String::from_utf8(bytes).unwrap();
            if let Ok(value) = parse(&text) {
                let again = to_string(&value).unwrap();
                prop_assert_eq!(parse(&again).unwrap(), value);
            }
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041""#).unwrap(), Json::Str("A".into()));
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u004""#,
            r#""\u00g1""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn long_multibyte_strings_parse() {
        // Each char is read in O(1). A parser that re-validates the rest
        // of the input per char takes seconds here, not milliseconds.
        let long = "é".repeat(200_000);
        let text = to_string(&long).unwrap();
        assert_eq!(from_str::<String>(&text).unwrap(), long);
    }
}
