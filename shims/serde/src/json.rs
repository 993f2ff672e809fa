//! The JSON value tree, text writer and parser backing the serde shim.
//!
//! Both directions are linear in the text length: the parser visits each
//! input byte a bounded number of times and never re-validates the rest
//! of the input, and the writer appends straight into its output. In
//! strings, each run of bytes up to the next `"` or `\` (parser) or the
//! next byte needing an escape (writer) is copied as one slice; those
//! bytes are all ASCII, so every run starts and ends on a char boundary
//! of the `&str` and needs no UTF-8 re-validation.

use std::fmt::{self, Write as _};

/// A parsed or to-be-written JSON value.
///
/// Integers keep their signedness ([`Value::U64`] / [`Value::I64`]) so that
/// 64-bit counters round-trip exactly; floats use the shortest
/// representation that round-trips (`{:?}` formatting).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative (or explicitly signed) integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Human-readable kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) | Value::I64(_) => "integer",
            Value::F64(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Looks up a field of an object.
    ///
    /// # Errors
    ///
    /// Returns an error if `self` is not an object or the field is absent.
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::msg(format!("missing field `{name}`"))),
            other => Err(Error::msg(format!("expected object, found {}", other.kind()))),
        }
    }

    /// The value as a `u64`.
    ///
    /// # Errors
    ///
    /// Returns an error for non-integral or negative values.
    pub fn as_u64(&self) -> Result<u64, Error> {
        match *self {
            Value::U64(x) => Ok(x),
            Value::I64(x) if x >= 0 => Ok(x as u64),
            Value::F64(x) if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 => Ok(x as u64),
            ref other => {
                Err(Error::msg(format!("expected unsigned integer, found {}", other.kind())))
            }
        }
    }

    /// The value as an `i64`.
    ///
    /// # Errors
    ///
    /// Returns an error for non-integral or out-of-range values.
    pub fn as_i64(&self) -> Result<i64, Error> {
        match *self {
            Value::I64(x) => Ok(x),
            Value::U64(x) => {
                i64::try_from(x).map_err(|_| Error::msg(format!("integer {x} overflows i64")))
            }
            Value::F64(x) if x.fract() == 0.0 && x.abs() <= i64::MAX as f64 => Ok(x as i64),
            ref other => Err(Error::msg(format!("expected integer, found {}", other.kind()))),
        }
    }

    /// The value as an `f64` (integers convert losslessly where possible).
    ///
    /// # Errors
    ///
    /// Returns an error for non-numeric values.
    pub fn as_f64(&self) -> Result<f64, Error> {
        match *self {
            Value::F64(x) => Ok(x),
            Value::U64(x) => Ok(x as f64),
            Value::I64(x) => Ok(x as f64),
            Value::Null => Ok(f64::NAN),
            ref other => Err(Error::msg(format!("expected number, found {}", other.kind()))),
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// Returns an error for non-string values.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::String(s) => Ok(s),
            other => Err(Error::msg(format!("expected string, found {}", other.kind()))),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Returns an error for non-array values.
    pub fn as_array(&self) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(Error::msg(format!("expected array, found {}", other.kind()))),
        }
    }

    /// Renders compact JSON text.
    pub fn to_json_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders pretty-printed JSON text (two-space indent).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        // Writing into a `String` cannot fail, so the `fmt::Result`s
        // below are discarded.
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(x) => {
                let _ = write!(out, "{x}");
            }
            Value::I64(x) => {
                let _ = write!(out, "{x}");
            }
            Value::F64(x) => {
                if x.is_finite() {
                    // `{:?}` prints the shortest representation that
                    // round-trips, and always includes `.0` for integral
                    // floats so the type survives re-parsing.
                    let _ = write!(out, "{x:?}");
                } else {
                    // JSON has no NaN/Inf; null is the conventional stand-in.
                    out.push_str("null");
                }
            }
            Value::String(s) => write_json_string(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push(']');
            }
            Value::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    write_json_string(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push('}');
            }
        }
    }
}

/// In pretty mode, a line break and the indentation of nesting `depth`;
/// nothing in compact mode.
fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    // Copy each run of bytes that need no escape as one slice. Every byte
    // that does is ASCII, so a run always ends on a char boundary.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Serialization / deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error from a message.
    pub fn msg(message: impl Into<String>) -> Self {
        Error { message: message.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Parses JSON text into a [`Value`].
///
/// # Errors
///
/// Returns [`Error`] (with byte offset) on malformed input.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p =
        Parser { src: s, bytes: s.as_bytes(), pos: 0, items: Vec::new(), pairs: Vec::new() };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Elements of the arrays being parsed, innermost last: each array
    /// moves its own tail out into an exactly-sized `Vec` when it closes.
    items: Vec<Value>,
    /// The same stack for object members.
    pairs: Vec<(String, Value)>,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::msg(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("invalid literal (expected `{lit}`)")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(Vec::new()));
        }
        let base = self.items.len();
        loop {
            self.skip_ws();
            let item = self.value()?;
            self.items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(self.items.drain(base..).collect()));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(Vec::new()));
        }
        let base = self.pairs.len();
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            self.pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(self.pairs.drain(base..).collect()));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    /// The end of the run of plain string bytes starting at `self.pos`:
    /// the offset of the next `"` or `\`, or the end of the input.
    fn run_end(&self) -> usize {
        self.bytes[self.pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map_or(self.bytes.len(), |n| self.pos + n)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        // `"` and `\` are ASCII, so every run ends on a char boundary of
        // `src`.
        let mut end = self.run_end();
        let mut out = String::with_capacity(end - self.pos);
        loop {
            out.push_str(&self.src[self.pos..end]);
            self.pos = end;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    let combined =
                                        0x10000 + ((cp - 0xd800) << 10) + (lo.wrapping_sub(0xdc00));
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
            }
            end = self.run_end();
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let num = &self.bytes[start..self.pos];
        // Fast path: a non-negative integer of at most 19 digits cannot
        // overflow a u64, so it needs no `str::parse`.
        if !is_float && num.len() <= 19 && num[0] != b'-' {
            let u = num.iter().fold(0u64, |acc, &d| acc * 10 + u64::from(d - b'0'));
            return Ok(Value::U64(u));
        }
        // Every byte of a number is ASCII, so this slice is on char
        // boundaries.
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        // Floats keep the standard library's correctly rounded parse.
        text.parse::<f64>().map(Value::F64).map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-7", "18446744073709551615", "1.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.to_json_compact()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn roundtrip_nested() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x\ny","d":-2.25}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_json_compact(), text);
        assert_eq!(parse(&v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn float_precision_roundtrips() {
        let v = Value::F64(0.1 + 0.2);
        let back = parse(&v.to_json_compact()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn u64_precision_roundtrips() {
        let v = Value::U64(u64::MAX);
        assert_eq!(parse(&v.to_json_compact()).unwrap(), v);
    }

    #[test]
    fn integers_keep_their_type_around_the_fast_path() {
        assert_eq!(parse("9999999999999999999").unwrap(), Value::U64(9_999_999_999_999_999_999));
        assert_eq!(parse("18446744073709551615").unwrap(), Value::U64(u64::MAX));
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            Value::F64(18_446_744_073_709_551_616.0)
        );
        assert_eq!(parse("-9223372036854775808").unwrap(), Value::I64(i64::MIN));
        assert_eq!(parse("007").unwrap(), Value::U64(7));
        assert_eq!(parse("-0").unwrap(), Value::I64(0));
        assert_eq!(parse("1e3").unwrap(), Value::F64(1000.0));
        assert_eq!(parse("12.0").unwrap(), Value::F64(12.0));
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in ["{not json", "[1,", "\"unterminated", "tru", "{\"a\" 1}", "1 2"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""aA\t\\\"é""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "aA\t\\\"é");
    }

    #[test]
    fn field_lookup() {
        let v = parse(r#"{"x":3}"#).unwrap();
        assert_eq!(v.field("x").unwrap().as_u64().unwrap(), 3);
        assert!(v.field("y").is_err());
    }
}
