//! A small self-contained JSON value type, encoder and parser.
//!
//! The workspace builds in fully offline environments, so run reports
//! carry their own JSON layer instead of depending on `serde_json`. The
//! surface is deliberately tiny: a [`JsonValue`] tree, a pretty encoder
//! whose output is stable (object keys keep insertion order), and a
//! strict recursive-descent parser sufficient to round-trip anything the
//! encoder produces (and ordinary interoperable JSON in general).
//!
//! # Examples
//!
//! ```
//! use tla_telemetry::json::JsonValue;
//!
//! let v = JsonValue::object([
//!     ("policy", JsonValue::from("QBS")),
//!     ("misses", JsonValue::from(42u64)),
//! ]);
//! let text = v.to_string();
//! let back = JsonValue::parse(&text).unwrap();
//! assert_eq!(v, back);
//! assert_eq!(back.get("misses").and_then(|m| m.as_u64()), Some(42));
//! ```

use std::fmt;

/// A JSON document node.
///
/// Numbers are stored as `f64` with a separate `Int` variant for exact
/// 64-bit unsigned counters (cache statistics routinely exceed 2^53, the
/// largest integer `f64` holds exactly).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact unsigned integer (counters).
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order is preserved in the encoding.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array(items: impl IntoIterator<Item = JsonValue>) -> JsonValue {
        JsonValue::Arr(items.into_iter().collect())
    }

    /// Looks up a key in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is one.
    ///
    /// Floats convert only when the conversion is *exact*: `2.0` is kept
    /// (an integral counter that merely round-tripped through a float
    /// writer), while `2.5` is rejected rather than truncated — a report
    /// with genuinely fractional counters is malformed and must not read
    /// back as valid. The range check is strict: `u64::MAX as f64` rounds
    /// up to 2^64, so a `<=` bound would accept 2^64 and silently saturate
    /// it to `u64::MAX`; only values strictly below 2^64 convert.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) => Some(*n),
            JsonValue::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Parses a JSON document. The whole input must be one value plus
    /// optional trailing whitespace, with arrays and objects nested at
    /// most [`MAX_DEPTH`] deep.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(n) => out.push_str(&n.to_string()),
            JsonValue::Num(x) => write_f64(out, *x),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                    items[i].write(out, ind)
                })
            }
            JsonValue::Obj(pairs) => {
                write_seq(out, indent, '{', '}', pairs.len(), |out, i, ind| {
                    write_escaped(out, &pairs[i].0);
                    out.push_str(": ");
                    pairs[i].1.write(out, ind);
                })
            }
        }
    }
}

impl fmt::Display for JsonValue {
    /// Compact single-line encoding (parseable by [`JsonValue::parse`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Int(n)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Int(n as u64)
    }
}

impl From<u32> for JsonValue {
    fn from(n: u32) -> Self {
        JsonValue::Int(n as u64)
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Num(x)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        out.push_str(&format!("{x:?}"));
    } else {
        // JSON has no Inf/NaN; encode as null like serde_json does.
        out.push_str("null");
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        match inner {
            Some(d) => {
                out.push('\n');
                out.push_str(&"  ".repeat(d));
            }
            None => {
                if i > 0 {
                    out.push(' ');
                }
            }
        }
        item(out, i, inner);
    }
    if let Some(d) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(close);
}

/// How deep [`JsonValue::parse`] lets arrays and objects nest. The parser
/// recurses once per level, so a deeper document is refused before it
/// can exhaust the stack; reports nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
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

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses an array or object one level deeper, or refuses it past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("arrays and objects nested too deep"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
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
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped runs in one shot.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unfinished escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                cp
                            };
                            out.push(
                                char::from_u32(c).ok_or_else(|| self.err("invalid codepoint"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let v = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            cp = cp * 16 + v;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::Int(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "42", "-1.5", "1e3", "\"hi\""] {
            let v = JsonValue::parse(text).unwrap();
            let back = JsonValue::parse(&v.to_string()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn exact_u64_counters_survive() {
        let big = u64::MAX - 1;
        let v = JsonValue::from(big);
        let back = JsonValue::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_u64(), Some(big));
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = JsonValue::object([
            ("name", JsonValue::from("lib+sje")),
            (
                "stats",
                JsonValue::object([
                    ("misses", JsonValue::from(1234u64)),
                    ("mpki", JsonValue::from(3.25)),
                    ("windows", JsonValue::array([JsonValue::from(1u64)])),
                ]),
            ),
            ("empty_arr", JsonValue::array([])),
            ("empty_obj", JsonValue::object::<String>([])),
            ("none", JsonValue::Null),
        ]);
        for text in [v.to_string(), v.to_pretty()] {
            assert_eq!(JsonValue::parse(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn string_escapes() {
        let s = "quote\" slash\\ newline\n tab\t unicode\u{1F600} ctrl\u{0001}";
        let v = JsonValue::from(s);
        let parsed = JsonValue::parse(&v.to_string()).unwrap();
        assert_eq!(parsed.as_str(), Some(s));
        // Standard escapes parse too.
        let std = JsonValue::parse(r#""a\u0041\ud83d\ude00\/b""#).unwrap();
        assert_eq!(std.as_str(), Some("aA\u{1F600}/b"));
    }

    #[test]
    fn accessors() {
        let v = JsonValue::object([("a", JsonValue::from(1u64)), ("b", JsonValue::from(true))]);
        assert_eq!(v.get("a").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(v.get("a").and_then(|x| x.as_f64()), Some(1.0));
        assert_eq!(v.get("b").and_then(|x| x.as_bool()), Some(true));
        assert!(v.get("c").is_none());
        assert!(JsonValue::Null.get("a").is_none());
        // Exact integral floats convert; anything inexact is rejected, not
        // truncated: fractional counters mean the report is malformed.
        assert_eq!(JsonValue::parse("2.0").unwrap().as_u64(), Some(2));
        assert_eq!(JsonValue::parse("-2.0").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("2.5").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("-0.5").unwrap().as_u64(), None);
        // 2^64 as a float is exactly `u64::MAX as f64` (which rounds up);
        // converting it would saturate to u64::MAX, so it must be rejected.
        assert_eq!(JsonValue::Num(u64::MAX as f64).as_u64(), None);
        assert_eq!(
            JsonValue::parse("18446744073709551616.0").unwrap().as_u64(),
            None
        );
        // The largest f64 below 2^64 still converts exactly.
        let below = (u64::MAX as f64).next_down();
        assert_eq!(JsonValue::Num(below).as_u64(), Some(below as u64));
    }

    #[test]
    fn malformed_inputs_error() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "[1]]",
            "\"\\q\"",
            "nan",
        ] {
            assert!(JsonValue::parse(text).is_err(), "{text:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let deep = open.repeat(1_000_000);
            let e = JsonValue::parse(&deep).unwrap_err();
            assert_eq!(e.offset, MAX_DEPTH * open.len(), "{open}");
        }
        // The limit itself still parses.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&at_limit).is_ok());
        let past = format!("[{at_limit}]");
        assert!(JsonValue::parse(&past).is_err());
    }

    #[test]
    fn nonfinite_floats_encode_as_null() {
        assert_eq!(JsonValue::from(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::from(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = JsonValue::object([("k", JsonValue::array([JsonValue::from(1u64)]))]);
        let pretty = v.to_pretty();
        assert!(pretty.contains("\n  \"k\": [\n    1\n  ]\n"));
        assert!(pretty.ends_with('\n'));
    }
}
