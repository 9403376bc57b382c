//! A minimal JSON reader/writer.
//!
//! The build environment has no registry access, so `serde` is not
//! available; this module implements the small slice of JSON the
//! workspace needs — the benchmark's run records, the golden-trace
//! snapshot suites, the engine's snapshot/restore format, and the
//! `dfrs-serve` line protocol. Floats that must round-trip
//! **bit-exactly** (golden metrics, snapshot state) are stored as
//! `"0x<16 hex digits>"` bit strings, not JSON numbers.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Objects keep insertion order irrelevant —
/// they are sorted maps, which also makes emitted files diff-stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (sorted by key).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value at `key`, when this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// This value as an object map.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Decode a `"0x…"` bit string written by [`bits`] back to the
    /// exact `f64`.
    pub fn as_bits_f64(&self) -> Option<f64> {
        let s = self.as_str()?.strip_prefix("0x")?;
        u64::from_str_radix(s, 16).ok().map(f64::from_bits)
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Single-line rendering (no trailing newline) for line-delimited
    /// protocols. Objects are sorted maps, so output is diff-stable.
    pub fn compact(&self) -> String {
        // Room for a protocol event (a `record` line is ~160 bytes)
        // without regrowing.
        let mut out = String::with_capacity(256);
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(n) => write_number(out, *n),
            Value::Str(s) => write_string(out, s),
            Value::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Value::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(n) => write_number(out, *n),
            Value::Str(s) => write_string(out, s),
            Value::Arr(a) if a.is_empty() => out.push_str("[]"),
            Value::Arr(a) if a.iter().all(is_scalar) => {
                // Scalar-only arrays (e.g. one golden job row) stay on
                // one line so snapshot files diff row-by-row.
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out, indent + 1);
                }
                out.push(']');
            }
            Value::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push(']');
            }
            Value::Obj(m) if m.is_empty() => out.push_str("{}"),
            Value::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push('}');
            }
        }
    }
}

/// Encode an `f64` as a bit-exact `"0x…"` string value.
pub fn bits(x: f64) -> Value {
    Value::Str(format!("0x{:016x}", x.to_bits()))
}

fn is_scalar(v: &Value) -> bool {
    !matches!(v, Value::Arr(_) | Value::Obj(_))
}

/// Build an object from `(key, value)` pairs.
pub fn obj(pairs: impl IntoIterator<Item = (String, Value)>) -> Value {
    Value::Obj(pairs.into_iter().collect())
}

fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
        if n == n.trunc() && n.abs() < 1e15 {
            write_int(out, n as i64);
        } else {
            let _ = write!(out, "{n}");
        }
    } else {
        // JSON has no Inf/NaN; bit strings are used where those can
        // occur, so plain numbers degrade to null.
        out.push_str("null");
    }
}

/// Decimal digits of `n`, without the formatting machinery (integers
/// are most of what the line protocol renders).
fn write_int(out: &mut String, n: i64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut m = n.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (m % 10) as u8;
        m /= 10;
        if m == 0 {
            break;
        }
    }
    if n < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Append `s` as a JSON string literal, quotes included — the escaping
/// every rendering in this module uses. Runs of bytes that need no
/// escape are copied whole; every escaped byte is ASCII, so the run
/// boundaries are char boundaries.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Why a parse failed, with a byte offset for context.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// Parse a JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &str) -> ParseError {
        ParseError {
            at: self.pos,
            reason: reason.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[', "expected [")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{', "expected {")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected :")?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected string")?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by our own
                            // files; map them to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through intact.
                    let start = self.pos;
                    let rest = &self.bytes[start..];
                    let ch_len = match rest[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xf0 => 4,
                        b if b >= 0xe0 => 3,
                        _ => 2,
                    };
                    let chunk = rest
                        .get(..ch_len)
                        .ok_or_else(|| self.err("truncated UTF-8"))?;
                    let chunk =
                        std::str::from_utf8(chunk).map_err(|_| self.err("invalid UTF-8"))?;
                    s.push_str(chunk);
                    self.pos += ch_len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_nested_documents() {
        let v = obj([
            ("name".into(), Value::Str("bench".into())),
            (
                "phases".into(),
                Value::Arr(vec![Value::Num(1.5), Value::Num(-3.0), Value::Null]),
            ),
            ("ok".into(), Value::Bool(true)),
            ("nested".into(), obj([("k".into(), Value::Num(42.0))])),
        ]);
        let text = v.pretty();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn bits_round_trip_exactly() {
        for x in [0.0, -0.0, 1.0 / 3.0, f64::MAX, 2.2250738585072014e-308] {
            let v = bits(x);
            let text = v.pretty();
            let back = parse(&text).unwrap().as_bits_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Value::Str("a\"b\\c\nd\te µ".into());
        assert_eq!(parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": [1, "x"], "b": {"c": 2.5}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_f64(), Some(1.0));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_f64(), Some(2.5));
        assert!(v.get("missing").is_none());
        assert!(v.as_obj().is_some());
    }

    #[test]
    fn integers_emit_without_decimal_point() {
        let text = Value::Num(42.0).pretty();
        assert_eq!(text.trim(), "42");
        let text = Value::Num(0.5).pretty();
        assert_eq!(text.trim(), "0.5");
    }

    /// The char-by-char string writer `write_string` replaced: the
    /// reference its run-copying rendering must match byte for byte.
    fn char_write_string(out: &mut String, s: &str) {
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

    /// The `fmt`-based number writer `write_number` replaced.
    fn fmt_write_number(out: &mut String, n: f64) {
        if n.is_finite() {
            if n == n.trunc() && n.abs() < 1e15 {
                let _ = write!(out, "{}", n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        } else {
            out.push_str("null");
        }
    }

    /// Strings weighted toward what escaping cares about: quotes,
    /// backslashes, every control char, printable ASCII, and 2-, 3- and
    /// 4-byte chars.
    fn tricky_string() -> impl Strategy<Value = String> {
        prop::collection::vec((0u8..5, 0u32..0x11_0000), 0..48).prop_map(|cs| {
            cs.into_iter()
                .map(|(kind, code)| match kind {
                    0 => ['"', '\\', '/', '\u{7f}'][code as usize % 4],
                    1 => char::from_u32(code % 0x20).expect("control char"),
                    2 => char::from_u32(0x20 + code % 0x5f).expect("printable ASCII"),
                    3 => char::from_u32(0x80 + code % 0xd780).expect("below the surrogates"),
                    _ => char::from_u32(code).unwrap_or('\u{fffd}'),
                })
                .collect()
        })
    }

    /// Numbers around every branch of `write_number`: ±0, the `1e15`
    /// integer boundary, NaN and infinities, integers, fractions, and
    /// arbitrary bit patterns.
    fn tricky_number() -> impl Strategy<Value = f64> {
        const EDGES: [f64; 14] = [
            0.0,
            -0.0,
            1e15,
            -1e15,
            1e15 - 1.0,
            -(1e15 - 1.0),
            999_999_999_999_999.5,
            1e15 + 2.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
            -1.0,
        ];
        (0u8..4, -2e15f64..2e15, 0u64..=u64::MAX).prop_map(|(kind, x, bits)| match kind {
            0 => EDGES[(bits % EDGES.len() as u64) as usize],
            1 => x.trunc(),
            2 => x,
            _ => f64::from_bits(bits),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn run_writer_matches_the_char_writer(s in tricky_string()) {
            let (mut new, mut old) = (String::from("x"), String::from("x"));
            write_string(&mut new, &s);
            char_write_string(&mut old, &s);
            prop_assert_eq!(new, old);
        }

        #[test]
        fn int_writer_matches_fmt(n in tricky_number()) {
            let (mut new, mut old) = (String::new(), String::new());
            write_number(&mut new, n);
            fmt_write_number(&mut old, n);
            prop_assert_eq!(new, old, "{n:e} ({:#x})", n.to_bits());
        }
    }
}
