//! The workspace's one JSON codec: a minimal, deterministic writer and
//! reader.
//!
//! The vendored `serde` shim has no serializer back-end, so every JSON
//! artefact — sweep reports, spec / platform / estimate-cache files,
//! `BENCH.json` and this crate's trace exports — is built from [`Value`]s.
//! Output is deterministic by construction: object keys appear in insertion
//! order and `f64` values use Rust's shortest-round-trip formatting, so equal
//! documents serialise to equal bytes. [`Value::parse`] is the matching
//! recursive-descent reader, and the typed field getters ([`Value::string`],
//! [`Value::u64`], [`Value::u32`], [`Value::f64`], [`Value::array`]) turn a
//! missing or ill-typed field into an error that names the key.

use std::fmt::Write;

/// Escapes `s` as the contents of a JSON string literal.
fn escape(s: &str) -> String {
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

/// A JSON value rendered to a string.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// An unsigned integer.
    Uint(u64),
    /// A finite float (non-finite values render as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered list.
    Array(Vec<Value>),
    /// An object with keys in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Parses a JSON document (one value, optionally surrounded by
    /// whitespace).
    ///
    /// Integral numbers without sign become [`Value::Uint`], with a sign
    /// [`Value::Int`]; anything with a fraction or exponent becomes
    /// [`Value::Float`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable description (with byte offset) of the first
    /// syntax error.
    pub fn parse(src: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_whitespace();
        let value = p.value()?;
        p.skip_whitespace();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Looks up a key of an object (`None` for other variants or missing
    /// keys; the first occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (`None` for other variants).
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs of an object in document order (`None` for other
    /// variants).
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value as a non-negative integer (`None` for other variants and
    /// negative integers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Uint(u) => Some(*u),
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a float (integers convert; `None` for non-numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Uint(u) => Some(*u as f64),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a string slice (`None` for other variants).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The string field `key` of an object.
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or not a string.
    pub fn string(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("missing string '{key}'"))
    }

    /// The non-negative integer field `key` of an object.
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or not a non-negative integer.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing integer '{key}'"))
    }

    /// The integer field `key` of an object, which must fit a `u32`.
    ///
    /// # Errors
    ///
    /// Names the key when it is missing, not an integer or out of range.
    pub fn u32(&self, key: &str) -> Result<u32, String> {
        u32::try_from(self.u64(key)?).map_err(|_| format!("field '{key}' exceeds u32"))
    }

    /// The number field `key` of an object (integers convert).
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or not a number.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("missing number '{key}'"))
    }

    /// The array field `key` of an object.
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or not an array.
    pub fn array(&self, key: &str) -> Result<&[Value], String> {
        self.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("missing array '{key}'"))
    }

    /// `true` exactly for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Convenience constructor for object values.
    pub fn object(fields: Vec<(&str, Value)>) -> Self {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Uint(u) => {
                let _ = write!(out, "{u}");
            }
            Value::Float(x) => {
                if x.is_finite() {
                    // `{}` is the shortest round-trip representation; add
                    // `.0` to integral floats so the value stays
                    // unambiguously a float for JSON consumers.
                    let mut s = x.to_string();
                    if !s.contains(['.', 'e', 'E']) {
                        s.push_str(".0");
                    }
                    out.push_str(&s);
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(key));
                    out.push_str("\":");
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// A recursive-descent JSON parser over raw bytes.
struct Parser<'s> {
    bytes: &'s [u8],
    pos: usize,
    depth: usize,
}

/// Maximum container nesting [`Value::parse`] accepts. Sweep reports nest
/// three levels deep; the cap exists so a corrupt or adversarial file fed to
/// `sweep --check` produces a parse error instead of exhausting the stack.
const MAX_DEPTH: usize = 128;

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!(
                "unexpected byte '{}' at byte {}",
                char::from(b),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
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

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy the longest escape-free run in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| {
                                    format!("truncated \\u escape at byte {}", self.pos)
                                })?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogates (the writer never emits them) decode
                            // to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!(
                                "invalid escape '\\{}' at byte {}",
                                char::from(other),
                                self.pos - 1
                            ))
                        }
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    /// A number as RFC 8259 writes it: an optional minus, an integer part
    /// without leading zeros, then an optional fraction and exponent. A
    /// number with a fraction or an exponent is a [`Value::Float`] and must
    /// be finite; the others are integers.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        let unsigned = text.strip_prefix('-').unwrap_or(text);
        let invalid = || format!("invalid number '{text}' at byte {start}");
        if !is_json_number(unsigned) {
            return Err(invalid());
        }
        if unsigned.len() > 1
            && unsigned.starts_with('0')
            && unsigned.as_bytes()[1].is_ascii_digit()
        {
            return Err(format!(
                "invalid number '{text}' at byte {start}: leading zero"
            ));
        }
        if float {
            let x = text.parse::<f64>().map_err(|_| invalid())?;
            if !x.is_finite() {
                return Err(format!(
                    "number '{text}' at byte {start} is out of range for f64"
                ));
            }
            Ok(Value::Float(x))
        } else if text.starts_with('-') {
            unsigned
                .parse::<u64>()
                .ok()
                .and_then(|_| text.parse::<i64>().ok())
                .map(Value::Int)
                .ok_or_else(invalid)
        } else {
            text.parse::<u64>().map(Value::Uint).map_err(|_| invalid())
        }
    }
}

/// Whether `unsigned`, a number without its minus sign, follows RFC 8259's
/// grammar up to leading zeros: digits, then optionally `.` and digits, then
/// optionally `e` or `E`, a sign and digits.
fn is_json_number(unsigned: &str) -> bool {
    let bytes = unsigned.as_bytes();
    let mut pos = 0;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    if !digits(&mut pos) {
        return false;
    }
    if bytes.get(pos) == Some(&b'.') {
        pos += 1;
        if !digits(&mut pos) {
            return false;
        }
    }
    if matches!(bytes.get(pos), Some(b'e' | b'E')) {
        pos += 1;
        if matches!(bytes.get(pos), Some(b'+' | b'-')) {
            pos += 1;
        }
        if !digits(&mut pos) {
            return false;
        }
    }
    pos == bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_rendered_values() {
        let v = Value::object(vec![
            ("name", Value::str("a \"b\"\n\u{1}")),
            ("count", Value::Uint(3)),
            ("neg", Value::Int(-7)),
            ("ratio", Value::Float(1.5)),
            ("flag", Value::Bool(true)),
            ("none", Value::Null),
            (
                "list",
                Value::Array(vec![Value::Uint(2), Value::Float(0.25)]),
            ),
            ("empty", Value::Array(vec![])),
            ("nested", Value::object(vec![])),
        ]);
        let rendered = v.render();
        let parsed = Value::parse(&rendered).unwrap();
        assert_eq!(parsed.render(), rendered);
        assert_eq!(parsed.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(parsed.get("neg").unwrap().as_u64(), None);
        assert_eq!(parsed.get("ratio").unwrap().as_f64(), Some(1.5));
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("a \"b\"\n\u{1}"));
        assert!(parsed.get("none").unwrap().is_null());
        assert_eq!(parsed.get("list").unwrap().as_array().unwrap().len(), 2);
        assert!(parsed.get("missing").is_none());
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = Value::parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // Nesting at the limit still parses.
        let ok = format!("{}{}", "[".repeat(128), "]".repeat(128));
        assert!(Value::parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(129), "]".repeat(129));
        assert!(Value::parse(&over).is_err());
    }

    #[test]
    fn parse_accepts_whitespace_and_rejects_garbage() {
        assert!(Value::parse(" { \"a\" : [ 1 , 2.0e1 , null ] } \n").is_ok());
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "nan",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn numbers_follow_rfc_8259() {
        for (good, value) in [
            ("0", Value::Uint(0)),
            ("-0", Value::Int(0)),
            ("10", Value::Uint(10)),
            ("-12", Value::Int(-12)),
            ("0.5", Value::Float(0.5)),
            ("-0.5e1", Value::Float(-5.0)),
            ("2E+2", Value::Float(200.0)),
            ("1e-999", Value::Float(0.0)),
            ("1.7976931348623157e308", Value::Float(f64::MAX)),
        ] {
            assert_eq!(
                Value::parse(good).unwrap().render(),
                value.render(),
                "{good}"
            );
        }
        for (bad, message) in [
            ("{\"a\":02}", "invalid number '02' at byte 5: leading zero"),
            ("[-012]", "invalid number '-012' at byte 1: leading zero"),
            ("[00.5]", "invalid number '00.5' at byte 1: leading zero"),
            (
                "{\"a\":1e999}",
                "number '1e999' at byte 5 is out of range for f64",
            ),
            (
                "[-1e999]",
                "number '-1e999' at byte 1 is out of range for f64",
            ),
            (
                "[1.8e308]",
                "number '1.8e308' at byte 1 is out of range for f64",
            ),
            ("[1.]", "invalid number '1.' at byte 1"),
            ("[1.e5]", "invalid number '1.e5' at byte 1"),
            ("[1e]", "invalid number '1e' at byte 1"),
            ("[1e+]", "invalid number '1e+' at byte 1"),
            ("[-]", "invalid number '-' at byte 1"),
            ("[1-2]", "invalid number '1-2' at byte 1"),
            ("[1e5.0]", "invalid number '1e5.0' at byte 1"),
        ] {
            assert_eq!(Value::parse(bad).err().as_deref(), Some(message), "{bad}");
        }
    }

    #[test]
    fn values_render_compact_deterministic_json() {
        let v = Value::object(vec![
            ("name", Value::str("a \"b\"\n")),
            ("count", Value::Uint(3)),
            ("ratio", Value::Float(1.5)),
            ("whole", Value::Float(2.0)),
            ("nan", Value::Float(f64::NAN)),
            ("flag", Value::Bool(true)),
            ("none", Value::Null),
            ("list", Value::Array(vec![Value::Int(-1), Value::Uint(2)])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"a \"b\"\n","count":3,"ratio":1.5,"whole":2.0,"nan":null,"flag":true,"none":null,"list":[-1,2]}"#
        );
        assert_eq!(v.render(), v.render());
    }

    #[test]
    fn floats_render_with_a_fraction_and_non_finite_as_null() {
        let render = |x: f64| Value::Float(x).render();
        assert_eq!(render(1.0), "1.0");
        assert_eq!(render(1.5), "1.5");
        assert_eq!(render(0.0), "0.0");
        assert_eq!(render(1e300), format!("1{}.0", "0".repeat(300)));
        assert_eq!(render(f64::NAN), "null");
        assert_eq!(render(f64::INFINITY), "null");
    }

    #[test]
    fn field_getters_name_the_key() {
        let v = Value::parse(r#"{"s":"x","n":7,"big":4294967296,"neg":-1,"f":0.5,"a":[1],"o":{}}"#)
            .unwrap();
        assert_eq!(v.string("s"), Ok("x"));
        assert_eq!(v.u64("n"), Ok(7));
        assert_eq!(v.u32("n"), Ok(7));
        assert_eq!(v.f64("n"), Ok(7.0));
        assert_eq!(v.f64("f"), Ok(0.5));
        assert_eq!(v.array("a").map(<[Value]>::len), Ok(1));
        assert_eq!(v.string("n"), Err("missing string 'n'".to_string()));
        assert_eq!(v.u64("neg"), Err("missing integer 'neg'".to_string()));
        assert_eq!(v.u64("f"), Err("missing integer 'f'".to_string()));
        assert_eq!(v.u32("big"), Err("field 'big' exceeds u32".to_string()));
        assert_eq!(v.f64("s"), Err("missing number 's'".to_string()));
        assert_eq!(v.array("o").unwrap_err(), "missing array 'o'");
        assert_eq!(v.array("gone").unwrap_err(), "missing array 'gone'");
        // Getters on a non-object find nothing.
        assert!(Value::Uint(1).u64("n").is_err());
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(escape("t\ta"), "t\\ta");
    }
}
