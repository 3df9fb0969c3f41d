//! Hand-rolled, dependency-free JSON emission.
//!
//! The observability layer exports registry snapshots, per-frame timeline
//! samples and run results as JSONL (one object per line). The workspace is
//! intentionally free of external runtime dependencies, so instead of serde
//! this module provides a tiny append-only builder that produces valid,
//! deterministic JSON:
//!
//! * floats are rendered with Rust's shortest-roundtrip `{}` formatting, so
//!   the same bits always produce the same bytes (the determinism tests
//!   compare exports byte-for-byte);
//! * NaN and ±infinity — unrepresentable in JSON — are emitted as `null`;
//! * object fields appear exactly in insertion order, and callers feed keys
//!   from sorted maps, so output ordering never depends on hash seeds.
//!
//! Emission is the primary direction. The golden-snapshot tests use a
//! minimal validating scanner ([`validate_json_line`]) rather than a full
//! parser; the batch job engine (`gat-serve`) additionally needs to *read*
//! JSONL job specs, so a small recursive-descent reader
//! ([`parse_json_value`] / [`parse_json_object`]) lives here too. Parsed
//! numbers keep their literal text so `u64` seeds and cycle counts
//! round-trip exactly (no silent f64 truncation past 2^53).

use std::fmt::Write as _;

/// Escape a string for embedding inside a JSON string literal (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
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

/// Render an f64 as a JSON value: shortest-roundtrip decimal for finite
/// values, `null` for NaN/±inf (which JSON cannot represent).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // Rust renders some floats as `1e300`; JSON accepts that form, but
        // bare `inf`/`NaN` never reach here thanks to the finite check.
        s
    } else {
        "null".to_string()
    }
}

/// Incremental JSON object builder. Fields appear in call order.
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    pub fn new() -> Self {
        Self { buf: String::new() }
    }

    fn key(&mut self, k: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{}\":", escape(k));
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        let _ = write!(self.buf, "\"{}\"", escape(v));
        self
    }

    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn i64(mut self, k: &str, v: i64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.buf.push_str(&number(v));
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Embed a pre-rendered JSON value (object, array, or literal) verbatim.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Incremental JSON array builder.
#[derive(Debug, Default)]
pub struct Arr {
    buf: String,
}

impl Arr {
    pub fn new() -> Self {
        Self { buf: String::new() }
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
    }

    pub fn str(mut self, v: &str) -> Self {
        self.sep();
        let _ = write!(self.buf, "\"{}\"", escape(v));
        self
    }

    pub fn u64(mut self, v: u64) -> Self {
        self.sep();
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn f64(mut self, v: f64) -> Self {
        self.sep();
        self.buf.push_str(&number(v));
        self
    }

    pub fn raw(mut self, v: &str) -> Self {
        self.sep();
        self.buf.push_str(v);
        self
    }

    pub fn finish(self) -> String {
        format!("[{}]", self.buf)
    }
}

/// Minimal structural validator for one JSONL line: checks that the line is
/// a single balanced JSON object with correctly quoted strings. Not a full
/// parser — enough for tests to reject truncated or interleaved output.
pub fn validate_json_line(line: &str) -> Result<(), String> {
    let line = line.trim();
    if !line.starts_with('{') {
        return Err(format!("line does not start with '{{': {line:.40}"));
    }
    let mut depth_obj = 0i64;
    let mut depth_arr = 0i64;
    let mut in_str = false;
    let mut escape_next = false;
    let mut end_at = None;
    for (i, ch) in line.char_indices() {
        if escape_next {
            escape_next = false;
            continue;
        }
        match ch {
            '\\' if in_str => escape_next = true,
            '"' => in_str = !in_str,
            '{' if !in_str => depth_obj += 1,
            '}' if !in_str => {
                depth_obj -= 1;
                if depth_obj == 0 && depth_arr == 0 && end_at.is_none() {
                    end_at = Some(i);
                }
            }
            '[' if !in_str => depth_arr += 1,
            ']' if !in_str => depth_arr -= 1,
            _ => {}
        }
        if depth_obj < 0 || depth_arr < 0 {
            return Err(format!("unbalanced bracket at byte {i}"));
        }
    }
    if in_str {
        return Err("unterminated string".into());
    }
    match end_at {
        Some(i) if i == line.len() - 1 => Ok(()),
        Some(i) => Err(format!("trailing bytes after object (ends at {i})")),
        None => Err("object never closes".into()),
    }
}

/// A parsed JSON value. Numbers keep their source text (`Num`) so integer
/// fields round-trip exactly; use the `as_*` accessors to interpret them.
/// Object fields keep document order in a `Vec` — parsing never imposes a
/// hash order, matching the emitter's insertion-order discipline.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// A number literal, verbatim (e.g. `"538379561"`, `"-0.25"`, `"1e9"`).
    Num(String),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    pub fn as_u64(&self) -> Option<u64> {
        let JsonValue::Num(s) = self else { return None };
        s.parse().ok()
    }

    pub fn as_i64(&self) -> Option<i64> {
        let JsonValue::Num(s) = self else { return None };
        s.parse().ok()
    }

    pub fn as_f64(&self) -> Option<f64> {
        let JsonValue::Num(s) = self else { return None };
        s.parse().ok()
    }

    pub fn as_str(&self) -> Option<&str> {
        let JsonValue::Str(s) = self else { return None };
        Some(s)
    }

    pub fn as_bool(&self) -> Option<bool> {
        let JsonValue::Bool(b) = self else {
            return None;
        };
        Some(*b)
    }

    /// Field lookup on an object value (first match, document order).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        let JsonValue::Obj(fields) = self else {
            return None;
        };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A parse failure with a byte offset into the input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub pos: usize,
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON value (trailing garbage is an error).
pub fn parse_json_value(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing bytes after value"));
    }
    Ok(v)
}

/// Parse one JSONL line that must be a single object; returns its fields in
/// document order. The job-spec grammar of `gat-serve` is built on this.
pub fn parse_json_object(line: &str) -> Result<Vec<(String, JsonValue)>, JsonError> {
    let JsonValue::Obj(fields) = parse_json_value(line)? else {
        return Err(JsonError {
            pos: 0,
            msg: "expected a JSON object".into(),
        });
    };
    Ok(fields)
}

/// Nesting bound for the reader: job specs are a couple of levels deep;
/// anything past this is hostile or corrupt input, not data.
const MAX_JSON_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.into(),
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
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_JSON_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the unescaped run in one go.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
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
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c).ok_or_else(|| self.err("bad code point"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(ch);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control byte in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| self.err("expected 4 hex digits"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        Ok(JsonValue::Num(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_are_json_safe() {
        assert_eq!(number(1.0), "1");
        assert_eq!(number(0.25), "0.25");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn object_and_array_builders_compose() {
        let inner = Arr::new().u64(1).f64(2.5).str("x").finish();
        let line = Obj::new()
            .str("type", "demo")
            .u64("cycle", 42)
            .bool("boost", true)
            .f64("fps", 58.5)
            .raw("samples", &inner)
            .finish();
        assert_eq!(
            line,
            r#"{"type":"demo","cycle":42,"boost":true,"fps":58.5,"samples":[1,2.5,"x"]}"#
        );
        validate_json_line(&line).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_json_line(r#"{"a":1}"#).is_ok());
        assert!(validate_json_line(r#"{"a":1"#).is_err());
        assert!(validate_json_line(r#"{"a":1}}"#).is_err());
        assert!(validate_json_line(r#"{"a":"unterminated}"#).is_err());
        assert!(validate_json_line(r#"not json"#).is_err());
        assert!(validate_json_line(r#"{"a":[1,2}"#).is_err());
    }

    #[test]
    fn parser_reads_what_the_builders_emit() {
        let line = Obj::new()
            .str("type", "demo")
            .u64("cycle", 42)
            .bool("boost", true)
            .f64("fps", 58.5)
            .raw("samples", &Arr::new().u64(1).f64(2.5).str("x").finish())
            .raw("none", "null")
            .finish();
        let v = parse_json_value(&line).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("demo"));
        assert_eq!(v.get("cycle").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("boost").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("fps").unwrap().as_f64(), Some(58.5));
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
        let samples = v.get("samples").unwrap();
        let JsonValue::Arr(items) = samples else {
            panic!("expected array, got {samples:?}");
        };
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[2].as_str(), Some("x"));
    }

    #[test]
    fn parsed_integers_round_trip_exactly() {
        // Past 2^53 an f64 intermediate would silently round; the literal
        // representation must survive.
        let v = parse_json_value("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(parse_json_value("-42").unwrap().as_i64(), Some(-42));
        assert_eq!(parse_json_value("1e3").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn object_fields_keep_document_order() {
        let fields = parse_json_object(r#"{"z":1,"a":2,"z":3}"#).unwrap();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "z"]);
        // `get` resolves to the first occurrence.
        let obj = JsonValue::Obj(fields);
        assert_eq!(obj.get("z").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn string_escapes_round_trip_through_the_parser() {
        let line = Obj::new().str("s", "a\"b\\c\nd\t\u{1}é").finish();
        let v = parse_json_value(&line).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\nd\t\u{1}é"));
        // Surrogate pairs decode to one scalar.
        let v = parse_json_value(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            r#"{"a"}"#,
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            "[1,]",
            "01x",
            "1.",
            "1e",
            "tru",
            r#""\q""#,
            r#""\ud800""#,
            r#"{"a":1} extra"#,
            "nan",
        ] {
            assert!(parse_json_value(bad).is_err(), "accepted {bad:?}");
        }
        assert!(parse_json_object("[1,2]").is_err());
        // The depth bound trips before the stack does.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse_json_value(&deep).is_err());
    }
}
