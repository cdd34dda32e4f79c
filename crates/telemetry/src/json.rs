//! The workspace's one JSON codec: a parser for a small RFC 8259 subset
//! plus the [`escape`] and [`emit_f64`] helpers. The gateway parses request
//! bodies with it; the run report, lint JSON/SARIF and Chrome-trace
//! emitters keep their own format strings and escape through it; tests
//! parse those outputs back with it.
//!
//! Numbers are split at lex time: a literal with no `.`/`e` that fits a
//! `u64` becomes [`Json::Int`], everything else [`Json::Num`]. Request
//! fields like instruction budgets therefore never round-trip through
//! `f64` (no truncating casts, exact u64 range).
//!
//! Request bodies are untrusted, so parsing is linear in the input and
//! nesting deeper than `MAX_DEPTH` is an error, not a stack overflow.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Non-negative integer that fits `u64` (no sign, fraction, exponent).
    Int(u64),
    /// Any other number.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object with source-order-independent (sorted) key access.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Escape a string per RFC 8259.
pub fn escape(s: &str) -> String {
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

/// Emit a float deterministically: Rust's shortest round-trip `Display`,
/// with non-finite values mapped to `null` (JSON has no NaN/inf).
pub fn emit_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Deepest array/object nesting [`parse`] accepts. The deepest document
/// the workspace writes, the SARIF log, nests 9.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
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

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// One value, `depth` containers below the document root.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek()? {
            b'{' | b'[' if depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos))
            }
            b'{' => self.object(depth + 1),
            b'[' => self.array(depth + 1),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!("unexpected '{}' at byte {}", other as char, self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value(depth)?;
            if map.insert(key.clone(), val).is_some() {
                return Err(format!("duplicate key \"{key}\""));
            }
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                other => return Err(format!("expected ',' or '}}', got '{}'", other as char)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value(depth)?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                other => return Err(format!("expected ',' or ']', got '{}'", other as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy up to the next quote or backslash in one slice. Both are
            // ASCII and every escape is ASCII, so runs start and end on char
            // boundaries of `text`.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| matches!(b, b'"' | b'\\'))
                .ok_or_else(|| "unterminated string".to_string())?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let e = *self.bytes.get(self.pos).ok_or_else(|| "unterminated escape".to_string())?;
            self.pos += 1;
            match e {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| "truncated \\u escape".to_string())?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u escape: {e}"))?;
                    self.pos += 4;
                    // Surrogate pairs are out of scope for config payloads;
                    // reject rather than mis-decode.
                    out.push(
                        char::from_u32(code).ok_or_else(|| "surrogate \\u escape".to_string())?,
                    );
                }
                other => return Err(format!("bad escape '\\{}'", other as char)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        let mut integral = true;
        if self.bytes.get(self.pos) == Some(&b'-') {
            integral = false;
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number \"{text}\": {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"workload":"mcf","instructions":4000,"opts":{"cxl_ns":70.5,"flag":true},"mix":["a","b"],"none":null}"#;
        let v = parse(doc).unwrap();
        let Json::Obj(o) = &v else { panic!("object") };
        assert_eq!(o["workload"].as_str(), Some("mcf"));
        assert_eq!(o["instructions"].as_u64(), Some(4000));
        let Json::Obj(opts) = &o["opts"] else { panic!("object") };
        assert_eq!(opts["cxl_ns"].as_f64(), Some(70.5));
        assert_eq!(opts["flag"].as_bool(), Some(true));
        assert_eq!(o["mix"], Json::Arr(vec![Json::Str("a".into()), Json::Str("b".into())]));
        assert_eq!(o["none"], Json::Null);
    }

    #[test]
    fn integers_stay_exact_and_floats_split_off() {
        let v = parse("[18446744073709551615, 1.5, -3, 2e3]").unwrap();
        assert_eq!(
            v,
            Json::Arr(vec![
                Json::Int(u64::MAX),
                Json::Num(1.5),
                Json::Num(-3.0),
                Json::Num(2000.0)
            ])
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("{\"a\":1,\"a\":2}").is_err(), "duplicate keys are ambiguous");
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{41}"));
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let nest = |open: &str, close: &str, n| format!("{}1{}", open.repeat(n), close.repeat(n));
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest("{\"a\":", "}", MAX_DEPTH)).is_ok());
        for doc in [nest("[", "]", MAX_DEPTH + 1), nest("{\"a\":", "}", MAX_DEPTH + 1)] {
            let err = parse(&doc).expect_err("too deep");
            assert!(err.contains("nesting"), "{err}");
        }
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "bounds the parser's host time on a long string")]
    fn a_one_mib_string_parses_in_linear_time() {
        use std::time::{Duration, Instant};
        let doc = format!("\"{}\"", "é\\n".repeat(1 << 18));
        let start = Instant::now();
        let v = parse(&doc).unwrap();
        let took = start.elapsed();
        assert_eq!(v.as_str(), Some("é\n".repeat(1 << 18).as_str()));
        assert!(took < Duration::from_secs(1), "a 1 MiB string took {took:?}");
    }

    #[test]
    fn float_emission_is_shortest_round_trip() {
        assert_eq!(emit_f64(0.1), "0.1");
        assert_eq!(emit_f64(2.0), "2");
        assert_eq!(emit_f64(f64::NAN), "null");
    }
}
