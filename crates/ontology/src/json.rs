//! A minimal JSON value type, parser and writer.
//!
//! The build environment has no crates.io access, so the snapshot modules
//! (`snapshot` and `oassis-core`'s crowd cache) serialize through
//! this hand-rolled implementation instead of `serde_json`. It supports
//! the full JSON grammar; numbers are kept as `f64`, which is exact for
//! every id (`u32`) and support value this workspace stores.

use std::fmt;

/// The largest integer up to which a JSON number here (an `f64`) holds
/// every integer exactly: 2^53.
pub const MAX_EXACT_INT: u64 = 1 << 53;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse (or shape-validation) failure.
#[derive(Debug, Clone)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset of the failure, when known.
    pub offset: Option<usize>,
}

impl JsonError {
    /// A shape error raised while interpreting an already-parsed value.
    pub fn shape(msg: impl Into<String>) -> Self {
        JsonError {
            msg: msg.into(),
            offset: None,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(at) => write!(f, "{} at byte {at}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// The object's fields, or a shape error.
    pub fn as_obj(&self) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(JsonError::shape(format!(
                "expected object, got {}",
                other.kind()
            ))),
        }
    }

    /// A required object field.
    pub fn field(&self, name: &str) -> Result<&Json, JsonError> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| JsonError::shape(format!("missing field {name:?}")))
    }

    /// The array's elements, or a shape error.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError::shape(format!(
                "expected array, got {}",
                other.kind()
            ))),
        }
    }

    /// The string value, or a shape error.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::shape(format!(
                "expected string, got {}",
                other.kind()
            ))),
        }
    }

    /// The numeric value, or a shape error.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(JsonError::shape(format!(
                "expected number, got {}",
                other.kind()
            ))),
        }
    }

    /// The value as a `u32`, or a shape error.
    pub fn as_u32(&self) -> Result<u32, JsonError> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&n) {
            Ok(n as u32)
        } else {
            Err(JsonError::shape(format!("expected u32, got {n}")))
        }
    }

    /// The value as an integer in `[0, MAX_EXACT_INT]`, or a shape error.
    /// Negative, fractional and larger numbers are rejected, not rounded:
    /// past 2^53 an `f64` no longer holds every integer, so a larger
    /// value could not round-trip through a document.
    pub fn as_exact_u64(&self) -> Result<u64, JsonError> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=MAX_EXACT_INT as f64).contains(&n) {
            Ok(n as u64)
        } else {
            Err(JsonError::shape(format!(
                "expected an integer in [0, 2^53], got {n}"
            )))
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // {:?} prints the shortest representation that parses back to
            // the same f64, so floats round-trip exactly
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => write!(f, "{}", *n as i64),
            Json::Num(n) => write!(f, "{n:?}"),
            Json::Str(s) => write_escaped(f, s),
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
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Parses a JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        src: input,
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

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_owned(),
            offset: Some(self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self
            .peek()
            .ok_or_else(|| self.err("unexpected end of input"))?
        {
            b'n' => {
                if self.eat_lit("null") {
                    Ok(Json::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            b't' => {
                if self.eat_lit("true") {
                    Ok(Json::Bool(true))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            b'f' => {
                if self.eat_lit("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            b'"' => self.string().map(Json::Str),
            b'[' => {
                self.pos += 1;
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
            b'{' => {
                self.pos += 1;
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
                    let val = self.value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // surrogate pairs are not needed by our writers;
                            // reject rather than mis-decode
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unpaired surrogate"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => {
                    // copy the run up to the next quote or escape whole:
                    // both are ASCII, so the run ends on a char boundary
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_nested_document() {
        let doc = Json::Obj(vec![
            ("version".into(), Json::Num(1.0)),
            (
                "items".into(),
                Json::Arr(vec![
                    Json::Str("a \"quoted\" name\nline2".into()),
                    Json::Num(0.25),
                    Json::Num(-3.0),
                    Json::Null,
                    Json::Bool(true),
                ]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        let text = doc.to_string();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for v in [0.1, 1.0 / 3.0, 5.0 / 12.0, f64::MAX, 1e-300, 0.0] {
            let text = Json::Num(v).to_string();
            assert_eq!(parse(&text).unwrap().as_f64().unwrap(), v, "{text}");
        }
    }

    #[test]
    fn exact_integers_are_the_lossless_range_only() {
        for v in [0u64, 1, 7, MAX_EXACT_INT] {
            let text = Json::Num(v as f64).to_string();
            assert_eq!(parse(&text).unwrap().as_exact_u64().unwrap(), v, "{text}");
        }
        // negative, fractional, past 2^53 (here 2^60), not a number
        for bad in ["-1", "1.5", "1152921504606846976", "\"7\""] {
            assert!(parse(bad).unwrap().as_exact_u64().is_err(), "{bad}");
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "{not json",
            "",
            "[1,",
            "{\"a\":}",
            "nul",
            "\"unterminated",
            "1 2",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn unicode_strings_survive() {
        let doc = Json::Str("café ≤E 東京".into());
        assert_eq!(parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn multibyte_runs_and_escapes_mix_in_one_string() {
        let s = "\"東京\"\\café\n\t≤E\u{1}🦀/\r\"";
        let doc = Json::Str(s.into());
        let text = doc.to_string();
        assert_eq!(parse(&text).unwrap(), doc, "{text}");
        // escapes the writer never emits decode between multi-byte runs
        let read = parse(r#""é\/東\u00e9\b\f🦀\u6771""#).unwrap();
        assert_eq!(read, Json::Str("é/東é\u{8}\u{c}🦀東".into()));
        // an escape cut off by the end of input is still an error
        for bad in ["\"東\\", "\"東\\u00\"", "\"東\\x\"", "\"café"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
