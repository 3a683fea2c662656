//! A minimal JSON value type, a borrowing pull reader, and a writer.
//!
//! The build environment has no crates.io access, so the snapshot modules
//! (`snapshot` and `oassis-core`'s crowd cache) serialize through
//! this hand-rolled implementation instead of `serde_json`. It supports
//! the full JSON grammar; numbers are kept as `f64`, which is exact for
//! every id (`u32`) and support value this workspace stores.
//!
//! A document is read one of two ways. [`parse`] builds a [`Json`] tree
//! (protocol frames, ontology snapshots). A [`Reader`] pulls typed values
//! straight off the text and builds no tree: the server's WAL decodes
//! every record with it. `parse` is built on the reader, so the string,
//! escape, number and literal grammar exists once.

use std::borrow::Cow;
use std::fmt;

/// The largest integer up to which a JSON number here (an `f64`) holds
/// every integer exactly: 2^53.
pub const MAX_EXACT_INT: u64 = 1 << 53;

/// The deepest nesting of arrays and objects a [`Reader`] accepts. The
/// deepest document this workspace writes, a WAL `op` body, nests nine
/// levels. A deeper value is a shape error raised before the reader
/// recurses into it, so no input can overflow the reading thread's
/// stack.
pub const MAX_DEPTH: usize = 32;

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
///
/// A *syntax* error (the text is not JSON) carries the byte offset where
/// reading stopped; a *shape* error (well-formed JSON of the wrong type,
/// or a missing field) carries none. [`Self::is_syntax`] tells them apart.
#[derive(Debug, Clone)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset of a syntax error; `None` for a shape error.
    pub offset: Option<usize>,
}

impl JsonError {
    /// A shape error raised while interpreting a well-formed value.
    pub fn shape(msg: impl Into<String>) -> Self {
        JsonError {
            msg: msg.into(),
            offset: None,
        }
    }

    /// The shape error of a required object field that is absent.
    pub fn missing(name: &str) -> Self {
        JsonError::shape(format!("missing field {name:?}"))
    }

    /// Whether the text was not JSON at all, as opposed to JSON of the
    /// wrong shape.
    pub fn is_syntax(&self) -> bool {
        self.offset.is_some()
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
            .ok_or_else(|| JsonError::missing(name))
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
        self.as_f64().and_then(to_u32)
    }

    /// The value as an integer in `[0, MAX_EXACT_INT]`, or a shape error.
    /// Negative, fractional and larger numbers are rejected, not rounded:
    /// past 2^53 an `f64` no longer holds every integer, so a larger
    /// value could not round-trip through a document.
    pub fn as_exact_u64(&self) -> Result<u64, JsonError> {
        self.as_f64().and_then(to_exact_u64)
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

fn to_u32(n: f64) -> Result<u32, JsonError> {
    if n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&n) {
        Ok(n as u32)
    } else {
        Err(JsonError::shape(format!("expected u32, got {n}")))
    }
}

fn to_exact_u64(n: f64) -> Result<u64, JsonError> {
    if n.fract() == 0.0 && (0.0..=MAX_EXACT_INT as f64).contains(&n) {
        Ok(n as u64)
    } else {
        Err(JsonError::shape(format!(
            "expected an integer in [0, 2^53], got {n}"
        )))
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

/// Parses a JSON document into a tree; trailing non-whitespace is an
/// error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut r = Reader::new(input);
    let v = r.tree()?;
    r.end()?;
    Ok(v)
}

/// The type of the value at a reader's cursor, told by its first byte.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Null,
    Bool,
    Num,
    Str,
    Arr,
    Obj,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Bool => "bool",
            Kind::Num => "number",
            Kind::Str => "string",
            Kind::Arr => "array",
            Kind::Obj => "object",
        }
    }
}

/// A borrowing pull reader over one JSON document.
///
/// Each method reads one value at the cursor, after any whitespace, and
/// the caller decides what each value must be: a decoder reads its
/// typed value straight off the text, with no [`Json`] tree between.
/// Strings borrow from the text unless they hold an escape.
///
/// A type check fails with a shape error before it consumes anything. A
/// decoder that fails deeper inside a value leaves the cursor there;
/// [`Self::shaped`] rewinds and skips the whole value, so the rest of
/// the document is still checked for syntax. A syntax error leaves the
/// reader unusable.
///
/// Arrays and objects nest at most [`MAX_DEPTH`] deep; a deeper one is
/// a shape error, whichever method meets it.
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects open at the cursor.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`. The text is UTF-8 by type; a
    /// caller holding bytes checks them as a whole first.
    pub fn new(src: &'a str) -> Reader<'a> {
        Reader {
            src,
            pos: 0,
            depth: 0,
        }
    }

    /// Reads an object, calling `f` with each key in document order. `f`
    /// must consume exactly the key's value: read it, or [`Self::skip`]
    /// it. A repeated key is passed again; the caller decides which wins.
    pub fn obj(
        &mut self,
        mut f: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect_kind(Kind::Obj)?;
        self.nested(|r| {
            r.pos += 1;
            r.skip_ws();
            if r.peek() == Some(b'}') {
                r.pos += 1;
                return Ok(());
            }
            loop {
                r.skip_ws();
                let key = r.string()?;
                r.skip_ws();
                r.byte(b':')?;
                f(r, key)?;
                r.skip_ws();
                match r.peek() {
                    Some(b',') => r.pos += 1,
                    Some(b'}') => {
                        r.pos += 1;
                        return Ok(());
                    }
                    _ => return Err(r.err("expected ',' or '}'")),
                }
            }
        })
    }

    /// Reads an array, calling `f` once per element; `f` must consume
    /// exactly that element.
    pub fn arr(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect_kind(Kind::Arr)?;
        self.nested(|r| {
            r.pos += 1;
            r.skip_ws();
            if r.peek() == Some(b']') {
                r.pos += 1;
                return Ok(());
            }
            loop {
                f(r)?;
                r.skip_ws();
                match r.peek() {
                    Some(b',') => r.pos += 1,
                    Some(b']') => {
                        r.pos += 1;
                        return Ok(());
                    }
                    _ => return Err(r.err("expected ',' or ']'")),
                }
            }
        })
    }

    /// Reads an array, each element with `read`.
    pub fn vec<T>(
        &mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        let mut out = Vec::new();
        self.arr(|r| {
            out.push(read(r)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Reads an array of exactly `N` elements, each with `read`; any
    /// other length is a shape error: "expected {what}".
    pub fn array<T: Copy + Default, const N: usize>(
        &mut self,
        what: &str,
        mut read: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<[T; N], JsonError> {
        let mut out = [T::default(); N];
        let mut slots = out.iter_mut();
        let mut len = 0;
        self.arr(|r| {
            let slot = slots.next().ok_or_else(|| wrong_len(what))?;
            *slot = read(r)?;
            len += 1;
            Ok(())
        })?;
        if len == N {
            Ok(out)
        } else {
            Err(wrong_len(what))
        }
    }

    /// Reads a two-element array, the first element with `first` and the
    /// second with `second`; any other length is a shape error:
    /// "expected {what}".
    pub fn pair<A, B>(
        &mut self,
        what: &str,
        first: impl FnOnce(&mut Self) -> Result<A, JsonError>,
        second: impl FnOnce(&mut Self) -> Result<B, JsonError>,
    ) -> Result<(A, B), JsonError> {
        let (mut first, mut second) = (Some(first), Some(second));
        let (mut a, mut b) = (None, None);
        self.arr(|r| {
            if let Some(read) = first.take() {
                a = Some(read(r)?);
            } else if let Some(read) = second.take() {
                b = Some(read(r)?);
            } else {
                return Err(wrong_len(what));
            }
            Ok(())
        })?;
        a.zip(b).ok_or_else(|| wrong_len(what))
    }

    /// Reads an object and its first `name` member with `read`,
    /// skipping every other member; without `name` it is a shape error.
    pub fn field<T>(
        &mut self,
        name: &str,
        read: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        let mut read = Some(read);
        let mut out = None;
        self.obj(|r, key| match read.take_if(|_| key == name) {
            Some(read) => {
                out = Some(read(r)?);
                Ok(())
            }
            None => r.skip(),
        })?;
        out.ok_or_else(|| JsonError::missing(name))
    }

    /// Reads a string; it borrows from the text unless it holds an
    /// escape.
    pub fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect_kind(Kind::Str)?;
        self.string()
    }

    /// Reads a number.
    pub fn f64(&mut self) -> Result<f64, JsonError> {
        self.expect_kind(Kind::Num)?;
        self.number()
    }

    /// Reads a number that is a `u32`, as [`Json::as_u32`] accepts it.
    pub fn u32(&mut self) -> Result<u32, JsonError> {
        self.f64().and_then(to_u32)
    }

    /// Reads an integer in `[0, MAX_EXACT_INT]`, as
    /// [`Json::as_exact_u64`] accepts it.
    pub fn exact_u64(&mut self) -> Result<u64, JsonError> {
        self.f64().and_then(to_exact_u64)
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        self.expect_kind(Kind::Bool)?;
        let b = self.peek() == Some(b't');
        self.literal(if b { "true" } else { "false" })?;
        Ok(b)
    }

    /// Reads a `null` if one is at the cursor, and says whether it did;
    /// any other value is left for the caller to read.
    pub fn null(&mut self) -> Result<bool, JsonError> {
        if self.kind()? == Kind::Null {
            self.literal("null")?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Reads `null` as `None`, and any other value with `read`.
    pub fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Option<T>, JsonError> {
        if self.null()? {
            Ok(None)
        } else {
            read(self).map(Some)
        }
    }

    /// Skips one value of any type, checking its syntax.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.kind()? {
            Kind::Obj => self.obj(|r, _| r.skip()),
            Kind::Arr => self.arr(Reader::skip),
            Kind::Str => self.string().map(drop),
            Kind::Num => self.number().map(drop),
            Kind::Bool => self.bool().map(drop),
            Kind::Null => self.literal("null"),
        }
    }

    /// Checks that only whitespace is left.
    pub fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters"))
        }
    }

    /// Reads the value at the cursor with `read`, keeping a shape error
    /// as the inner `Err`: the cursor is rewound and the whole value
    /// skipped, so reading goes on past it. A syntax error, in `read` or
    /// in the skip, is the outer `Err`, and so is a value nested past
    /// [`MAX_DEPTH`], which cannot be skipped either.
    pub fn shaped<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Result<T, JsonError>, JsonError> {
        let start = self.pos;
        match read(self) {
            Err(e) if !e.is_syntax() => {
                self.pos = start;
                self.skip()?;
                Ok(Err(e))
            }
            read => read.map(Ok),
        }
    }

    /// Reads the value at the cursor as a tree.
    fn tree(&mut self) -> Result<Json, JsonError> {
        Ok(match self.kind()? {
            Kind::Null => {
                self.literal("null")?;
                Json::Null
            }
            Kind::Bool => Json::Bool(self.bool()?),
            Kind::Num => Json::Num(self.number()?),
            Kind::Str => Json::Str(self.string()?.into_owned()),
            Kind::Arr => Json::Arr(self.vec(Reader::tree)?),
            Kind::Obj => {
                let mut fields = Vec::new();
                self.obj(|r, key| {
                    fields.push((key.into_owned(), r.tree()?));
                    Ok(())
                })?;
                Json::Obj(fields)
            }
        })
    }

    /// Runs `body` one array or object deeper, or fails with a shape
    /// error past [`MAX_DEPTH`] without running it.
    fn nested(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::shape(format!(
                "nested deeper than {MAX_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let out = body(self);
        self.depth -= 1;
        out
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_owned(),
            offset: Some(self.pos),
        }
    }

    fn rest(&self) -> &'a [u8] {
        self.src.as_bytes().get(self.pos..).unwrap_or_default()
    }

    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    fn skip_ws(&mut self) {
        self.pos += self
            .rest()
            .iter()
            .take_while(|&&b| b == b' ' || b == b'\t' || b == b'\n' || b == b'\r')
            .count();
    }

    fn byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    /// The type of the value at the cursor, after whitespace; a byte no
    /// value starts with is a syntax error.
    fn kind(&mut self) -> Result<Kind, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Num),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'{') => Ok(Kind::Obj),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn expect_kind(&mut self, want: Kind) -> Result<(), JsonError> {
        let got = self.kind()?;
        if got == want {
            Ok(())
        } else {
            Err(JsonError::shape(format!(
                "expected {}, got {}",
                want.name(),
                got.name()
            )))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.rest().starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// The run of the text from `start` to the cursor.
    fn since(&self, start: usize) -> Result<&'a str, JsonError> {
        self.src
            .get(start..self.pos)
            .ok_or_else(|| self.err("not on a char boundary"))
    }

    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.byte(b'"')?;
        let mut out = String::new();
        loop {
            // take the run up to the next quote or escape whole: both are
            // ASCII, so the run ends on a char boundary
            let start = self.pos;
            let rest = self.rest();
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            self.pos += run;
            let text = self.since(start)?;
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    // an escape-free string borrows
                    if out.is_empty() {
                        return Ok(Cow::Borrowed(text));
                    }
                    out.push_str(text);
                    return Ok(Cow::Owned(out));
                }
                _ => {
                    out.push_str(text);
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// The char of the escape after a backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = self.hex4()?;
                // a high surrogate and the escaped low one after it
                // name one char (RFC 8259 §7)
                if (0xD800..0xDC00).contains(&code) && self.rest().starts_with(b"\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("unpaired surrogate"));
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))?
            }
            _ => return Err(self.err("invalid escape")),
        })
    }

    /// The code unit of exactly four hex digits after a `\u`.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .rest()
            .get(..4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = hex.iter().try_fold(0u32, |acc, &b| {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            Ok(acc << 4 | digit)
        })?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        let digits = |r: &mut Self| {
            r.pos += r.rest().iter().take_while(|b| b.is_ascii_digit()).count();
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        let text = self.since(start)?;
        text.parse::<f64>().map_err(|_| self.err("invalid number"))
    }
}

fn wrong_len(what: &str) -> JsonError {
    JsonError::shape(format!("expected {what}"))
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
    fn the_reader_reads_typed_values_and_borrows_plain_strings() {
        let text = r#" {"a" : "plain", "b\u0069":"esc\n", "n":[1, 4294967295, null, true]} "#;
        let mut r = Reader::new(text);
        let mut seen = Vec::new();
        r.obj(|r, key| {
            match &*key {
                "a" => assert!(matches!(r.str()?, Cow::Borrowed("plain"))),
                "bi" => assert!(matches!(r.str()?, Cow::Owned(s) if s == "esc\n")),
                _ => {
                    assert!(r.u32().is_err(), "an array is no u32");
                    r.arr(|r| {
                        if r.null()? {
                            seen.push(None);
                        } else if r.kind()? == Kind::Bool {
                            assert!(r.bool()?);
                        } else {
                            seen.push(Some(r.u32()?));
                        }
                        Ok(())
                    })?;
                }
            }
            Ok(())
        })
        .unwrap();
        r.end().unwrap();
        assert_eq!(seen, [Some(1), Some(u32::MAX), None]);
    }

    #[test]
    fn a_type_mismatch_is_a_shape_error_that_consumes_nothing() {
        let mut r = Reader::new(r#""7""#);
        let err = r.u32().unwrap_err();
        assert!(!err.is_syntax(), "{err}");
        assert_eq!(err.msg, "expected number, got string");
        assert_eq!(r.str().unwrap(), "7");
        r.end().unwrap();
        // numbers of the wrong range are shape errors too
        for (text, msg) in [("4294967296", "expected u32"), ("-1", "expected u32")] {
            let err = Reader::new(text).u32().unwrap_err();
            assert!(!err.is_syntax() && err.msg.contains(msg), "{text}: {err}");
        }
        let err = Reader::new("9007199254740994").exact_u64().unwrap_err();
        assert!(!err.is_syntax(), "{err}");
    }

    #[test]
    fn shaped_rewinds_a_deep_shape_error_and_still_checks_syntax() {
        let deep = |r: &mut Reader<'_>| r.field("a", |r| r.vec(Reader::u32));
        let mut r = Reader::new(r#"[{"a":[1,"x"],"b":{}}, 2]"#);
        let mut got = Vec::new();
        r.arr(|r| {
            got.push(r.shaped(deep)?.map_err(|e| e.msg));
            Ok(())
        })
        .unwrap();
        r.end().unwrap();
        // the second element is a number, not an object
        assert_eq!(
            got,
            [
                Err("expected number, got string".to_string()),
                Err("expected object, got number".to_string())
            ]
        );
        // a syntax error behind the shape error still fails the read
        let mut r = Reader::new(r#"{"a":[1,"x"],"b":}"#);
        assert!(r.shaped(deep).unwrap_err().is_syntax());
    }

    #[test]
    fn fixed_arrays_fields_and_pairs_check_their_shape() {
        let arr = |t: &str| Reader::new(t).array::<u32, 3>("a triple", Reader::u32);
        assert_eq!(arr("[1,2,3]").unwrap(), [1, 2, 3]);
        for bad in ["[1,2]", "[1,2,3,4]", "[]"] {
            assert_eq!(arr(bad).unwrap_err().msg, "expected a triple", "{bad}");
        }
        fn pair(t: &str) -> Result<(Cow<'_, str>, bool), JsonError> {
            Reader::new(t).pair("a pair", Reader::str, Reader::bool)
        }
        assert_eq!(pair(r#"["x",true]"#).unwrap(), (Cow::Borrowed("x"), true));
        assert!(pair(r#"["x"]"#).is_err() && pair(r#"["x",true,1]"#).is_err());
        // the first of two equal keys wins; the rest are skipped
        let mut r = Reader::new(r#"{"k":1,"z":[{}],"k":"no"}"#);
        assert_eq!(r.field("k", Reader::u32).unwrap(), 1);
        r.end().unwrap();
        let err = Reader::new(r#"{"j":1}"#)
            .field("k", Reader::u32)
            .unwrap_err();
        assert_eq!(err.msg, "missing field \"k\"");
    }

    #[test]
    fn a_malformed_number_is_a_syntax_error() {
        for (text, want) in [("007", 7.0f64), ("1.", 1.0), ("-0", -0.0), ("1E2", 100.0)] {
            assert_eq!(Reader::new(text).f64().unwrap().to_bits(), want.to_bits());
        }
        for bad in ["-", "1e", "-e1"] {
            assert!(Reader::new(bad).f64().unwrap_err().is_syntax(), "{bad}");
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

    #[test]
    fn a_u_escape_is_exactly_four_hex_digits() {
        assert_eq!(
            parse(r#""\u0041\u00e9\u00E9""#).unwrap(),
            Json::Str("Aéé".into())
        );
        // a sign, a space or a non-ASCII byte is no hex digit
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u004g""#,
            "\"\\u00é\"",
        ] {
            assert!(parse(bad).unwrap_err().is_syntax(), "{bad}");
        }
    }

    #[test]
    fn a_surrogate_pair_is_one_char_and_a_lone_surrogate_an_error() {
        assert_eq!(
            parse(r#""\ud83e\uDD80 \u6771""#).unwrap(),
            Json::Str("🦀 東".into())
        );
        // lone high, lone low, high before a non-low escape, reversed pair
        for bad in [
            r#""\ud83e""#,
            r#""\ud83ex""#,
            r#""\udd80""#,
            r#""\ud83e\u0041""#,
            r#""\ud83e\ud83e""#,
            r#""\udd80\ud83e""#,
        ] {
            assert!(parse(bad).unwrap_err().is_syntax(), "{bad}");
        }
    }

    #[test]
    fn nesting_past_the_bound_is_a_shape_error_that_does_not_recurse() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        for text in [
            nest(MAX_DEPTH + 1),
            "{\"a\":".repeat(MAX_DEPTH + 1),
            // a frame of 200 000 `[`, which once overflowed the stack
            "[".repeat(200_000),
        ] {
            let err = parse(&text).unwrap_err();
            assert!(!err.is_syntax() && err.msg.contains("nested"), "{err}");
            assert!(Reader::new(&text).skip().is_err());
        }
        // the bound counts open values, not values read: siblings at
        // the bound still read, and a failed read leaves the count right
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1); 3].join(","));
        assert!(parse(&wide).is_ok());
        let mut r = Reader::new(&wide);
        assert!(r.shaped(|r| r.vec(Reader::u32)).unwrap().is_err());
        r.end().unwrap();
        assert_eq!(r.depth, 0);
    }
}
