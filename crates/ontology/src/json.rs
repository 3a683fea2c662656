//! A minimal JSON value type, a borrowing pull reader, and a push writer.
//!
//! The build environment has no crates.io access, so the server's WAL,
//! its protocol frames and `oassis-core`'s wire ops and cache entries
//! go through this hand-rolled implementation instead of `serde_json`.
//! It supports the full JSON grammar; numbers are kept as `f64`, which
//! is exact for every id (`u32`) and support value this workspace
//! stores.
//!
//! Every document is written by a [`Writer`], which pushes typed values
//! straight into the text and builds no tree: each schema's writer sits
//! beside its reader and emits keys in the order the reader reads them.
//! `Json`'s [`Display`](fmt::Display) walks a tree through the same
//! writer, so the number and escape spelling exists once.
//!
//! A document is read one of two ways. [`parse`] builds a [`Json`] tree
//! (protocol frames). A [`Reader`] pulls typed values straight off the
//! text and builds no tree: the server's WAL decodes every record with
//! it. `parse` is built on the reader, so the string, escape, number
//! and literal grammar exists once.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

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
/// or a missing field) carries none. [`Self::is_syntax`] tells them apart,
/// and [`Self::is_too_deep`] picks out the shape error of nesting past
/// [`MAX_DEPTH`].
#[derive(Debug, Clone)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    kind: ErrorKind,
}

#[derive(Debug, Clone, Copy)]
enum ErrorKind {
    /// Not JSON; reading stopped at this byte offset.
    Syntax(usize),
    Shape,
    /// A shape error: nested past [`MAX_DEPTH`].
    TooDeep,
}

impl JsonError {
    /// A shape error raised while interpreting a well-formed value.
    pub fn shape(msg: impl Into<String>) -> Self {
        JsonError {
            msg: msg.into(),
            kind: ErrorKind::Shape,
        }
    }

    /// The shape error of an array or object nested past [`MAX_DEPTH`].
    pub fn too_deep() -> Self {
        JsonError {
            msg: format!("nested deeper than {MAX_DEPTH} levels"),
            kind: ErrorKind::TooDeep,
        }
    }

    /// The shape error of a required object field that is absent.
    pub fn missing(name: &str) -> Self {
        JsonError::shape(format!("missing field {name:?}"))
    }

    /// Whether the text was not JSON at all, as opposed to JSON of the
    /// wrong shape.
    pub fn is_syntax(&self) -> bool {
        matches!(self.kind, ErrorKind::Syntax(_))
    }

    /// Whether reading stopped at the [`MAX_DEPTH`] nesting bound.
    pub fn is_too_deep(&self) -> bool {
        matches!(self.kind, ErrorKind::TooDeep)
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ErrorKind::Syntax(at) => write!(f, "{} at byte {at}", self.msg),
            ErrorKind::Shape | ErrorKind::TooDeep => write!(f, "{}", self.msg),
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

    /// The boolean value, or a shape error.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::shape(format!(
                "expected bool, got {}",
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
        f.write_str(&write(|w| w.tree(self)))
    }
}

/// A push writer of one JSON document: the mirror of [`Reader`].
///
/// Each method writes one value. An object's keys go through
/// [`Self::fields`] in the order its reader reads them, an array's
/// elements through [`Self::items`], and a single-variant object through
/// [`Self::variant`]. It writes no whitespace, and spells each number and
/// string one way, so a value has exactly one text: the bytes the WAL's
/// crc covers.
#[derive(Debug)]
pub struct Writer {
    out: String,
}

impl Writer {
    fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes a number: an integral value below 1e15 in magnitude as
    /// integer digits, any other with `{:?}`, the shortest text that
    /// reads back to the same `f64`.
    pub fn f64(&mut self, n: f64) {
        if n.fract() == 0.0 && n.abs() < 1e15 {
            self.put(format_args!("{}", n as i64));
        } else {
            self.put(format_args!("{n:?}"));
        }
    }

    /// Writes a `u32`, as [`Reader::u32`] reads it.
    pub fn u32(&mut self, n: u32) {
        self.put(format_args!("{n}"));
    }

    /// Writes an integer as the number `n as f64`, which
    /// [`Reader::exact_u64`] reads back for any `n` up to
    /// [`MAX_EXACT_INT`].
    pub fn exact_u64(&mut self, n: u64) {
        self.f64(n as f64);
    }

    /// Writes a string: `"` and `\` escaped, `\n`, `\r` and `\t` by their
    /// short escapes, any other control character as `\u00XX`.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => self.put(format_args!("\\u{:04x}", c as u32)),
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// Writes `null` for `None`, and any other value with `write`.
    pub fn opt<T>(&mut self, v: Option<T>, write: impl FnOnce(&mut Self, T)) {
        match v {
            Some(v) => write(self, v),
            None => self.null(),
        }
    }

    /// Writes an array, each element with `write`.
    pub fn vec<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut write: impl FnMut(&mut Self, T),
    ) {
        self.items(|i| {
            for v in items {
                write(i.item(), v);
            }
        });
    }

    /// Writes an object whose keys `write` names, in order, through
    /// [`Members::next`].
    pub fn fields(&mut self, write: impl FnOnce(&mut Members<'_>)) {
        self.seq('{', '}', write);
    }

    /// Writes an array whose elements `write` writes, in order, through
    /// [`Members::item`].
    pub fn items(&mut self, write: impl FnOnce(&mut Members<'_>)) {
        self.seq('[', ']', write);
    }

    /// Writes a single-variant object, `{"Tag": {…}}`: `write` writes the
    /// inner object's keys.
    pub fn variant(&mut self, tag: &str, write: impl FnOnce(&mut Members<'_>)) {
        self.fields(|k| k.next(tag).fields(write));
    }

    fn seq(&mut self, open: char, close: char, write: impl FnOnce(&mut Members<'_>)) {
        self.out.push(open);
        write(&mut Members {
            w: self,
            started: false,
        });
        self.out.push(close);
    }

    fn put(&mut self, args: fmt::Arguments<'_>) {
        // writing to a `String` cannot fail
        let _ = self.out.write_fmt(args);
    }

    /// Writes a tree.
    fn tree(&mut self, j: &Json) {
        match j {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Num(n) => self.f64(*n),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => self.vec(items, Writer::tree),
            Json::Obj(fields) => self.fields(|k| {
                for (key, v) in fields {
                    k.next(key).tree(v);
                }
            }),
        }
    }
}

/// The text of the one value `f` writes: a WAL record body, a protocol
/// frame or a test's fragment of either.
pub fn write(f: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer { out: String::new() };
    f(&mut w);
    w.out
}

/// The members of one object or array, written in order: the handle
/// [`Writer::fields`], [`Writer::items`] and [`Writer::variant`] lend
/// their caller.
pub struct Members<'w> {
    w: &'w mut Writer,
    /// Whether a member was written, so the next one follows a `,`.
    started: bool,
}

impl Members<'_> {
    /// Writes the next member's key, `name`; the caller writes its value
    /// with the writer returned.
    pub fn next(&mut self, name: &str) -> &mut Writer {
        let w = self.item();
        w.str(name);
        w.out.push(':');
        w
    }

    /// Writes the next member like [`Self::next`], or nothing for `None`:
    /// a key [`Seq::optional`] reads last, and only sometimes.
    pub fn optional<T>(&mut self, name: &str, v: Option<T>, write: impl FnOnce(&mut Writer, T)) {
        if let Some(v) = v {
            write(self.next(name), v);
        }
    }

    /// Starts the next array element; the caller writes it with the
    /// writer returned.
    pub fn item(&mut self) -> &mut Writer {
        if self.started {
            self.w.out.push(',');
        }
        self.started = true;
        self.w
    }
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
/// A decoder reads an object's keys in the one order its writer emits
/// them ([`Self::fields`]), and an array's elements by position
/// ([`Self::items`]). A type check fails with a shape error before it
/// consumes anything; a shape error deeper inside a value leaves the
/// cursor there, so a caller that must tell a document that is not JSON
/// from one of the wrong shape scans it again with [`Self::skip`]. Any
/// error leaves the reader unusable.
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

    /// Reads an object, calling `f` with each key in document order; `f`
    /// must consume exactly the key's value. The tree and the skip read
    /// any object this way; a decoder reads its keys with [`Self::fields`].
    fn obj(
        &mut self,
        mut f: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.fields(|k| {
            while let Some(key) = k.member()? {
                f(k.r, key)?;
            }
            Ok(())
        })
    }

    /// Reads an array, calling `f` once per element; `f` must consume
    /// exactly that element.
    fn arr(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        // every element is read, so the length error never arises
        self.items("", |i| {
            while i.step()? {
                f(i.r)?;
            }
            Ok(())
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

    /// Reads an object whose keys the caller names, in order, through
    /// [`Seq::next`]: a key out of that order, unknown or repeated, and a
    /// key left over when `read` is done, is a shape error naming it.
    pub fn fields<T>(
        &mut self,
        read: impl FnOnce(&mut Seq<'_, 'a>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        self.seq(Kind::Obj, "", read)
    }

    /// Reads an array whose elements the caller reads, in order, through
    /// [`Seq::item`]: too few or too many elements is a shape error,
    /// "expected {what}".
    pub fn items<T>(
        &mut self,
        what: &str,
        read: impl FnOnce(&mut Seq<'_, 'a>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        self.seq(Kind::Arr, what, read)
    }

    /// Reads a single-variant object, `{"Tag": {…}}`: `read` gets the
    /// tag and reads the inner object's keys.
    pub fn variant<T>(
        &mut self,
        read: impl FnOnce(&str, &mut Seq<'_, 'a>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        self.fields(|k| {
            let tag = k
                .member()?
                .ok_or_else(|| JsonError::shape("expected a variant tag"))?;
            k.r.fields(|k| read(&tag, k))
        })
    }

    /// Reads an object or array whose members `read` reads in order,
    /// then checks that none is left.
    fn seq<T>(
        &mut self,
        kind: Kind,
        what: &str,
        read: impl FnOnce(&mut Seq<'_, 'a>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        self.expect_kind(kind)?;
        self.nested(|r| {
            r.pos += 1;
            let mut seq = Seq {
                r,
                close: if kind == Kind::Obj { b'}' } else { b']' },
                started: false,
                what,
            };
            let out = read(&mut seq)?;
            let left_over = match kind {
                Kind::Obj => seq
                    .member()?
                    .map(|key| JsonError::shape(format!("unexpected key {key:?}"))),
                _ => seq.step()?.then(|| wrong_len(what)),
            };
            if let Some(e) = left_over {
                return Err(e);
            }
            seq.r.pos += 1;
            Ok(out)
        })
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

    /// Reads `null` as `None`, and any other value with `read`.
    pub fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Option<T>, JsonError> {
        if self.kind()? != Kind::Null {
            return read(self).map(Some);
        }
        self.literal("null")?;
        Ok(None)
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
    fn nested<T>(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::too_deep());
        }
        self.depth += 1;
        let out = body(self);
        self.depth -= 1;
        out
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_owned(),
            kind: ErrorKind::Syntax(self.pos),
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

/// The members of one object or array, read in order: the handle
/// [`Reader::fields`], [`Reader::items`] and [`Reader::variant`] lend
/// their caller.
pub struct Seq<'r, 'a> {
    r: &'r mut Reader<'a>,
    /// The byte that closes the value: `}` or `]`.
    close: u8,
    /// Whether a member was read, so the next one follows a `,`.
    started: bool,
    /// What an array must be, for its length error.
    what: &'r str,
}

impl<'a> Seq<'_, 'a> {
    /// Reads the next member, whose key must be `name`, with `read`.
    pub fn next<T>(
        &mut self,
        name: &str,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        self.optional(name, read)?
            .ok_or_else(|| JsonError::missing(name))
    }

    /// Reads the next member like [`Self::next`], or `None` if the object
    /// ends here: a key the writer emits last, and only sometimes.
    pub fn optional<T>(
        &mut self,
        name: &str,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
    ) -> Result<Option<T>, JsonError> {
        match self.member()? {
            None => Ok(None),
            Some(key) if key == name => read(self.r).map(Some),
            Some(key) => Err(JsonError::shape(format!(
                "expected key {name:?}, got {key:?}"
            ))),
        }
    }

    /// Reads the next array element with `read`.
    pub fn item<T>(
        &mut self,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        if !self.step()? {
            return Err(wrong_len(self.what));
        }
        read(self.r)
    }

    /// Steps to the next member, past its `,` unless it is the first;
    /// `false` at the closing byte, which is left unread.
    fn step(&mut self) -> Result<bool, JsonError> {
        self.r.skip_ws();
        if self.r.peek() == Some(self.close) {
            return Ok(false);
        }
        if self.started {
            self.r.byte(b',')?;
        }
        self.started = true;
        Ok(true)
    }

    /// Reads the next member's key and the `:` after it, or `None` at
    /// the end of the object.
    fn member(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.step()? {
            return Ok(None);
        }
        self.r.skip_ws();
        let key = self.r.string()?;
        self.r.skip_ws();
        self.r.byte(b':')?;
        Ok(Some(key))
    }
}

fn wrong_len(what: &str) -> JsonError {
    JsonError::shape(format!("expected {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The writer's text of each number and string: the spelling of
    /// every WAL record and frame, captured from the tree printer the
    /// writer replaced. Each reads back to its value.
    #[test]
    fn the_writer_spells_numbers_and_strings_as_captured() {
        let numbers = [
            (0.0, "0"),
            // an integral zero prints as integer digits, sign dropped
            (-0.0, "0"),
            (1.0 / 3.0, "0.3333333333333333"),
            (0.25, "0.25"),
            (12.5, "12.5"),
            (1e-300, "1e-300"),
            (f64::MAX, "1.7976931348623157e308"),
            (999_999_999_999_999.0, "999999999999999"),
            (1e15, "1000000000000000.0"),
            (MAX_EXACT_INT as f64, "9007199254740992.0"),
            (u32::MAX as f64, "4294967295"),
        ];
        for (n, text) in numbers {
            assert_eq!(write(|w| w.f64(n)), text, "{n:?}");
            assert_eq!(Json::Num(n).to_string(), text, "{n:?}");
            assert_eq!(Reader::new(text).f64().unwrap(), n, "{text}");
        }
        let ints = write(|w| {
            w.items(|i| {
                i.item().u32(u32::MAX);
                i.item().exact_u64(MAX_EXACT_INT);
                i.item().exact_u64(7);
            })
        });
        assert_eq!(ints, "[4294967295,9007199254740992.0,7]");
        let strings = [
            ("\"", r#""\"""#),
            ("\\", r#""\\""#),
            ("\n", r#""\n""#),
            ("\r", r#""\r""#),
            ("\t", r#""\t""#),
            ("\u{1}", r#""\u0001""#),
            ("\u{1f}", r#""\u001f""#),
            ("/", r#""/""#),
            ("é", r#""é""#),
            ("東", r#""東""#),
            ("🦀", r#""🦀""#),
            ("a\"b\\c\nd\u{1}é東🦀/", r#""a\"b\\c\nd\u0001é東🦀/""#),
        ];
        for (s, text) in strings {
            assert_eq!(write(|w| w.str(s)), text, "{s:?}");
            assert_eq!(Json::Str(s.into()).to_string(), text, "{s:?}");
            assert_eq!(Reader::new(text).str().unwrap(), s, "{text}");
        }
    }

    /// Objects, arrays, variants and `null`s nest as the reader reads
    /// them, with no whitespace, and a tree prints the same text.
    #[test]
    fn the_writer_nests_as_the_reader_reads() {
        let text = write(|w| {
            w.fields(|k| {
                k.next("a").u32(1);
                k.next("list")
                    .vec([Some(0.25), None], |w, v| w.opt(v, Writer::f64));
                k.next("v").variant("Tag", |k| k.next("ok").bool(true));
                k.next("empty").variant("None", |_| {});
                k.optional("absent", None::<u32>, Writer::u32);
                k.optional("last", Some("x"), Writer::str);
            })
        });
        assert_eq!(
            text,
            r#"{"a":1,"list":[0.25,null],"v":{"Tag":{"ok":true}},"empty":{"None":{}},"last":"x"}"#
        );
        assert_eq!(parse(&text).unwrap().to_string(), text);
        let mut r = Reader::new(&text);
        let read = r
            .fields(|k| {
                Ok((
                    k.next("a", Reader::u32)?,
                    k.next("list", |r| r.vec(|r| r.opt(Reader::f64)))?,
                    k.next("v", |r| {
                        r.variant(|tag, k| Ok((tag.to_string(), k.next("ok", Reader::bool)?)))
                    })?,
                    k.next("empty", |r| r.variant(|tag, _| Ok(tag.to_string())))?,
                    k.optional("last", Reader::str)?.map(Cow::into_owned),
                ))
            })
            .unwrap();
        r.end().unwrap();
        assert_eq!(
            read,
            (
                1,
                vec![Some(0.25), None],
                ("Tag".to_string(), true),
                "None".to_string(),
                Some("x".to_string())
            )
        );
    }

    #[test]
    fn exact_integers_are_the_lossless_range_only() {
        for v in [0u64, 1, 7, MAX_EXACT_INT] {
            let text = write(|w| w.exact_u64(v));
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
                        if r.kind()? == Kind::Bool {
                            assert!(r.bool()?);
                        } else {
                            seen.push(r.opt(Reader::u32)?);
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
    fn fields_and_items_read_members_in_the_writers_order() {
        let pair = |t: &str| {
            let mut r = Reader::new(t);
            let v =
                r.fields(|k| Ok((k.next("a", Reader::u32)?, k.optional("b", Reader::bool)?)))?;
            r.end().map(|()| v)
        };
        assert_eq!(pair(r#"{"a":1,"b":true}"#).unwrap(), (1, Some(true)));
        assert_eq!(pair(r#" { "a" : 1 } "#).unwrap(), (1, None));
        // a key out of order, unknown, repeated, missing or left over is
        // a shape error naming it
        for (bad, msg) in [
            (r#"{"b":true,"a":1}"#, r#"expected key "a", got "b""#),
            (r#"{"z":0,"a":1}"#, r#"expected key "a", got "z""#),
            (r#"{"a":1,"a":2}"#, r#"expected key "b", got "a""#),
            (r#"{"a":1,"b":true,"c":null}"#, r#"unexpected key "c""#),
            ("{}", r#"missing field "a""#),
            ("[1]", "expected object, got array"),
        ] {
            let err = pair(bad).unwrap_err();
            assert!(!err.is_syntax(), "{bad}: {err}");
            assert_eq!(err.msg, msg, "{bad}");
        }
        // broken syntax stays a syntax error
        for bad in [
            r#"{"a":1,}"#,
            r#"{"a" 1}"#,
            r#"{"a":1"#,
            r#"{"a":1 "b":true}"#,
        ] {
            assert!(pair(bad).unwrap_err().is_syntax(), "{bad}");
        }
        let triple = |t: &str| {
            Reader::new(t).items("a triple", |i| {
                Ok([
                    i.item(Reader::u32)?,
                    i.item(Reader::u32)?,
                    i.item(Reader::u32)?,
                ])
            })
        };
        assert_eq!(triple("[1, 2,3 ]").unwrap(), [1, 2, 3]);
        for bad in ["[1,2]", "[1,2,3,4]", "[]"] {
            assert_eq!(triple(bad).unwrap_err().msg, "expected a triple", "{bad}");
        }
        // a variant tag is any one key, over an object of its own keys
        let variant = |t: &str| {
            Reader::new(t).variant(|tag, k| Ok((tag.to_string(), k.next("v", Reader::u32)?)))
        };
        assert_eq!(variant(r#"{"X":{"v":7}}"#).unwrap(), ("X".to_string(), 7));
        assert_eq!(variant("{}").unwrap_err().msg, "expected a variant tag");
        assert_eq!(
            variant(r#"{"X":{"v":7},"Y":{}}"#).unwrap_err().msg,
            r#"unexpected key "Y""#
        );
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
    fn multibyte_runs_and_escapes_mix_in_one_string() {
        let s = "\"東京\"\\café\n\t≤E\u{1}🦀/\r\"";
        let text = write(|w| w.str(s));
        assert_eq!(Reader::new(&text).str().unwrap(), s, "{text}");
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
            assert!(err.is_too_deep() && !err.is_syntax(), "{err}");
            assert!(err.msg.contains("nested"), "{err}");
            assert!(Reader::new(&text).skip().is_err());
        }
        // the bound counts open values, not values read: siblings at
        // the bound still read, and a failed read leaves the count right
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1); 3].join(","));
        assert!(parse(&wide).is_ok());
        let mut r = Reader::new(&wide);
        assert!(r.vec(Reader::u32).is_err());
        assert_eq!(r.depth, 0);
    }
}
