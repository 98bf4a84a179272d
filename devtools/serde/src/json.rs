//! Streaming JSON: the [`Writer`] every [`Serialize`] impl writes into
//! and the [`Reader`] every [`Deserialize`] impl reads from — the shim's
//! stand-in for `serde_json`.
//!
//! Two output forms:
//!
//! * [`to_string`] — compact (`{"a":1}`), the newline-delimited wire form;
//! * [`to_string_pretty`] — two-space indent, object keys in the order
//!   written, empty containers inline. Byte-identical to the hand-rolled
//!   writer the diagnostics renderers used before this crate existed, so
//!   the `--format json` / SARIF golden files are unchanged.
//!
//! The reader ([`from_str`]) is a strict JSON parser driven by the type
//! being read: it borrows the input, allocates each `String` it returns
//! once, and refuses input nested deeper than [`MAX_DEPTH`] with an
//! [`Error`] rather than recursing without bound. [`value_from_str`]
//! reads the dynamic [`Value`] tree.
//!
//! The small [`Writer`] and [`Reader`] methods are `#[inline]`: derived
//! code in other crates calls them once per field and array element, and
//! without the attribute each would stay a cross-crate call.

use crate::{Deserialize, Error, Serialize, Value};
use std::borrow::Cow;
use std::fmt::Write as _;

/// The deepest nesting of arrays and objects the [`Reader`] accepts.
/// No wire type nests more than a handful of levels; the cap keeps a
/// hostile line from exhausting the stack.
pub const MAX_DEPTH: usize = 128;

/// Serializes `value` as compact JSON (no whitespace).
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut w = Writer::compact();
    value.serialize(&mut w);
    w.into_string()
}

/// Serializes `value` as pretty JSON (two-space indent, no trailing
/// newline).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    let mut w = Writer::pretty();
    value.serialize(&mut w);
    w.into_string()
}

/// Parses JSON text as one `T`; anything after it but whitespace is an
/// error.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut r = Reader::new(text);
    let value = T::deserialize(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Parses JSON text into a [`Value`] tree.
pub fn value_from_str(text: &str) -> Result<Value, Error> {
    from_str(text)
}

// ---------------------------------------------------------------------------
// Writer

/// A JSON text under construction, compact or pretty.
///
/// Containers open with [`begin_object`](Self::begin_object) /
/// [`begin_array`](Self::begin_array) and close with the matching `end_*`;
/// inside them, [`key`](Self::key) (or [`field`](Self::field)) and
/// [`element`](Self::element) place the separators and indentation before
/// each member, and the scalar methods write one value.
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
    /// The innermost open container has no member yet.
    empty: bool,
}

impl Writer {
    /// A writer of compact JSON.
    pub fn compact() -> Self {
        Writer {
            out: String::new(),
            pretty: false,
            depth: 0,
            empty: false,
        }
    }

    /// A writer of pretty JSON (see [`to_string_pretty`]).
    pub fn pretty() -> Self {
        Writer {
            pretty: true,
            ..Writer::compact()
        }
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Opens an object.
    #[inline]
    pub fn begin_object(&mut self) {
        self.open(b'{');
    }

    /// Closes the innermost object.
    #[inline]
    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    /// Opens an array.
    #[inline]
    pub fn begin_array(&mut self) {
        self.open(b'[');
    }

    /// Closes the innermost array.
    #[inline]
    pub fn end_array(&mut self) {
        self.close(b']');
    }

    /// Starts the next object member: the separator, then `"key":`. The
    /// member's value is written next.
    #[inline]
    pub fn key(&mut self, key: &str) {
        self.element();
        self.str(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Writes one object member.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.serialize(self);
    }

    /// Starts the next array element (or, through [`key`](Self::key),
    /// object member): the separator and, when pretty, the line break.
    /// The element is written next.
    #[inline]
    pub fn element(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        if self.pretty {
            self.newline();
        }
    }

    /// Writes `null`.
    #[inline]
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    #[inline]
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes a non-negative integer.
    pub fn u64(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }

    /// Writes an integer.
    pub fn i64(&mut self, n: i64) {
        if n < 0 {
            self.out.push('-');
        }
        self.u64(n.unsigned_abs());
    }

    /// Writes a float with Rust's shortest round-trip formatting. JSON has
    /// no NaN or infinity: a non-finite float writes `null`, as
    /// `serde_json` does.
    pub fn f64(&mut self, f: f64) {
        if f.is_finite() {
            write!(self.out, "{f}").expect("writing to a String cannot fail");
        } else {
            self.null();
        }
    }

    /// Writes a string, escaping `"`, `\` and the control characters.
    /// Runs of plain characters are copied whole.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        let mut run = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let escaped = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&s[run..i]);
            if escaped.is_empty() {
                write!(self.out, "\\u{b:04x}").expect("writing to a String cannot fail");
            } else {
                self.out.push_str(escaped);
            }
            run = i + 1;
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }

    #[inline]
    fn open(&mut self, bracket: u8) {
        self.out.push(char::from(bracket));
        self.depth += 1;
        self.empty = true;
    }

    #[inline]
    fn close(&mut self, bracket: u8) {
        self.depth -= 1;
        if self.pretty && !self.empty {
            self.newline();
        }
        self.out.push(char::from(bracket));
        // The container just closed is a member of its parent.
        self.empty = false;
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }
}

// ---------------------------------------------------------------------------
// Reader

/// A cursor over one JSON text, read value by value by the type being
/// deserialized.
///
/// Objects are read with [`begin_object`](Self::begin_object) and then
/// [`next_key`](Self::next_key) until it returns `None`, reading (or
/// [skipping](Self::skip_value)) one value after each key; arrays with
/// [`begin_array`](Self::begin_array) and
/// [`next_element`](Self::next_element). Every method skips leading
/// whitespace.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// The innermost open container has not been asked for a member yet.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    /// Errors unless only whitespace remains.
    pub fn finish(mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(Error::new(format!(
                "trailing data at byte {} of JSON text",
                self.pos
            )))
        }
    }

    /// The next byte after whitespace, not consumed.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    /// The error for a byte that starts no JSON value.
    pub fn unexpected(&self) -> Error {
        Error::new(format!("unexpected JSON at byte {}", self.pos))
    }

    /// Consumes `null` if it comes next.
    #[inline]
    pub fn null(&mut self) -> bool {
        self.skip_ws();
        self.eat_keyword("null")
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, Error> {
        self.skip_ws();
        if self.eat_keyword("true") {
            Ok(true)
        } else if self.eat_keyword("false") {
            Ok(false)
        } else {
            Err(Error::new("expected bool"))
        }
    }

    /// Reads a non-negative integer.
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.skip_ws();
        // Fast path: plain digits that fit, not followed by a fraction or
        // an exponent. Anything else takes the general number path.
        let bytes = self.text.as_bytes();
        let mut at = self.pos;
        let mut n: u64 = 0;
        while let Some(&b @ b'0'..=b'9') = bytes.get(at) {
            match n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(b - b'0')))
            {
                Some(next) => n = next,
                None => return self.typed_number("expected non-negative integer", Value::as_u64),
            }
            at += 1;
        }
        if at > self.pos && !matches!(bytes.get(at), Some(b'.' | b'e' | b'E')) {
            self.pos = at;
            return Ok(n);
        }
        self.typed_number("expected non-negative integer", Value::as_u64)
    }

    /// Reads an integer.
    pub fn i64(&mut self) -> Result<i64, Error> {
        self.typed_number("expected integer", Value::as_i64)
    }

    /// Reads any number as a float.
    pub fn f64(&mut self) -> Result<f64, Error> {
        self.typed_number("expected number", |v| match *v {
            Value::Float(f) => Some(f),
            Value::Int(n) => Some(n as f64),
            Value::UInt(n) => Some(n as f64),
            _ => None,
        })
    }

    /// Reads a number: non-negative integers as [`Value::UInt`], negative
    /// ones as [`Value::Int`], anything with a fraction or exponent as
    /// [`Value::Float`].
    pub fn number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        if !matches!(self.byte(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.unexpected());
        }
        let start = self.pos;
        self.eat(b'-');
        self.eat_digits();
        let mut fractional = false;
        if self.eat(b'.') {
            fractional = true;
            self.eat_digits();
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.eat_digits();
        }
        let text = &self.text[start..self.pos];
        if !fractional {
            if let Some(rest) = text.strip_prefix('-') {
                if rest.parse::<u64>().is_ok() || text.parse::<i64>().is_ok() {
                    return text
                        .parse::<i64>()
                        .map(Value::Int)
                        .map_err(|_| Error::new(format!("integer `{text}` out of range")));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }

    /// Reads a string as an owned `String`.
    #[inline]
    pub fn string(&mut self) -> Result<String, Error> {
        self.str().map(Cow::into_owned)
    }

    /// Reads a string, borrowing it from the input when it holds no
    /// escape.
    #[inline]
    pub fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(Error::new("expected string"));
        }
        self.string_token()
    }

    /// Opens an object; `ty` names what was expected if none comes next.
    #[inline]
    pub fn begin_object(&mut self, ty: &str) -> Result<(), Error> {
        if self.peek() != Some(b'{') {
            return Err(Error::new(format!("expected map for `{ty}`")));
        }
        self.open()
    }

    /// The key of the next member of the innermost object, its `:`
    /// consumed; `None` once the object has closed.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next_member(b'}')? {
            return Ok(None);
        }
        if self.peek() != Some(b'"') {
            return Err(Error::new(format!("expected `\"` at byte {}", self.pos)));
        }
        let key = self.string_token()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Opens an array.
    #[inline]
    pub fn begin_array(&mut self) -> Result<(), Error> {
        if self.peek() != Some(b'[') {
            return Err(Error::new("expected array"));
        }
        self.open()
    }

    /// Whether the innermost array has another element, which is read
    /// next; `false` once the array has closed.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.next_member(b']')
    }

    /// Reads the value of a field into `slot` unless an earlier
    /// occurrence of the key filled it, in which case this one is only
    /// checked to be JSON. Errors name the field `key` of `ty`.
    pub fn field<T: Deserialize>(
        &mut self,
        slot: &mut Option<T>,
        key: &str,
        ty: &str,
    ) -> Result<(), Error> {
        if slot.is_some() {
            return self.skip_value();
        }
        let value = T::deserialize(self)
            .map_err(|e| Error::new(format!("field `{key}` of `{ty}`: {e}")))?;
        *slot = Some(value);
        Ok(())
    }

    /// Reads one value of any shape and discards it.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'{') => {
                self.open()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            Some(b'[') => {
                self.open()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
            }
            Some(b'"') => {
                self.string_token()?;
            }
            Some(b't' | b'f') => {
                self.bool()?;
            }
            Some(b'-' | b'0'..=b'9') => {
                self.number()?;
            }
            _ if self.null() => {}
            _ => return Err(self.unexpected()),
        }
        Ok(())
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        let mut at = self.pos;
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(at) {
            at += 1;
        }
        self.pos = at;
    }

    #[inline]
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.byte() == Some(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn eat_digits(&mut self) {
        while matches!(self.byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        let hit = self.text.as_bytes()[self.pos..].starts_with(kw.as_bytes());
        if hit {
            self.pos += kw.len();
        }
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                char::from(b),
                self.pos
            )))
        }
    }

    fn typed_number<T>(
        &mut self,
        expected: &str,
        convert: impl FnOnce(&Value) -> Option<T>,
    ) -> Result<T, Error> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(Error::new(expected));
        }
        match convert(&self.number()?) {
            Some(n) => Ok(n),
            None => Err(Error::new(expected)),
        }
    }

    /// Consumes the bracket at the cursor, one level deeper.
    fn open(&mut self) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "JSON nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        self.pos += 1;
        self.first = true;
        Ok(())
    }

    /// Consumes the separator before the next member of the innermost
    /// container, or its `close` bracket (returning `false`).
    #[inline]
    fn next_member(&mut self, close: u8) -> Result<bool, Error> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        if self.eat(close) {
            self.depth -= 1;
            return Ok(false);
        }
        if first || self.eat(b',') {
            return Ok(true);
        }
        Err(Error::new(format!(
            "expected `,` or `{}` at byte {}",
            char::from(close),
            self.pos
        )))
    }

    /// Reads the string whose opening quote is at the cursor: borrowed
    /// when it holds no escape, else decoded into one `String` sized by
    /// the raw text (which no escape's decoding outgrows).
    fn string_token(&mut self) -> Result<Cow<'a, str>, Error> {
        let text = self.text;
        let start = self.pos + 1;
        self.pos = self.plain_run(start);
        let mut out = match self.byte() {
            Some(b'"') => {
                self.pos += 1;
                return Ok(Cow::Borrowed(&text[start..self.pos - 1]));
            }
            Some(b'\\') => {
                let mut out = String::with_capacity(self.raw_end(self.pos) - start);
                out.push_str(&text[start..self.pos]);
                out
            }
            _ => return Err(Error::new("unterminated JSON string")),
        };
        loop {
            match self.byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                _ => return Err(Error::new("unterminated JSON string")),
            }
            let run = self.pos;
            self.pos = self.plain_run(run);
            out.push_str(&text[run..self.pos]);
        }
    }

    /// The end of the run of unescaped string bytes from `at`: the first
    /// quote, backslash or control byte, or the end of the text.
    fn plain_run(&self, at: usize) -> usize {
        let bytes = &self.text.as_bytes()[at..];
        at + bytes
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(bytes.len())
    }

    /// Where the string that continues at `at` ends: its closing quote,
    /// stepping over escaped characters, or the end of the text.
    fn raw_end(&self, mut at: usize) -> usize {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(at) {
            match b {
                b'"' => break,
                b'\\' => at += 2,
                _ => at += 1,
            }
        }
        at.min(bytes.len())
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let esc = self
            .byte()
            .ok_or_else(|| Error::new("unterminated escape"))?;
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
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    if !self.eat_keyword("\\u") {
                        return Err(Error::new("unpaired surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(Error::new("invalid surrogate pair"));
                    }
                    char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                        .ok_or_else(|| Error::new("invalid surrogate pair"))?
                } else {
                    char::from_u32(hi).ok_or_else(|| Error::new("invalid \\u escape"))?
                }
            }
            other => {
                return Err(Error::new(format!(
                    "invalid escape `\\{}`",
                    char::from(other)
                )))
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let hex = self
            .text
            .get(self.pos..end)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let n = u32::from_str_radix(hex, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos = end;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact() {
        let v = Value::Map(vec![
            ("a".into(), Value::UInt(1)),
            (
                "b".into(),
                Value::Seq(vec![Value::Str("x\"y\n".into()), Value::Null]),
            ),
            ("c".into(), Value::Int(-3)),
            ("d".into(), Value::Bool(true)),
        ]);
        let text = to_string(&v);
        assert_eq!(text, r#"{"a":1,"b":["x\"y\n",null],"c":-3,"d":true}"#);
        assert_eq!(value_from_str(&text).unwrap(), v);
    }

    #[test]
    fn pretty_matches_legacy_writer_shape() {
        let v = Value::Map(vec![
            ("tool".into(), Value::Str("shelleyc".into())),
            ("diagnostics".into(), Value::Seq(vec![])),
            (
                "nested".into(),
                Value::Seq(vec![Value::Map(vec![]), Value::UInt(2)]),
            ),
        ]);
        assert_eq!(
            to_string_pretty(&v),
            "{\n  \"tool\": \"shelleyc\",\n  \"diagnostics\": [],\n  \
             \"nested\": [\n    {},\n    2\n  ]\n}"
        );
    }

    #[test]
    fn escapes_and_floats_write_as_before() {
        let text = to_string(&Value::Seq(vec![
            Value::Str("tab\t\u{1}\u{1f}é\\/".into()),
            Value::Float(1.5),
            Value::Float(-0.25e-7),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Int(i64::MIN),
            Value::UInt(u64::MAX),
        ]));
        assert_eq!(
            text,
            "[\"tab\\t\\u0001\\u001fé\\\\/\",1.5,-0.000000025,null,null,\
             -9223372036854775808,18446744073709551615]"
        );
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v = value_from_str(r#"{"s":"A\n\t\"é😀","n":18446744073709551615,"m":-9,"f":1.5}"#)
            .unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "A\n\t\"é😀");
        assert_eq!(v.get("n").unwrap().as_u64().unwrap(), u64::MAX);
        assert_eq!(v.get("m").unwrap().as_i64().unwrap(), -9);
        assert_eq!(v.get("f"), Some(&Value::Float(1.5)));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "{\"a\":",
            "hello",
            "{} trailing",
            "",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "[1 2]",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"raw \n newline\"",
            "-",
            "nul",
            "\"\\ud800\\u0000\"",
            "\"\\ud800\"",
        ] {
            assert!(value_from_str(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn nesting_deeper_than_the_cap_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(value_from_str(&nested(MAX_DEPTH)).is_ok());
        let err = value_from_str(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nested deeper than 128"), "{err}");
        // Far past the cap, on the typed path and through skipped fields.
        let deep = nested(200_000);
        assert!(value_from_str(&deep).is_err());
        assert!(from_str::<Vec<Vec<u64>>>(&deep).is_err());
        let text = format!("{{\"a\":1,\"extra\":{deep}}}");
        let err = from_str::<std::collections::BTreeMap<String, Value>>(&text).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
        let objects = "{\"k\":".repeat(200_000) + "1" + &"}".repeat(200_000);
        assert!(value_from_str(&objects).is_err());
    }

    #[test]
    fn strings_without_escapes_are_borrowed() {
        let mut r = Reader::new(r#"["plain","esc\n"]"#);
        r.begin_array().unwrap();
        assert!(r.next_element().unwrap());
        assert!(matches!(r.str().unwrap(), Cow::Borrowed("plain")));
        assert!(r.next_element().unwrap());
        assert!(matches!(r.str().unwrap(), Cow::Owned(s) if s == "esc\n"));
        assert!(!r.next_element().unwrap());
        r.finish().unwrap();
    }
}
