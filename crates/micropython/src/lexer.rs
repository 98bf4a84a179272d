//! Indentation-aware lexer for the MicroPython subset.
//!
//! Follows CPython's tokenizer structure: physical lines are folded into
//! logical lines (implicit joining inside `()[]{}`), leading whitespace
//! drives an indent stack emitting `Indent`/`Dedent` tokens, comments and
//! blank lines are skipped.
//!
//! The lexer writes compact [`Token`]s — a kind and a span, no text —
//! into a buffer the caller owns; the parser passes one kept per thread
//! and reused across files, so lexing allocates nothing once that buffer
//! has grown. Every literal is checked as it is lexed (a malformed number
//! or an unterminated string is a [`LexError`] before any syntax error
//! is), but its value is decoded only when the parser keeps it: the
//! parser reads numbers back with [`int_value`]/[`float_value`] and
//! strings with [`scan_string`], the scanner the lexer itself uses.

use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// A lexical error with its location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Where the error occurred.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl Error for LexError {}

/// Tokenizes `source` into a vector ending with `Eof`.
///
/// # Errors
///
/// Returns a [`LexError`] on malformed input: inconsistent dedents,
/// unterminated strings, tabs in indentation mixing with spaces in a way
/// that cannot be resolved, unexpected characters, or a source longer
/// than `u32::MAX` bytes.
pub fn tokenize(source: &str) -> Result<Vec<Token>, LexError> {
    let mut tokens = Vec::new();
    lex(source, false, &mut tokens, &mut Vec::new())?;
    Ok(tokens)
}

/// Tokenizes `source` totally: every input produces a token stream.
///
/// Malformed pieces degrade instead of erroring — unknown characters are
/// skipped, unterminated strings close at the line (or input) end,
/// inconsistent dedents re-anchor to the nearest level, overflowing
/// numeric literals become `0`, and a source longer than `u32::MAX` bytes
/// is lexed up to there. This is the recovery-mode front door used by
/// [`crate::parse_module_recover`].
pub fn tokenize_recover(source: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    lex(source, true, &mut tokens, &mut Vec::new()).expect("recovery-mode lexing is total");
    tokens
}

/// Lexes `source` into `tokens`, which it clears first, with `indents` as
/// the indent stack; both are scratch the caller may reuse.
pub(crate) fn lex(
    source: &str,
    recover: bool,
    tokens: &mut Vec<Token>,
    indents: &mut Vec<usize>,
) -> Result<(), LexError> {
    let limit = u32::MAX as usize;
    let mut len = source.len();
    if len > limit {
        if !recover {
            return Err(LexError {
                span: Span::new(limit, len),
                message: "source is longer than 4 GiB".to_owned(),
            });
        }
        len = limit;
        while !source.is_char_boundary(len) {
            len -= 1;
        }
    }
    tokens.clear();
    indents.clear();
    indents.push(0);
    Lexer {
        src: &source.as_bytes()[..len],
        pos: 0,
        tokens,
        indents,
        paren_depth: 0,
        at_line_start: true,
        recover,
    }
    .run()
}

struct Lexer<'s, 'b> {
    src: &'s [u8],
    pos: usize,
    tokens: &'b mut Vec<Token>,
    indents: &'b mut Vec<usize>,
    paren_depth: usize,
    at_line_start: bool,
    /// Degrade malformed input instead of erroring.
    recover: bool,
}

/// The text of a numeric literal's digits without its `_` separators,
/// borrowed from the source when it has none.
fn digits(text: &str) -> Cow<'_, str> {
    if text.contains('_') {
        Cow::Owned(text.replace('_', ""))
    } else {
        Cow::Borrowed(text)
    }
}

/// The value of the integer literal `text` (decimal, or `0x`/`0b`/`0o`
/// with its prefix), or `None` when it overflows or has no digits.
fn int_literal(text: &str) -> Option<i64> {
    let bytes = text.as_bytes();
    let radix = match bytes {
        [b'0', b'x' | b'X', ..] => 16,
        [b'0', b'b' | b'B', ..] => 2,
        [b'0', b'o' | b'O', ..] => 8,
        _ => return digits(text).parse().ok(),
    };
    i64::from_str_radix(&digits(&text[2..]), radix).ok()
}

/// The value of the float literal `text`, or `None` when it is malformed.
fn float_literal(text: &str) -> Option<f64> {
    digits(text).parse().ok()
}

/// The value of an `Int` token's text. A literal only recovery mode
/// accepts (one that overflows) is `0`.
pub(crate) fn int_value(text: &str) -> i64 {
    int_literal(text).unwrap_or(0)
}

/// The value of a `Float` token's text; `0.0` where only recovery mode
/// accepts it.
pub(crate) fn float_value(text: &str) -> f64 {
    float_literal(text).unwrap_or(0.0)
}

/// The length of the UTF-8 sequence that starts with `lead`.
fn utf8_len(lead: u8) -> usize {
    match lead {
        0xF0.. => 4,
        0xE0.. => 3,
        0xC0.. => 2,
        _ => 1,
    }
}

/// Scans the string literal whose opening quote is at `src[at]` (past any
/// prefix). Returns where it ends — one past the closing quote, or where
/// recovery mode closes it — and whether its value is plainly the text
/// between its quotes (one line, no escapes). A literal that is not plain
/// is decoded into `value`, when one is given. An error carries the
/// offset the scan stopped at and the message.
pub(crate) fn scan_string(
    src: &[u8],
    at: usize,
    recover: bool,
    mut value: Option<&mut String>,
) -> Result<(usize, bool), (usize, &'static str)> {
    let quote = src[at];
    let mut pos = at + 1;
    // Triple-quoted strings.
    let triple = src.get(pos) == Some(&quote) && src.get(pos + 1) == Some(&quote);
    if triple {
        pos += 2;
    }
    // The common one-line literal without escapes is its source text.
    let rest = &src[pos..];
    if let Some(end) = rest
        .iter()
        .position(|&b| b == quote || b == b'\\' || b == b'\n')
    {
        if !triple && rest[end] == quote {
            return Ok((pos + end + 1, true));
        }
    }
    let mut push = |c: char| {
        if let Some(value) = value.as_deref_mut() {
            value.push(c);
        }
    };
    loop {
        match src.get(pos) {
            None if recover => return Ok((pos, false)),
            None => return Err((pos, "unterminated string literal")),
            // Recovery closes the literal at the line end; the newline
            // stays outside.
            Some(b'\n') if !triple && recover => return Ok((pos, false)),
            Some(b'\n') if !triple => return Err((pos, "unterminated string literal")),
            Some(b'\\') => {
                let Some(&esc) = src.get(pos + 1) else {
                    if recover {
                        push('\\');
                        return Ok((pos + 1, false));
                    }
                    return Err((pos + 1, "unterminated escape"));
                };
                pos += 2;
                push(match esc {
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'\\' => '\\',
                    b'\'' => '\'',
                    b'"' => '"',
                    b'0' => '\0',
                    b'\n' => continue, // line continuation inside string
                    // Unknown escapes are kept verbatim (Python keeps the
                    // backslash; we keep just the char for simplicity of
                    // the subset).
                    other if other.is_ascii() => other as char,
                    _ => {
                        // Multi-byte char after the backslash: back up so
                        // the path below copies it whole.
                        pos -= 1;
                        continue;
                    }
                });
            }
            Some(&c) if c == quote => {
                if !triple {
                    return Ok((pos + 1, false));
                }
                if src.get(pos + 1) == Some(&quote) && src.get(pos + 2) == Some(&quote) {
                    return Ok((pos + 3, false));
                }
                push(quote as char);
                pos += 1;
            }
            Some(&c) if c.is_ascii() => {
                push(c as char);
                pos += 1;
            }
            Some(&lead) => {
                // A whole multi-byte UTF-8 sequence: the source is valid
                // UTF-8 and `pos` is on a character boundary.
                let len = utf8_len(lead);
                let ch = std::str::from_utf8(&src[pos..pos + len]).expect("source is valid UTF-8");
                push(ch.chars().next().expect("one character"));
                pos += len;
            }
        }
    }
}

impl Lexer<'_, '_> {
    fn err(&self, span: Span, message: impl Into<String>) -> LexError {
        LexError {
            span,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn push(&mut self, kind: TokenKind, start: usize) {
        self.tokens
            .push(Token::new(kind, Span::new(start, self.pos)));
    }

    fn last_kind(&self) -> Option<TokenKind> {
        self.tokens.last().map(|t| t.kind)
    }

    fn run(mut self) -> Result<(), LexError> {
        while self.pos < self.src.len() {
            if self.at_line_start && self.paren_depth == 0 {
                self.handle_indentation()?;
                if self.pos >= self.src.len() {
                    break;
                }
            }
            let start = self.pos;
            let c = match self.peek() {
                Some(c) => c,
                None => break,
            };
            match c {
                b'\n' => {
                    self.bump();
                    if self.paren_depth == 0 {
                        // Suppress empty logical lines, and a blank line
                        // right after an indentation change.
                        if !matches!(
                            self.last_kind(),
                            Some(TokenKind::Newline | TokenKind::Indent | TokenKind::Dedent) | None
                        ) {
                            self.push(TokenKind::Newline, start);
                        }
                        self.at_line_start = true;
                    }
                }
                b'\r' => {
                    self.bump();
                }
                b' ' | b'\t' => {
                    self.bump();
                }
                b'#' => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.bump();
                    }
                }
                b'\\' if self.peek2() == Some(b'\n') => {
                    // Explicit line joining.
                    self.bump();
                    self.bump();
                }
                b'"' | b'\'' => self.lex_string(start, false)?,
                b'0'..=b'9' => self.lex_number()?,
                c if c == b'_' || c.is_ascii_alphabetic() => self.lex_name()?,
                _ => self.lex_punct()?,
            }
        }
        // Close any open logical line.
        if !matches!(
            self.last_kind(),
            Some(TokenKind::Newline | TokenKind::Dedent) | None
        ) {
            let p = self.pos;
            self.push(TokenKind::Newline, p);
        }
        // Unwind the indent stack.
        while self.indents.len() > 1 {
            self.indents.pop();
            let p = self.pos;
            self.push(TokenKind::Dedent, p);
        }
        let p = self.pos;
        self.push(TokenKind::Eof, p);
        Ok(())
    }

    fn handle_indentation(&mut self) -> Result<(), LexError> {
        loop {
            let line_start = self.pos;
            let mut width = 0usize;
            while let Some(c) = self.peek() {
                match c {
                    b' ' => {
                        width += 1;
                        self.bump();
                    }
                    b'\t' => {
                        // Tab advances to the next multiple of 8.
                        width += 8 - (width % 8);
                        self.bump();
                    }
                    _ => break,
                }
            }
            match self.peek() {
                // Blank line or comment-only line: consume and retry.
                Some(b'\n') => {
                    self.bump();
                    continue;
                }
                Some(b'\r') => {
                    self.bump();
                    continue;
                }
                Some(b'#') => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.bump();
                    }
                    continue;
                }
                None => {
                    self.at_line_start = false;
                    return Ok(());
                }
                _ => {}
            }
            let current = *self.indents.last().expect("indent stack nonempty");
            if width > current {
                self.indents.push(width);
                self.push(TokenKind::Indent, line_start);
            } else if width < current {
                while *self.indents.last().expect("indent stack nonempty") > width {
                    self.indents.pop();
                    self.push(TokenKind::Dedent, line_start);
                }
                if *self.indents.last().expect("indent stack nonempty") != width {
                    if self.recover {
                        // Re-anchor: treat the stray level as a new block.
                        self.indents.push(width);
                        self.push(TokenKind::Indent, line_start);
                    } else {
                        return Err(self.err(
                            Span::new(line_start, self.pos),
                            "unindent does not match any outer indentation level",
                        ));
                    }
                }
            }
            self.at_line_start = false;
            return Ok(());
        }
    }

    /// Lexes a string literal starting at the quote under the cursor;
    /// `start` is the token start (before any `f`/`r`/`b` prefix) and
    /// `fstring` selects the [`TokenKind::FStr`] token kind.
    fn lex_string(&mut self, start: usize, fstring: bool) -> Result<(), LexError> {
        let (end, _) = scan_string(self.src, self.pos, self.recover, None)
            .map_err(|(at, message)| self.err(Span::new(start, at), message))?;
        self.pos = end;
        let kind = if fstring {
            TokenKind::FStr
        } else {
            TokenKind::Str
        };
        self.push(kind, start);
        Ok(())
    }

    /// The source text from `start` to the cursor.
    fn text_from(&self, start: usize) -> &str {
        std::str::from_utf8(&self.src[start..self.pos]).expect("ascii token")
    }

    fn lex_number(&mut self) -> Result<(), LexError> {
        let start = self.pos;
        // Hex/binary/octal prefixes.
        if self.peek() == Some(b'0')
            && matches!(
                self.peek2(),
                Some(b'x') | Some(b'X') | Some(b'b') | Some(b'B') | Some(b'o') | Some(b'O')
            )
        {
            let radix = match self.peek2().expect("checked") {
                b'x' | b'X' => 16,
                b'b' | b'B' => 2,
                _ => 8,
            };
            self.bump();
            self.bump();
            while matches!(self.peek(), Some(c) if (c as char).is_digit(radix) || c == b'_') {
                self.bump();
            }
            return self.number(TokenKind::Int, start);
        }
        let mut kind = TokenKind::Int;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'_') {
            self.bump();
        }
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(c) if c.is_ascii_digit()) {
            kind = TokenKind::Float;
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'_') {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E'))
            && matches!(self.peek2(), Some(c) if c.is_ascii_digit() || c == b'+' || c == b'-')
        {
            kind = TokenKind::Float;
            self.bump();
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.bump();
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        self.number(kind, start)
    }

    /// Pushes the numeric literal from `start` to the cursor, which strict
    /// mode requires to have a value.
    fn number(&mut self, kind: TokenKind, start: usize) -> Result<(), LexError> {
        if !self.recover {
            let text = self.text_from(start);
            let (valid, message) = if kind == TokenKind::Float {
                (float_literal(text).is_some(), "invalid float literal")
            } else {
                (int_literal(text).is_some(), "invalid integer literal")
            };
            if !valid {
                return Err(self.err(Span::new(start, self.pos), message));
            }
        }
        self.push(kind, start);
        Ok(())
    }

    fn lex_name(&mut self) -> Result<(), LexError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c == b'_' || c.is_ascii_alphanumeric()) {
            self.bump();
        }
        let text = self.text_from(start);
        // A string prefix (`f"..."`, `rb'...'`, …) glues onto the literal.
        let is_prefix = (1..=2).contains(&text.len())
            && text
                .bytes()
                .all(|b| matches!(b, b'f' | b'F' | b'r' | b'R' | b'b' | b'B' | b'u' | b'U'));
        if is_prefix && matches!(self.peek(), Some(b'"') | Some(b'\'')) {
            let fstring = text.bytes().any(|b| b == b'f' || b == b'F');
            return self.lex_string(start, fstring);
        }
        let kind = match Keyword::from_str(text) {
            Some(k) => TokenKind::Keyword(k),
            None => TokenKind::Ident,
        };
        self.push(kind, start);
        Ok(())
    }

    /// Consumes the first of `longer` whose text follows the byte just
    /// consumed, and gives its punct; else `single`.
    fn punct_then(&mut self, longer: &[(&str, Punct)], single: Punct) -> Punct {
        for &(tail, punct) in longer {
            if self.src[self.pos..].starts_with(tail.as_bytes()) {
                self.pos += tail.len();
                return punct;
            }
        }
        single
    }

    fn lex_punct(&mut self) -> Result<(), LexError> {
        use Punct::*;
        let start = self.pos;
        let c = self.bump().expect("punct start");
        let kind = match c {
            b'(' | b'[' | b'{' => {
                self.paren_depth += 1;
                match c {
                    b'(' => LParen,
                    b'[' => LBracket,
                    _ => LBrace,
                }
            }
            b')' | b']' | b'}' => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                match c {
                    b')' => RParen,
                    b']' => RBracket,
                    _ => RBrace,
                }
            }
            b':' => Colon,
            b',' => Comma,
            b'.' => Dot,
            b';' => Semicolon,
            b'@' => At,
            b'~' => Tilde,
            b'^' => self.punct_then(&[("=", CaretAssign)], Caret),
            b'&' => self.punct_then(&[("=", AmpAssign)], Amp),
            b'|' => self.punct_then(&[("=", PipeAssign)], Pipe),
            b'%' => self.punct_then(&[("=", PercentAssign)], Percent),
            b'=' => self.punct_then(&[("=", Eq)], Assign),
            b'+' => self.punct_then(&[("=", PlusAssign)], Plus),
            b'-' => self.punct_then(&[(">", Arrow), ("=", MinusAssign)], Minus),
            b'*' => self.punct_then(
                &[
                    ("*=", DoubleStarAssign),
                    ("*", DoubleStar),
                    ("=", StarAssign),
                ],
                Star,
            ),
            b'/' => self.punct_then(
                &[
                    ("/=", DoubleSlashAssign),
                    ("/", DoubleSlash),
                    ("=", SlashAssign),
                ],
                Slash,
            ),
            b'<' => self.punct_then(&[("<=", LShiftAssign), ("<", LShift), ("=", Le)], Lt),
            b'>' => self.punct_then(&[(">=", RShiftAssign), (">", RShift), ("=", Ge)], Gt),
            b'!' if self.peek() == Some(b'=') => {
                self.bump();
                Ne
            }
            other => {
                if self.recover {
                    // Skip the whole UTF-8 sequence so the next byte is a
                    // character boundary again.
                    while other >= 0x80 && matches!(self.peek(), Some(b) if b & 0xC0 == 0x80) {
                        self.bump();
                    }
                    return Ok(());
                }
                let message = if other == b'!' {
                    "unexpected character `!` (did you mean `!=` or `not`?)".to_owned()
                } else {
                    format!("unexpected character `{}`", other as char)
                };
                return Err(self.err(Span::new(start, self.pos), message));
            }
        };
        self.push(TokenKind::Punct(kind), start);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    /// Each token's kind and text.
    fn texts(src: &str) -> Vec<(TokenKind, &str)> {
        tokenize(src)
            .unwrap()
            .into_iter()
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    /// The decoded value of the first string token of `src`.
    fn string_value(src: &str) -> String {
        let token = tokenize(src)
            .unwrap()
            .into_iter()
            .find(|t| t.kind == TokenKind::Str)
            .expect("a string token");
        let text = token.text(src);
        let quote = text.find(['"', '\'']).expect("a quote");
        let at = token.span().start + quote;
        let mut value = String::new();
        let (end, plain) = scan_string(src.as_bytes(), at, false, Some(&mut value)).unwrap();
        assert_eq!(end, token.span().end);
        if plain {
            text[quote + 1..text.len() - 1].to_owned()
        } else {
            value
        }
    }

    #[test]
    fn lexes_simple_statement() {
        assert_eq!(
            texts("x = 1\n"),
            vec![
                (TokenKind::Ident, "x"),
                (TokenKind::Punct(Punct::Assign), "="),
                (TokenKind::Int, "1"),
                (TokenKind::Newline, "\n"),
                (TokenKind::Eof, ""),
            ]
        );
    }

    #[test]
    fn emits_indent_dedent() {
        let src = "def f():\n    pass\n";
        let k = kinds(src);
        assert!(k.contains(&TokenKind::Indent));
        assert!(k.contains(&TokenKind::Dedent));
        let indent_pos = k.iter().position(|t| *t == TokenKind::Indent).unwrap();
        let dedent_pos = k.iter().position(|t| *t == TokenKind::Dedent).unwrap();
        assert!(indent_pos < dedent_pos);
    }

    #[test]
    fn nested_dedents_unwind() {
        let src = "class C:\n    def m(self):\n        pass\n";
        let k = kinds(src);
        assert_eq!(k.iter().filter(|t| **t == TokenKind::Indent).count(), 2);
        assert_eq!(k.iter().filter(|t| **t == TokenKind::Dedent).count(), 2);
    }

    #[test]
    fn blank_lines_and_comments_skipped() {
        let src = "a = 1\n\n# comment\n   # indented comment\nb = 2\n";
        let k = kinds(src);
        let newlines = k.iter().filter(|t| **t == TokenKind::Newline).count();
        assert_eq!(newlines, 2);
        assert!(!k.contains(&TokenKind::Indent));
    }

    #[test]
    fn implicit_line_joining_in_brackets() {
        let src = "x = [1,\n     2,\n     3]\n";
        let k = kinds(src);
        let newlines = k.iter().filter(|t| **t == TokenKind::Newline).count();
        assert_eq!(newlines, 1);
        assert!(!k.contains(&TokenKind::Indent));
    }

    #[test]
    fn string_literals_with_escapes() {
        assert_eq!(string_value("s = \"a\\nb\"\n"), "a\nb");
        assert_eq!(string_value("s = 'it'\n"), "it");
        assert_eq!(string_value("s = b'\\q\\'\u{e9}'\n"), "q'\u{e9}");
        assert!(texts("s = rb'x'\n").contains(&(TokenKind::Str, "rb'x'")));
    }

    #[test]
    fn triple_quoted_strings() {
        let src = "s = \"\"\"line1\nline2\"\"\"\n";
        assert_eq!(string_value(src), "line1\nline2");
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("s = \"oops\n").is_err());
        let recovered = tokenize_recover("s = \"oops\nt = 1\n");
        assert_eq!(recovered[2].kind, TokenKind::Str);
        assert_eq!(recovered[2].text("s = \"oops\nt = 1\n"), "\"oops");
    }

    #[test]
    fn keywords_vs_identifiers() {
        let t = texts("return returns\n");
        assert_eq!(t[0], (TokenKind::Keyword(Keyword::Return), "return"));
        assert_eq!(t[1], (TokenKind::Ident, "returns"));
    }

    #[test]
    fn numbers() {
        let t = texts("a = 42\nb = 3.25\nc = 0x1F\nd = 1_000\ne = 1e3\n");
        let numbers: Vec<_> = t
            .iter()
            .filter(|(k, _)| matches!(k, TokenKind::Int | TokenKind::Float))
            .collect();
        assert_eq!(
            numbers,
            [
                &(TokenKind::Int, "42"),
                &(TokenKind::Float, "3.25"),
                &(TokenKind::Int, "0x1F"),
                &(TokenKind::Int, "1_000"),
                &(TokenKind::Float, "1e3"),
            ]
        );
        assert_eq!(int_value("0x1F"), 31);
        assert_eq!(int_value("1_000"), 1000);
        assert_eq!(int_value("0b1_01"), 5);
        assert_eq!(float_value("3.25"), 3.25);
        assert_eq!(float_value("1e3"), 1000.0);
    }

    #[test]
    fn malformed_numbers_error_strictly_and_are_zero_when_recovered() {
        let big = "x = 99999999999999999999\n";
        let err = tokenize(big).unwrap_err();
        assert_eq!(err.message, "invalid integer literal");
        assert_eq!(err.span, Span::new(4, 24));
        assert!(tokenize("x = 0x\n").is_err());
        assert!(tokenize("x = 1e+\n").is_err());
        let recovered = tokenize_recover(big);
        assert_eq!(int_value(recovered[2].text(big)), 0);
    }

    #[test]
    fn operators() {
        let k = kinds("a == b != c <= d >= e -> f\n");
        assert!(k.contains(&TokenKind::Punct(Punct::Eq)));
        assert!(k.contains(&TokenKind::Punct(Punct::Ne)));
        assert!(k.contains(&TokenKind::Punct(Punct::Le)));
        assert!(k.contains(&TokenKind::Punct(Punct::Ge)));
        assert!(k.contains(&TokenKind::Punct(Punct::Arrow)));
    }

    #[test]
    fn inconsistent_dedent_errors() {
        let src = "if x:\n        a = 1\n    b = 2\n";
        assert!(tokenize(src).is_err());
    }

    #[test]
    fn decorator_tokens() {
        let t = texts("@sys([\"a\", \"b\"])\nclass C:\n    pass\n");
        assert_eq!(t[0], (TokenKind::Punct(Punct::At), "@"));
        assert_eq!(t[1], (TokenKind::Ident, "sys"));
        assert!(t.contains(&(TokenKind::Str, "\"a\"")));
        assert!(t.contains(&(TokenKind::Keyword(Keyword::Class), "class")));
    }

    #[test]
    fn eof_without_trailing_newline() {
        let k = kinds("x = 1");
        assert_eq!(k.last(), Some(&TokenKind::Eof));
        assert!(k.contains(&TokenKind::Newline));
    }

    #[test]
    fn dunder_names_are_identifiers() {
        let t = texts("def __init__(self):\n    pass\n");
        assert!(t.contains(&(TokenKind::Ident, "__init__")));
    }

    #[test]
    fn a_reused_buffer_holds_only_the_last_source() {
        let (mut tokens, mut indents) = (Vec::new(), Vec::new());
        lex("class C:\n    pass\n", false, &mut tokens, &mut indents).unwrap();
        lex("x", false, &mut tokens, &mut indents).unwrap();
        assert_eq!(tokens, tokenize("x").unwrap());
    }
}
