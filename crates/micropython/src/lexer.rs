//! Indentation-aware lexer for the MicroPython subset.
//!
//! Follows CPython's tokenizer structure: physical lines are folded into
//! logical lines (implicit joining inside `()[]{}`), leading whitespace
//! drives an indent stack emitting `Indent`/`Dedent` tokens, comments and
//! blank lines are skipped.

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
/// that cannot be resolved, or unexpected characters.
pub fn tokenize(source: &str) -> Result<Vec<Token>, LexError> {
    Lexer::new(source, false).run()
}

/// Tokenizes `source` totally: every input produces a token stream.
///
/// Malformed pieces degrade instead of erroring — unknown characters are
/// skipped, unterminated strings close at the line (or input) end,
/// inconsistent dedents re-anchor to the nearest level, and overflowing
/// numeric literals become `0`. This is the recovery-mode front door used
/// by [`crate::parse_module_recover`].
pub fn tokenize_recover(source: &str) -> Vec<Token> {
    Lexer::new(source, true)
        .run()
        .expect("recovery-mode lexing is total")
}

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    tokens: Vec<Token>,
    indents: Vec<usize>,
    paren_depth: usize,
    at_line_start: bool,
    /// Degrade malformed input instead of erroring.
    recover: bool,
}

/// The text of a numeric literal's digits without its `_` separators,
/// borrowed from the source when it has none.
fn digits(bytes: &[u8]) -> Cow<'_, str> {
    let text = std::str::from_utf8(bytes).expect("ascii digits");
    if text.contains('_') {
        Cow::Owned(text.replace('_', ""))
    } else {
        Cow::Borrowed(text)
    }
}

impl<'s> Lexer<'s> {
    fn new(source: &'s str, recover: bool) -> Self {
        Lexer {
            src: source.as_bytes(),
            pos: 0,
            tokens: Vec::new(),
            indents: vec![0],
            paren_depth: 0,
            at_line_start: true,
            recover,
        }
    }

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

    fn run(mut self) -> Result<Vec<Token>, LexError> {
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
                        // Suppress empty logical lines.
                        if matches!(
                            self.tokens.last().map(|t| &t.kind),
                            Some(TokenKind::Newline) | None
                        ) {
                            // no token
                        } else if matches!(
                            self.tokens.last().map(|t| &t.kind),
                            Some(TokenKind::Indent) | Some(TokenKind::Dedent)
                        ) {
                            // blank line right after indentation change
                        } else {
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
            self.tokens.last().map(|t| &t.kind),
            Some(TokenKind::Newline) | Some(TokenKind::Dedent) | None
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
        Ok(self.tokens)
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
                self.tokens.push(Token::new(
                    TokenKind::Indent,
                    Span::new(line_start, self.pos),
                ));
            } else if width < current {
                while *self.indents.last().expect("indent stack nonempty") > width {
                    self.indents.pop();
                    self.tokens.push(Token::new(
                        TokenKind::Dedent,
                        Span::new(line_start, self.pos),
                    ));
                }
                if *self.indents.last().expect("indent stack nonempty") != width {
                    if self.recover {
                        // Re-anchor: treat the stray level as a new block.
                        self.indents.push(width);
                        self.tokens.push(Token::new(
                            TokenKind::Indent,
                            Span::new(line_start, self.pos),
                        ));
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
        let quote = self.bump().expect("string start");
        // Triple-quoted strings.
        let triple = self.peek() == Some(quote) && self.peek2() == Some(quote);
        if triple {
            self.bump();
            self.bump();
        }
        let finish = |l: &mut Self, mut value: String| {
            value.shrink_to_fit();
            let kind = if fstring {
                TokenKind::FStr(value)
            } else {
                TokenKind::Str(value)
            };
            l.push(kind, start);
        };
        // The common one-line literal without escapes is its source text.
        let rest = &self.src[self.pos..];
        if let Some(end) = rest
            .iter()
            .position(|&b| b == quote || b == b'\\' || b == b'\n')
        {
            if !triple && rest[end] == quote {
                let value = std::str::from_utf8(&rest[..end])
                    .expect("source is valid UTF-8")
                    .to_owned();
                self.pos += end + 1;
                finish(self, value);
                return Ok(());
            }
        }
        let mut value = String::new();
        loop {
            match self.peek() {
                None => {
                    if self.recover {
                        finish(self, value);
                        return Ok(());
                    }
                    return Err(self.err(Span::new(start, self.pos), "unterminated string literal"));
                }
                Some(b'\n') if !triple => {
                    if self.recover {
                        // Close at the line end; the newline stays outside.
                        finish(self, value);
                        return Ok(());
                    }
                    return Err(self.err(Span::new(start, self.pos), "unterminated string literal"));
                }
                Some(b'\\') => {
                    self.bump();
                    let esc = match self.bump() {
                        Some(e) => e,
                        None if self.recover => {
                            value.push('\\');
                            finish(self, value);
                            return Ok(());
                        }
                        None => {
                            return Err(self.err(Span::new(start, self.pos), "unterminated escape"))
                        }
                    };
                    value.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'\\' => '\\',
                        b'\'' => '\'',
                        b'"' => '"',
                        b'0' => '\0',
                        b'\n' => continue, // line continuation inside string
                        other if other.is_ascii() => {
                            // Unknown escapes are kept verbatim (Python keeps
                            // the backslash; we keep just the char for
                            // simplicity of the subset).
                            other as char
                        }
                        _ => {
                            // Multi-byte char after the backslash: back up so
                            // the normal path below copies it whole.
                            self.pos -= 1;
                            continue;
                        }
                    });
                }
                Some(c) if c == quote => {
                    if triple {
                        if self.peek2() == Some(quote) && self.src.get(self.pos + 2) == Some(&quote)
                        {
                            self.bump();
                            self.bump();
                            self.bump();
                            break;
                        }
                        value.push(quote as char);
                        self.bump();
                    } else {
                        self.bump();
                        break;
                    }
                }
                Some(c) if c.is_ascii() => {
                    value.push(c as char);
                    self.bump();
                }
                Some(_) => {
                    // Copy a whole multi-byte UTF-8 sequence: the source is
                    // valid UTF-8, so decode from the current boundary.
                    let tail =
                        std::str::from_utf8(&self.src[self.pos..]).expect("source is valid UTF-8");
                    let ch = tail.chars().next().expect("nonempty tail");
                    value.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
        finish(self, value);
        Ok(())
    }

    fn lex_number(&mut self) -> Result<(), LexError> {
        let start = self.pos;
        let mut is_float = false;
        // Hex/binary/octal prefixes.
        if self.peek() == Some(b'0')
            && matches!(
                self.peek2(),
                Some(b'x') | Some(b'X') | Some(b'b') | Some(b'B') | Some(b'o') | Some(b'O')
            )
        {
            let base_char = self.peek2().expect("checked");
            self.bump();
            self.bump();
            let radix = match base_char {
                b'x' | b'X' => 16,
                b'b' | b'B' => 2,
                _ => 8,
            };
            let digits_start = self.pos;
            while matches!(self.peek(), Some(c) if (c as char).is_digit(radix) || c == b'_') {
                self.bump();
            }
            let text = digits(&self.src[digits_start..self.pos]);
            let value = match i64::from_str_radix(&text, radix) {
                Ok(v) => v,
                Err(_) if self.recover => 0,
                Err(_) => {
                    return Err(self.err(Span::new(start, self.pos), "invalid integer literal"))
                }
            };
            self.push(TokenKind::Int(value), start);
            return Ok(());
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'_') {
            self.bump();
        }
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(c) if c.is_ascii_digit()) {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'_') {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E'))
            && matches!(self.peek2(), Some(c) if c.is_ascii_digit() || c == b'+' || c == b'-')
        {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.bump();
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        let text = digits(&self.src[start..self.pos]);
        if is_float {
            let v: f64 = match text.parse() {
                Ok(v) => v,
                Err(_) if self.recover => 0.0,
                Err(_) => return Err(self.err(Span::new(start, self.pos), "invalid float literal")),
            };
            self.push(TokenKind::Float(v), start);
        } else {
            let v: i64 = match text.parse() {
                Ok(v) => v,
                Err(_) if self.recover => 0,
                Err(_) => {
                    return Err(self.err(Span::new(start, self.pos), "invalid integer literal"))
                }
            };
            self.push(TokenKind::Int(v), start);
        }
        Ok(())
    }

    fn lex_name(&mut self) -> Result<(), LexError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c == b'_' || c.is_ascii_alphanumeric()) {
            self.bump();
        }
        let src = self.src;
        let text = std::str::from_utf8(&src[start..self.pos]).expect("ascii identifier");
        // A string prefix (`f"..."`, `rb'...'`, …) glues onto the literal.
        let is_prefix = (1..=2).contains(&text.len())
            && text
                .bytes()
                .all(|b| matches!(b, b'f' | b'F' | b'r' | b'R' | b'b' | b'B' | b'u' | b'U'));
        if is_prefix && matches!(self.peek(), Some(b'"') | Some(b'\'')) {
            let fstring = text.bytes().any(|b| b == b'f' || b == b'F');
            return self.lex_string(start, fstring);
        }
        match Keyword::from_str(text) {
            Some(k) => self.push(TokenKind::Keyword(k), start),
            None => self.push(TokenKind::Ident(text.to_owned()), start),
        }
        Ok(())
    }

    fn lex_punct(&mut self) -> Result<(), LexError> {
        let start = self.pos;
        let c = self.bump().expect("punct start");
        let two = |l: &Lexer| l.peek();
        let kind = match c {
            b'(' => {
                self.paren_depth += 1;
                Punct::LParen
            }
            b')' => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                Punct::RParen
            }
            b'[' => {
                self.paren_depth += 1;
                Punct::LBracket
            }
            b']' => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                Punct::RBracket
            }
            b'{' => {
                self.paren_depth += 1;
                Punct::LBrace
            }
            b'}' => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                Punct::RBrace
            }
            b':' => Punct::Colon,
            b',' => Punct::Comma,
            b'.' => Punct::Dot,
            b';' => Punct::Semicolon,
            b'@' => Punct::At,
            b'~' => Punct::Tilde,
            b'^' => {
                if two(self) == Some(b'=') {
                    self.bump();
                    Punct::CaretAssign
                } else {
                    Punct::Caret
                }
            }
            b'&' => {
                if two(self) == Some(b'=') {
                    self.bump();
                    Punct::AmpAssign
                } else {
                    Punct::Amp
                }
            }
            b'|' => {
                if two(self) == Some(b'=') {
                    self.bump();
                    Punct::PipeAssign
                } else {
                    Punct::Pipe
                }
            }
            b'%' => {
                if two(self) == Some(b'=') {
                    self.bump();
                    Punct::PercentAssign
                } else {
                    Punct::Percent
                }
            }
            b'=' => {
                if two(self) == Some(b'=') {
                    self.bump();
                    Punct::Eq
                } else {
                    Punct::Assign
                }
            }
            b'!' => {
                if two(self) == Some(b'=') {
                    self.bump();
                    Punct::Ne
                } else {
                    if self.recover {
                        return Ok(());
                    }
                    return Err(self.err(
                        Span::new(start, self.pos),
                        "unexpected character `!` (did you mean `!=` or `not`?)",
                    ));
                }
            }
            b'<' => match two(self) {
                Some(b'=') => {
                    self.bump();
                    Punct::Le
                }
                Some(b'<') => {
                    self.bump();
                    if two(self) == Some(b'=') {
                        self.bump();
                        Punct::LShiftAssign
                    } else {
                        Punct::LShift
                    }
                }
                _ => Punct::Lt,
            },
            b'>' => match two(self) {
                Some(b'=') => {
                    self.bump();
                    Punct::Ge
                }
                Some(b'>') => {
                    self.bump();
                    if two(self) == Some(b'=') {
                        self.bump();
                        Punct::RShiftAssign
                    } else {
                        Punct::RShift
                    }
                }
                _ => Punct::Gt,
            },
            b'+' => {
                if two(self) == Some(b'=') {
                    self.bump();
                    Punct::PlusAssign
                } else {
                    Punct::Plus
                }
            }
            b'-' => match two(self) {
                Some(b'>') => {
                    self.bump();
                    Punct::Arrow
                }
                Some(b'=') => {
                    self.bump();
                    Punct::MinusAssign
                }
                _ => Punct::Minus,
            },
            b'*' => match two(self) {
                Some(b'*') => {
                    self.bump();
                    if two(self) == Some(b'=') {
                        self.bump();
                        Punct::DoubleStarAssign
                    } else {
                        Punct::DoubleStar
                    }
                }
                Some(b'=') => {
                    self.bump();
                    Punct::StarAssign
                }
                _ => Punct::Star,
            },
            b'/' => match two(self) {
                Some(b'/') => {
                    self.bump();
                    if two(self) == Some(b'=') {
                        self.bump();
                        Punct::DoubleSlashAssign
                    } else {
                        Punct::DoubleSlash
                    }
                }
                Some(b'=') => {
                    self.bump();
                    Punct::SlashAssign
                }
                _ => Punct::Slash,
            },
            other => {
                if self.recover {
                    // Skip the whole UTF-8 sequence so the next byte is a
                    // character boundary again.
                    if other >= 0x80 {
                        while matches!(self.peek(), Some(b) if b & 0xC0 == 0x80) {
                            self.bump();
                        }
                    }
                    return Ok(());
                }
                return Err(self.err(
                    Span::new(start, self.pos),
                    format!("unexpected character `{}`", other as char),
                ));
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

    #[test]
    fn lexes_simple_statement() {
        let k = kinds("x = 1\n");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("x".into()),
                TokenKind::Punct(Punct::Assign),
                TokenKind::Int(1),
                TokenKind::Newline,
                TokenKind::Eof,
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
        let k = kinds(
            r#"s = "a\nb"
"#,
        );
        assert!(k.contains(&TokenKind::Str("a\nb".into())));
        let k = kinds("s = 'it'\n");
        assert!(k.contains(&TokenKind::Str("it".into())));
    }

    #[test]
    fn triple_quoted_strings() {
        let src = "s = \"\"\"line1\nline2\"\"\"\n";
        let k = kinds(src);
        assert!(k.contains(&TokenKind::Str("line1\nline2".into())));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("s = \"oops\n").is_err());
    }

    #[test]
    fn keywords_vs_identifiers() {
        let k = kinds("return returns\n");
        assert_eq!(k[0], TokenKind::Keyword(Keyword::Return));
        assert_eq!(k[1], TokenKind::Ident("returns".into()));
    }

    #[test]
    fn numbers() {
        let k = kinds("a = 42\nb = 3.25\nc = 0x1F\nd = 1_000\n");
        assert!(k.contains(&TokenKind::Int(42)));
        assert!(k.contains(&TokenKind::Float(3.25)));
        assert!(k.contains(&TokenKind::Int(31)));
        assert!(k.contains(&TokenKind::Int(1000)));
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
        let k = kinds("@sys([\"a\", \"b\"])\nclass C:\n    pass\n");
        assert_eq!(k[0], TokenKind::Punct(Punct::At));
        assert_eq!(k[1], TokenKind::Ident("sys".into()));
        assert!(k.contains(&TokenKind::Str("a".into())));
        assert!(k.contains(&TokenKind::Keyword(Keyword::Class)));
    }

    #[test]
    fn eof_without_trailing_newline() {
        let k = kinds("x = 1");
        assert_eq!(k.last(), Some(&TokenKind::Eof));
        assert!(k.contains(&TokenKind::Newline));
    }

    #[test]
    fn dunder_names_are_identifiers() {
        let k = kinds("def __init__(self):\n    pass\n");
        assert!(k.contains(&TokenKind::Ident("__init__".into())));
    }
}
