//! Tokens of the MicroPython subset.
//!
//! A [`Token`] is a 12-byte `Copy` record: a [`TokenKind`] tag and the
//! byte range of its text, as two `u32` offsets. Identifiers, numbers and
//! strings carry no payload: the parser slices their text from the source
//! only when it stores it, so an identifier is allocated once, into the
//! AST, and a keyword or operator never. The lexer therefore accepts
//! sources of up to `u32::MAX` bytes.

use crate::lexer::{float_value, int_value};
use crate::span::Span;
use std::fmt;

/// A lexical token kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or non-reserved name.
    Ident,
    /// Keyword (reserved identifier).
    Keyword(Keyword),
    /// Integer literal.
    Int,
    /// Floating-point literal.
    Float,
    /// String literal, prefix and quotes included.
    Str,
    /// Formatted string literal (`f"..."`), prefix and quotes included.
    FStr,
    /// Punctuation or operator.
    Punct(Punct),
    /// End of a logical line.
    Newline,
    /// Increase of indentation.
    Indent,
    /// Decrease of indentation.
    Dedent,
    /// End of input.
    Eof,
}

/// Declares a fieldless enum of tokens spelled one way each, with its
/// spelling (`as_str`, `Display`) and the lookup back (`from_str`).
macro_rules! spelled {
    ($(#[$doc:meta])* $name:ident { $($variant:ident = $text:literal,)* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)]
        pub enum $name {
            $($variant,)*
        }

        impl $name {
            /// How the source spells it.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $text,)*
                }
            }

            /// The token spelled `s`. (Not `std::str::FromStr`: that
            /// trait's error type would be noise for a lookup that is
            /// simply `None`.)
            #[allow(clippy::should_implement_trait)]
            pub fn from_str(s: &str) -> Option<$name> {
                Some(match s {
                    $($text => $name::$variant,)*
                    _ => return None,
                })
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.as_str())
            }
        }
    };
}

spelled! {
    /// Reserved words of the subset.
    Keyword {
        Def = "def", Class = "class", Return = "return", If = "if",
        Elif = "elif", Else = "else", Match = "match", Case = "case",
        For = "for", While = "while", In = "in", Is = "is",
        Pass = "pass", Break = "break", Continue = "continue", Not = "not",
        And = "and", Or = "or", True = "True", False = "False",
        None = "None", Import = "import", From = "from", As = "as",
        Try = "try", Except = "except", Finally = "finally", With = "with",
        Raise = "raise", Async = "async", Await = "await", Lambda = "lambda",
    }
}

spelled! {
    /// Punctuation and operators of the subset.
    Punct {
        LParen = "(", RParen = ")", LBracket = "[", RBracket = "]",
        LBrace = "{", RBrace = "}", Colon = ":", Comma = ",",
        Dot = ".", Semicolon = ";", At = "@", Arrow = "->",
        Assign = "=", Eq = "==", Ne = "!=", Lt = "<",
        Gt = ">", Le = "<=", Ge = ">=", Plus = "+",
        Minus = "-", Star = "*", DoubleStar = "**", Slash = "/",
        DoubleSlash = "//", Percent = "%", Pipe = "|", Amp = "&",
        Caret = "^", Tilde = "~", LShift = "<<", RShift = ">>",
        PlusAssign = "+=", MinusAssign = "-=", StarAssign = "*=",
        SlashAssign = "/=", DoubleSlashAssign = "//=", PercentAssign = "%=",
        DoubleStarAssign = "**=", PipeAssign = "|=", AmpAssign = "&=",
        CaretAssign = "^=", LShiftAssign = "<<=", RShiftAssign = ">>=",
    }
}

/// A token: its kind and the byte range of its text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What kind of token.
    pub kind: TokenKind,
    start: u32,
    end: u32,
}

impl Token {
    /// Pairs a kind with its span.
    ///
    /// # Panics
    ///
    /// If the span ends past `u32::MAX`; the lexer never makes such a span.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        let offset = |at: usize| u32::try_from(at).expect("token offsets fit in u32");
        Token {
            kind,
            start: offset(span.start),
            end: offset(span.end),
        }
    }

    /// Where the token came from.
    pub fn span(self) -> Span {
        Span::new(self.start as usize, self.end as usize)
    }

    /// The token's text in `source`, the text it was lexed from.
    pub fn text(self, source: &str) -> &str {
        &source[self.start as usize..self.end as usize]
    }

    /// The token as an error message names it (`identifier `x``,
    /// `integer `31``, `` `:` ``, `end of line`, …).
    pub(crate) fn describe(self, source: &str) -> Described<'_> {
        Described {
            token: self,
            source,
        }
    }
}

/// A token named for an error message; see [`Token::describe`].
pub(crate) struct Described<'s> {
    token: Token,
    source: &'s str,
}

impl fmt::Display for Described<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = self.token.text(self.source);
        match self.token.kind {
            TokenKind::Ident => write!(f, "identifier `{text}`"),
            TokenKind::Keyword(k) => write!(f, "keyword `{k}`"),
            TokenKind::Int => write!(f, "integer `{}`", int_value(text)),
            TokenKind::Float => write!(f, "float `{}`", float_value(text)),
            TokenKind::Str => f.write_str("string literal"),
            TokenKind::FStr => f.write_str("f-string literal"),
            TokenKind::Punct(p) => write!(f, "`{p}`"),
            TokenKind::Newline => f.write_str("end of line"),
            TokenKind::Indent => f.write_str("indent"),
            TokenKind::Dedent => f.write_str("dedent"),
            TokenKind::Eof => f.write_str("end of file"),
        }
    }
}
