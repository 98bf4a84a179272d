//! Recursive-descent parser for the MicroPython subset.
//!
//! The parser reads the compact tokens of [`crate::lexer`] and slices
//! names and literals from the source only when the AST keeps them.
//!
//! **Reused buffers.** Each thread keeps one [`Scratch`]: the token
//! buffer, the lexer's indent stack, a text buffer (escaped strings,
//! dotted names), and one stack per kind of sequence the AST holds —
//! statements, expressions, decorators, names, `if` branches, `except`
//! handlers, `with` items, `case` arms, patterns, dict pairs,
//! comprehension clauses and import names. A sequence's items are pushed
//! as they parse, then drained off the top into a `Vec` of exactly their
//! number: one allocation, no growth, no spare capacity. Once a thread's
//! buffers have grown, parsing a file allocates only what its AST keeps,
//! and a parsed class can be moved out of its module and kept without
//! holding any slack. The whole file is lexed before parsing starts, so a
//! lexical error anywhere wins over an earlier syntax error.
//!
//! **One precedence loop.** The binary operators are parsed by one
//! precedence-climbing loop ([`Parser::parse_binary`]) over the
//! binding-power table of [`binary_op`], loosest first: `or`; `and`;
//! prefix `not`; the comparisons (`== != < > <= >= in not in is is not`);
//! `| & ^ << >>`; `+ -`; `* / // % **`. Every level associates left.
//! Unlike CPython, `|`, `&`, `^` and the shifts share one level and `**`
//! binds like `*`: the analysis never evaluates an operator, and the
//! grouping is kept as it always was so the trees (and their spans) stay
//! the same.

use crate::ast::*;
use crate::lexer::{float_value, int_value, lex, scan_string, LexError};
use crate::span::{Span, Spanned};
use crate::token::{Described, Keyword, Punct, Token, TokenKind};
use std::cell::RefCell;
use std::error::Error;
use std::fmt;

/// A syntax error with its location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Where the error occurred.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "syntax error at {}: {}", self.span, self.message)
    }
}

impl Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            span: e.span,
            message: e.message,
        }
    }
}

/// Parses a module from source text.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered (lexical errors are
/// converted).
///
/// # Examples
///
/// ```
/// use micropython_parser::parse_module;
///
/// let m = parse_module("@sys\nclass Valve:\n    def test(self):\n        return [\"open\"]\n")?;
/// let valve = m.class("Valve").unwrap();
/// assert_eq!(valve.decorators[0].name(), Some("sys"));
/// assert_eq!(valve.methods().count(), 1);
/// # Ok::<(), micropython_parser::ParseError>(())
/// ```
pub fn parse_module(source: &str) -> Result<Module, ParseError> {
    parse(source, false)
}

/// Parses a module in **recovery mode**: lexing and parsing are total.
/// Any region the grammar cannot fit into the calculus is replaced by a
/// spanned [`Stmt::Degraded`] node (which downstream analysis treats as
/// `skip`) instead of failing the whole file.
///
/// # Examples
///
/// ```
/// use micropython_parser::ast::Stmt;
/// use micropython_parser::parse_module_recover;
///
/// let m = parse_module_recover("x = 1\nglobal y !!\nz = 2\n");
/// assert_eq!(m.body.len(), 3);
/// assert!(matches!(m.body[1], Stmt::Degraded(_)));
/// ```
pub fn parse_module_recover(source: &str) -> Module {
    parse(source, true).expect("recovery-mode parsing is total")
}

/// A token buffer grown past this many tokens (768 KiB) is freed after
/// its file instead of kept for the thread's next one.
const MAX_KEPT_TOKENS: usize = 1 << 16;

/// Buffers one thread reuses across the files it parses.
#[derive(Default)]
struct Scratch {
    tokens: Vec<Token>,
    indents: Vec<usize>,
    stacks: Stacks,
    text: String,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

fn parse(source: &str, recover: bool) -> Result<Module, ParseError> {
    SCRATCH.with_borrow_mut(|scratch| {
        let Scratch {
            tokens,
            indents,
            stacks,
            text,
        } = scratch;
        let body = lex(source, recover, tokens, indents)
            .map_err(ParseError::from)
            .and_then(|()| {
                Parser {
                    src: source,
                    tokens,
                    pos: 0,
                    recover,
                    st: stacks,
                    text,
                }
                .parse_stmts_until_eof()
            });
        // A syntax error leaves its unfinished sequences behind.
        stacks.clear();
        if tokens.capacity() > MAX_KEPT_TOKENS {
            *tokens = Vec::new();
        }
        body.map(|body| Module { body })
    })
}

/// Declares [`Stacks`], one scratch stack per kind of AST sequence, and
/// [`Marks`], their heights.
macro_rules! stacks {
    ($($name:ident: $item:ty,)*) => {
        /// The parser's scratch stacks, one per kind of sequence the AST
        /// holds.
        #[derive(Default)]
        struct Stacks {
            $($name: Vec<$item>,)*
        }

        /// The heights of the [`Stacks`] at one point of a parse.
        struct Marks {
            $($name: usize,)*
        }

        impl Stacks {
            fn marks(&self) -> Marks {
                Marks {
                    $($name: self.$name.len(),)*
                }
            }

            /// Drops what was pushed since `marks`.
            fn truncate(&mut self, marks: &Marks) {
                $(self.$name.truncate(marks.$name);)*
            }

            fn clear(&mut self) {
                $(self.$name.clear();)*
            }
        }
    };
}

stacks! {
    stmts: Stmt,
    exprs: Expr,
    decorators: Decorator,
    names: Spanned<String>,
    branches: (Expr, Vec<Stmt>),
    handlers: ExceptHandler,
    with_items: WithItem,
    cases: MatchCase,
    patterns: Pattern,
    pairs: (Expr, Expr),
    clauses: CompClause,
    strings: String,
}

/// The items pushed on `stack` since `mark`, as an exact-capacity `Vec`.
fn drain_from<T>(stack: &mut Vec<T>, mark: usize) -> Vec<T> {
    stack.drain(mark..).collect()
}

/// `a.b`, allocated at its exact length.
fn joined(a: &str, b: &str) -> String {
    let mut s = String::with_capacity(a.len() + 1 + b.len());
    s.push_str(a);
    s.push('.');
    s.push_str(b);
    s
}

/// Binding powers, loosest first; see the module docs.
const OR: u8 = 1;
const AND: u8 = 2;
pub(crate) const NOT: u8 = 3;
const COMPARE: u8 = 4;
const BITWISE: u8 = 5;
const ARITH: u8 = 6;
const TERM: u8 = 7;

/// The binding power and spelling of the binary operator `kind` starts.
/// `is` may turn out to be `is not`, and `not` must be `not in`.
fn binary_op(kind: TokenKind) -> Option<(u8, &'static str)> {
    Some(match kind {
        TokenKind::Keyword(Keyword::Or) => (OR, "or"),
        TokenKind::Keyword(Keyword::And) => (AND, "and"),
        TokenKind::Punct(Punct::Eq) => (COMPARE, "=="),
        TokenKind::Punct(Punct::Ne) => (COMPARE, "!="),
        TokenKind::Punct(Punct::Lt) => (COMPARE, "<"),
        TokenKind::Punct(Punct::Gt) => (COMPARE, ">"),
        TokenKind::Punct(Punct::Le) => (COMPARE, "<="),
        TokenKind::Punct(Punct::Ge) => (COMPARE, ">="),
        TokenKind::Keyword(Keyword::In) => (COMPARE, "in"),
        TokenKind::Keyword(Keyword::Is) => (COMPARE, "is"),
        TokenKind::Keyword(Keyword::Not) => (COMPARE, "not in"),
        TokenKind::Punct(Punct::Pipe) => (BITWISE, "|"),
        TokenKind::Punct(Punct::Amp) => (BITWISE, "&"),
        TokenKind::Punct(Punct::Caret) => (BITWISE, "^"),
        TokenKind::Punct(Punct::LShift) => (BITWISE, "<<"),
        TokenKind::Punct(Punct::RShift) => (BITWISE, ">>"),
        TokenKind::Punct(Punct::Plus) => (ARITH, "+"),
        TokenKind::Punct(Punct::Minus) => (ARITH, "-"),
        TokenKind::Punct(Punct::Star) => (TERM, "*"),
        TokenKind::Punct(Punct::Slash) => (TERM, "/"),
        TokenKind::Punct(Punct::DoubleSlash) => (TERM, "//"),
        TokenKind::Punct(Punct::Percent) => (TERM, "%"),
        TokenKind::Punct(Punct::DoubleStar) => (TERM, "**"),
        _ => return None,
    })
}

/// The binding power of the binary operator spelled `op`: the
/// printer's view of [`binary_op`].
pub(crate) fn binding_power(op: &str) -> u8 {
    match op {
        "or" => OR,
        "and" => AND,
        "==" | "!=" | "<" | ">" | "<=" | ">=" | "in" | "is" | "is not" | "not in" => COMPARE,
        "|" | "&" | "^" | "<<" | ">>" => BITWISE,
        "+" | "-" => ARITH,
        _ => TERM,
    }
}

/// The operator an augmented assignment `kind` applies, if it is one.
fn aug_op(kind: TokenKind) -> Option<&'static str> {
    let TokenKind::Punct(p) = kind else {
        return None;
    };
    Some(match p {
        Punct::PlusAssign => "+",
        Punct::MinusAssign => "-",
        Punct::StarAssign => "*",
        Punct::SlashAssign => "/",
        Punct::DoubleSlashAssign => "//",
        Punct::PercentAssign => "%",
        Punct::DoubleStarAssign => "**",
        Punct::PipeAssign => "|",
        Punct::AmpAssign => "&",
        Punct::CaretAssign => "^",
        Punct::LShiftAssign => "<<",
        Punct::RShiftAssign => ">>",
        _ => return None,
    })
}

/// The parser over one file's tokens and this thread's scratch.
struct Parser<'s, 'b> {
    src: &'s str,
    tokens: &'b [Token],
    pos: usize,
    /// In recovery mode statements that fail to parse degrade to
    /// [`Stmt::Degraded`] instead of aborting.
    recover: bool,
    st: &'b mut Stacks,
    text: &'b mut String,
}

impl<'s> Parser<'s, '_> {
    fn peek(&self) -> Token {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> TokenKind {
        self.peek().kind
    }

    /// The current token, as an error message names it.
    fn found(&self) -> Described<'s> {
        self.peek().describe(self.src)
    }

    fn bump(&mut self) -> Token {
        let t = self.peek();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn at_punct(&self, p: Punct) -> bool {
        self.at(TokenKind::Punct(p))
    }

    fn at_keyword(&self, k: Keyword) -> bool {
        self.at(TokenKind::Keyword(k))
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<Token, ParseError> {
        if self.at_punct(p) {
            Ok(self.bump())
        } else {
            Err(self.error(format!("expected `{p}`, found {}", self.found())))
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> Result<Token, ParseError> {
        if self.at_keyword(k) {
            Ok(self.bump())
        } else {
            Err(self.error(format!("expected `{k}`, found {}", self.found())))
        }
    }

    fn expect_newline(&mut self) -> Result<(), ParseError> {
        if self.at(TokenKind::Newline) {
            self.bump();
            Ok(())
        } else if self.at(TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.error(format!("expected end of line, found {}", self.found())))
        }
    }

    fn expect_ident(&mut self) -> Result<Token, ParseError> {
        if self.at(TokenKind::Ident) {
            Ok(self.bump())
        } else {
            Err(self.error(format!("expected an identifier, found {}", self.found())))
        }
    }

    /// An identifier, allocated for the AST.
    fn ident(&mut self) -> Result<Spanned<String>, ParseError> {
        let t = self.expect_ident()?;
        Ok(self.name(t))
    }

    /// The text of `t` with its span, allocated for the AST.
    fn name(&self, t: Token) -> Spanned<String> {
        Spanned::new(t.text(self.src).to_owned(), t.span())
    }

    /// The decoded value of the `Str` or `FStr` token `t`.
    fn string(&mut self, t: Token) -> String {
        let text = t.text(self.src);
        let quote = text
            .bytes()
            .position(|b| b == b'"' || b == b'\'')
            .expect("a string token has a quote");
        let at = t.span().start + quote;
        self.text.clear();
        let (end, plain) = scan_string(self.src.as_bytes(), at, self.recover, Some(self.text))
            .expect("the lexer accepted this literal");
        debug_assert_eq!(end, t.span().end);
        if plain {
            self.src[at + 1..end - 1].to_owned()
        } else {
            self.text.as_str().to_owned()
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            span: self.peek().span(),
            message: message.into(),
        }
    }

    // ----- statements ---------------------------------------------------

    fn parse_stmts_until_eof(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mark = self.st.stmts.len();
        loop {
            while self.at(TokenKind::Newline) {
                self.bump();
            }
            if self.at(TokenKind::Eof) {
                return Ok(drain_from(&mut self.st.stmts, mark));
            }
            let stmt = self.parse_stmt_recovering()?;
            self.st.stmts.push(stmt);
        }
    }

    /// Parses one statement; in recovery mode a failed parse degrades to a
    /// spanned [`Stmt::Degraded`] covering the skipped region instead of
    /// propagating the error.
    fn parse_stmt_recovering(&mut self) -> Result<Stmt, ParseError> {
        if !self.recover {
            return self.parse_stmt();
        }
        let start_pos = self.pos;
        let start_span = self.peek().span();
        let marks = self.st.marks();
        match self.parse_stmt() {
            Ok(s) => Ok(s),
            Err(e) => {
                // Drop what the broken statement left on the stacks.
                self.st.truncate(&marks);
                // Guarantee progress even when the error is on the very
                // token we started at (e.g. a stray dedent).
                if self.pos == start_pos && !self.at(TokenKind::Eof) {
                    self.bump();
                }
                self.skip_degraded();
                let end_span = if self.pos > start_pos {
                    self.tokens[self.pos - 1].span()
                } else {
                    start_span
                };
                let mut reason = e.message;
                reason.shrink_to_fit();
                Ok(Stmt::Degraded(DegradedStmt {
                    reason,
                    span: start_span.to(end_span),
                }))
            }
        }
    }

    /// Skips past the remainder of a broken statement: to the end of the
    /// logical line, plus any indented block that follows it (so a broken
    /// compound-statement header swallows its whole suite).
    fn skip_degraded(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek_kind() {
                TokenKind::Eof => return,
                TokenKind::Indent => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::Dedent => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                    self.bump();
                }
                TokenKind::Newline => {
                    self.bump();
                    if depth == 0 && !self.at(TokenKind::Indent) {
                        return;
                    }
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Parses one statement (compound or a simple-statement line).
    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek_kind() {
            TokenKind::Punct(Punct::At) => self.parse_decorated(),
            TokenKind::Keyword(Keyword::Class) => self.parse_class(Vec::new()).map(Stmt::ClassDef),
            TokenKind::Keyword(Keyword::Def) => self.parse_def(Vec::new()).map(Stmt::FuncDef),
            TokenKind::Keyword(Keyword::If) => self.parse_if(),
            TokenKind::Keyword(Keyword::Match) => self.parse_match(),
            TokenKind::Keyword(Keyword::While) => self.parse_while(),
            TokenKind::Keyword(Keyword::For) => self.parse_for(),
            TokenKind::Keyword(Keyword::Try) => self.parse_try(),
            TokenKind::Keyword(Keyword::With) => self.parse_with(),
            TokenKind::Keyword(Keyword::Async) => self.parse_async(Vec::new()),
            _ => {
                let stmt = self.parse_simple_stmt()?;
                // `a;` is allowed; `a; b` is not (one statement per line
                // keeps the AST simple).
                if self.eat_punct(Punct::Semicolon)
                    && !self.at(TokenKind::Newline)
                    && !self.at(TokenKind::Eof)
                {
                    return Err(self.error("multiple statements on one line are not supported"));
                }
                self.expect_newline()?;
                Ok(stmt)
            }
        }
    }

    fn parse_decorated(&mut self) -> Result<Stmt, ParseError> {
        let mark = self.st.decorators.len();
        while self.at_punct(Punct::At) {
            let at = self.bump();
            let expr = self.parse_expr()?;
            let span = at.span().to(expr.span);
            self.st.decorators.push(Decorator { expr, span });
            self.expect_newline()?;
            while self.at(TokenKind::Newline) {
                self.bump();
            }
        }
        let decorators = drain_from(&mut self.st.decorators, mark);
        if self.at_keyword(Keyword::Class) {
            self.parse_class(decorators).map(Stmt::ClassDef)
        } else if self.at_keyword(Keyword::Def) {
            self.parse_def(decorators).map(Stmt::FuncDef)
        } else if self.at_keyword(Keyword::Async) {
            self.parse_async(decorators)
        } else {
            Err(self.error("decorators must be followed by `class` or `def`"))
        }
    }

    /// Parses an `async` compound statement. `async for`/`async with` are
    /// modeled exactly like their synchronous forms (the calculus has no
    /// concurrency); `async def` records the flag.
    fn parse_async(&mut self, decorators: Vec<Decorator>) -> Result<Stmt, ParseError> {
        let kw = self.expect_keyword(Keyword::Async)?;
        if self.at_keyword(Keyword::Def) {
            let mut f = self.parse_def(decorators)?;
            f.is_async = true;
            f.span = kw.span().to(f.span);
            Ok(Stmt::FuncDef(f))
        } else if self.at_keyword(Keyword::For) && decorators.is_empty() {
            self.parse_for()
        } else if self.at_keyword(Keyword::With) && decorators.is_empty() {
            self.parse_with()
        } else {
            Err(self.error("expected `def`, `for`, or `with` after `async`"))
        }
    }

    fn parse_try(&mut self) -> Result<Stmt, ParseError> {
        let kw = self.expect_keyword(Keyword::Try)?;
        let body = self.parse_suite()?;
        let mark = self.st.handlers.len();
        let mut orelse = None;
        let mut finally = None;
        let mut end = body.last().map_or(kw.span(), Stmt::span);
        loop {
            // Clauses appear at the same indentation, possibly after blank
            // lines (mirrors `elif`/`else` handling in `parse_if`).
            let save = self.pos;
            while self.at(TokenKind::Newline) {
                self.bump();
            }
            if self.at_keyword(Keyword::Except) && finally.is_none() {
                let ekw = self.bump();
                let exc = if self.at_punct(Punct::Colon) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                let name = if self.at_keyword(Keyword::As) {
                    self.bump();
                    Some(self.ident()?)
                } else {
                    None
                };
                let hbody = self.parse_suite()?;
                end = hbody.last().map_or(ekw.span(), Stmt::span);
                self.st.handlers.push(ExceptHandler {
                    exc,
                    name,
                    body: hbody,
                    span: ekw.span().to(end),
                });
            } else if self.at_keyword(Keyword::Else)
                && self.st.handlers.len() > mark
                && orelse.is_none()
                && finally.is_none()
            {
                self.bump();
                let b = self.parse_suite()?;
                end = b.last().map_or(end, Stmt::span);
                orelse = Some(b);
            } else if self.at_keyword(Keyword::Finally) && finally.is_none() {
                self.bump();
                let b = self.parse_suite()?;
                end = b.last().map_or(end, Stmt::span);
                finally = Some(b);
            } else {
                self.pos = save;
                break;
            }
        }
        if self.st.handlers.len() == mark && finally.is_none() {
            return Err(self.error("`try` requires at least one `except` or a `finally`"));
        }
        Ok(Stmt::Try(TryStmt {
            body,
            handlers: drain_from(&mut self.st.handlers, mark),
            orelse,
            finally,
            span: kw.span().to(end),
        }))
    }

    fn parse_with(&mut self) -> Result<Stmt, ParseError> {
        let kw = self.expect_keyword(Keyword::With)?;
        let mark = self.st.with_items.len();
        loop {
            let context = self.parse_expr()?;
            let target = if self.at_keyword(Keyword::As) {
                self.bump();
                Some(self.parse_postfix()?)
            } else {
                None
            };
            self.st.with_items.push(WithItem { context, target });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        let items = drain_from(&mut self.st.with_items, mark);
        let body = self.parse_suite()?;
        let end = body.last().map_or(kw.span(), Stmt::span);
        Ok(Stmt::With(WithStmt {
            items,
            body,
            span: kw.span().to(end),
        }))
    }

    fn parse_class(&mut self, decorators: Vec<Decorator>) -> Result<ClassDef, ParseError> {
        let kw = self.expect_keyword(Keyword::Class)?;
        let name = self.ident()?;
        let mark = self.st.exprs.len();
        if self.eat_punct(Punct::LParen) {
            while !self.at_punct(Punct::RParen) {
                let base = self.parse_expr()?;
                self.st.exprs.push(base);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RParen)?;
        }
        let bases = drain_from(&mut self.st.exprs, mark);
        let body = self.parse_suite()?;
        let end = body.last().map_or(name.span, Stmt::span);
        let start = decorators.first().map_or(kw.span(), |d| d.span);
        Ok(ClassDef {
            decorators,
            name,
            bases,
            body,
            span: start.to(end),
        })
    }

    fn parse_def(&mut self, decorators: Vec<Decorator>) -> Result<FuncDef, ParseError> {
        let kw = self.expect_keyword(Keyword::Def)?;
        let name = self.ident()?;
        self.expect_punct(Punct::LParen)?;
        let mark = self.st.names.len();
        while !self.at_punct(Punct::RParen) {
            // Positional-only marker `/` and keyword-only marker `*` are
            // parsed and discarded; `*args`/`**kwargs` record the name.
            if self.eat_punct(Punct::Slash) {
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
                continue;
            }
            let starred = self.eat_punct(Punct::DoubleStar) || self.eat_punct(Punct::Star);
            if starred && (self.at_punct(Punct::Comma) || self.at_punct(Punct::RParen)) {
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
                continue;
            }
            let p = self.expect_ident()?;
            // Optional annotation / default (parsed and discarded).
            if self.eat_punct(Punct::Colon) {
                let _ = self.parse_expr()?;
            }
            if self.eat_punct(Punct::Assign) {
                let _ = self.parse_expr()?;
            }
            let p = self.name(p);
            self.st.names.push(p);
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RParen)?;
        let params = drain_from(&mut self.st.names, mark);
        if self.eat_punct(Punct::Arrow) {
            let _ = self.parse_expr()?;
        }
        let body = self.parse_suite()?;
        let end = body.last().map_or(name.span, Stmt::span);
        let start = decorators.first().map_or(kw.span(), |d| d.span);
        Ok(FuncDef {
            decorators,
            name,
            params,
            body,
            is_async: false,
            span: start.to(end),
        })
    }

    /// Parses `: suite` — either an indented block or a simple statement on
    /// the same line.
    fn parse_suite(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct(Punct::Colon)?;
        if !self.at(TokenKind::Newline) {
            // Simple suite on the same line.
            let stmt = self.parse_simple_stmt()?;
            self.expect_newline()?;
            return Ok(vec![stmt]);
        }
        while self.at(TokenKind::Newline) {
            self.bump();
        }
        if !self.at(TokenKind::Indent) {
            return Err(self.error("expected an indented block"));
        }
        self.bump();
        let mark = self.st.stmts.len();
        loop {
            while self.at(TokenKind::Newline) {
                self.bump();
            }
            if self.at(TokenKind::Dedent) {
                self.bump();
                return Ok(drain_from(&mut self.st.stmts, mark));
            }
            if self.at(TokenKind::Eof) {
                return Ok(drain_from(&mut self.st.stmts, mark));
            }
            let stmt = self.parse_stmt_recovering()?;
            self.st.stmts.push(stmt);
        }
    }

    /// Parses a simple (one-line, non-compound) statement, not consuming
    /// the trailing newline.
    fn parse_simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek_kind() {
            TokenKind::Keyword(Keyword::Return) => {
                let kw = self.bump();
                if self.at(TokenKind::Newline) || self.at(TokenKind::Eof) {
                    return Ok(Stmt::Return(ReturnStmt {
                        value: None,
                        span: kw.span(),
                    }));
                }
                let value = self.parse_testlist()?;
                let span = kw.span().to(value.span);
                Ok(Stmt::Return(ReturnStmt {
                    value: Some(value),
                    span,
                }))
            }
            TokenKind::Keyword(Keyword::Pass) => Ok(Stmt::Pass(self.bump().span())),
            TokenKind::Keyword(Keyword::Break) => Ok(Stmt::Break(self.bump().span())),
            TokenKind::Keyword(Keyword::Continue) => Ok(Stmt::Continue(self.bump().span())),
            TokenKind::Keyword(Keyword::Raise) => {
                let kw = self.bump();
                let mut span = kw.span();
                let exc = if self.at(TokenKind::Newline)
                    || self.at(TokenKind::Eof)
                    || self.at_punct(Punct::Semicolon)
                {
                    None
                } else {
                    let e = self.parse_expr()?;
                    span = span.to(e.span);
                    Some(e)
                };
                let cause = if exc.is_some() && self.at_keyword(Keyword::From) {
                    self.bump();
                    let c = self.parse_expr()?;
                    span = span.to(c.span);
                    Some(c)
                } else {
                    None
                };
                Ok(Stmt::Raise(RaiseStmt { exc, cause, span }))
            }
            TokenKind::Keyword(Keyword::Import) => {
                let kw = self.bump();
                let mark = self.st.strings.len();
                loop {
                    self.parse_dotted_name()?;
                    let name = self.text.as_str().to_owned();
                    self.st.strings.push(name);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                let span = kw.span().to(self.peek().span());
                Ok(Stmt::Import(ImportStmt {
                    names: drain_from(&mut self.st.strings, mark),
                    span,
                }))
            }
            TokenKind::Keyword(Keyword::From) => {
                let kw = self.bump();
                // The module's dotted name stays in `self.text`.
                self.parse_dotted_name()?;
                self.expect_keyword(Keyword::Import)?;
                let mark = self.st.strings.len();
                if self.at_punct(Punct::Star) {
                    self.bump();
                    let name = joined(self.text, "*");
                    self.st.strings.push(name);
                } else {
                    loop {
                        let n = self.expect_ident()?;
                        if self.at_keyword(Keyword::As) {
                            self.bump();
                            self.expect_ident()?;
                        }
                        let name = joined(self.text, n.text(self.src));
                        self.st.strings.push(name);
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                }
                let span = kw.span().to(self.peek().span());
                Ok(Stmt::Import(ImportStmt {
                    names: drain_from(&mut self.st.strings, mark),
                    span,
                }))
            }
            _ => {
                let expr = self.parse_testlist()?;
                let kind = self.peek_kind();
                let aug_op = aug_op(kind);
                if kind == TokenKind::Punct(Punct::Assign) || aug_op.is_some() {
                    self.bump();
                    let value = self.parse_testlist()?;
                    let span = expr.span.to(value.span);
                    Ok(Stmt::Assign(AssignStmt {
                        target: expr,
                        value,
                        aug_op,
                        span,
                    }))
                } else {
                    let span = expr.span;
                    Ok(Stmt::Expr(ExprStmt { expr, span }))
                }
            }
        }
    }

    /// Parses a dotted name `a.b.c` into `self.text`.
    fn parse_dotted_name(&mut self) -> Result<(), ParseError> {
        let first = self.expect_ident()?;
        self.text.clear();
        self.text.push_str(first.text(self.src));
        while self.at_punct(Punct::Dot) {
            self.bump();
            let next = self.expect_ident()?;
            self.text.push('.');
            self.text.push_str(next.text(self.src));
        }
        Ok(())
    }

    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        let kw = self.expect_keyword(Keyword::If)?;
        let mark = self.st.branches.len();
        let cond = self.parse_expr()?;
        let body = self.parse_suite()?;
        self.st.branches.push((cond, body));
        let mut orelse = None;
        let mut end = kw.span();
        loop {
            // `elif` / `else` appear at the same indentation, possibly after
            // blank lines.
            let save = self.pos;
            while self.at(TokenKind::Newline) {
                self.bump();
            }
            if self.at_keyword(Keyword::Elif) {
                self.bump();
                let cond = self.parse_expr()?;
                let body = self.parse_suite()?;
                end = body.last().map_or(end, Stmt::span);
                self.st.branches.push((cond, body));
            } else if self.at_keyword(Keyword::Else) {
                self.bump();
                let body = self.parse_suite()?;
                end = body.last().map_or(end, Stmt::span);
                orelse = Some(body);
                break;
            } else {
                self.pos = save;
                break;
            }
        }
        Ok(Stmt::If(IfStmt {
            branches: drain_from(&mut self.st.branches, mark),
            orelse,
            span: kw.span().to(end),
        }))
    }

    fn parse_match(&mut self) -> Result<Stmt, ParseError> {
        let kw = self.expect_keyword(Keyword::Match)?;
        let subject = self.parse_expr()?;
        self.expect_punct(Punct::Colon)?;
        self.expect_newline()?;
        while self.at(TokenKind::Newline) {
            self.bump();
        }
        if !self.at(TokenKind::Indent) {
            return Err(self.error("expected an indented block of `case` arms"));
        }
        self.bump();
        let mark = self.st.cases.len();
        loop {
            while self.at(TokenKind::Newline) {
                self.bump();
            }
            if self.at(TokenKind::Dedent) || self.at(TokenKind::Eof) {
                if self.at(TokenKind::Dedent) {
                    self.bump();
                }
                break;
            }
            let case_kw = self.expect_keyword(Keyword::Case)?;
            let pattern = self.parse_pattern()?;
            let body = self.parse_suite()?;
            let end = body.last().map_or(case_kw.span(), Stmt::span);
            self.st.cases.push(MatchCase {
                pattern,
                body,
                span: case_kw.span().to(end),
            });
        }
        if self.st.cases.len() == mark {
            return Err(self.error("`match` requires at least one `case`"));
        }
        let cases = drain_from(&mut self.st.cases, mark);
        let end = cases.last().map_or(kw.span(), |c| c.span);
        Ok(Stmt::Match(MatchStmt {
            subject,
            cases,
            span: kw.span().to(end),
        }))
    }

    /// Parses the comma-separated patterns up to `close`, pushed on the
    /// pattern stack from `mark`, and returns the closing token.
    fn parse_pattern_items(&mut self, close: Punct) -> Result<Token, ParseError> {
        while !self.at_punct(close) {
            let item = self.parse_pattern()?;
            self.st.patterns.push(item);
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(close)
    }

    fn parse_pattern(&mut self) -> Result<Pattern, ParseError> {
        let t = self.peek();
        let literal = |kind| Ok(Pattern::Literal(Expr::new(kind, t.span())));
        match t.kind {
            TokenKind::Punct(Punct::LBracket) => {
                self.bump();
                let mark = self.st.patterns.len();
                let close = self.parse_pattern_items(Punct::RBracket)?;
                let items = drain_from(&mut self.st.patterns, mark);
                Ok(Pattern::List(items, t.span().to(close.span())))
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let mark = self.st.patterns.len();
                let close = self.parse_pattern_items(Punct::RParen)?;
                if self.st.patterns.len() == mark + 1 {
                    Ok(self.st.patterns.pop().expect("one item"))
                } else {
                    let items = drain_from(&mut self.st.patterns, mark);
                    Ok(Pattern::Tuple(items, t.span().to(close.span())))
                }
            }
            TokenKind::Str => {
                self.bump();
                literal(ExprKind::Str(self.string(t)))
            }
            TokenKind::Int => {
                self.bump();
                literal(ExprKind::Int(int_value(t.text(self.src))))
            }
            TokenKind::Float => {
                self.bump();
                literal(ExprKind::Float(float_value(t.text(self.src))))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.bump();
                literal(ExprKind::Bool(true))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.bump();
                literal(ExprKind::Bool(false))
            }
            TokenKind::Keyword(Keyword::None) => {
                self.bump();
                literal(ExprKind::NoneLit)
            }
            TokenKind::Ident => {
                self.bump();
                if t.text(self.src) == "_" {
                    Ok(Pattern::Wildcard(t.span()))
                } else {
                    Ok(Pattern::Capture(self.name(t)))
                }
            }
            _ => Err(self.error(format!("expected a pattern, found {}", self.found()))),
        }
    }

    fn parse_while(&mut self) -> Result<Stmt, ParseError> {
        let kw = self.expect_keyword(Keyword::While)?;
        let cond = self.parse_expr()?;
        let body = self.parse_suite()?;
        let end = body.last().map_or(kw.span(), Stmt::span);
        Ok(Stmt::While(WhileStmt {
            cond,
            body,
            span: kw.span().to(end),
        }))
    }

    fn parse_for(&mut self) -> Result<Stmt, ParseError> {
        let kw = self.expect_keyword(Keyword::For)?;
        let target = self.parse_target_list()?;
        self.expect_keyword(Keyword::In)?;
        let iter = self.parse_expr()?;
        let body = self.parse_suite()?;
        let end = body.last().map_or(kw.span(), Stmt::span);
        Ok(Stmt::For(ForStmt {
            target,
            iter,
            body,
            span: kw.span().to(end),
        }))
    }

    /// Parses a `for`-loop target: one or more postfix expressions separated
    /// by commas (no comparison operators, so `in` stays a keyword here).
    fn parse_target_list(&mut self) -> Result<Expr, ParseError> {
        let first = self.parse_postfix()?;
        if !self.at_punct(Punct::Comma) {
            return Ok(first);
        }
        let mark = self.st.exprs.len();
        self.st.exprs.push(first);
        while self.eat_punct(Punct::Comma) {
            if self.at_keyword(Keyword::In) {
                break;
            }
            let item = self.parse_postfix()?;
            self.st.exprs.push(item);
        }
        Ok(self.tuple_from(mark))
    }

    // ----- expressions --------------------------------------------------

    /// `testlist ::= expr (',' expr)*` — a bare comma builds a tuple
    /// (`return ["close"], 2` from Table 2).
    fn parse_testlist(&mut self) -> Result<Expr, ParseError> {
        let first = self.parse_expr()?;
        if !self.at_punct(Punct::Comma) {
            return Ok(first);
        }
        let mark = self.st.exprs.len();
        self.st.exprs.push(first);
        while self.eat_punct(Punct::Comma) {
            // Trailing comma before newline/closer.
            if self.at(TokenKind::Newline)
                || self.at(TokenKind::Eof)
                || self.at_punct(Punct::RParen)
                || self.at_punct(Punct::RBracket)
            {
                break;
            }
            let item = self.parse_expr()?;
            self.st.exprs.push(item);
        }
        Ok(self.tuple_from(mark))
    }

    /// The bare tuple of the (nonempty) expressions pushed since `mark`,
    /// spanning its first to its last item.
    fn tuple_from(&mut self, mark: usize) -> Expr {
        let items = drain_from(&mut self.st.exprs, mark);
        let span = items
            .first()
            .expect("nonempty")
            .span
            .to(items.last().expect("nonempty").span);
        Expr::new(ExprKind::Tuple(items), span)
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        if self.at_keyword(Keyword::Lambda) {
            return self.parse_lambda();
        }
        self.parse_binary(OR)
    }

    fn parse_lambda(&mut self) -> Result<Expr, ParseError> {
        let kw = self.expect_keyword(Keyword::Lambda)?;
        let mark = self.st.names.len();
        while !self.at_punct(Punct::Colon) {
            let _ = self.eat_punct(Punct::DoubleStar) || self.eat_punct(Punct::Star);
            let p = self.expect_ident()?;
            if self.eat_punct(Punct::Assign) {
                let _ = self.parse_expr()?;
            }
            let p = self.name(p);
            self.st.names.push(p);
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Colon)?;
        let params = drain_from(&mut self.st.names, mark);
        let body = self.parse_expr()?;
        let span = kw.span().to(body.span);
        Ok(Expr::new(
            ExprKind::Lambda {
                params,
                body: Box::new(body),
            },
            span,
        ))
    }

    /// Parses the operators binding at least as tightly as `min` (and a
    /// prefix `not` when `min` admits it), by precedence climbing over
    /// [`binary_op`]: each right operand takes only operators binding more
    /// tightly than its own, so every level associates left.
    fn parse_binary(&mut self, min: u8) -> Result<Expr, ParseError> {
        let mut left = if min <= NOT && self.at_keyword(Keyword::Not) {
            let kw = self.bump();
            let operand = self.parse_binary(NOT)?;
            let span = kw.span().to(operand.span);
            Expr::new(
                ExprKind::UnaryOp {
                    op: "not",
                    operand: Box::new(operand),
                },
                span,
            )
        } else {
            self.parse_unary()?
        };
        while let Some((power, mut op)) = binary_op(self.peek_kind()) {
            if power < min {
                break;
            }
            match self.bump().kind {
                TokenKind::Keyword(Keyword::Is) if self.at_keyword(Keyword::Not) => {
                    self.bump();
                    op = "is not";
                }
                TokenKind::Keyword(Keyword::Not) => {
                    self.expect_keyword(Keyword::In)?;
                }
                _ => {}
            }
            let right = self.parse_binary(power + 1)?;
            let span = left.span.to(right.span);
            left = Expr::new(
                ExprKind::BinOp {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                },
                span,
            );
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.at_keyword(Keyword::Await) {
            let kw = self.bump();
            let operand = self.parse_unary()?;
            let span = kw.span().to(operand.span);
            return Ok(Expr::new(ExprKind::Await(Box::new(operand)), span));
        }
        let op = match self.peek_kind() {
            TokenKind::Punct(Punct::Minus) => "-",
            TokenKind::Punct(Punct::Plus) => "+",
            TokenKind::Punct(Punct::Tilde) => "~",
            _ => return self.parse_postfix(),
        };
        let t = self.bump();
        let operand = self.parse_unary()?;
        let span = t.span().to(operand.span);
        Ok(Expr::new(
            ExprKind::UnaryOp {
                op,
                operand: Box::new(operand),
            },
            span,
        ))
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.parse_atom()?;
        loop {
            if self.at_punct(Punct::Dot) {
                self.bump();
                let attr = self.ident()?;
                let span = expr.span.to(attr.span);
                expr = Expr::new(
                    ExprKind::Attribute {
                        value: Box::new(expr),
                        attr,
                    },
                    span,
                );
            } else if self.at_punct(Punct::LParen) {
                self.bump();
                let mark = self.st.exprs.len();
                while !self.at_punct(Punct::RParen) {
                    // `*args` / `**kwargs` unpacking.
                    if self.at_punct(Punct::Star) || self.at_punct(Punct::DoubleStar) {
                        let stars = if self.at_punct(Punct::DoubleStar) {
                            2
                        } else {
                            1
                        };
                        let t = self.bump();
                        let value = self.parse_expr()?;
                        let span = t.span().to(value.span);
                        self.st.exprs.push(Expr::new(
                            ExprKind::Starred {
                                stars,
                                value: Box::new(value),
                            },
                            span,
                        ));
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                        continue;
                    }
                    // Keyword arguments are parsed and flattened to their
                    // value (the analysis ignores arguments anyway).
                    let arg = self.parse_expr()?;
                    // `f(x for y in z)` — a bare generator expression as
                    // the sole argument.
                    if self.st.exprs.len() == mark
                        && (self.at_keyword(Keyword::For) || self.at_keyword(Keyword::Async))
                    {
                        let clauses = self.parse_comp_clauses()?;
                        let end = clauses
                            .last()
                            .map(|c| c.ifs.last().map(|e| e.span).unwrap_or(c.iter.span))
                            .unwrap_or(arg.span);
                        let span = arg.span.to(end);
                        self.st.exprs.push(Expr::new(
                            ExprKind::Comp {
                                kind: CompKind::Generator,
                                element: Box::new(arg),
                                value: None,
                                clauses,
                            },
                            span,
                        ));
                        break;
                    }
                    if self.eat_punct(Punct::Assign) {
                        let value = self.parse_expr()?;
                        self.st.exprs.push(value);
                    } else {
                        self.st.exprs.push(arg);
                    }
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                let close = self.expect_punct(Punct::RParen)?;
                let args = drain_from(&mut self.st.exprs, mark);
                let span = expr.span.to(close.span());
                expr = Expr::new(
                    ExprKind::Call {
                        func: Box::new(expr),
                        args,
                    },
                    span,
                );
            } else if self.at_punct(Punct::LBracket) {
                self.bump();
                let index = self.parse_expr()?;
                let close = self.expect_punct(Punct::RBracket)?;
                let span = expr.span.to(close.span());
                expr = Expr::new(
                    ExprKind::Subscript {
                        value: Box::new(expr),
                        index: Box::new(index),
                    },
                    span,
                );
            } else {
                return Ok(expr);
            }
        }
    }

    /// Whether a comprehension's `for` (or `async for`) starts here.
    fn at_comp_for(&self) -> bool {
        self.at_keyword(Keyword::For) || self.at_keyword(Keyword::Async)
    }

    /// The comprehension of `kind` whose element (and, for a dict, value)
    /// is parsed, closed by `close`; `open` is its opening bracket.
    fn parse_comp(
        &mut self,
        kind: CompKind,
        element: Expr,
        value: Option<Expr>,
        open: Token,
        close: Punct,
    ) -> Result<Expr, ParseError> {
        let clauses = self.parse_comp_clauses()?;
        let close = self.expect_punct(close)?;
        Ok(Expr::new(
            ExprKind::Comp {
                kind,
                element: Box::new(element),
                value: value.map(Box::new),
                clauses,
            },
            open.span().to(close.span()),
        ))
    }

    fn parse_atom(&mut self) -> Result<Expr, ParseError> {
        let t = self.peek();
        let leaf = |kind| Ok(Expr::new(kind, t.span()));
        match t.kind {
            TokenKind::Ident => {
                self.bump();
                leaf(ExprKind::Name(t.text(self.src).to_owned()))
            }
            TokenKind::Int => {
                self.bump();
                leaf(ExprKind::Int(int_value(t.text(self.src))))
            }
            TokenKind::Float => {
                self.bump();
                leaf(ExprKind::Float(float_value(t.text(self.src))))
            }
            TokenKind::Str => {
                self.bump();
                leaf(ExprKind::Str(self.string(t)))
            }
            TokenKind::FStr => {
                self.bump();
                leaf(ExprKind::FString(self.string(t)))
            }
            TokenKind::Keyword(Keyword::Lambda) => self.parse_lambda(),
            TokenKind::Keyword(Keyword::True) => {
                self.bump();
                leaf(ExprKind::Bool(true))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.bump();
                leaf(ExprKind::Bool(false))
            }
            TokenKind::Keyword(Keyword::None) => {
                self.bump();
                leaf(ExprKind::NoneLit)
            }
            TokenKind::Punct(Punct::LBracket) => {
                self.bump();
                let mark = self.st.exprs.len();
                while !self.at_punct(Punct::RBracket) {
                    let item = self.parse_expr()?;
                    // `[x for y in z]` — list comprehension.
                    if self.st.exprs.len() == mark && self.at_comp_for() {
                        return self.parse_comp(CompKind::List, item, None, t, Punct::RBracket);
                    }
                    self.st.exprs.push(item);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                let close = self.expect_punct(Punct::RBracket)?;
                let items = drain_from(&mut self.st.exprs, mark);
                Ok(Expr::new(ExprKind::List(items), t.span().to(close.span())))
            }
            TokenKind::Punct(Punct::LBrace) => {
                self.bump();
                // `{}` is an empty dict; `{a: b}` a dict; `{a, b}` a set.
                if self.at_punct(Punct::RBrace) {
                    let close = self.bump();
                    return Ok(Expr::new(
                        ExprKind::Dict(Vec::new()),
                        t.span().to(close.span()),
                    ));
                }
                let first = self.parse_expr()?;
                if self.eat_punct(Punct::Colon) {
                    let value = self.parse_expr()?;
                    // `{k: v for x in y}` — dict comprehension.
                    if self.at_comp_for() {
                        return self.parse_comp(
                            CompKind::Dict,
                            first,
                            Some(value),
                            t,
                            Punct::RBrace,
                        );
                    }
                    let mark = self.st.pairs.len();
                    self.st.pairs.push((first, value));
                    while self.eat_punct(Punct::Comma) {
                        if self.at_punct(Punct::RBrace) {
                            break;
                        }
                        let k = self.parse_expr()?;
                        self.expect_punct(Punct::Colon)?;
                        let v = self.parse_expr()?;
                        self.st.pairs.push((k, v));
                    }
                    let close = self.expect_punct(Punct::RBrace)?;
                    let pairs = drain_from(&mut self.st.pairs, mark);
                    Ok(Expr::new(ExprKind::Dict(pairs), t.span().to(close.span())))
                } else {
                    // `{x for y in z}` — set comprehension.
                    if self.at_comp_for() {
                        return self.parse_comp(CompKind::Set, first, None, t, Punct::RBrace);
                    }
                    let mark = self.st.exprs.len();
                    self.st.exprs.push(first);
                    while self.eat_punct(Punct::Comma) {
                        if self.at_punct(Punct::RBrace) {
                            break;
                        }
                        let item = self.parse_expr()?;
                        self.st.exprs.push(item);
                    }
                    let close = self.expect_punct(Punct::RBrace)?;
                    let items = drain_from(&mut self.st.exprs, mark);
                    Ok(Expr::new(ExprKind::Set(items), t.span().to(close.span())))
                }
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                if self.at_punct(Punct::RParen) {
                    let close = self.bump();
                    return Ok(Expr::new(
                        ExprKind::Tuple(Vec::new()),
                        t.span().to(close.span()),
                    ));
                }
                let first = self.parse_expr()?;
                if self.at_punct(Punct::Comma) {
                    let mark = self.st.exprs.len();
                    self.st.exprs.push(first);
                    while self.eat_punct(Punct::Comma) {
                        if self.at_punct(Punct::RParen) {
                            break;
                        }
                        let item = self.parse_expr()?;
                        self.st.exprs.push(item);
                    }
                    let close = self.expect_punct(Punct::RParen)?;
                    let items = drain_from(&mut self.st.exprs, mark);
                    Ok(Expr::new(ExprKind::Tuple(items), t.span().to(close.span())))
                } else if self.at_comp_for() {
                    // `(x for y in z)` — generator expression.
                    self.parse_comp(CompKind::Generator, first, None, t, Punct::RParen)
                } else {
                    self.expect_punct(Punct::RParen)?;
                    Ok(first)
                }
            }
            _ => Err(self.error(format!("expected an expression, found {}", self.found()))),
        }
    }

    /// Parses the `for target in iter [if cond]*` clause chain of a
    /// comprehension (the leading element is already consumed).
    fn parse_comp_clauses(&mut self) -> Result<Vec<CompClause>, ParseError> {
        let mark = self.st.clauses.len();
        loop {
            let is_async = if self.at_keyword(Keyword::Async) {
                self.bump();
                true
            } else {
                false
            };
            if !self.at_keyword(Keyword::For) {
                if is_async {
                    return Err(self.error("expected `for` after `async` in a comprehension"));
                }
                break;
            }
            self.bump();
            let target = self.parse_target_list()?;
            self.expect_keyword(Keyword::In)?;
            let iter = self.parse_binary(OR)?;
            let ifs = self.st.exprs.len();
            while self.at_keyword(Keyword::If) {
                self.bump();
                let cond = self.parse_binary(OR)?;
                self.st.exprs.push(cond);
            }
            let ifs = drain_from(&mut self.st.exprs, ifs);
            self.st.clauses.push(CompClause {
                target,
                iter,
                ifs,
                is_async,
            });
        }
        if self.st.clauses.len() == mark {
            return Err(self.error("a comprehension requires at least one `for` clause"));
        }
        Ok(drain_from(&mut self.st.clauses, mark))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_valve_listing() {
        // Listing 2.1 of the paper, verbatim.
        let src = r#"
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)
        self.clean = Pin(28, OUT)
        self.status = Pin(29, IN)

    @op_initial
    def test(self):
        if self.status.value():
            return ["open"]
        else:
            return ["clean"]

    @op
    def open(self):
        self.control.on()
        return ["close"]

    @op_final
    def close(self):
        self.control.off()
        return ["test"]

    @op_final
    def clean(self):
        self.clean.on()
        return ["test"]
"#;
        let m = parse_module(src).unwrap();
        let valve = m.class("Valve").unwrap();
        assert_eq!(valve.decorators.len(), 1);
        assert_eq!(valve.decorators[0].name(), Some("sys"));
        let names: Vec<&str> = valve.methods().map(|f| f.name.node.as_str()).collect();
        assert_eq!(names, vec!["__init__", "test", "open", "close", "clean"]);
        let test = valve.method("test").unwrap();
        assert_eq!(test.decorators[0].name(), Some("op_initial"));
        // The body of test is a single if with else.
        assert_eq!(test.body.len(), 1);
        match &test.body[0] {
            Stmt::If(ifs) => {
                assert_eq!(ifs.branches.len(), 1);
                assert!(ifs.orelse.is_some());
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_badsector_listing() {
        // Listing 2.2 of the paper, verbatim.
        let src = r#"
@claim("(!a.open) W b.open")
@sys(["a", "b"])
class BadSector:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial_final
    def open_a(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                return ["open_b"]
            case ["clean"]:
                self.a.clean()
                print("a failed")
                return []

    @op_final
    def open_b(self):
        match self.b.test():
            case ["open"]:
                self.b.open()
                self.a.close()
                self.b.close()
                return []
            case ["clean"]:
                self.b.clean()
                print("b failed")
                self.a.close()
                return []
"#;
        let m = parse_module(src).unwrap();
        let bs = m.class("BadSector").unwrap();
        assert_eq!(bs.decorators.len(), 2);
        assert_eq!(bs.decorators[0].name(), Some("claim"));
        assert_eq!(bs.decorators[1].name(), Some("sys"));
        // @sys(["a","b"]) argument list.
        let sys_args = bs.decorators[1].args();
        assert_eq!(sys_args.len(), 1);
        assert_eq!(sys_args[0].as_string_list().unwrap(), vec!["a", "b"]);
        let open_a = bs.method("open_a").unwrap();
        match &open_a.body[0] {
            Stmt::Match(m) => {
                assert_eq!(m.cases.len(), 2);
                match &m.cases[0].pattern {
                    Pattern::List(items, _) => {
                        assert_eq!(items.len(), 1);
                        assert!(matches!(&items[0], Pattern::Literal(e)
                            if matches!(&e.kind, ExprKind::Str(s) if s == "open")));
                    }
                    other => panic!("expected list pattern, got {other:?}"),
                }
                // The subject is self.a.test().
                assert_eq!(m.subject.as_self_method_call(), Some((Some("a"), "test")));
            }
            other => panic!("expected match, got {other:?}"),
        }
    }

    #[test]
    fn parses_tuple_returns_of_table2() {
        let src = r#"
def f(self):
    return ["close"], 2

def g(self):
    return ["close"], True

def h(self):
    return ["open", "clean"], 2
"#;
        let m = parse_module(src).unwrap();
        for stmt in &m.body {
            let Stmt::FuncDef(f) = stmt else {
                panic!("expected def")
            };
            let Stmt::Return(r) = &f.body[0] else {
                panic!("expected return")
            };
            let v = r.value.as_ref().unwrap();
            match &v.kind {
                ExprKind::Tuple(items) => {
                    assert_eq!(items.len(), 2);
                    assert!(items[0].as_string_list().is_some());
                }
                other => panic!("expected tuple, got {other:?}"),
            }
        }
    }

    #[test]
    fn parses_loops() {
        let src = r#"
def f(self):
    for i in range(10):
        self.a.step()
    while self.ready():
        self.b.poll()
"#;
        let m = parse_module(src).unwrap();
        let Stmt::FuncDef(f) = &m.body[0] else {
            panic!()
        };
        assert!(matches!(&f.body[0], Stmt::For(_)));
        assert!(matches!(&f.body[1], Stmt::While(_)));
    }

    #[test]
    fn parses_elif_chain() {
        let src = r#"
def f(self):
    if a:
        pass
    elif b:
        pass
    elif c:
        pass
    else:
        pass
"#;
        let m = parse_module(src).unwrap();
        let Stmt::FuncDef(f) = &m.body[0] else {
            panic!()
        };
        let Stmt::If(ifs) = &f.body[0] else { panic!() };
        assert_eq!(ifs.branches.len(), 3);
        assert!(ifs.orelse.is_some());
    }

    #[test]
    fn if_without_else_at_end_of_block() {
        let src = "def f(self):\n    if a:\n        pass\n\ndef g(self):\n    pass\n";
        let m = parse_module(src).unwrap();
        assert_eq!(m.body.len(), 2);
    }

    #[test]
    fn error_on_missing_block() {
        let err = parse_module("def f(self):\nx = 1\n").unwrap_err();
        assert!(err.message.contains("indented block"));
    }

    #[test]
    fn error_reports_position() {
        let err = parse_module("def f(:\n    pass\n").unwrap_err();
        assert!(err.span.start > 0);
    }

    #[test]
    fn wildcard_pattern() {
        let src = r#"
def f(self):
    match self.a.test():
        case ["open"]:
            pass
        case _:
            pass
"#;
        let m = parse_module(src).unwrap();
        let Stmt::FuncDef(f) = &m.body[0] else {
            panic!()
        };
        let Stmt::Match(ms) = &f.body[0] else {
            panic!()
        };
        assert!(matches!(ms.cases[1].pattern, Pattern::Wildcard(_)));
    }

    #[test]
    fn simple_suite_on_same_line() {
        let m = parse_module("def f(self): return []\n").unwrap();
        let Stmt::FuncDef(f) = &m.body[0] else {
            panic!()
        };
        assert!(matches!(&f.body[0], Stmt::Return(_)));
    }

    #[test]
    fn imports_are_recorded() {
        let m = parse_module("from machine import Pin\nimport time\n").unwrap();
        let Stmt::Import(i1) = &m.body[0] else {
            panic!()
        };
        assert_eq!(i1.names, vec!["machine.Pin"]);
        let Stmt::Import(i2) = &m.body[1] else {
            panic!()
        };
        assert_eq!(i2.names, vec!["time"]);
    }

    #[test]
    fn augmented_assignment() {
        let m = parse_module("x += 1\n").unwrap();
        let Stmt::Assign(a) = &m.body[0] else {
            panic!()
        };
        assert_eq!(a.aug_op, Some("+"));
    }

    #[test]
    fn is_and_not_in_comparisons() {
        let m = parse_module(
            "a = x is None
b = x is not None
c = y not in items
",
        )
        .unwrap();
        let ops: Vec<&str> = m
            .body
            .iter()
            .filter_map(|s| match s {
                Stmt::Assign(a) => match &a.value.kind {
                    ExprKind::BinOp { op, .. } => Some(*op),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(ops, vec!["is", "is not", "not in"]);
    }

    #[test]
    fn dict_and_set_literals() {
        let m = parse_module("d = {\"a\": 1, \"b\": 2}\ne = {}\ns = {1, 2, 3}\n").unwrap();
        let Stmt::Assign(d) = &m.body[0] else {
            panic!()
        };
        assert!(matches!(&d.value.kind, ExprKind::Dict(pairs) if pairs.len() == 2));
        let Stmt::Assign(e) = &m.body[1] else {
            panic!()
        };
        assert!(matches!(&e.value.kind, ExprKind::Dict(pairs) if pairs.is_empty()));
        let Stmt::Assign(st) = &m.body[2] else {
            panic!()
        };
        assert!(matches!(&st.value.kind, ExprKind::Set(items) if items.len() == 3));
    }

    #[test]
    fn keyword_arguments_flattened() {
        let m = parse_module("f(x, mode=3)\n").unwrap();
        let Stmt::Expr(e) = &m.body[0] else { panic!() };
        let ExprKind::Call { args, .. } = &e.expr.kind else {
            panic!()
        };
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn parses_try_except_finally() {
        let src = r#"
def f(self):
    try:
        self.a.open()
    except OSError as e:
        self.a.clean()
    except:
        pass
    else:
        self.log()
    finally:
        self.a.close()
"#;
        let m = parse_module(src).unwrap();
        let Stmt::FuncDef(f) = &m.body[0] else {
            panic!()
        };
        let Stmt::Try(t) = &f.body[0] else { panic!() };
        assert_eq!(t.handlers.len(), 2);
        assert!(t.handlers[0].exc.is_some());
        assert_eq!(t.handlers[0].name.as_ref().unwrap().node, "e");
        assert!(t.handlers[1].exc.is_none());
        assert!(t.orelse.is_some());
        assert!(t.finally.is_some());
    }

    #[test]
    fn try_without_handlers_or_finally_errors() {
        let err = parse_module("try:\n    pass\n").unwrap_err();
        assert!(err.message.contains("except"));
    }

    #[test]
    fn parses_with_statement() {
        let src = "with open(\"f\") as fh, lock:\n    fh.write(data)\n";
        let m = parse_module(src).unwrap();
        let Stmt::With(w) = &m.body[0] else { panic!() };
        assert_eq!(w.items.len(), 2);
        assert!(w.items[0].target.is_some());
        assert!(w.items[1].target.is_none());
    }

    #[test]
    fn parses_raise_forms() {
        let m = parse_module("raise\nraise ValueError(\"x\")\nraise E() from cause\n").unwrap();
        let Stmt::Raise(r0) = &m.body[0] else {
            panic!()
        };
        assert!(r0.exc.is_none());
        let Stmt::Raise(r1) = &m.body[1] else {
            panic!()
        };
        assert!(r1.exc.is_some() && r1.cause.is_none());
        let Stmt::Raise(r2) = &m.body[2] else {
            panic!()
        };
        assert!(r2.cause.is_some());
    }

    #[test]
    fn parses_async_def_and_await() {
        let src = "@task\nasync def run(self):\n    await self.a.open()\n";
        let m = parse_module(src).unwrap();
        let Stmt::FuncDef(f) = &m.body[0] else {
            panic!()
        };
        assert!(f.is_async);
        assert_eq!(f.decorators.len(), 1);
        let Stmt::Expr(e) = &f.body[0] else { panic!() };
        let ExprKind::Await(inner) = &e.expr.kind else {
            panic!("expected await, got {:?}", e.expr.kind)
        };
        assert!(inner.as_self_method_call().is_some());
    }

    #[test]
    fn parses_async_for_and_with_as_sync() {
        let src = "async def f(self):\n    async for x in src:\n        pass\n    \
                   async with lock:\n        pass\n";
        let m = parse_module(src).unwrap();
        let Stmt::FuncDef(f) = &m.body[0] else {
            panic!()
        };
        assert!(matches!(&f.body[0], Stmt::For(_)));
        assert!(matches!(&f.body[1], Stmt::With(_)));
    }

    #[test]
    fn parses_lambda() {
        let m = parse_module("f = lambda x, y=2: x + y\ng = lambda: 0\n").unwrap();
        let Stmt::Assign(a) = &m.body[0] else {
            panic!()
        };
        let ExprKind::Lambda { params, .. } = &a.value.kind else {
            panic!()
        };
        assert_eq!(params.len(), 2);
        let Stmt::Assign(b) = &m.body[1] else {
            panic!()
        };
        assert!(matches!(&b.value.kind, ExprKind::Lambda { params, .. } if params.is_empty()));
    }

    #[test]
    fn parses_comprehensions() {
        let m = parse_module(
            "a = [x * 2 for x in items if x > 0]\n\
             b = {k: v for k, v in pairs}\n\
             c = {x for x in s}\n\
             d = (y for y in gen)\n",
        )
        .unwrap();
        let kinds: Vec<CompKind> = m
            .body
            .iter()
            .map(|s| {
                let Stmt::Assign(a) = s else { panic!() };
                let ExprKind::Comp { kind, .. } = &a.value.kind else {
                    panic!("expected comp, got {:?}", a.value.kind)
                };
                *kind
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                CompKind::List,
                CompKind::Dict,
                CompKind::Set,
                CompKind::Generator
            ]
        );
        let Stmt::Assign(a) = &m.body[0] else {
            panic!()
        };
        let ExprKind::Comp { clauses, .. } = &a.value.kind else {
            panic!()
        };
        assert_eq!(clauses.len(), 1);
        assert_eq!(clauses[0].ifs.len(), 1);
    }

    #[test]
    fn parses_bare_generator_argument() {
        let m = parse_module("total = sum(r * 2 for r in rates)\n").unwrap();
        let Stmt::Assign(a) = &m.body[0] else {
            panic!()
        };
        let ExprKind::Call { args, .. } = &a.value.kind else {
            panic!("expected call, got {:?}", a.value.kind)
        };
        assert_eq!(args.len(), 1);
        let ExprKind::Comp { kind, clauses, .. } = &args[0].kind else {
            panic!("expected generator arg, got {:?}", args[0].kind)
        };
        assert_eq!(*kind, CompKind::Generator);
        assert_eq!(clauses.len(), 1);
    }

    #[test]
    fn parses_fstrings() {
        let m = parse_module("msg = f\"pin {n} high\"\n").unwrap();
        let Stmt::Assign(a) = &m.body[0] else {
            panic!()
        };
        assert!(matches!(&a.value.kind, ExprKind::FString(s) if s == "pin {n} high"));
    }

    #[test]
    fn parses_star_call_arguments() {
        let m = parse_module("f(a, *rest, **kw)\n").unwrap();
        let Stmt::Expr(e) = &m.body[0] else { panic!() };
        let ExprKind::Call { args, .. } = &e.expr.kind else {
            panic!()
        };
        assert_eq!(args.len(), 3);
        assert!(matches!(&args[1].kind, ExprKind::Starred { stars: 1, .. }));
        assert!(matches!(&args[2].kind, ExprKind::Starred { stars: 2, .. }));
    }

    #[test]
    fn parses_star_params() {
        let m = parse_module("def f(self, a, *args, **kwargs):\n    pass\n").unwrap();
        let Stmt::FuncDef(f) = &m.body[0] else {
            panic!()
        };
        let names: Vec<&str> = f.params.iter().map(|p| p.node.as_str()).collect();
        assert_eq!(names, vec!["self", "a", "args", "kwargs"]);
    }

    #[test]
    fn parses_extended_augmented_assignment() {
        let src = "a //= 2\nb %= 3\nc **= 2\nd |= 1\ne &= 1\nf ^= 1\ng <<= 1\nh >>= 1\n";
        let m = parse_module(src).unwrap();
        let ops: Vec<&str> = m
            .body
            .iter()
            .map(|s| {
                let Stmt::Assign(a) = s else { panic!() };
                a.aug_op.unwrap()
            })
            .collect();
        assert_eq!(ops, vec!["//", "%", "**", "|", "&", "^", "<<", ">>"]);
    }

    #[test]
    fn recovery_degrades_bad_statement_to_skip() {
        let m = parse_module_recover("x = 1\ny = = 2\nz = 3\n");
        assert_eq!(m.body.len(), 3);
        let Stmt::Degraded(d) = &m.body[1] else {
            panic!("expected degraded, got {:?}", m.body[1])
        };
        assert!(d.span.start < d.span.end);
        assert!(matches!(&m.body[2], Stmt::Assign(_)));
    }

    #[test]
    fn recovery_swallows_broken_compound_suite() {
        // The broken `def` header degrades together with its whole body;
        // the class after it still parses. (An unbalanced bracket would
        // instead join the rest of the file into one logical line, like
        // CPython's tokenizer — so the break here is a missing paren list.)
        let m = parse_module_recover(
            "def broken:\n    x = 1\n    y = 2\n\n@sys\nclass C:\n    def m(self):\n        pass\n",
        );
        assert!(matches!(&m.body[0], Stmt::Degraded(_)));
        assert!(m.class("C").is_some());
    }

    #[test]
    fn recovery_keeps_good_methods_of_a_class() {
        let src = "@sys\nclass C:\n    def good(self):\n        return [\"x\"]\n\n    \
                   def bad(self):\n        x = = 1\n        return [\"x\"]\n";
        let m = parse_module_recover(src);
        let c = m.class("C").unwrap();
        assert_eq!(c.methods().count(), 2);
        let bad = c.method("bad").unwrap();
        assert!(bad.body.iter().any(|s| matches!(s, Stmt::Degraded(_))));
        assert!(bad.body.iter().any(|s| matches!(s, Stmt::Return(_))));
    }

    #[test]
    fn recovery_is_total_on_garbage() {
        let m = parse_module_recover("?? !! \u{1F600} ||| def ( class\n    @@@\n");
        for s in &m.body {
            if let Stmt::Degraded(d) = s {
                assert!(d.span.start <= d.span.end);
            }
        }
    }

    #[test]
    fn strict_mode_still_rejects_unknown_syntax() {
        assert!(parse_module("y = = 2\n").is_err());
        assert!(parse_module("def broken(:\n    pass\n").is_err());
    }
}
