//! Recursive-descent parser for the MicroPython subset.

use crate::ast::*;
use crate::lexer::{tokenize, tokenize_recover, LexError};
use crate::span::{Span, Spanned};
use crate::token::{Keyword, Punct, Token, TokenKind};
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
    let tokens = tokenize(source)?;
    let mut p = Parser::new(tokens, false);
    let body = p.parse_stmts_until_eof()?;
    Ok(Module { body })
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
    let tokens = tokenize_recover(source);
    let mut p = Parser::new(tokens, true);
    let body = p
        .parse_stmts_until_eof()
        .expect("recovery-mode parsing is total");
    Module { body }
}

/// The parser. Statement and expression sequences are built on two
/// scratch stacks reused for the whole file: a sequence's items are pushed
/// as they parse, then drained off the top into a `Vec` of exactly their
/// number — one allocation, no spare capacity. The few other sequences
/// (decorators, parameters, branches, …) grow as usual and are shrunk to
/// fit. A parsed class can therefore be moved out of its module and kept
/// without holding the parser's growth slack.
struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// In recovery mode statements that fail to parse degrade to
    /// [`Stmt::Degraded`] instead of aborting.
    recover: bool,
    stmts: Vec<Stmt>,
    exprs: Vec<Expr>,
}

/// The items pushed on `stack` since `mark`, as an exact-capacity `Vec`.
fn drain_from<T>(stack: &mut Vec<T>, mark: usize) -> Vec<T> {
    stack.drain(mark..).collect()
}

/// `items`, without spare capacity.
fn fit<T>(mut items: Vec<T>) -> Vec<T> {
    items.shrink_to_fit();
    items
}

impl Parser {
    fn new(tokens: Vec<Token>, recover: bool) -> Parser {
        Parser {
            tokens,
            pos: 0,
            recover,
            stmts: Vec::new(),
            exprs: Vec::new(),
        }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    /// Consumes the current token. An `Ident`, `Str` or `FStr` payload is
    /// moved out, not cloned: the parser never re-reads a consumed token's
    /// payload (the `elif`/`except` look-aheads rewind over newlines only),
    /// so each name is allocated once, by the lexer.
    fn bump(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        let t = &mut self.tokens[self.pos.min(last)];
        let kind = match &mut t.kind {
            TokenKind::Ident(s) => TokenKind::Ident(std::mem::take(s)),
            TokenKind::Str(s) => TokenKind::Str(std::mem::take(s)),
            TokenKind::FStr(s) => TokenKind::FStr(std::mem::take(s)),
            other => other.clone(),
        };
        let t = Token { kind, span: t.span };
        if self.pos < last {
            self.pos += 1;
        }
        t
    }

    /// Consumes the current token and returns its text payload with its
    /// span; the caller has checked it is an `Ident`, `Str` or `FStr`.
    fn bump_text(&mut self) -> Spanned<String> {
        let t = self.bump();
        match t.kind {
            TokenKind::Ident(s) | TokenKind::Str(s) | TokenKind::FStr(s) => Spanned::new(s, t.span),
            other => unreachable!("bump_text on {other}"),
        }
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn at_punct(&self, p: Punct) -> bool {
        matches!(self.peek_kind(), TokenKind::Punct(q) if *q == p)
    }

    fn at_keyword(&self, k: Keyword) -> bool {
        matches!(self.peek_kind(), TokenKind::Keyword(q) if *q == k)
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
            Err(self.error(format!("expected `{p}`, found {}", self.peek_kind())))
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> Result<Token, ParseError> {
        if self.at_keyword(k) {
            Ok(self.bump())
        } else {
            Err(self.error(format!("expected `{k}`, found {}", self.peek_kind())))
        }
    }

    fn expect_newline(&mut self) -> Result<(), ParseError> {
        if self.at(&TokenKind::Newline) {
            self.bump();
            Ok(())
        } else if self.at(&TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.error(format!("expected end of line, found {}", self.peek_kind())))
        }
    }

    fn expect_ident(&mut self) -> Result<Spanned<String>, ParseError> {
        match self.peek_kind() {
            TokenKind::Ident(_) => Ok(self.bump_text()),
            other => Err(self.error(format!("expected an identifier, found {other}"))),
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            span: self.peek().span,
            message: message.into(),
        }
    }

    // ----- statements ---------------------------------------------------

    fn parse_stmts_until_eof(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mark = self.stmts.len();
        loop {
            while self.at(&TokenKind::Newline) {
                self.bump();
            }
            if self.at(&TokenKind::Eof) {
                return Ok(drain_from(&mut self.stmts, mark));
            }
            let stmt = self.parse_stmt_recovering()?;
            self.stmts.push(stmt);
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
        let start_span = self.peek().span;
        let marks = (self.stmts.len(), self.exprs.len());
        match self.parse_stmt() {
            Ok(s) => Ok(s),
            Err(e) => {
                // Drop what the broken statement left on the stacks.
                self.stmts.truncate(marks.0);
                self.exprs.truncate(marks.1);
                // Guarantee progress even when the error is on the very
                // token we started at (e.g. a stray dedent).
                if self.pos == start_pos && !self.at(&TokenKind::Eof) {
                    self.bump();
                }
                self.skip_degraded();
                let end_span = if self.pos > start_pos {
                    self.tokens[self.pos - 1].span
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
                    if depth == 0 && !self.at(&TokenKind::Indent) {
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
                // Allow `a; b` on one line — additional statements are
                // parsed by the caller via the same entry point when the
                // semicolon is present.
                if self.eat_punct(Punct::Semicolon) {
                    // Peek: a trailing semicolon before newline is allowed.
                    if !self.at(&TokenKind::Newline) && !self.at(&TokenKind::Eof) {
                        // Re-enter for the rest of the line; wrap in a
                        // synthetic sequence by returning the first and
                        // letting the caller loop. Simplest correct
                        // handling: parse the rest and splice.
                        // We parse remaining into a flat vec and return a
                        // synthetic If-free structure is overkill; instead
                        // we disallow multiple statements per line beyond
                        // the first to keep the AST simple.
                        return Err(self.error("multiple statements on one line are not supported"));
                    }
                }
                self.expect_newline()?;
                Ok(stmt)
            }
        }
    }

    fn parse_decorated(&mut self) -> Result<Stmt, ParseError> {
        let mut decorators = Vec::new();
        while self.at_punct(Punct::At) {
            let at = self.bump();
            let expr = self.parse_expr()?;
            let span = at.span.to(expr.span);
            decorators.push(Decorator { expr, span });
            self.expect_newline()?;
            while self.at(&TokenKind::Newline) {
                self.bump();
            }
        }
        let decorators = fit(decorators);
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
            f.span = kw.span.to(f.span);
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
        let mut handlers = Vec::new();
        let mut orelse = None;
        let mut finally = None;
        let mut end = body.last().map_or(kw.span, Stmt::span);
        loop {
            // Clauses appear at the same indentation, possibly after blank
            // lines (mirrors `elif`/`else` handling in `parse_if`).
            let save = self.pos;
            while self.at(&TokenKind::Newline) {
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
                    Some(self.expect_ident()?)
                } else {
                    None
                };
                let hbody = self.parse_suite()?;
                end = hbody.last().map_or(ekw.span, Stmt::span);
                handlers.push(ExceptHandler {
                    exc,
                    name,
                    body: hbody,
                    span: ekw.span.to(end),
                });
            } else if self.at_keyword(Keyword::Else)
                && !handlers.is_empty()
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
        if handlers.is_empty() && finally.is_none() {
            return Err(self.error("`try` requires at least one `except` or a `finally`"));
        }
        Ok(Stmt::Try(TryStmt {
            body,
            handlers: fit(handlers),
            orelse,
            finally,
            span: kw.span.to(end),
        }))
    }

    fn parse_with(&mut self) -> Result<Stmt, ParseError> {
        let kw = self.expect_keyword(Keyword::With)?;
        let mut items = Vec::new();
        loop {
            let context = self.parse_expr()?;
            let target = if self.at_keyword(Keyword::As) {
                self.bump();
                Some(self.parse_postfix()?)
            } else {
                None
            };
            items.push(WithItem { context, target });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        let body = self.parse_suite()?;
        let end = body.last().map_or(kw.span, Stmt::span);
        Ok(Stmt::With(WithStmt {
            items: fit(items),
            body,
            span: kw.span.to(end),
        }))
    }

    fn parse_class(&mut self, decorators: Vec<Decorator>) -> Result<ClassDef, ParseError> {
        let kw = self.expect_keyword(Keyword::Class)?;
        let name = self.expect_ident()?;
        let mark = self.exprs.len();
        if self.eat_punct(Punct::LParen) {
            while !self.at_punct(Punct::RParen) {
                let base = self.parse_expr()?;
                self.exprs.push(base);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RParen)?;
        }
        let bases = drain_from(&mut self.exprs, mark);
        let body = self.parse_suite()?;
        let end = body.last().map_or(name.span, Stmt::span);
        let start = decorators.first().map_or(kw.span, |d| d.span);
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
        let name = self.expect_ident()?;
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
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
            params.push(p);
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RParen)?;
        if self.eat_punct(Punct::Arrow) {
            let _ = self.parse_expr()?;
        }
        let body = self.parse_suite()?;
        let end = body.last().map_or(name.span, Stmt::span);
        let start = decorators.first().map_or(kw.span, |d| d.span);
        Ok(FuncDef {
            decorators,
            name,
            params: fit(params),
            body,
            is_async: false,
            span: start.to(end),
        })
    }

    /// Parses `: suite` — either an indented block or a simple statement on
    /// the same line.
    fn parse_suite(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct(Punct::Colon)?;
        if self.at(&TokenKind::Newline) {
            self.bump();
            while self.at(&TokenKind::Newline) {
                self.bump();
            }
            if !self.at(&TokenKind::Indent) {
                return Err(self.error("expected an indented block"));
            }
            self.bump();
            let mark = self.stmts.len();
            loop {
                while self.at(&TokenKind::Newline) {
                    self.bump();
                }
                if self.at(&TokenKind::Dedent) {
                    self.bump();
                    return Ok(drain_from(&mut self.stmts, mark));
                }
                if self.at(&TokenKind::Eof) {
                    return Ok(drain_from(&mut self.stmts, mark));
                }
                let stmt = self.parse_stmt_recovering()?;
                self.stmts.push(stmt);
            }
        } else {
            // Simple suite on the same line.
            let stmt = self.parse_simple_stmt()?;
            self.expect_newline()?;
            Ok(vec![stmt])
        }
    }

    /// Parses a simple (one-line, non-compound) statement, not consuming
    /// the trailing newline.
    fn parse_simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek_kind() {
            TokenKind::Keyword(Keyword::Return) => {
                let kw = self.bump();
                if self.at(&TokenKind::Newline) || self.at(&TokenKind::Eof) {
                    return Ok(Stmt::Return(ReturnStmt {
                        value: None,
                        span: kw.span,
                    }));
                }
                let value = self.parse_testlist()?;
                let span = kw.span.to(value.span);
                Ok(Stmt::Return(ReturnStmt {
                    value: Some(value),
                    span,
                }))
            }
            TokenKind::Keyword(Keyword::Pass) => Ok(Stmt::Pass(self.bump().span)),
            TokenKind::Keyword(Keyword::Break) => Ok(Stmt::Break(self.bump().span)),
            TokenKind::Keyword(Keyword::Continue) => Ok(Stmt::Continue(self.bump().span)),
            TokenKind::Keyword(Keyword::Raise) => {
                let kw = self.bump();
                let mut span = kw.span;
                let exc = if self.at(&TokenKind::Newline)
                    || self.at(&TokenKind::Eof)
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
                let mut names = vec![self.parse_dotted_name()?];
                while self.eat_punct(Punct::Comma) {
                    names.push(self.parse_dotted_name()?);
                }
                let span = kw.span.to(self.peek().span);
                Ok(Stmt::Import(ImportStmt {
                    names: fit(names),
                    span,
                }))
            }
            TokenKind::Keyword(Keyword::From) => {
                let kw = self.bump();
                let module = self.parse_dotted_name()?;
                self.expect_keyword(Keyword::Import)?;
                let mut names = vec![format!("{module}.*")];
                if self.at_punct(Punct::Star) {
                    self.bump();
                } else {
                    names.clear();
                    loop {
                        let n = self.expect_ident()?;
                        if self.at_keyword(Keyword::As) {
                            self.bump();
                            let _ = self.expect_ident()?;
                        }
                        names.push(format!("{module}.{}", n.node));
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                }
                let span = kw.span.to(self.peek().span);
                Ok(Stmt::Import(ImportStmt {
                    names: fit(names),
                    span,
                }))
            }
            _ => {
                let expr = self.parse_testlist()?;
                if self.at_punct(Punct::Assign) {
                    self.bump();
                    let value = self.parse_testlist()?;
                    let span = expr.span.to(value.span);
                    Ok(Stmt::Assign(AssignStmt {
                        target: expr,
                        value,
                        aug_op: None,
                        span,
                    }))
                } else if let TokenKind::Punct(
                    p @ (Punct::PlusAssign
                    | Punct::MinusAssign
                    | Punct::StarAssign
                    | Punct::SlashAssign
                    | Punct::DoubleSlashAssign
                    | Punct::PercentAssign
                    | Punct::DoubleStarAssign
                    | Punct::PipeAssign
                    | Punct::AmpAssign
                    | Punct::CaretAssign
                    | Punct::LShiftAssign
                    | Punct::RShiftAssign),
                ) = *self.peek_kind()
                {
                    let op = match p {
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
                        _ => ">>",
                    };
                    self.bump();
                    let value = self.parse_testlist()?;
                    let span = expr.span.to(value.span);
                    Ok(Stmt::Assign(AssignStmt {
                        target: expr,
                        value,
                        aug_op: Some(op.to_owned()),
                        span,
                    }))
                } else {
                    let span = expr.span;
                    Ok(Stmt::Expr(ExprStmt { expr, span }))
                }
            }
        }
    }

    fn parse_dotted_name(&mut self) -> Result<String, ParseError> {
        let mut name = self.expect_ident()?.node;
        while self.at_punct(Punct::Dot) {
            self.bump();
            name.push('.');
            name.push_str(&self.expect_ident()?.node);
        }
        Ok(name)
    }

    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        let kw = self.expect_keyword(Keyword::If)?;
        let mut branches = Vec::new();
        let cond = self.parse_expr()?;
        let body = self.parse_suite()?;
        branches.push((cond, body));
        let mut orelse = None;
        let mut end = kw.span;
        loop {
            // `elif` / `else` appear at the same indentation, possibly after
            // blank lines.
            let save = self.pos;
            while self.at(&TokenKind::Newline) {
                self.bump();
            }
            if self.at_keyword(Keyword::Elif) {
                self.bump();
                let cond = self.parse_expr()?;
                let body = self.parse_suite()?;
                end = body.last().map_or(end, Stmt::span);
                branches.push((cond, body));
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
            branches: fit(branches),
            orelse,
            span: kw.span.to(end),
        }))
    }

    fn parse_match(&mut self) -> Result<Stmt, ParseError> {
        let kw = self.expect_keyword(Keyword::Match)?;
        let subject = self.parse_expr()?;
        self.expect_punct(Punct::Colon)?;
        self.expect_newline()?;
        while self.at(&TokenKind::Newline) {
            self.bump();
        }
        if !self.at(&TokenKind::Indent) {
            return Err(self.error("expected an indented block of `case` arms"));
        }
        self.bump();
        let mut cases = Vec::new();
        loop {
            while self.at(&TokenKind::Newline) {
                self.bump();
            }
            if self.at(&TokenKind::Dedent) || self.at(&TokenKind::Eof) {
                if self.at(&TokenKind::Dedent) {
                    self.bump();
                }
                break;
            }
            let case_kw = self.expect_keyword(Keyword::Case)?;
            let pattern = self.parse_pattern()?;
            let body = self.parse_suite()?;
            let end = body.last().map_or(case_kw.span, Stmt::span);
            cases.push(MatchCase {
                pattern,
                body,
                span: case_kw.span.to(end),
            });
        }
        if cases.is_empty() {
            return Err(self.error("`match` requires at least one `case`"));
        }
        let end = cases.last().map_or(kw.span, |c| c.span);
        Ok(Stmt::Match(MatchStmt {
            subject,
            cases: fit(cases),
            span: kw.span.to(end),
        }))
    }

    fn parse_pattern(&mut self) -> Result<Pattern, ParseError> {
        match *self.peek_kind() {
            TokenKind::Punct(Punct::LBracket) => {
                let open = self.bump();
                let mut items = Vec::new();
                while !self.at_punct(Punct::RBracket) {
                    items.push(self.parse_pattern()?);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                let close = self.expect_punct(Punct::RBracket)?;
                Ok(Pattern::List(fit(items), open.span.to(close.span)))
            }
            TokenKind::Punct(Punct::LParen) => {
                let open = self.bump();
                let mut items = Vec::new();
                while !self.at_punct(Punct::RParen) {
                    items.push(self.parse_pattern()?);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                let close = self.expect_punct(Punct::RParen)?;
                if items.len() == 1 {
                    Ok(items.into_iter().next().expect("one item"))
                } else {
                    Ok(Pattern::Tuple(fit(items), open.span.to(close.span)))
                }
            }
            TokenKind::Str(_) => {
                let s = self.bump_text();
                Ok(Pattern::Literal(Expr::new(ExprKind::Str(s.node), s.span)))
            }
            TokenKind::Int(v) => {
                let t = self.bump();
                Ok(Pattern::Literal(Expr::new(ExprKind::Int(v), t.span)))
            }
            TokenKind::Float(v) => {
                let t = self.bump();
                Ok(Pattern::Literal(Expr::new(ExprKind::Float(v), t.span)))
            }
            TokenKind::Keyword(Keyword::True) => {
                let t = self.bump();
                Ok(Pattern::Literal(Expr::new(ExprKind::Bool(true), t.span)))
            }
            TokenKind::Keyword(Keyword::False) => {
                let t = self.bump();
                Ok(Pattern::Literal(Expr::new(ExprKind::Bool(false), t.span)))
            }
            TokenKind::Keyword(Keyword::None) => {
                let t = self.bump();
                Ok(Pattern::Literal(Expr::new(ExprKind::NoneLit, t.span)))
            }
            TokenKind::Ident(_) => {
                let name = self.bump_text();
                if name.node == "_" {
                    Ok(Pattern::Wildcard(name.span))
                } else {
                    Ok(Pattern::Capture(name))
                }
            }
            _ => Err(self.error(format!("expected a pattern, found {}", self.peek_kind()))),
        }
    }

    fn parse_while(&mut self) -> Result<Stmt, ParseError> {
        let kw = self.expect_keyword(Keyword::While)?;
        let cond = self.parse_expr()?;
        let body = self.parse_suite()?;
        let end = body.last().map_or(kw.span, Stmt::span);
        Ok(Stmt::While(WhileStmt {
            cond,
            body,
            span: kw.span.to(end),
        }))
    }

    fn parse_for(&mut self) -> Result<Stmt, ParseError> {
        let kw = self.expect_keyword(Keyword::For)?;
        let target = self.parse_target_list()?;
        self.expect_keyword(Keyword::In)?;
        let iter = self.parse_expr()?;
        let body = self.parse_suite()?;
        let end = body.last().map_or(kw.span, Stmt::span);
        Ok(Stmt::For(ForStmt {
            target,
            iter,
            body,
            span: kw.span.to(end),
        }))
    }

    /// Parses a `for`-loop target: one or more postfix expressions separated
    /// by commas (no comparison operators, so `in` stays a keyword here).
    fn parse_target_list(&mut self) -> Result<Expr, ParseError> {
        let first = self.parse_postfix()?;
        if !self.at_punct(Punct::Comma) {
            return Ok(first);
        }
        let mark = self.exprs.len();
        self.exprs.push(first);
        while self.eat_punct(Punct::Comma) {
            if self.at_keyword(Keyword::In) {
                break;
            }
            let item = self.parse_postfix()?;
            self.exprs.push(item);
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
        let mark = self.exprs.len();
        self.exprs.push(first);
        while self.eat_punct(Punct::Comma) {
            // Trailing comma before newline/closer.
            if self.at(&TokenKind::Newline)
                || self.at(&TokenKind::Eof)
                || self.at_punct(Punct::RParen)
                || self.at_punct(Punct::RBracket)
            {
                break;
            }
            let item = self.parse_expr()?;
            self.exprs.push(item);
        }
        Ok(self.tuple_from(mark))
    }

    /// The bare tuple of the (nonempty) expressions pushed since `mark`,
    /// spanning its first to its last item.
    fn tuple_from(&mut self, mark: usize) -> Expr {
        let items = drain_from(&mut self.exprs, mark);
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
        self.parse_or()
    }

    fn parse_lambda(&mut self) -> Result<Expr, ParseError> {
        let kw = self.expect_keyword(Keyword::Lambda)?;
        let mut params = Vec::new();
        while !self.at_punct(Punct::Colon) {
            let _ = self.eat_punct(Punct::DoubleStar) || self.eat_punct(Punct::Star);
            let p = self.expect_ident()?;
            if self.eat_punct(Punct::Assign) {
                let _ = self.parse_expr()?;
            }
            params.push(p);
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Colon)?;
        let body = self.parse_expr()?;
        let span = kw.span.to(body.span);
        Ok(Expr::new(
            ExprKind::Lambda {
                params: fit(params),
                body: Box::new(body),
            },
            span,
        ))
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_and()?;
        while self.at_keyword(Keyword::Or) {
            self.bump();
            let right = self.parse_and()?;
            let span = left.span.to(right.span);
            left = Expr::new(
                ExprKind::BinOp {
                    op: "or".into(),
                    left: Box::new(left),
                    right: Box::new(right),
                },
                span,
            );
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_not()?;
        while self.at_keyword(Keyword::And) {
            self.bump();
            let right = self.parse_not()?;
            let span = left.span.to(right.span);
            left = Expr::new(
                ExprKind::BinOp {
                    op: "and".into(),
                    left: Box::new(left),
                    right: Box::new(right),
                },
                span,
            );
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        if self.at_keyword(Keyword::Not) {
            let kw = self.bump();
            let operand = self.parse_not()?;
            let span = kw.span.to(operand.span);
            return Ok(Expr::new(
                ExprKind::UnaryOp {
                    op: "not".into(),
                    operand: Box::new(operand),
                },
                span,
            ));
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_bitor()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Punct(Punct::Eq) => "==",
                TokenKind::Punct(Punct::Ne) => "!=",
                TokenKind::Punct(Punct::Lt) => "<",
                TokenKind::Punct(Punct::Gt) => ">",
                TokenKind::Punct(Punct::Le) => "<=",
                TokenKind::Punct(Punct::Ge) => ">=",
                TokenKind::Keyword(Keyword::In) => "in",
                TokenKind::Keyword(Keyword::Is) => {
                    // `is` / `is not`.
                    self.bump();
                    let op = if self.at_keyword(Keyword::Not) {
                        self.bump();
                        "is not"
                    } else {
                        "is"
                    };
                    let right = self.parse_bitor()?;
                    let span = left.span.to(right.span);
                    left = Expr::new(
                        ExprKind::BinOp {
                            op: op.into(),
                            left: Box::new(left),
                            right: Box::new(right),
                        },
                        span,
                    );
                    continue;
                }
                TokenKind::Keyword(Keyword::Not) => {
                    // `not in` (prefix `not` is handled above comparison).
                    self.bump();
                    self.expect_keyword(Keyword::In)?;
                    let right = self.parse_bitor()?;
                    let span = left.span.to(right.span);
                    left = Expr::new(
                        ExprKind::BinOp {
                            op: "not in".into(),
                            left: Box::new(left),
                            right: Box::new(right),
                        },
                        span,
                    );
                    continue;
                }
                _ => return Ok(left),
            };
            self.bump();
            let right = self.parse_bitor()?;
            let span = left.span.to(right.span);
            left = Expr::new(
                ExprKind::BinOp {
                    op: op.into(),
                    left: Box::new(left),
                    right: Box::new(right),
                },
                span,
            );
        }
    }

    fn parse_bitor(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_arith()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Punct(Punct::Pipe) => "|",
                TokenKind::Punct(Punct::Amp) => "&",
                TokenKind::Punct(Punct::Caret) => "^",
                TokenKind::Punct(Punct::LShift) => "<<",
                TokenKind::Punct(Punct::RShift) => ">>",
                _ => return Ok(left),
            };
            self.bump();
            let right = self.parse_arith()?;
            let span = left.span.to(right.span);
            left = Expr::new(
                ExprKind::BinOp {
                    op: op.into(),
                    left: Box::new(left),
                    right: Box::new(right),
                },
                span,
            );
        }
    }

    fn parse_arith(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_term()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Punct(Punct::Plus) => "+",
                TokenKind::Punct(Punct::Minus) => "-",
                _ => return Ok(left),
            };
            self.bump();
            let right = self.parse_term()?;
            let span = left.span.to(right.span);
            left = Expr::new(
                ExprKind::BinOp {
                    op: op.into(),
                    left: Box::new(left),
                    right: Box::new(right),
                },
                span,
            );
        }
    }

    fn parse_term(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Punct(Punct::Star) => "*",
                TokenKind::Punct(Punct::Slash) => "/",
                TokenKind::Punct(Punct::DoubleSlash) => "//",
                TokenKind::Punct(Punct::Percent) => "%",
                TokenKind::Punct(Punct::DoubleStar) => "**",
                _ => return Ok(left),
            };
            self.bump();
            let right = self.parse_unary()?;
            let span = left.span.to(right.span);
            left = Expr::new(
                ExprKind::BinOp {
                    op: op.into(),
                    left: Box::new(left),
                    right: Box::new(right),
                },
                span,
            );
        }
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.at_keyword(Keyword::Await) {
            let kw = self.bump();
            let operand = self.parse_unary()?;
            let span = kw.span.to(operand.span);
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
        let span = t.span.to(operand.span);
        Ok(Expr::new(
            ExprKind::UnaryOp {
                op: op.into(),
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
                let attr = self.expect_ident()?;
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
                let mark = self.exprs.len();
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
                        let span = t.span.to(value.span);
                        self.exprs.push(Expr::new(
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
                    if self.exprs.len() == mark
                        && (self.at_keyword(Keyword::For) || self.at_keyword(Keyword::Async))
                    {
                        let clauses = self.parse_comp_clauses()?;
                        let end = clauses
                            .last()
                            .map(|c| c.ifs.last().map(|e| e.span).unwrap_or(c.iter.span))
                            .unwrap_or(arg.span);
                        let span = arg.span.to(end);
                        self.exprs.push(Expr::new(
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
                    if self.at_punct(Punct::Assign) {
                        self.bump();
                        let value = self.parse_expr()?;
                        self.exprs.push(value);
                        let _ = arg;
                    } else {
                        self.exprs.push(arg);
                    }
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                let close = self.expect_punct(Punct::RParen)?;
                let args = drain_from(&mut self.exprs, mark);
                let span = expr.span.to(close.span);
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
                let span = expr.span.to(close.span);
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

    fn parse_atom(&mut self) -> Result<Expr, ParseError> {
        match *self.peek_kind() {
            TokenKind::Ident(_) => {
                let name = self.bump_text();
                Ok(Expr::new(ExprKind::Name(name.node), name.span))
            }
            TokenKind::Int(v) => {
                let t = self.bump();
                Ok(Expr::new(ExprKind::Int(v), t.span))
            }
            TokenKind::Float(v) => {
                let t = self.bump();
                Ok(Expr::new(ExprKind::Float(v), t.span))
            }
            TokenKind::Str(_) => {
                let s = self.bump_text();
                Ok(Expr::new(ExprKind::Str(s.node), s.span))
            }
            TokenKind::FStr(_) => {
                let s = self.bump_text();
                Ok(Expr::new(ExprKind::FString(s.node), s.span))
            }
            TokenKind::Keyword(Keyword::Lambda) => self.parse_lambda(),
            TokenKind::Keyword(Keyword::True) => {
                let t = self.bump();
                Ok(Expr::new(ExprKind::Bool(true), t.span))
            }
            TokenKind::Keyword(Keyword::False) => {
                let t = self.bump();
                Ok(Expr::new(ExprKind::Bool(false), t.span))
            }
            TokenKind::Keyword(Keyword::None) => {
                let t = self.bump();
                Ok(Expr::new(ExprKind::NoneLit, t.span))
            }
            TokenKind::Punct(Punct::LBracket) => {
                let open = self.bump();
                let mark = self.exprs.len();
                while !self.at_punct(Punct::RBracket) {
                    let item = self.parse_expr()?;
                    self.exprs.push(item);
                    // `[x for y in z]` — list comprehension.
                    if self.exprs.len() == mark + 1
                        && (self.at_keyword(Keyword::For) || self.at_keyword(Keyword::Async))
                    {
                        let element = self.exprs.pop().expect("one element");
                        let clauses = self.parse_comp_clauses()?;
                        let close = self.expect_punct(Punct::RBracket)?;
                        return Ok(Expr::new(
                            ExprKind::Comp {
                                kind: CompKind::List,
                                element: Box::new(element),
                                value: None,
                                clauses,
                            },
                            open.span.to(close.span),
                        ));
                    }
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                let close = self.expect_punct(Punct::RBracket)?;
                let items = drain_from(&mut self.exprs, mark);
                Ok(Expr::new(ExprKind::List(items), open.span.to(close.span)))
            }
            TokenKind::Punct(Punct::LBrace) => {
                let open = self.bump();
                // `{}` is an empty dict; `{a: b}` a dict; `{a, b}` a set.
                if self.at_punct(Punct::RBrace) {
                    let close = self.bump();
                    return Ok(Expr::new(
                        ExprKind::Dict(Vec::new()),
                        open.span.to(close.span),
                    ));
                }
                let first = self.parse_expr()?;
                if self.eat_punct(Punct::Colon) {
                    let value = self.parse_expr()?;
                    // `{k: v for x in y}` — dict comprehension.
                    if self.at_keyword(Keyword::For) || self.at_keyword(Keyword::Async) {
                        let clauses = self.parse_comp_clauses()?;
                        let close = self.expect_punct(Punct::RBrace)?;
                        return Ok(Expr::new(
                            ExprKind::Comp {
                                kind: CompKind::Dict,
                                element: Box::new(first),
                                value: Some(Box::new(value)),
                                clauses,
                            },
                            open.span.to(close.span),
                        ));
                    }
                    let mut pairs = vec![(first, value)];
                    while self.eat_punct(Punct::Comma) {
                        if self.at_punct(Punct::RBrace) {
                            break;
                        }
                        let k = self.parse_expr()?;
                        self.expect_punct(Punct::Colon)?;
                        let v = self.parse_expr()?;
                        pairs.push((k, v));
                    }
                    let close = self.expect_punct(Punct::RBrace)?;
                    Ok(Expr::new(
                        ExprKind::Dict(fit(pairs)),
                        open.span.to(close.span),
                    ))
                } else {
                    // `{x for y in z}` — set comprehension.
                    if self.at_keyword(Keyword::For) || self.at_keyword(Keyword::Async) {
                        let clauses = self.parse_comp_clauses()?;
                        let close = self.expect_punct(Punct::RBrace)?;
                        return Ok(Expr::new(
                            ExprKind::Comp {
                                kind: CompKind::Set,
                                element: Box::new(first),
                                value: None,
                                clauses,
                            },
                            open.span.to(close.span),
                        ));
                    }
                    let mark = self.exprs.len();
                    self.exprs.push(first);
                    while self.eat_punct(Punct::Comma) {
                        if self.at_punct(Punct::RBrace) {
                            break;
                        }
                        let item = self.parse_expr()?;
                        self.exprs.push(item);
                    }
                    let close = self.expect_punct(Punct::RBrace)?;
                    let items = drain_from(&mut self.exprs, mark);
                    Ok(Expr::new(ExprKind::Set(items), open.span.to(close.span)))
                }
            }
            TokenKind::Punct(Punct::LParen) => {
                let open = self.bump();
                if self.at_punct(Punct::RParen) {
                    let close = self.bump();
                    return Ok(Expr::new(
                        ExprKind::Tuple(Vec::new()),
                        open.span.to(close.span),
                    ));
                }
                let first = self.parse_expr()?;
                if self.at_punct(Punct::Comma) {
                    let mark = self.exprs.len();
                    self.exprs.push(first);
                    while self.eat_punct(Punct::Comma) {
                        if self.at_punct(Punct::RParen) {
                            break;
                        }
                        let item = self.parse_expr()?;
                        self.exprs.push(item);
                    }
                    let close = self.expect_punct(Punct::RParen)?;
                    let items = drain_from(&mut self.exprs, mark);
                    Ok(Expr::new(ExprKind::Tuple(items), open.span.to(close.span)))
                } else if self.at_keyword(Keyword::For) || self.at_keyword(Keyword::Async) {
                    // `(x for y in z)` — generator expression.
                    let clauses = self.parse_comp_clauses()?;
                    let close = self.expect_punct(Punct::RParen)?;
                    Ok(Expr::new(
                        ExprKind::Comp {
                            kind: CompKind::Generator,
                            element: Box::new(first),
                            value: None,
                            clauses,
                        },
                        open.span.to(close.span),
                    ))
                } else {
                    self.expect_punct(Punct::RParen)?;
                    Ok(first)
                }
            }
            _ => Err(self.error(format!(
                "expected an expression, found {}",
                self.peek_kind()
            ))),
        }
    }

    /// Parses the `for target in iter [if cond]*` clause chain of a
    /// comprehension (the leading element is already consumed).
    fn parse_comp_clauses(&mut self) -> Result<Vec<CompClause>, ParseError> {
        let mut clauses = Vec::new();
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
            let iter = self.parse_or()?;
            let mark = self.exprs.len();
            while self.at_keyword(Keyword::If) {
                self.bump();
                let cond = self.parse_or()?;
                self.exprs.push(cond);
            }
            clauses.push(CompClause {
                target,
                iter,
                ifs: drain_from(&mut self.exprs, mark),
                is_async,
            });
        }
        if clauses.is_empty() {
            return Err(self.error("a comprehension requires at least one `for` clause"));
        }
        Ok(fit(clauses))
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
        assert_eq!(a.aug_op.as_deref(), Some("+"));
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
        let ops: Vec<String> = m
            .body
            .iter()
            .filter_map(|s| match s {
                Stmt::Assign(a) => match &a.value.kind {
                    ExprKind::BinOp { op, .. } => Some(op.clone()),
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
                a.aug_op.as_deref().unwrap()
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
