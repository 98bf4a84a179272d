//! Abstract syntax tree of the MicroPython subset.
//!
//! The subset covers what Shelley's analysis consumes (§2 of the paper):
//! decorated classes and methods, `if/elif/else`, `match/case`, `for`,
//! `while`, `return` (including the tuple forms of Table 2), assignments,
//! and call/attribute expressions. Everything carries spans for
//! diagnostics.

use crate::span::{Span, Spanned};

/// A parsed module (one source file).
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Top-level statements, in source order.
    pub body: Vec<Stmt>,
}

impl Module {
    /// Iterates over the top-level class definitions.
    pub fn classes(&self) -> impl Iterator<Item = &ClassDef> {
        self.body.iter().filter_map(|s| match s {
            Stmt::ClassDef(c) => Some(c),
            _ => None,
        })
    }

    /// Finds a top-level class by name.
    pub fn class(&self, name: &str) -> Option<&ClassDef> {
        self.classes().find(|c| c.name.node == name)
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `class Name(Base): ...` with decorators.
    ClassDef(ClassDef),
    /// `def name(params): ...` with decorators.
    FuncDef(FuncDef),
    /// `return`, `return expr` or `return expr, expr`.
    Return(ReturnStmt),
    /// `if/elif/else` chain.
    If(IfStmt),
    /// `match subject: case ...` statement.
    Match(MatchStmt),
    /// `while cond: body` (with optional `else`, which the subset ignores).
    While(WhileStmt),
    /// `for target in iter: body`.
    For(ForStmt),
    /// Assignment `target = value` (including augmented assignments, which
    /// the analysis treats identically).
    Assign(AssignStmt),
    /// A bare expression statement (typically a call).
    Expr(ExprStmt),
    /// `pass`.
    Pass(Span),
    /// `break`.
    Break(Span),
    /// `continue`.
    Continue(Span),
    /// `import module` / `from module import names` (recorded, not analyzed).
    Import(ImportStmt),
    /// `try/except/else/finally`.
    Try(TryStmt),
    /// `with ctx [as name], ...: body`.
    With(WithStmt),
    /// `raise [exc [from cause]]`.
    Raise(RaiseStmt),
    /// A region of source the parser could not fit into the calculus and
    /// degraded to `skip` (recovery mode only). The span covers the
    /// skipped source; `reason` says what was not understood.
    Degraded(DegradedStmt),
}

impl Stmt {
    /// The statement's source span.
    pub fn span(&self) -> Span {
        match self {
            Stmt::ClassDef(s) => s.span,
            Stmt::FuncDef(s) => s.span,
            Stmt::Return(s) => s.span,
            Stmt::If(s) => s.span,
            Stmt::Match(s) => s.span,
            Stmt::While(s) => s.span,
            Stmt::For(s) => s.span,
            Stmt::Assign(s) => s.span,
            Stmt::Expr(s) => s.span,
            Stmt::Pass(sp) | Stmt::Break(sp) | Stmt::Continue(sp) => *sp,
            Stmt::Import(s) => s.span,
            Stmt::Try(s) => s.span,
            Stmt::With(s) => s.span,
            Stmt::Raise(s) => s.span,
            Stmt::Degraded(s) => s.span,
        }
    }
}

/// A decorated class definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    /// Decorators, outermost first (`@claim(...)`, `@sys`, …).
    pub decorators: Vec<Decorator>,
    /// Class name.
    pub name: Spanned<String>,
    /// Base-class expressions.
    pub bases: Vec<Expr>,
    /// Class body.
    pub body: Vec<Stmt>,
    /// Full span.
    pub span: Span,
}

impl ClassDef {
    /// Iterates over the methods (function definitions) of the class body.
    pub fn methods(&self) -> impl Iterator<Item = &FuncDef> {
        self.body.iter().filter_map(|s| match s {
            Stmt::FuncDef(f) => Some(f),
            _ => None,
        })
    }

    /// Finds a method by name. A redefined name finds its last
    /// definition, the one Python binds.
    pub fn method(&self, name: &str) -> Option<&FuncDef> {
        self.method_index(name).and_then(|i| self.methods().nth(i))
    }

    /// The position in [`methods`](Self::methods) of the last
    /// definition of `name`: the one Python binds, which
    /// [`method`](Self::method) finds.
    pub fn method_index(&self, name: &str) -> Option<usize> {
        self.methods()
            .enumerate()
            .filter(|(_, m)| m.name.node == name)
            .last()
            .map(|(i, _)| i)
    }
}

/// A decorated function (method) definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Decorators, outermost first (`@op`, `@op_initial`, …).
    pub decorators: Vec<Decorator>,
    /// Function name.
    pub name: Spanned<String>,
    /// Parameter names (e.g. `self`). Star parameters (`*args`,
    /// `**kwargs`) are recorded by name only.
    pub params: Vec<Spanned<String>>,
    /// Function body.
    pub body: Vec<Stmt>,
    /// Whether this is an `async def`.
    pub is_async: bool,
    /// Full span.
    pub span: Span,
}

/// A decorator application, e.g. `@sys(["a", "b"])`.
#[derive(Debug, Clone, PartialEq)]
pub struct Decorator {
    /// The decorator expression (a name or a call).
    pub expr: Expr,
    /// Full span (including the `@`).
    pub span: Span,
}

impl Decorator {
    /// The decorator's base name (`sys` for both `@sys` and `@sys([...])`).
    pub fn name(&self) -> Option<&str> {
        match &self.expr.kind {
            ExprKind::Name(n) => Some(n),
            ExprKind::Call { func, .. } => match &func.kind {
                ExprKind::Name(n) => Some(n),
                _ => None,
            },
            _ => None,
        }
    }

    /// The decorator's arguments (`[]` for a bare `@sys`).
    pub fn args(&self) -> &[Expr] {
        match &self.expr.kind {
            ExprKind::Call { args, .. } => args,
            _ => &[],
        }
    }
}

/// A `return` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ReturnStmt {
    /// The returned expression (absent for bare `return`). Tuple returns
    /// like `return ["close"], 2` parse as a [`ExprKind::Tuple`].
    pub value: Option<Expr>,
    /// Full span.
    pub span: Span,
}

/// An `if`/`elif`/`else` chain.
#[derive(Debug, Clone, PartialEq)]
pub struct IfStmt {
    /// `(condition, body)` for the `if` and every `elif`, in order.
    pub branches: Vec<(Expr, Vec<Stmt>)>,
    /// The `else` body, if present.
    pub orelse: Option<Vec<Stmt>>,
    /// Full span.
    pub span: Span,
}

/// A `match` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchStmt {
    /// The matched subject.
    pub subject: Expr,
    /// The `case` arms, in order.
    pub cases: Vec<MatchCase>,
    /// Full span.
    pub span: Span,
}

/// One `case pattern: body` arm.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchCase {
    /// The pattern.
    pub pattern: Pattern,
    /// The arm body.
    pub body: Vec<Stmt>,
    /// Full span.
    pub span: Span,
}

/// A match pattern (the subset Shelley inspects).
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// A literal pattern (`"open"`, `2`, `True`).
    Literal(Expr),
    /// A list pattern (`["open"]`, `["open", "clean"]`).
    List(Vec<Pattern>, Span),
    /// A tuple pattern (`(["open"], value)`).
    Tuple(Vec<Pattern>, Span),
    /// A capture (`x`) — binds anything.
    Capture(Spanned<String>),
    /// The wildcard `_`.
    Wildcard(Span),
}

impl Pattern {
    /// The pattern's source span.
    pub fn span(&self) -> Span {
        match self {
            Pattern::Literal(e) => e.span,
            Pattern::List(_, s) | Pattern::Tuple(_, s) => *s,
            Pattern::Capture(c) => c.span,
            Pattern::Wildcard(s) => *s,
        }
    }
}

/// A `while` loop.
#[derive(Debug, Clone, PartialEq)]
pub struct WhileStmt {
    /// The loop condition (ignored by the analysis).
    pub cond: Expr,
    /// The loop body.
    pub body: Vec<Stmt>,
    /// Full span.
    pub span: Span,
}

/// A `for` loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ForStmt {
    /// The loop variable target.
    pub target: Expr,
    /// The iterated expression (ignored by the analysis).
    pub iter: Expr,
    /// The loop body.
    pub body: Vec<Stmt>,
    /// Full span.
    pub span: Span,
}

/// An assignment statement.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignStmt {
    /// The assignment target (name, attribute, tuple…).
    pub target: Expr,
    /// The assigned value.
    pub value: Expr,
    /// The augmented-assignment operator (`"+"` for `+=`, `"-"` for `-=`,
    /// …), or `None` for a plain `=`.
    pub aug_op: Option<&'static str>,
    /// Full span.
    pub span: Span,
}

/// A bare expression statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprStmt {
    /// The expression (usually a call).
    pub expr: Expr,
    /// Full span.
    pub span: Span,
}

/// A `try/except/else/finally` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct TryStmt {
    /// The `try` body.
    pub body: Vec<Stmt>,
    /// The `except` handlers, in order.
    pub handlers: Vec<ExceptHandler>,
    /// The `else` body, if present.
    pub orelse: Option<Vec<Stmt>>,
    /// The `finally` body, if present.
    pub finally: Option<Vec<Stmt>>,
    /// Full span.
    pub span: Span,
}

/// One `except [exc [as name]]: body` handler.
#[derive(Debug, Clone, PartialEq)]
pub struct ExceptHandler {
    /// The caught exception expression, if any.
    pub exc: Option<Expr>,
    /// The `as` binding, if any.
    pub name: Option<Spanned<String>>,
    /// The handler body.
    pub body: Vec<Stmt>,
    /// Full span.
    pub span: Span,
}

/// A `with` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct WithStmt {
    /// The context managers, in order.
    pub items: Vec<WithItem>,
    /// The body.
    pub body: Vec<Stmt>,
    /// Full span.
    pub span: Span,
}

/// One `ctx [as target]` item of a `with` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct WithItem {
    /// The context-manager expression.
    pub context: Expr,
    /// The `as` target, if any.
    pub target: Option<Expr>,
}

/// A `raise` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct RaiseStmt {
    /// The raised exception, if any.
    pub exc: Option<Expr>,
    /// The `from` cause, if any.
    pub cause: Option<Expr>,
    /// Full span.
    pub span: Span,
}

/// A source region degraded to `skip` by recovery-mode parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedStmt {
    /// Why the region was degraded (human-readable).
    pub reason: String,
    /// The skipped source region.
    pub span: Span,
}

/// An import statement (kept for completeness; not analyzed).
#[derive(Debug, Clone, PartialEq)]
pub struct ImportStmt {
    /// Raw dotted names imported.
    pub names: Vec<String>,
    /// Full span.
    pub span: Span,
}

/// An expression with its span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression's shape.
    pub kind: ExprKind,
    /// Where it came from.
    pub span: Span,
}

impl Expr {
    /// Pairs a kind with a span.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// If this is a call of a method of `self` or of one of its fields,
    /// the field and the method name: `self.test()` yields
    /// `(None, "test")` and `self.a.open(...)` yields
    /// `(Some("a"), "open")`. Deeper paths (`self.a.b.open()`) and other
    /// receivers yield `None`.
    pub fn as_self_method_call(&self) -> Option<(Option<&str>, &str)> {
        let ExprKind::Call { func, .. } = &self.kind else {
            return None;
        };
        let ExprKind::Attribute { value, attr } = &func.kind else {
            return None;
        };
        let is_self = |e: &Expr| matches!(&e.kind, ExprKind::Name(n) if n == "self");
        match &value.kind {
            _ if is_self(value) => Some((None, attr.node.as_str())),
            ExprKind::Attribute {
                value: receiver,
                attr: field,
            } if is_self(receiver) => Some((Some(field.node.as_str()), attr.node.as_str())),
            _ => None,
        }
    }

    /// If this is a list of string literals (`["open", "clean"]`), returns
    /// the strings.
    pub fn as_string_list(&self) -> Option<Vec<&str>> {
        match &self.kind {
            ExprKind::List(items) => items
                .iter()
                .map(|e| match &e.kind {
                    ExprKind::Str(s) => Some(s.as_str()),
                    _ => None,
                })
                .collect(),
            _ => None,
        }
    }
}

/// Expression shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// A bare name.
    Name(String),
    /// Attribute access `value.attr`.
    Attribute {
        /// The object expression.
        value: Box<Expr>,
        /// The attribute name.
        attr: Spanned<String>,
    },
    /// A call `func(args…)`.
    Call {
        /// The callee expression.
        func: Box<Expr>,
        /// Positional arguments.
        args: Vec<Expr>,
    },
    /// Subscript `value[index]`.
    Subscript {
        /// The container expression.
        value: Box<Expr>,
        /// The index expression.
        index: Box<Expr>,
    },
    /// String literal.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// `None`.
    NoneLit,
    /// List literal.
    List(Vec<Expr>),
    /// Tuple literal (from comma expressions or parenthesized tuples).
    Tuple(Vec<Expr>),
    /// Dict literal `{k: v, ...}`.
    Dict(Vec<(Expr, Expr)>),
    /// Set literal `{a, b}`.
    Set(Vec<Expr>),
    /// Binary operation (arithmetic/comparison; operator kept as text).
    BinOp {
        /// Operator spelling (`+`, `==`, `and`, …).
        op: &'static str,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation (`not x`, `-x`, `~x`).
    UnaryOp {
        /// Operator spelling.
        op: &'static str,
        /// Operand.
        operand: Box<Expr>,
    },
    /// `await expr`.
    Await(Box<Expr>),
    /// `lambda params: body`.
    Lambda {
        /// Parameter names.
        params: Vec<Spanned<String>>,
        /// The body expression.
        body: Box<Expr>,
    },
    /// An f-string literal; contents kept verbatim (interpolations are
    /// opaque to the analysis).
    FString(String),
    /// A starred argument `*x` (`stars == 1`) or `**x` (`stars == 2`) in a
    /// call or unpacking position.
    Starred {
        /// 1 for `*`, 2 for `**`.
        stars: u8,
        /// The unpacked value.
        value: Box<Expr>,
    },
    /// A comprehension (`[x for y in z]`, `{...}`, `(...)`).
    Comp {
        /// Which bracket form.
        kind: CompKind,
        /// The element (the key for dict comprehensions).
        element: Box<Expr>,
        /// The value of a dict comprehension (`{k: v for ...}`).
        value: Option<Box<Expr>>,
        /// The `for`/`if` clauses, in order.
        clauses: Vec<CompClause>,
    },
}

/// The bracket form of a comprehension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompKind {
    /// `[x for ...]`
    List,
    /// `{x for ...}`
    Set,
    /// `{k: v for ...}`
    Dict,
    /// `(x for ...)`
    Generator,
}

/// One `for target in iter [if cond]*` clause of a comprehension.
#[derive(Debug, Clone, PartialEq)]
pub struct CompClause {
    /// The loop target.
    pub target: Expr,
    /// The iterated expression.
    pub iter: Expr,
    /// The `if` filters attached to this clause.
    pub ifs: Vec<Expr>,
    /// Whether this is an `async for` clause.
    pub is_async: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(kind: ExprKind) -> Expr {
        Expr::new(kind, Span::default())
    }

    #[test]
    fn self_method_call_extraction() {
        // self.a.open()
        let call = expr(ExprKind::Call {
            func: Box::new(expr(ExprKind::Attribute {
                value: Box::new(expr(ExprKind::Attribute {
                    value: Box::new(expr(ExprKind::Name("self".into()))),
                    attr: Spanned::new("a".into(), Span::default()),
                })),
                attr: Spanned::new("open".into(), Span::default()),
            })),
            args: vec![],
        });
        assert_eq!(call.as_self_method_call(), Some((Some("a"), "open")));
    }

    #[test]
    fn direct_self_call() {
        let call = expr(ExprKind::Call {
            func: Box::new(expr(ExprKind::Attribute {
                value: Box::new(expr(ExprKind::Name("self".into()))),
                attr: Spanned::new("test".into(), Span::default()),
            })),
            args: vec![],
        });
        assert_eq!(call.as_self_method_call(), Some((None, "test")));
    }

    #[test]
    fn non_self_call_is_none() {
        let call = expr(ExprKind::Call {
            func: Box::new(expr(ExprKind::Name("print".into()))),
            args: vec![],
        });
        assert!(call.as_self_method_call().is_none());
        // self.a.b.open(): a path of two fields.
        let attr = |value: Expr, name: &str| {
            expr(ExprKind::Attribute {
                value: Box::new(value),
                attr: Spanned::new(name.into(), Span::default()),
            })
        };
        let deep = attr(
            attr(attr(expr(ExprKind::Name("self".into())), "a"), "b"),
            "open",
        );
        let call = expr(ExprKind::Call {
            func: Box::new(deep),
            args: vec![],
        });
        assert!(call.as_self_method_call().is_none());
    }

    #[test]
    fn string_list_extraction() {
        let list = expr(ExprKind::List(vec![
            expr(ExprKind::Str("open".into())),
            expr(ExprKind::Str("clean".into())),
        ]));
        assert_eq!(list.as_string_list().unwrap(), vec!["open", "clean"]);
        let mixed = expr(ExprKind::List(vec![expr(ExprKind::Int(1))]));
        assert!(mixed.as_string_list().is_none());
    }
}
