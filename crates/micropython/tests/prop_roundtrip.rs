//! Property test: printing an AST and reparsing it reaches a fixpoint.
//!
//! Random ASTs are generated structurally (not from random text), printed
//! with `printer::print_module`, reparsed, and printed again — the two
//! printed forms must be identical. This exercises the printer/parser pair
//! on shapes far beyond the hand-written tests.

use micropython_parser::ast::*;
use micropython_parser::printer::print_module;
use micropython_parser::{parse_module, Span, Spanned};
use proptest::prelude::*;

fn sp<T>(node: T) -> Spanned<T> {
    Spanned::new(node, Span::default())
}

fn expr(kind: ExprKind) -> Expr {
    Expr::new(kind, Span::default())
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("not a keyword", |s| {
        micropython_parser::Keyword::from_str(s).is_none() && s != "_"
    })
}

/// Every binary operator the parser builds, over all of its precedence
/// levels (`|`, `&`, `^` and the shifts share one).
const BINARY_OPS: [&str; 24] = [
    "or", "and", "==", "!=", "<", ">", "<=", ">=", "in", "not in", "is", "is not", "|", "&", "^",
    "<<", ">>", "+", "-", "*", "/", "//", "%", "**",
];

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_name().prop_map(|n| expr(ExprKind::Name(n))),
        (-1000i64..1000).prop_map(|v| expr(ExprKind::Int(v))),
        Just(expr(ExprKind::Bool(true))),
        Just(expr(ExprKind::Bool(false))),
        Just(expr(ExprKind::NoneLit)),
        "[a-zA-Z0-9 _.!?]{0,10}".prop_map(|s| expr(ExprKind::Str(s))),
    ];
    leaf.prop_recursive(3, 20, 3, |inner| {
        prop_oneof![
            (inner.clone(), arb_name()).prop_map(|(value, attr)| expr(ExprKind::Attribute {
                value: Box::new(value),
                attr: sp(attr),
            })),
            // `await x` (the printer parenthesizes where required).
            inner
                .clone()
                .prop_map(|o| expr(ExprKind::Await(Box::new(o)))),
            // `lambda p: body`.
            (proptest::collection::vec(arb_name(), 0..3), inner.clone()).prop_map(
                |(params, body)| expr(ExprKind::Lambda {
                    params: params.into_iter().map(sp).collect(),
                    body: Box::new(body),
                })
            ),
            // f-string with interpolation-free odd contents.
            "[a-zA-Z0-9 _.!?]{0,10}".prop_map(|s| expr(ExprKind::FString(s))),
            // `[e for v in i if c]` — single-clause comprehension of each kind.
            (
                prop_oneof![
                    Just(CompKind::List),
                    Just(CompKind::Set),
                    Just(CompKind::Generator)
                ],
                inner.clone(),
                arb_name(),
                inner.clone(),
                proptest::collection::vec(inner.clone(), 0..2)
            )
                .prop_map(|(kind, element, v, iter, ifs)| expr(ExprKind::Comp {
                    kind,
                    element: Box::new(element),
                    value: None,
                    clauses: vec![CompClause {
                        target: expr(ExprKind::Name(v)),
                        iter,
                        ifs,
                        is_async: false,
                    }],
                })),
            (inner.clone(), arb_name(), inner.clone()).prop_map(|(k, v, iter)| {
                expr(ExprKind::Comp {
                    kind: CompKind::Dict,
                    element: Box::new(k.clone()),
                    value: Some(Box::new(k)),
                    clauses: vec![CompClause {
                        target: expr(ExprKind::Name(v)),
                        iter,
                        ifs: vec![],
                        is_async: false,
                    }],
                })
            }),
            (
                inner.clone(),
                proptest::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(func, args)| expr(ExprKind::Call {
                    func: Box::new(func),
                    args,
                })),
            proptest::collection::vec(inner.clone(), 0..3)
                .prop_map(|items| expr(ExprKind::List(items))),
            (
                (0..BINARY_OPS.len()).prop_map(|i| BINARY_OPS[i]),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| expr(ExprKind::BinOp {
                    op,
                    left: Box::new(l),
                    right: Box::new(r),
                })),
            (inner.clone(), inner.clone()).prop_map(|(v, i)| expr(ExprKind::Subscript {
                value: Box::new(v),
                index: Box::new(i),
            })),
            inner.clone().prop_map(|o| expr(ExprKind::UnaryOp {
                op: "not",
                operand: Box::new(o),
            })),
        ]
    })
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    let leaf = prop_oneof![
        Just(Stmt::Pass(Span::default())),
        arb_expr().prop_map(|e| Stmt::Expr(ExprStmt {
            expr: e,
            span: Span::default(),
        })),
        (arb_expr()).prop_map(|v| Stmt::Return(ReturnStmt {
            value: Some(v),
            span: Span::default(),
        })),
        Just(Stmt::Return(ReturnStmt {
            value: None,
            span: Span::default(),
        })),
        (arb_name(), arb_expr()).prop_map(|(n, v)| Stmt::Assign(AssignStmt {
            target: expr(ExprKind::Name(n)),
            value: v,
            aug_op: None,
            span: Span::default(),
        })),
        (
            arb_name(),
            prop_oneof![Just("+"), Just("//"), Just("%"), Just("**"), Just("|")],
            arb_expr()
        )
            .prop_map(|(n, op, v)| Stmt::Assign(AssignStmt {
                target: expr(ExprKind::Name(n)),
                value: v,
                aug_op: Some(op),
                span: Span::default(),
            })),
        proptest::option::of(arb_expr()).prop_map(|exc| Stmt::Raise(RaiseStmt {
            exc,
            cause: None,
            span: Span::default(),
        })),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        let body = proptest::collection::vec(inner.clone(), 1..3);
        prop_oneof![
            (arb_expr(), body.clone(), proptest::option::of(body.clone())).prop_map(
                |(cond, then, orelse)| Stmt::If(IfStmt {
                    branches: vec![(cond, then)],
                    orelse,
                    span: Span::default(),
                })
            ),
            (arb_expr(), body.clone()).prop_map(|(cond, b)| Stmt::While(WhileStmt {
                cond,
                body: b,
                span: Span::default(),
            })),
            (arb_name(), arb_expr(), body.clone()).prop_map(|(v, iter, b)| {
                Stmt::For(ForStmt {
                    target: expr(ExprKind::Name(v)),
                    iter,
                    body: b,
                    span: Span::default(),
                })
            }),
            // try/except/else/finally — always at least one handler.
            (
                body.clone(),
                proptest::collection::vec(
                    (
                        proptest::option::of(arb_name()),
                        proptest::option::of(arb_name()),
                        body.clone()
                    ),
                    1..3
                ),
                proptest::option::of(body.clone()),
                proptest::option::of(body.clone())
            )
                .prop_map(|(b, hs, orelse, finally)| {
                    let mut handlers: Vec<ExceptHandler> = hs
                        .into_iter()
                        .map(|(exc, name, hbody)| ExceptHandler {
                            name: exc.as_ref().and(name).map(sp),
                            exc: exc.map(|e| expr(ExprKind::Name(e))),
                            body: hbody,
                            span: Span::default(),
                        })
                        .collect();
                    // A bare `except:` must come last to reparse cleanly.
                    handlers.sort_by_key(|h| h.exc.is_none());
                    let orelse = handlers.first().and(orelse);
                    Stmt::Try(TryStmt {
                        body: b,
                        handlers,
                        orelse,
                        finally,
                        span: Span::default(),
                    })
                }),
            // with items: body
            (
                proptest::collection::vec((arb_expr(), proptest::option::of(arb_name())), 1..3),
                body.clone()
            )
                .prop_map(|(items, b)| Stmt::With(WithStmt {
                    items: items
                        .into_iter()
                        .map(|(context, target)| WithItem {
                            context,
                            target: target.map(|n| expr(ExprKind::Name(n))),
                        })
                        .collect(),
                    body: b,
                    span: Span::default(),
                })),
            // (async) def with decorators and parameters.
            (
                proptest::collection::vec(arb_name(), 0..2),
                arb_name(),
                proptest::collection::vec(arb_name(), 0..3),
                prop_oneof![Just(false), Just(true)],
                body.clone()
            )
                .prop_map(|(decs, name, params, is_async, b)| {
                    Stmt::FuncDef(FuncDef {
                        decorators: decs
                            .into_iter()
                            .map(|d| Decorator {
                                expr: expr(ExprKind::Name(d)),
                                span: Span::default(),
                            })
                            .collect(),
                        name: sp(name),
                        params: params.into_iter().map(sp).collect(),
                        body: b,
                        is_async,
                        span: Span::default(),
                    })
                }),
        ]
    })
}

fn arb_module() -> impl Strategy<Value = Module> {
    proptest::collection::vec(arb_stmt(), 1..6).prop_map(|body| Module { body })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// print → parse → print is a fixpoint.
    #[test]
    fn print_parse_print_fixpoint(module in arb_module()) {
        let printed = print_module(&module);
        let reparsed = parse_module(&printed).map_err(|e| {
            TestCaseError::fail(format!("reparse failed: {e}\n{printed}"))
        })?;
        let printed_again = print_module(&reparsed);
        prop_assert_eq!(printed, printed_again);
    }

    /// Every printed module lexes and parses without error.
    #[test]
    fn printed_modules_parse(module in arb_module()) {
        let printed = print_module(&module);
        prop_assert!(parse_module(&printed).is_ok(), "{}", printed);
    }
}
