//! `W011`: operations invoking sibling operations directly.
//!
//! The protocol of a `@sys` class is driven by the *environment*: an
//! operation finishes, declares its next-operations, and the environment
//! picks one. A direct `self.other_op()` call inside an operation body
//! sidesteps that contract — the model does not see the transition, so
//! the verified automaton and the running object diverge.

use super::{LintContext, LintPass};
use crate::diagnostics::{codes, Diagnostic, Diagnostics};
use crate::system::System;
use micropython_parser::ast::{ClassDef, Expr, ExprKind, Stmt};
use micropython_parser::Span;

/// See the module docs.
pub struct SelfCalls;

impl LintPass for SelfCalls {
    fn name(&self) -> &'static str {
        "sibling-operation-calls"
    }

    fn codes(&self) -> &'static [&'static str] {
        &[codes::SIBLING_OPERATION_CALL]
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Diagnostics) {
        for (class, system) in ctx.classes() {
            check_class(class, system, out);
        }
    }
}

/// The pass on one class.
pub(super) fn check_class(class: &ClassDef, system: &System, out: &mut Diagnostics) {
    let is_op = |name: &str| system.spec.operation(name).is_some();
    if system.spec.operations.is_empty() {
        return;
    }
    let mut calls = Vec::new();
    for func in class.methods() {
        // Only operation bodies are protocol-bound; helpers and
        // `__init__` may orchestrate freely.
        if !is_op(&func.name.node) {
            continue;
        }
        calls.clear();
        for stmt in &func.body {
            collect_self_calls(stmt, &mut calls);
        }
        for &(callee, span) in &calls {
            if !is_op(callee) {
                continue;
            }
            let wording = if callee == func.name.node {
                "calls itself"
            } else {
                "calls sibling operation"
            };
            out.push(
                Diagnostic::warning(
                    codes::SIBLING_OPERATION_CALL,
                    format!(
                        "operation `{}` of `{}` {wording} \
                         `self.{callee}()` directly; operations are \
                         invoked by the environment following the \
                         declared next-operations",
                        func.name.node, system.name
                    ),
                )
                .with_span(span),
            );
        }
    }
}

/// Collects `self.m()` calls (no field path) in a statement, recursively.
fn collect_self_calls<'a>(stmt: &'a Stmt, out: &mut Vec<(&'a str, Span)>) {
    match stmt {
        Stmt::Expr(e) => expr_self_calls(&e.expr, out),
        Stmt::Assign(a) => {
            expr_self_calls(&a.value, out);
            expr_self_calls(&a.target, out);
        }
        Stmt::Return(r) => {
            if let Some(v) = &r.value {
                expr_self_calls(v, out);
            }
        }
        Stmt::If(ifs) => {
            for (cond, body) in &ifs.branches {
                expr_self_calls(cond, out);
                for s in body {
                    collect_self_calls(s, out);
                }
            }
            if let Some(body) = &ifs.orelse {
                for s in body {
                    collect_self_calls(s, out);
                }
            }
        }
        Stmt::Match(ms) => {
            expr_self_calls(&ms.subject, out);
            for case in &ms.cases {
                for s in &case.body {
                    collect_self_calls(s, out);
                }
            }
        }
        Stmt::While(ws) => {
            expr_self_calls(&ws.cond, out);
            for s in &ws.body {
                collect_self_calls(s, out);
            }
        }
        Stmt::For(fs) => {
            expr_self_calls(&fs.iter, out);
            for s in &fs.body {
                collect_self_calls(s, out);
            }
        }
        Stmt::Try(t) => {
            for s in &t.body {
                collect_self_calls(s, out);
            }
            for h in &t.handlers {
                if let Some(exc) = &h.exc {
                    expr_self_calls(exc, out);
                }
                for s in &h.body {
                    collect_self_calls(s, out);
                }
            }
            for body in t.orelse.iter().chain(t.finally.iter()) {
                for s in body {
                    collect_self_calls(s, out);
                }
            }
        }
        Stmt::With(ws) => {
            for item in &ws.items {
                expr_self_calls(&item.context, out);
                if let Some(target) = &item.target {
                    expr_self_calls(target, out);
                }
            }
            for s in &ws.body {
                collect_self_calls(s, out);
            }
        }
        Stmt::Raise(r) => {
            for e in r.exc.iter().chain(r.cause.iter()) {
                expr_self_calls(e, out);
            }
        }
        Stmt::Pass(_)
        | Stmt::Break(_)
        | Stmt::Continue(_)
        | Stmt::Import(_)
        | Stmt::ClassDef(_)
        | Stmt::FuncDef(_)
        | Stmt::Degraded(_) => {}
    }
}

fn expr_self_calls<'a>(expr: &'a Expr, out: &mut Vec<(&'a str, Span)>) {
    if let Some((None, method)) = expr.as_self_method_call() {
        out.push((method, expr.span));
    }
    match &expr.kind {
        ExprKind::Call { func, args } => {
            expr_self_calls(func, out);
            for a in args {
                expr_self_calls(a, out);
            }
        }
        ExprKind::Attribute { value, .. } => expr_self_calls(value, out),
        ExprKind::Subscript { value, index } => {
            expr_self_calls(value, out);
            expr_self_calls(index, out);
        }
        ExprKind::List(items) | ExprKind::Tuple(items) | ExprKind::Set(items) => {
            for i in items {
                expr_self_calls(i, out);
            }
        }
        ExprKind::Dict(pairs) => {
            for (k, v) in pairs {
                expr_self_calls(k, out);
                expr_self_calls(v, out);
            }
        }
        ExprKind::BinOp { left, right, .. } => {
            expr_self_calls(left, out);
            expr_self_calls(right, out);
        }
        ExprKind::UnaryOp { operand, .. } => expr_self_calls(operand, out),
        ExprKind::Await(operand) => expr_self_calls(operand, out),
        ExprKind::Starred { value, .. } => expr_self_calls(value, out),
        ExprKind::Comp {
            element,
            value,
            clauses,
            ..
        } => {
            for c in clauses {
                expr_self_calls(&c.iter, out);
                for cond in &c.ifs {
                    expr_self_calls(cond, out);
                }
            }
            expr_self_calls(element, out);
            if let Some(v) = value {
                expr_self_calls(v, out);
            }
        }
        // A lambda body runs later (if at all), but a sibling-operation
        // call written inside one still sidesteps the protocol — report it.
        ExprKind::Lambda { body, .. } => expr_self_calls(body, out),
        ExprKind::Name(_)
        | ExprKind::Str(_)
        | ExprKind::Int(_)
        | ExprKind::Float(_)
        | ExprKind::Bool(_)
        | ExprKind::NoneLit
        | ExprKind::FString(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use crate::checker::Checker;
    use crate::diagnostics::codes;

    #[test]
    fn sibling_call_is_flagged() {
        let src = "@sys\nclass V:\n    @op_initial\n    def a(self):\n        self.b()\n        return [\"b\"]\n\n    @op_final\n    def b(self):\n        return []\n";
        let checked = Checker::new().check_source(src).unwrap();
        let d = checked
            .report
            .diagnostics
            .by_code(codes::SIBLING_OPERATION_CALL)
            .next()
            .expect("W011 expected");
        assert!(d.message.contains("calls sibling operation"));
    }

    #[test]
    fn self_recursion_is_flagged() {
        let src = "@sys\nclass V:\n    @op_initial_final\n    def a(self):\n        self.a()\n        return []\n";
        let checked = Checker::new().check_source(src).unwrap();
        let d = checked
            .report
            .diagnostics
            .by_code(codes::SIBLING_OPERATION_CALL)
            .next()
            .expect("W011 expected");
        assert!(d.message.contains("calls itself"));
    }

    #[test]
    fn helper_calls_are_fine() {
        let src = "@sys\nclass V:\n    @op_initial_final\n    def a(self):\n        self.log()\n        return []\n\n    def log(self):\n        pass\n";
        let checked = Checker::new().check_source(src).unwrap();
        assert_eq!(
            checked
                .report
                .diagnostics
                .by_code(codes::SIBLING_OPERATION_CALL)
                .count(),
            0
        );
    }

    #[test]
    fn init_may_call_operations() {
        let src = "@sys\nclass V:\n    def __init__(self):\n        self.a()\n\n    @op_initial_final\n    def a(self):\n        return []\n";
        let checked = Checker::new().check_source(src).unwrap();
        assert_eq!(
            checked
                .report
                .diagnostics
                .by_code(codes::SIBLING_OPERATION_CALL)
                .count(),
            0
        );
    }
}
