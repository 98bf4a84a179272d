//! Pretty-printer: AST back to MicroPython source.
//!
//! The printer is the inverse of the parser up to whitespace and comment
//! normalization: `parse(print(parse(s)))` equals `parse(s)` structurally
//! (checked by the round-trip property tests). It powers `--emit python`
//! style tooling and makes AST fixtures reviewable.

use crate::ast::*;
use crate::parser::{binding_power, NOT};

/// Renders a module back to source text.
pub fn print_module(module: &Module) -> String {
    let mut p = Printer::default();
    for stmt in &module.body {
        p.stmt(stmt);
    }
    p.out
}

/// Renders a single expression.
pub fn print_expr(expr: &Expr) -> String {
    let mut p = Printer::default();
    p.expr_prec(expr, 0);
    p.out
}

#[derive(Default)]
struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn block(&mut self, body: &[Stmt]) {
        self.indent += 1;
        if body.is_empty() {
            self.line("pass");
        } else {
            for stmt in body {
                self.stmt(stmt);
            }
        }
        self.indent -= 1;
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::ClassDef(c) => {
                for d in &c.decorators {
                    let text = print_expr(&d.expr);
                    self.line(&format!("@{text}"));
                }
                let bases = if c.bases.is_empty() {
                    String::new()
                } else {
                    let items: Vec<String> = c.bases.iter().map(print_expr).collect();
                    format!("({})", items.join(", "))
                };
                self.line(&format!("class {}{}:", c.name.node, bases));
                self.block(&c.body);
            }
            Stmt::FuncDef(f) => {
                for d in &f.decorators {
                    let text = print_expr(&d.expr);
                    self.line(&format!("@{text}"));
                }
                let params: Vec<&str> = f.params.iter().map(|p| p.node.as_str()).collect();
                let prefix = if f.is_async { "async " } else { "" };
                self.line(&format!(
                    "{prefix}def {}({}):",
                    f.name.node,
                    params.join(", ")
                ));
                self.block(&f.body);
            }
            Stmt::Return(r) => match &r.value {
                None => self.line("return"),
                Some(v) => {
                    // Top-level tuples print without parens (Table 2 style).
                    let text = match &v.kind {
                        ExprKind::Tuple(items) if !items.is_empty() => {
                            let parts: Vec<String> = items.iter().map(print_expr).collect();
                            parts.join(", ")
                        }
                        _ => print_expr(v),
                    };
                    self.line(&format!("return {text}"));
                }
            },
            Stmt::If(ifs) => {
                for (i, (cond, body)) in ifs.branches.iter().enumerate() {
                    let kw = if i == 0 { "if" } else { "elif" };
                    self.line(&format!("{kw} {}:", print_expr(cond)));
                    self.block(body);
                }
                if let Some(body) = &ifs.orelse {
                    self.line("else:");
                    self.block(body);
                }
            }
            Stmt::Match(ms) => {
                self.line(&format!("match {}:", print_expr(&ms.subject)));
                self.indent += 1;
                for case in &ms.cases {
                    self.line(&format!("case {}:", print_pattern(&case.pattern)));
                    self.block(&case.body);
                }
                self.indent -= 1;
            }
            Stmt::While(ws) => {
                self.line(&format!("while {}:", print_expr(&ws.cond)));
                self.block(&ws.body);
            }
            Stmt::For(fs) => {
                let target = match &fs.target.kind {
                    ExprKind::Tuple(items) if !items.is_empty() => {
                        let parts: Vec<String> = items.iter().map(print_expr).collect();
                        parts.join(", ")
                    }
                    _ => print_expr(&fs.target),
                };
                self.line(&format!("for {target} in {}:", print_expr(&fs.iter)));
                self.block(&fs.body);
            }
            Stmt::Assign(a) => {
                let op = match &a.aug_op {
                    Some(o) => format!("{o}="),
                    None => "=".to_owned(),
                };
                let value = match &a.value.kind {
                    ExprKind::Tuple(items) if !items.is_empty() => {
                        let parts: Vec<String> = items.iter().map(print_expr).collect();
                        parts.join(", ")
                    }
                    _ => print_expr(&a.value),
                };
                self.line(&format!("{} {op} {value}", print_expr(&a.target)));
            }
            Stmt::Expr(e) => {
                let text = print_expr(&e.expr);
                self.line(&text);
            }
            Stmt::Pass(_) => self.line("pass"),
            Stmt::Break(_) => self.line("break"),
            Stmt::Continue(_) => self.line("continue"),
            Stmt::Import(i) => {
                self.line(&format!("import {}", i.names.join(", ")));
            }
            Stmt::Try(t) => {
                self.line("try:");
                self.block(&t.body);
                for h in &t.handlers {
                    let mut head = "except".to_owned();
                    if let Some(exc) = &h.exc {
                        head.push(' ');
                        head.push_str(&print_expr(exc));
                        if let Some(name) = &h.name {
                            head.push_str(" as ");
                            head.push_str(&name.node);
                        }
                    }
                    head.push(':');
                    self.line(&head);
                    self.block(&h.body);
                }
                if let Some(body) = &t.orelse {
                    self.line("else:");
                    self.block(body);
                }
                if let Some(body) = &t.finally {
                    self.line("finally:");
                    self.block(body);
                }
            }
            Stmt::With(w) => {
                let items: Vec<String> = w
                    .items
                    .iter()
                    .map(|item| match &item.target {
                        Some(t) => format!("{} as {}", print_expr(&item.context), print_expr(t)),
                        None => print_expr(&item.context),
                    })
                    .collect();
                self.line(&format!("with {}:", items.join(", ")));
                self.block(&w.body);
            }
            Stmt::Raise(r) => {
                let mut text = "raise".to_owned();
                if let Some(exc) = &r.exc {
                    text.push(' ');
                    text.push_str(&print_expr(exc));
                    if let Some(cause) = &r.cause {
                        text.push_str(" from ");
                        text.push_str(&print_expr(cause));
                    }
                }
                self.line(&text);
            }
            // A degraded region has no source to reproduce; it prints as
            // the `skip` it means.
            Stmt::Degraded(_) => self.line("pass"),
        }
    }

    fn expr_prec(&mut self, expr: &Expr, prec: u8) {
        let text = render_expr(expr, prec);
        self.out.push_str(&text);
    }
}

fn print_pattern(p: &Pattern) -> String {
    match p {
        Pattern::Literal(e) => print_expr(e),
        Pattern::List(items, _) => {
            let parts: Vec<String> = items.iter().map(print_pattern).collect();
            format!("[{}]", parts.join(", "))
        }
        Pattern::Tuple(items, _) => {
            let parts: Vec<String> = items.iter().map(print_pattern).collect();
            format!("({})", parts.join(", "))
        }
        Pattern::Capture(name) => name.node.clone(),
        Pattern::Wildcard(_) => "_".to_owned(),
    }
}

/// Binding strength of an operator, for minimal parenthesization.
///
/// Mirrors the parser's grammar: `or` < `and` < `not` < comparisons <
/// bit operators < `+`/`-` < `*`-family < prefix `-`/`~` < postfix.
fn render_expr(expr: &Expr, prec: u8) -> String {
    match &expr.kind {
        ExprKind::Name(n) => n.clone(),
        ExprKind::Attribute { value, attr } => {
            format!("{}.{}", render_expr(value, 10), attr.node)
        }
        ExprKind::Call { func, args } => {
            let parts: Vec<String> = args.iter().map(|a| render_expr(a, 0)).collect();
            format!("{}({})", render_expr(func, 10), parts.join(", "))
        }
        ExprKind::Subscript { value, index } => {
            format!("{}[{}]", render_expr(value, 10), render_expr(index, 0))
        }
        ExprKind::Str(s) => {
            let escaped = s
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
                .replace('\t', "\\t")
                .replace('\r', "\\r");
            format!("\"{escaped}\"")
        }
        ExprKind::Int(v) => v.to_string(),
        ExprKind::Float(v) => {
            let s = v.to_string();
            if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                s
            } else {
                format!("{s}.0")
            }
        }
        ExprKind::Bool(true) => "True".to_owned(),
        ExprKind::Bool(false) => "False".to_owned(),
        ExprKind::NoneLit => "None".to_owned(),
        ExprKind::List(items) => {
            let parts: Vec<String> = items.iter().map(|a| render_expr(a, 0)).collect();
            format!("[{}]", parts.join(", "))
        }
        ExprKind::Dict(pairs) => {
            let parts: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{}: {}", render_expr(k, 0), render_expr(v, 0)))
                .collect();
            format!("{{{}}}", parts.join(", "))
        }
        ExprKind::Set(items) => {
            let parts: Vec<String> = items.iter().map(|a| render_expr(a, 0)).collect();
            format!("{{{}}}", parts.join(", "))
        }
        ExprKind::Tuple(items) => {
            if items.is_empty() {
                "()".to_owned()
            } else if items.len() == 1 {
                format!("({},)", render_expr(&items[0], 0))
            } else {
                let parts: Vec<String> = items.iter().map(|a| render_expr(a, 0)).collect();
                format!("({})", parts.join(", "))
            }
        }
        ExprKind::BinOp { op, left, right } => {
            let p = binding_power(op);
            let text = format!(
                "{} {op} {}",
                render_expr(left, p),
                render_expr(right, p + 1)
            );
            if p < prec {
                format!("({text})")
            } else {
                text
            }
        }
        ExprKind::UnaryOp { op, operand } => {
            // `not` binds loosely (just above `and`); `-`/`+`/`~` tightly.
            let own = if *op == "not" { NOT } else { 8 };
            let space = if *op == "not" { " " } else { "" };
            let text = format!("{op}{space}{}", render_expr(operand, own));
            if prec > own {
                format!("({text})")
            } else {
                text
            }
        }
        ExprKind::Await(operand) => {
            let text = format!("await {}", render_expr(operand, 8));
            if prec > 8 {
                format!("({text})")
            } else {
                text
            }
        }
        ExprKind::Lambda { params, body } => {
            let names: Vec<&str> = params.iter().map(|p| p.node.as_str()).collect();
            let head = if names.is_empty() {
                "lambda".to_owned()
            } else {
                format!("lambda {}", names.join(", "))
            };
            let text = format!("{head}: {}", render_expr(body, 0));
            // A lambda binds everything after the colon, so it always needs
            // parens when nested inside another expression.
            if prec > 0 {
                format!("({text})")
            } else {
                text
            }
        }
        ExprKind::FString(s) => {
            let escaped = s
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
                .replace('\t', "\\t")
                .replace('\r', "\\r");
            format!("f\"{escaped}\"")
        }
        ExprKind::Starred { stars, value } => {
            let prefix = if *stars == 2 { "**" } else { "*" };
            format!("{prefix}{}", render_expr(value, 8))
        }
        ExprKind::Comp {
            kind,
            element,
            value,
            clauses,
        } => {
            let mut inner = render_expr(element, 0);
            if let Some(v) = value {
                inner.push_str(": ");
                inner.push_str(&render_expr(v, 0));
            }
            for c in clauses {
                let target = match &c.target.kind {
                    ExprKind::Tuple(items) if !items.is_empty() => {
                        let parts: Vec<String> = items.iter().map(|e| render_expr(e, 8)).collect();
                        parts.join(", ")
                    }
                    _ => render_expr(&c.target, 8),
                };
                let kw = if c.is_async { "async for" } else { "for" };
                inner.push_str(&format!(" {kw} {target} in {}", render_expr(&c.iter, 1)));
                for cond in &c.ifs {
                    inner.push_str(&format!(" if {}", render_expr(cond, 1)));
                }
            }
            match kind {
                CompKind::List => format!("[{inner}]"),
                CompKind::Set | CompKind::Dict => format!("{{{inner}}}"),
                CompKind::Generator => format!("({inner})"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn roundtrip(src: &str) {
        let once = parse_module(src).unwrap();
        let printed = print_module(&once);
        let twice = parse_module(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- printed ---\n{printed}"));
        let printed_again = print_module(&twice);
        assert_eq!(
            printed, printed_again,
            "print is not a fixpoint\n--- first ---\n{printed}\n--- second ---\n{printed_again}"
        );
    }

    #[test]
    fn roundtrips_the_paper_listings() {
        roundtrip(
            r#"
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)

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
"#,
        );
    }

    #[test]
    fn roundtrips_match_statements() {
        roundtrip(
            r#"
class S:
    def m(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                return ["x"], 2
            case _:
                pass
"#,
        );
    }

    #[test]
    fn roundtrips_control_flow() {
        roundtrip(
            r#"
def f(self):
    for i in range(10):
        while self.ready() and not done:
            self.step()
            break
    if a == 1:
        pass
    elif b < 2:
        x = y + z * 3
    else:
        return
"#,
        );
    }

    #[test]
    fn roundtrips_literals() {
        roundtrip("x = [1, 2.5, \"s\", True, False, None, (1, 2), []]\ny = \"a\\nb\"\n");
    }

    #[test]
    fn minimal_parens() {
        let m = parse_module("x = a + b * c\n").unwrap();
        let printed = print_module(&m);
        assert_eq!(printed, "x = a + b * c\n");
        let m = parse_module("x = (a + b) * c\n").unwrap();
        let printed = print_module(&m);
        assert_eq!(printed, "x = (a + b) * c\n");
    }

    #[test]
    fn roundtrips_dicts_sets_and_is() {
        roundtrip("d = {\"a\": 1, \"b\": [2, 3]}\ns = {1, 2}\ne = {}\n");
        roundtrip("x = a is None\ny = a is not b\nz = c not in d\n");
    }

    #[test]
    fn tuple_returns_print_bare() {
        let m = parse_module("def f(self):\n    return [\"a\"], 2\n").unwrap();
        let printed = print_module(&m);
        assert!(printed.contains("return [\"a\"], 2"));
    }

    #[test]
    fn roundtrips_try_with_raise() {
        roundtrip(
            r#"
def f(self):
    try:
        self.a.open()
    except OSError as e:
        raise ValueError("bad") from e
    except:
        pass
    else:
        self.log()
    finally:
        self.a.close()
    with open("f") as fh, lock:
        fh.write(data)
"#,
        );
    }

    #[test]
    fn roundtrips_async_and_lambda() {
        roundtrip(
            r#"
@task
async def run(self):
    await self.a.open()
    f = lambda x, y: x + y
    g = lambda: 0
"#,
        );
    }

    #[test]
    fn roundtrips_comprehensions_and_fstrings() {
        roundtrip(
            "a = [x * 2 for x in items if x > 0]\n\
             b = {k: v for k, v in pairs}\n\
             c = {x for x in s}\n\
             d = (y for y in gen)\n\
             msg = f\"pin {n} high\"\n",
        );
    }

    #[test]
    fn roundtrips_star_args_and_inheritance() {
        roundtrip(
            r#"
class C(Base, mixin.Other):
    def f(self, a, *args, **kwargs):
        g(a, *args, **kwargs)
        x //= 2
        x **= 2
        x |= mask
"#,
        );
    }

    #[test]
    fn degraded_prints_as_pass() {
        use crate::parse_module_recover;
        let m = parse_module_recover("x = 1\ny = = 2\n");
        let printed = print_module(&m);
        assert_eq!(printed, "x = 1\npass\n");
    }
}
