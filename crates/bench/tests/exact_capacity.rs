//! Every sequence the parser builds has exactly its length as capacity.
//!
//! A workspace keeps each parsed class for as long as its unit is cached,
//! moved out of its module rather than copied, so spare `Vec` capacity in
//! the AST would stay resident (it once raised `corpus_recover`'s peak
//! RSS by a third). This walks every `Vec` of the ASTs of `examples_py`
//! (strict) and `realworld_corpus(200)` (recovering) and requires
//! `capacity() == len()`.

use micropython_parser::ast::*;

/// Records `what` when `items` carries spare capacity.
fn fits<T>(what: &str, items: &Vec<T>, slack: &mut Vec<String>) {
    if items.capacity() != items.len() {
        slack.push(format!(
            "{what}: len {} capacity {}",
            items.len(),
            items.capacity()
        ));
    }
}

fn stmts(body: &Vec<Stmt>, slack: &mut Vec<String>) {
    fits("statements", body, slack);
    for stmt in body {
        match stmt {
            Stmt::ClassDef(c) => {
                decorators(&c.decorators, slack);
                exprs("class bases", &c.bases, slack);
                stmts(&c.body, slack);
            }
            Stmt::FuncDef(f) => {
                decorators(&f.decorators, slack);
                fits("parameters", &f.params, slack);
                stmts(&f.body, slack);
            }
            Stmt::Return(r) => r.value.iter().for_each(|e| expr(e, slack)),
            Stmt::If(s) => {
                fits("if branches", &s.branches, slack);
                for (cond, body) in &s.branches {
                    expr(cond, slack);
                    stmts(body, slack);
                }
                s.orelse.iter().for_each(|b| stmts(b, slack));
            }
            Stmt::Match(m) => {
                expr(&m.subject, slack);
                fits("match cases", &m.cases, slack);
                for case in &m.cases {
                    pattern(&case.pattern, slack);
                    stmts(&case.body, slack);
                }
            }
            Stmt::While(w) => {
                expr(&w.cond, slack);
                stmts(&w.body, slack);
            }
            Stmt::For(f) => {
                expr(&f.target, slack);
                expr(&f.iter, slack);
                stmts(&f.body, slack);
            }
            Stmt::Assign(a) => {
                expr(&a.target, slack);
                expr(&a.value, slack);
            }
            Stmt::Expr(e) => expr(&e.expr, slack),
            Stmt::Import(i) => fits("import names", &i.names, slack),
            Stmt::Try(t) => {
                stmts(&t.body, slack);
                fits("except handlers", &t.handlers, slack);
                for h in &t.handlers {
                    h.exc.iter().for_each(|e| expr(e, slack));
                    stmts(&h.body, slack);
                }
                for body in t.orelse.iter().chain(&t.finally) {
                    stmts(body, slack);
                }
            }
            Stmt::With(w) => {
                fits("with items", &w.items, slack);
                for item in &w.items {
                    expr(&item.context, slack);
                    item.target.iter().for_each(|e| expr(e, slack));
                }
                stmts(&w.body, slack);
            }
            Stmt::Raise(r) => r.exc.iter().chain(&r.cause).for_each(|e| expr(e, slack)),
            Stmt::Pass(_) | Stmt::Break(_) | Stmt::Continue(_) | Stmt::Degraded(_) => {}
        }
    }
}

fn decorators(decorators: &Vec<Decorator>, slack: &mut Vec<String>) {
    fits("decorators", decorators, slack);
    decorators.iter().for_each(|d| expr(&d.expr, slack));
}

fn exprs(what: &str, items: &Vec<Expr>, slack: &mut Vec<String>) {
    fits(what, items, slack);
    items.iter().for_each(|e| expr(e, slack));
}

fn pattern(p: &Pattern, slack: &mut Vec<String>) {
    match p {
        Pattern::Literal(e) => expr(e, slack),
        Pattern::List(items, _) | Pattern::Tuple(items, _) => {
            fits("patterns", items, slack);
            items.iter().for_each(|p| pattern(p, slack));
        }
        Pattern::Capture(_) | Pattern::Wildcard(_) => {}
    }
}

fn expr(e: &Expr, slack: &mut Vec<String>) {
    match &e.kind {
        ExprKind::Attribute { value, .. }
        | ExprKind::Await(value)
        | ExprKind::Starred { value, .. }
        | ExprKind::UnaryOp { operand: value, .. } => expr(value, slack),
        ExprKind::Call { func, args } => {
            expr(func, slack);
            exprs("call arguments", args, slack);
        }
        ExprKind::Subscript { value, index } => {
            expr(value, slack);
            expr(index, slack);
        }
        ExprKind::List(items) => exprs("list items", items, slack),
        ExprKind::Tuple(items) => exprs("tuple items", items, slack),
        ExprKind::Set(items) => exprs("set items", items, slack),
        ExprKind::Dict(pairs) => {
            fits("dict pairs", pairs, slack);
            for (k, v) in pairs {
                expr(k, slack);
                expr(v, slack);
            }
        }
        ExprKind::BinOp { left, right, .. } => {
            expr(left, slack);
            expr(right, slack);
        }
        ExprKind::Lambda { params, body } => {
            fits("lambda parameters", params, slack);
            expr(body, slack);
        }
        ExprKind::Comp {
            element,
            value,
            clauses,
            ..
        } => {
            expr(element, slack);
            value.iter().for_each(|v| expr(v, slack));
            fits("comprehension clauses", clauses, slack);
            for clause in clauses {
                expr(&clause.target, slack);
                expr(&clause.iter, slack);
                exprs("comprehension conditions", &clause.ifs, slack);
            }
        }
        ExprKind::Name(_)
        | ExprKind::Str(_)
        | ExprKind::Int(_)
        | ExprKind::Float(_)
        | ExprKind::Bool(_)
        | ExprKind::NoneLit
        | ExprKind::FString(_) => {}
    }
}

fn assert_exact(name: &str, module: &Module) {
    let mut slack = Vec::new();
    stmts(&module.body, &mut slack);
    assert!(slack.is_empty(), "{name}: {slack:#?}");
}

#[test]
fn examples_py_asts_have_exact_capacity() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples_py");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "py") {
            let source = std::fs::read_to_string(&path).unwrap();
            let module = micropython_parser::parse_module(&source).unwrap();
            assert_exact(&path.display().to_string(), &module);
            seen += 1;
        }
    }
    assert!(seen >= 3, "examples_py holds the paper's examples");
}

#[test]
fn realworld_corpus_asts_have_exact_capacity() {
    for (name, source) in shelley_bench::realworld_corpus(200) {
        assert_exact(&name, &micropython_parser::parse_module_recover(&source));
    }
}
