//! AST traversal: finding the regions recovery-mode parsing degraded.
//!
//! Shelley's extraction and control-flow graphs recurse over the AST
//! themselves, in the evaluation order each needs; [`collect_degraded`] is
//! the one shared walk.

use crate::ast::*;

/// Collects every [`Stmt::Degraded`] node of a module, in source order.
///
/// Recovery-mode parsing ([`crate::parse_module_recover`]) records each
/// out-of-calculus region as a `Degraded` node; this is how downstream
/// tooling finds them (W014 diagnostics, corpus parse-rate accounting).
pub fn collect_degraded(module: &Module) -> Vec<&DegradedStmt> {
    fn rec<'m>(stmt: &'m Stmt, out: &mut Vec<&'m DegradedStmt>) {
        if let Stmt::Degraded(d) = stmt {
            out.push(d);
        }
        each_child(stmt, &mut |s| rec(s, out));
    }
    /// Applies `f` to every direct child statement of `stmt`.
    fn each_child<'m>(stmt: &'m Stmt, f: &mut impl FnMut(&'m Stmt)) {
        match stmt {
            Stmt::ClassDef(c) => c.body.iter().for_each(f),
            Stmt::FuncDef(func) => func.body.iter().for_each(f),
            Stmt::If(ifs) => {
                for (_, body) in &ifs.branches {
                    body.iter().for_each(&mut *f);
                }
                if let Some(body) = &ifs.orelse {
                    body.iter().for_each(f);
                }
            }
            Stmt::Match(ms) => {
                for case in &ms.cases {
                    case.body.iter().for_each(&mut *f);
                }
            }
            Stmt::While(ws) => ws.body.iter().for_each(f),
            Stmt::For(fs) => fs.body.iter().for_each(f),
            Stmt::Try(t) => {
                t.body.iter().for_each(&mut *f);
                for h in &t.handlers {
                    h.body.iter().for_each(&mut *f);
                }
                for body in t.orelse.iter().chain(t.finally.iter()) {
                    body.iter().for_each(&mut *f);
                }
            }
            Stmt::With(w) => w.body.iter().for_each(f),
            Stmt::Return(_)
            | Stmt::Assign(_)
            | Stmt::Expr(_)
            | Stmt::Pass(_)
            | Stmt::Break(_)
            | Stmt::Continue(_)
            | Stmt::Import(_)
            | Stmt::Raise(_)
            | Stmt::Degraded(_) => {}
        }
    }
    let mut out = Vec::new();
    for stmt in &module.body {
        rec(stmt, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_module_recover;

    #[test]
    fn collect_degraded_finds_every_nested_region_in_source_order() {
        // `dN = = N` is a broken statement: recovery degrades it alone and
        // keeps the enclosing construct.
        let src = "\
d0 = = 0
class C:
    d1 = = 1
    def m(self):
        if a:
            d2 = = 2
        elif b:
            d3 = = 3
        else:
            d4 = = 4
        match x:
            case 1:
                d5 = = 5
            case _:
                d6 = = 6
        while c:
            d7 = = 7
        for i in xs:
            d8 = = 8
        try:
            d9 = = 9
        except E:
            d10 = = 10
        else:
            d11 = = 11
        finally:
            d12 = = 12
        with f() as g:
            d13 = = 13
        def inner():
            d14 = = 14
        class Inner:
            d15 = = 15
";
        let module = parse_module_recover(src);
        let found: Vec<&str> = collect_degraded(&module)
            .iter()
            .map(|d| src[d.span.start..d.span.end].trim())
            .collect();
        let expected: Vec<String> = (0..16).map(|n| format!("d{n} = = {n}")).collect();
        assert_eq!(found, expected);
    }
}
