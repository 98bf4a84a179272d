//! `W009`: statements that can never execute.
//!
//! The lowering's exit-tagged denotation already proves some *exits* dead;
//! this pass works at statement granularity instead, flagging code after a
//! `return` (or after a `break`/`continue`, or after an `if`/`match` whose
//! every arm leaves the method) inside any method of a `@sys` class.

use super::{LintContext, LintPass};
use crate::diagnostics::{codes, Diagnostic, Diagnostics};
use crate::extract::cfg::{Cfg, ClassCfgs};
use crate::system::System;
use micropython_parser::ast::ClassDef;

/// See the module docs.
pub struct UnreachableCode;

impl LintPass for UnreachableCode {
    fn name(&self) -> &'static str {
        "unreachable-code"
    }

    fn codes(&self) -> &'static [&'static str] {
        &[codes::UNREACHABLE_STATEMENT]
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Diagnostics) {
        for (class, system) in ctx.classes() {
            let cfgs = ClassCfgs::build(class, []);
            check_class(class, system, &cfgs.graphs, out);
        }
    }
}

/// The pass on one class, given one graph per method in
/// [`ClassDef::methods`] order (over any field set: dead statements do
/// not depend on it).
pub(super) fn check_class(class: &ClassDef, system: &System, cfgs: &[Cfg], out: &mut Diagnostics) {
    for (func, cfg) in class.methods().zip(cfgs) {
        for &span in cfg.dead_code() {
            out.push(
                Diagnostic::warning(
                    codes::UNREACHABLE_STATEMENT,
                    format!(
                        "unreachable statement in `{}` of `{}`: every \
                         path before it already left the method",
                        func.name.node, system.name
                    ),
                )
                .with_span(span),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::checker::Checker;
    use crate::diagnostics::codes;

    #[test]
    fn flags_code_after_return() {
        let src = "@sys\nclass V:\n    @op_initial_final\n    def go(self):\n        return []\n        self.cleanup()\n";
        let checked = Checker::new().check_source(src).unwrap();
        assert_eq!(
            checked
                .report
                .diagnostics
                .by_code(codes::UNREACHABLE_STATEMENT)
                .count(),
            1
        );
    }

    #[test]
    fn flags_tail_after_exhaustive_if() {
        let src = "@sys\nclass V:\n    @op_initial_final\n    def go(self):\n        if ready:\n            return []\n        else:\n            return []\n        log()\n";
        let checked = Checker::new().check_source(src).unwrap();
        assert_eq!(
            checked
                .report
                .diagnostics
                .by_code(codes::UNREACHABLE_STATEMENT)
                .count(),
            1
        );
    }

    #[test]
    fn silent_on_live_code() {
        let src = "@sys\nclass V:\n    @op_initial_final\n    def go(self):\n        if ready:\n            return []\n        self.cleanup()\n        return []\n";
        let checked = Checker::new().check_source(src).unwrap();
        assert_eq!(
            checked
                .report
                .diagnostics
                .by_code(codes::UNREACHABLE_STATEMENT)
                .count(),
            0
        );
    }

    #[test]
    fn ignores_classes_without_sys() {
        let src = "class Helper:\n    def go(self):\n        return 1\n        dead()\n";
        let checked = Checker::new().check_source(src).unwrap();
        assert!(checked.report.diagnostics.is_empty());
    }
}
