//! `E008`/`W010`: subsystem fields used before (or without definite)
//! initialization.
//!
//! For every composite class the pass runs the forward definite-assignment
//! dataflow of [`crate::extract::cfg`] over `__init__`:
//!
//! * a read of a declared subsystem field at a point where **no** path has
//!   assigned it is `E008` (the call would raise `AttributeError`);
//! * a read where only **some** paths have assigned it is `W010`;
//! * a field only *possibly* assigned when `__init__` finishes is `W010`
//!   at every method call site that uses it (the lowered methods'
//!   [`CallSite`](crate::extract::lower::CallSite)s).
//!
//! Fields never assigned at all are `E005` (subsystem resolution) and are
//! not re-reported here.

use super::{LintContext, LintPass};
use crate::diagnostics::{codes, Diagnostic, Diagnostics};
use crate::extract::cfg::{assignment_flow, Cfg, ClassIds, FieldId};
use crate::system::System;

/// See the module docs.
pub struct InitOrder;

impl LintPass for InitOrder {
    fn name(&self) -> &'static str {
        "init-order"
    }

    fn codes(&self) -> &'static [&'static str] {
        &[codes::USE_BEFORE_INIT, codes::MAYBE_UNINIT_SUBSYSTEM]
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Diagnostics) {
        for (class, system) in ctx.classes() {
            if system.composite().is_none() {
                continue;
            }
            let mut ids = ClassIds::new(class, system.subsystem_fields());
            let init = class
                .method("__init__")
                .map(|init| Cfg::of_body(&init.body, &mut ids));
            check_class(system, &ids, init.as_ref(), out);
        }
    }
}

/// The pass on one class, given the graph of its `__init__` over `ids`,
/// which track the subsystem fields. A redefined `__init__` is checked by
/// its last definition, the one Python binds and extraction reads
/// ([`ClassDef::method`](micropython_parser::ast::ClassDef::method)).
pub(super) fn check_class(
    system: &System,
    ids: &ClassIds<'_>,
    init: Option<&Cfg>,
    out: &mut Diagnostics,
) {
    let Some(info) = system.composite() else {
        return;
    };
    if ids.num_fields() == 0 {
        return;
    }
    let Some(cfg) = init else {
        // No __init__ at all: resolution already reported E005.
        return;
    };
    let flow = assignment_flow(cfg);

    // Reads inside __init__, against the facts at each statement.
    for (id, node) in cfg.nodes() {
        if !node.kind.is_statement() || !flow.reachable[id] {
            continue;
        }
        // Within one statement, earlier writes of the same
        // statement do not cover its reads (value evaluates
        // first), so reads check the IN sets directly.
        for &(field, span) in node.reads {
            let field_name = ids.field_name(field);
            if !flow.possibly(id, field) {
                out.push(
                    Diagnostic::error(
                        codes::USE_BEFORE_INIT,
                        format!(
                            "subsystem field `{field_name}` of `{}` is used \
                             in `__init__` before any assignment \
                             reaches this point",
                            system.name
                        ),
                    )
                    .with_span(span),
                );
            } else if !flow.definitely(id, field) {
                out.push(
                    Diagnostic::warning(
                        codes::MAYBE_UNINIT_SUBSYSTEM,
                        format!(
                            "subsystem field `{field_name}` of `{}` may be \
                             uninitialized here: it is assigned on \
                             some but not all paths of `__init__`",
                            system.name
                        ),
                    )
                    .with_span(span),
                );
            }
        }
    }

    // Fields not definitely assigned when __init__ finishes, used
    // by operations.
    let exit = cfg.exit();
    for field in 0..ids.num_fields() as FieldId {
        if flow.definitely(exit, field) || !flow.possibly(exit, field) {
            // Definitely assigned, or never assigned (E005).
            continue;
        }
        let field = ids.field_name(field);
        for (op_name, lowered) in info.methods.iter() {
            if let Some(call) = lowered.calls.iter().find(|c| c.field == field) {
                out.push(
                    Diagnostic::warning(
                        codes::MAYBE_UNINIT_SUBSYSTEM,
                        format!(
                            "operation `{op_name}` of `{}` uses \
                             subsystem `{field}`, which `__init__` \
                             assigns only on some paths",
                            system.name
                        ),
                    )
                    .with_span(call.span),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::checker::Checker;
    use crate::diagnostics::codes;

    const VALVE: &str =
        "@sys\nclass Valve:\n    @op_initial_final\n    def test(self):\n        return []\n";

    #[test]
    fn use_before_assignment_is_an_error() {
        let src = format!(
            "{VALVE}\n@sys([\"a\"])\nclass S:\n    def __init__(self):\n        self.a.reset()\n        self.a = Valve()\n\n    @op_initial_final\n    def go(self):\n        self.a.test()\n        return []\n"
        );
        let checked = Checker::new().check_source(&src).unwrap();
        assert_eq!(
            checked
                .report
                .diagnostics
                .by_code(codes::USE_BEFORE_INIT)
                .count(),
            1
        );
    }

    #[test]
    fn branch_only_assignment_warns_at_init_read_and_op_use() {
        let src = format!(
            "{VALVE}\n@sys([\"a\"])\nclass S:\n    def __init__(self):\n        if flag:\n            self.a = Valve()\n        self.a.prime()\n\n    @op_initial_final\n    def go(self):\n        self.a.test()\n        return []\n"
        );
        let checked = Checker::new().check_source(&src).unwrap();
        // One W010 at the read in __init__, one at the op's call site.
        assert_eq!(
            checked
                .report
                .diagnostics
                .by_code(codes::MAYBE_UNINIT_SUBSYSTEM)
                .count(),
            2
        );
        assert_eq!(
            checked
                .report
                .diagnostics
                .by_code(codes::USE_BEFORE_INIT)
                .count(),
            0
        );
    }

    #[test]
    fn straight_line_init_is_silent() {
        let src = format!(
            "{VALVE}\n@sys([\"a\"])\nclass S:\n    def __init__(self):\n        self.a = Valve()\n        self.a.prime()\n\n    @op_initial_final\n    def go(self):\n        self.a.test()\n        return []\n"
        );
        let checked = Checker::new().check_source(&src).unwrap();
        assert_eq!(
            checked
                .report
                .diagnostics
                .by_code(codes::USE_BEFORE_INIT)
                .count()
                + checked
                    .report
                    .diagnostics
                    .by_code(codes::MAYBE_UNINIT_SUBSYSTEM)
                    .count(),
            0
        );
    }

    /// Python binds the last of two `__init__` definitions, so extraction
    /// (E005) and this pass (E008/W010) must both read that one: a class
    /// redefining `__init__` reports what the class with only its last
    /// definition reports.
    #[test]
    fn redefined_init_is_checked_by_its_last_definition() {
        let class = |inits: &[&str]| {
            let inits: String = inits
                .iter()
                .map(|body| format!("    def __init__(self):\n        {body}\n\n"))
                .collect();
            format!(
                "{VALVE}\n@sys([\"a\"])\nclass S:\n{inits}    @op_initial_final\n    def go(self):\n        \
                 self.a.test()\n        return []\n"
            )
        };
        let report = |src: String| {
            let checked = Checker::new().check_source(&src).unwrap();
            let codes: Vec<(&str, String)> = checked
                .report
                .diagnostics
                .iter()
                .map(|d| (d.code, d.message.clone()))
                .collect();
            (checked.report.passed(), format!("{codes:?}"))
        };
        let (assign, use_first) = ("self.a = Valve()", "self.a.test()");
        let last_uses = report(class(&[assign, use_first]));
        assert_eq!(last_uses, report(class(&[use_first])));
        assert!(!last_uses.0, "{}", last_uses.1);
        assert!(last_uses.1.contains("E005"), "{}", last_uses.1);
        let last_assigns = report(class(&[use_first, assign]));
        assert_eq!(last_assigns, report(class(&[assign])));
        assert!(last_assigns.0, "{}", last_assigns.1);
    }

    #[test]
    fn both_branches_assigning_is_definite() {
        let src = format!(
            "{VALVE}\n@sys([\"a\"])\nclass S:\n    def __init__(self):\n        if flag:\n            self.a = Valve()\n        else:\n            self.a = Valve()\n        self.a.prime()\n\n    @op_initial_final\n    def go(self):\n        self.a.test()\n        return []\n"
        );
        let checked = Checker::new().check_source(&src).unwrap();
        assert_eq!(
            checked
                .report
                .diagnostics
                .by_code(codes::MAYBE_UNINIT_SUBSYSTEM)
                .count(),
            0
        );
    }
}
