//! `E009`/`W012`/`W013`: automaton-typestate protocol lints.
//!
//! Backed by [`crate::dataflow::typestate`]: for every subsystem field of
//! a composite class, the analysis tracks the set of dependency-automaton
//! states at each program point, stepping per call and flowing through
//! interprocedural summaries for sibling calls.
//!
//! * `E009` — a call is proven to leave the dependency's protocol on
//!   *every* tracked path that can still complete an accepted usage; the
//!   message carries a shortest violating trace, paper-style.
//! * `W012` — a call leaves the protocol on *some* tracked path.
//! * `W013` — a dependency operation no reachable statement ever invokes:
//!   the inferred behavior cannot exercise it, so either the model
//!   over-promises or the implementation under-uses its dependency. The
//!   paper's `Valve`-with-`clean` example: an `App` that only ever runs
//!   `test · open · close` leaves `clean` dead.
//!
//! The same [`TypestateReport`] also carries the fields the analysis
//! proves conforming, which verification skips (the fast path). The two
//! verifying paths ([`crate::workspace::Workspace`] and
//! [`crate::pipeline::check_module_direct`]) therefore go through
//! [`super::lint_class`], which runs [`analyze_class`] once per class and
//! hands the report to both consumers: [`render`] here for the
//! diagnostics, and the caller for the proven set. [`Typestate::run`] is
//! the same analyze-then-render step for callers that only want the lint.

use super::{LintContext, LintPass};
use crate::dataflow::typestate::{analyze_class, TypestateReport};
use crate::diagnostics::{codes, Diagnostic, Diagnostics};
use crate::system::{System, SystemSet};
use micropython_parser::ast::ClassDef;

/// See the module docs.
pub struct Typestate;

impl LintPass for Typestate {
    fn name(&self) -> &'static str {
        "typestate-protocol"
    }

    fn codes(&self) -> &'static [&'static str] {
        &[
            codes::DEFINITE_PROTOCOL_VIOLATION,
            codes::POSSIBLE_PROTOCOL_VIOLATION,
            codes::DEAD_SUBSYSTEM_OPERATION,
        ]
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Diagnostics) {
        for (class, system) in ctx.classes() {
            if let Some(report) = analyze_class(class, system, ctx.systems) {
                render(&report, class, system, ctx.systems, out);
            }
        }
    }
}

/// Renders one class's [`TypestateReport`] as diagnostics: the findings
/// in report order, then the dead dependency operations per field.
pub(super) fn render(
    report: &TypestateReport,
    class: &ClassDef,
    system: &System,
    systems: &SystemSet,
    out: &mut Diagnostics,
) {
    for finding in &report.findings {
        if finding.definite {
            let trace = finding
                .witness
                .as_deref()
                .map(|w| format!("; shortest violating trace: {w}"))
                .unwrap_or_default();
            out.push(
                Diagnostic::error(
                    codes::DEFINITE_PROTOCOL_VIOLATION,
                    format!(
                        "calling `self.{}.{}()` in operation `{}` of \
                         `{}` violates the protocol of `{}` on every \
                         path reaching it{trace}",
                        finding.field, finding.called, finding.op, system.name, finding.dep_class,
                    ),
                )
                .with_span(finding.span),
            );
        } else {
            out.push(
                Diagnostic::warning(
                    codes::POSSIBLE_PROTOCOL_VIOLATION,
                    format!(
                        "calling `self.{}.{}()` in operation `{}` of \
                         `{}` may violate the protocol of `{}` on \
                         some path",
                        finding.field, finding.called, finding.op, system.name, finding.dep_class,
                    ),
                )
                .with_span(finding.span),
            );
        }
    }
    for (field, dep_class) in &report.deps {
        let Some(dep) = systems.get(dep_class) else {
            continue;
        };
        let invoked = &report.invoked[field];
        for op in &dep.spec.operations {
            if !invoked.contains(&op.name) {
                out.push(
                    Diagnostic::warning(
                        codes::DEAD_SUBSYSTEM_OPERATION,
                        format!(
                            "operation `{}` of `{}` is never invoked \
                             on subsystem `{}` of `{}`",
                            op.name, dep_class, field, system.name
                        ),
                    )
                    .with_span(class.name.span),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::build_systems;
    use micropython_parser::parse_module;

    fn lint(src: &str) -> Diagnostics {
        let module = parse_module(src).unwrap();
        let (systems, _) = build_systems(&module);
        let mut out = Diagnostics::default();
        let ctx = LintContext {
            module: &module,
            systems: &systems,
        };
        Typestate.run(&ctx, &mut out);
        out
    }

    const VALVE: &str = "\
@sys
class Valve:
    @op_initial
    def test(self):
        return [\"open\", \"clean\"]

    @op
    def open(self):
        return [\"close\"]

    @op_final
    def close(self):
        return []

    @op_final
    def clean(self):
        return []
";

    #[test]
    fn definite_violation_message_carries_trace() {
        let src = format!(
            "{VALVE}
@sys([\"a\"])
class App:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def run(self):
        self.a.test()
        self.a.open()
        self.a.open()
        self.a.close()
        return []
"
        );
        let out = lint(&src);
        let e009: Vec<_> = out
            .iter()
            .filter(|d| d.code == codes::DEFINITE_PROTOCOL_VIOLATION)
            .collect();
        assert_eq!(e009.len(), 1);
        assert!(
            e009[0]
                .message
                .contains("shortest violating trace: test, open, open"),
            "{}",
            e009[0].message
        );
    }

    #[test]
    fn dead_operation_warns_per_unused_dependency_op() {
        let src = format!(
            "{VALVE}
@sys([\"a\"])
class App:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def run(self):
        self.a.test()
        self.a.clean()
        return []
"
        );
        let out = lint(&src);
        let dead: Vec<String> = out
            .iter()
            .filter(|d| d.code == codes::DEAD_SUBSYSTEM_OPERATION)
            .map(|d| d.message.clone())
            .collect();
        assert_eq!(dead.len(), 2, "{dead:?}");
        assert!(dead[0].contains("`close`") || dead[1].contains("`close`"));
        assert!(dead[0].contains("`open`") || dead[1].contains("`open`"));
    }
}
