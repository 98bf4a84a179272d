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
//! The same analysis also yields the fields it proves conforming, which
//! verification skips (the fast path). The two verifying paths
//! ([`crate::workspace::Workspace`] and
//! [`crate::pipeline::check_module_direct`]) therefore go through
//! [`super::lint_class`], which runs the analysis once per class and
//! hands its id-keyed products to both consumers: [`render`] here for the
//! diagnostics, and the caller for the proven set. [`Typestate::run`] is
//! the same analyze-then-render step for callers that only want the lint;
//! [`crate::analyze_class`] writes the same products out by name as a
//! [`TypestateReport`](crate::TypestateReport).

use super::{LintContext, LintPass};
use crate::dataflow::typestate::{analyze, ClassTypestate, DependencyDfa};
use crate::diagnostics::{codes, Diagnostic, Diagnostics};
use crate::extract::cfg::{ClassCfgs, ClassIds, FieldId};
use crate::system::{System, SystemSet};
use micropython_parser::ast::ClassDef;
use std::sync::Arc;

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
            if system.composite().is_none() {
                continue;
            }
            let cfgs = ClassCfgs::build(class, system.subsystem_fields());
            let dfa_of = |dep: &System| Arc::new(DependencyDfa::of(&dep.spec));
            if let Some(result) = analyze(system, ctx.systems, &cfgs, &dfa_of) {
                render(&result, &cfgs.ids, class, system, ctx.systems, out);
            }
        }
    }
}

/// Renders one class's analysis products as diagnostics: the findings
/// in report order, then the dead dependency operations per field.
pub(super) fn render(
    result: &ClassTypestate,
    ids: &ClassIds<'_>,
    class: &ClassDef,
    system: &System,
    systems: &SystemSet,
    out: &mut Diagnostics,
) {
    let Some(info) = system.composite() else {
        return;
    };
    for finding in &result.findings {
        let sub = &info.subsystems[finding.sub];
        let (field, dep_class) = (&sub.field, &sub.class_name);
        let called = ids.op(finding.op).1;
        let op = &system.spec.operations[finding.operation].name;
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
                        "calling `self.{field}.{called}()` in operation `{op}` of \
                         `{}` violates the protocol of `{dep_class}` on every \
                         path reaching it{trace}",
                        system.name,
                    ),
                )
                .with_span(finding.span),
            );
        } else {
            out.push(
                Diagnostic::warning(
                    codes::POSSIBLE_PROTOCOL_VIOLATION,
                    format!(
                        "calling `self.{field}.{called}()` in operation `{op}` of \
                         `{}` may violate the protocol of `{dep_class}` on \
                         some path",
                        system.name,
                    ),
                )
                .with_span(finding.span),
            );
        }
    }
    for field in 0..ids.num_fields() as FieldId {
        let field_name = ids.field_name(field);
        // The class backing the field: its last declaration's.
        let Some(sub) = info.subsystems.iter().rfind(|s| s.field == field_name) else {
            continue;
        };
        let Some(dep) = systems.get(&sub.class_name) else {
            continue;
        };
        for op in &dep.spec.operations {
            if !result.invokes(ids, field, &op.name) {
                out.push(
                    Diagnostic::warning(
                        codes::DEAD_SUBSYSTEM_OPERATION,
                        format!(
                            "operation `{}` of `{}` is never invoked \
                             on subsystem `{}` of `{}`",
                            op.name, sub.class_name, field_name, system.name
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

    /// A redefined operation is analysed by its last definition alone: a
    /// `break` in an earlier definition neither degrades it to unknown
    /// nor hides its finding.
    #[test]
    fn redefined_operation_is_analysed_by_its_last_definition() {
        let last = "
    @op_initial_final
    def run(self):
        self.a.test()
        self.a.test()
        self.a.open()
        return []
";
        let app = format!(
            "{VALVE}
@sys([\"a\"])
class App:
    def __init__(self):
        self.a = Valve()
"
        );
        let e009 = |src: &str| -> Vec<String> {
            lint(src)
                .iter()
                .filter(|d| d.code == codes::DEFINITE_PROTOCOL_VIOLATION)
                .map(|d| d.message.clone())
                .collect()
        };
        let single = e009(&format!("{app}{last}"));
        assert_eq!(single.len(), 1, "{single:?}");
        assert!(
            single[0].contains("shortest violating trace: test, test"),
            "{}",
            single[0]
        );
        let first = "
    @op_initial_final
    def run(self):
        while c:
            break
        return []
";
        assert_eq!(e009(&format!("{app}{first}{last}")), single);
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
