//! The end-to-end verification pipeline.
//!
//! `parse → annotations → specs → extraction → invocation analysis →
//! subsystem usage → temporal claims`, producing a [`CheckReport`] with all
//! structural diagnostics and the paper's two specification errors.

use crate::dataflow::typestate::{analyze_class, DependencyDfa};
use crate::diagnostics::{codes, Diagnostic, Diagnostics};
use crate::integration::build_integration;
use crate::lint::{lint_class, LintConfig, LintContext, LintLevel};
use crate::system::{build_systems, System, SystemSet};
use crate::verify::claims::{claim_violations, ClaimViolation};
use crate::verify::usage::{check_usage_counted, UsageViolation};
use micropython_parser::ast::{ClassDef, Module};
use micropython_parser::SourceFile;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The result of verifying one source file.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Structural diagnostics (annotations, invocation analysis, lints).
    pub diagnostics: Diagnostics,
    /// `INVALID SUBSYSTEM USAGE` failures, by class.
    pub usage_violations: Vec<(String, UsageViolation)>,
    /// `FAIL TO MEET REQUIREMENT` failures, by class.
    pub claim_violations: Vec<(String, ClaimViolation)>,
}

impl CheckReport {
    /// Whether verification passed (no errors of any kind; warnings are
    /// allowed).
    pub fn passed(&self) -> bool {
        !self.diagnostics.has_errors()
            && self.usage_violations.is_empty()
            && self.claim_violations.is_empty()
    }

    /// Renders the whole report: specification errors in the paper's
    /// format, then the remaining diagnostics.
    pub fn render(&self, source: Option<&SourceFile>) -> String {
        self.render_with(|d| d.render(source))
    }

    /// Renders a multi-file project's report: like [`render`](Self::render)
    /// without a source, except that each diagnostic with a file of its own
    /// shows its position in that file, whose text `source` gives
    /// ([`Diagnostic::render_located`]).
    pub fn render_project<'s>(&self, source: impl Fn(&str) -> Option<&'s SourceFile>) -> String {
        self.render_with(|d| d.render_located(d.file.as_deref().and_then(&source)))
    }

    fn render_with(&self, diagnostic: impl Fn(&Diagnostic) -> String) -> String {
        let mut out = String::new();
        for (class, v) in &self.usage_violations {
            out.push_str(&format!("[{class}] "));
            out.push_str(&v.render());
            out.push('\n');
        }
        for (class, v) in &self.claim_violations {
            out.push_str(&format!("[{class}] "));
            out.push_str(&v.render());
            out.push('\n');
        }
        for d in self.diagnostics.iter() {
            out.push_str(&diagnostic(d));
            out.push('\n');
        }
        out
    }
}

/// The verified systems and their report.
///
/// A composite's integration automaton is built, used for its usage and
/// claim checks, and dropped; a caller that wants it builds it again with
/// [`build_integration`].
#[derive(Debug, Clone)]
pub struct Checked {
    /// All systems of the module. Shared, so cloning a `Checked` copies
    /// no list.
    pub systems: Arc<SystemSet>,
    /// The report.
    pub report: CheckReport,
}

/// The reference implementation: sequential, from scratch, single module,
/// no caching — one [`build_systems`] pass, then per class in declaration
/// order the lint passes and [`verify_system`], which share one typestate
/// analysis (see `lint::lint_class`).
///
/// [`crate::workspace::Workspace`] must produce byte-identical reports to
/// this function on any single-module input; the equivalence suite holds
/// the two against each other. Lint passes run after system building, and
/// `config` reshapes the final diagnostics (`Allow` drops, `Warn` demotes —
/// including the paper's `E100`/`E101`, whose violation lists are then
/// cleared so [`CheckReport::passed`] stays consistent with the
/// diagnostics).
pub fn check_module_direct(module: &Module, config: &LintConfig) -> Checked {
    let (systems, mut diagnostics) = build_systems(module);
    let ctx = LintContext {
        module,
        systems: &systems,
    };
    let mut usage_violations = Vec::new();
    let mut claim_violations = Vec::new();

    for system in systems.iter() {
        let proven = lint_class(
            &ctx,
            system,
            &|dep: &System| Arc::new(DependencyDfa::of(&dep.spec)),
            &mut diagnostics,
        );
        let verdict = verify_system(system, &systems, &proven);
        diagnostics.extend(verdict.diagnostics);
        for v in verdict.usage_violations {
            usage_violations.push((system.name.clone(), v));
        }
        for v in verdict.claim_violations {
            claim_violations.push((system.name.clone(), v));
        }
    }

    config.apply(&mut diagnostics);
    if config.level(codes::INVALID_SUBSYSTEM_USAGE) != LintLevel::Deny {
        usage_violations.clear();
    }
    if config.level(codes::FAIL_TO_MEET_REQUIREMENT) != LintLevel::Deny {
        claim_violations.clear();
    }

    Checked {
        systems: Arc::new(systems),
        report: CheckReport {
            diagnostics,
            usage_violations,
            claim_violations,
        },
    }
}

/// The per-class verification products: what checking one system against
/// the specs of its subsystems yields.
///
/// Produced by [`verify_system`]. The verdict of a class depends only on
/// the class's own extraction and its direct subsystems' specs, which is
/// the caching seam [`crate::workspace::Workspace`] exploits.
#[derive(Debug, Clone, Default)]
pub struct SystemVerdict {
    /// `E100`/`E101` findings plus claim-parse diagnostics.
    pub diagnostics: Diagnostics,
    /// `INVALID SUBSYSTEM USAGE` failures of this class.
    pub usage_violations: Vec<UsageViolation>,
    /// `FAIL TO MEET REQUIREMENT` failures of this class.
    pub claim_violations: Vec<ClaimViolation>,
    /// Subsystem fields whose inclusion check was skipped because the
    /// typestate analysis already proved it passes (the fast path).
    pub fast_path_skips: usize,
    /// Pairs the inclusion search kept across this class's usage checks
    /// (see [`shelley_regular::antichain`]).
    pub antichain_frontier: u64,
    /// Discovered pairs the inclusion search discarded as covered.
    pub antichain_pruned: u64,
}

/// The subsystem fields of `system` the typestate analysis proves
/// protocol-conforming — [`check_usage`](crate::verify::usage::check_usage)
/// may skip them.
///
/// `class` is the system's source definition (`None` short-circuits to an
/// empty set, disabling the fast path). The verifying paths get this set
/// from `lint::lint_class`, which shares the analysis with the typestate lint;
/// this wrapper runs the analysis on its own.
pub fn proven_fields(
    class: Option<&ClassDef>,
    system: &System,
    systems: &SystemSet,
) -> BTreeSet<String> {
    class
        .and_then(|class| analyze_class(class, system, systems))
        .map(|report| report.proven)
        .unwrap_or_default()
}

/// Verifies one system against the others: builds the integration
/// automaton (for composites), checks subsystem usage inclusion and every
/// temporal claim on it, and drops it.
///
/// `proven` lists subsystem fields whose usage inclusion is already
/// established (see [`proven_fields`]); their checks are skipped and
/// counted in [`SystemVerdict::fast_path_skips`].
pub fn verify_system(
    system: &System,
    systems: &SystemSet,
    proven: &BTreeSet<String>,
) -> SystemVerdict {
    let mut verdict = SystemVerdict::default();
    if let Some(info) = system.composite() {
        verdict.fast_path_skips = info
            .subsystems
            .iter()
            .filter(|sub| proven.contains(&sub.field))
            .count();
    }
    let integration = system.is_composite().then(|| build_integration(system));
    if let Some(ref integ) = integration {
        let (checked, search) = check_usage_counted(system, systems, integ, proven);
        verdict.antichain_frontier = search.frontier as u64;
        verdict.antichain_pruned = search.pruned as u64;
        if let Err(v) = checked {
            verdict.diagnostics.push(
                Diagnostic::error(
                    codes::INVALID_SUBSYSTEM_USAGE,
                    format!(
                        "class `{}`: invalid subsystem usage (counterexample: {})",
                        system.name, v.counterexample_text
                    ),
                )
                .with_note(v.render().trim_end().to_owned()),
            );
            verdict.usage_violations.push(v);
        }
    }
    for v in claim_violations(system, integration.as_ref(), &mut verdict.diagnostics) {
        verdict.diagnostics.push(
            Diagnostic::error(
                codes::FAIL_TO_MEET_REQUIREMENT,
                format!(
                    "class `{}`: fails requirement `{}` (counterexample: {})",
                    system.name, v.formula, v.counterexample_text
                ),
            )
            .with_note(v.render().trim_end().to_owned()),
        );
        verdict.claim_violations.push(v);
    }
    verdict
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::checker::Checker;

    /// Listings 2.1 + 2.2 of the paper, verbatim.
    pub(crate) const PAPER_SOURCE: &str = r#"
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)
        self.clean_pin = Pin(28, OUT)
        self.status = Pin(29, IN)

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

    @op_final
    def close(self):
        self.control.off()
        return ["test"]

    @op_final
    def clean(self):
        self.clean_pin.on()
        return ["test"]

@claim("(!a.open) W b.open")
@sys(["a", "b"])
class BadSector:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial_final
    def open_a(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                return ["open_b"]
            case ["clean"]:
                self.a.clean()
                print("a failed")
                return []

    @op_final
    def open_b(self):
        match self.b.test():
            case ["open"]:
                self.b.open()
                self.a.close()
                self.b.close()
                return []
            case ["clean"]:
                self.b.clean()
                print("b failed")
                self.a.close()
                return []
"#;

    #[test]
    fn paper_example_end_to_end() {
        let checked = Checker::new().check_source(PAPER_SOURCE).unwrap();
        assert!(!checked.report.passed());
        // Exactly one usage violation (BadSector) with the paper's text.
        assert_eq!(checked.report.usage_violations.len(), 1);
        let (class, v) = &checked.report.usage_violations[0];
        assert_eq!(class, "BadSector");
        assert_eq!(v.counterexample_text, "open_a, a.test, a.open");
        assert_eq!(
            v.subsystem_errors[0].render(),
            "Valve 'a': test, >open< (not final)"
        );
        // And one claim violation.
        assert_eq!(checked.report.claim_violations.len(), 1);
        let (_, cv) = &checked.report.claim_violations[0];
        assert_eq!(cv.formula, "(!a.open) W b.open");
        // Valve itself is fine; both systems built.
        assert_eq!(checked.systems.len(), 2);
        assert_eq!(
            checked.systems.iter().filter(|s| s.is_composite()).count(),
            1
        );
        // The rendered report shows both paper error blocks.
        let text = checked.report.render(None);
        assert!(text.contains("INVALID SUBSYSTEM USAGE"));
        assert!(text.contains("FAIL TO MEET REQUIREMENT"));
    }

    #[test]
    fn fixed_sector_passes() {
        // The corrected sector: open both valves in one operation,
        // respecting the Valve protocol and the claim.
        let src = PAPER_SOURCE.replace(
            r#"@claim("(!a.open) W b.open")"#,
            r#"@claim("(!a.open) W b.test")"#,
        );
        // Build a conforming composite instead of BadSector.
        let good = r#"
@sys(["a"])
class GoodSector:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def water(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                self.a.close()
                return []
            case ["clean"]:
                self.a.clean()
                return []
"#;
        let valve_only: String = src.split("@claim").next().unwrap().to_owned() + good;
        let checked = Checker::new().check_source(&valve_only).unwrap();
        assert!(checked.report.passed(), "{}", checked.report.render(None));
    }

    #[test]
    fn typestate_fast_path_skips_proven_subsystems() {
        use super::{check_module_direct, proven_fields, verify_system};
        use crate::lint::LintConfig;

        let src = PAPER_SOURCE.split("@claim").next().unwrap().to_owned()
            + r#"
@sys(["a"])
class GoodSector:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def water(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                self.a.close()
                return []
            case ["clean"]:
                self.a.clean()
                return []
"#;
        let module = micropython_parser::parse_module(&src).unwrap();
        let (systems, _) = crate::system::build_systems(&module);
        let good = systems.get("GoodSector").unwrap();
        let proven = proven_fields(module.class("GoodSector"), good, &systems);
        assert_eq!(proven.iter().collect::<Vec<_>>(), ["a"]);
        let verdict = verify_system(good, &systems, &proven);
        assert_eq!(verdict.fast_path_skips, 1);
        assert!(verdict.usage_violations.is_empty());
        // The full pipeline agrees with the skipped check.
        let checked = check_module_direct(&module, &LintConfig::default());
        assert!(checked.report.passed(), "{}", checked.report.render(None));

        // BadSector's misuse of `a` is *not* proven away: the analysis
        // refuses the fast path, leaving the real check to find the
        // violation.
        let paper = micropython_parser::parse_module(PAPER_SOURCE).unwrap();
        let (systems, _) = crate::system::build_systems(&paper);
        let bad = systems.get("BadSector").unwrap();
        let proven = proven_fields(paper.class("BadSector"), bad, &systems);
        assert!(!proven.contains("a"));
    }

    /// Work-count gate: the lint and the fast path share one typestate
    /// analysis per composite class, and every pass shares one graph per
    /// method (`Valve`'s 4, each user's 2).
    #[test]
    fn one_analysis_per_composite_class_in_check_module_direct() {
        use crate::dataflow::typestate::analyses_run;
        use crate::extract::cfg::cfgs_built;

        let module =
            micropython_parser::parse_module(&crate::workspace::tests::composites_project(5))
                .unwrap();
        let before = analyses_run();
        let cfgs_before = cfgs_built();
        let checked = super::check_module_direct(&module, &crate::lint::LintConfig::default());
        let composites = checked.systems.iter().filter(|s| s.is_composite()).count();
        assert_eq!(composites, 5);
        assert!(checked
            .report
            .diagnostics
            .by_code(crate::diagnostics::codes::DEFINITE_PROTOCOL_VIOLATION)
            .next()
            .is_some());
        assert_eq!(analyses_run() - before, composites);
        assert_eq!(cfgs_built() - cfgs_before, 4 + 2 * composites);
    }

    #[test]
    fn parse_errors_propagate() {
        assert!(Checker::new().check_source("def broken(:\n").is_err());
    }

    #[test]
    fn empty_module_passes_vacuously() {
        let checked = Checker::new().check_source("x = 1\n").unwrap();
        assert!(checked.report.passed());
        assert!(checked.systems.is_empty());
    }
}
