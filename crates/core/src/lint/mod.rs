//! The lint framework: flow-sensitive passes and per-code level control.
//!
//! Verification proper (subsystem usage, claims) decides pass/fail;
//! *lints* are the advisory layer around it. Every diagnostic carries a
//! stable code from [`crate::diagnostics::codes`], and a [`LintConfig`]
//! maps codes to [`LintLevel`]s the way `rustc -A/-W/-D` does:
//!
//! * `Allow` drops the diagnostic entirely;
//! * `Warn` keeps (or demotes) it as a warning;
//! * `Deny` promotes it to an error, failing verification.
//!
//! [`LintConfig::deny_warnings`] promotes every remaining warning except
//! codes explicitly set to `Warn` (which act like rustc's `--force-warn`).
//!
//! The passes themselves ([`default_passes`]) run between system building
//! and verification. They are flow-sensitive: they read the control-flow
//! graph of [`crate::extract::cfg`] over method bodies, which the
//! regular-language lowering of §3.2 deliberately erases.
//!
//! Each pass is a per-class function behind its [`LintPass`] impl.
//! Verification does not run the passes through [`run_lints`] but through
//! the crate-internal `lint_class`: it applies the same passes to one
//! class in the same order and returns the typestate analysis's proven
//! fields, so the E009/W012/W013 lint and the inclusion fast path share a
//! single typestate analysis ([`analyze_class`](crate::analyze_class) by
//! id). It also builds one
//! graph per method over one id table ([`ClassCfgs`]), tracking the
//! composite's subsystem fields, and hands it to W009, E008/W010 and the
//! typestate analysis; a pass run on its own builds the graphs it needs.

mod init_order;
mod self_calls;
mod typestate;
mod unreachable;

pub use init_order::InitOrder;
pub use self_calls::SelfCalls;
pub use typestate::Typestate;
pub use unreachable::UnreachableCode;

use crate::dataflow::typestate::{analyze, DependencyDfa};
use crate::diagnostics::{code_info, Diagnostics, Severity, REGISTRY};
use crate::extract::cfg::ClassCfgs;
use crate::system::{System, SystemSet};
use micropython_parser::ast::{ClassDef, Module};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// How diagnostics with a given code are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintLevel {
    /// Drop the diagnostic.
    Allow,
    /// Report as a warning.
    Warn,
    /// Report as an error (verification fails).
    Deny,
}

/// The `-A`/`-W`/`-D` code given to [`LintConfig::set`] was not a known
/// diagnostic code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownCode(pub String);

impl fmt::Display for UnknownCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut known: Vec<&str> = REGISTRY.iter().map(|info| info.code).collect();
        known.sort_unstable();
        write!(
            f,
            "unknown diagnostic code `{}` (known codes: {})",
            self.0,
            known.join(", ")
        )
    }
}

impl std::error::Error for UnknownCode {}

/// Per-code lint levels plus the deny-warnings switch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintConfig {
    overrides: BTreeMap<&'static str, LintLevel>,
    /// Promote every warning (not explicitly set to `Warn`) to an error.
    pub deny_warnings: bool,
}

impl LintConfig {
    /// The default configuration: registry defaults, warnings allowed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the level of one code.
    ///
    /// # Errors
    ///
    /// Rejects codes absent from [`crate::diagnostics::REGISTRY`].
    pub fn set(&mut self, code: &str, level: LintLevel) -> Result<(), UnknownCode> {
        let info = code_info(code).ok_or_else(|| UnknownCode(code.to_owned()))?;
        self.overrides.insert(info.code, level);
        Ok(())
    }

    /// The effective level of a code (override, else registry default).
    pub fn level(&self, code: &str) -> LintLevel {
        if let Some(&level) = self.overrides.get(code) {
            return level;
        }
        match code_info(code).map(|i| i.default_severity) {
            Some(Severity::Error) => LintLevel::Deny,
            _ => LintLevel::Warn,
        }
    }

    /// Whether the code was explicitly set to `Warn` (exempt from
    /// [`deny_warnings`](Self::deny_warnings)).
    fn forced_warn(&self, code: &str) -> bool {
        self.overrides.get(code) == Some(&LintLevel::Warn)
    }

    /// Applies the configuration to a collection: drops allowed codes,
    /// adjusts severities, then sorts and deduplicates ([`Diagnostics::normalize`]).
    ///
    /// Only explicit overrides reshape a diagnostic's severity — with no
    /// override the authored severity stands, so a code whose registry
    /// default is `Error` may still be emitted as an advisory warning
    /// (e.g. E007 on claims that mention unknown events).
    pub fn apply(&self, diagnostics: &mut Diagnostics) {
        let kept = std::mem::take(diagnostics);
        for mut d in kept {
            match self.overrides.get(d.code) {
                Some(LintLevel::Allow) => continue,
                Some(LintLevel::Warn) => d.severity = Severity::Warning,
                Some(LintLevel::Deny) => d.severity = Severity::Error,
                None => {}
            }
            if self.deny_warnings && d.severity == Severity::Warning && !self.forced_warn(d.code) {
                d.severity = Severity::Error;
            }
            diagnostics.push(d);
        }
        diagnostics.normalize();
    }
}

/// Everything a pass may inspect: the parsed module and the systems built
/// from it.
pub struct LintContext<'a> {
    /// The module under analysis.
    pub module: &'a Module,
    /// The `@sys` systems built from it (specs, lowered methods).
    pub systems: &'a SystemSet,
}

impl<'a> LintContext<'a> {
    /// The systems whose class the module defines, with that class — the
    /// units every pass runs on.
    fn classes(&self) -> impl Iterator<Item = (&'a ClassDef, &'a System)> + '_ {
        self.systems
            .iter()
            .filter_map(|system| Some((self.module.class(&system.name)?, system)))
    }
}

/// One lint pass.
pub trait LintPass {
    /// A short machine-friendly pass name (`"unreachable-code"`).
    fn name(&self) -> &'static str;

    /// The codes the pass can emit.
    fn codes(&self) -> &'static [&'static str];

    /// Runs the pass, appending findings to `out`.
    fn run(&self, ctx: &LintContext<'_>, out: &mut Diagnostics);
}

/// The built-in passes, in execution order.
pub fn default_passes() -> Vec<Box<dyn LintPass>> {
    vec![
        Box::new(UnreachableCode),
        Box::new(InitOrder),
        Box::new(SelfCalls),
        Box::new(Typestate),
    ]
}

/// Runs every default pass over `module`/`systems`.
///
/// Every pass runs whatever the lint levels: [`LintConfig::apply`] drops
/// allowed codes when the report is assembled. The findings therefore
/// depend only on the analysed code, which lets the workspace cache them
/// (in memory and on disk) under content fingerprints alone.
pub fn run_lints(module: &Module, systems: &SystemSet, out: &mut Diagnostics) {
    let ctx = LintContext { module, systems };
    for pass in default_passes() {
        pass.run(&ctx, out);
    }
}

/// Runs every default pass over one system of `ctx`, in
/// [`default_passes`] order, and returns the subsystem fields the
/// typestate analysis proves protocol-conforming (the fast path of
/// [`crate::pipeline::verify_system`]).
///
/// The findings equal those [`run_lints`] emits for this system over a
/// module holding only its class, and the proven set equals
/// [`crate::pipeline::proven_fields`], but the typestate analysis runs
/// once for both, each method's graph is built once for every pass, and
/// the typestate analysis takes each dependency's DFA from `dfa_of` (see
/// `DependencyDfa::of`).
pub(crate) fn lint_class(
    ctx: &LintContext<'_>,
    system: &System,
    dfa_of: &dyn Fn(&System) -> Arc<DependencyDfa>,
    out: &mut Diagnostics,
) -> BTreeSet<String> {
    let Some(class) = ctx.module.class(&system.name) else {
        return BTreeSet::new();
    };
    let cfgs = ClassCfgs::build(class, system.subsystem_fields());
    unreachable::check_class(class, system, &cfgs.graphs, out);
    let init = cfgs.ids.method("__init__").map(|m| cfgs.graph(m));
    init_order::check_class(system, &cfgs.ids, init, out);
    self_calls::check_class(class, system, out);
    let Some(result) = analyze(system, ctx.systems, &cfgs, dfa_of) else {
        return BTreeSet::new();
    };
    typestate::render(&result, &cfgs.ids, class, system, ctx.systems, out);
    result.proven_fields(system)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::{codes, Diagnostic};

    #[test]
    fn defaults_follow_the_registry() {
        let config = LintConfig::new();
        assert_eq!(config.level(codes::UNDEFINED_OPERATION), LintLevel::Deny);
        assert_eq!(config.level(codes::IMPLICIT_RETURN), LintLevel::Warn);
        assert_eq!(
            config.level(codes::INVALID_SUBSYSTEM_USAGE),
            LintLevel::Deny
        );
    }

    #[test]
    fn unknown_codes_are_rejected() {
        let mut config = LintConfig::new();
        assert_eq!(
            config.set("E999", LintLevel::Allow),
            Err(UnknownCode("E999".into()))
        );
        assert!(config.set("W003", LintLevel::Allow).is_ok());
    }

    #[test]
    fn apply_drops_promotes_and_demotes() {
        let mut config = LintConfig::new();
        config
            .set(codes::IMPLICIT_RETURN, LintLevel::Allow)
            .unwrap();
        config
            .set(codes::UNREACHABLE_OPERATION, LintLevel::Deny)
            .unwrap();
        config
            .set(codes::NO_INITIAL_OPERATION, LintLevel::Warn)
            .unwrap();
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::warning(codes::IMPLICIT_RETURN, "dropped"));
        ds.push(Diagnostic::warning(
            codes::UNREACHABLE_OPERATION,
            "promoted",
        ));
        ds.push(Diagnostic::error(codes::NO_INITIAL_OPERATION, "demoted"));
        ds.push(Diagnostic::warning(codes::FIELD_REASSIGNED, "untouched"));
        config.apply(&mut ds);
        assert_eq!(ds.len(), 3);
        assert!(ds.by_code(codes::IMPLICIT_RETURN).next().is_none());
        assert_eq!(
            ds.by_code(codes::UNREACHABLE_OPERATION)
                .next()
                .unwrap()
                .severity,
            Severity::Error
        );
        assert_eq!(
            ds.by_code(codes::NO_INITIAL_OPERATION)
                .next()
                .unwrap()
                .severity,
            Severity::Warning
        );
        assert_eq!(
            ds.by_code(codes::FIELD_REASSIGNED).next().unwrap().severity,
            Severity::Warning
        );
    }

    #[test]
    fn deny_warnings_spares_forced_warn() {
        let mut config = LintConfig::new();
        config.deny_warnings = true;
        config.set(codes::IMPLICIT_RETURN, LintLevel::Warn).unwrap();
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::warning(
            codes::IMPLICIT_RETURN,
            "stays a warning",
        ));
        ds.push(Diagnostic::warning(
            codes::FIELD_REASSIGNED,
            "becomes an error",
        ));
        config.apply(&mut ds);
        assert_eq!(
            ds.by_code(codes::IMPLICIT_RETURN).next().unwrap().severity,
            Severity::Warning
        );
        assert_eq!(
            ds.by_code(codes::FIELD_REASSIGNED).next().unwrap().severity,
            Severity::Error
        );
    }

    #[test]
    fn apply_is_idempotent() {
        let mut config = LintConfig::new();
        config.deny_warnings = true;
        config
            .set(codes::IMPLICIT_RETURN, LintLevel::Allow)
            .unwrap();
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::warning(codes::FIELD_REASSIGNED, "x"));
        ds.push(Diagnostic::warning(codes::IMPLICIT_RETURN, "y"));
        config.apply(&mut ds);
        let once = ds.clone();
        config.apply(&mut ds);
        assert_eq!(ds, once);
    }

    /// Holds [`lint_class`] against the two separate runs it replaces —
    /// [`run_lints`] over a module holding only the class, then
    /// [`crate::pipeline::proven_fields`] — on every class of `module`:
    /// the same diagnostics in the same order and the same proven set.
    /// The class is also linted inside the whole module (the shape
    /// `check_module_direct` uses), which must not change the result.
    /// Each class's relational typestate solves are also held against
    /// the per-entry-state definition (`per_state::assert_matches`).
    /// Returns the number of composite classes compared and the number of
    /// per-state solves they were held against.
    fn assert_one_analysis_matches_two(module: &Module) -> (usize, usize) {
        use crate::dataflow::typestate::per_state;
        use crate::pipeline::proven_fields;
        use micropython_parser::ast::Stmt;

        let (systems, _) = crate::system::build_systems(module);
        let (mut composites, mut solves) = (0, 0);
        for system in systems.iter() {
            let Some(class) = module.class(&system.name) else {
                continue;
            };
            composites += usize::from(system.is_composite());
            let solo = Module {
                body: vec![Stmt::ClassDef(class.clone())],
            };
            let mut separate = Diagnostics::new();
            run_lints(&solo, &systems, &mut separate);
            let separate_proven = proven_fields(Some(class), system, &systems);

            for scope in [&solo, module] {
                let ctx = LintContext {
                    module: scope,
                    systems: &systems,
                };
                let mut shared = Diagnostics::new();
                let dfa_of = |dep: &System| Arc::new(DependencyDfa::of(&dep.spec));
                let proven = lint_class(&ctx, system, &dfa_of, &mut shared);
                assert_eq!(shared, separate, "diagnostics of `{}`", system.name);
                assert_eq!(proven, separate_proven, "proven set of `{}`", system.name);
            }
            solves += per_state::assert_matches(class, system, &systems);
        }
        (composites, solves)
    }

    #[test]
    fn one_analysis_matches_two_on_the_examples() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples_py");
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "py"))
            .collect();
        files.sort();
        assert!(!files.is_empty(), "no examples under {dir}");
        let (mut composites, mut solves) = (0, 0);
        let mut compare = |module: &Module| {
            let (c, s) = assert_one_analysis_matches_two(module);
            composites += c;
            solves += s;
        };
        for path in &files {
            let source = std::fs::read_to_string(path).unwrap();
            let module = micropython_parser::parse_module(&source)
                .unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
            compare(&module);
        }
        compare(&micropython_parser::parse_module(crate::pipeline::tests::PAPER_SOURCE).unwrap());
        assert!(
            composites >= 3 && solves > 0,
            "only {composites} composite classes and {solves} per-state solves compared"
        );
    }

    /// Random composites in the style of `tests/prop_typestate.rs`: a
    /// random dependency protocol `Gen` and a `User` with two `Gen`
    /// fields whose operation body mixes straight-line calls, branches,
    /// loops and a helper, so every typestate finding kind and both
    /// fast-path outcomes occur.
    mod random_composites {
        use super::assert_one_analysis_matches_two;
        use proptest::prelude::*;
        use std::fmt::Write as _;

        #[derive(Debug, Clone)]
        enum Item {
            Call(usize),
            Branch(Vec<usize>, Vec<usize>),
            Loop(usize),
            Helper,
        }

        fn arb_item() -> impl Strategy<Value = Item> {
            let call = 0usize..12;
            let calls = || proptest::collection::vec(0usize..12, 0..3);
            prop_oneof![
                4 => call.clone().prop_map(Item::Call),
                2 => (calls(), calls()).prop_map(|(t, e)| Item::Branch(t, e)),
                1 => call.prop_map(Item::Loop),
                1 => Just(Item::Helper),
            ]
        }

        /// `self.x.opK()` / `self.y.opK()`: even call indices hit `x`.
        fn call(out: &mut String, indent: &str, n_ops: usize, i: usize) {
            let field = if i.is_multiple_of(2) { "x" } else { "y" };
            let _ = writeln!(out, "{indent}self.{field}.op{}()", (i / 2) % n_ops);
        }

        fn block(out: &mut String, indent: &str, n_ops: usize, calls: &[usize]) {
            if calls.is_empty() {
                let _ = writeln!(out, "{indent}pass");
            }
            for &i in calls {
                call(out, indent, n_ops, i);
            }
        }

        fn render(exits: &[Vec<usize>], items: &[Item], helper: &[usize]) -> String {
            let n = exits.len();
            let mut out = String::from("@sys\nclass Gen:\n");
            for (i, next) in exits.iter().enumerate() {
                let dec = match (i == 0, i == n - 1) {
                    (true, true) => "@op_initial_final",
                    (true, false) => "@op_initial",
                    (false, true) => "@op_final",
                    (false, false) => "@op",
                };
                let next: Vec<String> = next.iter().map(|t| format!("\"op{t}\"")).collect();
                let _ = writeln!(out, "    {dec}\n    def op{i}(self):");
                let _ = writeln!(out, "        return [{}]\n", next.join(", "));
            }
            out.push_str("@sys([\"x\", \"y\"])\nclass User:\n    def __init__(self):\n");
            out.push_str("        self.x = Gen()\n        self.y = Gen()\n\n");
            out.push_str("    @op_initial_final\n    def run(self):\n");
            for item in items {
                match item {
                    Item::Call(i) => call(&mut out, "        ", n, *i),
                    Item::Branch(then, orelse) => {
                        out.push_str("        if cond:\n");
                        block(&mut out, "            ", n, then);
                        out.push_str("        else:\n");
                        block(&mut out, "            ", n, orelse);
                    }
                    Item::Loop(i) => {
                        out.push_str("        while cond:\n");
                        call(&mut out, "            ", n, *i);
                    }
                    Item::Helper => out.push_str("        self.aux()\n"),
                }
            }
            out.push_str("        return []\n\n    def aux(self):\n");
            block(&mut out, "        ", n, helper);
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn one_analysis_matches_two_on_random_composites(
                exits in (2usize..6).prop_flat_map(|n| proptest::collection::vec(
                    proptest::collection::vec(0..n, 0..3), n)),
                items in proptest::collection::vec(arb_item(), 0..6),
                helper in proptest::collection::vec(0usize..12, 0..3),
            ) {
                let src = render(&exits, &items, &helper);
                let module = micropython_parser::parse_module(&src).expect("generated source parses");
                prop_assert_eq!(assert_one_analysis_matches_two(&module).0, 1);
            }
        }
    }

    /// A composite of 70 subsystem fields over a 9-operation chain: field
    /// sets take two words, and the dependency DFA has 11 states, so a
    /// method relation (11·12 bits) spills to the heap. `__init__` reads
    /// `f69` before assigning it (E008) and assigns `f68` on one branch
    /// (W010 at its use), `run` drives `f0` through the whole chain
    /// (proven) and calls `f66` out of protocol (E009).
    #[test]
    fn wide_composite_spills_field_bitsets_and_relations() {
        use crate::dataflow::typestate::dependency_dfa;
        use std::fmt::Write as _;

        let mut src = String::from("@sys\nclass Dev:\n");
        for i in 0..9 {
            let (dec, next) = match i {
                0 => ("@op_initial", "[\"op1\"]".to_owned()),
                8 => ("@op_final", "[]".to_owned()),
                _ => ("@op", format!("[\"op{}\"]", i + 1)),
            };
            let _ = write!(
                src,
                "    {dec}\n    def op{i}(self):\n        return {next}\n\n"
            );
        }
        let fields: Vec<String> = (0..70).map(|i| format!("\"f{i}\"")).collect();
        let _ = write!(
            src,
            "@sys([{}])\nclass Wide:\n    def __init__(self):\n",
            fields.join(", ")
        );
        src.push_str("        self.f69.op0()\n");
        for i in 0..68 {
            let _ = writeln!(src, "        self.f{i} = Dev()");
        }
        src.push_str(
            "        if cond:\n            self.f68 = Dev()\n        self.f69 = Dev()\n\n",
        );
        src.push_str("    @op_initial_final\n    def run(self):\n");
        for i in 0..9 {
            let _ = writeln!(src, "        self.f0.op{i}()");
        }
        src.push_str("        self.f66.op1()\n        self.f68.op0()\n        return []\n");

        let module = micropython_parser::parse_module(&src).unwrap();
        let (systems, _) = crate::system::build_systems(&module);
        assert!(dependency_dfa(&systems.get("Dev").unwrap().spec).num_states() > 8);
        let wide = systems.get("Wide").unwrap();
        assert_eq!(wide.composite().unwrap().subsystems.len(), 70);

        let ctx = LintContext {
            module: &module,
            systems: &systems,
        };
        let mut out = Diagnostics::new();
        let dfa_of = |dep: &System| Arc::new(DependencyDfa::of(&dep.spec));
        let proven = lint_class(&ctx, wide, &dfa_of, &mut out);
        let messages =
            |code: &str| -> Vec<String> { out.by_code(code).map(|d| d.message.clone()).collect() };
        let e008 = messages(codes::USE_BEFORE_INIT);
        assert_eq!(e008.len(), 1, "{e008:?}");
        assert!(e008[0].contains("`f69`"), "{e008:?}");
        let w010 = messages(codes::MAYBE_UNINIT_SUBSYSTEM);
        assert_eq!(w010.len(), 1, "{w010:?}");
        assert!(w010[0].contains("`f68`"), "{w010:?}");
        let e009 = messages(codes::DEFINITE_PROTOCOL_VIOLATION);
        assert_eq!(e009.len(), 1, "{e009:?}");
        assert!(e009[0].contains("`self.f66.op1()`"), "{e009:?}");
        assert!(proven.contains("f0") && proven.contains("f65"));
        assert!(!proven.contains("f66") && !proven.contains("f68"));
        assert_eq!(assert_one_analysis_matches_two(&module).0, 1);
    }

    #[test]
    fn every_default_pass_emits_registered_codes() {
        for pass in default_passes() {
            assert!(!pass.codes().is_empty(), "{}", pass.name());
            for code in pass.codes() {
                assert!(
                    crate::diagnostics::code_info(code).is_some(),
                    "pass `{}` emits unregistered `{code}`",
                    pass.name()
                );
            }
        }
    }
}
