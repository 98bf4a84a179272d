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
//! and verification. They are flow-sensitive: each builds or reuses the
//! control-flow graph of [`crate::extract::cfg`] over method bodies,
//! which the regular-language lowering of §3.2 deliberately erases.

mod init_order;
mod self_calls;
mod typestate;
mod unreachable;

pub use init_order::InitOrder;
pub use self_calls::SelfCalls;
pub use typestate::Typestate;
pub use unreachable::UnreachableCode;

use crate::diagnostics::{code_info, Diagnostics, Severity, REGISTRY};
use crate::system::SystemSet;
use micropython_parser::ast::Module;
use std::collections::BTreeMap;
use std::fmt;

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
