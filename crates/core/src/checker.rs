//! The [`Checker`] builder: the single entry point for verification.
//!
//! Earlier revisions exposed a free-function pair per input shape
//! (`check_source`/`check_source_with`, `check_module`/…,
//! `check_project`/…). Those wrappers are gone; code configures a
//! `Checker` once and feeds it source text — one string or a project of
//! files:
//!
//! ```
//! use shelley_core::{Checker, LintConfig};
//!
//! let checker = Checker::new().lints(LintConfig::default()).jobs(2);
//! let checked = checker.check_source(
//!     "@sys\nclass Led:\n    @op_initial_final\n    def blink(self):\n        return []\n",
//! )?;
//! assert!(checked.report.passed());
//! # Ok::<(), shelley_core::CheckError>(())
//! ```
//!
//! Every `Checker` method runs the same staged, parallel engine as
//! [`Workspace`]; a `Checker` *is* the
//! configuration of a single-round workspace. For repeated checks of an
//! evolving project, convert it with [`Checker::into_workspace`] and keep
//! the workspace alive — unchanged classes are then never re-verified.
//!
//! Every input is source text, never a pre-parsed module: the workspace
//! keys each class by its own source bytes (see the
//! [caching model](crate::workspace#caching-model)), and a module without
//! its text would have nothing to key on.

use crate::lint::LintConfig;
use crate::pipeline::Checked;
use crate::project::ProjectFile;
use crate::workspace::Workspace;
use micropython_parser::ParseError;
use std::fmt;

/// The display name attributed to sources checked without a file name
/// ([`Checker::check_source`]).
pub const INPUT_NAME: &str = "<input>";

/// A parse failure, always attributed to a file.
///
/// Single-source checks use the synthetic [`INPUT_NAME`] (`<input>`) so
/// callers handle exactly one error shape regardless of how the input was
/// provided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// The failing file's display name.
    pub file: String,
    /// The underlying syntax error.
    pub error: ParseError,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.file, self.error)
    }
}

impl std::error::Error for CheckError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Builder-style verification front end.
///
/// Configure once ([`lints`](Self::lints), [`jobs`](Self::jobs)), then
/// check any input shape. All entry points produce identical reports for
/// identical input regardless of the number of jobs — results are merged
/// in class order and normalized, so parallelism never reorders output.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    lints: LintConfig,
    jobs: usize,
    recover: bool,
}

impl Checker {
    /// A checker with default lint levels and automatic parallelism.
    pub fn new() -> Self {
        Checker::default()
    }

    /// Sets the lint configuration.
    pub fn lints(mut self, config: LintConfig) -> Self {
        self.lints = config;
        self
    }

    /// Sets the worker count for the per-class verification stages.
    ///
    /// `0` (the default) uses [`std::thread::available_parallelism`]; `1`
    /// runs strictly sequentially on the calling thread.
    pub fn jobs(mut self, n: usize) -> Self {
        self.jobs = n;
        self
    }

    /// Switches recovery mode on: parsing becomes total, out-of-subset
    /// constructs degrade to spanned `skip` nodes, and each degraded
    /// region is reported as `W014`. Strict mode (the default) rejects
    /// the same constructs with a parse error.
    pub fn recover(mut self, recover: bool) -> Self {
        self.recover = recover;
        self
    }

    /// Parses and fully verifies one source text (file name `<input>`).
    ///
    /// # Errors
    ///
    /// Returns the parse error if the source is not in the supported
    /// MicroPython subset; all verification findings are reported through
    /// the returned [`Checked`]'s report instead.
    pub fn check_source(&self, source: &str) -> Result<Checked, CheckError> {
        let mut workspace = self.clone().into_workspace();
        workspace.set_file(INPUT_NAME, source);
        workspace.check()
    }

    /// Parses and verifies a whole project (any number of files).
    ///
    /// Class resolution is global: a composite in one file may use `@sys`
    /// classes declared in any other. Duplicate class names are reported
    /// as `E004` and the later definition wins deterministically (matching
    /// Python's last-definition semantics for re-imported names).
    ///
    /// # Errors
    ///
    /// Returns the first [`CheckError`] in file order; verification
    /// findings are in the returned [`Checked`]'s report.
    pub fn check_files(&self, files: &[ProjectFile]) -> Result<Checked, CheckError> {
        let mut workspace = self.clone().into_workspace();
        for file in files {
            workspace.set_file(file.name.clone(), file.source.clone());
        }
        workspace.check()
    }

    /// Converts the configuration into a long-lived [`Workspace`] that
    /// caches per-file and per-class artifacts across repeated checks.
    pub fn into_workspace(self) -> Workspace {
        let mut workspace = Workspace::with_config(self.lints, self.jobs);
        workspace.set_recover(self.recover);
        workspace
    }
}
