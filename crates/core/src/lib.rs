//! # shelley-core
//!
//! A Rust implementation of **Shelley's model inference** for MicroPython,
//! reproducing *Formalizing Model Inference of MicroPython* (DSN-W 2023).
//!
//! Shelley verifies the **order of method calls** in hierarchies of
//! MicroPython classes that control physical resources. Classes annotated
//! with `@sys` declare their protocol through `@op_initial` / `@op` /
//! `@op_final` method decorators and `return ["next", ...]` statements
//! (Tables 1–2); composite classes (`@sys(["a", "b"])`) are checked to use
//! their subsystems according to those protocols, plus LTLf temporal
//! claims (`@claim("(!a.open) W b.open")`).
//!
//! The model extraction process follows §3 of the paper:
//!
//! 1. **method dependency extraction** ([`extract::dependency`]) — the
//!    entry/exit graph of Fig. 3;
//! 2. **method behavior extraction** ([`extract::lower`] + `shelley-ir`) —
//!    each method body lowers to the imperative calculus and its behavior
//!    is inferred as a regular expression (Fig. 4, proven sound/complete);
//! 3. **method invocation analysis** ([`extract::invocation`]) — defined
//!    operations and exhaustive `match` over exit points.
//!
//! Verification ([`verify`]) reduces to regular-language inclusion on the
//! [`integration`] automaton and produces the paper's two error formats:
//!
//! ```text
//! Error in specification: INVALID SUBSYSTEM USAGE
//! Counter example: open_a, a.test, a.open
//! Subsystems errors:
//!   * Valve 'a': test, >open< (not final)
//! ```
//!
//! # Example
//!
//! ```
//! use shelley_core::Checker;
//!
//! let source = r#"
//! @sys
//! class Led:
//!     @op_initial
//!     def on(self):
//!         return ["off"]
//!
//!     @op_final
//!     def off(self):
//!         return ["on"]
//!
//! @sys(["led"])
//! class Blinker:
//!     def __init__(self):
//!         self.led = Led()
//!
//!     @op_initial_final
//!     def blink(self):
//!         self.led.on()
//!         self.led.off()
//!         return []
//! "#;
//! let checked = Checker::new().check_source(source)?;
//! assert!(checked.report.passed());
//! # Ok::<(), shelley_core::CheckError>(())
//! ```
//!
//! For repeated checks of an evolving project — the editor/CI loop — keep
//! a [`workspace::Workspace`] alive instead: it caches per-class artifacts
//! under content fingerprints and re-verifies only what an edit
//! invalidated, fanning the work out over a thread pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotations;
pub mod api;
#[doc(hidden)]
pub mod backend;
pub mod checker;
pub mod dataflow;
pub mod diagnostics;
pub mod diagram;
pub mod extract;
pub mod integration;
pub mod lint;
pub mod persist;
pub mod pipeline;
pub mod project;
pub mod spec;
pub mod stats;
pub mod system;
pub mod verify;
pub mod workspace;

pub use annotations::{Claim, ClassAnnotations, ClassKind, OpKind};
pub use api::{CheckSummary, Method, Reply, ReplyBody, Request, WireDiagnostic, PROTOCOL_VERSION};
#[doc(hidden)]
pub use backend::Backend;
pub use checker::{CheckError, Checker, INPUT_NAME};
pub use dataflow::typestate::{analyze_class, TypestateFinding, TypestateReport};
pub use dataflow::{solve, Analysis, Direction, Solution};
pub use diagnostics::{code_info, codes, CodeInfo, Diagnostic, Diagnostics, Severity, REGISTRY};
pub use diagram::{integration_diagram, spec_diagram};
pub use integration::{build_integration, Integration};
pub use lint::{
    default_passes, run_lints, LintConfig, LintContext, LintLevel, LintPass, UnknownCode,
};
pub use pipeline::{verify_system, CheckReport, Checked, SystemVerdict};
pub use project::ProjectFile;
pub use spec::{ClassSpec, ExitSpec, OperationSpec, SpecAutomaton};
pub use stats::{system_stats, SystemStats};
pub use system::{
    build_systems, extract_class, resolve_class, validate_spec, ClassExtraction, NameMap, System,
    SystemKind, SystemSet,
};
pub use verify::claims::{check_claims, claim_violations, ClaimViolation};
pub use verify::usage::{check_usage, FailureReason, SubsystemError, UsageViolation};
pub use workspace::{Workspace, WorkspaceStats};
