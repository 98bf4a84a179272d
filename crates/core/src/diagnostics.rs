//! Diagnostics: structured errors and warnings with source locations.

use micropython_parser::{SourceFile, Span};
use serde::Value;
use std::fmt;

/// Severity of a diagnostic.
///
/// Serializes as the lowercase word the text renderer prints (`"warning"`
/// / `"error"`), so the JSON and SARIF surfaces agree with [`fmt::Display`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
#[serde(rename_all = "snake_case")]
pub enum Severity {
    /// Non-fatal advice; verification continues.
    Warning,
    /// Verification failure or malformed input.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes.
///
/// `E` codes are errors, `W` codes warnings. The two `specification`
/// failures of the paper (§2.2) are [`codes::INVALID_SUBSYSTEM_USAGE`] and
/// [`codes::FAIL_TO_MEET_REQUIREMENT`].
pub mod codes {
    /// A method invokes an operation its subsystem's class does not define.
    pub const UNDEFINED_OPERATION: &str = "E001";
    /// A `return` names a next-operation the class does not define.
    pub const UNDEFINED_NEXT_OPERATION: &str = "E002";
    /// A `match` over a constrained call does not handle every exit point.
    pub const NON_EXHAUSTIVE_MATCH: &str = "E003";
    /// Class annotation is malformed (`@sys` arguments, duplicate ops, …).
    pub const BAD_ANNOTATION: &str = "E004";
    /// A `@sys(["x"])` field is never assigned in `__init__` or has an
    /// unknown class.
    pub const UNKNOWN_SUBSYSTEM: &str = "E005";
    /// A class has no `@op_initial` operation.
    pub const NO_INITIAL_OPERATION: &str = "E006";
    /// A claim formula failed to parse.
    pub const BAD_CLAIM: &str = "E007";
    /// A subsystem field is used in `__init__` before it is assigned on
    /// every path reaching the use.
    pub const USE_BEFORE_INIT: &str = "E008";
    /// The typestate analysis proves a subsystem call violates the
    /// dependency's protocol on every tracked path that can still
    /// complete an accepted usage.
    pub const DEFINITE_PROTOCOL_VIOLATION: &str = "E009";
    /// The paper's "INVALID SUBSYSTEM USAGE" specification error.
    pub const INVALID_SUBSYSTEM_USAGE: &str = "E100";
    /// The paper's "FAIL TO MEET REQUIREMENT" specification error.
    pub const FAIL_TO_MEET_REQUIREMENT: &str = "E101";
    /// A case pattern can never match any exit point of the callee.
    pub const UNREACHABLE_CASE: &str = "W001";
    /// An operation is unreachable from the initial operations.
    pub const UNREACHABLE_OPERATION: &str = "W002";
    /// A method body may finish without a `return` declaring next
    /// operations (treated as `return []`).
    pub const IMPLICIT_RETURN: &str = "W003";
    /// No final operation is reachable from some reachable exit (the object
    /// can get stuck).
    pub const NO_FINAL_REACHABLE: &str = "W004";
    /// An unknown decorator was ignored.
    pub const UNKNOWN_DECORATOR: &str = "W005";
    /// A constrained call with several exit points is not scrutinized by a
    /// `match` (all continuations are merged).
    pub const UNSCRUTINIZED_EXITS: &str = "W006";
    /// `break`/`continue` are over-approximated by the loop abstraction.
    pub const LOOP_JUMP_APPROXIMATED: &str = "W007";
    /// A subsystem field is reassigned outside `__init__` — the analysis
    /// ignores aliasing, so the model may not reflect the new object.
    pub const FIELD_REASSIGNED: &str = "W008";
    /// A statement can never execute: every path before it returns (or
    /// jumps out of the enclosing loop).
    pub const UNREACHABLE_STATEMENT: &str = "W009";
    /// A subsystem field is assigned on some but not all paths of
    /// `__init__`, so operations using it may see it uninitialized.
    pub const MAYBE_UNINIT_SUBSYSTEM: &str = "W010";
    /// An operation calls a sibling operation directly (`self.op()`),
    /// bypassing the protocol that the environment drives.
    pub const SIBLING_OPERATION_CALL: &str = "W011";
    /// The typestate analysis finds a path on which a subsystem call
    /// leaves the dependency's protocol (other paths may be fine).
    pub const POSSIBLE_PROTOCOL_VIOLATION: &str = "W012";
    /// A dependency operation no reachable statement ever invokes.
    pub const DEAD_SUBSYSTEM_OPERATION: &str = "W013";
    /// Recovery mode degraded an out-of-subset construct to `skip`; the
    /// model claims nothing about the skipped region.
    pub const CONSTRUCT_DEGRADED: &str = "W014";
}

/// Metadata for one stable diagnostic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeInfo {
    /// The stable code (`"E001"`, `"W009"`, …).
    pub code: &'static str,
    /// A kebab-case rule name (used as the SARIF rule name).
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// The severity the code carries unless reconfigured.
    pub default_severity: Severity,
}

/// Every diagnostic code the checker can emit, in code order.
pub const REGISTRY: &[CodeInfo] = &[
    CodeInfo {
        code: codes::UNDEFINED_OPERATION,
        name: "undefined-operation",
        summary: "a method invokes an operation its subsystem's class does not define",
        default_severity: Severity::Error,
    },
    CodeInfo {
        code: codes::UNDEFINED_NEXT_OPERATION,
        name: "undefined-next-operation",
        summary: "a `return` names a next-operation the class does not define",
        default_severity: Severity::Error,
    },
    CodeInfo {
        code: codes::NON_EXHAUSTIVE_MATCH,
        name: "non-exhaustive-match",
        summary: "a `match` over a constrained call does not handle every exit point",
        default_severity: Severity::Error,
    },
    CodeInfo {
        code: codes::BAD_ANNOTATION,
        name: "bad-annotation",
        summary: "a class annotation is malformed",
        default_severity: Severity::Error,
    },
    CodeInfo {
        code: codes::UNKNOWN_SUBSYSTEM,
        name: "unknown-subsystem",
        summary: "a `@sys([...])` field is never assigned in `__init__` or has an unknown class",
        default_severity: Severity::Error,
    },
    CodeInfo {
        code: codes::NO_INITIAL_OPERATION,
        name: "no-initial-operation",
        summary: "a class has no `@op_initial` operation",
        default_severity: Severity::Error,
    },
    CodeInfo {
        code: codes::BAD_CLAIM,
        name: "bad-claim",
        summary: "a claim formula failed to parse",
        default_severity: Severity::Error,
    },
    CodeInfo {
        code: codes::USE_BEFORE_INIT,
        name: "use-before-init",
        summary: "a subsystem field is used in `__init__` before any assignment reaches the use",
        default_severity: Severity::Error,
    },
    CodeInfo {
        code: codes::DEFINITE_PROTOCOL_VIOLATION,
        name: "definite-protocol-violation",
        summary: "a subsystem call violates the dependency's protocol on every tracked path",
        default_severity: Severity::Error,
    },
    CodeInfo {
        code: codes::INVALID_SUBSYSTEM_USAGE,
        name: "invalid-subsystem-usage",
        summary: "the paper's INVALID SUBSYSTEM USAGE specification error",
        default_severity: Severity::Error,
    },
    CodeInfo {
        code: codes::FAIL_TO_MEET_REQUIREMENT,
        name: "fail-to-meet-requirement",
        summary: "the paper's FAIL TO MEET REQUIREMENT specification error",
        default_severity: Severity::Error,
    },
    CodeInfo {
        code: codes::UNREACHABLE_CASE,
        name: "unreachable-case",
        summary: "a case pattern can never match any exit point of the callee",
        default_severity: Severity::Warning,
    },
    CodeInfo {
        code: codes::UNREACHABLE_OPERATION,
        name: "unreachable-operation",
        summary: "an operation is unreachable from the initial operations",
        default_severity: Severity::Warning,
    },
    CodeInfo {
        code: codes::IMPLICIT_RETURN,
        name: "implicit-return",
        summary: "a method body may finish without a `return` declaring next operations",
        default_severity: Severity::Warning,
    },
    CodeInfo {
        code: codes::NO_FINAL_REACHABLE,
        name: "no-final-reachable",
        summary: "no final operation is reachable from some reachable exit",
        default_severity: Severity::Warning,
    },
    CodeInfo {
        code: codes::UNKNOWN_DECORATOR,
        name: "unknown-decorator",
        summary: "an unknown decorator was ignored",
        default_severity: Severity::Warning,
    },
    CodeInfo {
        code: codes::UNSCRUTINIZED_EXITS,
        name: "unscrutinized-exits",
        summary: "a constrained call with several exit points is not scrutinized by a `match`",
        default_severity: Severity::Warning,
    },
    CodeInfo {
        code: codes::LOOP_JUMP_APPROXIMATED,
        name: "loop-jump-approximated",
        summary: "`break`/`continue` are over-approximated by the loop abstraction",
        default_severity: Severity::Warning,
    },
    CodeInfo {
        code: codes::FIELD_REASSIGNED,
        name: "field-reassigned",
        summary: "a subsystem field is reassigned outside `__init__`",
        default_severity: Severity::Warning,
    },
    CodeInfo {
        code: codes::UNREACHABLE_STATEMENT,
        name: "unreachable-statement",
        summary: "a statement can never execute because every path before it returns",
        default_severity: Severity::Warning,
    },
    CodeInfo {
        code: codes::MAYBE_UNINIT_SUBSYSTEM,
        name: "maybe-uninit-subsystem",
        summary: "a subsystem field is assigned on some but not all paths of `__init__`",
        default_severity: Severity::Warning,
    },
    CodeInfo {
        code: codes::SIBLING_OPERATION_CALL,
        name: "sibling-operation-call",
        summary: "an operation calls a sibling operation directly, bypassing the protocol",
        default_severity: Severity::Warning,
    },
    CodeInfo {
        code: codes::POSSIBLE_PROTOCOL_VIOLATION,
        name: "possible-protocol-violation",
        summary: "a subsystem call leaves the dependency's protocol on some path",
        default_severity: Severity::Warning,
    },
    CodeInfo {
        code: codes::DEAD_SUBSYSTEM_OPERATION,
        name: "dead-subsystem-operation",
        summary: "a dependency operation no reachable statement ever invokes",
        default_severity: Severity::Warning,
    },
    CodeInfo {
        code: codes::CONSTRUCT_DEGRADED,
        name: "construct-degraded",
        summary: "recovery mode degraded an unsupported construct to `skip`",
        default_severity: Severity::Warning,
    },
];

/// Looks up the metadata of a stable code.
pub fn code_info(code: &str) -> Option<&'static CodeInfo> {
    // Case-insensitive so `-A w014` and `-A W014` mean the same thing.
    REGISTRY
        .iter()
        .find(|info| info.code.eq_ignore_ascii_case(code))
}

/// A single diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable code (see [`codes`]).
    pub code: &'static str,
    /// The file the diagnostic belongs to, when known (project mode).
    pub file: Option<String>,
    /// Primary source location, when known.
    pub span: Option<Span>,
    /// Main message.
    pub message: String,
    /// Additional free-form lines (counterexamples, per-subsystem details).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            file: None,
            span: None,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Creates a warning diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            code,
            file: None,
            span: None,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Attaches a source span.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Attaches a file name.
    pub fn with_file(mut self, file: impl Into<String>) -> Self {
        self.file = Some(file.into());
        self
    }

    /// Appends a note line.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic, with a source snippet when a file is given.
    pub fn render(&self, source: Option<&SourceFile>) -> String {
        let out = match (self.span, source) {
            (Some(span), Some(file)) => file.render_diagnostic(
                span,
                &format!("{} [{}]", self.severity, self.code),
                &self.message,
            ),
            _ => format!("{} [{}]: {}", self.severity, self.code, self.message),
        };
        self.with_notes(out)
    }

    /// Renders the diagnostic for a multi-file report, on one line that
    /// starts with its severity and code like every other line there:
    /// `severity [code]: file:line:col: message`, the position resolved in
    /// `source` (the text of the diagnostic's own file). A diagnostic with
    /// no file of its own renders as [`render`](Self::render) does without
    /// a source.
    pub fn render_located(&self, source: Option<&SourceFile>) -> String {
        let place = match (&self.file, self.span, source) {
            (Some(_), Some(span), Some(file)) => {
                let (line, col) = file.line_col(span.start);
                format!("{}:{line}:{col}: ", file.name())
            }
            (Some(name), _, _) => format!("{name}: "),
            (None, _, _) => String::new(),
        };
        self.with_notes(format!(
            "{} [{}]: {place}{}",
            self.severity, self.code, self.message
        ))
    }

    fn with_notes(&self, mut out: String) -> String {
        for note in &self.notes {
            out.push_str("\n  ");
            out.push_str(note);
        }
        out
    }
}

/// Diagnostics serialize with full fidelity — byte spans rather than
/// resolved line/column — so a persisted diagnostic re-renders exactly
/// (the daemon's disk cache depends on this). The editor-facing resolved
/// form is [`crate::api::WireDiagnostic`].
impl serde::Serialize for Diagnostic {
    fn serialize(&self, w: &mut serde::json::Writer) {
        w.begin_object();
        w.field("severity", &self.severity);
        w.field("code", self.code);
        w.field("message", &self.message);
        w.field("notes", &self.notes);
        if let Some(file) = &self.file {
            w.field("file", file);
        }
        if let Some(span) = &self.span {
            w.field("span", span);
        }
        w.end_object();
    }
}

impl serde::Deserialize for Diagnostic {
    fn deserialize(r: &mut serde::json::Reader<'_>) -> Result<Self, serde::Error> {
        const TY: &str = "Diagnostic";
        r.begin_object(TY)?;
        let (mut severity, mut code, mut file, mut span, mut message, mut notes) =
            (None, None::<String>, None, None, None, None);
        while let Some(key) = r.next_key()? {
            match &*key {
                "severity" => r.field(&mut severity, "severity", TY)?,
                "code" => r.field(&mut code, "code", TY)?,
                "file" => r.field(&mut file, "file", TY)?,
                "span" => r.field(&mut span, "span", TY)?,
                "message" => r.field(&mut message, "message", TY)?,
                "notes" => r.field(&mut notes, "notes", TY)?,
                _ => r.skip_value()?,
            }
        }
        let missing = |key| serde::Error::missing_field(key, TY);
        // The in-memory code is `&'static str`; recover it through the
        // registry so unknown codes fail loudly instead of aliasing.
        let code = code.ok_or_else(|| missing("code"))?;
        let code = code_info(&code)
            .ok_or_else(|| serde::Error::new(format!("unknown diagnostic code `{code}`")))?
            .code;
        Ok(Diagnostic {
            severity: severity.ok_or_else(|| missing("severity"))?,
            code,
            file: file.unwrap_or(None),
            span: span.unwrap_or(None),
            message: message.ok_or_else(|| missing("message"))?,
            notes: notes.ok_or_else(|| missing("notes"))?,
        })
    }
}

/// The order [`Diagnostics::normalize`] sorts by: `(span, code)`, ties
/// broken by severity, message, notes, and last the file. It compares every
/// field, so two diagnostics compare equal exactly when they are equal.
///
/// The file comes last so that attributing a diagnostic to its file never
/// moves it: a project report stays in span order, and two diagnostics
/// that differ only in their file (the same `W014` in two files) sit next
/// to each other.
pub(crate) fn normalized_order(a: &Diagnostic, b: &Diagnostic) -> std::cmp::Ordering {
    type SortKey<'a> = (
        Option<(usize, usize)>,
        &'a str,
        Severity,
        &'a str,
        &'a [String],
        Option<&'a str>,
    );
    fn key(d: &Diagnostic) -> SortKey<'_> {
        (
            d.span.map(|s| (s.start, s.end)),
            d.code,
            d.severity,
            &d.message,
            &d.notes,
            d.file.as_deref(),
        )
    }
    key(a).cmp(&key(b))
}

/// An ordered collection of diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// All diagnostics in order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Only the errors.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Only the warnings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Whether any error is present.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Merges another collection into this one.
    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// Finds diagnostics by code.
    pub fn by_code<'a>(&'a self, code: &'a str) -> impl Iterator<Item = &'a Diagnostic> + 'a {
        self.items.iter().filter(move |d| d.code == code)
    }

    /// Sorts diagnostics deterministically by `(file, span, code)` — ties
    /// broken by severity, message, and notes — then removes exact
    /// duplicates. Spanless diagnostics sort before positioned ones.
    pub fn normalize(&mut self) {
        self.items.sort_by(normalized_order);
        self.items.dedup();
    }

    /// The diagnostics as a mutable vector, for callers that keep a
    /// collection normalized themselves.
    pub(crate) fn items_mut(&mut self) -> &mut Vec<Diagnostic> {
        &mut self.items
    }

    /// Renders the collection as a JSON document.
    ///
    /// Shape: `{"tool": "shelleyc", "diagnostics": [{code, severity,
    /// message, notes, file?, line?, column?}]}`. Positions are resolved
    /// against `source` when given.
    pub fn render_json(&self, source: Option<&SourceFile>) -> String {
        self.render_json_by(|_| source)
    }

    /// [`render_json`](Self::render_json) with each diagnostic's
    /// positions resolved against the file `source` gives for it (a
    /// multi-file project's own file of each diagnostic).
    pub fn render_json_by<'s>(
        &self,
        source: impl Fn(&Diagnostic) -> Option<&'s SourceFile>,
    ) -> String {
        let diags: Vec<_> = self
            .items
            .iter()
            .map(|d| crate::api::WireDiagnostic::new(d, source(d)))
            .collect();
        let mut w = serde::json::Writer::pretty();
        w.begin_object();
        w.field("tool", "shelleyc");
        w.field("diagnostics", &diags);
        w.end_object();
        let mut out = w.into_string();
        out.push('\n');
        out
    }

    /// Renders the collection as a SARIF 2.1.0 log.
    ///
    /// The run's rule table is generated from the full code [`REGISTRY`];
    /// each diagnostic becomes one result whose message text includes the
    /// notes (counterexamples, per-subsystem details).
    pub fn render_sarif(&self, source: Option<&SourceFile>) -> String {
        self.render_sarif_by(|_| source)
    }

    /// [`render_sarif`](Self::render_sarif) with each diagnostic's
    /// positions resolved against the file `source` gives for it.
    pub fn render_sarif_by<'s>(
        &self,
        source: impl Fn(&Diagnostic) -> Option<&'s SourceFile>,
    ) -> String {
        let rules = REGISTRY
            .iter()
            .map(|info| {
                obj(vec![
                    ("id", s(info.code)),
                    ("name", s(info.name)),
                    ("shortDescription", obj(vec![("text", s(info.summary))])),
                    (
                        "defaultConfiguration",
                        obj(vec![("level", s(sarif_level(info.default_severity)))]),
                    ),
                ])
            })
            .collect();
        let results = self
            .items
            .iter()
            .map(|d| {
                let mut text = d.message.clone();
                for note in &d.notes {
                    text.push('\n');
                    text.push_str(note);
                }
                let mut fields = vec![
                    ("ruleId", s(d.code)),
                    ("level", s(sarif_level(d.severity))),
                    ("message", obj(vec![("text", Value::Str(text))])),
                ];
                if let Some(location) = sarif_location(d, source(d)) {
                    fields.push(("locations", Value::Seq(vec![location])));
                }
                obj(fields)
            })
            .collect();
        let doc = obj(vec![
            (
                "$schema",
                s("https://json.schemastore.org/sarif-2.1.0.json"),
            ),
            ("version", s("2.1.0")),
            (
                "runs",
                Value::Seq(vec![obj(vec![
                    (
                        "tool",
                        obj(vec![(
                            "driver",
                            obj(vec![
                                ("name", s("shelleyc")),
                                ("informationUri", s("https://example.invalid/shelley-rs")),
                                ("rules", Value::Seq(rules)),
                            ]),
                        )]),
                    ),
                    ("results", Value::Seq(results)),
                ])]),
            ),
        ]);
        let mut out = serde::json::to_string_pretty(&doc);
        out.push('\n');
        out
    }
}

fn sarif_level(severity: Severity) -> &'static str {
    match severity {
        Severity::Warning => "warning",
        Severity::Error => "error",
    }
}

/// An object literal with `&str` keys (the renderers' shorthand).
fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A string literal value.
fn s(text: &str) -> Value {
    Value::Str(text.to_owned())
}

/// The file a diagnostic is shown in: the source it is rendered against,
/// else its own. A renderer only ever passes the diagnostic's own file (or
/// the one file of a single-file check, which shows under its path).
pub(crate) fn resolved_file(d: &Diagnostic, source: Option<&SourceFile>) -> Option<String> {
    source
        .map(|f| f.name().to_owned())
        .or_else(|| d.file.clone())
}

/// A SARIF `location` object, when a position is known.
fn sarif_location(d: &Diagnostic, source: Option<&SourceFile>) -> Option<Value> {
    let uri = resolved_file(d, source)?;
    let mut physical = vec![("artifactLocation", obj(vec![("uri", Value::Str(uri))]))];
    if let (Some(span), Some(file)) = (d.span, source) {
        let (start_line, start_column) = file.line_col(span.start);
        let (end_line, end_column) = file.line_col(span.end);
        physical.push((
            "region",
            obj(vec![
                ("startLine", Value::UInt(start_line as u64)),
                ("startColumn", Value::UInt(start_column as u64)),
                ("endLine", Value::UInt(end_line as u64)),
                ("endColumn", Value::UInt(end_column as u64)),
            ]),
        ));
    }
    Some(obj(vec![("physicalLocation", obj(physical))]))
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

/// A collection serializes as a bare array of its diagnostics.
impl serde::Serialize for Diagnostics {
    fn serialize(&self, w: &mut serde::json::Writer) {
        serde::Serialize::serialize(&self.items, w);
    }
}

impl serde::Deserialize for Diagnostics {
    fn deserialize(r: &mut serde::json::Reader<'_>) -> Result<Self, serde::Error> {
        Ok(Diagnostics {
            items: serde::Deserialize::deserialize(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_without_source() {
        let d = Diagnostic::error(codes::UNDEFINED_OPERATION, "no such operation `pump`")
            .with_note("defined operations: test, open, close");
        let s = d.render(None);
        assert!(s.contains("error [E001]"));
        assert!(s.contains("pump"));
        assert!(s.contains("\n  defined operations"));
    }

    #[test]
    fn render_with_source_snippet() {
        let file = SourceFile::new("v.py", "self.a.pump()\n");
        let d = Diagnostic::error(codes::UNDEFINED_OPERATION, "no such operation")
            .with_span(Span::new(7, 11));
        let s = d.render(Some(&file));
        assert!(s.contains("v.py:1:8"));
        assert!(s.contains("^^^^"));
    }

    #[test]
    fn collection_queries() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::error(codes::INVALID_SUBSYSTEM_USAGE, "x"));
        ds.push(Diagnostic::warning(codes::UNREACHABLE_OPERATION, "y"));
        assert!(ds.has_errors());
        assert_eq!(ds.errors().count(), 1);
        assert_eq!(ds.warnings().count(), 1);
        assert_eq!(ds.by_code(codes::INVALID_SUBSYSTEM_USAGE).count(), 1);
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn registry_covers_every_code_in_order() {
        let codes: Vec<&str> = REGISTRY.iter().map(|i| i.code).collect();
        assert_eq!(
            codes,
            vec![
                "E001", "E002", "E003", "E004", "E005", "E006", "E007", "E008", "E009", "E100",
                "E101", "W001", "W002", "W003", "W004", "W005", "W006", "W007", "W008", "W009",
                "W010", "W011", "W012", "W013", "W014",
            ]
        );
        for info in REGISTRY {
            let expected = if info.code.starts_with('E') {
                Severity::Error
            } else {
                Severity::Warning
            };
            assert_eq!(info.default_severity, expected, "{}", info.code);
            assert!(!info.name.is_empty() && !info.summary.is_empty());
        }
        assert_eq!(code_info("E100").unwrap().name, "invalid-subsystem-usage");
        assert!(code_info("E999").is_none());
    }

    #[test]
    fn normalize_sorts_by_span_code_then_file_and_dedupes() {
        let mut ds = Diagnostics::new();
        ds.push(
            Diagnostic::warning(codes::IMPLICIT_RETURN, "later span")
                .with_file("b.py")
                .with_span(Span::new(40, 44)),
        );
        ds.push(
            Diagnostic::error(codes::UNDEFINED_OPERATION, "earlier span")
                .with_file("b.py")
                .with_span(Span::new(3, 7)),
        );
        ds.push(Diagnostic::error(codes::NO_INITIAL_OPERATION, "spanless"));
        ds.push(
            Diagnostic::warning(codes::UNREACHABLE_OPERATION, "first file")
                .with_file("a.py")
                .with_span(Span::new(99, 100)),
        );
        // An exact duplicate to be removed.
        ds.push(
            Diagnostic::error(codes::UNDEFINED_OPERATION, "earlier span")
                .with_file("b.py")
                .with_span(Span::new(3, 7)),
        );
        // Same position, different codes: code breaks the tie.
        ds.push(
            Diagnostic::warning(codes::FIELD_REASSIGNED, "tie")
                .with_file("b.py")
                .with_span(Span::new(3, 7)),
        );
        // Equal but for the file: both kept, the file breaks the tie.
        ds.push(
            Diagnostic::error(codes::UNDEFINED_OPERATION, "earlier span")
                .with_file("a.py")
                .with_span(Span::new(3, 7)),
        );
        ds.normalize();
        let order: Vec<(Option<&str>, &str)> =
            ds.iter().map(|d| (d.file.as_deref(), d.code)).collect();
        assert_eq!(
            order,
            vec![
                (None, "E006"),
                (Some("a.py"), "E001"),
                (Some("b.py"), "E001"),
                (Some("b.py"), "W008"),
                (Some("b.py"), "W003"),
                (Some("a.py"), "W002"),
            ]
        );
        assert_eq!(ds.len(), 6, "duplicate must be removed");
    }

    #[test]
    fn json_rendering_escapes_and_positions() {
        let file = SourceFile::new("v.py", "self.a.pump()\n");
        let mut ds = Diagnostics::new();
        ds.push(
            Diagnostic::error(codes::UNDEFINED_OPERATION, "no op \"pump\"")
                .with_span(Span::new(7, 11))
                .with_note("line1\nline2"),
        );
        let json = ds.render_json(Some(&file));
        assert!(json.contains(r#""code": "E001""#));
        assert!(json.contains(r#""severity": "error""#));
        assert!(json.contains(r#"no op \"pump\""#));
        assert!(json.contains(r#""line": 1"#));
        assert!(json.contains(r#""column": 8"#));
        assert!(json.contains(r#""file": "v.py""#));
        assert!(json.contains(r#"line1\nline2"#));
    }

    #[test]
    fn sarif_rendering_has_rules_and_results() {
        let file = SourceFile::new("v.py", "self.a.pump()\n");
        let mut ds = Diagnostics::new();
        ds.push(
            Diagnostic::error(codes::INVALID_SUBSYSTEM_USAGE, "bad usage")
                .with_note("Counter example: open_a, a.test, a.open"),
        );
        ds.push(Diagnostic::warning(codes::IMPLICIT_RETURN, "implicit").with_span(Span::new(0, 4)));
        let sarif = ds.render_sarif(Some(&file));
        assert!(sarif.contains(r#""version": "2.1.0""#));
        assert!(sarif.contains(r#""name": "shelleyc""#));
        // Every registry code appears as a rule.
        for info in REGISTRY {
            assert!(sarif.contains(&format!(r#""id": "{}""#, info.code)));
        }
        assert!(sarif.contains(r#""ruleId": "E100""#));
        assert!(sarif.contains(r#"Counter example: open_a, a.test, a.open"#));
        assert!(sarif.contains(r#""startLine": 1"#));
        assert!(sarif.contains(r#""uri": "v.py""#));
    }
}
