//! The stable wire surface of the verification engine.
//!
//! Everything a remote front end needs is expressed as plain
//! serde-serializable data: [`Request`]/[`Reply`] envelopes for the
//! daemon's newline-delimited JSON protocol, [`WireDiagnostic`] for
//! editor-facing diagnostics with resolved positions, and [`CheckSummary`]
//! as the complete, renderable result of one verification round. The
//! `--format json` renderer, `shelleyc serve`, `shelleyc watch`, and the
//! protocol golden tests all emit and parse these same structs — there is
//! no second, hand-written JSON surface.
//!
//! # Protocol
//!
//! The daemon speaks **version [`PROTOCOL_VERSION`]**: one `Request` per
//! line in, one or more `Reply` lines out, every reply echoing the
//! request's `id`. A `check` request streams one [`ReplyBody::Batch`] per
//! file that has diagnostics before the final [`ReplyBody::Check`], so
//! clients can surface per-file results as they arrive:
//!
//! ```text
//! → {"id":1,"method":{"hello":{"version":6}}}
//! ← {"id":1,"body":{"hello":{"version":6,"server":"shelleyc"}}}
//! → {"id":2,"method":{"configure":{"recover":true}}}
//! ← {"id":2,"body":"ok"}
//! → {"id":3,"method":{"open":{"path":"valve.py","text":"..."}}}
//! ← {"id":3,"body":"ok"}
//! → {"id":4,"method":"check"}
//! ← {"id":4,"body":{"batch":{"file":"valve.py","diagnostics":[...]}}}
//! ← {"id":4,"body":{"check":{"summary":{...}}}}
//! ```
//!
//! Version 2 added the `configure` method (recovery mode). Version 3
//! extended `configure` with the claim-checking `backend`. Version 4
//! added the antichain inclusion-engine counters
//! (`antichain_frontier`/`antichain_pruned`) to [`WorkspaceStats`],
//! carried by the `stats` and `check` replies.
//! Version 5 dropped `"smv"` from the `backend` values `configure`
//! accepted. Version 6 removed the `backend` field: one engine decides
//! every claim, and a request field no method declares is an error.

use crate::checker::CheckError;
use crate::diagnostics::{resolved_file, Diagnostic, Diagnostics, Severity};
use crate::pipeline::{CheckReport, Checked};
use crate::verify::claims::ClaimViolation;
use crate::verify::usage::UsageViolation;
use crate::workspace::WorkspaceStats;
use micropython_parser::SourceFile;

/// The wire-protocol version this build speaks.
///
/// Bump on any incompatible change to the types in this module; the
/// daemon rejects `hello` requests carrying a different version.
pub const PROTOCOL_VERSION: u32 = 6;

/// The server name announced in [`ReplyBody::Hello`].
pub const SERVER_NAME: &str = "shelleyc";

/// One client request: an `id` echoed in every reply plus the method.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in replies.
    pub id: u64,
    /// What to do.
    pub method: Method,
}

/// The requests a verification daemon understands. A field no variant
/// declares (such as a version-5 `configure`'s `backend`) fails to decode.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "snake_case", deny_unknown_fields)]
pub enum Method {
    /// Handshake: the client announces the protocol version it speaks.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Adds a file to the shared workspace (or replaces its text).
    Open {
        /// Workspace-relative file name.
        path: String,
        /// Full source text.
        text: String,
    },
    /// Replaces the text of an open file (alias of `open` semantics,
    /// kept distinct so traffic logs read naturally).
    Change {
        /// Workspace-relative file name.
        path: String,
        /// Full replacement text.
        text: String,
    },
    /// Removes a file from the shared workspace.
    Close {
        /// Workspace-relative file name.
        path: String,
    },
    /// Reconfigures the workspace. Switching `recover` re-parses every
    /// open file under the new grammar on the next `check`.
    Configure {
        /// Recovery mode: total parsing with degrade-to-`skip` (`W014`)
        /// instead of strict subset errors.
        recover: bool,
    },
    /// Runs one verification round over the current file set.
    Check,
    /// Reports workspace statistics without verifying anything.
    Stats,
    /// Persists the cache and stops the daemon.
    Shutdown,
}

/// One server reply: the originating request `id` plus the payload.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Reply {
    /// The `id` of the request this answers.
    pub id: u64,
    /// The payload.
    pub body: ReplyBody,
}

/// The reply payloads a verification daemon produces.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ReplyBody {
    /// Handshake answer.
    Hello {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
        /// The server's name ([`SERVER_NAME`]).
        server: String,
    },
    /// Acknowledges a state change (`open`/`change`/`close`).
    Ok,
    /// One file's diagnostics, streamed while a `check` runs. `file` is
    /// `None` for project-level diagnostics that belong to no single file.
    Batch {
        /// The file the diagnostics belong to.
        file: Option<String>,
        /// Editor-facing diagnostics with resolved positions.
        diagnostics: Vec<WireDiagnostic>,
    },
    /// The final result of a `check` round.
    Check {
        /// Everything the round produced.
        summary: CheckSummary,
    },
    /// Workspace statistics.
    Stats {
        /// Counters accumulated since the workspace was created.
        totals: WorkspaceStats,
        /// Counters of the most recent round only.
        last_round: WorkspaceStats,
    },
    /// The request failed (malformed, unknown version, engine error).
    Error {
        /// Human-readable explanation.
        message: String,
    },
}

/// A diagnostic with positions resolved to 1-based line/column — the
/// editor-facing shape `--format json` has always emitted.
///
/// Field order is the wire order: `code`, `severity`, `message`, `notes`,
/// then the optional `file`/`line`/`column` (omitted when unknown).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WireDiagnostic {
    /// Stable code (`"E001"`, …; see [`crate::diagnostics::codes`]).
    pub code: String,
    /// Error or warning.
    pub severity: Severity,
    /// Main message.
    pub message: String,
    /// Additional free-form lines.
    pub notes: Vec<String>,
    /// The file the diagnostic belongs to, when known.
    pub file: Option<String>,
    /// 1-based line of the primary location, when resolvable.
    pub line: Option<usize>,
    /// 1-based column of the primary location, when resolvable.
    pub column: Option<usize>,
}

impl WireDiagnostic {
    /// Resolves `d` against `source` (positions are only emitted when the
    /// diagnostic has a span *and* a source file to resolve it in).
    pub fn new(d: &Diagnostic, source: Option<&SourceFile>) -> Self {
        let (line, column) = match (d.span, source) {
            (Some(span), Some(file)) => {
                let (line, column) = file.line_col(span.start);
                (Some(line), Some(column))
            }
            _ => (None, None),
        };
        WireDiagnostic {
            code: d.code.to_string(),
            severity: d.severity,
            message: d.message.clone(),
            notes: d.notes.clone(),
            file: resolved_file(d, source),
            line,
            column,
        }
    }

    /// Renders the diagnostic exactly as the text renderer does without a
    /// source snippet: `severity [code]: message` plus indented notes.
    pub fn render_text(&self) -> String {
        let mut out = format!("{} [{}]: {}", self.severity, self.code, self.message);
        for note in &self.notes {
            out.push_str("\n  ");
            out.push_str(note);
        }
        out
    }
}

/// An `INVALID SUBSYSTEM USAGE` failure attributed to its class.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct UsageReport {
    /// The composite class that misuses a subsystem.
    pub class: String,
    /// The violation, counterexample included.
    pub violation: UsageViolation,
}

/// A `FAIL TO MEET REQUIREMENT` failure attributed to its class.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClaimReport {
    /// The class whose claim fails.
    pub class: String,
    /// The violation, counterexample included.
    pub violation: ClaimViolation,
}

/// A parse failure that aborted the round before verification.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ParseFailure {
    /// The first file (in project order) that failed to parse.
    pub file: String,
    /// The parser's message (`syntax error at S..E: …`).
    pub message: String,
    /// 1-based line of the error, when the source was available.
    pub line: Option<usize>,
    /// 1-based column of the error, when the source was available.
    pub column: Option<usize>,
}

impl ParseFailure {
    /// Captures a [`CheckError`], resolving the span against `source`
    /// when the failing file's text is at hand.
    pub fn new(error: &CheckError, source: Option<&str>) -> Self {
        let (line, column) = match source {
            Some(text) => {
                let file = SourceFile::new(error.file.clone(), text.to_owned());
                let (line, column) = file.line_col(error.error.span.start);
                (Some(line), Some(column))
            }
            None => (None, None),
        };
        ParseFailure {
            file: error.file.clone(),
            message: error.error.to_string(),
            line,
            column,
        }
    }

    /// Renders the failure as `watch` always printed it:
    /// `file: syntax error at S..E: …`.
    pub fn render_text(&self) -> String {
        format!("{}: {}", self.file, self.message)
    }
}

/// The complete result of one verification round, in wire form.
///
/// Carries full-fidelity diagnostics (byte spans, not resolved positions)
/// and the structured violations, so a thin client can rebuild the exact
/// [`CheckReport`] and render it byte-identically to an in-process run —
/// [`render_text`](Self::render_text) is that reconstruction.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CheckSummary {
    /// Whether verification passed (parse ok, no errors of any kind).
    pub passed: bool,
    /// Names of all verified `@sys` classes, in declaration order.
    pub systems: Vec<String>,
    /// `INVALID SUBSYSTEM USAGE` failures, in class order.
    pub usage_violations: Vec<UsageReport>,
    /// `FAIL TO MEET REQUIREMENT` failures, in class order.
    pub claim_violations: Vec<ClaimReport>,
    /// All structural diagnostics, normalized, with byte spans.
    pub diagnostics: Vec<Diagnostic>,
    /// Set when parsing failed; verification did not run.
    pub parse_error: Option<ParseFailure>,
    /// Counters and timings of this round.
    pub stats: WorkspaceStats,
}

impl CheckSummary {
    /// Summarizes a successful round.
    pub fn new(checked: &Checked, stats: WorkspaceStats) -> Self {
        CheckSummary {
            passed: checked.report.passed(),
            systems: checked.systems.iter().map(|s| s.name.clone()).collect(),
            usage_violations: checked
                .report
                .usage_violations
                .iter()
                .map(|(class, violation)| UsageReport {
                    class: class.clone(),
                    violation: violation.clone(),
                })
                .collect(),
            claim_violations: checked
                .report
                .claim_violations
                .iter()
                .map(|(class, violation)| ClaimReport {
                    class: class.clone(),
                    violation: violation.clone(),
                })
                .collect(),
            diagnostics: checked.report.diagnostics.iter().cloned().collect(),
            parse_error: None,
            stats,
        }
    }

    /// Summarizes a round that died in the parser.
    pub fn from_parse_error(failure: ParseFailure, stats: WorkspaceStats) -> Self {
        CheckSummary {
            passed: false,
            systems: Vec::new(),
            usage_violations: Vec::new(),
            claim_violations: Vec::new(),
            diagnostics: Vec::new(),
            parse_error: Some(failure),
            stats,
        }
    }

    /// Rebuilds the in-memory report this summary was taken from.
    pub fn report(&self) -> CheckReport {
        let mut diagnostics = Diagnostics::new();
        for d in &self.diagnostics {
            diagnostics.push(d.clone());
        }
        CheckReport {
            diagnostics,
            usage_violations: self
                .usage_violations
                .iter()
                .map(|r| (r.class.clone(), r.violation.clone()))
                .collect(),
            claim_violations: self
                .claim_violations
                .iter()
                .map(|r| (r.class.clone(), r.violation.clone()))
                .collect(),
        }
    }

    /// Renders the round exactly as an in-process `check` prints it: the
    /// report (violation blocks, then diagnostics), then the `OK:` line on
    /// success — or the parse error alone when parsing failed.
    pub fn render_text(&self) -> String {
        if let Some(failure) = &self.parse_error {
            return format!("{}\n", failure.render_text());
        }
        let mut out = self.report().render(None);
        if self.passed {
            out.push_str(&format!("OK: {} system(s) verified\n", self.systems.len()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use serde::json;

    #[test]
    fn request_round_trips_through_json() {
        let requests = vec![
            Request {
                id: 1,
                method: Method::Hello {
                    version: PROTOCOL_VERSION,
                },
            },
            Request {
                id: 2,
                method: Method::Open {
                    path: "v.py".into(),
                    text: "x = 1\n".into(),
                },
            },
            Request {
                id: 3,
                method: Method::Check,
            },
            Request {
                id: 4,
                method: Method::Shutdown,
            },
        ];
        for request in requests {
            let line = json::to_string(&request);
            assert!(!line.contains('\n'), "wire lines are single lines: {line}");
            let back: Request = json::from_str(&line).unwrap();
            assert_eq!(back, request);
        }
    }

    #[test]
    fn check_method_uses_bare_string_encoding() {
        let line = json::to_string(&Request {
            id: 3,
            method: Method::Check,
        });
        assert_eq!(line, r#"{"id":3,"method":"check"}"#);
    }

    /// Golden request lines: the exact JSON of representative requests.
    fn request_goldens() -> Vec<(Request, &'static str)> {
        vec![
            (
                Request {
                    id: 1,
                    method: Method::Hello { version: 6 },
                },
                r#"{"id":1,"method":{"hello":{"version":6}}}"#,
            ),
            (
                Request {
                    id: 6,
                    method: Method::Configure { recover: true },
                },
                r#"{"id":6,"method":{"configure":{"recover":true}}}"#,
            ),
            (
                Request {
                    id: 2,
                    method: Method::Open {
                        path: "led.py".into(),
                        text: "x = 1\n".into(),
                    },
                },
                r#"{"id":2,"method":{"open":{"path":"led.py","text":"x = 1\n"}}}"#,
            ),
            (
                Request {
                    id: 3,
                    method: Method::Close {
                        path: "led.py".into(),
                    },
                },
                r#"{"id":3,"method":{"close":{"path":"led.py"}}}"#,
            ),
            (
                Request {
                    id: 4,
                    method: Method::Stats,
                },
                r#"{"id":4,"method":"stats"}"#,
            ),
            (
                Request {
                    id: 5,
                    method: Method::Shutdown,
                },
                r#"{"id":5,"method":"shutdown"}"#,
            ),
        ]
    }

    /// Golden reply lines: the exact JSON of representative replies.
    fn reply_goldens() -> Vec<(Reply, &'static str)> {
        vec![
            (
                Reply {
                    id: 1,
                    body: ReplyBody::Hello {
                        version: PROTOCOL_VERSION,
                        server: SERVER_NAME.into(),
                    },
                },
                r#"{"id":1,"body":{"hello":{"version":6,"server":"shelleyc"}}}"#,
            ),
            (
                Reply {
                    id: 2,
                    body: ReplyBody::Ok,
                },
                r#"{"id":2,"body":"ok"}"#,
            ),
            (
                Reply {
                    id: 3,
                    body: ReplyBody::Batch {
                        file: Some("led.py".into()),
                        diagnostics: vec![WireDiagnostic {
                            code: "W003".into(),
                            severity: Severity::Warning,
                            message: "m".into(),
                            notes: vec!["n".into()],
                            file: Some("led.py".into()),
                            line: Some(2),
                            column: Some(5),
                        }],
                    },
                },
                concat!(
                    r#"{"id":3,"body":{"batch":{"file":"led.py","diagnostics":"#,
                    r#"[{"code":"W003","severity":"warning","message":"m","notes":["n"],"#,
                    r#""file":"led.py","line":2,"column":5}]}}}"#,
                ),
            ),
            (
                Reply {
                    id: 0,
                    body: ReplyBody::Error {
                        message: "malformed request".into(),
                    },
                },
                r#"{"id":0,"body":{"error":{"message":"malformed request"}}}"#,
            ),
        ]
    }

    /// Golden wire fixtures: the exact JSON of representative requests
    /// and replies. Any change here is a protocol break and must bump
    /// [`PROTOCOL_VERSION`].
    #[test]
    fn golden_wire_fixtures_pin_the_protocol() {
        for (request, golden) in request_goldens() {
            assert_eq!(json::to_string(&request), golden);
            let back: Request = json::from_str(golden).unwrap();
            assert_eq!(back, request);
        }
        for (reply, golden) in reply_goldens() {
            assert_eq!(json::to_string(&reply), golden);
            let back: Reply = json::from_str(golden).unwrap();
            assert_eq!(back, reply);
        }
    }

    /// A line cut short anywhere never decodes (and never panics): each
    /// strict prefix of every golden is an error.
    #[test]
    fn golden_wire_prefixes_are_errors() {
        for (_, golden) in request_goldens() {
            for (cut, _) in golden.char_indices() {
                assert!(
                    json::from_str::<Request>(&golden[..cut]).is_err(),
                    "{}",
                    &golden[..cut]
                );
            }
        }
        for (_, golden) in reply_goldens() {
            for (cut, _) in golden.char_indices() {
                assert!(
                    json::from_str::<Reply>(&golden[..cut]).is_err(),
                    "{}",
                    &golden[..cut]
                );
            }
        }
    }

    #[test]
    fn summary_render_matches_direct_report() {
        let checked = Checker::new()
            .check_source(crate::pipeline::tests::PAPER_SOURCE)
            .unwrap();
        let summary = CheckSummary::new(&checked, WorkspaceStats::default());
        assert!(!summary.passed);
        assert_eq!(summary.render_text(), checked.report.render(None));
        // And it survives the wire.
        let back: CheckSummary = json::from_str(&json::to_string(&summary)).unwrap();
        assert_eq!(back.render_text(), checked.report.render(None));
        assert_eq!(back, summary);
    }

    #[test]
    fn wire_diagnostic_render_matches_diagnostic_render() {
        let checked = Checker::new()
            .check_source(crate::pipeline::tests::PAPER_SOURCE)
            .unwrap();
        for d in checked.report.diagnostics.iter() {
            let wire = WireDiagnostic::new(d, None);
            assert_eq!(wire.render_text(), d.render(None));
        }
    }
}
