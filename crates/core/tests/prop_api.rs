//! Property tests over the serde wire surface: every API type must
//! survive a JSON round trip unchanged, whatever its contents — the
//! invariant the daemon, `--format json`, and the disk cache all lean on.
//!
//! The codec streams: each type's derived code writes and reads JSON
//! directly. The dynamic `Value` path (parse any document, write it back)
//! shares only the writer and the reader with it, so each type is also
//! held to give the same bytes through `Value`, to decode the same in any
//! key order, to keep the first of a repeated key, and to refuse every
//! strict prefix of its encoding.

use micropython_parser::Span;
use proptest::prelude::*;
use serde::{json, Value};
use shelley_core::api::{CheckSummary, ClaimReport, ParseFailure, UsageReport, WireDiagnostic};
use shelley_core::persist::SavedVerify;
use shelley_core::{
    ClaimViolation, Diagnostic, Diagnostics, FailureReason, Method, Reply, ReplyBody, Request,
    Severity, SubsystemError, UsageViolation, WorkspaceStats, REGISTRY,
};
use shelley_regular::Symbol;
use std::fmt::Debug;
use std::time::Duration;

/// Strings with the characters the writer escapes, multi-byte UTF-8, and
/// plain runs between them.
const TEXT: &str = "[ -~\t\n\r\u{1}\u{1f}é😀]{0,24}";

fn arb_stats() -> impl Strategy<Value = WorkspaceStats> {
    (
        (
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX,
        ),
        (
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX,
        ),
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        (0u64..u64::MAX, 0u64..u64::MAX),
        proptest::collection::vec(0u32..u32::MAX, 4),
    )
        .prop_map(|(a, b, c, d, nanos)| WorkspaceStats {
            rounds: a.0,
            files_parsed: a.1,
            parse_cache_hits: a.2,
            extracted: a.3,
            extract_cache_hits: b.0,
            verified: b.1,
            verify_cache_hits: b.2,
            verify_disk_hits: b.3,
            fast_path_proven: c.0,
            antichain_frontier: d.0,
            antichain_pruned: d.1,
            stats_computed: c.1,
            stats_cache_hits: c.2,
            parse_time: Duration::from_nanos(u64::from(nanos[0])),
            extract_time: Duration::from_nanos(u64::from(nanos[1])),
            verify_time: Duration::from_nanos(u64::from(nanos[2])),
            assemble_time: Duration::from_nanos(u64::from(nanos[3])),
        })
}

fn arb_diagnostic() -> impl Strategy<Value = Diagnostic> {
    (
        0..REGISTRY.len(),
        (0u8..2).prop_map(|b| b == 1),
        TEXT,
        proptest::collection::vec(TEXT, 0..3),
        proptest::option::of("[a-z]{1,8}\\.py"),
        proptest::option::of((0usize..10_000, 0usize..100)),
    )
        .prop_map(|(code, warn, message, notes, file, span)| {
            let info = &REGISTRY[code];
            let mut d = if warn {
                Diagnostic::warning(info.code, message)
            } else {
                Diagnostic::error(info.code, message)
            };
            for note in notes {
                d = d.with_note(note);
            }
            if let Some(name) = file {
                d = d.with_file(name);
            }
            if let Some((start, len)) = span {
                d = d.with_span(Span::new(start, start + len));
            }
            d
        })
}

fn arb_word() -> impl Strategy<Value = Vec<Symbol>> {
    proptest::collection::vec((0usize..40).prop_map(Symbol::from_index), 0..6)
}

fn arb_usage_violation() -> impl Strategy<Value = UsageViolation> {
    let subsystem_error = (
        "[A-Z][a-z]{0,6}",
        "[a-z]{1,4}",
        proptest::collection::vec("[a-z]{1,6}", 0..4),
        0usize..4,
        0u8..3,
    )
        .prop_map(
            |(class_name, field, trace, failing_index, reason)| SubsystemError {
                class_name,
                field,
                trace,
                failing_index,
                reason: match reason {
                    0 => FailureReason::NotFinal,
                    1 => FailureReason::NotAllowed,
                    _ => FailureReason::NotInitial,
                },
            },
        );
    (
        arb_word(),
        TEXT,
        proptest::collection::vec(subsystem_error, 0..3),
    )
        .prop_map(
            |(counterexample, counterexample_text, subsystem_errors)| UsageViolation {
                counterexample,
                counterexample_text,
                subsystem_errors,
            },
        )
}

fn arb_claim_violation() -> impl Strategy<Value = ClaimViolation> {
    (TEXT, arb_word(), TEXT).prop_map(|(formula, counterexample, counterexample_text)| {
        ClaimViolation {
            formula,
            counterexample,
            counterexample_text,
        }
    })
}

fn arb_diagnostics() -> impl Strategy<Value = Diagnostics> {
    proptest::collection::vec(arb_diagnostic(), 0..4).prop_map(|items| {
        let mut diagnostics = Diagnostics::new();
        for d in items {
            diagnostics.push(d);
        }
        diagnostics
    })
}

fn arb_saved_verify() -> impl Strategy<Value = SavedVerify> {
    (
        arb_diagnostics(),
        arb_diagnostics(),
        proptest::collection::vec(arb_usage_violation(), 0..3),
        proptest::collection::vec(arb_claim_violation(), 0..3),
        0usize..usize::MAX,
    )
        .prop_map(
            |(lint_diags, verdict_diags, usage_violations, claim_violations, fast_path_skips)| {
                SavedVerify {
                    lint_diags,
                    verdict_diags,
                    usage_violations,
                    claim_violations,
                    fast_path_skips,
                }
            },
        )
}

fn arb_wire_diagnostic() -> impl Strategy<Value = WireDiagnostic> {
    (
        arb_diagnostic(),
        proptest::option::of((1usize..10_000, 1usize..200)),
    )
        .prop_map(|(d, position)| WireDiagnostic {
            code: d.code.to_string(),
            severity: d.severity,
            message: d.message,
            notes: d.notes,
            file: d.file,
            line: position.map(|(line, _)| line),
            column: position.map(|(_, column)| column),
        })
}

fn arb_summary() -> impl Strategy<Value = CheckSummary> {
    (
        (0u8..2).prop_map(|b| b == 1),
        proptest::collection::vec("[A-Z][a-z0-9]{0,8}", 0..5),
        proptest::collection::vec(("[A-Z][a-z]{0,6}", arb_usage_violation()), 0..3),
        proptest::collection::vec(("[A-Z][a-z]{0,6}", arb_claim_violation()), 0..3),
        proptest::collection::vec(arb_diagnostic(), 0..4),
        proptest::option::of((
            "[a-z]{1,8}\\.py",
            TEXT,
            proptest::option::of((1usize..500, 1usize..80)),
        )),
        arb_stats(),
    )
        .prop_map(
            |(passed, systems, usage, claims, diagnostics, parse_error, stats)| CheckSummary {
                passed,
                systems,
                usage_violations: usage
                    .into_iter()
                    .map(|(class, violation)| UsageReport { class, violation })
                    .collect(),
                claim_violations: claims
                    .into_iter()
                    .map(|(class, violation)| ClaimReport { class, violation })
                    .collect(),
                diagnostics,
                parse_error: parse_error.map(|(file, message, position)| ParseFailure {
                    file,
                    message,
                    line: position.map(|(line, _)| line),
                    column: position.map(|(_, column)| column),
                }),
                stats,
            },
        )
}

fn arb_method() -> impl Strategy<Value = Method> {
    prop_oneof![
        (0u32..u32::MAX).prop_map(|version| Method::Hello { version }),
        ("[a-z]{1,8}\\.py", TEXT).prop_map(|(path, text)| Method::Open { path, text }),
        ("[a-z]{1,8}\\.py", TEXT).prop_map(|(path, text)| Method::Change { path, text }),
        "[a-z]{1,8}\\.py".prop_map(|path| Method::Close { path }),
        (0u8..2).prop_map(|b| Method::Configure { recover: b == 1 }),
        Just(Method::Check),
        Just(Method::Stats),
        Just(Method::Shutdown),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    (0u64..u64::MAX, arb_method()).prop_map(|(id, method)| Request { id, method })
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    let body = prop_oneof![
        (0u32..u32::MAX, TEXT).prop_map(|(version, server)| ReplyBody::Hello { version, server }),
        Just(ReplyBody::Ok),
        (
            proptest::option::of("[a-z]{1,8}\\.py"),
            proptest::collection::vec(arb_wire_diagnostic(), 0..3),
        )
            .prop_map(|(file, diagnostics)| ReplyBody::Batch { file, diagnostics }),
        arb_summary().prop_map(|summary| ReplyBody::Check { summary }),
        (arb_stats(), arb_stats())
            .prop_map(|(totals, last_round)| ReplyBody::Stats { totals, last_round }),
        TEXT.prop_map(|message| ReplyBody::Error { message }),
    ];
    (0u64..u64::MAX, body).prop_map(|(id, body)| Reply { id, body })
}

/// Every object in `value` with its keys in reverse order.
fn reverse_keys(value: Value) -> Value {
    match value {
        Value::Map(fields) => Value::Map(
            fields
                .into_iter()
                .rev()
                .map(|(k, v)| (k, reverse_keys(v)))
                .collect(),
        ),
        Value::Seq(items) => Value::Seq(items.into_iter().map(reverse_keys).collect()),
        other => other,
    }
}

/// The codec contract for one value: it round-trips; the `Value` path
/// writes the same bytes; it decodes the same with every object's keys
/// reversed; and no strict prefix of its encoding decodes.
fn codec_contract<T>(v: &T) -> Result<(), TestCaseError>
where
    T: serde::Serialize + serde::Deserialize + PartialEq + Debug,
{
    let line = json::to_string(v);
    prop_assert_eq!(&json::from_str::<T>(&line).unwrap(), v);
    let value = json::value_from_str(&line).unwrap();
    prop_assert_eq!(&json::to_string(&value), &line);
    let reversed = json::to_string(&reverse_keys(value));
    prop_assert_eq!(&json::from_str::<T>(&reversed).unwrap(), v, "{}", reversed);
    for (cut, _) in line.char_indices() {
        prop_assert!(
            json::from_str::<T>(&line[..cut]).is_err(),
            "{}",
            &line[..cut]
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_codec_contract(request in arb_request()) {
        codec_contract(&request)?;
    }

    #[test]
    fn reply_codec_contract(reply in arb_reply()) {
        codec_contract(&reply)?;
    }

    #[test]
    fn check_summary_codec_contract(summary in arb_summary()) {
        codec_contract(&summary)?;
    }

    #[test]
    fn saved_verify_codec_contract(saved in arb_saved_verify()) {
        codec_contract(&saved)?;
    }

    #[test]
    fn diagnostic_codec_contract(d in arb_diagnostic()) {
        codec_contract(&d)?;
    }

    /// Workspace stats — the struct behind `stats` replies and the
    /// `# round` marker — round-trip exactly, durations included.
    #[test]
    fn workspace_stats_round_trip(stats in arb_stats()) {
        let back: WorkspaceStats = json::from_str(&json::to_string(&stats)).unwrap();
        prop_assert_eq!(back, stats);
    }

    /// Diagnostics with any combination of code, severity, notes, file,
    /// and span survive the wire.
    #[test]
    fn diagnostic_round_trip(d in arb_diagnostic()) {
        let back: Diagnostic = json::from_str(&json::to_string(&d)).unwrap();
        prop_assert_eq!(back, d);
    }

    /// Full request/reply envelopes round-trip, including summaries that
    /// carry the generated diagnostics and stats.
    #[test]
    fn envelope_round_trip(
        id in 0u64..u64::MAX,
        version in 0u32..u32::MAX,
        stats in arb_stats(),
        diags in proptest::collection::vec(arb_diagnostic(), 0..4),
        passed in (0u8..2).prop_map(|b| b == 1),
    ) {
        let request = Request { id, method: Method::Hello { version } };
        let back: Request = json::from_str(&json::to_string(&request)).unwrap();
        prop_assert_eq!(back, request);

        let summary = CheckSummary {
            passed,
            systems: vec!["A".to_string(), "B".to_string()],
            usage_violations: Vec::new(),
            claim_violations: Vec::new(),
            diagnostics: diags,
            parse_error: passed.then(|| ParseFailure {
                file: "x.py".to_string(),
                message: "syntax error at 0..1: boom".to_string(),
                line: Some(1),
                column: Some(2),
            }),
            stats,
        };
        let reply = Reply { id, body: ReplyBody::Check { summary } };
        let back: Reply = json::from_str(&json::to_string(&reply)).unwrap();
        prop_assert_eq!(back, reply);
    }
}

/// A key that occurs twice is read from its first occurrence, nested
/// objects and `null` options included; the later value must still be
/// JSON, and under `deny_unknown_fields` only undeclared keys are refused.
#[test]
fn a_repeated_key_keeps_its_first_value() {
    let request: Request =
        json::from_str(r#"{"id":1,"method":"check","id":2,"method":{"bogus":[]}}"#).unwrap();
    assert_eq!(
        request,
        Request {
            id: 1,
            method: Method::Check
        }
    );
    let open: Request =
        json::from_str(r#"{"id":3,"method":{"open":{"path":"a.py","text":"x","path":"b.py"}}}"#)
            .unwrap();
    assert_eq!(
        open.method,
        Method::Open {
            path: "a.py".into(),
            text: "x".into()
        }
    );
    let d: WireDiagnostic = json::from_str(
        r#"{"code":"W003","severity":"warning","message":"m","notes":[],"file":null,"file":"b.py","line":2,"line":9}"#,
    )
    .unwrap();
    assert_eq!(d.file, None);
    assert_eq!(d.line, Some(2));
    assert!(json::from_str::<Request>(r#"{"id":1,"method":"check","id":}"#).is_err());
}

/// Fields decode the same in any key order, and unknown fields of
/// lenient types are skipped whatever their shape.
#[test]
fn key_order_does_not_matter() {
    let golden = Reply {
        id: 2,
        body: ReplyBody::Hello {
            version: 6,
            server: "shelleyc".into(),
        },
    };
    for line in [
        r#"{"id":2,"body":{"hello":{"version":6,"server":"shelleyc"}}}"#,
        r#"{"body":{"hello":{"server":"shelleyc","version":6}},"id":2}"#,
        r#" { "body" : { "hello" : { "server" : "shelleyc" , "version" : 6 } } , "id" : 2 } "#,
        r#"{"extra":[{"a":[1,-2.5e3,null,true]},"s\"\u00e9"],"body":{"hello":{"version":6,"server":"shelleyc"}},"id":2}"#,
    ] {
        assert_eq!(json::from_str::<Reply>(line).unwrap(), golden, "{line}");
    }
    let d = Diagnostic::warning("W003", "m").with_span(Span::new(4, 9));
    let reordered: Diagnostic = json::from_str(
        r#"{"span":{"end":9,"start":4},"notes":[],"message":"m","code":"W003","severity":"warning"}"#,
    )
    .unwrap();
    assert_eq!(reordered, d);
    assert_eq!(reordered.severity, Severity::Warning);
}
