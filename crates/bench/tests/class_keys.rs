//! A class's cache key covers its own source bytes. These tests edit
//! comments, blank lines and trailing whitespace inside the classes of
//! `realworld_corpus` — edits that leave every AST unchanged except for
//! spans — and pin that each incremental round reports, positions
//! included, exactly what a cold check of the same text reports.

use micropython_parser::SourceFile;
use proptest::prelude::*;
use shelley_bench::realworld_corpus;
use shelley_core::{Checked, Checker, ProjectFile};

const FILE: &str = "corpus.py";

/// One file holding the corpus's four templates plus its broken-syntax
/// case (`W014`) and its spec-error case, whose `W002` is a spanned
/// per-class diagnostic.
fn corpus_file() -> String {
    realworld_corpus(24)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| matches!(i, 0..=3 | 7 | 23))
        .map(|(_, (_, source))| source)
        .collect::<Vec<_>>()
        .join("\n")
}

/// An edit that changes no AST node but the spans after it.
#[derive(Debug, Clone)]
struct Edit {
    /// Picks the edited line among the lines of classes.
    line: usize,
    /// 0: a comment line above; 1: a blank (or whitespace-only) line
    /// above; 2: a trailing comment, or a longer one.
    kind: u8,
    len: usize,
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    (0usize..1000, 0u8..3, 0usize..12).prop_map(|(line, kind, len)| Edit { line, kind, len })
}

/// The indices of the lines that belong to a class: from a column-0
/// decorator or `class` line through its indented body.
fn class_lines(lines: &[&str]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut inside = false;
    for (i, line) in lines.iter().enumerate() {
        let top_level = !line.starts_with(' ') && !line.trim().is_empty();
        if top_level {
            inside = line.starts_with('@') || line.starts_with("class ") || line.starts_with('#');
        }
        if inside && !line.trim().is_empty() {
            out.push(i);
        }
    }
    out
}

fn apply(text: &str, edit: &Edit) -> String {
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let eligible = class_lines(&lines);
    let target = eligible[edit.line % eligible.len()];
    let line = lines[target];
    let indent = &line[..line.len() - line.trim_start().len()];
    let filler = "z".repeat(edit.len + 1);
    let edited = match edit.kind {
        0 => format!("{indent}# {filler}\n{line}"),
        1 => format!("{}\n{line}", " ".repeat(edit.len)),
        _ => {
            let body = line.trim_end_matches('\n');
            if body.contains('#') {
                format!("{body}{filler}\n")
            } else {
                format!("{body}  # {filler}\n")
            }
        }
    };
    let mut out = String::with_capacity(text.len() + edited.len());
    for (i, line) in lines.iter().enumerate() {
        out.push_str(if i == target { &edited } else { line });
    }
    out
}

/// The text and JSON reports with positions in `source`.
fn positioned(source: &str, checked: &Checked) -> String {
    let file = SourceFile::new(FILE, source);
    let mut out = checked.report.render(Some(&file));
    out.push_str(&checked.report.diagnostics.render_json(Some(&file)));
    out
}

fn cold(source: &str) -> String {
    let checked = Checker::new()
        .jobs(1)
        .recover(true)
        .check_files(&[ProjectFile::new(FILE, source)])
        .expect("recovery mode parses every file");
    positioned(source, &checked)
}

#[test]
fn class_key_corpus_file_has_spanned_per_class_diagnostics() {
    let report = cold(&corpus_file());
    assert!(report.contains("warning [W014]"), "{report}");
    assert!(report.contains("warning [W002]"), "{report}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every comment, blank-line or trailing-comment edit inside a
    /// class, the incremental round's positioned reports are
    /// byte-identical to a cold check of the edited text.
    #[test]
    fn class_key_edits_inside_classes_match_a_cold_check(
        edits in proptest::collection::vec(arb_edit(), 1..6),
    ) {
        let mut text = corpus_file();
        let mut ws = Checker::new().jobs(2).recover(true).into_workspace();
        ws.set_file(FILE, text.clone());
        ws.check().expect("recovery mode parses every file");
        for edit in &edits {
            text = apply(&text, edit);
            ws.set_file(FILE, text.clone());
            let incremental = ws.check().expect("recovery mode parses every file");
            prop_assert_eq!(positioned(&text, &incremental), cold(&text));
        }
    }
}
