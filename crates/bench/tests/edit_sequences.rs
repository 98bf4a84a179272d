//! Edit-sequence equivalence: a live workspace patches its class table,
//! dependency keys and report round by round, and after every step of a
//! random sequence of edits, removals, grammar switches and restarts its
//! round must equal a cold check of the same files.
//!
//! The files come from `serve_project` (devices and the apps that
//! instantiate them, across files) and `realworld_corpus` (the wider
//! grammar, a class with an in-file dependency, a non-`@sys` helper, a
//! spec error, a construct even recovery mode degrades). Each edit
//! targets what the class table has to get right: renaming a class (its
//! dependents lose a dependency, and a rename back defines it again),
//! defining a class in a second file (shadowing in either direction, or
//! twice in one file), removing and re-adding a file (it moves to the end
//! of project order), breaking the syntax and fixing it, and body edits
//! that re-key a class without changing its verdict. Restarts go through
//! the disk cache: a restarted workspace restores unchanged files from
//! their file records without parsing them, and a restart can find one
//! file record dropped or corrupted, or an edited dependency whose
//! dependents it then parses lazily.

use proptest::prelude::*;
use shelley_bench::{realworld_corpus, serve_project};
use shelley_core::{CheckError, Checked, Checker, ProjectFile, Workspace};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The files an operation can pick from: name and original text.
fn universe() -> Vec<(String, String)> {
    let serve = serve_project(40);
    let corpus = realworld_corpus(24);
    let pick = |files: &[(String, String)], names: &[&str]| -> Vec<(String, String)> {
        names
            .iter()
            .map(|name| {
                files
                    .iter()
                    .find(|(n, _)| n == name)
                    .unwrap_or_else(|| panic!("generator emits {name}"))
                    .clone()
            })
            .collect()
    };
    let mut files = pick(
        &serve,
        &[
            "dev0.py", "dev1.py", "app0.py", "app1.py", "app2.py", "app3.py",
        ],
    );
    files.extend(pick(
        &corpus,
        &["case0002.py", "case0003.py", "case0023.py", "case0007.py"],
    ));
    files
}

/// How an operation rewrites a file's original text.
#[derive(Debug, Clone)]
enum Variant {
    Original,
    /// One extra statement at the top of the first method: a new class
    /// fingerprint, the same verdict.
    Body,
    /// The first class renamed.
    Rename,
    /// The file followed by the original text of another file (or of
    /// itself): every class of that file defined twice.
    Shadow(usize),
    /// A statement outside even the recovering grammar in the first
    /// method: a parse error, or a `W014` in recovery mode.
    Break,
}

#[derive(Debug, Clone)]
enum Op {
    Set(usize, Variant),
    Remove(usize),
    ToggleRecover,
    /// Save the disk cache, then continue in a fresh workspace with this
    /// many jobs that loaded it.
    Restart(usize),
    /// A restart whose cache lost the file record at this index (modulo
    /// their number): dropped, or with a digit flipped when `true`.
    RestartDamaged(usize, bool),
    /// A restart that edits this file's first method before its first
    /// round: the classes instantiating it miss their verify records, so
    /// their restored files are parsed lazily.
    RestartEdited(usize),
}

fn arb_op(files: usize) -> impl Strategy<Value = Op> {
    let variant = prop_oneof![
        3 => Just(Variant::Original),
        3 => Just(Variant::Body),
        3 => Just(Variant::Rename),
        3 => (0..files).prop_map(Variant::Shadow),
        2 => Just(Variant::Break),
    ];
    prop_oneof![
        8 => (0..files, variant).prop_map(|(file, variant)| Op::Set(file, variant)),
        3 => (0..files).prop_map(Op::Remove),
        1 => Just(Op::ToggleRecover),
        1 => (1usize..4).prop_map(Op::Restart),
        1 => (0usize..32).prop_map(|k| Op::RestartDamaged(k / 2, k % 2 == 1)),
        1 => (0..files).prop_map(Op::RestartEdited),
    ]
}

/// `text` with `line` inserted after the header of its first method.
fn in_first_method(text: &str, line: &str) -> String {
    let at = text.find("(self):\n").expect("every file has a method") + "(self):\n".len();
    format!("{}{line}{}", &text[..at], &text[at..])
}

fn render(universe: &[(String, String)], file: usize, variant: &Variant) -> String {
    let text = &universe[file].1;
    match variant {
        Variant::Original => text.clone(),
        Variant::Body => in_first_method(text, "        edited = 1\n"),
        Variant::Rename => {
            let at = text.find("class ").expect("every file has a class") + "class ".len();
            let end = at + text[at..].find([':', '(']).expect("a class header");
            format!("{}{}Renamed{}", &text[..at], &text[at..end], &text[end..])
        }
        Variant::Shadow(other) => format!("{text}\n{}", universe[*other].1),
        Variant::Break => in_first_method(text, "        x = = 7\n"),
    }
}

/// Everything a round reports, spans included.
fn outcome(round: &Result<Checked, CheckError>) -> String {
    match round {
        Ok(checked) => {
            let report = &checked.report;
            let systems: Vec<&str> = checked.systems.iter().map(|s| s.name.as_str()).collect();
            format!(
                "{}{}{:?}\nsystems {systems:?}\nusage {:?}\nclaims {:?}\n",
                report.render(None),
                report.diagnostics.render_json(None),
                report.diagnostics,
                report.usage_violations,
                report.claim_violations,
            )
        }
        Err(error) => format!("parse failure {error:?}"),
    }
}

fn cold(files: &[(String, String)], recover: bool) -> String {
    let project: Vec<ProjectFile> = files
        .iter()
        .map(|(name, text)| ProjectFile::new(name.clone(), text.clone()))
        .collect();
    outcome(
        &Checker::new()
            .jobs(1)
            .recover(recover)
            .check_files(&project),
    )
}

fn workspace(jobs: usize, recover: bool, files: &[(String, String)]) -> Workspace {
    let mut ws = Checker::new().jobs(jobs).recover(recover).into_workspace();
    for (name, text) in files {
        ws.set_file(name.clone(), text.clone());
    }
    ws
}

/// A cache file of its own for each run.
fn cache_path() -> std::path::PathBuf {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("shelley-edit-sequences-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "cache-{}.ndjson",
        RUNS.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Drops the file record at index `k` (modulo their number) from the
/// cache file at `path`, or flips a digit of its payload.
fn damage_file_record(path: &std::path::Path, k: usize, flip: bool) {
    let text = std::fs::read_to_string(path).unwrap();
    let records = text
        .lines()
        .filter(|l| l.starts_with("{\"file_fp\":"))
        .count();
    if records == 0 {
        return;
    }
    let mut seen = 0;
    let lines: Vec<String> = text
        .lines()
        .filter_map(|line| {
            if !line.starts_with("{\"file_fp\":") {
                return Some(line.to_string());
            }
            seen += 1;
            if seen - 1 != k % records {
                return Some(line.to_string());
            }
            if !flip {
                return None;
            }
            // The first digit of the payload: a start offset or a
            // fingerprint, so the line keeps its shape.
            let at = line.find("\"record\":").unwrap();
            let i = at + line[at..].find(|c: char| c.is_ascii_digit()).unwrap();
            let digit = line.as_bytes()[i];
            let flipped = if digit == b'9' {
                '8'
            } else {
                (digit + 1) as char
            };
            Some(format!("{}{flipped}{}", &line[..i], &line[i + 1..]))
        })
        .collect();
    std::fs::write(path, lines.join("\n") + "\n").unwrap();
}

/// Applies `ops` to a live workspace and to a model of its file set,
/// checking the round against a cold check after every step.
fn run(ops: &[Op]) -> Result<(), TestCaseError> {
    let universe = universe();
    let mut model: Vec<(String, String)> = universe.clone();
    model.retain(|(name, _)| name != "case0007.py");
    let mut recover = true;
    let mut ws = workspace(2, recover, &model);
    let cache = cache_path();
    prop_assert_eq!(outcome(&ws.check()), cold(&model, recover));
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Set(file, variant) => {
                let (name, _) = &universe[*file];
                let text = render(&universe, *file, variant);
                match model.iter_mut().find(|(n, _)| n == name) {
                    Some(slot) => slot.1 = text.clone(),
                    None => model.push((name.clone(), text.clone())),
                }
                ws.set_file(name.clone(), text);
            }
            Op::Remove(file) => {
                let name = &universe[*file].0;
                let present = model.iter().any(|(n, _)| n == name);
                model.retain(|(n, _)| n != name);
                prop_assert_eq!(ws.remove_file(name), present);
            }
            Op::ToggleRecover => {
                recover = !recover;
                ws.set_recover(recover);
            }
            Op::Restart(_) | Op::RestartDamaged(..) | Op::RestartEdited(_) => {
                ws.save_disk_cache(&cache).unwrap();
                let jobs = match op {
                    Op::Restart(jobs) => *jobs,
                    Op::RestartDamaged(k, flip) => {
                        damage_file_record(&cache, *k, *flip);
                        2
                    }
                    _ => 1,
                };
                if let Op::RestartEdited(file) = op {
                    let (name, _) = &universe[*file];
                    let text = render(&universe, *file, &Variant::Body);
                    match model.iter_mut().find(|(n, _)| n == name) {
                        Some(slot) => slot.1 = text,
                        None => model.push((name.clone(), text)),
                    }
                }
                ws = workspace(jobs, recover, &[]);
                ws.load_disk_cache(&cache);
                for (name, text) in &model {
                    ws.set_file(name.clone(), text.clone());
                }
            }
        }
        let names: Vec<&str> = model.iter().map(|(n, _)| n.as_str()).collect();
        prop_assert_eq!(ws.file_names().collect::<Vec<_>>(), names);
        let incremental = outcome(&ws.check());
        let reference = cold(&model, recover);
        prop_assert!(
            incremental == reference,
            "step {step} ({op:?}) of {ops:?}:\nincremental:\n{incremental}\ncold:\n{reference}"
        );
    }
    let _ = std::fs::remove_file(&cache);
    Ok(())
}

#[test]
fn edit_sequence_universe_covers_every_case() {
    let universe = universe();
    let recovered = workspace(1, true, &universe).check().unwrap();
    let text = recovered.report.render(None);
    assert!(text.contains("[W014]"), "{text}");
    assert!(text.contains("[E006]"), "{text}");
    assert!(workspace(1, false, &universe).check().is_err());

    // A rename leaves the apps of `Dev0` with an unknown subsystem.
    let mut files = universe.clone();
    files[0].1 = render(&universe, 0, &Variant::Rename);
    assert!(cold(&files, true).contains("Dev0"));
}

#[test]
fn edit_sequence_shadowing_in_both_directions_and_back() -> Result<(), TestCaseError> {
    use Op::*;
    run(&[
        Set(1, Variant::Shadow(0)),
        Set(0, Variant::Body),
        Remove(0),
        Set(0, Variant::Original),
        Set(1, Variant::Original),
        Set(2, Variant::Shadow(2)),
        Set(0, Variant::Rename),
        Restart(3),
        Set(0, Variant::Original),
        ToggleRecover,
        Set(6, Variant::Break),
        Set(6, Variant::Original),
    ])
}

#[test]
fn edit_sequence_restarts_with_damaged_records_and_edited_dependencies() -> Result<(), TestCaseError>
{
    use Op::*;
    run(&[
        Restart(2),
        RestartDamaged(0, false),
        RestartDamaged(3, true),
        // `dev0.py`: the apps of `Dev0` are restored, then parsed lazily.
        RestartEdited(0),
        Set(1, Variant::Shadow(0)),
        RestartEdited(1),
        Set(1, Variant::Original),
        ToggleRecover,
        RestartEdited(0),
        Set(6, Variant::Break),
        RestartDamaged(5, true),
        Remove(1),
        RestartEdited(1),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// After every step, the live round equals a cold check.
    #[test]
    fn edit_sequence_rounds_equal_a_cold_check(
        ops in proptest::collection::vec(arb_op(10), 1..14),
    ) {
        run(&ops)?;
    }
}
