//! Parse-free restarts: a workspace restarted on a disk cache restores
//! each unchanged file from its file record instead of parsing it and
//! extracting its classes, and parses a file only when its text changed
//! or a stage needs its AST. The work counters of `serve_project(1000)`
//! pin that down; every restarted round must still report what a cold
//! check does, also when the previous process was killed while saving.

use shelley_bench::serve_project;
use shelley_core::{Checked, Checker, ProjectFile, Workspace};
use std::path::{Path, PathBuf};

fn cache_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shelley-restart-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("cache.ndjson")
}

/// Everything a round reports, spans included.
fn outcome(checked: &Checked) -> String {
    let report = &checked.report;
    format!(
        "{}{}{:?}\n{:?}\n{:?}\n",
        report.render(None),
        report.diagnostics.render_json(None),
        checked.systems.iter().map(|s| &s.name).collect::<Vec<_>>(),
        report.usage_violations,
        report.claim_violations,
    )
}

fn cold(files: &[(String, String)]) -> String {
    let project: Vec<ProjectFile> = files
        .iter()
        .map(|(name, text)| ProjectFile::new(name.clone(), text.clone()))
        .collect();
    outcome(&Checker::new().jobs(2).check_files(&project).unwrap())
}

/// A fresh workspace on the cache at `path`, holding `files`.
fn restarted(path: &Path, files: &[(String, String)]) -> Workspace {
    let mut ws = Checker::new().jobs(2).into_workspace();
    assert!(ws.load_disk_cache(path).rejected.is_none());
    for (name, text) in files {
        ws.set_file(name.clone(), text.clone());
    }
    ws
}

/// `text` with one extra statement at the top of the body the operation
/// `header` declares: a new class fingerprint, the same verdict.
fn edited(text: &str, header: &str) -> String {
    let at = text.find(header).expect("generator emits this operation") + header.len();
    format!("{}        edited = 1\n{}", &text[..at], &text[at..])
}

/// `(files_parsed, extracted, verified, verify_disk_hits)` of the last
/// round.
fn counters(ws: &Workspace) -> (u64, u64, u64, u64) {
    let round = ws.last_round();
    (
        round.files_parsed,
        round.extracted,
        round.verified,
        round.verify_disk_hits,
    )
}

#[test]
fn parse_free_restart_counters_on_the_1000_class_project() {
    let files = serve_project(1000);
    let path = cache_path("counters");
    let mut seed = Checker::new().jobs(2).into_workspace();
    for (name, text) in &files {
        seed.set_file(name.clone(), text.clone());
    }
    let reference = outcome(&seed.check().unwrap());
    assert_eq!(seed.save_disk_cache(&path).unwrap(), 1000);
    drop(seed);

    // Unchanged: every file restored, every verdict from disk.
    let mut ws = restarted(&path, &files);
    assert_eq!(outcome(&ws.check().unwrap()), reference);
    assert_eq!(counters(&ws), (0, 0, 1000, 1000), "unchanged restart");

    // One app edited: that file alone is parsed, its class alone
    // extracted and verified afresh.
    let devices = 50;
    let mut app = files.clone();
    app[devices].1 = edited(&app[devices].1, "    def run(self):\n");
    let mut ws = restarted(&path, &app);
    assert_eq!(outcome(&ws.check().unwrap()), cold(&app));
    assert_eq!(counters(&ws), (1, 1, 1000, 999), "app edit");

    // One device edited: the device is parsed and extracted, and its 19
    // apps, restored without ASTs, are parsed lazily to be re-verified.
    let mut device = files.clone();
    device[0].1 = edited(&device[0].1, "    def boot(self):\n");
    let mut ws = restarted(&path, &device);
    assert_eq!(outcome(&ws.check().unwrap()), cold(&device));
    assert_eq!(counters(&ws), (20, 1, 1000, 980), "device edit");
    assert_eq!(
        ws.last_round().files_parsed + ws.last_round().parse_cache_hits,
        1000,
        "a lazily parsed file is no longer counted as a hit"
    );

    // A restored file that is reopened with its old text restores again.
    ws.set_file(device[0].0.clone(), files[0].1.clone());
    assert_eq!(outcome(&ws.check().unwrap()), reference);
    assert_eq!(
        ws.last_round().files_parsed,
        0,
        "the reopened device restores"
    );
    let _ = std::fs::remove_file(&path);
}

/// What a process killed while saving leaves behind: a temporary file
/// next to an intact cache, or a cache cut short.
#[test]
fn a_kill_during_save_leaves_a_smaller_cache_and_a_cold_equal_round() {
    let files = serve_project(60);
    let path = cache_path("kill");
    let mut seed = Checker::new().jobs(2).into_workspace();
    for (name, text) in &files {
        seed.set_file(name.clone(), text.clone());
    }
    let reference = outcome(&seed.check().unwrap());
    seed.save_disk_cache(&path).unwrap();
    let intact = std::fs::read_to_string(&path).unwrap();
    let full = shelley_core::persist::load(&path);
    let records = full.entries.len() + full.files.len();
    assert_eq!(records, 120);

    // A leftover half-written temporary file next to the intact cache is
    // ignored, and the next save replaces it.
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &intact[..intact.len() / 3]).unwrap();
    let mut ws = restarted(&path, &files);
    assert_eq!(outcome(&ws.check().unwrap()), reference);
    assert_eq!(ws.last_round().files_parsed, 0);
    ws.save_disk_cache(&path).unwrap();
    assert!(!tmp.exists(), "the save renamed its temporary file away");

    // A cache cut short anywhere loads the whole records before the cut,
    // and the round reports what a cold check does.
    for at in [intact.len() / 5, intact.len() / 2, intact.len() - 30] {
        std::fs::write(&path, &intact[..at]).unwrap();
        let mut ws = Checker::new().jobs(2).into_workspace();
        let outcome_at = ws.load_disk_cache(&path);
        assert!(outcome_at.rejected.is_none());
        let loaded = outcome_at.entries.len() + outcome_at.files.len();
        assert!(loaded < records, "cut at {at}: {loaded} records");
        assert!(outcome_at.skipped_lines <= 1, "only the torn line is lost");
        for (name, text) in &files {
            ws.set_file(name.clone(), text.clone());
        }
        assert_eq!(outcome(&ws.check().unwrap()), reference, "cut at {at}");
        let round = ws.last_round();
        assert_eq!(
            round.files_parsed + round.parse_cache_hits,
            60,
            "cut at {at}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// A cache save is byte-stable: its verify records come sorted by key,
/// saving one workspace twice writes the same bytes, as does saving it
/// after an edit and its undo, a workspace restarted from that file
/// saves them again, and a cache holding the same records in another
/// order — verify records were once written in hash-map order — loads in
/// full and re-saves to the same bytes.
#[test]
fn disk_cache_saves_are_byte_stable() {
    let files = serve_project(1000);
    let path = cache_path("stable");
    let mut seed = Checker::new().jobs(2).into_workspace();
    for (name, text) in &files {
        seed.set_file(name.clone(), text.clone());
    }
    let reference = outcome(&seed.check().unwrap());
    assert_eq!(seed.save_disk_cache(&path).unwrap(), 1000);
    let first = std::fs::read(&path).unwrap();
    let keys: Vec<(u64, u64)> = String::from_utf8_lossy(&first)
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("{\"class_fp\":")?;
            let (class_fp, rest) = rest.split_once(",\"dep_fp\":")?;
            let dep_fp = rest.split(',').next()?;
            Some((class_fp.parse().ok()?, dep_fp.parse().ok()?))
        })
        .collect();
    assert_eq!(keys.len(), 1000);
    assert!(
        keys.windows(2).all(|w| w[0] < w[1]),
        "verify records are sorted by key"
    );
    seed.save_disk_cache(&path).unwrap();
    assert!(
        std::fs::read(&path).unwrap() == first,
        "a second save differs"
    );

    // The same state reached through an edit of a device and its undo,
    // which retire and re-insert the keys of the device and its apps.
    seed.set_file(
        files[0].0.clone(),
        edited(&files[0].1, "    def boot(self):\n"),
    );
    seed.check().unwrap();
    seed.set_file(files[0].0.clone(), files[0].1.clone());
    assert_eq!(outcome(&seed.check().unwrap()), reference);
    seed.save_disk_cache(&path).unwrap();
    assert!(
        std::fs::read(&path).unwrap() == first,
        "a save after an undone edit differs"
    );
    drop(seed);

    let mut ws = restarted(&path, &files);
    assert_eq!(outcome(&ws.check().unwrap()), reference);
    assert_eq!(counters(&ws), (0, 0, 1000, 1000));
    ws.save_disk_cache(&path).unwrap();
    assert!(
        std::fs::read(&path).unwrap() == first,
        "a restart's save differs"
    );

    // The same records, every line after the header in reverse order.
    let text = String::from_utf8(first.clone()).unwrap();
    let (header, records) = text.split_once('\n').unwrap();
    let mut lines: Vec<&str> = records.lines().collect();
    lines.reverse();
    std::fs::write(&path, format!("{header}\n{}\n", lines.join("\n"))).unwrap();
    let mut ws = Checker::new().jobs(2).into_workspace();
    let loaded = ws.load_disk_cache(&path);
    assert!(loaded.rejected.is_none());
    assert_eq!(
        (
            loaded.entries.len(),
            loaded.files.len(),
            loaded.skipped_lines
        ),
        (1000, 1000, 0)
    );
    for (name, text) in &files {
        ws.set_file(name.clone(), text.clone());
    }
    assert_eq!(outcome(&ws.check().unwrap()), reference);
    assert_eq!(counters(&ws), (0, 0, 1000, 1000));
    ws.save_disk_cache(&path).unwrap();
    assert!(
        std::fs::read(&path).unwrap() == first,
        "a reordered cache's re-save differs"
    );
    let _ = std::fs::remove_file(&path);
}
