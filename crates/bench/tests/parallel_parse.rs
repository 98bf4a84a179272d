//! The workspace parses changed files on its worker pool. These tests pin
//! that a multi-file project gives the same reports, the same first parse
//! failure, and the same parse counters at every job count.

use micropython_parser::parse_module;
use shelley_bench::realworld_corpus;
use shelley_core::diagnostics::codes;
use shelley_core::{Checker, Workspace, WorkspaceStats};
use std::time::Duration;

const JOBS: [usize; 3] = [1, 2, 8];

fn workspace(jobs: usize, recover: bool, files: &[(String, String)]) -> Workspace {
    let mut ws = Checker::new().jobs(jobs).recover(recover).into_workspace();
    for (name, source) in files {
        ws.set_file(name.clone(), source.clone());
    }
    ws
}

/// A round's counters with the wall-clock timings cleared.
fn counters(stats: &WorkspaceStats) -> WorkspaceStats {
    WorkspaceStats {
        parse_time: Duration::ZERO,
        extract_time: Duration::ZERO,
        verify_time: Duration::ZERO,
        assemble_time: Duration::ZERO,
        ..stats.clone()
    }
}

/// What a round reports: every rendering, the diagnostics with their
/// spans in order (so `W014` order too), and the systems in project order.
#[derive(Debug, PartialEq)]
struct Round {
    text: String,
    json: String,
    sarif: String,
    diagnostics: String,
    degraded: usize,
    systems: Vec<String>,
}

fn rendered(ws: &mut Workspace) -> Round {
    let checked = ws.check().expect("recovery mode parses every file");
    let diagnostics = &checked.report.diagnostics;
    Round {
        text: checked.report.render(None),
        json: diagnostics.render_json(None),
        sarif: diagnostics.render_sarif(None),
        diagnostics: format!("{diagnostics:?}"),
        degraded: diagnostics
            .iter()
            .filter(|d| d.code == codes::CONSTRUCT_DEGRADED)
            .count(),
        systems: checked.systems.iter().map(|s| s.name.clone()).collect(),
    }
}

#[test]
fn recover_mode_corpus_reports_agree_across_job_counts() {
    let corpus = realworld_corpus(200);
    let mut runs = JOBS.iter().map(|&jobs| {
        let mut ws = workspace(jobs, true, &corpus);
        let report = rendered(&mut ws);
        (jobs, report, counters(ws.last_round()))
    });
    let (_, reference, reference_counters) = runs.next().unwrap();
    assert!(
        reference.degraded > 0,
        "the corpus degrades some constructs"
    );
    assert_eq!(reference_counters.files_parsed, 200);
    assert_eq!(reference_counters.parse_cache_hits, 0);
    for (jobs, report, stats) in runs {
        assert_eq!(report, reference, "report differs at jobs={jobs}");
        assert_eq!(stats, reference_counters, "counters differ at jobs={jobs}");
    }
}

#[test]
fn strict_mode_reports_the_first_broken_file_at_every_job_count() {
    // Files the strict grammar accepts, then two broken ones at k < m.
    let clean: Vec<(String, String)> = realworld_corpus(100)
        .into_iter()
        .filter(|(_, source)| parse_module(source).is_ok())
        .collect();
    let n = clean.len();
    assert!(n > 50, "most corpus files parse strictly");
    for (k, m) in [(0, n - 1), (n / 2, n / 2 + 1), (3, n / 3)] {
        let mut files = clean.clone();
        files[k].1 = "class Broken(:\n".to_string();
        files[m].1 = "def f(:\n".to_string();
        for jobs in JOBS {
            let error = workspace(jobs, false, &files)
                .check()
                .expect_err("the project has syntax errors");
            assert_eq!(error.file, files[k].0, "jobs={jobs}, k={k}, m={m}");
            assert_eq!(error.error.span.start, 13, "jobs={jobs}, k={k}, m={m}");
        }
    }
}

#[test]
fn editing_three_files_reparses_exactly_those_files() {
    let corpus = realworld_corpus(60);
    let n = corpus.len() as u64;
    for jobs in JOBS {
        let mut ws = workspace(jobs, true, &corpus);
        ws.check().expect("recovery mode parses every file");
        assert_eq!(ws.last_round().files_parsed, n);

        let mut edited = corpus.clone();
        for i in [2, 30, 59] {
            edited[i].1.push_str("\nx = 1\n");
            ws.set_file(edited[i].0.clone(), edited[i].1.clone());
        }
        let incremental = rendered(&mut ws);
        assert_eq!(ws.last_round().files_parsed, 3, "jobs={jobs}");
        assert_eq!(ws.last_round().parse_cache_hits, n - 3, "jobs={jobs}");
        let cold = rendered(&mut workspace(jobs, true, &edited));
        assert_eq!(incremental, cold, "jobs={jobs}");
    }
}
