//! Workload inputs and their known answers.
//!
//! Every expected verdict here is derived from the structure of the
//! `shelley_bench` generators (50 device protocols with 19 apps each;
//! one defect of each kind per 50 corpus files), never from running the
//! checker.

use std::fmt;

/// Classes in the serve project (one `@sys` class per file).
pub const SERVE_CLASSES: usize = 1000;

/// Files in the recovering corpus.
pub const CORPUS_FILES: usize = 2000;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CiCold,
    Editor,
    Restart,
    Corpus,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CiCold,
        Workload::Editor,
        Workload::Restart,
        Workload::Corpus,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CiCold => "ci_cold",
            Workload::Editor => "editor_1k",
            Workload::Restart => "restart_1k",
            Workload::Corpus => "corpus_recover",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A small deterministic generator (SplitMix64): the seed picks the file
/// order and the edit sequence, nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `shelley_bench::serve_project(1000)` plus what its shape implies.
pub struct ServeProject {
    /// `(file name, source)` in generator order: devices first, then apps.
    pub files: Vec<(String, String)>,
    /// Device protocol files (`dev{k}.py`).
    pub devices: usize,
    /// Apps driving each device (app `i` drives device `i % devices`).
    pub apps_per_device: usize,
}

impl ServeProject {
    pub fn new() -> Self {
        let files = shelley_bench::serve_project(SERVE_CLASSES);
        let devices = files.iter().filter(|(n, _)| n.starts_with("dev")).count();
        let apps = files.len() - devices;
        assert!(
            devices > 0 && apps.is_multiple_of(devices),
            "serve_project spreads its apps evenly over its devices"
        );
        ServeProject {
            files,
            devices,
            apps_per_device: apps / devices,
        }
    }

    /// Every file holds exactly one `@sys` class.
    pub fn classes(&self) -> usize {
        self.files.len()
    }

    pub fn is_device(&self, file: usize) -> bool {
        file < self.devices
    }

    /// Classes a `check` must re-verify after editing `file`: the class
    /// itself, plus every app driving it when it is a device.
    pub fn reverified_after_edit(&self, file: usize) -> u64 {
        if self.is_device(file) {
            1 + self.apps_per_device as u64
        } else {
            1
        }
    }

    /// The edited form of a file: one extra local assignment at the top
    /// of its operation body. It changes the class's printed AST (so its
    /// fingerprint) but neither its protocol nor its verdict.
    pub fn edited(&self, file: usize) -> String {
        let (_, text) = &self.files[file];
        let header = if self.is_device(file) {
            "    def boot(self):\n"
        } else {
            "    def run(self):\n"
        };
        let at = text.find(header).expect("generator emits this operation") + header.len();
        format!("{}        edited = 1\n{}", &text[..at], &text[at..])
    }
}

/// `shelley_bench::realworld_corpus(n)` plus what its defect streams imply.
pub struct Corpus {
    pub files: Vec<(String, String)>,
    /// `@sys` classes across the corpus.
    pub sys_classes: usize,
    /// Files whose statement is outside even the recovering grammar
    /// (`i % 50 == 7`): one `W014` each.
    pub degraded: usize,
    /// Files whose `@sys` class has no initial operation (`i % 50 == 23`):
    /// one `E006` each, and the only errors of the corpus.
    pub spec_errors: usize,
}

impl Corpus {
    pub fn new() -> Self {
        let files: Vec<(String, String)> = shelley_bench::realworld_corpus(CORPUS_FILES)
            .into_iter()
            .enumerate()
            // The generator puts every degraded statement at one of only
            // four byte offsets, and a project-wide report keeps one
            // diagnostic per (offset, message). A comment line whose
            // length grows every 50 files gives each defect its own offset
            // without touching the code.
            .map(|(i, (name, text))| (name, format!("{}\n{text}", "#".repeat(1 + i / 50))))
            .collect();
        let sys_classes = files
            .iter()
            .map(|(_, text)| text.lines().filter(|l| l.starts_with("@sys")).count())
            .sum();
        Corpus {
            files,
            sys_classes,
            degraded: (0..CORPUS_FILES).filter(|i| i % 50 == 7).count(),
            spec_errors: (0..CORPUS_FILES).filter(|i| i % 50 == 23).count(),
        }
    }
}

/// A known answer that did not hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch(pub String);

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// What one `shelleyc check` process must print and return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckAnswer {
    /// Exit 0, no error lines, and `OK: {systems} system(s) verified` last.
    Pass { systems: usize },
    /// Exit 1 with exactly these counts of `E006`, `W014` and error lines.
    Fail {
        e006: usize,
        w014: usize,
        errors: usize,
    },
}

impl CheckAnswer {
    pub fn judge(&self, exit: Option<i32>, stdout: &str) -> Result<(), Mismatch> {
        match *self {
            CheckAnswer::Pass { systems } => {
                let want = format!("OK: {systems} system(s) verified");
                let errors = stdout.lines().filter(|l| l.starts_with("error [")).count();
                if exit == Some(0) && errors == 0 && stdout.lines().last() == Some(want.as_str()) {
                    Ok(())
                } else {
                    Err(Mismatch(format!(
                        "expected exit 0, no errors and `{want}` last, got exit {exit:?}, \
                         {errors} error(s) and `{}` last",
                        stdout.lines().last().unwrap_or("")
                    )))
                }
            }
            CheckAnswer::Fail { e006, w014, errors } => {
                let count = |prefix: &str| stdout.lines().filter(|l| l.starts_with(prefix)).count();
                let got = (
                    count("error [E006]"),
                    count("warning [W014]"),
                    count("error ["),
                );
                if exit == Some(1) && got == (e006, w014, errors) {
                    Ok(())
                } else {
                    Err(Mismatch(format!(
                        "expected exit 1 with {e006} E006, {w014} W014 and {errors} error(s), \
                         got exit {exit:?} with {} E006, {} W014 and {} error(s)",
                        got.0, got.1, got.2
                    )))
                }
            }
        }
    }
}

/// What one daemon `check` summary must report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundAnswer {
    pub systems: usize,
    /// Classes freshly verified this round.
    pub verified: u64,
    /// Of those, classes restored from the on-disk cache.
    pub disk_hits: u64,
}

impl RoundAnswer {
    pub fn judge(&self, summary: &shelley_core::CheckSummary) -> Result<(), Mismatch> {
        let got = RoundAnswer {
            systems: summary.systems.len(),
            verified: summary.stats.verified,
            disk_hits: summary.stats.verify_disk_hits,
        };
        if summary.passed && got == *self {
            Ok(())
        } else {
            Err(Mismatch(format!(
                "expected a passing round with {self:?}, got passed={} with {got:?}",
                summary.passed
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shelley_core::{Checker, ProjectFile};

    fn project_files(files: &[(String, String)]) -> Vec<ProjectFile> {
        files
            .iter()
            .map(|(n, t)| ProjectFile::new(n.clone(), t.clone()))
            .collect()
    }

    #[test]
    fn serve_project_shape_matches_the_generator_docs() {
        let project = ServeProject::new();
        assert_eq!(project.classes(), 1000);
        assert_eq!((project.devices, project.apps_per_device), (50, 19));
        assert_eq!(project.reverified_after_edit(0), 20);
        assert_eq!(project.reverified_after_edit(999), 1);
    }

    #[test]
    fn edits_keep_every_verdict_and_reverify_the_known_classes() {
        let project = ServeProject::new();
        let mut ws = Checker::new().jobs(1).into_workspace();
        for (name, text) in &project.files {
            ws.set_file(name.clone(), text.clone());
        }
        assert!(ws.check().unwrap().report.passed());
        for file in [3, 700] {
            ws.set_file(project.files[file].0.clone(), project.edited(file));
            let checked = ws.check().unwrap();
            assert!(checked.report.passed(), "{}", checked.report.render(None));
            assert_eq!(
                ws.last_round().verified,
                project.reverified_after_edit(file)
            );
        }
    }

    /// A deliberately wrong expected answer must be reported as a
    /// mismatch — never accepted, never a panic.
    #[test]
    fn wrong_expected_answers_are_caught() {
        let corpus = Corpus::new();
        let checked = Checker::new()
            .recover(true)
            .check_files(&project_files(&corpus.files))
            .unwrap();
        let out = checked.report.render(None);
        let right = CheckAnswer::Fail {
            e006: corpus.spec_errors,
            w014: corpus.degraded,
            errors: corpus.spec_errors,
        };
        assert_eq!(right.judge(Some(1), &out), Ok(()));
        let wrong = CheckAnswer::Fail {
            e006: corpus.spec_errors,
            w014: corpus.degraded + 1,
            errors: corpus.spec_errors,
        };
        assert!(wrong.judge(Some(1), &out).is_err());
        assert!(right.judge(Some(0), &out).is_err());

        let pass = CheckAnswer::Pass { systems: 1000 };
        assert!(pass.judge(Some(0), "OK: 999 system(s) verified\n").is_err());
        assert!(pass.judge(Some(0), "OK: 1000 system(s) verified\n").is_ok());
        assert!(pass
            .judge(Some(0), "error [E001]: x\nOK: 1000 system(s) verified\n")
            .is_err());

        let project = ServeProject::new();
        let mut engine = shelley_daemon::Engine::new(Checker::new().jobs(1));
        let mut id = 0;
        let mut call = |engine: &mut shelley_daemon::Engine, method| {
            id += 1;
            let mut last = None;
            engine.handle(shelley_core::Request { id, method }, &mut |r| {
                last = Some(r.body)
            });
            last.expect("every request is answered")
        };
        for (path, text) in &project.files {
            call(
                &mut engine,
                shelley_core::Method::Open {
                    path: path.clone(),
                    text: text.clone(),
                },
            );
        }
        call(&mut engine, shelley_core::Method::Check);
        call(
            &mut engine,
            shelley_core::Method::Open {
                path: project.files[0].0.clone(),
                text: project.edited(0),
            },
        );
        let shelley_core::ReplyBody::Check { summary } =
            call(&mut engine, shelley_core::Method::Check)
        else {
            panic!("check answers with a summary");
        };
        let right = RoundAnswer {
            systems: 1000,
            verified: 20,
            disk_hits: 0,
        };
        assert_eq!(right.judge(&summary), Ok(()));
        let wrong = RoundAnswer {
            verified: 19,
            ..right
        };
        assert!(wrong.judge(&summary).is_err());
    }
}
