//! End-to-end runs: the release `shelleyc` and its daemon driven from
//! outside, one request at a time (closed loop, one client), tracing off.

use crate::process::{self, Daemon, SocketClient};
use crate::workload::{CheckAnswer, Corpus, Mismatch, Rng, RoundAnswer, ServeProject};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Where and how long one run works.
pub struct Ctx {
    /// The release `shelleyc` binary.
    pub shelleyc: PathBuf,
    /// This run's scratch directory, relative to the checkout root (kept
    /// short: socket paths have a small length limit).
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

/// Everything one end-to-end run measured.
#[derive(Default)]
pub struct E2e {
    /// Request → verdict, in ms, every op of the loop.
    pub verdicts: Vec<f64>,
    /// Wall time of each loop iteration, in s (a restart iteration also
    /// spawns and shuts the daemon down).
    pub iterations: Vec<f64>,
    /// `@sys` classes each verdict decides.
    pub classes_per_verdict: u64,
    /// CPU time (user + system) of the checker process per verdict, in ms;
    /// one loop-wide mean where it cannot be split per verdict.
    pub cpu_ms: Vec<f64>,
    /// Peak resident set of the checker process, in MiB.
    pub rss_mb: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Times of the calibration kernel run between ops, in ms.
    pub calibration_ms: Vec<f64>,
    /// Latencies by op kind, plus `shutdown_ms`.
    pub kinds: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few mismatches, for the report.
    pub failures: Vec<String>,
}

impl E2e {
    /// Counts one op against its known answer.
    fn judge(&mut self, outcome: Result<(), Mismatch>) {
        self.attempted += 1;
        if let Err(mismatch) = outcome {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(mismatch.0);
            }
        }
    }

    /// Counts an op whose transport failed; the loop cannot go on.
    fn broken(&mut self, e: io::Error) {
        self.judge(Err(Mismatch(format!("transport error: {e}"))));
    }

    fn sample(&mut self, kind: &'static str, ms: f64) {
        self.kinds.entry(kind).or_default().push(ms);
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The calibration kernel's time on the reference host (a 2-core shared
/// VM in a quiet phase), in ms. Time metrics are rescaled to it.
pub const NOMINAL_KERNEL_MS: f64 = 3.0;

/// Times a fixed, std-only CPU workload of the checker's flavour —
/// string building, an ordered map, sorting — to track how fast the host
/// runs right now. Its code never changes with the checker's.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut map: BTreeMap<String, u64> = BTreeMap::new();
    for i in 0..8_000u64 {
        let key = format!(
            "class{}.op{}",
            i.wrapping_mul(2_654_435_761) % 10_007,
            i % 13
        );
        *map.entry(key).or_default() += i;
    }
    let mut keys: Vec<String> = map.into_keys().collect();
    keys.sort_unstable_by(|a, b| b.cmp(a));
    std::hint::black_box(keys);
    ms(t)
}

/// Writes `files` into `dir`, emptied first.
pub fn write_files(dir: &Path, files: &[(String, String)]) -> io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    for (name, text) in files {
        std::fs::write(dir.join(name), text)?;
    }
    Ok(())
}

/// The inputs of a process workload and its known answer.
struct Inputs {
    files: Vec<(String, String)>,
    answer: CheckAnswer,
    classes: usize,
}

/// `ci_cold`: `shelleyc check` over the serve project, one process after
/// another.
pub fn ci_cold(ctx: &Ctx) -> E2e {
    check_processes(ctx, &[], || {
        let project = ServeProject::new();
        Inputs {
            answer: CheckAnswer::Pass {
                systems: project.classes(),
            },
            classes: project.classes(),
            files: project.files,
        }
    })
}

/// `corpus_recover`: `shelleyc check --recover` over the real-world
/// corpus, one process after another.
pub fn corpus_recover(ctx: &Ctx) -> E2e {
    check_processes(ctx, &["--recover"], || {
        let corpus = Corpus::new();
        Inputs {
            answer: CheckAnswer::Fail {
                e006: corpus.spec_errors,
                w014: corpus.degraded,
                errors: corpus.spec_errors,
            },
            classes: corpus.sys_classes,
            files: corpus.files,
        }
    })
}

/// `shelleyc check <flags> <files in seeded order>`.
pub fn check_args(flags: &[&str], files: &[(String, String)], seed: u64) -> Vec<String> {
    let mut names: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
    Rng::new(seed).shuffle(&mut names);
    let mut args: Vec<String> = vec!["check".into()];
    args.extend(flags.iter().map(|f| f.to_string()));
    args.extend(names);
    args
}

/// The loop of the two process workloads.
fn check_processes(ctx: &Ctx, flags: &[&str], generate: impl Fn() -> Inputs) -> E2e {
    let mut out = E2e::default();
    let dir = ctx.work.join("src");
    let check = |out: &mut E2e, args: &[String], answer: &CheckAnswer| {
        let t = Instant::now();
        let (exit, stdout) = process::run(&ctx.shelleyc, &dir, args)?;
        let elapsed = ms(t);
        out.judge(answer.judge(exit.code, &stdout));
        Ok::<_, io::Error>((elapsed, exit))
    };

    // Set-up: generate the inputs and warm the binary and the page cache
    // with one judged, untimed check. The files are written once, and the
    // writing is left out of `setup_s`: disk writeback time says nothing
    // about the checker and varies a lot.
    let mut ready = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let inputs = generate();
        let mut writing = Duration::ZERO;
        if i == 0 {
            let w = Instant::now();
            if let Err(e) = write_files(&dir, &inputs.files) {
                out.broken(e);
                return out;
            }
            writing = w.elapsed();
        }
        let args = check_args(flags, &inputs.files, ctx.seed);
        if let Err(e) = check(&mut out, &args, &inputs.answer) {
            out.broken(e);
            return out;
        }
        out.setup_s.push((t.elapsed() - writing).as_secs_f64());
        out.calibration_ms.push(calibrate());
        ready = Some((inputs, args));
    }
    let (inputs, args) = ready.expect("SETUPS > 0");
    out.classes_per_verdict = inputs.classes as u64;

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    while Instant::now() < deadline {
        out.calibration_ms.push(calibrate());
        match check(&mut out, &args, &inputs.answer) {
            Ok((elapsed, exit)) => {
                out.verdicts.push(elapsed);
                out.iterations.push(elapsed / 1e3);
                out.cpu_ms.push(exit.cpu_ms);
                out.rss_mb.push(exit.max_rss_kb as f64 / 1024.0);
            }
            Err(e) => {
                out.broken(e);
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The editor's three op kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditorOp {
    /// `open` an app with its body toggled, then `check`: 1 re-verified.
    Leaf,
    /// `open` a device with its body toggled, then `check`: the device
    /// plus its 19 apps re-verified.
    Base,
    /// A bare `check`: nothing re-verified.
    Recheck,
}

impl EditorOp {
    pub fn metric(self) -> &'static str {
        match self {
            EditorOp::Leaf => "edit_leaf_ms",
            EditorOp::Base => "edit_base_ms",
            EditorOp::Recheck => "recheck_ms",
        }
    }

    /// One block of the three kinds in seeded order: every kind runs
    /// equally often and host drift reaches all of them alike.
    pub fn block(rng: &mut Rng) -> [EditorOp; 3] {
        let mut block = [EditorOp::Leaf, EditorOp::Base, EditorOp::Recheck];
        rng.shuffle(&mut block);
        block
    }

    /// The file this op edits (`None` for a recheck).
    pub fn target(self, project: &ServeProject, rng: &mut Rng) -> Option<usize> {
        match self {
            EditorOp::Leaf => {
                Some(project.devices + rng.below(project.files.len() - project.devices))
            }
            EditorOp::Base => Some(rng.below(project.devices)),
            EditorOp::Recheck => None,
        }
    }
}

/// The text a file has after its next toggle, flipping `edited[file]`.
pub fn toggle(project: &ServeProject, edited: &mut [bool], file: usize) -> String {
    edited[file] = !edited[file];
    if edited[file] {
        project.edited(file)
    } else {
        project.files[file].1.clone()
    }
}

/// The project's files in the seeded open order.
pub fn open_order<'p>(project: &'p ServeProject, rng: &mut Rng) -> Vec<(&'p str, &'p str)> {
    let mut files: Vec<(&str, &str)> = project
        .files
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    rng.shuffle(&mut files);
    files
}

/// One editor op: request sent → summary received, judged.
fn editor_op(
    client: &mut SocketClient,
    project: &ServeProject,
    edited: &mut [bool],
    op: EditorOp,
    rng: &mut Rng,
    out: &mut E2e,
) -> io::Result<f64> {
    let target = op.target(project, rng);
    let text = target.map(|f| toggle(project, edited, f));
    let t = Instant::now();
    if let (Some(f), Some(text)) = (target, text) {
        client.open(project.files[f].0.clone(), text)?;
    }
    let summary = client.check()?;
    let elapsed = ms(t);
    out.judge(
        RoundAnswer {
            systems: project.classes(),
            verified: target.map_or(0, |f| project.reverified_after_edit(f)),
            disk_hits: 0,
        }
        .judge(&summary),
    );
    Ok(elapsed)
}

/// `editor_1k`: one client against a warm daemon, seeded blocks of leaf
/// edits, base edits and rechecks.
pub fn editor(ctx: &Ctx) -> E2e {
    let mut out = E2e::default();
    if let Err(e) = editor_loop(ctx, &mut out) {
        out.broken(e);
    }
    out
}

fn editor_loop(ctx: &Ctx, out: &mut E2e) -> io::Result<()> {
    let socket = ctx.work.join("editor.sock");
    std::fs::create_dir_all(&ctx.work)?;

    // Set-up: generate the project, spawn the daemon, open the project,
    // run the cold check and one warm-up block. Repeated; the last daemon
    // serves the loop.
    let mut live: Option<(SocketClient, Daemon, ServeProject, Rng, Vec<bool>)> = None;
    for _ in 0..SETUPS {
        if let Some((mut client, daemon, ..)) = live.take() {
            shutdown(&mut client, daemon, out)?;
        }
        let t = Instant::now();
        let project = ServeProject::new();
        let mut rng = Rng::new(ctx.seed);
        let mut daemon = Daemon::spawn(&ctx.shelleyc, &socket, None, None)?;
        let mut client = daemon.connect(&open_order(&project, &mut rng))?;
        let summary = client.check()?;
        out.judge(
            RoundAnswer {
                systems: project.classes(),
                verified: project.classes() as u64,
                disk_hits: 0,
            }
            .judge(&summary),
        );
        let mut edited = vec![false; project.files.len()];
        for op in EditorOp::block(&mut rng) {
            editor_op(&mut client, &project, &mut edited, op, &mut rng, out)?;
        }
        out.setup_s.push(t.elapsed().as_secs_f64());
        out.calibration_ms.push(calibrate());
        live = Some((client, daemon, project, rng, edited));
    }
    let (mut client, daemon, project, mut rng, mut edited) = live.expect("SETUPS > 0");
    out.classes_per_verdict = project.classes() as u64;

    let cpu_before = daemon.cpu_ms()?;
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    while Instant::now() < deadline {
        out.calibration_ms.push(calibrate());
        for op in EditorOp::block(&mut rng) {
            let elapsed = editor_op(&mut client, &project, &mut edited, op, &mut rng, out)?;
            out.verdicts.push(elapsed);
            out.iterations.push(elapsed / 1e3);
            out.sample(op.metric(), elapsed);
        }
    }
    out.cpu_ms
        .push((daemon.cpu_ms()? - cpu_before) / out.verdicts.len().max(1) as f64);
    out.rss_mb.push(daemon.peak_rss_kb()? as f64 / 1024.0);
    shutdown(&mut client, daemon, out)?;
    Ok(())
}

/// Sends `shutdown` and waits for the daemon to exit cleanly; returns the
/// time that took, in ms, and how the daemon ended.
fn shutdown(
    client: &mut SocketClient,
    daemon: Daemon,
    out: &mut E2e,
) -> io::Result<(f64, process::Exit)> {
    let t = Instant::now();
    client.shutdown()?;
    let exit = daemon.wait()?;
    let elapsed = ms(t);
    out.judge(match exit.code {
        Some(0) => Ok(()),
        code => Err(Mismatch(format!(
            "daemon exited with {code:?} after shutdown"
        ))),
    });
    Ok((elapsed, exit))
}

/// `restart_1k`: a fresh daemon per iteration, loading the cache seeded
/// in set-up, opening the project, checking, and saving on shutdown.
pub fn restart(ctx: &Ctx) -> E2e {
    let mut out = E2e::default();
    if let Err(e) = restart_loop(ctx, &mut out) {
        out.broken(e);
    }
    out
}

fn restart_loop(ctx: &Ctx, out: &mut E2e) -> io::Result<()> {
    let socket = ctx.work.join("restart.sock");
    let cache = ctx.work.join("cache.ndjson");
    std::fs::create_dir_all(&ctx.work)?;

    // Set-up: generate the project and seed the on-disk cache with a cold
    // daemon.
    let mut generated = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let project = ServeProject::new();
        let _ = std::fs::remove_file(&cache);
        let mut daemon = Daemon::spawn(&ctx.shelleyc, &socket, Some(&cache), None)?;
        let mut client = daemon.connect(&open_order(&project, &mut Rng::new(ctx.seed)))?;
        out.judge(
            RoundAnswer {
                systems: project.classes(),
                verified: project.classes() as u64,
                disk_hits: 0,
            }
            .judge(&client.check()?),
        );
        shutdown(&mut client, daemon, out)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        out.calibration_ms.push(calibrate());
        generated = Some(project);
    }
    let project = generated.expect("SETUPS > 0");
    let opens = open_order(&project, &mut Rng::new(ctx.seed));
    let classes = project.classes() as u64;
    out.classes_per_verdict = classes;

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    while Instant::now() < deadline {
        out.calibration_ms.push(calibrate());
        let t = Instant::now();
        let mut daemon = Daemon::spawn(&ctx.shelleyc, &socket, Some(&cache), None)?;
        let mut client = daemon.connect(&opens)?;
        let summary = client.check()?;
        out.verdicts.push(ms(t));
        out.judge(
            RoundAnswer {
                systems: project.classes(),
                verified: classes,
                disk_hits: classes,
            }
            .judge(&summary),
        );
        out.rss_mb.push(daemon.peak_rss_kb()? as f64 / 1024.0);
        let (elapsed, exit) = shutdown(&mut client, daemon, out)?;
        out.sample("shutdown_ms", elapsed);
        out.cpu_ms.push(exit.cpu_ms);
        out.iterations.push(t.elapsed().as_secs_f64());
    }
    Ok(())
}
