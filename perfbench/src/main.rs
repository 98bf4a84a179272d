//! `perfbench` — the benchmark of Shelley-rs.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ci_cold|editor_1k|restart_1k|corpus_recover> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. It builds the release `shelleyc` from
//! source, then either drives it from outside (`--trace 0`: end-to-end
//! metrics, tracing off) or replays the same workload in this process on
//! one thread with a span around every call into a layer (`--trace 1`:
//! per-layer metrics and the attribution ledger). Every verdict is checked
//! against a known answer derived from the input generators. A report goes
//! to stdout; its last line is one JSON object with the metrics.
//!
//! Runtime files (inputs, sockets, caches, trace files) live under
//! `perfbench/work/`.

mod e2e;
mod process;
mod stats;
mod traced;
mod workload;

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workload::Workload;

/// The end-to-end metrics, in `BENCHMARK.json` order: name and unit.
/// Time metrics are rescaled to the nominal host speed (see
/// [`e2e::calibrate`]); the report prints the raw values next to them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("verdict_ms_p50_norm", "ms"),
    ("classes_per_s_norm", "1/s"),
    ("cpu_ms_per_verdict_norm", "ms"),
    ("rss_mb", "MiB"),
    ("setup_s", "s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <ci_cold|editor_1k|restart_1k|corpus_recover> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed takes a whole number".to_string())?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
    })
}

/// Builds the release `shelleyc` of the checkout in the working directory
/// and returns its absolute path.
fn build_shelleyc() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/cli").is_dir() {
        return Err("run perfbench from the root of a Shelley-rs checkout".into());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "-q", "-p", "shelley-cli"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building shelleyc failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let shelleyc = cwd.join(target).join("release").join("shelleyc");
    if shelleyc.is_file() {
        Ok(shelleyc)
    } else {
        Err(format!("no binary at {}", shelleyc.display()))
    }
}

/// First line of `program --version`-like output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Steal and total CPU ticks of the whole machine (`/proc/stat`): on a
/// shared VM, steal is time other tenants took from this one.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// One result metric: name, value, unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::Map(vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    serde::json::to_string(&Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let shelleyc = match build_shelleyc() {
        Ok(path) => path,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let work = PathBuf::from("perfbench/work").join(args.workload.name());
    let _ = std::fs::remove_dir_all(&work);
    let ctx = e2e::Ctx {
        shelleyc,
        work,
        seed: args.seed,
        seconds: args.seconds,
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench {}: seed {}, {} s, trace {}, nproc {nproc}, {}, commit {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        first_line_of("rustc", &["--version"]),
        first_line_of("git", &["rev-parse", "--short", "HEAD"]),
    );
    let steal_before = cpu_steal();
    let (correct, attempted, failed, metrics) = if args.trace {
        let run = traced::run(args.workload, &ctx);
        run.report();
        (
            run.failed == 0 && run.attempted > 0,
            run.attempted.max(1),
            run.failed,
            run.metrics,
        )
    } else {
        let run = match args.workload {
            Workload::CiCold => e2e::ci_cold(&ctx),
            Workload::Editor => e2e::editor(&ctx),
            Workload::Restart => e2e::restart(&ctx),
            Workload::Corpus => e2e::corpus_recover(&ctx),
        };
        let metrics = report_e2e(&run);
        (
            run.failed == 0 && !run.verdicts.is_empty(),
            run.attempted.max(1),
            run.failed,
            metrics,
        )
    };
    if let (Some((steal0, total0)), Some((steal1, total1))) = (steal_before, cpu_steal()) {
        println!(
            "# host: {:.1}% of CPU time stolen by the hypervisor during the run",
            100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
        );
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

/// Prints the end-to-end report and returns the metrics `BENCHMARK.json`
/// declares.
///
/// Host speed drifts by tens of percent over minutes on a shared VM, and
/// it slows the checker and the calibration kernel alike. Every time
/// metric is therefore rescaled by `NOMINAL_KERNEL_MS / kernel median`:
/// a program change moves it in full, a host phase much less.
fn report_e2e(run: &e2e::E2e) -> Vec<Metric> {
    let kernel = stats::median(&run.calibration_ms);
    let speed = if kernel > 0.0 {
        e2e::NOMINAL_KERNEL_MS / kernel
    } else {
        0.0
    };
    let iteration_s = stats::median(&run.iterations);
    let raw = [
        stats::median(&run.verdicts),
        if iteration_s > 0.0 {
            run.classes_per_verdict as f64 / iteration_s
        } else {
            0.0
        },
        stats::median(&run.cpu_ms),
        stats::median(&run.rss_mb),
        stats::median(&run.setup_s),
    ];
    let values = [
        raw[0] * speed,
        if speed > 0.0 { raw[1] / speed } else { 0.0 },
        raw[2] * speed,
        raw[3],
        raw[4] * speed,
    ];
    let samples = [
        &run.verdicts,
        &run.iterations,
        &run.cpu_ms,
        &run.rss_mb,
        &run.setup_s,
    ];
    println!(
        "calibration kernel {kernel:.4} ms (median of n={}), so times are scaled by {speed:.4}",
        run.calibration_ms.len()
    );
    for ((((name, unit), value), raw), samples) in
        END_TO_END.iter().zip(values).zip(raw).zip(samples)
    {
        println!(
            "{name:<24} {value:>12.3} {unit:<4} raw {raw:>12.3}, median of n={:<5} \
             within-run IQR {:.1}%",
            samples.len(),
            100.0 * stats::iqr_frac(samples)
        );
    }
    let (tail, pct) = stats::tail(&run.verdicts);
    println!(
        "{:<24} {:>12.3} ms   raw {tail:>12.3}, p{pct:.1}: the highest percentile with 10 \
         samples beyond it",
        "verdict_ms_tail_norm",
        tail * speed
    );
    println!(
        "verdict quantiles  p10 {:.3}  p25 {:.3}  p50 {:.3}  p75 {:.3}  p90 {:.3} ms",
        stats::quantile(&run.verdicts, 0.1),
        stats::quantile(&run.verdicts, 0.25),
        stats::quantile(&run.verdicts, 0.5),
        stats::quantile(&run.verdicts, 0.75),
        stats::quantile(&run.verdicts, 0.9),
    );
    let tenths = |samples: &[f64]| -> String {
        let n = samples.len();
        (0..10)
            .map(|i| {
                format!(
                    "{:.2}",
                    stats::median(&samples[i * n / 10..(i + 1) * n / 10])
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "verdict_ms_p50 by tenth of the loop (host drift): {}",
        tenths(&run.verdicts)
    );
    println!(
        "calibration kernel, ms by tenth of the loop:       {}  (median {:.4})",
        tenths(&run.calibration_ms),
        stats::median(&run.calibration_ms)
    );
    for (kind, samples) in &run.kinds {
        let (tail, pct) = stats::tail(samples);
        println!(
            "{:<18} {:>12.3} ms   n={:<5} tail {tail:.3} ms (p{pct:.1})",
            format!("{kind}_p50"),
            stats::median(samples),
            samples.len(),
        );
    }
    println!(
        "failed_frac        {:>12.4}      {} of {} op(s) failed",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    );
    for failure in &run.failures {
        println!("  FAILED: {failure}");
    }
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

#[cfg(test)]
mod tests {
    use serde::Value;

    fn entries<'v>(doc: &'v Value, key: &str) -> Vec<(&'v str, Option<&'v str>)> {
        let Some(Value::Seq(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no `{key}` list");
        };
        items
            .iter()
            .map(|item| {
                let field = |f: &str| item.get(f).and_then(Value::as_str);
                (field("name").expect("every entry is named"), field("unit"))
            })
            .collect()
    }

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// program runs and reports, in the same order and units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde::json::value_from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let workloads: Vec<&str> = entries(&doc, "workloads").iter().map(|e| e.0).collect();
        let ours: Vec<&str> = super::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        for (key, table) in [
            ("end_to_end", super::END_TO_END),
            ("per_layer", super::traced::PER_LAYER),
        ] {
            let declared: Vec<(&str, Option<&str>)> = entries(&doc, key);
            let reported: Vec<(&str, Option<&str>)> =
                table.iter().map(|&(n, u)| (n, Some(u))).collect();
            assert_eq!(declared, reported, "{key}");
        }
    }
}
