//! The persistent on-disk cache.
//!
//! A long-lived [`Workspace`](crate::workspace::Workspace) already reuses
//! per-file and per-class products across rounds through in-memory
//! fingerprint caches; this module carries them across *process
//! restarts*. `shelleyc serve` loads the cache on startup and saves it on
//! shutdown, so a restarted daemon parses, extracts and re-verifies only
//! what actually changed.
//!
//! # What is persisted
//!
//! Two record kinds:
//!
//! * One **verify record** ([`SavedVerify`]) per `(class fingerprint,
//!   dependency fingerprint)` pair — the same content-addressed key the
//!   in-memory verify cache uses. The record stores the *analysis
//!   results* (lint diagnostics, verdict diagnostics, usage/claim
//!   violations, fast-path counts) but not the resolved
//!   [`System`](crate::system::System) or integration automaton: those
//!   are cheap, deterministic functions of the extraction and are rebuilt
//!   on restore, which keeps the file format small and free of automaton
//!   internals. The expensive passes — lints, the typestate analysis,
//!   language-inclusion usage checking, and LTLf claim checking — are
//!   skipped entirely on a hit.
//! * One **file record** per registered file, keyed by the file
//!   fingerprint (file name and text, as
//!   [`set_file`](crate::workspace::Workspace::set_file) computes it) and
//!   the recovery-mode bit. It holds the file's `W014` run and, for each
//!   class in source order, its name, start offset and class fingerprint,
//!   plus — for a definition that won when the record was written — its
//!   extraction products (the [`ClassExtraction`](crate::system::ClassExtraction)
//!   and the extract and validate diagnostics). A restarted workspace
//!   restores an unchanged file from its record instead of parsing it and
//!   extracting its classes, and parses it only if a stage later needs
//!   its AST. The products are a function of the key alone, because the
//!   parse and every class fingerprint are.
//!
//! # File format
//!
//! Newline-delimited JSON with a versioned header:
//!
//! ```text
//! {"magic":"shelleyc-cache","format":5,"analysis":4242}
//! {"class_fp":123,"dep_fp":456,"saved":{...},"sum":7878}
//! {"file_fp":789,"recover":false,"record":[...],"sum":9191}
//! ```
//!
//! `format` versions the record layout and the meaning of its keys;
//! `analysis` is the [`analysis_stamp`] of the build that wrote the file,
//! so records computed by a build whose analyses may differ (another crate
//! version or diagnostic registry) are never replayed. The stamp is part
//! of every record's key.
//!
//! A change to what a key covers, or a soundness fix to an analysis, must
//! bump [`CACHE_FORMAT`] or the analysis stamp even when the crate version
//! and the [`REGISTRY`] are unchanged: otherwise a new build would replay
//! records an old build keyed or computed differently. Format 3, for
//! example, keys each class by its own source bytes where format 2 keyed
//! it by its printed AST, which missed comment and whitespace edits that
//! move spans; format 4 adds the per-record checksum, format 5 the file
//! records, format 6 the file name on each `W014` a file record holds,
//! format 7 reads a redefined `__init__` by its last definition in
//! extraction and E008/W010, where format 6 read the first, and format 8
//! decides the typestate analysis's loop-jump approximation of a
//! redefined method by its last definition, where format 7 applied it if
//! any definition had a `break` or `continue`.
//!
//! A verify record's payload is field-named JSON. A file record's is
//! positional (see `file_record`): arrays instead of objects, spans as
//! `[start, end]`, and the lowered programs in a prefix code, read
//! without building a JSON value tree. A file record is checked against
//! its checksum when the cache loads, but decoded only when a round
//! restores its file, on the round's worker pool.
//!
//! Each record carries `sum`, an FNV-1a checksum over its key and its
//! serialized payload, so a record whose bytes changed on disk —
//! a flipped bit that still parses — is rejected instead of replaying a
//! wrong verdict under a right key, or a right verdict under a wrong one.
//!
//! Saving writes to a temporary file in the same directory and renames it
//! into place, so readers never observe a half-written cache. Loading is
//! corruption-tolerant: a missing file or foreign header yields an empty
//! cache, and a malformed record line — a torn tail, or a record whose
//! checksum does not match — is skipped and counted while every other
//! record is kept. A file record that passes its checksum but does not
//! decode is parsed instead. A stale or smaller cache only costs
//! re-parsing and re-verification, never correctness.

mod file_record;

pub(crate) use file_record::{encode as encode_file, SavedFile};

use crate::diagnostics::{Diagnostics, Severity, REGISTRY};
use crate::verify::claims::ClaimViolation;
use crate::verify::usage::UsageViolation;
use serde::json;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

/// First-line marker distinguishing cache files from arbitrary JSON.
pub const CACHE_MAGIC: &str = "shelleyc-cache";

/// On-disk format version; bump on any incompatible record change and
/// on any change to what a key covers (see the [module docs](self)).
///
/// A loaded file with a different version is ignored wholesale — the
/// cache is a pure accelerator, so "ignore and rebuild" is always safe.
pub const CACHE_FORMAT: u32 = 8;

/// The analysis version a cache file is stamped with: FNV-1a over the
/// crate version and every `(code, default severity)` pair of the
/// diagnostic [`REGISTRY`].
///
/// A file carrying another stamp is ignored wholesale, like a format
/// mismatch: its records may hold findings this build would not produce.
pub fn analysis_stamp() -> u64 {
    let mut parts: Vec<&[u8]> = vec![env!("CARGO_PKG_VERSION").as_bytes()];
    for info in REGISTRY {
        let severity: &[u8] = match info.default_severity {
            Severity::Warning => b"warning",
            Severity::Error => b"error",
        };
        parts.extend([info.code.as_bytes(), severity]);
    }
    crate::workspace::fnv1a(&parts)
}

/// The persisted verify-stage products of one class.
///
/// Restoring an entry replays these results after re-running only the
/// cheap, deterministic resolution step (and integration construction for
/// composites) — see
/// [`Workspace::check`](crate::workspace::Workspace::check).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SavedVerify {
    /// Per-class lint diagnostics (including typestate findings).
    pub lint_diags: Diagnostics,
    /// Verification diagnostics (`E100`/`E101` blocks, claim-parse errors).
    pub verdict_diags: Diagnostics,
    /// `INVALID SUBSYSTEM USAGE` failures of this class.
    pub usage_violations: Vec<UsageViolation>,
    /// `FAIL TO MEET REQUIREMENT` failures of this class.
    pub claim_violations: Vec<ClaimViolation>,
    /// Inclusion checks the typestate analysis proved away.
    pub fast_path_skips: usize,
}

/// One cache line: the content-addressed key, the saved products, and
/// the checksum over both ([`record_sum`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct Record {
    class_fp: u64,
    dep_fp: u64,
    saved: SavedVerify,
    sum: u64,
}

/// The serialized payload of a record line as written by [`save`]: the
/// bytes between `"saved":` and the trailing `,"sum":` field.
fn record_payload(line: &str) -> Option<&str> {
    let start = line.find("\"saved\":")? + "\"saved\":".len();
    let end = line.rfind(",\"sum\":")?;
    line.get(start..end)
}

/// FNV-1a over a record's key and its serialized payload.
fn record_sum(class_fp: u64, dep_fp: u64, payload: &str) -> u64 {
    crate::workspace::fnv1a(&[
        &class_fp.to_le_bytes(),
        &dep_fp.to_le_bytes(),
        payload.as_bytes(),
    ])
}

/// The header line of a cache file.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct Header {
    magic: String,
    format: u32,
    /// Absent in format-1 files, which the format check rejects first.
    analysis: Option<u64>,
}

/// The key of a file record: the file fingerprint (file name and text)
/// and the recovery-mode bit.
pub type FileKey = (u64, bool);

/// A file record whose checksum matched, its payload not yet decoded.
#[derive(Debug)]
pub struct FileRecord {
    payload: Box<str>,
    /// The checksum the payload matched, written back with it.
    sum: u64,
}

impl FileRecord {
    /// The decoded record; `None` if the payload is malformed.
    pub(crate) fn decode(&self) -> Option<SavedFile> {
        file_record::decode(&self.payload)
    }
}

/// The prefix of a file record line, which tells it from a verify record.
const FILE_RECORD_PREFIX: &str = "{\"file_fp\":";

/// Splits a file record line as [`RecordLines::file`] writes it into its
/// key and payload, checking the checksum; `None` for a malformed or
/// corrupt line.
fn file_record_line(line: &str) -> Option<(FileKey, FileRecord)> {
    let rest = line.strip_prefix(FILE_RECORD_PREFIX)?;
    let (fingerprint, rest) = rest.split_once(",\"recover\":")?;
    let (recover, rest) = rest.split_once(",\"record\":")?;
    let (payload, sum) = rest.rsplit_once(",\"sum\":")?;
    let key = (
        fingerprint.parse().ok()?,
        match recover {
            "true" => true,
            "false" => false,
            _ => return None,
        },
    );
    let sum: u64 = sum.strip_suffix('}')?.parse().ok()?;
    (sum == file_record_sum(key, payload)).then(|| {
        let payload = payload.into();
        (key, FileRecord { payload, sum })
    })
}

/// FNV-1a over a file record's key and its payload.
fn file_record_sum((fingerprint, recover): FileKey, payload: &str) -> u64 {
    crate::workspace::fnv1a(&[
        &fingerprint.to_le_bytes(),
        &[u8::from(recover)],
        payload.as_bytes(),
    ])
}

/// What [`load`] recovered, plus how much it had to discard.
#[derive(Debug, Default)]
pub struct LoadOutcome {
    /// Usable verify records, keyed by `(class fingerprint, dep
    /// fingerprint)`.
    pub entries: HashMap<(u64, u64), Arc<SavedVerify>>,
    /// File records whose checksum matched, keyed by [`FileKey`].
    pub files: HashMap<FileKey, Arc<FileRecord>>,
    /// Record lines dropped as malformed (a torn tail after a crash) or
    /// corrupt (a checksum mismatch).
    pub skipped_lines: usize,
    /// Why the whole file was ignored, when it was (missing file, foreign
    /// header, format or analysis-stamp mismatch).
    pub rejected: Option<String>,
}

/// Loads a cache file, recovering every record before the first sign of
/// corruption. Never fails: any problem degrades to a smaller (possibly
/// empty) cache.
pub fn load(path: &Path) -> LoadOutcome {
    load_on(path, 1)
}

/// [`load`] with the record lines checked and parsed on a pool of `jobs`
/// workers.
pub(crate) fn load_on(path: &Path, jobs: usize) -> LoadOutcome {
    let mut outcome = LoadOutcome::default();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            outcome.rejected = Some(format!("cannot read {}: {e}", path.display()));
            return outcome;
        }
    };
    let mut lines = text.lines();
    let header: Header = match lines.next().map(json::from_str) {
        Some(Ok(header)) => header,
        Some(Err(e)) => {
            outcome.rejected = Some(format!("bad cache header: {e}"));
            return outcome;
        }
        None => {
            outcome.rejected = Some("empty cache file".to_string());
            return outcome;
        }
    };
    if header.magic != CACHE_MAGIC {
        outcome.rejected = Some(format!("foreign cache magic `{}`", header.magic));
        return outcome;
    }
    if header.format != CACHE_FORMAT {
        outcome.rejected = Some(format!(
            "cache format {} (this build speaks {CACHE_FORMAT})",
            header.format
        ));
        return outcome;
    }
    let stamp = analysis_stamp();
    if header.analysis != Some(stamp) {
        outcome.rejected = Some(format!(
            "cache analysis stamp {} (this build's is {stamp})",
            header
                .analysis
                .map_or_else(|| "missing".to_string(), |a| a.to_string())
        ));
        return outcome;
    }
    let lines: Vec<&str> = lines.filter(|line| !line.trim().is_empty()).collect();
    // A few chunks per worker, so one slow chunk does not idle the rest.
    let chunks: Vec<&[&str]> = lines
        .chunks(lines.len().div_ceil(jobs * 4).max(1))
        .collect();
    let parsed = crate::workspace::par_map(jobs, &chunks, |chunk| {
        chunk
            .iter()
            .map(|line| record_line(line))
            .collect::<Vec<_>>()
    });
    for line in parsed.into_iter().flatten() {
        match line {
            Some(Line::Verify(key, saved)) => {
                outcome.entries.insert(key, Arc::new(saved));
            }
            Some(Line::File(key, record)) => {
                outcome.files.insert(key, Arc::new(record));
            }
            None => outcome.skipped_lines += 1,
        }
    }
    outcome
}

/// One usable record line.
enum Line {
    Verify((u64, u64), SavedVerify),
    File(FileKey, FileRecord),
}

/// Parses one record line, checking its checksum; `None` for a malformed
/// or corrupt line.
fn record_line(line: &str) -> Option<Line> {
    if line.starts_with(FILE_RECORD_PREFIX) {
        let (key, record) = file_record_line(line)?;
        return Some(Line::File(key, record));
    }
    let record = json::from_str::<Record>(line).ok()?;
    (record.sum == record_sum(record.class_fp, record.dep_fp, record_payload(line)?))
        .then_some(Line::Verify((record.class_fp, record.dep_fp), record.saved))
}

/// Atomically writes `entries` to `path` as verify records (temp file +
/// rename). Returns the number of records written.
pub fn save<'a, I>(path: &Path, entries: I) -> io::Result<usize>
where
    I: IntoIterator<Item = ((u64, u64), &'a SavedVerify)>,
{
    let mut lines = RecordLines::default();
    for (key, saved) in entries {
        lines.verify(key, saved);
    }
    commit(path, [lines])
}

/// Record lines of a cache file, written in one pass; a save may write
/// several chunks on a worker pool and [`commit`] them in order.
#[derive(Default)]
pub(crate) struct RecordLines {
    out: String,
    verify_records: usize,
}

impl RecordLines {
    /// Appends a verify record.
    pub(crate) fn verify(&mut self, (class_fp, dep_fp): (u64, u64), saved: &SavedVerify) {
        // The line `Record` serializes to, with the payload serialized
        // once for both the line and its checksum.
        let payload = json::to_string(saved);
        let sum = record_sum(class_fp, dep_fp, &payload);
        let _ = writeln!(
            self.out,
            "{{\"class_fp\":{class_fp},\"dep_fp\":{dep_fp},\"saved\":{payload},\"sum\":{sum}}}"
        );
        self.verify_records += 1;
    }

    /// Appends a file record whose payload `encode` writes.
    pub(crate) fn file(&mut self, key: FileKey, encode: impl FnOnce(&mut String)) {
        self.file_prefix(key);
        let start = self.out.len();
        encode(&mut self.out);
        let sum = file_record_sum(key, &self.out[start..]);
        let _ = writeln!(self.out, ",\"sum\":{sum}}}");
    }

    /// Appends a loaded file record unchanged, checksum included.
    pub(crate) fn saved_file(&mut self, key: FileKey, record: &FileRecord) {
        self.file_prefix(key);
        self.out.push_str(&record.payload);
        let _ = writeln!(self.out, ",\"sum\":{}}}", record.sum);
    }

    fn file_prefix(&mut self, (fingerprint, recover): FileKey) {
        let _ = write!(
            self.out,
            "{FILE_RECORD_PREFIX}{fingerprint},\"recover\":{recover},\"record\":"
        );
    }
}

/// Atomically writes a cache file holding the header and then `chunks`
/// in order (temp file + rename). Returns the number of verify records
/// written.
pub(crate) fn commit(
    path: &Path,
    chunks: impl IntoIterator<Item = RecordLines>,
) -> io::Result<usize> {
    let header = json::to_string(&Header {
        magic: CACHE_MAGIC.to_string(),
        format: CACHE_FORMAT,
        analysis: Some(analysis_stamp()),
    });
    let tmp = path.with_extension("tmp");
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut verify_records = 0;
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(format!("{header}\n").as_bytes())?;
        for chunk in chunks {
            file.write_all(chunk.out.as_bytes())?;
            verify_records += chunk.verify_records;
        }
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(verify_records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::{codes, Diagnostic};

    fn sample_saved() -> SavedVerify {
        let mut lint_diags = Diagnostics::new();
        lint_diags.push(Diagnostic::warning(codes::IMPLICIT_RETURN, "implicit"));
        SavedVerify {
            lint_diags,
            verdict_diags: Diagnostics::new(),
            usage_violations: Vec::new(),
            claim_violations: Vec::new(),
            fast_path_skips: 2,
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("shelley-persist-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("cache.ndjson")
    }

    #[test]
    fn save_then_load_round_trips() {
        let path = temp_path("roundtrip");
        let saved = sample_saved();
        let n = save(&path, vec![((1u64, 2u64), &saved), ((3, 4), &saved)]).unwrap();
        assert_eq!(n, 2);
        let outcome = load(&path);
        assert!(outcome.rejected.is_none(), "{:?}", outcome.rejected);
        assert_eq!(outcome.skipped_lines, 0);
        assert_eq!(outcome.entries.len(), 2);
        assert_eq!(*outcome.entries[&(1, 2)], saved);
    }

    #[test]
    fn torn_tail_keeps_the_prefix() {
        let path = temp_path("torn");
        let saved = sample_saved();
        save(&path, vec![((1u64, 2u64), &saved), ((3, 4), &saved)]).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Simulate a crash mid-write of the last record.
        text.truncate(text.len() - 20);
        std::fs::write(&path, text).unwrap();
        let outcome = load(&path);
        assert!(outcome.rejected.is_none());
        assert_eq!(outcome.entries.len(), 1);
        assert_eq!(outcome.skipped_lines, 1);
    }

    #[test]
    fn foreign_or_future_files_are_ignored_wholesale() {
        let path = temp_path("foreign");
        std::fs::write(&path, "{\"something\":\"else\"}\n").unwrap();
        assert!(load(&path).rejected.is_some());

        std::fs::write(
            &path,
            format!(
                "{{\"magic\":\"{CACHE_MAGIC}\",\"format\":{}}}\n",
                CACHE_FORMAT + 1
            ),
        )
        .unwrap();
        let outcome = load(&path);
        assert!(outcome.rejected.unwrap().contains("format"));

        std::fs::write(&path, "not json at all\n").unwrap();
        assert!(load(&path).rejected.is_some());

        let missing = temp_path("missing-dir").with_file_name("never-written.ndjson");
        assert!(load(&missing).rejected.is_some());
    }

    #[test]
    fn another_analysis_stamp_rejects_the_file_and_the_next_round_runs_cold() {
        use crate::lint::LintConfig;
        use crate::workspace::{tests::composites_project, Workspace};

        let path = temp_path("stamp");
        let mut ws = Workspace::with_config(LintConfig::default(), 1);
        ws.set_file("a.py", composites_project(3));
        let cold = ws.check().unwrap();
        assert_eq!(ws.save_disk_cache(&path).unwrap(), 4);

        // The file this build wrote restores every class.
        let mut restored = Workspace::with_config(LintConfig::default(), 1);
        restored.set_file("a.py", composites_project(3));
        assert!(restored.load_disk_cache(&path).rejected.is_none());
        restored.check().unwrap();
        assert_eq!(restored.last_round().verify_disk_hits, 4);

        // The same records under another build's stamp restore none.
        let stamp = analysis_stamp();
        let text = std::fs::read_to_string(&path).unwrap();
        let (header, records) = text.split_once('\n').unwrap();
        assert!(
            header.contains(&format!("\"analysis\":{stamp}")),
            "{header}"
        );
        let header = header.replace(&stamp.to_string(), &(stamp ^ 1).to_string());
        std::fs::write(&path, format!("{header}\n{records}")).unwrap();

        let mut ws = Workspace::with_config(LintConfig::default(), 1);
        ws.set_file("a.py", composites_project(3));
        let outcome = ws.load_disk_cache(&path);
        assert!(outcome.entries.is_empty());
        let reason = outcome.rejected.expect("a foreign stamp rejects the file");
        assert!(reason.contains("analysis stamp"), "{reason}");
        let checked = ws.check().unwrap();
        assert_eq!(ws.last_round().verify_disk_hits, 0);
        assert_eq!(ws.last_round().verified, 4);
        assert_eq!(
            checked.report.render(None),
            cold.report.render(None),
            "the cold re-verification reaches the same verdicts"
        );
    }

    #[test]
    fn a_format_2_file_is_rejected_and_the_next_round_runs_cold() {
        use crate::lint::LintConfig;
        use crate::workspace::{tests::composites_project, Workspace};

        let path = temp_path("format2");
        let mut ws = Workspace::with_config(LintConfig::default(), 1);
        ws.set_file("a.py", composites_project(3));
        let cold = ws.check().unwrap();
        assert_eq!(ws.save_disk_cache(&path).unwrap(), 4);

        // The same records under the format-2 header, whose keys hashed
        // the printed AST, restore none.
        let text = std::fs::read_to_string(&path).unwrap();
        let current = format!("\"format\":{CACHE_FORMAT}");
        assert!(text.contains(&current), "{text}");
        std::fs::write(&path, text.replacen(&current, "\"format\":2", 1)).unwrap();

        let mut ws = Workspace::with_config(LintConfig::default(), 1);
        ws.set_file("a.py", composites_project(3));
        let outcome = ws.load_disk_cache(&path);
        assert!(outcome.entries.is_empty());
        let reason = outcome.rejected.expect("a format-2 file is rejected");
        assert!(reason.contains("cache format 2"), "{reason}");
        let checked = ws.check().unwrap();
        assert_eq!(ws.last_round().verify_disk_hits, 0);
        assert_eq!(ws.last_round().verified, 4);
        assert_eq!(checked.report.render(None), cold.report.render(None));
    }

    /// A class redefining `__init__`: the second definition, the one
    /// Python binds, uses `self.a` without assigning it.
    const REDEFINED_INIT: &str = "@sys\nclass V:\n    @op_initial_final\n    def go(self):\n        \
        return []\n\n@sys([\"a\"])\nclass S:\n    def __init__(self):\n        self.a = V()\n\n    \
        def __init__(self):\n        self.a.go()\n\n    @op_initial_final\n    def run(self):\n        \
        self.a.go()\n        return []\n";

    /// Format 6 read a redefined `__init__` by its first definition, so a
    /// format-6 file may hold the extraction and E008/W010 results of the
    /// wrong `__init__` under the right keys: a warm restart on it must
    /// restore nothing and report what a cold check reports.
    #[test]
    fn a_format_6_file_is_not_replayed_for_a_redefined_init() {
        use crate::lint::LintConfig;
        use crate::workspace::Workspace;

        let path = temp_path("format6");
        let fresh = || {
            let mut ws = Workspace::with_config(LintConfig::default(), 1);
            ws.set_file("a.py", REDEFINED_INIT);
            ws
        };
        let mut ws = fresh();
        let cold = ws.check().unwrap().report.render(None);
        assert!(cold.contains("E005"), "{cold}");
        assert_eq!(ws.save_disk_cache(&path).unwrap(), 2);

        // The same records under this build's header are replayed ...
        let mut warm = fresh();
        assert!(warm.load_disk_cache(&path).rejected.is_none());
        assert_eq!(warm.check().unwrap().report.render(None), cold);
        assert_eq!(warm.last_round().verify_disk_hits, 2);
        assert_eq!(warm.last_round().files_parsed, 0);

        // ... and under the format-6 header they are not.
        let text = std::fs::read_to_string(&path).unwrap();
        let current = format!("\"format\":{CACHE_FORMAT}");
        assert!(text.contains(&current), "{text}");
        std::fs::write(&path, text.replacen(&current, "\"format\":6", 1)).unwrap();
        let mut warm = fresh();
        let outcome = warm.load_disk_cache(&path);
        assert!(outcome.entries.is_empty() && outcome.files.is_empty());
        let reason = outcome.rejected.expect("a format-6 file is rejected");
        assert!(reason.contains("cache format 6"), "{reason}");
        assert_eq!(warm.check().unwrap().report.render(None), cold);
        assert_eq!(warm.last_round().verify_disk_hits, 0);
        assert_eq!(warm.last_round().files_parsed, 1);
    }

    #[test]
    fn a_current_format_header_without_a_stamp_is_rejected() {
        let path = temp_path("unstamped");
        std::fs::write(
            &path,
            format!("{{\"magic\":\"{CACHE_MAGIC}\",\"format\":{CACHE_FORMAT}}}\n"),
        )
        .unwrap();
        assert!(load(&path).rejected.unwrap().contains("missing"));
    }

    #[test]
    fn save_writes_the_line_a_record_serializes_to() {
        let path = temp_path("line");
        let saved = sample_saved();
        save(&path, vec![((1u64, 2u64), &saved)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let line = text.lines().nth(1).unwrap();
        let record: Record = json::from_str(line).unwrap();
        assert_eq!(json::to_string(&record), line);
        assert_eq!(record.sum, record_sum(1, 2, &json::to_string(&saved)));
    }

    /// Saves the four records of `composites_project(3)`, rewrites the
    /// line of `User0`'s record with `corrupt`, and checks that the line
    /// still parses, that its record alone is rejected, and that a round
    /// on the loaded cache re-verifies `User0` alone and reports exactly
    /// what a cold check does.
    fn corrupted_record_is_rejected(name: &str, corrupt: impl Fn(&str) -> String) {
        use crate::lint::LintConfig;
        use crate::workspace::{tests::composites_project, Workspace};

        let path = temp_path(name);
        let mut ws = Workspace::with_config(LintConfig::default(), 1);
        ws.set_file("a.py", composites_project(3));
        let cold = ws.check().unwrap();
        assert_eq!(ws.save_disk_cache(&path).unwrap(), 4);

        let text = std::fs::read_to_string(&path).unwrap();
        let mut hit = 0;
        let rewritten: Vec<String> = text
            .lines()
            .map(|line| {
                if line.contains("of `User0`") {
                    hit += 1;
                    let bad = corrupt(line);
                    assert_ne!(bad, line);
                    json::from_str::<Record>(&bad).expect("the corrupt line still parses");
                    bad
                } else {
                    line.to_string()
                }
            })
            .collect();
        assert_eq!(hit, 1, "{text}");
        std::fs::write(&path, rewritten.join("\n") + "\n").unwrap();

        let mut ws = Workspace::with_config(LintConfig::default(), 1);
        ws.set_file("a.py", composites_project(3));
        let outcome = ws.load_disk_cache(&path);
        assert!(outcome.rejected.is_none());
        assert_eq!(outcome.skipped_lines, 1);
        assert_eq!(outcome.entries.len(), 3);
        let checked = ws.check().unwrap();
        assert_eq!(ws.last_round().verified, 4);
        assert_eq!(
            ws.last_round().verify_disk_hits,
            3,
            "User0 alone re-verified"
        );
        assert_eq!(checked.report.render(None), cold.report.render(None));
        assert_eq!(
            checked.report.diagnostics.render_json(None),
            cold.report.diagnostics.render_json(None)
        );
    }

    #[test]
    fn a_flipped_digit_in_a_message_rejects_only_its_record() {
        corrupted_record_is_rejected("message-digit", |line| {
            line.replacen("of `User0`", "of `User8`", 1)
        });
    }

    #[test]
    fn a_flipped_digit_in_a_class_fingerprint_rejects_only_its_record() {
        corrupted_record_is_rejected("key-digit", |line| {
            let key = "\"class_fp\":";
            let start = line.find(key).unwrap() + key.len();
            let end = start + line[start..].find(',').unwrap();
            // Decrementing (or, from 0, incrementing) the last digit
            // keeps the number a valid u64.
            let last = line.as_bytes()[end - 1];
            let flipped = if last == b'0' {
                '1'
            } else {
                (last - 1) as char
            };
            format!("{}{flipped}{}", &line[..end - 1], &line[end..])
        });
    }

    /// Saves `composites_project(3)` in `a.py` and a `Valve` user in
    /// `b.py`, rewrites the file record of `a.py` with `corrupt`, and
    /// checks that the line still has a file record's shape, that its
    /// record alone is rejected — by the load's checksum check when
    /// `checksum`, else when the round decodes it — and that a round on
    /// the loaded cache parses and extracts `a.py` alone, restores every
    /// verdict from disk, and reports exactly what a cold check does.
    fn corrupted_file_record_is_rejected(
        name: &str,
        checksum: bool,
        corrupt: impl Fn(&str) -> String,
    ) {
        use crate::lint::LintConfig;
        use crate::workspace::{tests::composites_project, Workspace};

        const B: &str = "@sys([\"v\"])\nclass Other:\n    def __init__(self):\n        \
                         self.v = Valve()\n\n    @op_initial_final\n    def run(self):\n        \
                         self.v.test()\n        self.v.clean()\n        return []\n";
        let fill = |ws: &mut Workspace| {
            ws.set_file("a.py", composites_project(3));
            ws.set_file("b.py", B);
        };
        let path = temp_path(name);
        let mut ws = Workspace::with_config(LintConfig::default(), 1);
        fill(&mut ws);
        let cold = ws.check().unwrap();
        assert_eq!(ws.save_disk_cache(&path).unwrap(), 5);

        let text = std::fs::read_to_string(&path).unwrap();
        let mut hit = 0;
        let rewritten: Vec<String> = text
            .lines()
            .map(|line| {
                if line.starts_with(FILE_RECORD_PREFIX) && line.contains("[\"User0\",") {
                    hit += 1;
                    let bad = corrupt(line);
                    assert_ne!(bad, line);
                    assert!(bad.starts_with(FILE_RECORD_PREFIX) && bad.contains(",\"sum\":"));
                    bad
                } else {
                    line.to_string()
                }
            })
            .collect();
        assert_eq!(hit, 1, "{text}");
        std::fs::write(&path, rewritten.join("\n") + "\n").unwrap();

        let mut ws = Workspace::with_config(LintConfig::default(), 1);
        let outcome = ws.load_disk_cache(&path);
        assert!(outcome.rejected.is_none());
        assert_eq!(outcome.skipped_lines, usize::from(checksum));
        assert_eq!(outcome.files.len(), 2 - usize::from(checksum));
        assert_eq!(outcome.entries.len(), 5);
        fill(&mut ws);
        let checked = ws.check().unwrap();
        let round = ws.last_round();
        assert_eq!(round.files_parsed, 1, "a.py alone is parsed");
        assert_eq!(round.extracted, 4, "and its classes extracted");
        assert_eq!((round.verified, round.verify_disk_hits), (5, 5));
        assert_eq!(checked.report.render(None), cold.report.render(None));
        assert_eq!(
            checked.report.diagnostics.render_json(None),
            cold.report.diagnostics.render_json(None)
        );

        // The next save encodes a.py's record afresh.
        ws.save_disk_cache(&path).unwrap();
        let outcome = load(&path);
        assert_eq!((outcome.skipped_lines, outcome.files.len()), (0, 2));
    }

    /// The last digit of the first number after `key` in `line`,
    /// decremented (or, from 0, incremented): the number stays valid.
    fn flip_digit_after(line: &str, key: &str) -> String {
        let start = line.find(key).unwrap() + key.len();
        let digits = line[start..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let end = start + digits;
        assert!(digits > 0, "a number follows {key}");
        let last = line.as_bytes()[end - 1];
        let flipped = if last == b'0' {
            '1'
        } else {
            (last - 1) as char
        };
        format!("{}{flipped}{}", &line[..end - 1], &line[end..])
    }

    #[test]
    fn a_flipped_digit_in_a_file_record_payload_rejects_only_its_record() {
        // The start offset of `User0`.
        corrupted_file_record_is_rejected("file-payload-digit", true, |line| {
            flip_digit_after(line, "[\"User0\",")
        });
    }

    #[test]
    fn a_flipped_digit_in_a_file_record_key_rejects_only_its_record() {
        corrupted_file_record_is_rejected("file-key-digit", true, |line| {
            flip_digit_after(line, FILE_RECORD_PREFIX)
        });
    }

    #[test]
    fn a_file_record_that_does_not_decode_is_parsed_instead() {
        // A well-formed checksum over a payload this build cannot decode:
        // it passes the load and fails on restore.
        corrupted_file_record_is_rejected("file-undecodable", false, |line| {
            let payload = "[[],[[\"User0\",0,1,null]]";
            let key = (
                line[FILE_RECORD_PREFIX.len()..line.find(',').unwrap()]
                    .parse()
                    .unwrap(),
                false,
            );
            let sum = file_record_sum(key, payload);
            format!(
                "{FILE_RECORD_PREFIX}{},\"recover\":false,\"record\":{payload},\"sum\":{sum}}}",
                key.0
            )
        });
    }

    #[test]
    fn unknown_diagnostic_codes_poison_only_their_line() {
        let path = temp_path("badcode");
        let saved = sample_saved();
        save(&path, vec![((1u64, 2u64), &saved)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // A record whose diagnostic code no longer exists in the registry.
        let bad = text.replace("W003", "Z999");
        std::fs::write(&path, &bad).unwrap();
        let outcome = load(&path);
        assert!(outcome.rejected.is_none());
        assert_eq!(outcome.entries.len(), 0);
        assert_eq!(outcome.skipped_lines, 1);
    }
}
