//! The long-lived, parallel, incremental verification engine.
//!
//! A [`Workspace`] owns the parsed state of a project and re-verifies it
//! round after round, recomputing only what an edit actually invalidated.
//! Every entry point of [`Checker`](crate::checker::Checker) runs a
//! one-round workspace under the hood, so the semantics here *are* the
//! semantics of the whole crate.
//!
//! # Caching model
//!
//! The pipeline decomposes into per-class stages
//! ([`extract_class`] → [`validate_spec`] →
//! [`resolve_class`](crate::system::resolve_class) → lints →
//! [`verify_system`]), and each stage's
//! products are cached under a **content fingerprint**:
//!
//! * a *file* fingerprint (hash of the file name and source text) gates
//!   re-parsing, and with the recovery-mode bit keys the file's record
//!   in the disk cache;
//! * a *class* fingerprint (hash of the class's own source bytes — from
//!   its first decorator to the end of its last body statement — plus its
//!   start offset, its file, and the recovery-mode bit) gates extraction
//!   and spec validation, which depend on nothing but the class's own
//!   text. Every span a class's products carry is a function of that key,
//!   so any edit inside a class, a comment or whitespace one included,
//!   re-extracts it, and an edit that only moves it re-keys it;
//! * a *dependency* fingerprint (the class fingerprint combined with the
//!   fingerprints of every subsystem class it instantiates) gates
//!   resolution, lints, and verification, which additionally read the
//!   subsystems' specifications — and nothing else.
//!
//! Editing one class therefore re-runs extraction for that class only, and
//! re-runs verification for that class plus the composites that use it.
//! [`WorkspaceStats`] exposes hit/miss counters and per-phase timings so
//! callers (and tests) can observe exactly that.
//!
//! The per-class products are shared, never copied: a cached verify entry
//! holds its [`System`] behind an [`Arc`], and the [`Checked`] a round
//! returns holds `Arc`s into the cache. A composite's integration
//! automaton is not kept: verification builds it, checks usage and claims
//! on it, and drops it.
//!
//! # Rounds in O(edit)
//!
//! Between rounds the workspace keeps everything a round produces: the
//! class table (every definition of every class name, the winner of each,
//! and the `E004` run of each shadowed name), each class's dependency
//! fingerprint, a reverse index `class name → the classes instantiating
//! it`, the spec index, and the report itself, built from one run per
//! class (its diagnostics with the lint config applied, its system and
//! its violations), one `W014` run per file and one `E004` run per
//! shadowed name.
//!
//! [`set_file`](Workspace::set_file), [`remove_file`](Workspace::remove_file)
//! and [`set_recover`](Workspace::set_recover) only mark files dirty. A
//! round then parses the dirty files, patches the class table for their
//! classes (a class a re-parsed file still defines unchanged is left
//! alone), and collects the names whose winner changed: it appeared,
//! disappeared, moved, or got a new fingerprint. Those names' classes are
//! re-extracted (through the extraction cache); their dependency keys,
//! and those of every class instantiating them, are recomputed; the
//! classes whose key moved are re-verified (through the memory and disk
//! caches); and only their runs are retired from and merged into the kept
//! report. A round with no edit touches no class at all, and a cold round
//! is the same path with every file dirty. Debug builds check every round
//! against the report, keys and caches rebuilt from scratch.
//!
//! # Restored files and lazy ASTs
//!
//! A workspace that loaded a disk cache ([`Workspace::load_disk_cache`])
//! restores a dirty file whose key has a file record instead of parsing
//! it: on the phase-1 worker pool the record is decoded into the file's
//! `W014` run and its class units — name, start offset and class
//! fingerprint, exactly as parsing computes them — without ASTs. A
//! restored unit that won when the record was written also carries its
//! extraction products, which seed the extraction cache when it wins
//! again. A file is parsed only when its text changed (it has no record
//! under its new key) or a stage needs an AST: a class whose verify key
//! the disk cache cannot answer (the lints read the AST), or a restored
//! definition without products that starts winning. Such a lazy parse
//! counts in [`WorkspaceStats::files_parsed`]; debug builds assert that
//! it yields the units the record restored. An unchanged restart thus
//! parses and extracts nothing, and re-runs only the cheap resolution.
//!
//! Workspace diagnostics carry no file, so two classes can produce the
//! same diagnostic, which the normalized report holds once: the kept
//! report counts how many runs produce each diagnostic, and retiring one
//! run removes a diagnostic only when no other run still produces it.
//!
//! # Parallelism and determinism
//!
//! Every stage that does per-item work fans out over a
//! [`std::thread::scope`] worker pool
//! ([`Checker::jobs`](crate::checker::Checker::jobs), default: available
//! parallelism): parsing over the changed files, extraction and
//! verification over the invalidated classes. Workers claim items from a
//! shared queue, but results are merged back **in file and class order**
//! and diagnostics are normalized, so reports — including which parse
//! failure is reported first and the order of `W014` warnings — are
//! byte-identical across job counts and across incremental-vs-cold runs.
//! A round with a single changed item runs it inline, without spawning.
//!
//! # Example
//!
//! ```
//! use shelley_core::{Checker, Workspace};
//!
//! let mut ws = Checker::new().jobs(2).into_workspace();
//! ws.set_file("led.py", "@sys\nclass Led:\n    @op_initial_final\n    def blink(self):\n        return []\n");
//! ws.set_file("main.py", "@sys([\"l\"])\nclass Panel:\n    def __init__(self):\n        self.l = Led()\n\n    @op_initial_final\n    def run(self):\n        self.l.blink()\n        return []\n");
//! let first = ws.check()?;
//! assert!(first.report.passed());
//!
//! // Re-checking without edits hits the cache for every class.
//! ws.check()?;
//! assert_eq!(ws.last_round().verified, 0);
//! assert_eq!(ws.last_round().verify_cache_hits, 2);
//!
//! // Editing the Led protocol re-verifies Led *and* the Panel composite.
//! ws.set_file("led.py", "@sys\nclass Led:\n    @op_initial_final\n    def blink(self):\n        return [\"blink\"]\n");
//! ws.check()?;
//! assert_eq!(ws.last_round().verified, 2);
//! # Ok::<(), shelley_core::CheckError>(())
//! ```

#[cfg(debug_assertions)]
mod reference;
mod report;

use crate::checker::CheckError;
use crate::dataflow::typestate::dependency_dfa;
use crate::diagnostics::{codes, Diagnostic, Diagnostics};
use crate::lint::{lint_class, LintConfig, LintContext, LintLevel};
use crate::persist::{self, FileKey, FileRecord, RecordLines, SavedVerify};
use crate::pipeline::{verify_system, Checked, SystemVerdict};
use crate::spec::ClassSpec;
use crate::stats::{system_stats, SystemStats};
use crate::system::{
    extract_class, resolve_class_with, validate_spec, ClassExtraction, System, SystemKind,
    SystemSet,
};
use micropython_parser::ast::{Module, Stmt};
use micropython_parser::visit::collect_degraded;
use micropython_parser::{parse_module, parse_module_recover, ParseError};
use report::{ClassRuns, KeptReport};
use shelley_regular::Dfa;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Cache-hit/miss counters and per-phase wall-clock timings of a
/// [`Workspace`] — one value accumulated over the workspace's lifetime
/// ([`Workspace::stats`]) and one reset every round
/// ([`Workspace::last_round`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WorkspaceStats {
    /// Number of completed [`Workspace::check`] rounds.
    pub rounds: u64,
    /// Files parsed: those whose source changed and had no file record,
    /// plus restored files parsed lazily because a stage needed their AST.
    pub files_parsed: u64,
    /// Files whose parse (or parse error) was reused, or restored from a
    /// file record, and not parsed.
    pub parse_cache_hits: u64,
    /// Classes that ran extraction + spec validation.
    pub extracted: u64,
    /// Classes whose extraction artifacts were reused.
    pub extract_cache_hits: u64,
    /// Classes that ran resolution, lints, and verification.
    pub verified: u64,
    /// Classes whose verification artifacts were reused.
    pub verify_cache_hits: u64,
    /// Freshly verified classes (counted in [`Self::verified`]) that were
    /// restored from the on-disk cache, skipping the expensive analyses.
    pub verify_disk_hits: u64,
    /// Subsystem inclusion checks skipped because the typestate analysis
    /// proved them (fast path), across freshly verified classes.
    pub fast_path_proven: u64,
    /// Pairs the inclusion search kept across freshly verified classes'
    /// usage checks (see [`shelley_regular::antichain`]).
    pub antichain_frontier: u64,
    /// Discovered pairs the inclusion search discarded because a kept
    /// pair covered them — spec macrostates batch verification never had
    /// to expand.
    pub antichain_pruned: u64,
    /// [`Workspace::class_stats`] calls that computed statistics afresh.
    pub stats_computed: u64,
    /// [`Workspace::class_stats`] calls served from the stats cache.
    pub stats_cache_hits: u64,
    /// Wall time of the parse phase: restoring or parsing the changed
    /// files on the worker pool, including fingerprinting each of their
    /// classes and collecting recovery-mode `W014` warnings, plus the
    /// lazy parses of later phases.
    pub parse_time: Duration,
    /// Time spent extracting changed classes.
    pub extract_time: Duration,
    /// Time spent resolving/linting/verifying invalidated classes.
    pub verify_time: Duration,
    /// Time spent merging cached artifacts into the final report.
    pub assemble_time: Duration,
}

impl WorkspaceStats {
    fn absorb(&mut self, round: &WorkspaceStats) {
        self.rounds += round.rounds;
        self.files_parsed += round.files_parsed;
        self.parse_cache_hits += round.parse_cache_hits;
        self.extracted += round.extracted;
        self.extract_cache_hits += round.extract_cache_hits;
        self.verified += round.verified;
        self.verify_cache_hits += round.verify_cache_hits;
        self.verify_disk_hits += round.verify_disk_hits;
        self.fast_path_proven += round.fast_path_proven;
        self.antichain_frontier += round.antichain_frontier;
        self.antichain_pruned += round.antichain_pruned;
        self.stats_computed += round.stats_computed;
        self.stats_cache_hits += round.stats_cache_hits;
        self.parse_time += round.parse_time;
        self.extract_time += round.extract_time;
        self.verify_time += round.verify_time;
        self.assemble_time += round.assemble_time;
    }

    /// One-line human-readable summary
    /// (`parsed 1/12 files, extracted 1/40 classes, verified 3/40`).
    pub fn render(&self) -> String {
        format!(
            "parsed {}/{} files, extracted {}/{} classes, verified {}/{} \
             ({} fast-path) in {:.1?}",
            self.files_parsed,
            self.files_parsed + self.parse_cache_hits,
            self.extracted,
            self.extracted + self.extract_cache_hits,
            self.verified,
            self.verified + self.verify_cache_hits,
            self.fast_path_proven,
            self.parse_time + self.extract_time + self.verify_time + self.assemble_time,
        )
    }
}

/// A class name, shared by the class table's indexes.
type Name = Arc<str>;

/// A class's place in project order: the ordinal of its file (files are
/// numbered in the order they were added and a number is never reused, so
/// removing a file moves no other class) and the class's start offset in
/// that file.
type Pos = (u64, usize);

/// One class of one file, ready for the per-class stages.
#[derive(Debug)]
struct ClassUnit {
    name: Name,
    /// Start offset of the class in its file.
    start: usize,
    /// Content fingerprint (see [`class_units`]).
    fingerprint: u64,
    /// A single-class module owning the class definition; shared with
    /// worker threads. `None` for a unit restored from a file record
    /// until a stage needs its AST (see [`Workspace::load_asts`]).
    solo: Option<Arc<Module>>,
    /// The extraction products the file record held for the unit, which
    /// spare extracting it when it wins.
    restored: Option<Arc<ExtractEntry>>,
}

impl ClassUnit {
    /// The unit's single-class module.
    ///
    /// # Panics
    ///
    /// If the unit's file was restored and its AST not loaded.
    fn solo(&self) -> &Module {
        self.solo
            .as_deref()
            .expect("a stage that reads the AST loads it first")
    }
}

/// Where a file's parse stands relative to the class table.
#[derive(Debug)]
enum Parse {
    /// The text (or the grammar) changed since the last parse.
    Stale,
    /// The parse failed; every round fails until the text changes.
    Failed(Box<ParseError>),
    /// Parsed or restored from a file record, with its `W014`
    /// diagnostics, but not yet merged into the class table.
    Pending(Box<(Vec<ClassUnit>, Diagnostics)>),
    /// The class table holds exactly this parse.
    Registered,
}

/// A registered source file and its parse cache.
#[derive(Debug)]
struct FileState {
    name: String,
    /// The file's rank in project order (see [`Pos`]).
    ordinal: u64,
    /// Fingerprint of the file name and source text.
    fingerprint: u64,
    source: String,
    parse: Parse,
    /// The file's classes as the class table holds them, in source order.
    registered: Vec<ClassUnit>,
    /// `W014` diagnostics for constructs recovery mode degraded to `skip`
    /// in the registered parse.
    degraded: Diagnostics,
}

/// The registered files, in project order: sorted by ordinal.
#[derive(Debug, Default)]
struct Files(Vec<FileState>);

impl Files {
    fn index(&self, ordinal: u64) -> usize {
        self.0
            .binary_search_by_key(&ordinal, |f| f.ordinal)
            .expect("a live file's ordinal")
    }

    fn get(&self, ordinal: u64) -> &FileState {
        &self.0[self.index(ordinal)]
    }

    fn get_mut(&mut self, ordinal: u64) -> &mut FileState {
        let i = self.index(ordinal);
        &mut self.0[i]
    }

    /// The unit of the class defined at `pos`.
    fn unit(&self, (ordinal, start): Pos) -> &ClassUnit {
        let units = &self.get(ordinal).registered;
        &units[unit_index(units, start)]
    }

    fn unit_mut(&mut self, (ordinal, start): Pos) -> &mut ClassUnit {
        let units = &mut self.get_mut(ordinal).registered;
        let i = unit_index(units, start);
        &mut units[i]
    }
}

/// The index in `units` of the class starting at `start`.
fn unit_index(units: &[ClassUnit], start: usize) -> usize {
    units
        .binary_search_by_key(&start, |u| u.start)
        .expect("a registered class starts at its position")
}

/// Whether `unit`, defined at `pos`, is the winning definition of a class
/// without `@sys`, whose AST no stage reads once it is extracted.
fn ast_unread(slots: &HashMap<Name, ClassSlot>, pos: Pos, unit: &ClassUnit) -> bool {
    slots.get(&unit.name).is_some_and(|slot| {
        (slot.pos, slot.fingerprint) == (pos, unit.fingerprint) && slot.extract.extraction.is_none()
    })
}

/// The products of the winning definition of one class name.
#[derive(Debug)]
struct ClassSlot {
    pos: Pos,
    fingerprint: u64,
    extract: Arc<ExtractEntry>,
    /// The dependency fingerprint (the class fingerprint for classes
    /// without `@sys`).
    dep_fingerprint: u64,
    /// The verification products of a `@sys` class.
    verify: Option<Arc<VerifyEntry>>,
    /// The class's diagnostics, config applied and normalized: its run in
    /// the kept report.
    run: Box<[Diagnostic]>,
}

impl ClassSlot {
    fn verify_key(&self) -> Option<(u64, u64)> {
        self.verify
            .as_ref()
            .map(|_| (self.fingerprint, self.dep_fingerprint))
    }
}

/// Extraction-stage products of one class (keyed by class fingerprint).
#[derive(Debug)]
pub(crate) struct ExtractEntry {
    /// `None` for classes without a `@sys` decorator.
    pub(crate) extraction: Option<ClassExtraction>,
    pub(crate) extract_diags: Diagnostics,
    pub(crate) validate_diags: Diagnostics,
}

/// One live `@sys` class in the spec index: its spec, and what the
/// verification of every class instantiating it reads besides: the
/// dependency DFA the typestate analysis steps ([`dependency_dfa`]), and
/// the spec-only stand-in system usage verification and the typestate
/// analysis look the class up as. Both are built on first use and
/// dropped with the entry when the spec changes or leaves, so they are
/// functions of the spec alone.
#[derive(Debug)]
struct SpecEntry {
    spec: ClassSpec,
    dfa: OnceLock<Arc<Dfa>>,
    stand_in: OnceLock<Arc<System>>,
}

impl SpecEntry {
    fn new(spec: ClassSpec) -> SpecEntry {
        SpecEntry {
            spec,
            dfa: OnceLock::new(),
            stand_in: OnceLock::new(),
        }
    }

    fn dfa(&self) -> Arc<Dfa> {
        self.dfa
            .get_or_init(|| Arc::new(dependency_dfa(&self.spec)))
            .clone()
    }

    fn stand_in(&self) -> Arc<System> {
        self.stand_in
            .get_or_init(|| {
                Arc::new(System {
                    name: self.spec.name.clone(),
                    kind: SystemKind::Base,
                    spec: self.spec.clone(),
                    claims: Vec::new(),
                })
            })
            .clone()
    }
}

/// Verification-stage products of one class (keyed by class fingerprint +
/// dependency fingerprint).
#[derive(Debug)]
struct VerifyEntry {
    system: Arc<System>,
    verdict: SystemVerdict,
    resolve_diags: Diagnostics,
    lint_diags: Diagnostics,
}

/// The long-lived verification engine. See the [module docs](self).
#[derive(Debug)]
pub struct Workspace {
    config: LintConfig,
    /// Worker threads per stage; `0` at construction resolves to the
    /// available parallelism, queried once.
    jobs: usize,
    /// Recovery mode: parse with
    /// [`parse_module_recover`] (total), degrading out-of-subset
    /// constructs to spanned `skip` nodes reported as `W014`.
    recover: bool,
    files: Files,
    /// `file name → ordinal`.
    file_index: HashMap<String, u64>,
    /// The ordinal the next new file gets.
    next_ordinal: u64,
    /// Files whose current text the class table does not hold yet: their
    /// parse is stale, failed, or pending.
    dirty: BTreeSet<u64>,
    /// Removed files whose classes the class table still holds until the
    /// next round.
    retired: Vec<FileState>,
    /// `class name → the positions of its definitions`, in project order:
    /// the class table. The last definition wins (Python's
    /// last-definition semantics); the others are shadowed, reported, and
    /// dropped before any stage runs.
    definitions: HashMap<Name, Vec<Pos>>,
    /// `class name → the E004 run reporting its shadowed definitions`,
    /// config applied, for the names defined more than once.
    shadowed: HashMap<Name, Vec<Diagnostic>>,
    /// `class name → products of its winning definition`.
    slots: HashMap<Name, ClassSlot>,
    /// `class name → the @sys classes that instantiate it`: whose
    /// dependency fingerprints change when the name gets a new winner.
    dependents: HashMap<Name, Vec<Name>>,
    /// The last round's report.
    report: KeptReport,
    extract_cache: HashMap<u64, Arc<ExtractEntry>>,
    verify_cache: HashMap<(u64, u64), Arc<VerifyEntry>>,
    /// Per-class [`SystemStats`], keyed like `verify_cache` (class
    /// fingerprint + dependency fingerprint) because composite statistics
    /// read the subsystem specs.
    stats_cache: HashMap<(u64, u64), Arc<SystemStats>>,
    /// `class name → spec` of every live `@sys` class: the index
    /// resolution reads subsystem specs from, and the typestate analysis
    /// their DFAs. Kept in step with the class slots, so a round copies
    /// only the specs of re-extracted classes.
    spec_index: BTreeMap<String, SpecEntry>,
    /// Verify-stage products restored from disk
    /// ([`Self::load_disk_cache`]), consulted when the in-memory
    /// `verify_cache` misses. Kept across rounds: a key that is stale now
    /// can become live again when a closed file is reopened.
    disk_cache: HashMap<(u64, u64), Arc<SavedVerify>>,
    /// File records restored from disk, consulted before parsing a stale
    /// file. Kept across rounds like `disk_cache`, so a reopened file
    /// restores too.
    file_records: HashMap<FileKey, Arc<FileRecord>>,
    totals: WorkspaceStats,
    last: WorkspaceStats,
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace::new()
    }
}

impl Workspace {
    /// An empty workspace with default lints and automatic parallelism.
    pub fn new() -> Self {
        Workspace::with_config(LintConfig::default(), 0)
    }

    /// An empty workspace with an explicit lint configuration and worker
    /// count (`0` = available parallelism). Usually reached through
    /// [`Checker::into_workspace`](crate::checker::Checker::into_workspace).
    pub fn with_config(config: LintConfig, jobs: usize) -> Self {
        Workspace {
            config,
            jobs: match jobs {
                0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
                n => n,
            },
            recover: false,
            files: Files::default(),
            file_index: HashMap::new(),
            next_ordinal: 0,
            dirty: BTreeSet::new(),
            retired: Vec::new(),
            definitions: HashMap::new(),
            shadowed: HashMap::new(),
            slots: HashMap::new(),
            dependents: HashMap::new(),
            report: KeptReport::default(),
            extract_cache: HashMap::new(),
            verify_cache: HashMap::new(),
            stats_cache: HashMap::new(),
            spec_index: BTreeMap::new(),
            disk_cache: HashMap::new(),
            file_records: HashMap::new(),
            totals: WorkspaceStats::default(),
            last: WorkspaceStats::default(),
        }
    }

    /// Switches recovery mode on or off. Changing the mode invalidates
    /// every cached parse — the same text parses differently under the two
    /// grammars.
    pub fn set_recover(&mut self, recover: bool) {
        if self.recover == recover {
            return;
        }
        self.recover = recover;
        for file in &mut self.files.0 {
            file.parse = Parse::Stale;
            self.dirty.insert(file.ordinal);
        }
    }

    /// Whether recovery mode is on.
    pub fn recover(&self) -> bool {
        self.recover
    }

    /// Adds a file, or replaces its source if the name is already
    /// registered (keeping its position in project order). Re-registering
    /// identical source is free: the parse cache is kept.
    pub fn set_file(&mut self, name: impl Into<String>, source: impl Into<String>) {
        let name = name.into();
        let source = source.into();
        let fingerprint = fnv1a(&[name.as_bytes(), source.as_bytes()]);
        match self.file_index.get(&name) {
            Some(&ordinal) => {
                let state = self.files.get_mut(ordinal);
                if state.fingerprint != fingerprint {
                    state.fingerprint = fingerprint;
                    state.source = source;
                    state.parse = Parse::Stale;
                    self.dirty.insert(ordinal);
                }
            }
            None => {
                let ordinal = self.next_ordinal;
                self.next_ordinal += 1;
                self.file_index.insert(name.clone(), ordinal);
                self.files.0.push(FileState {
                    name,
                    ordinal,
                    fingerprint,
                    source,
                    parse: Parse::Stale,
                    registered: Vec::new(),
                    degraded: Diagnostics::new(),
                });
                self.dirty.insert(ordinal);
            }
        }
    }

    /// Removes a file from the project. Returns whether it was present.
    pub fn remove_file(&mut self, name: &str) -> bool {
        let Some(ordinal) = self.file_index.remove(name) else {
            return false;
        };
        let file = self.files.0.remove(self.files.index(ordinal));
        self.dirty.remove(&ordinal);
        if !file.registered.is_empty() || !file.degraded.is_empty() {
            self.retired.push(file);
        }
        true
    }

    /// The registered file names, in project order.
    pub fn file_names(&self) -> impl Iterator<Item = &str> {
        self.files.0.iter().map(|f| f.name.as_str())
    }

    /// The source text registered for `name` by [`set_file`](Self::set_file);
    /// `None` for unknown files.
    pub fn source(&self, name: &str) -> Option<&str> {
        self.file_index
            .get(name)
            .map(|&ordinal| self.files.get(ordinal).source.as_str())
    }

    /// Counters and timings accumulated since the workspace was created.
    pub fn stats(&self) -> &WorkspaceStats {
        &self.totals
    }

    /// Counters and timings of the most recent [`check`](Self::check)
    /// round only.
    pub fn last_round(&self) -> &WorkspaceStats {
        &self.last
    }

    /// Runs one verification round over the current file set, reusing
    /// every cached artifact whose fingerprints still match.
    ///
    /// # Errors
    ///
    /// Returns the first parse failure in project order. Parse results
    /// (including failures) are cached, so an unchanged broken file fails
    /// again without re-parsing.
    pub fn check(&mut self) -> Result<Checked, CheckError> {
        let mut round = WorkspaceStats {
            rounds: 1,
            ..WorkspaceStats::default()
        };

        // Phase 1: restore or parse the dirty files whose parse is stale.
        // A file with a file record under its key is restored from it,
        // without an AST; any other is parsed. Either depends on the
        // file's own text only, so they fan out like classes do; results
        // come back in file order.
        let t = Instant::now();
        let stale: Vec<u64> = self
            .dirty
            .iter()
            .copied()
            .filter(|&ordinal| matches!(self.files.get(ordinal).parse, Parse::Stale))
            .collect();
        let recover = self.recover;
        let (files, records) = (&self.files, &self.file_records);
        let fresh = par_map(self.jobs, &stale, |&ordinal| {
            let file = files.get(ordinal);
            let record = records.get(&(file.fingerprint, recover));
            match record.and_then(|record| restore_file(record)) {
                Some(restored) => (restored, Restore::Restored),
                None if record.is_some() => (parse_file(file, recover), Restore::Rejected),
                None => (parse_file(file, recover), Restore::Parsed),
            }
        });
        for (&ordinal, (parse, how)) in stale.iter().zip(fresh) {
            let file = self.files.get_mut(ordinal);
            file.parse = parse;
            if how != Restore::Restored {
                round.files_parsed += 1;
            }
            if how == Restore::Rejected {
                // Parsed instead, and encoded afresh by the next save.
                self.file_records.remove(&(file.fingerprint, recover));
            }
        }
        round.parse_cache_hits = self.files.0.len() as u64 - round.files_parsed;
        round.parse_time = t.elapsed();
        // Only a dirty file can have failed, and the dirty set is in
        // project order.
        let first_failure = self.dirty.iter().find_map(|&ordinal| {
            let file = self.files.get(ordinal);
            match &file.parse {
                Parse::Failed(error) => Some(CheckError {
                    file: file.name.clone(),
                    error: (**error).clone(),
                }),
                _ => None,
            }
        });
        if let Some(failure) = first_failure {
            self.finish_round(round);
            return Err(failure);
        }

        // Phase 2: merge the dirty and removed files into the class table,
        // and find the names that got a new winner.
        let touched = self.register_files();
        let changed = self.settle_winners(&touched);

        // Phase 3: extraction + spec validation for the new winners whose
        // fingerprint is new; their slots replace the old ones.
        let t = Instant::now();
        let mut retired_keys = RetiredKeys::default();
        let winners: Vec<(&Name, Pos)> = changed
            .iter()
            .filter_map(|name| Some((name, *self.definitions.get(name)?.last()?)))
            .collect();
        // A new winner's products come from the extraction cache, else
        // from its file record, else from extracting it.
        let mut entries: Vec<Option<Arc<ExtractEntry>>> = winners
            .iter()
            .map(|&(_, pos)| {
                let unit = self.files.unit(pos);
                let cached = self.extract_cache.get(&unit.fingerprint);
                cached.or(unit.restored.as_ref()).cloned()
            })
            .collect();
        let missing: Vec<usize> = (0..winners.len())
            .filter(|&i| entries[i].is_none())
            .collect();
        round.extracted = missing.len() as u64;
        let lazy = self.load_asts(missing.iter().map(|&i| winners[i].1), &mut round);
        let files = &self.files;
        let fresh = par_map(self.jobs, &missing, |&i| {
            Arc::new(run_extract(files.unit(winners[i].1)))
        });
        for (&i, entry) in missing.iter().zip(fresh) {
            entries[i] = Some(entry);
        }
        let winners: Vec<(&Name, Pos, u64, Arc<ExtractEntry>)> = winners
            .into_iter()
            .zip(entries)
            .map(|((name, pos), entry)| {
                let entry = entry.expect("every new winner was extracted");
                let fingerprint = self.files.unit(pos).fingerprint;
                self.extract_cache.insert(fingerprint, entry.clone());
                (name, pos, fingerprint, entry)
            })
            .collect();
        for name in &changed {
            if let Some(old) = self.slots.remove(name) {
                self.retire_slot(name, old, &mut retired_keys);
            }
        }
        self.slots.reserve(winners.len());
        // The classes whose report runs this round replaces, by position.
        let mut rerun: Vec<(Pos, Name)> = Vec::with_capacity(winners.len());
        for (name, pos, fingerprint, extract) in winners {
            if let Some(x) = &extract.extraction {
                self.spec_index
                    .insert(name.to_string(), SpecEntry::new(x.spec.clone()));
                for dep in x.dependencies() {
                    match self.dependents.get_mut(dep) {
                        Some(dependents) => {
                            if let Err(i) = dependents.binary_search(name) {
                                dependents.insert(i, name.clone());
                            }
                        }
                        None => {
                            self.dependents.insert(Name::from(dep), vec![name.clone()]);
                        }
                    }
                }
            } else {
                // No later stage reads the AST of a class without `@sys`;
                // should the class win again after its entry is dropped,
                // `load_asts` parses its file anew.
                self.files.unit_mut(pos).solo = None;
            }
            self.slots.insert(
                name.clone(),
                ClassSlot {
                    pos,
                    fingerprint,
                    extract,
                    dep_fingerprint: fingerprint,
                    verify: None,
                    run: Box::default(),
                },
            );
            rerun.push((pos, name.clone()));
        }
        round.extract_cache_hits = (self.slots.len() - missing.len()) as u64;
        round.extract_time = t.elapsed() - lazy;

        // Phase 4: dependency fingerprints of the new `@sys` winners and
        // of every class that instantiates a changed name; each whose key
        // moved is looked up in the verify cache.
        let t = Instant::now();
        let mut rekey: Vec<&Name> = Vec::new();
        for name in &changed {
            if self
                .slots
                .get(name)
                .is_some_and(|s| s.extract.extraction.is_some())
            {
                rekey.push(name);
            }
            if let Some(dependents) = self.dependents.get(name) {
                rekey.extend(dependents);
            }
        }
        let mut missing: Vec<Name> = Vec::new();
        rekey.sort_unstable();
        rekey.dedup();
        for &name in &rekey {
            let slot = &self.slots[name];
            let x = slot
                .extract
                .extraction
                .as_ref()
                .expect("only @sys classes are keyed by their dependencies");
            let dep_fingerprint = dependency_fingerprint(slot.fingerprint, x, &self.slots);
            if slot.verify_key() == Some((slot.fingerprint, dep_fingerprint)) {
                continue;
            }
            let slot = self.slots.get_mut(name).expect("rekeyed classes are live");
            if let Some(key) = slot.verify_key() {
                self.report.leave(slot.pos);
                self.report.remove(&slot.run);
                retired_keys.verify.push((name.clone(), key));
                rerun.push((slot.pos, name.clone()));
            }
            slot.dep_fingerprint = dep_fingerprint;
            slot.verify = self
                .verify_cache
                .get(&(slot.fingerprint, dep_fingerprint))
                .cloned();
            if slot.verify.is_none() {
                missing.push(name.clone());
            }
        }
        round.verified = missing.len() as u64;
        round.verify_cache_hits = (self.spec_index.len() - missing.len()) as u64;
        #[cfg(test)]
        SLOTS_VISITED.with(|n| {
            let rekeyed_only = rekey
                .iter()
                .filter(|name| touched.binary_search(name).is_err());
            n.set(n.get() + touched.len() + rekeyed_only.count());
        });

        // Phase 5: resolution + lints + verification for the classes whose
        // key missed. The lints read the AST, so a class the disk cache
        // cannot answer needs its file parsed.
        let need_ast: Vec<Pos> = missing
            .iter()
            .map(|name| &self.slots[name])
            .filter(|slot| {
                !self
                    .disk_cache
                    .contains_key(&(slot.fingerprint, slot.dep_fingerprint))
            })
            .map(|slot| slot.pos)
            .collect();
        let lazy = self.load_asts(need_ast, &mut round);
        let disk_cache = &self.disk_cache;
        let spec_index = &self.spec_index;
        let slots = &self.slots;
        let files = &self.files;
        let fresh = par_map(self.jobs, &missing, |name| {
            let slot = &slots[name];
            let extraction = slot
                .extract
                .extraction
                .clone()
                .expect("verify stage only runs for @sys classes");
            match disk_cache.get(&(slot.fingerprint, slot.dep_fingerprint)) {
                Some(saved) => (
                    Arc::new(run_verify_restored(extraction, spec_index, saved)),
                    true,
                ),
                None => {
                    let solo = files.unit(slot.pos).solo();
                    (Arc::new(run_verify(extraction, solo, spec_index)), false)
                }
            }
        });
        for (name, (entry, from_disk)) in missing.iter().zip(fresh) {
            round.fast_path_proven += entry.verdict.fast_path_skips as u64;
            round.antichain_frontier += entry.verdict.antichain_frontier;
            round.antichain_pruned += entry.verdict.antichain_pruned;
            round.verify_disk_hits += u64::from(from_disk);
            let slot = self.slots.get_mut(name).expect("verified classes are live");
            self.verify_cache
                .insert((slot.fingerprint, slot.dep_fingerprint), entry.clone());
            slot.verify = Some(entry);
        }
        round.verify_time = t.elapsed() - lazy;

        // Phase 6: merge the new runs into the kept report, and drop the
        // cache entries no live class uses any more.
        let t = Instant::now();
        rerun.sort_unstable();
        let (slots, config) = (&mut self.slots, &self.config);
        let kept = KeptViolations::of(config);
        self.report.finish(rerun.iter().map(|(pos, name)| {
            let slot = slots.get_mut(name).expect("re-run classes are live");
            slot.run = class_run(config, &slot.extract, slot.verify.as_deref()).into();
            (*pos, class_runs(kept, slot))
        }));
        self.drop_retired_keys(retired_keys);
        let checked = self.report.checked().clone();
        round.assemble_time = t.elapsed();

        #[cfg(debug_assertions)]
        self.assert_matches_reference();
        self.finish_round(round);
        Ok(checked)
    }

    /// Merges the removed and the dirty files into the class table.
    /// Classes a re-parsed file still defines at the same offset with the
    /// same fingerprint are left alone. Returns the names whose
    /// definitions changed, sorted.
    fn register_files(&mut self) -> Vec<Name> {
        let incoming: usize = self
            .dirty
            .iter()
            .map(|&ordinal| match &self.files.get(ordinal).parse {
                Parse::Pending(pending) => pending.0.len(),
                _ => 0,
            })
            .sum();
        self.definitions.reserve(incoming);
        let mut touched = Vec::with_capacity(incoming);
        for file in std::mem::take(&mut self.retired) {
            for unit in file.registered {
                undefine(
                    &mut self.definitions,
                    (file.ordinal, unit.start),
                    &unit.name,
                );
                touched.push(unit.name);
            }
            self.report.remove(&applied(&self.config, &file.degraded));
        }
        for ordinal in std::mem::take(&mut self.dirty) {
            let file = self.files.get_mut(ordinal);
            let Parse::Pending(pending) = std::mem::replace(&mut file.parse, Parse::Registered)
            else {
                unreachable!("a round that reaches the class table parsed every dirty file");
            };
            let (units, degraded) = *pending;
            let mut old = std::mem::take(&mut file.registered).into_iter().peekable();
            let mut kept = Vec::with_capacity(units.len());
            for unit in units {
                while let Some(gone) = old.next_if(|o| o.start < unit.start) {
                    undefine(&mut self.definitions, (ordinal, gone.start), &gone.name);
                    touched.push(gone.name);
                }
                match old.next_if(|o| o.start == unit.start) {
                    Some(same) if same.fingerprint == unit.fingerprint => {
                        // The same class: whichever of the two has an AST
                        // or restored products keeps them, unless its AST
                        // is unread.
                        let unread = ast_unread(&self.slots, (ordinal, same.start), &same);
                        kept.push(ClassUnit {
                            solo: if unread {
                                None
                            } else {
                                unit.solo.or(same.solo)
                            },
                            restored: unit.restored.or(same.restored),
                            ..same
                        });
                        continue;
                    }
                    Some(gone) => {
                        undefine(&mut self.definitions, (ordinal, gone.start), &gone.name);
                        touched.push(gone.name);
                    }
                    None => {}
                }
                let defs = self.definitions.entry(unit.name.clone()).or_default();
                let pos = (ordinal, unit.start);
                defs.insert(defs.partition_point(|p| *p < pos), pos);
                touched.push(unit.name.clone());
                kept.push(unit);
            }
            for gone in old {
                undefine(&mut self.definitions, (ordinal, gone.start), &gone.name);
                touched.push(gone.name);
            }
            file.registered = kept;
            if file.degraded != degraded {
                self.report.remove(&applied(&self.config, &file.degraded));
                self.report.add(&applied(&self.config, &degraded));
                file.degraded = degraded;
            }
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// Re-reports the shadowed definitions of every touched name and
    /// returns the names whose winner changed: it appeared, disappeared,
    /// moved, or has a new fingerprint.
    fn settle_winners(&mut self, touched: &[Name]) -> Vec<Name> {
        let mut changed = Vec::new();
        for name in touched {
            let defs = self.definitions.get(name).map_or(&[][..], Vec::as_slice);
            let old = self.shadowed.get(name).map_or(&[][..], Vec::as_slice);
            // A name defined at most once, and not shadowed before, has no
            // E004 run before or after.
            let shadowed = if defs.len() > 1 || !old.is_empty() {
                applied(&self.config, &shadow_diags(name, defs, &self.files))
            } else {
                Vec::new()
            };
            if shadowed != old {
                self.report.remove(old);
                self.report.add(&shadowed);
                if shadowed.is_empty() {
                    self.shadowed.remove(name);
                } else {
                    self.shadowed.insert(name.clone(), shadowed);
                }
            }
            let winner = defs
                .last()
                .map(|&pos| (pos, self.files.unit(pos).fingerprint));
            if defs.is_empty() {
                self.definitions.remove(name);
            }
            if winner != self.slots.get(name).map(|s| (s.pos, s.fingerprint)) {
                changed.push(name.clone());
            }
        }
        changed
    }

    /// Parses the files of the classes at `positions` whose units were
    /// restored without an AST, and gives every unit of those files its
    /// single-class module. A lazily parsed file counts in
    /// [`WorkspaceStats::files_parsed`] and its time in
    /// [`WorkspaceStats::parse_time`]; returns that time, which the
    /// calling phase leaves out of its own.
    fn load_asts(
        &mut self,
        positions: impl IntoIterator<Item = Pos>,
        round: &mut WorkspaceStats,
    ) -> Duration {
        let mut ordinals: Vec<u64> = positions
            .into_iter()
            .filter(|&pos| self.files.unit(pos).solo.is_none())
            .map(|(ordinal, _)| ordinal)
            .collect();
        if ordinals.is_empty() {
            return Duration::ZERO;
        }
        let t = Instant::now();
        ordinals.sort_unstable();
        ordinals.dedup();
        let (files, recover) = (&self.files, self.recover);
        let parsed = par_map(self.jobs, &ordinals, |&ordinal| {
            let file = files.get(ordinal);
            let module = if recover {
                parse_module_recover(&file.source)
            } else {
                parse_module(&file.source)
                    .expect("a restored file's text parsed when its record was written")
            };
            class_units(file, recover, &module)
        });
        for (&ordinal, units) in ordinals.iter().zip(parsed) {
            let registered = &mut self.files.get_mut(ordinal).registered;
            debug_assert!(
                registered.len() == units.len()
                    && registered.iter().zip(&units).all(|(r, u)| {
                        (&r.name, r.start, r.fingerprint) == (&u.name, u.start, u.fingerprint)
                    }),
                "a lazily parsed file has the classes its record restored"
            );
            for (unit, parsed) in registered.iter_mut().zip(units) {
                if !ast_unread(&self.slots, (ordinal, unit.start), unit) {
                    unit.solo = parsed.solo;
                }
            }
        }
        let n = ordinals.len() as u64;
        round.files_parsed += n;
        round.parse_cache_hits -= n;
        let elapsed = t.elapsed();
        round.parse_time += elapsed;
        elapsed
    }

    /// Takes a replaced slot out of the spec index, the dependents index
    /// and the report; its cache keys are dropped at the end of the round
    /// unless a live class uses them again.
    fn retire_slot(&mut self, name: &Name, old: ClassSlot, retired: &mut RetiredKeys) {
        self.report.leave(old.pos);
        self.report.remove(&old.run);
        retired.extract.push((name.clone(), old.fingerprint));
        if let Some(key) = old.verify_key() {
            retired.verify.push((name.clone(), key));
        }
        if let Some(x) = &old.extract.extraction {
            self.spec_index.remove(&**name);
            for dep in x.dependencies() {
                if let Some(dependents) = self.dependents.get_mut(dep) {
                    if let Ok(i) = dependents.binary_search(name) {
                        dependents.remove(i);
                    }
                    if dependents.is_empty() {
                        self.dependents.remove(dep);
                    }
                }
            }
        }
    }

    /// Drops the cache entries of retired keys no live class uses: the
    /// caches hold exactly the live classes' keys after every round.
    fn drop_retired_keys(&mut self, retired: RetiredKeys) {
        for (name, fingerprint) in retired.extract {
            if self.slots.get(&name).map(|s| s.fingerprint) != Some(fingerprint) {
                self.extract_cache.remove(&fingerprint);
            }
        }
        for (name, key) in retired.verify {
            if self.slots.get(&name).and_then(ClassSlot::verify_key) != Some(key) {
                self.verify_cache.remove(&key);
                self.stats_cache.remove(&key);
            }
        }
    }

    /// The statistics of a verified class, cached per class fingerprint.
    ///
    /// Statistics determinize and minimize the class's spec language —
    /// export-grade work that used to be recomputed on every call. The
    /// workspace computes them at most once per `(class, dependencies)`
    /// fingerprint pair; unchanged classes hit the cache across rounds and
    /// repeated queries. Returns `None` before the first
    /// [`check`](Self::check) round, or for names that are not `@sys`
    /// classes of the current file set.
    ///
    /// Hit/miss counts accumulate in [`stats`](Self::stats) as
    /// [`WorkspaceStats::stats_cache_hits`] /
    /// [`WorkspaceStats::stats_computed`].
    pub fn class_stats(&mut self, class: &str) -> Option<Arc<SystemStats>> {
        let slot = self.slots.get(class)?;
        let key = slot.verify_key()?;
        if let Some(stats) = self.stats_cache.get(&key) {
            self.totals.stats_cache_hits += 1;
            return Some(stats.clone());
        }
        let stats = Arc::new(system_stats(&slot.verify.as_ref()?.system));
        self.totals.stats_computed += 1;
        self.stats_cache.insert(key, stats.clone());
        Some(stats)
    }

    /// Seeds the workspace from a persistent cache file written by
    /// [`save_disk_cache`](Self::save_disk_cache). Subsequent
    /// [`check`](Self::check) rounds restore matching files from their
    /// file records instead of parsing them (see the
    /// [module docs](self)), and matching classes instead of re-running
    /// the expensive analyses, counting each restore in
    /// [`WorkspaceStats::verify_disk_hits`].
    ///
    /// Loading never fails: corrupt or version-mismatched files degrade
    /// to a smaller (possibly empty) cache — see [`crate::persist`].
    pub fn load_disk_cache(&mut self, path: impl AsRef<std::path::Path>) -> persist::LoadOutcome {
        let outcome = persist::load_on(path.as_ref(), self.jobs);
        for (key, saved) in &outcome.entries {
            self.disk_cache.insert(*key, saved.clone());
        }
        for (key, record) in &outcome.files {
            self.file_records.insert(*key, record.clone());
        }
        outcome
    }

    /// Atomically persists the verify-stage products of every class of
    /// the last completed round, and one file record for every file it
    /// registered, so a future process can
    /// [`load_disk_cache`](Self::load_disk_cache) them. Returns the
    /// number of verify records written.
    pub fn save_disk_cache(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<usize> {
        /// One record to write.
        enum Item<'a> {
            Verify((u64, u64), &'a VerifyEntry),
            File(&'a FileState),
        }
        let verify = self
            .verify_cache
            .iter()
            .map(|(&key, entry)| Item::Verify(key, entry));
        // A dirty file's registered classes are not those of its text.
        let files = self
            .files
            .0
            .iter()
            .filter(|f| !self.dirty.contains(&f.ordinal))
            .map(Item::File);
        let items: Vec<Item> = verify.chain(files).collect();
        // The records are independent, so chunks of them are written on
        // the pool and committed in order.
        let chunks: Vec<&[Item]> = items
            .chunks(items.len().div_ceil(self.jobs * 4).max(1))
            .collect();
        let written = par_map(self.jobs, &chunks, |chunk| {
            let mut lines = RecordLines::default();
            for item in *chunk {
                match *item {
                    Item::Verify(key, entry) => lines.verify(
                        key,
                        &SavedVerify {
                            lint_diags: entry.lint_diags.clone(),
                            verdict_diags: entry.verdict.diagnostics.clone(),
                            usage_violations: entry.verdict.usage_violations.clone(),
                            claim_violations: entry.verdict.claim_violations.clone(),
                            fast_path_skips: entry.verdict.fast_path_skips,
                        },
                    ),
                    Item::File(file) => self.file_record(file, &mut lines),
                }
            }
            lines
        });
        persist::commit(path.as_ref(), written)
    }

    /// Writes the file record of a registered file: the loaded record it
    /// was restored from, unchanged, or else a fresh encoding with the
    /// extraction products of its winning definitions.
    fn file_record(&self, file: &FileState, lines: &mut RecordLines) {
        let key = (file.fingerprint, self.recover);
        if let Some(record) = self.file_records.get(&key) {
            lines.saved_file(key, record);
            return;
        }
        lines.file(key, |out| {
            let units = file.registered.iter().map(|unit| {
                let slot = self.slots.get(&unit.name);
                let winner = slot.filter(|s| s.pos == (file.ordinal, unit.start));
                let entry = winner.map(|s| &*s.extract);
                (&*unit.name, unit.start, unit.fingerprint, entry)
            });
            persist::encode_file(out, &file.degraded, units);
        });
    }

    fn finish_round(&mut self, round: WorkspaceStats) {
        self.totals.absorb(&round);
        self.last = round;
    }
}

/// One `W014` per construct recovery mode degraded to `skip` in the file
/// `name`: the model claims nothing about the skipped region, so every
/// downstream verdict is conditional on the region being irrelevant to the
/// protocol.
fn degraded_diags(name: &str, module: &Module) -> Diagnostics {
    let mut out = Diagnostics::new();
    for d in collect_degraded(module) {
        out.push(
            Diagnostic::warning(
                codes::CONSTRUCT_DEGRADED,
                format!("construct degraded to `skip`: {}", d.reason),
            )
            .with_file(name)
            .with_span(d.span)
            .with_note(
                "the model treats this region as doing nothing; verification \
                 results do not cover it",
            ),
        );
    }
    out
}

/// Cache keys of slots a round replaced, dropped at its end unless a live
/// class uses them again.
#[derive(Default)]
struct RetiredKeys {
    extract: Vec<(Name, u64)>,
    verify: Vec<(Name, (u64, u64))>,
}

#[cfg(test)]
thread_local! {
    /// Class slots [`Workspace::check`] visited on this thread: the
    /// counter behind the O(edit) work gate.
    static SLOTS_VISITED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many class slots the rounds on the calling thread have visited so
/// far. A round visits a class's slot when it patches its class-table
/// entry, recomputes its dependency key, or replaces its report run; each
/// class counts once per round, however many of these it needed.
#[cfg(test)]
pub(crate) fn slots_visited() -> usize {
    SLOTS_VISITED.with(std::cell::Cell::get)
}

/// How phase 1 brought a stale file up to date.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Restore {
    /// From its file record.
    Restored,
    /// Parsed: it had no file record.
    Parsed,
    /// Parsed because its file record did not decode.
    Rejected,
}

/// The class units of a file as its record holds them, without ASTs;
/// `None` if the record does not decode, or lists its classes out of
/// source order.
fn restore_file(record: &FileRecord) -> Option<Parse> {
    let saved = record.decode()?;
    if !saved.units.windows(2).all(|w| w[0].start < w[1].start) {
        return None;
    }
    let units = saved
        .units
        .into_iter()
        .map(|unit| ClassUnit {
            name: Name::from(unit.name),
            start: unit.start,
            fingerprint: unit.fingerprint,
            solo: None,
            restored: unit.extract.map(Arc::new),
        })
        .collect();
    Some(Parse::Pending(Box::new((units, saved.degraded))))
}

/// Parses one file under the given grammar into its class units.
fn parse_file(file: &FileState, recover: bool) -> Parse {
    let parsed = if recover {
        let module = parse_module_recover(&file.source);
        (
            class_units(file, recover, &module),
            degraded_diags(&file.name, &module),
        )
    } else {
        match parse_module(&file.source) {
            Ok(module) => (class_units(file, recover, &module), Diagnostics::new()),
            Err(error) => return Parse::Failed(Box::new(error)),
        }
    };
    Parse::Pending(Box::new(parsed))
}

/// Removes the definition at `pos` of the class `name` from the table.
fn undefine(definitions: &mut HashMap<Name, Vec<Pos>>, pos: Pos, name: &str) {
    let defs = definitions
        .get_mut(name)
        .expect("a registered class is defined");
    let i = defs
        .binary_search(&pos)
        .expect("a registered class is defined at its position");
    defs.remove(i);
}

/// One `E004` per shadowed definition of `name`: every definition but
/// the last, which wins.
fn shadow_diags(name: &str, defs: &[Pos], files: &Files) -> Diagnostics {
    let mut out = Diagnostics::new();
    let Some(((winner, _), shadowed)) = defs.split_last() else {
        return out;
    };
    let winner_file = &files.get(*winner).name;
    for &(ordinal, _) in shadowed {
        out.push(duplicate_diag(name, &files.get(ordinal).name, winner_file));
    }
    out
}

/// The `E004` reporting that the definition of `name` in `file` is
/// shadowed by the one in `winner_file`.
fn duplicate_diag(name: &str, file: &str, winner_file: &str) -> Diagnostic {
    let message = if file == winner_file {
        format!(
            "class `{name}` defined more than once in {file}; the later \
             definition is used"
        )
    } else {
        format!(
            "class `{name}` defined in both {file} and {winner_file}; the \
             definition in {winner_file} is used"
        )
    };
    Diagnostic::error(codes::BAD_ANNOTATION, message)
}

/// A run of diagnostics as the report holds it: config applied, sorted
/// and deduplicated.
fn applied(config: &LintConfig, diagnostics: &Diagnostics) -> Vec<Diagnostic> {
    if diagnostics.is_empty() {
        return Vec::new();
    }
    let mut run = diagnostics.clone();
    config.apply(&mut run);
    run.into_iter().collect()
}

/// The diagnostics run of one class: every stage's findings, config
/// applied.
fn class_run(
    config: &LintConfig,
    extract: &ExtractEntry,
    verify: Option<&VerifyEntry>,
) -> Vec<Diagnostic> {
    let mut run = Diagnostics::new();
    run.extend(extract.extract_diags.clone());
    run.extend(extract.validate_diags.clone());
    if let Some(entry) = verify {
        run.extend(entry.resolve_diags.clone());
        run.extend(entry.lint_diags.clone());
        run.extend(entry.verdict.diagnostics.clone());
    }
    applied(config, &run)
}

/// Which violation lists the report keeps: those of the codes the config
/// denies, since [`LintConfig::apply`] demotes or drops the diagnostics
/// of the others.
#[derive(Clone, Copy)]
struct KeptViolations {
    usage: bool,
    claims: bool,
}

impl KeptViolations {
    fn of(config: &LintConfig) -> Self {
        KeptViolations {
            usage: config.level(codes::INVALID_SUBSYSTEM_USAGE) == LintLevel::Deny,
            claims: config.level(codes::FAIL_TO_MEET_REQUIREMENT) == LintLevel::Deny,
        }
    }
}

/// The report runs of one class: its diagnostics run and, for a verified
/// class, its positional runs.
fn class_runs(kept: KeptViolations, slot: &ClassSlot) -> ClassRuns {
    let diagnostics = slot.run.to_vec();
    let Some(entry) = &slot.verify else {
        return ClassRuns {
            diagnostics,
            ..ClassRuns::default()
        };
    };
    let name = &entry.system.name;
    ClassRuns {
        diagnostics,
        system: Some(entry.system.clone()),
        usage: if kept.usage {
            entry
                .verdict
                .usage_violations
                .iter()
                .map(|v| (name.clone(), v.clone()))
                .collect()
        } else {
            Vec::new()
        },
        claims: if kept.claims {
            entry
                .verdict
                .claim_violations
                .iter()
                .map(|v| (name.clone(), v.clone()))
                .collect()
        } else {
            Vec::new()
        },
    }
}

/// The dependency fingerprint of a `@sys` class: its own fingerprint
/// combined with the name and winning fingerprint of every class it
/// instantiates (`u64::MAX` for an undefined one).
fn dependency_fingerprint(
    fingerprint: u64,
    extraction: &ClassExtraction,
    slots: &HashMap<Name, ClassSlot>,
) -> u64 {
    let mut hash = Fnv1a::new();
    hash.part(&fingerprint.to_le_bytes());
    for dep in extraction.dependencies() {
        let dep_fp = slots.get(dep).map_or(u64::MAX, |s| s.fingerprint);
        hash.part(dep.as_bytes());
        hash.part(&dep_fp.to_le_bytes());
    }
    hash.finish()
}

/// Splits a file's parsed module into per-class units.
///
/// A class's fingerprint is FNV-1a over the file name, the class's start
/// offset, the recovery-mode bit, and the class's own source bytes
/// (`source[class.span]`, from the first decorator to the end of the last
/// body statement). The class's AST — spans included — is a function of
/// exactly these, so its cached products are too: an edit inside the
/// class (a comment or blank line too) changes the bytes, and an edit
/// before it that shifts it changes the offset.
///
/// Each class is cloned, not moved, into its solo module: the clone is
/// allocated to exact capacity, while a moved class keeps the parser's
/// spare `Vec` capacity alive for as long as the unit is cached (moving
/// raised the peak RSS of a cold 1000-class `shelleyc check` from 20.5 to
/// 23.3 MiB).
fn class_units(file: &FileState, recover: bool, module: &Module) -> Vec<ClassUnit> {
    module
        .classes()
        .map(|class| ClassUnit {
            name: Name::from(class.name.node.as_str()),
            start: class.span.start,
            fingerprint: fnv1a(&[
                file.name.as_bytes(),
                &class.span.start.to_le_bytes(),
                &[u8::from(recover)],
                &file.source.as_bytes()[class.span.start..class.span.end],
            ]),
            solo: Some(Arc::new(Module {
                body: vec![Stmt::ClassDef(class.clone())],
            })),
            restored: None,
        })
        .collect()
}

/// The extraction stage of one class: pass 1 plus spec validation.
fn run_extract(unit: &ClassUnit) -> ExtractEntry {
    let class = unit
        .solo()
        .classes()
        .next()
        .expect("solo modules hold exactly one class");
    let mut extract_diags = Diagnostics::new();
    let extraction = extract_class(class, &mut extract_diags);
    let mut validate_diags = Diagnostics::new();
    if let Some(x) = &extraction {
        validate_spec(&x.spec, &mut validate_diags);
    }
    ExtractEntry {
        extraction,
        extract_diags,
        validate_diags,
    }
}

/// The verification stage of one class: resolution against the subsystem
/// specs, the per-class lint passes, and usage/claim verification. The
/// typestate lint and the inclusion fast path share one analysis.
fn run_verify(
    extraction: ClassExtraction,
    solo: &Module,
    spec_index: &BTreeMap<String, SpecEntry>,
) -> VerifyEntry {
    let mut resolve_diags = Diagnostics::new();
    let system = Arc::new(resolve_class_with(
        extraction,
        |name| spec_index.get(name).map(|entry| &entry.spec),
        &mut resolve_diags,
    ));

    // Usage verification and the typestate lints read the *specs* of the
    // subsystems, never their resolved systems, so spec-only stand-ins
    // (shared through the spec index) keep the stage independent of every
    // other class's resolution. The other lint passes only inspect the
    // class under analysis (the scope's one class present in `solo`), so
    // the widened scope still reproduces the module-level run exactly.
    let mut verify_scope: Vec<Arc<System>> = vec![system.clone()];
    if let SystemKind::Composite(info) = &system.kind {
        for sub in &info.subsystems {
            if verify_scope.iter().any(|s| s.name == sub.class_name) {
                continue;
            }
            if let Some(entry) = spec_index.get(&sub.class_name) {
                verify_scope.push(entry.stand_in());
            }
        }
    }
    let verify_scope: SystemSet = verify_scope.into_iter().collect();

    let mut lint_diags = Diagnostics::new();
    let ctx = LintContext {
        module: solo,
        systems: &verify_scope,
    };
    // Every system in scope is a live `@sys` class, so its DFA is taken
    // from (and built at most once into) its spec-index entry.
    let dfa_of = |dep: &System| spec_index[&dep.name].dfa();
    let proven = lint_class(&ctx, &system, &dfa_of, &mut lint_diags);
    let verdict = verify_system(&system, &verify_scope, &proven);

    VerifyEntry {
        system,
        verdict,
        resolve_diags,
        lint_diags,
    }
}

/// The verification stage restored from an on-disk cache hit: re-runs
/// only the cheap, deterministic resolution and replays the persisted
/// results of the expensive analyses — lints, the typestate fast-path
/// proof, the integration automaton, usage inclusion, and claim checking
/// all stay skipped.
///
/// Soundness rests on the cache key: the `(class fingerprint, dependency
/// fingerprint)` pair covers every input those analyses read, so a hit
/// means the persisted products are exactly what a fresh run would
/// compute.
fn run_verify_restored(
    extraction: ClassExtraction,
    spec_index: &BTreeMap<String, SpecEntry>,
    saved: &SavedVerify,
) -> VerifyEntry {
    let mut resolve_diags = Diagnostics::new();
    let system = resolve_class_with(
        extraction,
        |name| spec_index.get(name).map(|entry| &entry.spec),
        &mut resolve_diags,
    );
    VerifyEntry {
        system: Arc::new(system),
        verdict: SystemVerdict {
            diagnostics: saved.verdict_diags.clone(),
            usage_violations: saved.usage_violations.clone(),
            claim_violations: saved.claim_violations.clone(),
            fast_path_skips: saved.fast_path_skips,
            // Restored rounds run no inclusion search, so they report no
            // antichain work — the counters measure what this round did.
            antichain_frontier: 0,
            antichain_pruned: 0,
        },
        resolve_diags,
        lint_diags: saved.lint_diags.clone(),
    }
}

/// Maps `f` over `items` on a scoped worker pool of at most `jobs`
/// threads, returning results in input order. `jobs <= 1` (or a single
/// item) runs inline on the calling thread.
///
/// The calling thread is one of the workers. Besides sparing a spawn,
/// that leaves part of a cold round's long-lived products in the
/// caller's allocator arena, which a daemon's later inline single-item
/// rounds allocate from: with glibc's per-thread arenas and only spawned
/// workers, the freed cold-round products left holes nothing reused, and
/// the daemon's resident set grew faster under edits.
pub(crate) fn par_map<T: Sync, R: Send>(
    jobs: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= items.len() {
            break;
        }
        let result = f(&items[i]);
        *slots[i].lock().expect("worker result slot poisoned") = Some(result);
    };
    std::thread::scope(|scope| {
        for _ in 1..jobs.min(items.len()) {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker result slot poisoned")
                .expect("every index was claimed by exactly one worker")
        })
        .collect()
}

/// FNV-1a over a sequence of byte slices — a stable, dependency-free
/// content fingerprint. The fingerprints are the keys of the on-disk
/// verify cache ([`crate::persist`]), so they must stay bit-identical
/// across versions, and a collision would make any later process that
/// loads the cache reuse another class's verdict. At project scale
/// collisions are astronomically unlikely.
pub(crate) fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut hash = Fnv1a::new();
    for part in parts {
        hash.part(part);
    }
    hash.finish()
}

/// The streaming form of [`fnv1a`]: feeding parts one by one hashes the
/// same bytes without collecting them first.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes one part, length-prefixed so concatenation ambiguity cannot
    /// alias two different part sequences.
    fn part(&mut self, part: &[u8]) {
        for &b in (part.len() as u64).to_le_bytes().iter().chain(part) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dataflow::typestate::analyses_run;

    /// A `Valve` plus `n` composites using it; odd-numbered ones call
    /// `close` right after `test`, which the protocol forbids, so both
    /// fast-path outcomes occur.
    pub(crate) fn composites_project(n: usize) -> String {
        let mut src = String::from(
            "@sys\nclass Valve:\n    @op_initial\n    def test(self):\n        \
             return [\"open\", \"clean\"]\n\n    @op\n    def open(self):\n        \
             return [\"close\"]\n\n    @op_final\n    def close(self):\n        \
             return []\n\n    @op_final\n    def clean(self):\n        return []\n",
        );
        for i in 0..n {
            let last = if i.is_multiple_of(2) {
                "clean"
            } else {
                "close"
            };
            src.push_str(&format!(
                "\n@sys([\"a\"])\nclass User{i}:\n    def __init__(self):\n        \
                 self.a = Valve()\n\n    @op_initial_final\n    def run(self):\n        \
                 self.a.test()\n        self.a.{last}()\n        return []\n"
            ));
        }
        src
    }

    /// Work-count gate: a cold round analyses each composite class once,
    /// for the typestate lint and the inclusion fast path together,
    /// builds one graph per method of each `@sys` class for every pass
    /// (`Valve`'s 4, each user's `__init__` and `run`), and solves each
    /// user's one operation once for its one field — at most one solve
    /// per (method, field), and none for `__init__`, which nothing asks a
    /// summary of. A warm round does none of it.
    #[test]
    fn one_analysis_per_composite_class_in_a_cold_workspace_round() {
        use crate::dataflow::solves_run;
        use crate::extract::cfg::cfgs_built;

        let counts = || (analyses_run(), cfgs_built(), solves_run());
        let mut ws = Workspace::with_config(LintConfig::default(), 1);
        ws.set_file("a.py", composites_project(6));
        let before = counts();
        let checked = ws.check().unwrap();
        let composites = checked.systems.iter().filter(|s| s.is_composite()).count();
        assert_eq!(composites, 6);
        assert_eq!(ws.last_round().fast_path_proven, 3);
        let after = counts();
        assert_eq!(
            (after.0 - before.0, after.1 - before.1, after.2 - before.2),
            (composites, 4 + 2 * composites, composites)
        );

        ws.check().unwrap();
        assert_eq!(counts(), after);
    }

    /// Work-count gate: every dependency DFA is built once per spec-index
    /// entry. `serve_project(1000)` has 50 devices shared by 950 apps, so
    /// a cold round builds 50 DFAs (one per app, 950, without the index);
    /// re-specifying one device rebuilds its DFA alone, for the apps that
    /// use it.
    #[test]
    fn one_analysis_builds_each_dependency_dfa_once() {
        use crate::dataflow::typestate::dfas_built;

        let mut ws = Workspace::with_config(LintConfig::default(), 1);
        let files = shelley_bench::serve_project(1000);
        for (name, source) in &files {
            ws.set_file(name, source.clone());
        }
        let before = dfas_built();
        let checked = ws.check().unwrap();
        assert_eq!(
            checked.systems.iter().filter(|s| s.is_composite()).count(),
            950
        );
        assert_eq!(dfas_built() - before, 50);

        let (name, source) = &files[0];
        ws.set_file(
            name,
            source.replace("return [\"stop\"]", "return [\"stop\", \"work\"]"),
        );
        let before = dfas_built();
        ws.check().unwrap();
        assert_eq!(ws.last_round().verified, 1 + 19);
        assert_eq!(dfas_built() - before, 1);
    }

    /// Whether two extraction entries are equal, alphabets compared by
    /// their names in intern order.
    fn same_entry(a: &ExtractEntry, b: &ExtractEntry) -> bool {
        let same_extraction = match (&a.extraction, &b.extraction) {
            (Some(x), Some(y)) => {
                let names = |x: &ClassExtraction| -> Vec<String> {
                    x.alphabet.iter().map(|(_, n)| n.to_string()).collect()
                };
                x.name == y.name
                    && x.kind == y.kind
                    && x.claims == y.claims
                    && x.spec == y.spec
                    && x.methods == y.methods
                    && names(x) == names(y)
                    && x.declared_fields == y.declared_fields
                    && x.init_classes == y.init_classes
            }
            (None, None) => true,
            _ => false,
        };
        same_extraction
            && a.extract_diags == b.extract_diags
            && a.validate_diags == b.validate_diags
    }

    /// Checks `files` in recovery mode, saves the cache, and decodes every
    /// file record it wrote: each gives back the file's `W014` run, its
    /// units, and the extraction entry of every winning definition.
    fn assert_file_records_round_trip(files: &[(String, String)]) -> usize {
        let path = std::env::temp_dir().join(format!(
            "shelley-file-records-{}-{}.ndjson",
            std::process::id(),
            files.len()
        ));
        let mut ws = Workspace::with_config(LintConfig::default(), 2);
        ws.set_recover(true);
        for (name, text) in files {
            ws.set_file(name.clone(), text.clone());
        }
        ws.check().unwrap();
        ws.save_disk_cache(&path).unwrap();
        let outcome = persist::load(&path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(outcome.skipped_lines, 0);
        assert_eq!(outcome.files.len(), files.len());
        let mut entries = 0;
        for file in &ws.files.0 {
            let saved = outcome.files[&(file.fingerprint, true)]
                .decode()
                .unwrap_or_else(|| panic!("the record of {} decodes", file.name));
            assert_eq!(saved.degraded, file.degraded, "{}", file.name);
            assert_eq!(saved.units.len(), file.registered.len(), "{}", file.name);
            for (saved, unit) in saved.units.iter().zip(&file.registered) {
                assert_eq!(
                    (saved.name.as_str(), saved.start, saved.fingerprint),
                    (&*unit.name, unit.start, unit.fingerprint)
                );
                let slot = &ws.slots[&unit.name];
                if slot.pos == (file.ordinal, unit.start) {
                    let entry = saved.extract.as_ref().expect("a winner's entry");
                    assert!(
                        same_entry(entry, &slot.extract),
                        "{}: {entry:#?}\n!=\n{:#?}",
                        unit.name,
                        slot.extract
                    );
                    entries += 1;
                } else {
                    assert!(saved.extract.is_none(), "a shadowed definition");
                }
            }
        }
        entries
    }

    /// A file record gives back every extraction entry exactly, on the
    /// paper examples, the 1000-class serve project and the real-world
    /// corpus, all under recovery mode.
    #[test]
    fn file_record_round_trips_every_extraction() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples_py");
        let mut examples: Vec<(String, String)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read_to_string(&path).unwrap())
            })
            .collect();
        examples.sort();
        assert!(assert_file_records_round_trip(&examples) > 0);
        assert_eq!(
            assert_file_records_round_trip(&shelley_bench::serve_project(1000)),
            1000
        );
        assert!(assert_file_records_round_trip(&shelley_bench::realworld_corpus(200)) > 200);
    }

    /// Work-count gate: a round visits the class slots its edit touched
    /// and no others. A no-edit round visits none; an in-place edit of
    /// one composite visits it alone at every project size; an edit of
    /// `Valve` visits `Valve` and the `n` composites instantiating it.
    #[test]
    fn rounds_visit_the_class_slots_an_edit_touches_not_the_project() {
        for n in [100, 400] {
            let source = composites_project(n);
            let mut ws = Workspace::with_config(LintConfig::default(), 1);
            ws.set_file("a.py", source.clone());
            ws.check().unwrap();
            assert_eq!(ws.last_round().verified, 1 + n as u64);

            let before = slots_visited();
            ws.check().unwrap();
            assert_eq!(slots_visited() - before, 0, "no edit, n = {n}");
            assert_eq!(ws.last_round().verified, 0);

            // Same-length edits, so no other class of the file moves.
            let composite = source.replacen("self.a.clean()", "self.a.close()", 1);
            let before = slots_visited();
            ws.set_file("a.py", composite.clone());
            ws.check().unwrap();
            assert_eq!(slots_visited() - before, 1, "one composite, n = {n}");
            assert_eq!(ws.last_round().verified, 1);

            let valve = composite.replacen("[\"open\", \"clean\"]", "[\"clean\", \"open\"]", 1);
            assert_ne!(valve, composite);
            let before = slots_visited();
            ws.set_file("a.py", valve);
            ws.check().unwrap();
            assert_eq!(slots_visited() - before, 1 + n, "Valve, n = {n}");
            assert_eq!(ws.last_round().verified, 1 + n as u64);
        }
    }
}
