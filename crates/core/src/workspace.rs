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
//! fingerprint, a reverse index `class → the classes instantiating it`,
//! the spec index, and the report itself, built from one run per class
//! (its diagnostics with the lint config applied, its system and its
//! violations), one `W014` run per file and one `E004` run per shadowed
//! name.
//!
//! The class table is dense: every class name is interned once per
//! workspace into a dense `ClassId`, and the per-name state is kept in
//! tables indexed by it; files sit in a table indexed by their ordinal.
//! A name keeps its id for the workspace's lifetime, so the tables grow
//! with the number of distinct names the workspace has seen, never with
//! the number of rounds.
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
mod table;

use crate::checker::CheckError;
use crate::dataflow::typestate::DependencyDfa;
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
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use table::{ClassId, FxHashMap, IdMap, Name, Names};

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

/// A class's place in project order: the ordinal of its file (files are
/// numbered in the order they were added and a number is never reused, so
/// removing a file moves no other class) and the class's start offset in
/// that file.
type Pos = (u64, usize);

/// One class of one file, ready for the per-class stages. `K` names the
/// class: by its [`Name`] as parsed or restored, by its [`ClassId`] once
/// the class table registers it.
#[derive(Debug)]
struct ClassUnit<K = ClassId> {
    class: K,
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

impl ClassUnit<Name> {
    /// The unit as the class table registers it: under its name's id.
    fn register(self, names: &mut Names) -> ClassUnit {
        ClassUnit {
            class: names.intern(self.class),
            start: self.start,
            fingerprint: self.fingerprint,
            solo: self.solo,
            restored: self.restored,
        }
    }
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
    Pending(Box<(Vec<ClassUnit<Name>>, Diagnostics)>),
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

/// The registered files, in a table indexed by ordinal, so project order
/// is table order. Ordinals are handed out densely and never reused: a
/// removed file leaves a hole of one empty entry.
#[derive(Debug, Default)]
struct Files {
    table: Vec<Option<FileState>>,
}

impl Files {
    /// The ordinal the next new file gets.
    fn next_ordinal(&self) -> u64 {
        self.table.len() as u64
    }

    fn get(&self, ordinal: u64) -> &FileState {
        self.table[ordinal as usize]
            .as_ref()
            .expect("a live file's ordinal")
    }

    fn get_mut(&mut self, ordinal: u64) -> &mut FileState {
        self.table[ordinal as usize]
            .as_mut()
            .expect("a live file's ordinal")
    }

    /// Adds a file under the next ordinal.
    fn push(&mut self, file: FileState) {
        debug_assert_eq!(file.ordinal, self.next_ordinal());
        self.table.push(Some(file));
    }

    fn remove(&mut self, ordinal: u64) -> FileState {
        self.table[ordinal as usize]
            .take()
            .expect("a live file's ordinal")
    }

    /// The live files, in project order.
    fn iter(&self) -> impl Iterator<Item = &FileState> {
        self.table.iter().flatten()
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut FileState> {
        self.table.iter_mut().flatten()
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
fn ast_unread(slots: &IdMap<ClassSlot>, pos: Pos, unit: &ClassUnit) -> bool {
    slots.get(unit.class).is_some_and(|slot| {
        (slot.pos, slot.fingerprint) == (pos, unit.fingerprint) && slot.extract.extraction.is_none()
    })
}

/// The products of the winning definition of one class name.
#[derive(Debug)]
struct ClassSlot {
    pos: Pos,
    fingerprint: u64,
    extract: Arc<ExtractEntry>,
    /// The ids of the classes a `@sys` class instantiates, one per
    /// [`ClassExtraction::dependencies`] entry: resolved once, when the
    /// slot is made.
    deps: Box<[ClassId]>,
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

/// One live `@sys` class in the spec index: its spec, shared with the
/// class's extraction, and what the verification of every class
/// instantiating it reads besides: the dependency DFA the typestate
/// analysis steps, with its dead states ([`DependencyDfa`]), and the
/// spec-only stand-in system usage verification and the typestate
/// analysis look the class up as. Both are built on first use and
/// dropped with the entry when the spec changes or leaves, so they are
/// functions of the spec alone.
#[derive(Debug)]
struct SpecEntry {
    spec: Arc<ClassSpec>,
    dfa: OnceLock<Arc<DependencyDfa>>,
    stand_in: OnceLock<Arc<System>>,
}

impl SpecEntry {
    fn new(spec: Arc<ClassSpec>) -> SpecEntry {
        SpecEntry {
            spec,
            dfa: OnceLock::new(),
            stand_in: OnceLock::new(),
        }
    }

    fn dfa(&self) -> Arc<DependencyDfa> {
        self.dfa
            .get_or_init(|| Arc::new(DependencyDfa::of(&self.spec)))
            .clone()
    }

    fn stand_in(&self) -> Arc<System> {
        self.stand_in
            .get_or_init(|| {
                Arc::new(System {
                    name: self.spec.name.clone(),
                    kind: SystemKind::Base,
                    spec: ClassSpec::clone(&self.spec),
                    claims: Vec::new(),
                })
            })
            .clone()
    }
}

/// The spec index as resolution and verification read it: by class name,
/// at the cost of one interner lookup.
#[derive(Clone, Copy)]
struct Specs<'a> {
    names: &'a Names,
    index: &'a IdMap<SpecEntry>,
}

impl<'a> Specs<'a> {
    fn get(self, name: &str) -> Option<&'a SpecEntry> {
        self.index.get(self.names.get(name)?)
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
    /// Files whose current text the class table does not hold yet: their
    /// parse is stale, failed, or pending.
    dirty: BTreeSet<u64>,
    /// Removed files whose classes the class table still holds until the
    /// next round.
    retired: Vec<FileState>,
    /// Every class name the workspace has seen, with its dense id: the
    /// key of the class table's per-name state below.
    names: Names,
    /// `class → the positions of its definitions`, in project order: the
    /// class table. The last definition wins (Python's last-definition
    /// semantics); the others are shadowed, reported, and dropped before
    /// any stage runs.
    definitions: IdMap<Vec<Pos>>,
    /// `class → the E004 run reporting its shadowed definitions`, config
    /// applied, for the names defined more than once.
    shadowed: IdMap<Vec<Diagnostic>>,
    /// `class → products of its winning definition`.
    slots: IdMap<ClassSlot>,
    /// `class → the @sys classes that instantiate it`, in id order: whose
    /// dependency fingerprints change when the name gets a new winner.
    dependents: IdMap<Vec<ClassId>>,
    /// The last round's report.
    report: KeptReport,
    extract_cache: FxHashMap<u64, Arc<ExtractEntry>>,
    verify_cache: FxHashMap<(u64, u64), Arc<VerifyEntry>>,
    /// Per-class [`SystemStats`], keyed like `verify_cache` (class
    /// fingerprint + dependency fingerprint) because composite statistics
    /// read the subsystem specs.
    stats_cache: FxHashMap<(u64, u64), Arc<SystemStats>>,
    /// `class → spec` of every live `@sys` class: the index resolution
    /// reads subsystem specs from, and the typestate analysis their DFAs.
    /// Kept in step with the class slots; an entry shares its spec with
    /// the class's extraction, so a round copies no spec.
    spec_index: IdMap<SpecEntry>,
    /// Verify-stage products restored from disk
    /// ([`Self::load_disk_cache`]), consulted when the in-memory
    /// `verify_cache` misses. Kept across rounds: a key that is stale now
    /// can become live again when a closed file is reopened.
    disk_cache: FxHashMap<(u64, u64), Arc<SavedVerify>>,
    /// File records restored from disk, consulted before parsing a stale
    /// file. Kept across rounds like `disk_cache`, so a reopened file
    /// restores too.
    file_records: FxHashMap<FileKey, Arc<FileRecord>>,
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
            dirty: BTreeSet::new(),
            retired: Vec::new(),
            names: Names::default(),
            definitions: IdMap::default(),
            shadowed: IdMap::default(),
            slots: IdMap::default(),
            dependents: IdMap::default(),
            report: KeptReport::default(),
            extract_cache: FxHashMap::default(),
            verify_cache: FxHashMap::default(),
            stats_cache: FxHashMap::default(),
            spec_index: IdMap::default(),
            disk_cache: FxHashMap::default(),
            file_records: FxHashMap::default(),
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
        for file in self.files.iter_mut() {
            file.parse = Parse::Stale;
            self.dirty.insert(file.ordinal);
        }
    }

    /// Whether recovery mode is on.
    pub fn recover(&self) -> bool {
        self.recover
    }

    /// The number of worker threads each stage fans out over: the count
    /// given at construction, `0` resolved to the available parallelism.
    pub fn jobs(&self) -> usize {
        self.jobs
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
                let ordinal = self.files.next_ordinal();
                self.file_index.insert(name.clone(), ordinal);
                self.files.push(FileState {
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
        let file = self.files.remove(ordinal);
        self.dirty.remove(&ordinal);
        if !file.registered.is_empty() || !file.degraded.is_empty() {
            self.retired.push(file);
        }
        true
    }

    /// The registered file names, in project order.
    pub fn file_names(&self) -> impl Iterator<Item = &str> {
        self.files.iter().map(|f| f.name.as_str())
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
        round.parse_cache_hits = self.file_index.len() as u64 - round.files_parsed;
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
        let winners: Vec<(ClassId, Pos)> = changed
            .iter()
            .filter_map(|&id| Some((id, *self.definitions.get(id)?.last()?)))
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
        self.extract_cache.reserve(missing.len());
        let winners: Vec<(ClassId, Pos, u64, Arc<ExtractEntry>)> = winners
            .into_iter()
            .zip(entries)
            .map(|((id, pos), entry)| {
                let entry = entry.expect("every new winner was extracted");
                let fingerprint = self.files.unit(pos).fingerprint;
                self.extract_cache.insert(fingerprint, entry.clone());
                (id, pos, fingerprint, entry)
            })
            .collect();
        for &id in &changed {
            if let Some(old) = self.slots.remove(id) {
                self.retire_slot(id, old, &mut retired_keys);
            }
        }
        // The classes whose report runs this round replaces, by position.
        let mut rerun: Vec<(Pos, ClassId)> = Vec::with_capacity(winners.len());
        for (id, pos, fingerprint, extract) in winners {
            let deps: Box<[ClassId]> = match &extract.extraction {
                Some(x) => {
                    self.spec_index.insert(id, SpecEntry::new(x.spec.clone()));
                    let deps: Box<[ClassId]> =
                        x.dependencies().map(|dep| self.names.intern(dep)).collect();
                    for &dep in &deps {
                        let dependents = self.dependents.get_or_default(dep);
                        if let Err(i) = dependents.binary_search(&id) {
                            dependents.insert(i, id);
                        }
                    }
                    deps
                }
                None => {
                    // No later stage reads the AST of a class without
                    // `@sys`; should the class win again after its entry
                    // is dropped, `load_asts` parses its file anew.
                    self.files.unit_mut(pos).solo = None;
                    Box::default()
                }
            };
            self.slots.insert(
                id,
                ClassSlot {
                    pos,
                    fingerprint,
                    extract,
                    deps,
                    dep_fingerprint: fingerprint,
                    verify: None,
                    run: Box::default(),
                },
            );
            rerun.push((pos, id));
        }
        round.extract_cache_hits = (self.slots.len() - missing.len()) as u64;
        round.extract_time = t.elapsed() - lazy;

        // Phase 4: dependency fingerprints of the new `@sys` winners and
        // of every class that instantiates a changed name; each whose key
        // moved is looked up in the verify cache.
        let t = Instant::now();
        let mut rekey: Vec<ClassId> = Vec::new();
        for &id in &changed {
            if self
                .slots
                .get(id)
                .is_some_and(|s| s.extract.extraction.is_some())
            {
                rekey.push(id);
            }
            if let Some(dependents) = self.dependents.get(id) {
                rekey.extend(dependents);
            }
        }
        let mut missing: Vec<ClassId> = Vec::new();
        rekey.sort_unstable();
        rekey.dedup();
        for &id in &rekey {
            let slot = &self.slots[id];
            let dep_fingerprint = dependency_fingerprint(slot, &self.slots);
            if slot.verify_key() == Some((slot.fingerprint, dep_fingerprint)) {
                continue;
            }
            let slot = self.slots.get_mut(id).expect("rekeyed classes are live");
            if let Some(key) = slot.verify_key() {
                self.report.leave(slot.pos);
                self.report.remove(&slot.run);
                retired_keys.verify.push((id, key));
                rerun.push((slot.pos, id));
            }
            slot.dep_fingerprint = dep_fingerprint;
            slot.verify = self
                .verify_cache
                .get(&(slot.fingerprint, dep_fingerprint))
                .cloned();
            if slot.verify.is_none() {
                missing.push(id);
            }
        }
        round.verified = missing.len() as u64;
        round.verify_cache_hits = (self.spec_index.len() - missing.len()) as u64;
        #[cfg(test)]
        SLOTS_VISITED.with(|n| {
            let rekeyed_only = rekey.iter().filter(|id| touched.binary_search(id).is_err());
            n.set(n.get() + touched.len() + rekeyed_only.count());
        });

        // Phase 5: resolution + lints + verification for the classes whose
        // key missed. The lints read the AST, so a class the disk cache
        // cannot answer needs its file parsed.
        let need_ast: Vec<Pos> = missing
            .iter()
            .map(|&id| &self.slots[id])
            .filter(|slot| {
                !self
                    .disk_cache
                    .contains_key(&(slot.fingerprint, slot.dep_fingerprint))
            })
            .map(|slot| slot.pos)
            .collect();
        let lazy = self.load_asts(need_ast, &mut round);
        let disk_cache = &self.disk_cache;
        let specs = Specs {
            names: &self.names,
            index: &self.spec_index,
        };
        let slots = &self.slots;
        let files = &self.files;
        let fresh = par_map(self.jobs, &missing, |&id| {
            let slot = &slots[id];
            let extraction = slot
                .extract
                .extraction
                .as_ref()
                .expect("verify stage only runs for @sys classes");
            match disk_cache.get(&(slot.fingerprint, slot.dep_fingerprint)) {
                Some(saved) => (
                    Arc::new(run_verify_restored(extraction, specs, saved)),
                    true,
                ),
                None => {
                    let solo = files.unit(slot.pos).solo();
                    (Arc::new(run_verify(extraction, solo, specs)), false)
                }
            }
        });
        self.verify_cache.reserve(missing.len());
        for (&id, (entry, from_disk)) in missing.iter().zip(fresh) {
            round.fast_path_proven += entry.verdict.fast_path_skips as u64;
            round.antichain_frontier += entry.verdict.antichain_frontier;
            round.antichain_pruned += entry.verdict.antichain_pruned;
            round.verify_disk_hits += u64::from(from_disk);
            let slot = self.slots.get_mut(id).expect("verified classes are live");
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
        self.report.finish(rerun.iter().map(|&(pos, id)| {
            let slot = slots.get_mut(id).expect("re-run classes are live");
            slot.run = class_run(config, &slot.extract, slot.verify.as_deref()).into();
            (pos, class_runs(kept, slot))
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
    /// same fingerprint are left alone; a new definition's name is
    /// interned. Returns the classes whose definitions changed, sorted.
    fn register_files(&mut self) -> Vec<ClassId> {
        let incoming: usize = self
            .dirty
            .iter()
            .map(|&ordinal| match &self.files.get(ordinal).parse {
                Parse::Pending(pending) => pending.0.len(),
                _ => 0,
            })
            .sum();
        let mut touched = Vec::with_capacity(incoming);
        for file in std::mem::take(&mut self.retired) {
            for unit in file.registered {
                undefine(
                    &mut self.definitions,
                    (file.ordinal, unit.start),
                    unit.class,
                );
                touched.push(unit.class);
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
                    undefine(&mut self.definitions, (ordinal, gone.start), gone.class);
                    touched.push(gone.class);
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
                        undefine(&mut self.definitions, (ordinal, gone.start), gone.class);
                        touched.push(gone.class);
                    }
                    None => {}
                }
                let unit = unit.register(&mut self.names);
                let defs = self.definitions.get_or_default(unit.class);
                let pos = (ordinal, unit.start);
                defs.insert(defs.partition_point(|p| *p < pos), pos);
                touched.push(unit.class);
                kept.push(unit);
            }
            for gone in old {
                undefine(&mut self.definitions, (ordinal, gone.start), gone.class);
                touched.push(gone.class);
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

    /// Re-reports the shadowed definitions of every touched class and
    /// returns the classes whose winner changed: it appeared, disappeared,
    /// moved, or has a new fingerprint.
    fn settle_winners(&mut self, touched: &[ClassId]) -> Vec<ClassId> {
        let mut changed = Vec::new();
        for &id in touched {
            let defs = self.definitions.get(id).map_or(&[][..], Vec::as_slice);
            let old = self.shadowed.get(id).map_or(&[][..], Vec::as_slice);
            // A name defined at most once, and not shadowed before, has no
            // E004 run before or after.
            let shadowed = if defs.len() > 1 || !old.is_empty() {
                let name = self.names.name(id);
                applied(&self.config, &shadow_diags(name, defs, &self.files))
            } else {
                Vec::new()
            };
            if shadowed != old {
                self.report.remove(old);
                self.report.add(&shadowed);
                if shadowed.is_empty() {
                    self.shadowed.remove(id);
                } else {
                    self.shadowed.insert(id, shadowed);
                }
            }
            let winner = defs
                .last()
                .map(|&pos| (pos, self.files.unit(pos).fingerprint));
            if defs.is_empty() {
                self.definitions.remove(id);
            }
            if winner != self.slots.get(id).map(|s| (s.pos, s.fingerprint)) {
                changed.push(id);
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
            class_units(file, recover, module)
        });
        for (&ordinal, units) in ordinals.iter().zip(parsed) {
            let registered = &mut self.files.get_mut(ordinal).registered;
            debug_assert!(
                registered.len() == units.len()
                    && registered.iter().zip(&units).all(|(r, u)| {
                        (self.names.name(r.class), r.start, r.fingerprint)
                            == (&*u.class, u.start, u.fingerprint)
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
    fn retire_slot(&mut self, id: ClassId, old: ClassSlot, retired: &mut RetiredKeys) {
        self.report.leave(old.pos);
        self.report.remove(&old.run);
        retired.extract.push((id, old.fingerprint));
        if let Some(key) = old.verify_key() {
            retired.verify.push((id, key));
        }
        self.spec_index.remove(id);
        for &dep in &old.deps {
            if let Some(dependents) = self.dependents.get_mut(dep) {
                if let Ok(i) = dependents.binary_search(&id) {
                    dependents.remove(i);
                }
                if dependents.is_empty() {
                    self.dependents.remove(dep);
                }
            }
        }
    }

    /// Drops the cache entries of retired keys no live class uses: the
    /// caches hold exactly the live classes' keys after every round.
    fn drop_retired_keys(&mut self, retired: RetiredKeys) {
        for (id, fingerprint) in retired.extract {
            if self.slots.get(id).map(|s| s.fingerprint) != Some(fingerprint) {
                self.extract_cache.remove(&fingerprint);
            }
        }
        for (id, key) in retired.verify {
            if self.slots.get(id).and_then(ClassSlot::verify_key) != Some(key) {
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
        let slot = self.slots.get(self.names.get(class)?)?;
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
    ///
    /// The file is a function of the workspace's state: verify records
    /// come sorted by key, file records in project order, so saving the
    /// same workspace twice writes the same bytes.
    pub fn save_disk_cache(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<usize> {
        /// One record to write.
        enum Item<'a> {
            Verify((u64, u64), &'a VerifyEntry),
            File(&'a FileState),
        }
        let mut verify: Vec<((u64, u64), &VerifyEntry)> = self
            .verify_cache
            .iter()
            .map(|(&key, entry)| (key, &**entry))
            .collect();
        verify.sort_unstable_by_key(|&(key, _)| key);
        let verify = verify
            .into_iter()
            .map(|(key, entry)| Item::Verify(key, entry));
        // A dirty file's registered classes are not those of its text.
        let files = self
            .files
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
                let slot = self.slots.get(unit.class);
                let winner = slot.filter(|s| s.pos == (file.ordinal, unit.start));
                let entry = winner.map(|s| &*s.extract);
                let name = self.names.name(unit.class);
                (name, unit.start, unit.fingerprint, entry)
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
    extract: Vec<(ClassId, u64)>,
    verify: Vec<(ClassId, (u64, u64))>,
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
            class: Name::from(unit.name),
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
        let degraded = degraded_diags(&file.name, &module);
        (class_units(file, recover, module), degraded)
    } else {
        match parse_module(&file.source) {
            Ok(module) => (class_units(file, recover, module), Diagnostics::new()),
            Err(error) => return Parse::Failed(Box::new(error)),
        }
    };
    Parse::Pending(Box::new(parsed))
}

/// Removes the definition at `pos` of the class `id` from the table.
fn undefine(definitions: &mut IdMap<Vec<Pos>>, pos: Pos, id: ClassId) {
    let defs = definitions
        .get_mut(id)
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

/// The dependency fingerprint of the `@sys` class in `slot`: its own
/// fingerprint combined with the name and winning fingerprint of every
/// class it instantiates (`u64::MAX` for an undefined one).
fn dependency_fingerprint(slot: &ClassSlot, slots: &IdMap<ClassSlot>) -> u64 {
    let extraction = slot
        .extract
        .extraction
        .as_ref()
        .expect("only @sys classes are keyed by their dependencies");
    let mut hash = Fnv1a::new();
    hash.part(&slot.fingerprint.to_le_bytes());
    for (dep, &id) in extraction.dependencies().zip(&slot.deps) {
        let dep_fp = slots.get(id).map_or(u64::MAX, |s| s.fingerprint);
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
/// Each class is moved into its solo module. The parser builds every AST
/// sequence to exact capacity, so a moved class keeps no growth slack
/// alive for as long as its unit is cached. (While it did not, moving
/// raised `rss_mb` by 34% on `corpus_recover`, and each class was
/// deep-cloned instead.) With the move, perfbench `--trace 0` on a 2-core
/// VM measures a median `rss_mb` of 14.55 MiB on `ci_cold` (10 runs) and
/// 29.36 MiB on `corpus_recover` (5 runs), against 14.73 and 29.39 MiB
/// with the clone.
fn class_units(file: &FileState, recover: bool, module: Module) -> Vec<ClassUnit<Name>> {
    module
        .body
        .into_iter()
        .filter_map(|stmt| match stmt {
            Stmt::ClassDef(class) => Some(class),
            _ => None,
        })
        .map(|class| ClassUnit {
            class: Name::from(class.name.node.as_str()),
            start: class.span.start,
            fingerprint: fnv1a(&[
                file.name.as_bytes(),
                &class.span.start.to_le_bytes(),
                &[u8::from(recover)],
                &file.source.as_bytes()[class.span.start..class.span.end],
            ]),
            solo: Some(Arc::new(Module {
                body: vec![Stmt::ClassDef(class)],
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
fn run_verify(extraction: &ClassExtraction, solo: &Module, specs: Specs) -> VerifyEntry {
    let mut resolve_diags = Diagnostics::new();
    let system = Arc::new(resolve_class_with(
        extraction,
        |name| specs.get(name).map(|entry| &*entry.spec),
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
            if let Some(entry) = specs.get(&sub.class_name) {
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
    let dfa_of = |dep: &System| {
        specs
            .get(&dep.name)
            .expect("a system in scope is in the spec index")
            .dfa()
    };
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
    extraction: &ClassExtraction,
    specs: Specs,
    saved: &SavedVerify,
) -> VerifyEntry {
    let mut resolve_diags = Diagnostics::new();
    let system = resolve_class_with(
        extraction,
        |name| specs.get(name).map(|entry| &*entry.spec),
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
/// item) runs inline on the calling thread. This is the pool every stage
/// of a round fans out over; callers outside the crate size it with
/// [`Workspace::jobs`].
///
/// The calling thread is one of the workers. Besides sparing a spawn,
/// that leaves part of a cold round's long-lived products in the
/// caller's allocator arena, which a daemon's later inline single-item
/// rounds allocate from: with glibc's per-thread arenas and only spawned
/// workers, the freed cold-round products left holes nothing reused, and
/// the daemon's resident set grew faster under edits.
///
/// Two workers do not halve a stage. On a 2-core VM a cold
/// `serve_project(1000)` round runs ≈1.35× faster at `jobs(2)` than at
/// `jobs(1)`, and the items' summed busy time is ≈1.2× what it is on one
/// thread, without waiting: the workers run slower.
/// The allocator is why. Measured on the same VM, a loop that allocates
/// and frees small blocks runs ≈1.2× slower per thread when two threads
/// of one process run it at once (≈1.05× as two processes; pure
/// arithmetic does not slow), and freeing blocks another thread
/// allocated costs ≈2× freeing one's own — what happens to every result
/// a worker returns here. Stages that allocate less scale better.
pub fn par_map<T: Sync, R: Send>(jobs: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
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
        for file in ws.files.iter() {
            let saved = outcome.files[&(file.fingerprint, true)]
                .decode()
                .unwrap_or_else(|| panic!("the record of {} decodes", file.name));
            assert_eq!(saved.degraded, file.degraded, "{}", file.name);
            assert_eq!(saved.units.len(), file.registered.len(), "{}", file.name);
            for (saved, unit) in saved.units.iter().zip(&file.registered) {
                let name = ws.names.name(unit.class);
                assert_eq!(
                    (saved.name.as_str(), saved.start, saved.fingerprint),
                    (name, unit.start, unit.fingerprint)
                );
                let slot = &ws.slots[unit.class];
                if slot.pos == (file.ordinal, unit.start) {
                    let entry = saved.extract.as_ref().expect("a winner's entry");
                    assert!(
                        same_entry(entry, &slot.extract),
                        "{name}: {entry:#?}\n!=\n{:#?}",
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

    /// Everything a round reports, as text.
    fn outcome(checked: &Checked) -> String {
        let report = &checked.report;
        format!(
            "{}{:?}\n{:?}\n{:?}\n",
            report.diagnostics.render_json(None),
            checked.systems.iter().map(|s| &s.name).collect::<Vec<_>>(),
            report.usage_violations,
            report.claim_violations,
        )
    }

    /// Checks `ws` and a fresh workspace holding its files in its project
    /// order, and asserts that both report the same, and that every live
    /// file resolves through the ordinal table.
    fn assert_round_equals_cold(ws: &mut Workspace) {
        let checked = ws.check().unwrap();
        let mut cold = Workspace::with_config(LintConfig::default(), 1);
        for name in ws.file_names() {
            cold.set_file(name, ws.source(name).unwrap());
        }
        assert_eq!(outcome(&checked), outcome(&cold.check().unwrap()));
        for (name, &ordinal) in &ws.file_index {
            let file = ws.files.get(ordinal);
            assert_eq!((&file.name, file.ordinal), (name, ordinal));
            for unit in &file.registered {
                assert_eq!(ws.files.unit((ordinal, unit.start)).start, unit.start);
            }
        }
        assert_eq!(ws.files.iter().count(), ws.file_index.len());
    }

    /// The dense class table through holes and renames: removing a middle
    /// file leaves a hole in the ordinal table, new files and the removed
    /// name re-added go after it, and a renamed class gets a new id while
    /// the old name keeps its own; every round equals a cold check.
    #[test]
    fn dense_table_rounds_through_file_holes_and_renames_equal_a_cold_check() {
        let user = |i: usize, sub: &str| {
            format!(
                "@sys([\"a\"])\nclass User{i}:\n    def __init__(self):\n        \
                 self.a = {sub}()\n\n    @op_initial_final\n    def run(self):\n        \
                 self.a.test()\n        self.a.clean()\n        return []\n"
            )
        };
        let valve = composites_project(0);
        let mut ws = Workspace::with_config(LintConfig::default(), 2);
        ws.set_file("valve.py", valve.clone());
        for i in 0..4 {
            ws.set_file(format!("user{i}.py"), user(i, "Valve"));
        }
        ws.set_file("helper.py", "class Helper:\n    pass\n");
        assert_round_equals_cold(&mut ws);
        let user1 = ws.names.get("User1").unwrap();

        // A middle file goes: its ordinal becomes a hole.
        assert!(ws.remove_file("user1.py"));
        assert_round_equals_cold(&mut ws);
        assert!(ws.files.table[2].is_none());
        assert!(ws.slots.get(user1).is_none());

        // New files go after the hole, one of them a second definition.
        ws.set_file("user4.py", user(4, "Valve"));
        ws.set_file("again.py", user(3, "Valve"));
        assert_round_equals_cold(&mut ws);

        // The removed name comes back under a new ordinal, its class
        // under its old id.
        ws.set_file("user1.py", user(1, "Valve"));
        assert_round_equals_cold(&mut ws);
        assert_eq!(ws.file_names().last(), Some("user1.py"));
        assert_eq!(ws.files.get(ws.file_index["user1.py"]).ordinal, 8);
        assert_eq!(ws.names.get("User1"), Some(user1));
        assert!(ws.slots.get(user1).is_some());

        // Renaming the subsystem class leaves its users with an undefined
        // dependency, and renaming it back restores them.
        let valve_id = ws.names.get("Valve").unwrap();
        ws.set_file("valve.py", valve.replace("class Valve", "class Tap"));
        assert_round_equals_cold(&mut ws);
        assert!(ws.slots.get(valve_id).is_none());
        assert!(ws.dependents[valve_id].len() >= 4);
        ws.set_file("valve.py", valve);
        assert_round_equals_cold(&mut ws);
        assert_eq!(ws.names.get("Valve"), Some(valve_id));

        // A user renamed and pointed at the renamed-away class.
        ws.set_file("user0.py", user(0, "Tap").replace("User0", "Renamed0"));
        assert_round_equals_cold(&mut ws);
        assert!(ws.slots.get(ws.names.get("User0").unwrap()).is_none());
    }

    /// Every `@sys` class's spec-index entry shares its extraction's spec:
    /// after a cold round, and after a restart that restores every file
    /// from its file record.
    #[test]
    fn dense_table_spec_entries_share_their_extractions_spec() {
        fn assert_shared(ws: &Workspace) -> usize {
            for (id, slot) in ws.slots.iter() {
                let entry = ws.spec_index.get(id);
                match &slot.extract.extraction {
                    Some(x) => assert!(Arc::ptr_eq(&entry.unwrap().spec, &x.spec)),
                    None => assert!(entry.is_none()),
                }
            }
            ws.spec_index.len()
        }
        let files = shelley_bench::serve_project(100);
        let path = std::env::temp_dir().join(format!(
            "shelley-shared-specs-{}.ndjson",
            std::process::id()
        ));
        let mut ws = Workspace::with_config(LintConfig::default(), 2);
        for (name, source) in &files {
            ws.set_file(name, source.clone());
        }
        ws.check().unwrap();
        assert_eq!(assert_shared(&ws), 100);
        ws.save_disk_cache(&path).unwrap();

        let mut restarted = Workspace::with_config(LintConfig::default(), 2);
        restarted.load_disk_cache(&path);
        let _ = std::fs::remove_file(&path);
        for (name, source) in &files {
            restarted.set_file(name, source.clone());
        }
        restarted.check().unwrap();
        let round = restarted.last_round();
        assert_eq!((round.files_parsed, round.verify_disk_hits), (0, 100));
        assert_eq!(assert_shared(&restarted), 100);
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
