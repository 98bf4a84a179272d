//! Memory gate: the heap bytes a cold workspace round leaves live, the
//! allocations it makes, and the allocations of the front end alone.
//!
//! A counting global allocator keeps the number of bytes requested and not
//! yet freed, the number of allocation calls (`alloc`, `alloc_zeroed` and
//! `realloc`), and of `realloc` calls alone. A global allocator counts
//! every thread of its binary, so this gate is a binary of its own,
//! without the test harness (which would allocate on threads of its own).
//! It first parses `realworld_corpus(200)` with `parse_module_recover`,
//! on a thread that has parsed nothing yet (so growing the parser's
//! per-thread buffers is counted), and holds its allocation and `realloc`
//! calls against recorded ceilings. It then runs one cold
//! `Checker::new().jobs(1)` round on `serve_project(1000)` and one in
//! recovery mode on `realworld_corpus(200)`, and holds the bytes still
//! live while the workspace and the round's `Checked` are kept, and the
//! allocation calls the round made, against recorded ceilings. All counts
//! are of requests, so they do not depend on the allocator, the machine or
//! the time a round takes. They do depend on the build profile: the
//! recorded figures are those of the test profile `cargo test` uses.
//!
//! Run with `cargo test -p shelley-bench --test memory`.

use shelley_core::Checker;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Bytes requested and not yet freed, over the whole process.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`), over the whole
/// process.
static CALLS: AtomicUsize = AtomicUsize::new(0);
/// `realloc` calls alone, over the whole process.
static REALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to the system allocator with the caller's
// arguments; the counters have no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        CALLS.fetch_add(1, Ordering::Relaxed);
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The bytes each round left live when they were recorded; the gate
/// allows 5% more.
const SERVE_1000_BYTES: usize = 8_567_706;
const CORPUS_200_RECOVER_BYTES: usize = 2_118_365;

/// The allocation calls each round made when they were recorded; the
/// gate allows 2% more.
const SERVE_1000_ALLOCS: usize = 282_943;
const CORPUS_200_RECOVER_ALLOCS: usize = 47_299;

/// The allocation and `realloc` calls `parse_module_recover` made over
/// `realworld_corpus(200)` when they were recorded; the gate allows 2%
/// more.
const PARSE_CORPUS_200_ALLOCS: usize = 12_703;
const PARSE_CORPUS_200_REALLOCS: usize = 11;

/// What one cold round cost the heap.
struct Round {
    /// Bytes left live, workspace and report included.
    live: usize,
    /// Allocation calls the round made, from building the workspace to
    /// the returned report.
    allocs: usize,
}

/// A cold one-thread round over `files`; the caller's own copy of the
/// sources is excluded from both counts.
fn cold_round(files: &[(String, String)], recover: bool) -> Round {
    let before = LIVE.load(Ordering::Relaxed);
    let calls_before = CALLS.load(Ordering::Relaxed);
    let mut ws = Checker::new().jobs(1).recover(recover).into_workspace();
    for (name, source) in files {
        ws.set_file(name.clone(), source.clone());
    }
    let checked = ws.check().expect("the project parses");
    let live = LIVE.load(Ordering::Relaxed) - before;
    let allocs = CALLS.load(Ordering::Relaxed) - calls_before;
    drop((checked, ws));
    Round {
        live: usize::try_from(live).expect("a round leaves a non-negative balance"),
        allocs,
    }
}

/// The allocation and `realloc` calls of parsing `files` in recovery
/// mode; the ASTs are dropped outside the count.
fn parse_calls(files: &[(String, String)]) -> (usize, usize) {
    let calls_before = CALLS.load(Ordering::Relaxed);
    let reallocs_before = REALLOCS.load(Ordering::Relaxed);
    let modules: Vec<_> = files
        .iter()
        .map(|(_, source)| micropython_parser::parse_module_recover(source))
        .collect();
    let calls = CALLS.load(Ordering::Relaxed) - calls_before;
    let reallocs = REALLOCS.load(Ordering::Relaxed) - reallocs_before;
    drop(modules);
    // The result vector's one allocation is not the parser's.
    (calls - 1, reallocs)
}

fn gate(what: &str, unit: &str, value: usize, recorded: usize, slack: usize) -> bool {
    let ceiling = recorded + recorded / slack;
    let ok = value <= ceiling;
    println!(
        "{what}: {value} {unit} (recorded {recorded}, ceiling {ceiling}): {}",
        if ok { "ok" } else { "FAILED" }
    );
    ok
}

fn main() {
    assert!(
        std::mem::size_of::<micropython_parser::Token>() <= 16,
        "a token is {} bytes, more than 16",
        std::mem::size_of::<micropython_parser::Token>()
    );
    let corpus_200 = shelley_bench::realworld_corpus(200);
    let (parse_allocs, parse_reallocs) = parse_calls(&corpus_200);
    let serve = cold_round(&shelley_bench::serve_project(1000), false);
    let corpus = cold_round(&corpus_200, true);
    let results = [
        gate(
            "realworld_corpus(200) parse_module_recover",
            "allocations",
            parse_allocs,
            PARSE_CORPUS_200_ALLOCS,
            50,
        ),
        gate(
            "realworld_corpus(200) parse_module_recover",
            "reallocs",
            parse_reallocs,
            PARSE_CORPUS_200_REALLOCS,
            50,
        ),
        gate(
            "serve_project(1000)",
            "bytes live after a cold round",
            serve.live,
            SERVE_1000_BYTES,
            20,
        ),
        gate(
            "realworld_corpus(200) --recover",
            "bytes live after a cold round",
            corpus.live,
            CORPUS_200_RECOVER_BYTES,
            20,
        ),
        gate(
            "serve_project(1000)",
            "allocations in a cold round",
            serve.allocs,
            SERVE_1000_ALLOCS,
            50,
        ),
        gate(
            "realworld_corpus(200) --recover",
            "allocations in a cold round",
            corpus.allocs,
            CORPUS_200_RECOVER_ALLOCS,
            50,
        ),
    ];
    assert!(
        results.iter().all(|&ok| ok),
        "the front end or a cold round allocates more often, or a cold round leaves more \
         bytes live, than recorded"
    );
}
