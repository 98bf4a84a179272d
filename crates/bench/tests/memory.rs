//! Memory gate: the heap bytes a cold workspace round leaves live.
//!
//! A counting global allocator keeps the number of bytes requested and not
//! yet freed. A global allocator counts every thread of its binary, so
//! this gate is a binary of its own, without the test harness (which
//! would allocate on threads of its own): it runs one cold
//! `Checker::new().jobs(1)` round on `serve_project(1000)` and one in
//! recovery mode on `realworld_corpus(200)`, and holds the bytes still
//! live while the workspace and the round's `Checked` are kept against a
//! recorded ceiling. The count is of requested bytes, so it does not
//! depend on the allocator, the machine or the time a round takes.
//!
//! Run with `cargo test -p shelley-bench --test memory`.

use shelley_core::Checker;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes requested and not yet freed, over the whole process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call forwards to the system allocator with the caller's
// arguments; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
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
const SERVE_1000_BYTES: usize = 8_567_856;
const CORPUS_200_RECOVER_BYTES: usize = 2_118_515;

/// The bytes a cold one-thread round over `files` leaves live, workspace
/// and report included, the caller's own copy of the sources excluded.
fn live_after_cold_round(files: &[(String, String)], recover: bool) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    let mut ws = Checker::new().jobs(1).recover(recover).into_workspace();
    for (name, source) in files {
        ws.set_file(name.clone(), source.clone());
    }
    let checked = ws.check().expect("the project parses");
    let live = LIVE.load(Ordering::Relaxed) - before;
    drop((checked, ws));
    usize::try_from(live).expect("a round leaves a non-negative balance")
}

fn gate(what: &str, live: usize, recorded: usize) -> bool {
    let ceiling = recorded + recorded / 20;
    let ok = live <= ceiling;
    println!(
        "{what}: {live} bytes live after a cold round (recorded {recorded}, ceiling {ceiling}): {}",
        if ok { "ok" } else { "FAILED" }
    );
    ok
}

fn main() {
    let serve = live_after_cold_round(&shelley_bench::serve_project(1000), false);
    let corpus = live_after_cold_round(&shelley_bench::realworld_corpus(200), true);
    let serve_ok = gate("serve_project(1000)", serve, SERVE_1000_BYTES);
    let corpus_ok = gate(
        "realworld_corpus(200) --recover",
        corpus,
        CORPUS_200_RECOVER_BYTES,
    );
    assert!(
        serve_ok && corpus_ok,
        "a round leaves more bytes live than recorded"
    );
}
