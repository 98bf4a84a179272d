#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full offline test suite.
# Mirrors .github/workflows/ci.yml so a green run here is a green run there.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo test"
cargo test --workspace -q

echo "==> one typestate analysis per class (work-count gate, shared-report differential)"
# A cold jobs(1) workspace round and check_module_direct must each run
# analyze_class exactly once per composite class (a #[cfg(test)] call
# counter), and lint_class -- the one-analysis path that feeds both the
# E009/W012/W013 lint and the inclusion fast path -- must match run_lints
# followed by proven_fields on every examples_py class and on random
# composites: same diagnostics, same order, same proven set. The same
# round builds exactly one CFG per method and at most one dataflow solve
# per (method, field); serve_project(1000) builds its 50 dependency DFAs
# once each, not once per app (950). Every relational typestate solve is
# held against a per-entry-state solve on those classes and on a
# dependency with more than 64 DFA states, and the differential suite
# against full verification also runs on such dependencies.
cargo test -p shelley-core --lib -q one_analysis
cargo test -p shelley-core --lib -q relational_rows_span_words_beyond_64_states
cargo test -p shelley-core --test prop_typestate -q

echo "==> string-free lint stage (with/try typestate soundness, live exits, wide composites)"
# The typestate fast path must not prove a field whose `return` or
# `break` sits in a `with` or `try` block: five repros (return in with,
# in try, in finally, in try/except, break in with inside a loop) must
# report E100 `run, v.open` byte-for-byte as their goldens, a `raise`
# the lowering falls through must report E100 `run, v.open, v.close,
# v.open` as its golden, and the differential suite against full
# verification draws with/try blocks holding calls, early returns and
# breaks, and branches that raise before a call. The reachability walk
# `live_exits` must find exactly the exits whose tagged regex is
# nonempty on random programs. A composite of 70 subsystem fields over
# an 11-state dependency runs the two-word field bitsets and the
# heap-spilled relations through the same checks.
cargo test -p shelley --test report_formats -q typestate_soundness
cargo test -p shelley-core --test prop_typestate -q
cargo test -p shelley-ir --test theorems -q live_exits
cargo test -p shelley-core --lib -q wide_composite

echo "==> parse phase on the worker pool (job-count determinism)"
# A multi-file project parses its changed files on par_map: a recovering
# check of realworld_corpus(200) must give byte-identical reports (W014
# order included) and equal counters at jobs 1, 2 and 8; a strict project
# with two broken files must fail on the earlier one at every job count;
# and editing 3 files of a checked project must re-parse exactly 3.
cargo test -p shelley-bench --test parallel_parse -q

echo "==> class keys cover source bytes (stale-span regression, edit equivalence)"
# A class's cache key hashes its own source bytes: lengthening a comment
# inside a class must re-extract it, so an incremental round and a
# restart through the disk cache both report the cold check's positions;
# a decorator-line edit re-keys the class and text after it does not;
# random comment, blank-line and trailing-comment edits inside
# realworld_corpus classes keep positioned text/JSON reports
# byte-identical to a cold check.
cargo test -p shelley-core -p shelley-bench -q class_key

echo "==> O(edit) rounds (work counters flat in project size, edit-sequence equivalence, dense class table, cache checksum, daemon panic containment)"
# A workspace keeps its class table, dependency keys and report between
# rounds: a no-edit round visits no class slot, a one-composite edit
# visits one at 100 and at 400 composites, and a Valve edit visits 1 + n
# (a #[cfg(test)] counter); random sequences of edits, renames,
# shadowing definitions, removals, syntax breaks, grammar switches and
# disk-cache restarts keep every round equal to a cold check; a cache
# record whose message or key has a flipped digit is rejected by its
# checksum; and a panicking daemon handler answers with an error, after
# which the next check reports the cold result and shutdown still works.
# The class table is dense: a round through a removed middle file, new
# files, the removed name re-added and renamed classes equals a cold
# check and every file resolves through the ordinal table, and every
# spec-index entry shares its extraction's spec, after a cold round and
# after a file-record restart.
cargo test -p shelley-core --lib -q rounds_visit
cargo test -p shelley-core --lib -q -- dense_table workspace::table
cargo test -p shelley-bench --test edit_sequences -q
cargo test -p shelley-core --lib -q flipped_digit
cargo test -p shelley-daemon --lib -q server::tests

echo "==> parse-free restart (file records, lazy ASTs, restart work counters, kill during save, byte-stable saves, reply coalescing)"
# A restarted workspace restores each unchanged file from its file record
# instead of parsing it: an unchanged restart of serve_project(1000)
# parses 0 files and extracts 0 classes, an app edit parses 1, and a
# device edit parses the device plus, lazily, its 19 apps; every decoded
# record gives back each extraction exactly (examples_py, serve_project
# and realworld_corpus under --recover); a file record with a flipped
# digit, or one that does not decode, is parsed instead; a leftover
# cache.tmp or a truncated cache loads as a smaller cache and the next
# round equals a cold check; a cache save is byte-stable (two saves of a
# workspace, the save of a workspace restarted from it, and the re-save
# of the same records in another order are the same bytes); and the
# daemon coalesces replies without starving a client that waits on one,
# or that disconnects mid-burst.
cargo test -p shelley-bench --test restart -q
cargo test -p shelley-core --lib -q file_record
cargo test -p shelley-daemon --lib -q server::tests

echo "==> shelleyc CLI (parallel input reads, flags, formats, watch, serve)"
# The binary's integration tests: among them, check reads its inputs on
# the worker pool, reports the first unreadable path in argument order at
# --jobs 1, 2 and 8, and gives byte-identical reports at each.
cargo test -p shelley-cli --test cli -q

echo "==> wire codec (byte-identical goldens, round trips, malformed input)"
# The serde shim streams: derived code writes JSON straight into a
# Writer and reads it straight from a Reader, with no Value tree in
# between. The shim's own tests pin the writer's bytes and the reader's
# nesting cap; every Request, Reply, CheckSummary, SavedVerify and
# Diagnostic must round-trip, give the same bytes through the dynamic
# Value path, decode the same in any key order, keep the first of a
# repeated key and refuse every strict prefix of its encoding; the wire
# goldens must stay byte-identical with every strict prefix an error; and
# a 400 KB request nested 200,000 deep must get a malformed-request reply
# from the daemon, which keeps serving, instead of overflowing its stack.
cargo test -p serde -q
cargo test -p shelley-core --test prop_api -q
cargo test -p shelley-core --lib -q api::tests
cargo test -p shelley-daemon --test daemon -q a_deeply_nested_request

echo "==> MicroPython front end (AST identity digests, front-end allocation gate, round-trip/recover/robustness properties)"
# The parser's output is pinned by FNV-1a digests of the Debug rendering
# of its trees and errors, recorded before the front end was rewritten
# around compact tokens and reused buffers: examples_py, serve_project(1000)
# and realworld_corpus(200) (strict and recovering), and the strict
# outcome of every one-token deletion of each example. The memory gate
# holds parse_module_recover over realworld_corpus(200) to its recorded
# allocation and realloc calls and a token to at most 16 bytes. Printed
# trees over every binary operator re-parse to themselves, recovery is
# total, and no input panics the lexer or parser.
cargo test -p shelley-bench --test ast_identity -q
cargo test -p shelley-bench --test memory -q
cargo test -p micropython-parser --test prop_roundtrip -q
cargo test -p micropython-parser --test prop_recover -q
cargo test -p micropython-parser --test prop_robustness -q

echo "==> memory and allocation gate (live bytes and allocation calls of a cold round, exact-capacity ASTs)"
# A counting global allocator, in a test binary of its own: a cold
# jobs(1) round on serve_project(1000), and one in recovery mode on
# realworld_corpus(200), must leave at most 5% more requested bytes live
# than recorded (workspace and returned report included) and make at
# most 2% more allocation calls (alloc, alloc_zeroed, realloc) than
# recorded. Every Vec of the ASTs the parser builds for examples_py and
# realworld_corpus(200) must have exactly its length as capacity, since
# the workspace keeps each parsed class moved, not copied.
cargo test -p shelley-bench --test memory -q
cargo test -p shelley-bench --test exact_capacity -q

echo "==> daemon socket path means listening (50 start/stop cycles, connect on sight)"
# serve_socket binds a staging path and renames it onto the socket path
# once the socket listens: a client that connects the moment the path
# exists must never be refused, over 50 start/stop cycles.
cargo test -p shelley-daemon --test daemon -q the_socket_path_appears_only_once_the_daemon_listens

echo "==> benches compile"
cargo bench --workspace --no-run -q

echo "==> perfbench self-tests"
# perfbench is its own package built against the crates by path, so a
# core API change that breaks the benchmark's build fails here.
cargo test --release --manifest-path perfbench/Cargo.toml -q

echo "==> langbench builds (release)"
cargo build -p langbench --release -q

echo "==> one-engine differential suite (language views against membership, usage and claims against the path oracle)"
# Brzozowski membership (Regex::matches) judges the language views: on
# random regex pairs, the subset view, its complement and the three
# products must each return the shortlex-first member of length <= 5 as
# their shortest word, and materialize to a table accepting exactly the
# members of length <= 4. The one inclusion search must return exactly
# the word of the least violating path that a brute-force enumeration
# finds (fewest events, then NFA edge order), judged by Brzozowski
# membership for usage and by the LTLf trace semantics for claims: on
# random regex pairs with and without markers (proptest and an ε-heavy
# LCG suite), on 1800 random system/claim pairs (every Holds also
# confirmed on all model words up to length 5), and on every examples_py
# class under a claim battery.
cargo test -p shelley-regular --test prop_regular -q
cargo test -p shelley-regular --test path_oracle -q
cargo test -p shelley-ltlf --test differential -q
cargo test -p shelley-core --test claims_oracle -q

echo "==> langbench gates (lazy-vs-eager, state-engine counters, inclusion counters, dataflow skip rate, exponential-frontier claims)"
# Writes BENCH_lang.json / BENCH_perf.json / BENCH_sym.json and asserts
# every gate in them: the lazy engine separation; the deterministic
# state-engine counters on the 2^n family (subset construction finds
# 2^n + 1 DFA states, the exhaustive joint BFS visits 2^(n+1) - 2 product
# states, Hopcroft reaches 2^n minimal states); the inclusion search's
# exact kept/pruned counts on the included-model family in both union
# orders; the typestate fast path proving a positive share of the
# synthetic 100-class workspace; and the search deciding the n = 16
# exponential-frontier claim at witness length 16, past the unpruned
# search's 100k-state budget, with exact kept/pruned counts at every n.
cargo run -p langbench --release -q -- BENCH_lang.json BENCH_perf.json BENCH_sym.json > /dev/null

echo "==> servebench gate (warm restart >= 2x cold on the 1k-class workspace)"
# Writes BENCH_serve.json and asserts the persistent verify cache pays
# for itself: a warm daemon restart must beat a cold start by >= 2x.
cargo run -p servebench --release -q -- BENCH_serve.json

echo "==> corpus gates (strict examples, 200-file recovering sweep)"
# Strict mode must hold the line on the checked-in paper examples, and
# the recovering front end must clear the ISSUE floors (>= 95% parse,
# >= 90% extract) on the 200-file synthetic real-world corpus, whose
# rates are published as BENCH_corpus.json.
cargo build -p shelley-cli -p corpusgen --release -q
SHELLEYC=target/release/shelleyc
"$SHELLEYC" corpus examples_py --min-parse 100 --min-extract 100 > /dev/null
CORPUS_DIR="$(mktemp -d)"
target/release/corpusgen "$CORPUS_DIR" 200 > /dev/null
"$SHELLEYC" corpus "$CORPUS_DIR" --recover --json BENCH_corpus.json \
    --min-parse 95 --min-extract 90 > /dev/null
rm -rf "$CORPUS_DIR"

echo "==> daemon smoke test (serve over a socket, check, shutdown)"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
cat > "$SMOKE_DIR/led.py" <<'EOF'
@sys
class Led:
    @op_initial
    def on(self):
        return ["off"]

    @op_final
    def off(self):
        return ["on"]
EOF
cargo build -p shelley-cli --release -q
SHELLEYC=target/release/shelleyc
"$SHELLEYC" serve --socket "$SMOKE_DIR/daemon.sock" --cache "$SMOKE_DIR/cache.ndjson" &
SERVE_PID=$!
for _ in $(seq 100); do [ -S "$SMOKE_DIR/daemon.sock" ] && break; sleep 0.1; done
[ -S "$SMOKE_DIR/daemon.sock" ] || { echo "daemon socket never appeared"; exit 1; }
"$SHELLEYC" connect "$SMOKE_DIR/daemon.sock" "$SMOKE_DIR/led.py" \
    | grep -q "OK: 1 system(s) verified"
"$SHELLEYC" connect "$SMOKE_DIR/daemon.sock" --shutdown
wait "$SERVE_PID"
[ -f "$SMOKE_DIR/cache.ndjson" ] || { echo "daemon did not persist its cache"; exit 1; }

echo "CI OK"
