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

echo "==> O(edit) rounds (work counters flat in project size, edit-sequence equivalence, cache checksum, daemon panic containment)"
# A workspace keeps its class table, dependency keys and report between
# rounds: a no-edit round visits no class slot, a one-composite edit
# visits one at 100 and at 400 composites, and a Valve edit visits 1 + n
# (a #[cfg(test)] counter); random sequences of edits, renames,
# shadowing definitions, removals, syntax breaks, grammar switches and
# disk-cache restarts keep every round equal to a cold check; a cache
# record whose message or key has a flipped digit is rejected by its
# checksum; and a panicking daemon handler answers with an error, after
# which the next check reports the cold result and shutdown still works.
cargo test -p shelley-core --lib -q rounds_visit
cargo test -p shelley-bench --test edit_sequences -q
cargo test -p shelley-core --lib -q flipped_digit
cargo test -p shelley-daemon --lib -q server::tests

echo "==> parse-free restart (file records, lazy ASTs, restart work counters, kill during save, reply coalescing)"
# A restarted workspace restores each unchanged file from its file record
# instead of parsing it: an unchanged restart of serve_project(1000)
# parses 0 files and extracts 0 classes, an app edit parses 1, and a
# device edit parses the device plus, lazily, its 19 apps; every decoded
# record gives back each extraction exactly (examples_py, serve_project
# and realworld_corpus under --recover); a file record with a flipped
# digit, or one that does not decode, is parsed instead; a leftover
# cache.tmp or a truncated cache loads as a smaller cache and the next
# round equals a cold check; and the daemon coalesces replies without
# starving a client that waits on one, or that disconnects mid-burst.
cargo test -p shelley-bench --test restart -q
cargo test -p shelley-core --lib -q file_record
cargo test -p shelley-daemon --lib -q server::tests

echo "==> memory gate (live bytes after a cold round)"
# A counting global allocator, in a test binary of its own: a cold
# jobs(1) round on serve_project(1000), and one in recovery mode on
# realworld_corpus(200), must leave at most 5% more requested bytes live
# than recorded (workspace and returned report included).
cargo test -p shelley-bench --test memory -q

echo "==> benches compile"
cargo bench --workspace --no-run -q

echo "==> perfbench self-tests"
# perfbench is its own package built against the crates by path, so a
# core API change that breaks the benchmark's build fails here.
cargo test --release --manifest-path perfbench/Cargo.toml -q

echo "==> langbench builds (release)"
cargo build -p langbench --release -q

echo "==> one-engine differential suite (usage and claims against the path oracle)"
# The one inclusion search must return exactly the word of the least
# violating path that a brute-force enumeration finds (fewest events,
# then NFA edge order), judged by Brzozowski membership for usage and by
# the LTLf trace semantics for claims: on random regex pairs with and
# without markers (proptest and an ε-heavy LCG suite), on 1800 random
# system/claim pairs (every Holds also confirmed on all model words up to
# length 5), and on every examples_py class under a claim battery.
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
