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

echo "==> benches compile"
cargo bench --workspace --no-run -q

echo "==> perfbench self-tests"
# perfbench is its own package built against the crates by path, so a
# core API change that breaks the benchmark's build fails here.
cargo test --release --manifest-path perfbench/Cargo.toml -q

echo "==> langbench builds (release)"
cargo build -p langbench --release -q

echo "==> differential backend suite (explicit vs symbolic vs evaluated-SMV)"
# All three claim-checking engines must return identical verdicts (and
# equal witness lengths) on 1800 random system/claim pairs.
cargo test -p shelley-symbolic --test differential -q

echo "==> langbench gates (lazy-vs-eager, bitset 2x, antichain 2x, hopcroft >= moore, dataflow skip rate, symbolic backend)"
# Writes BENCH_lang.json / BENCH_perf.json / BENCH_sym.json and asserts
# every gate in them: the lazy engine separation, the bitset >= 2x wins at
# n >= 10, the antichain inclusion engine beating the classic exhaustive
# search >= 2x at n >= 10, Hopcroft never losing to the Moore baseline at
# n >= 10, the typestate fast path proving a positive share of the
# synthetic 100-class workspace, and the symbolic backend deciding the
# 2^n-frontier claim family past the explicit engine's 100k-state budget
# (>= 1x at n >= 12).
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
