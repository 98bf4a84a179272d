//! AST identity: the front end's output, pinned by digest.
//!
//! Each test takes an FNV-1a digest of the `{:?}` rendering of what the
//! parser returns for a fixed set of inputs, and compares it with the
//! digest recorded before the front end's internals were last rewritten.
//! The rendering covers every node, every span and every error message,
//! so any change to the trees, their spans, or a parse error's position or
//! text changes a digest. The inputs:
//!
//! * the modules of `examples_py`, strict;
//! * `serve_project(1000)`, strict;
//! * `realworld_corpus(200)`, in recovery mode and strict (`Ok` or `Err`);
//! * an operator grid, one strict module per line: every ordered pair of
//!   binary operators (`a + b * c`), and every prefix operator before and
//!   after each binary one (`not a or b`, `a ** -b`), since the inputs
//!   above leave most precedence pairs untried;
//! * the strict outcome of every one-token deletion of each `examples_py`
//!   file: the source with one token's text cut out, for every token the
//!   lexer produces (a zero-width token is skipped).
//!
//! A digest mismatch means the parser's observable output changed. If
//! that change is intended, re-record the digests and say why.

use micropython_parser::{parse_module, parse_module_recover, tokenize};
use std::fmt::{self, Write};
use std::path::PathBuf;

/// A 64-bit FNV-1a hash fed through `fmt::Write`, so a `{:?}` rendering
/// is hashed without building the string.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// The `examples_py` files, in name order.
fn examples() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples_py");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("examples_py is readable")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let source = std::fs::read_to_string(&path).expect("example is UTF-8");
            (name, source)
        })
        .filter(|(name, _)| name.ends_with(".py"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no examples in {}", dir.display());
    files
}

/// The digest of each file's name and the `{:?}` of `outcome(source)`.
fn digest<T: fmt::Debug>(files: &[(String, String)], outcome: impl Fn(&str) -> T) -> u64 {
    let mut hash = Fnv::new();
    for (name, source) in files {
        write!(hash, "{name}\n{:?}\n", outcome(source)).unwrap();
    }
    hash.0
}

fn check(what: &str, actual: u64, recorded: u64) {
    assert_eq!(
        actual, recorded,
        "{what}: digest {actual:#018x}, recorded {recorded:#018x}"
    );
}

#[test]
fn examples_parse_to_the_recorded_trees() {
    check(
        "examples_py strict",
        digest(&examples(), parse_module),
        0x96c8_632d_8bef_fcdb,
    );
}

#[test]
fn serve_project_parses_to_the_recorded_trees() {
    check(
        "serve_project(1000) strict",
        digest(&shelley_bench::serve_project(1000), parse_module),
        0x09f8_fa4a_6429_f5d1,
    );
}

#[test]
fn realworld_corpus_parses_to_the_recorded_trees() {
    let corpus = shelley_bench::realworld_corpus(200);
    check(
        "realworld_corpus(200) recover",
        digest(&corpus, parse_module_recover),
        0x75b7_d2e7_c7c5_5d6a,
    );
    check(
        "realworld_corpus(200) strict",
        digest(&corpus, parse_module),
        0x01df_481d_8f10_6a37,
    );
}

/// Every binary operator the parser builds.
const BINARY: [&str; 24] = [
    "or", "and", "==", "!=", "<", ">", "<=", ">=", "in", "not in", "is", "is not", "|", "&", "^",
    "<<", ">>", "+", "-", "*", "/", "//", "%", "**",
];

/// The one-line modules of the operator grid.
fn operator_grid() -> Vec<(String, String)> {
    let mut lines = Vec::new();
    for x in BINARY {
        for y in BINARY {
            lines.push(format!("v = a {x} b {y} c\n"));
        }
        for prefix in ["not ", "-", "+", "~", "await "] {
            lines.push(format!("v = {prefix}a {x} b\n"));
            lines.push(format!("v = a {x} {prefix}b\n"));
        }
    }
    lines
        .into_iter()
        .map(|line| (String::new(), line))
        .collect()
}

#[test]
fn operator_grid_parses_to_the_recorded_trees() {
    check(
        "operator grid strict",
        digest(&operator_grid(), parse_module),
        0x50a0_220e_59e4_56f9,
    );
}

#[test]
fn one_token_deletions_of_the_examples_keep_their_recorded_outcomes() {
    let mut hash = Fnv::new();
    let mut variants = 0usize;
    for (name, source) in examples() {
        let tokens = tokenize(&source).expect("examples lex");
        for (i, token) in tokens.iter().enumerate() {
            let span = token.span();
            if span.start == span.end {
                continue;
            }
            let cut = format!("{}{}", &source[..span.start], &source[span.end..]);
            write!(hash, "{name} {i}\n{:?}\n", parse_module(&cut)).unwrap();
            variants += 1;
        }
    }
    assert!(variants > 1000, "only {variants} deletions");
    check(
        "examples_py one-token deletions",
        hash.0,
        0xe09d_7f54_4c1e_0b47,
    );
}
