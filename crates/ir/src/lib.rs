//! # shelley-ir
//!
//! Executable formalization of the calculus from *Formalizing Model
//! Inference of MicroPython* (DSN-W 2023), §3.2 / Fig. 4.
//!
//! The paper abstracts MicroPython method bodies into a small imperative
//! language that keeps only control flow and calls on constrained objects:
//!
//! ```text
//! p ::= f() | skip | return | p;p | if(*){p} else {p} | loop(*){p}
//! s ::= 0 | R
//! ```
//!
//! This crate provides:
//!
//! * [`Program`] — the syntax, with builder helpers and the paper's
//!   concrete rendering;
//! * [`TraceChecker`] / [`enumerate_traces`] — the trace semantics
//!   `s ⊢ l ∈ p` as an exact decision procedure and a bounded enumerator;
//! * [`denote`] / [`infer`] — the behavior inference `⟦p⟧ = (r, s)` and
//!   `infer(p)`, plus the exit-tagged [`denote_exits`] used by Shelley's
//!   model construction;
//! * [`generate`] — deterministic synthetic programs for benchmarks.
//!
//! The paper's Theorem 1 (soundness), Theorem 2 (completeness) and
//! Corollary 1 (regularity) are exercised executably by this crate's test
//! suite: every enumerated semantic trace is matched by the inferred
//! regular expression, and every word of the inferred expression is
//! derivable in the semantics.
//!
//! # Example
//!
//! ```
//! use shelley_ir::{infer, Program, Status, TraceChecker};
//! use shelley_regular::Alphabet;
//!
//! let mut ab = Alphabet::new();
//! let (a, b, c) = (ab.intern("a"), ab.intern("b"), ab.intern("c"));
//! // Examples 1–3 of the paper:
//! // loop(*){ a(); if(*){ b(); return } else { c() } }
//! let p = Program::loop_(Program::seq(
//!     Program::call(a),
//!     Program::if_(
//!         Program::seq(Program::call(b), Program::ret(0)),
//!         Program::call(c),
//!     ),
//! ));
//! let checker = TraceChecker::new(&p);
//! assert!(checker.derivable(Status::Ongoing, &[a, c, a, c]));   // Example 1
//! assert!(checker.derivable(Status::Returned, &[a, c, a, b]));  // Example 2
//! let behavior = infer(&p);                                     // Example 3
//! assert!(behavior.matches(&[a, c, a, c]));
//! assert!(behavior.matches(&[a, c, a, b]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generate;
mod infer;
mod parser;
mod program;
mod semantics;

pub use infer::{denote, denote_exits, infer, live_exits};
pub use parser::{parse_program, ParseProgramError};
pub use program::{DisplayProgram, ExitId, Program};
pub use semantics::{enumerate_traces, EnumConfig, Status, TraceChecker};
