//! # shelley-regular
//!
//! Regular-expression and finite-automata toolkit underlying the Shelley
//! model-inference pipeline from *Formalizing Model Inference of
//! MicroPython* (DSN-W 2023).
//!
//! The paper's central result (Corollary 1) is that the behavior of a
//! method body is a **regular language**: behavior inference produces a
//! regular expression (`r ::= ε | ∅ | f | r·r | r+r | r*`), and all
//! downstream verification — subsystem-usage checking and LTLf temporal
//! claims — reduces to automata-theoretic operations on that language. This
//! crate provides those foundations:
//!
//! * [`Symbol`] / [`Alphabet`] — interned event names (`a.open`, `test`).
//! * [`Regex`] — the paper's regular expressions with smart constructors,
//!   [Brzozowski derivatives](Regex::derivative) and
//!   [membership](Regex::matches).
//! * [`Nfa`] — ε-NFAs with Thompson compilation, a builder for
//!   specification graphs, projection by symbol erasure.
//! * [`StateSet`] / [`CompiledNfa`] — the bitset state engine: dense
//!   `u64`-block subsets plus once-per-NFA compiled ε-closures and CSR
//!   successor tables, powering allocation-free determinized stepping in
//!   every hot path below.
//! * [`Dfa`] — complete DFAs as one flat row-major `u32` transition table
//!   plus an accepting [`StateSet`]: the table form that export,
//!   [Hopcroft minimization](Dfa::minimize), shortlex
//!   [word enumeration](Dfa::enumerate_words) and complementation read.
//!   Its subset construction, emptiness and inclusion run on [`lang`].
//! * [`antichain`] — the one inclusion search under both verification
//!   checks: a marker-aware 0-1 BFS over (NFA state, monitor state) pairs
//!   that discards pairs a kept pair covers (De Wulf–Doyen–Henzinger–
//!   Raskin antichains), returning the paper's annotated counterexamples
//!   (`open_a, a.test, a.open`).
//! * [`lang`] — lazy language views, the one engine for language
//!   operations: a [`lang::Lang`] trait with on-the-fly combinators
//!   (product, complement) and generic searches that explore only
//!   reachable states, with [`lang::materialize`] building a [`Dfa`] table
//!   where a whole one is needed.
//! * [`ops`] — marker stripping of words.
//! * DOT rendering for the behavior diagrams of Figures 1–3.
//!
//! # Example
//!
//! Check that every behavior of a client is a valid usage of a
//! specification:
//!
//! ```
//! use shelley_regular::{Alphabet, Regex, Nfa, Dfa, parse_regex};
//! use std::sync::Arc;
//!
//! let mut ab = Alphabet::new();
//! // Valve usage specification: test then (open·close | clean), repeatedly.
//! let spec = parse_regex("(test ; (open ; close + clean))*", &mut ab)?;
//! // A client that tests then opens then closes once.
//! let client = parse_regex("test ; open ; close", &mut ab)?;
//! let ab = Arc::new(ab);
//! let spec_dfa = Dfa::from_nfa(&Nfa::from_regex(&spec, ab.clone()));
//! let client_dfa = Dfa::from_nfa(&Nfa::from_regex(&client, ab));
//! assert!(client_dfa.subset_of(&spec_dfa).is_ok());
//! # Ok::<(), shelley_regular::ParseRegexError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod antichain;
mod compiled;
mod derivative;
mod dfa;
mod dot;
mod enumerate;
pub mod lang;
mod minimize;
mod nfa;
pub mod ops;
mod parser;
mod regex;
mod stateset;
mod symbol;
mod to_regex;

pub use compiled::CompiledNfa;
pub use dfa::Dfa;
pub use nfa::{Label, Nfa, NfaBuilder, StateId};
pub use parser::{parse_regex, ParseRegexError};
pub use regex::{DisplayRegex, Regex};
pub use stateset::StateSet;
pub use symbol::{Alphabet, Symbol, Word};
