//! # shelley-ltlf
//!
//! Linear temporal logic on finite traces (LTLf) for Shelley's temporal
//! claims (*Formalizing Model Inference of MicroPython*, DSN-W 2023, §2.2).
//!
//! Shelley checks annotations such as
//! `@claim("(!a.open) W b.open")` — "valve `a` stays closed at least until
//! valve `b` opens" — against the regular language of behaviors extracted
//! from a composite class. This crate provides:
//!
//! * [`Formula`] — NNF formulas with ACI-normalized boolean connectives
//!   and the full operator set (`X`, weak `X[!]`, `F`, `G`, `U`, `R`, and
//!   the paper's weak-until `W = (φ U ψ) ∨ G φ`);
//! * [`parse_formula`] — the claim syntax, interning its events, and
//!   [`parse_formula_over`], which looks them up in a model's alphabet;
//! * [`eval`] / [`progress`] / [`accepts_empty`] — finite-trace semantics
//!   by direct evaluation and by formula progression;
//! * [`MonitorView`] — the formula's monitor as a *lazy*
//!   [`Lang`](shelley_regular::lang::Lang) view driven by progression on
//!   interned, memoized states, with
//!   [`to_dfa`] (= [`MonitorView::materialize`]) as the eager escape hatch;
//! * [`check_claim`] — language-inclusion model checking on the one
//!   inclusion search of [`shelley_regular::antichain`], with shortest
//!   counterexamples, marker-aware so Shelley's annotated traces
//!   (`open_a, a.test, a.open`) survive into error messages; the monitor is
//!   never compiled up front.
//!
//! # Example
//!
//! ```
//! use shelley_ltlf::{parse_formula, check_claim, ClaimOutcome};
//! use shelley_regular::{parse_regex, Alphabet, Nfa};
//! use std::{collections::BTreeSet, sync::Arc};
//!
//! let mut ab = Alphabet::new();
//! let claim = parse_formula("(!a.open) W b.open", &mut ab)?;
//! let model = parse_regex("a.test ; a.open ; b.open", &mut ab).unwrap();
//! let nfa = Nfa::from_regex(&model, Arc::new(ab));
//! let outcome = check_claim(&nfa, &claim, &BTreeSet::new());
//! assert!(!outcome.holds()); // a.open happens before b.open
//! # Ok::<(), shelley_ltlf::ParseFormulaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod automaton;
mod check;
mod parser;
mod semantics;
mod simplify;
mod syntax;

pub use automaton::{to_dfa, MonitorView};
pub use check::{check_claim, check_claim_counted, ClaimOutcome};
pub use parser::{parse_formula, parse_formula_over, ParseFormulaError};
pub use semantics::{accepts_empty, eval, eval_direct, progress};
pub use simplify::simplify;
pub use syntax::{DisplayFormula, Formula};
