//! # shelley-smv
//!
//! The NFA → NuSMV translation sketched in the paper's future-work section
//! (§5): *"Shelley delegates the actual model checking to NuSMV, by
//! implementing a translation from a nondeterministic finite automaton
//! (NFA) into a NuSMV model. Our approach is essentially to encode a
//! regular-language as an ω-regular language."*
//!
//! This crate emits that artifact and — because NuSMV itself is not
//! available offline — validates the encoding with an explicit-state
//! simulator: the emitted transition relation must agree with the source
//! automaton on every word up to a bound.
//!
//! * [`SmvModel`] — a `MODULE main` AST with printer and simulator;
//! * [`nfa_to_smv`] / [`dfa_to_smv`] — the regular → ω-regular encoding
//!   (determinize, add a `_stop` padding event, `accepted` define,
//!   `G (!alive -> accepted)` acceptance spec);
//! * [`ltlf_to_ltl`] — the standard LTLf → LTL relativization to the
//!   `alive` proposition for `@claim` formulas;
//! * [`validate_model`] — exhaustive bounded agreement checking.
//!
//! # Example
//!
//! ```
//! use shelley_smv::{nfa_to_smv, validate_model};
//! use shelley_regular::{parse_regex, Alphabet, Dfa, Nfa};
//! use std::sync::Arc;
//!
//! let mut ab = Alphabet::new();
//! let usage = parse_regex("(test ; (open ; close + clean))*", &mut ab)?;
//! let nfa = Nfa::from_regex(&usage, Arc::new(ab));
//! let model = nfa_to_smv(&nfa, "Valve usage", &[]);
//! assert!(model.to_smv().contains("MODULE main"));
//! let dfa = Dfa::from_nfa(&nfa).minimize();
//! assert!(validate_model(&model, &dfa, 4).passed());
//! # Ok::<(), shelley_regular::ParseRegexError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ltl;
mod model;
mod translate;
mod validate;

pub use ltl::{eval_padded, translate_formula, Ltl};
pub use model::{sanitize, EnumVar, SmvModel, TransCase};
pub use translate::{dfa_to_smv, ltlf_to_ltl, nfa_to_smv, STOP_EVENT};
pub use validate::{validate_model, ValidationReport};
