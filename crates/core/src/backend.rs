//! Claim-checking backend selection.
//!
//! Two engines can decide a temporal claim `L(model) ⊆ L(φ)`:
//!
//! * **explicit** — [`shelley_ltlf::check_claim`], a joint breadth-first
//!   search over `(model subset, monitor formula)` pairs. Fastest on the
//!   small monitors real claims produce; exponential on adversarial
//!   claims whose progression monitor has `2ⁿ` reachable states.
//! * **symbolic** — [`shelley_symbolic::check_claim`], BDD image
//!   iteration over the same product. Pays a constant encoding overhead
//!   but represents a `2ⁿ`-state frontier as one polynomial BDD.
//!
//! Both are **verdict-identical** — the differential suite in
//! `shelley-symbolic` pins this on thousands of random system/claim
//! pairs, checking each verdict against the LTLf trace semantics — so
//! [`Backend`] is a performance knob, not a semantics knob.
//! The default [`Backend::Auto`] resolves per claim: it estimates the
//! monitor state count as `2^t` for `t` temporal connectives in the
//! negated claim and switches to the symbolic engine at
//! [`AUTO_SYMBOLIC_THRESHOLD`]. Every claim in the paper's examples sits
//! far below the threshold, so `auto` behaves exactly like `explicit`
//! on them.

use shelley_ltlf::Formula;
use std::fmt;
use std::str::FromStr;

/// Monitor-state estimates at or above this make [`Backend::Auto`]
/// resolve to the symbolic engine (`4096 = 2¹²`: roughly where explicit
/// monitor enumeration starts to dominate the BDD encoding overhead).
pub const AUTO_SYMBOLIC_THRESHOLD: u64 = 4096;

/// Which engine decides temporal claims. See the [module docs](self).
#[derive(
    Debug,
    Clone,
    Copy,
    Default,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    serde::Serialize,
    serde::Deserialize,
)]
#[serde(rename_all = "snake_case")]
pub enum Backend {
    /// Resolve per claim: explicit below [`AUTO_SYMBOLIC_THRESHOLD`],
    /// symbolic at or above it.
    #[default]
    Auto,
    /// Always the explicit joint breadth-first search.
    Explicit,
    /// Always the symbolic BDD fixpoint.
    Symbolic,
}

impl Backend {
    /// Resolves `Auto` against the negated claim the monitor will track;
    /// fixed backends return themselves. Never returns [`Backend::Auto`].
    pub fn resolve(self, negated_claim: &Formula) -> Backend {
        match self {
            Backend::Auto => {
                if monitor_estimate(negated_claim) >= AUTO_SYMBOLIC_THRESHOLD {
                    Backend::Symbolic
                } else {
                    Backend::Explicit
                }
            }
            fixed => fixed,
        }
    }
}

/// An upper estimate of the progression monitor's reachable state count
/// for `f`: `2^t` (saturating) for `t` temporal connectives, since
/// progression states are obligation sets over temporal subformulas.
pub fn monitor_estimate(f: &Formula) -> u64 {
    1u64.checked_shl(temporal_count(f)).unwrap_or(u64::MAX)
}

fn temporal_count(f: &Formula) -> u32 {
    match f {
        Formula::True
        | Formula::False
        | Formula::Atom(_)
        | Formula::NotAtom(_)
        | Formula::Empty
        | Formula::Nonempty => 0,
        Formula::And(fs) | Formula::Or(fs) => fs.iter().map(temporal_count).sum(),
        Formula::Next(g) | Formula::WeakNext(g) => 1 + temporal_count(g),
        Formula::Until(a, b) | Formula::Release(a, b) => 1 + temporal_count(a) + temporal_count(b),
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::Auto => "auto",
            Backend::Explicit => "explicit",
            Backend::Symbolic => "symbolic",
        })
    }
}

/// The error of parsing an unknown backend name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError {
    input: String,
}

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backend `{}` (expected auto, explicit, or symbolic)",
            self.input
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl FromStr for Backend {
    type Err = ParseBackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Backend::Auto),
            "explicit" => Ok(Backend::Explicit),
            "symbolic" => Ok(Backend::Symbolic),
            other => Err(ParseBackendError {
                input: other.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json;
    use shelley_ltlf::parse_formula;
    use shelley_regular::Alphabet;

    #[test]
    fn names_round_trip_through_display_and_from_str() {
        for backend in [Backend::Auto, Backend::Explicit, Backend::Symbolic] {
            assert_eq!(backend.to_string().parse::<Backend>().unwrap(), backend);
        }
        assert!("nusmv".parse::<Backend>().is_err());
        let e = "smv".parse::<Backend>().unwrap_err();
        assert!(e.to_string().contains("auto, explicit, or symbolic"), "{e}");
        let e = "?".parse::<Backend>().unwrap_err();
        assert!(e.to_string().contains("unknown backend `?`"));
    }

    #[test]
    fn wire_encoding_is_the_lowercase_name() {
        assert_eq!(json::to_string(&Backend::Auto), r#""auto""#);
        assert_eq!(json::to_string(&Backend::Symbolic), r#""symbolic""#);
        let back: Backend = json::from_str(r#""explicit""#).unwrap();
        assert_eq!(back, Backend::Explicit);
        assert!(json::from_str::<Backend>(r#""smv""#).is_err());
    }

    #[test]
    fn auto_resolves_small_claims_to_the_explicit_engine() {
        let mut ab = Alphabet::new();
        // The paper's own claim: two temporal connectives, tiny monitor.
        let claim = parse_formula("(!a.open) W b.open", &mut ab).unwrap();
        assert_eq!(Backend::Auto.resolve(&claim.negate()), Backend::Explicit);
        assert!(monitor_estimate(&claim.negate()) < AUTO_SYMBOLIC_THRESHOLD);
    }

    #[test]
    fn auto_resolves_adversarial_claims_to_the_symbolic_engine() {
        let mut ab = Alphabet::new();
        // F a0 & F a1 & … — the 2ⁿ monitor family the benchmark uses.
        let text: Vec<String> = (0..14).map(|i| format!("F a{i}")).collect();
        let claim = parse_formula(&text.join(" & "), &mut ab).unwrap();
        assert_eq!(Backend::Auto.resolve(&claim.negate()), Backend::Symbolic);
    }

    #[test]
    fn fixed_backends_resolve_to_themselves() {
        let mut ab = Alphabet::new();
        let big: Vec<String> = (0..20).map(|i| format!("F a{i}")).collect();
        let claim = parse_formula(&big.join(" & "), &mut ab).unwrap();
        for fixed in [Backend::Explicit, Backend::Symbolic] {
            assert_eq!(fixed.resolve(&claim.negate()), fixed);
        }
    }

    #[test]
    fn monitor_estimate_saturates_instead_of_overflowing() {
        let mut ab = Alphabet::new();
        let huge: Vec<String> = (0..70).map(|i| format!("F a{i}")).collect();
        let claim = parse_formula(&huge.join(" & "), &mut ab).unwrap();
        assert_eq!(monitor_estimate(&claim.negate()), u64::MAX);
    }
}
