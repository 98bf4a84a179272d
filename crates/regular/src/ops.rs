//! Word projections for marker-interleaved traces.
//!
//! Integration automata interleave *marker symbols* (operation names) with
//! subsystem events, and the witnesses of [`crate::antichain::joint_search`]
//! keep them, so error messages print traces exactly as the paper does
//! (`open_a, a.test, a.open`). These helpers take the markers back out, or
//! keep only one subsystem's events.

use crate::symbol::{Symbol, Word};
use std::collections::BTreeSet;

/// Removes every symbol in `markers` from `word`.
pub fn strip_markers(word: &[Symbol], markers: &BTreeSet<Symbol>) -> Word {
    word.iter()
        .copied()
        .filter(|s| !markers.contains(s))
        .collect()
}

/// Keeps only the symbols in `keep` (projection onto a sub-alphabet).
pub fn project(word: &[Symbol], keep: &BTreeSet<Symbol>) -> Word {
    word.iter().copied().filter(|s| keep.contains(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Alphabet;

    #[test]
    fn project_keeps_only_requested_symbols() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let c = ab.intern("c");
        let keep = BTreeSet::from([a, c]);
        assert_eq!(project(&[a, b, c, b, a], &keep), vec![a, c, a]);
        assert_eq!(strip_markers(&[a, b, c, b, a], &keep), vec![b, b]);
    }
}
