//! Word projections for marker-interleaved traces.
//!
//! Integration automata interleave *marker symbols* (operation names) with
//! subsystem events, and the witnesses of [`crate::antichain::joint_search`]
//! keep them, so error messages print traces exactly as the paper does
//! (`open_a, a.test, a.open`). [`strip_markers`] takes the markers back
//! out.

use crate::symbol::{Symbol, Word};
use std::collections::BTreeSet;

/// Removes every symbol in `markers` from `word`.
pub fn strip_markers(word: &[Symbol], markers: &BTreeSet<Symbol>) -> Word {
    word.iter()
        .copied()
        .filter(|s| !markers.contains(s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Alphabet;

    #[test]
    fn strip_markers_drops_only_markers() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let c = ab.intern("c");
        let markers = BTreeSet::from([a, c]);
        assert_eq!(strip_markers(&[a, b, c, b, a], &markers), vec![b, b]);
    }
}
