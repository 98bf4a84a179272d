//! Dense bitset representation of NFA state sets.
//!
//! Subset construction, on-the-fly determinization, and the joint product
//! searches all manipulate *sets of NFA states* in their innermost loops.
//! The original engine represented them as `BTreeSet<StateId>` — one heap
//! node per element, pointer chasing on every membership test, and a fresh
//! allocation per step. [`StateSet`] replaces that with `⌈n/64⌉` dense
//! `u64` blocks sized once to the automaton: insertion and membership are a
//! shift and a mask, union is a word-wise `|=` loop, and equality/hashing
//! operate on the raw blocks, which is what makes it usable as a hash-map
//! key in the subset-construction index and the generic [`Lang`] searches.
//!
//! All sets manipulated together must come from the same automaton (same
//! [`StateSet::new`] capacity): equality and hashing compare raw blocks, so
//! sets of differing capacity are never equal even when they contain the
//! same states. [`CompiledNfa`](crate::CompiledNfa) upholds this by
//! construction.
//!
//! [`Lang`]: crate::lang::Lang

use crate::nfa::StateId;
use std::fmt;

/// Bits per block (`u64`).
const BITS: usize = 64;

/// A set of NFA states as a fixed-capacity dense bitset.
///
/// # Examples
///
/// ```
/// use shelley_regular::StateSet;
///
/// let mut s = StateSet::new(130);
/// assert!(s.insert(0));
/// assert!(s.insert(129));
/// assert!(!s.insert(129));
/// assert!(s.contains(129) && !s.contains(64));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateSet {
    blocks: Box<[u64]>,
}

impl StateSet {
    /// Creates an empty set with capacity for states `0..nstates`.
    pub fn new(nstates: usize) -> StateSet {
        StateSet {
            blocks: vec![0u64; nstates.div_ceil(BITS)].into_boxed_slice(),
        }
    }

    /// Number of states this set can hold (rounded up to whole blocks).
    pub fn capacity(&self) -> usize {
        self.blocks.len() * BITS
    }

    /// Inserts `state`, returning whether it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `state` is beyond the set's capacity.
    pub fn insert(&mut self, state: StateId) -> bool {
        let block = &mut self.blocks[state / BITS];
        let mask = 1u64 << (state % BITS);
        let fresh = *block & mask == 0;
        *block |= mask;
        fresh
    }

    /// Whether `state` is in the set (out-of-capacity states are not).
    pub fn contains(&self, state: StateId) -> bool {
        self.blocks
            .get(state / BITS)
            .is_some_and(|b| b & (1u64 << (state % BITS)) != 0)
    }

    /// Unions `other` into `self`, block-wise.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ (sets from different automata).
    pub fn union_with(&mut self, other: &StateSet) {
        assert_eq!(
            self.blocks.len(),
            other.blocks.len(),
            "union of state sets with different capacities"
        );
        for (dst, src) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            *dst |= src;
        }
    }

    /// Intersects `self` with `other`, block-wise (`self &= other`).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ (sets from different automata).
    pub fn intersect_with(&mut self, other: &StateSet) {
        assert_eq!(
            self.blocks.len(),
            other.blocks.len(),
            "intersection of state sets with different capacities"
        );
        for (dst, src) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            *dst &= src;
        }
    }

    /// Removes every state of `other` from `self`, block-wise
    /// (`self &= !other`).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ (sets from different automata).
    pub fn difference_with(&mut self, other: &StateSet) {
        assert_eq!(
            self.blocks.len(),
            other.blocks.len(),
            "difference of state sets with different capacities"
        );
        for (dst, src) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            *dst &= !src;
        }
    }

    /// Whether every state of `self` is also in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ (sets from different automata).
    pub fn is_subset_of(&self, other: &StateSet) -> bool {
        assert_eq!(
            self.blocks.len(),
            other.blocks.len(),
            "subset test of state sets with different capacities"
        );
        self.blocks
            .iter()
            .zip(other.blocks.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Whether the sets share at least one state.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ (sets from different automata).
    pub fn intersects(&self, other: &StateSet) -> bool {
        assert_eq!(
            self.blocks.len(),
            other.blocks.len(),
            "intersection of state sets with different capacities"
        );
        self.blocks
            .iter()
            .zip(other.blocks.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Removes every state.
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// Number of states in the set.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Iterates the states in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            blocks: &self.blocks,
            block_idx: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }
}

impl fmt::Debug for StateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a StateSet {
    type Item = StateId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Ascending iterator over the states of a [`StateSet`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    blocks: &'a [u64],
    block_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = StateId;

    fn next(&mut self) -> Option<StateId> {
        while self.current == 0 {
            self.block_idx += 1;
            self.current = *self.blocks.get(self.block_idx)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.block_idx * BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    #[test]
    fn insert_contains_iter() {
        let mut s = StateSet::new(200);
        for q in [3, 64, 65, 127, 128, 199] {
            assert!(s.insert(q));
        }
        assert!(!s.insert(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 65, 127, 128, 199]);
        assert_eq!(s.len(), 6);
        assert!(!s.contains(4));
        assert!(!s.contains(100_000));
    }

    #[test]
    fn union_and_intersects() {
        let mut a = StateSet::new(100);
        let mut b = StateSet::new(100);
        a.insert(1);
        b.insert(70);
        assert!(!a.intersects(&b));
        a.union_with(&b);
        assert!(a.contains(1) && a.contains(70));
        assert!(a.intersects(&b));
    }

    #[test]
    fn equality_and_hash_follow_contents() {
        let mut a = StateSet::new(130);
        let mut b = StateSet::new(130);
        a.insert(5);
        a.insert(129);
        b.insert(129);
        b.insert(5);
        assert_eq!(a, b);
        let hash = |s: &StateSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        b.insert(0);
        assert_ne!(a, b);
    }

    #[test]
    fn intersect_and_difference() {
        let mut a = StateSet::new(200);
        let mut b = StateSet::new(200);
        for q in [3, 64, 127, 128, 199] {
            a.insert(q);
        }
        for q in [64, 128, 5] {
            b.insert(q);
        }
        let mut inter = a.clone();
        inter.intersect_with(&b);
        assert_eq!(inter.iter().collect::<Vec<_>>(), vec![64, 128]);
        let mut diff = a.clone();
        diff.difference_with(&b);
        assert_eq!(diff.iter().collect::<Vec<_>>(), vec![3, 127, 199]);
        // a \ b and a ∩ b partition a.
        diff.union_with(&inter);
        assert_eq!(diff, a);
        // Difference with self empties; intersection with self is identity.
        let mut gone = a.clone();
        gone.difference_with(&a.clone());
        assert!(gone.is_empty());
        let mut same = a.clone();
        same.intersect_with(&a.clone());
        assert_eq!(same, a);
    }

    #[test]
    #[should_panic(expected = "different capacities")]
    fn intersect_rejects_mismatched_capacity() {
        let mut a = StateSet::new(64);
        let b = StateSet::new(128);
        a.intersect_with(&b);
    }

    #[test]
    #[should_panic(expected = "different capacities")]
    fn difference_rejects_mismatched_capacity() {
        let mut a = StateSet::new(64);
        let b = StateSet::new(128);
        a.difference_with(&b);
    }

    #[test]
    fn subset_relation() {
        let mut a = StateSet::new(100);
        let mut b = StateSet::new(100);
        assert!(a.is_subset_of(&b)); // empty ⊆ empty
        b.insert(3);
        b.insert(70);
        assert!(a.is_subset_of(&b));
        a.insert(70);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        a.insert(4);
        assert!(!a.is_subset_of(&b));
    }

    #[test]
    fn clear_empties() {
        let mut s = StateSet::new(10);
        s.insert(7);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn zero_capacity_set_works() {
        let s = StateSet::new(0);
        assert!(s.is_empty());
        assert!(!s.contains(0));
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "different capacities")]
    fn union_rejects_mismatched_capacity() {
        let mut a = StateSet::new(64);
        let b = StateSet::new(128);
        a.union_with(&b);
    }
}
