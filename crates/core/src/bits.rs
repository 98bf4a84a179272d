//! Flat bitsets over `u64` words: the facts of the lint stage's analyses
//! (field sets, definite assignment, typestate relations).
//!
//! The free functions work on any word slice, so a caller can lay many
//! sets out in one flat `nodes × words` matrix. [`Bits`] is one set that
//! keeps up to 64 bits inline and spills larger ones to the heap.

use std::ops::Range;

/// Bits per word.
pub(crate) const WORD: usize = 64;

/// Words needed for `bits` bits.
pub(crate) fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD)
}

/// Sets bit `i`.
pub(crate) fn insert(words: &mut [u64], i: usize) {
    words[i / WORD] |= 1 << (i % WORD);
}

/// Whether bit `i` is set.
pub(crate) fn contains(words: &[u64], i: usize) -> bool {
    (words[i / WORD] >> (i % WORD)) & 1 == 1
}

/// The set bits of `words` inside `range`, ascending.
pub(crate) fn ones(words: &[u64], range: Range<usize>) -> Ones<'_> {
    Ones {
        words,
        next: range.start,
        end: range.end,
    }
}

/// Iterator of [`ones`].
pub(crate) struct Ones<'a> {
    words: &'a [u64],
    next: usize,
    end: usize,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.next < self.end {
            let w = self.next / WORD;
            let rest = self.words[w] >> (self.next % WORD);
            if rest == 0 {
                self.next = (w + 1) * WORD;
                continue;
            }
            let i = self.next + rest.trailing_zeros() as usize;
            if i >= self.end {
                break;
            }
            self.next = i + 1;
            return Some(i);
        }
        self.next = self.end;
        None
    }
}

/// One bitset of a fixed length: inline up to [`WORD`] bits, one heap
/// slice beyond, so small sets clone and compare without allocating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Bits {
    /// At most [`WORD`] bits.
    Inline(u64),
    /// More than [`WORD`] bits.
    Heap(Box<[u64]>),
}

impl Bits {
    /// The empty set of `len` bits.
    pub(crate) fn new(len: usize) -> Bits {
        if len <= WORD {
            Bits::Inline(0)
        } else {
            Bits::Heap(vec![0; words_for(len)].into_boxed_slice())
        }
    }

    /// The words.
    pub(crate) fn words(&self) -> &[u64] {
        match self {
            Bits::Inline(w) => std::slice::from_ref(w),
            Bits::Heap(ws) => ws,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match self {
            Bits::Inline(w) => std::slice::from_mut(w),
            Bits::Heap(ws) => ws,
        }
    }

    /// Sets bit `i`.
    pub(crate) fn insert(&mut self, i: usize) {
        insert(self.words_mut(), i);
    }

    /// Whether bit `i` is set.
    pub(crate) fn contains(&self, i: usize) -> bool {
        contains(self.words(), i)
    }

    /// Whether no bit is set.
    pub(crate) fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Clears every bit.
    pub(crate) fn clear(&mut self) {
        self.words_mut().fill(0);
    }

    /// Unions `other` (of the same length) in, returning whether `self`
    /// grew.
    pub(crate) fn union_with(&mut self, other: &Bits) -> bool {
        let mut grew = false;
        for (w, &o) in self.words_mut().iter_mut().zip(other.words()) {
            grew |= o & !*w != 0;
            *w |= o;
        }
        grew
    }

    /// The set bits inside `range`, ascending.
    pub(crate) fn ones(&self, range: Range<usize>) -> Ones<'_> {
        ones(self.words(), range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_walk_ranges_across_words() {
        let mut words = vec![0u64; 3];
        for i in [0, 5, 63, 64, 100, 191] {
            insert(&mut words, i);
        }
        assert_eq!(
            ones(&words, 0..192).collect::<Vec<_>>(),
            [0, 5, 63, 64, 100, 191]
        );
        assert_eq!(ones(&words, 5..100).collect::<Vec<_>>(), [5, 63, 64]);
        assert_eq!(ones(&words, 101..191).count(), 0);
        assert!(contains(&words, 100) && !contains(&words, 99));
    }

    #[test]
    fn bits_spill_past_one_word() {
        let mut small = Bits::new(64);
        assert!(matches!(small, Bits::Inline(_)));
        small.insert(63);
        let mut big = Bits::new(65);
        assert!(matches!(big, Bits::Heap(_)));
        big.insert(64);
        let mut other = Bits::new(65);
        other.insert(3);
        assert!(big.union_with(&other));
        assert!(!big.union_with(&other));
        assert_eq!(big.ones(0..65).collect::<Vec<_>>(), [3, 64]);
        big.clear();
        assert!(big.is_empty() && !small.is_empty());
    }
}
