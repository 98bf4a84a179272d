//! Bounded shortlex enumeration of accepted words.
//!
//! Used heavily by the property-test suites: enumerating the words of an
//! inferred behavior lets us replay each one through the paper's trace
//! semantics (Theorem 2 direction), and vice versa.

use crate::dfa::Dfa;
use crate::nfa::{Label, Nfa};
use crate::symbol::{Symbol, Word};
use std::collections::VecDeque;

impl Dfa {
    /// Enumerates accepted words in shortlex order, up to `max_len` symbols
    /// and at most `max_count` results.
    ///
    /// # Examples
    ///
    /// ```
    /// use shelley_regular::{Alphabet, Regex, Nfa, Dfa};
    /// use std::sync::Arc;
    ///
    /// let mut ab = Alphabet::new();
    /// let a = ab.intern("a");
    /// let dfa = Dfa::from_nfa(&Nfa::from_regex(&Regex::star(Regex::sym(a)), Arc::new(ab)));
    /// let words = dfa.enumerate_words(3, 10);
    /// assert_eq!(words.len(), 4); // ε, a, aa, aaa
    /// ```
    pub fn enumerate_words(&self, max_len: usize, max_count: usize) -> Vec<Word> {
        let mut out = Vec::new();
        if max_count == 0 {
            return out;
        }
        // Prune paths through dead states (no accepting state reachable):
        // without this the search tree is |Σ|^max_len even for tiny
        // languages.
        let dead = self.dead_states();
        if dead[self.start()] {
            return out;
        }
        let mut queue: VecDeque<(usize, Word)> = VecDeque::new();
        queue.push_back((self.start(), Vec::new()));
        while let Some((q, word)) = queue.pop_front() {
            if self.is_accepting(q) {
                out.push(word.clone());
                if out.len() >= max_count {
                    return out;
                }
            }
            if word.len() == max_len {
                continue;
            }
            for s in 0..self.alphabet().len() {
                let sym = Symbol::from_index(s);
                let dst = self.step(q, sym);
                if dead[dst] {
                    continue;
                }
                let mut next = word.clone();
                next.push(sym);
                queue.push_back((dst, next));
            }
        }
        out
    }

    /// Counts accepted words of each length `0..=max_len` by dynamic
    /// programming (no enumeration).
    pub fn count_words_by_length(&self, max_len: usize) -> Vec<u64> {
        let n = self.num_states();
        let mut counts = vec![0u64; n];
        counts[self.start()] = 1;
        let mut out = Vec::with_capacity(max_len + 1);
        let accepted = |counts: &[u64]| -> u64 {
            (0..n)
                .filter(|&q| self.is_accepting(q))
                .map(|q| counts[q])
                .fold(0u64, u64::saturating_add)
        };
        out.push(accepted(&counts));
        for _ in 0..max_len {
            let mut next = vec![0u64; n];
            for (q, &count) in counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                for s in 0..self.alphabet().len() {
                    let dst = self.step(q, Symbol::from_index(s));
                    next[dst] = next[dst].saturating_add(count);
                }
            }
            counts = next;
            out.push(accepted(&counts));
        }
        out
    }
}

impl Nfa {
    /// The word of the least accepting path whose word satisfies `pred`,
    /// among paths with at most `max_len` symbol edges — a brute-force
    /// oracle for the witness searches, sharing no code with them.
    ///
    /// Paths are ordered by their number of symbol edges first. Equal
    /// counts compare edge by edge from the start state: at each state its
    /// symbol edges come first, in ascending edge index, then its ε-edges
    /// in *descending* edge index, and a path precedes its extensions.
    /// That is the order in which a 0-1 breadth-first search visits paths
    /// when it appends symbol successors to the back of its deque and
    /// pushes ε-successors to the front. A path that revisits a state
    /// without consuming a symbol in between repeats a configuration and
    /// is never considered.
    ///
    /// The enumeration is exhaustive (exponential in `max_len`): keep the
    /// automaton and the bound small.
    pub fn least_path_word(
        &self,
        max_len: usize,
        mut pred: impl FnMut(&[Symbol]) -> bool,
    ) -> Option<Word> {
        let mut best: Option<Word> = None;
        let mut word = Vec::new();
        let mut run = vec![self.start()];
        self.least_path_from(
            self.start(),
            max_len,
            &mut word,
            &mut run,
            &mut pred,
            &mut best,
        );
        best
    }

    fn least_path_from(
        &self,
        q: usize,
        max_len: usize,
        word: &mut Word,
        run: &mut Vec<usize>,
        pred: &mut impl FnMut(&[Symbol]) -> bool,
        best: &mut Option<Word>,
    ) {
        // A path found earlier with as few symbols precedes this one.
        if best.as_ref().is_some_and(|b| b.len() <= word.len()) {
            return;
        }
        if self.is_accepting(q) && pred(word) {
            *best = Some(word.clone());
            return;
        }
        let edges = self.edges_from(q);
        let symbols = edges.iter().filter_map(|&(label, dst)| match label {
            Label::Sym(s) => Some((Some(s), dst)),
            Label::Eps => None,
        });
        let epsilons = edges
            .iter()
            .rev()
            .filter(|(label, _)| *label == Label::Eps)
            .map(|&(_, dst)| (None, dst));
        for (sym, dst) in symbols.chain(epsilons) {
            match sym {
                Some(s) if word.len() < max_len => {
                    let saved = std::mem::replace(run, vec![dst]);
                    word.push(s);
                    self.least_path_from(dst, max_len, word, run, pred, best);
                    word.pop();
                    *run = saved;
                }
                None if !run.contains(&dst) => {
                    run.push(dst);
                    self.least_path_from(dst, max_len, word, run, pred, best);
                    run.pop();
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;
    use crate::symbol::Alphabet;
    use std::sync::Arc;

    #[test]
    fn enumerate_is_shortlex_and_complete() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let r = Regex::star(Regex::union(Regex::sym(a), Regex::sym(b)));
        let dfa = Dfa::from_nfa(&Nfa::from_regex(&r, Arc::new(ab)));
        let words = dfa.enumerate_words(2, 100);
        // ε, a, b, aa, ab, ba, bb
        assert_eq!(words.len(), 7);
        assert_eq!(words[0], Vec::<Symbol>::new());
        assert!(words.windows(2).all(|w| w[0].len() <= w[1].len()));
    }

    #[test]
    fn enumerate_respects_count_cap() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let dfa = Dfa::from_nfa(&Nfa::from_regex(&Regex::star(Regex::sym(a)), Arc::new(ab)));
        assert_eq!(dfa.enumerate_words(50, 5).len(), 5);
    }

    #[test]
    fn count_words_matches_enumeration() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let r = Regex::concat(
            Regex::star(Regex::sym(a)),
            Regex::union(Regex::sym(b), Regex::epsilon()),
        );
        let dfa = Dfa::from_nfa(&Nfa::from_regex(&r, Arc::new(ab)));
        let counts = dfa.count_words_by_length(4);
        let words = dfa.enumerate_words(4, 10_000);
        for (len, &count) in counts.iter().enumerate() {
            let enumerated = words.iter().filter(|w| w.len() == len).count() as u64;
            assert_eq!(count, enumerated, "length {len}");
        }
    }
}
