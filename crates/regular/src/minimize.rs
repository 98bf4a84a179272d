//! DFA minimization (Hopcroft's algorithm).

use crate::dfa::{cell, Dfa};
use crate::nfa::StateId;
use crate::symbol::Symbol;
use std::collections::{HashMap, VecDeque};

/// A refinable partition of `0..n` in the style of Valmari/Knuutila: the
/// elements live in one permutation array, each block is a contiguous
/// slice of it, and splitting a block moves only the *marked* elements to
/// its front. Marking and splitting are O(1) array swaps, so one Hopcroft
/// splitter round costs O(|predecessors|) instead of a scan over every
/// affected block's elements.
///
/// All state is plain arrays and the `touched` stack is filled in mark
/// order, so refinement — and hence minimized-DFA state numbering — is
/// deterministic run to run.
struct RefinablePartition {
    /// Permutation of `0..n`; each block is `elems[begin[b]..end[b]]`.
    elems: Vec<usize>,
    /// Position of each element inside `elems`.
    loc: Vec<usize>,
    /// Block id of each element.
    block_of: Vec<usize>,
    begin: Vec<usize>,
    end: Vec<usize>,
    /// Marked elements sit at `elems[begin[b]..begin[b] + marked[b]]`.
    marked: Vec<usize>,
    /// Blocks with at least one marked element, in first-mark order.
    touched: Vec<usize>,
}

impl RefinablePartition {
    fn new(n: usize) -> Self {
        RefinablePartition {
            elems: (0..n).collect(),
            loc: (0..n).collect(),
            block_of: vec![0; n],
            begin: vec![0],
            end: vec![n],
            marked: vec![0],
            touched: Vec::new(),
        }
    }

    fn num_blocks(&self) -> usize {
        self.begin.len()
    }

    fn size(&self, b: usize) -> usize {
        self.end[b] - self.begin[b]
    }

    /// Marks one element of its block (idempotent).
    fn mark(&mut self, q: usize) {
        let b = self.block_of[q];
        let i = self.loc[q];
        let m = self.begin[b] + self.marked[b];
        if i < m {
            return; // already marked
        }
        if self.marked[b] == 0 {
            self.touched.push(b);
        }
        self.elems.swap(i, m);
        self.loc[self.elems[i]] = i;
        self.loc[self.elems[m]] = m;
        self.marked[b] += 1;
    }

    /// Splits every touched block into its marked and unmarked halves,
    /// clearing all marks. The *smaller* half becomes the new block
    /// (Hopcroft's invariant); `on_split(old, new)` fires per real split.
    fn split_marked(&mut self, mut on_split: impl FnMut(&Self, usize, usize)) {
        // LIFO over a deterministic stack: order only affects block-id
        // assignment, which stays reproducible because `touched` is built
        // in mark order.
        while let Some(b) = self.touched.pop() {
            let m = std::mem::take(&mut self.marked[b]);
            if m == self.size(b) {
                continue; // fully marked: nothing splits off
            }
            let new_id = self.begin.len();
            if m <= self.size(b) - m {
                // Marked prefix becomes the new block.
                self.begin.push(self.begin[b]);
                self.end.push(self.begin[b] + m);
                self.begin[b] += m;
            } else {
                // Unmarked suffix becomes the new block.
                self.begin.push(self.begin[b] + m);
                self.end.push(self.end[b]);
                self.end[b] = self.begin[b] + m;
            }
            self.marked.push(0);
            for i in self.begin[new_id]..self.end[new_id] {
                self.block_of[self.elems[i]] = new_id;
            }
            on_split(self, b, new_id);
        }
    }
}

impl Dfa {
    /// Returns the unique (up to isomorphism) minimal DFA for this language,
    /// computed with Hopcroft's partition-refinement algorithm over a
    /// refinable partition (constant-time marking and splitting; the
    /// splitter queue holds `(block, symbol)` pairs and always re-enqueues
    /// the smaller half of a split).
    pub fn minimize(&self) -> Dfa {
        let reachable = self.reachable_states();
        let n = reachable.len();
        if n == 0 {
            // Degenerate: unreachable start cannot happen (start is always
            // reachable), so n >= 1 in practice.
            return self.clone();
        }
        // Renumber reachable states densely.
        let mut dense: HashMap<StateId, usize> = HashMap::new();
        for (i, &q) in reachable.iter().enumerate() {
            dense.insert(q, i);
        }
        let nsyms = self.alphabet().len();
        // inverse[s][q] = predecessors of q on s, flattened CSR-style.
        let mut inverse: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); n]; nsyms];
        for (i, &q) in reachable.iter().enumerate() {
            for s in 0..nsyms {
                let dst = dense[&self.step(q, Symbol::from_index(s))];
                inverse[s][dst].push(i);
            }
        }

        // Initial partition: accepting vs rejecting.
        let mut partition = RefinablePartition::new(n);
        for (i, &q) in reachable.iter().enumerate() {
            if self.is_accepting(q) {
                partition.mark(i);
            }
        }
        partition.split_marked(|_, _, _| {});

        // Splitter queue: seed the smaller initial block on every symbol.
        // Worst case n blocks, so `scheduled` can be sized up front.
        let mut worklist: VecDeque<(usize, usize)> = VecDeque::new();
        let mut scheduled = vec![false; n * nsyms.max(1)];
        let seed = if partition.num_blocks() == 2 && partition.size(1) < partition.size(0) {
            1
        } else {
            0
        };
        for s in 0..nsyms {
            worklist.push_back((seed, s));
            scheduled[seed * nsyms + s] = true;
        }

        while let Some((block_id, sym)) = worklist.pop_front() {
            scheduled[block_id * nsyms + sym] = false;
            // Snapshot the splitter: marking below permutes `elems`,
            // including possibly this very block's slice.
            let splitter: Vec<usize> =
                partition.elems[partition.begin[block_id]..partition.end[block_id]].to_vec();
            for &q in &splitter {
                for &p in &inverse[sym][q] {
                    partition.mark(p);
                }
            }
            partition.split_marked(|p, old, new| {
                for s in 0..nsyms {
                    if scheduled[old * nsyms + s] {
                        // Old block already pending: both halves must be
                        // processed.
                        worklist.push_back((new, s));
                        scheduled[new * nsyms + s] = true;
                    } else {
                        let idx = if p.size(new) < p.size(old) { new } else { old };
                        worklist.push_back((idx, s));
                        scheduled[idx * nsyms + s] = true;
                    }
                }
            });
        }

        let class: Vec<usize> = partition.block_of.clone();
        self.quotient(&reachable, &class, partition.num_blocks())
    }

    fn reachable_states(&self) -> Vec<StateId> {
        let mut seen = vec![false; self.num_states()];
        let mut order = Vec::new();
        let mut queue = VecDeque::from([self.start()]);
        seen[self.start()] = true;
        while let Some(q) = queue.pop_front() {
            order.push(q);
            for s in 0..self.alphabet().len() {
                let dst = self.step(q, Symbol::from_index(s));
                if !seen[dst] {
                    seen[dst] = true;
                    queue.push_back(dst);
                }
            }
        }
        order
    }

    fn quotient(&self, reachable: &[StateId], class_of_dense: &[usize], nblocks: usize) -> Dfa {
        let nsyms = self.alphabet().len();
        let mut dense: HashMap<StateId, usize> = HashMap::new();
        for (i, &q) in reachable.iter().enumerate() {
            dense.insert(q, i);
        }
        let mut table = vec![u32::MAX; nblocks * nsyms];
        let mut accepting = vec![false; nblocks];
        for (i, &q) in reachable.iter().enumerate() {
            let b = class_of_dense[i];
            accepting[b] = accepting[b] || self.is_accepting(q);
            for (s, &dst) in self.row(q).iter().enumerate() {
                table[b * nsyms + s] = cell(class_of_dense[dense[&(dst as StateId)]]);
            }
        }
        let start = class_of_dense[dense[&self.start()]];
        Dfa::assemble(self.alphabet().clone(), table, start, &accepting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::Nfa;
    use crate::regex::Regex;
    use crate::symbol::Alphabet;
    use std::sync::Arc;

    fn ab2() -> (Arc<Alphabet>, Symbol, Symbol) {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        (Arc::new(ab), a, b)
    }

    fn dfa_of(r: &Regex, ab: Arc<Alphabet>) -> Dfa {
        Dfa::from_nfa(&Nfa::from_regex(r, ab))
    }

    #[test]
    fn minimization_preserves_language() {
        let (ab, a, b) = ab2();
        let r = Regex::union(
            Regex::star(Regex::concat(Regex::sym(a), Regex::sym(b))),
            Regex::concat(Regex::sym(a), Regex::star(Regex::sym(b))),
        );
        let dfa = dfa_of(&r, ab);
        let min = dfa.minimize();
        assert!(min.num_states() <= dfa.num_states());
        assert!(min.equivalent(&dfa).is_ok());
    }

    #[test]
    fn known_languages_minimize_to_their_minimal_sizes() {
        let (ab, a, b) = ab2();
        // Minimal complete DFA sizes over {a, b}, counted by hand
        // (Myhill–Nerode classes, the rejecting sink included).
        let cases = [
            (Regex::star(Regex::sym(a)), 2),
            (Regex::union(Regex::word(&[a, b]), Regex::word(&[b, a])), 5),
            (
                Regex::concat(
                    Regex::star(Regex::union(Regex::sym(a), Regex::sym(b))),
                    Regex::word(&[a, b, a]),
                ),
                4,
            ),
            (Regex::epsilon(), 2),
            (Regex::empty(), 1),
        ];
        for (r, size) in &cases {
            let dfa = dfa_of(r, ab.clone());
            let h = dfa.minimize();
            assert_eq!(h.num_states(), *size, "expr {:?}", r);
            assert!(h.equivalent(&dfa).is_ok());
        }
    }

    #[test]
    fn minimal_dfa_for_even_as_has_expected_size() {
        let (ab, a, _) = ab2();
        // (a·a)* over {a,b}: 2 live states + sink = 3.
        let r = Regex::star(Regex::word(&[a, a]));
        let min = dfa_of(&r, ab).minimize();
        assert_eq!(min.num_states(), 3);
    }

    #[test]
    fn minimization_is_deterministic_run_to_run() {
        // Regression: Hopcroft used to iterate affected blocks through a
        // HashSet, so the minimized DFA's state numbering depended on hash
        // iteration order. Two HashSets with equal contents hash-iterate
        // differently even within one process, so minimizing the same DFA
        // repeatedly genuinely exercises the old bug.
        let (ab, a, b) = ab2();
        // Enough states to produce several refinement splits.
        let r = Regex::union(
            Regex::concat(
                Regex::star(Regex::union(Regex::sym(a), Regex::sym(b))),
                Regex::word(&[a, b, a, a]),
            ),
            Regex::star(Regex::word(&[b, b, a])),
        );
        let dfa = dfa_of(&r, ab.clone());
        let first = dfa.minimize();
        for round in 0..8 {
            let again = dfa.minimize();
            assert_eq!(again.num_states(), first.num_states(), "round {round}");
            assert_eq!(again.start(), first.start(), "round {round}");
            for q in 0..first.num_states() {
                assert_eq!(again.is_accepting(q), first.is_accepting(q));
                for s in ab.symbols() {
                    assert_eq!(
                        again.step(q, s),
                        first.step(q, s),
                        "state {q} round {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_language_minimizes_to_single_state() {
        let (ab, _, _) = ab2();
        let min = dfa_of(&Regex::empty(), ab).minimize();
        assert_eq!(min.num_states(), 1);
        assert!(min.is_empty());
    }
}
