//! A generic monotone dataflow framework over [`crate::extract::cfg`]
//! graphs.
//!
//! The definite-assignment pass of [`crate::extract::cfg::assignment_flow`]
//! hard-codes one lattice; this module factors the machinery out: an
//! [`Analysis`] supplies a join-semilattice of facts (bottom, join), a
//! boundary fact, and a per-node transfer function, and [`solve`] runs the
//! classic worklist iteration to the least fixpoint, forward or backward.
//! Clients can veto individual edges (the typestate analysis drops the
//! `match` fall-through edges that §3.2's lowering does not have). Every
//! lattice here has finite height, so the iteration terminates without
//! widening.
//!
//! The flagship client is [`typestate`]: per-program-point relations
//! between the dependency-automaton state a method was entered in and the
//! states it may be in now, the static characterization of admissible
//! traces that powers the protocol-violation lints and the verification
//! fast path.

pub mod typestate;

use crate::extract::cfg::{Cfg, NodeId};
use std::collections::VecDeque;

/// Which way facts flow through the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// From the entry node along successor edges.
    Forward,
    /// From the exit node against successor edges.
    Backward,
}

/// A monotone analysis over a join-semilattice of facts.
///
/// Correctness contract: [`join`](Self::join) computes a least upper bound
/// and [`transfer`](Self::transfer) is monotone in the fact argument;
/// together with a finite-height lattice this makes [`solve`] terminate at
/// the least fixpoint.
pub trait Analysis {
    /// The lattice element attached to each program point.
    type Fact: Clone;

    /// The flow direction (forward unless overridden).
    fn direction(&self) -> Direction {
        Direction::Forward
    }

    /// ⊥ — the fact of program points no flow reaches.
    fn bottom(&self, cfg: &Cfg) -> Self::Fact;

    /// The fact at the boundary node (entry when forward, exit when
    /// backward).
    fn boundary(&self, cfg: &Cfg) -> Self::Fact;

    /// Joins `from` into `into`, returning whether `into` grew.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;

    /// The fact on the far side of `node` given the fact flowing into it.
    fn transfer(&self, cfg: &Cfg, node: NodeId, fact: &Self::Fact) -> Self::Fact;

    /// Whether facts propagate along the `index`-th successor edge of
    /// `from`. Defaults to keeping every edge; clients aligned with the
    /// §3.2 lowering drop the edges [`Cfg::edge_is_phantom`] marks.
    fn keep_edge(&self, _cfg: &Cfg, _from: NodeId, _index: usize, _to: NodeId) -> bool {
        true
    }
}

/// The per-node fixpoint of an [`Analysis`], in *flow* order: `input[n]`
/// is the fact flowing into `n` (after `n` in program order when the
/// analysis is backward) and `output[n]` the fact after `n`'s transfer.
///
/// Nodes the flow never reaches — including nodes cut off by
/// [`Analysis::keep_edge`] — keep ⊥ on both sides.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Fact flowing into each node.
    pub input: Vec<F>,
    /// Fact after each node's transfer.
    pub output: Vec<F>,
    /// Whether the flow reaches each node from the boundary node along
    /// kept edges: exactly the nodes whose transfer ran.
    pub reached: Vec<bool>,
}

#[cfg(test)]
thread_local! {
    /// Calls of [`solve`] on this thread: the counter behind the
    /// one-solve-per-(method, field) work gate.
    static SOLVES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many times [`solve`] has run on the calling thread so far.
#[cfg(test)]
pub(crate) fn solves_run() -> usize {
    SOLVES.with(std::cell::Cell::get)
}

/// Runs `analysis` over `cfg` to its least fixpoint with a deterministic
/// FIFO worklist.
pub fn solve<A: Analysis>(analysis: &A, cfg: &Cfg) -> Solution<A::Fact> {
    #[cfg(test)]
    SOLVES.with(|n| n.set(n.get() + 1));
    let n = cfg.num_nodes();
    let reversed =
        (analysis.direction() == Direction::Backward).then(|| Reversed::of(analysis, cfg));
    // The flow successors of `q`: the kept successor edges, reversed when
    // the analysis runs backward.
    let flow = |q: NodeId, visit: &mut dyn FnMut(NodeId)| match &reversed {
        Some(r) => r.edges(q).iter().for_each(|&to| visit(to)),
        None => {
            for (i, &to) in cfg.successors(q).iter().enumerate() {
                if analysis.keep_edge(cfg, q, i, to) {
                    visit(to);
                }
            }
        }
    };
    let boundary_node = match analysis.direction() {
        Direction::Forward => cfg.entry(),
        Direction::Backward => cfg.exit(),
    };
    // Flow-reachable nodes: everything else keeps ⊥ untouched (its
    // transfer must not run — `transfer(⊥)` need not be ⊥).
    let mut reached = vec![false; n];
    let mut stack = Vec::with_capacity(n);
    stack.push(boundary_node);
    reached[boundary_node] = true;
    while let Some(q) = stack.pop() {
        flow(q, &mut |next| {
            if !reached[next] {
                reached[next] = true;
                stack.push(next);
            }
        });
    }

    let mut input: Vec<A::Fact> = (0..n).map(|_| analysis.bottom(cfg)).collect();
    let mut output: Vec<A::Fact> = (0..n).map(|_| analysis.bottom(cfg)).collect();
    input[boundary_node] = analysis.boundary(cfg);

    // The stack's buffer, empty and holding `n`, becomes the queue.
    let mut queue = VecDeque::from(stack);
    queue.extend((0..n).filter(|&q| reached[q]));
    let mut queued = reached.clone();
    while let Some(node) = queue.pop_front() {
        queued[node] = false;
        output[node] = analysis.transfer(cfg, node, &input[node]);
        flow(node, &mut |to| {
            if analysis.join(&mut input[to], &output[node]) && !queued[to] {
                queued[to] = true;
                queue.push_back(to);
            }
        });
    }
    Solution {
        input,
        output,
        reached,
    }
}

/// The kept edges of a graph reversed, as CSR: what a backward analysis
/// flows along.
struct Reversed {
    start: Vec<usize>,
    list: Vec<NodeId>,
}

impl Reversed {
    fn of<A: Analysis>(analysis: &A, cfg: &Cfg) -> Reversed {
        let n = cfg.num_nodes();
        let kept = || {
            (0..n).flat_map(move |from| {
                cfg.successors(from)
                    .iter()
                    .enumerate()
                    .filter(move |&(i, &to)| analysis.keep_edge(cfg, from, i, to))
                    .map(move |(_, &to)| (from, to))
            })
        };
        let mut start = vec![0; n + 1];
        for (_, to) in kept() {
            start[to + 1] += 1;
        }
        for q in 0..n {
            start[q + 1] += start[q];
        }
        let mut fill = start.clone();
        let mut list = vec![0; start[n]];
        for (from, to) in kept() {
            list[fill[to]] = from;
            fill[to] += 1;
        }
        Reversed { start, list }
    }

    fn edges(&self, q: NodeId) -> &[NodeId] {
        &self.list[self.start[q]..self.start[q + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::cfg::{assignment_flow, ClassIds};
    use micropython_parser::{ast::Module, parse_module};

    /// The graph of the first method of the first class, tracking
    /// `fields`.
    fn graph(m: &Module, fields: &[&'static str]) -> Cfg {
        let class = m.classes().next().unwrap();
        let mut ids = ClassIds::new(class, fields.iter().copied());
        Cfg::of_body(&class.methods().next().unwrap().body, &mut ids)
    }

    /// May-assignment as a generic forward analysis: fact = the bitset of
    /// fields assigned on some path.
    struct MayAssign;

    impl Analysis for MayAssign {
        type Fact = u64;

        fn bottom(&self, _cfg: &Cfg) -> u64 {
            0
        }

        fn boundary(&self, _cfg: &Cfg) -> u64 {
            0
        }

        fn join(&self, into: &mut u64, from: &u64) -> bool {
            let grew = from & !*into != 0;
            *into |= from;
            grew
        }

        fn transfer(&self, cfg: &Cfg, node: NodeId, fact: &u64) -> u64 {
            fact | cfg.node(node).writes[0]
        }
    }

    /// Liveness-flavored backward analysis: fields read at or after a
    /// point.
    struct ReadsLater;

    impl Analysis for ReadsLater {
        type Fact = u64;

        fn direction(&self) -> Direction {
            Direction::Backward
        }

        fn bottom(&self, _cfg: &Cfg) -> u64 {
            0
        }

        fn boundary(&self, _cfg: &Cfg) -> u64 {
            0
        }

        fn join(&self, into: &mut u64, from: &u64) -> bool {
            let grew = from & !*into != 0;
            *into |= from;
            grew
        }

        fn transfer(&self, cfg: &Cfg, node: NodeId, fact: &u64) -> u64 {
            let reads = cfg.node(node).reads.iter();
            reads.fold(*fact, |acc, &(f, _)| acc | 1 << f)
        }
    }

    #[test]
    fn forward_solve_matches_assignment_flow() {
        let src = "class C:\n    def __init__(self):\n        self.a = Valve()\n        if ok:\n            self.b = Valve()\n        while more:\n            self.c = Valve()\n";
        let m = parse_module(src).unwrap();
        let cfg = graph(&m, &["a", "b", "c"]);
        let reference = assignment_flow(&cfg);
        let solution = solve(&MayAssign, &cfg);
        for (id, _) in cfg.nodes() {
            if reference.reachable[id] {
                for f in 0..3 {
                    let may = solution.input[id] >> f & 1 == 1;
                    assert_eq!(may, reference.possibly(id, f), "node {id} field {f}");
                }
            }
        }
    }

    #[test]
    fn backward_solve_collects_later_reads() {
        let src = "class C:\n    def m(self):\n        self.a.probe()\n        x = 1\n        self.b.probe()\n        return []\n";
        let m = parse_module(src).unwrap();
        let cfg = graph(&m, &["a", "b"]);
        let solution = solve(&ReadsLater, &cfg);
        // At entry (flow output side of the last processed node), both
        // fields are still to be read; after the `a` read only `b` remains.
        assert_eq!(solution.output[cfg.entry()], 0b11);
        let a_node = cfg
            .nodes()
            .find(|(_, n)| n.reads.iter().any(|&(f, _)| f == 0))
            .unwrap()
            .0;
        assert_eq!(solution.input[a_node], 0b10);
    }

    #[test]
    fn vetoed_edges_keep_bottom_downstream() {
        struct NoEdges;
        impl Analysis for NoEdges {
            type Fact = bool;
            fn bottom(&self, _cfg: &Cfg) -> bool {
                false
            }
            fn boundary(&self, _cfg: &Cfg) -> bool {
                true
            }
            fn join(&self, into: &mut bool, from: &bool) -> bool {
                let grew = *from && !*into;
                *into |= *from;
                grew
            }
            fn transfer(&self, _cfg: &Cfg, _node: NodeId, fact: &bool) -> bool {
                *fact
            }
            fn keep_edge(&self, _cfg: &Cfg, from: NodeId, _i: usize, _to: NodeId) -> bool {
                from != 0 // drop everything leaving the entry node
            }
        }
        let m =
            parse_module("class C:\n    def m(self):\n        x = 1\n        return []\n").unwrap();
        let cfg = graph(&m, &[]);
        let solution = solve(&NoEdges, &cfg);
        assert!(solution.output[cfg.entry()]);
        for (id, _) in cfg.nodes() {
            if id != cfg.entry() {
                assert!(!solution.input[id], "node {id} must stay ⊥");
            }
        }
    }
}
