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
    // Flow adjacency honoring direction and the edge filter.
    let mut flow: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for from in 0..n {
        for (i, &to) in cfg.successors(from).iter().enumerate() {
            if !analysis.keep_edge(cfg, from, i, to) {
                continue;
            }
            match analysis.direction() {
                Direction::Forward => flow[from].push(to),
                Direction::Backward => flow[to].push(from),
            }
        }
    }
    let boundary_node = match analysis.direction() {
        Direction::Forward => cfg.entry(),
        Direction::Backward => cfg.exit(),
    };
    // Flow-reachable nodes: everything else keeps ⊥ untouched (its
    // transfer must not run — `transfer(⊥)` need not be ⊥).
    let mut reached = vec![false; n];
    let mut stack = vec![boundary_node];
    reached[boundary_node] = true;
    while let Some(q) = stack.pop() {
        for &next in &flow[q] {
            if !reached[next] {
                reached[next] = true;
                stack.push(next);
            }
        }
    }

    let mut input: Vec<A::Fact> = (0..n).map(|_| analysis.bottom(cfg)).collect();
    let mut output: Vec<A::Fact> = (0..n).map(|_| analysis.bottom(cfg)).collect();
    input[boundary_node] = analysis.boundary(cfg);

    let mut queue: VecDeque<NodeId> = (0..n).filter(|&q| reached[q]).collect();
    let mut queued = vec![false; n];
    for &q in &queue {
        queued[q] = true;
    }
    while let Some(node) = queue.pop_front() {
        queued[node] = false;
        output[node] = analysis.transfer(cfg, node, &input[node]);
        for &to in &flow[node] {
            if analysis.join(&mut input[to], &output[node]) && !queued[to] {
                queued[to] = true;
                queue.push_back(to);
            }
        }
    }
    Solution {
        input,
        output,
        reached,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::cfg::assignment_flow;
    use micropython_parser::{ast::Stmt, parse_module};
    use std::collections::BTreeSet;

    fn body_of(src: &str) -> Vec<Stmt> {
        let m = parse_module(src).unwrap();
        let class = m.classes().next().unwrap();
        let body = class.methods().next().unwrap().body.clone();
        body
    }

    /// May-assignment as a generic forward analysis: fact = the set of
    /// fields assigned on some path.
    struct MayAssign;

    impl Analysis for MayAssign {
        type Fact = BTreeSet<String>;

        fn bottom(&self, _cfg: &Cfg) -> Self::Fact {
            BTreeSet::new()
        }

        fn boundary(&self, _cfg: &Cfg) -> Self::Fact {
            BTreeSet::new()
        }

        fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool {
            let before = into.len();
            into.extend(from.iter().cloned());
            into.len() != before
        }

        fn transfer(&self, cfg: &Cfg, node: NodeId, fact: &Self::Fact) -> Self::Fact {
            let mut out = fact.clone();
            out.extend(cfg.node(node).writes.iter().cloned());
            out
        }
    }

    /// Liveness-flavored backward analysis: fields read at or after a
    /// point.
    struct ReadsLater;

    impl Analysis for ReadsLater {
        type Fact = BTreeSet<String>;

        fn direction(&self) -> Direction {
            Direction::Backward
        }

        fn bottom(&self, _cfg: &Cfg) -> Self::Fact {
            BTreeSet::new()
        }

        fn boundary(&self, _cfg: &Cfg) -> Self::Fact {
            BTreeSet::new()
        }

        fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool {
            let before = into.len();
            into.extend(from.iter().cloned());
            into.len() != before
        }

        fn transfer(&self, cfg: &Cfg, node: NodeId, fact: &Self::Fact) -> Self::Fact {
            let mut out = fact.clone();
            out.extend(cfg.node(node).reads.iter().map(|(f, _)| f.clone()));
            out
        }
    }

    #[test]
    fn forward_solve_matches_assignment_flow() {
        let src = "class C:\n    def __init__(self):\n        self.a = Valve()\n        if ok:\n            self.b = Valve()\n        while more:\n            self.c = Valve()\n";
        let body = body_of(src);
        let universe: BTreeSet<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let cfg = Cfg::of_body(&body, &universe);
        let reference = assignment_flow(&cfg, &universe);
        let solution = solve(&MayAssign, &cfg);
        for (id, _) in cfg.nodes() {
            if reference.reachable[id] {
                assert_eq!(solution.input[id], reference.may_in[id], "node {id}");
            }
        }
    }

    #[test]
    fn backward_solve_collects_later_reads() {
        let src = "class C:\n    def m(self):\n        self.a.probe()\n        x = 1\n        self.b.probe()\n        return []\n";
        let body = body_of(src);
        let universe: BTreeSet<String> = ["a", "b"].iter().map(|s| s.to_string()).collect();
        let cfg = Cfg::of_body(&body, &universe);
        let solution = solve(&ReadsLater, &cfg);
        // At entry (flow output side of the last processed node), both
        // fields are still to be read; after the `a` read only `b` remains.
        let entry_out: &BTreeSet<String> = &solution.output[cfg.entry()];
        assert!(entry_out.contains("a") && entry_out.contains("b"));
        let a_node = cfg
            .nodes()
            .find(|(_, n)| n.reads.iter().any(|(f, _)| f == "a"))
            .unwrap()
            .0;
        assert!(!solution.input[a_node].contains("a"));
        assert!(solution.input[a_node].contains("b"));
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
        let body = body_of("class C:\n    def m(self):\n        x = 1\n        return []\n");
        let cfg = Cfg::of_body(&body, &BTreeSet::new());
        let solution = solve(&NoEdges, &cfg);
        assert!(solution.output[cfg.entry()]);
        for (id, _) in cfg.nodes() {
            if id != cfg.entry() {
                assert!(!solution.input[id], "node {id} must stay ⊥");
            }
        }
    }
}
