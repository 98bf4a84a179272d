//! The language-view separation: lazy vs eager claim checking on an
//! adversarial claim.
//!
//! The claim `F a0 & ... & F a{n-1}` has a negated monitor with ~2^n
//! states under eager compilation, while the model (`a0*`) only ever
//! progresses a handful of them. The lazy engine ([`check_claim`] driving
//! a [`MonitorView`](shelley_ltlf::MonitorView) on the fly) must visit
//! ≤ 10% of the eager monitor's states and win by ≥ 5× wall time; the
//! asserts below pin the state-count separation, Criterion measures the
//! time, and `devtools/langbench` records both in `BENCH_lang.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use shelley_bench::adversarial_claim;
use shelley_ltlf::{check_claim, to_dfa, MonitorView};
use shelley_regular::antichain::joint_search;
use shelley_regular::lang::{Complement, NfaView};
use shelley_regular::{Alphabet, Dfa, Nfa, Regex, Symbol};
use std::collections::BTreeSet;
use std::sync::Arc;

const N: usize = 12;

/// `(a+b)* ; a ; (a+b)^(n-1)`: minimal DFA has 2^n states, so subset
/// construction and exhaustive inclusion searches pay the full exponential
/// subset space — the stress test for the per-subset constant factor that
/// the `StateSet`/`CompiledNfa` bitset engine attacks.
fn exponential_nfa(n: usize) -> (Arc<Alphabet>, Nfa) {
    let mut ab = Alphabet::new();
    let a = ab.intern("a");
    let b = ab.intern("b");
    let ab = Arc::new(ab);
    let sigma = Regex::union(Regex::sym(a), Regex::sym(b));
    let mut re = Regex::concat(Regex::star(sigma.clone()), Regex::sym(a));
    for _ in 1..n {
        re = Regex::concat(re, sigma.clone());
    }
    (ab.clone(), Nfa::from_regex(&re, ab))
}

fn bench_lang_views(c: &mut Criterion) {
    let (ab, claim, model) = adversarial_claim(N);
    let markers = BTreeSet::new();
    let bad = claim.negate();

    // Pin the separation before timing anything: the lazy joint search
    // explores a constant-ish product region, the eager monitor is
    // exponential in N.
    let lazy_visited = joint_search(&model, &MonitorView::new(&bad, ab.clone()), &markers)
        .stats
        .frontier;
    let eager_states = to_dfa(&bad, ab.clone()).num_states();
    assert!(
        lazy_visited * 10 <= eager_states,
        "lazy search visited {lazy_visited} product states vs {eager_states} eager monitor states"
    );

    c.bench_function("lang_views/lazy_check", |b| {
        b.iter(|| {
            assert!(!check_claim(&model, &claim, &markers).holds());
        })
    });

    let mut group = c.benchmark_group("lang_views");
    group.sample_size(10);
    group.bench_function("eager_check", |b| {
        b.iter(|| {
            let monitor = to_dfa(&bad, ab.clone());
            joint_search(&model, &monitor, &markers)
                .witness
                .expect("claim is violated")
        })
    });
    group.finish();
}

/// The bitset state engine on the two hot paths it exists for: subset
/// construction and the exhaustive joint 0-1 BFS (the inclusion search
/// against the determinized spec, whose states cover only themselves, so
/// nothing is pruned). `devtools/langbench`
/// runs the same workloads across a sweep of `n` and gates their state
/// counts into `BENCH_perf.json`; here we pin the state count once and let
/// Criterion time the n = 10 point.
fn bench_state_engine(c: &mut Criterion) {
    const EXP_N: usize = 10;
    let (ab, spec) = exponential_nfa(EXP_N);

    // Subset construction finds all 2^n + 1 subsets.
    let dfa = Dfa::from_nfa(&spec);
    assert_eq!(dfa.num_states(), (1 << EXP_N) + 1);

    // Model `a ; (a+b)^(n-1)` is included in the spec, so the inclusion
    // search exhausts the reachable product.
    let model = included_model(EXP_N, ab, false);
    let markers = BTreeSet::new();
    let complement = dfa.complement();
    assert_eq!(joint_search(&model, &complement, &markers).witness, None);

    let mut group = c.benchmark_group("state_engine");
    group.sample_size(10);
    group.bench_function("subset_construction/bitset", |bench| {
        bench.iter(|| Dfa::from_nfa(&spec).num_states())
    });
    group.bench_function("joint_bfs/bitset", |bench| {
        bench.iter(|| {
            let complement = Dfa::from_nfa(&spec).complement();
            joint_search(&model, &complement, &markers)
                .witness
                .is_none()
        })
    });
    group.finish();
}

/// `a ; (a+b)^(n-1)`, or `a ; (b+a)^(n-1)` with `b_first`: included in
/// the exponential spec, so an inclusion search must drain its product.
fn included_model(n: usize, ab: Arc<Alphabet>, b_first: bool) -> Nfa {
    let (a, b) = (
        Regex::sym(Symbol::from_index(0)),
        Regex::sym(Symbol::from_index(1)),
    );
    let sigma = if b_first {
        Regex::union(b, a.clone())
    } else {
        Regex::union(a.clone(), b)
    };
    let mut re = a;
    for _ in 1..n {
        re = Regex::concat(re, sigma.clone());
    }
    Nfa::from_regex(&re, ab)
}

/// The inclusion search over the lazy subset view (pruned by `⊇` on spec
/// macrostates) vs the same search over the determinized spec (unpruned)
/// on the `Σ*·a·Σ^(n-1)` spec family with an *included* model. Pruning
/// happens at push time against pairs kept earlier, so it pays off when
/// the smaller macrostate of a model state is discovered first: with each
/// `b` edge before its `a` edge the frontier stays O(n); with `a` first it
/// does not shrink. `devtools/langbench` sweeps `n` and records both
/// counters in `BENCH_perf.json`; here we pin the separation once and let
/// Criterion time the n = 10 point.
fn bench_inclusion_engine(c: &mut Criterion) {
    const EXP_N: usize = 10;
    let (ab, spec) = exponential_nfa(EXP_N);
    let markers = BTreeSet::new();
    let complement = Dfa::from_nfa(&spec).complement();
    let lazy = Complement::new(NfaView::new(&spec));

    let b_first = included_model(EXP_N, ab.clone(), true);
    let a_first = included_model(EXP_N, ab, false);
    let pruned = joint_search(&b_first, &lazy, &markers);
    let unpruned = joint_search(&b_first, &complement, &markers);
    assert_eq!((pruned.witness, unpruned.witness), (None, None));
    assert!(
        pruned.stats.frontier * 4 < unpruned.stats.frontier,
        "pruned frontier {} vs unpruned {}",
        pruned.stats.frontier,
        unpruned.stats.frontier
    );

    let mut group = c.benchmark_group("inclusion_engine");
    group.sample_size(10);
    group.bench_function("pruned/b_first", |bench| {
        bench.iter(|| joint_search(&b_first, &lazy, &markers).witness.is_none())
    });
    group.bench_function("pruned/a_first", |bench| {
        bench.iter(|| joint_search(&a_first, &lazy, &markers).witness.is_none())
    });
    group.bench_function("unpruned/b_first", |bench| {
        bench.iter(|| {
            joint_search(&b_first, &complement, &markers)
                .witness
                .is_none()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lang_views,
    bench_state_engine,
    bench_inclusion_engine
);
criterion_main!(benches);
