//! Ablations over the design choices `DESIGN.md` calls out.
//!
//! * Hopcroft DFA minimization across program sizes;
//! * derivative-based regex membership vs compile-to-DFA-then-run;
//! * minimized vs unminimized monitors for claim checking.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shelley_ir::generate::{generate_program, GenConfig};
use shelley_ir::infer;
use shelley_ltlf::{parse_formula, to_dfa};
use shelley_regular::{Alphabet, Dfa, Nfa, Regex};
use std::sync::Arc;

fn workload(size: usize) -> (Arc<Alphabet>, Regex) {
    let (ab, p) = generate_program(
        13,
        GenConfig {
            target_size: size,
            ..GenConfig::default()
        },
    );
    (Arc::new(ab), infer(&p))
}

fn bench_minimization(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/minimization");
    for size in [50usize, 200, 800] {
        let (ab, r) = workload(size);
        let dfa = Dfa::from_nfa(&Nfa::from_regex(&r, ab));
        group.bench_with_input(
            BenchmarkId::new("hopcroft", dfa.num_states()),
            &dfa,
            |b, dfa| b.iter(|| dfa.minimize().num_states()),
        );
    }
    group.finish();
}

fn bench_membership_modes(c: &mut Criterion) {
    let (ab, r) = workload(200);
    let dfa = Dfa::from_nfa(&Nfa::from_regex(&r, ab.clone()));
    let words = dfa.enumerate_words(8, 64);
    let mut group = c.benchmark_group("ablation/membership");
    group.bench_function("brzozowski_derivatives", |b| {
        b.iter(|| words.iter().filter(|w| r.matches(w)).count())
    });
    group.bench_function("compiled_dfa", |b| {
        b.iter(|| words.iter().filter(|w| dfa.accepts(w)).count())
    });
    group.bench_function("compile_then_run", |b| {
        b.iter(|| {
            let d = Dfa::from_nfa(&Nfa::from_regex(&r, ab.clone()));
            words.iter().filter(|w| d.accepts(w)).count()
        })
    });
    group.finish();
}

fn bench_monitor_minimization(c: &mut Criterion) {
    let mut ab = Alphabet::new();
    let claim = parse_formula("(!a.open) W b.open", &mut ab).unwrap();
    // A model alphabet with extra events, as real integrations have.
    for extra in ["a.test", "a.close", "b.test", "b.close", "open_a", "open_b"] {
        ab.intern(extra);
    }
    let ab = Arc::new(ab);
    let mut group = c.benchmark_group("ablation/claim_monitor");
    group.bench_function("monitor_construction", |b| {
        b.iter(|| to_dfa(&claim.negate(), ab.clone()).num_states())
    });
    group.bench_function("monitor_construction_plus_minimize", |b| {
        b.iter(|| to_dfa(&claim.negate(), ab.clone()).minimize().num_states())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_minimization, bench_membership_modes, bench_monitor_minimization
}
criterion_main!(benches);
