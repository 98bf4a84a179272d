//! Cost of the flow-sensitive lint layer.
//!
//! The lint passes (CFG construction, definite-assignment dataflow,
//! sibling-call scan) run on every `check`, so their cost rides on top of
//! the paper's verification pipeline. These benches measure the passes in
//! isolation on the paper example and the full pipeline with default lint
//! levels. (Allowing a code only filters the report: every pass always
//! runs, so an all-allowed pipeline costs the same.)

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use micropython_parser::parse_module;
use shelley_bench::PAPER_SOURCE;
use shelley_core::lint::{run_lints, LintConfig};
use shelley_core::{build_systems, Checker, Diagnostics};

fn bench_lints(c: &mut Criterion) {
    let module = parse_module(PAPER_SOURCE).unwrap();
    let (systems, _) = build_systems(&module);

    c.bench_function("lint/passes_on_paper_example", |b| {
        b.iter(|| {
            let mut out = Diagnostics::new();
            run_lints(&module, &systems, &mut out);
            out.len()
        })
    });

    let default_checker = Checker::new().lints(LintConfig::new()).jobs(1);
    c.bench_function("lint/pipeline_with_default_lints", |b| {
        b.iter(|| {
            let checked = default_checker
                .check_source(black_box(PAPER_SOURCE))
                .unwrap();
            checked.report.diagnostics.len()
        })
    });
}

criterion_group!(benches, bench_lints);
criterion_main!(benches);
