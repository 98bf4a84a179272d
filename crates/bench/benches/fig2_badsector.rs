//! Figure 2 and the two §2.2 error messages — BadSector verification.
//!
//! Regenerates the paper's verification failures: the integration
//! automaton, the `INVALID SUBSYSTEM USAGE` check with its counterexample
//! (`open_a, a.test, a.open`), and the `FAIL TO MEET REQUIREMENT` claim
//! check (`(!a.open) W b.open`). Criterion measures each stage; the
//! asserted texts pin the reproduced outputs to the paper's.

use criterion::{criterion_group, criterion_main, Criterion};
use micropython_parser::parse_module;
use shelley_bench::PAPER_SOURCE;
use shelley_core::verify::claims::claim_violations;
use shelley_core::verify::usage::check_usage;
use shelley_core::{build_integration, build_systems, Checker};

fn bench_fig2(c: &mut Criterion) {
    let module = parse_module(PAPER_SOURCE).unwrap();
    let (systems, _) = build_systems(&module);
    let badsector = systems.get("BadSector").unwrap();

    c.bench_function("fig2/build_integration", |b| {
        b.iter(|| build_integration(badsector).nfa.num_states())
    });

    let integration = build_integration(badsector);
    c.bench_function("fig2/usage_check_with_counterexample", |b| {
        b.iter(|| {
            let violation = check_usage(badsector, &systems, &integration, &Default::default())
                .expect_err("BadSector misuses valve a");
            assert_eq!(violation.counterexample_text, "open_a, a.test, a.open");
            violation.subsystem_errors.len()
        })
    });

    c.bench_function("fig2/claim_check_with_counterexample", |b| {
        b.iter(|| {
            let mut diags = shelley_core::Diagnostics::new();
            let violations = claim_violations(badsector, Some(&integration), &mut diags);
            assert_eq!(violations.len(), 1);
            violations[0].counterexample.len()
        })
    });

    c.bench_function("fig2/full_pipeline", |b| {
        b.iter(|| {
            let checked = Checker::new().check_source(PAPER_SOURCE).expect("parses");
            assert!(!checked.report.passed());
            checked.report.usage_violations.len() + checked.report.claim_violations.len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_fig2
}
criterion_main!(benches);
