//! `langbench` — machine-readable summaries of the language-engine
//! performance story.
//!
//! Three artifacts, written next to the workspace root:
//!
//! * `BENCH_lang.json` — the lazy-vs-eager separation: the `lang_views`
//!   adversarial workload (claim `F a0 & ... & F a{n-1}` against the model
//!   `a0*`, negated monitor ~2^n states) at a sweep of sizes, measured with
//!   the lazy progression monitor and with the compiled monitor DFA.
//! * `BENCH_perf.json` — the state-engine trajectory: subset construction,
//!   the exhaustive (unpruned) joint BFS and Hopcroft minimization on an
//!   exponential-DFA family, gated on deterministic state counts, plus the
//!   inclusion search's kept/pruned counters on an included-model family.
//!   Each row records size, wall-ns and states visited so later PRs can
//!   prove regressions or improvements against it.
//! * `BENCH_sym.json` — claims whose product frontier is exponential: the
//!   same `∧ F aᵢ` claim family, but against the model `Σⁿ`. The unpruned
//!   product search must enumerate the frontier state by state; the
//!   inclusion search keeps only the formula states no kept one implies.
//!
//! The JSON is hand-rolled — the workspace is offline and carries no serde.
//!
//! Run with `cargo run -p langbench --release [LANG_OUT [PERF_OUT [SYM_OUT]]]`.

use shelley_bench::adversarial_claim;
use shelley_core::system::build_systems;
use shelley_core::{analyze_class, Checker};
use shelley_ltlf::{check_claim, check_claim_counted, to_dfa, ClaimOutcome, Formula, MonitorView};
use shelley_regular::antichain::{joint_search, InclusionStats};
use shelley_regular::lang::{Complement, Lang, NfaView};
use shelley_regular::{Alphabet, Dfa, Nfa, Regex, Symbol};
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Median-of-`reps` wall time of `f`, in nanoseconds.
fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> u128 {
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

// ---------------------------------------------------------------------------
// BENCH_lang.json: lazy vs eager claim checking (unchanged workload).

/// One measured size of the adversarial claim workload.
struct LangRow {
    n: usize,
    lazy_visited: usize,
    eager_states: usize,
    lazy_ns: u128,
    eager_ns: u128,
}

fn measure_lang(n: usize) -> LangRow {
    let (ab, claim, model) = adversarial_claim(n);
    let markers = BTreeSet::new();
    let bad = claim.negate();

    let lazy_visited = joint_search(&model, &MonitorView::new(&bad, ab.clone()), &markers)
        .stats
        .frontier;
    let eager_states = to_dfa(&bad, ab.clone()).num_states();

    let reps = if n >= 12 { 5 } else { 20 };
    let lazy_ns = time(reps, || {
        assert!(!check_claim(&model, &claim, &markers).holds());
    });
    let eager_ns = time(reps, || {
        let monitor = to_dfa(&bad, ab.clone());
        joint_search(&model, &monitor, &markers)
            .witness
            .expect("claim is violated")
    });

    LangRow {
        n,
        lazy_visited,
        eager_states,
        lazy_ns,
        eager_ns,
    }
}

fn lang_report() -> (String, bool) {
    let rows: Vec<LangRow> = [4, 6, 8, 10, 12].into_iter().map(measure_lang).collect();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"lang_views\",\n");
    json.push_str(
        "  \"workload\": \"claim F a0 & ... & F a{n-1} vs model a0* (negated monitor ~2^n states)\",\n",
    );
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = r.eager_ns as f64 / r.lazy_ns.max(1) as f64;
        let ratio = r.lazy_visited as f64 / r.eager_states.max(1) as f64;
        let _ = write!(
            json,
            "    {{\"n\": {}, \"lazy_visited_states\": {}, \"eager_monitor_states\": {}, \
             \"state_ratio\": {:.4}, \"lazy_ns\": {}, \"eager_ns\": {}, \"speedup\": {:.1}}}",
            r.n, r.lazy_visited, r.eager_states, ratio, r.lazy_ns, r.eager_ns, speedup
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");

    // The acceptance gate, checked at the largest size: the lazy engine
    // visits ≤ 10% of the eager monitor's states and is ≥ 5× faster.
    let last = rows.last().expect("nonempty sweep");
    let gate_states = last.lazy_visited * 10 <= last.eager_states;
    let gate_time = last.eager_ns >= 5 * last.lazy_ns;
    let _ = writeln!(
        json,
        "  \"gate\": {{\"n\": {}, \"lazy_visits_at_most_10pct\": {}, \"lazy_at_least_5x_faster\": {}}}",
        last.n, gate_states, gate_time
    );
    json.push_str("}\n");
    (json, gate_states && gate_time)
}

// ---------------------------------------------------------------------------
// BENCH_sym.json: claims with an exponential product frontier.

/// `∧_{i<n} F aᵢ` against the model `Σⁿ` over an `n`-symbol alphabet.
///
/// Unlike the `lang_views` family (whose model `a0*` keeps the reachable
/// product linear), every length-`k` prefix here reaches a distinct
/// monitor residual per *set* of symbols seen so far — the unpruned
/// product frontier really is exponential, and an unpruned search must
/// enumerate it state by state before the first accepting node appears at
/// depth `n`. The claim is violated (e.g. `a0ⁿ` never sees `a1`), and every
/// accepted word has length `n`, so every witness has length `n`.
fn many_state_family(n: usize) -> (Arc<Alphabet>, Formula, Nfa) {
    let mut ab = Alphabet::new();
    let syms: Vec<_> = (0..n).map(|i| ab.intern(&format!("a{i}"))).collect();
    let ab = Arc::new(ab);
    let claim = syms
        .iter()
        .map(|&s| Formula::eventually(Formula::atom(s)))
        .reduce(Formula::and)
        .expect("n >= 1");
    let sigma = syms
        .iter()
        .map(|&s| Regex::sym(s))
        .reduce(Regex::union)
        .expect("n >= 1");
    let mut re = sigma.clone();
    for _ in 1..n {
        re = Regex::concat(re, sigma.clone());
    }
    (ab.clone(), claim, Nfa::from_regex(&re, ab))
}

/// What a budgeted unpruned product search produced.
enum BudgetedSearch {
    /// A shortest violating word of this length was found.
    Decided { witness_len: usize },
    /// The budget ran out with no verdict.
    Aborted,
}

/// The unpruned product search — model subsets × progression-monitor
/// residuals, breadth-first, equal states deduplicated and nothing else —
/// capped at `budget` discovered product states. Returns the verdict (for
/// this family, always a violation when it finishes) plus the number of
/// states discovered.
fn unpruned_budgeted(
    model: &Nfa,
    bad: &Formula,
    ab: Arc<Alphabet>,
    budget: usize,
) -> (BudgetedSearch, usize) {
    let view = NfaView::new(model);
    let monitor = MonitorView::new(bad, ab.clone());
    let nsyms = ab.len();
    type Node<'a> = (<NfaView<'a> as Lang>::State, <MonitorView as Lang>::State);
    let start: Node = (view.start(), monitor.start());
    if view.is_accepting(&start.0) && monitor.is_accepting(&start.1) {
        return (BudgetedSearch::Decided { witness_len: 0 }, 1);
    }
    let mut seen: HashSet<Node> = HashSet::from([start.clone()]);
    let mut queue: VecDeque<(Node, usize)> = VecDeque::from([(start, 0)]);
    while let Some((node, depth)) = queue.pop_front() {
        for s in 0..nsyms {
            let sym = Symbol::from_index(s);
            let next = (view.step(&node.0, sym), monitor.step(&node.1, sym));
            if seen.contains(&next) {
                continue;
            }
            if view.is_accepting(&next.0) && monitor.is_accepting(&next.1) {
                return (
                    BudgetedSearch::Decided {
                        witness_len: depth + 1,
                    },
                    seen.len() + 1,
                );
            }
            seen.insert(next.clone());
            if seen.len() >= budget {
                return (BudgetedSearch::Aborted, seen.len());
            }
            queue.push_back((next, depth + 1));
        }
    }
    // The whole product was exhausted without an accepting node: the
    // claim holds. The family never takes this branch.
    (BudgetedSearch::Aborted, seen.len())
}

/// One claim check of the family on the inclusion search: the witness
/// length, the counters and the median wall time.
struct ClaimRun {
    witness_len: Option<usize>,
    stats: InclusionStats,
    ns: u128,
}

fn run_claim(n: usize, reps: usize) -> ClaimRun {
    let (_, claim, model) = many_state_family(n);
    let markers = BTreeSet::new();
    let (outcome, stats) = check_claim_counted(&model, &claim, &markers);
    let witness_len = match outcome {
        ClaimOutcome::Violated { counterexample } => Some(counterexample.len()),
        ClaimOutcome::Holds => None,
    };
    let ns = time(reps, || check_claim(&model, &claim, &markers).holds());
    ClaimRun {
        witness_len,
        stats,
        ns,
    }
}

/// The state budget the unpruned search exhausts on the n = 16 showcase.
const SYM_BUDGET: usize = 100_000;

/// The search's exact counters on the family at `n`, `(kept, pruned)`:
/// `n³ + 1` pairs kept and `n(n − 1)(2n − 3)/2` discarded as covered, at
/// every size the bench runs — against an unpruned frontier that doubles
/// with each `n`.
fn expected_counters(n: usize) -> (usize, usize) {
    (n * n * n + 1, n * (n - 1) * (2 * n - 3) / 2)
}

fn sym_report() -> (String, bool) {
    let sizes = [4usize, 8, 10, 12];
    let rows: Vec<(usize, usize, ClaimRun)> = sizes
        .iter()
        .map(|&n| {
            let (ab, claim, model) = many_state_family(n);
            let (decided, product_states) =
                unpruned_budgeted(&model, &claim.negate(), ab, SYM_BUDGET * 100);
            assert!(
                matches!(decided, BudgetedSearch::Decided { witness_len } if witness_len == n),
                "family claim must be violated at witness length n"
            );
            (
                n,
                product_states,
                run_claim(n, if n >= 10 { 3 } else { 10 }),
            )
        })
        .collect();

    // The showcase instance: at n = 16 the unpruned search blows through
    // the state budget undecided; the inclusion search returns a witness.
    const SHOWCASE_N: usize = 16;
    let (ab, claim, model) = many_state_family(SHOWCASE_N);
    let t = Instant::now();
    let (verdict, unpruned_states) = unpruned_budgeted(&model, &claim.negate(), ab, SYM_BUDGET);
    let unpruned_aborted = matches!(verdict, BudgetedSearch::Aborted);
    let unpruned_abort_ns = t.elapsed().as_nanos();
    let showcase = run_claim(SHOWCASE_N, 1);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"claims_exponential_frontier\",\n");
    json.push_str(
        "  \"workload\": \"claim F a0 & ... & F a{n-1} vs model Sigma^n (exponential unpruned product frontier)\",\n",
    );
    json.push_str("  \"rows\": [\n");
    for (i, (n, product_states, run)) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {n}, \"unpruned_product_states\": {product_states}, \"kept\": {}, \
             \"pruned\": {}, \"witness_len\": {}, \"search_ns\": {}}}",
            run.stats.frontier,
            run.stats.pruned,
            run.witness_len.map_or(-1i64, |l| l as i64),
            run.ns
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"showcase\": {{\"n\": {SHOWCASE_N}, \"state_budget\": {SYM_BUDGET}, \
         \"unpruned_aborted\": {unpruned_aborted}, \"unpruned_states_at_abort\": {unpruned_states}, \
         \"unpruned_abort_ns\": {unpruned_abort_ns}, \"witness_len\": {}, \"kept\": {}, \
         \"pruned\": {}, \"search_ns\": {}}},",
        showcase.witness_len.map_or(-1i64, |l| l as i64),
        showcase.stats.frontier,
        showcase.stats.pruned,
        showcase.ns
    );

    // The acceptance gates, all deterministic: the search decides the
    // showcase instance the unpruned search cannot touch within the
    // budget, at witness length n, and every size keeps and prunes exactly
    // the counts of [`expected_counters`] with witness length n.
    let gate_showcase = unpruned_aborted && showcase.witness_len == Some(SHOWCASE_N);
    let gate_counters = rows
        .iter()
        .map(|(n, _, run)| (*n, run))
        .chain([(SHOWCASE_N, &showcase)])
        .all(|(n, run)| {
            run.witness_len == Some(n)
                && (run.stats.frontier, run.stats.pruned) == expected_counters(n)
        });
    let _ = writeln!(
        json,
        "  \"gate\": {{\"decides_n16_at_witness_len_16\": {gate_showcase}, \
         \"kept_pruned_counters\": {gate_counters}}}"
    );
    json.push_str("}\n");
    (json, gate_showcase && gate_counters)
}

// ---------------------------------------------------------------------------
// BENCH_perf.json: the bitset state engine, the inclusion search, Hopcroft.

/// `(a+b)* ; a ; (a+b)^(n-1)` — the classic family whose minimal DFA has
/// 2^n states ("the n-th symbol from the end is `a`"). Subset construction
/// pays the full exponential price, which is exactly what makes it the
/// right stress test for the per-subset constant factor.
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

/// A model whose language (`a ; (a+b)^(n-1)`, or `a ; (b+a)^(n-1)` with
/// `b_first`) is included in the exponential spec, so the joint inclusion
/// search must exhaust the whole reachable product instead of stopping at
/// an early witness. The union order decides which of two macrostates at
/// one model state the search discovers first.
fn included_model(n: usize, ab: Arc<Alphabet>, b_first: bool) -> Nfa {
    let a = Regex::sym(Symbol::from_index(0));
    let b = Regex::sym(Symbol::from_index(1));
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

/// Explores every reachable state of `view` (BFS, dense symbol order) and
/// returns `(states discovered, peak subset size)`.
fn explore_subsets(view: &NfaView<'_>) -> (usize, usize) {
    let nsyms = view.alphabet().len();
    let start = view.start();
    let mut peak = start.len();
    let mut seen: HashSet<<NfaView<'_> as Lang>::State> = HashSet::from([start.clone()]);
    let mut queue = VecDeque::from([start]);
    while let Some(state) = queue.pop_front() {
        for s in 0..nsyms {
            let next = view.step(&state, Symbol::from_index(s));
            peak = peak.max(next.len());
            if !seen.contains(&next) {
                seen.insert(next.clone());
                queue.push_back(next);
            }
        }
    }
    (seen.len(), peak)
}

/// One timed traversal of the family at size `n` on the production engine.
struct CountRow {
    n: usize,
    /// States visited by the measured traversal (DFA states for subset
    /// construction, product states for the joint BFS, input states for
    /// minimization).
    visited: usize,
    /// Largest NFA-subset cardinality the traversal ever held (for
    /// minimization: the minimal DFA's state count).
    peak_subset: usize,
    ns: u128,
}

fn reps_for(n: usize) -> usize {
    if n >= 12 {
        5
    } else if n >= 10 {
        10
    } else {
        20
    }
}

/// Subset construction: bitset `Dfa::from_nfa`.
fn measure_subset(n: usize) -> CountRow {
    let (_, nfa) = exponential_nfa(n);
    let (visited, peak_subset) = explore_subsets(&NfaView::new(&nfa));
    assert_eq!(Dfa::from_nfa(&nfa).num_states(), visited);
    let ns = time(reps_for(n), || Dfa::from_nfa(&nfa).num_states());
    CountRow {
        n,
        visited,
        peak_subset,
        ns,
    }
}

/// Exhaustive joint 0-1 BFS: the inclusion search of the model NFA
/// against the complement of the determinized spec, whose states cover
/// only themselves, so nothing is pruned. Inclusion holds, so the search
/// drains the entire reachable product.
fn measure_joint(n: usize) -> CountRow {
    let (ab, spec) = exponential_nfa(n);
    let model = included_model(n, ab, false);
    let markers = BTreeSet::new();
    let complement = Dfa::from_nfa(&spec).complement();
    let search = joint_search(&model, &complement, &markers);
    assert!(search.witness.is_none(), "model must be included in spec");
    let (_, peak_subset) = explore_subsets(&NfaView::new(&spec));
    let ns = time(reps_for(n), || {
        let complement = Dfa::from_nfa(&spec).complement();
        joint_search(&model, &complement, &markers)
            .witness
            .is_none()
    });
    CountRow {
        n,
        visited: search.stats.frontier,
        peak_subset,
        ns,
    }
}

/// The inclusion search over the lazy subset view of the spec (pruned by
/// `⊇` on macrostates) against the unpruned search of [`measure_joint`],
/// on the included-model family in both union orders.
struct InclusionRow {
    n: usize,
    b_first: bool,
    stats: InclusionStats,
    pruned_ns: u128,
    unpruned_ns: u128,
}

fn measure_inclusion(n: usize, b_first: bool) -> InclusionRow {
    let (ab, spec) = exponential_nfa(n);
    let model = included_model(n, ab, b_first);
    let markers = BTreeSet::new();
    let lazy = Complement::new(NfaView::new(&spec));
    let search = joint_search(&model, &lazy, &markers);
    assert!(search.witness.is_none(), "model must be included in spec");
    let reps = reps_for(n);
    let pruned_ns = time(reps, || {
        joint_search(&model, &lazy, &markers).witness.is_none()
    });
    let unpruned_ns = time(reps, || {
        let complement = Dfa::from_nfa(&spec).complement();
        joint_search(&model, &complement, &markers)
            .witness
            .is_none()
    });
    InclusionRow {
        n,
        b_first,
        stats: search.stats,
        pruned_ns,
        unpruned_ns,
    }
}

/// Hopcroft minimization of the (2^n + 1)-state DFA.
fn measure_minimize(n: usize) -> CountRow {
    let (_, nfa) = exponential_nfa(n);
    let dfa = Dfa::from_nfa(&nfa);
    let minimal = dfa.minimize().num_states();
    let reps = if n >= 10 { 3 } else { 10 };
    let ns = time(reps, || dfa.minimize().num_states());
    CountRow {
        n,
        visited: dfa.num_states(),
        peak_subset: minimal,
        ns,
    }
}

/// Writes `rows` as JSON objects under the given key names, one per line.
fn write_count_rows(json: &mut String, rows: &[CountRow], keys: [&str; 3]) {
    let [visited_key, peak_key, ns_key] = keys;
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"n\": {}, \"{visited_key}\": {}, \"{peak_key}\": {}, \"{ns_key}\": {}}}",
            r.n, r.visited, r.peak_subset, r.ns
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
}

fn write_inclusion_rows(json: &mut String, rows: &[InclusionRow]) {
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"n\": {}, \"union_order\": \"{}\", \"kept\": {}, \"pruned\": {}, \
             \"pruned_search_ns\": {}, \"unpruned_search_ns\": {}, \"speedup\": {:.2}}}",
            r.n,
            if r.b_first { "b+a" } else { "a+b" },
            r.stats.frontier,
            r.stats.pruned,
            r.pruned_ns,
            r.unpruned_ns,
            r.unpruned_ns as f64 / r.pruned_ns.max(1) as f64
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
}

// ---------------------------------------------------------------------------
// The dataflow/typestate row: a synthetic 100-class workspace.

/// Measured facts of the typestate analysis on the synthetic workspace.
struct DataflowRow {
    classes: usize,
    composites: usize,
    fast_path_proven: u64,
    analysis_ns: u128,
    check_ns: u128,
}

impl DataflowRow {
    fn skip_rate(&self) -> f64 {
        self.fast_path_proven as f64 / self.composites.max(1) as f64
    }
}

/// Builds the synthetic workspace: 10 three-operation device protocols and
/// 90 composite apps, each driving one device through `boot · work · stop`.
/// Every third app detours through a `while`/`break` loop, whose jump makes
/// the typestate analysis bail to ⊤ — so the fast-path skip rate lands
/// strictly between 0 and 1 and both verification paths stay exercised.
fn synthetic_workspace() -> Vec<(String, String)> {
    const BASES: usize = 10;
    const APPS: usize = 90;
    let mut files = Vec::with_capacity(BASES + APPS);
    for k in 0..BASES {
        files.push((
            format!("dev{k}.py"),
            format!(
                "@sys\nclass Dev{k}:\n    @op_initial\n    def boot(self):\n        \
                 return [\"work\"]\n\n    @op\n    def work(self):\n        \
                 return [\"stop\"]\n\n    @op_final\n    def stop(self):\n        \
                 return []\n"
            ),
        ));
    }
    for i in 0..APPS {
        let k = i % BASES;
        let body = if i % 3 == 2 {
            "        self.d.boot()\n        self.d.work()\n        \
             while retry:\n            break\n        self.d.stop()\n        return []\n"
        } else {
            "        self.d.boot()\n        self.d.work()\n        \
             self.d.stop()\n        return []\n"
        };
        files.push((
            format!("app{i}.py"),
            format!(
                "@sys([\"d\"])\nclass App{i}:\n    def __init__(self):\n        \
                 self.d = Dev{k}()\n\n    @op_initial_final\n    def run(self):\n{body}"
            ),
        ));
    }
    files
}

fn measure_dataflow() -> DataflowRow {
    let files = synthetic_workspace();

    // Counters from one cold workspace round.
    let mut ws = Checker::new().jobs(1).into_workspace();
    for (name, src) in &files {
        ws.set_file(name.clone(), src.clone());
    }
    let checked = ws.check().expect("synthetic workspace parses");
    assert!(
        checked.report.passed(),
        "synthetic workspace must verify:\n{}",
        checked.report.render(None)
    );
    let classes = checked.systems.len();
    let composites = checked.systems.iter().filter(|s| s.is_composite()).count();
    let fast_path_proven = ws.last_round().fast_path_proven;

    // Timed: the typestate analysis alone, over every class of the
    // concatenated module.
    let src: String = files
        .iter()
        .map(|(_, s)| s.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    let module = micropython_parser::parse_module(&src).expect("parses");
    let (systems, _) = build_systems(&module);
    let analysis_ns = time(5, || {
        let mut proven = 0usize;
        for system in systems.iter() {
            if let Some(class) = module.class(&system.name) {
                if let Some(report) = analyze_class(class, system, &systems) {
                    proven += report.proven.len();
                }
            }
        }
        proven
    });

    // Timed: a full cold workspace check (parse → extract → verify with
    // the fast path active).
    let check_ns = time(5, || {
        let mut ws = Checker::new().jobs(1).into_workspace();
        for (name, src) in &files {
            ws.set_file(name.clone(), src.clone());
        }
        ws.check().expect("parses").report.passed()
    });

    DataflowRow {
        classes,
        composites,
        fast_path_proven,
        analysis_ns,
        check_ns,
    }
}

/// The inclusion search's exact counters on the included-model family.
/// Pruning happens at push time, against pairs kept earlier: with each
/// `b` edge before its `a` edge, the smaller macrostate of a model state is
/// kept first and covers the larger one (4n − 2 kept, 2n − 4 pruned); with
/// `a` first, the larger one is kept first and nothing is pruned, so the
/// search keeps the whole 2^(n+1) − 2 product of the unpruned one.
fn inclusion_counters_hold(rows: &[InclusionRow]) -> bool {
    rows.iter().all(|r| {
        let (kept, pruned) = if r.b_first {
            (4 * r.n - 2, 2 * r.n - 4)
        } else {
            ((1 << (r.n + 1)) - 2, 0)
        };
        r.stats.frontier == kept && r.stats.pruned == pruned
    })
}

fn perf_report() -> (String, bool) {
    let sweep = [4usize, 6, 8, 10, 12];
    let subset: Vec<CountRow> = sweep.iter().map(|&n| measure_subset(n)).collect();
    let joint: Vec<CountRow> = sweep.iter().map(|&n| measure_joint(n)).collect();
    let inclusion: Vec<InclusionRow> = sweep
        .iter()
        .flat_map(|&n| [measure_inclusion(n, false), measure_inclusion(n, true)])
        .collect();
    let minimize: Vec<CountRow> = sweep.iter().map(|&n| measure_minimize(n)).collect();
    let dataflow = measure_dataflow();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"state_engine_perf\",\n");
    json.push_str(
        "  \"workload\": \"(a+b)*;a;(a+b)^(n-1): 2^n-state subset space on the bitset StateSet/CompiledNfa engine\",\n",
    );
    json.push_str("  \"subset_construction\": {\n");
    json.push_str("    \"rows\": [\n");
    write_count_rows(
        &mut json,
        &subset,
        ["dfa_states", "peak_subset", "bitset_ns"],
    );
    json.push_str("    ]\n  },\n");
    json.push_str("  \"joint_bfs\": {\n");
    json.push_str("    \"rows\": [\n");
    write_count_rows(
        &mut json,
        &joint,
        ["product_states_visited", "peak_subset", "bitset_ns"],
    );
    json.push_str("    ]\n  },\n");
    json.push_str("  \"inclusion\": {\n");
    json.push_str(
        "    \"workload\": \"inclusion search over the lazy subset view (pruned) vs over the determinized spec (unpruned), included model a;(a+b)^(n-1) in both union orders\",\n",
    );
    json.push_str("    \"rows\": [\n");
    write_inclusion_rows(&mut json, &inclusion);
    json.push_str("    ]\n  },\n");
    json.push_str("  \"minimization\": {\n");
    json.push_str("    \"rows\": [\n");
    write_count_rows(
        &mut json,
        &minimize,
        ["input_states", "minimal_states", "hopcroft_ns"],
    );
    json.push_str("    ]\n  },\n");
    json.push_str("  \"dataflow\": {\n");
    json.push_str(
        "    \"workload\": \"synthetic workspace: 10 three-op device protocols + 90 composite apps (every third loop-imprecise)\",\n",
    );
    json.push_str("    \"rows\": [\n");
    let _ = writeln!(
        json,
        "      {{\"classes\": {}, \"composites\": {}, \"fast_path_proven\": {}, \
         \"skip_rate\": {:.2}, \"analysis_ns\": {}, \"workspace_check_ns\": {}}}",
        dataflow.classes,
        dataflow.composites,
        dataflow.fast_path_proven,
        dataflow.skip_rate(),
        dataflow.analysis_ns,
        dataflow.check_ns
    );
    json.push_str("    ]\n  },\n");

    // The acceptance gates. Deterministic work counters on every row:
    // subset construction discovers all 2^n + 1 subsets, the exhaustive
    // joint BFS visits 2^(n+1) - 2 product states, Hopcroft reaches the
    // 2^n-state minimal DFA, the inclusion search keeps and prunes the
    // counts of [`inclusion_counters_hold`], and the typestate fast path
    // proves a positive share of the synthetic workspace.
    let gate_subset = subset.iter().all(|r| r.visited == (1 << r.n) + 1);
    let gate_joint = joint.iter().all(|r| r.visited == (1 << (r.n + 1)) - 2);
    let gate_minimal = minimize.iter().all(|r| r.peak_subset == 1 << r.n);
    let gate_inclusion = inclusion_counters_hold(&inclusion);
    let gate_dataflow = dataflow.fast_path_proven > 0;
    let _ = writeln!(
        json,
        "  \"gate\": {{\"n\": 10, \"subset_dfa_states_2n_plus_1\": {gate_subset}, \
         \"joint_product_states_2n1_minus_2\": {gate_joint}, \
         \"minimal_states_2n\": {gate_minimal}, \
         \"inclusion_kept_pruned_counters\": {gate_inclusion}, \
         \"dataflow_skip_rate_positive\": {gate_dataflow}}}"
    );
    json.push_str("}\n");
    (
        json,
        gate_subset && gate_joint && gate_minimal && gate_inclusion && gate_dataflow,
    )
}

fn write_or_die(path: &str, json: &str) {
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let lang_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_lang.json".to_owned());
    let perf_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_perf.json".to_owned());
    let sym_path = std::env::args()
        .nth(3)
        .unwrap_or_else(|| "BENCH_sym.json".to_owned());

    let (lang_json, lang_gate) = lang_report();
    write_or_die(&lang_path, &lang_json);
    print!("{lang_json}");

    let (perf_json, perf_gate) = perf_report();
    write_or_die(&perf_path, &perf_json);
    print!("{perf_json}");

    let (sym_json, sym_gate) = sym_report();
    write_or_die(&sym_path, &sym_json);
    print!("{sym_json}");

    assert!(
        lang_gate,
        "lazy-vs-eager separation gate failed (see {lang_path})"
    );
    assert!(
        perf_gate,
        "state-engine counter, inclusion counter or dataflow gate failed (see {perf_path})"
    );
    assert!(
        sym_gate,
        "exponential-frontier claim gate failed (see {sym_path})"
    );
}
