//! `langbench` — machine-readable summaries of the language-engine
//! performance story.
//!
//! Three artifacts, written next to the workspace root:
//!
//! * `BENCH_lang.json` — the lazy-vs-eager separation: the `lang_views`
//!   adversarial workload (claim `F a0 & ... & F a{n-1}` against the model
//!   `a0*`, negated monitor ~2^n states) at a sweep of sizes, measured on
//!   both engines.
//! * `BENCH_perf.json` — the state-engine trajectory: subset construction,
//!   exhaustive joint BFS and Hopcroft minimization on an exponential-DFA
//!   family, timed on the `StateSet`/`CompiledNfa` engine and gated on
//!   deterministic state counts, plus the antichain-vs-classic inclusion
//!   engines. Each row records size, wall-ns, states visited, and peak
//!   subset size so later PRs can prove regressions or improvements
//!   against it.
//! * `BENCH_sym.json` — the symbolic-vs-explicit claim-backend
//!   separation: the same `∧ F aᵢ` claim family, but against the model
//!   `Σⁿ`, whose reachable product frontier is genuinely exponential —
//!   the explicit joint search must enumerate it while the BDD engine
//!   carries each breadth-first ring as one diagram.
//!
//! The JSON is hand-rolled — the workspace is offline and carries no serde.
//!
//! Run with `cargo run -p langbench --release [LANG_OUT [PERF_OUT [SYM_OUT]]]`.

use shelley_bench::adversarial_claim;
use shelley_core::system::build_systems;
use shelley_core::{analyze_class, Checker};
use shelley_ltlf::{check_claim, to_dfa, Formula, MonitorView};
use shelley_regular::antichain;
use shelley_regular::lang::{Complement, Lang, NfaView};
use shelley_regular::{ops, Alphabet, Dfa, Nfa, Regex, Symbol};
use shelley_symbolic::check_claim_counted;
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

    let lazy_visited =
        ops::shortest_joint_word_counted(&model, &MonitorView::new(&bad, ab.clone()), &markers)
            .visited;
    let eager_states = to_dfa(&bad, ab.clone()).num_states();

    let reps = if n >= 12 { 5 } else { 20 };
    let lazy_ns = time(reps, || {
        assert!(!check_claim(&model, &claim, &markers).holds());
    });
    let eager_ns = time(reps, || {
        let monitor = to_dfa(&bad, ab.clone());
        ops::shortest_joint_word(&model, &monitor, &markers).expect("claim is violated")
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
// BENCH_sym.json: symbolic BDD backend vs explicit joint search.

/// `∧_{i<n} F aᵢ` against the model `Σⁿ` over an `n`-symbol alphabet.
///
/// Unlike the `lang_views` family (whose model `a0*` keeps the reachable
/// product linear), every length-`k` prefix here reaches a distinct
/// monitor residual per *set* of symbols seen so far — the product
/// frontier really is exponential, and the explicit engine must enumerate
/// it state by state before the first accepting node appears at depth
/// `n`. The claim is violated (e.g. `a0ⁿ` never sees `a1`), and every
/// accepted word has length `n`, so shortest witnesses have length `n`
/// on every backend.
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

/// What a budgeted explicit product search produced.
enum BudgetedSearch {
    /// A shortest violating word of this length was found.
    Decided { witness_len: usize },
    /// The budget ran out with no verdict.
    Aborted,
}

/// The explicit product search — model subsets × progression-monitor
/// residuals, breadth-first — capped at `budget` discovered product
/// states. Returns the verdict (for this family, always a violation when
/// it finishes) plus the number of states discovered.
fn explicit_budgeted(
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

/// One measured size where both engines run to completion.
struct SymRow {
    n: usize,
    product_states: usize,
    bdd_nodes: usize,
    explicit_ns: u128,
    symbolic_ns: u128,
}

/// The state budget the n=16 showcase instance must exceed explicitly.
const SYM_BUDGET: usize = 100_000;

fn measure_sym(n: usize) -> SymRow {
    let (ab, claim, model) = many_state_family(n);
    let markers = BTreeSet::new();
    let bad = claim.negate();

    let (decided, product_states) = explicit_budgeted(&model, &bad, ab.clone(), SYM_BUDGET * 100);
    assert!(
        matches!(decided, BudgetedSearch::Decided { witness_len } if witness_len == n),
        "family claim must be violated at witness length n"
    );
    let search = check_claim_counted(&model, &claim, &markers);
    assert_eq!(search.layers, n + 1, "one breadth-first ring per position");
    let bdd_nodes = search.bdd_nodes;

    let reps = if n >= 10 { 3 } else { 10 };
    let explicit_ns = time(reps, || {
        assert!(!check_claim(&model, &claim, &markers).holds());
    });
    let symbolic_ns = time(reps, || {
        assert!(!shelley_symbolic::check_claim(&model, &claim, &markers).holds());
    });

    SymRow {
        n,
        product_states,
        bdd_nodes,
        explicit_ns,
        symbolic_ns,
    }
}

fn sym_report() -> (String, bool) {
    let rows: Vec<SymRow> = [4, 8, 10, 12].into_iter().map(measure_sym).collect();

    // The showcase instance: at n = 16 the explicit engine blows through
    // the state budget undecided, while the symbolic engine returns a
    // shortest witness.
    const SHOWCASE_N: usize = 16;
    let (ab, claim, model) = many_state_family(SHOWCASE_N);
    let markers = BTreeSet::new();
    let bad = claim.negate();
    let t = Instant::now();
    let (verdict, explicit_states) = explicit_budgeted(&model, &bad, ab, SYM_BUDGET);
    let explicit_aborted = matches!(verdict, BudgetedSearch::Aborted);
    let explicit_abort_ns = t.elapsed().as_nanos();
    let t = Instant::now();
    let search = check_claim_counted(&model, &claim, &markers);
    let symbolic_ns = t.elapsed().as_nanos();
    let symbolic_witness_len = match &search.outcome {
        shelley_ltlf::ClaimOutcome::Violated { counterexample } => Some(counterexample.len()),
        shelley_ltlf::ClaimOutcome::Holds => None,
    };

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"symbolic_backend\",\n");
    json.push_str(
        "  \"workload\": \"claim F a0 & ... & F a{n-1} vs model Sigma^n (exponential product frontier)\",\n",
    );
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = r.explicit_ns as f64 / r.symbolic_ns.max(1) as f64;
        let _ = write!(
            json,
            "    {{\"n\": {}, \"explicit_product_states\": {}, \"bdd_nodes\": {}, \
             \"explicit_ns\": {}, \"symbolic_ns\": {}, \"speedup\": {:.2}}}",
            r.n, r.product_states, r.bdd_nodes, r.explicit_ns, r.symbolic_ns, speedup
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"showcase\": {{\"n\": {SHOWCASE_N}, \"state_budget\": {SYM_BUDGET}, \
         \"explicit_aborted\": {explicit_aborted}, \"explicit_states_at_abort\": {explicit_states}, \
         \"explicit_abort_ns\": {explicit_abort_ns}, \"symbolic_witness_len\": {}, \
         \"symbolic_bdd_nodes\": {}, \"symbolic_ns\": {symbolic_ns}}},",
        symbolic_witness_len.map_or(-1i64, |l| l as i64),
        search.bdd_nodes
    );

    // The acceptance gates: the symbolic engine decides the showcase
    // instance the explicit engine cannot touch within the budget, and is
    // at least break-even at n ≥ 12.
    let gate_showcase = explicit_aborted && symbolic_witness_len == Some(SHOWCASE_N);
    let gate_speed = rows
        .iter()
        .filter(|r| r.n >= 12)
        .all(|r| r.explicit_ns >= r.symbolic_ns);
    let _ = writeln!(
        json,
        "  \"gate\": {{\"symbolic_decides_past_explicit_budget\": {gate_showcase}, \
         \"symbolic_at_least_1x_at_n12\": {gate_speed}}}"
    );
    json.push_str("}\n");
    (json, gate_showcase && gate_speed)
}

// ---------------------------------------------------------------------------
// BENCH_perf.json: the bitset state engine, antichain inclusion, Hopcroft.

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

/// A model whose language (`a ; (a+b)^(n-1)`) is included in the
/// exponential spec, so the joint inclusion search must exhaust the whole
/// reachable product instead of stopping at an early witness.
fn included_model(n: usize, ab: Arc<Alphabet>) -> Nfa {
    let a = Symbol::from_index(0);
    let b = Symbol::from_index(1);
    let sigma = Regex::union(Regex::sym(a), Regex::sym(b));
    let mut re = Regex::sym(a);
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

/// An engine timed against the classic search it replaces.
struct PerfRow {
    n: usize,
    visited: usize,
    peak_subset: usize,
    fast_ns: u128,
    slow_ns: u128,
}

impl PerfRow {
    fn speedup(&self) -> f64 {
        self.slow_ns as f64 / self.fast_ns.max(1) as f64
    }
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

/// Exhaustive joint 0-1 BFS (the usage-verification hot path): model NFA
/// against the spec's complemented subset view. Inclusion holds, so the
/// search drains the entire reachable product.
fn measure_joint(n: usize) -> CountRow {
    let (ab, spec) = exponential_nfa(n);
    let model = included_model(n, ab);
    let markers = BTreeSet::new();
    let search =
        ops::shortest_joint_word_counted(&model, &Complement::new(NfaView::new(&spec)), &markers);
    assert!(search.witness.is_none(), "model must be included in spec");
    let (_, peak_subset) = explore_subsets(&NfaView::new(&spec));
    let ns = time(reps_for(n), || {
        ops::projected_subset(&model, &NfaView::new(&spec), &markers).is_ok()
    });
    CountRow {
        n,
        visited: search.visited,
        peak_subset,
        ns,
    }
}

/// Antichain-pruned inclusion vs the classic exhaustive joint search on
/// the same included-model family. Inclusion holds, so the classic engine
/// drains the exponential reachable product while the antichain engine
/// keeps a ⊆-minimal frontier that grows only linearly in `n`; `visited`
/// records the pairs the antichain discarded and `peak_subset` the pairs
/// it kept.
fn measure_inclusion(n: usize) -> PerfRow {
    let (ab, spec) = exponential_nfa(n);
    let model = included_model(n, ab);
    let markers = BTreeSet::new();
    let (verdict, stats) =
        antichain::projected_subset_counted(&model, &NfaView::new(&spec), &markers);
    assert!(verdict.is_ok(), "model must be included in spec");
    let reps = reps_for(n);
    let fast_ns = time(reps, || {
        antichain::projected_subset(&model, &NfaView::new(&spec), &markers).is_ok()
    });
    let slow_ns = time(reps, || {
        ops::projected_subset(&model, &NfaView::new(&spec), &markers).is_ok()
    });
    PerfRow {
        n,
        visited: stats.pruned,
        peak_subset: stats.frontier,
        fast_ns,
        slow_ns,
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

fn write_rows(json: &mut String, rows: &[PerfRow], keys: [&str; 4]) {
    let [visited_key, peak_key, fast_key, slow_key] = keys;
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"n\": {}, \"{visited_key}\": {}, \"{peak_key}\": {}, \"{fast_key}\": {}, \"{slow_key}\": {}, \"speedup\": {:.2}}}",
            r.n,
            r.visited,
            r.peak_subset,
            r.fast_ns,
            r.slow_ns,
            r.speedup()
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
    let composites = checked.integrations.len();
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

fn perf_report() -> (String, bool) {
    let sweep = [4usize, 6, 8, 10, 12];
    let subset: Vec<CountRow> = sweep.iter().map(|&n| measure_subset(n)).collect();
    let joint: Vec<CountRow> = sweep.iter().map(|&n| measure_joint(n)).collect();
    let inclusion: Vec<PerfRow> = sweep.iter().map(|&n| measure_inclusion(n)).collect();
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
        "    \"workload\": \"antichain-pruned inclusion vs classic exhaustive joint search, same included-model family\",\n",
    );
    json.push_str("    \"rows\": [\n");
    write_rows(
        &mut json,
        &inclusion,
        [
            "inclusion_antichain_pruned",
            "inclusion_antichain_frontier",
            "inclusion_antichain_ns",
            "inclusion_classic_ns",
        ],
    );
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
    // joint BFS visits 2^(n+1) - 2 product states, and Hopcroft reaches
    // the 2^n-state minimal DFA. At n ≥ 10 the antichain engine wins
    // inclusion by ≥ 2× over the classic search, and the typestate fast
    // path proves a positive share of the synthetic workspace.
    let gate_subset = subset.iter().all(|r| r.visited == (1 << r.n) + 1);
    let gate_joint = joint.iter().all(|r| r.visited == (1 << (r.n + 1)) - 2);
    let gate_minimal = minimize.iter().all(|r| r.peak_subset == 1 << r.n);
    let gate_inclusion = inclusion
        .iter()
        .filter(|r| r.n >= 10)
        .all(|r| r.speedup() >= 2.0);
    let gate_dataflow = dataflow.fast_path_proven > 0;
    let _ = writeln!(
        json,
        "  \"gate\": {{\"n\": 10, \"subset_dfa_states_2n_plus_1\": {gate_subset}, \
         \"joint_product_states_2n1_minus_2\": {gate_joint}, \
         \"minimal_states_2n\": {gate_minimal}, \
         \"inclusion_antichain_at_least_2x\": {gate_inclusion}, \
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
        "state-engine counter, antichain or dataflow gate failed (see {perf_path})"
    );
    assert!(
        sym_gate,
        "symbolic-backend separation gate failed (see {sym_path})"
    );
}
