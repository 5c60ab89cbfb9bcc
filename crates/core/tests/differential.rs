//! Differential acceptance suite: tree-mode execution (shared-prefix
//! walk + incremental solving + memo cache) must produce summaries
//! byte-identical to the per-path reference implementation.
//!
//! The comparison is on the serialized summary database (every
//! `FnSummary`: entry order, constraints, `CallRet`/`Random` occurrence
//! numbering, change maps) and on the bug reports. Two fault classes are
//! deliberately *excluded* from cross-mode comparison:
//!
//! * wall-clock deadlines / slow faults — where execution is cut off
//!   depends on elapsed time, which is nondeterministic in either mode;
//! * *partial* solver fuel — the two modes issue different query
//!   sequences (tree mode skips shared-prefix re-solves), so a finite
//!   nonzero fuel pool runs dry at different points. Fuel **zero** is
//!   fine (neither mode can propagate anything, so both answer from the
//!   raw edges identically) and is covered by the stall-fault test.

use rid_core::apis::linux_dpm_apis;
use rid_core::{
    analyze_program_cached, AnalysisOptions, AnalysisResult, ExecMode, FaultPlan, SummaryCache,
};
use rid_corpus::kernel::{generate_kernel, KernelConfig};
use rid_frontend::parse_program;
use rid_ir::Program;

fn corpus_program(config: &KernelConfig) -> Program {
    let corpus = generate_kernel(config);
    parse_program(corpus.sources.iter().map(String::as_str)).expect("corpus parses")
}

fn run(
    program: &Program,
    mode: ExecMode,
    threads: usize,
    faults: &FaultPlan,
) -> AnalysisResult {
    let options = AnalysisOptions { exec_mode: mode, threads, ..AnalysisOptions::default() };
    analyze_program_cached(program, &linux_dpm_apis(), &options, faults, None)
}

/// The whole summary database as one canonical JSON blob (summaries
/// sorted by function name — the byte-identity the tentpole demands).
fn db_json(result: &AnalysisResult) -> String {
    let mut summaries: Vec<_> = result.summaries.iter().collect();
    summaries.sort_by_key(|s| s.func);
    summaries
        .iter()
        .map(|s| serde_json::to_string(*s).unwrap())
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_equivalent(tree: &AnalysisResult, per_path: &AnalysisResult, what: &str) {
    assert_eq!(db_json(tree), db_json(per_path), "summary bytes diverge: {what}");
    assert_eq!(tree.reports, per_path.reports, "reports diverge: {what}");
    assert_eq!(
        tree.stats.functions_analyzed, per_path.stats.functions_analyzed,
        "coverage diverges: {what}"
    );
    assert_eq!(
        tree.stats.functions_partial, per_path.stats.functions_partial,
        "partiality diverges: {what}"
    );
}

#[test]
fn tree_matches_per_path_on_seeded_corpora() {
    for seed in [3, 11, 2016] {
        let program = corpus_program(&KernelConfig::tiny(seed));
        let none = FaultPlan::none();
        let tree = run(&program, ExecMode::Tree, 1, &none);
        let per_path = run(&program, ExecMode::PerPath, 1, &none);
        assert_equivalent(&tree, &per_path, &format!("seed {seed}"));
        // Sanity: the corpus must actually exercise the interesting
        // machinery, or the equivalence is vacuous.
        assert!(tree.stats.functions_analyzed > 10, "seed {seed} corpus too small");
        assert!(tree.stats.blocks_saved > 0, "no prefix sharing at seed {seed}");
        assert!(tree.stats.sat_queries > 0);
    }
}

#[test]
fn tree_matches_per_path_on_adversarial_path_explosion() {
    // The fault suite's adversarial modules: chained diamonds with 2^depth
    // structural paths, truncated by the path cap — maximal prefix
    // sharing plus cap-degradation interplay.
    let config = KernelConfig {
        adversarial_modules: 2,
        adversarial_depth: 12,
        ..KernelConfig::tiny(7)
    };
    let program = corpus_program(&config);
    let none = FaultPlan::none();
    let tree = run(&program, ExecMode::Tree, 1, &none);
    let per_path = run(&program, ExecMode::PerPath, 1, &none);
    assert_equivalent(&tree, &per_path, "adversarial 2^12 CFGs");
    assert!(
        tree.stats.functions_partial > 0,
        "adversarial functions must trip the path cap"
    );
    // The whole point of the tree: shared prefixes of the 100 surviving
    // paths of each adversarial function collapse.
    assert!(tree.stats.blocks_saved > tree.stats.blocks_executed / 10);
}

#[test]
fn tree_parallel_matches_tree_and_per_path_sequential() {
    let program = corpus_program(&KernelConfig::tiny(23));
    let none = FaultPlan::none();
    let tree_seq = run(&program, ExecMode::Tree, 1, &none);
    let tree_par = run(&program, ExecMode::Tree, 4, &none);
    let per_path_seq = run(&program, ExecMode::PerPath, 1, &none);
    let per_path_par = run(&program, ExecMode::PerPath, 4, &none);
    assert_equivalent(&tree_par, &tree_seq, "tree 4 threads vs 1");
    assert_equivalent(&per_path_par, &per_path_seq, "per-path 4 threads vs 1");
    assert_equivalent(&tree_par, &per_path_seq, "tree parallel vs per-path sequential");
    // The memo cache is per-function, so parallelism must not change its
    // effectiveness either.
    assert_eq!(tree_par.stats.sat_memo_hits, tree_seq.stats.sat_memo_hits);
}

#[test]
fn tree_matches_per_path_under_panic_faults() {
    // Panic faults fire before summarization starts (per function and
    // attempt, by name hash), so both modes see the identical
    // panic/retry/degrade schedule; the retry runs with reduced limits in
    // both. Summaries must still match byte for byte.
    let program = corpus_program(&KernelConfig::tiny(11));
    let plan = FaultPlan { seed: 42, panic_rate: 0.08, ..FaultPlan::none() };
    let tree = run(&program, ExecMode::Tree, 1, &plan);
    let per_path = run(&program, ExecMode::PerPath, 1, &plan);
    assert_equivalent(&tree, &per_path, "panic faults");
    assert!(
        !tree.degraded.is_empty(),
        "the plan must actually degrade some functions"
    );
    assert_eq!(
        tree.degraded.keys().collect::<Vec<_>>(),
        per_path.degraded.keys().collect::<Vec<_>>(),
        "both modes must degrade the same functions"
    );
    // And panic faults under parallelism, for good measure.
    let tree_par = run(&program, ExecMode::Tree, 4, &plan);
    assert_equivalent(&tree_par, &per_path, "panic faults, tree parallel");
}

#[test]
fn scheduler_and_cache_match_reference_across_threads_and_faults() {
    // The work-stealing scheduler and the persistent summary cache must
    // be invisible in the output: at every thread count, cold or warm,
    // under every supported fault plan, the summary database and report
    // set are byte-identical to the sequential per-path reference run
    // under the *same* plan. Warm runs are primed under the same plan
    // too: degraded functions are never cached, so they re-execute — and
    // re-fault — identically.
    let program = corpus_program(&KernelConfig::tiny(17));
    let apis = linux_dpm_apis();
    let plans = [
        ("no faults", FaultPlan::none()),
        ("panic faults", FaultPlan { seed: 42, panic_rate: 0.08, ..FaultPlan::none() }),
        ("solver stall", FaultPlan { seed: 9, stall_rate: 0.25, ..FaultPlan::none() }),
    ];
    for (what, plan) in &plans {
        let reference = run(&program, ExecMode::PerPath, 1, plan);
        for threads in [1usize, 2, 8] {
            let options = AnalysisOptions { threads, ..AnalysisOptions::default() };

            let cold = analyze_program_cached(&program, &apis, &options, plan, None);
            assert_equivalent(&cold, &reference, &format!("{what}, {threads} threads, cold"));
            assert_eq!(
                cold.degraded.keys().collect::<Vec<_>>(),
                reference.degraded.keys().collect::<Vec<_>>(),
                "degradation set diverges: {what}, {threads} threads"
            );

            let mut cache = SummaryCache::new();
            let primed =
                analyze_program_cached(&program, &apis, &options, plan, Some(&mut cache));
            assert_equivalent(&primed, &reference, &format!("{what}, {threads} threads, priming"));
            let warm = analyze_program_cached(&program, &apis, &options, plan, Some(&mut cache));
            assert_equivalent(&warm, &reference, &format!("{what}, {threads} threads, warm"));
            assert!(
                warm.stats.cache_hits > 0,
                "warm run must reuse the cache: {what}, {threads} threads"
            );
            assert_eq!(
                warm.stats.cache_hits + warm.stats.cache_misses,
                warm.stats.functions_analyzed,
                "every analyzed function either hits or recomputes (degraded \
                 entries are never cached): {what}, {threads} threads"
            );
        }
    }
}

#[test]
fn tree_matches_per_path_under_solver_stall() {
    // Stalled functions run with fuel 0: no relaxation can propagate in
    // either solver, so both modes answer every query from the raw edges
    // — the zero-fuel equivalence pinned down in the solver's unit tests,
    // here end-to-end.
    let program = corpus_program(&KernelConfig::tiny(11));
    let plan = FaultPlan { seed: 9, stall_rate: 0.25, ..FaultPlan::none() };
    let tree = run(&program, ExecMode::Tree, 1, &plan);
    let per_path = run(&program, ExecMode::PerPath, 1, &plan);
    assert_equivalent(&tree, &per_path, "solver stall (fuel 0)");
    assert!(
        tree.degraded
            .values()
            .any(|d| d.reason == rid_core::DegradeReason::SolverFuel),
        "the stall plan must trip the fuel degradation path"
    );
}
