//! Robustness acceptance suite: fault injection, budgets, and graceful
//! degradation (the driver must survive panics, deadlines, and solver
//! stalls, degrading per-function exactly like the §5.2 cap fallback).

use std::collections::BTreeSet;
use std::time::Duration;

use rid_core::apis::linux_dpm_apis;
use rid_core::{
    analyze_program_cached, analyze_sources, AnalysisOptions, AnalysisResult, Budget,
    DegradeReason, FaultPlan, PathLimits, Summary,
};
use rid_corpus::kernel::{generate_kernel, KernelConfig};
use rid_frontend::parse_program;
use rid_ir::Program;

fn tiny_program(seed: u64) -> Program {
    let corpus = generate_kernel(&KernelConfig::tiny(seed));
    parse_program(corpus.sources.iter().map(String::as_str)).expect("corpus parses")
}

/// Names of the functions the run actually summarized (skipping the
/// predefined API specs, which are carried through the database).
fn analyzed_functions(result: &AnalysisResult) -> BTreeSet<String> {
    let apis = linux_dpm_apis();
    result
        .summaries
        .iter()
        .map(|s| s.func.as_str().to_owned())
        .filter(|name| !apis.contains(name))
        .collect()
}

fn summary_json(result: &AnalysisResult, name: &str) -> String {
    serde_json::to_string(result.summaries.get(name).expect(name)).unwrap()
}

#[test]
fn faulted_run_completes_with_correct_reasons_and_untouched_functions_identical() {
    let program = tiny_program(11);
    let apis = linux_dpm_apis();
    let options = AnalysisOptions::default();
    let plan = FaultPlan { seed: 42, panic_rate: 0.08, ..FaultPlan::none() };

    let clean = analyze_program_cached(&program, &apis, &options, &FaultPlan::none(), None);
    let faulted = analyze_program_cached(&program, &apis, &options, &plan, None);

    let analyzed = analyzed_functions(&clean);
    let hit: Vec<&String> =
        analyzed.iter().filter(|name| plan.should_panic(name, 0)).collect();
    assert!(
        hit.len() >= 2,
        "the plan must fault several analyzed functions, got {hit:?}"
    );

    // Every faulted function completed via the retry path and says so.
    for name in &hit {
        let record = faulted
            .degraded
            .get(name.as_str())
            .unwrap_or_else(|| panic!("{name} missing from degraded map"));
        assert_eq!(record.reason, DegradeReason::Retried, "{name}");
    }

    // Functions the plan did not touch are byte-identical to the clean
    // run: isolation means a panic cannot leak into its neighbours.
    for name in &analyzed {
        if plan.should_panic(name, 0) {
            continue;
        }
        assert_eq!(
            summary_json(&clean, name),
            summary_json(&faulted, name),
            "un-faulted `{name}` must be unaffected"
        );
    }

    // The run still finds the same bugs outside the faulted functions.
    let clean_reports: BTreeSet<&String> = clean
        .reports
        .iter()
        .map(|r| &r.function)
        .filter(|f| !plan.should_panic(f, 0))
        .collect();
    let faulted_reports: BTreeSet<&String> = faulted
        .reports
        .iter()
        .map(|r| &r.function)
        .filter(|f| !plan.should_panic(f, 0))
        .collect();
    assert_eq!(clean_reports, faulted_reports);
}

#[test]
fn parallel_equals_sequential_under_faults() {
    let program = tiny_program(13);
    let apis = linux_dpm_apis();
    let plan = FaultPlan { seed: 7, panic_rate: 0.1, ..FaultPlan::none() };

    let sequential = analyze_program_cached(
        &program,
        &apis,
        &AnalysisOptions { threads: 1, ..AnalysisOptions::default() },
        &plan,
        None,
    );
    let parallel = analyze_program_cached(
        &program,
        &apis,
        &AnalysisOptions { threads: 4, ..AnalysisOptions::default() },
        &plan,
        None,
    );

    assert_eq!(sequential.reports, parallel.reports);
    // wall_ms is measured wall-clock (the process's first panic also pays
    // a one-time unwinder-init cost of ~10ms), so compare everything but.
    let timeless = |r: &AnalysisResult| -> Vec<(String, DegradeReason, usize, usize)> {
        r.degraded
            .iter()
            .map(|(n, d)| (n.clone(), d.reason, d.cost.paths, d.cost.states))
            .collect()
    };
    assert_eq!(timeless(&sequential), timeless(&parallel));
    assert!(!sequential.degraded.is_empty(), "plan must actually fault something");
    assert_eq!(
        serde_json::to_string(&sequential.summaries).unwrap(),
        serde_json::to_string(&parallel.summaries).unwrap()
    );
}

#[test]
fn double_panic_degrades_to_default_summary() {
    let src = r#"module m;
        fn boom(dev) { pm_runtime_get_sync(dev); pm_runtime_put(dev); return 0; }
        fn fine(dev) { pm_runtime_get_sync(dev); pm_runtime_put(dev); return 0; }"#;
    let program = parse_program([src]).unwrap();
    let apis = linux_dpm_apis();
    let plan = FaultPlan {
        panic_functions: vec!["boom".into()],
        panic_twice: true,
        ..FaultPlan::none()
    };

    let result =
        analyze_program_cached(&program, &apis, &AnalysisOptions::default(), &plan, None);
    let record = result.degraded.get("boom").expect("boom must be degraded");
    assert_eq!(record.reason, DegradeReason::Panic);
    // The function fell back to exactly the §5.2 default summary.
    assert_eq!(
        serde_json::to_string(result.summaries.get("boom").unwrap()).unwrap(),
        serde_json::to_string(&Summary::default_for("boom")).unwrap()
    );
    // Its neighbour is untouched and clean.
    assert!(!result.degraded.contains_key("fine"));
    assert!(result.summaries.get("fine").is_some());
}

#[test]
fn single_panic_recovers_via_retry() {
    let src = r#"module m;
        fn flaky(dev) {
            let r = pm_runtime_get_sync(dev);
            if (r < 0) { pm_runtime_put(dev); return r; }
            pm_runtime_put(dev);
            return 0;
        }"#;
    let program = parse_program([src]).unwrap();
    let apis = linux_dpm_apis();
    let plan = FaultPlan { panic_functions: vec!["flaky".into()], ..FaultPlan::none() };

    let clean = analyze_program_cached(
        &program,
        &apis,
        &AnalysisOptions::default(),
        &FaultPlan::none(),
        None,
    );
    let faulted =
        analyze_program_cached(&program, &apis, &AnalysisOptions::default(), &plan, None);
    assert_eq!(faulted.degraded.get("flaky").unwrap().reason, DegradeReason::Retried);
    // The retry (reduced limits are still ample here) reproduces the
    // clean summary — the fault cost one retry, not precision.
    assert_eq!(
        serde_json::to_string(clean.summaries.get("flaky").unwrap()).unwrap(),
        serde_json::to_string(faulted.summaries.get("flaky").unwrap()).unwrap()
    );
}

#[test]
fn solver_stall_degrades_to_solver_fuel() {
    let src = r#"module m;
        fn branchy(dev) {
            let r = pm_runtime_get_sync(dev);
            if (r < 0) { pm_runtime_put(dev); return r; }
            pm_runtime_put(dev);
            return 0;
        }"#;
    let program = parse_program([src]).unwrap();
    let apis = linux_dpm_apis();
    let plan = FaultPlan { stall_rate: 1.0, ..FaultPlan::none() };

    let result =
        analyze_program_cached(&program, &apis, &AnalysisOptions::default(), &plan, None);
    let record = result.degraded.get("branchy").expect("stalled function degrades");
    assert_eq!(record.reason, DegradeReason::SolverFuel);
    // Degraded, not dead: a summary exists and it is partial.
    assert!(result.summaries.get("branchy").unwrap().partial);
}

#[test]
fn zero_fuel_budget_reports_solver_fuel() {
    let src = r#"module m;
        fn branchy(dev) {
            let r = pm_runtime_get_sync(dev);
            if (r < 0) { pm_runtime_put(dev); return r; }
            pm_runtime_put(dev);
            return 0;
        }"#;
    let options = AnalysisOptions {
        budget: Budget { solver_fuel: Some(0), ..Budget::unlimited() },
        ..AnalysisOptions::default()
    };
    let result = analyze_sources([src], &linux_dpm_apis(), &options).unwrap();
    assert_eq!(result.degraded.get("branchy").unwrap().reason, DegradeReason::SolverFuel);
}

#[test]
fn explosive_function_completes_within_deadline() {
    // 2^26 structural paths: enumerating them all would take minutes.
    // With an effectively-infinite path cap, only the deadline can stop
    // it — the run must still complete promptly with a Deadline record.
    let config = KernelConfig {
        adversarial_modules: 1,
        adversarial_depth: 26,
        ..KernelConfig::tiny(5)
    };
    let corpus = generate_kernel(&config);
    let program =
        parse_program(corpus.sources.iter().map(String::as_str)).expect("corpus parses");
    let options = AnalysisOptions {
        limits: PathLimits { max_paths: 100_000_000, ..PathLimits::default() },
        budget: Budget {
            func_deadline: Some(Duration::from_millis(80)),
            ..Budget::unlimited()
        },
        ..AnalysisOptions::default()
    };
    let started = std::time::Instant::now();
    let result = analyze_program_cached(
        &program,
        &linux_dpm_apis(),
        &options,
        &FaultPlan::none(),
        None,
    );
    let explosive = &corpus.adversarial_functions[0];
    let record = result
        .degraded
        .get(explosive)
        .unwrap_or_else(|| panic!("{explosive} must degrade: {:?}", result.degraded));
    assert_eq!(record.reason, DegradeReason::Deadline);
    assert!(result.summaries.get(explosive).unwrap().partial);
    // Generous bound: the whole tiny corpus plus one killed function.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "deadline failed to bound the explosive function"
    );
}

#[test]
fn slow_fault_trips_function_deadline() {
    let src = r#"module m;
        fn sleepy(dev) { pm_runtime_get_sync(dev); pm_runtime_put(dev); return 0; }"#;
    let program = parse_program([src]).unwrap();
    let options = AnalysisOptions {
        budget: Budget {
            func_deadline: Some(Duration::from_millis(20)),
            ..Budget::unlimited()
        },
        ..AnalysisOptions::default()
    };
    let plan = FaultPlan {
        slow_functions: vec!["sleepy".into()],
        slow_ms: 60,
        ..FaultPlan::none()
    };
    let result =
        analyze_program_cached(&program, &linux_dpm_apis(), &options, &plan, None);
    let record = result.degraded.get("sleepy").expect("sleepy must degrade");
    assert_eq!(record.reason, DegradeReason::Deadline);
    assert!(record.cost.wall_ms >= 20, "cost records the sleep: {:?}", record.cost);
}

#[test]
fn path_cap_function_degrades_and_callers_use_fallback() {
    // `explode` has 2^3 = 8 structural paths; with max_paths = 4 it hits
    // the cap, degrades with a PathCap record, and gains the §5.2 default
    // entry. Its caller keeps analyzing against that summary: the r < 0
    // branch is only feasible through the default (unconstrained) entry,
    // so an entry with [0] < 0 in the caller proves the fallback works.
    let src = r#"module m;
        fn explode(dev) {
            pm_runtime_get_sync(dev);
            let c0 = random;
            if (c0 < 0) { dev.a = 1; }
            let c1 = random;
            if (c1 < 0) { dev.b = 1; }
            let c2 = random;
            if (c2 < 0) { dev.c = 1; }
            pm_runtime_put(dev);
            return 0;
        }
        fn caller(dev) {
            let r = explode(dev);
            if (r < 0) { return r; }
            return 0;
        }"#;
    let options = AnalysisOptions {
        limits: PathLimits { max_paths: 4, ..PathLimits::default() },
        ..AnalysisOptions::default()
    };
    let result = analyze_sources([src], &linux_dpm_apis(), &options).unwrap();

    let record = result.degraded.get("explode").expect("explode must degrade");
    assert_eq!(record.reason, DegradeReason::PathCap);
    assert!(record.cost.paths <= 4);

    let explode = result.summaries.get("explode").unwrap();
    assert!(explode.partial);
    assert!(
        explode
            .entries
            .iter()
            .any(|e| e.cons.is_truth() && !e.has_changes() && e.ret.is_none()),
        "partial summary must contain the default entry: {explode:?}"
    );

    // The caller is analyzed normally (not degraded) on top of the
    // partial summary...
    assert!(!result.degraded.contains_key("caller"));
    let caller = result.summaries.get("caller").unwrap();
    // ...and sees the error branch exclusively through the default entry
    // (every real entry of `explode` implies a return of 0).
    use rid_solver::{Conj, Lit, Term, Var};
    let negative = Conj::from_lits([Lit::new(
        rid_ir::Pred::Lt,
        Term::var(Var::ret()),
        Term::int(0),
    )]);
    assert!(
        caller.entries.iter().any(|e| e.cons.implies(&negative)),
        "caller must have an error-path entry via the fallback: {caller:?}"
    );
}
