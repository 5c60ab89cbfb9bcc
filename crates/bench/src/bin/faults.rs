//! Exercises the **fault-tolerance machinery**: runs the analyzer over a
//! generated kernel corpus with a deterministic [`FaultPlan`] (injected
//! panics, solver stalls, slow functions) plus optional budgets, and
//! prints a per-reason degradation table alongside the detection quality
//! of the surviving run.
//!
//! ```text
//! cargo run -p rid-bench --release --bin faults [-- --seed N]
//!     [--panic-rate R] [--stall-rate R] [--slow-rate R] [--slow-ms MS]
//!     [--panic-twice] [--deadline-ms MS] [--fuel N] [--threads N]
//!     [--adversarial N] [--scale S]
//! ```
//!
//! The point to check: the run *completes* (no fault escapes the driver),
//! every injected fault shows up as a `retried`/`panic`/`solver-fuel`/
//! `deadline` record, and detection on un-faulted functions matches the
//! clean run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rid_bench::{evaluate_kernel, format_table};
use rid_core::{AnalysisOptions, Budget, DegradeReason, FaultPlan};
use rid_corpus::kernel::{generate_kernel, KernelConfig};

#[path = "../args.rs"]
mod args;

fn main() {
    let seed: u64 = args::flag("seed").unwrap_or(2016);
    let threads: usize = args::flag("threads").unwrap_or(4);
    let scale: f64 = args::flag("scale").unwrap_or(1.0);
    let adversarial: usize = args::flag("adversarial").unwrap_or(0);

    let plan = FaultPlan {
        seed,
        panic_rate: args::flag("panic-rate").unwrap_or(0.05),
        slow_rate: args::flag("slow-rate").unwrap_or(0.0),
        slow_ms: args::flag("slow-ms").unwrap_or(50),
        stall_rate: args::flag("stall-rate").unwrap_or(0.0),
        panic_twice: args::has_flag("panic-twice"),
        ..FaultPlan::none()
    };
    let budget = Budget {
        func_deadline: args::flag("deadline-ms").map(Duration::from_millis),
        solver_fuel: args::flag("fuel"),
        global_deadline: args::flag("global-deadline-ms").map(Duration::from_millis),
    };

    let config = KernelConfig {
        adversarial_modules: adversarial,
        ..KernelConfig::tiny(seed).scaled(scale)
    };
    eprintln!("generating corpus (seed {seed}, scale {scale})...");
    let corpus = generate_kernel(&config);
    let program = rid_frontend::parse_program(corpus.sources.iter().map(String::as_str))
        .expect("corpus must parse");
    let apis = rid_core::apis::linux_dpm_apis();
    let options = AnalysisOptions { threads, budget, ..AnalysisOptions::default() };

    eprintln!("clean run...");
    let clean_start = Instant::now();
    let clean = rid_core::analyze_program(&program, &apis, &AnalysisOptions {
        budget: Budget::unlimited(),
        ..options
    });
    let clean_time = clean_start.elapsed();

    eprintln!("faulted run...");
    // Injected panics are caught by the driver; keep their backtraces off
    // the terminal so the census below stays readable.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let faulted_start = Instant::now();
    let faulted = rid_core::analyze_program_cached(&program, &apis, &options, &plan, None);
    let faulted_time = faulted_start.elapsed();
    std::panic::set_hook(default_hook);

    let mut by_reason: BTreeMap<DegradeReason, (usize, u64)> = BTreeMap::new();
    for d in faulted.degraded.values() {
        let slot = by_reason.entry(d.reason).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += d.cost.wall_ms;
    }
    let rows: Vec<Vec<String>> = by_reason
        .iter()
        .map(|(reason, (count, wall_ms))| {
            vec![reason.label().to_owned(), count.to_string(), format!("{wall_ms} ms")]
        })
        .collect();

    println!("fault tolerance: degradation census (seed {seed})");
    println!();
    if rows.is_empty() {
        println!("no functions degraded — raise --panic-rate or tighten budgets");
    } else {
        println!("{}", format_table(&["reason", "functions", "wall-clock"], &rows));
    }

    let faulted_fns: Vec<&str> =
        plan.faulted(faulted.summaries.iter().map(|s| s.func.as_str())).collect();
    let clean_quality = evaluate_kernel(&corpus, &clean);
    let fault_quality = evaluate_kernel(&corpus, &faulted);
    println!(
        "fault plan touched {} of {} summarized functions",
        faulted_fns.len(),
        faulted.summaries.len()
    );
    println!(
        "clean run:   {} reports, {} confirmed, {} missed  ({:.2}s)",
        clean_quality.reports,
        clean_quality.confirmed,
        clean_quality.missed_detectable,
        clean_time.as_secs_f64()
    );
    println!(
        "faulted run: {} reports, {} confirmed, {} missed  ({:.2}s)",
        fault_quality.reports,
        fault_quality.confirmed,
        fault_quality.missed_detectable,
        faulted_time.as_secs_f64()
    );
    println!();
    println!("the shape to check: the faulted run completes, every injected fault");
    println!("surfaces as a degradation record, and detection quality matches the");
    println!("clean run except on functions the plan itself degraded.");
}
