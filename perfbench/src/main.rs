//! `perfbench` — the Rust half of the end-to-end benchmark (`run.py` is
//! the driver).
//!
//! ```text
//! perfbench gen   --workload W --seed N --out DIR
//! perfbench trace --workload W --seed N --dir DIR --work DIR2
//!                 [--passes N [--cache CACHE] [--base BASE] | --patches N]
//! ```
//!
//! `gen` writes a workload's seeded corpus (`module_NNNN.ril`), the
//! generator's ground truth (`ground_truth.json`), and the one-function
//! edits the incremental workloads apply (`edits.json`). `trace` replays
//! one workload in-process: it calls the public entry point of each layer
//! in pipeline order, times every call from outside, and prints one JSON
//! object of per-layer metrics. The program under test is never modified;
//! the only spans summed here are the ones it already emits.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rid_core::{AnalysisOptions, FaultPlan};
use rid_corpus::kernel::{generate_kernel, KernelConfig};
use rid_obs::SpanKind;
use rid_serve::{Engine, Request, ServerConfig};

/// Distinct edit targets; the load generator rotates through them.
const EDIT_TARGETS: usize = 16;

/// Figure 8: the early error return skips the put that the success path
/// makes, and both paths may return the same value.
const BUGGY_PROBE: &str = "let r = pm_runtime_get_sync(dev);\n    if (r < 0) { return r; }\n    \
                           r = perfbench_probe_op(dev);\n    pm_runtime_put(dev);\n    return r;";
/// The fix: the error path puts too.
const CLEAN_PROBE: &str = "let r = pm_runtime_get_sync(dev);\n    \
                           if (r < 0) { pm_runtime_put(dev); return r; }\n    \
                           r = perfbench_probe_op(dev);\n    pm_runtime_put(dev);\n    return r;";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&Opts::parse(&args[1..])),
        Some("trace") => cmd_trace(&Opts::parse(&args[1..])),
        _ => Err("usage: perfbench gen|trace --workload W --seed N ...".to_owned()),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

struct Opts(HashMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut map = HashMap::new();
        for pair in args.chunks(2) {
            if let [key, value] = pair {
                map.insert(key.trim_start_matches("--").to_owned(), value.clone());
            }
        }
        Opts(map)
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("--{key} is required"))
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.get(key).map(PathBuf::from)
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("seed")?
            .parse()
            .map_err(|_| "--seed expects an integer".to_owned())
    }
}

/// Every workload runs on the scale-1.0 evaluation corpus.
fn config(workload: &str, seed: u64) -> Result<KernelConfig, String> {
    match workload {
        "cold-scan" | "ci-rescan" | "daemon-patch" => Ok(KernelConfig::evaluation(seed)),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn io_err(path: &Path, e: std::io::Error) -> String {
    format!("{}: {e}", path.display())
}

fn cmd_gen(opts: &Opts) -> Result<(), String> {
    let seed = opts.seed()?;
    let corpus = generate_kernel(&config(opts.get("workload")?, seed)?);
    let out = opts.path("out")?;
    std::fs::create_dir_all(&out).map_err(|e| io_err(&out, e))?;
    let files: Vec<String> = (0..corpus.sources.len())
        .map(|i| format!("module_{i:04}.ril"))
        .collect();
    for (file, source) in files.iter().zip(&corpus.sources) {
        let path = out.join(file);
        std::fs::write(&path, source).map_err(|e| io_err(&path, e))?;
    }
    let mut expected: BTreeSet<&str> = corpus.detectable_bug_functions().collect();
    expected.extend(corpus.expected_false_positives.iter().map(String::as_str));
    let truth = serde_json::json!({
        "expected": expected.iter().collect::<Vec<_>>(),
        "modules": corpus.sources.len(),
        "functions": corpus.function_count,
        "bytes": corpus.sources.iter().map(String::len).sum::<usize>(),
    });
    let path = out.join("ground_truth.json");
    std::fs::write(
        &path,
        serde_json::to_string(&truth).map_err(|e| e.to_string())?,
    )
    .map_err(|e| io_err(&path, e))?;

    let edits: Vec<serde_json::Value> = edit_targets(&corpus.sources, &expected, seed)?
        .into_iter()
        .map(|t| {
            serde_json::json!({
                "file": files[t.module],
                "function": t.function,
                "clean": t.clean,
                "buggy": t.buggy,
            })
        })
        .collect();
    let path = out.join("edits.json");
    std::fs::write(
        &path,
        serde_json::to_string(&edits).map_err(|e| e.to_string())?,
    )
    .map_err(|e| io_err(&path, e))
}

/// One function the incremental workloads rewrite, with the whole edited
/// module text for each probe.
struct EditTarget {
    module: usize,
    function: String,
    clean: String,
    buggy: String,
}

/// Picks [`EDIT_TARGETS`] functions, one per module, that nothing calls
/// or names (so an edit re-executes exactly one function and cannot move
/// any other report) and that the ground truth expects no report from.
fn edit_targets(
    sources: &[String],
    excluded: &BTreeSet<&str>,
    seed: u64,
) -> Result<Vec<EditTarget>, String> {
    let mut occurrences: HashMap<&str, usize> = HashMap::new();
    for source in sources {
        for token in source.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
            if !token.is_empty() {
                *occurrences.entry(token).or_default() += 1;
            }
        }
    }
    let mut candidates: Vec<(usize, &str)> = Vec::new();
    for (module, source) in sources.iter().enumerate() {
        if !source.contains("extern fn pm_runtime_get_sync;")
            || !source.contains("extern fn pm_runtime_put;")
        {
            continue;
        }
        let uncalled = source
            .lines()
            .filter_map(|l| l.strip_prefix("fn "))
            .find_map(|rest| {
                let name = &rest[..rest.find('(')?];
                (occurrences.get(name) == Some(&1) && !excluded.contains(name)).then_some(name)
            });
        if let Some(name) = uncalled {
            candidates.push((module, name));
        }
    }
    if candidates.len() < EDIT_TARGETS {
        return Err(format!(
            "only {} edit targets in the corpus",
            candidates.len()
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..EDIT_TARGETS {
        let j = rng.gen_range(i..candidates.len());
        candidates.swap(i, j);
    }
    let mut chosen = candidates[..EDIT_TARGETS].to_vec();
    chosen.sort_unstable();
    chosen
        .into_iter()
        .map(|(module, function)| {
            let source = &sources[module];
            let start = source
                .find(&format!("fn {function}("))
                .ok_or_else(|| format!("{function}: definition not found"))?;
            let end = start
                + source[start..]
                    .find("\n}\n")
                    .ok_or_else(|| format!("{function}: no end"))?
                + 3;
            let rewrite = |body: &str| -> Result<String, String> {
                let text = format!(
                    "{}fn {function}(dev) {{\n    {body}\n}}\n{}",
                    &source[..start],
                    &source[end..]
                );
                rid_frontend::parse_module(&text).map_err(|e| format!("{function}: {e}"))?;
                Ok(text)
            };
            Ok(EditTarget {
                module,
                function: function.to_owned(),
                clean: rewrite(CLEAN_PROBE)?,
                buggy: rewrite(BUGGY_PROBE)?,
            })
        })
        .collect()
}

/// Per-layer metrics, in seconds unless the name says otherwise.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        *self.0.entry(name).or_default() += start.elapsed().as_secs_f64();
        out
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

fn corpus_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| io_err(dir, e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ril"))
        .collect();
    files.sort();
    Ok(files)
}

fn cmd_trace(opts: &Opts) -> Result<(), String> {
    let workload = opts.get("workload")?;
    config(workload, 0)?;
    let dir = opts.path("dir")?;
    let work = opts.path("work")?;
    std::fs::create_dir_all(&work).map_err(|e| io_err(&work, e))?;
    let mut layers = Layers::default();
    if workload == "daemon-patch" {
        let patches: usize = opts
            .get("patches")?
            .parse()
            .map_err(|_| "--patches: count")?;
        replay_daemon(&dir, &work, opts.seed()?, patches, &mut layers)?;
    } else {
        let cache = opts.0.get("cache").map(PathBuf::from);
        let base = opts.0.get("base").map(PathBuf::from);
        let passes: usize = opts.get("passes")?.parse().map_err(|_| "--passes: count")?;
        replay_cli(
            &dir,
            &work,
            cache.as_deref(),
            base.as_deref(),
            passes.max(1),
            &mut layers,
        )?;
    }
    let body: Vec<String> = layers
        .0
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", serde_json::json!(v)))
        .collect();
    println!("{{{}}}", body.join(", "));
    Ok(())
}

/// Untraced/traced pairs behind the tracing-overhead median.
const OVERHEAD_PAIRS: usize = 3;

fn parse_all(sources: &[String]) -> Result<Vec<rid_ir::Module>, String> {
    sources
        .iter()
        .map(|s| rid_frontend::parse_module(s).map_err(|e| e.to_string()))
        .collect()
}

fn link_all(modules: Vec<rid_ir::Module>) -> Result<rid_ir::Program, String> {
    let mut program = rid_ir::Program::new();
    for module in modules {
        program.link(module).map_err(|e| e.to_string())?;
    }
    Ok(program)
}

fn load_cache(path: Option<&Path>) -> Result<Option<rid_core::SummaryCache>, String> {
    path.map(|p| rid_core::persist::load_cache(p).map_err(|e| io_err(p, e)))
        .transpose()
}

/// Replays `rid analyze --json` (with a cache, the `--cache --save-state`
/// run of a CI push) and, given a baseline state, the `rid diff` of the CI
/// gate against the last pass's reports.
fn replay_cli(
    dir: &Path,
    work: &Path,
    cache_path: Option<&Path>,
    base: Option<&Path>,
    passes: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    let files = corpus_files(dir)?;
    let mut done = Vec::new();
    let mut reports = Vec::new();
    for _ in 0..passes {
        let mut pass = Layers::default();
        reports = analyze_pass(&files, work, cache_path, &mut pass)?;
        done.push(pass);
    }
    for name in done[0].0.keys() {
        layers.set(name, median(done.iter().map(|p| p.0[name]).collect()));
    }

    if let Some(base) = base {
        // `rid diff` loads two states; one load prices both, since the
        // decode dominates and the two states are the same size.
        let old = layers
            .time("persist.state_load_s", || {
                rid_core::persist::load_state(base)
            })
            .map_err(|e| io_err(base, e))?;
        let baseline: Vec<String> = layers.time("triage.hash_s", || {
            old.reports.iter().map(rid_core::report_hash).collect()
        });
        let diff = layers.time("triage.classify_s", || {
            rid_core::classify_reports(&baseline, &reports)
        });
        std::hint::black_box(diff);
    }

    // The same parse → link → driver once untraced and once with the
    // program's own spans switched on; the difference is the tracing
    // overhead, and the spans split the driver into its children.
    let sources: Vec<String> = files
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| io_err(p, e)))
        .collect::<Result<_, _>>()?;
    let apis = rid_core::apis::linux_dpm_apis();
    let options = AnalysisOptions::default();
    let core_run = |traced: bool| -> Result<f64, String> {
        let mut cache = load_cache(cache_path)?;
        if traced {
            rid_obs::trace::enable(rid_obs::trace::DEFAULT_CAPACITY);
        }
        let start = Instant::now();
        let program = link_all(parse_all(&sources)?)?;
        let result = rid_core::analyze_program_cached(
            &program,
            &apis,
            &options,
            &FaultPlan::none(),
            cache.as_mut(),
        );
        let elapsed = start.elapsed().as_secs_f64();
        std::hint::black_box(result);
        Ok(elapsed)
    };
    let mut overhead = Vec::new();
    let mut trace = rid_obs::Trace::default();
    for _ in 0..OVERHEAD_PAIRS {
        let untraced = core_run(false)?;
        let traced = core_run(true)?;
        rid_obs::trace::disable();
        trace = rid_obs::drain();
        overhead.push(traced - untraced);
    }
    layers.set("trace.overhead_s", median(overhead));
    layers.set("trace.dropped", trace.dropped as f64);
    for (kind, name) in [
        (SpanKind::Enumerate, "core.enumerate_s"),
        (SpanKind::Exec, "core.exec_s"),
        (SpanKind::Solve, "core.solve_s"),
        (SpanKind::IppCheck, "core.ipp_s"),
        (SpanKind::Refute, "core.refute_s"),
        (SpanKind::CacheLookup, "core.cache_lookup_s"),
    ] {
        let ns: u64 = trace
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.dur_ns)
            .sum();
        layers.set(name, ns as f64 / 1e9);
    }
    Ok(())
}

/// One pass over the analysis half: read → parse → link → driver →
/// render, with the cache load/save and state save of a `--cache` run.
fn analyze_pass(
    files: &[PathBuf],
    work: &Path,
    cache_path: Option<&Path>,
    layers: &mut Layers,
) -> Result<Vec<rid_core::IppReport>, String> {
    let apis = rid_core::apis::linux_dpm_apis();
    let options = AnalysisOptions::default();
    let sources: Vec<String> = layers.time("io.read_s", || {
        files
            .iter()
            .map(|p| std::fs::read_to_string(p).map_err(|e| io_err(p, e)))
            .collect::<Result<_, _>>()
    })?;
    let bytes: usize = sources.iter().map(String::len).sum();
    let modules = layers.time("frontend.parse_s", || parse_all(&sources))?;
    layers.set("frontend.modules", modules.len() as f64);
    layers.set(
        "frontend.mb_per_s",
        bytes as f64 / 1e6 / layers.0["frontend.parse_s"],
    );
    let program = layers.time("ir.link_s", || link_all(modules))?;
    layers.set("ir.functions", program.function_count() as f64);
    // The driver builds the call graph and classifies on its own; these
    // standalone calls price those two children of `core.driver_s`.
    let graph = layers.time("core.callgraph_s", || rid_core::CallGraph::build(&program));
    layers.time("core.classify_s", || {
        rid_core::classify::classify(&program, &graph, &apis)
    });

    let mut cache = layers.time("persist.cache_load_s", || load_cache(cache_path))?;
    let result = layers.time("core.driver_s", || {
        rid_core::analyze_program_cached(
            &program,
            &apis,
            &options,
            &FaultPlan::none(),
            cache.as_mut(),
        )
    });
    let json = layers
        .time("report.render_s", || {
            serde_json::to_string_pretty(&result.reports)
        })
        .map_err(|e| e.to_string())?;
    layers.set("report.json_bytes", json.len() as f64);

    let stats = &result.stats;
    layers.set("core.functions_analyzed", stats.functions_analyzed as f64);
    layers.set("core.paths_enumerated", stats.paths_enumerated as f64);
    layers.set("core.states_explored", stats.states_explored as f64);
    layers.set("core.sat_queries", stats.sat_queries as f64);
    layers.set(
        "core.sat_memo_hit_ratio",
        ratio(stats.sat_memo_hits, stats.sat_queries),
    );
    layers.set(
        "core.blocks_saved_ratio",
        ratio(
            stats.blocks_saved,
            stats.blocks_executed + stats.blocks_saved,
        ),
    );
    layers.set("core.functions_degraded", result.degraded.len() as f64);
    layers.set("core.reports_confirmed", stats.reports_confirmed as f64);
    layers.set("core.reports_refuted", stats.reports_refuted as f64);
    let probes = stats.cache_hits + stats.cache_misses + stats.cache_invalidated;
    layers.set("core.cache_hit_ratio", ratio(stats.cache_hits, probes));

    if let Some(cache) = &cache {
        let cache_out = work.join("cache.ridss");
        layers
            .time("persist.cache_save_s", || {
                rid_core::persist::save_cache(cache, &cache_out)
            })
            .map_err(|e| io_err(&cache_out, e))?;
        layers.set("persist.cache_bytes", file_len(&cache_out));
        let state_out = work.join("new.json");
        layers
            .time("persist.state_save_s", || {
                rid_core::persist::save_state(&result, &state_out)
            })
            .map_err(|e| io_err(&state_out, e))?;
        layers.set("persist.state_bytes", file_len(&state_out));
    }
    Ok(result.reports)
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// Replays the daemon workload through an in-process [`Engine`]:
/// register → analyze → snapshot, `patches` one-function patches (the
/// load generator's rotation), then a restore over the state directory.
fn replay_daemon(
    dir: &Path,
    work: &Path,
    seed: u64,
    patches: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    let files = corpus_files(dir)?;
    let mut sources = BTreeMap::new();
    for path in &files {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_owned();
        sources.insert(
            name,
            std::fs::read_to_string(path).map_err(|e| io_err(path, e))?,
        );
    }
    let texts: Vec<String> = sources.values().cloned().collect();
    let names: Vec<&String> = sources.keys().collect();
    let config = config("daemon-patch", seed)?;
    let truth = generate_kernel(&config);
    let mut excluded: BTreeSet<&str> = truth.detectable_bug_functions().collect();
    excluded.extend(truth.expected_false_positives.iter().map(String::as_str));
    let targets = edit_targets(&texts, &excluded, seed)?;

    let state_dir = work.join("state");
    let _ = std::fs::remove_dir_all(&state_dir);
    let server = ServerConfig {
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    };
    let mut engine: Engine<usize> = Engine::recover(server.clone()).map_err(|e| e.to_string())?;

    let mut register = Request::new(1, "register", "p");
    register.sources = sources.clone();
    let line = register.to_line();
    let handle = |engine: &mut Engine<usize>, tag: usize, line: &str| -> Result<f64, String> {
        let start = Instant::now();
        let replies = engine.handle_line(tag, line);
        let elapsed = start.elapsed().as_secs_f64();
        match replies.first() {
            Some((_, reply)) if reply.contains("\"ok\":true") => Ok(elapsed),
            other => Err(format!(
                "request {tag} failed: {:?}",
                other.map(|r| &r.1[..200.min(r.1.len())])
            )),
        }
    };
    let register_s = handle(&mut engine, 1, &line)?;
    // The engine times a request from after its line is decoded, so the
    // rest of the call is the decode.
    let executed_us = engine
        .telemetry_registry()
        .histogram("serve.op.register.us")
        .map_or(0, |h| h.sum);
    layers.set(
        "serve.register_decode_s",
        register_s - executed_us as f64 / 1e6,
    );
    handle(&mut engine, 2, &Request::new(2, "analyze", "p").to_line())?;
    let snapshot_s = handle(&mut engine, 3, &Request::new(3, "snapshot", "").to_line())?;
    layers.set("serve.snapshot_s", snapshot_s);

    let journal_dir = work.join("journal");
    let _ = std::fs::remove_dir_all(&journal_dir);
    std::fs::create_dir_all(&journal_dir).map_err(|e| io_err(&journal_dir, e))?;
    let mut journal = rid_serve::journal::Journal::open(&journal_dir).map_err(|e| e.to_string())?;
    let (mut decode, mut append, mut service) = (Vec::new(), Vec::new(), Vec::new());
    let patch_line = |k: usize| {
        let target = &targets[k % targets.len()];
        let buggy = (k / targets.len()) % 2 == 1;
        let mut request = Request::new(10 + k as u64, "patch", "p");
        let text = if buggy { &target.buggy } else { &target.clean };
        request
            .sources
            .insert(names[target.module].clone(), text.clone());
        request.to_line()
    };
    for k in 0..patches {
        let line = patch_line(k);
        let start = Instant::now();
        let request: Result<Request, _> = serde_json::from_str(&line);
        decode.push(start.elapsed().as_secs_f64() * 1e3);
        request.map_err(|e| e.to_string())?;
        let start = Instant::now();
        journal.append(&line, None).map_err(|e| e.to_string())?;
        append.push(start.elapsed().as_secs_f64() * 1e3);
        service.push(handle(&mut engine, 10 + k, &line)? * 1e3);
    }
    layers.set("serve.patch_decode_ms", median(decode));
    layers.set("serve.journal_append_ms", median(append));
    layers.set("serve.patch_service_ms", median(service));

    // Snapshot so the restart restores a generation rather than replaying
    // the journal, exactly as the end-to-end workload does.
    handle(&mut engine, 4, &Request::new(4, "snapshot", "").to_line())?;
    drop(engine);
    let start = Instant::now();
    let mut engine: Engine<usize> = Engine::recover(server).map_err(|e| e.to_string())?;
    layers.set("serve.recover_s", start.elapsed().as_secs_f64());
    handle(&mut engine, 5, &patch_line(patches))?;
    layers.set("serve.restore_s", start.elapsed().as_secs_f64());
    Ok(())
}
