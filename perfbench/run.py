#!/usr/bin/env python3
"""End-to-end benchmark for rid.

Run from the repository root:

    python3 perfbench/run.py --workload cold-scan --seed 2016 --seconds 8 --trace 0

It builds `rid` and the `perfbench` helper from source, generates the
workload's seeded corpus, runs the released binaries as subprocesses,
checks every output against the generator's ground truth, and prints one
JSON object as the last line of standard output. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` it runs the workload
untraced once more for the ledger's total and then replays it in-process
(`perfbench trace`) for the per-layer numbers. See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ("cold-scan", "ci-rescan", "daemon-patch")
# A timing is the fastest of its run's samples (a rate, the highest),
# and the samples are spread over the whole run. A shared 2-CPU host
# changes speed in phases of seconds to minutes; over ten 25-s runs that
# crossed from a fast phase into a slow one, the run minimums of
# `rid analyze` spread by 11% (IQR over median) and the run medians by
# 43%.
#
# Set-ups timed per cold-scan run and priming runs per ci-rescan run;
# the median is setup_s.
SETUP_RUNS = 5
PRIMING_RUNS = 5
# Open-loop patch stream: fixed arrival rate and the sample floor a p99
# needs (ten samples beyond it).
PATCH_RATE = 100.0
MIN_PATCHES = 1000
# A daemon run repeats short segments until its seconds are up: a burst
# (warm analyzes, then a closed loop) and an open-loop stretch of
# patches. Short segments put each kind of sample into every stretch of
# the host's speed.
SEGMENT_PATCHES = 125
CLOSED_LOOP_S = 0.5
WARM_ANALYZES = 4
STARTUP_RUNS = 5
PATCH_TAIL_Q = 0.99
# A daemon that answers nothing for this long has hung; register takes
# ~20 s at scale 1.0 while its decoder is quadratic.
REPLY_TIMEOUT_S = 120
# Patches the helper's in-process daemon replay executes.
TRACE_PATCHES = 200
# Traced runs alternate this many untraced operations with one-pass
# replays.
TRACE_ROUNDS = 9


def metric_units(kind):
    """Metric name -> unit for `end_to_end` or `per_layer`, from the
    benchmark's definition at the repository root."""
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, os.pardir, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


# The top-level calls whose times add up to a run; everything else the
# replay reports is a child of one of them.
TOP_LEVEL = (
    "io.read_s",
    "frontend.parse_s",
    "ir.link_s",
    "persist.cache_load_s",
    "core.driver_s",
    "persist.cache_save_s",
    "report.render_s",
    "persist.state_save_s",
)


class BenchError(Exception):
    """A failure that leaves no result to report."""


# ---------------------------------------------------------------- helpers


def quantile(values, q):
    """Nearest-rank quantile: the smallest sample with at least a share
    `q` of all samples at or below it."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def rate(times):
    """Events per second over `times[0]`..`times[-1]`; `times[0]` is the
    start, not an event."""
    return (len(times) - 1) / (times[-1] - times[0])


def schedule(count, rate, start):
    """Due times of an open-loop stream: one request every 1/rate s."""
    return [start + k / rate for k in range(count)]


def check_reports(reported, expected, optional=(), absent=()):
    """Compares the set of functions with reports against the ground
    truth. Returns a list of problems; empty means correct.

    `expected` must all be reported; `optional` may be reported; nothing
    else may be; `absent` must not be reported even if expected says so.
    """
    problems = []
    missing = set(expected) - set(reported) - set(absent)
    extra = set(reported) - set(expected) - set(optional)
    forbidden = set(reported) & set(absent)
    if missing:
        problems.append("missing reports: " + ", ".join(sorted(missing)[:5]))
    if extra:
        problems.append("unexpected reports: " + ", ".join(sorted(extra)[:5]))
    if forbidden:
        problems.append("reports that must be absent: " + ", ".join(sorted(forbidden)[:5]))
    return problems


def report_functions(reports):
    return {r["function"] for r in reports}


class Tally:
    """Counts operations attempted and failed; keeps the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, problems, what):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(f"{what}: {'; '.join(problems)}")


def log(message):
    print(message, file=sys.stderr, flush=True)


def log_samples(what, values, unit, scale=1.0):
    """Logs a sample set's count, extremes and quartiles."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    log(f"{what}: n={len(values)} min={min(values) * scale:.4g} q1={q[0] * scale:.4g} "
        f"median={q[1] * scale:.4g} q3={q[2] * scale:.4g} max={max(values) * scale:.4g} {unit}")


class Bench:
    def __init__(self, root, workload, seed, seconds):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.target = os.path.join(root, target) if not os.path.isabs(target) else target
        self.rid = os.path.join(self.target, "release", "rid")
        self.helper = os.path.join(self.target, "release", "perfbench")
        # Relative to the root, so Unix socket paths stay short.
        self.work = os.path.join(".bench_work", workload)
        self.corpus = os.path.join(self.work, "corpus")
        self.tally = Tally()
        self.layers = {}
        # Daemon reply checks, by reply body and expectation.
        self.checked = {}

    # -------------------------------------------------------- build / gen

    def build(self):
        if not os.path.isfile(os.path.join(self.root, "crates", "cli", "Cargo.toml")):
            raise BenchError("no rid sources here (crates/cli/Cargo.toml is missing)")
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        for cmd in (
            ["cargo", "build", "--release", "--offline", "-p", "rid-cli"],
            ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        ):
            done = subprocess.run(cmd, cwd=self.root, env=env, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)}")

    def generate(self):
        """Writes the corpus; returns the wall-clock it took."""
        out = self.corpus
        shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        done = subprocess.run(
            [self.helper, "gen", "--workload", self.workload, "--seed", str(self.seed),
             "--out", out],
            stdout=sys.stderr, stderr=sys.stderr)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchError("corpus generation failed")
        return elapsed

    def load_corpus(self):
        with open(os.path.join(self.corpus, "ground_truth.json")) as f:
            self.truth = json.load(f)
        with open(os.path.join(self.corpus, "edits.json")) as f:
            self.edits = json.load(f)
        self.files = sorted(glob.glob(os.path.join(self.corpus, "*.ril")))
        self.expected = set(self.truth["expected"])
        self.layers.update({
            "host.cpus": os.cpu_count() or 1,
            "corpus.modules": self.truth["modules"],
            "corpus.functions": self.truth["functions"],
            "corpus.bytes": self.truth["bytes"],
        })

    def run_rid(self, args, stdout_path):
        """Runs `rid args`; returns (seconds, exit code, peak RSS in MB)."""
        return self.spawner.run([self.rid] + args, stdout_path)

    def cli_startup(self):
        tiny = os.path.join(self.work, "tiny.ril")
        with open(tiny, "w") as f:
            f.write("module tiny;\nfn tiny_f(dev) {\n    return 0;\n}\n")
        out = os.path.join(self.work, "tiny.out")
        self.layers["cli.startup_s"] = statistics.median(
            self.run_rid(["analyze", tiny], out)[0] for _ in range(STARTUP_RUNS))

    def lower_spans(self):
        """Counts the `lower` spans of one `rid analyze --trace` run."""
        trace = os.path.join(self.work, "trace.json")
        out = os.path.join(self.work, "traced.out")
        self.run_rid(["analyze", "--json", "--trace", trace] + self.files, out)
        with open(trace + ".jsonl") as f:
            self.layers["cli.lower_spans"] = sum('"kind":"lower"' in line for line in f)

    def replay(self, *extra):
        """Runs the helper's in-process replay; returns its layers."""
        done = subprocess.run(
            [self.helper, "trace", "--workload", self.workload, "--seed", str(self.seed),
             "--dir", self.corpus, "--work", os.path.join(self.work, "replay")] + list(extra),
            stdout=subprocess.PIPE, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError("in-process replay failed")
        return json.loads(done.stdout.decode().strip().splitlines()[-1])

    def ledger(self, e2e_s, attributed=None):
        if attributed is None:
            attributed = sum(self.layers.get(name, 0.0) for name in TOP_LEVEL)
        self.layers["ledger.e2e_s"] = e2e_s
        self.layers["ledger.attributed_s"] = attributed
        self.layers["ledger.unattributed_s"] = e2e_s - attributed

    # ---------------------------------------------------------- workloads

    def check_analyze_output(self, code, out_path, seen, want=()):
        """Checks one `rid analyze --json` output; identical bytes checked
        against the same expectation are not decoded again. Returns the
        reports and the problems found."""
        with open(out_path, "rb") as f:
            data = f.read()
        key = (hashlib.sha256(data).hexdigest(), frozenset(want))
        if key not in seen:
            try:
                reports = json.loads(data)
                problems = check_reports(report_functions(reports), self.expected | set(want))
            except ValueError as e:
                reports, problems = [], [f"output is not JSON: {e}"]
            seen[key] = (reports, problems)
        reports, problems = seen[key]
        if code != 1:
            problems = problems + [f"exit code {code}, expected 1 (bugs reported)"]
        return reports, problems

    def scan(self):
        # Set-up, SETUP_RUNS times into fresh directories: generate and
        # write the corpus, then one warm-up `rid analyze` of it. Writing
        # the corpus alone takes 15-300 ms on a shared disk; the warm-up
        # makes the set-up mostly the same work the run times.
        setups, seen = [], {}
        out = os.path.join(self.work, "analyze.out")
        for i in range(SETUP_RUNS):
            self.corpus = os.path.join(self.work, f"corpus.{i}")
            written = self.generate()
            self.load_corpus()
            elapsed, code, _ = self.run_rid(["analyze", "--json"] + self.files, out)
            setups.append(written + elapsed)
            _, problems = self.check_analyze_output(code, out, seen)
            self.tally.record(problems, f"warm-up run {i}")
        times, rss = [], []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < self.seconds:
            elapsed, code, peak = self.run_rid(["analyze", "--json"] + self.files, out)
            _, problems = self.check_analyze_output(code, out, seen)
            self.tally.record(problems, f"analyze run {len(times)}")
            times.append(elapsed)
            rss.append(peak)
        log_samples("set-up", setups, "s")
        log_samples("analyze", times, "ms", 1e3)
        return {
            "setup_s": statistics.median(setups),
            "op_ms": min(times) * 1e3,
            "analyze_ms": min(times) * 1e3,
            "ops_per_s": 1 / min(times),
            "peak_rss_mb": max(rss),
        }

    def trace_scan(self):
        """Alternates untraced `rid analyze` runs with one-pass replays,
        so the ledger's total and its layers see the same host."""
        self.generate()
        self.load_corpus()
        out = os.path.join(self.work, "analyze.out")
        seen, e2e, rounds = {}, [], []
        for i in range(TRACE_ROUNDS):
            elapsed, code, _ = self.run_rid(["analyze", "--json"] + self.files, out)
            _, problems = self.check_analyze_output(code, out, seen)
            self.tally.record(problems, f"analyze run {i}")
            e2e.append(elapsed)
            rounds.append(self.replay("--passes", "1"))
        for name in rounds[0]:
            self.layers[name] = statistics.median(r[name] for r in rounds)
        self.lower_spans()
        self.cli_startup()
        self.ledger(statistics.median(e2e))

    def ci_paths(self):
        return (os.path.join(self.work, "summaries.cache"),
                os.path.join(self.work, "base.json"),
                os.path.join(self.work, "new.json"))

    def ci_setup(self):
        self.generate()
        self.load_corpus()
        cache, base, _ = self.ci_paths()
        out = os.path.join(self.work, "prime.out")
        setups = []
        for _ in range(PRIMING_RUNS):
            for path in (cache, base):
                if os.path.exists(path):
                    os.remove(path)
            elapsed, code, _ = self.run_rid(
                ["analyze", "--cache", cache, "--save-state", base] + self.files, out)
            if code != 1:
                raise BenchError(f"priming run exited {code}")
            setups.append(elapsed)
        log_samples("priming", setups, "s")
        with open(base) as f:
            problems = check_reports(report_functions(json.load(f)["reports"]), self.expected)
        if problems:
            raise BenchError("priming run: " + "; ".join(problems))
        self.pristine = {}
        for edit in self.edits:
            with open(os.path.join(self.corpus, edit["file"])) as f:
                self.pristine[edit["file"]] = f.read()
        return statistics.median(setups)

    def push(self, i, seen):
        """One push to the pull request: edit one function (restoring
        the previous push's), then the warm `rid analyze`. Push `i` edits
        target `i mod 16`, with the buggy probe when `seed + i` is odd.
        Returns (seconds, peak RSS MB, reports, function, buggy)."""
        cache, _, new = self.ci_paths()
        edit = self.edits[i % len(self.edits)]
        buggy = (self.seed + i) % 2 == 1
        if i > 0:
            previous = self.edits[(i - 1) % len(self.edits)]["file"]
            self.write_module(previous, self.pristine[previous])
        self.write_module(edit["file"], edit["buggy" if buggy else "clean"])
        fn = edit["function"]
        out = os.path.join(self.work, "analyze.out")
        elapsed, code, peak = self.run_rid(
            ["analyze", "--json", "--cache", cache, "--save-state", new] + self.files, out)
        reports, problems = self.check_analyze_output(
            code, out, seen, want=[fn] if buggy else [])
        self.tally.record(problems, f"push {i} analyze")
        return elapsed, peak, reports, fn, buggy

    def gate(self, i, reports, fn, buggy):
        """`rid diff` of push `i`'s state against the base state; returns
        its seconds."""
        _, base, new = self.ci_paths()
        dout = os.path.join(self.work, "diff.out")
        elapsed, code, _ = self.run_rid(["diff", base, new, "--json"], dout)
        self.tally.record(self.check_diff(dout, code, reports, fn, buggy), f"push {i} diff")
        return elapsed

    @staticmethod
    def diff_problems(diff, code, probe_reports, buggy):
        """The gate must flag exactly the probe's reports as new (exit 1)
        on the buggy edit, and nothing on the clean one (exit 0)."""
        problems = []
        new = diff.get("new", [])
        if diff.get("resolved"):
            problems.append(f"{len(diff['resolved'])} resolved, expected 0")
        if buggy:
            if code != 1:
                problems.append(f"exit code {code}, expected 1")
            if not probe_reports or len(new) != probe_reports[1] or any(
                    entry.get("function") != probe_reports[0] for entry in new):
                problems.append(f"new = {[e.get('function') for e in new][:5]}, "
                                f"expected the probe's {probe_reports}")
        else:
            if code != 0:
                problems.append(f"exit code {code}, expected 0")
            if new:
                problems.append(f"{len(new)} new, expected 0")
        return problems

    def check_diff(self, dout, code, reports, fn, buggy):
        try:
            with open(dout) as f:
                diff = json.load(f)
        except ValueError as e:
            return [f"diff output is not JSON: {e}"]
        count = sum(1 for r in reports if r["function"] == fn)
        return self.diff_problems(diff, code, (fn, count) if count else None, buggy)

    def write_module(self, name, text):
        with open(os.path.join(self.corpus, name), "w") as f:
            f.write(text)

    def ci_rescan(self):
        """Pushes for the run's seconds. The gate's `rid diff` takes about
        a minute today, one sample per run, so it runs in the traced run
        only (`ci.diff_s`)."""
        setup = self.ci_setup()
        seen, analyze, rss = {}, [], []
        start = time.perf_counter()
        while not analyze or time.perf_counter() - start < self.seconds:
            elapsed, peak, _, _, _ = self.push(len(analyze), seen)
            analyze.append(elapsed)
            rss.append(peak)
        log_samples("push", analyze, "ms", 1e3)
        return {
            "setup_s": setup,
            "op_ms": min(analyze) * 1e3,
            "analyze_ms": min(analyze) * 1e3,
            "ops_per_s": 1 / min(analyze),
            "peak_rss_mb": max(rss),
        }

    def trace_ci(self):
        """Alternates untraced pushes with one-pass replays of the push,
        then runs and replays the gate's diff once."""
        self.ci_setup()
        cache, base, _ = self.ci_paths()
        pre = os.path.join(self.work, "summaries.pre")
        shutil.copyfile(cache, pre)
        self.lower_spans()
        # Each replay sees the pushed corpus and the cache as it stood
        # after priming. Every push but the last is undone before the
        # next, so exactly the pushed function re-executes, as in the push.
        seen, e2e, rounds = {}, [], []
        for i in range(TRACE_ROUNDS):
            elapsed, _, reports, fn, buggy = self.push(i, seen)
            e2e.append(elapsed)
            rounds.append(self.replay("--cache", pre, "--passes", "1"))
        for name in rounds[0]:
            self.layers[name] = statistics.median(r[name] for r in rounds)
        self.layers["ci.diff_s"] = self.gate(TRACE_ROUNDS - 1, reports, fn, buggy)
        gate = self.replay("--cache", pre, "--base", base, "--passes", "1")
        for name in ("persist.state_load_s", "triage.hash_s", "triage.classify_s"):
            self.layers[name] = gate[name]
        self.cli_startup()
        self.ledger(statistics.median(e2e))

    # ------------------------------------------------------------- daemon

    def daemon_patch(self, trace=False):
        self.generate()
        self.load_corpus()
        state = os.path.join(self.work, "state")
        sock = os.path.join(self.work, "rid.sock")
        shutil.rmtree(state, ignore_errors=True)
        sources = {}
        for path in self.files:
            with open(path) as f:
                sources[os.path.basename(path)] = f.read()
        self.targets = {e["function"] for e in self.edits}

        start = time.perf_counter()
        daemon = Daemon(self.rid, sock, state, os.path.join(self.work, "serve.err"))
        try:
            conn = daemon.connect()
            register = {"id": 1, "op": "register", "project": "p", "sources": sources}
            self.expect_ok(conn.request(register), "register")
            self.check_reply(conn.request({"id": 2, "op": "analyze", "project": "p"}),
                             "analyze", None, None)
            snap = conn.request({"id": 3, "op": "snapshot"})
            setup = time.perf_counter() - start
            self.expect_ok(snap, "snapshot")
            self.layers["serve.snapshot_bytes"] = json.loads(snap)["result"]["bytes"]

            conns = [conn] + [daemon.connect() for _ in range(connection_count() - 1)]
            stream = PatchStream(self.edits, conns)
            # Segments until the run's seconds are up and the p99 has its
            # samples: each is a burst, then an open-loop stretch.
            warm, rates, medians, latencies, late = [], [], [], [], []
            start = time.perf_counter()
            while (not rates or time.perf_counter() - start < self.seconds
                   or len(latencies) < MIN_PATCHES):
                burst_warm, burst_rate = self.burst(stream)
                warm += burst_warm
                rates.append(burst_rate)
                segment, segment_late = stream.open_loop(SEGMENT_PATCHES, PATCH_RATE)
                medians.append(quantile(segment, 0.5))
                latencies += segment
                late += segment_late
            stats = json.loads(conn.request({"id": 6_000_000, "op": "stats"}))["result"]["server"]
            peak = daemon.peak_rss_mb()
            self.expect_ok(conn.request({"id": 6_000_001, "op": "snapshot"}), "final snapshot")
            daemon.stop(conn)
            for c in conns[1:]:
                c.sock.close()

            restart = time.perf_counter()
            daemon = Daemon(self.rid, sock, state, os.path.join(self.work, "serve.err"))
            conn = daemon.connect()
            k = stream.next_k
            line = conn.request(stream.request(k))
            restore = time.perf_counter() - restart
            stream.next_k += 1
            edit, buggy = stream.edit(k)
            self.check_reply(line, "first patch after restore", edit["function"], buggy)
            daemon.stop(conn)
            for k, line in stream.refused:
                self.tally.record([line[:200].decode(errors="replace")], f"patch {k}")
            for k, line in stream.replies:
                edit, buggy = stream.edit(k)
                self.check_reply(line, f"patch {k}", edit["function"], buggy)
        finally:
            daemon.kill()

        log_samples("patch latency", latencies, "ms", 1e3)
        log_samples("segment p50", medians, "ms", 1e3)
        log_samples("warm analyze", warm, "ms", 1e3)
        log_samples("closed-loop rate", rates, "1/s")
        p50 = quantile(latencies, 0.5)
        self.layers.update({
            "serve.patch_p99_ms": quantile(latencies, PATCH_TAIL_Q) * 1e3,
            "serve.restart_s": restore,
            "serve.coalesced_frac": stats["coalesced"] / max(1, stats["accepted"]),
            "loadgen.late_p99_ms": quantile(late, PATCH_TAIL_Q) * 1e3,
        })
        if trace:
            self.cli_startup()
            self.layers.update(self.replay("--patches", str(TRACE_PATCHES)))
            service = self.layers["serve.patch_service_ms"]
            self.layers["serve.wait_ms"] = p50 * 1e3 - service
            # A patch's one top-level call is the engine's handle_line.
            self.ledger(p50, attributed=service / 1e3)
        return {
            "setup_s": setup,
            "op_ms": min(medians) * 1e3,
            "analyze_ms": min(warm) * 1e3,
            "ops_per_s": max(rates),
            "peak_rss_mb": peak,
        }

    def burst(self, stream):
        """Warm whole-program `analyze` requests, then a closed loop of
        patches. Returns (analyze seconds, patches per second)."""
        conn = stream.conns[0]
        warm = []
        for _ in range(WARM_ANALYZES):
            start = time.perf_counter()
            reply = conn.request({"id": 5_000_000, "op": "analyze", "project": "p"})
            warm.append(time.perf_counter() - start)
            self.check_reply(reply, "warm analyze", None, None)
        completions = stream.closed_loop(CLOSED_LOOP_S)
        return warm, rate(completions)

    def expect_ok(self, line, what):
        ok = line.startswith(b'{"id":') and b'"ok":true' in line[:40]
        self.tally.record([] if ok else [line[:200].decode(errors="replace")], what)

    def check_reply(self, line, what, probe, buggy):
        """A reply must be ok and carry every expected report, no report
        outside the ground truth plus the edit targets, and — for a
        patch — the probe's report exactly when the probe is buggy.
        Replies equal but for their id are decoded once."""
        cut = line.find(b",")
        body = line[cut:] if cut >= 0 else line
        key = (hashlib.sha256(body).digest(), probe, buggy)
        if key not in self.checked:
            self.checked[key] = self.reply_problems(line, probe, buggy)
        self.tally.record(self.checked[key], what)

    def reply_problems(self, line, probe, buggy):
        try:
            reply = json.loads(line)
        except ValueError as e:
            return [f"reply is not JSON: {e}"]
        if not reply.get("ok"):
            return [json.dumps(reply.get("error"))]
        reported = report_functions(reply["result"]["reports"])
        want = {probe} if probe and buggy else set()
        absent = {probe} if probe and not buggy else set()
        return check_reports(reported, self.expected | want, self.targets, absent)


def connection_count():
    """At most one connection per CPU, and a divisor of the edit-target
    count so each target always travels on the same connection (its
    patches then execute in order)."""
    cpus = os.cpu_count() or 1
    return max(c for c in (1, 2, 4) if c <= cpus)


class Spawner:
    """Runs commands and reports (seconds, exit code, peak RSS in MB).

    On Linux a child's `ru_maxrss` starts from its parent's peak RSS at
    fork time. This benchmark's own process grows as it decodes reports,
    so the commands are started from a process forked while it was still
    small; `rid`'s own peak is larger than that process ever gets.
    """

    def __init__(self):
        to_child, self._out = os.pipe()
        self._in, from_child = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                os.close(self._out)
                os.close(self._in)
                self._serve(os.fdopen(to_child, "r"), os.fdopen(from_child, "w"))
                code = 0
            finally:
                os._exit(code)
        os.close(to_child)
        os.close(from_child)
        self.requests = os.fdopen(self._out, "w")
        self.replies = os.fdopen(self._in, "r")

    @staticmethod
    def _serve(requests, replies):
        for line in requests:
            argv, stdout_path = json.loads(line)
            with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
                start = time.perf_counter()
                child = subprocess.Popen(argv, stdout=out, stderr=err)
                _, status, usage = os.wait4(child.pid, 0)
                elapsed = time.perf_counter() - start
                child.returncode = os.waitstatus_to_exitcode(status)
            replies.write(json.dumps([elapsed, child.returncode, usage.ru_maxrss / 1024.0]) + "\n")
            replies.flush()

    def run(self, argv, stdout_path):
        self.requests.write(json.dumps([argv, stdout_path]) + "\n")
        self.requests.flush()
        reply = self.replies.readline()
        if not reply:
            raise BenchError("the command spawner died")
        return tuple(json.loads(reply))

    def close(self):
        self.requests.close()
        self.replies.close()
        os.waitpid(self.pid, 0)


class Daemon:
    """A `rid serve` process over a state directory."""

    def __init__(self, rid, sock, state, err_path):
        if os.path.exists(sock):
            os.remove(sock)
        self.sock = sock
        self.err = open(err_path, "ab")
        self.proc = subprocess.Popen(
            [rid, "serve", "--socket", sock, "--state-dir", state],
            stdin=subprocess.DEVNULL, stdout=self.err, stderr=self.err)

    def connect(self):
        deadline = time.monotonic() + 60
        while True:
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.settimeout(REPLY_TIMEOUT_S)
                s.connect(self.sock)
                return Conn(s)
            except OSError:
                s.close()
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise BenchError("daemon did not come up")
                time.sleep(0.002)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def stop(self, conn):
        """Stops the daemon gracefully. SIGTERM, not the `shutdown` op:
        the daemon can exit before that op's reply is written."""
        conn.sock.close()
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            raise BenchError("daemon did not exit after SIGTERM")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.err.close()


class Conn:
    """One NDJSON connection; replies arrive in request order."""

    def __init__(self, sock):
        self.sock = sock
        self.buf = bytearray()

    def send(self, data):
        self.sock.sendall(data)

    def read_lines(self):
        """Receives what is available; returns the complete lines."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise BenchError("daemon closed a connection")
        self.buf += chunk
        lines = []
        start = 0
        while True:
            nl = self.buf.find(b"\n", start)
            if nl < 0:
                break
            lines.append(bytes(self.buf[start:nl]))
            start = nl + 1
        del self.buf[:start]
        return lines

    def request(self, obj):
        self.send((json.dumps(obj) + "\n").encode())
        while True:
            lines = self.read_lines()
            if lines:
                return lines[0]


class PatchStream:
    """The load generator: one thread, one selector over every
    connection. Patch k rewrites edit target k mod T on connection
    k mod C; a target alternates clean and buggy probes."""

    def __init__(self, edits, conns):
        self.edits = edits
        self.conns = conns
        # (k, reply line): ok replies, decoded after the run, and the rest.
        self.replies = []
        self.refused = []
        self.next_k = 0
        # Everything after the id, pre-encoded per (target, probe).
        self.bodies = {}
        for t, edit in enumerate(edits):
            for buggy in (False, True):
                rest = json.dumps({"op": "patch", "project": "p",
                                   "sources": {edit["file"]: edit["buggy" if buggy else "clean"]}})
                self.bodies[t, buggy] = b"," + rest[1:].encode() + b"\n"

    def edit(self, k):
        return self.edits[k % len(self.edits)], (k // len(self.edits)) % 2 == 1

    def request(self, k):
        edit, buggy = self.edit(k)
        return {"id": 10 + k, "op": "patch", "project": "p",
                "sources": {edit["file"]: edit["buggy" if buggy else "clean"]}}

    def encode(self, k):
        return b'{"id":%d' % (10 + k) + self.bodies[k % len(self.edits), self.edit(k)[1]]

    def receive(self, conn, pending, on_reply):
        now = time.perf_counter()
        for line in conn.read_lines():
            k, mark = pending[conn].pop(0)
            # In the loop only a prefix check; full decoding waits until
            # the run is over so it cannot skew the schedule.
            if line.startswith(b'{"id":%d,"ok":true' % (10 + k)):
                self.replies.append((k, line))
            else:
                self.refused.append((k, line))
            on_reply(conn, k, now - mark)

    def open_loop(self, count, rate):
        sel = selectors.DefaultSelector()
        for conn in self.conns:
            sel.register(conn.sock, selectors.EVENT_READ, conn)
        pending = {conn: [] for conn in self.conns}
        latencies, late = [], []
        first = self.next_k
        due = schedule(count, rate, time.perf_counter() + 0.05)
        sent = 0

        def on_reply(conn, k, latency):
            latencies.append(latency)

        while len(latencies) < count:
            now = time.perf_counter()
            while sent < count and due[sent] <= now:
                k = first + sent
                conn = self.conns[k % len(self.conns)]
                late.append(time.perf_counter() - due[sent])
                conn.send(self.encode(k))
                # Latency counts from the due time, not the send time.
                pending[conn].append((k, due[sent]))
                sent += 1
                now = time.perf_counter()
            timeout = max(0.0, due[sent] - now) if sent < count else 1.0
            for key, _ in sel.select(timeout):
                self.receive(key.data, pending, on_reply)
        sel.close()
        self.next_k = first + count
        return latencies, late

    def closed_loop(self, seconds):
        """Each connection sends its next patch when the last is
        answered; returns the start time and every completion time."""
        sel = selectors.DefaultSelector()
        pending = {conn: [] for conn in self.conns}
        start = time.perf_counter()
        done = [start]
        stop = start + seconds

        def send(conn):
            k = self.next_k
            self.next_k += 1
            pending[conn].append((k, time.perf_counter()))
            conn.send(self.encode(k))

        def on_reply(conn, k, latency):
            now = time.perf_counter()
            if now < stop:
                done.append(now)
                send(conn)

        for conn in self.conns:
            sel.register(conn.sock, selectors.EVENT_READ, conn)
            send(conn)
        while any(pending.values()):
            for key, _ in sel.select(1.0):
                self.receive(key.data, pending, on_reply)
        sel.close()
        return done


# ------------------------------------------------------------------- main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = Bench(os.getcwd(), args.workload, args.seed, args.seconds)
    # SIGTERM unwinds like an error, so the daemon and the spawner stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench.spawner = Spawner()
    try:
        bench.build()
        shutil.rmtree(bench.work, ignore_errors=True)
        os.makedirs(bench.work)
        if args.trace:
            {
                "cold-scan": bench.trace_scan,
                "ci-rescan": bench.trace_ci,
                "daemon-patch": lambda: bench.daemon_patch(trace=True),
            }[args.workload]()
            kind = "per_layer"
            values = bench.layers
        else:
            kind = "end_to_end"
            values = {
                "cold-scan": bench.scan,
                "ci-rescan": bench.ci_rescan,
                "daemon-patch": bench.daemon_patch,
            }[args.workload]()
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        bench.spawner.close()
    for note in bench.tally.notes:
        log(f"perfbench: FAILED {note}")
    layers = bench.layers
    log(f"host_cpus={os.cpu_count()} corpus: modules={layers['corpus.modules']} "
        f"functions={layers['corpus.functions']} bytes={layers['corpus.bytes']}")
    result = {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in metric_units(kind).items()},
    }
    print(json.dumps(result), flush=True)
    shutil.rmtree(bench.work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
