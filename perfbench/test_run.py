"""Tests of the benchmark's own helpers and correctness gate.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class QuantileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.quantile(values, 0.5), 50)
        self.assertEqual(run.quantile(values, 0.99), 99)
        self.assertEqual(run.quantile(values, 1.0), 100)
        self.assertEqual(run.quantile(values, 0.0), 1)

    def test_unsorted_and_single(self):
        self.assertEqual(run.quantile([3.0, 1.0, 2.0], 0.5), 2.0)
        self.assertEqual(run.quantile([7.5], 0.99), 7.5)

    def test_ten_samples_beyond_p99_at_the_floor(self):
        values = list(range(run.MIN_PATCHES))
        p99 = run.quantile(values, run.PATCH_TAIL_Q)
        self.assertGreaterEqual(sum(v > p99 for v in values), 10)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.quantile([], 0.5)


class ScheduleTest(unittest.TestCase):
    def test_fixed_rate(self):
        due = run.schedule(5, 100.0, 10.0)
        self.assertEqual(len(due), 5)
        self.assertEqual(due[0], 10.0)
        for a, b in zip(due, due[1:]):
            self.assertAlmostEqual(b - a, 0.01)

    def test_rate(self):
        # Start at 0; 4 events in 2 s.
        self.assertEqual(run.rate([0.0, 0.5, 1.2, 1.5, 2.0]), 2.0)

    def test_connections_divide_the_targets(self):
        conns = run.connection_count()
        self.assertLessEqual(conns, os.cpu_count() or 1)
        self.assertEqual(16 % conns, 0)


class CheckReportsTest(unittest.TestCase):
    def test_exact_match(self):
        self.assertEqual(run.check_reports({"a", "b"}, {"a", "b"}), [])

    def test_missing_and_extra(self):
        self.assertTrue(run.check_reports({"a"}, {"a", "b"}))
        self.assertTrue(run.check_reports({"a", "b", "c"}, {"a", "b"}))

    def test_optional_and_absent(self):
        self.assertEqual(run.check_reports({"a", "t"}, {"a"}, optional={"t"}), [])
        self.assertTrue(run.check_reports({"a", "t"}, {"a"}, optional={"t"}, absent={"t"}))


def fake_bench(expected):
    bench = run.Bench(tempfile.gettempdir(), "cold-scan", 1, 1)
    bench.expected = set(expected)
    bench.targets = {"probe_fn"}
    return bench


def reports(*functions):
    return [{"function": f, "refcount": "[arg0].pm"} for f in functions]


class GateCountsFailuresTest(unittest.TestCase):
    """An injected missing or extra report must count as a failure."""

    def analyze(self, bench, output, code=1):
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump(output, f)
        try:
            _, problems = bench.check_analyze_output(code, f.name, {})
        finally:
            os.remove(f.name)
        bench.tally.record(problems, "analyze")
        return bench.tally

    def test_correct_output_passes(self):
        tally = self.analyze(fake_bench(["a", "b"]), reports("a", "b", "b"))
        self.assertEqual((tally.attempted, tally.failed), (1, 0))

    def test_missing_report_is_counted(self):
        tally = self.analyze(fake_bench(["a", "b"]), reports("a"))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_extra_report_is_counted(self):
        tally = self.analyze(fake_bench(["a"]), reports("a", "zzz"))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_wrong_exit_code_is_counted(self):
        tally = self.analyze(fake_bench(["a"]), reports("a"), code=0)
        self.assertEqual(tally.failed, 1)

    def patch_reply(self, bench, functions, buggy, ok=True):
        reply = {"id": 10, "ok": ok, "result": {"reports": reports(*functions)}}
        if not ok:
            reply = {"id": 10, "ok": False, "error": {"kind": "backpressure"}}
        bench.check_reply(json.dumps(reply).encode(), "patch", "probe_fn", buggy)
        return bench.tally.failed

    def test_daemon_replies(self):
        self.assertEqual(self.patch_reply(fake_bench(["a"]), ["a", "probe_fn"], True), 0)
        self.assertEqual(self.patch_reply(fake_bench(["a"]), ["a"], False), 0)
        self.assertEqual(self.patch_reply(fake_bench(["a"]), ["a"], True), 1)
        self.assertEqual(self.patch_reply(fake_bench(["a"]), ["a", "probe_fn"], False), 1)
        self.assertEqual(self.patch_reply(fake_bench(["a"]), ["a", "zzz"], False), 1)
        self.assertEqual(self.patch_reply(fake_bench(["a"]), [], False), 1)
        self.assertEqual(self.patch_reply(fake_bench(["a"]), ["a"], False, ok=False), 1)

    def test_repeated_replies_each_count(self):
        # Replies equal but for their id are decoded once; each still counts.
        bench = fake_bench(["a"])
        for k in range(3):
            line = json.dumps({"id": 10 + k, "ok": True,
                               "result": {"reports": reports("a")}}).encode()
            bench.check_reply(line, f"patch {k}", "probe_fn", True)
            bench.check_reply(line, f"patch {k}", "probe_fn", False)
        self.assertEqual((bench.tally.attempted, bench.tally.failed), (6, 3))

    def test_diff_gate(self):
        new = {"new": [{"function": "p"}], "resolved": []}
        self.assertEqual(run.Bench.diff_problems(new, 1, ("p", 1), True), [])
        self.assertTrue(run.Bench.diff_problems(new, 0, ("p", 1), True))
        self.assertTrue(run.Bench.diff_problems(new, 1, ("p", 2), True))
        self.assertTrue(run.Bench.diff_problems(new, 1, None, True))
        clean = {"new": [], "resolved": []}
        self.assertEqual(run.Bench.diff_problems(clean, 0, None, False), [])
        self.assertTrue(run.Bench.diff_problems(clean, 1, None, False))
        self.assertTrue(run.Bench.diff_problems(new, 0, None, False))
        self.assertTrue(run.Bench.diff_problems({"new": [], "resolved": ["h"]}, 0, None, False))


class PatchStreamTest(unittest.TestCase):
    def test_encoded_lines_match_the_requests(self):
        edits = [{"file": f"m{t}.ril", "function": f"f{t}", "clean": f"clean {t}",
                  "buggy": f"buggy \"{t}\"\n"} for t in range(4)]
        stream = run.PatchStream(edits, [])
        for k in range(12):
            line = stream.encode(k)
            self.assertTrue(line.endswith(b"\n"))
            self.assertEqual(json.loads(line), stream.request(k))
        # Each target alternates clean and buggy.
        self.assertEqual([stream.edit(k)[1] for k in (0, 4, 8)], [False, True, False])


if __name__ == "__main__":
    unittest.main()
