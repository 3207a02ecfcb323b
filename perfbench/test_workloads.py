"""Tests of the benchmark's schedules, known-answer oracles and runaway
guard.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each oracle must accept the answer the generator's parameters imply and
must reject a deliberately wrong expected answer. When the release `slp`
and `slp-layers` are built (in $CARGO_TARGET_DIR or `.bench_build`), the
oracles are also run against the real binary on small generated inputs.
"""

import json
import os
import random
import stat
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import workloads as W

# A base program for serve scripts that need no real `slp`.
PREFIX = "int >= nat + unnat.\n"


def well_typed(n):
    return f"well-typed: {n * (W.K + 1)} clause(s), 0 query(ies)\n"


def lint_human(n, path):
    body = "".join(f"warning[W0502]: clause head for `p{i}` is subsumed\n" for i in range(n * 3))
    return body + f"{path}: 0 error(s), {W.lint_warnings(n)} warning(s)\n"


class ScheduleTest(unittest.TestCase):
    def test_nrev_list(self):
        # lp_gen conses succ^(i mod 3)(0) onto the front for i = 0..n-1.
        self.assertEqual(W.nrev_list(4), ["0", "succ(succ(0))", "succ(0)", "0"])

    def test_resolvent_count(self):
        self.assertEqual(W.nrev_resolvents(10), 66)

    def test_serve_episode_counts_ill_typed_appends(self):
        episode = W.serve_episode(PREFIX, "small", 8, random.Random(3))
        self.assertEqual(len(episode["steps"]), 1 + 2 * W.SERVE_EDITS)
        errors = 0
        for step in episode["steps"][1:]:
            if step["op"] == "delta":
                source = step["request"]["source"]
                errors = sum(source.count(c + "\n") for c in W.ILL_TYPED_EDITS)
            else:
                self.assertEqual(step["want"]["errors"], errors)

    def test_serve_base_needs_the_constraint_it_edits(self):
        with self.assertRaises(ValueError):
            W.serve_episode("TYPE nat.\n", "small", 8, random.Random(3))

    def test_same_seed_same_inputs(self):
        a = W.serve_episode(PREFIX, "large", 16, W.make_rng(7, "serve_edits"))
        b = W.serve_episode(PREFIX, "large", 16, W.make_rng(7, "serve_edits"))
        self.assertEqual(a, b)


class OracleTest(unittest.TestCase):
    def test_check_accepts_the_expected_answer(self):
        self.assertEqual(W.check_oracle({"n": 8, "errors": 0}, 0, well_typed(8), ""), [])
        err = "error[E0201]: atom #0 (`p0`) is ill-typed\n" * 2
        self.assertEqual(W.check_oracle({"n": 8, "errors": 2}, 2, "", err), [])

    def test_check_rejects_a_wrong_expected_answer(self):
        self.assertTrue(W.check_oracle({"n": 9, "errors": 0}, 0, well_typed(8), ""))
        err = "error[E0201]: atom #0 (`p0`) is ill-typed\n" * 2
        self.assertTrue(W.check_oracle({"n": 8, "errors": 3}, 2, "", err))
        self.assertTrue(W.check_oracle({"n": 8, "errors": 0}, 2, well_typed(8), ""))

    def test_lint_accepts_and_rejects(self):
        spec = {"n": 4, "json": False, "path": "a.slp"}
        self.assertEqual(W.lint_oracle(spec, 0, lint_human(4, "a.slp"), ""), [])
        self.assertTrue(W.lint_oracle(dict(spec, n=5), 0, lint_human(4, "a.slp"), ""))
        other = lint_human(4, "a.slp").replace("W0502", "W0401", 1)
        self.assertTrue(W.lint_oracle(spec, 0, other, ""))
        diags = json.dumps([{"code": "W0502"}] * W.lint_warnings(4))
        self.assertEqual(W.lint_oracle(dict(spec, json=True), 0, diags, ""), [])
        self.assertTrue(W.lint_oracle(dict(spec, json=True, n=3), 0, diags, ""))

    def test_audit_accepts_and_rejects(self):
        out = (
            "R = cons(0, cons(succ(0), cons(succ(succ(0)), nil))).\n"
            "audited 10 resolvent(s): 0 violation(s), answers consistent\n"
        )
        self.assertEqual(W.audit_oracle({"n": 3}, 0, out, ""), [])
        self.assertTrue(W.audit_oracle({"n": 4}, 0, out, ""))
        self.assertTrue(W.audit_oracle({"n": 3}, 0, out.replace("cons(0, cons(succ(0)", "cons(succ(0), cons(0"), ""))

    def test_serve_accepts_and_rejects(self):
        response = {"status": "ok", "clauses": 6, "queries": 8, "errors": 1}
        want = {"clauses": 6, "queries": 8, "errors": 1}
        self.assertEqual(W.serve_oracle(want, response), [])
        self.assertTrue(W.serve_oracle(dict(want, errors=2), response))
        self.assertTrue(W.serve_oracle(want, dict(response, status="deadline")))


def built(name):
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    path = (target / "release" / name).resolve()
    return path if path.is_file() else None


@unittest.skipUnless(built("slp") and built("slp-layers"), "no release slp and slp-layers built")
class ScaleTest(unittest.TestCase):
    def test_times_are_scaled_by_the_probe_and_ratios_are_not(self):
        import run as R

        tally, loop = R.Tally(), R.Loop()
        for cls, ms, units in [("small", 10.0, 1), ("small", 20.0, 1), ("large", 90.0, 3)]:
            tally.verdict(cls, ms, units)
        loop.setups = [0.5]
        loop.probes = [R.PROBE_REF_MS * 2e-3] * 3  # a host twice as slow
        metrics, scale = R.summarize(tally, loop, 1.0)
        self.assertEqual(scale, 0.5)
        self.assertEqual(metrics["verdict_p50_ms"], 10.0)
        self.assertEqual(metrics["setup_s"], 0.25)
        self.assertEqual(metrics["work_per_s"], 5 / 0.060)
        self.assertEqual(metrics["growth_ratio"], 30.0 / 15.0)
        self.assertEqual(metrics["peak_rss_mb"], 1.0)

    def test_no_probe_no_time_metric(self):
        import run as R

        tally = R.Tally()
        tally.verdict("small", 10.0, 1)
        tally.verdict("large", 90.0, 3)
        metrics, scale = R.summarize(tally, R.Loop(), 1.0)
        self.assertIsNone(scale)
        self.assertEqual(sorted(metrics), ["growth_ratio", "peak_rss_mb"])


class RealBinaryTest(unittest.TestCase):
    """The oracles against the real binary on files `lp_gen` writes:
    right answers pass, wrong expected answers fail."""

    def run_slp(self, program, params, *args):
        with tempfile.TemporaryDirectory() as d:
            spec = Path(d) / "gen.tsv"
            spec.write_text(f"{program}\t{','.join(map(str, params))}\tt.slp\n")
            subprocess.run([str(built("slp-layers")), "gen", "gen.tsv"], cwd=d, check=True, timeout=60)
            r = subprocess.run(
                [str(built("slp")), args[0], "t.slp", *args[1:]],
                cwd=d,
                capture_output=True,
                text=True,
                timeout=60,
            )
        return r.returncode, r.stdout, r.stderr

    def test_check(self):
        answer = self.run_slp("pipeline_with_errors", (16, W.K, 3), "check")
        self.assertEqual(W.check_oracle({"n": 16, "errors": 3}, *answer), [])
        self.assertTrue(W.check_oracle({"n": 16, "errors": 2}, *answer))

    def test_lint(self):
        answer = self.run_slp("pipeline", (16, W.K), "lint")
        spec = {"n": 16, "json": False, "path": "t.slp"}
        self.assertEqual(W.lint_oracle(spec, *answer), [])
        self.assertTrue(W.lint_oracle(dict(spec, n=17), *answer))

    def test_audit(self):
        answer = self.run_slp("nrev", (6,), "audit", "-n", "1")
        self.assertEqual(W.audit_oracle({"n": 6}, *answer), [])
        self.assertTrue(W.audit_oracle({"n": 5}, *answer))

    def test_peak_rss_is_slps_own(self):
        # A child's peak RSS counts the pages it shared with its parent at
        # fork; the runner must not report the benchmark's own memory.
        import run as R

        ballast = bytearray(128 << 20)
        for i in range(0, len(ballast), 4096):
            ballast[i] = 1
        with tempfile.TemporaryDirectory() as d:
            work = R.WORK
            R.WORK = Path(d)
            try:
                (R.WORK / "gen.tsv").write_text(f"pipeline\t16,{W.K}\tt.slp\n")
                subprocess.run([str(built("slp-layers")), "gen", "gen.tsv"], cwd=d, check=True, timeout=60)
                runner = R.Runner(built("slp"), built("slp-layers"), time.monotonic() + 60)
                code, stdout, _, took = runner.run(["check", "t.slp"])
            finally:
                R.WORK = work
        self.assertEqual(code, 0)
        self.assertEqual(stdout, well_typed(16))
        self.assertGreater(took, 0)
        self.assertGreater(runner.peak_rss_mb, 0)
        self.assertLess(runner.peak_rss_mb, 64)
        del ballast


# A stand-in for `slp serve` that answers two requests and then dies.
DYING_SERVE = """\
import sys
for i, line in enumerate(sys.stdin):
    if i == 2:
        sys.exit(3)
    print('{"status":"ok"}', flush=True)
"""


@unittest.skipUnless(built("slp-layers"), "no release slp-layers built")
class DyingServeTest(unittest.TestCase):
    """A serve session that dies is counted as failed, a new session is
    started for the next episode, and the run still ends with metrics."""

    def test_dead_sessions_count_as_failed(self):
        import run as R

        with tempfile.TemporaryDirectory() as d:
            fake = Path(d) / "slp"
            fake.write_text(f"#!{sys.executable}\n{DYING_SERVE}")
            fake.chmod(fake.stat().st_mode | stat.S_IXUSR)
            work = R.WORK
            R.WORK = Path(d) / "work"
            R.WORK.mkdir()
            try:
                deadline = time.monotonic() + 60
                runner, tally = R.Runner(fake, built("slp-layers"), deadline), R.Tally()
                loop = R.run_serve_edits(
                    runner, built("slp-layers"), tally, W.make_rng(1, "serve_edits"), 0.5, deadline
                )
                metrics, _ = R.summarize(tally, loop, runner.peak_rss_mb)
            finally:
                R.WORK = work
        self.assertGreater(tally.failed, 0)
        self.assertEqual(tally.samples, [])
        self.assertNotIn("verdict_p50_ms", metrics)


if __name__ == "__main__":
    unittest.main()
