#!/usr/bin/env python3
"""End-to-end benchmark of `slp check | lint | audit | serve`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark builds the release
`slp` binary and the traced-run helper (`perfbench/layers`) with cargo
into $CARGO_TARGET_DIR (default `.bench_build`), writes its inputs under
`.bench_work/` (program files with `lp_gen::programs` through
`slp-layers gen`, serve requests from the seed), and then

* with `--trace 0` drives the release binary in a closed loop with one
  client for S seconds (and at least 100 verdicts), checks every answer
  against a known-answer oracle, and reports the end-to-end metrics,
  times scaled to a reference host speed by a probe timed after every
  item (see PROBE_REF_MS);
* with `--trace 1` runs the traced in-process pass (`slp-layers`) of
  the workload for S seconds, beside one round of every other workload
  (every per-layer metric is reported), checks its answers with the same
  oracles and reports the per-layer metrics, named
  `<workload>.<layer>.<metric>`.

Human-readable lines (provenance, sample counts, mismatches, the
per-layer table) come first; the last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. The exit
code is 0 whenever that line is printed, and 2 when the benchmark cannot
run at all (no sources to build, a failed build).
"""

import argparse
import hashlib
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
JOBS = "2"
WORKLOADS = ("check_corpus", "lint_corpus", "audit_nrev", "serve_edits")

# Runaway guard: every slp process gets a timeout and an address-space
# ceiling (inherited from this process), every serve request a timeout,
# and the run a deadline, counted from the end of the build, well inside
# the 180 s it must end in.
PROCESS_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 30
MEMORY_CEILING_BYTES = 4 << 30
RUN_DEADLINE_S = 150

MIN_SAMPLES = 100  # ten verdicts beyond the 90th percentile

# Host-speed scale: every time metric is reported as measured times
# PROBE_REF_MS over the median time of `slp-layers probe` in the same
# run, i.e. at the speed of a host on which the probe takes PROBE_REF_MS
# (about the typical speed of the 2-core machine the README's numbers
# come from). The shared host's speed drifts by up to a third over
# minutes; the probe, fixed work that calls no code of the program, is
# timed after every item and drifts with it (see README, Host noise).
PROBE_REF_MS = 4.0


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Build and provenance
# ---------------------------------------------------------------------------


def build():
    """Builds `slp` and `slp-layers` in release mode; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "src" / "bin" / "slp.rs").is_file():
        die(f"no slp sources in {ROOT}: run from the root of a source checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    layers = HERE / "layers" / "Cargo.toml"
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "slp"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(layers)],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        if r.returncode != 0:
            die(f"build failed: {' '.join(cmd)}\n{r.stderr[-4000:]}")
    return target / "release" / "slp", target / "release" / "slp-layers"


def metric_units():
    """Metric names and units of both kinds, from BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
        return tuple({m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer"))
    except (OSError, ValueError, KeyError, TypeError) as e:
        die(f"cannot read metric names from {path}: {e}")


def provenance(args):
    """Seed, commit, core count and build profile of this result."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    if not commit:
        # A checkout without git metadata: name the sources by content.
        h = hashlib.sha256()
        for path in sorted(ROOT.glob("Cargo.*")) + sorted(ROOT.glob("src/**/*.rs")) + sorted(
            ROOT.glob("crates/*/src/**/*.rs")
        ):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
        commit = f"unknown (sources sha256:{h.hexdigest()[:16]})"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "commit": commit,
        "nproc": os.cpu_count(),
        "profile": "release",
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Guarded processes
# ---------------------------------------------------------------------------


class Watchdog:
    """Kills `proc` and its process group if it is still running `timeout`
    seconds from now."""

    def __init__(self, proc, timeout):
        self.proc, self.fired, self.done = proc, False, threading.Event()
        self.timer = threading.Timer(timeout, self._fire)
        self.timer.start()

    def _fire(self):
        if not self.done.is_set():
            self.fired = True
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def cancel(self):
        self.done.set()
        self.timer.cancel()
        self.timer.join()


class Runner:
    """Starts slp processes, each under the runaway guard, and keeps the
    peak RSS of all of them.

    Every process is started through `slp-layers exec`, which reports the
    exit code, peak RSS and spawn-to-exit time of `slp` alone: a child's
    peak RSS also counts the pages it shared with its parent at fork, so
    read from here it would include this process's own memory."""

    def __init__(self, slp, layers, deadline):
        self.slp, self.layers, self.deadline = str(slp), str(layers), deadline
        self.peak_rss_mb, self.spawned = 0.0, 0
        self.out, self.err = WORK / "stdout.txt", WORK / "stderr.txt"

    def timeout(self, limit):
        return max(1.0, min(limit, self.deadline - time.monotonic()))

    def spawn(self, args, program=None, **popen):
        """Starts `slp ARGS` (or PROGRAM ARGS) in its own process group;
        returns the process and the path of its report."""
        self.spawned += 1
        report = WORK / f"exec-{self.spawned}.txt"
        report.unlink(missing_ok=True)
        cmd = [self.layers, "exec", report.name, program or self.slp, *args]
        return subprocess.Popen(cmd, cwd=WORK, start_new_session=True, **popen), report

    def finish(self, proc, report, is_slp=True):
        """Waits for a spawned process; returns (exit code, seconds from
        spawn to exit), or (None, None) when it left no report (killed).
        Only an `slp` process counts towards the peak RSS."""
        proc.wait()
        try:
            code, rss_kb, ns = map(int, report.read_text().split())
        except (OSError, ValueError):
            return None, None
        report.unlink()
        if is_slp:
            self.peak_rss_mb = max(self.peak_rss_mb, rss_kb / 1024.0)
        return code, ns / 1e9

    def probe(self):
        """Runs `slp-layers probe` as it runs `slp`; returns its exit code
        and seconds from spawn to exit."""
        proc, report = self.spawn(
            ["probe"],
            program=self.layers,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        dog = Watchdog(proc, self.timeout(PROCESS_TIMEOUT_S))
        code, took = self.finish(proc, report, is_slp=False)
        dog.cancel()
        return code, took

    def run(self, args):
        """Runs `slp ARGS` in the work directory; returns (exit code,
        stdout, stderr, seconds from spawn to exit)."""
        with open(self.out, "w+b") as out, open(self.err, "w+b") as err:
            started = time.perf_counter()
            proc, report = self.spawn(args, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            dog = Watchdog(proc, self.timeout(PROCESS_TIMEOUT_S))
            code, took = self.finish(proc, report)
            dog.cancel()
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode(errors="replace")
            stderr = err.read().decode(errors="replace")
        if dog.fired:
            stderr += f"\n[killed after the {PROCESS_TIMEOUT_S} s timeout]"
        return code, stdout, stderr, time.perf_counter() - started if took is None else took


class ServeClient:
    """One `slp serve --stdio --jobs 2` session with per-request timeouts."""

    def __init__(self, runner):
        self.runner = runner
        self.proc, self.report = runner.spawn(
            ["serve", "--stdio", "--jobs", JOBS],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        self.buf = b""

    def request(self, obj):
        """Sends one request; returns (response or None, seconds)."""
        line = (json.dumps(obj, separators=(",", ":")) + "\n").encode()
        dog = Watchdog(self.proc, self.runner.timeout(REQUEST_TIMEOUT_S))
        started = time.perf_counter()
        try:
            self.proc.stdin.write(line)
            self.proc.stdin.flush()
            response = self._readline()
        except (OSError, ValueError):
            response = None
        elapsed = time.perf_counter() - started
        dog.cancel()
        return response, elapsed

    def _readline(self):
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            select.select([fd], [], [])
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None  # the server died (crash, ceiling or watchdog)
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return json.loads(line)

    def close(self):
        """Shuts the session down and reaps it (killing it if it hangs);
        returns its exit code, None when it was killed."""
        try:
            self.proc.stdin.write(b'{"op":"shutdown"}\n')
            self.proc.stdin.close()
        except OSError:
            pass
        dog = Watchdog(self.proc, self.runner.timeout(REQUEST_TIMEOUT_S))
        code, _ = self.runner.finish(self.proc, self.report)
        dog.cancel()
        self.proc.stdout.close()
        return code


# ---------------------------------------------------------------------------
# Measurement bookkeeping
# ---------------------------------------------------------------------------


class Tally:
    """Verdict samples (class, ms, units) and oracle results of a run."""

    def __init__(self):
        self.samples, self.attempted, self.failed = [], 0, 0

    def verdict(self, cls, ms, units):
        self.samples.append((cls, ms, units))

    def judge(self, what, mismatches):
        self.attempted += 1
        if mismatches:
            self.failed += 1
            print(f"MISMATCH {what}: {'; '.join(mismatches)}")


def keep_going(started, seconds, tally, deadline):
    """At least `seconds`, and on until MIN_SAMPLES verdicts but not past
    twice `seconds` or the deadline."""
    elapsed = time.monotonic() - started
    if time.monotonic() >= deadline:
        return False
    return elapsed < seconds or (len(tally.samples) < MIN_SAMPLES and elapsed < 2 * seconds)


def timed(runner, tally, what, args, oracle):
    """Runs and judges one operation; returns its seconds."""
    code, out, err, took = runner.run(args)
    tally.judge(what, oracle(code, out, err))
    return took


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path.relative_to(WORK).as_posix()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def generate(layers, specs):
    """Writes each (lp_gen program, params, path) of `specs` with
    `slp-layers gen`."""
    lines = "".join(f"{prog}\t{','.join(map(str, params))}\t{path}\n" for prog, params, path in specs)
    spec = write(WORK / "gen.tsv", lines)
    r = subprocess.run([str(layers), "gen", spec], cwd=WORK, capture_output=True, text=True, timeout=60)
    if r.returncode != 0:
        die(f"slp-layers gen failed: {r.stderr[-2000:]}")


def gen_files(layers, workload):
    """The generated files of a one-shot workload: class -> spec."""
    specs, files = [], {}
    for cls, (prog, params, n, errors) in W.input_specs(workload).items():
        path = f"{workload}/{cls}.slp"
        (WORK / workload).mkdir(exist_ok=True)
        specs.append((prog, params, path))
        files[cls] = {"n": n, "errors": errors, "path": path}
    generate(layers, specs)
    return files


def serve_prefix(layers):
    """nrev(0) without its query: the base of every serve program."""
    (WORK / "serve_edits").mkdir(exist_ok=True)
    generate(layers, [("nrev", (0,), "serve_edits/nrev0.slp")])
    text = (WORK / "serve_edits" / "nrev0.slp").read_text()
    return text[: text.rindex("\n:- ") + 1]


def serve_episodes(prefix, rng, classes):
    sizes = dict(zip(("small", "large"), W.SERVE_QUERIES))
    return [W.serve_episode(prefix, cls, sizes[cls], rng) for cls in classes]


# ---------------------------------------------------------------------------
# End-to-end runs (--trace 0)
# ---------------------------------------------------------------------------

# Played once before the measured cycles, judged but not recorded.
WARMUP = ("small", "large")


def info_setup(runner, tally, spec, clauses, queries):
    """A set-up measurement: `slp info` on the largest input (parse,
    validation and closure with no checking)."""
    want = {"clauses": clauses, "queries": queries}
    return lambda: timed(
        runner,
        tally,
        f"info {spec['path']}",
        ["info", spec["path"]],
        lambda *answer: W.info_oracle(want, *answer),
    )


class Loop:
    """What a closed loop measured besides the verdicts: set-up and host
    probe seconds, and its wall seconds."""

    def __init__(self):
        self.setups, self.probes, self.wall = [], [], 0.0


def probe(runner, tally, loop):
    """Times one host probe into `loop`; a probe that fails counts as a
    failed operation."""
    code, took = runner.probe()
    tally.judge("slp-layers probe", [] if code == 0 else [f"probe exited {code}"])
    if code == 0:
        loop.probes.append(took)


def closed_loop(
    runner, rng, tally, seconds, deadline, classes, play, set_up, set_up_each_item=False
):
    """The warm-up items, then whole cycles of `classes` in seeded order
    until the run is long enough. A set-up measurement follows each cycle
    (or each item), so set-up is sampled under the same conditions as the
    verdicts, spread over the run; a host probe follows each item.
    `play(cls, record)` plays one item of class `cls`. Returns a Loop."""
    loop = Loop()
    for cls in WARMUP:
        play(cls, False)
    set_up()  # warm-up only
    runner.probe()
    started = time.monotonic()
    while keep_going(started, seconds, tally, deadline):
        for cls in W.cycle(rng, classes):
            play(cls, True)
            probe(runner, tally, loop)
            if set_up_each_item:
                loop.setups.append(set_up())
        if not set_up_each_item:
            loop.setups.append(set_up())
    loop.wall = time.monotonic() - started
    return loop


def oneshot(runner, tally, rng, seconds, deadline, classes, pick, command, oracle, units, set_up):
    """Closed loop over cycles of `classes`, one `slp` process per item;
    `pick(cls)` chooses the input of an item of class `cls`."""

    def play(cls, record):
        spec = pick(cls)
        took = timed(
            runner,
            tally,
            f"{cls} {spec['path']}",
            command(spec),
            lambda *answer: oracle(spec, *answer),
        )
        if record:
            tally.verdict(cls, took * 1e3, units(spec))

    return closed_loop(runner, rng, tally, seconds, deadline, classes, play, set_up)


def run_check_corpus(runner, layers, tally, rng, seconds, deadline):
    files = gen_files(layers, "check_corpus")
    large = files["large"]
    return oneshot(
        runner,
        tally,
        rng,
        seconds,
        deadline,
        # One small item in five is a pipeline_with_errors file with a
        # seeded error count; it counts in the percentiles, not in growth.
        ("error",) + W.CYCLE[1:],
        lambda cls: files[f"error{rng.randint(1, W.MAX_ERRORS)}" if cls == "error" else cls],
        lambda spec: ["check", "--jobs", JOBS, spec["path"]],
        W.check_oracle,
        lambda spec: spec["n"] * (W.K + 1) + spec["errors"],
        info_setup(runner, tally, large, large["n"] * (W.K + 1), 0),
    )


def run_lint_corpus(runner, layers, tally, rng, seconds, deadline):
    files = gen_files(layers, "lint_corpus")
    large = files["large"]
    formats = []

    def pick(cls):
        # Half --format json, half human: seeded shuffles of two of each
        # and a fifth whose format is seeded too.
        if not formats:
            formats.extend([True, False, True, False, rng.random() < 0.5])
            rng.shuffle(formats)
        return dict(files[cls], json=formats.pop())

    def command(spec):
        return ["lint", "--jobs", JOBS, *(["--format", "json"] if spec["json"] else []), spec["path"]]

    return oneshot(
        runner,
        tally,
        rng,
        seconds,
        deadline,
        W.CYCLE,
        pick,
        command,
        W.lint_oracle,
        lambda spec: spec["n"] * (W.K + 1),
        info_setup(runner, tally, large, large["n"] * (W.K + 1), 0),
    )


def run_audit_nrev(runner, layers, tally, rng, seconds, deadline):
    files = gen_files(layers, "audit_nrev")
    return oneshot(
        runner,
        tally,
        rng,
        seconds,
        deadline,
        W.CYCLE,
        lambda cls: files[cls],
        lambda spec: ["audit", spec["path"], "-n", "1", "--jobs", JOBS],
        W.audit_oracle,
        lambda spec: W.nrev_resolvents(spec["n"]),
        info_setup(runner, tally, files["large"], 4, 1),
    )


REJECTED = {"status": "no response (server exited or timed out)"}


def run_serve_edits(runner, layers, tally, rng, seconds, deadline):
    """Episodes (a load, then delta+check pairs) played on one session,
    which is started again when it dies. Set-up is a fresh session, timed
    from spawn to the answer of its initial `load` of a large program."""
    prefix = serve_prefix(layers)
    session = []  # the live client, if any

    def shut(client, what):
        code = client.close()
        tally.judge(what, [] if code == 0 else [f"serve exited {code}"])

    def cold_load():
        load = serve_episodes(prefix, rng, ["large"])[0]["steps"][0]
        started = time.perf_counter()
        client = ServeClient(runner)
        response, _ = client.request(load["request"])
        took = time.perf_counter() - started
        tally.judge("serve initial load", W.serve_oracle(load["want"], response or REJECTED))
        shut(client, "serve shutdown")
        return took

    def play(cls, record):
        if not session:
            session.append(ServeClient(runner))
        client = session[0]
        episode = serve_episodes(prefix, rng, [cls])[0]
        pending = 0.0
        for step in episode["steps"]:
            response, took = client.request(step["request"])
            tally.judge(f"serve {cls} {step['op']}", W.serve_oracle(step["want"], response or REJECTED))
            if response is None:
                # The session is gone (crash, ceiling or timeout): the
                # rest of the episode is not attempted, and the next one
                # starts a new session.
                shut(session.pop(), "serve session after a lost response")
                return
            if step["op"] == "delta":
                pending = took
            elif step["op"] == "check" and record:
                units = step["want"]["clauses"] + step["want"]["queries"]
                tally.verdict(cls, (pending + took) * 1e3, units)

    # A cycle of episodes lasts about ten seconds, so set-up is sampled
    # after every episode to give the median enough samples.
    result = closed_loop(runner, rng, tally, seconds, deadline, W.CYCLE, play, cold_load, True)
    if session:
        shut(session.pop(), "serve shutdown")
    return result


E2E = {
    "check_corpus": (run_check_corpus, "clauses and queries"),
    "lint_corpus": (run_lint_corpus, "clauses and queries"),
    "audit_nrev": (run_audit_nrev, "resolvents"),
    "serve_edits": (run_serve_edits, "clauses and queries"),
}


def summarize(tally, loop, peak_rss_mb):
    """The end-to-end metrics the samples allow: percentiles need two
    verdicts, growth one of each class, set-up one measurement, and every
    time metric a host probe (times are scaled by PROBE_REF_MS over the
    median probe). Returns the metrics and the scale."""
    scale = PROBE_REF_MS / (statistics.median(loop.probes) * 1e3) if loop.probes else None
    samples = [ms for _, ms, _ in tally.samples]
    per_unit = {
        c: [ms / units for cls, ms, units in tally.samples if cls == c] for c in ("small", "large")
    }
    metrics = {"peak_rss_mb": peak_rss_mb}
    if loop.setups and scale:
        metrics["setup_s"] = statistics.median(loop.setups) * scale
    if len(samples) >= 2 and scale:
        metrics["verdict_p50_ms"] = statistics.median(samples) * scale
        metrics["verdict_p90_ms"] = statistics.quantiles(samples, n=10)[8] * scale
        work = sum(units for *_, units in tally.samples)
        metrics["work_per_s"] = work / (sum(samples) * scale / 1e3)
    if per_unit["small"] and per_unit["large"]:
        small, large = (statistics.median(per_unit[c]) for c in ("small", "large"))
        metrics["growth_ratio"] = large / small
    return metrics, scale


def end_to_end(args, slp, layers, deadline, units):
    runner, tally = Runner(slp, layers, deadline), Tally()
    rng = W.make_rng(args.seed, args.workload)
    run, work_name = E2E[args.workload]
    loop = run(runner, layers, tally, rng, args.seconds, deadline)
    metrics, scale = summarize(tally, loop, runner.peak_rss_mb)
    samples = [ms for _, ms, _ in tally.samples]
    large = sum(1 for cls, *_ in tally.samples if cls == "large")
    p90 = metrics.get("verdict_p90_ms", float("inf")) / (scale or 1)
    beyond = sum(x > p90 for x in samples)
    print(
        f"perfbench: {len(samples)} verdicts in {loop.wall:.2f} s ({large} large); p50 and p90 "
        f"over all {len(samples)}, {beyond} beyond p90; "
        f"setup_s median of {len(loop.setups)}; work_per_s counts {work_name}"
    )
    if scale:
        probe_ms = PROBE_REF_MS / scale
        raw = ", ".join(
            f"{k} {metrics[k] / scale:.6g}"
            for k in ("verdict_p50_ms", "verdict_p90_ms", "setup_s")
            if k in metrics
        )
        print(
            f"perfbench: host probe median {probe_ms:.4f} ms of {len(loop.probes)}; times "
            f"scaled by {PROBE_REF_MS} / {probe_ms:.4f} = {scale:.4f} (as measured: {raw})"
        )
    print(f"perfbench: failed_ratio {tally.failed}/{tally.attempted}")
    if not set(metrics) <= set(units):
        die(f"end-to-end metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    # A run that cannot give every metric (the workload failed or ran
    # out of time) counts as failed; the result line still comes.
    missing = sorted(set(units) - set(metrics))
    if missing:
        tally.judge("run", [f"no {', '.join(missing)} from {len(samples)} verdicts"])
    for name, value in metrics.items():
        print(f"  {name:<16} {value:12.4f} {units[name]}")
    return tally, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------


def trace_manifest(layers, seed):
    """Inputs of the traced pass: one of each class per workload (every
    error count for check, each lint file in both formats), and one small
    and one large serve episode. Returns the manifest rows and, per row,
    how to judge its outputs."""
    rows, judges = [], []

    def add(workload, cls, params, path, judge):
        rows.append("\t".join([workload, cls, ",".join(map(str, params)), path]))
        judges.append(judge)

    for key, spec in gen_files(layers, "check_corpus").items():
        cls = "error" if spec["errors"] else key
        oracle = lambda r, spec=spec: W.check_oracle(spec, r["code"], r["stdout"], r["stderr"])
        add("check_corpus", cls, [], spec["path"], oracle)
    for cls, spec in gen_files(layers, "lint_corpus").items():
        for j in (0, 1):
            s = dict(spec, json=bool(j))
            oracle = lambda r, s=s: W.lint_oracle(s, r["code"], r["stdout"], r["stderr"])
            add("lint_corpus", cls, [j], spec["path"], oracle)
    for cls, spec in gen_files(layers, "audit_nrev").items():
        oracle = lambda r, spec=spec: W.audit_oracle(spec, r["code"], r["stdout"], r["stderr"])
        add("audit_nrev", cls, [], spec["path"], oracle)
    rng = W.make_rng(seed, "serve_edits")
    steps = []
    for episode in serve_episodes(serve_prefix(layers), rng, ["small", "large"]):
        steps.extend((episode["class"], step) for step in episode["steps"])
    lines = []
    for i, (cls, step) in enumerate(steps):
        source = step["request"].get("source")
        src_path = write(WORK / "serve_edits" / f"step{i}.slp", source) if source else "-"
        units = step["want"]["clauses"] + step["want"]["queries"]
        request = json.dumps(step["request"], separators=(",", ":"))
        lines.append(f"{cls}\t{step['op']}\t{units}\t{src_path}\t{request}\n")
    path = write(WORK / "serve_edits" / "script.tsv", "".join(lines))
    add(
        "serve_edits",
        "session",
        [],
        path,
        lambda r: W.serve_oracle(steps[r["step"]][1]["want"], r["response"]),
    )
    return rows, judges


def traced(args, layers, deadline, units):
    rows, judges = trace_manifest(layers, args.seed)
    manifest = write(WORK / "manifest.tsv", "".join(r + "\n" for r in rows))
    outputs, spans = WORK / "layers-outputs.jsonl", WORK / "spans.jsonl"
    proc = subprocess.Popen(
        [
            str(layers),
            manifest,
            outputs.name,
            spans.name,
            str(args.seconds),
            str(os.sysconf("SC_CLK_TCK")),
            args.workload,
        ],
        cwd=WORK,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    dog = Watchdog(proc, max(1.0, deadline - time.monotonic()))
    stdout, stderr = proc.communicate()
    dog.cancel()
    tally = Tally()
    if proc.returncode != 0:
        tally.judge("slp-layers", [f"exit {proc.returncode}: {stderr.decode()[-400:]}"])
        return tally, {}
    for line in outputs.read_text().splitlines():
        r = json.loads(line)
        bad = judges[r["entry"]](r)
        tally.judge(f"traced {rows[r['entry']].split(chr(9))[3]} step {r['step']}", bad)
    measured = json.loads(stdout.decode().strip().splitlines()[-1])
    metrics = {}
    for name, unit in units.items():
        workload, metric = name.split(".", 1)
        value = measured.get(workload, {}).get(metric)
        if value is None:
            die(f"slp-layers reported no {metric} for {workload}")
        metrics[name] = {"value": value, "unit": unit}
    print_layer_table(metrics)
    print(f"perfbench: spans written to {spans.relative_to(ROOT)}")
    return tally, metrics


def print_layer_table(metrics):
    """Every per-layer metric by workload; n/a where it does not apply."""
    names = sorted({n.split(".", 1)[1] for n in metrics})
    print(f"  {'per-layer metric':<30}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name in names:
        cells = []
        for w in WORKLOADS:
            m = metrics.get(f"{w}.{name}")
            cells.append(f"{m['value']:14.4g}" if m else f"{'n/a':>14}")
        print(f"  {name:<30}" + "".join(cells))


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    slp, layers = build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    end_to_end_units, per_layer_units = metric_units()
    # The ceiling is inherited by every process spawned from here on; the
    # build above runs without it.
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING_BYTES, hard))
    WORK.mkdir(exist_ok=True)

    prov = provenance(args)
    print("perfbench: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    if args.trace:
        tally, metrics = traced(args, layers, deadline, per_layer_units)
    else:
        tally, metrics = end_to_end(args, slp, layers, deadline, end_to_end_units)
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, provenance=prov), indent=1) + "\n"
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
