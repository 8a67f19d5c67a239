"""The loopzip benchmark: fresh-process `loopzip` commands, timed end to end.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload census-gl3 --seed 0 --seconds 28 --trace 0

Each workload is a fixed list of `loopzip verify` commands; the seed is
passed to every command as `--seed`. Every command runs in a fresh
interpreter (`python -m loopzip` with PYTHONPATH=src), one child at a time,
because every user of the command line pays the per-process set-up of the
lazy caches (the class-context search, the GL(n, q) cache, the Witt
structure polynomials).

--trace 0  repeats the workload for about --seconds and reports the
           end-to-end metrics of BENCHMARK.json: medians over repetitions
           of the summed wall and child CPU time, the median import time
           of `loopzip.cli` over several fresh interpreters, and the peak
           child RSS. Every time is gauged (see run_child).
--trace 1  runs the workload once plainly and once under tracer.py, checks
           that both give the same report bytes, and reports the per-layer
           metrics of BENCHMARK.json plus the tracing overhead.

Every report is checked: exit code 0, `"passed": true`, the seed-independent
facts in WORKLOADS, equal bytes on every repetition, and at the default
seed the SHA-256 digests in golden.json. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the line before it holds the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 0
SETUP_LAUNCHES = 7
GAUGE_PERIOD_S = 0.025
GAUGE_NOMINAL_S = 0.0005  # gauge_burst's CPU time on the host times are scaled to
DEADLINE_S = 170  # the whole run, so that it ends within three minutes

# workload -> [(loopzip arguments, {(check name, field): expected value})].
# The expected values hold at every seed.
WORKLOADS = {
    "census-gl3": [
        ("verify --suite psi --mu 1,1,0 --q 2 --samples 100",
         {("class-orbit-bijection", "pair_count"): 28224,
          ("class-orbit-bijection", "orbit_count"): 294,
          ("class-orbit-bijection", "class_count"): 294}),
    ],
    "laurent-sampled": [
        ("verify --suite prozip --mu 1,1,0 --q 2 --samples 300",
         {("conjugate-pair-invariance", "passed_samples"): 300}),
        ("verify --suite prozip --mu 1,0 --q 3 --prec 12 --samples 200",
         {("conjugate-pair-invariance", "passed_samples"): 200}),
    ],
    "witt-mixed": [
        ("verify --suite witt --mu 1,0 --q 3 --samples 50",
         {("mixed-census-equality", "laurent_classes"): 64,
          ("mixed-census-equality", "witt_classes"): 64}),
    ],
    "chain-q4": [
        ("verify --suite chain --mu 1,0 --q 4",
         {("orbit-transport", "source_orbits"): 4,
          ("orbit-transport", "target_orbits"): 4}),
    ],
}


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


class Timeout(Exception):
    """A child outlived the run's deadline."""


def _on_alarm(signum, frame):
    raise Timeout


class Child(NamedTuple):
    """Outcome of one child process."""

    rc: int
    started: float  # CLOCK_MONOTONIC just before the launch
    scale: float  # GAUGE_NOMINAL_S / median gauge burst while it ran; 1 if not gauged
    wall_s: float
    cpu_s: float
    rss_mib: float
    out: bytes
    err: bytes


def gauge_burst():
    """CPU seconds this process takes for a fixed piece of pure-Python work."""
    t0 = time.thread_time()
    seen = {}
    for i in range(2000):
        key = (i % 97, i * i % 89)
        seen[key] = seen.get(key, 0) + 1
    return time.thread_time() - t0


def run_child(argv, tmp, deadline, gauge=False):
    """Run argv to completion, timed from launch to exit, output to files.

    The host's speed drifts by up to 2x, for seconds and for minutes (other
    tenants on shared cores), so raw times of one run cannot be averaged
    into steady numbers. With `gauge`, this process wakes every
    GAUGE_PERIOD_S while the child runs, on the same one CPU (see main),
    and times gauge_burst: the median burst is the speed of that CPU while
    the child ran, and `scale` turns the child's times into seconds on a
    host where a burst takes GAUGE_NOMINAL_S. The bursts use about 2% of
    the CPU, which the child's wall time (not its CPU time) includes.
    """
    out_path, err_path = os.path.join(tmp, "stdout"), os.path.join(tmp, "stderr")
    env = dict(os.environ, PYTHONPATH=SRC)
    limit = max(1, int(deadline - time.monotonic()))
    bursts = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=ROOT, env=env)
        signal.alarm(limit)
        try:
            if gauge:
                exited = os.pidfd_open(proc.pid)
                try:
                    while not select.select([exited], [], [], GAUGE_PERIOD_S)[0]:
                        bursts.append(gauge_burst())
                finally:
                    os.close(exited)
            _, status, usage = os.wait4(proc.pid, 0)
        except Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    # wait4 reaped the child; tell Popen so that it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    if gauge and not bursts:
        bursts.append(gauge_burst())
    scale = GAUGE_NOMINAL_S / statistics.median(bursts) if gauge else 1.0
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Child(proc.returncode, started, scale, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024, stdout, stderr)


def measure_setup(tmp, deadline):
    """Seconds from interpreter launch until `import loopzip.cli` is done.

    Median over SETUP_LAUNCHES gauged launches, and the same unscaled. The
    child prints the system-wide monotonic clock right after the import;
    the first launch (which may compile bytecode) is not timed.
    """
    code = ("import time, loopzip, loopzip.cli; "
            "print(time.clock_gettime(time.CLOCK_MONOTONIC)); print(loopzip.__file__)")
    argv = [sys.executable, "-c", code]
    times, raw = [], []
    for i in range(SETUP_LAUNCHES + 1):
        res = run_child(argv, tmp, deadline, gauge=True)
        if res.rc != 0:
            raise Fatal("cannot import loopzip.cli from src/: "
                        + res.err.decode(errors="replace").strip()[-500:])
        stamp, origin = res.out.decode().split("\n")[:2]
        if not os.path.abspath(origin).startswith(os.path.join(SRC, "")):
            raise Fatal(f"loopzip is imported from {origin}, not from {SRC}")
        if i:
            raw.append(float(stamp) - res.started)
            times.append(raw[-1] * res.scale)
    return statistics.median(times), statistics.median(raw)


def check_report(res, facts, golden):
    """Problems with one command's result; an empty list means it is correct."""
    problems = []
    if res.rc != 0:
        problems.append(f"exit code {res.rc}: "
                        + res.err.decode(errors="replace").strip()[-300:])
    try:
        report = json.loads(res.out)
    except ValueError:
        return problems + ["report is not JSON"]
    if report.get("passed") is not True:
        problems.append('"passed" is not true')
    checks = {c.get("name"): c for c in report.get("checks", [])}
    for (check, field), want in facts.items():
        got = checks.get(check, {}).get(field)
        if got != want:
            problems.append(f"{check}.{field} = {got!r}, expected {want!r}")
    digest = hashlib.sha256(res.out).hexdigest()
    if golden is not None and digest != golden:
        problems.append(f"report digest {digest} differs from golden {golden}")
    return problems


class Runner:
    """Runs a workload's commands and keeps the correctness tally."""

    def __init__(self, workload, seed, tmp, deadline):
        self.commands = [(text.split() + ["--seed", str(seed)], facts)
                         for text, facts in WORKLOADS[workload]]
        golden = None
        if seed == DEFAULT_SEED:
            with open(os.path.join(HERE, "golden.json")) as fh:
                golden = json.load(fh)[workload]
        self.golden = golden or [None] * len(self.commands)
        self.tmp, self.deadline = tmp, deadline
        self.attempted = self.failed = 0
        self.first_outputs = None

    def iteration(self, prefix, gauge=False):
        """Run every command once; returns the children's results."""
        results = []
        for k, (args, facts) in enumerate(self.commands):
            res = run_child(prefix(k) + args, self.tmp, self.deadline, gauge)
            problems = check_report(res, facts, self.golden[k])
            if self.first_outputs is not None and res.out != self.first_outputs[k]:
                problems.append("report bytes differ from the first run of this command")
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAIL {' '.join(args)}: {'; '.join(problems)}", file=sys.stderr)
            results.append(res)
        if self.first_outputs is None:
            self.first_outputs = [r.out for r in results]
        return results


def plain(k):
    return [sys.executable, "-m", "loopzip"]


def end_to_end(runner, seconds, setup, deadline):
    """Repeat the workload until `seconds` are used, give or take half a repetition."""
    walls, cpus, raw_walls, raw_cpus, scales, laps, rss = [], [], [], [], [], [], 0.0
    t0 = time.perf_counter()
    while True:
        lap = time.perf_counter()
        results = runner.iteration(plain, gauge=True)
        laps.append(time.perf_counter() - lap)
        walls.append(sum(r.wall_s * r.scale for r in results))
        cpus.append(sum(r.cpu_s * r.scale for r in results))
        raw_walls.append(sum(r.wall_s for r in results))
        raw_cpus.append(sum(r.cpu_s for r in results))
        scales.extend(r.scale for r in results)
        rss = max([rss] + [r.rss_mib for r in results])
        elapsed = time.perf_counter() - t0
        if (elapsed + statistics.median(laps) / 2 > seconds
                or time.monotonic() + 2 * max(laps) > deadline):
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": setup[0],
        "peak_rss_mib": rss,
    }
    return metrics, {"repetitions": len(walls), "wall_s_each": walls, "cpu_s_each": cpus,
                     "raw_wall_s_each": raw_walls, "raw_cpu_s_each": raw_cpus,
                     "raw_setup_s": setup[1], "scale_median": statistics.median(scales)}


def per_layer(runner, wanted, tmp):
    untraced = runner.iteration(plain)
    spans = [os.path.join(tmp, f"trace{k}") for k in range(len(runner.commands))]
    traced = runner.iteration(
        lambda k: [sys.executable, os.path.join(HERE, "tracer.py"), spans[k]])
    metrics, absent = tracer.summarize(
        [s for s in spans if os.path.exists(s + ".json")], set(wanted))
    checks = [c for r in traced for c in _checks(r.out)]
    metrics["suites.checks"] = len(checks)
    metrics["suites.checks_failed"] = sum(1 for c in checks if c.get("passed") is not True)
    metrics["trace.overhead_s"] = (sum(r.wall_s for r in traced)
                                   - sum(r.wall_s for r in untraced))
    absent += [name for name in wanted if name not in metrics]
    return metrics, {"absent": absent}


def _checks(out):
    try:
        return json.loads(out).get("checks", [])
    except ValueError:
        return []


def provenance():
    src_lines = 0
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                src_lines += data.count(b"\n")
                digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines,
        "python": platform.python_version(),
    }


def _git_commit():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not os.path.isdir(os.path.join(SRC, "loopzip")):
        raise Fatal(f"no loopzip sources under {SRC}")
    # The children run on the one CPU where this process gauges its speed
    # (see run_child); two CPUs of a shared host see different neighbours.
    nproc = len(os.sched_getaffinity(0))
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    signal.signal(signal.SIGALRM, _on_alarm)
    # On termination, unwind so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(args.workload, args.seed, tmp, deadline)
        if args.trace:
            values, info = per_layer(runner, [m["name"] for m in wanted], tmp)
        else:
            setup = measure_setup(tmp, deadline)
            values, info = end_to_end(runner, args.seconds, setup, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    meta = dict(provenance(), nproc=nproc, cpu=cpu, workload=args.workload, seed=args.seed, trace=args.trace,
                fail_ratio=runner.failed / runner.attempted, **info)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
