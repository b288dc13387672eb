"""Benchmark runner for telecert: one workload, one seed, one run.

    python3 perfbench/run.py --workload lln-ladder --seed 1 --seconds 25 --trace 0

Run from the repository root.  telecert is imported from ``src/`` of the
checkout the script lives in; nothing is installed.  With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it reports the
per-layer metrics of a traced pass.  Every metric is printed on its own
line with its unit and sample count, then the environment fingerprint,
then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--smoke`` shrinks every workload to tiny sizes (see smoke.py).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 11


def _import_library():
    if not (SRC / "telecert" / "__init__.py").is_file():
        sys.exit(f"error: telecert sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import telecert

    if Path(telecert.__file__).resolve().parent != SRC / "telecert":
        sys.exit(f"error: imported telecert from {telecert.__file__}, not from {SRC}")
    return telecert


def fingerprint(telecert, workload) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "telecert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit, dirty = None, None
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"], capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "git_dirty": dirty,
        "source_sha256": digest.hexdigest(),
        "bit_generator": type(telecert.simulator.stream(0).bit_generator).__name__,
        "telecert": telecert.__version__,
        "workload": workload.name,
        "workers": workload.workers,
        "seed": workload.seed,
    }


def setup_probe(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its first op is ready."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), name, str(seed)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    # CLOCK_MONOTONIC is system wide, so the child's reading compares.
    return float(proc.stdout.strip().splitlines()[-1]) - start


class Tally:
    """Latencies and failures of the ops of one pass."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def add_outcomes(self, other: "Tally") -> None:
        """Count another pass's attempts and failures in this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures[: 10 - len(self.failures)]


def run_op(op, tally: Tally, timed: bool, tracer=None) -> None:
    tally.attempted += 1
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception:  # an op that raises is counted as failed; the run goes on
        if tracer is not None:
            tracer.active = False
            tracer.end_op()
        tally.fail(f"{op.kind} raised:\n{traceback.format_exc(limit=3)}")
        return
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
        tracer.end_op()
    if timed:
        tally.latencies.append(elapsed)
    try:
        error = op.check(result)
    except Exception:
        error = f"check raised:\n{traceback.format_exc(limit=3)}"
    if error:
        tally.fail(f"{op.kind}: {error}")


def run_rounds(workload, rounds, tally: Tally, timed=True, tracer=None) -> None:
    for r in rounds:
        for op in workload.round(r):
            run_op(op, tally, timed, tracer=tracer)


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, args, tally: Tally) -> dict:
    """End-to-end metrics: the median of repeated passes over the same rounds.

    A pass runs rounds 1..``workload.rounds_per_pass``, the same seeded
    inputs every time, as a closed loop; passes repeat until --seconds have
    gone.  Each op's latency is its median over the passes, and the timing
    metrics come from those per-op medians.  On a virtual machine shared
    with other tenants, speed moves by a quarter or more within minutes, in
    process CPU time as much as in wall time, and single ops stall now and
    then.  Per-op medians over identical repeats shed the stalls and the
    first pass's one-time costs, which the mean or the pooled percentiles of
    all ops keep.

    The set-up probes run between passes, spread over the run, so that they
    meet the machine's slow and fast spells alike; their time is not counted
    against --seconds.
    """
    probes = 2 if args.smoke else SETUP_PROBES
    setup = []
    rounds = range(1, 1 + workload.rounds_per_pass)
    passes = []
    start = time.monotonic()
    while True:
        if len(setup) < probes and time.monotonic() >= start + len(setup) * args.seconds / probes:
            probe_start = time.monotonic()
            setup.append(setup_probe(workload.name, args.seed))
            start += time.monotonic() - probe_start
        one = Tally()
        run_rounds(workload, rounds, one)
        tally.add_outcomes(one)
        passes.append(one.latencies)
        if time.monotonic() >= start + args.seconds:
            break
    while len(setup) < probes:
        setup.append(setup_probe(workload.name, args.seed))
    # An op that raised has no latency, so only whole passes line up.
    ops = max(map(len, passes))
    whole = [p for p in passes if len(p) == ops]
    lat = [statistics.median(repeats) for repeats in zip(*whole)]
    samples = f"{ops}x{len(whole)}"  # ops per pass x passes
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ops_per_s": (len(lat) / sum(lat), "1/s", samples),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms", samples),
        "op_p90_ms": (percentile(lat, 90) * 1e3, "ms", samples),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1),
    }


def speedup_w2(telecert, smoke: bool, seed: int) -> float:
    """Wall-time ratio of one trine N=6000 point at workers 1 and 2."""
    sc = telecert.builtin_scenarios()["trine"]
    n, trials, pairs = (600, 200, 1) if smoke else (6000, 3000, 3)
    times = {1: [], 2: []}
    for _ in range(pairs):
        for workers in (1, 2):
            start = time.perf_counter()
            telecert.simulator.lln_sweep(sc, [n], trials, seed, workers=workers)
            times[workers].append(time.perf_counter() - start)
    return statistics.median(times[1]) / statistics.median(times[2])


def measure_traced(telecert, workload, args, tally: Tally) -> dict:
    """Per-layer metrics: the same seeded rounds untraced, then traced."""
    from layers import Tracer, layer_metrics

    rounds = range(1, 1 + max(1, round(args.seconds * workload.trace_rounds_per_s)))
    run_rounds(workload, [0], tally, timed=False)  # warm-up
    plain = Tally()
    run_rounds(workload, rounds, plain)
    tracer = Tracer()
    unsound = workload.unsound
    tracer.install()
    try:
        run_rounds(workload, rounds, tally, tracer=tracer)
    finally:
        tracer.uninstall()
    tally.add_outcomes(plain)
    op_s = sum(tally.latencies)
    plain_rate = len(plain.latencies) / sum(plain.latencies)
    traced_rate = len(tally.latencies) / op_s
    # Only the workload that runs the thread pool measures what it gains.
    speedup = speedup_w2(telecert, args.smoke, args.seed) if workload.workers > 1 else 0.0
    metrics = layer_metrics(
        tracer, op_s, (plain_rate - traced_rate) / plain_rate, speedup, workload.unsound - unsound,
    )
    return {name: (value, unit, len(tally.latencies)) for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for smoke.py")
    args = parser.parse_args(argv)

    telecert = _import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-work"))
    try:
        workload = workloads.make(args.workload, args.seed, smoke=args.smoke, workdir=workdir)
        workload.prepare()
        tally = Tally()
        if args.trace:
            metrics = measure_traced(telecert, workload, args, tally)
        else:
            metrics = measure(workload, args, tally)
        for message in workload.finish():
            tally.fail(message)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()

    from layers import COMPUTED

    for name, (value, unit, count) in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"{args.workload:18s} {name:28s} {value:>16.6g} {unit:6s} n={count}{label}")
    if not args.trace and workload.unsound:
        print(f"{args.workload:18s} {'exact_unsound':28s} {workload.unsound:>16d} count  (exact > bound below float64's normal range)")
    print(f"{args.workload:18s} {'failed_frac':28s} {tally.failed / max(1, tally.attempted):>16.6g} frac   n={tally.attempted}")
    for message in tally.failures:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({"fingerprint": fingerprint(telecert, workload)}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
