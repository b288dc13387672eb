"""Smoke run of the benchmark at tiny sizes, in about a minute.

    python3 perfbench/smoke.py

For every workload, certify-queries too, it runs ``run.py --smoke``
untraced and traced and asserts that the last line is the result object
with every metric that BENCHMARK.json names, in its unit, and that every
check passed.  The traced
run is made twice with one seed, and every count must repeat exactly.
Finally it asserts that the benchmark fails, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(Path(__file__).resolve().parent), str(ROOT / "src")]

from layers import COUNTS  # noqa: E402  (imports telecert)
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess, expected: dict) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected, f"metrics differ from BENCHMARK.json: {set(units) ^ set(expected)}"
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(COUNTS) <= set(per_layer)
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS:
        result_of(run(workload, 0), end_to_end)
        first = result_of(run(workload, 1), per_layer)["metrics"]
        second = result_of(run(workload, 1), per_layer)["metrics"]
        for name in COUNTS:
            assert first[name]["value"] == second[name]["value"], f"{workload} {name} does not repeat"
        print(f"smoke {workload}: ok")

    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):  # still in use by another run
            scratch.rmdir()
    print("smoke without sources: fails as it should")
    return 0


if __name__ == "__main__":
    sys.exit(main())
