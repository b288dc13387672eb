"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py                     # every workload, seed 1
    python3 perfbench/collect.py --workloads lln-ladder,exact-oracle \
        --seeds 1-10 --trace 0 --out runs.json
    python3 perfbench/collect.py --seeds 11-20 --against runs.json

Runs ``run.py`` once per (seed, workload), seed by seed so that slow spells
of the machine spread over all workloads.  For each workload and metric it
reports the median, the quartiles (``statistics.quantiles(n=4)``), the
quartile spread as a share of the median and the sample count, and for
end-to-end metrics whether that spread is below a third of the metric's
bound in BENCHMARK.json.  Every run lasts BENCHMARK.json's ``run_seconds``.
With ``--out`` the summary and every run's result are also written there as
JSON.  With ``--against`` an earlier ``--out`` file is read, and for every
end-to-end metric the median's change in the worse direction, as a share of
the earlier median, is set against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "n": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", help="comma-separated names (default: those in BENCHMARK.json)")
    parser.add_argument("--seeds", default="1", help="a seed or a range such as 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--against", help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    values = {w: {} for w in workloads}
    runs = []
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": w, "seed": seed, **result})
            print(f"seed {seed} {w}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}", flush=True)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])

    summary = {}
    for w in workloads:
        summary[w] = {}
        for name, entry in values[w].items():
            s = {"unit": entry["unit"], **summarise(entry["values"])}
            if name in bounds:
                s["steady"] = s["spread"] < bounds[name] / 3.0
            summary[w][name] = s
            flag = "" if "steady" not in s else ("  ok" if s["steady"] else f"  SPREAD > bound/3 = {bounds[name] / 3:.3f}")
            print(f"{w:18s} {name:28s} median {s['median']:12.6g} {s['unit']:6s} q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f} n={s['n']}{flag}")
    if args.against:
        before = json.loads(Path(args.against).read_text())["summary"]
        for w in workloads:
            for name, s in summary[w].items():
                if name not in bounds or name not in before.get(w, {}):
                    continue
                old = before[w][name]["median"]
                worse = (s["median"] - old) / abs(old)
                if better[name] == "higher":
                    worse = -worse
                flag = "ok" if worse <= bounds[name] else f"WORSE THAN BOUND {bounds[name]}"
                print(f"{w:18s} {name:28s} median {old:12.6g} -> {s['median']:12.6g} worse by {worse:+.4f}  {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({"trace": args.trace, "seconds": seconds, "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
