"""The four benchmark workloads, each a seeded stream of rounds of ops.

A workload turns ``(seed, round index)`` into a list of ops.  An op is one
call into telecert: an in-process CLI request through ``telecert.cli.main``
or a call into the public library API.  Each op carries a check that
returns ``None`` when the output is correct and a message otherwise.

Every call goes through a module attribute (``simulator.lln_sweep``, never
a name bound at import), so the traced run sees the calls it wraps.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import telecert
from telecert import scenarios, simulator, stats

#: Classical fidelities of the built-in scenarios (acceptance criterion 1),
#: with the tolerance the acceptance suite allows for each.
CRITERION_1 = {
    "trine": (0.75, 1e-9),
    "four-asymmetric": (0.777, 5e-4),
    "qubit-mubs": (2.0 / 3.0, 1e-9),
    "qutrit-mubs": (0.5, 1e-9),
    "helstrom": (0.9268, 5e-5),
}

#: The golden (scenario, target) pairs of the published bound tables.
GOLDEN_TARGETS = [
    ("trine", 0.865),
    ("trine", 1.0 - 1e-5),
    ("four-asymmetric", 0.875),
    ("qubit-mubs", 0.77),
    ("qutrit-mubs", 0.751),
    ("helstrom", 0.98),
]


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def _builtin_facts() -> dict:
    """name -> (ensemble size a, classical fidelity) of the built-in scenarios."""
    return {
        name: (sc.ensemble.size, stats.classical_fidelity(sc.ensemble, sc.povm))
        for name, sc in scenarios.builtin_scenarios().items()
    }


def _rng(seed: int, index: int) -> random.Random:
    # Python's Mersenne Twister with an integer seed is stable across
    # versions, unlike numpy Generator streams.
    return random.Random(seed * 1_000_003 + index)


def _multiple(n: float, a: int) -> int:
    return max(a, a * math.ceil(n / a))


def _threshold(rng: random.Random, n: int, f: float) -> float:
    """A threshold in (f, 1) whose pass-count cut lies 0-1 sd above the mean.

    The threshold sits strictly inside ((s-1)/n, s/n] for the cut s, so the
    Monte Carlo's ``>=`` and the oracle's ceiling agree on s.
    """
    spread = math.sqrt(n * f * (1.0 - f))
    floor_cut = math.floor(n * f + 1e-6) + 1
    cut = min(n, max(floor_cut, math.ceil(n * f + rng.uniform(0.0, 1.0) * spread)))
    lo = max((cut - 1) / n, f + 1e-9)
    return (lo + cut / n) / 2.0


def _binomial_tail(n: int, p: float, cut: int) -> float:
    """P(Binomial(n, p) >= cut), summed in log space."""
    if cut <= 0:
        return 1.0
    if cut > n:
        return 0.0
    lp, lq = math.log(p), math.log1p(-p)
    logs = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * lp + (n - k) * lq
        for k in range(cut, n + 1)
    ]
    top = max(logs)
    return math.exp(top) * sum(math.exp(x - top) for x in logs)


def _exceedance_error(freq: float, exact: float, trials: int) -> "str | None":
    se = math.sqrt(exact * (1.0 - exact) / trials)
    if abs(freq - exact) > 5.0 * se:
        return f"exceedance frequency {freq} is more than 5 se ({se:.3g}) from exact {exact}"
    return None


def _random_ensemble_doc(rng: random.Random, a: int, d: int, uniform: bool) -> dict:
    states = []
    for _ in range(a):
        amps = [(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(d)]
        norm = math.sqrt(sum(re * re + im * im for re, im in amps))
        states.append([[re / norm, im / norm] for re, im in amps])
    doc = {"dim": d, "states": states, "name": f"bench-a{a}-d{d}"}
    if not uniform:
        weights = [rng.uniform(0.5, 2.0) for _ in range(a)]
        total = sum(weights)
        doc["priors"] = [w / total for w in weights]
    return doc


def _bound_rows_error(ns, log10_bounds) -> "str | None":
    """Bound rows must be finite, <= 0 and strictly decreasing in N."""
    pairs = sorted(zip(ns, log10_bounds))
    for n, value in pairs:
        if not math.isfinite(value) or value > 0.0:
            return f"log10 bound {value!r} at N={n} is not finite and <= 0"
    for (n1, v1), (n2, v2) in zip(pairs, pairs[1:]):
        if not v2 < v1:
            return f"log10 bound does not decrease from N={n1} ({v1}) to N={n2} ({v2})"
    return None


class Workload:
    """Seeded op generator; ``prepare`` is the construction timed as set-up."""

    name = ""
    workers = 1
    #: Rounds per second of ``--seconds`` in a traced run, sized so each of
    #: its two passes takes about a third of the run at this commit.
    trace_rounds_per_s = 1.0
    #: Rounds replayed in every pass of an untraced run: enough to hold the
    #: workload's whole size mix, and 100 ops or more where a pass still
    #: takes under about 1.5 s at this commit.
    rounds_per_pass = 1
    #: Ops whose exact tail exceeded the bound only below float64's normal
    #: range; see ExactOracle.
    unsound = 0

    def __init__(self, seed: int, smoke: bool = False, workdir: "Path | None" = None):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def prepare(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> list:
        raise NotImplementedError

    def finish(self) -> list:
        """Checks that span the whole run; returns failure messages."""
        return []

    def _cli(self, argv: list) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _load_cli(self) -> None:
        self.cli = importlib.import_module("telecert.cli")


class LlnLadder(Workload):
    """``lln_sweep`` on trine over the criterion-6 ladder; op = one ladder point."""

    name = "lln-ladder"
    workers = 2
    trace_rounds_per_s = 0.3
    #: Trials per ladder point.  The sampler splits a point into blocks of
    #: at most 4e6 uniforms and 32768 trials, and the thread pool shares out
    #: whole blocks.  At the CLI default of 1e5 trials every point spans 4
    #: to 301 blocks; here every point spans 2 (4 at N = 2787, 6 at
    #: N = 6000), so both workers sample on every point.
    TRIALS = {60: 65_536, 129: 31_006, 279: 14_336, 600: 6_666, 1293: 3_092, 2787: 2_868, 6000: 1_998}

    def prepare(self) -> None:
        self.scenario = scenarios.builtin_scenarios()["trine"]
        ladder = [60, 129, 279, 600] if self.smoke else list(self.TRIALS)
        self.trials = {n: 200 if self.smoke else self.TRIALS[n] for n in ladder}
        self.ladder = ladder

    def round(self, r: int) -> list:
        sim_seed = _rng(self.seed, r).getrandbits(63)
        rows = []
        ops = []
        for n in self.ladder:
            ops.append(Op(f"N={n}", self._runner(n, sim_seed), self._checker(rows, n == self.ladder[-1])))
        return ops

    def _runner(self, n: int, sim_seed: int):
        return lambda: simulator.lln_sweep(self.scenario, [n], self.trials[n], sim_seed, workers=self.workers)

    def _checker(self, rows: list, last: bool):
        def check(result):
            (row,) = result
            rows.append(row)
            se = row.rms_deviation / math.sqrt(self.trials[row.n_runs])
            if abs(row.mean_fidelity - 0.75) > 5.0 * se:
                return f"N={row.n_runs}: mean {row.mean_fidelity} is more than 5 se ({se:.3g}) from 0.75"
            if last:
                slope = simulator.rms_loglog_slope(rows)
                if not -0.6 <= slope <= -0.4:
                    return f"fitted rms slope {slope} is outside [-0.6, -0.4]"
            return None

        return check


class SimulateRequests(Workload):
    """``simulate`` CLI requests plus multinomial library runs; op = one request."""

    name = "simulate-requests"
    trace_rounds_per_s = 0.8
    #: Every scenario meets all five N levels, each custom ensemble both.
    rounds_per_pass = 5
    SCENARIOS = ["trine", "four-asymmetric", "qubit-mubs", "qutrit-mubs", "helstrom"]
    #: N levels, rounded up to a multiple of a; each round gives every
    #: scenario a different level, so every round holds the same N mix.
    LEVELS = [1, 30, 120, 300, 600]
    #: (a, d, N level) of the multinomial ensembles; the two swap N levels
    #: every round.
    CUSTOM = [(3, 2, 60), (4, 3, 300)]

    def prepare(self) -> None:
        self._load_cli()
        self.facts = _builtin_facts()
        rng = _rng(self.seed, -1)
        self.custom = []
        for a, d, _ in self.CUSTOM:
            text = json.dumps(_random_ensemble_doc(rng, a, d, uniform=False))
            ens = telecert.ensembles.load_ensemble(text)
            sc = scenarios.custom_scenario(ens, 1.0)
            self.custom.append((sc, stats.classical_fidelity(sc.ensemble, sc.povm)))
        self.trials = 300 if self.smoke else 3000
        self.levels = [1, 30, 60] if self.smoke else self.LEVELS
        self.first_request = None

    def round(self, r: int) -> list:
        rng = _rng(self.seed, r)
        ops = []
        for i, name in enumerate(self.SCENARIOS):
            a, f = self.facts[name]
            n = _multiple(self.levels[(r + i) % len(self.levels)], a)
            threshold = _threshold(rng, n, f)
            path = self.workdir / f"simulate-{i}.json"
            argv = [
                "simulate", "--scenario", name, "--n", str(n), "--trials", str(self.trials),
                "--threshold", repr(threshold), "--seed", str(rng.getrandbits(63)),
                "--format", "records", "--out", str(path),
            ]
            ops.append(Op(f"cli simulate {name}", self._request(argv), self._request_check(argv, path, n)))
        for j, (sc, f) in enumerate(self.custom):
            level = self.CUSTOM[(j + r) % len(self.CUSTOM)][2]
            n = _multiple(level // 5 if self.smoke else level, sc.ensemble.size)
            threshold = _threshold(rng, n, f)
            cfg = simulator.SimConfig(
                scenario=sc, n_runs=n, n_trials=self.trials,
                seed=rng.getrandbits(63), multinomial_preparation=True,
            )
            ops.append(Op(f"multinomial a={sc.ensemble.size}", self._experiment(cfg, threshold), self._experiment_check(cfg, f, threshold)))
        return ops

    def _request(self, argv):
        return lambda: self._cli(argv)[0]

    def _request_check(self, argv, path: Path, n: int):
        def check(code):
            if code != 0:
                return f"exit code {code}"
            text = path.read_text(encoding="utf-8")
            if self.first_request is None:
                self.first_request = (argv, path, text)
            doc = json.loads(text)
            report = doc["report"]
            error = _tally_error(
                report["prepared_counts"], report["outcome_counts"], report["pass_counts"], n * report["n_trials"]
            )
            if error:
                return error
            exact = doc["exact_exceedance"]
            error = _exceedance_error(report["exceedance_frequency"], exact, report["n_trials"])
            if error:
                return error
            if doc["bound"] is None:
                return f"no bound: {doc['bound_note']}"
            if exact > 0.0 and math.log10(exact) > doc["bound"]["log10_bound"] + 1e-9:
                return f"exact {exact} exceeds the bound 10^{doc['bound']['log10_bound']}"
            return None

        return check

    def _experiment(self, cfg, threshold):
        return lambda: simulator.run_experiment(cfg, threshold)

    def _experiment_check(self, cfg, f: float, threshold: float):
        def check(report):
            error = _tally_error(
                report.prepared_counts.tolist(), report.outcome_counts.tolist(),
                report.pass_counts.tolist(), cfg.n_runs * cfg.n_trials,
            )
            if error:
                return error
            # Each multinomial run passes independently with probability f.
            cut = math.ceil(threshold * cfg.n_runs - 1e-9)
            exact = _binomial_tail(cfg.n_runs, f, cut)
            return _exceedance_error(report.exceedance_frequency, exact, cfg.n_trials)

        return check

    def finish(self) -> list:
        if self.first_request is None:
            return ["no request completed, so none could be replayed"]
        argv, path, text = self.first_request
        replay = path.with_name("replay.json")
        code, _, _ = self._cli(argv[:-1] + [str(replay)])
        if code != 0:
            return [f"replay exited with {code}"]
        strip = re.compile(r'"timestamp": "[^"]*"')
        if strip.sub("", replay.read_text(encoding="utf-8")) != strip.sub("", text):
            return ["replayed first request is not byte-identical"]
        return []


def _tally_error(prepared, outcomes, passes, total: int) -> "str | None":
    if sum(prepared) != total:
        return f"prepared counts sum to {sum(prepared)}, expected {total}"
    for i, row in enumerate(outcomes):
        if sum(row) != prepared[i]:
            return f"outcome counts of state {i} do not sum to its prepared count"
        if any(p > o or p < 0 for p, o in zip(passes[i], row)):
            return f"pass counts of state {i} exceed its outcome counts"
    return None


class CertifyQueries(Workload):
    """``bounds``/``scenarios``/``hypothesis``/``ensemble validate`` requests and
    custom-ensemble scans; op = one request or one ensemble."""

    name = "certify-queries"
    trace_rounds_per_s = 10.0
    #: Two cycles of SHAPES: 192 ops.
    rounds_per_pass = 24
    #: (a, d) of the scanned custom ensembles, three per round.
    SHAPES = [(2, 2), (3, 2), (12, 4), (4, 3), (9, 2), (6, 4), (2, 4), (5, 3), (12, 3), (8, 3), (3, 4), (7, 2)]
    VALIDATE_FILES = 4

    def prepare(self) -> None:
        self._load_cli()
        self.facts = _builtin_facts()

    def round(self, r: int) -> list:
        rng = _rng(self.seed, r)
        ops = [Op("cli scenarios", self._request(["scenarios", "--format", "records"]), _check_scenarios)]

        name, target = GOLDEN_TARGETS[r % len(GOLDEN_TARGETS)]
        ops.append(self._bounds_op(rng, name, target))
        name = rng.choice(list(self.facts))
        _, f = self.facts[name]
        ops.append(self._bounds_op(rng, name, f + rng.uniform(0.05, 0.95) * (1.0 - f)))

        f_cla = rng.uniform(0.5, 0.8)
        f_qm = f_cla + rng.uniform(0.05, 0.15)
        ns = sorted(rng.sample(range(5, 400), 4))
        argv = [
            "hypothesis", "--f-qm", repr(f_qm), "--f-cla", repr(f_cla),
            "--f-crit", repr((f_cla + f_qm) / 2.0), "--sigma", repr(rng.uniform(0.2, 0.5)),
            "--n", ",".join(map(str, ns)), "--format", "records",
        ]
        ops.append(Op("cli hypothesis", self._request(argv), _check_hypothesis))

        a, d = self.SHAPES[r % len(self.SHAPES)]
        path = self.workdir / f"ensemble-{r % self.VALIDATE_FILES}.json"
        path.write_text(json.dumps(_random_ensemble_doc(rng, a, d, uniform=bool(r % 2))), encoding="utf-8")
        ops.append(Op("cli ensemble validate", self._request(["ensemble", "validate", str(path), "--format", "records"]), _validate_checker(a, d)))

        for k in range(3):
            a, d = self.SHAPES[(3 * r + k) % len(self.SHAPES)]
            text = json.dumps(_random_ensemble_doc(rng, a, d, uniform=True))
            ns = sorted(rng.sample(range(10, 5000), 5))
            ops.append(Op(f"scan a={a} d={d}", self._scan(text, rng.uniform(0.1, 0.9), ns), _check_scan))
        return ops

    def _bounds_op(self, rng, name: str, target: float) -> Op:
        ns = sorted(rng.sample(range(10, 10_000), 5))
        argv = ["bounds", "--scenario", name, "--target", repr(target), "--n", ",".join(map(str, ns)), "--format", "records"]
        return Op("cli bounds", self._request(argv), _check_bounds)

    def _request(self, argv):
        return lambda: self._cli(argv)

    def _scan(self, text: str, u: float, ns: list):
        def run():
            ens = telecert.ensembles.load_ensemble(text)
            sc = scenarios.custom_scenario(ens, 1.0)
            f = stats.classical_fidelity(sc.ensemble, sc.povm)
            target = f + u * (1.0 - f)
            return f, ns, [stats.scenario_bound_report(sc, n, target).log10_bound for n in ns]

        return run


def _records(result) -> "tuple[dict | None, str | None]":
    code, out, err = result
    if code != 0:
        return None, f"exit code {code}: {err.strip()}"
    return json.loads(out), None


def _check_scenarios(result):
    doc, error = _records(result)
    if error:
        return error
    seen = {row["name"]: row["f_th_cla"] for row in doc["rows"]}
    for name, (value, tol) in CRITERION_1.items():
        if name not in seen or abs(seen[name] - value) > tol:
            return f"{name}: classical fidelity {seen.get(name)!r} is not {value} within {tol}"
    return None


def _check_bounds(result):
    doc, error = _records(result)
    if error:
        return error
    rows = doc["rows"]
    return _bound_rows_error([r["n_runs"] for r in rows], [r["log10_bound"] for r in rows])


def _check_hypothesis(result):
    doc, error = _records(result)
    if error:
        return error
    rows = doc["rows"]
    for key in ("alpha", "beta"):
        values = [r[key] for r in rows]
        if not all(0.0 <= v <= 1.0 for v in values):
            return f"{key} outside [0, 1]: {values}"
        if any(v2 > v1 for v1, v2 in zip(values, values[1:])):
            return f"{key} grows with N: {values}"
    return None


def _validate_checker(a: int, d: int):
    def check(result):
        doc, error = _records(result)
        if error:
            return error
        if not doc["valid"] or doc["a"] != a or doc["d"] != d:
            return f"validate reported a={doc['a']} d={doc['d']}, expected a={a} d={d}"
        return None

    return check


def _check_scan(result):
    f, ns, log10_bounds = result
    if not 0.0 < f <= 1.0 + 1e-9:
        return f"classical fidelity {f!r} outside (0, 1]"
    return _bound_rows_error(ns, log10_bounds)


class ExactOracle(Workload):
    """``exact_exceedance`` + ``scenario_bound_report``; op = one (scenario, N, target)."""

    name = "exact-oracle"
    trace_rounds_per_s = 0.4
    #: 21 points per scenario, 105 ops per round.  The five ladders then
    #: interleave densely, so the median and the 90th percentile of the
    #: latencies slide with the machine's speed instead of jumping from one
    #: ladder point to the next.
    POINTS = 21
    TOP = 4400

    def prepare(self) -> None:
        self.scenarios = scenarios.builtin_scenarios()
        self.f_cla = {name: stats.classical_fidelity(sc.ensemble, sc.povm) for name, sc in self.scenarios.items()}
        top = 300 if self.smoke else self.TOP
        self.ladders = {}
        for name, sc in self.scenarios.items():
            a = sc.ensemble.size
            self.ladders[name] = [
                a * max(1, (round(a * (top / a) ** (j / (self.POINTS - 1))) // a)) for j in range(self.POINTS)
            ]

    def round(self, r: int) -> list:
        rng = _rng(self.seed, r)
        ops = []
        for name, sc in self.scenarios.items():
            f = self.f_cla[name]
            for n in self.ladders[name]:
                target = f + rng.uniform(0.02, 0.98) * (1.0 - f)
                ops.append(Op(f"{name} N={n}", self._evaluate(sc, n, target), self._checker(sc, n)))
        return ops

    @staticmethod
    def _evaluate(sc, n: int, target: float):
        def run():
            exact = simulator.exact_exceedance(sc, n, target)
            return exact, stats.scenario_bound_report(sc, n, target).log10_bound

        return run

    def _checker(self, sc, n: int):
        def check(result):
            exact, log10_bound = result
            if not 0.0 <= exact <= 1.0:
                return f"N={n}: exact {exact!r} outside [0, 1]"
            if exact > 0.0 and math.log10(exact) > log10_bound + 1e-9:
                # Below the normal range float64 keeps no relative precision:
                # the linear-space DP leaves subnormal residue where the true
                # tail underflows.  Every violation is counted and reported;
                # the op fails where exact carries relative precision.
                self.unsound += 1
                if exact >= sys.float_info.min:
                    return f"{sc.name} N={n}: log10 exact {math.log10(exact)} exceeds log10 bound {log10_bound}"
            total = float(simulator.pass_count_distribution(sc, n).sum())
            if abs(total - 1.0) > 1e-9:
                return f"{sc.name} N={n}: pass-count distribution sums to {total!r}"
            return None

        return check


WORKLOADS = {w.name: w for w in (LlnLadder, SimulateRequests, CertifyQueries, ExactOracle)}


def make(name: str, seed: int, smoke: bool = False, workdir: "Path | None" = None) -> Workload:
    return WORKLOADS[name](seed, smoke=smoke, workdir=workdir)
