"""Per-layer tracing from outside the library.

The tracer replaces each traced public function of telecert with a wrapper
that records a span: its duration, minus the time of the traced calls made
inside it, is the function's self time, charged to its layer part.  A
wrapper replaces every module attribute bound to the original function,
because modules look names up where they bound them: ``simulator`` calls
its own ``born_matrix`` and ``classical_fidelity`` bindings, ``cli`` its own
``builtin_scenarios`` and ``load_ensemble``.

Spans are aggregated in memory.  Only calls on the tracing thread while the
tracer is active are recorded; the simulator's sampling threads call no
traced function.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from collections import defaultdict

import telecert

#: layer part -> (module, public functions).  Helpers such as
#: ``linalg.projector`` and ``reporting.fmt`` are left unwrapped: they are
#: called per element, and their time stays with the caller.
PARTS = {
    "cli": ("cli", ["main"]),
    "scenarios": ("scenarios", ["builtin_scenarios", "custom_scenario"]),
    "ensembles": (
        "ensembles",
        ["trine", "four_asymmetric", "qubit_mubs", "qutrit_mubs", "helstrom_pair", "load_ensemble", "to_document"],
    ),
    "discrimination.povm": ("discrimination", ["square_root_povm", "helstrom_povm"]),
    "discrimination.born": ("discrimination", ["born_matrix", "error_probability"]),
    "linalg.eigh": ("linalg", ["eigh"]),
    "linalg.inv_sqrt": ("linalg", ["inv_sqrt"]),
    "stats.fidelity": ("stats", ["classical_fidelity"]),
    "stats.bound": ("stats", ["scenario_bound_report", "bound_report"]),
    "stats.hypothesis": ("stats", ["type_one_error", "type_two_error"]),
    "simulator.sample": ("simulator", ["run_experiment", "lln_sweep", "run_trial"]),
    "simulator.exact": ("simulator", ["exact_exceedance", "pass_count_distribution"]),
    "reporting": (
        "reporting",
        ["make_manifest", "format_table", "format_pairs", "records_document", "csv_document", "table_document"],
    ),
}

class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.active = False
        self._stack = []
        self._thread = threading.get_ident()
        self._patched = []
        self._originals = {}
        self._built = []
        self._used = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "telecert" or name.startswith("telecert.")]
        for part, (module_name, functions) in PARTS.items():
            module = sys.modules.get(f"telecert.{module_name}")
            if module is None:  # cli and reporting load only with the CLI
                continue
            for fname in functions:
                original = getattr(module, fname)
                self._originals[fname] = original
                wrapper = self._wrap(original, part, getattr(self, f"_count_{fname}", None))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _wrap(self, original, part: str, counter):
        def wrapper(*args, **kwargs):
            if not self.active or threading.get_ident() != self._thread:
                return original(*args, **kwargs)
            self._mark_used(args)
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except telecert.BudgetExceededError:
                if original.__name__ == "pass_count_distribution":
                    self.counts["simulator.exact_refusals"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.self_s[part] += elapsed - frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if counter is not None:
                counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- scenario use ------------------------------------------------------

    def _mark_used(self, args) -> None:
        """Mark a built scenario used when it, its config or its ensemble is passed on."""
        for arg in args:
            ensemble = getattr(arg, "ensemble", None) or getattr(getattr(arg, "scenario", None), "ensemble", None) or arg
            for i, sc in enumerate(self._built):
                if sc.ensemble is ensemble:
                    self._used.add(i)

    def end_op(self) -> None:
        """Close the scenario-use window of one op."""
        self.counts["scenarios.used"] += len(self._used)
        self._built.clear()
        self._used.clear()

    # -- counters, keyed by the wrapped function's name ---------------------

    def _count_main(self, args, kwargs, result) -> None:
        self.counts["cli.requests"] += 1

    def _count_builtin_scenarios(self, args, kwargs, result) -> None:
        self._built.extend(result.values())
        self.counts["scenarios.built"] += len(result)

    def _count_custom_scenario(self, args, kwargs, result) -> None:
        self._built.append(result)
        self.counts["scenarios.built"] += 1

    def _count_ensemble(self, args, kwargs, result) -> None:
        self.counts["ensembles.loads"] += 1

    _count_trine = _count_four_asymmetric = _count_qubit_mubs = _count_ensemble
    _count_qutrit_mubs = _count_helstrom_pair = _count_load_ensemble = _count_ensemble

    def _count_povm(self, args, kwargs, result) -> None:
        self.counts["discrimination.povms"] += 1

    _count_square_root_povm = _count_helstrom_povm = _count_povm

    def _count_eigh(self, args, kwargs, result) -> None:
        self.counts["linalg.eigh_calls"] += 1

    def _count_bound_report(self, args, kwargs, result) -> None:
        self.counts["stats.bound_rows"] += 1

    def _count_document(self, args, kwargs, result) -> None:
        self.counts["reporting.doc_bytes"] += len(result.encode("utf-8"))

    _count_records_document = _count_csv_document = _count_table_document = _count_document

    def _add_sampling(self, n_runs: int, n_trials: int, stages: int) -> None:
        self.counts["simulator.trials"] += n_trials
        self.counts["simulator.sim_runs"] += n_runs * n_trials
        # Computed from the block layout, not measured: 8-byte uniforms.
        self.counts["simulator.uniform_bytes"] += n_runs * n_trials * stages * 8

    def _count_run_experiment(self, args, kwargs, result) -> None:
        cfg = _arguments(self._originals["run_experiment"], args, kwargs)["cfg"]
        self._add_sampling(cfg.n_runs, cfg.n_trials, 3 if cfg.multinomial_preparation else 2)

    def _count_lln_sweep(self, args, kwargs, result) -> None:
        bound = _arguments(self._originals["lln_sweep"], args, kwargs)
        for n in bound["n_values"]:
            self._add_sampling(int(n), bound["n_trials"], 2)

    def _count_run_trial(self, args, kwargs, result) -> None:
        self._add_sampling(_arguments(self._originals["run_trial"], args, kwargs)["n_runs"], 1, 2)

    def _count_pass_count_distribution(self, args, kwargs, result) -> None:
        n = _arguments(self._originals["pass_count_distribution"], args, kwargs)["n_runs"]
        self.counts["simulator.exact_calls"] += 1
        # Computed: the DP touches N + 1 cells for each of its N steps.
        self.counts["simulator.exact_dp_cells"] += n * (n + 1)


def _arguments(function, args, kwargs) -> dict:
    """Arguments of one call by parameter name."""
    bound = inspect.signature(function).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def layer_metrics(tracer: Tracer, op_s: float, overhead_frac: float, speedup_w2: float, exact_unsound: int) -> dict:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    s, c = tracer.self_s, tracer.counts
    runs = c["simulator.sim_runs"]
    built = c["scenarios.built"]
    return {
        "simulator.sample_s": (s["simulator.sample"], "s"),
        "simulator.ns_per_run": (s["simulator.sample"] * 1e9 / runs if runs else 0.0, "ns"),
        "simulator.sim_runs": (runs, "count"),
        "simulator.trials": (c["simulator.trials"], "count"),
        "simulator.uniform_bytes": (c["simulator.uniform_bytes"], "B"),
        "simulator.speedup_w2": (speedup_w2, "ratio"),
        "simulator.exact_s": (s["simulator.exact"], "s"),
        "simulator.exact_calls": (c["simulator.exact_calls"], "count"),
        "simulator.exact_dp_cells": (c["simulator.exact_dp_cells"], "cells"),
        "simulator.exact_refusals": (c["simulator.exact_refusals"], "count"),
        "simulator.exact_unsound": (exact_unsound, "count"),
        "scenarios.build_s": (s["scenarios"], "s"),
        "scenarios.built": (built, "count"),
        "scenarios.used_per_built": (c["scenarios.used"] / built if built else 0.0, "ratio"),
        "ensembles.load_s": (s["ensembles"], "s"),
        "ensembles.loads": (c["ensembles.loads"], "count"),
        "discrimination.povm_s": (s["discrimination.povm"], "s"),
        "discrimination.povms": (c["discrimination.povms"], "count"),
        "discrimination.born_s": (s["discrimination.born"], "s"),
        "linalg.eigh_s": (s["linalg.eigh"], "s"),
        "linalg.eigh_calls": (c["linalg.eigh_calls"], "count"),
        "linalg.inv_sqrt_s": (s["linalg.inv_sqrt"], "s"),
        "stats.fidelity_s": (s["stats.fidelity"], "s"),
        "stats.bound_s": (s["stats.bound"], "s"),
        "stats.bound_rows": (c["stats.bound_rows"], "count"),
        "stats.hypothesis_s": (s["stats.hypothesis"], "s"),
        "reporting.render_s": (s["reporting"], "s"),
        "reporting.doc_bytes": (c["reporting.doc_bytes"], "B"),
        "cli.self_s": (s["cli"], "s"),
        "cli.requests": (c["cli.requests"], "count"),
        "trace.op_s": (op_s, "s"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }


#: Metrics that are counts of work; a traced run of one seed repeats them exactly.
COUNTS = [
    "simulator.sim_runs", "simulator.trials", "simulator.uniform_bytes", "simulator.exact_calls",
    "simulator.exact_dp_cells", "simulator.exact_refusals", "simulator.exact_unsound", "scenarios.built", "scenarios.used_per_built",
    "ensembles.loads", "discrimination.povms", "linalg.eigh_calls", "stats.bound_rows",
    "reporting.doc_bytes", "cli.requests",
]

#: Counts derived from the inputs rather than observed in the library.
COMPUTED = ["simulator.uniform_bytes", "simulator.exact_dp_cells"]
