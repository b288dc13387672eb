"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion alongside its runtime budget.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from reference_values import GOLDEN_BOUNDS, log10_close, mp_normal_cdf
from telecert import cli, simulator
from telecert import linalg
from telecert.discrimination import error_probability, helstrom_povm
from telecert.ensembles import helstrom_pair
from telecert.scenarios import builtin_scenarios
from telecert.simulator import SimConfig, exact_exceedance, lln_sweep, run_experiment
from telecert.stats import (
    HypothesisConfig,
    classical_fidelity,
    mu_of,
    scenario_bound_report,
    t_of,
    type_one_error,
    type_two_error,
)


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit_seconds:
        print(
            f"ACCEPTANCE criterion {number} ({description}): FAIL "
            f"(runtime {elapsed:.2f}s exceeds {limit_seconds}s)"
        )
        raise AssertionError(
            f"criterion {number} runtime {elapsed:.2f}s exceeds limit {limit_seconds}s"
        )
    print(
        f"ACCEPTANCE criterion {number} ({description}): PASS "
        f"[{elapsed:.2f}s < {limit_seconds}s]"
    )


def scenario_fidelities():
    out = {}
    for name, scenario in builtin_scenarios().items():
        out[name] = classical_fidelity(scenario.ensemble, scenario.povm)
    return out


def test_criterion_1_classical_fidelities():
    with criterion(1, "classical fidelities", 1.0):
        f = scenario_fidelities()
        assert abs(f["trine"] - 0.75) <= 1e-9
        assert abs(f["qubit-mubs"] - 2.0 / 3.0) <= 1e-9
        assert abs(f["qutrit-mubs"] - 0.5) <= 1e-9
        assert abs(f["four-asymmetric"] - 0.777) <= 5e-4
        assert abs(f["helstrom"] - 0.9268) <= 5e-5


def test_criterion_2_mu_and_t_algebra():
    with criterion(2, "mu and t algebra", 1.0):
        f = scenario_fidelities()
        # per-variable means implied by the fidelities
        assert abs(mu_of(f["trine"], 3) - (-1.0 / 8.0)) <= 1e-9
        assert abs(mu_of(f["four-asymmetric"], 4) - (-0.0743)) <= 5e-5
        assert abs(mu_of(f["qubit-mubs"], 6) - (-1.0 / 15.0)) <= 1e-9
        assert abs(mu_of(f["qutrit-mubs"], 12) - (-1.0 / 22.0)) <= 1e-9
        # offsets implied by the default target fidelities
        assert abs(t_of(0.865, f["trine"], 3) - 0.0575) <= 1e-9
        assert abs(t_of(0.875, f["four-asymmetric"], 4) - 0.0327) <= 5e-5
        assert abs(t_of(0.77, f["qubit-mubs"], 6) - 0.0207) <= 5e-5
        assert abs(t_of(0.751, f["qutrit-mubs"], 12) - 0.0228) <= 5e-5
        assert abs(t_of(0.98, f["helstrom"], 2) - 0.0532) <= 5e-5


def test_criterion_3_bound_tables():
    with criterion(3, "exceedance bound tables", 1.0):
        scenarios = builtin_scenarios()
        checked = 0
        for (name, target), rows in GOLDEN_BOUNDS.items():
            scenario = scenarios[name]
            for n_runs, golden in rows:
                report = scenario_bound_report(scenario, n_runs, target)
                assert log10_close(report.log10_bound, golden), (
                    f"{name} target={target} N={n_runs}: "
                    f"log10 {report.log10_bound} vs {math.log10(golden)}"
                )
                checked += 1
        assert checked == 18


def test_criterion_4_oracle_soundness():
    with criterion(4, "exact exceedance never beats the bound", 30.0):
        for scenario in builtin_scenarios().values():
            a = scenario.ensemble.size
            for n_runs in range(a, 10 * a + 1, a):
                exact = exact_exceedance(
                    scenario, n_runs, scenario.target_fidelity
                )
                report = scenario_bound_report(scenario, n_runs)
                bound = 10.0**report.log10_bound
                assert exact <= bound + 1e-15, (
                    f"{scenario.name} N={n_runs}: exact {exact} "
                    f"exceeds bound {bound}"
                )


def test_criterion_5_monte_carlo_consistency():
    with criterion(5, "Monte Carlo matches the exact oracle", 60.0):
        scenario = builtin_scenarios()["trine"]
        n_trials = 1_000_000
        for n_runs in (12, 24):
            exact = exact_exceedance(scenario, n_runs, 0.865)
            cfg = SimConfig(
                scenario=scenario, n_runs=n_runs, n_trials=n_trials, seed=2024
            )
            report = run_experiment(cfg, threshold=0.865, workers=2)
            se_freq = math.sqrt(exact * (1.0 - exact) / n_trials)
            assert abs(report.exceedance_frequency - exact) <= 4.0 * se_freq, (
                f"N={n_runs}: frequency {report.exceedance_frequency} vs "
                f"exact {exact} (se {se_freq})"
            )
            dist = simulator.pass_count_distribution(scenario, n_runs)
            grid = np.arange(n_runs + 1) / n_runs
            mean = float(grid @ dist)
            var = float((grid - mean) ** 2 @ dist)
            se_mean = math.sqrt(var / n_trials)
            assert abs(report.mean_fidelity - 0.75) <= 4.0 * se_mean


def test_criterion_6_lln_convergence():
    with criterion(6, "fidelity deviations shrink like 1/sqrt(N)", 300.0):
        scenario = builtin_scenarios()["trine"]
        ladder = [60, 129, 279, 600, 1293, 2787, 6000]  # two decades
        rows = lln_sweep(scenario, ladder, n_trials=100_000, seed=11, workers=2)
        slope = simulator.rms_loglog_slope(rows)
        assert -0.6 <= slope <= -0.4, f"fitted slope {slope}"


def test_criterion_7_povm_validity():
    with criterion(7, "POVM validity and two-state optimum", 1.0):
        for scenario in builtin_scenarios().values():
            elements = scenario.povm.elements
            for element in elements:
                w, _ = linalg.eigh(element)
                assert w[0] >= -1e-10
            identity_gap = np.max(
                np.abs(elements.sum(axis=0) - np.eye(scenario.ensemble.dim))
            )
            assert identity_gap <= 1e-10
        for theta in np.linspace(math.pi / 100.0, math.pi, 100):
            err = error_probability(helstrom_pair(theta), helstrom_povm(theta))
            assert abs(err - 0.5 * (1.0 - math.sin(theta / 2.0))) <= 1e-12


def test_criterion_8_hypothesis_testing():
    with criterion(8, "normal-model error rates", 10.0):
        alphas, betas = [], []
        for n_runs in (25, 50, 100, 200):
            cfg = HypothesisConfig(
                f_qm=0.865, f_cla=0.75, f_crit=0.8075, sigma=0.3, n_runs=n_runs
            )
            alpha = type_one_error(cfg)
            beta = type_two_error(cfg)
            assert abs(alpha - beta) <= 1e-12
            alphas.append(alpha)
            betas.append(beta)
        assert all(a2 < a1 for a1, a2 in zip(alphas, alphas[1:]))
        assert all(b2 < b1 for b1, b2 in zip(betas, betas[1:]))
        z = (0.8075 - 0.865) * math.sqrt(100.0) / 0.3
        assert abs(alphas[2] - mp_normal_cdf(z)) <= 1e-6
        assert alphas[2] == pytest.approx(0.02762, abs=1e-4)


def test_criterion_9_determinism(tmp_path, capsys):
    with criterion(9, "seeded runs are byte-identical", 30.0):
        argv = [
            "simulate",
            "--scenario",
            "trine",
            "--n",
            "120",
            "--trials",
            "30000",
            "--seed",
            "321",
            "--format",
            "records",
        ]
        paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
        streams = []
        for extra, path in zip(([], [], ["--workers", "6"]), paths):
            assert cli.main(argv + extra + ["--out", str(path)]) == 0
            streams.append(capsys.readouterr())
        # --workers changes neither stdout nor the document, and says so once on stderr
        assert streams[0] == streams[1] == (streams[2].out, "")
        assert streams[2].err == "note: --workers has no effect; sampling runs on one thread\n"
        stripped = []
        for path in paths:
            doc = json.loads(path.read_text())
            doc["manifest"].pop("timestamp")
            stripped.append(json.dumps(doc, sort_keys=True))
        assert stripped[0] == stripped[1] == stripped[2]
