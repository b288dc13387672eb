import gc
import itertools
import math
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from telecert import ensembles, simulator, stats
from telecert.discrimination import Povm, pass_probabilities
from telecert.errors import BudgetExceededError, PreconditionError
from telecert.scenarios import builtin_scenarios, custom_scenario
from telecert.simulator import (
    SimConfig,
    exact_exceedance,
    lln_sweep,
    min_passes,
    pass_count_distribution,
    rms_loglog_slope,
    run_experiment,
    run_trial,
    stream,
)


def orthonormal_scenario():
    basis = ensembles.Ensemble(np.eye(2, dtype=complex), np.array([0.5, 0.5]))
    return custom_scenario(basis, target_fidelity=1.0, name="basis")


def per_run_recursion(scenario, n_runs):
    """Pass-count distribution built one Bernoulli run at a time."""
    q = pass_probabilities(scenario.ensemble, scenario.povm)
    dist = np.zeros(n_runs + 1)
    dist[0] = 1.0
    for qi in q.tolist():
        for _ in range(n_runs // q.size):
            dist[1:] = dist[1:] * (1.0 - qi) + dist[:-1] * qi
            dist[0] *= 1.0 - qi
    return dist


def two_stage_enumeration_oracle(scenario, n_runs, threshold):
    """Exhaustive oracle over (outcome, verify) branches of every run.

    Enumerates the full two-stage protocol, so it is independent of both
    the sampling kernel and the pass-count convolution.
    """
    ens = scenario.ensemble
    a = ens.size
    born = np.einsum(
        "id,kde,ie->ik", ens.states.conj(), scenario.povm.elements, ens.states
    ).real
    overlap = ens.overlap_matrix()
    np.fill_diagonal(overlap, 1.0)
    per_state = n_runs // a
    schedule = [i for i in range(a) for _ in range(per_state)]
    total = 0.0
    branches = [(k, passed) for k in range(a) for passed in (0, 1)]
    for combo in itertools.product(branches, repeat=n_runs):
        prob = 1.0
        passes = 0
        for state, (k, passed) in zip(schedule, combo):
            p_pass = overlap[state, k]
            prob *= born[state, k] * (p_pass if passed else 1.0 - p_pass)
            passes += passed
        if passes / n_runs >= threshold - 1e-12:
            total += prob
    return total


class TestConfigValidation:
    def test_divisibility_required(self):
        scenario = builtin_scenarios()["trine"]
        with pytest.raises(PreconditionError, match="multiple"):
            SimConfig(scenario=scenario, n_runs=100, n_trials=10, seed=0)

    def test_seed_range(self):
        # SimConfig and stream refuse a seed with one message
        scenario = builtin_scenarios()["trine"]
        for seed in (-1, 1 << 64):
            message = "^" + re.escape(f"seed must lie in [0, 2**64), got {seed}") + "$"
            with pytest.raises(ValueError, match=message):
                SimConfig(scenario=scenario, n_runs=12, n_trials=10, seed=seed)
            with pytest.raises(ValueError, match=message):
                stream(seed)

    def test_trial_count_range(self):
        scenario = builtin_scenarios()["trine"]
        for n_trials in (0, 1 << 63):
            with pytest.raises(ValueError, match="n_trials"):
                SimConfig(scenario=scenario, n_runs=12, n_trials=n_trials, seed=0)
        cfg = SimConfig(scenario=scenario, n_runs=12, n_trials=(1 << 63) - 1, seed=0)
        assert cfg.n_trials == (1 << 63) - 1

    @pytest.mark.parametrize(
        "call",
        [
            lambda scenario: SimConfig(scenario, 60.0, 10, 0),
            lambda scenario: exact_exceedance(scenario, 60.0, 0.8),
            lambda scenario: lln_sweep(scenario, [60, 60.9], 10, 0),
            lambda scenario: run_trial(scenario, 60.0, stream(0)),
            lambda scenario: pass_count_distribution(scenario, True),
            lambda scenario: min_passes(0.8, True),
        ],
        ids=["SimConfig", "exact_exceedance", "lln_sweep", "run_trial",
             "pass_count_distribution-bool", "min_passes-bool"],
    )
    def test_non_integral_run_count_is_refused_before_any_work(self, call, cold_products, monkeypatch):
        def untouched(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(simulator, "_binomial_table", untouched)
        monkeypatch.setattr(simulator, "_total_histogram", untouched)
        with pytest.raises(TypeError, match="integer"):
            call(builtin_scenarios()["trine"])
        assert cold_products.cache_info().currsize == 0

    @pytest.mark.parametrize("n_runs", [0, -3])
    @pytest.mark.parametrize(
        "call",
        [
            lambda scenario, n_runs: SimConfig(scenario, n_runs, 10, 0),
            lambda scenario, n_runs: run_trial(scenario, n_runs, stream(0)),
            lambda scenario, n_runs: pass_count_distribution(scenario, n_runs),
            lambda scenario, n_runs: exact_exceedance(scenario, n_runs, 0.8),
            lambda scenario, n_runs: lln_sweep(scenario, [60, n_runs], 10, 0),
            lambda scenario, n_runs: min_passes(0.8, n_runs),
            lambda scenario, n_runs: stats.bound_report(0.75, 0.865, 3, n_runs),
            lambda scenario, n_runs: stats.HypothesisConfig(0.9, 0.7, 0.8, 0.5, n_runs),
        ],
        ids=["SimConfig", "run_trial", "pass_count_distribution", "exact_exceedance", "lln_sweep",
             "min_passes", "bound_report", "HypothesisConfig"],
    )
    def test_nonpositive_run_count_is_one_value_error(self, call, n_runs, cold_products):
        with pytest.raises(ValueError, match=f"^n_runs must be positive, got {n_runs}$"):
            call(builtin_scenarios()["trine"], n_runs)
        assert cold_products.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "call",
        [
            lambda scenario: SimConfig(scenario, 60, 1000.0, 1),
            lambda scenario: SimConfig(scenario, 60, 1000, 1.5),
            lambda scenario: run_experiment(SimConfig(scenario, 60, 1000, 1.5), 0.8),
            lambda scenario: lln_sweep(scenario, [60], 1000.0, 1),
            lambda scenario: lln_sweep(scenario, [60], 1000, 2.7),
            lambda scenario: stream(1.5),
            lambda scenario: stream(1, 0.0),
            lambda scenario: stream(1, 0, 2.0),
            lambda scenario: SimConfig(scenario, 60, True, 1),
            lambda scenario: SimConfig(scenario, 60, 1000, False),
            lambda scenario: stream(True),
        ],
        ids=[
            "SimConfig-trials", "SimConfig-seed", "run_experiment-seed", "lln_sweep-trials",
            "lln_sweep-seed", "stream-seed", "stream-subkey", "stream-block",
            "SimConfig-trials-bool", "SimConfig-seed-bool", "stream-seed-bool",
        ],
    )
    def test_non_integral_trial_count_or_seed_is_refused_before_any_work(self, call, cold_products, monkeypatch):
        def untouched(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(simulator, "_binomial_table", untouched)
        monkeypatch.setattr(simulator, "_total_histogram", untouched)
        with pytest.raises(TypeError, match="integer"):
            call(builtin_scenarios()["trine"])
        assert cold_products.cache_info().currsize == 0

    def test_numpy_integer_counts_and_seed_are_stored_as_int(self):
        cfg = SimConfig(builtin_scenarios()["trine"], np.int64(60), np.int64(10), np.uint64(2**64 - 1))
        assert [type(v) for v in (cfg.n_runs, cfg.n_trials, cfg.seed)] == [int, int, int]
        assert cfg.seed == 2**64 - 1

    @pytest.mark.parametrize("flag", ["no", 1, 0, None])
    def test_non_bool_preparation_flag_is_refused_before_any_law(self, flag, cold_products, monkeypatch):
        # a truthy string or number would otherwise select multinomial preparation
        def untouched(*args):
            raise AssertionError("laws derived")

        monkeypatch.setattr(simulator, "_draw_laws", untouched)
        message = f"^multinomial_preparation must be a bool, not {type(flag).__name__}$"
        with pytest.raises(TypeError, match=message):
            SimConfig(builtin_scenarios()["trine"], 60, 10, 0, multinomial_preparation=flag)
        assert cold_products.cache_info().currsize == 0

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n_runs", [4470, 4473], ids=["in-budget", "past-budget"])
    def test_non_finite_threshold_is_refused_before_any_work(self, n_runs, threshold, cold_products):
        with pytest.raises(ValueError, match="threshold must be finite"):
            exact_exceedance(builtin_scenarios()["trine"], n_runs, threshold)
        assert cold_products.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "n_runs, error, message",
        [
            (60.0, TypeError, "cannot be interpreted as an integer"),
            (0, ValueError, "n_runs must be positive, got 0"),
            (4473, BudgetExceededError,
             "n_runs=4473 is above the exact oracle's limit of 4471 runs; use the Monte Carlo"),
        ],
        ids=["float", "zero", "past-budget"],
    )
    def test_a_bad_run_count_keeps_its_refusal_under_a_finite_threshold(self, n_runs, error, message):
        with pytest.raises(error, match=message):
            exact_exceedance(builtin_scenarios()["trine"], n_runs, 0.8)

    def test_non_uniform_priors_need_multinomial_mode(self):
        states = np.eye(2, dtype=complex)
        ens = ensembles.Ensemble(states, np.array([0.7, 0.3]))
        scenario = custom_scenario(ens, target_fidelity=1.0)
        with pytest.raises(PreconditionError, match="uniform priors"):
            SimConfig(scenario=scenario, n_runs=2, n_trials=10, seed=0)
        cfg = SimConfig(
            scenario=scenario,
            n_runs=2,
            n_trials=10,
            seed=0,
            multinomial_preparation=True,
        )
        assert cfg.n_trials == 10


#: The largest run count the simulator takes, 2**63 - 2.
RUN_LIMIT = simulator._MAX_RUNS


def refuse_streams(monkeypatch):
    """Fail on any stream, public or the library's own per-thread one."""

    def no_stream(*args, **kwargs):
        raise AssertionError("a stream was built")

    for entry in ("stream", "_thread_stream"):
        monkeypatch.setattr(simulator, entry, no_stream)


#: Each refusal of an N above the limit, by its class.
LIMIT_MESSAGES = {
    PreconditionError: f"^the limit is {RUN_LIMIT} runs; n_runs is too large to simulate$",
    BudgetExceededError: "^n_runs=[0-9]+ is above the exact oracle's limit of 4471 runs; use the Monte Carlo",
    ValueError: f"^n_runs must be at most {RUN_LIMIT}$",
}

#: Scenarios by name: a builder and the preparation mode.
LIMIT_SCENARIOS = {
    "trine": (lambda: builtin_scenarios()["trine"], False),
    "basis": (orthonormal_scenario, False),
    "basis-multinomial": (orthonormal_scenario, True),
}

#: Each simulator entry point by name: its refusal of an N above the limit,
#: and a call with (scenario, n_runs, multinomial).  Only ``SimConfig``
#: takes the preparation mode.
LIMIT_CALLS = {
    "run_experiment": (PreconditionError, lambda s, n, multi: run_experiment(SimConfig(s, n, 5, 0, multi), 0.9)),
    "run_trial": (PreconditionError, lambda s, n, multi: run_trial(s, n, np.random.default_rng(0))),
    "lln_sweep": (PreconditionError, lambda s, n, multi: lln_sweep(s, [6, n], 1, 0)),
    "pass_count_distribution": (BudgetExceededError, lambda s, n, multi: pass_count_distribution(s, n)),
    "exact_exceedance": (ValueError, lambda s, n, multi: exact_exceedance(s, n, 0.9)),
    "min_passes": (ValueError, lambda s, n, multi: min_passes(0.9, n)),
}


class TestRunCountLimit:
    """One limit on N, checked before any stream exists; no N overflows."""

    def test_the_limit_is_the_longest_range_bisect_can_search(self):
        assert RUN_LIMIT == 2**63 - 2 == sys.maxsize - 1
        assert min_passes(1.5, RUN_LIMIT) == RUN_LIMIT + 1
        # the cut is taken in float arithmetic, so s / N rounds to 1 below N
        s = min_passes(1.0, RUN_LIMIT)
        assert s < RUN_LIMIT and s / RUN_LIMIT == 1.0 > (s - 1) / RUN_LIMIT

    @pytest.mark.parametrize("n_runs", [RUN_LIMIT + 2, 2**63, 2**64, 3 * 10**400],
                             ids=["limit+2", "2**63", "2**64", "3e400"])
    @pytest.mark.parametrize(
        "call, scenario",
        [(call, scenario) for call in LIMIT_CALLS for scenario in LIMIT_SCENARIOS
         if call == "run_experiment" or scenario != "basis-multinomial"],
    )
    def test_run_counts_above_the_limit_are_refused_before_any_stream(
        self, call, scenario, n_runs, monkeypatch, cold_products
    ):
        error, entry = LIMIT_CALLS[call]
        build, multinomial = LIMIT_SCENARIOS[scenario]
        scenario = build()
        refuse_streams(monkeypatch)
        with pytest.raises(error, match=LIMIT_MESSAGES[error]):
            entry(scenario, n_runs, multinomial)
        assert cold_products.cache_info().currsize == 0

    @pytest.mark.parametrize("multinomial", [False, True], ids=["fixed", "multinomial"])
    def test_a_certain_scenario_runs_at_the_limit(self, multinomial):
        report = run_experiment(SimConfig(orthonormal_scenario(), RUN_LIMIT, 1, 7, multinomial), 0.9)
        assert (report.mean_fidelity, report.exceedance_count) == (1.0, 1)
        assert report.pass_count_offset == RUN_LIMIT
        assert report.pass_count_histogram.tolist() == [1]
        assert report.prepared_counts.tolist() == report.pass_counts.sum(axis=1).tolist()
        assert sum(report.prepared_counts.tolist()) == RUN_LIMIT

    def test_lln_sweep_runs_at_the_limit(self):
        (row,) = lln_sweep(orthonormal_scenario(), [RUN_LIMIT], 1, 7)
        assert (row.n_runs, row.mean_fidelity, row.rms_deviation) == (RUN_LIMIT, 1.0, 0.0)

    @pytest.mark.parametrize("multinomial", [False, True], ids=["fixed", "multinomial"])
    def test_tallies_above_the_limit_are_refused_before_any_stream(self, multinomial, monkeypatch):
        # 2**62 runs are within the limit, but 5 trials tally more than it per state
        cfg = SimConfig(orthonormal_scenario(), 2**62, 5, 0, multinomial)
        refuse_streams(monkeypatch)
        message = f"^the limit is {RUN_LIMIT} runs of one state over all trials; .* in 5 trials$"
        with pytest.raises(PreconditionError, match=message):
            run_experiment(cfg, 0.9)


def binomial_pmf(m, p):
    """Binomial(m, p) pmf from lgamma, independent of the sampler's recurrence."""
    k = np.arange(m + 1)
    log_comb = np.array([math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1) for j in k])
    return np.exp(log_comb + k * math.log(p) + (m - k) * math.log1p(-p))


def placed(m, p):
    """Binomial(m, p) placed as the simulator places each law: (m, p, lo, hi)."""
    (law,) = simulator._placed(((m, p),))
    return law


def searchsorted_reference(m, p, u):
    """Binomial(m, p) draws for the uniforms ``u`` by the plain search of a fresh table's cdf."""
    lo, _, cdf, _ = simulator._binomial_table((placed(m, p),))
    return lo + np.searchsorted(cdf, u, side="right")


class ChosenUniforms:
    """A stand-in random stream whose ``random(size)`` hands out given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)
        self.taken = 0

    def random(self, size):
        chunk = self.u[self.taken : self.taken + size]
        assert chunk.size == size, "asked for more uniforms than were chosen"
        self.taken += size
        return chunk.copy()


def guide_bound(entries):
    """The largest guide the sampler may build: 2**ceil(log2(max(64, 4 min(K, block))))."""
    return 2 ** math.ceil(math.log2(max(64, 4 * min(entries, simulator._MAX_BLOCK_TRIALS))))


class TestBinomialKernel:
    @pytest.mark.parametrize("m", [1, 7, 20, 200, 2000])
    @pytest.mark.parametrize("p", [1e-3, 0.02, 0.3, 0.5, 0.75, 0.7499999999999999, 0.999])
    def test_matches_exact_pmf(self, m, p):
        size = 200_000
        draws = simulator._invert(stream(m, int(p * 1e6)), simulator._law_table(placed(m, p)), size)
        assert draws.shape == (size,)
        assert draws.min() >= 0 and draws.max() <= m
        pmf = binomial_pmf(m, p)
        counts = np.bincount(draws, minlength=m + 1)
        expected = size * pmf
        # every bin expecting more than 5 draws, then the pooled rest
        big = expected > 5
        se = np.sqrt(expected * (1 - pmf))
        assert np.all(np.abs(counts[big] - expected[big]) <= 5 * se[big])
        rest, rest_p = counts[~big].sum(), pmf[~big].sum()
        assert abs(rest - size * rest_p) <= 5 * math.sqrt(size * rest_p * (1 - rest_p))

    @pytest.mark.parametrize("m", [1, 7, 2000])
    def test_certain_outcomes_are_constant(self, m):
        rng = stream(0)
        assert np.array_equal(simulator._invert(rng, simulator._law_table(placed(m, 0.0)), 5), np.zeros(5))
        assert np.array_equal(simulator._invert(rng, simulator._law_table(placed(m, 1.0)), 5), np.full(5, m))

    @pytest.mark.parametrize("block", [1, 7, 32768])
    @pytest.mark.parametrize(
        "m,p",
        [(1, 0.5), (20, 0.75), (2000, 1e-3), (10**6, 0.3), (10**9, 0.7499999999999999)],
        ids=["two-entries", "small", "tied-cdf", "m=1e6", "m=1e9"],
    )
    def test_guide_matches_the_plain_search(self, m, p, block):
        # uniforms exactly at every bucket edge j/g and every cdf entry, one
        # ulp below each, the extremes of [0, 1), and random ones, drawn in
        # calls of ``block`` uniforms each
        lo, _, cdf, guide = simulator._law_table(placed(m, p))
        g = guide.size
        rng = np.random.default_rng(m + block)
        edges = np.arange(g) / g
        below = np.nextafter(np.concatenate((edges[1:], cdf[:-1])), 0.0)
        chosen = np.concatenate((edges, cdf[:-1], below, [0.0, 1.0 - 2.0**-53], rng.random(1000)))
        chosen = chosen[chosen < 1.0]  # tied entries reach 1 before the last one
        calls = min(-(-chosen.size // block), 200 if cdf.size < 10**4 else 16)
        if chosen.size > calls * block:
            chosen = rng.choice(chosen, calls * block, replace=False)
        chosen = np.concatenate((chosen, rng.random(calls * block - chosen.size)))
        stub = ChosenUniforms(chosen)
        got = np.concatenate(
            [simulator._invert(stub, simulator._law_table(placed(m, p)), block) for _ in range(calls)]
        )
        assert stub.taken == chosen.size
        assert np.array_equal(got, searchsorted_reference(m, p, chosen))
        assert g <= guide_bound(cdf.size)

    def test_tied_cdf_entries_are_covered(self):
        # underflowed weights leave runs of equal cdf entries at the top
        _, _, cdf, _ = simulator._law_table(placed(2000, 1e-3))
        assert np.count_nonzero(np.diff(cdf) == 0.0) > 10

    @pytest.mark.parametrize("m", [1, 4, 20, 2000, 10**6, 10**9])
    @pytest.mark.parametrize("draws", [1, 7, 100, 32768, 10**6])
    def test_guide_stays_within_its_bound(self, m, draws):
        # the guide follows the window alone, whatever number of draws it serves
        table = simulator._law_table(placed(m, 0.3))
        lo, _, cdf, guide = table
        assert guide.size & (guide.size - 1) == 0
        assert 4 * min(cdf.size, simulator._MAX_BLOCK_TRIALS) <= guide.size <= guide_bound(cdf.size)
        assert guide.size >= 64
        sample = simulator._invert(stream(m, draws), table, draws)
        assert lo <= sample.min() and sample.max() < lo + cdf.size

    def test_oversized_table_refused_before_allocation(self):
        # 3e16 runs on trine would need a 9.4e8-entry table (7 GiB)
        with pytest.raises(PreconditionError, match="too large"):
            placed(10**16, 0.75)
        _, _, lo, hi = placed(10**9, 0.75)
        assert hi - lo < simulator._MAX_TABLE_ENTRIES
        _, _, lo, hi = placed(10**16, 1.0)
        assert lo == hi == 10**16

    def test_memory_stays_bounded_at_huge_n(self):
        # the cdf table spans O(sqrt(N / a)) entries, about 3e5 here
        scenario = builtin_scenarios()["trine"]
        n_runs, n_trials = 3_000_000_000, 2000
        tracemalloc.start()
        try:
            (row,) = lln_sweep(scenario, [n_runs], n_trials, seed=17)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        se = math.sqrt(0.75 * 0.25 / n_runs / n_trials)
        assert abs(row.mean_fidelity - 0.75) < 5 * se


class TestTrialTally:
    @pytest.mark.parametrize(
        "change,message",
        [
            ({"prepared_counts": [2, 3], "outcome_counts": [[2, 0], [1, 2]]},
             "prepared counts do not sum to n_runs"),
            ({"outcome_counts": [[1, 0], [1, 1]]}, "outcome counts do not sum to prepared counts"),
            ({"pass_counts": [[2, 1], [0, 1]]}, "pass counts exceed outcome counts"),
            ({"prepared_counts": [5, -1], "outcome_counts": [[5, 0], [0, -1]], "pass_counts": [[0, 0], [0, -1]]},
             "negative counts"),
        ],
        ids=["prepared", "outcomes", "passes", "negative"],
    )
    def test_validate_refuses_inconsistent_counts(self, change, message):
        fields = {"prepared_counts": [2, 2], "outcome_counts": [[2, 0], [1, 1]], "pass_counts": [[2, 0], [0, 1]]}
        tally = simulator.TrialTally(**{name: np.array(value) for name, value in {**fields, **change}.items()})
        with pytest.raises(AssertionError, match=f"^{message}$"):
            tally.validate(4)


class TestRunTrial:
    def test_orthonormal_scenario_always_passes(self):
        scenario = orthonormal_scenario()
        for seed in range(5):
            tally, fidelity = run_trial(scenario, 10, stream(seed))
            assert fidelity == 1.0
            tally.validate(10)
            assert np.array_equal(np.diag(tally.pass_counts), np.diag(tally.outcome_counts))

    def test_tally_constraints(self):
        scenario = builtin_scenarios()["trine"]
        for seed in range(10):
            tally, fidelity = run_trial(scenario, 30, stream(seed))
            tally.validate(30)
            assert np.array_equal(tally.prepared_counts, [10, 10, 10])
            assert 0.0 <= fidelity <= 1.0
            assert fidelity == tally.pass_counts.sum() / 30

    def test_deterministic_given_stream(self):
        scenario = builtin_scenarios()["trine"]
        t1, f1 = run_trial(scenario, 24, stream(123, 24))
        t2, f2 = run_trial(scenario, 24, stream(123, 24))
        assert f1 == f2
        assert np.array_equal(t1.outcome_counts, t2.outcome_counts)
        assert np.array_equal(t1.pass_counts, t2.pass_counts)

    def test_rejects_bad_n_runs(self):
        scenario = builtin_scenarios()["trine"]
        with pytest.raises(PreconditionError, match="multiple"):
            run_trial(scenario, 10, stream(0))


class TestRunExperiment:
    def test_report_shape_and_mean(self):
        scenario = builtin_scenarios()["trine"]
        cfg = SimConfig(scenario=scenario, n_runs=12, n_trials=5000, seed=2)
        report = run_experiment(cfg, threshold=0.865)
        hist = report.pass_count_histogram
        assert hist.sum() == 5000
        # the histogram spans the observed pass counts, within 0..N
        passes = report.pass_count_offset + np.arange(hist.size)
        assert passes[0] >= 0 and passes[-1] <= 12
        assert hist[0] > 0 and hist[-1] > 0
        # the mean is the histogram's weighted mean, summed here in integers
        total = int(passes @ hist)
        assert report.mean_fidelity == pytest.approx(total / (12 * 5000), rel=1e-15)
        assert report.prepared_counts.sum() == 5000 * 12

    @pytest.mark.parametrize("n_runs", [12, 600])
    def test_histogram_counts_every_block(self, n_runs):
        # 70000 trials span three blocks, the last one short; the report's
        # histogram is the sum of the blocks' histograms of pass counts
        scenario = builtin_scenarios()["trine"]
        cfg = SimConfig(scenario=scenario, n_runs=n_runs, n_trials=70000, seed=15)
        threshold = 0.8
        report = run_experiment(cfg, threshold)
        q = pass_probabilities(scenario.ensemble, scenario.povm)
        blocks = [(0, 32768), (1, 32768), (2, 70000 - 2 * 32768)]
        expected = np.zeros(n_runs + 1, dtype=np.int64)
        exceeding = 0
        for block, n in blocks:
            rng = stream(15, subkey=n_runs, block=block)
            # one Binomial column per state, in state order
            passes = sum(
                simulator._invert(rng, simulator._law_table(placed(n_runs // 3, qi)), n) for qi in q.tolist()
            )
            expected += np.bincount(passes, minlength=n_runs + 1)
            exceeding += np.count_nonzero(passes / n_runs >= threshold)
        hist = report.pass_count_histogram
        assert hist[0] > 0 and hist[-1] > 0
        got = np.zeros(n_runs + 1, dtype=np.int64)
        got[report.pass_count_offset : report.pass_count_offset + hist.size] = hist
        assert np.array_equal(got, expected)
        assert report.exceedance_count == exceeding
        mean = int(np.arange(n_runs + 1) @ expected) / (n_runs * 70000)
        assert report.mean_fidelity == pytest.approx(mean, rel=1e-15)

    def test_memory_stays_bounded_in_the_trial_count(self):
        scenario = builtin_scenarios()["trine"]
        n_runs, n_trials = 60, 10**7
        cfg = SimConfig(scenario=scenario, n_runs=n_runs, n_trials=n_trials, seed=21)
        tracemalloc.start()
        try:
            report = run_experiment(cfg, threshold=0.865)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert report.pass_count_histogram.sum() == n_trials
        se = math.sqrt(0.75 * 0.25 / n_runs / n_trials)
        assert abs(report.mean_fidelity - 0.75) < 5 * se

    def test_trivial_thresholds(self):
        scenario = builtin_scenarios()["qutrit-mubs"]
        cfg = SimConfig(scenario=scenario, n_runs=12, n_trials=300, seed=5)
        assert run_experiment(cfg, threshold=0.0).exceedance_count == 300
        assert run_experiment(cfg, threshold=1.0001).exceedance_count == 0

    def test_deterministic_across_worker_counts(self):
        scenario = builtin_scenarios()["trine"]
        # span several blocks so scheduling could matter
        cfg = SimConfig(scenario=scenario, n_runs=600, n_trials=20000, seed=9)
        reports = [run_experiment(cfg, 0.865, workers=w) for w in (1, 2, 5)]
        for other in reports[1:]:
            assert other.pass_count_offset == reports[0].pass_count_offset
            assert np.array_equal(reports[0].pass_count_histogram, other.pass_count_histogram)
            assert other.mean_fidelity == reports[0].mean_fidelity
            assert np.array_equal(reports[0].outcome_counts, other.outcome_counts)
            assert np.array_equal(reports[0].pass_counts, other.pass_counts)

    def test_mean_fidelity_near_infinite_run_value(self):
        scenario = builtin_scenarios()["trine"]
        n_trials = 20000
        cfg = SimConfig(scenario=scenario, n_runs=12, n_trials=n_trials, seed=3)
        report = run_experiment(cfg, threshold=0.865)
        se = math.sqrt(0.75 * 0.25 / 12.0 / n_trials)
        assert abs(report.mean_fidelity - 0.75) < 5 * se

    def test_outcome_and_pass_frequencies_converge(self):
        # aggregated (i, k) frequencies approach the single-run probabilities
        scenario = builtin_scenarios()["trine"]
        n_trials = 30000
        cfg = SimConfig(scenario=scenario, n_runs=12, n_trials=n_trials, seed=4)
        report = run_experiment(cfg, threshold=0.865)
        born = np.einsum(
            "id,kde,ie->ik",
            scenario.ensemble.states.conj(),
            scenario.povm.elements,
            scenario.ensemble.states,
        ).real
        overlap = scenario.ensemble.overlap_matrix()
        per_state = n_trials * 4  # runs prepared per state
        for i in range(3):
            for k in range(3):
                freq = report.outcome_counts[i, k] / per_state
                se = math.sqrt(born[i, k] * (1 - born[i, k]) / per_state)
                assert abs(freq - born[i, k]) < 5 * se + 1e-12
                if k == i:
                    assert report.pass_counts[i, k] == report.outcome_counts[i, k]
                elif report.outcome_counts[i, k] > 0:
                    pass_freq = report.pass_counts[i, k] / report.outcome_counts[i, k]
                    n_ik = report.outcome_counts[i, k]
                    se = math.sqrt(overlap[i, k] * (1 - overlap[i, k]) / n_ik)
                    assert abs(pass_freq - overlap[i, k]) < 5 * se + 1e-12

    def test_multinomial_preparation_mode(self):
        states = np.eye(2, dtype=complex)
        ens = ensembles.Ensemble(states, np.array([0.7, 0.3]))
        scenario = custom_scenario(ens, target_fidelity=1.0)
        n_trials = 4000
        cfg = SimConfig(
            scenario=scenario,
            n_runs=10,
            n_trials=n_trials,
            seed=6,
            multinomial_preparation=True,
        )
        report = run_experiment(cfg, threshold=0.9)
        assert report.prepared_counts.sum() == n_trials * 10
        # preparation frequencies follow the priors
        freq = report.prepared_counts[0] / report.prepared_counts.sum()
        se = math.sqrt(0.7 * 0.3 / (n_trials * 10))
        assert abs(freq - 0.7) < 5 * se
        # orthonormal ensemble still always passes: one bin, at N passes
        assert report.pass_count_offset == 10
        assert report.pass_count_histogram.tolist() == [n_trials]

    def test_multinomial_passes_are_binomial_in_fidelity(self):
        # each run draws its state from the priors and then passes with
        # probability q_i, so a trial's pass count is Binomial(N, priors @ q)
        ens = ensembles.Ensemble(ensembles.trine().states, np.array([0.5, 0.3, 0.2]))
        scenario = custom_scenario(ens, target_fidelity=1.0)
        f = stats.classical_fidelity(ens, scenario.povm)
        n_runs, n_trials, threshold = 12, 40000, 0.9
        cfg = SimConfig(
            scenario=scenario,
            n_runs=n_runs,
            n_trials=n_trials,
            seed=8,
            multinomial_preparation=True,
        )
        report = run_experiment(cfg, threshold=threshold)
        se = math.sqrt(f * (1 - f) / n_runs / n_trials)
        assert abs(report.mean_fidelity - f) < 5 * se
        tail = sum(
            math.comb(n_runs, s) * f**s * (1 - f) ** (n_runs - s)
            for s in range(n_runs + 1)
            if s / n_runs >= threshold
        )
        se = math.sqrt(tail * (1 - tail) / n_trials)
        assert abs(report.exceedance_frequency - tail) < 5 * se

    def test_multinomial_tallies_follow_priors_and_pass_probabilities(self):
        ens = ensembles.Ensemble(ensembles.trine().states, np.array([0.5, 0.3, 0.2]))
        scenario = custom_scenario(ens, target_fidelity=1.0)
        q = pass_probabilities(ens, scenario.povm)
        n_runs, n_trials = 30, 20000
        cfg = SimConfig(
            scenario=scenario,
            n_runs=n_runs,
            n_trials=n_trials,
            seed=12,
            multinomial_preparation=True,
        )
        report = run_experiment(cfg, threshold=0.9)
        total = n_runs * n_trials
        assert report.prepared_counts.sum() == total
        freq = report.prepared_counts / total
        assert np.all(np.abs(freq - ens.priors) <= 5 * np.sqrt(ens.priors * (1 - ens.priors) / total))
        prepared = report.prepared_counts
        rate = report.pass_counts.sum(axis=1) / prepared
        assert np.all(np.abs(rate - q) <= 5 * np.sqrt(q * (1 - q) / prepared))

    def test_histogram_matches_exact_distribution(self):
        scenario = builtin_scenarios()["qutrit-mubs"]
        n_runs, n_trials = 24, 50000
        cfg = SimConfig(scenario=scenario, n_runs=n_runs, n_trials=n_trials, seed=10)
        report = run_experiment(cfg, threshold=0.751)
        hist = np.zeros(n_runs + 1, dtype=np.int64)
        offset = report.pass_count_offset
        hist[offset : offset + report.pass_count_histogram.size] = report.pass_count_histogram
        dist = pass_count_distribution(scenario, n_runs)
        se = np.sqrt(n_trials * dist * (1 - dist))
        assert np.all(np.abs(hist - n_trials * dist) <= 5 * se)


def nonuniform_trine():
    ens = ensembles.Ensemble(ensembles.trine().states, np.array([0.5, 0.3, 0.2]))
    return custom_scenario(ens, target_fidelity=1.0)


#: Seeded ``run_experiment`` reports recorded with numpy 2.4.6, threshold
#: 0.8: (scenario, N, trials, seed, multinomial) -> histogram offset and
#: counts, prepared counts, outcome counts and pass counts.
PINNED_REPORTS = {
    "trine": (
        ("trine", 60, 3000, 101, False),
        33,
        [2, 2, 13, 14, 37, 52, 69, 121, 163, 246, 290, 307, 381, 355, 306, 207, 190, 112, 77, 31, 18, 4, 2, 0, 1],
        [60000, 60000, 60000],
        [[39918, 10086, 9996], [10131, 39971, 9898], [10116, 10189, 39695]],
        [[39918, 2497, 2473], [2482, 39971, 2470], [2520, 2515, 39695]],
    ),
    "qutrit-mubs": (
        ("qutrit-mubs", 24, 2000, 102, False),
        3,
        [1, 0, 4, 18, 39, 95, 153, 233, 285, 299, 306, 234, 163, 92, 57, 15, 4, 2],
        [4000] * 12,
        [
            [976, 0, 0, 328, 343, 320, 333, 327, 372, 338, 349, 314],
            [0, 962, 0, 352, 304, 322, 351, 333, 345, 363, 364, 304],
            [0, 0, 1018, 330, 324, 332, 333, 348, 329, 283, 352, 351],
            [310, 328, 337, 1002, 0, 0, 355, 328, 327, 356, 326, 331],
            [342, 337, 300, 0, 1022, 0, 361, 326, 345, 329, 294, 344],
            [328, 341, 319, 0, 0, 1064, 306, 324, 312, 344, 333, 329],
            [344, 341, 346, 299, 344, 325, 1024, 0, 0, 301, 318, 358],
            [316, 342, 308, 363, 326, 322, 0, 996, 0, 355, 315, 357],
            [332, 333, 323, 307, 339, 371, 0, 0, 991, 340, 326, 338],
            [333, 351, 310, 303, 342, 364, 315, 327, 332, 1023, 0, 0],
            [334, 341, 335, 335, 338, 315, 314, 343, 357, 0, 988, 0],
            [340, 349, 339, 352, 313, 346, 328, 340, 340, 0, 0, 953],
        ],
        [
            [976, 0, 0, 116, 110, 106, 107, 105, 126, 122, 113, 105],
            [0, 962, 0, 119, 111, 110, 125, 107, 99, 122, 122, 110],
            [0, 0, 1018, 132, 116, 106, 98, 121, 105, 89, 117, 123],
            [112, 99, 113, 1002, 0, 0, 109, 121, 93, 118, 102, 103],
            [127, 110, 94, 0, 1022, 0, 120, 119, 120, 115, 118, 111],
            [107, 109, 106, 0, 0, 1064, 108, 97, 120, 108, 108, 96],
            [120, 116, 122, 93, 122, 105, 1024, 0, 0, 98, 98, 117],
            [98, 135, 105, 128, 112, 124, 0, 996, 0, 122, 113, 110],
            [116, 106, 99, 89, 119, 133, 0, 0, 991, 109, 94, 134],
            [120, 137, 112, 108, 109, 111, 97, 105, 101, 1023, 0, 0],
            [108, 113, 113, 119, 110, 119, 126, 98, 114, 0, 988, 0],
            [115, 130, 117, 125, 90, 123, 100, 122, 117, 0, 0, 953],
        ],
    ),
    "multinomial": (
        ("nonuniform-trine", 30, 2000, 103, True),
        14,
        [1, 2, 6, 12, 28, 70, 97, 192, 287, 314, 356, 271, 205, 114, 36, 9],
        [29988, 18030, 11982],
        [[24077, 3019, 2892], [3028, 12015, 2987], [2806, 2966, 6210]],
        [[24077, 731, 686], [782, 12015, 779], [666, 736, 6210]],
    ),
    "three-blocks": (
        ("trine", 12, 70000, 104, False),
        3,
        [25, 164, 790, 2791, 7263, 13810, 18013, 16016, 8887, 2241],
        [280000, 280000, 280000],
        [[186546, 46870, 46584], [46742, 186586, 46672], [46769, 46586, 186645]],
        [[186546, 11511, 11607], [11776, 186586, 11672], [11757, 11574, 186645]],
    ),
}


#: Seeded ``lln_sweep`` ladders recorded with numpy 2.4.6: (scenario, trials,
#: seed) -> one (n_runs, mean, mean absolute deviation, rms deviation) per N.
PINNED_LADDERS = {
    ("trine", 5000, 103): [
        (60, 0.7502066666666667, 0.04485333333333337, 0.0566097753631532),
        (600, 0.7497363333333333, 0.01398033333333334, 0.017645852518682996),
        (6000, 0.7499243333333333, 0.004448466666666661, 0.005579700310550335),
        (60000, 0.7499984333333333, 0.0014071933333333294, 0.0017602364108898045),
        (600000, 0.7499950156666667, 0.00044286633333333173, 0.0005553416260885408),
        (3000000, 0.7500035520666666, 0.00020309900000000064, 0.00025557495978023224),
    ],
    ("qutrit-mubs", 4000, 104): [
        (12, 0.5001249999999999, 0.11458333333333336, 0.1458452376093691),
        (120, 0.4994333333333334, 0.036412500000000014, 0.04566370124191765),
        (1200, 0.5003777083333334, 0.011688958333333332, 0.014685954410403306),
        (12000, 0.5000088333333333, 0.0036122083333333327, 0.004560759942158763),
    ],
    ("four-asymmetric", 2000, 109): [
        (8, 0.774875, 0.1164848179816804, 0.14484358508024098),
        (80, 0.77609375, 0.0377928145050828, 0.04727835356345485),
        (800, 0.777226875, 0.011677303266532556, 0.014643979257480604),
        (8000, 0.77715225, 0.0036786579237041536, 0.00461543916823368),
    ],
    ("helstrom", 3000, 105): [
        (2, 0.9338333333333333, 0.12064480536596883, 0.17584586535543897),
        (20, 0.9286666666666668, 0.04737765756508039, 0.05780825385705534),
        (200, 0.9268316666666668, 0.014563731359237499, 0.01809713658032888),
        (2000, 0.9266785, 0.004616629385141709, 0.005731552733156025),
    ],
}

#: Seeded ``run_trial`` tallies on ``stream(seed, n_runs)``, recorded with
#: numpy 2.4.6: (scenario, n_runs, seed) -> prepared, outcome and pass
#: counts, and the trial fidelity.
PINNED_TRIALS = {
    ("trine", 3000000, 106): (
        [1000000, 1000000, 1000000],
        [[666684, 166015, 167301], [166581, 667027, 166392], [167150, 166116, 666734]],
        [[666684, 41294, 41768], [41706, 667027, 41749], [41493, 41528, 666734]],
        0.7499943333333333,
    ),
    ("qutrit-mubs", 1200, 107): (
        [100] * 12,
        [
            [26, 0, 0, 7, 11, 8, 3, 9, 9, 9, 9, 9],
            [0, 19, 0, 8, 9, 15, 7, 8, 11, 12, 5, 6],
            [0, 0, 23, 7, 10, 13, 12, 4, 7, 10, 6, 8],
            [7, 7, 6, 29, 0, 0, 7, 8, 7, 10, 13, 6],
            [12, 8, 13, 0, 23, 0, 7, 7, 4, 6, 8, 12],
            [9, 7, 9, 0, 0, 27, 4, 9, 6, 5, 10, 14],
            [7, 7, 11, 6, 7, 6, 25, 0, 0, 5, 12, 14],
            [10, 7, 9, 9, 9, 6, 0, 28, 0, 8, 7, 7],
            [9, 9, 7, 7, 10, 6, 0, 0, 24, 8, 15, 5],
            [9, 7, 14, 7, 7, 7, 7, 8, 10, 24, 0, 0],
            [8, 8, 9, 10, 10, 8, 8, 6, 4, 0, 29, 0],
            [5, 11, 6, 9, 6, 9, 11, 7, 13, 0, 0, 23],
        ],
        [
            [26, 0, 0, 2, 3, 4, 1, 3, 1, 2, 2, 3],
            [0, 19, 0, 2, 1, 6, 5, 1, 1, 3, 2, 1],
            [0, 0, 23, 4, 4, 6, 4, 0, 5, 5, 2, 3],
            [2, 2, 1, 29, 0, 0, 2, 3, 2, 1, 3, 1],
            [7, 1, 2, 0, 23, 0, 3, 4, 0, 2, 2, 7],
            [4, 3, 4, 0, 0, 27, 1, 3, 2, 2, 3, 8],
            [2, 3, 8, 0, 4, 2, 25, 0, 0, 1, 5, 6],
            [4, 4, 1, 5, 1, 1, 0, 28, 0, 3, 2, 2],
            [5, 4, 2, 4, 3, 0, 0, 0, 24, 1, 5, 3],
            [4, 3, 5, 4, 1, 3, 4, 3, 3, 24, 0, 0],
            [0, 4, 4, 5, 2, 2, 1, 3, 2, 0, 29, 0],
            [1, 5, 4, 0, 1, 4, 4, 3, 2, 0, 0, 23],
        ],
        0.5075,
    ),
    ("four-asymmetric", 4000, 110): (
        [1000, 1000, 1000, 1000],
        [[468, 17, 180, 335], [12, 661, 228, 99], [150, 288, 403, 159], [343, 88, 144, 425]],
        [[468, 0, 83, 277], [0, 661, 115, 29], [67, 134, 403, 81], [266, 17, 72, 425]],
        0.7745,
    ),
    ("helstrom", 200, 108): ([100, 100], [[83, 17], [25, 75]], [[83, 13], [12, 75]], 0.915),
}


#: ``exact_exceedance`` reprs, recorded with numpy 2.4.6: (scenario, n_runs)
#: -> one per threshold of ``PINNED_EXACT_THRESHOLDS``, the scenario's target
#: standing in for ``None``.  n_runs is a, 7a and the largest multiples of a
#: up to 600, 4400 and 4470, the last near the top of the work budget.
PINNED_EXACT_THRESHOLDS = (0.0, 0.5, 0.6, 0.75, 0.8, None, 1.0)
PINNED_EXACT = {
    ("trine", 3): (
        '0.9999999999999999', '0.8437499999999999', '0.8437499999999999', '0.4218749999999999',
        '0.4218749999999999', '0.4218749999999999', '0.4218749999999999',
    ),
    ("trine", 21): (
        '0.9999999999999996', '0.9935772895159967', '0.94385315998943', '0.566589866422873',
        '0.3674201388137132', '0.07452348056494874', '0.002378408954200491',
    ),
    ("trine", 600): (
        '0.9999999999999878', '0.9999999999999879', '0.9999999999999876', '0.5219220945068574',
        '0.0022511164849508243', '2.9393423334861243e-12', '1.0883235704008321e-75',
    ),
    ("trine", 4398): (
        '0.9999999999999117', '0.9999999999999117', '0.9999999999999118', '0.5011578704946953',
        '2.1051986147711734e-15', '2.956869220180351e-79', '0.0',
    ),
    ("trine", 4470): (
        '0.9999999999999105', '0.9999999999999103', '0.9999999999999104', '0.5011485049765727',
        '1.5029499971321978e-15', '2.0065305651660415e-80', '0.0',
    ),
    ("four-asymmetric", 4): (
        '1.0', '0.9641507439189438', '0.784005246024726', '0.784005246024726',
        '0.36229768180803595', '0.36229768180803595', '0.36229768180803595',
    ),
    ("four-asymmetric", 28): (
        '1.0', '0.9997195814408837', '0.9882620705384126', '0.7260864482736673',
        '0.38202254207492237', '0.09932943735712924', '0.0008193300551852216',
    ),
    ("four-asymmetric", 600): (
        '1.0', '1.0', '1.0', '0.9489496889289518', '0.09407520485611494', '4.813069209290564e-10',
        '7.241579053889136e-67',
    ),
    ("four-asymmetric", 4400): (
        '1.0', '1.0', '1.0', '0.9999912489254041', '0.00010621783593878833',
        '4.837800966631523e-63', '0.0',
    ),
    ("four-asymmetric", 4468): (
        '1.0', '1.0', '1.0', '0.9999924533120504', '8.672378371922164e-05',
        '3.867513261791787e-64', '0.0',
    ),
    ("qubit-mubs", 6): (
        '1.0', '0.8998628257887515', '0.6803840877914948', '0.35116598079561007',
        '0.35116598079561007', '0.35116598079561007', '0.08779149519890246',
    ),
    ("qubit-mubs", 42): (
        '0.9999999999999999', '0.9916434639311474', '0.7950530987179387', '0.12447763202614767',
        '0.03171511419870686', '0.06671983790717508', '4.019454526140676e-08',
    ),
    ("qubit-mubs", 600): (
        '0.9999999999999991', '0.9999999999999991', '0.9997302216807515', '5.739571654547352e-06',
        '3.31260843434139e-13', '1.990266333404657e-08', '2.214341332527414e-106',
    ),
    ("qubit-mubs", 4398): (
        '0.9999999999999937', '0.9999999999999937', '0.9999999999999936', '1.4877164802389513e-33',
        '6.971910888254702e-86', '3.212244515460202e-51', '0.0',
    ),
    ("qubit-mubs", 4470): (
        '0.9999999999999937', '0.9999999999999936', '0.9999999999999936', '4.525856181391762e-34',
        '4.514466573655279e-87', '6.327549509708578e-52', '0.0',
    ),
    ("qutrit-mubs", 12): (
        '1.0', '0.6127929687500003', '0.19384765625000022', '0.07299804687500011',
        '0.019287109375000035', '0.019287109375000035', '0.00024414062500000065',
    ),
    ("qutrit-mubs", 84): (
        '0.9999999999999999', '0.5433988188877024', '0.031486128518084994',
        '2.4840075709565086e-06', '4.271170476862144e-09', '7.924627824846588e-07',
        '5.169878828456519e-26',
    ),
    ("qutrit-mubs", 600): (
        '0.9999999999999994', '0.5162799656674918', '5.478412821936053e-07',
        '4.60441588737444e-36', '3.2270956361265858e-52', '1.5247386819320264e-36',
        '2.409919865103205e-181',
    ),
    ("qutrit-mubs", 4392): (
        '0.999999999999995', '0.5060194135191577', '1.037738685517972e-40',
        '6.386522580236986e-252', '0.0', '2.5846937813476568e-254', '0.0',
    ),
    ("qutrit-mubs", 4464): (
        '0.9999999999999949', '0.50597067800817', '2.6206307786339596e-41',
        '5.1445715021694294e-256', '0.0', '2.082623372007735e-258', '0.0',
    ),
    ("helstrom", 2): (
        '1.0', '0.9946383476483184', '0.8589150429449552', '0.8589150429449552',
        '0.8589150429449552', '0.8589150429449552', '0.8589150429449552',
    ),
    ("helstrom", 14): (
        '0.9999999999999997', '0.9999983412669117', '0.9997236806786776', '0.984146193063896',
        '0.9222340966987177', '0.34486686011137047', '0.34486686011137047',
    ),
    ("helstrom", 600): (
        '0.9999999999999846', '0.9999999999999846', '0.9999999999999847', '0.9999999999999847',
        '0.9999999999999847', '4.919853957394926e-09', '1.5313085179493422e-20',
    ),
    ("helstrom", 4400): (
        '0.9999999999998871', '0.9999999999998871', '0.9999999999998871', '0.999999999999887',
        '0.9999999999998871', '6.167267283112256e-57', '4.902976227797166e-146',
    ),
    ("helstrom", 4470): (
        '0.9999999999998853', '0.9999999999998853', '0.9999999999998855', '0.9999999999998854',
        '0.9999999999998854', '4.7517536863643526e-58', '2.3917572680446757e-148',
    ),
}


class TestPinnedDraws:
    """Seeded reports stay the same draw for draw.

    numpy does not promise the same ``Generator`` streams across versions
    (NEP 19), so a failure on another numpy says that seeded documents
    differ there; on the recorded version it says the sampler changed.
    """

    @pytest.mark.parametrize("case", list(PINNED_REPORTS))
    def test_run_experiment_matches_the_recorded_draws(self, case):
        (name, n_runs, n_trials, seed, multinomial), offset, counts, prepared, outcomes, passes = PINNED_REPORTS[case]
        scenario = nonuniform_trine() if name == "nonuniform-trine" else builtin_scenarios()[name]
        cfg = SimConfig(scenario, n_runs, n_trials, seed, multinomial_preparation=multinomial)
        report = run_experiment(cfg, threshold=0.8)
        assert report.pass_count_offset == offset
        assert report.pass_count_histogram.tolist() == counts
        assert report.prepared_counts.tolist() == prepared
        assert report.outcome_counts.tolist() == outcomes
        assert report.pass_counts.tolist() == passes

    @pytest.mark.parametrize("case", list(PINNED_LADDERS), ids=lambda case: case[0])
    def test_lln_sweep_matches_the_recorded_draws(self, case):
        name, n_trials, seed = case
        expected = PINNED_LADDERS[case]
        rows = lln_sweep(builtin_scenarios()[name], [row[0] for row in expected], n_trials, seed)
        got = [(r.n_runs, r.mean_fidelity, r.mean_abs_deviation, r.rms_deviation) for r in rows]
        assert [tuple(map(repr, row)) for row in got] == [tuple(map(repr, row)) for row in expected]

    @pytest.mark.parametrize("case", list(PINNED_TRIALS), ids=lambda case: case[0])
    def test_run_trial_matches_the_recorded_draws(self, case):
        name, n_runs, seed = case
        prepared, outcomes, passes, fidelity = PINNED_TRIALS[case]
        tally, got = run_trial(builtin_scenarios()[name], n_runs, stream(seed, n_runs))
        assert tally.prepared_counts.tolist() == prepared
        assert tally.outcome_counts.tolist() == outcomes
        assert tally.pass_counts.tolist() == passes
        assert repr(got) == repr(fidelity)


class TestPinnedExact:
    """The exact oracle's values stay the same bit for bit.

    Every ``simulate`` document carries them.  numpy does not promise the
    same floating-point rounding across versions (as with ``Generator``
    streams, NEP 19), so a failure on another numpy says that documents
    differ there; on the recorded version it says the oracle changed.
    """

    @pytest.mark.parametrize("case", list(PINNED_EXACT), ids=lambda case: f"{case[0]}-{case[1]}")
    def test_exact_exceedance_matches_the_recorded_values(self, case, cold_products):
        name, n_runs = case
        scenario = builtin_scenarios()[name]
        thresholds = [scenario.target_fidelity if t is None else t for t in PINNED_EXACT_THRESHOLDS]
        got = tuple(repr(exact_exceedance(scenario, n_runs, t)) for t in thresholds)
        assert got == PINNED_EXACT[case]


class TestDerivedOnce:
    """A scenario computes each of its derived values once, whatever uses it,
    and a configuration derives its laws once."""

    #: (class, cached property) of every value derived once per scenario or
    #: ensemble besides the verification table.
    PROPERTIES = [
        ("Scenario", "outcome_split"),
        ("Ensemble", "_uniform_priors"),
    ]

    @pytest.fixture
    def calls(self, monkeypatch):
        """Instances each derived value was computed for, keyed by value."""
        from telecert import discrimination, scenarios

        seen = {"verification_table": []}
        original = discrimination.verification_table

        def counted(ensemble, povm):
            seen["verification_table"].append(ensemble)
            return original(ensemble, povm)

        monkeypatch.setattr(discrimination, "verification_table", counted)
        monkeypatch.setattr(scenarios, "verification_table", counted)
        owners = {"Scenario": scenarios.Scenario, "Ensemble": ensembles.Ensemble}
        for owner, name in self.PROPERTIES:
            prop = vars(owners[owner])[name]
            seen[name] = []

            def counted_property(instance, func=prop.func, log=seen[name]):
                log.append(instance)
                return func(instance)

            monkeypatch.setattr(prop, "func", counted_property)
        return seen

    def test_one_table_per_scenario_over_simulates_and_a_ladder(self, calls, monkeypatch, capsys):
        from telecert import cli, scenarios

        fresh = scenarios.BUILTIN_CONSTRUCTORS["trine"]()
        monkeypatch.setattr(cli, "builtin_scenario", lambda name: fresh)
        ladder = "60,129,279,600,1293,2787,6000"
        for n in ("60", "120"):  # a second request would recompute an uncached value
            assert cli.main(["simulate", "--scenario", "trine", "--n", n, "--trials", "3000"]) == 0
        assert cli.main(["lln", "--scenario", "trine", "--n", ladder, "--trials", "3000"]) == 0
        assert cli.main(["bounds", "--scenario", "trine", "--n", "60"]) == 0
        capsys.readouterr()
        assert calls == {
            "verification_table": [fresh.ensemble],
            "outcome_split": [fresh],
            "_uniform_priors": [fresh.ensemble],
        }

    def test_one_law_derivation_per_configuration(self, monkeypatch):
        derived = []
        original = simulator._draw_laws

        def counted(scenario, n_runs, multinomial):
            derived.append((n_runs, multinomial))
            return original(scenario, n_runs, multinomial)

        monkeypatch.setattr(simulator, "_draw_laws", counted)
        scenario = builtin_scenarios()["trine"]
        for multinomial in (False, True):
            run_experiment(SimConfig(scenario, 60, 100, 1, multinomial_preparation=multinomial), 0.8)
        lln_sweep(scenario, [60, 120, 600], 100, 1)
        assert derived == [(60, False), (60, True), (60, False), (120, False), (600, False)]

    def test_nothing_is_shared_across_scenarios(self, calls):
        from telecert.scenarios import helstrom_scenario

        for theta in (0.5, 0.5, 1.0):
            scenario = helstrom_scenario(theta)
            run_experiment(SimConfig(scenario, 10, 100, seed=1), threshold=0.9)
            exact_exceedance(scenario, 10, 0.9)
            lln_sweep(scenario, [10, 20], 100, seed=1)
        for name, seen in calls.items():
            assert len(seen) == 3, name
            assert len({id(instance) for instance in seen}) == 3, name


def report_fields(report):
    """Every field of a ``SimReport``, arrays as lists."""
    return {name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in vars(report).items()}


class TestKeptProducts:
    """Inversion tables and exact laws are kept per process and change no result."""

    #: (scenario, N) of the exact grid: small, mid and the largest N in budget.
    EXACT_GRID = [(name, n) for name in builtin_scenarios() for n in (12, 600, 4464)]

    def test_warm_products_change_no_result(self, cold_products):
        thresholds = (0.0, 0.5, 0.75, 0.8, 0.865, 11 / 12, 1.0)
        passes = []
        for _ in ("cold", "warm"):
            reports = {}
            for case, ((name, n_runs, n_trials, seed, multinomial), *_) in PINNED_REPORTS.items():
                scenario = nonuniform_trine() if name == "nonuniform-trine" else builtin_scenarios()[name]
                cfg = SimConfig(scenario, n_runs, n_trials, seed, multinomial_preparation=multinomial)
                reports[case] = report_fields(run_experiment(cfg, threshold=0.8))
            ladders = {
                case: repr(lln_sweep(builtin_scenarios()[case[0]], [row[0] for row in rows], *case[1:]))
                for case, rows in PINNED_LADDERS.items()
            }
            exact = {
                (name, n_runs, t): repr(exact_exceedance(builtin_scenarios()[name], n_runs, t))
                for name, n_runs in self.EXACT_GRID
                for t in thresholds
            }
            passes.append((reports, ladders, exact))
            assert cold_products.cache_info().currsize > 0
        assert passes[0] == passes[1]

    def test_one_law_keeps_one_table_whatever_the_trial_count(self, cold_products):
        scenario = builtin_scenarios()["helstrom"]  # both states draw from one law (30, q)
        run_trial(scenario, 60, stream(1))
        for n_trials in (1, 100, 3000):
            run_experiment(SimConfig(scenario, 60, n_trials, seed=n_trials), 0.95)
        info = cold_products.cache_info()
        assert (info.currsize, info.misses) == (1, 1)

    def test_kept_arrays_are_read_only(self, cold_products):
        scenario = builtin_scenarios()["trine"]
        for multinomial in (False, True):
            run_experiment(SimConfig(scenario, 60, 100, seed=1, multinomial_preparation=multinomial), 0.8)
        pass_count_distribution(scenario, 600)
        lln_sweep(scenario, [60], 100, seed=1)
        # tables of (20, q_i) for the two distinct q_i and of (60, F), one exact law,
        # one lln law and its per-bin deviations
        assert cold_products.cache_info().currsize == 3 + 1 + 2
        built = cold_products.cache_info().misses
        tables = [simulator._law_table(law) for multinomial in (False, True)
                  for law in simulator._placed(simulator._draw_laws(scenario, 60, multinomial))]
        arrays = [part for _, *parts in tables for part in parts]
        arrays.append(pass_count_distribution(scenario, 600))
        laws = SimConfig(scenario, 60, 1, 0).laws
        arrays.extend(simulator._kept(simulator._sorted_pass_count_law, laws)[1:])
        arrays.extend(simulator._kept(simulator._deviations, laws, scenario.classical_fidelity))
        assert cold_products.cache_info().misses == built  # every product was kept
        # pmf, cdf and guide of each table, the exact law, the lln law's order
        # and pmf, and its bins' fidelities, absolute and squared deviations
        arrays = list({id(array): array for array in arrays}.values())
        assert len(arrays) == 3 * 3 + 1 + 2 + 3
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.setflags(write=True)

    def test_writing_the_exact_law_moves_no_later_exceedance(self):
        scenario = builtin_scenarios()["qubit-mubs"]
        before = exact_exceedance(scenario, 600, 0.8)
        dist = pass_count_distribution(scenario, 600)
        with pytest.raises(ValueError):
            dist[480:] = 1.0
        with pytest.raises(ValueError):
            dist.setflags(write=True)
        assert exact_exceedance(scenario, 600, 0.8) == before

    def test_failed_build_keeps_nothing(self, cold_products, monkeypatch):
        def refuse(*args):
            raise MemoryError("Unable to allocate")

        scenario = builtin_scenarios()["trine"]
        cfg = SimConfig(scenario, 600, 100, seed=3)
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "_binomial_table", refuse)
            patch.setattr(simulator.np, "convolve", refuse)
            with pytest.raises(MemoryError):
                run_experiment(cfg, 0.8)
            with pytest.raises(MemoryError):
                pass_count_distribution(scenario, 600)
            # an oversized table is refused before it is looked up or built
            with pytest.raises(PreconditionError, match="too large"):
                placed(10**16, 0.75)
            assert cold_products.cache_info().currsize == 0
        assert report_fields(run_experiment(cfg, 0.8))["n_runs"] == 600
        assert pass_count_distribution(scenario, 600).sum() == pytest.approx(1.0)
        assert cold_products.cache_info().currsize == 2 + 1  # two distinct q_i, one exact law

    def test_at_most_maxsize_products_are_kept(self, cold_products):
        assert cold_products.cache_info().maxsize == simulator._KEPT_PRODUCTS
        scenario = builtin_scenarios()["four-asymmetric"]
        for n_runs in range(40, 4400, 88):
            run_experiment(SimConfig(scenario, n_runs, 2000, seed=n_runs), 0.8)
            exact_exceedance(scenario, n_runs, 0.8)
        assert cold_products.cache_info().misses > simulator._KEPT_PRODUCTS
        assert cold_products.cache_info().currsize == simulator._KEPT_PRODUCTS

    @staticmethod
    def table_of_width(entries):
        """The inversion table of the first Binomial(m, 1/2) whose window has ``entries`` entries."""

        def width(m):
            _, _, lo, hi = placed(m, 0.5)
            return hi - lo + 1

        m = next(m for m in itertools.count(1) if width(m) == entries)
        return simulator._law_table(placed(m, 0.5))

    def test_a_table_past_the_window_cap_is_used_not_kept(self, cold_products):
        widest = self.table_of_width(simulator._KEPT_WINDOW)
        assert cold_products.cache_info().currsize == 1
        wider = self.table_of_width(simulator._KEPT_WINDOW + 1)
        _, pmf, cdf, _ = widest
        assert pmf.size == cdf.size == simulator._KEPT_WINDOW
        assert wider[1].size == wider[2].size == simulator._KEPT_WINDOW + 1
        assert cold_products.cache_info().currsize == 1
        assert self.table_of_width(simulator._KEPT_WINDOW + 1) is not wider
        assert self.table_of_width(simulator._KEPT_WINDOW) is widest  # and it evicted nothing

    def test_an_lln_law_past_the_window_cap_is_used_not_kept(self, cold_products):
        # trine's multinomial laws (2922, F) and (2940, F) have 512 and 513 entries;
        # the narrow one keeps its table and its lln law, the wide one neither
        scenario = builtin_scenarios()["trine"]
        for n_runs, entries, kept in ((2922, 512, 2), (2940, 513, 2), (2940, 513, 2), (2922, 512, 2)):
            cfg = SimConfig(scenario, n_runs, 10, seed=1, multinomial_preparation=True)
            _, counts = simulator._total_histogram(cfg)
            assert counts.size == entries
            assert cold_products.cache_info().currsize == kept
        assert cold_products.cache_info().misses == 2

    def test_kept_products_fit_in_about_4_5_mib(self, cold_products):
        # the largest exact law is that of the largest N the oracle enumerates
        n_max = simulator._EXACT_MAX_RUNS
        law = pass_count_distribution(builtin_scenarios()["helstrom"], n_max - n_max % 2)
        table = self.table_of_width(simulator._KEPT_WINDOW)[1:]
        assert sum(array.nbytes for array in table) == 8 * (simulator._KEPT_WINDOW * 2 + 2048) == 24 * 1024
        # the widest kept lln law: trine's multinomial law (2922, F) has 512 entries
        cfg = SimConfig(builtin_scenarios()["trine"], 2922, 1, seed=0, multinomial_preparation=True)
        simulator._total_histogram(cfg)
        # and the widest kept per-bin deviations, those of that law
        deviations = simulator._kept_placed(simulator._deviations, cfg.laws, 0.75)
        # the exact law, both tables, the lln law and its deviations
        assert cold_products.cache_info().currsize == 5
        _, order, pmf = simulator._kept(simulator._sorted_pass_count_law, cfg.laws)
        assert pmf.size == simulator._KEPT_WINDOW
        assert sum(array.nbytes for array in deviations) == 3 * 8 * simulator._KEPT_WINDOW == 12 * 1024
        largest = max(8 * (n_max + 1), law.nbytes, sum(array.nbytes for array in table),
                      order.nbytes + pmf.nbytes, sum(array.nbytes for array in deviations))
        assert largest <= 35 * 1024
        assert simulator._KEPT_PRODUCTS * largest <= 4.5 * 2**20

    def test_threads_keep_the_cache_whole(self, cold_products):
        errors = []

        def work(offset):
            try:
                for m in range(20 + offset, 600, 3):
                    simulator._law_table(placed(m, 0.3))
            except BaseException as exc:
                errors.append(exc)

        # four threads, two of them on the same keys, over more keys than are kept
        threads = [threading.Thread(target=work, args=(offset,)) for offset in (0, 3, 1, 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        info = cold_products.cache_info()
        assert 0 < info.currsize <= info.maxsize

    def test_equal_laws_share_one_exact_law(self, cold_products):
        kept = pass_count_distribution(builtin_scenarios()["trine"], 600)
        fresh = custom_scenario(ensembles.trine(), 0.865)
        assert pass_count_distribution(fresh, 600) is kept
        assert cold_products.cache_info().currsize == 1

    def test_lln_keeps_the_laws_within_the_window_cap(self, cold_products):
        scenario = custom_scenario(ensembles.trine(), 0.865)
        ladder = [60, 129, 279, 600, 1293, 2787, 6000]
        kept = []
        for n_runs in ladder:
            lln_sweep(scenario, [n_runs], 1000, seed=1)
            kept.append(cold_products.cache_info().currsize)
        # every point keeps the tables of its two distinct laws (N/3, q_i), of
        # 21 to 423 entries; the lln laws of 61, 127, 208 and 352 entries are
        # kept with their deviations, those of 592, 865 and 1267 entries are
        # not, nor are their deviations
        assert kept == [4, 8, 12, 16, 18, 20, 22]
        assert cold_products.cache_info().misses == 22
        lln_sweep(scenario, ladder, 1000, seed=2)
        # a narrow point reads its law and deviations, a wide one its two tables
        info = cold_products.cache_info()
        assert (info.currsize, info.misses, info.hits) == (22, 22, 4 * 2 + 3 * 2)

    def test_kept_deviations_are_the_per_call_arrays(self, cold_products):
        # each point's row as lln_sweep reduced it before the deviations were kept
        scenario = builtin_scenarios()["trine"]
        f = scenario.classical_fidelity
        for n_runs in (60, 600, 6000):  # the law at 6000 has 1267 entries, too wide to keep
            lo, counts = simulator._total_histogram(SimConfig(scenario, n_runs, 1000, seed=4))
            fidelities = (lo + np.arange(counts.size)) / n_runs
            weights = counts / counts.sum()
            dev = fidelities - f
            row = simulator.LlnRow(n_runs, float(weights @ fidelities), float(weights @ np.abs(dev)),
                                   float(np.sqrt(weights @ (dev * dev))))
            for _ in ("cold", "warm"):
                assert lln_sweep(scenario, [n_runs], 1000, seed=4) == [row]
        # every N keeps its two tables; 60 and 600 also their laws and deviations
        assert cold_products.cache_info().currsize == 3 * 2 + 2 * 2

    def test_wide_points_read_kept_tables(self, cold_products, monkeypatch):
        # the lln laws of these points have 592 to 1267 entries, too wide to keep;
        # the tables of their laws (N/3, q_i) have 198 to 423
        scenario = builtin_scenarios()["trine"]
        built = []
        binomial_table = simulator._binomial_table

        def counted(laws):
            built.append(laws)
            return binomial_table(laws)

        monkeypatch.setattr(simulator, "_binomial_table", counted)
        ladder = [1293, 2787, 6000]
        lln_sweep(scenario, ladder, 1000, seed=1)
        assert len(built) == 2 * len(ladder)  # two distinct q_i per point
        built.clear()
        lln_sweep(scenario, ladder, 1000, seed=2)
        assert built == []

    def test_both_samplers_share_one_table_per_law(self, cold_products, monkeypatch):
        scenario = builtin_scenarios()["trine"]
        read = {}
        law_table = simulator._law_table

        def spy(law):
            read[law] = law_table(law)
            return read[law]

        monkeypatch.setattr(simulator, "_law_table", spy)
        run_experiment(SimConfig(scenario, 1293, 1000, seed=1), 0.8)
        drawn, read = read, {}
        lln_sweep(scenario, [1293], 1000, seed=1)
        assert read.keys() == drawn.keys() and len(read) == 2
        assert all(read[law] is drawn[law] for law in read)

    @pytest.fixture
    def windows(self, monkeypatch):
        """The (m, p) of every ``simulator._window`` call, in call order."""
        calls = []
        window = simulator._window

        def counted(m, p):
            calls.append((m, p))
            return window(m, p)

        monkeypatch.setattr(simulator, "_window", counted)
        return calls

    def test_a_configuration_reads_each_window_once(self, cold_products, windows):
        scenario = builtin_scenarios()["trine"]
        ladder = [60, 600, 6000]
        lln_sweep(scenario, ladder, 1000, seed=1)
        for n_runs in ladder:
            windows.clear()
            cfg = SimConfig(scenario, n_runs, 1000, seed=2)
            # the configuration places each distinct law once, with its window
            assert windows == [law[:2] for law in dict.fromkeys(cfg.laws)]
            lo, counts = simulator._total_histogram(cfg)
            # neither a kept law nor a wide one, convolved from its tables, reads a window again
            assert len(windows) == 2
            assert (lo, lo + counts.size - 1) == tuple(sum(law[i] for law in cfg.laws) for i in (2, 3))

    @pytest.mark.parametrize(
        "name, n_runs, verb, distinct",
        [("four-asymmetric", 1200, "simulate", 4), ("trine", 60, "lln", 2), ("trine", 6000, "lln", 2)],
    )
    def test_a_request_places_each_distinct_law_once(self, cold_products, windows, name, n_runs, verb, distinct):
        # a simulate request is a configuration, its experiment and the exact
        # oracle; an lln point is a configuration, its law and its deviations
        scenario = builtin_scenarios()[name]
        for _ in ("cold", "warm"):
            windows.clear()
            if verb == "simulate":
                run_experiment(SimConfig(scenario, n_runs, 1000, seed=9), scenario.target_fidelity)
                exact_exceedance(scenario, n_runs, scenario.target_fidelity)
            else:
                lln_sweep(scenario, [n_runs], 1000, seed=9)
            assert len(windows) == len(set(windows)) == distinct

    def test_no_scenario_is_held(self, cold_products):
        scenario = custom_scenario(ensembles.trine(), 0.865)
        run_experiment(SimConfig(scenario, 60, 100, seed=1), 0.8)
        exact_exceedance(scenario, 60, 0.8)
        assert cold_products.cache_info().currsize > 0
        ref = weakref.ref(scenario)
        del scenario
        gc.collect()
        assert ref() is None


class TestExactOracle:
    def test_orthonormal_scenario_certain(self):
        scenario = orthonormal_scenario()
        assert exact_exceedance(scenario, 4, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert exact_exceedance(scenario, 4, 0.3) == pytest.approx(1.0, abs=1e-12)

    def test_trine_three_runs(self):
        scenario = builtin_scenarios()["trine"]
        got = exact_exceedance(scenario, 3, 0.75)
        # all three runs must pass; each passes with probability 3/4
        assert got == pytest.approx((0.75) ** 3, abs=1e-12)

    @pytest.mark.parametrize("name,n_runs", [("trine", 3), ("helstrom", 4)])
    def test_against_two_stage_enumeration(self, name, n_runs):
        scenario = builtin_scenarios()[name]
        threshold = scenario.target_fidelity
        got = exact_exceedance(scenario, n_runs, threshold)
        want = two_stage_enumeration_oracle(scenario, n_runs, threshold)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("name", list(builtin_scenarios()))
    def test_matches_per_run_recursion(self, name):
        scenario = builtin_scenarios()[name]
        a = scenario.ensemble.size
        for n_runs in (a, 7 * a, 600 // a * a, 4400 // a * a):
            got = pass_count_distribution(scenario, n_runs)
            want = per_run_recursion(scenario, n_runs)
            assert got.shape == want.shape
            # deeper entries carry subnormal rounding residue in the recursion
            keep = want >= 1e-290
            assert_allclose(got[keep], want[keep], rtol=1e-12, atol=0)

    def test_extreme_counts_are_products(self):
        n_runs = 600
        for scenario in builtin_scenarios().values():
            q = pass_probabilities(scenario.ensemble, scenario.povm)
            per_state = n_runs // q.size
            dist = pass_count_distribution(scenario, n_runs)
            for got, want in (
                (dist[0], math.prod((1.0 - qi) ** per_state for qi in q)),
                (dist[-1], math.prod(qi**per_state for qi in q)),
            ):
                if want >= sys.float_info.min:
                    assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_distribution_normalizes(self):
        for scenario in builtin_scenarios().values():
            n_runs = 2 * scenario.ensemble.size
            dist = pass_count_distribution(scenario, n_runs)
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(dist >= -1e-15)

    def test_mean_passes_matches_fidelity(self):
        for scenario in builtin_scenarios().values():
            a = scenario.ensemble.size
            n_runs = 5 * a
            dist = pass_count_distribution(scenario, n_runs)
            mean_fid = float(np.arange(n_runs + 1) @ dist) / n_runs
            f_th = stats.classical_fidelity(scenario.ensemble, scenario.povm)
            assert mean_fid == pytest.approx(f_th, abs=1e-12)

    def test_threshold_edges(self):
        scenario = builtin_scenarios()["trine"]
        assert exact_exceedance(scenario, 6, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert exact_exceedance(scenario, 6, 1.0 + 1e-6) == 0.0
        # the full tail is a probability even where rounding lifts the sum above 1
        for scenario in builtin_scenarios().values():
            a = scenario.ensemble.size
            for n_runs in range(a, 40 * a + 1, a):
                assert exact_exceedance(scenario, n_runs, 0.0) <= 1.0

    @pytest.mark.parametrize("n_runs", [0, -3])
    def test_nonpositive_runs_rejected(self, n_runs):
        with pytest.raises(ValueError, match="n_runs must be positive"):
            min_passes(0.5, n_runs)
        with pytest.raises(ValueError, match="n_runs must be positive"):
            exact_exceedance(builtin_scenarios()["trine"], n_runs, 0.8)

    def test_budget_guard(self):
        scenario = builtin_scenarios()["trine"]
        with pytest.raises(BudgetExceededError, match="Monte Carlo"):
            pass_count_distribution(scenario, 300000)

    def test_budget_guard_takes_numpy_integers(self):
        # n_runs * (n_runs + 1) would wrap around in int64 arithmetic
        scenario = builtin_scenarios()["trine"]
        with pytest.raises(BudgetExceededError, match="n_runs=6000000000 "):
            pass_count_distribution(scenario, np.int64(6 * 10**9))

    def test_budget_guard_names_a_run_count_too_long_to_print_by_its_size(self):
        # str() refuses an integer of more than 4300 digits
        scenario = builtin_scenarios()["trine"]
        with pytest.raises(BudgetExceededError, match=r"^n_runs=<16612-bit integer> is above"):
            pass_count_distribution(scenario, 3 * 10**5000)

    def test_monte_carlo_agrees_with_oracle(self):
        scenario = builtin_scenarios()["trine"]
        n_trials = 50000
        exact = exact_exceedance(scenario, 12, 0.865)
        cfg = SimConfig(scenario=scenario, n_runs=12, n_trials=n_trials, seed=13)
        report = run_experiment(cfg, threshold=0.865)
        se = math.sqrt(exact * (1 - exact) / n_trials)
        assert abs(report.exceedance_frequency - exact) < 4 * se

    @pytest.mark.parametrize(
        "n_runs,threshold",
        [
            (12, np.nextafter(11 / 12, 1)),
            (12, np.nextafter(11 / 12, -1)),
            (12, np.nextafter(9 / 12, 1)),
            (30, np.nextafter(26 / 30, 1)),
            (30, 0.1 * 3),
        ],
    )
    def test_adversarial_thresholds_share_the_monte_carlo_cut(self, n_runs, threshold):
        # the cut is the smallest pass count whose fidelity reaches the
        # threshold in float arithmetic, exactly as the Monte Carlo compares
        scenario = builtin_scenarios()["trine"]
        cut = next((s for s in range(n_runs + 1) if s / n_runs >= threshold), n_runs + 1)
        assert min_passes(threshold, n_runs) == cut
        dist = pass_count_distribution(scenario, n_runs)
        exact = exact_exceedance(scenario, n_runs, threshold)
        assert exact == pytest.approx(dist[cut:].sum(), abs=1e-15)
        cfg = SimConfig(scenario=scenario, n_runs=n_runs, n_trials=20000, seed=14)
        report = run_experiment(cfg, threshold)
        hist = report.pass_count_histogram
        reached = hist[max(cut - report.pass_count_offset, 0) :]
        assert report.exceedance_count == reached.sum()
        # the bins whose fidelity reaches the threshold in float arithmetic
        passes = report.pass_count_offset + np.arange(hist.size)
        assert report.exceedance_count == hist[passes / n_runs >= threshold].sum()
        se = math.sqrt(exact * (1 - exact) / cfg.n_trials)
        assert abs(report.exceedance_frequency - exact) <= 5 * se

    def test_never_exceeds_log_bound(self):
        # every built-in over a geometric ladder up to the work budget, at its
        # default target and at seeded targets between its classical fidelity and 1
        rng = np.random.default_rng(31)
        for name, scenario in builtin_scenarios().items():
            a = scenario.ensemble.size
            f = stats.classical_fidelity(scenario.ensemble, scenario.povm)
            for m in np.unique(np.geomspace(1, 4400 // a, 12).astype(int)):
                n_runs = int(m) * a
                targets = rng.uniform(f, 1.0, size=4).tolist()
                for target in [scenario.target_fidelity] + targets:
                    exact = exact_exceedance(scenario, n_runs, target)
                    report = stats.scenario_bound_report(scenario, n_runs, target)
                    if exact > 0.0:
                        assert math.log10(exact) <= report.log10_bound + 1e-9, (
                            f"{name} N={n_runs} target={target!r}"
                        )


class TestLlnSweep:
    def test_orthonormal_ladder_has_no_slope(self):
        rows = lln_sweep(orthonormal_scenario(), [60, 600, 6000], n_trials=100, seed=1)
        assert [(row.mean_fidelity, row.rms_deviation) for row in rows] == [(1.0, 0.0)] * 3
        with pytest.raises(ValueError, match="nonzero rms"):
            rms_loglog_slope(rows)

    def test_single_point(self):
        scenario = builtin_scenarios()["trine"]
        rows = lln_sweep(scenario, [30], n_trials=2000, seed=1)
        assert len(rows) == 1
        assert rows[0].n_runs == 30

    def test_variance_halves_when_n_doubles(self):
        scenario = builtin_scenarios()["trine"]
        rows = lln_sweep(scenario, [60, 120], n_trials=100_000, seed=2)
        ratio = (rows[0].rms_deviation / rows[1].rms_deviation) ** 2
        assert 1.7 <= ratio <= 2.3

    def test_mean_fidelity_tracks_infinite_run_value(self):
        scenario = builtin_scenarios()["trine"]
        n_trials = 20000
        rows = lln_sweep(scenario, [30, 60], n_trials=n_trials, seed=3)
        for row in rows:
            q = pass_probabilities(scenario.ensemble, scenario.povm)
            var = float(np.mean(q * (1 - q))) / row.n_runs
            se = math.sqrt(var / n_trials)
            assert abs(row.mean_fidelity - 0.75) < 4 * se

    def test_rms_matches_bernoulli_variance_oracle(self):
        scenario = builtin_scenarios()["four-asymmetric"]
        n_trials = 50000
        rows = lln_sweep(scenario, [40], n_trials=n_trials, seed=4)
        q = pass_probabilities(scenario.ensemble, scenario.povm)
        predicted = math.sqrt(float(np.mean(q * (1 - q))) / 40.0)
        assert rows[0].rms_deviation == pytest.approx(predicted, rel=0.05)

    @pytest.mark.parametrize("ladder", [[30], [60, 60]], ids=["one-point", "one-distinct-n"])
    def test_slope_fit_requires_two_points(self, ladder):
        scenario = builtin_scenarios()["trine"]
        rows = lln_sweep(scenario, ladder, n_trials=500, seed=5)
        with pytest.raises(ValueError, match="two ladder points"):
            rms_loglog_slope(rows)

    def test_zero_rms_has_no_slope(self):
        # the swapped measurement never passes (q = [0, 0]): log10(0) has no fit
        swapped = Povm(np.array([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])]))
        scenario = custom_scenario(orthonormal_scenario().ensemble, 1.0, swapped)
        rows = lln_sweep(scenario, [2, 4, 8], n_trials=100, seed=5)
        assert [row.rms_deviation for row in rows] == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="nonzero rms"):
            rms_loglog_slope(rows)

    def test_rejects_indivisible_ladder(self):
        scenario = builtin_scenarios()["trine"]
        with pytest.raises(PreconditionError, match="multiple"):
            lln_sweep(scenario, [30, 100], n_trials=500, seed=6)

    def test_whole_ladder_checked_before_sampling(self, monkeypatch):
        def refuse(cfg):
            raise AssertionError(f"sampled N={cfg.n_runs} before the ladder was checked")

        monkeypatch.setattr(simulator, "_total_histogram", refuse)
        scenario = builtin_scenarios()["trine"]
        with pytest.raises(PreconditionError, match="6001"):
            lln_sweep(scenario, [6000, 6001], n_trials=300_000, seed=6)

    def test_certain_passes_have_no_spread(self):
        scenario = orthonormal_scenario()
        f_th = stats.classical_fidelity(scenario.ensemble, scenario.povm)
        (row,) = lln_sweep(scenario, [10], n_trials=1000, seed=7)
        assert row.mean_fidelity == 1.0
        assert row.mean_abs_deviation == row.rms_deviation == 1.0 - f_th

    def test_memory_stays_bounded_in_the_trial_count(self):
        scenario = builtin_scenarios()["trine"]
        n_runs, n_trials = 60, 10**12
        tracemalloc.start()
        try:
            (row,) = lln_sweep(scenario, [n_runs], n_trials, seed=19)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        se = math.sqrt(0.75 * 0.25 / n_runs / n_trials)
        assert abs(row.mean_fidelity - 0.75) < 5 * se


class TestPassCountLaw:
    @pytest.mark.parametrize("name", list(builtin_scenarios()))
    def test_matches_exact_distribution(self, name):
        scenario = builtin_scenarios()[name]
        a = scenario.ensemble.size
        q = pass_probabilities(scenario.ensemble, scenario.povm)
        for n_runs in (a, 7 * a, 600 // a * a, 4400 // a * a):
            lo, pmf = simulator._pass_count_law(simulator._placed([(n_runs // a, qi) for qi in q.tolist()]))
            dist = pass_count_distribution(scenario, n_runs)
            assert 0 <= lo and lo + pmf.size <= n_runs + 1
            assert np.all(np.abs(pmf - dist[lo : lo + pmf.size]) <= 1e-14)
            assert dist[:lo].sum() + dist[lo + pmf.size :].sum() <= 1e-14

    @pytest.mark.parametrize(
        "name,n_runs", [("trine", 60), ("qutrit-mubs", 36), ("four-asymmetric", 40)]
    )
    def test_histograms_fit_the_exact_law(self, name, n_runs):
        # pooled chi-square over seeds; bins expecting fewer than 5 trials merged
        scenario = builtin_scenarios()[name]
        dist = pass_count_distribution(scenario, n_runs)
        n_trials, chi2, dof = 100_000, 0.0, 0
        for seed in range(20):
            cfg = SimConfig(scenario=scenario, n_runs=n_runs, n_trials=n_trials, seed=seed)
            lo, counts = simulator._total_histogram(cfg)
            hist = np.zeros(n_runs + 1)
            hist[lo : lo + counts.size] = counts
            expected = n_trials * dist
            big = expected >= 5
            observed = np.append(hist[big], hist[~big].sum())
            wanted = np.append(expected[big], expected[~big].sum())
            chi2 += float(np.sum((observed - wanted) ** 2 / wanted))
            dof += observed.size - 1
        assert abs(chi2 - dof) / math.sqrt(2 * dof) < 5

    @pytest.mark.parametrize("n_trials", [1, 1000, 10**15, 2**63 - 1])
    @pytest.mark.parametrize("name", ["trine", "qutrit-mubs", "helstrom"])
    def test_histograms_are_counts_of_every_trial(self, name, n_trials):
        scenario = builtin_scenarios()[name]
        a = scenario.ensemble.size
        for n_runs in (a, 60 // a * a, 6000):
            cfg = SimConfig(scenario=scenario, n_runs=n_runs, n_trials=n_trials, seed=5)
            lo, counts = simulator._total_histogram(cfg)
            assert counts.dtype == np.int64
            assert np.all(counts >= 0)
            assert int(counts.sum()) == n_trials
            assert 0 <= lo and lo + counts.size <= n_runs + 1


class TestStreams:
    def test_blocks_are_disjoint(self):
        a = stream(1, 5, 0).random(8)
        b = stream(1, 5, 1).random(8)
        assert not np.allclose(a, b)

    def test_reproducible(self):
        assert np.array_equal(stream(42, 7, 3).random(16), stream(42, 7, 3).random(16))

    def test_seed_and_subkey_matter(self):
        base = stream(1, 1, 0).random(8)
        assert not np.allclose(base, stream(2, 1, 0).random(8))
        assert not np.allclose(base, stream(1, 2, 0).random(8))
        # seeds at or above 2**63 must not collapse onto one key
        assert not np.allclose(stream(2**63 + 1).random(8), stream(2**63 + 2).random(8))

    @pytest.mark.parametrize(
        "key",
        [{"seed": -1}, {"seed": 2**64}, {"subkey": -1}, {"subkey": 2**64},
         {"block": -1}, {"block": 2**64}],
        ids=lambda key: "-".join(f"{k}={v}" for k, v in key.items()),
    )
    def test_keys_outside_64_bits_are_refused(self, key):
        # masked to 64 bits, stream(-1) would draw stream(2**64 - 1)'s numbers
        with pytest.raises(ValueError, match=f"{next(iter(key))} must lie in"):
            stream(**{"seed": 0, **key})

    @pytest.mark.parametrize(
        "seed, shown",
        [(10**5000, "<16610-bit integer>"), (-(10**5000), "<negative 16610-bit integer>")],
        ids=["10**5000", "-10**5000"],
    )
    def test_keys_too_long_to_print_are_named_by_size(self, seed, shown):
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), got {shown}$"):
            stream(seed)

    @pytest.mark.parametrize(
        "keys,pinned",
        [
            ((2**64 - 1, 2**64 - 1, 2**64 - 1),
             ["0x1.5b62ee8f7696dp-1", "0x1.cb1c762e370b2p-2", "0x1.1d030cf020998p-3", "0x1.26d277a797054p-2"]),
            ((2**63 + 1,),
             ["0x1.ac31ef3cd5505p-1", "0x1.1cb49945699c0p-3", "0x1.058f985acf858p-4", "0x1.fa25970c46c5ep-1"]),
            ((5, 600, 3),
             ["0x1.1921c9d3bb7a6p-1", "0x1.a45a57e55d1d8p-4", "0x1.b58bb715b72ccp-1", "0x1.4ab0206ccf1e0p-4"]),
        ],
        ids=["all-top", "seed-2**63+1", "5-600-3"],
    )
    def test_pinned_draws_at_the_key_edges(self, keys, pinned):
        # a swapped key or counter word, or a lost high bit, moves these
        assert [float.hex(u) for u in stream(*keys).random(4).tolist()] == pinned

    def test_keys_at_the_64_bit_edges_are_kept(self):
        top = 2**64 - 1
        draws = stream(top, top, top).random(4)
        assert np.array_equal(draws, stream(top, top, top).random(4))
        assert not np.allclose(stream(0).random(8), stream(top).random(8))


def mixed_draws(rng):
    """Draws of each kind the library makes, and uint32s that split a 64-bit word."""
    return [
        rng.integers(0, 2**32, 3, dtype=np.uint32).tolist(),
        [float.hex(u) for u in rng.random(5).tolist()],
        rng.multinomial(10**6, [0.2, 0.3, 0.5]).tolist(),
        rng.multinomial([40, 50], [0.25, 0.75]).tolist(),
    ]


class TestThreadStream:
    """The library's per-thread generator, re-keyed, draws what ``stream`` draws."""

    EDGES = (0, 1, 2**64 - 1)

    @pytest.mark.parametrize("keys", list(itertools.product(EDGES, repeat=3)),
                             ids=lambda keys: "-".join(map(str, keys)))
    def test_rekeyed_draws_equal_a_fresh_stream(self, keys):
        assert mixed_draws(simulator._thread_stream(*keys)) == mixed_draws(stream(*keys))

    @pytest.mark.parametrize("keys", [(0, 0, 0), (2**64 - 1, 1, 2**64 - 1)], ids=["zero", "edges"])
    def test_rekeying_drops_a_half_used_buffer(self, keys):
        used = simulator._thread_stream(5, 6, 7)
        used.integers(0, 2**32, 3, dtype=np.uint32)
        state = used.bit_generator.state
        assert (state["buffer_pos"], state["has_uint32"]) == (2, 1)
        rng = simulator._thread_stream(*keys)
        assert rng is used  # one generator per thread, re-keyed
        assert mixed_draws(rng) == mixed_draws(stream(*keys))
        assert rng.bit_generator.state["state"]["key"].tolist() == list(keys[:2])

    def test_each_thread_has_its_own_generator(self):
        seen = []
        thread = threading.Thread(target=lambda: seen.append(simulator._thread_stream(0)))
        thread.start()
        thread.join(timeout=60)
        assert seen and seen[0] is not simulator._thread_stream(0)

    def test_threads_draw_the_serial_results(self):
        scenario = builtin_scenarios()["trine"]
        jobs = [
            lambda: lln_sweep(scenario, [60, 600, 6000], 1000, seed=3),
            lambda: lln_sweep(scenario, [120, 1200], 10**6, seed=4),
            # 70000 trials are three blocks of at most 32768, then the outcome split
            lambda: report_fields(run_experiment(SimConfig(scenario, 60, 70_000, seed=9), 0.8)),
            lambda: report_fields(run_experiment(SimConfig(scenario, 90, 70_000, 2, True), 0.8)),
        ]
        serial = [job() for job in jobs]
        results = [[] for _ in jobs]
        errors = []

        def work(job, out):
            try:
                for _ in range(5):
                    out.append(job())
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work, args=pair) for pair in zip(jobs, results)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [[want] * 5 for want in serial]
