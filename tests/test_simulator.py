import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from telecert import ensembles, simulator, stats
from telecert.discrimination import pass_probabilities
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
        scenario = builtin_scenarios()["trine"]
        with pytest.raises(ValueError, match="seed"):
            SimConfig(scenario=scenario, n_runs=12, n_trials=10, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            SimConfig(scenario=scenario, n_runs=12, n_trials=10, seed=1 << 64)

    def test_trial_count_range(self):
        scenario = builtin_scenarios()["trine"]
        for n_trials in (0, 1 << 63):
            with pytest.raises(ValueError, match="n_trials"):
                SimConfig(scenario=scenario, n_runs=12, n_trials=n_trials, seed=0)
        cfg = SimConfig(scenario=scenario, n_runs=12, n_trials=(1 << 63) - 1, seed=0)
        assert cfg.n_trials == (1 << 63) - 1

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


def binomial_pmf(m, p):
    """Binomial(m, p) pmf from lgamma, independent of the sampler's recurrence."""
    k = np.arange(m + 1)
    log_comb = np.array([math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1) for j in k])
    return np.exp(log_comb + k * math.log(p) + (m - k) * math.log1p(-p))


class TestBinomialKernel:
    @pytest.mark.parametrize("m", [1, 7, 20, 200, 2000])
    @pytest.mark.parametrize("p", [1e-3, 0.02, 0.3, 0.5, 0.75, 0.7499999999999999, 0.999])
    def test_matches_exact_pmf(self, m, p):
        size = 200_000
        draws = simulator._binomial(stream(m, int(p * 1e6)), m, p, size)
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
        assert np.array_equal(simulator._binomial(rng, m, 0.0, 5), np.zeros(5))
        assert np.array_equal(simulator._binomial(rng, m, 1.0, 5), np.full(5, m))

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
            passes, _, _ = simulator._draw_trials(rng, n, n_runs, q)
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
        # the schedule is checked before the cut, as in pass_count_distribution
        with pytest.raises(PreconditionError, match="positive multiple"):
            exact_exceedance(builtin_scenarios()["trine"], n_runs, 0.8)

    def test_budget_guard(self):
        scenario = builtin_scenarios()["trine"]
        with pytest.raises(BudgetExceededError, match="Monte Carlo"):
            pass_count_distribution(scenario, 300000)

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

    def test_slope_fit_requires_two_points(self):
        scenario = builtin_scenarios()["trine"]
        rows = lln_sweep(scenario, [30], n_trials=500, seed=5)
        with pytest.raises(ValueError, match="two ladder points"):
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
            lo, pmf = simulator._pass_count_law(q, n_runs // a)
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
