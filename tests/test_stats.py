import math
import re

import numpy as np
import pytest

from reference_values import (
    GOLDEN_BOUNDS,
    log10_close,
    mp_log10_bound,
    mp_normal_cdf,
)
from telecert import ensembles
from telecert.discrimination import Povm, square_root_povm
from telecert.errors import PreconditionError
from telecert.scenarios import builtin_scenarios, custom_scenario
from telecert.simulator import exact_exceedance
from telecert.stats import (
    HypothesisConfig,
    bound_report,
    classical_fidelity,
    hoeffding_generic,
    mu_of,
    scenario_bound_report,
    t_of,
    type_one_error,
    type_two_error,
)


def brute_force_fidelity(ensemble, povm):
    """Independent evaluation with numpy.linalg only, plain loops."""
    total = 0.0
    for i, psi in enumerate(ensemble.states):
        for l, phi in enumerate(ensemble.states):
            outcome = (psi.conj() @ povm.elements[l] @ psi).real
            overlap = abs(np.vdot(psi, phi)) ** 2
            total += ensemble.priors[i] * outcome * overlap
    return total


def bound_at(mu, t, a, n_runs):
    """``bound_report`` at the fidelities that per-variable mean and offset imply."""
    return bound_report(1.0 + (a - 1) * mu, 1.0 + (a - 1) * (mu + t), a, n_runs)


class TestClassicalFidelity:
    def test_trine(self):
        scenario = builtin_scenarios()["trine"]
        assert classical_fidelity(scenario.ensemble, scenario.povm) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_qubit_mubs(self):
        scenario = builtin_scenarios()["qubit-mubs"]
        assert classical_fidelity(scenario.ensemble, scenario.povm) == pytest.approx(
            2.0 / 3.0, abs=1e-12
        )

    def test_qutrit_mubs(self):
        scenario = builtin_scenarios()["qutrit-mubs"]
        assert classical_fidelity(scenario.ensemble, scenario.povm) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_four_asymmetric(self):
        scenario = builtin_scenarios()["four-asymmetric"]
        f = classical_fidelity(scenario.ensemble, scenario.povm)
        assert f == pytest.approx(0.777, abs=5e-4)
        assert f == pytest.approx(
            brute_force_fidelity(scenario.ensemble, scenario.povm), abs=1e-12
        )

    def test_helstrom_quarter_turn(self):
        scenario = builtin_scenarios()["helstrom"]
        f = classical_fidelity(scenario.ensemble, scenario.povm)
        s = math.sin(math.pi / 4.0)
        assert f == pytest.approx(1.0 - s * s * (1.0 - s) / 2.0, abs=1e-12)
        assert f == pytest.approx(0.9268, abs=5e-5)

    def test_orthonormal_basis_is_perfect(self):
        basis = ensembles.Ensemble(np.eye(2, dtype=complex), np.array([0.5, 0.5]))
        povm = square_root_povm(basis)
        assert classical_fidelity(basis, povm) == pytest.approx(1.0, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        states = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        states /= np.linalg.norm(states, axis=1)[:, None]
        ens = ensembles.Ensemble(states, np.full(4, 0.25))
        povm = square_root_povm(ens)
        f = classical_fidelity(ens, povm)
        for _ in range(5):
            perm = rng.permutation(4)
            ens_p = ensembles.Ensemble(states[perm], np.full(4, 0.25))
            povm_p = Povm(povm.elements[perm])
            assert classical_fidelity(ens_p, povm_p) == pytest.approx(f, abs=1e-12)


class TestMuAndT:
    @pytest.mark.parametrize(
        "f,a,expected",
        [(0.75, 3, -0.125), (2.0 / 3.0, 6, -1.0 / 15.0), (1.0, 5, 0.0)],
    )
    def test_mu_values(self, f, a, expected):
        assert mu_of(f, a) == pytest.approx(expected, abs=1e-15)

    def test_mu_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = int(rng.integers(2, 13))
            f = float(rng.uniform(0.0, 1.0))
            assert 1.0 + (a - 1) * mu_of(f, a) == pytest.approx(f, abs=1e-12)

    @pytest.mark.parametrize(
        "target,f,a,expected,tol",
        [
            (0.865, 0.75, 3, 0.0575, 1e-12),
            (0.751, 0.5, 12, 0.251 / 11.0, 1e-12),
            (0.98, 0.9268, 2, 0.0532, 1e-12),
        ],
    )
    def test_t_values(self, target, f, a, expected, tol):
        assert t_of(target, f, a) == pytest.approx(expected, abs=tol)

    def test_t_rejects_target_below_classical(self):
        with pytest.raises(PreconditionError, match="does not exceed"):
            t_of(0.7, 0.75, 3)
        with pytest.raises(PreconditionError, match="does not exceed"):
            t_of(0.75, 0.75, 3)

    @pytest.mark.parametrize(
        "f_target, f_th_cla, message",
        [
            (1.6, math.nan, "fidelity must lie in"),
            (1.6, math.inf, "fidelity must lie in"),
            (1.6, -math.inf, "fidelity must lie in"),
            (1.6, 1.5, "fidelity must lie in"),
            (math.nan, 0.75, "target fidelity must be finite"),
            (-math.inf, 0.75, "target fidelity must be finite"),
        ],
    )
    def test_t_rejects_bad_fidelities_with_value_error(self, f_target, f_th_cla, message):
        # mu_of's check of the classical fidelity is t_of's
        with pytest.raises(ValueError, match=message):
            t_of(f_target, f_th_cla, 3)


class TestBoundRefusals:
    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((0.75, 0.865, 3, -5), ValueError, "n_runs must be positive, got -5"),
            ((0.75, 0.865, 3, -(10**5000)), ValueError,
             # str() refuses an integer of more than 4300 digits
             "n_runs must be positive, got <negative 16610-bit integer>"),
            ((0.75, 0.865, 3, 2**1023), ValueError,
             "n_runs is too large: (a - 1) * n_runs overflows a float"),
            ((1.0, 1.5, 3, 10), PreconditionError,
             "classical strategy is already perfect (fidelity 1); no quantum advantage is testable"),
            ((0.0, 0.5, 2, 10), ValueError,
             "classical fidelity 0.0 with a=2 leaves mu = (f - 1)/(a - 1) = -1.0 "
             "outside (-1, 0), where the bound is defined"),
            ((-1e-9, 0.5, 2, 10), ValueError,
             "classical fidelity -1e-09 with a=2 leaves mu = (f - 1)/(a - 1) = -1.000000001 "
             "outside (-1, 0), where the bound is defined"),
            ((1.0 + 1e-9, 1.5, 3, 10), ValueError,
             "classical fidelity 1.000000001 with a=3 leaves mu = (f - 1)/(a - 1) = 5.000000413701855e-10 "
             "outside (-1, 0), where the bound is defined"),
            ((0.0, 5e-324, 3, 10), PreconditionError,
             "exceedance offset t must be positive, got 0.0; for t <= 0 the bound is trivially 1"),
            ((0.75, 1.0, 3, 10), PreconditionError,
             "t=0.125 is outside the bound's validity range 0 < t < 0.125; "
             "the implied target fidelity reaches or exceeds 1"),
            ((0.75, 1.15, 3, 10), PreconditionError,
             "t=0.19999999999999996 is outside the bound's validity range 0 < t < 0.125; "
             "the implied target fidelity reaches or exceeds 1"),
        ],
        ids=["n_runs", "n_runs-too-long-to-print", "(a-1)N-beyond-float", "already-perfect",
             "mu-at-minus-one", "mu-below-minus-one", "mu-above-zero", "t-underflows", "t-at-validity-edge",
             "t-beyond-validity-edge"],
    )
    def test_each_refusal_has_its_class_and_message(self, args, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            bound_report(*args)

    def test_largest_variable_count_is_still_evaluated(self):
        # (a - 1) * n_runs is the largest double
        largest = int(np.finfo(float).max) // 2
        assert -math.inf < bound_report(0.75, 0.865, 3, largest).log10_bound < -1e300

    @pytest.mark.parametrize("a", [3, 12])
    def test_fidelities_within_the_tolerance_below_zero_get_a_row(self, a):
        # mu_of admits [-1e-9, 1 + 1e-9]; above 1, mu is positive
        report = bound_report(-1e-9, 0.5, a, 10)
        assert -math.inf < report.log10_bound <= 0.0
        with pytest.raises(ValueError, match=rf"^classical fidelity 1.000000001 with a={a} leaves mu "):
            bound_report(1.0 + 1e-9, 1.5, a, 10)


class TestHoeffdingBound:
    @pytest.mark.parametrize(
        "key,rows", [(k, v) for k, v in GOLDEN_BOUNDS.items()]
    )
    def test_golden_tables(self, key, rows):
        name, target = key
        scenario = builtin_scenarios()[name]
        for n_runs, golden in rows:
            report = scenario_bound_report(scenario, n_runs, target)
            assert log10_close(report.log10_bound, golden), (
                f"{name} N={n_runs}: log10 {report.log10_bound} vs "
                f"golden {math.log10(golden)}"
            )

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a = int(rng.integers(2, 13))
            mu = float(rng.uniform(-1.0 / (a - 1), -1e-4))
            t = float(rng.uniform(1e-6, -mu * 0.999))
            n = int(rng.integers(1, 5000))
            report = bound_at(mu, t, a, n)
            want = mp_log10_bound(report.mu, report.t, a, n)
            assert report.log10_bound == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert report.log10_bound <= 0.0

    def test_log_uniform_offsets_match_oracle(self):
        # t log-uniform over six decades below its ceiling -mu: small and
        # near-ceiling offsets are where rounding in the tail's terms shows
        rng = np.random.default_rng(21)
        for _ in range(2000):
            a = int(rng.integers(2, 13))
            mu = float(rng.uniform(-1.0 / (a - 1), -1e-4))
            t = float(-mu * 10.0 ** rng.uniform(-6.0, 0.0))
            if not t < -mu:
                continue
            n = int(rng.integers(1, 5000))
            report = bound_at(mu, t, a, n)
            want = mp_log10_bound(report.mu, report.t, a, n)
            assert report.log10_bound == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", list(builtin_scenarios()))
    def test_targets_ulps_below_unity(self, name, k):
        # every t < -mu that bound_report admits gives a finite bound
        report = scenario_bound_report(builtin_scenarios()[name], 10, 1.0 - k * 2.0**-53)
        assert math.isfinite(report.log10_bound)
        want = mp_log10_bound(report.mu, report.t, report.a, 10)
        assert report.log10_bound == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n_runs", [1, 100, 10**6])
    def test_never_above_one_just_above_the_classical_fidelity(self, n_runs):
        # rounding in the tail's exponent is positive for targets within
        # about 2000 ulps above f, where the exact exponent is a tiny negative
        for scenario in builtin_scenarios().values():
            target = scenario.classical_fidelity
            for _ in range(2000):
                target = math.nextafter(target, 1.0)
                report = scenario_bound_report(scenario, n_runs, target)
                assert report.log10_bound <= 0.0, (scenario.name, target)
                assert report.bound <= 1.0, (scenario.name, target)

    def test_vanishing_t_limit(self):
        report_small = bound_at(-0.125, 1e-9, 3, 100).log10_bound
        assert -1e-6 < report_small <= 0.0

    def test_monotone_in_n_and_t(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a = int(rng.integers(2, 13))
            mu = float(rng.uniform(-1.0 / (a - 1), -1e-3))
            t = float(rng.uniform(1e-5, -mu * 0.9))
            n = int(rng.integers(1, 2000))
            base = bound_at(mu, t, a, n).log10_bound
            more_runs = bound_at(mu, t, a, 2 * n).log10_bound
            bigger_t = bound_at(mu, min(t * 1.5, -mu * 0.99), a, n).log10_bound
            assert more_runs < base
            assert bigger_t < base

    def test_bound_report_fields(self):
        report = bound_report(0.75, 0.865, 3, 100)
        assert report.f_th_cla == pytest.approx(1.0 + 2 * report.mu, abs=1e-12)
        assert report.bound == pytest.approx(10.0**report.log10_bound)
        assert report.log10_bound <= 0.0

    def test_linear_bound_underflows_gracefully(self):
        report = bound_report(0.75, 0.865, 3, 500_000)
        assert report.bound == 0.0
        assert math.isfinite(report.log10_bound)

    def test_scenario_report_rejects_non_uniform_priors(self):
        states = np.eye(2, dtype=complex)
        ens = ensembles.Ensemble(states, np.array([0.7, 0.3]))
        scenario = custom_scenario(ens, target_fidelity=0.999)
        with pytest.raises(PreconditionError, match="uniform priors"):
            scenario_bound_report(scenario, 100)

    def test_orthonormal_states_leave_no_target_above_the_classical_fidelity(self):
        # q = 1 exactly for both states, so F = 1 and the refusal is not a validity-range one
        scenario = custom_scenario(ensembles.Ensemble(np.eye(2), np.array([0.5, 0.5])), 1.0)
        with pytest.raises(PreconditionError, match="^target fidelity 1.0 does not exceed the classical fidelity 1.0;"):
            scenario_bound_report(scenario, 100)

    @pytest.mark.parametrize("n_runs", [math.nan, math.inf, 60.5, 60.0, True])
    def test_non_integral_run_count_is_refused(self, n_runs):
        with pytest.raises(TypeError, match="integer"):
            bound_report(0.75, 0.865, 3, n_runs)

    #: Every entry point that takes an ensemble size a.
    ENSEMBLE_SIZE_CALLS = [
        lambda a: mu_of(0.75, a),
        lambda a: t_of(0.865, 0.75, a),
        lambda a: bound_report(0.75, 0.865, a, 100),
    ]
    ENSEMBLE_SIZE_CALL_IDS = ["mu_of", "t_of", "bound_report"]

    @pytest.mark.parametrize("a", [2.5, 3.0, math.inf, math.nan, True])
    @pytest.mark.parametrize("call", ENSEMBLE_SIZE_CALLS, ids=ENSEMBLE_SIZE_CALL_IDS)
    def test_non_integral_ensemble_size_is_refused(self, call, a):
        with pytest.raises(TypeError, match="integer"):
            call(a)

    @pytest.mark.parametrize("call", ENSEMBLE_SIZE_CALLS, ids=ENSEMBLE_SIZE_CALL_IDS)
    def test_ensemble_size_beyond_float_is_a_value_error(self, call):
        with pytest.raises(ValueError, match="too large"):
            call(10**400)

    def test_numpy_integer_ensemble_size_is_stored_as_int(self):
        report = bound_report(0.75, 0.865, np.int64(3), np.int64(100))
        assert type(report.a) is int and type(report.n_runs) is int
        assert report == bound_report(0.75, 0.865, 3, 100)

    def test_numpy_integer_run_count_does_not_wrap(self):
        # (a - 1) * N in int64 would wrap past 2**63
        row = bound_report(0.75, 0.865, 3, np.int64(2**62))
        assert row.log10_bound == bound_report(0.75, 0.865, 3, 2**62).log10_bound


def adaptive_both_pass(scenario) -> float:
    """P(both runs pass) for a two-state box with memory at N = 2.

    The fixed schedule prepares each state once, in random order, so the
    box knows run 2 carries the state run 1 did not.  Run 1 is measured
    with ``scenario.povm``; run 2 with the Helstrom projectors of
    w0 psi0 - w1 psi1, w the posterior on run 2's state given run 1's
    outcome.  Both runs resend the ensemble state their outcome names.
    """
    psi = scenario.ensemble.states
    overlap = np.abs(psi.conj() @ psi.T) ** 2
    born = np.einsum("id,kde,ie->ik", psi.conj(), scenario.povm.elements, psi).real
    both = 0.0
    for first, second in ((0, 1), (1, 0)):
        for outcome in (0, 1):
            w = born[::-1, outcome] / born[:, outcome].sum()  # w[j] = P(run 1 held 1 - j | outcome)
            _, v = np.linalg.eigh(w[0] * np.outer(psi[0], psi[0].conj()) - w[1] * np.outer(psi[1], psi[1].conj()))
            basis = [v[:, 1], v[:, 0]]  # outcome 0, the positive eigenvalue, resends psi0
            second_pass = sum(
                abs(np.vdot(basis[m], psi[second])) ** 2 * overlap[second, m] for m in (0, 1)
            )
            both += 0.5 * born[first, outcome] * overlap[first, outcome] * second_pass
    return both


class TestBoxWithMemory:
    """The bound certifies the scenario's memoryless strategy, not every box."""

    def test_adaptive_second_run_beats_the_bound_near_one(self):
        scenario = builtin_scenarios()["helstrom"]
        both_pass = adaptive_both_pass(scenario)
        assert both_pass == pytest.approx(0.908493, abs=1e-6)
        # both runs passing is the event fidelity >= target at N = 2
        assert both_pass > exact_exceedance(scenario, 2, 1.0)  # memoryless: 0.858915
        assert both_pass <= scenario_bound_report(scenario, 2, 0.98).bound  # 0.944089
        assert both_pass > scenario_bound_report(scenario, 2, 0.999).bound  # 0.868188


class TestHoeffdingGeneric:
    def test_specialization_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            a = int(rng.integers(2, 13))
            mu = float(rng.uniform(-1.0 / (a - 1), -1e-4))
            t = float(rng.uniform(1e-6, -mu * 0.999))
            n = int(rng.integers(1, 3000))
            report = bound_at(mu, t, a, n)
            specialized = report.log10_bound
            generic = hoeffding_generic(report.mu + 1.0, report.t, (a - 1) * n)
            assert abs(specialized - generic) < 1e-12 * max(1.0, abs(specialized))

    def test_limit_toward_full_range(self):
        # t' -> (1 - mu')^- with mu' = 1/2: bound tends to 1/2
        val = hoeffding_generic(0.5, 0.5 - 1e-12, 1)
        assert val == pytest.approx(-math.log10(2.0), abs=1e-9)

    def test_zero_variables(self):
        assert hoeffding_generic(0.5, 0.25, 0) == 0.0

    def test_tiny_offsets_never_above_one(self):
        rng = np.random.default_rng(21)
        for _ in range(20000):
            mu_prime = float(rng.uniform(1e-3, 1.0 - 1e-3))
            t_prime = float(10.0 ** rng.uniform(-17.0, -14.0))
            m = int(rng.integers(0, 10**6))
            assert hoeffding_generic(mu_prime, t_prime, m) <= 0.0, (mu_prime, t_prime, m)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            hoeffding_generic(0.5, 0.5, 10)
        with pytest.raises(PreconditionError):
            hoeffding_generic(0.5, 0.0, 10)
        with pytest.raises(PreconditionError):
            hoeffding_generic(1.0, 0.1, 10)
        # 1 - mu' rounds to 1, where the complement-rate tail is undefined
        with pytest.raises(PreconditionError, match="below 1"):
            hoeffding_generic(1e-20, 0.5, 10)
        with pytest.raises(ValueError):
            hoeffding_generic(0.5, 0.1, -1)

    @pytest.mark.parametrize(
        "mu_prime, t_prime",
        [(math.nan, 0.25), (0.5, math.nan), (math.inf, 0.25), (0.5, -math.inf)],
    )
    def test_non_finite_mean_or_offset_is_a_value_error(self, mu_prime, t_prime):
        with pytest.raises(ValueError, match="must be finite"):
            hoeffding_generic(mu_prime, t_prime, 10)

    def test_variable_count_beyond_float_rejected(self):
        # the largest double is still evaluated
        assert -math.inf < hoeffding_generic(0.5, 0.1, int(np.finfo(float).max)) < -1e300
        with pytest.raises(ValueError, match=r"^m is too large: it overflows a float$"):
            hoeffding_generic(0.5, 0.1, 10**400)

    @pytest.mark.parametrize("m", [math.nan, math.inf, 10.5, 10.0, True])
    def test_non_integral_variable_count_is_refused(self, m):
        with pytest.raises(TypeError, match="integer"):
            hoeffding_generic(0.5, 0.25, m)


class TestHypothesisErrors:
    def test_boundary_critical_value(self):
        cfg = HypothesisConfig(f_qm=0.865, f_cla=0.75, f_crit=0.865, sigma=0.3, n_runs=50)
        assert type_one_error(cfg) == pytest.approx(0.5, abs=1e-15)
        cfg = HypothesisConfig(f_qm=0.865, f_cla=0.75, f_crit=0.75, sigma=0.3, n_runs=50)
        assert type_two_error(cfg) == pytest.approx(0.5, abs=1e-15)

    def test_symmetric_midpoint_balances_errors(self):
        for n in (25, 50, 100, 200):
            cfg = HypothesisConfig(
                f_qm=0.865, f_cla=0.75, f_crit=0.8075, sigma=0.3, n_runs=n
            )
            assert abs(type_one_error(cfg) - type_two_error(cfg)) < 1e-12

    def test_worked_example_against_oracle(self):
        cfg = HypothesisConfig(
            f_qm=0.865, f_cla=0.75, f_crit=0.8075, sigma=0.3, n_runs=100
        )
        z = (0.8075 - 0.865) * 10.0 / 0.3
        assert type_one_error(cfg) == pytest.approx(mp_normal_cdf(z), abs=1e-13)
        assert type_two_error(cfg) == pytest.approx(1.0 - mp_normal_cdf(-z), abs=1e-13)
        # the rounded headline value
        assert type_one_error(cfg) == pytest.approx(0.02762, abs=1e-4)

    def test_errors_vanish_with_n(self):
        previous = 1.0
        for n in (10, 100, 1000, 10000):
            cfg = HypothesisConfig(
                f_qm=0.865, f_cla=0.75, f_crit=0.8075, sigma=0.3, n_runs=n
            )
            alpha = type_one_error(cfg)
            assert alpha < previous
            previous = alpha
        assert previous < 1e-20

    def test_complement_and_range(self):
        cfg = HypothesisConfig(f_qm=0.9, f_cla=0.7, f_crit=0.8, sigma=0.4, n_runs=64)
        alpha = type_one_error(cfg)
        beta = type_two_error(cfg)
        assert 0.0 < alpha < 1.0
        assert 0.0 < beta < 1.0
        assert alpha + (1.0 - alpha) == 1.0

    def test_invalid_configs(self):
        with pytest.raises(ValueError, match="between"):
            HypothesisConfig(f_qm=0.8, f_cla=0.7, f_crit=0.9, sigma=0.3, n_runs=10)
        with pytest.raises(ValueError, match="between"):
            HypothesisConfig(f_qm=0.8, f_cla=0.7, f_crit=0.6, sigma=0.3, n_runs=10)
        with pytest.raises(ValueError, match="sigma"):
            HypothesisConfig(f_qm=0.8, f_cla=0.7, f_crit=0.75, sigma=0.0, n_runs=10)
        with pytest.raises(ValueError, match="n_runs"):
            HypothesisConfig(f_qm=0.8, f_cla=0.7, f_crit=0.75, sigma=0.3, n_runs=0)
        with pytest.raises(ValueError, match="n_runs is too large"):
            HypothesisConfig(f_qm=0.8, f_cla=0.7, f_crit=0.75, sigma=0.3, n_runs=2**1024)
        for means in ((math.inf, 0.7, 0.8), (0.9, math.nan, 0.8), (0.9, 0.7, -math.inf)):
            f_qm, f_cla, f_crit = means
            with pytest.raises(ValueError, match="must be finite"):
                HypothesisConfig(f_qm=f_qm, f_cla=f_cla, f_crit=f_crit, sigma=0.3, n_runs=10)

    @pytest.mark.parametrize("value", [-0.25, 1.25])
    @pytest.mark.parametrize("name", ["f_qm", "f_cla", "f_crit"])
    def test_means_outside_the_unit_interval_are_refused(self, name, value):
        means = {"f_qm": 0.9, "f_cla": 0.7, "f_crit": 0.8, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\], got {value}$"):
            HypothesisConfig(**means, sigma=0.3, n_runs=10)
        # the ends of the interval stay admitted
        HypothesisConfig(f_qm=1.0, f_cla=0.0, f_crit=0.0, sigma=0.3, n_runs=10)

    @pytest.mark.parametrize("n_runs", [math.nan, math.inf, 60.5, 60.0, True])
    def test_non_integral_run_count_is_refused(self, n_runs):
        with pytest.raises(TypeError, match="integer"):
            HypothesisConfig(f_qm=0.9, f_cla=0.7, f_crit=0.8, sigma=0.5, n_runs=n_runs)
