import math

import numpy as np
import pytest

from telecert import ensembles, linalg
from telecert.discrimination import (
    Povm,
    born_matrix,
    error_probability,
    helstrom_povm,
    pass_rates,
    square_root_povm,
)
from telecert.errors import PreconditionError
from telecert.scenarios import builtin_scenarios, custom_scenario


def random_ensemble(rng, a, d):
    states = rng.normal(size=(a, d)) + 1j * rng.normal(size=(a, d))
    states /= np.linalg.norm(states, axis=1)[:, None]
    return ensembles.Ensemble(states, np.full(a, 1.0 / a))


def assert_povm_valid(povm):
    d = povm.dim
    for el in povm.elements:
        w, _ = linalg.eigh(el)
        assert w[0] >= -1e-10
    assert np.max(np.abs(povm.elements.sum(axis=0) - np.eye(d))) <= 1e-10


class TestSquareRootPovm:
    def test_trine_elements(self):
        ens = ensembles.trine()
        povm = square_root_povm(ens)
        for l in range(3):
            expected = (2.0 / 3.0) * np.outer(ens.states[l], ens.states[l].conj())
            assert np.max(np.abs(povm.elements[l] - expected)) < 1e-12

    def test_qubit_mub_elements(self):
        ens = ensembles.qubit_mubs()
        povm = square_root_povm(ens)
        for l in range(6):
            expected = (1.0 / 3.0) * np.outer(ens.states[l], ens.states[l].conj())
            assert np.max(np.abs(povm.elements[l] - expected)) < 1e-12

    def test_qutrit_mub_elements(self):
        ens = ensembles.qutrit_mubs()
        povm = square_root_povm(ens)
        for l in range(12):
            expected = (1.0 / 4.0) * np.outer(ens.states[l], ens.states[l].conj())
            assert np.max(np.abs(povm.elements[l] - expected)) < 1e-12

    def test_all_builtin_scenarios_valid(self):
        for scenario in builtin_scenarios().values():
            assert_povm_valid(scenario.povm)

    def test_random_ensembles_valid(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            d = int(rng.integers(2, 4))
            a = int(rng.integers(2, 7))
            povm = square_root_povm(random_ensemble(rng, a, d))
            assert_povm_valid(povm)

    def test_state_outside_support_rejected(self):
        # zero prior leaves |1> outside the support of the average state
        states = np.array([[1, 0], [1, 0], [0, 1]], complex)
        ens = ensembles.Ensemble(states, np.array([0.5, 0.5, 0.0]))
        with pytest.raises(PreconditionError, match="support"):
            square_root_povm(ens)

    def test_first_of_two_states_outside_support_named(self):
        # zero priors leave |1> and |2> outside the support of the average state
        states = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], complex)
        ens = ensembles.Ensemble(states, np.array([0.5, 0.5, 0.0, 0.0]))
        with pytest.raises(PreconditionError, match=r"^state 2 lies outside the support of the average state \(residual 1.000e\+00\)"):
            square_root_povm(ens)


class TestHelstromPovm:
    def test_orthogonal_pair_is_basis_measurement(self):
        povm = helstrom_povm(math.pi)
        # projectors onto |0> and |1> up to global phase
        assert np.max(np.abs(povm.elements[0] - np.diag([1.0, 0.0]))) < 1e-12
        assert np.max(np.abs(povm.elements[1] - np.diag([0.0, 1.0]))) < 1e-12

    def test_projectors_orthogonal_and_resolve_identity(self):
        for theta in np.linspace(1e-3, math.pi, 20):
            povm = helstrom_povm(theta)
            prod = povm.elements[0] @ povm.elements[1]
            assert np.max(np.abs(prod)) < 1e-12
            total = povm.elements.sum(axis=0)
            assert np.max(np.abs(total - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.pi + 1e-9])
    def test_rejects_bad_theta(self, theta):
        with pytest.raises(ValueError, match="theta"):
            helstrom_povm(theta)


class TestErrorProbability:
    def test_two_state_minimum_error_closed_form(self):
        for theta in np.linspace(math.pi / 100.0, math.pi, 100):
            ens = ensembles.helstrom_pair(theta)
            povm = helstrom_povm(theta)
            expected = 0.5 * (1.0 - math.sin(theta / 2.0))
            assert abs(error_probability(ens, povm) - expected) < 1e-12

    def test_quarter_turn_value(self):
        val = error_probability(
            ensembles.helstrom_pair(math.pi / 2), helstrom_povm(math.pi / 2)
        )
        assert val == pytest.approx((1.0 - math.sqrt(2.0) / 2.0) / 2.0, abs=1e-12)

    def test_orthogonal_pair_perfect(self):
        val = error_probability(ensembles.helstrom_pair(math.pi), helstrom_povm(math.pi))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_trine_square_root_measurement(self):
        ens = ensembles.trine()
        povm = square_root_povm(ens)
        # brute-force oracle: sum the misidentification terms directly
        expected = 0.0
        for i in range(3):
            psi = ens.states[i]
            for l in range(3):
                if l != i:
                    expected += (psi.conj() @ povm.elements[l] @ psi).real / 3.0
        assert expected == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert error_probability(ens, povm) == pytest.approx(expected, abs=1e-12)

    def test_range_and_normalization(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            a = int(rng.integers(2, 6))
            ens = random_ensemble(rng, a, d)
            povm = square_root_povm(ens)
            err = error_probability(ens, povm)
            assert 0.0 <= err <= 1.0
            rows = born_matrix(ens, povm).sum(axis=1)
            assert np.max(np.abs(rows - 1.0)) < 1e-10

    def test_mismatch_errors(self):
        ens = ensembles.trine()
        povm = helstrom_povm(math.pi / 2)
        with pytest.raises(ValueError, match="outcome count"):
            error_probability(ens, povm)
        qutrit_povm = square_root_povm(ensembles.qutrit_mubs())
        with pytest.raises(ValueError, match="dimension mismatch"):
            error_probability(ens, qutrit_povm)
        # a scenario states the same match rule through discrimination
        with pytest.raises(ValueError, match="outcome count"):
            custom_scenario(ens, 0.9, povm=helstrom_povm(math.pi / 2))
        with pytest.raises(ValueError, match="dimension mismatch"):
            custom_scenario(ens, 0.9, povm=qutrit_povm)


class TestPovmType:
    def test_rejects_elements_not_of_shape_a_d_d(self):
        with pytest.raises(ValueError, match=r"^elements must have shape \(a, d, d\), got \(2, 2, 3\)$"):
            Povm(np.zeros((2, 2, 3)))

    def test_rejects_non_hermitian_element(self):
        bad = np.zeros((2, 2, 2), complex)
        bad[0] = [[0.5, 0.5j], [0.0, 0.5]]
        bad[1] = np.eye(2) - bad[0]
        with pytest.raises(ValueError, match="Hermitian"):
            Povm(bad)

    def test_rejects_negative_element(self):
        bad = np.array([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])], dtype=complex)
        with pytest.raises(ValueError, match="positive semidefinite"):
            Povm(bad)

    def test_names_the_only_negative_element_of_a_stack(self):
        # element 11 of the qutrit MUB measurement goes negative; element 0
        # takes up the difference, so the elements still resolve the identity
        elements = square_root_povm(ensembles.qutrit_mubs()).elements.copy()
        elements[11] -= 1e-6 * np.eye(3)
        elements[0] += 1e-6 * np.eye(3)
        with pytest.raises(ValueError, match=r"^element 11 is not positive semidefinite \(smallest eigenvalue -1\.000e-06\)$"):
            Povm(elements)

    @pytest.mark.parametrize("k", range(12))
    def test_rejects_a_non_hermitian_element_anywhere(self, k):
        elements = square_root_povm(ensembles.qutrit_mubs()).elements.copy()
        elements[k, 0, 2] += 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            Povm(elements)

    def test_a_non_hermitian_element_is_reported_before_a_negative_one(self):
        # the checks run shape, Hermiticity, positivity, resolution over the whole stack
        bad = np.array([np.diag([-0.5, 0.5]), [[1.5, 1.0], [0.0, 0.5]]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            Povm(bad)

    def test_rejects_all_nan_elements(self):
        with pytest.raises(ValueError, match=r"^element 0 has a non-finite entry$"):
            Povm(np.full((2, 2, 2), np.nan))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("k", [0, 5, 11])
    def test_names_the_first_non_finite_element(self, k, value):
        # one entry of an otherwise valid qutrit MUB measurement
        elements = square_root_povm(ensembles.qutrit_mubs()).elements.copy()
        elements[k, 1, 2] = value
        with pytest.raises(ValueError, match=rf"^element {k} has a non-finite entry$"):
            Povm(elements)

    def test_rejects_incomplete_resolution(self):
        bad = np.array([np.diag([0.5, 0.5]), np.diag([0.4, 0.4])], dtype=complex)
        with pytest.raises(ValueError, match="resolve the identity"):
            Povm(bad)


class TestPassRates:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_orthonormal_states_pass_for_certain(self, k):
        # roundoff in the square-root POVM leaves B[i, i] = 1 - 2**-52 at k = 2
        scenario = custom_scenario(ensembles.Ensemble(np.eye(k), np.full(k, 1 / k)), 1.0)
        assert scenario.pass_probabilities.tolist() == [1.0] * k
        assert scenario.classical_fidelity == 1.0

    @pytest.mark.parametrize("name", list(builtin_scenarios()))
    def test_builtin_rates_are_the_capped_sums(self, name):
        # every built-in state fails with positive probability, so no q bit moves
        table = builtin_scenarios()[name].verification_table
        assert np.all(table[:, :, 0].sum(axis=1) > 0.0)
        assert np.array_equal(pass_rates(table), np.minimum(table[:, :, 1].sum(axis=1), 1.0))
