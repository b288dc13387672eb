import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from telecert import linalg
from telecert.ensembles import four_asymmetric
from telecert.errors import PreconditionError


def eig2x2_oracle(h):
    """Closed-form eigenvalues of a 2x2 Hermitian matrix, ascending.

    Roots of the characteristic polynomial lam^2 - tr*lam + det.
    """
    tr = h[0, 0].real + h[1, 1].real
    det = h[0, 0].real * h[1, 1].real - abs(h[0, 1]) ** 2
    disc = math.sqrt(max(tr * tr / 4.0 - det, 0.0))
    return tr / 2.0 - disc, tr / 2.0 + disc


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


class TestEigh:
    def test_identity(self):
        w, _ = linalg.eigh(np.eye(2))
        assert_allclose(w, [1.0, 1.0])

    def test_diagonal(self):
        w, _ = linalg.eigh(np.diag([0.25, 0.75]))
        assert_allclose(w, [0.25, 0.75])

    def test_four_asymmetric_average_state_vs_closed_form(self):
        rho = four_asymmetric().average_state()
        w, _ = linalg.eigh(rho)
        lo, hi = eig2x2_oracle(rho)
        assert_allclose(w, [lo, hi], atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_reconstruction_and_orthonormality(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(60):
            h = random_hermitian(rng, d)
            w, v = linalg.eigh(h)
            assert np.all(np.diff(w) >= 0)
            assert np.max(np.abs((v * w) @ v.conj().T - h)) < 1e-10
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-10

    def test_random_2x2_matches_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            h = random_hermitian(rng, 2)
            w, _ = linalg.eigh(h)
            assert_allclose(w, eig2x2_oracle(h), atol=1e-12)

    @pytest.mark.parametrize("shape", [(5,), (2, 4)])
    def test_stack_equals_the_per_matrix_calls(self, shape):
        rng = np.random.default_rng(40)
        stack = np.array([random_hermitian(rng, 3) for _ in range(math.prod(shape))]).reshape(*shape, 3, 3)
        w, v = linalg.eigh(stack)
        for index in np.ndindex(*shape):
            w1, v1 = linalg.eigh(stack[index])
            np.testing.assert_array_equal(w[index], w1)
            np.testing.assert_array_equal(v[index], v1)

    def test_stack_with_one_non_hermitian_matrix_rejected(self):
        stack = np.array([np.eye(2), np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(max deviation 1.000e\+00\)$"):
            linalg.eigh(stack)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg.eigh(np.ones((2, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_entry(self, value):
        # a diagonal nan or inf passes the Hermiticity comparison; the check precedes it
        with pytest.raises(ValueError, match=r"^matrix has a non-finite entry$"):
            linalg.eigh(np.diag([1.0, value]))
        stack = np.array([np.eye(2), np.eye(2), np.diag([1.0, value]), np.diag([value, 1.0])])
        with pytest.raises(ValueError, match=r"^element 2 has a non-finite entry$"):
            linalg.eigh(stack)
        with pytest.raises(ValueError, match=r"^element 1, 0 has a non-finite entry$"):
            linalg.eigh(stack.reshape(2, 2, 2, 2))


class TestInvSqrt:
    def test_qubit_mub_average_state(self):
        # average state I/2 inverts to sqrt(2) * I
        out = linalg.inv_sqrt(np.eye(2) / 2.0)
        assert_allclose(out, math.sqrt(2.0) * np.eye(2), atol=1e-12)

    def test_qutrit_mub_average_state(self):
        out = linalg.inv_sqrt(np.eye(3) / 3.0)
        assert_allclose(out, math.sqrt(3.0) * np.eye(3), atol=1e-12)

    def test_rank_one_projector(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]], complex)
        assert_allclose(linalg.inv_sqrt(p), p, atol=1e-12)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(PreconditionError, match="not positive semidefinite"):
            linalg.inv_sqrt(np.diag([1.0, -1e-6]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_a_non_finite_entry(self, value):
        with pytest.raises(ValueError, match="non-finite entry"):
            linalg.inv_sqrt(np.full((2, 2), value))

    @pytest.mark.parametrize("d", [2, 3])
    def test_sandwich_recovers_support_projector(self, d):
        rng = np.random.default_rng(30 + d)
        for k in range(40):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = g @ g.conj().T
            if k % 3 == 0:
                # make it rank deficient
                w, v = linalg.eigh(h)
                w = w.copy()
                w[0] = 0.0
                h = (v * w) @ v.conj().T
            r = linalg.inv_sqrt(h)
            w, v = linalg.eigh(h)
            support = (v * (w > linalg.NULL_TOL).astype(float)) @ v.conj().T
            assert np.max(np.abs(r @ h @ r - support)) < 1e-9
