"""Measurement strategies for identifying which state was prepared.

Two strategies are provided: the square-root measurement, defined for any
ensemble whose average state supports every member, and the two-outcome
Helstrom projectors, which achieve the minimum discrimination error for a
pair of pure states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .ensembles import Ensemble
from .errors import PreconditionError

#: Entrywise tolerance on the resolution of the identity.
RESOLUTION_TOL = 1e-10

#: Smallest admissible eigenvalue of a POVM element.
PSD_TOL = -1e-10


@dataclass(frozen=True, eq=False)
class Povm:
    """A positive operator valued measure with one outcome per state.

    ``elements`` has shape (a, d, d); each element is Hermitian positive
    semidefinite and the elements sum to the identity.  They are copied at
    construction into an immutable buffer (``linalg.frozen``).
    """

    elements: np.ndarray

    def __post_init__(self):
        elements = np.array(self.elements, dtype=complex)
        if elements.ndim != 3 or elements.shape[1] != elements.shape[2]:
            raise ValueError(
                f"elements must have shape (a, d, d), got {elements.shape}"
            )
        w, _ = linalg.eigh(elements)
        negative = np.flatnonzero((w < PSD_TOL).any(axis=1))
        if negative.size:
            k = negative[0]
            raise ValueError(
                f"element {k} is not positive semidefinite "
                f"(smallest eigenvalue {w[k, 0]:.3e})"
            )
        dev = float(np.max(np.abs(elements.sum(axis=0) - np.eye(elements.shape[1]))))
        if dev > RESOLUTION_TOL:
            raise ValueError(
                f"elements do not resolve the identity (max deviation {dev:.3e})"
            )
        object.__setattr__(self, "elements", linalg.frozen(elements))

    @property
    def n_outcomes(self) -> int:
        return self.elements.shape[0]

    @property
    def dim(self) -> int:
        return self.elements.shape[1]


def _check_match(ensemble: Ensemble, povm: Povm) -> None:
    if povm.dim != ensemble.dim:
        raise ValueError(
            f"dimension mismatch: ensemble d={ensemble.dim}, povm d={povm.dim}"
        )
    if povm.n_outcomes != ensemble.size:
        raise ValueError(
            f"outcome count {povm.n_outcomes} does not match "
            f"ensemble size {ensemble.size}"
        )


def square_root_povm(ensemble: Ensemble) -> Povm:
    """Square-root measurement for ``ensemble``.

    Element ``k`` is ``p_k * r |psi_k><psi_k| r`` where ``r`` is the
    pseudo-inverse square root of the average state.  With uniform priors
    this reduces to the familiar ``(1/a) r |psi_k><psi_k| r`` form.  If the
    ensemble spans only a subspace, the orthogonal complement is split
    uniformly across the outcomes so the elements resolve the identity;
    ensemble states have no weight there, so no outcome probability changes.
    """
    rho = ensemble.average_state()
    r = linalg.inv_sqrt(rho)
    support = r @ rho @ r  # projector onto the support of rho
    states = ensemble.states
    residuals = np.linalg.norm(states @ support.T - states, axis=1)
    outside = np.flatnonzero(residuals > 1e-8)
    if outside.size:
        i = outside[0]
        raise PreconditionError(
            f"state {i} lies outside the support of the average state "
            f"(residual {residuals[i]:.3e}); the square-root measurement "
            "is undefined for it"
        )
    # p_k r |psi_k><psi_k| r for every k at once.
    projectors = states[:, :, None] * states.conj()[:, None, :]
    elements = ensemble.priors[:, None, None] * (r @ projectors @ r)
    complement = np.eye(ensemble.dim) - support
    if float(np.max(np.abs(complement))) > RESOLUTION_TOL:
        elements = elements + complement / ensemble.size
    # Symmetrize away roundoff so the Povm invariants hold at full strictness.
    elements = (elements + elements.conj().transpose(0, 2, 1)) / 2.0
    return Povm(elements)


def helstrom_povm(theta: float) -> Povm:
    """Minimum-error projectors for the two-state ensemble at angle ``theta``.

    The projectors are onto the orthonormal pair that straddles the two
    states symmetrically; their discrimination error is
    ``(1 - sin(theta/2)) / 2``, the two-state optimum.
    """
    if not 0.0 < theta <= math.pi:
        raise ValueError(f"theta must lie in (0, pi], got {theta!r}")
    half = (math.pi - theta) / 4.0
    phi1 = np.array([math.cos(half), -math.sin(half)], dtype=complex)
    phi2 = np.array([math.sin(half), math.cos(half)], dtype=complex)
    return Povm(np.array([np.outer(phi1, phi1.conj()), np.outer(phi2, phi2.conj())]))


def born_matrix(ensemble: Ensemble, povm: Povm) -> np.ndarray:
    """Outcome probabilities ``B[i, k] = <psi_i| element_k |psi_i>``."""
    _check_match(ensemble, povm)
    b = np.einsum(
        "id,kde,ie->ik", ensemble.states.conj(), povm.elements, ensemble.states
    )
    return b.real


def verification_table(ensemble: Ensemble, povm: Povm) -> np.ndarray:
    """Joint law of one run's outcome and verification result.

    ``T[i, k, 1] = B[i, k] * |<psi_i|psi_k>|^2`` is the probability that
    state i gives outcome k and the resent state k then passes verification;
    ``T[i, k, 0]`` that it gives k and fails.  Born probabilities are clipped
    at 0 and overlaps to [0, 1], with the diagonal pinned to 1: resending
    the correct state always passes.
    """
    b = np.clip(born_matrix(ensemble, povm), 0.0, None)
    o = np.clip(ensemble.overlap_matrix(), 0.0, 1.0)
    np.fill_diagonal(o, 1.0)
    return np.stack([b * (1.0 - o), b * o], axis=-1)


def pass_probabilities(ensemble: Ensemble, povm: Povm) -> np.ndarray:
    """Per-state probability ``q_i = sum_k T[i, k, 1]`` that one run passes."""
    return pass_rates(verification_table(ensemble, povm))


def pass_rates(table: np.ndarray) -> np.ndarray:
    """``q_i = sum_k T[i, k, 1]`` of a verification table, capped at 1, and 1 if no run fails."""
    return np.where(table[:, :, 0].any(axis=1), np.minimum(table[:, :, 1].sum(axis=1), 1.0), 1.0)


def error_probability(ensemble: Ensemble, povm: Povm) -> float:
    """Probability that the measurement misidentifies the prepared state."""
    b = born_matrix(ensemble, povm)
    off_diagonal = b.sum(axis=1) - np.diag(b)
    return float(ensemble.priors @ off_diagonal)
