"""State ensembles: the built-in preparation sets and user-defined ones.

An ensemble is a finite list of normalized pure states together with the
prior probabilities with which the preparer draws them.  All built-in
ensembles use uniform priors; custom ensembles loaded from a document may
carry non-uniform priors, but the finite-run exceedance bound and the
fixed-schedule simulator only accept uniform ones.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnsembleFormatError, PriorSumError, StateNormalizationError
from .linalg import frozen

#: A constructed ensemble must have each state normalized this tightly.
NORM_TOL = 1e-10

#: ... and its priors summing to one this tightly.
PRIOR_TOL = 1e-12

#: Largest deviation of any prior from 1/a that still counts as uniform.
UNIFORM_PRIOR_TOL = 1e-9

#: Looser tolerance applied to user documents before renormalization.
LOAD_TOL = 1e-6


def _unit_norms(states: np.ndarray, tol: float) -> np.ndarray:
    """Row norms of ``states``; one further than ``tol`` from 1 raises."""
    with np.errstate(over="ignore"):  # a huge amplitude's norm is inf
        norms = np.linalg.norm(states, axis=1)
    off = np.abs(norms - 1.0)
    if np.max(off) > tol:
        worst = int(np.argmax(off))
        raise StateNormalizationError(
            f"state {worst} has norm {float(norms[worst])!r}, expected 1 within {tol}"
        )
    return norms


def _prior_total(priors: np.ndarray, tol: float) -> float:
    """Sum of ``priors``; a negative prior or a sum further than ``tol`` from 1 raises."""
    if np.any(priors < 0.0):
        raise PriorSumError("priors must be nonnegative")
    total = float(priors.sum())
    if abs(total - 1.0) > tol:
        raise PriorSumError(f"priors sum to {total!r}, expected 1 within {tol}")
    return total


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A set of ``a >= 2`` normalized pure states with prior probabilities.

    ``states`` has shape (a, d) with one ket per row; ``priors`` has shape
    (a,).  Both arrays are copied at construction into immutable buffers
    (``linalg.frozen``) that cannot be made writable again.
    """

    states: np.ndarray
    priors: np.ndarray
    name: str = ""

    def __post_init__(self):
        states = np.array(self.states, dtype=complex)
        priors = np.array(self.priors, dtype=float)
        if states.ndim != 2:
            raise ValueError(f"states must be a 2-D array, got shape {states.shape}")
        if states.shape[0] < 2:
            raise ValueError("an ensemble needs at least two states")
        if priors.shape != (states.shape[0],):
            raise ValueError(
                f"priors shape {priors.shape} does not match {states.shape[0]} states"
            )
        bad = ~np.isfinite(states).all(axis=1)
        if bad.any():
            raise StateNormalizationError(
                f"state {int(np.argmax(bad))} has a non-finite amplitude"
            )
        if not np.isfinite(priors).all():
            raise PriorSumError(f"priors must be finite, got {priors.tolist()!r}")
        _unit_norms(states, NORM_TOL)
        _prior_total(priors, PRIOR_TOL)
        object.__setattr__(self, "states", frozen(states))
        object.__setattr__(self, "priors", frozen(priors))

    @property
    def size(self) -> int:
        """Number of preparable states ``a``."""
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``d``."""
        return self.states.shape[1]

    def has_uniform_priors(self) -> bool:
        """Whether every prior is within ``UNIFORM_PRIOR_TOL`` of ``1/a``."""
        return self._uniform_priors

    @functools.cached_property
    def _uniform_priors(self) -> bool:
        """``has_uniform_priors()``, computed on first use and kept."""
        return bool(np.max(np.abs(self.priors - 1.0 / self.size)) <= UNIFORM_PRIOR_TOL)

    def overlap_matrix(self) -> np.ndarray:
        """Pairwise squared overlaps ``O[i, k] = |<psi_i|psi_k>|^2``."""
        gram = self.states.conj() @ self.states.T
        return np.abs(gram) ** 2

    def average_state(self) -> np.ndarray:
        """The prior-weighted mixture ``sum_i p_i |psi_i><psi_i|``."""
        return np.einsum("i,id,ie->de", self.priors, self.states, self.states.conj())


def _uniform(a: int) -> np.ndarray:
    return np.full(a, 1.0 / a)


def trine() -> Ensemble:
    """Three qubit states spaced 120 degrees apart on a great circle."""
    r3 = math.sqrt(3.0)
    states = np.array(
        [
            [1.0, 0.0],
            [0.5, -r3 / 2.0],
            [0.5, r3 / 2.0],
        ],
        dtype=complex,
    )
    return Ensemble(states, _uniform(3), name="trine")


def four_asymmetric() -> Ensemble:
    """Four qubit states placed asymmetrically on the Bloch sphere."""
    r2 = math.sqrt(2.0)
    r5 = math.sqrt(5.0)
    states = np.array(
        [
            [1.0, 0.0],
            [0.0, 1.0],
            [1.0 / r2, -1j / r2],
            [2.0 / r5, -1.0 / r5],
        ],
        dtype=complex,
    )
    return Ensemble(states, _uniform(4), name="four-asymmetric")


def qubit_mubs() -> Ensemble:
    """The six states of the three mutually unbiased qubit bases."""
    r2 = math.sqrt(2.0)
    states = np.array(
        [
            [1.0, 0.0],
            [0.0, 1.0],
            [1.0 / r2, 1.0 / r2],
            [1.0 / r2, -1.0 / r2],
            [1.0 / r2, 1j / r2],
            [1.0 / r2, -1j / r2],
        ],
        dtype=complex,
    )
    return Ensemble(states, _uniform(6), name="qubit-mubs")


def qutrit_mubs() -> Ensemble:
    """The twelve states of the four mutually unbiased qutrit bases."""
    w = cmath.exp(2j * math.pi / 3.0)
    w2 = w * w
    rows = [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
        [1, 1, 1],
        [1, w, w2],
        [1, w2, w],
        [w, 1, 1],
        [1, w, 1],
        [1, 1, w],
        [w2, 1, 1],
        [1, w2, 1],
        [1, 1, w2],
    ]
    states = np.array(rows, dtype=complex)
    states[3:] /= math.sqrt(3.0)
    return Ensemble(states, _uniform(12), name="qutrit-mubs")


def helstrom_pair(theta: float) -> Ensemble:
    """Two pure qubit states separated by Bloch angle ``theta`` in (0, pi]."""
    if not 0.0 < theta <= math.pi:
        raise ValueError(f"theta must lie in (0, pi], got {theta!r}")
    states = np.array(
        [
            [1.0, 0.0],
            [math.cos(theta / 2.0), math.sin(theta / 2.0)],
        ],
        dtype=complex,
    )
    return Ensemble(states, _uniform(2), name="helstrom-pair")


def _finite_or_none(x) -> float | None:
    """``x`` as a float if it is a finite number; None for anything else.

    A bool is not a number here, although Python counts it as an int, and
    an int too large for a float is not finite.
    """
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    try:
        x = float(x)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def load_ensemble(document) -> Ensemble:
    """Build an Ensemble from a JSON document (text or parsed mapping).

    Expected fields: ``dim`` (int), ``states`` (list of states, each a list
    of ``[re, im]`` amplitude pairs), optional ``priors`` (list of reals,
    default uniform) and optional ``name``.  Every amplitude part and prior
    must be a finite number, and ``true``/``false`` are not numbers; both
    are checked before any arithmetic.  States within ``LOAD_TOL`` of
    unit norm are accepted and renormalized exactly; likewise priors whose
    sum is within ``LOAD_TOL`` of one.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise EnsembleFormatError(f"document is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise EnsembleFormatError(f"document nests too deeply: {exc}") from exc
    if not isinstance(document, dict):
        raise EnsembleFormatError("document root must be a JSON object")

    unknown = set(document) - {"dim", "states", "priors", "name"}
    if unknown:
        raise EnsembleFormatError(f"unknown fields: {sorted(unknown)}")
    try:
        dim = document["dim"]
        raw_states = document["states"]
    except KeyError as exc:
        raise EnsembleFormatError(f"missing required field {exc}") from exc
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise EnsembleFormatError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(raw_states, list) or len(raw_states) < 2:
        raise EnsembleFormatError("states must be a list of at least two states")

    # Every row is checked against dim before the (a, dim) array exists.
    rows = []
    for i, row in enumerate(raw_states):
        if not isinstance(row, list) or len(row) != dim:
            raise EnsembleFormatError(
                f"state {i} must be a list of {dim} amplitude pairs"
            )
        amps = []
        for j, amp in enumerate(row):
            parts = [_finite_or_none(x) for x in amp] if isinstance(amp, list) else []
            if len(parts) != 2 or None in parts:
                raise EnsembleFormatError(
                    f"state {i}, amplitude {j}: expected [re, im] of finite "
                    f"numbers, got {amp!r}"
                )
            amps.append(complex(*parts))
        rows.append(amps)
    states = np.array(rows, dtype=complex)

    states /= _unit_norms(states, LOAD_TOL)[:, None]

    raw_priors = document.get("priors")
    if raw_priors is None:
        priors = _uniform(len(raw_states))
    else:
        values = [_finite_or_none(p) for p in raw_priors] if isinstance(raw_priors, list) else [None]
        if None in values:
            raise EnsembleFormatError(
                f"priors must be a list of finite numbers, got {raw_priors!r}"
            )
        if len(values) != len(raw_states):
            raise EnsembleFormatError(
                f"got {len(values)} priors for {len(raw_states)} states"
            )
        priors = np.array(values)
        priors /= _prior_total(priors, LOAD_TOL)

    name = document.get("name", "")
    if not isinstance(name, str):
        raise EnsembleFormatError("name must be a string")
    return Ensemble(states, priors, name=name)


def to_document(ensemble: Ensemble) -> dict:
    """Inverse of :func:`load_ensemble`, for round-tripping and the CLI."""
    return {
        "dim": ensemble.dim,
        "states": [
            [[float(z.real), float(z.imag)] for z in row] for row in ensemble.states
        ],
        "priors": [float(p) for p in ensemble.priors],
        "name": ensemble.name,
    }
