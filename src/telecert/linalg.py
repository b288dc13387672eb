"""Dense complex linear algebra for small Hilbert-space dimensions.

Vectors are 1-D complex numpy arrays, operators are square 2-D complex
numpy arrays.  Hermitian eigenproblems go to LAPACK through
``numpy.linalg.eigh`` after explicit finiteness and Hermiticity checks;
all take a whole stack ``(..., d, d)`` at once, so a POVM's elements are
checked as one stack.  For the small dimensions this package cares about (2 and 3, any
small d) the result is exact to roundoff and is cross-checked against the
closed 2x2 formulas in the tests.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

#: Entrywise tolerance for accepting a matrix as Hermitian.
HERMITIAN_TOL = 1e-12

#: Eigenvalue cutoff below which inv_sqrt treats a mode as null.
NULL_TOL = 1e-10


def frozen(array) -> np.ndarray:
    """A copy of ``array`` over an immutable ``bytes`` buffer.

    numpy refuses ``setflags(write=True)`` on it and on every view of it,
    so an array shared by every caller in the process cannot be changed by
    one of them.
    """
    array = np.ascontiguousarray(array)
    return np.frombuffer(array.tobytes(), dtype=array.dtype).reshape(array.shape)


def _assert_hermitian(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    bad = ~np.isfinite(m).all(axis=(-2, -1))
    if bad.any():
        name = f"element {', '.join(map(str, np.argwhere(bad)[0]))}" if m.ndim > 2 else "matrix"
        raise ValueError(f"{name} has a non-finite entry")
    adjoint = np.swapaxes(m.conj(), -1, -2)
    dev = float(np.max(np.abs(m - adjoint), initial=0.0))  # 0 for an empty stack
    if dev > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    # Symmetrize so downstream arithmetic sees an exactly Hermitian operand.
    return (m + adjoint) / 2.0


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of a stack ``(..., d, d)``.

    The input is first checked and symmetrized by ``_assert_hermitian``, and
    then goes to ``numpy.linalg.eigh``.  Returns ``(w, v)`` with eigenvalues
    ``w`` in ascending order along the last axis and a unitary ``v`` whose
    columns are the matching eigenvectors, so that
    ``h == v @ diag(w) @ v.conj().T`` up to roundoff, matrix by matrix.
    """
    return np.linalg.eigh(_assert_hermitian(h))


def inv_sqrt(h) -> np.ndarray:
    """Pseudo-inverse square root of a positive semidefinite matrix.

    Eigenvalues above ``NULL_TOL`` map to ``1/sqrt(eigenvalue)``; the rest
    map to zero.  Raises if any eigenvalue falls below ``-NULL_TOL``.
    """
    w, v = eigh(h)
    if float(w[0]) < -NULL_TOL:
        raise PreconditionError(
            f"not positive semidefinite: smallest eigenvalue {w[0]:.3e} "
            f"is below -NULL_TOL ({-NULL_TOL:.1e})"
        )
    f = np.where(w > NULL_TOL, 1.0 / np.sqrt(np.maximum(w, NULL_TOL)), 0.0)
    m = (v * f) @ v.conj().T
    return (m + m.conj().T) / 2.0
