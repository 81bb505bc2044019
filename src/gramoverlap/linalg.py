"""Dense symmetric-matrix primitives.

Input checks, the Gram matrix, the sign rule every eigenvector of the
package is signed by (:func:`sign_flips`), and a full dense
eigendecomposition capped at small orders, the independent oracle the
eigensolvers of :mod:`gramoverlap.overlap` are tested against.
"""

import numpy as np

from .errors import SizeLimitError

# Hard cap for dense_eig (and so spectral_norm); keeps accidental
# O(n^3) factorizations out of large runs.
DENSE_EIG_MAX_ORDER = 512

# Entry-sum magnitudes at or below this count as "zero" for the sign rule.
_ZERO_SUM_TOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} has a zero dimension: shape={arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Validate a square matrix that is exactly symmetric as stored."""
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape={arr.shape}")
    if not np.array_equal(arr, arr.T):
        raise ValueError(f"{name} is not exactly symmetric")
    return arr


def gram(x) -> np.ndarray:
    """Pairwise inner products of the columns of ``x`` (an n-by-n matrix).

    The result is exactly symmetric by construction.  ``x`` is made
    C-contiguous first, so ``x.T @ x`` multiplies one buffer by its own
    transpose; numpy hands that product to BLAS syrk, which computes one
    triangle and copies it across.  For a d-by-n ``x`` it costs ``d*n^2``
    flops.
    """
    x = np.ascontiguousarray(as_matrix(x, "x"))
    return x.T @ x


def sign_flips(v: np.ndarray) -> np.ndarray:
    """Which rows of the 2-D array ``v`` the eigenvectors' sign rule negates:
    those whose entry sum is below -1e-12, and those whose sum is within
    1e-12 of zero and whose first entry of largest magnitude is negative."""
    s = np.add.reduce(v, axis=1)
    flips = s < -_ZERO_SUM_TOL
    zero = (np.abs(s) <= _ZERO_SUM_TOL).nonzero()[0]
    if zero.size:
        rows = v[zero]
        flips[zero] = rows[np.arange(zero.size), np.abs(rows).argmax(axis=1)] < 0
    return flips


def dense_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix of order <= 512.

    Returns ``(values, vectors)`` with eigenvalues sorted descending and the
    matching eigenvectors as columns, all signed in one :func:`sign_flips`
    call.
    """
    a = check_symmetric(a, "a")
    n = a.shape[0]
    if n > DENSE_EIG_MAX_ORDER:
        raise SizeLimitError(
            f"dense_eig is capped at order {DENSE_EIG_MAX_ORDER}, got {n}"
        )
    values, vectors = np.linalg.eigh(a)
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    flips = sign_flips(np.ascontiguousarray(vectors.T))
    np.negative(vectors, out=vectors, where=flips)
    return values, vectors


def spectral_norm(a) -> float:
    """Largest eigenvalue magnitude of a symmetric matrix, read from
    :func:`dense_eig`: above order 512 it raises :class:`SizeLimitError`.
    """
    values, _ = dense_eig(a)
    return float(np.max(np.abs(values)))
