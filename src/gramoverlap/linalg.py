"""Dense symmetric-matrix primitives.

The Gram matrix, two solvers for the leading eigenpair (power iteration on a
dense matrix, and a factored solve of ``(X^T X) o (Y^T Y)`` that never forms
it), the factored row sums of that same product, and a full dense
eigendecomposition capped at small orders that serves as the independent
oracle for the eigensolvers.  The entrywise product itself is formed in
place by :attr:`gramoverlap.overlap.OverlapMatrix.h`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError

# Hard cap for dense_eig (and so spectral_norm); keeps accidental
# O(n^3) factorizations out of large runs.
DENSE_EIG_MAX_ORDER = 512

# Entry-sum magnitudes at or below this count as "zero" for the sign rule.
_ZERO_SUM_TOL = 1e-12

POWER_TOL_DEFAULT = 1e-10
POWER_MAX_ITER_DEFAULT = 1000


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


def fix_sign(v: np.ndarray) -> np.ndarray:
    """Resolve the sign ambiguity of an eigenvector deterministically.

    The entry sum is made nonnegative; when it is zero (within 1e-12) the
    entry of largest magnitude is made positive instead.
    """
    s = float(v.sum())
    if s < -_ZERO_SUM_TOL:
        return -v
    if s <= _ZERO_SUM_TOL:
        k = int(np.argmax(np.abs(v)))
        if v[k] < 0:
            return -v
    return v


@dataclass(frozen=True)
class SpectralPair:
    """Leading eigenpair estimate with convergence bookkeeping."""

    value: float
    vector: np.ndarray  # unit norm, sign-fixed
    iterations: int
    residual: float  # ||A v - value * v||
    converged: bool


def power_iteration(
    a,
    tol: float = POWER_TOL_DEFAULT,
    max_iter: int = POWER_MAX_ITER_DEFAULT,
) -> SpectralPair:
    """Leading eigenpair of a symmetric matrix by power iteration.

    Starts from the normalized all-ones vector and stops when
    ``||A v - lambda v|| <= tol * max(1, |lambda|)``.  On non-convergence the
    best iterate seen (smallest residual) is returned with ``converged`` set
    to False and ``iterations = max_iter``.
    """
    a = check_symmetric(a, "a")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    n = a.shape[0]
    v = np.full(n, 1.0 / math.sqrt(n))
    best_residual = math.inf
    best = (0.0, v)
    for k in range(1, max_iter + 1):
        av = a @ v
        value = float(v @ av)
        residual = float(np.linalg.norm(av - value * v))
        if residual < best_residual:
            best_residual = residual
            best = (value, v)
        if residual <= tol * max(1.0, abs(value)):
            return SpectralPair(value, fix_sign(v), k, residual, True)
        norm_av = float(np.linalg.norm(av))
        if norm_av == 0.0:
            # v is in the null space; the residual test above already
            # accepted value = 0, so this is unreachable in practice.
            break
        v = av / norm_av
    value, v = best
    return SpectralPair(value, fix_sign(v), max_iter, best_residual, False)


def khatri_rao_eigenpair(x, y) -> SpectralPair:
    """Leading eigenpair of ``H = (X^T X) o (Y^T Y)`` without forming ``H``.

    ``x`` and ``y`` are d-by-n.  Column i of the d^2-by-n matrix ``Z`` is
    ``x_i (x) y_i`` (the column-wise Khatri-Rao product), and the
    face-splitting identity gives ``H = Z^T Z``.  The d^2-by-d^2 matrix
    ``Z Z^T`` has the same nonzero eigenvalues, and with ``u`` its top
    eigenvector ``Z^T u`` is the top eigenvector of ``H``.  The cost is
    ``d^4 n`` flops for ``Z Z^T``, one symmetric eigendecomposition of order
    ``d^2`` and ``O(d^2 n)`` for the rest; it reads no n-by-n matrix.

    The value is the Rayleigh quotient ``||Z v||^2``, the residual
    ``||H v - value v||`` is computed matrix-free as ``Z^T (Z v) - value v``,
    and ``converged`` applies the test of :func:`power_iteration` at its
    default tolerance; ``iterations`` is 0.  When ``Z = 0`` (so ``H = 0``) the
    result is the one power iteration gives: value 0 and the normalized
    all-ones vector.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: x is {x.shape}, y is {y.shape}")
    d, n = x.shape
    z = (x[:, None, :] * y[None, :, :]).reshape(d * d, n)
    _, vectors = np.linalg.eigh(z @ z.T)
    w = vectors[:, -1] @ z
    # np.linalg.norm of a vector is the square root of its dot product with
    # itself; both norms here take that directly.
    norm = math.sqrt(w @ w)
    v = w / norm if norm > 0.0 else np.full(n, 1.0 / math.sqrt(n))
    zv = z @ v
    value = float(zv @ zv)
    r = zv @ z - value * v
    residual = math.sqrt(r @ r)
    converged = residual <= POWER_TOL_DEFAULT * max(1.0, abs(value))
    return SpectralPair(value, fix_sign(v), 0, residual, converged)


def khatri_rao_row_sums(x, y) -> np.ndarray:
    """Row sums of ``H = (X^T X) o (Y^T Y)`` without forming ``H``.

    ``x`` and ``y`` are d-by-n.  By the face-splitting identity ``H = Z^T Z``
    (column i of ``Z`` is ``x_i (x) y_i``), so ``H 1 = Z^T (Z 1)``, and entry
    i is ``x_i^T (X Y^T) y_i``: one d-by-d product ``X Y^T``, its product
    with ``Y`` and a column-wise dot product with ``X``.  The cost is about
    ``4 d^2 n`` flops and ``O(d n)`` memory; it reads no n-by-n matrix.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: x is {x.shape}, y is {y.shape}")
    return np.einsum("ij,ij->j", x, (x @ y.T) @ y)


def dense_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix of order <= 512.

    Returns ``(values, vectors)`` with eigenvalues sorted descending and the
    matching eigenvectors as columns, each sign-fixed via :func:`fix_sign`.
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
    for j in range(n):
        vectors[:, j] = fix_sign(vectors[:, j])
    return values, vectors


def spectral_norm(a) -> float:
    """Largest eigenvalue magnitude of a symmetric matrix, read from
    :func:`dense_eig`: above order 512 it raises :class:`SizeLimitError`.
    """
    values, _ = dense_eig(a)
    return float(np.max(np.abs(values)))
