"""Dense symmetric-matrix primitives.

The Gram matrix, two solvers for the leading eigenpair (power iteration on a
dense matrix, and a factored solve of ``(X^T X) o (Y^T Y)`` that never forms
it: repeated squaring of the d^2-by-d^2 Khatri-Rao Gram ``Z Z^T``), the
factored row sums of that same product, and a full dense eigendecomposition
capped at small orders that serves as the independent oracle for the
eigensolvers, all signing vectors by one rule.  The factored kernels take
one X and a ``(p, d, n)`` stack of Ys and return one row a Y, each row with
the bits it gets alone; a pair is the one-row case.  The private kernels,
power iteration among them, check nothing: their one caller,
:class:`gramoverlap.overlap.OverlapMatrix`, checks ``H`` where it enters,
picks the backend, forms the entrywise product in place, and computes a
pair's eigenpair facts from its ``Z``.
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

# Cap on the squarings of _top_eigvectors_by_squaring.  After j squarings an
# eigenvalue (1 - delta) lambda_1 keeps a weight exp(-delta 2^j) of the top
# one's, so the residual it can leave is at most delta exp(-delta 2^j)
# lambda_1 <= lambda_1 / (e 2^j): about 3e-13 lambda_1 at j = 40, far below
# the 1e-10 residual test, whatever the gap.  The loop usually stops long
# before, when the normalising trace settles.
KHATRI_RAO_MAX_SQUARINGS = 40


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


def _sign_flips(v: np.ndarray) -> np.ndarray:
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


@dataclass(frozen=True)
class SpectralPair:
    """Leading eigenpair estimate with convergence bookkeeping."""

    value: float
    vector: np.ndarray  # unit norm, sign-fixed
    iterations: int
    residual: float  # ||A v - value * v||
    converged: bool


def _power_iteration(h: np.ndarray) -> SpectralPair:
    """Leading eigenpair of the exactly symmetric, finite float64 matrix
    ``h`` by power iteration; ``h`` is not checked.

    Starts from the normalized all-ones vector and stops when
    ``||A v - lambda v|| <= 1e-10 * max(1, |lambda|)``
    (:data:`POWER_TOL_DEFAULT`).  When that has not happened after
    :data:`POWER_MAX_ITER_DEFAULT` (1000) iterations, the best iterate seen
    (smallest residual) is returned with ``converged`` set to False and
    ``iterations = 1000``.  The vector is signed by :func:`_sign_flips`.
    """
    n = h.shape[0]
    v = np.full(n, 1.0 / math.sqrt(n))
    best = (0.0, v, math.inf)
    iterations, converged = POWER_MAX_ITER_DEFAULT, False
    for k in range(1, POWER_MAX_ITER_DEFAULT + 1):
        av = h @ v
        value = float(v @ av)
        residual = float(np.linalg.norm(av - value * v))
        if residual <= POWER_TOL_DEFAULT * max(1.0, abs(value)):
            best, iterations, converged = (value, v, residual), k, True
            break
        if residual < best[2]:
            best = (value, v, residual)
        v = av / float(np.linalg.norm(av))
    value, v, residual = best
    if _sign_flips(v[None])[0]:
        v = -v
    return SpectralPair(value, v, iterations, residual, converged)


def _top_eigvectors_by_squaring(g: np.ndarray) -> np.ndarray:
    """A top eigenvector of each exactly symmetric PSD matrix of the
    ``(p, m, m)`` stack ``g``, not normalised, one a row; zero for a zero
    matrix.

    ``B = g / tr g`` is squared and renormalised, ``B <- B^2 / tr(B^2)``,
    until the normalising trace ``tr(B^2)`` changes by at most ``m`` units
    of roundoff relative to itself from one squaring to the next, or
    :data:`KHATRI_RAO_MAX_SQUARINGS` times.  ``B`` tends to the projector on
    the top eigenspace over its dimension ``k``, so ``tr(B^2)`` tends to
    ``1 / k``; a weight ``rho`` left on the rest of the spectrum moves it by
    about ``2 rho``, so it settles one squaring after ``rho`` falls below
    roundoff.  Rounding noise inside a tied top eigenspace rotates ``B``
    within that space but does not move the trace, so a tie stops as soon as
    the rest of the spectrum has decayed.  ``B``'s column of largest
    diagonal lies in the top eigenspace; it is returned after one product
    with ``g``.  ``B B^T`` is ``B^2`` (BLAS syrk, which keeps ``B`` exactly
    symmetric), ``m^3`` flops a squaring.

    The whole stack is squared in one ``matmul`` a step, which runs syrk on
    each matrix, so every matrix gets the bits it gets alone; a matrix whose
    trace has settled leaves the stack, so each squares exactly as often as
    it would alone.  The loop writes into two buffers allocated once (and
    shrunk as matrices leave): with glibc's default malloc, a fresh array of
    order 400 (d = 20) on every squaring made the loop about a fifth slower.
    """
    p, m, _ = g.shape
    u = np.zeros((p, m))
    t = g.trace(axis1=1, axis2=2)
    live = (t > 0.0).nonzero()[0]
    b = g[live]
    b /= t[live, None, None]
    b2 = np.empty_like(b)
    # The stopping test runs on Python floats: for a few matrices, four
    # ufunc calls a squaring cost more than the comparisons themselves.
    tol = m * float(np.finfo(np.float64).eps)
    last = [0.0] * live.size
    for _ in range(KHATRI_RAO_MAX_SQUARINGS):
        if not live.size:
            return u
        np.matmul(b, b.transpose(0, 2, 1), out=b2)
        t = b2.trace(axis1=1, axis2=2)
        b2 /= t[:, None, None]
        b, b2 = b2, b
        t = t.tolist()
        done = [abs(ti - li) <= tol * ti for ti, li in zip(t, last)]
        if any(done):
            _top_columns(u, g, b, live, [i for i, di in enumerate(done) if di])
            keep = np.logical_not(done)
            live, b = live[keep], b[keep]
            b2 = b2[: live.size]
            t = [ti for ti, di in zip(t, done) if not di]
        last = t
    _top_columns(u, g, b, live, range(live.size))
    return u


def _top_columns(u, g, b, live, rows) -> None:
    """For each i of ``rows``, set row ``live[i]`` of ``u`` to matrix
    ``live[i]`` of the stack ``g`` times the column of largest diagonal of
    ``b[i]``, as a 2-D product."""
    for i in rows:
        j = live[i]
        u[j] = g[j] @ b[i, :, b[i].diagonal().argmax()]


def _khatri_rao(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The ``(p, d^2, n)`` stack of ``Z``: column i of ``Z_p`` is ``x_i (x)
    y_i`` for the d-by-n ``x`` and the matrix ``Y_p`` of the ``(p, d, n)``
    stack ``ys``."""
    p, d, n = ys.shape
    return (x[None, :, None, :] * ys[:, None, :, :]).reshape(p, d * d, n)


def _khatri_rao_vectors(z: np.ndarray) -> np.ndarray:
    """The unit, sign-fixed leading eigenvector of ``H_p = Z_p^T Z_p`` for
    each matrix of the ``(p, d^2, n)`` stack ``z`` (see :func:`_khatri_rao`),
    one a row, without forming any ``H_p``.

    Column i of ``Z`` is ``x_i (x) y_i`` (the column-wise Khatri-Rao
    product), and the face-splitting identity gives ``H = Z^T Z``.  The
    d^2-by-d^2 matrix ``G = Z Z^T`` has the same nonzero eigenvalues, and
    with ``u`` its top eigenvector ``Z^T u`` is the top eigenvector of
    ``H``.  ``u`` comes from repeated squaring of ``G / tr G`` (see
    :func:`_top_eigvectors_by_squaring`), not from a full
    eigendecomposition.  The cost a pair is ``d^4 n`` flops for ``G``,
    ``d^6`` flops a squaring, at most :data:`KHATRI_RAO_MAX_SQUARINGS` (40)
    of them, and ``O(d^2 n)`` for the rest; it reads no n-by-n matrix.  With
    ``delta = 1 - lambda_2 / lambda_1`` the relative gap below the top
    eigenvalue, the loop takes about ``2 + log2(36 / delta)`` squarings:
    mostly 7 to 11 on the synthetic overlaps of :mod:`gramoverlap.synth`,
    37 at ``delta = 1e-9``.  A tied top eigenspace stops once the rest of
    the spectrum has decayed (8 to 10 squarings on constructed ties of order
    4 to 36), and so does a gap too small to show in the trace (``delta``
    about ``1e-10`` and below); the vector then lies in the span of the tied
    eigenvectors, and its residual is at most about ``delta lambda_1``.

    Every step runs on the whole stack: ``G_p = Z_p Z_p^T`` in one
    ``matmul`` (syrk on each matrix, so the bits of the 2-D product), the
    squarings, ``w_p = Z_p^T u_p``, the norms as dot products, and the sign
    rule, so row p has the bits that pair p gets alone.  A zero ``w_p``
    (``H_p = 0``) gives the normalized all-ones vector, as power iteration
    does; a factor product that overflows leaves its row non-finite, for
    the classifier to refuse.
    """
    n = z.shape[2]
    u = _top_eigvectors_by_squaring(np.matmul(z, z.transpose(0, 2, 1)))
    w = np.matmul(u[:, None, :], z)[:, 0]
    norms = np.sqrt(np.matmul(w[:, None, :], w[:, :, None])[:, 0, 0])
    zero = norms == 0.0
    if np.count_nonzero(zero):
        w[zero] = 1.0 / math.sqrt(n)
        norms[zero] = 1.0
    w /= norms[:, None]
    np.negative(w, out=w, where=_sign_flips(w)[:, None])
    return w


def _khatri_rao_row_sums(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The row sums of ``H_p = (X^T X) o (Y_p^T Y_p)`` for each matrix of
    the ``(p, d, n)`` stack ``ys``, one a row, without forming any ``H_p``.

    By the face-splitting identity ``H = Z^T Z`` (column i of ``Z`` is
    ``x_i (x) y_i``), so ``H 1 = Z^T (Z 1)``, and entry i is ``x_i^T (X
    Y^T) y_i``: one d-by-d product ``X Y^T``, its product with ``Y`` and a
    column-wise dot product with ``X``.  The cost is about ``4 d^2 n`` flops
    and ``O(d n)`` memory a pair.  Every product runs on the whole stack, so
    row p has the bits that pair p gets alone."""
    xy = np.matmul(x, ys.transpose(0, 2, 1))
    return np.einsum("ij,pij->pj", x, np.matmul(xy, ys))


def dense_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix of order <= 512.

    Returns ``(values, vectors)`` with eigenvalues sorted descending and the
    matching eigenvectors as columns, all signed in one :func:`_sign_flips`
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
    flips = _sign_flips(np.ascontiguousarray(vectors.T))
    np.negative(vectors, out=vectors, where=flips)
    return values, vectors


def spectral_norm(a) -> float:
    """Largest eigenvalue magnitude of a symmetric matrix, read from
    :func:`dense_eig`: above order 512 it raises :class:`SizeLimitError`.
    """
    values, _ = dense_eig(a)
    return float(np.max(np.abs(values)))
