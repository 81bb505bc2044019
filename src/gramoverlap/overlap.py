"""From paired point sets to the overlap matrix, plus its exact population model.

The overlap matrix of two d-by-n point sets X and Y is the entrywise product
of their Gram matrices.  When a subset of columns of Y is a common rotation of
the matching columns of X, that inlier block carries squared inner products of
X ("agreement"), while entries touching unmatched columns average out to zero.
The population functions give the exact expectation of the overlap matrix, its
leading eigenpair, and its row-sum means under the rotated-inlier Gaussian
model; they are the oracles most tests check against.

This is the one module that knows how an overlap's statistics are
computed: :func:`backends` plans which read the factors and which the dense
``H``, and every kernel sits beside :class:`OverlapMatrix`, its one caller,
which checks ``H`` where it enters; the kernels check nothing.
"""

import functools
import math
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import linalg
from .errors import DegenerateColumnError, SizeLimitError


class PreprocessMode(str, Enum):
    NONE = "none"
    CENTER_NORMALIZE = "center_normalize"


def preprocess(x, mode: PreprocessMode) -> np.ndarray:
    """Optionally row-center then column-normalize a d-by-n matrix.

    ``CENTER_NORMALIZE`` subtracts each row's mean (every feature sums to zero
    across points) and then scales every column to unit Euclidean norm, in that
    order.  A column with zero norm after centering raises
    :class:`DegenerateColumnError` naming the first such column.
    """
    return _preprocess(linalg.as_matrix(x, "x"), mode)


def _preprocess(x: np.ndarray, mode: PreprocessMode) -> np.ndarray:
    """:func:`preprocess` of a matrix that ``linalg.as_matrix`` has checked,
    or of each matrix of a ``(p, d, n)`` stack of them: every reduction runs
    along the last two axes, so each matrix of a stack gets the bits it gets
    alone.  A stack raises for the first degenerate column of its first
    matrix that has one."""
    mode = PreprocessMode(mode)
    if mode is PreprocessMode.NONE:
        return x
    # The reductions that x.mean(axis=1) and np.linalg.norm(axis=0) run,
    # called directly: the same values, without the wrappers' overhead.
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]
    norms = np.sqrt(np.add.reduce(centered * centered, axis=-2, keepdims=True))
    peak = np.maximum.reduce(np.abs(x), axis=(-2, -1), keepdims=True)
    bad = norms <= 1e-12 * np.maximum(1.0, peak)
    if bad.any():
        raise DegenerateColumnError(column=int(bad.argmax()) % x.shape[-1])
    return centered / norms


EIG_BACKEND_GRAM_FACTOR = "gram_factor"
EIG_BACKEND_POWER_ITERATION = "power_iteration"
ROW_SUM_BACKEND_GRAM_FACTOR = "gram_factor"
ROW_SUM_BACKEND_DENSE = "dense"


def backends(d: int, n: int, backend=None) -> tuple[str, str]:
    """The ``(row_sum_backend, eig_backend)`` of an overlap of d-by-n
    factors: the one plan of which statistic reads the factors and which
    the dense ``H``.

    The row sums take ``backend`` if pinned (``ValueError`` on an unknown
    name).  Otherwise they come from the factors (``"gram_factor"``, about
    ``4 d^2 n`` flops) when ``2 d < n``, where that undercuts forming ``H``
    (``2 d n^2``), and are summed from ``H`` (``"dense"``) otherwise: the
    tie goes to the dense backend.

    The eigenpair comes from the factors (``"gram_factor"``) when ``4 d^2
    <= n``, and from power iteration on ``H`` (``"power_iteration"``)
    otherwise.  The factored solve (:func:`_khatri_rao_vectors`) costs the
    ``d^4 n``-flop product ``Z Z^T`` plus repeated squaring of that
    ``d^2``-by-``d^2`` matrix, ``d^6`` flops a squaring, mostly 7 to 11
    squarings on the synthetic overlaps of :mod:`gramoverlap.synth` and at
    most 40.  Power iteration on an n-by-n ``H`` costs one order-n
    matrix-vector product per iteration, and takes 11 to 136 iterations on
    those overlaps.  The rule was calibrated when the factored solve ran a
    full ``d^2``-order symmetric eigendecomposition (``eigh``) in place of
    the squarings: timed against each other on those overlaps
    (single-threaded OpenBLAS, d from 3 to 24, n from 0.35 to 2.8 times ``4
    d^2``), for every d >= 8 the factored solve was the slower below ``n =
    4 d^2``, within a factor 1.3 either way at it, and the faster from 1.4
    times it up; for d <= 6 it was the faster at every n.  The squarings
    cost no more than ``eigh`` on typical instances, so the rule is kept
    until a workload that reads the eigenpair on both sides of it can
    recalibrate it.
    """
    if backend is None:
        backend = ROW_SUM_BACKEND_GRAM_FACTOR if 2 * d < n else ROW_SUM_BACKEND_DENSE
    elif backend not in (ROW_SUM_BACKEND_DENSE, ROW_SUM_BACKEND_GRAM_FACTOR):
        raise ValueError(f"unknown row-sum backend {backend!r}")
    factored = 4 * d * d <= n
    return backend, EIG_BACKEND_GRAM_FACTOR if factored else EIG_BACKEND_POWER_ITERATION


def forms_h(d: int, n: int, eigenpair: bool, backend=None) -> bool:
    """True when an overlap of d-by-n factors, built with row-sum backend
    ``backend`` (see :func:`backends`), forms the dense ``H`` once its
    statistic is read: the eigenpair if ``eigenpair``, else the row sums."""
    row_sums, eig = backends(d, n, backend)
    return row_sums == ROW_SUM_BACKEND_DENSE or (
        eigenpair and eig == EIG_BACKEND_POWER_ITERATION
    )


# Per cgroup version: the limit file, the usage file, and the key of the
# reclaimable (inactive) page cache in memory.stat.
_CGROUP_MEMORY_FILES = {
    1: ("memory.limit_in_bytes", "memory.usage_in_bytes", "total_inactive_file"),
    2: ("memory.max", "memory.current", "inactive_file"),
}
_CGROUP_UNLIMITED = 2**60


@functools.cache
def _cgroup_memory_dirs(
    proc_cgroup: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup"
) -> tuple[tuple[Path, int], ...]:
    """Memory-controller directories of the process's own cgroup and all its
    ancestors, each with its cgroup version, read once per process.

    A v1 memory hierarchy is mounted at ``root/memory``, the v2 unified one
    at ``root``; lines of ``proc_cgroup`` that name neither are skipped.
    """
    try:
        with open(proc_cgroup) as f:
            lines = f.read().splitlines()
    except (OSError, ValueError):
        return ()
    dirs = []
    for line in lines:
        fields = line.split(":", 2)
        if len(fields) != 3:
            continue
        hierarchy, controllers, path = fields
        if hierarchy == "0" and controllers == "":
            base, version = Path(root), 2
        elif "memory" in controllers.split(","):
            base, version = Path(root) / "memory", 1
        else:
            continue
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts), -1, -1):
            dirs.append((base.joinpath(*parts[:depth]), version))
    return tuple(dirs)


def _cgroup_headroom(dirs) -> int | None:
    """Smallest ``limit - usage + inactive file cache`` over the memory
    cgroups ``dirs``, or None when none of them sets a limit.

    A limit of ``max`` or of at least ``2**60`` is no limit; a directory
    whose limit or usage cannot be read is skipped, and one whose
    ``memory.stat`` cannot be read counts no inactive cache.
    """
    best = None
    for d, version in dirs:
        limit_file, usage_file, inactive_key = _CGROUP_MEMORY_FILES[version]
        try:
            limit = (d / limit_file).read_text().strip()
            if limit == "max" or int(limit) >= _CGROUP_UNLIMITED:
                continue
            room = int(limit) - int((d / usage_file).read_text())
        except (OSError, ValueError):
            continue
        try:
            for line in (d / "memory.stat").read_text().splitlines():
                key, _, value = line.partition(" ")
                if key == inactive_key:
                    room += int(value)
                    break
        except (OSError, ValueError):
            pass
        room = max(room, 0)
        best = room if best is None else min(best, room)
    return best


def _host_available_bytes() -> int | None:
    """``MemAvailable`` from ``/proc/meminfo``, else the free physical pages
    that ``os.sysconf`` reports, else None (unknown)."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def _available_bytes() -> int | None:
    """Memory the process can still allocate: the smaller of the host's
    available memory and the headroom under its cgroups' memory limits,
    whichever are known, else None (unknown)."""
    known = [
        b
        for b in (_host_available_bytes(), _cgroup_headroom(_cgroup_memory_dirs()))
        if b is not None
    ]
    return min(known, default=None)


def check_dense_fits(n: int) -> None:
    """Raise :class:`SizeLimitError` when forming a dense n-by-n overlap
    cannot fit in the memory available to the process.

    Forming it holds two n-by-n float64 arrays, ``16 n^2`` bytes, at the
    peak: the overlap and one more Gram matrix.  When the available memory
    is unknown nothing is refused.
    """
    need = 16 * n**2
    available = _available_bytes()
    if available is not None and need > available:
        raise SizeLimitError(
            f"forming the dense {n}x{n} overlap needs "
            f"{need / 2**20:.0f} MiB at its peak, but only "
            f"{available / 2**20:.0f} MiB are available"
        )


POWER_TOL_DEFAULT = 1e-10
POWER_MAX_ITER_DEFAULT = 1000

# Cap on the squarings of _top_eigvectors_by_squaring.  After j squarings an
# eigenvalue (1 - delta) lambda_1 keeps a weight exp(-delta 2^j) of the top
# one's, so the residual it can leave is at most delta exp(-delta 2^j)
# lambda_1 <= lambda_1 / (e 2^j): about 3e-13 lambda_1 at j = 40, far below
# the 1e-10 residual test, whatever the gap.  The loop usually stops long
# before, when the normalising trace settles.
KHATRI_RAO_MAX_SQUARINGS = 40


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
    ``iterations = 1000``.  The vector is signed by
    :func:`~gramoverlap.linalg.sign_flips`.
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
    if linalg.sign_flips(v[None])[0]:
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
    stack ``ys``.  A product that overflows is left infinite, with no numpy
    warning, for :func:`_khatri_rao_vectors` to refuse."""
    p, d, n = ys.shape
    with np.errstate(over="ignore"):
        z = x[None, :, None, :] * ys[:, None, :, :]
    return z.reshape(p, d * d, n)


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
    does.  A stack whose ``G`` overflows float64 raises ``ValueError``
    before the squarings, with no numpy warning, as a formed ``H`` does.
    """
    n = z.shape[2]
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.matmul(z, z.transpose(0, 2, 1))
    if not np.isfinite(g).all():
        raise ValueError(
            "the Khatri-Rao Gram Z Z^T has non-finite entries: it overflows"
        )
    u = _top_eigvectors_by_squaring(g)
    w = np.matmul(u[:, None, :], z)[:, 0]
    norms = np.sqrt(np.matmul(w[:, None, :], w[:, :, None])[:, 0, 0])
    zero = norms == 0.0
    if np.count_nonzero(zero):
        w[zero] = 1.0 / math.sqrt(n)
        norms[zero] = 1.0
    w /= norms[:, None]
    np.negative(w, out=w, where=linalg.sign_flips(w)[:, None])
    return w


def _khatri_rao_row_sums(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The row sums of ``H_p = (X^T X) o (Y_p^T Y_p)`` for each matrix of
    the ``(p, d, n)`` stack ``ys``, one a row, without forming any ``H_p``.

    By the face-splitting identity ``H = Z^T Z`` (column i of ``Z`` is
    ``x_i (x) y_i``), so ``H 1 = Z^T (Z 1)``, and entry i is ``x_i^T (X
    Y^T) y_i``: one d-by-d product ``X Y^T``, its product with ``Y`` and a
    column-wise dot product with ``X``.  The cost is about ``4 d^2 n`` flops
    and ``O(d n)`` memory a pair.  Every product runs on the whole stack, so
    row p has the bits that pair p gets alone.  An overflow leaves its row
    non-finite, with no numpy warning, for the classifier to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        xy = np.matmul(x, ys.transpose(0, 2, 1))
        return np.einsum("ij,pij->pj", x, np.matmul(xy, ys))


class OverlapMatrix:
    """Overlap matrix ``H = gram(X) o gram(Y)`` of one X with one Y (a pair)
    or with each Y of a stack, and its statistics.

    Built from the preprocessed d-by-n ``xp`` and a d-by-n ``yp`` or a
    ``(p, d, n)`` stack of them, ``H`` is exactly symmetric by construction,
    so it is not re-checked: :attr:`h` takes one finiteness pass, and the
    solvers check nothing.  Only a pair forms ``H``: a stack's statistics
    come from the factors, :attr:`h` raises ``ValueError`` for a stack, and
    so does a stack's construction with the dense row-sum backend.
    A statistic keeps ``yp``'s leading axes (``(p, n)`` for a stack), and row
    i of a stack's is that of the pair overlap of ``yp[i]``, bit for bit.
    ``p`` is the stack's size, None for a pair.  :meth:`wrap` wraps a
    user-supplied pair ``H`` instead.

    The statistics, computed on each call, are :meth:`row_sums`,
    :meth:`leading_eigenvector` and, of a pair, :meth:`leading_eigenpair`.
    Each reads either the factors, through the face-splitting identity ``H
    = Z^T Z`` (column i of ``Z`` is ``x_i (x) y_i``), or the dense ``H``, as
    :func:`backends` plans from d, n and the pinned row-sum ``backend``,
    once, at construction: :attr:`row_sum_backend` and :attr:`eig_backend`
    do not depend on which statistic is read first.  The dense row sums
    form ``H`` at construction; otherwise :attr:`h` forms it on first read,
    so a caller whose statistics both come from the factors never holds an
    n-by-n array.
    """

    def __init__(self, xp: np.ndarray, yp: np.ndarray, backend=None):
        if yp.ndim not in (2, 3) or xp.shape != yp.shape[-2:]:
            raise ValueError(
                f"yp must be of xp's shape or a stack of them, got "
                f"{xp.shape} and {yp.shape}"
            )
        self.xp, self.yp, self._h = xp, yp, None
        self.d, self.n = xp.shape
        self.p = len(yp) if yp.ndim == 3 else None
        self.row_sum_backend, self.eig_backend = backends(self.d, self.n, backend)
        if self.row_sum_backend == ROW_SUM_BACKEND_DENSE:
            _ = self.h

    @classmethod
    def wrap(cls, h, d: int) -> "OverlapMatrix":
        """The pair overlap ``h`` of a user's d-dimensional point sets,
        checked once, here (square, finite, exactly symmetric).  It holds no
        factors, so both statistics read ``h``: the dense row sums and power
        iteration."""
        if d < 1:
            raise ValueError("a wrapped h needs d of at least 1")
        self = cls.__new__(cls)
        self.xp = self.yp = self.p = None
        self._h = linalg.check_symmetric(h, "h")
        self.d, self.n = d, self._h.shape[0]
        self.row_sum_backend = ROW_SUM_BACKEND_DENSE
        self.eig_backend = EIG_BACKEND_POWER_ITERATION
        return self

    @property
    def h(self) -> np.ndarray:
        """The dense overlap of a pair, formed on first use and kept;
        refused by :func:`check_dense_fits` before anything is allocated.
        Y's Gram is formed, then multiplied in place by X's Gram.  An
        overflow (with no numpy warning) or a stack raises ``ValueError``."""
        if self._h is None:
            if self.p is not None:
                raise ValueError("only a pair forms H; a stack reads its factors")
            check_dense_fits(self.n)
            with np.errstate(over="ignore", invalid="ignore"):
                h = linalg.gram(self.yp)
                h *= linalg.gram(self.xp)
            if not np.isfinite(h).all():
                raise ValueError("the overlap H has non-finite entries: it overflows")
            self._h = h
        return self._h

    def _ys(self) -> np.ndarray:
        """``yp`` with a leading axis of one row a Y: a pair's is one row."""
        return self.yp[None] if self.p is None else self.yp

    def _shaped(self, rows: np.ndarray) -> np.ndarray:
        """``rows``, one a Y, with ``yp``'s leading axes: a pair's one row."""
        return rows[0] if self.p is None else rows

    def row_sums(self) -> np.ndarray:
        """Row sums of each ``H`` from :attr:`row_sum_backend`.

        The factored sums agree with ``h.sum(axis=-1)`` to rounding (within
        ``1e-12`` of each row's absolute sum on the tested grid), not bit for
        bit.
        """
        if self.row_sum_backend == ROW_SUM_BACKEND_GRAM_FACTOR:
            return self._shaped(_khatri_rao_row_sums(self.xp, self._ys()))
        return self.h.sum(axis=-1)

    def leading_eigenvector(self) -> np.ndarray:
        """The unit, sign-fixed leading eigenvector of each ``H`` from
        :attr:`eig_backend`; ``H = 0`` gives the normalized all-ones
        vector.  Power iteration reads :attr:`h`, so it serves a pair
        only."""
        if self.eig_backend == EIG_BACKEND_GRAM_FACTOR:
            z = _khatri_rao(self.xp, self._ys())
            return self._shaped(_khatri_rao_vectors(z))
        return _power_iteration(self.h).vector

    def leading_eigenpair(self) -> SpectralPair:
        """Leading eigenpair of a pair's ``H`` from :attr:`eig_backend`.

        Either backend returns :meth:`leading_eigenvector`'s vector, and
        value 0 when ``H = 0``.  The factored backend reports 0 iterations;
        its value is the Rayleigh quotient ``||Z v||^2``, its residual
        ``||H v - value v||`` is computed matrix-free as ``Z^T (Z v) - value
        v``, and ``converged`` applies the test of :func:`_power_iteration`
        at its fixed tolerance.  A stack raises ``ValueError``: a sweep
        reads only its vectors, so it does not pay for these facts.
        """
        if self.p is not None:
            raise ValueError("a stack's eigenvectors are read by leading_eigenvector")
        if self.eig_backend == EIG_BACKEND_POWER_ITERATION:
            return _power_iteration(self.h)
        z = _khatri_rao(self.xp, self._ys())
        v = _khatri_rao_vectors(z)[0]
        z = z[0]
        # v is sign-fixed already: negating it negates zv and r exactly, so
        # value and residual keep their bits.
        zv = z @ v
        value = float(zv @ zv)
        r = zv @ z - value * v
        residual = math.sqrt(r @ r)
        converged = residual <= POWER_TOL_DEFAULT * max(1.0, abs(value))
        return SpectralPair(value, v, 0, residual, converged)


def _preprocessed_pair(x, y, mode: PreprocessMode) -> tuple[np.ndarray, np.ndarray]:
    x = linalg.as_matrix(x, "x")
    y = linalg.as_matrix(y, "y")
    if y.shape != x.shape:
        raise ValueError(f"shape mismatch: x is {x.shape}, y is {y.shape}")
    if x.shape[1] < 2:
        raise ValueError("need at least two points")
    return _preprocess(x, mode), _preprocess(y, mode)


def build_overlap(x, y, mode: PreprocessMode, backend=None) -> OverlapMatrix:
    """Overlap of two equally-shaped d-by-n point sets, a pair held as their
    preprocessed factors; ``backend`` is its row-sum backend (None: picked
    from d and n, see :class:`OverlapMatrix`)."""
    xp, yp = _preprocessed_pair(x, y, mode)
    return OverlapMatrix(xp=xp, yp=yp, backend=backend)


@dataclass(frozen=True, eq=False)
class PopulationModel:
    """Inlier/outlier layout for the rotated-inlier Gaussian model.

    ``inliers`` holds the sorted indices whose points match across the two
    sets; the rest are independent.  The inlier fraction must be strictly
    between 0 and 1.
    """

    d: int
    n: int
    inliers: np.ndarray

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        g = np.unique(np.asarray(self.inliers, dtype=np.intp))
        if g.size and (g[0] < 0 or g[-1] >= self.n):
            raise ValueError("inlier indices out of range")
        if not 1 <= g.size <= self.n - 1:
            raise ValueError("inlier fraction must be strictly between 0 and 1")
        object.__setattr__(self, "inliers", g)

    @property
    def n_inliers(self) -> int:
        return int(self.inliers.size)


def population_overlap(m: PopulationModel) -> np.ndarray:
    """Exact expectation of the overlap matrix under the model.

    d^2 on every diagonal entry, plus d on every inlier-by-inlier entry, plus
    an extra d on inlier diagonal entries; all remaining entries are zero.
    """
    d = float(m.d)
    e = d * d * np.eye(m.n)
    g = m.inliers
    e[np.ix_(g, g)] += d
    e[g, g] += d
    return e


def population_spectrum(m: PopulationModel) -> tuple[float, np.ndarray, float]:
    """Leading eigenpair and eigengap of the expected overlap matrix.

    Returns ``(value, vector, gap)``: the top eigenvalue d^2 + d(k+1) for k
    inliers, its unit eigenvector (1/sqrt(k) on inliers, 0 elsewhere), and the
    gap k*d down to the next eigenvalue.
    """
    d = float(m.d)
    k = m.n_inliers
    value = d * d + d * (k + 1)
    vector = np.zeros(m.n)
    vector[m.inliers] = 1.0 / np.sqrt(k)
    gap = d * k
    return value, vector, gap


def population_row_sum_mean(m: PopulationModel, i: int) -> float:
    """Expected row sum of the overlap matrix at index ``i``."""
    if not 0 <= i < m.n:
        raise IndexError(f"index {i} out of range for n={m.n}")
    d = float(m.d)
    if i in m.inliers:
        return d * d + d * (m.n_inliers + 1)
    return d * d
