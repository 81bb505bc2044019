"""From paired point sets to the overlap matrix, plus its exact population model.

The overlap matrix of two d-by-n point sets X and Y is the entrywise product
of their Gram matrices.  When a subset of columns of Y is a common rotation of
the matching columns of X, that inlier block carries squared inner products of
X ("agreement"), while entries touching unmatched columns average out to zero.
The population functions give the exact expectation of the overlap matrix, its
leading eigenpair, and its row-sum means under the rotated-inlier Gaussian
model; they are the oracles most tests check against.
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


def factored_eig_is_cheaper(d: int, n: int) -> bool:
    """True when the factored eigensolve is expected to beat power iteration.

    The factored solve (:func:`linalg._khatri_rao_vectors`) costs the
    ``d^4 n``-flop product ``Z Z^T`` plus repeated squaring of that
    ``d^2``-by-``d^2`` matrix, ``d^6`` flops a squaring, mostly 7 to 11
    squarings on the synthetic overlaps of :mod:`gramoverlap.synth` and at
    most 40.
    Power iteration on an n-by-n ``H`` costs one order-n matrix-vector
    product per iteration, and takes 11 to 136 iterations on those
    overlaps.  The rule was calibrated when the factored solve ran a full
    ``d^2``-order symmetric eigendecomposition (``eigh``) in place of the
    squarings: timed against each other on those overlaps (single-threaded
    OpenBLAS, d from 3 to 24, n from 0.35 to 2.8 times ``4 d^2``), for every
    d >= 8 the factored solve was the slower below ``n = 4 d^2``, within a
    factor 1.3 either way at it, and the faster from 1.4 times it up; for
    d <= 6 it was the faster at every n.  The squarings cost no more than
    ``eigh`` on typical instances, so the rule is kept until a workload
    that reads the eigenpair on both sides of it can recalibrate it.
    """
    return 4 * d * d <= n


ROW_SUM_BACKEND_GRAM_FACTOR = "gram_factor"
ROW_SUM_BACKEND_DENSE = "dense"


def factored_row_sums_are_cheaper(d: int, n: int) -> bool:
    """True when the factored row sums (about ``4 d^2 n`` flops) undercut
    forming ``H`` (``2 d n^2``); the tie goes to the dense backend."""
    return 2 * d < n


def row_sum_backend(d: int, n: int, backend=None) -> str:
    """The row-sum backend of an overlap of d-by-n factors: ``backend`` if
    pinned (``ValueError`` on an unknown name), else the one
    :func:`factored_row_sums_are_cheaper` picks."""
    if backend is None:
        factored = factored_row_sums_are_cheaper(d, n)
        return ROW_SUM_BACKEND_GRAM_FACTOR if factored else ROW_SUM_BACKEND_DENSE
    if backend not in (ROW_SUM_BACKEND_DENSE, ROW_SUM_BACKEND_GRAM_FACTOR):
        raise ValueError(f"unknown row-sum backend {backend!r}")
    return backend


def forms_h(d: int, n: int, eigenpair: bool, backend=None) -> bool:
    """True when an overlap of d-by-n factors, built with row-sum backend
    ``backend`` (None: picked from d and n), forms the dense ``H`` once its
    statistic is read: the eigenpair if ``eigenpair``, else the row sums.

    The dense row-sum backend forms ``H`` at construction; otherwise only
    power iteration does, when the eigenpair is read and
    :func:`factored_eig_is_cheaper` is false.
    """
    if row_sum_backend(d, n, backend) == ROW_SUM_BACKEND_DENSE:
        return True
    return eigenpair and not factored_eig_is_cheaper(d, n)


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
    ``p`` is the stack's size, None for a pair.
    ``OverlapMatrix(h, d=...)`` wraps a user-supplied pair instead, checked
    once at construction (square, finite, exactly symmetric) and without
    factors, so ``d`` is given.

    The statistics, computed on each call, are :meth:`row_sums`,
    :meth:`leading_eigenvector` and, of a pair, :meth:`leading_eigenpair`.
    Each has a backend that reads only the factors, through the
    face-splitting identity ``H = Z^T Z`` (column i of ``Z`` is ``x_i (x)
    y_i``), and one that reads the dense ``H``.  The row sums come from
    ``Z^T (Z 1)`` (``"gram_factor"``) or are summed from ``H`` (``"dense"``,
    bit-identical to ``h.sum(axis=-1)``); ``backend`` pins one, and None
    picks ``"gram_factor"`` when the factors are held and
    :func:`factored_row_sums_are_cheaper`.  The eigenvector comes from
    repeated squaring of the d^2-by-d^2 ``Z Z^T`` (``"gram_factor"``) when
    the factors are held and :func:`factored_eig_is_cheaper`, and from power
    iteration on ``H`` (``"power_iteration"``) otherwise.  Both backends are
    attributes fixed at construction, :attr:`row_sum_backend` and
    :attr:`eig_backend`, whichever statistic is read first.  The dense
    row-sum backend forms ``H`` at construction; otherwise :attr:`h` forms
    it on first read, so a caller whose statistics both come from the
    factors never holds an n-by-n array.
    """

    def __init__(self, h=None, *, d: int | None = None, xp=None, yp=None, backend=None):
        if (h is None) == (xp is None) or (xp is None) != (yp is None):
            raise ValueError("give either h or both factors xp and yp")
        self.xp, self.yp, self.p, self._h = xp, yp, None, None
        if h is None:
            if d is not None:
                raise ValueError("d is read from the factors; give it only with h")
            if yp.ndim not in (2, 3) or xp.shape != yp.shape[-2:]:
                raise ValueError(
                    f"yp must be of xp's shape or a stack of them, got "
                    f"{xp.shape} and {yp.shape}"
                )
            self.d, self.n = xp.shape
            if yp.ndim == 3:
                self.p = len(yp)
        else:
            if d is None or d < 1:
                raise ValueError("a wrapped h needs d of at least 1")
            self._h = linalg.check_symmetric(h, "h")
            self.d, self.n = d, self._h.shape[0]
        if xp is None and backend is None:
            backend = ROW_SUM_BACKEND_DENSE
        self.row_sum_backend = row_sum_backend(self.d, self.n, backend)
        if self.row_sum_backend == ROW_SUM_BACKEND_GRAM_FACTOR and xp is None:
            raise ValueError("the gram_factor backend needs the factors")
        factored = xp is not None and factored_eig_is_cheaper(self.d, self.n)
        self.eig_backend = (
            EIG_BACKEND_GRAM_FACTOR if factored else EIG_BACKEND_POWER_ITERATION
        )
        if self.row_sum_backend == ROW_SUM_BACKEND_DENSE:
            _ = self.h

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
            sums = linalg._khatri_rao_row_sums(self.xp, self._ys())
            return self._shaped(sums)
        return self.h.sum(axis=-1)

    def leading_eigenvector(self) -> np.ndarray:
        """The unit, sign-fixed leading eigenvector of each ``H`` from
        :attr:`eig_backend`; ``H = 0`` gives the normalized all-ones
        vector.  Power iteration reads :attr:`h`, so it serves a pair
        only."""
        if self.eig_backend == EIG_BACKEND_GRAM_FACTOR:
            z = linalg._khatri_rao(self.xp, self._ys())
            return self._shaped(linalg._khatri_rao_vectors(z))
        return linalg._power_iteration(self.h).vector

    def leading_eigenpair(self) -> linalg.SpectralPair:
        """Leading eigenpair of a pair's ``H`` from :attr:`eig_backend`.

        Either backend returns :meth:`leading_eigenvector`'s vector, and
        value 0 when ``H = 0``.  The factored backend reports 0 iterations;
        its value is the Rayleigh quotient ``||Z v||^2``, its residual
        ``||H v - value v||`` is computed matrix-free as ``Z^T (Z v) - value
        v``, and ``converged`` applies the test of
        :func:`~gramoverlap.linalg._power_iteration` at its fixed
        tolerance.  A stack raises ``ValueError``: a sweep reads only its
        vectors, so it does not pay for these facts.
        """
        if self.p is not None:
            raise ValueError("a stack's eigenvectors are read by leading_eigenvector")
        if self.eig_backend == EIG_BACKEND_POWER_ITERATION:
            return linalg._power_iteration(self.h)
        z = linalg._khatri_rao(self.xp, self._ys())
        v = linalg._khatri_rao_vectors(z)[0]
        z = z[0]
        # v is sign-fixed already: negating it negates zv and r exactly, so
        # value and residual keep their bits.
        zv = z @ v
        value = float(zv @ zv)
        r = zv @ z - value * v
        residual = math.sqrt(r @ r)
        converged = residual <= linalg.POWER_TOL_DEFAULT * max(1.0, abs(value))
        return linalg.SpectralPair(value, v, 0, residual, converged)


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
