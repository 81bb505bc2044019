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
    x = linalg.as_matrix(x, "x")
    mode = PreprocessMode(mode)
    if mode is PreprocessMode.NONE:
        return x
    centered = x - x.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=0)
    tol = 1e-12 * max(1.0, float(np.abs(x).max()))
    bad = np.flatnonzero(norms <= tol)
    if bad.size:
        raise DegenerateColumnError(column=int(bad[0]))
    return centered / norms


EIG_BACKEND_GRAM_FACTOR = "gram_factor"
EIG_BACKEND_POWER_ITERATION = "power_iteration"


def factored_eig_is_cheaper(d: int, n: int) -> bool:
    """True when the factored eigensolve is expected to beat power iteration.

    The factored solve (:func:`linalg.khatri_rao_eigenpair`) costs a
    ``d^2``-by-``d^2`` symmetric eigendecomposition plus the ``d^4 n``-flop
    product ``Z Z^T``.  Power iteration on an n-by-n ``H`` costs one order-n
    matrix-vector product per iteration, and takes 11 to 136 iterations on
    the synthetic overlaps of :mod:`gramoverlap.synth`.  Timed against each
    other on those overlaps (single-threaded OpenBLAS, d from 3 to 24, n from
    0.35 to 2.8 times ``4 d^2``), for every d >= 8 the factored solve was
    the slower below ``n = 4 d^2``, within a factor 1.3 either way at it,
    and the faster from 1.4 times it up; for d <= 6 it was the faster at
    every n.
    """
    return 4 * d * d <= n


ROW_SUM_BACKEND_GRAM_FACTOR = "gram_factor"
ROW_SUM_BACKEND_DENSE = "dense"


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
    peak.  When the available memory is unknown nothing is refused.
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
    """Overlap matrix ``H = gram(X) o gram(Y)`` and its statistics, each
    computed once and cached.

    Built from the preprocessed d-by-n factors ``xp`` and ``yp``, ``H`` is
    ``gram(xp) * gram(yp)``, exactly symmetric by construction, so it is not
    re-checked.  With ``form_h=True`` (as :func:`build_overlap` does) it is
    formed at construction; otherwise on first read of :attr:`h` (as
    :func:`factored_overlap` leaves it), so a caller whose statistics both
    come from the factors never holds an n-by-n array; ``d`` and ``n`` are
    read from the factors' shape.
    ``OverlapMatrix(h, d=...)`` wraps a user-supplied matrix instead; it is
    validated (square, finite, exactly symmetric) and has no factors, so
    ``d`` is given.

    Each statistic is computed once per overlap, however many rules classify
    it: :meth:`row_sums` and :meth:`leading_eigenpair`.  Both have a backend
    that reads only the factors, through the face-splitting identity ``H =
    Z^T Z`` (column i of ``Z`` is ``x_i (x) y_i``), and one that reads the
    dense ``H``, formed on first use by the statistic that reads it.  The
    eigenpair comes from the d^2-by-d^2 Khatri-Rao Gram ``Z Z^T``
    (``"gram_factor"``) when the factors are held and
    :func:`factored_eig_is_cheaper`, and from power iteration on ``H``
    (``"power_iteration"``) otherwise.  The row sums are summed from ``H``
    (``"dense"``) when it is given or formed at construction, so an eagerly
    built overlap gives bit-identical sums to a plain ``h.sum(axis=1)``, and
    come from ``Z^T (Z 1)`` (``"gram_factor"``) on an overlap that defers
    ``H``.  Both backends are fixed at construction: they do not depend on
    which statistic a caller reads first.
    """

    def __init__(
        self, h=None, *, d: int | None = None, xp=None, yp=None, form_h: bool = False
    ):
        if (h is None) == (xp is None) or (xp is None) != (yp is None):
            raise ValueError("give either h or both factors xp and yp")
        if h is None:
            if d is not None:
                raise ValueError("d is read from the factors; give it only with h")
            if xp.shape != yp.shape:
                raise ValueError(
                    f"factors must have one shape, got {xp.shape} and {yp.shape}"
                )
            self.d, self.n = xp.shape
            self._h = None
        else:
            if d is None or d < 1:
                raise ValueError("a wrapped h needs d of at least 1")
            self._h = linalg.check_symmetric(h, "h")
            self.d, self.n = d, self._h.shape[0]
        self.xp = xp
        self.yp = yp
        if form_h:
            _ = self.h
        self.row_sum_backend = (
            ROW_SUM_BACKEND_GRAM_FACTOR if self._h is None else ROW_SUM_BACKEND_DENSE
        )
        self._row_sums = None
        self._pair = None

    @property
    def h(self) -> np.ndarray:
        """The dense n-by-n overlap matrix, formed on first use; refused by
        :func:`check_dense_fits` before anything is allocated."""
        if self._h is None:
            check_dense_fits(self.n)
            h = linalg.gram(self.xp)
            h *= linalg.gram(self.yp)  # in place: two n-by-n arrays at the peak
            self._h = h
        return self._h

    @property
    def eig_backend(self) -> str:
        """Solver that :meth:`leading_eigenpair` uses for this overlap."""
        if self.xp is not None and factored_eig_is_cheaper(self.d, self.n):
            return EIG_BACKEND_GRAM_FACTOR
        return EIG_BACKEND_POWER_ITERATION

    def row_sums(self) -> np.ndarray:
        """Row sums of ``H`` from :attr:`row_sum_backend` (cached; do not
        modify the returned array).

        The factored sums agree with ``h.sum(axis=1)`` to rounding (within
        ``1e-12`` of each row's absolute sum on the tested grid), not bit for
        bit.
        """
        if self._row_sums is None:
            if self.row_sum_backend == ROW_SUM_BACKEND_GRAM_FACTOR:
                self._row_sums = linalg.khatri_rao_row_sums(self.xp, self.yp)
            else:
                self._row_sums = self.h.sum(axis=1)
        return self._row_sums

    def leading_eigenpair(self) -> linalg.SpectralPair:
        """Leading eigenpair of ``H`` from :attr:`eig_backend` (cached).

        Either backend returns a unit, sign-fixed vector, and value 0 with
        the normalized all-ones vector when ``H = 0``; the factored backend
        reports 0 iterations.
        """
        if self._pair is None:
            if self.eig_backend == EIG_BACKEND_GRAM_FACTOR:
                self._pair = linalg.khatri_rao_eigenpair(self.xp, self.yp)
            else:
                self._pair = linalg.power_iteration(self.h)
        return self._pair


def _preprocessed_pair(x, y, mode: PreprocessMode) -> tuple[np.ndarray, np.ndarray]:
    x = linalg.as_matrix(x, "x")
    y = linalg.as_matrix(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: x is {x.shape}, y is {y.shape}")
    if x.shape[1] < 2:
        raise ValueError("need at least two points")
    return preprocess(x, mode), preprocess(y, mode)


def factored_overlap(x, y, mode: PreprocessMode) -> OverlapMatrix:
    """Overlap of two equally-shaped d-by-n point sets, held as their
    preprocessed factors, with ``H`` deferred.

    Checks the inputs as :func:`build_overlap` does.  The row sums come from
    the factors in ``O(d n)`` memory, and so does the eigenpair when
    :func:`factored_eig_is_cheaper`; ``H`` is formed only if power iteration
    needs it (see :class:`OverlapMatrix`).
    """
    xp, yp = _preprocessed_pair(x, y, mode)
    return OverlapMatrix(xp=xp, yp=yp)


def build_overlap(x, y, mode: PreprocessMode) -> OverlapMatrix:
    """Build the overlap matrix of two equally-shaped d-by-n point sets.

    The dense ``H`` is formed here, so the row sums are summed from it; the
    statistics are computed when first used (see :class:`OverlapMatrix`).
    """
    xp, yp = _preprocessed_pair(x, y, mode)
    return OverlapMatrix(xp=xp, yp=yp, form_h=True)


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

    @classmethod
    def from_rate(cls, d: int, n: int, r: float) -> "PopulationModel":
        """Model with inliers 0..rn-1; r*n must be integral."""
        k = r * n
        if abs(k - round(k)) > 1e-9:
            raise ValueError(f"r*n must be integral, got r={r}, n={n}")
        return cls(d=d, n=n, inliers=np.arange(int(round(k))))

    @property
    def r(self) -> float:
        return self.inliers.size / self.n

    @property
    def n_inliers(self) -> int:
        return int(self.inliers.size)

    @property
    def outliers(self) -> np.ndarray:
        mask = np.ones(self.n, dtype=bool)
        mask[self.inliers] = False
        return np.flatnonzero(mask)


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
