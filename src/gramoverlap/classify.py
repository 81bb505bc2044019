"""Turn an overlap matrix into an inlier/outlier partition.

One matcher, two statistics: it thresholds (or 2-means clusters) either the
coordinates of the leading eigenvector of the overlap matrix or its shifted
row sums, through one exact 2-means solver that runs along the rows of a
stack (one row for a single statistic).  The error metrics compare a
partition against ground truth.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DegenerateValuesError
from .overlap import OverlapMatrix, forms_h

METHOD_EIGENVECTOR = "eigenvector"
METHOD_ROW_SUM = "row_sum"
_METHODS = (METHOD_EIGENVECTOR, METHOD_ROW_SUM)

# Fixed-threshold defaults when no explicit value is supplied: t for the
# eigenvector rule, and T = d*(r*n+1)/2 for the row-sum rule (needs r).
DEFAULT_EIG_THRESHOLD = 0.5

# two_means_1d treats values whose spread is at most this many units in the
# last place of their largest magnitude as one value, rounded differently.
TWO_MEANS_TIE_ULPS = 16


class LabelPartition:
    """Split of 0..n-1 into estimated inliers and outliers, held as a copy of
    a boolean inlier mask (read flattened); the sorted ``intp`` index arrays
    are derived from it on first use."""

    def __init__(self, inlier_mask):
        self._mask = np.array(inlier_mask, dtype=bool).ravel()

    @classmethod
    def from_inliers(cls, n: int, inliers) -> "LabelPartition":
        mask = np.zeros(n, dtype=bool)
        mask[np.asarray(inliers, dtype=np.intp)] = True
        return cls(mask)

    @property
    def n(self) -> int:
        return self._mask.size

    @cached_property
    def inliers(self) -> np.ndarray:
        return self._mask.nonzero()[0]

    @cached_property
    def outliers(self) -> np.ndarray:
        return (~self._mask).nonzero()[0]

    def inlier_mask(self) -> np.ndarray:
        return self._mask.copy()

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelPartition):
            return NotImplemented
        return np.array_equal(self._mask, other._mask)


@dataclass(frozen=True)
class MatchConfig:
    """Matcher selection and its branch parameters.

    ``threshold`` and ``use_two_means`` are mutually exclusive; with neither a
    fixed default threshold is used (t = 0.5 for the eigenvector rule, and the
    row-sum rule derives T = d*(r*n+1)/2 from ``inlier_rate``, which a config
    of any other rule refuses).
    """

    method: str = METHOD_ROW_SUM
    threshold: float | None = None
    use_two_means: bool = True
    inlier_rate: float | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.threshold is not None:
            if self.use_two_means:
                raise ValueError("threshold and use_two_means are mutually exclusive")
            if not 0 < self.threshold < math.inf:
                raise ValueError("threshold must be positive and finite")
        if self.inlier_rate is not None and not 0 < self.inlier_rate < 1:
            raise ValueError("inlier_rate must be in (0, 1)")
        if self.inlier_rate is not None and not self.reads_inlier_rate:
            raise ValueError("only the row-sum default threshold reads inlier_rate")

    @property
    def reads_inlier_rate(self) -> bool:
        """Whether the rule reads ``inlier_rate``: the row-sum default."""
        default = self.threshold is None and not self.use_two_means
        return default and self.method == METHOD_ROW_SUM

    def check_runnable(self) -> None:
        """Raise ``ValueError`` when the rule reads an inlier rate that is
        not set.  Such a config is accepted (a sweep's ``rowsum:auto`` gets
        its rate at each grid point), but no matcher can run it."""
        if self.reads_inlier_rate and self.inlier_rate is None:
            raise ValueError("default row-sum threshold requires inlier_rate to be set")


@dataclass
class MatchDiagnostics:
    """Side-channel facts about one matcher run."""

    method: str
    branch: str  # "threshold" | "two_means"
    n: int
    stat_min: float
    stat_max: float
    threshold: float | None = None  # the cut actually compared against
    centroids: tuple[float, float] | None = None
    centroid_gap: float | None = None
    degenerate: bool = False  # constant statistic; fell back to all-outliers
    leading_eigenvalue: float | None = None
    eig_backend: str | None = None  # "gram_factor" | "power_iteration"
    row_sum_backend: str | None = None  # "gram_factor" | "dense"
    residual: float | None = None
    iterations: int | None = None
    converged: bool | None = None
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        if self.centroids is not None:
            out["centroids"] = list(self.centroids)
        return out


def two_means_1d(values) -> tuple[LabelPartition, tuple[float, float]]:
    """Globally optimal 2-cluster SSE partition of scalars.

    Sorts the values and scans every contiguous split, so the result is the
    exact 2-means optimum (the optimal bipartition of scalars is always a
    sorted split).  The upper cluster becomes the inliers.  SSE ties break
    toward the larger inlier cluster; where rounding ties put the split
    inside a run of equal values, the lowest-indexed of them stay in the
    lower cluster.  The centroids are the means of the sorted clusters.
    Constant input raises :class:`DegenerateValuesError`.

    The result is shift-invariant in floating point, not only in exact
    arithmetic.  Split costs come from prefix sums ``sum(s^2) - sum(s)^2/m``,
    which cancel catastrophically when the values sit on a large offset, so
    the sorted values are first re-centred on their own median element.  For
    an exactly representable shift ``c`` the differences ``(v_i + c) -
    (v_med + c)`` and ``v_i - v_med`` are the same real number and so round
    to the same double: ``two_means_1d(v + c)`` then scores bit-identical
    costs and returns the same partition as ``two_means_1d(v)``.

    Input whose spread is at most :data:`TWO_MEANS_TIE_ULPS` (16) units in
    the last place of its largest magnitude raises: such values cannot be
    told from one value rounded differently.  The bound scales with the
    input, so input scaled by a power of two (outside the subnormal range)
    raises exactly when the unscaled input does.  It is a few ulps, not a
    fixed fraction of the magnitude, so an exact shift ``c`` raises only
    when the spread is within 16 ulps of ``|v + c|``: the shifted values
    then carry no more bits of the spread than rounding noise does.

    The values are solved as the one row of the row-wise solver that a
    sweep trial runs on all its grid points at once, so a row of that stack
    and this call give the same partition bit for bit.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("values must be 1-D")
    s, k, mask = _two_means_rows(v[None])
    n, k = v.size, int(k[0])
    if k == n:
        raise DegenerateValuesError("all values equal; no 2-cluster split exists")
    low = float(np.add.reduce(s[0, :k]) / k)
    high = float(np.add.reduce(s[0, k:]) / (n - k))
    return LabelPartition(mask[0]), (low, high)


def _two_means_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact 2-means split of each row of the 2-D float64 array ``v``,
    bit for bit as :func:`two_means_1d` makes it: the sorted rows, each
    row's lower-cluster size ``k`` and the inlier masks (the upper
    clusters).  A row within the tie bound gets ``k = n`` and no inliers.

    Every step runs along the last axis: a sort of the values (not of their
    indices), the in-place split costs from sequential prefix sums, and the
    first minimum of each row, so a row's split does not depend on the rows
    beside it.  The labels come from the row's k-th smallest value ``t``:
    the inliers are the values above ``t``.

    In exact arithmetic equal values never straddle the best split, so the
    order of equal values cannot move a label.  Moving a split through a
    run of equal values ``v``, the lower cluster's sum is ``a + v k`` and
    ``(a + v k)^2 / k = a^2 / k + 2 a v + v^2 k`` is convex in ``k``; so is
    the upper cluster's term, so the cost is concave along the run and its
    minimum lies at one of the run's ends (a split at the input's own end
    is the one-cluster cost, which is no lower).  In floating point the
    costs can tie after rounding, e.g. all underflow to zero on a row of
    zeros and one ``1e-300``; the first minimum then falls inside the run,
    and more than ``k`` values are at most ``t``.  In such a row the first
    of the values equal to ``t``, in index order, fill the lower cluster up
    to ``k``, which is the labelling a stable sort of the indices gives.

    The sorted rows equal a stable sort's by value, but ``np.sort`` may
    order zeros of either sign differently, or even write ``-0.0`` where
    the input held ``+0.0``.  Nothing computed from them depends on that:
    ``x + (+-0) = x`` for ``x != 0``, so a prefix sum differs at most in the
    sign of a zero, and the split costs square the sums; the tie bound is
    unmoved, as ``np.spacing(-0.0) == np.spacing(0.0)``; and ``t`` is
    compared by value, where ``-0.0 == 0.0``.  A centroid of
    :func:`two_means_1d` could differ only in the sign of a zero, but
    ``np.add.reduce`` returns ``0.0`` for a sum of zeros of any signs.
    """
    p, n = v.shape
    if n < 2:
        raise ValueError("need at least two values")
    if not np.isfinite(v).all():
        raise ValueError("values contain non-finite entries")
    s = np.sort(v, axis=1)
    c = s - s[:, n // 2, None]
    spread = c[:, -1] - c[:, 0]
    tied = spread <= TWO_MEANS_TIE_ULPS * np.spacing(np.maximum(-s[:, 0], s[:, -1]))
    # Prefix sums with a leading zero: ps[:, j] = sum(c[:, :j]), and pq of
    # the squares.
    ps = np.empty((p, n + 1))
    pq = np.empty((p, n + 1))
    ps[:, 0] = pq[:, 0] = 0.0
    np.add.accumulate(c, axis=1, out=ps[:, 1:])
    np.add.accumulate(c * c, axis=1, out=pq[:, 1:])
    # Split costs, in place: the lower cluster's into ``costs``, the upper
    # cluster's into the tails of ps and pq.  The upper size n - m is m
    # reversed.
    m = np.arange(1, n, dtype=np.float64)  # lower-cluster size of each split
    low_s, low_q = ps[:, 1:n], pq[:, 1:n]
    costs = low_s * low_s
    costs /= m
    np.subtract(low_q, costs, out=costs)
    high_s = np.subtract(ps[:, n, None], low_s, out=low_s)
    high_s *= high_s
    high_s /= m[::-1]
    high_q = np.subtract(pq[:, n, None], low_q, out=low_q)
    high_q -= high_s
    costs += high_q
    # argmin takes the first minimum = smallest lower cluster = largest upper
    # cluster, which is the required tie-break.
    k = costs.argmin(axis=1) + 1
    k[tied] = n
    t = s[np.arange(p), k - 1]
    mask = v > t[:, None]
    upper = np.count_nonzero(mask, axis=1)
    for i in (upper != n - k).nonzero()[0]:  # equal values straddle the split
        equal = (v[i] == t[i]).nonzero()[0]
        below = n - upper[i] - equal.size
        mask[i, equal[k[i] - below :]] = True
    return s, k, mask


def _fixed_cut(cfg: MatchConfig, d: int, n: int) -> float:
    """The cut of a threshold config on an overlap of d-by-n factors:
    t / sqrt(n) for the eigenvector rule, and T, by default d*(r*n+1)/2,
    for the row-sum rule."""
    if cfg.method == METHOD_EIGENVECTOR:
        t = DEFAULT_EIG_THRESHOLD if cfg.threshold is None else cfg.threshold
        return t / math.sqrt(n)
    if cfg.threshold is not None:
        return cfg.threshold
    return d * (cfg.inlier_rate * n + 1) / 2.0


def _classify_rows(stats: np.ndarray, cfgs, d: int) -> np.ndarray:
    """Inlier masks of the rows of a (p, n) stack of statistics, row i
    classified by ``cfgs[i]`` as :func:`match` classifies it; every config
    takes one branch, and the rows may come from either rule.

    The 2-means branch splits every row at once (see
    :func:`two_means_1d`), each row on its own, and a constant row gets no
    inliers; the threshold branch compares each row with its own cut.
    """
    if cfgs[0].use_two_means:
        return _two_means_rows(stats)[2]
    cuts = np.array([_fixed_cut(cfg, d, stats.shape[1]) for cfg in cfgs])
    return stats >= cuts[:, None]


def _statistic(h: OverlapMatrix, method: str) -> np.ndarray:
    """The statistic of ``h`` that ``method`` classifies: the leading
    eigenvector, or the row sums less d^2."""
    if method == METHOD_EIGENVECTOR:
        return h.leading_eigenpair().vector
    return h.row_sums() - float(h.d) ** 2


def _reads_factors(method: str, d: int, n: int) -> bool:
    """Whether the statistic ``method`` classifies has, on an overlap of
    d-by-n factors, a backend that reads only the factors."""
    return not forms_h(d, n, method == METHOD_EIGENVECTOR)


def _factor_statistics(xp: np.ndarray, yps: np.ndarray, method: str) -> np.ndarray:
    """The statistic that ``method`` classifies of the overlap of the
    preprocessed ``xp`` with each matrix of the ``(p, d, n)`` stack ``yps``,
    one a row, from stacked kernels on the factors.  Where
    :func:`_reads_factors`, row p is :func:`_statistic` of the overlap of
    ``xp`` and ``yps[p]``, bit for bit."""
    if method == METHOD_EIGENVECTOR:
        return linalg._khatri_rao_vectors(linalg._khatri_rao(xp, yps))
    return linalg._khatri_rao_row_sums(xp, yps) - float(xp.shape[0]) ** 2


def match(h: OverlapMatrix, cfg: MatchConfig) -> tuple[LabelPartition, MatchDiagnostics]:
    """Classify indices by the statistic of ``h`` that ``cfg.method`` names.

    The eigenvector rule reads the (sign-fixed) leading eigenvector,
    :meth:`OverlapMatrix.leading_eigenpair`, solved once per overlap: from the
    d^2-by-d^2 Khatri-Rao Gram, without reading ``H``, when ``4 d^2 <= n``
    (see :func:`~gramoverlap.overlap.factored_eig_is_cheaper`), and by power
    iteration on ``H`` otherwise.  Its fixed cut is t / sqrt(n).

    The row-sum rule reads S_i - d^2, which (for k inliers, no preprocessing)
    has mean d*(k+1) on inliers and 0 on outliers.  Its fixed cut is T, by
    default d*(r*n+1)/2 from ``inlier_rate``.  Under column normalization the
    shift is still applied as a constant: the 2-means partition is
    shift-invariant in floating point (see :func:`two_means_1d`), so the
    offset -d^2 does not move it however large d is; a fixed T must be
    calibrated on the normalized scale.  The row sums are
    :meth:`OverlapMatrix.row_sums`, computed once per overlap by the backend
    fixed when it was built: from the factors, without forming ``H``
    (``"gram_factor"``), or from the dense ``H`` (``"dense"``), as
    :func:`~gramoverlap.overlap.build_overlap` picks or its caller pins.

    The threshold branch keeps index i as an inlier when its statistic is at
    least the cut; the 2-means branch clusters the statistic and keeps the
    upper cluster, or labels every point an outlier (with a warning) when the
    statistic is constant.  A sweep trial classifies a stack of statistics,
    one row per grid point, with the same cuts and the same 2-means solver,
    so each row gets the partition that ``match`` gives its overlap.  The
    diagnostics name the backend that computed the statistic in
    ``eig_backend`` or ``row_sum_backend``.  A config that cannot run (see
    :meth:`MatchConfig.check_runnable`) is refused before any statistic is
    computed.
    """
    cfg.check_runnable()
    warnings = []
    stat = _statistic(h, cfg.method)
    if cfg.method == METHOD_EIGENVECTOR:
        pair = h.leading_eigenpair()
        facts = dict(
            leading_eigenvalue=pair.value,
            eig_backend=h.eig_backend,
            residual=pair.residual,
            iterations=pair.iterations,
            converged=pair.converged,
        )
        if not pair.converged:
            warnings.append(
                f"{h.eig_backend} eigenpair did not reach tolerance after "
                f"{pair.iterations} iterations (residual {pair.residual:.3e})"
            )
    else:
        facts = dict(row_sum_backend=h.row_sum_backend)
    cut = centroids = None
    degenerate = False
    if cfg.use_two_means:
        try:
            partition, centroids = two_means_1d(stat)
        except DegenerateValuesError:
            degenerate = True
            warnings.append(
                "statistic is constant; no cluster split exists; labeling all "
                "points as outliers"
            )
            partition = LabelPartition(np.zeros(stat.size, dtype=bool))
    else:
        cut = _fixed_cut(cfg, h.d, h.n)
        partition = LabelPartition(stat >= cut)
    diag = MatchDiagnostics(
        method=cfg.method,
        branch="two_means" if cfg.use_two_means else "threshold",
        n=h.n,
        stat_min=float(np.minimum.reduce(stat)),
        stat_max=float(np.maximum.reduce(stat)),
        threshold=cut,
        centroids=centroids,
        centroid_gap=None if centroids is None else centroids[1] - centroids[0],
        degenerate=degenerate,
        warnings=warnings,
        **facts,
    )
    return partition, diag


@dataclass(frozen=True)
class ThresholdInterval:
    """Admissible fixed-threshold interval for exact row-sum recovery."""

    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return self.lo >= self.hi


def threshold_interval(
    d: int, n: int, r: float, c1: float, c2: float
) -> ThresholdInterval:
    """Evaluate the exact-recovery interval for the row-sum threshold.

    ``lo = c2 * d * sqrt(log n) * (sqrt(d) + sqrt(n))`` bounds the outlier
    row-sum fluctuations; ``hi = d*(r*n+1) - c1 * sqrt(d log n) * (d +
    sqrt(d*n) + r*n)`` is the inlier mean minus its fluctuation bound.  The
    pair is returned even when empty.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    if not 0 < r < 1:
        raise ValueError("r must be in (0, 1)")
    if c1 < 0 or c2 < 0:
        raise ValueError("constants must be nonnegative")
    logn = math.log(n)
    lo = c2 * d * math.sqrt(logn) * (math.sqrt(d) + math.sqrt(n))
    hi = d * (r * n + 1) - c1 * math.sqrt(d * logn) * (
        d + math.sqrt(d * n) + r * n
    )
    return ThresholdInterval(lo=lo, hi=hi)


@dataclass(frozen=True)
class ErrorReport:
    """Misclassification counts and rates against ground truth."""

    n: int
    n_inliers: int
    n_outliers: int
    missed_inliers: int  # true inliers labeled outlier
    missed_outliers: int  # true outliers labeled inlier

    @property
    def error_g(self) -> float:
        return self.missed_inliers / self.n_inliers

    @property
    def error_b(self) -> float:
        return self.missed_outliers / self.n_outliers

    @property
    def error_w(self) -> float:
        return (self.missed_inliers + self.missed_outliers) / self.n


def truth_mask(truth_inliers, n: int) -> np.ndarray:
    """Boolean mask of the true inliers among 0..n-1, checked as
    :func:`error_rates` checks them."""
    g = np.asarray(truth_inliers, dtype=np.intp)
    if g.size and (
        np.minimum.reduce(g, axis=None) < 0 or np.maximum.reduce(g, axis=None) >= n
    ):
        raise ValueError("truth indices out of range")
    mask = np.zeros(n, dtype=bool)
    mask[g] = True
    k = int(np.count_nonzero(mask))
    if not 1 <= k <= n - 1:
        raise ValueError("true inlier set and its complement must be nonempty")
    return mask


def count_errors(truth: np.ndarray, partition: LabelPartition) -> ErrorReport:
    """Error counts of a partition against a mask from :func:`truth_mask`,
    which one trial builds once however many partitions it scores."""
    n = partition.n
    if truth.shape != (n,):
        raise ValueError(f"truth mask has shape {truth.shape}, expected ({n},)")
    mask = partition._mask
    k = int(np.count_nonzero(truth))
    hits = int(np.count_nonzero(truth & mask))
    return ErrorReport(
        n=n,
        n_inliers=k,
        n_outliers=n - k,
        missed_inliers=k - hits,
        missed_outliers=int(np.count_nonzero(mask)) - hits,
    )


def error_rates(truth_inliers, partition: LabelPartition) -> ErrorReport:
    """Error rates of a partition against the true inlier set.

    ``truth_inliers`` is any array-like of indices in 0..n-1; order and
    duplicates are ignored.  Both the true inlier set and its complement must
    be nonempty.
    """
    return count_errors(truth_mask(truth_inliers, partition.n), partition)
