"""Turn an overlap matrix into an inlier/outlier partition.

One matcher, two statistics: it thresholds (or 2-means clusters) either the
coordinates of the leading eigenvector of the overlap matrix or its shifted
row sums, through one exact 1-D 2-means solver.  The error metrics compare a
partition against ground truth.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateValuesError
from .overlap import OverlapMatrix

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
    toward the larger inlier cluster.  Constant input raises
    :class:`DegenerateValuesError`.

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
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("values must be 1-D")
    n = v.size
    if n < 2:
        raise ValueError("need at least two values")
    if not np.isfinite(v).all():
        raise ValueError("values contain non-finite entries")
    order = v.argsort(kind="stable")
    s = v[order]
    c = s - s[n // 2]
    if float(c[-1] - c[0]) <= TWO_MEANS_TIE_ULPS * np.spacing(max(-s[0], s[-1])):
        raise DegenerateValuesError("all values equal; no 2-cluster split exists")
    # Prefix sums with a leading zero: ps[j] = sum(c[:j]), pq[j] = sum(c[:j]^2).
    ps = np.empty(n + 1)
    pq = np.empty(n + 1)
    ps[0] = pq[0] = 0.0
    np.add.accumulate(c, out=ps[1:])
    np.add.accumulate(c * c, out=pq[1:])
    # Split costs, in place: the lower cluster's into ``costs``, the upper
    # cluster's into the tails of ps and pq.  The upper size n - m is m
    # reversed.
    m = np.arange(1, n, dtype=np.float64)  # lower-cluster size of each split
    low_s, low_q = ps[1:n], pq[1:n]
    costs = low_s * low_s
    costs /= m
    np.subtract(low_q, costs, out=costs)
    high_s = np.subtract(ps[n], low_s, out=low_s)
    high_s *= high_s
    high_s /= m[::-1]
    high_q = np.subtract(pq[n], low_q, out=low_q)
    high_q -= high_s
    costs += high_q
    # argmin takes the first minimum = smallest lower cluster = largest upper
    # cluster, which is the required tie-break.
    k = int(costs.argmin()) + 1
    low = float(np.add.reduce(s[:k]) / k)
    high = float(np.add.reduce(s[k:]) / (n - k))
    mask = np.zeros(n, dtype=bool)
    mask[order[k:]] = True
    return LabelPartition(mask), (low, high)


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
    statistic is constant.  The diagnostics name the backend that computed
    the statistic in ``eig_backend`` or ``row_sum_backend``.
    """
    warnings = []
    if cfg.method == METHOD_EIGENVECTOR:
        pair = h.leading_eigenpair()
        stat = pair.vector
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
        stat = h.row_sums() - float(h.d) ** 2
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
        if cfg.method == METHOD_EIGENVECTOR:
            t = DEFAULT_EIG_THRESHOLD if cfg.threshold is None else cfg.threshold
            cut = t / math.sqrt(h.n)
        elif cfg.threshold is not None:
            cut = cfg.threshold
        elif cfg.inlier_rate is None:
            raise ValueError("default row-sum threshold requires inlier_rate to be set")
        else:
            cut = h.d * (cfg.inlier_rate * h.n + 1) / 2.0
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


def error_rates(truth_inliers, partition: LabelPartition) -> ErrorReport:
    """Error rates of a partition against the true inlier set.

    ``truth_inliers`` is any array-like of indices in 0..n-1; order and
    duplicates are ignored.  Both the true inlier set and its complement must
    be nonempty.
    """
    g = np.asarray(truth_inliers, dtype=np.intp)
    n = partition.n
    if g.size and (
        np.minimum.reduce(g, axis=None) < 0 or np.maximum.reduce(g, axis=None) >= n
    ):
        raise ValueError("truth indices out of range")
    truth_mask = np.zeros(n, dtype=bool)
    truth_mask[g] = True
    k = int(np.count_nonzero(truth_mask))
    if not 1 <= k <= n - 1:
        raise ValueError("true inlier set and its complement must be nonempty")
    # The estimated inliers are distinct indices, so the true ones among
    # them are counted on the truth mask alone.
    hits = int(np.count_nonzero(truth_mask[partition.inliers]))
    return ErrorReport(
        n=n,
        n_inliers=k,
        n_outliers=n - k,
        missed_inliers=k - hits,
        missed_outliers=partition.inliers.size - hits,
    )
