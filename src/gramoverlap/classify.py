"""Turn an overlap matrix into an inlier/outlier partition.

One matcher, two statistics: it thresholds (or 2-means clusters) either the
coordinates of the leading eigenvector of the overlap matrix or its shifted
row sums.  Both pass through one statistics path, :func:`statistic` (of a
pair for ``match``, of a stack of Ys for a sweep chunk), and one classifier
of a stack of statistics, :func:`classify_rows` (one row for ``match``,
many for a sweep trial), with its exact 2-means solver.  The error metrics
compare a partition against ground truth.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .overlap import OverlapMatrix

METHOD_EIGENVECTOR = "eigenvector"
METHOD_ROW_SUM = "row_sum"
_METHODS = (METHOD_EIGENVECTOR, METHOD_ROW_SUM)

# The eigenvector rule's "auto" cut t (see MatchConfig).
DEFAULT_EIG_THRESHOLD = 0.5

# The 2-means split treats a row whose spread is at most this many units in
# the last place of its largest magnitude as one value, rounded differently
# (see classify_rows).
TWO_MEANS_TIE_ULPS = 16


class LabelPartition:
    """Split of 0..n-1 into estimated inliers and outliers, held as a copy of
    a boolean inlier mask (read flattened); the sorted ``intp`` index arrays
    are derived from it on first use."""

    def __init__(self, inlier_mask):
        self._mask = np.array(inlier_mask, dtype=bool).ravel()

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
    """Matcher selection: the statistic ``method`` classifies and the rule
    ``threshold`` names.

    ``threshold`` is None for exact 2-means (the default), a positive finite
    number for that fixed cut, or ``"auto"`` for the built-in cut: t = 0.5
    for the eigenvector rule, and T = d*(r*n+1)/2 from ``inlier_rate`` for
    the row-sum rule, which every other config refuses.
    """

    method: str = METHOD_ROW_SUM
    threshold: float | str | None = None
    inlier_rate: float | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if isinstance(self.threshold, str):
            if self.threshold != "auto":
                raise ValueError(f"unknown threshold {self.threshold!r}")
        elif self.threshold is not None and not 0 < self.threshold < math.inf:
            raise ValueError("threshold must be positive and finite")
        if self.inlier_rate is not None and not 0 < self.inlier_rate < 1:
            raise ValueError("inlier_rate must be in (0, 1)")
        if self.inlier_rate is not None and not self.reads_inlier_rate:
            raise ValueError("only the row-sum default threshold reads inlier_rate")

    @property
    def reads_inlier_rate(self) -> bool:
        """Whether the rule reads ``inlier_rate``: the row-sum ``"auto"``."""
        return self.method == METHOD_ROW_SUM and self.threshold == "auto"

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


def _centroids(s: np.ndarray, k: int) -> tuple[float, float]:
    """The means of the lower ``k`` values of the sorted row ``s`` and of
    the rest: the 2-means centroids of a split with ``0 < k < s.size``."""
    return float(np.add.reduce(s[:k]) / k), float(np.add.reduce(s[k:]) / (s.size - k))


def _two_means_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact 2-means split of each row of the finite 2-D float64 array
    ``v`` (see :func:`classify_rows`): the sorted rows, each row's lower-cluster
    size ``k`` and the inlier masks (the upper clusters).  A row within the
    tie bound gets ``k = n`` and no inliers.

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
    compared by value, where ``-0.0 == 0.0``.  A centroid from
    :func:`_centroids` could differ only in the sign of a zero, but
    ``np.add.reduce`` returns ``0.0`` for a sum of zeros of any signs.
    """
    p, n = v.shape
    if n < 2:
        raise ValueError("need at least two values")
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
    t / sqrt(n) for the eigenvector rule (t = 0.5 for ``"auto"``), and T,
    d*(r*n+1)/2 for ``"auto"``, for the row-sum rule."""
    if cfg.method == METHOD_EIGENVECTOR:
        t = DEFAULT_EIG_THRESHOLD if cfg.threshold == "auto" else cfg.threshold
        return t / math.sqrt(n)
    if cfg.reads_inlier_rate:
        return d * (cfg.inlier_rate * n + 1) / 2.0
    return cfg.threshold


@dataclass(frozen=True)
class RowClasses:
    """Each row's inlier mask from :func:`classify_rows`, and what its rule
    computed on the way: the ``cuts`` of a threshold call; the
    ``sorted_values`` of the rows and their lower-cluster sizes ``k`` of a
    2-means call (``k = n``: a constant row, which has no inliers)."""

    inliers: np.ndarray
    cuts: np.ndarray | None = None
    sorted_values: np.ndarray | None = None
    k: np.ndarray | None = None

    def facts(self, i: int) -> dict:
        """Row i's rule as :class:`MatchDiagnostics` reports it: the cut of
        a threshold row, the centroids and their gap of a 2-means row, or
        ``degenerate`` for a constant one."""
        if self.cuts is not None:
            return dict(threshold=float(self.cuts[i]))
        k = int(self.k[i])
        if k == self.sorted_values.shape[1]:
            return dict(degenerate=True)
        low, high = _centroids(self.sorted_values[i], k)
        return dict(centroids=(low, high), centroid_gap=high - low)


def classify_rows(stats: np.ndarray, cfgs, d: int) -> RowClasses:
    """Classify the rows of a (p, n) stack of statistics of overlaps of
    d-by-n factors, row i by ``cfgs[i]``, of either rule: :func:`match`'s
    one statistic, or a sweep trial's rows of one branch at every point.
    A config of ``threshold`` None takes the 2-means branch, any other the
    threshold branch.

    The threshold branch keeps the values at least each row's own cut.
    The 2-means branch splits every row at once, each on its own, so a row
    gets the same labels and facts alone as beside any other rows.  Each
    split is the row's exact 2-means optimum: the optimal bipartition of
    scalars is always a sorted split, and every split of the sorted row is
    scored (see :func:`_two_means_rows`).  The upper cluster becomes the
    inliers.  SSE ties break toward the larger inlier cluster; where
    rounding ties put the split inside a run of equal values, the
    lowest-indexed of them stay in the lower cluster.  The centroids that
    :meth:`RowClasses.facts` reports are the means of the sorted clusters.

    The split is shift-invariant in floating point, not only in exact
    arithmetic.  Split costs come from prefix sums ``sum(s^2) - sum(s)^2/m``,
    which cancel catastrophically when the values sit on a large offset, so
    the sorted values are first re-centred on their own median element.
    For an exactly representable shift ``c`` the differences ``(v_i + c) -
    (v_med + c)`` and ``v_i - v_med`` are the same real number and so round
    to the same double: the row ``v + c`` then scores bit-identical costs
    and gets the same labels as the row ``v``.

    A row whose spread is at most :data:`TWO_MEANS_TIE_ULPS` (16) units in
    the last place of its largest magnitude is constant: its values cannot
    be told from one value rounded differently, so it gets no inliers and
    its facts say ``degenerate``.  The bound scales with the row, so a row
    scaled by a power of two (outside the subnormal range) is constant
    exactly when the unscaled row is.  It is a few ulps, not a fixed
    fraction of the magnitude, so an exact shift ``c`` makes a row constant
    only when its spread is within 16 ulps of ``|v + c|``: the shifted
    values then carry no more bits of the spread than rounding noise does.

    Raises ``ValueError`` unless ``stats`` is a finite 2-D array of at
    least one row with one config a row, all of one branch, and each can run
    (see :meth:`MatchConfig.check_runnable`), and a 2-means call unless its
    rows hold at least two values.
    """
    if not isinstance(stats, np.ndarray) or stats.ndim != 2 or len(stats) < 1:
        raise ValueError("statistics must be a 2-D array of at least one row")
    p, n = stats.shape
    if len(cfgs) != p:
        raise ValueError(f"{len(cfgs)} configs for {p} rows of statistics")
    two_means = cfgs[0].threshold is None
    for cfg in cfgs:
        if (cfg.threshold is None) != two_means:
            raise ValueError("configs of one call must all take one branch")
        cfg.check_runnable()
    if not np.isfinite(stats).all():
        raise ValueError("values contain non-finite entries")
    if two_means:
        s, k, mask = _two_means_rows(stats)
        return RowClasses(mask, sorted_values=s, k=k)
    cuts = np.array([_fixed_cut(cfg, d, n) for cfg in cfgs])
    return RowClasses(stats >= cuts[:, None], cuts=cuts)


def _shifted_row_sums(sums: np.ndarray, d: int) -> np.ndarray:
    """Row sums of an overlap of d-by-n factors less d^2: the row-sum rule's."""
    return sums - float(d) ** 2


def statistic(h: OverlapMatrix, method: str) -> tuple[np.ndarray, dict]:
    """The statistic of ``h`` that ``method`` classifies, the leading
    eigenvector or the shifted row sums, with ``h``'s leading axes (one row
    a Y of a stack), and the facts of its solve that
    :class:`MatchDiagnostics` reports: the backend, and of a pair's
    eigenvector the eigenpair's value, residual, iterations and convergence.

    It is the one path from an overlap to a statistic: ``match`` and each
    shard read a pair through it, a sweep trial each chunk of its stack."""
    if method == METHOD_ROW_SUM:
        sums = _shifted_row_sums(h.row_sums(), h.d)
        return sums, dict(row_sum_backend=h.row_sum_backend)
    if h.p is not None:
        return h.leading_eigenvector(), dict(eig_backend=h.eig_backend)
    pair = h.leading_eigenpair()
    return pair.vector, dict(
        leading_eigenvalue=pair.value,
        eig_backend=h.eig_backend,
        residual=pair.residual,
        iterations=pair.iterations,
        converged=pair.converged,
    )


def match(h: OverlapMatrix, cfg: MatchConfig) -> tuple[LabelPartition, MatchDiagnostics]:
    """Classify the indices of the pair overlap ``h`` by the statistic that
    ``cfg.method`` names, read through :func:`statistic` by the backends
    ``h`` fixed when it was built (see
    :class:`~gramoverlap.overlap.OverlapMatrix`).

    The eigenvector rule reads the (sign-fixed) leading eigenvector; its
    fixed cut is t / sqrt(n).  The row-sum rule reads S_i - d^2, which (for
    k inliers, no preprocessing) has mean d*(k+1) on inliers and 0 on
    outliers; its fixed cut is T, for ``"auto"`` d*(r*n+1)/2 from
    ``inlier_rate``.  Under column normalization the shift is still applied
    as a constant: the 2-means partition is shift-invariant in floating
    point (see :func:`classify_rows`), so the offset -d^2 does not move it
    however large d is; a fixed T must be calibrated on the normalized
    scale.

    The statistic is the one row of :func:`classify_rows`, which a sweep
    trial runs on its stack, so each row of it gets ``match``'s partition.
    ``cfg.threshold`` picks the branch: a cut or ``"auto"`` the threshold
    branch, None 2-means.  The threshold branch keeps index i as an inlier
    when its statistic is at least the cut, and warns when the cut lies
    above the statistic's range (every point an outlier) or at or below it
    (every point an inlier); the 2-means branch clusters the statistic and
    keeps the upper cluster, or labels every point an outlier (with a
    warning) when the statistic is constant.  The diagnostics name the backend that computed the statistic
    in ``eig_backend`` or ``row_sum_backend``.  A config that cannot run
    (see :meth:`MatchConfig.check_runnable`) is refused before any statistic
    is computed, and so is a stack.
    """
    cfg.check_runnable()
    if h.p is not None:
        raise ValueError("match classifies a pair; a stack's rows go to classify_rows")
    warnings = []
    stat, facts = statistic(h, cfg.method)
    if facts.get("converged") is False:
        warnings.append(
            f"{h.eig_backend} eigenpair did not reach tolerance after "
            f"{facts['iterations']} iterations (residual {facts['residual']:.3e})"
        )
    rows = classify_rows(stat[None], [cfg], h.d)
    facts.update(rows.facts(0))
    low, high = float(np.minimum.reduce(stat)), float(np.maximum.reduce(stat))
    if facts.get("degenerate"):
        warnings.append(
            "statistic is constant; no cluster split exists; labeling all "
            "points as outliers"
        )
    cut = facts.get("threshold")
    if cut is not None and not low < cut <= high:
        where, label = ("above", "outlier") if cut > high else ("at or below", "inlier")
        warnings.append(
            f"fixed cut {cut:.6g} lies {where} the statistic's range "
            f"[{low:.6g}, {high:.6g}]; every point is labeled an {label}"
        )
    diag = MatchDiagnostics(
        method=cfg.method,
        branch="two_means" if cfg.threshold is None else "threshold",
        n=h.n,
        stat_min=low,
        stat_max=high,
        warnings=warnings,
        **facts,
    )
    return LabelPartition(rows.inliers[0]), diag


@dataclass(frozen=True)
class ThresholdInterval:
    """Admissible fixed-threshold interval for exact row-sum recovery."""

    lo: float
    hi: float


def threshold_interval(
    d: int, n: int, r: float, c1: float, c2: float
) -> ThresholdInterval:
    """Evaluate the exact-recovery interval for the row-sum threshold.

    ``lo = c2 * d * sqrt(log n) * (sqrt(d) + sqrt(n))`` bounds the outlier
    row-sum fluctuations; ``hi = d*(r*n+1) - c1 * sqrt(d log n) * (d +
    sqrt(d*n) + r*n)`` is the inlier mean minus its fluctuation bound.  The
    pair is returned even when the interval is empty (``lo >= hi``).
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
    n, mask = partition.n, partition._mask
    g = np.asarray(truth_inliers, dtype=np.intp)
    if g.size and (
        np.minimum.reduce(g, axis=None) < 0 or np.maximum.reduce(g, axis=None) >= n
    ):
        raise ValueError("truth indices out of range")
    truth = np.zeros(n, dtype=bool)
    truth[g] = True
    k = int(np.count_nonzero(truth))
    if not 1 <= k <= n - 1:
        raise ValueError("true inlier set and its complement must be nonempty")
    hits = int(np.count_nonzero(truth & mask))
    return ErrorReport(
        n=n,
        n_inliers=k,
        n_outliers=n - k,
        missed_inliers=k - hits,
        missed_outliers=int(np.count_nonzero(mask)) - hits,
    )
