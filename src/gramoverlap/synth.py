"""Seeded synthetic data for the rotated-inlier Gaussian model.

Streams come from numpy's PCG64 keyed by ``SeedSequence``.  Batch runs derive
the seed for trial ``i`` as ``SeedSequence(entropy=seed, spawn_key=(i,))``
(see :func:`derive_seed`), so parallel trials are reproducible and mutually
independent.  This scheme is part of the public contract and stays stable
across releases.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError
from .linalg import DENSE_EIG_MAX_ORDER, spectral_norm
from .overlap import PopulationModel, PreprocessMode, build_overlap, population_overlap

KIND_GAUSSIAN_OUTLIERS = "gaussian_outliers"
KIND_PERMUTED_INLIERS = "permuted_inliers"
_KINDS = (KIND_GAUSSIAN_OUTLIERS, KIND_PERMUTED_INLIERS)


def derive_seed(seed: int, index: int) -> int:
    """Deterministic child seed for trial ``index`` of a batch keyed by ``seed``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one synthetic matching instance.

    ``kind`` picks how outlier columns of Y are produced: fresh Gaussian draws
    (``gaussian_outliers``) or rotations of deranged X columns
    (``permuted_inliers``, which needs at least two outliers).  ``sigma2``
    adds independent N(0, sigma2) noise to every entry of Y only.
    """

    d: int
    n: int
    r: float
    kind: str = KIND_GAUSSIAN_OUTLIERS
    sigma2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not math.isfinite(self.sigma2):
            raise ValueError(f"sigma2 must be finite, got {self.sigma2}")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        if not math.isfinite(self.r):
            raise ValueError(f"r must be finite, got {self.r}")
        k = self.r * self.n
        if abs(k - round(k)) > 1e-9:
            raise ValueError(f"r*n must be integral, got r={self.r}, n={self.n}")
        if not 1 <= round(k) <= self.n - 1:
            raise ValueError("inlier count must be between 1 and n-1")
        if self.kind == KIND_PERMUTED_INLIERS and self.n - round(k) == 1:
            raise ValueError(
                "permuted_inliers needs at least two outliers: a single index "
                "cannot be deranged"
            )

    @property
    def n_inliers(self) -> int:
        return int(round(self.r * self.n))


@dataclass(frozen=True, eq=False)
class LabeledPair:
    """Generated point sets with their ground truth."""

    x: np.ndarray
    y: np.ndarray
    inliers: np.ndarray  # sorted true inlier indices
    rotation: np.ndarray  # the orthogonal matrix actually applied

    @property
    def outliers(self) -> np.ndarray:
        mask = np.ones(self.x.shape[1], dtype=bool)
        mask[self.inliers] = False
        return np.flatnonzero(mask)


def _haar(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def haar_orthogonal(d: int, seed: int) -> np.ndarray:
    """Haar-distributed random orthogonal d-by-d matrix.

    QR of a standard Gaussian matrix with the R-factor's diagonal signs
    absorbed into Q, which makes the distribution exactly Haar.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    return _haar(d, _rng(seed))


def _derangement(m: int, rng: np.random.Generator) -> np.ndarray:
    # Rejection sampling: uniform over permutations without fixed points.
    idx = np.arange(m)
    while True:
        p = rng.permutation(m)
        if not np.any(p == idx):
            return p


def generate(spec: ScenarioSpec) -> LabeledPair:
    """Draw one labeled instance.

    X has iid standard Gaussian columns; the inlier set is a uniformly random
    subset of the requested size; inlier columns of Y are a common Haar
    rotation of the matching X columns.  Outlier columns are fresh Gaussians
    (``gaussian_outliers``) or rotations of X columns moved by a uniformly
    random derangement of the outlier set (``permuted_inliers``), so every
    outlier is genuinely mismatched.  Bitwise deterministic given the spec.
    """
    rng = _rng(spec.seed)
    d, n, k = spec.d, spec.n, spec.n_inliers
    x = rng.standard_normal((d, n))
    perm = rng.permutation(n)
    g = np.sort(perm[:k])
    b = np.sort(perm[k:])
    rotation = _haar(d, rng)
    y = np.empty_like(x)
    y[:, g] = rotation @ x[:, g]
    if spec.kind == KIND_GAUSSIAN_OUTLIERS:
        y[:, b] = rng.standard_normal((d, n - k))
    else:
        pi = _derangement(b.size, rng)
        y[:, b] = rotation @ x[:, b[pi]]
    if spec.sigma2 > 0:
        y = y + math.sqrt(spec.sigma2) * rng.standard_normal((d, n))
    return LabeledPair(x=x, y=y, inliers=g, rotation=rotation)


@dataclass(frozen=True)
class DeviationStats:
    """Normalized deviation ratios over a batch of trials.

    Each trial draws a fresh rotated-inlier Gaussian instance (no noise, no
    preprocessing) and normalizes three observed deviations by their
    theoretical growth rates:

    - spectral: ||H - E[H]|| / (n^{3/2} log^2 n)
    - inlier rows: max over inliers of |S_i - E S_i| /
      (sqrt(d log n) * (d + sqrt(d n) + k))
    - outlier rows: max over outliers of |S_i - E S_i| /
      (d sqrt(log n) * (sqrt d + sqrt n))
    """

    trials: int
    spectral_mean: float
    spectral_max: float
    inlier_rows_mean: float
    inlier_rows_max: float
    outlier_rows_mean: float
    outlier_rows_max: float


def empirical_deviation(spec: ScenarioSpec, trials: int) -> DeviationStats:
    """Measure deviation ratios of the overlap matrix from its expectation.

    The generator settings are pinned to the no-noise rotated-inlier model
    regardless of ``spec.kind``/``spec.sigma2``; only d, n, r, and seed are
    taken from the spec.  Capped at n <= 512 (dense spectral norms).
    """
    if spec.n > DENSE_EIG_MAX_ORDER:
        raise SizeLimitError(
            f"empirical_deviation is capped at n={DENSE_EIG_MAX_ORDER}, got {spec.n}"
        )
    if trials < 1:
        raise ValueError("trials must be at least 1")
    d, n, k = spec.d, spec.n, spec.n_inliers
    logn = math.log(n)
    spectral_scale = n**1.5 * logn**2
    inlier_scale = math.sqrt(d * logn) * (d + math.sqrt(d * n) + k)
    outlier_scale = d * math.sqrt(logn) * (math.sqrt(d) + math.sqrt(n))
    inlier_mean = d * d + d * (k + 1)
    outlier_mean = float(d * d)

    spectral = np.empty(trials)
    inlier_rows = np.empty(trials)
    outlier_rows = np.empty(trials)
    for t in range(trials):
        pair = generate(
            ScenarioSpec(
                d=d,
                n=n,
                r=spec.r,
                kind=KIND_GAUSSIAN_OUTLIERS,
                sigma2=0.0,
                seed=derive_seed(spec.seed, t),
            )
        )
        h = build_overlap(pair.x, pair.y, PreprocessMode.NONE, backend="dense")
        model = PopulationModel(d=d, n=n, inliers=pair.inliers)
        expected = population_overlap(model)
        spectral[t] = spectral_norm(h.h - expected) / spectral_scale
        s = h.row_sums()
        inlier_rows[t] = np.max(np.abs(s[pair.inliers] - inlier_mean)) / inlier_scale
        outlier_rows[t] = np.max(np.abs(s[pair.outliers] - outlier_mean)) / outlier_scale
    return DeviationStats(
        trials=trials,
        spectral_mean=float(spectral.mean()),
        spectral_max=float(spectral.max()),
        inlier_rows_mean=float(inlier_rows.mean()),
        inlier_rows_max=float(inlier_rows.max()),
        outlier_rows_mean=float(outlier_rows.mean()),
        outlier_rows_max=float(outlier_rows.max()),
    )
