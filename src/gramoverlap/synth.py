"""Seeded synthetic data for the rotated-inlier Gaussian model.

Streams come from numpy's PCG64 keyed by ``SeedSequence``, as
``np.random.default_rng(seed)`` builds them.  Batch runs derive the seed
for trial ``i`` as ``SeedSequence(entropy=seed, spawn_key=(i,))`` (see
:func:`derive_seed`), so parallel trials are reproducible and mutually
independent.  This scheme is part of the public contract and stays stable
across releases.

:func:`generate` runs in two steps.  :func:`_draw_trial` makes the draws that
a seed makes before it reads ``r``, ``kind`` or ``sigma2`` (X, the inlier
permutation and the Haar rotation) and saves the stream's state after them;
:func:`_complete` draws the rest of one scenario from that state and writes
its Y into an array the caller gives.  A sweep, whose grid points share each
trial's seed, draws once per trial and completes each distinct scenario from
the same draws, into the rows of one stack, and reads every scenario's true
inliers from the permutation's ranks in one comparison (:func:`_inlier_masks`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError, check_integer
from .linalg import DENSE_EIG_MAX_ORDER, spectral_norm
from .overlap import (
    PopulationModel,
    PreprocessMode,
    build_overlap,
    population_overlap,
    population_row_sum_mean,
)

KIND_GAUSSIAN_OUTLIERS = "gaussian_outliers"
KIND_PERMUTED_INLIERS = "permuted_inliers"
_KINDS = (KIND_GAUSSIAN_OUTLIERS, KIND_PERMUTED_INLIERS)


def derive_seed(seed: int, index: int) -> int:
    """Deterministic child seed for trial ``index`` of a batch keyed by ``seed``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one synthetic matching instance.

    ``kind`` picks how outlier columns of Y are produced: fresh Gaussian draws
    (``gaussian_outliers``) or rotations of deranged X columns
    (``permuted_inliers``, which needs at least two outliers).  ``sigma2``
    adds independent N(0, sigma2) noise to every entry of Y only.  ``d``,
    ``n`` and ``seed`` are integers (``bool`` refused), checked before any
    draw.
    """

    d: int
    n: int
    r: float
    kind: str = KIND_GAUSSIAN_OUTLIERS
    sigma2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("seed", "d", "n"):
            check_integer(name, getattr(self, name))
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
    """Haar-distributed random orthogonal d-by-d matrix: QR of a standard
    Gaussian matrix with the R-factor's diagonal signs absorbed into Q,
    which makes the distribution exactly Haar."""
    z = rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _derangement(m: int, rng: np.random.Generator) -> np.ndarray:
    # Rejection sampling: uniform over permutations without fixed points.
    idx = np.arange(m)
    while True:
        p = rng.permutation(m)
        if not (p == idx).any():
            return p


@dataclass(frozen=True, eq=False)
class _TrialDraws:
    """The draws of one seed that every scenario of its ``d`` and ``n``
    shares, with the generator they came from and its state after them."""

    x: np.ndarray
    perm: np.ndarray
    rotation: np.ndarray
    rng: np.random.Generator
    state: dict


def _draw_trial(d: int, n: int, seed: int) -> _TrialDraws:
    """X, the inlier permutation and the Haar rotation that ``seed`` draws
    at ``d`` and ``n`` before it reads anything else of a scenario."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, n))
    perm = rng.permutation(n)
    rotation = _haar(d, rng)
    return _TrialDraws(x, perm, rotation, rng, rng.bit_generator.state)


def _complete(draws: _TrialDraws, spec: ScenarioSpec, y: np.ndarray) -> np.ndarray:
    """Write Y of the scenario ``spec`` names, from the draws of its seed, d
    and n, into the d-by-n float64 array ``y``, and return its sorted true
    inliers.

    The inlier split, the outlier columns and the noise are drawn from the
    saved state, so each completion is the one :func:`generate` makes, bit
    for bit, whatever ``y`` held before and whatever ran before it.  Of
    ``spec`` it reads only ``d``, ``n``, ``n_inliers``, ``kind`` and
    ``sigma2``: the seed is the one ``draws`` came from, whatever
    ``spec.seed`` says, so a sweep completes every trial from its grid
    points' own specs.
    """
    x, rotation, rng = draws.x, draws.rotation, draws.rng
    rng.bit_generator.state = draws.state
    d, n, k = spec.d, spec.n, spec.n_inliers
    g = np.sort(draws.perm[:k])
    b = np.sort(draws.perm[k:])
    y[:, g] = rotation @ x[:, g]
    if spec.kind == KIND_GAUSSIAN_OUTLIERS:
        y[:, b] = rng.standard_normal((d, n - k))
    else:
        pi = _derangement(b.size, rng)
        y[:, b] = rotation @ x[:, b[pi]]
    if spec.sigma2 > 0:
        y += math.sqrt(spec.sigma2) * rng.standard_normal((d, n))
    return g


def _inlier_masks(draws: _TrialDraws, ks) -> np.ndarray:
    """The true-inlier masks of the completions of ``draws`` with ``ks[i]``
    inliers, one a row: a column is an inlier of a completion with ``k``
    inliers when the permutation places it among its first ``k``, so row
    ``i`` is ``np.sort(draws.perm[:ks[i]])`` as a mask."""
    perm = draws.perm
    rank = np.empty_like(perm)
    rank[perm] = np.arange(perm.size)
    return rank < np.asarray(ks)[:, None]


def generate(spec: ScenarioSpec) -> LabeledPair:
    """Draw one labeled instance.

    X has iid standard Gaussian columns; the inlier set is a uniformly random
    subset of the requested size; inlier columns of Y are a common Haar
    rotation of the matching X columns.  Outlier columns are fresh Gaussians
    (``gaussian_outliers``) or rotations of X columns moved by a uniformly
    random derangement of the outlier set (``permuted_inliers``), so every
    outlier is genuinely mismatched.  Bitwise deterministic given the spec.
    X, the inlier permutation and the rotation depend only on ``d``, ``n``
    and ``seed``, and are drawn first; specs that differ only in ``r``,
    ``kind`` or ``sigma2`` share them.
    """
    draws = _draw_trial(spec.d, spec.n, spec.seed)
    y = np.empty_like(draws.x)
    inliers = _complete(draws, spec, y)
    return LabeledPair(x=draws.x, y=y, inliers=inliers, rotation=draws.rotation)


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
    check_integer("trials", trials)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    d, n, k = spec.d, spec.n, spec.n_inliers
    logn = math.log(n)
    spectral_scale = n**1.5 * logn**2
    inlier_scale = math.sqrt(d * logn) * (d + math.sqrt(d * n) + k)
    outlier_scale = d * math.sqrt(logn) * (math.sqrt(d) + math.sqrt(n))

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
        inlier_mean = population_row_sum_mean(model, pair.inliers[0])
        outlier_mean = population_row_sum_mean(model, pair.outliers[0])
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
