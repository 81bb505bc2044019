"""Sweep harnesses: error-vs-inlier-rate, error-vs-noise, and split timing.

Each grid point runs seeded trials; within a trial the overlap matrix is made
once from the preprocessed factors, each statistic it carries (leading
eigenvector, row sums) is computed once, and every requested method
classifies it, so methods are compared on identical data.  ``H`` is formed
only by a backend that reads it: the dense row sums at construction, or power
iteration inside its own call.  Per-method wall time charges the shared
preprocessing, the statistic that method reads and that method's own
classification, i.e. what a solo run would cost: each statistic is timed once
per trial and charged to every method that reads it.
"""

import csv
import time
from dataclasses import dataclass, replace

import numpy as np

from .classify import (
    METHOD_EIGENVECTOR,
    METHOD_ROW_SUM,
    MatchConfig,
    error_rates,
    match,
)
from .overlap import OverlapMatrix, PreprocessMode, build_overlap
from .parallel import check_shard_count, parallel_match
from .synth import ScenarioSpec, derive_seed, generate

SWEEP_COLUMNS = [
    "sweep",
    "value",
    "method",
    "trials",
    "error_g_mean",
    "error_g_std",
    "error_b_mean",
    "error_b_std",
    "error_w_mean",
    "error_w_std",
    "time_ms_mean",
    "time_ms_std",
]

# The per-trial columns that each summary row reduces to a mean and an sd.
_SUMMARY_STATS = ("error_g", "error_b", "error_w", "time_ms")

DEFAULT_METHODS = ("eig:0.3", "eig:0.5", "eig:0.7", "eig:kmeans", "rowsum:kmeans")

_METHOD_PREFIXES = {"eig": METHOD_EIGENVECTOR, "rowsum": METHOD_ROW_SUM}


@dataclass(frozen=True)
class MethodSpec:
    """One matcher variant in a sweep, e.g. 'eig:0.5' or 'rowsum:kmeans'.

    The branch token is either 'kmeans', a positive fixed threshold, or 'auto'
    (fixed threshold derived from the true inlier rate of the sweep point).
    """

    label: str
    method: str
    threshold: float | None
    use_two_means: bool
    auto_threshold: bool

    def config(self, preprocess: PreprocessMode, seed: int, r: float) -> MatchConfig:
        return MatchConfig(
            method=self.method,
            threshold=self.threshold,
            use_two_means=self.use_two_means,
            inlier_rate=r if self.auto_threshold else None,
            preprocess=preprocess,
            seed=seed,
        )


def parse_method(text: str) -> MethodSpec:
    parts = text.split(":")
    if len(parts) != 2 or parts[0] not in _METHOD_PREFIXES:
        raise ValueError(
            f"bad method spec {text!r}; expected eig:<t|kmeans> or "
            f"rowsum:<T|kmeans|auto>"
        )
    method = _METHOD_PREFIXES[parts[0]]
    branch = parts[1]
    if branch == "kmeans":
        return MethodSpec(text, method, None, True, False)
    if branch == "auto":
        return MethodSpec(text, method, None, False, True)
    try:
        value = float(branch)
    except ValueError:
        raise ValueError(f"bad threshold in method spec {text!r}") from None
    if not value > 0:
        raise ValueError(f"threshold must be positive in {text!r}")
    return MethodSpec(text, method, value, False, False)


def _summary_row(sweep: str, value, label: str, errs, times_ms) -> dict:
    """One CSV row: the mean and population sd of each per-trial column,
    taken in one reduction over a (4, trials) array.

    The reductions are the ones ``mean(axis=1)`` and ``std(axis=1)`` run,
    called directly, so the values are theirs bit for bit.
    """
    cols = np.array(
        [
            [e.error_g for e in errs],
            [e.error_b for e in errs],
            [e.error_w for e in errs],
            times_ms,
        ],
        dtype=np.float64,
    )
    trials = len(errs)
    means = np.add.reduce(cols, axis=1, keepdims=True) / trials
    dev = cols - means
    dev *= dev
    stds = np.sqrt(np.add.reduce(dev, axis=1) / trials)
    row = {"sweep": sweep, "value": value, "method": label, "trials": trials}
    for name, mean, std in zip(_SUMMARY_STATS, means[:, 0], stds):
        row[f"{name}_mean"] = mean
        row[f"{name}_std"] = std
    return row


# The statistic of the overlap that each matcher method classifies.
_STATISTICS = {
    METHOD_EIGENVECTOR: "leading_eigenpair",
    METHOD_ROW_SUM: "row_sums",
}


def _timed_ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def _statistics_ms(h: OverlapMatrix, methods: list[MethodSpec]) -> dict:
    """Compute (and cache) each statistic the methods read, timed per
    statistic name; a statistic that reads ``H`` forms it on first use, so
    its time carries the formation."""
    needed = dict.fromkeys(_STATISTICS[m.method] for m in methods)
    return {k: _timed_ms(getattr(h, k)) for k in needed}


def _run_grid_point(
    sweep: str,
    value,
    spec: ScenarioSpec,
    trials: int,
    methods: list[MethodSpec],
    mode: PreprocessMode,
) -> list[dict]:
    errs = {m.label: [] for m in methods}
    times = {m.label: [] for m in methods}
    # match reads neither the seed nor the preprocessing of its config, so
    # one config per method serves every trial of the point.
    configs = {m.label: m.config(mode, spec.seed, spec.r) for m in methods}
    for t in range(trials):
        trial = replace(spec, seed=derive_seed(spec.seed, t))
        pair = generate(trial)
        t0 = time.perf_counter()
        h = build_overlap(pair.x, pair.y, mode)
        build_ms = (time.perf_counter() - t0) * 1e3
        stat_ms = _statistics_ms(h, methods)
        for m in methods:
            t1 = time.perf_counter()
            part, _ = match(h, configs[m.label])
            ms = (time.perf_counter() - t1) * 1e3
            errs[m.label].append(error_rates(pair.inliers, part))
            times[m.label].append(build_ms + stat_ms[_STATISTICS[m.method]] + ms)
    return [
        _summary_row(sweep, value, m.label, errs[m.label], times[m.label])
        for m in methods
    ]


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def _run_sweep(
    axis: str, values, trials: int, methods, mode: PreprocessMode, **fixed
) -> list[dict]:
    """Rows of a sweep over the ``ScenarioSpec`` field ``axis``, which also
    names the sweep in each row; ``fixed`` holds the other fields.  Every
    grid point's scenario is built before the first trial runs."""
    _check_trials(trials)
    specs = [parse_method(m) if isinstance(m, str) else m for m in methods]
    points = [(value, ScenarioSpec(**fixed, **{axis: value})) for value in values]
    rows = []
    for value, base in points:
        rows.extend(_run_grid_point(axis, value, base, trials, specs, mode))
    return rows


def run_rate_sweep(
    d: int,
    n: int,
    r_values,
    trials: int,
    seed: int,
    methods=DEFAULT_METHODS,
    kind: str = "permuted_inliers",
    sigma2: float = 0.0,
    preprocess: PreprocessMode = PreprocessMode.CENTER_NORMALIZE,
) -> list[dict]:
    """Mean error rates as the inlier fraction varies."""
    return _run_sweep(
        "r", r_values, trials, methods, preprocess,
        d=d, n=n, kind=kind, sigma2=sigma2, seed=seed,
    )


def run_noise_sweep(
    d: int,
    n: int,
    r: float,
    sigma2_values,
    trials: int,
    seed: int,
    methods=DEFAULT_METHODS,
    kind: str = "permuted_inliers",
    preprocess: PreprocessMode = PreprocessMode.CENTER_NORMALIZE,
) -> list[dict]:
    """Mean error rates as the noise variance on Y varies."""
    return _run_sweep(
        "sigma2", sigma2_values, trials, methods, preprocess,
        d=d, n=n, r=r, kind=kind, seed=seed,
    )


def run_splits_sweep(
    d: int,
    n: int,
    r: float,
    split_values,
    trials: int,
    seed: int,
    method="rowsum:kmeans",
    kind: str = "gaussian_outliers",
    sigma2: float = 0.0,
    preprocess: PreprocessMode = PreprocessMode.NONE,
    max_workers: int | None = None,
) -> list[dict]:
    """Error rates and wall time of split-merge matching as s varies.

    Wall time covers matching only (the split, per-shard overlap build, and
    classification); data generation is excluded.  The shards pin the dense
    row sums, so the time follows split-merge's ``n^2 / s`` cost.  The
    scenario and every shard count are checked before the first trial runs.
    """
    _check_trials(trials)
    spec = parse_method(method) if isinstance(method, str) else method
    base = ScenarioSpec(d=d, n=n, r=r, kind=kind, sigma2=sigma2, seed=seed)
    split_values = list(split_values)
    for s in split_values:
        check_shard_count(n, s)
    rows = []
    for s in split_values:
        errs = []
        times = []
        for t in range(trials):
            trial = replace(base, seed=derive_seed(seed, t))
            pair = generate(trial)
            cfg = spec.config(preprocess, trial.seed, r)
            report = parallel_match(
                pair.x, pair.y, s, cfg, max_workers=max_workers, backend="dense"
            )
            errs.append(error_rates(pair.inliers, report.partition))
            times.append(report.total_time_ms)
        rows.append(_summary_row("splits", s, spec.label, errs, times))
    return rows


def write_sweep_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def read_sweep_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        rows = []
        for raw in reader:
            row = dict(raw)
            for key in SWEEP_COLUMNS[3:]:
                row[key] = float(row[key])
            row["value"] = float(row["value"])
            row["trials"] = int(float(row["trials"]))
            rows.append(row)
        return rows
