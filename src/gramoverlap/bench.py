"""Sweep harnesses: error-vs-inlier-rate, error-vs-noise, and split timing,
all run by one driver, :func:`_run_sweep`.

Each grid point runs seeded trials.  At a ``splits`` point every method runs
split-merge on the trial's data.  At an ``r`` or ``sigma2`` point the overlap
matrix is made once from the preprocessed factors, each statistic it carries
(leading eigenvector, row sums) is computed once, and every requested method
classifies it, so methods are compared on identical data.  ``H`` is formed
only by a backend that reads it: the dense row sums at construction, or power
iteration inside its own call.  Per-method wall time charges the shared
preprocessing, the statistic that method reads and that method's own
classification, i.e. what a solo run would cost: each statistic is timed once
per trial and charged to every method that reads it.
"""

import csv
import time
from dataclasses import replace

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

# The per-trial columns that each summary row reduces to a mean and an sd.
_SUMMARY_STATS = ("error_g", "error_b", "error_w", "time_ms")

SWEEP_COLUMNS = ["sweep", "value", "method", "trials"] + [
    f"{name}_{stat}" for name in _SUMMARY_STATS for stat in ("mean", "std")
]

DEFAULT_METHODS = ("eig:0.3", "eig:0.5", "eig:0.7", "eig:kmeans", "rowsum:kmeans")
DEFAULT_SPLITS_METHOD = "rowsum:kmeans"

_METHOD_PREFIXES = {"eig": METHOD_EIGENVECTOR, "rowsum": METHOD_ROW_SUM}


def parse_method(text: str) -> MatchConfig:
    """The matcher a spec such as 'eig:0.5' or 'rowsum:kmeans' names.

    The branch token is either 'kmeans', a positive fixed threshold, or 'auto'
    (the built-in default threshold, which a sweep derives from the true
    inlier rate of each grid point; see :func:`_at_rate`).
    """
    parts = text.split(":")
    if len(parts) != 2 or parts[0] not in _METHOD_PREFIXES:
        raise ValueError(
            f"bad method spec {text!r}; expected eig:<t|kmeans> or "
            f"rowsum:<T|kmeans|auto>"
        )
    method = _METHOD_PREFIXES[parts[0]]
    branch = parts[1]
    if branch == "kmeans":
        return MatchConfig(method)
    if branch == "auto":
        return MatchConfig(method, use_two_means=False)
    try:
        return MatchConfig(method, threshold=float(branch), use_two_means=False)
    except ValueError:
        raise ValueError(f"bad threshold in method spec {text!r}") from None


def parse_methods(texts) -> list[tuple[str, MatchConfig]]:
    """Each spec text with the matcher it names (see :func:`parse_method`).

    A spec given twice raises ``ValueError``: a sweep labels its rows by
    spec text, so the two would merge into one row.
    """
    configs = {}
    for text in texts:
        if text in configs:
            raise ValueError(f"method spec {text!r} is given twice")
        configs[text] = parse_method(text)
    return list(configs.items())


def _at_rate(cfg: MatchConfig, r: float) -> MatchConfig:
    """``cfg`` at a grid point of inlier rate ``r``: ``r`` becomes the inlier
    rate of a config that reads one (``rowsum:auto``)."""
    return replace(cfg, inlier_rate=r) if cfg.reads_inlier_rate else cfg


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


def _statistics_ms(h: OverlapMatrix, configs) -> dict:
    """Compute (and cache) each statistic the configs read, timed per
    statistic name; a statistic that reads ``H`` forms it on first use, so
    its time carries the formation."""
    needed = dict.fromkeys(_STATISTICS[cfg.method] for cfg in configs)
    return {k: _timed_ms(getattr(h, k)) for k in needed}


def _overlap_trial(pair, configs: dict, mode: PreprocessMode):
    """Yield each method's label, partition and time_ms in one trial; the
    overlap is built, and each statistic computed, once for all of them."""
    t0 = time.perf_counter()
    h = build_overlap(pair.x, pair.y, mode)
    build_ms = (time.perf_counter() - t0) * 1e3
    stat_ms = _statistics_ms(h, configs.values())
    for label, cfg in configs.items():
        t1 = time.perf_counter()
        part, _ = match(h, cfg)
        ms = (time.perf_counter() - t1) * 1e3
        yield label, part, build_ms + stat_ms[_STATISTICS[cfg.method]] + ms


def _split_trial(pair, configs: dict, mode: PreprocessMode, s, seed, max_workers):
    """Yield each method's label, partition and time_ms in one trial, each
    from its own split-merge over ``s`` shards.  The time covers the split,
    the shard builds and classification; the shards pin the dense row sums,
    so it follows split-merge's ``n^2 / s`` cost."""
    for label, cfg in configs.items():
        report = parallel_match(
            pair.x, pair.y, s, cfg, mode, seed,
            max_workers=max_workers, backend="dense",
        )
        yield label, report.partition, report.total_time_ms


def _run_grid_point(
    sweep: str,
    value,
    spec: ScenarioSpec,
    trials: int,
    methods: list[tuple[str, MatchConfig]],
    mode: PreprocessMode,
    max_workers,
) -> list[dict]:
    """Summary rows of one grid point; ``methods`` pairs each spec text,
    the label of its rows, with its parsed config.  Data generation and
    scoring are not timed."""
    errs = {label: [] for label, _ in methods}
    times = {label: [] for label, _ in methods}
    configs = {label: _at_rate(cfg, spec.r) for label, cfg in methods}
    for t in range(trials):
        trial = replace(spec, seed=derive_seed(spec.seed, t))
        pair = generate(trial)
        if sweep == "splits":
            results = _split_trial(pair, configs, mode, value, trial.seed, max_workers)
        else:
            results = _overlap_trial(pair, configs, mode)
        for label, part, ms in results:
            errs[label].append(error_rates(pair.inliers, part))
            times[label].append(ms)
    return [
        _summary_row(sweep, value, label, errs[label], times[label])
        for label, _ in methods
    ]


def check_sweep(axis: str, values, trials: int, methods, **fixed):
    """The parsed method specs and the ``(value, scenario)`` grid points of
    a sweep over ``axis``: ``r`` or ``sigma2``, which each point sets, or
    ``splits``, whose points share the scenario ``fixed`` describes.  Raises
    ``ValueError`` on trials below 1, a bad or repeated spec, a scenario
    ``ScenarioSpec`` refuses, or a shard count outside ``1 <= s <= n/2``."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    specs = parse_methods(methods)
    if axis == "splits":
        base = ScenarioSpec(**fixed)
        points = [(s, base) for s in values]
        for s, _ in points:
            check_shard_count(base.n, s)
    else:
        points = [(value, ScenarioSpec(**fixed, **{axis: value})) for value in values]
    return specs, points


def _run_sweep(
    axis: str, values, trials: int, methods, mode: PreprocessMode,
    max_workers=None, **fixed,
) -> list[dict]:
    """Rows of a sweep over ``axis``, which also names the sweep in each row
    (see :func:`check_sweep`, which checks the whole plan before the first
    trial runs).  ``max_workers`` bounds a splits point's pool."""
    specs, points = check_sweep(axis, values, trials, methods, **fixed)
    rows = []
    for value, base in points:
        rows.extend(
            _run_grid_point(axis, value, base, trials, specs, mode, max_workers)
        )
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
    methods=(DEFAULT_SPLITS_METHOD,),
    kind: str = "permuted_inliers",
    sigma2: float = 0.0,
    preprocess: PreprocessMode = PreprocessMode.CENTER_NORMALIZE,
    max_workers: int | None = None,
) -> list[dict]:
    """Error rates and wall time of split-merge matching as s varies."""
    return _run_sweep(
        "splits", split_values, trials, methods, preprocess, max_workers,
        d=d, n=n, r=r, kind=kind, sigma2=sigma2, seed=seed,
    )


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
