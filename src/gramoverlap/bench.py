"""Sweep harnesses: error-vs-inlier-rate, error-vs-noise, and split timing,
all run by one entry point, :func:`run_sweep`, whose ``axis`` names the
swept field: ``r``, ``sigma2`` or ``splits``.  It holds the sweep defaults
once: each axis's methods, ``permuted_inliers`` data and ``cn``
preprocessing.  :func:`run_rate_sweep` is its ``r`` sweep by another name.

Each grid point runs seeded trials.  Trial ``t`` has the same seed at every
grid point, so the driver draws its data's shared part once and completes each
distinct scenario of the grid from it once.  At a ``splits`` point every
method runs split-merge on the trial's one pair.  At ``r`` or ``sigma2``
points the trial completes its scenarios' Ys into the rows of one stack,
chunk by chunk; X is preprocessed once and each chunk's Ys as a stack.  Each
chunk's overlap is one :class:`~gramoverlap.overlap.OverlapMatrix` of X and
the chunk's Ys, and each distinct statistic (leading eigenvector, row sums)
is read from it once, through ``classify.statistic``, the path ``match``
reads a pair through.  A chunk is bounded by a fixed byte budget when every
statistic reads only the factors; when a backend reads ``H`` (the dense row
sums, or power iteration), a chunk is the pair overlap of one scenario, so a
trial holds one ``H`` at a time and both statistics share it.  Every
scenario's truth mask comes from the trial's permutation in one comparison.
Once every scenario of the trial has its statistics,
``classify.classify_rows`` (``match``'s classifier) splits the rows of every
2-means method at every point in one call and compares those of every
threshold method with their cuts in another, and every partition of the
trial is scored as one stack, so methods are compared on identical data.
Per-method wall time charges the point's share of the trial's preprocessing,
its chunk's share of the overlap's build plus the statistic that method
reads, and its row's share of its branch's classification call, i.e. about
what a solo run would cost: each statistic is timed once and charged to
every method that reads it.

Results stay arrays from the trial to the CSV row.  A trial returns each
method's inlier and hit counts and times at each point; the sweep fills one
``(4, methods, points, trials)`` array with ``error_g``, ``error_b``,
``error_w`` and ``time_ms`` from them and each point's true-inlier count,
and takes every row's means in one reduction along the trial axis and every
sd in another.
"""

import csv
import time
from dataclasses import replace

import numpy as np

from .classify import (
    METHOD_EIGENVECTOR,
    METHOD_ROW_SUM,
    MatchConfig,
    classify_rows,
    statistic,
)
from .overlap import OverlapMatrix, PreprocessMode, _preprocess, forms_h, preprocess
from .parallel import check_shard_count, parallel_match
from .synth import (
    KIND_PERMUTED_INLIERS,
    ScenarioSpec,
    _complete,
    _draw_trial,
    _inlier_masks,
    derive_seed,
)

# The per-trial columns that each summary row reduces to a mean and an sd.
_SUMMARY_STATS = ("error_g", "error_b", "error_w", "time_ms")

SWEEP_COLUMNS = ["sweep", "value", "method", "trials"] + [
    f"{name}_{stat}" for name in _SUMMARY_STATS for stat in ("mean", "std")
]

# Byte budget of one chunk of a sweep trial's factored statistics (see
# _stack_points).  Timed per point on seeded sweep pairs (1 BLAS thread, a
# 2 MiB L2 cache a core), the stacked eigenvector statistic got 2-5 times
# cheaper from 1 to 8 points at d = 4 and 6, n = 400, then stayed flat up to
# about 4 MiB a chunk and got slower beyond: at d = 10, n = 1000, 1.09 ms
# alone, 0.98 ms in chunks of 4 points (4 MiB) and 1.15-1.37 ms in chunks of
# 8 to 32; at d = 12, n = 2000 one point (2.7 MiB) was the fastest, 2.8
# against 3.3 ms in chunks of 4.
_STACK_BYTES = 4 << 20

DEFAULT_METHODS = ("eig:0.3", "eig:0.5", "eig:0.7", "eig:kmeans", "rowsum:kmeans")
DEFAULT_SPLITS_METHOD = "rowsum:kmeans"
_AXES = ("r", "sigma2", "splits")

_METHOD_PREFIXES = {"eig": METHOD_EIGENVECTOR, "rowsum": METHOD_ROW_SUM}
# The threshold of each named branch token; any other token is a number.
_BRANCHES = {"kmeans": None, "auto": "auto"}


def parse_method(text: str) -> MatchConfig:
    """The matcher a spec such as 'eig:0.5' or 'rowsum:kmeans' names.

    The branch token is the config's ``threshold``: 'kmeans' is None
    (2-means), a number is that fixed cut, and 'auto' is ``"auto"`` (the
    built-in cut, which a sweep derives from the true inlier rate of each
    grid point; see :func:`_at_rate`).
    """
    parts = text.split(":")
    if len(parts) != 2 or parts[0] not in _METHOD_PREFIXES:
        raise ValueError(
            f"bad method spec {text!r}; expected eig:<t|kmeans> or "
            f"rowsum:<T|kmeans|auto>"
        )
    branch = parts[1]
    try:
        threshold = _BRANCHES[branch] if branch in _BRANCHES else float(branch)
        return MatchConfig(_METHOD_PREFIXES[parts[0]], threshold)
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


def _summary_rows(sweep: str, values, labels, cols: np.ndarray) -> list[dict]:
    """The CSV rows of a sweep, grid point by grid point and method by method
    within a point, from its ``(4, methods, points, trials)`` array of
    per-trial columns: the mean and population sd of each column.

    Each is one reduction along the trial axis, which is the last and
    contiguous one, so each row gets the bits that ``mean(axis=1)`` and
    ``std(axis=1)`` give on its own ``(4, trials)`` array.
    """
    trials = cols.shape[-1]
    means = np.add.reduce(cols, axis=-1) / trials
    dev = cols - means[..., None]
    dev *= dev
    stds = np.sqrt(np.add.reduce(dev, axis=-1) / trials)
    rows = []
    for i, value in enumerate(values):
        for j, label in enumerate(labels):
            row = {"sweep": sweep, "value": value, "method": label, "trials": trials}
            stats = zip(_SUMMARY_STATS, means[:, j, i], stds[:, j, i])
            for name, mean, std in stats:
                row[f"{name}_mean"] = mean
                row[f"{name}_std"] = std
            rows.append(row)
    return rows


def _stack_points(d: int, n: int) -> int:
    """How many pairs of d-by-n factors a trial stacks in one chunk: as many
    as keep their ``Z`` (``d^2 n`` values), ``G`` and its two squaring
    buffers (``d^4`` each) within :data:`_STACK_BYTES`, and at least one."""
    return max(1, _STACK_BYTES // (8 * (d * d * n + 3 * d**4)))


def _overlap_trial(draws, scenarios, at_point, specs, configs, mode: PreprocessMode):
    """The counts ``hits`` (true inliers labelled inlier) and ``found``
    (points labelled inlier) and the ``time_ms`` of each method at each grid
    point, each ``(methods, points)``, in one trial of an ``r`` or
    ``sigma2`` sweep.

    ``draws`` are the trial's draws, ``scenarios`` the grid's distinct
    scenarios and ``at_point[i]`` the index of point i's scenario.  X is
    checked and preprocessed once.  The scenarios are taken in chunks: of
    one scenario when a statistic's backend reads ``H`` (see
    :func:`~gramoverlap.overlap.forms_h`), else of :func:`_stack_points`.
    Each chunk's Ys are completed into the rows of one ``(p, d, n)`` stack,
    which every chunk of the trial reuses, so one chunk's Ys are alive at a
    time, and preprocessed as a stack, which raises for a degenerate column
    at the same scenario, naming the same column, as building each overlap
    in turn would.  One overlap of X and the stack is built a chunk (a pair
    overlap of its one Y when a backend reads ``H``), each distinct
    statistic is read from it by :func:`~gramoverlap.classify.statistic`,
    and it is dropped before the next chunk's is built, so one ``H`` is
    alive at a time.  The trial keeps only the statistic vectors.  Every
    scenario's truth mask comes from the permutation's ranks in one
    comparison.  Then ``match``'s classifier,
    :func:`~gramoverlap.classify.classify_rows`, splits the rows of every
    2-means method at every point in one call, whose rows are independent,
    and compares those of every threshold method with their cuts in
    another; the masks of every method at every point are counted against
    the truth as one stack.  A point's time charges its share of the
    trial's preprocessing, its scenario's share of its chunk's overlap
    build and of the statistic the method reads, and its rows' share of its
    branch's classification call.
    """
    (d, n), points = draws.x.shape, len(at_point)
    methods = dict.fromkeys(cfg.method for _, cfg in specs)
    reads_h = any(forms_h(d, n, method == METHOD_EIGENVECTOR) for method in methods)
    chunk_size = 1 if reads_h else _stack_points(d, n)
    stats = {method: np.empty((len(scenarios), n)) for method in methods}
    ms = {method: np.empty(len(scenarios)) for method in methods}
    pre_ms = np.empty(len(scenarios))
    t0 = time.perf_counter()
    xp = preprocess(draws.x, mode)
    x_ms = (time.perf_counter() - t0) * 1e3
    ys = np.empty((min(chunk_size, len(scenarios)), d, n))
    for start in range(0, len(scenarios), chunk_size):
        chunk = slice(start, start + chunk_size)
        p = len(scenarios[chunk])
        for spec, y in zip(scenarios[chunk], ys):
            _complete(draws, spec, y)
        t0 = time.perf_counter()
        yps = _preprocess(ys[:p], mode)
        t1 = time.perf_counter()
        h = OverlapMatrix(xp=xp, yp=yps[0] if reads_h else yps)
        build_s = time.perf_counter() - t1
        pre_ms[chunk] = (t1 - t0) * 1e3 / p
        for method in methods:
            t0 = time.perf_counter()
            stats[method][chunk], _ = statistic(h, method)
            ms[method][chunk] = (build_s + time.perf_counter() - t0) * 1e3 / p
        del h  # one H alive at a time
    pre_ms += x_ms / len(scenarios)
    truths = _inlier_masks(draws, [spec.n_inliers for spec in scenarios])[at_point]
    groups = {}  # the methods of each branch, classified in one call
    for j, (_, cfg) in enumerate(specs):
        groups.setdefault(cfg.threshold is None, []).append(j)
    inliers = np.empty((len(specs), points, n), dtype=bool)
    time_ms = np.empty((len(specs), points))
    for group in groups.values():
        t0 = time.perf_counter()
        rows = np.concatenate([stats[specs[j][1].method][at_point] for j in group])
        cfgs = [point[specs[j][0]] for j in group for point in configs]
        masks = classify_rows(rows, cfgs, d).inliers
        inliers[group] = masks.reshape(len(group), points, n)
        share_ms = (time.perf_counter() - t0) * 1e3 / len(rows)
        for j in group:
            time_ms[j] = (pre_ms + ms[specs[j][1].method])[at_point] + share_ms
    found = np.count_nonzero(inliers, axis=2)
    inliers &= truths
    return np.count_nonzero(inliers, axis=2), found, time_ms


def _split_trial(draws, spec, points, configs, mode: PreprocessMode, seed, max_workers):
    """``hits``, ``found`` and ``time_ms`` (see :func:`_overlap_trial`) in
    one trial of a ``splits`` sweep, each method's at each point from its
    own split-merge over the point's ``s`` shards of the one scenario
    ``spec``.  The time covers the split, the shard builds and
    classification; the shards pin the dense row sums, so it follows
    split-merge's ``n^2 / s`` cost."""
    y = np.empty_like(draws.x)
    _complete(draws, spec, y)
    truth = _inlier_masks(draws, [spec.n_inliers])[0]
    hits = np.empty((len(configs[0]), len(points)), dtype=np.intp)
    found = np.empty_like(hits)
    time_ms = np.empty(hits.shape)
    for i, (s, _) in enumerate(points):
        for j, cfg in enumerate(configs[i].values()):
            report = parallel_match(
                draws.x, y, s, cfg, mode, seed, max_workers=max_workers, backend="dense"
            )
            mask = report.partition.inlier_mask()
            found[j, i] = np.count_nonzero(mask)
            hits[j, i] = np.count_nonzero(truth & mask)
            time_ms[j, i] = report.total_time_ms
    return hits, found, time_ms


class SweepPlanError(ValueError):
    """A sweep plan that :func:`check_sweep` refuses: a CLI usage error."""


def check_sweep(
    axis: str, values, trials: int, methods=None, max_workers=None,
    kind: str = KIND_PERMUTED_INLIERS, **fixed,
):
    """The parsed method specs and the ``(value, scenario)`` grid points of
    a sweep over ``axis``: ``r`` or ``sigma2``, which each point sets, or
    ``splits``, whose points share the scenario ``fixed`` and ``kind``
    describe.  ``methods`` None is the axis's default,
    :data:`DEFAULT_SPLITS_METHOD` alone for ``splits`` and
    :data:`DEFAULT_METHODS` otherwise.  Raises :class:`SweepPlanError` on an
    unknown axis, trials below 1, a bad or repeated spec, a scenario
    ``ScenarioSpec`` refuses, a shard count that is not an integer of
    ``1 <= s <= n/2``, or a ``max_workers`` on an axis other than
    ``splits``, the only one that reads it."""
    try:
        if axis not in _AXES:
            raise ValueError(f"unknown sweep axis {axis!r}")
        if trials < 1:
            raise ValueError(f"trials must be at least 1, got {trials}")
        if max_workers is not None and axis != "splits":
            raise ValueError(f"a sweep over {axis} takes no max_workers")
        if methods is None:
            methods = (DEFAULT_SPLITS_METHOD,) if axis == "splits" else DEFAULT_METHODS
        specs = parse_methods(methods)
        if axis == "splits":
            base = ScenarioSpec(kind=kind, **fixed)
            points = [(s, base) for s in values]
            for s, _ in points:
                check_shard_count(base.n, s)
        else:
            points = [
                (value, ScenarioSpec(kind=kind, **fixed, **{axis: value}))
                for value in values
            ]
    except ValueError as exc:
        raise SweepPlanError(*exc.args) from exc
    return specs, points


def run_sweep(
    axis: str, values, trials: int, methods=None,
    preprocess: PreprocessMode = PreprocessMode.CENTER_NORMALIZE,
    max_workers=None, **scenario,
) -> list[dict]:
    """Rows of a sweep over ``axis`` (``r``, ``sigma2`` or ``splits``, which
    also names the sweep in each row) at the grid ``values``, ``trials``
    trials a point.  ``scenario`` holds the fixed fields of
    ``ScenarioSpec``: ``d``, ``n`` and ``seed``, ``r`` and ``sigma2`` unless
    swept, and ``kind``, ``permuted_inliers`` unless given.  Every point's
    pair is preprocessed under ``preprocess``; ``max_workers`` bounds a
    splits point's pool.  :func:`check_sweep` checks the whole plan, and fills in
    the default ``methods``, before the first trial runs.

    The sweep runs trial by trial.  Trial ``t`` has one seed at every grid
    point, so its X, permutation and rotation are drawn once, and each
    distinct scenario of the grid is completed from them once; the grid
    points of that scenario all run on its Y (see :func:`_overlap_trial`
    and :func:`_split_trial`).  A scenario's truth mask is built once for
    all of its partitions.  Each trial returns its counts and times as
    arrays, and the sweep fills one ``(4, methods, points, trials)`` array
    of ``error_g``, ``error_b``, ``error_w`` and ``time_ms`` from them and
    each point's true-inlier count: the errors are the quotients of the
    counts that
    :class:`~gramoverlap.classify.ErrorReport` divides, with the same bits.
    Rows come out point by point, one per method (see
    :func:`_summary_rows`); data generation and scoring are not timed."""
    specs, points = check_sweep(axis, values, trials, methods, max_workers, **scenario)
    if not points:
        return []
    index = {}  # each distinct scenario's position, in order of first use
    at_point = np.array([index.setdefault(spec, len(index)) for _, spec in points])
    scenarios = list(index)
    configs = [
        {label: _at_rate(cfg, spec.r) for label, cfg in specs} for _, spec in points
    ]
    base = points[0][1]  # every point has the same d, n and seed
    k = np.array([[spec.n_inliers] for _, spec in points])  # (points, 1)
    hits = np.empty((len(specs), len(points), trials), dtype=np.intp)
    found = np.empty_like(hits)
    cols = np.empty((4, *hits.shape))
    for t in range(trials):
        seed = derive_seed(base.seed, t)
        draws = _draw_trial(base.d, base.n, seed)
        if axis == "splits":
            counts = _split_trial(
                draws, base, points, configs, preprocess, seed, max_workers
            )
        else:
            counts = _overlap_trial(
                draws, scenarios, at_point, specs, configs, preprocess
            )
        hits[..., t], found[..., t], cols[3, ..., t] = counts
    missed_g = k - hits
    missed_b = found - hits
    np.divide(missed_g, k, out=cols[0])
    np.divide(missed_b, base.n - k, out=cols[1])
    np.divide(missed_g + missed_b, base.n, out=cols[2])
    return _summary_rows(
        axis, [value for value, _ in points], [label for label, _ in specs], cols
    )


def run_rate_sweep(d: int, n: int, r_values, trials: int, seed: int, **options):
    """:func:`run_sweep` over the inlier fraction, with its defaults."""
    return run_sweep("r", r_values, trials, d=d, n=n, seed=seed, **options)


def write_sweep_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
