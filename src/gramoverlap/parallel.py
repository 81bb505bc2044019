"""Split-merge matching: shard the data, match shards independently, merge.

Preprocessing happens once, globally, before the split; each shard then builds
its own (much smaller) overlap from its columns of the preprocessed factors,
with the row-sum backend picked for its size.  Shard tasks are pure; they run
on a thread pool only when at least one of them forms the dense ``H``
(:func:`~gramoverlap.overlap.forms_h`), and in order on the calling thread
otherwise, where a pool measured slower than one thread.  The merged partition
is identical for any execution order or worker count.  The split is a tuple
of sorted index arrays, one a shard (:func:`make_split`).  When a row-sum
config's ``"auto"`` cut derives T from an inlier rate, each shard uses its
own size in the formula.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .classify import (
    METHOD_EIGENVECTOR,
    LabelPartition,
    MatchConfig,
    MatchDiagnostics,
    match,
)
from .errors import check_integer
from .overlap import PreprocessMode, _preprocessed_pair, build_overlap, forms_h


def check_shard_count(n: int, s: int) -> None:
    """Raise ``ValueError`` unless ``s`` is an integer, not a ``bool``, with
    1 <= s <= n/2, so that each of s shards of n points holds at least two."""
    check_integer("s", s)
    if not 1 <= s <= n // 2:
        raise ValueError(f"s must satisfy 1 <= s <= n/2, got s={s}, n={n}")


def make_split(n: int, s: int, seed: int) -> tuple[np.ndarray, ...]:
    """The shards of a uniformly random balanced split of 0..n-1 into s, a
    tuple of sorted index arrays: a seeded permutation cut by
    ``np.array_split``, so the first ``n mod s`` shards hold one point more.

    Requires 1 <= s <= n/2 (see :func:`check_shard_count`) and a
    non-negative ``seed``.
    """
    check_shard_count(n, s)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    perm = np.random.default_rng(seed).permutation(n)
    return tuple(np.sort(part) for part in np.array_split(perm, s))


@dataclass
class ParallelReport:
    """Merged partition with its shards (see :func:`make_split`) and
    per-shard timing and diagnostics; ``workers`` is the number of threads
    that ran the shards (1 when they ran inline)."""

    partition: LabelPartition
    shards: tuple[np.ndarray, ...]
    shard_times_ms: list[float]
    total_time_ms: float
    shard_diagnostics: list[MatchDiagnostics]
    workers: int

    @property
    def warnings(self) -> list[str]:
        out = []
        for j, diag in enumerate(self.shard_diagnostics):
            out.extend(f"shard {j}: {w}" for w in diag.warnings)
        return out


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(requested: int | None, s: int) -> int:
    """Worker count for s shards: the request, else one per usable CPU,
    capped at s."""
    if requested is None:
        requested = usable_cpus()
    if requested < 1:
        raise ValueError("worker count must be at least 1")
    return min(requested, s)


def parallel_match(
    x, y, s: int, cfg: MatchConfig, mode=PreprocessMode.CENTER_NORMALIZE, seed=0,
    max_workers: int | None = None, backend=None,
) -> ParallelReport:
    """Match a paired point set by splitting it into s shards drawn from
    ``seed`` (see :func:`make_split`).

    Shard results are merged by original index, so the outcome does not depend
    on scheduling.  Degenerate-clustering fallbacks inside a shard surface as
    warnings, not errors.  The inputs are checked and preprocessed once under
    ``mode``, as :func:`build_overlap` does; each shard passes its columns of
    the factors and ``backend`` to :func:`build_overlap`, with no further
    preprocessing.
    The shards share a pool of up to ``max_workers`` threads (see
    :func:`resolve_workers`) only when one of them forms ``H``; otherwise
    they run in order on the calling thread.  A config that cannot run (see
    :meth:`MatchConfig.check_runnable`) is refused before the inputs are
    read.
    """
    cfg.check_runnable()
    t_start = time.perf_counter()
    xp, yp = _preprocessed_pair(x, y, mode)
    n = xp.shape[1]
    shards = make_split(n, s, seed)

    def run_shard(j: int):
        idx = shards[j]
        t0 = time.perf_counter()
        h = build_overlap(xp[:, idx], yp[:, idx], PreprocessMode.NONE, backend)
        part, diag = match(h, cfg)
        return part, diag, (time.perf_counter() - t0) * 1e3

    workers = resolve_workers(max_workers, s)
    d, eigenpair = xp.shape[0], cfg.method == METHOD_EIGENVECTOR
    if not any(forms_h(d, idx.size, eigenpair, backend) for idx in shards):
        workers = 1
    if workers == 1:
        results = [run_shard(j) for j in range(s)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_shard, range(s)))

    inlier_mask = np.zeros(n, dtype=bool)
    for j, (part, _, _) in enumerate(results):
        inlier_mask[shards[j][part.inliers]] = True
    total_ms = (time.perf_counter() - t_start) * 1e3
    return ParallelReport(
        partition=LabelPartition(inlier_mask),
        shards=shards,
        shard_times_ms=[ms for _, _, ms in results],
        total_time_ms=total_ms,
        shard_diagnostics=[diag for _, diag, _ in results],
        workers=workers,
    )
