"""Machine-speed calibration for the end-to-end timings.

The shared 2-CPU box this benchmark was built on changes speed by up to 2x
within minutes, for every workload alike: over 150 s of interleaved
operations, medians of 8-operation windows spread 40-50 % for each
workload, while the ratio between two workloads' medians spread 3-10 %.
Small numpy or pure-Python kernels did not follow the drift; work shaped like
the program does.  So each operation is timed next to a fixed reference
operation: a frozen copy of the steps of ``match --method rowsum --kmeans``
(parse two CSV texts, centre and normalise, two Gram matrices mirrored from
their upper triangles, symmetry checks, their entrywise product, row sums,
and an exact 1-D 2-means split in Python), at a small fixed size.  The
reference uses nothing from the program, so it cannot change with it, and its
arrays (about 1.3 MB each) stay far below the workloads' peak RSS.

The reference follows the workloads that parse CSV text, whose time is half
Python.  It did not follow an imgdiff workload on 32x32 images, whose time
is numpy passes over 8 MB arrays: there, scaling widened the spread of the
tail latency over ten runs to 30 %, and the workload was dropped.
"""

from time import perf_counter

import numpy as np

# The reference operation's time on the reference box (2-CPU Xeon, one BLAS
# thread): scaled timings read as seconds on that box.
REFERENCE_S = 0.015
D, N = 20, 400  # size of the reference operation
# An interval is scaled by the median of this many reference timings on each
# side of it.  The box's speed moves within a run as well as between runs, so
# the timings near an operation follow it best; a median over the whole run
# let the tail of match-d50 spread 28 % over ten runs.  A wider window keeps
# a short stretch of slow reference timings from moving the operations next
# to it.
WINDOW = 8


def _csv_text(m: np.ndarray) -> str:
    return "\n".join(",".join(format(v, ".17g") for v in row) for row in m.tolist())


def _parse(text: str) -> np.ndarray:
    return np.array([[float(v) for v in line.split(",")] for line in text.splitlines()])


def _gram(x: np.ndarray) -> np.ndarray:
    g = x.T @ x
    g = np.triu(g) + np.triu(g, 1).T
    if not np.array_equal(g, g.T):
        raise AssertionError("reference Gram matrix is not symmetric")
    return g


def _two_means_split(values: np.ndarray) -> int:
    """Index of the best split of the sorted values into two groups."""
    v = sorted(values.tolist())
    total, left, best, best_k = sum(v), 0.0, -1.0, 1
    for k in range(1, len(v)):
        left += v[k - 1]
        gap = left / k - (total - left) / (len(v) - k)
        score = k * (len(v) - k) * gap * gap
        if score > best:
            best, best_k = score, k
    return best_k


def reference_operation(x_text: str, y_text: str) -> int:
    x, y = _parse(x_text), _parse(y_text)
    x = x - x.mean(axis=1, keepdims=True)
    y = y - y.mean(axis=1, keepdims=True)
    x /= np.linalg.norm(x, axis=0)
    y /= np.linalg.norm(y, axis=0)
    h = _gram(x) * _gram(y)
    return _two_means_split(h.sum(axis=1))


class Calibration:
    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        self.x_text = _csv_text(rng.standard_normal((D, N)))
        self.y_text = _csv_text(rng.standard_normal((D, N)))
        self.kernel_s()  # the first BLAS call sets up buffers

    def kernel_s(self) -> float:
        """Wall time of one reference operation."""
        t0 = perf_counter()
        reference_operation(self.x_text, self.y_text)
        return perf_counter() - t0

    @staticmethod
    def scale(seconds: float, reference: float) -> float:
        """``seconds`` as reference-box time, given the reference operation's
        time around the interval."""
        return seconds * REFERENCE_S / reference

    @staticmethod
    def scale_all(seconds: list, refs: list) -> list:
        """Scale interval ``i``, timed between ``refs[i]`` and ``refs[i + 1]``,
        by the median of the ``WINDOW`` reference timings on each side of it."""
        out = []
        for i, t in enumerate(seconds):
            window = refs[max(0, i + 1 - WINDOW) : i + 1 + WINDOW]
            out.append(Calibration.scale(t, float(np.median(window))))
        return out
