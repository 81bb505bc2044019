"""The benchmark's workloads: seeded inputs, one operation each, output checks.

Inputs are made here from the workload seed with numpy's PCG64, not with the
program's own generator, so a change to the program cannot change what it is
measured on.  The program sees only the files (or, for the sweep, the seed of
its own harness).  Every operation is checked against ground truth.
"""

import importlib
from pathlib import Path

import numpy as np

R_GRID = (0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90)


class CheckError(Exception):
    """An operation's output is missing, malformed or wrong."""


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))


def labeled_pair(d: int, n: int, r: float, seed: int):
    """``(X, Y, inliers)``: Y's inlier columns are one Haar rotation of X's,
    its other columns fresh Gaussian draws (the paper's gaussian_outliers)."""
    rng = _rng(seed, d, n)
    x = rng.standard_normal((d, n))
    inliers = np.sort(rng.choice(n, size=round(r * n), replace=False))
    q, tri = np.linalg.qr(rng.standard_normal((d, d)))
    q *= np.sign(np.diag(tri))
    y = rng.standard_normal((d, n))
    y[:, inliers] = q @ x[:, inliers]
    return x, y, inliers


def csv_bytes(m: np.ndarray) -> bytes:
    """Matrix CSV as the program reads it: one feature per row, 17 digits."""
    rows = (",".join(format(v, ".17g") for v in row) for row in m.tolist())
    return ("\n".join(rows) + "\n").encode()


def read_partition(path: Path, n: int) -> np.ndarray:
    """Inlier mask from a partition.csv that must list 0..n-1 in order."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise CheckError(f"partition.csv unreadable: {exc}") from None
    if len(lines) != n:
        raise CheckError(f"partition.csv has {len(lines)} lines, expected {n}")
    mask = np.empty(n, dtype=bool)
    for i, line in enumerate(lines):
        index, _, label = line.partition(",")
        if index != str(i) or label not in ("G", "B"):
            raise CheckError(f"partition.csv line {i + 1}: {line!r}")
        mask[i] = label == "G"
    return mask


class Workload:
    """One kind of operation on fixed inputs.

    ``prepare`` makes and writes the inputs, ``run`` performs one operation
    on input ``i`` through a public entry point (the timed part), and
    ``check`` parses its output and returns ``(signature, error_w)``.  Equal
    inputs must give an equal signature.
    """

    name = ""
    points = 0  # points classified per operation
    dense_n = 0  # order of each dense n-by-n overlap matrix built
    concurrent_builds = 1  # dense builds that can be alive at the same time
    threads = 1  # --threads passed to the program
    error_bound = 0.0  # an operation fails above this error_w
    inputs = 1  # operations cycle through this many distinct inputs

    def dense_peak_bytes(self) -> int:
        """About five n-by-n float64 arrays are live at the peak of a build."""
        return self.concurrent_builds * 5 * 8 * self.dense_n**2


class CliMatch(Workload):
    def __init__(self, name, d, n, r, splits, threads, error_bound):
        self.name = name
        self.d, self.n, self.r = d, n, r
        self.splits, self.threads = splits, threads
        self.error_bound = error_bound
        self.points = n
        self.dense_n = -(-n // splits)

    @property
    def concurrent_builds(self) -> int:
        return min(self.splits, self.threads)

    def prepare(self, seed: int, workdir: Path) -> None:
        self.cli = importlib.import_module("gramoverlap.cli")
        x, y, inliers = labeled_pair(self.d, self.n, self.r, seed)
        self.truth = np.zeros(self.n, dtype=bool)
        self.truth[inliers] = True
        self.x_path, self.y_path = workdir / "X.csv", workdir / "Y.csv"
        self.x_path.write_bytes(csv_bytes(x))
        self.y_path.write_bytes(csv_bytes(y))
        self.out = workdir / "out"

    def run(self, i: int, threads: int | None = None):
        argv = ["match", str(self.x_path), str(self.y_path)]
        argv += ["--method", "rowsum", "--kmeans", "--preprocess", "cn"]
        argv += ["--splits", str(self.splits), "--seed", "0"]
        argv += ["--threads", str(threads or self.threads), "--out", str(self.out)]
        return self.cli.main(argv)

    def check(self, i: int, code):
        if code != 0:
            raise CheckError(f"exit code {code}")
        mask = read_partition(self.out / "partition.csv", self.n)
        return mask.tobytes(), float(np.mean(mask != self.truth))


class RateSweep(Workload):
    """One ``bench.run_rate_sweep`` call: ``trials`` trials per point of the
    r grid.

    The power-iteration count, and so the time of a trial, depends on the
    instance.  Several trials per call, and a fresh sweep seed per call from
    ``inputs`` seeds, keep a run's median and tail from resting on a few
    instances.
    """

    def __init__(self, name, d, n, trials, inputs, error_bound):
        self.name = name
        self.d, self.n = d, n
        self.trials = trials
        self.inputs = inputs
        self.error_bound = error_bound
        self.dense_n = n
        self.points = n * len(R_GRID) * trials

    def prepare(self, seed: int, workdir: Path) -> None:
        self.bench = importlib.import_module("gramoverlap.bench")
        children = np.random.SeedSequence(seed).spawn(self.inputs)
        self.seeds = [int(c.generate_state(1)[0]) for c in children]

    def run(self, i: int, threads: int | None = None):
        return self.bench.run_rate_sweep(
            d=self.d,
            n=self.n,
            r_values=R_GRID,
            trials=self.trials,
            seed=self.seeds[i],
            methods=self.bench.DEFAULT_METHODS,
            kind="permuted_inliers",
        )

    def check(self, i: int, rows):
        expected = len(R_GRID) * len(self.bench.DEFAULT_METHODS)
        if len(rows) != expected:
            raise CheckError(f"{len(rows)} sweep rows, expected {expected}")
        signature = []
        for row in rows:
            errs = [row[k] for k in ("error_g_mean", "error_b_mean", "error_w_mean")]
            if row["trials"] != self.trials or not all(0.0 <= e <= 1.0 for e in errs):
                raise CheckError(f"bad sweep row {row!r}")
            signature.append((row["value"], row["method"], *errs))
        error_w = float(np.mean([row["error_w_mean"] for row in rows]))
        return tuple(signature), error_w


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        CliMatch(
            "match-d50",
            d=50,
            n=1000,
            r=0.8,
            splits=1,
            threads=1,
            error_bound=0.01,
        ),
        RateSweep(
            "sweep-rate",
            d=6,
            n=400,
            trials=3,
            inputs=64,
            error_bound=0.25,
        ),
        CliMatch(
            "match-split",
            d=10,
            n=4000,
            r=0.8,
            splits=4,
            threads=2,
            error_bound=0.03,
        ),
    )
}
