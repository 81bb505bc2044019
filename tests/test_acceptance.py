"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Monte-Carlo criteria use fixed seeds, so every run reproduces the
same numbers; pilot-frozen constants are noted where they appear.
"""

import json
import math
import time
from itertools import combinations

import numpy as np
import pytest

from gramoverlap import (
    LabelPartition,
    MatchConfig,
    PopulationModel,
    PreprocessMode,
    ScenarioSpec,
    build_overlap,
    classify_rows,
    dense_eig,
    empirical_deviation,
    error_rates,
    generate,
    match,
    parallel_match,
    population_overlap,
    spectral_norm,
    threshold_interval,
)
from gramoverlap.bench import run_noise_sweep, run_rate_sweep, run_splits_sweep
from gramoverlap.cli import main as cli_main
from gramoverlap.fileio import (
    read_labels,
    read_matrix_csv,
    read_partition_csv,
    read_ppm,
    write_ppm,
)
from gramoverlap.synth import derive_seed

ALL_METHODS = ("eig:0.3", "eig:0.5", "eig:0.7", "eig:kmeans", "rowsum:kmeans")


def two_means_partition(values) -> LabelPartition:
    """The 2-means partition of one row of values, as ``match`` splits it."""
    return LabelPartition(classify_rows(values[None], [MatchConfig()], d=1).inliers[0])


def report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {verdict}  [{detail}]")


def run_cli(argv) -> int:
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return int(exc.code or 0)


def test_criterion_1_population_oracle():
    t0 = time.perf_counter()
    ok = True
    for d, n, k in [(10, 20, 10), (50, 40, 20), (30, 24, 12)]:
        model = PopulationModel(d=d, n=n, inliers=np.arange(k))
        expected_top = d * d + d * (k + 1)
        values, vectors = dense_eig(population_overlap(model))
        ok &= abs(values[0] - expected_top) <= 1e-8 * expected_top
        pattern = np.zeros(n)
        pattern[:k] = 1.0 / math.sqrt(k)
        top = vectors[:, 0]
        if top @ pattern < 0:
            top = -top
        ok &= float(np.max(np.abs(top - pattern))) <= 1e-8
        s = population_overlap(model).sum(axis=1)
        ok &= all(s[i] == expected_top for i in range(k))
        ok &= all(s[i] == d * d for i in range(k, n))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, "population oracle", ok, f"elapsed {elapsed:.3f}s")
    assert ok


def test_criterion_2_exact_recovery():
    # Raw (unpreprocessed) data with T = d(rn+1)/2, half way between the
    # outlier mean 0 and the inlier mean d(rn+1) of S_i - d^2.  The statistic
    # fluctuates by three terms, the three of `threshold_interval`: the
    # diagonal ||x_i||^2 ||y_i||^2 (sd ~ 2*sqrt(2)*d^{3/2}), the off-diagonal
    # sum (sd ~ d*sqrt(n)) and, on inliers, the inlier-norm term
    # (sd ~ r*n*sqrt(2d)).  At d = n = 400 they put T only 1.68 sd from the
    # outliers and 1.63 sd from the inliers, about 20 misses per trial, and
    # the interval is empty (lo 39164 > hi 31445): the theorem's hypothesis
    # fails there.  Along d = n the margin grows only as r*sqrt(n)/6.  With
    # d and n of the same order, d = 400 and n = 2000, the margin is 6.9 sd
    # (outliers) and 5.0 sd (inliers), and T = 200200 lies inside the
    # interval [71374, 273887].
    d, n, r = 400, 2000, 0.5
    trials, needed = 50, 48
    threshold = d * (r * n + 1) / 2
    interval = threshold_interval(d, n, r, 1.0, 1.0)
    assert interval.lo < threshold < interval.hi, (
        f"T = {threshold} outside {interval}; the precondition does not hold"
    )
    cfg = MatchConfig(method="row_sum", threshold=threshold)
    t0 = time.perf_counter()
    zero_miss = 0
    for t in range(trials):
        pair = generate(ScenarioSpec(d=d, n=n, r=r, seed=derive_seed(20202, t)))
        h = build_overlap(pair.x, pair.y, PreprocessMode.NONE)
        part, _ = match(h, cfg)
        rep = error_rates(pair.inliers, part)
        if rep.missed_inliers + rep.missed_outliers == 0:
            zero_miss += 1
    elapsed = time.perf_counter() - t0
    ok = zero_miss >= needed and elapsed < 120.0
    report(
        2,
        "exact recovery",
        ok,
        f"zero-miss {zero_miss}/{trials}, need >= {needed}; elapsed {elapsed:.1f}s",
    )
    assert ok, f"zero-misclassification in {zero_miss}/{trials} trials; need {needed}"


def test_criterion_3_vanishing_inlier_regime():
    # Row sums with 2-means on column-normalized data at d = n, with
    # k_n = ceil(sqrt(n) * ln n) inliers: order sqrt(n) up to the log factor,
    # so the inlier fraction vanishes (0.300, 0.2375, 0.185).  Without the
    # log factor (k = 4*sqrt(n)) the statistic's signal-to-noise is about
    # k/sqrt(n + 2k), which does not grow with n: the exact 2-means optimum
    # gives 0.0339 at n = 400 and 0.0374 at n = 800, and even a threshold
    # chosen from the true labels reaches only 0.0177 at n = 400.  The
    # statistic S_i - d^2 sits on an offset of -d^2 (-2.56e6 at n = 1600)
    # while the values differ by well under 1, so the decreasing trend checks
    # too that the 2-means solver is exact in floating point at that offset.
    bound = 0.02
    t0 = time.perf_counter()
    means = []
    for n, trials in ((400, 50), (800, 25), (1600, 10)):
        k = math.ceil(math.sqrt(n) * math.log(n))
        errors = np.empty(trials)
        for t in range(trials):
            pair = generate(
                ScenarioSpec(d=n, n=n, r=k / n, seed=derive_seed(30303 + n, t))
            )
            h = build_overlap(pair.x, pair.y, PreprocessMode.CENTER_NORMALIZE)
            part, _ = match(h, MatchConfig(method="row_sum"))
            errors[t] = error_rates(pair.inliers, part).error_w
        means.append(float(errors.mean()))
    elapsed = time.perf_counter() - t0
    last_rate = k / n
    decreasing = means[0] > means[1] > means[2]
    ok = max(means) <= bound and decreasing and last_rate < 0.2
    report(
        3,
        "vanishing-inlier regime",
        ok,
        f"means {[f'{m:.4f}' for m in means]}, bound {bound}; "
        f"last rate {last_rate:.4f}; elapsed {elapsed:.0f}s",
    )
    assert ok, f"mean error_W {means} (bound {bound}, decreasing required)"


def test_criterion_4_eigenvector_weak_recovery():
    trials = 50
    cfg = MatchConfig(method="eigenvector", threshold=0.5)
    t0 = time.perf_counter()
    means = []
    for n in (200, 400, 800):
        errors = np.empty(trials)
        for t in range(trials):
            pair = generate(
                ScenarioSpec(d=n, n=n, r=0.5, seed=derive_seed(40404 + n, t))
            )
            h = build_overlap(pair.x, pair.y, PreprocessMode.NONE)
            part, _ = match(h, cfg)
            errors[t] = error_rates(pair.inliers, part).error_w
        means.append(float(errors.mean()))
    elapsed = time.perf_counter() - t0
    decreasing = means[0] > means[1] > means[2]
    ok = decreasing and means[2] <= 0.05 and elapsed < 300.0
    report(
        4,
        "eigenvector weak recovery",
        ok,
        f"means {[f'{m:.4f}' for m in means]}, elapsed {elapsed:.0f}s",
    )
    assert ok


# Pilot maxima from a 50-trial run at seed 50505 (this suite reruns the same
# seed, so values reproduce; the 1.5x headroom covers platform variation).
PILOT_RATIO_MAXIMA = {
    64: {"spectral": 0.956223, "inlier": 3.654587, "outlier": 3.112826},
    128: {"spectral": 0.561314, "inlier": 2.897373, "outlier": 2.567554},
    256: {"spectral": 0.509461, "inlier": 3.500505, "outlier": 2.538880},
}


def test_criterion_5_concentration_ratios():
    trials = 50
    ok = True
    details = []
    spectral_means = []
    for n in (64, 128, 256):
        stats = empirical_deviation(
            ScenarioSpec(d=n, n=n, r=0.5, seed=50505), trials=trials
        )
        pilot = PILOT_RATIO_MAXIMA[n]
        ok &= stats.spectral_max <= 1.5 * pilot["spectral"]
        ok &= stats.inlier_rows_max <= 1.5 * pilot["inlier"]
        ok &= stats.outlier_rows_max <= 1.5 * pilot["outlier"]
        spectral_means.append(stats.spectral_mean)
        details.append(f"n={n} spec_max {stats.spectral_max:.3f}")
    # the spectral-deviation ratio must not grow with n (20% slack)
    for a, b in zip(spectral_means, spectral_means[1:]):
        ok &= b <= 1.2 * a
    report(
        5,
        "concentration ratios",
        ok,
        "; ".join(details)
        + f"; spectral means {[f'{m:.3f}' for m in spectral_means]}",
    )
    assert ok


def _spearman(x, y) -> float:
    def ranks(v):
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        return r

    rx, ry = ranks(np.asarray(x)), ranks(np.asarray(y))
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / math.sqrt((rx @ rx) * (ry @ ry)))


def test_criterion_6_sensitivity_trends():
    r_grid = [0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90]
    rate_rows = run_rate_sweep(
        d=6, n=400, r_values=r_grid, trials=100, seed=60606, methods=ALL_METHODS
    )
    ok = True
    worst_bump = -1.0
    for m in ALL_METHODS:
        sel = sorted(
            (row for row in rate_rows if row["method"] == m),
            key=lambda row: row["value"],
        )
        for a, b in zip(sel, sel[1:]):
            bump = b["error_w_mean"] - a["error_w_mean"]
            worst_bump = max(worst_bump, bump)
            ok &= bump <= 0.01

    sigma2_grid = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0]
    noise_rows = run_noise_sweep(
        d=3,
        n=400,
        r=0.75,
        sigma2_values=sigma2_grid,
        trials=100,
        seed=61616,
        methods=ALL_METHODS,
    )
    min_rho = 1.0
    for m in ALL_METHODS:
        sel = sorted(
            (row for row in noise_rows if row["method"] == m),
            key=lambda row: row["value"],
        )
        rho = _spearman(
            [row["value"] for row in sel], [row["error_w_mean"] for row in sel]
        )
        min_rho = min(min_rho, rho)
        ok &= rho >= 0.9
    report(
        6,
        "sensitivity trends",
        ok,
        f"worst adjacent r-bump {worst_bump:+.4f} (slack 0.01); min spearman {min_rho:.3f}",
    )
    assert ok


def test_criterion_7_parallel_consistency():
    rows = run_splits_sweep(
        d=50,
        n=4000,
        r=0.8,
        split_values=[1, 2, 4],
        trials=3,
        seed=70707,
        methods=("rowsum:kmeans",),
        kind="gaussian_outliers",
        preprocess=PreprocessMode.NONE,
    )
    by_s = {int(row["value"]): row for row in rows}
    ok = True
    for s in (2, 4):
        ok &= abs(by_s[s]["error_w_mean"] - by_s[1]["error_w_mean"]) <= 0.02
    ok &= by_s[4]["time_ms_mean"] < by_s[1]["time_ms_mean"]

    # determinism: identical partitions across repeated runs and worker counts
    pair = generate(ScenarioSpec(d=50, n=4000, r=0.8, seed=derive_seed(70707, 0)))
    cfg = MatchConfig(method="row_sum")
    parts = [
        parallel_match(
            pair.x, pair.y, 4, cfg, PreprocessMode.NONE, 70707, max_workers=w
        ).partition
        for w in (1, 2, 2)
    ]
    ok &= parts[0] == parts[1] == parts[2]
    report(
        7,
        "parallel consistency",
        ok,
        f"err_w by s {{1: {by_s[1]['error_w_mean']:.4f}, 2: {by_s[2]['error_w_mean']:.4f}, "
        f"4: {by_s[4]['error_w_mean']:.4f}}}; time ms {by_s[1]['time_ms_mean']:.0f} -> "
        f"{by_s[4]['time_ms_mean']:.0f}",
    )
    assert ok


def _direct_sse(values, mask):
    out = 0.0
    for part in (values[mask], values[~mask]):
        mu = part.mean()
        out += float(((part - mu) ** 2).sum())
    return out


def test_criterion_8_invariant_suite():
    rng = np.random.default_rng(80808)
    ok = True

    # symmetry + PSD of the overlap matrix on 100 random instances
    for _ in range(100):
        d = int(rng.integers(1, 20))
        n = int(rng.integers(2, 129))
        mode = (
            PreprocessMode.NONE
            if rng.integers(2) == 0 or d == 1
            else PreprocessMode.CENTER_NORMALIZE
        )
        h = build_overlap(
            rng.standard_normal((d, n)), rng.standard_normal((d, n)), mode
        )
        ok &= bool(np.array_equal(h.h, h.h.T))
        values, _ = dense_eig(h.h)
        ok &= values.min() >= -1e-8 * max(spectral_norm(h.h), 1e-30)
    sym_psd_ok = ok

    # orthogonal invariance of the overlap build
    def haar(d, g):
        q, r = np.linalg.qr(g.standard_normal((d, d)))
        s = np.sign(np.diag(r))
        s[s == 0] = 1.0
        return q * s

    for _ in range(10):
        d, n = int(rng.integers(2, 10)), int(rng.integers(4, 40))
        x = rng.standard_normal((d, n))
        y = rng.standard_normal((d, n))
        base = build_overlap(x, y, PreprocessMode.NONE).h
        rotated = build_overlap(
            haar(d, rng) @ x, haar(d, rng) @ y, PreprocessMode.NONE
        ).h
        ok &= float(np.max(np.abs(base - rotated))) <= 1e-9 * np.abs(base).max()

    # 2-means shift/scale invariance on 1000 scalar sets.  Values lie on the
    # dyadic grid 2^-20 and shifts are integers up to 1e8 in magnitude, so
    # every shifted value is exact in float64 and the check is of the solver,
    # not of input rounding; the odd cases use the row-sum shift -d^2.
    for case in range(1000):
        n = int(rng.integers(2, 30))
        values = rng.standard_normal(n) * rng.uniform(0.1, 50)
        values = np.ldexp(np.rint(np.ldexp(values, 20)), -20)
        if values.max() - values.min() <= 1e-9:
            continue
        base = two_means_partition(values)
        shift = (
            float(np.rint(rng.uniform(-1e4, 1e4) * 1e4))
            if case % 2 == 0
            else -float(rng.integers(1, 10**4)) ** 2
        )
        shifted = two_means_partition(values + shift)
        scaled = two_means_partition(values * rng.uniform(1e-3, 1e3))
        ok &= shifted == base and scaled == base

    # exact 2-means equals the exhaustive bipartition optimum (n <= 12)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        values = rng.standard_normal(n)
        part = two_means_partition(values)
        got = _direct_sse(values, part.inlier_mask())
        best = math.inf
        for size in range(1, n):
            for subset in combinations(range(n), size):
                mask = np.zeros(n, dtype=bool)
                mask[list(subset)] = True
                if values[mask].mean() <= values[~mask].mean():
                    continue
                best = min(best, _direct_sse(values, mask))
        ok &= got == best

    # exact weighted-error identity on 1000 random partitions
    from fractions import Fraction

    for _ in range(1000):
        n = int(rng.integers(2, 60))
        k = int(rng.integers(1, n))
        truth = rng.choice(n, size=k, replace=False)
        est = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        rep = error_rates(truth, LabelPartition(np.isin(np.arange(n), est)))
        eg = Fraction(rep.missed_inliers, rep.n_inliers)
        eb = Fraction(rep.missed_outliers, rep.n_outliers)
        ew = Fraction(rep.missed_inliers + rep.missed_outliers, rep.n)
        ok &= (rep.n_inliers * eg + rep.n_outliers * eb) / rep.n == ew

    # permutation equivariance of both matchers on 20 seeded instances
    for trial in range(20):
        pair = generate(
            ScenarioSpec(d=128, n=128, r=0.5, seed=derive_seed(81818, trial))
        )
        sigma = np.random.default_rng(trial).permutation(128)
        for cfg in (
            MatchConfig(method="eigenvector"),
            MatchConfig(method="eigenvector", threshold=0.5),
            MatchConfig(method="row_sum"),
            MatchConfig(method="row_sum", threshold="auto", inlier_rate=0.5),
        ):
            h = build_overlap(pair.x, pair.y, PreprocessMode.NONE)
            base, _ = match(h, cfg)
            hp = build_overlap(pair.x[:, sigma], pair.y[:, sigma], PreprocessMode.NONE)
            permuted, _ = match(hp, cfg)
            ok &= bool(
                np.array_equal(permuted.inlier_mask(), base.inlier_mask()[sigma])
            )

    report(
        8,
        "invariant suite",
        ok,
        f"symmetry/PSD {sym_psd_ok}; all invariant families checked",
    )
    assert ok


PIXELS_A = [(111, 241, 158), (245, 68, 165), (100, 222, 130), (206, 108, 141)]
PIXEL_3_PERMUTED = (108, 206, 141)


def test_criterion_9_cli_end_to_end(tmp_path):
    ok = True

    # gen -> match -> eval reproduces module-level results exactly
    data = tmp_path / "data"
    assert (
        run_cli(
            f"gen --d 50 --n 100 --r 0.8 --kind gaussian_outliers --seed 11 "
            f"--out {data}".split()
        )
        == 0
    )
    x = read_matrix_csv(data / "X.csv")
    y = read_matrix_csv(data / "Y.csv")
    truth = read_labels(data / "labels.csv")
    raw_threshold = 50 * (0.8 * 100 + 1) / 2
    cases = [
        (
            "--method eig --threshold 0.5 --preprocess cn",
            PreprocessMode.CENTER_NORMALIZE,
            MatchConfig(method="eigenvector", threshold=0.5),
        ),
        (
            "--method eig --kmeans --preprocess cn",
            PreprocessMode.CENTER_NORMALIZE,
            MatchConfig(method="eigenvector"),
        ),
        (
            f"--method rowsum --threshold {raw_threshold} --preprocess none",
            PreprocessMode.NONE,
            MatchConfig(method="row_sum", threshold=raw_threshold),
        ),
        (
            "--method rowsum --kmeans --preprocess cn",
            PreprocessMode.CENTER_NORMALIZE,
            MatchConfig(method="row_sum"),
        ),
    ]
    import io
    from contextlib import redirect_stdout

    for i, (flags, mode, cfg) in enumerate(cases):
        out = tmp_path / f"m{i}"
        code = run_cli(
            f"match {data/'X.csv'} {data/'Y.csv'} {flags} --out {out}".split()
        )
        ok &= code == 0
        cli_part = read_partition_csv(out / "partition.csv")
        h = build_overlap(x, y, mode)
        module_part, _ = match(h, cfg)
        ok &= cli_part == module_part
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = run_cli(
                ["eval", str(out / "partition.csv"), str(data / "labels.csv")]
            )
        ok &= code == 0
        rep = error_rates(truth, module_part)
        expected_line = f"{rep.error_g:.6f},{rep.error_b:.6f},{rep.error_w:.6f}"
        ok &= buffer.getvalue().strip() == expected_line

    # imgdiff on the 4-pixel image highlights exactly the permuted pixel
    img_a = np.array(PIXELS_A, dtype=np.uint8).reshape(2, 2, 3)
    img_b = img_a.copy()
    img_b[1, 1] = PIXEL_3_PERMUTED
    path_a, path_b = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_ppm(path_a, img_a)
    write_ppm(path_b, img_b)
    out = tmp_path / "diff"
    code = run_cli(
        f"imgdiff {path_a} {path_b} --method rowsum --kmeans --preprocess cn "
        f"--out {out}".split()
    )
    ok &= code == 0
    mask = read_ppm(out / "mask.ppm")
    floats = img_a.astype(np.float64)
    luma = np.rint(
        0.299 * floats[..., 0] + 0.587 * floats[..., 1] + 0.114 * floats[..., 2]
    ).astype(np.uint8)
    expected = np.repeat(luma[:, :, None], 3, axis=2)
    expected[1, 1] = (255, 255, 0)
    ok &= bool(np.array_equal(mask, expected))
    diag = json.loads((out / "diagnostics.json").read_text())
    ok &= diag["n_highlighted"] == 1

    report(9, "CLI end-to-end", ok, "gen/match/eval equivalence + imgdiff mask")
    assert ok
