"""Matchers, the exact 1-D 2-means solver, error metrics, threshold interval."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from gramoverlap import (
    DegenerateValuesError,
    ErrorReport,
    LabelPartition,
    MatchConfig,
    OverlapMatrix,
    PopulationModel,
    PreprocessMode,
    ScenarioSpec,
    build_overlap,
    error_rates,
    generate,
    match,
    population_overlap,
    preprocess,
    threshold_interval,
    two_means_1d,
)
from gramoverlap import linalg
from gramoverlap.synth import derive_seed


def as_overlap(h, d):
    return OverlapMatrix(np.asarray(h, dtype=float), d=d)


def population_h(d, n, k):
    m = PopulationModel(d=d, n=n, inliers=np.arange(k))
    return as_overlap(population_overlap(m), d)


def direct_sse(values, inlier_mask):
    lo = values[~inlier_mask]
    hi = values[inlier_mask]
    out = 0.0
    for part in (lo, hi):
        mu = part.mean()
        out += float(((part - mu) ** 2).sum())
    return out


def parent_two_means_1d(values):
    """The reference: two_means_1d before its reductions were called
    directly (np.concatenate prefix sums, .mean() centroids)."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("values must be 1-D")
    n = v.size
    if n < 2:
        raise ValueError("need at least two values")
    if not np.all(np.isfinite(v)):
        raise ValueError("values contain non-finite entries")
    order = np.argsort(v, kind="stable")
    s = v[order]
    c = s - s[n // 2]
    if float(c[-1] - c[0]) <= 16 * np.spacing(max(-s[0], s[-1])):
        raise DegenerateValuesError("all values equal; no 2-cluster split exists")
    ps = np.concatenate([[0.0], np.cumsum(c)])
    pq = np.concatenate([[0.0], np.cumsum(c * c)])
    m = np.arange(1, n, dtype=np.float64)
    upper_sum = ps[n] - ps[1:n]
    costs = (pq[1:n] - ps[1:n] * ps[1:n] / m) + (
        (pq[n] - pq[1:n]) - upper_sum * upper_sum / (n - m)
    )
    k = int(np.argmin(costs)) + 1
    low, high = float(s[:k].mean()), float(s[k:].mean())
    partition = LabelPartition.from_inliers(n, order[k:])
    return partition, (low, high)


def allocating_two_means_1d(values):
    """The reference: two_means_1d while its split costs were one expression
    that allocated a temporary per operation."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("values must be 1-D")
    n = v.size
    if n < 2:
        raise ValueError("need at least two values")
    if not np.isfinite(v).all():
        raise ValueError("values contain non-finite entries")
    order = v.argsort(kind="stable")
    s = v[order]
    c = s - s[n // 2]
    if float(c[-1] - c[0]) <= 16 * np.spacing(max(-s[0], s[-1])):
        raise DegenerateValuesError("all values equal; no 2-cluster split exists")
    ps = np.empty(n + 1)
    pq = np.empty(n + 1)
    ps[0] = pq[0] = 0.0
    np.add.accumulate(c, out=ps[1:])
    np.add.accumulate(c * c, out=pq[1:])
    m = np.arange(1, n, dtype=np.float64)
    upper_sum = ps[n] - ps[1:n]
    costs = (pq[1:n] - ps[1:n] * ps[1:n] / m) + (
        (pq[n] - pq[1:n]) - upper_sum * upper_sum / (n - m)
    )
    k = int(costs.argmin()) + 1
    low = float(np.add.reduce(s[:k]) / k)
    high = float(np.add.reduce(s[k:]) / (n - k))
    mask = np.zeros(n, dtype=bool)
    mask[order[k:]] = True
    return LabelPartition(mask), (low, high)


def two_means_outcome(fn, values):
    """Everything a 2-means call returns, in a form whose equality means
    equal bits, or the type and message of what it raised."""
    try:
        part, centroids = fn(values)
    except ValueError as exc:
        return type(exc), str(exc)
    return (
        part.n,
        part.inliers.dtype,
        part.inliers.tolist(),
        part.outliers.dtype,
        part.outliers.tolist(),
        [repr(c) for c in centroids],
    )


class TestTwoMeans:
    def test_matches_the_parent_solver(self):
        rng = np.random.default_rng(1010)
        cases = [
            np.array([0.0, 1.0]),
            np.array([1.0, 0.0]),
            np.array([-0.0, 0.0]),
            np.full(7, 3.0),
            np.full(2, -1e6),
            np.array([1.0]),
            np.array([1.0, np.inf]),
            np.array([[1.0, 2.0], [3.0, 4.0]]),
            [0.5, 0.5, 2.0, 2.0],
        ]
        for _ in range(200):
            n = int(rng.choice([2, 3, int(rng.integers(2, 600))]))
            v = rng.standard_normal(n)
            if rng.random() < 0.3:  # ties: few distinct values
                v = rng.integers(0, 4, n).astype(float)
            if rng.random() < 0.5:
                v = v + 1e6
            v = np.ldexp(v, int(rng.integers(-40, 41)))
            cases += [v, v.tolist()]
        outcomes = set()
        for v in cases:
            want = two_means_outcome(parent_two_means_1d, v)
            assert two_means_outcome(two_means_1d, v) == want
            outcomes.add(want[0] if isinstance(want[0], type) else "split")
        # a split, a degenerate input and an invalid one were all compared
        assert outcomes == {"split", DegenerateValuesError, ValueError}

    @pytest.mark.parametrize("n", [2, 3, 400, 4000])
    def test_in_place_split_costs_match_the_allocating_ones(self, n):
        rng = np.random.default_rng(derive_seed(1919, n))
        cases = []
        for _ in range(20):
            normal = rng.standard_normal(n)
            ties = rng.integers(0, 4, n).astype(float)
            cases += [normal, ties, 1e12 + normal, 1e12 + ties]
        splits = 0
        for v in cases:
            want = two_means_outcome(allocating_two_means_1d, v)
            assert two_means_outcome(two_means_1d, v) == want
            splits += not isinstance(want[0], type)
        assert splits > len(cases) // 2

    def test_two_cluster_data(self):
        part, centroids = two_means_1d(np.array([0.0, 0.1, 0.9, 1.0]))
        assert np.array_equal(part.inliers, [2, 3])
        assert centroids == (0.05, 0.95)

    def test_isolated_point(self):
        part, _ = two_means_1d(np.array([0.0, 0.0, 10.0]))
        assert np.array_equal(part.inliers, [2])

    def test_exact_tie_prefers_larger_upper_cluster(self):
        # both splits of {0, 0.5, 1} cost exactly 0.125
        part, _ = two_means_1d(np.array([0.0, 0.5, 1.0]))
        assert np.array_equal(part.inliers, [1, 2])

    def test_matches_exhaustive_bipartition_oracle(self):
        rng = np.random.default_rng(606)
        for case in range(100):
            n = int(rng.integers(2, 13))
            values = rng.standard_normal(n) * rng.uniform(0.5, 10)
            part, _ = two_means_1d(values)
            got = direct_sse(values, part.inlier_mask())
            # oracle: every nonempty proper subset as the upper cluster
            best = math.inf
            best_sizes = []
            for size in range(1, n):
                for subset in combinations(range(n), size):
                    mask = np.zeros(n, dtype=bool)
                    mask[list(subset)] = True
                    if values[mask].mean() <= values[~mask].mean():
                        continue  # label clusters by centroid order
                    sse = direct_sse(values, mask)
                    if sse < best:
                        best, best_sizes = sse, [size]
                    elif sse == best:
                        best_sizes.append(size)
            assert got == best
            assert part.inliers.size == max(best_sizes)

    def test_shift_and_positive_scale_invariance(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            values = rng.standard_normal(n) * 5
            base, _ = two_means_1d(values)
            shifted, _ = two_means_1d(values + rng.uniform(-100, 100))
            scaled, _ = two_means_1d(values * rng.uniform(0.01, 100))
            assert base == shifted
            assert base == scaled

    def test_exact_shift_invariance_at_large_offsets(self):
        # two overlapping clusters on the dyadic grid 2^-10: v + c is exact in
        # float64 for every integer offset c below, so any change of
        # partition comes from the solver and not from input rounding
        rng = np.random.default_rng(2718)
        low = rng.integers(0, 3 * 2**10, size=60) / 2**10
        high = 2.5 + rng.integers(0, 3 * 2**10, size=40) / 2**10
        values = np.concatenate([low, high])
        base, _ = two_means_1d(values)
        assert 0 < base.inliers.size < values.size
        for c in [0, 1, 3, 10**4, 12345, 10**6, 2**24 + 1, 10**7, 98765432, 10**8]:
            assert np.array_equal(values + c - c, values)
            shifted, _ = two_means_1d(values + c)
            assert shifted == base, f"partition moved at offset {c}"

    def test_matches_direct_sse_optimum_on_offset_row_sums(self):
        # a statistic shaped like the column-normalized row sums at
        # d = n = 1600: values near 1 with spread ~0.05, shifted by -d^2
        rng = np.random.default_rng(1600)
        d, n, k = 1600, 400, 80
        sums = 1.0 + 0.05 * rng.standard_normal(n)
        sums[:k] += 0.12
        h = as_overlap(np.diag(sums), d=d)
        part, _ = match(h, MatchConfig(method="row_sum"))
        stat = h.row_sums() - float(d) ** 2
        assert stat.max() < -1e6
        order = np.argsort(stat, kind="stable")
        best, best_mask = math.inf, None
        for split in range(1, n):
            mask = np.zeros(n, dtype=bool)
            mask[order[split:]] = True
            sse = direct_sse(stat, mask)
            if sse < best:
                best, best_mask = sse, mask
        assert np.array_equal(part.inlier_mask(), best_mask)

    def test_degenerate_all_equal(self):
        with pytest.raises(DegenerateValuesError):
            two_means_1d(np.full(5, 3.0))
        with pytest.raises(DegenerateValuesError):
            two_means_1d(np.array([1e6, 1e6 + 1e-9]))

    def test_degeneracy_bound_follows_the_values(self):
        # two dyadic pairs with a 2^-20 gap: every shifted value below is
        # exact, and at 1e8 the spread is still 72 ulps of the values, so the
        # pairs split at every offset
        pairs = np.array([0.0, 2.0**-23, 2.0**-20, 2.0**-20 + 2.0**-23])
        base, _ = two_means_1d(pairs)
        assert np.array_equal(base.inliers, [2, 3])
        for c in [1, 10**4, 10**6, 10**8]:
            assert np.array_equal(pairs + c - c, pairs)
            shifted, _ = two_means_1d(pairs + c)
            assert shifted == base, f"partition moved at offset {c}"
        # scaling by a power of two never decides whether input raises
        near_tie = np.array([1.0, 1.0 + 8 * 2.0**-52])
        for e in (-400, -40, 0, 40, 400):
            scaled, _ = two_means_1d(np.ldexp(pairs, e))
            assert scaled == base, f"partition moved at scale 2^{e}"
            with pytest.raises(DegenerateValuesError):
                two_means_1d(np.ldexp(near_tie, e))
        # a pair 2^-30 apart splits until the offset puts it within 16 ulps
        tie = np.array([0.0, 2.0**-30])
        for c in [0, 1, 10**4]:
            part, _ = two_means_1d(tie + c)
            assert np.array_equal(part.inliers, [1])
        with pytest.raises(DegenerateValuesError):
            two_means_1d(tie + 10**6)  # 8 ulps of 1e6

    def test_input_validation(self):
        with pytest.raises(ValueError):
            two_means_1d(np.array([1.0]))
        with pytest.raises(ValueError):
            two_means_1d(np.array([1.0, np.nan]))


class TestMatchConfig:
    def test_threshold_and_two_means_conflict(self):
        with pytest.raises(ValueError):
            MatchConfig(method="row_sum", threshold=1.0, use_two_means=True)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            MatchConfig(method="row_sum", threshold=0.0, use_two_means=False)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            MatchConfig(method="magic")

    def test_inlier_rate_range(self):
        with pytest.raises(ValueError):
            MatchConfig(method="row_sum", inlier_rate=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(method="row_sum"),
            dict(method="row_sum", threshold=2.0, use_two_means=False),
            dict(method="eigenvector"),
            dict(method="eigenvector", use_two_means=False),
            dict(method="eigenvector", threshold=0.5, use_two_means=False),
        ],
    )
    def test_inlier_rate_no_rule_reads_is_refused(self, kwargs):
        with pytest.raises(ValueError, match="reads inlier_rate"):
            MatchConfig(inlier_rate=0.5, **kwargs)
        assert MatchConfig(**kwargs).inlier_rate is None

    def test_inlier_rate_of_the_row_sum_default(self):
        cfg = MatchConfig(method="row_sum", use_two_means=False, inlier_rate=0.5)
        assert cfg.reads_inlier_rate and cfg.inlier_rate == 0.5
        # the one config that reads a rate still refuses one outside (0, 1)
        for rate in (0.0, 1.0, -0.5, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"must be in \(0, 1\)"):
                MatchConfig(method="row_sum", use_two_means=False, inlier_rate=rate)


class TestEigenvectorMatch:
    def test_threshold_arithmetic(self):
        v = np.array([0.70, 0.71, 0.05, 0.04])
        h = as_overlap(np.outer(v, v), d=4)
        cfg = MatchConfig(method="eigenvector", threshold=0.5, use_two_means=False)
        part, diag = match(h, cfg)
        assert np.array_equal(part.inliers, [0, 1])
        assert diag.branch == "threshold"
        assert abs(diag.threshold - 0.25) <= 1e-15

    def test_population_threshold_recovers_exactly(self):
        h = population_h(d=30, n=24, k=12)
        cfg = MatchConfig(method="eigenvector", threshold=0.5, use_two_means=False)
        part, diag = match(h, cfg)
        assert np.array_equal(part.inliers, np.arange(12))
        assert diag.converged

    def test_population_two_means_recovers_exactly(self):
        h = population_h(d=30, n=24, k=12)
        cfg = MatchConfig(method="eigenvector", use_two_means=True)
        part, _ = match(h, cfg)
        assert np.array_equal(part.inliers, np.arange(12))

    def test_population_recovery_grid_both_methods(self):
        # expected overlap matrix: both 2-means matchers recover the true set
        # for any layout, including the extreme counts 2 and n-2
        for d, n, k in [(1, 6, 2), (3, 8, 6), (7, 40, 2), (7, 40, 38), (12, 31, 15)]:
            h = population_h(d=d, n=n, k=k)
            for method in ("eigenvector", "row_sum"):
                part, _ = match(h, MatchConfig(method=method))
                assert np.array_equal(part.inliers, np.arange(k)), (d, n, k, method)

    def test_degenerate_statistic_falls_back_to_all_outliers(self):
        h = as_overlap(np.eye(6), d=3)
        cfg = MatchConfig(method="eigenvector", use_two_means=True)
        part, diag = match(h, cfg)
        assert part.inliers.size == 0
        assert diag.degenerate
        assert diag.warnings

    def test_default_threshold_is_half(self):
        h = population_h(d=10, n=20, k=10)
        explicit = MatchConfig(method="eigenvector", threshold=0.5, use_two_means=False)
        implicit = MatchConfig(method="eigenvector", use_two_means=False)
        assert match(h, explicit)[0] == match(h, implicit)[0]

    def test_factored_backend_never_forms_h(self, monkeypatch):
        # 4 d^2 <= n: the eigenvector comes from the d^2-by-d^2 Khatri-Rao
        # Gram, so an overlap made from the factors never computes an n-by-n
        # Gram matrix (and never forms H)
        pair = generate(ScenarioSpec(d=4, n=400, r=0.8, seed=derive_seed(515, 0)))
        mode = PreprocessMode.CENTER_NORMALIZE
        h = OverlapMatrix(xp=preprocess(pair.x, mode), yp=preprocess(pair.y, mode))

        def no_gram(x):
            raise AssertionError("gram called on the factored path")

        monkeypatch.setattr(linalg, "gram", no_gram)
        for cfg in (
            MatchConfig(method="eigenvector"),
            MatchConfig(method="eigenvector", threshold=0.5, use_two_means=False),
        ):
            part, diag = match(h, cfg)
            assert diag.eig_backend == "gram_factor"
            assert diag.iterations == 0 and diag.converged
            assert error_rates(pair.inliers, part).error_w <= 0.1
        with pytest.raises(AssertionError):
            h.h

    def test_monte_carlo_weak_recovery(self):
        # pilot-calibrated: at d = n = 600, r = 0.8, raw data, t = 0.5 the
        # overall error is below 0.05 in at least 9 of 10 seeded trials
        cfg = MatchConfig(
            method="eigenvector",
            threshold=0.5,
            use_two_means=False,
        )
        hits = 0
        for trial in range(10):
            spec = ScenarioSpec(
                d=600, n=600, r=0.8, kind="gaussian_outliers",
                seed=derive_seed(8101, trial),
            )
            pair = generate(spec)
            h = build_overlap(pair.x, pair.y, PreprocessMode.NONE)
            part, _ = match(h, cfg)
            report = error_rates(pair.inliers, part)
            if report.error_w <= 0.05:
                hits += 1
        assert hits >= 9


class TestRowSumMatch:
    def test_population_fixed_threshold_recovers_exactly(self):
        h = population_h(d=10, n=20, k=10)
        shifted = h.row_sums() - 100.0
        assert np.array_equal(shifted[:10], np.full(10, 110.0))
        assert np.array_equal(shifted[10:], np.zeros(10))
        cfg = MatchConfig(method="row_sum", threshold=55.0, use_two_means=False)
        part, diag = match(h, cfg)
        assert np.array_equal(part.inliers, np.arange(10))
        assert diag.threshold == 55.0

    def test_threshold_arithmetic(self):
        # shifted row sums (110, 108, 2, -1) against T = 55
        h = as_overlap(np.diag([210.0, 208.0, 102.0, 99.0]), d=10)
        cfg = MatchConfig(method="row_sum", threshold=55.0, use_two_means=False)
        part, _ = match(h, cfg)
        assert np.array_equal(part.inliers, [0, 1])

    def test_population_two_means_recovers_exactly(self):
        h = population_h(d=10, n=20, k=10)
        part, diag = match(h, MatchConfig(method="row_sum"))
        assert np.array_equal(part.inliers, np.arange(10))
        assert diag.centroid_gap == 110.0

    def test_default_threshold_uses_rate_and_size(self):
        h = population_h(d=10, n=20, k=10)
        cfg = MatchConfig(method="row_sum", use_two_means=False, inlier_rate=0.5)
        part, diag = match(h, cfg)
        assert diag.threshold == 10 * (0.5 * 20 + 1) / 2  # 55
        assert np.array_equal(part.inliers, np.arange(10))

    def test_default_threshold_requires_rate(self):
        h = population_h(d=10, n=20, k=10)
        with pytest.raises(ValueError):
            match(h, MatchConfig(method="row_sum", use_two_means=False))

    def test_shift_applied_after_normalization_harmless_for_two_means(self):
        rng = np.random.default_rng(55)
        x = rng.standard_normal((8, 40))
        rot, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        y = np.empty_like(x)
        y[:, :24] = rot @ x[:, :24]
        y[:, 24:] = rng.standard_normal((8, 16))
        h = build_overlap(x, y, PreprocessMode.CENTER_NORMALIZE)
        part, _ = match(h, MatchConfig(method="row_sum"))
        unshifted, _ = two_means_1d(h.row_sums())
        assert part == unshifted

    def test_degenerate_statistic_falls_back_to_all_outliers(self):
        h = as_overlap(np.eye(4), d=1)
        part, diag = match(h, MatchConfig(method="row_sum"))
        assert part.inliers.size == 0
        assert diag.degenerate

    def test_raw_data_in_small_units_still_splits(self):
        # coordinates scaled by 2^-10 without preprocessing scale the row sums
        # by 2^-40, so the statistic is -d^2 plus about 1e-9; its spread is
        # still far above the rounding of -d^2 and it splits as before
        pair = generate(
            ScenarioSpec(d=3, n=400, r=0.7, kind="gaussian_outliers", seed=808)
        )
        cfg = MatchConfig(method="row_sum")
        ref, _ = match(build_overlap(pair.x, pair.y, "none"), cfg)
        small = build_overlap(np.ldexp(pair.x, -10), np.ldexp(pair.y, -10), "none")
        part, diag = match(small, cfg)
        assert not diag.degenerate
        assert diag.stat_max - diag.stat_min < 1e-8
        assert part == ref

    def test_factored_row_sums_give_the_dense_partition(self):
        # at 2 d < n an overlap made from the factors takes its row sums from
        # them, one pinned to the dense backend from H; both rules agree
        mode = PreprocessMode.CENTER_NORMALIZE
        for trial in range(5):
            pair = generate(
                ScenarioSpec(d=6, n=400, r=0.7, seed=derive_seed(616, trial))
            )
            eager = build_overlap(pair.x, pair.y, mode, backend="dense")
            xp, yp = preprocess(pair.x, mode), preprocess(pair.y, mode)
            lazy = OverlapMatrix(xp=xp, yp=yp)
            for cfg in (
                MatchConfig(method="row_sum"),
                MatchConfig(method="row_sum", use_two_means=False, inlier_rate=0.7),
            ):
                part, diag = match(lazy, cfg)
                ref, ref_diag = match(eager, cfg)
                assert diag.row_sum_backend == "gram_factor"
                assert ref_diag.row_sum_backend == "dense"
                assert part == ref


class TestMatchDispatch:
    def test_dispatches_by_method(self):
        h = population_h(d=10, n=20, k=10)
        p1, d1 = match(h, MatchConfig(method="eigenvector"))
        p2, d2 = match(h, MatchConfig(method="row_sum"))
        assert d1.method == "eigenvector" and d2.method == "row_sum"
        assert p1 == p2

    def test_permutation_equivariance(self):
        for trial in range(6):
            spec = ScenarioSpec(
                d=128, n=128, r=0.5, kind="gaussian_outliers",
                seed=derive_seed(2024, trial),
            )
            pair = generate(spec)
            sigma = np.random.default_rng(trial).permutation(spec.n)
            for cfg in (
                MatchConfig(method="eigenvector", use_two_means=True),
                MatchConfig(method="eigenvector", threshold=0.5, use_two_means=False),
                MatchConfig(method="row_sum", use_two_means=True),
                MatchConfig(
                    method="row_sum", use_two_means=False, inlier_rate=0.5
                ),
            ):
                h = build_overlap(pair.x, pair.y, PreprocessMode.NONE)
                base, _ = match(h, cfg)
                hp = build_overlap(
                    pair.x[:, sigma], pair.y[:, sigma], PreprocessMode.NONE
                )
                permuted, _ = match(hp, cfg)
                base_mask = base.inlier_mask()
                assert np.array_equal(permuted.inlier_mask(), base_mask[sigma])



# diagnostics of ``match`` on population_h(d=3, n=10, k=4), recorded before
# the eigenvector and row-sum matchers were folded into it
_EIG_DIAG = {
    "method": "eigenvector", "branch": "threshold", "n": 10,
    "stat_min": 2.9903390334645934e-11, "stat_max": 0.5, "threshold": None,
    "centroids": None, "centroid_gap": None, "degenerate": False,
    "leading_eigenvalue": 24.0, "eig_backend": "power_iteration",
    "row_sum_backend": None, "residual": 1.0987207184873526e-09,
    "iterations": 25, "converged": True, "warnings": [],
}
_ROW_SUM_DIAG = {
    "method": "row_sum", "branch": "threshold", "n": 10,
    "stat_min": 0.0, "stat_max": 15.0, "threshold": None,
    "centroids": None, "centroid_gap": None, "degenerate": False,
    "leading_eigenvalue": None, "eig_backend": None,
    "row_sum_backend": "dense", "residual": None,
    "iterations": None, "converged": None, "warnings": [],
}
_CONSTANT_WARNING = (
    "statistic is constant; no cluster split exists; labeling all points as "
    "outliers"
)
_FLIP_EIG_DIAG = {
    "method": "eigenvector", "branch": "two_means", "n": 2,
    "stat_min": 0.7071067811865475, "stat_max": 0.7071067811865475,
    "threshold": None, "centroids": None, "centroid_gap": None,
    "degenerate": True, "leading_eigenvalue": -2.2371143170757382e-17,
    "eig_backend": "power_iteration", "row_sum_backend": None,
    "residual": 0.9999999999999999, "iterations": 1000, "converged": False,
    "warnings": [
        "power_iteration eigenpair did not reach tolerance after 1000 "
        "iterations (residual 1.000e+00)",
        _CONSTANT_WARNING,
    ],
}


class TestMatchRecorded:
    """Partitions and diagnostics equal values recorded before the two
    matchers became one; floats are compared by ``repr``."""

    @staticmethod
    def check(h, cfg, mask, diag):
        part, got = match(h, cfg)
        assert part.inlier_mask().tolist() == mask
        assert repr(got.to_dict()) == repr(diag)

    @pytest.mark.parametrize(
        "cfg, diag",
        [
            (
                MatchConfig(method="eigenvector", threshold=0.9, use_two_means=False),
                dict(_EIG_DIAG, threshold=0.2846049894151541),
            ),
            (
                MatchConfig(method="eigenvector", use_two_means=False),
                dict(_EIG_DIAG, threshold=0.15811388300841897),
            ),
            (
                MatchConfig(method="eigenvector"),
                dict(
                    _EIG_DIAG, branch="two_means",
                    centroids=[2.990339033464593e-11, 0.5],
                    centroid_gap=0.4999999999700966,
                ),
            ),
            (
                MatchConfig(method="row_sum", threshold=7.0, use_two_means=False),
                dict(_ROW_SUM_DIAG, threshold=7.0),
            ),
            (
                MatchConfig(method="row_sum", use_two_means=False, inlier_rate=0.4),
                dict(_ROW_SUM_DIAG, threshold=7.5),
            ),
            (
                MatchConfig(method="row_sum"),
                dict(
                    _ROW_SUM_DIAG, branch="two_means", centroids=[0.0, 15.0],
                    centroid_gap=15.0,
                ),
            ),
        ],
        ids=[
            "eig-threshold", "eig-default", "eig-kmeans",
            "rowsum-threshold", "rowsum-default", "rowsum-kmeans",
        ],
    )
    def test_population_instance(self, cfg, diag):
        h = population_h(d=3, n=10, k=4)
        self.check(h, cfg, [True] * 4 + [False] * 6, diag)

    def test_constant_statistic_takes_the_fallback(self):
        h = as_overlap(np.eye(4), d=1)
        fallback = dict(
            branch="two_means", n=4, degenerate=True, warnings=[_CONSTANT_WARNING]
        )
        self.check(
            h, MatchConfig(method="eigenvector"), [False] * 4,
            dict(
                _EIG_DIAG, **fallback, stat_min=0.5, stat_max=0.5,
                leading_eigenvalue=1.0, residual=0.0, iterations=1,
            ),
        )
        self.check(
            h, MatchConfig(method="row_sum"), [False] * 4,
            dict(_ROW_SUM_DIAG, **fallback, stat_max=0.0),
        )

    def test_unconverged_eigenpair_warns_first(self):
        h = as_overlap([[1.0, 0.0], [0.0, -1.0]], d=1)
        self.check(h, MatchConfig(method="eigenvector"), [False, False], _FLIP_EIG_DIAG)
        self.check(
            h,
            MatchConfig(method="eigenvector", use_two_means=False),
            [True, True],
            dict(
                _FLIP_EIG_DIAG, branch="threshold", threshold=0.35355339059327373,
                degenerate=False, warnings=_FLIP_EIG_DIAG["warnings"][:1],
            ),
        )

class TestThresholdInterval:
    def test_zero_constants_degenerate_to_population_gap(self):
        iv = threshold_interval(d=10, n=20, r=0.5, c1=0.0, c2=0.0)
        assert iv.lo == 0.0
        assert iv.hi == 10 * (0.5 * 20 + 1)
        assert not iv.empty

    def test_direct_evaluation(self):
        iv = threshold_interval(d=100, n=100, r=0.9, c1=1.0, c2=1.0)
        logn = math.log(100)
        lo = 100 * math.sqrt(logn) * (10 + 10)
        hi = 100 * 91 - math.sqrt(100 * logn) * (100 + 100 + 90)
        assert iv.lo == lo and abs(lo - 4291.932052578694) < 1e-9
        assert iv.hi == hi and abs(hi - 2876.6985237608933) < 1e-9
        assert iv.empty

    def test_hi_monotone_in_rate(self):
        d, n, c1 = 50, 200, 0.5
        grid = [k / n for k in range(1, n, 7)]
        his = [threshold_interval(d, n, r, c1, 1.0).hi for r in grid]
        assert all(b > a for a, b in zip(his, his[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            threshold_interval(d=0, n=10, r=0.5, c1=1.0, c2=1.0)
        with pytest.raises(ValueError):
            threshold_interval(d=10, n=10, r=1.0, c1=1.0, c2=1.0)
        with pytest.raises(ValueError):
            threshold_interval(d=10, n=10, r=0.5, c1=-1.0, c2=1.0)


class TestErrorRates:
    def test_counting_example(self):
        part = LabelPartition.from_inliers(5, [0, 1])
        report = error_rates([0, 1, 2], part)
        assert report.error_g == pytest.approx(1 / 3)
        assert report.error_b == 0.0
        assert report.error_w == pytest.approx(0.2)

    def test_perfect_recovery(self):
        part = LabelPartition.from_inliers(6, [1, 3, 5])
        report = error_rates([1, 3, 5], part)
        assert (report.error_g, report.error_b, report.error_w) == (0.0, 0.0, 0.0)

    def test_weighted_identity_is_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 50))
            k = int(rng.integers(1, n))
            truth = rng.choice(n, size=k, replace=False)
            est = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            part = LabelPartition.from_inliers(n, est)
            rep = error_rates(truth, part)
            # (|G| * error_g + |B| * error_b) / n == error_w, exactly, in
            # rational arithmetic on the counts
            eg = Fraction(rep.missed_inliers, rep.n_inliers)
            eb = Fraction(rep.missed_outliers, rep.n_outliers)
            ew = Fraction(rep.missed_inliers + rep.missed_outliers, rep.n)
            assert (rep.n_inliers * eg + rep.n_outliers * eb) / rep.n == ew
            assert rep.missed_inliers + rep.missed_outliers == round(rep.error_w * n)

    def test_empty_sides_rejected(self):
        part = LabelPartition.from_inliers(4, [0])
        with pytest.raises(ValueError):
            error_rates([], part)
        with pytest.raises(ValueError):
            error_rates([0, 1, 2, 3], part)

    @staticmethod
    def unique_error_rates(truth_inliers, partition):
        """The reference: validate and count on the sorted unique truth."""
        g = np.unique(np.asarray(truth_inliers, dtype=np.intp))
        n = partition.n
        if g.size and (g[0] < 0 or g[-1] >= n):
            raise ValueError("truth indices out of range")
        if not 1 <= g.size <= n - 1:
            raise ValueError("true inlier set and its complement must be nonempty")
        truth_mask = np.zeros(n, dtype=bool)
        truth_mask[g] = True
        est_mask = partition.inlier_mask()
        return ErrorReport(
            n=n,
            n_inliers=int(g.size),
            n_outliers=int(n - g.size),
            missed_inliers=int(np.count_nonzero(truth_mask & ~est_mask)),
            missed_outliers=int(np.count_nonzero(~truth_mask & est_mask)),
        )

    @staticmethod
    def outcome(fn, truth, part):
        try:
            return fn(truth, part)
        except ValueError as exc:
            return type(exc), str(exc)

    def test_matches_the_unique_reference(self):
        rng = np.random.default_rng(907)
        cases = []
        for _ in range(300):
            n = int(rng.integers(2, 40))
            part = LabelPartition(rng.random(n) < rng.random())
            # unsorted, with duplicates, sometimes empty or covering 0..n-1,
            # sometimes reaching one past either end
            truth = rng.integers(-1, n + 1, size=int(rng.integers(0, 2 * n)))
            if rng.random() < 0.5:
                truth = truth[(truth >= 0) & (truth < n)]
            if rng.random() < 0.1:
                truth = np.concatenate([rng.permutation(n), truth[truth >= 0]])
                truth = truth[truth < n]
            cases += [
                (truth, part),
                (truth.tolist(), part),
                (truth.reshape(1, -1), part),
            ]
            if truth.size % 2 == 0:
                cases.append((truth.reshape(2, -1), part))
        part = LabelPartition.from_inliers(5, [1, 2])
        cases += [
            ([], part),
            (np.arange(5), part),
            ([4, 0, 4, 1, 2, 3], part),
            ([5], part),
            ([-1, 2], part),
            ([-1, 5], part),
            ([], LabelPartition.from_inliers(5, [])),
            (3, part),
        ]
        outcomes = set()
        for truth, part in cases:
            want = self.outcome(self.unique_error_rates, truth, part)
            assert self.outcome(error_rates, truth, part) == want
            outcomes.add(want if isinstance(want, tuple) else ErrorReport)
        # every branch was reached: a report, out of range, an empty side
        assert len(outcomes) == 3


class TestLabelPartition:
    def test_a_2d_mask_is_read_flattened(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            n = 2 * int(rng.integers(1, 100))
            mask = rng.random(n) < rng.random()
            part = LabelPartition(mask.reshape(2, -1))
            assert part == LabelPartition(mask) and part.n == n
            assert np.array_equal(part.inliers, np.flatnonzero(mask))
            assert np.array_equal(part.outliers, np.flatnonzero(~mask))

    def test_indices_have_dtype_intp(self):
        for mask in ([], [True], [False, True, False], np.ones((3, 4), dtype=bool)):
            part = LabelPartition(mask)
            assert part.inliers.dtype == part.outliers.dtype == np.intp

    def test_owns_its_mask(self):
        mask = np.array([True, False, True])
        part = LabelPartition(mask)
        mask[1] = True
        part.inlier_mask()[0] = False
        assert np.array_equal(part.inliers, [0, 2])
        assert np.array_equal(part.outliers, [1])

    def test_round_trips(self):
        part = LabelPartition.from_inliers(5, [4, 0])
        assert np.array_equal(part.inliers, [0, 4])
        assert np.array_equal(part.outliers, [1, 2, 3])
        assert part == LabelPartition(part.inlier_mask())
