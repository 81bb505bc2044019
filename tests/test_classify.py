"""Matchers, the exact 1-D 2-means solver, error metrics, threshold interval."""

import dataclasses
import math
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from gramoverlap import (
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
)
from gramoverlap import bench, linalg, overlap
from gramoverlap.classify import (
    METHOD_EIGENVECTOR,
    METHOD_ROW_SUM,
    _two_means_rows,
    classify_rows,
    statistic,
)
from gramoverlap.overlap import forms_h
from gramoverlap.synth import derive_seed


def as_overlap(h, d):
    return OverlapMatrix.wrap(np.asarray(h, dtype=float), d)


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


def two_means(values):
    """``classify_rows``' 2-means of the one row ``values``: its partition
    and its centroids, None for a constant row.  The row is classified
    alone and as the middle row of a stack beside two unrelated rows; both
    give the same labels and facts bit for bit, or the same refusal."""
    v = np.asarray(values, dtype=np.float64)
    others = np.random.default_rng(v.size).standard_normal((2, v.size))
    stack = np.stack([others[0], v, others[1]])
    cfg = MatchConfig()
    try:
        alone = classify_rows(v[None], [cfg], d=1)
    except ValueError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            classify_rows(stack, [cfg] * 3, d=1)
        raise
    beside = classify_rows(stack, [cfg] * 3, d=1)
    facts = alone.facts(0)
    assert np.array_equal(beside.inliers[1], alone.inliers[0])
    assert repr(beside.facts(1)) == repr(facts)
    part = LabelPartition(alone.inliers[0])
    if facts.get("degenerate"):
        assert facts == {"degenerate": True} and part.inliers.size == 0
        return part, None
    return part, facts["centroids"]


def is_constant(values):
    """Whether ``classify_rows`` finds the row ``values`` constant: its
    facts say ``degenerate`` and it has no inliers (see ``two_means``)."""
    return two_means(values)[1] is None


def parent_two_means(values):
    """The reference: the one-row 2-means solver before its reductions were
    called directly (np.concatenate prefix sums, .mean() centroids).  A
    constant input has no inliers and no centroids."""
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
        return LabelPartition(np.zeros(n, dtype=bool)), None
    ps = np.concatenate([[0.0], np.cumsum(c)])
    pq = np.concatenate([[0.0], np.cumsum(c * c)])
    m = np.arange(1, n, dtype=np.float64)
    upper_sum = ps[n] - ps[1:n]
    costs = (pq[1:n] - ps[1:n] * ps[1:n] / m) + (
        (pq[n] - pq[1:n]) - upper_sum * upper_sum / (n - m)
    )
    k = int(np.argmin(costs)) + 1
    low, high = float(s[:k].mean()), float(s[k:].mean())
    partition = LabelPartition(np.isin(np.arange(n), order[k:]))
    return partition, (low, high)


def allocating_two_means(values):
    """The reference: the one-row 2-means solver while its split costs were
    one expression that allocated a temporary per operation.  A constant
    input has no inliers and no centroids."""
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
        return LabelPartition(np.zeros(n, dtype=bool)), None
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


def stable_two_means_rows(v):
    """The reference: _two_means_rows while it sorted indices stably and
    labelled through them (flat-index take and scatter)."""
    p, n = v.shape
    if n < 2:
        raise ValueError("need at least two values")
    if not np.isfinite(v).all():
        raise ValueError("values contain non-finite entries")
    order = v.argsort(axis=1, kind="stable")
    order += np.arange(0, p * n, n)[:, None]
    s = v.take(order)
    c = s - s[:, n // 2, None]
    spread = c[:, -1] - c[:, 0]
    tied = spread <= 16 * np.spacing(np.maximum(-s[:, 0], s[:, -1]))
    ps = np.empty((p, n + 1))
    pq = np.empty((p, n + 1))
    ps[:, 0] = pq[:, 0] = 0.0
    np.add.accumulate(c, axis=1, out=ps[:, 1:])
    np.add.accumulate(c * c, axis=1, out=pq[:, 1:])
    m = np.arange(1, n, dtype=np.float64)
    low_s, low_q = ps[:, 1:n], pq[:, 1:n]
    costs = low_s * low_s
    costs /= m
    np.subtract(low_q, costs, out=costs)
    high_s = np.subtract(ps[:, n, None], low_s, out=low_s)
    high_s *= high_s
    high_s /= m[::-1]
    high_q = np.subtract(pq[:, n, None], low_q, out=low_q)
    high_q -= high_s
    costs += high_q
    k = costs.argmin(axis=1) + 1
    k[tied] = n
    mask = np.empty(p * n, dtype=bool)
    mask[order.ravel()] = (np.arange(n) >= k[:, None]).ravel()
    return s, k, mask.reshape(p, n)


def two_means_outcome(fn, values):
    """Everything a 2-means call returns, in a form whose equality means
    equal bits (centroids None for a constant input), or the type and
    message of what it raised."""
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
        None if centroids is None else [repr(c) for c in centroids],
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
            want = two_means_outcome(parent_two_means, v)
            assert two_means_outcome(two_means, v) == want
            if isinstance(want[0], type):
                outcomes.add(want[0])
            else:
                outcomes.add("split" if want[-1] is not None else "constant")
        # a split, a constant input and an invalid one were all compared
        assert outcomes == {"split", "constant", ValueError}

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
            want = two_means_outcome(allocating_two_means, v)
            assert two_means_outcome(two_means, v) == want
            splits += want[-1] is not None and not isinstance(want[0], type)
        assert splits > len(cases) // 2

    def test_two_cluster_data(self):
        part, centroids = two_means(np.array([0.0, 0.1, 0.9, 1.0]))
        assert np.array_equal(part.inliers, [2, 3])
        assert centroids == (0.05, 0.95)

    def test_isolated_point(self):
        part, _ = two_means(np.array([0.0, 0.0, 10.0]))
        assert np.array_equal(part.inliers, [2])

    def test_exact_tie_prefers_larger_upper_cluster(self):
        # both splits of {0, 0.5, 1} cost exactly 0.125
        part, _ = two_means(np.array([0.0, 0.5, 1.0]))
        assert np.array_equal(part.inliers, [1, 2])

    def test_matches_exhaustive_bipartition_oracle(self):
        rng = np.random.default_rng(606)
        for case in range(100):
            n = int(rng.integers(2, 13))
            values = rng.standard_normal(n) * rng.uniform(0.5, 10)
            part, _ = two_means(values)
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
            base, _ = two_means(values)
            shifted, _ = two_means(values + rng.uniform(-100, 100))
            scaled, _ = two_means(values * rng.uniform(0.01, 100))
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
        base, _ = two_means(values)
        assert 0 < base.inliers.size < values.size
        for c in [0, 1, 3, 10**4, 12345, 10**6, 2**24 + 1, 10**7, 98765432, 10**8]:
            assert np.array_equal(values + c - c, values)
            shifted, _ = two_means(values + c)
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
        assert is_constant(np.full(5, 3.0))
        assert is_constant(np.array([1e6, 1e6 + 1e-9]))

    def test_degeneracy_bound_follows_the_values(self):
        # two dyadic pairs with a 2^-20 gap: every shifted value below is
        # exact, and at 1e8 the spread is still 72 ulps of the values, so the
        # pairs split at every offset
        pairs = np.array([0.0, 2.0**-23, 2.0**-20, 2.0**-20 + 2.0**-23])
        base, _ = two_means(pairs)
        assert np.array_equal(base.inliers, [2, 3])
        for c in [1, 10**4, 10**6, 10**8]:
            assert np.array_equal(pairs + c - c, pairs)
            shifted, _ = two_means(pairs + c)
            assert shifted == base, f"partition moved at offset {c}"
        # scaling by a power of two never decides whether input is constant
        near_tie = np.array([1.0, 1.0 + 8 * 2.0**-52])
        for e in (-400, -40, 0, 40, 400):
            scaled, _ = two_means(np.ldexp(pairs, e))
            assert scaled == base, f"partition moved at scale 2^{e}"
            assert is_constant(np.ldexp(near_tie, e))
        # a pair 2^-30 apart splits until the offset puts it within 16 ulps
        tie = np.array([0.0, 2.0**-30])
        for c in [0, 1, 10**4]:
            part, _ = two_means(tie + c)
            assert np.array_equal(part.inliers, [1])
        assert is_constant(tie + 10**6)  # 8 ulps of 1e6

    def test_input_validation(self):
        with pytest.raises(ValueError):
            two_means(np.array([1.0]))
        with pytest.raises(ValueError):
            two_means(np.array([1.0, np.nan]))


def rows_outcome(rows):
    """Each row's 2-means inlier mask from the stacked classifier."""
    cfgs = [MatchConfig(method="row_sum")] * len(rows)
    return classify_rows(np.array(rows, dtype=np.float64), cfgs, d=1).inliers


class TestClassifyRows:
    """The stacked classifier of a sweep trial against one call a row."""

    def assert_rows_match_each_row_alone(self, rows):
        got = rows_outcome(rows)
        assert got.shape == (len(rows), len(rows[0])) and got.dtype == bool
        for row, mask in zip(rows, got):
            assert np.array_equal(mask, two_means(row)[0].inlier_mask())
            assert np.array_equal(mask, allocating_two_means(row)[0].inlier_mask())

    @pytest.mark.parametrize("n", [2, 3, 17, 400])
    def test_random_and_tied_rows(self, n):
        rng = np.random.default_rng(derive_seed(2424, n))
        rows = []
        for _ in range(12):
            rows.append(rng.standard_normal(n))
            rows.append(rng.integers(0, 4, n).astype(float))  # exact ties
            rows.append(np.repeat([0.0, 1.0], [n - n // 2, n // 2])[rng.permutation(n)])
        self.assert_rows_match_each_row_alone(rows)

    def test_large_offsets_and_power_of_two_scaling(self):
        # every shifted and scaled row below is exact, so each must keep the
        # partition of the row it came from, as it does alone
        rng = np.random.default_rng(2525)
        base = np.concatenate(
            [rng.integers(0, 3 * 2**10, 60), 2560 + rng.integers(0, 3 * 2**10, 40)]
        ) / 2**10
        rows = [base + c for c in (0, 1, 10**4, 2**24 + 1, 10**8)]
        rows += [np.ldexp(base, e) for e in (-400, -40, 40, 400)]
        for row in rows[1:5]:
            assert np.array_equal(row - (row[0] - base[0]), base)
        got = rows_outcome(rows)
        assert 0 < got[0].sum() < base.size
        assert all(np.array_equal(mask, got[0]) for mask in got)
        self.assert_rows_match_each_row_alone(rows)

    def test_a_degenerate_row_is_all_outliers_and_leaves_the_others(self):
        rng = np.random.default_rng(2626)
        rows = [rng.standard_normal(50) for _ in range(4)]
        alone = rows_outcome(rows)
        for constant in (np.full(50, 3.0), np.full(50, -1e6), 1e6 + 2.0**-40 * np.arange(50)):
            assert is_constant(constant)
            got = rows_outcome(rows[:2] + [constant] + rows[2:])
            assert not got[2].any()
            assert np.array_equal(np.delete(got, 2, axis=0), alone)

    def test_rows_too_short_or_not_finite_are_refused(self):
        for rows, message in (
            ([[1.0], [2.0]], "need at least two values"),
            ([[1.0, 2.0], [3.0, np.nan]], "values contain non-finite entries"),
        ):
            with pytest.raises(ValueError, match=message):
                rows_outcome(rows)
        # one check serves both branches: a threshold cuts no non-finite row
        for method, bad in ((METHOD_ROW_SUM, np.nan), (METHOD_EIGENVECTOR, np.inf)):
            cfgs = [MatchConfig(method=method, threshold=1.0)] * 2
            with pytest.raises(ValueError, match="values contain non-finite entries"):
                classify_rows(np.array([[1.0, 2.0], [3.0, bad]]), cfgs, d=1)

    @pytest.mark.parametrize("scale", [1e80, 1e200])
    @pytest.mark.parametrize(
        "spec", ["rowsum:1.0", "rowsum:kmeans", "eig:0.5", "eig:kmeans"]
    )
    def test_an_overflowing_factored_statistic_is_refused(
        self, monkeypatch, spec, scale
    ):
        # raw entries of 1e80 or 1e200 at d = 3, n = 400: both statistics
        # come from the factors, whose products overflow, with no numpy
        # warning.  The eigenvector refuses Z Z^T before any squaring; the
        # classifier refuses the row sums before either branch reads them
        def refuse(g):
            raise AssertionError("an overflowing Z Z^T was squared")

        monkeypatch.setattr(overlap, "_top_eigvectors_by_squaring", refuse)
        pair = generate(ScenarioSpec(d=3, n=400, r=0.5, seed=1))
        h = build_overlap(pair.x * scale, pair.y * scale, PreprocessMode.NONE)
        assert h.row_sum_backend == h.eig_backend == "gram_factor"
        cfg = bench.parse_method(spec)
        if cfg.method == METHOD_EIGENVECTOR:
            message = "the Khatri-Rao Gram Z Z\\^T has non-finite entries: it overflows"
        else:
            message = "values contain non-finite entries"
        with pytest.raises(ValueError, match=message):
            match(h, cfg)

    @pytest.mark.parametrize(
        "spec", ["eig:0.5", "eig:kmeans", "rowsum:kmeans", "rowsum:3.0", "rowsum:auto"]
    )
    def test_each_row_is_classified_as_match_classifies_it(self, spec):
        # one pair per rate, so rowsum:auto has a cut per row
        rates = (0.3, 0.5, 0.7, 0.9)
        stats, cfgs, want = [], [], []
        for t, r in enumerate(rates):
            pair = generate(ScenarioSpec(d=6, n=200, r=r, seed=derive_seed(27, t)))
            h = build_overlap(pair.x, pair.y, PreprocessMode.NONE)
            cfg = bench._at_rate(bench.parse_method(spec), r)
            part, diag = match(h, cfg)
            stats.append(statistic(h, cfg.method)[0])
            cfgs.append(cfg)
            want.append((part.inlier_mask(), diag))
        got = classify_rows(np.array(stats), cfgs, d=6)
        assert len({mask.sum() for mask in got.inliers}) > 1
        for i, (mask, diag) in enumerate(want):
            assert np.array_equal(got.inliers[i], mask)
            facts = got.facts(i)
            assert {key: getattr(diag, key) for key in facts} == facts
        # a threshold call keeps only its cuts, a 2-means call its sorted
        # rows and split sizes
        two_means = cfgs[0].threshold is None
        assert (got.cuts is None) == two_means
        assert (got.sorted_values is None) == (got.k is None) == (not two_means)

    def test_a_constant_row_reports_degenerate_as_match_warns(self):
        h = as_overlap(np.ones((6, 6)), d=1)
        part, diag = match(h, MatchConfig())
        got = classify_rows(statistic(h, METHOD_ROW_SUM)[0][None], [MatchConfig()], 1)
        assert got.k.tolist() == [6] and not got.inliers.any()
        assert got.facts(0) == {"degenerate": True}
        assert diag.degenerate and diag.centroids is None and len(diag.warnings) == 1
        assert part == LabelPartition(got.inliers[0])

    @pytest.mark.parametrize(
        "cfgs, message",
        [
            # every row would follow the first config's branch
            ([MatchConfig(), MatchConfig(threshold="auto", inlier_rate=0.5)],
             "one branch"),
            ([MatchConfig(threshold=1.0), MatchConfig()],
             "one branch"),
            # one threshold config would be broadcast to every row
            ([MatchConfig(threshold=1.0)], "1 configs for 2 rows"),
            ([MatchConfig()] * 3, "3 configs for 2 rows"),
            # rowsum:auto with no rate would fail inside the cut
            ([MatchConfig(threshold="auto")] * 2, "requires inlier_rate"),
        ],
    )
    def test_a_call_outside_the_contract_is_refused(self, cfgs, message):
        stats = np.arange(8.0).reshape(2, 4)
        with pytest.raises(ValueError, match=message):
            classify_rows(stats, cfgs, d=2)

    @pytest.mark.parametrize(
        "stats, cfgs",
        [
            (np.empty((0, 5)), []),  # no row: no config to read a branch from
            (np.arange(4.0), [MatchConfig()]),  # one row, not a stack of them
            (np.zeros((1, 2, 3)), [MatchConfig()]),
            ([[0.0, 1.0]], [MatchConfig()]),
        ],
    )
    def test_statistics_not_a_stack_of_rows_are_refused(self, stats, cfgs):
        with pytest.raises(ValueError, match="2-D array of at least one row"):
            classify_rows(stats, cfgs, 1)


def factor_stack(pairs, mode):
    """The trial's preprocessed X and the preprocessed stack of the Ys."""
    xp = preprocess(pairs[0].x, mode)
    return xp, np.stack([preprocess(pair.y, mode) for pair in pairs])


def stack_statistic(xp, yps, method, backend=None):
    """The statistic of the overlap of ``xp`` with each Y of ``yps``, one a
    row, as a sweep trial reads it."""
    return statistic(OverlapMatrix(xp=xp, yp=yps, backend=backend), method)[0]


class TestStackStatistics:
    """The statistics of a stack overlap against one overlap a pair."""

    @pytest.mark.parametrize("kind", ["permuted_inliers", "gaussian_outliers"])
    @pytest.mark.parametrize("mode", list(PreprocessMode))
    @pytest.mark.parametrize(
        "d, n, backend",
        [
            (3, 40, None),  # both statistics from the factors
            (6, 400, None),
            (6, 60, None),  # power iteration (refused), factored row sums
            (12, 12, None),  # dense row sums: the stack is refused
            (3, 40, "dense"),
        ],
    )
    def test_rows_are_the_per_pair_statistics_bit_for_bit(
        self, kind, mode, d, n, backend
    ):
        # pairs of one trial: several rates, and noise on some of them
        seed = derive_seed(2525, d)
        pairs = [
            generate(ScenarioSpec(d=d, n=n, r=r, kind=kind, sigma2=s2, seed=seed))
            for r in (0.25, 0.5, 0.75)
            for s2 in (0.0, 0.3)
        ]
        xp, yps = factor_stack(pairs, mode)
        if forms_h(d, n, eigenpair=False, backend=backend):
            # the dense row sums form H at construction, and only a pair
            # forms H: a sweep builds a pair overlap a scenario there
            with pytest.raises(ValueError, match="only a pair forms H"):
                OverlapMatrix(xp=xp, yp=yps, backend=backend)
            return
        stack = OverlapMatrix(xp=xp, yp=yps, backend=backend)
        assert stack.p == len(pairs)
        want_h = [
            build_overlap(pair.x, pair.y, mode, backend=backend) for pair in pairs
        ]
        backends = {METHOD_EIGENVECTOR: "eig_backend", METHOD_ROW_SUM: "row_sum_backend"}
        for method, key in backends.items():
            if forms_h(d, n, method == METHOD_EIGENVECTOR, backend):
                with pytest.raises(ValueError, match="only a pair forms H"):
                    statistic(stack, method)
                continue
            got, facts = statistic(stack, method)
            assert got.shape == (len(pairs), n)
            for row, h in zip(got, want_h):
                want, want_facts = statistic(h, method)
                assert np.array_equal(row, want)
                assert facts == {key: want_facts[key]}
        assert stack._h is None
        # a factored pair's eigenvector is read the same way with or
        # without its facts
        if not forms_h(d, n, eigenpair=True, backend=backend):
            for row, h in zip(stack.leading_eigenvector(), want_h):
                assert np.array_equal(row, h.leading_eigenvector())

    def test_a_zero_gram_gives_the_all_ones_vector(self):
        rng = np.random.default_rng(2626)
        x, y = rng.standard_normal((2, 2, 16))
        ys = np.stack([y, np.zeros_like(y), -y])
        assert not forms_h(2, 16, eigenpair=True)
        got = stack_statistic(x, ys, METHOD_EIGENVECTOR)
        assert np.array_equal(got[1], np.full(16, 1 / math.sqrt(16)))
        for row, yp in zip(got, ys):
            want = statistic(build_overlap(x, yp, PreprocessMode.NONE), "eigenvector")
            assert np.array_equal(row, want[0])

    def test_a_zero_sum_vector_takes_the_sign_of_its_largest_entry(self):
        # Z's first two columns are e and -e, the third is small and
        # orthogonal to them, the rest zero: the top eigenvector of H is
        # (1, -1, 0, ...) / sqrt 2, whose entries sum to zero, found as
        # (1, -1, 0, ...) or (-1, 1, 0, ...) up to scale; either way the
        # first entry of largest magnitude is made positive
        n = 16
        x = np.zeros((2, n))
        x[:, :3] = [[1.0, -1.0, 0.0], [0.0, 0.0, 0.5]]
        ys = np.zeros((2, 2, n))
        ys[:, :, :3] = [
            [[1.0, 1.0, 0.0], [0.0, 0.0, 0.5]],
            [[-1.0, -1.0, 0.0], [0.0, 0.0, 0.5]],
        ]
        assert not forms_h(2, n, eigenpair=True)
        got = stack_statistic(x, ys, METHOD_EIGENVECTOR)
        want = np.zeros(n)
        want[:2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        for row, yp in zip(got, ys):
            z = (x[:, None, :] * yp[None, :, :]).reshape(4, n)
            assert np.array_equal(z[:, 0], -z[:, 1]) and z[:, 2] @ z[:, 0] == 0
            pair = build_overlap(x, yp, PreprocessMode.NONE)
            assert np.array_equal(row, statistic(pair, "eigenvector")[0])
            assert abs(float(row.sum())) <= 1e-12
            assert np.allclose(row, want, rtol=0, atol=1e-15)
        # the sign rule flips the one whose raw vector starts negative
        flips = linalg.sign_flips(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert flips.tolist() == [False, True]


class TestTwoMeansTies:
    """Why the 2-means labels keep index order among equal values (see
    ``_two_means_rows``): a split falls inside a run of equal values only
    where costs tie after rounding, and there the lowest-indexed of them
    stay in the lower cluster, as a stable sort of the indices puts them."""

    @staticmethod
    def splits(rows):
        s, k, _ = _two_means_rows(np.array(rows, dtype=np.float64))
        return s, k

    def test_equal_values_never_straddle_a_split_of_small_integers(self):
        # long runs of few distinct values, plus rows of distinct reals
        # that round to equal doubles on a large offset (steps of 1e-11 on
        # 1e6, whose ulp is 1.2e-10)
        rng = np.random.default_rng(2727)
        rows = []
        for n in (2, 5, 40, 300):
            for _ in range(40):
                rows.append(rng.integers(0, int(rng.integers(2, 5)), n))
                rows.append(1e6 + 1e-11 * rng.integers(0, 2000, n))
        split = 0
        for row in rows:
            s, k = self.splits([row.astype(float)])
            if k[0] < row.size:  # not within the tie bound
                assert s[0, k[0] - 1] < s[0, k[0]]
                split += np.unique(s).size < row.size
        assert split > 150  # rows with runs that were split

    @pytest.mark.parametrize("n", [20, 64, 300])
    def test_a_split_inside_a_run_keeps_index_order(self, n):
        # n - 1 zeros and one 1e-300: every split cost underflows to 0, so
        # the first split, k = 1, falls inside the run of zeros; the stable
        # sort gives the lowest-indexed zero the lower cluster, and any
        # order of the equal zeros other than by index moves the label
        row = np.zeros(n)
        row[n // 3] = 1e-300
        s, k = self.splits([row])
        assert k.tolist() == [1] and s[0, 0] == s[0, 1] == 0.0
        mask = rows_outcome([row])[0]
        assert np.flatnonzero(~mask).tolist() == [0]
        part, _ = two_means(row)
        assert np.array_equal(part.inlier_mask(), mask)


class TestValueSort:
    """The 2-means solver sorts values, not indices, and labels from the
    k-th smallest value: every split, label and centroid is the stable
    index sort's (``stable_two_means_rows``, ``allocating_two_means``)."""

    @staticmethod
    def assert_stack_matches_the_stable_sort(rows):
        v = np.array(rows, dtype=np.float64)
        s, k, mask = _two_means_rows(v)
        want_s, want_k, want_mask = stable_two_means_rows(v)
        assert np.array_equal(k, want_k)
        assert np.array_equal(mask, want_mask)
        assert np.array_equal(s, want_s)  # by value: -0.0 == 0.0
        for row in v:
            want = two_means_outcome(allocating_two_means, row)
            assert two_means_outcome(two_means, row) == want
        return k

    @pytest.mark.parametrize("n", [2, 3, 40, 400])
    def test_random_tied_and_offset_rows(self, n):
        rng = np.random.default_rng(derive_seed(2727, n))
        for _ in range(15):
            self.assert_stack_matches_the_stable_sort(
                [
                    rng.standard_normal(n),
                    rng.integers(0, int(rng.integers(2, 5)), n),  # small-integer runs
                    1e6 + 1e-11 * rng.integers(0, 2000, n),  # rounding ties
                    np.round(rng.standard_normal(n), 1),
                ]
            )

    def test_signed_zeros(self):
        # np.sort may order zeros of either sign differently from a stable
        # sort, or write -0.0 for 0.0; no split, label or centroid changes
        rng = np.random.default_rng(2828)
        splits = 0
        for n in (2, 3, 17, 64, 400):
            for _ in range(10):
                rows = np.where(rng.random((4, n)) < 0.5, 0.0, -0.0)
                rows[0] = -0.0
                rows[:3, rng.integers(0, n)] = rng.choice([-1.0, 1.0, 5e-324, 1e-300])
                rows[1, rng.integers(0, n)] = -rows[1].sum()
                k = self.assert_stack_matches_the_stable_sort(rows)
                splits += int((k < n).sum())
                assert k[3] == n  # a row of zeros is within the tie bound
        assert splits >= 100

    def test_rows_within_the_tie_bound_and_scaled_rows(self):
        rng = np.random.default_rng(2929)
        base = np.concatenate([rng.integers(0, 8, 30), 20 + rng.integers(0, 8, 20)]) / 4
        rows = [np.ldexp(base, e) for e in (-400, -60, 0, 60, 400)]
        rows += [base + 2.0**30, np.full(50, 3.0), 1e6 + 2.0**-40 * np.arange(50)]
        k = self.assert_stack_matches_the_stable_sort(rows)
        assert len(set(k[:6].tolist())) == 1 and 1 < k[0] < 50
        assert k[6:].tolist() == [50, 50]

    @pytest.mark.parametrize("n", [2, 3, 20, 401])
    def test_a_straddled_run_is_filled_in_index_order(self, n):
        # n - 1 zeros and one 1e-300: the first split, k = 1, falls inside
        # the zeros, so the lowest-indexed zero alone stays below the split
        rows = np.zeros((3, n))
        rows[:, 1::3] = -0.0
        at = (0, n // 2, n - 1)
        rows[[0, 1, 2], at] = 1e-300
        k = self.assert_stack_matches_the_stable_sort(rows)
        assert k.tolist() == [1, 1, 1]
        lower = [np.flatnonzero(~m).tolist() for m in _two_means_rows(rows)[2]]
        assert lower == [[1] if i == 0 else [0] for i in at]


class TestMatchConfig:
    def test_fields_are_method_threshold_and_inlier_rate(self):
        names = [f.name for f in dataclasses.fields(MatchConfig)]
        assert names == ["method", "threshold", "inlier_rate"]
        assert MatchConfig().threshold is None  # 2-means by default

    def test_a_fixed_cut_is_one_field(self):
        # eig:0.5 on a seeded pair: the cut t / sqrt(n) = 0.025 keeps 258
        # points, every true inlier and 18 outliers, as the config did when
        # it also had to turn 2-means off
        pair = generate(ScenarioSpec(d=6, n=400, r=0.6, seed=derive_seed(35, 0)))
        h = build_overlap(pair.x, pair.y, PreprocessMode.CENTER_NORMALIZE)
        part, diag = match(h, MatchConfig(method="eigenvector", threshold=0.5))
        v, _ = statistic(h, METHOD_EIGENVECTOR)
        assert part == LabelPartition(v >= 0.025)
        report = error_rates(pair.inliers, part)
        counts = part.inliers.size, report.missed_inliers, report.missed_outliers
        assert counts == (258, 0, 18)
        assert diag.branch == "threshold" and diag.threshold == 0.025
        assert diag.centroids is None and diag.centroid_gap is None
        assert not diag.degenerate and diag.warnings == []
        assert diag.eig_backend == "gram_factor" and diag.converged
        # "auto" is the same cut, t = 0.5
        auto_part, auto_diag = match(h, MatchConfig("eigenvector", "auto"))
        assert auto_part == part and auto_diag.to_dict() == diag.to_dict()

    @pytest.mark.parametrize("method", ["eigenvector", "row_sum"])
    @pytest.mark.parametrize(
        "threshold, message",
        [
            ("kmeans", "unknown threshold 'kmeans'"),
            ("Auto", "unknown threshold 'Auto'"),
            (0, "threshold must be positive and finite"),
            (-1, "threshold must be positive and finite"),
            (math.inf, "threshold must be positive and finite"),
            (math.nan, "threshold must be positive and finite"),
            (True, "threshold must be a number, got True"),
            (False, "threshold must be a number, got False"),
            (np.True_, "threshold must be a number, got np.True_"),
            (np.False_, "threshold must be a number, got np.False_"),
        ],
    )
    def test_a_bad_threshold_is_refused(self, method, threshold, message):
        with pytest.raises(ValueError) as exc:
            MatchConfig(method=method, threshold=threshold)
        assert str(exc.value) == message

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            MatchConfig(method="row_sum", threshold=0.0)

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
            dict(method="row_sum", threshold=2.0),
            dict(method="eigenvector"),
            dict(method="eigenvector", threshold="auto"),
            dict(method="eigenvector", threshold=0.5),
        ],
    )
    def test_inlier_rate_no_rule_reads_is_refused(self, kwargs):
        with pytest.raises(ValueError, match="reads inlier_rate"):
            MatchConfig(inlier_rate=0.5, **kwargs)
        assert MatchConfig(**kwargs).inlier_rate is None

    def test_inlier_rate_of_the_row_sum_default(self):
        cfg = MatchConfig(method="row_sum", threshold="auto", inlier_rate=0.5)
        assert cfg.reads_inlier_rate and cfg.inlier_rate == 0.5
        # the one config that reads a rate still refuses one outside (0, 1)
        for rate in (0.0, 1.0, -0.5, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"must be in \(0, 1\)"):
                MatchConfig(method="row_sum", threshold="auto", inlier_rate=rate)


    def test_a_missing_rate_is_refused_before_any_statistic(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a statistic was computed")

        monkeypatch.setattr(overlap, "_khatri_rao_row_sums", refuse)
        x, y = np.random.default_rng(8).standard_normal((2, 3, 40))
        h = build_overlap(x, y, PreprocessMode.NONE)
        assert h.row_sum_backend == "gram_factor"
        # rowsum:auto parses without a rate; only running it is refused
        cfg = bench.parse_method("rowsum:auto")
        assert cfg == MatchConfig(method="row_sum", threshold="auto")
        with pytest.raises(ValueError) as exc:
            match(h, cfg)
        assert str(exc.value) == "default row-sum threshold requires inlier_rate to be set"

class TestEigenvectorMatch:
    def test_threshold_arithmetic(self):
        v = np.array([0.70, 0.71, 0.05, 0.04])
        h = as_overlap(np.outer(v, v), d=4)
        cfg = MatchConfig(method="eigenvector", threshold=0.5)
        part, diag = match(h, cfg)
        assert np.array_equal(part.inliers, [0, 1])
        assert diag.branch == "threshold"
        assert abs(diag.threshold - 0.25) <= 1e-15

    def test_population_threshold_recovers_exactly(self):
        h = population_h(d=30, n=24, k=12)
        cfg = MatchConfig(method="eigenvector", threshold=0.5)
        part, diag = match(h, cfg)
        assert np.array_equal(part.inliers, np.arange(12))
        assert diag.converged

    def test_population_two_means_recovers_exactly(self):
        h = population_h(d=30, n=24, k=12)
        cfg = MatchConfig(method="eigenvector")
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
        cfg = MatchConfig(method="eigenvector")
        part, diag = match(h, cfg)
        assert part.inliers.size == 0
        assert diag.degenerate
        assert diag.warnings

    def test_default_threshold_is_half(self):
        h = population_h(d=10, n=20, k=10)
        explicit = MatchConfig(method="eigenvector", threshold=0.5)
        implicit = MatchConfig(method="eigenvector", threshold="auto")
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
            MatchConfig(method="eigenvector", threshold=0.5),
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
        cfg = MatchConfig(method="eigenvector", threshold=0.5)
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
        cfg = MatchConfig(method="row_sum", threshold=55.0)
        part, diag = match(h, cfg)
        assert np.array_equal(part.inliers, np.arange(10))
        assert diag.threshold == 55.0

    def test_threshold_arithmetic(self):
        # shifted row sums (110, 108, 2, -1) against T = 55
        h = as_overlap(np.diag([210.0, 208.0, 102.0, 99.0]), d=10)
        cfg = MatchConfig(method="row_sum", threshold=55.0)
        part, _ = match(h, cfg)
        assert np.array_equal(part.inliers, [0, 1])

    def test_population_two_means_recovers_exactly(self):
        h = population_h(d=10, n=20, k=10)
        part, diag = match(h, MatchConfig(method="row_sum"))
        assert np.array_equal(part.inliers, np.arange(10))
        assert diag.centroid_gap == 110.0

    def test_default_threshold_uses_rate_and_size(self):
        h = population_h(d=10, n=20, k=10)
        cfg = MatchConfig(method="row_sum", threshold="auto", inlier_rate=0.5)
        part, diag = match(h, cfg)
        assert diag.threshold == 10 * (0.5 * 20 + 1) / 2  # 55
        assert np.array_equal(part.inliers, np.arange(10))

    def test_default_threshold_requires_rate(self):
        h = population_h(d=10, n=20, k=10)
        with pytest.raises(ValueError):
            match(h, MatchConfig(method="row_sum", threshold="auto"))

    def test_shift_applied_after_normalization_harmless_for_two_means(self):
        rng = np.random.default_rng(55)
        x = rng.standard_normal((8, 40))
        rot, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        y = np.empty_like(x)
        y[:, :24] = rot @ x[:, :24]
        y[:, 24:] = rng.standard_normal((8, 16))
        h = build_overlap(x, y, PreprocessMode.CENTER_NORMALIZE)
        part, _ = match(h, MatchConfig(method="row_sum"))
        unshifted, _ = two_means(h.row_sums())
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
                MatchConfig(method="row_sum", threshold="auto", inlier_rate=0.7),
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
                MatchConfig(method="eigenvector"),
                MatchConfig(method="eigenvector", threshold=0.5),
                MatchConfig(method="row_sum"),
                MatchConfig(
                    method="row_sum", threshold="auto", inlier_rate=0.5
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
                MatchConfig(method="eigenvector", threshold=0.9),
                dict(_EIG_DIAG, threshold=0.2846049894151541),
            ),
            (
                MatchConfig(method="eigenvector", threshold="auto"),
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
                MatchConfig(method="row_sum", threshold=7.0),
                dict(_ROW_SUM_DIAG, threshold=7.0),
            ),
            (
                MatchConfig(method="row_sum", threshold="auto", inlier_rate=0.4),
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
            MatchConfig(method="eigenvector", threshold="auto"),
            [True, True],
            dict(
                _FLIP_EIG_DIAG, branch="threshold", threshold=0.35355339059327373,
                degenerate=False,
                warnings=_FLIP_EIG_DIAG["warnings"][:1] + [
                    "fixed cut 0.353553 lies at or below the statistic's range "
                    "[0.707107, 0.707107]; every point is labeled an inlier"
                ],
            ),
        )

class TestCutOutsideTheRange:
    def test_a_cut_at_or_below_the_range_warns_every_point_is_an_inlier(self):
        h = population_h(d=3, n=10, k=4)  # eigenvector entries from 3e-11
        for t in (1e-12, 0.5 * math.sqrt(10)):
            cfg = MatchConfig(method="eigenvector", threshold=t)
            part, diag = match(h, cfg)
            if t < 1:
                assert part.inliers.size == 10
                assert diag.warnings == [
                    f"fixed cut {diag.threshold:.6g} lies at or below the "
                    f"statistic's range [{diag.stat_min:.6g}, "
                    f"{diag.stat_max:.6g}]; every point is labeled an inlier"
                ]
            else:  # the cut is the top of the range: its points are inliers
                assert diag.threshold == diag.stat_max
                assert part.inliers.tolist() == [0, 1, 2, 3]
                assert diag.warnings == []

    def test_a_cut_above_the_range_warns_every_point_is_an_outlier(self):
        h = population_h(d=3, n=10, k=4)  # shifted row sums 0 and 15
        for t, inliers in ((15.5, []), (15.0, [0, 1, 2, 3]), (0.5, [0, 1, 2, 3])):
            cfg = MatchConfig(method="row_sum", threshold=t)
            part, diag = match(h, cfg)
            assert part.inliers.tolist() == inliers
            warned = [
                "fixed cut 15.5 lies above the statistic's range [0, 15]; "
                "every point is labeled an outlier"
            ]
            assert diag.warnings == (warned if t > 15 else [])

    def test_a_stack_is_refused(self):
        rng = np.random.default_rng(30)
        x, ys = rng.standard_normal((3, 40)), rng.standard_normal((2, 3, 40))
        with pytest.raises(ValueError, match="match classifies a pair"):
            match(OverlapMatrix(xp=x, yp=ys), MatchConfig())


class TestThresholdInterval:
    def test_zero_constants_degenerate_to_population_gap(self):
        iv = threshold_interval(d=10, n=20, r=0.5, c1=0.0, c2=0.0)
        assert iv.lo == 0.0
        assert iv.hi == 10 * (0.5 * 20 + 1)
        assert iv.lo < iv.hi

    def test_direct_evaluation(self):
        iv = threshold_interval(d=100, n=100, r=0.9, c1=1.0, c2=1.0)
        logn = math.log(100)
        lo = 100 * math.sqrt(logn) * (10 + 10)
        hi = 100 * 91 - math.sqrt(100 * logn) * (100 + 100 + 90)
        assert iv.lo == lo and abs(lo - 4291.932052578694) < 1e-9
        assert iv.hi == hi and abs(hi - 2876.6985237608933) < 1e-9
        assert iv.lo >= iv.hi  # empty

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
        part = LabelPartition([True, True, False, False, False])
        report = error_rates([0, 1, 2], part)
        assert report.error_g == pytest.approx(1 / 3)
        assert report.error_b == 0.0
        assert report.error_w == pytest.approx(0.2)

    def test_perfect_recovery(self):
        part = LabelPartition([False, True, False, True, False, True])
        report = error_rates([1, 3, 5], part)
        assert (report.error_g, report.error_b, report.error_w) == (0.0, 0.0, 0.0)

    def test_weighted_identity_is_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 50))
            k = int(rng.integers(1, n))
            truth = rng.choice(n, size=k, replace=False)
            est = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            part = LabelPartition(np.isin(np.arange(n), est))
            rep = error_rates(truth, part)
            # (|G| * error_g + |B| * error_b) / n == error_w, exactly, in
            # rational arithmetic on the counts
            eg = Fraction(rep.missed_inliers, rep.n_inliers)
            eb = Fraction(rep.missed_outliers, rep.n_outliers)
            ew = Fraction(rep.missed_inliers + rep.missed_outliers, rep.n)
            assert (rep.n_inliers * eg + rep.n_outliers * eb) / rep.n == ew
            assert rep.missed_inliers + rep.missed_outliers == round(rep.error_w * n)

    def test_empty_sides_rejected(self):
        part = LabelPartition([True, False, False, False])
        with pytest.raises(ValueError):
            error_rates([], part)
        with pytest.raises(ValueError):
            error_rates([0, 1, 2, 3], part)

    @pytest.mark.parametrize(
        "truth, dtype",
        [
            # a mask would be read as the indices {0, 1}, an error_w of 1.0
            ([False, False, True, True], "bool"),
            (np.array([False, False, True, True]), "bool"),
            # fractions would be truncated to {0, 2}
            ([0.9, 2.2], "float64"),
            ([2.0, np.nan], "float64"),
        ],
    )
    def test_a_mask_or_a_fraction_is_not_an_index(self, truth, dtype):
        part = LabelPartition([False, False, True, True])
        with pytest.raises(ValueError) as exc:
            error_rates(truth, part)
        assert str(exc.value) == f"truth indices must be integers, got {dtype} values"

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
        part = LabelPartition([False, True, True, False, False])
        cases += [
            ([], part),
            (np.arange(5), part),
            ([4, 0, 4, 1, 2, 3], part),
            ([5], part),
            ([-1, 2], part),
            ([-1, 5], part),
            ([], LabelPartition(np.zeros(5, dtype=bool))),
            (3, part),
            # a float that is a whole number is an index
            ([4.0, 1.0, 1.0], part),
            (np.array([2.0, 0.0]), part),
            ([7.0], part),
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
        part = LabelPartition([True, False, False, False, True])
        assert np.array_equal(part.inliers, [0, 4])
        assert np.array_equal(part.outliers, [1, 2, 3])
        assert part == LabelPartition(part.inlier_mask())
