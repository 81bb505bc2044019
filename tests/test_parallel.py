"""Splits and split-merge matching: balance, determinism, merge."""

import numpy as np
import pytest

from gramoverlap import (
    MatchConfig,
    PreprocessMode,
    ScenarioSpec,
    build_overlap,
    error_rates,
    generate,
    make_split,
    match,
    parallel_match,
)
from gramoverlap import linalg, parallel
from gramoverlap.overlap import forms_h
from gramoverlap.parallel import resolve_workers


class TestMakeSplit:
    def test_balanced_sizes(self):
        shards = make_split(10, 3, seed=0)
        assert sorted(s.size for s in shards) == [3, 3, 4]

    def test_single_shard_is_identity(self):
        shards = make_split(12, 1, seed=5)
        assert np.array_equal(shards[0], np.arange(12))

    def test_bijection(self):
        for n, s, seed in [(10, 3, 1), (23, 5, 2), (100, 7, 3), (8, 4, 4)]:
            merged = np.concatenate(make_split(n, s, seed))
            assert np.array_equal(np.sort(merged), np.arange(n))

    def test_deterministic(self):
        a = make_split(40, 4, seed=11)
        b = make_split(40, 4, seed=11)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa, sb)

    def test_random_across_seeds(self):
        a = make_split(40, 4, seed=1)
        b = make_split(40, 4, seed=2)
        assert any(
            not np.array_equal(sa, sb) for sa, sb in zip(a, b)
        )

    def test_range_validation(self):
        with pytest.raises(ValueError):
            make_split(10, 0, seed=0)
        with pytest.raises(ValueError):
            make_split(10, 6, seed=0)  # would leave a singleton shard
        for s in (1.5, True, 2.0, "2"):  # a shard count is an integer
            with pytest.raises(ValueError, match="s must be an integer"):
                make_split(10, s, seed=0)
        make_split(10, 5, seed=0)  # boundary: shards of exactly 2
        make_split(10, np.int64(5), seed=0)

    @pytest.mark.parametrize(
        "n, s, seed, shards",
        [
            (2, 1, 0, [[0, 1]]),
            (7, 3, 1, [[0, 1, 5], [2, 4], [3, 6]]),
            (10, 4, 12345, [[1, 4, 8], [3, 7, 9], [0, 6], [2, 5]]),
            (11, 2, 0, [[0, 2, 3, 4, 6, 7], [1, 5, 8, 9, 10]]),
            (13, 5, 1, [[1, 7, 10], [4, 9, 12], [0, 5, 8], [2, 11], [3, 6]]),
        ],
    )
    def test_shards_are_pinned(self, n, s, seed, shards):
        # a seed's shards, and so a --splits partition, stay the same across
        # versions: these were recorded before make_split used np.array_split
        got = make_split(n, s, seed)
        assert isinstance(got, tuple)
        assert [a.tolist() for a in got] == shards
        assert all(a.dtype == np.intp for a in got)

    def test_negative_seed_is_refused_by_name(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            make_split(10, 2, seed=-1)

    def test_seed_must_be_an_integer(self):
        for seed in (True, 1.5, 2.0, "2"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                make_split(40, 2, seed)
        assert [a.tolist() for a in make_split(7, 3, np.int64(1))] == [
            [0, 1, 5], [2, 4], [3, 6],
        ]


class TestResolveWorkers:
    def test_explicit_wins(self):
        assert resolve_workers(3, s=8) == 3

    def test_capped_by_shards(self):
        assert resolve_workers(16, s=2) == 2

    @pytest.mark.parametrize("requested", [0, 1.5, True, "2", np.float64(2.0)])
    def test_invalid(self, requested):
        with pytest.raises(ValueError):
            resolve_workers(requested, s=4)

    def test_default_is_the_affinity_set_not_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            parallel.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False
        )
        assert resolve_workers(None, s=8) == 2
        # where the platform reports no affinity, the CPU count stands in
        monkeypatch.delattr(parallel.os, "sched_getaffinity")
        assert resolve_workers(None, s=8) == 8


def easy_pair(seed, d=40, n=200, r=0.8):
    return generate(
        ScenarioSpec(d=d, n=n, r=r, kind="gaussian_outliers", seed=seed)
    )


class TestParallelMatch:
    def test_single_shard_reduces_to_unsplit(self):
        pair = easy_pair(3)
        cfg = MatchConfig(method="row_sum")
        report = parallel_match(pair.x, pair.y, 1, cfg, PreprocessMode.NONE, 7)
        h = build_overlap(pair.x, pair.y, PreprocessMode.NONE)
        direct, _ = match(h, cfg)
        assert report.partition == direct

    def test_two_shards_exact_recovery_on_easy_instance(self):
        # normalized columns keep each shard separable: exact recovery on
        # both shards composes to exact recovery overall
        pair = easy_pair(5, d=50, n=400)
        cfg = MatchConfig(method="row_sum")
        report = parallel_match(
            pair.x, pair.y, 2, cfg, PreprocessMode.CENTER_NORMALIZE, 13
        )
        assert error_rates(pair.inliers, report.partition).error_w == 0.0
        assert len(report.shard_diagnostics) == 2

    def test_default_threshold_rescales_per_shard(self):
        # the rate-derived default threshold uses each shard's own size m:
        # T = d * (r*m + 1) / 2
        pair = easy_pair(6, d=30, n=90)
        cfg = MatchConfig(
            method="row_sum",
            threshold="auto",
            inlier_rate=0.8,
        )
        report = parallel_match(pair.x, pair.y, 3, cfg, PreprocessMode.NONE, 13)
        for j, diag in enumerate(report.shard_diagnostics):
            m = report.shards[j].size
            assert diag.threshold == 30 * (0.8 * m + 1) / 2

    def test_merge_covers_everything(self):
        pair = easy_pair(7)
        cfg = MatchConfig(method="row_sum")
        for s in (1, 2, 4, 5):
            report = parallel_match(pair.x, pair.y, s, cfg, seed=1)
            part = report.partition
            assert part.inliers.size + part.outliers.size == 200
            assert len(report.shard_times_ms) == s

    def test_seed_must_be_an_integer(self):
        pair = easy_pair(7)
        for seed in (True, 1.5):
            with pytest.raises(ValueError, match="seed must be an integer"):
                parallel_match(pair.x, pair.y, 2, MatchConfig("row_sum"), seed=seed)

    def test_deterministic_across_worker_counts_and_runs(self):
        # 50-point shards at d = 40 form H (2 d >= 50), so the pool runs
        pair = easy_pair(9)
        for method, extra in (
            ("row_sum", {}),
            ("eigenvector", {}),
        ):
            cfg = MatchConfig(method=method, **extra)
            reports = [
                parallel_match(pair.x, pair.y, 4, cfg, seed=3, max_workers=w)
                for w in (1, 2, 4, 1)
            ]
            assert [r.workers for r in reports] == [1, 2, 4, 1]
            parts = [r.partition for r in reports]
            assert all(p == parts[0] for p in parts[1:])

    def test_error_close_to_unsplit_on_moderate_instance(self):
        pair = easy_pair(11, d=50, n=400, r=0.8)
        cfg = MatchConfig(method="row_sum")
        mode = PreprocessMode.CENTER_NORMALIZE
        unsplit = parallel_match(pair.x, pair.y, 1, cfg, mode, 2)
        split4 = parallel_match(pair.x, pair.y, 4, cfg, mode, 2)
        e1 = error_rates(pair.inliers, unsplit.partition).error_w
        e4 = error_rates(pair.inliers, split4.partition).error_w
        assert abs(e1 - e4) <= 0.02

    def test_global_preprocessing_happens_once(self):
        # shard statistics must come from globally normalized columns: a
        # column scaling that global normalization removes must not change
        # the outcome
        pair = easy_pair(13, d=30, n=60, r=0.5)
        cfg = MatchConfig(method="row_sum")
        mode = PreprocessMode.CENTER_NORMALIZE
        base = parallel_match(pair.x, pair.y, 3, cfg, mode, 5).partition
        scaled = parallel_match(pair.x, pair.y * 7.5, 3, cfg, mode, 5).partition
        assert base == scaled

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            parallel_match(np.ones((2, 8)), np.ones((2, 9)), 2, MatchConfig())

    @pytest.mark.parametrize(
        "x, y",
        [
            (np.ones((2, 8)), np.ones((2, 9))),
            (np.full((2, 8), np.nan), np.ones((2, 8))),
            (np.ones((2, 1)), np.ones((2, 1))),
        ],
        ids=["shape", "non-finite", "one-point"],
    )
    def test_inputs_checked_as_factored_overlap_checks_them(self, x, y):
        # the whole input is checked once, as build_overlap checks it
        with pytest.raises(ValueError) as expected:
            build_overlap(x, y, PreprocessMode.CENTER_NORMALIZE)
        with pytest.raises(ValueError) as got:
            parallel_match(x, y, 1, MatchConfig())
        assert str(got.value) == str(expected.value)

    def test_degenerate_shard_warns_not_raises(self):
        # every column identical: the row-sum statistic is constant in each
        # shard, so both shards fall back to all-outliers with a warning
        x = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 12))
        cfg = MatchConfig(method="row_sum")
        report = parallel_match(x, x.copy(), 2, cfg, PreprocessMode.NONE, 1)
        assert report.partition.n == 12
        assert report.partition.inliers.size == 0
        assert all(d.degenerate for d in report.shard_diagnostics)
        assert len(report.warnings) == 2


    def test_a_missing_rate_is_refused_before_the_inputs_are_read(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the inputs were read")

        monkeypatch.setattr(parallel, "_preprocessed_pair", refuse)
        monkeypatch.setattr(parallel, "build_overlap", refuse)
        x, y = np.random.default_rng(9).standard_normal((2, 5, 80))
        cfg = MatchConfig(method="row_sum", threshold="auto")
        with pytest.raises(ValueError) as exc:
            parallel_match(x, y, 4, cfg, backend="dense")
        assert str(exc.value) == "default row-sum threshold requires inlier_rate to be set"

    @pytest.mark.parametrize("s", [1.5, True])
    def test_a_shard_count_that_is_no_integer_is_refused_before_any_shard(
        self, monkeypatch, s
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a shard ran")

        monkeypatch.setattr(parallel, "build_overlap", refuse)
        x, y = np.random.default_rng(10).standard_normal((2, 5, 80))
        with pytest.raises(ValueError, match="s must be an integer"):
            parallel_match(x, y, s, MatchConfig())


class TestShardBackends:
    # match-split's shape: d = 10, n = 4000 in 4 shards of 1000 (2 d < 1000)
    CFG = MatchConfig(method="row_sum")
    MODE = PreprocessMode.CENTER_NORMALIZE

    def test_shards_take_the_factors_and_give_the_dense_partition(self):
        for seed in (1, 7, 301):
            pair = easy_pair(seed, d=10, n=4000)
            args = (pair.x, pair.y, 4, self.CFG, self.MODE, seed)
            factored = parallel_match(*args, max_workers=2)
            dense = parallel_match(*args, max_workers=2, backend="dense")
            got = [d.row_sum_backend for d in factored.shard_diagnostics]
            assert got == ["gram_factor"] * 4
            assert [d.row_sum_backend for d in dense.shard_diagnostics] == [
                "dense"
            ] * 4
            assert factored.partition == dense.partition, seed

    def test_factored_shards_deterministic_across_worker_counts(self, monkeypatch):
        def no_gram(x):
            raise AssertionError("gram called by a factored shard")

        monkeypatch.setattr(linalg, "gram", no_gram)
        monkeypatch.setattr(parallel, "ThreadPoolExecutor", no_pool)
        pair = easy_pair(7, d=10, n=4000)
        one, two = (
            parallel_match(pair.x, pair.y, 4, self.CFG, self.MODE, 7, max_workers=w)
            for w in (1, 2)
        )
        assert one.partition == two.partition
        assert one.workers == two.workers == 1


def no_pool(*args, **kwargs):
    raise AssertionError("thread pool started for shards that never form H")


class TestPoolOnlyWhereHIsFormed:
    # 50-point shards: 2 d < 50 for d <= 24, and 4 d^2 <= 50 only for d <= 3
    def run(self, d, method, backend=None):
        pair = easy_pair(5, d=d, n=200)
        cfg = MatchConfig(method=method)
        return parallel_match(
            pair.x, pair.y, 4, cfg, seed=5, max_workers=2, backend=backend
        )

    @pytest.mark.parametrize("method", ["row_sum", "eigenvector"])
    def test_factored_shards_run_inline(self, monkeypatch, method):
        # d = 3: factored row sums, and the Khatri-Rao eigenpair
        monkeypatch.setattr(parallel, "ThreadPoolExecutor", no_pool)
        report = self.run(3, method)
        assert report.workers == 1
        diag = report.shard_diagnostics
        if method == "row_sum":
            assert {x.row_sum_backend for x in diag} == {"gram_factor"}
        else:
            assert {x.eig_backend for x in diag} == {"gram_factor"}

    @pytest.mark.parametrize(
        "d, method, backend",
        [(3, "row_sum", "dense"), (5, "eigenvector", None)],
        ids=["dense-pinned", "power-iteration"],
    )
    def test_shards_that_form_h_share_one_pool(self, monkeypatch, d, method, backend):
        started = []
        pool = parallel.ThreadPoolExecutor

        def counted(*args, **kwargs):
            started.append(kwargs)
            return pool(*args, **kwargs)

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", counted)
        report = self.run(d, method, backend)
        assert started == [{"max_workers": 2}]
        assert report.workers == 2

    def test_rule_matches_the_shards_that_hold_h(self):
        rng = np.random.default_rng(21)
        cases = 0
        for d in (2, 3, 5, 10):
            x, y = rng.standard_normal((2, d, 120))
            for m in (4, 6, 20, 36, 50, 120):
                for method in ("row_sum", "eigenvector"):
                    for backend in (None, "dense", "gram_factor"):
                        h = build_overlap(x[:, :m], y[:, :m], "none", backend)
                        match(h, MatchConfig(method=method))
                        rule = forms_h(d, m, method == "eigenvector", backend)
                        assert rule == (h._h is not None), (d, m, method, backend)
                        cases += rule
        assert 0 < cases < 4 * 6 * 2 * 3
