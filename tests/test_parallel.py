"""Split plans and split-merge matching: balance, determinism, merge."""

import numpy as np
import pytest

from gramoverlap import (
    MatchConfig,
    PreprocessMode,
    ScenarioSpec,
    build_overlap,
    error_rates,
    factored_overlap,
    generate,
    make_split,
    match,
    parallel_match,
)
from gramoverlap.parallel import resolve_workers


class TestMakeSplit:
    def test_balanced_sizes(self):
        plan = make_split(10, 3, seed=0)
        assert sorted(s.size for s in plan.shards) == [3, 3, 4]

    def test_single_shard_is_identity(self):
        plan = make_split(12, 1, seed=5)
        assert np.array_equal(plan.shards[0], np.arange(12))

    def test_bijection(self):
        for n, s, seed in [(10, 3, 1), (23, 5, 2), (100, 7, 3), (8, 4, 4)]:
            plan = make_split(n, s, seed)
            merged = np.concatenate(plan.shards)
            assert np.array_equal(np.sort(merged), np.arange(n))
            owner = plan.membership()
            for j, idx in enumerate(plan.shards):
                assert np.all(owner[idx] == j)

    def test_deterministic(self):
        a = make_split(40, 4, seed=11)
        b = make_split(40, 4, seed=11)
        for sa, sb in zip(a.shards, b.shards):
            assert np.array_equal(sa, sb)

    def test_random_across_seeds(self):
        a = make_split(40, 4, seed=1)
        b = make_split(40, 4, seed=2)
        assert any(
            not np.array_equal(sa, sb) for sa, sb in zip(a.shards, b.shards)
        )

    def test_range_validation(self):
        with pytest.raises(ValueError):
            make_split(10, 0, seed=0)
        with pytest.raises(ValueError):
            make_split(10, 6, seed=0)  # would leave a singleton shard
        make_split(10, 5, seed=0)  # boundary: shards of exactly 2


class TestResolveWorkers:
    def test_explicit_wins(self):
        assert resolve_workers(3, s=8) == 3

    def test_capped_by_shards(self):
        assert resolve_workers(16, s=2) == 2

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("GRAMOVERLAP_THREADS", "2")
        assert resolve_workers(None, s=8) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            resolve_workers(0, s=4)


def easy_pair(seed, d=40, n=200, r=0.8):
    return generate(
        ScenarioSpec(d=d, n=n, r=r, kind="gaussian_outliers", seed=seed)
    )


class TestParallelMatch:
    def test_single_shard_reduces_to_unsplit(self):
        pair = easy_pair(3)
        cfg = MatchConfig(method="row_sum", preprocess=PreprocessMode.NONE, seed=7)
        report = parallel_match(pair.x, pair.y, 1, cfg)
        h = build_overlap(pair.x, pair.y, PreprocessMode.NONE)
        direct, _ = match(h, cfg)
        assert report.partition == direct

    def test_two_shards_exact_recovery_on_easy_instance(self):
        # normalized columns keep each shard separable: exact recovery on
        # both shards composes to exact recovery overall
        pair = easy_pair(5, d=50, n=400)
        cfg = MatchConfig(
            method="row_sum", preprocess=PreprocessMode.CENTER_NORMALIZE, seed=13
        )
        report = parallel_match(pair.x, pair.y, 2, cfg)
        assert error_rates(pair.inliers, report.partition).error_w == 0.0
        assert len(report.shard_diagnostics) == 2

    def test_default_threshold_rescales_per_shard(self):
        # the rate-derived default threshold uses each shard's own size m:
        # T = d * (r*m + 1) / 2
        pair = easy_pair(6, d=30, n=90)
        cfg = MatchConfig(
            method="row_sum",
            use_two_means=False,
            inlier_rate=0.8,
            preprocess=PreprocessMode.NONE,
            seed=13,
        )
        report = parallel_match(pair.x, pair.y, 3, cfg)
        for j, diag in enumerate(report.shard_diagnostics):
            m = report.plan.shards[j].size
            assert diag.threshold == 30 * (0.8 * m + 1) / 2

    def test_merge_covers_everything(self):
        pair = easy_pair(7)
        cfg = MatchConfig(method="row_sum", seed=1)
        for s in (1, 2, 4, 5):
            report = parallel_match(pair.x, pair.y, s, cfg)
            part = report.partition
            assert part.inliers.size + part.outliers.size == 200
            assert len(report.shard_times_ms) == s

    def test_deterministic_across_worker_counts_and_runs(self):
        pair = easy_pair(9)
        for method, extra in (
            ("row_sum", {}),
            ("eigenvector", {}),
        ):
            cfg = MatchConfig(method=method, seed=3, **extra)
            parts = [
                parallel_match(pair.x, pair.y, 4, cfg, max_workers=w).partition
                for w in (1, 2, 4, 1)
            ]
            assert all(p == parts[0] for p in parts[1:])

    def test_error_close_to_unsplit_on_moderate_instance(self):
        pair = easy_pair(11, d=50, n=400, r=0.8)
        cfg = MatchConfig(
            method="row_sum", preprocess=PreprocessMode.CENTER_NORMALIZE, seed=2
        )
        unsplit = parallel_match(pair.x, pair.y, 1, cfg)
        split4 = parallel_match(pair.x, pair.y, 4, cfg)
        e1 = error_rates(pair.inliers, unsplit.partition).error_w
        e4 = error_rates(pair.inliers, split4.partition).error_w
        assert abs(e1 - e4) <= 0.02

    def test_global_preprocessing_happens_once(self):
        # shard statistics must come from globally normalized columns: a
        # column scaling that global normalization removes must not change
        # the outcome
        pair = easy_pair(13, d=30, n=60, r=0.5)
        cfg = MatchConfig(
            method="row_sum", preprocess=PreprocessMode.CENTER_NORMALIZE, seed=5
        )
        base = parallel_match(pair.x, pair.y, 3, cfg).partition
        scaled = parallel_match(pair.x, pair.y * 7.5, 3, cfg).partition
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
        cfg = MatchConfig()
        with pytest.raises(ValueError) as expected:
            factored_overlap(x, y, cfg.preprocess)
        with pytest.raises(ValueError) as got:
            parallel_match(x, y, 1, cfg)
        assert str(got.value) == str(expected.value)

    def test_degenerate_shard_warns_not_raises(self):
        # every column identical: the row-sum statistic is constant in each
        # shard, so both shards fall back to all-outliers with a warning
        x = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 12))
        cfg = MatchConfig(method="row_sum", preprocess=PreprocessMode.NONE, seed=1)
        report = parallel_match(x, x.copy(), 2, cfg)
        assert report.partition.n == 12
        assert report.partition.inliers.size == 0
        assert all(d.degenerate for d in report.shard_diagnostics)
        assert len(report.warnings) == 2
