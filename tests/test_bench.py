"""Sweep harness: method specs, row summaries, CSV round trip."""

import time

import pytest

from gramoverlap import PreprocessMode, linalg
from gramoverlap.bench import (
    DEFAULT_METHODS,
    SWEEP_COLUMNS,
    parse_method,
    read_sweep_csv,
    run_noise_sweep,
    run_rate_sweep,
    run_splits_sweep,
    write_sweep_csv,
)


class TestParseMethod:
    def test_variants(self):
        m = parse_method("eig:0.5")
        assert m.method == "eigenvector" and m.threshold == 0.5
        m = parse_method("rowsum:kmeans")
        assert m.method == "row_sum" and m.use_two_means
        m = parse_method("rowsum:auto")
        assert m.auto_threshold and m.threshold is None

    def test_rejects_garbage(self):
        for text in ("what", "eig", "eig:zero", "rowsum:-1", "foo:0.5"):
            with pytest.raises(ValueError):
                parse_method(text)

    def test_auto_config_carries_rate(self):
        cfg = parse_method("rowsum:auto").config(PreprocessMode.NONE, seed=1, r=0.25)
        assert cfg.inlier_rate == 0.25 and not cfg.use_two_means


class TestSweeps:
    def test_rate_sweep_rows(self):
        rows = run_rate_sweep(
            d=5,
            n=40,
            r_values=[0.5, 0.75],
            trials=4,
            seed=9,
            methods=("rowsum:kmeans", "eig:kmeans"),
        )
        assert len(rows) == 4
        assert {row["method"] for row in rows} == {"rowsum:kmeans", "eig:kmeans"}
        for row in rows:
            assert row["trials"] == 4
            assert 0.0 <= row["error_w_mean"] <= 1.0
            assert row["time_ms_mean"] > 0

    def test_deterministic(self):
        kwargs = dict(
            d=4, n=30, r=0.5, sigma2_values=[0.0, 1.0], trials=3, seed=2,
            methods=("rowsum:kmeans",),
        )
        a = run_noise_sweep(**kwargs)
        b = run_noise_sweep(**kwargs)
        for ra, rb in zip(a, b):
            assert ra["error_w_mean"] == rb["error_w_mean"]

    def test_splits_sweep_uses_parallel_path(self):
        rows = run_splits_sweep(
            d=6, n=48, r=0.5, split_values=[1, 2], trials=2, seed=3,
            method="rowsum:kmeans",
        )
        assert [int(r["value"]) for r in rows] == [1, 2]

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_raise(self, trials):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run_rate_sweep(d=4, n=24, r_values=[0.5], trials=trials, seed=1)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run_noise_sweep(
                d=4, n=24, r=0.5, sigma2_values=[0.0], trials=trials, seed=1
            )
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run_splits_sweep(
                d=4, n=24, r=0.5, split_values=[1], trials=trials, seed=1
            )

    def test_csv_round_trip(self, tmp_path):
        rows = run_rate_sweep(
            d=4, n=24, r_values=[0.5], trials=2, seed=5, methods=("eig:kmeans",)
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        back = read_sweep_csv(path)
        assert list(back[0]) == SWEEP_COLUMNS
        for key in ("value", "error_w_mean", "time_ms_mean"):
            assert back[0][key] == pytest.approx(rows[0][key])


class TestStatisticOncePerOverlap:
    EIG_METHODS = ("eig:0.3", "eig:0.5", "eig:0.7", "eig:kmeans")

    @pytest.mark.parametrize(
        "d, n, backend",
        [(4, 300, "khatri_rao_eigenpair"), (6, 60, "power_iteration")],
    )
    def test_one_eigenpair_per_trial_charged_to_every_method(
        self, monkeypatch, d, n, backend
    ):
        calls = {"khatri_rao_eigenpair": 0, "power_iteration": 0}

        def counted(name):
            original = getattr(linalg, name)

            def solve(*args, **kwargs):
                calls[name] += 1
                time.sleep(0.02)  # a solve every method must be charged for
                return original(*args, **kwargs)

            return solve

        for name in calls:
            monkeypatch.setattr(linalg, name, counted(name))
        rows = run_rate_sweep(
            d=d, n=n, r_values=[0.5], trials=2, seed=4, methods=self.EIG_METHODS
        )
        assert calls == {
            "khatri_rao_eigenpair": 2 * (backend == "khatri_rao_eigenpair"),
            "power_iteration": 2 * (backend == "power_iteration"),
        }
        assert [row["method"] for row in rows] == list(self.EIG_METHODS)
        for row in rows:
            assert row["time_ms_mean"] >= 20.0

    def test_h_formed_once_and_charged_to_the_statistics_that_read_it(
        self, monkeypatch
    ):
        # d = 50, n = 400: the eigenpair takes power iteration on H, the row
        # sums come from the factors; H is formed once per trial and its time
        # charged to the eig:* methods only
        calls = {"gram": 0, "power_iteration": 0, "khatri_rao_row_sums": 0}

        def counted(name, pause):
            original = getattr(linalg, name)

            def call(*args, **kwargs):
                calls[name] += 1
                time.sleep(pause)
                return original(*args, **kwargs)

            return call

        monkeypatch.setattr(linalg, "gram", counted("gram", 0.05))
        for name in ("power_iteration", "khatri_rao_row_sums"):
            monkeypatch.setattr(linalg, name, counted(name, 0.0))
        rows = run_rate_sweep(
            d=50, n=400, r_values=[0.8], trials=2, seed=6, methods=DEFAULT_METHODS
        )
        assert calls == {"gram": 4, "power_iteration": 2, "khatri_rao_row_sums": 2}
        times = {row["method"]: row["time_ms_mean"] for row in rows}
        assert list(times) == list(DEFAULT_METHODS)
        for label in self.EIG_METHODS:
            assert times[label] >= 100.0
        assert times["rowsum:kmeans"] < 100.0
