"""Sweep harness: method specs, row summaries, CSV round trip."""

import time

import numpy as np
import pytest

from gramoverlap import ErrorReport, bench, linalg
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
        assert not m.use_two_means and m.threshold is None

    def test_rejects_garbage(self):
        for text in ("what", "eig", "eig:zero", "rowsum:-1", "foo:0.5"):
            with pytest.raises(ValueError):
                parse_method(text)

    def test_auto_config_carries_rate(self):
        cfg = bench._at_rate(parse_method("rowsum:auto"), r=0.25)
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

    def test_splits_sweep_shards_form_h(self, monkeypatch):
        # every shard forms its dense H from two Grams, also where the row-sum
        # rule would pick the factors (2 d < n / s here), so the sweep times
        # the n^2 / s split-merge
        calls = []
        gram = linalg.gram
        monkeypatch.setattr(linalg, "gram", lambda x: calls.append(x.shape) or gram(x))
        trials = 2
        for s in (1, 2, 4):
            calls.clear()
            run_splits_sweep(
                d=3, n=48, r=0.5, split_values=[s], trials=trials, seed=3,
                method="rowsum:kmeans", max_workers=1,
            )
            assert len(calls) == 2 * s * trials
            assert {n for _, n in calls} == {48 // s}

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

    @pytest.mark.parametrize(
        "sweep, grid",
        [
            (run_rate_sweep, dict(r_values=[0.5, 0.33])),
            (run_noise_sweep, dict(r=0.5, sigma2_values=[0.0, -1.0])),
            (run_splits_sweep, dict(r=0.5, split_values=[1, 13])),
        ],
    )
    def test_bad_late_grid_point_raises_before_any_trial(
        self, monkeypatch, sweep, grid
    ):
        calls = []
        generate = bench.generate
        monkeypatch.setattr(
            bench, "generate", lambda spec: calls.append(spec) or generate(spec)
        )
        with pytest.raises(ValueError):
            sweep(d=4, n=24, trials=5, seed=1, **grid)
        assert calls == []

    @pytest.mark.parametrize(
        "sweep, grid",
        [
            (run_rate_sweep, dict(r_values=[0.8])),
            (run_noise_sweep, dict(r=0.8, sigma2_values=[0.0])),
        ],
    )
    def test_repeated_method_spec_raises_before_any_trial(
        self, monkeypatch, sweep, grid
    ):
        # rows are labelled by spec text, so a repeat would merge into one
        # row of twice the trials
        calls = []
        generate = bench.generate
        monkeypatch.setattr(
            bench, "generate", lambda spec: calls.append(spec) or generate(spec)
        )
        methods = ("eig:kmeans", "rowsum:kmeans", "eig:kmeans")
        with pytest.raises(ValueError, match="'eig:kmeans' is given twice"):
            sweep(d=6, n=40, trials=2, seed=1, methods=methods, **grid)
        assert calls == []

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


def per_column_summary_row(sweep, value, label, errs, times_ms) -> dict:
    """The reference: a mean and an sd taken on each column by itself."""
    row = {"sweep": sweep, "value": value, "method": label, "trials": len(errs)}
    columns = {
        "error_g": np.array([e.error_g for e in errs]),
        "error_b": np.array([e.error_b for e in errs]),
        "error_w": np.array([e.error_w for e in errs]),
        "time_ms": np.asarray(times_ms),
    }
    for name, col in columns.items():
        row[f"{name}_mean"] = col.mean()
        row[f"{name}_std"] = col.std()
    return row


def parent_summary_row(sweep, value, label, errs, times_ms) -> dict:
    """The reference: _summary_row before its reductions were called
    directly (mean(axis=1) and std(axis=1) of the (4, trials) array)."""
    cols = np.array(
        [
            [e.error_g for e in errs],
            [e.error_b for e in errs],
            [e.error_w for e in errs],
            times_ms,
        ],
        dtype=np.float64,
    )
    row = {"sweep": sweep, "value": value, "method": label, "trials": len(errs)}
    for name, mean, std in zip(
        ("error_g", "error_b", "error_w", "time_ms"), cols.mean(axis=1), cols.std(axis=1)
    ):
        row[f"{name}_mean"] = mean
        row[f"{name}_std"] = std
    return row


class TestSummaryRow:
    @pytest.mark.parametrize("trials", [1, 2, 3, 9, 130, 1000])
    def test_bit_identical_to_per_column_reductions(self, trials):
        rng = np.random.default_rng(trials)
        errs = []
        for _ in range(trials):
            n = int(rng.integers(2, 500))
            k = int(rng.integers(1, n))
            errs.append(
                ErrorReport(
                    n, k, n - k, int(rng.integers(0, k + 1)),
                    int(rng.integers(0, n - k + 1)),
                )
            )
        times = rng.lognormal(size=trials)
        for t in (
            times,
            times + 1e6,
            np.ldexp(times, -30),
            np.ldexp(times + 1e6, 40),
            rng.integers(0, 3, trials).astype(float),  # ties
            np.full(trials, 7.25),  # constant: sd 0
        ):
            got = bench._summary_row("r", 0.5, "eig:kmeans", errs, t.tolist())
            # repr of a float64 round-trips, so equal reprs are equal bits
            got = {k: repr(v) for k, v in got.items()}
            for reference in (per_column_summary_row, parent_summary_row):
                want = reference("r", 0.5, "eig:kmeans", errs, t.tolist())
                assert got == {k: repr(v) for k, v in want.items()}

    def test_rate_sweep_csv_matches_per_column_reference(self, tmp_path, monkeypatch):
        kwargs = dict(d=5, n=40, r_values=[0.25, 0.5, 0.75], trials=4, seed=11)
        write_sweep_csv(tmp_path / "got.csv", run_rate_sweep(**kwargs))
        monkeypatch.setattr(bench, "_summary_row", per_column_summary_row)
        write_sweep_csv(tmp_path / "want.csv", run_rate_sweep(**kwargs))

        def untimed(name):
            # the two time_ms columns come last
            lines = (tmp_path / name).read_text().splitlines()
            return [line.rsplit(",", 2)[0] for line in lines]

        assert SWEEP_COLUMNS[-2:] == ["time_ms_mean", "time_ms_std"]
        assert untimed("got.csv") == untimed("want.csv")
        assert len(untimed("got.csv")) == 1 + 3 * len(DEFAULT_METHODS)


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
