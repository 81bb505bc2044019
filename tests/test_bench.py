"""Sweep harness: method specs, row summaries, CSV round trip."""

import csv
import time
import weakref

import numpy as np
import pytest

from dataclasses import replace

from gramoverlap import (
    DegenerateColumnError,
    ErrorReport,
    MatchConfig,
    OverlapMatrix,
    PreprocessMode,
    bench,
    build_overlap,
    error_rates,
    linalg,
    match,
    overlap,
    parallel_match,
)
from gramoverlap.synth import ScenarioSpec, derive_seed, generate
from gramoverlap.bench import (
    DEFAULT_METHODS,
    SWEEP_COLUMNS,
    parse_method,
    run_rate_sweep,
    run_sweep,
    write_sweep_csv,
)


class TestParseMethod:
    def test_variants(self):
        m = parse_method("eig:0.5")
        assert m.method == "eigenvector" and m.threshold == 0.5
        m = parse_method("rowsum:kmeans")
        assert m.method == "row_sum" and m.threshold is None
        m = parse_method("rowsum:auto")
        assert m.threshold == "auto"

    def test_a_spec_is_the_config_built_directly(self):
        # the branch token is the threshold: kmeans is None, auto "auto"
        # and a number its float
        direct = {
            "eig:0.3": MatchConfig("eigenvector", 0.3),
            "eig:0.5": MatchConfig("eigenvector", 0.5),
            "eig:0.7": MatchConfig("eigenvector", 0.7),
            "eig:kmeans": MatchConfig("eigenvector"),
            "rowsum:kmeans": MatchConfig("row_sum"),
            "rowsum:auto": MatchConfig("row_sum", "auto"),
            "rowsum:12.5": MatchConfig("row_sum", 12.5),
        }
        assert set(DEFAULT_METHODS) < set(direct)
        for text, cfg in direct.items():
            assert parse_method(text) == cfg, text

    def test_rejects_garbage(self):
        for text in (
            "what", "eig", "eig:zero", "rowsum:-1", "foo:0.5", "eig:inf",
            "rowsum:1e309",
        ):
            with pytest.raises(ValueError):
                parse_method(text)

    def test_auto_config_carries_rate(self):
        cfg = bench._at_rate(parse_method("rowsum:auto"), r=0.25)
        assert cfg.inlier_rate == 0.25 and cfg.threshold == "auto"


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
            d=4, n=30, r=0.5, values=[0.0, 1.0], trials=3, seed=2,
            methods=("rowsum:kmeans",),
        )
        a = run_sweep("sigma2", **kwargs)
        b = run_sweep("sigma2", **kwargs)
        for ra, rb in zip(a, b):
            assert ra["error_w_mean"] == rb["error_w_mean"]

    def test_splits_sweep_uses_parallel_path(self):
        rows = run_sweep(
            "splits", [1, 2], 2, d=6, n=48, r=0.5, seed=3, methods=("rowsum:kmeans",)
        )
        assert [int(r["value"]) for r in rows] == [1, 2]

    def test_splits_sweep_methods_match_single_method_runs(self):
        # each method runs its own split-merge on the trial's data, so two
        # methods in one sweep give the rows of two one-method sweeps
        kwargs = dict(
            axis="splits", values=[1, 2, 4], trials=3, d=6, n=48, r=0.5, seed=3,
            kind="permuted_inliers", preprocess=PreprocessMode.CENTER_NORMALIZE,
            max_workers=2,
        )
        methods = ("rowsum:kmeans", "eig:0.5")
        both = run_sweep(methods=methods, **kwargs)
        single = [run_sweep(methods=(m,), **kwargs) for m in methods]
        untimed = [k for k in SWEEP_COLUMNS if not k.startswith("time_ms")]
        assert [{k: r[k] for k in untimed} for r in both] == [
            {k: r[k] for k in untimed}
            for point in zip(*single)
            for r in point
        ]
        assert [r["method"] for r in both] == list(methods) * 3

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
            run_sweep(
                "splits", [s], trials, d=3, n=48, r=0.5, seed=3,
                methods=("rowsum:kmeans",), max_workers=1,
            )
            assert len(calls) == 2 * s * trials
            assert {n for _, n in calls} == {48 // s}

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_raise(self, trials):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run_rate_sweep(d=4, n=24, r_values=[0.5], trials=trials, seed=1)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run_sweep("sigma2", [0.0], trials, d=4, n=24, r=0.5, seed=1)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run_sweep("splits", [1], trials, d=4, n=24, r=0.5, seed=1)

    @pytest.mark.parametrize("trials", [1.5, True])
    @pytest.mark.parametrize(
        "axis, grid, fixed",
        [("r", [0.5], {}), ("splits", [1], dict(r=0.5))],
    )
    def test_trials_that_are_no_integer_raise_before_any_trial(
        self, monkeypatch, axis, grid, fixed, trials
    ):
        calls = []
        monkeypatch.setattr(bench, "_draw_trial", lambda *args: calls.append(args))
        with pytest.raises(bench.SweepPlanError, match="trials must be an integer"):
            run_sweep(axis, grid, trials, d=4, n=40, seed=1, **fixed)
        assert calls == []

    @pytest.mark.parametrize(
        "axis, grid, fixed",
        [
            ("r", [0.5, 0.33], {}),
            ("sigma2", [0.0, -1.0], dict(r=0.5)),
            ("splits", [1, 13], dict(r=0.5)),
            ("splits", [1, 1.5], dict(r=0.5)),
            ("splits", [1, True], dict(r=0.5)),
        ],
    )
    def test_bad_late_grid_point_raises_before_any_trial(
        self, monkeypatch, axis, grid, fixed
    ):
        calls = []
        draw = bench._draw_trial
        monkeypatch.setattr(
            bench, "_draw_trial", lambda *args: calls.append(args) or draw(*args)
        )
        with pytest.raises(bench.SweepPlanError):
            run_sweep(axis, grid, 5, d=4, n=24, seed=1, **fixed)
        assert calls == []

    @pytest.mark.parametrize(
        "axis, grid, fixed",
        [
            ("r", [0.8], {}),
            ("sigma2", [0.0], dict(r=0.8)),
            ("splits", [1, 2], dict(r=0.8)),
        ],
    )
    def test_repeated_method_spec_raises_before_any_trial(
        self, monkeypatch, axis, grid, fixed
    ):
        # rows are labelled by spec text, so a repeat would merge into one
        # row of twice the trials
        calls = []
        draw = bench._draw_trial
        monkeypatch.setattr(
            bench, "_draw_trial", lambda *args: calls.append(args) or draw(*args)
        )
        methods = ("eig:kmeans", "rowsum:kmeans", "eig:kmeans")
        with pytest.raises(ValueError, match="'eig:kmeans' is given twice"):
            run_sweep(axis, grid, 2, methods, d=6, n=40, seed=1, **fixed)
        assert calls == []

    @pytest.mark.parametrize(
        "axis, grid, fixed, error, message",
        [
            # only a splits point runs a pool
            ("r", [0.5], dict(max_workers=1), ValueError,
             "a sweep over r takes no max_workers"),
            ("sigma2", [0.0], dict(r=0.5, max_workers=2), ValueError,
             "a sweep over sigma2 takes no max_workers"),
            ("n", [40], dict(r=0.5), ValueError, "unknown sweep axis 'n'"),
            # a pool takes a whole number of workers, at least one
            ("splits", [1, 2], dict(r=0.5, max_workers=0), bench.SweepPlanError,
             "worker count must be at least 1"),
            ("splits", [1, 2], dict(r=0.5, max_workers=1.5), bench.SweepPlanError,
             r"max_workers must be an integer, got 1\.5"),
            ("splits", [1, 2], dict(r=0.5, max_workers=True), bench.SweepPlanError,
             "max_workers must be an integer, got True"),
            ("splits", [1, 2], dict(r=0.5, max_workers="2"), bench.SweepPlanError,
             "max_workers must be an integer, got '2'"),
            # the axis is the one field a sweep does not hold fixed
            ("r", [0.5], dict(r=0.5), TypeError,
             "multiple values for keyword argument 'r'"),
        ],
    )
    def test_a_plan_outside_the_axis_is_refused_before_any_trial(
        self, monkeypatch, axis, grid, fixed, error, message
    ):
        calls = []
        draw = bench._draw_trial
        monkeypatch.setattr(
            bench, "_draw_trial", lambda *args: calls.append(args) or draw(*args)
        )
        with pytest.raises(error, match=message):
            run_sweep(axis, grid, 2, d=4, n=40, seed=1, **fixed)
        assert calls == []

    def test_each_axis_has_its_default_methods(self):
        fixed = dict(d=4, n=40, r=0.5, seed=1)
        for axis, values, methods in (
            ("r", [0.5], DEFAULT_METHODS),
            ("sigma2", [0.0], DEFAULT_METHODS),
            ("splits", [1], (bench.DEFAULT_SPLITS_METHOD,)),
        ):
            scenario = {k: v for k, v in fixed.items() if k != axis}
            specs, _ = bench.check_sweep(axis, values, 1, **scenario)
            assert [label for label, _ in specs] == list(methods)
            rows = run_sweep(axis, values, 1, **scenario)
            assert [row["method"] for row in rows] == list(methods)

    def test_csv_round_trip(self, tmp_path):
        rows = run_rate_sweep(
            d=4, n=24, r_values=[0.5], trials=2, seed=5, methods=("eig:kmeans",)
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        with open(path, newline="") as f:
            back = list(csv.DictReader(f))
        assert list(back[0]) == SWEEP_COLUMNS
        for key in ("value", "error_w_mean", "time_ms_mean"):
            assert float(back[0][key]) == pytest.approx(rows[0][key])


# The error columns (error_g, error_b and error_w, each mean then sd) of
# run_rate_sweep(d=6, n=400, r_values=PINNED_RATES, trials=3, seed=0) with
# the default methods, recorded when the Khatri-Rao eigenpair came from a full
# eigh of Z Z^T.  The squaring solver agrees with it to rounding, and no
# partition may move.
PINNED_RATES = (0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9)
PINNED_SWEEP_ERRORS = {
    (0.55, "eig:0.3"): (
        0.0, 0.0, 0.3, 0.025255892031455292,
        0.135, 0.011365151414154881,
    ),
    (0.55, "eig:0.5"): (
        0.0, 0.0, 0.18888888888888888, 0.012001371663718265,
        0.085, 0.005400617248673216,
    ),
    (0.55, "eig:0.7"): (
        0.0, 0.0, 0.0925925925925926, 0.006928995160692488,
        0.041666666666666664, 0.003118047822311618,
    ),
    (0.55, "eig:kmeans"): (
        0.0, 0.0, 0.19074074074074074, 0.011415581486979581,
        0.08583333333333333, 0.0051370116691408126,
    ),
    (0.55, "rowsum:kmeans"): (
        0.0, 0.0, 0.18703703703703703, 0.024982847339318593,
        0.08416666666666667, 0.011242281302693372,
    ),
    (0.6, "eig:0.3"): (
        0.0, 0.0, 0.32916666666666666, 0.01559023911155808,
        0.13166666666666668, 0.006236095644623242,
    ),
    (0.6, "eig:0.5"): (
        0.0, 0.0, 0.19999999999999998, 0.02651650429449553,
        0.08, 0.010606601717798208,
    ),
    (0.6, "eig:0.7"): (
        0.0, 0.0, 0.075, 0.027003086243366083,
        0.03, 0.010801234497346435,
    ),
    (0.6, "eig:kmeans"): (
        0.0, 0.0, 0.22083333333333335, 0.010622957319984977,
        0.08833333333333333, 0.004249182927993984,
    ),
    (0.6, "rowsum:kmeans"): (
        0.0, 0.0, 0.18541666666666667, 0.02810570325673342,
        0.07416666666666666, 0.011242281302693367,
    ),
    (0.65, "eig:0.3"): (
        0.0, 0.0, 0.2738095238095238, 0.008908708063747472,
        0.09583333333333333, 0.003118047822311621,
    ),
    (0.65, "eig:0.5"): (
        0.0, 0.0, 0.1761904761904762, 0.008908708063747483,
        0.06166666666666667, 0.0031180478223116173,
    ),
    (0.65, "eig:0.7"): (
        0.0, 0.0, 0.07142857142857142, 0.015430334996209194,
        0.024999999999999998, 0.005400617248673217,
    ),
    (0.65, "eig:kmeans"): (
        0.0, 0.0, 0.1976190476190476, 0.03316282923139076,
        0.06916666666666667, 0.011606990230986769,
    ),
    (0.65, "rowsum:kmeans"): (
        0.0, 0.0, 0.18095238095238098, 0.012140522651411396,
        0.06333333333333334, 0.004249182927993988,
    ),
    (0.7, "eig:0.3"): (
        0.0, 0.0, 0.3111111111111111, 0.03215510250775063,
        0.09333333333333334, 0.009646530752325187,
    ),
    (0.7, "eig:0.5"): (
        0.0, 0.0, 0.17222222222222225, 0.030681558381075728,
        0.051666666666666666, 0.009204467514322717,
    ),
    (0.7, "eig:0.7"): (
        0.0, 0.0, 0.06666666666666667, 0.01178511301977579,
        0.02, 0.0035355339059327377,
    ),
    (0.7, "eig:kmeans"): (
        0.0, 0.0, 0.15833333333333333, 0.01360827634879543,
        0.047499999999999994, 0.004082482904638628,
    ),
    (0.7, "rowsum:kmeans"): (
        0.0, 0.0, 0.16111111111111112, 0.027498597046143523,
        0.04833333333333334, 0.008249579113843051,
    ),
    (0.75, "eig:0.3"): (
        0.0, 0.0, 0.25666666666666665, 0.04784233364802441,
        0.06416666666666666, 0.011960583412006103,
    ),
    (0.75, "eig:0.5"): (
        0.0, 0.0, 0.1433333333333333, 0.047842333648024406,
        0.03583333333333333, 0.011960583412006101,
    ),
    (0.75, "eig:0.7"): (
        0.0, 0.0, 0.07333333333333333, 0.040276819911981905,
        0.018333333333333333, 0.010069204977995476,
    ),
    (0.75, "eig:kmeans"): (
        0.0, 0.0, 0.15333333333333335, 0.04784233364802441,
        0.03833333333333334, 0.011960583412006103,
    ),
    (0.75, "rowsum:kmeans"): (
        0.0, 0.0, 0.16333333333333333, 0.040276819911981905,
        0.04083333333333333, 0.010069204977995476,
    ),
    (0.8, "eig:0.3"): (
        0.0, 0.0, 0.2916666666666667, 0.058034951154933824,
        0.05833333333333334, 0.011606990230986767,
    ),
    (0.8, "eig:0.5"): (
        0.0, 0.0, 0.12916666666666668, 0.021245914639969932,
        0.025833333333333333, 0.004249182927993987,
    ),
    (0.8, "eig:0.7"): (
        0.0, 0.0, 0.05416666666666667, 0.04124789556921528,
        0.010833333333333334, 0.008249579113843055,
    ),
    (0.8, "eig:kmeans"): (
        0.0, 0.0, 0.1708333333333333, 0.048232653761625936,
        0.03416666666666667, 0.009646530752325187,
    ),
    (0.8, "rowsum:kmeans"): (
        0.0, 0.0, 0.125, 0.01767766952966369,
        0.024999999999999998, 0.0035355339059327377,
    ),
    (0.85, "eig:0.3"): (
        0.0, 0.0, 0.26666666666666666, 0.02721655269759086,
        0.04, 0.004082482904638628,
    ),
    (0.85, "eig:0.5"): (
        0.0, 0.0, 0.14444444444444446, 0.0437444881889545,
        0.021666666666666667, 0.0065616732283431765,
    ),
    (0.85, "eig:0.7"): (
        0.0, 0.0, 0.07777777777777778, 0.028327886186626582,
        0.011666666666666667, 0.004249182927993988,
    ),
    (0.85, "eig:kmeans"): (
        0.0, 0.0, 0.15555555555555556, 0.05152010275275391,
        0.023333333333333334, 0.007728015412913086,
    ),
    (0.85, "rowsum:kmeans"): (
        0.0, 0.0, 0.15555555555555556, 0.05152010275275391,
        0.023333333333333334, 0.007728015412913086,
    ),
    (0.9, "eig:0.3"): (
        0.0, 0.0, 0.2416666666666667, 0.042491829279939865,
        0.024166666666666666, 0.004249182927993987,
    ),
    (0.9, "eig:0.5"): (
        0.0, 0.0, 0.08333333333333333, 0.04249182927993988,
        0.008333333333333333, 0.004249182927993988,
    ),
    (0.9, "eig:0.7"): (
        0.0, 0.0, 0.025000000000000005, 3.469446951953614e-18,
        0.0025, 0.0,
    ),
    (0.9, "eig:kmeans"): (
        0.0, 0.0, 0.10000000000000002, 0.0408248290463863,
        0.01, 0.00408248290463863,
    ),
    (0.9, "rowsum:kmeans"): (
        0.0, 0.0, 0.10000000000000002, 0.0408248290463863,
        0.01, 0.00408248290463863,
    ),
}
ERROR_COLUMNS = [f"error_{e}_{s}" for e in "gbw" for s in ("mean", "std")]


def test_rate_sweep_errors_are_pinned():
    rows = run_rate_sweep(
        d=6, n=400, r_values=PINNED_RATES, trials=3, seed=0, kind="permuted_inliers"
    )
    got = {
        (row["value"], row["method"]): tuple(row[k] for k in ERROR_COLUMNS)
        for row in rows
    }
    assert got == PINNED_SWEEP_ERRORS


def test_a_trial_builds_one_truth_mask(monkeypatch):
    # one mask a scenario, all of a trial's in one call; a repeated rate
    # shares its scenario's mask
    calls = []
    inlier_masks = bench._inlier_masks

    def counted(draws, ks):
        calls.append(list(ks))
        return inlier_masks(draws, ks)

    monkeypatch.setattr(bench, "_inlier_masks", counted)
    rows = run_rate_sweep(d=3, n=40, r_values=[0.5, 0.75, 0.5], trials=2, seed=1)
    assert len(rows) == 3 * len(DEFAULT_METHODS)
    assert calls == [[20, 30]] * 2


class TestTrialMajorSweep:
    def counted_draws(self, monkeypatch):
        # each completion is recorded with its r and the seed of the draws
        # it completes
        calls = {"draw": [], "complete": []}
        drawn = []
        draw, complete = bench._draw_trial, bench._complete

        def counted_draw(d, n, seed):
            calls["draw"].append(seed)
            drawn.append(draw(d, n, seed))
            return drawn[-1]

        def counted_complete(draws, spec, y):
            calls["complete"].append((spec.r, calls["draw"][drawn.index(draws)]))
            return complete(draws, spec, y)

        monkeypatch.setattr(bench, "_draw_trial", counted_draw)
        monkeypatch.setattr(bench, "_complete", counted_complete)
        return calls

    def test_rate_sweep_draws_once_a_trial_and_completes_each_point(
        self, monkeypatch
    ):
        calls = self.counted_draws(monkeypatch)
        rates, trials = (0.25, 0.5, 0.75), 4
        run_rate_sweep(
            d=3, n=40, r_values=rates, trials=trials, seed=12,
            methods=("rowsum:kmeans",),
        )
        seeds = [derive_seed(12, t) for t in range(trials)]
        assert calls["draw"] == seeds
        assert calls["complete"] == [(r, seed) for seed in seeds for r in rates]

    def test_splits_sweep_completes_one_pair_a_trial(self, monkeypatch):
        calls = self.counted_draws(monkeypatch)
        run_sweep(
            "splits", [1, 2, 4], 3, ("rowsum:kmeans",), d=3, n=48, r=0.5, seed=7,
            max_workers=1,
        )
        seeds = [derive_seed(7, t) for t in range(3)]
        assert calls["draw"] == seeds
        assert [seed for _, seed in calls["complete"]] == seeds


class TestStackedTrial:
    def test_a_factored_trial_forms_no_h_and_chunks_within_budget(
        self, monkeypatch
    ):
        # d = 3, n = 40: both statistics read only the factors.  A budget
        # of two pairs' Z, G and squaring buffers splits 3 rates into
        # chunks of 2 and 1, each one overlap read for both statistics, and
        # a repeated rate shares its pair's row
        def refuse(*args, **kwargs):
            raise AssertionError("a Gram matrix was formed")

        chunks = []

        def recorded(**kwargs):
            chunks.append(len(kwargs["yp"]))
            return OverlapMatrix(**kwargs)

        d, n = 3, 40
        budget = 2 * 8 * (d * d * n + 3 * d**4)
        monkeypatch.setattr(linalg, "gram", refuse)
        monkeypatch.setattr(bench, "OverlapMatrix", recorded)
        monkeypatch.setattr(bench, "_STACK_BYTES", budget)
        assert bench._stack_points(d, n) == 2
        run_rate_sweep(d=d, n=n, r_values=[0.25, 0.5, 0.75, 0.5], trials=2, seed=3)
        run_sweep("sigma2", [0.0, 0.5], 2, d=d, n=n, r=0.5, seed=3)
        assert chunks == [2, 1] * 2 + [2] * 2

    def test_a_point_larger_than_the_budget_runs_alone(self, monkeypatch):
        monkeypatch.setattr(bench, "_STACK_BYTES", 1)
        assert bench._stack_points(3, 40) == 1
        assert bench._stack_points(50, 4000) == 1

    @pytest.mark.parametrize("budget", [1, 2, 3])
    @pytest.mark.parametrize("mode", list(PreprocessMode))
    def test_rows_do_not_depend_on_the_chunks(self, monkeypatch, budget, mode):
        # chunks of 1, 2 and 3 pairs against the default budget, which
        # stacks all 5 pairs of a trial at once
        common = dict(
            d=3, n=40, r_values=[0.25, 0.5, 0.75, 0.5, 0.85, 0.35], trials=3,
            seed=8, sigma2=0.2, preprocess=mode,
            methods=("eig:0.5", "eig:kmeans", "rowsum:kmeans", "rowsum:auto"),
        )
        assert bench._stack_points(3, 40) >= 5
        want = run_rate_sweep(**common)
        monkeypatch.setattr(
            bench, "_STACK_BYTES", budget * 8 * (9 * 40 + 3 * 3**4)
        )
        assert bench._stack_points(3, 40) == budget
        got = run_rate_sweep(**common)
        untimed = [k for k in SWEEP_COLUMNS if not k.startswith("time_ms")]
        assert [{k: r[k] for k in untimed} for r in got] == [
            {k: r[k] for k in untimed} for r in want
        ]

    @staticmethod
    def degenerate(y, column):
        """``y`` with ``column`` set to the mean of the others, so that it is
        zero after row-centering."""
        y = y.copy()
        y[:, column] = np.delete(y, column, axis=1).mean(axis=1)
        return y

    def per_point_error(self, d, n, rates, seed):
        """What building each point's overlap in turn raises."""
        with pytest.raises(DegenerateColumnError) as caught:
            for t in range(2):
                draws = bench._draw_trial(d, n, derive_seed(seed, t))
                for r in rates:
                    spec = ScenarioSpec(d=d, n=n, r=r, seed=derive_seed(seed, t))
                    y = np.empty_like(draws.x)
                    bench._complete(draws, spec, y)
                    build_overlap(draws.x, y, PreprocessMode.CENTER_NORMALIZE)
        return caught.value.column

    @pytest.mark.parametrize("d, n", [(3, 40), (6, 40)])
    def test_a_degenerate_column_raises_where_the_per_point_order_does(
        self, monkeypatch, d, n
    ):
        # the third rate's Y has column 11 degenerate and the fourth's column
        # 4, both in the first trial; (6, 40) builds an overlap a point
        complete = bench._complete
        bad = {0.75: 11, 0.9: 4}
        first_x = bench._draw_trial(d, n, derive_seed(5, 0)).x

        def broken(draws, spec, y):
            inliers = complete(draws, spec, y)
            if spec.r in bad and np.array_equal(draws.x, first_x):
                y[:] = self.degenerate(y, bad[spec.r])
            return inliers

        rates = [0.25, 0.5, 0.75, 0.9]
        monkeypatch.setattr(bench, "_complete", broken)
        assert self.per_point_error(d, n, rates, 5) == 11
        for budget in (1, 2, 4):
            monkeypatch.setattr(
                bench, "_STACK_BYTES", budget * 8 * (d * d * n + 3 * d**4)
            )
            with pytest.raises(DegenerateColumnError) as caught:
                run_rate_sweep(d=d, n=n, r_values=rates, trials=2, seed=5)
            assert caught.value.column == 11

        # a degenerate column of X comes first
        draw = bench._draw_trial

        def broken_x(d, n, seed):
            draws = draw(d, n, seed)
            draws.x[:] = self.degenerate(draws.x, 23)
            return draws

        monkeypatch.setattr(bench, "_draw_trial", broken_x)
        assert self.per_point_error(d, n, rates, 5) == 23
        with pytest.raises(DegenerateColumnError) as caught:
            run_rate_sweep(d=d, n=n, r_values=rates, trials=2, seed=5)
        assert caught.value.column == 23

    def test_a_dense_trial_holds_one_overlap_at_a_time(self, monkeypatch):
        # d = 4, n = 8: the row sums are dense, so every pair forms its H,
        # each a pair overlap of one Y
        alive = []

        def tracked(*args, **kwargs):
            assert kwargs["yp"].shape == (4, 8)
            assert [ref for ref in alive if ref() is not None] == []
            h = OverlapMatrix(*args, **kwargs)
            alive.append(weakref.ref(h))
            return h

        monkeypatch.setattr(bench, "OverlapMatrix", tracked)
        run_rate_sweep(d=4, n=8, r_values=[0.25, 0.5, 0.75], trials=2, seed=3)
        run_sweep("sigma2", [0.0, 0.5], 2, d=4, n=8, r=0.5, seed=3)
        assert len(alive) == 3 * 2 + 2 * 2

    @pytest.mark.parametrize("kind", ["permuted_inliers", "gaussian_outliers"])
    @pytest.mark.parametrize("sigma2", [0.0, 0.25])
    @pytest.mark.parametrize("budget", [1, 2, 3])
    @pytest.mark.parametrize("d, n", [(6, 400), (50, 1000)])
    def test_the_completed_stack_is_what_generate_draws(
        self, monkeypatch, kind, sigma2, budget, d, n
    ):
        # 3 scenarios (a repeated rate shares one) in chunks of 1, 2 and 3;
        # at d = 50, n = 1000, (Q @ X)[:, g] and Q @ X[:, g] differ in the
        # last bits, so a rotated X shared by the scenarios would show in
        # the noise-free columns, each of which must be the product of Q
        # and the columns of X it moves
        stacks, masks = [], []
        preprocess, inlier_masks = bench._preprocess, bench._inlier_masks

        def recorded_preprocess(x, mode):
            if x.ndim == 3:
                stacks.append(x.copy())
            return preprocess(x, mode)

        def recorded_masks(draws, ks):
            masks.append(inlier_masks(draws, ks))
            return masks[-1]

        monkeypatch.setattr(bench, "_preprocess", recorded_preprocess)
        monkeypatch.setattr(bench, "_inlier_masks", recorded_masks)
        monkeypatch.setattr(
            bench, "_STACK_BYTES", budget * 8 * (d * d * n + 3 * d**4)
        )
        assert bench._stack_points(d, n) == budget
        rates, trials, seed = [0.1, 0.3, 0.1, 0.5], 2, 4
        run_rate_sweep(
            d=d, n=n, r_values=rates, trials=trials, seed=seed,
            methods=("rowsum:kmeans",), kind=kind, sigma2=sigma2,
        )
        chunks = {1: [1, 1, 1], 2: [2, 1], 3: [3]}[budget]
        assert [len(stack) for stack in stacks] == chunks * trials
        ys, truths = np.concatenate(stacks), np.concatenate(masks)
        assert ys.shape == truths.shape[:1] + (d, n) == (3 * trials, d, n)
        specs = [
            ScenarioSpec(
                d=d, n=n, r=r, kind=kind, sigma2=sigma2, seed=derive_seed(seed, t)
            )
            for t in range(trials)
            for r in (0.1, 0.3, 0.5)
        ]
        for y, truth, spec in zip(ys, truths, specs):
            pair = generate(spec)
            assert y.tobytes() == pair.y.tobytes()
            assert np.array_equal(truth.nonzero()[0], pair.inliers)
            if sigma2 > 0:
                continue
            q, g, b = pair.rotation, pair.inliers, pair.outliers
            assert (q @ pair.x[:, g]).tobytes() == y[:, g].tobytes()
            if kind == "permuted_inliers":
                # each outlier column's source: its nearest rotated column
                moved = q @ pair.x[:, b]
                near = 2 * y[:, b].T @ moved - np.einsum("ij,ij->j", moved, moved)
                sources = b[near.argmax(axis=1)]
                assert (q @ pair.x[:, sources]).tobytes() == y[:, b].tobytes()

    @pytest.mark.parametrize("mode", list(PreprocessMode))
    def test_a_trial_holds_one_chunk_of_ys_at_a_time(self, monkeypatch, mode):
        # chunks of 2 of 3 scenarios; d = 4, n = 8 builds an overlap a
        # scenario, and without preprocessing the preprocessed stack is a
        # view of the Y stack
        alive = []
        complete = bench._complete

        def tracked(draws, spec, y):
            stack = y.base
            assert stack is not None and len(stack) <= 2
            if not any(ref() is stack for ref in alive):
                assert [ref for ref in alive if ref() is not None] == []
                alive.append(weakref.ref(stack))
            return complete(draws, spec, y)

        monkeypatch.setattr(bench, "_complete", tracked)
        for d, n in ((3, 40), (4, 8)):
            monkeypatch.setattr(
                bench, "_STACK_BYTES", 2 * 8 * (d * d * n + 3 * d**4)
            )
            run_rate_sweep(
                d=d, n=n, r_values=[0.25, 0.5, 0.75], trials=2, seed=3,
                preprocess=mode,
            )
        assert len(alive) >= 4

    def test_each_method_classifies_a_trial_in_one_call(self, monkeypatch):
        # 3 trials of 4 points and 4 methods: a trial splits the 8 rows of
        # its 2-means methods in one call and compares the 8 rows of its
        # threshold methods with their cuts in another, each call charged
        # an eighth to each of its methods at each point
        calls = []
        classify_rows = bench.classify_rows

        def slow(stats, cfgs, d):
            calls.append((stats.shape, cfgs[0].threshold is None))
            time.sleep(0.04)
            return classify_rows(stats, cfgs, d)

        monkeypatch.setattr(bench, "classify_rows", slow)
        rows = run_rate_sweep(
            d=3, n=40, r_values=[0.25, 0.5, 0.75, 0.8], trials=3, seed=5,
            methods=("rowsum:kmeans", "rowsum:auto", "eig:kmeans", "eig:0.5"),
        )
        assert calls == [((8, 40), True), ((8, 40), False)] * 3
        assert len(rows) == 16
        for row in rows:
            assert row["time_ms_mean"] >= 5.0


def point_by_point_rows(axis, values, trials, methods, mode, max_workers, **fixed):
    """The reference: each grid point in turn, each trial's pair from
    ``generate``, and each method's partition from its own ``match`` on the
    point's overlap (or its own ``parallel_match`` at a splits point),
    scored by ``error_rates`` and summarised by ``per_column_summary_row``;
    it calls none of the sweep's trial or summary code."""
    rows = []
    specs = bench.parse_methods(methods)
    for value in values:
        if axis == "splits":
            spec = ScenarioSpec(**fixed)
        else:
            spec = ScenarioSpec(**fixed, **{axis: value})
        configs = {label: bench._at_rate(cfg, spec.r) for label, cfg in specs}
        errs = {label: [] for label, _ in specs}
        for t in range(trials):
            trial = replace(spec, seed=derive_seed(spec.seed, t))
            pair = generate(trial)
            if axis != "splits":
                h = build_overlap(pair.x, pair.y, mode)
            for label, cfg in configs.items():
                if axis == "splits":
                    part = parallel_match(
                        pair.x, pair.y, value, cfg, mode, trial.seed,
                        max_workers=max_workers, backend="dense",
                    ).partition
                else:
                    part, _ = match(h, cfg)
                errs[label].append(error_rates(pair.inliers, part))
        rows += [
            per_column_summary_row(axis, value, label, errs[label], [0.0] * trials)
            for label, _ in specs
        ]
    return rows


@pytest.mark.parametrize(
    "axis, values, fixed",
    [
        ("r", [0.3, 0.5, 0.7, 0.5], dict(sigma2=0.25)),
        ("sigma2", [0.0, 0.1, 1.0], dict(r=0.6)),
        ("splits", [1, 2, 4], dict(r=0.6, sigma2=0.1)),
    ],
)
@pytest.mark.parametrize("kind", ["permuted_inliers", "gaussian_outliers"])
@pytest.mark.parametrize("mode", list(PreprocessMode))
@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("d, n", [(4, 40), (20, 20)])
def test_sweep_rows_equal_point_by_point_rows(
    axis, values, fixed, kind, mode, trials, d, n
):
    # under "none" every pair of a trial holds the shared X itself, so a
    # method that wrote to its input would move the later points' rows; at
    # one trial every sd is 0.  At d = n = 20 the row sums are dense and
    # the eigenvector comes from power iteration, so both statistics of a
    # point read one H
    methods = ("eig:0.5", "eig:kmeans", "rowsum:kmeans", "rowsum:auto")
    common = dict(d=d, n=n, kind=kind, seed=2**40 + 9, **fixed)
    got = run_sweep(axis, values, trials, methods, mode, **common)
    want = point_by_point_rows(axis, values, trials, methods, mode, None, **common)
    untimed = [k for k in SWEEP_COLUMNS if not k.startswith("time_ms")]
    assert [{k: r[k] for k in untimed} for r in got] == [
        {k: r[k] for k in untimed} for r in want
    ]
    if trials == 1:
        assert all(r[k] == 0.0 for r in got for k in untimed if k.endswith("_std"))


STATS = ("error_g", "error_b", "error_w", "time_ms")


def per_column_row(sweep, value, label, columns) -> dict:
    """The reference: a mean and an sd taken on each column by itself."""
    row = {"sweep": sweep, "value": value, "method": label, "trials": len(columns[0])}
    for name, col in zip(STATS, columns):
        row[f"{name}_mean"] = col.mean()
        row[f"{name}_std"] = col.std()
    return row


def per_column_summary_row(sweep, value, label, errs, times_ms) -> dict:
    """:func:`per_column_row` of one point's error reports and times."""
    columns = [np.array([getattr(e, name) for e in errs]) for name in STATS[:3]]
    return per_column_row(sweep, value, label, columns + [np.asarray(times_ms)])


def per_column_summary_rows(sweep, values, labels, cols) -> list[dict]:
    """:func:`per_column_row` of each point and method of a sweep's
    ``(4, methods, points, trials)`` array, in the sweep's row order."""
    return [
        per_column_row(sweep, value, label, list(cols[:, j, i]))
        for i, value in enumerate(values)
        for j, label in enumerate(labels)
    ]


def parent_summary_row(sweep, value, label, errs, times_ms) -> dict:
    """The reference: the per-row summary before its reductions were
    called directly (mean(axis=1) and std(axis=1) of the (4, trials)
    array)."""
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
        perturbed = [
            times,
            times + 1e6,
            np.ldexp(times, -30),
            np.ldexp(times + 1e6, 40),
            rng.integers(0, 3, trials).astype(float),  # ties
            np.full(trials, 7.25),  # constant: sd 0
        ]
        # one sweep array: a point for each time perturbation, and a second
        # method that has the reports and times in reverse trial order
        per_method = {
            "eig:kmeans": (errs, perturbed),
            "rowsum:kmeans": (errs[::-1], [t[::-1] for t in perturbed]),
        }
        cols = np.array(
            [
                [
                    [
                        [e.error_g for e in reports],
                        [e.error_b for e in reports],
                        [e.error_w for e in reports],
                        t,
                    ]
                    for t in ts
                ]
                for reports, ts in per_method.values()
            ]
        ).transpose(2, 0, 1, 3)
        values = [0.1 * i for i in range(len(perturbed))]
        rows = bench._summary_rows("r", values, list(per_method), cols.copy())
        assert len(rows) == len(values) * len(per_method)
        rows = iter(rows)
        for p, value in enumerate(values):
            for label, (reports, ts) in per_method.items():
                # repr of a float64 round-trips, so equal reprs are equal bits
                got = {k: repr(v) for k, v in next(rows).items()}
                for reference in (per_column_summary_row, parent_summary_row):
                    want = reference("r", value, label, reports, ts[p].tolist())
                    assert got == {k: repr(v) for k, v in want.items()}

    def test_rate_sweep_csv_matches_per_column_reference(self, tmp_path, monkeypatch):
        kwargs = dict(d=5, n=40, r_values=[0.25, 0.5, 0.75], trials=4, seed=11)
        write_sweep_csv(tmp_path / "got.csv", run_rate_sweep(**kwargs))
        monkeypatch.setattr(bench, "_summary_rows", per_column_summary_rows)
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
        [(4, 300, "_khatri_rao_vectors"), (6, 60, "_power_iteration")],
    )
    def test_one_eigenpair_per_trial_charged_to_every_method(
        self, monkeypatch, d, n, backend
    ):
        # the factored size solves both rates of a trial in one stacked
        # call, each rate charged half of it; power iteration solves each
        # rate's overlap by itself
        calls = {"_khatri_rao_vectors": 0, "_power_iteration": 0}

        def counted(name):
            original = getattr(overlap, name)

            def solve(*args, **kwargs):
                calls[name] += 1
                time.sleep(0.02)  # a solve every method must be charged for
                return original(*args, **kwargs)

            return solve

        for name in calls:
            monkeypatch.setattr(overlap, name, counted(name))
        rates = [0.5, 0.75]
        rows = run_rate_sweep(
            d=d, n=n, r_values=rates, trials=2, seed=4, methods=self.EIG_METHODS
        )
        stacked = backend == "_khatri_rao_vectors"
        assert calls == {
            "_khatri_rao_vectors": 2 * stacked,
            "_power_iteration": 2 * len(rates) * (not stacked),
        }
        assert [row["method"] for row in rows] == list(self.EIG_METHODS) * 2
        for row in rows:
            assert row["time_ms_mean"] >= (10.0 if stacked else 20.0)

    def test_h_formed_once_and_charged_to_the_statistics_that_read_it(
        self, monkeypatch
    ):
        # d = 50, n = 400: the eigenpair takes power iteration on H, the row
        # sums come from a stacked call on the factors; H is formed once per
        # trial and its time charged to the eig:* methods only
        calls = {"gram": 0, "_power_iteration": 0, "_khatri_rao_row_sums": 0}

        def counted(module, name, pause):
            original = getattr(module, name)

            def call(*args, **kwargs):
                calls[name] += 1
                time.sleep(pause)
                return original(*args, **kwargs)

            return call

        monkeypatch.setattr(linalg, "gram", counted(linalg, "gram", 0.05))
        for name in ("_power_iteration", "_khatri_rao_row_sums"):
            monkeypatch.setattr(overlap, name, counted(overlap, name, 0.0))
        rows = run_rate_sweep(
            d=50, n=400, r_values=[0.8], trials=2, seed=6, methods=DEFAULT_METHODS
        )
        assert calls == {"gram": 4, "_power_iteration": 2, "_khatri_rao_row_sums": 2}
        times = {row["method"]: row["time_ms_mean"] for row in rows}
        assert list(times) == list(DEFAULT_METHODS)
        for label in self.EIG_METHODS:
            assert times[label] >= 100.0
        assert times["rowsum:kmeans"] < 100.0
