"""Generators: determinism, model invariants, deviation-ratio harness."""

import math

import numpy as np
import pytest

from gramoverlap import (
    PopulationModel,
    ScenarioSpec,
    SizeLimitError,
    empirical_deviation,
    generate,
    haar_orthogonal,
    population_overlap,
)
from gramoverlap.synth import derive_seed


class TestHaarOrthogonal:
    def test_d1_is_sign(self):
        r = haar_orthogonal(1, seed=5)
        assert r.shape == (1, 1)
        assert abs(abs(r[0, 0]) - 1.0) <= 1e-15

    def test_orthogonality(self):
        for d, seed in [(2, 0), (5, 1), (17, 2), (64, 3)]:
            r = haar_orthogonal(d, seed)
            assert np.max(np.abs(r.T @ r - np.eye(d))) <= 1e-12

    def test_deterministic(self):
        assert np.array_equal(haar_orthogonal(6, 9), haar_orthogonal(6, 9))

    def test_first_column_uniform_on_sphere(self):
        # Monte-Carlo check: coordinatewise mean of the first column is 0
        trials = 10000
        cols = np.empty((trials, 3))
        for t in range(trials):
            cols[t] = haar_orthogonal(3, derive_seed(779, t))[:, 0]
        mean = cols.mean(axis=0)
        se = cols.std(axis=0, ddof=1) / np.sqrt(trials)
        assert np.all(np.abs(mean) <= 3.0 * se)


class TestScenarioSpec:
    def test_integral_inlier_count_required(self):
        with pytest.raises(ValueError):
            ScenarioSpec(d=3, n=10, r=0.33)

    def test_bounds(self):
        with pytest.raises(ValueError):
            ScenarioSpec(d=3, n=10, r=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(d=3, n=10, r=1.0)
        with pytest.raises(ValueError):
            ScenarioSpec(d=3, n=10, r=0.5, sigma2=-1.0)
        with pytest.raises(ValueError):
            ScenarioSpec(d=3, n=10, r=0.5, kind="nope")

    @pytest.mark.parametrize(
        "values",
        [
            {"r": math.inf},
            {"r": -math.inf},
            {"r": math.nan},
            {"r": 0.5, "sigma2": math.nan},
            {"r": 0.5, "sigma2": math.inf},
        ],
    )
    def test_non_finite_values_rejected(self, values):
        with pytest.raises(ValueError, match="must be finite"):
            ScenarioSpec(d=3, n=10, **values)

    def test_n_inliers(self):
        assert ScenarioSpec(d=2, n=10, r=0.3).n_inliers == 3


class TestGenerate:
    def test_bitwise_deterministic(self):
        spec = ScenarioSpec(d=4, n=12, r=0.5, kind="permuted_inliers", seed=3)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.inliers, b.inliers)
        assert np.array_equal(a.rotation, b.rotation)

    def test_different_seeds_differ(self):
        a = generate(ScenarioSpec(d=4, n=12, r=0.5, seed=0))
        b = generate(ScenarioSpec(d=4, n=12, r=0.5, seed=1))
        assert np.max(np.abs(a.x - b.x)) > 0

    def test_inliers_are_exact_rotations(self):
        pair = generate(ScenarioSpec(d=5, n=20, r=0.4, seed=11))
        assert np.array_equal(pair.y[:, pair.inliers], pair.rotation @ pair.x[:, pair.inliers])

    def test_rotation_preserves_norms(self):
        pair = generate(ScenarioSpec(d=7, n=30, r=0.5, seed=13))
        nx = np.linalg.norm(pair.x[:, pair.inliers], axis=0)
        ny = np.linalg.norm(pair.y[:, pair.inliers], axis=0)
        assert np.max(np.abs(nx - ny)) <= 1e-12 * max(1.0, nx.max())

    def test_inlier_gram_blocks_agree(self):
        pair = generate(ScenarioSpec(d=6, n=25, r=0.6, seed=17))
        g = pair.inliers
        gx = pair.x[:, g].T @ pair.x[:, g]
        gy = pair.y[:, g].T @ pair.y[:, g]
        assert np.max(np.abs(gx - gy)) <= 1e-9 * max(1.0, np.abs(gx).max())

    def test_inlier_set_is_random_subset(self):
        seen = set()
        for seed in range(30):
            pair = generate(ScenarioSpec(d=2, n=8, r=0.5, seed=seed))
            assert pair.inliers.size == 4
            seen.add(tuple(pair.inliers))
        assert len(seen) > 5  # not a fixed prefix

    def test_permuted_outliers_are_deranged(self):
        spec = ScenarioSpec(d=3, n=16, r=0.5, kind="permuted_inliers", seed=23)
        pair = generate(spec)
        rx = pair.rotation @ pair.x
        for i in pair.outliers:
            assert np.linalg.norm(pair.y[:, i] - rx[:, i]) > 1e-6

    def test_permuted_outliers_is_permutation_of_rotated_block(self):
        spec = ScenarioSpec(d=3, n=16, r=0.5, kind="permuted_inliers", seed=29)
        pair = generate(spec)
        b = pair.outliers
        rx = np.sort((pair.rotation @ pair.x)[:, b], axis=1)
        yb = np.sort(pair.y[:, b], axis=1)
        assert np.allclose(rx, yb, atol=1e-12)

    def test_single_outlier_cannot_be_deranged(self):
        # refused when the spec is built, so no caller reaches generate
        with pytest.raises(ValueError, match="at least two outliers"):
            ScenarioSpec(d=3, n=8, r=7 / 8, kind="permuted_inliers", seed=1)
        generate(ScenarioSpec(d=3, n=8, r=6 / 8, kind="permuted_inliers", seed=1))
        generate(ScenarioSpec(d=3, n=8, r=7 / 8, kind="gaussian_outliers", seed=1))

    def test_noise_added_to_y_only(self):
        clean = generate(ScenarioSpec(d=4, n=10, r=0.5, seed=31))
        noisy = generate(ScenarioSpec(d=4, n=10, r=0.5, sigma2=0.5, seed=31))
        assert np.array_equal(clean.x, noisy.x)
        assert np.array_equal(clean.inliers, noisy.inliers)
        assert np.max(np.abs(clean.y - noisy.y)) > 0

    def test_mean_overlap_converges_to_population(self):
        # random inlier sets per trial: compare against each trial's own model
        d, n, trials = 3, 8, 4000
        diffs = np.empty((trials, n, n))
        for t in range(trials):
            pair = generate(ScenarioSpec(d=d, n=n, r=0.5, seed=derive_seed(99, t)))
            h = (pair.x.T @ pair.x) * (pair.y.T @ pair.y)
            model = PopulationModel(d=d, n=n, inliers=pair.inliers)
            diffs[t] = h - population_overlap(model)
        mean = diffs.mean(axis=0)
        se = diffs.std(axis=0, ddof=1) / np.sqrt(trials)
        assert np.all(np.abs(mean) <= 3.0 * se)


class TestEmpiricalDeviation:
    def test_single_trial_ratios_finite_positive(self):
        stats = empirical_deviation(
            ScenarioSpec(d=32, n=32, r=0.5, seed=7), trials=1
        )
        for value in (
            stats.spectral_mean,
            stats.spectral_max,
            stats.inlier_rows_mean,
            stats.inlier_rows_max,
            stats.outlier_rows_mean,
            stats.outlier_rows_max,
        ):
            assert np.isfinite(value) and value > 0

    def test_mean_below_max_and_deterministic(self):
        spec = ScenarioSpec(d=48, n=48, r=0.5, seed=21)
        a = empirical_deviation(spec, trials=5)
        b = empirical_deviation(spec, trials=5)
        assert a == b
        assert a.spectral_mean <= a.spectral_max
        assert a.inlier_rows_mean <= a.inlier_rows_max
        assert a.outlier_rows_mean <= a.outlier_rows_max

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            empirical_deviation(ScenarioSpec(d=8, n=600, r=0.5, seed=1), trials=1)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            empirical_deviation(ScenarioSpec(d=8, n=16, r=0.5, seed=1), trials=0)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(5, 0) == derive_seed(5, 0)
        assert derive_seed(5, 0) != derive_seed(5, 1)
        assert derive_seed(5, 0) != derive_seed(6, 0)
