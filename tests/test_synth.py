"""Generators: determinism, model invariants, deviation-ratio harness."""

import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from gramoverlap import (
    PopulationModel,
    ScenarioSpec,
    SizeLimitError,
    empirical_deviation,
    generate,
    population_overlap,
)
from gramoverlap.synth import (
    LabeledPair,
    _complete,
    _draw_trial,
    _inlier_masks,
    derive_seed,
)


def pair_digest(pair) -> str:
    """sha256 over the dtype, shape and bytes of x, y, inliers and rotation."""
    h = hashlib.sha256()
    for a in (pair.x, pair.y, pair.inliers, pair.rotation):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def completion(draws, spec, y=None):
    """The pair that completing ``draws`` for ``spec`` into ``y`` (a fresh
    array by default) makes, with the inliers the completion returns."""
    if y is None:
        y = np.empty_like(draws.x)
    inliers = _complete(draws, spec, y)
    return LabeledPair(x=draws.x, y=y, inliers=inliers, rotation=draws.rotation)


# pair_digest(generate(ScenarioSpec(d, n=20, r=0.6, kind, sigma2, seed))),
# keyed by (kind, sigma2, d, seed), recorded when generate drew every value
# in one pass; the last seed of each group is 2**40 + 3.
PINNED_PAIR_DIGESTS = {
    ("gaussian_outliers", 0.0, 1, 0): "1e271b09985036ba3c6533058a0e12cb4e35a9b3ebb897eda4806482bfb8a817",
    ("gaussian_outliers", 0.0, 1, 77): "48557edcd8e7ff1d2ed631d1231e00e0517cc92a75080b952469d79fc05579be",
    ("gaussian_outliers", 0.0, 1, 1099511627779): "c4fd6506697be489456c19045689a164c8ee174f2096c1e08db1148841f25b73",
    ("gaussian_outliers", 0.0, 3, 0): "3d2feb3ebdcbe189c583285eb0b06870966c3a7101d0dec59b41f00c7b132c2f",
    ("gaussian_outliers", 0.0, 3, 77): "d28ff0fc67c25c739a0c36bbdadd53f380bb29de222a97dd63293996442151e2",
    ("gaussian_outliers", 0.0, 3, 1099511627779): "d5bedf1091283a0e0daa01cb857a97febd9c29f6add299044c524e7749ff6b7d",
    ("gaussian_outliers", 0.0, 6, 0): "73d50bb0b8bc2235a916060425831de16b582960274d987355ffd2510ac10607",
    ("gaussian_outliers", 0.0, 6, 77): "35dad141735b5fec1582a2664f3cd5dd76c590f87937d0c86814ab0fd737b5fa",
    ("gaussian_outliers", 0.0, 6, 1099511627779): "62de04ea0100e84fcc9c91bc3611a459c8616f4921820f83223144e36d5247f6",
    ("gaussian_outliers", 0.25, 1, 0): "91079ab43b0eae31c025868fdd5b3990747253d7668dd3b7ad693b5c6ea66085",
    ("gaussian_outliers", 0.25, 1, 77): "e06d555b310e2a882d43621374d92d786c5a8548990d95cd5acda3d3e4950e32",
    ("gaussian_outliers", 0.25, 1, 1099511627779): "91aa3b9027417870ed52348ecb21653a63cafc9d945ef6e6bc118ff5d7291987",
    ("gaussian_outliers", 0.25, 3, 0): "5737ffc4053954cd60e88c6205272f114db785e9d129b2415d5aed94d2032294",
    ("gaussian_outliers", 0.25, 3, 77): "4d36e3d01096c48c034e3ac3f127cd1e8be205c0d6952f38db3f5f2003cee21c",
    ("gaussian_outliers", 0.25, 3, 1099511627779): "6cb5d84e8836e9d301c70929eb0f22cab7e289be150553f8af796a14dacf5ab9",
    ("gaussian_outliers", 0.25, 6, 0): "2dc862b3a7f32d6b9bb85054965dd1f03bfc70b490c3a914a8b9def8bd5b8901",
    ("gaussian_outliers", 0.25, 6, 77): "68c08e4a868b5eadb25da340e6a3c7e6a1b97103b5e32a9cd13c5db2df122fa6",
    ("gaussian_outliers", 0.25, 6, 1099511627779): "ee392e5ec440ee624ff52f4543c56c6c285f03829cb39006c209e20bf680c33e",
    ("permuted_inliers", 0.0, 1, 0): "c7904b144840079191fe5705ed8998167c888accf83487c9d0bd17864c3ab843",
    ("permuted_inliers", 0.0, 1, 77): "d71a38cc9077bb363628d3aaa461128db30efb64e412d640eaf5f1fdb2efcc1f",
    ("permuted_inliers", 0.0, 1, 1099511627779): "05b327585568879535a29dbebcef64da7f00d90d8c88c7f76e4dd9d33001fa07",
    ("permuted_inliers", 0.0, 3, 0): "629c0bf2d0036cba91b007a51792fc153bbb2c79710831d72d83d23aba84510d",
    ("permuted_inliers", 0.0, 3, 77): "04645d2d986b087482edcd1b917e9fe88e8f73c80e5efdbdc999a1733bfdf05d",
    ("permuted_inliers", 0.0, 3, 1099511627779): "b906c3dc2c9b1da7d5185ca8149b7b12a0fcf20046ddf0fb6370beda54d000f7",
    ("permuted_inliers", 0.0, 6, 0): "254d088ab03acf6faa472924b7a7fece1fba0f92ce9e9d58e068f060c327f851",
    ("permuted_inliers", 0.0, 6, 77): "62d91d9a55d87f0e2ed8b184c41f30c055b5c17a17bf43f0fb30228a6a3474e3",
    ("permuted_inliers", 0.0, 6, 1099511627779): "855cdd77e878c1e8a67a96e1a6668ecc3708cee9c9d8d64c402a20db7b4122ff",
    ("permuted_inliers", 0.25, 1, 0): "5944d3e8e0fa8a56d645e4c33293e52377680d3f2216589e95baa8c05fde323e",
    ("permuted_inliers", 0.25, 1, 77): "74de604acf2111746f767e0c67146fe9d1c107b132fefa008cd670f47ccf83a2",
    ("permuted_inliers", 0.25, 1, 1099511627779): "874b16275ad8f6f3cced55f4e82e6c6be7ec5bb7141fdbda44df34b8c5c50837",
    ("permuted_inliers", 0.25, 3, 0): "7b0bc6fe527f660c72568383f164ddbabf1f62164e5a453935bb3f8878317c22",
    ("permuted_inliers", 0.25, 3, 77): "c0f12ad60a55c860bc72cd9b480596d2ebcb0d97bebf6a5de80bb02a48b4e40e",
    ("permuted_inliers", 0.25, 3, 1099511627779): "0f5cc881904a7969f57f4c1e708b3d52c7f267fd4188c3b6d4cb0bd94af4a80f",
    ("permuted_inliers", 0.25, 6, 0): "f8a85f59ec95af5a2abb8d2d1b1992653ee7cd3c417549f43b951c2fcb8c1ea0",
    ("permuted_inliers", 0.25, 6, 77): "61c9626b961467d1adf8175c16a8cead27d63d13066df073a5d544f658c7c38c",
    ("permuted_inliers", 0.25, 6, 1099511627779): "a3657df0ad103d6d0b22d57b6412a28e1feb1eec019801dd8ba0cf870885d3b2",
}


def haar_rotation(d: int, seed: int) -> np.ndarray:
    """The Haar rotation that ``generate`` applies to the inliers at ``d``
    and ``seed`` (the smallest instance: n = 2, one inlier)."""
    return generate(ScenarioSpec(d=d, n=2, r=0.5, seed=seed)).rotation


class TestHaarRotation:
    def test_d1_is_sign(self):
        r = haar_rotation(1, seed=5)
        assert r.shape == (1, 1)
        assert abs(abs(r[0, 0]) - 1.0) <= 1e-15

    def test_orthogonality(self):
        for d, seed in [(2, 0), (5, 1), (17, 2), (64, 3)]:
            r = haar_rotation(d, seed)
            assert np.max(np.abs(r.T @ r - np.eye(d))) <= 1e-12

    def test_deterministic(self):
        assert np.array_equal(haar_rotation(6, 9), haar_rotation(6, 9))

    def test_first_column_uniform_on_sphere(self):
        # Monte-Carlo check: coordinatewise mean of the first column is 0
        trials = 10000
        cols = np.empty((trials, 3))
        for t in range(trials):
            cols[t] = haar_rotation(3, derive_seed(779, t))[:, 0]
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

    def test_negative_seed_is_refused_by_name(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            ScenarioSpec(d=3, n=10, r=0.5, seed=-1)
        assert ScenarioSpec(d=3, n=10, r=0.5, seed=0).seed == 0

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

    def test_pinned_digests(self):
        got = {
            (kind, sigma2, d, seed): pair_digest(
                generate(
                    ScenarioSpec(d=d, n=20, r=0.6, kind=kind, sigma2=sigma2, seed=seed)
                )
            )
            for kind, sigma2, d, seed in PINNED_PAIR_DIGESTS
        }
        assert got == PINNED_PAIR_DIGESTS

    def test_completions_of_one_draw_equal_generate_in_any_order(self):
        # each completion starts from the saved state, whatever ran before it,
        # and overwrites every entry of the one array they all write into
        d, n, seed = 4, 30, derive_seed(8, 2)
        specs = [
            ScenarioSpec(d=d, n=n, r=r, kind=kind, sigma2=sigma2, seed=seed)
            for r, kind, sigma2 in itertools.product(
                (0.2, 0.5, 0.9), ("gaussian_outliers", "permuted_inliers"), (0.0, 0.25)
            )
        ]
        draws = _draw_trial(d, n, seed)
        y = np.full((d, n), np.nan)
        for spec in specs + specs[::-1]:
            got = completion(draws, spec, y)
            assert pair_digest(got) == pair_digest(generate(spec))

    @pytest.mark.parametrize("kind", ["gaussian_outliers", "permuted_inliers"])
    @pytest.mark.parametrize("sigma2", [0.0, 0.25])
    def test_a_completion_reads_the_seed_of_its_draws_not_of_its_spec(
        self, kind, sigma2
    ):
        # a sweep completes each trial's draws from its grid point's spec,
        # which carries the sweep's seed, not the trial's
        d, n, seed = 5, 30, derive_seed(3, 1)
        spec = ScenarioSpec(d=d, n=n, r=0.6, kind=kind, sigma2=sigma2, seed=3)
        want = pair_digest(generate(replace(spec, seed=seed)))
        for other in (0, 3, seed + 1):
            got = completion(_draw_trial(d, n, seed), replace(spec, seed=other))
            assert pair_digest(got) == want

    @pytest.mark.parametrize("d, n", [(3, 40), (6, 400)])
    def test_inlier_masks_are_the_inliers_of_each_completion(self, d, n):
        seed = derive_seed(29, n)
        ks = [1, 2, n // 3, n // 2, n - 2, n - 1]
        masks = _inlier_masks(_draw_trial(d, n, seed), ks)
        assert masks.shape == (len(ks), n) and masks.dtype == bool
        for k, mask in zip(ks, masks):
            pair = generate(ScenarioSpec(d=d, n=n, r=k / n, seed=seed))
            assert np.array_equal(mask.nonzero()[0], pair.inliers)

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
