"""Overlap pipeline and the exact population model it is checked against."""

import numpy as np
import pytest

from gramoverlap import (
    DegenerateColumnError,
    OverlapMatrix,
    PopulationModel,
    PreprocessMode,
    ScenarioSpec,
    SizeLimitError,
    build_overlap,
    dense_eig,
    factored_overlap,
    generate,
    population_overlap,
    population_row_sum_mean,
    population_spectrum,
    power_iteration,
    preprocess,
    spectral_norm,
)
import gramoverlap
from gramoverlap import bench, linalg, overlap
from gramoverlap.overlap import factored_eig_is_cheaper
from gramoverlap.synth import derive_seed


def haar(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    return q * s


def test_every_exported_name_resolves():
    missing = [name for name in gramoverlap.__all__ if not hasattr(gramoverlap, name)]
    assert missing == []


class TestPreprocess:
    def test_none_is_identity(self):
        x = np.random.default_rng(0).standard_normal((3, 5))
        assert np.array_equal(preprocess(x, PreprocessMode.NONE), x)

    def test_hand_case(self):
        x = np.array([[1.0, 3.0], [2.0, 4.0]])
        out = preprocess(x, PreprocessMode.CENTER_NORMALIZE)
        s = 1 / np.sqrt(2)
        assert np.allclose(out, np.array([[-s, s], [-s, s]]), atol=1e-15)

    def test_center_then_normalize_postconditions(self):
        x = np.random.default_rng(5).standard_normal((4, 6)) * 3 + 1
        out = preprocess(x, PreprocessMode.CENTER_NORMALIZE)
        # direct recomputation of the same two steps
        centered = x - x.mean(axis=1, keepdims=True)
        assert np.max(np.abs(centered.sum(axis=1))) <= 1e-12 * np.abs(x).max()
        assert np.max(np.abs(np.linalg.norm(out, axis=0) - 1.0)) <= 1e-12
        assert np.allclose(out, centered / np.linalg.norm(centered, axis=0))

    def test_degenerate_column_named(self):
        # column 1 equals the row means, so centering zeroes it out
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        with pytest.raises(DegenerateColumnError) as exc:
            preprocess(x, PreprocessMode.CENTER_NORMALIZE)
        assert exc.value.column == 1


class TestBuildOverlap:
    def test_identity_columns(self):
        h = build_overlap(np.eye(2), np.eye(2), PreprocessMode.NONE)
        assert np.array_equal(h.h, np.eye(2))
        assert h.d == 2 and h.n == 2

    def test_hand_case(self):
        x = np.array([[1.0, 1.0], [0.0, 0.0]])
        y = np.array([[0.0, 0.0], [1.0, 2.0]])
        h = build_overlap(x, y, PreprocessMode.NONE)
        assert np.array_equal(h.h, np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_rotated_copy_squares_the_gram(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 10))
        y = haar(6, rng) @ x
        h = build_overlap(x, y, PreprocessMode.NONE)
        # independent evaluation of both factors
        g = np.empty((10, 10))
        for i in range(10):
            for j in range(10):
                g[i, j] = float(x[:, i] @ x[:, j])
        expected = g * g
        scale = np.abs(expected).max()
        assert np.max(np.abs(h.h - expected)) <= 1e-9 * scale

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            build_overlap(np.eye(2), np.eye(3), PreprocessMode.NONE)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            build_overlap(np.ones((2, 1)), np.ones((2, 1)), PreprocessMode.NONE)

    def test_degenerate_column_propagates(self):
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        with pytest.raises(DegenerateColumnError):
            build_overlap(x, x, PreprocessMode.CENTER_NORMALIZE)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 8))
        y = rng.standard_normal((5, 8))
        h = build_overlap(x, y, PreprocessMode.NONE)
        q, p = haar(5, rng), haar(5, rng)
        h2 = build_overlap(q @ x, p @ y, PreprocessMode.NONE)
        scale = np.abs(h.h).max()
        assert np.max(np.abs(h.h - h2.h)) <= 1e-9 * scale

    def test_psd_within_tolerance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((7, 30))
        y = rng.standard_normal((7, 30))
        h = build_overlap(x, y, PreprocessMode.CENTER_NORMALIZE)
        values, _ = dense_eig(h.h)
        assert values.min() >= -1e-8 * spectral_norm(h.h)


    def test_user_matrix_validated(self):
        with pytest.raises(ValueError):
            OverlapMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]), d=1)
        with pytest.raises(ValueError):
            OverlapMatrix(np.eye(3))  # a wrapped h needs d
        with pytest.raises(ValueError):
            OverlapMatrix(np.eye(3), d=0)
        x = np.ones((2, 3))
        with pytest.raises(ValueError):
            OverlapMatrix(np.eye(3), d=2, xp=x, yp=x)
        with pytest.raises(ValueError):
            OverlapMatrix(xp=x, yp=x, d=2)  # factors already give d
        with pytest.raises(ValueError):
            OverlapMatrix(xp=x, yp=np.ones((2, 4)))
        with pytest.raises(ValueError):
            OverlapMatrix(xp=x, yp=np.ones((3, 3)))
        with pytest.raises(ValueError):
            OverlapMatrix(xp=x)
        with pytest.raises(ValueError):
            OverlapMatrix(np.eye(3), d=2, xp=x)
        h = OverlapMatrix(xp=np.ones((4, 7)), yp=np.ones((4, 7)))
        assert (h.d, h.n) == (4, 7)
        wrapped = OverlapMatrix(np.eye(5), d=2)
        assert (wrapped.d, wrapped.n) == (2, 5)

    def test_statistics_are_cached(self):
        rng = np.random.default_rng(6)
        h = build_overlap(
            rng.standard_normal((3, 40)), rng.standard_normal((3, 40)), "none"
        )
        assert h.h is h.h
        assert h.row_sums() is h.row_sums()
        assert h.leading_eigenpair() is h.leading_eigenpair()


class TestFactoredOverlap:
    def test_checks_inputs_as_build_overlap_does(self):
        deg = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        cases = [
            (np.eye(2), np.eye(3), "none"),
            (np.ones((2, 1)), np.ones((2, 1)), "none"),
            (np.ones(3), np.ones(3), "none"),
            (np.array([[1.0, np.nan]]), np.ones((1, 2)), "none"),
            (deg, deg, "center_normalize"),
            (np.eye(2), np.eye(2), "sideways"),
        ]
        for x, y, mode in cases:
            with pytest.raises(ValueError) as eager:
                build_overlap(x, y, mode)
            with pytest.raises(ValueError) as lazy:
                factored_overlap(x, y, mode)
            assert type(lazy.value) is type(eager.value)
            assert str(lazy.value) == str(eager.value)

    def test_holds_the_factors_of_build_overlap_and_defers_h(self):
        rng = np.random.default_rng(18)
        x, y = rng.standard_normal((2, 6, 30))
        for mode in PreprocessMode:
            eager = build_overlap(x, y, mode)
            lazy = factored_overlap(x, y, mode)
            assert np.array_equal(lazy.xp, eager.xp)
            assert np.array_equal(lazy.yp, eager.yp)
            assert lazy._h is None
            assert lazy.row_sum_backend == "gram_factor"
            assert lazy.eig_backend == eager.eig_backend
            assert np.array_equal(lazy.h, eager.h)


class TestDenseMemoryCheck:
    def test_refused_before_allocation_when_it_cannot_fit(self, monkeypatch):
        rng = np.random.default_rng(19)
        x, y = rng.standard_normal((2, 3, 50))
        need = 16 * 50**2
        monkeypatch.setattr(overlap, "_available_bytes", lambda: need - 1)
        lazy = factored_overlap(x, y, "none")
        with pytest.raises(SizeLimitError, match="50x50"):
            _ = lazy.h
        assert lazy._h is None
        with pytest.raises(SizeLimitError):
            build_overlap(x, y, "none")
        # the factored statistics still run
        assert lazy.row_sums().shape == (50,)
        assert lazy.leading_eigenpair().iterations == 0
        monkeypatch.setattr(overlap, "_available_bytes", lambda: need)
        assert lazy.h.shape == (50, 50)

    def test_unknown_memory_does_not_refuse(self, monkeypatch):
        monkeypatch.setattr(overlap, "_available_bytes", lambda: None)
        assert build_overlap(np.eye(3), np.eye(3), "none").h.shape == (3, 3)

    def test_check_dense_fits(self, monkeypatch):
        monkeypatch.setattr(overlap, "_available_bytes", lambda: 16 * 7**2 - 1)
        with pytest.raises(SizeLimitError, match="7x7"):
            overlap.check_dense_fits(7)
        overlap.check_dense_fits(6)

    def test_available_is_the_smaller_of_host_and_cgroup(self, monkeypatch):
        for host, cgroup, expected in [
            (10**9, 10**6, 10**6),
            (10**6, 10**9, 10**6),
            (10**9, None, 10**9),
            (None, 10**6, 10**6),
            (None, None, None),
        ]:
            monkeypatch.setattr(overlap, "_host_available_bytes", lambda: host)
            monkeypatch.setattr(overlap, "_cgroup_headroom", lambda dirs: cgroup)
            assert overlap._available_bytes() == expected

    def test_cgroup_directories_found_once_per_process(self):
        overlap._available_bytes()
        misses = overlap._cgroup_memory_dirs.cache_info().misses
        overlap._available_bytes()
        overlap._available_bytes()
        assert overlap._cgroup_memory_dirs.cache_info().misses == misses


def fake_cgroup(tmp_path, proc_lines, files):
    """Headroom read from a fake ``/proc/self/cgroup`` holding ``proc_lines``
    and a fake cgroup mount holding ``files`` (relative path -> text)."""
    root = tmp_path / "fs"
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    proc = tmp_path / "cgroup"
    proc.write_text("".join(line + "\n" for line in proc_lines))
    return overlap._cgroup_headroom(overlap._cgroup_memory_dirs(str(proc), str(root)))


V1_PROC = ["9:name=systemd:/", "4:cpu,memory:/a/b", "0::/"]


class TestCgroupHeadroom:
    def test_v1(self, tmp_path):
        files = {
            "memory/a/b/memory.limit_in_bytes": "1000000\n",
            "memory/a/b/memory.usage_in_bytes": "600000\n",
            # the hierarchical total counts, not the cgroup's own figure
            "memory/a/b/memory.stat": "cache 9\ninactive_file 7\n"
            "total_inactive_file 100000\n",
        }
        assert fake_cgroup(tmp_path, V1_PROC, files) == 500000

    def test_v2(self, tmp_path):
        files = {
            "a/b/memory.max": "1000000\n",
            "a/b/memory.current": "600000\n",
            "a/b/memory.stat": "anon 5\ninactive_file 100000\nactive_file 3\n",
            "a/memory.max": "max\n",
            "a/memory.current": "600000\n",
        }
        assert fake_cgroup(tmp_path, ["0::/a/b"], files) == 500000

    @pytest.mark.parametrize("version", [1, 2])
    def test_ancestor_with_the_smaller_limit_wins(self, tmp_path, version):
        if version == 1:
            proc, base = V1_PROC, "memory/"
            limit, usage = "memory.limit_in_bytes", "memory.usage_in_bytes"
        else:
            proc, base = ["0::/a/b"], ""
            limit, usage = "memory.max", "memory.current"
        files = {
            f"{base}a/b/{limit}": "1000000\n",
            f"{base}a/b/{usage}": "600000\n",
            f"{base}a/{limit}": "700000\n",
            f"{base}a/{usage}": "650000\n",
            f"{base}{limit}": "900000\n",
            f"{base}{usage}": "100000\n",
        }
        assert fake_cgroup(tmp_path, proc, files) == 50000

    def test_unlimited(self, tmp_path):
        files = {
            "memory/a/b/memory.limit_in_bytes": "9223372036854771712\n",
            "memory/a/b/memory.usage_in_bytes": "600000\n",
            "memory/a/memory.limit_in_bytes": f"{2**60}\n",
            "memory/a/memory.usage_in_bytes": "600000\n",
            "memory.max": "max\n",
            "memory.current": "600000\n",
        }
        assert fake_cgroup(tmp_path, V1_PROC, files) is None

    def test_garbage_is_ignored(self, tmp_path):
        proc = [
            "garbage",
            "4:memory:relative/path",
            "4:memory:/../../etc",
            "4:memory:/a/b/c",
            "0::/a",
        ]
        files = {
            # unreadable limit, missing usage, unparsable memory.stat
            "memory/a/b/c/memory.limit_in_bytes": "lots\n",
            "memory/a/b/c/memory.usage_in_bytes": "1\n",
            "memory/a/b/memory.limit_in_bytes": "1000\n",
            "memory/a/b/memory.stat": "total_inactive_file 10\n",
            "memory/a/memory.limit_in_bytes": "5000\n",
            "memory/a/memory.usage_in_bytes": "1000\n",
            "memory/a/memory.stat": "total_inactive_file many\n",
            "a/memory.max": "\x00\x01\n",
            "a/memory.current": "1\n",
        }
        assert fake_cgroup(tmp_path, proc, files) == 4000

    def test_nothing_to_read(self, tmp_path):
        assert overlap._cgroup_memory_dirs(str(tmp_path / "missing")) == ()
        assert fake_cgroup(tmp_path, V1_PROC, {}) is None


def random_factored_instances():
    """Seeded overlaps on which the factored eigensolve is chosen, n <= 512."""
    rng = np.random.default_rng(31)
    for trial in range(24):
        d = int(rng.integers(1, 7))
        n = 10 * int(rng.integers(max(2, (4 * d * d + 9) // 10), 52))
        kind = ("gaussian_outliers", "permuted_inliers")[trial % 2]
        pair = generate(ScenarioSpec(d=d, n=n, r=0.6, kind=kind, seed=trial))
        for mode in PreprocessMode:
            if d == 1 and mode is PreprocessMode.CENTER_NORMALIZE:
                continue  # centering a single feature can zero a column
            yield build_overlap(pair.x, pair.y, mode)


class TestLeadingEigenpair:
    def test_backend_rule(self):
        assert factored_eig_is_cheaper(6, 400) and factored_eig_is_cheaper(6, 144)
        assert not factored_eig_is_cheaper(6, 143)
        assert not factored_eig_is_cheaper(50, 1000)
        assert factored_eig_is_cheaper(50, 10000)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((8, 200))
        assert build_overlap(x, x, "none").eig_backend == "power_iteration"
        x = rng.standard_normal((3, 200))
        assert build_overlap(x, x, "none").eig_backend == "gram_factor"
        wrapped = OverlapMatrix(build_overlap(x, x, "none").h, d=3)
        assert wrapped.eig_backend == "power_iteration"

    def test_factored_agrees_with_dense_eig_and_power_iteration(self):
        count = 0
        for h in random_factored_instances():
            assert h.eig_backend == "gram_factor"
            pair = h.leading_eigenpair()
            values, vectors = dense_eig(h.h)
            assert pair.converged and pair.iterations == 0
            assert np.max(np.abs(pair.vector - vectors[:, 0])) <= 1e-12
            assert abs(pair.value - values[0]) <= 1e-12 * values[0]
            # power iteration stops at residual <= 1e-10 * value; its vector
            # is then within about residual / gap of the true one
            ref = power_iteration(h.h)
            bound = 2.0 * ref.residual / (values[0] - values[1]) + 1e-12
            assert np.linalg.norm(pair.vector - ref.vector) <= bound
            count += 1
        assert count >= 40

    def test_support_matches_population_spectrum(self):
        # with the outlier columns of X zeroed, H vanishes off the inlier
        # block, so the leading eigenvector has exactly the population support
        for trial in range(5):
            spec = ScenarioSpec(
                d=4, n=320, r=0.5, kind="gaussian_outliers",
                seed=derive_seed(4141, trial),
            )
            pair = generate(spec)
            m = PopulationModel(d=4, n=320, inliers=pair.inliers)
            x = pair.x.copy()
            x[:, m.outliers] = 0.0
            h = build_overlap(x, pair.y, PreprocessMode.NONE)
            assert h.eig_backend == "gram_factor"
            v = h.leading_eigenpair().vector
            _, expected, _ = population_spectrum(m)
            assert np.array_equal(np.flatnonzero(v), np.flatnonzero(expected))
            assert np.all(v[m.inliers] > 0)
        # column-normalized model instances: the eigenvector lines up with the
        # population one (measured minimum 0.963 over these seeds)
        for d, n in ((4, 400), (6, 600)):
            for trial in range(10):
                spec = ScenarioSpec(
                    d=d, n=n, r=0.8, kind="gaussian_outliers",
                    seed=derive_seed(4242, trial),
                )
                pair = generate(spec)
                h = build_overlap(pair.x, pair.y, PreprocessMode.CENTER_NORMALIZE)
                assert h.eig_backend == "gram_factor"
                _, expected, _ = population_spectrum(
                    PopulationModel(d=d, n=n, inliers=pair.inliers)
                )
                assert h.leading_eigenpair().vector @ expected >= 0.9

    def test_zero_factors_give_the_power_iteration_result(self):
        x = np.zeros((3, 40))
        h = build_overlap(x, x, PreprocessMode.NONE)
        assert h.eig_backend == "gram_factor"
        pair = h.leading_eigenpair()
        ref = power_iteration(h.h)
        assert pair.value == ref.value == 0.0
        assert np.array_equal(pair.vector, ref.vector)
        assert pair.converged and pair.residual == 0.0

    def test_factored_is_permutation_equivariant(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            pair = generate(
                ScenarioSpec(d=4, n=128, r=0.5, seed=derive_seed(1212, trial))
            )
            sigma = rng.permutation(128)
            h = build_overlap(pair.x, pair.y, PreprocessMode.CENTER_NORMALIZE)
            hp = build_overlap(
                pair.x[:, sigma], pair.y[:, sigma], PreprocessMode.CENTER_NORMALIZE
            )
            assert h.eig_backend == hp.eig_backend == "gram_factor"
            a, b = h.leading_eigenpair(), hp.leading_eigenpair()
            assert np.max(np.abs(b.vector - a.vector[sigma])) <= 1e-12
            assert abs(b.value - a.value) <= 1e-12 * a.value

    def test_dense_backend_is_power_iteration(self):
        rng = np.random.default_rng(13)
        h = build_overlap(
            rng.standard_normal((6, 100)), rng.standard_normal((6, 100)), "none"
        )
        assert h.eig_backend == "power_iteration"
        pair, ref = h.leading_eigenpair(), power_iteration(h.h)
        assert pair.value == ref.value and pair.iterations == ref.iterations
        assert np.array_equal(pair.vector, ref.vector)


class TestRowSums:
    def test_hand_case(self):
        h = OverlapMatrix(np.array([[1.0, 2.0], [2.0, 4.0]]), d=2)
        assert np.array_equal(h.row_sums(), np.array([3.0, 6.0]))

    def test_identity(self):
        assert np.array_equal(OverlapMatrix(np.eye(3), d=1).row_sums(), np.ones(3))

    def test_matches_double_loop(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((8, 8))
        a = (m + m.T) / 2
        s = OverlapMatrix(a, d=1).row_sums()
        for i in range(8):
            direct = sum(a[i, j] for j in range(8))
            assert abs(s[i] - direct) <= 1e-12

    def test_total_sum_nonnegative_for_overlap(self):
        rng = np.random.default_rng(10)
        h = build_overlap(
            rng.standard_normal((4, 15)),
            rng.standard_normal((4, 15)),
            PreprocessMode.NONE,
        )
        assert h.row_sums().sum() >= 0.0


class TestFactoredRowSums:
    def test_backend_fixed_at_construction(self):
        rng = np.random.default_rng(14)
        x, y = rng.standard_normal((2, 4, 40))
        # a deferred overlap sums the factors at any size, n < d included
        assert factored_overlap(x, y, "none").row_sum_backend == "gram_factor"
        assert factored_overlap(x[:, :3], y[:, :3], "none").row_sum_backend == (
            "gram_factor"
        )
        # an overlap built with H sums H, and so does a wrapped H, which has
        # no factors and so takes power iteration for its eigenpair
        assert build_overlap(x, y, "none").row_sum_backend == "dense"
        wrapped = OverlapMatrix(build_overlap(x, y, "none").h, d=4)
        assert wrapped.row_sum_backend == "dense"
        assert wrapped.eig_backend == "power_iteration"
        # forming H later, e.g. for power iteration (4 d^2 > n here), does
        # not switch the backend, whichever statistic is read first
        first = factored_overlap(x, y, "none")
        assert first.eig_backend == "power_iteration"
        first.leading_eigenpair()
        assert first._h is not None
        assert first.row_sum_backend == "gram_factor"
        assert np.array_equal(first.row_sums(), factored_overlap(x, y, "none").row_sums())

    def test_agree_with_dense_row_sums(self):
        # d from 1 to 20 against n from 2 to 128, n < d included
        rng = np.random.default_rng(15)
        for d in range(1, 21):
            for n in (2, 3, 5, 8, 13, 21, 34, 55, 89, 128):
                x = rng.standard_normal((d, n)) * rng.uniform(0.1, 10)
                y = rng.standard_normal((d, n))
                for mode in PreprocessMode:
                    if d == 1 and mode is PreprocessMode.CENTER_NORMALIZE:
                        continue  # centering a single feature can zero a column
                    eager = build_overlap(x, y, mode)
                    ref = eager.h.sum(axis=1)
                    assert np.array_equal(eager.row_sums(), ref)
                    tol = 1e-12 * np.abs(eager.h).sum(axis=1)
                    lazy = factored_overlap(x, y, mode)
                    assert lazy.row_sum_backend == "gram_factor"
                    got = lazy.row_sums()
                    assert np.all(np.abs(got - ref) <= tol), (d, n, mode)
                    direct = linalg.khatri_rao_row_sums(lazy.xp, lazy.yp)
                    assert np.array_equal(direct, got)

    def test_means_approach_population_row_sum_mean(self):
        # raw data, d = 4, n = 4000, k = 2000: the per-trial class means,
        # averaged over trials, sit within a few percent of the model's
        d, n = 4, 4000
        inlier_err, outlier_err = [], []
        for trial in range(6):
            for kind in ("gaussian_outliers", "permuted_inliers"):
                spec = ScenarioSpec(
                    d=d, n=n, r=0.5, kind=kind, seed=derive_seed(77, trial)
                )
                pair = generate(spec)
                h = factored_overlap(pair.x, pair.y, PreprocessMode.NONE)
                assert h.row_sum_backend == "gram_factor"
                s = h.row_sums()
                m = PopulationModel(d=d, n=n, inliers=pair.inliers)
                mean_g = population_row_sum_mean(m, int(m.inliers[0]))
                mean_b = population_row_sum_mean(m, int(m.outliers[0]))
                inlier_err.append(s[m.inliers].mean() / mean_g - 1.0)
                gap = mean_g - mean_b
                outlier_err.append((s[m.outliers].mean() - mean_b) / gap)
        assert abs(np.mean(inlier_err)) <= 0.05
        assert abs(np.mean(outlier_err)) <= 0.02

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(16)
        for trial in range(5):
            pair = generate(
                ScenarioSpec(d=5, n=128, r=0.5, seed=derive_seed(1616, trial))
            )
            sigma = rng.permutation(128)
            for mode in PreprocessMode:
                a = factored_overlap(pair.x, pair.y, mode)
                b = factored_overlap(pair.x[:, sigma], pair.y[:, sigma], mode)
                assert a.row_sum_backend == b.row_sum_backend == "gram_factor"
                sa, sb = a.row_sums(), b.row_sums()
                assert np.max(np.abs(sb - sa[sigma])) <= 1e-12 * np.abs(sa).max()

    def test_rate_sweep_never_forms_h(self, monkeypatch):
        # d = 6, n = 400: both statistics come from the factors, so a sweep
        # trial with every default method never computes an n-by-n Gram
        def no_gram(x):
            raise AssertionError("gram called on the factored path")

        monkeypatch.setattr(linalg, "gram", no_gram)
        rows = bench.run_rate_sweep(
            d=6, n=400, r_values=[0.7], trials=1, seed=17,
            methods=bench.DEFAULT_METHODS,
        )
        assert [row["method"] for row in rows] == list(bench.DEFAULT_METHODS)
        assert all(row["error_w_mean"] <= 0.25 for row in rows)


class TestPopulationModel:
    def test_from_rate_requires_integral_count(self):
        with pytest.raises(ValueError):
            PopulationModel.from_rate(d=3, n=10, r=0.33)
        m = PopulationModel.from_rate(d=3, n=10, r=0.3)
        assert np.array_equal(m.inliers, [0, 1, 2])
        assert m.r == 0.3

    def test_rejects_empty_or_full(self):
        with pytest.raises(ValueError):
            PopulationModel(d=2, n=4, inliers=[])
        with pytest.raises(ValueError):
            PopulationModel(d=2, n=4, inliers=[0, 1, 2, 3])


class TestPopulationOverlap:
    def test_d1_n2(self):
        m = PopulationModel(d=1, n=2, inliers=[0])
        assert np.array_equal(population_overlap(m), np.array([[3.0, 0.0], [0.0, 1.0]]))

    def test_d10_n3(self):
        m = PopulationModel(d=10, n=3, inliers=[0, 1])
        e = population_overlap(m)
        assert np.array_equal(np.diag(e), [120.0, 120.0, 100.0])
        assert e[0, 1] == 10.0 and e[1, 0] == 10.0
        assert e[0, 2] == 0.0 and e[1, 2] == 0.0 and e[2, 0] == 0.0

    def test_monte_carlo_mean_matches(self):
        # 20000 draws of the rotated-inlier model, computed with raw numpy
        d, n, trials = 4, 6, 20000
        g = np.array([0, 1, 2])
        b = np.array([3, 4, 5])
        rng = np.random.default_rng(12345)
        rot = haar(d, rng)
        x = rng.standard_normal((trials, d, n))
        y = np.empty_like(x)
        y[:, :, g] = np.einsum("ab,tbn->tan", rot, x[:, :, g])
        y[:, :, b] = rng.standard_normal((trials, d, b.size))
        h = np.einsum("tdi,tdj->tij", x, x) * np.einsum("tdi,tdj->tij", y, y)
        mean = h.mean(axis=0)
        se = h.std(axis=0, ddof=1) / np.sqrt(trials)
        expected = population_overlap(PopulationModel(d=d, n=n, inliers=g))
        assert np.all(np.abs(mean - expected) <= 3.0 * se)


class TestPopulationSpectrum:
    def test_closed_form_values(self):
        m = PopulationModel(d=50, n=40, inliers=np.arange(20))
        value, vector, gap = population_spectrum(m)
        assert value == 2500.0 + 50.0 * 21.0 == 3550.0
        assert gap == 1000.0

    def test_eigenvector_pattern(self):
        m = PopulationModel(d=10, n=20, inliers=np.arange(10))
        _, vector, _ = population_spectrum(m)
        assert np.allclose(vector[:10], 1 / np.sqrt(10))
        assert np.array_equal(vector[10:], np.zeros(10))

    def test_matches_dense_eig(self):
        m = PopulationModel(d=30, n=24, inliers=np.arange(12))
        value, vector, gap = population_spectrum(m)
        values, vectors = dense_eig(population_overlap(m))
        assert abs(values[0] - value) <= 1e-8 * value
        top = vectors[:, 0]
        if top @ vector < 0:
            top = -top
        assert np.max(np.abs(top - vector)) <= 1e-8
        assert abs((values[0] - values[1]) - gap) <= 1e-8 * value

    def test_second_eigenvalue_with_multiplicity(self):
        # exact spectrum of the expectation: second eigenvalue d^2 + d with
        # multiplicity (inlier count - 1) whenever there are >= 2 inliers
        for d, n, k in [(7, 12, 5), (3, 9, 2), (20, 30, 15)]:
            m = PopulationModel(d=d, n=n, inliers=np.arange(k))
            values, _ = dense_eig(population_overlap(m))
            second = d * d + d
            block = values[1 : k]
            assert np.allclose(block, second, atol=1e-8 * (d * d))
            if k < n - 1:
                assert np.allclose(values[k:], d * d, atol=1e-8 * (d * d))


class TestPopulationRowSumMean:
    def test_closed_form(self):
        m = PopulationModel(d=10, n=20, inliers=np.arange(10))
        assert population_row_sum_mean(m, 0) == 210.0
        assert population_row_sum_mean(m, 15) == 100.0

    def test_index_range(self):
        m = PopulationModel(d=2, n=4, inliers=[0])
        with pytest.raises(IndexError):
            population_row_sum_mean(m, 4)

    def test_equals_row_sums_of_population_overlap(self):
        for d, n, k in [(3, 6, 2), (10, 20, 10), (5, 8, 7)]:
            m = PopulationModel(d=d, n=n, inliers=np.arange(k))
            s = population_overlap(m).sum(axis=1)
            for i in range(n):
                assert s[i] == population_row_sum_mean(m, i)


class TestInlierBlockIdentity:
    def test_inlier_block_is_squared_gram(self):
        rng = np.random.default_rng(77)
        d, n, k = 6, 14, 8
        x = rng.standard_normal((d, n))
        rot = haar(d, rng)
        y = np.empty_like(x)
        y[:, :k] = rot @ x[:, :k]
        y[:, k:] = rng.standard_normal((d, n - k))
        h = build_overlap(x, y, PreprocessMode.NONE)
        gx = x.T @ x
        expected = (gx * gx)[:k, :k]
        scale = np.abs(expected).max()
        assert np.max(np.abs(h.h[:k, :k] - expected)) <= 1e-9 * scale
