"""Overlap pipeline and the exact population model it is checked against."""

import ast
from pathlib import Path

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
    generate,
    population_overlap,
    population_row_sum_mean,
    population_spectrum,
    preprocess,
    spectral_norm,
)
import gramoverlap
from gramoverlap import bench, linalg, overlap
from gramoverlap.overlap import factored_eig_is_cheaper, factored_row_sums_are_cheaper
from gramoverlap.synth import derive_seed


def haar(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    return q * s


def test_every_exported_name_resolves():
    missing = [name for name in gramoverlap.__all__ if not hasattr(gramoverlap, name)]
    assert missing == []


def parent_preprocess(x, mode):
    """The reference: preprocess before its reductions were called directly
    (x.mean, np.linalg.norm and np.flatnonzero)."""
    x = linalg.as_matrix(x, "x")
    mode = PreprocessMode(mode)
    if mode is PreprocessMode.NONE:
        return x
    centered = x - x.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=0)
    tol = 1e-12 * max(1.0, float(np.abs(x).max()))
    bad = np.flatnonzero(norms <= tol)
    if bad.size:
        raise DegenerateColumnError(column=int(bad[0]))
    return centered / norms


def preprocess_outcome(fn, x, mode):
    """The bits of the result, or the type, message and column of what it
    raised."""
    try:
        out = fn(x, mode)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "column", None)
    return out.dtype, out.shape, out.tobytes()


class TestPreprocess:
    def test_matches_the_parent_preprocess(self):
        rng = np.random.default_rng(2020)
        cases = [
            np.full((3, 4), 2.5),  # every column degenerate: column 0 named
            np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
            np.zeros((2, 2)),
            np.array([[1.0, np.nan]]),
            np.ones(3),
        ]
        for _ in range(150):
            d = int(rng.integers(1, 9))
            n = int(rng.choice([2, int(rng.integers(2, 80))]))
            x = rng.standard_normal((d, n))
            if rng.random() < 0.3:  # ties: few distinct values
                x = rng.integers(-2, 3, (d, n)).astype(float)
            if rng.random() < 0.3:
                # a column equal to the row means centres to zero
                j = int(rng.integers(0, n))
                x[:, j] = 0.0
                x[:, j] = x.sum(axis=1) / (n - 1)
            if rng.random() < 0.5:
                x = x + 1e6
            x = np.ldexp(x, int(rng.integers(-40, 41)))
            cases.append(x)
        for j in (0, 3, 7):  # a zero column at several positions of integers
            x = rng.integers(1, 5, (3, 8)).astype(float)
            x[:, j] = 0.0
            x[:, j] = x.sum(axis=1) / 7
            x -= x[:, [j]]
            cases.append(x)
        raised = set()
        for x in cases:
            for mode in PreprocessMode:
                want = preprocess_outcome(parent_preprocess, x, mode)
                assert preprocess_outcome(preprocess, x, mode) == want
                if want[0] is DegenerateColumnError:
                    raised.add(want[2])
        # degenerate columns were found at the start, the middle and the end
        assert {0, 3, 7} <= raised

    def test_a_stack_is_each_matrix_alone(self):
        # the first matrix with a degenerate column names it, even when a
        # later matrix has a lower one
        rng = np.random.default_rng(2121)
        raised = []
        for _ in range(60):
            p, d, n = (int(v) for v in rng.integers([1, 1, 2], [6, 6, 40]))
            stack = rng.standard_normal((p, d, n))
            if rng.random() < 0.5:
                stack = np.ldexp(stack + 1e6, int(rng.integers(-40, 41)))
            for _ in range(int(rng.integers(0, 3))):
                i, j = int(rng.integers(0, p)), int(rng.integers(0, n))
                stack[i, :, j] = 0.0
                stack[i, :, j] = stack[i].sum(axis=1) / (n - 1)
            for mode in PreprocessMode:
                alone = [preprocess_outcome(preprocess, x, mode) for x in stack]
                bad = [o for o in alone if o[0] is DegenerateColumnError]
                try:
                    got = overlap._preprocess(stack, mode)
                except DegenerateColumnError as exc:
                    assert bad and exc.column == bad[0][2]
                    raised.append(exc.column)
                    continue
                assert not bad
                for x, out in zip(stack, got):
                    assert preprocess_outcome(preprocess, x, mode)[2] == out.tobytes()
        assert len(set(raised)) > 5

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
        # a wrapped h is checked once, at construction: the solvers behind
        # it check nothing
        for bad in (
            np.array([[1.0, 2.0], [0.0, 1.0]]),  # not symmetric
            np.array([[np.inf, 0.0], [0.0, 1.0]]),
            np.array([[1.0, np.nan], [np.nan, 1.0]]),
            np.ones((2, 3)),  # not square
            np.ones(3),  # 1-D
            np.ones((0, 0)),
        ):
            with pytest.raises(ValueError):
                OverlapMatrix(bad, d=1)
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

    def test_each_input_is_checked_once(self, monkeypatch):
        # preprocess reads the arrays build_overlap has checked; called by
        # itself it still checks its input
        names = []
        as_matrix = linalg.as_matrix
        monkeypatch.setattr(
            linalg, "as_matrix", lambda a, name: names.append(name) or as_matrix(a, name)
        )
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal((2, 3, 40))
        for mode in PreprocessMode:
            names.clear()
            build_overlap(x, y, mode, backend="gram_factor")
            assert names == ["x", "y"]
        with pytest.raises(ValueError, match="y contains non-finite entries"):
            build_overlap(x, np.where(x > 1, np.nan, x), "center_normalize")
        with pytest.raises(ValueError, match="x contains non-finite entries"):
            preprocess(np.where(x > 1, np.inf, x), "center_normalize")

    def test_h_is_kept(self):
        # H is formed once and kept; the statistics are computed on each
        # call, and no caller reads one twice
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal((2, 3, 40))
        h = build_overlap(x, y, "none")
        assert h.h is h.h


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
                build_overlap(x, y, mode, backend="dense")
            with pytest.raises(ValueError) as lazy:
                build_overlap(x, y, mode, backend="gram_factor")
            assert type(lazy.value) is type(eager.value)
            assert str(lazy.value) == str(eager.value)

    def test_holds_the_factors_of_build_overlap_and_defers_h(self):
        rng = np.random.default_rng(18)
        x, y = rng.standard_normal((2, 6, 30))
        for mode in PreprocessMode:
            eager = build_overlap(x, y, mode, backend="dense")
            lazy = build_overlap(x, y, mode, backend="gram_factor")
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
        lazy = build_overlap(x, y, "none", backend="gram_factor")
        with pytest.raises(SizeLimitError, match="50x50"):
            _ = lazy.h
        assert lazy._h is None
        with pytest.raises(SizeLimitError):
            build_overlap(x, y, "none", backend="dense")
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
        # an attribute set at construction, not derived on each read
        assert vars(wrapped)["eig_backend"] == "power_iteration"
        assert vars(build_overlap(x, x, "none"))["eig_backend"] == "gram_factor"

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
            ref = linalg._power_iteration(h.h)
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
            x[:, np.setdiff1d(np.arange(320), m.inliers)] = 0.0
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
        ref = linalg._power_iteration(h.h)
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
        pair, ref = h.leading_eigenpair(), linalg._power_iteration(h.h)
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
    def test_backend_rule(self, monkeypatch):
        # the factors when 2 d < n, the dense H at the tie and above it
        assert factored_row_sums_are_cheaper(5, 11)
        assert not factored_row_sums_are_cheaper(5, 10)
        assert not factored_row_sums_are_cheaper(5, 9)
        rng = np.random.default_rng(12)
        x, y = rng.standard_normal((2, 5, 11))
        for n, backend in ((11, "gram_factor"), (10, "dense"), (9, "dense")):
            h = build_overlap(x[:, :n], y[:, :n], "none")
            assert h.row_sum_backend == backend
            assert (h._h is None) == (backend == "gram_factor")
        # the tie at d = 3, n = 6 forms H at construction, from two Grams
        calls = []
        gram = linalg.gram
        monkeypatch.setattr(linalg, "gram", lambda a: calls.append(a.shape) or gram(a))
        assert build_overlap(x[:3, :6], y[:3, :6], "none")._h is not None
        assert calls == [(3, 6), (3, 6)]

    def test_unknown_backend_is_refused(self):
        x = np.random.default_rng(17).standard_normal((3, 10))
        for backend in ("power_iteration", "Dense", ""):
            with pytest.raises(ValueError, match="unknown row-sum backend"):
                build_overlap(x, x, "none", backend=backend)
        with pytest.raises(ValueError, match="needs the factors"):
            OverlapMatrix(np.eye(3), d=1, backend="gram_factor")
        assert OverlapMatrix(np.eye(3), d=1, backend="dense").row_sum_backend == (
            "dense"
        )

    def test_backend_fixed_at_construction(self):
        rng = np.random.default_rng(14)
        x, y = rng.standard_normal((2, 4, 40))
        # a pinned factored overlap sums the factors at any size, n < d
        # included
        for m in (40, 3):
            pinned = build_overlap(x[:, :m], y[:, :m], "none", backend="gram_factor")
            assert pinned.row_sum_backend == "gram_factor" and pinned._h is None
        # a pinned dense overlap sums H, and so does a wrapped H, which has
        # no factors and so takes power iteration for its eigenpair
        dense = build_overlap(x, y, "none", backend="dense")
        assert dense.row_sum_backend == "dense" and dense._h is not None
        wrapped = OverlapMatrix(dense.h, d=4)
        assert wrapped.row_sum_backend == "dense"
        assert wrapped.eig_backend == "power_iteration"
        # forming H later, e.g. for power iteration (4 d^2 > n here), does
        # not switch the backend, whichever statistic is read first
        def factored():
            return build_overlap(x, y, "none", backend="gram_factor")

        first = factored()
        assert first.eig_backend == "power_iteration"
        first.leading_eigenpair()
        assert first._h is not None
        assert first.row_sum_backend == "gram_factor"
        assert np.array_equal(first.row_sums(), factored().row_sums())

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
                    eager = build_overlap(x, y, mode, backend="dense")
                    ref = eager.h.sum(axis=1)
                    assert np.array_equal(eager.row_sums(), ref)
                    tol = 1e-12 * np.abs(eager.h).sum(axis=1)
                    lazy = build_overlap(x, y, mode, backend="gram_factor")
                    assert lazy.row_sum_backend == "gram_factor"
                    got = lazy.row_sums()
                    assert np.all(np.abs(got - ref) <= tol), (d, n, mode)
                    # a stack of one Y sums as its pair does
                    stack = OverlapMatrix(
                        xp=lazy.xp, yp=lazy.yp[None], backend="gram_factor"
                    )
                    assert np.array_equal(stack.row_sums()[0], got)

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
                h = build_overlap(
                    pair.x, pair.y, PreprocessMode.NONE, backend="gram_factor"
                )
                assert h.row_sum_backend == "gram_factor"
                s = h.row_sums()
                m = PopulationModel(d=d, n=n, inliers=pair.inliers)
                outliers = np.setdiff1d(np.arange(n), m.inliers)
                mean_g = population_row_sum_mean(m, int(m.inliers[0]))
                mean_b = population_row_sum_mean(m, int(outliers[0]))
                inlier_err.append(s[m.inliers].mean() / mean_g - 1.0)
                gap = mean_g - mean_b
                outlier_err.append((s[outliers].mean() - mean_b) / gap)
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
                a = build_overlap(pair.x, pair.y, mode, backend="gram_factor")
                b = build_overlap(
                    pair.x[:, sigma], pair.y[:, sigma], mode, backend="gram_factor"
                )
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


def test_a_stack_overlap_checks_its_shape_and_has_no_eigenpair():
    # its rows against one pair overlap a Y: test_classify.TestStackStatistics
    rng = np.random.default_rng(21)
    x, ys = rng.standard_normal((3, 40)), rng.standard_normal((2, 3, 40))
    for yp in (ys[:, :2], ys[None], ys[0, 0]):
        with pytest.raises(ValueError, match="stack of them"):
            OverlapMatrix(xp=x, yp=yp)
    with pytest.raises(ValueError, match="leading_eigenvector"):
        OverlapMatrix(xp=x, yp=ys).leading_eigenpair()


def test_only_a_pair_forms_h(monkeypatch):
    # a stack is refused before any Gram is formed: at construction under
    # the dense row sums, and where power iteration would read H
    def no_gram(x):
        raise AssertionError("a Gram matrix was formed")

    monkeypatch.setattr(linalg, "gram", no_gram)
    rng = np.random.default_rng(22)
    x, ys = rng.standard_normal((6, 60)), rng.standard_normal((2, 6, 60))
    with pytest.raises(ValueError, match="only a pair forms H"):
        OverlapMatrix(xp=x, yp=ys, backend="dense")
    stack = OverlapMatrix(xp=x, yp=ys)
    assert stack.eig_backend == "power_iteration"
    assert stack.row_sum_backend == "gram_factor"
    for read in (lambda: stack.h, stack.leading_eigenvector):
        with pytest.raises(ValueError, match="only a pair forms H"):
            read()
    assert stack.row_sums().shape == (2, 60)


def test_h_is_checked_once_where_it_enters(monkeypatch):
    # a formed H is symmetric by construction, so power iteration on it runs
    # no symmetry check; a wrapped h is checked at construction and not
    # again by its statistics
    calls = []
    check = linalg.check_symmetric
    monkeypatch.setattr(
        linalg, "check_symmetric", lambda a, name: calls.append(name) or check(a, name)
    )
    rng = np.random.default_rng(23)
    x, y = rng.standard_normal((2, 6, 60))
    formed = build_overlap(x, y, "none")
    assert formed.eig_backend == "power_iteration"
    pair = formed.leading_eigenpair()
    assert np.array_equal(formed.leading_eigenvector(), pair.vector)
    assert calls == []
    wrapped = OverlapMatrix(formed.h, d=6)
    got = wrapped.leading_eigenpair()
    wrapped.leading_eigenvector()
    wrapped.row_sums()
    assert calls == ["h"]
    assert got.vector.tobytes() == pair.vector.tobytes()
    assert (got.value, got.iterations) == (pair.value, pair.iterations)


@pytest.mark.parametrize("spec", ["rowsum:1.0", "rowsum:kmeans", "eig:0.5", "eig:kmeans"])
@pytest.mark.parametrize("n", [6, 20])
def test_an_overflowing_h_is_refused_when_formed(spec, n):
    # raw entries of 1e80: each Gram (about 1e160) is finite, their product
    # is not.  At n = 6 (2 d >= n) the dense row sums form H at construction;
    # at n = 20 the row sums come from the factors, and power iteration forms
    # H for the eigenvector
    rng = np.random.default_rng(24)
    x, y = rng.standard_normal((2, 3, n)) * 1e80
    cfg = bench.parse_method(spec)
    if n == 6 or cfg.method == "eigenvector":
        message = "the overlap H has non-finite entries"
    else:
        message = "values contain non-finite entries"
    with pytest.raises(ValueError, match=message):
        gramoverlap.match(build_overlap(x, y, "none"), cfg)


def test_only_linalg_and_overlap_name_the_backend_kernels():
    # the backend choice lives in OverlapMatrix: no other module of the
    # package, its __init__ included, names a factored kernel or power
    # iteration
    def named(path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [node.id for node in ast.walk(tree) if isinstance(node, ast.Name)]
        names += [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
        names += [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        ]
        return [
            name
            for name in names
            if name.startswith("_khatri_rao") or name == "_power_iteration"
        ]

    package = Path(overlap.__file__).parent
    found = {
        path.stem: named(path)
        for path in package.glob("*.py")
        if path.stem not in ("linalg", "overlap")
    }
    assert len(found) >= 8 and {k: v for k, v in found.items() if v} == {}
    # the scan sees them where they are named
    assert {"_khatri_rao_vectors", "_power_iteration"} <= set(
        named(Path(overlap.__file__))
    )


class TestPopulationModel:
    def test_rate_is_the_inlier_fraction(self):
        m = PopulationModel(d=3, n=10, inliers=[2, 0, 1])
        assert np.array_equal(m.inliers, [0, 1, 2])

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
