"""Matrix primitives against brute-force and closed-form oracles."""

import numpy as np
import pytest

import math

from gramoverlap import SizeLimitError, dense_eig, gram, power_iteration, spectral_norm
from gramoverlap.linalg import (
    POWER_TOL_DEFAULT,
    SpectralPair,
    as_matrix,
    fix_sign,
    khatri_rao_eigenpair,
)


def rng_for(seed):
    return np.random.default_rng(seed)


def random_symmetric(n, rng):
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


class TestGram:
    def test_orthonormal_columns_give_identity(self):
        assert np.array_equal(gram(np.eye(2)), np.eye(2))

    def test_repeated_column(self):
        x = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(gram(x), np.ones((2, 2)))

    def test_matches_double_loop(self):
        x = rng_for(7).standard_normal((5, 7))
        g = gram(x)
        # brute-force oracle: explicit dot product per pair
        expected = np.empty((7, 7))
        for i in range(7):
            for j in range(7):
                expected[i, j] = sum(x[k, i] * x[k, j] for k in range(5))
        assert np.max(np.abs(g - expected)) <= 1e-12

    def test_exactly_symmetric(self):
        # symmetric by construction, not by mirroring, for any memory layout
        rng = rng_for(3)
        for x in (
            rng.standard_normal((11, 23)),
            np.asfortranarray(rng.standard_normal((11, 230))),
            rng.standard_normal((22, 460))[::2, ::2],
            rng.standard_normal((230, 11)).T,
            rng.standard_normal((1, 50)),
        ):
            g = gram(x)
            assert np.array_equal(g, g.T)

    def test_positive_semidefinite(self):
        for seed in range(5):
            x = rng_for(seed).standard_normal((6, 12))
            g = gram(x)
            values, _ = dense_eig(g)
            assert values.min() >= -1e-8 * spectral_norm(g)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            gram(np.empty((0, 3)))
        with pytest.raises(ValueError):
            gram(np.empty((3, 0)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            gram(np.array([[np.nan, 1.0]]))


class TestPowerIteration:
    def test_diagonal(self):
        pair = power_iteration(np.diag([3.0, 1.0]))
        assert pair.converged
        assert abs(pair.value - 3.0) <= 1e-8
        assert np.allclose(np.abs(pair.vector), [1.0, 0.0], atol=1e-6)

    def test_symmetric_2x2_closed_form(self):
        pair = power_iteration(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert pair.converged
        assert abs(pair.value - 3.0) <= 1e-8
        assert np.allclose(pair.vector, np.full(2, 1 / np.sqrt(2)), atol=1e-8)

    def test_agrees_with_dense_eig_on_random_psd(self):
        for seed in range(5):
            m = rng_for(200 + seed).standard_normal((20, 20))
            a = gram(m)  # PSD with gapped top eigenvalue almost surely
            pair = power_iteration(a)
            values, vectors = dense_eig(a)
            assert abs(pair.value - values[0]) <= 1e-8 * values[0]
            top = vectors[:, 0]
            if np.dot(top, pair.vector) < 0:
                top = -top
            assert np.linalg.norm(pair.vector - top) <= 1e-6

    def test_unit_norm_and_residual_contract(self):
        a = random_symmetric(15, rng_for(5))
        pair = power_iteration(a)
        assert abs(np.linalg.norm(pair.vector) - 1.0) <= 1e-12
        assert (
            np.linalg.norm(a @ pair.vector - pair.value * pair.vector)
            <= pair.residual + 1e-12
        )

    def test_zero_matrix(self):
        pair = power_iteration(np.zeros((4, 4)))
        assert pair.converged
        assert pair.value == 0.0

    def test_nonconvergence_flag(self):
        # +/-1 eigenvalue pair: the iterates oscillate and never settle
        a = np.diag([1.0, -1.0])
        pair = power_iteration(a, tol=1e-12, max_iter=50)
        assert not pair.converged
        assert pair.iterations == 50

    def test_deterministic_bitwise(self):
        a = random_symmetric(12, rng_for(42))
        p1 = power_iteration(a)
        p2 = power_iteration(a)
        assert p1.value == p2.value
        assert np.array_equal(p1.vector, p2.vector)

    def test_sign_convention(self):
        a = gram(rng_for(17).standard_normal((6, 9)))
        pair = power_iteration(a)
        assert pair.vector.sum() >= -1e-12
        v = np.array([0.5, -0.8, 0.3])  # sums to 0: largest-magnitude entry wins
        fixed = fix_sign(v)
        assert fixed[1] > 0
        assert np.array_equal(fix_sign(fixed), fixed)

    def test_sign_convention_absorbs_flips(self):
        # the convention resolves the ambiguity, so a flipped input must
        # produce the same vector
        rng = rng_for(19)
        for _ in range(20):
            v = rng.standard_normal(int(rng.integers(2, 12)))
            assert np.array_equal(fix_sign(v), fix_sign(-v))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            power_iteration(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            power_iteration(np.eye(2), tol=0.0)
        with pytest.raises(ValueError):
            power_iteration(np.eye(2), max_iter=0)


class TestDenseEig:
    def test_identity(self):
        values, _ = dense_eig(np.eye(3))
        assert np.allclose(values, [1.0, 1.0, 1.0])

    def test_diagonal_with_axis_eigenvectors(self):
        values, vectors = dense_eig(np.diag([5.0, 2.0, -1.0]))
        assert np.allclose(values, [5.0, 2.0, -1.0])
        assert np.allclose(np.abs(vectors), np.eye(3), atol=1e-12)

    def test_reconstruction(self):
        a = random_symmetric(17, rng_for(23))
        values, vectors = dense_eig(a)
        rebuilt = (vectors * values) @ vectors.T
        assert np.max(np.abs(a - rebuilt)) <= 1e-8

    def test_descending_order_and_orthonormal(self):
        a = random_symmetric(30, rng_for(29))
        values, vectors = dense_eig(a)
        assert np.all(np.diff(values) <= 1e-12)
        assert np.max(np.abs(vectors.T @ vectors - np.eye(30))) <= 1e-8

    def test_eigen_residual(self):
        a = random_symmetric(25, rng_for(31))
        values, vectors = dense_eig(a)
        norm = spectral_norm(a)
        for j in range(25):
            res = np.linalg.norm(a @ vectors[:, j] - values[j] * vectors[:, j])
            assert res <= 1e-8 * max(norm, 1.0)

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            dense_eig(np.eye(513))


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -4.0])) == 4.0

    def test_zero(self):
        assert spectral_norm(np.zeros((5, 5))) == 0.0

    def test_matches_dense_eig(self):
        a = random_symmetric(50, rng_for(37))
        values, _ = dense_eig(a)
        expected = np.max(np.abs(values))
        assert abs(spectral_norm(a) - expected) <= 1e-8 * expected

    def test_large_order_raises_size_limit_error(self):
        # 600 > dense cap: spectral_norm reads dense_eig, which refuses it
        with pytest.raises(SizeLimitError):
            spectral_norm(np.eye(600))


class TestAsMatrix:
    def test_converts_and_validates(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])


def parent_khatri_rao_eigenpair(x, y):
    """The reference: khatri_rao_eigenpair before its norms were taken as
    math.sqrt(w @ w) (np.linalg.norm)."""
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: x is {x.shape}, y is {y.shape}")
    d, n = x.shape
    z = (x[:, None, :] * y[None, :, :]).reshape(d * d, n)
    _, vectors = np.linalg.eigh(z @ z.T)
    w = vectors[:, -1] @ z
    norm = float(np.linalg.norm(w))
    v = w / norm if norm > 0.0 else np.full(n, 1.0 / math.sqrt(n))
    zv = z @ v
    value = float(zv @ zv)
    residual = float(np.linalg.norm(zv @ z - value * v))
    converged = residual <= POWER_TOL_DEFAULT * max(1.0, abs(value))
    return SpectralPair(value, fix_sign(v), 0, residual, converged)


def eigenpair_outcome(fn, x, y):
    """The bits of every field of the pair, or the type and message of what
    it raised."""
    try:
        pair = fn(x, y)
    except ValueError as exc:
        return type(exc), str(exc)
    return (
        repr(pair.value),
        pair.vector.dtype,
        pair.vector.tobytes(),
        pair.iterations,
        repr(pair.residual),
        pair.converged,
    )


class TestKhatriRaoEigenpair:
    def test_matches_the_parent_solver(self):
        rng = np.random.default_rng(3030)
        cases = [
            (np.zeros((2, 5)), np.zeros((2, 5))),  # H = 0: the all-ones vector
            (np.ones((3, 2)), np.ones((3, 2))),
            (np.ones((2, 3)), np.ones((3, 2))),
            (np.array([[1.0, np.inf]]), np.ones((1, 2))),
        ]
        for _ in range(150):
            d = int(rng.integers(1, 7))
            n = int(rng.choice([2, int(rng.integers(2, 200))]))
            x, y = rng.standard_normal((2, d, n))
            if rng.random() < 0.3:  # ties: few distinct values
                x, y = rng.integers(-2, 3, (2, d, n)).astype(float)
            if rng.random() < 0.2:
                x[:, int(rng.integers(0, n))] = 0.0
            if rng.random() < 0.3:
                x, y = x + 1e6, y + 1e6
            e = int(rng.integers(-40, 41))
            cases.append((np.ldexp(x, e), np.ldexp(y, -e // 2)))
        outcomes = set()
        for x, y in cases:
            want = eigenpair_outcome(parent_khatri_rao_eigenpair, x, y)
            assert eigenpair_outcome(khatri_rao_eigenpair, x, y) == want
            if len(want) == 2:
                outcomes.add(want[0])
            else:
                outcomes.add("zero" if want[0] == "0.0" else "pair")
        # pairs, the H = 0 fallback and refusals were all compared
        assert outcomes == {"pair", "zero", ValueError}
