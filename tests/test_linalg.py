"""Matrix primitives against brute-force and closed-form oracles."""

import numpy as np
import pytest

import math

from gramoverlap import (
    OverlapMatrix,
    PreprocessMode,
    SizeLimitError,
    build_overlap,
    dense_eig,
    gram,
    spectral_norm,
)
from gramoverlap import linalg, synth
from gramoverlap.linalg import (
    POWER_MAX_ITER_DEFAULT,
    POWER_TOL_DEFAULT,
    SpectralPair,
    _power_iteration,
    _sign_flips,
    as_matrix,
)


def rng_for(seed):
    return np.random.default_rng(seed)


def haar(d, seed):
    """A Haar-distributed orthogonal d-by-d matrix from the synthetic
    generator's sampler, on a fresh stream of ``seed``."""
    return synth._haar(d, np.random.default_rng(seed))


def random_symmetric(n, rng):
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


def signed(v):
    """The vector ``v`` under the sign rule: negated when :func:`_sign_flips`
    flips it as a row."""
    return -v if _sign_flips(v[None])[0] else v


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
        pair = _power_iteration(np.diag([3.0, 1.0]))
        assert pair.converged
        assert abs(pair.value - 3.0) <= 1e-8
        assert np.allclose(np.abs(pair.vector), [1.0, 0.0], atol=1e-6)

    def test_symmetric_2x2_closed_form(self):
        pair = _power_iteration(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert pair.converged
        assert abs(pair.value - 3.0) <= 1e-8
        assert np.allclose(pair.vector, np.full(2, 1 / np.sqrt(2)), atol=1e-8)

    def test_agrees_with_dense_eig_on_random_psd(self):
        for seed in range(5):
            m = rng_for(200 + seed).standard_normal((20, 20))
            a = gram(m)  # PSD with gapped top eigenvalue almost surely
            pair = _power_iteration(a)
            values, vectors = dense_eig(a)
            assert abs(pair.value - values[0]) <= 1e-8 * values[0]
            top = vectors[:, 0]
            if np.dot(top, pair.vector) < 0:
                top = -top
            assert np.linalg.norm(pair.vector - top) <= 1e-6

    def test_unit_norm_and_residual_contract(self):
        a = random_symmetric(15, rng_for(5))
        pair = _power_iteration(a)
        assert abs(np.linalg.norm(pair.vector) - 1.0) <= 1e-12
        assert (
            np.linalg.norm(a @ pair.vector - pair.value * pair.vector)
            <= pair.residual + 1e-12
        )

    def test_zero_matrix(self):
        pair = _power_iteration(np.zeros((4, 4)))
        assert pair.converged and pair.iterations == 1
        assert pair.value == 0.0
        # a product whose norm underflows to zero is accepted at once too:
        # its residual underflows with it
        pair = _power_iteration(np.diag([1e-320, 0.0, 0.0, 0.0]))
        assert pair.converged and pair.iterations == 1
        assert pair.residual == 0.0

    def test_nonconvergence_flag(self):
        # +/-1 eigenvalue pair: the iterates oscillate and never settle,
        # however many iterations the fixed cap allows
        a = np.diag([1.0, -1.0])
        pair = _power_iteration(a)
        assert not pair.converged
        assert pair.iterations == POWER_MAX_ITER_DEFAULT == 1000
        assert pair.residual == pytest.approx(1.0)

    def test_keeps_the_bits_of_the_checked_solver(self):
        # the reference loop re-checked its input and signed its vector
        # alone; the kernel returns the same bits, unconverged iterates
        # included
        def reference(a):
            a = linalg.check_symmetric(a, "a")
            n = a.shape[0]
            v = np.full(n, 1.0 / math.sqrt(n))
            best_residual, best = math.inf, (0.0, v)
            for k in range(1, POWER_MAX_ITER_DEFAULT + 1):
                av = a @ v
                value = float(v @ av)
                residual = float(np.linalg.norm(av - value * v))
                if residual < best_residual:
                    best_residual, best = residual, (value, v)
                if residual <= POWER_TOL_DEFAULT * max(1.0, abs(value)):
                    return value, signed(v), k, residual, True
                v = av / float(np.linalg.norm(av))
            value, v = best
            return value, signed(v), POWER_MAX_ITER_DEFAULT, best_residual, False

        corpus = [np.diag([1.0, -1.0]), np.zeros((3, 3)), -np.eye(4)]
        corpus += [random_symmetric(n, rng_for(300 + n)) for n in (1, 2, 5, 12, 30)]
        corpus += [gram(rng_for(s).standard_normal((6, 40))) for s in (31, 32)]
        unconverged = 0
        for a in corpus:
            pair = _power_iteration(a)
            want = reference(a)
            assert pair.vector.tobytes() == want[1].tobytes()
            assert (pair.value, pair.iterations, pair.residual, pair.converged) == (
                want[0], *want[2:]
            )
            unconverged += not pair.converged
        assert unconverged >= 1

    def test_deterministic_bitwise(self):
        a = random_symmetric(12, rng_for(42))
        p1 = _power_iteration(a)
        p2 = _power_iteration(a)
        assert p1.value == p2.value
        assert np.array_equal(p1.vector, p2.vector)

    def test_sign_convention(self):
        a = gram(rng_for(17).standard_normal((6, 9)))
        pair = _power_iteration(a)
        assert pair.vector.sum() >= -1e-12
        v = np.array([0.5, -0.8, 0.3])  # sums to 0: largest-magnitude entry wins
        assert _sign_flips(np.stack([v, -v])).tolist() == [True, False]
        assert signed(v)[1] > 0

    def test_sign_convention_absorbs_flips(self):
        # the convention resolves the ambiguity: of a vector and its
        # negation exactly one is flipped, so both give the same vector
        rng = rng_for(19)
        for _ in range(20):
            v = rng.standard_normal(int(rng.integers(2, 12)))
            flips = _sign_flips(np.stack([v, -v]))
            assert flips[0] != flips[1]
            assert np.array_equal(signed(v), signed(-v))


def per_column_dense_eig(a):
    """The reference: dense_eig while it fixed the sign of one column at a
    time."""
    values, vectors = np.linalg.eigh(a)
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    for j in range(a.shape[0]):
        vectors[:, j] = signed(vectors[:, j])
    return values, vectors


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

    def test_signs_all_columns_as_the_rule_signs_each(self):
        rng = rng_for(2727)
        corpus = [np.eye(3), np.diag([5.0, 2.0, -1.0]), np.diag([3.0, -4.0]), np.zeros((5, 5))]
        corpus += [random_symmetric(n, rng_for(s)) for n, s in ((17, 23), (30, 29), (25, 31), (50, 37))]
        corpus += [gram(rng_for(17).standard_normal((6, 9))), np.ones((4, 4))]
        corpus += [random_symmetric(int(rng.integers(1, 80)), rng) for _ in range(200)]
        flipped = 0
        for a in corpus:
            values, vectors = dense_eig(a)
            want_values, want_vectors = per_column_dense_eig(a)
            assert values.tobytes() == want_values.tobytes()
            assert vectors.tobytes() == want_vectors.tobytes()
            _, raw = np.linalg.eigh(a)
            flipped += int((raw[:, ::-1] != vectors).any(axis=0).sum())
        assert flipped > 1000


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


def factored_eigenpair(x, y):
    """The factored eigenpair of the pair ``x``, ``y`` at any size: that of
    their overlap, its inputs checked as ``build_overlap`` checks them, with
    the factored backend set in place of the one the size rule picks."""
    h = build_overlap(x, y, PreprocessMode.NONE, backend="gram_factor")
    h.eig_backend = "gram_factor"
    return h.leading_eigenpair()


def parent_khatri_rao_eigenpair(x, y):
    """The reference: the factored eigenpair as it was with a full eigh of
    Z Z^T, and with its norms taken by np.linalg.norm."""
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
    return SpectralPair(value, signed(v), 0, residual, converged)


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


def kronecker_diagonal_pair(s, seed):
    """A d-by-d^2 pair whose Khatri-Rao Gram ``Z Z^T`` has eigenvalues
    ``s^2`` and rotated eigenvectors, while ``H = diag(s^2)``.

    Column ``a d + b`` is ``s_ab e_a`` in ``X`` and ``e_b`` in ``Y``, so
    ``Z = diag(s)``; rotating ``X`` by ``Q`` and ``Y`` by ``R`` makes
    ``Z = (Q (x) R) diag(s)``.
    """
    d = math.isqrt(s.size)
    a, b = np.divmod(np.arange(d * d), d)
    x = np.zeros((d, d * d))
    y = np.zeros((d, d * d))
    x[a, np.arange(d * d)] = s
    y[b, np.arange(d * d)] = 1.0
    return haar(d, seed) @ x, haar(d, seed + 1) @ y


class TestKhatriRaoEigenpair:
    @staticmethod
    def seeded_cases():
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
        return cases

    def test_agrees_with_the_parent_solver(self):
        # The eigh reference and the squaring solver agree to rounding, not
        # bit for bit; refusals and the H = 0 fallback are identical.
        outcomes = set()
        for x, y in self.seeded_cases():
            want = eigenpair_outcome(parent_khatri_rao_eigenpair, x, y)
            if len(want) == 2 or want[0] == "0.0":
                assert eigenpair_outcome(factored_eigenpair, x, y) == want
                outcomes.add("zero" if len(want) > 2 else want[0])
                continue
            ref = parent_khatri_rao_eigenpair(x, y)
            pair = factored_eigenpair(x, y)
            assert pair.converged == ref.converged
            assert pair.iterations == 0
            assert abs(pair.value - ref.value) <= 1e-12 * abs(ref.value)
            assert np.max(np.abs(pair.vector - ref.vector)) <= 1e-12
            outcomes.add("pair")
        # pairs, the H = 0 fallback and refusals were all compared
        assert outcomes == {"pair", "zero", ValueError}

    def test_resolves_a_relative_gap_of_1e_9(self, monkeypatch):
        for d, seed in ((2, 0), (3, 10), (6, 20)):
            s2 = np.linspace(0.9, 0.1, d * d)
            s2[:2] = 1.0, 1.0 - 1e-9
            x, y = kronecker_diagonal_pair(np.sqrt(s2), seed)
            pair = factored_eigenpair(x, y)
            # H = diag(s^2): the residual test accepts e_2 as well, so the
            # vector is checked against e_1 itself
            assert pair.converged
            assert abs(pair.vector[0]) >= 1.0 - 1e-12
            # 20 squarings leave e_1 and e_2 mixed; about 36 separate them
            monkeypatch.setattr(linalg, "KHATRI_RAO_MAX_SQUARINGS", 20)
            assert abs(factored_eigenpair(x, y).vector[0]) < 1.0 - 1e-6
            monkeypatch.undo()

    @pytest.mark.parametrize("d", [2, 3, 6])
    @pytest.mark.parametrize("tied", [2, 3])
    def test_a_tied_top_eigenspace_stops_early_with_a_vector_inside_it(
        self, monkeypatch, d, tied
    ):
        # rounding noise inside the tied space never settles B's entries,
        # but it leaves the normalising trace where it is
        squarings = []
        matmul = np.matmul

        def counted(*args, **kwargs):
            squarings.append("out" in kwargs)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        for seed in range(0, 200, 10):
            s2 = np.linspace(0.9, 0.1, d * d)
            s2[:tied] = 1.0
            x, y = kronecker_diagonal_pair(np.sqrt(s2), seed)
            squarings.clear()
            pair = factored_eigenpair(x, y)
            assert 0 < sum(squarings) <= 16
            assert pair.converged
            assert pair.residual <= POWER_TOL_DEFAULT * pair.value
            inside = pair.vector[:tied]
            assert inside @ inside >= 1.0 - 1e-12

    def test_never_calls_eigh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigh was called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for x, y in self.seeded_cases()[4:40]:
            factored_eigenpair(x, y)
        x, y = np.random.default_rng(4).standard_normal((2, 4, 100))
        h = build_overlap(x, y, "center_normalize")
        assert h.eig_backend == "gram_factor"
        assert h.leading_eigenpair().converged


def matrix_khatri_rao_eigenpair(x, y):
    """The reference: the factored eigenpair as it was before its solver ran
    on stacks, squaring one 2-D matrix and taking the sign last."""
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: x is {x.shape}, y is {y.shape}")
    d, n = x.shape
    z = (x[:, None, :] * y[None, :, :]).reshape(d * d, n)
    g = z @ z.T
    t = float(g.trace())
    if t > 0.0:
        b = g / t
        b2 = np.empty_like(b)
        tol = g.shape[0] * np.finfo(np.float64).eps
        last = 0.0
        for _ in range(linalg.KHATRI_RAO_MAX_SQUARINGS):
            np.matmul(b, b.T, out=b2)
            t = float(b2.trace())
            b2 /= t
            b, b2 = b2, b
            if abs(t - last) <= tol * t:
                break
            last = t
        u = g @ b[:, b.diagonal().argmax()]
    else:
        u = np.zeros(d * d)
    w = u @ z
    norm = math.sqrt(w @ w)
    v = w / norm if norm > 0.0 else np.full(n, 1.0 / math.sqrt(n))
    zv = z @ v
    value = float(zv @ zv)
    r = zv @ z - value * v
    residual = math.sqrt(r @ r)
    converged = residual <= POWER_TOL_DEFAULT * max(1.0, abs(value))
    return SpectralPair(value, signed(v), 0, residual, converged)


class TestStackedKhatriRao:
    """The stacked kernels of a sweep trial against one pair at a time."""

    def test_one_pair_keeps_the_bits_of_the_matrix_solver(self):
        cases = TestKhatriRaoEigenpair.seeded_cases()
        for d, tied in ((2, 2), (3, 3), (6, 2)):
            s2 = np.linspace(0.9, 0.1, d * d)
            s2[:tied] = 1.0
            cases.append(kronecker_diagonal_pair(np.sqrt(s2), 7))
        for x, y in cases:
            assert eigenpair_outcome(factored_eigenpair, x, y) == eigenpair_outcome(
                matrix_khatri_rao_eigenpair, x, y
            )

    @staticmethod
    def gram_stack(d):
        """Gram matrices of order d^2 that stop after different numbers of
        squarings: random pairs, tied and nearly tied spectra, and zero."""
        rng = np.random.default_rng(3131 + d)
        pairs = [tuple(rng.standard_normal((2, d, 5 * d * d))) for _ in range(3)]
        for tied, gap in ((2, 0.0), (1, 1e-9), (3, 0.0), (1, 0.3)):
            s2 = np.linspace(0.9, 0.1, d * d)
            s2[:tied] = 1.0
            s2[tied] = 1.0 - gap if gap else s2[tied]
            pairs.append(kronecker_diagonal_pair(np.sqrt(s2), tied))
        grams = []
        for x, y in pairs:
            z = (x[:, None, :] * y[None, :, :]).reshape(d * d, -1)
            grams.append(z @ z.T)
        grams.insert(2, np.zeros((d * d, d * d)))
        return np.stack(grams)

    @pytest.mark.parametrize("d", [2, 3])
    def test_each_matrix_squares_as_often_as_alone(self, monkeypatch, d):
        squarings = []
        matmul = np.matmul

        def counted(*args, **kwargs):
            if "out" in kwargs:
                squarings.append(len(args[0]))
            return matmul(*args, **kwargs)

        grams = self.gram_stack(d)
        monkeypatch.setattr(np, "matmul", counted)
        alone = []
        for g in grams:
            squarings.clear()
            vector = linalg._top_eigvectors_by_squaring(g[None])[0]
            alone.append((vector, len(squarings)))
        squarings.clear()
        got = linalg._top_eigvectors_by_squaring(grams)
        for row, (want, _) in zip(got, alone):
            assert np.array_equal(row, want)
        counts = sorted(count for _, count in alone)
        assert not alone[2][0].any() and alone[2][1] == 0  # the zero matrix
        assert len(set(counts)) >= 3
        # the stack shrinks as each matrix's trace settles: at squaring j it
        # holds the matrices that square at least j + 1 times alone
        assert squarings == [
            sum(count > j for count in counts) for j in range(counts[-1])
        ]

    def test_rows_are_each_pairs_vector_and_row_sums(self):
        rng = np.random.default_rng(3232)
        d, n = 3, 50
        x = rng.standard_normal((d, n))
        ys = rng.standard_normal((5, d, n))
        ys[1] = 0.0  # H = 0: the all-ones vector
        ys[3] = np.ldexp(ys[3], 60)
        ys[4] = ys[4].round()  # few distinct values
        vectors = linalg._khatri_rao_vectors(linalg._khatri_rao(x, ys))
        sums = linalg._khatri_rao_row_sums(x, ys)
        for y, vector, row_sums in zip(ys, vectors, sums):
            assert np.array_equal(vector, factored_eigenpair(x, y).vector)
            assert np.array_equal(row_sums, OverlapMatrix(xp=x, yp=y).row_sums())
        assert np.array_equal(vectors[1], np.full(n, 1 / math.sqrt(n)))
