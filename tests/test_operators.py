import numpy as np
import pytest
from scipy.linalg import solve_triangular

import relocsplit.operators as operators
from relocsplit import (
    AffineOperator,
    BoxNormalCone,
    generate_problem,
    skew_operator,
    symmetric_operator,
)
from relocsplit.errors import (
    DomainError,
    NonMonotoneOperator,
    NonPositiveStepsize,
    SingularSystem,
)


def random_monotone(dim, seed, mu=0.3):
    """Monotone with skew part, invertible (symmetric part PD)."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, dim))
    sym = G @ G.T / dim + mu * np.eye(dim)
    skew = 0.5 * (G - G.T)
    return AffineOperator(sym + skew, rng.standard_normal(dim))


class TestResolvent:
    def test_identity_operator(self):
        op = AffineOperator(np.eye(2))
        assert np.allclose(op.resolvent(1.0, [2.0, 2.0]), [1.0, 1.0], atol=1e-15)

    def test_zero_operator_is_identity(self):
        op = AffineOperator(np.zeros((3, 3)))
        x = np.array([1.0, -2.0, 0.5])
        for gamma in (0.1, 1.0, 10.0):
            assert np.array_equal(op.resolvent(gamma, x), x)

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(12)
        op = symmetric_operator(5, 0.5, 2.0, rng)
        x = rng.standard_normal(5)
        expected = np.linalg.solve(np.eye(5) + 0.7 * op.M, x - 0.7 * op.b)
        assert np.linalg.norm(op.resolvent(0.7, x) - expected) <= 1e-12

    def test_resolvent_residual(self):
        # y = J_{gamma A} x must satisfy y + gamma*A(y) = x
        op = random_monotone(6, 4)
        rng = np.random.default_rng(5)
        for gamma in (0.3, 1.0, 2.5):
            x = 3 * rng.standard_normal(6)
            y = op.resolvent(gamma, x)
            assert np.linalg.norm(y + gamma * op(y) - x) <= 1e-10 * (1 + np.linalg.norm(x))

    def test_nonpositive_stepsize(self):
        op = AffineOperator(np.eye(2))
        with pytest.raises(NonPositiveStepsize):
            op.resolvent(0.0, [1.0, 1.0])
        with pytest.raises(NonPositiveStepsize):
            op.resolvent(-1.0, [1.0, 1.0])

    def test_cache_churn_stays_correct(self):
        # many distinct stepsizes, each visited twice
        op = random_monotone(4, 9)
        x = np.ones(4)
        gammas = np.linspace(0.1, 3.0, 20)
        expected = [np.linalg.solve(np.eye(4) + g * op.M, x - g * op.b) for g in gammas]
        for g, e in zip(list(gammas) + list(gammas[::-1]), expected + expected[::-1]):
            assert np.allclose(op.resolvent(g, x), e, atol=1e-13)

    def test_nonexpansive(self):
        op = random_monotone(5, 21)
        rng = np.random.default_rng(22)
        for _ in range(200):
            gamma = rng.uniform(0.5, 2.0)
            x, y = rng.standard_normal((2, 5)) * 3
            lhs = np.linalg.norm(op.resolvent(gamma, x) - op.resolvent(gamma, y))
            assert lhs <= np.linalg.norm(x - y) + 1e-12

    def test_joint_continuity_sampled(self):
        # (x, gamma) -> J_{gamma A} x is Lipschitz on a compact box
        op = random_monotone(4, 31)
        rng = np.random.default_rng(32)
        worst = 0.0
        for _ in range(300):
            x, xp = 2 * rng.standard_normal((2, 4))
            g, gp = rng.uniform(0.5, 2.0, size=2)
            num = np.linalg.norm(op.resolvent(g, x) - op.resolvent(gp, xp))
            den = np.linalg.norm(x - xp) + abs(g - gp)
            if den > 1e-12:
                worst = max(worst, num / den)
        assert np.isfinite(worst) and worst < 100.0


class TestSpectralResolvent:
    """Exactly symmetric operators resolve through one eigendecomposition."""

    @pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("dim", [1, 5, 50])
    def test_matches_direct_solve(self, dim, gamma):
        rng = np.random.default_rng(dim)
        for op in generate_problem("affine_strongly_monotone", dim, dim, 0.5, 2.0, n_operators=3):
            x = 3 * rng.standard_normal(dim)
            expected = np.linalg.solve(np.eye(dim) + gamma * op.M, x - gamma * op.b)
            err = np.linalg.norm(op.resolvent(gamma, x) - expected)
            assert err <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("dim", [1, 5, 50])
    def test_constants_match_dense_routines(self, dim):
        # the last operator has spectrum [0, 2]: merely monotone, mu = 0
        for op in generate_problem("affine_strongly_monotone", dim, dim, 0.5, 2.0, n_operators=3):
            scale = max(1.0, float(np.abs(op.M).max()))
            eigs = np.linalg.eigvalsh(0.5 * (op.M + op.M.T))
            assert abs(op.sym_eig_min - eigs[0]) <= 1e-12 * scale
            assert abs(op.sym_eig_max - eigs[-1]) <= 1e-12 * scale
            assert abs(op.mu - (eigs[0] if eigs[0] > 1e-10 else 0.0)) <= 1e-12 * scale
            assert abs(op.lip - np.linalg.norm(op.M, 2)) <= 1e-12 * scale


#: nonsymmetric monotone matrices (skew, non-normal, defective), and a generated
#: symmetric one, factored by the spectrum and basis it is built from
FACTORED = {
    "skew": lambda: skew_operator(8, 2.0, np.random.default_rng(5)),
    "random_monotone": lambda: random_monotone(8, 6),
    "jordan": lambda: AffineOperator(np.array([[1.0, 1.0], [0.0, 1.0]]), [0.5, -1.0]),
    "symmetric": lambda: symmetric_operator(50, 0.5, 2.0, np.random.default_rng(9)),
}


class TestOneFactorization:
    """Every affine operator factors M at most once, at construction, for all stepsizes."""

    @pytest.mark.parametrize("make, factorizations", [
        # a generated operator keeps the spectrum and basis it is built from
        (lambda rng: symmetric_operator(6, 0.5, 2.0, rng), []),
        (lambda rng: AffineOperator(np.eye(6)), ["eigh"]),
        (lambda rng: skew_operator(6, 2.0, rng), ["schur"]),
        (lambda rng: random_monotone(6, 3), ["schur"]),
    ], ids=["symmetric", "identity", "skew", "random_monotone"])
    def test_factors_once_at_construction(self, monkeypatch, make, factorizations):
        calls = []

        def counting(name, real):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        monkeypatch.setattr(operators, "schur", counting("schur", operators.schur))
        monkeypatch.setattr(operators, "lu_factor", counting("lu_factor", operators.lu_factor))
        rng = np.random.default_rng(3)
        op = make(rng)
        at_construction = calls[:]
        calls.clear()
        x = rng.standard_normal(6)
        for gamma in np.linspace(0.1, 3.0, 20):
            op.resolvent(gamma, x)
            op.inverse_apply(gamma * x)
        assert calls == []
        assert at_construction == factorizations

    @pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("name", sorted(FACTORED))
    def test_matches_direct_solve(self, name, gamma):
        op = FACTORED[name]()
        x = 3 * np.random.default_rng(7).standard_normal(op.dim)
        expected = np.linalg.solve(np.eye(op.dim) + gamma * op.M, x - gamma * op.b)
        err = np.linalg.norm(op.resolvent(gamma, x) - expected)
        assert err <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("name", sorted(FACTORED))
    def test_inverse_apply_matches_direct_solve(self, name):
        op = FACTORED[name]()
        y = 3 * np.random.default_rng(8).standard_normal(op.dim)
        expected = np.linalg.solve(op.M, y - op.b)
        err = np.linalg.norm(op.inverse_apply(y) - expected)
        assert err <= 1e-12 * np.linalg.norm(expected)


class TestFromSpectrum:
    """An operator built from its spectrum and orthonormal basis is factored by them."""

    @staticmethod
    def basis(dim, seed=4):
        return np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))[0]

    @pytest.mark.parametrize("dim", [1, 5, 50])
    def test_factors_diagonalize_M(self, dim):
        eigs, V = np.linspace(0.5, 2.0, dim), self.basis(dim)
        op = AffineOperator.from_spectrum(eigs, V, np.ones(dim))
        assert np.array_equal(op.M, op.M.T) and np.array_equal(op.b, np.ones(dim))
        residual = np.linalg.norm(op.M @ V - V * eigs, 2)
        assert residual <= 1e-12 * np.linalg.norm(op.M, 2)

    def test_constants_are_the_ends_of_the_spectrum(self):
        eigs = np.array([0.25, 0.5, 3.0])
        op = AffineOperator.from_spectrum(eigs, self.basis(3))
        assert (op.mu, op.sym_eig_min, op.sym_eig_max, op.lip) == (0.25, 0.25, 3.0, 3.0)
        merely = AffineOperator.from_spectrum([0.0, 1.0, 2.0], self.basis(3))
        assert (merely.mu, merely.sym_eig_min, merely.lip) == (0.0, 0.0, 2.0)

    def test_negative_eigenvalue_rejected(self):
        eigs = [-2 * operators.MONOTONE_EIG_TOL, 1.0, 2.0]
        with pytest.raises(NonMonotoneOperator):
            AffineOperator.from_spectrum(eigs, self.basis(3))

    @pytest.mark.parametrize("vecs", [
        np.ones((3, 3)), 2 * np.eye(3), np.eye(2), np.full((3, 3), np.nan),
    ], ids=["singular", "not_unit", "wrong_shape", "nan"])
    def test_bad_basis_rejected(self, vecs):
        with pytest.raises(DomainError):
            AffineOperator.from_spectrum([1.0, 2.0, 3.0], vecs)

    @pytest.mark.parametrize("dim", [1, 5, 50])
    def test_M_is_the_symmetrized_product_bitwise(self, dim):
        # formed in place, M is still 0.5 * (M0 + M0^T) of M0 = V diag(eigs) V^T
        eigs, V = np.linspace(0.5, 2.0, dim), self.basis(dim)
        M0 = (V * eigs) @ V.T
        op = AffineOperator.from_spectrum(eigs, V)
        assert op.M.tobytes() == (0.5 * (M0 + M0.T)).tobytes()
        assert op.is_symmetric

    def test_the_orthogonality_tolerance_is_per_entry_of_the_gram_matrix(self):
        # V^T V - I is 1e-11 off on the diagonal (accepted) or 2e-10 (rejected)
        for scale, accepted in ((1.0 + 5e-12, True), (1.0 + 1e-10, False)):
            vecs = scale * np.eye(3)
            if accepted:
                AffineOperator.from_spectrum([1.0, 2.0, 3.0], vecs)
            else:
                with pytest.raises(DomainError):
                    AffineOperator.from_spectrum([1.0, 2.0, 3.0], vecs)


class TestInverseApply:
    def test_scaled_identity(self):
        op = AffineOperator(2 * np.eye(1))
        assert np.allclose(op.inverse_apply([4.0]), [2.0])

    def test_inverse_scaling_identity(self):
        # (gamma A)^{-1} y == A^{-1}(y / gamma)
        op = AffineOperator(2 * np.eye(1))
        scaled = AffineOperator(3.0 * op.M, 3.0 * op.b)
        assert np.allclose(scaled.inverse_apply([6.0]), [1.0])
        assert np.allclose(op.inverse_apply([2.0]), [1.0])

    def test_inverse_scaling_identity_random(self):
        op = random_monotone(4, 44)
        rng = np.random.default_rng(45)
        y = rng.standard_normal(4)
        for gamma in (0.25, 1.7, 6.0):
            lhs = AffineOperator(gamma * op.M, gamma * op.b).inverse_apply(y)
            rhs = op.inverse_apply(y / gamma)
            assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_round_trip(self):
        op = random_monotone(4, 16)
        rng = np.random.default_rng(17)
        y = rng.standard_normal(4)
        x = op.inverse_apply(y)
        assert np.linalg.norm(op(x) - y) <= 1e-12

    def test_singular_raises(self):
        op = AffineOperator(np.diag([0.0, 1.0]))
        with pytest.raises(SingularSystem):
            op.inverse_apply([1.0, 1.0])

    def test_symmetric_condition_number_from_eigenvalues(self, monkeypatch):
        M = symmetric_operator(30, 0.01, 5.0, np.random.default_rng(19)).M
        op = AffineOperator(M)
        reference = np.linalg.cond(M)
        svds = []
        real_cond = np.linalg.cond

        def counting(*args):
            svds.append(args)
            return real_cond(*args)

        monkeypatch.setattr(np.linalg, "cond", counting)
        x = op.inverse_apply(np.ones(30))
        assert svds == []
        assert abs(op._cond - reference) <= 1e-9 * reference
        assert np.linalg.norm(op(x) - 1.0) <= 1e-10

    def test_rank_deficient_symmetric_raises(self):
        Q, _ = np.linalg.qr(np.random.default_rng(20).standard_normal((3, 3)))
        M = (Q * np.array([0.0, 1.0, 2.0])) @ Q.T
        op = AffineOperator(0.5 * (M + M.T))
        with pytest.raises(SingularSystem):
            op.inverse_apply(np.ones(3))


class TestConstruction:
    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneOperator):
            AffineOperator(-np.eye(2))

    def test_metadata_from_spectrum(self):
        op = symmetric_operator(5, 0.5, 2.0, np.random.default_rng(0))
        assert op.mu == pytest.approx(0.5, abs=1e-10)
        assert op.lip == pytest.approx(2.0, abs=1e-10)
        assert op.is_symmetric

    def test_skew_has_zero_mu(self):
        K = np.array([[0.0, -1.0], [1.0, 0.0]])
        op = AffineOperator(K)
        assert op.mu == 0.0
        assert op.lip == pytest.approx(1.0)
        assert not op.is_symmetric

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            AffineOperator(np.array([[np.nan]]))
        op = AffineOperator(np.eye(2))
        with pytest.raises(DomainError):
            op.resolvent(1.0, [np.nan, 0.0])


class TestBoxNormalCone:
    def test_resolvent_is_clamp_for_every_gamma(self):
        box = BoxNormalCone([-1.0, -1.0], [1.0, 2.0])
        x = np.array([-3.0, 1.5])
        for gamma in (0.1, 1.0, 7.0):
            assert np.array_equal(box.resolvent(gamma, x), [-1.0, 1.5])

    def test_interior_point_fixed(self):
        box = BoxNormalCone(-np.ones(3), np.ones(3))
        x = np.array([0.2, -0.7, 0.0])
        assert np.array_equal(box.resolvent(1.0, x), x)

    def test_infinite_bounds(self):
        box = BoxNormalCone([-np.inf, 0.0], [np.inf, 1.0])
        assert np.array_equal(box.resolvent(1.0, [5.0, 2.0]), [5.0, 1.0])

    def test_empty_box_rejected(self):
        with pytest.raises(DomainError):
            BoxNormalCone([1.0], [0.0])

    def test_normal_cone_projection(self):
        box = BoxNormalCone([-1.0, -1.0], [1.0, 1.0])
        v = np.array([0.5, -0.5])
        # interior point: normal cone is {0}
        assert np.array_equal(box.project_normal_cone([0.0, 0.0], v), [0.0, 0.0])
        # at the upper face only nonnegative directions survive
        assert np.array_equal(box.project_normal_cone([1.0, 0.0], v), [0.5, 0.0])
        assert np.array_equal(box.project_normal_cone([-1.0, -1.0], v), [0.0, -0.5])


BLOCK_OPERATORS = {
    "symmetric": lambda: symmetric_operator(6, 0.5, 2.0, np.random.default_rng(3)),
    "skew": lambda: skew_operator(6, 2.0, np.random.default_rng(4)),
    "random_monotone": lambda: random_monotone(6, 3),
    "box": lambda: BoxNormalCone(-np.ones(6), np.ones(6)),
}


class TestBlocksOfPoints:
    """A block of k points, shape (k, dim), maps row by row through the same code as one point."""

    @pytest.mark.parametrize("k", [1, 7])
    @pytest.mark.parametrize("name", sorted(BLOCK_OPERATORS))
    def test_resolvent_of_a_block_is_rowwise(self, name, k):
        op = BLOCK_OPERATORS[name]()
        X = 3 * np.random.default_rng(k).standard_normal((k, op.dim))
        for gamma in (0.3, 1.0, 1.7):
            rows = np.vstack([op.resolvent(gamma, x) for x in X])
            block = op.resolvent(gamma, X)
            assert block.shape == (k, op.dim)
            assert np.linalg.norm(block - rows) <= 1e-12 * np.linalg.norm(rows)

    @pytest.mark.parametrize("name", ["symmetric", "random_monotone"])
    def test_affine_map_and_inverse_of_a_block_are_rowwise(self, name):
        op = BLOCK_OPERATORS[name]()
        X = 3 * np.random.default_rng(2).standard_normal((7, op.dim))
        for f in (op, op.inverse_apply):
            rows = np.vstack([f(x) for x in X])
            assert np.linalg.norm(f(X) - rows) <= 1e-12 * np.linalg.norm(rows)

    @pytest.mark.parametrize("name", sorted(BLOCK_OPERATORS))
    def test_bad_blocks_rejected(self, name):
        op = BLOCK_OPERATORS[name]()
        nan_row = np.zeros((3, op.dim))
        nan_row[1, 2] = np.nan
        for bad in (np.zeros((2, 3, op.dim)), np.zeros((3, op.dim + 1)), nan_row):
            with pytest.raises(DomainError):
                op.resolvent(1.0, bad)


class TestValidationForms:
    """The checks on every resolvent's input, in their cheap forms, raise what they raised."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_as_points_rejects_non_finite_coordinates(self, bad):
        point = np.array([1.0, bad, 0.0])
        for x, dim in ((point, 3), (np.vstack([np.zeros(3), point]), 3), (bad, 1)):
            with pytest.raises(DomainError) as info:
                operators.as_points(x, dim)
            assert str(info.value) == "point has non-finite coordinates"

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "stepsize must be positive, got nan"),
        (np.inf, "stepsize must be positive, got inf"),
        (-np.inf, "stepsize must be positive, got -inf"),
        (0.0, "stepsize must be positive, got 0.0"),
        (-1.5, "stepsize must be positive, got -1.5"),
    ])
    def test_check_gamma_message_whatever_the_scalar_type(self, bad, message):
        for gamma in (float(bad), np.float64(bad), np.array(bad)):
            with pytest.raises(NonPositiveStepsize) as info:
                operators._check_gamma(gamma)
            assert str(info.value) == message
        assert operators._check_gamma(np.array(1.5)) == 1.5


def _solve_with_a_fresh_divisor(op, shift, scale, r):
    """``AffineOperator._solve`` on the eigenvalue path with the divisor formed on every call."""
    eigs, vecs = op._eig
    return ((r @ vecs) / (shift + scale * eigs)) @ vecs.T


def _padded_identity_rows(dim, a, k):
    """k rows of the d x d identity from row a, rows past its last row being 0."""
    return np.vstack([np.eye(dim), np.zeros((k, dim))])[a:a + k]


#: one operator of dimension 6 per factorization: given spectrum, eigh, Schur
ROW_OPERATORS = {
    "from_spectrum": lambda: symmetric_operator(6, 0.5, 2.0, np.random.default_rng(9)),
    "eigh": lambda: AffineOperator(np.diag(np.linspace(1.0, 2.0, 6)) + 0.1, np.ones(6)),
    "skew": lambda: skew_operator(6, 2.0, np.random.default_rng(5)),
    "random_monotone": lambda: random_monotone(6, 6),
}


class TestFactorRows:
    """``linear_resolvent_rows`` reads the first product with the factor off it."""

    @pytest.mark.parametrize("a, k", [(0, 6), (1, 3), (4, 5), (6, 2)],
                             ids=["all", "inside", "straddling", "past"])
    @pytest.mark.parametrize("name", sorted(ROW_OPERATORS))
    def test_rows_match_the_linear_resolvent_bitwise(self, name, a, k):
        op = ROW_OPERATORS[name]()
        linear = op.linear_part()
        inside = max(0, min(k, 6 - a))
        for gamma in (0.5, 1.3, 1.3, 2.0):
            expected = linear.resolvent(gamma, _padded_identity_rows(6, a, k))
            rows = op.linear_resolvent_rows(gamma, a, k)
            assert rows[:inside].tobytes() == expected[:inside].tobytes()
            # the rows past the identity are zeros; a Schur solve may sign them otherwise
            assert np.array_equal(rows[inside:], expected[inside:]) and not rows[inside:].any()

    def test_the_stepsize_is_checked(self):
        with pytest.raises(NonPositiveStepsize):
            ROW_OPERATORS["skew"]().linear_resolvent_rows(0.0, 0, 2)


def _fresh_schur_solve(op, shift, scale, r):
    """``AffineOperator._solve`` on the Schur path with shift*I + scale*T made anew."""
    T, Z, Zh = op._schur[:3]
    A = scale * T
    A[np.diag_indices_from(A)] += shift
    return (Z @ solve_triangular(A, Zh @ r.T, check_finite=False)).real.T


class TestSchurBuffer:
    def test_solves_match_a_fresh_matrix_bitwise(self):
        # the operator and its linear part share the buffer; no solve sees another's matrix
        op = random_monotone(7, 23)
        linear = op.linear_part()
        X = 3 * np.random.default_rng(24).standard_normal((4, 7))
        for gamma in (0.5, 1.25, 1.25, 0.5, 3.0):
            for which, x in ((op, X[0]), (linear, X), (op, X)):
                expected = _fresh_schur_solve(which, 1.0, gamma, x - gamma * which.b)
                assert which.resolvent(gamma, x).tobytes() == expected.tobytes()
            expected = _fresh_schur_solve(op, 0.0, 1.0, X - op.b)
            assert op.inverse_apply(X).tobytes() == expected.tobytes()


class TestHeldDivisor:
    def test_resolvent_and_inverse_match_a_fresh_divisor_bitwise(self):
        op = symmetric_operator(7, 0.5, 2.0, np.random.default_rng(21))
        X = 3 * np.random.default_rng(22).standard_normal((4, 7))
        for gamma in (0.5, 0.5, 1.25, 0.5, 1.25):
            for x in (X[0], X):
                expected = _solve_with_a_fresh_divisor(op, 1.0, gamma, x - gamma * op.b)
                assert op.resolvent(gamma, x).tobytes() == expected.tobytes()
            expected = _solve_with_a_fresh_divisor(op, 0.0, 1.0, X - op.b)
            assert op.inverse_apply(X).tobytes() == expected.tobytes()


#: bounds and coordinates with the signed zeros and infinities a clamp must order like np.clip
CLAMP_VALUES = np.array([-np.inf, -2.0, -0.5, -0.0, 0.0, 0.5, 2.0, np.inf])


class TestBoxClamp:
    @pytest.mark.parametrize("dim", [1, 2, 5, 9])
    def test_resolvent_is_np_clip_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(200):
            lower, upper = np.sort(rng.choice(CLAMP_VALUES, size=(2, dim)), axis=0)
            box = BoxNormalCone(lower, upper)
            X = rng.choice(np.concatenate([CLAMP_VALUES[1:-1], [-1e300, 1e300]]), size=(5, dim))
            # np.clip is the reference a point at a time: on a (k, 1) block it takes another loop,
            # which breaks ties between signed zeros the other way
            expected = np.vstack([np.clip(x, lower, upper) for x in X])
            assert box.resolvent(1.0, X).tobytes() == expected.tobytes()
            assert box.resolvent(2.0, X[0]).tobytes() == expected[0].tobytes()
