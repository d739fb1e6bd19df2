import numpy as np
import pytest

import relocsplit.operators as operators
from relocsplit import (
    AffineOperator,
    BoxNormalCone,
    SingletonSet,
    check_relative_strong_monotonicity,
    generate_problem,
    skew_operator,
    symmetric_operator,
)
from relocsplit.errors import (
    DomainError,
    NonMonotoneOperator,
    NonPositiveStepsize,
    SingularSystem,
    UnsupportedOperator,
    UnsupportedSet,
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


#: nonsymmetric monotone matrices: skew, non-normal, defective
NONSYMMETRIC = {
    "skew": lambda: skew_operator(8, 2.0, np.random.default_rng(5)),
    "random_monotone": lambda: random_monotone(8, 6),
    "jordan": lambda: AffineOperator(np.array([[1.0, 1.0], [0.0, 1.0]]), [0.5, -1.0]),
}


class TestOneFactorization:
    """Every affine operator factors M once, at construction, for all stepsizes."""

    @pytest.mark.parametrize("make, kind", [
        (lambda rng: symmetric_operator(6, 0.5, 2.0, rng), "eigh"),
        (lambda rng: AffineOperator(np.eye(6)), "eigh"),
        (lambda rng: skew_operator(6, 2.0, rng), "schur"),
        (lambda rng: random_monotone(6, 3), "schur"),
    ], ids=["symmetric", "identity", "skew", "random_monotone"])
    def test_factors_once_at_construction(self, monkeypatch, make, kind):
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
        assert at_construction == [kind]

    @pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("name", sorted(NONSYMMETRIC))
    def test_matches_direct_solve(self, name, gamma):
        op = NONSYMMETRIC[name]()
        x = 3 * np.random.default_rng(7).standard_normal(op.dim)
        expected = np.linalg.solve(np.eye(op.dim) + gamma * op.M, x - gamma * op.b)
        err = np.linalg.norm(op.resolvent(gamma, x) - expected)
        assert err <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("name", sorted(NONSYMMETRIC))
    def test_inverse_apply_matches_direct_solve(self, name):
        op = NONSYMMETRIC[name]()
        y = 3 * np.random.default_rng(8).standard_normal(op.dim)
        expected = np.linalg.solve(op.M, y - op.b)
        err = np.linalg.norm(op.inverse_apply(y) - expected)
        assert err <= 1e-12 * np.linalg.norm(expected)


class TestReflectedResolvent:
    def test_zero_operator(self):
        op = AffineOperator(np.zeros((2, 2)))
        x = np.array([3.0, -1.0])
        assert np.array_equal(op.reflected_resolvent(1.0, x), x)

    def test_identity_operator(self):
        op = AffineOperator(np.eye(1))
        assert np.allclose(op.reflected_resolvent(1.0, [2.0]), [0.0])

    def test_recomputed_from_resolvent(self):
        op = random_monotone(5, 14)
        rng = np.random.default_rng(15)
        x = rng.standard_normal(5)
        expected = 2 * op.resolvent(0.8, x) - x
        assert np.array_equal(op.reflected_resolvent(0.8, x), expected)


class TestInverseApply:
    def test_scaled_identity(self):
        op = AffineOperator(2 * np.eye(1))
        assert np.allclose(op.inverse_apply([4.0]), [2.0])

    def test_inverse_scaling_identity(self):
        # (gamma A)^{-1} y == A^{-1}(y / gamma)
        op = AffineOperator(2 * np.eye(1))
        scaled = op.scaled(3.0)
        assert np.allclose(scaled.inverse_apply([6.0]), [1.0])
        assert np.allclose(op.inverse_apply([2.0]), [1.0])

    def test_inverse_scaling_identity_random(self):
        op = random_monotone(4, 44)
        rng = np.random.default_rng(45)
        y = rng.standard_normal(4)
        for gamma in (0.25, 1.7, 6.0):
            lhs = op.scaled(gamma).inverse_apply(y)
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

    def test_inverse_operator_agrees(self):
        op = random_monotone(3, 18)
        inv = op.inverse_operator()
        y = np.array([0.3, -1.2, 2.0])
        assert np.allclose(inv(y), op.inverse_apply(y), atol=1e-12)


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


class TestRelativeStrongMonotonicity:
    def test_scaled_identity_at_origin(self):
        op = AffineOperator(2 * np.eye(3))
        report = check_relative_strong_monotonicity(op, SingletonSet(np.zeros(3)), 2.0, 200, 1)
        assert report.violations == 0
        # equality case of strong monotonicity: margin is zero up to rounding
        assert abs(report.worst_margin) <= 1e-9

    def test_true_modulus_passes(self):
        op = symmetric_operator(5, 0.5, 2.0, np.random.default_rng(3))
        x_star = np.linalg.solve(op.M, -op.b)
        report = check_relative_strong_monotonicity(op, SingletonSet(x_star), 0.5, 1000, 11)
        assert report.violations == 0

    def test_inflated_modulus_fails(self):
        op = symmetric_operator(5, 0.5, 2.0, np.random.default_rng(3))
        x_star = np.linalg.solve(op.M, -op.b)
        report = check_relative_strong_monotonicity(op, SingletonSet(x_star), 0.6, 1000, 11)
        assert report.violations >= 1
        assert report.worst_margin < 0

    def test_scaling_property(self):
        # (A, X, mu) passing implies (gamma A, X, gamma mu) passing on the same samples
        op = symmetric_operator(4, 0.5, 2.0, np.random.default_rng(8))
        x_star = np.linalg.solve(op.M, -op.b)
        region = SingletonSet(x_star)
        base = check_relative_strong_monotonicity(op, region, 0.5, 500, 23)
        assert base.violations == 0
        for gamma in (0.3, 2.0, 5.0):
            scaled = check_relative_strong_monotonicity(op.scaled(gamma), region, gamma * 0.5, 500, 23)
            assert scaled.violations == 0

    def test_inverse_scaling_property(self):
        # A^{-1} passing for (Y, rho) implies (gamma A)^{-1} passing for (gamma Y, rho/gamma)
        op = symmetric_operator(4, 0.5, 2.0, np.random.default_rng(9))
        rho = 1.0 / op.sym_eig_max
        origin = SingletonSet(np.zeros(4))
        base = check_relative_strong_monotonicity(op.inverse_operator(), origin, rho, 500, 29)
        assert base.violations == 0
        for gamma in (0.5, 3.0):
            inv_scaled = op.scaled(gamma).inverse_operator()
            report = check_relative_strong_monotonicity(
                inv_scaled, origin.scaled(gamma), rho / gamma, 500, 29
            )
            assert report.violations == 0

    def test_unsupported_inputs(self):
        op = AffineOperator(np.eye(2))
        with pytest.raises(UnsupportedSet):
            check_relative_strong_monotonicity(op, object(), 1.0, 10, 0)
        box = BoxNormalCone([-1.0], [1.0])
        with pytest.raises(UnsupportedOperator):
            check_relative_strong_monotonicity(box, SingletonSet(np.zeros(1)), 1.0, 10, 0)
