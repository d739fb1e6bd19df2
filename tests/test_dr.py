import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relocsplit as rs
from relocsplit import (
    AffineOperator,
    BoxNormalCone,
    DRFamily,
    MTFamily,
    StepsizeSchedule,
    algorithm1_run,
    dr_contraction_factor,
    dr_regularity_constant,
    fix_decomposition_check,
    mt_fixed_point_to_zero,
    primal_dual_extract,
)
from relocsplit.diagnostics import fixed_point_oracle
from relocsplit.errors import DomainError, UnsupportedOperator
from relocsplit.family import relocated_iterate

INTERVAL = (0.5, 2.0)


def zero_pair(dim=3):
    z = AffineOperator(np.zeros((dim, dim)))
    return DRFamily(z, AffineOperator(np.zeros((dim, dim))), INTERVAL)


class TestApply:
    def test_zero_operators_fix_everything(self):
        fam = zero_pair()
        x = np.array([1.0, -2.0, 0.3])
        assert np.array_equal(fam.apply(1.0, x), x)

    def test_zero_plus_box_interior(self):
        box = BoxNormalCone(-np.ones(2), np.ones(2))
        fam = DRFamily(AffineOperator(np.zeros((2, 2))), box, INTERVAL)
        x = np.array([0.3, -0.4])
        assert np.array_equal(fam.apply(1.0, x), x)

    def test_recomposition(self, pd_pair_family):
        # the chain's order: x + (J_{gamma A2}(2 j1 - x) - j1)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(5)
        j1 = pd_pair_family.a1.resolvent(1.0, x)
        expected = x + (pd_pair_family.a2.resolvent(1.0, 2.0 * j1 - x) - j1)
        assert np.array_equal(pd_pair_family.apply(1.0, x), expected)


    def test_is_the_two_operator_chain_at_theta_one(self, pd_pair_family):
        assert isinstance(pd_pair_family, MTFamily)
        assert (pd_pair_family.n_operators, pd_pair_family.theta) == (2, 1.0)
        assert pd_pair_family.operators == [pd_pair_family.a1, pd_pair_family.a2]
        # the held affine part's P^T is the same splitting with every offset 0, applied to the
        # identity's rows
        a1, a2 = pd_pair_family.a1, pd_pair_family.a2
        linear = DRFamily(a1.linear_part(), a2.linear_part(), pd_pair_family.gamma_interval)
        pt, q = DRFamily(a1, a2, pd_pair_family.gamma_interval).affine_part(1.0)
        assert np.array_equal(pt, linear.apply(1.0, np.eye(pd_pair_family.dim)))
        assert np.array_equal(q, pd_pair_family.apply(1.0, np.zeros(pd_pair_family.dim)))


class TestRelocate:
    def test_same_gamma_is_identity_everywhere(self, pd_pair_family):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(5)
        assert np.array_equal(pd_pair_family.relocate(1.3, 1.3, x), x)

    def test_zero_first_operator(self):
        # J of the zero operator is the identity, so relocation is a no-op
        fam = zero_pair()
        x = np.array([2.0, 0.0, -1.0])
        for delta in (0.5, 1.7):
            assert np.allclose(fam.relocate(delta, 1.0, x), x, atol=1e-15)

    def test_relocated_oracle_point_is_fixed(self, pd_pair_family):
        x = fixed_point_oracle(pd_pair_family, 0.8, np.zeros(5))
        y = pd_pair_family.relocate(1.9, 0.8, x)
        assert pd_pair_family.residual(1.9, y) <= 1e-8

    def test_lipschitz_exactness(self, pd_pair_family):
        # ||Q_{d<-g} x - x|| == |d-g| * ||x - J_{g A1} x|| / g for every x
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = 3 * rng.standard_normal(5)
            gamma, delta = rng.uniform(*INTERVAL, size=2)
            lhs = np.linalg.norm(pd_pair_family.relocate(delta, gamma, x) - x)
            rhs = (
                abs(delta - gamma)
                * np.linalg.norm(x - pd_pair_family.a1.resolvent(gamma, x))
                / gamma
            )
            assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)

    def test_relocator_lipschitz_constant(self, pd_pair_family):
        assert pd_pair_family.relocator_lipschitz(2.0, 1.0) == 2.0
        assert pd_pair_family.relocator_lipschitz(1.0, 2.0) == 1.0


class TestAlgorithm1:
    def test_zero_operators_constant_trace(self):
        fam = zero_pair()
        sch = StepsizeSchedule.constant(1.0, INTERVAL)
        x0 = np.array([1.0, 2.0, 3.0])
        trace = algorithm1_run(fam, sch, x0, 20)
        assert np.max(np.abs(trace.xs - x0)) == 0.0

    def test_constant_schedule_reaches_primal_zero(self):
        ops = rs.generate_problem("affine_strongly_monotone", 2, 3, 0.5, 2.0)
        fam = DRFamily(ops[0], ops[1], INTERVAL)
        sch = StepsizeSchedule.constant(1.0, INTERVAL)
        trace = algorithm1_run(fam, sch, np.zeros(2), 300)
        z_star = np.linalg.solve(ops[0].M + ops[1].M, -(ops[0].b + ops[1].b))
        assert np.linalg.norm(primal_dual_extract(fam, trace).z_seq[-1] - z_star) <= 1e-10

    def test_agrees_with_generic_driver(self, pd_pair_family, geometric_schedule):
        rng = np.random.default_rng(8)
        x0 = rng.standard_normal(5)
        t1 = algorithm1_run(pd_pair_family, geometric_schedule, x0, 120)
        t2 = relocated_iterate(pd_pair_family, geometric_schedule, x0, 120)
        assert np.max(np.linalg.norm(t1.xs - t2.xs, axis=1)) <= 1e-12
        # w_n is T_{gamma_n} x_n
        assert np.max(np.linalg.norm(t1.t_of_x - t2.t_of_x, axis=1)) <= 1e-12

    def test_geometric_rate_bounded(self, pd_pair_family, geometric_schedule, run_with_columns):
        trace = run_with_columns(pd_pair_family, geometric_schedule, np.zeros(5), 250)
        res = rs.verify_rate_theorem(pd_pair_family, trace)
        beta_bar = pd_pair_family.regularity().beta
        assert res.passed
        assert res.iterate_rate.r <= max(beta_bar, geometric_schedule.r) + 0.05

    def test_shadow_identity_every_row(self, pd_pair_family, geometric_schedule):
        # the per-step form takes z_n = J_{gamma_n A1} x_n from the relocation, which
        # evaluates the resolvent at the previous stepsize; T_{gamma_n} x_n must not move
        rng = np.random.default_rng(19)
        trace = algorithm1_run(pd_pair_family, geometric_schedule, rng.standard_normal(5), 60)
        for n in range(len(trace)):
            fresh = pd_pair_family.apply(trace.gammas[n], trace.xs[n])
            scale = 1.0 + np.linalg.norm(trace.xs[n])
            assert np.linalg.norm(trace.t_of_x[n] - fresh) <= 1e-11 * scale

    def test_box_constrained_solution(self):
        # strongly monotone + box normal cone: iterates find the KKT point
        rng = np.random.default_rng(23)
        a1 = rs.symmetric_operator(3, 1.0, 2.0, rng)
        box = BoxNormalCone(-0.2 * np.ones(3), 0.2 * np.ones(3))
        fam = DRFamily(a1, box, INTERVAL)
        sch = StepsizeSchedule.constant(1.0, INTERVAL)
        trace = algorithm1_run(fam, sch, np.zeros(3), 3000)
        z = primal_dual_extract(fam, trace).y_seq[-1]  # y_n = P_C(2z_n - x_n) lies in the box
        assert np.all(box.lower - 1e-9 <= z) and np.all(z <= box.upper + 1e-9)
        v = -a1(z)
        assert np.linalg.norm(box.project_normal_cone(z, v) - v) <= 1e-6


class TestPrimalDual:
    def test_symmetric_zero_problem(self):
        fam = DRFamily(AffineOperator(np.eye(2)), AffineOperator(np.eye(2)), INTERVAL)
        sch = StepsizeSchedule.constant(1.0, INTERVAL)
        trace = algorithm1_run(fam, sch, np.array([1.0, -1.0]), 120)
        seqs = primal_dual_extract(fam, trace)
        assert np.linalg.norm(seqs.z_seq[-1]) <= 1e-12
        assert np.linalg.norm(seqs.g_seq[-1]) <= 1e-12

    def test_dual_membership(self, pd_pair_family, geometric_schedule):
        trace = algorithm1_run(pd_pair_family, geometric_schedule, np.zeros(5), 250)
        seqs = primal_dual_extract(pd_pair_family, trace)
        g = seqs.g_seq[-1]
        dual_residual = np.linalg.norm(
            pd_pair_family.a1.inverse_apply(g) - pd_pair_family.a2.inverse_apply(-g)
        )
        assert dual_residual <= 1e-6

    def test_h_equals_g_distance(self, pd_pair_family, geometric_schedule):
        trace = algorithm1_run(pd_pair_family, geometric_schedule, np.zeros(5), 100)
        seqs = primal_dual_extract(pd_pair_family, trace)
        g_lim = seqs.g_seq[-1]
        lhs = np.linalg.norm(seqs.h_seq - g_lim, axis=1)
        rhs = np.linalg.norm(seqs.g_seq - g_lim, axis=1)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestContractionFactor:
    def test_printed_value(self):
        # radicand 2 + 2 + 1 + 2*(1 - 1/4 - 1/2)*2 = 6
        beta = dr_contraction_factor(1.0, 1.0, 1.0)
        assert beta == pytest.approx((np.sqrt(6.0) + 1.0) / 4.0, abs=1e-15)
        assert beta == pytest.approx(0.8623724356957945, abs=1e-12)

    @given(
        gamma=st.floats(0.05, 20.0),
        mu=st.floats(0.05, 10.0),
        L=st.floats(0.05, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_in_unit_interval(self, gamma, mu, L):
        assert 0.0 < dr_contraction_factor(gamma, mu, L) < 1.0

    def test_grid_sanity(self):
        for gamma in (0.1, 0.5, 1.0, 2.0, 10.0):
            assert dr_contraction_factor(gamma, 1.0, 1.0) < 1.0

    def test_empirical_ratios_below_factor(self, skew_strong_family):
        rng = np.random.default_rng(9)
        for gamma in np.linspace(0.5, 2.0, 5):
            beta = dr_contraction_factor(gamma, 1.0, 1.0)
            for _ in range(200):
                u, v = 3 * rng.standard_normal((2, 4))
                lhs = np.linalg.norm(
                    skew_strong_family.apply(gamma, u) - skew_strong_family.apply(gamma, v)
                )
                assert lhs <= beta * np.linalg.norm(u - v) + 1e-9

    def test_domain_errors(self):
        for bad in ((0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)):
            with pytest.raises(DomainError):
                dr_contraction_factor(*bad)

    def test_zero_first_operator_gives_the_tail_resolvent_factor(self):
        # A1 = 0 makes T_gamma = J_{gamma A2}, a (1/(1 + gamma mu2))-contraction, tightest at gamma_low
        fam = DRFamily(AffineOperator(np.zeros((3, 3))), AffineOperator(2.0 * np.eye(3)), INTERVAL)
        beta = fam.regularity().beta
        assert beta == 1.0 / (1.0 + INTERVAL[0] * 2.0)
        u, v = np.random.default_rng(2).standard_normal((2, 3))
        ratio = np.linalg.norm(fam.apply(INTERVAL[0], u) - fam.apply(INTERVAL[0], v)) / np.linalg.norm(u - v)
        assert ratio == pytest.approx(beta, rel=1e-12)


class TestRegularityConstant:
    def test_printed_values(self):
        assert dr_regularity_constant(1.0, 1.0, 1.0) == pytest.approx(8.0)
        assert dr_regularity_constant(2.0, 1.0, 1.0) == pytest.approx(12.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            dr_regularity_constant(1.0, 0.0, 1.0)

    def test_error_bound_with_eigen_constants(self, pd_pair_family):
        mu = pd_pair_family.a1.sym_eig_min
        rho = 1.0 / pd_pair_family.a1.sym_eig_max
        kappa = dr_regularity_constant(1.0, mu, rho)
        report = rs.verify_error_bound(pd_pair_family, 1.0, kappa, 33)
        assert report.violations == 0


class TestFixDecomposition:
    def test_identity_pair_zero_point(self):
        fam = DRFamily(AffineOperator(np.eye(2)), AffineOperator(np.eye(2)), INTERVAL)
        fd = fix_decomposition_check(fam, 1.0, np.zeros(2))
        assert np.linalg.norm(fd.z) == 0.0
        assert np.linalg.norm(fd.g) == 0.0
        assert fd.primal_residual == 0.0
        assert fd.dual_checked and fd.dual_residual == 0.0
        assert fd.reconstruction_error == 0.0

    def test_oracle_point_decomposes(self, pd_pair_family):
        x = fixed_point_oracle(pd_pair_family, 1.4, np.zeros(5))
        fd = fix_decomposition_check(pd_pair_family, 1.4, x)
        assert fd.primal_residual <= 1e-8
        assert fd.dual_checked and fd.dual_residual <= 1e-6
        assert fd.reconstruction_error <= 1e-14 * (1 + np.linalg.norm(x))

    def test_converse_direction(self, pd_pair_family):
        # assemble x = z* + gamma g* from direct solves; it must be fixed
        a1, a2 = pd_pair_family.a1, pd_pair_family.a2
        z_star = np.linalg.solve(a1.M + a2.M, -(a1.b + a2.b))
        g_star = a1(z_star)
        for gamma in (0.7, 1.6):
            x = z_star + gamma * g_star
            assert pd_pair_family.residual(gamma, x) <= 1e-8

    def test_fixed_sets_move_with_gamma(self, pd_pair_family):
        # nonzero dual solution: fixed points at distinct stepsizes differ,
        # yet the relocator maps one onto the other
        xa = fixed_point_oracle(pd_pair_family, 0.6, np.zeros(5))
        xb = fixed_point_oracle(pd_pair_family, 1.8, np.zeros(5))
        assert np.linalg.norm(xa - xb) >= 1e-3
        moved = pd_pair_family.relocate(1.8, 0.6, xa)
        assert np.linalg.norm(moved - xb) <= 1e-8

    def test_agrees_with_the_chain_certificate(self, pd_pair_family):
        # DR is the multioperator chain at N = 2: its zero certificate reads the same z and residual
        for gamma in (0.7, 1.6):
            x = pd_pair_family.fixed_point(gamma)
            fd = fix_decomposition_check(pd_pair_family, gamma, x)
            cert = mt_fixed_point_to_zero(pd_pair_family, gamma, x)
            assert np.array_equal(cert.z, fd.z)
            assert cert.inclusion_residual == fd.primal_residual
            assert cert.chain_residuals.shape == (1,)

    def test_not_a_fixed_point(self, pd_pair_family):
        # z = J_{gamma A1} x solves the inclusion exactly when x is fixed
        fd = fix_decomposition_check(pd_pair_family, 1.0, np.ones(5) * 30)
        assert fd.primal_residual > 1e-8

    def test_set_valued_operator_rejected(self):
        box = BoxNormalCone(-np.ones(2) * 5, np.ones(2) * 5)
        a1 = AffineOperator(np.eye(2), np.array([0.3, -0.2]))
        fam = DRFamily(a1, box, INTERVAL)
        x = fixed_point_oracle(fam, 1.0, np.zeros(2))
        with pytest.raises(UnsupportedOperator):
            fix_decomposition_check(fam, 1.0, x)

    def test_singular_affine_skips_dual(self):
        # monotone but singular second operator: primal checkable, dual not
        a1 = AffineOperator(np.eye(2), np.array([0.4, -0.1]))
        a2 = AffineOperator(np.diag([1.0, 0.0]), np.array([-0.2, 0.0]))
        fam = DRFamily(a1, a2, INTERVAL)
        x = fixed_point_oracle(fam, 1.0, np.zeros(2), tol=1e-12, max_iters=200_000)
        fd = fix_decomposition_check(fam, 1.0, x)
        assert not fd.dual_checked
        assert np.isnan(fd.dual_residual)
        assert fd.primal_residual <= 1e-8


class TestAveragedness:
    def test_half_averaged_inequality(self, pd_pair_family):
        rng = np.random.default_rng(10)
        for _ in range(200):
            gamma = rng.uniform(*INTERVAL)
            x, y = 3 * rng.standard_normal((2, 5))
            tx = pd_pair_family.apply(gamma, x)
            ty = pd_pair_family.apply(gamma, y)
            lhs = np.linalg.norm(tx - ty) ** 2 + np.linalg.norm((x - tx) - (y - ty)) ** 2
            assert lhs <= np.linalg.norm(x - y) ** 2 + 1e-9
