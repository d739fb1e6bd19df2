import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relocsplit as rs
from relocsplit import (
    ScalarShiftFamily,
    StepsizeSchedule,
    compute_distances,
    fit_linear_rate,
    fixed_point_oracle,
    verify_error_bound,
    verify_one_step_contraction,
    verify_rate_theorem,
)
from relocsplit.diagnostics import FixedPointCache
from relocsplit.dr import fix_decomposition_check
from relocsplit.errors import (
    DomainError,
    MissingDistances,
    NoConvergence,
    NonSingletonFix,
    TooFewSamples,
)
from relocsplit.family import relocated_iterate

INTERVAL = (0.5, 2.0)


class TestFitLinearRate:
    def test_exact_geometric(self):
        est = fit_linear_rate(0.5 ** np.arange(60), burn_in=0)
        assert est.linear
        assert est.r == pytest.approx(0.5, abs=1e-12)
        assert est.C == pytest.approx(1.0, rel=1e-10)
        assert est.fit_quality == pytest.approx(1.0, abs=1e-12)

    def test_polynomial_marked_not_linear(self):
        e = 1.0 / (np.arange(10_000) + 1.0) ** 2
        est = fit_linear_rate(e, burn_in=5)
        assert not est.linear
        assert est.fit_quality < 0.9

    def test_noisy_geometric(self):
        rng = np.random.default_rng(42)
        n = np.arange(200)
        e = 3.0 * 0.8**n * (1.0 + 0.01 * rng.standard_normal(200))
        est = fit_linear_rate(e, burn_in=5)
        assert est.linear
        assert 0.79 <= est.r <= 0.81

    def test_envelope_recovery_property(self):
        # r bounded below so C * r^n keeps >= 20 entries above the 1e-14 floor
        @given(C=st.floats(0.1, 50.0), r=st.floats(0.35, 0.95))
        @settings(max_examples=100, deadline=None)
        def check(C, r):
            est = fit_linear_rate(C * r ** np.arange(80), burn_in=0)
            assert est.r == pytest.approx(r, rel=0.01)
            assert est.C == pytest.approx(C, rel=0.01)

        check()

    def test_envelope_dominates_used_samples(self):
        rng = np.random.default_rng(7)
        e = 2.0 * 0.7 ** np.arange(100) * (1.0 + 0.05 * rng.standard_normal(100))
        est = fit_linear_rate(e, burn_in=5)
        if est.linear and est.fit_quality >= 0.95:
            n = np.arange(5, 5 + est.n_used)
            assert np.all(e[5 : 5 + est.n_used] <= est.C * est.r**n * 1.1)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            fit_linear_rate(0.5 ** np.arange(10), burn_in=0)
        # floor truncation also counts: everything below 1e-14 is unusable
        with pytest.raises(TooFewSamples):
            fit_linear_rate(1e-16 * np.ones(100), burn_in=0)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            fit_linear_rate(np.array([1.0, -1.0] * 20), burn_in=0)
        with pytest.raises(DomainError):
            fit_linear_rate(0.5 ** np.arange(40), burn_in=-1)

    def test_constant_sequence_not_linear(self):
        est = fit_linear_rate(np.ones(50), burn_in=0)
        assert not est.linear
        assert est.r >= 1.0


class TestFixedPointOracle:
    def test_scalar_shift(self):
        fam = ScalarShiftFamily(0.5, INTERVAL)
        x = fixed_point_oracle(fam, 2.0, [0.0])
        assert x[0] == pytest.approx(2.0, abs=1e-12)

    def test_identity_pair_zero(self):
        a = rs.AffineOperator(np.eye(3))
        fam = rs.DRFamily(a, rs.AffineOperator(np.eye(3)), INTERVAL)
        x = fixed_point_oracle(fam, 1.3, np.ones(3))
        assert np.linalg.norm(x) <= 1e-12

    def test_cross_module_consistency(self, pd_pair_family):
        x = fixed_point_oracle(pd_pair_family, 1.1, np.zeros(5))
        fd = fix_decomposition_check(pd_pair_family, 1.1, x)
        assert fd.primal_residual <= 1e-8
        assert fd.reconstruction_error <= 1e-8

    def test_restart_invariance(self, pd_pair_family):
        rng = np.random.default_rng(3)
        points = [
            fixed_point_oracle(pd_pair_family, 1.0, 3 * rng.standard_normal(5))
            for _ in range(5)
        ]
        spread = max(np.linalg.norm(p - points[0]) for p in points)
        assert spread <= 1e-10

    def test_requires_contraction_marker(self):
        box_fam = rs.DRFamily(
            rs.AffineOperator(np.eye(2)), rs.BoxNormalCone([-1.0, -1.0], [1.0, 1.0]), INTERVAL
        )
        with pytest.raises(NonSingletonFix):
            fixed_point_oracle(box_fam, 1.0, np.zeros(2))

    def test_no_convergence_reports_residual(self, pd_pair_family):
        with pytest.raises(NoConvergence) as exc:
            fixed_point_oracle(pd_pair_family, 1.0, np.ones(5) * 100, tol=1e-13, max_iters=3)
        assert exc.value.last_residual is not None


class TestVerifyErrorBound:
    def test_contraction_constant(self, pd_pair_family):
        beta = pd_pair_family.contraction_beta
        rep = verify_error_bound(pd_pair_family, 1.0, 1.0 / (1.0 - beta), (-3, 3), 1000, 5)
        assert rep.passed and rep.violations == 0

    def test_dr_eigen_constant(self, pd_pair_family):
        kappa = rs.dr_regularity_constant(
            1.0, pd_pair_family.a1.sym_eig_min, 1.0 / pd_pair_family.a1.sym_eig_max
        )
        rep = verify_error_bound(pd_pair_family, 1.0, kappa, (-3, 3), 1000, 6)
        assert rep.passed

    def test_negative_control(self, pd_pair_family):
        rep = verify_error_bound(pd_pair_family, 1.0, 0.01, (-3, 3), 1000, 7)
        assert not rep.passed
        assert rep.violations > 0
        assert rep.worst_ratio > 1.0

    def test_requires_contraction(self):
        fam = rs.DRFamily(
            rs.AffineOperator(np.zeros((2, 2))), rs.AffineOperator(np.zeros((2, 2))), INTERVAL
        )
        with pytest.raises(NonSingletonFix):
            verify_error_bound(fam, 1.0, 10.0, (-1, 1), 10, 0)


class TestVerifyOneStep:
    def test_constant_schedule_contraction(self, pd_pair_family):
        sch = StepsizeSchedule.constant(1.0, INTERVAL)
        trace = relocated_iterate(pd_pair_family, sch, np.ones(5), 80)
        compute_distances(pd_pair_family, trace)
        kappa = 1.0 / (1.0 - pd_pair_family.contraction_beta)
        rep = verify_one_step_contraction(pd_pair_family, sch, trace, kappa)
        assert rep.passed

    def test_scalar_shift_trivial(self, geometric_schedule):
        fam = ScalarShiftFamily(0.5, INTERVAL)
        trace = relocated_iterate(fam, geometric_schedule, [geometric_schedule.gamma(0)], 60)
        compute_distances(fam, trace)
        rep = verify_one_step_contraction(
            fam, geometric_schedule, trace, 1.0 / (1.0 - fam.beta)
        )
        assert rep.passed

    def test_geometric_dr_run(self, pd_pair_family, geometric_schedule):
        trace = relocated_iterate(pd_pair_family, geometric_schedule, np.ones(5), 120)
        compute_distances(pd_pair_family, trace)
        kappa = 1.0 / (1.0 - pd_pair_family.contraction_beta)
        rep = verify_one_step_contraction(pd_pair_family, geometric_schedule, trace, kappa)
        assert rep.passed
        assert rep.worst_ratio < 1.0

    def test_missing_distances(self, pd_pair_family, geometric_schedule):
        trace = relocated_iterate(pd_pair_family, geometric_schedule, np.ones(5), 30)
        with pytest.raises(MissingDistances):
            verify_one_step_contraction(pd_pair_family, geometric_schedule, trace, 10.0)


class TestVerifyRateTheorem:
    def test_scalar_geometric(self, geometric_schedule):
        fam = ScalarShiftFamily(0.5, INTERVAL)
        res = verify_rate_theorem(fam, geometric_schedule, [geometric_schedule.gamma(0)], 300, burn_in=5)
        assert res.passed
        # distances are identically zero, iterate errors are exactly 0.5^n
        assert res.dist_rate.C == 0.0
        assert res.iterate_rate.r == pytest.approx(0.5, abs=1e-10)

    def test_scalar_polynomial_negative_control(self):
        fam = ScalarShiftFamily(0.5, INTERVAL)
        sch = StepsizeSchedule.polynomial(1.0, 1.0, 2.0, INTERVAL)
        res = verify_rate_theorem(fam, sch, [sch.gamma(0)], 2000, burn_in=5)
        assert not res.passed
        assert not res.iterate_rate.linear

    def test_dr_geometric(self, pd_pair_family, geometric_schedule):
        res = verify_rate_theorem(pd_pair_family, geometric_schedule, np.zeros(5), 250, burn_in=5)
        assert res.passed
        assert res.iterate_rate.fit_quality >= 0.9
        assert res.dist_rate.fit_quality >= 0.9

    def test_requires_contraction(self):
        fam = rs.DRFamily(
            rs.AffineOperator(np.zeros((2, 2))), rs.AffineOperator(np.zeros((2, 2))), INTERVAL
        )
        sch = StepsizeSchedule.constant(1.0, INTERVAL)
        with pytest.raises(NonSingletonFix):
            verify_rate_theorem(fam, sch, np.zeros(2), 100)

    @pytest.mark.parametrize("family_name", ["pd_pair_family", "mt3_family"])
    def test_shared_run_and_cache_give_the_standalone_result(
        self, family_name, geometric_schedule, request
    ):
        family = request.getfixturevalue(family_name)
        x0 = np.random.default_rng(4).standard_normal(family.dim)
        n = 250
        alone = verify_rate_theorem(family, geometric_schedule, x0, n, burn_in=5)
        cache = FixedPointCache(family)
        compute_distances(family, relocated_iterate(family, geometric_schedule, x0, n), cache)
        extended = relocated_iterate(family, geometric_schedule, x0, 4 * n)
        shared = verify_rate_theorem(
            family, geometric_schedule, x0, n, burn_in=5, extended=extended, cache=cache
        )
        assert shared.dist_rate == alone.dist_rate
        assert shared.iterate_rate == alone.iterate_rate
        assert shared.passed == alone.passed
        assert np.array_equal(shared.limit, alone.limit)

    def test_shared_inputs_are_checked(self, pd_pair_family, mt3_family, geometric_schedule):
        x0 = np.zeros(5)
        short = relocated_iterate(pd_pair_family, geometric_schedule, x0, 100)
        with pytest.raises(DomainError):
            verify_rate_theorem(pd_pair_family, geometric_schedule, x0, 100, extended=short)
        with pytest.raises(DomainError):
            verify_rate_theorem(
                pd_pair_family, geometric_schedule, x0, 100, cache=FixedPointCache(mt3_family)
            )


class TestFixedPointCache:
    def test_keys_by_exact_gamma(self):
        # a neighbour cached within 1e-12 must not serve its point for gamma
        ops = rs.generate_problem("affine_strongly_monotone", 50, 7, 0.5, 2.0)
        family = rs.DRFamily(ops[0], ops[1], INTERVAL)
        cache = FixedPointCache(family)
        cache.point(1.0 + 9.1e-13)
        p = cache.point(1.0)
        assert family.residual(1.0, p) <= cache.tol
        assert cache.point(1.0) is p

    def test_distinct_gammas_distinct_points(self, pd_pair_family):
        cache = FixedPointCache(pd_pair_family)
        assert np.linalg.norm(cache.point(0.6) - cache.point(1.9)) > 1e-3

    def test_explicit_start_overrides_relocation(self, pd_pair_family):
        cache = FixedPointCache(pd_pair_family)
        cache.point(1.0)
        start = np.full(5, 1e3)
        p = cache.point(1.5, x0=start)
        assert pd_pair_family.residual(1.5, p) <= cache.tol


@pytest.fixture(scope="module")
def box_mt_family():
    """Three operators, the last the normal cone of [-0.5, 0.5]^4: piecewise affine."""
    ops = rs.generate_problem(
        "affine_plus_box", 4, 7, 0.5, 2.0, n_operators=3, box_half_width=0.5
    )
    return rs.MTFamily(ops, theta=0.5, gamma_interval=INTERVAL)


SCHEDULES = {
    "geometric": StepsizeSchedule.geometric(1.0, 1.0, 0.5, INTERVAL),
    "polynomial": StepsizeSchedule.polynomial(1.0, 1.0, 1.0, INTERVAL),
}


@pytest.mark.parametrize("schedule_kind", list(SCHEDULES))
@pytest.mark.parametrize("family_name", ["pd_pair_family", "mt3_family", "box_mt_family"])
def test_relocated_starts_keep_points_and_save_iterations(
    family_name, schedule_kind, request, monkeypatch
):
    family = request.getfixturevalue(family_name)
    assert family.contraction_beta is not None
    gammas = SCHEDULES[schedule_kind].gammas(80)
    applies = [0]
    real_apply = type(family).apply

    def counting(self, gamma, x):
        applies[0] += 1
        return real_apply(self, gamma, x)

    monkeypatch.setattr(type(family), "apply", counting)
    # each miss relocates the previous miss's point to the new stepsize
    cache = FixedPointCache(family)
    points = [cache.point(g) for g in gammas]
    relocated_iterations = applies[0]
    # reference: start each miss from the previous stepsize's point itself
    applies[0] = 0
    warm = FixedPointCache(family)
    previous = np.zeros(family.dim)
    for g in gammas:
        previous = warm.point(g, x0=previous)
    warm_iterations = applies[0]
    monkeypatch.undo()

    assert 4 * relocated_iterations <= warm_iterations
    # every point served passes the residual test at the stepsize asked for
    for g, p in zip(gammas, points):
        assert family.residual(g, p) <= cache.tol
        cold = fixed_point_oracle(family, g, np.zeros(family.dim))
        assert np.linalg.norm(p - cold) <= 1e-10 * (1.0 + np.linalg.norm(p))
