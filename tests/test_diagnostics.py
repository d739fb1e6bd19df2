import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relocsplit as rs
import relocsplit.diagnostics as diagnostics
import relocsplit.mt as mt
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
from relocsplit.dr import fix_decomposition_check
from relocsplit.errors import (
    DomainError,
    MissingDistances,
    NoConvergence,
    NonSingletonFix,
    NotAFixedPoint,
    TooFewSamples,
    UnsupportedOperator,
)
import relocsplit.family as family_module
from relocsplit.family import BLOCK_FLOATS, FIXED_POINT_TOL, FixedPointLine, block_sizes, relocated_iterate
from relocsplit.operators import inclusion_gaps

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
        # floor truncation also counts: the fit stops at the first entry below 1e-14
        with pytest.raises(TooFewSamples):
            fit_linear_rate(np.r_[0.5 ** np.arange(10), 1e-16 * np.ones(90)], burn_in=0)

    def test_tail_below_the_floor_is_exact_convergence(self):
        # an exactly converged sequence is linear with C = 0, as the checks fit it
        est = fit_linear_rate(np.r_[np.ones(5), 1e-16 * np.ones(95)], burn_in=5)
        assert est.linear and est.C == 0.0 and est.n_used == 95
        assert fit_linear_rate(np.zeros(100), burn_in=0).linear

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

    def test_no_convergence_reports_residual(self, pd_pair_family):
        with pytest.raises(NoConvergence) as exc:
            fixed_point_oracle(pd_pair_family, 1.0, np.ones(5) * 100, tol=1e-13, max_iters=3)
        assert exc.value.last_residual is not None


class TestVerifyErrorBound:
    def test_contraction_constant(self, pd_pair_family):
        beta = pd_pair_family.regularity().beta
        rep = verify_error_bound(pd_pair_family, 1.0, 1.0 / (1.0 - beta), 5)
        assert rep.passed and rep.violations == 0

    def test_dr_eigen_constant(self, pd_pair_family):
        kappa = rs.dr_regularity_constant(
            1.0, pd_pair_family.a1.sym_eig_min, 1.0 / pd_pair_family.a1.sym_eig_max
        )
        rep = verify_error_bound(pd_pair_family, 1.0, kappa, 6)
        assert rep.passed

    def test_negative_control(self, pd_pair_family):
        rep = verify_error_bound(pd_pair_family, 1.0, 0.01, 7)
        assert not rep.passed
        assert rep.violations > 0
        assert rep.worst_ratio > 1.0

    def test_requires_contraction(self):
        fam = rs.DRFamily(
            rs.AffineOperator(np.zeros((2, 2))), rs.AffineOperator(np.zeros((2, 2))), INTERVAL
        )
        with pytest.raises(NonSingletonFix):
            verify_error_bound(fam, 1.0, 10.0, 0)

    @pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan])
    def test_kappa_not_positive_is_an_error(self, pd_pair_family, kappa):
        # a NaN kappa makes every ratio NaN, which no `ratio > 1` counts: it must not pass
        with pytest.raises(DomainError, match="kappa must be positive"):
            verify_error_bound(pd_pair_family, 1.0, kappa, 5)

    def test_a_nan_ratio_is_a_violation(self, pd_pair_family, monkeypatch):
        kappa = 1.0 / (1.0 - pd_pair_family.regularity().beta)
        clean = verify_error_bound(pd_pair_family, 1.0, kappa, 5)
        real_apply = type(pd_pair_family).apply

        def one_nan_row(self, gamma, x):
            t = real_apply(self, gamma, x)
            t[3, 0] = math.nan
            return t

        monkeypatch.setattr(type(pd_pair_family), "apply", one_nan_row)
        rep = verify_error_bound(pd_pair_family, 1.0, kappa, 5)
        assert clean.passed and clean.violations == 0
        assert not rep.passed and rep.violations == 1 and math.isnan(rep.worst_ratio)


def per_sample_error_bound(family, gamma, kappa, seed):
    """(violations, worst_ratio) as verify_error_bound computed them before it
    evaluated blocks: one apply per point, from a cold-start fixed point."""
    lo, hi = diagnostics.ERROR_BOUND_BOX
    x_star = fixed_point_oracle(family, gamma, np.full(family.dim, 0.5 * (lo + hi)))
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0
    for _ in range(diagnostics.ERROR_BOUND_SAMPLES):
        x = rng.uniform(lo, hi, size=family.dim)
        lhs = float(np.linalg.norm(x - x_star))
        resid = float(np.linalg.norm(x - family.apply(gamma, x)))
        rhs = kappa * resid + 1e-9 * (1.0 + float(np.linalg.norm(x)))
        ratio = lhs / rhs
        worst = max(worst, ratio)
        if ratio > 1.0:
            violations += 1
    return violations, worst


def _family_of_dim(kind: str, dim: int):
    """A contraction-certified family of ``dim`` coordinates: a dr pair, or an mt family of
    three operators on dim / 2 coordinates each."""
    if kind == "dr":
        ops = rs.generate_problem("affine_strongly_monotone", dim, 7, 0.5, 2.0)
        return rs.DRFamily(ops[0], ops[1], INTERVAL)
    ops = rs.generate_problem("affine_strongly_monotone", dim // 2, 5, 0.5, 2.0, n_operators=3)
    return rs.MTFamily(ops, theta=0.5, gamma_interval=INTERVAL)


class TestBlockedErrorBound:
    # 1000 points of 6 coordinates fit in one BLOCK_FLOATS block, 1000 of 20 take two
    @pytest.mark.parametrize("dim", [6, 20])
    @pytest.mark.parametrize("negative", [False, True], ids=["certified", "negative_control"])
    @pytest.mark.parametrize("kind", ["dr", "mt"])
    def test_matches_the_per_sample_loop(self, kind, negative, dim, monkeypatch):
        family = _family_of_dim(kind, dim)
        kappa = 0.01 if negative else 1.0 / (1.0 - family.regularity().beta)
        violations, worst = per_sample_error_bound(family, 1.0, kappa, 5)
        floats = []
        real_apply = type(family).apply

        def recording(self, gamma, x, shadow=None):
            floats.append(np.size(x))
            return real_apply(self, gamma, x, shadow)

        monkeypatch.setattr(type(family), "apply", recording)
        rep = verify_error_bound(family, 1.0, kappa, 5)
        assert family.dim == dim
        assert rep.samples == diagnostics.ERROR_BOUND_SAMPLES
        assert rep.violations == violations
        assert (violations > 0) == negative
        assert abs(rep.worst_ratio - worst) <= 1e-12 * worst
        assert max(floats) <= BLOCK_FLOATS
        blocks = sum(1 for n in floats if n > family.dim)
        assert (blocks > 1) == (diagnostics.ERROR_BOUND_SAMPLES * dim > BLOCK_FLOATS) == (dim == 20)

    def test_cached_fixed_point_runs_no_oracle(self, pd_pair_family, monkeypatch):
        # the family's line, certified once, serves the fixed point: no oracle, no residual apply
        kappa = 1.0 / (1.0 - pd_pair_family.regularity().beta)
        cold = verify_error_bound(pd_pair_family, 1.0, kappa, 5)
        calls = []
        real_oracle = diagnostics.fixed_point_oracle

        def counting(*args, **kwargs):
            calls.append(args)
            return real_oracle(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "fixed_point_oracle", counting)
        applied = _record_applies(monkeypatch, pd_pair_family)
        cached = verify_error_bound(pd_pair_family, 1.0, kappa, 5)
        assert calls == []
        assert len(applied) == len(list(block_sizes(diagnostics.ERROR_BOUND_SAMPLES, pd_pair_family.dim)))
        assert cached == cold


def per_row_one_step(family, trace, kappa):
    """(steps, violations, worst_ratio) as verify_one_step_contraction computed them
    before it took the relocator constants as one array: one call per row."""
    alpha = family.regularity().alpha
    factor = float(np.sqrt(max(0.0, 1.0 - (1.0 - alpha) / (alpha * kappa**2))))
    dist = trace.dist_to_fix
    violations = 0
    worst = 0.0
    for n in range(len(trace) - 1):
        ell = family.relocator_lipschitz(trace.gammas[n + 1], trace.gammas[n])
        ratio = dist[n + 1] / (ell * factor * dist[n] + 1e-9)
        worst = max(worst, ratio)
        violations += int(ratio > 1.0)
    return len(trace) - 1, violations, worst


class TestVerifyOneStep:
    @pytest.mark.parametrize("negative", [False, True], ids=["certified", "negative_control"])
    @pytest.mark.parametrize("family_name", ["pd_pair_family", "mt3_family"])
    def test_matches_the_per_row_loop(self, family_name, negative, geometric_schedule, request):
        family = request.getfixturevalue(family_name)
        trace = relocated_iterate(family, geometric_schedule, np.ones(family.dim), 120)
        compute_distances(family, trace)
        # kappa = 0.1 makes the factor 0, so every row with a distance above 1e-9 violates
        kappa = 0.1 if negative else 1.0 / (1.0 - family.regularity().beta)
        steps, violations, worst = per_row_one_step(family, trace, kappa)
        rep = verify_one_step_contraction(family, trace, kappa)
        assert (rep.samples, rep.violations) == (steps, violations)
        assert (violations > 0) == negative
        assert rep.worst_ratio == worst

    def test_constant_schedule_contraction(self, pd_pair_family):
        sch = StepsizeSchedule.constant(1.0, INTERVAL)
        trace = relocated_iterate(pd_pair_family, sch, np.ones(5), 80)
        compute_distances(pd_pair_family, trace)
        kappa = 1.0 / (1.0 - pd_pair_family.regularity().beta)
        rep = verify_one_step_contraction(pd_pair_family, trace, kappa)
        assert rep.passed

    def test_scalar_shift_trivial(self, geometric_schedule):
        fam = ScalarShiftFamily(0.5, INTERVAL)
        trace = relocated_iterate(fam, geometric_schedule, [geometric_schedule.gamma(0)], 60)
        compute_distances(fam, trace)
        rep = verify_one_step_contraction(fam, trace, 1.0 / (1.0 - fam.beta))
        assert rep.passed

    def test_geometric_dr_run(self, pd_pair_family, geometric_schedule):
        trace = relocated_iterate(pd_pair_family, geometric_schedule, np.ones(5), 120)
        compute_distances(pd_pair_family, trace)
        kappa = 1.0 / (1.0 - pd_pair_family.regularity().beta)
        rep = verify_one_step_contraction(pd_pair_family, trace, kappa)
        assert rep.passed
        assert rep.worst_ratio < 1.0

    def test_missing_distances(self, pd_pair_family, geometric_schedule):
        trace = relocated_iterate(pd_pair_family, geometric_schedule, np.ones(5), 30)
        with pytest.raises(MissingDistances):
            verify_one_step_contraction(pd_pair_family, trace, 10.0)

    @pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan])
    def test_kappa_not_positive_is_an_error(self, pd_pair_family, geometric_schedule, kappa):
        # a NaN kappa would make the factor 0 and FAIL by accident; it is a bad input
        trace = relocated_iterate(pd_pair_family, geometric_schedule, np.ones(5), 30)
        compute_distances(pd_pair_family, trace)
        with pytest.raises(DomainError, match="kappa must be positive"):
            verify_one_step_contraction(pd_pair_family, trace, kappa)

    def test_a_nan_ratio_is_a_violation(self, pd_pair_family, geometric_schedule):
        trace = relocated_iterate(pd_pair_family, geometric_schedule, np.ones(5), 30)
        compute_distances(pd_pair_family, trace)
        trace.dist_to_fix[7] = math.nan
        kappa = 1.0 / (1.0 - pd_pair_family.regularity().beta)
        rep = verify_one_step_contraction(pd_pair_family, trace, kappa)
        assert not rep.passed and rep.violations == 2 and math.isnan(rep.worst_ratio)


class TestVerifyRateTheorem:
    def test_scalar_geometric(self, geometric_schedule, run_with_columns):
        fam = ScalarShiftFamily(0.5, INTERVAL)
        run = run_with_columns(fam, geometric_schedule, [geometric_schedule.gamma(0)], 300)
        res = verify_rate_theorem(fam, run)
        assert res.passed
        # distances are identically zero, iterate errors are exactly 0.5^n
        assert res.dist_rate.C == 0.0
        assert res.iterate_rate.r == pytest.approx(0.5, abs=1e-10)

    def test_scalar_polynomial_negative_control(self, run_with_columns):
        fam = ScalarShiftFamily(0.5, INTERVAL)
        sch = StepsizeSchedule.polynomial(1.0, 1.0, 2.0, INTERVAL)
        res = verify_rate_theorem(fam, run_with_columns(fam, sch, [sch.gamma(0)], 2000))
        assert not res.passed
        assert not res.iterate_rate.linear

    def test_dr_geometric(self, pd_pair_family, geometric_schedule, run_with_columns):
        run = run_with_columns(pd_pair_family, geometric_schedule, np.zeros(5), 250)
        res = verify_rate_theorem(pd_pair_family, run)
        assert res.passed
        assert res.iterate_rate.fit_quality >= 0.9
        assert res.dist_rate.fit_quality >= 0.9

    def test_requires_contraction(self):
        fam = rs.DRFamily(
            rs.AffineOperator(np.zeros((2, 2))), rs.AffineOperator(np.zeros((2, 2))), INTERVAL
        )
        sch = StepsizeSchedule.constant(1.0, INTERVAL)
        trace = relocated_iterate(fam, sch, np.zeros(2), 100)
        with pytest.raises(NonSingletonFix):
            verify_rate_theorem(fam, trace)

    @pytest.mark.parametrize("family_name", ["pd_pair_family", "mt3_family"])
    def test_fits_the_columns_without_recomputing_them(
        self, family_name, geometric_schedule, run_with_columns, request, monkeypatch
    ):
        family = request.getfixturevalue(family_name)
        x0 = np.random.default_rng(4).standard_normal(family.dim)
        trace = run_with_columns(family, geometric_schedule, x0, 250)
        dist, errs = trace.dist_to_fix.copy(), trace.err_to_limit.copy()
        # the distance floor reads beta from the regularity record, which mt builds by sampling
        # T_gamma on its first read: read it before T_gamma is patched
        family.regularity()

        def recomputed(*args, **kwargs):
            raise AssertionError("verify_rate_theorem recomputed a column")

        for name in ("relocated_iterate", "limit_errors", "compute_distances"):
            monkeypatch.setattr(diagnostics, name, recomputed)
        monkeypatch.setattr(FixedPointLine, "point", recomputed)
        monkeypatch.setattr(type(family), "apply", recomputed)
        res = verify_rate_theorem(family, trace)
        assert res.passed
        floor = 10.0 * family.fixed_point_line().residual_bound / (1.0 - family.regularity().beta)
        burn_in = diagnostics.CHECK_BURN_IN
        assert res.iterate_rate == diagnostics.fit_linear_rate(
            errs, burn_in, diagnostics.rounding_floor(trace.xs)
        )
        assert res.dist_rate == diagnostics.fit_linear_rate(
            dist, burn_in, floor=max(diagnostics.FLOAT_FLOOR, min(1e-6, floor))
        )
        assert np.array_equal(trace.dist_to_fix, dist) and np.array_equal(trace.err_to_limit, errs)

    def test_distance_floor_is_the_certified_bound(
        self, pd_pair_family, geometric_schedule, run_with_columns, monkeypatch
    ):
        # the floor follows the line's bound, and serving other points does not move it
        trace = run_with_columns(pd_pair_family, geometric_schedule, np.ones(5), 250)
        before = verify_rate_theorem(pd_pair_family, trace)
        for gamma in np.linspace(*INTERVAL, 7):
            pd_pair_family.fixed_point(gamma)
        assert verify_rate_theorem(pd_pair_family, trace) == before
        line = pd_pair_family.fixed_point_line()
        raised = 1e-9 * (1.0 - pd_pair_family.regularity().beta)
        monkeypatch.setattr(pd_pair_family, "_line", dataclasses.replace(line, residual_bound=raised))
        after = verify_rate_theorem(pd_pair_family, trace)
        assert after.iterate_rate == before.iterate_rate
        start = diagnostics.CHECK_BURN_IN
        assert np.all(trace.dist_to_fix[start: start + after.dist_rate.n_used] >= 1e-8)
        assert after.dist_rate.n_used < before.dist_rate.n_used

    def test_shared_inputs_are_checked(self, pd_pair_family, geometric_schedule, run_with_columns):
        # the trace must carry both columns
        trace = run_with_columns(pd_pair_family, geometric_schedule, np.zeros(5), 100)
        for column in ("dist_to_fix", "err_to_limit"):
            lacking = dataclasses.replace(trace, **{column: None})
            with pytest.raises(MissingDistances):
                verify_rate_theorem(pd_pair_family, lacking)
        assert verify_rate_theorem(pd_pair_family, trace).passed


def _record_applies(monkeypatch, family) -> list:
    """The stepsize of every later ``apply`` call on ``family``'s class."""
    applied = []
    real = type(family).apply

    def recording(self, gamma, x):
        applied.append(gamma)
        return real(self, gamma, x)

    monkeypatch.setattr(type(family), "apply", recording)
    return applied


class TestLimitErrors:
    @pytest.mark.parametrize("family_name", ["pd_pair_family", "mt3_family"])
    def test_limit_is_the_fixed_point_at_gamma_star(self, family_name, geometric_schedule, request):
        family = request.getfixturevalue(family_name)
        x0 = np.random.default_rng(4).standard_normal(family.dim)
        run = relocated_iterate(family, geometric_schedule, x0, 300)
        limit = diagnostics.limit_errors(family, geometric_schedule.gamma_star, run)
        x_star = family.fixed_point(geometric_schedule.gamma_star)
        assert np.linalg.norm(limit - x_star) <= 1e-12 * (1.0 + np.linalg.norm(x_star))
        assert np.array_equal(run.err_to_limit, np.linalg.norm(run.xs - limit, axis=1))

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 10])
    @pytest.mark.parametrize("family_name", ["pd_pair_family", "mt3_family"])
    def test_at_most_three_applications_per_step(
        self, family_name, n_steps, geometric_schedule, request, monkeypatch
    ):
        family = request.getfixturevalue(family_name)
        x0 = np.random.default_rng(4).standard_normal(family.dim)
        run = relocated_iterate(family, geometric_schedule, x0, n_steps)
        applied = _record_applies(monkeypatch, family)
        diagnostics.limit_errors(family, geometric_schedule.gamma_star, run)
        assert 1 <= len(applied) <= 3 * n_steps
        assert set(applied) == {geometric_schedule.gamma_star}

    def test_stops_past_the_rounding_floor(self, pd_pair_family, geometric_schedule, monkeypatch):
        # from a run that has settled, the residual stops falling within a few applications
        x0 = np.random.default_rng(4).standard_normal(pd_pair_family.dim)
        run = relocated_iterate(pd_pair_family, geometric_schedule, x0, 300)
        limit = diagnostics.limit_errors(pd_pair_family, geometric_schedule.gamma_star, run)
        settled = relocated_iterate(pd_pair_family, StepsizeSchedule.constant(1.0, INTERVAL), limit, 300)
        applied = _record_applies(monkeypatch, pd_pair_family)
        diagnostics.limit_errors(pd_pair_family, geometric_schedule.gamma_star, settled)
        assert len(applied) <= 10

    def test_a_float_fixed_point_is_copied_into_the_window(self, pd_pair_family, monkeypatch):
        # with the map held, the run ends on a point T_gamma* returns bit for bit: the residual
        # is 0 at the first application and stops falling at the second, so the window holds
        # that point and its next 4 images, all copies of it, after LIMIT_WINDOW applications
        family = rs.DRFamily(pd_pair_family.a1, pd_pair_family.a2, INTERVAL)
        schedule = StepsizeSchedule.geometric(1.0, 1.0, 0.5, INTERVAL)
        family.affine_part(1.0)
        run = relocated_iterate(family, schedule, np.random.default_rng(4).standard_normal(5), 200)
        assert np.array_equal(family.apply(1.0, run.xs[-1]), run.xs[-1])
        applied = _record_applies(monkeypatch, family)
        limit = diagnostics.limit_errors(family, 1.0, run)
        expected = np.mean([run.xs[-1]] * diagnostics.LIMIT_WINDOW, axis=0)
        assert limit.tobytes() == expected.tobytes()
        assert run.err_to_limit.tobytes() == np.linalg.norm(run.xs - expected, axis=1).tobytes()
        assert len(applied) == diagnostics.LIMIT_WINDOW


class TestFixedPointCache:
    """The line each family certifies once and serves its fixed points from
    (``diagnostics.FixedPointCache`` names its class for the benchmark)."""

    def test_keys_by_exact_gamma(self):
        # stepsizes 9.1e-13 apart get their own points on the line
        ops = rs.generate_problem("affine_strongly_monotone", 50, 7, 0.5, 2.0)
        family = rs.DRFamily(ops[0], ops[1], INTERVAL)
        neighbour = family.fixed_point(1.0 + 9.1e-13)
        p = family.fixed_point(1.0)
        line = family.fixed_point_line()
        assert not np.array_equal(p, neighbour)
        assert np.array_equal(p, line.offset + 1.0 * line.slope)
        assert family.residual(1.0, p) <= 1e-13

    def test_distinct_gammas_distinct_points(self, pd_pair_family):
        assert np.linalg.norm(pd_pair_family.fixed_point(0.6) - pd_pair_family.fixed_point(1.9)) > 1e-3

    def test_line_needs_single_valued_leading_operators(self, pd_pair_family):
        # the head claims what the hypotheses read, but the line must evaluate it
        class UncallableHead:
            dim, single_valued, lip = 5, True, 1.0

        family = rs.DRFamily(UncallableHead(), pd_pair_family.a2, INTERVAL)
        assert family.missing_hypothesis() == ""
        with pytest.raises(UnsupportedOperator):
            family.fixed_point_line()

    def test_line_needs_a_contraction_certificate(self):
        fam = rs.DRFamily(
            rs.AffineOperator(np.zeros((2, 2))), rs.AffineOperator(np.zeros((2, 2))), INTERVAL
        )
        with pytest.raises(NonSingletonFix):
            fam.fixed_point(1.0)

    def test_point_failing_the_residual_test_is_refused(self, pd_pair_family, monkeypatch):
        # a line off by 1e-3, or whose bound exceeds the tolerance, is refused when first used
        real = rs.DRFamily._fixed_point_line
        run = relocated_iterate(pd_pair_family, StepsizeSchedule.constant(1.0), np.ones(5), 3)
        for field in ("offset", "slope", "residual_bound"):
            def shifted(self, field=field):
                line = real(self)
                return dataclasses.replace(line, **{field: getattr(line, field) + 1e-3})

            monkeypatch.setattr(rs.DRFamily, "_fixed_point_line", shifted)
            fresh = rs.DRFamily(pd_pair_family.a1, pd_pair_family.a2, INTERVAL)
            with pytest.raises(NotAFixedPoint):
                fresh.fixed_point(1.0)
            with pytest.raises(NotAFixedPoint):
                compute_distances(fresh, run)


class TestComputeDistances:
    @pytest.mark.parametrize("family_name", ["pd_pair_family", "mt3_family"])
    def test_blocks_match_the_per_row_distances(self, family_name, geometric_schedule, request, monkeypatch):
        family = request.getfixturevalue(family_name)
        trace = relocated_iterate(family, geometric_schedule, np.ones(family.dim), 100)
        per_row = [np.linalg.norm(x - family.fixed_point(g)) for x, g in zip(trace.xs, trace.gammas)]
        family.fixed_point_line()
        # blocks of 8 rows: three dim-float temporaries per row
        monkeypatch.setattr(family_module, "BLOCK_FLOATS", 3 * 8 * family.dim)
        served = []
        real_point = FixedPointLine.point

        def recording(self, gamma):
            served.append(np.size(gamma))
            return real_point(self, gamma)

        monkeypatch.setattr(FixedPointLine, "point", recording)
        applied = _record_applies(monkeypatch, family)
        compute_distances(family, trace)
        assert served == [8] * 12 + [5] and applied == []
        assert np.allclose(trace.dist_to_fix, per_row, rtol=4 * np.finfo(float).eps, atol=0.0)


@pytest.fixture(scope="module")
def box_mt_family():
    """Three operators, the last the normal cone of [-0.5, 0.5]^4: piecewise affine."""
    ops = rs.generate_problem(
        "affine_plus_box", 4, 7, 0.5, 2.0, n_operators=3, box_half_width=0.5
    )
    return rs.MTFamily(ops, theta=0.5, gamma_interval=INTERVAL)


@pytest.fixture(scope="module")
def one_sided_box_mt_family():
    """``box_mt_family``'s heads with a box whose every side is bounded on one end only."""
    ops = rs.generate_problem(
        "affine_plus_box", 4, 7, 0.5, 2.0, n_operators=3, box_half_width=0.5
    )
    box = rs.BoxNormalCone([-np.inf, -0.5, -0.5, -np.inf], [0.5, np.inf, np.inf, 0.5])
    return rs.MTFamily(ops[:-1] + [box], theta=0.5, gamma_interval=INTERVAL)


@pytest.fixture(scope="module")
def custom_box_mt_family(tmp_path_factory):
    """From a ``custom_matrices`` file: a nonsymmetric strongly monotone head, 0.5 I, and the
    box [-1, 1]^3. The summed heads make the active-set solve cycle, so the oracle that
    finishes it starts from a wrong guess."""
    M1 = 0.5 * np.eye(3) + np.array([[0.0, -1.0, 2.0], [1.0, 0.0, -0.2], [-2.0, 0.2, 0.0]])
    path = tmp_path_factory.mktemp("custom") / "mats.npz"
    np.savez(path, M1=M1, b1=[-0.1, 2.8, 0.8], M2=0.5 * np.eye(3),
             box_lower=-np.ones(3), box_upper=np.ones(3))
    ops = rs.generate_problem("custom_matrices", 3, 7, 0.5, 2.0, matrices_path=str(path))
    return rs.MTFamily(ops, theta=0.5, gamma_interval=INTERVAL)


SCHEDULES = {
    "geometric": StepsizeSchedule.geometric(1.0, 1.0, 0.5, INTERVAL),
    "polynomial": StepsizeSchedule.polynomial(1.0, 1.0, 1.0, INTERVAL),
}


@pytest.fixture(scope="module")
def scalar_family():
    return ScalarShiftFamily(0.5, INTERVAL)


@pytest.mark.parametrize("schedule_kind", list(SCHEDULES))
@pytest.mark.parametrize(
    "family_name",
    ["pd_pair_family", "skew_strong_family", "mt3_family", "box_mt_family",
     "one_sided_box_mt_family", "custom_box_mt_family", "scalar_family"],
)
def test_served_points_agree_with_cold_oracle(family_name, schedule_kind, request):
    family = request.getfixturevalue(family_name)
    lo, hi = family.gamma_interval
    gammas = [lo, 1.3, hi, *SCHEDULES[schedule_kind].gammas(80)]
    line = family.fixed_point_line()
    assert line.residual_bound <= FIXED_POINT_TOL
    for g in gammas:
        p = family.fixed_point(g)
        assert np.array_equal(p, line.offset + g * line.slope)
        # the bound holds for T_gamma evaluated exactly; its float evaluation may add
        # rounding of order dim * eps * (1 + ||x||) to the residual measured here
        slack = family.dim * np.finfo(float).eps * (1.0 + np.linalg.norm(p))
        assert family.residual(g, p) <= line.residual_bound + slack
        cold = fixed_point_oracle(family, g, np.zeros(family.dim))
        assert np.linalg.norm(p - cold) <= 1e-10 * (1.0 + np.linalg.norm(p))


def test_a_held_low_stepsize_still_certifies_the_box_line(custom_box_mt_family, monkeypatch):
    # the line's oracle runs at gamma_low; with the map held there it iterates the map, and the
    # heads' resolvents run only for z* = J_{gamma A1} x^1 and for the check at gamma_high
    family = rs.MTFamily(custom_box_mt_family.operators, theta=0.5, gamma_interval=INTERVAL)
    assert family.hold_affine_part(INTERVAL[0])
    calls = {rs.AffineOperator: 0, rs.BoxNormalCone: 0}
    for kind in calls:
        real = kind.resolvent

        def counting(self, gamma, x, kind=kind, real=real):
            calls[kind] += 1
            return real(self, gamma, x)

        monkeypatch.setattr(kind, "resolvent", counting)
    line = family.fixed_point_line()
    monkeypatch.undo()
    assert calls[rs.AffineOperator] == 1 + 2 and calls[rs.BoxNormalCone] > 10
    assert line.residual_bound <= FIXED_POINT_TOL
    chain_line = custom_box_mt_family.fixed_point_line()
    for gamma in INTERVAL:
        x = line.point(gamma)
        assert np.linalg.norm(x - chain_line.point(gamma)) <= 1e-10 * (1.0 + np.linalg.norm(x))


class TestBoxZeroGuess:
    """The active-set solve that starts a box family's oracle (``mt.box_zero_guess``)."""

    @staticmethod
    def solve_inputs(family):
        *head, box = family.operators
        step = 1.0 / sum(op.lip for op in head)
        return sum(op.M for op in head), sum(op.b for op in head), box, step

    def test_a_cycle_stops_within_the_budget(self, custom_box_mt_family, monkeypatch):
        # the passes cycle through active sets that leave the inclusion unsolved; the loop
        # stops at the first repeat, or at the budget when that comes first
        real = np.linalg.solve
        for budget, solves in [(mt.ACTIVE_SET_PASSES, 5), (3, 3)]:
            calls = []

            def counting(*args):
                calls.append(args)
                return real(*args)

            monkeypatch.setattr(mt, "ACTIVE_SET_PASSES", budget)
            monkeypatch.setattr(np.linalg, "solve", counting)
            z = mt.box_zero_guess(*self.solve_inputs(custom_box_mt_family))
            monkeypatch.setattr(np.linalg, "solve", real)
            assert len(calls) == solves <= mt.ACTIVE_SET_PASSES
            assert sum(inclusion_gaps(custom_box_mt_family.operators, z)) > 0.5

    @pytest.mark.parametrize("family_name", ["box_mt_family", "one_sided_box_mt_family"])
    def test_solves_the_inclusion(self, family_name, request):
        family = request.getfixturevalue(family_name)
        z = mt.box_zero_guess(*self.solve_inputs(family))
        assert sum(inclusion_gaps(family.operators, z)) <= 1e-14

    def test_a_corner_guess_gives_the_same_line(self, box_mt_family, monkeypatch):
        # the oracle, not the guess, decides the line: a guess forced to a corner of the box
        # costs oracle steps and nothing else
        line = box_mt_family.fixed_point_line()
        corners = []

        def corner(M, b, box, step):
            corners.append(box.upper)
            return box.upper.copy()

        monkeypatch.setattr(mt, "box_zero_guess", corner)
        fresh = rs.MTFamily(box_mt_family.operators, theta=0.5, gamma_interval=INTERVAL)
        for gamma in box_mt_family.gamma_interval:
            x = line.point(gamma)
            assert np.linalg.norm(fresh.fixed_point(gamma) - x) <= 1e-10 * (1.0 + np.linalg.norm(x))
        assert len(corners) == 1
