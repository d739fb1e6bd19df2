"""Acceptance suite: every criterion checked at its stated tolerance.

Each test is one criterion; the conftest hook prints a PASS/FAIL line per
criterion when the suite runs.
"""

import math

import numpy as np
import pytest

import relocsplit as rs
from relocsplit import (
    AffineOperator,
    DRFamily,
    MTFamily,
    ScalarShiftFamily,
    StepsizeSchedule,
    algorithm1_run,
    algorithm2_run,
    dr_contraction_factor,
    dr_regularity_constant,
    fit_linear_rate,
    fix_decomposition_check,
    mt_fixed_point_to_zero,
    mt_relocator_lipschitz,
    primal_dual_extract,
    relocator_only_sequence,
    relocated_iterate,
    verify_error_bound,
    verify_one_step_contraction,
    verify_rate_theorem,
)
from relocsplit.diagnostics import compute_distances

WIDE = (0.5, 3.0)


@pytest.fixture(scope="module")
def dr10():
    """dim-10 strongly monotone / Lipschitz affine pair on [1, 2]."""
    ops = rs.generate_problem("affine_strongly_monotone", 10, 7, 0.5, 2.0)
    fam = DRFamily(ops[0], ops[1], (1.0, 2.0))
    sch = StepsizeSchedule.geometric(1.0, 1.0, 0.5, (1.0, 2.0))
    return fam, sch


@pytest.fixture(scope="module")
def dr5():
    ops = rs.generate_problem("affine_strongly_monotone", 5, 7, 0.5, 2.0)
    return DRFamily(ops[0], ops[1], (0.5, 2.0))


@pytest.fixture(scope="module")
def mt3():
    ops = rs.generate_problem("affine_strongly_monotone", 3, 5, 0.5, 2.0, n_operators=3)
    return MTFamily(ops, theta=0.5, gamma_interval=(0.5, 2.0))


def test_criterion_01_counterexample_exactness():
    fam = ScalarShiftFamily(0.5, WIDE)
    n = 10_000
    schedules = {
        "constant": StepsizeSchedule.constant(1.3, WIDE),
        "geometric": StepsizeSchedule.geometric(1.0, 1.0, 0.5, WIDE),
        "polynomial": StepsizeSchedule.polynomial(1.0, 1.0, 2.0, WIDE),
    }
    traces = {}
    for name, sch in schedules.items():
        trace = relocated_iterate(fam, sch, [sch.gamma(0)], n)
        traces[name] = trace
        # x_n reproduces gamma_n to <= 2 ulp
        assert np.all(np.abs(trace.xs[:, 0] - trace.gammas) <= 2 * np.spacing(trace.gammas))

    geo = traces["geometric"]
    est = fit_linear_rate(np.abs(geo.xs[:, 0] - geo.xs[-1, 0]), burn_in=5)
    assert est.linear
    assert abs(est.r - 0.5) <= 0.01

    poly = traces["polynomial"]
    est_p = fit_linear_rate(np.abs(poly.xs[:, 0] - poly.xs[-1, 0]), burn_in=5)
    assert not est_p.linear


def test_criterion_02_relocator_laws(dr5, mt3):
    rng = np.random.default_rng(202)
    for family, count in ((dr5, 50), (mt3, 50)):
        lo, hi = family.gamma_interval
        for _ in range(count):
            gamma, delta, eps = rng.uniform(lo, hi, size=3)
            x = family.fixed_point(gamma)
            # identity at gamma
            assert np.linalg.norm(family.relocate(gamma, gamma, x) - x) <= 1e-8
            # relocated point is fixed for the target operator
            y = family.relocate(delta, gamma, x)
            assert family.residual(delta, y) <= 1e-8
            # composition
            assert (
                np.linalg.norm(
                    family.relocate(eps, delta, y) - family.relocate(eps, gamma, x)
                )
                <= 1e-8
            )
            # round trip
            assert np.linalg.norm(family.relocate(gamma, delta, y) - x) <= 1e-8


def test_criterion_03_dr_relocator_lipschitz_exactness(dr5):
    rng = np.random.default_rng(303)
    lo, hi = dr5.gamma_interval
    for _ in range(100):
        x = 3 * rng.standard_normal(dr5.dim)
        gamma, delta = rng.uniform(lo, hi, size=2)
        lhs = np.linalg.norm(dr5.relocate(delta, gamma, x) - x)
        rhs = abs(delta - gamma) * np.linalg.norm(x - dr5.a1.resolvent(gamma, x)) / gamma
        assert abs(lhs - rhs) <= 1e-12


def test_criterion_04_contraction_factor():
    beta = dr_contraction_factor(1.0, 1.0, 1.0)
    # radicand: 2 + 2 + 1 + 2*(1 - 1/4 - 1/2)*2 = 6
    assert beta == pytest.approx((np.sqrt(6.0) + 1.0) / 4.0, abs=1e-14)
    assert beta == pytest.approx(0.8624, abs=5e-5)

    # matched affine problem: skew A1 with L = 1, A2 = I with mu = 1
    a1 = rs.skew_operator(4, 1.0, np.random.default_rng(404))
    fam = DRFamily(a1, AffineOperator(np.eye(4)), (0.5, 2.0))
    rng = np.random.default_rng(405)
    for gamma in np.linspace(0.5, 2.0, 5):
        bound = dr_contraction_factor(gamma, 1.0, 1.0)
        assert 0.0 < bound < 1.0
        for _ in range(1000):
            u, v = 3 * rng.standard_normal((2, 4))
            lhs = np.linalg.norm(fam.apply(gamma, u) - fam.apply(gamma, v))
            assert lhs <= bound * np.linalg.norm(u - v) + 1e-9


def test_criterion_05_error_bounds(dr5):
    beta = dr5.regularity().beta
    rep_c = verify_error_bound(dr5, 1.0, 1.0 / (1.0 - beta), 505)
    assert rep_c.violations == 0

    kappa = dr_regularity_constant(1.0, dr5.a1.sym_eig_min, 1.0 / dr5.a1.sym_eig_max)
    rep_k = verify_error_bound(dr5, 1.0, kappa, 506)
    assert rep_k.violations == 0

    rep_neg = verify_error_bound(dr5, 1.0, 0.01, 507)
    assert rep_neg.violations >= 1


def test_criterion_06_main_rate_theorem(dr10, run_with_columns):
    fam, sch = dr10
    x0 = np.zeros(fam.dim)
    result = verify_rate_theorem(fam, run_with_columns(fam, sch, x0, 300))
    beta_bar = fam.regularity().beta
    assert result.passed
    assert result.iterate_rate.fit_quality >= 0.95
    assert result.iterate_rate.r <= max(beta_bar, 0.5) + 0.05

    trace = algorithm1_run(fam, sch, x0, 300)
    assert trace.residuals[-1] <= 1e-10

    compute_distances(fam, trace)
    rep = verify_one_step_contraction(fam, trace, 1.0 / (1.0 - beta_bar))
    assert rep.violations == 0


def test_criterion_07_primal_dual_recovery(dr10):
    fam, sch = dr10
    trace = algorithm1_run(fam, sch, np.zeros(fam.dim), 300)
    seqs = primal_dual_extract(fam, trace)

    z_star = np.linalg.solve(fam.a1.M + fam.a2.M, -(fam.a1.b + fam.a2.b))
    assert np.linalg.norm((fam.a1.M + fam.a2.M) @ seqs.z_seq[-1] + fam.a1.b + fam.a2.b) <= 1e-8
    assert np.linalg.norm(seqs.z_seq[-1] - z_star) <= 1e-8

    g_ref = seqs.g_seq[-1]
    est = fit_linear_rate(np.linalg.norm(seqs.g_seq - g_ref, axis=1), burn_in=5)
    assert est.linear

    lhs = np.linalg.norm(seqs.h_seq - g_ref, axis=1)
    rhs = np.linalg.norm(seqs.g_seq - g_ref, axis=1)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_criterion_08_fix_set_decomposition(dr5):
    gammas = (0.6, 1.8)
    points = {}
    for gamma in gammas:
        x = dr5.fixed_point(gamma)
        points[gamma] = x
        fd = fix_decomposition_check(dr5, gamma, x)
        assert fd.primal_residual <= 1e-8
        assert fd.dual_checked and fd.dual_residual <= 1e-8
        assert fd.reconstruction_error <= 1e-8

    # converse: assemble x from direct primal/dual solves
    z_star = np.linalg.solve(dr5.a1.M + dr5.a2.M, -(dr5.a1.b + dr5.a2.b))
    g_star = dr5.a1(z_star)
    for gamma in gammas:
        assert dr5.residual(gamma, z_star + gamma * g_star) <= 1e-8

    # fixed-point sets genuinely move, and the relocator tracks them
    assert np.linalg.norm(points[0.6] - points[1.8]) >= 1e-3
    assert np.linalg.norm(dr5.relocate(1.8, 0.6, points[0.6]) - points[1.8]) <= 1e-8


def test_criterion_09_mt_correctness(mt3, mt_chain):
    sch = StepsizeSchedule.geometric(1.0, 1.0, 0.5, (0.5, 2.0))
    trace = algorithm2_run(mt3, sch, np.zeros(mt3.dim), 500)
    z = np.array([mt_chain(mt3, g, x) for g, x in zip(trace.gammas, trace.xs)])

    M = sum(op.M for op in mt3.operators)
    b = sum(op.b for op in mt3.operators)
    assert np.linalg.norm(M @ z[-1, 0] + b) <= 1e-8

    gaps = np.zeros(len(trace))
    for i in range(mt3.n_operators):
        for j in range(i + 1, mt3.n_operators):
            gaps = np.maximum(gaps, np.linalg.norm(z[:, i] - z[:, j], axis=1))
    est = fit_linear_rate(gaps, burn_in=5)
    assert est.linear and est.fit_quality >= 0.9

    cert = mt_fixed_point_to_zero(mt3, 1.0, mt3.fixed_point(1.0))
    assert np.all(cert.chain_residuals <= 1e-7)
    assert cert.inclusion_residual <= 1e-7


def test_criterion_10_mt_relocator_constants(mt3):
    for n in (2, 3, 5):
        c = mt_relocator_lipschitz(1.3, 1.3, n)
        assert c.L_check == 1.0 and c.L_hat == 1.0

    grid = np.linspace(0.5, 2.0, 100)
    for n in (2, 3, 5):
        for delta in grid:
            for gamma in grid:
                c = mt_relocator_lipschitz(delta, gamma, n)
                assert c.L_hat <= c.L_check + 1e-12

    rng = np.random.default_rng(1010)
    for delta, gamma in ((0.5, 2.0), (2.0, 0.5), (1.3, 0.7)):
        c = mt_relocator_lipschitz(delta, gamma, mt3.n_operators)
        for _ in range(1000):
            u, v = 3 * rng.standard_normal((2, mt3.dim))
            lhs = np.linalg.norm(mt3.relocate(delta, gamma, u) - mt3.relocate(delta, gamma, v))
            assert lhs <= c.L_hat * np.linalg.norm(u - v) + 1e-9


def test_criterion_11_summability(dr5, mt3):
    # DR on [1, 2]: bound C(1+r)/(1-r) = 3
    ops = rs.generate_problem("affine_strongly_monotone", 5, 7, 0.5, 2.0)
    dr_unit = DRFamily(ops[0], ops[1], (1.0, 2.0))
    sch_unit = StepsizeSchedule.geometric(1.0, 1.0, 0.5, (1.0, 2.0))
    sums = rs.summability_report(dr_unit, sch_unit.gammas(10_001))
    assert sums[-1] <= sch_unit.C * (1 + sch_unit.r) / (1 - sch_unit.r) + 1e-9

    sch = StepsizeSchedule.geometric(1.0, 1.0, 0.5, (0.5, 2.0))
    sums_mt = rs.summability_report(mt3, sch.gammas(10_001))
    assert sums_mt[-1] <= rs.mt_summability_bound(sch, mt3.n_operators) + 1e-9

    # p <= 1: the series diverges, and the stated bound says so
    sch_poly = StepsizeSchedule.polynomial(1.0, 1.0, 0.4, (0.5, 2.0))
    assert rs.mt_summability_bound(sch_poly, mt3.n_operators) == math.inf


def test_criterion_12_relocator_only_sequence(dr5):
    sch = StepsizeSchedule.geometric(1.0, 1.0, 0.5, (0.5, 2.0))
    c0 = dr5.fixed_point(sch.gamma(0))
    trace = relocator_only_sequence(dr5, sch, c0, 100)
    # every row re-certified against tolerance 1e-7 (the driver enforces the
    # scale-adjusted version; re-check the plain bound here)
    assert np.all(trace.residuals <= 1e-7 * (1 + np.linalg.norm(trace.xs, axis=1)))

    extended = relocator_only_sequence(dr5, sch, c0, 300)
    c_inf = extended.xs[-1]
    est = fit_linear_rate(np.linalg.norm(trace.xs - c_inf, axis=1), burn_in=5)
    assert est.linear
    assert est.r <= sch.r + 0.05
