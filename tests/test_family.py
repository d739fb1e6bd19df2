import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relocsplit as rs
from relocsplit import (
    ScalarShiftFamily,
    StepsizeSchedule,
    gamma_lipschitz_probe,
    relocated_iterate,
    relocator_only_sequence,
    summability_report,
)
import relocsplit.cli as cli
import relocsplit.diagnostics as diagnostics
from relocsplit.diagnostics import fixed_point_oracle
from relocsplit.errors import (
    DivergenceDetected,
    DomainError,
    NonPositiveStepsize,
    NotAFixedPoint,
)
from relocsplit.family import BLOCK_FLOATS, OperatorFamily, block_sizes

INTERVAL = (0.5, 2.0)


@pytest.fixture
def scalar_family():
    return ScalarShiftFamily(0.5, INTERVAL)


class TestStepsizeSchedule:
    def test_constant(self):
        sch = StepsizeSchedule.constant(1.3)
        assert [sch.gamma(n) for n in (0, 5, 100)] == [1.3, 1.3, 1.3]

    def test_geometric_values_and_rate(self):
        sch = StepsizeSchedule.geometric(1.0, 1.0, 0.5, (0.5, 2.0))
        assert sch.gamma(0) == 2.0
        assert sch.gamma(3) == 1.125
        for n in range(30):
            assert abs(sch.gamma(n) - 1.0) <= 1.0 * 0.5**n + 1e-15

    def test_polynomial_values(self):
        sch = StepsizeSchedule.polynomial(1.0, 1.0, 2.0, (0.5, 2.0))
        assert sch.gamma(0) == 2.0
        assert sch.gamma(1) == 1.25

    def test_clamping(self):
        sch = StepsizeSchedule.geometric(1.0, 10.0, 0.5, (0.9, 1.5))
        gs = sch.gammas(50)
        assert np.all((gs >= 0.9) & (gs <= 1.5))
        assert gs[0] == 1.5

    def test_validation(self):
        with pytest.raises(DomainError):
            StepsizeSchedule.geometric(1.0, 1.0, 1.5, (0.5, 2.0))  # r >= 1
        with pytest.raises(DomainError):
            StepsizeSchedule.geometric(3.0, 1.0, 0.5, (0.5, 2.0))  # star outside
        with pytest.raises(DomainError):
            StepsizeSchedule.polynomial(1.0, 1.0, -2.0, (0.5, 2.0))  # p <= 0
        with pytest.raises(DomainError):
            StepsizeSchedule("geometric", 1.0, 0.5, 2.0, C=-1.0, r=0.5)  # C < 0
        with pytest.raises(DomainError):
            StepsizeSchedule.constant(1.0, (0.0, 2.0))  # gamma_low <= 0

    @pytest.mark.parametrize("field", ["gamma_star", "gamma_low", "gamma_high", "C", "r", "p"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_parameter_rejected(self, field, value):
        params = {"gamma_star": 1.0, "gamma_low": 0.5, "gamma_high": 2.0, "C": 1.0}
        params["p" if field == "p" else "r"] = 0.5
        params[field] = value
        kind = "polynomial" if "p" in params else "geometric"
        with pytest.raises(DomainError, match="finite"):
            StepsizeSchedule(kind, **params)

    @pytest.mark.parametrize(
        "sch",
        [
            StepsizeSchedule.constant(1.3, (0.7, 1.9)),
            StepsizeSchedule.geometric(1.1, 0.93, 0.37, (0.7, 1.9)),
            StepsizeSchedule.polynomial(1.1, 2.71, 1.7, (0.7, 1.9)),
        ],
        ids=["constant", "geometric", "polynomial"],
    )
    def test_gammas_match_gamma_bitwise(self, sch):
        def scalar_formula(n):
            # the per-term formula in Python floats
            if sch.kind == "constant":
                raw = sch.gamma_star
            elif sch.kind == "geometric":
                raw = sch.gamma_star + sch.C * sch.r**n
            else:
                raw = sch.gamma_star + sch.C / (n + 1) ** sch.p
            return min(max(raw, sch.gamma_low), sch.gamma_high)

        count = 5000
        gs = sch.gammas(count)
        one_by_one = np.array([sch.gamma(n) for n in range(count)])
        formula = np.array([scalar_formula(n) for n in range(count)])
        assert gs.shape == (count,)
        assert np.array_equal(gs.view(np.uint64), one_by_one.view(np.uint64))
        assert np.array_equal(gs.view(np.uint64), formula.view(np.uint64))
        assert sch.gammas(0).shape == (0,)

    @pytest.mark.parametrize("r", [0.1, 0.37, 0.5, 0.9, 0.999, 1.0 - 2.0**-20])
    @pytest.mark.parametrize("C", [0.0, 1e-300, 1e-3, 0.93, 1.0, 1e6])
    def test_geometric_terms_past_a_quarter_ulp_change_no_bit(self, C, r):
        # gammas leaves the terms past a quarter ulp of gamma_star at 0.0; the per-term loop over
        # 10,001 terms gives the same bytes, gamma_star at either end too
        count = 10_001
        for gamma_star, interval in [(1.0, (0.5, 2.0)), (0.5, (0.5, 2.0)), (2.0, (0.5, 2.0)),
                                     (1.1, (0.7, 1.9)), (1e-8, (1e-8, 1e8)), (1e8, (1e-8, 1e8)),
                                     (3.0, (3.0, 3.0))]:
            sch = StepsizeSchedule.geometric(gamma_star, C, r, interval)
            shift = C * np.fromiter((r**n for n in range(count)), float, count)
            per_term = np.clip(gamma_star + shift, *interval)
            assert sch.gammas(count).tobytes() == per_term.tobytes()
            assert [sch.gamma(n) for n in (0, 60, count - 1)] == per_term[[0, 60, count - 1]].tolist()

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 7.5, 40.0])
    @pytest.mark.parametrize("C", [0.0, 1e-300, 1e-3, 1.0, 1e6])
    def test_polynomial_terms_past_a_quarter_ulp_change_no_bit(self, C, p):
        # the polynomial kind stops at a quarter ulp too, and the terms it computes are C / (n+1)**p
        count = 2_001
        for gamma_star, interval in [(1.0, (0.5, 2.0)), (2.0, (0.5, 2.0)), (1e-8, (1e-8, 1e8))]:
            sch = StepsizeSchedule.polynomial(gamma_star, C, p, interval)
            shift = np.fromiter((C / (n + 1) ** p for n in range(count)), float, count)
            per_term = np.clip(gamma_star + shift, *interval)
            assert sch.gammas(count).tobytes() == per_term.tobytes()

    def test_polynomial_stops_before_an_overflowing_term(self):
        # 3.0**1000 overflows a float; the term before it is already below a quarter ulp
        sch = StepsizeSchedule.polynomial(1.0, 1.0, 1000.0, (0.5, 2.0))
        assert sch.gammas(5).tolist() == [2.0, 1.0, 1.0, 1.0, 1.0]
        big = StepsizeSchedule.polynomial(1.0, 1e300, 1000.0, (0.5, 2.0))
        with pytest.raises(DomainError, match="overflows"):
            big.gammas(5)


class TestScalarShift:
    def test_iterates_reproduce_schedule(self, geometric_schedule):
        fam = ScalarShiftFamily(0.5, INTERVAL)
        trace = relocated_iterate(fam, geometric_schedule, [geometric_schedule.gamma(0)], 200)
        assert np.array_equal(trace.xs[:, 0], trace.gammas)

    def test_any_beta_any_schedule(self):
        sch = StepsizeSchedule.polynomial(1.0, 1.0, 1.5, INTERVAL)
        for beta in (0.0, 0.3, 0.9):
            fam = ScalarShiftFamily(beta, INTERVAL)
            trace = relocated_iterate(fam, sch, [sch.gamma(0)], 100)
            assert np.array_equal(trace.xs[:, 0], trace.gammas)

    def test_fixed_point_is_gamma(self):
        fam = ScalarShiftFamily(0.5, INTERVAL)
        assert fixed_point_oracle(fam, 2.0, [0.0]) == pytest.approx(2.0, abs=1e-12)

    def test_bad_beta(self):
        with pytest.raises(DomainError):
            ScalarShiftFamily(1.0)


class TestRelocatedIterate:
    def test_constant_schedule_is_plain_iteration(self, pd_pair_family):
        sch = StepsizeSchedule.constant(1.0, INTERVAL)
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(pd_pair_family.dim)
        trace = relocated_iterate(pd_pair_family, sch, x0, 30)
        # x_{n+1} == T_gamma x_n: the relocator is the identity at delta == gamma
        assert np.allclose(trace.xs[1:], trace.t_of_x[:-1], atol=0, rtol=0)

    def test_fixed_point_stays_put(self, pd_pair_family):
        sch = StepsizeSchedule.constant(1.0, INTERVAL)
        x_star = fixed_point_oracle(pd_pair_family, 1.0, np.zeros(pd_pair_family.dim))
        trace = relocated_iterate(pd_pair_family, sch, x_star, 10)
        assert np.max(np.linalg.norm(trace.xs - x_star, axis=1)) <= 1e-11

    def test_geometric_reaches_limit(self, geometric_schedule):
        ops = rs.generate_problem("affine_strongly_monotone", 2, 3, 0.5, 2.0)
        fam = rs.DRFamily(ops[0], ops[1], INTERVAL)
        trace = relocated_iterate(fam, geometric_schedule, np.zeros(2), 200)
        assert trace.residuals[-1] <= 1e-10
        # oracle: constant-stepsize run at gamma*
        x_star = fixed_point_oracle(fam, geometric_schedule.gamma_star, np.zeros(2))
        assert np.linalg.norm(trace.xs[-1] - x_star) <= 1e-8

    def test_divergence_guard(self):
        class Expanding(OperatorFamily):
            dim = 1
            gamma_interval = INTERVAL

            def apply(self, gamma, x, shadow=None):
                return 3.0 * np.asarray(x, float)

            def relocate_from(self, delta, gamma, x):
                return np.asarray(x, float), None

            def relocator_lipschitz(self, delta, gamma):
                return 1.0

        sch = StepsizeSchedule.constant(1.0, INTERVAL)
        with pytest.raises(DivergenceDetected):
            relocated_iterate(Expanding(), sch, [1.0], 60)

    def test_schedule_outside_interval_rejected(self, pd_pair_family):
        # gamma(0) clamps to 3.0, outside the family's [0.5, 2.0]
        sch = StepsizeSchedule.geometric(1.0, 5.0, 0.5, (0.1, 3.0))
        with pytest.raises(DomainError):
            relocated_iterate(pd_pair_family, sch, np.zeros(pd_pair_family.dim), 10)

    @pytest.mark.parametrize("family_name, n_operators", [("pd_pair_family", 2), ("mt3_family", 3)])
    def test_one_resolvent_per_operator_per_row(
        self, family_name, n_operators, geometric_schedule, request, monkeypatch
    ):
        # the relocation's J_{gamma A1} value is the next row's first resolvent
        family = request.getfixturevalue(family_name)
        calls = [0]
        real = rs.AffineOperator.resolvent

        def counting(self, gamma, x):
            calls[0] += 1
            return real(self, gamma, x)

        monkeypatch.setattr(rs.AffineOperator, "resolvent", counting)
        n_steps = 10
        relocated_iterate(family, geometric_schedule, np.ones(family.dim), n_steps)
        assert calls[0] == n_operators * (n_steps + 1)


class TestRelocatorOnlySequence:
    def test_constant_schedule_keeps_point(self, pd_pair_family):
        sch = StepsizeSchedule.constant(1.0, INTERVAL)
        c0 = fixed_point_oracle(pd_pair_family, 1.0, np.zeros(pd_pair_family.dim))
        trace = relocator_only_sequence(pd_pair_family, sch, c0, 50)
        assert np.max(np.linalg.norm(trace.xs - c0, axis=1)) == 0.0

    def test_scalar_shift_tracks_schedule(self, geometric_schedule):
        fam = ScalarShiftFamily(0.5, INTERVAL)
        trace = relocator_only_sequence(fam, geometric_schedule, [geometric_schedule.gamma(0)], 100)
        assert np.array_equal(trace.xs[:, 0], trace.gammas)

    def test_dr_linear_tracking(self, pd_pair_family, geometric_schedule):
        c0 = fixed_point_oracle(pd_pair_family, geometric_schedule.gamma(0), np.zeros(5))
        trace = relocator_only_sequence(pd_pair_family, geometric_schedule, c0, 120)
        c_inf = trace.xs[-1]
        errs = np.linalg.norm(trace.xs - c_inf, axis=1)
        gaps = np.abs(trace.gammas - geometric_schedule.gamma_star)
        # ||c_n - c_inf|| <= L |gamma_n - gamma*| with a finite measured L
        mask = gaps > 1e-12
        L = np.max(errs[mask] / gaps[mask])
        assert np.isfinite(L)
        assert np.all(errs[mask] <= L * gaps[mask] + 1e-12)
        est = rs.fit_linear_rate(errs, burn_in=5)
        assert est.linear and est.r <= geometric_schedule.r + 0.05

    def test_not_a_fixed_point(self, pd_pair_family, geometric_schedule):
        with pytest.raises(NotAFixedPoint):
            relocator_only_sequence(pd_pair_family, geometric_schedule, np.ones(5) * 50, 10)


class TestStepsizeArrays:
    def test_check_gamma_takes_a_scalar_or_an_array(self, pd_pair_family):
        assert type(pd_pair_family.check_gamma(np.float64(1.5))) is float
        gs = np.linspace(0.5, 2.0, 7)
        assert pd_pair_family.check_gamma(gs) is gs
        assert pd_pair_family.check_gamma(np.empty(0)).shape == (0,)
        for bad in (2.5, np.nan, np.inf):
            with pytest.raises(DomainError, match="outside family interval"):
                pd_pair_family.check_gamma(np.array([1.0, bad, 1.5]))
        with pytest.raises(NonPositiveStepsize):
            pd_pair_family.check_gamma(np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad, error, message", [
        (np.nan, DomainError, "gamma=nan outside family interval [0.5, 2.0]"),
        (np.inf, DomainError, "gamma=inf outside family interval [0.5, 2.0]"),
        (-np.inf, NonPositiveStepsize, "stepsize must be positive, got -inf"),
        (0.0, NonPositiveStepsize, "stepsize must be positive, got 0.0"),
        (-1.5, NonPositiveStepsize, "stepsize must be positive, got -1.5"),
        (2.5, DomainError, "gamma=2.5 outside family interval [0.5, 2.0]"),
        (0.25, DomainError, "gamma=0.25 outside family interval [0.5, 2.0]"),
    ])
    def test_check_gamma_message_whatever_the_stepsize_type(self, pd_pair_family, bad, error, message):
        # a float or np.float64 takes the scalar path, a 0-d or 1-d array the array path
        for gamma in (float(bad), np.float64(bad), np.array(bad), np.array([bad])):
            with pytest.raises(error) as info:
                pd_pair_family.check_gamma(gamma)
            assert str(info.value) == message

    @pytest.mark.parametrize("family_name", ["pd_pair_family", "mt3_family", "scalar_family"])
    def test_array_constants_match_scalar_calls_bitwise(self, family_name, request):
        family = request.getfixturevalue(family_name)
        lo, hi = family.gamma_interval
        rng = np.random.default_rng(61)
        gamma = rng.uniform(lo, hi, 400)
        delta = np.concatenate([rng.uniform(lo, hi, 300), gamma[300:]])
        arr = family.relocator_lipschitz(delta, gamma)
        one_by_one = np.array([family.relocator_lipschitz(d, g) for d, g in zip(delta, gamma)])
        assert arr.shape == (400,)
        assert np.array_equal(arr.view(np.uint64), one_by_one.view(np.uint64))
        assert np.all(arr[300:] == 1.0)

    @pytest.mark.parametrize("family_name", ["pd_pair_family", "mt3_family", "scalar_family"])
    def test_summability_makes_one_lipschitz_call(self, family_name, request, monkeypatch):
        family = request.getfixturevalue(family_name)
        calls = []
        original = type(family).relocator_lipschitz

        def counted(self, delta, gamma):
            calls.append(np.shape(delta))
            return original(self, delta, gamma)

        monkeypatch.setattr(type(family), "relocator_lipschitz", counted)
        sch = StepsizeSchedule.polynomial(1.0, 1.0, 0.4, INTERVAL)
        sums = summability_report(family, sch.gammas(10_001))
        assert calls == [(10_000,)]
        assert sums.shape == (10_000,)


class TestSummability:
    def test_constant_schedule_zero_terms(self, pd_pair_family):
        sch = StepsizeSchedule.constant(1.0, INTERVAL)
        assert np.all(summability_report(pd_pair_family, sch.gammas(101)) == 0.0)
        assert rs.dr_summability_bound(sch) == 0.0

    def test_partial_sums_are_a_cumsum(self, mt3_family, geometric_schedule):
        gammas = geometric_schedule.gammas(301)
        terms = mt3_family.relocator_lipschitz(gammas[1:], gammas[:-1]) - 1.0
        assert summability_report(mt3_family, gammas).tobytes() == np.cumsum(terms).tobytes()

    def test_dr_geometric_bounded(self):
        ops = rs.generate_problem("affine_strongly_monotone", 3, 1, 0.5, 2.0)
        fam = rs.DRFamily(ops[0], ops[1], (1.0, 2.0))
        sch = StepsizeSchedule.geometric(1.0, 1.0, 0.5, (1.0, 2.0))
        sums = summability_report(fam, sch.gammas(2001))
        assert sums[-1] <= rs.dr_summability_bound(sch) + 1e-9
        assert rs.dr_summability_bound(sch) == pytest.approx(3.0)

    def test_mt_geometric_bounded(self, mt3_family, geometric_schedule):
        sums = summability_report(mt3_family, geometric_schedule.gammas(2001))
        bound = rs.mt_summability_bound(geometric_schedule, mt3_family.n_operators)
        assert sums[-1] <= bound + 1e-9

    @pytest.mark.parametrize("p", [0.4, 1.0])
    def test_mt_polynomial_diverges(self, mt3_family, p):
        # for p <= 1 the square roots of the steps make a divergent p-series: the bound is +inf,
        # and the partial sums keep growing
        sch = StepsizeSchedule.polynomial(1.0, 1.0, p, INTERVAL)
        assert rs.mt_summability_bound(sch, mt3_family.n_operators) == math.inf
        sums = summability_report(mt3_family, sch.gammas(100_001))
        assert sums[-1] - sums[89_999] > 1e-3
        assert rs.mt_summability_bound(StepsizeSchedule.polynomial(1.0, 0.0, p, INTERVAL), 3) == 0.0

    def test_polynomial_bounds_in_closed_form(self):
        # C = 1 on [1, 2]: 1/2 + sqrt(p) max{sqrt(N-1), 2 sqrt(N)} (p+1)/(p-1); DR's is C / gamma_low
        for N, p, expected in ((4, 2.0, 0.5 + 12 * math.sqrt(2)), (3, 1.5, 0.5 + 15 * math.sqrt(2))):
            sch = StepsizeSchedule.polynomial(1.0, 1.0, p, (1.0, 2.0))
            assert rs.mt_summability_bound(sch, N) == pytest.approx(expected, rel=1e-12)
            assert rs.dr_summability_bound(sch) == 1.0

    @settings(max_examples=12, deadline=None)
    @given(
        C=st.floats(0.0, 3.0),
        p=st.floats(1.0, 5.0, exclude_min=True),
        N=st.integers(2, 6),
        low=st.floats(0.1, 2.0),
        width=st.floats(0.0, 3.0),
        star=st.floats(0.0, 1.0),
    )
    def test_polynomial_bounds_hold_on_a_long_partial_sum(self, C, p, N, low, width, star):
        high = low * (1.0 + width)
        sch = StepsizeSchedule.polynomial(low + star * (high - low), C, p, (low, high))
        gammas = sch.gammas(100_001)
        delta, gamma = gammas[1:], gammas[:-1]
        mt_terms = rs.mt_relocator_lipschitz(delta, gamma, N).L_check - 1.0
        assert np.sum(mt_terms) <= rs.mt_summability_bound(sch, N) + 1e-9
        assert np.sum(np.maximum(1.0, delta / gamma) - 1.0) <= rs.dr_summability_bound(sch) + 1e-9

    def test_every_cli_family_states_a_bound_for_every_kind(self, pd_pair_family, mt3_family, scalar_family):
        kinds = [StepsizeSchedule.constant(1.0, INTERVAL), StepsizeSchedule.geometric(1.0, 1.0, 0.5, INTERVAL),
                 StepsizeSchedule.polynomial(1.0, 1.0, 2.0, INTERVAL)]
        for family in (pd_pair_family, mt3_family, scalar_family):
            bounds = [family.summability_bound(sch) for sch in kinds]
            assert bounds[0] == 0.0 and all(math.isfinite(b) and b >= 0.0 for b in bounds)
        assert [scalar_family.summability_bound(sch) for sch in kinds] == [0.0, 0.0, 0.0]


class TestGammaLipschitzProbe:
    def test_scalar_shift_ratio_is_one(self):
        fam = ScalarShiftFamily(0.5, INTERVAL)
        probe = gamma_lipschitz_probe(fam, [0.5, 1.0, 2.0], [0.6, 1.5, 1.9])
        assert np.max(probe.moves / probe.gaps) == pytest.approx(1.0, abs=1e-12)

    def test_dr_ratio_closed_form(self, pd_pair_family):
        # per sample the ratio is exactly ||x - J_{gamma A1} x|| / gamma
        gammas = (0.6, 1.0, 1.8)
        points = [(pd_pair_family.fixed_point(g), g) for g in gammas]
        deltas = [0.5, 0.9, 1.4, 2.0]
        probe = gamma_lipschitz_probe(pd_pair_family, gammas, deltas)
        expected = max(
            np.linalg.norm(x - pd_pair_family.a1.resolvent(g, x)) / g for x, g in points
        )
        assert np.max(probe.moves / probe.gaps) == pytest.approx(expected, rel=1e-12)

    def test_mt_probe_finite(self, mt3_family):
        probe = gamma_lipschitz_probe(mt3_family, [0.5, 1.0, 2.0], list(np.linspace(0.5, 2.0, 5)))
        assert np.all(np.isfinite(probe.moves / probe.gaps))

    @pytest.mark.parametrize("family_name", ["pd_pair_family", "mt3_family"])
    def test_fixed_points_move_by_the_slope(self, family_name, request):
        # Q_{delta<-gamma} x*(gamma) = x*(delta): each move is |delta - gamma| ||slope||
        family = request.getfixturevalue(family_name)
        slope = np.linalg.norm(family.fixed_point_line().slope)
        probe = gamma_lipschitz_probe(family, [0.5, 1.0, 1.7, 2.0], list(np.linspace(0.5, 2.0, 7)))
        assert probe.moves.shape == probe.gaps.shape == probe.scales.shape == (4 * 7 - 3,)
        assert probe.excess(slope) <= 1e-14
        assert np.max(probe.moves / probe.gaps) == pytest.approx(slope, rel=1e-12)
        # a constant off by 1e-3 lies far outside the check's 1e-9 tolerance
        assert probe.excess(slope * (1 + 1e-3)) > 1e-6


def _relocator_law_samples(family, n_triples, seed):
    lo, hi = family.gamma_interval
    rng = np.random.default_rng(seed)
    for _ in range(n_triples):
        gamma, delta, eps = rng.uniform(lo, hi, size=3)
        yield family.fixed_point(gamma), gamma, delta, eps


@pytest.mark.parametrize("family_name", ["pd_pair_family", "mt3_family"])
class TestRelocatorLaws:
    def test_identity_at_same_gamma(self, family_name, request):
        family = request.getfixturevalue(family_name)
        for x, gamma, _, _ in _relocator_law_samples(family, 10, 51):
            assert np.linalg.norm(family.relocate(gamma, gamma, x) - x) <= 1e-9 * (
                1 + np.linalg.norm(x)
            )
            assert family.relocator_lipschitz(gamma, gamma) == 1.0

    def test_relocated_points_are_fixed(self, family_name, request):
        family = request.getfixturevalue(family_name)
        for x, gamma, delta, _ in _relocator_law_samples(family, 10, 52):
            y = family.relocate(delta, gamma, x)
            assert family.residual(delta, y) <= 1e-8 * (1 + np.linalg.norm(y))

    def test_composition(self, family_name, request):
        family = request.getfixturevalue(family_name)
        for x, gamma, delta, eps in _relocator_law_samples(family, 10, 53):
            one = family.relocate(eps, delta, family.relocate(delta, gamma, x))
            two = family.relocate(eps, gamma, x)
            assert np.linalg.norm(one - two) <= 1e-9 * (1 + np.linalg.norm(x))

    def test_round_trip(self, family_name, request):
        family = request.getfixturevalue(family_name)
        for x, gamma, delta, _ in _relocator_law_samples(family, 10, 54):
            back = family.relocate(gamma, delta, family.relocate(delta, gamma, x))
            assert np.linalg.norm(back - x) <= 1e-9 * (1 + np.linalg.norm(x))

    def test_lipschitz_bound_on_samples(self, family_name, request):
        family = request.getfixturevalue(family_name)
        rng = np.random.default_rng(55)
        lo, hi = family.gamma_interval
        for _ in range(50):
            gamma, delta = rng.uniform(lo, hi, size=2)
            u, v = 3 * rng.standard_normal((2, family.dim))
            lhs = np.linalg.norm(family.relocate(delta, gamma, u) - family.relocate(delta, gamma, v))
            assert lhs <= family.relocator_lipschitz(delta, gamma) * np.linalg.norm(u - v) + 1e-9


@pytest.fixture(scope="module")
def skew_pair_family():
    """Skew head, tail I + K with K skew: strongly monotone, but neither operator is symmetric."""
    a1 = rs.skew_operator(4, 1.0, np.random.default_rng(3))
    tail = rs.AffineOperator(np.eye(4) + rs.skew_operator(4, 1.0, np.random.default_rng(4)).M)
    return rs.DRFamily(a1, tail, INTERVAL)


class TestContractionRegularity:
    @pytest.mark.parametrize("family_name, beta_source, kappa_source", [
        ("pd_pair_family", "closed-form", "dr-regularity"),
        ("skew_strong_family", "closed-form", "dr-regularity"),  # its identity tail is symmetric
        ("skew_pair_family", "closed-form", "contraction"),
        ("mt3_family", "sampled", "contraction"),
        ("scalar_family", "stated", "contraction"),
    ])
    def test_the_record_names_its_sources(self, family_name, beta_source, kappa_source, request):
        record = request.getfixturevalue(family_name).regularity()
        assert (record.beta_source, record.kappa_source) == (beta_source, kappa_source)
        if kappa_source == "contraction":
            assert record.kappa(1.0) == record.contraction_kappa == 1.0 / (1.0 - record.beta)

    def test_contraction_implies_error_bound(self, pd_pair_family):
        # ||x - x_gamma|| <= ||x - T x|| / (1 - beta) on samples
        beta = pd_pair_family.regularity().beta
        rng = np.random.default_rng(61)
        for gamma in (0.5, 1.0, 2.0):
            x_star = fixed_point_oracle(pd_pair_family, gamma, np.zeros(5))
            for _ in range(100):
                x = 3 * rng.standard_normal(5)
                lhs = np.linalg.norm(x - x_star)
                rhs = pd_pair_family.residual(gamma, x) / (1 - beta)
                assert lhs <= rhs + 1e-9

    def test_geometric_schedule_gives_linear_iterates(
        self, pd_pair_family, geometric_schedule, run_with_columns
    ):
        trace = run_with_columns(pd_pair_family, geometric_schedule, np.zeros(5), 200)
        res = rs.verify_rate_theorem(pd_pair_family, trace)
        assert res.iterate_rate.linear and res.iterate_rate.r < 1.0


class TestBlocksOfPoints:
    """T_gamma and Q_{delta<-gamma} map a block of k points, shape (k, dim), row by row."""

    FAMILIES = {
        "pd_pair": lambda request: request.getfixturevalue("pd_pair_family"),
        "skew_strong": lambda request: request.getfixturevalue("skew_strong_family"),
        "scalar_shift": lambda request: ScalarShiftFamily(0.5, INTERVAL),
        "mt3": lambda request: request.getfixturevalue("mt3_family"),
        "mt4": lambda request: request.getfixturevalue("mt4_family"),
    }

    @pytest.mark.parametrize("k", [1, 7])
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_apply_and_relocate_of_a_block_are_rowwise(self, name, k, request):
        family = self.FAMILIES[name](request)
        X = 3 * np.random.default_rng(k).standard_normal((k, family.dim))
        for gamma, delta in ((0.7, 1.9), (1.5, 0.5)):
            for f in (lambda x: family.apply(gamma, x), lambda x: family.relocate(delta, gamma, x)):
                rows = np.vstack([f(x) for x in X])
                block = f(X)
                assert block.shape == (k, family.dim)
                assert np.linalg.norm(block - rows) <= 1e-12 * np.linalg.norm(rows)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_bad_blocks_rejected(self, name, request):
        family = self.FAMILIES[name](request)
        nan_row = np.zeros((3, family.dim))
        nan_row[1, 0] = np.nan
        for bad in (np.zeros((2, 3, family.dim)), np.zeros((3, family.dim + 1)), nan_row):
            with pytest.raises(DomainError):
                family.apply(1.0, bad)

    @pytest.mark.parametrize("count, floats_each", [(0, 5), (1000, 5), (4000, 5), (400, 400), (3, 20_000)])
    def test_block_sizes_cover_the_count_within_the_budget(self, count, floats_each):
        sizes = list(block_sizes(count, floats_each))
        assert sum(sizes) == count
        assert all(1 <= k and (k == 1 or k * floats_each <= BLOCK_FLOATS) for k in sizes)
        assert len(sizes) == -(-count // max(1, BLOCK_FLOATS // floats_each))


def _fresh(family):
    """The same family over the same operators, holding no affine part."""
    if isinstance(family, rs.DRFamily):
        return rs.DRFamily(family.a1, family.a2, family.gamma_interval)
    return rs.MTFamily(family.operators, family.theta, family.gamma_interval)


@pytest.fixture(scope="module")
def mt4_family():
    ops = rs.generate_problem("affine_strongly_monotone", 3, 5, 0.5, 2.0, n_operators=4)
    return rs.MTFamily(ops, theta=0.5, gamma_interval=INTERVAL)


AFFINE_FAMILIES = ["pd_pair_family", "skew_strong_family", "mt3_family", "mt4_family"]


class TestAffinePart:
    """T_gamma of an all-affine family as the one map x -> x P^T + q, held for one stepsize."""

    @pytest.mark.parametrize("family_name", AFFINE_FAMILIES)
    def test_map_matches_the_resolvent_chain(self, family_name, request):
        family = request.getfixturevalue(family_name)
        rng = np.random.default_rng(11)
        X = 3.0 * rng.standard_normal((6, family.dim))
        for gamma in [*INTERVAL, *rng.uniform(*INTERVAL, size=3)]:
            fresh = _fresh(family)
            chain = fresh.apply(gamma, X)
            pt, q = fresh.affine_part(gamma)
            assert pt.shape == (family.dim, family.dim) and q.shape == (family.dim,)
            mapped = X @ pt + q
            assert np.all(np.linalg.norm(mapped - chain, axis=1)
                          <= 1e-12 * (1.0 + np.linalg.norm(X, axis=1)))
            # apply at the held stepsize is that map, for a point and for a block
            assert np.array_equal(fresh.apply(gamma, X), mapped)
            assert np.array_equal(fresh.apply(gamma, X[0]), X[0] @ pt + q)

    def test_none_unless_every_operator_is_affine(self):
        box_ops = rs.generate_problem("affine_plus_box", 4, 3, 0.5, 2.0, n_operators=3)
        box = rs.BoxNormalCone(-np.ones(4), np.ones(4))
        families = [
            rs.MTFamily(box_ops, 0.5, INTERVAL),
            rs.DRFamily(box_ops[0], box, INTERVAL),
        ]
        x = np.linspace(-1.0, 1.0, 4)
        for family in families:
            assert family.affine_part(1.0) is None
            assert not family.hold_affine_part(1.0)
            assert family._affine is None
        # a family that is no resolvent chain holds no map
        assert not ScalarShiftFamily(0.5, INTERVAL).hold_affine_part(1.0)
        # a box family's run keeps the resolvent chain at its constant tail
        schedule = StepsizeSchedule.constant(1.0, INTERVAL)
        trace = relocated_iterate(families[0], schedule, np.tile(x, 2), 5)
        assert np.array_equal(trace.t_of_x[-1], _fresh(families[0]).apply(1.0, trace.xs[-1]))

    @pytest.mark.parametrize("family_name, held", [
        ("pd_pair_family", True),  # DR: a row through the map costs d^2, through the chain 4 d^2
        ("skew_strong_family", True),  # the same, a skew head solving through its Schur form
        ("mt3_family", True),  # MT, N = 3: 4 s^2 against 6 s^2
        ("mt4_family", False),  # MT, N = 4: 9 s^2 against 8 s^2
    ])
    def test_the_map_is_held_where_a_row_through_it_costs_less(self, family_name, held, request):
        family = _fresh(request.getfixturevalue(family_name))
        assert family.hold_affine_part(1.0) == held
        assert (family._affine is not None) == held

    @pytest.mark.parametrize("family_name", ["pd_pair_family", "mt3_family"])
    def test_another_stepsize_replaces_the_held_map(self, family_name, request):
        family = _fresh(request.getfixturevalue(family_name))
        x = np.random.default_rng(2).standard_normal(family.dim)
        chain_07 = _fresh(family).apply(0.7, x)
        pt, q = family.affine_part(0.7)
        assert family.affine_part(0.7)[0] is pt  # held, not formed again
        pt_13, q_13 = family.affine_part(1.3)
        assert family._affine[0] == 1.3
        assert np.array_equal(family.apply(1.3, x), x @ pt_13 + q_13)
        # 0.7 is back on the resolvent chain
        assert np.array_equal(family.apply(0.7, x), chain_07)

    @pytest.mark.parametrize("gamma", [0.5, 1.3, 2.0])
    @pytest.mark.parametrize("family_name", ["pd_pair_family", "skew_strong_family", "mt3_family"])
    def test_P_is_the_linear_chain_on_identity_rows_bitwise(self, family_name, gamma, request):
        # the first chain value read from A1's factors changes no bit of P^T: eigenvector head,
        # Schur head, and the three-operator chain whose rows past the first block are 0 there
        family = request.getfixturevalue(family_name)
        pt, q = _fresh(family).affine_part(gamma)
        assert pt.tobytes() == _chain_formed_pt(family, gamma).tobytes()
        assert q.tobytes() == _fresh(family).apply(gamma, np.zeros(family.dim)).tobytes()

    @pytest.mark.parametrize("family_name", AFFINE_FAMILIES)
    def test_relocating_to_the_same_stepsize_returns_x(self, family_name, request):
        family = request.getfixturevalue(family_name)
        x = np.random.default_rng(3).standard_normal(family.dim)
        for gamma in (0.5, 1.0, 1.7):
            moved, shadow = family.relocate_from(gamma, gamma, x)
            assert np.array_equal(moved, x) and shadow is None

    @pytest.mark.parametrize("family_name, n_operators", [("pd_pair_family", 2), ("mt3_family", 3)])
    def test_the_constant_tail_makes_no_resolvent_call(
        self, family_name, n_operators, geometric_schedule, request, monkeypatch
    ):
        # rows before the tail cost N resolvents each, less the shadow; the affine part costs
        # T_gamma* 0 and, per block of identity rows, the chain less its first resolvent, which
        # A1's factors give; every tail row is one matrix product
        family = _fresh(request.getfixturevalue(family_name))
        n_steps = 200
        calls = [0]
        real = rs.AffineOperator.resolvent

        def counting(self, gamma, x):
            calls[0] += 1
            return real(self, gamma, x)

        monkeypatch.setattr(rs.AffineOperator, "resolvent", counting)
        assert family.hold_affine_part(geometric_schedule.gamma_star)
        trace = relocated_iterate(family, geometric_schedule, np.ones(family.dim), n_steps)
        tail_start = int(np.argmax(trace.gammas == geometric_schedule.gamma_star))
        assert 2 <= tail_start < n_steps
        blocks = len(list(block_sizes(family.dim, family.dim)))
        assert calls[0] == n_operators * tail_start + 1 + n_operators + (n_operators - 1) * blocks
        # apply(gamma_n, x_n) gives back every row's T_gamma_n x_n: bit for bit on the tail,
        # which the held map serves, within rounding where the run passed a shadow
        again = np.array([family.apply(g, x) for g, x in zip(trace.gammas, trace.xs)])
        assert np.array_equal(again[tail_start:], trace.t_of_x[tail_start:])
        scale = 1.0 + np.linalg.norm(trace.xs, axis=1)
        assert np.all(np.linalg.norm(again - trace.t_of_x, axis=1) <= 1e-12 * scale)


def _chain_formed_pt(family, gamma):
    """P^T formed with no value read from the factors: the family with every offset 0 applied
    to blocks of identity rows, every chain value from the resolvents."""
    linear = _fresh(family)
    linear.operators = [op.linear_part() for op in family.operators]
    pt = np.zeros((family.dim, family.dim))
    ends = np.cumsum([0, *block_sizes(family.dim, family.dim)])
    for a, b in zip(ends, ends[1:]):
        rows = pt[a:b]
        rows[np.arange(b - a), np.arange(a, b)] = 1.0
        rows[:] = linear.apply(gamma, rows)
    return pt


def _mt3_box_family():
    ops = rs.generate_problem("affine_plus_box", 4, 7, 0.5, 2.0, n_operators=3, box_half_width=0.5)
    return rs.MTFamily(ops, theta=0.5, gamma_interval=INTERVAL)


class TestRelocateToManyStepsizes:
    """A 1-d array of target stepsizes relocates one point to each, one row per target."""

    TARGETS = [0.7, 1.1, 2.0, 0.5, 1.1]

    @pytest.mark.parametrize("family_name", ["pd_pair_family", "mt3_box", "scalar_family"])
    def test_rows_are_the_scalar_calls_bitwise(self, family_name, request):
        family = _mt3_box_family() if family_name == "mt3_box" else request.getfixturevalue(family_name)
        gamma = 1.1
        # the scalar family's relocator is the constant map, which keeps only its fixed point;
        # the signed zeros show that a row at gamma is x, not s x + (1 - s) anchor at s = 1
        x = (family.fixed_point(gamma) if family_name == "scalar_family"
             else 2.0 * np.random.default_rng(5).standard_normal(family.dim))
        if family_name != "scalar_family":
            x[::2] = -0.0
        moved, shadow = family.relocate_from(self.TARGETS, gamma, x)
        assert moved.shape == (len(self.TARGETS), family.dim)
        assert np.array_equal(family.relocate(self.TARGETS, gamma, x), moved)
        for row, delta in zip(moved, self.TARGETS):
            one, one_shadow = family.relocate_from(delta, gamma, x)
            assert row.tobytes() == one.tobytes()
            assert row.tobytes() == family.relocate(delta, gamma, x).tobytes()
            if delta == gamma:
                assert row.tobytes() == np.asarray(x, dtype=float).tobytes()
            elif one_shadow is not None:
                # one anchor, J_{gamma A1} x^1, is every row's shadow, as it is each scalar call's
                assert shadow.tobytes() == one_shadow.tobytes()
        if shadow is not None:
            # it is the first chain value of T_gamma x, bit for bit as apply evaluates it
            assert family.apply(gamma, x, shadow).tobytes() == family.apply(gamma, x).tobytes()

    @pytest.mark.parametrize("family_name", ["pd_pair_family", "mt3_box", "scalar_family"])
    def test_targets_for_a_block_of_points_are_rejected(self, family_name, request):
        family = _mt3_box_family() if family_name == "mt3_box" else request.getfixturevalue(family_name)
        block = np.ones((2, family.dim))
        with pytest.raises(DomainError):
            family.relocate_from([0.7, 1.1], 1.1, block)
        with pytest.raises(DomainError):
            family.relocate([[0.7, 1.1]], 1.1, block[0])
        with pytest.raises(DomainError):
            family.relocate([0.7, 2.5], 1.1, block[0])  # outside the interval

    def test_the_probe_relocates_each_fixed_point_once(self, pd_pair_family, monkeypatch):
        calls = []
        real = type(pd_pair_family).relocate_from

        def counting(self, delta, gamma, x):
            calls.append(np.size(delta))
            return real(self, delta, gamma, x)

        monkeypatch.setattr(type(pd_pair_family), "relocate_from", counting)
        probe = gamma_lipschitz_probe(pd_pair_family, [0.5, 1.0, 2.0], np.linspace(0.5, 2.0, 7))
        assert calls == [6, 6, 6] and probe.moves.shape == (18,)


def _iterate_fit_quality(family, schedule, x0, n_steps):
    family.affine_part(schedule.gamma_star)
    trace = rs.compute_distances(family, relocated_iterate(family, schedule, x0, n_steps))
    diagnostics.limit_errors(family, schedule.gamma_star, trace)
    return diagnostics.verify_rate_theorem(family, trace).iterate_rate.fit_quality


class TestAffineRounding:
    """The held map must not cost the iterate fit accuracy. P is formed from the family with
    every offset set to 0; P formed as T(I) - T(0) instead carries q's rounding into every
    entry, and on the DR runs below raises the mean of 1 - R^2 about eightfold."""

    def test_iterate_fit_no_worse_than_the_chain(self, monkeypatch):
        interval = (1.0, 2.0)
        schedule = StepsizeSchedule.geometric(1.0, 1.0, 0.5, interval)

        def misfit(seed):
            ops = rs.generate_problem("affine_strongly_monotone", 30, seed, 0.5, 2.0)
            family = rs.DRFamily(ops[0], ops[1], interval)
            x0 = np.random.default_rng([seed, 7]).standard_normal(family.dim)
            return 1.0 - _iterate_fit_quality(family, schedule, x0, 300)

        seeds = range(1, 13)
        affine = np.mean([misfit(seed) for seed in seeds])
        monkeypatch.setattr(rs.MTFamily, "affine_part", lambda self, gamma: None)
        chain = np.mean([misfit(seed) for seed in seeds])
        assert affine <= chain


def _per_row_driver(family, schedule, x0, n_steps):
    """The relocated run with every row one apply, as the driver ran before it copied rows."""
    gams, x, shadow, rows = schedule.gammas(n_steps + 1), np.asarray(x0, dtype=float), None, []
    for n in range(n_steps + 1):
        t = family.apply(gams[n], x, shadow)
        rows.append((x, t, float(np.linalg.norm(x - t))))
        if n < n_steps:
            x, shadow = family.relocate_from(gams[n + 1], gams[n], t)
    xs, ts, res = (np.array(column) for column in zip(*rows))
    return rs.IterateTrace(gams, xs, ts, res)


class _ShadowedShift(ScalarShiftFamily):
    """The scalar family with a shadow that carries its relocation's rounding, as a splitting's
    shadow carries the old stepsize's: the relocator is the identity at delta == gamma, as a
    splitting's is, and otherwise lands one ulp above delta and hands that point on; ``apply``
    with it returns x, and ``apply`` without it moves x back to gamma."""

    def relocate_from(self, delta, gamma, x):
        if delta == gamma:
            return np.asarray(x, dtype=float), None
        y = np.nextafter(super().relocate_from(delta, gamma, x)[0], np.inf)
        return y, y

    def apply(self, gamma, x, shadow=None):
        return super().apply(gamma, x) if shadow is None else shadow + self.beta * (x - shadow)


class TestCopiedRows:
    """Rows past a float fixed point are copied, and the trace is the per-row driver's."""

    @staticmethod
    def _run(family, schedule, x0, n_steps, monkeypatch):
        """The driver's trace, the per-row driver's, and the applies the driver made."""
        reference = _per_row_driver(family, schedule, x0, n_steps)
        calls = [0]
        real = family.apply

        def counting(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(family, "apply", counting)
        trace = relocated_iterate(family, schedule, x0, n_steps)
        monkeypatch.undo()
        for name in ("gammas", "xs", "t_of_x", "residuals"):
            assert getattr(trace, name).tobytes() == getattr(reference, name).tobytes(), name
        return trace, reference, calls[0]

    @staticmethod
    def _csv(tmp_path, name, trace, family):
        path = tmp_path / name
        cli.write_trace_csv(str(path), trace, family)
        return path.read_bytes()

    @pytest.mark.parametrize("kind", ["dr_held", "mt_box"])
    def test_trace_files_match_the_per_row_driver(self, kind, tmp_path, monkeypatch):
        interval = (1.0, 2.0)
        schedule = StepsizeSchedule.geometric(1.0, 1.0, 0.5, interval)
        if kind == "dr_held":
            ops = rs.generate_problem("affine_strongly_monotone", 5, 7, 0.5, 2.0)
            family = rs.DRFamily(ops[0], ops[1], interval)
            family.affine_part(schedule.gamma_star)
        else:
            ops = rs.generate_problem("affine_plus_box", 3, 0, 0.5, 2.0, n_operators=3,
                                      box_half_width=0.5)
            family = rs.MTFamily(ops, 0.5, interval)
        x0 = np.random.default_rng([0, 7]).standard_normal(family.dim)
        trace, reference, applies = self._run(family, schedule, x0, 200, monkeypatch)
        assert applies < len(trace)  # the run settled, and its rows past that were copied
        for run in (trace, reference):
            diagnostics.limit_errors(family, schedule.gamma_star, run)
            diagnostics.compute_distances(family, run)
        assert self._csv(tmp_path, "a.csv", trace, family) == self._csv(tmp_path, "b.csv", reference, family)

    def test_copying_stops_at_the_first_stepsize_change(self, monkeypatch):
        # gamma_n = clamp(1 + 100 / (n+1)^2) sits at gamma_high = 2 for rows 0..9, then moves at
        # every row; the scalar family's x_n = gamma_n is a float fixed point on every row
        family = ScalarShiftFamily(0.5, INTERVAL)
        schedule = StepsizeSchedule.polynomial(1.0, 100.0, 2.0, INTERVAL)
        trace, _, applies = self._run(family, schedule, [2.0], 40, monkeypatch)
        assert np.all(trace.gammas[:10] == 2.0) and trace.gammas[10] < 2.0
        assert np.array_equal(trace.xs[:, 0], trace.gammas)
        assert applies == 1 + (len(trace) - 10)  # rows 1..9 copied, the rest evaluated

    def test_a_row_that_took_a_shadow_is_not_copied(self, geometric_schedule, monkeypatch):
        # each stepsize change lands x one ulp off gamma, where the shadowed apply returns x;
        # the next row, without the shadow, moves it to gamma, and the rows after that copy it
        family = _ShadowedShift(0.25, INTERVAL)
        trace, _, applies = self._run(family, geometric_schedule, [2.0], 80, monkeypatch)
        tail = int(np.argmax(trace.gammas == geometric_schedule.gamma_star))
        assert trace.xs[tail, 0] == trace.xs[tail + 1, 0] > 1.0
        assert np.all(trace.xs[tail + 2:, 0] == 1.0)
        assert applies == tail + 3

    def test_a_relocation_that_moves_x_is_not_copied(self, monkeypatch):
        # T_1 x = 1 + 0.75 (x - 1) returns x = 1 + ulp bit for bit, but the scalar relocator is
        # the constant map 1, so row 1 starts at 1: a float fixed point copies only when
        # relocating it to its own stepsize gives it back
        family = ScalarShiftFamily(0.75, INTERVAL)
        x0 = [np.nextafter(1.0, 2.0)]
        trace, _, applies = self._run(family, StepsizeSchedule.constant(1.0, INTERVAL), x0, 5,
                                      monkeypatch)
        assert trace.t_of_x[0, 0] == x0[0] and np.all(trace.xs[1:, 0] == 1.0)
        assert applies == 2

    def test_signed_zeros_are_rows_of_their_own(self, tmp_path, monkeypatch):
        # T_gamma (-0) = +0 for a linear family: equal values, not equal bits, so row 1 is
        # evaluated (rows 2.. copy it) and each row prints its own sign
        ops = rs.generate_problem("affine_strongly_monotone", 5, 7, 0.5, 2.0)
        family = rs.DRFamily(ops[0].linear_part(), ops[1].linear_part(), INTERVAL)
        schedule = StepsizeSchedule.constant(1.0, INTERVAL)
        trace, reference, applies = self._run(family, schedule, np.full(5, -0.0), 6, monkeypatch)
        assert applies == 2
        text = self._csv(tmp_path, "a.csv", trace, family).decode().splitlines()
        assert text[2].endswith(",-0" * 5) and text[3].endswith(",0" * 5) and "-" not in text[3]
        assert text[4].endswith(",0" * 5)
