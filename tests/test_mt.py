import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relocsplit as rs
from relocsplit import (
    AffineOperator,
    BoxNormalCone,
    MTFamily,
    StepsizeSchedule,
    algorithm2_run,
    mt_contraction_certificate,
    mt_fixed_point_to_zero,
    mt_relocator_lipschitz,
)
from relocsplit import mt
from relocsplit.diagnostics import fixed_point_oracle
from relocsplit.errors import BadBlockCount, DomainError, NonSingletonFix, NotAFixedPoint
from relocsplit.family import BLOCK_FLOATS, relocated_iterate

INTERVAL = (0.5, 2.0)


def zeros_family(n_ops, dim=2, theta=0.5):
    ops = [AffineOperator(np.zeros((dim, dim))) for _ in range(n_ops)]
    return MTFamily(ops, theta=theta, gamma_interval=INTERVAL)


class TestApply:
    def test_two_zero_operators_fix_everything(self):
        fam = zeros_family(2)
        x = np.array([0.7, -1.2])
        assert np.array_equal(fam.apply(1.0, x), x)

    def test_three_zero_operators_chain_telescopes(self, mt_chain):
        fam = zeros_family(3)
        x = np.array([1.0, 2.0, 3.0, 5.0])  # blocks (1,2) and (3,5)
        t = fam.apply(1.0, x)
        z = mt_chain(fam, 1.0, x)
        # z1 = x1, z2 = x2, z3 = z1 + z2 - x2 = x1
        assert np.array_equal(z[0], [1.0, 2.0])
        assert np.array_equal(z[1], [3.0, 5.0])
        assert np.array_equal(z[2], [1.0, 2.0])
        expected = np.concatenate(
            [x[:2] + 0.5 * (z[1] - z[0]), x[2:] + 0.5 * (z[2] - z[1])]
        )
        assert np.array_equal(t, expected)

    def test_n2_reduction_is_relaxed_two_operator_map(self, pd_pair_family):
        theta = 0.5
        fam = MTFamily([pd_pair_family.a1, pd_pair_family.a2], theta=theta, gamma_interval=INTERVAL)
        rng = np.random.default_rng(4)
        for gamma in (0.5, 1.0, 2.0):
            x = rng.standard_normal(5)
            j1 = pd_pair_family.a1.resolvent(gamma, x)
            j2 = pd_pair_family.a2.resolvent(gamma, 2 * j1 - x)
            expected = x + theta * (j2 - j1)
            assert np.linalg.norm(fam.apply(gamma, x) - expected) <= 1e-12

    def test_n3_against_straight_line_evaluation(self, mt3_family):
        ops = mt3_family.operators
        rng = np.random.default_rng(11)
        x = rng.standard_normal(mt3_family.dim)
        x1, x2 = x[:3], x[3:]
        z1 = ops[0].resolvent(1.0, x1)
        z2 = ops[1].resolvent(1.0, z1 + x2 - x1)
        z3 = ops[2].resolvent(1.0, z1 + z2 - x2)
        expected = np.concatenate([x1 + 0.5 * (z2 - z1), x2 + 0.5 * (z3 - z2)])
        assert np.linalg.norm(mt3_family.apply(1.0, x) - expected) <= 1e-12
        # a shadow stands in for z^1
        assert np.linalg.norm(mt3_family.apply(1.0, x, z1) - expected) <= 1e-12

    def test_bad_block_count(self, mt3_family):
        with pytest.raises(BadBlockCount):
            mt3_family.apply(1.0, np.zeros(5))

    def test_theta_validation(self):
        ops = [AffineOperator(np.eye(2)) for _ in range(2)]
        for theta in (0.0, 1.0, -0.3):
            with pytest.raises(DomainError):
                MTFamily(ops, theta=theta, gamma_interval=INTERVAL)


class TestRelocate:
    def test_same_gamma_identity(self, mt3_family):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(mt3_family.dim)
        assert np.array_equal(mt3_family.relocate(1.2, 1.2, x), x)

    def test_zero_first_operator(self):
        # J of the zero operator is the identity: the first block never moves,
        # and equal-block vectors (the fixed points here) are left unchanged
        fam = zeros_family(3)
        x = np.array([1.0, -1.0, 2.0, 0.5])
        for delta in (0.5, 1.9):
            moved = fam.relocate(delta, 1.0, x)
            assert np.allclose(moved[:2], x[:2], atol=1e-15)
            s = delta / 1.0
            assert np.allclose(moved[2:], s * x[2:] + (1 - s) * x[:2], atol=1e-15)
        consensus = np.array([0.3, -0.7, 0.3, -0.7])
        for delta in (0.5, 1.9):
            assert np.allclose(fam.relocate(delta, 1.0, consensus), consensus, atol=1e-15)

    def test_blockwise_closed_form(self, mt3_family):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(mt3_family.dim)
        delta, gamma = 1.7, 0.6
        s = delta / gamma
        anchor = mt3_family.operators[0].resolvent(gamma, x[:3])
        expected = np.concatenate([s * x[:3] + (1 - s) * anchor, s * x[3:] + (1 - s) * anchor])
        assert np.linalg.norm(mt3_family.relocate(delta, gamma, x) - expected) <= 1e-15

    def test_relocated_oracle_point_is_fixed(self, mt3_family):
        x = fixed_point_oracle(mt3_family, 0.7, np.zeros(mt3_family.dim))
        y = mt3_family.relocate(1.6, 0.7, x)
        assert mt3_family.residual(1.6, y) <= 1e-8

    def test_gamma_lipschitz_block_decomposition(self, mt3_family):
        # per block: ||Q^i x - x^i|| == |d-g| * ||x^i - J_{g A1} x^1|| / g
        x = fixed_point_oracle(mt3_family, 1.0, np.zeros(mt3_family.dim))
        anchor = mt3_family.operators[0].resolvent(1.0, x[:3])
        for delta in (0.5, 1.5, 2.0):
            moved = mt3_family.relocate(delta, 1.0, x)
            for i, (mb, xb) in enumerate(
                zip(moved.reshape(2, 3), x.reshape(2, 3))
            ):
                lhs = np.linalg.norm(mb - xb)
                rhs = abs(delta - 1.0) * np.linalg.norm(xb - anchor) / 1.0
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestLipschitzConstants:
    def test_equal_stepsizes_give_one(self):
        for n in (2, 3, 5):
            c = mt_relocator_lipschitz(1.3, 1.3, n)
            assert c.L_check == 1.0
            assert c.L_hat == 1.0

    def test_printed_example(self):
        c = mt_relocator_lipschitz(2.0, 1.0, 3)
        # tight constant: max{sqrt(2 + 2), sqrt(2 + 12)} = sqrt(14)
        assert c.L_hat == pytest.approx(np.sqrt(14.0), abs=1e-12)
        # loose constant: sqrt(2) + max{sqrt(2), sqrt(12)}
        assert c.L_check == pytest.approx(np.sqrt(2.0) + np.sqrt(12.0), abs=1e-12)
        assert c.L_hat <= c.L_check

    @given(
        delta=st.floats(0.05, 10.0),
        gamma=st.floats(0.05, 10.0),
        n=st.integers(2, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_ordering_and_lower_bound(self, delta, gamma, n):
        c = mt_relocator_lipschitz(delta, gamma, n)
        assert c.L_hat <= c.L_check + 1e-12
        floor = min(1.0, np.sqrt(delta / gamma))
        assert c.L_hat >= floor - 1e-12
        assert c.L_check >= floor - 1e-12

    def test_grid_ordering(self):
        grid = np.linspace(0.5, 2.0, 100)
        for n in (2, 3, 5):
            for d in grid:
                for g in grid:
                    c = mt_relocator_lipschitz(d, g, n)
                    assert c.L_hat <= c.L_check + 1e-12

    def test_sampled_ratios_below_tight_constant(self, mt3_family):
        rng = np.random.default_rng(14)
        for delta, gamma in ((0.5, 2.0), (2.0, 0.5), (1.7, 0.6)):
            c = mt_relocator_lipschitz(delta, gamma, mt3_family.n_operators)
            for _ in range(300):
                u, v = 3 * rng.standard_normal((2, mt3_family.dim))
                lhs = np.linalg.norm(
                    mt3_family.relocate(delta, gamma, u) - mt3_family.relocate(delta, gamma, v)
                )
                assert lhs <= c.L_hat * np.linalg.norm(u - v) + 1e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mt_relocator_lipschitz(0.0, 1.0, 3)
        with pytest.raises(DomainError):
            mt_relocator_lipschitz(1.0, 1.0, 1)

    @pytest.mark.parametrize("delta", [50.0, np.nan])
    def test_family_constant_checks_the_interval(self, delta):
        ops = rs.generate_problem("affine_strongly_monotone", 3, 5, 0.5, 2.0, n_operators=3)
        fam = MTFamily(ops, gamma_interval=(1.0, 2.0))
        with pytest.raises(DomainError, match="outside family interval"):
            fam.relocator_lipschitz(delta, 1.0)
        with pytest.raises(DomainError, match="outside family interval"):
            fam.relocator_lipschitz(np.array([1.5, delta]), np.array([1.0, 1.0]))


def test_hilbert_space_identity():
    # ||a u + (1-a) v||^2 == a||u||^2 + (1-a)||v||^2 - a(1-a)||u-v||^2
    @given(
        u=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        v=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        a=st.floats(-2.0, 3.0),
    )
    @settings(max_examples=300, deadline=None)
    def check(u, v, a):
        u, v = np.array(u), np.array(v)
        lhs = np.linalg.norm(a * u + (1 - a) * v) ** 2
        rhs = (
            a * np.linalg.norm(u) ** 2
            + (1 - a) * np.linalg.norm(v) ** 2
            - a * (1 - a) * np.linalg.norm(u - v) ** 2
        )
        assert lhs == pytest.approx(rhs, abs=1e-10, rel=1e-10)

    check()


class TestAlgorithm2:
    def test_zero_operators_constant_trace(self):
        # fixed points of the zero-operator family have equal blocks
        fam = zeros_family(3)
        sch = StepsizeSchedule.constant(1.0, INTERVAL)
        x0 = np.array([1.0, 0.5, 1.0, 0.5])
        trace = algorithm2_run(fam, sch, x0, 20)
        assert np.max(np.abs(trace.xs - x0)) == 0.0
        assert np.max(trace.residuals) == 0.0

    def test_zero_operators_n2_any_start(self):
        fam = zeros_family(2)
        sch = StepsizeSchedule.constant(1.0, INTERVAL)
        x0 = np.array([1.0, -2.0])
        trace = algorithm2_run(fam, sch, x0, 20)
        assert np.max(np.abs(trace.xs - x0)) == 0.0

    def test_agrees_with_generic_driver_n2(self, pd_pair_family, geometric_schedule):
        fam = MTFamily([pd_pair_family.a1, pd_pair_family.a2], theta=0.5, gamma_interval=INTERVAL)
        rng = np.random.default_rng(15)
        x0 = rng.standard_normal(5)
        t1 = algorithm2_run(fam, geometric_schedule, x0, 150)
        t2 = relocated_iterate(fam, geometric_schedule, x0, 150)
        assert np.max(np.linalg.norm(t1.xs - t2.xs, axis=1)) <= 1e-12

    def test_agrees_with_generic_driver_n3(self, mt3_family, geometric_schedule):
        rng = np.random.default_rng(16)
        x0 = rng.standard_normal(mt3_family.dim)
        t1 = algorithm2_run(mt3_family, geometric_schedule, x0, 200)
        t2 = relocated_iterate(mt3_family, geometric_schedule, x0, 200)
        assert np.max(np.linalg.norm(t1.xs - t2.xs, axis=1)) <= 1e-12

    def test_shadow_identity_every_row(self, mt3_family, geometric_schedule):
        # the carried z^1 stands in for a fresh J_{gamma_n A1} x_n^1: T_{gamma_n} x_n must not move
        rng = np.random.default_rng(24)
        trace = algorithm2_run(mt3_family, geometric_schedule, rng.standard_normal(mt3_family.dim), 80)
        for n in range(len(trace)):
            fresh = mt3_family.apply(trace.gammas[n], trace.xs[n])
            scale = 1.0 + np.linalg.norm(trace.xs[n])
            assert np.linalg.norm(trace.t_of_x[n] - fresh) <= 1e-11 * scale

    def test_reaches_zero_of_sum(self, mt3_family, geometric_schedule):
        trace = algorithm2_run(mt3_family, geometric_schedule, np.zeros(mt3_family.dim), 500)
        ops = mt3_family.operators
        M = sum(op.M for op in ops)
        b = sum(op.b for op in ops)
        z1 = ops[0].resolvent(trace.gammas[-1], trace.xs[-1][: mt3_family.space_dim])
        assert np.linalg.norm(M @ z1 + b) <= 1e-8

    def test_consensus_gap_decays_linearly(self, mt3_family, geometric_schedule, mt_chain):
        trace = algorithm2_run(mt3_family, geometric_schedule, np.zeros(mt3_family.dim), 400)
        z = np.array([mt_chain(mt3_family, g, x) for g, x in zip(trace.gammas, trace.xs)])
        gaps = np.zeros(len(trace))
        for i in range(3):
            for j in range(i + 1, 3):
                gaps = np.maximum(gaps, np.linalg.norm(z[:, i] - z[:, j], axis=1))
        est = rs.fit_linear_rate(gaps, burn_in=5)
        assert est.linear and est.fit_quality >= 0.9


class TestFixedPointToZero:
    def test_zero_operators_equal_blocks(self):
        fam = zeros_family(3)
        x = np.array([0.4, -0.6, 0.4, -0.6])  # equal blocks are fixed points
        cert = mt_fixed_point_to_zero(fam, 1.0, x)
        assert np.array_equal(cert.z, [0.4, -0.6])
        assert cert.inclusion_residual == 0.0

    def test_affine_triple_matches_solve(self, mt3_family):
        x = fixed_point_oracle(mt3_family, 1.0, np.zeros(mt3_family.dim))
        cert = mt_fixed_point_to_zero(mt3_family, 1.0, x)
        ops = mt3_family.operators
        z_star = np.linalg.solve(sum(op.M for op in ops), -sum(op.b for op in ops))
        assert np.linalg.norm(cert.z - z_star) <= 1e-7
        assert cert.inclusion_residual <= 1e-7
        assert np.all(cert.chain_residuals <= 1e-7)

    def test_box_tail_kkt_check(self):
        # strongly monotone head, box tail; solution pinned to a face
        a1 = AffineOperator(np.eye(2), np.array([1.7, -0.2]))
        box = BoxNormalCone(-np.ones(2), np.ones(2))
        fam = MTFamily([a1, box], theta=0.5, gamma_interval=INTERVAL)
        x = fixed_point_oracle(fam, 1.0, np.zeros(2), tol=1e-13, max_iters=500_000)
        cert = mt_fixed_point_to_zero(fam, 1.0, x)
        # unconstrained zero (-1.7, 0.2) leaves the box; face at z1 = -1
        assert cert.z[0] == pytest.approx(-1.0, abs=1e-7)
        assert cert.inclusion_residual <= 1e-7

    def test_not_a_fixed_point(self, mt3_family):
        with pytest.raises(NotAFixedPoint):
            mt_fixed_point_to_zero(mt3_family, 1.0, np.ones(mt3_family.dim) * 40)


class TestContractionCertificate:
    def test_skew_head_strong_tail(self):
        rng = np.random.default_rng(17)
        a1 = rs.skew_operator(2, 1.0, rng)
        a2 = AffineOperator(2 * np.eye(2))
        fam = MTFamily([a1, a2], theta=0.5, gamma_interval=INTERVAL)
        beta = mt_contraction_certificate(fam)
        assert 0.0 < beta < 1.0
        assert beta == pytest.approx(all_pairs_beta(fam), rel=1e-12)

    def test_zero_operators_fail_hypotheses(self):
        # the certificate gates on the family's one hypothesis read, and raises its reason
        box = BoxNormalCone(-np.ones(2), np.ones(2))
        for fam in (zeros_family(3), rs.DRFamily(AffineOperator(np.eye(2)), box, INTERVAL)):
            with pytest.raises(NonSingletonFix) as info:
                mt_contraction_certificate(fam)
            assert fam.missing_hypothesis() and str(info.value) == fam.missing_hypothesis()

    def test_strong_heads_box_tail(self):
        rng = np.random.default_rng(18)
        ops = [rs.symmetric_operator(2, 0.5, 2.0, rng) for _ in range(2)]
        ops.append(BoxNormalCone(-np.ones(2), np.ones(2)))
        fam = MTFamily(ops, theta=0.5, gamma_interval=INTERVAL)
        beta = mt_contraction_certificate(fam)
        assert beta < 1.0
        assert beta == pytest.approx(all_pairs_beta(fam), rel=1e-12)
        # the family's regularity record carries this factor, sampled
        assert (fam.regularity().beta, fam.regularity().beta_source) == (beta, "sampled")

    def test_the_fixed_draws_keep_every_pair_apart(self):
        # no guard checks for points closer than 1e-12: in one dimension, where sampled pairs lie
        # closest, the fixed draws keep every pair of a stepsize 1e-6 apart or more
        rng = np.random.default_rng(mt.SAMPLE_SEED)
        for _ in range(mt.SAMPLE_GAMMAS):
            points = np.sort(mt.SAMPLE_SCALE * rng.standard_normal(mt.SAMPLE_POINTS))
            assert np.diff(points).min() >= 1e-6

    @pytest.mark.xfail(strict=True, reason="a sampled Lipschitz ratio is not an upper bound on "
                       "the contraction factor; the certificate is not yet exact")
    def test_beta_bounds_the_exact_factor_on_its_grid(self):
        # the mt-n4-d10 benchmark config: N=4, d=10, seed 7, gamma in [1, 2];
        # measured: sampled beta 0.8601 (all pairs among 64 points per stepsize) < exact 0.9359
        ops = rs.generate_problem("affine_strongly_monotone", 10, 7, 0.5, 2.0, n_operators=4)
        fam = MTFamily(ops, theta=0.5, gamma_interval=(1.0, 2.0))
        exact = 0.0
        for gamma in np.linspace(1.0, 2.0, 5):
            # T_gamma is affine; its linear part P_gamma has columns T e_j - T 0
            t0 = fam.apply(gamma, np.zeros(fam.dim))
            P = np.column_stack([fam.apply(gamma, e) - t0 for e in np.eye(fam.dim)])
            exact = max(exact, np.linalg.norm(P, 2))
        assert fam.regularity().beta >= exact


class TestRelocatorKeepsFixedSetsAligned:
    def test_oracle_points_relocate_between_stepsizes(self, mt3_family):
        xa = mt3_family.fixed_point(0.6)
        xb = mt3_family.fixed_point(1.7)
        moved = mt3_family.relocate(1.7, 0.6, xa)
        assert np.linalg.norm(moved - xb) <= 1e-8 * (1 + np.linalg.norm(xb))


BLOCK_FAMILIES = {
    "n3_box_tail": lambda: MTFamily(
        rs.generate_problem("affine_plus_box", 4, 7, 0.5, 2.0, n_operators=3, box_half_width=0.5),
        theta=0.5, gamma_interval=INTERVAL,
    ),
    "n4": lambda: MTFamily(
        rs.generate_problem("affine_strongly_monotone", 3, 7, 0.5, 2.0, n_operators=4),
        theta=0.5, gamma_interval=INTERVAL,
    ),
}


class TestBlocksOfPoints:
    """T_gamma and the relocator map a block of k block vectors, shape (k, dim), row by row."""

    @pytest.mark.parametrize("k", [1, 7])
    @pytest.mark.parametrize("name", sorted(BLOCK_FAMILIES))
    def test_apply_and_relocate_of_a_block_are_rowwise(self, name, k):
        fam = BLOCK_FAMILIES[name]()
        X = 3 * np.random.default_rng(k).standard_normal((k, fam.dim))
        for gamma, delta in ((0.7, 1.9), (1.5, 0.5)):
            t = fam.apply(gamma, X)
            expected_t = np.vstack([fam.apply(gamma, x) for x in X])
            assert t.shape == (k, fam.dim)
            assert np.linalg.norm(t - expected_t) <= 1e-12 * np.linalg.norm(expected_t)
            # a block of shadows z^1, one per row, as relocate_from returns them
            shadow = fam.operators[0].resolvent(gamma, fam.split_blocks(X)[:, 0])
            t = fam.apply(gamma, X, shadow)
            assert np.linalg.norm(t - expected_t) <= 1e-12 * np.linalg.norm(expected_t)
            moved = np.vstack([fam.relocate(delta, gamma, x) for x in X])
            assert np.linalg.norm(fam.relocate(delta, gamma, X) - moved) <= 1e-12 * np.linalg.norm(moved)
            # to its own stepsize the block comes back as it is, with no shadow
            moved, shadow = fam.relocate_from(gamma, gamma, X)
            assert moved.shape == X.shape and moved.tobytes() == X.tobytes() and shadow is None

    @pytest.mark.parametrize("name", sorted(BLOCK_FAMILIES))
    def test_bad_blocks_rejected(self, name):
        fam = BLOCK_FAMILIES[name]()
        for bad in (np.zeros((2, 3, fam.dim)), np.zeros((3, fam.dim + 1))):
            with pytest.raises(BadBlockCount):
                fam.apply(1.0, bad)
        nan_row = np.zeros((3, fam.dim))
        nan_row[1, 0] = np.nan
        with pytest.raises(DomainError):
            fam.apply(1.0, nan_row)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        fam = BLOCK_FAMILIES["n4"]()
        point = np.zeros(fam.dim)
        point[4] = bad
        for x in (point, np.vstack([np.zeros(fam.dim), point])):
            with pytest.raises(DomainError) as info:
                fam.split_blocks(x)
            assert str(info.value) == "block vector has non-finite coordinates"


def all_pairs_beta(fam):
    """The sampled contraction factor from direct differences: at each stepsize the draws
    mt_contraction_certificate makes, one apply per point, and every pair i < j."""
    rng = np.random.default_rng(mt.SAMPLE_SEED)
    lo, hi = fam.gamma_interval
    beta = 0.0
    for gamma in np.linspace(lo, hi, mt.SAMPLE_GAMMAS):
        points = mt.SAMPLE_SCALE * rng.standard_normal((mt.SAMPLE_POINTS, fam.dim))
        images = np.vstack([fam.apply(gamma, u) for u in points])
        for i in range(mt.SAMPLE_POINTS - 1):
            denom = np.linalg.norm(points[i + 1:] - points[i], axis=1)
            keep = denom >= 1e-12
            ratios = np.linalg.norm(images[i + 1:] - images[i], axis=1)[keep] / denom[keep]
            beta = max(beta, float(ratios.max(initial=0.0)))
    return beta


class TestBlockedCertificate:
    # 64 points of "wide"'s 260 coordinates are 16,640 floats, more than BLOCK_FLOATS
    FAMILIES = {
        "n3_box_tail": BLOCK_FAMILIES["n3_box_tail"],
        "wide": lambda: MTFamily(rs.generate_problem("affine_strongly_monotone", 130, 7, 0.5, 2.0,
                                                     n_operators=3), theta=0.5, gamma_interval=INTERVAL),
    }

    @pytest.mark.parametrize("name", ["mt3", "n3_box_tail", "wide"])
    def test_beta_matches_the_all_pairs_loop(self, name, request, monkeypatch):
        fam = request.getfixturevalue("mt3_family") if name == "mt3" else self.FAMILIES[name]()
        expected = all_pairs_beta(fam)
        floats, grams = [], []
        real_apply, real_distances = MTFamily.apply, mt._squared_distances

        def recording(self, gamma, x):
            floats.append(np.size(x))
            return real_apply(self, gamma, x)

        def recording_distances(x):
            table = real_distances(x)
            grams.append(table.shape)
            return table

        monkeypatch.setattr(MTFamily, "apply", recording)
        monkeypatch.setattr(mt, "_squared_distances", recording_distances)
        beta = mt_contraction_certificate(fam)
        assert abs(beta - expected) <= 1e-12 * expected
        assert sum(floats) == mt.SAMPLE_GAMMAS * mt.SAMPLE_POINTS * fam.dim
        assert max(floats) <= BLOCK_FLOATS
        # one Gram product for each stepsize's points and one for their images, each a whole
        # n x n distance table within BLOCK_FLOATS
        assert mt.SAMPLE_POINTS**2 <= BLOCK_FLOATS
        assert grams == [(mt.SAMPLE_POINTS, mt.SAMPLE_POINTS)] * (2 * mt.SAMPLE_GAMMAS)
        assert (mt.SAMPLE_POINTS * fam.dim > BLOCK_FLOATS) == (name == "wide")
        if name == "wide":
            assert len(floats) > mt.SAMPLE_GAMMAS


def buffered_apply(fam, gamma, x, shadow=None):
    """T_gamma x as MTFamily.apply computed it before it wrote T_gamma x in place: the N chain
    values in one (..., N, space_dim) buffer, read and written through ellipsis slices."""
    gamma = fam.check_gamma(gamma)
    xb = fam.split_blocks(x)
    ops, K = fam.operators, fam.n_blocks
    lead = xb.shape[:-2]
    z = np.empty(lead + (fam.n_operators, fam.space_dim))
    z[..., 0, :] = ops[0].resolvent(gamma, xb[..., 0, :]) if shadow is None else shadow
    for i in range(1, K):
        z[..., i, :] = ops[i].resolvent(gamma, z[..., i - 1, :] + xb[..., i, :] - xb[..., i - 1, :])
    z[..., K, :] = ops[K].resolvent(gamma, z[..., 0, :] + z[..., K - 1, :] - xb[..., K - 1, :])
    t = xb + fam.theta * (z[..., 1:, :] - z[..., :-1, :])
    return t.reshape(lead + (fam.dim,))


def _chain_family(n_ops, tail, theta):
    kind = "affine_plus_box" if tail == "box" else "affine_strongly_monotone"
    ops = rs.generate_problem(kind, 5, 11, 0.5, 2.0, n_operators=n_ops, box_half_width=0.5)
    if theta == 1.0:
        return rs.DRFamily(*ops, INTERVAL)
    return MTFamily(ops, theta=theta, gamma_interval=INTERVAL)


class TestChainBitForBit:
    """The chain writes each block of T_gamma x in place from separate chain values; its floats
    are those of the buffered chain, byte for byte."""

    @pytest.mark.parametrize("k", [None, 6], ids=["point", "block"])
    @pytest.mark.parametrize("tail", ["affine", "box"])
    # a theta that is no power of two rounds when it scales, so it pins the order of operations
    @pytest.mark.parametrize("n_ops, theta", [(2, 1.0), (2, 0.5), (3, 0.3), (4, 0.7)],
                             ids=["dr", "n2", "n3", "n4"])
    def test_apply_matches_the_buffered_chain(self, n_ops, theta, tail, k):
        fam = _chain_family(n_ops, tail, theta)
        rng = np.random.default_rng(n_ops)
        shadows = []
        for gamma, delta in ((0.5, 1.3), (1.3, 1.3), (2.0, 0.7)):
            x = 3 * rng.standard_normal(fam.dim if k is None else (k, fam.dim))
            assert fam.apply(gamma, x).tobytes() == buffered_apply(fam, gamma, x).tobytes()
            # the relocated point with its shadow, as relocated_iterate passes them (none at delta == gamma)
            moved, shadow = fam.relocate_from(delta, gamma, x)
            assert (fam.apply(delta, moved, shadow).tobytes()
                    == buffered_apply(fam, delta, moved, shadow).tobytes())
            shadows.append(shadow is not None)
        assert shadows == [True, False, True]
