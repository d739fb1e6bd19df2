"""Multioperator resolvent splitting with variable stepsizes.

For N >= 2 maximally monotone operators the algorithmic map acts on block
vectors x = (x^1, ..., x^{N-1}) via a chain of N resolvent evaluations

    z^1 = J_{gamma A1} x^1
    z^i = J_{gamma Ai}(z^{i-1} + x^i - x^{i-1})       i = 2..N-1
    z^N = J_{gamma AN}(z^1 + z^{N-1} - x^{N-1})
    T_gamma x = x + theta * (z^2 - z^1, ..., z^N - z^{N-1})

with relaxation theta in (0, 1). Fixed points of T_gamma correspond exactly to
zeros of A1 + ... + AN through the common resolvent value z, so Fix T_gamma is a line in gamma
that ``MTFamily`` builds (for a box tail, with ``diagnostics.fixed_point_oracle``). The relocator
replaces every block i by (delta/gamma) x^i + (1 - delta/gamma) J_{gamma A1} x^1.
At N = 2 and theta = 1 the chain is Douglas-Rachford, T_gamma x = x + (y - z) with
y = J_{gamma A2}(2z - x): ``dr.DRFamily`` is this family there.

Block vectors are stored flat with stride ``space_dim``; the block count is
part of the family, so the generic driver stays oblivious to N. The contraction factor is
sampled over all pairs among SAMPLE_POINTS = 64 points at each of SAMPLE_GAMMAS = 5 stepsizes: a
lower estimate, not a bound.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .errors import (
    BadBlockCount,
    CertificationFailed,
    ChainMismatch,
    DomainError,
    NonSingletonFix,
    UnsupportedOperator,
)
from .family import (
    FixedPointLine,
    OperatorFamily,
    Regularity,
    StepsizeSchedule,
    block_sizes,
    many_targets,
    relocated_iterate,
)
from .operators import AffineOperator, inclusion_gaps

#: margin keeping the relaxation parameter strictly inside (0, 1)
_THETA_MARGIN = 1e-6
#: largest resolvent-chain residual ``mt_fixed_point_to_zero`` accepts at a fixed point
CHAIN_TOL = 1e-7
#: passes the active-set solve for a box tail's zero makes at most
ACTIVE_SET_PASSES = 20
#: the contraction factor's sample: SAMPLE_POINTS points, SAMPLE_SCALE * N(0, I) from seed
#: SAMPLE_SEED, at each of SAMPLE_GAMMAS stepsizes; SAMPLE_POINTS**2 floats fit in BLOCK_FLOATS, so
#: one Gram product covers every pair of a stepsize
SAMPLE_POINTS, SAMPLE_GAMMAS, SAMPLE_SEED, SAMPLE_SCALE = 64, 5, 2024, 3.0
#: the structural hypotheses under which T_gamma is a contraction, one entry per case
_CASES = {"last_strong": "Lipschitz single-valued heads and a strongly monotone tail",
          "first_strong": "strongly monotone Lipschitz heads"}


@dataclass(frozen=True)
class MTLipschitzConstants:
    """Two Lipschitz constants for the block relocator.

    ``L_check`` is the loose, analysis-friendly constant

        sqrt(d/g) + sqrt(|g-d|/g) * max{sqrt(N-1), sqrt(2N) sqrt(d/g)}

    and ``L_hat`` the tighter one

        max{sqrt(d/g + (N-1)|g-d|/g), sqrt(d/g + 2N (d/g) |g-d|/g)}.

    Always L_hat <= L_check, both equal 1 at d == g, and both are bounded
    below by min{1, sqrt(d/g)}.
    """

    L_check: float | np.ndarray
    L_hat: float | np.ndarray


def mt_relocator_lipschitz(delta, gamma, n_operators: int) -> MTLipschitzConstants:
    """Both constants for stepsizes ``delta``, ``gamma``; arrays give them elementwise."""
    delta, gamma = np.asarray(delta, dtype=float), np.asarray(gamma, dtype=float)
    if not (np.all(delta > 0) and np.all(gamma > 0)):
        raise DomainError("stepsizes must be positive")
    if n_operators < 2:
        raise DomainError("need at least two operators")
    N = n_operators
    s = delta / gamma
    q = np.abs(gamma - delta) / gamma
    l_check = np.sqrt(s) + np.sqrt(q) * np.maximum(math.sqrt(N - 1), math.sqrt(2 * N) * np.sqrt(s))
    l_hat = np.maximum(np.sqrt(s + (N - 1) * q), np.sqrt(s + 2 * N * s * q))
    return MTLipschitzConstants(l_check[()], l_hat[()])


class MTFamily(OperatorFamily):
    """Resolvent-splitting family on H^{N-1} for operators A1..AN.

    The driver-facing dimension is ``(N-1) * space_dim``. When the hypotheses of a contraction
    case hold (``missing_hypothesis``), the regularity record carries the factor beta that
    ``mt_contraction_certificate`` samples from all pairs among SAMPLE_POINTS points per
    stepsize, with provenance ``sampled``, and the averagedness (beta + 1)/2 of a beta-contraction;
    an all-affine family with N <= 3 holds its ``affine_part``. ``dr.DRFamily`` is this family at
    N = 2 and theta = 1, with its own regularity record and relocator constant.
    """

    #: the affine part held for one stepsize: ``(gamma, P^T, q)``
    _affine: tuple[float, np.ndarray, np.ndarray] | None = None

    def __init__(self, operators, theta: float = 0.5, gamma_interval: tuple[float, float] = (0.5, 2.0)):
        if not (_THETA_MARGIN < theta < 1.0 - _THETA_MARGIN):
            raise DomainError("theta must lie strictly inside (0, 1)")
        self._setup(operators, theta, gamma_interval)

    def _setup(self, operators, theta: float, gamma_interval) -> None:
        """Set the family up for any theta; ``__init__`` admits only theta in (0, 1)."""
        operators = list(operators)
        if len(operators) < 2:
            raise DomainError("need at least two operators")
        dims = {op.dim for op in operators}
        if len(dims) != 1:
            raise DomainError(f"operator dimensions differ: {sorted(dims)}")
        self._set_interval(gamma_interval)
        self.operators = operators
        self.theta = float(theta)
        self.space_dim = operators[0].dim
        self.n_operators = len(operators)
        self.n_blocks = self.n_operators - 1
        self.dim = self.n_blocks * self.space_dim

    def split_blocks(self, x) -> np.ndarray:
        """View a point ``(dim,)`` as ``(n_blocks, space_dim)``, a block of points
        ``(k, dim)`` as ``(k, n_blocks, space_dim)``."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise BadBlockCount(
                f"expected {self.n_blocks} blocks of size {self.space_dim} "
                f"({self.dim} entries) per point, got shape {x.shape}"
            )
        if not np.isfinite(x).all():
            raise DomainError("block vector has non-finite coordinates")
        return x.reshape(x.shape[:-1] + (self.n_blocks, self.space_dim))

    def apply(self, gamma, x, shadow=None):
        """T_gamma x from the N chain values z^1..z^N.

        A relocated x passes its shadow as z^1: J_{gamma A1}(Q_{gamma<-g} w)^1 = J_{g A1} w^1.
        For a block of points every chain value is one resolvent call on k rows. At the
        stepsize of the held affine part (``affine_part``), x P^T + q instead.
        """
        gamma = self.check_gamma(gamma)
        xb = self.split_blocks(x)
        held = self._affine
        if held is not None and held[0] == gamma:
            return xb.reshape(xb.shape[:-2] + (self.dim,)) @ held[1] + held[2]
        ops = self.operators
        K = self.n_blocks
        xi = [xb[..., i, :] for i in range(K)]
        z = [ops[0].resolvent(gamma, xi[0]) if shadow is None else shadow]
        for i in range(1, K):
            z.append(ops[i].resolvent(gamma, z[i - 1] + xi[i] - xi[i - 1]))
        z.append(ops[K].resolvent(gamma, z[0] + z[K - 1] - xi[K - 1]))
        # block i of T_gamma x is x^i + theta (z^{i+1} - z^i), written in place
        t = np.empty(xb.shape)
        for i in range(K):
            block = t[..., i, :]
            np.subtract(z[i + 1], z[i], out=block)
            block *= self.theta
            block += xi[i]
        return t.reshape(xb.shape[:-2] + (self.dim,))

    def relocate_from(self, delta, gamma, x):
        """Q_{delta<-gamma} x, with the anchor J_{gamma A1} x^1 as the shadow; at delta == gamma
        the relocator is the identity, and x comes back with no shadow.

        A 1-d array of targets delta relocates one point x to each, one row per target, from one
        anchor, which is every row's shadow; each row is the scalar call's bit for bit, x itself
        where the target is gamma.
        """
        delta = self.check_gamma(delta)
        gamma = self.check_gamma(gamma)
        xb = self.split_blocks(x)
        many = many_targets(delta, xb.ndim - 1)
        if not many and delta == gamma:
            return xb.reshape(xb.shape[:-2] + (self.dim,)), None
        # s scales every block of a row: a scalar, or one target per row
        s = (delta / gamma)[:, None, None] if many else delta / gamma
        anchor = self.operators[0].resolvent(gamma, xb[..., 0, :])
        moved = s * xb + (1.0 - s) * anchor[..., None, :]
        if many:
            moved[delta == gamma] = xb
        return moved.reshape(moved.shape[:-2] + (self.dim,)), anchor

    def _fixed_point_line(self) -> FixedPointLine:
        """Fix T_gamma = {offset + gamma * slope} with its residual bound; needs the contraction hypotheses.

        A fixed point encodes a zero z* of A1 + ... + AN: block i < N is z* + gamma s_i, s_i =
        A1 z* + ... + Ai z* (N = 2 for the two-operator splitting). Affine operators give z* by one
        linear solve. With a box last, an active-set solve (``box_zero_guess``), finished by one
        warm-started oracle run, gives it: the oracle starts from the line's point at the low
        stepsize through the solve's z, and z* is J_{gamma A1} x^1 of the oracle's x. The slope
        comes from the operators, never from the relocator the checks test.

        The bound: on the line each resolvent of the chain but the last returns z*, and the last
        is y = J_{gamma AN}(z* - gamma s_{N-1}), with ||x - T_gamma x|| = theta ||y - z*|| (theta = 1
        for the two-operator splitting). For a box AN = N_C take p in C and w in N_C(p) from
        ``operators.inclusion_gaps``, so that P_C(p + gamma w) = p; for a single-valued AN take
        p = z* and w = AN z*, so that J_{gamma AN}(p + gamma w) = p. With r = s_{N-1} + w, the
        inclusion residual, nonexpansiveness gives ||y - z*|| <= ||z* - p|| + ||(z* - p) - gamma r||.
        Forming x in floats moves it by at most eps (||offset|| + gamma ||slope||), and I - T_gamma
        is 2-Lipschitz. So, with T_gamma and the A_i z* evaluated exactly, for gamma <= gamma_hi

            ||x - T_gamma x|| <= theta (2 ||z* - p|| + gamma_hi ||r||)
                                 + 2 eps (||offset|| + gamma_hi ||slope||).
        """
        if missing := self.missing_hypothesis():
            raise NonSingletonFix(missing)
        *head, tail = operators = self.operators
        if not all(callable(op) for op in head):
            raise UnsupportedOperator("the fixed-point line needs single-valued leading operators")
        # the hypotheses make the symmetric part of the summed M positive definite
        if all(isinstance(op, AffineOperator) for op in operators):
            z = np.linalg.solve(_summed(op.M for op in operators), -sum(op.b for op in operators))
        else:
            gamma = self.gamma_interval[0]
            guess = box_zero_guess(_summed(op.M for op in head), sum(op.b for op in head), tail,
                                   1.0 / sum(op.lip for op in head))
            offset, slope = _line_through(head, guess)
            # through the module, so that a wrapped or patched oracle is the one run
            x = diagnostics.fixed_point_oracle(self, gamma, offset + gamma * slope)
            z = head[0].resolvent(gamma, x[: head[0].dim])
        feasibility, r = inclusion_gaps(operators, z)
        offset, slope = _line_through(head, z)
        gamma_hi, theta = self.gamma_interval[1], self.theta
        rounding = 2.0 * np.finfo(float).eps * (np.linalg.norm(offset) + gamma_hi * np.linalg.norm(slope))
        return FixedPointLine(offset, slope, theta * (2.0 * feasibility + gamma_hi * r) + float(rounding))

    def affine_part(self, gamma: float) -> tuple[np.ndarray, np.ndarray] | None:
        """``(P^T, q)`` with T_gamma x = x P^T + q for every row x, or None unless every operator
        is affine.

        The map is formed on the first request at a stepsize and held until another stepsize is
        asked for; ``apply`` at exactly that stepsize returns x P^T + q. q is T_gamma 0. The rows
        of P^T are this family with every offset set to 0 applied to the rows of the identity,
        ``BLOCK_FLOATS`` floats at a time, so P^T is the one d x d array made. Forming P as
        T_gamma I - T_gamma 0 instead would put q's rounding into every entry. The first chain
        value of a row, its first block through J_{gamma A1}, is read from A1's factors
        (``AffineOperator.linear_resolvent_rows``) and passed to ``apply`` as the shadow.
        """
        if not all(isinstance(op, AffineOperator) for op in self.operators):
            return None
        gamma = self.check_gamma(gamma)
        if self._affine is None or self._affine[0] != gamma:
            self._affine = None  # let the old P^T go before the new one is made
            # a copy keeps the class and theta, and now holds no affine part
            linear = copy.copy(self)
            linear.operators = [op.linear_part() for op in self.operators]
            q = self.apply(gamma, np.zeros(self.dim))
            pt = np.zeros((self.dim, self.dim))
            ends = np.cumsum([0, *block_sizes(self.dim, self.dim)])
            for a, b in zip(ends, ends[1:]):
                rows = pt[a:b]
                rows[np.arange(b - a), np.arange(a, b)] = 1.0
                # the rows' first chain value, J_{gamma A1} of their first block, from A1's factors
                first = linear.operators[0].linear_resolvent_rows(gamma, a, b - a)
                rows[:] = linear.apply(gamma, rows, first)
            self._affine = (gamma, pt, q)
        return self._affine[1:]

    def hold_affine_part(self, gamma):
        """Form and hold the affine part at gamma when every operator is affine and a row through
        the map, dim^2 multiply-adds, costs less than one through the chain, about 2 N space_dim^2
        (N resolvents, two products each): that is N <= 3. Return whether it is held. The rule
        reads the family alone, so neither a run's length nor its checks move its iterates; the
        cost of forming P^T, dim chain rows, is not weighed."""
        if self.dim**2 >= 2 * self.n_operators * self.space_dim**2:
            return False
        return self.affine_part(gamma) is not None

    def relocator_lipschitz(self, delta, gamma):
        # the summability hypothesis is checked with the analysis constant
        delta, gamma = self.check_gamma(delta), self.check_gamma(gamma)
        return mt_relocator_lipschitz(delta, gamma, self.n_operators).L_check

    def summability_bound(self, schedule):
        return mt_summability_bound(schedule, self.n_operators)

    def missing_hypothesis(self):
        holds = any(_case_holds(self.operators, case) for case in _CASES)
        return "" if holds else "no contraction certificate without " + ", or ".join(_CASES.values())

    def _build_regularity(self):
        beta = mt_contraction_certificate(self)
        return Regularity(beta, "sampled", (beta + 1.0) / 2.0)


#: Algorithm 2, the per-step form of the splitting (the z-chain from the
#: carried z^1, then z_{n+1}^1 = J_{gamma_n A1} w_n^1 anchoring the
#: relocation), is ``relocated_iterate`` on an ``MTFamily``; w_n = T_{gamma_n} x_n
#: is its ``t_of_x``, and z^{i+1} - z^i is block i of (w_n - x_n)/theta.
algorithm2_run = relocated_iterate


@dataclass(frozen=True)
class MTZeroCertificate:
    z: np.ndarray
    inclusion_residual: float
    chain_residuals: np.ndarray


def mt_fixed_point_to_zero(fam: MTFamily, gamma: float, x) -> MTZeroCertificate:
    """Recover the zero of A1 + ... + AN encoded by a fixed point of T_gamma.

    Certifies the whole chain z = J_{gamma A1} x^1 = J_{gamma Ai}(x^i - x^{i-1} + z)
    = J_{gamma AN}(2z - x^{N-1}); a residual above ``CHAIN_TOL`` raises
    ChainMismatch since the correspondence is an equivalence. The inclusion
    residual is the sum of the two gaps ``operators.inclusion_gaps`` measures:
    ||sum_i A_i(z)|| for single-valued operators, and for one box normal cone
    its feasibility gap plus its cone gap.
    """
    gamma = fam.check_gamma(gamma)
    x = fam.assert_fixed_point(gamma, x)
    xb = fam.split_blocks(x)
    ops = fam.operators
    K = fam.n_blocks

    z = ops[0].resolvent(gamma, xb[0])
    chain = []
    for i in range(1, K):
        chain.append(float(np.linalg.norm(z - ops[i].resolvent(gamma, xb[i] - xb[i - 1] + z))))
    chain.append(float(np.linalg.norm(z - ops[K].resolvent(gamma, 2.0 * z - xb[K - 1]))))
    chain = np.array(chain)
    if np.any(chain > CHAIN_TOL):
        raise ChainMismatch(
            f"resolvent chain residuals {chain} exceed {CHAIN_TOL:.1e} at a certified fixed point"
        )

    return MTZeroCertificate(z, sum(inclusion_gaps(ops, z)), chain)


def box_zero_guess(M, b, box, step: float) -> np.ndarray:
    """Guess the z with 0 in M z + b + N_C(z), C the box, by a primal-dual active-set loop
    (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13 (2002) 865-888).

    From z = 0, each pass takes g = z - step (M z + b), pins z to the upper bound where g lies
    above it and to the lower bound where g lies below it, and solves the free rows of
    M z + b = 0 for the free coordinates. When a pass finds the active set of the pass before,
    z solves the inclusion. The loop stops at the first active set seen before, which a cycle
    also reaches, or after ACTIVE_SET_PASSES passes; what it returns is a guess, which
    ``MTFamily._fixed_point_line`` hands to the oracle.
    """
    z = np.zeros_like(b)
    seen = set()
    for _ in range(ACTIVE_SET_PASSES):
        g = z - step * (M @ z + b)
        upper, lower = g > box.upper, g < box.lower
        key = (upper.tobytes(), lower.tobytes())
        if key in seen:
            break
        seen.add(key)
        z = np.where(upper, box.upper, np.where(lower, box.lower, 0.0))
        free = ~(upper | lower)
        # z is 0 on the free coordinates, so M[free] @ z is the pinned coordinates' share
        z[free] = np.linalg.solve(M[np.ix_(free, free)], -b[free] - M[free] @ z)
    return z


def _summed(matrices) -> np.ndarray:
    """The sum of the matrices, made in one new array."""
    first, *rest = matrices
    total = first.copy()
    for m in rest:
        total += m
    return total


def _line_through(head, z) -> tuple[np.ndarray, np.ndarray]:
    """The offset and slope of the fixed-point line through the zero z: block i of the
    offset is z, block i of the slope A1 z + ... + Ai z."""
    return np.tile(z, len(head)), np.cumsum([op(z) for op in head], axis=0).ravel()


def _case_holds(operators, case: str) -> bool:
    """Whether the structural hypotheses of a case in ``_CASES`` hold."""
    *head, last = operators
    strong = head if case == "first_strong" else [last]
    return (all(getattr(op, "single_valued", False) and np.isfinite(getattr(op, "lip", np.inf)) for op in head)
            and all(getattr(op, "mu", 0.0) > 0.0 for op in strong))


def mt_contraction_certificate(fam: MTFamily) -> float:
    """The contraction factor beta of a family whose structural hypotheses hold, by sampling;
    NonSingletonFix with ``fam.missing_hypothesis()`` when they fail. Cases:
      "last_strong"   A1..A_{N-1} single-valued monotone Lipschitz, AN strongly monotone
      "first_strong"  A1..A_{N-1} strongly monotone Lipschitz, AN merely monotone

    At each of SAMPLE_GAMMAS stepsizes, SAMPLE_POINTS points SAMPLE_SCALE * N(0, I) (seed
    SAMPLE_SEED) are mapped by T_gamma a block of rows at a time
    (``relocsplit.family.BLOCK_FLOATS`` floats). beta is the largest ratio
    ||T_gamma u - T_gamma v|| / ||u - v|| over every pair of them at least 1e-12 apart: one Gram
    product for the points and one for their images rank the pairs, and each stepsize's best
    pair is measured again from its differences, so no cancellation becomes beta. A ratio at or
    above 1 - 1e-6 raises CertificationFailed (theory forbids it).
    """
    if missing := fam.missing_hypothesis():
        raise NonSingletonFix(missing)

    rng = np.random.default_rng(SAMPLE_SEED)
    lo, hi = fam.gamma_interval
    n, ratios = SAMPLE_POINTS, []
    upper = np.arange(n) > np.arange(n)[:, None]
    for gamma in np.linspace(lo, hi, SAMPLE_GAMMAS):
        points = SAMPLE_SCALE * rng.standard_normal((n, fam.dim))
        ends = np.cumsum([0, *block_sizes(n, fam.dim)])
        images = np.concatenate([fam.apply(gamma, points[a:b]) for a, b in zip(ends, ends[1:])])
        d_x, d_t = _squared_distances(points), _squared_distances(images)
        # pair (i, j) counts once, as i < j, and only when the points lie 1e-12 apart
        ratio2 = np.divide(d_t, d_x, out=np.full(d_x.shape, -np.inf), where=upper & (d_x >= 1e-24))
        i, j = divmod(int(ratio2.argmax()), n)
        moved, apart = images[i] - images[j], points[i] - points[j]
        ratios.append(float(np.linalg.norm(moved) / np.linalg.norm(apart)))
    beta = max(ratios)
    if beta >= 1.0 - 1e-6:
        raise CertificationFailed(
            f"sampled Lipschitz ratio {beta:.8f} is not a contraction despite the hypotheses"
        )
    return beta


def _squared_distances(x: np.ndarray) -> np.ndarray:
    """||x_i - x_j||^2 for every two rows of x, from one Gram product."""
    sq = np.einsum("ij,ij->i", x, x)
    return sq[:, None] + sq - 2.0 * (x @ x.T)


def mt_summability_bound(schedule: StepsizeSchedule, n_operators: int) -> float:
    """Upper bound on sum_n (L_check(gamma_{n+1} <- gamma_n) - 1).

    With s = gamma_{n+1}/gamma_n and q = |gamma_{n+1} - gamma_n|/gamma_n <= |Delta_n|/gamma_low,
    sqrt(s) - 1 <= (s - 1)/2 <= |Delta_n|/(2 gamma_low) and s <= gamma_high/gamma_low, so each
    term is at most

        |Delta_n|/(2 gamma_low) + sqrt(|Delta_n|/gamma_low) * K,
        K = max{sqrt(N-1), sqrt(2N) sqrt(gamma_high/gamma_low)}.

    Geometric: with |gamma_n - gamma*| <= C r^n, |Delta_n| <= C(1+r) r^n, so the terms are at
    most M sqrt(r)^n with M = C(1+r)/(2 gamma_low) + sqrt(C(1+r)/gamma_low) K, and the total is
    M / (1 - sqrt(r)).

    Polynomial: the schedule is nonincreasing, so sum_n |Delta_n| <= C, and clamping is
    1-Lipschitz, so |Delta_n| <= C ((n+1)^-p - (n+2)^-p) <= C p / (n+1)^(p+1). For p > 1,
    sum_n (n+1)^-(p+1)/2 = zeta((p+1)/2) <= 1 + 2/(p-1) = (p+1)/(p-1) by the integral test, and
    the total is C/(2 gamma_low) + sqrt(C p/gamma_low) K (p+1)/(p-1). For p <= 1 the bound is
    +inf: with C > 0 and gamma* < gamma_high, |Delta_n| >= C p / (n+2)^(p+1) from some n on, and
    the sqrt(q) K terms make a divergent p-series.

    A constant schedule, or C = 0, contributes 0.
    """
    if n_operators < 2:
        raise DomainError("need at least two operators")
    C, r, p = schedule.C, schedule.r, schedule.p
    if schedule.kind == "constant" or C == 0.0:
        return 0.0
    lo, hi = schedule.gamma_low, schedule.gamma_high
    factor = max(math.sqrt(n_operators - 1), math.sqrt(2 * n_operators) * math.sqrt(hi / lo))
    if schedule.kind == "polynomial":
        if p <= 1.0:
            return math.inf
        return C / (2.0 * lo) + math.sqrt(C * p / lo) * factor * (p + 1.0) / (p - 1.0)
    M = C * (1.0 + r) / (2.0 * lo) + math.sqrt(C * (1.0 + r) / lo) * factor
    return M / (1.0 - math.sqrt(r))
