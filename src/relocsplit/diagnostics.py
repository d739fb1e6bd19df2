"""Rate fitting, distances to a family's fixed-point line (``mt.MTFamily`` builds it), a run's
limit, the plain-iteration fixed-point oracle, which checks no hypothesis itself, and executable
forms of the convergence guarantees: error bounds, the one-step distance contraction, and
R-linear rate verification for relocated runs."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MissingDistances, NoConvergence, TooFewSamples
from .family import (
    DIVERGENCE_LIMIT,
    FixedPointLine,
    IterateTrace,
    OperatorFamily,
    block_sizes,
    relocated_iterate,  # noqa: F401 - unused; the benchmark wraps this name in a span
    vector_norm,
)
from .operators import as_vector

#: below this, floating-point rounding destroys log-linearity
FLOAT_FLOOR = 1e-14
#: fits of errors read from iterates x_n leave out those below ROUNDING_FLOOR_EPS * eps *
#: (1 + max_n ||x_n||): an error read from an iterate of norm ||x_n|| carries rounding of
#: about eps (1 + ||x_n||)
ROUNDING_FLOOR_EPS = 16
#: minimum usable entries for a rate fit
MIN_FIT_SAMPLES = 20
#: fits with R^2 below this are reported as not R-linear
FIT_QUALITY_GATE = 0.9
#: points past the rounding floor averaged into a run's limit
LIMIT_WINDOW = 5
#: burn-in of the rate_theorem and consensus fits: a long one can launder sublinear tails into
#: linear verdicts
CHECK_BURN_IN = 5
#: the box, per coordinate, from which error_bound draws its points, and how many it draws
ERROR_BOUND_BOX = (-3.0, 3.0)
ERROR_BOUND_SAMPLES = 1000


@dataclass(frozen=True)
class RateEstimate:
    """Fitted R-linear envelope ||e_n|| <= C * r**n.

    ``linear`` is the R-linear verdict: False marks the fit as "not R-linear"
    (fit quality below the gate, or fitted rate >= 1); ``r`` then still holds
    the raw fitted value for reporting. ``C`` is the envelope constant
    max_n e_n / r**n over the used window, so every used sample satisfies the
    envelope whenever ``linear`` holds.
    """

    C: float
    r: float
    fit_quality: float
    burn_in: int
    n_used: int
    linear: bool


def default_burn_in(n_rows: int) -> int:
    """10% of the trace, at least 5; early iterates reflect transient geometry."""
    return max(5, n_rows // 10)


def rounding_floor(xs) -> float:
    """The floor below which an error read from the iterates ``xs`` (one per row) is rounding
    noise: ROUNDING_FLOOR_EPS * eps * (1 + max_n ||x_n||)."""
    scale = 1.0 + float(np.linalg.norm(xs, axis=1).max())
    return float(ROUNDING_FLOOR_EPS * np.finfo(float).eps * scale)


def fit_linear_rate(errors, burn_in: int, floor: float = FLOAT_FLOOR) -> RateEstimate:
    """Least-squares fit of log e_n against n on the post-burn-in window.

    Entries are used up to the first one below ``floor`` (the 1e-14 rounding floor unless
    given). A window lying wholly below the floor is exact convergence: linear, with C = 0
    and r reported as the floor. Otherwise the fit needs at least 20 usable entries
    (TooFewSamples otherwise), and the verdict is "not R-linear" when the coefficient of
    determination drops below 0.9 or the fitted rate reaches 1.
    """
    e = np.asarray(errors, dtype=float)
    if e.ndim != 1:
        raise DomainError("errors must be a 1-d sequence")
    if not np.all(np.isfinite(e)) or np.any(e < 0):
        raise DomainError("errors must be finite and nonnegative")
    if burn_in < 0:
        raise DomainError("burn_in must be >= 0")

    tail = e[burn_in:]
    if tail.size and tail.max() < floor:
        # exact convergence: C = 0 satisfies the envelope for any rate
        return RateEstimate(0.0, floor, 1.0, burn_in, int(tail.size), True)
    below = np.nonzero(tail < floor)[0]
    used = tail[: below[0]] if below.size else tail
    if used.size < MIN_FIT_SAMPLES:
        raise TooFewSamples(
            f"only {used.size} usable entries after burn-in {burn_in} (need {MIN_FIT_SAMPLES})"
        )

    n = np.arange(burn_in, burn_in + used.size, dtype=float)
    y = np.log(used)
    slope, intercept = np.polyfit(n, y, 1)
    fitted = slope * n + intercept
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum((y - fitted) ** 2))
    quality = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    r_hat = float(np.exp(slope))
    C = float(np.max(used / r_hat**n))
    linear = quality >= FIT_QUALITY_GATE and r_hat < 1.0
    return RateEstimate(C, r_hat, quality, burn_in, int(used.size), linear)


def fixed_point_oracle(
    family: OperatorFamily,
    gamma: float,
    x0,
    tol: float = 1e-13,
    max_iters: int = 10**6,
) -> np.ndarray:
    """Locate a fixed point of T_gamma by plain iteration to ||x - T x|| <= tol.

    It checks no hypothesis: when the family's contraction hypotheses hold
    (``missing_hypothesis``), the target is the unique fixed point; otherwise the iteration
    may not converge, and NoConvergence carries the last residual.
    """
    family.check_gamma(gamma)
    x = as_vector(x0, family.dim)
    last = np.inf
    for _ in range(max_iters):
        t = family.apply(gamma, x)
        last = float(np.linalg.norm(x - t))
        if last <= tol:
            return x
        size = float(np.linalg.norm(t))
        if not np.isfinite(size) or size > DIVERGENCE_LIMIT:
            raise NoConvergence("iteration diverged", last_residual=last)
        x = t
    raise NoConvergence(
        f"residual {last:.3e} above {tol:.1e} after {max_iters} iterations",
        last_residual=last,
    )


FixedPointCache = FixedPointLine  # kept - the benchmark counts fixed-point lookups by wrapping its point


def compute_distances(family: OperatorFamily, trace: IterateTrace) -> IterateTrace:
    """Fill ``trace.dist_to_fix`` with exact distances ||x_n - x*(gamma_n)|| to the points of the
    family's fixed-point line, a block of rows at a time.

    Exact distances need singleton fixed-point sets, which the family's contraction
    hypotheses give (NonSingletonFix otherwise).
    """
    line = family.fixed_point_line()
    gammas = family.check_gamma(trace.gammas)[:, None]
    # a block's points, differences and squares are live at once: three dim-float temporaries
    # per row, at most BLOCK_FLOATS floats in all, the budget the sampling checks keep to
    ends = np.cumsum([0, *block_sizes(len(trace), 3 * family.dim)])
    trace.dist_to_fix = np.concatenate([
        np.linalg.norm(trace.xs[a:b] - line.point(gammas[a:b]), axis=1) for a, b in zip(ends, ends[1:])
    ])
    return trace


@dataclass(frozen=True)
class BoundReport:
    """Outcome of sampling an inequality; PASS means zero violations."""

    bound_name: str
    samples: int
    violations: int
    worst_ratio: float
    certified_constant: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def verify_error_bound(family: OperatorFamily, gamma: float, kappa: float, seed: int) -> BoundReport:
    """Sample-check dist(x, Fix T_gamma) <= kappa * ||x - T_gamma x||.

    ERROR_BOUND_SAMPLES points are drawn uniformly from ERROR_BOUND_BOX in every coordinate and
    evaluated a block at a time (``relocsplit.family.BLOCK_FLOATS`` floats); the distance is
    exact via the unique fixed point ``family.fixed_point(gamma)`` (contraction hypotheses
    required). Each sample allows the absolute slack 1e-9 * (1 + ||x||); the ratio reported is
    the left side over the slackened right side, so PASS means worst_ratio <= 1, and a NaN
    ratio is a violation that reaches worst_ratio. A kappa that is not positive (NaN included)
    raises DomainError.
    """
    gamma = family.check_gamma(gamma)
    if not kappa > 0:
        raise DomainError(f"kappa must be positive, got {kappa!r}")

    x_star = family.fixed_point(gamma)
    rng = np.random.default_rng(seed)
    ratios = []
    for k in block_sizes(ERROR_BOUND_SAMPLES, family.dim):
        x = rng.uniform(*ERROR_BOUND_BOX, size=(k, family.dim))
        lhs = np.linalg.norm(x - x_star, axis=1)
        resid = np.linalg.norm(x - family.apply(gamma, x), axis=1)
        ratios.append(lhs / (kappa * resid + 1e-9 * (1.0 + np.linalg.norm(x, axis=1))))
    ratio = np.concatenate(ratios)
    violations = int(np.count_nonzero(~(ratio <= 1.0)))
    return BoundReport("error_bound", ERROR_BOUND_SAMPLES, violations, float(ratio.max()), kappa)


def verify_one_step_contraction(family: OperatorFamily, trace: IterateTrace, kappa: float) -> BoundReport:
    """Check the per-step distance inequality

        dist_{n+1} <= l_n * sqrt(max{0, 1 - (1-alpha)/(alpha kappa^2)}) * dist_n + 1e-9

    along a relocated run, where l_n is the relocator Lipschitz constant for
    the step, and alpha the averagedness constant of the family's regularity record. A NaN ratio
    is a violation; a kappa that is not positive (NaN included) raises DomainError.
    """
    if trace.dist_to_fix is None:
        raise MissingDistances("trace has no distances; run compute_distances first")
    if not kappa > 0:
        raise DomainError(f"kappa must be positive, got {kappa!r}")
    alpha = family.regularity().alpha
    factor = float(np.sqrt(max(0.0, 1.0 - (1.0 - alpha) / (alpha * kappa**2))))

    dist = trace.dist_to_fix
    ell = family.relocator_lipschitz(trace.gammas[1:], trace.gammas[:-1])
    ratio = dist[1:] / (ell * factor * dist[:-1] + 1e-9)
    violations = int(np.count_nonzero(~(ratio <= 1.0)))
    return BoundReport("one_step", len(ratio), violations, float(ratio.max(initial=0.0)), kappa)


def distance_floor(family: OperatorFamily) -> float:
    """Distances to the family's fixed-point line below this count as zero in a rate fit.

    A point of the line has a residual of at most the line's bound rho, so it lies within
    rho / (1 - beta) of the exact fixed point of a beta-contraction; the floor is
    10 rho / (1 - beta), kept within [1e-14, 1e-6], beta from the family's regularity record
    (NonSingletonFix without one).
    """
    beta = family.regularity().beta
    rho = family.fixed_point_line().residual_bound
    return max(FLOAT_FLOOR, min(1e-6, 10.0 * rho / (1.0 - beta)))


@dataclass(frozen=True)
class RateTheoremResult:
    dist_rate: RateEstimate
    iterate_rate: RateEstimate
    passed: bool


def limit_errors(family: OperatorFamily, gamma: float, trace: IterateTrace) -> np.ndarray:
    """Fill ``trace.err_to_limit`` with ||x_n - x_inf|| and return the limit x_inf.

    The iterates converge to a point of Fix T_gamma, gamma the limiting stepsize, and
    float iterates converge to the float map's own fixed point, which can lie above the
    1e-14 fit floor from the exact one. So x_inf comes from T_gamma itself: from the
    trace's last iterate, apply it while ||x - T_gamma x|| keeps falling (for a contraction
    it falls at every step in exact arithmetic, so the first step where it does not marks
    the rounding floor), then average that point and its next 4 images. At most
    3 * (len(trace) - 1) applications in all; at that cap, the last 5 points are averaged.
    Each application is ``held_step``'s map, without ``apply``'s checks, where there is one.
    """
    apply = family.held_step(gamma) or (lambda x: family.apply(gamma, x))
    x = trace.xs[-1]
    window = deque([x], maxlen=LIMIT_WINDOW)
    last = np.inf
    floor_at = None  # applications made when the residual stopped falling
    for applied in range(1, 3 * (len(trace) - 1) + 1):
        t = apply(x)
        if floor_at is None:
            resid = vector_norm(x - t)
            if resid >= last:
                floor_at = applied
            last = resid
        window.append(t)
        x = t
        if floor_at is not None and applied - floor_at == LIMIT_WINDOW - 2:
            break
    x_inf = np.mean(window, axis=0)
    trace.err_to_limit = np.linalg.norm(trace.xs - x_inf, axis=1)
    return x_inf


def verify_rate_theorem(family: OperatorFamily, trace: IterateTrace) -> RateTheoremResult:
    """Fit R-linear rates, after CHECK_BURN_IN rows, to the trace's ``dist_to_fix`` and
    ``err_to_limit`` columns.

    The columns come from ``compute_distances`` and ``limit_errors``; MissingDistances
    when either is absent. Passes when both fits come back R-linear; schedules that do
    not converge R-linearly are expected to fail the iterate fit. The distance fit cuts
    at ``distance_floor(family)``, the iterate fit at ``rounding_floor`` of the iterates: the
    limit comes from float applications of T_gamma, so the errors to it level off at the
    rounding of the iterates, which grows with their norm.
    """
    dist_floor = distance_floor(family)
    if trace.dist_to_fix is None or trace.err_to_limit is None:
        raise MissingDistances("trace lacks a column; run compute_distances and limit_errors first")

    iterate_rate = fit_linear_rate(trace.err_to_limit, CHECK_BURN_IN, rounding_floor(trace.xs))
    dist_rate = fit_linear_rate(trace.dist_to_fix, CHECK_BURN_IN, dist_floor)
    return RateTheoremResult(dist_rate, iterate_rate, dist_rate.linear and iterate_rate.linear)
