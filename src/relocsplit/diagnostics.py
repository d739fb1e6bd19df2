"""Rate fitting, fixed points (a line per family, a plain-iteration oracle),
and executable forms of the convergence guarantees: error bounds, the one-step
distance contraction, and R-linear rate verification for relocated runs."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    MissingDistances,
    NoConvergence,
    NonSingletonFix,
    NotAFixedPoint,
    TooFewSamples,
    UnsupportedOperator,
)
from .family import (
    DIVERGENCE_LIMIT,
    FIXED_POINT_TOL,
    IterateTrace,
    OperatorFamily,
    StepsizeSchedule,
    block_sizes,
    relocated_iterate,
)
from .operators import AffineOperator, as_vector

#: below this, floating-point rounding destroys log-linearity
FLOAT_FLOOR = 1e-14
#: minimum usable entries for a rate fit
MIN_FIT_SAMPLES = 20
#: fits with R^2 below this are reported as not R-linear
FIT_QUALITY_GATE = 0.9
#: points past the rounding floor averaged into a run's limit
LIMIT_WINDOW = 5


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


def _fit_core(errors, burn_in: int, floor: float) -> RateEstimate:
    e = np.asarray(errors, dtype=float)
    if e.ndim != 1:
        raise DomainError("errors must be a 1-d sequence")
    if not np.all(np.isfinite(e)) or np.any(e < 0):
        raise DomainError("errors must be finite and nonnegative")
    if burn_in < 0:
        raise DomainError("burn_in must be >= 0")

    tail = e[burn_in:]
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


def fit_linear_rate(errors, burn_in: int) -> RateEstimate:
    """Least-squares fit of log e_n against n on the post-burn-in window.

    Entries are used up to the first one below the 1e-14 floor. Needs at least
    20 usable entries (TooFewSamples otherwise). The verdict is "not R-linear"
    when the coefficient of determination drops below 0.9 or the fitted rate
    reaches 1.
    """
    return _fit_core(errors, burn_in, FLOAT_FLOOR)


def _fit_allow_zero(errors: np.ndarray, burn_in: int, floor: float = FLOAT_FLOOR) -> RateEstimate:
    """Rate fit that treats an identically-floored tail as exact convergence."""
    tail = np.asarray(errors, float)[burn_in:]
    if tail.size and np.max(tail) < floor:
        # zero sequence: C = 0 satisfies the envelope for any rate
        return RateEstimate(0.0, floor, 1.0, burn_in, int(tail.size), True)
    return _fit_core(errors, burn_in, floor)


def fixed_point_oracle(
    family: OperatorFamily,
    gamma: float,
    x0,
    tol: float = 1e-13,
    max_iters: int = 10**6,
    require_contraction: bool = True,
) -> np.ndarray:
    """Locate a fixed point of T_gamma by plain iteration to ||x - T x|| <= tol.

    With a contraction marker the target is the unique fixed point; pass
    ``require_contraction=False`` to attempt the iteration anyway (it may not
    converge; NoConvergence carries the last residual).
    """
    family.check_gamma(gamma)
    if require_contraction and family.contraction_beta is None:
        raise NonSingletonFix("family carries no contraction certificate")
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


def fixed_point_line(family: OperatorFamily, operators) -> tuple[np.ndarray, np.ndarray]:
    """``(offset, slope)`` with Fix T_gamma = {offset + gamma * slope}; needs a contraction marker.

    A fixed point encodes a zero z* of A1 + ... + AN: block i is z* + gamma (A1 z* + ... + Ai z*)
    (N = 2 for the two-operator splitting). Affine operators give z* by one linear solve; with a
    box last, one oracle run gives it as J_{gamma A1} x^1. The slope comes from the operators,
    never from the relocator, so checks of the relocator compare it with independent points.
    """
    if family.contraction_beta is None:
        raise NonSingletonFix("the fixed-point line needs a contraction certificate")
    *head, _ = operators
    if not all(callable(op) for op in head):
        raise UnsupportedOperator("the fixed-point line needs single-valued leading operators")
    if all(isinstance(op, AffineOperator) for op in operators):
        # a contraction certificate makes the symmetric part of the summed M positive definite
        z = np.linalg.solve(sum(op.M for op in operators), -sum(op.b for op in operators))
    else:
        gamma = family.gamma_interval[0]
        x = fixed_point_oracle(family, gamma, np.zeros(family.dim))
        z = head[0].resolvent(gamma, x[: head[0].dim])
    slope = np.cumsum([op(z) for op in head], axis=0)
    return np.tile(z, len(head)), slope.ravel()


class FixedPointCache:
    """Serves ``family.fixed_point(gamma)``, checking each distinct stepsize (keyed by its
    exact value) once with the residual test ``||x - T_gamma x|| <= 1e-8 * (1 + ||x||)``.

    ``max_residual`` is the largest residual measured; a served point lies within
    ``max_residual / (1 - beta)`` of the exact one for a beta-contraction.
    """

    def __init__(self, family: OperatorFamily):
        self.family = family
        self.max_residual = 0.0
        self._points: dict[float, np.ndarray] = {}

    def point(self, gamma: float) -> np.ndarray:
        key = float(gamma)
        hit = self._points.get(key)
        if hit is not None:
            return hit
        p = self.family.fixed_point(key)
        resid = self.family.residual(key, p)
        if resid > FIXED_POINT_TOL * (1.0 + float(np.linalg.norm(p))):
            raise NotAFixedPoint(f"residual {resid:.3e} of the served point at gamma={key}")
        self.max_residual = max(self.max_residual, resid)
        self._points[key] = p
        return p


def _own_cache(family: OperatorFamily, cache: FixedPointCache | None) -> FixedPointCache:
    """``cache``, checked to serve ``family``, or a fresh FixedPointCache when None."""
    if cache is None:
        return FixedPointCache(family)
    if cache.family is not family:
        raise DomainError("fixed-point cache belongs to another family")
    return cache


def compute_distances(
    family: OperatorFamily,
    trace: IterateTrace,
    cache: FixedPointCache | None = None,
) -> IterateTrace:
    """Fill ``trace.dist_to_fix`` with exact distances ||x_n - x*_{gamma_n}|| to the
    points ``cache`` serves (a fresh one when None).

    Exact distances need singleton fixed-point sets, certified by the family's
    contraction marker (NonSingletonFix otherwise).
    """
    cache = _own_cache(family, cache)
    # row by row: a (rows, dim) block of points would add to peak memory
    trace.dist_to_fix = np.array(
        [float(np.linalg.norm(x - cache.point(g))) for x, g in zip(trace.xs, trace.gammas)]
    )
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


def verify_error_bound(
    family: OperatorFamily,
    gamma: float,
    kappa: float,
    sample_box: tuple[float, float],
    samples: int,
    seed: int,
    cache: FixedPointCache | None = None,
) -> BoundReport:
    """Sample-check dist(x, Fix T_gamma) <= kappa * ||x - T_gamma x||.

    Points are drawn uniformly from the box and evaluated a block at a time
    (``relocsplit.family.BLOCK_FLOATS`` floats); the distance is exact via the unique fixed
    point (contraction marker required), served by ``cache`` (a fresh
    FixedPointCache when the caller holds none).
    Each sample allows the absolute slack 1e-9 * (1 + ||x||); the ratio
    reported is the left side over the slackened right side, so PASS means
    worst_ratio <= 1.
    """
    gamma = family.check_gamma(gamma)
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    lo, hi = float(sample_box[0]), float(sample_box[1])
    if not lo < hi:
        raise DomainError("sample box must have lo < hi")

    x_star = _own_cache(family, cache).point(gamma)
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0
    for k in block_sizes(samples, family.dim):
        x = rng.uniform(lo, hi, size=(k, family.dim))
        lhs = np.linalg.norm(x - x_star, axis=1)
        resid = np.linalg.norm(x - family.apply(gamma, x), axis=1)
        ratio = lhs / (kappa * resid + 1e-9 * (1.0 + np.linalg.norm(x, axis=1)))
        worst = max(worst, float(ratio.max()))
        violations += int(np.count_nonzero(ratio > 1.0))
    return BoundReport("error_bound", samples, violations, worst, kappa)


def verify_one_step_contraction(family: OperatorFamily, trace: IterateTrace, kappa: float) -> BoundReport:
    """Check the per-step distance inequality

        dist_{n+1} <= l_n * sqrt(max{0, 1 - (1-alpha)/(alpha kappa^2)}) * dist_n + 1e-9

    along a relocated run, where l_n is the relocator Lipschitz constant for
    the step. Uses the family's averagedness constant, or (beta+1)/2 for a
    certified contraction.
    """
    if trace.dist_to_fix is None:
        raise MissingDistances("trace has no distances; run compute_distances first")
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    alpha = family.alpha
    if alpha is None:
        beta = family.contraction_beta
        if beta is None:
            raise DomainError("family exposes neither averagedness nor a contraction factor")
        alpha = (beta + 1.0) / 2.0
    factor = float(np.sqrt(max(0.0, 1.0 - (1.0 - alpha) / (alpha * kappa**2))))

    dist = trace.dist_to_fix
    ell = family.relocator_lipschitz(trace.gammas[1:], trace.gammas[:-1])
    ratio = dist[1:] / (ell * factor * dist[:-1] + 1e-9)
    violations = int(np.count_nonzero(ratio > 1.0))
    return BoundReport("one_step", len(ratio), violations, float(ratio.max(initial=0.0)), kappa)


@dataclass(frozen=True)
class RateTheoremResult:
    dist_rate: RateEstimate
    iterate_rate: RateEstimate
    passed: bool
    limit: np.ndarray


def limit_errors(family: OperatorFamily, gamma: float, run: IterateTrace) -> tuple[np.ndarray, np.ndarray]:
    """The limit x_inf of a run and ||x_n - x_inf|| over its rows.

    The iterates converge to a point of Fix T_gamma, gamma the limiting stepsize, and
    float iterates converge to the float map's own fixed point, which can lie above the
    1e-14 fit floor from the exact one. So x_inf comes from T_gamma itself: from the
    run's last iterate, apply it while ||x - T_gamma x|| keeps falling (for a contraction
    it falls at every step in exact arithmetic, so the first step where it does not marks
    the rounding floor), then average that point and its next 4 images. At most
    3 * (len(run) - 1) applications in all; at that cap, the last 5 points are averaged.
    """
    x = run.xs[-1]
    window = deque([x], maxlen=LIMIT_WINDOW)
    last = np.inf
    floor_at = None  # applications made when the residual stopped falling
    for applied in range(1, 3 * (len(run) - 1) + 1):
        t = family.apply(gamma, x)
        if floor_at is None:
            resid = float(np.linalg.norm(x - t))
            if resid >= last:
                floor_at = applied
            last = resid
        window.append(t)
        x = t
        if floor_at is not None and applied - floor_at == LIMIT_WINDOW - 2:
            break
    x_inf = np.mean(window, axis=0)
    return x_inf, np.linalg.norm(run.xs - x_inf, axis=1)


def verify_rate_theorem(
    family: OperatorFamily,
    schedule: StepsizeSchedule,
    x0,
    n_steps: int,
    burn_in: int | None = None,
    run: IterateTrace | None = None,
    limit: np.ndarray | None = None,
    cache: FixedPointCache | None = None,
) -> RateTheoremResult:
    """Fit R-linear rates for dist(x_n, Fix T_{gamma_n}) and ||x_n - x_inf||.

    Fits the ``n_steps`` run from x0, which a caller that already holds it passes as
    ``run``, together with its ``limit_errors`` limit as ``limit`` when it holds that
    too. Passes when both fits come back R-linear; schedules that do not converge
    R-linearly are expected to fail the iterate fit.

    Distances go to the points of ``cache`` (a fresh one when None). A served
    point lies within the cache's largest residual amplified by 1/(1 - beta)
    of the exact one, so distances below a decade above that count as zero
    and are excluded from the fit; a cache that has also served stepsizes
    off the run may raise this floor.
    """
    beta = family.contraction_beta
    if beta is None:
        raise NonSingletonFix("rate verification needs a contraction certificate")
    if burn_in is None:
        burn_in = default_burn_in(n_steps)

    if run is None:
        run = relocated_iterate(family, schedule, x0, n_steps)
    elif len(run) != n_steps + 1:
        raise DomainError(f"run has {len(run)} rows, need {n_steps + 1}")
    if limit is None:
        limit, errs = limit_errors(family, schedule.gamma_star, run)
    else:
        errs = np.linalg.norm(run.xs - limit, axis=1)
    iterate_rate = _fit_allow_zero(errs, burn_in)

    cache = _own_cache(family, cache)
    # distances on a view, so the caller's run keeps its own
    dist = compute_distances(family, run.head(len(run)), cache).dist_to_fix
    dist_floor = max(FLOAT_FLOOR, min(1e-6, 10.0 * cache.max_residual / (1.0 - beta)))
    dist_rate = _fit_allow_zero(dist, burn_in, floor=dist_floor)

    passed = dist_rate.linear and iterate_rate.linear
    return RateTheoremResult(dist_rate, iterate_rate, passed, limit)
