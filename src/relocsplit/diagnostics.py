"""Rate fitting, fixed-point oracles, and executable forms of the convergence
guarantees: error bounds, the one-step distance contraction, and R-linear rate
verification for relocated runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    MissingDistances,
    NoConvergence,
    NonSingletonFix,
    TooFewSamples,
)
from .family import (
    DIVERGENCE_LIMIT,
    IterateTrace,
    OperatorFamily,
    StepsizeSchedule,
    relocated_iterate,
)
from .operators import as_vector

#: below this, floating-point rounding destroys log-linearity
FLOAT_FLOOR = 1e-14
#: minimum usable entries for a rate fit
MIN_FIT_SAMPLES = 20
#: fits with R^2 below this are reported as not R-linear
FIT_QUALITY_GATE = 0.9


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


class FixedPointCache:
    """One oracle fixed point per distinct stepsize (keyed by its exact value).

    Oracle runs dominate the cost of rate verification; schedules revisit the
    limiting stepsize many times once increments fall below rounding. A miss
    starts the oracle from the previous miss's point carried over by the
    relocator, ``Q_{gamma<-gamma_prev} x_prev``, which maps Fix T_gamma_prev
    onto Fix T_gamma; the oracle then only removes the small error that
    ``x_prev`` carried. Every point served still passes the oracle's residual test
    ``||x - T_gamma x|| <= tol``. An explicit ``x0`` overrides the start.
    """

    def __init__(self, family: OperatorFamily, tol: float = 1e-13, max_iters: int = 10**6):
        self.family = family
        self.tol = tol
        self.max_iters = max_iters
        self._points: dict[float, np.ndarray] = {}
        self._last: tuple[float, np.ndarray] | None = None

    def point(self, gamma: float, x0=None) -> np.ndarray:
        key = float(gamma)
        hit = self._points.get(key)
        if hit is not None:
            return hit
        if x0 is None:
            if self._last is None:
                x0 = np.zeros(self.family.dim)
            else:
                x0 = self.family.relocate(gamma, *self._last)
        p = fixed_point_oracle(self.family, gamma, x0, tol=self.tol, max_iters=self.max_iters)
        self._points[key] = p
        self._last = (gamma, p)
        return p


def compute_distances(
    family: OperatorFamily,
    trace: IterateTrace,
    cache: FixedPointCache | None = None,
) -> IterateTrace:
    """Fill ``trace.dist_to_fix`` with exact distances ||x_n - x*_{gamma_n}||.

    Exact distances need singleton fixed-point sets, certified by the family's
    contraction marker.
    """
    if family.contraction_beta is None:
        raise NonSingletonFix("exact distances need a contraction certificate")
    if cache is None:
        cache = FixedPointCache(family)
    dist = np.array(
        [float(np.linalg.norm(trace.xs[n] - cache.point(trace.gammas[n]))) for n in range(len(trace))]
    )
    trace.dist_to_fix = dist
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
    bound_name: str = "error_bound",
) -> BoundReport:
    """Sample-check dist(x, Fix T_gamma) <= kappa * ||x - T_gamma x||.

    Points are drawn uniformly from the box; the distance is exact via the
    unique fixed point (contraction marker required). Each sample allows the
    absolute slack 1e-9 * (1 + ||x||); the ratio reported is the left side
    over the slackened right side, so PASS means worst_ratio <= 1.
    """
    gamma = family.check_gamma(gamma)
    if family.contraction_beta is None:
        raise NonSingletonFix("error bound check needs a contraction certificate")
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    lo, hi = float(sample_box[0]), float(sample_box[1])
    if not lo < hi:
        raise DomainError("sample box must have lo < hi")

    x_star = fixed_point_oracle(family, gamma, np.full(family.dim, 0.5 * (lo + hi)))
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0
    for _ in range(samples):
        x = rng.uniform(lo, hi, size=family.dim)
        lhs = float(np.linalg.norm(x - x_star))
        resid = float(np.linalg.norm(x - family.apply(gamma, x)))
        rhs = kappa * resid + 1e-9 * (1.0 + float(np.linalg.norm(x)))
        ratio = lhs / rhs
        worst = max(worst, ratio)
        if ratio > 1.0:
            violations += 1
    return BoundReport(bound_name, samples, violations, worst, kappa)


def verify_one_step_contraction(
    family: OperatorFamily,
    schedule: StepsizeSchedule,
    trace: IterateTrace,
    kappa: float,
) -> BoundReport:
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
    violations = 0
    worst = 0.0
    steps = len(trace) - 1
    for n in range(steps):
        ell = family.relocator_lipschitz(trace.gammas[n + 1], trace.gammas[n])
        rhs = ell * factor * dist[n] + 1e-9
        ratio = dist[n + 1] / rhs
        worst = max(worst, ratio)
        if ratio > 1.0:
            violations += 1
    return BoundReport("one_step", steps, violations, worst, kappa)


@dataclass(frozen=True)
class RateTheoremResult:
    dist_rate: RateEstimate
    iterate_rate: RateEstimate
    passed: bool
    limit: np.ndarray


def verify_rate_theorem(
    family: OperatorFamily,
    schedule: StepsizeSchedule,
    x0,
    n_steps: int,
    burn_in: int | None = None,
    extended: IterateTrace | None = None,
    cache: FixedPointCache | None = None,
) -> RateTheoremResult:
    """Fit R-linear rates for dist(x_n, Fix T_{gamma_n}) and ||x_n - x_inf||.

    The limit is estimated as the average of the last 5 iterates of a run 4x
    as long (the limit lies in Fix T_{gamma*}, which is only resolvent-
    accessible). Passes when both fits come back R-linear; schedules that do
    not converge R-linearly are expected to fail the iterate fit.

    Distances are trusted only down to the oracle's point accuracy
    (residual tolerance amplified by 1/(1 - beta)); below that they are
    indistinguishable from zero and excluded from the fit.

    A caller that already holds the ``4 * n_steps`` run from ``x0`` and a
    fixed-point cache for the family passes them as ``extended`` and
    ``cache``. A cache filled by ``compute_distances`` along the run's first
    ``n_steps + 1`` rows gives the same result, bit for bit, as a fresh one;
    otherwise its points may differ within the oracle's accuracy.
    """
    beta = family.contraction_beta
    if beta is None:
        raise NonSingletonFix("rate verification needs a contraction certificate")
    if burn_in is None:
        burn_in = default_burn_in(n_steps)

    if extended is None:
        extended = relocated_iterate(family, schedule, x0, 4 * n_steps)
    elif len(extended) != 4 * n_steps + 1:
        raise DomainError(f"extended run has {len(extended)} rows, need {4 * n_steps + 1}")
    x_inf = extended.xs[-5:].mean(axis=0)
    errs = np.linalg.norm(extended.xs[: n_steps + 1] - x_inf, axis=1)
    iterate_rate = _fit_allow_zero(errs, burn_in)

    if cache is None:
        cache = FixedPointCache(family)
    elif cache.family is not family:
        raise DomainError("fixed-point cache belongs to another family")
    dist = np.array(
        [
            float(np.linalg.norm(extended.xs[n] - cache.point(extended.gammas[n])))
            for n in range(n_steps + 1)
        ]
    )
    # oracle points are only accurate to ~tol/(1-beta); stay a decade above
    dist_floor = max(FLOAT_FLOOR, min(1e-6, 10.0 * cache.tol / (1.0 - beta)))
    dist_rate = _fit_allow_zero(dist, burn_in, floor=dist_floor)

    passed = dist_rate.linear and iterate_rate.linear
    return RateTheoremResult(dist_rate, iterate_rate, passed, x_inf)
