"""Stepsize-parameterized operator families and the relocated iteration driver.

A family bundles the map ``T_gamma``, its fixed-point relocator
``Q_{delta<-gamma}`` and the relocator's Lipschitz constant. The driver runs

    x_{n+1} = Q_{gamma_{n+1} <- gamma_n} T_{gamma_n} x_n

and records residuals per step. A point is a fixed point when its measured
residual ``||x - T_gamma x|| <= tol * (1 + ||x||)``; a family with singleton
fixed-point sets serves them from one line, certified once by a proven bound.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivergenceDetected,
    DomainError,
    MissingBlocks,
    NonPositiveStepsize,
    NonSingletonFix,
    NotAFixedPoint,
)
from .operators import as_points, as_vector

#: scale-adjusted residual tolerance certifying fixed-point membership
FIXED_POINT_TOL = 1e-8
#: iterate-norm guard; crossing it means the run is not contractive
DIVERGENCE_LIMIT = 1e12
#: scale-adjusted residual tolerance for each row of ``relocator_only_sequence``
ROW_TOL = 1e-7
#: widest stepsize interval used when a family has no natural restriction
GAMMA_WIDE = (1e-8, 1e8)
#: floats per block of sample points that a sampling check evaluates in one call
#: (128 KiB): large enough for matrix-matrix resolvents, small enough not to
#: raise peak memory
BLOCK_FLOATS = 16_384


def block_sizes(count: int, floats_each: int):
    """Split ``count`` samples of ``floats_each`` floats into blocks of at most
    ``BLOCK_FLOATS`` floats (at least one sample per block); yields the sizes."""
    per_block = max(1, BLOCK_FLOATS // floats_each)
    for start in range(0, count, per_block):
        yield min(per_block, count - start)


@dataclass(frozen=True)
class StepsizeSchedule:
    """A stepsize sequence gamma_n clamped into [gamma_low, gamma_high].

    Kinds:
      constant     gamma_n = gamma_star
      geometric    gamma_n = clamp(gamma_star + C * r**n), converges R-linearly
      polynomial   gamma_n = clamp(gamma_star + C / (n+1)**p), converges but
                   not R-linearly (counterexample studies)
    """

    kind: str
    gamma_star: float
    gamma_low: float
    gamma_high: float
    C: float = 0.0
    r: float | None = None
    p: float | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "geometric", "polynomial"):
            raise DomainError(f"unknown schedule kind {self.kind!r}")
        params = (self.gamma_star, self.gamma_low, self.gamma_high, self.C, self.r, self.p)
        if not all(math.isfinite(v) for v in params if v is not None):
            raise DomainError("schedule parameters must be finite")
        if not (0.0 < self.gamma_low <= self.gamma_high):
            raise DomainError("need 0 < gamma_low <= gamma_high")
        if not (self.gamma_low <= self.gamma_star <= self.gamma_high):
            raise DomainError("gamma_star must lie in [gamma_low, gamma_high]")
        if self.C < 0.0:
            raise DomainError("C must be >= 0")
        if self.kind == "geometric":
            if self.r is None or not (0.0 < self.r < 1.0):
                raise DomainError("geometric schedule needs r in (0, 1)")
        if self.kind == "polynomial":
            if self.p is None or self.p <= 0.0:
                raise DomainError("polynomial schedule needs p > 0")

    @classmethod
    def constant(cls, gamma_star: float, interval: tuple[float, float] | None = None):
        lo, hi = interval if interval is not None else (gamma_star, gamma_star)
        return cls("constant", gamma_star, lo, hi)

    @classmethod
    def geometric(cls, gamma_star: float, C: float, r: float, interval: tuple[float, float]):
        return cls("geometric", gamma_star, interval[0], interval[1], C=C, r=r)

    @classmethod
    def polynomial(cls, gamma_star: float, C: float, p: float, interval: tuple[float, float]):
        return cls("polynomial", gamma_star, interval[0], interval[1], C=C, p=p)

    def gamma(self, n: int) -> float:
        if n < 0:
            raise DomainError("schedule index must be >= 0")
        return float(self._at([n])[0])

    def gammas(self, count: int) -> np.ndarray:
        """gamma_0, ..., gamma_{count-1}."""
        return self._at(range(count))

    def _at(self, indices) -> np.ndarray:
        # Python's ** per term (numpy's power rounds some terms differently),
        # then shift, scale and clamp as array operations
        if self.kind == "geometric":
            shift = self.C * np.fromiter((self.r**n for n in indices), float, len(indices))
        elif self.kind == "polynomial":
            shift = self.C / np.fromiter(((n + 1) ** self.p for n in indices), float, len(indices))
        else:
            shift = np.zeros(len(indices))
        return np.clip(self.gamma_star + shift, self.gamma_low, self.gamma_high)

    @property
    def converges_r_linearly(self) -> bool:
        return self.kind != "polynomial"


@dataclass(frozen=True)
class FixedPointLine:
    """Fix T_gamma = {offset + gamma * slope} for every gamma in a family's interval, with
    ``residual_bound`` a proven bound on ||x - T_gamma x|| at every point served."""

    offset: np.ndarray
    slope: np.ndarray
    residual_bound: float

    def point(self, gamma) -> np.ndarray:
        """The fixed point at ``gamma``; a column of stepsizes ``(k, 1)`` gives a block of them."""
        return self.offset + gamma * self.slope


class OperatorFamily(abc.ABC):
    """A family (T_gamma) with relocators, over a closed stepsize interval.

    Subclasses set ``dim`` (the driver-facing vector length),
    ``gamma_interval``, an averagedness constant ``alpha`` when known, and
    report a contraction factor through ``contraction_beta`` when one is
    certified (in which case every Fix T_gamma is a singleton).
    """

    dim: int
    gamma_interval: tuple[float, float]
    alpha: float | None = None
    _line: FixedPointLine | None = None

    @property
    def contraction_beta(self) -> float | None:
        return None

    @abc.abstractmethod
    def apply(self, gamma: float, x) -> np.ndarray:
        """Evaluate T_gamma at a point x ``(dim,)`` or at each row of a block ``(k, dim)``."""

    @abc.abstractmethod
    def relocate(self, delta: float, gamma: float, x) -> np.ndarray:
        """Evaluate the relocator Q_{delta <- gamma} at a point or at each row of a block."""

    @abc.abstractmethod
    def relocator_lipschitz(self, delta, gamma):
        """A Lipschitz constant (>= 1) of Q_{delta <- gamma}, equal to 1 at delta == gamma.

        Stepsize arrays give the constants elementwise.
        """

    def apply_from(self, gamma: float, x, shadow=None) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Evaluate T_gamma at x and return it with the row's trace blocks.

        ``shadow`` is the value ``relocate_from`` returned with x; a family
        whose relocator evaluates part of T_gamma x reuses it instead of
        solving again. The default records no blocks and ignores the shadow.
        """
        return self.apply(gamma, x), {}

    def relocate_from(self, delta: float, gamma: float, x) -> tuple[np.ndarray, object]:
        """Evaluate Q_{delta <- gamma} at x and return it with its shadow for ``apply_from``."""
        return self.relocate(delta, gamma, x), None

    def fixed_point(self, gamma: float) -> np.ndarray:
        """The fixed point of T_gamma, served from ``fixed_point_line``."""
        return self.fixed_point_line().point(self.check_gamma(gamma))

    def fixed_point_line(self) -> FixedPointLine:
        """The line ``_fixed_point_line`` builds, certified on first use: its residual bound lies
        within FIXED_POINT_TOL, and its points at the interval ends pass ``assert_fixed_point``,
        which refuses a line not encoding T_gamma's fixed points (NotAFixedPoint otherwise)."""
        if self._line is None:
            line = self._fixed_point_line()
            if not line.residual_bound <= FIXED_POINT_TOL:
                raise NotAFixedPoint(
                    f"line residual bound {line.residual_bound:.3e} above {FIXED_POINT_TOL:.1e}"
                )
            for gamma in dict.fromkeys(self.gamma_interval):
                self.assert_fixed_point(gamma, line.point(gamma))
            self._line = line
        return self._line

    def _fixed_point_line(self) -> FixedPointLine:
        raise NonSingletonFix(f"{type(self).__name__} exposes no fixed-point line")

    def residual(self, gamma: float, x) -> float:
        x = as_vector(x, self.dim)
        return float(np.linalg.norm(x - self.apply(gamma, x)))

    def assert_fixed_point(self, gamma: float, x, tol: float = FIXED_POINT_TOL) -> np.ndarray:
        x = as_vector(x, self.dim)
        r = self.residual(gamma, x)
        if r > tol * (1.0 + float(np.linalg.norm(x))):
            raise NotAFixedPoint(
                f"residual {r:.3e} exceeds {tol:.1e}*(1+||x||) at gamma={gamma}"
            )
        return x

    def check_gamma(self, gamma):
        """Check a stepsize, or an array of them at once, against the family interval.

        Returns a float for a scalar, the float array otherwise.
        """
        g = np.asarray(gamma, dtype=float)
        lo, hi = self.gamma_interval
        # the interval ends as initial values let an empty array pass
        low, high = (g.min(initial=lo), g.max(initial=hi)) if g.ndim else (float(g),) * 2
        if low <= 0:
            raise NonPositiveStepsize(f"stepsize must be positive, got {low}")
        for value in (low, high):
            if not lo - 1e-12 <= value <= hi + 1e-12:
                raise DomainError(f"gamma={value} outside family interval [{lo}, {hi}]")
        return g if g.ndim else float(g)

    def _set_interval(self, gamma_interval) -> None:
        lo, hi = float(gamma_interval[0]), float(gamma_interval[1])
        if not (0.0 < lo <= hi):
            raise DomainError("need 0 < gamma_low <= gamma_high")
        self.gamma_interval = (lo, hi)


@dataclass
class IterateTrace:
    """Per-iteration record: stepsize, iterate, T_gamma(iterate), residual.

    ``blocks`` holds algorithm-specific sequences (z, y, w for the two-operator
    splitting; z and w blocks for the multioperator one) as (rows, k) arrays.
    The per-row error columns start empty: ``diagnostics.compute_distances``
    fills ``dist_to_fix`` (||x_n - x*_{gamma_n}||) and ``diagnostics.limit_errors``
    fills ``err_to_limit`` (||x_n - x_inf||); the checks read them from here.
    """

    gammas: np.ndarray
    xs: np.ndarray
    t_of_x: np.ndarray
    residuals: np.ndarray
    dist_to_fix: np.ndarray | None = None
    err_to_limit: np.ndarray | None = None
    blocks: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.gammas.shape[0])

    def block(self, name: str) -> np.ndarray:
        try:
            return self.blocks[name]
        except KeyError:
            raise MissingBlocks(f"trace has no block {name!r}") from None


class ScalarShiftFamily(OperatorFamily):
    """The 1-d family T_gamma x = gamma + beta*(x - gamma) with Fix T_gamma = {gamma}.

    Its relocator is the constant map delta, so the iterate sequence started at
    gamma_0 reproduces the stepsize sequence exactly; it converges R-linearly
    precisely when the schedule does. Used as the sharpness counterexample.
    """

    def __init__(self, beta: float, gamma_interval: tuple[float, float] = GAMMA_WIDE):
        if not (0.0 <= beta < 1.0):
            raise DomainError("beta must lie in [0, 1)")
        self._set_interval(gamma_interval)
        self.beta = float(beta)
        self.dim = 1
        self.alpha = (1.0 + self.beta) / 2.0

    @property
    def contraction_beta(self) -> float:
        return self.beta

    def apply(self, gamma, x):
        gamma = self.check_gamma(gamma)
        x = as_points(x, 1)
        return gamma + self.beta * (x - gamma)

    def relocate(self, delta, gamma, x):
        delta = self.check_gamma(delta)
        self.check_gamma(gamma)
        return np.full_like(as_points(x, 1), delta)

    def _fixed_point_line(self):
        # x = gamma is formed exactly, and T_gamma gamma = gamma + beta * 0 = gamma in floats
        return FixedPointLine(np.zeros(1), np.ones(1), 0.0)

    def relocator_lipschitz(self, delta, gamma):
        # the constant map is 0-Lipschitz; constants are declared in [1, inf)
        shape = np.broadcast(self.check_gamma(delta), self.check_gamma(gamma)).shape
        return np.ones(shape)[()]


def relocated_iterate(family: OperatorFamily, schedule: StepsizeSchedule, x0, n_steps: int) -> IterateTrace:
    """Run x_{n+1} = Q_{gamma_{n+1} <- gamma_n} T_{gamma_n} x_n for n_steps steps.

    Returns a trace with rows n = 0..n_steps; every row carries T_gamma_n(x_n)
    and the residual ||x_n - T_gamma_n x_n||. Each step hands the shadow of
    ``relocate_from`` to the next ``apply_from``, so a family's per-step
    algorithm (two resolvents per step for ``DRFamily``, N for ``MTFamily``)
    is this loop. When the family records blocks, the trace also holds
    ``w`` = T_gamma_n(x_n), sharing storage with ``t_of_x``.
    """
    if n_steps < 1:
        raise DomainError("n_steps must be >= 1")
    x = as_vector(x0, family.dim)
    gams = family.check_gamma(schedule.gammas(n_steps + 1))
    rows = n_steps + 1
    xs = np.empty((rows, family.dim))
    ts = np.empty((rows, family.dim))
    res = np.empty(rows)
    blocks: dict[str, np.ndarray] = {}
    shadow = None
    for n in range(rows):
        size = float(np.linalg.norm(x))
        if not np.isfinite(size) or size > DIVERGENCE_LIMIT:
            raise DivergenceDetected(f"||x_{n}|| exceeded {DIVERGENCE_LIMIT:.0e}")
        t, row_blocks = family.apply_from(gams[n], x, shadow)
        xs[n] = x
        ts[n] = t
        res[n] = float(np.linalg.norm(x - t))
        for name, value in row_blocks.items():
            if name not in blocks:
                blocks[name] = np.empty((rows, value.size))
            blocks[name][n] = value
        if n < n_steps:
            x, shadow = family.relocate_from(gams[n + 1], gams[n], t)
    if blocks:
        blocks["w"] = ts
    return IterateTrace(gams, xs, ts, res, blocks=blocks)


def relocator_only_sequence(
    family: OperatorFamily, schedule: StepsizeSchedule, c0, n_steps: int
) -> IterateTrace:
    """Run c_{n+1} = Q_{gamma_{n+1} <- gamma_n} c_n from a fixed point c0 of T_{gamma_0}.

    Each c_n must remain a fixed point of T_{gamma_n}; a row violating the
    residual certificate ``ROW_TOL * (1 + ||c_n||)`` raises NotAFixedPoint
    (it would signal a broken relocator).
    """
    if n_steps < 1:
        raise DomainError("n_steps must be >= 1")
    c = family.assert_fixed_point(schedule.gamma(0), c0)
    gams = family.check_gamma(schedule.gammas(n_steps + 1))

    cs, ts, res = [], [], []
    for n in range(n_steps + 1):
        t = family.apply(gams[n], c)
        r = float(np.linalg.norm(c - t))
        if r > ROW_TOL * (1.0 + float(np.linalg.norm(c))):
            raise NotAFixedPoint(
                f"relocated point left the fixed-point set at step {n} (residual {r:.3e})"
            )
        cs.append(c)
        ts.append(t)
        res.append(r)
        if n < n_steps:
            c = family.relocate(gams[n + 1], gams[n], c)
    return IterateTrace(gams, np.vstack(cs), np.vstack(ts), np.array(res))


@dataclass(frozen=True)
class SummabilityReport:
    partial_sums: np.ndarray
    converged: bool
    tail_increment: float


def summability_report(family: OperatorFamily, schedule: StepsizeSchedule, n_terms: int) -> SummabilityReport:
    """Cumulative sums of (L_{gamma_{n+1} <- gamma_n} - 1) with a convergence flag.

    ``converged`` is True when the increment over the last 10% of terms falls
    below 1e-10; divergent stepsize schedules keep the tail visibly positive.
    """
    if n_terms < 10:
        raise DomainError("n_terms must be >= 10")
    gams = schedule.gammas(n_terms + 1)
    sums = np.cumsum(family.relocator_lipschitz(gams[1:], gams[:-1]) - 1.0)
    k = max(1, n_terms // 10)
    tail = float(sums[-1] - sums[-k - 1]) if k < n_terms else float(sums[-1])
    return SummabilityReport(sums, tail < 1e-10, tail)


@dataclass(frozen=True)
class GammaLipschitzProbe:
    """For each probed pair: the move ||Q_{delta<-gamma} x - x||, the stepsize gap
    |delta - gamma| and the scale 1 + ||x||."""

    moves: np.ndarray
    gaps: np.ndarray
    scales: np.ndarray

    @property
    def L_estimate(self) -> float:
        """The largest ratio ||Q_{delta<-gamma} x - x|| / |delta - gamma|."""
        return float(np.max(self.moves / self.gaps))

    def excess(self, L: float) -> float:
        """Largest | ||Q x - x|| - L |delta - gamma| | / (1 + ||x||): how far the moves are
        from a relocator moving every probed fixed point by exactly L |delta - gamma|."""
        return float(np.max(np.abs(self.moves - L * self.gaps) / self.scales))


def gamma_lipschitz_probe(
    family: OperatorFamily,
    fixed_points: list[tuple[np.ndarray, float]],
    deltas: list[float],
) -> GammaLipschitzProbe:
    """Probe ||Q_{delta<-gamma} x - x|| against |delta - gamma| over fixed points.

    Every (x, gamma) must pass the fixed-point residual certificate; delta ==
    gamma pairs are skipped. The largest ratio witnesses the Lipschitz-in-stepsize
    behaviour of the relocator along the fixed-point sets.
    """
    deltas = family.check_gamma(np.asarray(deltas, dtype=float))
    rows = []
    for x, gamma in fixed_points:
        x = family.assert_fixed_point(gamma, x)
        scale = 1.0 + float(np.linalg.norm(x))
        rows += [(float(np.linalg.norm(family.relocate(delta, gamma, x) - x)), abs(delta - gamma), scale)
                 for delta in deltas[deltas != gamma]]
    if not rows:
        raise DomainError("no (fixed point, delta) pair with delta != gamma")
    return GammaLipschitzProbe(*(np.array(column) for column in zip(*rows)))
